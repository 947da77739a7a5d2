#!/usr/bin/env bash
# Builds the benchmark (release, both binaries) and runs it: every argument
# goes to `bench run`. Run from the repository root.
#
#   bash benchmark/run.sh --workload live_relay --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --all --seeds 1,2,3,4,5 --out benchmark/out/a.json
#   bash benchmark/run.sh --all --quick          # smoke only, never compared
#
# Compare two `--all` documents with
#   "${CARGO_TARGET_DIR:-benchmark/target}/release/bench" compare a.json b.json
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# Build output goes to standard error: the last line of standard output
# belongs to the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/bench" run "$@"
