//! `bench-trace`: the same workloads under harness-side spans and a
//! counting allocator, which produce the per-layer numbers.

use sidecar_benchmark::alloc::CountingAlloc;
use sidecar_benchmark::cli::{main as cli_main, Binary};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    cli_main(Binary::Traced)
}
