//! `bench`: the untraced runs, which produce the end-to-end numbers.

use sidecar_benchmark::cli::{main as cli_main, Binary};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli_main(Binary::Plain)
}
