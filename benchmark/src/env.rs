//! Where and on what a result was measured. Written into every document, so
//! two results can be told apart before they are compared.

use crate::json::Json;
use std::process::Command;

/// First line of a command's standard output, or "unknown" when the command
/// is missing or fails (a checkout that is not a git repository, say).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn describe() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::str(kernel)),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        // The benchmark builds every crate with its default features.
        ("features", Json::str("default (obs, auth, parallel)")),
        ("profile", Json::str("release, lto=thin, codegen-units=1")),
    ])
}
