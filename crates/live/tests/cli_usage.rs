//! `live-proxy` rejects unusable `--nonce` values as usage errors: exit
//! code 2 with a message naming the flag, decided before any socket is
//! bound (neither invocation names an address) and never by a panic.

use std::process::Command;

fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_live-proxy"))
        .args(args)
        .output()
        .expect("spawn live-proxy");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains("--nonce"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn zero_nonce_is_a_usage_error() {
    usage_error(&[
        "--role",
        "sender-side",
        "--auth-secret",
        "7",
        "--nonce",
        "0",
    ]);
}

#[test]
fn nonce_without_auth_secret_is_a_usage_error() {
    let stderr = usage_error(&["--role", "receiver-side", "--nonce", "5"]);
    assert!(stderr.contains("--auth-secret"), "{stderr}");
}
