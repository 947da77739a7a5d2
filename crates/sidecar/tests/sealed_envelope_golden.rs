//! Byte-for-byte pin of the authenticated control-datagram envelope.
//!
//! The MAC over a sealed datagram is a pure function of the pre-shared
//! secret, the session nonce, the sequence number and the message, so the
//! `(tag, body)` pairs a [`ChannelAuth`] produces are reproducible down to
//! the last byte. This test seals the four message shapes the `auth` unit
//! tests use, for a legacy-tagged flow (0) and a flow-tagged one (7), three
//! times each from one endpoint, and compares the hex of every datagram
//! against `tests/fixtures/sealed_envelopes.hex`. Any change to the HMAC
//! plumbing (key schedule, what the MAC covers, field order, truncation)
//! moves these bytes; an optimisation of it must not.
//!
//! Regenerate only after an *intended* wire change:
//! `UPDATE_GOLDEN=1 cargo test -p sidecar-proto --test sealed_envelope_golden`

use sidecar_netsim::time::SimDuration;
use sidecar_proto::{AuthConfig, ChannelAuth, SidecarMessage, AUTH_OVERHEAD};
use std::fmt::Write as _;
use std::path::PathBuf;

fn cfg(nonce: u64) -> AuthConfig {
    AuthConfig::from_secret(0xFEED_FACE_CAFE_BEEF, 1).with_nonce(nonce)
}

/// The shapes `auth.rs`'s unit tests seal, labelled for the fixture.
fn sample_messages() -> Vec<(&'static str, SidecarMessage)> {
    vec![
        (
            "quack",
            SidecarMessage::Quack {
                epoch: 7,
                bytes: vec![0xAB; 82],
            },
        ),
        (
            "configure",
            SidecarMessage::Configure {
                interval: SimDuration::from_millis(9),
            },
        ),
        ("reset", SidecarMessage::Reset { epoch: 41 }),
        (
            "hello",
            SidecarMessage::Hello {
                threshold: 20,
                id_bits: 32,
                count_bits: 16,
                interval: SimDuration::from_millis(60),
            },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(out, "{b:02x}").unwrap();
    }
    out
}

/// One line per sealed datagram, in seal order.
fn render() -> String {
    let mut tx = ChannelAuth::new(cfg(9));
    let mut rx = ChannelAuth::new(cfg(2));
    let mut out = String::new();
    for (label, msg) in sample_messages() {
        for flow in [0u32, 7] {
            for _ in 0..3 {
                let (tag, body) = tx.seal(&msg, flow);
                writeln!(
                    out,
                    "{label} flow={flow} seq={} tag={tag} body={}",
                    tx.tx_seq(),
                    hex(&body)
                )
                .unwrap();
                // The pinned bytes are also *valid*: a peer opens them.
                assert!(body.len() > AUTH_OVERHEAD);
                assert_eq!(rx.open(tag, &body), Ok((flow, msg.clone())), "{label}");
            }
        }
    }
    out
}

#[test]
fn sealed_envelopes_match_golden() {
    let got = render();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sealed_envelopes.hex");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (g, w) in got.lines().zip(want.lines()) {
        let label: Vec<&str> = g.split(' ').take(3).collect();
        assert_eq!(g, w, "sealed datagram `{}` moved", label.join(" "));
    }
    assert_eq!(got.lines().count(), want.lines().count(), "datagram count");
}
