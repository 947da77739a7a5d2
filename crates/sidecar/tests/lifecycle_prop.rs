//! Property + golden tests for the cross-node flight recorder.
//!
//! The lifecycle reconstruction claims three causal invariants over any
//! seeded scenario (ISSUE: quACK→retx reaction attribution):
//!
//! 1. `check_causal` certifies every complete reconstruction — steps
//!    time-ordered, hop accounting resolves every accepted transmission to
//!    delivery xor drop (modulo the one legitimate on-the-wire packet at
//!    the simulation cutoff);
//! 2. every in-network `ProxyRetx` is *caused*: a `DecodeMissing` with the
//!    same `TraceId` precedes it — proxies never retransmit spontaneously;
//! 3. the reconstruction is deterministic in `(scenario, seed)` — pinned
//!    byte-for-byte by a golden `explain` fixture, regenerated with
//!    `UPDATE_GOLDEN=1 cargo test -p sidecar-proto --test lifecycle_prop`.

use proptest::prelude::*;
use sidecar_netsim::link::LossModel;
use sidecar_obs::{DropCause, Event, Lifecycle, TraceClass};
use sidecar_proto::protocols::ccd::CcdScenario;
use sidecar_proto::protocols::retx::RetxScenario;
use std::path::PathBuf;

/// Ring capacity large enough that no property run ever truncates.
const TRACE_CAP: usize = 1 << 20;

fn retx_lifecycle(seed: u64, p: f64, total: u64) -> Lifecycle {
    let mut scenario = RetxScenario {
        total_packets: total,
        trace_capacity: Some(TRACE_CAP),
        ..RetxScenario::default()
    };
    scenario.subpath.loss = LossModel::Bernoulli { p };
    Lifecycle::from_trace(&scenario.run_sidecar(seed).trace)
}

/// Scans every timeline for the reaction-causality and delivery-xor-drop
/// invariants, independently of `check_causal`'s own bookkeeping.
fn assert_causal_by_hand(lc: &Lifecycle) -> Result<(), TestCaseError> {
    for tl in lc.timelines() {
        let mut first_decode = None;
        let mut enq = 0u64;
        let mut resolved = 0u64;
        for &(at, ref event) in &tl.steps {
            match *event {
                Event::DecodeMissing { .. } => {
                    first_decode.get_or_insert(at);
                }
                Event::ProxyRetx { .. } => {
                    prop_assert!(
                        first_decode.is_some_and(|d| d <= at),
                        "{}: proxy retx at {at}ns without preceding decode_missing",
                        tl.id
                    );
                }
                Event::HopEnqueue { .. } => enq += 1,
                Event::HopDeliver { .. } => resolved += 1,
                Event::HopDrop {
                    cause: DropCause::NodeDown,
                    ..
                } => resolved += 1,
                _ => {}
            }
            prop_assert!(
                resolved <= enq,
                "{}: more resolutions than enqueues at {at}ns",
                tl.id
            );
        }
        let trailing_enqueue = matches!(tl.steps.last(), Some(&(_, Event::HopEnqueue { .. })));
        prop_assert!(
            resolved == enq || (resolved + 1 == enq && trailing_enqueue),
            "{}: {enq} enqueues but {resolved} resolutions",
            tl.id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded lossy retx run reconstructs complete, causally valid
    /// timelines: certification passes and the hand-rolled scan agrees.
    #[test]
    fn retx_lifecycle_is_causal(
        seed in any::<u64>(),
        loss_bp in 0u32..800,
        total in 60u64..200,
    ) {
        let lc = retx_lifecycle(seed, f64::from(loss_bp) / 10_000.0, total);
        prop_assert!(lc.is_complete(), "analysis ring must not truncate");
        prop_assert!(!lc.is_empty(), "a run must leave timelines");
        lc.check_causal().map_err(TestCaseError::Fail)?;
        assert_causal_by_hand(&lc)?;
        // Reaction latencies are positive by construction (decode ≤ retx).
        for ns in lc.proxy_reaction_latencies() {
            prop_assert!(ns < 10_000_000_000, "implausible reaction {ns}ns");
        }
    }

    /// Same certification over the ccd topology, whose reaction chain is
    /// e2e (decode at the server → transport retx under a new pn): the
    /// lost-pn → data-unit join must produce a latency for every reacted
    /// loss without violating causality.
    #[test]
    fn ccd_lifecycle_is_causal(seed in any::<u64>(), loss_bp in 0u32..500) {
        let p = f64::from(loss_bp) / 10_000.0;
        let mut scenario = CcdScenario {
            total_packets: 120,
            trace_capacity: Some(TRACE_CAP),
            ..CcdScenario::default()
        };
        scenario.upstream.loss = LossModel::Bernoulli { p };
        let lc = Lifecycle::from_trace(&scenario.run_sidecar(seed).trace);
        prop_assert!(lc.is_complete());
        lc.check_causal().map_err(TestCaseError::Fail)?;
        assert_causal_by_hand(&lc)?;
    }
}

// ---------------------------------------------------------------------------
// Golden fixture: the reconstruction and `explain` rendering are part of the
// deterministic surface, byte-stable for a fixed (scenario, seed).
// ---------------------------------------------------------------------------

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn assert_golden(name: &str, got: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "lifecycle reconstruction diverged from {} — if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}

#[test]
fn explain_output_matches_golden() {
    let run = || {
        let lc = retx_lifecycle(7, 0.05, 120);
        lc.check_causal().expect("golden scenario must be causal");
        // Deterministic selection: the first (lowest TraceId) data packet
        // the proxy retransmitted, plus the run-level attribution summary.
        let retransmitted = lc
            .data_timelines()
            .find(|tl| tl.proxy_retransmitted())
            .expect("5% subpath loss over 120 packets must trigger a proxy retx");
        let mut out = String::new();
        out.push_str(&format!(
            "timelines={} data={} in_flight_at_end={}\n",
            lc.len(),
            lc.data_timelines().count(),
            lc.in_flight_at_end(),
        ));
        for (&(node, iface), &count) in &lc.drop_segments() {
            out.push_str(&format!("drops node={node} iface={iface} count={count}\n"));
        }
        let latencies = lc.proxy_reaction_latencies();
        out.push_str(&format!("proxy_reactions={}\n\n", latencies.len()));
        out.push_str(&lc.explain(retransmitted.id));
        out
    };
    let got = run();
    // Determinism first: the fixture only means something if two in-process
    // replays agree byte-for-byte.
    assert_eq!(run(), got);
    assert!(
        got.contains("proxy_retx"),
        "selected packet was retransmitted"
    );
    assert_golden("golden_lifecycle.explain", &got);
}

#[test]
fn truncated_ring_refuses_certification() {
    // A deliberately tiny ring over the same scenario must evict records;
    // the reconstruction then refuses completeness claims end to end.
    let mut scenario = RetxScenario {
        total_packets: 200,
        trace_capacity: Some(64),
        ..RetxScenario::default()
    };
    scenario.subpath.loss = LossModel::Bernoulli { p: 0.05 };
    let lc = Lifecycle::from_trace(&scenario.run_sidecar(3).trace);
    assert!(!lc.is_complete());
    assert!(lc.dropped_records() > 0);
    let err = lc.check_causal().unwrap_err();
    assert!(err.contains("truncated"), "got: {err}");
}

#[test]
fn ctrl_and_data_keyspaces_are_disjoint() {
    let lc = retx_lifecycle(11, 0.02, 80);
    let ctrl = lc
        .timelines()
        .filter(|tl| tl.id.class == TraceClass::Ctrl)
        .count();
    let data = lc.data_timelines().count();
    assert!(ctrl > 0, "sidecar runs emit stamped control datagrams");
    assert!(data > 0);
    assert_eq!(ctrl + data, lc.len());
}
