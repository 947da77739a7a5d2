//! Golden-trace regression tests for the observability layer.
//!
//! Two seeded scenarios — a lossy link and a scripted blackout+crash fault
//! plan — are replayed and their observability output (the event-trace
//! rendering and the metrics-snapshot encoding) is compared byte-for-byte
//! against committed fixtures in `tests/fixtures/`. Because the simulator
//! is deterministic in `(topology, seed)` and the obs layer timestamps with
//! sim-time only, these fixtures are stable across machines and runs; any
//! diff means the simulator's event order, the instrumentation points, or
//! the encodings changed, and that change must be reviewed.
//!
//! To regenerate the fixtures after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sidecar-netsim --test golden_trace
//! git diff crates/netsim/tests/fixtures/   # review, then commit
//! ```

use sidecar_netsim::fault::FaultPlan;
use sidecar_netsim::link::{LinkConfig, LossModel};
use sidecar_netsim::node::NodeId;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{
    CcAlgorithm, ReceiverConfig, ReceiverNode, SenderConfig, SenderNode,
};
use sidecar_netsim::world::World;
use sidecar_netsim::Forwarder;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `got` against the named fixture, or rewrites the fixture when
/// `UPDATE_GOLDEN` is set.
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
        "observability output diverged from {} — if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}

/// Sender ⇄ forwarder ⇄ receiver over moderate 10 Mbit/s links: the
/// topology every protocol scenario reduces to.
fn chain_world(seed: u64, total: u64, loss: LossModel) -> (World, NodeId) {
    let mut w = World::new(seed);
    let s = w.add_node(SenderNode::boxed(SenderConfig {
        total_packets: Some(total),
        cc: CcAlgorithm::NewReno,
        ..SenderConfig::default()
    }));
    let fwd = w.add_node(Forwarder::boxed());
    let r = w.add_node(ReceiverNode::boxed(ReceiverConfig::default()));
    let lossy = LinkConfig {
        rate_bps: 10_000_000,
        delay: SimDuration::from_millis(10),
        loss,
        ..LinkConfig::default()
    };
    let clean = LinkConfig {
        rate_bps: 10_000_000,
        delay: SimDuration::from_millis(10),
        ..LinkConfig::default()
    };
    w.connect(s, fwd, lossy, clean.clone());
    w.connect(fwd, r, clean.clone(), clean);
    (w, fwd)
}

/// One full observability rendering: the event trace followed by the
/// metrics snapshot, separated so a diff names the half that moved.
fn render_obs(w: &World) -> (String, String) {
    (w.obs().trace.render(), w.obs().metrics.snapshot().encode())
}

#[test]
fn lossy_link_trace_matches_golden() {
    let run = || {
        let (mut w, _) = chain_world(42, 300, LossModel::Bernoulli { p: 0.02 });
        w.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        render_obs(&w)
    };
    let (trace, metrics) = run();
    assert!(
        trace.lines().count() > 0,
        "2% loss over 300 packets must drop something"
    );
    // Determinism first: the golden files are only meaningful if two
    // in-process replays agree byte-for-byte.
    assert_eq!(run(), (trace.clone(), metrics.clone()));
    assert_golden("golden_lossy.trace", &trace);
    assert_golden("golden_lossy.metrics", &metrics);
}

#[test]
fn blackout_fault_trace_matches_golden() {
    let ms = SimDuration::from_millis;
    let at = |m: u64| SimTime::ZERO + ms(m);
    let run = || {
        let (mut w, fwd) = chain_world(7, 400, LossModel::None);
        let plan = FaultPlan::new(99)
            .blackout_between(fwd, NodeId(2), at(150), at(250))
            .crash_restart(fwd, at(400), at(500));
        w.install_faults(plan);
        w.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        render_obs(&w)
    };
    let (trace, metrics) = run();
    assert!(
        trace.contains("outage") && trace.contains("restart"),
        "fault plan must leave outage + restart events in the trace:\n{trace}"
    );
    assert_eq!(run(), (trace.clone(), metrics.clone()));
    assert_golden("golden_blackout.trace", &trace);
    assert_golden("golden_blackout.metrics", &metrics);
}
