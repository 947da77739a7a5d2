//! Golden time-series regression test for the driver-clocked sampler.
//!
//! A seeded lossy chain is driven through [`run_sampled`] and the rendered
//! [`TimeSeries`](sidecar_obs::TimeSeries) is compared byte-for-byte
//! against a committed fixture. Because `run_sampled` snapshots at exact
//! `start + k·interval` sim-time ticks and the simulator is deterministic
//! in `(topology, seed)`, the windowed rates are stable across machines
//! and runs; any diff means the sampling contract, the instrumentation
//! points, or the series encoding changed, and that change must be
//! reviewed.
//!
//! A second (fixture-free) test runs the same chain under a
//! blackout+crash-restart fault plan: node restarts must not corrupt the
//! series — the world-owned registry survives node crashes, so the series
//! stays monotone, validates, and replays identically.
//!
//! To regenerate the fixture after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sidecar-netsim --test golden_timeseries
//! git diff crates/netsim/tests/fixtures/   # review, then commit
//! ```

use sidecar_netsim::fault::FaultPlan;
use sidecar_netsim::link::{LinkConfig, LossModel};
use sidecar_netsim::node::NodeId;
use sidecar_netsim::telemetry::run_sampled;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{
    CcAlgorithm, ReceiverConfig, ReceiverNode, SenderConfig, SenderNode,
};
use sidecar_netsim::world::World;
use sidecar_netsim::Forwarder;
use sidecar_obs::Sampler;
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
        "sampled time-series diverged from {} — if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}

/// Sender ⇄ forwarder ⇄ receiver over moderate 10 Mbit/s links — the same
/// chain the golden-trace tests pin, so the two fixture families watch the
/// same world through different encodings.
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

/// Samples a world every 250 ms out to `horizon_secs`, returning the
/// rendered series.
fn sample_chain(mut w: World, horizon_secs: u64) -> String {
    let registry = w.obs().metrics.clone();
    let mut sampler = Sampler::with_capacity(256);
    let end = run_sampled(
        &mut w,
        &registry,
        SimTime::ZERO + SimDuration::from_secs(horizon_secs),
        SimDuration::from_millis(250),
        &mut sampler,
    );
    assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(horizon_secs));
    sampler.series().render()
}

#[test]
fn lossy_chain_series_matches_golden() {
    let run = || {
        let (w, _) = chain_world(42, 300, LossModel::Bernoulli { p: 0.02 });
        sample_chain(w, 30)
    };
    let got = run();
    let series = sidecar_obs::TimeSeries::parse(&got).expect("rendered series parses");
    series.validate().expect("rendered series validates");
    assert!(
        series.len() > 2,
        "a 300-packet transfer spans several 250 ms windows:\n{got}"
    );
    // Determinism first: the golden file is only meaningful if two
    // in-process replays agree byte-for-byte.
    assert_eq!(run(), got);
    assert_golden("golden_lossy.timeseries", &got);
}

#[test]
fn crash_restart_series_stays_valid_and_deterministic() {
    let ms = SimDuration::from_millis;
    let at = |m: u64| SimTime::ZERO + ms(m);
    let run = || {
        let (mut w, fwd) = chain_world(7, 400, LossModel::None);
        let plan = FaultPlan::new(99)
            .blackout_between(fwd, NodeId(2), at(150), at(250))
            .crash_restart(fwd, at(400), at(500));
        w.install_faults(plan);
        sample_chain(w, 30)
    };
    let got = run();
    let series = sidecar_obs::TimeSeries::parse(&got).expect("rendered series parses");
    // The registry is world-owned: a node crash+restart must not reset it,
    // so the series stays strictly monotone and validates — no negative
    // rates, no duplicate ticks, no restart glitch.
    series.validate().expect("faulted series validates");
    assert!(series.len() > 2, "faulted run still spans windows:\n{got}");
    assert_eq!(run(), got, "faulted sampled replay must be byte-stable");
}
