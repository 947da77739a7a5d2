//! Cross-commit golden digest of the three protocols' observable behaviour.
//!
//! `deterministic_reports` only compares a run with itself, and the netsim
//! goldens never load this crate — so nothing else pins what the protocol
//! nodes put on the wire *across commits*. This suite does: for every
//! scenario family × {clean, crash + control blackout, authenticated} and
//! the 8-flow mux × {auth off, auth on}, plus one overcommitted 24-flow mux
//! per protocol, it records one line holding every
//! scalar report field, the world metrics snapshot in its stable text
//! encoding, and an FNV-1a hash of the complete (untruncated) flight-recorder
//! rendering — the wire image, event order, and every counter value.
//!
//! A refactor of `protocols/` must pass without regenerating. After an
//! intentional behaviour change, regenerate and review the diff:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sidecar-proto --test golden_protocols
//! ```

use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_obs::{EventTrace, MetricsSnapshot};
use sidecar_proto::protocols::ack_reduction::AckReductionScenario;
use sidecar_proto::protocols::ccd::CcdScenario;
use sidecar_proto::protocols::manyflow::{ManyFlowProtocol, ManyFlowReport, ManyFlowScenario};
use sidecar_proto::protocols::retx::RetxScenario;
use sidecar_proto::protocols::{FaultScript, ScenarioReport};
use sidecar_proto::{AuthConfig, FlowTableConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Ring capacity large enough that no golden run truncates (asserted).
const TRACE_CAP: usize = 1 << 21;
const SEED: u64 = 3;

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn auth() -> AuthConfig {
    AuthConfig::from_secret(0xFEED_FACE, 7)
}

/// The proxy is down from 1 s to 2 s, and all control traffic is dropped
/// for half a second after it returns — crash recovery, lazy re-announce,
/// liveness degradation, and hello-driven recovery all on one run. The
/// crash window is longer than every periodic timer in the protocols.
fn faults() -> FaultScript {
    FaultScript {
        fault_seed: 5,
        proxy_crash: Some((at(1_000), at(2_000))),
        drop_control: Some((at(2_500), at(3_000))),
        ..FaultScript::default()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The shared tail of every digest line: metrics in their stable encoding
/// (newlines folded so a run stays on one line) and the trace hash.
fn obs_digest(line: &mut String, metrics: &MetricsSnapshot, trace: &EventTrace) {
    assert_eq!(trace.dropped(), 0, "golden run truncated its trace ring");
    let _ = write!(
        line,
        " trace_events={} trace_fnv={:016x} metrics=[{}]",
        trace.len(),
        fnv1a(trace.render().as_bytes()),
        metrics.encode().trim_end().replace('\n', "; "),
    );
}

fn scenario_line(label: &str, r: &ScenarioReport) -> String {
    let mut line = format!(
        "{label} completion_ns={:?} goodput_bps={:?} server_sent={} server_retx={} \
         client_acks={} sidecar_messages={} sidecar_bytes={} proxy_retx={} degradations={} \
         recoveries={} timeseries_points={} scoreboard_fnv={:016x}",
        r.completion.map(|t| t.as_nanos()),
        r.goodput_bps,
        r.server_sent,
        r.server_retransmissions,
        r.client_acks,
        r.sidecar_messages,
        r.sidecar_bytes,
        r.proxy_retransmissions,
        r.degradations,
        r.recoveries,
        r.timeseries.points().count(),
        fnv1a(format!("{:?}", r.scoreboard).as_bytes()),
    );
    obs_digest(&mut line, &r.metrics, &r.trace);
    line
}

fn manyflow_line(label: &str, r: &ManyFlowReport) -> String {
    let mut line = format!(
        "{label} flows={} completed={} slowest_completion_secs={:?} aggregate_goodput_bps={:?} \
         sidecar_messages={} sidecar_bytes={} live_flows_at_end={} evictions_idle={} \
         evictions_capacity={}",
        r.flows,
        r.completed,
        r.slowest_completion_secs,
        r.aggregate_goodput_bps,
        r.sidecar_messages,
        r.sidecar_bytes,
        r.live_flows_at_end,
        r.evictions_idle,
        r.evictions_capacity,
    );
    obs_digest(&mut line, &r.metrics, &r.trace);
    line
}

/// Flow lengths are chosen so each transfer is still in progress when the
/// proxy crashes at 1 s and after the blackout lifts at 3 s.
fn retx_lines() -> Vec<String> {
    let retx = |auth| RetxScenario {
        total_packets: 6_000,
        auth,
        trace_capacity: Some(TRACE_CAP),
        ..RetxScenario::default()
    };
    vec![
        scenario_line("retx/clean", &retx(None).run_sidecar(SEED)),
        scenario_line(
            "retx/faulted",
            &retx(None).run_sidecar_faulted(SEED, &faults()),
        ),
        scenario_line("retx/auth", &retx(Some(auth())).run_sidecar(SEED)),
    ]
}

fn ackred_lines() -> Vec<String> {
    let ackred = |auth| AckReductionScenario {
        total_packets: 14_000,
        auth,
        trace_capacity: Some(TRACE_CAP),
        ..AckReductionScenario::default()
    };
    vec![
        scenario_line("ackred/clean", &ackred(None).run_sidecar(SEED)),
        scenario_line(
            "ackred/faulted",
            &ackred(None).run_sidecar_faulted(SEED, &faults()),
        ),
        scenario_line("ackred/auth", &ackred(Some(auth())).run_sidecar(SEED)),
    ]
}

fn ccd_lines() -> Vec<String> {
    // A 10 Mbit/s downstream stretches a short (cheap) flow across the
    // fault windows.
    let ccd = |auth| {
        let mut s = CcdScenario {
            total_packets: 3_500,
            auth,
            trace_capacity: Some(TRACE_CAP),
            ..CcdScenario::default()
        };
        s.downstream.rate_bps = 10_000_000;
        s
    };
    vec![
        scenario_line("ccd/clean", &ccd(None).run_sidecar(SEED)),
        scenario_line(
            "ccd/faulted",
            &ccd(None).run_sidecar_faulted(SEED, &faults()),
        ),
        scenario_line("ccd/auth", &ccd(Some(auth())).run_sidecar(SEED)),
    ]
}

fn manyflow_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for protocol in [
        ManyFlowProtocol::Retx,
        ManyFlowProtocol::AckReduction,
        ManyFlowProtocol::CongestionDivision,
    ] {
        for (tag, auth) in [("plain", None), ("auth", Some(auth()))] {
            let mut s = ManyFlowScenario::new(protocol, 8);
            s.auth = auth;
            s.trace_capacity = Some(TRACE_CAP);
            lines.push(manyflow_line(
                &format!("manyflow/{}/{tag}", protocol.label()),
                &s.run(),
            ));
        }
    }
    lines
}

/// The overcommitted mux of `mechanism_invariants.rs`: 24 flows through a
/// 2 × 4 table, so sessions are evicted for capacity, re-created by the
/// flow's next packet and re-handshaken — the paths the 8-flow rows (which
/// only ever evict by idle sweep) never take. The CCD mux's slowest flow
/// finishes after 26–33 s on seeds 1–12, so the 60 s horizon lets every
/// flow complete whatever the seed.
fn churn_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for protocol in [
        ManyFlowProtocol::Retx,
        ManyFlowProtocol::AckReduction,
        ManyFlowProtocol::CongestionDivision,
    ] {
        let mut s = ManyFlowScenario::new(protocol, 24);
        s.packets_per_flow = 32;
        s.horizon = SimDuration::from_secs(60);
        s.table = FlowTableConfig {
            shards: 2,
            per_shard: 4,
            idle_timeout: SimDuration::from_secs(2),
        };
        s.trace_capacity = Some(TRACE_CAP);
        lines.push(manyflow_line(
            &format!("churn/{}", protocol.label()),
            &s.run(),
        ));
    }
    lines
}

/// Every golden run, in fixture order. The five families are independent
/// worlds, so they run on their own threads (the runs themselves stay
/// single-threaded and seeded; only wall time changes).
fn digest() -> String {
    let families: [fn() -> Vec<String>; 5] = [
        retx_lines,
        ackred_lines,
        ccd_lines,
        manyflow_lines,
        churn_lines,
    ];
    let lines: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = families.iter().map(|f| scope.spawn(f)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("golden family panicked"))
            .collect()
    });
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_protocols.digest")
}

#[test]
fn protocol_digest_matches_golden() {
    let got = digest();
    let path = fixture_path();
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
    // Compare line by line so a divergence names the run that moved.
    for (g, w) in got.lines().zip(want.lines()) {
        let label = g.split(' ').next().unwrap_or_default();
        assert_eq!(
            g,
            w,
            "protocol run `{label}` diverged from {} — if intentional, regenerate with \
             UPDATE_GOLDEN=1 and review the diff",
            path.display()
        );
    }
    assert_eq!(got.lines().count(), want.lines().count(), "run count");
}
