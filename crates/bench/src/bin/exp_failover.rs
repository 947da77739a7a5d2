//! **Failure-transparency experiment**: what does a broken sidecar cost?
//!
//! The paper's deployability argument (§1) is that sidecar protocols are
//! strictly opportunistic: "hosts can take advantage of them when they are
//! available, while remaining completely functional when they are not."
//! This experiment breaks the sidecar path mid-transfer in three ways —
//! a control blackout (session dead, data path intact), a proxy
//! crash/restart (volatile sidecar state lost), and a corrupted control
//! channel (every sidecar datagram takes random bit flips) — and compares
//! each protocol's goodput against a no-sidecar baseline twin running under
//! the *same* lowered fault script.
//!
//! Expected shape: goodput ratio ≈ 1.0 everywhere (within the 10%
//! transparency bound), ≥ 1 degradation whenever the fault outlives the
//! liveness timeout, and recoveries after crash/restart faults heal.
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin exp_failover`

use sidecar_bench::{BenchReport, RunObs, Table};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_proto::protocols::ack_reduction::AckReductionScenario;
use sidecar_proto::protocols::ccd::CcdScenario;
use sidecar_proto::protocols::retx::RetxScenario;
use sidecar_proto::protocols::{FaultScript, ScenarioReport};

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn faults() -> Vec<(&'static str, FaultScript)> {
    vec![
        ("none", FaultScript::default()),
        (
            "blackout",
            FaultScript {
                fault_seed: 7,
                drop_control: Some((at(50), at(600_000))),
                ..FaultScript::default()
            },
        ),
        (
            "crash 250-750ms",
            FaultScript {
                fault_seed: 3,
                proxy_crash: Some((at(250), at(750))),
                ..FaultScript::default()
            },
        ),
        (
            "corrupt ≤6 bits",
            FaultScript {
                fault_seed: 21,
                corrupt_control: Some((6, at(0), at(600_000))),
                ..FaultScript::default()
            },
        ),
    ]
}

const SEEDS: [u64; 3] = [11, 22, 33];

/// Averages (sidecar goodput, baseline goodput, degradations, recoveries)
/// over the seeds, adding every run to `obs`.
fn average(
    obs: &mut RunObs,
    runs: impl Fn(u64) -> (ScenarioReport, ScenarioReport),
) -> (f64, f64, f64, f64) {
    let mut side_bps = 0.0;
    let mut base_bps = 0.0;
    let mut degr = 0u64;
    let mut recov = 0u64;
    for &seed in &SEEDS {
        let (side, base) = runs(seed);
        obs.add(&side.metrics, &side.trace);
        obs.add(&base.metrics, &base.trace);
        assert!(
            side.completion.is_some() && base.completion.is_some(),
            "faulted run did not complete (seed {seed}): {side:?} / {base:?}"
        );
        side_bps += side.goodput_bps.unwrap_or(0.0);
        base_bps += base.goodput_bps.unwrap_or(0.0);
        degr += side.degradations;
        recov += side.recoveries;
    }
    let k = SEEDS.len() as f64;
    (
        side_bps / k,
        base_bps / k,
        degr as f64 / k,
        recov as f64 / k,
    )
}

fn row(
    table: &mut Table,
    report: &mut BenchReport,
    protocol: &str,
    fault: &str,
    avg: (f64, f64, f64, f64),
) {
    let (side, base, degr, recov) = avg;
    table.row(&[
        protocol.into(),
        fault.into(),
        format!("{:.2}", side / 1e6),
        format!("{:.2}", base / 1e6),
        format!("{:.3}", side / base),
        format!("{degr:.1}"),
        format!("{recov:.1}"),
    ]);
    let fault_key = fault.replace(' ', "_");
    let params = [("protocol", protocol), ("fault", fault_key.as_str())];
    report.push("sidecar_goodput", &params, side, "bps");
    report.push("baseline_goodput", &params, base, "bps");
    report.push("goodput_ratio", &params, side / base, "x");
    report.push("degradations", &params, degr, "count");
    report.push("recoveries", &params, recov, "count");
}

fn main() {
    println!(
        "failure transparency: faulted sidecar vs faulted no-sidecar twin\n\
         (same deterministic fault script lowered onto both runs; goodput\n\
         averaged over seeds {SEEDS:?})\n"
    );
    let mut report = BenchReport::new("exp_failover");
    let mut obs = RunObs::default();
    let mut table = Table::new(&[
        "protocol",
        "fault",
        "sidecar (Mbit/s)",
        "baseline (Mbit/s)",
        "ratio",
        "degr/run",
        "recov/run",
    ]);

    let retx = RetxScenario {
        total_packets: 1_200,
        ..RetxScenario::default()
    };
    for (name, script) in faults() {
        let avg = average(&mut obs, |seed| {
            (
                retx.run_sidecar_faulted(seed, &script),
                retx.run_baseline_faulted(seed, &script),
            )
        });
        row(&mut table, &mut report, "retx", name, avg);
    }

    let ackred = AckReductionScenario {
        total_packets: 1_200,
        ..AckReductionScenario::default()
    };
    for (name, script) in faults() {
        // Degradation swaps the server back to e2e control but cannot
        // reconfigure the remote client's ACK cadence, so the honest twin
        // keeps the reduced cadence.
        let avg = average(&mut obs, |seed| {
            (
                ackred.run_sidecar_faulted(seed, &script),
                ackred.run_baseline_faulted(seed, ackred.reduced_ack_every, &script),
            )
        });
        row(&mut table, &mut report, "ack-reduction", name, avg);
    }

    let ccd = CcdScenario {
        total_packets: 10_000,
        ..CcdScenario::default()
    };
    for (name, script) in faults() {
        let avg = average(&mut obs, |seed| {
            (
                ccd.run_sidecar_faulted(seed, &script),
                ccd.run_baseline_faulted(seed, &script),
            )
        });
        row(&mut table, &mut report, "ccd", name, avg);
    }

    table.print();
    report
        .write_default()
        .expect("write BENCH_exp_failover.json");
    obs.write_out("exp_failover");
    // `--timeseries-out [path]`: re-run the clean retx scenario at the
    // first seed with a 500 ms simulator-clock sampler attached and
    // archive the windowed series (deterministic, so the artifact is
    // byte-stable across machines; `validate_reports` schema-checks it).
    if std::env::args().any(|a| a == "--timeseries-out") {
        let sampled = RetxScenario {
            total_packets: 1_200,
            sample_interval: Some(SimDuration::from_millis(500)),
            ..RetxScenario::default()
        };
        let run = sampled.run_sidecar(SEEDS[0]);
        sidecar_bench::write_timeseries_out("exp_failover", &run.timeseries);
    }
    println!(
        "\nexpected shape: under 'none' the sidecar ratio reflects each\n\
         protocol's ordinary win; under every fault the ratio stays near or\n\
         above 0.9 — the supervisor detects the dead/garbled session and\n\
         falls back to end-to-end behavior, so a broken sidecar is never\n\
         materially worse than no sidecar. Crash rows also show recoveries:\n\
         the restarted proxy re-handshakes and re-enables enhancement."
    );
}
