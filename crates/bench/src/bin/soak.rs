//! **Nightly seed-sweep soak**: the determinism and robustness claims the
//! per-PR suites spot-check, swept across many seeds.
//!
//! Each PR leg runs the failover/adversary/manyflow experiments at 3
//! seeds; this soak re-runs the same scenario families at ≥32 seeds and
//! *fails* (exit 1) on any violation of the properties the repo treats as
//! invariants rather than measurements:
//!
//! * **Completion** — every faulted or attacked run still finishes inside
//!   its horizon (the opportunism claim: a broken or hostile sidecar
//!   never wedges the transport).
//! * **Transparency bound** — faulted sidecar goodput stays ≥
//!   [`RATIO_FLOOR`] of the same-seed, same-fault no-sidecar twin.
//! * **Mechanism engagement** — under clean runs the enhancement actually
//!   fires (proxy retransmissions for retx, quACK traffic for all), so a
//!   silently-disabled sidecar cannot soak green.
//! * **Blackout degradation** — a control blackout that outlives the
//!   liveness timeout forces ≥ 1 supervisor degradation.
//! * **Causal certification** — the clean retx/ccd flight-recorder rings
//!   are untruncated and [`sidecar_obs::Lifecycle::check_causal`] certifies
//!   every packet history (no effect-before-cause, no double-delivery).
//! * **Flow-table bounds** — many-flow runs complete every flow, residual
//!   occupancy never exceeds `shards * per_shard`, and the overcommitted
//!   point (256 flows into 128 sessions) actually evicts.
//! * **Many-flow certification** — a lossless 1 000-flow ACK-reduction
//!   run per seed completes every flow, evicts nothing from its
//!   `sized_for` table, and causally certifies every packet lifecycle.
//! * **100k-flow vantage point** (full sweeps only; `--quick` skips it) —
//!   the slab flow engine holds 100 000 concurrent flows: every flow
//!   completes and the table finishes with all 100k sessions resident
//!   and **zero** evictions, while the synchronized slow-start burst
//!   overdrives the trunk (see [`provisioned_manyflow`]).
//!
//! CI runs the full sweep from the nightly cron job (`soak`, off the PR
//! critical path) and `--quick` (4 seeds, no 100k-flow leg) in every PR's
//! experiments job; `--quick` also keeps a local sanity pass cheap. The
//! summary lands in `BENCH_soak.json` with informational units only — the
//! perf gate never reads it; the exit code is the contract.
//!
//! With `--timeseries-out`, every clean retx run is additionally sampled
//! on the simulator clock (500 ms cadence) and its windowed time-series
//! lands in `BENCH_soak_seed<seed>_timeseries.txt` (honoring
//! `$BENCH_OUT_DIR`) — the nightly job uploads the set as CI artifacts,
//! giving each soak a per-seed behavioral record to diff against.
//!
//! Usage: `soak [--seeds N] [--quick] [--timeseries-out]`

use sidecar_bench::{BenchReport, Table};
use sidecar_netsim::link::LinkConfig;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_obs::{Lifecycle, MetricsSnapshot};
use sidecar_proto::protocols::ack_reduction::AckReductionScenario;
use sidecar_proto::protocols::ccd::CcdScenario;
use sidecar_proto::protocols::manyflow::{ManyFlowProtocol, ManyFlowScenario};
use sidecar_proto::protocols::retx::RetxScenario;
use sidecar_proto::protocols::{FaultScript, ScenarioReport};
use sidecar_proto::FlowTableConfig;
use std::process::ExitCode;

/// Minimum faulted-sidecar / faulted-baseline goodput ratio. The paper's
/// transparency bound is ~0.9 on averaged runs; single seeds wobble more,
/// so the per-seed invariant keeps slack — systematic fallback bugs crater
/// far below this, seed noise does not.
const RATIO_FLOOR: f64 = 0.75;
/// Default seed count (ISSUE floor: ≥ 32).
const DEFAULT_SEEDS: u64 = 32;
/// Ring capacity for the certified lifecycle runs — must hold every
/// record of a 2k-packet run or `is_complete()` refuses certification.
const TRACE_CAP: usize = 1 << 20;
/// Ring capacity for the certified 1k-flow many-flow runs (8k data
/// packets plus their ACK/quACK records).
const MANYFLOW_TRACE_CAP: usize = 1 << 21;

/// Provisioned N-flow ACK-reduction run: `sized_for` table, deep
/// queues, 2 Gbit/s links, and an idle timeout that outlives the
/// horizon — any *eviction* is then a flow-engine bug, not weather.
///
/// Losslessness is a separate, N-dependent claim: at 1k flows the 8k
/// packet burst serializes in ~50 ms, well inside the senders' PTO, so
/// the certified leg also asserts zero drops. At 100k flows the
/// synchronized slow-start burst (~800k packets, ~4.8 s of trunk
/// serialization against a ~200 ms PTO) intentionally overdrives the
/// trunk — drops and spurious retransmissions are the realistic weather
/// a vantage-point table must ride out, and the 100k leg asserts the
/// flow-engine invariants (completion, zero evictions, full occupancy)
/// rather than pretending the burst fits the pipe.
fn provisioned_manyflow(flows: u32, seed: u64, queue_packets: usize) -> ManyFlowScenario {
    let mut s = ManyFlowScenario::new(ManyFlowProtocol::AckReduction, flows);
    s.packets_per_flow = 8;
    s.seed = seed;
    s.table = FlowTableConfig::sized_for(flows as usize, SimDuration::from_secs(300));
    s.trunk = LinkConfig {
        rate_bps: 2_000_000_000,
        delay: SimDuration::from_millis(25),
        queue_packets,
        ..LinkConfig::default()
    };
    s.edge = LinkConfig {
        rate_bps: 2_000_000_000,
        delay: SimDuration::from_millis(2),
        queue_packets,
        ..s.edge
    };
    s
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Per-family accumulator: worst goodput ratio and violation count.
struct Family {
    name: &'static str,
    runs: u64,
    min_ratio: f64,
}

impl Family {
    fn new(name: &'static str) -> Self {
        Family {
            name,
            runs: 0,
            min_ratio: f64::INFINITY,
        }
    }

    fn record_ratio(&mut self, ratio: f64) {
        self.min_ratio = self.min_ratio.min(ratio);
    }
}

/// Checks the invariants shared by every faulted sidecar/baseline pair:
/// both complete, and the sidecar run holds the transparency bound.
/// Returns the goodput ratio when both completed.
fn check_pair(
    violations: &mut Vec<String>,
    family: &mut Family,
    seed: u64,
    side: &ScenarioReport,
    base: &ScenarioReport,
) -> Option<f64> {
    family.runs += 1;
    let tag = format!("{} seed={seed}", family.name);
    if side.completion.is_none() {
        violations.push(format!("{tag}: sidecar run did not complete"));
    }
    if base.completion.is_none() {
        violations.push(format!("{tag}: baseline twin did not complete"));
    }
    let (Some(s), Some(b)) = (side.goodput_bps, base.goodput_bps) else {
        return None;
    };
    let ratio = s / b;
    family.record_ratio(ratio);
    if ratio < RATIO_FLOOR {
        violations.push(format!(
            "{tag}: transparency bound broken — goodput ratio {ratio:.3} < {RATIO_FLOOR}"
        ));
    }
    Some(ratio)
}

/// The blackout script from the failover experiment: control dead from
/// 50 ms to end-of-run, data path intact.
fn blackout() -> FaultScript {
    FaultScript {
        fault_seed: 7,
        drop_control: Some((at(50), at(600_000))),
        ..FaultScript::default()
    }
}

/// Proxy crash at 250 ms, restart at 750 ms (volatile state lost).
fn crash() -> FaultScript {
    FaultScript {
        fault_seed: 3,
        proxy_crash: Some((at(250), at(750))),
        ..FaultScript::default()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = DEFAULT_SEEDS;
    let quick = args.iter().any(|a| a == "--quick");
    let timeseries_out = args.iter().any(|a| a == "--timeseries-out");
    if quick {
        seeds = 4;
    }
    if let Some(pos) = args.iter().position(|a| a == "--seeds") {
        match args.get(pos + 1).and_then(|v| v.parse().ok()) {
            Some(n) if n > 0 => seeds = n,
            _ => {
                eprintln!("soak: --seeds requires a positive integer");
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "seed-sweep soak: {seeds} seeds x (failover, adversary, manyflow, \
         causal certification){}\n",
        if quick {
            ""
        } else {
            " + 100k-flow vantage point"
        }
    );

    let mut violations: Vec<String> = Vec::new();
    // Every run's registry, merged in run order for `--metrics-out`.
    let mut metrics = MetricsSnapshot::default();
    let mut fam_clean = Family::new("retx/clean");
    let mut fam_blackout = Family::new("retx/blackout");
    let mut fam_crash = Family::new("ccd/crash");
    let mut fam_replay = Family::new("retx/replay-x4");
    let mut fam_tamper = Family::new("ccd/tamper-16");
    let mut fam_forge = Family::new("ackred/forge");
    let mut certified = 0u64;
    let mut manyflow_certified = 0u64;
    let mut manyflow_runs = 0u64;

    let always = (at(0), at(600_000));
    let replay = FaultScript {
        fault_seed: 18,
        replay_control: Some((4, SimDuration::from_millis(5), always.0, always.1)),
        ..FaultScript::default()
    };
    let tamper = FaultScript {
        fault_seed: 19,
        tamper_control: Some((16, always.0, always.1)),
        ..FaultScript::default()
    };
    let forge = FaultScript {
        fault_seed: 17,
        forge_control: Some(always),
        ..FaultScript::default()
    };

    for i in 0..seeds {
        // Prime stride so the sweep never collides with the fixed seeds
        // the per-PR experiments pin (11/22/33/42).
        let seed = 101 + i * 7919;

        // Clean retx, certified: mechanism engagement + causal history.
        // Under --timeseries-out the clean run also carries the 500 ms
        // simulator-clock sampler; the faulted reruns below reuse the
        // same scenario, so their (discarded) series cost is accepted.
        let retx = RetxScenario {
            trace_capacity: Some(TRACE_CAP),
            sample_interval: timeseries_out.then(|| SimDuration::from_millis(500)),
            ..RetxScenario::default()
        };
        let side = retx.run_sidecar(seed);
        let base = retx.run_baseline(seed);
        if timeseries_out {
            sidecar_bench::write_timeseries_out(&format!("soak_seed{seed}"), &side.timeseries);
        }
        metrics.merge(&side.metrics);
        metrics.merge(&base.metrics);
        check_pair(&mut violations, &mut fam_clean, seed, &side, &base);
        if side.proxy_retransmissions == 0 {
            violations.push(format!(
                "retx/clean seed={seed}: no in-network retransmissions on a 2% lossy subpath"
            ));
        }
        if side.sidecar_messages == 0 {
            violations.push(format!("retx/clean seed={seed}: no sidecar traffic"));
        }
        let lifecycle = Lifecycle::from_trace(&side.trace);
        if !lifecycle.is_complete() {
            violations.push(format!(
                "retx/clean seed={seed}: flight-recorder ring truncated ({} dropped)",
                lifecycle.dropped_records()
            ));
        } else if let Err(e) = lifecycle.check_causal() {
            violations.push(format!("retx/clean seed={seed}: causal violation: {e}"));
        } else {
            certified += 1;
        }

        // Blackout outlives the liveness timeout: supervisor must degrade.
        let script = blackout();
        let side = retx.run_sidecar_faulted(seed, &script);
        let base = retx.run_baseline_faulted(seed, &script);
        metrics.merge(&side.metrics);
        metrics.merge(&base.metrics);
        check_pair(&mut violations, &mut fam_blackout, seed, &side, &base);
        if side.degradations == 0 {
            violations.push(format!(
                "retx/blackout seed={seed}: control blackout never degraded the session"
            ));
        }

        // Crash/restart on ccd, plus a certified clean-side trace.
        let ccd = CcdScenario {
            trace_capacity: Some(TRACE_CAP),
            ..CcdScenario::default()
        };
        let script = crash();
        let side = ccd.run_sidecar_faulted(seed, &script);
        let base = ccd.run_baseline_faulted(seed, &script);
        metrics.merge(&side.metrics);
        metrics.merge(&base.metrics);
        check_pair(&mut violations, &mut fam_crash, seed, &side, &base);
        let clean = ccd.run_sidecar(seed);
        metrics.merge(&clean.metrics);
        let lifecycle = Lifecycle::from_trace(&clean.trace);
        if !lifecycle.is_complete() {
            violations.push(format!(
                "ccd/clean seed={seed}: flight-recorder ring truncated ({} dropped)",
                lifecycle.dropped_records()
            ));
        } else if let Err(e) = lifecycle.check_causal() {
            violations.push(format!("ccd/clean seed={seed}: causal violation: {e}"));
        } else {
            certified += 1;
        }

        // Adversary rows: the strongest intensity of each attack class.
        let side = retx.run_sidecar_faulted(seed, &replay);
        let base = retx.run_baseline_faulted(seed, &replay);
        metrics.merge(&side.metrics);
        metrics.merge(&base.metrics);
        check_pair(&mut violations, &mut fam_replay, seed, &side, &base);

        let side = ccd.run_sidecar_faulted(seed, &tamper);
        let base = ccd.run_baseline_faulted(seed, &tamper);
        metrics.merge(&side.metrics);
        metrics.merge(&base.metrics);
        check_pair(&mut violations, &mut fam_tamper, seed, &side, &base);

        let ackred = AckReductionScenario::default();
        let side = ackred.run_sidecar_faulted(seed, &forge);
        let base = ackred.run_baseline_faulted(seed, ackred.reduced_ack_every, &forge);
        metrics.merge(&side.metrics);
        metrics.merge(&base.metrics);
        check_pair(&mut violations, &mut fam_forge, seed, &side, &base);

        // Certified 1k-flow vantage point: a lossless sized-for run must
        // complete every flow, evict nothing, and causally certify.
        let mut s = provisioned_manyflow(1_000, seed, 16_384);
        s.trace_capacity = Some(MANYFLOW_TRACE_CAP);
        let report = s.run();
        metrics.merge(&report.metrics);
        let tag = format!("manyflow/certified-1k seed={seed}");
        if report.completed != 1_000 {
            violations.push(format!(
                "{tag}: only {}/1000 flows completed",
                report.completed
            ));
        }
        if report.evictions() != 0 {
            violations.push(format!(
                "{tag}: sized-for table evicted {} sessions on a lossless run",
                report.evictions()
            ));
        }
        if report.metrics.counter_sum("netsim.drop.") != 0 {
            violations.push(format!(
                "{tag}: {} drops on a provisioned-lossless run",
                report.metrics.counter_sum("netsim.drop.")
            ));
        }
        let lifecycle = Lifecycle::from_trace(&report.trace);
        if !lifecycle.is_complete() {
            violations.push(format!(
                "{tag}: flight-recorder ring truncated ({} dropped)",
                lifecycle.dropped_records()
            ));
        } else if let Err(e) = lifecycle.check_causal() {
            violations.push(format!("{tag}: causal violation: {e}"));
        } else {
            manyflow_certified += 1;
        }

        // Many-flow bounds: within capacity and 2x overcommitted.
        for flows in [64u32, 256] {
            let mut s = ManyFlowScenario::new(ManyFlowProtocol::Retx, flows);
            s.packets_per_flow = (4_096 / flows as u64).max(16);
            s.seed = seed;
            let capacity = s.table.shards * s.table.per_shard;
            let report = s.run();
            metrics.merge(&report.metrics);
            manyflow_runs += 1;
            let tag = format!("manyflow/retx flows={flows} seed={seed}");
            if report.completed != flows {
                violations.push(format!(
                    "{tag}: only {}/{flows} flows completed",
                    report.completed
                ));
            }
            if report.live_flows_at_end > capacity {
                violations.push(format!(
                    "{tag}: {} resident sessions exceed table capacity {capacity}",
                    report.live_flows_at_end
                ));
            }
            if flows as usize > capacity && report.evictions() == 0 {
                violations.push(format!(
                    "{tag}: overcommitted table ({flows} flows, {capacity} sessions) never evicted"
                ));
            }
        }

        if (i + 1) % 8 == 0 {
            println!(
                "  ... {}/{seeds} seeds swept, {} violation(s) so far",
                i + 1,
                violations.len()
            );
        }
    }

    // 100k-flow vantage point: the slab engine's scale claim, nightly.
    // Skipped under --quick (it is the single most expensive leg); two
    // seeds keep it deterministic without doubling the soak's runtime.
    let mut manyflow_100k = 0u64;
    if !quick {
        for seed in [211u64, 211 + 7919] {
            let s = provisioned_manyflow(100_000, seed, 1 << 20);
            let report = s.run();
            metrics.merge(&report.metrics);
            manyflow_100k += 1;
            let tag = format!("manyflow/100k seed={seed}");
            if report.completed != 100_000 {
                violations.push(format!(
                    "{tag}: only {}/100000 flows completed",
                    report.completed
                ));
            }
            if report.evictions() != 0 {
                violations.push(format!(
                    "{tag}: sized-for table evicted {} of 100k sessions",
                    report.evictions()
                ));
            }
            if report.live_flows_at_end != 100_000 {
                violations.push(format!(
                    "{tag}: {} of 100000 sessions resident at end",
                    report.live_flows_at_end
                ));
            }
            println!(
                "  manyflow/100k seed={seed}: {}/100000 completed, \
                 {} evictions, {} live at end, {} burst drops ridden out",
                report.completed,
                report.evictions(),
                report.live_flows_at_end,
                report.metrics.counter_sum("netsim.drop.")
            );
        }
    }

    let families = [
        &fam_clean,
        &fam_blackout,
        &fam_crash,
        &fam_replay,
        &fam_tamper,
        &fam_forge,
    ];
    let mut table = Table::new(&["family", "runs", "min goodput ratio"]);
    let mut report = BenchReport::new("soak");
    report.push("seeds", &[], seeds as f64, "count");
    for f in &families {
        table.row(&[
            f.name.into(),
            f.runs.to_string(),
            format!("{:.3}", f.min_ratio),
        ]);
        let fam_key = f.name.replace('/', "_");
        report.push(
            "min_goodput_ratio",
            &[("family", fam_key.as_str())],
            f.min_ratio,
            "ratio",
        );
    }
    table.print();
    println!(
        "\ncertified lifecycles: {certified}/{} clean runs, \
         {manyflow_certified}/{seeds} 1k-flow runs",
        seeds * 2
    );
    println!("manyflow runs: {manyflow_runs} (+{manyflow_100k} at 100k flows)");
    report.push("certified_lifecycles", &[], certified as f64, "count");
    report.push(
        "manyflow_certified_1k",
        &[],
        manyflow_certified as f64,
        "count",
    );
    report.push("manyflow_runs", &[], manyflow_runs as f64, "count");
    report.push("manyflow_100k_runs", &[], manyflow_100k as f64, "count");
    report.push("violations", &[], violations.len() as f64, "count");
    report.write_default().expect("write BENCH_soak.json");
    sidecar_bench::write_metrics_out("soak", &metrics);

    if violations.is_empty() {
        println!("soak: PASS — {seeds} seeds, no invariant violations");
        ExitCode::SUCCESS
    } else {
        println!("soak: {} invariant violation(s):", violations.len());
        for v in &violations {
            println!("  {v}");
        }
        ExitCode::FAILURE
    }
}
