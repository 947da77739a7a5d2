//! **Observability overhead experiment**: what does the telemetry layer
//! cost the datapath?
//!
//! The repo's telemetry stance is that observation must be effectively
//! free: per-packet taps are O(1) lock-free updates and the time-series
//! sampler runs off the packet path at a fixed cadence. This experiment
//! pins that claim with a CI-gated number:
//!
//! * **Headline (gated)**: the full retx scenario run twice at the same
//!   seed — once plain, once with the 1 s simulator-clock sampler
//!   attached (`RetxScenario::sample_interval`) — and
//!   `obs_overhead_headroom` = plain wall-clock / sampled wall-clock.
//!   The perf gate holds this at ≥ 0.95 (≤ 5% overhead), best-of over
//!   interleaved repetitions so scheduler noise cannot fail the gate on
//!   a machine hiccup.
//! * **Primitive cells (informational + tolerance-gated ops/s)**: the
//!   per-event cost of the two runtime pieces a packet can actually
//!   touch — `FlowScoreboard::record` (the trouble tap) and
//!   `Sampler::sample` over a realistically sized registry snapshot.
//!
//! `--quick` trims repetitions and packet counts for the PR-critical CI
//! leg; the nightly run uses the full counts. `--timeseries-out` archives
//! the sampled run's windowed series (deterministic, byte-stable).
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin exp_obs_overhead`

use sidecar_bench::{ops_per_sec, BenchReport, Table};
use sidecar_netsim::time::SimDuration;
use sidecar_obs::{FlowScoreboard, HealthDim, MetricsRegistry, MetricsSnapshot, Sampler};
use sidecar_proto::protocols::retx::RetxScenario;
use std::time::{Duration, Instant};

/// Seed for the scenario A/B runs (deterministic: both arms replay the
/// identical event stream; only the sampler differs).
const SEED: u64 = 11;
/// Simulator-clock sampling cadence for the sampled arm — the same
/// default cadence the live admin endpoint uses in wall-clock time.
const SAMPLE_MS: u64 = 1_000;

fn scenario(packets: u64, sampled: bool) -> RetxScenario {
    RetxScenario {
        total_packets: packets,
        sample_interval: sampled.then(|| SimDuration::from_millis(SAMPLE_MS)),
        ..RetxScenario::default()
    }
}

/// Wall-clock of one full sidecar run, whose registry is then merged into
/// `metrics`.
fn run_once(s: &RetxScenario, metrics: &mut MetricsSnapshot) -> Duration {
    let start = Instant::now();
    let run = std::hint::black_box(s.run_sidecar(SEED));
    let elapsed = start.elapsed();
    metrics.merge(&run.metrics);
    elapsed
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (packets, reps) = if quick { (20_000, 5) } else { (20_000, 9) };
    println!(
        "observability overhead: sampled vs plain retx run, best-of {reps} \
         interleaved reps at {packets} packets, {SAMPLE_MS} ms cadence\n"
    );

    let plain = scenario(packets, false);
    let sampled = scenario(packets, true);

    // Interleave the arms so frequency scaling and preemption hit both
    // equally. The gated headroom takes the better of two noise-robust
    // estimators: the max over *paired* repetitions of plain/sampled (the
    // pair least contaminated by a scheduler hiccup) and the ratio of the
    // per-arm minima (preemption only ever slows a run, so minima are the
    // best uncontended estimates). A systematic sampler regression slows
    // every sampled rep and shifts both estimators; transient noise
    // cannot fail the gate.
    let mut best_plain = Duration::MAX;
    let mut best_sampled = Duration::MAX;
    let mut pair_max = 0.0f64;
    let mut metrics = MetricsSnapshot::default();
    run_once(&plain, &mut metrics); // warmup
    run_once(&sampled, &mut metrics);
    for _ in 0..reps {
        let p = run_once(&plain, &mut metrics);
        let s = run_once(&sampled, &mut metrics);
        best_plain = best_plain.min(p);
        best_sampled = best_sampled.min(s);
        pair_max = pair_max.max(p.as_secs_f64() / s.as_secs_f64());
    }
    // A ratio above 1.0 only means the overhead was unmeasurable against
    // noise; clamp so the reported cell reads "fraction of the datapath
    // the telemetry keeps".
    let headroom = pair_max
        .max(best_plain.as_secs_f64() / best_sampled.as_secs_f64())
        .min(1.0);
    let per_packet_ns =
        (best_sampled.as_secs_f64() - best_plain.as_secs_f64()).max(0.0) * 1e9 / packets as f64;

    // Primitive costs: the trouble tap and one sampler tick against a
    // registry shaped like a busy scenario's (dozens of counters, a few
    // gauges, a histogram).
    let scoreboard = FlowScoreboard::default();
    const RECORDS: usize = 1 << 16;
    let dims = [
        HealthDim::ProxyRetx,
        HealthDim::DecodeFail,
        HealthDim::AuthReject,
        HealthDim::Eviction,
    ];
    let record_d = sidecar_bench::measure_best_of(3, 20, 5, &mut |i| {
        for j in 0..RECORDS {
            scoreboard.record((j % 64) as u32, dims[(i + j) % dims.len()]);
        }
    });
    let record_ops = ops_per_sec(record_d, RECORDS);

    let registry = MetricsRegistry::new();
    const NAMES: [&str; 8] = [
        "bench.c0", "bench.c1", "bench.c2", "bench.c3", "bench.c4", "bench.c5", "bench.c6",
        "bench.c7",
    ];
    for (i, name) in NAMES.iter().enumerate() {
        registry.add(name, (i as u64 + 1) * 17);
    }
    registry.gauge_set("bench.g0", 1.5);
    registry.gauge_set("bench.g1", 2.5);
    registry.observe("bench.h0", &[10, 100, 1_000], 42);
    let mut sampler = Sampler::default();
    let mut tick = 0u64;
    let sample_d = sidecar_bench::measure_best_of(3, 200, 20, &mut |_| {
        tick += 1_000_000;
        sampler.sample(tick, registry.snapshot());
    });
    let sample_ops = ops_per_sec(sample_d, 1);

    let mut table = Table::new(&["metric", "value"]);
    table.row(&["plain run".into(), sidecar_bench::fmt_duration(best_plain)]);
    table.row(&[
        "sampled run".into(),
        sidecar_bench::fmt_duration(best_sampled),
    ]);
    table.row(&["headroom (plain/sampled)".into(), format!("{headroom:.3}")]);
    table.row(&[
        "overhead per packet".into(),
        format!("{per_packet_ns:.1} ns"),
    ]);
    table.row(&[
        "scoreboard.record".into(),
        format!("{:.1} M/s", record_ops / 1e6),
    ]);
    table.row(&[
        "sampler tick (snapshot+diff)".into(),
        format!("{:.1} k/s", sample_ops / 1e3),
    ]);
    table.print();

    let mut report = BenchReport::new("exp_obs_overhead");
    report.push(
        "calibration",
        &[],
        sidecar_bench::calibration_ops_per_sec(),
        "ops/s",
    );
    report.push("obs_overhead_headroom", &[], headroom, "x");
    report.push("obs_overhead_per_packet", &[], per_packet_ns, "ns");
    report.push("scoreboard_record", &[], record_ops, "ops/s");
    report.push("sampler_tick", &[], sample_ops, "ops/s");
    report
        .write_default()
        .expect("write BENCH_exp_obs_overhead.json");
    sidecar_bench::write_metrics_out("exp_obs_overhead", &metrics);
    if std::env::args().any(|a| a == "--timeseries-out") {
        let run = sampled.run_sidecar(SEED);
        sidecar_bench::write_timeseries_out("exp_obs_overhead", &run.timeseries);
    }
    println!(
        "\nexpected shape: headroom ≈ 1.0 (the sampler touches the world\n\
         ~120 times per two-minute horizon, off the packet path) — the perf\n\
         gate holds it at ≥ 0.95; the trouble tap sustains tens of millions\n\
         of records/s, so even pathological loss cannot make it visible."
    );
}
