//! **Perf gate**: compares fresh `BENCH_*.json` reports against the
//! committed `bench/baseline.json` and fails on regression.
//!
//! Policy (documented in README.md):
//!
//! * `ops/s` metrics are rescaled by the ratio of the runs'
//!   `calibration` metrics (a fixed scalar integer workload) before
//!   comparing, so a baseline recorded on one machine gates runs on
//!   another; each current report rescales by its own calibration cell.
//!   A metric regresses if it falls more than `TOLERANCE` below the
//!   rescaled baseline.
//! * `x` (ratio) metrics are machine-independent and compared directly
//!   with the same tolerance.
//! * Hard floors: the quACK `insert_speedup` metrics for `Fp64, t = 20,
//!   batch ≥ 32` (batched over scalar inserts, both multiplying in
//!   Montgomery form) must be at least [`QUACK_FLOOR`] and the
//!   telemetry-cost `obs_overhead_headroom` headline (plain / sampled
//!   wall-clock of the same seeded run) at least [`OBS_FLOOR`], regardless
//!   of the baseline — these are the repo's acceptance headlines and may
//!   never erode, tolerance or not. The engines' headlines are absolute
//!   `ops/s` cells (`events_per_sec|flows=100000`,
//!   `manyflow_inserts_per_sec|flows=100000|proto=*`), gated by the first
//!   rule.
//! * Metrics present in only the baseline or only a current report are
//!   reported but never fail the gate (so adding benchmarks does not
//!   require a lockstep baseline update).
//! * Setting `PERF_GATE_SOFT=1` (CI sets it when a PR carries the
//!   `perf-regression-ok` label) downgrades failures to warnings for
//!   intentional perf changes; the PR is then expected to commit a new
//!   baseline.
//!
//! Usage: `perf_gate [baseline.json] [current.json ...]`
//! (defaults: `bench/baseline.json`, `BENCH_quack.json`).
//!
//! Exit status: 0 = pass (or soft mode), 1 = regression, 2 = usage/setup
//! error.

use sidecar_bench::{BenchReport, Table};
use std::process::ExitCode;

/// Allowed relative shortfall versus the (rescaled) baseline.
const TOLERANCE: f64 = 0.15;
/// Absolute floor for the quACK acceptance-headline speedups (`Fp64`,
/// `t=20`, `batch >= 32`).
const QUACK_FLOOR: f64 = 2.0;
/// Absolute floor for the observability-overhead headline: plain over
/// sampled wall-clock of the same seeded retx run (`exp_obs_overhead`).
/// 0.95 means the telemetry layer may cost at most ~5% of the datapath.
const OBS_FLOOR: f64 = 0.95;

struct Comparison {
    key: String,
    unit: String,
    baseline: f64,
    current: f64,
    /// Baseline after calibration rescaling (== baseline for ratios).
    reference: f64,
    verdict: Verdict,
}

#[derive(PartialEq, Clone, Copy)]
enum Verdict {
    Ok,
    Regressed,
    BelowFloor,
    BaselineOnly,
    CurrentOnly,
    Informational,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::BelowFloor => "BELOW FLOOR",
            Verdict::BaselineOnly => "baseline only",
            Verdict::CurrentOnly => "new",
            Verdict::Informational => "info",
        }
    }
}

/// The absolute floor this metric key must clear, if it is one of the
/// acceptance headlines.
fn headline_floor(key: &str) -> Option<f64> {
    let quack = key.starts_with("insert_speedup|")
        && key.contains("|field=Fp64|")
        && key.ends_with("|t=20")
        && key
            .split('|')
            .find_map(|p| p.strip_prefix("batch="))
            .and_then(|b| b.parse::<u64>().ok())
            .is_some_and(|b| b >= 32);
    if quack {
        return Some(QUACK_FLOOR);
    }
    if key == "obs_overhead_headroom" {
        return Some(OBS_FLOOR);
    }
    None
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("bench/baseline.json");
    let current_paths: Vec<&str> = if args.len() > 1 {
        args[1..].iter().map(String::as_str).collect()
    } else {
        vec!["BENCH_quack.json"]
    };
    let soft = std::env::var("PERF_GATE_SOFT").is_ok_and(|v| v == "1");

    let baseline = match BenchReport::read(baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf_gate: cannot read baseline: {e}");
            return ExitCode::from(2);
        }
    };
    let mut currents: Vec<(&str, BenchReport)> = Vec::new();
    for path in &current_paths {
        match BenchReport::read(path) {
            Ok(r) => currents.push((path, r)),
            Err(e) => {
                eprintln!("perf_gate: cannot read current report {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    println!(
        "perf gate: baseline {baseline_path}, current [{}], tolerance {:.0}%{}",
        current_paths.join(", "),
        TOLERANCE * 100.0,
        if soft { ", SOFT (warn-only)" } else { "" }
    );

    let mut comparisons: Vec<Comparison> = Vec::new();
    for (path, current) in &currents {
        // Calibration rescaling for absolute throughputs: each report
        // rescales by its own calibration cell against the baseline's.
        let scale = match (baseline.get("calibration"), current.get("calibration")) {
            (Some(b), Some(c)) if b.value > 0.0 => c.value / b.value,
            _ => {
                eprintln!(
                    "perf_gate: warning: no calibration metric in both baseline \
                     and {path}; comparing its ops/s unscaled"
                );
                1.0
            }
        };
        println!("  {path}: calibration scale {scale:.3}");
        for metric in &current.metrics {
            let key = metric.key();
            if key == "calibration" {
                continue;
            }
            let Some(base) = baseline.get(&key) else {
                comparisons.push(Comparison {
                    key,
                    unit: metric.unit.clone(),
                    baseline: f64::NAN,
                    current: metric.value,
                    reference: f64::NAN,
                    verdict: Verdict::CurrentOnly,
                });
                continue;
            };
            let (reference, verdict) = match metric.unit.as_str() {
                "ops/s" => {
                    let reference = base.value * scale;
                    let ok = metric.value >= reference * (1.0 - TOLERANCE);
                    (reference, if ok { Verdict::Ok } else { Verdict::Regressed })
                }
                "x" => {
                    let floor_ok = headline_floor(&key).is_none_or(|f| metric.value >= f);
                    let tol_ok = metric.value >= base.value * (1.0 - TOLERANCE);
                    let verdict = if !floor_ok {
                        Verdict::BelowFloor
                    } else if !tol_ok {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    };
                    (base.value, verdict)
                }
                _ => (base.value, Verdict::Informational),
            };
            comparisons.push(Comparison {
                key,
                unit: metric.unit.clone(),
                baseline: base.value,
                current: metric.value,
                reference,
                verdict,
            });
        }
    }
    for metric in &baseline.metrics {
        let key = metric.key();
        if key != "calibration" && currents.iter().all(|(_, c)| c.get(&key).is_none()) {
            comparisons.push(Comparison {
                key,
                unit: metric.unit.clone(),
                baseline: metric.value,
                current: f64::NAN,
                reference: f64::NAN,
                verdict: Verdict::BaselineOnly,
            });
        }
    }

    let fmt = |v: f64| {
        if v.is_nan() {
            "-".to_string()
        } else {
            format!("{v:.3e}")
        }
    };
    let mut table = Table::new(&[
        "metric", "unit", "baseline", "expected", "current", "verdict",
    ]);
    for c in &comparisons {
        table.row(&[
            c.key.clone(),
            c.unit.clone(),
            fmt(c.baseline),
            fmt(c.reference),
            fmt(c.current),
            c.verdict.label().to_string(),
        ]);
    }
    table.print();

    let failures: Vec<&Comparison> = comparisons
        .iter()
        .filter(|c| matches!(c.verdict, Verdict::Regressed | Verdict::BelowFloor))
        .collect();
    if failures.is_empty() {
        println!("\nperf gate: PASS ({} metrics compared)", comparisons.len());
        return ExitCode::SUCCESS;
    }
    println!("\nperf gate: {} regression(s):", failures.len());
    for c in &failures {
        println!(
            "  {} [{}]: current {:.3e} vs expected >= {:.3e} ({})",
            c.key,
            c.unit,
            c.current,
            match c.verdict {
                Verdict::BelowFloor => headline_floor(&c.key).unwrap_or(f64::NAN),
                _ => c.reference * (1.0 - TOLERANCE),
            },
            c.verdict.label()
        );
    }
    if soft {
        println!(
            "perf gate: SOFT mode — not failing (label `perf-regression-ok`); \
             commit a refreshed bench/baseline.json with this PR"
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "perf gate: FAIL — if intentional, apply the `perf-regression-ok` label \
         (sets PERF_GATE_SOFT=1) and refresh bench/baseline.json"
    );
    ExitCode::FAILURE
}
