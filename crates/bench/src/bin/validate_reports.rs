//! **Report validator**: checks every `BENCH_*.json` in the given paths
//! against the `sidecar-bench/v1` schema and exits non-zero on the first
//! malformed report.
//!
//! CI runs this after the bench legs so a bench binary that starts
//! emitting broken JSON (wrong schema tag, non-finite values, duplicate
//! metric keys, name/filename mismatch) fails the build *before* the
//! artifact is uploaded or a baseline refresh copies the corruption in.
//!
//! Known reports additionally carry **required cells**: `exp_manyflow`
//! must contain its e2e, certified-1k, and flow-engine-sweep metrics (the
//! cells both `--quick` and full runs emit), and — whenever any 100k-flow
//! sweep cell is present (a full run) — all three gated
//! `manyflow_inserts_per_sec|flows=100000|proto=*` cells; `exp_simscale`
//! must carry its calibration and its smallest sweep point; `paper` must
//! carry one cell per checked claim row. A refactor that silently stops
//! emitting a gated cell or a claim fails here, not as a quietly-absent
//! "baseline only" row in the perf gate or a claim nobody checks.
//!
//! Time-series artifacts (`BENCH_*_timeseries.txt`, emitted by benches
//! accepting `--timeseries-out`) are validated alongside the JSON: the
//! file must parse as the canonical [`sidecar_obs::TimeSeries`] text
//! format and pass [`TimeSeries::validate`] — strictly increasing
//! timestamps, finite values, no duplicate series keys within a point.
//!
//! Usage: `validate_reports [path ...]`
//!
//! Each path may be a report file or a directory (scanned non-recursively
//! for `BENCH_*.json` and `BENCH_*_timeseries.txt`). With no arguments,
//! scans the current directory. It is an error for a directory scan to
//! find nothing — a CI leg that validates zero reports is misconfigured,
//! not passing.
//!
//! [`TimeSeries::validate`]: sidecar_obs::TimeSeries::validate
//!
//! Exit status: 0 = all reports valid, 1 = at least one invalid (or none
//! found), 2 = usage/IO error.

use sidecar_bench::BenchReport;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Schema checks beyond what [`BenchReport::parse`] enforces: the parser
/// guarantees structure; this guarantees the report is *usable* by the
/// perf gate and baseline tooling.
fn validate(path: &Path, report: &BenchReport) -> Vec<String> {
    let mut errors = Vec::new();
    if report.name.is_empty() {
        errors.push("empty report name".into());
    }
    // The report file must be named after the report, or `perf_gate` /
    // baseline refreshes will silently read the wrong bench's numbers.
    let expected = format!("BENCH_{}.json", report.name);
    if path.file_name().and_then(|f| f.to_str()) != Some(expected.as_str()) {
        errors.push(format!(
            "file name does not match report name {:?} (expected {expected})",
            report.name
        ));
    }
    let mut seen = BTreeSet::new();
    for metric in &report.metrics {
        let key = metric.key();
        if metric.name.is_empty() {
            errors.push("metric with empty name".into());
        }
        if metric.unit.is_empty() {
            errors.push(format!("{key}: empty unit"));
        }
        if !metric.value.is_finite() {
            errors.push(format!("{key}: non-finite value {}", metric.value));
        }
        if !seen.insert(key.clone()) {
            errors.push(format!("{key}: duplicate metric key"));
        }
    }
    for cell in required_cells(&report.name, &seen) {
        if !seen.contains(cell.as_str()) {
            errors.push(format!("{cell}: required cell missing"));
        }
    }
    errors
}

/// Cells a known report must always carry (keyed as [`Metric::key`],
/// name + sorted params). Unknown report names require nothing.
///
/// [`Metric::key`]: sidecar_bench::Metric::key
fn required_cells(report: &str, present: &BTreeSet<String>) -> Vec<String> {
    let mut cells = Vec::new();
    if report == "exp_manyflow" {
        for proto in ["retx", "ackred", "ccd"] {
            // One e2e leg per protocol…
            cells.push(format!("completed|flows=1|protocol={proto}"));
            // …and the 1k flow-engine sweep cells (quick and full runs).
            for name in [
                "manyflow_inserts_per_sec",
                "manyflow_bytes_per_flow",
                "manyflow_overcommit_evictions",
            ] {
                cells.push(format!("{name}|flows=1000|proto={proto}"));
            }
        }
        // The causally certified 1k leg.
        cells.push("certified_completed|flows=1000".into());
        cells.push("certified_lifecycles|flows=1000".into());
        // `ops/s` cells are gated against the calibration-rescaled
        // baseline, so the report must carry its own calibration cell.
        cells.push("calibration".into());
        // Full runs (any 100k sweep cell present) must emit all three
        // gated cells; `--quick` runs stop at 10k and owe nothing here.
        if present.iter().any(|k| k.contains("|flows=100000|proto=")) {
            for proto in ["retx", "ackred", "ccd"] {
                cells.push(format!(
                    "manyflow_inserts_per_sec|flows=100000|proto={proto}"
                ));
            }
        }
    }
    if report == "exp_simscale" {
        // The gated `events_per_sec|flows=100000` cell rescales by the
        // report's own calibration; every sweep (quick, full, default
        // `--flows`) starts at 1k.
        cells.push("calibration".into());
        cells.push("events_per_sec|flows=1000".into());
    }
    if report == "exp_obs_overhead" {
        // The telemetry-cost report must always carry the gated headroom
        // headline and its calibration cell — a refactor that stops
        // emitting the gate's input fails here, not as a silent
        // "baseline only" row.
        for name in [
            "calibration",
            "obs_overhead_headroom",
            "obs_overhead_per_packet",
            "scoreboard_record",
            "sampler_tick",
        ] {
            cells.push(name.into());
        }
    }
    if report == "paper" {
        // Every row of the `paper` bin that checks a claim or states a
        // deviation from the paper.
        let mut cell = |c: String| cells.push(c);
        for scheme in ["strawman1", "strawman2", "power_sums"] {
            cell(format!("table2.wire_size|scheme={scheme}"));
        }
        for scheme in ["strawman1", "strawman2"] {
            cell(format!("table2.construction_time|scheme={scheme}"));
        }
        for b in [8, 16, 24, 32] {
            cell(format!("table3.collision_probability|b={b}"));
        }
        for b in [8, 16] {
            cell(format!("table3.collision_probability_mc|b={b}"));
        }
        for t in [4, 8, 16] {
            cell(format!(
                "freq_selection.ackred_bits_per_window|scheme=power_sums|t={t}"
            ));
        }
        for loss in ["0.001", "0.005", "0.01", "0.02", "0.05"] {
            cell(format!("freq_selection.retx_quack_interval|loss={loss}"));
        }
        for loss in ["0", "0.005", "0.01", "0.02"] {
            cell(format!("exp_ccd.speedup|loss={loss}"));
        }
        for loss in ["0.005", "0.01", "0.02", "0.05"] {
            cell(format!("exp_retx.e2e_retx|loss={loss}|variant=sidecar"));
            cell(format!("exp_retx.in_net_retx|loss={loss}"));
            cell(format!("exp_retx.speedup|loss={loss}"));
        }
        for d in [5, 10, 20, 40] {
            cell(format!("sketch_compare.wire_size|d={d}|sketch=power_sums"));
            cell(format!("sketch_compare.wire_size|d={d}|sketch=iblt"));
            cell(format!("sketch_compare.decode_time|d={d}|sketch=iblt"));
        }
        for name in [
            "table2.strawman2_search_found|m=2|n=16",
            "table2.decode_time|scheme=strawman2",
            "headline.quack_size",
            "headline.indeterminate_chance",
            "headline.decode_time",
            "freq_selection.ccd_packets_per_rtt",
            "freq_selection.ccd_missing_per_rtt",
            "freq_selection.ackred_bits_per_window|scheme=strawman1",
            "fig5.growth_t10_to_t50|b=32",
            "fig5.b16_over_b32|t=50",
            "fig6.m0_over_m20|b=32",
            "fig6.m12_20_over_m2_10|b=32",
            "exp_ackred.client_acks|variant=sidecar",
            "exp_ackred.slowdown_vs_normal|variant=sidecar",
            "exp_frequency.ccd_completion_time|interval_ms=480",
            "exp_frequency.retx_completion_time|schedule=adaptive",
            "exp_frequency.retx_quack_msgs|schedule=adaptive",
            "exp_fairness.fairness_ratio|loss=0.01|variant=sidecar",
            "exp_fairness.flow1_fct|loss=0.03|variant=sidecar",
            "exp_fairness.flow2_fct|loss=0.03|variant=sidecar",
        ] {
            cell(name.into());
        }
    }
    if report == "exp_live" {
        // The live-vs-netsim overhead comparison plus the certification
        // bit: a run that cannot certify its flight recorder (or never
        // measured one of the two hosts) is not a valid report.
        for name in [
            "calibration",
            "live_ns_per_packet",
            "netsim_ns_per_packet",
            "live_overhead_ratio",
            "certified",
        ] {
            cells.push(name.into());
        }
    }
    cells
}

/// Whether a file name is a time-series artifact rather than a JSON
/// report.
fn is_timeseries(path: &Path) -> bool {
    path.file_name()
        .and_then(|f| f.to_str())
        .is_some_and(|f| f.starts_with("BENCH_") && f.ends_with("_timeseries.txt"))
}

/// Validates one `BENCH_*_timeseries.txt` artifact: parse roundtrip plus
/// the schema checks (`TimeSeries::validate`). An *empty* series is legal
/// — a sampled run shorter than one interval has no windows — but an
/// unreadable or malformed file is not.
fn validate_timeseries(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let series = sidecar_obs::TimeSeries::parse(&text)?;
    series.validate()?;
    Ok(series.len())
}

/// Expands a CLI path into report files: files pass through, directories
/// are scanned (one level) for `BENCH_*.json` and
/// `BENCH_*_timeseries.txt`.
fn expand(path: &Path) -> std::io::Result<Vec<PathBuf>> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut found: Vec<PathBuf> = std::fs::read_dir(path)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
                || is_timeseries(p)
        })
        .collect();
    found.sort();
    Ok(found)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let roots: Vec<PathBuf> = if args.is_empty() {
        vec![PathBuf::from(".")]
    } else {
        args.iter().map(PathBuf::from).collect()
    };

    let mut files = Vec::new();
    for root in &roots {
        match expand(root) {
            Ok(mut f) => files.append(&mut f),
            Err(e) => {
                eprintln!("validate_reports: cannot scan {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }
    if files.is_empty() {
        eprintln!("validate_reports: no BENCH_*.json found under the given paths");
        return ExitCode::FAILURE;
    }

    let mut bad = 0usize;
    let mut metrics_total = 0usize;
    for path in &files {
        if is_timeseries(path) {
            match validate_timeseries(path) {
                Ok(points) => {
                    println!("  ok   {} ({points} sample points)", path.display());
                }
                Err(e) => {
                    bad += 1;
                    println!("  FAIL {}", path.display());
                    println!("         {e}");
                }
            }
            continue;
        }
        match BenchReport::read(path) {
            Ok(report) => {
                let errors = validate(path, &report);
                if errors.is_empty() {
                    println!(
                        "  ok   {} ({} metrics)",
                        path.display(),
                        report.metrics.len()
                    );
                    metrics_total += report.metrics.len();
                } else {
                    bad += 1;
                    println!("  FAIL {}", path.display());
                    for e in &errors {
                        println!("         {e}");
                    }
                }
            }
            Err(e) => {
                bad += 1;
                println!("  FAIL {}", path.display());
                println!("         {e}");
            }
        }
    }

    if bad > 0 {
        println!("validate_reports: {bad}/{} report(s) invalid", files.len());
        return ExitCode::FAILURE;
    }
    println!(
        "validate_reports: {} report(s) valid, {metrics_total} metrics total",
        files.len()
    );
    ExitCode::SUCCESS
}
