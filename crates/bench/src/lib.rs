//! Harness utilities for regenerating the paper's tables and figures.
//!
//! The `paper` binary in `src/bin/` prints and checks every table and
//! figure in the Sidecar (HotNets '22) evaluation; the other binaries
//! measure the system beyond the paper. This library holds the shared
//! pieces: a trial runner matching the paper's methodology ("average of 100
//! trials with warmup"), workload generation, table formatting, and the
//! [`baselines`] the paper compares the quACK against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

// Declared at the crate root so their unit tests keep the `iblt::tests::*`
// / `strawman::tests::*` names they had in `sidecar-quack`; the public path
// is [`baselines`].
#[doc(hidden)]
#[path = "baselines/iblt.rs"]
pub mod iblt;
#[doc(hidden)]
#[path = "baselines/strawman.rs"]
pub mod strawman;

/// The sketches the power-sum quACK is measured against: paper Table 2's
/// two strawmen and the invertible Bloom lookup table. Experiment code —
/// no protocol or datapath uses them.
pub mod baselines {
    pub use crate::{iblt, strawman};
}

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use report::{BenchReport, Metric};
use sidecar_obs::{EventTrace, MetricsSnapshot};
pub use sidecar_quack::id::IdentifierGenerator;

/// Measurement defaults from the paper (§4.1: "Average of 100 trials with
/// warmup").
pub const TRIALS: usize = 100;
/// Warmup iterations discarded before measuring.
pub const WARMUP: usize = 10;

/// Runs `f` `warmup` times, then returns the mean wall-clock duration over
/// `trials` measured runs.
///
/// `f` receives the trial index (warmup trials get indices too, so inputs
/// can vary per trial if desired) and must return something observable to
/// keep the optimizer honest — the return value is black-boxed.
pub fn measure_mean_with<T>(
    trials: usize,
    warmup: usize,
    f: &mut impl FnMut(usize) -> T,
) -> Duration {
    for i in 0..warmup {
        std::hint::black_box(f(i));
    }
    let start = Instant::now();
    for i in 0..trials {
        std::hint::black_box(f(warmup + i));
    }
    start.elapsed() / trials as u32
}

/// Runs [`measure_mean_with`] `reps` times and returns the fastest mean.
///
/// Preemption and frequency scaling only ever make a repetition *slower*,
/// so the minimum over independent repetitions is the best available
/// estimate of the uncontended cost. The calibration probe uses this so
/// the perf gate's rescaling doesn't inherit scheduler noise; sweeps with
/// many cells (`exp_hotpath`) go further and interleave the repetitions
/// across cells.
pub fn measure_best_of<T>(
    reps: usize,
    trials: usize,
    warmup: usize,
    f: &mut impl FnMut(usize) -> T,
) -> Duration {
    (0..reps)
        .map(|_| measure_mean_with(trials, warmup, f))
        .min()
        .expect("reps >= 1")
}

/// Mean duration of `f` divided by `per`, in nanoseconds — for per-packet
/// amortized costs.
pub fn per_item_nanos(duration: Duration, per: usize) -> f64 {
    duration.as_nanos() as f64 / per as f64
}

/// Items per second given the mean duration of processing `per` items.
pub fn ops_per_sec(duration: Duration, per: usize) -> f64 {
    per as f64 / duration.as_secs_f64().max(1e-12)
}

/// Measures a fixed scalar integer workload (a serial wrapping multiply-add
/// chain) in ops/s.
///
/// This number tracks single-core integer throughput of the machine running
/// the bench, independent of any quACK code. The `perf_gate` bin divides
/// the current calibration by the baseline's to rescale absolute
/// throughputs before comparing, so a committed baseline from one machine
/// can gate runs on another without tripping on raw CPU-speed differences.
pub fn calibration_ops_per_sec() -> f64 {
    const CHAIN: usize = 1 << 16;
    let d = measure_best_of(5, 30, 5, &mut |i| {
        let mut acc = i as u64 | 1;
        for j in 0..CHAIN as u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(j);
        }
        acc
    });
    ops_per_sec(d, CHAIN)
}

/// The metrics and flight-recorder traces a bin's runs returned (each run's
/// counts and events live in its own host), merged in run order: what
/// `--metrics-out` and `--trace-out` write.
#[derive(Debug)]
pub struct RunObs {
    metrics: MetricsSnapshot,
    /// The runs' traces, one after another, in a ring of 2^18 records:
    /// enough for the lifecycle trace of a full scenario sweep.
    trace: EventTrace,
}

impl Default for RunObs {
    fn default() -> Self {
        RunObs {
            metrics: MetricsSnapshot::default(),
            trace: EventTrace::with_capacity(1 << 18),
        }
    }
}

impl RunObs {
    /// Merges one run's registry snapshot and trace.
    pub fn add(&mut self, metrics: &MetricsSnapshot, trace: &EventTrace) {
        self.metrics.merge(metrics);
        self.trace.absorb(trace);
    }

    /// [`write_metrics_out`] and [`write_trace_out`] of what was merged.
    pub fn write_out(&self, name: &str) {
        write_metrics_out(name, &self.metrics);
        write_trace_out(name, &self.trace);
    }
}

/// Handles the `--metrics-out` flag: when the flag is present in the
/// process arguments, writes `snap` (what the bin's runs recorded, see
/// [`RunObs`]) as a `BENCH_<name>_metrics.json` report next to the bench's
/// own `BENCH_<name>.json` (both honor `$BENCH_OUT_DIR`).
///
/// Counters land with unit `count`, finite gauges with `value`, and
/// histograms as one metric per bucket with an `le` param (`inf` for the
/// overflow bucket) plus `<name>.count` / `<name>.sum` totals — all
/// informational; the perf gate never reads them. Call it after the bench
/// report is written; it is a no-op without the flag.
pub fn write_metrics_out(name: &str, snap: &MetricsSnapshot) {
    if std::env::args().any(|a| a == "--metrics-out") {
        let report = metrics_report(name, snap);
        report
            .write_default()
            .expect("write metrics-out bench report");
    }
}

/// The `<name>_metrics` report [`write_metrics_out`] writes.
fn metrics_report(name: &str, snap: &MetricsSnapshot) -> BenchReport {
    let mut report = BenchReport::new(format!("{name}_metrics"));
    for (counter, value) in &snap.counters {
        report.push(counter, &[], *value as f64, "count");
    }
    for (gauge, value) in &snap.gauges {
        if value.is_finite() {
            report.push(gauge, &[], *value, "value");
        }
    }
    for h in &snap.histograms {
        for (i, &bucket) in h.buckets.iter().enumerate() {
            let le = h.bounds.get(i).map_or("inf".into(), u64::to_string);
            report.push(&h.name, &[("le", &le)], bucket as f64, "count");
        }
        report.push(&format!("{}.count", h.name), &[], h.count as f64, "count");
        report.push(&format!("{}.sum", h.name), &[], h.sum as f64, "count");
    }
    report
}

/// Handles the `--trace-out [path]` flag: when the flag is present, renders
/// `trace` (what the bin's runs recorded, see [`RunObs`]) to `path`, or to
/// `BENCH_<name>_trace.txt` next to the bench's JSON when the flag carries
/// no path (honoring `$BENCH_OUT_DIR`).
///
/// The rendering is the canonical `EventTrace` text format: one
/// `t=<ns> <event>` line per record, preceded by a `# truncated dropped=N`
/// header when the ring evicted records — consumers must treat a truncated
/// trace as incomplete. No-op without the flag.
pub fn write_trace_out(name: &str, trace: &EventTrace) {
    if let Some(path) = out_path(name, "trace") {
        std::fs::write(&path, trace.render()).expect("write trace-out file");
        println!("[bench-trace] wrote {}", path.display());
    }
}

/// Handles the `--timeseries-out [path]` flag for benches that run a
/// sampled scenario: when the flag is present, renders `series` in the
/// canonical [`sidecar_obs::TimeSeries`] text format to `path`, or to
/// `BENCH_<name>_timeseries.txt` next to the bench's JSON when the flag
/// carries no path (honoring `$BENCH_OUT_DIR`).
///
/// The rendering is byte-stable for deterministic simulator runs, so CI
/// can archive the artifact and `validate_reports` can schema-check it
/// (parse roundtrip, finite values, monotone timestamps). No-op without
/// the flag.
pub fn write_timeseries_out(name: &str, series: &sidecar_obs::TimeSeries) {
    if let Some(path) = out_path(name, "timeseries") {
        std::fs::write(&path, series.render()).expect("write timeseries-out file");
        println!("[bench-timeseries] wrote {}", path.display());
    }
}

/// Where an `--<kind>-out [path]` flag sends its artifact: the path after
/// the flag, else `BENCH_<name>_<kind>.txt` in `$BENCH_OUT_DIR` (or `.`).
/// `None` without the flag.
fn out_path(name: &str, kind: &str) -> Option<PathBuf> {
    let flag = format!("--{kind}-out");
    let mut rest = std::env::args().skip_while(|a| *a != flag);
    rest.next()?;
    Some(match rest.next() {
        Some(p) if !p.starts_with("--") => p.into(),
        _ => {
            let dir = std::env::var_os("BENCH_OUT_DIR").unwrap_or_else(|| ".".into());
            PathBuf::from(dir).join(format!("BENCH_{name}_{kind}.txt"))
        }
    })
}

/// Formats a duration the way the paper's tables do (ns/us/ms autoscale).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// A simple fixed-width table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}", w = w))
                .collect();
            format!("| {} |", parts.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|", sep.join("-|-")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Standard workload: `n` uniform `bits`-bit identifiers with `missing`
/// of them (chosen deterministically spread out) absent from the received
/// set. Returns `(sent, received)`.
pub fn workload(n: usize, missing: usize, bits: u32, seed: u64) -> (Vec<u64>, Vec<u64>) {
    assert!(missing <= n);
    let mut generator = IdentifierGenerator::new(bits, seed);
    let sent = generator.take_ids(n);
    let received: Vec<u64> = sent
        .iter()
        .enumerate()
        .filter(|(i, _)| missing == 0 || i % n.div_ceil(missing) != 0)
        .map(|(_, &id)| id)
        .collect();
    (sent, received)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_drops_requested_count() {
        let (sent, received) = workload(1000, 20, 32, 42);
        assert_eq!(sent.len(), 1000);
        assert_eq!(sent.len() - received.len(), 20);
        let (s2, r2) = workload(100, 0, 32, 1);
        assert_eq!(s2.len(), r2.len());
    }

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(100, 5, 16, 7), workload(100, 5, 16, 7));
        assert_ne!(workload(100, 5, 16, 7), workload(100, 5, 16, 8));
    }

    #[test]
    fn measure_returns_positive() {
        let d = measure_mean_with(5, 1, &mut |i| {
            let mut acc = 0u64;
            for j in 0..1000u64 {
                acc = acc.wrapping_add(j * i as u64);
            }
            acc
        });
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("longer"));
    }

    #[test]
    fn metrics_report_cells() {
        use sidecar_obs::HistogramSnapshot;
        let snap = MetricsSnapshot {
            counters: vec![("quack.sent".into(), 7)],
            gauges: vec![("rtt".into(), 2.5), ("undefined".into(), f64::NAN)],
            histograms: vec![HistogramSnapshot {
                name: "fill".into(),
                bounds: vec![1, 4],
                buckets: vec![2, 0, 3],
                count: 5,
                sum: 40,
            }],
        };
        let report = metrics_report("demo", &snap);
        assert_eq!(report.name, "demo_metrics");
        let cell = |key: &str| {
            let m = report.get(key).unwrap_or_else(|| panic!("no cell {key}"));
            (m.value, m.unit.as_str())
        };
        assert_eq!(cell("quack.sent"), (7.0, "count"));
        assert_eq!(cell("rtt"), (2.5, "value"));
        assert!(report.get("undefined").is_none(), "NaN gauge skipped");
        assert_eq!(cell("fill|le=1"), (2.0, "count"));
        assert_eq!(cell("fill|le=4"), (0.0, "count"));
        assert_eq!(cell("fill|le=inf"), (3.0, "count"));
        assert_eq!(cell("fill.count"), (5.0, "count"));
        assert_eq!(cell("fill.sum"), (40.0, "count"));
        assert_eq!(report.metrics.len(), 7);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(387)), "387 ns");
        assert_eq!(fmt_duration(Duration::from_micros(106)), "106.0 us");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
    }
}
