//! The five workloads. Each `run` measures one of them for the requested
//! time in the calling process and returns what it saw; `cli` turns that
//! into the printed result.

pub mod live;
pub mod sim;
pub mod sketch;

use crate::json::Json;
use crate::span::{totals_by_name, Tracer};
use crate::spec::Workload;
use crate::stats::{supported_tail, Histogram};
use std::path::PathBuf;

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Smoke mode: short slices, one sim pass. Never comparable.
    pub quick: bool,
    /// Record spans and per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Where span files and result documents go.
    pub out_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (packets sent, flows run, rounds decoded).
    pub attempted: u64,
    /// Of those, the ones that did not produce their result.
    pub failed: u64,
    /// Correctness checks that did not hold; any entry fails the run.
    pub problems: Vec<String>,
    /// Generator-hygiene rules broken: the numbers say more about the load
    /// generator than about the system, so the run is invalid, not slow.
    pub invalid: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts, quartiles, sizes: context for the result document.
    pub detail: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, name: &'static str, value: Json) {
        self.detail.push((name, value));
    }

    /// Records `what` as a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    match args.workload {
        Workload::LiveRelay | Workload::LiveLossy => live::run(args),
        Workload::SimManyflow | Workload::SimChurn => sim::run(args),
        Workload::Sketch => sketch::run(args),
    }
}

/// How many times a run sets up, so `setup_s` is a median, not one draw.
pub(crate) const SETUP_REPEATS: usize = 5;

/// The pre-shared secret of every authenticated control channel here.
pub(crate) const AUTH_SECRET: u64 = 0x5EC7_0CA7;

/// A timing's quartiles, sample count, and the highest percentile that still
/// has ten samples beyond it, for the result document.
pub(crate) fn histogram_detail(h: &Histogram) -> Json {
    let tail = supported_tail(h.len());
    Json::obj([
        ("n", Json::Num(h.len() as f64)),
        ("p25_us", Json::Num(h.percentile(25.0) / 1e3)),
        ("p50_us", Json::Num(h.percentile(50.0) / 1e3)),
        ("p75_us", Json::Num(h.percentile(75.0) / 1e3)),
        ("tail_pct", tail.map_or(Json::Null, Json::Num)),
        (
            "tail_us",
            tail.map_or(Json::Null, |p| Json::Num(h.percentile(p) / 1e3)),
        ),
        ("max_us", Json::Num(h.max() as f64 / 1e3)),
    ])
}

/// Writes the span file and the span-derived metrics every traced run has.
pub(crate) fn finish_trace(out: &mut Outcome, args: &RunArgs, tracer: &Tracer) {
    let path = args
        .out_dir
        .join(format!("{}.trace.jsonl", args.workload.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        out.problems
            .push(format!("cannot write {}: {e}", path.display()));
    }
    out.metric("trace.spans", tracer.spans().len() as f64);
    out.metric("trace.spans_dropped", tracer.dropped as f64);
    let totals = totals_by_name(tracer.spans())
        .into_iter()
        .map(|(name, t)| {
            let fields = [
                ("count", Json::Num(t.count as f64)),
                ("total_ns", Json::Num(t.total_ns as f64)),
                ("self_ns", Json::Num(t.self_ns as f64)),
            ];
            (name.to_string(), Json::obj(fields))
        })
        .collect();
    out.detail("span_totals", Json::Obj(totals));
}
