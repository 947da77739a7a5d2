//! `bench compare <a.json> <b.json>`: is `b` worse than `a`? For every
//! pairing of end-to-end metric and workload it applies the direction and
//! bound `BENCHMARK.json` fixes, and reports a pair whose run-to-run spread
//! is wider than the bound as unresolved, never as unchanged. It makes no
//! claim of a gain: that takes the paired runs of the choosing-metrics guide.

use crate::json::Json;
use crate::spec::{Better, Workload};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction and bound of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// Reads the `end_to_end` table of a `BENCHMARK.json` document.
pub fn rules_from_spec(spec: &Json) -> Result<Vec<Rule>, String> {
    let table = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end table")?;
    table
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: better must be lower or higher"))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .filter(|b| *b > 0.0)
                .ok_or_else(|| format!("{name}: bound must be a positive number"))?;
            Ok(Rule {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// The runs of one result document, by workload.
#[derive(Debug, Default)]
pub struct RunSet {
    /// `values[(workload, metric)]`: one value per run.
    values: BTreeMap<(String, String), Vec<f64>>,
    attempted: BTreeMap<String, u64>,
    failed: BTreeMap<String, u64>,
    /// Runs left out because their generator broke a hygiene rule.
    pub skipped_invalid: usize,
}

impl RunSet {
    /// Accepts a `{"runs": [...]}` document or a single run document.
    /// Refuses what must not be compared: quick runs, traced runs and
    /// incorrect runs. A run marked invalid measured its load generator, not
    /// the system: it is left out and counted in `skipped_invalid`.
    pub fn from_document(doc: &Json) -> Result<RunSet, String> {
        let single = std::slice::from_ref(doc);
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(single);
        let mut set = RunSet::default();
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("a run has no workload")?;
            let flag = |key: &str| run.get(key).and_then(Json::as_bool);
            if flag("quick") != Some(false) {
                return Err(format!("{workload}: a --quick run is for smoke use only"));
            }
            if flag("trace") != Some(false) {
                return Err(format!(
                    "{workload}: a traced run has no end-to-end metrics"
                ));
            }
            if flag("correct") != Some(true) {
                return Err(format!("{workload}: the run failed its correctness checks"));
            }
            if flag("valid") != Some(true) {
                set.skipped_invalid += 1;
                continue;
            }
            let count = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            *set.attempted.entry(workload.into()).or_default() += count("attempted");
            *set.failed.entry(workload.into()).or_default() += count("failed");
            let metrics = run
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{workload}: no metrics"))?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}: {name} has no value"))?;
                set.values
                    .entry((workload.into(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
        Ok(set)
    }

    fn failed_share(&self, workload: &str) -> f64 {
        let attempted = self.attempted.get(workload).copied().unwrap_or(0);
        self.failed.get(workload).copied().unwrap_or(0) as f64 / attempted.max(1) as f64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    /// The spread between runs is wider than the bound: no verdict.
    Unresolved,
    Regressed,
    /// One side has no runs of this workload.
    Missing,
}

impl Verdict {
    fn mark(self) -> char {
        match self {
            Verdict::Unchanged => '=',
            Verdict::Improved => '+',
            Verdict::Unresolved => '?',
            Verdict::Regressed => '!',
            Verdict::Missing => '-',
        }
    }
}

/// One (metric, workload) pairing compared.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    /// Share of `a`'s median by which `b` is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' interquartile spreads.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn judge(rule: &Rule, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    if a.is_empty() || b.is_empty() {
        return (0.0, 0.0, Verdict::Missing);
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match rule.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = spread(a).max(spread(b));
    let verdict = if worse_by > rule.bound {
        Verdict::Regressed
    } else if spread > rule.bound {
        Verdict::Unresolved
    } else if worse_by < -rule.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

/// The whole comparison.
#[derive(Debug)]
pub struct Comparison {
    pub cells: Vec<Cell>,
    /// Workloads whose share of failed operations rose from `a` to `b`.
    pub failed_share_rose: Vec<String>,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        !self.failed_share_rose.is_empty()
            || self.cells.iter().any(|c| c.verdict == Verdict::Regressed)
    }

    /// One row per workload, one column per metric: the worsening in percent
    /// of `a`'s median and the verdict's mark. Every cell that is not
    /// unchanged is then spelled out below the table.
    pub fn render(&self, rules: &[Rule]) -> String {
        let mut out = String::new();
        write!(out, "{:<13}", "workload").expect("write to String");
        for r in rules {
            write!(out, " {:>16}", r.name).expect("write to String");
        }
        out.push('\n');
        for w in Workload::ALL {
            write!(out, "{:<13}", w.name()).expect("write to String");
            for r in rules {
                let cell = self
                    .cells
                    .iter()
                    .find(|c| c.workload == w.name() && c.metric == r.name);
                match cell {
                    Some(c) if c.verdict != Verdict::Missing => {
                        let text = format!("{:+.1}% {}", c.worse_by * 100.0, c.verdict.mark());
                        write!(out, " {text:>16}").expect("write to String");
                    }
                    _ => write!(out, " {:>16}", "-").expect("write to String"),
                }
            }
            out.push('\n');
        }
        out.push_str("positive = worse;  = unchanged  + improved  ? unresolved  ! regressed\n");
        for c in &self.cells {
            if matches!(c.verdict, Verdict::Unchanged | Verdict::Missing) {
                continue;
            }
            writeln!(
                out,
                "{:?}: {} on {}: median {} -> {} ({:+.2}% worse, spread {:.2}%, bound {:.0}%)",
                c.verdict,
                c.metric,
                c.workload,
                c.median_a,
                c.median_b,
                c.worse_by * 100.0,
                c.spread * 100.0,
                c.bound * 100.0
            )
            .expect("write to String");
        }
        for w in &self.failed_share_rose {
            writeln!(out, "Regressed: failed_share rose on {w}").expect("write to String");
        }
        out
    }
}

pub fn compare(rules: &[Rule], a: &RunSet, b: &RunSet) -> Comparison {
    let mut cells = Vec::new();
    let mut failed_share_rose = Vec::new();
    for w in Workload::ALL {
        let w = w.name();
        for rule in rules {
            let key = (w.to_string(), rule.name.clone());
            let empty = Vec::new();
            let (va, vb) = (
                a.values.get(&key).unwrap_or(&empty),
                b.values.get(&key).unwrap_or(&empty),
            );
            let (worse_by, spread, verdict) = judge(rule, va, vb);
            cells.push(Cell {
                workload: w.into(),
                metric: rule.name.clone(),
                median_a: median(va),
                median_b: median(vb),
                worse_by,
                spread,
                bound: rule.bound,
                verdict,
            });
        }
        if a.attempted.contains_key(w) && b.failed_share(w) > a.failed_share(w) {
            failed_share_rose.push(w.to_string());
        }
    }
    Comparison {
        cells,
        failed_share_rose,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(better: Better) -> Rule {
        Rule {
            name: "m".into(),
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn better_worse_and_unresolved_pairs() {
        let steady_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = rule(Better::Lower);
        let higher = rule(Better::Higher);
        // 20 % up on a lower-is-better metric is a regression; on a
        // higher-is-better one it is an improvement.
        let up = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&lower, &steady_a, &up).2, Verdict::Regressed);
        assert_eq!(judge(&higher, &steady_a, &up).2, Verdict::Improved);
        let down = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge(&lower, &steady_a, &down).2, Verdict::Improved);
        assert_eq!(judge(&higher, &steady_a, &down).2, Verdict::Regressed);
        // Inside the bound, with a tight spread: unchanged.
        let near = [104.0, 105.0, 103.0, 104.5, 103.5];
        let (worse_by, _, verdict) = judge(&lower, &steady_a, &near);
        assert_eq!(verdict, Verdict::Unchanged);
        assert!((worse_by - 0.04).abs() < 1e-9);
        // Inside the bound, but the runs themselves spread 40 %: the pair
        // is unresolved, not unchanged.
        let noisy = [80.0, 120.0, 100.0, 125.0, 78.0];
        assert_eq!(judge(&lower, &steady_a, &noisy).2, Verdict::Unresolved);
        assert_eq!(judge(&lower, &noisy, &steady_a).2, Verdict::Unresolved);
        // Beyond the bound it is a regression however noisy the runs are.
        let noisy_up = [100.0, 150.0, 125.0, 156.0, 98.0];
        assert_eq!(judge(&lower, &steady_a, &noisy_up).2, Verdict::Regressed);
        assert_eq!(judge(&lower, &steady_a, &[]).2, Verdict::Missing);
    }

    fn run_doc(workload: &str, value: f64, failed: u64, quick: bool) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("quick", Json::Bool(quick)),
            ("trace", Json::Bool(false)),
            ("valid", Json::Bool(true)),
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(failed as f64)),
            (
                "metrics",
                Json::obj([(
                    "m",
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str("ms"))]),
                )]),
            ),
        ])
    }

    fn doc(runs: Vec<Json>) -> Json {
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn documents_compare_per_workload_and_failures_count() {
        let rules = [rule(Better::Lower)];
        let a = doc(vec![
            run_doc("sketch", 10.0, 0, false),
            run_doc("live_relay", 5.0, 0, false),
        ]);
        let b = doc(vec![
            run_doc("sketch", 10.5, 0, false),
            run_doc("live_relay", 7.0, 0, false),
        ]);
        let (sa, sb) = (
            RunSet::from_document(&a).unwrap(),
            RunSet::from_document(&b).unwrap(),
        );
        let cmp = compare(&rules, &sa, &sb);
        let verdict = |w: &str| cmp.cells.iter().find(|c| c.workload == w).unwrap().verdict;
        assert_eq!(verdict("sketch"), Verdict::Unchanged);
        assert_eq!(verdict("live_relay"), Verdict::Regressed);
        assert_eq!(verdict("sim_churn"), Verdict::Missing);
        assert!(cmp.regressed());
        assert!(cmp.render(&rules).contains("Regressed: m on live_relay"));

        // Same medians, but b failed an operation: a regression by itself.
        let failing = doc(vec![run_doc("sketch", 10.0, 1, false)]);
        let only = doc(vec![run_doc("sketch", 10.0, 0, false)]);
        let cmp = compare(
            &rules,
            &RunSet::from_document(&only).unwrap(),
            &RunSet::from_document(&failing).unwrap(),
        );
        assert_eq!(cmp.failed_share_rose, ["sketch"]);
        assert!(cmp.regressed());
    }

    #[test]
    fn quick_documents_are_refused() {
        let quick = doc(vec![run_doc("sketch", 10.0, 0, true)]);
        assert!(RunSet::from_document(&quick)
            .unwrap_err()
            .contains("--quick"));
        // A single run document is accepted as a set of one.
        assert!(RunSet::from_document(&run_doc("sketch", 1.0, 0, false)).is_ok());
    }

    #[test]
    fn invalid_runs_are_left_out_not_compared() {
        let Json::Obj(mut fields) = run_doc("sketch", 99.0, 0, false) else {
            unreachable!()
        };
        for (key, value) in &mut fields {
            if key == "valid" {
                *value = Json::Bool(false);
            }
        }
        let set = RunSet::from_document(&doc(vec![
            run_doc("sketch", 10.0, 0, false),
            Json::Obj(fields),
        ]))
        .unwrap();
        assert_eq!(set.skipped_invalid, 1);
        assert_eq!(set.values[&("sketch".to_string(), "m".to_string())], [10.0]);
    }
}
