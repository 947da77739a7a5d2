//! Command line shared by the two binaries.
//!
//! ```text
//! bench run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--quick]
//! bench run --all [--seeds 1,2,3] [--seconds <s>] [--trace 0|1] [--quick] [--out <file>]
//! bench compare <a.json> <b.json> [--spec BENCHMARK.json]
//! ```
//!
//! `bench` measures untraced; asked for `--trace 1` it hands over to its
//! sibling `bench-trace`, which carries the spans and the counting
//! allocator, so the end-to-end numbers never pay for either.

use crate::compare::{compare, rules_from_spec, RunSet};
use crate::json::Json;
use crate::spec::{MetricSpec, Workload, END_TO_END, PER_LAYER};
use crate::workloads::{self, Outcome, RunArgs};
use crate::{env, probes};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  bench run --workload <live_relay|live_lossy|sim_manyflow|sim_churn|sketch> --seed <u64>
            [--seconds <s>] [--trace 0|1] [--quick] [--out-dir <dir>]
  bench run --all [--seeds <a,b,..>] [--seconds <s>] [--trace 0|1] [--quick]
            [--out-dir <dir>] [--out <file>]
  bench compare <a.json> <b.json> [--spec <BENCHMARK.json>]";

pub const SCHEMA: &str = "sidecar-benchmark/v1";
/// `run_seconds` of BENCHMARK.json, for runs started by hand.
const DEFAULT_SECONDS: f64 = 15.0;
const QUICK_SECONDS: f64 = 2.0;

/// Which binary is running.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Binary {
    /// `bench`: no spans, the system allocator.
    Plain,
    /// `bench-trace`: spans and the counting allocator.
    Traced,
}

struct Options {
    workload: Option<Workload>,
    all: bool,
    seeds: Vec<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
    out: Option<PathBuf>,
    spec: PathBuf,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        seeds: Vec::new(),
        seconds: None,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
        spec: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                o.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--all" => o.all = true,
            "--seed" | "--seeds" => {
                for s in value("a seed")?.split(',') {
                    o.seeds
                        .push(s.parse().map_err(|_| format!("{s} is not a seed"))?);
                }
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => o.quick = true,
            "--out-dir" => o.out_dir = PathBuf::from(value("a directory")?),
            "--out" => o.out = Some(PathBuf::from(value("a file")?)),
            "--spec" => o.spec = PathBuf::from(value("a file")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

/// Entry point of both binaries.
pub fn main(binary: Binary) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(|o| run_command(binary, &o, &args)),
        Some("compare") => parse_options(&args[1..]).and_then(|o| compare_command(&o)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn run_command(binary: Binary, o: &Options, raw_args: &[String]) -> Result<ExitCode, String> {
    if !o.positional.is_empty() {
        return Err(format!("unexpected argument {}\n{USAGE}", o.positional[0]));
    }
    if o.trace && binary == Binary::Plain {
        // Same arguments, the binary that can trace.
        let status = Command::new(sibling("bench-trace")?)
            .args(raw_args)
            .status()
            .map_err(|e| format!("cannot start bench-trace: {e}"))?;
        return Ok(ExitCode::from(status.code().unwrap_or(1) as u8));
    }
    let seconds = o.seconds.unwrap_or(if o.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if o.all {
        return run_all(o, seconds);
    }
    let workload = o
        .workload
        .ok_or_else(|| format!("--workload or --all\n{USAGE}"))?;
    let [seed] = o.seeds[..] else {
        return Err("run --workload takes exactly one --seed".into());
    };
    let args = RunArgs {
        workload,
        seed,
        seconds,
        quick: o.quick,
        traced: binary == Binary::Traced,
        out_dir: o.out_dir.clone(),
    };
    let mut outcome = workloads::run(&args);
    if args.traced {
        outcome.metrics.extend(probes::run_all());
    }
    let doc = document(&args, &mut outcome);
    let path = document_path(&args.out_dir, workload, args.traced);
    write_file(&path, &doc.render())?;
    print_run(&doc);
    Ok(ExitCode::SUCCESS)
}

fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    Ok(me.with_file_name(name))
}

/// Where a run's full document goes; the next run of the same kind
/// overwrites it.
fn document_path(out_dir: &Path, workload: Workload, traced: bool) -> PathBuf {
    let kind = if traced { "trace" } else { "e2e" };
    out_dir.join(format!("{}.{kind}.json", workload.name()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The full result document of one run. Completes the metric table: an
/// end-to-end metric a workload failed to produce is a correctness problem;
/// a per-layer metric a workload does not exercise reads 0.
fn document(args: &RunArgs, outcome: &mut Outcome) -> Json {
    let table: &[MetricSpec] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for spec in table {
        let found = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map(|(_, v)| *v);
        let value = match found {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                outcome.problems.push(format!("{} is {v}", spec.name));
                0.0
            }
            None if args.traced => 0.0,
            None => {
                outcome
                    .problems
                    .push(format!("{} was not measured", spec.name));
                0.0
            }
        };
        metrics.push((
            spec.name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(spec.unit))]),
        ));
    }
    let strings = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.traced)),
        ("quick", Json::Bool(args.quick)),
        (
            "correct",
            Json::Bool(outcome.problems.is_empty() && outcome.failed == 0),
        ),
        ("valid", Json::Bool(outcome.invalid.is_empty())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("problems", strings(&outcome.problems)),
        ("invalid", strings(&outcome.invalid)),
        ("metrics", Json::Obj(metrics)),
        (
            "detail",
            Json::Obj(
                outcome
                    .detail
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("env", env::describe()),
    ])
}

/// Prints one run: every metric as `name unit value`, complaints on
/// standard error, and last the one-line result the driver reads.
fn print_run(doc: &Json) {
    let text = |key: &str| doc.get(key).and_then(Json::as_str).unwrap_or("?");
    let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "# {} seed={} seconds={} trace={} quick={}",
        text("workload"),
        num("seed"),
        num("seconds"),
        doc.get("trace").and_then(Json::as_bool).unwrap_or(false) as u8,
        doc.get("quick").and_then(Json::as_bool).unwrap_or(false),
    );
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    for (name, m) in metrics {
        println!(
            "{name} {} {}",
            m.get("unit").and_then(Json::as_str).unwrap_or("?"),
            m.get("value").map_or_else(|| "?".into(), Json::render)
        );
    }
    for key in ["problems", "invalid"] {
        for line in doc.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            eprintln!(
                "{} {key}: {}",
                text("workload"),
                line.as_str().unwrap_or("?")
            );
        }
    }
    let result = Json::obj(
        ["correct", "attempted", "failed", "metrics"]
            .map(|k| (k, doc.get(k).cloned().unwrap_or(Json::Null))),
    );
    println!("{}", result.render());
}

/// One child process per workload and seed, so `peak_rss_mb` and every
/// cache start fresh; then every metric of every run, and one document.
fn run_all(o: &Options, seconds: f64) -> Result<ExitCode, String> {
    let seeds: &[u64] = if o.seeds.is_empty() { &[1] } else { &o.seeds };
    let me = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for &seed in seeds {
        for workload in Workload::ALL {
            let mut child = Command::new(&me);
            child
                .args(["run", "--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&o.out_dir);
            if o.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", me.display()))?;
            if !status.success() {
                return Err(format!(
                    "{} seed {seed} exited with {status}",
                    workload.name()
                ));
            }
            let path = document_path(&o.out_dir, workload, o.trace);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            all_correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
            runs.push(doc);
        }
    }
    let doc = Json::obj([("schema", Json::str(SCHEMA)), ("runs", Json::Arr(runs))]);
    let text = doc.render();
    if let Some(path) = &o.out {
        write_file(path, &text)?;
    }
    println!("{text}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_command(o: &Options) -> Result<ExitCode, String> {
    let [a, b] = &o.positional[..] else {
        return Err(format!("compare takes two documents\n{USAGE}"));
    };
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let rules = rules_from_spec(&load(&o.spec)?)?;
    let set_a = RunSet::from_document(&load(Path::new(a))?).map_err(|e| format!("{a}: {e}"))?;
    let set_b = RunSet::from_document(&load(Path::new(b))?).map_err(|e| format!("{b}: {e}"))?;
    let comparison = compare(&rules, &set_a, &set_b);
    print!("{}", comparison.render(&rules));
    for (path, set) in [(a, &set_a), (b, &set_b)] {
        if set.skipped_invalid > 0 {
            println!("{path}: {} invalid runs left out", set.skipped_invalid);
        }
    }
    Ok(if comparison.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
