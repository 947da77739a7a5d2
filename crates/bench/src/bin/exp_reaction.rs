//! Causal packet-lifecycle analysis: quACK→retx reaction attribution.
//!
//! Runs a seeded lossy-subpath scenario for each of the three protocols
//! with the flight-recorder ring sized to hold the full run, reconstructs
//! per-packet timelines from the merged event ring, and reports:
//!
//! - **completeness** — every data packet's causal timeline is checked
//!   (`check_causal`), or truncation is reported explicitly;
//! - **loss attribution** — drops bucketed by the (node, iface) segment
//!   that lost them, named per the scenario topology;
//! - **reaction latency** — quACK decode-missing → retransmission, p50/p99
//!   per protocol. The retx proxy reacts in-network (decode → proxy retx on
//!   the same packet); ccd and ack-reduction react end-to-end (decode at
//!   the server → e2e retx of the same data unit under a new packet
//!   number).
//!
//! `exp_reaction --explain <flow>:<seq>` (or `explain <flow>:<seq>`)
//! prints the human-readable timeline of one packet from the seeded run;
//! `--proto retx|ccd|ackred` selects which scenario to reconstruct
//! (default retx). Control datagrams use `ctrl:<flow>:<seq>`.

use sidecar_bench::{BenchReport, RunObs, Table};
use sidecar_netsim::link::LossModel;
use sidecar_obs::{Lifecycle, MetricsRegistry, TraceId};
use sidecar_proto::protocols::ack_reduction::AckReductionScenario;
use sidecar_proto::protocols::ccd::CcdScenario;
use sidecar_proto::protocols::retx::RetxScenario;
use sidecar_proto::protocols::ScenarioReport;

const SEED: u64 = 42;
/// Ring capacity for analysis runs: a full 2 000-packet scenario emits
/// well under 2^20 lifecycle events, so nothing is evicted.
const TRACE_CAP: usize = 1 << 20;

/// 250 µs reaction-latency buckets out to 500 ms, overflow beyond. Fine
/// enough that linear interpolation inside a bucket stays honest for the
/// ms-scale reactions these scenarios produce.
fn latency_bounds() -> Vec<u64> {
    (1..=2_000u64).map(|i| i * 250_000).collect()
}

struct ProtoRun {
    name: &'static str,
    mechanism: &'static str,
    lifecycle: Lifecycle,
    latencies: Vec<u64>,
    report: ScenarioReport,
}

fn run_retx() -> ProtoRun {
    // The §2.3 geometry: clean edges around a 2%-lossy subpath between the
    // proxies. Defaults already model it; only the ring capacity is raised.
    let scenario = RetxScenario {
        trace_capacity: Some(TRACE_CAP),
        ..RetxScenario::default()
    };
    let report = scenario.run_sidecar(SEED);
    let lifecycle = Lifecycle::from_trace(&report.trace);
    let latencies = lifecycle.proxy_reaction_latencies();
    ProtoRun {
        name: "retx",
        mechanism: "in-network (proxy retx)",
        lifecycle,
        latencies,
        report,
    }
}

fn run_ccd() -> ProtoRun {
    // The server's quACK consumer mirrors the upstream segment, so the
    // reaction chain (decode-missing → e2e retx) only fires for upstream
    // losses; make that segment lossy on top of the default lossy
    // downstream.
    let mut scenario = CcdScenario {
        trace_capacity: Some(TRACE_CAP),
        ..CcdScenario::default()
    };
    scenario.upstream.loss = LossModel::Bernoulli { p: 0.01 };
    let report = scenario.run_sidecar(SEED);
    let lifecycle = Lifecycle::from_trace(&report.trace);
    let latencies = lifecycle.e2e_reaction_latencies();
    ProtoRun {
        name: "ccd",
        mechanism: "e2e (quACK-informed)",
        lifecycle,
        latencies,
        report,
    }
}

fn run_ackred() -> ProtoRun {
    // Same reasoning as ccd: the proxied (quACKed) segment is upstream.
    let mut scenario = AckReductionScenario {
        trace_capacity: Some(TRACE_CAP),
        ..AckReductionScenario::default()
    };
    scenario.upstream.loss = LossModel::Bernoulli { p: 0.01 };
    let report = scenario.run_sidecar(SEED);
    let lifecycle = Lifecycle::from_trace(&report.trace);
    let latencies = lifecycle.e2e_reaction_latencies();
    ProtoRun {
        name: "ackred",
        mechanism: "e2e (quACK-informed)",
        lifecycle,
        latencies,
        report,
    }
}

fn run_proto(name: &str) -> ProtoRun {
    match name {
        "retx" => run_retx(),
        "ccd" => run_ccd(),
        "ackred" => run_ackred(),
        other => {
            eprintln!("unknown --proto {other:?} (expected retx, ccd, or ackred)");
            std::process::exit(2);
        }
    }
}

/// Names the directed link behind a (node, iface) drop site for the
/// scenario topologies (linear chains, connected in order).
fn segment_name(proto: &str, node: u32, iface: u32) -> String {
    let chain: &[&str] = match proto {
        "retx" => &["server", "proxy_a", "proxy_b", "client"],
        _ => &["server", "proxy", "client"],
    };
    let n = node as usize;
    // connect(a, b) assigns the next iface on each side, so on interior
    // nodes iface 0 points back toward the server and iface 1 forward
    // toward the client; endpoints only have iface 0.
    let peer = if n == 0 {
        1
    } else if iface == 0 {
        n - 1
    } else {
        n + 1
    };
    match (chain.get(n), chain.get(peer)) {
        (Some(a), Some(b)) => format!("{a}->{b}"),
        _ => format!("node{node}/iface{iface}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let proto = args
        .iter()
        .position(|a| a == "--proto")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "retx".to_string());
    let explain_target = args
        .iter()
        .position(|a| a == "--explain" || a == "explain")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("--explain needs a <flow>:<seq> or ctrl:<flow>:<seq> argument");
                    std::process::exit(2);
                })
                .clone()
        });

    if let Some(target) = explain_target {
        let id = TraceId::parse(&target).unwrap_or_else(|e| {
            eprintln!("bad trace id {target:?}: {e}");
            std::process::exit(2);
        });
        let run = run_proto(&proto);
        println!(
            "# {} scenario, seed {SEED} ({} events across {} timelines)",
            run.name,
            run.lifecycle
                .timelines()
                .map(|t| t.steps.len())
                .sum::<usize>(),
            run.lifecycle.len(),
        );
        print!("{}", run.lifecycle.explain(id));
        return;
    }

    println!("exp_reaction: quACK→retx reaction attribution (seed {SEED})\n");
    let runs = [run_retx(), run_ccd(), run_ackred()];

    let mut report = BenchReport::new("exp_reaction");
    let bounds = latency_bounds();
    let registry = MetricsRegistry::new();
    let names: [&'static str; 3] = ["reaction.retx_ns", "reaction.ccd_ns", "reaction.ackred_ns"];

    // -- completeness -----------------------------------------------------
    println!("## timeline completeness");
    for run in &runs {
        let total = run.lifecycle.data_timelines().count();
        if run.lifecycle.is_complete() {
            match run.lifecycle.check_causal() {
                Ok(()) => {
                    let in_flight = run.lifecycle.in_flight_at_end();
                    let cutoff = if in_flight > 0 {
                        format!(" ({in_flight} on the wire at sim cutoff)")
                    } else {
                        String::new()
                    };
                    println!(
                        "  {:<7} causal timelines complete: {total}/{total} (100%){cutoff}",
                        run.name
                    );
                }
                Err(e) => println!("  {:<7} CAUSAL VIOLATION: {e}", run.name),
            }
        } else {
            println!(
                "  {:<7} ring truncated ({} records evicted): completeness not claimed",
                run.name,
                run.lifecycle.dropped_records()
            );
        }
        report.push(
            "timelines",
            &[("protocol", run.name)],
            total as f64,
            "count",
        );
        report.push(
            "trace_evicted",
            &[("protocol", run.name)],
            run.lifecycle.dropped_records() as f64,
            "count",
        );
        report.push(
            "causal_ok",
            &[("protocol", run.name)],
            (run.lifecycle.is_complete() && run.lifecycle.check_causal().is_ok()) as u64 as f64,
            "bool",
        );
    }

    // -- loss attribution -------------------------------------------------
    println!("\n## drop attribution by subpath segment (data packets)");
    for run in &runs {
        let segments = run.lifecycle.drop_segments();
        if segments.is_empty() {
            println!("  {:<7} no drops recorded", run.name);
        }
        for (&(node, iface), &count) in &segments {
            let segment = segment_name(run.name, node, iface);
            println!("  {:<7} {segment:<18} {count} drops", run.name);
            report.push(
                "drops",
                &[("protocol", run.name), ("segment", &segment)],
                count as f64,
                "count",
            );
        }
    }

    // -- reaction latency -------------------------------------------------
    let mut table = Table::new(&["protocol", "mechanism", "samples", "p50", "p99", "mean"]);
    for (run, name) in runs.iter().zip(names) {
        for &ns in &run.latencies {
            registry.observe(name, &bounds, ns);
        }
    }
    let snap = registry.snapshot();
    for (run, name) in runs.iter().zip(names) {
        let hist = snap.histogram(name);
        let (p50, p99) = hist.map(|h| (h.p50(), h.p99())).unwrap_or((None, None));
        let mean = (!run.latencies.is_empty())
            .then(|| run.latencies.iter().sum::<u64>() as f64 / run.latencies.len() as f64);
        let fmt_ms =
            |v: Option<f64>| v.map_or_else(|| "-".to_string(), |ns| format!("{:.2} ms", ns / 1e6));
        table.row(&[
            run.name.to_string(),
            run.mechanism.to_string(),
            run.latencies.len().to_string(),
            fmt_ms(p50),
            fmt_ms(p99),
            fmt_ms(mean),
        ]);
        report.push(
            "reaction_samples",
            &[("protocol", run.name)],
            run.latencies.len() as f64,
            "count",
        );
        for (stat, value) in [("p50", p50), ("p99", p99), ("mean", mean)] {
            if let Some(ns) = value {
                report.push(
                    "reaction_latency",
                    &[("protocol", run.name), ("stat", stat)],
                    ns,
                    "ns",
                );
            }
        }
    }
    println!("\n## quACK decode-missing → retransmission reaction latency");
    table.print();
    println!(
        "\nhint: `exp_reaction --explain <flow>:<seq> [--proto retx|ccd|ackred]` \
         prints one packet's timeline"
    );

    report.write_default().expect("write bench report");
    let mut obs = RunObs::default();
    for run in &runs {
        obs.add(&run.report.metrics, &run.report.trace);
    }
    obs.write_out("exp_reaction");
}
