//! `sim_manyflow` and `sim_churn`: the three Table-1 protocols muxing many
//! flows through one proxy tier in the deterministic simulator. `netsim`,
//! `sidecar::protocols` and (on `sim_manyflow`) `sidecar::auth` do all the
//! work here and `live` does none, so these are the bypass workloads for a
//! live-datapath change and the exercise workloads for an engine, flow-table
//! or auth change.

use super::{finish_trace, Outcome, RunArgs, AUTH_SECRET, SETUP_REPEATS};
use crate::gen::derive_seed;
use crate::json::Json;
use crate::procfs;
use crate::span::Tracer;
use crate::spec::Workload;
use crate::stats::{median, quartiles};
use sidecar_netsim::time::SimDuration;
use sidecar_netsim::transport::SenderConfig;
use sidecar_proto::protocols::manyflow::{ManyFlowProtocol, ManyFlowReport, ManyFlowScenario};
use sidecar_proto::{AuthConfig, FlowTableConfig};
use std::time::Instant;

const PROTOCOLS: [ManyFlowProtocol; 3] = [
    ManyFlowProtocol::Retx,
    ManyFlowProtocol::AckReduction,
    ManyFlowProtocol::CongestionDivision,
];

/// 8 shards of 16 sessions: 64 flows stay resident, 256 overcommit it 2x.
const TABLE: FlowTableConfig = FlowTableConfig {
    shards: 8,
    per_shard: 16,
    idle_timeout: SimDuration::from_secs(2),
};

/// Simulated time each scenario runs for. The slowest flow finishes after
/// ~35 simulated seconds; the world keeps simulating idle timers until the
/// horizon whether or not traffic is left, so a 300 s horizon would spend
/// more than half of every pass on an empty network.
const HORIZON: SimDuration = SimDuration::from_secs(80);
/// The set-up pass moves an eighth of the packets and needs far less time.
const SETUP_HORIZON: SimDuration = SimDuration::from_secs(20);
/// A run makes at least this many passes, however slow the machine.
const MIN_PASSES: usize = 3;

#[derive(Clone, Copy, Debug)]
struct Shape {
    flows: u32,
    /// Sized so one pass (all three protocols) takes about three seconds on
    /// two cores and a run holds several.
    packets_per_flow: u64,
    auth: bool,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        // Every flow resident: arrivals hit a live slot, and HMAC is close
        // to half the work.
        Workload::SimManyflow => Shape {
            flows: 64,
            packets_per_flow: 600,
            auth: true,
        },
        // The table used the other way round: every arrival may insert and
        // LRU-evict, evicted sessions re-handshake, auth is bypassed.
        Workload::SimChurn => Shape {
            flows: 256,
            packets_per_flow: 80,
            auth: false,
        },
        other => unreachable!("{other:?} is not a sim workload"),
    }
}

/// What the harness keeps of one scenario run. The report itself (with its
/// metrics snapshot and trace ring) is dropped at once, so the memory the
/// harness holds does not grow with the number of passes the clock allowed.
#[derive(Clone, Copy, Default)]
struct RunSummary {
    flows: u32,
    completed: u32,
    slowest_completion_secs: f64,
    aggregate_goodput_bps: f64,
    sidecar_messages: u64,
    evictions: u64,
    quacks_sent: u64,
}

impl From<ManyFlowReport> for RunSummary {
    fn from(r: ManyFlowReport) -> Self {
        RunSummary {
            flows: r.flows,
            completed: r.completed,
            slowest_completion_secs: r.slowest_completion_secs,
            aggregate_goodput_bps: r.aggregate_goodput_bps,
            sidecar_messages: r.sidecar_messages,
            evictions: r.evictions(),
            quacks_sent: r.metrics.counter("sidecar.sent.quack"),
        }
    }
}

/// One pass: the three protocols once each at one sub-seed.
struct Pass {
    wall_s: [f64; 3],
    reports: [RunSummary; 3],
}

impl Pass {
    fn total_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }
}

fn run_pass(
    shape: &Shape,
    seed: u64,
    packets_per_flow: u64,
    horizon: SimDuration,
    tracer: &mut Tracer,
) -> Pass {
    let mut wall_s = [0.0; 3];
    let mut reports = [RunSummary::default(); 3];
    let pass_span = tracer.enter("sim.pass", seed);
    for (i, protocol) in PROTOCOLS.into_iter().enumerate() {
        let mut scenario = ManyFlowScenario::new(protocol, shape.flows);
        scenario.packets_per_flow = packets_per_flow;
        scenario.table = TABLE;
        scenario.horizon = horizon;
        scenario.auth = shape.auth.then(|| AuthConfig::from_secret(AUTH_SECRET, 1));
        scenario.seed = seed;
        let span = tracer.enter(span_name(protocol), seed);
        let t0 = Instant::now();
        let report = scenario.run();
        wall_s[i] = t0.elapsed().as_secs_f64();
        tracer.exit(span);
        reports[i] = report.into();
    }
    tracer.exit(pass_span);
    Pass { wall_s, reports }
}

fn span_name(protocol: ManyFlowProtocol) -> &'static str {
    match protocol {
        ManyFlowProtocol::Retx => "sidecar.protocols.retx",
        ManyFlowProtocol::AckReduction => "sidecar.protocols.ackred",
        ManyFlowProtocol::CongestionDivision => "sidecar.protocols.ccd",
    }
}

/// Data units one pass delivers when every flow completes.
fn units_per_pass(shape: &Shape) -> u64 {
    shape.flows as u64 * shape.packets_per_flow * PROTOCOLS.len() as u64
}

/// Simulated-time results of one pass. They repeat exactly per seed, which
/// makes them a guard on protocol behaviour (compare two commits at one
/// seed and expect the same digits), and they swing by tens of percent from
/// seed to seed, which makes them useless as a bounded end-to-end metric.
struct Simulated {
    /// Harmonic-mean flow completion time, averaged over the protocols.
    typical_completion_s: f64,
    /// The slowest flow of the slowest protocol.
    slowest_completion_s: f64,
    goodput_mbps: f64,
}

fn simulated(shape: &Shape, pass: &Pass) -> Simulated {
    let flow_bits = shape.packets_per_flow as f64 * SenderConfig::default().mtu as f64 * 8.0;
    let typical: Vec<f64> = pass
        .reports
        .iter()
        .map(|r| r.completed as f64 * flow_bits / r.aggregate_goodput_bps)
        .collect();
    Simulated {
        typical_completion_s: typical.iter().sum::<f64>() / typical.len() as f64,
        slowest_completion_s: pass
            .reports
            .iter()
            .map(|r| r.slowest_completion_secs)
            .fold(0.0, f64::max),
        goodput_mbps: pass
            .reports
            .iter()
            .map(|r| r.aggregate_goodput_bps)
            .sum::<f64>()
            / 1e6,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let shape = shape(args.workload);
    let mut out = Outcome::default();
    // An untraced run gets a tracer with no room: spans cost a comparison.
    let mut tracer = Tracer::with_capacity(if args.traced { 1 << 12 } else { 0 });
    // Every pass simulates a different input drawn from the run's seed: how
    // much work a scenario is depends on how its losses fall, so a run that
    // averages over several inputs is steadier than one that repeats one.
    let sub_seed = |pass: usize| derive_seed(args.seed, pass as u64);

    let setups: Vec<f64> = if args.traced {
        Vec::new()
    } else {
        let repeats = if args.quick { 1 } else { SETUP_REPEATS };
        (0..repeats)
            .map(|i| {
                let warmup = shape.packets_per_flow / 8;
                run_pass(&shape, sub_seed(i), warmup, SETUP_HORIZON, &mut tracer).total_wall_s()
            })
            .collect()
    };

    let (budget_s, min_passes) = match (args.traced, args.quick) {
        // The traced run shares its time with the probes.
        (true, _) => (args.seconds * 0.6, 1),
        (false, true) => (0.0, 1),
        (false, false) => (args.seconds, MIN_PASSES),
    };
    let cpu0 = procfs::thread_cpu_ns();
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || t0.elapsed().as_secs_f64() < budget_s {
        passes.push(run_pass(
            &shape,
            sub_seed(passes.len()),
            shape.packets_per_flow,
            HORIZON,
            &mut tracer,
        ));
    }
    let cpu_ns = procfs::thread_cpu_ns() - cpu0;

    for pass in &passes {
        for r in &pass.reports {
            out.attempted += r.flows as u64;
            out.failed += (r.flows - r.completed) as u64;
        }
    }
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} flows did not complete"));

    let units = units_per_pass(&shape) as f64;
    let pass_walls: Vec<f64> = passes.iter().map(Pass::total_wall_s).collect();
    let pkts_per_s = units * passes.len() as f64 / pass_walls.iter().sum::<f64>();
    let cpu_ns_per_pkt = cpu_ns as f64 / (units * passes.len() as f64);
    // The operation a user waits for is one sweep of the three protocols.
    // A run holds a handful of them: no percentile above the median has ten
    // samples beyond it, so the median is also the highest tail this sample
    // supports, and `latency_p99_us` repeats it rather than report a
    // maximum that says more about which inputs were drawn than about time.
    let p50 = median(&pass_walls) * 1e6;
    let p99 = p50;
    // The first pass's input is fixed by the seed alone.
    let sim = simulated(&shape, &passes[0]);

    if args.traced {
        let first = &passes[0];
        let per_protocol =
            |i: usize| median(&passes.iter().map(|p| p.wall_s[i]).collect::<Vec<_>>());
        out.metric("traced.pkts_per_s", pkts_per_s);
        out.metric("traced.cpu_ns_per_pkt", cpu_ns_per_pkt);
        out.metric("traced.latency_p50_us", p50);
        out.metric("traced.latency_p99_us", p99);
        out.metric("sidecar.protocols.retx_pass_s", per_protocol(0));
        out.metric("sidecar.protocols.ackred_pass_s", per_protocol(1));
        out.metric("sidecar.protocols.ccd_pass_s", per_protocol(2));
        out.metric("sidecar.protocols.goodput_mbps", sim.goodput_mbps);
        // Counts of the first pass only: its sub-seed is fixed, so they
        // repeat exactly per seed however many passes followed.
        let sum = |f: fn(&RunSummary) -> u64| first.reports.iter().map(f).sum::<u64>() as f64;
        out.metric(
            "sidecar.ctrl_msgs_per_unit",
            sum(|r| r.sidecar_messages) / units,
        );
        out.metric(
            "sidecar.flows.evictions_per_unit",
            sum(|r| r.evictions) / units,
        );
        out.metric(
            "sidecar.retx.quacks_sent",
            first.reports[0].quacks_sent as f64,
        );
        finish_trace(&mut out, args, &tracer);
    } else {
        out.metric("setup_s", median(&setups));
        out.metric("pkts_per_s", pkts_per_s);
        out.metric("cpu_ns_per_pkt", cpu_ns_per_pkt);
        out.metric("latency_p50_us", p50);
        out.metric("latency_p99_us", p99);
        out.metric("peak_rss_mb", procfs::peak_rss_mb());
        out.detail("setup_s_samples", Json::nums(&setups));
    }
    out.detail("passes", Json::Num(passes.len() as f64));
    out.detail("units_per_pass", Json::Num(units));
    out.detail("packets_per_flow", Json::Num(shape.packets_per_flow as f64));
    out.detail("pass_wall_s_quartiles", Json::nums(&quartiles(&pass_walls)));
    out.detail(
        "first_pass_simulated",
        Json::obj([
            ("goodput_mbps", Json::Num(sim.goodput_mbps)),
            ("typical_completion_s", Json::Num(sim.typical_completion_s)),
            ("slowest_completion_s", Json::Num(sim.slowest_completion_s)),
        ]),
    );
    out
}
