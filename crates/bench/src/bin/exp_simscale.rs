//! **Engine scaling**: netsim event throughput at 1k → 1M concurrent
//! flows.
//!
//! The sidecar story is "one vantage point, many paranoid flows" (§3.3,
//! §4.2): every emulated experiment in this repo stands on the discrete-
//! event engine, so the engine's events/sec at high pending-event counts is
//! the scaling ceiling for the whole evaluation. The workload mirrors that
//! shape: F periodic flows, sharded over sender banks, all funneled through
//! one mid-path forwarding vantage and on across a paper-reference WAN
//! segment (30 ms one way, §4.3). Every flow keeps a timer pending and
//! every packet crosses two hops, so at F flows the queue holds ≈ 5F
//! events — the regime real 10k–1M-flow experiments put the scheduler in.
//!
//! The engine runs in its throughput configuration: calendar-queue
//! scheduling, pooled zero-alloc dispatch, pre-interned hot counters,
//! flight-recorder ring off. Two cells per flow count:
//!
//! * **events/sec** — wall-clock dispatch throughput of the steady-state
//!   loop (timer fires + two arrival hops per packet), after a warmup that
//!   reaches the zero-alloc plateau and a full in-flight population. The
//!   CI perf gate holds the `flows = 100k` cell to its calibrated baseline.
//! * **wall sec / sim sec** — how much real time one simulated second costs
//!   at each scale (the number an experiment author budgets with).
//!
//! Flow timers are staggered uniformly across the 10 ms period, so wheel
//! slots fill evenly. Each cell is measured best-of-3 (fresh world per rep)
//! to shed scheduler-independent machine noise.
//!
//! Results go to stdout (table) and `BENCH_exp_simscale.json`
//! (`sidecar-bench/v1`; gated against `bench/baseline.json` by `perf_gate`).
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin exp_simscale`
//! (`--quick` caps the sweep at 10k flows with smaller windows — the CI
//! smoke leg; `--metrics-out` dumps the obs registry as usual).

use sidecar_bench::{calibration_ops_per_sec, BenchReport, Table};
use sidecar_netsim::link::LinkConfig;
use sidecar_netsim::node::{Context, IfaceId, Node};
use sidecar_netsim::packet::{FlowId, Packet};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::world::World;
use std::any::Any;
use std::time::Instant;

/// Pulse-node count: flows are sharded over this many sender nodes so the
/// per-node timer maps stay realistic (one bank serves many flows, not one
/// node per flow).
const BANKS: u32 = 8;
/// Per-flow send period — every flow keeps exactly one timer pending.
const PERIOD: SimDuration = SimDuration::from_millis(10);
/// Bank → vantage access-segment delay.
const ACCESS_DELAY: SimDuration = SimDuration::from_millis(10);
/// Vantage → sink WAN delay: the paper's §4.3 reference segment (60 ms
/// RTT), one way. In-flight packets are pending arrival events, so this is
/// what fills the queue to experiment-realistic depth.
const WAN_DELAY: SimDuration = SimDuration::from_millis(30);
/// Fresh-world reps per cell; the cell reports the fastest.
const REPS: usize = 3;

/// One sender node owning `flows` flows: each flow is an independent
/// periodic timer (token = local flow index) that emits one heap-free
/// 1200-byte packet per fire and re-arms itself.
struct PulseBank {
    first_flow: u64,
    flows: u64,
    total_flows: u64,
    seq: u64,
}

impl Node for PulseBank {
    fn on_start(&mut self, ctx: &mut Context) {
        // Stagger first fires uniformly across one period so the pending
        // set spreads over wheel slots evenly.
        for i in 0..self.flows {
            let offset = PERIOD.as_nanos() * (self.first_flow + i) / self.total_flows;
            ctx.set_timer_at(SimTime::ZERO + SimDuration::from_nanos(offset + 1), i);
        }
    }

    fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        let flow = FlowId((self.first_flow + token) as u32);
        let pkt = Packet::data(flow, self.seq, self.seq * 31 + 7, 1200, ctx.now());
        debug_assert!(pkt.is_heap_free());
        ctx.send(IfaceId(0), pkt);
        self.seq += 1;
        ctx.set_timer_after(PERIOD, token);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The mid-path vantage: forwards every arrival out its WAN interface —
/// the structural seat a sidecar occupies, reduced to pure engine work.
struct Vantage;

impl Node for Vantage {
    fn on_packet(&mut self, _iface: IfaceId, packet: Packet, ctx: &mut Context) {
        ctx.send(IfaceId(0), packet);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Swallows every arrival (the measurement is the engine, not a protocol).
struct Drain;

impl Node for Drain {
    fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One measured cell.
struct Cell {
    flows: u64,
    pending: usize,
    events_per_sec: f64,
    wall_per_sim: f64,
}

/// Builds the F-flow two-hop world, warms it past the capacity plateau and
/// a full in-flight population, then measures `measure_events` dispatches.
/// Returns (events/sec, wall-per-sim, pending).
fn run_once(flows: u64, measure_events: u64) -> (f64, f64, usize) {
    let mut w = World::new(0x51D3_CA1E ^ flows);
    // Throughput configuration: the diagnostics ring off. Hot counters stay
    // on — they are part of the engine.
    w.obs_mut().trace.set_enabled(false);
    let sink = w.add_node(Box::new(Drain));
    let mid = w.add_node(Box::new(Vantage));
    // Link rates are set so serialization never queues: the workload
    // exercises the scheduler, not the drop-tail model.
    let access = LinkConfig {
        rate_bps: 1_000_000_000_000,
        delay: ACCESS_DELAY,
        queue_packets: 1 << 20,
        ..LinkConfig::default()
    };
    let wan = LinkConfig {
        rate_bps: 1_000_000_000_000,
        delay: WAN_DELAY,
        queue_packets: 1 << 20,
        ..LinkConfig::default()
    };
    // Vantage iface 0 = WAN toward the sink (connected first).
    w.connect(mid, sink, wan.clone(), wan);
    let per_bank = flows / BANKS as u64;
    for b in 0..BANKS as u64 {
        let extra = if b == BANKS as u64 - 1 {
            flows - per_bank * BANKS as u64
        } else {
            0
        };
        let bank = w.add_node(Box::new(PulseBank {
            first_flow: b * per_bank,
            flows: per_bank + extra,
            total_flows: flows,
            seq: 0,
        }));
        w.connect(bank, mid, access.clone(), access.clone());
    }

    // Warmup: two full periods (every timer has fired and re-armed, slab /
    // slot / pool capacities at steady state) plus both hop delays (the
    // in-flight arrival population has reached its standing depth).
    w.run_until(SimTime::ZERO + PERIOD + PERIOD + ACCESS_DELAY + WAN_DELAY + PERIOD);
    let warm_events = w.events_processed();
    let warm_now = w.now();
    let pending = w.events_pending();

    let start = Instant::now();
    while w.events_processed() - warm_events < measure_events && w.step() {}
    let wall = start.elapsed().as_secs_f64();
    let events = w.events_processed() - warm_events;
    let sim = (w.now() - warm_now).as_nanos() as f64 / 1e9;
    assert!(events >= measure_events, "workload ran dry");
    (
        events as f64 / wall.max(1e-12),
        wall / sim.max(1e-12),
        pending,
    )
}

/// Best-of-[`REPS`] wrapper around [`run_once`].
fn run_cell(flows: u64, measure_events: u64) -> Cell {
    let mut best: Option<(f64, f64, usize)> = None;
    for _ in 0..REPS {
        let r = run_once(flows, measure_events);
        if best.is_none_or(|b| r.0 > b.0) {
            best = Some(r);
        }
    }
    let (events_per_sec, wall_per_sim, pending) = best.expect("at least one rep");
    Cell {
        flows,
        pending,
        events_per_sec,
        wall_per_sim,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `--flows a,b,c` overrides the sweep (ad-hoc profiling / CI shaping).
    let flow_counts: Vec<u64> = match args.iter().position(|a| a == "--flows") {
        Some(pos) => args
            .get(pos + 1)
            .expect("--flows needs a comma-separated list")
            .split(',')
            .map(|s| s.parse().expect("--flows values must be integers"))
            .collect(),
        None if quick => vec![1_000, 10_000],
        None => vec![1_000, 10_000, 100_000, 1_000_000],
    };
    println!(
        "Engine scaling: netsim events/sec by concurrent flows{}\n",
        if quick { " (quick)" } else { "" }
    );

    let mut report = BenchReport::new("exp_simscale");
    report.push("calibration", &[], calibration_ops_per_sec(), "ops/s");

    let mut table = Table::new(&["flows", "pending", "events/sec", "wall s / sim s"]);
    for &flows in &flow_counts {
        // At least one full re-fire of every flow (3 events per fire:
        // timer + two arrival hops), with a floor so small sweeps stay
        // measurable.
        let floor = if quick { 200_000 } else { 1_000_000 };
        let cell = run_cell(flows, (6 * flows).max(floor));
        table.row(&[
            cell.flows.to_string(),
            cell.pending.to_string(),
            format!("{:.2e}", cell.events_per_sec),
            format!("{:.4}", cell.wall_per_sim),
        ]);
        let flows = cell.flows.to_string();
        report.push(
            "events_per_sec",
            &[("flows", &flows)],
            cell.events_per_sec,
            "ops/s",
        );
        report.push(
            "wall_sec_per_sim_sec",
            &[("flows", &flows)],
            cell.wall_per_sim,
            "s/s",
        );
    }
    table.print();

    report
        .write_default()
        .expect("write BENCH_exp_simscale.json");
    sidecar_bench::write_metrics_out("exp_simscale");
    sidecar_bench::write_trace_out("exp_simscale");
}
