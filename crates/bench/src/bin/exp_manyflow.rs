//! **Extension (§4.2)**: many-flow scaling of one sidecar vantage point.
//!
//! The paper argues the quACK keeps *per-connection* state tiny; this
//! experiment checks the claim at three altitudes:
//!
//! 1. **End to end** — for each Table-1 protocol and N ∈ {1, 8, 64, 256}
//!    one proxy serves N concurrent flows through a bounded, sharded flow
//!    table; reported: completions, aggregate goodput, residual occupancy,
//!    evictions. The 256-flow point deliberately exceeds the table's
//!    128-session capacity so LRU/idle eviction is exercised, not just
//!    configured. A 1 000-flow ACK-reduction leg additionally runs with the
//!    flight recorder on and **causally certifies** every packet lifecycle
//!    (the quick variant of the nightly soak's 100k leg).
//! 2. **Flow-engine sweep** — for each protocol's session shape and
//!    N ∈ {1k, 10k, 100k} the slab table (DESIGN §14) under pure table
//!    load: ns per fill insert and per warmed lookup, inserts/s and
//!    eviction volume when the same population is forced through a
//!    quarter-sized table, and measured bytes/flow. The perf gate holds the
//!    three `manyflow_inserts_per_sec|flows=100000|proto=*` cells to their
//!    calibrated baselines.
//! 3. **Decode hot path** — ns per quACK when K flows' consumer state
//!    lives behind a flow-table lookup.
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin exp_manyflow`
//! (`--quick` trims the sweep to 1k/10k for the CI smoke leg — the 100k
//! headline cell is produced by the full run in the perf job; add
//! `--metrics-out` to also dump the flowtable.* counters).

use sidecar_bench::{calibration_ops_per_sec, per_item_nanos, BenchReport, RunObs, Table};
use sidecar_galois::Fp32;
use sidecar_netsim::link::LinkConfig;
use sidecar_netsim::packet::FlowId;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_obs::Lifecycle;
use sidecar_proto::protocols::manyflow::{ManyFlowProtocol, ManyFlowScenario};
use sidecar_proto::{FlowTable, FlowTableConfig, QuackConsumer, QuackProducer, SidecarConfig};
use std::process::ExitCode;
use std::time::Instant;

const FLOW_COUNTS: [u32; 4] = [1, 8, 64, 256];
/// 8 shards × 16 sessions: the 256-flow point overcommits the table 2×.
const TABLE: FlowTableConfig = FlowTableConfig {
    shards: 8,
    per_shard: 16,
    idle_timeout: SimDuration::from_secs(2),
};
/// Flow-engine sweep sizes (full run; `--quick` drops the 100k point).
const SWEEP_FULL: [usize; 3] = [1_000, 10_000, 100_000];
const SWEEP_QUICK: [usize; 2] = [1_000, 10_000];
/// Flight-recorder ring for the certified 1k leg (must hold every record).
const TRACE_CAP: usize = 1 << 21;

fn scenario(protocol: ManyFlowProtocol, flows: u32) -> ManyFlowScenario {
    let mut s = ManyFlowScenario::new(protocol, flows);
    s.packets_per_flow = (4_096 / flows as u64).max(16);
    s.table = TABLE;
    s
}

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// One flow's producer/consumer pair (the CCD proxy's session shape, also
/// used by the decode microbench).
struct BenchSession {
    producer: QuackProducer<Fp32>,
    consumer: QuackConsumer<Fp32>,
}

/// One flow-engine sweep point: the slab table's per-operation costs,
/// memory and eviction behavior.
struct SweepPoint {
    /// ns per insert, fresh `sized_for` table.
    fill_ns: f64,
    /// ns per warmed lookup.
    lookup_ns: f64,
    /// ns per insert under LRU pressure — the population cycled through a
    /// quarter-sized table, so most inserts also evict.
    churn_ns: f64,
    /// Measured slab arena bytes per resident flow.
    bytes_per_flow: usize,
    /// Capacity evictions the churn phase performed (overcommit must shed,
    /// not stall).
    overcommit_evictions: u64,
}

/// Times inserting, re-looking-up, and churning `flows` distinct sessions.
/// Timestamps increase monotonically (as sim time does), so the table
/// exercises its real LRU bookkeeping.
fn sweep_point<S>(flows: usize, mk: impl Fn() -> S) -> SweepPoint {
    let idle = SimDuration::from_secs(3_600);
    let cfg = FlowTableConfig::sized_for(flows, idle);

    let mut slab: FlowTable<S> = FlowTable::new(cfg);
    let start = Instant::now();
    for f in 1..=flows as u32 {
        slab.ensure_slot(FlowId(f), t(f as u64), &mk, |_, _| {});
    }
    let fill_ns = per_item_nanos(start.elapsed(), flows);
    assert_eq!(slab.len(), flows, "sized_for must hold the population");
    let bytes_per_flow = slab.bytes_per_flow();
    let start = Instant::now();
    for f in 1..=flows as u32 {
        let hit = slab
            .get_mut(FlowId(f), t(flows as u64 + f as u64))
            .is_some();
        assert!(hit);
    }
    let lookup_ns = per_item_nanos(start.elapsed(), flows);
    drop(slab);

    // Churn: the same population through a table sized for a quarter of
    // it — once the table fills, every insert is also an LRU eviction.
    // This is the steady state of an overcommitted vantage point.
    let over_cfg = FlowTableConfig::sized_for((flows / 4).max(64), idle);
    let mut over: FlowTable<S> = FlowTable::new(over_cfg);
    let start = Instant::now();
    for f in 1..=flows as u32 {
        over.ensure_slot(FlowId(f), t(f as u64), &mk, |_, _| {});
    }
    let churn_ns = per_item_nanos(start.elapsed(), flows);
    let overcommit_evictions = over.take_stats().map(|s| s.evicted_capacity).unwrap_or(0);

    SweepPoint {
        fill_ns,
        lookup_ns,
        churn_ns,
        bytes_per_flow,
        overcommit_evictions,
    }
}

/// The quick variant of the soak's 100k leg: a 1 000-flow lossless
/// ACK-reduction run with the flight recorder on. Every flow must
/// complete, the table must shed nothing, and the whole packet population
/// must causally certify. Returns false (and prints why) on violation.
fn certified_1k_leg(report: &mut BenchReport, obs: &mut RunObs) -> bool {
    const FLOWS: u32 = 1_000;
    let mut s = ManyFlowScenario::new(ManyFlowProtocol::AckReduction, FLOWS);
    s.packets_per_flow = 8;
    s.table = FlowTableConfig::sized_for(FLOWS as usize, SimDuration::from_secs(300));
    // Provisioned lossless: the N-flow slow-start burst (8k packets) must
    // fit the queues, and nothing may idle out inside the horizon.
    s.trunk = LinkConfig {
        rate_bps: 2_000_000_000,
        delay: SimDuration::from_millis(25),
        queue_packets: 16_384,
        ..LinkConfig::default()
    };
    s.edge = LinkConfig {
        rate_bps: 2_000_000_000,
        delay: SimDuration::from_millis(2),
        queue_packets: 16_384,
        ..s.edge
    };
    s.trace_capacity = Some(TRACE_CAP);
    let r = s.run();
    obs.add(&r.metrics, &r.trace);
    let lifecycle = Lifecycle::from_trace(&r.trace);
    let mut ok = true;
    if r.completed != FLOWS {
        println!("certified-1k: only {}/{FLOWS} flows completed", r.completed);
        ok = false;
    }
    if r.evictions() != 0 {
        println!(
            "certified-1k: sized-for table evicted {} sessions on a lossless run",
            r.evictions()
        );
        ok = false;
    }
    if !lifecycle.is_complete() {
        println!(
            "certified-1k: ring truncated ({} records dropped)",
            lifecycle.dropped_records()
        );
        ok = false;
    } else if let Err(e) = lifecycle.check_causal() {
        println!("certified-1k: CAUSAL VIOLATION: {e}");
        ok = false;
    }
    let params = [("flows", "1000")];
    report.push(
        "certified_completed",
        &params,
        f64::from(r.completed),
        "flows",
    );
    report.push(
        "certified_lifecycles",
        &params,
        if ok { 1.0 } else { 0.0 },
        "count",
    );
    println!(
        "certified-1k: {}/{FLOWS} flows completed, lifecycle certification {}",
        r.completed,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

/// Mean decode cost (ns/quACK) with K flows' consumer state muxed behind
/// the flow table, quacks processed in round-robin interleaving so every
/// lookup crosses flows the way a real vantage point would.
fn decode_cost(flows: u32, rounds: usize) -> f64 {
    let cfg = SidecarConfig::paper_default();
    let mut table: FlowTable<BenchSession> = FlowTable::new(FlowTableConfig {
        shards: 8,
        per_shard: ((flows as usize) / 8 + 1).max(16),
        idle_timeout: SimDuration::from_secs(3_600),
    });
    let now = SimTime::ZERO;
    for f in 1..=flows {
        table.get_or_insert_with(FlowId(f), now, || BenchSession {
            producer: QuackProducer::new(cfg),
            consumer: QuackConsumer::new(cfg, SimDuration::from_millis(10)),
        });
    }
    // Interleaved traffic: 16 packets per flow per round, one id stream
    // per flow (simple deterministic LCG), then one quACK per flow.
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut id = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed >> 16
    };
    let mut quacks = 0usize;
    let start = Instant::now();
    for round in 0..rounds {
        for pkt in 0..16u64 {
            for f in 1..=flows {
                let session = table.get_mut(FlowId(f), now).expect("inserted above");
                let pid = id();
                let tag = round as u64 * 16 + pkt;
                session.consumer.record_sent(pid, tag, now);
                session.producer.observe(pid);
            }
        }
        for f in 1..=flows {
            let session = table.get_mut(FlowId(f), now).expect("inserted above");
            let msg = session.producer.emit();
            if let sidecar_proto::SidecarMessage::Quack { epoch, bytes } = msg {
                let _ = session.consumer.process_quack(now, epoch, &bytes);
                quacks += 1;
            }
        }
    }
    per_item_nanos(start.elapsed(), quacks.max(1))
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "many-flow extension: one sidecar proxy serves N concurrent flows \
         through an {}x{} flow table (idle timeout {:?}); 256 flows \
         overcommit it 2x so eviction is load-bearing{}\n",
        TABLE.shards,
        TABLE.per_shard,
        TABLE.idle_timeout,
        if quick { " [--quick]" } else { "" }
    );
    let mut report = BenchReport::new("exp_manyflow");
    let mut obs = RunObs::default();
    let mut table = Table::new(&[
        "protocol",
        "flows",
        "completed",
        "agg goodput (Mbit/s)",
        "slowest FCT (s)",
        "sidecar msgs",
        "live at end",
        "evictions",
    ]);
    for protocol in [
        ManyFlowProtocol::Retx,
        ManyFlowProtocol::AckReduction,
        ManyFlowProtocol::CongestionDivision,
    ] {
        for flows in FLOW_COUNTS {
            let r = scenario(protocol, flows).run();
            obs.add(&r.metrics, &r.trace);
            let evictions = r.evictions();
            let fs = flows.to_string();
            let params = [("protocol", protocol.label()), ("flows", fs.as_str())];
            report.push("completed", &params, f64::from(r.completed), "flows");
            report.push("aggregate_goodput", &params, r.aggregate_goodput_bps, "bps");
            report.push("slowest_fct", &params, r.slowest_completion_secs, "s");
            report.push(
                "sidecar_messages",
                &params,
                r.sidecar_messages as f64,
                "count",
            );
            report.push(
                "live_flows_at_end",
                &params,
                r.live_flows_at_end as f64,
                "count",
            );
            report.push("evictions", &params, evictions as f64, "count");
            table.row(&[
                protocol.label().into(),
                fs,
                format!("{}/{}", r.completed, r.flows),
                format!("{:.1}", r.aggregate_goodput_bps / 1e6),
                if r.slowest_completion_secs.is_finite() {
                    format!("{:.2}", r.slowest_completion_secs)
                } else {
                    "∞".into()
                },
                r.sidecar_messages.to_string(),
                r.live_flows_at_end.to_string(),
                evictions.to_string(),
            ]);
        }
    }
    table.print();

    println!("\ncertified 1k-flow leg (quick variant of the nightly 100k soak):");
    let certified = certified_1k_leg(&mut report, &mut obs);

    println!("\nflow-engine sweep: per-protocol session shapes, sized_for(N) tables:");
    let cfg = SidecarConfig::paper_default();
    let sweep: &[usize] = if quick { &SWEEP_QUICK } else { &SWEEP_FULL };
    let mut stable = Table::new(&[
        "protocol",
        "flows",
        "fill ns",
        "lookup ns",
        "churn Mins/s",
        "bytes/flow",
        "overcommit evictions",
    ]);
    for protocol in [
        ManyFlowProtocol::Retx,
        ManyFlowProtocol::AckReduction,
        ManyFlowProtocol::CongestionDivision,
    ] {
        for &flows in sweep {
            let point = match protocol {
                ManyFlowProtocol::CongestionDivision => sweep_point(flows, || BenchSession {
                    producer: QuackProducer::new(cfg),
                    consumer: QuackConsumer::new(cfg, SimDuration::from_millis(10)),
                }),
                _ => sweep_point(flows, || QuackProducer::<Fp32>::new(cfg)),
            };
            let fs = flows.to_string();
            let params = [("proto", protocol.label()), ("flows", fs.as_str())];
            // The 100k cells of this metric are the gated ones; the 1k
            // point's timed loops are microseconds long and too noisy.
            report.push(
                "manyflow_inserts_per_sec",
                &params,
                1e9 / point.churn_ns,
                "ops/s",
            );
            report.push("manyflow_fill_ns", &params, point.fill_ns, "ns");
            report.push("manyflow_lookup_ns", &params, point.lookup_ns, "ns");
            report.push(
                "manyflow_bytes_per_flow",
                &params,
                point.bytes_per_flow as f64,
                "B/flow",
            );
            report.push(
                "manyflow_overcommit_evictions",
                &params,
                point.overcommit_evictions as f64,
                "count",
            );
            stable.row(&[
                protocol.label().into(),
                fs,
                format!("{:.0}", point.fill_ns),
                format!("{:.0}", point.lookup_ns),
                format!("{:.2}", 1e3 / point.churn_ns),
                point.bytes_per_flow.to_string(),
                point.overcommit_evictions.to_string(),
            ]);
        }
    }
    stable.print();

    println!("\ndecode hot path, K flows muxed behind the flow table:");
    let mut dtable = Table::new(&["flows", "ns/quACK"]);
    for flows in FLOW_COUNTS {
        // Same total quACK count per point so timings are comparable
        // (quick mode quarters it).
        let budget = if quick { 128 } else { 512 };
        let rounds = (budget / flows as usize).max(2);
        let ns = decode_cost(flows, rounds);
        let fs = flows.to_string();
        report.push("decode_ns_per_quack", &[("flows", fs.as_str())], ns, "ns");
        dtable.row(&[fs, format!("{ns:.0}")]);
    }
    dtable.print();

    report.push("calibration", &[], calibration_ops_per_sec(), "ops/s");
    report
        .write_default()
        .expect("write BENCH_exp_manyflow.json");
    obs.write_out("exp_manyflow");
    println!(
        "\nreading: goodput should scale with N until the trunk saturates \
         while the proxy's resident sessions stay capped at the table \
         capacity; at 256 flows evictions are nonzero by design and flows \
         still complete via end-to-end recovery plus re-handshake. The \
         flow-engine sweep's churn column at 100k flows is what the perf \
         gate holds to its baseline."
    );
    if certified {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
