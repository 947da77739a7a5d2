//! Integration tests for the deterministic fault-injection layer
//! (`sidecar_netsim::fault`): scripted crashes, blackouts, and
//! control-channel mangling, all reproducible from `(topology, seed, plan)`.

use sidecar_netsim::fault::FaultPlan;
use sidecar_netsim::link::{LinkConfig, LinkStats};
use sidecar_netsim::node::{Context, IfaceId, NodeId};
use sidecar_netsim::packet::{FlowId, Packet, Payload};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{
    CcAlgorithm, ReceiverConfig, ReceiverNode, ReceiverStats, SenderConfig, SenderNode,
};
use sidecar_netsim::world::World;
use sidecar_netsim::{Forwarder, Node};
use std::any::Any;

const SEC: u64 = 1_000_000_000;

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// Sender ⇄ forwarder ⇄ receiver, the topology every protocol scenario
/// uses. 10 Mbps links keep multi-hundred-packet transfers running for a
/// second or more so mid-flow fault windows actually land mid-flow, and the
/// light random loss makes the world seed observable in traces.
fn chain_world(seed: u64, total: u64) -> (World, NodeId, NodeId, NodeId) {
    let mut w = World::new(seed);
    let s = w.add_node(SenderNode::boxed(SenderConfig {
        total_packets: Some(total),
        cc: CcAlgorithm::NewReno,
        ..SenderConfig::default()
    }));
    let fwd = w.add_node(Forwarder::boxed());
    let r = w.add_node(ReceiverNode::boxed(ReceiverConfig::default()));
    let link = LinkConfig {
        rate_bps: 10_000_000,
        delay: SimDuration::from_millis(10),
        loss: sidecar_netsim::link::LossModel::Bernoulli { p: 0.01 },
        ..LinkConfig::default()
    };
    w.connect(s, fwd, link.clone(), link.clone());
    w.connect(fwd, r, link.clone(), link);
    (w, s, fwd, r)
}

/// What a finished chain run leaves behind outside the flight recorder: the
/// clock, the event count, every link's tally (the sender's, the
/// forwarder's two, the receiver's) and the receiver's stats.
fn outcome(w: &World) -> (SimTime, u64, [LinkStats; 4], ReceiverStats) {
    let link = |node, iface| w.link_stats(NodeId(node), IfaceId(iface)).clone();
    let links = [link(0, 0), link(1, 0), link(1, 1), link(2, 0)];
    let receiver = w.node_as::<ReceiverNode>(NodeId(2)).stats().clone();
    (w.now(), w.events_processed(), links, receiver)
}

/// The rendered flight recorder, sized to hold a whole chain run.
fn recorded(w: &World) -> String {
    assert_eq!(w.obs().trace.dropped(), 0, "ring truncated");
    w.obs().trace.render()
}

/// How many `link_drop`s with `cause` the rendered `trace` charges to `node`.
fn link_drops(trace: &str, node: &str, cause: &str) -> u64 {
    let charged = format!(" link_drop {node} ");
    let wanted = |l: &&str| l.contains(&charged) && l.ends_with(cause);
    trace.lines().filter(wanted).count() as u64
}

/// Emits one fixed-body sidecar packet per millisecond plus one data packet,
/// so control faults have something to chew on while the data path stays
/// observable.
struct ControlBlaster {
    total: u64,
    sent: u64,
}

impl Node for ControlBlaster {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer_after(SimDuration::ZERO, 0);
    }

    fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context) {
        if self.sent < self.total {
            let now = ctx.now();
            ctx.send(
                IfaceId(0),
                Packet::sidecar(FlowId(0), 1, vec![0xAA; 16], 100, now),
            );
            ctx.send(
                IfaceId(0),
                Packet::data(FlowId(0), self.sent, self.sent * 13 + 1, 1200, now),
            );
            self.sent += 1;
            ctx.set_timer_after(SimDuration::from_millis(1), 0);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records every arrival's payload and timestamp.
#[derive(Default)]
struct RecordingSink {
    sidecar_bodies: Vec<Vec<u8>>,
    sidecar_times: Vec<SimTime>,
    data_count: u64,
}

impl Node for RecordingSink {
    fn on_packet(&mut self, _iface: IfaceId, packet: Packet, ctx: &mut Context) {
        match packet.payload {
            Payload::Sidecar { bytes, .. } => {
                self.sidecar_bodies.push(bytes);
                self.sidecar_times.push(ctx.now());
            }
            _ => self.data_count += 1,
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counts restarts delivered through the `on_restart` hook.
#[derive(Default)]
struct RestartCounter {
    restarts: u64,
    packets: u64,
}

impl Node for RestartCounter {
    fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {
        self.packets += 1;
    }

    fn on_restart(&mut self, _ctx: &mut Context) {
        self.restarts += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn blaster_to_sink(seed: u64, total: u64, plan: Option<FaultPlan>) -> (World, NodeId) {
    let mut w = World::new(seed);
    let src = w.add_node(Box::new(ControlBlaster { total, sent: 0 }));
    let dst = w.add_node(Box::new(RecordingSink::default()));
    w.connect(src, dst, LinkConfig::default(), LinkConfig::default());
    if let Some(plan) = plan {
        w.install_faults(plan);
    }
    (w, dst)
}

#[test]
fn identical_seed_and_plan_identical_traces() {
    let run = |seed: u64| {
        let plan = FaultPlan::new(99)
            .crash_restart(NodeId(1), t(SEC), t(2 * SEC))
            .blackout_between(NodeId(1), NodeId(2), t(3 * SEC), t(7 * SEC / 2))
            .corrupt_control(8, t(0), t(10 * SEC))
            .drop_control_from(NodeId(0), t(4 * SEC), t(5 * SEC));
        let (mut w, _, _, _) = chain_world(seed, 400);
        w.obs_mut().resize_trace(500_000);
        w.install_faults(plan);
        w.run_until_idle(5_000_000);
        (recorded(&w), outcome(&w))
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.0, b.0, "traces must be byte-identical");
    assert_eq!(a.1, b.1);
    // A different world seed genuinely changes the run.
    assert_ne!(a, run(8));
}

#[test]
fn transport_survives_forwarder_crash() {
    // Kill the only middlebox for a full second mid-transfer: every packet
    // in that window dies at its door, and the E2E transport's RTO machinery
    // must carry the flow to completion anyway.
    let (mut w, s, fwd, r) = chain_world(21, 2000);
    w.obs_mut().resize_trace(200_000);
    w.install_faults(FaultPlan::new(0).crash_restart(fwd, t(SEC / 2), t(3 * SEC / 2)));
    w.run_until_idle(10_000_000);
    let sender = w.node_as::<SenderNode>(s);
    assert!(sender.core().is_complete(), "{:?}", sender.stats());
    assert!(sender.stats().retransmissions > 0, "crash forced no retx?");
    assert_eq!(w.node_as::<ReceiverNode>(r).stats().unique_units, 2000);
    // The outage ate packets at the forwarder's door, from either side.
    let (.., links, _) = outcome(&w);
    let fwd_stats = w.node_as::<Forwarder>(fwd);
    let got_in = fwd_stats.stats_01.packets() + fwd_stats.stats_10.packets();
    let eaten = links[0].delivered + links[3].delivered - got_in;
    assert!(eaten > 0, "outage should have eaten packets");
    let trace = recorded(&w);
    assert_eq!(link_drops(&trace, "node=1", "node_down"), eaten);
    let edges: Vec<&str> = trace.lines().filter(|l| l.contains(" outage ")).collect();
    let (crash, restore) = (SEC / 2, 3 * SEC / 2);
    let want = [
        format!("{crash} outage node=1 up=false"),
        format!("{restore} outage node=1 up=true"),
    ];
    assert_eq!(edges, want);
}

#[test]
fn transport_survives_link_blackout() {
    let (mut w, s, fwd, r) = chain_world(22, 2000);
    w.obs_mut().resize_trace(200_000);
    w.install_faults(FaultPlan::new(0).blackout_between(fwd, r, t(SEC / 2), t(SEC)));
    w.run_until_idle(10_000_000);
    assert!(w.node_as::<SenderNode>(s).core().is_complete());
    // The blackout ate packets the forwarder tried to send: its two links
    // were offered fewer than it was handed.
    let (.., links, _) = outcome(&w);
    let fwd_stats = w.node_as::<Forwarder>(fwd);
    let handed = fwd_stats.stats_01.packets() + fwd_stats.stats_10.packets();
    let eaten = handed - (links[1].offered + links[2].offered);
    assert!(eaten > 0);
    assert_eq!(link_drops(&recorded(&w), "node=1", "blackout"), eaten);
}

#[test]
fn kill_without_restart_stays_down() {
    let (mut w, s, fwd, _) = chain_world(23, 200);
    w.install_faults(FaultPlan::new(0).kill(fwd, t(SEC / 20)));
    // The flow can never finish; run to a deadline instead of idle (the
    // sender's RTO keeps rescheduling forever against a dead middlebox).
    w.run_until(t(20 * SEC));
    assert!(w.is_node_down(fwd));
    assert!(!w.node_as::<SenderNode>(s).core().is_complete());
}

#[test]
fn on_restart_hook_fires_once_per_outage() {
    let mut w = World::new(1);
    let src = w.add_node(Box::new(ControlBlaster {
        total: 3000,
        sent: 0,
    }));
    let node = w.add_node(Box::new(RestartCounter::default()));
    w.connect(src, node, LinkConfig::default(), LinkConfig::default());
    w.install_faults(
        FaultPlan::new(0)
            .crash_restart(node, t(SEC / 2), t(SEC))
            .crash_restart(node, t(2 * SEC), t(5 * SEC / 2)),
    );
    w.run_until_idle(5_000_000);
    let counter = w.node_as::<RestartCounter>(node);
    assert_eq!(counter.restarts, 2);
    // 3 s of two packets per ms, minus two half-second outages.
    assert!(counter.packets > 0);
    assert!((counter.packets as i64 - 4000).unsigned_abs() < 400);
}

#[test]
fn corruption_touches_only_sidecar_payloads() {
    let original = vec![0xAA; 16];
    let window_end = 2 * SEC;
    let (mut w, dst) = blaster_to_sink(
        5,
        5000,
        Some(FaultPlan::new(77).corrupt_control(12, t(0), t(window_end))),
    );
    w.run_until_idle(1_000_000);
    let sink = w.node_as::<RecordingSink>(dst);
    // Data packets are untouched (the rule keys on PacketKind::Sidecar).
    assert_eq!(sink.data_count, 5000);
    let corrupted = sink
        .sidecar_bodies
        .iter()
        .filter(|b| **b != original)
        .count();
    let pristine = sink.sidecar_bodies.len() - corrupted;
    // Packets sent inside the window always differ (≥1 bit flipped); the
    // tail sent after the window is intact.
    assert!(corrupted > 1500, "corrupted {corrupted}");
    assert!(pristine > 2000, "pristine {pristine}");
    // Corruption never changes sizes.
    assert!(sink.sidecar_bodies.iter().all(|b| b.len() == 16));
}

#[test]
fn duplicate_and_drop_control_change_arrival_counts() {
    let total = 2000u64;
    let arrivals = |plan: Option<FaultPlan>| {
        let (mut w, dst) = blaster_to_sink(9, total, plan);
        w.run_until_idle(1_000_000);
        let sink = w.node_as::<RecordingSink>(dst);
        (sink.sidecar_bodies.len() as u64, sink.data_count)
    };
    let (clean_sc, clean_data) = arrivals(None);
    assert_eq!((clean_sc, clean_data), (total, total));
    // Duplicate every control packet for the first half of the run.
    let (dup_sc, dup_data) = arrivals(Some(FaultPlan::new(0).duplicate_control(t(0), t(SEC))));
    assert!(dup_sc > total + 800, "duplicated {dup_sc}");
    assert_eq!(dup_data, total);
    // Drop every control packet for the first half of the run.
    let (drop_sc, drop_data) = arrivals(Some(FaultPlan::new(0).drop_control(t(0), t(SEC))));
    assert!(drop_sc < total - 800, "dropped down to {drop_sc}");
    assert_eq!(drop_data, total);
}

#[test]
fn delay_control_defers_delivery() {
    let first_sidecar_arrival = |plan: Option<FaultPlan>| {
        let (mut w, dst) = blaster_to_sink(11, 50, plan);
        w.run_until_idle(1_000_000);
        let sink = w.node_as::<RecordingSink>(dst);
        assert!(!sink.sidecar_bodies.is_empty());
        sink.sidecar_times[0]
    };
    let base = first_sidecar_arrival(None);
    let delayed = first_sidecar_arrival(Some(FaultPlan::new(0).delay_control(
        SimDuration::from_millis(50),
        t(0),
        t(10 * SEC),
    )));
    assert_eq!(delayed, base + SimDuration::from_millis(50));
}

#[test]
fn empty_plan_is_a_noop() {
    let run = |plan: Option<FaultPlan>| {
        let (mut w, _, _, _) = chain_world(13, 300);
        w.obs_mut().resize_trace(500_000);
        if let Some(plan) = plan {
            w.install_faults(plan);
        }
        w.run_until_idle(5_000_000);
        (recorded(&w), outcome(&w))
    };
    assert_eq!(run(None), run(Some(FaultPlan::new(123))));
}

#[test]
#[should_panic(expected = "unknown")]
fn plan_referencing_missing_node_panics() {
    let (mut w, _, _, _) = chain_world(1, 10);
    w.install_faults(FaultPlan::new(0).kill(NodeId(99), t(SEC)));
}
