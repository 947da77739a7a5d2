//! Per-host observability handle and the taps a host records through.
//!
//! Every [`World`](crate::World) — and every live-socket host — owns one
//! [`WorldObs`]: a *fresh* metrics registry, the flight-recorder ring and
//! the per-flow scoreboard. There is no process-wide registry or trace
//! beside it: every count and event lives in the host that made it. That
//! keeps metric-asserting tests reproducible on the test harness's
//! concurrent threads, and a scenario's snapshot holds only that
//! scenario's events.
//!
//! This module is the one place that knows how a host event becomes
//! telemetry. A host owes the recorder one call per traceable packet per
//! hop: [`WorldObs::hop_enqueue`] when a link (or socket) accepted it,
//! [`WorldObs::hop_drop`] instead when it died there, and
//! [`WorldObs::hop_deliver`] when it reaches a node, just before
//! `on_packet` runs. Which packets are traceable, and as what, is decided
//! once, below: data by `(Data, flow, packet number)`, sidecar control by
//! `(Ctrl, flow, control sequence)`, ACKs not at all. The simulator's own
//! accounting (link-drop counters and events, outage edges, fault-plan
//! rules) goes through the crate-private taps beside them.

use crate::node::{IfaceId, NodeId};
use crate::packet::{Packet, PacketKind};
use crate::time::SimTime;
use sidecar_obs::{ControlKind, Counter, DropCause, Event, EventTrace, TraceClass};

/// The counter each [`DropCause`] bumps, in declaration order. On a live
/// host `Loss` is the deterministic egress policy and `Queue` the kernel
/// refusing the datagram.
const DROPS: [&str; 5] = [
    "netsim.drop.loss",
    "netsim.drop.queue",
    "netsim.drop.node_down",
    "netsim.drop.blackout",
    "netsim.drop.injected",
];

/// The observability state attached to one host.
#[derive(Debug)]
pub struct WorldObs {
    /// Metrics registry scoped to this host.
    pub metrics: sidecar_obs::MetricsRegistry,
    /// The flight-recorder ring (host-clock timestamps only).
    pub trace: EventTrace,
    /// Per-flow health scoreboard, fed by the protocols' trouble taps
    /// (proxy retx, decode failures, auth rejections, evictions) through
    /// [`Context::obs_flow_health`](crate::node::Context::obs_flow_health).
    /// The handle is `Clone`-shared, so a live admin thread can rank flows
    /// while the dispatch thread records.
    pub scoreboard: sidecar_obs::FlowScoreboard,
    /// Host-scoped control-datagram sequence, allocated through
    /// [`Context::next_ctrl_seq`](crate::node::Context::next_ctrl_seq) to
    /// stamp sidecar control packets with a flight-recorder `TraceId`. Data
    /// packets need no allocator — their packet number is the stamp.
    pub ctrl_seq: u64,
    // The counters the world bumps per event, resolved once: a handle is
    // one lock-free atomic add, where `metrics.inc(name)` would take the
    // registry's mutex and look the name up on every packet. Registered
    // at construction, so every snapshot lists them (at zero if unused).
    delivered: Counter,
    drops: [Counter; 5],
    fault_outage: Counter,
    fault_restore: Counter,
    restart: Counter,
}

/// Flight-recorder identity of a packet: data packets are traced by their
/// packet number, sidecar control datagrams by the host-scoped control
/// sequence stamped at send time. ACKs are not traced — they all share
/// seq 0 and the recorder has nothing per-packet to say about them.
fn hop_identity(packet: &Packet) -> Option<(TraceClass, u32, u64)> {
    match packet.kind {
        PacketKind::Data => Some((TraceClass::Data, packet.flow.0, packet.seq)),
        PacketKind::Sidecar => Some((TraceClass::Ctrl, packet.flow.0, packet.seq)),
        _ => None,
    }
}

impl WorldObs {
    /// A fresh registry (the per-event counters pre-registered) and a
    /// default-capacity trace.
    pub fn new() -> Self {
        let metrics = sidecar_obs::MetricsRegistry::default();
        WorldObs {
            delivered: metrics.counter("netsim.delivered"),
            drops: DROPS.map(|name| metrics.counter(name)),
            fault_outage: metrics.counter("netsim.fault.outage"),
            fault_restore: metrics.counter("netsim.fault.restore"),
            restart: metrics.counter("netsim.restart"),
            metrics,
            trace: EventTrace::default(),
            scoreboard: sidecar_obs::FlowScoreboard::default(),
            ctrl_seq: 0,
        }
    }

    /// Replaces the flight-recorder ring with an empty one holding
    /// `capacity` events. Lifecycle certification refuses truncated
    /// rings, so analysis runs size this to the run.
    pub fn resize_trace(&mut self, capacity: usize) {
        self.trace = EventTrace::with_capacity(capacity);
    }

    /// Records `event(class, flow, seq)` if `packet` is traceable.
    #[inline]
    fn hop(
        &mut self,
        now: SimTime,
        packet: &Packet,
        event: impl FnOnce(TraceClass, u32, u64) -> Event,
    ) {
        if let Some((class, flow, seq)) = hop_identity(packet) {
            self.trace.record(now.as_nanos(), event(class, flow, seq));
        }
    }

    /// `packet` was accepted by the link (or socket) behind
    /// `(node, iface)`.
    #[inline]
    pub fn hop_enqueue(&mut self, now: SimTime, node: NodeId, iface: IfaceId, packet: &Packet) {
        let (node, iface) = (node.0 as u32, iface.0 as u32);
        self.hop(now, packet, |class, flow, seq| Event::HopEnqueue {
            node,
            iface,
            class,
            flow,
            seq,
        });
    }

    /// `packet` reached `node` on `iface` and is about to be dispatched.
    #[inline]
    pub fn hop_deliver(&mut self, now: SimTime, node: NodeId, iface: IfaceId, packet: &Packet) {
        let (node, iface) = (node.0 as u32, iface.0 as u32);
        self.hop(now, packet, |class, flow, seq| Event::HopDeliver {
            node,
            iface,
            class,
            flow,
            seq,
        });
    }

    /// `packet` died at `(node, iface)` instead of being enqueued.
    #[inline]
    pub fn hop_drop(
        &mut self,
        now: SimTime,
        node: NodeId,
        iface: IfaceId,
        packet: &Packet,
        cause: DropCause,
    ) {
        let (node, iface) = (node.0 as u32, iface.0 as u32);
        self.hop(now, packet, |class, flow, seq| Event::HopDrop {
            node,
            iface,
            class,
            flow,
            seq,
            cause,
        });
    }

    /// A simulated link (or the door of a crashed node) dropped `packet`:
    /// the per-cause counter, the `LinkDrop` event every packet kind
    /// gets, then the packet's own [`WorldObs::hop_drop`].
    #[inline]
    pub(crate) fn link_drop(
        &mut self,
        now: SimTime,
        node: NodeId,
        iface: IfaceId,
        packet: &Packet,
        cause: DropCause,
    ) {
        self.drops[cause as usize].inc();
        let event = Event::LinkDrop {
            node: node.0 as u32,
            iface: iface.0 as u32,
            cause,
        };
        self.trace.record(now.as_nanos(), event);
        self.hop_drop(now, node, iface, packet, cause);
    }

    /// A link accepted a packet for delivery.
    #[inline]
    pub(crate) fn delivered(&mut self) {
        self.delivered.inc();
    }

    /// A scripted outage edge: `node` went down or came back `up`.
    pub(crate) fn outage(&mut self, now: SimTime, node: NodeId, up: bool) {
        if up {
            self.fault_restore.inc();
        } else {
            self.fault_outage.inc();
        }
        let node = node.0 as u32;
        self.trace
            .record(now.as_nanos(), Event::Outage { node, up });
    }

    /// `node`'s `on_restart` hook is about to run.
    pub(crate) fn restart(&mut self, now: SimTime, node: NodeId) {
        self.restart.inc();
        let node = node.0 as u32;
        self.trace.record(now.as_nanos(), Event::Restart { node });
    }

    /// A fault-plan rule matched a control packet `node` transmitted.
    pub(crate) fn control_fault(&mut self, now: SimTime, node: NodeId, kind: ControlKind) {
        let counter = match kind {
            ControlKind::Duplicate => "netsim.fault.duplicate",
            ControlKind::Delay => "netsim.fault.delay",
            ControlKind::Corrupt => "netsim.fault.corrupt",
            ControlKind::Forge => "netsim.fault.forge",
            ControlKind::Replay => "netsim.fault.replay",
            ControlKind::Tamper => "netsim.fault.tamper",
            ControlKind::Firewall => "netsim.fault.firewall",
        };
        self.metrics.inc(counter);
        let node = node.0 as u32;
        self.trace
            .record(now.as_nanos(), Event::ControlFault { node, kind });
    }
}

impl Default for WorldObs {
    fn default() -> Self {
        WorldObs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AckInfo, FlowId};

    #[test]
    fn data_and_control_are_traced_by_class_flow_seq_and_acks_are_not() {
        let at = SimTime::from_nanos(5);
        let data = Packet::data(FlowId(3), 41, 0xAB, 1500, at);
        let mut ctrl = Packet::sidecar(FlowId(4), 1, vec![0; 8], 64, at);
        ctrl.seq = 9;
        let ack = Packet::ack(FlowId(3), 0xCD, AckInfo::default(), 40, at);
        let mut obs = WorldObs::new();
        let (node, iface) = (NodeId(1), IfaceId(0));
        obs.hop_enqueue(at, node, iface, &ack);
        obs.hop_deliver(at, node, iface, &ack);
        obs.hop_drop(at, node, iface, &ack, DropCause::Loss);
        assert!(obs.trace.is_empty(), "an ACK passes every hop tap silently");
        obs.hop_enqueue(at, node, iface, &data);
        obs.hop_deliver(at, node, iface, &ctrl);
        obs.hop_drop(at, node, iface, &data, DropCause::Queue);
        assert_eq!(
            obs.trace.render(),
            "5 hop_enqueue node=1 iface=0 class=data flow=3 seq=41\n\
             5 hop_deliver node=1 iface=0 class=ctrl flow=4 seq=9\n\
             5 hop_drop node=1 iface=0 class=data flow=3 seq=41 cause=queue\n"
        );
    }
}
