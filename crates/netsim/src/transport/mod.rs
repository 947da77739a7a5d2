//! The QUIC-like "paranoid" base transport.
//!
//! The paper's premise is a transport whose headers and payloads are
//! encrypted and authenticated so middleboxes cannot split, parse, or spoof
//! it (§1). This module provides that base protocol for the simulator:
//! reliable delivery over [`SenderCore`]/[`ReceiverCore`] state machines
//! (sans-IO, so the sidecar crate can compose them into modified end
//! hosts), plus ready-to-use [`SenderNode`]/[`ReceiverNode`] wrappers for
//! plain unmodified hosts.

pub mod cc;
pub mod receiver;
pub mod rtt;
pub mod sender;

pub use cc::{Bbr, CcAlgorithm, CongestionControl, Cubic, FixedWindow, NewReno};
pub use receiver::{ReceiverConfig, ReceiverCore, ReceiverEvent, ReceiverStats};
pub use rtt::RttEstimator;
pub use sender::{SenderConfig, SenderCore, SenderEvent, SenderStats};

use crate::node::{Context, IfaceId, Node};
use crate::packet::{Packet, PacketKind, Payload};
use std::any::Any;

/// Drains `core`'s transport events and mirrors end-to-end loss/recovery
/// into the flight recorder: `Lost` becomes [`sidecar_obs::Event::E2eLost`]
/// (the pn→unit join point) and retransmitting `Sent`s become
/// [`sidecar_obs::Event::E2eRetx`]. Every node wrapping a [`SenderCore`]
/// (the plain [`SenderNode`] here, the CCD/ACK-reduction servers in the
/// sidecar crate) calls this from its pump so lifecycle reconstruction sees
/// recovery no matter which protocol owns the core.
pub fn emit_sender_lifecycle(core: &mut SenderCore, ctx: &mut Context) {
    let node = ctx.node_id().0 as u32;
    let flow = core.config().flow.0;
    for event in core.drain_events() {
        match event {
            SenderEvent::Lost { pn, unit, .. } => ctx.obs_event(sidecar_obs::Event::E2eLost {
                node,
                flow,
                seq: pn,
                unit,
            }),
            SenderEvent::Sent {
                pn,
                unit,
                retx: true,
                ..
            } => ctx.obs_event(sidecar_obs::Event::E2eRetx {
                node,
                flow,
                seq: pn,
                unit,
            }),
            _ => {}
        }
    }
}

/// Timer token used by [`SenderNode`] for retransmission timeouts.
const TOKEN_RTO: u64 = 1;
/// Timer token used by [`ReceiverNode`] for delayed ACKs.
const TOKEN_DELAYED_ACK: u64 = 2;

/// An unmodified sending end host: a [`SenderCore`] attached to interface 0.
pub struct SenderNode {
    core: SenderCore,
}

impl SenderNode {
    /// Creates the node.
    pub fn new(cfg: SenderConfig) -> Self {
        SenderNode {
            core: SenderCore::new(cfg),
        }
    }

    /// Boxed convenience constructor for `World::add_node`.
    pub fn boxed(cfg: SenderConfig) -> Box<Self> {
        Box::new(Self::new(cfg))
    }

    /// Sender statistics.
    pub fn stats(&self) -> &SenderStats {
        self.core.stats()
    }

    /// The underlying core (read access for assertions).
    pub fn core(&self) -> &SenderCore {
        &self.core
    }

    /// The underlying core (mutable; used by scenario drivers).
    pub fn core_mut(&mut self) -> &mut SenderCore {
        &mut self.core
    }

    /// Transmit whatever the window allows and keep the RTO timer armed.
    fn pump(core: &mut SenderCore, ctx: &mut Context) {
        for pkt in core.poll_send(ctx.now()) {
            ctx.send(IfaceId(0), pkt);
        }
        emit_sender_lifecycle(core, ctx);
        if let Some(deadline) = core.next_timeout() {
            ctx.set_timer_at(deadline.max(ctx.now()), TOKEN_RTO);
        }
    }
}

impl Node for SenderNode {
    fn on_start(&mut self, ctx: &mut Context) {
        Self::pump(&mut self.core, ctx);
    }

    fn on_packet(&mut self, _iface: IfaceId, packet: Packet, ctx: &mut Context) {
        if let Payload::Ack(ref info) = packet.payload {
            self.core.on_ack(info, ctx.now());
        }
        Self::pump(&mut self.core, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        if token != TOKEN_RTO {
            return;
        }
        match self.core.next_timeout() {
            Some(deadline) if ctx.now() >= deadline => {
                self.core.on_rto(ctx.now());
                Self::pump(&mut self.core, ctx);
            }
            Some(_) | None => {
                // Stale timer; pump re-arms if needed.
                Self::pump(&mut self.core, ctx);
            }
        }
    }

    fn name(&self) -> &str {
        "transport-sender"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An unmodified receiving end host: a [`ReceiverCore`] attached to
/// interface 0.
pub struct ReceiverNode {
    core: ReceiverCore,
}

impl ReceiverNode {
    /// Creates the node.
    pub fn new(cfg: ReceiverConfig) -> Self {
        ReceiverNode {
            core: ReceiverCore::new(cfg),
        }
    }

    /// Boxed convenience constructor for `World::add_node`.
    pub fn boxed(cfg: ReceiverConfig) -> Box<Self> {
        Box::new(Self::new(cfg))
    }

    /// Receiver statistics.
    pub fn stats(&self) -> &ReceiverStats {
        self.core.stats()
    }

    /// The underlying core.
    pub fn core(&self) -> &ReceiverCore {
        &self.core
    }

    /// The underlying core (mutable).
    pub fn core_mut(&mut self) -> &mut ReceiverCore {
        &mut self.core
    }
}

impl Node for ReceiverNode {
    fn on_packet(&mut self, _iface: IfaceId, packet: Packet, ctx: &mut Context) {
        if packet.kind != PacketKind::Data {
            return;
        }
        if let Some(ack) = self.core.on_data(&packet, ctx.now()) {
            ctx.send(IfaceId(0), ack);
        } else if let Some(deadline) = self.core.ack_deadline() {
            ctx.set_timer_at(deadline, TOKEN_DELAYED_ACK);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        if token != TOKEN_DELAYED_ACK {
            return;
        }
        if let Some(ack) = self.core.poll_delayed_ack(ctx.now()) {
            ctx.send(IfaceId(0), ack);
        }
    }

    fn name(&self) -> &str {
        "transport-receiver"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkConfig, LossModel};
    use crate::time::{SimDuration, SimTime};
    use crate::world::World;

    fn two_hosts(
        seed: u64,
        loss: LossModel,
        total: u64,
        cc: CcAlgorithm,
    ) -> (World, crate::node::NodeId, crate::node::NodeId) {
        let mut w = World::new(seed);
        let s = w.add_node(SenderNode::boxed(SenderConfig {
            total_packets: Some(total),
            cc,
            ..SenderConfig::default()
        }));
        let r = w.add_node(ReceiverNode::boxed(ReceiverConfig::default()));
        let data_link = LinkConfig {
            rate_bps: 100_000_000,
            delay: SimDuration::from_millis(20),
            loss,
            ..LinkConfig::default()
        };
        let ack_link = LinkConfig {
            rate_bps: 100_000_000,
            delay: SimDuration::from_millis(20),
            ..LinkConfig::default()
        };
        w.connect(s, r, data_link, ack_link);
        (w, s, r)
    }

    #[test]
    fn lossless_flow_completes() {
        let (mut w, s, r) = two_hosts(1, LossModel::None, 500, CcAlgorithm::NewReno);
        w.run_until_idle(10_000_000);
        let sender = w.node_as::<SenderNode>(s);
        assert!(sender.core().is_complete());
        assert_eq!(sender.stats().delivered_packets, 500);
        assert_eq!(sender.stats().retransmissions, 0);
        let receiver = w.node_as::<ReceiverNode>(r);
        assert_eq!(receiver.stats().unique_units, 500);
    }

    #[test]
    fn flow_completes_despite_loss() {
        let (mut w, s, r) = two_hosts(
            2,
            LossModel::Bernoulli { p: 0.05 },
            500,
            CcAlgorithm::NewReno,
        );
        w.run_until_idle(10_000_000);
        let sender = w.node_as::<SenderNode>(s);
        assert!(
            sender.core().is_complete(),
            "flow stalled: {:?}",
            sender.stats()
        );
        assert_eq!(sender.stats().delivered_packets, 500);
        assert!(sender.stats().retransmissions > 0);
        let receiver = w.node_as::<ReceiverNode>(r);
        assert_eq!(receiver.stats().unique_units, 500);
    }

    #[test]
    fn flow_completes_with_cubic_and_heavy_loss() {
        let (mut w, s, _r) =
            two_hosts(3, LossModel::Bernoulli { p: 0.15 }, 300, CcAlgorithm::Cubic);
        w.run_until_idle(50_000_000);
        let sender = w.node_as::<SenderNode>(s);
        assert!(sender.core().is_complete(), "{:?}", sender.stats());
    }

    #[test]
    fn completion_time_grows_with_loss() {
        let time_for = |p: f64| {
            let loss = if p == 0.0 {
                LossModel::None
            } else {
                LossModel::Bernoulli { p }
            };
            let (mut w, s, _) = two_hosts(4, loss, 400, CcAlgorithm::NewReno);
            w.run_until_idle(50_000_000);
            w.node_as::<SenderNode>(s)
                .stats()
                .completed_at
                .expect("flow completed")
        };
        let clean = time_for(0.0);
        let lossy = time_for(0.08);
        assert!(
            lossy > clean,
            "loss should slow completion: clean {clean}, lossy {lossy}"
        );
    }

    #[test]
    fn rtt_estimate_tracks_path() {
        let (mut w, s, _) = two_hosts(5, LossModel::None, 200, CcAlgorithm::NewReno);
        w.run_until_idle(10_000_000);
        let sender = w.node_as::<SenderNode>(s);
        let srtt_ms = sender.core().rtt().srtt().as_nanos() as f64 / 1e6;
        // Path RTT is 40 ms propagation + serialization + delayed acks.
        assert!((40.0..80.0).contains(&srtt_ms), "srtt {srtt_ms}ms");
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let (mut w, s, _) = two_hosts(
                seed,
                LossModel::Bernoulli { p: 0.05 },
                300,
                CcAlgorithm::NewReno,
            );
            w.run_until_idle(50_000_000);
            let st = w.node_as::<SenderNode>(s).stats().clone();
            (st.sent_packets, st.retransmissions, st.completed_at)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn bbr_tolerates_noncongestive_loss_better_than_newreno() {
        // The property that motivates §2.1's baseline choice: on a random-
        // loss path, a model-based sender barely slows down while AIMD
        // collapses.
        let time_for = |cc: CcAlgorithm, p: f64| {
            let loss = if p == 0.0 {
                LossModel::None
            } else {
                LossModel::Bernoulli { p }
            };
            let (mut w, s, _) = two_hosts(31, loss, 600, cc);
            w.run_until_idle(100_000_000);
            w.node_as::<SenderNode>(s)
                .stats()
                .completed_at
                .expect("completed")
                .as_secs_f64()
        };
        let newreno_penalty =
            time_for(CcAlgorithm::NewReno, 0.02) / time_for(CcAlgorithm::NewReno, 0.0);
        let bbr_penalty = time_for(CcAlgorithm::Bbr, 0.02) / time_for(CcAlgorithm::Bbr, 0.0);
        assert!(
            bbr_penalty < newreno_penalty,
            "bbr {bbr_penalty:.2}x vs newreno {newreno_penalty:.2}x"
        );
        assert!(bbr_penalty < 2.0, "bbr penalty {bbr_penalty:.2}x too high");
    }

    #[test]
    fn unbounded_flow_runs_to_deadline() {
        let mut w = World::new(9);
        let s = w.add_node(SenderNode::boxed(SenderConfig {
            total_packets: None,
            ..SenderConfig::default()
        }));
        let r = w.add_node(ReceiverNode::boxed(ReceiverConfig::default()));
        w.connect(s, r, LinkConfig::default(), LinkConfig::default());
        w.run_until(SimTime::from_nanos(200_000_000)); // 200 ms
        let sender = w.node_as::<SenderNode>(s);
        assert!(!sender.core().is_complete());
        assert!(sender.stats().sent_packets > 100);
    }
}
