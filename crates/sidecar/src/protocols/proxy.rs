//! The proxy core under the four sidecar proxies.
//!
//! Every proxy muxes its flows through one bounded [`FlowTable`] and runs
//! the same session lifetime around it: build a flow's session from what
//! the node fixed at construction (a producer re-created after a restart
//! announces its fresh epoch, a consumer opens its handshake), land
//! deferred folds before anything reads a sketch, supervise each consumer,
//! settle an evicted session (its supervisor outcomes join the tally, its
//! quACK count is reported), drop every session on restart. [`ProxyCore`]
//! is that lifetime, written once. The nodes keep what their policies
//! decide: when to reap and emit, what a report means, and the fallback a
//! degraded session takes (for CCD, unpacing).

use crate::config::{SidecarConfig, SupervisionConfig};
use crate::flows::{FlowTable, FlowTableConfig, FoldBuffer, SlotId};
use crate::messages::SidecarMessage;
use crate::protocols::session::{
    restart_epoch, ConsumerHalf, CtrlChannel, Feedback, Peer, ProducerHalf, SupTally,
};
use crate::protocols::{obs, GuardedTimer};
use crate::supervise::PollOutcome;
use sidecar_netsim::node::{Context, IfaceId};
use sidecar_netsim::packet::FlowId;
use sidecar_netsim::time::{SimDuration, SimTime};
use std::borrow::Borrow;

/// The roles a per-flow session plays: *send quACKs*, *receive quACKs*, or
/// both (CCD), and how the node builds one. This is all the core sees of a
/// session. A proxy's producer quACKs back out of interface 0, toward the
/// data's source; the producer its consumer listens to sits past
/// interface 1.
pub(crate) trait Halves {
    /// What the node fixes for every session it builds. A `Hello` must
    /// offer the quACK shape of the spec's [`SidecarConfig`].
    type Spec: Borrow<SidecarConfig>;

    /// `flow`'s session as it starts at `now`. A producer starts in
    /// `restart_epoch` when a restart set one: the old sketch died with the
    /// node, so the reborn session must not collide with its epoch.
    fn build(spec: &Self::Spec, flow: FlowId, restart_epoch: Option<u32>, now: SimTime) -> Self;

    fn producer(&mut self) -> Option<&mut ProducerHalf> {
        None
    }

    fn consumer(&self) -> Option<&ConsumerHalf> {
        None
    }

    fn consumer_mut(&mut self) -> Option<&mut ConsumerHalf> {
        None
    }
}

/// What a node fixes for its consumer sessions: `(sidecar, in-transit
/// window, supervision)`.
pub(crate) type ConsumerSpec = (SidecarConfig, SimDuration, SupervisionConfig);

impl Borrow<SidecarConfig> for ConsumerSpec {
    fn borrow(&self) -> &SidecarConfig {
        &self.0
    }
}

impl Halves for ProducerHalf {
    type Spec = SidecarConfig;

    fn build(cfg: &SidecarConfig, flow: FlowId, epoch: Option<u32>, _: SimTime) -> Self {
        ProducerHalf::new(*cfg, Peer::new(flow, IfaceId(0)), epoch)
    }

    fn producer(&mut self) -> Option<&mut ProducerHalf> {
        Some(self)
    }
}

impl ConsumerHalf {
    /// The decision half of a proxy's supervision step: the liveness poll,
    /// with feedback owed while the mirror holds entries or the node holds
    /// `pending` traffic for the session. It returns before anything is
    /// sent: on `degraded_now` the node applies its fallback, then
    /// [`ConsumerHalf::follow_up`] sends the hello and arms the chain, so
    /// whatever the fallback flushes leaves ahead of the recovery `Hello`.
    pub(crate) fn poll(&mut self, pending: bool, now: SimTime) -> PollOutcome {
        self.liveness(now, pending || self.consumer.log_len() > 0)
    }
}

/// The flow table, control channel and shared timer chains of one proxy.
pub(crate) struct ProxyCore<S: Halves> {
    pub(crate) table: FlowTable<S>,
    /// What every session is built from.
    spec: S::Spec,
    /// Producer identifiers waiting for one slot-bucketed, lane-parallel
    /// fold. Flushed before anything reads, resets or evicts a sketch.
    folds: FoldBuffer,
    pub(crate) ctrl: CtrlChannel,
    /// Set by a restart: the fresh epoch every re-created producer starts
    /// in and announces.
    restart_announce: Option<u32>,
    /// Supervisor outcomes of evicted sessions, so totals survive eviction.
    reclaimed: SupTally,
    /// The shared grace and supervision chains; the guards keep one queued
    /// event per chain however many sites arm them.
    pub(crate) grace: GuardedTimer,
    pub(crate) sup: GuardedTimer,
}

impl<S: Halves> ProxyCore<S> {
    /// An empty core with a default-sized table, building sessions from
    /// `spec`; `grace` and `sup` are the node's tokens for the shared chains
    /// (a producer-only node never arms either).
    pub(crate) fn new(spec: S::Spec, grace: u64, sup: u64) -> Self {
        ProxyCore {
            table: FlowTable::new(FlowTableConfig::default()),
            spec,
            folds: FoldBuffer::with_capacity(FoldBuffer::DEFAULT_CAPACITY),
            ctrl: CtrlChannel::default(),
            restart_announce: None,
            reclaimed: SupTally::default(),
            grace: GuardedTimer::new(grace),
            sup: GuardedTimer::new(sup),
        }
    }

    /// Looks up `flow`'s session, building it if absent; returns `(created,
    /// slot)`. Sessions the insert evicts are settled like swept ones. A
    /// created producer announces the restart epoch when `announce` is set.
    /// A created consumer is supervised at once: its opening `Hello` leaves
    /// ahead of whatever the caller sends next.
    pub(crate) fn ensure(
        &mut self,
        flow: FlowId,
        announce: bool,
        ctx: &mut Context,
    ) -> (bool, SlotId) {
        let (spec, epoch, now) = (&self.spec, self.restart_announce, ctx.now());
        let reclaimed = &mut self.reclaimed;
        let (created, slot) = self.table.ensure_slot(
            flow,
            now,
            || S::build(spec, flow, epoch, now),
            |evicted, session| Self::settle(reclaimed, evicted, session, ctx),
        );
        if created {
            let (_, session) = self.table.slot_entry_mut(slot).expect("just created");
            if let Some(half) = session.producer().filter(|_| announce && epoch.is_some()) {
                half.announce(&mut self.ctrl, ctx);
            }
            if let Some(half) = session.consumer_mut() {
                // A fresh supervisor is owed nothing: this step only sends
                // the Hello and arms the chain.
                let outcome = half.poll(false, now);
                half.follow_up(outcome, &mut self.ctrl, &mut self.sup, ctx);
            }
        }
        (created, slot)
    }

    /// The producer's control path for one opened message: vet it, ensure
    /// its session, apply it. Returns whether it created the session. A
    /// refused `Hello` creates nothing and is not answered.
    pub(crate) fn producer_control(
        &mut self,
        flow: FlowId,
        msg: SidecarMessage,
        announce: bool,
        ctx: &mut Context,
    ) -> bool {
        if !ProducerHalf::accepts(self.spec.borrow(), &msg, ctx) {
            return false;
        }
        let (created, slot) = self.ensure(flow, announce, ctx);
        let (_, session) = self.table.slot_entry_mut(slot).expect("just ensured");
        if let Some(half) = session.producer() {
            half.on_control(msg, &mut self.ctrl, ctx);
        }
        created
    }

    /// The consumer's control path: opens one datagram from the producer
    /// side and runs it through the session it names. A `Reset` (handshake
    /// ack or restart announcement) may create the session; a quACK only
    /// reaches a trusted one. A datagram that does not open is charged to
    /// its 4-tuple, `datagram_flow`: its own flow field is garbage.
    pub(crate) fn consumer_control(
        &mut self,
        datagram_flow: FlowId,
        proto: u8,
        bytes: &[u8],
        ctx: &mut Context,
    ) -> Option<(FlowId, Feedback)> {
        let supervise = |leftovers, degraded| Feedback::Supervise {
            overflow: false,
            leftovers,
            degraded,
        };
        match self.ctrl.open(proto, bytes, ctx) {
            Ok((flow, SidecarMessage::Quack { epoch, bytes })) => {
                let session = self.table.peek_mut(flow)?;
                let half = session.consumer_mut().filter(|h| h.enabled())?;
                Some((flow, half.on_quack(epoch, &bytes, &mut self.ctrl, ctx)))
            }
            Ok((flow, SidecarMessage::Reset { epoch })) => {
                let (_, slot) = self.ensure(flow, true, ctx);
                let half = self.table.slot_entry_mut(slot)?.1.consumer_mut()?;
                let (leftovers, _) = half.on_reset(epoch, ctx.now());
                Some((flow, supervise(leftovers, false)))
            }
            Ok(_) => None,
            Err(()) => {
                let half = self.table.peek_mut(datagram_flow)?.consumer_mut()?;
                let degraded = half.on_undecodable(ctx.now());
                Some((datagram_flow, supervise(Vec::new(), degraded)))
            }
        }
    }

    /// Buffers one identifier for the producer in `slot`.
    pub(crate) fn fold(&mut self, slot: SlotId, id: u64, ctx: &mut Context) {
        if self.folds.push(slot, id) {
            self.flush_folds(ctx);
        }
    }

    /// Drains the fold buffer into the producers' sketches.
    pub(crate) fn flush_folds(&mut self, ctx: &mut Context) {
        if self.folds.is_empty() {
            return;
        }
        self.folds.flush(&mut self.table, |_, session, ids| {
            if let Some(half) = session.producer() {
                half.producer.observe_batch(ids);
            }
        });
        obs::fold_flush(ctx, &mut self.folds);
    }

    /// Evicts every session idle past the deadline.
    pub(crate) fn reap_idle(&mut self, ctx: &mut Context) {
        for (flow, session) in self.table.sweep_idle(ctx.now()) {
            Self::settle(&mut self.reclaimed, flow, session, ctx);
        }
    }

    /// Evicts `flow`'s session if it is idle past the deadline; returns
    /// whether it did.
    pub(crate) fn reap_if_idle(&mut self, flow: FlowId, ctx: &mut Context) -> bool {
        match self.table.evict_if_idle(flow, ctx.now()) {
            Some(session) => {
                Self::settle(&mut self.reclaimed, flow, session, ctx);
                true
            }
            None => false,
        }
    }

    /// Supervisor outcomes summed over live and evicted sessions.
    pub(crate) fn tally(&self) -> SupTally {
        let mut tally = self.reclaimed;
        self.table
            .iter()
            .filter_map(|(_, s)| s.consumer())
            .for_each(|h| tally.add(h));
        tally
    }

    /// Arms the grace chain at the earliest pending deadline across flows
    /// (a degraded session holds no mirror, hence no deadline).
    pub(crate) fn arm_grace(&mut self, ctx: &mut Context) {
        let halves = self.table.iter().filter_map(|(_, s)| s.consumer());
        if let Some(deadline) = halves
            .filter_map(|h| h.consumer.next_grace_deadline())
            .min()
        {
            self.grace.arm(deadline, ctx);
        }
    }

    /// A crash lost every session, buffered fold and queued chain. Flows
    /// rebuild lazily as their traffic reappears, producers in a fresh
    /// time-derived epoch. The tally stands for exported telemetry, which
    /// outlives the process (and is what the scenario reports compare), so
    /// the live outcomes are folded in first.
    pub(crate) fn restart(&mut self, ctx: &mut Context) {
        self.reclaimed = self.tally();
        self.table = FlowTable::new(*self.table.config());
        self.folds.clear();
        self.grace.disarm(ctx);
        self.sup.disarm(ctx);
        self.restart_announce = Some(restart_epoch(ctx.now()));
    }

    /// One evicted session: its supervisor outcomes join the tally and a
    /// producer reports its lifetime quACK count.
    fn settle(reclaimed: &mut SupTally, flow: FlowId, mut session: S, ctx: &mut Context) {
        if let Some(half) = session.consumer() {
            reclaimed.add(half);
        }
        if let Some(half) = session.producer() {
            obs::flow_evicted(ctx, flow.0, half.producer.emitted);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The rules the core keeps for every node, checked on the nodes
    //! themselves through a world-less [`Context`]: each callback's sends
    //! come back in the order the node made them.

    use super::*;
    use crate::config::{QuackFrequency, SupervisionConfig};
    use crate::endpoint::QuackProducer;
    use crate::messages::HEADER_OVERHEAD;
    use crate::negotiate::offer;
    use crate::protocols::ack_reduction::{AckRedProxy, AckReductionScenario};
    use crate::protocols::ccd::{CcdClient, CcdProxy, CcdScenario};
    use crate::protocols::retx::{ReceiverSideProxy, RetxScenario, SenderSideProxy};
    use sidecar_galois::Fp32;
    use sidecar_netsim::node::{Action, Node, NodeId};
    use sidecar_netsim::obs::WorldObs;
    use sidecar_netsim::packet::{Packet, Payload};
    use sidecar_netsim::rng::SimRng;
    use sidecar_netsim::time::SimDuration;
    use sidecar_netsim::transport::ReceiverConfig;
    use SidecarMessage::Reset;

    /// One packet a callback sent: its interface, its flow, and its control
    /// message (`None` for data).
    pub(crate) type Sent = (IfaceId, FlowId, Option<SidecarMessage>);

    pub(crate) fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sends(actions: Vec<Action>) -> Vec<Sent> {
        let decode = |payload: &Payload| match payload {
            Payload::Sidecar { proto, bytes } => Some(
                SidecarMessage::decode_flow(*proto, bytes)
                    .expect("plain control")
                    .1,
            ),
            _ => None,
        };
        let sent = actions.into_iter().filter_map(|action| match action {
            Action::Send { iface, packet } => Some((iface, packet.flow, decode(&packet.payload))),
            _ => None,
        });
        sent.collect()
    }

    /// Hands `packet` to `node` on `iface` at `ms`; returns what it sent.
    pub(crate) fn deliver<N: Node>(
        node: &mut N,
        iface: IfaceId,
        packet: Packet,
        ms: u64,
    ) -> Vec<Sent> {
        deliver_to(node, iface, packet, ms, None)
    }

    /// [`deliver`] through a context that counts into `obs`.
    fn deliver_to<N: Node>(
        node: &mut N,
        iface: IfaceId,
        packet: Packet,
        ms: u64,
        obs: Option<&mut WorldObs>,
    ) -> Vec<Sent> {
        let (mut rng, mut actions) = (SimRng::new(1), Vec::new());
        let mut ctx = Context::with_obs(at(ms), NodeId(0), &mut rng, &mut actions, obs);
        node.on_packet(iface, packet, &mut ctx);
        sends(actions)
    }

    /// Crashes and restarts `node` at `ms`; returns what it sent.
    fn restart<N: Node>(node: &mut N, ms: u64) -> Vec<Sent> {
        let (mut rng, mut actions) = (SimRng::new(1), Vec::new());
        node.on_restart(&mut Context::new(at(ms), NodeId(0), &mut rng, &mut actions));
        sends(actions)
    }

    pub(crate) fn data(flow: u32, seq: u64, ms: u64) -> Packet {
        Packet::data(FlowId(flow), seq, 0xC0FFEE + seq, 1_200, at(ms))
    }

    fn control(flow: u32, msg: &SidecarMessage, ms: u64) -> Packet {
        let (proto, body) = msg.encode_for_flow(flow);
        let size = HEADER_OVERHEAD + body.len() as u32;
        Packet::sidecar(FlowId(flow), proto, body, size, at(ms))
    }

    fn ccd_proxy() -> CcdProxy {
        let ms = SimDuration::from_millis;
        let cfg = CcdScenario::default().sidecar;
        CcdProxy::new(cfg, ms(30), 1e6, 64, ms(45), SupervisionConfig::default())
    }

    fn reset(epoch: u32) -> Option<SidecarMessage> {
        Some(Reset { epoch })
    }

    /// After a restart every producer a data packet creates announces the
    /// fresh epoch toward its consumer, before anything else leaves.
    #[test]
    fn data_created_producer_announces_the_restart_epoch() {
        let epoch = restart_epoch(at(10));
        let announced = (IfaceId(0), FlowId(7), reset(epoch));

        let mut retx = ReceiverSideProxy::new(RetxScenario::default().sidecar);
        restart(&mut retx, 10);
        let sent = deliver(&mut retx, IfaceId(0), data(7, 0, 20), 20);
        assert_eq!(sent, [announced.clone(), (IfaceId(1), FlowId(7), None)]);

        let mut ackred = AckRedProxy::new(SidecarConfig::paper_default());
        restart(&mut ackred, 10);
        let sent = deliver(&mut ackred, IfaceId(0), data(7, 0, 20), 20);
        assert_eq!(sent[0], announced);

        let mut ccd = ccd_proxy();
        restart(&mut ccd, 10);
        let sent = deliver(&mut ccd, IfaceId(0), data(7, 0, 20), 20);
        assert_eq!(sent[0], announced);

        // Without a restart there is no fresh epoch to announce.
        let mut retx = ReceiverSideProxy::new(RetxScenario::default().sidecar);
        let sent = deliver(&mut retx, IfaceId(0), data(7, 0, 20), 20);
        assert_eq!(sent, [(IfaceId(1), FlowId(7), None)]);
    }

    /// A session that the server's `Hello` creates on the retx receiver or
    /// on ackred (`announce: false`) answers with one `Reset` and no extra
    /// announcement. CCD announces on every creation, so it sends both.
    #[test]
    fn control_created_producer_announces_only_on_ccd() {
        let cfg = RetxScenario::default().sidecar;
        let epoch = restart_epoch(at(10));
        let answer = || (IfaceId(0), FlowId(7), reset(epoch));

        let mut retx = ReceiverSideProxy::new(cfg);
        restart(&mut retx, 10);
        let sent = deliver(&mut retx, IfaceId(0), control(7, &offer(&cfg), 20), 20);
        assert_eq!(sent, [answer()]);

        let cfg = SidecarConfig::paper_default();
        let mut ackred = AckRedProxy::new(cfg);
        restart(&mut ackred, 10);
        let sent = deliver(&mut ackred, IfaceId(0), control(7, &offer(&cfg), 20), 20);
        assert_eq!(sent, [answer()]);

        let cfg = CcdScenario::default().sidecar;
        let mut ccd = ccd_proxy();
        restart(&mut ccd, 10);
        let sent = deliver(&mut ccd, IfaceId(0), control(7, &offer(&cfg), 20), 20);
        let hello = (IfaceId(1), FlowId(7), Some(offer(&cfg)));
        assert_eq!(sent, [answer(), hello, answer()]);
    }

    /// A consumer that a data packet creates opens its handshake at once:
    /// its `Hello` leaves ahead of the packet that created it.
    #[test]
    fn data_created_consumer_hello_leaves_before_its_packet() {
        let s = RetxScenario::default();
        let rtt = SimDuration::from_millis(12);
        let mut proxy = SenderSideProxy::new(s.sidecar, rtt, s.buffer_cap, s.supervision);
        let sent = deliver(&mut proxy, IfaceId(0), data(7, 0, 0), 0);
        let hello = (IfaceId(1), FlowId(7), Some(offer(&s.sidecar)));
        assert_eq!(sent, [hello, (IfaceId(1), FlowId(7), None)]);
        // The session exists now, so the next packet travels alone.
        let sent = deliver(&mut proxy, IfaceId(0), data(7, 1, 1), 1);
        assert_eq!(sent, [(IfaceId(1), FlowId(7), None)]);
    }

    /// Offers `hello` for flow 7 to `node` on interface 0; returns what the
    /// node sent and its `(accepted, rejected)` handshake counters.
    fn offer_to<N: Node>(node: &mut N, hello: &SidecarMessage) -> (Vec<Sent>, (u64, u64)) {
        let mut obs = WorldObs::new();
        let sent = deliver_to(node, IfaceId(0), control(7, hello, 20), 20, Some(&mut obs));
        let count = |name| obs.metrics.counter_value(name);
        let counts = (
            count("sidecar.handshake.accepted"),
            count("sidecar.handshake.rejected"),
        );
        (sent, counts)
    }

    /// Offers of another quACK shape than `cfg`'s: `t + 1`, and another `c`.
    fn misshapen(cfg: &SidecarConfig) -> [SidecarMessage; 2] {
        let t = cfg.threshold + 1;
        let c = cfg.count_bits ^ 8;
        [
            offer(&SidecarConfig {
                threshold: t,
                ..*cfg
            }),
            offer(&SidecarConfig {
                count_bits: c,
                ..*cfg
            }),
        ]
    }

    /// `cfg`'s shape at another interval.
    fn reclocked(cfg: &SidecarConfig) -> SidecarMessage {
        let frequency = QuackFrequency::Interval(SimDuration::from_millis(7));
        offer(&SidecarConfig { frequency, ..*cfg })
    }

    fn ccd_client(cfg: SidecarConfig) -> CcdClient {
        let transport = ReceiverConfig {
            flow: FlowId(7),
            ..ReceiverConfig::default()
        };
        let ms = SimDuration::from_millis;
        CcdClient::new(transport, cfg, ms(30), SupervisionConfig::default())
    }

    const REFUSED: (u64, u64) = (0, 1);
    const ACCEPTED: (u64, u64) = (1, 0);

    /// A `Hello` offering another shape than the retx receiver's is counted
    /// and refused: no `Reset` answers it and no session is built. The
    /// same shape at another interval is answered.
    #[test]
    fn retx_receiver_refuses_a_mismatched_hello() {
        let cfg = RetxScenario::default().sidecar;
        for hello in misshapen(&cfg) {
            let mut node = ReceiverSideProxy::new(cfg);
            assert_eq!(offer_to(&mut node, &hello), (vec![], REFUSED));
            assert_eq!(node.live_flows(), 0);
        }
        let mut node = ReceiverSideProxy::new(cfg);
        let answer = vec![(IfaceId(0), FlowId(7), reset(0))];
        assert_eq!(offer_to(&mut node, &reclocked(&cfg)), (answer, ACCEPTED));
        assert_eq!(node.live_flows(), 1);
    }

    /// The same refusal on the ACK-reduction proxy.
    #[test]
    fn ackred_refuses_a_mismatched_hello() {
        let cfg = AckReductionScenario::default().sidecar;
        for hello in misshapen(&cfg) {
            let mut node = AckRedProxy::new(cfg);
            assert_eq!(offer_to(&mut node, &hello), (vec![], REFUSED));
            assert_eq!(node.live_flows(), 0);
        }
        let mut node = AckRedProxy::new(cfg);
        let answer = vec![(IfaceId(0), FlowId(7), reset(0))];
        assert_eq!(offer_to(&mut node, &reclocked(&cfg)), (answer, ACCEPTED));
        assert_eq!(node.live_flows(), 1);
    }

    /// The same refusal on the CCD proxy's upstream producer. An accepted
    /// offer builds the whole flow, so its downstream `Hello` leaves too.
    #[test]
    fn ccd_proxy_refuses_a_mismatched_hello() {
        let cfg = CcdScenario::default().sidecar;
        for hello in misshapen(&cfg) {
            let mut node = ccd_proxy();
            assert_eq!(offer_to(&mut node, &hello), (vec![], REFUSED));
            assert_eq!(node.live_flows(), 0);
        }
        let mut node = ccd_proxy();
        let answer = vec![
            (IfaceId(1), FlowId(7), Some(offer(&cfg))),
            (IfaceId(0), FlowId(7), reset(0)),
        ];
        assert_eq!(offer_to(&mut node, &reclocked(&cfg)), (answer, ACCEPTED));
        assert_eq!(node.live_flows(), 1);
    }

    /// The CCD client checks offers against its own producer.
    #[test]
    fn ccd_client_refuses_a_mismatched_hello() {
        let cfg = CcdScenario::default().sidecar;
        for hello in misshapen(&cfg) {
            let mut node = ccd_client(cfg);
            assert_eq!(offer_to(&mut node, &hello), (vec![], REFUSED));
        }
        let mut node = ccd_client(cfg);
        let answer = vec![(IfaceId(0), FlowId(7), reset(0))];
        assert_eq!(offer_to(&mut node, &reclocked(&cfg)), (answer, ACCEPTED));
    }

    /// A consumer whose offer is refused still hears the quACKs of the
    /// producer that data built. Until a producer answers, a quACK of
    /// another size than the session's shape is neither decoded nor
    /// charged: the session does not degrade one error at a time, and
    /// liveness takes the flow end to end.
    #[test]
    fn connecting_consumer_skips_a_foreign_shape_quack() {
        let s = RetxScenario::default();
        let rtt = SimDuration::from_millis(12);
        let mut proxy = SenderSideProxy::new(s.sidecar, rtt, s.buffer_cap, s.supervision);
        deliver(&mut proxy, IfaceId(0), data(7, 0, 0), 0);
        let foreign = SidecarConfig {
            threshold: s.sidecar.threshold + 1,
            ..s.sidecar
        };
        let mut obs = WorldObs::new();
        for ms in 1..=5 {
            let quack = QuackProducer::<Fp32>::new(foreign).emit();
            let packet = control(7, &quack, ms);
            let sent = deliver_to(&mut proxy, IfaceId(1), packet, ms, Some(&mut obs));
            assert_eq!(sent, []);
        }
        assert_eq!(obs.metrics.counter_value("quack.err.malformed"), 0);
        assert_eq!(proxy.degradations(), 0);
    }
}
