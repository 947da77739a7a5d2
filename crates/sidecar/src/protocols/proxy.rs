//! The proxy core under the four sidecar proxies.
//!
//! Every proxy muxes its flows through one bounded [`FlowTable`] and runs
//! the same session lifetime around it: ensure a flow's session (a producer
//! re-created after a restart announces its fresh epoch, a consumer opens
//! its handshake), land deferred folds before anything reads a sketch,
//! settle an evicted session (its supervisor outcomes join the tally, its
//! quACK count is reported), drop every session on restart. [`ProxyCore`]
//! is that lifetime, written once. The nodes keep what their policies
//! decide: when to reap and emit, what a report means, CCD's unpacing.

use crate::flows::{FlowTable, FlowTableConfig, FoldBuffer, SlotId};
use crate::messages::SidecarMessage;
use crate::protocols::session::{
    restart_epoch, ConsumerHalf, CtrlChannel, Feedback, ProducerHalf, SupTally,
};
use crate::protocols::{obs, GuardedTimer};
use sidecar_netsim::node::Context;
use sidecar_netsim::packet::FlowId;

/// The roles a per-flow session plays: *send quACKs*, *receive quACKs*, or
/// both (CCD). This is all the core sees of a session.
pub(crate) trait Halves {
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

impl Halves for ProducerHalf {
    fn producer(&mut self) -> Option<&mut ProducerHalf> {
        Some(self)
    }
}

/// The flow table, control channel and shared timer chains of one proxy.
pub(crate) struct ProxyCore<S> {
    pub(crate) table: FlowTable<S>,
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
    /// An empty core; `grace` and `sup` are the node's tokens for the shared
    /// chains (a producer-only node never arms either).
    pub(crate) fn new(table: FlowTableConfig, grace: u64, sup: u64) -> Self {
        ProxyCore {
            table: FlowTable::new(table),
            folds: FoldBuffer::with_capacity(FoldBuffer::DEFAULT_CAPACITY),
            ctrl: CtrlChannel::default(),
            restart_announce: None,
            reclaimed: SupTally::default(),
            grace: GuardedTimer::new(grace),
            sup: GuardedTimer::new(sup),
        }
    }

    /// Looks up `flow`'s session, creating it with `init(flow, restart
    /// epoch)` if absent; returns `(created, slot)`. Sessions the insert
    /// evicts are settled like swept ones. A created producer announces the
    /// restart epoch when `announce` is set. A created consumer is
    /// supervised at once: its opening `Hello` leaves ahead of whatever the
    /// caller sends next.
    pub(crate) fn ensure(
        &mut self,
        flow: FlowId,
        announce: bool,
        init: impl FnOnce(FlowId, Option<u32>) -> S,
        ctx: &mut Context,
    ) -> (bool, SlotId) {
        let (epoch, reclaimed) = (self.restart_announce, &mut self.reclaimed);
        let (created, slot) = self.table.ensure_slot(
            flow,
            ctx.now(),
            || init(flow, epoch),
            |evicted, session| Self::settle(reclaimed, evicted, session, ctx),
        );
        if created {
            let (_, session) = self.table.slot_entry_mut(slot).expect("just created");
            if let Some(half) = session.producer().filter(|_| announce && epoch.is_some()) {
                half.announce(&mut self.ctrl, ctx);
            }
            if let Some(half) = session.consumer_mut() {
                // A fresh supervisor is owed nothing: this poll only sends
                // the Hello and arms the chain.
                let outcome = half.liveness(ctx.now(), false);
                half.follow_up(outcome, &mut self.ctrl, &mut self.sup, ctx);
            }
        }
        (created, slot)
    }

    /// The producer's control path for one opened message: vet it, ensure
    /// its session, apply it. Returns whether it created the session.
    pub(crate) fn producer_control(
        &mut self,
        flow: FlowId,
        msg: SidecarMessage,
        announce: bool,
        init: impl FnOnce(FlowId, Option<u32>) -> S,
        ctx: &mut Context,
    ) -> bool {
        if !ProducerHalf::accepts(&msg, ctx) {
            return false;
        }
        let (created, slot) = self.ensure(flow, announce, init, ctx);
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
        init: impl FnOnce(FlowId, Option<u32>) -> S,
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
                let (_, slot) = self.ensure(flow, true, init, ctx);
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
