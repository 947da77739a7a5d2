//! The sidecar session frame under the three protocols.
//!
//! Paper Table 1 assembles every protocol from two roles — *send quACKs*
//! and *receive quACKs* — talking over one control channel. This module
//! holds each of the three exactly once, as plain structs the protocol
//! nodes compose (no hook trait, no dynamic dispatch):
//!
//! * [`CtrlChannel`] — what a node may put on, and accept from, the control
//!   channel: optional authentication, send, open, and the sent counters.
//! * [`ProducerHalf`] — a quACK producer and what its role owes the
//!   consumer: emission, the `Hello` answer, and epoch announcements.
//! * [`ConsumerHalf`] — a quACK consumer under supervision: decode and
//!   feedback accounting, resync on overflow, `Reset` adoption, undecodable
//!   datagrams, the hello/liveness poll, and the degradation tally.
//!
//! A protocol file keeps only what its cell of Table 1 decides: what a
//! decoded report *means* (retransmit, release window, steer, pace) and
//! what falling back to the end-to-end baseline swaps out.

use crate::auth::ChannelAuth;
use crate::config::{AuthConfig, SidecarConfig, SupervisionConfig};
use crate::endpoint::{LogEntry, ProcessError, QuackConsumer, QuackProducer, QuackReport};
use crate::messages::{SidecarMessage, HEADER_OVERHEAD, MAX_BODY};
use crate::negotiate::{offer, offers_shape};
use crate::protocols::{obs, GuardedTimer};
use crate::supervise::{PollOutcome, Supervisor, SupervisorState};
use sidecar_galois::Fp32;
use sidecar_netsim::node::{Context, IfaceId};
use sidecar_netsim::packet::{FlowId, Packet};
use sidecar_netsim::time::{SimDuration, SimTime};

/// Where a session's other half lives: the flow its control messages are
/// tagged with and the interface they leave by.
#[derive(Clone, Copy)]
pub(crate) struct Peer {
    pub(crate) flow: FlowId,
    pub(crate) iface: IfaceId,
}

impl Peer {
    pub(crate) fn new(flow: FlowId, iface: IfaceId) -> Self {
        Peer { flow, iface }
    }
}

/// One node's end of the sidecar control channel.
///
/// Everything a node sends or accepts as control traffic passes through
/// here, so what an (optionally authenticated) helper may do on the channel
/// is decided in one place. The counters only ever count datagrams that
/// actually left: a message refused as oversized is not "sent".
#[derive(Default)]
pub(crate) struct CtrlChannel {
    /// Authenticated channel state; `None` speaks the legacy plain wire.
    auth: Option<ChannelAuth>,
    /// QuACK datagrams sent.
    pub(crate) quacks_sent: u64,
    /// QuACK bytes sent (body + headers).
    pub(crate) quack_bytes: u64,
    /// Every other control datagram sent (hello, reset, configure).
    pub(crate) control_sent: u64,
}

impl CtrlChannel {
    /// A channel that seals and verifies all control traffic with `cfg`'s
    /// session keys.
    pub(crate) fn authenticated(cfg: AuthConfig) -> Self {
        CtrlChannel {
            auth: Some(ChannelAuth::new(cfg)),
            ..CtrlChannel::default()
        }
    }

    /// Encodes `msg` and sends it `to` the peer; returns the wire size in
    /// bytes (0 when refused). The datagram is stamped with the session's
    /// real flow id (so per-flow router/trace accounting sees
    /// control bytes where they belong) and flow-tagged on the wire; flow 0
    /// keeps the legacy untagged encoding. With an auth channel the encoding
    /// is additionally sealed (authenticated twin tag + envelope; see
    /// [`crate::auth`]) — `None` keeps the wire image byte-identical to
    /// pre-auth builds.
    pub(crate) fn send(&mut self, msg: SidecarMessage, to: Peer, ctx: &mut Context) -> u32 {
        let (proto, body) = match &mut self.auth {
            Some(channel) => channel.seal(&msg, to.flow.0),
            None => msg.encode_for_flow(to.flow.0),
        };
        // Enforce the single-datagram wire maximum on the final body (sealed
        // envelopes included): an oversized control message is dropped here
        // with its counter bumped, never emitted with a truncated length
        // field.
        if body.len() > MAX_BODY {
            obs::ctrl_oversized(ctx);
            return 0;
        }
        let size = HEADER_OVERHEAD + body.len() as u32;
        if matches!(msg, SidecarMessage::Quack { .. }) {
            self.quacks_sent += 1;
            self.quack_bytes += size as u64;
        } else {
            self.control_sent += 1;
        }
        let mut pkt = Packet::sidecar(to.flow, proto, body, size, ctx.now());
        obs::ctrl_sent(ctx, &msg, &mut pkt);
        ctx.send(to.iface, pkt);
        size
    }

    /// Decodes (and, with an auth channel, verifies) an inbound sidecar
    /// datagram into `(flow, message)`.
    ///
    /// With authentication the full open runs — tag-range check, envelope
    /// parse, MAC verification, replay window, inner decode — and every
    /// rejection is counted (`auth.rejected.<kind>`) and traced before the
    /// caller sees a unit `Err`. Plain (unsealed) datagrams are rejected
    /// too: an authenticated receiver accepts *only* sealed control traffic,
    /// which is what makes "zero forged/replayed datagrams accepted" hold.
    /// Without it this is exactly the legacy `decode_flow` path.
    pub(crate) fn open(
        &mut self,
        proto: u8,
        bytes: &[u8],
        ctx: &mut Context,
    ) -> Result<(FlowId, SidecarMessage), ()> {
        let opened = match &mut self.auth {
            Some(channel) => {
                let opened = channel.open(proto, bytes);
                obs::auth_outcome(ctx, opened.as_ref().err());
                opened.map_err(|_| ())
            }
            None => SidecarMessage::decode_flow(proto, bytes).map_err(|_| ()),
        };
        opened.map(|(flow, msg)| (FlowId(flow), msg))
    }
}

/// Deterministic post-restart epoch: a rebooted producer lost its epoch
/// counter along with everything else, so it derives a fresh one from the
/// clock and announces it via `Reset`. Time-derived epochs are huge
/// compared to the small consumer-bumped ones, so a restart is effectively
/// always a visible epoch change (and even a freak collision only costs
/// one consumer-driven reset round).
pub(crate) fn restart_epoch(now: SimTime) -> u32 {
    ((now.as_nanos() >> 10) as u32) | 1
}

/// The *send quACKs* role: one flow's sketch and what the role owes its
/// consumer.
pub(crate) struct ProducerHalf {
    pub(crate) producer: QuackProducer<Fp32>,
    /// The consumer this producer quACKs to.
    consumer: Peer,
}

impl ProducerHalf {
    /// A pristine producer. After a node restart (`restart_epoch` set) the
    /// old sketch died with the node, so the reborn session starts in the
    /// fresh time-derived epoch instead of colliding with the old one.
    pub(crate) fn new(cfg: SidecarConfig, consumer: Peer, restart_epoch: Option<u32>) -> Self {
        let mut producer = QuackProducer::new(cfg);
        if let Some(epoch) = restart_epoch {
            producer.reset(epoch);
        }
        ProducerHalf { producer, consumer }
    }

    /// Tells the consumer which epoch the producer is in: the handshake
    /// ack, and the post-restart announcement that stops the consumer
    /// interpreting quACKs against its stale mirror.
    pub(crate) fn announce(&self, ctrl: &mut CtrlChannel, ctx: &mut Context) {
        let epoch = self.producer.epoch();
        ctrl.send(SidecarMessage::Reset { epoch }, self.consumer, ctx);
    }

    /// Whether `msg` is control a producer built from `cfg` acts on: a
    /// `Reset`, a `Configure`, or a `Hello` offering `cfg`'s own quACK shape
    /// (vetted and recorded here). Only such a message may create or touch
    /// a session.
    pub(crate) fn accepts(cfg: &SidecarConfig, msg: &SidecarMessage, ctx: &mut Context) -> bool {
        match msg {
            SidecarMessage::Hello { .. } => {
                let accepted = offers_shape(cfg, msg);
                obs::handshake(ctx, accepted);
                accepted
            }
            SidecarMessage::Reset { .. } | SidecarMessage::Configure { .. } => true,
            SidecarMessage::Quack { .. } => false,
        }
    }

    /// Applies one [accepted](Self::accepts) control message.
    pub(crate) fn on_control(
        &mut self,
        msg: SidecarMessage,
        ctrl: &mut CtrlChannel,
        ctx: &mut Context,
    ) {
        match msg {
            SidecarMessage::Configure { interval } => self.producer.set_interval(interval),
            SidecarMessage::Reset { epoch } => self.producer.reset(epoch),
            // The `Reset` reply doubles as the handshake ack. A startup
            // Hello (pristine sketch) keeps the epoch, so the handshake
            // costs nothing; a recovery Hello — the sketch already counts
            // packets the consumer no longer tracks — starts a fresh one.
            SidecarMessage::Hello { .. } => {
                if self.producer.count() != 0 {
                    let epoch = self.producer.epoch().wrapping_add(1);
                    self.producer.reset(epoch);
                }
                self.announce(ctrl, ctx);
            }
            SidecarMessage::Quack { .. } => {}
        }
    }

    /// Seals the sketch into a quACK and sends it to the consumer.
    pub(crate) fn emit(&mut self, ctrl: &mut CtrlChannel, ctx: &mut Context) {
        let fill = self.producer.burst_fill();
        let msg = self.producer.emit();
        let bytes = ctrl.send(msg, self.consumer, ctx);
        let (epoch, count) = (self.producer.epoch(), self.producer.count());
        obs::quack_emitted(ctx, epoch, count, fill, bytes);
    }
}

/// What a consumer half made of one datagram from its producer.
pub(crate) enum Feedback {
    /// A quACK decoded: apply the report, then [`ConsumerHalf::flush`].
    Report(QuackReport),
    /// Anything else; supervise next. On `overflow` (a quACK past the
    /// threshold or with an inconsistent count, §3.3) both sides already
    /// moved to a fresh epoch. `leftovers` are the mirror entries a resync or
    /// the producer's `Reset` dropped. `degraded`: the error budget ran out
    /// and the session fell back *now* — apply the protocol's baseline
    /// fallback.
    Supervise {
        overflow: bool,
        leftovers: Vec<LogEntry>,
        degraded: bool,
    },
}

/// Supervisor outcomes summed over sessions.
#[derive(Clone, Copy, Default)]
pub(crate) struct SupTally {
    pub(crate) degradations: u64,
    pub(crate) recoveries: u64,
}

impl SupTally {
    /// Folds one session's outcomes in (at reclaim, or for a live total).
    pub(crate) fn add(&mut self, half: &ConsumerHalf) {
        self.degradations += half.supervisor.stats.degradations;
        self.recoveries += half.supervisor.stats.recoveries;
    }
}

/// The *receive quACKs* role: one flow's mirror log under supervision.
///
/// Whenever the supervisor degrades the session the half drops its own
/// mirror (so a degraded session has no grace deadlines and decodes
/// nothing); the caller swaps in the rest of its baseline.
pub(crate) struct ConsumerHalf {
    pub(crate) consumer: QuackConsumer<Fp32>,
    /// Session supervision: hello handshake, liveness, degraded fallback.
    pub(crate) supervisor: Supervisor,
    /// The producer whose quACKs this half consumes.
    pub(crate) producer: Peer,
}

impl ConsumerHalf {
    /// A connecting session. `in_transit_window` ≈ one segment RTT.
    pub(crate) fn new(
        cfg: SidecarConfig,
        in_transit_window: SimDuration,
        supervision: SupervisionConfig,
        producer: Peer,
    ) -> Self {
        ConsumerHalf {
            consumer: QuackConsumer::new(cfg, in_transit_window),
            supervisor: Supervisor::new(supervision),
            producer,
        }
    }

    /// Whether sidecar processing runs for this session (not degraded).
    pub(crate) fn enabled(&self) -> bool {
        self.supervisor.enabled()
    }

    /// Mirrors one packet sent toward the producer, whose receipt the
    /// sidecar now owes a confirmation for.
    pub(crate) fn record_sent(&mut self, id: u64, tag: u64, now: SimTime) {
        self.consumer.record_sent(id, tag, now);
        self.supervisor.note_send(now);
    }

    /// Drops the mirror by moving to a fresh epoch (the producer learns it
    /// from the recovery handshake).
    fn drop_mirror(&mut self) {
        let epoch = self.consumer.epoch().wrapping_add(1);
        let _ = self.consumer.reset(epoch);
    }

    /// Runs one quACK through the mirror and the supervisor. An overflow
    /// resets both sides to a fresh epoch (§3.3; wrapping — epochs are
    /// compared by equality, so `u32::MAX -> 0` resyncs fine) before the
    /// error is charged to the session.
    ///
    /// A quACK of another size than this session's shape, before the
    /// producer has answered, comes from a producer of another shape: one
    /// that refuses the offer. It is not decoded or charged; liveness takes
    /// the flow end to end.
    pub(crate) fn on_quack(
        &mut self,
        epoch: u32,
        bytes: &[u8],
        ctrl: &mut CtrlChannel,
        ctx: &mut Context,
    ) -> Feedback {
        let connecting = self.supervisor.state() == SupervisorState::Connecting;
        if connecting && bytes.len() != self.consumer.config().quack_bytes() {
            return Feedback::Supervise {
                overflow: false,
                leftovers: Vec::new(),
                degraded: false,
            };
        }
        let now = ctx.now();
        let result = self.consumer.process_quack(now, epoch, bytes);
        obs::quack_outcome(ctx, self.producer.flow.0, &result);
        let err = match result {
            Ok(report) => {
                self.supervisor.on_feedback_ok(now);
                return Feedback::Report(report);
            }
            Err(err) => err,
        };
        let overflow = matches!(
            err,
            ProcessError::ThresholdExceeded { .. } | ProcessError::CountInconsistent
        );
        let mut leftovers = Vec::new();
        if overflow {
            let epoch = self.consumer.epoch().wrapping_add(1);
            leftovers = self.consumer.reset(epoch);
            ctrl.send(SidecarMessage::Reset { epoch }, self.producer, ctx);
        }
        // Stale quACKs refresh liveness inside the supervisor; wrong-epoch
        // and malformed ones burn the error budget.
        let degraded = self.supervisor.on_quack_error(&err, now);
        if degraded {
            self.drop_mirror();
        }
        Feedback::Supervise {
            overflow,
            leftovers,
            degraded,
        }
    }

    /// The producer's `Reset` — its handshake ack, or its post-restart
    /// epoch announcement: adopt the epoch and mark the session live.
    /// Returns the mirror entries the adoption dropped and whether this
    /// recovered a degraded session. Supervise next.
    pub(crate) fn on_reset(&mut self, epoch: u32, now: SimTime) -> (Vec<LogEntry>, bool) {
        let leftovers = if epoch != self.consumer.epoch() {
            self.consumer.reset(epoch)
        } else {
            Vec::new()
        };
        (leftovers, self.supervisor.on_handshake_ack(now))
    }

    /// An undecodable control datagram (corruption, failed authentication)
    /// attributed to this session: a hard error against its budget, never a
    /// panic. Returns `true` when the session fell back *now*. Supervise
    /// next.
    pub(crate) fn on_undecodable(&mut self, now: SimTime) -> bool {
        let degraded = self.supervisor.note_error(now);
        if degraded {
            self.drop_mirror();
        }
        degraded
    }

    /// First half of supervision: the liveness check. `expecting` says
    /// whether confirmations are still owed (liveness never trips on an
    /// idle session). On `degraded_now` apply the protocol's baseline
    /// fallback *before* [`ConsumerHalf::follow_up`], whose recovery hello must
    /// follow whatever the fallback flushes onto the wire.
    pub(crate) fn liveness(&mut self, now: SimTime, expecting: bool) -> PollOutcome {
        let outcome = self.supervisor.poll(now, expecting);
        if outcome.degraded_now {
            self.drop_mirror();
        }
        outcome
    }

    /// Second half: send the hello (re)offer if one is due and keep the
    /// node's shared supervision chain `sup` armed — every fire polls all
    /// of the node's sessions, so the earliest deadline wins.
    pub(crate) fn follow_up(
        &mut self,
        outcome: PollOutcome,
        ctrl: &mut CtrlChannel,
        sup: &mut GuardedTimer,
        ctx: &mut Context,
    ) {
        if outcome.send_hello {
            ctrl.send(offer(self.consumer.config()), self.producer, ctx);
        }
        if let Some(deadline) = outcome.next_deadline {
            sup.arm(deadline, ctx);
        }
        self.flush(ctx);
    }

    /// Publishes the supervisor edges taken since the last flush.
    pub(crate) fn flush(&mut self, ctx: &mut Context) {
        obs::sup_flush(ctx, &mut self.supervisor);
    }
}
