//! §2.3 In-network retransmission (paper Fig. 4).
//!
//! Two proxies bracket a lossy subpath. The receiver-side proxy quACKs the
//! identifiers it has seen; the sender-side proxy buffers every data packet
//! it forwards and retransmits the ones the quACKs reveal as lost —
//! recovering losses within the (short) subpath RTT instead of the (long)
//! end-to-end RTT. Neither end host participates at all.
//!
//! The sender-side proxy also measures the subpath loss ratio and tunes the
//! quACK frequency through sidecar `Configure` messages: "the interval at
//! which the receiver-side proxy produces and transmits the quACK is
//! flexible, as it should ideally depend on the loss ratio" (§2.3, §4.3:
//! target a constant `t` missing packets per quACK).

use crate::config::{AuthConfig, QuackFrequency, SidecarConfig, SupervisionConfig};
use crate::flows::{FlowTable, FlowTableConfig};
use crate::messages::SidecarMessage;
use crate::protocols::proxy::{ConsumerSpec, Halves, ProxyCore};
use crate::protocols::session::{ConsumerHalf, CtrlChannel, Feedback, Peer, ProducerHalf};
use crate::protocols::{obs, FaultScript, GuardedTimer, Harness, ScenarioReport};
use sidecar_netsim::link::LinkConfig;
use sidecar_netsim::node::{Context, IfaceId, Node};
use sidecar_netsim::packet::{FlowId, Packet, PacketKind, Payload};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{
    CcAlgorithm, ReceiverConfig, ReceiverNode, SenderConfig, SenderNode,
};
use sidecar_netsim::Forwarder;
use std::any::Any;
use std::collections::{HashMap, VecDeque};

/// Timer tokens (low 32 bits; per-flow timers carry the flow id in the
/// high 32 bits).
const TOKEN_EMIT: u64 = 1;
const TOKEN_GRACE: u64 = 2;
const TOKEN_SUPERVISE: u64 = 3;

/// Per-flow timer token: base token in the low word, flow id in the high.
fn flow_token(base: u64, flow: FlowId) -> u64 {
    base | ((flow.0 as u64) << 32)
}

/// Splits a timer token into `(base, flow)`.
fn split_token(token: u64) -> (u64, FlowId) {
    (token & 0xFFFF_FFFF, FlowId((token >> 32) as u32))
}

/// One flow's consumer-side session inside the sender-side proxy: the
/// supervised mirror, the retransmission buffer, and the loss-ratio window.
struct ConsumerSession {
    half: ConsumerHalf,
    /// Buffered copies of forwarded data packets, by tag.
    buffer: HashMap<u64, Packet>,
    /// Tags in insertion order for eviction, front always buffered (see
    /// [`ConsumerSession::release`]).
    order: VecDeque<u64>,
    next_tag: u64,
    /// Loss-ratio measurement for frequency tuning.
    window_sent: u64,
    window_lost: u64,
    /// When the measurement window started.
    window_start: SimTime,
    /// Last interval requested from the producer.
    requested_interval: Option<SimDuration>,
}

impl Halves for ConsumerSession {
    type Spec = ConsumerSpec;

    /// A connecting mirror of what crosses the subpath, and an empty buffer.
    fn build(spec: &Self::Spec, flow: FlowId, _: Option<u32>, now: SimTime) -> Self {
        let &(cfg, window, supervision) = spec;
        ConsumerSession {
            half: ConsumerHalf::new(cfg, window, supervision, Peer::new(flow, IfaceId(1))),
            buffer: HashMap::new(),
            order: VecDeque::new(),
            next_tag: 0,
            window_sent: 0,
            window_lost: 0,
            window_start: now,
            requested_interval: None,
        }
    }

    fn consumer(&self) -> Option<&ConsumerHalf> {
        Some(&self.half)
    }

    fn consumer_mut(&mut self) -> Option<&mut ConsumerHalf> {
        Some(&mut self.half)
    }
}

impl ConsumerSession {
    /// Mirrors and buffers one packet about to cross the subpath, under a
    /// fresh tag. A retransmitted packet keeps its identifier (identical
    /// ciphertext), so the far sidecar's multiset stays consistent.
    fn track(&mut self, pkt: &Packet, buffer_cap: usize, now: SimTime) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.half.consumer.record_sent(pkt.id, tag, now);
        if self.buffer.len() >= buffer_cap {
            // Evict the oldest buffered copy.
            if let Some(&oldest) = self.order.front() {
                self.release(oldest);
            }
        }
        self.buffer.insert(tag, pkt.clone());
        self.order.push_back(tag);
        self.window_sent += 1;
    }

    /// Takes `tag`'s copy out of the buffer, then drops the tags at the
    /// front of `order` whose copies are gone, so `order` always starts at
    /// the oldest buffered copy instead of keeping a tag for every packet
    /// the flow ever sent. Only releasing the front can expose such tags.
    fn release(&mut self, tag: u64) -> Option<Packet> {
        let pkt = self.buffer.remove(&tag);
        if self.order.front() == Some(&tag) {
            self.order.pop_front();
            while let Some(front) = self.order.front() {
                if self.buffer.contains_key(front) {
                    break;
                }
                self.order.pop_front();
            }
        }
        pkt
    }

    /// Baseline fallback: drop every piece of sidecar state (the half has
    /// already dropped its mirror). The node keeps forwarding, so the flow
    /// degrades to exactly the no-sidecar path and end-to-end recovery owns
    /// all retransmissions.
    fn enter_degraded(&mut self) {
        self.buffer.clear();
        self.order.clear();
        self.window_sent = 0;
        self.window_lost = 0;
        self.requested_interval = None;
    }

    /// One supervision step: the buffer is the traffic the session still
    /// holds, and dropping it is the fallback.
    fn supervise(&mut self, ctrl: &mut CtrlChannel, sup: &mut GuardedTimer, ctx: &mut Context) {
        let outcome = self.half.poll(!self.buffer.is_empty(), ctx.now());
        if outcome.degraded_now {
            self.enter_degraded();
        }
        self.half.follow_up(outcome, ctrl, sup, ctx);
    }

    /// §4.3: pick the emission interval so a quACK window carries roughly
    /// `t/2` missing packets at the observed loss ratio and packet rate:
    /// "the sender who configures this frequency could target a constant
    /// t = 20 missing packets per quACK. If the link is relatively stable,
    /// the sender-side proxy could decrease the frequency".
    fn retune_frequency(
        &mut self,
        max_interval: SimDuration,
        ctrl: &mut CtrlChannel,
        ctx: &mut Context,
    ) {
        if self.window_sent < 200 {
            return; // not enough signal yet
        }
        let elapsed = (ctx.now() - self.window_start).as_secs_f64();
        if elapsed <= 0.0 {
            return;
        }
        let loss_ratio = (self.window_lost as f64 / self.window_sent as f64).max(1e-4);
        let packet_rate = self.window_sent as f64 / elapsed; // packets/s
        self.window_sent = 0;
        self.window_lost = 0;
        self.window_start = ctx.now();
        // Interval such that expected missing per quACK ≈ t/2:
        // loss_ratio · packet_rate · interval = t/2.
        let target_missing = self.half.consumer.config().threshold as f64 / 2.0;
        let seconds = target_missing / (loss_ratio * packet_rate);
        let cap = max_interval.as_secs_f64().max(0.004);
        let new_interval = SimDuration::from_secs_f64(seconds.clamp(0.002, cap));
        let changed = match self.requested_interval {
            Some(prev) => {
                let ratio = new_interval.as_nanos() as f64 / prev.as_nanos().max(1) as f64;
                !(0.5..=2.0).contains(&ratio)
            }
            None => true,
        };
        if changed {
            self.requested_interval = Some(new_interval);
            let msg = SidecarMessage::Configure {
                interval: new_interval,
            };
            ctrl.send(msg, self.half.producer, ctx);
        }
    }
}

/// The sender-side proxy (right-hand side of paper Fig. 4): forwards,
/// buffers, consumes quACKs, retransmits, and tunes the quACK frequency —
/// per flow, muxed through a bounded [`FlowTable`].
///
/// [`FlowTable`]: crate::flows::FlowTable
pub struct SenderSideProxy {
    core: ProxyCore<ConsumerSession>,
    /// Maximum buffered packets per flow.
    buffer_cap: usize,
    /// Upper bound on the requested interval: recovery latency is roughly
    /// one interval plus a subpath RTT, so the cap keeps in-network
    /// recovery meaningfully faster than end-to-end recovery even on very
    /// stable links (where the pure §4.3 bandwidth target would stretch
    /// the interval arbitrarily).
    max_interval: SimDuration,
    /// In-network retransmissions performed (all flows).
    pub retransmitted: u64,
    /// Sidecar control messages sent (all flows; mirrors the control
    /// channel's counter after every callback).
    pub control_sent: u64,
}

impl SenderSideProxy {
    /// Creates the proxy. `in_transit_window` ≈ one subpath RTT.
    pub fn new(
        cfg: SidecarConfig,
        in_transit_window: SimDuration,
        buffer_cap: usize,
        supervision: SupervisionConfig,
    ) -> Self {
        let spec = (cfg, in_transit_window, supervision);
        SenderSideProxy {
            core: ProxyCore::new(spec, TOKEN_GRACE, TOKEN_SUPERVISE),
            buffer_cap,
            max_interval: in_transit_window.saturating_mul(2),
            retransmitted: 0,
            control_sent: 0,
        }
    }

    /// Sizes the flow table explicitly.
    pub fn with_flow_table(mut self, table: FlowTableConfig) -> Self {
        self.core.table = FlowTable::new(table);
        self
    }

    /// Seals and verifies all control traffic with `cfg`'s session keys.
    pub fn with_auth(mut self, cfg: AuthConfig) -> Self {
        self.core.ctrl = CtrlChannel::authenticated(cfg);
        self
    }

    /// Live per-flow sessions.
    pub fn live_flows(&self) -> usize {
        self.core.table.len()
    }

    /// Supervisor degradations summed over live and reclaimed sessions.
    pub fn degradations(&self) -> u64 {
        self.core.tally().degradations
    }

    /// Supervisor recoveries summed over live and reclaimed sessions.
    pub fn recoveries(&self) -> u64 {
        self.core.tally().recoveries
    }

    /// From the subpath side: the producer's control traffic.
    fn on_control(&mut self, datagram_flow: FlowId, proto: u8, bytes: &[u8], ctx: &mut Context) {
        let consumed = self.core.consumer_control(datagram_flow, proto, bytes, ctx);
        let Some((flow, feedback)) = consumed else {
            return;
        };
        let Some(session) = self.core.table.peek_mut(flow) else {
            return;
        };
        match feedback {
            Feedback::Report(report) => {
                // Flight recorder: the decode just revealed these packets
                // missing on the subpath (the buffered copy knows their
                // data identity).
                for &(_, tag) in &report.newly_missing {
                    if let Some(pkt) = session.buffer.get(&tag) {
                        obs::decode_missing(ctx, pkt.flow.0, pkt.seq);
                    }
                }
                // Free buffer space for confirmed-received packets.
                for &(_, tag) in &report.received {
                    session.release(tag);
                }
                session.half.flush(ctx);
                self.core.arm_grace(ctx);
            }
            Feedback::Supervise {
                leftovers,
                degraded,
                ..
            } => {
                for entry in leftovers {
                    session.release(entry.tag);
                }
                if degraded {
                    session.enter_degraded();
                }
                session.supervise(&mut self.core.ctrl, &mut self.core.sup, ctx);
            }
        }
    }

    fn fire_grace(&mut self, ctx: &mut Context) {
        let now = ctx.now();
        for (_, session) in self.core.table.iter_mut() {
            if !session.half.enabled() {
                continue;
            }
            for loss in session.half.consumer.poll_expired(now) {
                session.window_lost += 1;
                if let Some(pkt) = session.release(loss.tag) {
                    // Retransmit the identical ciphertext, re-recorded
                    // under a fresh tag.
                    session.track(&pkt, self.buffer_cap, now);
                    obs::proxy_retx(ctx, pkt.flow.0, pkt.seq);
                    ctx.send(IfaceId(1), pkt);
                    self.retransmitted += 1;
                }
            }
            session.retune_frequency(self.max_interval, &mut self.core.ctrl, ctx);
        }
        self.core.arm_grace(ctx);
    }

    fn supervise_all(&mut self, ctx: &mut Context) {
        // Reap idle flows first so finished flows stop being polled (and
        // their buffers freed).
        self.core.reap_idle(ctx);
        for (_, session) in self.core.table.iter_mut() {
            session.supervise(&mut self.core.ctrl, &mut self.core.sup, ctx);
        }
        obs::flow_table(ctx, &mut self.core.table);
    }
}

impl Node for SenderSideProxy {
    fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context) {
        match iface {
            // From the server side: forward data downstream, buffering it
            // (unless that flow is degraded, in which case the proxy is a
            // plain forwarder for it).
            IfaceId(0) => {
                if packet.kind == PacketKind::Data {
                    let now = ctx.now();
                    let (_, slot) = self.core.ensure(packet.flow, true, ctx);
                    if let Some((_, session)) = self.core.table.slot_entry_mut(slot) {
                        if session.half.enabled() {
                            session.track(&packet, self.buffer_cap, now);
                            session.half.supervisor.note_send(now);
                        }
                    }
                    obs::flow_table(ctx, &mut self.core.table);
                }
                ctx.send(IfaceId(1), packet);
            }
            // From the subpath side: quACKs are consumed, the rest forwarded.
            IfaceId(1) => match packet.payload {
                Payload::Sidecar { proto, ref bytes } => {
                    self.on_control(packet.flow, proto, bytes, ctx)
                }
                _ => ctx.send(IfaceId(0), packet),
            },
            other => panic!("sender-side proxy has 2 interfaces, got {other:?}"),
        }
        self.control_sent = self.core.ctrl.control_sent;
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        match token {
            // Superseded chains are cancelled in the queue; `fire` filters
            // the rare stragglers (chains orphaned by a crash).
            TOKEN_GRACE if self.core.grace.fire(ctx) => self.fire_grace(ctx),
            TOKEN_SUPERVISE if self.core.sup.fire(ctx) => self.supervise_all(ctx),
            _ => {}
        }
        self.control_sent = self.core.ctrl.control_sent;
    }

    fn on_restart(&mut self, ctx: &mut Context) {
        // A crashed proxy lost every flow's buffer, mirror log, and
        // session: come back as a plain forwarder and re-handshake each
        // flow from scratch as its packets reappear.
        self.core.restart(ctx);
    }

    fn name(&self) -> &str {
        "retx-sender-proxy"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One flow's producer-side session inside the receiver-side proxy.
struct ProducerSession {
    half: ProducerHalf,
    /// Earliest instant the flow's emit-timer chain may legitimately fire;
    /// an earlier fire is a stale duplicate chain and dies unanswered.
    next_emit: SimTime,
}

impl Halves for ProducerSession {
    type Spec = SidecarConfig;

    /// A pristine sketch whose emit chain is not yet armed.
    fn build(cfg: &SidecarConfig, flow: FlowId, epoch: Option<u32>, now: SimTime) -> Self {
        ProducerSession {
            half: ProducerHalf::build(cfg, flow, epoch, now),
            next_emit: now,
        }
    }

    fn producer(&mut self) -> Option<&mut ProducerHalf> {
        Some(&mut self.half)
    }
}

/// The receiver-side proxy (left-hand side of paper Fig. 4): forwards,
/// observes identifiers, emits quACKs upstream on an adaptive interval —
/// one sketch, epoch, and emit-timer chain per flow. Folds are batched
/// (quACK emission is timer-driven), and a flow's own emit timer is its
/// idle reaper.
pub struct ReceiverSideProxy {
    core: ProxyCore<ProducerSession>,
    /// QuACK datagrams emitted (all flows; mirrors the control channel's
    /// counter after every emission).
    pub quacks_sent: u64,
    /// QuACK bytes emitted (body + headers, all flows).
    pub quack_bytes: u64,
}

impl ReceiverSideProxy {
    /// Creates the proxy.
    pub fn new(cfg: SidecarConfig) -> Self {
        ReceiverSideProxy {
            // No consumer half, so neither shared chain is ever armed.
            core: ProxyCore::new(cfg, 0, 0),
            quacks_sent: 0,
            quack_bytes: 0,
        }
    }

    /// Sizes the flow table explicitly.
    pub fn with_flow_table(mut self, table: FlowTableConfig) -> Self {
        self.core.table = FlowTable::new(table);
        self
    }

    /// Seals and verifies all control traffic with `cfg`'s session keys.
    pub fn with_auth(mut self, cfg: AuthConfig) -> Self {
        self.core.ctrl = CtrlChannel::authenticated(cfg);
        self
    }

    /// Live per-flow sessions.
    pub fn live_flows(&self) -> usize {
        self.core.table.len()
    }

    /// Starts (or restarts) `flow`'s emit chain one interval from now.
    fn arm(&mut self, flow: FlowId, ctx: &mut Context) {
        let now = ctx.now();
        let Some(session) = self.core.table.peek_mut(flow) else {
            return;
        };
        if let Some(interval) = session.half.producer.interval() {
            session.next_emit = now + interval;
            ctx.set_timer_after(interval, flow_token(TOKEN_EMIT, flow));
        }
    }
}

impl Node for ReceiverSideProxy {
    fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context) {
        match iface {
            // From the subpath: observe data identifiers, forward downstream.
            IfaceId(0) => match packet.payload {
                Payload::Sidecar { proto, ref bytes } => {
                    // Control can reset or read a sketch; fold first.
                    self.core.flush_folds(ctx);
                    if let Ok((flow, msg)) = self.core.ctrl.open(proto, bytes, ctx) {
                        if self.core.producer_control(flow, msg, false, ctx) {
                            self.arm(flow, ctx);
                        }
                    }
                    obs::flow_table(ctx, &mut self.core.table);
                }
                _ => {
                    if packet.kind == PacketKind::Data {
                        // O(1) mux: one index probe ensures the session and
                        // refreshes its LRU clock; the identifier rides the
                        // fold buffer to the sketch in a slot-bucketed
                        // batch (interleaved arrivals regroup per flow).
                        let (created, slot) = self.core.ensure(packet.flow, true, ctx);
                        if created {
                            self.arm(packet.flow, ctx);
                        }
                        self.core.fold(slot, packet.id, ctx);
                        obs::observed(ctx, packet.flow.0, packet.seq);
                        obs::flow_table(ctx, &mut self.core.table);
                    }
                    ctx.send(IfaceId(1), packet);
                }
            },
            // From the client side: forward upstream untouched.
            IfaceId(1) => ctx.send(IfaceId(0), packet),
            other => panic!("receiver-side proxy has 2 interfaces, got {other:?}"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        let (base, flow) = split_token(token);
        if base != TOKEN_EMIT {
            return;
        }
        // Pending folds must reach the sketch before the reaper looks at
        // the table (an eviction would discard them as stale) and before
        // the sketch is sealed into a quACK.
        self.core.flush_folds(ctx);
        // An idle flow's own timer is its reaper: evict, report, and let
        // the chain die so finished flows stop costing emissions.
        if self.core.reap_if_idle(flow, ctx) {
            obs::flow_table(ctx, &mut self.core.table);
            return;
        }
        match self.core.table.peek_mut(flow) {
            // Stale duplicate chain (the session was recreated and armed a
            // new one): drop this fire, the newer chain owns emission.
            Some(session) if ctx.now() < session.next_emit => {}
            Some(session) => {
                session.half.emit(&mut self.core.ctrl, ctx);
                self.quacks_sent = self.core.ctrl.quacks_sent;
                self.quack_bytes = self.core.ctrl.quack_bytes;
                self.arm(flow, ctx);
            }
            None => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Context) {
        // Every multiset is gone; continuing old epochs would decode
        // garbage. Each flow announces the fresh epoch lazily as its data
        // reappears.
        self.core.restart(ctx);
    }

    fn name(&self) -> &str {
        "retx-receiver-proxy"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Scenario parameters for the in-network retransmission experiment.
///
/// For in-network recovery to pay off, it must complete before the server's
/// own loss detection reacts — which means the client's end-to-end ACK
/// cadence must be slower than one subpath round trip plus the quACK
/// interval (true of satellite-style paths, and exactly the regime the
/// paper and the LOOPS draft target). The default client therefore ACKs
/// sparsely; both the sidecar run and the baseline use the same client.
#[derive(Clone, Debug)]
pub struct RetxScenario {
    /// Data units the server must deliver.
    pub total_packets: u64,
    /// Server↔sender-side-proxy segment.
    pub edge_a: LinkConfig,
    /// The lossy subpath between the proxies.
    pub subpath: LinkConfig,
    /// Receiver-side-proxy↔client segment.
    pub edge_b: LinkConfig,
    /// Sidecar parameters.
    pub sidecar: SidecarConfig,
    /// Server congestion control.
    pub cc: CcAlgorithm,
    /// Sender-side proxy buffer capacity (packets).
    pub buffer_cap: usize,
    /// Client transport configuration (shared by both variants).
    pub client: ReceiverConfig,
    /// Session supervision knobs for the sender-side proxy.
    pub supervision: SupervisionConfig,
    /// Pre-shared-secret control-channel authentication. `Some` seals every
    /// sidecar datagram between the proxy pair (each proxy gets a distinct
    /// session nonce); `None` keeps the wire image byte-identical to
    /// pre-auth builds. End hosts never participate either way.
    pub auth: Option<AuthConfig>,
    /// Flight-recorder ring capacity override (events). `None` keeps the
    /// obs default; analysis runs (`exp_reaction`) raise it so a full
    /// scenario's lifecycle fits without truncation.
    pub trace_capacity: Option<usize>,
    /// Metrics time-series sampling interval on the sim clock. `Some(i)`
    /// drives the run through `sidecar_netsim::telemetry::run_sampled`,
    /// attaching a windowed `sidecar_obs::TimeSeries` to the report —
    /// deterministic for a given `(scenario, seed)`, so the series is
    /// golden-testable. `None` (the default) skips sampling entirely.
    pub sample_interval: Option<SimDuration>,
}

impl Default for RetxScenario {
    fn default() -> Self {
        RetxScenario {
            total_packets: 2_000,
            edge_a: LinkConfig {
                rate_bps: 100_000_000,
                delay: SimDuration::from_millis(25),
                ..LinkConfig::default()
            },
            subpath: LinkConfig {
                rate_bps: 20_000_000,
                delay: SimDuration::from_millis(5),
                loss: sidecar_netsim::link::LossModel::Bernoulli { p: 0.02 },
                ..LinkConfig::default()
            },
            edge_b: LinkConfig {
                rate_bps: 100_000_000,
                delay: SimDuration::from_millis(2),
                ..LinkConfig::default()
            },
            sidecar: SidecarConfig {
                frequency: QuackFrequency::Adaptive(SimDuration::from_millis(5)),
                reorder_grace: SimDuration::from_millis(3),
                ..SidecarConfig::paper_default()
            },
            cc: CcAlgorithm::NewReno,
            buffer_cap: 4_096,
            // Sparse end-to-end ACKs: one per 32 packets (≈19 ms at the
            // 20 Mbit/s bottleneck), no immediate gap-ACKs — so in-network
            // recovery (quACK interval + grace + subpath one-way ≈ 13 ms)
            // fills holes before the server ever hears about them.
            client: ReceiverConfig {
                ack_every: 32,
                max_ack_delay: SimDuration::from_millis(50),
                immediate_on_gap: false,
                ..ReceiverConfig::default()
            },
            supervision: SupervisionConfig::default(),
            auth: None,
            trace_capacity: None,
            sample_interval: None,
        }
    }
}

impl RetxScenario {
    /// Runs the scenario with sidecar proxies.
    pub fn run_sidecar(&self, seed: u64) -> ScenarioReport {
        self.run_sidecar_faulted(seed, &FaultScript::default())
    }

    /// Runs the baseline: identical topology with plain forwarders.
    pub fn run_baseline(&self, seed: u64) -> ScenarioReport {
        self.run_baseline_faulted(seed, &FaultScript::default())
    }

    /// Sidecar run with scripted faults (crash hits the sender-side proxy;
    /// blackout hits the subpath between the proxies).
    pub fn run_sidecar_faulted(&self, seed: u64, faults: &FaultScript) -> ScenarioReport {
        self.run(seed, true, faults)
    }

    /// Baseline twin under the identical fault script.
    pub fn run_baseline_faulted(&self, seed: u64, faults: &FaultScript) -> ScenarioReport {
        self.run(seed, false, faults)
    }

    fn run(&self, seed: u64, sidecar: bool, faults: &FaultScript) -> ScenarioReport {
        let mut h = Harness::new(seed, self.trace_capacity);
        let server = h.w.add_node(SenderNode::boxed(SenderConfig {
            total_packets: Some(self.total_packets),
            cc: self.cc,
            id_seed: seed ^ 0xA5A5,
            // PTO absorbs the sparse client's ACK cadence.
            peer_max_ack_delay: self.client.max_ack_delay + SimDuration::from_millis(50),
            ..SenderConfig::default()
        }));
        // Subpath RTT for the in-transit window: 2 × one-way delay plus
        // slack.
        let subpath_rtt = self.subpath.delay * 2 + SimDuration::from_millis(2);
        let (proxy_a, proxy_b) = if sidecar {
            let mut a =
                SenderSideProxy::new(self.sidecar, subpath_rtt, self.buffer_cap, self.supervision);
            let mut b = ReceiverSideProxy::new(self.sidecar);
            if let Some(auth) = self.auth {
                // Distinct per-proxy nonces keep each direction's replay
                // window independent (and the runs deterministic).
                a = a.with_auth(auth.with_nonce(1));
                b = b.with_auth(auth.with_nonce(2));
            }
            (h.w.add_node(Box::new(a)), h.w.add_node(Box::new(b)))
        } else {
            (
                h.w.add_node(Forwarder::boxed()),
                h.w.add_node(Forwarder::boxed()),
            )
        };
        let client = h.w.add_node(ReceiverNode::boxed(self.client.clone()));
        h.sample = self.sample_interval;
        // The crash hits the sender-side proxy, the blackout the subpath.
        h.run_line(
            &[server, proxy_a, proxy_b, client],
            &[&self.edge_a, &self.subpath, &self.edge_b],
            faults,
        );

        let mut report = Harness::report(
            h.w.node_as::<SenderNode>(server).core(),
            h.w.node_as::<ReceiverNode>(client).stats().acks_sent,
        );
        if sidecar {
            let a = h.w.node_as::<SenderSideProxy>(proxy_a);
            report.proxy_retransmissions = a.retransmitted;
            report.degradations = a.degradations();
            report.recoveries = a.recoveries();
            let b = h.w.node_as::<ReceiverSideProxy>(proxy_b);
            report.sidecar_messages = b.quacks_sent + a.control_sent;
            report.sidecar_bytes = b.quack_bytes;
            // Sidecar runs only, so baselines keep the empty default.
            h.export_obs(&mut report);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidecar_netsim::link::LossModel;

    #[test]
    fn flow_completes_with_in_network_retx() {
        let scenario = RetxScenario {
            total_packets: 500,
            ..RetxScenario::default()
        };
        let report = scenario.run_sidecar(1);
        assert!(report.completion.is_some(), "{report:?}");
        assert!(report.proxy_retransmissions > 0, "{report:?}");
        assert!(report.sidecar_messages > 0);
    }

    #[test]
    fn sampled_run_attaches_deterministic_timeseries_and_scoreboard() {
        let scenario = RetxScenario {
            total_packets: 500,
            sample_interval: Some(SimDuration::from_secs(5)),
            ..RetxScenario::default()
        };
        let a = scenario.run_sidecar(7);
        let b = scenario.run_sidecar(7);
        assert_eq!(a.timeseries.render(), b.timeseries.render());
        assert!(!a.timeseries.is_empty());
        // The first window covers the active transfer: the quACK send rate
        // must be visibly non-zero there.
        let first = a.timeseries.points().next().expect("has points");
        let quack_rate = first
            .rates
            .iter()
            .find(|(n, _)| n == "sidecar.sent.quack")
            .map(|(_, r)| *r)
            .expect("quack rate track");
        assert!(quack_rate > 0.0, "{first:?}");
        // Proxy retransmissions feed the scoreboard, so the lossy subpath
        // must surface the flow as the unhealthiest row — deterministically.
        assert_eq!(a.scoreboard, b.scoreboard);
        assert!(a.proxy_retransmissions > 0);
        let top = a.scoreboard.rows.first().expect("scoreboard has rows");
        assert!(top.retx > 0, "{top:?}");
        assert_eq!(a.scoreboard.overflow, 0);
    }

    #[test]
    fn unsampled_run_attaches_no_timeseries() {
        let scenario = RetxScenario {
            total_packets: 200,
            ..RetxScenario::default()
        };
        let report = scenario.run_sidecar(1);
        assert!(report.timeseries.is_empty());
    }

    #[test]
    fn in_network_retx_reduces_e2e_retransmissions() {
        let scenario = RetxScenario {
            total_packets: 1_000,
            ..RetxScenario::default()
        };
        let side = scenario.run_sidecar(7);
        let base = scenario.run_baseline(7);
        assert!(base.completion.is_some() && side.completion.is_some());
        assert!(
            side.server_retransmissions < base.server_retransmissions,
            "sidecar {} vs baseline {}",
            side.server_retransmissions,
            base.server_retransmissions
        );
    }

    #[test]
    fn in_network_retx_speeds_up_completion_on_lossy_subpath() {
        let scenario = RetxScenario {
            total_packets: 1_500,
            subpath: LinkConfig {
                loss: LossModel::Bernoulli { p: 0.03 },
                ..RetxScenario::default().subpath
            },
            ..RetxScenario::default()
        };
        let side = scenario.run_sidecar(21);
        let base = scenario.run_baseline(21);
        assert!(
            side.completion_secs() < base.completion_secs(),
            "sidecar {:.3}s vs baseline {:.3}s",
            side.completion_secs(),
            base.completion_secs()
        );
    }

    #[test]
    fn lossless_subpath_means_no_proxy_retx() {
        let scenario = RetxScenario {
            total_packets: 300,
            subpath: LinkConfig {
                loss: LossModel::None,
                // Deep queue so slow start cannot cause congestive drops —
                // which the proxy would (correctly) retransmit.
                queue_packets: 8_192,
                ..RetxScenario::default().subpath
            },
            ..RetxScenario::default()
        };
        let report = scenario.run_sidecar(3);
        assert!(report.completion.is_some());
        assert_eq!(report.proxy_retransmissions, 0, "{report:?}");
        assert_eq!(report.server_retransmissions, 0);
    }

    /// Confirmed packets leave the buffer, and their tags must leave the
    /// eviction queue with them: on a healthy subpath `order` may never
    /// hold more than the buffer can, and its front is the oldest copy
    /// still buffered.
    #[test]
    fn eviction_order_tracks_the_buffer_on_a_lossless_subpath() {
        let s = RetxScenario {
            subpath: LinkConfig {
                loss: LossModel::None,
                queue_packets: 8_192,
                ..RetxScenario::default().subpath
            },
            ..RetxScenario::default()
        };
        let mut h = Harness::new(1, None);
        let server = h.w.add_node(SenderNode::boxed(SenderConfig {
            total_packets: Some(10_000),
            ..SenderConfig::default()
        }));
        let rtt = s.subpath.delay * 2 + SimDuration::from_millis(2);
        let proxy = SenderSideProxy::new(s.sidecar, rtt, s.buffer_cap, s.supervision);
        let proxy = h.w.add_node(Box::new(proxy));
        let far = h.w.add_node(Box::new(ReceiverSideProxy::new(s.sidecar)));
        let client = h.w.add_node(ReceiverNode::boxed(s.client.clone()));
        let links = [&s.edge_a, &s.subpath, &s.edge_b];
        h.run_line(
            &[server, proxy, far, client],
            &links,
            &FaultScript::default(),
        );
        assert!(h.w.node_as::<SenderNode>(server).core().is_complete());
        let proxy = h.w.node_as::<SenderSideProxy>(proxy);
        assert_eq!(proxy.retransmitted, 0);
        for (_, session) in proxy.core.table.iter() {
            assert!(
                session.order.len() <= s.buffer_cap,
                "order holds {} tags for {} buffered packets",
                session.order.len(),
                session.buffer.len()
            );
            if let Some(front) = session.order.front() {
                assert!(
                    session.buffer.contains_key(front),
                    "front tag {front} is not buffered"
                );
            }
        }
    }

    #[test]
    fn deterministic_reports() {
        let scenario = RetxScenario {
            total_packets: 400,
            ..RetxScenario::default()
        };
        assert_eq!(scenario.run_sidecar(5), scenario.run_sidecar(5));
    }

    #[test]
    fn authenticated_run_completes_without_rejects() {
        let scenario = RetxScenario {
            total_packets: 400,
            auth: Some(crate::config::AuthConfig::from_secret(0xFEED_FACE, 7)),
            ..RetxScenario::default()
        };
        let report = scenario.run_sidecar(5);
        assert!(report.completion.is_some(), "{report:?}");
        assert!(report.metrics.counter("auth.accepted") > 0, "{report:?}");
        assert_eq!(report.metrics.counter_sum("auth.rejected."), 0);
        assert_eq!(scenario.run_sidecar(5), scenario.run_sidecar(5));
    }
}
