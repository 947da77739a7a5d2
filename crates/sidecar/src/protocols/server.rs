//! The quACK-receiving end host of §2.1 and §2.2.
//!
//! Both protocols install the same "library" on the server: an unchanged
//! transport sender whose every transmission is mirrored into a supervised
//! quACK consumer, with three guarded timer chains (RTO, grace,
//! supervision). They differ only in what a decoded report does to the
//! sending window and in what falling back to the end-to-end baseline
//! swaps — the [`WindowPolicy`].

use crate::config::{AuthConfig, SidecarConfig, SupervisionConfig};
use crate::endpoint::QuackReport;
use crate::messages::SidecarMessage;
use crate::protocols::session::{ConsumerHalf, CtrlChannel, Feedback, Peer};
use crate::protocols::{obs, GuardedTimer};
use crate::supervise::Supervisor;
use sidecar_netsim::node::{Context, IfaceId, Node};
use sidecar_netsim::packet::{FlowId, Packet, Payload};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{emit_sender_lifecycle, SenderCore, SenderStats};
use std::any::Any;

const TOKEN_RTO: u64 = 1;
const TOKEN_GRACE: u64 = 2;
const TOKEN_SUPERVISE: u64 = 3;

/// What quACK feedback does to the server's sending window — the one
/// decision the two server roles of paper Table 1 disagree on.
pub trait WindowPolicy: 'static {
    /// Node name for diagnostics.
    const NAME: &'static str;

    /// A quACK decoded: `report.received` were confirmed at the proxy,
    /// `report.newly_missing` went missing on the proxied segment.
    fn on_report(&mut self, report: &QuackReport, transport: &mut SenderCore, now: SimTime);

    /// The mirror overflowed (more missing than the threshold decodes):
    /// heavy loss on the segment.
    fn on_overflow(&mut self, _transport: &mut SenderCore) {}

    /// The sidecar session degraded: hand the window back to end-to-end
    /// control.
    fn enter_degraded(&mut self, _transport: &mut SenderCore) {}

    /// The session recovered by handshake: resume from wherever the
    /// fallback settled.
    fn exit_degraded(&mut self, _transport: &mut SenderCore) {}
}

/// The server end host: unchanged transport sender plus a sidecar library
/// whose quACK confirmations act on the sending window through `W`.
pub struct SidecarServer<W> {
    transport: SenderCore,
    /// Mirror of every transmission, confirmed by the proxy's quACKs.
    half: ConsumerHalf,
    /// The transport's flow id: all sidecar messages are tagged with it,
    /// and inbound sidecar traffic for other flows is ignored.
    flow: FlowId,
    ctrl: CtrlChannel,
    window: W,
    /// The shared `TOKEN_RTO` chain. `pump` runs on every packet and ACK;
    /// unguarded arming would queue one immortal timer chain per call (the
    /// accumulating-timer footgun), so the guard keeps exactly one.
    rto: GuardedTimer,
    /// The shared `TOKEN_GRACE` chain (same guard).
    grace: GuardedTimer,
    /// The shared `TOKEN_SUPERVISE` chain (same guard).
    sup: GuardedTimer,
}

impl<W: WindowPolicy> SidecarServer<W> {
    pub(crate) fn with_policy(
        transport: SenderCore,
        sidecar: SidecarConfig,
        segment_rtt: SimDuration,
        supervision: SupervisionConfig,
        window: W,
    ) -> Self {
        let flow = transport.config().flow;
        let proxy = Peer::new(flow, IfaceId(0));
        SidecarServer {
            flow,
            transport,
            half: ConsumerHalf::new(sidecar, segment_rtt, supervision, proxy),
            ctrl: CtrlChannel::default(),
            window,
            rto: GuardedTimer::new(TOKEN_RTO),
            grace: GuardedTimer::new(TOKEN_GRACE),
            sup: GuardedTimer::new(TOKEN_SUPERVISE),
        }
    }

    /// Seals and verifies all control traffic with `cfg`'s session keys.
    pub fn with_auth(mut self, cfg: AuthConfig) -> Self {
        self.ctrl = CtrlChannel::authenticated(cfg);
        self
    }

    /// Transport statistics.
    pub fn stats(&self) -> &SenderStats {
        self.transport.stats()
    }

    /// The transport core.
    pub fn core(&self) -> &SenderCore {
        &self.transport
    }

    /// Supervision of the proxy→server quACK session (state and
    /// degradation/recovery counters).
    pub fn supervisor(&self) -> &Supervisor {
        &self.half.supervisor
    }

    /// The window policy (and its counters).
    pub fn window_policy(&self) -> &W {
        &self.window
    }

    fn pump(&mut self, ctx: &mut Context) {
        // Degraded mode stops mirroring: the transport then behaves exactly
        // like a plain sender driven by end-to-end ACKs.
        let enabled = self.half.enabled();
        for pkt in self.transport.poll_send(ctx.now()) {
            if enabled {
                self.half.record_sent(pkt.id, pkt.seq, ctx.now());
            }
            ctx.send(IfaceId(0), pkt);
        }
        emit_sender_lifecycle(&mut self.transport, ctx);
        if let Some(deadline) = self.transport.next_timeout() {
            self.rto.arm(deadline, ctx);
        }
    }

    fn handle_quack(&mut self, epoch: u32, bytes: &[u8], ctx: &mut Context) {
        match self.half.on_quack(epoch, bytes, &mut self.ctrl, ctx) {
            Feedback::Report(report) => {
                // Flight recorder: mirror tags are packet numbers, so a
                // newly-missing tag IS the pn lost on the proxied segment.
                for &(_, pn) in &report.newly_missing {
                    obs::decode_missing(ctx, self.flow.0, pn);
                }
                self.window
                    .on_report(&report, &mut self.transport, ctx.now());
                self.arm_grace(ctx);
                self.half.flush(ctx);
            }
            Feedback::Supervise {
                overflow, degraded, ..
            } => {
                if overflow {
                    self.window.on_overflow(&mut self.transport);
                }
                if degraded {
                    self.window.enter_degraded(&mut self.transport);
                }
                self.supervise(ctx);
            }
        }
    }

    fn arm_grace(&mut self, ctx: &mut Context) {
        if let Some(deadline) = self.half.consumer.next_grace_deadline() {
            self.grace.arm(deadline, ctx);
        }
    }

    fn supervise(&mut self, ctx: &mut Context) {
        let expecting = !self.transport.is_complete();
        let outcome = self.half.liveness(ctx.now(), expecting);
        if outcome.degraded_now {
            self.window.enter_degraded(&mut self.transport);
        }
        self.half
            .follow_up(outcome, &mut self.ctrl, &mut self.sup, ctx);
    }
}

impl<W: WindowPolicy> Node for SidecarServer<W> {
    fn on_start(&mut self, ctx: &mut Context) {
        // Hello first: on FIFO links it reaches the proxy ahead of the
        // first data burst, so the handshake costs nothing.
        self.supervise(ctx);
        self.pump(ctx);
    }

    fn on_packet(&mut self, _iface: IfaceId, packet: Packet, ctx: &mut Context) {
        match packet.payload {
            Payload::Ack(ref info) => {
                self.transport.on_ack(info, ctx.now());
                self.pump(ctx);
            }
            Payload::Sidecar { proto, ref bytes } => {
                match self.ctrl.open(proto, bytes, ctx) {
                    // An end-host sidecar owns exactly one connection:
                    // control tagged for any other flow (misrouted, or the
                    // proxy muxing another flow) is not ours.
                    Ok((flow, _)) if flow != self.flow => obs::flow_mismatch(ctx),
                    Ok((_, SidecarMessage::Quack { epoch, bytes })) => {
                        if self.half.enabled() {
                            self.handle_quack(epoch, &bytes, ctx);
                            self.pump(ctx);
                        }
                    }
                    Ok((_, SidecarMessage::Reset { epoch })) => {
                        // Handshake ack / proxy-restart announcement.
                        let (_, recovered) = self.half.on_reset(epoch, ctx.now());
                        if recovered {
                            self.window.exit_degraded(&mut self.transport);
                        }
                        self.supervise(ctx);
                    }
                    Ok(_) => {}
                    Err(()) => {
                        // Undecodable sidecar datagram: count it against the
                        // session, never panic or mis-steer.
                        if self.half.on_undecodable(ctx.now()) {
                            self.window.enter_degraded(&mut self.transport);
                        }
                        self.supervise(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        match token {
            TOKEN_SUPERVISE if self.sup.fire(ctx) => self.supervise(ctx),
            TOKEN_RTO if self.rto.fire(ctx) => {
                if let Some(deadline) = self.transport.next_timeout() {
                    if ctx.now() >= deadline {
                        self.transport.on_rto(ctx.now());
                    }
                }
                self.pump(ctx);
            }
            TOKEN_GRACE if self.grace.fire(ctx) => {
                // Packets the proxy never saw: keep the mirror tidy and
                // leave them to e2e loss detection (§2.2: "use the less
                // frequent end-to-end ACKs when retransmission is
                // necessary"; §2.1: "these ACKs still govern the
                // retransmission logic").
                let _ = self.half.consumer.poll_expired(ctx.now());
                self.arm_grace(ctx);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        W::NAME
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
