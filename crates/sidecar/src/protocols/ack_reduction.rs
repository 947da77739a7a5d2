//! §2.2 ACK reduction (paper Fig. 3).
//!
//! The client transmits drastically fewer end-to-end ACKs (via the QUIC
//! ACK-frequency knob), reducing upstream congestion; the proxy's sidecar
//! quACKs frequently on the client's behalf — "the sidecar protocol
//! effectively treats the quACKs as client ACKs". The server moves its
//! *sending window* forward on quACK confirmations (one proxy-RTT away)
//! while the rare end-to-end ACKs continue to drive retransmission and
//! final delivery confirmation.
//!
//! The client "does not need to participate in the sidecar protocol at
//! all" — it is a completely unmodified receiver.

use crate::config::{AuthConfig, QuackFrequency, SidecarConfig, SupervisionConfig};
use crate::endpoint::QuackReport;
use crate::flows::{FlowTable, FlowTableConfig, SlotId};
use crate::messages::SidecarMessage;
use crate::protocols::proxy::ProxyCore;
use crate::protocols::server::{SidecarServer, WindowPolicy};
use crate::protocols::session::{CtrlChannel, ProducerHalf};
use crate::protocols::{obs, FaultScript, GuardedTimer, Harness, ScenarioReport};
use sidecar_netsim::link::LinkConfig;
use sidecar_netsim::node::{Context, IfaceId, Node};
use sidecar_netsim::packet::{Packet, PacketKind, Payload};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{
    CcAlgorithm, ReceiverConfig, ReceiverNode, SenderConfig, SenderCore, SenderNode,
};
use sidecar_netsim::Forwarder;
use std::any::Any;

/// Periodic proxy housekeeping: reap idle flow sessions even when no
/// traffic arrives to piggyback the sweep on.
const TOKEN_SWEEP: u64 = 4;

/// The ACK-reduction proxy: a regular router whose sidecar quACKs every
/// `n` data packets toward the server (paper: "every other packet such as
/// in TCP, much more frequently than in the protocol for congestion
/// control"). One producer session per flow, muxed through a bounded
/// [`FlowTable`]; folds are applied per packet, and a periodic sweep reaps
/// idle flows.
///
/// [`FlowTable`]: crate::flows::FlowTable
pub struct AckRedProxy {
    core: ProxyCore<ProducerHalf>,
    /// Data packets observed (drives the periodic idle sweep).
    observed_packets: u64,
    /// The periodic `TOKEN_SWEEP` chain, guarded so a restart cannot leave
    /// the pre-crash chain sweeping next to the new one.
    sweep: GuardedTimer,
}

impl AckRedProxy {
    /// Creates the proxy; `cfg.frequency` should be
    /// [`QuackFrequency::EveryPackets`].
    pub fn new(cfg: SidecarConfig) -> Self {
        AckRedProxy {
            // No consumer half, so neither shared chain is ever armed.
            core: ProxyCore::new(cfg, 0, 0),
            observed_packets: 0,
            sweep: GuardedTimer::new(TOKEN_SWEEP),
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

    /// QuACKs emitted so far, as `(datagrams, bytes)`.
    pub fn quacks_sent(&self) -> (u64, u64) {
        (self.core.ctrl.quacks_sent, self.core.ctrl.quack_bytes)
    }

    fn arm_sweep(&mut self, ctx: &mut Context) {
        let next = ctx.now() + self.core.table.config().idle_timeout;
        self.sweep.arm(next, ctx);
    }
}

impl Node for AckRedProxy {
    fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context) {
        match iface {
            // From the server: observe and forward to the client; quACK on
            // schedule.
            IfaceId(0) => {
                // The slot handle from the lookup carries through to the
                // emit block below, so a quACK-triggering packet costs one
                // index probe total. The quACK cadence is packet-count
                // driven (`EveryPackets`), so folds are applied per packet —
                // deferring them would shift every emission boundary.
                let mut emit: Option<SlotId> = None;
                if packet.kind == PacketKind::Data {
                    let (_, slot) = self.core.ensure(packet.flow, true, ctx);
                    if self
                        .core
                        .table
                        .slot_entry_mut(slot)
                        .is_some_and(|(_, s)| s.producer.observe(packet.id))
                    {
                        emit = Some(slot);
                    }
                    obs::observed(ctx, packet.flow.0, packet.seq);
                    self.observed_packets += 1;
                    if self.observed_packets.is_multiple_of(64) {
                        self.core.reap_idle(ctx);
                    }
                }
                if let Payload::Sidecar { proto, ref bytes } = packet.payload {
                    // The server's handshake and resyncs are consumed here;
                    // anything else is forwarded like data.
                    use SidecarMessage::{Hello, Reset};
                    let opened = self.core.ctrl.open(proto, bytes, ctx);
                    if let Ok((flow, msg @ (Reset { .. } | Hello { .. }))) = opened {
                        self.core.producer_control(flow, msg, false, ctx);
                        obs::flow_table(ctx, &mut self.core.table);
                        return;
                    }
                }
                ctx.send(IfaceId(1), packet);
                if let Some(slot) = emit {
                    let (_, session) = self
                        .core
                        .table
                        .slot_entry_mut(slot)
                        .expect("session touched above; the idle sweep cannot evict it");
                    session.emit(&mut self.core.ctrl, ctx);
                }
                obs::flow_table(ctx, &mut self.core.table);
            }
            // From the client: forward upstream untouched.
            IfaceId(1) => ctx.send(IfaceId(0), packet),
            other => panic!("ack-reduction proxy has 2 interfaces, got {other:?}"),
        }
    }

    fn on_start(&mut self, ctx: &mut Context) {
        self.arm_sweep(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        if token == TOKEN_SWEEP && self.sweep.fire(ctx) {
            self.core.reap_idle(ctx);
            obs::flow_table(ctx, &mut self.core.table);
            self.arm_sweep(ctx);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context) {
        // Every sketch died with the node; each flow announces the fresh
        // epoch as it reappears, so its server stops interpreting quACKs
        // against a stale mirror. An outage shorter than the sweep period
        // leaves the pre-crash chain queued; cancel it before starting the
        // new one.
        self.core.restart(ctx);
        self.sweep.disarm(ctx);
        self.arm_sweep(ctx);
    }

    fn name(&self) -> &str {
        "ackred-proxy"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// §2.2's window policy: "enable the server to move its sending window
/// ahead more quickly". Confirmed-at-proxy packets stop occupying cwnd, and
/// the confirmations drive window growth in place of the thinned end-to-end
/// ACKs (which still own retransmission). Degraded mode needs no swap: with
/// mirroring stopped the transport is a plain sender driven by end-to-end
/// ACKs, and `mark_window_released` bookkeeping is owned by the transport
/// and stays consistent.
#[derive(Debug, Default)]
pub struct ReleaseWindow {
    /// Packets released from window accounting by quACKs.
    pub window_releases: u64,
}

impl WindowPolicy for ReleaseWindow {
    const NAME: &'static str = "ackred-server";

    fn on_report(&mut self, report: &QuackReport, transport: &mut SenderCore, now: SimTime) {
        for &(_, pn) in &report.received {
            transport.mark_window_released(pn);
            self.window_releases += 1;
        }
        transport.sidecar_ack_credit(report.received.len() as u64, now);
    }
}

/// The server end host: unchanged transport sender plus a sidecar library
/// that releases the congestion window on quACK confirmations.
pub type AckRedServer = SidecarServer<ReleaseWindow>;

impl SidecarServer<ReleaseWindow> {
    /// Creates the server.
    pub fn new(
        transport: SenderConfig,
        sidecar: SidecarConfig,
        segment_rtt: SimDuration,
        supervision: SupervisionConfig,
    ) -> Self {
        Self::with_policy(
            SenderCore::new(transport),
            sidecar,
            segment_rtt,
            supervision,
            ReleaseWindow::default(),
        )
    }
}

/// Scenario parameters for the ACK-reduction experiment.
#[derive(Clone, Debug)]
pub struct AckReductionScenario {
    /// Data units the server must deliver.
    pub total_packets: u64,
    /// Server↔proxy segment.
    pub upstream: LinkConfig,
    /// Proxy↔client segment (the client's scarce uplink lives here).
    pub downstream: LinkConfig,
    /// Sidecar parameters (frequency should be `EveryPackets`).
    pub sidecar: SidecarConfig,
    /// Client ACK frequency in the sidecar run (high = few ACKs).
    pub reduced_ack_every: u32,
    /// Client max ACK delay when reduced (the QUIC ACK-frequency extension
    /// raises both knobs together).
    pub reduced_max_ack_delay: SimDuration,
    /// Client ACK frequency in the baseline run (QUIC default 2).
    pub normal_ack_every: u32,
    /// Server congestion control.
    pub cc: CcAlgorithm,
    /// Session supervision knobs for the server's quACK consumer.
    pub supervision: SupervisionConfig,
    /// Pre-shared-secret control-channel authentication. `Some` seals every
    /// sidecar datagram in the run (each node gets a distinct session
    /// nonce); `None` keeps the wire image byte-identical to pre-auth
    /// builds. The client is an unmodified receiver either way.
    pub auth: Option<AuthConfig>,
    /// Flight-recorder ring capacity override (events); `None` keeps the
    /// obs default.
    pub trace_capacity: Option<usize>,
}

impl Default for AckReductionScenario {
    fn default() -> Self {
        AckReductionScenario {
            total_packets: 2_000,
            // Fig. 3 geometry: the proxy sits near the client; the long,
            // bottlenecked segment is server↔proxy. QuACK-released window
            // space therefore only admits packets onto the segment the
            // congestion window already governs — the short last hop can
            // never be flooded by releases.
            upstream: LinkConfig {
                rate_bps: 50_000_000,
                delay: SimDuration::from_millis(25),
                ..LinkConfig::default()
            },
            downstream: LinkConfig {
                rate_bps: 100_000_000,
                delay: SimDuration::from_millis(2),
                ..LinkConfig::default()
            },
            sidecar: SidecarConfig {
                // §4.3: "the receiver could quACK e.g., every n = 32
                // packets"; we default to every 2 like TCP's ACK-every-other
                // on the short segment.
                frequency: QuackFrequency::EveryPackets(2),
                reorder_grace: SimDuration::from_millis(20),
                ..SidecarConfig::paper_default()
            },
            reduced_ack_every: 32,
            reduced_max_ack_delay: SimDuration::from_millis(150),
            normal_ack_every: 2,
            cc: CcAlgorithm::NewReno,
            supervision: SupervisionConfig::default(),
            auth: None,
            trace_capacity: None,
        }
    }
}

impl AckReductionScenario {
    /// The sidecar run: reduced client ACKs + proxy quACKs.
    pub fn run_sidecar(&self, seed: u64) -> ScenarioReport {
        self.run_sidecar_faulted(seed, &FaultScript::default())
    }

    /// Sidecar run with scripted faults (crash hits the proxy; blackout
    /// hits the proxy↔client segment).
    pub fn run_sidecar_faulted(&self, seed: u64, faults: &FaultScript) -> ScenarioReport {
        let mut h = Harness::new(seed, self.trace_capacity);
        let mut server_node = AckRedServer::new(
            SenderConfig {
                total_packets: Some(self.total_packets),
                cc: self.cc,
                id_seed: seed ^ 0xAC4ED,
                // PTO must absorb the client's raised ACK delay, or every
                // delayed ACK reads as a timeout.
                peer_max_ack_delay: self.reduced_max_ack_delay + SimDuration::from_millis(50),
                ..SenderConfig::default()
            },
            self.sidecar,
            self.upstream.delay * 2 + SimDuration::from_millis(5),
            self.supervision,
        );
        let mut proxy_node = AckRedProxy::new(self.sidecar);
        if let Some(auth) = self.auth {
            // Distinct per-node nonces keep each direction's replay window
            // independent (and the runs deterministic).
            server_node = server_node.with_auth(auth.with_nonce(1));
            proxy_node = proxy_node.with_auth(auth.with_nonce(2));
        }
        let server = h.w.add_node(Box::new(server_node));
        let proxy = h.w.add_node(Box::new(proxy_node));
        let client = h.w.add_node(ReceiverNode::boxed(ReceiverConfig {
            ack_every: self.reduced_ack_every,
            max_ack_delay: self.reduced_max_ack_delay,
            // The QUIC ACK-frequency extension's "Ignore Order" flag:
            // reordering does not trigger immediate ACKs.
            immediate_on_gap: false,
            ..ReceiverConfig::default()
        }));
        let links = [&self.upstream, &self.downstream];
        h.run_line(&[server, proxy, client], &links, faults);

        let srv = h.w.node_as::<AckRedServer>(server);
        let px = h.w.node_as::<AckRedProxy>(proxy);
        let client_acks = h.w.node_as::<ReceiverNode>(client).stats().acks_sent;
        let mut report = ScenarioReport {
            sidecar_messages: px.quacks_sent().0,
            sidecar_bytes: px.quacks_sent().1,
            degradations: srv.supervisor().stats.degradations,
            recoveries: srv.supervisor().stats.recoveries,
            ..Harness::report(srv.core(), client_acks)
        };
        h.export_obs(&mut report);
        report
    }

    /// A baseline run with a plain forwarder and the given client ACK
    /// frequency.
    pub fn run_baseline(&self, seed: u64, ack_every: u32) -> ScenarioReport {
        self.run_baseline_faulted(seed, ack_every, &FaultScript::default())
    }

    /// Baseline twin under the identical fault script.
    pub fn run_baseline_faulted(
        &self,
        seed: u64,
        ack_every: u32,
        faults: &FaultScript,
    ) -> ScenarioReport {
        let mut h = Harness::new(seed, None);
        let reduced = ack_every >= self.reduced_ack_every;
        let max_ack_delay = if reduced {
            self.reduced_max_ack_delay
        } else {
            ReceiverConfig::default().max_ack_delay
        };
        let server = h.w.add_node(SenderNode::boxed(SenderConfig {
            total_packets: Some(self.total_packets),
            cc: self.cc,
            id_seed: seed ^ 0xAC4ED,
            peer_max_ack_delay: max_ack_delay + SimDuration::from_millis(50),
            ..SenderConfig::default()
        }));
        let proxy = h.w.add_node(Forwarder::boxed());
        let client = h.w.add_node(ReceiverNode::boxed(ReceiverConfig {
            ack_every,
            max_ack_delay,
            immediate_on_gap: !reduced,
            ..ReceiverConfig::default()
        }));
        let links = [&self.upstream, &self.downstream];
        h.run_line(&[server, proxy, client], &links, faults);
        Harness::report(
            h.w.node_as::<SenderNode>(server).core(),
            h.w.node_as::<ReceiverNode>(client).stats().acks_sent,
        )
    }

    /// Baseline with normal (frequent) client ACKs.
    pub fn run_baseline_normal(&self, seed: u64) -> ScenarioReport {
        self.run_baseline(seed, self.normal_ack_every)
    }

    /// Baseline with reduced client ACKs but *no* sidecar (naive).
    pub fn run_baseline_reduced(&self, seed: u64) -> ScenarioReport {
        self.run_baseline(seed, self.reduced_ack_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidecar_netsim::world::World;

    #[test]
    fn sidecar_run_completes() {
        let scenario = AckReductionScenario {
            total_packets: 800,
            ..AckReductionScenario::default()
        };
        let report = scenario.run_sidecar(1);
        assert!(report.completion.is_some(), "{report:?}");
        assert!(report.sidecar_messages > 0);
    }

    #[test]
    fn client_acks_drastically_reduced() {
        let scenario = AckReductionScenario {
            total_packets: 1_000,
            ..AckReductionScenario::default()
        };
        let side = scenario.run_sidecar(2);
        let normal = scenario.run_baseline_normal(2);
        // The paper's point: ~n/2 ACKs collapse to ~n/32.
        assert!(
            side.client_acks * 8 < normal.client_acks,
            "sidecar acks {} vs normal {}",
            side.client_acks,
            normal.client_acks
        );
    }

    #[test]
    fn sidecar_recovers_goodput_lost_to_naive_reduction() {
        let scenario = AckReductionScenario {
            total_packets: 1_500,
            ..AckReductionScenario::default()
        };
        let side = scenario.run_sidecar(3);
        let naive = scenario.run_baseline_reduced(3);
        let normal = scenario.run_baseline_normal(3);
        // Naive ACK thinning slows the window; the sidecar must claw back
        // most of the difference.
        assert!(
            side.completion_secs() <= naive.completion_secs(),
            "sidecar {:.3}s vs naive {:.3}s",
            side.completion_secs(),
            naive.completion_secs()
        );
        // And stay within 2x of the full-ACK baseline.
        assert!(
            side.completion_secs() < normal.completion_secs() * 2.0,
            "sidecar {:.3}s vs normal {:.3}s",
            side.completion_secs(),
            normal.completion_secs()
        );
    }

    #[test]
    fn window_releases_happen() {
        let scenario = AckReductionScenario {
            total_packets: 500,
            ..AckReductionScenario::default()
        };
        let mut w = World::new(5);
        let server = w.add_node(Box::new(AckRedServer::new(
            SenderConfig {
                total_packets: Some(500),
                ..SenderConfig::default()
            },
            scenario.sidecar,
            SimDuration::from_millis(15),
            SupervisionConfig::default(),
        )));
        let proxy = w.add_node(Box::new(AckRedProxy::new(scenario.sidecar)));
        let client = w.add_node(ReceiverNode::boxed(ReceiverConfig {
            ack_every: 32,
            ..ReceiverConfig::default()
        }));
        w.connect(
            server,
            proxy,
            scenario.upstream.clone(),
            scenario.upstream.clone(),
        );
        w.connect(
            proxy,
            client,
            scenario.downstream.clone(),
            scenario.downstream.clone(),
        );
        // Periodic sidecar timers never let the event queue drain; run to a
        // generous deadline instead.
        w.run_until(SimTime::ZERO + SimDuration::from_secs(120));
        let srv = w.node_as::<AckRedServer>(server);
        assert!(srv.window_policy().window_releases > 0);
        assert!(srv.core().is_complete());
    }

    #[test]
    fn deterministic_reports() {
        let scenario = AckReductionScenario {
            total_packets: 400,
            ..AckReductionScenario::default()
        };
        assert_eq!(scenario.run_sidecar(8), scenario.run_sidecar(8));
    }

    #[test]
    fn authenticated_run_completes_without_rejects() {
        let scenario = AckReductionScenario {
            total_packets: 400,
            auth: Some(crate::config::AuthConfig::from_secret(0xFEED_FACE, 7)),
            ..AckReductionScenario::default()
        };
        let report = scenario.run_sidecar(8);
        assert!(report.completion.is_some(), "{report:?}");
        assert!(report.metrics.counter("auth.accepted") > 0, "{report:?}");
        assert_eq!(report.metrics.counter_sum("auth.rejected."), 0);
        assert_eq!(scenario.run_sidecar(8), scenario.run_sidecar(8));
    }
}
