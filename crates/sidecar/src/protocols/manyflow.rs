//! Many-flow muxing: N concurrent connections through one sidecar proxy.
//!
//! A real vantage point serves many connections at once; the paper's §4.2
//! memory argument ("the quACK is O(1) in space") only pays off if the
//! proxy's *per-flow* state is bounded too. This scenario drives N
//! independent sender/receiver pairs through a [`FlowRouter`] mux, a single
//! flow-aware proxy (or proxy pair), and a demux — exercising the
//! [`FlowTable`]'s sharding, LRU/idle eviction, and the flow-tagged wire
//! format under contention. All three Table-1 protocols are covered.
//!
//! [`FlowTable`]: crate::flows::FlowTable

use crate::config::{AuthConfig, SidecarConfig, SupervisionConfig};
use crate::flows::FlowTableConfig;
use crate::protocols::ack_reduction::{AckRedProxy, AckRedServer, AckReductionScenario};
use crate::protocols::ccd::{CcdClient, CcdProxy, CcdScenario, CcdServer, STEERED_CC};
use crate::protocols::retx::{ReceiverSideProxy, RetxScenario, SenderSideProxy};
use crate::protocols::{obs, Harness};
use sidecar_netsim::link::{LinkConfig, LossModel};
use sidecar_netsim::node::{IfaceId, Node, NodeId};
use sidecar_netsim::packet::FlowId;
use sidecar_netsim::router::FlowRouter;
use sidecar_netsim::time::SimDuration;
use sidecar_netsim::transport::{
    CcAlgorithm, ReceiverConfig, ReceiverNode, SenderConfig, SenderCore, SenderNode,
};
use sidecar_netsim::world::World;

/// Which Table-1 protocol the muxed proxy speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ManyFlowProtocol {
    /// §2.1 congestion-control division (client/proxy/server sidecars).
    CongestionDivision,
    /// §2.2 ACK reduction (proxy producer, server consumer).
    AckReduction,
    /// §2.3 in-network retransmission (proxy pair brackets the trunk).
    Retx,
}

impl ManyFlowProtocol {
    /// Short label for tables and metric params.
    pub fn label(&self) -> &'static str {
        match self {
            ManyFlowProtocol::CongestionDivision => "ccd",
            ManyFlowProtocol::AckReduction => "ackred",
            ManyFlowProtocol::Retx => "retx",
        }
    }
}

/// Aggregate outcome of one many-flow run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ManyFlowReport {
    /// Flows in the run.
    pub flows: u32,
    /// Flows whose sender delivered every packet within the horizon.
    pub completed: u32,
    /// Worst per-flow completion time (seconds; ∞ if any flow unfinished).
    pub slowest_completion_secs: f64,
    /// Sum of per-flow application goodput (bits/s) over completed flows.
    pub aggregate_goodput_bps: f64,
    /// Sidecar datagrams emitted by the proxy tier.
    pub sidecar_messages: u64,
    /// Sidecar bytes emitted by the proxy tier.
    pub sidecar_bytes: u64,
    /// Per-flow sessions still resident in the proxy tier's flow tables
    /// when the run ended (idle eviction reaps finished flows).
    pub live_flows_at_end: usize,
    /// Idle-deadline evictions across the proxy tier (read from the
    /// metrics registry's `flowtable.evicted.idle`).
    pub evictions_idle: u64,
    /// Capacity (LRU) evictions across the proxy tier.
    pub evictions_capacity: u64,
    /// Snapshot of the run's world metrics registry (includes the
    /// `flowtable.*` occupancy/eviction counters).
    pub metrics: sidecar_obs::MetricsSnapshot,
    /// Flight-recorder event trace (empty unless
    /// [`ManyFlowScenario::trace_capacity`] was set).
    pub trace: sidecar_obs::EventTrace,
}

impl ManyFlowReport {
    /// Flow-table evictions (idle + capacity) recorded by the run.
    pub fn evictions(&self) -> u64 {
        self.evictions_idle + self.evictions_capacity
    }
}

/// Scenario parameters for the many-flow muxing experiment.
#[derive(Clone, Debug)]
pub struct ManyFlowScenario {
    /// Protocol under test.
    pub protocol: ManyFlowProtocol,
    /// Concurrent flows (ids 1..=flows; 0 is reserved for legacy traffic).
    pub flows: u32,
    /// Data units each flow's sender must deliver.
    pub packets_per_flow: u64,
    /// Flow-table sizing for every proxy in the run. The short idle
    /// timeout matters: finished flows must be reaped, not retained for
    /// the classic 300 s default.
    pub table: FlowTableConfig,
    /// Per-flow access links (sender↔mux, demux↔receiver).
    pub edge: LinkConfig,
    /// The shared trunk every flow crosses (the proxy sits on it).
    pub trunk: LinkConfig,
    /// Wall-clock bound on the simulation.
    pub horizon: SimDuration,
    /// Session supervision knobs.
    pub supervision: SupervisionConfig,
    /// Pre-shared-secret control-channel authentication. `Some` seals every
    /// sidecar datagram in the run; each node derives a distinct session
    /// nonce (proxies low, senders `100+flow`, clients `200+flow`) so the
    /// muxed proxy tracks one replay window per peer session.
    pub auth: Option<AuthConfig>,
    /// Base seed; per-flow id streams derive from it.
    pub seed: u64,
    /// Flight-recorder ring capacity override (events); `None` keeps the
    /// obs default. Set it (generously) to causally certify a many-flow
    /// run's packet lifecycles.
    pub trace_capacity: Option<usize>,
}

impl ManyFlowScenario {
    /// Protocol-appropriate defaults for an N-flow run.
    pub fn new(protocol: ManyFlowProtocol, flows: u32) -> Self {
        let trunk = match protocol {
            // Division: the trunk is the slow/lossy downstream segment.
            ManyFlowProtocol::CongestionDivision => LinkConfig {
                rate_bps: 50_000_000,
                delay: SimDuration::from_millis(20),
                loss: LossModel::Bernoulli { p: 0.005 },
                queue_packets: 1_024,
                ..LinkConfig::default()
            },
            // ACK reduction: the trunk is the long server↔proxy segment.
            ManyFlowProtocol::AckReduction => LinkConfig {
                rate_bps: 50_000_000,
                delay: SimDuration::from_millis(25),
                queue_packets: 1_024,
                ..LinkConfig::default()
            },
            // Retx: the trunk is the lossy subpath between the proxies.
            ManyFlowProtocol::Retx => LinkConfig {
                rate_bps: 50_000_000,
                delay: SimDuration::from_millis(5),
                loss: LossModel::Bernoulli { p: 0.01 },
                queue_packets: 1_024,
                ..LinkConfig::default()
            },
        };
        ManyFlowScenario {
            protocol,
            flows,
            packets_per_flow: 64,
            table: FlowTableConfig {
                idle_timeout: SimDuration::from_secs(2),
                ..FlowTableConfig::default()
            },
            edge: LinkConfig {
                rate_bps: 1_000_000_000,
                delay: SimDuration::from_millis(2),
                queue_packets: 1_024,
                ..LinkConfig::default()
            },
            trunk,
            horizon: SimDuration::from_secs(60),
            supervision: SupervisionConfig::default(),
            auth: None,
            seed: 1,
            trace_capacity: None,
        }
    }

    /// Each protocol muxes with its single-flow scenario's sidecar tuning.
    fn sidecar_cfg(&self) -> SidecarConfig {
        match self.protocol {
            ManyFlowProtocol::CongestionDivision => CcdScenario::default().sidecar,
            ManyFlowProtocol::AckReduction => AckReductionScenario::default().sidecar,
            ManyFlowProtocol::Retx => RetxScenario::default().sidecar,
        }
    }

    /// Flow ids start at 1: flow 0 is the untagged legacy id, and keeping
    /// it off the wire here proves the tagged path carries everything.
    fn flow_ids(&self) -> Vec<FlowId> {
        (1..=self.flows).map(FlowId).collect()
    }

    /// Builds the mux/demux pair: mux ifaces `0..N` face the senders and
    /// iface `N` faces the trunk; demux iface `0` faces the trunk and
    /// `1..=N` face the receivers.
    fn routers(&self) -> (FlowRouter, FlowRouter) {
        let n = self.flows as usize;
        let mut mux = FlowRouter::new();
        let mut demux = FlowRouter::new();
        for (i, flow) in self.flow_ids().into_iter().enumerate() {
            mux.add_duplex_route(flow, IfaceId(i), IfaceId(n));
            demux.add_duplex_route(flow, IfaceId(0), IfaceId(i + 1));
        }
        (mux, demux)
    }

    /// Runs the scenario.
    pub fn run(&self) -> ManyFlowReport {
        let mut h = Harness::new(self.seed, self.trace_capacity);
        let (senders, sender_core, sidecar, live) = match self.protocol {
            ManyFlowProtocol::CongestionDivision => self.run_ccd(&mut h),
            ManyFlowProtocol::AckReduction => self.run_ackred(&mut h),
            ManyFlowProtocol::Retx => self.run_retx(&mut h),
        };
        let mut report = ManyFlowReport {
            flows: self.flows,
            live_flows_at_end: live,
            sidecar_messages: sidecar.0,
            sidecar_bytes: sidecar.1,
            ..ManyFlowReport::default()
        };
        for s in senders {
            let core = sender_core(&h.w, s);
            if let Some(t) = core.stats().completed_at {
                report.completed += 1;
                report.slowest_completion_secs =
                    report.slowest_completion_secs.max(t.as_secs_f64());
                report.aggregate_goodput_bps +=
                    core.stats().goodput_bps(core.config().mtu).unwrap_or(0.0);
            } else {
                report.slowest_completion_secs = f64::INFINITY;
            }
        }
        obs::export_manyflow(&h.w, &mut report);
        report
    }

    /// Builds `senders → mux → proxies… → demux → receivers` (node and
    /// link creation order is part of the deterministic surface), runs to
    /// the horizon, and returns `(senders, proxies, receivers)`. `hops` are
    /// the links along the mux→proxies→demux chain; every access link is an
    /// `edge`.
    fn run_tier(
        &self,
        h: &mut Harness,
        sender: impl Fn(FlowId) -> Box<dyn Node>,
        proxies: Vec<Box<dyn Node>>,
        hops: &[&LinkConfig],
        receiver: impl Fn(FlowId) -> Box<dyn Node>,
    ) -> (Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
        let (flows, w) = (self.flow_ids(), &mut h.w);
        let senders: Vec<NodeId> = flows.iter().map(|&f| w.add_node(sender(f))).collect();
        let (mux, demux) = self.routers();
        let mux = w.add_node(mux.boxed());
        let proxies: Vec<NodeId> = proxies.into_iter().map(|p| w.add_node(p)).collect();
        let demux = w.add_node(demux.boxed());
        let receivers: Vec<NodeId> = flows.iter().map(|&f| w.add_node(receiver(f))).collect();
        for &s in &senders {
            w.connect(s, mux, self.edge.clone(), self.edge.clone());
        }
        h.connect_line(&[&[mux][..], &proxies[..], &[demux][..]].concat(), hops);
        for &r in &receivers {
            h.w.connect(demux, r, self.edge.clone(), self.edge.clone());
        }
        h.run(self.horizon);
        (senders, proxies, receivers)
    }

    fn run_retx(&self, h: &mut Harness) -> TierOutcome {
        let cfg = self.sidecar_cfg();
        let subpath_rtt = self.trunk.delay * 2 + SimDuration::from_millis(2);
        let mut proxy_a = SenderSideProxy::new(cfg, subpath_rtt, 4_096, self.supervision)
            .with_flow_table(self.table);
        let mut proxy_b = ReceiverSideProxy::new(cfg).with_flow_table(self.table);
        if let Some(auth) = self.auth {
            proxy_a = proxy_a.with_auth(auth.with_nonce(1));
            proxy_b = proxy_b.with_auth(auth.with_nonce(2));
        }
        // The single-flow scenario's sparse-ACK client, one per flow.
        let client = RetxScenario::default().client;
        let (senders, proxies, _) = self.run_tier(
            h,
            |flow| {
                SenderNode::boxed(SenderConfig {
                    flow,
                    total_packets: Some(self.packets_per_flow),
                    id_seed: self.seed ^ (0x5E7 << 32) ^ flow.0 as u64,
                    peer_max_ack_delay: SimDuration::from_millis(100),
                    ..SenderConfig::default()
                })
            },
            vec![Box::new(proxy_a), Box::new(proxy_b)],
            &[&self.edge, &self.trunk, &self.edge],
            |flow| {
                ReceiverNode::boxed(ReceiverConfig {
                    flow,
                    ..client.clone()
                })
            },
        );
        let pa = h.w.node_as::<SenderSideProxy>(proxies[0]);
        let pb = h.w.node_as::<ReceiverSideProxy>(proxies[1]);
        (
            senders,
            |w, s| w.node_as::<SenderNode>(s).core(),
            (pb.quacks_sent + pa.control_sent, pb.quack_bytes),
            pa.live_flows() + pb.live_flows(),
        )
    }

    fn run_ackred(&self, h: &mut Harness) -> TierOutcome {
        let cfg = self.sidecar_cfg();
        let mut proxy = AckRedProxy::new(cfg).with_flow_table(self.table);
        if let Some(auth) = self.auth {
            proxy = proxy.with_auth(auth.with_nonce(1));
        }
        let (senders, proxies, _) = self.run_tier(
            h,
            |flow| {
                let mut server = AckRedServer::new(
                    SenderConfig {
                        flow,
                        total_packets: Some(self.packets_per_flow),
                        cc: CcAlgorithm::NewReno,
                        id_seed: self.seed ^ (0xAC4 << 32) ^ flow.0 as u64,
                        peer_max_ack_delay: SimDuration::from_millis(200),
                        ..SenderConfig::default()
                    },
                    cfg,
                    self.trunk.delay * 2 + SimDuration::from_millis(5),
                    self.supervision,
                );
                if let Some(auth) = self.auth {
                    server = server.with_auth(auth.with_nonce(100 + flow.0 as u64));
                }
                Box::new(server)
            },
            vec![Box::new(proxy)],
            &[&self.trunk, &self.edge],
            |flow| {
                ReceiverNode::boxed(ReceiverConfig {
                    flow,
                    ack_every: 32,
                    max_ack_delay: SimDuration::from_millis(150),
                    immediate_on_gap: false,
                    ..ReceiverConfig::default()
                })
            },
        );
        let px = h.w.node_as::<AckRedProxy>(proxies[0]);
        (
            senders,
            |w, s| w.node_as::<AckRedServer>(s).core(),
            px.quacks_sent(),
            px.live_flows(),
        )
    }

    fn run_ccd(&self, h: &mut Harness) -> TierOutcome {
        let cfg = self.sidecar_cfg();
        let quack_interval = SimDuration::from_millis(30);
        let mut proxy = CcdProxy::new(
            cfg,
            quack_interval,
            self.trunk.rate_bps as f64 * 0.9,
            2_048,
            self.trunk.delay * 2 + SimDuration::from_millis(5),
            self.supervision,
        )
        .with_flow_table(self.table);
        if let Some(auth) = self.auth {
            proxy = proxy.with_auth(auth.with_nonce(1));
        }
        let (senders, proxies, receivers) = self.run_tier(
            h,
            |flow| {
                let mut server = CcdServer::new(
                    SenderConfig {
                        flow,
                        total_packets: Some(self.packets_per_flow),
                        cc: STEERED_CC,
                        id_seed: self.seed ^ (0xCCD << 32) ^ flow.0 as u64,
                        ..SenderConfig::default()
                    },
                    cfg,
                    self.edge.delay * 2 + SimDuration::from_millis(5),
                    CcAlgorithm::NewReno,
                    self.supervision,
                );
                if let Some(auth) = self.auth {
                    server = server.with_auth(auth.with_nonce(100 + flow.0 as u64));
                }
                Box::new(server)
            },
            vec![Box::new(proxy)],
            &[&self.edge, &self.trunk],
            |flow| {
                let config = ReceiverConfig {
                    flow,
                    ..ReceiverConfig::default()
                };
                let mut client = CcdClient::new(config, cfg, quack_interval, self.supervision);
                if let Some(auth) = self.auth {
                    client = client.with_auth(auth.with_nonce(200 + flow.0 as u64));
                }
                Box::new(client)
            },
        );
        let px = h.w.node_as::<CcdProxy>(proxies[0]);
        let quacks = receivers
            .iter()
            .map(|&r| h.w.node_as::<CcdClient>(r).quacks_sent())
            .fold(px.quacks_sent(), |sum, q| (sum.0 + q.0, sum.1 + q.1));
        (
            senders,
            |w, s| w.node_as::<CcdServer>(s).core(),
            quacks,
            px.live_flows(),
        )
    }
}

/// What a protocol's run hands back for the report: the sender nodes, how
/// to reach a sender's transport core, the proxy tier's sidecar
/// `(messages, bytes)`, and its live session count.
type TierOutcome = (
    Vec<NodeId>,
    fn(&World, NodeId) -> &SenderCore,
    (u64, u64),
    usize,
);

#[cfg(test)]
mod tests {
    use super::*;

    fn small(protocol: ManyFlowProtocol, flows: u32) -> ManyFlowScenario {
        let mut s = ManyFlowScenario::new(protocol, flows);
        s.packets_per_flow = 32;
        s.horizon = SimDuration::from_secs(30);
        s
    }

    #[test]
    fn retx_muxes_eight_flows_to_completion() {
        let report = small(ManyFlowProtocol::Retx, 8).run();
        assert_eq!(report.completed, 8, "{report:?}");
        assert!(report.sidecar_messages > 0);
    }

    #[test]
    fn ackred_muxes_eight_flows_to_completion() {
        let report = small(ManyFlowProtocol::AckReduction, 8).run();
        assert_eq!(report.completed, 8, "{report:?}");
        assert!(report.sidecar_messages > 0);
    }

    #[test]
    fn ccd_muxes_eight_flows_to_completion() {
        let report = small(ManyFlowProtocol::CongestionDivision, 8).run();
        assert_eq!(report.completed, 8, "{report:?}");
        assert!(report.sidecar_messages > 0);
    }

    #[test]
    fn finished_flows_are_reaped_by_idle_eviction() {
        // 2 s idle timeout, 30 s horizon: long after the last packet, the
        // proxies must have evicted (nearly) every session.
        for protocol in [
            ManyFlowProtocol::Retx,
            ManyFlowProtocol::AckReduction,
            ManyFlowProtocol::CongestionDivision,
        ] {
            let report = small(protocol, 8).run();
            assert_eq!(report.completed, 8, "{protocol:?}: {report:?}");
            assert!(
                report.live_flows_at_end < 8,
                "{protocol:?} kept every session resident: {report:?}"
            );
            assert!(
                report.evictions() > 0,
                "{protocol:?} reported no evictions: {report:?}"
            );
        }
    }

    #[test]
    fn capacity_cap_is_enforced_under_flow_pressure() {
        // More flows than table slots: the proxy must keep serving (flows
        // complete via e2e recovery + resync) with bounded state.
        let mut s = small(ManyFlowProtocol::AckReduction, 24);
        s.table = FlowTableConfig {
            shards: 2,
            per_shard: 4,
            idle_timeout: SimDuration::from_secs(2),
        };
        let report = s.run();
        assert!(report.live_flows_at_end <= 8, "{report:?}");
        assert_eq!(report.completed, 24, "{report:?}");
        assert!(report.evictions() > 0, "{report:?}");
    }

    #[test]
    fn deterministic_reports() {
        let s = small(ManyFlowProtocol::Retx, 4);
        assert_eq!(s.run(), s.run());
    }

    #[test]
    fn authenticated_mux_completes_for_all_protocols() {
        for protocol in [
            ManyFlowProtocol::Retx,
            ManyFlowProtocol::AckReduction,
            ManyFlowProtocol::CongestionDivision,
        ] {
            let mut s = small(protocol, 8);
            s.auth = Some(crate::config::AuthConfig::from_secret(0xFEED_FACE, 7));
            let report = s.run();
            assert_eq!(report.completed, 8, "{protocol:?}: {report:?}");
            assert!(report.sidecar_messages > 0);
            assert_eq!(s.run(), s.run());
        }
    }
}
