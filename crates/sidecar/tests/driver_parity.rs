//! Driver parity: the §2.3 retx chain driven purely through the
//! `dyn Driver` seam must match the same chain driven through `World`'s
//! concrete API, fact for fact.
//!
//! The tentpole claim of the driver refactor is "one implementation, two
//! hosts": protocol state machines written against `Node`/`Context` with
//! zero netsim-specific paths. The live loopback suite proves the second
//! host; this suite proves the seam itself is behaviorally invisible —
//! hosting the simulator behind `&mut dyn Driver` changes nothing about
//! what the protocols do.
//!
//! The parity facts (hop counts, causal certification) are read from the
//! world's obs trace.

use sidecar_netsim::link::{LinkConfig, LossModel};
use sidecar_netsim::node::NodeId;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{ReceiverConfig, ReceiverNode, SenderConfig, SenderNode};
use sidecar_netsim::{Driver, FlowId, World};
use sidecar_obs::Lifecycle;
use sidecar_proto::protocols::retx::{ReceiverSideProxy, SenderSideProxy};
use sidecar_proto::{QuackFrequency, SidecarConfig, SupervisionConfig};

const TOTAL: u64 = 400;

struct Chain {
    world: World,
    server: NodeId,
    proxy_a: NodeId,
    proxy_b: NodeId,
    client: NodeId,
}

/// The four-node chain with a lossy subpath, topology built with the
/// concrete `World` API (topology is host business; only *running* goes
/// through the seam).
fn build_chain(seed: u64) -> Chain {
    let mut w = World::new(seed);
    let server = w.add_node(SenderNode::boxed(SenderConfig {
        flow: FlowId(1),
        total_packets: Some(TOTAL),
        id_seed: seed ^ 0xA5A5,
        peer_max_ack_delay: SimDuration::from_millis(100),
        ..SenderConfig::default()
    }));
    let cfg = SidecarConfig {
        frequency: QuackFrequency::Adaptive(SimDuration::from_millis(5)),
        reorder_grace: SimDuration::from_millis(3),
        ..SidecarConfig::paper_default()
    };
    let proxy_a = w.add_node(Box::new(SenderSideProxy::new(
        cfg,
        SimDuration::from_millis(12),
        4_096,
        SupervisionConfig::default(),
    )));
    let proxy_b = w.add_node(Box::new(ReceiverSideProxy::new(cfg)));
    let client = w.add_node(ReceiverNode::boxed(ReceiverConfig {
        ack_every: 16,
        max_ack_delay: SimDuration::from_millis(40),
        immediate_on_gap: false,
        ..ReceiverConfig::default()
    }));

    let edge = LinkConfig {
        rate_bps: 1_000_000_000,
        delay: SimDuration::from_millis(2),
        ..LinkConfig::default()
    };
    let subpath = LinkConfig {
        rate_bps: 100_000_000,
        delay: SimDuration::from_millis(5),
        loss: LossModel::Bernoulli { p: 0.05 },
        ..LinkConfig::default()
    };
    w.connect(server, proxy_a, edge.clone(), edge.clone());
    w.connect(proxy_a, proxy_b, subpath.clone(), subpath);
    w.connect(proxy_b, client, edge.clone(), edge);
    Chain {
        world: w,
        server,
        proxy_a,
        proxy_b,
        client,
    }
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Facts {
    completed_at: Option<SimTime>,
    sent: u64,
    e2e_retransmissions: u64,
    proxy_retransmissions: u64,
    quacks_sent: u64,
    delivered_units: u64,
    hop_delivers: usize,
    hop_drops: usize,
}

/// Reads the facts through the seam only.
fn facts(d: &dyn Driver, chain: &Chain) -> Facts {
    let sender: &SenderNode = d.node_as(chain.server);
    let proxy_a: &SenderSideProxy = d.node_as(chain.proxy_a);
    let proxy_b: &ReceiverSideProxy = d.node_as(chain.proxy_b);
    let client: &ReceiverNode = d.node_as(chain.client);
    Facts {
        completed_at: sender.stats().completed_at,
        sent: sender.stats().sent_packets,
        e2e_retransmissions: sender.stats().retransmissions,
        proxy_retransmissions: proxy_a.retransmitted,
        quacks_sent: proxy_b.quacks_sent,
        delivered_units: client.stats().unique_units,
        hop_delivers: chain.world.obs().trace.count_kind("hop_deliver"),
        hop_drops: chain.world.obs().trace.count_kind("hop_drop"),
    }
}

/// Drives the chain to completion using nothing but `Driver` methods —
/// this function compiles against the seam, so it would host `LiveDriver`
/// unchanged.
fn drive_through_seam(d: &mut dyn Driver, server: NodeId) {
    let mut deadline = SimTime::ZERO;
    for _ in 0..240 {
        deadline += SimDuration::from_millis(500);
        d.run_until(deadline);
        let sender: &SenderNode = d.node_as(server);
        if sender.core().is_complete() {
            return;
        }
    }
    panic!("transfer did not complete within the cap");
}

#[test]
fn retx_chain_completes_and_certifies_behind_the_seam() {
    let mut chain = build_chain(7);
    let server = chain.server;
    drive_through_seam(&mut chain.world, server);
    let f = facts(&chain.world, &chain);
    assert_eq!(f.delivered_units, TOTAL, "client missing data units");
    assert!(f.proxy_retransmissions > 0, "sidecar never repaired a loss");
    assert!(f.quacks_sent > 0, "receiver-side proxy never quACKed");
    Lifecycle::from_trace(&chain.world.obs().trace)
        .check_causal()
        .expect("causal certification");
}

/// The seam must be behaviorally invisible: a run driven through
/// `&mut dyn Driver` and a run driven through the concrete `World` API
/// (same seed) agree on every observable fact, including the trace.
#[test]
fn seam_hosted_run_is_fact_identical_to_concrete_run() {
    for seed in [7, 21, 63] {
        let mut through_seam = build_chain(seed);
        let server = through_seam.server;
        drive_through_seam(&mut through_seam.world, server);

        let mut concrete = build_chain(seed);
        let mut deadline = SimTime::ZERO;
        for _ in 0..240 {
            deadline += SimDuration::from_millis(500);
            concrete.world.run_until(deadline);
            if concrete
                .world
                .node_as::<SenderNode>(concrete.server)
                .core()
                .is_complete()
            {
                break;
            }
        }

        let a = facts(&through_seam.world, &through_seam);
        let b = facts(&concrete.world, &concrete);
        assert_eq!(
            a, b,
            "seed {seed}: dyn-Driver run diverged from concrete run"
        );
        assert!(a.completed_at.is_some(), "seed {seed}: never completed");
    }
}
