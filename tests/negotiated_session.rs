//! Integration: the `Hello` handshake between real proxies. A producer
//! accepts only an offer of its own quACK shape `(t, b, c)`. When both
//! proxies of a chain run one shape the sidecar session forms; a
//! mismatched offer is refused, and the flow runs end to end.

use sidecar_repro::netsim::node::{Context, IfaceId, Node, NodeId};
use sidecar_repro::netsim::obs::WorldObs;
use sidecar_repro::netsim::packet::{FlowId, Packet};
use sidecar_repro::netsim::rng::SimRng;
use sidecar_repro::netsim::time::{SimDuration, SimTime};
use sidecar_repro::netsim::transport::{ReceiverNode, SenderConfig, SenderNode};
use sidecar_repro::netsim::world::World;
use sidecar_repro::proto::messages::HEADER_OVERHEAD;
use sidecar_repro::proto::protocols::ack_reduction::{AckRedProxy, AckReductionScenario};
use sidecar_repro::proto::protocols::retx::{ReceiverSideProxy, RetxScenario, SenderSideProxy};
use sidecar_repro::proto::{offer, QuackFrequency, SidecarConfig, SidecarMessage};

/// Offers `hello` for flow 1 to `proxy`; returns whether it answered with
/// a `Reset`, and its `(accepted, rejected)` handshake counters.
fn handshake<N: Node>(proxy: &mut N, hello: &SidecarMessage) -> (bool, (u64, u64)) {
    let (proto, body) = hello.encode_for_flow(1);
    let size = HEADER_OVERHEAD + body.len() as u32;
    let packet = Packet::sidecar(FlowId(1), proto, body, size, SimTime::ZERO);
    let (mut rng, mut actions, mut obs) = (SimRng::new(1), Vec::new(), WorldObs::new());
    let mut ctx = Context::with_obs(
        SimTime::ZERO,
        NodeId(0),
        &mut rng,
        &mut actions,
        Some(&mut obs),
    );
    proxy.on_packet(IfaceId(0), packet, &mut ctx);
    let count = |name| obs.metrics.counter_value(name);
    let counts = (
        count("sidecar.handshake.accepted"),
        count("sidecar.handshake.rejected"),
    );
    (!actions.is_empty(), counts)
}

/// What one retx chain run showed.
struct Chain {
    delivered: u64,
    proxy_retx: u64,
    degradations: u64,
    accepted: u64,
    rejected: u64,
    malformed: u64,
}

/// The §2.3 retx chain of [`RetxScenario::default`], with the sender-side
/// proxy (the quACK consumer, which offers) built from `consumer` and the
/// receiver-side proxy (the producer, which answers) from `producer`.
fn run_chain(consumer: SidecarConfig, producer: SidecarConfig) -> Chain {
    let s = RetxScenario {
        total_packets: 600,
        ..RetxScenario::default()
    };
    let mut w = World::new(5);
    let server = w.add_node(SenderNode::boxed(SenderConfig {
        total_packets: Some(s.total_packets),
        cc: s.cc,
        peer_max_ack_delay: s.client.max_ack_delay + SimDuration::from_millis(50),
        ..SenderConfig::default()
    }));
    let rtt = s.subpath.delay * 2 + SimDuration::from_millis(2);
    let a = SenderSideProxy::new(consumer, rtt, s.buffer_cap, s.supervision);
    let proxy_a = w.add_node(Box::new(a));
    let proxy_b = w.add_node(Box::new(ReceiverSideProxy::new(producer)));
    let client = w.add_node(Box::new(ReceiverNode::new(s.client)));
    w.connect(server, proxy_a, s.edge_a.clone(), s.edge_a.clone());
    w.connect(proxy_a, proxy_b, s.subpath.clone(), s.subpath.clone());
    w.connect(proxy_b, client, s.edge_b.clone(), s.edge_b.clone());
    w.run_until(SimTime::ZERO + SimDuration::from_secs(30));

    assert!(w.node_as::<SenderNode>(server).core().is_complete());
    let proxy = w.node_as::<SenderSideProxy>(proxy_a);
    let count = |name| w.obs().metrics.counter_value(name);
    Chain {
        delivered: w.node_as::<ReceiverNode>(client).stats().unique_units,
        proxy_retx: proxy.retransmitted,
        degradations: proxy.degradations(),
        accepted: count("sidecar.handshake.accepted"),
        rejected: count("sidecar.handshake.rejected"),
        malformed: count("quack.err.malformed"),
    }
}

/// Offers at every identifier width, around the proxy's threshold and at
/// two count widths: exactly the proxy's own shape is accepted. Chains whose
/// two proxies share a shape form a session and repair subpath losses.
#[test]
fn negotiated_sessions_at_every_width() {
    let cfg = RetxScenario::default().sidecar;
    for id_bits in [16, 24, 32, 64] {
        for threshold in [cfg.threshold - 1, cfg.threshold, cfg.threshold + 1] {
            for count_bits in [0, cfg.count_bits] {
                let offered = SidecarConfig {
                    id_bits,
                    threshold,
                    count_bits,
                    ..cfg
                };
                let own = offered.wire_format() == cfg.wire_format();
                let mut proxy = ReceiverSideProxy::new(cfg);
                let expected = if own { (true, (1, 0)) } else { (false, (0, 1)) };
                assert_eq!(
                    handshake(&mut proxy, &offer(&offered)),
                    expected,
                    "{offered:?}"
                );
                assert_eq!(proxy.live_flows(), usize::from(own), "{offered:?}");
            }
        }
    }
    for threshold in [10, 20, 64] {
        let cfg = SidecarConfig { threshold, ..cfg };
        let chain = run_chain(cfg, cfg);
        assert_eq!(chain.delivered, 600);
        assert!(
            chain.accepted >= 1 && chain.rejected == 0,
            "t = {threshold}"
        );
        assert!(
            chain.proxy_retx > 0,
            "t = {threshold}: no in-network repair"
        );
    }
}

/// A sender-side proxy at `t = 64` meets a receiver-side proxy at
/// `t = 20`: every offer is refused, no quACK of the foreign shape is
/// decoded, the session falls back through liveness and the transfer
/// completes end to end.
#[test]
fn negotiation_failure_prevents_the_session() {
    let cfg = RetxScenario::default().sidecar;
    let chain = run_chain(
        SidecarConfig {
            threshold: 64,
            ..cfg
        },
        cfg,
    );
    assert_eq!(chain.delivered, 600);
    assert_eq!(chain.accepted, 0);
    assert!(chain.rejected >= 1);
    assert_eq!(chain.malformed, 0);
    assert_eq!(chain.proxy_retx, 0, "a refused session repaired a loss");
    assert!(chain.degradations >= 1, "the session never fell back");
}

/// A packet-count schedule travels as a zero interval. The interval is no
/// part of the shape, so the offer is accepted by a proxy on another
/// schedule as by one on the same.
#[test]
fn negotiated_packet_count_schedule() {
    let cfg = AckReductionScenario::default().sidecar;
    for frequency in [
        QuackFrequency::EveryPackets(2),
        QuackFrequency::Interval(SimDuration::from_millis(60)),
    ] {
        let offered = SidecarConfig {
            frequency: QuackFrequency::EveryPackets(2),
            ..cfg
        };
        let mut proxy = AckRedProxy::new(SidecarConfig { frequency, ..cfg });
        assert_eq!(handshake(&mut proxy, &offer(&offered)), (true, (1, 0)));
        assert_eq!(proxy.live_flows(), 1);
    }
}
