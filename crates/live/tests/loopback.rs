//! Loopback certification suite: the §2.3 in-network retransmission chain
//! — unmodified simulator state machines — running over real UDP sockets,
//! with the run certified by the same flight-recorder lifecycle checks the
//! simulator uses.
//!
//! Topology (three loopback socket pairs):
//!
//! ```text
//! SenderNode ── pair 1 ── SenderSideProxy ── pair 2 ── ReceiverSideProxy ── pair 3 ── ReceiverNode
//!   (server)                (buffers+retx)   lossy(*)     (quACK emitter)               (client)
//! ```
//!
//! (*) loss is the driver's deterministic every-Nth egress policy on the
//! sender-side proxy's subpath port, so each run loses real packets that
//! only in-network (or end-to-end) recovery can repair.

use sidecar_live::{loopback_pair, wire, LiveDriver};
use sidecar_netsim::node::{Context, IfaceId, Node, NodeId};
use sidecar_netsim::packet::{FlowId, Packet};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{
    CcAlgorithm, ReceiverConfig, ReceiverNode, SenderConfig, SenderNode,
};
use sidecar_netsim::Driver;
use sidecar_obs::Lifecycle;
use sidecar_proto::config::{AuthConfig, QuackFrequency, SidecarConfig, SupervisionConfig};
use sidecar_proto::protocols::retx::{ReceiverSideProxy, SenderSideProxy};
use std::any::Any;
use std::net::UdpSocket;

const TOTAL_PACKETS: u64 = 300;
/// Every 8th data packet on the subpath is dropped: 37 losses per run,
/// comfortably below the quACK threshold below even if they all land in
/// one emission window.
const DROP_EVERY: u64 = 8;

struct RunOutcome {
    delivered_units: u64,
    delivered_bytes: u64,
    proxy_retransmissions: u64,
    certified: bool,
    certify_err: Option<String>,
    timelines_with_proxy_retx: usize,
    decode_errors: u64,
    handshakes_accepted: u64,
    handshakes_rejected: u64,
    malformed_quacks: u64,
}

/// The chain's sidecar parameters: `t = 64`, a 3 ms adaptive interval.
fn sidecar_cfg() -> SidecarConfig {
    SidecarConfig {
        threshold: 64,
        frequency: QuackFrequency::Adaptive(SimDuration::from_millis(3)),
        reorder_grace: SimDuration::from_millis(2),
        ..SidecarConfig::paper_default()
    }
}

/// Builds the four-node chain on one driver, runs it to completion (or a
/// 20 s cap), and certifies the flight recorder. The sender-side proxy
/// runs [`sidecar_cfg`]; the receiver-side proxy, the quACK producer, runs
/// `producer`.
fn run_retx_chain(seed: u64, auth: Option<AuthConfig>, producer: SidecarConfig) -> RunOutcome {
    let sidecar_cfg = sidecar_cfg();
    let subpath_rtt = SimDuration::from_millis(4);

    let mut driver = LiveDriver::new(seed);
    driver.obs_mut().resize_trace(1 << 17);

    let server = driver.install(Box::new(SenderNode::new(SenderConfig {
        flow: FlowId(1),
        total_packets: Some(TOTAL_PACKETS),
        cc: CcAlgorithm::NewReno,
        id_seed: seed ^ 0xA5A5,
        peer_max_ack_delay: SimDuration::from_millis(60),
        ..SenderConfig::default()
    })));
    let mut proxy_a_node = SenderSideProxy::new(
        sidecar_cfg,
        subpath_rtt,
        4_096,
        SupervisionConfig::default(),
    );
    let mut proxy_b_node = ReceiverSideProxy::new(producer);
    if let Some(auth) = auth {
        proxy_a_node = proxy_a_node.with_auth(auth.with_nonce(1));
        proxy_b_node = proxy_b_node.with_auth(auth.with_nonce(2));
    }
    let proxy_a = driver.install(Box::new(proxy_a_node));
    let proxy_b = driver.install(Box::new(proxy_b_node));
    let client = driver.install(Box::new(ReceiverNode::new(ReceiverConfig {
        ack_every: 8,
        max_ack_delay: SimDuration::from_millis(20),
        immediate_on_gap: false,
        ..ReceiverConfig::default()
    })));

    // Three bidirectional loopback "links".
    attach_link(&mut driver, server, IfaceId(0), proxy_a, IfaceId(0));
    attach_link(&mut driver, proxy_a, IfaceId(1), proxy_b, IfaceId(0));
    attach_link(&mut driver, proxy_b, IfaceId(1), client, IfaceId(0));
    driver.set_egress_loss(proxy_a, IfaceId(1), DROP_EVERY);

    // Run in slices until the transfer completes (or the cap trips: a
    // stalled flow should fail the assertions loudly, not hang CI).
    let slice = SimDuration::from_millis(50);
    let mut deadline = SimTime::ZERO;
    for _ in 0..400 {
        deadline = driver.now().max(deadline) + slice;
        driver.run_until(deadline);
        let sender: &SenderNode = (&driver as &dyn Driver).node_as(server);
        if sender.core().is_complete() {
            break;
        }
    }

    let d = &driver as &dyn Driver;
    let sender: &SenderNode = d.node_as(server);
    let mtu = u64::from(sender.core().config().mtu);
    let receiver: &ReceiverNode = d.node_as(client);
    let proxy: &SenderSideProxy = d.node_as(proxy_a);
    let lifecycle = Lifecycle::from_trace(&driver.obs().trace);
    let certify = lifecycle.check_causal();
    let count = |name| driver.obs().metrics.counter_value(name);
    RunOutcome {
        delivered_units: receiver.stats().unique_units,
        delivered_bytes: receiver.stats().unique_units * mtu,
        proxy_retransmissions: proxy.retransmitted,
        certified: certify.is_ok(),
        certify_err: certify.err(),
        timelines_with_proxy_retx: lifecycle
            .data_timelines()
            .filter(|t| t.proxy_retransmitted())
            .count(),
        decode_errors: driver.stats().decode_errors,
        handshakes_accepted: count("sidecar.handshake.accepted"),
        handshakes_rejected: count("sidecar.handshake.rejected"),
        malformed_quacks: count("quack.err.malformed"),
    }
}

/// Binds a loopback socket pair and attaches one end to each node.
fn attach_link(driver: &mut LiveDriver, a: NodeId, a_iface: IfaceId, b: NodeId, b_iface: IfaceId) {
    let (sock_a, sock_b) = loopback_pair().expect("bind loopback pair");
    let a_peer = sock_b.local_addr().expect("local addr");
    let b_peer = sock_a.local_addr().expect("local addr");
    driver
        .attach_socket(a, a_iface, sock_a, a_peer)
        .expect("attach");
    driver
        .attach_socket(b, b_iface, sock_b, b_peer)
        .expect("attach");
}

fn assert_outcome(out: &RunOutcome, label: &str) {
    assert!(
        out.certified,
        "{label}: causal certification failed: {:?}",
        out.certify_err
    );
    assert_eq!(
        out.delivered_units, TOTAL_PACKETS,
        "{label}: client missing data units"
    );
    assert!(
        out.proxy_retransmissions > 0,
        "{label}: the sidecar never repaired a subpath loss"
    );
    assert!(
        out.timelines_with_proxy_retx > 0,
        "{label}: no packet timeline shows an in-network retransmission"
    );
    assert_eq!(
        out.decode_errors, 0,
        "{label}: wire codec rejected datagrams"
    );
}

#[test]
fn lossy_retx_chain_completes_and_certifies_over_loopback() {
    let out = run_retx_chain(11, None, sidecar_cfg());
    assert_outcome(&out, "plain");
}

#[test]
fn lossy_retx_chain_certifies_with_authenticated_control_channel() {
    let out = run_retx_chain(
        13,
        Some(AuthConfig::from_secret(0x5EC7_0CA7, 1)),
        sidecar_cfg(),
    );
    assert_outcome(&out, "auth");
}

/// Proxies started with different thresholds: the receiver-side proxy
/// refuses the sender-side proxy's `t = 64` offer, so the flow runs end to
/// end. Every unit still arrives, the run still certifies, and no quACK of
/// the foreign shape is ever decoded.
#[test]
fn mismatched_thresholds_refuse_the_handshake_and_run_end_to_end() {
    let producer = SidecarConfig {
        threshold: 20,
        ..sidecar_cfg()
    };
    let out = run_retx_chain(17, None, producer);
    assert!(
        out.certified,
        "causal certification failed: {:?}",
        out.certify_err
    );
    assert_eq!(
        out.delivered_units, TOTAL_PACKETS,
        "client missing data units"
    );
    assert!(out.handshakes_rejected >= 1, "no handshake was refused");
    assert_eq!(
        out.handshakes_accepted, 0,
        "a mismatched handshake was accepted"
    );
    assert_eq!(out.malformed_quacks, 0, "a foreign-shape quACK was decoded");
}

/// The admin endpoint over a *real* transfer: attach an [`AdminServer`] to
/// the chain's driver handles, run the lossy transfer, then scrape
/// `/metrics`, `/flows`, and `/healthz` over real TCP and assert each body
/// is well-formed (parses back with the crate's own strict parsers) and
/// reflects the run — quACKs counted, the transfer flow ranked on the
/// scoreboard with retransmissions.
#[test]
fn admin_endpoint_serves_a_live_run() {
    use sidecar_live::admin::{AdminHandles, AdminServer};
    use std::io::{Read, Write};

    let sidecar_cfg = sidecar_cfg();
    let mut driver = LiveDriver::new(21);
    driver.obs_mut().resize_trace(1 << 17);
    let server = driver.install(Box::new(SenderNode::new(SenderConfig {
        flow: FlowId(1),
        total_packets: Some(TOTAL_PACKETS),
        cc: CcAlgorithm::NewReno,
        id_seed: 21 ^ 0xA5A5,
        peer_max_ack_delay: SimDuration::from_millis(60),
        ..SenderConfig::default()
    })));
    let proxy_a = driver.install(Box::new(SenderSideProxy::new(
        sidecar_cfg,
        SimDuration::from_millis(4),
        4_096,
        SupervisionConfig::default(),
    )));
    let proxy_b = driver.install(Box::new(ReceiverSideProxy::new(sidecar_cfg)));
    let client = driver.install(Box::new(ReceiverNode::new(ReceiverConfig {
        ack_every: 8,
        max_ack_delay: SimDuration::from_millis(20),
        immediate_on_gap: false,
        ..ReceiverConfig::default()
    })));
    attach_link(&mut driver, server, IfaceId(0), proxy_a, IfaceId(0));
    attach_link(&mut driver, proxy_a, IfaceId(1), proxy_b, IfaceId(0));
    attach_link(&mut driver, proxy_b, IfaceId(1), client, IfaceId(0));
    driver.set_egress_loss(proxy_a, IfaceId(1), DROP_EVERY);

    let admin = AdminServer::spawn(
        "127.0.0.1:0",
        AdminHandles {
            registry: driver.obs().metrics.clone(),
            scoreboard: driver.obs().scoreboard.clone(),
        },
        Some(std::time::Duration::from_millis(50)),
    )
    .expect("bind admin");
    let addr = admin.local_addr();

    let slice = SimDuration::from_millis(50);
    let mut deadline = SimTime::ZERO;
    for _ in 0..400 {
        deadline = driver.now().max(deadline) + slice;
        driver.run_until(deadline);
        let sender: &SenderNode = (&driver as &dyn Driver).node_as(server);
        if sender.core().is_complete() {
            break;
        }
    }
    let sender: &SenderNode = (&driver as &dyn Driver).node_as(server);
    assert!(sender.core().is_complete(), "transfer stalled");

    let get = |path: &str| -> (String, String) {
        let mut conn = std::net::TcpStream::connect(addr).expect("connect admin");
        write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    };

    let (head, body) = get("/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let snap = sidecar_obs::parse_prometheus(&body).expect("exposition is well-formed");
    assert!(snap.counter("sidecar_sent_quack") > 0, "quacks scraped");
    assert!(snap.counter("quack_decoded") > 0, "decodes scraped");

    let (head, body) = get("/flows");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let flows = sidecar_obs::ScoreboardSnapshot::parse(&body).expect("scoreboard is well-formed");
    let row = flows
        .rows
        .iter()
        .find(|r| r.flow == 1)
        .expect("transfer flow is ranked");
    assert!(row.retx > 0, "proxy retx attributed to the flow: {row:?}");

    let (head, body) = get("/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}: {body}");
    assert!(body.starts_with("ok"), "{body:?}");

    admin.shutdown();
}

/// Satellite: wall-clock jitter must not leak into the *certified facts*.
/// Three runs of the same configuration differ in timing (real sockets)
/// but must agree on certification, delivered bytes, and that in-network
/// recovery happened.
#[test]
fn certification_and_delivery_are_stable_across_runs() {
    let runs: Vec<RunOutcome> = (0..3)
        .map(|i| run_retx_chain(100 + i, None, sidecar_cfg()))
        .collect();
    for (i, out) in runs.iter().enumerate() {
        assert_outcome(out, &format!("run {i}"));
    }
    let bytes: Vec<u64> = runs.iter().map(|r| r.delivered_bytes).collect();
    assert!(
        bytes.windows(2).all(|w| w[0] == w[1]),
        "delivered byte counts diverged across runs: {bytes:?}"
    );
}

/// Counts arrivals. On start it sends one data packet out of `IfaceId(0)`
/// and arms its only timer 10 s out.
struct Probe {
    packets: u64,
}

impl Node for Probe {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.send(IfaceId(0), Packet::data(FlowId(1), 0, 1, 1500, ctx.now()));
        ctx.set_timer_after(SimDuration::from_secs(10), 0);
    }
    fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {
        self.packets += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn probe_image() -> Vec<u8> {
    wire::encode(&Packet::data(FlowId(1), 1, 2, 1500, SimTime::ZERO))
}

/// Regression: a connected socket whose peer is not up yet gets
/// `ECONNREFUSED` (the ICMP port-unreachable its send drew) on its next
/// receive. That error must be counted and read past, not end the
/// socket's reading for good.
#[test]
fn an_icmp_refusal_does_not_deafen_a_socket() {
    let mut driver = LiveDriver::new(5);
    let probe = driver.install(Box::new(Probe { packets: 0 }));
    let (sock, peer) = loopback_pair().expect("bind loopback pair");
    let (sock_addr, peer_addr) = (sock.local_addr().unwrap(), peer.local_addr().unwrap());
    drop(peer);
    driver
        .attach_socket(probe, IfaceId(0), sock, peer_addr)
        .expect("attach");
    driver.run_until(SimTime::ZERO + SimDuration::from_millis(20));
    assert_eq!(driver.stats().recv_errors, 1, "the send drew a refusal");

    let peer = UdpSocket::bind(peer_addr).expect("rebind the peer's address");
    peer.send_to(&probe_image(), sock_addr).expect("send");
    let deadline = driver.now() + SimDuration::from_millis(50);
    driver.run_until(deadline);
    let node: &Probe = (&driver as &dyn Driver).node_as(probe);
    assert_eq!(node.packets, 1, "the refused socket still delivers");
}

/// A parked driver wakes for an arrival. The node's only timer is 10 s
/// out and the loop leaves at the deadline without sweeping, so only the
/// socket's readiness can explain the delivery.
#[test]
fn an_arrival_wakes_a_parked_driver() {
    let mut driver = LiveDriver::new(6);
    let probe = driver.install(Box::new(Probe { packets: 0 }));
    let (sock, peer) = loopback_pair().expect("bind loopback pair");
    let peer_addr = peer.local_addr().unwrap();
    driver
        .attach_socket(probe, IfaceId(0), sock, peer_addr)
        .expect("attach");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            peer.send(&probe_image()).expect("send");
        });
        let deadline = driver.now() + SimDuration::from_millis(100);
        driver.run_until(deadline);
    });
    let node: &Probe = (&driver as &dyn Driver).node_as(probe);
    assert_eq!(node.packets, 1, "the arrival woke the driver");
}
