//! **Live datapath**: per-packet host overhead of the real-socket driver
//! versus the simulator's hot path, for the *same* §2.3 in-network
//! retransmission chain.
//!
//! The tentpole claim behind `crates/live` is that the protocol state
//! machines are host-agnostic: `SenderNode → SenderSideProxy → lossy
//! segment → ReceiverSideProxy → ReceiverNode` runs unmodified over
//! loopback UDP sockets or the deterministic simulator. This harness
//! quantifies what the live host costs per packet on top of that shared
//! logic:
//!
//! * **live_ns_per_packet** — wall nanoseconds spent inside node callbacks
//!   and action application on the [`LiveDriver`] (its `DriverStats`
//!   separates compute from socket waits), divided by datagrams delivered
//!   into nodes. The egress `send_to` runs inside action application and
//!   counts; the receive side (the run loop's non-blocking `recv` sweeps
//!   and its parking in `ppoll`) is deliberately excluded: this is the
//!   dispatch overhead a deployment pays per packet, not the link's
//!   latency. The repository benchmark's `live_relay` prices the whole
//!   host, receive side included.
//! * **netsim_ns_per_packet** — wall time of the equivalent `World` run
//!   (virtual time never sleeps, so the whole run is compute) divided by
//!   `hop_deliver` events, the same "packet handed to a node" denominator.
//! * **live_overhead_ratio** — the former over the latter.
//! * **certified** — 1.0 iff every live run's flight recorder passed the
//!   causal lifecycle check (`Lifecycle::check_causal`), the same
//!   certification the loopback integration suite gates on.
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin exp_live`
//! (`--quick` shrinks the transfer and skips repetitions for CI smoke).

use sidecar_bench::{calibration_ops_per_sec, BenchReport, Table};
use sidecar_live::{loopback_pair, LiveDriver};
use sidecar_netsim::link::{LinkConfig, LossModel};
use sidecar_netsim::node::{IfaceId, NodeId};
use sidecar_netsim::packet::FlowId;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{
    CcAlgorithm, ReceiverConfig, ReceiverNode, SenderConfig, SenderNode,
};
use sidecar_netsim::{Driver, World};
use sidecar_obs::Lifecycle;
use sidecar_proto::config::{QuackFrequency, SidecarConfig, SupervisionConfig};
use sidecar_proto::protocols::retx::{ReceiverSideProxy, SenderSideProxy};
use std::time::Instant;

/// Every 8th data packet on the subpath is dropped (live: deterministic
/// egress policy; netsim: Bernoulli at the same rate), so both hosts do
/// real recovery work — quACK emission, decode, proxy retransmission.
const DROP_EVERY: u64 = 8;

fn sidecar_cfg() -> SidecarConfig {
    SidecarConfig {
        threshold: 64,
        frequency: QuackFrequency::Adaptive(SimDuration::from_millis(3)),
        reorder_grace: SimDuration::from_millis(2),
        ..SidecarConfig::paper_default()
    }
}

fn sender_cfg(seed: u64, total: u64) -> SenderConfig {
    SenderConfig {
        flow: FlowId(1),
        total_packets: Some(total),
        cc: CcAlgorithm::NewReno,
        id_seed: seed ^ 0xA5A5,
        peer_max_ack_delay: SimDuration::from_millis(60),
        ..SenderConfig::default()
    }
}

fn receiver_cfg() -> ReceiverConfig {
    ReceiverConfig {
        ack_every: 8,
        max_ack_delay: SimDuration::from_millis(20),
        immediate_on_gap: false,
        ..ReceiverConfig::default()
    }
}

struct LiveRun {
    ns_per_packet: f64,
    packets_in: u64,
    certified: bool,
    certify_err: Option<String>,
    delivered: u64,
    proxy_retx: u64,
}

/// The loopback chain from `crates/live/tests/loopback.rs`, instrumented
/// for per-packet dispatch cost instead of pass/fail.
fn run_live(seed: u64, total: u64) -> LiveRun {
    let mut driver = LiveDriver::new(seed);
    driver.obs_mut().resize_trace(1 << 18);

    let server = driver.install(Box::new(SenderNode::new(sender_cfg(seed, total))));
    let proxy_a = driver.install(Box::new(SenderSideProxy::new(
        sidecar_cfg(),
        SimDuration::from_millis(4),
        4_096,
        SupervisionConfig::default(),
    )));
    let proxy_b = driver.install(Box::new(ReceiverSideProxy::new(sidecar_cfg())));
    let client = driver.install(Box::new(ReceiverNode::new(receiver_cfg())));

    attach_link(&mut driver, server, IfaceId(0), proxy_a, IfaceId(0));
    attach_link(&mut driver, proxy_a, IfaceId(1), proxy_b, IfaceId(0));
    attach_link(&mut driver, proxy_b, IfaceId(1), client, IfaceId(0));
    driver.set_egress_loss(proxy_a, IfaceId(1), DROP_EVERY);

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
    let receiver: &ReceiverNode = d.node_as(client);
    let proxy: &SenderSideProxy = d.node_as(proxy_a);
    let delivered = receiver.stats().unique_units;
    let proxy_retx = proxy.retransmitted;
    let certify = Lifecycle::from_trace(&driver.obs().trace).check_causal();
    let stats = driver.stats();
    LiveRun {
        ns_per_packet: stats.dispatch_ns as f64 / stats.packets_in.max(1) as f64,
        packets_in: stats.packets_in,
        certified: certify.is_ok(),
        certify_err: certify.err(),
        delivered,
        proxy_retx,
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

struct SimRun {
    ns_per_packet: f64,
    delivers: usize,
    delivered: u64,
}

/// The same four-node chain on the simulator: fast edges, a lossy subpath
/// at the live run's drop rate, and wall-clock timing of `run_until`.
fn run_netsim(seed: u64, total: u64) -> SimRun {
    let mut w = World::new(seed);
    w.obs_mut().resize_trace(1 << 21);

    let server = w.add_node(SenderNode::boxed(sender_cfg(seed, total)));
    let proxy_a = w.add_node(Box::new(SenderSideProxy::new(
        sidecar_cfg(),
        SimDuration::from_millis(4),
        4_096,
        SupervisionConfig::default(),
    )));
    let proxy_b = w.add_node(Box::new(ReceiverSideProxy::new(sidecar_cfg())));
    let client = w.add_node(ReceiverNode::boxed(receiver_cfg()));

    let edge = LinkConfig {
        rate_bps: 1_000_000_000,
        delay: SimDuration::from_micros(200),
        ..LinkConfig::default()
    };
    let subpath = LinkConfig {
        rate_bps: 1_000_000_000,
        delay: SimDuration::from_millis(2),
        loss: LossModel::Bernoulli {
            p: 1.0 / DROP_EVERY as f64,
        },
        ..LinkConfig::default()
    };
    w.connect(server, proxy_a, edge.clone(), edge.clone());
    w.connect(proxy_a, proxy_b, subpath.clone(), subpath);
    w.connect(proxy_b, client, edge.clone(), edge);

    let mut elapsed_ns = 0u128;
    let mut deadline = SimTime::ZERO;
    for _ in 0..120 {
        deadline += SimDuration::from_millis(500);
        let t0 = Instant::now();
        w.run_until(deadline);
        elapsed_ns += t0.elapsed().as_nanos();
        if w.node_as::<SenderNode>(server).core().is_complete() {
            break;
        }
    }

    let delivers = w.obs().trace.count_kind("hop_deliver");
    SimRun {
        ns_per_packet: elapsed_ns as f64 / delivers.max(1) as f64,
        delivers,
        delivered: w.node_as::<ReceiverNode>(client).stats().unique_units,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let total: u64 = if quick { 200 } else { 600 };
    let reps = if quick { 1 } else { 3 };

    println!(
        "live datapath overhead: the retx chain on real loopback sockets \
         vs the simulator ({total} packets, 1-in-{DROP_EVERY} subpath loss, \
         {reps} rep(s))\n"
    );

    let mut table = Table::new(&[
        "host",
        "rep",
        "packets",
        "delivered",
        "ns/packet",
        "certified",
    ]);
    let mut live_best = f64::INFINITY;
    let mut all_certified = true;
    for rep in 0..reps {
        let run = run_live(11 + rep, total);
        assert_eq!(
            run.delivered, total,
            "live rep {rep} lost data units (certify: {:?})",
            run.certify_err
        );
        assert!(run.proxy_retx > 0, "live rep {rep}: sidecar never repaired");
        all_certified &= run.certified;
        live_best = live_best.min(run.ns_per_packet);
        table.row(&[
            "live".into(),
            rep.to_string(),
            run.packets_in.to_string(),
            run.delivered.to_string(),
            format!("{:.0}", run.ns_per_packet),
            run.certified.to_string(),
        ]);
    }

    let mut sim_best = f64::INFINITY;
    for rep in 0..reps {
        let run = run_netsim(11 + rep, total);
        assert_eq!(run.delivered, total, "netsim rep {rep} lost data units");
        sim_best = sim_best.min(run.ns_per_packet);
        table.row(&[
            "netsim".into(),
            rep.to_string(),
            run.delivers.to_string(),
            run.delivered.to_string(),
            format!("{:.0}", run.ns_per_packet),
            "-".into(),
        ]);
    }
    table.print();

    let ratio = live_best / sim_best;
    println!(
        "\nheadline: live dispatch {live_best:.0} ns/packet vs netsim \
         {sim_best:.0} ns/packet ({ratio:.2}x); certified: {all_certified}"
    );

    let mut report = BenchReport::new("exp_live");
    report.push("calibration", &[], calibration_ops_per_sec(), "ops/s");
    report.push("live_ns_per_packet", &[], live_best, "ns");
    report.push("netsim_ns_per_packet", &[], sim_best, "ns");
    report.push("live_overhead_ratio", &[], ratio, "ratio");
    report.push(
        "certified",
        &[],
        if all_certified { 1.0 } else { 0.0 },
        "bool",
    );
    report.write_default().expect("write BENCH_exp_live.json");
    sidecar_bench::write_metrics_out("exp_live");
    sidecar_bench::write_trace_out("exp_live");
}
