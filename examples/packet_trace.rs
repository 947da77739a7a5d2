//! Observability: trace every packet of a small lossy transfer.
//!
//! Every world carries a flight recorder — a bounded ring of timestamped
//! events (hop enqueues and deliveries, drops with their cause, fault
//! edges) — next to its metrics registry: the debugging loop for building
//! new sidecar protocols.
//!
//! Run: `cargo run --release --example packet_trace`

use sidecar_repro::netsim::link::{LinkConfig, LossModel};
use sidecar_repro::netsim::time::SimTime;
use sidecar_repro::netsim::transport::{ReceiverConfig, ReceiverNode, SenderConfig, SenderNode};
use sidecar_repro::netsim::world::World;

fn main() {
    let mut world = World::new(2024);
    world.obs_mut().resize_trace(10_000);

    let sender = world.add_node(SenderNode::boxed(SenderConfig {
        total_packets: Some(30),
        ..SenderConfig::default()
    }));
    let receiver = world.add_node(ReceiverNode::boxed(ReceiverConfig::default()));
    world.connect(
        sender,
        receiver,
        LinkConfig {
            loss: LossModel::Bernoulli { p: 0.15 },
            ..LinkConfig::default()
        },
        LinkConfig::default(),
    );
    world.run_until_idle(1_000_000);

    let obs = world.obs();
    println!("--- first 25 events ---");
    for line in obs.trace.render().lines().take(25) {
        println!("{line}");
    }
    println!("--- summary ---");
    println!(
        "{} events recorded; {} loss drops, {} queue drops",
        obs.trace.len(),
        obs.metrics.counter_value("netsim.drop.loss"),
        obs.metrics.counter_value("netsim.drop.queue"),
    );
    let mut drops = obs.trace.events().filter(|(_, e)| e.kind() == "link_drop");
    if let Some(&(at, _)) = drops.next() {
        println!("first casualty at {}", SimTime::from_nanos(at));
    }
    let stats = world.node_as::<SenderNode>(sender).stats();
    println!(
        "flow finished at {:?} with {} retransmissions",
        stats.completed_at, stats.retransmissions
    );
}
