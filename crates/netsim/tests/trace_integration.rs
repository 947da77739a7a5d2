//! Integration: the world's flight recorder is a faithful causal record of
//! a transport flow.

use sidecar_netsim::link::{LinkConfig, LossModel};
use sidecar_netsim::transport::{ReceiverConfig, ReceiverNode, SenderConfig, SenderNode};
use sidecar_netsim::world::World;
use sidecar_netsim::{IfaceId, NodeId};
use sidecar_obs::{DropCause::Loss, DropCause::Queue, Event, TraceClass::Data};

/// A sender and a receiver joined by one link, lossy towards the receiver.
fn flow_world(seed: u64, total: u64, loss: LossModel) -> (World, NodeId, NodeId) {
    let mut w = World::new(seed);
    let s = w.add_node(SenderNode::boxed(SenderConfig {
        total_packets: Some(total),
        ..SenderConfig::default()
    }));
    let r = w.add_node(ReceiverNode::boxed(ReceiverConfig::default()));
    let lossy = LinkConfig {
        loss,
        ..LinkConfig::default()
    };
    w.connect(s, r, lossy, LinkConfig::default());
    (w, s, r)
}

#[test]
fn trace_records_deliveries_and_drops() {
    let (mut w, s, r) = flow_world(5, 200, LossModel::Bernoulli { p: 0.05 });
    w.obs_mut().resize_trace(100_000);
    w.run_until_idle(10_000_000);
    let trace = &w.obs().trace;
    assert_eq!(trace.dropped(), 0, "the ring held the whole run");

    // Data deliveries at the receiver match the receiver's own count.
    let receiver_stats = w.node_as::<ReceiverNode>(r).stats().clone();
    let to_receiver =
        |e: &Event| matches!(e, Event::HopDeliver { node: 1, class, .. } if *class == Data);
    let data_deliveries = trace.events().filter(|(_, e)| to_receiver(e)).count() as u64;
    assert_eq!(data_deliveries, receiver_stats.received_packets);

    // Link drops in the trace match the data link's stats, cause by cause.
    let link_stats = w.link_stats(s, IfaceId(0)).clone();
    let drops = |why| {
        let dropped = |e: &Event| matches!(e, Event::LinkDrop { cause, .. } if *cause == why);
        trace.events().filter(|(_, e)| dropped(e)).count() as u64
    };
    assert_eq!(drops(Loss), link_stats.dropped_loss);
    assert_eq!(drops(Queue), link_stats.dropped_queue);
    assert!(drops(Loss) > 0, "5% loss over 200+ packets must drop some");

    // ACKs are untraced by design; that they flowed back is the sender's to
    // say: every unit was acknowledged.
    assert_eq!(w.node_as::<SenderNode>(s).stats().delivered_packets, 200);

    // Events are time-ordered.
    let times: Vec<u64> = trace.events().map(|&(at, _)| at).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));

    // The rendering names drops with their cause.
    let text = trace.render();
    assert!(text.contains("link_drop") && text.contains("cause=loss"));
    assert!(text.contains("hop_deliver"));
}

#[test]
fn disabled_trace_costs_nothing_and_records_nothing() {
    let (mut w, _, _) = flow_world(7, 50, LossModel::None);
    w.obs_mut().trace.set_enabled(false);
    w.run_until_idle(10_000_000);
    let trace = &w.obs().trace;
    assert!(!trace.is_enabled());
    assert!(trace.is_empty());
    assert_eq!(trace.dropped(), 0);
}
