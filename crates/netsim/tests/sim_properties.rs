//! Property-based tests of the simulator's core guarantees: determinism,
//! packet conservation, FIFO delivery, and transport reliability under
//! arbitrary loss.

use proptest::prelude::*;
use sidecar_netsim::link::{Link, LinkConfig, LinkOutcome, LossModel};
use sidecar_netsim::rng::SimRng;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{
    CcAlgorithm, ReceiverConfig, ReceiverNode, SenderConfig, SenderNode,
};
use sidecar_netsim::world::World;

/// Builds a two-host world from generated parameters.
fn build(
    seed: u64,
    total: u64,
    loss_milli: u64,
    delay_ms: u64,
    rate_mbps: u64,
    cc: CcAlgorithm,
    ack_every: u32,
) -> (World, sidecar_netsim::NodeId, sidecar_netsim::NodeId) {
    let mut w = World::new(seed);
    let s = w.add_node(SenderNode::boxed(SenderConfig {
        total_packets: Some(total),
        cc,
        ..SenderConfig::default()
    }));
    let r = w.add_node(ReceiverNode::boxed(ReceiverConfig {
        ack_every,
        ..ReceiverConfig::default()
    }));
    let cfg = LinkConfig {
        rate_bps: rate_mbps * 1_000_000,
        delay: SimDuration::from_millis(delay_ms),
        loss: if loss_milli == 0 {
            LossModel::None
        } else {
            LossModel::Bernoulli {
                p: loss_milli as f64 / 1000.0,
            }
        },
        ..LinkConfig::default()
    };
    w.connect(s, r, cfg, LinkConfig::default());
    (w, s, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reliability: the transport delivers every unit for any loss rate up
    /// to 20% and any parameter mix.
    #[test]
    fn transport_is_reliable_under_arbitrary_loss(
        seed in any::<u64>(),
        total in 20u64..150,
        loss_milli in 0u64..200,
        delay_ms in 1u64..40,
        rate_mbps in 5u64..200,
        cc in prop_oneof![Just(CcAlgorithm::NewReno), Just(CcAlgorithm::Cubic)],
        ack_every in 1u32..8,
    ) {
        let (mut w, s, r) = build(seed, total, loss_milli, delay_ms, rate_mbps, cc, ack_every);
        w.run_until_idle(20_000_000);
        let sender = w.node_as::<SenderNode>(s);
        prop_assert!(
            sender.core().is_complete(),
            "flow stalled: {:?}",
            sender.stats()
        );
        prop_assert_eq!(sender.stats().delivered_packets, total);
        let receiver = w.node_as::<ReceiverNode>(r);
        prop_assert_eq!(receiver.stats().unique_units, total);
        // Conservation at the sender: everything transmitted was either
        // delivered or declared lost eventually, nothing double-counted.
        prop_assert!(sender.stats().sent_packets >= total);
    }

    /// Determinism: identical parameters and seed give identical stats,
    /// clock, event count, rendered trace and metrics.
    #[test]
    fn identical_seeds_reproduce_exactly(
        seed in any::<u64>(),
        total in 20u64..100,
        loss_milli in 0u64..150,
    ) {
        let run = || {
            let (mut w, s, _) = build(seed, total, loss_milli, 10, 50, CcAlgorithm::NewReno, 2);
            w.run_until_idle(20_000_000);
            (
                w.node_as::<SenderNode>(s).stats().clone(),
                w.now(),
                w.events_processed(),
                w.obs().trace.render(),
                w.obs().metrics.snapshot().encode(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Link conservation: offered = delivered + dropped, and FIFO order is
    /// preserved when jitter is zero.
    #[test]
    fn link_conserves_and_orders_packets(
        seed in any::<u64>(),
        offers in 1usize..200,
        loss_milli in 0u64..500,
        rate_mbps in 1u64..1000,
        queue in 1usize..64,
    ) {
        let mut link = Link::new(LinkConfig {
            rate_bps: rate_mbps * 1_000_000,
            loss: LossModel::Bernoulli { p: loss_milli as f64 / 1000.0 },
            queue_packets: queue,
            ..LinkConfig::default()
        });
        let mut rng = SimRng::new(seed);
        let mut last_arrival = SimTime::ZERO;
        for i in 0..offers {
            let now = SimTime::ZERO + SimDuration::from_micros(i as u64 * 10);
            if let LinkOutcome::Deliver(at) = link.offer(now, 1500, &mut rng) {
                prop_assert!(at >= last_arrival, "FIFO violated");
                prop_assert!(at > now, "arrival not after offer");
                last_arrival = at;
            }
        }
        let st = &link.stats;
        prop_assert_eq!(st.offered, offers as u64);
        prop_assert_eq!(st.delivered + st.dropped_loss + st.dropped_queue, st.offered);
        prop_assert_eq!(st.delivered_bytes, st.delivered * 1500);
    }

    /// The Gilbert–Elliott model's empirical loss tracks its stationary
    /// mean within statistical tolerance.
    #[test]
    fn gilbert_elliott_mean_tracks_stationary(
        seed in any::<u64>(),
        p_bad_pct in 10u64..90,
        g2b_pct in 1u64..20,
        b2g_pct in 5u64..40,
    ) {
        let model = LossModel::GilbertElliott {
            p_good: 0.0,
            p_bad: p_bad_pct as f64 / 100.0,
            good_to_bad: g2b_pct as f64 / 100.0,
            bad_to_good: b2g_pct as f64 / 100.0,
        };
        let mean = model.mean_loss_rate();
        let mut link = Link::new(LinkConfig {
            loss: model,
            queue_packets: usize::MAX,
            ..LinkConfig::default()
        });
        let mut rng = SimRng::new(seed);
        let n = 60_000u64;
        for i in 0..n {
            let _ = link.offer(SimTime::ZERO + SimDuration::from_micros(i), 100, &mut rng);
        }
        let measured = link.stats.dropped_loss as f64 / n as f64;
        // Burst correlation inflates the variance; allow a wide band.
        prop_assert!(
            (measured - mean).abs() < 0.05 + mean * 0.35,
            "measured {measured:.4} vs stationary {mean:.4}"
        );
    }
}

mod receiver_range_model {
    use super::*;
    use sidecar_netsim::packet::{FlowId, Packet};
    use sidecar_netsim::transport::ReceiverCore;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The receiver's merged packet-number ranges always equal the set
        /// model, for arbitrary arrival orders with duplicates.
        #[test]
        fn ranges_match_set_model(pns in proptest::collection::vec(0u64..200, 1..120)) {
            let mut core = ReceiverCore::new(ReceiverConfig {
                ack_every: 1,
                max_ranges: usize::MAX,
                ..ReceiverConfig::default()
            });
            let mut model = BTreeSet::new();
            let mut last_ack = None;
            for (i, &pn) in pns.iter().enumerate() {
                let pkt = Packet::data(FlowId(0), pn, pn * 7 + 1, 1500,
                    SimTime::ZERO + SimDuration::from_micros(i as u64));
                last_ack = core.on_data(&pkt, SimTime::ZERO + SimDuration::from_micros(i as u64));
                model.insert(pn);
            }
            // The final ACK's ranges cover exactly the model.
            let ack = last_ack.expect("ack_every=1 always acks");
            let info = match ack.payload {
                sidecar_netsim::Payload::Ack(info) => info,
                _ => unreachable!(),
            };
            let mut covered = BTreeSet::new();
            for (s, e) in &info.ranges {
                prop_assert!(s <= e);
                for pn in *s..=*e {
                    prop_assert!(covered.insert(pn), "overlapping ranges");
                }
            }
            prop_assert_eq!(covered, model);
            prop_assert_eq!(info.largest, *pns.iter().max().unwrap());
            prop_assert_eq!(core.largest_pn(), Some(info.largest));
        }
    }
}
