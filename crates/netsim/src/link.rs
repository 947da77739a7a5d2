//! Unidirectional links: rate, propagation delay, a drop-tail queue, loss
//! models, and optional reordering jitter.
//!
//! A link is the simulator's stand-in for the path segments the paper's
//! protocols care about: the well-provisioned server–proxy segment and the
//! lossy/slow proxy–client segment (Figs. 1b, 3, 4). Fault injection is
//! part of the link itself (smoltcp-style) so every scenario can dial in
//! loss and reordering reproducibly.

use crate::rng::SimRng;
use crate::time::{transmission_time, SimDuration, SimTime};
use std::collections::VecDeque;

/// Random-loss model applied per packet at transmission.
#[derive(Clone, Debug, PartialEq)]
pub enum LossModel {
    /// No random loss (queue overflow can still drop).
    None,
    /// Independent Bernoulli loss with probability `p`.
    Bernoulli {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss model: in `Good` the packet is
    /// lost with `p_good`, in `Bad` with `p_bad`; states flip with the given
    /// transition probabilities after each packet.
    GilbertElliott {
        /// Loss probability in the good state (often 0).
        p_good: f64,
        /// Loss probability in the bad state.
        p_bad: f64,
        /// P(good → bad) per packet.
        good_to_bad: f64,
        /// P(bad → good) per packet.
        bad_to_good: f64,
    },
}

impl LossModel {
    /// Average loss rate of the model (for reporting and frequency tuning).
    pub fn mean_loss_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_good,
                p_bad,
                good_to_bad,
                bad_to_good,
            } => {
                // Stationary distribution of the two-state chain.
                let denom = good_to_bad + bad_to_good;
                if denom == 0.0 {
                    return p_good;
                }
                let pi_bad = good_to_bad / denom;
                p_good * (1.0 - pi_bad) + p_bad * pi_bad
            }
        }
    }
}

/// Static configuration of a link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Bottleneck rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Drop-tail queue capacity, in packets (in addition to the packet in
    /// service).
    pub queue_packets: usize,
    /// Random loss model.
    pub loss: LossModel,
    /// Maximum extra random delay added per packet (uniform in
    /// `[0, jitter]`); nonzero values can reorder packets (§3.3
    /// "Re-ordered packets").
    pub jitter: SimDuration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            rate_bps: 1_000_000_000,
            delay: SimDuration::from_millis(1),
            queue_packets: 256,
            loss: LossModel::None,
            jitter: SimDuration::ZERO,
        }
    }
}

/// Per-link transfer statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets dropped by the full queue.
    pub dropped_queue: u64,
    /// Packets dropped by the loss model.
    pub dropped_loss: u64,
    /// Packets that will be delivered.
    pub delivered: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
}

/// The outcome of offering one packet to a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkOutcome {
    /// The packet will arrive at the far end at the contained time.
    Deliver(SimTime),
    /// Dropped: the queue was full.
    DropQueue,
    /// Dropped: the loss model fired.
    DropLoss,
}

/// Runtime state of a unidirectional link.
#[derive(Clone, Debug)]
pub struct Link {
    config: LinkConfig,
    /// When the transmitter finishes the packet currently in service.
    busy_until: SimTime,
    /// Serialization-finish times of queued/in-service packets (front =
    /// oldest); used for exact drop-tail occupancy accounting.
    in_flight: VecDeque<SimTime>,
    /// Gilbert–Elliott state: `true` = bad.
    ge_bad: bool,
    /// Statistics.
    pub stats: LinkStats,
}

impl Link {
    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        assert!(config.rate_bps > 0, "link rate must be positive");
        Link {
            config,
            busy_until: SimTime::ZERO,
            in_flight: VecDeque::new(),
            ge_bad: false,
            stats: LinkStats::default(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Current queue occupancy (packets queued or in service) at `now`.
    pub fn occupancy(&mut self, now: SimTime) -> usize {
        while self.in_flight.front().is_some_and(|&t| t <= now) {
            self.in_flight.pop_front();
        }
        self.in_flight.len()
    }

    /// Offers a packet of `size` bytes to the link at time `now`, returning
    /// when (and whether) it arrives at the far end.
    ///
    /// Loss is evaluated before queueing (transmission-medium loss), queue
    /// overflow after — so a lossy link still fills its queue realistically.
    pub fn offer(&mut self, now: SimTime, size: u32, rng: &mut SimRng) -> LinkOutcome {
        self.stats.offered += 1;
        if self.draw_loss(rng) {
            self.stats.dropped_loss += 1;
            return LinkOutcome::DropLoss;
        }
        // Occupancy counts the packet in service; capacity is queue + 1.
        if self.occupancy(now) > self.config.queue_packets {
            self.stats.dropped_queue += 1;
            return LinkOutcome::DropQueue;
        }
        let start = self.busy_until.max(now);
        let finish = start + transmission_time(size, self.config.rate_bps);
        self.busy_until = finish;
        self.in_flight.push_back(finish);
        let jitter = if self.config.jitter == SimDuration::ZERO {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(rng.below(self.config.jitter.as_nanos() + 1))
        };
        let arrival = finish + self.config.delay + jitter;
        self.stats.delivered += 1;
        self.stats.delivered_bytes += size as u64;
        LinkOutcome::Deliver(arrival)
    }

    fn draw_loss(&mut self, rng: &mut SimRng) -> bool {
        match self.config.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.chance(p),
            LossModel::GilbertElliott {
                p_good,
                p_bad,
                good_to_bad,
                bad_to_good,
            } => {
                let p = if self.ge_bad { p_bad } else { p_good };
                let lost = rng.chance(p);
                // Evolve the channel state after each packet.
                if self.ge_bad {
                    if rng.chance(bad_to_good) {
                        self.ge_bad = false;
                    }
                } else if rng.chance(good_to_bad) {
                    self.ge_bad = true;
                }
                lost
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    #[test]
    fn delivery_time_includes_serialization_and_delay() {
        let mut link = Link::new(LinkConfig {
            rate_bps: 8_000_000, // 1 byte/us
            delay: SimDuration::from_millis(10),
            ..LinkConfig::default()
        });
        let out = link.offer(SimTime::ZERO, 1000, &mut rng());
        // 1000 B = 1 ms serialization + 10 ms propagation.
        assert_eq!(out, LinkOutcome::Deliver(SimTime::from_nanos(11_000_000)));
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut link = Link::new(LinkConfig {
            rate_bps: 8_000_000,
            delay: SimDuration::ZERO,
            ..LinkConfig::default()
        });
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let a = link.offer(t0, 1000, &mut r);
        let b = link.offer(t0, 1000, &mut r);
        assert_eq!(a, LinkOutcome::Deliver(SimTime::from_nanos(1_000_000)));
        assert_eq!(b, LinkOutcome::Deliver(SimTime::from_nanos(2_000_000)));
    }

    #[test]
    fn fifo_order_preserved_without_jitter() {
        let mut link = Link::new(LinkConfig::default());
        let mut r = rng();
        let mut last = SimTime::ZERO;
        for i in 0..50 {
            let t = SimTime::from_nanos(i * 100);
            match link.offer(t, 1500, &mut r) {
                LinkOutcome::Deliver(at) => {
                    assert!(at >= last, "reordering without jitter");
                    last = at;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn queue_overflow_drops() {
        let mut link = Link::new(LinkConfig {
            rate_bps: 8_000, // 1 byte/ms: glacial
            queue_packets: 2,
            delay: SimDuration::ZERO,
            ..LinkConfig::default()
        });
        let mut r = rng();
        let t0 = SimTime::ZERO;
        // Capacity = 1 in service + 2 queued.
        assert!(matches!(
            link.offer(t0, 100, &mut r),
            LinkOutcome::Deliver(_)
        ));
        assert!(matches!(
            link.offer(t0, 100, &mut r),
            LinkOutcome::Deliver(_)
        ));
        assert!(matches!(
            link.offer(t0, 100, &mut r),
            LinkOutcome::Deliver(_)
        ));
        assert_eq!(link.offer(t0, 100, &mut r), LinkOutcome::DropQueue);
        assert_eq!(link.stats.dropped_queue, 1);
        assert_eq!(link.stats.offered, 4);
        // After the backlog drains, the queue accepts again.
        let later = SimTime::ZERO + SimDuration::from_secs(1000);
        assert!(matches!(
            link.offer(later, 100, &mut r),
            LinkOutcome::Deliver(_)
        ));
    }

    #[test]
    fn bernoulli_loss_rate_approximates_p() {
        let mut link = Link::new(LinkConfig {
            loss: LossModel::Bernoulli { p: 0.1 },
            queue_packets: usize::MAX,
            ..LinkConfig::default()
        });
        let mut r = rng();
        for i in 0..20_000u64 {
            let _ = link.offer(SimTime::from_nanos(i * 1_000_000), 100, &mut r);
        }
        let rate = link.stats.dropped_loss as f64 / link.stats.offered as f64;
        assert!((0.08..0.12).contains(&rate), "{rate}");
    }

    #[test]
    fn gilbert_elliott_stationary_loss() {
        let model = LossModel::GilbertElliott {
            p_good: 0.0,
            p_bad: 0.5,
            good_to_bad: 0.02,
            bad_to_good: 0.18,
        };
        // pi_bad = 0.02 / 0.20 = 0.1 → mean loss 0.05.
        assert!((model.mean_loss_rate() - 0.05).abs() < 1e-12);
        let mut link = Link::new(LinkConfig {
            loss: model,
            queue_packets: usize::MAX,
            ..LinkConfig::default()
        });
        let mut r = rng();
        for i in 0..100_000u64 {
            let _ = link.offer(SimTime::from_nanos(i * 1_000_000), 100, &mut r);
        }
        let rate = link.stats.dropped_loss as f64 / link.stats.offered as f64;
        assert!((0.03..0.07).contains(&rate), "{rate}");
    }

    #[test]
    fn mean_loss_rate_edge_cases() {
        assert_eq!(LossModel::None.mean_loss_rate(), 0.0);
        assert_eq!(LossModel::Bernoulli { p: 0.02 }.mean_loss_rate(), 0.02);
        let frozen = LossModel::GilbertElliott {
            p_good: 0.01,
            p_bad: 0.9,
            good_to_bad: 0.0,
            bad_to_good: 0.0,
        };
        assert_eq!(frozen.mean_loss_rate(), 0.01);
    }

    #[test]
    fn jitter_can_reorder() {
        let mut link = Link::new(LinkConfig {
            rate_bps: 1_000_000_000_000, // effectively instant serialization
            delay: SimDuration::from_millis(1),
            jitter: SimDuration::from_millis(5),
            ..LinkConfig::default()
        });
        let mut r = rng();
        let mut arrivals = Vec::new();
        for i in 0..200 {
            if let LinkOutcome::Deliver(at) = link.offer(SimTime::from_nanos(i * 1000), 100, &mut r)
            {
                arrivals.push(at);
            }
        }
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_ne!(arrivals, sorted, "jitter should reorder at least one pair");
    }
}
