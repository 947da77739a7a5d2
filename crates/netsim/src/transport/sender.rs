//! The sending side of the "paranoid" base transport.
//!
//! [`SenderCore`] is a sans-IO state machine: feed it ACKs and timer
//! expirations, poll it for packets to transmit. [`SenderNode`](super::SenderNode)
//! wraps the core as a simulator [`Node`](crate::node::Node). The split exists so the sidecar crate can
//! build *modified end hosts* (paper §2.1: "the only changes that need to be
//! made to the end hosts are installing a library…") by composing the same
//! core with sidecar logic, without forking the transport.
//!
//! Transport model (QUIC-flavored):
//!
//! * every transmission gets a fresh monotonically-increasing packet number
//!   (`pn`) and a fresh pseudo-random identifier (a retransmitted data unit
//!   is a *new* encrypted packet on the wire, so it gets a new identifier —
//!   exactly why a sidecar can treat identifiers as unique coupons);
//! * loss detection by packet-number threshold (QUIC's default 3) plus an
//!   RTO fallback with exponential backoff;
//! * at most one congestion event per window (recovery epoch tracking).

use super::cc::{CcAlgorithm, CongestionControl};
use super::rtt::RttEstimator;
use crate::packet::{AckInfo, FlowId, Packet};
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Configuration of a transport sender.
#[derive(Clone, Debug)]
pub struct SenderConfig {
    /// Flow identifier stamped on every packet.
    pub flow: FlowId,
    /// Size of every data packet on the wire, bytes.
    pub mtu: u32,
    /// How many data units to deliver; `None` means an unbounded flow
    /// (run the world with a deadline instead of to idle).
    pub total_packets: Option<u64>,
    /// Congestion-control algorithm.
    pub cc: CcAlgorithm,
    /// Initial congestion window, packets.
    pub initial_cwnd: u64,
    /// Packet-number reordering threshold for declaring loss.
    pub reorder_threshold: u64,
    /// Identifier width in bits (paper parameter `b`).
    pub id_bits: u32,
    /// Seed of this sender's identifier stream.
    pub id_seed: u64,
    /// Floor for the retransmission timeout.
    pub min_rto: SimDuration,
    /// Slack added to the RTO deadline for the peer's ACK delay (QUIC's
    /// PTO adds `max_ack_delay`; without it, sparse/delayed ACKs cause
    /// spurious timeouts).
    pub peer_max_ack_delay: SimDuration,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            flow: FlowId(0),
            mtu: 1500,
            total_packets: None,
            cc: CcAlgorithm::NewReno,
            initial_cwnd: 10,
            reorder_threshold: 3,
            id_bits: 32,
            id_seed: 0x5EED_CAFE,
            min_rto: SimDuration::from_millis(10),
            peer_max_ack_delay: SimDuration::from_millis(25),
        }
    }
}

/// What happened inside the core — drained by wrappers that need to observe
/// the flow (the sidecar library mirrors `Sent` events into its power sums).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SenderEvent {
    /// A packet left the sender.
    Sent {
        /// Packet number.
        pn: u64,
        /// Opaque identifier on the wire.
        id: u64,
        /// Data unit carried.
        unit: u64,
        /// Whether this was a retransmission of the unit.
        retx: bool,
    },
    /// A packet number was acknowledged.
    Acked {
        /// Packet number.
        pn: u64,
        /// Its identifier.
        id: u64,
    },
    /// A packet number was declared lost.
    Lost {
        /// Packet number.
        pn: u64,
        /// Its identifier.
        id: u64,
        /// The data unit it carried. Retransmissions travel under a fresh
        /// packet number, so the unit is the only stable key joining a loss
        /// to its eventual recovery (the flight recorder leans on this).
        unit: u64,
    },
}

/// Aggregate sender statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SenderStats {
    /// Total packets transmitted (including retransmissions).
    pub sent_packets: u64,
    /// Retransmitted packets.
    pub retransmissions: u64,
    /// Distinct data units acknowledged.
    pub delivered_packets: u64,
    /// Packet numbers declared lost.
    pub lost_packets: u64,
    /// Congestion events signaled to the controller.
    pub congestion_events: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// Completion time of the flow (all units delivered), if finished.
    pub completed_at: Option<SimTime>,
    /// Bytes transmitted.
    pub bytes_sent: u64,
}

impl SenderStats {
    /// Application goodput in bits/s over `[0, completed_at]`, given the
    /// per-unit payload size. `None` if the flow hasn't completed.
    pub fn goodput_bps(&self, mtu: u32) -> Option<f64> {
        let done = self.completed_at?;
        let secs = done.as_secs_f64();
        if secs == 0.0 {
            return None;
        }
        Some(self.delivered_packets as f64 * mtu as f64 * 8.0 / secs)
    }
}

/// Book-keeping for one in-flight transmission.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    unit: u64,
    id: u64,
    sent_at: SimTime,
}

/// Deterministic identifier stream (SplitMix64 — matches the quACK crate's
/// simulation identifiers).
#[derive(Clone, Debug)]
struct IdStream {
    state: u64,
    mask: u64,
}

impl IdStream {
    fn new(bits: u32, seed: u64) -> Self {
        assert!((1..=64).contains(&bits));
        IdStream {
            state: seed,
            mask: if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            },
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & self.mask
    }
}

/// The sans-IO transport sender.
pub struct SenderCore {
    cfg: SenderConfig,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    ids: IdStream,
    next_pn: u64,
    next_unit: u64,
    /// Units awaiting (re)transmission after being declared lost.
    retx_queue: VecDeque<u64>,
    /// In-flight transmissions by packet number (ordered: oldest first).
    in_flight: BTreeMap<u64, InFlight>,
    largest_acked: Option<u64>,
    /// Packets declared lost whose ACK may still arrive late (reordering,
    /// §3.3 "Re-ordered packets"); a late ACK cancels the retransmission.
    lost_unacked: BTreeMap<u64, InFlight>,
    delivered_units: HashSet<u64>,
    /// Packet numbers below this have already triggered a congestion event.
    recovery_until: u64,
    rto_backoff: u32,
    /// External window cap steered by a sidecar (paper §2.1), if any.
    cwnd_cap: Option<u64>,
    /// Packet numbers released from window accounting by a sidecar
    /// (ACK-reduction, paper §2.2): still awaiting end-to-end ACKs for
    /// reliability, but no longer holding back new transmissions.
    window_released: HashSet<u64>,
    stats: SenderStats,
    events: Vec<SenderEvent>,
}

impl SenderCore {
    /// Creates a sender from configuration (congestion controller built from
    /// `cfg.cc`).
    pub fn new(cfg: SenderConfig) -> Self {
        let cc = cfg.cc.build(cfg.initial_cwnd);
        Self::with_cc(cfg, cc)
    }

    /// Creates a sender with an explicit congestion controller.
    pub fn with_cc(cfg: SenderConfig, cc: Box<dyn CongestionControl>) -> Self {
        let ids = IdStream::new(cfg.id_bits, cfg.id_seed);
        let min_rto = cfg.min_rto;
        SenderCore {
            cfg,
            cc,
            rtt: RttEstimator::new(min_rto),
            ids,
            next_pn: 0,
            next_unit: 0,
            retx_queue: VecDeque::new(),
            in_flight: BTreeMap::new(),
            largest_acked: None,
            lost_unacked: BTreeMap::new(),
            delivered_units: HashSet::new(),
            recovery_until: 0,
            rto_backoff: 0,
            cwnd_cap: None,
            window_released: HashSet::new(),
            stats: SenderStats::default(),
            events: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SenderConfig {
        &self.cfg
    }

    /// Current effective congestion window (controller window, clamped by
    /// the sidecar cap if set).
    pub fn effective_cwnd(&self) -> u64 {
        let w = self.cc.cwnd();
        match self.cwnd_cap {
            Some(cap) => w.min(cap).max(1),
            None => w,
        }
    }

    /// Sets or clears the sidecar-steered window cap (paper §2.1: "the
    /// server end host … can decrease the congestion window").
    pub fn set_cwnd_cap(&mut self, cap: Option<u64>) {
        self.cwnd_cap = cap;
    }

    /// Replaces the congestion controller mid-flow, starting it at
    /// `initial_cwnd` (floored at the minimum window). Used by the sidecar
    /// supervision layer: a CCD server steered by a `Fixed` controller falls
    /// back to a real end-to-end controller when its sidecar goes dark, and
    /// swaps back on recovery. RTT state, the in-flight map, and the loss
    /// log all survive the swap — only the window policy changes.
    pub fn swap_cc(&mut self, algo: CcAlgorithm, initial_cwnd: u64) {
        self.cc = algo.build(initial_cwnd.max(2));
    }

    /// The RTT estimator.
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// Whether every data unit has been acknowledged.
    pub fn is_complete(&self) -> bool {
        self.stats.completed_at.is_some()
    }

    /// Packets currently in flight.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Drains the event log (sidecar hook).
    pub fn drain_events(&mut self) -> Vec<SenderEvent> {
        std::mem::take(&mut self.events)
    }

    /// Releases `pn` from congestion-window accounting without treating it
    /// as delivered: the ACK-reduction sidecar calls this when a proxy
    /// quACK confirms the packet crossed the server–proxy segment (§2.2
    /// "enable the server to move its sending window ahead more quickly").
    /// End-to-end reliability is untouched — the packet stays in flight for
    /// loss detection and RTO.
    pub fn mark_window_released(&mut self, pn: u64) {
        if self.in_flight.contains_key(&pn) {
            self.window_released.insert(pn);
        }
    }

    /// In-flight packets that still count against the congestion window.
    pub fn window_in_flight(&self) -> u64 {
        (self.in_flight.len() - self.window_released.len()) as u64
    }

    /// Credits the congestion controller with `acked` packets confirmed by
    /// a sidecar quACK rather than an end-to-end ACK (§2.2: the server need
    /// not "rely on end-to-end ACKs to make decisions to increase the
    /// cwnd"). Does not touch reliability state — only window growth.
    pub fn sidecar_ack_credit(&mut self, acked: u64, now: SimTime) {
        if acked > 0 {
            self.cc.on_ack(acked, now, &self.rtt);
        }
    }

    /// Produces every packet the window currently allows.
    pub fn poll_send(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        while self.window_in_flight() < self.effective_cwnd() {
            let Some((unit, retx)) = self.next_work() else {
                break;
            };
            let pn = self.next_pn;
            self.next_pn += 1;
            let id = self.ids.next();
            self.in_flight.insert(
                pn,
                InFlight {
                    unit,
                    id,
                    sent_at: now,
                },
            );
            self.stats.sent_packets += 1;
            self.stats.bytes_sent += self.cfg.mtu as u64;
            if retx {
                self.stats.retransmissions += 1;
            }
            self.events.push(SenderEvent::Sent { pn, id, unit, retx });
            out.push(Packet::data_unit(
                self.cfg.flow,
                pn,
                unit,
                id,
                self.cfg.mtu,
                now,
            ));
        }
        out
    }

    /// Picks the next data unit to transmit: lost units first, then fresh.
    fn next_work(&mut self) -> Option<(u64, bool)> {
        while let Some(unit) = self.retx_queue.pop_front() {
            if !self.delivered_units.contains(&unit) {
                return Some((unit, true));
            }
            // Spurious retransmission avoided: original arrived after all.
        }
        match self.cfg.total_packets {
            Some(total) if self.next_unit >= total => None,
            _ => {
                let unit = self.next_unit;
                self.next_unit += 1;
                Some((unit, false))
            }
        }
    }

    /// Processes an end-to-end ACK.
    pub fn on_ack(&mut self, ack: &AckInfo, now: SimTime) {
        let mut newly_acked = 0u64;
        let mut ack_of_largest: Option<InFlight> = None;
        let mut max_acked_pn: Option<u64> = None;
        // Collect acked packet numbers (ranges are few; in-flight is a map).
        let acked_pns: Vec<u64> = self
            .in_flight
            .keys()
            .copied()
            .filter(|&pn| ack.acks(pn))
            .collect();
        for pn in acked_pns {
            let info = self.in_flight.remove(&pn).expect("collected above");
            self.window_released.remove(&pn);
            newly_acked += 1;
            max_acked_pn = Some(max_acked_pn.map_or(pn, |m: u64| m.max(pn)));
            if pn == ack.largest {
                ack_of_largest = Some(info);
            }
            if self.delivered_units.insert(info.unit) {
                self.stats.delivered_packets += 1;
            }
            self.events.push(SenderEvent::Acked { pn, id: info.id });
        }
        // Late ACKs for packets we already wrote off: the data arrived after
        // all, so cancel the pending retransmission of their units.
        let late_pns: Vec<u64> = self
            .lost_unacked
            .keys()
            .copied()
            .filter(|&pn| ack.acks(pn))
            .collect();
        for pn in late_pns {
            let info = self.lost_unacked.remove(&pn).expect("collected above");
            newly_acked += 1;
            max_acked_pn = Some(max_acked_pn.map_or(pn, |m: u64| m.max(pn)));
            if self.delivered_units.insert(info.unit) {
                self.stats.delivered_packets += 1;
            }
            self.events.push(SenderEvent::Acked { pn, id: info.id });
        }
        if newly_acked == 0 {
            return;
        }
        self.rto_backoff = 0;
        if let Some(info) = ack_of_largest {
            self.rtt.on_sample(now - info.sent_at);
        }
        // Advance loss detection only from packet numbers this sender
        // actually sent and saw acknowledged — never from the wire-supplied
        // `ack.largest`, which a forged or corrupted ACK could set to
        // u64::MAX and instantly declare the whole window lost via the
        // reorder threshold. For an honest peer the two agree: its largest
        // is always a packet we transmitted.
        let advanced = max_acked_pn.expect("newly_acked > 0 implies an acked pn");
        self.largest_acked = Some(self.largest_acked.map_or(advanced, |l| l.max(advanced)));
        self.cc.on_ack(newly_acked, now, &self.rtt);
        self.detect_losses(now);
        self.check_complete(now);
    }

    /// Packet-number-threshold loss detection.
    fn detect_losses(&mut self, now: SimTime) {
        let Some(largest) = self.largest_acked else {
            return;
        };
        // A packet is lost once `threshold` later packets were acked past
        // it: pn + threshold <= largest (QUIC's packet-number threshold).
        if largest < self.cfg.reorder_threshold {
            return;
        }
        let cutoff = largest - self.cfg.reorder_threshold;
        let lost_pns: Vec<u64> = self.in_flight.range(..=cutoff).map(|(&pn, _)| pn).collect();
        let mut congestion = false;
        for pn in lost_pns {
            let info = self.in_flight.remove(&pn).expect("ranged above");
            self.window_released.remove(&pn);
            self.stats.lost_packets += 1;
            self.events.push(SenderEvent::Lost {
                pn,
                id: info.id,
                unit: info.unit,
            });
            if !self.delivered_units.contains(&info.unit) {
                self.retx_queue.push_back(info.unit);
                self.lost_unacked.insert(pn, info);
            }
            if pn >= self.recovery_until {
                congestion = true;
            }
        }
        // Bound the late-ACK record: entries whose unit has since been
        // delivered can never cancel anything anymore.
        self.lost_unacked
            .retain(|_, info| !self.delivered_units.contains(&info.unit));
        if congestion {
            self.recovery_until = self.next_pn;
            self.stats.congestion_events += 1;
            self.cc.on_congestion_event(now);
        }
    }

    /// The deadline of the retransmission timer, if any packets are in
    /// flight.
    pub fn next_timeout(&self) -> Option<SimTime> {
        let oldest = self.in_flight.values().map(|i| i.sent_at).min()?;
        let rto = self
            .rtt
            .rto()
            .saturating_mul(1u64 << self.rto_backoff.min(16));
        Some(oldest + rto + self.cfg.peer_max_ack_delay)
    }

    /// Fires the retransmission timeout: declares everything in flight
    /// lost (classic TCP go-back semantics — a late ACK for any of it
    /// still cancels the retransmission), collapses the window, and backs
    /// off. Draining the in-flight set is what lets the now-unit window
    /// admit the retransmission immediately.
    pub fn on_rto(&mut self, now: SimTime) {
        if self.in_flight.is_empty() {
            return;
        }
        self.stats.rtos += 1;
        let pns: Vec<u64> = self.in_flight.keys().copied().collect();
        for pn in pns {
            let info = self.in_flight.remove(&pn).expect("keyed above");
            self.window_released.remove(&pn);
            self.stats.lost_packets += 1;
            self.events.push(SenderEvent::Lost {
                pn,
                id: info.id,
                unit: info.unit,
            });
            if !self.delivered_units.contains(&info.unit) {
                self.retx_queue.push_back(info.unit);
                self.lost_unacked.insert(pn, info);
            }
        }
        self.rto_backoff += 1;
        self.recovery_until = self.next_pn;
        self.cc.on_rto();
        let _ = now;
    }

    fn check_complete(&mut self, now: SimTime) {
        if self.stats.completed_at.is_none() {
            if let Some(total) = self.cfg.total_packets {
                if self.delivered_units.len() as u64 >= total {
                    self.stats.completed_at = Some(now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack_for(pns: &[u64]) -> AckInfo {
        let largest = *pns.iter().max().unwrap();
        let mut sorted = pns.to_vec();
        sorted.sort_unstable();
        // Collapse into ranges.
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &pn in &sorted {
            match ranges.last_mut() {
                Some((_, e)) if *e + 1 == pn => *e = pn,
                _ => ranges.push((pn, pn)),
            }
        }
        ranges.reverse();
        AckInfo {
            largest,
            ranges,
            immediate: false,
        }
    }

    fn core(total: u64) -> SenderCore {
        SenderCore::new(SenderConfig {
            total_packets: Some(total),
            initial_cwnd: 4,
            ..SenderConfig::default()
        })
    }

    #[test]
    fn initial_poll_respects_cwnd() {
        let mut s = core(100);
        let pkts = s.poll_send(SimTime::ZERO);
        assert_eq!(pkts.len(), 4);
        assert_eq!(s.in_flight_count(), 4);
        // No window space left.
        assert!(s.poll_send(SimTime::ZERO).is_empty());
        // Packet numbers and units are sequential; ids pseudo-random.
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.seq, i as u64);
            assert!(matches!(p.payload, crate::packet::Payload::Data { unit } if unit == i as u64));
        }
    }

    #[test]
    fn ack_opens_window_and_samples_rtt() {
        let mut s = core(100);
        let pkts = s.poll_send(SimTime::ZERO);
        let t1 = SimTime::from_nanos(60_000_000);
        s.on_ack(&ack_for(&[0, 1, 2, 3]), t1);
        assert_eq!(s.stats().delivered_packets, 4);
        assert_eq!(s.rtt().latest(), Some(SimDuration::from_millis(60)));
        // NewReno slow start: window grew, more packets flow.
        let next = s.poll_send(t1);
        assert!(next.len() > pkts.len());
    }

    #[test]
    fn reorder_threshold_declares_loss_and_retransmits() {
        let mut s = core(100);
        let _ = s.poll_send(SimTime::ZERO); // pns 0..4 in flight
                                            // Ack pns 1..=3 — pn 0 is 3 below largest: declared lost.
        s.on_ack(&ack_for(&[1, 2, 3]), SimTime::from_nanos(1_000_000));
        assert_eq!(s.stats().lost_packets, 1);
        assert_eq!(s.stats().congestion_events, 1);
        let retx = s.poll_send(SimTime::from_nanos(1_100_000));
        // First packet out is the retransmission of unit 0 with a fresh pn.
        let first = &retx[0];
        assert!(matches!(
            first.payload,
            crate::packet::Payload::Data { unit: 0 }
        ));
        assert!(first.seq >= 4);
        assert_eq!(s.stats().retransmissions, 1);
        // The retransmission's identifier differs from the original's.
        let events = s.drain_events();
        let ids: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                SenderEvent::Sent { unit: 0, id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn one_congestion_event_per_window() {
        let mut s = core(100);
        let _ = s.poll_send(SimTime::ZERO); // pns 0..4
                                            // Lose pns 0 and 1 in the same window: one congestion event.
        s.on_ack(&ack_for(&[3]), SimTime::from_nanos(1)); // ack pn 3
        assert_eq!(s.stats().congestion_events, 1);
        let _ = s.poll_send(SimTime::from_nanos(2));
        // pn 1 and 2 still outstanding? ack a later pn to flush them.
        let in_flight_before = s.in_flight_count();
        assert!(in_flight_before > 0);
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut s = core(10);
        let sent = s.poll_send(SimTime::ZERO);
        let deadline = s.next_timeout().unwrap();
        assert!(deadline > SimTime::ZERO);
        s.on_rto(deadline);
        assert_eq!(s.stats().rtos, 1);
        // Everything in flight was written off (TCP go-back).
        assert_eq!(s.in_flight_count(), 0);
        assert_eq!(s.stats().lost_packets, sent.len() as u64);
        // Window collapsed to 1, admitting exactly the first retransmission.
        assert_eq!(s.effective_cwnd(), 1);
        let retx = s.poll_send(deadline);
        assert_eq!(retx.len(), 1);
        assert!(matches!(
            retx[0].payload,
            crate::packet::Payload::Data { unit: 0 }
        ));
        // Backoff pushes the next deadline beyond one plain RTO from now.
        let d2 = s.next_timeout().unwrap();
        assert!(d2 > deadline);
    }

    #[test]
    fn forged_largest_cannot_nuke_the_window() {
        // Regression: `largest_acked` used to advance straight to the
        // wire-supplied `ack.largest`. A forged ACK claiming
        // largest = u64::MAX (while genuinely acking one real pn so the
        // early-return didn't save us) pushed the loss cutoff past every
        // in-flight packet and declared the whole window lost.
        let mut s = core(100);
        let _ = s.poll_send(SimTime::ZERO); // pns 0..4 in flight
        let forged = AckInfo {
            largest: u64::MAX,
            ranges: vec![(u64::MAX, u64::MAX), (0, 0)],
            immediate: false,
        };
        s.on_ack(&forged, SimTime::from_nanos(1_000_000));
        // pn 0 was genuinely acked; the forged largest must not have
        // written off pns 1..4.
        assert_eq!(s.stats().delivered_packets, 1);
        assert_eq!(s.stats().lost_packets, 0);
        assert_eq!(s.in_flight_count(), 3);
        // Loss detection still keys off real acknowledgments afterwards.
        s.on_ack(&ack_for(&[1, 2, 3]), SimTime::from_nanos(2_000_000));
        assert_eq!(s.in_flight_count(), 0);
        assert_eq!(s.stats().lost_packets, 0);
    }

    #[test]
    fn completion_detected() {
        let mut s = core(4);
        let pkts = s.poll_send(SimTime::ZERO);
        assert_eq!(pkts.len(), 4);
        assert!(!s.is_complete());
        s.on_ack(&ack_for(&[0, 1, 2, 3]), SimTime::from_nanos(500));
        assert!(s.is_complete());
        assert_eq!(s.stats().completed_at, Some(SimTime::from_nanos(500)));
        // No more work.
        assert!(s.poll_send(SimTime::from_nanos(600)).is_empty());
        assert_eq!(s.next_timeout(), None);
    }

    #[test]
    fn spurious_retransmission_suppressed() {
        let mut s = core(10);
        let _ = s.poll_send(SimTime::ZERO); // pns 0..4
                                            // pn 0 declared lost via threshold…
        s.on_ack(&ack_for(&[3]), SimTime::from_nanos(1000));
        // …but unit 0's original arrives late (pn 0 acked) before retx sent.
        s.on_ack(&ack_for(&[0, 1, 2, 3]), SimTime::from_nanos(2000));
        let out = s.poll_send(SimTime::from_nanos(3000));
        // No packet re-carries unit 0.
        assert!(out
            .iter()
            .all(|p| !matches!(p.payload, crate::packet::Payload::Data { unit: 0 })));
        assert_eq!(s.stats().retransmissions, 0);
    }

    #[test]
    fn cwnd_cap_steers_window() {
        let mut s = core(1000);
        assert_eq!(s.effective_cwnd(), 4);
        s.set_cwnd_cap(Some(2));
        assert_eq!(s.effective_cwnd(), 2);
        assert_eq!(s.poll_send(SimTime::ZERO).len(), 2);
        s.set_cwnd_cap(None);
        assert_eq!(s.effective_cwnd(), 4);
        s.set_cwnd_cap(Some(0));
        assert_eq!(s.effective_cwnd(), 1, "cap clamps to at least 1");
    }

    #[test]
    fn goodput_requires_completion() {
        let mut s = core(2);
        assert_eq!(s.stats().goodput_bps(1500), None);
        let _ = s.poll_send(SimTime::ZERO);
        s.on_ack(&ack_for(&[0, 1]), SimTime::from_nanos(1_000_000_000));
        // 2 × 1500 B in 1 s = 24 kbit/s.
        let g = s.stats().goodput_bps(1500).unwrap();
        assert!((g - 24_000.0).abs() < 1.0, "{g}");
    }
}
