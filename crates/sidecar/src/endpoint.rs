//! Sidecar endpoint state machines: the quACK producer and consumer.
//!
//! A **producer** sits where packets are received (client host or a proxy's
//! ingress) and folds every observed identifier into its power sums,
//! emitting a quACK on the negotiated schedule. A **consumer** sits where
//! packets are sent (server host or a proxy's egress), mirrors the sums
//! over everything it sent, and decodes arriving quACKs into per-packet
//! fates.
//!
//! The consumer implements all of the paper's §3.3 practical
//! considerations:
//!
//! * **Resetting the threshold** — decoded-missing identifiers are removed
//!   from the mirror sums and log once confirmed, so `t` bounds the missing
//!   packets *since the last quACK*, not since connection start.
//! * **Re-ordered packets** — missing packets sit in a grace-period limbo
//!   before being declared lost; a later quACK that shows them received
//!   resurrects them.
//! * **In-flight packets** — when the sender has logged `n'` packets but
//!   the quACK covers `n` with `n' − n > t`, the newest `n' − n − t` log
//!   entries are subtracted out and treated as in transit, and any trailing
//!   run of recently-sent "missing" entries is likewise excused.
//! * **Exceeding the threshold** — `m > t` surfaces as an error; the
//!   protocols reset both endpoints to a new epoch.
//! * **Dropped quACKs** — power sums are cumulative, so a lost quACK merely
//!   delays information; stale (reordered) quACKs are detected via the
//!   wrap-aware count and skipped.

use crate::config::{QuackFrequency, SidecarConfig};
use crate::messages::SidecarMessage;
use sidecar_galois::{Field, NewtonWorkspace, LANES};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_quack::{DecodeError, PowerSumQuack};
use std::collections::VecDeque;

/// The quACK-producing side (receiver of the underlying packets).
///
/// Observed identifiers are buffered in a small burst buffer and folded
/// into the power sums [`LANES`] at a time via
/// `PowerSumQuack::insert_batch`, so back-to-back forwarded packets (the
/// netsim proxies call [`observe`](Self::observe) once per data packet)
/// amortize field setup and hit the lane-batched hot path. The buffer is
/// transparent: [`count`](Self::count) includes buffered identifiers and
/// [`emit`](Self::emit)/[`reset`](Self::reset) flush it, so no observed
/// packet is ever missing from an emitted quACK.
#[derive(Clone, Debug)]
pub struct QuackProducer<F: Field> {
    cfg: SidecarConfig,
    quack: PowerSumQuack<F>,
    /// Identifiers observed but not yet folded into `quack` (≤ [`LANES`]).
    burst: Vec<u64>,
    epoch: u32,
    /// Packets observed since the last emission (for `EveryPackets`).
    since_emit: u32,
    /// Current emission interval (for `Interval`/`Adaptive`).
    interval: Option<SimDuration>,
    /// Total quACKs emitted.
    pub emitted: u64,
}

impl<F: Field> QuackProducer<F> {
    /// Creates a producer.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.id_bits` disagrees with the field width `F::BITS`.
    pub fn new(cfg: SidecarConfig) -> Self {
        assert_eq!(cfg.id_bits, F::BITS, "config/field width mismatch");
        let interval = match cfg.frequency {
            QuackFrequency::Interval(d) | QuackFrequency::Adaptive(d) => Some(d),
            QuackFrequency::EveryPackets(_) => None,
        };
        QuackProducer {
            quack: PowerSumQuack::new(cfg.threshold),
            burst: Vec::with_capacity(LANES),
            cfg,
            epoch: 0,
            since_emit: 0,
            interval,
            emitted: 0,
        }
    }

    /// The configuration this producer was built with.
    pub(crate) fn config(&self) -> &SidecarConfig {
        &self.cfg
    }

    /// The current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Total identifiers observed in this epoch (including any still in the
    /// burst buffer).
    pub fn count(&self) -> u32 {
        self.quack.count().wrapping_add(self.burst.len() as u32)
    }

    /// Identifiers currently sitting in the burst buffer, not yet folded
    /// into the power sums. Read just before [`emit`](Self::emit) it tells
    /// how full the lane batch was when the quACK forced a flush.
    pub fn burst_fill(&self) -> usize {
        self.burst.len()
    }

    /// Folds the burst buffer into the power sums.
    fn flush(&mut self) {
        if !self.burst.is_empty() {
            self.quack.insert_batch(&self.burst);
            self.burst.clear();
        }
    }

    /// Observes one identifier; returns `true` if the packet-count schedule
    /// says a quACK is due now.
    ///
    /// The identifier lands in the burst buffer and is folded into the sums
    /// in a lane-batched chunk once [`LANES`] observations accumulate (or
    /// at the next [`emit`](Self::emit), whichever comes first).
    pub fn observe(&mut self, id: u64) -> bool {
        self.burst.push(id);
        if self.burst.len() >= LANES {
            self.flush();
        }
        self.since_emit += 1;
        matches!(self.cfg.frequency, QuackFrequency::EveryPackets(n) if self.since_emit >= n)
    }

    /// Observes a burst of identifiers at once (e.g. a GRO/pacing-batch of
    /// forwarded packets); returns `true` if the packet-count schedule says
    /// a quACK is due now. Equivalent to calling [`observe`](Self::observe)
    /// per identifier, with one batched fold instead of per-packet buffer
    /// management.
    pub fn observe_batch(&mut self, ids: &[u64]) -> bool {
        self.flush();
        self.quack.insert_batch(ids);
        self.since_emit = self.since_emit.saturating_add(ids.len() as u32);
        matches!(self.cfg.frequency, QuackFrequency::EveryPackets(n) if self.since_emit >= n)
    }

    /// The emission interval, if the schedule is time-based.
    pub fn interval(&self) -> Option<SimDuration> {
        self.interval
    }

    /// Applies a consumer-requested interval change (only meaningful for
    /// [`QuackFrequency::Adaptive`]).
    pub fn set_interval(&mut self, interval: SimDuration) {
        if matches!(self.cfg.frequency, QuackFrequency::Adaptive(_)) {
            self.interval = Some(interval);
        }
    }

    /// Emits the current quACK as a sidecar message (flushing the burst
    /// buffer first, so the quACK covers every observed packet).
    pub fn emit(&mut self) -> SidecarMessage {
        self.flush();
        self.since_emit = 0;
        self.emitted += 1;
        SidecarMessage::Quack {
            epoch: self.epoch,
            bytes: self.cfg.wire_format().encode(&self.quack),
        }
    }

    /// Resets to a new epoch (threshold exceeded): sums, counters, and the
    /// burst buffer start over.
    pub fn reset(&mut self, epoch: u32) {
        self.quack = PowerSumQuack::new(self.cfg.threshold);
        self.burst.clear();
        self.epoch = epoch;
        self.since_emit = 0;
    }
}

/// One packet tracked by the consumer's log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// The opaque identifier the producer will see.
    pub id: u64,
    /// Caller-supplied tag (packet number, buffer slot, …) echoed back in
    /// reports.
    pub tag: u64,
    /// When the packet was sent (drives the in-transit excuse).
    pub sent_at: SimTime,
    /// Grace deadline if this entry decoded missing; `None` otherwise.
    limbo_deadline: Option<SimTime>,
    /// Whether the entry's missing verdict came from a collision group.
    pub ambiguous: bool,
}

/// The outcome of processing one quACK.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuackReport {
    /// Entries confirmed received (dropped from the log).
    pub received: Vec<(u64, u64)>,
    /// Entries that just entered the missing-grace limbo `(id, tag)`.
    pub newly_missing: Vec<(u64, u64)>,
    /// Entries flagged ambiguous (collision groups), `(id, tag)` of every
    /// group member.
    pub indeterminate: Vec<(u64, u64)>,
    /// Log entries excused as in transit.
    pub in_transit: usize,
    /// The missing count `m` the difference encoded.
    pub missing_estimate: usize,
}

/// A packet whose loss is confirmed (grace expired).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfirmedLoss {
    /// Opaque identifier.
    pub id: u64,
    /// Caller tag.
    pub tag: u64,
    /// Whether the verdict came from an ambiguous collision group.
    pub ambiguous: bool,
}

/// Why a quACK could not be processed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessError {
    /// More packets missing than the threshold can decode; the endpoints
    /// must reset (§3.3).
    ThresholdExceeded {
        /// Implied missing count.
        missing: usize,
    },
    /// The quACK belongs to a different epoch.
    WrongEpoch {
        /// Epoch carried by the quACK.
        got: u32,
        /// Our current epoch.
        expected: u32,
    },
    /// The quACK is older than one already processed (reordered); skipped.
    Stale,
    /// The encoded bytes failed validation.
    Malformed,
    /// Count/power-sum inconsistency (full count wraparound, §3.2).
    CountInconsistent,
}

impl core::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProcessError::ThresholdExceeded { missing } => {
                write!(f, "{missing} missing packets exceed the quACK threshold")
            }
            ProcessError::WrongEpoch { got, expected } => {
                write!(f, "quACK epoch {got} != local epoch {expected}")
            }
            ProcessError::Stale => write!(f, "stale (reordered) quACK"),
            ProcessError::Malformed => write!(f, "malformed quACK bytes"),
            ProcessError::CountInconsistent => write!(f, "quACK count wrapped a full cycle"),
        }
    }
}

impl std::error::Error for ProcessError {}

/// Consumer statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsumerStats {
    /// QuACKs successfully processed.
    pub quacks_processed: u64,
    /// QuACKs skipped as stale.
    pub quacks_stale: u64,
    /// Packets confirmed received.
    pub confirmed_received: u64,
    /// Packets confirmed lost (grace expired).
    pub confirmed_lost: u64,
    /// Packets resurrected from limbo by a later quACK.
    pub resurrected: u64,
    /// Ambiguous (collision) verdicts encountered.
    pub ambiguous_verdicts: u64,
    /// Processing failures that demanded a reset.
    pub resets_needed: u64,
}

/// The quACK-consuming side (sender of the underlying packets).
pub struct QuackConsumer<F: Field> {
    cfg: SidecarConfig,
    mirror: PowerSumQuack<F>,
    log: VecDeque<LogEntry>,
    workspace: NewtonWorkspace<F>,
    epoch: u32,
    /// Highest receiver count processed (wrap-aware staleness filter),
    /// `None` before the first quACK of the epoch.
    last_count: Option<u32>,
    /// Entries sent within this window of "now" may be excused as
    /// in-transit.
    in_transit_window: SimDuration,
    /// Per-quACK scratch, kept so processing a quACK does not allocate
    /// them: the candidate ids handed to the decoder, and each candidate's
    /// fate.
    log_ids: Vec<u64>,
    fate: Vec<Fate>,
    /// Statistics.
    pub stats: ConsumerStats,
}

impl<F: Field> QuackConsumer<F> {
    /// Creates a consumer. `in_transit_window` should be roughly one
    /// segment RTT: packets younger than this are never declared missing
    /// from a trailing run (they may simply still be in flight).
    pub fn new(cfg: SidecarConfig, in_transit_window: SimDuration) -> Self {
        assert_eq!(cfg.id_bits, F::BITS, "config/field width mismatch");
        // The generic consumer derives the missing count from the wire
        // count; `c = 0` (out-of-band counts, §4.3 ACK reduction) requires
        // a caller that supplies the count itself and is not supported
        // here — the wrap-aware staleness check would reject everything.
        assert!(
            cfg.count_bits >= 1,
            "QuackConsumer requires an in-band count (count_bits >= 1)"
        );
        QuackConsumer {
            mirror: PowerSumQuack::new(cfg.threshold),
            log: VecDeque::new(),
            workspace: NewtonWorkspace::new(cfg.threshold),
            cfg,
            epoch: 0,
            last_count: None,
            in_transit_window,
            log_ids: Vec::new(),
            fate: Vec::new(),
            stats: ConsumerStats::default(),
        }
    }

    /// The sidecar parameters this consumer decodes with (what its session's
    /// `Hello` offers).
    pub fn config(&self) -> &SidecarConfig {
        &self.cfg
    }

    /// The current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of unresolved log entries.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Records one sent packet.
    pub fn record_sent(&mut self, id: u64, tag: u64, now: SimTime) {
        self.mirror.insert(id);
        self.log.push_back(LogEntry {
            id,
            tag,
            sent_at: now,
            limbo_deadline: None,
            ambiguous: false,
        });
    }

    /// Masks a count difference to the configured `c` bits.
    fn mask_count(&self, diff: u32) -> u32 {
        match self.cfg.count_bits {
            0 => diff, // out-of-band counts are full width
            c if c >= 32 => diff,
            c => diff & ((1u32 << c) - 1),
        }
    }

    /// Wrap-aware "is `new` ahead of `old`" on `c`-bit counts.
    fn count_advanced(&self, old: u32, new: u32) -> bool {
        let c = self.cfg.count_bits.clamp(1, 32);
        let half = 1u32 << (c - 1);
        let fwd = self.mask_count(new.wrapping_sub(old));
        fwd != 0 && fwd < half
    }

    /// Processes one quACK (already unwrapped from its sidecar message).
    pub fn process_quack(
        &mut self,
        now: SimTime,
        epoch: u32,
        bytes: &[u8],
    ) -> Result<QuackReport, ProcessError> {
        if epoch != self.epoch {
            return Err(ProcessError::WrongEpoch {
                got: epoch,
                expected: self.epoch,
            });
        }
        let received: PowerSumQuack<F> = self
            .cfg
            .wire_format()
            .decode(bytes, None)
            .map_err(|_| ProcessError::Malformed)?;
        // Cumulative sums: a reordered (older) quACK carries a smaller
        // count. Skip it — the newer one already told us more.
        if let Some(last) = self.last_count {
            if !self.count_advanced(last, received.count()) && received.count() != last {
                self.stats.quacks_stale += 1;
                return Err(ProcessError::Stale);
            }
        }

        // Difference with the count masked to c bits (§3.2 wraparound).
        let raw_diff = self.mirror.difference(&received);
        let m_total = self.mask_count(raw_diff.count()) as usize;
        let mut diff = raw_diff.with_count(m_total as u32);

        // §3.3 in-flight truncation: treat the newest n' − n − t entries as
        // in transit by subtracting them from the difference.
        let mut candidates = self.log.len();
        if m_total > self.cfg.threshold {
            let excess = m_total - self.cfg.threshold;
            if excess > self.log.len() {
                // Even excusing every logged packet cannot bring m within
                // the threshold: the window is unrecoverable.
                self.stats.resets_needed += 1;
                return Err(ProcessError::ThresholdExceeded { missing: m_total });
            }
            candidates = self.log.len() - excess;
            for entry in self.log.iter().skip(candidates) {
                diff.remove(entry.id);
            }
            diff = diff.with_count((m_total - excess) as u32);
        }

        self.log_ids.clear();
        self.log_ids
            .extend(self.log.iter().take(candidates).map(|e| e.id));
        let decoded = match diff.decode_with_log_and_workspace(&self.log_ids, &self.workspace) {
            Ok(d) => d,
            Err(DecodeError::ThresholdExceeded { missing, .. }) => {
                self.stats.resets_needed += 1;
                return Err(ProcessError::ThresholdExceeded { missing });
            }
            Err(DecodeError::CountInconsistent) => {
                self.stats.resets_needed += 1;
                return Err(ProcessError::CountInconsistent);
            }
        };

        // Locator roots that match no log candidate mean the difference is
        // corrupt — typically the §3.3 truncation subtracted entries the
        // receiver had in fact received (its assumption that the newest
        // entries are in transit did not hold). The only safe move is a
        // reset.
        if decoded.residual() > 0 {
            self.stats.resets_needed += 1;
            return Err(ProcessError::ThresholdExceeded { missing: m_total });
        }

        self.stats.quacks_processed += 1;
        self.last_count = Some(received.count());

        let mut report = QuackReport {
            missing_estimate: m_total,
            in_transit: self.log.len() - candidates,
            ..QuackReport::default()
        };

        // Classify each candidate entry.
        let fate = &mut self.fate;
        fate.clear();
        fate.resize(candidates, Fate::Received);
        for &i in decoded.missing() {
            fate[i] = Fate::Missing;
        }
        // Ambiguous groups: mark the oldest `missing` members as missing
        // (the copies are indistinguishable; this choice keeps the mirror
        // sums exact) and flag the whole group in the report.
        for group in decoded.indeterminate_groups() {
            self.stats.ambiguous_verdicts += group.indices.len() as u64;
            for &i in &group.indices {
                report.indeterminate.push((self.log[i].id, self.log[i].tag));
            }
            for &i in group.indices.iter().take(group.missing) {
                fate[i] = Fate::MissingAmbiguous;
            }
        }
        // §3.3: "any continuous suffix of missing packets [is] also … in
        // transit, instead of actually missing" — they were sent after the
        // quACK's snapshot (or are still queued behind it). Unconditional:
        // a genuine tail loss is detected as soon as a later packet arrives
        // and breaks the run (or, for a full outage, by the base protocol's
        // own timeout).
        for i in (0..candidates).rev() {
            if matches!(fate[i], Fate::Received) {
                break;
            }
            fate[i] = Fate::InTransit;
            report.in_transit += 1;
        }
        // Additionally excuse any *recent* missing entry (within the
        // in-transit window): with reordering, a young packet can appear
        // missing mid-log while an overtaker already arrived.
        let freshness_cutoff = now.saturating_sub(self.in_transit_window);
        #[allow(clippy::needless_range_loop)] // indexes two parallel arrays
        for i in 0..candidates {
            if matches!(fate[i], Fate::Missing | Fate::MissingAmbiguous)
                && self.log[i].sent_at >= freshness_cutoff
            {
                fate[i] = Fate::InTransit;
                report.in_transit += 1;
            }
        }

        // Apply: walk the candidate prefix back-to-front so index-based
        // removal stays valid.
        for i in (0..candidates).rev() {
            match fate[i] {
                Fate::Received => {
                    let entry = self.log[i];
                    if entry.limbo_deadline.is_some() {
                        self.stats.resurrected += 1;
                    }
                    self.stats.confirmed_received += 1;
                    report.received.push((entry.id, entry.tag));
                    let _ = self.log.remove(i);
                }
                Fate::Missing | Fate::MissingAmbiguous => {
                    let entry = &mut self.log[i];
                    entry.ambiguous = matches!(fate[i], Fate::MissingAmbiguous);
                    if entry.limbo_deadline.is_none() {
                        entry.limbo_deadline = Some(now + self.cfg.reorder_grace);
                        report.newly_missing.push((entry.id, entry.tag));
                    }
                }
                Fate::InTransit => {
                    // Leave untouched; a limbo flag set by an earlier quACK
                    // stays (the earlier evidence stands).
                }
            }
        }
        report.received.reverse();
        report.newly_missing.reverse();
        Ok(report)
    }

    /// Confirms losses whose grace period expired: removes them from the
    /// mirror sums and log (§3.3 "Resetting the threshold") and returns
    /// them.
    pub fn poll_expired(&mut self, now: SimTime) -> Vec<ConfirmedLoss> {
        let mut losses = Vec::new();
        let mut i = 0;
        while i < self.log.len() {
            match self.log[i].limbo_deadline {
                Some(deadline) if deadline <= now => {
                    let entry = self.log.remove(i).expect("indexed");
                    self.mirror.remove(entry.id);
                    self.stats.confirmed_lost += 1;
                    losses.push(ConfirmedLoss {
                        id: entry.id,
                        tag: entry.tag,
                        ambiguous: entry.ambiguous,
                    });
                }
                _ => i += 1,
            }
        }
        losses
    }

    /// Earliest pending grace deadline, for timer scheduling.
    pub fn next_grace_deadline(&self) -> Option<SimTime> {
        self.log.iter().filter_map(|e| e.limbo_deadline).min()
    }

    /// Resets to a new epoch, draining the unresolved log so the protocol
    /// can decide each leftover's fate.
    pub fn reset(&mut self, epoch: u32) -> Vec<LogEntry> {
        self.mirror = PowerSumQuack::new(self.cfg.threshold);
        self.epoch = epoch;
        self.last_count = None;
        self.log.drain(..).collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Received,
    Missing,
    MissingAmbiguous,
    InTransit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidecar_galois::Fp32;

    fn cfg() -> SidecarConfig {
        SidecarConfig {
            reorder_grace: SimDuration::from_millis(10),
            ..SidecarConfig::paper_default()
        }
    }

    fn pair() -> (QuackProducer<Fp32>, QuackConsumer<Fp32>) {
        (
            QuackProducer::new(cfg()),
            QuackConsumer::new(cfg(), SimDuration::from_millis(5)),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Unwraps a Quack message.
    fn quack_bytes(msg: SidecarMessage) -> (u32, Vec<u8>) {
        match msg {
            SidecarMessage::Quack { epoch, bytes } => (epoch, bytes),
            other => panic!("expected quack, got {other:?}"),
        }
    }

    #[test]
    fn clean_path_confirms_everything() {
        let (mut prod, mut cons) = pair();
        for i in 0..50u64 {
            let id = i * 977 + 13;
            cons.record_sent(id, i, t(0));
            prod.observe(id);
        }
        let (epoch, bytes) = quack_bytes(prod.emit());
        let report = cons.process_quack(t(100), epoch, &bytes).unwrap();
        assert_eq!(report.received.len(), 50);
        assert!(report.newly_missing.is_empty());
        assert_eq!(report.missing_estimate, 0);
        assert_eq!(cons.log_len(), 0);
        assert!(cons.poll_expired(t(1000)).is_empty());
    }

    #[test]
    fn epoch_resync_survives_u32_wraparound() {
        // The protocols resync with `epoch().wrapping_add(1)`; epochs are
        // compared by equality only, so u32::MAX -> 0 must behave exactly
        // like any other bump: the new epoch matches, the stale one is
        // rejected with WrongEpoch (never ThresholdExceeded or a panic).
        let (mut prod, mut cons) = pair();
        prod.reset(u32::MAX);
        let _ = cons.reset(u32::MAX);
        for i in 0..20u64 {
            let id = i * 613 + 7;
            cons.record_sent(id, i, t(0));
            prod.observe(id);
        }
        let (epoch, bytes) = quack_bytes(prod.emit());
        assert_eq!(epoch, u32::MAX);
        assert!(cons.process_quack(t(10), epoch, &bytes).is_ok());

        // Resync across the wrap, exactly as the reset paths do.
        let stale = bytes;
        let new_epoch = cons.epoch().wrapping_add(1);
        assert_eq!(new_epoch, 0);
        let _ = cons.reset(new_epoch);
        prod.reset(new_epoch);
        for i in 0..20u64 {
            let id = i * 401 + 3;
            cons.record_sent(id, i, t(20));
            prod.observe(id);
        }
        let (epoch, bytes) = quack_bytes(prod.emit());
        assert_eq!(epoch, 0);
        let report = cons.process_quack(t(30), epoch, &bytes).unwrap();
        assert_eq!(report.received.len(), 20);
        // A quACK from the pre-wrap epoch is cleanly refused.
        match cons.process_quack(t(31), u32::MAX, &stale) {
            Err(ProcessError::WrongEpoch { got, expected }) => {
                assert_eq!(got, u32::MAX);
                assert_eq!(expected, 0);
            }
            other => panic!("expected WrongEpoch, got {other:?}"),
        }
    }

    #[test]
    fn losses_detected_graced_then_confirmed() {
        let (mut prod, mut cons) = pair();
        for i in 0..30u64 {
            let id = i * 31 + 5;
            cons.record_sent(id, i, t(0));
            if i != 7 && i != 19 {
                prod.observe(id);
            }
        }
        let (epoch, bytes) = quack_bytes(prod.emit());
        let report = cons.process_quack(t(100), epoch, &bytes).unwrap();
        let missing_tags: Vec<u64> = report.newly_missing.iter().map(|&(_, tag)| tag).collect();
        assert_eq!(missing_tags, vec![7, 19]);
        assert_eq!(report.missing_estimate, 2);
        // Grace not yet expired.
        assert!(cons.poll_expired(t(105)).is_empty());
        let losses = cons.poll_expired(t(111));
        assert_eq!(losses.len(), 2);
        assert_eq!(losses[0].tag, 7);
        assert!(!losses[0].ambiguous);
        assert_eq!(cons.log_len(), 0);
        assert_eq!(cons.stats.confirmed_lost, 2);
    }

    #[test]
    fn reordered_packet_resurrected_from_limbo() {
        let (mut prod, mut cons) = pair();
        for i in 0..10u64 {
            let id = i + 1000;
            cons.record_sent(id, i, t(0));
            if i != 4 {
                prod.observe(id);
            }
        }
        let (e1, b1) = quack_bytes(prod.emit());
        let report = cons.process_quack(t(50), e1, &b1).unwrap();
        assert_eq!(report.newly_missing, vec![(1004, 4)]);
        // The "missing" packet arrives late, before grace expiry…
        prod.observe(1004);
        let (e2, b2) = quack_bytes(prod.emit());
        let report2 = cons.process_quack(t(55), e2, &b2).unwrap();
        assert!(report2.received.contains(&(1004, 4)));
        // …so no loss is ever confirmed.
        assert!(cons.poll_expired(t(1000)).is_empty());
        assert_eq!(cons.stats.resurrected, 1);
    }

    #[test]
    fn threshold_reset_applies_since_last_quack() {
        // After confirming losses, the mirror sums forget them, so the next
        // quACK decodes fresh losses only (§3.3 "Resetting the threshold").
        let (mut prod, mut cons) = pair();
        // Window 1: lose 15 of 100 (within t=20).
        for i in 0..100u64 {
            let id = i * 7 + 1;
            cons.record_sent(id, i, t(0));
            if i % 7 != 3 {
                prod.observe(id);
            }
        }
        let (e1, b1) = quack_bytes(prod.emit());
        let r1 = cons.process_quack(t(50), e1, &b1).unwrap();
        let lost1 = r1.newly_missing.len();
        assert!(lost1 >= 14, "{lost1}");
        let confirmed = cons.poll_expired(t(61));
        assert_eq!(confirmed.len(), lost1);
        // Window 2: lose another 15 of 100. Without the reset these would
        // stack past t=20 and fail; with it they decode fine.
        for i in 100..200u64 {
            let id = i * 7 + 1;
            cons.record_sent(id, i, t(62));
            if i % 7 != 3 {
                prod.observe(id);
            }
        }
        let (e2, b2) = quack_bytes(prod.emit());
        let r2 = cons.process_quack(t(120), e2, &b2).unwrap();
        assert!(r2.newly_missing.len() >= 14);
    }

    #[test]
    fn in_transit_suffix_not_declared_missing() {
        let (mut prod, mut cons) = pair();
        // 30 old packets, all received.
        for i in 0..30u64 {
            let id = i + 1;
            cons.record_sent(id, i, t(0));
            prod.observe(id);
        }
        let (epoch, bytes) = quack_bytes(prod.emit());
        // 25 more packets sent *after* the quACK was generated (> t = 20),
        // still in flight at processing time (sent "recently": t(99)).
        for i in 30..55u64 {
            cons.record_sent(i + 1, i, t(99));
        }
        let report = cons.process_quack(t(100), epoch, &bytes).unwrap();
        assert!(report.newly_missing.is_empty(), "{report:?}");
        assert_eq!(report.received.len(), 30);
        assert_eq!(report.in_transit, 25);
        assert_eq!(cons.log_len(), 25);
    }

    #[test]
    fn trailing_run_excused_until_broken_by_a_later_arrival() {
        // Tail losses sit in the §3.3 in-transit excuse until a later
        // packet arrives and breaks the run.
        let (mut prod, mut cons) = pair();
        for i in 0..10u64 {
            let id = i + 1;
            cons.record_sent(id, i, t(0));
            if i < 5 {
                prod.observe(id); // tail 5..10 genuinely lost
            }
        }
        let (e1, b1) = quack_bytes(prod.emit());
        let r1 = cons.process_quack(t(100), e1, &b1).unwrap();
        assert!(r1.newly_missing.is_empty());
        assert_eq!(r1.in_transit, 5);
        // A later packet arrives and is quACKed: the run is broken, the
        // five tail losses surface (they are also older than the freshness
        // window by now).
        cons.record_sent(999, 10, t(101));
        prod.observe(999);
        let (e2, b2) = quack_bytes(prod.emit());
        let r2 = cons.process_quack(t(200), e2, &b2).unwrap();
        assert_eq!(r2.newly_missing.len(), 5);
        let tags: Vec<u64> = r2.newly_missing.iter().map(|&(_, g)| g).collect();
        assert_eq!(tags, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn fresh_mid_log_missing_excused_by_window() {
        // A missing entry that is NOT in the trailing run but was sent very
        // recently is excused by the in-transit freshness window
        // (reordering robustness).
        let (mut prod, mut cons) = pair();
        cons.record_sent(1, 0, t(0));
        prod.observe(1);
        // Sent "just now" relative to processing at t=101 (window = 5 ms):
        cons.record_sent(2, 1, t(100));
        // A later packet overtook it (e.g. jitter) and was received.
        cons.record_sent(3, 2, t(100));
        prod.observe(3);
        let (e, b) = quack_bytes(prod.emit());
        let r = cons.process_quack(t(101), e, &b).unwrap();
        assert!(r.newly_missing.is_empty(), "{r:?}");
        assert_eq!(r.in_transit, 1);
        // Much later, with yet another received packet keeping the run
        // broken, the stale entry is finally declared missing.
        cons.record_sent(4, 3, t(299));
        prod.observe(4);
        let (e2, b2) = quack_bytes(prod.emit());
        let r2 = cons.process_quack(t(300), e2, &b2).unwrap();
        assert_eq!(r2.newly_missing.len(), 1);
        assert_eq!(r2.newly_missing[0], (2, 1));
    }

    #[test]
    fn stale_quack_skipped() {
        let (mut prod, mut cons) = pair();
        for i in 0..10u64 {
            let id = i + 1;
            cons.record_sent(id, i, t(0));
            prod.observe(id);
        }
        let (e1, b1) = quack_bytes(prod.emit());
        for i in 10..20u64 {
            let id = i + 1;
            cons.record_sent(id, i, t(1));
            prod.observe(id);
        }
        let (e2, b2) = quack_bytes(prod.emit());
        // Newer quACK processed first (reordering in the network)…
        cons.process_quack(t(50), e2, &b2).unwrap();
        // …then the older one arrives: skipped as stale.
        assert_eq!(cons.process_quack(t(51), e1, &b1), Err(ProcessError::Stale));
        assert_eq!(cons.stats.quacks_stale, 1);
    }

    #[test]
    fn dropped_quack_is_recovered_by_the_next() {
        let (mut prod, mut cons) = pair();
        for i in 0..10u64 {
            let id = i + 1;
            cons.record_sent(id, i, t(0));
            if i != 2 {
                prod.observe(id);
            }
        }
        let _dropped = prod.emit(); // never delivered
        for i in 10..20u64 {
            let id = i + 1;
            cons.record_sent(id, i, t(1));
            if i != 15 {
                prod.observe(id);
            }
        }
        let (e2, b2) = quack_bytes(prod.emit());
        let report = cons.process_quack(t(100), e2, &b2).unwrap();
        let tags: Vec<u64> = report.newly_missing.iter().map(|&(_, g)| g).collect();
        assert_eq!(tags, vec![2, 15]);
    }

    #[test]
    fn threshold_exceeded_demands_reset() {
        let (mut prod, mut cons) = pair();
        // 30 losses among old packets: beyond t = 20 and not excusable.
        for i in 0..60u64 {
            let id = i + 1;
            cons.record_sent(id, i, t(0));
            if i % 2 == 0 {
                prod.observe(id);
            }
        }
        let (epoch, bytes) = quack_bytes(prod.emit());
        let err = cons.process_quack(t(100), epoch, &bytes).unwrap_err();
        assert!(matches!(
            err,
            ProcessError::ThresholdExceeded { missing: 30 }
        ));
        assert_eq!(cons.stats.resets_needed, 1);
        // Coordinate a reset.
        let leftovers = cons.reset(1);
        assert_eq!(leftovers.len(), 60);
        prod.reset(1);
        assert_eq!(prod.epoch(), 1);
        assert_eq!(cons.epoch(), 1);
        // A quACK from the old epoch is now rejected.
        assert!(matches!(
            cons.process_quack(t(101), 0, &bytes),
            Err(ProcessError::WrongEpoch {
                got: 0,
                expected: 1
            })
        ));
        // Fresh epoch works.
        for i in 0..5u64 {
            let id = i + 5000;
            cons.record_sent(id, i, t(102));
            prod.observe(id);
        }
        let (e, b) = quack_bytes(prod.emit());
        let report = cons.process_quack(t(200), e, &b).unwrap();
        assert_eq!(report.received.len(), 5);
    }

    #[test]
    fn collision_group_flagged_and_resolved_conservatively() {
        let (mut prod, mut cons) = pair();
        // Two packets share an identifier (collision); one is lost.
        cons.record_sent(42, 0, t(0));
        cons.record_sent(42, 1, t(0));
        cons.record_sent(99, 2, t(0));
        prod.observe(42);
        prod.observe(99);
        let (epoch, bytes) = quack_bytes(prod.emit());
        let report = cons.process_quack(t(100), epoch, &bytes).unwrap();
        // Both group members flagged indeterminate.
        assert_eq!(report.indeterminate.len(), 2);
        // Exactly one representative enters limbo.
        assert_eq!(report.newly_missing.len(), 1);
        let losses = cons.poll_expired(t(111));
        assert_eq!(losses.len(), 1);
        assert!(losses[0].ambiguous);
        // Mirror stays consistent: a follow-up round decodes cleanly.
        for i in 0..5u64 {
            let id = i + 300;
            cons.record_sent(id, 10 + i, t(112));
            prod.observe(id);
        }
        let (e, b) = quack_bytes(prod.emit());
        let r = cons.process_quack(t(200), e, &b).unwrap();
        // The surviving collision twin was already confirmed in round one,
        // so only the 5 new packets confirm here — and, crucially, the
        // difference is clean (no phantom missing from the collision).
        assert_eq!(r.received.len(), 5);
        assert_eq!(r.missing_estimate, 0);
    }

    #[test]
    fn producer_burst_buffer_is_transparent() {
        // Fewer than LANES observations: the ids sit in the burst buffer,
        // but count() sees them and emit() flushes them into the quACK.
        let (mut prod, mut cons) = pair();
        for i in 0..(LANES as u64 - 1) {
            let id = i * 11 + 3;
            cons.record_sent(id, i, t(0));
            prod.observe(id);
        }
        assert_eq!(prod.count(), LANES as u32 - 1);
        let (epoch, bytes) = quack_bytes(prod.emit());
        let report = cons.process_quack(t(100), epoch, &bytes).unwrap();
        assert_eq!(report.received.len(), LANES - 1);
        assert_eq!(report.missing_estimate, 0);
        // Reset drops any buffered ids along with the sums.
        prod.observe(999);
        prod.reset(1);
        assert_eq!(prod.count(), 0);
    }

    #[test]
    fn observe_batch_matches_observe_loop() {
        let ids: Vec<u64> = (0..100u64).map(|i| i * 7919 + 1).collect();
        let mut one_by_one: QuackProducer<Fp32> = QuackProducer::new(SidecarConfig {
            frequency: QuackFrequency::EveryPackets(100),
            ..cfg()
        });
        let mut batched: QuackProducer<Fp32> = QuackProducer::new(SidecarConfig {
            frequency: QuackFrequency::EveryPackets(100),
            ..cfg()
        });
        let mut due = false;
        for &id in &ids {
            due = one_by_one.observe(id);
        }
        assert!(due);
        assert!(batched.observe_batch(&ids));
        assert_eq!(one_by_one.count(), batched.count());
        let (_, a) = quack_bytes(one_by_one.emit());
        let (_, b) = quack_bytes(batched.emit());
        assert_eq!(a, b);
    }

    #[test]
    fn producer_packet_count_schedule() {
        let mut prod: QuackProducer<Fp32> = QuackProducer::new(SidecarConfig {
            frequency: QuackFrequency::EveryPackets(3),
            ..cfg()
        });
        assert!(!prod.observe(1));
        assert!(!prod.observe(2));
        assert!(prod.observe(3));
        let _ = prod.emit();
        assert!(!prod.observe(4));
        assert_eq!(prod.count(), 4);
        assert_eq!(prod.emitted, 1);
    }

    #[test]
    fn producer_interval_adaptation() {
        let mut adaptive: QuackProducer<Fp32> = QuackProducer::new(SidecarConfig {
            frequency: QuackFrequency::Adaptive(SimDuration::from_millis(10)),
            ..cfg()
        });
        assert_eq!(adaptive.interval(), Some(SimDuration::from_millis(10)));
        adaptive.set_interval(SimDuration::from_millis(40));
        assert_eq!(adaptive.interval(), Some(SimDuration::from_millis(40)));
        // Fixed-interval producers ignore remote tuning.
        let mut fixed: QuackProducer<Fp32> = QuackProducer::new(cfg());
        let before = fixed.interval();
        fixed.set_interval(SimDuration::from_millis(1));
        assert_eq!(fixed.interval(), before);
    }

    #[test]
    fn count_wraparound_across_c_bits() {
        // Push the counts past 2^16 so the wire count wraps; the consumer
        // must still decode correctly.
        let (mut prod, mut cons) = pair();
        // Fast-forward both sides with 70 000 received packets.
        for i in 0..70_000u64 {
            let id = i * 2 + 1;
            cons.record_sent(id, i, t(0));
            prod.observe(id);
        }
        let (e0, b0) = quack_bytes(prod.emit());
        let r0 = cons.process_quack(t(10), e0, &b0).unwrap();
        assert_eq!(r0.received.len(), 70_000);
        // Now a window with one loss, straddling the wrapped count.
        for i in 70_000..70_010u64 {
            let id = i * 2 + 1;
            cons.record_sent(id, i, t(11));
            if i != 70_005 {
                prod.observe(id);
            }
        }
        let (e1, b1) = quack_bytes(prod.emit());
        let r1 = cons.process_quack(t(100), e1, &b1).unwrap();
        assert_eq!(r1.newly_missing.len(), 1);
        assert_eq!(r1.newly_missing[0].1, 70_005);
    }
}
