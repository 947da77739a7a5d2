//! The power-sum quACK (paper §3.1–3.2).
//!
//! Both endpoints of a sidecar segment keep `t` running power sums of the
//! identifiers they have sent/received, plus a count. Updates are amortized
//! into the per-packet path ("the sender updates the sums before sending
//! each packet, and the receiver updates them when receiving each packet",
//! §3.2), so constructing a quACK is O(t) per packet and *emitting* one is
//! just a copy. All arithmetic is modulo the largest prime expressible in
//! `b` bits.

use crate::decode::{self, decode_difference, DecodeError, DecodedQuack};
use sidecar_galois::{Field, Fp16, Fp24, Fp32, Fp64, NewtonWorkspace};

/// A power-sum quACK over the field `F` (identifier width `F::BITS`).
///
/// The same type serves three roles:
///
/// * the **receiver state** — insert every received identifier;
/// * the **sender mirror** — insert every sent identifier (and
///   [`remove`](Self::remove) identifiers given up on, §3.3 "Resetting the
///   threshold");
/// * the **difference** — [`difference`](Self::difference) of the two, whose
///   power sums are those of the missing multiset `S \ R` and whose count is
///   the number of missing packets `m`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PowerSumQuack<F: Field> {
    /// `power_sums[i]` is the (i+1)-th power sum of the accumulated
    /// identifiers.
    power_sums: Vec<F>,
    /// Wrapping count of accumulated identifiers. On the wire only the low
    /// `c` bits travel (§3.2: "the count itself can wraparound").
    count: u32,
    /// The most recently accumulated identifier, if any. Matches the
    /// authors' released library; used by sidecar protocols as a cheap
    /// freshness/ordering hint and exercised by tests. Not transmitted.
    last_value: Option<u64>,
}

impl<F: Field> PowerSumQuack<F> {
    /// Creates an empty quACK able to decode up to `threshold` missing
    /// packets (paper parameter `t`).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero — a quACK with no power sums cannot
    /// decode anything.
    pub fn new(threshold: usize) -> Self {
        assert!(threshold > 0, "quACK threshold must be at least 1");
        PowerSumQuack {
            power_sums: vec![F::ZERO; threshold],
            count: 0,
            last_value: None,
        }
    }

    /// The threshold `t`: the maximum number of missing packets this quACK
    /// can decode.
    pub fn threshold(&self) -> usize {
        self.power_sums.len()
    }

    /// The identifier width `b` in bits.
    pub fn bits(&self) -> u32 {
        F::BITS
    }

    /// The wrapping count of accumulated identifiers.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The most recently accumulated identifier (reduced mod `p`), if any.
    pub fn last_value(&self) -> Option<u64> {
        self.last_value
    }

    /// The raw power sums (canonical representatives), lowest power first.
    pub fn power_sums(&self) -> impl Iterator<Item = u64> + '_ {
        self.power_sums.iter().map(|s| s.to_u64())
    }

    /// Accumulates one identifier: `power_sums[i] += x^(i+1)` for all `i`.
    ///
    /// This is the ~100 ns-per-packet amortized construction cost the paper
    /// reports (§1, §4.2): `t` multiplications and additions.
    #[inline]
    pub fn insert(&mut self, id: u64) {
        let x = F::from_u64(id);
        let mut pow = F::ONE;
        for sum in self.power_sums.iter_mut() {
            pow *= x;
            *sum += pow;
        }
        self.count = self.count.wrapping_add(1);
        self.last_value = Some(x.to_u64());
    }

    /// Removes one identifier: the exact inverse of [`insert`](Self::insert)
    /// (except for `last_value`, which is left pointing at the most recent
    /// insert).
    ///
    /// Senders call this when they conclude a missing packet will never be
    /// received, so the threshold applies only to packets missing *since the
    /// last quACK* (§3.3 "Resetting the threshold").
    #[inline]
    pub fn remove(&mut self, id: u64) {
        let x = F::from_u64(id);
        let mut pow = F::ONE;
        for sum in self.power_sums.iter_mut() {
            pow *= x;
            *sum -= pow;
        }
        self.count = self.count.wrapping_sub(1);
    }

    /// Accumulates a batch of identifiers, equivalent to calling
    /// [`insert`](Self::insert) for each in order but substantially faster
    /// for bursts: identifiers are converted into the field once per batch,
    /// and the `t` running powers advance with a lane-batched
    /// strength-reduced ladder whose multiplies are independent across
    /// identifiers, so the CPU pipelines them instead of serializing on one
    /// `pow *= x` chain (see `sidecar_galois::batch`).
    pub fn insert_batch(&mut self, ids: &[u64]) {
        let Some(&last) = ids.last() else { return };
        F::fold_power_sums(&mut self.power_sums, ids, false);
        // `as u32` truncation == repeated wrapping_add(1): both are mod 2^32.
        self.count = self.count.wrapping_add(ids.len() as u32);
        self.last_value = Some(F::from_u64(last).to_u64());
    }

    /// Removes a batch of identifiers, equivalent to calling
    /// [`remove`](Self::remove) for each in order (including leaving
    /// `last_value` untouched), with the same batching wins as
    /// [`insert_batch`](Self::insert_batch).
    pub fn remove_batch(&mut self, ids: &[u64]) {
        if ids.is_empty() {
            return;
        }
        F::fold_power_sums(&mut self.power_sums, ids, true);
        self.count = self.count.wrapping_sub(ids.len() as u32);
    }

    /// Returns the difference quACK whose power sums describe the multiset
    /// of identifiers accumulated by `self` but not by `received` — i.e.
    /// `S \ R` when `self` mirrors the sent multiset and `received` is the
    /// receiver's quACK.
    ///
    /// Because power sums are cumulative, a *lost* quACK costs nothing: the
    /// next difference still describes everything missing (§3.3 "Dropped
    /// quACKs").
    ///
    /// # Panics
    ///
    /// Panics if the two quACKs disagree on the threshold; sidecar endpoints
    /// negotiate `t` before quACKing (§3.2).
    pub fn difference(&self, received: &Self) -> Self {
        assert_eq!(
            self.threshold(),
            received.threshold(),
            "mismatched quACK thresholds"
        );
        let power_sums = self
            .power_sums
            .iter()
            .zip(&received.power_sums)
            .map(|(&a, &b)| a - b)
            .collect();
        PowerSumQuack {
            power_sums,
            count: self.count.wrapping_sub(received.count),
            last_value: self.last_value,
        }
    }

    /// Decodes this quACK **as a difference** against the sender's log of
    /// candidate identifiers, classifying every log entry as received,
    /// missing, or indeterminate.
    ///
    /// `self.count()` is interpreted as the number of missing packets `m`.
    /// Fails with [`DecodeError::ThresholdExceeded`] if `m > t` (§3.2: "if
    /// t < m, decoding fails because there are not enough equations").
    pub fn decode_with_log(&self, log: &[u64]) -> Result<DecodedQuack, DecodeError> {
        let ws = NewtonWorkspace::new(self.threshold().min(self.count as usize));
        self.decode_with_log_and_workspace(log, &ws)
    }

    /// Like [`decode_with_log`](Self::decode_with_log) but reusing a
    /// [`NewtonWorkspace`], which amortizes the modular-inverse table across
    /// the many decodes of a long-lived connection.
    pub fn decode_with_log_and_workspace(
        &self,
        log: &[u64],
        workspace: &NewtonWorkspace<F>,
    ) -> Result<DecodedQuack, DecodeError> {
        decode_difference(&self.power_sums, self.count, log, workspace)
    }

    /// Like [`decode_with_log`](Self::decode_with_log) but finding the
    /// locator's roots by polynomial factoring instead of candidate
    /// plugging — `O(t² log p)` regardless of the log size, the §4.3
    /// "decoding algorithm that depends only on t". Prefer this when the
    /// log is very large (see the `crossover` bin for where that starts).
    pub fn decode_with_log_by_factoring(&self, log: &[u64]) -> Result<DecodedQuack, DecodeError> {
        let ws = NewtonWorkspace::new(self.threshold().min(self.count as usize));
        decode::decode_difference_by_roots(&self.power_sums, self.count, log, &ws)
    }

    /// Decodes the difference quACK into missing *identifier values* (with
    /// multiplicities) without consulting any log — the pure form of §4.3's
    /// "decoding algorithm that depends only on t": `O(t² log p)` total.
    ///
    /// The caller maps identifiers back to packets with whatever index it
    /// already maintains (sidecar consumers keep an id→packet map
    /// incrementally). Identifiers are returned as canonical field
    /// representatives, sorted ascending. A well-formed difference always
    /// splits into exactly `m` roots; if the recovered multiplicities fall
    /// short (the locator has an irreducible factor — only possible for a
    /// corrupt difference, e.g. a full count wraparound or tampered sums),
    /// this returns [`DecodeError::CountInconsistent`] rather than silently
    /// under-reporting.
    pub fn decode_missing_identifiers(&self) -> Result<Vec<(u64, usize)>, DecodeError> {
        let m = decode::locator_degree(&self.power_sums, self.count)?;
        if m == 0 {
            return Ok(Vec::new());
        }
        let ws = NewtonWorkspace::new(m);
        let coeffs = ws.coefficients(&self.power_sums[..m]);
        let roots = sidecar_galois::factor::find_roots(&coeffs);
        if sidecar_galois::factor::total_root_multiplicity(&roots) < m {
            return Err(DecodeError::CountInconsistent);
        }
        Ok(roots
            .into_iter()
            .map(|(root, mult)| (root.to_u64(), mult))
            .collect())
    }

    /// Convenience composition: `self.difference(received)` then decode.
    pub fn decode_against(
        &self,
        received: &Self,
        log: &[u64],
    ) -> Result<DecodedQuack, DecodeError> {
        self.difference(received).decode_with_log(log)
    }

    /// Combines two quACKs into the quACK of the multiset **union** of
    /// their observations: power sums add elementwise, counts add
    /// (wrapping).
    ///
    /// This answers one of the paper's §5 open questions — "how would a
    /// proxy interact with multipath transport protocols?" — for the
    /// observation side: vantage points on parallel subpaths each quACK
    /// what they saw, and the consumer combines them before differencing
    /// against its mirror, provided each packet crosses exactly one
    /// vantage point (ECMP-style splitting).
    ///
    /// # Panics
    ///
    /// Panics if the thresholds differ.
    pub fn combine(&self, other: &Self) -> Self {
        assert_eq!(
            self.threshold(),
            other.threshold(),
            "mismatched quACK thresholds"
        );
        let power_sums = self
            .power_sums
            .iter()
            .zip(&other.power_sums)
            .map(|(&a, &b)| a + b)
            .collect();
        PowerSumQuack {
            power_sums,
            count: self.count.wrapping_add(other.count),
            last_value: other.last_value.or(self.last_value),
        }
    }

    /// Whether no identifiers have been accumulated (all sums zero and count
    /// zero). A difference quACK is `is_empty` exactly when nothing is
    /// missing *and* no wraparound occurred.
    pub fn is_empty(&self) -> bool {
        self.count == 0 && self.power_sums.iter().all(|s| s.is_zero())
    }

    /// Reconstructs a quACK from raw parts: power sums (reduced mod `p` on
    /// the way in) and a count. Used by the wire codec and by sidecar
    /// endpoints that adjust the count for `c`-bit wraparound.
    pub fn from_parts(sums: Vec<u64>, count: u32) -> Self {
        PowerSumQuack {
            power_sums: sums.into_iter().map(F::from_u64).collect(),
            count,
            last_value: None,
        }
    }

    /// [`from_parts`](Self::from_parts) for sums that are already field
    /// elements: the wire codec converts each sum as it reads it.
    pub(crate) fn from_field_sums(power_sums: Vec<F>, count: u32) -> Self {
        PowerSumQuack {
            power_sums,
            count,
            last_value: None,
        }
    }

    /// Returns a copy with the count replaced (sidecar endpoints mask the
    /// count difference to the negotiated `c` bits, §3.2).
    pub fn with_count(&self, count: u32) -> Self {
        PowerSumQuack {
            power_sums: self.power_sums.clone(),
            count,
            last_value: self.last_value,
        }
    }
}

/// 16-bit identifier quACK (`p = 65521`, table-driven arithmetic).
pub type Quack16 = PowerSumQuack<Fp16>;
/// 24-bit identifier quACK (`p = 2^24 - 3`).
pub type Quack24 = PowerSumQuack<Fp24>;
/// 32-bit identifier quACK (`p = 2^32 - 5`) — the paper's default.
pub type Quack32 = PowerSumQuack<Fp32>;
/// 64-bit identifier quACK (`p = 2^64 - 59`, Montgomery arithmetic).
pub type Quack64 = PowerSumQuack<Fp64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_updates_sums_and_count() {
        let mut q = Quack32::new(3);
        assert!(q.is_empty());
        q.insert(2);
        q.insert(3);
        let sums: Vec<u64> = q.power_sums().collect();
        // p1 = 2 + 3, p2 = 4 + 9, p3 = 8 + 27
        assert_eq!(sums, vec![5, 13, 35]);
        assert_eq!(q.count(), 2);
        assert_eq!(q.last_value(), Some(3));
    }

    #[test]
    fn remove_is_inverse_of_insert() {
        let mut q = Quack16::new(5);
        let ids = [10u64, 20, 30, 40];
        for &id in &ids {
            q.insert(id);
        }
        for &id in &ids {
            q.remove(id);
        }
        assert_eq!(q.count(), 0);
        assert!(q.power_sums().all(|s| s == 0));
    }

    #[test]
    fn difference_equals_quack_of_missing() {
        let mut sender = Quack32::new(4);
        let mut receiver = Quack32::new(4);
        let sent = [100u64, 200, 300, 400, 500];
        for &id in &sent {
            sender.insert(id);
        }
        for &id in &[100u64, 300, 500] {
            receiver.insert(id);
        }
        let diff = sender.difference(&receiver);
        assert_eq!(diff.count(), 2);
        let mut direct = Quack32::new(4);
        direct.insert(200);
        direct.insert(400);
        assert_eq!(
            diff.power_sums().collect::<Vec<_>>(),
            direct.power_sums().collect::<Vec<_>>()
        );
    }

    #[test]
    fn decode_simple_loss() {
        let sent: Vec<u64> = (1..=50).map(|i| i * 0x9E37_79B9).collect();
        let mut sender = Quack32::new(8);
        let mut receiver = Quack32::new(8);
        for &id in &sent {
            sender.insert(id);
        }
        for (i, &id) in sent.iter().enumerate() {
            if i % 10 != 3 {
                receiver.insert(id);
            }
        }
        let decoded = sender.decode_against(&receiver, &sent).unwrap();
        let missing = decoded.missing_values(&sent);
        let expected: Vec<u64> = sent
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 10 == 3)
            .map(|(_, &v)| v)
            .collect();
        assert_eq!(missing, expected);
        assert!(decoded.indeterminate().is_empty());
        assert_eq!(decoded.residual(), 0);
    }

    #[test]
    fn decode_nothing_missing_is_trivial() {
        let sent = [1u64, 2, 3];
        let mut sender = Quack32::new(2);
        let mut receiver = Quack32::new(2);
        for &id in &sent {
            sender.insert(id);
            receiver.insert(id);
        }
        let decoded = sender.decode_against(&receiver, &sent).unwrap();
        assert!(decoded.missing().is_empty());
        assert!(decoded.indeterminate().is_empty());
        assert_eq!(decoded.num_missing(), 0);
    }

    #[test]
    fn decode_fails_beyond_threshold() {
        let sent: Vec<u64> = (1..=10).collect();
        let mut sender = Quack32::new(3);
        let receiver = Quack32::new(3);
        for &id in &sent {
            sender.insert(id);
        }
        // All ten packets missing but t = 3.
        let err = sender.decode_against(&receiver, &sent).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::ThresholdExceeded {
                missing: 10,
                threshold: 3
            }
        ));
    }

    #[test]
    fn duplicate_identifiers_as_retransmissions() {
        // The same identifier sent twice (e.g. a retransmission of the same
        // ciphertext) and received once: exactly one copy is missing.
        let sent = [7u64, 7, 9];
        let mut sender = Quack32::new(4);
        let mut receiver = Quack32::new(4);
        for &id in &sent {
            sender.insert(id);
        }
        receiver.insert(7);
        receiver.insert(9);
        let decoded = sender.decode_against(&receiver, &sent).unwrap();
        // Both log entries with id 7 are candidates for the single missing
        // copy — their fate is indeterminate (paper §3.2).
        assert!(decoded.missing().is_empty());
        assert_eq!(decoded.indeterminate(), &[0, 1]);
        assert_eq!(decoded.num_missing(), 1);
    }

    #[test]
    fn duplicate_identifiers_all_missing_are_determinate() {
        // Both copies missing: multiplicity equals candidate count, so the
        // fate is known.
        let sent = [7u64, 7, 9];
        let mut sender = Quack32::new(4);
        let mut receiver = Quack32::new(4);
        for &id in &sent {
            sender.insert(id);
        }
        receiver.insert(9);
        let decoded = sender.decode_against(&receiver, &sent).unwrap();
        assert_eq!(decoded.missing(), &[0, 1]);
        assert!(decoded.indeterminate().is_empty());
    }

    #[test]
    fn dropped_quacks_are_harmless() {
        // Receiver emits quACK A (dropped), then quACK B. Decoding against B
        // alone yields the full picture because sums are cumulative (§3.3).
        let sent: Vec<u64> = (0..30).map(|i| i * 1000 + 1).collect();
        let mut sender = Quack32::new(6);
        let mut receiver = Quack32::new(6);
        for &id in &sent[..10] {
            sender.insert(id);
        }
        for &id in &sent[..10] {
            if id != sent[4] {
                receiver.insert(id);
            }
        }
        let _quack_a_dropped = receiver.clone();
        for &id in &sent[10..] {
            sender.insert(id);
        }
        for &id in &sent[10..] {
            if id != sent[17] {
                receiver.insert(id);
            }
        }
        let decoded = sender.decode_against(&receiver, &sent).unwrap();
        assert_eq!(decoded.missing_values(&sent), vec![sent[4], sent[17]]);
    }

    #[test]
    fn count_wraparound_in_difference() {
        let mut sender = Quack32::new(2);
        let mut receiver = Quack32::new(2);
        // Force counts near wraparound by inserting and removing.
        for _ in 0..3 {
            sender.insert(42);
            sender.remove(42);
        }
        // sender.count back to 0; now receiver "ahead" by simulated wrap:
        receiver.insert(9);
        receiver.remove(9);
        sender.insert(1);
        receiver.insert(1);
        let diff = sender.difference(&receiver);
        assert_eq!(diff.count(), 0);
        assert!(diff.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold must be at least 1")]
    fn zero_threshold_rejected() {
        let _ = Quack32::new(0);
    }

    #[test]
    #[should_panic(expected = "mismatched quACK thresholds")]
    fn mismatched_thresholds_rejected() {
        let a = Quack32::new(2);
        let b = Quack32::new(3);
        let _ = a.difference(&b);
    }

    #[test]
    fn combine_is_multiset_union() {
        // Two vantage points on parallel subpaths observe disjoint halves.
        let sent: Vec<u64> = (0..100u64).map(|i| i * 31 + 7).collect();
        let mut path_a = Quack32::new(8);
        let mut path_b = Quack32::new(8);
        for (i, &id) in sent.iter().enumerate() {
            // ECMP by parity; packets 10 and 61 are lost on their paths.
            if i == 10 || i == 61 {
                continue;
            }
            if i % 2 == 0 {
                path_a.insert(id);
            } else {
                path_b.insert(id);
            }
        }
        let combined = path_a.combine(&path_b);
        assert_eq!(combined.count(), 98);
        let mut sender = Quack32::new(8);
        for &id in &sent {
            sender.insert(id);
        }
        let decoded = sender.decode_against(&combined, &sent).unwrap();
        assert_eq!(decoded.missing(), &[10, 61]);
        // Combination is commutative and matches direct observation.
        let ba = path_b.combine(&path_a);
        assert_eq!(
            ba.power_sums().collect::<Vec<_>>(),
            combined.power_sums().collect::<Vec<_>>()
        );
        assert_eq!(ba.count(), combined.count());
    }

    #[test]
    #[should_panic(expected = "mismatched quACK thresholds")]
    fn combine_rejects_mismatched_thresholds() {
        let a = Quack32::new(2);
        let b = Quack32::new(3);
        let _ = a.combine(&b);
    }

    #[test]
    fn decode_missing_identifiers_is_log_free() {
        let sent: Vec<u64> = (0..500u64).map(|i| i * 7919 + 3).collect();
        let mut sender = Quack32::new(10);
        let mut receiver = Quack32::new(10);
        for &id in &sent {
            sender.insert(id);
        }
        for (i, &id) in sent.iter().enumerate() {
            if i % 100 != 7 {
                receiver.insert(id);
            }
        }
        let diff = sender.difference(&receiver);
        let ids = diff.decode_missing_identifiers().unwrap();
        let expected: Vec<(u64, usize)> = {
            let mut v: Vec<u64> = sent
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 100 == 7)
                .map(|(_, &id)| id)
                .collect();
            v.sort_unstable();
            v.into_iter().map(|id| (id, 1)).collect()
        };
        assert_eq!(ids, expected);
        // Duplicate identifiers come back with multiplicity.
        let mut s2 = Quack32::new(4);
        let r2 = Quack32::new(4);
        s2.insert(42);
        s2.insert(42);
        s2.insert(9);
        let ids = s2.difference(&r2).decode_missing_identifiers().unwrap();
        assert_eq!(ids, vec![(9, 1), (42, 2)]);
        // Error paths mirror the logged decoders.
        let mut s3 = Quack32::new(1);
        s3.insert(1);
        s3.insert(2);
        assert!(matches!(
            s3.decode_missing_identifiers(),
            Err(DecodeError::ThresholdExceeded {
                missing: 2,
                threshold: 1
            })
        ));
    }

    #[test]
    fn corrupt_difference_with_irreducible_locator_is_an_error() {
        // Locator x^2 + 1 over F_(2^32-5): p ≡ 3 (mod 4), so −1 is a
        // non-residue and the locator has no roots in the field. Such a
        // difference can only arise from corruption (tampered sums, full
        // count wraparound); the log-free decoder must error rather than
        // silently report fewer missing identifiers than the count claims.
        // Newton: for locator x^2 + a1·x + a2 = x^2 + 1, the power sums are
        // d1 = -a1 = 0, d2 = a1·d1 - 2·a2 = -2.
        const P: u64 = 4_294_967_291;
        let diff = Quack32::from_parts(vec![0, P - 2], 2);
        assert_eq!(
            diff.decode_missing_identifiers().unwrap_err(),
            DecodeError::CountInconsistent
        );
        // The logged decoders flag the same corruption via residual().
        let decoded = diff.decode_with_log(&[7, 9]).unwrap();
        assert_eq!(decoded.residual(), 2);
    }

    #[test]
    fn insert_batch_matches_repeated_insert() {
        fn check<F: Field>() {
            let ids: Vec<u64> = (0..100u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let mut scalar = PowerSumQuack::<F>::new(20);
            let mut batched = PowerSumQuack::<F>::new(20);
            for &id in &ids {
                scalar.insert(id);
            }
            batched.insert_batch(&ids);
            assert_eq!(scalar, batched);
            for &id in &ids[..40] {
                scalar.remove(id);
            }
            batched.remove_batch(&ids[..40]);
            assert_eq!(scalar, batched);
            // Empty batches are no-ops.
            batched.insert_batch(&[]);
            batched.remove_batch(&[]);
            assert_eq!(scalar, batched);
        }
        check::<Fp16>();
        check::<Fp24>();
        check::<Fp32>();
        check::<Fp64>();
    }

    #[test]
    fn paper_scale_decode_finds_every_drop_and_refuses_over_threshold() {
        // A paper-scale log (n = 2000, t = 20) through the decoder.
        let sent: Vec<u64> = (0..2000u64).map(|i| i * 2_654_435_761 + 17).collect();
        let mut sender = Quack64::new(20);
        let mut receiver = Quack64::new(20);
        sender.insert_batch(&sent);
        for (i, &id) in sent.iter().enumerate() {
            if i % 157 != 3 {
                receiver.insert(id);
            }
        }
        let diff = sender.difference(&receiver);
        let decoded = diff.decode_with_log(&sent).unwrap();
        let dropped: Vec<usize> = (0..sent.len()).filter(|i| i % 157 == 3).collect();
        assert_eq!(decoded.missing(), dropped);
        let mut over = Quack64::new(2);
        over.insert_batch(&sent[..5]);
        assert_eq!(
            over.decode_with_log(&sent[..5]).unwrap_err(),
            DecodeError::ThresholdExceeded {
                missing: 5,
                threshold: 2
            }
        );
    }

    #[test]
    fn works_for_all_field_widths() {
        fn roundtrip<F: Field>() {
            // Distinct identifiers below every supported modulus.
            let sent: Vec<u64> = (1..=40).map(|i| i * 1000 + 7).collect();
            let mut sender = PowerSumQuack::<F>::new(5);
            let mut receiver = PowerSumQuack::<F>::new(5);
            for &id in &sent {
                sender.insert(id);
            }
            for (i, &id) in sent.iter().enumerate() {
                if i != 7 && i != 23 {
                    receiver.insert(id);
                }
            }
            let decoded = sender.decode_against(&receiver, &sent).unwrap();
            assert_eq!(decoded.missing_values(&sent), vec![sent[7], sent[23]]);
        }
        roundtrip::<Fp16>();
        roundtrip::<Fp24>();
        roundtrip::<Fp32>();
        roundtrip::<Fp64>();
    }
}
