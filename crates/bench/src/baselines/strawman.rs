//! The two strawman quACKs the paper compares against (§1, §4.1, Table 2).
//!
//! * **Strawman 1** ([`EchoQuack`]) "echo\[es\] the identifier of every
//!   received packet to the sender, who calculates a set difference with its
//!   sent packets to find the missing packets. This approach uses
//!   extraordinary bandwidth." — `b·n` bits on the wire.
//! * **Strawman 2** ([`HashQuack`]) "returns a hash of a sorted
//!   concatenation of all the received packets, and the sender hashes every
//!   subset of sent packets of the same size until it finds the correct
//!   subset. This approach can easily become computationally infeasible." —
//!   `256 + c` bits on the wire but super-polynomial decode time.
//!
//! Both are fully functional (Strawman 2's decoder takes a work budget so
//! tests can exercise it at small `n`), and both expose the cost model used
//! to regenerate Table 2.

use sidecar_quack::sha256::Sha256;
use std::collections::HashMap;

/// Strawman 1: the receiver echoes every received identifier verbatim.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EchoQuack {
    ids: Vec<u64>,
    /// Identifier width, for the wire-size accounting.
    bits: u32,
}

impl EchoQuack {
    /// Creates an empty echo quACK for `bits`-bit identifiers.
    pub fn new(bits: u32) -> Self {
        EchoQuack {
            ids: Vec::new(),
            bits,
        }
    }

    /// Records one received identifier.
    #[inline]
    pub fn insert(&mut self, id: u64) {
        self.ids.push(id);
    }

    /// Number of identifiers accumulated.
    pub fn count(&self) -> usize {
        self.ids.len()
    }

    /// The echoed identifiers.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Wire size in bits: `b · n` (Table 2 row 1).
    pub fn wire_bits(&self) -> usize {
        self.bits as usize * self.ids.len()
    }

    /// Multiset difference: identifiers in `log` not covered by the echoes,
    /// with multiplicity, in log order.
    pub fn decode_missing(&self, log: &[u64]) -> Vec<u64> {
        let mut received: HashMap<u64, usize> = HashMap::with_capacity(self.ids.len());
        for &id in &self.ids {
            *received.entry(id).or_default() += 1;
        }
        let mut missing = Vec::new();
        for &id in log {
            match received.get_mut(&id) {
                Some(n) if *n > 0 => *n -= 1,
                _ => missing.push(id),
            }
        }
        missing
    }
}

/// Strawman 2: a 256-bit hash over the sorted received identifiers plus a
/// count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HashQuack {
    ids: Vec<u64>,
}

impl HashQuack {
    /// Creates an empty hash quACK.
    pub fn new() -> Self {
        HashQuack::default()
    }

    /// Records one received identifier.
    #[inline]
    pub fn insert(&mut self, id: u64) {
        self.ids.push(id);
    }

    /// Number of identifiers accumulated.
    pub fn count(&self) -> usize {
        self.ids.len()
    }

    /// The quACK payload: SHA-256 over the sorted concatenation.
    ///
    /// Sorting happens here (at emission), keeping the per-packet insert
    /// cost to a push — the configuration whose construction time Table 2
    /// reports in nanoseconds.
    pub fn digest(&self) -> [u8; 32] {
        let mut sorted = self.ids.clone();
        sorted.sort_unstable();
        hash_sorted(&sorted)
    }

    /// Wire size in bits: `256 + c` (Table 2 row 2).
    pub fn wire_bits(count_bits: u32) -> usize {
        256 + count_bits as usize
    }

    /// Brute-force decode: find which `log.len() - count` packets are
    /// missing by hashing candidate received-subsets of `log` until one
    /// matches `digest`.
    ///
    /// Subsets are enumerated in combinadic order over the *missing* side
    /// (choose `m` indices to drop). Each candidate costs one sort-free
    /// merge plus one SHA-256 over `8·(n-m)` bytes. Returns the missing
    /// indices, or `None` if `max_candidates` subsets were tried without a
    /// match (the expected case for realistic `n`, `m` — this is the
    /// "≈7e+06 days" Table 2 row).
    pub fn decode_missing(
        &self,
        log: &[u64],
        digest: &[u8; 32],
        max_candidates: u64,
    ) -> Option<Vec<usize>> {
        let n = log.len();
        let m = n.checked_sub(self.count_for_decode(log))?;
        // Sort log once, remembering original indices.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| log[i]);
        let sorted: Vec<u64> = order.iter().map(|&i| log[i]).collect();

        let mut tried = 0u64;
        let mut found = None;
        for_each_combination(n, m, &mut |drop| {
            if found.is_some() || tried >= max_candidates {
                return false;
            }
            tried += 1;
            let candidate: Vec<u64> = sorted
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, &v)| v)
                .collect();
            if &hash_sorted(&candidate) == digest {
                let mut missing: Vec<usize> = drop.iter().map(|&i| order[i]).collect();
                missing.sort_unstable();
                found = Some(missing);
                return false;
            }
            true
        });
        found
    }

    fn count_for_decode(&self, _log: &[u64]) -> usize {
        self.ids.len()
    }
}

/// Hashes an already-sorted identifier list the way [`HashQuack`] does.
pub fn hash_sorted(sorted_ids: &[u64]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&(sorted_ids.len() as u64).to_be_bytes());
    for &id in sorted_ids {
        h.update(&id.to_be_bytes());
    }
    h.finalize()
}

/// Calls `f` with each `m`-combination of `0..n` (lexicographic) until `f`
/// returns `false` or combinations are exhausted.
fn for_each_combination(n: usize, m: usize, f: &mut dyn FnMut(&[usize]) -> bool) {
    if m > n {
        return;
    }
    let mut idx: Vec<usize> = (0..m).collect();
    loop {
        if !f(&idx) {
            return;
        }
        // Advance to the next combination.
        let mut i = m;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - m {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in i + 1..m {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Natural log of the binomial coefficient `C(n, m)`.
pub fn ln_binomial(n: u64, m: u64) -> f64 {
    if m > n {
        return f64::NEG_INFINITY;
    }
    let m = m.min(n - m);
    (1..=m)
        .map(|i| (((n - m + i) as f64) / (i as f64)).ln())
        .sum()
}

/// Expected Strawman-2 decode time in seconds: half the subsets, one hash
/// each.
///
/// `per_hash_ns` should be a measured cost of hashing one candidate subset
/// (≈ `8·(n-m)` bytes through SHA-256 plus the merge).
pub fn estimated_decode_seconds(n: u64, m: u64, per_hash_ns: f64) -> f64 {
    // Expected candidates = C(n, m) / 2.
    let ln_candidates = ln_binomial(n, m) - core::f64::consts::LN_2;
    (ln_candidates + (per_hash_ns * 1e-9).ln()).exp()
}

/// [`estimated_decode_seconds`] converted to days (Table 2 reports days).
pub fn estimated_decode_days(n: u64, m: u64, per_hash_ns: f64) -> f64 {
    estimated_decode_seconds(n, m, per_hash_ns) / 86_400.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_decode_finds_missing_with_multiplicity() {
        let mut q = EchoQuack::new(32);
        for id in [1u64, 2, 2, 3] {
            q.insert(id);
        }
        let log = [1u64, 2, 2, 2, 3, 4];
        assert_eq!(q.decode_missing(&log), vec![2, 4]);
        assert_eq!(q.count(), 4);
    }

    #[test]
    fn echo_wire_size_is_b_times_n() {
        let mut q = EchoQuack::new(32);
        for id in 0..1000u64 {
            q.insert(id);
        }
        assert_eq!(q.wire_bits(), 32_000); // Table 2: b·n = 32000
    }

    #[test]
    fn echo_nothing_missing() {
        let mut q = EchoQuack::new(16);
        let log = [5u64, 6, 7];
        for &id in &log {
            q.insert(id);
        }
        assert!(q.decode_missing(&log).is_empty());
    }

    #[test]
    fn hash_quack_wire_size() {
        assert_eq!(HashQuack::wire_bits(16), 272); // Table 2: 256 + c = 272
    }

    #[test]
    fn hash_decode_small_case() {
        let log: Vec<u64> = (0..10).map(|i| i * 37 + 5).collect();
        let mut q = HashQuack::new();
        for (i, &id) in log.iter().enumerate() {
            if i != 3 && i != 8 {
                q.insert(id);
            }
        }
        let digest = q.digest();
        let missing = q.decode_missing(&log, &digest, 1_000_000).unwrap();
        assert_eq!(missing, vec![3, 8]);
    }

    #[test]
    fn hash_decode_nothing_missing() {
        let log: Vec<u64> = (0..6).collect();
        let mut q = HashQuack::new();
        for &id in &log {
            q.insert(id);
        }
        let digest = q.digest();
        assert_eq!(
            q.decode_missing(&log, &digest, 10).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn hash_decode_respects_budget() {
        let log: Vec<u64> = (0..30).collect();
        let mut q = HashQuack::new();
        for &id in &log[..20] {
            q.insert(id);
        }
        let digest = q.digest();
        // C(30,10) ≈ 30 M subsets; a budget of 10 must give up.
        assert_eq!(q.decode_missing(&log, &digest, 10), None);
    }

    #[test]
    fn hash_insert_order_does_not_matter() {
        let mut a = HashQuack::new();
        let mut b = HashQuack::new();
        for id in [9u64, 1, 5] {
            a.insert(id);
        }
        for id in [5u64, 9, 1] {
            b.insert(id);
        }
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn hash_distinguishes_multiplicity() {
        let mut a = HashQuack::new();
        a.insert(7);
        let mut b = HashQuack::new();
        b.insert(7);
        b.insert(7);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn combinations_enumerated_exactly_once() {
        let mut seen = Vec::new();
        for_each_combination(5, 3, &mut |c| {
            seen.push(c.to_vec());
            true
        });
        assert_eq!(seen.len(), 10); // C(5,3)
        let mut dedup = seen.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert_eq!(seen[9], vec![2, 3, 4]);
    }

    #[test]
    fn combinations_edge_cases() {
        let mut count = 0;
        for_each_combination(4, 0, &mut |c| {
            assert!(c.is_empty());
            count += 1;
            true
        });
        assert_eq!(count, 1); // the empty combination
        let mut count = 0;
        for_each_combination(3, 4, &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 0);
        let mut count = 0;
        for_each_combination(3, 3, &mut |c| {
            assert_eq!(c, &[0, 1, 2]);
            count += 1;
            true
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn ln_binomial_known_values() {
        assert!((ln_binomial(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_binomial(10, 0)).abs() < 1e-12);
        assert_eq!(ln_binomial(3, 5), f64::NEG_INFINITY);
        // C(1000, 20) ≈ 3.39e41
        let v = ln_binomial(1000, 20) / core::f64::consts::LN_10;
        assert!((41.0..42.0).contains(&v), "log10 C(1000,20) = {v}");
    }

    #[test]
    fn estimated_decode_is_astronomical_for_paper_params() {
        // The headline claim: utterly infeasible at n=1000, m=20.
        let days = estimated_decode_days(1000, 20, 400.0);
        assert!(days > 1e6, "must exceed the paper's ≈7e+06 days: {days}");
    }
}
