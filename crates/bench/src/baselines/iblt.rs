//! An invertible Bloom lookup table (IBLT): the *other* construction from
//! the straggler-identification work the paper builds on.
//!
//! Eppstein & Goodrich's paper (the quACK's citation \[7\]) solves set-
//! difference both with power sums ("Newton's identities") and with
//! **invertible Bloom filters**. The paper asks "what similar
//! protocol-agnostic digests could we design?" (§5) — the IBLT is the
//! canonical answer, with an opposite trade-off:
//!
//! * **size**: `≈1.4·k/(k−1)·d` cells of ~20 bytes for `d` differences vs.
//!   the power sums' `d·b` bits — roughly an order of magnitude larger at
//!   the paper's operating point;
//! * **decode**: `O(d)` peeling with tiny constants vs. `O(n·m)` or
//!   `O(m² log p)` — and the IBLT decodes *both directions* of a
//!   difference;
//! * **failure mode**: probabilistic (peeling can stall) vs. the power
//!   sums' hard `m ≤ t` threshold — and, structurally, a *duplicated*
//!   identifier in the difference (the same ciphertext lost twice) never
//!   peels: all of its cells hold count 2, so `decode` returns `None`
//!   where the power-sum decoder reports the duplicate exactly.
//!
//! The `paper` bench bin's §5 IBLT rows quantify the trade-off.

/// One IBLT cell: signed count plus keyed sums that make singleton cells
/// recognizable and invertible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Cell {
    /// Net insertions minus removals hashing here.
    count: i64,
    /// Wrapping sum of identifiers hashing here.
    id_sum: u64,
    /// Wrapping sum of identifier checksums hashing here.
    check_sum: u64,
}

impl Cell {
    fn is_empty(&self) -> bool {
        self.count == 0 && self.id_sum == 0 && self.check_sum == 0
    }

    /// If this cell holds exactly one (possibly negated) identifier,
    /// return `(id, sign)`.
    fn as_singleton(&self) -> Option<(u64, i64)> {
        let (id, sign) = match self.count {
            1 => (self.id_sum, 1),
            -1 => (self.id_sum.wrapping_neg(), -1),
            _ => return None,
        };
        let expected = checksum(id).wrapping_mul(sign as u64);
        if self.check_sum == expected {
            Some((id, sign))
        } else {
            None
        }
    }
}

fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn checksum(id: u64) -> u64 {
    mix(id ^ 0xC0DE_C0DE_C0DE_C0DE)
}

/// Number of independent subtables (each identifier lands in one cell per
/// subtable, guaranteeing `K` distinct cells).
const K: usize = 3;

/// The result of peeling an IBLT difference.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IbltDiff {
    /// Identifiers present in `self` but not `other` — the *missing*
    /// packets when differencing sender − receiver. Each entry has
    /// multiplicity one: a difference containing the same identifier more
    /// than once is undecodable (peeling stalls; see the module docs).
    pub missing: Vec<u64>,
    /// Identifiers present in `other` but not `self` — foreign packets the
    /// receiver saw that the sender never sent.
    pub extra: Vec<u64>,
}

/// An invertible Bloom lookup table over packet identifiers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Iblt {
    /// `K` subtables of `per_table` cells each, concatenated.
    cells: Vec<Cell>,
    per_table: usize,
    /// Wrapping count of net insertions (same role as the quACK count).
    count: u32,
    /// Seed diversifying the cell hashes per deployment.
    salt: u64,
}

impl Iblt {
    /// Creates an IBLT able to decode roughly `capacity` differences.
    ///
    /// Sizing uses a 1.6× peeling overhead plus a per-subtable slack cell:
    /// the asymptotic `k = 3` threshold is ≈1.22×, but small tables (the
    /// regime sidecars care about) need substantially more headroom to keep
    /// the stall probability in the low percents.
    pub fn with_capacity(capacity: usize, salt: u64) -> Self {
        let per_table = ((capacity as f64 * 1.6 / K as f64).ceil() as usize + 1).max(3);
        Iblt {
            cells: vec![Cell::default(); per_table * K],
            per_table,
            count: 0,
            salt,
        }
    }

    /// Size of the sketch on the wire: 20 bytes per cell (8-byte id sum,
    /// 8-byte checksum sum, 4-byte count) plus a 2-byte element count.
    pub fn wire_bytes(&self) -> usize {
        self.cells.len() * 20 + 2
    }

    /// Net element count (wrapping).
    pub fn count(&self) -> u32 {
        self.count
    }

    fn cell_indices(&self, id: u64) -> [usize; K] {
        let mut idx = [0usize; K];
        for (t, slot) in idx.iter_mut().enumerate() {
            let h = mix(id ^ self.salt.wrapping_add(t as u64 * 0x1000_0001));
            *slot = t * self.per_table + (h % self.per_table as u64) as usize;
        }
        idx
    }

    /// Folds one identifier in.
    pub fn insert(&mut self, id: u64) {
        for i in self.cell_indices(id) {
            let c = &mut self.cells[i];
            c.count += 1;
            c.id_sum = c.id_sum.wrapping_add(id);
            c.check_sum = c.check_sum.wrapping_add(checksum(id));
        }
        self.count = self.count.wrapping_add(1);
    }

    /// Removes one identifier (inverse of [`insert`](Self::insert)).
    pub fn remove(&mut self, id: u64) {
        for i in self.cell_indices(id) {
            let c = &mut self.cells[i];
            c.count -= 1;
            c.id_sum = c.id_sum.wrapping_sub(id);
            c.check_sum = c.check_sum.wrapping_sub(checksum(id));
        }
        self.count = self.count.wrapping_sub(1);
    }

    /// Cellwise difference `self − other` (both sides must be configured
    /// identically).
    ///
    /// # Panics
    ///
    /// Panics on mismatched geometry or salt.
    pub fn difference(&self, other: &Self) -> Self {
        assert_eq!(self.per_table, other.per_table, "mismatched IBLT size");
        assert_eq!(self.salt, other.salt, "mismatched IBLT salt");
        let cells = self
            .cells
            .iter()
            .zip(&other.cells)
            .map(|(a, b)| Cell {
                count: a.count - b.count,
                id_sum: a.id_sum.wrapping_sub(b.id_sum),
                check_sum: a.check_sum.wrapping_sub(b.check_sum),
            })
            .collect();
        Iblt {
            cells,
            per_table: self.per_table,
            count: self.count.wrapping_sub(other.count),
            salt: self.salt,
        }
    }

    /// Peels the (difference) table, listing both directions of the
    /// difference. Returns `None` if peeling stalls before the table
    /// empties — the probabilistic failure the power-sum quACK does not
    /// have. Consumes the table (peeling is destructive).
    pub fn decode(mut self) -> Option<IbltDiff> {
        let mut out = IbltDiff::default();
        let mut queue: Vec<usize> = (0..self.cells.len()).collect();
        while let Some(i) = queue.pop() {
            let Some((id, sign)) = self.cells[i].as_singleton() else {
                continue;
            };
            if sign > 0 {
                out.missing.push(id);
            } else {
                out.extra.push(id);
            }
            // Remove the recovered element (with its sign) everywhere,
            // re-queueing the touched cells.
            for j in self.cell_indices(id) {
                let c = &mut self.cells[j];
                c.count -= sign;
                if sign > 0 {
                    c.id_sum = c.id_sum.wrapping_sub(id);
                    c.check_sum = c.check_sum.wrapping_sub(checksum(id));
                } else {
                    c.id_sum = c.id_sum.wrapping_add(id);
                    c.check_sum = c.check_sum.wrapping_add(checksum(id));
                }
                queue.push(j);
            }
        }
        if self.cells.iter().all(Cell::is_empty) {
            out.missing.sort_unstable();
            out.extra.sort_unstable();
            Some(out)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidecar_quack::id::IdentifierGenerator;

    #[test]
    fn roundtrip_small_difference() {
        let mut sender = Iblt::with_capacity(20, 7);
        let mut receiver = Iblt::with_capacity(20, 7);
        let ids: Vec<u64> = (0..100u64).map(|i| i * 2_654_435_761 + 3).collect();
        for &id in &ids {
            sender.insert(id);
        }
        for (i, &id) in ids.iter().enumerate() {
            if i % 10 != 4 {
                receiver.insert(id);
            }
        }
        let diff = sender.difference(&receiver).decode().unwrap();
        let mut expected: Vec<u64> = ids.iter().copied().skip(4).step_by(10).collect();
        expected.sort_unstable();
        assert_eq!(diff.missing, expected);
        assert!(diff.extra.is_empty());
    }

    #[test]
    fn decodes_both_directions() {
        let mut a = Iblt::with_capacity(10, 1);
        let mut b = Iblt::with_capacity(10, 1);
        for id in [10u64, 20, 30] {
            a.insert(id);
        }
        for id in [20u64, 30, 40, 50] {
            b.insert(id);
        }
        let diff = a.difference(&b).decode().unwrap();
        assert_eq!(diff.missing, vec![10]);
        assert_eq!(diff.extra, vec![40, 50]);
    }

    #[test]
    fn remove_is_inverse_of_insert() {
        let mut t = Iblt::with_capacity(8, 3);
        for id in [1u64, 2, 3] {
            t.insert(id);
        }
        for id in [1u64, 2, 3] {
            t.remove(id);
        }
        assert!(t.cells.iter().all(Cell::is_empty));
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn empty_difference_decodes_empty() {
        let mut a = Iblt::with_capacity(8, 9);
        let mut b = Iblt::with_capacity(8, 9);
        for id in 0..50u64 {
            a.insert(id);
            b.insert(id);
        }
        let diff = a.difference(&b).decode().unwrap();
        assert!(diff.missing.is_empty() && diff.extra.is_empty());
    }

    #[test]
    fn duplicate_identifier_in_difference_stalls_peeling() {
        // Structural limitation vs. the power-sum quACK: the same
        // identifier missing twice occupies its K cells with count 2 and
        // never becomes a singleton.
        let mut a = Iblt::with_capacity(20, 11);
        let b = Iblt::with_capacity(20, 11);
        a.insert(12_345);
        a.insert(12_345);
        assert_eq!(a.difference(&b).decode(), None);
        // The power-sum quACK handles the identical case exactly.
        let mut ps = sidecar_quack::Quack32::new(20);
        ps.insert(12_345);
        ps.insert(12_345);
        let empty = sidecar_quack::Quack32::new(20);
        assert_eq!(
            ps.difference(&empty).decode_missing_identifiers().unwrap(),
            vec![(12_345, 2)]
        );
    }

    #[test]
    fn overload_fails_gracefully() {
        // 100 differences in a capacity-10 table: peeling must stall, not
        // hallucinate.
        let mut a = Iblt::with_capacity(10, 5);
        let b = Iblt::with_capacity(10, 5);
        let mut generator = IdentifierGenerator::new(32, 44);
        for _ in 0..100 {
            a.insert(generator.next_id());
        }
        assert_eq!(a.difference(&b).decode(), None);
    }

    #[test]
    fn random_workloads_decode_reliably_at_capacity() {
        let mut failures = 0;
        for seed in 0..50u64 {
            let mut generator = IdentifierGenerator::new(32, seed);
            let ids = generator.take_ids(500);
            let mut sender = Iblt::with_capacity(30, seed);
            let mut receiver = Iblt::with_capacity(30, seed);
            for &id in &ids {
                sender.insert(id);
            }
            // Drop 20 (under the 30 capacity).
            for &id in &ids[20..] {
                receiver.insert(id);
            }
            match sender.difference(&receiver).decode() {
                Some(diff) => {
                    let mut expected = ids[..20].to_vec();
                    expected.sort_unstable();
                    assert_eq!(diff.missing, expected);
                }
                None => failures += 1,
            }
        }
        assert!(failures <= 3, "peeling failed {failures}/50 times");
    }

    #[test]
    fn wire_size_is_much_larger_than_power_sums() {
        // The headline comparison: t = 20 power sums = 82 bytes; an IBLT
        // sized for the same 20 differences is ~an order of magnitude
        // bigger.
        let iblt = Iblt::with_capacity(20, 0);
        assert!(iblt.wire_bytes() > 82 * 5, "{}", iblt.wire_bytes());
    }

    #[test]
    #[should_panic(expected = "mismatched IBLT salt")]
    fn salt_mismatch_rejected() {
        let a = Iblt::with_capacity(8, 1);
        let b = Iblt::with_capacity(8, 2);
        let _ = a.difference(&b);
    }
}
