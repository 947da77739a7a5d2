//! Batched power-sum accumulation: the quACK's per-packet hot path.
//!
//! The power-sum quACK folds every forwarded packet into `t` running sums
//! (paper §3.2), so the sketch's scaling ceiling is how fast
//! `sums[i] ± x^(i+1)` can run. The scalar update is a *serial* chain —
//! `pow *= x` has a data dependency on itself, so each of the `t` rungs
//! waits out a full multiply latency. This module restructures the work two
//! ways:
//!
//! * **Row-major batching** ([`fold_converted`]): accumulate a whole batch
//!   of identifiers rung by rung. Each rung multiplies up to [`LANES`]
//!   *independent* running powers, so the CPU pipelines (and, for the
//!   narrow fields, vectorizes) the multiplies instead of serializing them.
//!   Identifiers are converted into the field representation once, before
//!   the first rung — for `Fp64` that is the conversion into Montgomery
//!   form, so the whole batch multiplies with Montgomery `REDC`s.
//! * **Strength-reduced ladders** ([`PowerTable`]): for a single identifier
//!   the powers `x, x², x³, …` are generated from a small precomputed
//!   stride table as four interleaved chains (`x^(i+4) = x^i · x⁴`),
//!   quartering the dependency depth versus the naive Horner walk.

use crate::Field;

/// Batch width: identifiers folded per chunk. Chosen so the per-chunk
/// scratch (`2 × LANES` field elements) stays comfortably inside one page
/// of stack and the compiler can keep the rung loop in registers.
pub const LANES: usize = 32;

#[inline]
fn apply<F: Field>(sum: &mut F, row: F, negate: bool) {
    if negate {
        *sum -= row;
    } else {
        *sum += row;
    }
}

/// Precomputed stride table for the powers of a single field element.
///
/// Holds `x, x², x³, x⁴`; consecutive powers are then generated as four
/// independent chains (`x^(i+4) = x^i · x⁴`), so the dependency depth of
/// producing `x¹..x^t` drops from `t` sequential multiplies to `⌈t/4⌉`.
/// Instantiated per field (`Fp16`/`Fp24`/`Fp32`/`Fp64`) by the
/// batch fold and the hot-path benchmarks.
#[derive(Clone, Copy, Debug)]
pub struct PowerTable<F: Field> {
    /// `strides[k] = x^(k+1)` for `k < 4`.
    strides: [F; 4],
}

impl<F: Field> PowerTable<F> {
    /// Precomputes the stride table for `x`.
    #[inline]
    pub fn new(x: F) -> Self {
        let x2 = x * x;
        PowerTable {
            strides: [x, x2, x2 * x, x2 * x2],
        }
    }

    /// The base element `x`.
    #[inline]
    pub fn base(&self) -> F {
        self.strides[0]
    }

    /// Fills `out[i] = x^(i+1)` using the four-chain ladder.
    pub fn fill(&self, out: &mut [F]) {
        let s4 = self.strides[3];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = if i < 4 {
                self.strides[i]
            } else {
                // Safe: out[i - 4] was written on an earlier iteration.
                s4
            };
        }
        for i in 4..out.len() {
            out[i] = out[i - 4] * s4;
        }
    }

    /// Folds `± x^(i+1)` into `sums[i]` for every rung, without a scratch
    /// buffer: a four-element ring carries the ladder state.
    pub fn fold_into(&self, sums: &mut [F], negate: bool) {
        let s4 = self.strides[3];
        let mut ring = self.strides;
        for (i, sum) in sums.iter_mut().enumerate() {
            if i >= 4 {
                let next = ring[i & 3] * s4;
                ring[i & 3] = next;
            }
            apply(sum, ring[i & 3], negate);
        }
    }
}

/// Folds a batch of already-converted field elements into running power
/// sums: `sums[i] ± Σ_j xs[j]^(i+1)`.
///
/// This is the batched Horner ladder: rung `i+1` reuses rung `i`'s powers
/// (one multiply per lane instead of an exponentiation — strength
/// reduction), and the lanes are independent, so every rung is a burst of
/// parallel multiplies. `xs.len()` must be at most [`LANES`].
pub fn fold_converted<F: Field>(sums: &mut [F], xs: &[F], negate: bool) {
    assert!(xs.len() <= LANES, "batch chunk exceeds LANES");
    match xs.len() {
        0 => return,
        1 => return PowerTable::new(xs[0]).fold_into(sums, negate),
        _ => {}
    }
    let mut pows = [F::ZERO; LANES];
    let pows = &mut pows[..xs.len()];
    pows.copy_from_slice(xs);
    let mut rungs = sums.iter_mut();
    if let Some(first) = rungs.next() {
        let row: F = pows.iter().copied().sum();
        apply(first, row, negate);
    }
    for sum in rungs {
        let mut row = F::ZERO;
        for (p, &x) in pows.iter_mut().zip(xs.iter()) {
            *p *= x;
            row += *p;
        }
        apply(sum, row, negate);
    }
}

/// Folds raw identifiers into running power sums, chunking by [`LANES`]
/// and hoisting the `u64 → F` conversion out of the rung loop (one
/// conversion per identifier per batch, exactly as in the scalar path —
/// but never repeated per rung).
pub fn fold_power_sums_generic<F: Field>(sums: &mut [F], ids: &[u64], negate: bool) {
    for chunk in ids.chunks(LANES) {
        let mut xs = [F::ZERO; LANES];
        for (slot, &id) in xs.iter_mut().zip(chunk) {
            *slot = F::from_u64(id);
        }
        fold_converted(sums, &xs[..chunk.len()], negate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fp16, Fp24, Fp32, Fp64};

    /// Scalar reference: the naive per-identifier walk.
    fn scalar_fold<F: Field>(sums: &mut [F], ids: &[u64], negate: bool) {
        for &id in ids {
            let x = F::from_u64(id);
            let mut pow = F::ONE;
            for sum in sums.iter_mut() {
                pow *= x;
                apply(sum, pow, negate);
            }
        }
    }

    fn ids(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect()
    }

    fn check_field<F: Field>() {
        for n in [0usize, 1, 2, 3, 31, 32, 33, 100] {
            let ids = ids(n, 0xB47C + n as u64);
            for negate in [false, true] {
                for t in [1usize, 4, 5, 20] {
                    let mut expect = vec![F::ZERO; t];
                    let mut got = vec![F::ZERO; t];
                    scalar_fold(&mut expect, &ids, negate);
                    F::fold_power_sums(&mut got, &ids, negate);
                    assert_eq!(expect, got, "n={n} t={t} negate={negate}");
                }
            }
        }
    }

    #[test]
    fn batched_fold_matches_scalar_all_fields() {
        check_field::<Fp16>();
        check_field::<Fp24>();
        check_field::<Fp32>();
        check_field::<Fp64>();
    }

    #[test]
    fn power_table_matches_pow() {
        fn check<F: Field>(raw: u64) {
            let x = F::from_u64(raw);
            let table = PowerTable::new(x);
            assert_eq!(table.base(), x);
            let mut out = vec![F::ZERO; 23];
            table.fill(&mut out);
            for (i, &p) in out.iter().enumerate() {
                assert_eq!(p, x.pow(i as u64 + 1), "power {}", i + 1);
            }
            let mut sums = vec![F::ZERO; 23];
            table.fold_into(&mut sums, false);
            assert_eq!(sums, out);
            table.fold_into(&mut sums, true);
            assert!(sums.iter().all(|s| s.is_zero()));
        }
        for raw in [0u64, 1, 2, 0xDEAD_BEEF, u64::MAX - 3] {
            check::<Fp16>(raw);
            check::<Fp24>(raw);
            check::<Fp32>(raw);
            check::<Fp64>(raw);
        }
    }

    #[test]
    fn power_table_short_outputs() {
        let x = Fp32::from_u64(7);
        let table = PowerTable::new(x);
        for len in 0..4usize {
            let mut out = vec![Fp32::ZERO; len];
            table.fill(&mut out);
            for (i, &p) in out.iter().enumerate() {
                assert_eq!(p, x.pow(i as u64 + 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds LANES")]
    fn oversized_chunk_rejected() {
        let xs = vec![Fp32::ONE; LANES + 1];
        let mut sums = vec![Fp32::ZERO; 4];
        fold_converted(&mut sums, &xs, false);
    }
}
