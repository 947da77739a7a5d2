//! Newton's identities: power sums → error-locator coefficients.
//!
//! The sender holds the differences `d_i = Σ_{x ∈ S\R} x^i` of its power
//! sums and the receiver's (paper §3.1). Newton's identities convert the
//! first `m` of those differences into the coefficients of the monic
//! polynomial `∏_{x ∈ S\R} (x − x_j)` whose roots are exactly the missing
//! identifiers — "efficiently solving these m power sum polynomial equations
//! in m variables is a well-understood algebra problem" (§3.1, citing
//! Eppstein–Goodrich straggler identification).
//!
//! Writing the locator as `x^m + a_1·x^{m−1} + … + a_m` (signed elementary
//! symmetric polynomials `a_k = (−1)^k e_k`), the identities give the
//! recurrence
//!
//! ```text
//! a_k = −(1/k) · Σ_{i=1..k} a_{k−i} · d_i ,   a_0 = 1 .
//! ```
//!
//! Each `a_k` costs `k` multiplications, so coefficient recovery is `O(m²)`
//! field multiplications — the dominant term in the paper's Fig. 6 decoding
//! curve, linear in `m` for the small `m` regime because the subsequent
//! candidate evaluation is `O(n·m)`.

use crate::Field;

/// Reusable scratch state for converting power sums to coefficients.
///
/// Holds the modular inverses of `1..=max_m` so repeated decodes (one per
/// received quACK) never pay for a Fermat inversion. Build it once per
/// connection with the negotiated threshold `t`.
#[derive(Clone, Debug)]
pub struct NewtonWorkspace<F: Field> {
    /// `invs[k-1] = k^{-1} mod p`.
    invs: Vec<F>,
}

impl<F: Field> NewtonWorkspace<F> {
    /// Prepares inverses for locators of degree up to `max_m` (the quACK
    /// threshold `t`).
    pub fn new(max_m: usize) -> Self {
        assert!(
            (max_m as u64) < F::MODULUS,
            "threshold must be smaller than the field modulus"
        );
        // inv[1] = 1; inv[i] = -(p / i) · inv[p mod i]  (standard O(n) sieve)
        let mut invs = Vec::with_capacity(max_m);
        if max_m >= 1 {
            invs.push(F::ONE);
        }
        let p = F::MODULUS;
        for i in 2..=max_m as u64 {
            let rec = invs[(p % i) as usize - 1];
            invs.push(-(F::from_u64(p / i) * rec));
        }
        NewtonWorkspace { invs }
    }

    /// The maximum locator degree this workspace supports.
    pub fn max_m(&self) -> usize {
        self.invs.len()
    }

    /// Converts power-sum differences `d_1..d_m` into the non-leading
    /// coefficients of the monic error-locator polynomial, low-to-high:
    /// the returned `c` satisfies `locator(x) = x^m + Σ c[k]·x^k`.
    ///
    /// # Panics
    ///
    /// Panics if `power_sums.len()` exceeds [`Self::max_m`].
    pub fn coefficients(&self, power_sums: &[F]) -> Vec<F> {
        let mut out = Vec::new();
        self.coefficients_into(power_sums, &mut out);
        out
    }

    /// Like [`Self::coefficients`], but writes into a caller-owned buffer so
    /// repeated decodes (one per received quACK) reuse the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `power_sums.len()` exceeds [`Self::max_m`].
    pub fn coefficients_into(&self, power_sums: &[F], out: &mut Vec<F>) {
        let m = power_sums.len();
        assert!(
            m <= self.invs.len(),
            "workspace sized for m <= {}, got {}",
            self.invs.len(),
            m
        );
        // a[k], k = 0..=m with a[0] = 1.
        out.clear();
        out.reserve(m + 1);
        out.push(F::ONE);
        for k in 1..=m {
            let mut acc = F::ZERO;
            for i in 1..=k {
                acc += out[k - i] * power_sums[i - 1];
            }
            out.push(-(acc * self.invs[k - 1]));
        }
        // Non-leading coefficients low-to-high: coefficient of x^k is a[m-k].
        out.remove(0); // drop a_0
        out.reverse();
    }
}

/// One-shot convenience wrapper around [`NewtonWorkspace::coefficients`].
pub fn power_sums_to_coefficients<F: Field>(power_sums: &[F]) -> Vec<F> {
    NewtonWorkspace::new(power_sums.len()).coefficients(power_sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{eval_monic, Poly};
    use crate::{Fp16, Fp32, Fp64, Monty64};

    /// Computes power sums of a multiset directly.
    fn power_sums<F: Field>(elements: &[F], m: usize) -> Vec<F> {
        (1..=m as u64)
            .map(|i| elements.iter().map(|x| x.pow(i)).sum())
            .collect()
    }

    fn check_roundtrip<F: Field>(raw: &[u64]) {
        let roots: Vec<F> = raw.iter().map(|&v| F::from_u64(v)).collect();
        let sums = power_sums(&roots, roots.len());
        let coeffs = power_sums_to_coefficients(&sums);
        let expected = Poly::from_roots(&roots);
        // expected is monic; compare non-leading coefficients.
        assert_eq!(
            coeffs,
            expected.coeffs()[..roots.len()].to_vec(),
            "roots {raw:?}"
        );
        for &r in &roots {
            assert_eq!(eval_monic(&coeffs, r), F::ZERO);
        }
    }

    #[test]
    fn empty_power_sums_give_empty_coefficients() {
        assert!(power_sums_to_coefficients::<Fp32>(&[]).is_empty());
    }

    #[test]
    fn single_missing_element_is_the_sum() {
        // Paper §3.1: with one missing element, the power-sum difference IS
        // the element; the locator is x - d_1.
        let d = Fp32::from_u64(77_777);
        let coeffs = power_sums_to_coefficients(&[d]);
        assert_eq!(coeffs, vec![-d]);
        assert_eq!(eval_monic(&coeffs, d), Fp32::ZERO);
    }

    #[test]
    fn roundtrip_distinct_roots_all_fields() {
        check_roundtrip::<Fp16>(&[3, 9, 65_000]);
        check_roundtrip::<Fp24>(&[1, 2, 16_000_000]);
        check_roundtrip::<Fp32>(&[42, 4_000_000_000, 123_456_789]);
        check_roundtrip::<Fp64>(&[7, u64::MAX - 100, 0xDEAD_BEEF]);
        check_roundtrip::<Monty64>(&[7, u64::MAX - 100, 0xDEAD_BEEF]);
    }
    use crate::Fp24;

    #[test]
    fn roundtrip_with_duplicates() {
        // Multiset semantics: duplicated roots must appear with multiplicity.
        check_roundtrip::<Fp32>(&[5, 5, 5]);
        check_roundtrip::<Fp32>(&[9, 9, 1000, 1000, 1000, 2]);
        check_roundtrip::<Fp16>(&[65_520, 65_520]);
    }

    #[test]
    fn roundtrip_larger_degree() {
        let raw: Vec<u64> = (0..40).map(|i| i * i * 1_234_567 + 3).collect();
        check_roundtrip::<Fp32>(&raw);
        check_roundtrip::<Fp64>(&raw);
    }

    #[test]
    fn workspace_reuse_matches_one_shot() {
        let ws = NewtonWorkspace::<Fp32>::new(8);
        assert_eq!(ws.max_m(), 8);
        for m in 0..=8usize {
            let sums: Vec<Fp32> = (1..=m as u64).map(|i| Fp32::from_u64(i * 17)).collect();
            assert_eq!(ws.coefficients(&sums), power_sums_to_coefficients(&sums));
        }
    }

    #[test]
    #[should_panic(expected = "workspace sized for")]
    fn oversized_request_panics() {
        let ws = NewtonWorkspace::<Fp32>::new(2);
        let _ = ws.coefficients(&[Fp32::ONE, Fp32::ONE, Fp32::ONE]);
    }

    #[test]
    fn inverse_sieve_is_correct() {
        let ws = NewtonWorkspace::<Fp16>::new(200);
        for k in 1..=200u64 {
            assert_eq!(
                ws.invs[k as usize - 1] * Fp16::from_u64(k),
                Fp16::ONE,
                "inv({k})"
            );
        }
    }

    #[test]
    fn zero_root_handled() {
        // The identifier 0 (or any id ≡ 0 mod p) can be missing.
        check_roundtrip::<Fp32>(&[0, 17]);
        check_roundtrip::<Fp32>(&[0, 0]);
    }

    #[test]
    fn coefficients_into_matches_and_reuses_buffer() {
        let ws = NewtonWorkspace::<Fp32>::new(8);
        let mut buf = Vec::new();
        for m in 0..=8usize {
            let sums: Vec<Fp32> = (1..=m as u64).map(|i| Fp32::from_u64(i * 31)).collect();
            ws.coefficients_into(&sums, &mut buf);
            assert_eq!(buf, ws.coefficients(&sums));
        }
    }
}
