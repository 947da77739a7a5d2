//! `F_(2^64 - 59)`: a 64-bit extension field width, in Montgomery form.
//!
//! The paper evaluates b ∈ {16, 24, 32}; 64-bit identifiers are the natural
//! "future-work" width for flows long enough that 32-bit collision
//! probability becomes material (§4.2 notes the more bits, the better the
//! disambiguation).
//!
//! A `u128` remainder compiles to a slow library call on most targets, so
//! elements are stored as `a·R mod p` with `R = 2^64`: addition and
//! subtraction work on that representative unchanged, a product is one
//! Montgomery reduction (`REDC`, two widening multiplies and a few adds) of
//! the 128-bit product, and only [`Field::from_u64`] and [`Field::to_u64`]
//! convert. Every insert, decode and wire codec goes through those two
//! calls, so the representation never shows outside this file.

use crate::field::impl_field_ops;
use crate::{Field, P64};

const P: u64 = P64;

/// `-p^{-1} mod 2^64`, by Newton–Hensel iteration (doubles correct bits each
/// step; 6 steps cover 64 bits).
const NEG_P_INV: u64 = {
    let mut inv: u64 = 1;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(P.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};

/// `R mod p`, the Montgomery representation of one.
const R1: u64 = {
    let m = P as u128;
    ((u64::MAX as u128 + 1) % m) as u64
};

/// `R^2 mod p = 2^128 mod p`, used to convert into Montgomery form.
const R2: u64 = {
    // 2^128 mod p == (u128::MAX mod p + 1) mod p
    let m = P as u128;
    let r = u128::MAX % m + 1;
    (r % m) as u64
};

/// Montgomery reduction: computes `t · R^{-1} mod p` for `t < p·2^64`.
#[inline]
fn redc(t: u128) -> u64 {
    let t_lo = t as u64;
    let t_hi = (t >> 64) as u64;
    let m = t_lo.wrapping_mul(NEG_P_INV);
    let mp = m as u128 * P as u128;
    let mp_lo = mp as u64;
    let mp_hi = (mp >> 64) as u64;
    // t_lo + mp_lo ≡ 0 (mod 2^64) by construction of m; only the carry out
    // matters.
    let carry = (t_lo as u128 + mp_lo as u128 > u64::MAX as u128) as u64;
    let r = t_hi as u128 + mp_hi as u128 + carry as u128;
    // r < 2p, one conditional subtraction suffices.
    if r >= P as u128 {
        (r - P as u128) as u64
    } else {
        r as u64
    }
}

/// An element of `F_(2^64 - 59)` (64-bit identifiers; extension width).
///
/// Equality and hashing compare the Montgomery representative, which is a
/// bijection of the value; `Debug` and `Display` print the value.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp64(u64);

impl Fp64 {
    #[inline]
    pub(crate) const fn raw_zero() -> Self {
        Fp64(0)
    }

    #[inline]
    pub(crate) const fn raw_one() -> Self {
        Fp64(R1)
    }

    #[inline]
    pub(crate) fn raw_add(self, rhs: Self) -> Self {
        let (sum, overflow) = self.0.overflowing_add(rhs.0);
        // If the u64 add overflowed, the true sum is sum + 2^64 = sum + p +
        // 59. Both inputs are < p, so the true sum is < 2p and the wrapped
        // sum is < p - 118: adding 59 lands in [0, p) without a reduction.
        if overflow {
            Fp64(sum + 59)
        } else if sum >= P {
            Fp64(sum - P)
        } else {
            Fp64(sum)
        }
    }

    #[inline]
    pub(crate) fn raw_sub(self, rhs: Self) -> Self {
        let (diff, borrow) = self.0.overflowing_sub(rhs.0);
        Fp64(if borrow { diff.wrapping_add(P) } else { diff })
    }

    #[inline]
    pub(crate) fn raw_mul(self, rhs: Self) -> Self {
        Fp64(redc(self.0 as u128 * rhs.0 as u128))
    }

    /// The stored representative `a·2^64 mod p`, for representation tests.
    #[cfg(test)]
    pub(crate) const fn montgomery_repr(self) -> u64 {
        self.0
    }
}

impl_field_ops!(Fp64);

impl core::fmt::Debug for Fp64 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("Fp64").field(&self.to_u64()).finish()
    }
}

impl Field for Fp64 {
    const MODULUS: u64 = P64;
    const BITS: u32 = 64;
    const ZERO: Self = Fp64(0);
    const ONE: Self = Fp64(R1);

    #[inline]
    fn from_u64(value: u64) -> Self {
        Fp64(redc((value % P) as u128 * R2 as u128))
    }

    #[inline]
    fn to_u64(self) -> u64 {
        redc(self.0 as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference model: canonical residues, `u128` remainder products.
    fn model_mul(a: u64, b: u64) -> u64 {
        (a as u128 * b as u128 % P as u128) as u64
    }

    fn model_add(a: u64, b: u64) -> u64 {
        ((a as u128 + b as u128) % P as u128) as u64
    }

    fn model_sub(a: u64, b: u64) -> u64 {
        ((a as u128 + P as u128 - b as u128) % P as u128) as u64
    }

    /// Identifiers at the reduction boundaries: 0, 1, the 59 aliases of
    /// `[p, 2^64)` and their preimages, and the top of the field.
    const EDGES: [u64; 8] = [0, 1, 58, 59, P - 1, P, P + 58, u64::MAX];

    #[test]
    fn constants_are_consistent() {
        // p · (-p^{-1}) ≡ -1 (mod 2^64)
        assert_eq!(P.wrapping_mul(NEG_P_INV), u64::MAX);
        assert_eq!(R1 as u128, (1u128 << 64) % P as u128);
        assert_eq!(R2 as u128, ((R1 as u128) * (R1 as u128)) % P as u128);
    }

    #[test]
    fn one_is_montgomery_one() {
        assert_eq!(Fp64::ONE.to_u64(), 1);
        assert_eq!(Fp64::from_u64(1), Fp64::ONE);
        let x = Fp64::from_u64(123_456_789);
        assert_eq!(x * Fp64::ONE, x);
    }

    #[test]
    fn roundtrip_conversion() {
        for v in EDGES.into_iter().chain([0xDEAD_BEEF_CAFE_BABE]) {
            assert_eq!(Fp64::from_u64(v).to_u64(), v % P, "{v}");
        }
    }

    #[test]
    fn edge_values_match_u128_model() {
        for a in EDGES {
            for b in EDGES {
                let (x, y) = (Fp64::from_u64(a), Fp64::from_u64(b));
                let (ra, rb) = (a % P, b % P);
                assert_eq!((x + y).to_u64(), model_add(ra, rb), "{a} + {b}");
                assert_eq!((x - y).to_u64(), model_sub(ra, rb), "{a} - {b}");
                assert_eq!((x * y).to_u64(), model_mul(ra, rb), "{a} * {b}");
            }
        }
    }

    #[test]
    fn alias_pairs_are_equal() {
        // `x` and `x + p` name the same element, in every operation.
        for x in [0u64, 1, 2, 30, 58] {
            let (lo, hi) = (Fp64::from_u64(x), Fp64::from_u64(x + P));
            assert_eq!(lo, hi, "{x}");
            assert_eq!(hi.to_u64(), x);
            let y = Fp64::from_u64(0x0123_4567_89AB_CDEF);
            assert_eq!(lo * y, hi * y);
            assert_eq!(lo + y, hi + y);
        }
    }

    #[test]
    fn matches_u128_model_on_random_walk() {
        // Deterministic pseudo-random walk exercising all ops.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = Fp64::from_u64(1);
        let mut model = 1u64;
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = Fp64::from_u64(x);
            match i % 3 {
                0 => {
                    acc += v;
                    model = model_add(model, x % P);
                }
                1 => {
                    acc -= v;
                    model = model_sub(model, x % P);
                }
                _ => {
                    acc *= v;
                    model = model_mul(model, x % P);
                }
            }
            assert_eq!(acc.to_u64(), model, "step {i}");
        }
    }

    #[test]
    fn add_overflow_paths() {
        let max = Fp64::from_u64(P - 1);
        // (p-1) + (p-1) = 2p - 2 ≡ p - 2, exercises the u64-overflow branch.
        assert_eq!((max + max).to_u64(), P - 2);
        assert_eq!((max + Fp64::ONE).to_u64(), 0);
        let a = Fp64::from_u64(P - 30);
        let b = Fp64::from_u64(40);
        assert_eq!((a + b).to_u64(), 10);
    }

    #[test]
    fn sub_borrow_path() {
        assert_eq!((Fp64::ZERO - Fp64::ONE).to_u64(), P - 1);
        assert_eq!((Fp64::ONE - Fp64::ZERO).to_u64(), 1);
    }

    #[test]
    fn mul_known_values() {
        // (p-1)^2 = p^2 - 2p + 1 ≡ 1 (mod p)
        let max = Fp64::from_u64(P - 1);
        assert_eq!(max * max, Fp64::ONE);
        assert_eq!(
            (Fp64::from_u64(1 << 32) * Fp64::from_u64(1 << 32)).to_u64(),
            // 2^64 mod p = 59
            59
        );
    }

    #[test]
    fn inverse_roundtrip() {
        for v in [1u64, 2, 59, P - 1, u64::MAX - 60, 0x1234_5678_9ABC_DEF0] {
            let x = Fp64::from_u64(v);
            assert_eq!(x * x.inv(), Fp64::ONE);
            assert_eq!(model_mul(x.inv().to_u64(), v % P), 1, "{v}");
        }
    }

    #[test]
    fn aliasing_of_wide_identifiers() {
        // The 59 identifiers in [p, 2^64) alias onto [0, 59).
        assert_eq!(Fp64::from_u64(u64::MAX).to_u64(), 58);
        assert_eq!(Fp64::from_u64(P).to_u64(), 0);
    }

    #[test]
    fn debug_prints_the_value() {
        assert_eq!(format!("{:?}", Fp64::from_u64(7)), "Fp64(7)");
        assert_eq!(format!("{}", Fp64::ONE), "1");
    }
}
