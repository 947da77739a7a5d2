//! The [`Field`] trait: the interface every quACK modulus implements.

use core::fmt::Debug;
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of a prime field `F_p` where `p` is the largest prime below
/// `2^b` for some identifier width `b` (paper §3.2).
///
/// All quACK machinery — power-sum accumulation, Newton's identities, and
/// polynomial root finding — is generic over this trait, so a sidecar can
/// negotiate the identifier width `b` (paper §3.2 parameter 2) without
/// touching the sketch logic.
///
/// Implementations are plain `Copy` newtypes over the matching unsigned
/// integer; arithmetic is total (wrapping around the modulus), and `inv`
/// panics only on zero, which callers guard against.
pub trait Field:
    Copy
    + Clone
    + Eq
    + PartialEq
    + Hash
    + Debug
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
{
    /// The field modulus `p`.
    const MODULUS: u64;

    /// The identifier width `b` in bits; `MODULUS` is the largest prime
    /// below `2^BITS`.
    const BITS: u32;

    /// The additive identity.
    const ZERO: Self;

    /// The multiplicative identity.
    const ONE: Self;

    /// Embeds an integer into the field, reducing modulo `p`.
    ///
    /// Identifiers in `[p, 2^b)` alias with small residues; that aliasing is
    /// accounted for by the paper's collision probability (§4.2) and by the
    /// decoder's indeterminacy handling.
    fn from_u64(value: u64) -> Self;

    /// Returns the canonical representative in `[0, p)`.
    fn to_u64(self) -> u64;

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    fn inv(self) -> Self {
        self.checked_inv().expect("inverse of zero field element")
    }

    /// The multiplicative inverse, or `None` for zero.
    fn checked_inv(self) -> Option<Self> {
        if self == Self::ZERO {
            None
        } else {
            // Fermat: a^(p-2) = a^-1 for prime p.
            Some(self.pow(Self::MODULUS - 2))
        }
    }

    /// Exponentiation by square-and-multiply.
    fn pow(self, mut exp: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// Whether `self` is the additive identity.
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// `self - rhs` as a free function position helper (used by macros).
    #[inline]
    fn double(self) -> Self {
        self + self
    }

    /// Folds a batch of raw identifiers into running power sums:
    /// `sums[i] ± Σ_j ids[j]^(i+1)` (`+` when `negate` is false, `-` when
    /// true).
    ///
    /// Every field runs the lane-batched ladder in [`crate::batch`].
    /// Equivalent to folding each identifier individually — the batched
    /// paths only restructure the arithmetic.
    #[inline]
    fn fold_power_sums(sums: &mut [Self], ids: &[u64], negate: bool) {
        crate::batch::fold_power_sums_generic(sums, ids, negate);
    }
}

/// Inverts a slice of field elements in place using Montgomery's batch
/// inversion trick: `3(n-1)` multiplications plus a single inversion.
///
/// Zero elements are left as zero (they have no inverse); all other elements
/// are replaced by their inverses.
///
/// ```
/// use sidecar_galois::{field::batch_invert, Field, Fp32};
/// let mut xs = [Fp32::from_u64(2), Fp32::ZERO, Fp32::from_u64(123_456)];
/// batch_invert(&mut xs);
/// assert_eq!(xs[0] * Fp32::from_u64(2), Fp32::ONE);
/// assert_eq!(xs[1], Fp32::ZERO);
/// assert_eq!(xs[2] * Fp32::from_u64(123_456), Fp32::ONE);
/// ```
pub fn batch_invert<F: Field>(values: &mut [F]) {
    // Prefix products over the nonzero entries.
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = F::ONE;
    for &v in values.iter() {
        prefix.push(acc);
        if !v.is_zero() {
            acc *= v;
        }
    }
    let mut inv_acc = match acc.checked_inv() {
        Some(inv) => inv,
        // All entries zero.
        None => return,
    };
    for (v, pre) in values.iter_mut().zip(prefix).rev() {
        if v.is_zero() {
            continue;
        }
        let inv_v = inv_acc * pre;
        inv_acc *= *v;
        *v = inv_v;
    }
}

/// Implements the boilerplate operator traits for a prime-field newtype.
///
/// The newtype must provide inherent `const fn raw_add`, `raw_sub`, `raw_mul`
/// (canonical-representative arithmetic) plus `raw_from_u64`/`raw_to_u64`.
macro_rules! impl_field_ops {
    ($ty:ident) => {
        impl core::ops::Add for $ty {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.raw_add(rhs)
            }
        }
        impl core::ops::Sub for $ty {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.raw_sub(rhs)
            }
        }
        impl core::ops::Mul for $ty {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                self.raw_mul(rhs)
            }
        }
        impl core::ops::Neg for $ty {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self::raw_zero().raw_sub(self)
            }
        }
        impl core::ops::AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = self.raw_add(rhs);
            }
        }
        impl core::ops::SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = self.raw_sub(rhs);
            }
        }
        impl core::ops::MulAssign for $ty {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = self.raw_mul(rhs);
            }
        }
        impl core::iter::Sum for $ty {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::raw_zero(), |a, b| a + b)
            }
        }
        impl core::iter::Product for $ty {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::raw_one(), |a, b| a * b)
            }
        }
        impl core::fmt::Display for $ty {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{}", <$ty as $crate::Field>::to_u64(*self))
            }
        }
        impl From<u64> for $ty {
            #[inline]
            fn from(v: u64) -> Self {
                <$ty as $crate::Field>::from_u64(v)
            }
        }
    };
}
pub(crate) use impl_field_ops;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fp16, Fp32};

    #[test]
    fn batch_invert_empty_and_all_zero() {
        let mut empty: [Fp32; 0] = [];
        batch_invert(&mut empty);
        let mut zeros = [Fp32::ZERO; 4];
        batch_invert(&mut zeros);
        assert_eq!(zeros, [Fp32::ZERO; 4]);
    }

    #[test]
    fn batch_invert_matches_single_inversion() {
        let values: Vec<Fp16> = (1..200u64).map(Fp16::from_u64).collect();
        let mut batch = values.clone();
        batch_invert(&mut batch);
        for (orig, inv) in values.iter().zip(batch) {
            assert_eq!(inv, orig.inv());
        }
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(Fp32::from_u64(5).pow(0), Fp32::ONE);
        assert_eq!(Fp32::ZERO.pow(0), Fp32::ONE); // convention 0^0 = 1
        assert_eq!(Fp32::ZERO.pow(5), Fp32::ZERO);
        assert_eq!(Fp32::from_u64(2).pow(10), Fp32::from_u64(1024));
    }

    #[test]
    fn fermat_inverse() {
        for v in [1u64, 2, 3, 65_520, 12_345] {
            let x = Fp16::from_u64(v);
            assert_eq!(x * x.inv(), Fp16::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_has_no_inverse() {
        let _ = Fp32::ZERO.inv();
    }
}
