//! Prime-field arithmetic and polynomial machinery for the quACK power-sum
//! sketch ([Sidecar, HotNets '22]).
//!
//! The quACK represents a multiset of `b`-bit packet identifiers by its first
//! `t` power sums modulo the largest prime `p < 2^b` (paper §3.2). Decoding
//! converts power-sum differences into the coefficients of an error-locator
//! polynomial via Newton's identities and then finds that polynomial's roots.
//! This crate provides everything below the sketch itself:
//!
//! * [`Field`] — a common interface over concrete prime fields.
//! * [`Fp16`], [`Fp24`], [`Fp32`], [`Fp64`] — fields for the identifier
//!   widths evaluated in the paper (16/24/32 bits) plus a 64-bit extension.
//!   Each width uses width-appropriate arithmetic, mirroring the paper's
//!   observation (§4.2) that "b determines which hardware instructions and,
//!   in the 16-bit case, pre-computation optimizations the arithmetic can
//!   use": [`Fp16`] multiplies through discrete exp/log tables, [`Fp24`] and
//!   [`Fp32`] through `u64` widening, and [`Fp64`] through `u128` widening
//!   and Montgomery reduction (its elements are stored in Montgomery form).
//! * [`batch`] — lane-batched power-sum accumulation and strength-reduced
//!   power ladders: the per-packet hot path behind
//!   [`Field::fold_power_sums`].
//! * [`poly`] — Horner evaluation, synthetic deflation, and dense polynomial
//!   helpers used by the decoder and its tests.
//! * [`newton`] — Newton's identities: power sums → elementary symmetric
//!   polynomial coefficients.
//! * [`prime`] — deterministic Miller–Rabin and `largest_prime_below`,
//!   used to validate the hard-coded moduli and to derive moduli for
//!   non-standard widths.
//!
//! [Sidecar, HotNets '22]: https://doi.org/10.1145/3563766.3564113

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod factor;
pub mod field;
pub mod newton;
pub mod poly;
pub mod prime;

mod fp16;
mod fp24;
mod fp32;
mod fp64;

pub use batch::{PowerTable, LANES};
pub use factor::find_roots;
pub use field::Field;
pub use fp16::{Fp16, Fp16Table};
pub use fp24::Fp24;
pub use fp32::Fp32;
pub use fp64::Fp64;
pub use newton::{power_sums_to_coefficients, NewtonWorkspace};
pub use poly::Poly;

/// The largest prime representable in 16 bits: `2^16 - 15`.
pub const P16: u64 = 65_521;
/// The largest prime representable in 24 bits: `2^24 - 3`.
pub const P24: u64 = 16_777_213;
/// The largest prime representable in 32 bits: `2^32 - 5`.
pub const P32: u64 = 4_294_967_291;
/// The largest prime representable in 64 bits: `2^64 - 59`.
pub const P64: u64 = 18_446_744_073_709_551_557;

/// Checks on [`Fp64`]'s stored Montgomery representative `a·2^64 mod p`,
/// beneath the values that its own tests compare.
#[cfg(test)]
mod monty {
    mod tests {
        use crate::{Field, Fp64, P64};

        /// `v·2^64 mod p` by `u128` remainders: `2^64 ≡ 59 (mod p)`.
        fn repr_of(v: u64) -> u64 {
            let p = P64 as u128;
            (v as u128 % p * 59 % p) as u64
        }

        #[test]
        fn inverse_roundtrip() {
            for v in [1u64, 2, 59, P64 - 1, u64::MAX - 60, 0x1234_5678_9ABC_DEF0] {
                let x = Fp64::from_u64(v);
                let inv = x.inv();
                assert_eq!(x.montgomery_repr(), repr_of(v), "{v}");
                assert_eq!(inv.montgomery_repr(), repr_of(inv.to_u64()), "{v}");
                let p = P64 as u128;
                assert_eq!(inv.to_u64() as u128 * (v as u128 % p) % p, 1, "{v}");
                // x · x^{-1} is stored as R mod p, the representative of one.
                assert_eq!((x * inv).montgomery_repr(), repr_of(1), "{v}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{is_prime, largest_prime_below};

    #[test]
    fn moduli_are_the_largest_primes_below_their_width() {
        assert_eq!(largest_prime_below(1 << 16), Some(P16));
        assert_eq!(largest_prime_below(1 << 24), Some(P24));
        assert_eq!(largest_prime_below(1 << 32), Some(P32));
        // 2^64 overflows `largest_prime_below`'s bound argument; check
        // primality of P64 and that everything above it is composite.
        assert!(is_prime(P64));
        let mut v = P64 + 1;
        loop {
            assert!(!is_prime(v), "{v} would be a larger 64-bit prime");
            if v == u64::MAX {
                break;
            }
            v += 1;
        }
    }
}
