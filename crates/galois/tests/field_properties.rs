//! Property-based tests of the field axioms and polynomial identities for
//! every field width the quACK supports.

use proptest::prelude::*;
use sidecar_galois::poly::{deflate_monic, eval_monic, Poly};
use sidecar_galois::{
    field::batch_invert, power_sums_to_coefficients, Field, Fp16, Fp24, Fp32, Fp64, P64,
};

/// Generates the field-axiom property suite for one field type, over
/// identifiers drawn from `$any` (`$nonzero` for the inverse property).
macro_rules! field_axioms {
    ($modname:ident, $f:ty) => {
        field_axioms!($modname, $f, any::<u64>(), 1u64..u64::MAX);
    };
    ($modname:ident, $f:ty, $any:expr, $nonzero:expr) => {
        mod $modname {
            use super::*;

            proptest! {
                #[test]
                fn add_commutative(a in $any, b in $any) {
                    let (a, b) = (<$f>::from_u64(a), <$f>::from_u64(b));
                    prop_assert_eq!(a + b, b + a);
                }

                #[test]
                fn add_associative(a in $any, b in $any, c in $any) {
                    let (a, b, c) = (<$f>::from_u64(a), <$f>::from_u64(b), <$f>::from_u64(c));
                    prop_assert_eq!((a + b) + c, a + (b + c));
                }

                #[test]
                fn mul_commutative(a in $any, b in $any) {
                    let (a, b) = (<$f>::from_u64(a), <$f>::from_u64(b));
                    prop_assert_eq!(a * b, b * a);
                }

                #[test]
                fn mul_associative(a in $any, b in $any, c in $any) {
                    let (a, b, c) = (<$f>::from_u64(a), <$f>::from_u64(b), <$f>::from_u64(c));
                    prop_assert_eq!((a * b) * c, a * (b * c));
                }

                #[test]
                fn distributive(a in $any, b in $any, c in $any) {
                    let (a, b, c) = (<$f>::from_u64(a), <$f>::from_u64(b), <$f>::from_u64(c));
                    prop_assert_eq!(a * (b + c), a * b + a * c);
                }

                #[test]
                fn sub_is_add_neg(a in $any, b in $any) {
                    let (a, b) = (<$f>::from_u64(a), <$f>::from_u64(b));
                    prop_assert_eq!(a - b, a + (-b));
                    prop_assert_eq!((a - b) + b, a);
                }

                #[test]
                fn inverse_is_inverse(a in $nonzero) {
                    let a = <$f>::from_u64(a);
                    if !a.is_zero() {
                        prop_assert_eq!(a * a.inv(), <$f>::ONE);
                        prop_assert_eq!(a.inv().inv(), a);
                    }
                }

                #[test]
                fn pow_adds_exponents(a in $any, e1 in 0u64..64, e2 in 0u64..64) {
                    let a = <$f>::from_u64(a);
                    prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
                }

                #[test]
                fn reduction_is_canonical(a in $any) {
                    let x = <$f>::from_u64(a);
                    prop_assert!(x.to_u64() < <$f>::MODULUS);
                    prop_assert_eq!(<$f>::from_u64(x.to_u64()), x);
                    prop_assert_eq!(<$f>::from_u64(a % <$f>::MODULUS), x);
                }
            }
        }
    };
}

field_axioms!(fp16_axioms, Fp16);
field_axioms!(fp24_axioms, Fp24);
field_axioms!(fp32_axioms, Fp32);
field_axioms!(fp64_axioms, Fp64);
field_axioms!(monty64_axioms, Fp64, montgomery_edges(), montgomery_edges());

/// `x^e mod p` by square-and-multiply on `u128` remainders.
fn model_pow(x: u64, mut e: u64) -> u64 {
    let p = P64 as u128;
    let mut acc = 1u128;
    let mut x = x as u128 % p;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * x % p;
        }
        x = x * x % p;
        e >>= 1;
    }
    acc as u64
}

/// Identifiers whose Montgomery representative `a·2^64 mod p` sits at the
/// edges of `[0, p)`, where a reduction's carry and final subtraction
/// decide the result, mixed with arbitrary identifiers.
fn montgomery_edges() -> impl Strategy<Value = u64> {
    let p = P64 as u128;
    // 2^64 ≡ 59 (mod p), so the identifier with representative `k` is
    // `k · 59^{-1} mod p`.
    let r_inv = model_pow(59, P64 - 2) as u128;
    let with_repr = move |k: u64| (k as u128 * r_inv % p) as u64;
    prop_oneof![
        any::<u64>(),
        (0u64..64).prop_map(with_repr),
        (1u64..64).prop_map(move |k| with_repr(P64 - k)),
        (0u64..64).prop_map(move |k| with_repr((1 << 63) + k)),
    ]
}

proptest! {
    /// Montgomery-form `Fp64` computes what plain `u128` remainders do.
    #[test]
    fn fp64_matches_u128_model(a in any::<u64>(), b in any::<u64>()) {
        let p = P64 as u128;
        let (ra, rb) = (a as u128 % p, b as u128 % p);
        let (x, y) = (Fp64::from_u64(a), Fp64::from_u64(b));
        prop_assert_eq!((x + y).to_u64() as u128, (ra + rb) % p);
        prop_assert_eq!((x - y).to_u64() as u128, (ra + p - rb) % p);
        prop_assert_eq!((x * y).to_u64() as u128, ra * rb % p);
    }

    /// The locator polynomial built from Newton's identities has exactly the
    /// multiset's elements as roots.
    #[test]
    fn newton_locator_roots(raw in proptest::collection::vec(any::<u64>(), 0..24)) {
        let roots: Vec<Fp32> = raw.iter().map(|&v| Fp32::from_u64(v)).collect();
        let m = roots.len();
        let sums: Vec<Fp32> = (1..=m as u64)
            .map(|i| roots.iter().map(|x| x.pow(i)).sum())
            .collect();
        let coeffs = power_sums_to_coefficients(&sums);
        let expected = Poly::from_roots(&roots);
        prop_assert_eq!(&coeffs[..], &expected.coeffs()[..m]);
    }

    /// Deflating a root then re-multiplying restores the original locator.
    #[test]
    fn deflate_then_remultiply(raw in proptest::collection::vec(any::<u64>(), 1..16), pick in any::<prop::sample::Index>()) {
        let roots: Vec<Fp32> = raw.iter().map(|&v| Fp32::from_u64(v)).collect();
        let chosen = roots[pick.index(roots.len())];
        let poly = Poly::from_roots(&roots);
        let mut coeffs = poly.coeffs()[..roots.len()].to_vec();
        let rem = deflate_monic(&mut coeffs, chosen);
        prop_assert_eq!(rem, Fp32::ZERO);
        // Multiply the quotient back by (x - chosen) and compare.
        let mut quotient_full = coeffs.clone();
        quotient_full.push(Fp32::ONE);
        let q = Poly::from_coeffs(quotient_full);
        let back = q.mul(&Poly::from_roots(&[chosen]));
        prop_assert_eq!(back, poly);
    }

    /// Horner evaluation of the monic representation agrees with full
    /// polynomial evaluation everywhere, not only at roots.
    #[test]
    fn monic_eval_agrees(raw in proptest::collection::vec(any::<u64>(), 0..12), x in any::<u64>()) {
        let roots: Vec<Fp64> = raw.iter().map(|&v| Fp64::from_u64(v)).collect();
        let poly = Poly::from_roots(&roots);
        let non_leading = &poly.coeffs()[..roots.len()];
        prop_assert_eq!(
            eval_monic(non_leading, Fp64::from_u64(x)),
            poly.eval(Fp64::from_u64(x))
        );
    }

    /// Batch inversion matches element-wise inversion, zeros preserved.
    #[test]
    fn batch_invert_matches(raw in proptest::collection::vec(any::<u64>(), 0..64)) {
        let values: Vec<Fp24> = raw.iter().map(|&v| Fp24::from_u64(v)).collect();
        let mut batch = values.clone();
        batch_invert(&mut batch);
        for (orig, inv) in values.iter().zip(batch) {
            if orig.is_zero() {
                prop_assert_eq!(inv, Fp24::ZERO);
            } else {
                prop_assert_eq!(inv, orig.inv());
            }
        }
    }
}

mod factor_properties {
    use super::*;
    use sidecar_galois::factor::{find_roots, total_root_multiplicity};
    use sidecar_galois::power_sums_to_coefficients;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The Cantor–Zassenhaus root finder recovers every multiset of
        /// roots exactly, multiplicities included, across field widths.
        #[test]
        fn find_roots_recovers_arbitrary_multisets(raw in proptest::collection::vec(any::<u64>(), 0..24)) {
            fn check<F: Field>(raw: &[u64]) {
                let roots: Vec<F> = raw.iter().map(|&v| F::from_u64(v)).collect();
                let sums: Vec<F> = (1..=roots.len() as u64)
                    .map(|i| roots.iter().map(|x| x.pow(i)).sum())
                    .collect();
                let coeffs = power_sums_to_coefficients(&sums);
                let found = find_roots(&coeffs);
                assert_eq!(total_root_multiplicity(&found), roots.len());
                let mut expected: std::collections::BTreeMap<u64, usize> = Default::default();
                for r in &roots {
                    *expected.entry(r.to_u64()).or_default() += 1;
                }
                let got: std::collections::BTreeMap<u64, usize> =
                    found.into_iter().map(|(r, m)| (r.to_u64(), m)).collect();
                assert_eq!(got, expected);
            }
            check::<Fp16>(&raw);
            check::<Fp32>(&raw);
            check::<Fp64>(&raw);
        }
    }
}
