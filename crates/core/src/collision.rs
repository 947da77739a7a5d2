//! Collision / indeterminacy probability (paper §4.2, Table 3).
//!
//! "The collision probability is the probability that a randomly-chosen
//! b-bit identifier in a list of n packets maps to more than one packet in
//! that list. … If we assume that identifiers are randomly-distributed,
//! which is the case in randomly-encrypted QUIC packet headers, this
//! probability is equal to `1 − (1 − 1/2^b)^(n−1)`."
//!
//! Table 3 (n = 1000):
//!
//! | bits | 8    | 16    | 24      | 32      |
//! |------|------|-------|---------|---------|
//! | prob | 0.98 | 0.015 | 6.0e-05 | 2.3e-07 |

/// Probability that a randomly-chosen `b`-bit identifier among `n` packets
/// collides with at least one other packet's identifier: `1 − (1 −
/// 2^{−b})^{n−1}`.
///
/// Computed via `ln(1 − x)` so the tiny-probability regime (e.g. `b = 64`)
/// does not underflow to zero prematurely.
pub fn collision_probability(bits: u32, n: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let q = 0.5f64.powi(bits as i32); // 1 / 2^b
    -((n - 1) as f64 * (-q).ln_1p()).exp_m1()
}

/// The paper's headline indeterminacy figure, as a percentage: with
/// `b = 32` and `n = 1000`, "0.000023% chance that a candidate packet has an
/// indeterminate result" (§1, §4).
pub fn collision_percentage(bits: u32, n: u64) -> f64 {
    collision_probability(bits, n) * 100.0
}

/// Expected number of log entries involved in at least one collision, out
/// of `n`: `n · collision_probability(b, n)`. Useful when sizing reorder
/// buffers for indeterminate packets.
pub fn expected_colliding_packets(bits: u32, n: u64) -> f64 {
    n as f64 * collision_probability(bits, n)
}

/// Monte-Carlo estimate of the collision probability using a caller-seeded
/// pseudo-random stream (deterministic; no external RNG dependency).
///
/// Draws `n` identifiers uniformly from `[0, 2^bits)` per trial and checks
/// whether the first one collides with any other — matching the "randomly
/// chosen identifier" framing. Used by tests and the Table 3 harness to
/// validate the closed form.
pub fn collision_probability_monte_carlo(bits: u32, n: u64, trials: u64, seed: u64) -> f64 {
    assert!(bits <= 64 && n >= 1);
    let mut rng = SplitMix64::new(seed);
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let mut hits = 0u64;
    for _ in 0..trials {
        let probe = rng.next() & mask;
        let mut collided = false;
        for _ in 1..n {
            if rng.next() & mask == probe {
                collided = true;
                // Keep drawing to keep the stream length fixed per trial?
                // Not required for correctness; break for speed.
                break;
            }
        }
        hits += collided as u64;
    }
    hits as f64 / trials as f64
}

/// SplitMix64: a tiny, high-quality, dependency-free PRNG (public domain,
/// Steele et al.). Also reused by the identifier generator in [`crate::id`].
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly pseudo-random bits.
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: not an Iterator
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3 of the paper, to the printed precision.
    #[test]
    fn table3_values() {
        let cases = [(8u32, 0.98), (16, 0.015), (24, 6.0e-05), (32, 2.3e-07)];
        for (bits, expected) in cases {
            let p = collision_probability(bits, 1000);
            let rel = (p - expected).abs() / expected;
            assert!(rel < 0.05, "b={bits}: got {p:e}, paper {expected:e}");
        }
    }

    #[test]
    fn headline_percentage() {
        // §1: "0.000023% chance that a candidate packet has an indeterminate
        // result" at b=32, n=1000.
        let pct = collision_percentage(32, 1000);
        assert!((pct - 2.3e-05).abs() / 2.3e-05 < 0.02, "{pct:e}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(collision_probability(32, 0), 0.0);
        assert_eq!(collision_probability(32, 1), 0.0);
        assert!(collision_probability(1, 1000) > 0.999999);
        // The exponent is n − 1, the other n − 1 packets: exact in f64 at
        // small n, where n in its place would read 0.75 and 0.578.
        assert_eq!(collision_probability(1, 2), 0.5);
        assert_eq!(collision_probability(2, 3), 0.4375);
        // 64-bit: tiny but strictly positive (no underflow to zero).
        let p64 = collision_probability(64, 1000);
        assert!(p64 > 0.0 && p64 < 1e-15);
    }

    #[test]
    fn monotone_in_n_and_bits() {
        assert!(collision_probability(16, 2000) > collision_probability(16, 1000));
        assert!(collision_probability(16, 1000) > collision_probability(24, 1000));
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        // b = 8, n = 50: p = 1 - (1 - 1/256)^49 ≈ 0.175. 20k trials gives
        // ~±0.008 at 3σ.
        let analytic = collision_probability(8, 50);
        let mc = collision_probability_monte_carlo(8, 50, 20_000, 0xC0FFEE);
        assert!(
            (mc - analytic).abs() < 0.01,
            "analytic {analytic}, monte carlo {mc}"
        );
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next(), c.next());
    }
}
