//! Property tests tying the Table 2 baselines to the power-sum quACK: the
//! strawmen must describe the same multisets the quACK decodes.

use proptest::prelude::*;
use sidecar_bench::baselines::strawman::{EchoQuack, HashQuack};
use sidecar_galois::{Field, Fp64};
use sidecar_quack::PowerSumQuack;

/// Strategy: a sent list plus a subset mask choosing which were received.
fn sent_and_received(max_len: usize) -> impl Strategy<Value = (Vec<u64>, Vec<bool>)> {
    proptest::collection::vec((any::<u64>(), any::<bool>()), 0..max_len)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Strawman 1 and the power-sum quACK agree on the missing multiset
    /// (in field-image space) whenever the power-sum decode is determinate.
    #[test]
    fn strawman1_agrees_with_power_sums((sent, mask) in sent_and_received(40)) {
        let received: Vec<u64> = sent.iter().zip(&mask).filter(|(_, &r)| r).map(|(&s, _)| s).collect();
        let num_missing = sent.len() - received.len();
        prop_assume!(num_missing <= 20);

        let mut echo = EchoQuack::new(64);
        for &id in &received {
            echo.insert(id);
        }
        let echo_missing = {
            let mut v = echo.decode_missing(&sent);
            v.sort_unstable();
            v
        };

        let mut sender = PowerSumQuack::<Fp64>::new(20);
        let mut recv = PowerSumQuack::<Fp64>::new(20);
        for &id in &sent {
            sender.insert(id);
        }
        for &id in &received {
            recv.insert(id);
        }
        let decoded = sender.decode_against(&recv, &sent).unwrap();
        if decoded.is_fully_determined() {
            let mut ps_missing = decoded.missing_values(&sent);
            ps_missing.sort_unstable();
            // Compare reduced images (aliasing mod 2^64-59 is possible in
            // principle though vanishingly rare with random u64s).
            let reduce = |v: u64| Fp64::from_u64(v).to_u64();
            prop_assert_eq!(
                ps_missing.into_iter().map(reduce).collect::<Vec<_>>(),
                echo_missing.into_iter().map(reduce).collect::<Vec<_>>()
            );
        }
    }

    /// Strawman 2's digest is a faithful multiset fingerprint: digests agree
    /// iff the received multisets agree.
    #[test]
    fn strawman2_digest_multiset_semantics(a in proptest::collection::vec(any::<u64>(), 0..30),
                                           b in proptest::collection::vec(any::<u64>(), 0..30)) {
        let mut qa = HashQuack::new();
        let mut qb = HashQuack::new();
        for &id in &a {
            qa.insert(id);
        }
        for &id in &b {
            qb.insert(id);
        }
        let mut sa = a.clone();
        let mut sb = b.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        prop_assert_eq!(qa.digest() == qb.digest(), sa == sb);
    }
}
