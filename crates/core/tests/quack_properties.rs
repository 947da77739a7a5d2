//! Property-based tests of the quACK's end-to-end contract:
//! `decode(S + quACK(R)) == S \ R` whenever `|S \ R| <= t` (paper Fig. 2).

use proptest::prelude::*;
use sidecar_galois::{Field, Fp16, Fp32, Fp64};
use sidecar_quack::{DecodeError, PowerSumQuack, WireFormat};
use std::collections::HashMap;

/// Multiset difference of value lists (ground truth for comparisons).
fn multiset_difference(sent: &[u64], received: &[u64]) -> Vec<u64> {
    let mut counts: HashMap<u64, isize> = HashMap::new();
    for &r in received {
        *counts.entry(r).or_default() += 1;
    }
    let mut missing = Vec::new();
    for &s in sent {
        let c = counts.entry(s).or_default();
        if *c > 0 {
            *c -= 1;
        } else {
            missing.push(s);
        }
    }
    missing
}

/// Strategy: a sent list plus a subset mask choosing which were received.
fn sent_and_received(max_len: usize) -> impl Strategy<Value = (Vec<u64>, Vec<bool>)> {
    proptest::collection::vec((any::<u64>(), any::<bool>()), 0..max_len)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

fn check_decode_matches_ground_truth<F: Field>(
    sent: &[u64],
    received_mask: &[bool],
    threshold: usize,
) -> Result<(), TestCaseError> {
    let received: Vec<u64> = sent
        .iter()
        .zip(received_mask)
        .filter(|(_, &r)| r)
        .map(|(&s, _)| s)
        .collect();
    let mut sender = PowerSumQuack::<F>::new(threshold);
    let mut recv = PowerSumQuack::<F>::new(threshold);
    for &id in sent {
        sender.insert(id);
    }
    for &id in &received {
        recv.insert(id);
    }
    let num_missing = sent.len() - received.len();
    let result = sender.decode_against(&recv, sent);
    if num_missing > threshold {
        prop_assert_eq!(
            result.unwrap_err(),
            DecodeError::ThresholdExceeded {
                missing: num_missing,
                threshold
            }
        );
        return Ok(());
    }
    let decoded = result.unwrap();
    prop_assert_eq!(decoded.num_missing(), num_missing);
    prop_assert_eq!(decoded.residual(), 0);

    // Ground truth *in field-image space*: identifiers that alias mod p are
    // indistinguishable to the sketch, so compare reduced values.
    let reduce = |v: &u64| F::from_u64(*v).to_u64();
    let sent_f: Vec<u64> = sent.iter().map(reduce).collect();
    let recv_f: Vec<u64> = received.iter().map(reduce).collect();
    let mut expected_missing = multiset_difference(&sent_f, &recv_f);
    expected_missing.sort_unstable();

    // Decoded: definite missing + indeterminate must cover expected missing;
    // every definite missing must be genuinely missing.
    let mut definite: Vec<u64> = decoded
        .missing()
        .iter()
        .map(|&i| reduce(&sent[i]))
        .collect();
    definite.sort_unstable();
    // Each definite-missing value appears in expected_missing with at least
    // that multiplicity (indeed exactly — definite means all candidates
    // missing).
    let mut exp_counts: HashMap<u64, usize> = HashMap::new();
    for v in &expected_missing {
        *exp_counts.entry(*v).or_default() += 1;
    }
    let mut def_counts: HashMap<u64, usize> = HashMap::new();
    for v in &definite {
        *def_counts.entry(*v).or_default() += 1;
    }
    for (v, c) in &def_counts {
        prop_assert!(
            exp_counts.get(v).copied().unwrap_or(0) >= *c,
            "value {v} declared missing more often than it is"
        );
    }
    // Missing mass is fully explained by definite + indeterminate groups.
    let indeterminate_values: std::collections::HashSet<u64> = decoded
        .indeterminate()
        .iter()
        .map(|&i| reduce(&sent[i]))
        .collect();
    for (v, c) in exp_counts {
        let covered = def_counts.get(&v).copied().unwrap_or(0);
        prop_assert!(
            covered == c || indeterminate_values.contains(&v),
            "missing value {v} (x{c}) neither definitively decoded nor indeterminate"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decode_matches_ground_truth_fp32((sent, mask) in sent_and_received(60)) {
        check_decode_matches_ground_truth::<Fp32>(&sent, &mask, 20)?;
    }

    #[test]
    fn decode_matches_ground_truth_fp64((sent, mask) in sent_and_received(60)) {
        check_decode_matches_ground_truth::<Fp64>(&sent, &mask, 20)?;
    }

    /// 16-bit fields force frequent aliasing, stressing the indeterminate
    /// classification.
    #[test]
    fn decode_matches_ground_truth_fp16((sent, mask) in sent_and_received(40)) {
        check_decode_matches_ground_truth::<Fp16>(&sent, &mask, 40)?;
    }

    /// Insertion order never affects the sketch.
    #[test]
    fn quack_is_order_independent(ids in proptest::collection::vec(any::<u64>(), 1..50), seed in any::<u64>()) {
        let mut a = PowerSumQuack::<Fp32>::new(10);
        for &id in &ids {
            a.insert(id);
        }
        // Deterministic shuffle.
        let mut shuffled = ids.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut b = PowerSumQuack::<Fp32>::new(10);
        for &id in &shuffled {
            b.insert(id);
        }
        prop_assert_eq!(a.power_sums().collect::<Vec<_>>(), b.power_sums().collect::<Vec<_>>());
        prop_assert_eq!(a.count(), b.count());
    }

    /// remove() always cancels insert(), regardless of interleaving.
    #[test]
    fn remove_cancels_insert(keep in proptest::collection::vec(any::<u64>(), 0..20),
                             churn in proptest::collection::vec(any::<u64>(), 0..20)) {
        let mut q = PowerSumQuack::<Fp32>::new(5);
        for &id in &keep {
            q.insert(id);
        }
        for &id in &churn {
            q.insert(id);
        }
        for &id in &churn {
            q.remove(id);
        }
        let mut reference = PowerSumQuack::<Fp32>::new(5);
        for &id in &keep {
            reference.insert(id);
        }
        prop_assert_eq!(q.power_sums().collect::<Vec<_>>(), reference.power_sums().collect::<Vec<_>>());
        prop_assert_eq!(q.count(), reference.count());
    }

    /// Wire roundtrip preserves sums and (masked) count for every width.
    #[test]
    fn wire_roundtrip(ids in proptest::collection::vec(any::<u64>(), 0..64),
                      threshold in 1usize..32,
                      count_bits in 1u32..33) {
        let mut q = PowerSumQuack::<Fp32>::new(threshold);
        for &id in &ids {
            q.insert(id);
        }
        let fmt = WireFormat { id_bits: 32, threshold, count_bits };
        let bytes = fmt.encode(&q);
        prop_assert_eq!(bytes.len(), fmt.encoded_bytes());
        let back: PowerSumQuack<Fp32> = fmt.decode(&bytes, None).unwrap();
        prop_assert_eq!(back.power_sums().collect::<Vec<_>>(), q.power_sums().collect::<Vec<_>>());
        let mask = if count_bits >= 32 { u32::MAX } else { (1u32 << count_bits) - 1 };
        prop_assert_eq!(back.count(), q.count() & mask);
    }

    /// The candidate-plugging and polynomial-factoring decoders agree on
    /// every decodable input (missing, indeterminate, residual — all of it).
    #[test]
    fn factoring_decoder_equals_plugging_decoder((sent, mask) in sent_and_received(50)) {
        let received: Vec<u64> = sent.iter().zip(&mask).filter(|(_, &r)| r).map(|(&s, _)| s).collect();
        prop_assume!(sent.len() - received.len() <= 20);
        let mut sender = PowerSumQuack::<Fp32>::new(20);
        let mut recv = PowerSumQuack::<Fp32>::new(20);
        for &id in &sent {
            sender.insert(id);
        }
        for &id in &received {
            recv.insert(id);
        }
        let diff = sender.difference(&recv);
        prop_assert_eq!(
            diff.decode_with_log(&sent).unwrap(),
            diff.decode_with_log_by_factoring(&sent).unwrap()
        );
    }

    /// Same agreement under the aliasing-heavy 16-bit field.
    #[test]
    fn factoring_decoder_equals_plugging_decoder_fp16((sent, mask) in sent_and_received(40)) {
        let received: Vec<u64> = sent.iter().zip(&mask).filter(|(_, &r)| r).map(|(&s, _)| s).collect();
        prop_assume!(sent.len() - received.len() <= 40);
        let mut sender = PowerSumQuack::<Fp16>::new(40);
        let mut recv = PowerSumQuack::<Fp16>::new(40);
        for &id in &sent {
            sender.insert(id);
        }
        for &id in &received {
            recv.insert(id);
        }
        let diff = sender.difference(&recv);
        prop_assert_eq!(
            diff.decode_with_log(&sent).unwrap(),
            diff.decode_with_log_by_factoring(&sent).unwrap()
        );
    }
}

mod more_properties {
    use super::*;
    use sidecar_quack::sha256::Sha256;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Incremental SHA-256 equals one-shot for any chunking.
        #[test]
        fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                             cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6)) {
            let oneshot = Sha256::digest(&data);
            let mut offsets: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            offsets.push(0);
            offsets.push(data.len());
            offsets.sort_unstable();
            let mut h = Sha256::new();
            for pair in offsets.windows(2) {
                h.update(&data[pair[0]..pair[1]]);
            }
            prop_assert_eq!(h.finalize(), oneshot);
        }
    }
}
