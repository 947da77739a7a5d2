//! Property-based equivalence of the batched hot path against the scalar
//! reference semantics:
//!
//! * `insert_batch` / `remove_batch` must be extensionally equal to the
//!   corresponding sequence of scalar `insert` / `remove` calls, for every
//!   field width, batch chunking, and count wraparound state;
//! * a difference whose sender side was built by `insert_batch` decodes to
//!   the mask it was built from (success *and* error paths).

use proptest::prelude::*;
use sidecar_galois::{Field, Fp16, Fp24, Fp32, Fp64, Monty64};
use sidecar_quack::{DecodeError, PowerSumQuack};

/// Applies `ids` one at a time (the scalar reference) and in `chunk`-sized
/// batches, and asserts the two sketches are identical — sums, count, and
/// last-value metadata.
fn check_batch_equivalence<F: Field>(
    ids: &[u64],
    threshold: usize,
    chunk: usize,
    start_count: u32,
) -> Result<(), TestCaseError> {
    let base = PowerSumQuack::<F>::from_parts(vec![0; threshold], start_count);

    let mut scalar = base.clone();
    for &id in ids {
        scalar.insert(id);
    }
    let mut batched = base.clone();
    for piece in ids.chunks(chunk) {
        batched.insert_batch(piece);
    }
    prop_assert_eq!(&scalar, &batched, "insert_batch diverged from insert");

    // Removal: drain what we inserted; both paths must cancel back to the
    // starting sketch (count included — removal wraps the other way).
    let mut scalar_rm = scalar.clone();
    for &id in ids {
        scalar_rm.remove(id);
    }
    let mut batched_rm = batched.clone();
    for piece in ids.chunks(chunk) {
        batched_rm.remove_batch(piece);
    }
    prop_assert_eq!(
        scalar_rm.power_sums().collect::<Vec<_>>(),
        batched_rm.power_sums().collect::<Vec<_>>(),
        "remove_batch diverged from remove"
    );
    prop_assert_eq!(scalar_rm.count(), batched_rm.count());
    prop_assert_eq!(
        scalar_rm.power_sums().collect::<Vec<_>>(),
        base.power_sums().collect::<Vec<_>>(),
        "removal failed to cancel insertion"
    );
    prop_assert_eq!(scalar_rm.count(), start_count);
    Ok(())
}

/// Decodes a batch-built difference and checks it against the mask: the
/// dropped count (or the threshold error), no residual, and every
/// definitively-missing index genuinely dropped.
fn check_decode_against_mask<F: Field>(
    sent: &[u64],
    mask: &[bool],
    threshold: usize,
) -> Result<(), TestCaseError> {
    let mut sender = PowerSumQuack::<F>::new(threshold);
    sender.insert_batch(sent);
    let mut receiver = PowerSumQuack::<F>::new(threshold);
    for (&id, &keep) in sent.iter().zip(mask) {
        if keep {
            receiver.insert(id);
        }
    }
    let dropped = mask.iter().filter(|&&keep| !keep).count();
    match sender.difference(&receiver).decode_with_log(sent) {
        Ok(decoded) => {
            prop_assert_eq!(decoded.num_missing(), dropped);
            prop_assert_eq!(decoded.residual(), 0);
            prop_assert!(decoded.missing().iter().all(|&i| !mask[i]));
        }
        Err(e) => prop_assert_eq!(
            e,
            DecodeError::ThresholdExceeded {
                missing: dropped,
                threshold
            }
        ),
    }
    Ok(())
}

fn ids_chunk_threshold() -> impl Strategy<Value = (Vec<u64>, usize, usize)> {
    (
        proptest::collection::vec(any::<u64>(), 0..200),
        1usize..70,
        1usize..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn insert_batch_equals_insert_fp16((ids, chunk, t) in ids_chunk_threshold()) {
        check_batch_equivalence::<Fp16>(&ids, t, chunk, 0)?;
    }

    #[test]
    fn insert_batch_equals_insert_fp24((ids, chunk, t) in ids_chunk_threshold()) {
        check_batch_equivalence::<Fp24>(&ids, t, chunk, 0)?;
    }

    #[test]
    fn insert_batch_equals_insert_fp32((ids, chunk, t) in ids_chunk_threshold()) {
        check_batch_equivalence::<Fp32>(&ids, t, chunk, 0)?;
    }

    #[test]
    fn insert_batch_equals_insert_fp64((ids, chunk, t) in ids_chunk_threshold()) {
        check_batch_equivalence::<Fp64>(&ids, t, chunk, 0)?;
    }

    #[test]
    fn insert_batch_equals_insert_monty64((ids, chunk, t) in ids_chunk_threshold()) {
        check_batch_equivalence::<Monty64>(&ids, t, chunk, 0)?;
    }

    /// The packet counter is a wrapping u32; batch insertion near the wrap
    /// boundary must wrap exactly like repeated scalar insertion.
    #[test]
    fn batch_count_wraparound((ids, chunk, t) in ids_chunk_threshold(),
                              offset in 0u32..200) {
        let start = u32::MAX - offset % 100;
        check_batch_equivalence::<Fp32>(&ids, t, chunk, start)?;
        check_batch_equivalence::<Fp64>(&ids, t, chunk, start)?;
    }

    #[test]
    fn parallel_and_pooled_decode_equal_serial_fp32(
        (sent, mask) in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..120)
            .prop_map(|pairs| pairs.into_iter().unzip::<u64, bool, Vec<_>, Vec<_>>()),
        t in 1usize..30,
    ) {
        check_decode_against_mask::<Fp32>(&sent, &mask, t)?;
    }

    #[test]
    fn parallel_and_pooled_decode_equal_serial_fp64(
        (sent, mask) in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..120)
            .prop_map(|pairs| pairs.into_iter().unzip::<u64, bool, Vec<_>, Vec<_>>()),
        t in 1usize..30,
    ) {
        check_decode_against_mask::<Fp64>(&sent, &mask, t)?;
    }

    /// Aliasing-heavy width: 16-bit identifiers collide often, exercising
    /// the indeterminate-group paths.
    #[test]
    fn parallel_and_pooled_decode_equal_serial_fp16(
        (sent, mask) in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..80)
            .prop_map(|pairs| pairs.into_iter().unzip::<u64, bool, Vec<_>, Vec<_>>()),
        t in 1usize..40,
    ) {
        check_decode_against_mask::<Fp16>(&sent, &mask, t)?;
    }
}

/// A deterministic paper-scale case (n = 3000, t = 20, 64-bit ids).
#[test]
fn parallel_decode_equal_serial_above_cutoff() {
    let n = 3000usize;
    let t = 20usize;
    let ids: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) | 1)
        .collect();
    let mut sender = PowerSumQuack::<Fp64>::new(t);
    sender.insert_batch(&ids);
    let mut receiver = PowerSumQuack::<Fp64>::new(t);
    for (i, &id) in ids.iter().enumerate() {
        if i % (n / t) != 0 {
            receiver.insert(id);
        }
    }
    let decoded = sender.difference(&receiver).decode_with_log(&ids).unwrap();
    let dropped: Vec<usize> = (0..n).step_by(n / t).collect();
    assert_eq!(decoded.missing(), dropped);
    assert_eq!(decoded.num_missing(), t);
}
