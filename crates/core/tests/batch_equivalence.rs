//! Property-based equivalence of the batched hot path against the scalar
//! reference semantics:
//!
//! * `insert_batch` / `remove_batch` must be extensionally equal to the
//!   corresponding sequence of scalar `insert` / `remove` calls, for every
//!   field width, batch chunking, and count wraparound state;
//! * a difference whose sender side was built by `insert_batch` decodes to
//!   the mask it was built from (success *and* error paths);
//! * the lane-batched plugging decoder, and the factoring decoder that
//!   shares its root bookkeeping, return exactly what the hash-map decoder
//!   they replaced returns ([`reference_decode`], kept here as the
//!   reference model) on logs full of duplicates, aliases and pruned roots.

use proptest::prelude::*;
use sidecar_galois::poly::{deflate_monic, eval_monic};
use sidecar_galois::{Field, Fp16, Fp24, Fp32, Fp64, NewtonWorkspace};
use sidecar_quack::{DecodeError, DecodedQuack, PowerSumQuack};
use std::collections::HashMap;

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

/// A [`DecodedQuack`] spelled out field by field, so the reference model
/// can build one.
#[derive(Debug, PartialEq, Eq)]
struct Decoded {
    missing: Vec<usize>,
    indeterminate: Vec<usize>,
    groups: Vec<(Vec<usize>, usize)>,
    num_missing: usize,
    residual: usize,
}

impl From<&DecodedQuack> for Decoded {
    fn from(d: &DecodedQuack) -> Self {
        Decoded {
            missing: d.missing().to_vec(),
            indeterminate: d.indeterminate().to_vec(),
            groups: d
                .indeterminate_groups()
                .iter()
                .map(|g| (g.indices.clone(), g.missing))
                .collect(),
            num_missing: d.num_missing(),
            residual: d.residual(),
        }
    }
}

/// The reference model: the plugging decoder as it was before the
/// lane-batched root search, unchanged but for its output type and its
/// own Newton workspace. It groups every log index by field image in a
/// `HashMap` first, then plugs each distinct image into the locator in
/// first-appearance order.
fn reference_decode<F: Field>(
    power_sums: &[F],
    count: u32,
    log: &[u64],
) -> Result<Decoded, DecodeError> {
    let m = count as usize;
    let threshold = power_sums.len();
    if count as u64 > threshold as u64 {
        return Err(DecodeError::ThresholdExceeded {
            missing: m,
            threshold,
        });
    }
    let mut decoded = Decoded {
        missing: Vec::new(),
        indeterminate: Vec::new(),
        groups: Vec::new(),
        num_missing: 0,
        residual: 0,
    };
    if m == 0 {
        if power_sums.iter().any(|s| !s.is_zero()) {
            return Err(DecodeError::CountInconsistent);
        }
        return Ok(decoded);
    }
    decoded.num_missing = m;

    let mut coeffs = NewtonWorkspace::new(m).coefficients(&power_sums[..m]);

    let mut groups: HashMap<u64, Vec<usize>> = HashMap::with_capacity(log.len());
    let mut order: Vec<u64> = Vec::new();
    for (i, &id) in log.iter().enumerate() {
        let key = F::from_u64(id).to_u64();
        let entry = groups.entry(key).or_default();
        if entry.is_empty() {
            order.push(key);
        }
        entry.push(i);
    }

    for key in order {
        if coeffs.is_empty() {
            break;
        }
        let x = F::from_u64(key);
        let mut multiplicity = 0usize;
        while !coeffs.is_empty() && eval_monic(&coeffs, x) == F::ZERO {
            let rem = deflate_monic(&mut coeffs, x);
            assert_eq!(rem, F::ZERO);
            multiplicity += 1;
        }
        if multiplicity == 0 {
            continue;
        }
        let group = &groups[&key];
        if multiplicity >= group.len() {
            decoded.missing.extend(group.iter().copied());
            decoded.residual += multiplicity - group.len();
        } else {
            decoded.indeterminate.extend(group.iter().copied());
            let mut indices = group.clone();
            indices.sort_unstable();
            decoded.groups.push((indices, multiplicity));
        }
    }
    decoded.residual += coeffs.len();

    decoded.missing.sort_unstable();
    decoded.indeterminate.sort_unstable();
    decoded.groups.sort_by_key(|g| g.0[0]);
    Ok(decoded)
}

/// Builds the difference of `sent` against the `keep`-masked subset and
/// decodes it against `log` with both decoders, asserting each equals the
/// reference model, errors included.
fn check_against_reference<F: Field>(
    sent: &[u64],
    keep: &[bool],
    threshold: usize,
    log: &[u64],
) -> Result<(), TestCaseError> {
    let mut sender = PowerSumQuack::<F>::new(threshold);
    sender.insert_batch(sent);
    let mut receiver = PowerSumQuack::<F>::new(threshold);
    for (&id, _) in sent.iter().zip(keep).filter(|(_, &k)| k) {
        receiver.insert(id);
    }
    let diff = sender.difference(&receiver);
    let sums: Vec<F> = diff.power_sums().map(F::from_u64).collect();
    let expected = reference_decode(&sums, diff.count(), log);
    let plugged = diff.decode_with_log(log).map(|d| Decoded::from(&d));
    prop_assert_eq!(&plugged, &expected, "plugging decoder");
    // Cantor–Zassenhaus is `O(m² log p)` per decode: keep it to the sizes
    // the datapath negotiates.
    if diff.count() <= 20 {
        let factored = diff
            .decode_with_log_by_factoring(log)
            .map(|d| Decoded::from(&d));
        prop_assert_eq!(&factored, &expected, "factoring decoder");
    }
    Ok(())
}

/// Strategy: a log drawn from a pool of at most six identifiers, each entry
/// either the pool value or its alias `value + p` and either kept or
/// dropped, a threshold choice relative to the dropped count, and how many
/// entries to prune from the front of the log handed to the decoder.
///
/// Up to 63 entries: zero to three full 16-lane chunks plus a ragged tail.
/// Pool values come from `0..40` (so `x + p` fits even for `Fp64`) or
/// anywhere; the small pool makes duplicates, two copies of one root inside
/// one chunk, and alias pairs common.
type PoolCase = (Vec<u64>, Vec<(usize, bool, bool)>, usize, usize);

fn pool_case() -> impl Strategy<Value = PoolCase> {
    (
        proptest::collection::vec(prop_oneof![0u64..40, any::<u64>()], 1..7),
        proptest::collection::vec((0usize..6, any::<bool>(), prop::bool::weighted(0.7)), 0..64),
        0usize..4,
        0usize..3,
    )
}

/// Lowers a [`PoolCase`] for field `F` and runs [`check_against_reference`].
/// Threshold choice 0 is one below the dropped count (an error whenever two
/// or more are dropped), 1 is `m == t`, 2 and 3 leave slack.
fn check_pool_case<F: Field>(case: PoolCase) -> Result<(), TestCaseError> {
    let (pool, entries, t_choice, prune) = case;
    let (sent, keep): (Vec<u64>, Vec<bool>) = entries
        .iter()
        .map(|&(k, alias, kept)| {
            let value = pool[k % pool.len()] % F::MODULUS;
            let id = match value.checked_add(F::MODULUS) {
                Some(aliased) if alias => aliased,
                _ => value,
            };
            (id, kept)
        })
        .unzip();
    let dropped = keep.iter().filter(|&&k| !k).count();
    let threshold = match t_choice {
        0 => dropped.saturating_sub(1),
        1 => dropped,
        2 => dropped + 1,
        _ => dropped + 5,
    }
    .max(1);
    let log = &sent[prune.min(sent.len())..];
    check_against_reference::<F>(&sent, &keep, threshold, log)
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
    fn batch_built_difference_decodes_to_mask_fp32(
        (sent, mask) in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..120)
            .prop_map(|pairs| pairs.into_iter().unzip::<u64, bool, Vec<_>, Vec<_>>()),
        t in 1usize..30,
    ) {
        check_decode_against_mask::<Fp32>(&sent, &mask, t)?;
    }

    #[test]
    fn batch_built_difference_decodes_to_mask_fp64(
        (sent, mask) in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..120)
            .prop_map(|pairs| pairs.into_iter().unzip::<u64, bool, Vec<_>, Vec<_>>()),
        t in 1usize..30,
    ) {
        check_decode_against_mask::<Fp64>(&sent, &mask, t)?;
    }

    /// Aliasing-heavy width: 16-bit identifiers collide often, exercising
    /// the indeterminate-group paths.
    #[test]
    fn batch_built_difference_decodes_to_mask_fp16(
        (sent, mask) in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..80)
            .prop_map(|pairs| pairs.into_iter().unzip::<u64, bool, Vec<_>, Vec<_>>()),
        t in 1usize..40,
    ) {
        check_decode_against_mask::<Fp16>(&sent, &mask, t)?;
    }

    #[test]
    fn decode_matches_reference_model_fp16(case in pool_case()) {
        check_pool_case::<Fp16>(case)?;
    }

    #[test]
    fn decode_matches_reference_model_fp32(case in pool_case()) {
        check_pool_case::<Fp32>(case)?;
    }

    #[test]
    fn decode_matches_reference_model_fp64(case in pool_case()) {
        check_pool_case::<Fp64>(case)?;
    }
}

/// The shapes the pool strategy only makes likely, pinned: both copies of
/// a root dropped inside one chunk, one of two copies dropped with the
/// other three chunks later, an alias pair split, a dropped root pruned
/// from the log, and a root in the ragged tail — each at `m == t` and with
/// slack.
#[test]
fn reference_model_pinned_cases() {
    let filler = |n: usize| (0..n).map(|i| (1 + i % 5, false, true));
    let both_in_one_chunk: Vec<_> = [(0, false, false), (0, false, false)]
        .into_iter()
        .chain(filler(30))
        .collect();
    let copies_chunks_apart: Vec<_> = [(0, false, false)]
        .into_iter()
        .chain(filler(47))
        .chain([(0, false, true)])
        .collect();
    let alias_pair: Vec<_> = [(0, false, true), (0, true, false), (0, true, false)]
        .into_iter()
        .chain(filler(14))
        .collect();
    let pruned_root: Vec<_> = [(0, false, false)]
        .into_iter()
        .chain(filler(20))
        .chain([(1, true, false)])
        .collect();
    let ragged_tail: Vec<_> = filler(33).chain([(0, false, false)]).collect();
    let pool = vec![3u64, 11, 17, 1 << 40, 29, u64::MAX - 2];
    for entries in [
        both_in_one_chunk,
        copies_chunks_apart,
        alias_pair,
        pruned_root,
        ragged_tail,
    ] {
        for t_choice in 1..4 {
            for prune in 0..2 {
                let case = (pool.clone(), entries.clone(), t_choice, prune);
                for outcome in [
                    check_pool_case::<Fp16>(case.clone()),
                    check_pool_case::<Fp32>(case.clone()),
                    check_pool_case::<Fp64>(case),
                ] {
                    if let Err(e) = outcome {
                        panic!("{e:?}");
                    }
                }
            }
        }
    }
}

/// A deterministic paper-scale case (n = 3000, t = 20, 64-bit ids): 188
/// 16-lane chunks.
#[test]
fn paper_scale_decode_finds_every_drop() {
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
    let diff = sender.difference(&receiver);
    let decoded = diff.decode_with_log(&ids).unwrap();
    let dropped: Vec<usize> = (0..n).step_by(n / t).collect();
    assert_eq!(decoded.missing(), dropped);
    assert_eq!(decoded.num_missing(), t);
    let sums: Vec<Fp64> = diff.power_sums().map(Fp64::from_u64).collect();
    assert_eq!(
        Ok(Decoded::from(&decoded)),
        reference_decode(&sums, diff.count(), &ids)
    );
}
