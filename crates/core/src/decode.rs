//! Decoding a difference quACK against the sender's log (paper §3.2).
//!
//! The sender subtracts the received quACK from its own, leaving the power
//! sums of the missing multiset `S \ R` and the missing count `m`. Decoding
//! then:
//!
//! 1. converts the first `m` power sums into the monic error-locator
//!    polynomial via Newton's identities (`O(m²)`);
//! 2. evaluates the locator at the log's identifiers ("plug in all
//!    candidate roots", §4.2) — `O(n·m)` — 16 entries at a time: each
//!    chunk is converted into the field once and run through Horner
//!    rung-major, so the lanes' multiplies are independent and pipeline;
//! 3. divides each confirmed root out of the locator (synthetic deflation)
//!    as many times as it is a root, so multiset multiplicities are
//!    respected, later chunks are evaluated with the smaller quotient, and
//!    the walk stops once the last root is out;
//! 4. only on a root, scans the rest of the log for entries with the same
//!    field image and classifies them as missing or — when several logged
//!    packets share one identifier and only some of them are missing —
//!    *indeterminate* (§3.2: "a decoded identifier may correspond to
//!    multiple candidate missing packets"). Every other entry is received.
//!    No map over the log is built: a decode allocates the locator and the
//!    `missing` list, plus one list per indeterminate group.

use sidecar_galois::factor::find_roots;
use sidecar_galois::poly::{deflate_monic, eval_monic};
use sidecar_galois::{Field, NewtonWorkspace};

/// Why decoding a difference quACK failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// More packets are missing than the quACK has power sums for: `t < m`
    /// (§3.2: "decoding fails because there are not enough equations to
    /// solve"). The endpoints must reset the connection to keep using the
    /// quACK (§3.3 "Exceeding the threshold").
    ThresholdExceeded {
        /// The number of missing packets `m` implied by the counts.
        missing: usize,
        /// The negotiated threshold `t`.
        threshold: usize,
    },
    /// The count difference is zero but the power sums are not (or vice
    /// versa): the `c`-bit count wrapped a full cycle between quACKs, so
    /// the equations "do not correspond to packets in S" (§3.2).
    CountInconsistent,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::ThresholdExceeded { missing, threshold } => write!(
                f,
                "{missing} packets missing but quACK threshold is {threshold}"
            ),
            DecodeError::CountInconsistent => {
                write!(
                    f,
                    "count difference inconsistent with power sums (count wraparound)"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The fate of one logged packet after decoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketFate {
    /// The packet was received by the quACK's sender.
    Received,
    /// The packet is definitively missing.
    Missing,
    /// The packet shares its identifier with other logged packets and only
    /// some of that group are missing; which ones cannot be determined
    /// (§3.2). Sidecar protocols interpret these according to their needs —
    /// e.g. in-network retransmission simply retransmits them.
    Indeterminate,
}

/// One collision group whose fate is ambiguous: `indices.len()` log entries
/// share an identifier of which exactly `missing` are missing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndeterminateGroup {
    /// Log indices sharing the identifier, ascending.
    pub indices: Vec<usize>,
    /// How many of them are missing (`0 < missing < indices.len()`).
    pub missing: usize,
}

/// The result of decoding a difference quACK against a log of candidates.
///
/// Index-based: positions refer to entries of the `log` slice passed to the
/// decoder, because identifiers may legitimately repeat in the log (either a
/// `b`-bit collision between different packets or a retransmission of an
/// identical ciphertext).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DecodedQuack {
    missing: Vec<usize>,
    indeterminate: Vec<usize>,
    groups: Vec<IndeterminateGroup>,
    num_missing: usize,
    residual: usize,
}

impl DecodedQuack {
    /// Log indices that are definitively missing, ascending.
    pub fn missing(&self) -> &[usize] {
        &self.missing
    }

    /// Log indices whose fate is ambiguous due to identifier collisions,
    /// ascending.
    pub fn indeterminate(&self) -> &[usize] {
        &self.indeterminate
    }

    /// Indeterminate collision groups with their missing multiplicities
    /// (how many of each group are missing — just not *which*).
    pub fn indeterminate_groups(&self) -> &[IndeterminateGroup] {
        &self.groups
    }

    /// The number of missing packets `m` the quACK encoded (count
    /// difference). Satisfies
    /// `missing.len() <= m <= missing.len() + indeterminate.len() + residual`.
    pub fn num_missing(&self) -> usize {
        self.num_missing
    }

    /// Locator roots that matched no log entry. Zero in normal operation;
    /// nonzero indicates the log was pruned too aggressively or a count
    /// wraparound slipped through.
    pub fn residual(&self) -> usize {
        self.residual
    }

    /// Whether every missing packet was pinned to a unique log entry.
    pub fn is_fully_determined(&self) -> bool {
        self.indeterminate.is_empty() && self.residual == 0
    }

    /// The fate of the log entry at `index`.
    pub fn fate(&self, index: usize) -> PacketFate {
        if self.missing.binary_search(&index).is_ok() {
            PacketFate::Missing
        } else if self.indeterminate.binary_search(&index).is_ok() {
            PacketFate::Indeterminate
        } else {
            PacketFate::Received
        }
    }

    /// Identifier values (from `log`) of the definitively missing packets.
    pub fn missing_values(&self, log: &[u64]) -> Vec<u64> {
        self.missing.iter().map(|&i| log[i]).collect()
    }

    /// Identifier values (from `log`) of the indeterminate packets.
    pub fn indeterminate_values(&self, log: &[u64]) -> Vec<u64> {
        self.indeterminate.iter().map(|&i| log[i]).collect()
    }
}

/// Observability hooks for the decode paths.
///
/// Decoding has no world context in reach (it runs inside
/// `QuackConsumer::process_quack`), so it records into
/// [`sidecar_obs::global`]. Counters are monotone; tests on the global
/// registry must assert `>=` deltas because the test harness runs decodes
/// concurrently.
mod hooks {
    use super::DecodeError;

    pub(super) fn attempt() {
        sidecar_obs::global().inc("decode.attempts");
    }

    pub(super) fn outcome<T>(result: &Result<T, DecodeError>) {
        sidecar_obs::global().inc(match result {
            Ok(_) => "decode.ok",
            Err(DecodeError::ThresholdExceeded { .. }) => "decode.err.threshold",
            Err(DecodeError::CountInconsistent) => "decode.err.count_inconsistent",
        });
    }

    /// The `O(m² log p)` factoring decoder was chosen over candidate
    /// plug-in.
    pub(super) fn factor_fallback() {
        sidecar_obs::global().inc("decode.factor_fallback");
    }
}

/// Core decode routine shared by [`crate::PowerSumQuack::decode_with_log`].
///
/// `power_sums` and `count` describe the *difference* quACK; `log` is the
/// sender's candidate list.
pub(crate) fn decode_difference<F: Field>(
    power_sums: &[F],
    count: u32,
    log: &[u64],
    workspace: &NewtonWorkspace<F>,
) -> Result<DecodedQuack, DecodeError> {
    hooks::attempt();
    let result = decode_difference_inner(power_sums, count, log, workspace);
    hooks::outcome(&result);
    result
}

/// The locator degree `m` a difference asks for: its count, once checked
/// against the threshold and, when nothing is missing, against the sums.
pub(crate) fn locator_degree<F: Field>(power_sums: &[F], count: u32) -> Result<usize, DecodeError> {
    let m = count as usize;
    let threshold = power_sums.len();
    if count as u64 > threshold as u64 {
        return Err(DecodeError::ThresholdExceeded {
            missing: m,
            threshold,
        });
    }
    // Nothing missing — but the sums must agree, otherwise the count
    // wrapped a whole cycle.
    if m == 0 && power_sums.iter().any(|s| !s.is_zero()) {
        return Err(DecodeError::CountInconsistent);
    }
    Ok(m)
}

/// Log entries the plugging decoder evaluates the locator at per chunk.
const EVAL_LANES: usize = 16;

fn decode_difference_inner<F: Field>(
    power_sums: &[F],
    count: u32,
    log: &[u64],
    workspace: &NewtonWorkspace<F>,
) -> Result<DecodedQuack, DecodeError> {
    let m = locator_degree(power_sums, count)?;
    if m == 0 {
        return Ok(DecodedQuack::default());
    }

    // Error-locator coefficients from the first m power sums.
    let mut coeffs = workspace.coefficients(&power_sums[..m]);
    let mut decoded = DecodedQuack {
        missing: Vec::with_capacity(m),
        num_missing: m,
        ..DecodedQuack::default()
    };

    'walk: for (c, chunk) in log.chunks(EVAL_LANES).enumerate() {
        if coeffs.is_empty() {
            break; // all roots accounted for
        }
        let mut xs = [F::ZERO; EVAL_LANES];
        for (x, &id) in xs.iter_mut().zip(chunk) {
            *x = F::from_u64(id);
        }
        // Horner rung-major over the current quotient: one independent
        // chain per lane. Evaluating the quotient, never the full-degree
        // locator, keeps the work the serial walk would do.
        let mut values = [F::ONE; EVAL_LANES];
        for &coeff in coeffs.iter().rev() {
            for (v, &x) in values.iter_mut().zip(&xs) {
                *v = *v * x + coeff;
            }
        }
        for (j, (&value, &x)) in values.iter().zip(&xs).take(chunk.len()).enumerate() {
            if value != F::ZERO {
                // Not a root of this chunk's quotient, so not of any later
                // one: deflation only removes roots.
                continue;
            }
            // A zero was computed before this chunk's earlier roots came
            // out, and one of them may have been this image: re-check
            // against the current quotient while dividing x out.
            let mut multiplicity = 0usize;
            while !coeffs.is_empty() && eval_monic(&coeffs, x) == F::ZERO {
                let rem = deflate_monic(&mut coeffs, x);
                debug_assert_eq!(rem, F::ZERO);
                multiplicity += 1;
            }
            if multiplicity > 0 {
                settle_root(&mut decoded, log, c * EVAL_LANES + j, x, multiplicity);
            }
            if coeffs.is_empty() {
                break 'walk;
            }
        }
    }

    // Roots never matched by any log candidate.
    decoded.residual += coeffs.len();
    Ok(finish(decoded))
}

/// Settles one locator root `x` of the given multiplicity against the log
/// entries whose field image is `x`, scanning from `first` (no earlier
/// entry has that image). If the root covers every such entry they are all
/// missing, and any surplus multiplicity — none for a well-formed
/// difference — is `residual`. Otherwise some, but not all, of the
/// identically-identified packets are missing: an indeterminate group
/// (§3.2). Indices are pushed in ascending order.
fn settle_root<F: Field>(
    decoded: &mut DecodedQuack,
    log: &[u64],
    first: usize,
    x: F,
    multiplicity: usize,
) {
    let key = x.to_u64();
    let start = decoded.missing.len();
    for (i, &id) in log.iter().enumerate().skip(first) {
        // An id below p is its own image; only the aliases at or above p
        // need the reduction.
        if id == key || (id >= F::MODULUS && F::from_u64(id) == x) {
            decoded.missing.push(i);
        }
    }
    let matched = decoded.missing.len() - start;
    if multiplicity >= matched {
        decoded.residual += multiplicity - matched;
    } else {
        let indices = decoded.missing.split_off(start);
        decoded.indeterminate.extend_from_slice(&indices);
        decoded.groups.push(IndeterminateGroup {
            indices,
            missing: multiplicity,
        });
    }
}

/// Puts a decode's index lists in ascending order (groups by first index).
fn finish(mut decoded: DecodedQuack) -> DecodedQuack {
    decoded.missing.sort_unstable();
    decoded.indeterminate.sort_unstable();
    decoded.groups.sort_unstable_by_key(|g| g.indices[0]);
    decoded
}

/// Alternative decode: find the locator's roots directly instead of
/// plugging in log candidates — `O(m² log p)`, independent of the log size
/// (paper §4.3: "for large n, we can use the decoding algorithm that
/// depends only on t").
pub(crate) fn decode_difference_by_roots<F: Field>(
    power_sums: &[F],
    count: u32,
    log: &[u64],
    workspace: &NewtonWorkspace<F>,
) -> Result<DecodedQuack, DecodeError> {
    hooks::attempt();
    hooks::factor_fallback();
    let result = decode_by_roots_inner(power_sums, count, log, workspace);
    hooks::outcome(&result);
    result
}

fn decode_by_roots_inner<F: Field>(
    power_sums: &[F],
    count: u32,
    log: &[u64],
    workspace: &NewtonWorkspace<F>,
) -> Result<DecodedQuack, DecodeError> {
    let m = locator_degree(power_sums, count)?;
    if m == 0 {
        return Ok(DecodedQuack::default());
    }
    let coeffs = workspace.coefficients(&power_sums[..m]);
    let roots = find_roots(&coeffs);

    let mut decoded = DecodedQuack {
        missing: Vec::with_capacity(m),
        num_missing: m,
        ..DecodedQuack::default()
    };
    let mut matched = 0usize;
    for (root, mult) in roots {
        matched += mult;
        // A root with no logged candidate (the log was over-pruned or the
        // difference is corrupt) settles as all residual.
        settle_root(&mut decoded, log, 0, root, mult);
    }
    // Locator factors that did not split into roots (corrupt difference).
    decoded.residual += m - matched;
    Ok(finish(decoded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_sum::{PowerSumQuack, Quack32};

    fn diff_of(sent: &[u64], received: &[u64], t: usize) -> PowerSumQuack<sidecar_galois::Fp32> {
        let mut s = Quack32::new(t);
        let mut r = Quack32::new(t);
        for &id in sent {
            s.insert(id);
        }
        for &id in received {
            r.insert(id);
        }
        s.difference(&r)
    }

    #[test]
    fn fate_queries() {
        let sent = [10u64, 20, 30, 40];
        let diff = diff_of(&sent, &[10, 30], 4);
        let d = diff.decode_with_log(&sent).unwrap();
        assert_eq!(d.fate(0), PacketFate::Received);
        assert_eq!(d.fate(1), PacketFate::Missing);
        assert_eq!(d.fate(2), PacketFate::Received);
        assert_eq!(d.fate(3), PacketFate::Missing);
        assert!(d.is_fully_determined());
        assert_eq!(d.num_missing(), 2);
    }

    #[test]
    fn residual_when_log_is_incomplete() {
        // Sender pruned its log too aggressively: one missing id absent.
        let sent = [1u64, 2, 3];
        let diff = diff_of(&sent, &[1], 4);
        let truncated_log = [1u64, 2];
        let d = diff.decode_with_log(&truncated_log).unwrap();
        assert_eq!(d.missing_values(&truncated_log), vec![2]);
        assert_eq!(d.residual(), 1);
        assert!(!d.is_fully_determined());
    }

    #[test]
    fn empty_log_all_residual() {
        let diff = diff_of(&[5, 6], &[], 4);
        let d = diff.decode_with_log(&[]).unwrap();
        assert!(d.missing().is_empty());
        assert_eq!(d.residual(), 2);
    }

    #[test]
    fn count_inconsistency_detected() {
        // Craft a difference with zero count but nonzero sums by removing a
        // different id than was inserted.
        let mut q = Quack32::new(2);
        q.insert(111);
        q.remove(222);
        assert_eq!(q.count(), 0);
        let err = q.decode_with_log(&[111, 222]).unwrap_err();
        assert_eq!(err, DecodeError::CountInconsistent);
        assert!(err.to_string().contains("wraparound"));
    }

    #[test]
    fn threshold_error_display() {
        let e = DecodeError::ThresholdExceeded {
            missing: 30,
            threshold: 20,
        };
        assert_eq!(
            e.to_string(),
            "30 packets missing but quACK threshold is 20"
        );
    }

    #[test]
    fn collision_between_distinct_packets() {
        // Two *different* packets whose identifiers collide mod p: ids p+4
        // and 4 for p = 2^32 - 5 map to the same field element.
        const P: u64 = 4_294_967_291;
        let sent = [P + 4, 4, 1000];
        // The packet with id 4 is lost; the collision partner arrived.
        let diff = diff_of(&sent, &[P + 4, 1000], 3);
        let d = diff.decode_with_log(&sent).unwrap();
        // Decoder cannot tell which of log[0]/log[1] is missing.
        assert_eq!(d.indeterminate(), &[0, 1]);
        assert!(d.missing().is_empty());
        assert_eq!(d.num_missing(), 1);
    }

    #[test]
    fn factoring_decoder_agrees_with_plugging() {
        let sent: Vec<u64> = (0..200u64).map(|i| i * 48_271 + 11).collect();
        for drop_every in [3usize, 7, 50] {
            let received: Vec<u64> = sent
                .iter()
                .enumerate()
                .filter(|(i, _)| i % drop_every != 0)
                .map(|(_, &v)| v)
                .collect();
            let missing = sent.len() - received.len();
            let diff = diff_of(&sent, &received, missing.max(1));
            let plug = diff.decode_with_log(&sent).unwrap();
            let fact = diff.decode_with_log_by_factoring(&sent).unwrap();
            assert_eq!(plug, fact, "drop_every {drop_every}");
        }
    }

    #[test]
    fn factoring_decoder_handles_collisions_and_duplicates() {
        const P: u64 = 4_294_967_291;
        // Collision (P+4 vs 4) with one copy missing, plus a duplicate id.
        let sent = [P + 4, 4, 9, 9, 1000];
        let diff = diff_of(&sent, &[P + 4, 9, 1000], 4);
        let plug = diff.decode_with_log(&sent).unwrap();
        let fact = diff.decode_with_log_by_factoring(&sent).unwrap();
        assert_eq!(plug, fact);
        // Both collision partners AND both duplicate copies are ambiguous.
        assert_eq!(fact.indeterminate(), &[0, 1, 2, 3]);
        assert!(fact.missing().is_empty());
        assert_eq!(fact.num_missing(), 2);
    }

    #[test]
    fn factoring_decoder_residual_and_errors() {
        // Residual: missing id absent from the log.
        let diff = diff_of(&[1, 2, 3], &[1], 4);
        let fact = diff.decode_with_log_by_factoring(&[1, 2]).unwrap();
        assert_eq!(fact.missing_values(&[1, 2]), vec![2]);
        assert_eq!(fact.residual(), 1);
        // Threshold exceeded.
        let diff = diff_of(&(1..=10).collect::<Vec<u64>>(), &[], 3);
        assert!(matches!(
            diff.decode_with_log_by_factoring(&[1, 2, 3]),
            Err(DecodeError::ThresholdExceeded { .. })
        ));
        // Count inconsistency.
        let mut q = Quack32::new(2);
        q.insert(111);
        q.remove(222);
        assert_eq!(
            q.decode_with_log_by_factoring(&[111]).unwrap_err(),
            DecodeError::CountInconsistent
        );
        // Empty difference.
        let empty = diff_of(&[5, 6], &[5, 6], 2);
        assert!(empty
            .decode_with_log_by_factoring(&[5, 6])
            .unwrap()
            .missing()
            .is_empty());
    }

    #[test]
    fn decode_exact_threshold_boundary() {
        // m == t exactly: must still decode.
        let sent: Vec<u64> = (1..=25).collect();
        let received: Vec<u64> = sent[5..].to_vec();
        let diff = diff_of(&sent, &received, 5);
        let d = diff.decode_with_log(&sent).unwrap();
        assert_eq!(d.missing_values(&sent), vec![1, 2, 3, 4, 5]);
    }
}
