//! Replay-window property tests (RFC 4303-style sliding window).
//!
//! The window is the piece of the authenticated channel that turns "the
//! MAC verifies" into "and we have never accepted this datagram before":
//! every in-window sequence number is accepted exactly once, duplicates
//! are rejected as replays, and anything older than the window is refused
//! outright (`Stale`) rather than tracked forever.

use proptest::prelude::*;
use sidecar_proto::{AuthError, ReplayWindow, REPLAY_WINDOW};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Monotonically increasing sequences are always accepted (accept-once,
    /// in order — the common no-loss, no-reorder case).
    #[test]
    fn strictly_increasing_sequences_all_accepted(
        start in 1u64..u64::MAX / 2,
        gaps in proptest::collection::vec(1u64..200, 1..64),
    ) {
        let mut w = ReplayWindow::new();
        let mut seq = start;
        for gap in gaps {
            prop_assert_eq!(w.check_and_update(seq), Ok(()));
            seq += gap;
        }
    }

    /// Every accepted in-window sequence number is rejected as `Replayed`
    /// the second time, regardless of how the first pass was ordered.
    #[test]
    fn second_presentation_is_rejected_as_replay(
        base in 1u64..u64::MAX - 2 * REPLAY_WINDOW,
        mut offsets in proptest::collection::vec(0u64..REPLAY_WINDOW, 1..40),
        shuffle_seed in any::<u64>(),
    ) {
        offsets.sort_unstable();
        offsets.dedup();
        // Deterministic Fisher–Yates so the first pass arrives reordered.
        let mut order = offsets.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }

        let mut w = ReplayWindow::new();
        for &off in &order {
            prop_assert_eq!(w.check_and_update(base + off), Ok(()), "first pass, off {}", off);
        }
        for &off in &order {
            prop_assert_eq!(
                w.check_and_update(base + off),
                Err(AuthError::Replayed),
                "second pass, off {}", off
            );
        }
    }

    /// Sequence numbers at or beyond a full window behind the newest are
    /// rejected as `Stale` — even if they were never seen.
    #[test]
    fn far_behind_sequences_are_stale(
        newest in 2 * REPLAY_WINDOW..u64::MAX / 2,
        lag in 0u64..1000,
    ) {
        let mut w = ReplayWindow::new();
        prop_assert_eq!(w.check_and_update(newest), Ok(()));
        let old = newest - REPLAY_WINDOW - lag.min(newest - REPLAY_WINDOW - 1);
        prop_assert_eq!(w.check_and_update(old), Err(AuthError::Stale));
    }

    /// Advancing the window slides unseen slots out of reach: a sequence
    /// that *would* have been accepted becomes stale once the newest seq
    /// moves a full window past it, while near-behind unseen slots still
    /// accept exactly once.
    #[test]
    fn window_advance_expires_unseen_slots(
        base in REPLAY_WINDOW..u64::MAX / 2,
        jump in 0u64..3 * REPLAY_WINDOW,
    ) {
        let mut w = ReplayWindow::new();
        prop_assert_eq!(w.check_and_update(base), Ok(()));
        let newest = base + REPLAY_WINDOW + jump;
        prop_assert_eq!(w.check_and_update(newest), Ok(()));
        // `base` is now >= one full window behind `newest`.
        prop_assert_eq!(w.check_and_update(base), Err(AuthError::Stale));
        // An unseen slot just inside the window is still accepted once…
        let inside = newest - 1;
        prop_assert_eq!(w.check_and_update(inside), Ok(()));
        // …and only once.
        prop_assert_eq!(w.check_and_update(inside), Err(AuthError::Replayed));
    }
}

/// Sequence number 0 is reserved (sealers start at 1): always stale.
#[test]
fn zero_sequence_is_always_stale() {
    let mut w = ReplayWindow::new();
    assert_eq!(w.check_and_update(0), Err(AuthError::Stale));
    assert_eq!(w.check_and_update(5), Ok(()));
    assert_eq!(w.check_and_update(0), Err(AuthError::Stale));
}
