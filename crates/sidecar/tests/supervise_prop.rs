//! Property tests for the supervision state machine: arbitrary interleavings
//! of feedback, errors, sends, and polls must only ever walk legal edges of
//! the Connecting → Active ⇄ Degraded diagram, and the transition log must
//! agree with the observable state and counters at every step.
//!
//! The transition log is always on and bounded; the protocols drain it
//! into the obs event trace.

use proptest::prelude::*;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_proto::config::SupervisionConfig;
use sidecar_proto::endpoint::ProcessError;
use sidecar_proto::supervise::{Supervisor, SupervisorState, Transition};

fn cfg() -> SupervisionConfig {
    SupervisionConfig {
        hello_timeout: SimDuration::from_millis(100),
        hello_backoff_cap: SimDuration::from_millis(400),
        liveness_timeout: SimDuration::from_millis(300),
        degrade_after: 3,
    }
}

/// Is `from → to` an edge the diagram allows? Connecting can only be left
/// (never re-entered), Active and Degraded alternate, and self-edges (e.g.
/// a redundant Active → Active re-entry) must never be recorded.
fn legal_edge(from: SupervisorState, to: SupervisorState) -> bool {
    use SupervisorState::*;
    matches!(
        (from, to),
        (Connecting, Active) | (Connecting, Degraded) | (Active, Degraded) | (Degraded, Active)
    )
}

/// One scripted stimulus; `dt_ms` advances the clock before it applies.
fn apply(s: &mut Supervisor, op: u8, now: SimTime) {
    match op % 6 {
        0 => {
            let _ = s.poll(now, true);
        }
        1 => {
            let _ = s.poll(now, false);
        }
        2 => {
            let _ = s.on_feedback_ok(now);
        }
        3 => {
            let _ = s.on_handshake_ack(now);
        }
        4 => s.note_send(now),
        _ => {
            let err = match op / 6 {
                0 => ProcessError::Stale,
                1 => ProcessError::Malformed,
                _ => ProcessError::CountInconsistent,
            };
            let _ = s.on_quack_error(&err, now);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving yields a contiguous chain of legal edges starting at
    /// Connecting, with monotone timestamps, and the drained log always
    /// agrees with the live state and the degradation/recovery counters.
    #[test]
    fn transition_log_walks_only_legal_edges(
        ops in proptest::collection::vec((0u8..18, 1u64..500), 1..120),
    ) {
        let mut s = Supervisor::new(cfg());
        let mut now = SimTime::ZERO;
        let mut log: Vec<Transition> = Vec::new();
        for &(op, dt_ms) in &ops {
            now += SimDuration::from_millis(dt_ms);
            apply(&mut s, op, now);
            // Drain every step: the full history stays contiguous even
            // though the undrained log is bounded.
            log.extend(s.take_transitions());
        }

        let mut state = SupervisorState::Connecting;
        let mut last_at = SimTime::ZERO;
        let mut degradations = 0u64;
        let mut recoveries = 0u64;
        for t in &log {
            prop_assert!(
                legal_edge(t.from, t.to),
                "illegal edge {:?} -> {:?}", t.from, t.to
            );
            prop_assert_eq!(t.from, state, "chain must be contiguous");
            prop_assert!(t.at >= last_at, "timestamps must be monotone");
            state = t.to;
            last_at = t.at;
            if t.to == SupervisorState::Degraded {
                degradations += 1;
            }
            if t.from == SupervisorState::Degraded {
                recoveries += 1;
            }
        }
        prop_assert_eq!(state, s.state(), "log must reach the live state");
        prop_assert_eq!(degradations, s.stats.degradations);
        prop_assert_eq!(recoveries, s.stats.recoveries);
        prop_assert_eq!(s.enabled(), state != SupervisorState::Degraded);
    }

    /// After any history, a session that owes feedback and then hears
    /// nothing for a full liveness timeout degrades at the next poll — and
    /// that degradation shows up as a Degraded-bound edge in the log.
    #[test]
    fn liveness_deadline_always_produces_a_degraded_event(
        ops in proptest::collection::vec((0u8..18, 1u64..500), 0..80),
    ) {
        let mut s = Supervisor::new(cfg());
        let mut now = SimTime::ZERO;
        for &(op, dt_ms) in &ops {
            now += SimDuration::from_millis(dt_ms);
            apply(&mut s, op, now);
        }
        let _ = s.take_transitions();

        // Establish an active session with feedback owed, then go silent.
        now += SimDuration::from_millis(1);
        s.on_feedback_ok(now);
        s.note_send(now + SimDuration::from_millis(1));
        let deadline = now + cfg().liveness_timeout + SimDuration::from_millis(1);
        let outcome = s.poll(deadline, true);
        prop_assert!(outcome.degraded_now);
        prop_assert!(s.is_degraded());
        let log = s.take_transitions();
        let last = log.last().expect("degradation must be logged");
        prop_assert_eq!(last.to, SupervisorState::Degraded);
        prop_assert_eq!(last.at, deadline);
    }
}
