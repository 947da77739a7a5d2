//! Session supervision: liveness, handshake retry, and graceful
//! degradation for quACK consumers.
//!
//! The paper's deployment story depends on sidecars being *optional*:
//! "hosts can take advantage of them when they are available, while
//! remaining completely functional when they are not" (§1). This module
//! supplies the small state machine that makes a consumer honour that
//! contract when the sidecar path breaks mid-flow — proxy crash, control
//! blackout, or a corrupted quACK stream:
//!
//! ```text
//!            hello acked / quACK ok
//! Connecting ───────────────────────► Active
//!     │                                 │
//!     │ liveness timeout                │ K consecutive hard errors,
//!     ▼                                 ▼ or liveness timeout
//! Degraded ◄───────────────────────── Degraded
//!     │
//!     │ hello retry (capped exp. backoff) answered by producer Reset
//!     ▼
//!  Active (recovered — sidecar re-enabled at the producer's epoch)
//! ```
//!
//! The supervisor is sans-IO like everything else in this workspace: it
//! never sends packets itself. Callers ask [`Supervisor::poll`] what to do
//! (send a `Hello`? arm which deadline?) and report observations back
//! ([`Supervisor::on_feedback_ok`], [`Supervisor::on_quack_error`],
//! [`Supervisor::on_handshake_ack`]). While degraded, the protocol node is
//! expected to behave exactly like its no-sidecar baseline; the hello
//! retries are the only sidecar traffic that continues.

use crate::config::SupervisionConfig;
use crate::endpoint::ProcessError;
use sidecar_netsim::time::SimTime;
use std::collections::VecDeque;

/// Where the supervised session currently stands.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SupervisorState {
    /// Handshake in flight; sidecar processing runs optimistically so a
    /// healthy path loses nothing to connection setup.
    Connecting,
    /// The producer has answered (handshake ack or a decodable quACK);
    /// liveness is being monitored.
    Active,
    /// The sidecar path is considered broken; the protocol has fallen back
    /// to its end-to-end baseline and only hello retries continue.
    Degraded,
}

/// Counters exposed for tests and experiment reports.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// `Hello` messages the caller was told to send.
    pub hellos_sent: u64,
    /// Transitions into [`SupervisorState::Degraded`].
    pub degradations: u64,
    /// Transitions out of degraded back to active.
    pub recoveries: u64,
    /// Hard errors observed (stale quACKs excluded).
    pub errors_observed: u64,
}

/// One recorded edge of the supervision state machine.
///
/// The supervisor keeps a bounded log of these (see
/// [`Supervisor::transitions`]); protocols drain it into the world's event
/// trace, and property tests assert the sequence only ever walks legal
/// edges.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    /// When the edge was taken.
    pub at: SimTime,
    /// State before.
    pub from: SupervisorState,
    /// State after.
    pub to: SupervisorState,
}

/// Bound on the undrained transition log: callers that never drain keep at
/// most this many entries.
pub const TRANSITION_LOG_CAP: usize = 128;

/// What [`Supervisor::poll`] asks the caller to do.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PollOutcome {
    /// Send a `Hello` (re)handshake now.
    pub send_hello: bool,
    /// The session degraded during *this* poll; apply baseline fallback.
    pub degraded_now: bool,
    /// When to poll again (arm a timer here). Always in the future.
    pub next_deadline: Option<SimTime>,
}

/// Supervision state machine for one quACK-consuming session.
#[derive(Clone, Debug)]
pub struct Supervisor {
    cfg: SupervisionConfig,
    state: SupervisorState,
    /// Current hello retry period (doubles up to the cap).
    backoff: sidecar_netsim::time::SimDuration,
    /// Earliest time the next hello may go out.
    next_hello: SimTime,
    consecutive_errors: u32,
    /// Last successful quACK / handshake ack (or supervisor creation).
    last_feedback: SimTime,
    /// Packets sent since the last feedback — liveness only applies when
    /// feedback is actually owed.
    sends_since_feedback: u64,
    /// Undrained state-machine edges, oldest first (bounded).
    transitions: VecDeque<Transition>,
    /// Counters for tests and reports.
    pub stats: SupervisorStats,
}

impl Supervisor {
    /// Creates a supervisor in [`SupervisorState::Connecting`]; the first
    /// [`poll`](Self::poll) requests an immediate `Hello`.
    pub fn new(cfg: SupervisionConfig) -> Self {
        assert!(cfg.degrade_after >= 1, "degrade_after must be at least 1");
        Supervisor {
            cfg,
            state: SupervisorState::Connecting,
            backoff: cfg.hello_timeout,
            next_hello: SimTime::ZERO,
            consecutive_errors: 0,
            last_feedback: SimTime::ZERO,
            sends_since_feedback: 0,
            transitions: VecDeque::new(),
            stats: SupervisorStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> SupervisorState {
        self.state
    }

    /// Undrained state-machine edges, oldest first. The log is bounded: if
    /// nobody drains it, only the most recent [`TRANSITION_LOG_CAP`] edges
    /// are retained (oldest evicted first).
    pub fn transitions(&self) -> impl Iterator<Item = &Transition> {
        self.transitions.iter()
    }

    /// Drains the recorded edges (oldest first), leaving the log empty.
    /// Protocols call this after driving the supervisor to forward new
    /// transitions into the world's event trace.
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        self.transitions.drain(..).collect()
    }

    fn record_transition(&mut self, at: SimTime, from: SupervisorState, to: SupervisorState) {
        if self.transitions.len() >= TRANSITION_LOG_CAP {
            self.transitions.pop_front();
        }
        self.transitions.push_back(Transition { at, from, to });
    }

    /// Whether sidecar processing should run (anything but degraded).
    pub fn enabled(&self) -> bool {
        self.state != SupervisorState::Degraded
    }

    /// Whether the session has fallen back to the end-to-end baseline.
    pub fn is_degraded(&self) -> bool {
        self.state == SupervisorState::Degraded
    }

    /// A packet whose delivery the sidecar is expected to confirm was sent.
    pub fn note_send(&mut self, _now: SimTime) {
        self.sends_since_feedback += 1;
    }

    /// Drives timeouts. `expecting_feedback` tells the supervisor whether
    /// the caller is still owed confirmations (e.g. the flow is incomplete
    /// or packets sit in a retransmit buffer) — liveness never trips on an
    /// idle session.
    pub fn poll(&mut self, now: SimTime, expecting_feedback: bool) -> PollOutcome {
        let mut out = PollOutcome::default();
        // Liveness first, so a just-detected death emits its hello below.
        if self.state != SupervisorState::Degraded
            && expecting_feedback
            && self.sends_since_feedback > 0
            && now >= self.last_feedback + self.cfg.liveness_timeout
        {
            self.degrade(now);
            out.degraded_now = true;
        }
        match self.state {
            SupervisorState::Connecting | SupervisorState::Degraded => {
                if now >= self.next_hello {
                    out.send_hello = true;
                    self.stats.hellos_sent += 1;
                    self.next_hello = now + self.backoff;
                    self.backoff = (self.backoff * 2).min(self.cfg.hello_backoff_cap);
                }
                out.next_deadline = Some(self.next_hello);
            }
            SupervisorState::Active => {
                let liveness = if expecting_feedback && self.sends_since_feedback > 0 {
                    self.last_feedback + self.cfg.liveness_timeout
                } else {
                    now + self.cfg.liveness_timeout
                };
                // Never hand back a deadline that already passed (an idle
                // session's last_feedback can be arbitrarily old).
                out.next_deadline = Some(if liveness > now {
                    liveness
                } else {
                    now + self.cfg.liveness_timeout
                });
            }
        }
        out
    }

    /// A quACK decoded and processed successfully. Returns `true` when this
    /// recovers a degraded session (callers re-enable sidecar behaviour).
    /// Real feedback is proof the channel works again, so it restores the
    /// full error budget and the fast hello cadence.
    pub fn on_feedback_ok(&mut self, now: SimTime) -> bool {
        self.consecutive_errors = 0;
        self.last_feedback = now;
        self.sends_since_feedback = 0;
        self.backoff = self.cfg.hello_timeout;
        self.activate(now)
    }

    /// The producer answered a `Hello` (or announced a post-restart epoch)
    /// with a `Reset`. Returns `true` when this recovers a degraded
    /// session.
    ///
    /// Recovery by handshake alone is *probational*: a lone decodable
    /// `Reset` can survive a channel that is still corrupting everything
    /// else, so a recovered session re-degrades on its very next hard error
    /// instead of paying the full budget again. The first clean quACK
    /// ([`on_feedback_ok`](Self::on_feedback_ok)) lifts the probation.
    pub fn on_handshake_ack(&mut self, now: SimTime) -> bool {
        self.last_feedback = now;
        self.sends_since_feedback = 0;
        let recovered = self.activate(now);
        if recovered {
            self.consecutive_errors = self.cfg.degrade_after - 1;
        } else {
            self.consecutive_errors = 0;
            self.backoff = self.cfg.hello_timeout;
        }
        recovered
    }

    /// A hard error from the quACK stream (undecodable sidecar message or
    /// a non-stale [`ProcessError`]). Returns `true` when the error budget
    /// is exhausted and the session degrades *now* — the caller should
    /// apply its baseline fallback and then [`poll`](Self::poll) to emit
    /// the first recovery hello.
    pub fn note_error(&mut self, now: SimTime) -> bool {
        if self.state == SupervisorState::Degraded {
            return false;
        }
        self.stats.errors_observed += 1;
        self.consecutive_errors += 1;
        if self.consecutive_errors >= self.cfg.degrade_after {
            self.degrade(now);
            return true;
        }
        false
    }

    /// [`note_error`](Self::note_error) with the stale filter applied:
    /// stale quACKs are expected after resets (and on quiet flow tails,
    /// where unchanged sketches re-arrive), so they never count against the
    /// session — but they do prove the control channel is alive, so they
    /// refresh the liveness clock.
    pub fn on_quack_error(&mut self, err: &ProcessError, now: SimTime) -> bool {
        if matches!(err, ProcessError::Stale) {
            self.last_feedback = now;
            return false;
        }
        self.note_error(now)
    }

    fn degrade(&mut self, now: SimTime) {
        self.record_transition(now, self.state, SupervisorState::Degraded);
        self.state = SupervisorState::Degraded;
        self.stats.degradations += 1;
        self.consecutive_errors = 0;
        // The backoff is deliberately NOT reset: a session flapping between
        // degraded and probational-active keeps escalating its hello cadence
        // toward the cap, bounding how often a broken channel gets retried.
        self.next_hello = now; // first recovery hello goes out immediately
    }

    fn activate(&mut self, now: SimTime) -> bool {
        match self.state {
            SupervisorState::Degraded => {
                self.record_transition(now, self.state, SupervisorState::Active);
                self.state = SupervisorState::Active;
                self.stats.recoveries += 1;
                true
            }
            SupervisorState::Connecting => {
                self.record_transition(now, self.state, SupervisorState::Active);
                self.state = SupervisorState::Active;
                false
            }
            SupervisorState::Active => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidecar_netsim::time::SimDuration;

    fn cfg() -> SupervisionConfig {
        SupervisionConfig {
            hello_timeout: SimDuration::from_millis(100),
            hello_backoff_cap: SimDuration::from_millis(400),
            liveness_timeout: SimDuration::from_millis(300),
            degrade_after: 3,
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    #[test]
    fn first_poll_sends_hello_and_backs_off_exponentially() {
        let mut s = Supervisor::new(cfg());
        assert_eq!(s.state(), SupervisorState::Connecting);
        let p = s.poll(ms(0), false);
        assert!(p.send_hello);
        assert_eq!(p.next_deadline, Some(ms(100)));
        // Too early: no hello, same deadline.
        let p = s.poll(ms(50), false);
        assert!(!p.send_hello);
        assert_eq!(p.next_deadline, Some(ms(100)));
        // Retries double the period: 100, 200, 400, then capped at 400.
        let p = s.poll(ms(100), false);
        assert!(p.send_hello);
        assert_eq!(p.next_deadline, Some(ms(300)));
        let p = s.poll(ms(300), false);
        assert!(p.send_hello);
        assert_eq!(p.next_deadline, Some(ms(700)));
        let p = s.poll(ms(700), false);
        assert!(p.send_hello);
        assert_eq!(p.next_deadline, Some(ms(1100)));
        assert_eq!(s.stats.hellos_sent, 4);
    }

    #[test]
    fn handshake_ack_activates_and_stops_hellos() {
        let mut s = Supervisor::new(cfg());
        s.poll(ms(0), false);
        assert!(!s.on_handshake_ack(ms(20))); // Connecting→Active: no recovery
        assert_eq!(s.state(), SupervisorState::Active);
        let p = s.poll(ms(150), false);
        assert!(!p.send_hello);
        assert!(p.next_deadline.unwrap() > ms(150));
    }

    #[test]
    fn error_budget_degrades_after_k_hard_errors() {
        let mut s = Supervisor::new(cfg());
        s.on_feedback_ok(ms(10));
        assert!(!s.note_error(ms(20)));
        assert!(!s.note_error(ms(30)));
        assert!(s.note_error(ms(40)));
        assert!(s.is_degraded());
        assert_eq!(s.stats.degradations, 1);
        // First poll after degrading emits the recovery hello immediately.
        assert!(s.poll(ms(40), true).send_hello);
    }

    #[test]
    fn stale_quacks_never_count() {
        let mut s = Supervisor::new(cfg());
        s.on_feedback_ok(ms(10));
        for t in 0..20 {
            assert!(!s.on_quack_error(&ProcessError::Stale, ms(20 + t)));
        }
        assert!(!s.is_degraded());
        assert_eq!(s.stats.errors_observed, 0);
    }

    #[test]
    fn stale_quacks_refresh_liveness() {
        let mut s = Supervisor::new(cfg());
        s.on_handshake_ack(ms(10));
        s.note_send(ms(20));
        // Only stale quACKs arrive (quiet tail): channel is alive, so the
        // liveness clock must keep moving even though nothing decodes new.
        s.on_quack_error(&ProcessError::Stale, ms(900));
        assert!(!s.poll(ms(1_000), true).degraded_now);
        // But stale traffic alone cannot postpone liveness forever once the
        // producer actually stops talking.
        assert!(s.poll(ms(1_500), true).degraded_now);
    }

    #[test]
    fn successes_reset_the_error_budget() {
        let mut s = Supervisor::new(cfg());
        s.on_feedback_ok(ms(10));
        s.note_error(ms(20));
        s.note_error(ms(30));
        s.on_feedback_ok(ms(40)); // budget refilled
        assert!(!s.note_error(ms(50)));
        assert!(!s.note_error(ms(60)));
        assert!(s.note_error(ms(70)));
    }

    #[test]
    fn liveness_timeout_degrades_only_when_feedback_is_owed() {
        let mut s = Supervisor::new(cfg());
        s.on_handshake_ack(ms(10));
        // Idle (nothing sent): never degrades no matter how long.
        let p = s.poll(ms(10_000), true);
        assert!(!p.degraded_now);
        // Sends outstanding but caller says no feedback expected: no trip.
        s.note_send(ms(10_000));
        assert!(!s.poll(ms(20_000), false).degraded_now);
        // Feedback owed and overdue: degrade and ask for a hello.
        let p = s.poll(ms(20_000), true);
        assert!(p.degraded_now);
        assert!(p.send_hello);
        assert!(s.is_degraded());
    }

    #[test]
    fn recovery_via_handshake_ack_counts() {
        let mut s = Supervisor::new(cfg());
        s.on_handshake_ack(ms(10));
        s.note_send(ms(20));
        assert!(s.poll(ms(1_000), true).degraded_now);
        assert!(s.on_handshake_ack(ms(1_200)));
        assert_eq!(s.state(), SupervisorState::Active);
        assert_eq!(s.stats.recoveries, 1);
        // Fresh feedback accounting after recovery.
        assert!(!s.poll(ms(1_250), true).degraded_now);
    }

    #[test]
    fn handshake_recovery_is_probational() {
        let mut s = Supervisor::new(cfg());
        s.on_feedback_ok(ms(10));
        s.note_error(ms(20));
        s.note_error(ms(30));
        assert!(s.note_error(ms(40)));
        assert!(s.on_handshake_ack(ms(50)));
        // A lone decodable Reset can survive a still-broken channel: one
        // more hard error re-degrades immediately, no fresh budget.
        assert!(s.note_error(ms(60)));
        assert_eq!(s.stats.degradations, 2);
        // A clean quACK lifts the probation and refills the budget.
        assert!(s.on_handshake_ack(ms(70)));
        s.on_feedback_ok(ms(80));
        assert!(!s.note_error(ms(90)));
        assert!(!s.note_error(ms(100)));
        assert!(s.note_error(ms(110)));
    }

    #[test]
    fn transition_log_records_edges_in_order() {
        let mut s = Supervisor::new(cfg());
        s.on_handshake_ack(ms(10)); // Connecting → Active
        s.note_send(ms(20));
        assert!(s.poll(ms(1_000), true).degraded_now); // Active → Degraded
        assert!(s.on_handshake_ack(ms(1_200))); // Degraded → Active
        let log = s.take_transitions();
        let edges: Vec<(SupervisorState, SupervisorState)> =
            log.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            edges,
            vec![
                (SupervisorState::Connecting, SupervisorState::Active),
                (SupervisorState::Active, SupervisorState::Degraded),
                (SupervisorState::Degraded, SupervisorState::Active),
            ]
        );
        assert_eq!(log[1].at, ms(1_000));
        // Drained: the log starts over.
        assert!(s.take_transitions().is_empty());
        assert_eq!(s.transitions().count(), 0);
    }

    #[test]
    fn transition_log_is_bounded_when_never_drained() {
        let mut s = Supervisor::new(cfg());
        s.on_feedback_ok(ms(0));
        for i in 0..300u64 {
            while !s.is_degraded() {
                s.note_error(ms(1 + i));
            }
            s.on_handshake_ack(ms(1 + i));
        }
        assert_eq!(s.transitions().count(), 128);
        // The retained suffix is the most recent edges and stays contiguous.
        let log: Vec<_> = s.transitions().copied().collect();
        for pair in log.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
        }
    }

    #[test]
    fn hello_backoff_persists_across_flaps() {
        let mut s = Supervisor::new(cfg());
        s.on_handshake_ack(ms(0));
        s.note_send(ms(1));
        // First degrade: hello now, next retry 100ms out (backoff → 200).
        let p = s.poll(ms(1_000), true);
        assert!(p.degraded_now && p.send_hello);
        assert_eq!(p.next_deadline, Some(ms(1_100)));
        s.on_handshake_ack(ms(1_010)); // probational recovery
        s.note_send(ms(1_011));
        // Second flap: the escalated backoff carries over (200ms, → 400).
        let p = s.poll(ms(2_000), true);
        assert!(p.degraded_now && p.send_hello);
        assert_eq!(p.next_deadline, Some(ms(2_200)));
        // Clean feedback restores the fast cadence for the next incident.
        s.on_handshake_ack(ms(2_300));
        s.on_feedback_ok(ms(2_310));
        s.note_send(ms(2_311));
        let p = s.poll(ms(3_000), true);
        assert!(p.degraded_now && p.send_hello);
        assert_eq!(p.next_deadline, Some(ms(3_100)));
    }

    #[test]
    fn active_deadlines_are_always_in_the_future() {
        let mut s = Supervisor::new(cfg());
        s.on_handshake_ack(ms(10));
        // Long-idle session: the stale last_feedback must not produce a
        // deadline in the past (which would spin the timer loop).
        let p = s.poll(ms(50_000), false);
        assert!(p.next_deadline.unwrap() > ms(50_000));
    }
}
