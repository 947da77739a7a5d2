//! The three sidecar protocols of paper Table 1, as runnable scenarios.
//!
//! | Protocol | Proxy role | Server role | Client role |
//! |---|---|---|---|
//! | Congestion-control division (§2.1) | send and receive quACKs; pace the downstream segment | receive quACKs; steer the congestion window | send quACKs |
//! | ACK reduction (§2.2) | send quACKs | receive quACKs; move the sending window | none |
//! | In-network retransmission (§2.3) | send and receive quACKs; buffer and retransmit; tune frequency to the loss ratio | none | none |
//!
//! The table has only two roles, so the code has only two role
//! implementations: the crate-private `session` module holds *send quACKs*
//! (`ProducerHalf`), *receive quACKs* (`ConsumerHalf`) and the one control
//! channel both speak over (`CtrlChannel`: seal/open, send, sent counters).
//! The four proxy nodes also share the crate-private `proxy` module's
//! `ProxyCore`: flow table, folds, restart, announce and reclaim, written
//! once. Every node below is a composition of those pieces and keeps only
//! its cell's paper-level decision:
//!
//! * [`retx`] — buffer, retransmit, and retune the quACK frequency
//!   (sender side); adaptive-interval emission per flow (receiver side).
//! * [`ack_reduction`] — every-`n`-packets emission at the proxy; the
//!   server releases window space on quACK confirmations.
//! * [`ccd`] — paced forwarding with an AIMD rate at the proxy; the server
//!   steers its congestion window from the proxy's quACKs.
//!
//! The two quACK-receiving end hosts are one node (`server`), generic over
//! what a decoded report does to the window. [`manyflow`] muxes N flows
//! through one proxy tier for all three protocols.
//!
//! Every scenario comes with a baseline twin (plain forwarding, unmodified
//! hosts) so the benchmarks can report sidecar-vs-baseline shapes; all of
//! them run on one `Harness` (trace-ring sizing, fault lowering,
//! run-to-deadline, obs export).

pub mod ack_reduction;
pub mod ccd;
pub mod manyflow;
mod proxy;
pub mod retx;
mod server;
mod session;

use crate::messages::SidecarMessage;
use sidecar_netsim::fault::FaultPlan;
use sidecar_netsim::link::LinkConfig;
use sidecar_netsim::node::{Context, NodeId, TimerHandle};
use sidecar_netsim::telemetry::run_sampled;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::SenderCore;
use sidecar_netsim::world::World;

/// A guarded one-shot timer keeping at most one live chain in the queue.
///
/// The protocols share a small set of long-lived timers (grace poll,
/// supervision) that get re-armed from many call sites. The guard
/// deduplicates arms — re-arming at or after the pending deadline is a
/// no-op — and, when a *later* chain must be superseded by an earlier
/// deadline, cancels the stale queued event through its [`TimerHandle`]
/// instead of letting it fire and be filtered (the accumulating-timer
/// footgun PR 4 noted: every superseded arm used to stay in the world's
/// queue until its fire time).
#[derive(Debug)]
pub(crate) struct GuardedTimer {
    token: u64,
    armed: Option<(SimTime, TimerHandle)>,
}

impl GuardedTimer {
    /// A disarmed guard for the `token` chain.
    pub(crate) fn new(token: u64) -> Self {
        GuardedTimer { token, armed: None }
    }

    /// Arms the chain at `deadline` (clamped to now). If a chain is already
    /// pending at or before `deadline` this is a no-op; a pending *later*
    /// chain is cancelled and replaced.
    pub(crate) fn arm(&mut self, deadline: SimTime, ctx: &mut Context) {
        let deadline = deadline.max(ctx.now());
        if let Some((at, handle)) = self.armed {
            if at <= deadline {
                return; // the pending fire will re-arm past this deadline
            }
            ctx.cancel_timer(handle);
        }
        let handle = ctx.set_timer_at(deadline, self.token);
        self.armed = Some((deadline, handle));
    }

    /// Consumes a fire event. Returns `true` (and clears the guard) when
    /// the fire matches the live chain; `false` for stray events that must
    /// be ignored (e.g. a chain orphaned by a crash whose guard state was
    /// wiped in `on_restart`).
    pub(crate) fn fire(&mut self, ctx: &Context) -> bool {
        match self.armed {
            Some((at, _)) if at == ctx.now() => {
                self.armed = None;
                true
            }
            _ => false,
        }
    }

    /// Disarms the guard, cancelling the pending chain if any. A deadline
    /// strictly before now has already left the queue (timers pop in time
    /// order; one that fell inside an outage was discarded by the host), so
    /// its handle is dropped without a cancellation that nothing would
    /// ever collect.
    pub(crate) fn disarm(&mut self, ctx: &mut Context) {
        if let Some((at, handle)) = self.armed.take() {
            if at >= ctx.now() {
                ctx.cancel_timer(handle);
            }
        }
    }
}

/// Observability taps shared by the three protocols.
///
/// Through a [`Context`] built without a world handle (node unit tests)
/// every tap is a no-op.
pub(crate) mod obs {
    use super::manyflow::ManyFlowReport;
    use super::{ScenarioReport, SCOREBOARD_TOP_K};
    use crate::endpoint::{ProcessError, QuackReport};
    use crate::messages::SidecarMessage;
    use crate::supervise::{Supervisor, SupervisorState};
    use sidecar_netsim::node::Context;
    use sidecar_netsim::packet::Packet;
    use sidecar_netsim::world::World;
    use sidecar_obs::{Event, HealthDim, QuackErrorKind, SessionState, TimeSeries};

    /// Histogram bounds for the producer's burst-buffer fill at emit time
    /// (the lane batch is [`sidecar_galois::LANES`] = 8 wide; larger fills
    /// mean `observe_batch` bursts).
    const BATCH_FILL_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32];

    fn state(s: SupervisorState) -> SessionState {
        match s {
            SupervisorState::Connecting => SessionState::Connecting,
            SupervisorState::Active => SessionState::Active,
            SupervisorState::Degraded => SessionState::Degraded,
        }
    }

    /// A producer folded forwarded data packet `(flow, seq)` into its quACK
    /// sketch: the counter, plus the flight recorder's packet-identity
    /// event.
    pub(crate) fn observed(ctx: &mut Context, flow: u32, seq: u64) {
        ctx.obs_inc("quack.observed");
        let node = ctx.node_id().0 as u32;
        ctx.obs_event(Event::QuackFold { node, flow, seq });
    }

    /// A quACK left the producer: record the sketch coordinates and how
    /// full the lane batch was when `emit` flushed it.
    pub(crate) fn quack_emitted(
        ctx: &mut Context,
        epoch: u32,
        count: u32,
        fill: usize,
        bytes: u32,
    ) {
        let node = ctx.node_id().0 as u32;
        ctx.obs_observe("quack.batch_fill", BATCH_FILL_BOUNDS, fill as u64);
        ctx.obs_event(Event::BatchFill {
            node,
            fill: fill as u32,
        });
        ctx.obs_event(Event::QuackSent {
            node,
            epoch,
            count,
            bytes,
        });
    }

    /// The outcome of one `process_quack` call at a consumer, attributed to
    /// the flow whose sketch was decoded (decode failures feed the flow's
    /// health scoreboard row).
    pub(crate) fn quack_outcome(
        ctx: &mut Context,
        flow: u32,
        result: &Result<QuackReport, ProcessError>,
    ) {
        let node = ctx.node_id().0 as u32;
        match result {
            Ok(report) => {
                ctx.obs_inc("quack.decoded");
                ctx.obs_add("quack.confirmed_received", report.received.len() as u64);
                ctx.obs_add("quack.newly_missing", report.newly_missing.len() as u64);
                ctx.obs_event(Event::QuackDecoded {
                    node,
                    received: report.received.len() as u32,
                    missing: report.newly_missing.len() as u32,
                });
            }
            Err(err) => {
                let (name, kind) = match err {
                    ProcessError::ThresholdExceeded { .. } => {
                        ("quack.err.threshold", QuackErrorKind::Threshold)
                    }
                    ProcessError::WrongEpoch { .. } => {
                        ("quack.err.wrong_epoch", QuackErrorKind::WrongEpoch)
                    }
                    ProcessError::Stale => ("quack.err.stale", QuackErrorKind::Stale),
                    ProcessError::Malformed => ("quack.err.malformed", QuackErrorKind::Malformed),
                    ProcessError::CountInconsistent => (
                        "quack.err.count_inconsistent",
                        QuackErrorKind::CountInconsistent,
                    ),
                };
                ctx.obs_inc(name);
                ctx.obs_event(Event::QuackError { node, kind });
                ctx.obs_flow_health(flow, HealthDim::DecodeFail);
            }
        }
    }

    /// A `Hello` offer was processed by a producer.
    pub(crate) fn handshake(ctx: &mut Context, accepted: bool) {
        ctx.obs_inc(if accepted {
            "sidecar.handshake.accepted"
        } else {
            "sidecar.handshake.rejected"
        });
        let node = ctx.node_id().0 as u32;
        ctx.obs_event(Event::Handshake { node, accepted });
    }

    /// Forwards edges the supervisor recorded since the last flush into the
    /// world's trace and counters.
    pub(crate) fn sup_flush(ctx: &mut Context, sup: &mut Supervisor) {
        let node = ctx.node_id().0 as u32;
        for t in sup.take_transitions() {
            ctx.obs_inc("supervisor.transitions");
            ctx.obs_event(Event::Transition {
                node,
                from: state(t.from),
                to: state(t.to),
            });
        }
        // Published as a gauge so the live admin endpoint's `/healthz` can
        // read session health straight from the shared registry:
        // 0 = Connecting, 1 = Active, 2 = Degraded.
        ctx.obs_gauge(
            "supervisor.state",
            match sup.state() {
                SupervisorState::Connecting => 0.0,
                SupervisorState::Active => 1.0,
                SupervisorState::Degraded => 2.0,
            },
        );
    }

    /// Histogram bounds for a session's lifetime quACK count, recorded when
    /// the flow table reclaims it.
    const FLOW_QUACKS_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

    /// Publishes a flow table's counters-since-last-flush and its current
    /// occupancy gauge.
    pub(crate) fn flow_table<S>(ctx: &mut Context, table: &mut crate::flows::FlowTable<S>) {
        if let Some(d) = table.take_stats() {
            ctx.obs_add("flowtable.created", d.created);
            ctx.obs_add("flowtable.evicted.idle", d.evicted_idle);
            ctx.obs_add("flowtable.evicted.capacity", d.evicted_capacity);
            ctx.obs_add("flowtable.collisions", d.shard_collisions);
        }
        ctx.obs_gauge("flowtable.occupancy", table.len() as f64);
    }

    /// A per-flow session was reclaimed after emitting `quacks` quACKs.
    /// Eviction feeds the flow's scoreboard row: a repeatedly reclaimed flow
    /// is fighting the table for capacity.
    pub(crate) fn flow_evicted(ctx: &mut Context, flow: u32, quacks: u64) {
        ctx.obs_observe("flowtable.flow_quacks", FLOW_QUACKS_BOUNDS, quacks);
        ctx.obs_flow_health(flow, HealthDim::Eviction);
    }

    /// Publishes a fold buffer's batch-path counters since the last flush
    /// (batches handed to `insert_batch`, identifiers folded, identifiers
    /// dropped because their flow was evicted mid-buffer).
    pub(crate) fn fold_flush(ctx: &mut Context, folds: &mut crate::flows::FoldBuffer) {
        if let Some(d) = folds.take_stats() {
            ctx.obs_add("flowtable.fold.batches", d.batches);
            ctx.obs_add("flowtable.fold.ids", d.ids);
            ctx.obs_add("flowtable.fold.stale", d.stale);
        }
    }

    /// A quACK decode newly reported `(flow, seq)` missing on the proxied
    /// segment.
    pub(crate) fn decode_missing(ctx: &mut Context, flow: u32, seq: u64) {
        ctx.obs_inc("lifecycle.decode_missing");
        let node = ctx.node_id().0 as u32;
        ctx.obs_event(Event::DecodeMissing { node, flow, seq });
    }

    /// A sender-side proxy retransmitted buffered packet `(flow, seq)`.
    pub(crate) fn proxy_retx(ctx: &mut Context, flow: u32, seq: u64) {
        let node = ctx.node_id().0 as u32;
        ctx.obs_event(Event::ProxyRetx { node, flow, seq });
        ctx.obs_flow_health(flow, HealthDim::ProxyRetx);
    }

    /// A control datagram arrived for a flow this node holds no session
    /// for (never seen, reclaimed, or — at an end host — someone else's).
    pub(crate) fn flow_mismatch(ctx: &mut Context) {
        ctx.obs_inc("sidecar.flow_mismatch");
    }

    /// An encoded control message exceeded the single-datagram maximum and
    /// was refused.
    pub(crate) fn ctrl_oversized(ctx: &mut Context) {
        ctx.obs_inc("sidecar.err.oversized");
    }

    /// A control datagram is about to leave: per-kind and byte counters,
    /// plus the flight-recorder stamp. Control datagrams have no packet
    /// number, so each gets a world-scoped control sequence.
    pub(crate) fn ctrl_sent(ctx: &mut Context, msg: &SidecarMessage, pkt: &mut Packet) {
        ctx.obs_inc(match msg {
            SidecarMessage::Quack { .. } => "sidecar.sent.quack",
            SidecarMessage::Configure { .. } => "sidecar.sent.configure",
            SidecarMessage::Reset { .. } => "sidecar.sent.reset",
            SidecarMessage::Hello { .. } => "sidecar.sent.hello",
        });
        ctx.obs_add("sidecar.sent_bytes", pkt.size as u64);
        pkt.seq = ctx.next_ctrl_seq();
    }

    /// An authenticated control channel accepted (`None`) or rejected an
    /// inbound datagram; a rejection gets its per-kind counter plus an
    /// attributable trace event.
    pub(crate) fn auth_outcome(ctx: &mut Context, rejected: Option<&crate::auth::AuthError>) {
        use crate::auth::AuthError;
        use sidecar_obs::AuthRejectKind;
        let Some(err) = rejected else {
            ctx.obs_inc("auth.accepted");
            return;
        };
        let (counter, kind) = match err {
            AuthError::NotAuthenticated(_) => (
                "auth.rejected.unauthenticated",
                AuthRejectKind::Unauthenticated,
            ),
            AuthError::Truncated => ("auth.rejected.truncated", AuthRejectKind::Truncated),
            AuthError::UnknownKey(_) => ("auth.rejected.unknown_key", AuthRejectKind::UnknownKey),
            AuthError::BadMac => ("auth.rejected.bad_mac", AuthRejectKind::BadMac),
            AuthError::Replayed => ("auth.rejected.replayed", AuthRejectKind::Replayed),
            AuthError::Stale => ("auth.rejected.stale", AuthRejectKind::Stale),
            AuthError::Malformed(_) => ("auth.rejected.malformed", AuthRejectKind::Malformed),
        };
        ctx.obs_inc(counter);
        let node = ctx.node_id().0 as u32;
        ctx.obs_event(Event::AuthReject { node, kind });
        // Scoreboard attribution: a datagram that failed authentication
        // cannot be trusted to name its flow (the flow field is exactly what
        // a forger controls), so every auth reject lands on the sentinel
        // flow-0 row rather than smearing forged ids across the table.
        ctx.obs_flow_health(0, HealthDim::AuthReject);
    }

    /// Snapshots the world registry and flight recorder at quiescence.
    fn snapshot(w: &World) -> (sidecar_obs::MetricsSnapshot, sidecar_obs::EventTrace) {
        (w.obs().metrics.snapshot(), w.obs().trace.clone())
    }

    /// Fills a scenario report's obs fields from the finished world.
    pub(crate) fn export(w: &World, series: TimeSeries, report: &mut ScenarioReport) {
        (report.metrics, report.trace) = snapshot(w);
        report.timeseries = series;
        report.scoreboard = w.obs().scoreboard.snapshot(SCOREBOARD_TOP_K);
    }

    /// Fills a many-flow report's obs fields (and the eviction totals, which
    /// live in the registry) from the finished world.
    pub(crate) fn export_manyflow(w: &World, report: &mut ManyFlowReport) {
        (report.metrics, report.trace) = snapshot(w);
        report.evictions_idle = report.metrics.counter("flowtable.evicted.idle");
        report.evictions_capacity = report.metrics.counter("flowtable.evicted.capacity");
    }
}

/// Metrics common to all protocol scenarios.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioReport {
    /// Flow completion time, if the flow finished.
    pub completion: Option<SimTime>,
    /// Application goodput in bits/s over the completed flow.
    pub goodput_bps: Option<f64>,
    /// Packets transmitted by the server (including retransmissions).
    pub server_sent: u64,
    /// End-to-end retransmissions by the server.
    pub server_retransmissions: u64,
    /// ACK packets sent by the client.
    pub client_acks: u64,
    /// Sidecar datagrams (quACKs + control) transmitted.
    pub sidecar_messages: u64,
    /// Sidecar bytes transmitted.
    pub sidecar_bytes: u64,
    /// In-network retransmissions performed by proxies (retx protocol).
    pub proxy_retransmissions: u64,
    /// Supervisor transitions into degraded (baseline fallback) mode,
    /// summed across the run's supervised consumers.
    pub degradations: u64,
    /// Supervisor recoveries out of degraded mode.
    pub recoveries: u64,
    /// Snapshot of the run's world metrics registry (simulator drop/fault
    /// counters plus the sidecar taps above). Deterministic for a given
    /// `(scenario, seed)`; empty on baseline runs.
    pub metrics: sidecar_obs::MetricsSnapshot,
    /// The run's flight-recorder event ring (lifecycle + protocol events),
    /// snapshotted at quiescence. Deterministic for a given
    /// `(scenario, seed)`; empty on baseline runs.
    pub trace: sidecar_obs::EventTrace,
    /// Windowed metrics time-series, sampled on the sim clock when the
    /// scenario sets a sampling interval (e.g.
    /// [`RetxScenario::sample_interval`](crate::protocols::retx::RetxScenario));
    /// empty otherwise. Deterministic for a given `(scenario, seed)`.
    pub timeseries: sidecar_obs::TimeSeries,
    /// Final per-flow health ranking (top [`SCOREBOARD_TOP_K`] rows) from
    /// the world's scoreboard; empty on baseline runs.
    pub scoreboard: sidecar_obs::ScoreboardSnapshot,
}

/// How many scoreboard rows scenario reports retain (the full table keeps
/// every flow; reports carry only the unhealthiest ranks).
pub const SCOREBOARD_TOP_K: usize = 16;

impl ScenarioReport {
    /// Completion time in seconds (∞ if the flow never finished —
    /// convenient for table printing).
    pub fn completion_secs(&self) -> f64 {
        self.completion.map_or(f64::INFINITY, |t| t.as_secs_f64())
    }
}

/// One scenario run: the world plus the plumbing every runner shares —
/// flight-recorder sizing, fault lowering, run-to-deadline, and the report
/// skeleton read off the server's transport and the world's obs state.
pub(crate) struct Harness {
    pub(crate) w: World,
    /// Sample the metrics registry this often (on the sim clock) while
    /// running; `None` skips sampling.
    pub(crate) sample: Option<SimDuration>,
    series: sidecar_obs::TimeSeries,
}

impl Harness {
    /// Simulated-time budget of the single-flow scenarios. Periodic sidecar
    /// timers never let the event queue drain, so runs go to a generous
    /// deadline and read completion from the sender's stats.
    const DEADLINE: SimDuration = SimDuration::from_secs(120);

    /// A fresh seeded world, its trace ring resized when asked.
    pub(crate) fn new(seed: u64, trace_capacity: Option<usize>) -> Self {
        let mut w = World::new(seed);
        if let Some(capacity) = trace_capacity {
            w.obs_mut().resize_trace(capacity);
        }
        Harness {
            w,
            sample: None,
            series: sidecar_obs::TimeSeries::default(),
        }
    }

    /// Wires `chain` into a line: `links[i]` (both directions) joins
    /// `chain[i]` and `chain[i + 1]`.
    pub(crate) fn connect_line(&mut self, chain: &[NodeId], links: &[&LinkConfig]) {
        for (pair, &link) in chain.windows(2).zip(links) {
            self.w.connect(pair[0], pair[1], link.clone(), link.clone());
        }
    }

    /// Runs for `budget` of simulated time, sampling the world registry
    /// every `sample` (on the sim clock) when set.
    pub(crate) fn run(&mut self, budget: SimDuration) {
        let deadline = SimTime::ZERO + budget;
        match self.sample {
            Some(interval) => {
                let registry = self.w.obs().metrics.clone();
                let mut sampler = sidecar_obs::Sampler::default();
                run_sampled(&mut self.w, &registry, deadline, interval, &mut sampler);
                self.series = sampler.into_series();
            }
            None => {
                self.w.run_until(deadline);
            }
        }
    }

    /// The single-flow scenario run: wires `line` (server, proxy, …,
    /// client) over `links`, lowers `faults` onto it — the crash hits the
    /// first proxy, the blackout the segment after it — and runs to the
    /// deadline.
    pub(crate) fn run_line(
        &mut self,
        line: &[NodeId],
        links: &[&LinkConfig],
        faults: &FaultScript,
    ) {
        self.connect_line(line, links);
        let plan = faults.lower(line[1], (line[1], line[2]));
        if !plan.is_empty() {
            self.w.install_faults(plan);
        }
        self.run(Self::DEADLINE);
    }

    /// The transport-level report of a finished run, read off the server's
    /// sender core and the client's ACK count. Sidecar runs go on to add
    /// their protocol counters and call [`Harness::export_obs`]; baseline
    /// runs keep the rest at its empty default.
    pub(crate) fn report(server: &SenderCore, client_acks: u64) -> ScenarioReport {
        let stats = server.stats();
        ScenarioReport {
            completion: stats.completed_at,
            goodput_bps: stats.goodput_bps(server.config().mtu),
            server_sent: stats.sent_packets,
            server_retransmissions: stats.retransmissions,
            client_acks,
            ..ScenarioReport::default()
        }
    }

    /// Attaches the world's metrics, trace, series and scoreboard to a
    /// sidecar run's report.
    pub(crate) fn export_obs(self, report: &mut ScenarioReport) {
        obs::export(&self.w, self.series, report);
    }
}

/// A role-based fault script for protocol scenarios.
///
/// Scenarios name their nodes by role (proxy, path endpoints); concrete
/// [`NodeId`]s only exist once a `World` is built, so the script is lowered
/// into a [`FaultPlan`] per run via [`FaultScript::lower`]. The same script
/// drives both the sidecar run and its baseline twin, keeping faulted
/// comparisons apples-to-apples: identical crash windows, blackouts, and
/// control-channel weather.
#[derive(Clone, Debug, Default)]
pub struct FaultScript {
    /// Seed for fault-injection randomness (corruption bit picks),
    /// independent of the world seed.
    pub fault_seed: u64,
    /// Crash the stateful proxy at `.0`, restart it at `.1` (volatile
    /// sidecar state is lost; see `Node::on_restart`).
    pub proxy_crash: Option<(SimTime, SimTime)>,
    /// Crash the proxy at this time and never restart it.
    pub proxy_kill: Option<SimTime>,
    /// Black out every link between the scenario's designated path pair.
    pub path_blackout: Option<(SimTime, SimTime)>,
    /// Drop all sidecar control datagrams (quACKs included) in the window.
    pub drop_control: Option<(SimTime, SimTime)>,
    /// Duplicate sidecar control datagrams in the window.
    pub duplicate_control: Option<(SimTime, SimTime)>,
    /// Delay sidecar control datagrams by `.0` in the window `.1..$.2`.
    pub delay_control: Option<(SimDuration, SimTime, SimTime)>,
    /// Flip up to `.0` random bits of each sidecar payload in the window.
    pub corrupt_control: Option<(u32, SimTime, SimTime)>,
    /// Active adversary: inject a well-formed, wrong-content forged quACK
    /// alongside every sidecar datagram in the window. The forgery parses
    /// cleanly at an unauthenticated receiver (where its bogus epoch then
    /// pollutes the session); an authenticated receiver rejects it outright.
    pub forge_control: Option<(SimTime, SimTime)>,
    /// Active adversary: replay each captured sidecar datagram `.0` times,
    /// each copy an extra `.1` late, in the window `.2..$.3`.
    pub replay_control: Option<(u32, SimDuration, SimTime, SimTime)>,
    /// Active adversary: deliver a copy with up to `.0` flipped bits next
    /// to every sidecar datagram in the window `.1..$.2` (original
    /// untouched).
    pub tamper_control: Option<(u32, SimTime, SimTime)>,
    /// Stateful firewall: control flows idle longer than `.0` lose their
    /// next datagram during the window `.1..$.2`.
    pub firewall_idle: Option<(SimDuration, SimTime, SimTime)>,
}

impl FaultScript {
    /// Whether the script injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.proxy_crash.is_none()
            && self.proxy_kill.is_none()
            && self.path_blackout.is_none()
            && self.drop_control.is_none()
            && self.duplicate_control.is_none()
            && self.delay_control.is_none()
            && self.corrupt_control.is_none()
            && self.forge_control.is_none()
            && self.replay_control.is_none()
            && self.tamper_control.is_none()
            && self.firewall_idle.is_none()
    }

    /// Lowers the script onto a built topology: `proxy` receives the
    /// crash/kill faults, `path` the blackout.
    pub fn lower(&self, proxy: NodeId, path: (NodeId, NodeId)) -> FaultPlan {
        let mut plan = FaultPlan::new(self.fault_seed);
        if let Some((from, until)) = self.proxy_crash {
            plan = plan.crash_restart(proxy, from, until);
        }
        if let Some(at) = self.proxy_kill {
            plan = plan.kill(proxy, at);
        }
        if let Some((from, until)) = self.path_blackout {
            plan = plan.blackout_between(path.0, path.1, from, until);
        }
        if let Some((from, until)) = self.drop_control {
            plan = plan.drop_control(from, until);
        }
        if let Some((from, until)) = self.duplicate_control {
            plan = plan.duplicate_control(from, until);
        }
        if let Some((extra, from, until)) = self.delay_control {
            plan = plan.delay_control(extra, from, until);
        }
        if let Some((max_flips, from, until)) = self.corrupt_control {
            plan = plan.corrupt_control(max_flips, from, until);
        }
        if let Some((from, until)) = self.forge_control {
            let (proto, body) = Self::forged_quack().encode_for_flow(0);
            plan = plan.forge_control(proto, body, from, until);
        }
        if let Some((copies, delay, from, until)) = self.replay_control {
            plan = plan.replay_control(copies, delay, from, until);
        }
        if let Some((max_flips, from, until)) = self.tamper_control {
            plan = plan.tamper_control(max_flips, from, until);
        }
        if let Some((idle, from, until)) = self.firewall_idle {
            plan = plan.firewall_control(idle, from, until);
        }
        plan
    }

    /// The adversary's forgery: a syntactically valid quACK with
    /// attacker-chosen content. An unauthenticated receiver decodes it
    /// cleanly and only notices the bogus epoch downstream; an
    /// authenticated receiver never even parses the body.
    pub fn forged_quack() -> SidecarMessage {
        SidecarMessage::Quack {
            epoch: 0xDEAD_BEEF,
            bytes: vec![0x5A; 82],
        }
    }
}
