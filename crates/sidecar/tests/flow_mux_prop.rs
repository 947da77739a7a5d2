//! Mux-transparency property: K flows interleaved through one flow table
//! must behave bit-identically to K isolated single-flow runs.
//!
//! The flow-aware refactor claims the [`FlowTable`] is pure plumbing — a
//! per-flow session looked up by id, with no cross-flow interference. This
//! test drives an arbitrary interleaving of K producer/consumer pairs
//! through one shared table, replays each flow's exact event subsequence
//! (same timestamps, same delivery pattern, same quACK schedule) through a
//! standalone pair, and demands identical confirmed-loss sets, epochs, and
//! counts.
//!
//! The slab rebuild adds two layers on top:
//!
//! * the same transparency property at K up to 1024 under *adversarial*
//!   interleavings — strict round-robin (maximally interleaved, every
//!   packet lands on a different slot than its predecessor), bursty
//!   per-flow runs (the fold-bucketing fast path), and eviction-and-return
//!   (slot recycling through the free list while neighbours keep state);
//! * a policy oracle: an arbitrary op soup (touch / remove / evict-if-idle
//!   / sweep, strictly increasing timestamps) must leave the slab and a
//!   `Vec`-scan model of the eviction policy ([`ScanTable`]) with identical
//!   surviving flows, per-flow quACK state, eviction results, and stats.

use proptest::prelude::*;
use sidecar_galois::Fp32;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::FlowId;
use sidecar_proto::{
    FlowTable, FlowTableConfig, FlowTableStats, ProcessError, QuackConsumer, QuackProducer,
    SidecarConfig, SidecarMessage,
};
use sidecar_quack::PowerSumQuack;
use std::collections::{BTreeMap, BTreeSet};

fn cfg(threshold: usize) -> SidecarConfig {
    SidecarConfig {
        threshold,
        reorder_grace: SimDuration::from_millis(1),
        ..SidecarConfig::paper_default()
    }
}

/// Distinct deterministic identifiers, disjoint across flows.
fn id_for(flow: usize, seq: u64) -> u64 {
    (flow as u64)
        .wrapping_mul(1_000_003)
        .wrapping_add(seq)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(1)
        % 4_294_967_291
}

/// One flow's session state, identical for muxed and isolated runs.
struct Session {
    producer: QuackProducer<Fp32>,
    consumer: QuackConsumer<Fp32>,
    seq: u64,
    lost: BTreeSet<u64>,
    resets: u32,
}

impl Session {
    fn new(threshold: usize) -> Self {
        Session {
            producer: QuackProducer::new(cfg(threshold)),
            consumer: QuackConsumer::new(cfg(threshold), SimDuration::from_millis(1)),
            seq: 0,
            lost: BTreeSet::new(),
            resets: 0,
        }
    }

    /// Ships one quACK producer→consumer and absorbs the outcome the way
    /// the protocols do (coordinated reset on overflow, leftovers lost).
    fn exchange(&mut self, t: SimTime) {
        let SidecarMessage::Quack { epoch, bytes } = self.producer.emit() else {
            unreachable!("emit() always yields a quACK");
        };
        match self.consumer.process_quack(t, epoch, &bytes) {
            Ok(_) | Err(ProcessError::Stale) => {}
            Err(ProcessError::ThresholdExceeded { .. }) | Err(ProcessError::CountInconsistent) => {
                let next = self.consumer.epoch().wrapping_add(1);
                for entry in self.consumer.reset(next) {
                    self.lost.insert(entry.tag);
                }
                self.producer.reset(next);
                self.resets += 1;
            }
            Err(other) => panic!("unexpected quACK outcome: {other:?}"),
        }
    }

    /// One data packet: recorded at the consumer, observed by the producer
    /// iff it survived the subpath.
    fn step(&mut self, flow: usize, delivered: bool, quack_every: u64, t: SimTime) {
        let id = id_for(flow, self.seq);
        self.consumer.record_sent(id, self.seq, t);
        if delivered {
            self.producer.observe(id);
        }
        self.seq += 1;
        if self.seq.is_multiple_of(quack_every) {
            self.exchange(t);
        }
    }

    /// Final quACK plus grace expiry; returns the flow's fingerprint.
    fn finish(mut self, t: SimTime) -> (BTreeSet<u64>, u32, u32, u64) {
        self.exchange(t);
        for loss in self.consumer.poll_expired(t + SimDuration::from_secs(1)) {
            self.lost.insert(loss.tag);
        }
        (self.lost, self.resets, self.consumer.epoch(), self.seq)
    }
}

/// Runs the interleaved schedule through one shared flow table.
fn run_muxed(
    events: &[(usize, bool)],
    flows: usize,
    quack_every: u64,
    threshold: usize,
) -> Vec<(BTreeSet<u64>, u32, u32, u64)> {
    let mut table: FlowTable<Session> = FlowTable::new(FlowTableConfig {
        shards: 4,
        per_shard: 4,
        idle_timeout: SimDuration::from_secs(3_600),
    });
    for (i, &(flow, delivered)) in events.iter().enumerate() {
        let t = SimTime::ZERO + SimDuration::from_millis(i as u64);
        let (_, session) =
            table.get_or_insert_with(FlowId(flow as u32), t, || Session::new(threshold));
        session.step(flow, delivered, quack_every, t);
    }
    let t_end = SimTime::ZERO + SimDuration::from_millis(events.len() as u64);
    (0..flows)
        .map(|flow| {
            table
                .remove(FlowId(flow as u32))
                .map(|s| s.finish(t_end))
                .unwrap_or_else(|| (BTreeSet::new(), 0, 0, 0))
        })
        .collect()
}

/// Replays one flow's exact subsequence through an isolated pair.
fn run_isolated(
    events: &[(usize, bool)],
    flow: usize,
    quack_every: u64,
    threshold: usize,
) -> (BTreeSet<u64>, u32, u32, u64) {
    let mut session = Session::new(threshold);
    let mut touched = false;
    for (i, &(f, delivered)) in events.iter().enumerate() {
        if f != flow {
            continue;
        }
        touched = true;
        let t = SimTime::ZERO + SimDuration::from_millis(i as u64);
        session.step(flow, delivered, quack_every, t);
    }
    if !touched {
        return (BTreeSet::new(), 0, 0, 0);
    }
    session.finish(SimTime::ZERO + SimDuration::from_millis(events.len() as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// K interleaved flows through one table ≡ K isolated runs.
    #[test]
    fn muxing_is_transparent(
        flows in 2usize..6,
        events in proptest::collection::vec((0usize..6, any::<bool>()), 1..300),
        quack_every in 2u64..20,
        threshold in 4usize..16,
    ) {
        let events: Vec<(usize, bool)> =
            events.into_iter().map(|(f, d)| (f % flows, d)).collect();
        let muxed = run_muxed(&events, flows, quack_every, threshold);
        for (flow, muxed_flow) in muxed.iter().enumerate() {
            let isolated = run_isolated(&events, flow, quack_every, threshold);
            prop_assert_eq!(
                muxed_flow,
                &isolated,
                "flow {} diverged between muxed and isolated runs",
                flow
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial interleavings at scale (slab engine, K up to 1024)
// ---------------------------------------------------------------------------

/// A scheduled proxy event: one data packet for a flow, or an explicit
/// eviction (the slot returns to the free list; the flow's next packet
/// re-creates it from scratch — in a recycled slot, under adversarial
/// schedules the *same* slot another flow's state just vacated).
#[derive(Clone, Copy, Debug)]
enum Ev {
    Packet { flow: usize, delivered: bool },
    Evict { flow: usize },
}

/// Tiny deterministic generator so the big-K schedules stay cheap to
/// produce and shrink (proptest only picks `seed`, not the event soup).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// True with probability `num`/`den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

/// Maximally interleaved: every packet lands on a different flow (and
/// shard/slot) than its predecessor — the worst case for any scheme that
/// caches "the current flow".
fn round_robin_schedule(k: usize, rounds: usize, seed: u64) -> Vec<Ev> {
    let mut lcg = Lcg(seed | 1);
    let mut events = Vec::with_capacity(k * rounds);
    for _ in 0..rounds {
        for flow in 0..k {
            events.push(Ev::Packet {
                flow,
                delivered: lcg.chance(9, 10),
            });
        }
    }
    events
}

/// Bursty per-flow runs: contiguous packets for one flow before switching —
/// the arrival shape the slot-bucketed fold path is built for.
fn bursty_schedule(k: usize, burst: usize, bursts: usize, seed: u64) -> Vec<Ev> {
    let mut lcg = Lcg(seed | 1);
    let mut events = Vec::with_capacity(burst * bursts);
    for _ in 0..bursts {
        let flow = (lcg.next() as usize) % k;
        for _ in 0..burst {
            events.push(Ev::Packet {
                flow,
                delivered: lcg.chance(9, 10),
            });
        }
    }
    events
}

/// Round-robin with rotating explicit evictions: flows leave mid-run and
/// return later, recycling slots out of the free list while their
/// neighbours' sessions must stay untouched.
fn eviction_and_return_schedule(k: usize, rounds: usize, evict_every: usize, seed: u64) -> Vec<Ev> {
    let mut lcg = Lcg(seed | 1);
    let mut events = Vec::new();
    let mut victim = 0usize;
    for round in 0..rounds {
        for flow in 0..k {
            events.push(Ev::Packet {
                flow,
                delivered: lcg.chance(9, 10),
            });
        }
        if (round + 1) % evict_every == 0 {
            events.push(Ev::Evict { flow: victim });
            victim = (victim + 7) % k;
        }
    }
    events
}

type Fingerprint = (BTreeSet<u64>, u32, u32, u64);

/// Runs a schedule through one shared slab table. Each eviction closes one
/// session *incarnation*; a flow's fingerprint is the list of its
/// incarnations' fingerprints in order.
fn run_muxed_ev(
    events: &[Ev],
    k: usize,
    quack_every: u64,
    threshold: usize,
) -> Vec<Vec<Fingerprint>> {
    let mut table: FlowTable<Session> =
        FlowTable::new(FlowTableConfig::sized_for(k, SimDuration::from_secs(3_600)));
    let mut fps: Vec<Vec<Fingerprint>> = (0..k).map(|_| Vec::new()).collect();
    for (i, ev) in events.iter().enumerate() {
        let t = SimTime::ZERO + SimDuration::from_millis(i as u64);
        match *ev {
            Ev::Packet { flow, delivered } => {
                let (_, session) =
                    table.get_or_insert_with(FlowId(flow as u32), t, || Session::new(threshold));
                session.step(flow, delivered, quack_every, t);
            }
            Ev::Evict { flow } => {
                if let Some(session) = table.remove(FlowId(flow as u32)) {
                    fps[flow].push(session.finish(t));
                }
            }
        }
    }
    let t_end = SimTime::ZERO + SimDuration::from_millis(events.len() as u64);
    for (flow, fp) in fps.iter_mut().enumerate().take(k) {
        if let Some(session) = table.remove(FlowId(flow as u32)) {
            fp.push(session.finish(t_end));
        }
    }
    fps
}

/// Replays every flow's exact event subsequence through isolated sessions,
/// splitting incarnations at the same eviction points.
fn run_isolated_ev(
    events: &[Ev],
    k: usize,
    quack_every: u64,
    threshold: usize,
) -> Vec<Vec<Fingerprint>> {
    // One pass to bucket events per flow (the naive per-flow scan is
    // O(K·events) and K reaches 1024 here).
    let mut per_flow: Vec<Vec<(usize, Option<bool>)>> = (0..k).map(|_| Vec::new()).collect();
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            Ev::Packet { flow, delivered } => per_flow[flow].push((i, Some(delivered))),
            Ev::Evict { flow } => per_flow[flow].push((i, None)),
        }
    }
    let t_end = SimTime::ZERO + SimDuration::from_millis(events.len() as u64);
    per_flow
        .into_iter()
        .enumerate()
        .map(|(flow, evs)| {
            let mut fps = Vec::new();
            let mut session: Option<Session> = None;
            for (i, delivered) in evs {
                let t = SimTime::ZERO + SimDuration::from_millis(i as u64);
                match delivered {
                    Some(delivered) => session.get_or_insert_with(|| Session::new(threshold)).step(
                        flow,
                        delivered,
                        quack_every,
                        t,
                    ),
                    None => {
                        if let Some(s) = session.take() {
                            fps.push(s.finish(t));
                        }
                    }
                }
            }
            if let Some(s) = session.take() {
                fps.push(s.finish(t_end));
            }
            fps
        })
        .collect()
}

fn assert_schedule_transparent(
    events: &[Ev],
    k: usize,
    quack_every: u64,
    threshold: usize,
) -> Result<(), TestCaseError> {
    let muxed = run_muxed_ev(events, k, quack_every, threshold);
    let isolated = run_isolated_ev(events, k, quack_every, threshold);
    for (flow, (m, i)) in muxed.iter().zip(isolated.iter()).enumerate() {
        prop_assert_eq!(m, i, "flow {} diverged (k={})", flow, k);
    }
    Ok(())
}

proptest! {
    // Big-K runs are expensive; a handful of cases per shape is plenty —
    // the schedules themselves are the adversarial part, not the sampling.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Strict round-robin interleaving at K up to 1024.
    #[test]
    fn mux_transparent_round_robin_at_scale(
        k in prop_oneof![Just(16usize), Just(128), Just(1024)],
        rounds in 2usize..4,
        quack_every in 2u64..8,
        seed in any::<u64>(),
    ) {
        let events = round_robin_schedule(k, rounds, seed);
        assert_schedule_transparent(&events, k, quack_every, 8)?;
    }

    /// Bursty per-flow runs (contiguous arrivals) at K up to 512.
    #[test]
    fn mux_transparent_bursty_runs(
        k in prop_oneof![Just(8usize), Just(64), Just(512)],
        burst in 2usize..16,
        bursts in 8usize..48,
        quack_every in 2u64..8,
        seed in any::<u64>(),
    ) {
        let events = bursty_schedule(k, burst, bursts, seed);
        assert_schedule_transparent(&events, k, quack_every, 8)?;
    }

    /// Eviction-and-return: slots recycle through the free list mid-run.
    #[test]
    fn mux_transparent_eviction_and_return(
        k in prop_oneof![Just(8usize), Just(64), Just(256)],
        rounds in 4usize..8,
        evict_every in 1usize..4,
        quack_every in 2u64..8,
        seed in any::<u64>(),
    ) {
        let events = eviction_and_return_schedule(k, rounds, evict_every, seed);
        assert_schedule_transparent(&events, k, quack_every, 8)?;
    }
}

// ---------------------------------------------------------------------------
// Slab-vs-model policy oracle
// ---------------------------------------------------------------------------

/// One flow-table operation. Timestamps increase strictly monotonically
/// across the op sequence, which makes LRU order well-defined (the model
/// breaks recency ties by scan order, the slab by list position — with
/// distinct timestamps there are no ties to break).
#[derive(Clone, Copy, Debug)]
enum TableOp {
    /// Ensure the flow exists (possibly capacity-evicting the shard's LRU)
    /// and fold one identifier into its quACK.
    Touch(u32),
    /// Explicitly remove the flow.
    Remove(u32),
    /// Evict the flow iff idle.
    EvictIfIdle(u32),
    /// Sweep every idle flow.
    Sweep,
}

fn table_op() -> impl Strategy<Value = TableOp> {
    // The vendored propcheck union is uniform; repeating the touch branch
    // weights the mix toward the hot path (~2/3 touches).
    prop_oneof![
        (0u32..24).prop_map(TableOp::Touch),
        (0u32..24).prop_map(TableOp::Touch),
        (0u32..24).prop_map(TableOp::Touch),
        (0u32..24).prop_map(TableOp::Touch),
        (0u32..24).prop_map(TableOp::Remove),
        (0u32..24).prop_map(TableOp::EvictIfIdle),
        Just(TableOp::Sweep),
    ]
}

type Sketch = PowerSumQuack<Fp32>;

fn snapshot(table: &FlowTable<Sketch>) -> BTreeMap<u32, Sketch> {
    table.iter().map(|(f, s)| (f.0, s.clone())).collect()
}

/// The flow table's policy with none of its mechanism: per-shard `Vec`s of
/// `(flow, last used, session)`, scanned. Same shard placement, per-shard
/// cap, idle reclamation before LRU pressure, and counters as the slab.
struct ScanTable {
    cfg: FlowTableConfig,
    shards: Vec<Vec<(u32, SimTime, Sketch)>>,
    stats: FlowTableStats,
}

impl ScanTable {
    fn new(cfg: FlowTableConfig) -> Self {
        ScanTable {
            cfg,
            shards: vec![Vec::new(); cfg.shards],
            stats: FlowTableStats::default(),
        }
    }

    fn shard_of(&self, flow: u32) -> usize {
        let mixed = (flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> 32) as usize % self.cfg.shards
    }

    fn get_or_insert_with(
        &mut self,
        flow: u32,
        now: SimTime,
        init: impl FnOnce() -> Sketch,
    ) -> (bool, &mut Sketch) {
        let (idle, cap) = (self.cfg.idle_timeout, self.cfg.per_shard);
        let at = self.shard_of(flow);
        let (shard, stats) = (&mut self.shards[at], &mut self.stats);
        let created = !shard.iter().any(|e| e.0 == flow);
        if created {
            let before = shard.len();
            shard.retain(|e| e.1 + idle > now);
            stats.evicted_idle += (before - shard.len()) as u64;
            if shard.len() >= cap {
                let lru = (0..shard.len()).min_by_key(|&i| shard[i].1).unwrap();
                shard.remove(lru);
                stats.evicted_capacity += 1;
            }
            stats.shard_collisions += u64::from(!shard.is_empty());
            stats.created += 1;
            shard.push((flow, now, init()));
        }
        let entry = shard.iter_mut().find(|e| e.0 == flow).unwrap();
        entry.1 = now;
        (created, &mut entry.2)
    }

    fn remove(&mut self, flow: u32) -> Option<Sketch> {
        let at = self.shard_of(flow);
        let pos = self.shards[at].iter().position(|e| e.0 == flow)?;
        Some(self.shards[at].remove(pos).2)
    }

    fn evict_if_idle(&mut self, flow: u32, now: SimTime) -> Option<Sketch> {
        let (idle, at) = (self.cfg.idle_timeout, self.shard_of(flow));
        let pos = self.shards[at]
            .iter()
            .position(|e| e.0 == flow && e.1 + idle <= now)?;
        self.stats.evicted_idle += 1;
        Some(self.shards[at].remove(pos).2)
    }

    fn sweep_idle(&mut self, now: SimTime) -> Vec<(u32, Sketch)> {
        let idle = self.cfg.idle_timeout;
        let mut evicted = Vec::new();
        for shard in &mut self.shards {
            let (gone, kept): (Vec<_>, Vec<_>) = shard.drain(..).partition(|e| e.1 + idle <= now);
            *shard = kept;
            evicted.extend(gone.into_iter().map(|e| (e.0, e.2)));
        }
        self.stats.evicted_idle += evicted.len() as u64;
        evicted
    }

    fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &Sketch)> {
        self.shards.iter().flatten().map(|e| (e.0, &e.2))
    }

    fn take_stats(&mut self) -> Option<FlowTableStats> {
        let stats = std::mem::take(&mut self.stats);
        (stats != FlowTableStats::default()).then_some(stats)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The slab engine and the scan model are the same policy: an arbitrary
    /// op soup leaves identical surviving flows, per-flow quACK state,
    /// eviction results, and lifetime stats.
    #[test]
    fn slab_matches_legacy_oracle(
        ops in proptest::collection::vec(table_op(), 1..250),
        threshold in 2usize..6,
    ) {
        // Deliberately tiny: 2 shards × 3 slots so capacity evictions and
        // free-list recycling happen constantly; a short idle timeout so
        // sweeps bite mid-sequence.
        let cfg = FlowTableConfig {
            shards: 2,
            per_shard: 3,
            idle_timeout: SimDuration::from_millis(80),
        };
        let mut slab: FlowTable<Sketch> = FlowTable::new(cfg);
        let mut model = ScanTable::new(cfg);
        let mut next_id = 0u64;
        for (i, op) in ops.iter().enumerate() {
            // Strictly increasing, never-equal timestamps (see enum doc).
            let t = SimTime::ZERO + SimDuration::from_millis(10 * (i as u64 + 1));
            match *op {
                TableOp::Touch(f) => {
                    next_id += 1;
                    let id = next_id;
                    let (c_slab, s_slab) =
                        slab.get_or_insert_with(FlowId(f), t, || Sketch::new(threshold));
                    s_slab.insert(id);
                    let (c_model, s_model) =
                        model.get_or_insert_with(f, t, || Sketch::new(threshold));
                    s_model.insert(id);
                    prop_assert_eq!(c_slab, c_model, "created flag diverged on flow {}", f);
                }
                TableOp::Remove(f) => {
                    prop_assert_eq!(slab.remove(FlowId(f)), model.remove(f));
                }
                TableOp::EvictIfIdle(f) => {
                    prop_assert_eq!(
                        slab.evict_if_idle(FlowId(f), t),
                        model.evict_if_idle(f, t)
                    );
                }
                TableOp::Sweep => {
                    // Eviction *sets* must match; the tables may surface
                    // them in different orders (tail-walk vs scan).
                    let mut a: Vec<(u32, Sketch)> =
                        slab.sweep_idle(t).into_iter().map(|(f, s)| (f.0, s)).collect();
                    let mut b = model.sweep_idle(t);
                    a.sort_by_key(|(f, _)| *f);
                    b.sort_by_key(|(f, _)| *f);
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(slab.len(), model.len(), "live count diverged after op {}", i);
        }
        let survivors: BTreeMap<u32, Sketch> = model.iter().map(|(f, s)| (f, s.clone())).collect();
        prop_assert_eq!(snapshot(&slab), survivors);
        prop_assert_eq!(slab.take_stats(), model.take_stats());
    }
}
