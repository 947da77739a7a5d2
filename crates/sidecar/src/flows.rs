//! A bounded, slab-backed table of per-flow sidecar sessions.
//!
//! The paper's three protocols (§2.1–§2.3) are *per-connection* mechanisms:
//! a quACK sketch summarizes the packets of one flow, and mixing two flows
//! into one sketch makes the decoded missing-set meaningless to both. A
//! deployed sidecar therefore keys its producer/consumer state on the
//! cleartext 4-tuple ([`sidecar_netsim::packet::Packet::flow`]) — and,
//! because it serves arbitrarily many connections with finite memory, that
//! state must live behind a bounded table with an explicit eviction policy
//! (the central deployment problem for transparent QUIC PEPs; see
//! PEMI / Secure Middlebox-Assisted QUIC).
//!
//! [`FlowTable`] is that table, built for the ISP-scale vantage point the
//! paper deploys at (100k+ concurrent flows):
//!
//! * **Slab arena.** Sessions live in a free-listed slot arena that grows
//!   once to the configured capacity and then recycles slots forever —
//!   steady-state insert/evict churn never touches the allocator, and
//!   bytes/flow is a measurable constant ([`FlowTable::bytes_per_flow`]).
//! * **Open-addressed index.** A linear-probe hash table (sized to ≤ 0.5
//!   load, keyed by the same Fibonacci multiplicative hash that spreads
//!   flows over shards) maps `FlowId → slot` in O(1); deletions use
//!   backward-shift compaction, so probe chains never rot with tombstones.
//! * **Intrusive per-shard LRU.** Each shard threads its slots on an
//!   intrusive doubly-linked list (u32 slot indices, most recent at the
//!   head). Because touch times are monotone, the list tail is always the
//!   stalest entry, idle entries form a contiguous tail suffix, and both
//!   eviction triggers — the idle deadline and LRU-under-pressure — pop
//!   from the tail in O(1) per eviction.
//!
//! The eviction *policy* is a fixed shard count, a per-shard capacity cap,
//! and idle reclamation before LRU pressure (`flow_mux_prop.rs` checks it
//! against a `Vec`-scan model of exactly that policy). Eviction is
//! deliberately *safe*: sidecar state is an accelerator, never the source
//! of truth, so a reclaimed session costs one epoch resynchronization round
//! (the existing `Reset`/`Hello` machinery) and the flow falls back to its
//! end-to-end transport in the meantime.
//!
//! Interleaved multi-flow arrival is the realistic input at a shared
//! vantage point, and it defeats the producer's lane-parallel
//! `insert_batch` if every packet is folded one at a time. [`FoldBuffer`]
//! restores the batch: it buffers `(slot, identifier)` pairs as packets
//! arrive, then buckets them by slot with one in-place sort and hands each
//! flow's run to the caller as a contiguous batch — power-sum folds are
//! commutative within an epoch, so deferring them to the flush is
//! semantically free as long as callers flush before reading, resetting, or
//! evicting a sketch.
//!
//! The table is deterministic: shard placement depends only on the flow id,
//! slot assignment and iteration order only on the operation history, so
//! simulated runs stay reproducible for a given seed. Callers must supply
//! monotone non-decreasing `now` values (simulation time), which is what
//! keeps the LRU lists sorted by staleness.

use sidecar_netsim::packet::FlowId;
use sidecar_netsim::time::{SimDuration, SimTime};

/// Sizing and eviction knobs for a [`FlowTable`].
#[derive(Clone, Copy, Debug)]
pub struct FlowTableConfig {
    /// Number of shards (fixed at construction; values are clamped to at
    /// least 1). Flow ids are spread across shards by a multiplicative
    /// hash; a shard is the unit of LRU pressure, so shard count times
    /// [`FlowTableConfig::per_shard`] bounds capacity, not scan cost —
    /// every operation is O(1) regardless.
    pub shards: usize,
    /// Maximum live sessions per shard (clamped to at least 1). Total
    /// capacity is `shards * per_shard`.
    pub per_shard: usize,
    /// A session untouched for this long is evictable: inserts reclaim
    /// idle sessions before resorting to LRU, and [`FlowTable::sweep_idle`]
    /// reclaims them eagerly.
    pub idle_timeout: SimDuration,
}

impl Default for FlowTableConfig {
    /// Defaults sized so the classic single-flow scenarios never evict
    /// (capacity 8×64 = 512, idle deadline beyond their 120 s horizon).
    fn default() -> Self {
        FlowTableConfig {
            shards: 8,
            per_shard: 64,
            idle_timeout: SimDuration::from_secs(300),
        }
    }
}

impl FlowTableConfig {
    /// A config sized to hold `flows` concurrent sessions without capacity
    /// pressure: shard count rounded up to a power of two at a mean load
    /// of ≤ 64 flows, with per-shard caps of 128 — 2× headroom, because
    /// hashed shard placement is never perfectly balanced and a spuriously
    /// overfull shard would evict live flows. The many-flow benchmarks and
    /// scenarios use this to sweep table sizes without hand-picking shard
    /// counts.
    pub fn sized_for(flows: usize, idle_timeout: SimDuration) -> Self {
        let shards = flows.div_ceil(64).next_power_of_two();
        FlowTableConfig {
            shards,
            per_shard: 128,
            idle_timeout,
        }
    }
}

/// Monotonic occupancy/eviction counters, drained with
/// [`FlowTable::take_stats`] (delta-since-last-drain, so callers can feed
/// them straight into monotonic obs counters).
///
/// Counters are bumped at the single eviction/creation site, one event at
/// a time — never batch-added at the end of a sweep — so a drain taken
/// *between* the evictions of one sweep (e.g. a bounded
/// [`FlowTable::sweep_idle_limit`] interleaved with metric flushes) sees
/// exactly the evictions that happened, with no double count and no loss.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Sessions created.
    pub created: u64,
    /// Sessions reclaimed by the idle deadline.
    pub evicted_idle: u64,
    /// Sessions reclaimed by LRU pressure (insert into a full shard).
    pub evicted_capacity: u64,
    /// Inserts that landed in a shard already holding another flow.
    pub shard_collisions: u64,
}

impl FlowTableStats {
    /// Total evictions, either cause.
    pub fn evicted(&self) -> u64 {
        self.evicted_idle + self.evicted_capacity
    }

    fn is_empty(&self) -> bool {
        *self == FlowTableStats::default()
    }
}

/// Sentinel for "no slot" in the free list, LRU links, and the index.
const NIL: u32 = u32::MAX;

/// Why a slot is being reclaimed (selects the stats counter to bump).
enum EvictCause {
    Idle,
    Capacity,
    Remove,
}

/// One arena slot: session storage plus the intrusive LRU links.
///
/// `prev`/`next` thread the slot onto its shard's recency list while live
/// (`prev` toward the MRU head); `next` doubles as the free-list link while
/// dead. `gen` bumps every time the slot is freed, invalidating any
/// [`SlotId`] handed out for its previous occupant.
struct Slot<S> {
    flow: FlowId,
    last_used: SimTime,
    gen: u32,
    prev: u32,
    next: u32,
    session: Option<S>,
}

/// Head/tail of one shard's intrusive LRU list (head = most recent).
#[derive(Clone, Copy)]
struct ShardList {
    head: u32,
    tail: u32,
    len: u32,
}

impl ShardList {
    const EMPTY: ShardList = ShardList {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// A stable, generation-checked handle to a live table slot.
///
/// Hot paths that would otherwise probe the index twice per packet
/// (`ensure`, then lookup) hold the slot id returned by
/// [`FlowTable::ensure_slot`] and re-enter through
/// [`FlowTable::slot_entry_mut`] in O(1) with no hashing. A handle is
/// invalidated the moment its slot is evicted — even if the same flow (or
/// another) later reuses the slot — so stale handles can never touch the
/// wrong session, only miss.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SlotId {
    index: u32,
    gen: u32,
}

/// A sharded `FlowId → session` map with bounded capacity, LRU-within-shard
/// eviction, and idle-deadline reclamation — O(1) lookup/insert/evict over
/// a slab arena. See the module docs for layout and policy.
pub struct FlowTable<S> {
    cfg: FlowTableConfig,
    /// Slot arena; grows (amortized) to at most `capacity()` slots and then
    /// recycles through the free list.
    slots: Vec<Slot<S>>,
    /// Head of the free list threaded through dead slots' `next` links.
    free_head: u32,
    /// Open-addressed `FlowId → slot` index (power-of-two size, ≤ 0.5 load,
    /// linear probing, backward-shift deletion).
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the Fibonacci-hash shift for ideal slots.
    index_shift: u32,
    shards: Vec<ShardList>,
    live: usize,
    stats: FlowTableStats,
}

impl<S> FlowTable<S> {
    /// Builds an empty table. Zero `shards`/`per_shard` are clamped to 1.
    pub fn new(cfg: FlowTableConfig) -> Self {
        let cfg = FlowTableConfig {
            shards: cfg.shards.max(1),
            per_shard: cfg.per_shard.max(1),
            ..cfg
        };
        let capacity = cfg.shards * cfg.per_shard;
        assert!(
            capacity < NIL as usize,
            "flow table capacity must fit in a u32 slot index"
        );
        // ≤ 0.5 load keeps linear-probe chains short and guarantees the
        // probe loop terminates (the index can never fill).
        let index_len = (capacity * 2).next_power_of_two().max(8);
        FlowTable {
            cfg,
            slots: Vec::new(),
            free_head: NIL,
            index: vec![NIL; index_len],
            index_shift: 64 - index_len.trailing_zeros(),
            shards: vec![ShardList::EMPTY; cfg.shards],
            live: 0,
            stats: FlowTableStats::default(),
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &FlowTableConfig {
        &self.cfg
    }

    /// Maximum number of live sessions.
    pub fn capacity(&self) -> usize {
        self.cfg.shards * self.cfg.per_shard
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Bytes currently committed to the table's own machinery: the slot
    /// arena (inline session storage included), the open-addressed index,
    /// and the shard list heads. Excludes any heap the sessions themselves
    /// own (sketch vectors etc.) — those are the protocol's cost, not the
    /// table's.
    pub fn arena_bytes(&self) -> usize {
        self.slots.capacity() * core::mem::size_of::<Slot<S>>()
            + self.index.len() * core::mem::size_of::<u32>()
            + self.shards.len() * core::mem::size_of::<ShardList>()
    }

    /// [`FlowTable::arena_bytes`] divided by the slots actually provisioned
    /// — the steady-state per-flow footprint once the arena has grown to
    /// its working set (at full occupancy: the exact bytes/flow figure).
    pub fn bytes_per_flow(&self) -> usize {
        self.arena_bytes() / self.slots.len().max(1)
    }

    /// Fibonacci multiplicative mix of the flow id: cheap, stateless, and
    /// well-distributed even for sequential ids. Shard selection uses the
    /// upper-middle bits; the index uses the top bits.
    fn mix(flow: FlowId) -> u64 {
        (flow.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn shard_index(&self, flow: FlowId) -> usize {
        ((Self::mix(flow) >> 32) as usize) % self.cfg.shards
    }

    fn ideal_pos(&self, flow: FlowId) -> usize {
        (Self::mix(flow) >> self.index_shift) as usize
    }

    /// Linear probe: `Ok((index_pos, slot))` when `flow` is live,
    /// `Err(insert_pos)` (the first empty cell on its chain) when absent.
    fn probe(&self, flow: FlowId) -> Result<(usize, u32), usize> {
        let mask = self.index.len() - 1;
        let mut pos = self.ideal_pos(flow);
        loop {
            let slot = self.index[pos];
            if slot == NIL {
                return Err(pos);
            }
            if self.slots[slot as usize].flow == flow {
                return Ok((pos, slot));
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Deletes the index cell at `hole`, compacting the probe chain behind
    /// it (backward-shift deletion): every displaced entry whose ideal
    /// position is at or before the hole moves into it, so lookups never
    /// need tombstones and chains stay as short as a fresh build.
    fn index_remove_at(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        self.index[hole] = NIL;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let slot = self.index[pos];
            if slot == NIL {
                return;
            }
            let ideal = self.ideal_pos(self.slots[slot as usize].flow);
            let probe_dist = pos.wrapping_sub(ideal) & mask;
            let hole_dist = pos.wrapping_sub(hole) & mask;
            if probe_dist >= hole_dist {
                self.index[hole] = slot;
                self.index[pos] = NIL;
                hole = pos;
            }
        }
    }

    fn unlink(&mut self, shard: usize, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.shards[shard].head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.shards[shard].tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        self.shards[shard].len -= 1;
    }

    fn link_head(&mut self, shard: usize, slot: u32) {
        let head = self.shards[shard].head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = head;
        }
        if head == NIL {
            self.shards[shard].tail = slot;
        } else {
            self.slots[head as usize].prev = slot;
        }
        self.shards[shard].head = slot;
        self.shards[shard].len += 1;
    }

    /// Refreshes `slot`'s idle clock and moves it to its shard's MRU head.
    fn touch(&mut self, slot: u32, now: SimTime) {
        self.slots[slot as usize].last_used = now;
        let shard = self.shard_index(self.slots[slot as usize].flow);
        if self.shards[shard].head != slot {
            self.unlink(shard, slot);
            self.link_head(shard, slot);
        }
    }

    fn is_idle(&self, slot: u32, now: SimTime) -> bool {
        self.slots[slot as usize].last_used + self.cfg.idle_timeout <= now
    }

    /// Takes a slot from the free list or grows the arena by one.
    fn alloc_slot(&mut self, flow: FlowId, now: SimTime, session: S) -> u32 {
        let slot = if self.free_head == NIL {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                flow,
                last_used: now,
                gen: 0,
                prev: NIL,
                next: NIL,
                session: Some(session),
            });
            slot
        } else {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            self.free_head = s.next;
            s.flow = flow;
            s.last_used = now;
            s.session = Some(session);
            slot
        };
        self.live += 1;
        let shard = self.shard_index(flow);
        self.link_head(shard, slot);
        slot
    }

    /// The single reclamation site: unindexes, unlinks, frees, and accounts
    /// one slot — all eviction stats are bumped here, one event at a time,
    /// so interleaved [`FlowTable::take_stats`] drains are always exact.
    fn evict_slot(&mut self, slot: u32, cause: EvictCause) -> (FlowId, S) {
        let flow = self.slots[slot as usize].flow;
        let (pos, _) = self.probe(flow).expect("live slot is indexed");
        self.index_remove_at(pos);
        let shard = self.shard_index(flow);
        self.unlink(shard, slot);
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        let session = s.session.take().expect("live slot holds a session");
        s.next = self.free_head;
        self.free_head = slot;
        self.live -= 1;
        match cause {
            EvictCause::Idle => self.stats.evicted_idle += 1,
            EvictCause::Capacity => self.stats.evicted_capacity += 1,
            EvictCause::Remove => {}
        }
        (flow, session)
    }

    /// Looks up `flow`, refreshing its LRU/idle clock to `now`.
    pub fn get_mut(&mut self, flow: FlowId, now: SimTime) -> Option<&mut S> {
        let (_, slot) = self.probe(flow).ok()?;
        self.touch(slot, now);
        self.slots[slot as usize].session.as_mut()
    }

    /// Whether a session for `flow` is live (no LRU refresh).
    pub fn contains(&self, flow: FlowId) -> bool {
        self.probe(flow).is_ok()
    }

    /// Read-only lookup of `flow`'s session (no LRU refresh).
    pub fn peek(&self, flow: FlowId) -> Option<&S> {
        let (_, slot) = self.probe(flow).ok()?;
        self.slots[slot as usize].session.as_ref()
    }

    /// Looks up `flow` *without* refreshing its LRU/idle clock — for
    /// housekeeping paths (timer callbacks) that must not keep an otherwise
    /// idle session alive.
    pub fn peek_mut(&mut self, flow: FlowId) -> Option<&mut S> {
        let (_, slot) = self.probe(flow).ok()?;
        self.slots[slot as usize].session.as_mut()
    }

    /// Removes and returns `flow`'s session iff it is idle past the
    /// deadline (a targeted, O(1) alternative to a full
    /// [`FlowTable::sweep_idle`]).
    pub fn evict_if_idle(&mut self, flow: FlowId, now: SimTime) -> Option<S> {
        let (_, slot) = self.probe(flow).ok()?;
        if !self.is_idle(slot, now) {
            return None;
        }
        Some(self.evict_slot(slot, EvictCause::Idle).1)
    }

    /// Looks up `flow`, creating its session with `init` if absent, and
    /// returns `(created, slot)` — the stable handle for follow-up O(1)
    /// access via [`FlowTable::slot_entry_mut`]. Creation first reclaims
    /// idle sessions from the target shard's LRU tail, then — if the shard
    /// is still full — evicts its least recently used entry. Every session
    /// evicted on the way is handed to `on_evict`, before `init` runs, so
    /// the caller can tear it down exactly as it would a swept one.
    pub fn ensure_slot(
        &mut self,
        flow: FlowId,
        now: SimTime,
        init: impl FnOnce() -> S,
        mut on_evict: impl FnMut(FlowId, S),
    ) -> (bool, SlotId) {
        if let Ok((_, slot)) = self.probe(flow) {
            self.touch(slot, now);
            return (false, self.slot_id(slot));
        }
        let shard = self.shard_index(flow);
        // Touch times are monotone, so idle entries are a contiguous
        // suffix at the LRU tail: reclaim them all before LRU pressure.
        loop {
            let tail = self.shards[shard].tail;
            if tail == NIL || !self.is_idle(tail, now) {
                break;
            }
            let (evicted, session) = self.evict_slot(tail, EvictCause::Idle);
            on_evict(evicted, session);
        }
        if self.shards[shard].len as usize >= self.cfg.per_shard {
            let tail = self.shards[shard].tail;
            let (evicted, session) = self.evict_slot(tail, EvictCause::Capacity);
            on_evict(evicted, session);
        }
        if self.shards[shard].len > 0 {
            self.stats.shard_collisions += 1;
        }
        self.stats.created += 1;
        let slot = self.alloc_slot(flow, now, init());
        let Err(pos) = self.probe(flow) else {
            unreachable!("freshly allocated flow is not yet indexed");
        };
        self.index[pos] = slot;
        (true, self.slot_id(slot))
    }

    fn slot_id(&self, slot: u32) -> SlotId {
        SlotId {
            index: slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Re-enters a slot by handle in O(1) (no hashing, no LRU refresh).
    /// Returns `None` when the handle is stale — the slot was evicted since
    /// the handle was issued, whoever occupies it now.
    pub fn slot_entry_mut(&mut self, slot: SlotId) -> Option<(FlowId, &mut S)> {
        let s = self.slots.get_mut(slot.index as usize)?;
        if s.gen != slot.gen {
            return None;
        }
        let flow = s.flow;
        s.session.as_mut().map(|session| (flow, session))
    }

    /// Looks up `flow`, creating its session with `init` if absent; returns
    /// `(created, session)`. See [`FlowTable::ensure_slot`] for the
    /// eviction steps a miss performs; sessions evicted here are dropped.
    pub fn get_or_insert_with(
        &mut self,
        flow: FlowId,
        now: SimTime,
        init: impl FnOnce() -> S,
    ) -> (bool, &mut S) {
        let (created, slot) = self.ensure_slot(flow, now, init, |_, _| {});
        let session = self.slots[slot.index as usize]
            .session
            .as_mut()
            .expect("ensured slot holds a session");
        (created, session)
    }

    /// Removes and returns `flow`'s session.
    pub fn remove(&mut self, flow: FlowId) -> Option<S> {
        let (_, slot) = self.probe(flow).ok()?;
        Some(self.evict_slot(slot, EvictCause::Remove).1)
    }

    /// Reclaims every session idle past the deadline, returning them so
    /// callers can record per-flow teardown metrics.
    pub fn sweep_idle(&mut self, now: SimTime) -> Vec<(FlowId, S)> {
        let mut evicted = Vec::new();
        self.sweep_idle_into(now, &mut evicted);
        evicted
    }

    /// Allocation-reusing twin of [`FlowTable::sweep_idle`]: appends the
    /// reclaimed sessions to `out` (which steady-state callers keep warm).
    pub fn sweep_idle_into(&mut self, now: SimTime, out: &mut Vec<(FlowId, S)>) {
        self.sweep_idle_limit(now, usize::MAX, out);
    }

    /// Bounded-work sweep: reclaims at most `limit` idle sessions (oldest
    /// first within each shard), appending them to `out`, and returns how
    /// many were reclaimed. At 100k flows a full sweep can evict tens of
    /// thousands of sessions in one call; latency-sensitive callers chip
    /// away at the backlog across events instead. Stats stay exact under
    /// any interleaving of partial sweeps and [`FlowTable::take_stats`]
    /// drains (per-eviction accounting; see [`FlowTableStats`]).
    pub fn sweep_idle_limit(
        &mut self,
        now: SimTime,
        limit: usize,
        out: &mut Vec<(FlowId, S)>,
    ) -> usize {
        let mut evicted = 0usize;
        for shard in 0..self.shards.len() {
            loop {
                if evicted >= limit {
                    return evicted;
                }
                let tail = self.shards[shard].tail;
                if tail == NIL || !self.is_idle(tail, now) {
                    break;
                }
                out.push(self.evict_slot(tail, EvictCause::Idle));
                evicted += 1;
            }
        }
        evicted
    }

    /// Iterates live sessions in deterministic order (slot index order,
    /// i.e. the table's allocation history — identical across two tables
    /// fed identical operations, but not otherwise meaningful).
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &S)> {
        self.slots
            .iter()
            .filter_map(|s| s.session.as_ref().map(|session| (s.flow, session)))
    }

    /// Mutable twin of [`FlowTable::iter`], same deterministic order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (FlowId, &mut S)> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.session.as_mut().map(|session| (s.flow, session)))
    }

    /// Drains the counters accumulated since the last call (delta
    /// semantics, for feeding monotonic obs counters). Returns `None` when
    /// nothing changed so callers can skip the publish entirely.
    pub fn take_stats(&mut self) -> Option<FlowTableStats> {
        if self.stats.is_empty() {
            return None;
        }
        Some(core::mem::take(&mut self.stats))
    }
}

/// Counters for a [`FoldBuffer`]'s batch path, drained with
/// [`FoldBuffer::take_stats`] (delta semantics, like [`FlowTableStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Contiguous per-flow batches handed to the fold callback.
    pub batches: u64,
    /// Identifiers folded through the batch path.
    pub ids: u64,
    /// Identifiers dropped because their slot died before the flush (the
    /// flow was evicted; its sketch is gone, so the folds are moot).
    pub stale: u64,
}

impl FoldStats {
    fn is_empty(&self) -> bool {
        *self == FoldStats::default()
    }
}

/// Batches interleaved multi-flow arrivals for lane-parallel folding.
///
/// A shared vantage point sees packets of many flows interleaved, which
/// starves the producer's `insert_batch` (every flow's burst buffer fills
/// one identifier at a time). A `FoldBuffer` absorbs `(slot, identifier)`
/// pairs as packets arrive and, on [`FoldBuffer::flush`], sorts them
/// in-place by slot so each flow's identifiers form one contiguous run —
/// handed to the fold callback as a single batch. Sorting also canonicalizes
/// the fold order, which is safe because power sums are commutative.
///
/// **Flush discipline.** Deferred folds are invisible to the sketch until
/// flushed, so callers must flush before anything reads, resets, emits, or
/// evicts a buffered flow's sketch (in the proxies: before quACK emission,
/// before handling any control message, and before idle sweeps). A slot
/// evicted *with* folds still buffered is harmless: the generation check
/// rejects the stale entries at flush ([`FoldStats::stale`]) rather than
/// folding them into whatever session reuses the slot.
#[derive(Debug, Default)]
pub struct FoldBuffer {
    entries: Vec<(SlotId, u64)>,
    scratch: Vec<u64>,
    cap: usize,
    stats: FoldStats,
}

impl FoldBuffer {
    /// Default capacity: a few lane-widths of the batched fold, so bursty
    /// interleavings yield full lanes without holding folds for long.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Creates a buffer that reports "full" at `cap` entries (clamped to at
    /// least 1). The backing storage is allocated lazily and reused across
    /// flushes, so a warmed buffer never touches the allocator.
    pub fn with_capacity(cap: usize) -> Self {
        FoldBuffer {
            entries: Vec::new(),
            scratch: Vec::new(),
            cap: cap.max(1),
            stats: FoldStats::default(),
        }
    }

    /// Buffers one identifier for the flow living in `slot`. Returns `true`
    /// when the buffer has reached capacity and should be flushed.
    pub fn push(&mut self, slot: SlotId, id: u64) -> bool {
        self.entries.push((slot, id));
        self.entries.len() >= self.cap
    }

    /// Buffered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all buffered entries without folding them (restart paths: the
    /// sessions the entries pointed at are gone wholesale).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Buckets the buffered entries by slot (one in-place sort) and hands
    /// each live flow's identifiers to `fold` as one contiguous batch.
    /// Entries whose slot died since they were pushed are dropped (counted
    /// in [`FoldStats::stale`]); the generation check guarantees they can
    /// never fold into a recycled slot's new session.
    pub fn flush<S>(
        &mut self,
        table: &mut FlowTable<S>,
        mut fold: impl FnMut(FlowId, &mut S, &[u64]),
    ) {
        if self.entries.is_empty() {
            return;
        }
        self.entries.sort_unstable();
        let mut start = 0;
        while start < self.entries.len() {
            let slot = self.entries[start].0;
            self.scratch.clear();
            let mut end = start;
            while end < self.entries.len() && self.entries[end].0 == slot {
                self.scratch.push(self.entries[end].1);
                end += 1;
            }
            match table.slot_entry_mut(slot) {
                Some((flow, session)) => {
                    self.stats.batches += 1;
                    self.stats.ids += self.scratch.len() as u64;
                    fold(flow, session, &self.scratch);
                }
                None => self.stats.stale += self.scratch.len() as u64,
            }
            start = end;
        }
        self.entries.clear();
    }

    /// Drains the batch-path counters accumulated since the last call
    /// (`None` when nothing changed).
    pub fn take_stats(&mut self) -> Option<FoldStats> {
        if self.stats.is_empty() {
            return None;
        }
        Some(core::mem::take(&mut self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn small(shards: usize, per_shard: usize, idle_ms: u64) -> FlowTable<u32> {
        FlowTable::new(FlowTableConfig {
            shards,
            per_shard,
            idle_timeout: SimDuration::from_millis(idle_ms),
        })
    }

    #[test]
    fn create_lookup_remove() {
        let mut table = small(4, 4, 1000);
        let (created, s) = table.get_or_insert_with(FlowId(7), t(0), || 70);
        assert!(created);
        assert_eq!(*s, 70);
        let (created, s) = table.get_or_insert_with(FlowId(7), t(1), || 99);
        assert!(!created, "existing session must not be re-created");
        assert_eq!(*s, 70);
        assert_eq!(table.len(), 1);
        assert!(table.contains(FlowId(7)));
        assert_eq!(table.get_mut(FlowId(7), t(2)).copied(), Some(70));
        assert_eq!(table.remove(FlowId(7)), Some(70));
        assert!(table.is_empty());
        assert_eq!(table.get_mut(FlowId(7), t(3)), None);
    }

    #[test]
    fn capacity_is_respected_with_lru_eviction() {
        // One shard so every flow collides; cap 2.
        let mut table = small(1, 2, 1_000_000);
        table.get_or_insert_with(FlowId(1), t(0), || 1);
        table.get_or_insert_with(FlowId(2), t(1), || 2);
        // Touch flow 1 so flow 2 becomes the LRU victim.
        table.get_mut(FlowId(1), t(5));
        table.get_or_insert_with(FlowId(3), t(6), || 3);
        assert_eq!(table.len(), 2);
        assert!(table.contains(FlowId(1)), "recently used flow survives");
        assert!(!table.contains(FlowId(2)), "LRU flow evicted");
        assert!(table.contains(FlowId(3)));
        let stats = table.take_stats().unwrap();
        assert_eq!(stats.created, 3);
        assert_eq!(stats.evicted_capacity, 1);
        assert_eq!(stats.evicted_idle, 0);
        assert!(stats.shard_collisions >= 2);
    }

    #[test]
    fn idle_sessions_are_reclaimed_before_lru() {
        let mut table = small(1, 2, 100);
        table.get_or_insert_with(FlowId(1), t(0), || 1);
        table.get_or_insert_with(FlowId(2), t(90), || 2);
        // At t=200 flow 1 (idle 200ms) is past the 100ms deadline, flow 2
        // (idle 110ms) is too: both are reclaimed, so no LRU eviction.
        table.get_or_insert_with(FlowId(3), t(200), || 3);
        let stats = table.take_stats().unwrap();
        assert_eq!(stats.evicted_idle, 2);
        assert_eq!(stats.evicted_capacity, 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn ensure_slot_hands_every_evicted_session_to_the_caller() {
        let mut table = small(1, 2, 100);
        table.get_or_insert_with(FlowId(1), t(0), || 1);
        table.get_or_insert_with(FlowId(2), t(90), || 2);
        let mut evicted = Vec::new();
        // Only flow 1 is idle at t=150; it goes and the shard has room.
        table.ensure_slot(FlowId(3), t(150), || 3, |f, s| evicted.push((f, s)));
        // Flows 2 and 3 are both fresh at t=160: LRU pressure takes flow 2.
        table.ensure_slot(FlowId(4), t(160), || 4, |f, s| evicted.push((f, s)));
        assert_eq!(evicted, [(FlowId(1), 1), (FlowId(2), 2)]);
        let stats = table.take_stats().unwrap();
        assert_eq!((stats.evicted_idle, stats.evicted_capacity), (1, 1));
    }

    #[test]
    fn sweep_idle_returns_sessions() {
        let mut table = small(4, 4, 100);
        table.get_or_insert_with(FlowId(1), t(0), || 10);
        table.get_or_insert_with(FlowId(2), t(50), || 20);
        let mut swept = table.sweep_idle(t(120));
        swept.sort_by_key(|(f, _)| *f);
        assert_eq!(swept, vec![(FlowId(1), 10)]);
        assert_eq!(table.len(), 1);
        assert_eq!(table.take_stats().unwrap().evicted_idle, 1);
        // Nothing further to drain.
        assert_eq!(table.take_stats(), None);
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut a = small(8, 8, 1000);
        let mut b = small(8, 8, 1000);
        for f in [9u32, 3, 7, 1, 200, 42] {
            a.get_or_insert_with(FlowId(f), t(f as u64), || f);
            b.get_or_insert_with(FlowId(f), t(f as u64), || f);
        }
        let fa: Vec<_> = a.iter_mut().map(|(f, _)| f).collect();
        let fb: Vec<_> = b.iter_mut().map(|(f, _)| f).collect();
        assert_eq!(fa, fb);
        assert_eq!(fa.len(), 6);
    }

    #[test]
    fn zero_config_is_clamped() {
        let table: FlowTable<()> = FlowTable::new(FlowTableConfig {
            shards: 0,
            per_shard: 0,
            idle_timeout: SimDuration::from_secs(1),
        });
        assert_eq!(table.capacity(), 1);
    }

    #[test]
    fn flows_spread_across_shards() {
        let mut table = small(8, 256, 1000);
        for f in 0..64u32 {
            table.get_or_insert_with(FlowId(f), t(0), || f);
        }
        // The multiplicative hash should not funnel sequential ids into a
        // single shard: with 64 flows over 8 shards, collisions must be
        // well below the all-in-one-shard worst case of 63.
        let stats = table.take_stats().unwrap();
        assert_eq!(stats.created, 64);
        assert!(
            stats.shard_collisions <= 60,
            "hash degenerated: {} collisions",
            stats.shard_collisions
        );
        assert_eq!(table.len(), 64);
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut table = small(2, 2, 50);
        for round in 0..32u64 {
            let base = (round * 4) as u32;
            for k in 0..4u32 {
                table.get_or_insert_with(FlowId(base + k), t(round * 1000), || base + k);
            }
            // Next round's inserts find everything idle and reclaim it.
        }
        // Four distinct flows fit at once; the arena must have stopped
        // growing at capacity even though 128 sessions were created.
        assert!(table.len() <= table.capacity());
        assert!(
            table.slots.len() <= table.capacity(),
            "arena grew past capacity: {} slots",
            table.slots.len()
        );
        let stats = table.take_stats().unwrap();
        assert_eq!(stats.created, 128);
    }

    #[test]
    fn stale_slot_handles_are_rejected() {
        let mut table = small(1, 1, 100);
        let (created, slot) = table.ensure_slot(FlowId(1), t(0), || 10u32, |_, _| {});
        assert!(created);
        assert_eq!(table.slot_entry_mut(slot), Some((FlowId(1), &mut 10)));
        // Capacity-evict flow 1 by inserting flow 2 into the 1-slot table;
        // flow 2 necessarily reuses the same arena slot.
        let (_, slot2) = table.ensure_slot(FlowId(2), t(10), || 20u32, |_, _| {});
        assert_eq!(slot2.index, slot.index, "1-slot arena must reuse the slot");
        assert_eq!(
            table.slot_entry_mut(slot),
            None,
            "stale handle must not reach the recycled slot's new session"
        );
        assert_eq!(table.slot_entry_mut(slot2), Some((FlowId(2), &mut 20)));
        // Same flow returning also gets a fresh generation.
        table.remove(FlowId(2));
        let (_, slot3) = table.ensure_slot(FlowId(2), t(20), || 21u32, |_, _| {});
        assert_eq!(table.slot_entry_mut(slot2), None);
        assert_eq!(table.slot_entry_mut(slot3), Some((FlowId(2), &mut 21)));
    }

    #[test]
    fn slot_generation_check_survives_u32_wraparound() {
        // `evict_slot` bumps with `wrapping_add`, so after 2^32 recycles a
        // slot's generation passes through u32::MAX -> 0. Generations are
        // compared by equality only; a handle minted at gen u32::MAX must
        // go stale across the wrap exactly as at any other boundary (ABA:
        // the recycled slot's new occupant must not honor the old handle).
        let mut table = small(1, 1, 100);
        let (_, first) = table.ensure_slot(FlowId(1), t(0), || 10u32, |_, _| {});
        table.slots[first.index as usize].gen = u32::MAX;
        // Re-mint the handle at the doctored generation (probe hit returns
        // the current gen), then recycle the slot across the wrap.
        let (created, seed) = table.ensure_slot(FlowId(1), t(0), || 10u32, |_, _| {});
        assert!(!created);
        assert_eq!(seed.gen, u32::MAX);
        table.remove(FlowId(1));
        // remove() bumped MAX -> 0; walk one full cycle edge explicitly.
        assert_eq!(table.slots[seed.index as usize].gen, 0);
        let (_, h0) = table.ensure_slot(FlowId(2), t(1), || 20u32, |_, _| {});
        assert_eq!(h0.index, seed.index, "1-slot arena must reuse the slot");
        assert_eq!(h0.gen, 0, "generation wrapped to zero");
        assert_eq!(table.slot_entry_mut(seed), None, "pre-wrap handle is stale");
        assert_eq!(table.slot_entry_mut(h0), Some((FlowId(2), &mut 20)));
        // And a handle from the wrapped epoch goes stale on the next
        // recycle like any other.
        table.remove(FlowId(2));
        let (_, h1) = table.ensure_slot(FlowId(3), t(2), || 30u32, |_, _| {});
        assert_eq!(h1.gen, 1);
        assert_eq!(table.slot_entry_mut(h0), None);
        assert_eq!(table.slot_entry_mut(h1), Some((FlowId(3), &mut 30)));
    }

    #[test]
    fn index_survives_heavy_delete_churn() {
        // Backward-shift deletion stress: interleave inserts and removes so
        // probe chains repeatedly form and compact, then verify every
        // membership answer against a model.
        let mut table = small(4, 64, 1_000_000);
        let mut model = std::collections::BTreeMap::new();
        let mut state = 0x1234_5678_u64;
        for step in 0..4096u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let flow = FlowId((state >> 33) as u32 % 97);
            if state & 1 == 0 {
                table.get_or_insert_with(flow, t(step), || flow.0);
                model.insert(flow, flow.0);
            } else {
                assert_eq!(table.remove(flow), model.remove(&flow));
            }
        }
        for f in 0..97u32 {
            assert_eq!(
                table.contains(FlowId(f)),
                model.contains_key(&FlowId(f)),
                "membership diverged for flow {f}"
            );
        }
        assert_eq!(table.len(), model.len());
    }

    #[test]
    fn partial_sweep_accounting_is_exact() {
        // The regression the slab engine fixes: eviction counters are
        // bumped per eviction, so draining stats *between* the chunks of a
        // bounded sweep neither double-counts nor drops evictions.
        let mut table = small(4, 16, 100);
        for f in 0..40u32 {
            table.get_or_insert_with(FlowId(f), t(0), || f);
        }
        let mut out = Vec::new();
        let mut drained = 0u64;
        let mut total = 0usize;
        loop {
            let n = table.sweep_idle_limit(t(1000), 7, &mut out);
            total += n;
            if let Some(s) = table.take_stats() {
                assert_eq!(s.evicted_capacity, 0);
                drained += s.evicted_idle;
            }
            if n == 0 {
                break;
            }
        }
        assert_eq!(total, 40);
        assert_eq!(out.len(), 40);
        assert_eq!(
            drained, 40,
            "interleaved take_stats drains must sum to the true eviction count"
        );
    }

    #[test]
    fn fold_buffer_buckets_by_slot() {
        let mut table: FlowTable<Vec<u64>> = FlowTable::new(FlowTableConfig {
            shards: 8,
            per_shard: 8,
            idle_timeout: SimDuration::from_millis(1000),
        });
        let mut buf = FoldBuffer::with_capacity(64);
        // Round-robin interleaving of three flows.
        let flows = [FlowId(1), FlowId(2), FlowId(3)];
        for round in 0..5u64 {
            for (i, &f) in flows.iter().enumerate() {
                let (_, slot) = table.ensure_slot(f, t(round), Vec::<u64>::new, |_, _| {});
                buf.push(slot, round * 10 + i as u64);
            }
        }
        buf.flush(&mut table, |_, session, ids| {
            assert!(ids.len() == 5, "each flow's run must arrive as one batch");
            session.extend_from_slice(ids);
        });
        assert!(buf.is_empty());
        for (i, &f) in flows.iter().enumerate() {
            let got = table.peek_mut(f).unwrap();
            let want: Vec<u64> = (0..5).map(|r| r * 10 + i as u64).collect();
            assert_eq!(*got, want, "flow {} folded the wrong identifiers", f.0);
        }
        let stats = buf.take_stats().unwrap();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.ids, 15);
        assert_eq!(stats.stale, 0);
    }

    #[test]
    fn fold_buffer_never_misattributes_across_eviction() {
        // Flow 1 buffers folds, is evicted, and the slot is recycled by
        // flow 2 (and then by flow 1 *again*): none of the pre-eviction
        // identifiers may reach the recycled sessions.
        let mut table: FlowTable<Vec<u64>> = FlowTable::new(FlowTableConfig {
            shards: 1,
            per_shard: 1,
            idle_timeout: SimDuration::from_millis(1_000_000),
        });
        let mut buf = FoldBuffer::with_capacity(64);
        let (_, slot1) = table.ensure_slot(FlowId(1), t(0), Vec::<u64>::new, |_, _| {});
        buf.push(slot1, 100);
        buf.push(slot1, 101);
        let (_, slot2) = table.ensure_slot(FlowId(2), t(1), Vec::<u64>::new, |_, _| {});
        buf.push(slot2, 200);
        // Flow 1 returns with a fresh session in the same arena slot.
        let (created, slot1b) = table.ensure_slot(FlowId(1), t(2), Vec::<u64>::new, |_, _| {});
        assert!(created, "flow 1's original session was evicted");
        assert_eq!(slot1b.index, slot1.index);
        buf.push(slot1b, 300);
        buf.flush(&mut table, |_, session, ids| {
            session.extend_from_slice(ids);
        });
        assert_eq!(
            *table.peek_mut(FlowId(1)).unwrap(),
            vec![300],
            "pre-eviction folds must not contaminate the reborn session"
        );
        assert!(!table.contains(FlowId(2)), "flow 2 was itself evicted");
        let stats = buf.take_stats().unwrap();
        assert_eq!(stats.stale, 3, "ids 100, 101, 200 dropped as stale");
        assert_eq!(stats.ids, 1);
    }

    #[test]
    fn arena_bytes_are_bounded_and_reported() {
        let mut table: FlowTable<[u64; 4]> =
            FlowTable::new(FlowTableConfig::sized_for(1024, SimDuration::from_secs(10)));
        for f in 0..1024u32 {
            table.get_or_insert_with(FlowId(f), t(0), || [0u64; 4]);
        }
        assert_eq!(table.len(), 1024);
        let per_flow = table.bytes_per_flow();
        // Slot (session + flow + clock + links + gen) plus the index share:
        // generous ceiling, tight enough to catch accidental bloat.
        let ceiling = core::mem::size_of::<Slot<[u64; 4]>>() + 64;
        assert!(
            per_flow <= ceiling,
            "bytes/flow {per_flow} exceeded ceiling {ceiling}"
        );
    }
}
