//! Steady-state zero-allocation proof for the slab flow engine at 10k
//! flows.
//!
//! A counting global allocator wraps the system allocator; the test warms a
//! 10k-flow table past every capacity plateau (slot arena, open-addressed
//! index, fold-buffer storage, sweep scratch vector, per-session quACK
//! burst buffers), snapshots the allocation counter, then runs several
//! rounds of the three hot operations — slot lookup, slot-bucketed batched
//! folds, and idle eviction — and requires the counter unchanged: the slab
//! recycles slots through its free list, the fold buffer sorts in place and
//! reuses its scratch, and `sweep_idle_into` appends into a caller-warmed
//! vector.
//!
//! It also pins the arena's measured bytes/flow under the documented bound
//! (DESIGN.md §14): the slab's per-flow overhead must stay a small
//! constant, or 100k-flow deployments quietly bloat.
//!
//! This file holds exactly one test: the harness runs test files in one
//! process per file but multiple tests per process on worker threads, and a
//! concurrent test's allocations would race the counter.

use sidecar_galois::Fp32;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::FlowId;
use sidecar_proto::{FlowTable, FlowTableConfig, FoldBuffer, QuackProducer, SidecarConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator entry point that can acquire memory.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const FLOWS: usize = 10_000;

/// Documented arena overhead ceiling (also stated in DESIGN.md §14): slot
/// bookkeeping (flow id, clocks, generation, LRU links) plus the inline
/// session struct, excluding session-owned heap (sketch vectors are counted
/// by the warmup instead — they are per-flow one-time allocations).
const BYTES_PER_FLOW_BOUND: usize = 512;

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Deterministic per-flow packet identifiers, disjoint across flows.
fn id_for(flow: u32, seq: u64) -> u64 {
    (flow as u64)
        .wrapping_mul(1_000_003)
        .wrapping_add(seq)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(1)
}

/// One full pass over the population: look every flow up by id, buffer one
/// identifier per packet through the slot-bucketed fold path, flush on the
/// buffer's own cadence, and run a (mostly empty) idle sweep — the exact
/// shape of a proxy's steady state between quACK emissions.
fn steady_round(
    table: &mut FlowTable<QuackProducer<Fp32>>,
    folds: &mut FoldBuffer,
    sweep_out: &mut Vec<(FlowId, QuackProducer<Fp32>)>,
    round: u64,
    base_ms: u64,
) {
    for flow in 0..FLOWS as u32 {
        let now = t(base_ms + flow as u64 % 7);
        let (created, slot) =
            table.ensure_slot(FlowId(flow), now, || unreachable!("warmed flow"), |_, _| {});
        assert!(!created);
        if folds.push(slot, id_for(flow, round)) {
            folds.flush(table, |_, producer, ids| {
                producer.observe_batch(ids);
            });
        }
    }
    folds.flush(table, |_, producer, ids| {
        producer.observe_batch(ids);
    });
    // Nothing is idle mid-round; the sweep must still be free.
    sweep_out.clear();
    table.sweep_idle_into(t(base_ms + 8), sweep_out);
    assert!(sweep_out.is_empty(), "no flow may be idle mid-round");
}

#[test]
fn steady_state_flow_engine_does_not_allocate() {
    let idle = SimDuration::from_secs(2);
    let mut table: FlowTable<QuackProducer<Fp32>> =
        FlowTable::new(FlowTableConfig::sized_for(FLOWS, idle));
    let cfg = SidecarConfig::paper_default();
    let mut folds = FoldBuffer::with_capacity(FoldBuffer::DEFAULT_CAPACITY);
    let mut sweep_out: Vec<(FlowId, QuackProducer<Fp32>)> = Vec::with_capacity(FLOWS);

    // Warmup: create the whole population (grows the arena to its plateau
    // and allocates each producer's sketch), run two full fold/sweep
    // rounds (grows the fold buffer and its scratch), and pre-size the
    // sweep vector.
    for flow in 0..FLOWS as u32 {
        let (created, _) =
            table.ensure_slot(FlowId(flow), t(0), || QuackProducer::new(cfg), |_, _| {});
        assert!(created);
    }
    assert_eq!(table.len(), FLOWS, "sized_for must hold the population");
    steady_round(&mut table, &mut folds, &mut sweep_out, 0, 10);
    steady_round(&mut table, &mut folds, &mut sweep_out, 1, 20);

    let baseline = ALLOCS.load(Ordering::Relaxed);

    // Steady state: lookups + batched folds + sweeps, three rounds.
    for round in 0..3u64 {
        steady_round(
            &mut table,
            &mut folds,
            &mut sweep_out,
            2 + round,
            30 + round * 10,
        );
    }

    // Eviction leg, still inside the measured window: half the population
    // goes idle and is reclaimed through the warmed sweep vector; the
    // survivors were touched recently enough to stay.
    let survivors_touched_at = 3_000;
    for flow in (0..FLOWS as u32).step_by(2) {
        let touched = t(survivors_touched_at);
        let (created, _) = table.ensure_slot(
            FlowId(flow),
            touched,
            || unreachable!("warmed flow"),
            |_, _| {},
        );
        assert!(!created);
    }
    sweep_out.clear();
    table.sweep_idle_into(t(survivors_touched_at + 100), &mut sweep_out);
    assert_eq!(
        sweep_out.len(),
        FLOWS / 2,
        "exactly the untouched half is idle"
    );
    assert_eq!(table.len(), FLOWS - FLOWS / 2);

    let steady = ALLOCS.load(Ordering::Relaxed) - baseline;
    assert_eq!(
        steady, 0,
        "steady-state lookup/fold/evict at {FLOWS} flows must not allocate"
    );

    // The arena's measured per-flow footprint stays under the documented
    // bound.
    let bytes = table.bytes_per_flow();
    assert!(
        bytes > 0 && bytes <= BYTES_PER_FLOW_BOUND,
        "bytes/flow {bytes} exceeds the documented bound {BYTES_PER_FLOW_BOUND}"
    );
}
