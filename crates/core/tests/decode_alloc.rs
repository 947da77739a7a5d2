//! Allocation count of the plugging decoder.
//!
//! The decoder walks the whole sender log on every quACK, so its
//! allocations must not grow with the log: a decode allocates the
//! error-locator coefficients and the `missing` list (sized to `m` up
//! front), and nothing per log entry. A counting global allocator wraps the
//! system allocator and counts the allocations of one
//! `decode_with_log_and_workspace` call at two log lengths, the first of
//! them the first decode the process runs.
//!
//! This file holds exactly one test: the harness runs test files in one
//! process per file but multiple tests per process on worker threads, and a
//! concurrent test's allocations would race the counter.

use sidecar_galois::{Fp32, NewtonWorkspace};
use sidecar_quack::Quack32;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
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

const T: usize = 20;

/// Allocations made by one decode of 20 distinct missing ids out of an
/// `n`-entry log.
fn decode_allocations(n: usize, workspace: &NewtonWorkspace<Fp32>) -> u64 {
    let sent: Vec<u64> = (0..n as u64)
        .map(|i| i * 2_654_435_761 % (1 << 32))
        .collect();
    let mut sender = Quack32::new(T);
    sender.insert_batch(&sent);
    let mut receiver = Quack32::new(T);
    for (i, &id) in sent.iter().enumerate() {
        if i % (n / T) != 7 {
            receiver.insert(id);
        }
    }
    let diff = sender.difference(&receiver);

    let before = ALLOCS.load(Ordering::Relaxed);
    let decoded = diff.decode_with_log_and_workspace(black_box(&sent), workspace);
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;

    let decoded = decoded.expect("20 missing within threshold 20");
    let dropped: Vec<usize> = (7..n).step_by(n / T).collect();
    assert_eq!(decoded.missing(), dropped, "n = {n}");
    assert!(decoded.is_fully_determined());
    allocations
}

#[test]
fn decode_allocations_do_not_grow_with_the_log() {
    let workspace = NewtonWorkspace::<Fp32>::new(T);
    // The first decode in the process already shows the steady state: the
    // decoder touches no process-wide state that a first call would set up.
    let at_1000 = decode_allocations(1_000, &workspace);
    let at_5000 = decode_allocations(5_000, &workspace);
    assert_eq!(at_1000, at_5000, "allocations grew with the log");
    assert!(
        at_1000 <= 2,
        "{at_1000} allocations: expected the locator and the missing list only"
    );
}
