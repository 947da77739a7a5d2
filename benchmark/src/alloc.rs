//! A counting global allocator for the traced binary. `bench-trace`
//! installs it; `bench` does not, so end-to-end numbers are measured on the
//! allocator the repository ships with. The generator thread excludes
//! itself, so the counts are the system under test's alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisation and a destructor-free `Cell`: reading this
    // inside `alloc` never allocates and never re-enters the allocator.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// Forwards to [`System`] and counts calls and bytes requested.
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        // `try_with` fails only while the thread is being torn down; those
        // allocations are not the system under test's either.
        if !EXCLUDED.try_with(Cell::get).unwrap_or(true) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a thread-local `Cell` and neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // the same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to validate.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Stops counting the calling thread's allocations (the load generator's).
pub fn exclude_this_thread() {
    EXCLUDED.with(|e| e.set(true));
}

/// `(allocations, bytes requested)` so far, excluded threads left out. Both
/// stay zero in a binary that did not install [`CountingAlloc`].
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
