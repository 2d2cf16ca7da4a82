//! A counting global allocator, switched on only in the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to the system allocator and, while counting is on, counts
/// every call that hands out memory (`alloc`, `alloc_zeroed`, `realloc`).
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

// Both statics are statistics that publish no other data, so `Relaxed`
// suffices; the measured code's own synchronisation orders the reads the
// benchmark takes after joining or waiting on it.
fn tally() {
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: as for `dealloc`, plus the caller's guarantee on
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}
