//! A counting global allocator: heap allocations per op for the traced
//! pass. Off (one relaxed load per allocation) during every timed,
//! untraced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates and never observes a
    // torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that neither allocates nor unwinds (`try_with` returns an error
// instead of panicking during thread teardown).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` describe a live `System` block, as the
        // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn bump() {
    // Relaxed: the flag publishes no data, it only gates a statistic.
    if COUNTING.load(Ordering::Relaxed) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Turns counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) the calling thread has made
/// while counting was on.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_this_threads_allocations_while_on() {
        set_counting(true);
        let before = thread_allocations();
        let v: Vec<u64> = Vec::with_capacity(32);
        let after = thread_allocations();
        std::hint::black_box(&v);
        assert_eq!(after - before, 1);
    }
}
