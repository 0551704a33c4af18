//! A counting allocator: per-thread allocation counts for the
//! `*allocs_per_*` metrics (copies and allocations per message are the
//! per-packet costs a wire-path optimisation moves first).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` init and no destructor: safe to touch from inside the
    // allocator, where lazy TLS initialisation could itself allocate.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting `alloc`/`realloc` calls on
/// the calling thread.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain thread-local increment.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
