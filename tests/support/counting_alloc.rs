//! The counting `#[global_allocator]` of the allocation tests.
//!
//! A test binary takes it with
//! `#[path = "<relative path>/tests/support/counting_alloc.rs"] mod counting_alloc;`
//! — the unsafe allocator lives here, in no library crate. It keeps two
//! counters. Per thread, allocations and the bytes they ask for:
//! [`allocations`] and [`footprint`] measure what one thread does, so the
//! tests of one binary (each on its own test thread) do not see each
//! other. Per process, allocations of every thread:
//! [`process_allocations`] measures work that runs on worker threads, so
//! a binary that uses it holds one test.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // A thread being torn down has no counter left; nothing of it is
    // measured per thread.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// (an atomic and const-initialised thread-local `Cell`s, none of which
// allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as `dealloc`, and the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let (count, _, out) = footprint(f);
    (count, out)
}

/// Allocations `f` makes on this thread, and the bytes they ask for (a
/// `realloc` counts its new size).
pub fn footprint<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (count, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let count = ALLOCATIONS.with(Cell::get) - count;
    (count, BYTES.with(Cell::get) - bytes, out)
}

/// Allocations `f` and every other thread of the process make while `f`
/// runs.
pub fn process_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = PROCESS_ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (PROCESS_ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}
