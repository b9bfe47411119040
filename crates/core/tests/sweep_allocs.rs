//! What a k-failure sweep allocates per case, as a count that repeats.
//!
//! `verify_failure_sets` lends each failure set to the cut test and the
//! classifier instead of copying it: the enumeration advances one set in
//! place, and only a new minimal disconnecting set and each result row's
//! `failed` are owned copies. `PairVerifier::classify` grows its
//! projection in a buffer it keeps. A case then costs its row's set and,
//! when the memo misses, an exploration; never a `Vec` per set
//! enumerated.
//!
//! The sweep runs on worker threads, so the counting `#[global_allocator]`
//! counts for the whole process. This binary holds one test so that no
//! other test allocates while it counts.

use kar::{verify_failure_sets, DeflectionTechnique, EncodingCache, Protection};
use kar_topology::topo15;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// topo15, k = 2, NIP under full protection: 6 pairs × C(22, 2) = 1 386
/// cases, 568 of them explored. Measured 4 448 allocations (3.21 per
/// case) on two workers and 4 440 on one: each row's `failed`, and each
/// exploration's report, `Arc` and memo key. The sweep that copied every
/// set it enumerated and built a projection per case made 5 564 (4.01).
/// The ceiling leaves room for more workers' start-up, not for a copy
/// per set.
#[test]
fn a_k2_sweep_allocates_at_most_3_4_times_per_case() {
    let topo = topo15::build();
    let cache = EncodingCache::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sweep = verify_failure_sets(
        &topo,
        DeflectionTechnique::Nip,
        &Protection::AutoFull,
        &cache,
        2,
    )
    .expect("topo15 routes encode");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let cases = sweep.stats.cases as u64;
    assert_eq!(cases, 6 * 231);
    assert!(
        allocations * 10 <= cases * 34,
        "{allocations} allocations for {cases} cases ({:.2} per case)",
        allocations as f64 / cases as f64
    );
}
