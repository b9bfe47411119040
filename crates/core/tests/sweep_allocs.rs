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
//! The sweep runs on worker threads, so the test reads the counting
//! `#[global_allocator]`'s process-wide counter. This binary holds one test so that no
//! other test allocates while it counts.

use kar::{verify_failure_sets, DeflectionTechnique, EncodingCache, Protection};
use kar_topology::topo15;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::process_allocations;

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
    let (allocations, sweep) = process_allocations(|| {
        verify_failure_sets(
            &topo,
            DeflectionTechnique::Nip,
            &Protection::AutoFull,
            &cache,
            2,
        )
    });
    let sweep = sweep.expect("topo15 routes encode");
    let cases = sweep.stats.cases as u64;
    assert_eq!(cases, 6 * 231);
    assert!(
        allocations * 10 <= cases * 34,
        "{allocations} allocations for {cases} cases ({:.2} per case)",
        allocations as f64 / cases as f64
    );
}
