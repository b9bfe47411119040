//! What a k-failure sweep allocates per case, as a count that repeats.
//!
//! `verify_failure_sets` lends each failure set to the cut test and the
//! classifier instead of copying it: the enumeration advances one set in
//! place, and only a new minimal disconnecting set is an owned copy.
//! Rows share their failure set: the caller builds each of the C(L, k)
//! sets once, and every pair's row for it holds the same `Arc`.
//! `PairVerifier::classify` grows its projection in a buffer it keeps,
//! and a pair's explorer owns its tables, which grow with the states the
//! pair reaches, not with the cases. A case then costs, when the memo misses,
//! an exploration's report and memo key, and an `Arc` only for a report
//! whose content the pair does not hold yet (an equal one is dropped and
//! the held `Arc` shared); never a `Vec` per set enumerated or per row.
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
/// cases, 568 of them explored. Measured 2 698 allocations (1.95 per
/// case) on two workers and 2 691 on one: each exploration's report and
/// memo key, an `Arc` per distinct report, the 231 shared sets, and each
/// pair's explorer (its clean lists grow a few times per pair, not per
/// case), memo and report set. With an `Arc` per exploration the sweep
/// made 3 069 (2.21); the one that copied each set into its row made
/// 4 345 (3.13), and the one that also copied every set it enumerated
/// and built a projection per case 5 564 (4.01). The ceiling leaves
/// room for up to six workers' start-up (one per pair), not for a copy
/// per row or an `Arc` per exploration.
#[test]
fn a_k2_sweep_allocates_at_most_2_0_times_per_case() {
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
        allocations * 10 <= cases * 20,
        "{allocations} allocations for {cases} cases ({:.2} per case)",
        allocations as f64 / cases as f64
    );
}
