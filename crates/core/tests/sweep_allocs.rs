//! What a k-failure sweep allocates per case, as a count that repeats.
//!
//! `verify_failure_sets` lends each failure set to the cut test and the
//! classifier instead of copying it: the enumeration advances one set in
//! place, and only a new minimal disconnecting set is an owned copy.
//! A pair folds its cases instead of storing them, so no case has a
//! row; only a kept offender copies its set.
//! `PairVerifier::classify` grows its projection in a buffer it keeps,
//! and a pair's explorer owns its tables, which grow with the states the
//! pair reaches, not with the cases. A case then costs, when the memo
//! misses, nothing more than the memo's growth for an exploration whose
//! answer the pair already holds (the memo key of a projection of at
//! most four links is held inline, and the held `Arc` is shared), and a
//! report, its vectors and an `Arc` for one whose answer it does not
//! hold yet; never a `Vec` per set enumerated or per row.
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
/// cases, 568 of them explored. Measured 1 512 allocations (1.09 per
/// case) on two workers and 1 505 on one: a report with its vectors and
/// `Arc` per distinct answer, each pair's explorer (its clean lists grow
/// a few times per pair, not per case), memo and report table, and each
/// pair's fold (two per-link counters, and the 14 offenders' sets). The
/// sweep that built every exploration's report and a heap memo key, and
/// dropped the report when the pair held its answer, made 2 478 (1.79);
/// the one that kept rows 2 698 (1.95): 231 shared sets and the row
/// vectors more. With an `Arc` per exploration it made 3 069 (2.21); the
/// one that copied each set into its row made 4 345 (3.13), and the one
/// that also copied every set it enumerated and built a projection per
/// case 5 564 (4.01). A worker's start-up costs 7, so six workers (one
/// per pair) would make about 1 540 (1.11); the ceiling leaves room for
/// them, not for a memo key or a report per exploration.
#[test]
fn a_k2_sweep_allocates_at_most_1_15_times_per_case() {
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
        allocations * 100 <= cases * 115,
        "{allocations} allocations for {cases} cases ({:.2} per case)",
        allocations as f64 / cases as f64
    );
}
