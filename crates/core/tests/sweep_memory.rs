//! What a k-failure sweep keeps: O(pairs × links), not O(cases).
//!
//! `verify_failure_sets` folds each pair's cases as they are classified
//! (`kar::PairSweep`): a summary, per-link blackhole and loop counts and
//! the first `OFFENDERS` connected violations with their reports. A
//! sweep that kept a row per case held C(L, k) rows per pair, each
//! pinning its pair's reports — on rnp28 at k = 3, 158 928 rows.
//!
//! The sweep runs on worker threads, so the test reads the counting
//! `#[global_allocator]`'s process-wide count of live bytes. This binary
//! holds one test so that no other test allocates while it counts.

use kar::{verify_failure_sets, DeflectionTechnique, EncodingCache, FailureSetResult, Protection};
use kar_topology::rnp28;
use std::mem::size_of;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::process_retained;

/// rnp28, k = 2, NIP under full protection: 12 pairs × C(44, 2) = 11 352
/// cases. What the returned `KSweep` holds — everything the sweep
/// allocated and did not free, the encoding cache dropped — must be less
/// than one 48-byte `FailureSetResult` per case (544 896 B): a sweep that
/// keeps rows cannot pass, whatever its reports cost. Measured 52 944 B
/// on two workers and on one: 12 folds of 2 × 44 counters, and 79
/// offenders with their sets and reports.
#[test]
fn an_rnp28_k2_sweep_keeps_less_than_a_row_per_case() {
    let topo = rnp28::build();
    let (kept, sweep) = process_retained(|| {
        let cache = EncodingCache::new();
        verify_failure_sets(
            &topo,
            DeflectionTechnique::Nip,
            &Protection::AutoFull,
            &cache,
            2,
        )
    });
    let sweep = sweep.expect("rnp28 routes encode");
    let cases = sweep.stats.cases as i64;
    assert_eq!(cases, 12 * 946);
    let rows = cases * size_of::<FailureSetResult>() as i64;
    assert!(
        kept < rows,
        "the sweep keeps {kept} B; a row per case would be {rows} B"
    );
}
