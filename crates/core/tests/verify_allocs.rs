//! What a `verify` case allocates, as a count that repeats.
//!
//! The k-failure sweep is fast because its two hot operations own almost
//! nothing: a case answered from `PairVerifier`'s projection memo shares
//! the memo's report (an `Arc`), and an exploration on a warmed
//! [`Explorer`] fills buffers it already has. This pins both as
//! allocation counts — timings drift, these do not.
//!
//! A counting `#[global_allocator]` sees every allocation of the whole
//! process, so the file holds this one test.

use kar::verify::Explorer;
use kar::{DeflectionTechnique, EncodingCache, PairVerifier, Protection};
use kar_topology::{paths, rnp28, LinkId};
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

/// Allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn memo_hits_and_warm_explorations_allocate_only_what_they_return() {
    let topo = rnp28::build();
    let edges = topo.edge_nodes();
    let (src, dst) = (edges[0], edges[edges.len() / 2]);
    let primary = paths::bfs_shortest_path(&topo, src, dst).expect("rnp28 is connected");
    let route = EncodingCache::new()
        .encode_with_protection(&topo, primary, &Protection::AutoFull)
        .expect("rnp28 routes encode");
    let links = topo.link_count();
    let sets: Vec<[LinkId; 2]> = (0..links)
        .flat_map(|a| (a + 1..links).map(move |b| [LinkId(a), LinkId(b)]))
        .collect();
    for technique in DeflectionTechnique::ALL {
        // One warm-up sweep fills the memo; after it every case is a hit
        // and allocates at most its projection.
        let mut verifier = PairVerifier::new(&topo, route.clone(), src, dst, technique);
        for failed in &sets {
            verifier.classify(failed);
        }
        let explored = verifier.explored;
        for failed in &sets {
            let (count, _) = allocations(|| verifier.classify(failed));
            assert!(count <= 1, "{technique} {failed:?}: {count} allocations");
        }
        assert_eq!(verifier.explored, explored, "{technique}: all memo hits");

        // One warm-up pass sizes the explorer's buffers and residues;
        // after it an exploration allocates `relevant_links` and one
        // vector per witness it reports — nothing it keeps.
        let mut explorer = Explorer::new();
        let mut witnesses = 0;
        for counted in [false, true] {
            for failed in &sets {
                let (count, report) = allocations(|| {
                    explorer.explore(&topo, &mut &route, src, dst, technique, *failed)
                });
                let owned = 1
                    + u64::from(report.blackhole_witness.is_some())
                    + u64::from(report.loop_witness.is_some());
                witnesses += owned - 1;
                assert!(
                    !counted || count == owned,
                    "{technique} {failed:?}: {count} allocations, report owns {owned}"
                );
            }
        }
        assert!(witnesses > 0, "{technique}: the sample reports witnesses");
    }
}
