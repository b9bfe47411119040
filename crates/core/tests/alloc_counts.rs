//! What the control plane's hot operations allocate, as counts that
//! repeat — timings drift, these do not.
//!
//! * The k-failure sweep is fast because its two hot operations own
//!   almost nothing: a case answered from `PairVerifier`'s projection
//!   memo shares the memo's report (an `Arc`), and an exploration on a
//!   warmed [`Explorer`] fills buffers it already has.
//! * Sealing a route (`EncodedRoute::from_pairs`, one CRT kernel pass)
//!   owns its basis and its route ID and borrows two limb buffers, and
//!   `RouteHeader::for_route` reads the width the basis already holds:
//!   the same handful of allocations at any route length.
//!
//! A counting `#[global_allocator]` sees every allocation of the
//! process; it counts per thread, so the tests of this file (each on its
//! own test thread) do not see each other's.

use kar::verify::Explorer;
use kar::{
    DeflectionTechnique, EncodedRoute, EncodingCache, PairVerifier, Protection, RouteHeader,
    RouteSpec,
};
use kar_rns::IdStrategy;
use kar_topology::{gen, paths, rnp28, LinkId, LinkParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing of it is
    // measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// (a const-initialised thread-local `Cell` that never allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as `dealloc`, and the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn sealing_a_route_and_sizing_its_header_allocate_the_same_at_any_length() {
    let topo = gen::try_ring(256, IdStrategy::SmallestPrimes, LinkParams::default())
        .expect("smallest primes never run out");
    let hosts = topo.edge_nodes();
    for (hops, want_switches) in [(7, 8), (127, 128)] {
        let path = paths::bfs_shortest_path(&topo, hosts[0], hosts[hops]).expect("connected");
        let (pairs, uplink) =
            EncodedRoute::collect_pairs(&topo, &RouteSpec::unprotected(path)).expect("a path");
        assert_eq!(pairs.len(), want_switches);
        // The basis's moduli, the route ID, and the kernel's running
        // product `M`.
        let (sealing, route) = allocations(|| EncodedRoute::from_pairs(pairs, uplink));
        let route = route.expect("ring IDs are coprime");
        // The big-endian ID and the field it is padded into.
        let (sizing, header) = allocations(|| RouteHeader::for_route(&route));
        assert_eq!(header.expect("fits").bits(), route.bit_length());
        // The Eq. 4 encoder made 42 + 21 here at 8 switches and 653 + 261
        // at 128.
        assert_eq!(
            (sealing, sizing),
            (3, 2),
            "{want_switches} switches: from_pairs + for_route allocations"
        );
    }
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
