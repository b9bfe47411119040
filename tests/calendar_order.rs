//! Dataplane determinism properties (DESIGN.md §5, invariants 8–9).
//!
//! Two independent guarantees keep the simulator byte-identical to the
//! binary-heap, plain-division engine it replaced:
//!
//! 1. [`CalendarQueue`] pops entries in exactly the total order the old
//!    `BinaryHeap<Reverse<(at, seq)>>` scheduler produced — raced here on
//!    randomized event trains, including interleaved push/pop, far-future
//!    overflow entries, and pushes behind the serving cursor.
//! 2. [`Reducer`] computes the same residue as naive BigUint division for
//!    every switch ID the shipped topologies actually deploy (topo15 and
//!    rnp28), on limb-boundary route IDs.

use kar_rns::{BigUint, Reducer};
use kar_simnet::{CalendarQueue, SimTime};
use kar_topology::{rnp28, topo15};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One randomized event train: `(at, payload)` pairs. Times cluster into
/// three bands so the calendar sees its three regimes: in-window bulk,
/// far-future overflow (beyond the default 1 ms window), and ties.
fn event_train() -> impl Strategy<Value = Vec<(u64, u32)>> {
    let near = 0u64..2_000_000; // within a couple of window rotations
    let far = 0u64..200_000_000; // deep overflow territory
    let tied = (0u64..50).prop_map(|t| t * 1024); // exact bucket-edge ties
    proptest::collection::vec((prop_oneof![near, far, tied], any::<u32>()), 1..400)
}

/// Reference scheduler: the `BinaryHeap` the engine used before the
/// calendar queue, popping ascending `(at, seq)`.
#[derive(Default)]
struct HeapSched {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl HeapSched {
    fn push(&mut self, at: u64, seq: u64, item: u32) {
        self.heap.push(Reverse((at, seq, item)));
    }
    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

proptest! {
    /// Bulk order: push everything, then drain. The two schedulers must
    /// agree on the complete pop sequence, not just the sort keys — the
    /// payload ride-along catches any entry/slot mix-up.
    #[test]
    fn calendar_drains_in_heap_order(train in event_train()) {
        let mut cal = CalendarQueue::default();
        let mut heap = HeapSched::default();
        for (seq, &(at, item)) in train.iter().enumerate() {
            cal.push(SimTime(at), seq as u64, item);
            heap.push(at, seq as u64, item);
        }
        while let Some((at, seq, item)) = heap.pop() {
            let key = cal.peek_key();
            prop_assert_eq!(key, Some((SimTime(at), seq)));
            let e = cal.pop().expect("calendar has as many entries as the heap");
            prop_assert_eq!((e.at.0, e.seq, e.item), (at, seq, item));
        }
        prop_assert!(cal.is_empty());
        prop_assert_eq!(cal.pop().map(|e| e.seq), None);
    }

    /// Interleaved order: alternate pushes and pops the way the engine
    /// does (each handled event schedules successors). Pops may interleave
    /// arbitrarily with pushes, including pushes at times earlier than the
    /// last pop (the rewind path a driver triggers between `run_until`s).
    #[test]
    fn calendar_interleaves_in_heap_order(
        train in event_train(),
        pop_after in proptest::collection::vec(any::<bool>(), 1..400),
    ) {
        let mut cal = CalendarQueue::default();
        let mut heap = HeapSched::default();
        for (seq, &(at, item)) in train.iter().enumerate() {
            cal.push(SimTime(at), seq as u64, item);
            heap.push(at, seq as u64, item);
            if *pop_after.get(seq).unwrap_or(&false) {
                let expect = heap.pop();
                let got = cal.pop().map(|e| (e.at.0, e.seq, e.item));
                prop_assert_eq!(got, expect);
            }
        }
        while let Some(expect) = heap.pop() {
            let got = cal.pop().map(|e| (e.at.0, e.seq, e.item));
            prop_assert_eq!(got, Some(expect));
        }
        prop_assert!(cal.is_empty());
    }

    /// Geometry independence: the pop order is a function of the keys
    /// alone, never of the bucket width or count.
    #[test]
    fn calendar_order_is_geometry_independent(
        train in event_train(),
        shift in 0u32..16,
        nbuckets_log in 0u32..8,
    ) {
        let mut cal = CalendarQueue::with_geometry(shift, 1 << nbuckets_log);
        let mut reference = CalendarQueue::default();
        for (seq, &(at, item)) in train.iter().enumerate() {
            cal.push(SimTime(at), seq as u64, item);
            reference.push(SimTime(at), seq as u64, item);
        }
        while let Some(e) = reference.pop() {
            let got = cal.pop().map(|g| (g.at, g.seq, g.item));
            prop_assert_eq!(got, Some((e.at, e.seq, e.item)));
        }
        prop_assert!(cal.is_empty());
    }

    /// Every switch ID deployed by topo15 and rnp28 reduces limb-boundary
    /// route IDs to exactly the residue naive division computes.
    #[test]
    fn reducer_agrees_with_naive_on_deployed_switch_ids(
        limbs in proptest::collection::vec(any::<u64>(), 0..6),
        boundary_k in 1u32..5,
        below in any::<bool>(),
    ) {
        let boundary = {
            let mut l = vec![0u64; boundary_k as usize];
            l.push(1);
            let b = BigUint::from_limbs(l); // 2^(64k)
            if below { b.sub_big(&BigUint::one()) } else { b }
        };
        let random = BigUint::from_limbs(limbs);
        let t15 = topo15::build();
        let rnp = rnp28::build();
        for id in t15.switch_ids().into_iter().chain(rnp.switch_ids()) {
            let r = Reducer::new(id);
            for route in [&boundary, &random] {
                prop_assert_eq!(r.rem(route), route.rem_u64(id), "{} mod {}", route, id);
            }
        }
    }
}
