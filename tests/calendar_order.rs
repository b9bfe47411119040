//! Dataplane determinism properties (DESIGN.md §5, invariants 8–9).
//!
//! Two independent guarantees keep the simulator byte-identical to the
//! binary-heap, plain-division engine it replaced:
//!
//! 1. [`CalendarQueue`] pops entries in exactly the total order the old
//!    `BinaryHeap<Reverse<(at, seq)>>` scheduler produced — raced here on
//!    randomized event trains, including interleaved push/pop, far-future
//!    overflow entries, pushes behind the serving cursor, and trains
//!    shaped like the engine's own: each pop schedules 0–3 successors
//!    (same instant, 1–20 µs, across the 1 ms window edge, timers), and
//!    `run_until` + inject rounds that push at a time the last peek
//!    looked past.
//! 2. [`Reducer`] computes the same residue as naive BigUint division for
//!    every switch ID the shipped topologies actually deploy (topo15 and
//!    rnp28), on limb-boundary route IDs.

use kar_rns::{BigUint, Reducer};
use kar_simnet::{CalendarQueue, SimTime};
use kar_topology::{rnp28, topo15};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
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
    fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|Reverse((at, seq, _))| (*at, *seq))
    }
}

/// One successor's delay after the event that schedules it, in the
/// engine's four bands: the same instant (a reinject), 1–20 µs
/// (serialisation, a softswitch delay), 1.0–1.3 ms (an rnp28 core link's
/// propagation: across the default 1 ms window's edge) and 0.2–1 s (a
/// retransmit timer).
fn successor_delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1_000u64..20_001,
        1_000_000u64..1_300_001,
        200_000_000u64..1_000_000_001,
    ]
}

/// An engine train: for each pop, the delays of the 0–3 successors the
/// handled event schedules.
fn engine_train() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(successor_delay(), 0..4), 1..400)
}

/// Both schedulers, fed the same pushes under one `seq` counter.
#[derive(Default)]
struct Race {
    cal: CalendarQueue<u32>,
    heap: HeapSched,
    seq: u64,
}

impl Race {
    fn push(&mut self, at: u64) {
        let item = self.seq as u32;
        self.cal.push(SimTime(at), self.seq, item);
        self.heap.push(at, self.seq, item);
        self.seq += 1;
    }

    /// Pops both; they must agree on the whole entry.
    fn pop(&mut self) -> Result<Option<u64>, TestCaseError> {
        let expect = self.heap.pop();
        let got = self.cal.pop().map(|e| (e.at.0, e.seq, e.item));
        prop_assert_eq!(got, expect);
        Ok(expect.map(|(at, _, _)| at))
    }

    /// Peeks both; they must agree on the key.
    fn peek(&mut self) -> Result<Option<u64>, TestCaseError> {
        let expect = self.heap.peek_key();
        let got = self.cal.peek_key().map(|(at, seq)| (at.0, seq));
        prop_assert_eq!(got, expect);
        Ok(expect.map(|(at, _)| at))
    }

    fn drain(&mut self) -> Result<(), TestCaseError> {
        while self.pop()?.is_some() {}
        prop_assert!(self.cal.is_empty());
        Ok(())
    }
}

/// The engine's loop: pop one event, push its successors at the popped
/// time plus their delays (at the last popped time once both drain).
fn race_engine_train(train: &[Vec<u64>]) -> Result<(), TestCaseError> {
    let mut race = Race::default();
    for at in [0, 1_000, 1_000_000] {
        race.push(at);
    }
    let mut now = 0;
    for successors in train {
        now = race.pop()?.unwrap_or(now);
        for &delay in successors {
            race.push(now + delay);
        }
    }
    race.drain()
}

/// `ProbeRun`'s loop: `run_until(until)` peeks, and pops while the peeked
/// key is due, the first pops scheduling the train's successors; then
/// probes are injected at `until`, which the last peek looked past.
fn race_probe_run(rounds: &[(u64, u32)], train: &[Vec<u64>]) -> Result<(), TestCaseError> {
    let mut race = Race::default();
    let mut successors = train.iter();
    let mut until = 0;
    for &(gap, probes) in rounds {
        until += gap;
        while let Some(at) = race.peek()? {
            if at > until {
                break;
            }
            prop_assert_eq!(race.pop()?, Some(at));
            for &delay in successors.next().into_iter().flatten() {
                race.push(at + delay);
            }
        }
        for _ in 0..probes {
            race.push(until);
        }
    }
    race.drain()
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

    /// Engine-shaped order: every pop schedules the successors a handled
    /// event does, so the cursor advances the way it does in a run and
    /// near-future entries straddle the window's sliding edge.
    #[test]
    fn calendar_follows_the_heap_on_engine_trains(train in engine_train()) {
        race_engine_train(&train)?;
    }

    /// `run_until` + inject order: a peek past `until` must leave the
    /// calendar ready to take pushes at `until`.
    #[test]
    fn calendar_follows_the_heap_on_probe_runs(
        rounds in proptest::collection::vec(
            (prop_oneof![0u64..2_000, 1_000_000u64..1_300_001, 100_000_000u64..1_000_000_001], 0u32..4),
            1..60,
        ),
        train in engine_train(),
    ) {
        race_probe_run(&rounds, &train)?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The engine-train property at 20 000 cases (CI runs it with
    /// `--include-ignored`).
    #[test]
    #[ignore]
    fn calendar_follows_the_heap_on_many_engine_trains(train in engine_train()) {
        race_engine_train(&train)?;
    }
}
