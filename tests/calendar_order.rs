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
//!    `run_until` + inject rounds that push at a time a refused
//!    `pop_before` looked past. `pop_before` is raced with limits below,
//!    at and above the head's exact `(at, seq)`, from the overflow-only
//!    state and with heads on the window's last slot, on three
//!    geometries.
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
    fn head_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|Reverse((at, seq, _))| (*at, *seq))
    }
    /// Pops the head iff its key is below `limit`.
    fn pop_before(&mut self, limit: (u64, u64)) -> Option<(u64, u64, u32)> {
        if self.head_key()? < limit {
            self.pop()
        } else {
            None
        }
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
    fn with_geometry(width_shift: u32, nbuckets: usize) -> Self {
        Race {
            cal: CalendarQueue::with_geometry(width_shift, nbuckets),
            ..Race::default()
        }
    }

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

    /// `pop_before` on both; they must agree on the whole entry, or on
    /// popping nothing.
    fn pop_before(&mut self, limit: (u64, u64)) -> Result<Option<u64>, TestCaseError> {
        let expect = self.heap.pop_before(limit);
        let got = self
            .cal
            .pop_before((SimTime(limit.0), limit.1))
            .map(|e| (e.at.0, e.seq, e.item));
        prop_assert_eq!(got, expect, "limit {:?}", limit);
        Ok(expect.map(|(at, _, _)| at))
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

/// `ProbeRun`'s loop: `run_until(until)` pops while the head is below
/// `(until, u64::MAX)`, the first pops scheduling the train's
/// successors; then probes are injected at `until`, which the refused
/// `pop_before` looked past.
fn race_probe_run(rounds: &[(u64, u32)], train: &[Vec<u64>]) -> Result<(), TestCaseError> {
    let mut race = Race::default();
    let mut successors = train.iter();
    let mut until = 0;
    for &(gap, probes) in rounds {
        until += gap;
        while let Some(at) = race.pop_before((until, u64::MAX))? {
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

/// One successor of a handled event in a `pop_before` train.
#[derive(Debug, Clone, Copy)]
enum Succ {
    /// `delay` after the last popped time.
    After(u64),
    /// Past the window that starts at the last popped slot: the
    /// overflow heap.
    Beyond(u64),
    /// On the last slot of that window (`offset` into the slot).
    LastSlot(u64),
}

/// Where a `pop_before` limit lies relative to the head's exact key.
#[derive(Debug, Clone, Copy)]
enum Limit {
    /// `d` ns earlier (any seq); `d = 0`: the same time, the seq before.
    Below(u64),
    /// The head's own key: not below it, so nothing pops.
    At,
    /// `d` ns later (seq 0); `d = 0`: the same time, the seq after.
    Above(u64),
    /// `run_until`'s bound: `(until, u64::MAX)` at `d` ns after the
    /// last popped time.
    Until(u64),
}

impl Limit {
    fn around(self, head: Option<(u64, u64)>, now: u64) -> (u64, u64) {
        let (at, seq) = head.unwrap_or((now, 0));
        match self {
            Limit::Below(0) => (at, seq.saturating_sub(1)),
            Limit::Below(d) => (at.saturating_sub(d), u64::MAX),
            Limit::At => (at, seq),
            Limit::Above(0) => (at, seq + 1),
            Limit::Above(d) => (at + d, 0),
            Limit::Until(d) => (now + d, u64::MAX),
        }
    }
}

/// A limit's distance from its anchor: none, within a bucket or two,
/// across the default window's edge.
fn offset() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..2_000, 1_000_000u64..1_300_001]
}

fn limit() -> impl Strategy<Value = Limit> {
    prop_oneof![
        offset().prop_map(Limit::Below),
        Just(Limit::At),
        offset().prop_map(Limit::Above),
        offset().prop_map(Limit::Until),
    ]
}

/// Calendar geometries `(width_shift, nbuckets)`: the engine's (sixteen
/// occupancy words), one word, and eight buckets in a part-used word.
fn geometry() -> impl Strategy<Value = (u32, usize)> {
    prop_oneof![Just((10u32, 1024usize)), Just((6, 64)), Just((4, 8))]
}

/// Steps of a `pop_before` train: a limit, then the successors pushed
/// after it (at or after the last popped time, popped or not).
fn pop_before_train(succ: BoxedStrategy<Succ>) -> impl Strategy<Value = Vec<(Limit, Vec<Succ>)>> {
    proptest::collection::vec((limit(), proptest::collection::vec(succ, 0..4)), 1..400)
}

fn any_succ() -> BoxedStrategy<Succ> {
    prop_oneof![
        successor_delay().prop_map(Succ::After),
        (0u64..1_000_000).prop_map(Succ::Beyond),
        (0u64..1_024).prop_map(Succ::LastSlot),
    ]
    .boxed()
}

/// Only successors past the window at the time they are pushed, so the
/// buckets are often empty and the head is the overflow heap's (about
/// half of this train's `pop_before` calls; the mixed train gets there
/// rarely).
fn beyond_succ() -> BoxedStrategy<Succ> {
    (0u64..1_000_000).prop_map(Succ::Beyond).boxed()
}

/// Races `pop_before` against the heap on one train. The cursor sits on
/// the last popped slot (every push is at or after the last popped
/// time), so `Succ` can aim at that window's last slot and past its end.
fn race_pop_before(
    (shift, nbuckets): (u32, usize),
    train: &[(Limit, Vec<Succ>)],
) -> Result<(), TestCaseError> {
    let mut race = Race::with_geometry(shift, nbuckets);
    let window = (nbuckets as u64) << shift;
    for at in [0, 1_000, window - 1, window] {
        race.push(at);
    }
    let mut now = 0;
    for (limit, successors) in train {
        let limit = limit.around(race.heap.head_key(), now);
        if let Some(at) = race.pop_before(limit)? {
            now = at;
        }
        let last_slot = ((now >> shift) + nbuckets as u64 - 1) << shift;
        for succ in successors {
            race.push(match *succ {
                Succ::After(delay) => now + delay,
                Succ::Beyond(delay) => now + window + delay,
                Succ::LastSlot(offset) => last_slot + offset % (1 << shift),
            });
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
            // The head's own key is not below it: nothing leaves.
            prop_assert!(cal.pop_before((SimTime(at), seq)).is_none());
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

    /// `pop_before` pops exactly what the heap pops below the limit, with
    /// limits on both sides of the head's key and at it.
    #[test]
    fn calendar_pop_before_follows_the_heap(
        geometry in geometry(),
        train in pop_before_train(any_succ()),
    ) {
        race_pop_before(geometry, &train)?;
    }

    /// The same from the overflow-only state: nothing bucketed, so the
    /// head is the overflow heap's.
    #[test]
    fn calendar_pop_before_follows_the_heap_from_the_overflow(
        geometry in geometry(),
        train in pop_before_train(beyond_succ()),
    ) {
        race_pop_before(geometry, &train)?;
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

    /// The `pop_before` property at 20 000 cases.
    #[test]
    #[ignore]
    fn calendar_pop_before_follows_the_heap_on_many_trains(
        geometry in geometry(),
        train in pop_before_train(any_succ()),
    ) {
        race_pop_before(geometry, &train)?;
    }

    /// The overflow-only `pop_before` property at 20 000 cases.
    #[test]
    #[ignore]
    fn calendar_pop_before_follows_the_heap_from_the_overflow_many_times(
        geometry in geometry(),
        train in pop_before_train(beyond_succ()),
    ) {
        race_pop_before(geometry, &train)?;
    }
}
