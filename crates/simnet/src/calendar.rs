//! A bucketed calendar queue for the event scheduler.
//!
//! The engine's pending-event set is dominated by near-future events
//! (per-packet `TxDone`/`Arrive` from microseconds to about a
//! millisecond after `now`) with a thin tail of far-future ones (TCP
//! retransmit timers, fault trains seconds out). A global `BinaryHeap`
//! pays `O(log n)` per operation on that whole set; a calendar queue
//! [R. Brown, CACM 1988] pays `O(1)` amortized for the near-future bulk
//! by hashing events into fixed-width time buckets, and parks the far
//! tail in an overflow heap.
//!
//! The calendar's window slides with its serving cursor: an entry is
//! bucketed iff its slot (`at / width`) lies less than `nbuckets` slots
//! past the cursor, at bucket `slot mod nbuckets`. So whatever slot is
//! being served, everything due within one window of it is in the
//! calendar. Each time a pop advances the cursor, the overflow
//! entries that the window now covers move into their buckets (one heap
//! peek when none does). One occupancy bit per bucket, 64 to a word,
//! finds the next occupied bucket with `trailing_zeros` instead of
//! walking empty buckets.
//!
//! **Determinism contract:** [`CalendarQueue::pop`] yields entries in
//! exactly ascending `(at, seq)` order — the same total order the
//! previous `BinaryHeap<Reverse<HeapEntry>>` produced, and
//! [`CalendarQueue::pop_before`] yields a prefix of that order. The
//! engine's byte-identical replay guarantee rests on this; proptests in
//! `tests/calendar_order.rs` race the two structures on randomized
//! event trains, including engine-shaped and `run_until`-shaped ones and
//! `pop_before` limits on both sides of the head's key.
//!
//! Invariants (the first two checked in debug builds):
//! * every bucketed entry's slot lies in `[cursor, cursor + nbuckets)`,
//!   so a bucket holds the entries of exactly one slot;
//! * every overflow entry's slot lies at or beyond `cursor + nbuckets`;
//! * a bucket's occupancy bit is set iff the bucket holds an entry;
//! * the cursor moves only on a pop that returns an entry (forward, to
//!   the popped slot) and on a push behind it (back, to the pushed slot).
//!
//! **`pop_before` contract:** [`CalendarQueue::pop_before`]`(limit)` pops
//! the head iff its `(at, seq)` key is below `limit`, with the one
//! occupancy scan a plain pop does. When the head is not below `limit`
//! it returns `None` and moves nothing — no entry, no cursor — so the
//! engine can ask "anything due before this?" (the shared CPU's next
//! completion, or `run_until`'s end) and then push work at any time at
//! or after the last popped entry's, which stays in front of the
//! cursor.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scheduled entry: the payload plus its `(at, seq)` sort key.
#[derive(Debug)]
pub struct CalendarEntry<T> {
    /// Due time.
    pub at: SimTime,
    /// Tie-break sequence number (unique, assigned by the scheduler).
    pub seq: u64,
    /// The scheduled payload.
    pub item: T,
}

impl<T> PartialEq for CalendarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for CalendarEntry<T> {}
impl<T> PartialOrd for CalendarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for CalendarEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Debug)]
struct Bucket<T> {
    items: Vec<CalendarEntry<T>>,
    /// `true` when `items` is sorted descending by `(at, seq)` (so the
    /// minimum pops from the back). Cleared on insert, re-established
    /// lazily the next time the bucket is served.
    sorted: bool,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            items: Vec::new(),
            sorted: true,
        }
    }
}

/// A monotone priority queue over `(SimTime, seq)` keys.
///
/// "Monotone" is the engine's usage pattern: entries are only pushed at
/// or after the key of the most recently popped entry (time never runs
/// backwards inside a simulation, and a driver that injects work after
/// `run_until` injects it at or after the last popped time). Pushing
/// behind the cursor is still *correct* — the window slides back,
/// spilling the buckets it no longer covers to the overflow heap — just
/// slower.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Bucket width in nanoseconds (a power of two, so slot = at >> shift).
    shift: u32,
    /// `nbuckets` buckets, a power of two; slot `s` lives in `s & (nbuckets − 1)`.
    buckets: Vec<Bucket<T>>,
    /// Bit `b % 64` of word `b / 64` is set iff bucket `b` holds an entry.
    occupied: Vec<u64>,
    /// Slot being served: the window is `[cursor, cursor + nbuckets)`.
    cursor: u64,
    /// Entries whose slot lies at or beyond the window end.
    overflow: BinaryHeap<Reverse<CalendarEntry<T>>>,
    /// Entries currently in buckets (total length minus overflow).
    in_buckets: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        // 1 µs buckets × 1024 ≈ a 1 ms window: wide enough that packet
        // serialization/propagation events land in the calendar, narrow
        // enough that a bucket holds a handful of entries.
        CalendarQueue::with_geometry(10, 1024)
    }
}

impl<T> CalendarQueue<T> {
    /// Creates a queue with `1 << width_shift` ns buckets, `nbuckets` of
    /// them (a power of two) per window.
    pub fn with_geometry(width_shift: u32, nbuckets: usize) -> Self {
        assert!(
            nbuckets.is_power_of_two(),
            "calendar bucket count must be a power of two, got {nbuckets}"
        );
        CalendarQueue {
            shift: width_shift,
            buckets: (0..nbuckets).map(|_| Bucket::default()).collect(),
            occupied: vec![0; nbuckets.div_ceil(64)],
            cursor: 0,
            overflow: BinaryHeap::new(),
            in_buckets: 0,
        }
    }

    /// Total number of pending entries.
    pub fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    /// `true` when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slot_of(&self, at: SimTime) -> u64 {
        at.0 >> self.shift
    }

    #[inline]
    fn nbuckets(&self) -> u64 {
        self.buckets.len() as u64
    }

    #[inline]
    fn bucket_of(&self, slot: u64) -> usize {
        (slot & (self.nbuckets() - 1)) as usize
    }

    /// Schedules `item` at `(at, seq)`. `seq` must be unique across the
    /// queue's lifetime (the engine's event counter guarantees this).
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let slot = self.slot_of(at);
        if slot < self.cursor {
            self.rewind_to(slot);
        }
        let entry = CalendarEntry { at, seq, item };
        if slot - self.cursor < self.nbuckets() {
            self.insert(slot, entry);
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// Files `entry`, whose `slot` lies inside the window, in its bucket.
    #[inline]
    fn insert(&mut self, slot: u64, entry: CalendarEntry<T>) {
        debug_assert!(slot >= self.cursor && slot - self.cursor < self.nbuckets());
        let b = self.bucket_of(slot);
        let bucket = &mut self.buckets[b];
        bucket.items.push(entry);
        bucket.sorted = false;
        self.occupied[b / 64] |= 1 << (b % 64);
        self.in_buckets += 1;
    }

    /// Slides the window back so it starts at `slot`, spilling to
    /// overflow the buckets of the slots it no longer covers. Only a
    /// push behind the cursor gets here.
    fn rewind_to(&mut self, slot: u64) {
        let n = self.nbuckets();
        let old_end = self.cursor + n;
        for gone in (slot + n).max(self.cursor)..old_end {
            let b = self.bucket_of(gone);
            let bucket = &mut self.buckets[b];
            if bucket.items.is_empty() {
                continue;
            }
            self.in_buckets -= bucket.items.len();
            self.overflow.extend(bucket.items.drain(..).map(Reverse));
            bucket.sorted = true;
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.cursor = slot;
    }

    /// Moves every overflow entry the window now covers into its bucket.
    fn refill(&mut self) {
        let end = self.cursor + self.nbuckets();
        while let Some(Reverse(head)) = self.overflow.peek() {
            let slot = self.slot_of(head.at);
            if slot >= end {
                break;
            }
            let Reverse(entry) = self.overflow.pop().expect("peeked entry exists");
            self.insert(slot, entry);
        }
    }

    /// The first occupied slot at or after the cursor, found by scanning
    /// the occupancy words from the cursor's bucket round the ring.
    /// Requires a bucketed entry.
    fn next_occupied_slot(&self) -> u64 {
        debug_assert!(self.in_buckets > 0);
        let start = self.bucket_of(self.cursor);
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        while bits == 0 {
            // Back at the first word, the bits below `start` are the
            // slots at the far end of the window.
            word = if word + 1 == self.occupied.len() {
                0
            } else {
                word + 1
            };
            bits = self.occupied[word];
        }
        let b = word * 64 + bits.trailing_zeros() as usize;
        self.cursor + (b.wrapping_sub(start) as u64 & (self.nbuckets() - 1))
    }

    /// Sorts (if needed) bucket `b` and returns it.
    fn serve_bucket(&mut self, b: usize) -> &mut Bucket<T> {
        let bucket = &mut self.buckets[b];
        if !bucket.sorted {
            // Descending, so the minimum `(at, seq)` sits at the back.
            bucket.items.sort_unstable_by(|a, z| z.cmp(a));
            bucket.sorted = true;
        }
        bucket
    }

    /// Removes and returns the entry with the smallest `(at, seq)` key.
    pub fn pop(&mut self) -> Option<CalendarEntry<T>> {
        self.pop_if(|_, _| true)
    }

    /// Removes and returns the entry with the smallest `(at, seq)` key if
    /// that key is below `limit`. When it is not (or the queue is empty)
    /// nothing moves — not the entry, not the cursor — so a push at any
    /// time at or after the last popped entry's still lands in front of
    /// the cursor.
    pub fn pop_before(&mut self, limit: (SimTime, u64)) -> Option<CalendarEntry<T>> {
        self.pop_if(|at, seq| (at, seq) < limit)
    }

    /// Pops the head if `due(at, seq)` holds for it. One occupancy scan
    /// finds the head's slot; the cursor advances to it only once the
    /// head is known to leave.
    #[inline]
    fn pop_if(&mut self, due: impl FnOnce(SimTime, u64) -> bool) -> Option<CalendarEntry<T>> {
        let (slot, at, seq) = if self.in_buckets > 0 {
            // Every overflow entry lies past the window, so the earliest
            // bucketed entry is the head.
            let slot = self.next_occupied_slot();
            let b = self.bucket_of(slot);
            let head = self.serve_bucket(b).items.last().expect("occupied bucket");
            (slot, head.at, head.seq)
        } else {
            let Reverse(head) = self.overflow.peek()?;
            (self.slot_of(head.at), head.at, head.seq)
        };
        if !due(at, seq) {
            return None;
        }
        if slot != self.cursor {
            // The entries the slid window now covers land in slots past
            // `slot`, so the head stays at the back of its bucket.
            self.cursor = slot;
            self.refill();
        }
        debug_assert!(self
            .overflow
            .peek()
            .is_none_or(|Reverse(head)| self.slot_of(head.at) - self.cursor >= self.nbuckets()));
        let b = self.bucket_of(slot);
        let bucket = self.serve_bucket(b);
        let entry = bucket
            .items
            .pop()
            .expect("the cursor's slot holds the earliest entry");
        if bucket.items.is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.in_buckets -= 1;
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.at.0, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::default();
        q.push(SimTime(500), 0, 0);
        q.push(SimTime(100), 1, 1);
        q.push(SimTime(100), 2, 2);
        q.push(SimTime(0), 3, 3);
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q), vec![(0, 3), (100, 1), (100, 2), (500, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_go_through_overflow() {
        let mut q = CalendarQueue::<u32>::with_geometry(4, 8); // 16 ns × 8 buckets
        q.push(SimTime(1_000_000), 0, 0); // far beyond the 128 ns window
        q.push(SimTime(10), 1, 1);
        q.push(SimTime(5_000_000), 2, 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (1_000_000, 0), (5_000_000, 2)]);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = CalendarQueue::default();
        q.push(SimTime(10), 0, 0);
        q.push(SimTime(30), 1, 1);
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        // Push between pops, at the already-served time.
        q.push(SimTime(10), 2, 2);
        q.push(SimTime(20), 3, 3);
        assert_eq!(drain(&mut q), vec![(10, 2), (20, 3), (30, 1)]);
    }

    #[test]
    fn rewind_after_idle_jump() {
        let mut q = CalendarQueue::<u32>::with_geometry(4, 8);
        // A pop of a far-future event moves the cursor far ahead…
        q.push(SimTime(1_000_000), 0, 0);
        q.push(SimTime(1_000_100), 1, 1);
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        // …then earlier work arrives, behind the cursor.
        q.push(SimTime(50), 2, 2);
        q.push(SimTime(999_999), 3, 3);
        assert_eq!(q.cursor, 50 >> 4);
        assert_eq!(drain(&mut q), vec![(50, 2), (999_999, 3), (1_000_100, 1)]);
    }

    #[test]
    fn the_window_slides_with_the_cursor() {
        let mut q = CalendarQueue::<u32>::with_geometry(4, 8); // 16 ns × 8 buckets
        q.push(SimTime(5 * 16), 0, 0);
        q.push(SimTime(6 * 16), 1, 1);
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert_eq!(q.cursor, 5);
        // The last slot of the window that starts at the cursor is
        // bucketed although it lies past the first window's end…
        q.push(SimTime((5 + 8 - 1) * 16), 2, 2);
        assert!(q.overflow.is_empty());
        assert_eq!(q.in_buckets, 2);
        // …and the slot after it is not.
        q.push(SimTime((5 + 8) * 16), 3, 3);
        assert_eq!(q.overflow.len(), 1);
        // Popping slot 6 slides the window over slot 13.
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        assert!(q.overflow.is_empty());
        assert_eq!(drain(&mut q), vec![(12 * 16, 2), (13 * 16, 3)]);
    }

    #[test]
    fn a_refused_pop_before_leaves_the_cursor_where_it_was() {
        let mut q = CalendarQueue::<u32>::with_geometry(4, 8);
        q.push(SimTime(3 * 16), 0, 0);
        q.push(SimTime(1_000_000), 1, 1); // far past the window
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert!(q.pop_before((SimTime(1_000_000), 1)).is_none());
        assert_eq!(q.cursor, 3);
        // The `run_until` + `inject` pattern: work at a time the refused
        // pop looked past lands in front of the cursor, not behind it.
        q.push(SimTime(4 * 16), 2, 2);
        assert_eq!(q.cursor, 3);
        assert_eq!(q.in_buckets, 1);
        assert_eq!(drain(&mut q), vec![(4 * 16, 2), (1_000_000, 1)]);
    }

    #[test]
    fn a_refused_pop_before_from_the_overflow_moves_nothing() {
        let mut q = CalendarQueue::<u32>::with_geometry(4, 8);
        q.push(SimTime(2 * 16), 0, 0);
        q.push(SimTime(1_000_000), 1, 1);
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert_eq!((q.in_buckets, q.overflow.len()), (0, 1));
        assert!(q.pop_before((SimTime(999_999), u64::MAX)).is_none());
        assert_eq!((q.cursor, q.in_buckets, q.overflow.len()), (2, 0, 1));
        let e = q.pop_before((SimTime(1_000_000), 2)).unwrap();
        assert_eq!((e.at, e.seq), (SimTime(1_000_000), 1));
        assert_eq!(q.cursor, 1_000_000 >> 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bucket_count_must_be_a_power_of_two() {
        CalendarQueue::<u32>::with_geometry(4, 12);
    }

    #[test]
    fn same_bucket_ties_break_by_seq() {
        let mut q = CalendarQueue::default();
        for seq in (0..100).rev() {
            q.push(SimTime(42), seq, seq as u32);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        assert_eq!(order, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn pop_before_pops_only_keys_below_the_limit() {
        let mut q = CalendarQueue::default();
        q.push(SimTime(7), 0, 0);
        q.push(SimTime(3), 1, 1);
        assert!(q.pop_before((SimTime(3), 1)).is_none());
        assert!(q.pop_before((SimTime(2), u64::MAX)).is_none());
        let e = q.pop_before((SimTime(3), 2)).unwrap();
        assert_eq!((e.at, e.seq), (SimTime(3), 1));
        assert!(q.pop_before((SimTime(7), 0)).is_none());
        assert_eq!(q.pop_before((SimTime(7), u64::MAX)).map(|e| e.seq), Some(0));
        assert!(q.pop_before((SimTime(u64::MAX), u64::MAX)).is_none());
    }
}
