//! A warm calendar allocates nothing.
//!
//! Once engine-shaped churn has sized its buckets and its overflow heap,
//! a `CalendarQueue` at a steady backlog pushes and pops without calling
//! the allocator: sliding the window, refilling buckets from the
//! overflow heap and finding the next occupied bucket by its occupancy
//! bits all reuse storage that is already there.
//!
//! Counted per thread by the counting `#[global_allocator]`.

use kar_simnet::{CalendarQueue, SimTime};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// SplitMix64: a fixed draw sequence, so the test is one fixed trace.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// One successor's delay after the event that schedules it, in the
/// engine's four bands: the same instant, 1–20 µs, 1.0–1.3 ms (across
/// the 1 ms window's edge) and 0.2–1 s timers.
fn successor_delay(draws: &mut Draws) -> u64 {
    match draws.below(20) {
        0..=1 => 0,
        2..=11 => 1_000 + draws.below(19_001),
        12..=18 => 1_000_000 + draws.below(300_001),
        _ => 200_000_000 + draws.below(800_000_001),
    }
}

struct Churn {
    queue: CalendarQueue<u64>,
    draws: Draws,
    seq: u64,
}

impl Churn {
    /// Pops the earliest entry and pushes `successors` entries after it.
    fn step(&mut self, successors: u64) {
        let entry = self.queue.pop().expect("the backlog never drains");
        for _ in 0..successors {
            let delay = successor_delay(&mut self.draws);
            self.queue
                .push(entry.at + SimTime(delay), self.seq, self.seq);
            self.seq += 1;
        }
    }
}

/// A queue warmed by an engine train held near `backlog` pending
/// entries: each pop schedules 0–3 successors, more while the queue is
/// below the backlog and fewer while it is above.
fn warm(backlog: usize) -> Churn {
    let mut churn = Churn {
        queue: CalendarQueue::default(),
        draws: Draws(backlog as u64),
        seq: 1,
    };
    churn.queue.push(SimTime::ZERO, 0, 0);
    for _ in 0..1_000_000 {
        let successors = if churn.queue.len() <= backlog {
            1 + churn.draws.below(3)
        } else {
            churn.draws.below(2)
        };
        churn.step(successors);
    }
    churn
}

#[test]
fn a_warm_calendar_allocates_nothing() {
    for backlog in [64, 1024] {
        let mut churn = warm(backlog);
        let pending = churn.queue.len();
        let (count, ()) = allocations(|| {
            for _ in 0..100_000 {
                churn.step(1);
            }
        });
        assert_eq!(churn.queue.len(), pending);
        assert_eq!(
            count, 0,
            "100 000 push + pop cycles at a backlog of {pending} allocated"
        );
    }
}
