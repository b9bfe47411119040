//! Sim profiler: per-event-type self-time accounting for the
//! discrete-event loop.
//!
//! The simulator's `dispatch` wraps each event in a wall-clock timer and
//! reports the elapsed time here, keyed by the event's static label
//! (`"arrive"`, `"tx-done"`, …). The profiler answers "where does
//! wall-clock go at `--jobs N`" — it measures the *host*, not the
//! simulation, so its numbers are inherently non-deterministic and are
//! kept out of every determinism digest.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// Accumulates `(label → count, total, max)` self-time.
#[derive(Debug, Default)]
pub struct Profiler {
    slots: Mutex<HashMap<&'static str, Acc>>,
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Event-type label.
    pub label: &'static str,
    /// Events dispatched.
    pub count: u64,
    /// Total self-time in nanoseconds.
    pub total_ns: u64,
    /// Slowest single dispatch in nanoseconds.
    pub max_ns: u64,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts one dispatch of `label` taking `elapsed`.
    pub fn record(&self, label: &'static str, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let mut slots = self.slots.lock().expect("profiler lock");
        let acc = slots.entry(label).or_default();
        acc.count += 1;
        acc.total_ns += ns;
        acc.max_ns = acc.max_ns.max(ns);
    }

    /// Rows sorted by total self-time, heaviest first (ties by label, so
    /// the order is stable).
    pub fn rows(&self) -> Vec<ProfileRow> {
        let slots = self.slots.lock().expect("profiler lock");
        let mut rows: Vec<_> = slots
            .iter()
            .map(|(&label, acc)| ProfileRow {
                label,
                count: acc.count,
                total_ns: acc.total_ns,
                max_ns: acc.max_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.label.cmp(b.label)));
        rows
    }

    /// Total dispatches across every label. Unlike the timing columns
    /// this is a *simulated* quantity (one dispatch per event) and is
    /// deterministic per seed.
    pub fn total_events(&self) -> u64 {
        let slots = self.slots.lock().expect("profiler lock");
        slots.values().map(|acc| acc.count).sum()
    }
}

/// Human-readable nanoseconds (`17ns`, `4.2µs`, `1.3ms`, `2.10s`,
/// `3.5m`, `2.1h`).
///
/// Two formatting pitfalls are handled explicitly: a value whose
/// *rounded* text would reach the next unit is bumped into that unit
/// (`999_960ns` → `1.0ms`, never `1000.0µs`), and durations past a
/// minute switch to minute/hour units so the widest possible output
/// (`u64::MAX` → `5124095.6h`) still fits a 10-character column (the
/// time column of `kar-bench inspect`'s timelines).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        return format!("{ns}ns");
    }
    // (divisor, upper bound in the band's unit, decimals, suffix).
    const BANDS: [(f64, f64, usize, &str); 5] = [
        (1e3, 1000.0, 1, "µs"),
        (1e6, 1000.0, 1, "ms"),
        (1e9, 60.0, 2, "s"),
        (60e9, 60.0, 1, "m"),
        (3.6e12, f64::INFINITY, 1, "h"),
    ];
    for (div, bound, prec, suffix) in BANDS {
        let text = format!("{:.prec$}", ns as f64 / div, prec = prec);
        // Compare the *rounded* value so "999.96" (→ "1000.0") spills.
        if text.parse::<f64>().unwrap_or(0.0) < bound {
            return format!("{text}{suffix}");
        }
    }
    unreachable!("the hour band has no upper bound")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_accumulate_and_sort_by_total() {
        let p = Profiler::new();
        // The larger sample first, so that a max that keeps the last
        // sample reads 100.
        p.record("arrive", Duration::from_nanos(300));
        p.record("arrive", Duration::from_nanos(100));
        p.record("timer", Duration::from_nanos(250));
        let rows = p.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "arrive");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_ns, 400);
        assert_eq!(rows[0].max_ns, 300);
        assert_eq!(rows[1].label, "timer");
        assert_eq!(p.total_events(), 3);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(4_200), "4.2µs");
        assert_eq!(fmt_ns(1_300_000), "1.3ms");
        assert_eq!(fmt_ns(2_100_000_000), "2.10s");
    }

    #[test]
    fn fmt_ns_edge_cases_never_overflow_their_unit() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        // Rounding at a unit boundary bumps to the next unit instead of
        // printing four integer digits ("1000.0µs").
        assert_eq!(fmt_ns(999_960), "1.0ms");
        assert_eq!(fmt_ns(999_960_000), "1.00s");
        assert_eq!(fmt_ns(59_996_000_000), "1.0m");
        // Past a minute the s band would grow unboundedly; m/h cap it.
        assert_eq!(fmt_ns(90_000_000_000), "1.5m");
        assert_eq!(fmt_ns(7_200_000_000_000), "2.0h");
        let widest = fmt_ns(u64::MAX);
        assert_eq!(widest, "5124095.6h");
        assert!(widest.chars().count() <= 10, "must fit a 10-wide column");
    }
}
