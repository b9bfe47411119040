//! The per-layer ledger: unit costs and their reconciliation against
//! the end-to-end wall time.
//!
//! Each layer is called directly, from outside, on inputs taken from
//! the workload, and its unit cost is the median over [`BATCHES`] timed
//! batches after a warm-up. [`reconcile`] then multiplies counts by unit
//! costs and reports what share of the timed wall they leave
//! unexplained.

use crate::stats::median;
use std::time::{Duration, Instant};

/// Timed batches per unit cost.
pub const BATCHES: usize = 7;

/// How long one batch of an idempotent operation should run.
fn batch_target(smoke: bool) -> Duration {
    if smoke {
        Duration::from_micros(40)
    } else {
        Duration::from_millis(2)
    }
}

/// Nanoseconds per call of an idempotent `f`. The batch size is doubled
/// until one batch reaches the target length (which also warms caches
/// and the allocator), then [`BATCHES`] batches are timed.
pub fn per_call_ns(smoke: bool, mut f: impl FnMut()) -> f64 {
    let mut time = |iters: u64| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed()
    };
    let mut iters = 1u64;
    while time(iters) < batch_target(smoke) && iters < 1 << 24 {
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| time(iters).as_nanos() as f64 / iters as f64)
        .collect();
    median(&samples)
}

/// Nanoseconds per call for operations that consume their input (a cold
/// encode can only be cold once): every call of `batch` performs one
/// batch on fresh state and returns `(elapsed, calls)`. The first batch
/// is the warm-up.
pub fn per_call_ns_batched(mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let samples: Vec<f64> = (0..=BATCHES)
        .map(|_| {
            let (elapsed, calls) = batch();
            elapsed.as_nanos() as f64 / calls.max(1) as f64
        })
        .skip(1)
        .collect();
    median(&samples)
}

/// One line of the reconciliation: a layer entered `count` times at
/// `unit_ns` each.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Layer name as the README's table has it.
    pub layer: &'static str,
    /// Times the workload entered the layer in one repetition.
    pub count: f64,
    /// Unit cost on the workload's own inputs.
    pub unit_ns: f64,
}

/// Share of the timed wall, in percent, that Σ count × unit cost leaves
/// unaccounted for — `trace.unexplained_pct`. Above 20 % the remainder
/// is printed by name instead of failing the run: it names what cannot
/// be separated from outside yet.
pub fn unexplained_pct(wall_ns: f64, rows: &[Row]) -> f64 {
    let explained: f64 = rows.iter().map(|r| r.count * r.unit_ns).sum();
    100.0 * (1.0 - explained / wall_ns)
}

/// Prints the reconciliation table and returns [`unexplained_pct`].
pub fn reconcile(wall_ns: f64, rows: &[Row], remainder: &str) -> f64 {
    println!(
        "ledger (count x unit cost vs {:.1} ms timed wall):",
        wall_ns / 1e6
    );
    for r in rows {
        let total = r.count * r.unit_ns;
        println!(
            "  {:<34} {:>11.0} x {:>10.1} ns = {:>9.2} ms  {:>5.1} %",
            r.layer,
            r.count,
            r.unit_ns,
            total / 1e6,
            100.0 * total / wall_ns
        );
    }
    let rest = unexplained_pct(wall_ns, rows);
    if rest > 20.0 {
        println!("  unexplained {rest:.1} % (over 20 %) is: {remainder}");
    } else if rest < 0.0 {
        println!(
            "  over-explained by {:.1} %: unit costs measured in isolation overstate the layers in situ",
            -rest
        );
    } else {
        println!("  unexplained {rest:.1} %");
    }
    rest
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn unexplained_is_what_the_rows_leave_over() {
        let rows = [
            Row {
                layer: "a",
                count: 1000.0,
                unit_ns: 300.0,
            },
            Row {
                layer: "b",
                count: 10.0,
                unit_ns: 10_000.0,
            },
        ];
        assert_eq!(unexplained_pct(1_000_000.0, &rows), 60.0);
        assert_eq!(reconcile(1_000_000.0, &rows, "everything else"), 60.0);
    }

    #[test]
    fn per_call_cost_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = x.wrapping_add(black_box(i));
                }
                black_box(x);
            }
        };
        let small = per_call_ns(true, spin(100));
        let large = per_call_ns(true, spin(10_000));
        assert!(small > 0.0);
        assert!(large > small * 10.0, "{small} ns vs {large} ns");
    }

    #[test]
    fn batched_form_skips_the_warm_up_batch() {
        let mut slow = 1000;
        let ns = per_call_ns_batched(|| {
            let batch = (Duration::from_nanos(slow * 4), 4);
            slow = 10;
            batch
        });
        assert_eq!(ns, 10.0);
    }
}
