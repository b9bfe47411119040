//! Parallel experiment runner: fans [`TcpRun`] specs across worker
//! threads with deterministic, serial-identical results.
//!
//! Each spec is self-contained — `run_tcp` builds a fresh network and
//! simulator seeded from `spec.seed`, never touching global state — so
//! runs commute. The runner exploits that: workers pull spec indices
//! from a shared atomic counter (work stealing — fast runs free their
//! worker for the next spec), and results are slotted back by index.
//! The output vector at `jobs = N` is therefore byte-identical to the
//! serial `jobs = 1` sweep, which the conformance tests in this module
//! and `tests/parallel_determinism.rs` enforce.

use crate::harness::{run_tcp_at, TcpRun, TcpRunResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Worker-thread count when `--jobs` expresses no preference: all
/// available cores.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map: applies `f` to every item on a
/// work-stealing pool of `jobs` threads and returns results in item
/// order.
///
/// `jobs = 1` runs serially on the calling thread; `jobs > 1` fans out
/// over `min(jobs, items.len())` workers pulling indices from a shared
/// atomic counter. As long as `f` is a pure function of its item (no
/// global state), the output is byte-identical at any job count — the
/// property every experiment sweep and the dynamic fault experiments
/// build their `--jobs` determinism guarantee on.
pub fn run_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let result = f(&items[idx]);
                if tx.send((idx, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        for (idx, result) in rx {
            slots[idx] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every item index was claimed by exactly one worker"))
            .collect()
    })
}

/// Runs every spec and returns the results in spec order (the TCP
/// specialization of [`run_map`]; see the module docs).
pub fn run_all(specs: &[TcpRun<'_>], jobs: usize) -> Vec<TcpRunResult> {
    let indices: Vec<usize> = (0..specs.len()).collect();
    run_map(&indices, jobs, |&i| run_tcp_at(&specs[i], i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Args;
    use crate::experiments::REGISTRY;
    use crate::harness::FailureWindow;
    use kar::{EncodingCache, Protection};
    use kar_simnet::SimTime;
    use kar_topology::topo15;
    use std::sync::Arc;

    fn spec_set(topo: &kar_topology::Topology, n: usize) -> Vec<TcpRun<'_>> {
        let primary = topo15::primary_route(topo);
        let cache = Arc::new(EncodingCache::new());
        (0..n)
            .map(|r| TcpRun {
                protection: Protection::AutoFull,
                duration: SimTime::from_secs(2),
                failure: (r % 2 == 0).then(|| FailureWindow {
                    link: topo.expect_link("SW7", "SW13"),
                    down: SimTime::ZERO,
                    up: SimTime::from_secs(3),
                }),
                seed: 100 + r as u64 * 7919,
                cache: Some(cache.clone()),
                ..TcpRun::new(topo, primary.clone())
            })
            .collect()
    }

    /// The tentpole conformance property: a parallel sweep is
    /// byte-identical to the serial one.
    #[test]
    fn parallel_results_match_serial_byte_for_byte() {
        let topo = topo15::build();
        let specs = spec_set(&topo, 6);
        let serial = run_all(&specs, 1);
        let parallel = run_all(&specs, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.digest(), p.digest());
        }
    }

    #[test]
    fn oversubscribed_jobs_are_clamped() {
        let topo = topo15::build();
        let specs = spec_set(&topo, 2);
        let results = run_all(&specs, 64);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.delivered > 0));
    }

    #[test]
    fn empty_spec_set_is_fine() {
        assert!(run_all(&[], 8).is_empty());
    }

    #[test]
    fn run_map_preserves_order_for_any_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * i).collect();
        for jobs in [1, 2, 5, 64] {
            assert_eq!(run_map(&items, jobs, |&i| i * i), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse = |args: &[&str]| {
            let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            Args::parse(&REGISTRY[0], &argv).map(|a| a.jobs())
        };
        assert_eq!(parse(&["--jobs", "3"]), Ok(3));
        assert_eq!(parse(&["--jobs=5"]), Ok(5));
        assert_eq!(parse(&["--jobs", "2", "--jobs", "7"]), Ok(7), "last wins");
        assert!(parse(&["--jobs", "junk"]).unwrap_err().contains("junk"));
        assert_eq!(parse(&["--jobs", "0"]), Ok(default_jobs()));
        assert_eq!(parse(&[]), Ok(default_jobs()));
    }
}
