//! What every workload has in common: the repetition contract, the
//! traced-run contract, and seeded input sampling.

use crate::span::Tracer;
use kar_topology::NodeId;
use std::collections::HashSet;
use std::time::Duration;

/// Outcome of one repetition of a workload's fixed work.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Operations attempted (the op is fixed per workload).
    pub ops: u64,
    /// Operations whose result failed its correctness check. When a
    /// whole-repetition check fails (conservation, equal `Stats`, daemon
    /// counters) every op of the repetition counts as failed.
    pub failed: u64,
    /// Wall time of the repetition.
    pub wall: Duration,
}

impl Rep {
    /// Ops completed per wall second; a failed op counts as not done.
    pub fn ops_per_s(&self) -> f64 {
        (self.ops - self.failed) as f64 / self.wall.as_secs_f64()
    }
}

/// `(metric name, value)` pairs a traced run measured.
pub type Layers = Vec<(String, f64)>;

/// The value measured under `name` (0 when it was not).
pub fn layer(layers: &Layers, name: &str) -> f64 {
    layers
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// One benchmark workload, set up from a seed and ready to repeat its
/// fixed work. Dropping it stops everything it started.
pub trait Workload {
    /// Runs the fixed work once. Timed runs pass [`Tracer::off`].
    fn repetition(&mut self, tracer: &mut Tracer) -> Rep;

    /// The traced run: plain and instrumented repetitions plus the unit
    /// costs of the layers this workload enters. Returns the per-layer
    /// metrics it measured, the repetitions it made (for the failure
    /// count) and fills `tracer` with spans.
    fn traced(&mut self, tracer: &mut Tracer) -> (Layers, Vec<Rep>);
}

/// Sizes of the two run modes: every workload is written once and sized
/// by `pick(full, smoke)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `--smoke`: tiny inputs, one repetition, numbers not comparable.
    pub smoke: bool,
}

impl Scale {
    /// `full` normally, `smoke` under `--smoke`.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// A splitmix64 stream: every seeded choice a workload makes (pairs,
/// pacing, flap order) is drawn from one of these, so the same `--seed`
/// gives the same inputs on every machine.
pub struct Draws(u64);

impl Draws {
    /// A stream for `seed`; `salt` separates the streams of one run.
    pub fn new(seed: u64, salt: u64) -> Draws {
        Draws(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Samples `n` distinct ordered `(src, dst)` pairs of distinct hosts.
///
/// # Panics
///
/// Panics when asked for more than half the pairs that exist (rejection
/// sampling would crawl).
pub fn sample_pairs(hosts: &[NodeId], n: usize, draws: &mut Draws) -> Vec<(NodeId, NodeId)> {
    assert!(
        n <= hosts.len() * (hosts.len() - 1) / 2,
        "not enough host pairs to sample {n} distinct ones"
    );
    let mut seen = HashSet::new();
    let mut pairs = Vec::with_capacity(n);
    while pairs.len() < n {
        let src = hosts[draws.below(hosts.len())];
        let dst = hosts[draws.below(hosts.len())];
        if src != dst && seen.insert((src, dst)) {
            pairs.push((src, dst));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pairs_and_distinct_means_distinct() {
        let hosts: Vec<NodeId> = (0..40).map(NodeId).collect();
        let a = sample_pairs(&hosts, 500, &mut Draws::new(7, 1));
        let b = sample_pairs(&hosts, 500, &mut Draws::new(7, 1));
        let c = sample_pairs(&hosts, 500, &mut Draws::new(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 500);
        assert!(a.iter().all(|(s, d)| s != d));
    }

    #[test]
    fn a_failed_op_counts_as_not_done() {
        let rep = Rep {
            ops: 100,
            failed: 25,
            wall: Duration::from_secs(1),
        };
        assert_eq!(rep.ops_per_s(), 75.0);
    }
}
