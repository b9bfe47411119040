//! Fig. 7: TCP throughput on the RNP backbone with no failure and with
//! failures at SW7-SW13, SW13-SW41 and SW41-SW73 (NIP, partial
//! protection).
//!
//! Expected shape (paper §3.2): SW7-SW13 costs <5% (the deflection is
//! deterministic — one extra hop, no disorder); SW13-SW41 costs ≈40%
//! and has the highest variance (five-way random deflection, only 2/5
//! driven); SW41-SW73 costs ≈30% (two-way deflection, both driven, but
//! over paths of different length → persistent reordering).

use crate::cli::{print, Experiment};
use crate::harness::{FailureWindow, TcpRun};
use crate::runner;
use kar::{DeflectionTechnique, EncodingCache, Protection};
use kar_simnet::SimTime;
use kar_tcp::SampleStats;
use kar_topology::rnp28;
use std::sync::Arc;

/// One bar of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Cell {
    /// `"none"` or the failed link, e.g. `"SW13-SW41"`.
    pub failure: String,
    /// Throughput statistics (Mbit/s).
    pub stats: SampleStats,
    /// Mean fraction of the no-failure throughput (filled by [`run_jobs`]).
    pub relative: f64,
    /// Mean reordered arrivals per run.
    pub mean_reordered: f64,
}

/// Runs the four bars (`runs` repetitions of `secs`-second transfers
/// each) on `jobs` worker threads; results are independent of `jobs`.
pub fn run_jobs(runs: usize, secs: u64, base_seed: u64, jobs: usize) -> Vec<Fig7Cell> {
    let topo = rnp28::build();
    let primary: Vec<_> = rnp28::FIG7_ROUTE.iter().map(|n| topo.expect(n)).collect();
    let protection = Protection::Segments(
        rnp28::FIG7_PROTECTION
            .iter()
            .map(|&(a, b)| (topo.expect(a), topo.expect(b)))
            .collect(),
    );
    let mut cases: Vec<(String, Option<kar_topology::LinkId>)> = vec![("none".to_string(), None)];
    for (a, b) in rnp28::FIG7_FAILURES {
        cases.push((format!("{a}-{b}"), Some(topo.expect_link(a, b))));
    }
    let cache = Arc::new(EncodingCache::new());
    let mut specs = Vec::new();
    for (name, link) in &cases {
        for r in 0..runs {
            specs.push(TcpRun {
                technique: DeflectionTechnique::Nip,
                protection: protection.clone(),
                duration: SimTime::from_secs(secs),
                failure: link.map(|l| FailureWindow {
                    link: l,
                    down: SimTime::ZERO,
                    up: SimTime::from_secs(secs + 1),
                }),
                seed: base_seed + r as u64 * 104_729,
                // Shared-softswitch calibration for the RNP
                // workload (≈90% CPU at the no-failure rate).
                switch_service: Some(SimTime::from_micros(20)),
                cache: Some(cache.clone()),
                label: format!("fig7/{name}/r{r}"),
                ..TcpRun::new(&topo, primary.clone())
            });
        }
    }
    let results = runner::run_all(&specs, jobs);
    let mut cells: Vec<Fig7Cell> = cases
        .iter()
        .enumerate()
        .map(|(ci, (name, _))| {
            let case_results = &results[ci * runs..(ci + 1) * runs];
            let reordered: u64 = case_results.iter().map(|res| res.reordered).sum();
            let samples: Vec<f64> = case_results
                .iter()
                .map(|res| res.meter.mean_mbps(SimTime::ZERO, SimTime::from_secs(secs)))
                .collect();
            Fig7Cell {
                failure: name.clone(),
                stats: SampleStats::from_samples(&samples),
                relative: 0.0,
                mean_reordered: reordered as f64 / runs as f64,
            }
        })
        .collect();
    let nominal = cells[0].stats.mean;
    for c in &mut cells {
        c.relative = if nominal > 0.0 {
            c.stats.mean / nominal
        } else {
            0.0
        };
    }
    cells
}

/// Renders the bars with relative throughput.
pub fn render(cells: &[Fig7Cell]) -> String {
    let mut out = String::from(
        "Fig. 7 — RNP backbone, NIP + partial protection (route SW7→SW13→SW41→SW73)\n\
         | Failure | Mean (Mbit/s) | ±95% CI | Relative | Reordered/run |\n|---|---|---|---|---|\n",
    );
    for c in cells {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.0}% | {:.0} |\n",
            c.failure,
            c.stats.mean,
            c.stats.ci95,
            c.relative * 100.0,
            c.mean_reordered
        ));
    }
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "fig7",
    "Fig. 7: RNP backbone, NIP + partial protection, three failure locations",
    super::TCP_FLAGS,
    |args| {
        let (runs, secs) = (args.get("--runs"), args.get("--seconds"));
        print(render(&run_jobs(runs, secs, args.seed(), args.jobs())))
    },
);

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down (2 × 3 s): the paper's qualitative ordering must hold:
    /// SW7-SW13 is nearly free; the other two failures cost real
    /// throughput.
    #[test]
    fn shape_holds_scaled_down() {
        let cells = run_jobs(2, 3, 5, 1);
        assert_eq!(cells.len(), 4);
        let rel = |name: &str| cells.iter().find(|c| c.failure == name).unwrap().relative;
        let r_713 = rel("SW7-SW13");
        let r_1341 = rel("SW13-SW41");
        let r_4173 = rel("SW41-SW73");
        assert!(
            r_713 > 0.85,
            "SW7-SW13 should cost little (deterministic detour): {r_713}"
        );
        assert!(
            r_713 > r_1341,
            "SW13-SW41 (5-way deflection) must cost more than SW7-SW13: {r_1341} vs {r_713}"
        );
        assert!(r_1341 > 0.05, "traffic must survive SW13-SW41: {r_1341}");
        assert!(r_4173 > 0.05, "traffic must survive SW41-SW73: {r_4173}");
        // The deterministic detour adds no reordering; the random ones do.
        let reord = |name: &str| {
            cells
                .iter()
                .find(|c| c.failure == name)
                .unwrap()
                .mean_reordered
        };
        assert!(
            reord("SW13-SW41") > reord("none"),
            "five-way deflection must reorder"
        );
    }

    #[test]
    fn render_lists_all_cases() {
        let cells = run_jobs(1, 2, 1, 1);
        let text = render(&cells);
        for name in ["none", "SW7-SW13", "SW13-SW41", "SW41-SW73"] {
            assert!(text.contains(name), "{name} missing from\n{text}");
        }
    }
}
