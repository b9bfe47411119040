//! Fig. 8: the redundant-path worst case on the RNP backbone.
//!
//! Route SW41→SW73→SW107→SW113 with the parallel branch SW73–SW109–SW113
//! that KAR *cannot* encode as a second option (one residue per switch).
//! Protection SW71→SW17→SW41→SW73 forms a loop back to SW73: on a
//! SW73-SW107 failure, each pass through SW73 is a coin flip between
//! SW109 (delivery) and SW71 (another lap). The paper measures 54.8% of
//! nominal TCP throughput as the cost of those laps.

use crate::cli::{print, Experiment};
use crate::harness::{FailureWindow, TcpRun};
use crate::runner;
use kar::{DeflectionTechnique, EncodingCache, Protection};
use kar_simnet::SimTime;
use kar_tcp::SampleStats;
use kar_topology::rnp28;
use std::sync::Arc;

/// Result of the Fig. 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// No-failure throughput statistics (Mbit/s).
    pub nominal: SampleStats,
    /// Throughput statistics with the SW73-SW107 failure.
    pub with_failure: SampleStats,
    /// `with_failure / nominal` (the paper reports 0.548).
    pub ratio: f64,
    /// Mean hops per delivered packet without failure.
    pub hops_nominal: f64,
    /// Mean hops per delivered packet with the failure (protection-loop
    /// laps show up here).
    pub hops_failure: f64,
}

/// Runs the experiment (`runs` repetitions of `secs`-second transfers
/// per case) on `jobs` worker threads; results are independent of
/// `jobs`.
pub fn run_jobs(runs: usize, secs: u64, base_seed: u64, jobs: usize) -> Fig8Result {
    let topo = rnp28::build();
    let primary: Vec<_> = rnp28::FIG8_ROUTE.iter().map(|n| topo.expect(n)).collect();
    let protection = Protection::Segments(
        rnp28::FIG8_PROTECTION
            .iter()
            .map(|&(a, b)| (topo.expect(a), topo.expect(b)))
            .collect(),
    );
    let (fa, fb) = rnp28::FIG8_FAILURE;
    let failed = topo.expect_link(fa, fb);
    let cache = Arc::new(EncodingCache::new());
    let cases = [
        ("nominal", None),
        (
            "SW73-SW107",
            Some(FailureWindow {
                link: failed,
                down: SimTime::ZERO,
                up: SimTime::from_secs(secs + 1),
            }),
        ),
    ];
    let mut specs = Vec::new();
    for (name, failure) in cases {
        for r in 0..runs {
            specs.push(TcpRun {
                technique: DeflectionTechnique::Nip,
                protection: protection.clone(),
                duration: SimTime::from_secs(secs),
                failure,
                seed: base_seed + r as u64 * 15_485_863,
                ttl: 255, // protection loops need headroom
                // Same RNP shared-softswitch calibration as Fig. 7.
                switch_service: Some(SimTime::from_micros(20)),
                cache: Some(cache.clone()),
                label: format!("fig8/{name}/r{r}"),
                ..TcpRun::new(&topo, primary.clone())
            });
        }
    }
    let results = runner::run_all(&specs, jobs);
    let mut hops = [0.0f64; 2];
    let mut samples = [Vec::new(), Vec::new()];
    for (idx, case_results) in results.chunks(runs.max(1)).enumerate() {
        for res in case_results {
            hops[idx] += res.mean_hops / runs as f64;
            samples[idx].push(res.meter.mean_mbps(SimTime::ZERO, SimTime::from_secs(secs)));
        }
    }
    let nominal = SampleStats::from_samples(&samples[0]);
    let with_failure = SampleStats::from_samples(&samples[1]);
    Fig8Result {
        ratio: if nominal.mean > 0.0 {
            with_failure.mean / nominal.mean
        } else {
            0.0
        },
        nominal,
        with_failure,
        hops_nominal: hops[0],
        hops_failure: hops[1],
    }
}

/// Renders the result with the paper's 54.8% reference point.
pub fn render(r: &Fig8Result) -> String {
    format!(
        "Fig. 8 — redundant-path worst case (route SW41→SW73→SW107→SW113, failure SW73-SW107)\n\
         | Case | Mean (Mbit/s) | ±95% CI | Mean hops |\n|---|---|---|---|\n\
         | no failure | {:.1} | {:.1} | {:.1} |\n\
         | SW73-SW107 failed | {:.1} | {:.1} | {:.1} |\n\
         ratio = {:.1}% of nominal (paper: 54.8%)\n",
        r.nominal.mean,
        r.nominal.ci95,
        r.hops_nominal,
        r.with_failure.mean,
        r.with_failure.ci95,
        r.hops_failure,
        r.ratio * 100.0
    )
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "fig8",
    "Fig. 8: redundant-path worst case (the protection loop)",
    super::TCP_FLAGS,
    |args| {
        let (runs, secs) = (args.get("--runs"), args.get("--seconds"));
        print(render(&run_jobs(runs, secs, args.seed(), args.jobs())))
    },
);

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down: the protection loop must cost real throughput (well
    /// below nominal) without killing the flow, and must inflate hop
    /// counts.
    #[test]
    fn protection_loop_costs_throughput_not_delivery() {
        let r = run_jobs(2, 3, 9, 1);
        assert!(
            r.nominal.mean > 60.0,
            "nominal ≈ 100 Mbit/s: {:?}",
            r.nominal
        );
        assert!(
            r.ratio > 0.1 && r.ratio < 0.95,
            "failure must cost real throughput: ratio {}",
            r.ratio
        );
        assert!(
            r.hops_failure > r.hops_nominal,
            "protection laps must inflate hops: {} vs {}",
            r.hops_failure,
            r.hops_nominal
        );
    }

    #[test]
    fn render_mentions_paper_reference() {
        let r = run_jobs(1, 2, 2, 1);
        assert!(render(&r).contains("paper: 54.8%"));
    }
}
