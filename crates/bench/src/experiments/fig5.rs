//! Fig. 5: TCP throughput vs failure location × protection level ×
//! deflection technique on the 15-node network.
//!
//! Paper protocol: for each failure location (SW10-SW7, SW7-SW13,
//! SW13-SW29), protection level (unprotected / partial / full) and
//! technique (AVP, NIP), run iperf 30 × 5 s with the failure in place
//! and report mean ± 95% CI. Expected shape: full protection is best
//! everywhere (≈140 of 200 Mbit/s); partial ≈ full except for the
//! SW10-SW7 failure, where only 1/3 of deflected packets are driven
//! (≈80 vs ≈140 Mbit/s for NIP).

use crate::cli::{print, Experiment};
use crate::harness::{FailureWindow, TcpRun};
use crate::runner;
use kar::{DeflectionTechnique, EncodingCache, Protection};
use kar_simnet::SimTime;
use kar_tcp::SampleStats;
use kar_topology::{topo15, Topology};
use std::sync::Arc;

/// Protection level labels of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtectionLevel {
    /// No driven-deflection segments.
    Unprotected,
    /// The Fig. 3 partial segments.
    Partial,
    /// Partial plus the SW17/SW37/SW41 branch.
    Full,
}

impl ProtectionLevel {
    /// All levels in figure order.
    pub const ALL: [ProtectionLevel; 3] = [
        ProtectionLevel::Unprotected,
        ProtectionLevel::Partial,
        ProtectionLevel::Full,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            ProtectionLevel::Unprotected => "Unprotected",
            ProtectionLevel::Partial => "Partial",
            ProtectionLevel::Full => "Full",
        }
    }

    /// Resolves to concrete protection segments on topo15.
    pub fn protection(self, topo: &kar_topology::Topology) -> Protection {
        match self {
            ProtectionLevel::Unprotected => Protection::None,
            ProtectionLevel::Partial => {
                Protection::Segments(topo15::protection_pairs(topo, &topo15::PARTIAL_PROTECTION))
            }
            ProtectionLevel::Full => {
                let mut segs = topo15::protection_pairs(topo, &topo15::PARTIAL_PROTECTION);
                segs.extend(topo15::protection_pairs(
                    topo,
                    &topo15::FULL_EXTRA_PROTECTION,
                ));
                Protection::Segments(segs)
            }
        }
    }
}

/// One bar of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Cell {
    /// Failure location, e.g. `"SW10-SW7"`.
    pub failure: String,
    /// Protection level.
    pub level: ProtectionLevel,
    /// Deflection technique.
    pub technique: DeflectionTechnique,
    /// Throughput statistics over the repetitions (Mbit/s).
    pub stats: SampleStats,
}

/// Builds the flat spec list of the Fig. 5 grid, in cell-major order
/// (`runs` consecutive specs per cell), plus the cell coordinates of
/// every spec. One shared encoding cache serves the whole sweep — each
/// `(protection level, direction)` route is sealed once and reused by
/// the other `3 × runs - 1` runs that need it.
pub fn spec_set(
    topo: &Topology,
    runs: usize,
    secs: u64,
    base_seed: u64,
) -> (Vec<TcpRun<'_>>, Vec<String>) {
    let primary = topo15::primary_route(topo);
    let cache = Arc::new(EncodingCache::new());
    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for (a, b) in topo15::FAILURE_LOCATIONS {
        let link = topo.expect_link(a, b);
        for level in ProtectionLevel::ALL {
            for technique in [DeflectionTechnique::Avp, DeflectionTechnique::Nip] {
                for r in 0..runs {
                    let label = format!("{a}-{b}/{}/{technique}/r{r}", level.label());
                    specs.push(TcpRun {
                        technique,
                        protection: level.protection(topo),
                        duration: SimTime::from_secs(secs),
                        failure: Some(FailureWindow {
                            link,
                            down: SimTime::ZERO,
                            up: SimTime::from_secs(secs + 1), // never repaired
                        }),
                        seed: base_seed + r as u64 * 7919,
                        // Same shared-softswitch calibration as Fig. 4.
                        switch_service: Some(SimTime::from_micros(7)),
                        cache: Some(cache.clone()),
                        label: format!("fig5/{label}"),
                        ..TcpRun::new(topo, primary.clone())
                    });
                    labels.push(label);
                }
            }
        }
    }
    (specs, labels)
}

/// Runs the full grid: `runs` repetitions of `secs`-second transfers per
/// cell, on `jobs` worker threads (results are independent of `jobs`).
pub fn run_jobs(runs: usize, secs: u64, base_seed: u64, jobs: usize) -> Vec<Fig5Cell> {
    let topo = topo15::build();
    let (specs, _) = spec_set(&topo, runs, secs, base_seed);
    let results = runner::run_all(&specs, jobs);
    let mut cells = Vec::new();
    let mut next = results.iter();
    for (a, b) in topo15::FAILURE_LOCATIONS {
        for level in ProtectionLevel::ALL {
            for technique in [DeflectionTechnique::Avp, DeflectionTechnique::Nip] {
                let samples: Vec<f64> = (0..runs)
                    .map(|_| {
                        next.next()
                            .expect("one result per spec")
                            .meter
                            .mean_mbps(SimTime::ZERO, SimTime::from_secs(secs))
                    })
                    .collect();
                cells.push(Fig5Cell {
                    failure: format!("{a}-{b}"),
                    level,
                    technique,
                    stats: SampleStats::from_samples(&samples),
                });
            }
        }
    }
    cells
}

/// Renders the grid as a table with 95% confidence intervals.
pub fn render(cells: &[Fig5Cell]) -> String {
    let mut out = String::from(
        "Fig. 5 — TCP throughput (Mbit/s) vs failure location, protection, technique\n\
         | Failure | Protection | Technique | Mean | ±95% CI | n |\n|---|---|---|---|---|---|\n",
    );
    for c in cells {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1} | {:.1} | {} |\n",
            c.failure,
            c.level.label(),
            c.technique,
            c.stats.mean,
            c.stats.ci95,
            c.stats.n
        ));
    }
    out
}

/// Fetches a cell by coordinates.
pub fn cell<'a>(
    cells: &'a [Fig5Cell],
    failure: &str,
    level: ProtectionLevel,
    technique: DeflectionTechnique,
) -> &'a Fig5Cell {
    cells
        .iter()
        .find(|c| c.failure == failure && c.level == level && c.technique == technique)
        .expect("cell exists")
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "fig5",
    "Fig. 5: throughput vs failure location × protection × technique",
    super::TCP_FLAGS,
    |args| {
        let (runs, secs) = (args.get("--runs"), args.get("--seconds"));
        print(render(&run_jobs(runs, secs, args.seed(), args.jobs())))
    },
);

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down grid (2 runs × 3 s): the paper's two headline
    /// observations must hold.
    #[test]
    fn paper_observations_hold_scaled_down() {
        let cells = run_jobs(2, 3, 11, 1);
        assert_eq!(cells.len(), 3 * 3 * 2);
        let nip = DeflectionTechnique::Nip;
        // Observation 1: full protection beats unprotected everywhere.
        for (a, b) in topo15::FAILURE_LOCATIONS {
            let f = format!("{a}-{b}");
            let full = cell(&cells, &f, ProtectionLevel::Full, nip).stats.mean;
            let unprot = cell(&cells, &f, ProtectionLevel::Unprotected, nip)
                .stats
                .mean;
            assert!(
                full > unprot * 0.9,
                "{f}: full {full} should not lose to unprotected {unprot}"
            );
            assert!(full > 40.0, "{f}: full protection keeps TCP alive: {full}");
        }
        // Observation 2: for SW10-SW7 (the 2/3-uncovered failure), full
        // protection clearly beats partial; for the enclosed failures the
        // two are comparable.
        let full_107 = cell(&cells, "SW10-SW7", ProtectionLevel::Full, nip)
            .stats
            .mean;
        let part_107 = cell(&cells, "SW10-SW7", ProtectionLevel::Partial, nip)
            .stats
            .mean;
        assert!(
            full_107 > part_107 * 1.2,
            "full ({full_107}) must clearly beat partial ({part_107}) for SW10-SW7"
        );
        let full_713 = cell(&cells, "SW7-SW13", ProtectionLevel::Full, nip)
            .stats
            .mean;
        let part_713 = cell(&cells, "SW7-SW13", ProtectionLevel::Partial, nip)
            .stats
            .mean;
        assert!(
            (part_713 - full_713).abs() < full_713 * 0.4,
            "partial ({part_713}) ≈ full ({full_713}) for the enclosed SW7-SW13 failure"
        );
    }

    #[test]
    fn render_contains_grid() {
        let cells = run_jobs(1, 2, 3, 1);
        let text = render(&cells);
        assert!(text.contains("| SW10-SW7 | Unprotected | AVP |"));
        assert!(text.contains("| SW13-SW29 | Full | NIP |"));
    }
}
