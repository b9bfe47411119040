//! Fig. 4: TCP throughput time series across a 30-second failure of link
//! SW7–SW13 for the four deflection techniques.
//!
//! Paper protocol: measurement starts 30 s before the failure, the
//! failure lasts 30 s, measurement continues 30 s after repair. Expected
//! shape: *no deflection* collapses to zero during the outage; NIP keeps
//! the highest deflected throughput (the paper reports ≈150 of
//! 200 Mbit/s, a ≈25% disordering penalty); HP is the worst deflecting
//! technique.

use crate::cli::{flag, print, Experiment};
use crate::harness::{FailureWindow, TcpRun};
use crate::runner;
use kar::{DeflectionTechnique, EncodingCache, Protection};
use kar_simnet::SimTime;
use kar_topology::topo15;
use std::sync::Arc;

/// Configuration of the Fig. 4 experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Config {
    /// Seconds before the failure.
    pub pre_s: u64,
    /// Failure duration in seconds.
    pub fail_s: u64,
    /// Seconds after repair.
    pub post_s: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig4Config {
    /// The paper's 30 s / 30 s / 30 s protocol.
    fn default() -> Self {
        Fig4Config {
            pre_s: 30,
            fail_s: 30,
            post_s: 30,
            seed: 1,
        }
    }
}

/// One curve of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Series {
    /// Deflection technique.
    pub technique: DeflectionTechnique,
    /// Per-second goodput in Mbit/s.
    pub series: Vec<f64>,
    /// Mean goodput during the failure window.
    pub mean_during_failure: f64,
    /// Mean goodput before the failure.
    pub mean_before: f64,
    /// Out-of-order arrivals at the receiver.
    pub reordered: u64,
}

/// Runs the four curves (NoDeflection, HP, AVP, NIP) with the paper's
/// Fig. 3 partial protection, one worker thread per curve up to `jobs`.
pub fn run_jobs(cfg: Fig4Config, jobs: usize) -> Vec<Fig4Series> {
    let topo = topo15::build();
    let primary = topo15::primary_route(&topo);
    let protection =
        Protection::Segments(topo15::protection_pairs(&topo, &topo15::PARTIAL_PROTECTION));
    let total = SimTime::from_secs(cfg.pre_s + cfg.fail_s + cfg.post_s);
    let down = SimTime::from_secs(cfg.pre_s);
    let up = SimTime::from_secs(cfg.pre_s + cfg.fail_s);
    let link = topo.expect_link("SW7", "SW13");
    let cache = Arc::new(EncodingCache::new());
    let specs: Vec<TcpRun<'_>> = DeflectionTechnique::ALL
        .iter()
        .map(|&technique| TcpRun {
            technique,
            protection: protection.clone(),
            duration: total,
            failure: Some(FailureWindow { link, down, up }),
            seed: cfg.seed,
            // Calibrated so the 200 Mbit/s no-failure workload runs
            // the shared softswitch near saturation, as in the
            // paper's single-host emulation.
            switch_service: Some(SimTime::from_micros(7)),
            cache: Some(cache.clone()),
            label: format!("fig4/{}", technique.label()),
            ..TcpRun::new(&topo, primary.clone())
        })
        .collect();
    let results = runner::run_all(&specs, jobs);
    results
        .iter()
        .zip(DeflectionTechnique::ALL)
        .map(|(res, technique)| {
            // Skip the first second of both windows (slow-start /
            // failure-detection transients), as iperf interval reads do.
            let mean_before = res
                .meter
                .mean_mbps(SimTime::from_secs(1.min(cfg.pre_s)), down);
            let mean_during_failure = res.meter.mean_mbps(down + SimTime::from_secs(1), up);
            Fig4Series {
                technique,
                series: res.meter.series_mbps(total),
                mean_during_failure,
                mean_before,
                reordered: res.reordered,
            }
        })
        .collect()
}

/// Renders the per-second series as CSV (`t,NoDeflection,HP,AVP,NIP`)
/// plus a summary block.
pub fn render(series: &[Fig4Series]) -> String {
    let mut out = String::from("Fig. 4 — TCP throughput vs time, failure of SW7-SW13\n");
    out.push_str("t_s");
    for s in series {
        out.push_str(&format!(",{}", s.technique));
    }
    out.push('\n');
    let len = series.iter().map(|s| s.series.len()).max().unwrap_or(0);
    for t in 0..len {
        out.push_str(&format!("{t}"));
        for s in series {
            out.push_str(&format!(",{:.2}", s.series.get(t).copied().unwrap_or(0.0)));
        }
        out.push('\n');
    }
    out.push_str("\nSummary (Mbit/s):\n");
    for s in series {
        out.push_str(&format!(
            "  {:<12} before={:>7.1}  during-failure={:>7.1}  reordered={}\n",
            s.technique.to_string(),
            s.mean_before,
            s.mean_during_failure,
            s.reordered
        ));
    }
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "fig4",
    "Fig. 4: TCP throughput time series across a failure of SW7-SW13",
    &[
        flag("--pre", "30", "seconds before the failure"),
        flag("--fail", "30", "failure duration in seconds"),
        flag("--post", "30", "seconds after repair"),
    ],
    |args| {
        let cfg = Fig4Config {
            pre_s: args.get("--pre"),
            fail_s: args.get("--fail"),
            post_s: args.get("--post"),
            seed: args.seed(),
        };
        eprintln!("fig4: {cfg:?}, {} jobs", args.jobs());
        print(render(&run_jobs(cfg, args.jobs())))
    },
);

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down Fig. 4 (3 s / 4 s / 3 s) — the paper's qualitative
    /// ordering must hold: NoDeflection starves; NIP and AVP keep TCP
    /// alive; deflecting techniques beat the no-deflection reference.
    #[test]
    fn shape_holds_scaled_down() {
        let cfg = Fig4Config {
            pre_s: 3,
            fail_s: 4,
            post_s: 3,
            seed: 7,
        };
        let series = run_jobs(cfg, 1);
        assert_eq!(series.len(), 4);
        let get = |t: DeflectionTechnique| {
            series
                .iter()
                .find(|s| s.technique == t)
                .unwrap()
                .mean_during_failure
        };
        let none = get(DeflectionTechnique::None);
        let nip = get(DeflectionTechnique::Nip);
        let avp = get(DeflectionTechnique::Avp);
        assert!(none < 1.0, "no deflection must starve: {none}");
        assert!(nip > 20.0, "NIP must keep TCP alive: {nip}");
        assert!(avp > 5.0, "AVP must keep TCP alive: {avp}");
        assert!(nip > none && avp > none);
        // Before the failure every technique saturates.
        for s in &series {
            assert!(s.mean_before > 120.0, "{}: {}", s.technique, s.mean_before);
        }
    }

    #[test]
    fn render_emits_csv_and_summary() {
        let cfg = Fig4Config {
            pre_s: 2,
            fail_s: 2,
            post_s: 1,
            seed: 1,
        };
        let series = run_jobs(cfg, 1);
        let text = render(&series);
        assert!(text.contains("t_s,NoDeflection,HP,AVP,NIP"));
        assert!(text.contains("during-failure="));
    }
}
