//! Congestion-control ablation: does the choice of Reno vs CUBIC (the
//! Linux default of the paper's era) change KAR's measured failure
//! reaction? Runs the Fig. 4 scenario (SW7-SW13 failure, NIP, partial
//! protection) under both algorithms.

use crate::cli::{flag, print, Experiment};
use crate::harness::{run_tcp, FailureWindow, TcpRun};
use kar::{DeflectionTechnique, Protection};
use kar_simnet::SimTime;
use kar_tcp::CongestionControl;
use kar_topology::topo15;

/// One measured row.
#[derive(Debug, Clone, Copy)]
pub struct CcRow {
    /// Congestion-control algorithm.
    pub congestion: CongestionControl,
    /// Mean goodput before the failure (Mbit/s).
    pub before: f64,
    /// Mean goodput during the failure (Mbit/s).
    pub during: f64,
    /// Mean goodput after repair (Mbit/s).
    pub after: f64,
}

/// Runs both algorithms through a `pre`/`fail`/`post` second scenario.
pub fn run(pre: u64, fail: u64, post: u64, seed: u64) -> Vec<CcRow> {
    let topo = topo15::build();
    let primary = topo15::primary_route(&topo);
    let protection =
        Protection::Segments(topo15::protection_pairs(&topo, &topo15::PARTIAL_PROTECTION));
    let link = topo.expect_link("SW7", "SW13");
    let total = SimTime::from_secs(pre + fail + post);
    [CongestionControl::Reno, CongestionControl::Cubic]
        .into_iter()
        .map(|congestion| {
            let spec = TcpRun {
                technique: DeflectionTechnique::Nip,
                protection: protection.clone(),
                duration: total,
                failure: Some(FailureWindow {
                    link,
                    down: SimTime::from_secs(pre),
                    up: SimTime::from_secs(pre + fail),
                }),
                seed,
                congestion,
                switch_service: Some(SimTime::from_micros(7)),
                ..TcpRun::new(&topo, primary.clone())
            };
            let res = run_tcp(&spec);
            CcRow {
                congestion,
                before: res
                    .meter
                    .mean_mbps(SimTime::from_secs(1.min(pre)), SimTime::from_secs(pre)),
                during: res
                    .meter
                    .mean_mbps(SimTime::from_secs(pre + 1), SimTime::from_secs(pre + fail)),
                after: res
                    .meter
                    .mean_mbps(SimTime::from_secs(pre + fail + 1), total),
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render(rows: &[CcRow]) -> String {
    let mut out = String::from(
        "Congestion-control ablation — Fig. 4 scenario (NIP, partial protection)\n\
         | Algorithm | Before | During failure | After repair |\n|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {:?} | {:.1} | {:.1} | {:.1} |\n",
            r.congestion, r.before, r.during, r.after
        ));
    }
    out.push_str(
        "\nThe failure-reaction story is robust to the congestion-control choice:\n\
         both algorithms saturate before, survive the failure via deflection, and\n\
         recover after repair.\n",
    );
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "cc_ablation",
    "Reno vs CUBIC under the Fig. 4 failure scenario",
    &[
        flag("--pre", "15", "seconds before the failure"),
        flag("--fail", "15", "failure duration in seconds"),
        flag("--post", "15", "seconds after repair"),
    ],
    |args| {
        let phase = |name| args.get(name);
        let rows = run(
            phase("--pre"),
            phase("--fail"),
            phase("--post"),
            args.seed(),
        );
        print(render(&rows))
    },
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_algorithms_survive_the_failure() {
        let rows = run(3, 4, 3, 7);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.before > 120.0, "{r:?}");
            assert!(r.during > 20.0, "deflection keeps TCP alive: {r:?}");
            assert!(r.after > 100.0, "{r:?}");
        }
    }
}
