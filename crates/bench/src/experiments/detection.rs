//! Ablation: how fast must local failure detection be for KAR's hitless
//! property to hold?
//!
//! The paper assumes a switch notices a dead port instantly. Real
//! detection (loss-of-light, BFD) takes microseconds to tens of
//! milliseconds, and every packet forwarded into the dead port during
//! that window is lost. This sweep measures delivered probes vs
//! detection delay — quantifying an assumption the paper leaves
//! implicit.

use crate::cli::{flag, print, Experiment};
use crate::harness::{ProbeRun, ProbeScheme};
use crate::obs::RunObs;
use kar::{DeflectionTechnique, Protection};
use kar_simnet::{FaultPlan, SimTime};
use kar_topology::topo15;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct DetectionPoint {
    /// Detection delay in microseconds.
    pub delay_us: u64,
    /// Delivered probes out of [`run`]'s `probes`.
    pub delivered: u64,
    /// Probes lost into the undetected dead port.
    pub lost: u64,
}

/// Sweeps detection delays on topo15 with NIP + full protection; the
/// failure strikes mid-stream while `probes` paced probes cross.
pub fn run(delays_us: &[u64], probes: u64, seed: u64) -> Vec<DetectionPoint> {
    let topo = topo15::build();
    let flows = [(topo.expect("AS1"), topo.expect("AS3"))];
    // Fail mid-stream: probes are paced at one per 100 µs.
    let plan = FaultPlan::new(seed).fail(
        topo.expect_link("SW7", "SW13"),
        SimTime::from_micros(probes * 50),
    );
    let scheme = ProbeScheme::Kar {
        technique: DeflectionTechnique::Nip,
        protection: Protection::AutoFull,
        recovery: None,
    };
    delays_us
        .iter()
        .map(|&delay_us| {
            let stats = ProbeRun {
                probes,
                gap: SimTime::from_micros(100),
                seed,
                detection: SimTime::from_micros(delay_us),
                plan: Some(&plan),
                ..ProbeRun::new(&topo, scheme.clone(), &flows)
            }
            .run(&RunObs::default())
            .stats;
            DetectionPoint {
                delay_us,
                delivered: stats.delivered,
                lost: stats.dropped(),
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(probes: u64, points: &[DetectionPoint]) -> String {
    let mut out = format!(
        "Detection-delay ablation — {probes} probes, failure mid-stream, NIP + full protection\n\
         | Detection delay (µs) | Delivered | Lost |\n|---|---|---|\n"
    );
    for p in points {
        out.push_str(&format!(
            "| {} | {}/{} | {} |\n",
            p.delay_us, p.delivered, probes, p.lost
        ));
    }
    out.push_str("\nInstant detection (0 µs) is hitless; every extra window loses the packets in flight toward the dead port.\n");
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "detection_delay",
    "Ablation: hitless-ness vs failure-detection latency",
    &[flag("--probes", "500", "probes per delay")],
    |args| {
        let probes = args.get("--probes");
        let delays = [0u64, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000];
        print(render(probes, &run(&delays, probes, args.seed())))
    },
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delay_is_hitless_and_losses_grow() {
        let points = run(&[0, 500, 5_000], 100, 3);
        assert_eq!(points[0].delivered, 100, "instant detection is hitless");
        assert!(points[1].lost >= points[0].lost);
        assert!(
            points[2].lost > points[0].lost,
            "a 5 ms blind window must lose packets: {points:?}"
        );
        for p in &points {
            assert_eq!(p.delivered + p.lost, 100, "conservation");
        }
    }

    #[test]
    fn render_lists_points() {
        let text = render(10, &run(&[0, 1000], 10, 1));
        assert!(text.contains("| 0 |"));
        assert!(text.contains("| 1000 |"));
    }
}
