//! Dynamic fault processes under the failure-reactive controller — the
//! experiment behind `kar-bench fig_dynamic`.
//!
//! The paper's evaluation fails one link, once, forever. Real outages
//! repair, flap, and take whole SRLGs down together. This experiment
//! drives the paper's topo15 scenario through three declarative
//! [`FaultPlan`]s — a fail-and-repair window, a flap train, and a node
//! crash — with a nonzero detection delay and the recovery loop of
//! [`kar::recovery`] enabled, and reports per technique:
//!
//! * delivery and drops over the whole dynamic episode,
//! * **packets saved by deflection** (delivered packets that deflected
//!   at least once — the packets a drop-on-failure scheme loses),
//! * how many flows the controller re-encoded and the **mean recovery
//!   latency** from failure detection to recovered traffic.
//!
//! The grid is a [`crate::sweep`] (so `--jobs`, `--checkpoint` and
//! `--out` work as on every sweep), and every point is one canonical line so
//! `--jobs N` determinism is testable.

use crate::cli::{flag, Experiment};
use crate::harness::{row, ProbeRun, ProbeScheme};
use crate::record::{record, Record};
use crate::sweep;
use kar::recovery::RecoveryConfig;
use kar::{DeflectionTechnique, Protection};
use kar_simnet::{FaultPlan, SimTime};
use kar_topology::{topo15, Topology};
use std::process::ExitCode;

/// A named dynamic fault process (a plan builder, so it can be compiled
/// against any topology instance).
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// Builds the fault plan for this scenario.
    pub build: fn(&Topology) -> FaultPlan,
}

/// The three dynamic processes on topo15's primary scenario. All faults
/// start at 10 ms and the dynamics are over by 30 ms; traffic runs to
/// 50 ms, so every scenario also measures post-repair behavior.
pub fn scenarios() -> Vec<Scenario> {
    fn repair(topo: &Topology) -> FaultPlan {
        FaultPlan::new(11).fail_for(
            topo.expect_link("SW7", "SW13"),
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        )
    }
    fn flap(topo: &Topology) -> FaultPlan {
        FaultPlan::new(11).flap(
            topo.expect_link("SW7", "SW13"),
            SimTime::from_millis(10),
            SimTime::from_millis(5),
            0.5,
            4,
        )
    }
    fn node_crash(topo: &Topology) -> FaultPlan {
        FaultPlan::new(11).node_crash(
            topo.expect("SW7"),
            SimTime::from_millis(10),
            Some(SimTime::from_millis(20)),
        )
    }
    vec![
        Scenario {
            name: "repair",
            build: repair,
        },
        Scenario {
            name: "flap",
            build: flap,
        },
        Scenario {
            name: "node-crash",
            build: node_crash,
        },
    ]
}

/// Knobs of one dynamic run.
#[derive(Debug, Clone, Copy)]
pub struct DynamicConfig {
    /// Probes injected (one per `gap`).
    pub probes: u64,
    /// Inter-injection gap.
    pub gap: SimTime,
    /// Data-plane failure-detection delay.
    pub detection: SimTime,
    /// Controller notification delay on top of detection.
    pub notification: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            probes: 100,
            gap: SimTime::from_micros(500),
            detection: SimTime::from_micros(200),
            notification: SimTime::from_millis(1),
            seed: 11,
        }
    }
}

record! {
    /// One measured grid point — its document record and, prefixed with
    /// `experiment`, its run summary in the metrics dump. The line
    /// carries every simulated quantity, so two runs of the same grid
    /// point are deterministic exactly when their lines match (the
    /// `--jobs` conformance property).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DynamicPoint {
        /// Scenario name.
        pub scenario: String,
        /// Deflection technique.
        pub technique: DeflectionTechnique,
        /// Probes injected.
        pub injected: u64,
        /// Probes delivered.
        pub delivered: u64,
        /// Probes dropped (all reasons).
        pub dropped: u64,
        /// Delivered probes that were deflected at least once — the
        /// packets saved by deflection.
        pub saved_by_deflection: u64,
        /// Physical link up→down transitions the engine processed.
        pub link_failures: u64,
        /// Physical down→up transitions.
        pub link_repairs: u64,
        /// Flows the controller re-encoded onto a detour.
        pub recovered_flows: usize,
        /// Mean failure-detection → recovered-traffic latency in seconds.
        pub mean_recovery_latency_s: f64,
    }
}

/// Runs one `(scenario, technique)` point on topo15's AS1 → AS3 flow.
pub fn run_point(
    topo: &Topology,
    scenario: Scenario,
    technique: DeflectionTechnique,
    cfg: DynamicConfig,
) -> DynamicPoint {
    let flows = [(topo.expect("AS1"), topo.expect("AS3"))];
    let plan = (scenario.build)(topo);
    let obs = crate::obs::RunObs::begin();
    let outcome = ProbeRun {
        probes: cfg.probes,
        gap: cfg.gap,
        seed: cfg.seed,
        detection: cfg.detection,
        plan: Some(&plan),
        ..ProbeRun::new(
            topo,
            ProbeScheme::Kar {
                technique,
                protection: Protection::AutoFull,
                recovery: Some(RecoveryConfig {
                    notification_delay: cfg.notification,
                    protection: Protection::None,
                }),
            },
            &flows,
        )
    }
    .run(&obs);
    let stats = &outcome.stats;
    let point = DynamicPoint {
        scenario: scenario.name.to_string(),
        technique,
        injected: stats.injected,
        delivered: stats.delivered,
        dropped: stats.dropped(),
        saved_by_deflection: stats.deflected_delivered,
        link_failures: stats.link_failures,
        link_repairs: stats.link_repairs,
        recovered_flows: outcome.recovered_flows(),
        mean_recovery_latency_s: outcome.mean_recovery_latency_s(),
    };
    obs.submit_summary(
        &format!("fig_dynamic/{}/{}", scenario.name, technique.label()),
        topo,
        "fig_dynamic",
        &point.to_json(),
    );
    point
}

/// Runs the full scenario × technique grid on topo15 (byte-identical
/// results at any job count, resumable from `opts.checkpoint`).
pub fn run(cfg: DynamicConfig, opts: &sweep::Opts) -> Vec<DynamicPoint> {
    let topo = topo15::build();
    let grid: Vec<(Scenario, DeflectionTechnique)> = scenarios()
        .into_iter()
        .flat_map(|s| DeflectionTechnique::ALL.into_iter().map(move |t| (s, t)))
        .collect();
    let fingerprint = format!(
        "dynamic-v1 seed={} probes={} gap={} detection={} notification={}",
        cfg.seed, cfg.probes, cfg.gap.0, cfg.detection.0, cfg.notification.0
    );
    sweep::typed(&sweep::run(
        opts,
        &fingerprint,
        &grid,
        |(scenario, technique)| format!("{}/{}", scenario.name, technique.label()),
        |&(scenario, technique)| run_point(&topo, scenario, technique, cfg).to_json(),
    ))
}

/// The sweep's JSON document (`fig_dynamic --out`): no wall-clock
/// fields, a pure function of the configuration.
pub fn to_json(points: &[DynamicPoint]) -> String {
    sweep::document("dynamic", points.iter().map(DynamicPoint::to_json), "")
}

/// Renders the grid as a table.
pub fn render(points: &[DynamicPoint]) -> String {
    let mut out = String::from(
        "Dynamic faults with controller recovery (topo15, AS1 → AS3)\n\
         | scenario | technique | delivered | dropped | saved by deflection | failures/repairs | recovered flows | mean recovery |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for p in points {
        out.push_str(&row(&[
            p.scenario.clone(),
            p.technique.label().to_string(),
            format!("{}/{}", p.delivered, p.injected),
            format!("{}", p.dropped),
            format!("{}", p.saved_by_deflection),
            format!("{}/{}", p.link_failures, p.link_repairs),
            format!("{}", p.recovered_flows),
            if p.recovered_flows == 0 {
                "-".to_string()
            } else {
                format!("{:.2} ms", p.mean_recovery_latency_s * 1e3)
            },
        ]));
        out.push('\n');
    }
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "fig_dynamic",
    "Dynamic faults (repair, flap, node crash) under the failure-reactive controller",
    &[flag("--probes", "100", "probes per grid point")],
    |args| {
        let cfg = DynamicConfig {
            probes: args.get("--probes"),
            seed: args.seed(),
            ..DynamicConfig::default()
        };
        let points = run(cfg, &args.sweep());
        print!("{}", render(&points));
        args.write_document(&to_json(&points));
        ExitCode::SUCCESS
    },
)
.seed(11)
.sweep();

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DynamicConfig {
        DynamicConfig {
            probes: 60,
            ..DynamicConfig::default()
        }
    }

    #[test]
    fn grid_covers_scenarios_and_techniques() {
        let points = run(quick(), &sweep::Opts::jobs(2));
        assert_eq!(points.len(), 3 * 4);
        for p in &points {
            assert_eq!(p.injected, 60);
            assert_eq!(p.injected, p.delivered + p.dropped, "{}", p.to_json());
        }
    }

    #[test]
    fn parallel_grid_is_byte_identical_to_serial() {
        let serial = run(quick(), &sweep::Opts::jobs(1));
        let parallel = run(quick(), &sweep::Opts::jobs(4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nip_saves_packets_and_recovers_flows() {
        let topo = topo15::build();
        let repair = scenarios()[0];
        let nip = run_point(&topo, repair, DeflectionTechnique::Nip, quick());
        assert!(
            nip.saved_by_deflection > 0,
            "deflection carries the detection+notification window: {}",
            nip.to_json()
        );
        assert_eq!(nip.recovered_flows, 1, "{}", nip.to_json());
        assert!(
            nip.mean_recovery_latency_s >= 1e-3,
            "latency includes the 1 ms notification delay: {}",
            nip.to_json()
        );
        assert_eq!(nip.link_failures, 1);
        assert_eq!(nip.link_repairs, 1);
        // Recovery rescues later packets even without deflection, but
        // the detection + notification window still costs deliveries.
        let none = run_point(&topo, repair, DeflectionTechnique::None, quick());
        assert_eq!(none.saved_by_deflection, 0);
        assert!(none.delivered < nip.delivered, "{}", none.to_json());
    }

    #[test]
    fn flap_processes_every_transition() {
        let topo = topo15::build();
        let flap = scenarios()[1];
        let p = run_point(&topo, flap, DeflectionTechnique::Nip, quick());
        assert_eq!(p.link_failures, 4, "{}", p.to_json());
        assert_eq!(p.link_repairs, 4, "{}", p.to_json());
    }
}
