//! The adversary-model gate: introducing Byzantine behaviors must not
//! perturb honest runs.
//!
//! Invariant 11 (DESIGN.md): honest-only configurations are
//! byte-identical to the pre-adversary engine — the interposition in
//! `kar_simnet::Sim` takes the exact pre-adversary code path (same
//! branches, zero extra RNG draws) unless a switch was explicitly
//! declared Byzantine. These tests enforce the mechanism from the
//! public API: explicitly marking every switch [`Behavior::Honest`] is
//! byte-identical to saying nothing, Byzantine counters stay zero on
//! honest runs, and flipping a single switch actually changes the
//! outcome (so the gate cannot pass vacuously).

use kar::{DeflectionTechnique, Protection};
use kar_baselines::TableScheme;
use kar_bench::experiments::adversary::{self, AdversaryConfig};
use kar_bench::harness::{ProbeRun, ProbeScheme};
use kar_bench::obs::RunObs;
use kar_simnet::{Behavior, DropReason, FaultPlan, SimTime, Stats};
use kar_topology::{topo15, NodeId, Topology};

/// A dynamic scenario with enough going on to expose any RNG or event
/// drift: a flap train on the primary path, deflections, recovery off.
fn plan(topo: &Topology) -> FaultPlan {
    FaultPlan::new(7)
        .with_detection(SimTime::from_micros(80))
        .with_detection_jitter(SimTime::from_micros(40))
        .flap(
            topo.expect_link("SW7", "SW13"),
            SimTime::from_millis(5),
            SimTime::from_millis(4),
            0.5,
            3,
        )
}

/// Runs topo15's AS1 → AS3 flow under the flap plan on `scheme`,
/// optionally declaring a behavior for every core switch.
fn run(topo: &Topology, scheme: ProbeScheme, behaviors: Option<Behavior>) -> Stats {
    let flows = [(topo.expect("AS1"), topo.expect("AS3"))];
    let byzantine: Vec<(NodeId, Behavior)> = behaviors
        .map(|b| topo.core_nodes().into_iter().map(|n| (n, b)).collect())
        .unwrap_or_default();
    let plan = plan(topo);
    let run = ProbeRun {
        probes: 60,
        gap: SimTime::from_micros(300),
        seed: 99,
        detection: SimTime::from_micros(100),
        plan: Some(&plan),
        byzantine: &byzantine,
        ..ProbeRun::new(topo, scheme, &flows)
    };
    run.run(&RunObs::default()).stats
}

fn run_kar(topo: &Topology, behaviors: Option<Behavior>) -> Stats {
    let scheme = ProbeScheme::Kar {
        technique: DeflectionTechnique::Nip,
        protection: Protection::AutoFull,
        recovery: None,
    };
    run(topo, scheme, behaviors)
}

/// Same shape for a table-based baseline.
fn run_table(topo: &Topology, behaviors: Option<Behavior>) -> Stats {
    run(
        topo,
        ProbeScheme::Table(TableScheme::FastFailover),
        behaviors,
    )
}

/// The invariant itself, for both the KAR dataplane and the table
/// baselines: declaring every switch honest is indistinguishable —
/// field for field, including per-link byte counts and the full drop
/// map — from never mentioning behaviors at all.
#[test]
fn explicit_honest_is_byte_identical_to_default() {
    let topo = topo15::build();
    assert_eq!(run_kar(&topo, None), run_kar(&topo, Some(Behavior::Honest)));
    assert_eq!(
        run_table(&topo, None),
        run_table(&topo, Some(Behavior::Honest))
    );
}

/// Honest runs never touch an adversary counter or drop bucket.
#[test]
fn honest_runs_keep_byzantine_counters_zero() {
    let topo = topo15::build();
    for stats in [run_kar(&topo, None), run_table(&topo, None)] {
        assert_eq!(stats.byzantine_misforwards, 0);
        assert_eq!(stats.byzantine_corruptions, 0);
        assert_eq!(stats.byzantine_drops, 0);
        assert_eq!(stats.dropped_for(DropReason::AdversaryDrop), 0);
        assert_eq!(stats.dropped_for(DropReason::CorruptedResidue), 0);
        assert!(stats.delivered > 0, "scenario carries traffic");
    }
}

/// The gate must not pass vacuously: flipping one switch to a Byzantine
/// behavior changes the run (and registers on the counters).
#[test]
fn a_single_byzantine_switch_changes_the_outcome() {
    let topo = topo15::build();
    let honest = run_kar(&topo, None);
    let byzantine = run_kar(&topo, Some(Behavior::Misforward));
    assert_ne!(honest, byzantine);
    assert!(byzantine.byzantine_misforwards > 0);
}

/// The adversary grid replays byte-identically run-to-run (the
/// committed `BENCH_adversary.json` depends on it).
#[test]
fn adversary_grid_replays_identically() {
    let topo = topo15::build();
    let cfg = AdversaryConfig {
        probes: 30,
        intensities: vec![2],
        ..AdversaryConfig::default()
    };
    let opts = kar_bench::sweep::Opts::jobs(2);
    let first = adversary::run(&cfg, &[("topo15", &topo)], &opts);
    let second = adversary::run(&cfg, &[("topo15", &topo)], &opts);
    let gaps = adversary::targeted_vs_random(&first);
    assert_eq!(
        adversary::to_json(&first, &gaps),
        adversary::to_json(&second, &gaps)
    );
}
