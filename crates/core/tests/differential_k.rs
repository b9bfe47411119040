//! Differential testing of the verifier against the real forwarder
//! (DESIGN.md invariant 10): on random connected topologies under
//! random two-link failure sets, every packet journey the simulator
//! records must be a trajectory of `verify_route`'s move relation,
//! packet for packet — and the run's aggregate fates must stay inside
//! what the symbolic report says is possible. The relation is one,
//! parameterised by which route is active after each hop, so the same
//! check covers partitioned routes (ring/16 in 4 domains, below).
//!
//! The edge reroute policy is `Drop`, so a misdelivered packet's trace
//! ends at the wrong edge exactly like the verifier's `WrongEdge`
//! terminal (the default `Recompute` policy would re-encode it there
//! and keep going on a *different* route, which the single-route move
//! relation deliberately does not model).

use kar::verify::{check_trajectory, TrajectoryEnd};
use kar::{
    verify_hier_route, verify_route, DeflectionTechnique, EncodeRequest, KarNetwork, Planner,
    Protection, ReroutePolicy, Segmented,
};
use kar_rns::IdStrategy;
use kar_simnet::{DropReason, FlowId, PacketFate, PacketKind, SimTime};
use kar_topology::gen::{ring, try_random_connected_hosts};
use kar_topology::{LinkId, LinkParams, Partition, Topology};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;
use std::sync::Arc;

const PROBES: u64 = 6;

fn fate_to_end(fate: &PacketFate) -> TrajectoryEnd {
    match fate {
        PacketFate::Delivered => TrajectoryEnd::Delivered,
        PacketFate::Dropped(DropReason::Misdelivery) => TrajectoryEnd::WrongEdge,
        PacketFate::Dropped(
            DropReason::PortDown | DropReason::NoRoute | DropReason::ResidueOutOfRange,
        ) => TrajectoryEnd::ForcedDrop,
        PacketFate::Dropped(DropReason::TtlExpired) => TrajectoryEnd::TtlExpired,
        // Queue overflows and in-flight link losses are engine effects
        // outside the move relation; the prefix walked so far must
        // still be explicable, which `Truncated` checks.
        PacketFate::Dropped(_) | PacketFate::InFlight | PacketFate::TruncatedAtSimEnd => {
            TrajectoryEnd::Truncated
        }
    }
}

fn check_one_technique(
    topo: &Topology,
    n: usize,
    technique: DeflectionTechnique,
    failed: &[LinkId],
    sim_seed: u64,
) -> Result<(), TestCaseError> {
    // `try_random_connected_hosts(n, ..)` attaches hosts H0..H{n-1},
    // one per core; route between the first and last.
    let src = topo.expect("H0");
    let dst = topo.expect(&format!("H{}", n - 1));
    let mut net = KarNetwork::builder(topo, technique)
        .seed(sim_seed)
        .ttl(255)
        .tracing()
        .reroute(ReroutePolicy::Drop)
        .build();
    let route =
        match net.encode(&EncodeRequest::new(src, dst).with_protection(Protection::AutoFull)) {
            Ok(outcome) => outcome.route,
            // Tiny random graphs can exhaust the ID headroom the protection
            // plan needs; that is an encoding limit, not a forwarding case.
            Err(_) => return Ok(()),
        };
    let mut sim = net.into_sim();
    for &l in failed {
        sim.schedule_link_down(SimTime::ZERO, l);
    }
    for i in 0..PROBES {
        sim.run_until(SimTime(i * 500_000));
        sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 500);
    }
    sim.run_to_quiescence();

    let failed_set: HashSet<LinkId> = failed.iter().copied().collect();
    let report = verify_route(topo, &route, src, dst, technique, &failed_set);
    let stats = sim.stats();
    prop_assert_eq!(stats.injected, PROBES, "every probe enters the network");
    prop_assert_eq!(
        sim.trace().len() as u64,
        stats.injected,
        "every injected packet is traced"
    );
    // Aggregate fates must stay inside the symbolic possibilities.
    let drop = |r: DropReason| stats.drops.get(&r).copied().unwrap_or(0);
    if !report.can_deliver {
        prop_assert_eq!(
            stats.delivered,
            0,
            "{} delivered though the verifier says it cannot",
            technique.label()
        );
    }
    if !report.can_blackhole {
        let core_drops = drop(DropReason::PortDown)
            + drop(DropReason::NoRoute)
            + drop(DropReason::ResidueOutOfRange);
        prop_assert_eq!(
            core_drops,
            0,
            "{} core-dropped though the verifier says it cannot",
            technique.label()
        );
    }
    if !report.has_cycle {
        prop_assert_eq!(
            drop(DropReason::TtlExpired),
            0,
            "{} expired TTL though the state graph is acyclic",
            technique.label()
        );
    }
    // Packet for packet: every recorded journey is a trajectory of the
    // move relation, ending the way the verifier allows.
    for (id, trace) in sim.trace().iter() {
        let end = fate_to_end(&trace.fate);
        if let Err(e) = check_trajectory(
            topo,
            &route,
            src,
            dst,
            technique,
            &failed_set,
            &trace.path,
            end,
        ) {
            return Err(TestCaseError::fail(format!(
                "{} pkt {}: {} (path {}, fate {:?}, failed {:?})",
                technique.label(),
                id,
                e,
                trace.pretty(topo),
                trace.fate,
                failed
            )));
        }
    }
    Ok(())
}

/// Deterministic anchor for the property: one known-good random graph
/// where routes install, packets flow, and every fate class the mapping
/// handles actually appears across the techniques — proof the property
/// above is exercising real trajectories, not vacuously skipping.
#[test]
fn differential_check_exercises_real_trajectories() {
    let topo =
        try_random_connected_hosts(6, 3, 42, IdStrategy::SmallestPrimes, LinkParams::default())
            .expect("generation succeeds");
    let n_links = topo.link_count();
    let mut checked = 0u64;
    for fail_seed in 0..8u64 {
        let a = LinkId((fail_seed % n_links as u64) as usize);
        let b = LinkId(((fail_seed * 7 + 3) % n_links as u64) as usize);
        if a == b {
            continue;
        }
        for technique in DeflectionTechnique::ALL {
            check_one_technique(&topo, 6, technique, &[a, b], 17)
                .unwrap_or_else(|e| panic!("{e:?}"));
            checked += 1;
        }
    }
    assert!(checked >= 24, "expected to check many cases, got {checked}");
}

/// Invariant 10 for partitioned routes: ring/16 in 4 domains with the
/// static (failure-unaware) view, pseudo-random failure sets of one or
/// two links. Every traced journey must be a trajectory of the shared
/// relation over [`Segmented`] — boundary re-stamps included — and end
/// in a class the report allows.
#[test]
fn partitioned_paths_are_move_relation_trajectories() {
    let topo = ring(16, IdStrategy::SmallestPrimes, LinkParams::default());
    let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
    let (src, dst) = (topo.expect("H1"), topo.expect("H9"));
    let links = topo.link_count() as u64;
    let mut fates = HashSet::new();
    for case in 0..48u64 {
        // splitmix-style scramble; every third case fails a single link.
        let x = (case + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let a = LinkId(((x >> 8) % links) as usize);
        let b = LinkId(((x >> 40) % links) as usize);
        let failed: HashSet<LinkId> = if case % 3 == 0 {
            [a].into()
        } else {
            [a, b].into()
        };
        for technique in DeflectionTechnique::ALL {
            let mut net = KarNetwork::builder(&topo, technique)
                .seed(case)
                .ttl(255)
                .tracing()
                .reroute(ReroutePolicy::Drop)
                .hierarchy(Arc::clone(&partition))
                .build();
            net.encode(&EncodeRequest::new(src, dst)).unwrap();
            let mut sim = net.into_sim();
            for &l in &failed {
                sim.schedule_link_down(SimTime::ZERO, l);
            }
            for i in 0..PROBES {
                sim.run_until(SimTime(i * 500_000));
                sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 500);
            }
            sim.run_to_quiescence();
            // The verifier plans with its own planner: segments are a
            // pure function of (entry, dst), so it sees the same ones.
            let mut planner = Planner::new().with_partition(Arc::clone(&partition));
            let report =
                verify_hier_route(&topo, &mut planner, src, dst, technique, &failed).unwrap();
            let stats = sim.stats();
            let drop = |r: DropReason| stats.drops.get(&r).copied().unwrap_or(0);
            let label = technique.label();
            assert!(
                report.can_deliver || stats.delivered == 0,
                "{label} {failed:?}"
            );
            let core_drops = drop(DropReason::PortDown) + drop(DropReason::NoRoute);
            assert!(
                report.can_blackhole || core_drops == 0,
                "{label} {failed:?}"
            );
            assert!(
                report.has_cycle || drop(DropReason::TtlExpired) == 0,
                "{label} {failed:?}"
            );
            assert!(
                report.can_wrong_edge || drop(DropReason::Misdelivery) == 0,
                "{label} {failed:?}"
            );
            for (id, trace) in sim.trace().iter() {
                let end = fate_to_end(&trace.fate);
                fates.insert(end as u8);
                let route = Segmented::of(&topo, &mut planner, src, dst).unwrap();
                check_trajectory(&topo, route, src, dst, technique, &failed, &trace.path, end)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{label} pkt {id}: {e} ({}, {failed:?})",
                            trace.pretty(&topo)
                        )
                    });
            }
        }
    }
    assert!(fates.len() >= 3, "several fate classes occur: {fates:?}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn forwarder_paths_are_move_relation_trajectories(
        n in 4usize..9,
        extra in 0usize..5,
        topo_seed in any::<u64>(),
        fail_seed in any::<u64>(),
        sim_seed in any::<u64>(),
    ) {
        let topo = match try_random_connected_hosts(
            n,
            extra,
            topo_seed,
            IdStrategy::SmallestPrimes,
            LinkParams::default(),
        ) {
            Ok(t) => t,
            Err(_) => return Ok(()), // allocator exhausted: not a forwarding case
        };
        let links = topo.link_count();
        prop_assume!(links >= 2);
        let a = LinkId((fail_seed % links as u64) as usize);
        let b = LinkId(((fail_seed >> 16) % links as u64) as usize);
        prop_assume!(a != b);
        for technique in DeflectionTechnique::ALL {
            check_one_technique(&topo, n, technique, &[a, b], sim_seed)?;
        }
    }
}
