//! Property-based tests of KAR's liveness and safety claims on random
//! topologies (DESIGN.md invariants 4–6).

use kar::analysis::{driven_walk, DrivenOutcome};
use kar::verify::Outcome;
use kar::{
    verify_route, DeflectionTechnique, EncodeRequest, EncodedRoute, KarNetwork, Protection,
    RouteSpec,
};
use kar_rns::IdStrategy;
use kar_simnet::{FlowId, PacketKind, SimTime};
use kar_topology::{gen, paths, LinkId, LinkParams, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Liveness (invariant 5): on a random connected topology with full
    /// protection and a single primary-link failure, NIP delivers every
    /// probe — the paper's hitless claim. The body is [`hitless_replay`].
    #[test]
    fn nip_full_protection_is_hitless_on_random_graphs(
        n in 6usize..16,
        extra in 3usize..12,
        seed in 0u64..500,
        fail_bits in any::<u64>(),
    ) {
        prop_assume!(hitless_replay(n, extra, seed, fail_bits));
    }

    /// Safety (driven-deflection tree property): AutoFull protection
    /// segments never create a loop — following the encoded residues
    /// from any protected switch terminates at the destination.
    #[test]
    fn auto_full_protection_is_loop_free(
        n in 6usize..16,
        extra in 3usize..12,
        seed in 0u64..500,
    ) {
        let topo = gen::random_connected(
            n, extra, seed, IdStrategy::SmallestPrimes, LinkParams::default(),
        );
        let src = topo.expect("H0");
        let dst = topo.expect("H1");
        let primary = paths::bfs_shortest_path(&topo, src, dst).expect("connected");
        let segments = kar::protection::plan_full(&topo, &primary);
        let route = EncodedRoute::encode(
            &topo,
            &RouteSpec::protected(primary.clone(), segments.clone()),
        )
        .unwrap();
        for (from, _) in &segments {
            let out = driven_walk(&topo, &route, *from, dst, &HashSet::new());
            prop_assert!(
                matches!(out, DrivenOutcome::Reached { .. }),
                "protected switch {from} must drive to {dst}: {out:?}"
            );
        }
    }

    /// Conservation (invariant 6) on random graphs under random batches.
    #[test]
    fn conservation_on_random_graphs(
        n in 4usize..12,
        extra in 0usize..8,
        seed in 0u64..300,
        batch in 1u64..60,
    ) {
        let topo = gen::random_connected(
            n, extra, seed, IdStrategy::SmallestPrimes, LinkParams::default(),
        );
        let src = topo.expect("H0");
        let dst = topo.expect("H1");
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Avp).seed(seed)
        .build();
        net.encode(&EncodeRequest::new(src, dst)).unwrap();
        let mut sim = net.into_sim();
        for i in 0..batch {
            sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 200);
        }
        sim.run_to_quiescence();
        let s = sim.stats();
        prop_assert_eq!(s.injected, s.delivered + s.dropped());
        prop_assert_eq!(sim.in_flight(), 0);
    }

    /// The primary path itself is always loop-free and reaches the
    /// destination (trivial safety of plain modulo forwarding).
    #[test]
    fn primary_route_walks_terminate(
        n in 4usize..14,
        extra in 0usize..10,
        seed in 0u64..300,
    ) {
        let topo = gen::random_connected(
            n, extra, seed, IdStrategy::SmallestPrimes, LinkParams::default(),
        );
        let src = topo.expect("H0");
        let dst = topo.expect("H1");
        let primary = paths::bfs_shortest_path(&topo, src, dst).expect("connected");
        let route = EncodedRoute::encode(&topo, &RouteSpec::unprotected(primary.clone())).unwrap();
        let first_core: Vec<NodeId> = primary
            .iter()
            .copied()
            .filter(|&x| topo.switch_id(x).is_some())
            .take(1)
            .collect();
        for start in first_core {
            let out = driven_walk(&topo, &route, start, dst, &HashSet::new());
            prop_assert!(
                matches!(out, DrivenOutcome::Reached { hops } if hops < n + 2),
                "{out:?}"
            );
        }
    }
}

/// The hitless property for one input. `fail_bits` selects the failed
/// link the way `proptest::sample::Index` does: `⌊bits · len / 2⁶⁴⌋`.
///
/// Returns `false` if the input does not qualify (the property
/// `prop_assume`s it away); panics if a qualifying input loses a probe.
fn hitless_replay(n: usize, extra: usize, seed: u64, fail_bits: u64) -> bool {
    let topo = gen::random_connected(
        n,
        extra,
        seed,
        IdStrategy::SmallestPrimes,
        LinkParams::default(),
    );
    let src = topo.expect("H0");
    let dst = topo.expect("H1");
    let primary = paths::bfs_shortest_path(&topo, src, dst).expect("connected");
    // Fail one core-core link of the primary path (never a host access
    // link — that would disconnect the endpoint).
    let core_links: Vec<_> = paths::links_along(&topo, &primary)
        .unwrap()
        .into_iter()
        .filter(|&l| {
            let link = topo.link(l);
            topo.switch_id(link.a).is_some() && topo.switch_id(link.b).is_some()
        })
        .collect();
    if core_links.is_empty() {
        return false;
    }
    let idx = ((fail_bits as u128 * core_links.len() as u128) >> 64) as usize;
    let failed = core_links[idx];
    // The failure must not disconnect src from dst.
    if paths::bfs_shortest_path_where(&topo, src, dst, |_, l| l != failed).is_none() {
        return false;
    }
    // The paper's hitless claim holds when the protection paths enclose
    // every deflection alternative of the failure. A random graph can
    // contain stub switches that cannot be protected (their only
    // neighbour is the primary path itself — a packet deflected there is
    // stuck, the intrinsic limitation behind Fig. 8), so hitlessness is
    // asserted exactly when static coverage is complete. An *empty*
    // candidate set (`fraction() == 1.0` vacuously) means the deflecting
    // switch is a dead end and packets are necessarily lost there.
    let route =
        kar::protection::encode_with_protection(&topo, primary.clone(), &Protection::AutoFull)
            .unwrap();
    let coverage = kar::analysis::failure_coverage(&topo, &route, &primary, failed, dst);
    if coverage.candidates.is_empty() || (coverage.fraction() - 1.0).abs() >= 1e-9 {
        return false;
    }
    // Full coverage is a claim about every trajectory, so the verifier
    // must agree before the simulator samples some of them.
    let failed_set: HashSet<LinkId> = [failed].into_iter().collect();
    let report = verify_route(
        &topo,
        &route,
        src,
        dst,
        DeflectionTechnique::Nip,
        &failed_set,
    );
    assert_eq!(
        report.outcome,
        Outcome::Delivered,
        "full coverage must verify for n={n} extra={extra} seed={seed}: {report:?}"
    );
    let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
        .seed(seed ^ 0xabcd)
        .ttl(255)
        .build();
    net.install_explicit(primary, &Protection::AutoFull)
        .unwrap();
    let mut sim = net.into_sim();
    sim.schedule_link_down(SimTime::ZERO, failed);
    for i in 0..40 {
        sim.run_until(SimTime(i * 200_000));
        sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 300);
    }
    sim.run_to_quiescence();
    let s = sim.stats();
    assert_eq!(
        s.delivered, 40,
        "full coverage must be hitless for n={n} extra={extra} seed={seed}: {s:?}"
    );
    true
}

/// Pinned regression: the first shrink recorded in
/// `tests/liveness_properties.proptest-regressions` —
/// `n = 8, extra = 3, seed = 324, fail_idx = Index(0)`.
#[test]
fn pinned_regression_n8_seed324_first_link() {
    hitless_replay(8, 3, 324, 0);
}

/// Pinned regression: the second recorded shrink —
/// `n = 12, extra = 3, seed = 11, fail_idx = Index(2⁶³)` (the middle
/// of the qualifying link list).
#[test]
fn pinned_regression_n12_seed11_middle_link() {
    hitless_replay(12, 3, 11, 1 << 63);
}
