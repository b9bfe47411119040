//! What the control plane's hot operations allocate, as counts that
//! repeat — timings drift, these do not.
//!
//! * The k-failure sweep is fast because its two hot operations own
//!   almost nothing: a case answered from `PairVerifier`'s projection
//!   memo shares the memo's report (an `Arc`) and grows its projection
//!   in the verifier's own buffer, and an exploration on a warmed
//!   [`Explorer`] fills buffers it already has.
//! * Sealing a route (`EncodedRoute::from_pairs`, one CRT kernel pass)
//!   owns its basis and its route ID and borrows two limb buffers, and
//!   `RouteHeader::for_route` reads the width the basis already holds:
//!   the same handful of allocations at any route length.
//! * A path search borrows its thread's marks and queues and owns only
//!   the path it returns, and a planner read of an installed pair is one
//!   record: a cold install owns its route and entry, not a search's
//!   arrays, and a stale read after a notice owns nothing.
//! * A deflection writes its candidate set into the forwarder's one
//!   buffer and draws from it, so once that buffer has grown, a
//!   `KarForwarder::forward` that deflects owns nothing.
//!
//! The counting `#[global_allocator]` sees every allocation of the
//! process, and the bytes asked for; these tests read its per-thread
//! counters, so the tests of this file (each on its own test thread) do
//! not see each other's.

use kar::verify::Explorer;
use kar::{
    DeflectionTechnique, EncodeRequest, EncodedRoute, EncodingCache, LinkView, PairVerifier,
    Planner, Protection, RecoveryConfig, RouteHeader, RouteSpec,
};
use kar_rns::IdStrategy;
use kar_simnet::{EdgeLogic, SimTime};
use kar_topology::{gen, paths, rnp28, LinkId, LinkParams, NodeId, Topology};
use std::sync::Arc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, footprint};

/// rand1024, the `svc-*` benchmark topology (1024 switches, one host
/// each, 512 extra links, generator seed 1024), and 64 of its host
/// pairs.
fn rand1024() -> (Topology, Vec<(NodeId, NodeId)>) {
    let (ids, params) = (IdStrategy::SmallestPrimes, LinkParams::default());
    let topo = gen::try_random_connected_hosts(1024, 512, 1024, ids, params).unwrap();
    let hosts = topo.edge_nodes();
    let pairs = (0..64)
        .map(|i| (hosts[i * 13 % 1024], hosts[(i * 389 + 500) % 1024]))
        .collect();
    (topo, pairs)
}

#[test]
fn sealing_a_route_and_sizing_its_header_allocate_the_same_at_any_length() {
    let topo = gen::try_ring(256, IdStrategy::SmallestPrimes, LinkParams::default())
        .expect("smallest primes never run out");
    let hosts = topo.edge_nodes();
    for (hops, want_switches) in [(7, 8), (127, 128)] {
        let path = paths::bfs_shortest_path(&topo, hosts[0], hosts[hops]).expect("connected");
        let (pairs, uplink) =
            EncodedRoute::collect_pairs(&topo, &RouteSpec::unprotected(path)).expect("a path");
        assert_eq!(pairs.len(), want_switches);
        // The basis's moduli, the route ID, and the kernel's running
        // product `M`.
        let (sealing, route) = allocations(|| EncodedRoute::from_pairs(pairs, uplink));
        let route = route.expect("ring IDs are coprime");
        // The big-endian ID and the field it is padded into.
        let (sizing, header) = allocations(|| RouteHeader::for_route(&route));
        assert_eq!(header.expect("fits").bits(), route.bit_length());
        // The Eq. 4 encoder made 42 + 21 here at 8 switches and 653 + 261
        // at 128.
        assert_eq!(
            (sealing, sizing),
            (3, 2),
            "{want_switches} switches: from_pairs + for_route allocations"
        );
    }
}

#[test]
fn memo_hits_and_warm_explorations_allocate_only_what_they_return() {
    let topo = rnp28::build();
    let edges = topo.edge_nodes();
    let (src, dst) = (edges[0], edges[edges.len() / 2]);
    let primary = paths::bfs_shortest_path(&topo, src, dst).expect("rnp28 is connected");
    let route = EncodingCache::new()
        .encode_with_protection(&topo, primary, &Protection::AutoFull)
        .expect("rnp28 routes encode");
    let links = topo.link_count();
    let sets: Vec<[LinkId; 2]> = (0..links)
        .flat_map(|a| (a + 1..links).map(move |b| [LinkId(a), LinkId(b)]))
        .collect();
    for technique in DeflectionTechnique::ALL {
        // One warm-up sweep fills the memo and sizes the projection
        // buffer; after it every case is a hit and allocates nothing.
        let mut verifier = PairVerifier::new(&topo, route.clone(), src, dst, technique);
        for failed in &sets {
            verifier.classify(failed);
        }
        let explored = verifier.explored;
        for failed in &sets {
            let (count, _) = allocations(|| verifier.classify(failed));
            assert_eq!(count, 0, "{technique} {failed:?}: {count} allocations");
        }
        assert_eq!(verifier.explored, explored, "{technique}: all memo hits");

        // One warm-up pass sizes the explorer's buffers and residues;
        // after it an exploration allocates `relevant_links` and one
        // vector per witness it reports — nothing it keeps.
        let mut explorer = Explorer::new();
        let mut witnesses = 0;
        for counted in [false, true] {
            for failed in &sets {
                let (count, report) = allocations(|| {
                    explorer.explore(&topo, &mut &route, src, dst, technique, *failed)
                });
                let owned = 1
                    + u64::from(report.blackhole_witness.is_some())
                    + u64::from(report.loop_witness.is_some());
                witnesses += owned - 1;
                assert!(
                    !counted || count == owned,
                    "{technique} {failed:?}: {count} allocations, report owns {owned}"
                );
            }
        }
        assert!(witnesses > 0, "{technique}: the sample reports witnesses");
    }
}

/// An exploration whose answer the verifier already holds shares the
/// held report: it builds no report, no relevant-link list and no
/// witness, and its memo key is held inline. A single-link set explores
/// only its final projection, so the report `classify` returns is that
/// exploration's, and a report `classify` returned before is one the
/// verifier held when it explored. On two rnp28 pairs, all four
/// techniques, 52 window explorations find a held answer, and each
/// allocates nothing; a verifier that builds every exploration's report
/// and heap memo key before looking for a held one allocates two or more
/// for each. The window is too short to grow the memo's table, which
/// would be one allocation of the whole table.
#[test]
fn an_exploration_whose_answer_is_held_allocates_nothing() {
    let topo = rnp28::build();
    let edges = topo.edge_nodes();
    let mut held = 0;
    for dst in [edges[edges.len() / 2], edges[edges.len() - 1]] {
        let src = edges[0];
        let primary = paths::bfs_shortest_path(&topo, src, dst).expect("rnp28 is connected");
        let route = EncodingCache::new()
            .encode_with_protection(&topo, primary, &Protection::AutoFull)
            .expect("rnp28 routes encode");
        for technique in DeflectionTechnique::ALL {
            // The window: every other link the intact exploration reads.
            // The warm-up classifies every pair of the other links, so
            // that the explorer's buffers are sized and the verifier
            // holds reports, and explores no projection of the window.
            let intact = kar::verify_route(&topo, &route, src, dst, technique, &Default::default());
            let window: Vec<LinkId> = intact
                .relevant_links
                .iter()
                .copied()
                .skip(1)
                .step_by(2)
                .collect();
            let rest: Vec<LinkId> = (0..topo.link_count())
                .map(LinkId)
                .filter(|l| !window.contains(l))
                .collect();
            let mut verifier = PairVerifier::new(&topo, route.clone(), src, dst, technique);
            let mut returned = std::collections::HashSet::new();
            for (i, &a) in rest.iter().enumerate() {
                for &b in &rest[i + 1..] {
                    returned.insert(Arc::as_ptr(&verifier.classify(&[a, b])));
                }
            }
            for &l in &window {
                let explored = verifier.explored;
                let (count, bytes, report) = footprint(|| verifier.classify(&[l]));
                let fresh = returned.insert(Arc::as_ptr(&report));
                if verifier.explored == explored + 1 && !fresh {
                    held += 1;
                    assert_eq!(
                        (count, bytes),
                        (0, 0),
                        "{technique} {dst:?} {l:?}: a held answer allocated"
                    );
                }
            }
        }
    }
    assert_eq!(held, 52, "explorations that found a held answer");
}

#[test]
fn a_warm_deflecting_forward_allocates_nothing() {
    use kar::KarForwarder;
    use kar_simnet::{
        Behavior, FlowId, ForwardDecision, Forwarder, Packet, PacketKind, RouteTag, SwitchCtx,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let topo = rnp28::build();
    let edges = topo.edge_nodes();
    let (src, dst) = (edges[0], edges[edges.len() / 2]);
    let primary = paths::bfs_shortest_path(&topo, src, dst).expect("rnp28 is connected");
    let route = EncodingCache::new()
        .encode_with_protection(&topo, primary, &Protection::AutoFull)
        .expect("rnp28 routes encode");
    let mut rng = StdRng::seed_from_u64(35);
    let mut deflections = 0;
    for node in topo.core_nodes() {
        let degree = topo.node(node).ports.len();
        let switch_id = topo.switch_id(node).expect("a core node");
        let residue = route.port_at(switch_id) as usize;
        // The residue's port is down, so every technique deflects.
        let ports: Vec<bool> = (0..degree).map(|p| p != residue).collect();
        let ctx = SwitchCtx {
            topo: &topo,
            node,
            switch_id,
            in_port: Some(u64::from(residue == 0)),
            ports: &ports,
            now: SimTime::ZERO,
            reducer: None,
            behavior: Behavior::Honest,
        };
        for technique in [
            DeflectionTechnique::HotPotato,
            DeflectionTechnique::Avp,
            DeflectionTechnique::Nip,
        ] {
            let mut fwd = KarForwarder::new(technique);
            let mut pkt = Packet {
                id: 0,
                flow: FlowId(0),
                seq: 0,
                kind: PacketKind::Probe,
                size_bytes: 64,
                src,
                dst,
                route: Some(RouteTag::new(route.route_id.clone())),
                ttl: 64,
                hops: 0,
                deflections: 0,
                created: SimTime::ZERO,
            };
            // The first visit memoizes the residue in the tag and grows
            // the forwarder's deflection buffer.
            fwd.forward(&ctx, &mut pkt, &mut rng);
            for _ in 0..8 {
                let before = pkt.deflections;
                let (count, decision) = allocations(|| fwd.forward(&ctx, &mut pkt, &mut rng));
                assert_eq!(count, 0, "{technique} at {node:?}: {decision:?}");
                if let ForwardDecision::Output(_) = decision {
                    deflections += usize::from(pkt.deflections > before);
                }
            }
        }
    }
    assert!(deflections > 500, "only {deflections} deflections counted");
}

/// One path search, named for a failure message.
type Search<'a> = (&'a str, &'a dyn Fn() -> Option<Vec<NodeId>>);

#[test]
fn a_warm_search_allocates_only_the_path_it_returns() {
    let (topo, pairs) = rand1024();
    let avoid = [LinkId(7), LinkId(700), LinkId(1400)];
    // The first search sizes this thread's scratch.
    paths::bfs_shortest_path(&topo, pairs[0].0, pairs[0].1).expect("connected");
    let mut found = 0;
    for &(src, dst) in &pairs {
        let searches: [Search; 3] = [
            ("by id", &|| paths::bfs_shortest_path(&topo, src, dst)),
            ("filtered", &|| {
                paths::bfs_shortest_path_where(&topo, src, dst, |_, l| l.0 % 5 != 0)
            }),
            ("avoiding", &|| paths::bfs_avoiding(&topo, src, dst, &avoid)),
        ];
        for (what, search) in searches {
            let (count, bytes, path) = footprint(search);
            // A filter may cut a host off; then nothing is returned and
            // nothing allocated.
            let owned = path.as_deref().map(std::mem::size_of_val);
            let want = owned.map_or((0, 0), |b| (1, b as u64));
            assert_eq!((count, bytes), want, "{what} {src}->{dst}");
            found += usize::from(path.is_some());
        }
    }
    assert!(found >= 150, "{found} of 192 searches found a path");
}

/// The `kar-service` daemon's planner: notices land at once, every
/// route is sealed through a shared cache.
fn daemon_planner() -> Planner {
    let view = LinkView::Notices(RecoveryConfig {
        notification_delay: SimTime::ZERO,
        protection: Protection::None,
    });
    let cache = Arc::new(EncodingCache::new());
    Planner::new().with_view(view).with_encoding_cache(cache)
}

#[test]
fn a_cold_install_owns_its_entry_and_a_stale_read_owns_nothing() {
    let (topo, pairs) = rand1024();
    let mut planner = daemon_planner();
    let read = |planner: &mut Planner, (src, dst), at| {
        let req = EncodeRequest::new(src, dst);
        footprint(|| planner.encode_with(&topo, &req, SimTime(at), |h| h.bits()))
    };
    // The first install sizes this thread's search scratch.
    read(&mut planner, (pairs[0].1, pairs[0].0), 0)
        .2
        .expect("installs");
    let mut total = 0;
    for &pair in &pairs {
        let (_, bytes, got) = read(&mut planner, pair, 0);
        got.expect("installs");
        total += bytes;
    }
    let per_install = total / pairs.len() as u64;
    // A search's marks and queues alone are 32 KiB on this topology, so
    // the bound fails if an install pays for them.
    assert!(per_install <= 4096, "{per_install} B per cold install");

    // One link of the first pair's path goes down and comes back. The
    // first read of each epoch applies the notice; every other pair's
    // next read is stale, and one that the link does not break only
    // re-checks its path.
    let primary = |(src, dst)| paths::bfs_shortest_path(&topo, src, dst).expect("connected");
    let on_first = paths::links_along(&topo, &primary(pairs[0])).unwrap();
    let link = on_first[on_first.len() / 2];
    let mut stale = 0;
    for (at, up) in [(1, false), (2, true)] {
        planner.on_link_event(&topo, link, up, SimTime(at));
        read(&mut planner, pairs[0], at).2.expect("served");
        for &pair in &pairs[1..] {
            if paths::links_along(&topo, &primary(pair))
                .unwrap()
                .contains(&link)
            {
                continue;
            }
            let (count, _, got) = read(&mut planner, pair, at);
            got.expect("served");
            assert_eq!(count, 0, "stale read of {pair:?}");
            stale += 1;
        }
    }
    assert!(stale > 100, "{stale} stale reads");
}
