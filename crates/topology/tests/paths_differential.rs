//! The indexed graph walks against their pre-index bodies.
//!
//! `kar_topology::paths` runs one BFS kernel over the flat adjacency
//! index. The functions in [`reference`] are the searches as they were
//! before the index existed — per-node `Vec` + sort, peers reached
//! through `ports[p] → links[l] → peer_of(n)` — kept verbatim as the
//! oracle: same path, not merely same length, on every input. The pinned
//! paths at the bottom make a tie-break slip fail here rather than three
//! crates later in a `BENCH_*.json` diff.

use kar_rns::IdStrategy;
use kar_topology::paths::{bfs_avoiding, bfs_shortest_path, bfs_shortest_path_where};
use kar_topology::{
    gen, rnp28, topo15, LinkId, LinkParams, NodeId, PortIx, Topology, TopologyBuilder,
};
use proptest::prelude::*;
use std::collections::HashSet;

mod reference {
    use super::*;
    use std::collections::VecDeque;

    /// `Topology::neighbors` as it was: derived from `ports` and `links`.
    pub fn neighbors(topo: &Topology, n: NodeId) -> Vec<(PortIx, LinkId, NodeId)> {
        let ports = &topo.node(n).ports;
        ports
            .iter()
            .enumerate()
            .map(|(p, &l)| (p as PortIx, l, topo.link(l).peer_of(n)))
            .collect()
    }

    fn reconstruct(prev: &[Option<NodeId>], src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[cur.0].expect("predecessor chain intact");
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Pre-index `paths::bfs_shortest_path`; `admit` is the filter its two
    /// private copies in `kar` (`multipath`, `chain`) applied at the same
    /// point of the same loop.
    pub fn bfs_by_id(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        admit: impl Fn(NodeId, LinkId) -> bool,
    ) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev: Vec<Option<NodeId>> = vec![None; topo.node_count()];
        let mut seen = vec![false; topo.node_count()];
        seen[src.0] = true;
        let mut q = VecDeque::new();
        q.push_back(src);
        while let Some(n) = q.pop_front() {
            let mut adj: Vec<(LinkId, NodeId)> = neighbors(topo, n)
                .into_iter()
                .map(|(_, l, p)| (l, p))
                .collect();
            adj.sort_by_key(|&(_, p)| p);
            for (l, peer) in adj {
                if !seen[peer.0] && admit(peer, l) {
                    seen[peer.0] = true;
                    prev[peer.0] = Some(n);
                    if peer == dst {
                        return Some(reconstruct(&prev, src, dst));
                    }
                    q.push_back(peer);
                }
            }
        }
        None
    }

    /// Pre-index `kar::controller::bfs_avoiding`.
    pub fn bfs_avoiding(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        avoid: &HashSet<LinkId>,
    ) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev: Vec<Option<NodeId>> = vec![None; topo.node_count()];
        let mut seen = vec![false; topo.node_count()];
        seen[src.0] = true;
        let mut q = VecDeque::from([src]);
        while let Some(n) = q.pop_front() {
            for (_, l, peer) in neighbors(topo, n) {
                if avoid.contains(&l) || seen[peer.0] {
                    continue;
                }
                seen[peer.0] = true;
                prev[peer.0] = Some(n);
                if peer == dst {
                    return Some(reconstruct(&prev, src, dst));
                }
                q.push_back(peer);
            }
        }
        None
    }
}

/// Every search the index serves, against its reference, for one input.
fn assert_walks_agree(topo: &Topology, src: NodeId, dst: NodeId, avoid: &HashSet<LinkId>) {
    assert_eq!(
        bfs_shortest_path(topo, src, dst),
        reference::bfs_by_id(topo, src, dst, |_, _| true),
        "primary {src}->{dst}"
    );
    assert_eq!(
        bfs_avoiding(topo, src, dst, avoid),
        reference::bfs_avoiding(topo, src, dst, avoid),
        "detour {src}->{dst} avoiding {avoid:?}"
    );
    let by_link = |_, l| !avoid.contains(&l);
    assert_eq!(
        bfs_shortest_path_where(topo, src, dst, by_link),
        reference::bfs_by_id(topo, src, dst, by_link),
        "link-filtered {src}->{dst} avoiding {avoid:?}"
    );
    // A node filter, as `chain_path` uses it: the far ends of the avoided
    // links stand in for already-visited switches.
    let banned: HashSet<NodeId> = avoid.iter().map(|&l| topo.link(l).b).collect();
    let by_node = |n, _| n == dst || !banned.contains(&n);
    assert_eq!(
        bfs_shortest_path_where(topo, src, dst, by_node),
        reference::bfs_by_id(topo, src, dst, by_node),
        "node-filtered {src}->{dst} avoiding {banned:?}"
    );
}

/// The index's two views of every node against the `links`-derived one.
fn assert_index_matches_links(topo: &Topology) {
    for n in (0..topo.node_count()).map(NodeId) {
        let want = reference::neighbors(topo, n);
        assert_eq!(topo.neighbors(n).collect::<Vec<_>>(), want, "{n}");
        let mut sorted: Vec<(LinkId, NodeId)> = want.iter().map(|&(_, l, p)| (l, p)).collect();
        sorted.sort_by_key(|&(_, p)| p);
        assert_eq!(topo.neighbors_by_id(n).collect::<Vec<_>>(), sorted, "{n}");
        for &(port, link, peer) in &want {
            let first = want.iter().find(|w| w.2 == peer).expect("peer is listed");
            assert_eq!(topo.port_towards(n, peer), Some(first.0));
            assert_eq!(topo.link_between(n, peer), Some(first.1));
            assert_eq!(topo.link(link).port_on(n), port);
        }
    }
}

#[derive(Debug, Clone)]
enum Shape {
    RandomHosts { n: usize, extra: usize, seed: u64 },
    Ring { n: usize },
    Grid { rows: usize, cols: usize },
}

fn build(shape: &Shape) -> Topology {
    let (ids, params) = (IdStrategy::SmallestPrimes, LinkParams::default());
    match *shape {
        Shape::RandomHosts { n, extra, seed } => {
            gen::try_random_connected_hosts(n, extra, seed, ids, params)
        }
        Shape::Ring { n } => gen::try_ring(n, ids, params),
        Shape::Grid { rows, cols } => gen::try_grid(rows, cols, ids, params),
    }
    .expect("smallest primes never run out")
}

fn shapes() -> impl Strategy<Value = Shape> {
    prop_oneof![
        ((2usize..48), (0usize..40), any::<u64>())
            .prop_map(|(n, extra, seed)| Shape::RandomHosts { n, extra, seed }),
        (3usize..40).prop_map(|n| Shape::Ring { n }),
        ((2usize..7), (2usize..7)).prop_map(|(rows, cols)| Shape::Grid { rows, cols }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random endpoints (equal ones included) and 0–3 avoided links — on
    /// rings and sparse graphs that often cuts the pair apart.
    #[test]
    fn indexed_walks_match_the_reference_on_generated_topologies(
        shape in shapes(),
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..8),
        avoid in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        let topo = build(&shape);
        assert_index_matches_links(&topo);
        let avoid: HashSet<LinkId> =
            avoid.iter().map(|&l| LinkId(l % topo.link_count())).collect();
        for &(s, d) in &picks {
            let (src, dst) = (NodeId(s % topo.node_count()), NodeId(d % topo.node_count()));
            assert_walks_agree(&topo, src, dst, &avoid);
            assert_walks_agree(&topo, src, src, &avoid);
        }
    }
}

/// Every ordered pair of both paper networks, with nothing avoided, each
/// single link avoided, and a sliding window of three links avoided.
#[test]
fn indexed_walks_match_the_reference_on_the_paper_networks() {
    for topo in [rnp28::build(), topo15::build()] {
        assert_index_matches_links(&topo);
        let links = topo.link_count();
        let mut avoid_sets = vec![HashSet::new()];
        for l in 0..links {
            avoid_sets.push(HashSet::from([LinkId(l)]));
            avoid_sets.push((0..3).map(|i| LinkId((l + 5 * i) % links)).collect());
        }
        for avoid in &avoid_sets {
            for s in 0..topo.node_count() {
                for d in 0..topo.node_count() {
                    assert_walks_agree(&topo, NodeId(s), NodeId(d), avoid);
                }
            }
        }
    }
}

#[test]
fn unreachable_pairs_and_parallel_links() {
    let mut b = TopologyBuilder::new();
    let (a, c, d) = (b.core("A", 7), b.core("C", 11), b.core("D", 13));
    let island = b.edge("X");
    b.link(a, d, LinkParams::default());
    b.link(a, c, LinkParams::default());
    let second = b.link(a, c, LinkParams::default()); // parallel to port 1
    b.link(c, d, LinkParams::default());
    let topo = b.build().unwrap();
    assert_index_matches_links(&topo);
    assert!(!topo.is_connected());
    for avoid in [HashSet::new(), HashSet::from([LinkId(1)])] {
        for s in 0..topo.node_count() {
            for t in 0..topo.node_count() {
                assert_walks_agree(&topo, NodeId(s), NodeId(t), &avoid);
            }
        }
        assert_eq!(bfs_shortest_path(&topo, a, island), None);
        assert_eq!(bfs_avoiding(&topo, island, a, &avoid), None);
    }
    // With the first A-C link avoided the detour still goes A-C, over
    // the parallel one.
    let avoid = HashSet::from([LinkId(1)]);
    assert_eq!(bfs_avoiding(&topo, a, c, &avoid), Some(vec![a, c]));
    assert_eq!(topo.link_between(a, c), Some(LinkId(1)));
    assert_ne!(topo.link_between(a, c), Some(second));
}

#[test]
fn default_and_cloned_topologies_carry_a_valid_index() {
    let empty = Topology::default();
    assert_eq!(empty.node_count(), 0);
    assert!(empty.is_connected());
    assert_index_matches_links(&empty);
    assert_index_matches_links(&empty.clone());

    let topo = rnp28::build();
    let copy = topo.clone();
    drop(topo);
    assert_index_matches_links(&copy);
    let (src, dst) = (copy.expect("E_BV"), copy.expect("E_SP"));
    assert_walks_agree(&copy, src, dst, &HashSet::new());
}

/// The two tie-breaks differ: on a square, the primary search takes the
/// lower node id, the detour search the lower port.
#[test]
fn the_two_tie_breaks_are_distinct() {
    let mut b = TopologyBuilder::new();
    let (s, lo, hi, t) = (
        b.core("S", 5),
        b.core("LO", 7),
        b.core("HI", 11),
        b.core("T", 13),
    );
    b.link(s, hi, LinkParams::default()); // port 0 of S leads to the higher id
    b.link(s, lo, LinkParams::default());
    b.link(hi, t, LinkParams::default());
    b.link(lo, t, LinkParams::default());
    let topo = b.build().unwrap();
    assert_eq!(bfs_shortest_path(&topo, s, t), Some(vec![s, lo, t]));
    assert_eq!(
        bfs_avoiding(&topo, s, t, &HashSet::new()),
        Some(vec![s, hi, t])
    );
}

#[test]
fn fig7_primary_is_pinned() {
    let topo = rnp28::build();
    let path = bfs_shortest_path(&topo, topo.expect("E_BV"), topo.expect("E_SP")).unwrap();
    let ids: Vec<usize> = path.iter().map(|n| n.0).collect();
    assert_eq!(ids, FIG7_PRIMARY);
    let names: Vec<&str> = path.iter().map(|&n| topo.node(n).name.as_str()).collect();
    assert_eq!(names, rnp28::FIG7_ROUTE);
}

/// rand1024 is the `svc-*` benchmark topology; these ten host pairs'
/// primaries were recorded from the pre-index search.
#[test]
fn rand1024_primaries_are_pinned() {
    let topo = gen::try_random_connected_hosts(
        1024,
        512,
        1024,
        IdStrategy::SmallestPrimes,
        LinkParams::default(),
    )
    .unwrap();
    for (src, dst, want) in RAND1024_PRIMARIES {
        let (src, dst) = (topo.expect(src), topo.expect(dst));
        let path = bfs_shortest_path(&topo, src, dst).unwrap();
        let ids: Vec<usize> = path.iter().map(|n| n.0).collect();
        assert_eq!(ids, want, "{src}->{dst}");
        assert_eq!(
            Some(path),
            reference::bfs_by_id(&topo, src, dst, |_, _| true)
        );
    }
}

const FIG7_PRIMARY: &[usize] = &[28, 0, 2, 9, 17, 29];

const RAND1024_PRIMARIES: [(&str, &str, &[usize]); 10] = [
    ("H0", "H1023", &[1024, 0, 24, 69, 395, 1023, 2047]),
    ("H37", "H616", &[1061, 37, 104, 591, 658, 134, 616, 1640]),
    (
        "H74",
        "H203",
        &[1098, 74, 37, 12, 3, 145, 680, 883, 203, 1227],
    ),
    (
        "H111",
        "H814",
        &[1135, 111, 20, 28, 187, 1023, 395, 814, 1838],
    ),
    ("H148", "H401", &[1172, 148, 17, 22, 382, 401, 1425]),
    (
        "H185",
        "H1012",
        &[1209, 185, 25, 967, 818, 923, 322, 1012, 2036],
    ),
    (
        "H222",
        "H599",
        &[1246, 222, 34, 655, 734, 321, 155, 305, 599, 1623],
    ),
    ("H259", "H186", &[1283, 259, 24, 40, 61, 105, 186, 1210]),
    (
        "H296",
        "H797",
        &[1320, 296, 157, 161, 135, 306, 543, 781, 797, 1821],
    ),
    ("H1000", "H3", &[2024, 1000, 125, 64, 35, 14, 6, 3, 1027]),
];
