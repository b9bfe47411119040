//! The graph walks against two one-sided oracles.
//!
//! `kar_topology::paths` runs one meet-in-the-middle BFS kernel over the
//! flat adjacency index. [`reference`] keeps two one-sided searches
//! verbatim as oracles — same path, not merely same length, on every
//! input:
//!
//! * the searches as they were before the index existed — per-node
//!   `Vec` + sort, peers reached through `ports[p] → links[l] →
//!   peer_of(n)`;
//! * the indexed one-sided kernel the two-ended one replaced, over the
//!   same slices (`neighbors_by_id` / `neighbors`), which also counts
//!   the work the two-ended search saves.
//!
//! The pinned paths at the bottom make a tie-break slip fail here rather
//! than three crates later in a `BENCH_*.json` diff.

use kar_rns::IdStrategy;
use kar_topology::paths::{bfs_avoiding, bfs_shortest_path, bfs_shortest_path_where};
use kar_topology::{
    gen, rnp28, topo15, LinkId, LinkParams, NodeId, PortIx, Topology, TopologyBuilder,
};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::HashSet;

mod reference {
    use super::*;
    use std::collections::VecDeque;

    /// The one-sided indexed kernel: `order` yields a node's `(link,
    /// peer)` slice, `prev` doubles as the seen set, the queue is one
    /// preallocated `Vec` between two cursors.
    pub fn bfs_indexed<I: Iterator<Item = (LinkId, NodeId)>>(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        order: impl Fn(NodeId) -> I,
        admit: impl Fn(NodeId, LinkId) -> bool,
    ) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        const UNSEEN: u32 = u32::MAX;
        let mut prev = vec![UNSEEN; topo.node_count()];
        prev[src.0] = src.0 as u32;
        let mut queue = vec![0u32; topo.node_count() + 1];
        queue[0] = src.0 as u32;
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let n = queue[head];
            head += 1;
            for (link, peer) in order(NodeId(n as usize)) {
                let peer = peer.0;
                let take = prev[peer] == UNSEEN && admit(NodeId(peer), link);
                prev[peer] = if take { n } else { prev[peer] };
                queue[tail] = peer as u32;
                tail += usize::from(take);
                if take && peer == dst.0 {
                    let mut path = vec![dst];
                    let mut cur = peer;
                    while cur != src.0 {
                        cur = prev[cur] as usize;
                        path.push(NodeId(cur));
                    }
                    path.reverse();
                    return Some(path);
                }
            }
        }
        None
    }

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

/// The one-sided indexed oracle in node-id order.
fn indexed_by_id(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    admit: impl Fn(NodeId, LinkId) -> bool,
) -> Option<Vec<NodeId>> {
    reference::bfs_indexed(topo, src, dst, |n| topo.neighbors_by_id(n), admit)
}

/// The one-sided indexed oracle in port order.
fn indexed_by_port(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    admit: impl Fn(NodeId, LinkId) -> bool,
) -> Option<Vec<NodeId>> {
    let order = |n| topo.neighbors(n).map(|(_, l, p)| (l, p));
    reference::bfs_indexed(topo, src, dst, order, admit)
}

/// A step filter, as the kernel's `admit` sees it.
type Admit<'a> = &'a dyn Fn(NodeId, LinkId) -> bool;

/// `avoid` as `bfs_avoiding` takes it: a sorted slice.
fn sorted(avoid: &HashSet<LinkId>) -> Vec<LinkId> {
    let mut links: Vec<LinkId> = avoid.iter().copied().collect();
    links.sort_unstable();
    links
}

/// Every search the kernel serves, against both oracles, for one input.
fn assert_walks_agree(topo: &Topology, src: NodeId, dst: NodeId, avoid: &HashSet<LinkId>) {
    let detour = bfs_avoiding(topo, src, dst, &sorted(avoid));
    assert_eq!(
        detour,
        reference::bfs_avoiding(topo, src, dst, avoid),
        "detour {src}->{dst} avoiding {avoid:?}"
    );
    let by_link = |_, l| !avoid.contains(&l);
    assert_eq!(
        detour,
        indexed_by_port(topo, src, dst, by_link),
        "detour {src}->{dst} avoiding {avoid:?}, indexed oracle"
    );
    let all = |_, _| true;
    // A node filter, as `chain_path` uses it: the far ends of the avoided
    // links stand in for already-visited switches.
    let banned: HashSet<NodeId> = avoid.iter().map(|&l| topo.link(l).b).collect();
    let by_node = |n, _| n == dst || !banned.contains(&n);
    // A filter on the step, not the link: entering `peer` over `link`
    // may be refused while the reverse step over the same link is not,
    // so the backward search must ask about the node it steps *from*.
    let m = 2 + avoid.len() % 4;
    let by_step = |peer: NodeId, link: LinkId| !(peer.0 * 7 + link.0).is_multiple_of(m);
    let filters: [(&str, Admit); 4] = [
        ("unfiltered", &all),
        ("link-filtered", &by_link),
        ("node-filtered", &by_node),
        ("step-filtered", &by_step),
    ];
    for (what, admit) in filters {
        let got = bfs_shortest_path_where(topo, src, dst, admit);
        assert_eq!(
            got,
            reference::bfs_by_id(topo, src, dst, admit),
            "{what} {src}->{dst} avoiding {avoid:?}"
        );
        assert_eq!(
            got,
            indexed_by_id(topo, src, dst, admit),
            "{what} {src}->{dst} avoiding {avoid:?}, indexed oracle"
        );
    }
    assert_eq!(
        bfs_shortest_path(topo, src, dst),
        reference::bfs_by_id(topo, src, dst, all),
        "primary {src}->{dst}"
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

    /// Random endpoints (equal ones included) and 0–5 avoided links — on
    /// rings and sparse graphs that often cuts the pair apart.
    #[test]
    fn indexed_walks_match_the_reference_on_generated_topologies(
        shape in shapes(),
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..8),
        avoid in proptest::collection::vec(any::<usize>(), 0..6),
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
        assert_eq!(bfs_avoiding(&topo, island, a, &sorted(&avoid)), None);
        // A destination past the last node is unreachable, not a panic.
        let nowhere = NodeId(topo.node_count() + 7);
        assert_walks_agree(&topo, a, nowhere, &avoid);
        assert_eq!(bfs_avoiding(&topo, a, nowhere, &sorted(&avoid)), None);
    }
    // With the first A-C link avoided the detour still goes A-C, over
    // the parallel one.
    assert_eq!(bfs_avoiding(&topo, a, c, &[LinkId(1)]), Some(vec![a, c]));
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
    assert_eq!(bfs_avoiding(&topo, s, t, &[]), Some(vec![s, hi, t]));
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

/// rand1024, the `svc-*` benchmark topology (1024 switches, one host
/// each, 512 extra links, generator seed 1024).
fn rand1024() -> Topology {
    gen::try_random_connected_hosts(
        1024,
        512,
        1024,
        IdStrategy::SmallestPrimes,
        LinkParams::default(),
    )
    .unwrap()
}

/// `count` ordered host pairs (`src != dst`) drawn from a splitmix64
/// stream.
fn seeded_host_pairs(topo: &Topology, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut state = seed;
    let mut draw = move |below: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % below as u64) as usize
    };
    let hosts = topo.edge_nodes();
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let (s, d) = (hosts[draw(hosts.len())], hosts[draw(hosts.len())]);
        if s != d {
            pairs.push((s, d));
        }
    }
    pairs
}

/// rand1024 host pairs with 0–5 links avoided, every filter, both
/// orders, both oracles.
#[test]
fn walks_match_both_oracles_on_rand1024_host_pairs() {
    let topo = rand1024();
    let links = topo.link_count();
    for (i, (src, dst)) in seeded_host_pairs(&topo, 96, 7).into_iter().enumerate() {
        let avoid: HashSet<LinkId> = (0..i % 6)
            .map(|k| LinkId((i * 131 + k * 977) % links))
            .collect();
        assert_walks_agree(&topo, src, dst, &avoid);
    }
}

/// The mechanism as a count, not a clock: over 4 096 rand1024 host
/// pairs the two-ended search asks `admit` at most a quarter as often as
/// the one-sided search, and returns the same path every time.
#[test]
fn the_two_ended_search_asks_a_quarter_as_often() {
    let topo = rand1024();
    fn counting(calls: &Cell<u64>) -> impl Fn(NodeId, LinkId) -> bool + '_ {
        |_, _| {
            calls.set(calls.get() + 1);
            true
        }
    }
    let (kernel, oracle) = (Cell::new(0u64), Cell::new(0u64));
    for (src, dst) in seeded_host_pairs(&topo, 4096, 27) {
        let got = bfs_shortest_path_where(&topo, src, dst, counting(&kernel));
        assert_eq!(got, indexed_by_id(&topo, src, dst, counting(&oracle)));
    }
    let (kernel, oracle) = (kernel.get(), oracle.get());
    assert!(
        4 * kernel <= oracle,
        "admit calls: two-ended {kernel}, one-sided {oracle}"
    );
}

/// A node past the last one is on no path, as either end or both — a
/// `None`, never a panic or a one-node path through nothing.
#[test]
fn a_node_out_of_range_has_no_path_from_or_to_it() {
    let topo = topo15::build();
    let (good, bad) = (topo.expect("AS1"), NodeId(22));
    assert!(bad.0 >= topo.node_count());
    for (src, dst) in [(bad, good), (good, bad), (bad, bad)] {
        assert_eq!(bfs_shortest_path(&topo, src, dst), None, "{src}->{dst}");
        let all = |_, _| true;
        assert_eq!(bfs_shortest_path_where(&topo, src, dst, all), None);
        assert_eq!(bfs_avoiding(&topo, src, dst, &[]), None, "{src}->{dst}");
    }
}

/// The searches share one scratch per thread. Whatever ran before — a
/// smaller or larger topology, a search ending in `None`, a search run
/// from inside another's `admit`, a search unwound by a panicking
/// `admit` — the next rand1024 search is path for path what both
/// oracles return.
#[test]
fn the_reused_scratch_carries_nothing_between_searches() {
    let rand = rand1024();
    let small = topo15::build();
    let ring = build(&Shape::Ring { n: 256 });
    let pairs = seeded_host_pairs(&rand, 3, 41);
    let links = rand.link_count();
    let check = |step: &str| {
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let avoid = HashSet::from([LinkId(i * 389 % links), LinkId(i * 977 % links)]);
            assert_walks_agree(&rand, src, dst, &avoid);
            assert_eq!(
                bfs_shortest_path(&rand, src, dst),
                indexed_by_id(&rand, src, dst, |_, _| true),
                "after {step}"
            );
        }
    };
    let any_pair = |topo: &Topology| {
        let hosts = topo.edge_nodes();
        (hosts[0], hosts[hosts.len() / 2])
    };
    // Grow from nothing, shrink, grow, and back to the largest.
    for (name, topo) in [
        ("topo15", &small),
        ("rand1024", &rand),
        ("topo15", &small),
        ("ring256", &ring),
        ("rand1024", &rand),
    ] {
        let (src, dst) = any_pair(topo);
        assert!(bfs_shortest_path(topo, src, dst).is_some(), "{name}");
        check(name);
    }
    // Searches that end in `None`: a pair cut apart (the destination
    // host's one link avoided, after the forward side marked a ball), an
    // island, and a node out of range.
    let (src, dst) = pairs[0];
    let uplink: &[LinkId] = &rand.node(dst).ports;
    assert_eq!(uplink.len(), 1, "a rand1024 host has one link");
    assert_eq!(bfs_avoiding(&rand, src, dst, uplink), None);
    check("a cut pair");
    let mut b = TopologyBuilder::new();
    let (a, c) = (b.core("A", 7), b.core("C", 11));
    let island = b.edge("X");
    b.link(a, c, LinkParams::default());
    let islands = b.build().unwrap();
    assert_eq!(bfs_shortest_path(&islands, a, island), None);
    check("an island");
    assert_eq!(
        bfs_shortest_path(&rand, src, NodeId(rand.node_count())),
        None
    );
    check("a node out of range");
    // A search inside `admit`: the inner one works on a scratch of its
    // own and both answer what the oracles do.
    let (inner_src, inner_dst) = pairs[1];
    let inner_want = indexed_by_id(&rand, inner_src, inner_dst, |_, _| true);
    let inner_runs = Cell::new(0u32);
    let nested = bfs_shortest_path_where(&rand, src, dst, |_, _| {
        assert_eq!(bfs_shortest_path(&rand, inner_src, inner_dst), inner_want);
        inner_runs.set(inner_runs.get() + 1);
        true
    });
    assert!(inner_runs.get() > 0);
    assert_eq!(nested, indexed_by_id(&rand, src, dst, |_, _| true));
    check("a re-entrant search");
    // A panic halfway through a search drops its scratch.
    let asked = Cell::new(0u32);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        bfs_shortest_path_where(&rand, src, dst, |_, _| {
            asked.set(asked.get() + 1);
            assert!(asked.get() < 20, "admit gives up mid-search");
            true
        })
    }));
    assert!(unwound.is_err());
    check("a panicking admit");
}

/// These ten host pairs' primaries were recorded from the pre-index
/// search.
#[test]
fn rand1024_primaries_are_pinned() {
    let topo = rand1024();
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
