//! The flat-buffer explorer against the exploration it replaced.
//!
//! `kar::verify` explores every case on one reusable
//! [`kar::verify::Explorer`]: residues reduced once per pair, the failure
//! set and `relevant_links` as link bitmaps, states numbered in
//! discovery order, flat successor lists, Tarjan over `u32` arrays. The
//! functions in [`reference`] are `verify_route`, `possible_moves`,
//! `step`, `loop_witness` and `tarjan_sccs` as they were before that —
//! a residue by long division per visited state, a `Vec` per candidate
//! set, `HashSet`/`HashMap` probes, a `Vec` per successor list and per
//! SCC — kept verbatim as the oracle: the whole [`VerifyReport`] must
//! compare equal (`states`, both witnesses, `relevant_links`), not merely
//! the outcome, because the projection memo, the pinned tables and the
//! committed `BENCH_*.json` all sit on those fields.
//!
//! The buffers are what this design invites getting wrong, so one
//! explorer is also driven through a shuffled sequence of failure sets
//! against a fresh explorer per set.
//!
//! `verify_failure_sets` sweeps its pairs on every core, one pair per
//! unit of work. [`serial`] is the one-core sweep it replaced, kept
//! verbatim (its `Combinations`, `CutTest` and `sweep_pair` with it): the
//! whole `KSweep` — every row's pair, failure set, verdict and report,
//! and all four counters — must compare equal, on topo15, rnp28, a ring
//! and a grid. Every row's disconnection verdict is also checked against
//! a plain search that shares no code with either `CutTest`.

use kar::verify::{
    min_failure_set, verify_failure_sets, ActiveRoute, Explorer, KSweep, Outcome, VerifyReport,
};
use kar::{
    verify_hier_route, verify_route, DeflectionTechnique, EncodedRoute, EncodingCache, Planner,
    Protection, Segmented, SweepStats,
};
use kar_rns::IdStrategy;
use kar_topology::{gen, paths, rnp28, topo15, LinkId, LinkParams, NodeId, Partition, Topology};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

mod reference {
    use super::*;
    use kar_topology::PortIx;
    use std::collections::VecDeque;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct State {
        node: NodeId,
        in_port: PortIx,
        deflected: bool,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Terminal {
        Delivered,
        WrongEdge(NodeId),
        Drop,
    }

    /// All moves the technique allows from one state. Mirrors
    /// [`crate::KarForwarder`]: residue first, then the deflection candidate
    /// set (core-facing ports preferred for AVP/NIP, input port excluded for
    /// NIP, unrestricted for hot-potato's random walk).
    fn possible_moves(
        topo: &Topology,
        route: &EncodedRoute,
        technique: DeflectionTechnique,
        failed: &HashSet<LinkId>,
        state: State,
    ) -> Result<Vec<(PortIx, bool)>, Terminal> {
        let node = topo.node(state.node);
        let switch_id = node
            .kind
            .switch_id()
            .expect("possible_moves is only called on core switches");
        let port_up = |p: PortIx| {
            node.ports
                .get(p as usize)
                .map(|l| !failed.contains(l))
                .unwrap_or(false)
        };
        let computed = route.port_at(switch_id);
        let residue_ok = |exclude_input: bool| {
            port_up(computed) && !(exclude_input && computed == state.in_port)
        };
        // The deflection candidate set of `random_port`: healthy ports minus
        // `exclude`, restricted to core-facing ports when any exist and the
        // technique prefers them.
        let deflection_set = |exclude: Option<PortIx>, prefer_core: bool| -> Vec<(PortIx, bool)> {
            let healthy: Vec<PortIx> = (0..node.ports.len() as PortIx)
                .filter(|&p| port_up(p) && Some(p) != exclude)
                .collect();
            let core: Vec<PortIx> = if prefer_core {
                healthy
                    .iter()
                    .copied()
                    .filter(|&p| {
                        let link = node.ports[p as usize];
                        topo.switch_id(topo.link(link).peer_of(state.node))
                            .is_some()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let candidates = if core.is_empty() { healthy } else { core };
            candidates.into_iter().map(|p| (p, true)).collect()
        };
        let moves = match technique {
            DeflectionTechnique::None => {
                if residue_ok(false) {
                    vec![(computed, state.deflected)]
                } else {
                    Vec::new()
                }
            }
            DeflectionTechnique::HotPotato => {
                if state.deflected {
                    deflection_set(None, false)
                } else if residue_ok(false) {
                    vec![(computed, false)]
                } else {
                    deflection_set(None, false)
                }
            }
            DeflectionTechnique::Avp => {
                if residue_ok(false) {
                    vec![(computed, state.deflected)]
                } else {
                    deflection_set(None, true)
                }
            }
            DeflectionTechnique::Nip => {
                if residue_ok(true) {
                    vec![(computed, state.deflected)]
                } else {
                    deflection_set(Some(state.in_port), true)
                }
            }
        };
        if moves.is_empty() {
            Err(Terminal::Drop)
        } else {
            Ok(moves)
        }
    }

    /// Where the move `(port, deflected)` from `state` lands: a successor
    /// state with the route it then carries (a re-stamp is a fresh tag, so
    /// the deflected bit clears too) or a terminal (an edge node).
    fn step<A: ActiveRoute>(
        topo: &Topology,
        active: &mut A,
        dst: NodeId,
        (key, state): (A::Key, State),
        (port, deflected): (PortIx, bool),
    ) -> Result<(A::Key, State), Terminal> {
        let link = topo.node(state.node).ports[port as usize];
        let peer = topo.link(link).peer_of(state.node);
        if topo.switch_id(peer).is_none() {
            return Err(if peer == dst {
                Terminal::Delivered
            } else {
                Terminal::WrongEdge(peer)
            });
        }
        let restamp = active.restamp(topo, link, peer);
        let next = State {
            node: peer,
            in_port: topo.link(link).port_on(peer),
            deflected: deflected && restamp.is_none(),
        };
        Ok((restamp.unwrap_or(key), next))
    }

    /// Exhaustively classifies one route under one failure set.
    ///
    /// `src`/`dst` are the ingress and destination edges; the packet enters
    /// the core through the ingress route's `uplink` exactly as the edge
    /// logic would send it.
    pub fn verify_route<A: ActiveRoute>(
        topo: &Topology,
        mut active: A,
        src: NodeId,
        dst: NodeId,
        technique: DeflectionTechnique,
        failed: &HashSet<LinkId>,
    ) -> VerifyReport {
        let mut report = VerifyReport {
            outcome: Outcome::Delivered,
            can_deliver: false,
            can_wrong_edge: false,
            can_blackhole: false,
            has_cycle: false,
            states: 0,
            loop_witness: None,
            blackhole_witness: None,
            relevant_links: Vec::new(),
        };
        // The edge transmits blindly into its uplink; a failed uplink kills
        // every packet of the flow at hop zero.
        let uplink = topo.node(src).ports[active.route(active.ingress()).uplink as usize];
        if failed.contains(&uplink) {
            report.can_blackhole = true;
            report.outcome = Outcome::Blackhole;
            report.blackhole_witness = Some(vec![src]);
            report.relevant_links = vec![uplink];
            return report;
        }
        let first = topo.link(uplink).peer_of(src);
        debug_assert!(
            topo.switch_id(first).is_some(),
            "uplink peer is a core switch"
        );
        let initial = State {
            node: first,
            in_port: topo.link(uplink).port_on(first),
            deflected: false,
        };
        let initial = (active.ingress(), initial);

        // Reachability sweep, recording the move relation and a predecessor
        // per state for witness reconstruction.
        let mut index: HashMap<(A::Key, State), usize> = HashMap::new();
        let mut states: Vec<(A::Key, State)> = Vec::new();
        let mut succs: Vec<Vec<usize>> = Vec::new();
        let mut terminal_drop: Vec<bool> = Vec::new();
        let mut escapes: Vec<bool> = Vec::new(); // has an edge to a terminal
        let mut pred: Vec<Option<usize>> = Vec::new();
        let mut queue = VecDeque::new();
        index.insert(initial, 0);
        states.push(initial);
        succs.push(Vec::new());
        terminal_drop.push(false);
        escapes.push(false);
        pred.push(None);
        queue.push_back(0usize);
        while let Some(i) = queue.pop_front() {
            let (key, state) = states[i];
            match possible_moves(topo, active.route(key), technique, failed, state) {
                Err(Terminal::Drop) => {
                    terminal_drop[i] = true;
                    report.can_blackhole = true;
                }
                Err(_) => unreachable!("possible_moves only yields Drop terminals"),
                Ok(moves) => {
                    for mv in moves {
                        match step(topo, &mut active, dst, states[i], mv) {
                            Err(Terminal::Delivered) => {
                                report.can_deliver = true;
                                escapes[i] = true;
                            }
                            Err(Terminal::WrongEdge(_)) => {
                                report.can_wrong_edge = true;
                                escapes[i] = true;
                            }
                            Err(Terminal::Drop) => unreachable!("step never drops"),
                            Ok(next) => {
                                let j = *index.entry(next).or_insert_with(|| {
                                    states.push(next);
                                    succs.push(Vec::new());
                                    terminal_drop.push(false);
                                    escapes.push(false);
                                    pred.push(Some(i));
                                    queue.push_back(states.len() - 1);
                                    states.len() - 1
                                });
                                if !succs[i].contains(&j) {
                                    succs[i].push(j);
                                }
                            }
                        }
                    }
                }
            }
        }
        report.states = states.len();

        // Everything the exploration consulted: `possible_moves` reads the
        // status of every port of the current switch, and `step` follows a
        // port of that same switch — so the uplink plus the full port list
        // of each reachable switch covers every status read.
        let mut relevant: HashSet<LinkId> = [uplink].into_iter().collect();
        let mut seen_nodes: HashSet<NodeId> = HashSet::new();
        for (_, state) in &states {
            if seen_nodes.insert(state.node) {
                relevant.extend(topo.node(state.node).ports.iter().copied());
            }
        }
        report.relevant_links = relevant.into_iter().collect();
        report.relevant_links.sort_unstable();

        if report.can_blackhole && report.blackhole_witness.is_none() {
            let die = (0..states.len())
                .find(|&i| terminal_drop[i])
                .expect("drop state exists");
            let mut path = Vec::new();
            let mut cur = Some(die);
            while let Some(i) = cur {
                path.push(states[i].1.node);
                cur = pred[i];
            }
            path.push(src);
            path.reverse();
            report.blackhole_witness = Some(path);
        }

        // Cycle and trap analysis on the inter-state relation. An SCC is a
        // trap when no member can drop (that would be a blackhole, reported
        // above), escape to an edge, or step outside the SCC.
        let sccs = tarjan_sccs(&succs);
        let mut scc_of = vec![0usize; states.len()];
        for (sid, scc) in sccs.iter().enumerate() {
            for &i in scc {
                scc_of[i] = sid;
            }
        }
        for (sid, scc) in sccs.iter().enumerate() {
            let cyclic = scc.len() > 1 || (scc.len() == 1 && succs[scc[0]].contains(&scc[0]));
            if !cyclic {
                continue;
            }
            report.has_cycle = true;
            let trapped = scc.iter().all(|&i| {
                !terminal_drop[i] && !escapes[i] && succs[i].iter().all(|&j| scc_of[j] == sid)
            });
            if trapped && report.loop_witness.is_none() {
                report.loop_witness = Some(loop_witness(&states, &succs, scc));
            }
        }

        report.outcome = if report.loop_witness.is_some() {
            Outcome::Loop
        } else if report.can_blackhole {
            Outcome::Blackhole
        } else if report.has_cycle {
            Outcome::TtlExceeded
        } else if report.can_wrong_edge {
            Outcome::WrongEdge
        } else {
            debug_assert!(report.can_deliver, "acyclic, lossless, on-target graph");
            Outcome::Delivered
        };
        report
    }

    /// One concrete cycle through a trap SCC, as the switches visited.
    fn loop_witness<K>(states: &[(K, State)], succs: &[Vec<usize>], scc: &[usize]) -> Vec<NodeId> {
        let members: HashSet<usize> = scc.iter().copied().collect();
        let start = scc[0];
        let mut seen = HashMap::new();
        let mut order = Vec::new();
        let mut cur = start;
        loop {
            if let Some(&at) = seen.get(&cur) {
                return order[at..]
                    .iter()
                    .map(|&i: &usize| states[i].1.node)
                    .collect();
            }
            seen.insert(cur, order.len());
            order.push(cur);
            cur = *succs[cur]
                .iter()
                .find(|j| members.contains(j))
                .expect("trap SCC members stay inside the SCC");
        }
    }

    /// Iterative Tarjan strongly-connected components (indices into the
    /// state arrays). Iterative because NIP walks on larger topologies can
    /// produce graphs deeper than the default stack would like.
    fn tarjan_sccs(succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let n = succs.len();
        let mut idx = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        let mut sccs = Vec::new();
        let mut counter = 0usize;
        // (node, next successor position)
        let mut call: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if idx[root] != usize::MAX {
                continue;
            }
            call.push((root, 0));
            while let Some(&mut (v, ref mut pos)) = call.last_mut() {
                if *pos == 0 {
                    idx[v] = counter;
                    low[v] = counter;
                    counter += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = succs[v].get(*pos) {
                    *pos += 1;
                    if idx[w] == usize::MAX {
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(idx[w]);
                    }
                } else {
                    if low[v] == idx[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
        sccs
    }
}

mod serial {
    use kar::{
        DeflectionTechnique, EncodingCache, FailureSetResult, KSweep, KarError, PairVerifier,
        Protection, SweepStats,
    };
    use kar_topology::{paths, LinkId, NodeId, Topology};
    use std::ops::ControlFlow;

    /// Lexicographic k-subsets of `0..n`.
    struct Combinations {
        n: usize,
        k: usize,
        cur: Vec<usize>,
        started: bool,
    }

    impl Combinations {
        fn new(n: usize, k: usize) -> Self {
            Combinations {
                n,
                k,
                cur: (0..k).collect(),
                started: false,
            }
        }
    }

    impl Iterator for Combinations {
        type Item = Vec<usize>;
        fn next(&mut self) -> Option<Vec<usize>> {
            if self.k > self.n {
                return None;
            }
            if !self.started {
                self.started = true;
                return Some(self.cur.clone());
            }
            let k = self.k;
            let mut i = k;
            while i > 0 {
                i -= 1;
                // Largest value position i can hold is n - k + i.
                if self.cur[i] < self.n - k + i {
                    self.cur[i] += 1;
                    for j in i + 1..k {
                        self.cur[j] = self.cur[j - 1] + 1;
                    }
                    return Some(self.cur.clone());
                }
            }
            None
        }
    }

    /// The "is the pair cut" test of one pair's sweep. It remembers the
    /// links of the last `src → dst` path it found: a failure set that
    /// touches none of them leaves that path standing, so the pair is
    /// connected and no search runs.
    struct CutTest<'t> {
        topo: &'t Topology,
        src: NodeId,
        dst: NodeId,
        witness: Vec<LinkId>,
    }

    impl<'t> CutTest<'t> {
        fn new(topo: &'t Topology, src: NodeId, dst: NodeId) -> Self {
            CutTest {
                topo,
                src,
                dst,
                witness: Vec::new(),
            }
        }

        /// Whether `failed` physically disconnects the pair.
        fn is_cut(&mut self, failed: &[LinkId]) -> bool {
            let standing =
                !self.witness.is_empty() && !failed.iter().any(|l| self.witness.contains(l));
            if standing {
                return false;
            }
            let admit = |_, l| !failed.contains(&l);
            let Some(path) = paths::bfs_shortest_path_where(self.topo, self.src, self.dst, admit)
            else {
                return true;
            };
            self.witness.clear();
            self.witness.extend(path.windows(2).map(|hop| {
                self.topo
                    .link_between(hop[0], hop[1])
                    .expect("consecutive BFS path nodes are adjacent")
            }));
            false
        }
    }

    /// The one sweep loop of a pair: enumerates the failure sets of sizes
    /// `1..=k` (sizes ascending, sets lexicographic), settles whether each
    /// disconnects the pair — supersets of a smaller disconnecting set by
    /// monotonicity (counted in `disconnect_pruned`), the rest by asking
    /// `is_cut` — and hands every `(set, disconnected)` to `visit`, which
    /// may end the sweep.
    fn sweep_pair<B>(
        links: usize,
        k: usize,
        disconnect_pruned: &mut usize,
        mut is_cut: impl FnMut(&[LinkId]) -> bool,
        mut visit: impl FnMut(Vec<LinkId>, bool) -> ControlFlow<B>,
    ) -> Option<B> {
        // Minimal disconnecting sets of size < s, for the monotone skip at
        // size s.
        let mut disconnecting: Vec<Vec<LinkId>> = Vec::new();
        for s in 1..=k {
            for combo in Combinations::new(links, s) {
                let failed: Vec<LinkId> = combo.into_iter().map(LinkId).collect();
                let by_subset = disconnecting
                    .iter()
                    .any(|d| d.iter().all(|l| failed.contains(l)));
                let disconnected = by_subset || is_cut(&failed);
                if by_subset {
                    *disconnect_pruned += 1;
                } else if disconnected && s < k {
                    disconnecting.push(failed.clone());
                }
                if let ControlFlow::Break(found) = visit(failed, disconnected) {
                    return Some(found);
                }
            }
        }
        None
    }

    /// The one-core sweep: every pair in edge order.
    pub fn verify_failure_sets(
        topo: &Topology,
        technique: DeflectionTechnique,
        protection: &Protection,
        cache: &EncodingCache,
        k: usize,
    ) -> Result<KSweep, KarError> {
        assert!(k >= 1, "a failure sweep needs at least one failure");
        let mut stats = SweepStats::default();
        let mut results = Vec::new();
        let edges = topo.edge_nodes();
        for &src in &edges {
            for &dst in &edges {
                if src == dst {
                    continue;
                }
                let Some(primary) = paths::bfs_shortest_path(topo, src, dst) else {
                    continue;
                };
                let route = cache.encode_with_protection(topo, primary, protection)?;
                let mut pv = PairVerifier::new(topo, route, src, dst, technique);
                let mut cut = CutTest::new(topo, src, dst);
                let is_cut = |failed: &[LinkId]| cut.is_cut(failed);
                let visit = |failed: Vec<LinkId>, disconnected| {
                    if failed.len() == k {
                        stats.cases += 1;
                        results.push(FailureSetResult {
                            src,
                            dst,
                            report: pv.classify(&failed),
                            failed,
                            disconnected,
                        });
                    }
                    ControlFlow::<()>::Continue(())
                };
                let pruned = &mut stats.disconnect_pruned;
                sweep_pair(topo.link_count(), k, pruned, is_cut, visit);
                stats.explored += pv.explored;
                stats.memo_hits += pv.memo_hits;
            }
        }
        Ok(KSweep { results, stats })
    }
}

/// Every ordered edge pair with its AutoFull route, as the sweeps see it.
fn pairs(topo: &Topology) -> Vec<(NodeId, NodeId, EncodedRoute)> {
    let cache = EncodingCache::new();
    let edges = topo.edge_nodes();
    let mut out = Vec::new();
    for &src in &edges {
        for &dst in edges.iter().filter(|&&d| d != src) {
            let primary = paths::bfs_shortest_path(topo, src, dst).expect("connected");
            let route = cache
                .encode_with_protection(topo, primary, &Protection::AutoFull)
                .expect("routes encode");
            out.push((src, dst, route));
        }
    }
    out
}

/// Every failure set of exactly `k` links, lexicographic.
fn sets_of(links: usize, k: usize) -> Vec<Vec<LinkId>> {
    let mut out: Vec<Vec<LinkId>> = vec![Vec::new()];
    for _ in 0..k {
        out = out
            .iter()
            .flat_map(|set| {
                let from = set.last().map_or(0, |l| l.0 + 1);
                (from..links).map(move |l| [set.as_slice(), &[LinkId(l)]].concat())
            })
            .collect();
    }
    out
}

/// Compares the oracle, a fresh explorer (`verify_route`) and one reused
/// explorer per pair on every projection the sweeps of sizes `0..=k`
/// reach — the fix-point `PairVerifier::classify` runs, replayed here on
/// the oracle's `relevant_links`. Returns the explorations compared.
fn compare_projections(topo: &Topology, k: usize) -> usize {
    let mut compared = 0;
    let links = topo.link_count();
    for technique in DeflectionTechnique::ALL {
        for (src, dst, route) in pairs(topo) {
            let mut reused = Explorer::new();
            let mut memo: HashMap<Vec<LinkId>, VerifyReport> = HashMap::new();
            for failed in (0..=k).flat_map(|s| sets_of(links, s)) {
                let mut proj: Vec<LinkId> = Vec::new();
                loop {
                    if !memo.contains_key(&proj) {
                        let set: HashSet<LinkId> = proj.iter().copied().collect();
                        let old = reference::verify_route(topo, &route, src, dst, technique, &set);
                        let fresh = verify_route(topo, &route, src, dst, technique, &set);
                        let warm = reused.explore(
                            topo,
                            &mut &route,
                            src,
                            dst,
                            technique,
                            proj.iter().copied(),
                        );
                        assert_eq!(fresh, old, "{technique} {src}->{dst} under {proj:?}");
                        assert_eq!(
                            warm, old,
                            "{technique} {src}->{dst} under {proj:?} (reused)"
                        );
                        compared += 1;
                        memo.insert(proj.clone(), old);
                    }
                    let relevant = &memo[&proj].relevant_links;
                    let extra: Vec<LinkId> = failed
                        .iter()
                        .copied()
                        .filter(|l| !proj.contains(l) && relevant.binary_search(l).is_ok())
                        .collect();
                    if extra.is_empty() {
                        break;
                    }
                    proj.extend(extra);
                    proj.sort_unstable();
                }
            }
        }
    }
    compared
}

#[test]
fn topo15_reports_equal_the_reference_up_to_k2() {
    let compared = compare_projections(&topo15::build(), 2);
    assert!(compared > 1000, "only {compared} explorations compared");
}

#[test]
fn rnp28_reports_equal_the_reference_up_to_k2() {
    let compared = compare_projections(&rnp28::build(), 2);
    assert!(compared > 7_000, "only {compared} explorations compared");
}

/// Every exploration a `verify-k3` repetition runs, and `None`'s beside.
#[test]
#[ignore = "a k = 3 sweep of rnp28 through the slow reference: run in release"]
fn rnp28_reports_equal_the_reference_at_k3() {
    let compared = compare_projections(&rnp28::build(), 3);
    assert!(compared > 84_000, "only {compared} explorations compared");
}

/// Partitioned routes run the same explorer over `Segmented`'s
/// `Option<NodeId>` keys: ring/16 in 4 domains, every set of at most
/// two links, all four techniques. Each side plans with its own planner
/// (segments are a pure function of `(entry, dst)`).
#[test]
fn partitioned_reports_equal_the_reference_up_to_k2() {
    let topo = gen::ring(16, IdStrategy::SmallestPrimes, LinkParams::default());
    let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
    let hosts = topo.edge_nodes();
    let sets: Vec<HashSet<LinkId>> = (0..=2)
        .flat_map(|s| sets_of(topo.link_count(), s))
        .map(|set| set.into_iter().collect())
        .collect();
    let mut cycles = 0;
    for (src, dst) in [
        (hosts[0], hosts[8]),
        (hosts[3], hosts[14]),
        (hosts[5], hosts[6]),
    ] {
        for technique in DeflectionTechnique::ALL {
            let mut old_planner = Planner::new().with_partition(Arc::clone(&partition));
            let mut new_planner = Planner::new().with_partition(Arc::clone(&partition));
            for failed in &sets {
                let route = Segmented::of(&topo, &mut old_planner, src, dst).unwrap();
                let old = reference::verify_route(&topo, route, src, dst, technique, failed);
                let new = verify_hier_route(&topo, &mut new_planner, src, dst, technique, failed);
                assert_eq!(
                    new.unwrap(),
                    old,
                    "{technique} {src}->{dst} under {failed:?}"
                );
                cycles += usize::from(old.has_cycle);
            }
        }
    }
    assert!(cycles > 0, "the sample reaches the SCC analysis");
}

/// The stale-buffer check: one explorer answers a shuffled sequence of
/// failure sets — large state graphs before small ones, hop-zero
/// blackholes (which return before any buffer is reset) in between, every
/// set twice — exactly as a fresh explorer answers each alone.
#[test]
fn a_reused_explorer_equals_a_fresh_one_on_a_shuffled_sequence() {
    let topo = rnp28::build();
    let links = topo.link_count();
    let mut sets: Vec<Vec<LinkId>> = (0..=2).flat_map(|s| sets_of(links, s)).collect();
    sets.extend(sets_of(links, 3).into_iter().step_by(97));
    sets.extend(sets.clone());
    // Fisher–Yates on a splitmix64 stream.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..sets.len()).rev() {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        sets.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    let all = pairs(&topo);
    for technique in DeflectionTechnique::ALL {
        for (src, dst, route) in all.iter().step_by(61) {
            let mut reused = Explorer::new();
            let mut outcomes = HashSet::new();
            for failed in &sets {
                let set: HashSet<LinkId> = failed.iter().copied().collect();
                let fresh = verify_route(&topo, route, *src, *dst, technique, &set);
                let warm = reused.explore(
                    &topo,
                    &mut &*route,
                    *src,
                    *dst,
                    technique,
                    failed.iter().copied(),
                );
                assert_eq!(warm, fresh, "{technique} {src}->{dst} under {failed:?}");
                outcomes.insert(fresh.outcome);
            }
            assert!(outcomes.len() >= 2, "{technique}: {outcomes:?}");
        }
    }
}

/// `min_failure_set` and `verify_failure_sets` run one sweep loop: the
/// breaking point of a pair is the first connected blackhole or loop of
/// the pair's sweeps, sizes ascending.
#[test]
fn min_failure_set_is_the_first_violation_of_the_sweep() {
    const MAX_K: usize = 3;
    let topo = topo15::build();
    let edges = topo.edge_nodes();
    let mut found = 0;
    for protection in [Protection::None, Protection::AutoFull] {
        for technique in DeflectionTechnique::ALL {
            let cache = EncodingCache::new();
            let sweeps: Vec<_> = (1..=MAX_K)
                .map(|k| verify_failure_sets(&topo, technique, &protection, &cache, k).unwrap())
                .collect();
            for &src in &edges {
                for &dst in edges.iter().filter(|&&d| d != src) {
                    let expected = sweeps.iter().find_map(|sweep| {
                        sweep.results.iter().find(|r| {
                            (r.src, r.dst) == (src, dst)
                                && !r.disconnected
                                && matches!(r.report.outcome, Outcome::Blackhole | Outcome::Loop)
                        })
                    });
                    let got =
                        min_failure_set(&topo, src, dst, technique, &protection, &cache, MAX_K)
                            .unwrap();
                    let label = format!("{technique} {protection:?} {src}->{dst}");
                    match (got, expected) {
                        (None, None) => {}
                        (Some(bp), Some(case)) => {
                            assert_eq!(bp.failed, case.failed, "{label}");
                            assert_eq!(bp.outcome, case.report.outcome, "{label}");
                            assert_eq!(bp.report, case.report, "{label}");
                            found += 1;
                        }
                        (got, expected) => panic!("{label}: {got:?} vs {expected:?}"),
                    }
                }
            }
        }
    }
    assert!(found > 0, "some pair breaks within {MAX_K} failures");
}

/// Sweeps `topo` at `k` through the parallel sweep and the serial oracle
/// — each with its own cache — for every technique under `protections`,
/// and requires whole equality, and every row's verdict to be a plain
/// BFS's. Returns the oracle's summed counters.
fn compare_sweeps(topo: &Topology, k: usize, protections: &[Protection]) -> SweepStats {
    let mut total = SweepStats::default();
    for protection in protections {
        for technique in DeflectionTechnique::ALL {
            let label = format!("{technique} {protection:?} k = {k}");
            let got =
                verify_failure_sets(topo, technique, protection, &EncodingCache::new(), k).unwrap();
            let want =
                serial::verify_failure_sets(topo, technique, protection, &EncodingCache::new(), k)
                    .unwrap();
            assert_same_sweep(&got, &want, &label);
            for r in &got.results {
                let admit = |_, l| !r.failed.contains(&l);
                let cut = paths::bfs_shortest_path_where(topo, r.src, r.dst, admit).is_none();
                assert_eq!(
                    r.disconnected, cut,
                    "{label}: {}->{} {:?}",
                    r.src, r.dst, r.failed
                );
            }
            total += want.stats;
        }
    }
    total
}

fn assert_same_sweep(got: &KSweep, want: &KSweep, label: &str) {
    assert_eq!(got.stats, want.stats, "{label}");
    assert_eq!(got.results.len(), want.results.len(), "{label}");
    for (i, (g, w)) in got.results.iter().zip(&want.results).enumerate() {
        let case = format!("{label}, row {i}: {}->{} {:?}", w.src, w.dst, w.failed);
        assert_eq!((g.src, g.dst), (w.src, w.dst), "{case}");
        assert_eq!(g.failed, w.failed, "{case}");
        assert_eq!(g.disconnected, w.disconnected, "{case}");
        assert_eq!(g.report, w.report, "{case}");
    }
}

const BOTH: [Protection; 2] = [Protection::None, Protection::AutoFull];

#[test]
fn sweep_equals_the_serial_oracle_on_topo15_up_to_k3() {
    let topo = topo15::build();
    for k in 1..=3 {
        let stats = compare_sweeps(&topo, k, &BOTH);
        assert!(stats.explored > 0 && stats.memo_hits > 0, "{stats:?}");
    }
}

#[test]
fn sweep_equals_the_serial_oracle_on_rnp28_at_k2() {
    let stats = compare_sweeps(&rnp28::build(), 2, &[Protection::AutoFull]);
    assert!(stats.disconnect_pruned > 0, "{stats:?}");
}

/// Generated topologies: ring/8, where any two failed ring links split
/// the ring, and the 3 × 3 grid.
#[test]
fn sweep_equals_the_serial_oracle_on_rings_and_grids() {
    let params = LinkParams::default();
    for topo in [
        gen::ring(8, IdStrategy::SmallestPrimes, params),
        gen::grid(3, 3, IdStrategy::SmallestPrimes, params),
    ] {
        compare_sweeps(&topo, 2, &BOTH);
    }
}

/// What a `verify-k3` repetition sweeps, and the other two techniques.
#[test]
#[ignore = "four k = 3 sweeps of rnp28 through the serial oracle: run in release"]
fn sweep_equals_the_serial_oracle_on_rnp28_at_k3() {
    compare_sweeps(&rnp28::build(), 3, &[Protection::AutoFull]);
}
