//! The flat-buffer explorer against the exploration it replaced.
//!
//! `kar::verify` explores every case on one reusable
//! [`kar::verify::Explorer`]: states interned under persistent ids with
//! their residues and a step cache, the failure set and `relevant_links`
//! as link bitmaps, states numbered locally in discovery order, flat
//! successor lists, Tarjan over `u32` arrays. The
//! functions in [`reference`] are `verify_route`, `possible_moves`,
//! `step`, `loop_witness` and `tarjan_sccs` as they were before that —
//! a residue by long division per visited state, a `Vec` per candidate
//! set, `HashSet`/`HashMap` probes, a `Vec` per successor list and per
//! SCC — kept verbatim as the oracle: the whole [`VerifyReport`] must
//! compare equal (`states`, both witnesses, `relevant_links`), not merely
//! the outcome, because the projection memo, the pinned tables and the
//! committed `BENCH_*.json` all sit on those fields.
//!
//! The explorer keeps a state in its technique's canonical form, only
//! what the technique's moves read. The reference therefore maps each
//! state it enters through its own copy of that form
//! (`reference::State::canonical`), so that `states` and the loop
//! witness stay comparable; that map is the one change to the code kept
//! verbatim. [`compare_full_states`] runs the reference on full
//! `(switch, in-port, deflected)` states instead and checks that the
//! canonical graph loses no answer.
//!
//! The buffers and the tables that outlive an exploration are what this
//! design invites getting wrong, so one explorer is also driven through
//! a shuffled sequence of failure sets against a fresh explorer per set,
//! on rnp28 and on a partitioned ring, where the cached hops include
//! boundary re-stamps, and through sets that turn the same switches
//! dirty and clean in turn, so that states alternate between a fresh
//! expansion and their recorded clean list.
//!
//! `verify_failure_sets` sweeps its pairs on every core, one pair per
//! unit of work, and folds each pair's cases as they are classified.
//! [`serial`] is the one-core sweep it replaced, kept verbatim (its
//! `Combinations`, `CutTest` and `sweep_pair` with it) but for the type
//! it returns: its rows, as a [`RowSweep`]. The parallel sweep keeps every row through
//! [`Rows`], a [`PairFold`] that collects them: every row's pair,
//! failure set, verdict and report, and all four counters, must compare
//! equal, on topo15, rnp28, a ring and a grid. Every row's disconnection
//! verdict is also checked against a plain search that shares no code
//! with either `CutTest`. Within a pair, rows share one `Arc` per
//! distinct report: on rnp28 at k = 2 the held reports are counted
//! against the distinct answers. The production fold, `PairSweep`,
//! must hold what the oracle's rows fold to by hand: each pair's
//! summary, per-link blackhole and loop counts, and first violations.
//!
//! `kar::analysis` asks the same move relation where a deflected packet
//! goes, so its answers must be ones the verifier allows: on every
//! primary core-link failure of topo15, rnp28, ring/8 and the 3 × 3
//! grid, full coverage is `Delivered`, no candidate is a `Blackhole`,
//! and a driven walk's end is an end the report can reach.
//!
//! `check_trajectory` and `check_trajectory_from` search the relation
//! once and walk the explorer's graph. [`reference_check_trajectory`]
//! and [`reference_check_trajectory_from`] are the NFA they replaced,
//! kept verbatim but on the [`reference`] move relation: on every pair
//! of topo15, rnp28 and a two-host triangle, every technique and every
//! failure set of at most one link, both must accept or both reject
//! each simulated journey, each of its one-hop mutations, and each of
//! its suffixes from a core switch.

use kar::analysis::{driven_walk_from, failure_coverage, DrivenOutcome};
use kar::protection::encode_with_protection;
use kar::verify::{
    check_trajectory, check_trajectory_from, fold_failure_sets, min_failure_set,
    verify_failure_sets, ActiveRoute, Explorer, FailureSetResult, Outcome, PairFold, TrajectoryEnd,
    VerifyReport, VerifySummary, OFFENDERS,
};
use kar::{
    verify_hier_route, verify_route, DeflectionTechnique, EncodeRequest, EncodedRoute,
    EncodingCache, KarNetwork, Planner, Protection, ReroutePolicy, Segmented, SweepStats,
};
use kar_rns::IdStrategy;
use kar_simnet::{DropReason, FlowId, PacketFate, PacketKind, SimTime};
use kar_topology::{
    gen, paths, rnp28, topo15, LinkId, LinkParams, NodeId, Partition, PortIx, Topology,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

mod reference {
    use super::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub(super) struct State {
        pub(super) node: NodeId,
        pub(super) in_port: PortIx,
        pub(super) deflected: bool,
    }

    impl State {
        /// Only what `technique`'s moves read, the rest `PortIx::MAX` and
        /// `false`: HP keeps the deflected bit, NIP the input port, AVP
        /// and `None` only the switch.
        pub(super) fn canonical(self, technique: DeflectionTechnique) -> State {
            let (port, bit) = match technique {
                DeflectionTechnique::HotPotato => (false, true),
                DeflectionTechnique::None | DeflectionTechnique::Avp => (false, false),
                DeflectionTechnique::Nip => (true, false),
            };
            State {
                node: self.node,
                in_port: if port { self.in_port } else { PortIx::MAX },
                deflected: bit && self.deflected,
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Terminal {
        Delivered,
        WrongEdge(NodeId),
        Drop,
    }

    /// All moves the technique allows from one state. Mirrors
    /// [`crate::KarForwarder`]: residue first, then the deflection candidate
    /// set (core-facing ports preferred for AVP/NIP, input port excluded for
    /// NIP, unrestricted for hot-potato's random walk).
    pub(super) fn possible_moves(
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
    pub(super) fn step<A: ActiveRoute>(
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

    /// Exhaustively classifies one route under one failure set, on
    /// states [`State::canonical`] for `technique` — what `kar::verify`
    /// explores.
    pub fn verify_route<A: ActiveRoute>(
        topo: &Topology,
        active: A,
        src: NodeId,
        dst: NodeId,
        technique: DeflectionTechnique,
        failed: &HashSet<LinkId>,
    ) -> VerifyReport {
        let canonical = |s: State| s.canonical(technique);
        explore(topo, active, src, dst, technique, failed, canonical).0
    }

    /// Exhaustively classifies one route under one failure set, on the
    /// states `canon` makes of each full `(switch, in-port, deflected)`
    /// state entered, and returns those states with the report.
    ///
    /// `src`/`dst` are the ingress and destination edges; the packet enters
    /// the core through the ingress route's `uplink` exactly as the edge
    /// logic would send it.
    pub fn explore<A: ActiveRoute>(
        topo: &Topology,
        mut active: A,
        src: NodeId,
        dst: NodeId,
        technique: DeflectionTechnique,
        failed: &HashSet<LinkId>,
        canon: impl Fn(State) -> State,
    ) -> (VerifyReport, Vec<(A::Key, State)>) {
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
            return (report, Vec::new());
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
        let initial = (active.ingress(), canon(initial));

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
                            Ok((key, next)) => {
                                let next = (key, canon(next));
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
        (report, states)
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

/// A sweep as rows: one [`FailureSetResult`] per `(pair, failure set)`
/// case, pairs in edge order, sets lexicographic, and the counters.
pub struct RowSweep {
    pub results: Vec<FailureSetResult>,
    pub stats: SweepStats,
}

/// The row collector: a [`PairFold`] that keeps every case of its pair.
struct Rows {
    src: NodeId,
    dst: NodeId,
    rows: Vec<FailureSetResult>,
}

impl PairFold for Rows {
    fn new(src: NodeId, dst: NodeId, _links: usize) -> Self {
        Rows {
            src,
            dst,
            rows: Vec::new(),
        }
    }

    fn case(&mut self, failed: &[LinkId], disconnected: bool, report: &Arc<VerifyReport>) {
        self.rows.push(FailureSetResult {
            src: self.src,
            dst: self.dst,
            failed: failed.into(),
            disconnected,
            report: Arc::clone(report),
        });
    }
}

/// The parallel sweep with every row kept.
fn row_sweep(
    topo: &Topology,
    technique: DeflectionTechnique,
    protection: &Protection,
    cache: &EncodingCache,
    k: usize,
) -> RowSweep {
    let mut sweep = RowSweep {
        results: Vec::new(),
        stats: SweepStats::default(),
    };
    for (pair, stats) in fold_failure_sets::<Rows>(topo, technique, protection, cache, k).unwrap() {
        sweep.results.extend(pair.rows);
        sweep.stats += stats;
    }
    sweep
}

mod serial {
    use super::RowSweep;
    use kar::{
        DeflectionTechnique, EncodingCache, FailureSetResult, KarError, PairVerifier, Protection,
        SweepStats,
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
    ) -> Result<RowSweep, KarError> {
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
                            failed: failed.into(),
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
        Ok(RowSweep { results, stats })
    }
}

/// `check_trajectory` as it was before it walked the explorer's graph,
/// kept as the oracle: an NFA over the [`reference`] move relation that
/// keeps every `(route key, state)` consistent with the observed prefix
/// and demands at least one of them explains each next hop — and, at the
/// end, the claimed fate.
#[allow(clippy::too_many_arguments)]
fn reference_check_trajectory<A: ActiveRoute>(
    topo: &Topology,
    active: A,
    src: NodeId,
    dst: NodeId,
    technique: DeflectionTechnique,
    failed: &HashSet<LinkId>,
    path: &[NodeId],
    end: TrajectoryEnd,
) -> Result<(), String> {
    if path.first() != Some(&src) {
        return Err(format!("path must start at src {src:?}, got {path:?}"));
    }
    let uplink = topo.node(src).ports[active.route(active.ingress()).uplink as usize];
    if failed.contains(&uplink) {
        // The edge transmits blindly into its dead uplink: the packet
        // dies on hop zero, whatever the technique.
        return if path.len() == 1
            && matches!(end, TrajectoryEnd::ForcedDrop | TrajectoryEnd::Truncated)
        {
            Ok(())
        } else {
            Err(format!(
                "uplink is failed: expected a hop-zero drop, got {path:?} ending {end:?}"
            ))
        };
    }
    if path.len() == 1 {
        return if end == TrajectoryEnd::Truncated {
            Ok(())
        } else {
            Err(format!("one-node path cannot end {end:?}"))
        };
    }
    let first = topo.link(uplink).peer_of(src);
    if path[1] != first {
        return Err(format!(
            "first hop must follow the uplink to {first:?}, got {:?}",
            path[1]
        ));
    }
    let frontier = vec![reference::State {
        node: first,
        in_port: topo.link(uplink).port_on(first),
        deflected: false,
    }];
    reference_walk_frontier(topo, active, dst, technique, failed, frontier, path, 2, end)
}

/// `check_trajectory_from` as it was before it walked the explorer's
/// graph: the same NFA, seeded at `path[0]` with the given input port and
/// deflection flag.
#[allow(clippy::too_many_arguments)]
fn reference_check_trajectory_from(
    topo: &Topology,
    route: &EncodedRoute,
    dst: NodeId,
    technique: DeflectionTechnique,
    failed: &HashSet<LinkId>,
    in_port: PortIx,
    deflected: bool,
    path: &[NodeId],
    end: TrajectoryEnd,
) -> Result<(), String> {
    let Some(&start) = path.first() else {
        return Err("suffix path must contain its starting switch".into());
    };
    if topo.switch_id(start).is_none() {
        return Err(format!("suffix must start at a core switch, got {start:?}"));
    }
    if (in_port as usize) >= topo.node(start).ports.len() {
        return Err(format!(
            "in_port {in_port} out of range at {start:?} ({} ports)",
            topo.node(start).ports.len()
        ));
    }
    let frontier = vec![reference::State {
        node: start,
        in_port,
        deflected,
    }];
    reference_walk_frontier(topo, route, dst, technique, failed, frontier, path, 1, end)
}

/// The shared NFA walk: advances `frontier` along `path[skip..]`,
/// demanding every observed hop (and the claimed end) is explained by
/// at least one consistent `(switch, in-port, deflected)` state.
#[allow(clippy::too_many_arguments)]
fn reference_walk_frontier<A: ActiveRoute>(
    topo: &Topology,
    mut active: A,
    dst: NodeId,
    technique: DeflectionTechnique,
    failed: &HashSet<LinkId>,
    frontier: Vec<reference::State>,
    path: &[NodeId],
    skip: usize,
    end: TrajectoryEnd,
) -> Result<(), String> {
    use reference::{possible_moves, step, State, Terminal};
    let mut frontier: Vec<_> = frontier.iter().map(|&s| (active.ingress(), s)).collect();
    let mut terminal: Option<Terminal> = None;
    for (i, &next) in path.iter().enumerate().skip(skip) {
        if terminal.is_some() {
            return Err(format!("path continues past an edge at hop {}", i - 1));
        }
        let next_is_core = topo.switch_id(next).is_some();
        let mut new_frontier: Vec<(A::Key, State)> = Vec::new();
        let mut reached_terminal = None;
        for &(key, s) in &frontier {
            let moves = possible_moves(topo, active.route(key), technique, failed, s);
            for mv in moves.unwrap_or_default() {
                match step(topo, &mut active, dst, (key, s), mv) {
                    Ok(ns) => {
                        if next_is_core && ns.1.node == next && !new_frontier.contains(&ns) {
                            new_frontier.push(ns);
                        }
                    }
                    Err(t) => {
                        let lands = match t {
                            Terminal::Delivered => dst,
                            Terminal::WrongEdge(e) => e,
                            Terminal::Drop => unreachable!("step never drops"),
                        };
                        if !next_is_core && lands == next {
                            reached_terminal = Some(t);
                        }
                    }
                }
            }
        }
        if next_is_core {
            if new_frontier.is_empty() {
                return Err(format!(
                    "no move of {technique} explains hop {:?} -> {next:?} (index {i})",
                    path[i - 1]
                ));
            }
            frontier = new_frontier;
        } else {
            let Some(t) = reached_terminal else {
                return Err(format!(
                    "no move of {technique} surfaces at edge {next:?} (index {i})"
                ));
            };
            terminal = Some(t);
        }
    }
    match end {
        TrajectoryEnd::Delivered => match terminal {
            Some(Terminal::Delivered) => Ok(()),
            _ => Err(format!("claimed delivered, path ends {:?}", path.last())),
        },
        TrajectoryEnd::WrongEdge => match terminal {
            Some(Terminal::WrongEdge(_)) => Ok(()),
            _ => Err(format!("claimed wrong-edge, path ends {:?}", path.last())),
        },
        TrajectoryEnd::ForcedDrop => {
            if terminal.is_some() {
                return Err("claimed a forced drop but the path ends at an edge".into());
            }
            let must_drop = |&(key, s): &(A::Key, State)| {
                possible_moves(topo, active.route(key), technique, failed, s).is_err()
            };
            if frontier.iter().any(must_drop) {
                Ok(())
            } else {
                Err(format!(
                    "claimed a forced drop at {:?} but every consistent state can move",
                    path.last()
                ))
            }
        }
        TrajectoryEnd::TtlExpired | TrajectoryEnd::Truncated => {
            if terminal.is_some() {
                Err(format!("claimed {end:?} but the path ends at an edge"))
            } else {
                Ok(())
            }
        }
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

/// Calls `explore` on every projection the sweeps of sizes `0..=k` reach
/// for one pair — the fix-point `PairVerifier::classify` runs, replayed
/// on the `relevant_links` that `explore` returns for each.
fn each_projection(links: usize, k: usize, mut explore: impl FnMut(&[LinkId]) -> Vec<LinkId>) {
    let mut memo: HashMap<Vec<LinkId>, Vec<LinkId>> = HashMap::new();
    for failed in (0..=k).flat_map(|s| sets_of(links, s)) {
        let mut proj: Vec<LinkId> = Vec::new();
        loop {
            if !memo.contains_key(&proj) {
                let relevant = explore(&proj);
                memo.insert(proj.clone(), relevant);
            }
            let relevant = &memo[&proj];
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

/// Compares the oracle, a fresh explorer (`verify_route`) and one reused
/// explorer per pair on every projection the sweeps of sizes `0..=k`
/// reach. Returns the explorations compared.
fn compare_projections(topo: &Topology, k: usize) -> usize {
    let mut compared = 0;
    for technique in DeflectionTechnique::ALL {
        for (src, dst, route) in pairs(topo) {
            let mut reused = Explorer::new();
            each_projection(topo.link_count(), k, |proj| {
                let set: HashSet<LinkId> = proj.iter().copied().collect();
                let old = reference::verify_route(topo, &route, src, dst, technique, &set);
                let fresh = verify_route(topo, &route, src, dst, technique, &set);
                let links = proj.iter().copied();
                let warm = reused.explore(topo, &mut &route, src, dst, technique, links);
                assert_eq!(fresh, old, "{technique} {src}->{dst} under {proj:?}");
                assert_eq!(
                    warm, old,
                    "{technique} {src}->{dst} under {proj:?} (reused)"
                );
                compared += 1;
                old.relevant_links
            });
        }
    }
    compared
}

/// The explorer keeps only what a technique reads of a state — HP
/// forgets the input port, AVP and `None` keep only the switch, NIP
/// forgets the deflected bit — so it explores a quotient of the full
/// `(switch, in-port, deflected)` states. Against the reference on full
/// states, on every projection the sweeps of sizes `0..=k` reach, every
/// report field must be equal but two: `states` counts the distinct
/// canonical images of the full states, and a `Loop` may name another
/// cycle, still one of adjacent switches over links that are up. Returns
/// the explorations compared and how many of them the quotient shrank.
fn compare_full_states(topo: &Topology, k: usize) -> (usize, usize) {
    let (mut compared, mut shrunk) = (0, 0);
    for technique in DeflectionTechnique::ALL {
        for (src, dst, route) in pairs(topo) {
            let mut explorer = Explorer::new();
            each_projection(topo.link_count(), k, |proj| {
                let set: HashSet<LinkId> = proj.iter().copied().collect();
                let (full, states) =
                    reference::explore(topo, &route, src, dst, technique, &set, |s| s);
                let links = proj.iter().copied();
                let got = explorer.explore(topo, &mut &route, src, dst, technique, links);
                let case = format!("{technique} {src}->{dst} under {proj:?}");
                let flags = |r: &VerifyReport| {
                    let can = (r.can_deliver, r.can_wrong_edge, r.can_blackhole);
                    (r.outcome, can, r.has_cycle)
                };
                assert_eq!(flags(&got), flags(&full), "{case}");
                assert_eq!(got.relevant_links, full.relevant_links, "{case}");
                assert_eq!(got.blackhole_witness, full.blackhole_witness, "{case}");
                let images: HashSet<_> = states
                    .iter()
                    .map(|&(key, s)| (key, s.canonical(technique)))
                    .collect();
                assert_eq!(got.states, images.len(), "{case}");
                let is_loop = |r: &VerifyReport| r.loop_witness.is_some();
                assert_eq!(is_loop(&got), is_loop(&full), "{case}");
                if let Some(cycle) = &got.loop_witness {
                    for (i, &at) in cycle.iter().enumerate() {
                        let next = cycle[(i + 1) % cycle.len()];
                        let port = topo.port_towards(at, next);
                        let link = port.map(|p| topo.node(at).ports[p as usize]);
                        assert!(
                            link.is_some_and(|l| !set.contains(&l)),
                            "{case}: {cycle:?} is not a cycle over links that are up"
                        );
                    }
                }
                compared += 1;
                shrunk += usize::from(got.states < full.states);
                full.relevant_links
            });
        }
    }
    (compared, shrunk)
}

#[test]
fn canonical_states_lose_nothing() {
    for (name, topo, at_least) in [
        ("topo15", topo15::build(), 1_000),
        ("rnp28", rnp28::build(), 7_000),
    ] {
        let (compared, shrunk) = compare_full_states(&topo, 2);
        assert!(
            compared > at_least,
            "{name}: only {compared} explorations compared"
        );
        assert!(shrunk > 0, "{name}: the quotient shrinks no graph");
    }
}

/// The same on every exploration a `verify-k3` repetition runs, and
/// `None`'s beside.
#[test]
#[ignore = "a k = 3 sweep of rnp28 through the slow reference: run in release"]
fn canonical_states_lose_nothing_on_rnp28_at_k3() {
    let (compared, _) = compare_full_states(&rnp28::build(), 3);
    assert!(compared > 84_000, "only {compared} explorations compared");
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

/// Every set of at most two links and every 97th of three, each twice,
/// in a fixed shuffled order (Fisher–Yates on a splitmix64 stream).
fn shuffled_sets(links: usize) -> Vec<Vec<LinkId>> {
    let mut sets: Vec<Vec<LinkId>> = (0..=2).flat_map(|s| sets_of(links, s)).collect();
    sets.extend(sets_of(links, 3).into_iter().step_by(97));
    sets.extend(sets.clone());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..sets.len()).rev() {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        sets.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    sets
}

/// The stale-buffer check: one explorer answers a shuffled sequence of
/// failure sets — large state graphs before small ones, hop-zero
/// blackholes (which return before any buffer is reset) in between, every
/// set twice — exactly as a fresh explorer answers each alone.
#[test]
fn a_reused_explorer_equals_a_fresh_one_on_a_shuffled_sequence() {
    let topo = rnp28::build();
    let sets = shuffled_sets(topo.link_count());
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

/// The same check on partitioned routes: one `Explorer<Option<NodeId>>`
/// over one `Segmented` answers the shuffled sequence on ring/16 in 4
/// domains, where its step cache holds re-stamped hops across
/// explorations and a re-stamp consults the planner's segment memo.
/// Every warm report must equal a fresh `verify_hier_route` on a planner
/// of its own.
#[test]
fn a_reused_explorer_on_partitioned_routes_equals_a_fresh_one() {
    let topo = gen::ring(16, IdStrategy::SmallestPrimes, LinkParams::default());
    let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
    let sets = shuffled_sets(topo.link_count());
    let hosts = topo.edge_nodes();
    let mut cycles = 0;
    for (src, dst) in [
        (hosts[0], hosts[8]),
        (hosts[3], hosts[14]),
        (hosts[5], hosts[6]),
    ] {
        for technique in DeflectionTechnique::ALL {
            let mut warm_planner = Planner::new().with_partition(Arc::clone(&partition));
            let mut fresh_planner = Planner::new().with_partition(Arc::clone(&partition));
            let mut route = Segmented::of(&topo, &mut warm_planner, src, dst).unwrap();
            let mut reused = Explorer::new();
            for failed in &sets {
                let set: HashSet<LinkId> = failed.iter().copied().collect();
                let fresh = verify_hier_route(&topo, &mut fresh_planner, src, dst, technique, &set)
                    .unwrap();
                let warm = reused.explore(
                    &topo,
                    &mut route,
                    src,
                    dst,
                    technique,
                    failed.iter().copied(),
                );
                assert_eq!(warm, fresh, "{technique} {src}->{dst} under {failed:?}");
                cycles += usize::from(fresh.has_cycle);
            }
        }
    }
    assert!(cycles > 0, "the sample reaches the SCC analysis");
}

/// Drives one explorer through sets under which the same states
/// alternate between clean and dirty: for each port of the ingress
/// switch but the uplink, a set failing that port, a set touching no
/// switch the intact route reaches (empty when every link is relevant),
/// then the first set again. Every report must equal `fresh`'s. Returns
/// whether the second set was non-empty.
fn alternate_clean_and_dirty<A: ActiveRoute>(
    topo: &Topology,
    active: &mut A,
    (src, dst): (NodeId, NodeId),
    technique: DeflectionTechnique,
    mut fresh: impl FnMut(&HashSet<LinkId>) -> VerifyReport,
) -> bool {
    let uplink = topo.node(src).ports[active.route(active.ingress()).uplink as usize];
    let ingress = topo.link(uplink).peer_of(src);
    let relevant = fresh(&HashSet::new()).relevant_links;
    let far: Vec<LinkId> = (0..topo.link_count())
        .map(LinkId)
        .find(|l| relevant.binary_search(l).is_err())
        .into_iter()
        .collect();
    let mut reused = Explorer::new();
    for &port in topo.node(ingress).ports.iter().filter(|&&l| l != uplink) {
        for set in [vec![port], far.clone(), vec![port]] {
            let want = fresh(&set.iter().copied().collect());
            let got = reused.explore(topo, active, src, dst, technique, set.iter().copied());
            assert_eq!(got, want, "{technique} {src}->{dst} under {set:?}");
        }
    }
    !far.is_empty()
}

/// The clean-list check: a state at a switch no failed link touches is
/// expanded from the list its earlier clean expansion recorded, any other
/// state afresh. One explorer per pair and technique alternates the same
/// states between the two (`alternate_clean_and_dirty`) — every rnp28
/// pair, and `Segmented` routes on ring/16 in 4 domains, where the lists
/// hold re-stamped successors.
#[test]
fn a_reused_explorer_alternating_clean_and_dirty_switches_equals_fresh_ones() {
    const DEFLECTING: [DeflectionTechnique; 3] = [
        DeflectionTechnique::HotPotato,
        DeflectionTechnique::Avp,
        DeflectionTechnique::Nip,
    ];
    let topo = rnp28::build();
    let mut far_sets = 0;
    for technique in DEFLECTING {
        for (src, dst, route) in pairs(&topo) {
            let fresh =
                |set: &HashSet<LinkId>| verify_route(&topo, &route, src, dst, technique, set);
            let mut active = &route;
            far_sets += usize::from(alternate_clean_and_dirty(
                &topo,
                &mut active,
                (src, dst),
                technique,
                fresh,
            ));
        }
    }
    assert!(far_sets > 0, "some rnp28 route leaves a link untouched");

    let topo = gen::ring(16, IdStrategy::SmallestPrimes, LinkParams::default());
    let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
    let hosts = topo.edge_nodes();
    for (src, dst) in [
        (hosts[0], hosts[8]),
        (hosts[3], hosts[14]),
        (hosts[5], hosts[6]),
    ] {
        for technique in DEFLECTING {
            let mut warm_planner = Planner::new().with_partition(Arc::clone(&partition));
            let mut fresh_planner = Planner::new().with_partition(Arc::clone(&partition));
            let mut route = Segmented::of(&topo, &mut warm_planner, src, dst).unwrap();
            let fresh = |set: &HashSet<LinkId>| {
                verify_hier_route(&topo, &mut fresh_planner, src, dst, technique, set).unwrap()
            };
            alternate_clean_and_dirty(&topo, &mut route, (src, dst), technique, fresh);
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
                .map(|k| row_sweep(&topo, technique, &protection, &cache, k))
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
                            assert_eq!(bp.failed, *case.failed, "{label}");
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
            let got = row_sweep(topo, technique, protection, &EncodingCache::new(), k);
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

fn assert_same_sweep(got: &RowSweep, want: &RowSweep, label: &str) {
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

/// A sweep keeps one report per distinct answer: within each pair's
/// rows, two rows hold the same `Arc` exactly when their reports are
/// equal, and every row still equals the serial oracle's. rnp28, k = 2,
/// AutoFull: HP explores 2 600 projections, AVP 1 898 and NIP 2 118;
/// summed over the 12 pairs, 124, 369 and 769 of their reports differ
/// (158, 417 and 775 while `states` counted full states: reports that
/// differed only there are one answer now).
#[test]
fn rnp28_k2_rows_hold_one_report_per_distinct_answer() {
    let topo = rnp28::build();
    let mut distinct = Vec::new();
    for technique in [
        DeflectionTechnique::HotPotato,
        DeflectionTechnique::Avp,
        DeflectionTechnique::Nip,
    ] {
        let protection = Protection::AutoFull;
        let label = format!("{technique} {protection:?} k = 2");
        let got = row_sweep(&topo, technique, &protection, &EncodingCache::new(), 2);
        let want =
            serial::verify_failure_sets(&topo, technique, &protection, &EncodingCache::new(), 2)
                .unwrap();
        assert_same_sweep(&got, &want, &label);
        // Rows come in pair order, so each pair's rows are one run.
        let mut answers_total = 0;
        for rows in got
            .results
            .chunk_by(|a, b| (a.src, a.dst) == (b.src, b.dst))
        {
            let held: HashSet<*const VerifyReport> =
                rows.iter().map(|r| Arc::as_ptr(&r.report)).collect();
            let answers: HashSet<&VerifyReport> = rows.iter().map(|r| &*r.report).collect();
            assert_eq!(
                held.len(),
                answers.len(),
                "{label}: {}->{} holds {} reports for {} distinct answers",
                rows[0].src,
                rows[0].dst,
                held.len(),
                answers.len()
            );
            answers_total += answers.len();
        }
        distinct.push(answers_total);
    }
    assert_eq!(
        distinct,
        [124, 369, 769],
        "distinct reports of HP, AVP, NIP"
    );
}

/// Sweeps `topo` at `k` through `verify_failure_sets` and the serial
/// oracle for every technique under `protections`, and requires each
/// `PairSweep` to hold what the pair's oracle rows fold to by hand: the
/// summary, per-link blackhole and loop counts, the first `OFFENDERS`
/// connected violations, and the counters. Returns how many pairs had
/// more violations than they keep.
fn compare_folds(topo: &Topology, k: usize, protections: &[Protection]) -> usize {
    let mut truncated = 0;
    for protection in protections {
        for technique in DeflectionTechnique::ALL {
            let label = format!("{technique} {protection:?} k = {k}");
            let got =
                verify_failure_sets(topo, technique, protection, &EncodingCache::new(), k).unwrap();
            let want =
                serial::verify_failure_sets(topo, technique, protection, &EncodingCache::new(), k)
                    .unwrap();
            assert_eq!(got.stats, want.stats, "{label}");
            let pairs: Vec<&[FailureSetResult]> = want
                .results
                .chunk_by(|a, b| (a.src, a.dst) == (b.src, b.dst))
                .collect();
            assert_eq!(got.results.len(), pairs.len(), "{label}");
            let mut stats = SweepStats::default();
            for (pair, rows) in got.results.iter().zip(pairs) {
                let case = format!("{label}: {}->{}", rows[0].src, rows[0].dst);
                assert_eq!((pair.src, pair.dst), (rows[0].src, rows[0].dst), "{case}");
                let mut summary = VerifySummary::default();
                let mut blackholes = vec![0; topo.link_count()];
                let mut loops = vec![0; topo.link_count()];
                for r in rows {
                    summary.record(r.report.outcome, r.disconnected);
                    let per_link = match r.report.outcome {
                        Outcome::Blackhole => &mut blackholes,
                        Outcome::Loop => &mut loops,
                        _ => continue,
                    };
                    for l in r.failed.iter() {
                        per_link[l.0] += 1;
                    }
                }
                let offenders: Vec<&FailureSetResult> = rows
                    .iter()
                    .filter(|r| !r.disconnected)
                    .filter(|r| matches!(r.report.outcome, Outcome::Blackhole | Outcome::Loop))
                    .take(OFFENDERS)
                    .collect();
                assert_eq!(pair.summary, summary, "{case}");
                assert_eq!(pair.blackholes, blackholes, "{case}");
                assert_eq!(pair.loops, loops, "{case}");
                assert_eq!(pair.stats.cases, rows.len(), "{case}");
                assert_eq!(pair.offenders.len(), offenders.len(), "{case}");
                for (g, w) in pair.offenders.iter().zip(offenders) {
                    let case = format!("{case} {:?}", w.failed);
                    assert_eq!((g.src, g.dst), (w.src, w.dst), "{case}");
                    assert_eq!(g.failed, w.failed, "{case}");
                    assert_eq!(g.disconnected, w.disconnected, "{case}");
                    assert_eq!(g.report, w.report, "{case}");
                }
                truncated += usize::from(summary.violations > OFFENDERS);
                stats += pair.stats;
            }
            assert_eq!(stats, got.stats, "{label}: the pairs' counters add up");
        }
    }
    truncated
}

/// What a sweep keeps instead of rows is what the rows fold to: topo15
/// up to k = 3 (where pairs without protection have more violations
/// than they keep) and rnp28 at k = 2.
#[test]
fn pair_sweeps_hold_the_oracle_rows_folded() {
    let topo = topo15::build();
    let truncated: usize = (1..=3).map(|k| compare_folds(&topo, k, &BOTH)).sum();
    assert!(
        truncated > 0,
        "some pair keeps only its first {OFFENDERS} violations"
    );
    compare_folds(&rnp28::build(), 2, &[Protection::AutoFull]);
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

/// What `kar::analysis` says about one failure, and what the verifier
/// says: `(cases, full, host, wrong)` counts every primary core link of
/// every ordered edge pair under `None` and `AutoFull`, the cases whose
/// candidates are all driven (and not empty), the cases where NIP
/// deflects into a host because no core-facing port is left (a ring's
/// middle switch), and the candidates whose driven walk surfaces at a
/// wrong edge.
///
/// Coverage is a lower bound on delivery, so a full one must be
/// `Delivered` under NIP. No candidate means the deflecting switch has no
/// healthy port but its input, so the packet the primary path brings
/// there must be dropped: `Blackhole`, never a `WrongEdge` through a host
/// port the analysis overlooked. A walk from a candidate is one
/// trajectory of the relation, so its end is one the verifier allows.
fn coverage_against_the_verifier(topo: &Topology) -> (usize, usize, usize, usize) {
    let (mut cases, mut full, mut host, mut wrong) = (0, 0, 0, 0);
    let edges = topo.edge_nodes();
    for &src in &edges {
        for &dst in edges.iter().filter(|&&d| d != src) {
            let primary = paths::bfs_shortest_path(topo, src, dst).expect("connected");
            let core_links: Vec<LinkId> = paths::links_along(topo, &primary)
                .expect("a path")
                .into_iter()
                .filter(|&l| {
                    let link = topo.link(l);
                    topo.switch_id(link.a).is_some() && topo.switch_id(link.b).is_some()
                })
                .collect();
            for protection in &BOTH {
                let route = encode_with_protection(topo, primary.clone(), protection)
                    .expect("routes encode");
                for &link in &core_links {
                    let cov = failure_coverage(topo, &route, &primary, link, dst);
                    let failed: HashSet<LinkId> = [link].into_iter().collect();
                    let report =
                        verify_route(topo, &route, src, dst, DeflectionTechnique::Nip, &failed);
                    let label = format!("{src}->{dst} {protection:?} without {link:?}: {cov:?}");
                    cases += 1;
                    if cov.candidates.is_empty() {
                        assert_eq!(report.outcome, Outcome::Blackhole, "{label}");
                    } else if cov.fraction() == 1.0 {
                        full += 1;
                        assert_eq!(report.outcome, Outcome::Delivered, "{label}");
                    }
                    if cov.candidates.iter().any(|&c| topo.switch_id(c).is_none()) {
                        host += 1;
                    }
                    for &c in &cov.candidates {
                        let from = Some(cov.deflecting_switch);
                        match driven_walk_from(topo, &route, c, from, dst, &failed) {
                            DrivenOutcome::Reached { .. } => assert!(report.can_deliver, "{label}"),
                            DrivenOutcome::WrongEdge { .. } => {
                                wrong += 1;
                                assert!(report.can_wrong_edge, "{label}");
                            }
                            DrivenOutcome::Loop { .. } => assert!(report.has_cycle, "{label}"),
                            DrivenOutcome::InvalidPort { .. } => {}
                        }
                    }
                }
            }
        }
    }
    (cases, full, host, wrong)
}

#[test]
fn analysis_agrees_with_the_verifier_on_single_failures() {
    let params = LinkParams::default();
    for (name, topo, want) in [
        ("topo15", topo15::build(), (32, 18, 0, 0)),
        ("rnp28", rnp28::build(), (64, 23, 0, 0)),
        (
            "ring/8",
            gen::ring(8, IdStrategy::SmallestPrimes, params),
            (256, 94, 144, 162),
        ),
        (
            "grid 3x3",
            gen::grid(3, 3, IdStrategy::SmallestPrimes, params),
            (64, 28, 8, 8),
        ),
    ] {
        assert_eq!(coverage_against_the_verifier(&topo), want, "{name}");
    }
}

/// How the simulator's record of a packet's fate reads as a claimed end.
fn fate_to_end(fate: &PacketFate) -> TrajectoryEnd {
    match fate {
        PacketFate::Delivered => TrajectoryEnd::Delivered,
        PacketFate::Dropped(DropReason::Misdelivery) => TrajectoryEnd::WrongEdge,
        PacketFate::Dropped(
            DropReason::PortDown | DropReason::NoRoute | DropReason::ResidueOutOfRange,
        ) => TrajectoryEnd::ForcedDrop,
        PacketFate::Dropped(DropReason::TtlExpired) => TrajectoryEnd::TtlExpired,
        PacketFate::Dropped(_) | PacketFate::InFlight | PacketFate::TruncatedAtSimEnd => {
            TrajectoryEnd::Truncated
        }
    }
}

/// The route the network encodes for `src → dst` under full protection,
/// and the distinct journeys its simulator records for a few probes
/// under `failed` (links down from time zero; a misdelivered packet ends
/// at the wrong edge).
fn simulated_traces(
    topo: &Topology,
    technique: DeflectionTechnique,
    (src, dst): (NodeId, NodeId),
    failed: &[LinkId],
) -> (EncodedRoute, Vec<(Vec<NodeId>, TrajectoryEnd)>) {
    let mut net = KarNetwork::builder(topo, technique)
        .seed(src.0 as u64 * 1_000 + dst.0 as u64)
        .ttl(64)
        .tracing()
        .reroute(ReroutePolicy::Drop)
        .build();
    let request = EncodeRequest::new(src, dst).with_protection(Protection::AutoFull);
    let route = net.encode(&request).expect("routes encode").route;
    let mut sim = net.into_sim();
    for &l in failed {
        sim.schedule_link_down(SimTime::ZERO, l);
    }
    for i in 0..4 {
        sim.run_until(SimTime(i * 500_000));
        sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 500);
    }
    sim.run_to_quiescence();
    let mut traces = Vec::new();
    for (_, trace) in sim.trace().iter() {
        let journey = (trace.path.clone(), fate_to_end(&trace.fate));
        if !traces.contains(&journey) {
            traces.push(journey);
        }
    }
    (route, traces)
}

/// The end a path that stops at `last` claims when nothing else is known:
/// delivered or wrong edge at an edge node, truncated at a switch.
fn implied_end(topo: &Topology, dst: NodeId, last: NodeId) -> TrajectoryEnd {
    if topo.switch_id(last).is_some() {
        TrajectoryEnd::Truncated
    } else if last == dst {
        TrajectoryEnd::Delivered
    } else {
        TrajectoryEnd::WrongEdge
    }
}

/// A recorded journey and its one-hop mutations: every other claimed
/// end; each hop swapped for another neighbour of the node before it —
/// once keeping the rest of the path and its end, once cut right after
/// the swapped hop with the end that hop implies; and, for a journey
/// that surfaces at an edge, every other edge of the topology in its
/// place (on topologies with one host per switch this is the only
/// mutation that names a host the last switch could not reach).
fn mutations(
    topo: &Topology,
    dst: NodeId,
    (path, end): (Vec<NodeId>, TrajectoryEnd),
) -> Vec<(Vec<NodeId>, TrajectoryEnd)> {
    const ENDS: [TrajectoryEnd; 5] = [
        TrajectoryEnd::Delivered,
        TrajectoryEnd::WrongEdge,
        TrajectoryEnd::ForcedDrop,
        TrajectoryEnd::TtlExpired,
        TrajectoryEnd::Truncated,
    ];
    let mut out: Vec<_> = ENDS.iter().map(|&e| (path.clone(), e)).collect();
    for j in 1..path.len() {
        for (_, _, peer) in topo.neighbors(path[j - 1]) {
            if peer == path[j] {
                continue;
            }
            let mut swapped = path.clone();
            swapped[j] = peer;
            out.push((swapped, end));
            let cut = [&path[..j], &[peer]].concat();
            out.push((cut, implied_end(topo, dst, peer)));
        }
    }
    if let [rest @ .., last] = &path[..] {
        if !rest.is_empty() && topo.switch_id(*last).is_none() {
            for other in topo.edge_nodes().into_iter().filter(|e| e != last) {
                let moved = [rest, &[other]].concat();
                out.push((moved, implied_end(topo, dst, other)));
            }
        }
    }
    out
}

/// Compares `check_trajectory` with the pre-graph NFA on every pair of
/// `topo`, every technique and every failure set of at most one link:
/// each simulated journey and each of its [`mutations`], and
/// `check_trajectory_from` on every suffix of a journey that starts at a
/// core switch, with either deflected bit. Both must accept or both
/// reject. Returns the checks compared and how many were accepted.
fn trajectory_checks_against_the_nfa(topo: &Topology) -> (usize, usize) {
    let (mut checks, mut accepted) = (0, 0);
    let mut tally = |got: &Result<(), String>| {
        checks += 1;
        accepted += usize::from(got.is_ok());
    };
    let edges = topo.edge_nodes();
    let sets: Vec<Vec<LinkId>> = (0..=1)
        .flat_map(|k| sets_of(topo.link_count(), k))
        .collect();
    for &src in &edges {
        for &dst in edges.iter().filter(|&&d| d != src) {
            for technique in DeflectionTechnique::ALL {
                for failed in &sets {
                    let (route, traces) = simulated_traces(topo, technique, (src, dst), failed);
                    let set: HashSet<LinkId> = failed.iter().copied().collect();
                    let case = format!("{technique} {src}->{dst} {failed:?}");
                    for journey in &traces {
                        for (path, end) in mutations(topo, dst, journey.clone()) {
                            let got = check_trajectory(
                                topo, &route, src, dst, technique, &set, &path, end,
                            );
                            let want = reference_check_trajectory(
                                topo, &route, src, dst, technique, &set, &path, end,
                            );
                            assert_eq!(
                                got.is_ok(),
                                want.is_ok(),
                                "{case} {path:?} {end:?}: {got:?} vs the NFA's {want:?}"
                            );
                            tally(&got);
                        }
                        let (path, end) = journey;
                        for j in (1..path.len()).filter(|&j| topo.switch_id(path[j]).is_some()) {
                            let in_port =
                                topo.port_towards(path[j], path[j - 1]).expect("adjacent");
                            for deflected in [false, true] {
                                let suffix = &path[j..];
                                let got = check_trajectory_from(
                                    topo, &route, dst, technique, &set, in_port, deflected, suffix,
                                    *end,
                                );
                                let want = reference_check_trajectory_from(
                                    topo, &route, dst, technique, &set, in_port, deflected, suffix,
                                    *end,
                                );
                                assert_eq!(
                                    got.is_ok(),
                                    want.is_ok(),
                                    "{case} {suffix:?} from port {in_port}, deflected \
                                     {deflected}: {got:?} vs the NFA's {want:?}"
                                );
                                tally(&got);
                            }
                        }
                    }
                }
            }
        }
    }
    (checks, accepted)
}

#[test]
fn trajectory_checks_equal_the_nfa_on_topo15() {
    assert_eq!(
        trajectory_checks_against_the_nfa(&topo15::build()),
        (54_704, 23_784)
    );
}

/// The triangle A–B–C (switch ids 5, 7, 11) with two hosts on A and
/// one on each of B and C: the only input here where one switch can
/// surface a packet at two different hosts, so the only one that tells
/// the hosts of the shared wrong-edge sink apart.
#[test]
fn trajectory_checks_equal_the_nfa_on_a_two_host_triangle() {
    let mut b = kar_topology::TopologyBuilder::new();
    let (a, s, c) = (b.core("A", 5), b.core("B", 7), b.core("C", 11));
    let hosts = [("H0", a), ("H1", a), ("H2", c), ("H3", s)].map(|(name, at)| (b.edge(name), at));
    for (x, y) in [(a, s), (s, c), (a, c)].into_iter().chain(hosts) {
        b.link(x, y, LinkParams::default());
    }
    assert_eq!(
        trajectory_checks_against_the_nfa(&b.build().unwrap()),
        (35_328, 13_689)
    );
}

#[test]
#[ignore = "186 k trajectory checks on rnp28 through the slow NFA: run in release"]
fn trajectory_checks_equal_the_nfa_on_rnp28() {
    assert_eq!(
        trajectory_checks_against_the_nfa(&rnp28::build()),
        (186_277, 70_399)
    );
}
