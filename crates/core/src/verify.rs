//! Exhaustive resilience verification of encoded routes.
//!
//! Simulation samples one random trajectory per packet; this module
//! explores *all* of them. A packet inside the core is fully described
//! by `(switch, input port, deflected-flag)` — KAR cores are stateless,
//! so the forwarding relation over those states is finite and can be
//! enumerated. [`verify_route`] builds that state graph for one encoded
//! route under one failure set, mirroring [`KarForwarder`]'s decision
//! procedure choice-for-choice (residue first, then the technique's
//! deflection candidate set), and classifies what can happen to a
//! packet:
//!
//! * [`Outcome::Delivered`] — every trajectory reaches the destination.
//! * [`Outcome::WrongEdge`] — no trajectory is lost in the core, but
//!   some surface at a different edge (rescued by the paper's §2.1
//!   controller re-encoding, at a latency cost).
//! * [`Outcome::TtlExceeded`] — a cycle exists but every cycle state can
//!   still escape: random deflection delivers with probability 1, yet a
//!   finite TTL may expire first.
//! * [`Outcome::Blackhole`] — some trajectory reaches a switch that must
//!   drop (witnessed by a concrete hop sequence).
//! * [`Outcome::Loop`] — a set of states exists that a packet can enter
//!   but never leave (an inescapable forwarding loop, witnessed by the
//!   cycle's switches). Deterministic techniques (`None`, and NIP at
//!   degree-2 switches) are the ones that can trap like this.
//!
//! ## k-failure verification
//!
//! [`verify_failure_sets`] sweeps every ordered edge pair against every
//! failure set of size k. At k = 1 that is the paper's resilience
//! claim, checked exhaustively instead of by sampling; k = 2, 3 are
//! practical too. Enumerating C(L, k) sets per pair is
//! only feasible because most of them are *equivalent*: the exploration
//! of one case consults the status of only a few links (the source
//! uplink plus the ports of every switch the packet can reach), recorded
//! in [`VerifyReport::relevant_links`]. Two failure sets with the same
//! projection onto that relevant set produce byte-identical explorations,
//! so [`PairVerifier`] memoizes reports per projection and answers most
//! cases without running the state-graph search at all — every case of
//! a projection shares the memo's one report (an `Arc`). Cycle detection
//! is by seen-state Tarjan SCCs, never TTL exhaustion, so the cost per
//! exploration is bounded by the state count, not the hop budget; the
//! explorations a pair does need all run on its one [`Explorer`], whose
//! residues are reduced once per pair and whose buffers are reused.
//!
//! One further pruning is *sound*: **disconnection is monotone**. Any
//! superset of a set that physically disconnects `src` from `dst` also
//! disconnects them, so supersets of known disconnecting sets skip the
//! reachability check (and, in [`min_failure_set`], the whole
//! classification — a disconnected pair is not a resilience violation).
//!
//! A set the pruning does not settle needs the "is the pair cut" test
//! itself, and most sets do not need a search for it either: the test
//! remembers the links of the last `src → dst` path it found (a **path
//! witness**), and a failure set that touches none of them leaves that
//! path standing. Only a set that hits the witness runs a BFS, which
//! either finds the next witness or proves the cut. This changes *how* a
//! verdict is reached, never the verdict or which sets reach the test,
//! so it moves no [`SweepStats`] counter.
//!
//! Outcome classes themselves (blackhole, loop) are **not** monotone
//! under adding failures for the deflecting techniques — failing the
//! residue link of a dead-end branch can force a deflection that
//! *rescues* the packet — so no superset of a blackholed set is ever
//! skipped on that basis. The projection memo is what makes the sweep
//! fast without assuming monotonicity that does not hold.
//!
//! ### What runs in parallel
//!
//! Every piece of state above belongs to one pair — its memo, its path
//! witness, its disconnecting sets — so pairs share nothing, and each
//! pair is one unit of work on every topology. [`verify_failure_sets`]
//! hands the pairs to [`std::thread::available_parallelism`] workers,
//! the caller among them; a worker runs its pairs in pair order, exactly
//! as the one-core loop did. Each pair returns compact rows (a
//! report and a verdict per failure set) and its counters, and the
//! caller lays them out in pair order, regenerating each row's failure
//! set from the lexicographic enumeration. Nothing a worker computes
//! depends on another worker or on timing, so the `KSweep` — rows,
//! reports and all four [`SweepStats`] counters — is the same at any
//! worker count;
//! `crates/core/tests/verify_differential.rs` holds the one-core sweep
//! as the oracle.
//!
//! [`min_failure_set`] is the breaking-point search built on the same
//! machinery: the lexicographically smallest failure set of minimum size
//! that blackholes or loops a pair without disconnecting it.
//!
//! [`KarForwarder`]: crate::KarForwarder

use crate::cache::EncodingCache;
use crate::deflect::DeflectionTechnique;
use crate::error::KarError;
use crate::protection::Protection;
use crate::route::EncodedRoute;
use kar_topology::{paths, LinkId, NodeId, PortIx, Topology};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{AddAssign, ControlFlow};
use std::sync::Arc;
use std::{panic, thread};

/// A packet's complete core-network state: where it is, where it came
/// from, and whether it has ever been deflected (the only bit of header
/// state the techniques consult).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    node: NodeId,
    in_port: PortIx,
    deflected: bool,
}

/// The edge node a move surfaces at. (A forced drop is not a move: it is
/// [`possible_moves`] leaving its buffer empty.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    Delivered,
    WrongEdge(NodeId),
}

/// Which route a packet carries after each hop — the move relation's
/// one degree of freedom, shared by the explorer ([`verify_route`]) and
/// the trajectory checker ([`check_trajectory`]). A flat route
/// (`&EncodedRoute`) is carried end to end; a partitioned one
/// ([`crate::hier::Segmented`]) is replaced at boundary links.
pub trait ActiveRoute {
    /// Names one of the routes a packet may carry.
    type Key: Copy + Eq + Hash;
    /// The route the ingress edge stamps.
    fn ingress(&self) -> Self::Key;
    /// The route `key` names.
    fn route(&self, key: Self::Key) -> &EncodedRoute;
    /// The route a packet is re-stamped with when it crosses `link` into
    /// switch `node` (a fresh tag: the deflected bit clears), or `None`
    /// when it keeps its tag.
    fn restamp(&mut self, topo: &Topology, link: LinkId, node: NodeId) -> Option<Self::Key>;
}

impl ActiveRoute for &EncodedRoute {
    type Key = ();
    fn ingress(&self) {}
    fn route(&self, _: ()) -> &EncodedRoute {
        self
    }
    fn restamp(&mut self, _: &Topology, _: LinkId, _: NodeId) -> Option<()> {
        None
    }
}

/// Classification of one `(route, failure set)` case, strongest
/// applicable label wins: `Loop > Blackhole > TtlExceeded > WrongEdge >
/// Delivered`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// Every trajectory ends at the destination edge, cycle-free.
    Delivered,
    /// No loss possible, but some trajectories exit at a non-destination
    /// edge (controller rescue needed).
    WrongEdge,
    /// Cycles exist but all are escapable: delivery with probability 1,
    /// modulo TTL.
    TtlExceeded,
    /// Some trajectory ends in a forced drop inside the core.
    Blackhole,
    /// Some reachable states form an inescapable forwarding loop.
    Loop,
}

impl Outcome {
    /// `true` for the outcomes where no packet is ever lost in the core
    /// (delivery to *an* edge is certain).
    pub fn is_lossless(self) -> bool {
        matches!(self, Outcome::Delivered | Outcome::WrongEdge)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Outcome::Delivered => "delivered",
            Outcome::WrongEdge => "wrong-edge",
            Outcome::TtlExceeded => "ttl-exceeded",
            Outcome::Blackhole => "blackhole",
            Outcome::Loop => "loop",
        };
        f.write_str(s)
    }
}

/// Everything [`verify_route`] learned about one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The overall classification (see [`Outcome`] precedence).
    pub outcome: Outcome,
    /// Some trajectory reaches the destination.
    pub can_deliver: bool,
    /// Some trajectory surfaces at a non-destination edge.
    pub can_wrong_edge: bool,
    /// Some trajectory ends in a forced drop.
    pub can_blackhole: bool,
    /// The state graph contains a cycle (escapable or not).
    pub has_cycle: bool,
    /// Reachable `(switch, in-port, deflected)` states explored.
    pub states: usize,
    /// For [`Outcome::Loop`]: the switches of one inescapable cycle.
    pub loop_witness: Option<Vec<NodeId>>,
    /// For blackholes: the hop sequence (source edge to the dropping
    /// switch) of one trajectory that dies.
    pub blackhole_witness: Option<Vec<NodeId>>,
    /// Every link whose up/down status the exploration consulted: the
    /// source uplink plus all ports of every reachable switch, sorted.
    /// The outcome is a pure function of the failure set's intersection
    /// with this list — the memoization key of [`PairVerifier`].
    pub relevant_links: Vec<LinkId>,
}

/// The port the route's residue names at core switch `node` (Eq. 3).
fn residue_at(topo: &Topology, route: &EncodedRoute, node: NodeId) -> PortIx {
    let switch_id = topo
        .switch_id(node)
        .expect("packets only take moves at core switches");
    route.port_at(switch_id)
}

/// All moves the technique allows from one state, written into `moves`
/// (cleared first; left empty when the switch must drop). Mirrors
/// [`crate::KarForwarder`]: the route's residue `computed` first, then
/// the deflection candidate set (core-facing ports preferred for
/// AVP/NIP, input port excluded for NIP, unrestricted for hot-potato's
/// random walk), in ascending port order.
///
/// This is the one move generator: the explorer, the trajectory NFA and
/// the sampled-forwarder test all call it, each with its own
/// representation of the failure set behind `is_failed`.
fn possible_moves(
    topo: &Topology,
    computed: PortIx,
    technique: DeflectionTechnique,
    is_failed: impl Fn(LinkId) -> bool,
    state: State,
    moves: &mut Vec<(PortIx, bool)>,
) {
    moves.clear();
    let ports = &topo.node(state.node).ports;
    let port_up = |p: PortIx| ports.get(p as usize).is_some_and(|&l| !is_failed(l));
    let residue_ok =
        |exclude_input: bool| port_up(computed) && !(exclude_input && computed == state.in_port);
    // The deflection candidate set of `random_port`: healthy ports minus
    // `exclude`, restricted to core-facing ports when any exist and the
    // technique prefers them.
    let deflection_set =
        |exclude: Option<PortIx>, prefer_core: bool, moves: &mut Vec<(PortIx, bool)>| {
            let healthy = (0..ports.len() as PortIx).filter(|&p| port_up(p) && Some(p) != exclude);
            moves.extend(healthy.map(|p| (p, true)));
            let core_facing = |&(p, _): &(PortIx, bool)| {
                let peer = topo.link(ports[p as usize]).peer_of(state.node);
                topo.switch_id(peer).is_some()
            };
            if prefer_core && moves.iter().any(core_facing) {
                moves.retain(core_facing);
            }
        };
    match technique {
        DeflectionTechnique::None => {
            if residue_ok(false) {
                moves.push((computed, state.deflected));
            }
        }
        DeflectionTechnique::HotPotato => {
            if !state.deflected && residue_ok(false) {
                moves.push((computed, false));
            } else {
                deflection_set(None, false, moves);
            }
        }
        DeflectionTechnique::Avp => {
            if residue_ok(false) {
                moves.push((computed, state.deflected));
            } else {
                deflection_set(None, true, moves);
            }
        }
        DeflectionTechnique::Nip => {
            if residue_ok(true) {
                moves.push((computed, state.deflected));
            } else {
                deflection_set(Some(state.in_port), true, moves);
            }
        }
    }
}

/// Where the move `(port, deflected)` from `state` lands: a successor
/// state with the route it then carries (a re-stamp is a fresh tag, so
/// the deflected bit clears too) or the edge node it surfaces at.
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
/// logic would send it. One exploration on a fresh [`Explorer`].
pub fn verify_route<A: ActiveRoute>(
    topo: &Topology,
    mut active: A,
    src: NodeId,
    dst: NodeId,
    technique: DeflectionTechnique,
    failed: &HashSet<LinkId>,
) -> VerifyReport {
    let failed = failed.iter().copied();
    Explorer::new().explore(topo, &mut active, src, dst, technique, failed)
}

/// Hasher of the explorer's two maps: one rotate, xor and multiply per
/// word. Their keys are node ids, port numbers and route keys this
/// program made itself, never outside input, so SipHash's flooding
/// resistance buys nothing there and costs most of a probe.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.mix(b.into()));
    }
    fn write_u8(&mut self, v: u8) {
        self.mix(v.into());
    }
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A set of links as one bit per [`LinkId`].
#[derive(Default)]
struct LinkBits(Vec<u64>);

impl LinkBits {
    /// Empties the set and sizes it for `links` link ids.
    fn reset(&mut self, links: usize) {
        self.0.clear();
        self.0.resize(links.div_ceil(64), 0);
    }
    fn insert(&mut self, l: LinkId) {
        self.0[l.0 / 64] |= 1 << (l.0 % 64);
    }
    fn contains(&self, l: LinkId) -> bool {
        self.0[l.0 / 64] & (1 << (l.0 % 64)) != 0
    }
    /// The members, ascending, in a vector allocated once.
    fn to_sorted_vec(&self) -> Vec<LinkId> {
        let count = self.0.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(count);
        for (i, &word) in self.0.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out.push(LinkId(i * 64 + rest.trailing_zeros() as usize));
                rest &= rest - 1;
            }
        }
        out
    }
}

const NO_STATE: u32 = u32::MAX;
/// Per-state flag: the switch must drop here.
const DROPS: u8 = 1;
/// Per-state flag: some move surfaces at an edge node.
const ESCAPES: u8 = 2;

/// The exhaustive explorer of one route, reusable across failure sets.
///
/// It holds what an exploration needs that does *not* depend on the
/// failure set — the residue of each `(route key, switch)` it ever
/// visited, reduced once — and every buffer an exploration fills, kept
/// from one call to the next so a warmed explorer allocates only what
/// the returned report owns. All of it is derived data:
/// [`Explorer::explore`] returns the same report from a reused explorer
/// as from a fresh one (`tests/verify_differential.rs`).
///
/// The residues make an explorer belong to one `(topology, route)`:
/// hand every call the same `topo` and `active`.
///
/// Buffers grow with the states an exploration reaches and the link
/// count (two bitmaps), never with the node count: a dense state table
/// would charge every [`crate::verify_hier_route`] call on a large ring
/// for the whole topology, so the state index is a hash map.
pub struct Explorer<K> {
    residues: WordMap<(K, NodeId), PortIx>,
    failed: LinkBits,
    relevant: LinkBits,
    index: WordMap<(K, State), u32>,
    /// Reached states in discovery order — the vector is its own BFS
    /// queue, a cursor chasing its end.
    states: Vec<(K, State)>,
    /// The state each one was discovered from ([`NO_STATE`] for the first).
    pred: Vec<u32>,
    /// [`DROPS`] | [`ESCAPES`] per state.
    flags: Vec<u8>,
    /// Distinct successors of state `i`, in move order:
    /// `succ[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    moves: Vec<(PortIx, bool)>,
    sccs: Sccs,
    /// Scratch of the two witness walks: the states visited, and each
    /// state's position in that walk.
    walk: Vec<u32>,
    walk_pos: Vec<u32>,
}

impl<K: Copy + Eq + Hash> Default for Explorer<K> {
    fn default() -> Self {
        Explorer {
            residues: WordMap::default(),
            failed: LinkBits::default(),
            relevant: LinkBits::default(),
            index: WordMap::default(),
            states: Vec::new(),
            pred: Vec::new(),
            flags: Vec::new(),
            succ_start: Vec::new(),
            succ: Vec::new(),
            moves: Vec::new(),
            sccs: Sccs::default(),
            walk: Vec::new(),
            walk_pos: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash> Explorer<K> {
    /// An explorer that has seen nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exhaustively classifies `active` under the failure set `failed`
    /// — what [`verify_route`] returns, on this explorer's buffers.
    pub fn explore<A: ActiveRoute<Key = K>>(
        &mut self,
        topo: &Topology,
        active: &mut A,
        src: NodeId,
        dst: NodeId,
        technique: DeflectionTechnique,
        failed: impl IntoIterator<Item = LinkId>,
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
        let Explorer {
            residues,
            failed: down,
            relevant,
            index,
            states,
            pred,
            flags,
            succ_start,
            succ,
            moves,
            sccs,
            walk,
            walk_pos,
        } = self;
        down.reset(topo.link_count());
        // A link id the topology does not have fails nothing.
        failed
            .into_iter()
            .filter(|l| l.0 < topo.link_count())
            .for_each(|l| down.insert(l));

        // The edge transmits blindly into its uplink; a failed uplink kills
        // every packet of the flow at hop zero.
        let uplink = topo.node(src).ports[active.route(active.ingress()).uplink as usize];
        if down.contains(uplink) {
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

        // Reachability sweep, recording the move relation and a predecessor
        // per state for witness reconstruction. Everything the sweep
        // consults goes into `relevant`: `possible_moves` reads the status
        // of every port of the current switch, and `step` follows a port
        // of that same switch — so the uplink plus the full port list of
        // each reachable switch covers every status read.
        relevant.reset(topo.link_count());
        relevant.insert(uplink);
        index.clear();
        states.clear();
        pred.clear();
        flags.clear();
        succ_start.clear();
        succ.clear();
        index.insert((active.ingress(), initial), 0);
        states.push((active.ingress(), initial));
        pred.push(NO_STATE);
        flags.push(0);
        let mut first_drop = None;
        let mut i = 0;
        while let Some(&(key, state)) = states.get(i) {
            topo.node(state.node)
                .ports
                .iter()
                .for_each(|&l| relevant.insert(l));
            let computed = *residues
                .entry((key, state.node))
                .or_insert_with(|| residue_at(topo, active.route(key), state.node));
            debug_assert_eq!(
                computed,
                residue_at(topo, active.route(key), state.node),
                "an explorer serves one route"
            );
            let is_failed = |l| down.contains(l);
            possible_moves(topo, computed, technique, is_failed, state, moves);
            succ_start.push(succ.len() as u32);
            if moves.is_empty() {
                flags[i] |= DROPS;
                first_drop.get_or_insert(i);
            }
            for &mv in moves.iter() {
                match step(topo, active, dst, (key, state), mv) {
                    Err(Terminal::Delivered) => {
                        report.can_deliver = true;
                        flags[i] |= ESCAPES;
                    }
                    Err(Terminal::WrongEdge(_)) => {
                        report.can_wrong_edge = true;
                        flags[i] |= ESCAPES;
                    }
                    Ok(next) => {
                        let j = *index.entry(next).or_insert_with(|| {
                            states.push(next);
                            pred.push(i as u32);
                            flags.push(0);
                            states.len() as u32 - 1
                        });
                        if !succ[succ_start[i] as usize..].contains(&j) {
                            succ.push(j);
                        }
                    }
                }
            }
            i += 1;
        }
        succ_start.push(succ.len() as u32);
        report.states = states.len();
        report.relevant_links = relevant.to_sorted_vec();

        if let Some(die) = first_drop {
            report.can_blackhole = true;
            walk.clear();
            let mut cur = die as u32;
            while cur != NO_STATE {
                walk.push(cur);
                cur = pred[cur as usize];
            }
            let hops = walk.iter().rev().map(|&i| states[i as usize].1.node);
            report.blackhole_witness = Some(std::iter::once(src).chain(hops).collect());
        }

        // Cycle and trap analysis on the inter-state relation. An SCC is a
        // trap when no member can drop (that would be a blackhole, reported
        // above), escape to an edge, or step outside the SCC.
        let succs_of =
            |i: u32| &succ[succ_start[i as usize] as usize..succ_start[i as usize + 1] as usize];
        sccs.run(succ_start, succ);
        for (sid, scc) in sccs.iter().enumerate() {
            let cyclic = scc.len() > 1 || succs_of(scc[0]).contains(&scc[0]);
            if !cyclic {
                continue;
            }
            report.has_cycle = true;
            let inside = |&j: &u32| sccs.of[j as usize] == sid as u32;
            let trapped = scc
                .iter()
                .all(|&i| flags[i as usize] == 0 && succs_of(i).iter().all(inside));
            if trapped && report.loop_witness.is_none() {
                // One concrete cycle through the trap: from its first
                // member, always the first successor that stays inside,
                // until a state repeats.
                walk.clear();
                walk_pos.clear();
                walk_pos.resize(states.len(), NO_STATE);
                let mut cur = scc[0];
                while walk_pos[cur as usize] == NO_STATE {
                    walk_pos[cur as usize] = walk.len() as u32;
                    walk.push(cur);
                    cur = *succs_of(cur)
                        .iter()
                        .find(|j| inside(j))
                        .expect("trap SCC members stay inside the SCC");
                }
                let cycle = &walk[walk_pos[cur as usize] as usize..];
                report.loop_witness =
                    Some(cycle.iter().map(|&i| states[i as usize].1.node).collect());
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
}

/// Strongly-connected components of the state graph: iterative Tarjan
/// over the explorer's flat successor lists, its arrays kept between
/// runs. Iterative because NIP walks on larger topologies can produce
/// graphs deeper than the default stack would like.
#[derive(Default)]
struct Sccs {
    idx: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// (state, next successor position)
    call: Vec<(u32, u32)>,
    /// The component of each state.
    of: Vec<u32>,
    /// Component `c` is `members[start[c]..start[c + 1]]`, components
    /// and members both in the order Tarjan pops them.
    members: Vec<u32>,
    start: Vec<u32>,
}

impl Sccs {
    /// The components of the last [`Sccs::run`], in emission order.
    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.start
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
    }

    /// Decomposes the graph where state `v`'s successors are
    /// `succ[succ_start[v]..succ_start[v + 1]]`.
    fn run(&mut self, succ_start: &[u32], succ: &[u32]) {
        let n = succ_start.len() - 1;
        let Sccs {
            idx,
            low,
            on_stack,
            stack,
            call,
            of,
            members,
            start,
        } = self;
        idx.clear();
        idx.resize(n, NO_STATE);
        low.clear();
        low.resize(n, 0);
        on_stack.clear();
        on_stack.resize(n, false);
        of.clear();
        of.resize(n, 0);
        members.clear();
        start.clear();
        start.push(0);
        let mut counter = 0u32;
        for root in 0..n as u32 {
            if idx[root as usize] != NO_STATE {
                continue;
            }
            call.push((root, 0));
            while let Some(&mut (v, ref mut pos)) = call.last_mut() {
                let vi = v as usize;
                if *pos == 0 {
                    idx[vi] = counter;
                    low[vi] = counter;
                    counter += 1;
                    stack.push(v);
                    on_stack[vi] = true;
                }
                let next = succ_start[vi] + *pos;
                if next < succ_start[vi + 1] {
                    let w = succ[next as usize];
                    *pos += 1;
                    if idx[w as usize] == NO_STATE {
                        call.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[vi] = low[vi].min(idx[w as usize]);
                    }
                } else {
                    if low[vi] == idx[vi] {
                        let component = start.len() as u32 - 1;
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            of[w as usize] = component;
                            members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        start.push(members.len() as u32);
                    }
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent as usize] = low[parent as usize].min(low[vi]);
                    }
                }
            }
        }
    }
}

/// Lexicographic k-subsets of the links `0..n`, advanced in place: the
/// one set is lent to the caller, never copied.
struct Combinations {
    n: usize,
    cur: Vec<LinkId>,
    started: bool,
}

impl Combinations {
    fn new(n: usize, k: usize) -> Self {
        Combinations {
            n,
            cur: (0..k).map(LinkId).collect(),
            started: false,
        }
    }

    /// The next set, ascending, or `None` once every set was lent.
    fn advance(&mut self) -> Option<&[LinkId]> {
        let (n, k) = (self.n, self.cur.len());
        if k > n {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.cur);
        }
        let mut i = k;
        while i > 0 {
            i -= 1;
            // Largest value position i can hold is n - k + i.
            if self.cur[i].0 < n - k + i {
                self.cur[i].0 += 1;
                for j in i + 1..k {
                    self.cur[j] = LinkId(self.cur[j - 1].0 + 1);
                }
                return Some(&self.cur);
            }
        }
        None
    }
}

/// `C(n, k)`: how many sets a [`Combinations`] lends.
fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    // Each step is C(n, i) · (n − i) / (i + 1) = C(n, i + 1), exact.
    (0..k).fold(1, |c, i| c * (n - i) / (i + 1))
}

/// Memoizing classifier for one `(src, dst, route, technique)`: answers
/// [`verify_route`] queries for arbitrary failure sets by projecting
/// them onto the links the exploration actually consults.
///
/// Soundness: for a projection `P ⊆ F`, if no link of `F \ P` is in
/// [`VerifyReport::relevant_links`] of the exploration under `P`, the
/// exploration under `F` reads exactly the same statuses and is
/// byte-identical — outcome, state count and witnesses included.
/// [`PairVerifier::classify`] grows the projection to that fixpoint
/// (at most `|F|` rounds) and memoizes reports per projection, so a
/// k-failure sweep runs only as many state-graph searches as there are
/// *distinct* projections, not `C(links, k)`.
pub struct PairVerifier<'a> {
    topo: &'a Topology,
    route: EncodedRoute,
    src: NodeId,
    dst: NodeId,
    technique: DeflectionTechnique,
    explorer: Explorer<()>,
    memo: HashMap<Vec<LinkId>, Arc<VerifyReport>>,
    /// The projection being grown, kept across calls for its buffer.
    proj: Vec<LinkId>,
    /// Full state-graph explorations run so far.
    pub explored: usize,
    /// `classify` calls answered entirely from the memo.
    pub memo_hits: usize,
}

impl<'a> PairVerifier<'a> {
    /// A verifier for one pair and one encoded route.
    pub fn new(
        topo: &'a Topology,
        route: EncodedRoute,
        src: NodeId,
        dst: NodeId,
        technique: DeflectionTechnique,
    ) -> Self {
        PairVerifier {
            topo,
            route,
            src,
            dst,
            technique,
            explorer: Explorer::new(),
            memo: HashMap::new(),
            proj: Vec::new(),
            explored: 0,
            memo_hits: 0,
        }
    }

    /// The route this verifier explores.
    pub fn route(&self) -> &EncodedRoute {
        &self.route
    }

    /// Classifies one failure set, reusing memoized explorations of
    /// every equivalent set. Returns exactly what [`verify_route`]
    /// would — the memo's own report, shared rather than copied.
    pub fn classify(&mut self, failed: &[LinkId]) -> Arc<VerifyReport> {
        let mut proj = std::mem::take(&mut self.proj);
        proj.clear();
        let mut ran = false;
        loop {
            let report = match self.memo.get(proj.as_slice()) {
                Some(report) => report,
                None => {
                    let report = self.explorer.explore(
                        self.topo,
                        &mut &self.route,
                        self.src,
                        self.dst,
                        self.technique,
                        proj.iter().copied(),
                    );
                    self.explored += 1;
                    ran = true;
                    self.memo.entry(proj.clone()).or_insert(Arc::new(report))
                }
            };
            let known = proj.len();
            for &l in failed {
                if report.relevant_links.binary_search(&l).is_ok() && !proj[..known].contains(&l) {
                    proj.push(l);
                }
            }
            if proj.len() == known {
                if !ran {
                    self.memo_hits += 1;
                }
                let report = Arc::clone(report);
                self.proj = proj;
                return report;
            }
            proj.sort_unstable();
        }
    }
}

/// One entry of a [`verify_failure_sets`] sweep.
#[derive(Debug, Clone)]
pub struct FailureSetResult {
    /// Ingress edge.
    pub src: NodeId,
    /// Destination edge.
    pub dst: NodeId,
    /// The simultaneously failed links, ascending.
    pub failed: Vec<LinkId>,
    /// `true` when the set physically disconnects `src` from `dst`.
    pub disconnected: bool,
    /// The exhaustive classification, shared with every other case of
    /// the pair that projects onto the same relevant links.
    pub report: Arc<VerifyReport>,
}

/// Work accounting for a k-failure sweep — how much the projection
/// memo and monotone disconnection pruning saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// `(pair, failure set)` cases classified.
    pub cases: usize,
    /// Full state-graph explorations actually run.
    pub explored: usize,
    /// Cases answered from a projection memo without exploring.
    pub memo_hits: usize,
    /// Disconnection verdicts concluded from a known failed subset
    /// (monotonicity), skipping the reachability search.
    pub disconnect_pruned: usize,
}

impl AddAssign for SweepStats {
    fn add_assign(&mut self, other: SweepStats) {
        self.cases += other.cases;
        self.explored += other.explored;
        self.memo_hits += other.memo_hits;
        self.disconnect_pruned += other.disconnect_pruned;
    }
}

/// A k-failure sweep over every ordered edge pair.
#[derive(Debug, Clone)]
pub struct KSweep {
    /// One entry per `(pair, failure set)` case, pairs in edge order,
    /// sets lexicographic.
    pub results: Vec<FailureSetResult>,
    /// What the sweep cost and what the prunings saved.
    pub stats: SweepStats,
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
        let standing = !self.witness.is_empty() && !failed.iter().any(|l| self.witness.contains(l));
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

/// The one sweep loop of a pair, behind [`verify_failure_sets`] and
/// [`min_failure_set`]: enumerates the failure sets of sizes `1..=k`
/// (sizes ascending, sets lexicographic), settles whether each
/// disconnects the pair — supersets of a smaller disconnecting set by
/// monotonicity (counted in `disconnect_pruned`), the rest by asking
/// `is_cut` — and lends every `(set, disconnected)` to `visit`, which
/// may end the sweep. Only a new minimal disconnecting set is copied.
fn sweep_pair<B>(
    links: usize,
    k: usize,
    disconnect_pruned: &mut usize,
    mut is_cut: impl FnMut(&[LinkId]) -> bool,
    mut visit: impl FnMut(&[LinkId], bool) -> ControlFlow<B>,
) -> Option<B> {
    // Minimal disconnecting sets of size < s, for the monotone skip at
    // size s.
    let mut disconnecting: Vec<Vec<LinkId>> = Vec::new();
    for s in 1..=k {
        let mut sets = Combinations::new(links, s);
        while let Some(failed) = sets.advance() {
            let by_subset = disconnecting
                .iter()
                .any(|d| d.iter().all(|l| failed.contains(l)));
            let disconnected = by_subset || is_cut(failed);
            if by_subset {
                *disconnect_pruned += 1;
            } else if disconnected && s < k {
                disconnecting.push(failed.to_vec());
            }
            if let ControlFlow::Break(found) = visit(failed, disconnected) {
                return Some(found);
            }
        }
    }
    None
}

/// One pair's share of a [`verify_failure_sets`] sweep: a report and the
/// disconnection verdict per k-set, sets lexicographic (the sets
/// themselves are regenerated by the caller), and the pair's counters.
struct PairRows {
    rows: Vec<(Arc<VerifyReport>, bool)>,
    stats: SweepStats,
}

/// Exhaustively verifies every ordered edge pair of `topo` against
/// every failure set of exactly `k` links, with shortest-path routes
/// under `protection`. `k = 1` is the single-link-failure sweep, the
/// paper's resilience claim.
///
/// See the module docs for why this scales: projection memoization
/// (most sets are equivalent to a much smaller one), monotone
/// disconnection pruning seeded from the smaller set sizes (swept only
/// for that), and the path-witness connectivity test.
///
/// The pairs are swept on [`std::thread::available_parallelism`]
/// workers, the calling thread among them (the count follows the
/// process's CPU affinity: under `taskset -c 0` the caller sweeps
/// alone, through the same loop). Routes are encoded first,
/// in pair order, so the cache and the error returned are a serial
/// sweep's. The unit of work is one pair: a worker runs its pairs in
/// pair order, and every pair has its own [`PairVerifier`] and path
/// witness — so no answer and no counter depends on which worker ran
/// what, or when.
/// The result is a pure function of `(topo, technique, protection,
/// k)`: the same `KSweep` at any worker count, results in pair order.
///
/// # Errors
///
/// Propagates the first route-encoding error ([`KarError`]) in pair
/// order; pairs unreachable on the *intact* topology are skipped, not
/// errors.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn verify_failure_sets(
    topo: &Topology,
    technique: DeflectionTechnique,
    protection: &Protection,
    cache: &EncodingCache,
    k: usize,
) -> Result<KSweep, KarError> {
    assert!(k >= 1, "a failure sweep needs at least one failure");
    let edges = topo.edge_nodes();
    let mut ends = Vec::new();
    let mut routes = Vec::new();
    for &src in &edges {
        for &dst in &edges {
            if src == dst {
                continue;
            }
            let Some(primary) = paths::bfs_shortest_path(topo, src, dst) else {
                continue;
            };
            routes.push(cache.encode_with_protection(topo, primary, protection)?);
            ends.push((src, dst));
        }
    }
    let links = topo.link_count();
    let sets = binomial(links, k);
    let sweep = |i: usize| {
        let (src, dst) = ends[i];
        let mut pv = PairVerifier::new(topo, routes[i].clone(), src, dst, technique);
        let mut cut = CutTest::new(topo, src, dst);
        let mut stats = SweepStats::default();
        let mut rows = Vec::with_capacity(sets);
        let is_cut = |failed: &[LinkId]| cut.is_cut(failed);
        let visit = |failed: &[LinkId], disconnected| {
            if failed.len() == k {
                rows.push((pv.classify(failed), disconnected));
            }
            ControlFlow::<()>::Continue(())
        };
        sweep_pair(links, k, &mut stats.disconnect_pruned, is_cut, visit);
        stats.cases = rows.len();
        stats.explored = pv.explored;
        stats.memo_hits = pv.memo_hits;
        PairRows { rows, stats }
    };
    // Pair i goes to worker i mod `workers`, the caller being worker 0.
    // The split is fixed, not claimed from a shared counter, because a
    // worker's reports live in its thread's malloc arena and an arena
    // keeps the most it ever held: a split that varies from sweep to
    // sweep ratchets every arena up to its largest share (on rnp28 at
    // k = 3, 35 → 40 MiB of peak RSS), a fixed one does not.
    let workers = thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(ends.len())
        .max(1);
    let work = |w: usize| {
        (w..ends.len())
            .step_by(workers)
            .map(|i| (i, sweep(i)))
            .collect::<Vec<_>>()
    };
    let mut swept: Vec<Option<PairRows>> = ends.iter().map(|_| None).collect();
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        let mine = work(0);
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| panic::resume_unwind(e)));
        for (i, pair) in mine.into_iter().chain(theirs) {
            swept[i] = Some(pair);
        }
    });
    // The rows come back compact; the long-lived results are built here,
    // in pair order, with each failure set regenerated alongside.
    let mut stats = SweepStats::default();
    let mut results = Vec::with_capacity(ends.len() * sets);
    for (&(src, dst), pair) in ends.iter().zip(swept) {
        let pair = pair.expect("every pair has a worker");
        stats += pair.stats;
        let mut failure_sets = Combinations::new(links, k);
        for (report, disconnected) in pair.rows {
            let failed = failure_sets.advance().expect("one row per failure set");
            results.push(FailureSetResult {
                src,
                dst,
                failed: failed.to_vec(),
                disconnected,
                report,
            });
        }
    }
    Ok(KSweep { results, stats })
}

/// A breaking point found by [`min_failure_set`]: the smallest failure
/// set that defeats the scheme for one pair.
#[derive(Debug, Clone)]
pub struct BreakingPoint {
    /// The failed links, ascending — lexicographically first among the
    /// minimum-size sets that break the pair.
    pub failed: Vec<LinkId>,
    /// [`Outcome::Blackhole`] or [`Outcome::Loop`].
    pub outcome: Outcome,
    /// The full classification, witnesses included.
    pub report: Arc<VerifyReport>,
}

/// Breaking-point search: the smallest failure set (ties broken
/// lexicographically) that blackholes or loops traffic from `src` to
/// `dst` *without* physically disconnecting the pair, searching sizes
/// `1..=max_k` — the first connected violation of the sweep loop
/// [`verify_failure_sets`] runs.
///
/// Disconnecting sets are not violations — no scheme can deliver across
/// a cut — and by monotonicity no superset of one is ever a breaking
/// point of interest, so both are skipped without classification.
///
/// Returns `None` when the pair is unreachable on the intact topology
/// or survives every failure set up to `max_k`.
///
/// # Errors
///
/// Propagates route-encoding errors ([`KarError`]).
pub fn min_failure_set(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    technique: DeflectionTechnique,
    protection: &Protection,
    cache: &EncodingCache,
    max_k: usize,
) -> Result<Option<BreakingPoint>, KarError> {
    let Some(primary) = paths::bfs_shortest_path(topo, src, dst) else {
        return Ok(None);
    };
    let route = cache.encode_with_protection(topo, primary, protection)?;
    let mut pv = PairVerifier::new(topo, route, src, dst, technique);
    let mut cut = CutTest::new(topo, src, dst);
    let visit = |failed: &[LinkId], disconnected| {
        if disconnected {
            return ControlFlow::Continue(());
        }
        let report = pv.classify(failed);
        match report.outcome {
            outcome @ (Outcome::Blackhole | Outcome::Loop) => ControlFlow::Break(BreakingPoint {
                failed: failed.to_vec(),
                outcome,
                report,
            }),
            _ => ControlFlow::Continue(()),
        }
    };
    let is_cut = |failed: &[LinkId]| cut.is_cut(failed);
    Ok(sweep_pair(topo.link_count(), max_k, &mut 0, is_cut, visit))
}

/// How a traced packet journey ended, for [`check_trajectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryEnd {
    /// Delivered at the destination edge.
    Delivered,
    /// Surfaced at a non-destination edge (the path's last node).
    WrongEdge,
    /// The forwarder dropped it with no healthy way out — the
    /// blackhole class (`NoRoute`/`PortDown`/`ResidueOutOfRange`).
    ForcedDrop,
    /// The hop budget ran out mid-walk.
    TtlExpired,
    /// The recording stopped mid-flight; the prefix must still be a
    /// valid trajectory but proves nothing about how it would end.
    Truncated,
}

/// Checks that a traced forwarder path is a trajectory of the
/// verifier's move relation under `failed`, packet for packet.
///
/// `path` is the node sequence as the simulator's tracer records it,
/// starting at the ingress edge `src`. The deflected flag and input
/// port are not in the trace, so the check runs the move relation as an
/// NFA: it keeps every `(switch, in-port, deflected)` state consistent
/// with the observed prefix and demands at least one of them explains
/// each next hop — and, at the end, the claimed fate.
///
/// This is the bridge the differential tests stand on: any divergence
/// between `KarForwarder` and [`verify_route`]'s `possible_moves`
/// surfaces here as an inexplicable hop.
#[allow(clippy::too_many_arguments)] // mirrors verify_route's surface plus the observed path
pub fn check_trajectory<A: ActiveRoute>(
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
    let frontier = vec![State {
        node: first,
        in_port: topo.link(uplink).port_on(first),
        deflected: false,
    }];
    walk_frontier(topo, active, dst, technique, failed, frontier, path, 2, end)
}

/// Checks a traced path *suffix* beginning at a core switch against the
/// move relation, from an explicit starting state.
///
/// [`check_trajectory`] always enters the network through `route`'s
/// ingress uplink; this variant instead seeds the NFA at `path[0]` (a
/// core switch) with the given input port and deflection flag. It
/// exists for the Byzantine fixtures: a misforwarding switch pushes a
/// packet out a port the honest algorithm never chose, and the claim to
/// verify is that the *rest* of the journey still satisfies the move
/// relation from that wrong ingress state — honest switches stay honest
/// even on adversarially delivered inputs.
#[allow(clippy::too_many_arguments)] // mirrors check_trajectory's surface
pub fn check_trajectory_from(
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
    let frontier = vec![State {
        node: start,
        in_port,
        deflected,
    }];
    walk_frontier(topo, route, dst, technique, failed, frontier, path, 1, end)
}

/// The shared NFA walk: advances `frontier` along `path[skip..]`,
/// demanding every observed hop (and the claimed end) is explained by
/// at least one consistent `(switch, in-port, deflected)` state.
#[allow(clippy::too_many_arguments)]
fn walk_frontier<A: ActiveRoute>(
    topo: &Topology,
    mut active: A,
    dst: NodeId,
    technique: DeflectionTechnique,
    failed: &HashSet<LinkId>,
    frontier: Vec<State>,
    path: &[NodeId],
    skip: usize,
    end: TrajectoryEnd,
) -> Result<(), String> {
    let mut frontier: Vec<_> = frontier.iter().map(|&s| (active.ingress(), s)).collect();
    let mut terminal: Option<Terminal> = None;
    let is_failed = |l| failed.contains(&l);
    let mut moves = Vec::new();
    for (i, &next) in path.iter().enumerate().skip(skip) {
        if terminal.is_some() {
            return Err(format!("path continues past an edge at hop {}", i - 1));
        }
        let next_is_core = topo.switch_id(next).is_some();
        let mut new_frontier: Vec<(A::Key, State)> = Vec::new();
        let mut reached_terminal = None;
        for &(key, s) in &frontier {
            let computed = residue_at(topo, active.route(key), s.node);
            possible_moves(topo, computed, technique, is_failed, s, &mut moves);
            for &mv in &moves {
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
                let computed = residue_at(topo, active.route(key), s.node);
                possible_moves(topo, computed, technique, is_failed, s, &mut moves);
                moves.is_empty()
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

/// Aggregate view of a sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifySummary {
    /// Cases verified.
    pub total: usize,
    /// Count per outcome, in [`Outcome`] order (delivered, wrong-edge,
    /// ttl-exceeded, blackhole, loop).
    pub by_outcome: [usize; 5],
    /// Cases where the failure disconnected the pair.
    pub disconnected: usize,
    /// Connected cases classified blackhole or loop — the failures the
    /// scheme does not survive.
    pub violations: usize,
}

impl VerifySummary {
    /// Count for one outcome — an array read, precomputed when the
    /// summary was folded; never a rescan of the result slice.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.by_outcome[outcome as usize]
    }

    /// Folds one case into the counts. A disconnected case is never a
    /// violation: no scheme can deliver across a physical cut.
    pub fn record(&mut self, outcome: Outcome, disconnected: bool) {
        self.total += 1;
        self.by_outcome[outcome as usize] += 1;
        if disconnected {
            self.disconnected += 1;
        } else if matches!(outcome, Outcome::Blackhole | Outcome::Loop) {
            self.violations += 1;
        }
    }
}

/// Folds sweep results into counts; `violations` are connected cases
/// that still black-hole or loop.
pub fn summarize_sets(results: &[FailureSetResult]) -> VerifySummary {
    let mut s = VerifySummary::default();
    for case in results {
        s.record(case.report.outcome, case.disconnected);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflect::KarForwarder;
    use crate::route::RouteSpec;
    use kar_simnet::{ForwardDecision, Forwarder, Packet, RouteTag, SwitchCtx};
    use kar_topology::topo15;

    #[test]
    fn intact_primary_route_is_delivered() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let route = EncodedRoute::encode(&topo, &RouteSpec::unprotected(primary)).unwrap();
        let (src, dst) = (topo.expect("AS1"), topo.expect("AS3"));
        for technique in DeflectionTechnique::ALL {
            let report = verify_route(&topo, &route, src, dst, technique, &HashSet::new());
            assert_eq!(report.outcome, Outcome::Delivered, "{technique}");
            assert_eq!(report.states, 4, "{technique}: one state per hop");
        }
    }

    #[test]
    fn no_deflection_blackholes_with_witness() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let route = EncodedRoute::encode(&topo, &RouteSpec::unprotected(primary)).unwrap();
        let (src, dst) = (topo.expect("AS1"), topo.expect("AS3"));
        let failed: HashSet<LinkId> = [topo.expect_link("SW7", "SW13")].into_iter().collect();
        let report = verify_route(&topo, &route, src, dst, DeflectionTechnique::None, &failed);
        assert_eq!(report.outcome, Outcome::Blackhole);
        let witness = report.blackhole_witness.unwrap();
        assert_eq!(
            witness,
            vec![src, topo.expect("SW10"), topo.expect("SW7")],
            "dies at SW7, upstream of the failure"
        );
    }

    #[test]
    fn failed_uplink_is_an_immediate_blackhole() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let route = EncodedRoute::encode(&topo, &RouteSpec::unprotected(primary)).unwrap();
        let (src, dst) = (topo.expect("AS1"), topo.expect("AS3"));
        let failed: HashSet<LinkId> = [topo.expect_link("AS1", "SW10")].into_iter().collect();
        for technique in DeflectionTechnique::ALL {
            let report = verify_route(&topo, &route, src, dst, technique, &failed);
            assert_eq!(report.outcome, Outcome::Blackhole, "{technique}");
            assert_eq!(report.blackhole_witness, Some(vec![src]));
        }
    }

    #[test]
    fn protected_nip_survives_all_paper_failures() {
        // The §3 scenario, proven instead of sampled: NIP + full
        // protection delivers every trajectory for each Fig. 4 failure.
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let cache = EncodingCache::new();
        let route = cache
            .encode_with_protection(&topo, primary, &Protection::AutoFull)
            .unwrap();
        let (src, dst) = (topo.expect("AS1"), topo.expect("AS3"));
        for (a, b) in topo15::FAILURE_LOCATIONS {
            let failed: HashSet<LinkId> = [topo.expect_link(a, b)].into_iter().collect();
            let report = verify_route(&topo, &route, src, dst, DeflectionTechnique::Nip, &failed);
            assert!(
                report.outcome.is_lossless(),
                "{a}-{b}: {:?}",
                report.outcome
            );
            assert!(report.can_deliver);
        }
    }

    /// The verifier's move relation must match the sampled dataplane: at
    /// every reachable state the set of ports `KarForwarder` can emit
    /// over many RNG draws equals the verifier's `possible_moves`.
    #[test]
    fn moves_match_the_sampled_forwarder() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let cache = EncodingCache::new();
        let route = cache
            .encode_with_protection(&topo, primary, &Protection::AutoFull)
            .unwrap();
        let failed: HashSet<LinkId> = [topo.expect_link("SW7", "SW13")].into_iter().collect();
        let mut rng = StdRng::seed_from_u64(77);
        for technique in DeflectionTechnique::ALL {
            let mut fwd = KarForwarder::new(technique);
            for node in topo.core_nodes() {
                let ports = topo.node(node).ports.clone();
                let statuses: Vec<bool> = ports.iter().map(|l| !failed.contains(l)).collect();
                for in_port in 0..ports.len() as PortIx {
                    for deflected in [false, true] {
                        let state = State {
                            node,
                            in_port,
                            deflected,
                        };
                        let computed = residue_at(&topo, &route, node);
                        let is_failed = |l| failed.contains(&l);
                        let mut expected = Vec::new();
                        possible_moves(&topo, computed, technique, is_failed, state, &mut expected);
                        let mut sampled = HashSet::new();
                        let mut dropped = false;
                        for _ in 0..200 {
                            let mut tag = RouteTag::new(route.route_id.clone());
                            tag.deflected = deflected;
                            let mut pkt = Packet {
                                id: 0,
                                flow: kar_simnet::FlowId(0),
                                seq: 0,
                                kind: kar_simnet::PacketKind::Probe,
                                size_bytes: 64,
                                src: NodeId(0),
                                dst: NodeId(1),
                                route: Some(tag),
                                ttl: 64,
                                hops: 0,
                                deflections: 0,
                                created: kar_simnet::SimTime::ZERO,
                            };
                            let ctx = SwitchCtx {
                                topo: &topo,
                                node,
                                switch_id: topo.switch_id(node).unwrap(),
                                in_port: Some(in_port),
                                ports: &statuses,
                                now: kar_simnet::SimTime::ZERO,
                                reducer: None,
                                behavior: kar_simnet::Behavior::Honest,
                            };
                            match fwd.forward(&ctx, &mut pkt, &mut rng) {
                                ForwardDecision::Output(p) => {
                                    sampled.insert(p);
                                }
                                ForwardDecision::Drop(_) => dropped = true,
                            }
                        }
                        if expected.is_empty() {
                            assert!(
                                dropped && sampled.is_empty(),
                                "{technique} at {node:?}/{in_port}/{deflected}"
                            );
                        } else {
                            let ports: HashSet<PortIx> = expected.iter().map(|&(p, _)| p).collect();
                            assert!(!dropped, "{technique} at {node:?}/{in_port}");
                            assert_eq!(
                                sampled, ports,
                                "{technique} at {node:?}/{in_port}/{deflected}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every set a `Combinations` lends, copied.
    fn all_sets(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut sets = Combinations::new(n, k);
        let mut out = Vec::new();
        while let Some(set) = sets.advance() {
            out.push(set.iter().map(|l| l.0).collect());
        }
        out
    }

    #[test]
    fn combinations_enumerate_lexicographically() {
        assert_eq!(
            all_sets(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        for (n, k, count) in [(5, 3, 10), (3, 4, 0), (3, 3, 1), (22, 2, 231), (6, 0, 1)] {
            assert_eq!(all_sets(n, k).len(), count, "C({n}, {k})");
            assert_eq!(binomial(n, k), count, "C({n}, {k})");
        }
        // Exhausted stays exhausted.
        let mut sets = Combinations::new(3, 3);
        assert!(sets.advance().is_some());
        assert!(sets.advance().is_none() && sets.advance().is_none());
    }

    /// The projection memo must be invisible: for a sample of 2-failure
    /// sets, `PairVerifier::classify` returns byte-identical reports to
    /// a fresh `verify_route` of the full set.
    #[test]
    fn projection_memo_agrees_with_direct_verification() {
        let topo = topo15::build();
        let cache = EncodingCache::new();
        let (src, dst) = (topo.expect("AS1"), topo.expect("AS3"));
        let primary = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        for technique in DeflectionTechnique::ALL {
            let route = cache
                .encode_with_protection(&topo, primary.clone(), &Protection::AutoFull)
                .unwrap();
            let mut pv = PairVerifier::new(&topo, route.clone(), src, dst, technique);
            let mut sets = Combinations::new(topo.link_count(), 2);
            while let Some(failed) = sets.advance() {
                let set: HashSet<LinkId> = failed.iter().copied().collect();
                let direct = verify_route(&topo, &route, src, dst, technique, &set);
                let memoized = pv.classify(failed);
                assert_eq!(*memoized, direct, "{technique} {failed:?}");
            }
            // The memo must save work: strictly fewer explorations than
            // cases (HP's random walk has the widest relevant sets and
            // the least sharing; NIP/None collapse far more).
            assert!(
                pv.explored < 231 && pv.memo_hits > 0,
                "{technique}: explored {}, hits {}",
                pv.explored,
                pv.memo_hits
            );
        }
    }

    #[test]
    fn k2_sweep_stats_account_for_every_case() {
        let topo = topo15::build();
        let cache = EncodingCache::new();
        let sweep = verify_failure_sets(
            &topo,
            DeflectionTechnique::Nip,
            &Protection::AutoFull,
            &cache,
            2,
        )
        .unwrap();
        // 6 ordered pairs × C(22, 2) sets.
        assert_eq!(sweep.results.len(), 6 * 231);
        assert_eq!(sweep.stats.cases, 6 * 231);
        // A classify call either ends on a memo hit or ran at least one
        // exploration, so hits + explorations bound the cases from
        // below; the memo must still collapse a strict majority.
        assert!(
            sweep.stats.explored + sweep.stats.memo_hits >= sweep.stats.cases,
            "{:?}",
            sweep.stats
        );
        assert!(
            sweep.stats.explored < sweep.results.len() / 2,
            "projection memo should collapse most cases: {:?}",
            sweep.stats
        );
        // Monotone pruning: every 2-set containing a pair's uplink is a
        // superset of a known disconnecting singleton.
        assert!(sweep.stats.disconnect_pruned > 0, "{:?}", sweep.stats);
        // The k = 1 view of the same engine, whose pinned tables are
        // below.
        let k1 = verify_failure_sets(
            &topo,
            DeflectionTechnique::Nip,
            &Protection::AutoFull,
            &cache,
            1,
        )
        .unwrap();
        assert_eq!(summarize_sets(&k1.results).total, 132);
    }

    #[test]
    fn min_failure_set_finds_the_unprotected_breaking_point() {
        let topo = topo15::build();
        let cache = EncodingCache::new();
        let (src, dst) = (topo.expect("AS1"), topo.expect("AS3"));
        // No deflection, no protection: the first primary link failure
        // that does not disconnect the pair black-holes it — a k=1
        // breaking point, and lexicographically the smallest such link.
        let bp = min_failure_set(
            &topo,
            src,
            dst,
            DeflectionTechnique::None,
            &Protection::None,
            &cache,
            3,
        )
        .unwrap()
        .expect("no-deflection must break");
        assert_eq!(bp.failed.len(), 1);
        assert_eq!(bp.outcome, Outcome::Blackhole);
        // The witness is a real trajectory: replayable as a path.
        assert!(bp.report.blackhole_witness.is_some());
        // NIP + full protection survives every single failure (the
        // pinned table) — its breaking point, if any, needs k >= 2.
        let nip = min_failure_set(
            &topo,
            src,
            dst,
            DeflectionTechnique::Nip,
            &Protection::AutoFull,
            &cache,
            2,
        )
        .unwrap();
        if let Some(bp) = &nip {
            assert!(bp.failed.len() >= 2, "{:?}", bp.failed);
        }
    }

    /// Satellite check: `VerifySummary::count` reads precomputed
    /// counts; exercise `record` across every `Outcome` variant,
    /// connected and disconnected.
    #[test]
    fn summary_record_covers_every_outcome_variant() {
        let variants = [
            Outcome::Delivered,
            Outcome::WrongEdge,
            Outcome::TtlExceeded,
            Outcome::Blackhole,
            Outcome::Loop,
        ];
        let mut s = VerifySummary::default();
        for &outcome in &variants {
            s.record(outcome, false);
            s.record(outcome, true);
        }
        assert_eq!(s.total, 10);
        for &outcome in &variants {
            assert_eq!(s.count(outcome), 2, "{outcome}");
        }
        assert_eq!(s.disconnected, 5);
        // Only the connected blackhole and loop are violations; the
        // disconnected ones never are.
        assert_eq!(s.violations, 2);
        // count() must agree with a manual scan of by_outcome.
        for (i, &outcome) in variants.iter().enumerate() {
            assert_eq!(s.count(outcome), s.by_outcome[i]);
        }
    }

    #[test]
    fn check_trajectory_accepts_real_paths_and_rejects_fakes() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let route = EncodedRoute::encode(&topo, &RouteSpec::unprotected(primary)).unwrap();
        let (src, dst) = (topo.expect("AS1"), topo.expect("AS3"));
        let none: HashSet<LinkId> = HashSet::new();
        // The primary path itself, intact network.
        let path = vec![
            src,
            topo.expect("SW10"),
            topo.expect("SW7"),
            topo.expect("SW13"),
            topo.expect("SW29"),
            dst,
        ];
        for technique in DeflectionTechnique::ALL {
            check_trajectory(
                &topo,
                &route,
                src,
                dst,
                technique,
                &none,
                &path,
                TrajectoryEnd::Delivered,
            )
            .unwrap_or_else(|e| panic!("{technique}: {e}"));
        }
        // A hop the move relation cannot produce (off-route jump).
        let fake = vec![src, topo.expect("SW10"), topo.expect("SW43")];
        assert!(check_trajectory(
            &topo,
            &route,
            src,
            dst,
            DeflectionTechnique::None,
            &none,
            &fake,
            TrajectoryEnd::Truncated,
        )
        .is_err());
        // A forced drop upstream of a failure, no deflection.
        let failed: HashSet<LinkId> = [topo.expect_link("SW7", "SW13")].into_iter().collect();
        let dying = vec![src, topo.expect("SW10"), topo.expect("SW7")];
        check_trajectory(
            &topo,
            &route,
            src,
            dst,
            DeflectionTechnique::None,
            &failed,
            &dying,
            TrajectoryEnd::ForcedDrop,
        )
        .unwrap();
        // The same path cannot claim delivery.
        assert!(check_trajectory(
            &topo,
            &route,
            src,
            dst,
            DeflectionTechnique::None,
            &failed,
            &dying,
            TrajectoryEnd::Delivered,
        )
        .is_err());
        // Hop-zero death on a failed uplink.
        let cut: HashSet<LinkId> = [topo.expect_link("AS1", "SW10")].into_iter().collect();
        check_trajectory(
            &topo,
            &route,
            src,
            dst,
            DeflectionTechnique::Nip,
            &cut,
            &[src],
            TrajectoryEnd::ForcedDrop,
        )
        .unwrap();
    }

    #[test]
    fn summary_counts_and_violations() {
        let topo = topo15::build();
        let cache = EncodingCache::new();
        let sweep = verify_failure_sets(
            &topo,
            DeflectionTechnique::None,
            &Protection::None,
            &cache,
            1,
        )
        .unwrap();
        // 3 edges → 6 ordered pairs × 22 links.
        assert_eq!(sweep.results.len(), 6 * 22);
        let summary = summarize_sets(&sweep.results);
        assert_eq!(summary.total, 132);
        // No-deflection blackholes exactly when one of its own primary
        // links fails — 28 primary links summed over the six pairs. The
        // 12 edge-uplink cuts among them also disconnect the pair, so
        // they are not counted as violations.
        assert_eq!(summary.count(Outcome::Blackhole), 28, "{summary:?}");
        assert_eq!(summary.violations, 16, "{summary:?}");
        assert_eq!(
            summary.disconnected, 12,
            "each pair is disconnected by exactly its two edge uplinks"
        );
        assert_eq!(summary.count(Outcome::Loop), 0);
    }

    /// The exhaustive topo15 classification, pinned per dataplane: every
    /// `(src, dst, single-link-failure)` case under auto-planned full
    /// protection. These are regression anchors — a forwarder or planner
    /// change that shifts any count must be reviewed against them.
    ///
    /// Notable facts the table proves:
    ///
    /// * **HP, AVP and NIP never lose a deliverable packet**: all 6
    ///   blackholes (and AVP/NIP's 6 loops) are edge-uplink cuts that
    ///   physically disconnect the pair — violations are 0.
    /// * **NIP dominates**: 120 delivered with no TTL-exceeded tail; HP
    ///   random-walks into 22 TTL-bounded wanderings, AVP into 10.
    /// * Without deflection, 16 survivable failures blackhole.
    #[test]
    fn exhaustive_topo15_classification_is_pinned() {
        let topo = topo15::build();
        let cache = EncodingCache::new();
        // (technique, delivered, ttl, blackhole, loop, violations)
        let expected = [
            (DeflectionTechnique::None, 104, 0, 28, 0, 16),
            (DeflectionTechnique::HotPotato, 104, 22, 6, 0, 0),
            (DeflectionTechnique::Avp, 110, 10, 6, 6, 0),
            (DeflectionTechnique::Nip, 120, 0, 6, 6, 0),
        ];
        for (technique, delivered, ttl, blackhole, looped, violations) in expected {
            let results = verify_failure_sets(&topo, technique, &Protection::AutoFull, &cache, 1)
                .unwrap()
                .results;
            let s = summarize_sets(&results);
            assert_eq!(s.total, 132, "{technique}");
            assert_eq!(s.count(Outcome::Delivered), delivered, "{technique}: {s:?}");
            assert_eq!(s.count(Outcome::WrongEdge), 0, "{technique}: {s:?}");
            assert_eq!(s.count(Outcome::TtlExceeded), ttl, "{technique}: {s:?}");
            assert_eq!(s.count(Outcome::Blackhole), blackhole, "{technique}: {s:?}");
            assert_eq!(s.count(Outcome::Loop), looped, "{technique}: {s:?}");
            assert_eq!(s.disconnected, 12, "{technique}: {s:?}");
            assert_eq!(s.violations, violations, "{technique}: {s:?}");
            // The resilience guarantee, stated directly: every connected
            // case under a deflecting dataplane ends lossless or
            // TTL-bounded — never a blackhole, never a loop.
            if technique != DeflectionTechnique::None {
                for case in results.iter().filter(|c| !c.disconnected) {
                    assert!(
                        !matches!(case.report.outcome, Outcome::Blackhole | Outcome::Loop),
                        "{technique}: {:?} -> {:?} failing {:?}: {:?}",
                        case.src,
                        case.dst,
                        case.failed,
                        case.report.outcome
                    );
                }
            }
        }
    }
}
