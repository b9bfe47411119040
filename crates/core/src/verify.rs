//! Exhaustive resilience verification of encoded routes.
//!
//! Simulation samples one random trajectory per packet; this module
//! explores *all* of them. A packet inside the core is fully described
//! by `(switch, input port, deflected-flag)` — KAR cores are stateless,
//! so the forwarding relation over those states is finite and can be
//! enumerated. Each technique reads only part of that triple, so the
//! explorer keeps only that part: `(switch, deflected)` for HP, the
//! switch alone for AVP and `None`, `(switch, input port)` for NIP
//! (`State::canonical`). States that differ only in a field the
//! technique does not read have the same moves and the same successors,
//! so the smaller graph is a bisimulation quotient of the full one and
//! every answer read off it but the state count and the choice of
//! loop-witness cycle is the full graph's. [`verify_route`] builds that
//! state graph for one encoded route under one failure set, taking every
//! move of the switch rule [`KarForwarder`] draws one move from (residue
//! first, then the technique's deflection candidate set), and classifies
//! what can happen to a packet:
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
//! a projection shares the memo's one report (an `Arc`). Many distinct
//! projections still give equal reports (on rnp28 at k = 3, HP's 38 725
//! explorations give 642 distinct reports over its 12 pairs), so a pair
//! holds one report per distinct answer, however many explorations
//! found it, and every case it classifies is lent that report. An
//! exploration whose answer the pair already holds builds nothing: its
//! answer is read off the graph into scratch, matched against the held
//! reports field by field, and only a new answer becomes a report.
//! Cycle detection is one Tarjan pass over the seen states, never TTL
//! exhaustion, so the cost per exploration is bounded by the state
//! count, not the hop budget.
//!
//! The explorations a pair does need all run on its one [`Explorer`],
//! and most of what they compute does not depend on the failure set.
//! The explorer gives every `(route key, state)` it reaches a persistent
//! dense id, reduces each `(route key, switch)` residue once, and caches
//! what each move from each state leads to (a successor id or an edge).
//! A failure set masks a state's moves only through the ports of the
//! state's own switch, so each state also keeps its *clean list* (where
//! each of its moves leads with every port of its switch up), and a
//! state at a switch no failed link touches is expanded by copying it.
//! The one hash probe per state and per move happens on first sight; a
//! warm exploration is a BFS over ids that reads arrays.
//!
//! That BFS builds the state graph as a value, and the report is read
//! off it afterwards. The graph has one edge per move, and three
//! absorbing sinks stand for the ends of a trajectory: delivered, wrong
//! edge and dropped. A state whose switch must drop has one edge, into
//! the drop sink. So a reached sink is a `can_*` flag, the drop sink's
//! predecessor chain is the blackhole witness, and a trap is a cyclic
//! strongly connected component that no edge leaves. One Tarjan pass
//! from the root answers both cycle questions, whether there is a cycle
//! and which trap it completes first, without building the components:
//! whether an edge leaves its component is known when the edge is taken
//! (an edge into a state still on Tarjan's stack never does). A graph
//! whose edges between states all go forward in discovery order skips
//! the pass (it is acyclic). The tables grow with the states reached,
//! never with the node count.
//!
//! That BFS is the one traversal of the move relation. It starts from
//! any `(route key, state)`: an exploration roots it at the switch past
//! the source uplink, and every per-case query roots one fresh
//! explorer's search where the query starts and then walks the graph.
//! [`check_trajectory`] walks the subset of states consistent with each
//! prefix of a traced path, and [`crate::analysis`]'s driven walks and
//! coverage follow states with exactly one move. All wrong edges share
//! one sink, so a query that needs the host reads it off the move's port
//! (the state's filled step-cache slots, in a fresh explorer exactly its
//! moves).
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
//! as the one-core loop did. Nothing a worker computes depends on
//! another worker or on timing, so the `KSweep` — every pair's fold and
//! all four [`SweepStats`] counters — is the same at any worker count;
//! `crates/core/tests/verify_differential.rs` holds the one-core sweep
//! as the oracle.
//!
//! ### What a sweep keeps
//!
//! A sweep has C(L, k) cases per pair (158 928 on rnp28 at k = 3), and
//! exact verification is coNP-hard, so what it keeps must not grow with
//! them. It does not store a row per case: each pair *folds* its cases
//! as they are classified, through a [`PairFold`] that the sweep lends
//! every `(failed set, disconnected, report)` in set order. The
//! production fold, [`PairSweep`], keeps the pair's [`VerifySummary`],
//! per failed link how many cases blackhole or loop, and the first
//! [`OFFENDERS`] connected violations with their reports — every answer
//! a caller reads, in O(links) per pair. When the pair is done, its
//! verifier (memo, explorer and held reports) is dropped; only the
//! offenders' reports outlive it, because they are the witnesses a
//! failed gate prints. A test that needs every row folds into a
//! `Vec` of [`FailureSetResult`]s through the same loop
//! ([`fold_failure_sets`]).
//!
//! [`min_failure_set`] is the breaking-point search built on the same
//! machinery: the lexicographically smallest failure set of minimum size
//! that blackholes or loops a pair without disconnecting it.
//!
//! [`KarForwarder`]: crate::KarForwarder

use crate::cache::EncodingCache;
use crate::deflect::{rule, DeflectionTechnique, Move, NO_PORT};
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

/// A packet's core-network state: where it is, where it came from, and
/// whether it has ever been deflected (the only bit of header state the
/// techniques consult). The explorer keeps each state in its
/// [`State::canonical`] form, which holds only what the technique reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct State {
    pub(crate) node: NodeId,
    pub(crate) in_port: PortIx,
    pub(crate) deflected: bool,
}

impl State {
    /// A packet at switch `node` that came from its neighbour `from`, or
    /// from nowhere in particular ([`NO_PORT`]).
    pub(crate) fn arrived(
        topo: &Topology,
        node: NodeId,
        from: Option<NodeId>,
        deflected: bool,
    ) -> State {
        let in_port = from.and_then(|f| topo.port_towards(node, f));
        State {
            node,
            in_port: in_port.unwrap_or(NO_PORT),
            deflected,
        }
    }

    /// The state with only what `technique`'s [`possible_moves`] reads,
    /// the other fields set to [`NO_PORT`] and `false`: HP reads the
    /// deflected bit and not the input port, AVP and `None` read
    /// neither, and NIP reads the input port and not the bit. `None`,
    /// AVP and NIP copy the bit into their residue move's flag, but
    /// `step` hands that flag to a successor that drops it here again.
    /// So two states with one canonical form have
    /// the same moves and the same canonical successors: the canonical
    /// states are a bisimulation quotient of the full ones, and every
    /// report field but `states` and the choice of loop-witness cycle is
    /// the same on either.
    pub(crate) fn canonical(self, technique: DeflectionTechnique) -> State {
        match technique {
            DeflectionTechnique::HotPotato => State {
                in_port: NO_PORT,
                ..self
            },
            DeflectionTechnique::None | DeflectionTechnique::Avp => State {
                in_port: NO_PORT,
                deflected: false,
                ..self
            },
            DeflectionTechnique::Nip => State {
                deflected: false,
                ..self
            },
        }
    }
}

/// The edge node a move surfaces at. (A forced drop is not a move: it is
/// [`possible_moves`] leaving its buffer empty.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Terminal {
    Delivered,
    WrongEdge(NodeId),
}

/// Which route a packet carries after each hop — the move relation's
/// one degree of freedom, read by the explorer's search, whose graph
/// both [`verify_route`] and the trajectory checker
/// ([`check_trajectory`]) walk. A flat route
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
    /// Reachable states explored, each holding only what the technique
    /// reads: `(switch, deflected)` for HP, the switch for AVP and
    /// `None`, `(switch, in-port)` for NIP.
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
/// (cleared first; left empty when the switch must drop): the switch's
/// [`rule`], the one [`crate::KarForwarder`] draws from, over the ports
/// whose link `is_failed` does not name. The residue's port keeps the
/// state's deflected bit; each port of a deflection set sets it.
///
/// This is the one move generator. The explorer's search calls it, and
/// the trajectory checker and [`crate::analysis`]'s driven walks and
/// coverage walk that search's graph; besides, only the protection
/// planner's deflection candidates (one hop, no `step`) and the tests
/// call it, each with its own representation of the failure set behind
/// `is_failed`.
pub(crate) fn possible_moves(
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
    let answer = rule(
        topo,
        state.node,
        technique,
        computed,
        state.in_port,
        state.deflected,
        port_up,
        |p| moves.push((p, true)),
    );
    if let Move::Residue(p) = answer {
        moves.push((p, state.deflected));
    }
}

/// Where the move `(port, deflected)` from `state` lands: a successor
/// state, canonical for `technique`, with the route it then carries (a
/// re-stamp is a fresh tag, so the deflected bit clears too) or the edge
/// node it surfaces at.
fn step<A: ActiveRoute>(
    topo: &Topology,
    active: &mut A,
    dst: NodeId,
    technique: DeflectionTechnique,
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
    Ok((restamp.unwrap_or(key), next.canonical(technique)))
}

/// The link the ingress edge `src` transmits into, and the state,
/// canonical for `technique`, a packet enters the core in through it.
fn entry<A: ActiveRoute>(
    topo: &Topology,
    active: &A,
    src: NodeId,
    technique: DeflectionTechnique,
) -> (LinkId, State) {
    let uplink = topo.node(src).ports[active.route(active.ingress()).uplink as usize];
    let first = topo.link(uplink).peer_of(src);
    let in_port = topo.link(uplink).port_on(first);
    let state = State {
        node: first,
        in_port,
        deflected: false,
    };
    (uplink, state.canonical(technique))
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

/// Hasher of the explorer's two maps, of [`PairVerifier`]'s memo and
/// report table, and of an [`Answer`]'s fingerprint: one rotate, xor and
/// multiply per word. Their keys are node ids, port numbers, route keys
/// and link ids this program made itself, never outside input, so
/// SipHash's flooding resistance buys nothing there and costs most of a
/// probe.
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
    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(LinkId(i * 64 + bit))
            })
        })
    }
    /// The members, ascending, in a vector allocated once.
    fn to_sorted_vec(&self) -> Vec<LinkId> {
        let count = self.0.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(count);
        out.extend(self.iter());
        out
    }
}

const NO_STATE: u32 = u32::MAX;
/// A hop of the step cache not taken yet.
const UNKNOWN: u32 = u32::MAX;
/// A hop that surfaces at the destination edge.
const DELIVERED: u32 = u32::MAX - 1;
/// A hop that surfaces at another edge.
const WRONG_EDGE: u32 = u32::MAX - 2;
/// The one edge out of a state whose switch must drop.
const DROPPED: u32 = u32::MAX - 3;
/// The absorbing sinks of a [`StateGraph`], one per code above.
const SINKS: usize = 3;
/// The local index of a search's root: the first past the sinks.
pub(crate) const ROOT: u32 = SINKS as u32;
/// A state whose clean list is not recorded yet.
const NO_LIST: u32 = u32::MAX;

/// The local index of the sink whose code is `code` ([`DELIVERED`],
/// [`WRONG_EDGE`] or [`DROPPED`]: 0, 1, 2), or an index past the sinks
/// for an interned id.
fn sink(code: u32) -> usize {
    (DELIVERED - code) as usize
}

/// A `(route key, switch)` an explorer has reached: the residue the key's
/// route names there, the exploration that last put the switch's ports
/// into `relevant`, and whether one of those ports is down in it.
struct Site<K> {
    key: K,
    node: NodeId,
    residue: PortIx,
    seen: u32,
    dirty: bool,
}

/// A `(route key, state)` an explorer has reached, under its dense id:
/// its site holds the key and the switch, this the rest of the state.
#[derive(Clone, Copy)]
struct Interned {
    /// Index of the state's `(key, switch)` in [`StateTable::sites`].
    site: u32,
    /// Where the state's hops start in [`StateTable::hops`], one per port
    /// of its switch.
    hops: u32,
    /// Where the state's clean list starts in [`StateTable::lists`], or
    /// [`NO_LIST`] while it is not recorded.
    list: u32,
    in_port: PortIx,
    deflected: bool,
}

/// The exploration that last reached an interned state, and the state's
/// local index in it. Kept apart from [`Interned`] so that the check
/// every move makes reads eight dense bytes.
#[derive(Clone, Copy)]
struct Mark {
    seen: u32,
    local: u32,
}

/// Everything an explorer has learned that no failure set changes: a
/// dense id per `(route key, state)` ever reached, the residue per
/// `(route key, switch)`, what `step` returned for each move taken
/// from each state, and each state's moves with every port of its switch
/// up. Hash probes happen here, once per state and site on first sight.
struct StateTable<K> {
    ids: WordMap<(K, State), u32>,
    site_ids: WordMap<(K, NodeId), u32>,
    states: Vec<Interned>,
    marks: Vec<Mark>,
    sites: Vec<Site<K>>,
    /// Per interned state and port, what the move out of that port
    /// does: the successor's id, [`DELIVERED`], [`WRONG_EDGE`] or
    /// [`UNKNOWN`]. One slot per port suffices because a state takes
    /// each port with one flag only — its residue port with its own bit,
    /// any other port as a deflection — so the flag is a function of the
    /// slot, and `step` keeps it only where the technique reads it, HP
    /// (debug builds re-run `step` on every cached hop).
    hops: Vec<u32>,
    /// Per interned state whose clean list is recorded, that list: its
    /// length, then the code of each of its edges in move order — a
    /// successor's id, [`DELIVERED`], [`WRONG_EDGE`], or [`DROPPED`]
    /// alone at a switch that must drop — as its expansion with every
    /// port of its switch up gives them, and so as any failure set that
    /// fails none of those ports does.
    lists: Vec<u32>,
}

impl<K: Copy + Eq + Hash> StateTable<K> {
    /// The id of `(key, state)`, interned with its site and an unknown
    /// hop per port on first sight.
    fn intern<A: ActiveRoute<Key = K>>(
        &mut self,
        topo: &Topology,
        active: &A,
        at: (K, State),
    ) -> u32 {
        let StateTable {
            ids,
            site_ids,
            states,
            marks,
            sites,
            hops,
            lists: _,
        } = self;
        *ids.entry(at).or_insert_with(|| {
            let (key, state) = at;
            let site = *site_ids.entry((key, state.node)).or_insert_with(|| {
                let residue = residue_at(topo, active.route(key), state.node);
                sites.push(Site {
                    key,
                    node: state.node,
                    residue,
                    seen: 0,
                    dirty: false,
                });
                sites.len() as u32 - 1
            });
            let first_hop = hops.len() as u32;
            hops.resize(hops.len() + topo.node(state.node).ports.len(), UNKNOWN);
            states.push(Interned {
                site,
                hops: first_hop,
                list: NO_LIST,
                in_port: state.in_port,
                deflected: state.deflected,
            });
            marks.push(Mark { seen: 0, local: 0 });
            states.len() as u32 - 1
        })
    }

    /// The move `mv` from interned state `at`, run through `step` and
    /// encoded as a hop.
    fn hop<A: ActiveRoute<Key = K>>(
        &mut self,
        topo: &Topology,
        active: &mut A,
        dst: NodeId,
        technique: DeflectionTechnique,
        at: (K, State),
        mv: (PortIx, bool),
    ) -> u32 {
        match step(topo, active, dst, technique, at, mv) {
            Err(Terminal::Delivered) => DELIVERED,
            Err(Terminal::WrongEdge(_)) => WRONG_EDGE,
            Ok(next) => self.intern(topo, active, next),
        }
    }

    /// Whether interned state `id`'s clean list, at `head` in
    /// [`StateTable::lists`], is what [`possible_moves`] and `step` give
    /// afresh under the failure test `is_failed` — asked by debug builds
    /// each time a list is used, without allocating.
    #[allow(clippy::too_many_arguments)]
    fn clean_list_agrees<A: ActiveRoute<Key = K>>(
        &mut self,
        topo: &Topology,
        active: &mut A,
        dst: NodeId,
        technique: DeflectionTechnique,
        is_failed: impl Fn(LinkId) -> bool,
        id: u32,
        head: usize,
        moves: &mut Vec<(PortIx, bool)>,
    ) -> bool {
        let at = self.states[id as usize];
        let site = &self.sites[at.site as usize];
        let key = site.key;
        let state = State {
            node: site.node,
            in_port: at.in_port,
            deflected: at.deflected,
        };
        possible_moves(topo, site.residue, technique, is_failed, state, moves);
        let len = self.lists[head] as usize;
        let dropped = moves.is_empty() && len == 1 && self.lists[head + 1] == DROPPED;
        dropped
            || len == moves.len()
                && (0..len).all(|k| {
                    let code = self.hop(topo, active, dst, technique, (key, state), moves[k]);
                    code == self.lists[head + 1 + k]
                })
    }
}

/// The state graph one exploration reached, over local indices: three
/// absorbing sinks first (delivered, wrong edge, drop: local
/// [`sink`] of [`DELIVERED`], [`WRONG_EDGE`], [`DROPPED`]), then the
/// states in discovery order. Each move is one edge, into the state or
/// the sink it leads to; a state whose switch must drop has one edge,
/// into the drop sink; a sink has none.
struct StateGraph {
    /// The code of each local: the sinks' own, then the states'
    /// interned ids — the vector is its own BFS queue, a cursor chasing
    /// its end.
    order: Vec<u32>,
    /// The local each was first reached from ([`NO_STATE`] for the root
    /// and for a sink not reached).
    pred: Vec<u32>,
    /// The edges out of local `i`, in move order:
    /// `succ[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    /// Whether some edge between states does not go forward in
    /// discovery order — the only way the graph can have a cycle.
    backward: bool,
    /// Scratch of [`StateGraph::classify`]: the Tarjan pass, the loop
    /// witness walk's states visited and each state's position in that
    /// walk, and the two witnesses' switches, which an [`Answer`] lends.
    tarjan: Tarjan,
    walk: Vec<u32>,
    walk_pos: Vec<u32>,
    loop_nodes: Vec<NodeId>,
    drop_nodes: Vec<NodeId>,
}

/// What one exploration found: every field of a [`VerifyReport`],
/// none of them owned. The witnesses are the explorer's scratch and the
/// relevant links its bitmap, so reading an answer allocates nothing;
/// [`Answer::report`] builds the report, and [`Answer::is`] tells
/// whether a report already built is this answer.
struct Answer<'e> {
    outcome: Outcome,
    can_deliver: bool,
    can_wrong_edge: bool,
    can_blackhole: bool,
    has_cycle: bool,
    states: usize,
    loop_witness: Option<&'e [NodeId]>,
    blackhole_witness: Option<&'e [NodeId]>,
    relevant: &'e LinkBits,
}

impl Answer<'_> {
    /// The report that holds this answer.
    fn report(&self) -> VerifyReport {
        VerifyReport {
            outcome: self.outcome,
            can_deliver: self.can_deliver,
            can_wrong_edge: self.can_wrong_edge,
            can_blackhole: self.can_blackhole,
            has_cycle: self.has_cycle,
            states: self.states,
            loop_witness: self.loop_witness.map(<[NodeId]>::to_vec),
            blackhole_witness: self.blackhole_witness.map(<[NodeId]>::to_vec),
            relevant_links: self.relevant.to_sorted_vec(),
        }
    }

    /// A hash of every field, the relevant links as their bitmap's
    /// words: equal answers of one verifier (whose bitmaps have one
    /// length) have equal fingerprints.
    fn fingerprint(&self) -> u64 {
        let mut h = WordHasher::default();
        h.mix(self.outcome as u64);
        let flags = [
            self.can_deliver,
            self.can_wrong_edge,
            self.can_blackhole,
            self.has_cycle,
        ];
        h.mix(flags.iter().fold(0, |bits, &f| bits << 1 | u64::from(f)));
        h.mix(self.states as u64);
        for witness in [self.loop_witness, self.blackhole_witness] {
            let nodes = witness.unwrap_or_default();
            h.mix(witness.map_or(u64::MAX, |_| nodes.len() as u64));
            nodes.iter().for_each(|n| h.mix(n.0 as u64));
        }
        self.relevant.0.iter().for_each(|&word| h.mix(word));
        h.finish()
    }

    /// Whether `report` holds this answer, field by field.
    fn is(&self, report: &VerifyReport) -> bool {
        let relevant_links = report.relevant_links.iter().copied();
        self.outcome == report.outcome
            && self.can_deliver == report.can_deliver
            && self.can_wrong_edge == report.can_wrong_edge
            && self.can_blackhole == report.can_blackhole
            && self.has_cycle == report.has_cycle
            && self.states == report.states
            && self.loop_witness == report.loop_witness.as_deref()
            && self.blackhole_witness == report.blackhole_witness.as_deref()
            && self.relevant.iter().eq(relevant_links)
    }
}

impl StateGraph {
    /// Adds the edge with code `code` out of the state being expanded
    /// (the last one `succ_start` opened), reaching its target on first
    /// sight.
    fn edge(&mut self, marks: &mut [Mark], epoch: u32, code: u32) {
        let from = self.succ_start.len() as u32 - 1;
        let to = match sink(code) {
            s if s < SINKS => {
                if self.pred[s] == NO_STATE {
                    self.pred[s] = from;
                }
                s as u32
            }
            _ => {
                let mark = &mut marks[code as usize];
                if mark.seen != epoch {
                    mark.seen = epoch;
                    mark.local = self.order.len() as u32;
                    self.order.push(code);
                    self.pred.push(from);
                }
                self.backward |= mark.local <= from;
                mark.local
            }
        };
        self.succ.push(to);
    }

    /// Reads the answer off the graph, into its scratch: a reached sink
    /// sets its `can_*`, the drop sink's predecessor chain is the
    /// blackhole witness, and a cyclic component that no edge leaves is
    /// a trap — an inescapable loop. One Tarjan pass from the root tells
    /// both whether the graph has a cycle and which trap it completes
    /// first; the loop witness is a cycle of that trap. `relevant` is the
    /// exploration's relevant links, and `node` names the switch of an
    /// interned state.
    fn classify<'e>(
        &'e mut self,
        src: NodeId,
        relevant: &'e LinkBits,
        node: impl Fn(u32) -> NodeId,
    ) -> Answer<'e> {
        let StateGraph {
            order,
            pred,
            succ_start,
            succ,
            backward,
            tarjan,
            walk,
            walk_pos,
            loop_nodes,
            drop_nodes,
        } = self;
        let reached = |code: u32| pred[sink(code)] != NO_STATE;
        let node_of = |i: u32| node(order[i as usize]);

        let can_blackhole = reached(DROPPED);
        drop_nodes.clear();
        if can_blackhole {
            drop_nodes.push(src);
            let mut cur = pred[sink(DROPPED)];
            while cur != NO_STATE {
                drop_nodes.push(node_of(cur));
                cur = pred[cur as usize];
            }
            drop_nodes[1..].reverse();
        }

        let (has_cycle, trap) = if *backward {
            tarjan.run(succ_start, succ)
        } else {
            (false, None)
        };
        loop_nodes.clear();
        if let Some(first) = trap {
            // One concrete cycle through the trap: from the member Tarjan
            // popped first, always the first successor, until a state
            // repeats. No edge leaves a trap, so every successor of a
            // member is inside it.
            walk.clear();
            walk_pos.clear();
            walk_pos.resize(order.len(), NO_STATE);
            let mut cur = first;
            while walk_pos[cur as usize] == NO_STATE {
                walk_pos[cur as usize] = walk.len() as u32;
                walk.push(cur);
                cur = succ[succ_start[cur as usize] as usize];
            }
            let cycle = &walk[walk_pos[cur as usize] as usize..];
            loop_nodes.extend(cycle.iter().map(|&i| node_of(i)));
        }

        let (loop_nodes, drop_nodes): (&[NodeId], &[NodeId]) = (loop_nodes, drop_nodes);
        let answer = Answer {
            outcome: if trap.is_some() {
                Outcome::Loop
            } else if can_blackhole {
                Outcome::Blackhole
            } else if has_cycle {
                Outcome::TtlExceeded
            } else if reached(WRONG_EDGE) {
                Outcome::WrongEdge
            } else {
                debug_assert!(reached(DELIVERED), "acyclic, lossless, on-target graph");
                Outcome::Delivered
            },
            can_deliver: reached(DELIVERED),
            can_wrong_edge: reached(WRONG_EDGE),
            can_blackhole,
            has_cycle,
            states: order.len() - SINKS,
            loop_witness: trap.map(|_| loop_nodes),
            blackhole_witness: can_blackhole.then_some(drop_nodes),
            relevant,
        };
        #[cfg(test)]
        oracle::check(succ_start, succ, node_of, &answer);
        answer
    }
}

/// The exhaustive explorer of one route, reusable across failure sets.
///
/// It keeps what an exploration learns that does *not* depend on the
/// failure set, in its state table: every `(route key, state)` it ever
/// reached gets a persistent dense id (the one hash probe, on first
/// sight), with the residue of its `(route key, switch)` reduced once,
/// a step cache holding, per id and port it leaves by, the successor's
/// id or the edge the move surfaces at, and a *clean list* per id: the
/// codes of its edges with every port of its switch up. A failure set
/// changes a state's moves only through the ports of the state's own
/// switch, so an exploration marks a switch *dirty* when one of its
/// ports is down, expands a state at a clean switch by copying its
/// clean list, and runs `possible_moves` over the step cache only at
/// dirty switches or where no list is recorded yet. A state records its
/// list at its first clean expansion after the exploration that interned
/// it, copied from the edges that expansion wrote, so a fresh explorer
/// (a [`verify_route`] call) records none.
///
/// An exploration is a BFS that fills one `StateGraph` over ids — a
/// warm one reads arrays and makes no hash probe per move — and then
/// reads the answer off that graph into the explorer's scratch: the
/// `can_*` flags, the drop sink's predecessor chain, and one Tarjan pass
/// for the cycle and the first trap. The BFS is a search from any root;
/// the crate's per-case queries (the trajectory checker, driven walks
/// and coverage) each run it once on a fresh explorer and walk the
/// graph. An epoch stamp per id gives each reached state its local
/// index in discovery order, so the graph and everything read off it
/// (the Tarjan pass's order, the witnesses) are the same as a fresh
/// explorer's; a switch's ports go into `relevant` once per exploration,
/// also by stamp. When every edge between states goes forward in
/// discovery order, the graph is acyclic and the Tarjan pass is skipped
/// — it could find nothing. Every buffer is kept from one call to the
/// next, so a warmed explorer allocates only what the returned report
/// owns, and a [`PairVerifier`] exploration whose answer it already
/// holds allocates nothing. All of it is derived data:
/// [`Explorer::explore`] returns the same report from a reused explorer
/// as from a fresh one (`tests/verify_differential.rs`), and debug
/// builds re-run `step` on every cached hop and re-expand every state
/// taken from its clean list under the real failure set, and assert
/// they agree.
///
/// The tables make an explorer belong to one `(topology, route,
/// destination, technique)`: hand every call the same `topo`, `active`,
/// `dst` and `technique` (debug builds assert the last; the interned
/// states are canonical for it).
///
/// Tables grow with the states reached (one hop per port of each, and a
/// clean list of at most as many edges) and the link count (two
/// bitmaps), never with the node count: a dense
/// per-node table would charge every [`crate::verify_hier_route`] call
/// on a large ring for the whole topology, so ids are handed out by a
/// hash map on first sight. A new explorer makes room for 128
/// states at once, so a fresh [`verify_route`] does not pay for growing
/// a dozen tables one doubling at a time.
pub struct Explorer<K> {
    table: StateTable<K>,
    /// The current exploration's stamp (never 0, the stamp of nothing).
    epoch: u32,
    failed: LinkBits,
    relevant: LinkBits,
    graph: StateGraph,
    moves: Vec<(PortIx, bool)>,
    /// The technique of the first search, which debug builds hold every
    /// later search to: the interned states are canonical for it.
    technique: Option<DeflectionTechnique>,
}

/// The states a new explorer makes room for at once. An rnp28
/// exploration reaches 16–46 states on average at k = 3, and growing the
/// tables and local arrays from empty, one doubling at a time, made a
/// fresh [`verify_route`] there about a third dearer.
const ROOM: usize = 128;

impl<K: Copy + Eq + Hash> Default for Explorer<K> {
    fn default() -> Self {
        Explorer {
            table: StateTable {
                ids: WordMap::with_capacity_and_hasher(ROOM, Default::default()),
                site_ids: WordMap::with_capacity_and_hasher(ROOM / 4, Default::default()),
                states: Vec::with_capacity(ROOM),
                marks: Vec::with_capacity(ROOM),
                sites: Vec::with_capacity(ROOM / 4),
                hops: Vec::with_capacity(8 * ROOM),
                lists: Vec::new(),
            },
            epoch: 0,
            failed: LinkBits::default(),
            relevant: LinkBits::default(),
            graph: StateGraph {
                order: Vec::with_capacity(ROOM),
                pred: Vec::with_capacity(ROOM),
                succ_start: Vec::with_capacity(ROOM + 1),
                succ: Vec::with_capacity(4 * ROOM),
                backward: false,
                tarjan: Tarjan::default(),
                walk: Vec::new(),
                walk_pos: Vec::new(),
                loop_nodes: Vec::new(),
                drop_nodes: Vec::new(),
            },
            moves: Vec::new(),
            technique: None,
        }
    }
}

impl<K: Copy + Eq + Hash> Explorer<K> {
    /// An explorer that has seen nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exhaustively classifies `active` under the failure set `failed`
    /// — what [`verify_route`] returns, on this explorer's tables.
    pub fn explore<A: ActiveRoute<Key = K>>(
        &mut self,
        topo: &Topology,
        active: &mut A,
        src: NodeId,
        dst: NodeId,
        technique: DeflectionTechnique,
        failed: impl IntoIterator<Item = LinkId>,
    ) -> VerifyReport {
        self.answer(topo, active, src, dst, technique, failed)
            .report()
    }

    /// The exploration behind [`Explorer::explore`], its answer read
    /// into the explorer's scratch and not built into a report.
    fn answer<A: ActiveRoute<Key = K>>(
        &mut self,
        topo: &Topology,
        active: &mut A,
        src: NodeId,
        dst: NodeId,
        technique: DeflectionTechnique,
        failed: impl IntoIterator<Item = LinkId>,
    ) -> Answer<'_> {
        self.fail(topo, failed);
        // The edge transmits blindly into its uplink; a failed uplink kills
        // every packet of the flow at hop zero.
        let (uplink, initial) = entry(topo, active, src, technique);
        if self.failed.contains(uplink) {
            #[cfg(test)]
            oracle::UPLINK_DOWN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.relevant.reset(topo.link_count());
            self.relevant.insert(uplink);
            self.graph.drop_nodes.clear();
            self.graph.drop_nodes.push(src);
            return Answer {
                outcome: Outcome::Blackhole,
                can_deliver: false,
                can_wrong_edge: false,
                can_blackhole: true,
                has_cycle: false,
                states: 0,
                loop_witness: None,
                blackhole_witness: Some(&self.graph.drop_nodes),
                relevant: &self.relevant,
            };
        }
        debug_assert!(
            topo.switch_id(initial.node).is_some(),
            "uplink peer is a core switch"
        );
        self.search(topo, active, dst, technique, (active.ingress(), initial));
        // The search consulted the ports of every switch it reached; the
        // uplink's status was read above.
        self.relevant.insert(uplink);
        let Explorer {
            table,
            relevant,
            graph,
            ..
        } = self;
        let node = |id: u32| table.sites[table.states[id as usize].site as usize].node;
        graph.classify(src, relevant, node)
    }

    /// Makes `failed` the failure set the next search runs under.
    fn fail(&mut self, topo: &Topology, failed: impl IntoIterator<Item = LinkId>) {
        self.failed.reset(topo.link_count());
        // A link id the topology does not have fails nothing.
        failed
            .into_iter()
            .filter(|l| l.0 < topo.link_count())
            .for_each(|l| self.failed.insert(l));
    }

    /// The one search of the move relation: a BFS from `root` under the
    /// failure set last given to [`Explorer::fail`] that fills the state
    /// graph, one edge per move and a predecessor per state and sink for
    /// the witnesses, and puts into `relevant` every link it consults —
    /// `possible_moves` reads the status of every port of the current
    /// switch, and `step` follows a port of that same switch, so the full
    /// port list of each reached switch covers every status read.
    fn search<A: ActiveRoute<Key = K>>(
        &mut self,
        topo: &Topology,
        active: &mut A,
        dst: NodeId,
        technique: DeflectionTechnique,
        root: (K, State),
    ) {
        let Explorer {
            table,
            epoch,
            failed: down,
            relevant,
            graph,
            moves,
            technique: seen,
        } = self;
        debug_assert_eq!(
            *seen.get_or_insert(technique),
            technique,
            "an explorer serves one technique"
        );
        debug_assert_eq!(
            root.1,
            root.1.canonical(technique),
            "a search starts canonical"
        );
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            table.marks.iter_mut().for_each(|m| m.seen = 0);
            table.sites.iter_mut().for_each(|s| s.seen = 0);
            *epoch = 1;
        }
        let epoch = *epoch;
        relevant.reset(topo.link_count());
        // States interned before this search; only those record a clean
        // list, so that a fresh search copies nothing.
        let known = table.states.len();
        let root = table.intern(topo, active, root);
        table.marks[root as usize] = Mark {
            seen: epoch,
            local: ROOT,
        };
        graph.order.clear();
        graph.order.extend([DELIVERED, WRONG_EDGE, DROPPED, root]);
        graph.pred.clear();
        graph.pred.resize(SINKS + 1, NO_STATE);
        graph.succ_start.clear();
        graph.succ_start.resize(SINKS, 0);
        graph.succ.clear();
        graph.backward = false;
        let mut i = SINKS;
        while let Some(&id) = graph.order.get(i) {
            let at = table.states[id as usize];
            let site = &mut table.sites[at.site as usize];
            let key = site.key;
            let state = State {
                node: site.node,
                in_port: at.in_port,
                deflected: at.deflected,
            };
            if site.seen != epoch {
                site.seen = epoch;
                site.dirty = false;
                for &l in &topo.node(state.node).ports {
                    relevant.insert(l);
                    site.dirty |= down.contains(l);
                }
            }
            // Only the ports of its own switch change a state's moves, so
            // at a clean site they are its clean list.
            let clean = !site.dirty;
            let computed = site.residue;
            debug_assert_eq!(
                computed,
                residue_at(topo, active.route(key), state.node),
                "an explorer serves one route"
            );
            let is_failed = |l| down.contains(l);
            graph.succ_start.push(graph.succ.len() as u32);
            if clean && at.list != NO_LIST {
                let head = at.list as usize;
                debug_assert!(
                    table.clean_list_agrees(
                        topo, active, dst, technique, is_failed, id, head, moves
                    ),
                    "a clean list is what the moves under the failure set give"
                );
                for &code in &table.lists[head + 1..][..table.lists[head] as usize] {
                    graph.edge(&mut table.marks, epoch, code);
                }
            } else {
                possible_moves(topo, computed, technique, is_failed, state, moves);
                if moves.is_empty() {
                    graph.edge(&mut table.marks, epoch, DROPPED);
                }
                for &mv in moves.iter() {
                    let slot = at.hops as usize + mv.0 as usize;
                    let mut code = table.hops[slot];
                    if code == UNKNOWN {
                        code = table.hop(topo, active, dst, technique, (key, state), mv);
                        table.hops[slot] = code;
                    }
                    debug_assert_eq!(
                        code,
                        table.hop(topo, active, dst, technique, (key, state), mv),
                        "a cached hop is what step returns"
                    );
                    graph.edge(&mut table.marks, epoch, code);
                }
                if clean && (id as usize) < known {
                    // The state's first clean expansion after the
                    // exploration that interned it records its list,
                    // copied from the edges just written.
                    let edges = &graph.succ[graph.succ_start[i] as usize..];
                    table.states[id as usize].list = table.lists.len() as u32;
                    table.lists.push(edges.len() as u32);
                    table
                        .lists
                        .extend(edges.iter().map(|&j| graph.order[j as usize]));
                }
            }
            i += 1;
        }
        graph.succ_start.push(graph.succ.len() as u32);
    }

    /// A fresh explorer that has searched everything reachable from
    /// `root` under `failed`: the graph a per-case query walks
    /// ([`check_trajectory`], and [`crate::analysis`]'s driven walks and
    /// coverage). Its root is local [`ROOT`].
    pub(crate) fn searched<A: ActiveRoute<Key = K>>(
        topo: &Topology,
        active: &mut A,
        dst: NodeId,
        technique: DeflectionTechnique,
        failed: &HashSet<LinkId>,
        root: (K, State),
    ) -> Self {
        let mut explorer = Explorer::new();
        explorer.fail(topo, failed.iter().copied());
        let root = (root.0, root.1.canonical(technique));
        explorer.search(topo, active, dst, technique, root);
        explorer
    }

    /// The switch of state local `i` of the last search.
    pub(crate) fn node_of(&self, i: u32) -> NodeId {
        let id = self.graph.order[i as usize];
        self.table.sites[self.table.states[id as usize].site as usize].node
    }

    /// The moves out of state local `i` of the last search, in move
    /// order, read off its edges as `step` gave them: the local of the
    /// state a move lands in, or the edge node it surfaces at. A state
    /// whose switch must drop has none (its one edge is into the drop
    /// sink).
    ///
    /// All wrong edges share one sink, so the host a move surfaces at is
    /// the peer of the port it leaves by. In a fresh explorer's search
    /// the state's filled step-cache slots are exactly its moves, and
    /// moves are in ascending port order, so the k-th filled slot is the
    /// k-th edge's port; debug builds assert that the slots' codes are
    /// the edges'. A reused explorer's slots also hold other searches'
    /// moves: only [`Explorer::searched`] graphs are read this way.
    pub(crate) fn moves_of<'a>(
        &'a self,
        topo: &'a Topology,
        i: u32,
    ) -> impl Iterator<Item = Result<u32, Terminal>> + 'a {
        let graph = &self.graph;
        let at = self.table.states[graph.order[i as usize] as usize];
        let node = self.table.sites[at.site as usize].node;
        let ports = &topo.node(node).ports;
        let slots = &self.table.hops[at.hops as usize..][..ports.len()];
        let start = &graph.succ_start[i as usize..];
        let edges = &graph.succ[start[0] as usize..start[1] as usize];
        let taken = (0..).zip(slots).filter(|&(_, &code)| code != UNKNOWN);
        let codes = edges.iter().map(|&j| graph.order[j as usize]);
        debug_assert!(
            codes.clone().eq(taken.clone().map(|(_, &code)| code))
                || codes.eq([DROPPED]) && taken.clone().next().is_none(),
            "a fresh search's filled slots are the state's moves"
        );
        taken
            .zip(edges)
            .map(move |((port, _), &to)| match graph.order[to as usize] {
                DELIVERED => Err(Terminal::Delivered),
                WRONG_EDGE => Err(Terminal::WrongEdge(
                    topo.link(ports[port as usize]).peer_of(node),
                )),
                _ => Ok(to),
            })
    }

    /// Whether `path[skip..]` is a trajectory of the last search from its
    /// root, at `path[skip - 1]`, that ends the way `end` claims. The
    /// deflected flag and input port are not in the path, so this walks
    /// the subset of locals consistent with each prefix: a core hop
    /// follows moves into states at that switch, an edge hop needs a move
    /// that surfaces at that very edge, and a forced drop needs a state
    /// with no move.
    fn explains(
        &self,
        topo: &Topology,
        dst: NodeId,
        technique: DeflectionTechnique,
        path: &[NodeId],
        skip: usize,
        end: TrajectoryEnd,
    ) -> Result<(), String> {
        let mut frontier = vec![ROOT];
        let mut terminal = None;
        for (i, &next) in path.iter().enumerate().skip(skip) {
            if terminal.is_some() {
                return Err(format!("path continues past an edge at hop {}", i - 1));
            }
            let mut reached = Vec::new();
            for mv in frontier.iter().flat_map(|&j| self.moves_of(topo, j)) {
                match mv {
                    Ok(to) if self.node_of(to) == next && !reached.contains(&to) => {
                        reached.push(to)
                    }
                    Err(t @ Terminal::Delivered) if next == dst => terminal = Some(t),
                    Err(t @ Terminal::WrongEdge(at)) if next == at => terminal = Some(t),
                    _ => {}
                }
            }
            if reached.is_empty() && terminal.is_none() {
                return Err(format!(
                    "no move of {technique} explains hop {:?} -> {next:?} (index {i})",
                    path[i - 1]
                ));
            }
            frontier = reached;
        }
        let drops = |&j: &u32| self.moves_of(topo, j).next().is_none();
        let explained = match end {
            TrajectoryEnd::Delivered => terminal == Some(Terminal::Delivered),
            TrajectoryEnd::WrongEdge => matches!(terminal, Some(Terminal::WrongEdge(_))),
            TrajectoryEnd::ForcedDrop => frontier.iter().any(drops),
            TrajectoryEnd::TtlExpired | TrajectoryEnd::Truncated => terminal.is_none(),
        };
        if explained {
            Ok(())
        } else {
            Err(format!(
                "no consistent state ends {end:?} where the path ends, at {:?}",
                path.last()
            ))
        }
    }
}

/// One pass of iterative Tarjan over a state graph's flat edge lists,
/// from [`ROOT`], that answers the two questions a report asks of the
/// graph's cycles without building its components: does it have a
/// cycle, and which is the first trap — a cyclic component that no edge
/// leaves — that Tarjan completes. Its arrays are kept between runs.
/// Iterative because NIP walks on larger topologies can produce graphs
/// deeper than the default stack would like.
///
/// Whether an edge leaves its component is known when the edge is
/// taken, before the component is: an edge into a finished state (a
/// sink is finished from the start) leaves, and so does a tree edge
/// into a child whose component completes when the child returns. An
/// edge into a state still on Tarjan's stack never leaves: that state's
/// component is still open, so its root is on the call path and reaches
/// the edge's source. So a component is a trap exactly when it is
/// cyclic — more than one member, or a self-loop — and none of its
/// members took an edge that leaves.
#[derive(Default)]
struct Tarjan {
    visits: Vec<Visit>,
    stack: Vec<u32>,
    /// (state, next successor position)
    call: Vec<(u32, u32)>,
}

/// Tarjan's record of one local.
#[derive(Clone, Copy)]
struct Visit {
    /// Discovery index, [`NO_STATE`] while unvisited.
    index: u32,
    low: u32,
    on_stack: bool,
    /// One of the local's edges leaves its component.
    exits: bool,
    /// One of the local's edges is into itself.
    self_loop: bool,
}

const UNVISITED: Visit = Visit {
    index: NO_STATE,
    low: 0,
    on_stack: false,
    exits: false,
    self_loop: false,
};

impl Tarjan {
    /// Whether the graph where local `v`'s edges are
    /// `succ[succ_start[v]..succ_start[v + 1]]` has a cycle, and the
    /// member popped first of the first trap Tarjan completes — the pass
    /// ends there. Every local must be reachable from [`ROOT`], and the
    /// sinks before it have no edges.
    fn run(&mut self, succ_start: &[u32], succ: &[u32]) -> (bool, Option<u32>) {
        let n = succ_start.len() - 1;
        let Tarjan {
            visits,
            stack,
            call,
        } = self;
        visits.clear();
        visits.resize(
            SINKS,
            Visit {
                index: 0,
                ..UNVISITED
            },
        );
        visits.resize(n, UNVISITED);
        stack.clear();
        call.clear();
        call.push((ROOT, 0));
        let mut counter = 0u32;
        let mut has_cycle = false;
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            let vi = v as usize;
            if *pos == 0 {
                visits[vi] = Visit {
                    index: counter,
                    low: counter,
                    on_stack: true,
                    ..UNVISITED
                };
                counter += 1;
                stack.push(v);
            }
            let next = succ_start[vi] + *pos;
            if next < succ_start[vi + 1] {
                let w = succ[next as usize];
                *pos += 1;
                let to = visits[w as usize];
                let at = &mut visits[vi];
                if to.index == NO_STATE {
                    call.push((w, 0));
                } else if to.on_stack {
                    at.low = at.low.min(to.index);
                    at.self_loop |= w == v;
                } else {
                    at.exits = true;
                }
            } else {
                call.pop();
                let Visit { index, low, .. } = visits[vi];
                if low == index {
                    let first = *stack.last().expect("v is on the stack");
                    let (mut members, mut self_loop, mut exits) = (0, false, false);
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        let at = &mut visits[w as usize];
                        at.on_stack = false;
                        members += 1;
                        self_loop |= at.self_loop;
                        exits |= at.exits;
                        if w == v {
                            break;
                        }
                    }
                    let cyclic = members > 1 || self_loop;
                    has_cycle |= cyclic;
                    if cyclic && !exits {
                        return (true, Some(first));
                    }
                    // The parent's edge into v leaves the parent's
                    // component: v's is complete.
                    if let Some(&(parent, _)) = call.last() {
                        visits[parent as usize].exits = true;
                    }
                } else if let Some(&(parent, _)) = call.last() {
                    let at = &mut visits[parent as usize];
                    at.low = at.low.min(low);
                }
            }
        }
        (has_cycle, None)
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

/// A [`PairVerifier`] memo key: a projection, ascending. One of at most
/// four links with ids below 2³² — every projection of a sweep at k ≤ 4
/// — is held inline, so a new memo entry allocates nothing for its key
/// and a key takes the space of a `Vec`'s handle. A longer projection
/// is boxed, to be looked up as well as to be stored.
#[derive(PartialEq, Eq)]
enum Projection {
    Inline(u8, [u32; 4]),
    Heap(Box<[LinkId]>),
}

impl Projection {
    fn new(links: &[LinkId]) -> Self {
        let mut ids = [0; 4];
        let fits = links.len() <= ids.len()
            && (links.iter().zip(&mut ids))
                .all(|(l, id)| u32::try_from(l.0).map(|l| *id = l).is_ok());
        if fits {
            Projection::Inline(links.len() as u8, ids)
        } else {
            Projection::Heap(links.into())
        }
    }
}

impl Hash for Projection {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Projection::Inline(len, ids) => {
                state.write_u8(*len);
                (ids[..*len as usize].iter()).for_each(|&id| state.write_u64(id.into()));
            }
            Projection::Heap(links) => links.hash(state),
        }
    }
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
///
/// Distinct projections often explore to equal reports, so a verifier
/// keeps one report per distinct answer and builds a report only for an
/// answer it does not hold yet. An exploration's answer is read off its
/// graph into the explorer's scratch, fingerprinted with its relevant
/// links' bitmap, and compared field by field with the held reports of
/// that fingerprint; when one holds it, the memo entry shares that
/// `Arc` and nothing was built. Since a report is only ever shared where
/// it is equal in every field to the one the exploration would have
/// built, what [`PairVerifier::classify`] returns is unchanged.
pub struct PairVerifier<'a> {
    topo: &'a Topology,
    route: EncodedRoute,
    src: NodeId,
    dst: NodeId,
    technique: DeflectionTechnique,
    explorer: Explorer<()>,
    memo: WordMap<Projection, Arc<VerifyReport>>,
    /// Every report the memo holds, once per distinct content, under
    /// its answer's [`Answer::fingerprint`].
    reports: WordMap<u64, Vec<Arc<VerifyReport>>>,
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
            memo: WordMap::default(),
            reports: WordMap::default(),
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
    /// would — the verifier's one report with that content, shared
    /// rather than copied.
    pub fn classify(&mut self, failed: &[LinkId]) -> Arc<VerifyReport> {
        let mut proj = std::mem::take(&mut self.proj);
        proj.clear();
        let mut ran = false;
        loop {
            let key = Projection::new(&proj);
            let report = match self.memo.get(&key) {
                Some(report) => report,
                None => {
                    let answer = self.explorer.answer(
                        self.topo,
                        &mut &self.route,
                        self.src,
                        self.dst,
                        self.technique,
                        proj.iter().copied(),
                    );
                    self.explored += 1;
                    ran = true;
                    let held = self.reports.entry(answer.fingerprint()).or_default();
                    let report = match held.iter().find(|report| answer.is(report)) {
                        Some(report) => Arc::clone(report),
                        None => {
                            let report = Arc::new(answer.report());
                            held.push(Arc::clone(&report));
                            report
                        }
                    };
                    self.memo.entry(key).or_insert(report)
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

/// One `(pair, failure set)` case of a sweep: what [`PairSweep`] keeps
/// of each offender, and the row a test's [`PairFold`] collects.
#[derive(Debug, Clone)]
pub struct FailureSetResult {
    /// Ingress edge.
    pub src: NodeId,
    /// Destination edge.
    pub dst: NodeId,
    /// The simultaneously failed links, ascending.
    pub failed: Arc<[LinkId]>,
    /// `true` when the set physically disconnects `src` from `dst`.
    pub disconnected: bool,
    /// The exhaustive classification, shared with every other case of
    /// the pair whose report is equal.
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

/// What a sweep keeps of one pair's cases: [`fold_failure_sets`] makes
/// one per pair and lends it every case of size k, sets lexicographic.
/// A case is lent, not given: a fold that keeps the set copies it, and
/// one that keeps the report clones the `Arc` (the pair's one report
/// for that answer).
pub trait PairFold {
    /// An empty fold for the pair `src → dst` of a topology with `links`
    /// links.
    fn new(src: NodeId, dst: NodeId, links: usize) -> Self;

    /// Folds one case: the failed links (ascending), whether they
    /// disconnect the pair, and the case's classification.
    fn case(&mut self, failed: &[LinkId], disconnected: bool, report: &Arc<VerifyReport>);
}

/// How many connected violations a [`PairSweep`] keeps, with their
/// reports.
pub const OFFENDERS: usize = 10;

/// The production [`PairFold`]: one pair's share of a
/// [`verify_failure_sets`] sweep, in O(links) whatever the case count.
#[derive(Debug, Clone)]
pub struct PairSweep {
    /// Ingress edge.
    pub src: NodeId,
    /// Destination edge.
    pub dst: NodeId,
    /// The pair's cases, counted.
    pub summary: VerifySummary,
    /// What the pair's sweep cost.
    pub stats: SweepStats,
    /// Per failed link (indexed by [`LinkId`]), the cases classified
    /// [`Outcome::Blackhole`] that fail it, disconnected ones included.
    pub blackholes: Vec<usize>,
    /// The same for [`Outcome::Loop`].
    pub loops: Vec<usize>,
    /// The first [`OFFENDERS`] connected blackhole or loop cases, in set
    /// order — the only cases whose reports outlive the pair's verifier.
    pub offenders: Vec<FailureSetResult>,
}

impl PairFold for PairSweep {
    fn new(src: NodeId, dst: NodeId, links: usize) -> Self {
        PairSweep {
            src,
            dst,
            summary: VerifySummary::default(),
            stats: SweepStats::default(),
            blackholes: vec![0; links],
            loops: vec![0; links],
            offenders: Vec::new(),
        }
    }

    fn case(&mut self, failed: &[LinkId], disconnected: bool, report: &Arc<VerifyReport>) {
        self.summary.record(report.outcome, disconnected);
        let per_link = match report.outcome {
            Outcome::Blackhole => &mut self.blackholes,
            Outcome::Loop => &mut self.loops,
            _ => return,
        };
        for l in failed {
            per_link[l.0] += 1;
        }
        if !disconnected && self.offenders.len() < OFFENDERS {
            self.offenders.push(FailureSetResult {
                src: self.src,
                dst: self.dst,
                failed: failed.into(),
                disconnected,
                report: Arc::clone(report),
            });
        }
    }
}

/// A k-failure sweep over every ordered edge pair.
#[derive(Debug, Clone)]
pub struct KSweep {
    /// One fold per pair, in edge order.
    pub results: Vec<PairSweep>,
    /// What the sweep cost and what the prunings saved: the pairs'
    /// counters, summed.
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

/// The one sweep loop of a pair, behind [`fold_failure_sets`] and
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

/// Exhaustively verifies every ordered edge pair of `topo` against
/// every failure set of exactly `k` links, with shortest-path routes
/// under `protection`, and folds each pair's cases into a
/// [`PairSweep`]. `k = 1` is the single-link-failure sweep, the paper's
/// resilience claim.
///
/// See the module docs for why this scales: projection memoization
/// (most sets are equivalent to a much smaller one), monotone
/// disconnection pruning seeded from the smaller set sizes (swept only
/// for that), and the path-witness connectivity test. What it returns
/// does not grow with the cases: per pair, the summary, per-link
/// blackhole and loop counts and the first [`OFFENDERS`] connected
/// violations — the only reports kept, since a report is what a reader
/// of a violation needs and the counts are all a reader of the rest
/// does. [`fold_failure_sets`] runs the same sweep with another fold.
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
    let mut sweep = KSweep {
        results: Vec::new(),
        stats: SweepStats::default(),
    };
    for (mut pair, stats) in fold_failure_sets::<PairSweep>(topo, technique, protection, cache, k)?
    {
        pair.stats = stats;
        sweep.stats += stats;
        sweep.results.push(pair);
    }
    Ok(sweep)
}

/// The one k-failure sweep, generic over what each pair keeps: every
/// ordered edge pair of `topo` with a route (in edge order) and its
/// fold of every `k`-set, with the pair's counters.
///
/// The pairs are swept on [`std::thread::available_parallelism`]
/// workers, the calling thread among them (the count follows the
/// process's CPU affinity: under `taskset -c 0` the caller sweeps
/// alone, through the same loop). Routes are encoded first,
/// in pair order, so the cache and the error returned are a serial
/// sweep's. The unit of work is one pair: a worker runs its pairs in
/// pair order, and every pair has its own [`PairVerifier`], path
/// witness and fold — so no answer and no counter depends on which
/// worker ran what, or when. The result is a pure function of `(topo,
/// technique, protection, k)`: the same folds at any worker count.
///
/// # Errors
///
/// As [`verify_failure_sets`].
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn fold_failure_sets<F: PairFold + Send>(
    topo: &Topology,
    technique: DeflectionTechnique,
    protection: &Protection,
    cache: &EncodingCache,
    k: usize,
) -> Result<Vec<(F, SweepStats)>, KarError> {
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
    let sweep = |i: usize| {
        let (src, dst) = ends[i];
        let mut pv = PairVerifier::new(topo, routes[i].clone(), src, dst, technique);
        let mut cut = CutTest::new(topo, src, dst);
        let mut fold = F::new(src, dst, links);
        let mut stats = SweepStats::default();
        let mut cases = 0;
        let is_cut = |failed: &[LinkId]| cut.is_cut(failed);
        let visit = |failed: &[LinkId], disconnected| {
            if failed.len() == k {
                cases += 1;
                fold.case(failed, disconnected, &pv.classify(failed));
            }
            ControlFlow::<()>::Continue(())
        };
        sweep_pair(links, k, &mut stats.disconnect_pruned, is_cut, visit);
        stats.cases = cases;
        stats.explored = pv.explored;
        stats.memo_hits = pv.memo_hits;
        (fold, stats)
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
    let mut swept: Vec<Option<(F, SweepStats)>> = ends.iter().map(|_| None).collect();
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
    Ok(swept
        .into_iter()
        .map(|pair| pair.expect("every pair has a worker"))
        .collect())
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
/// port are not in the trace, so the check searches the move relation
/// from the switch past the uplink on a fresh [`Explorer`] and walks its
/// graph as an NFA: it keeps every state (canonical for `technique`)
/// consistent with the observed prefix and demands at least one of them
/// explains each next hop — and, at the end, the claimed fate.
///
/// This is the bridge the differential tests stand on. `KarForwarder`
/// and [`verify_route`]'s `possible_moves` read one switch rule, so what
/// a divergence here exposes is the engine around it: the port status a
/// switch observed, the input port, the deflected bit or a re-stamp,
/// surfacing as an inexplicable hop.
#[allow(clippy::too_many_arguments)] // mirrors verify_route's surface plus the observed path
pub fn check_trajectory<A: ActiveRoute>(
    topo: &Topology,
    mut active: A,
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
    let (uplink, root) = entry(topo, &active, src, technique);
    let dead = failed.contains(&uplink);
    if dead || path.len() == 1 {
        // The edge transmits blindly into a dead uplink: the packet dies
        // on hop zero, whatever the technique.
        let ends = end == TrajectoryEnd::Truncated || dead && end == TrajectoryEnd::ForcedDrop;
        return if path.len() == 1 && ends {
            Ok(())
        } else {
            Err(format!(
                "{path:?} cannot end {end:?} (uplink failed: {dead})"
            ))
        };
    }
    if path[1] != root.node {
        return Err(format!(
            "first hop must follow the uplink to {:?}, got {:?}",
            root.node, path[1]
        ));
    }
    let root = (active.ingress(), root);
    Explorer::searched(topo, &mut active, dst, technique, failed, root)
        .explains(topo, dst, technique, path, 2, end)
}

/// Checks a traced path *suffix* beginning at a core switch against the
/// move relation, from an explicit starting state.
///
/// [`check_trajectory`] always enters the network through `route`'s
/// ingress uplink; this variant instead roots the search at `path[0]` (a
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
    if topo.switch_id(start).is_none() || in_port as usize >= topo.node(start).ports.len() {
        return Err(format!(
            "suffix must start at a core switch's port, got {start:?}/{in_port}"
        ));
    }
    let root = State {
        node: start,
        in_port,
        deflected,
    };
    Explorer::searched(topo, &mut &*route, dst, technique, failed, ((), root))
        .explains(topo, dst, technique, path, 1, end)
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

impl AddAssign<&VerifySummary> for VerifySummary {
    fn add_assign(&mut self, other: &VerifySummary) {
        self.total += other.total;
        for (mine, theirs) in self.by_outcome.iter_mut().zip(other.by_outcome) {
            *mine += theirs;
        }
        self.disconnected += other.disconnected;
        self.violations += other.violations;
    }
}

/// A sweep's counts: its pairs' summaries, added up. `violations` are
/// connected cases that still black-hole or loop.
pub fn summarize_sets(results: &[PairSweep]) -> VerifySummary {
    let mut s = VerifySummary::default();
    for pair in results {
        s += &pair.summary;
    }
    s
}

/// The components pass the one Tarjan pass replaced, kept as its
/// oracle: full Tarjan from every local, component tables, and a second
/// pass over the components for cycles and traps. Every exploration of
/// a test build runs it beside [`Tarjan`] and asserts they agree.
#[cfg(test)]
mod oracle {
    use super::{Answer, NodeId, NO_STATE};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Explorations whose one pass the oracle has checked, process-wide.
    pub(super) static CHECKED: AtomicUsize = AtomicUsize::new(0);
    /// Explorations that ended at a failed uplink, with no graph to
    /// check.
    pub(super) static UPLINK_DOWN: AtomicUsize = AtomicUsize::new(0);

    /// Asserts that `answer`'s `has_cycle` and loop witness are what the
    /// components pass reads off the same graph.
    pub(super) fn check(
        succ_start: &[u32],
        succ: &[u32],
        node_of: impl Fn(u32) -> NodeId,
        answer: &Answer,
    ) {
        let (has_cycle, loop_witness) = cycles(succ_start, succ, node_of);
        assert_eq!(answer.has_cycle, has_cycle, "one pass ≡ components: cycle");
        assert_eq!(
            answer.loop_witness,
            loop_witness.as_deref(),
            "one pass ≡ components: loop witness"
        );
        CHECKED.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the graph has a cycle, and the loop witness: from the
    /// first member of the first trap component in emission order, the
    /// first successor that stays inside, until a state repeats. Runs
    /// whether or not the graph has a backward edge.
    pub(super) fn cycles(
        succ_start: &[u32],
        succ: &[u32],
        node_of: impl Fn(u32) -> NodeId,
    ) -> (bool, Option<Vec<NodeId>>) {
        let (mut has_cycle, mut loop_witness) = (false, None);
        let (mut walk, mut walk_pos) = (Vec::new(), Vec::new());
        let mut sccs = Sccs::default();
        let succs_of = |i: u32| {
            let start = &succ_start[i as usize..];
            &succ[start[0] as usize..start[1] as usize]
        };
        sccs.run(succ_start, succ);
        for (sid, scc) in sccs.iter().enumerate() {
            if scc.len() == 1 && !succs_of(scc[0]).contains(&scc[0]) {
                continue;
            }
            has_cycle = true;
            let inside = |&j: &u32| sccs.of[j as usize] == sid as u32;
            let trapped = scc.iter().all(|&i| succs_of(i).iter().all(inside));
            if trapped && loop_witness.is_none() {
                // One concrete cycle through the trap: from its first
                // member, always the first successor that stays inside,
                // until a state repeats.
                walk.clear();
                walk_pos.clear();
                walk_pos.resize(succ_start.len() - 1, NO_STATE);
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
                loop_witness = Some(cycle.iter().map(|&i| node_of(i)).collect());
            }
        }
        (has_cycle, loop_witness)
    }

    /// Strongly-connected components of the state graph: iterative Tarjan
    /// over the state graph's flat edge lists, its arrays kept between
    /// runs. Iterative because NIP walks on larger topologies can produce
    /// graphs deeper than the default stack would like.
    #[derive(Default)]
    pub(super) struct Sccs {
        idx: Vec<u32>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<u32>,
        /// (state, next successor position)
        call: Vec<(u32, u32)>,
        /// The component of each state.
        pub(super) of: Vec<u32>,
        /// Component `c` is `members[start[c]..start[c + 1]]`, components
        /// and members both in the order Tarjan pops them.
        members: Vec<u32>,
        start: Vec<u32>,
    }

    impl Sccs {
        /// The components of the last [`Sccs::run`], in emission order.
        pub(super) fn iter(&self) -> impl Iterator<Item = &[u32]> {
            self.start
                .windows(2)
                .map(|w| &self.members[w[0] as usize..w[1] as usize])
        }

        /// Decomposes the graph where state `v`'s successors are
        /// `succ[succ_start[v]..succ_start[v + 1]]`.
        pub(super) fn run(&mut self, succ_start: &[u32], succ: &[u32]) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RouteSpec;
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
    fn only_delivered_and_wrong_edge_are_lossless() {
        use Outcome::*;
        let lossless: Vec<Outcome> = [Delivered, WrongEdge, TtlExceeded, Blackhole, Loop]
            .into_iter()
            .filter(|o| o.is_lossless())
            .collect();
        assert_eq!(lossless, [Delivered, WrongEdge]);
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

    /// Checks every graph an exploration builds on `topo` — every ordered
    /// pair of edges, every failure set of at most two links, all four
    /// techniques, unprotected and fully protected, one explorer per
    /// pair and technique so that clean lists are copied as well as
    /// computed. Each state has `max(1, |possible_moves|)` edges: one
    /// per move, into what `step` gives, or the one into the drop sink.
    /// A sink has none, and a sink is reached exactly when the report
    /// says the packet can end there. Returns how many graphs were
    /// checked, and how many states have two edges into one sink.
    fn check_one_edge_per_move(topo: &Topology) -> (usize, usize) {
        let cache = EncodingCache::new();
        let ends = topo.edge_nodes();
        let sets: Vec<Vec<LinkId>> = (0..=2)
            .flat_map(|k| all_sets(topo.link_count(), k))
            .map(|set| set.into_iter().map(LinkId).collect())
            .collect();
        let (mut graphs, mut shared, mut moves) = (0, 0, Vec::new());
        for protection in [Protection::None, Protection::AutoFull] {
            for (&src, &dst) in ends.iter().flat_map(|s| ends.iter().map(move |d| (s, d))) {
                if src == dst {
                    continue;
                }
                let primary = paths::bfs_shortest_path(topo, src, dst).unwrap();
                let route = cache
                    .encode_with_protection(topo, primary, &protection)
                    .unwrap();
                for technique in DeflectionTechnique::ALL {
                    let mut explorer = Explorer::new();
                    for failed in &sets {
                        let case =
                            format!("{protection:?} {technique} {src:?}->{dst:?} {failed:?}");
                        let is_failed = |l| failed.contains(&l);
                        let links = failed.iter().copied();
                        let report =
                            explorer.explore(topo, &mut &route, src, dst, technique, links);
                        if report.states == 0 {
                            // A failed uplink: the packet dies at the edge.
                            assert!(report.can_blackhole, "{case}");
                            continue;
                        }
                        graphs += 1;
                        let (table, graph) = (&explorer.table, &explorer.graph);
                        let reached = |code: u32| graph.succ.contains(&(sink(code) as u32));
                        assert_eq!(reached(DELIVERED), report.can_deliver, "{case}");
                        assert_eq!(reached(WRONG_EDGE), report.can_wrong_edge, "{case}");
                        assert_eq!(reached(DROPPED), report.can_blackhole, "{case}");
                        assert_eq!(graph.succ_start[SINKS], 0, "{case}: a sink has no edge");
                        assert_eq!(graph.order.len() - SINKS, report.states, "{case}");
                        for i in SINKS..graph.order.len() {
                            let at = table.states[graph.order[i] as usize];
                            let state = State {
                                node: table.sites[at.site as usize].node,
                                in_port: at.in_port,
                                deflected: at.deflected,
                            };
                            let computed = residue_at(topo, &route, state.node);
                            possible_moves(topo, computed, technique, is_failed, state, &mut moves);
                            let edges =
                                graph.succ_start[i] as usize..graph.succ_start[i + 1] as usize;
                            let out = &graph.succ[edges];
                            assert_eq!(out.len(), moves.len().max(1), "{case}: {state:?}");
                            let codes: Vec<u32> =
                                out.iter().map(|&j| graph.order[j as usize]).collect();
                            let mut want: Vec<u32> = moves
                                .iter()
                                .map(|&mv| {
                                    match step(topo, &mut &route, dst, technique, ((), state), mv) {
                                        Ok(next) => table.ids[&next],
                                        Err(Terminal::Delivered) => DELIVERED,
                                        Err(Terminal::WrongEdge(_)) => WRONG_EDGE,
                                    }
                                })
                                .collect();
                            if want.is_empty() {
                                want.push(DROPPED);
                            }
                            assert_eq!(codes, want, "{case}: {state:?}");
                            let into = |s: u32| out.iter().filter(|&&j| j == s).count();
                            shared += usize::from((0..SINKS as u32).any(|s| into(s) > 1));
                        }
                    }
                }
            }
        }
        (graphs, shared)
    }

    #[test]
    fn one_edge_per_move_and_reached_sinks_match_the_report() {
        // topo15 gives every switch at most one host, so no state has
        // two moves into one sink there.
        assert_eq!(check_one_edge_per_move(&topo15::build()), (11_136, 0));
        // Switch A has two hosts: with A's other ports down, HP and AVP
        // deflect into both, two edges into the wrong-edge sink.
        let (graphs, shared) = check_one_edge_per_move(&two_host_triangle(&[]));
        assert!(graphs > 0 && shared > 0, "{graphs} graphs, {shared} shared");
    }

    /// Three switches A, B and C (ids 5, 7, 11) in a triangle, A with
    /// two hosts H0 and H1, C with H2, and B with the hosts `on_b` names.
    fn two_host_triangle(on_b: &[&str]) -> Topology {
        let mut b = kar_topology::TopologyBuilder::new();
        let (a, s, c) = (b.core("A", 5), b.core("B", 7), b.core("C", 11));
        let mut hosts = vec![(b.edge("H0"), a), (b.edge("H1"), a), (b.edge("H2"), c)];
        for name in on_b {
            hosts.push((b.edge(name), s));
        }
        for (x, y) in [(a, s), (s, c), (a, c)].into_iter().chain(hosts) {
            b.link(x, y, kar_topology::LinkParams::default());
        }
        b.build().unwrap()
    }

    /// Every wrong edge goes into one sink of the state graph, so which
    /// host a packet surfaces at is read off the move's port. A's two
    /// hosts must stay apart in the trajectory check, the driven walk and
    /// coverage.
    #[test]
    fn a_wrong_edge_names_the_host_the_move_reaches() {
        use crate::analysis::{driven_walk_from, failure_coverage, DrivenOutcome};
        use DeflectionTechnique::Nip;
        let topo = two_host_triangle(&["H3"]);
        let [a, b, c] = ["A", "B", "C"].map(|name| topo.expect(name));
        let [h0, h1, h2, h3] = ["H0", "H1", "H2", "H3"].map(|name| topo.expect(name));
        // With both of A's core links down, NIP can only deflect a
        // packet from one of A's hosts into the other.
        let cut: HashSet<LinkId> = [topo.expect_link("A", "B"), topo.expect_link("A", "C")]
            .into_iter()
            .collect();
        for (src, other) in [(h0, h1), (h1, h0)] {
            let spec = RouteSpec::unprotected(vec![src, a, c, h2]);
            let route = EncodedRoute::encode(&topo, &spec).unwrap();
            let check = |path: &[NodeId]| {
                let end = TrajectoryEnd::WrongEdge;
                check_trajectory(&topo, &route, src, h2, Nip, &cut, path, end)
            };
            check(&[src, a, other]).unwrap();
            assert!(check(&[src, a, src]).is_err(), "{src:?} is the input");
            let walk = driven_walk_from(&topo, &route, a, Some(src), h2, &cut);
            assert_eq!(walk, DrivenOutcome::WrongEdge { at: other });
        }
        // Entered from B with A–C down, A has no core port left: NIP's
        // candidates are both its hosts, in port order.
        let primary = vec![h3, b, a, c, h2];
        let route = EncodedRoute::encode(&topo, &RouteSpec::unprotected(primary.clone())).unwrap();
        let cov = failure_coverage(&topo, &route, &primary, topo.expect_link("A", "C"), h2);
        assert_eq!(cov.deflecting_switch, a);
        assert_eq!(cov.candidates, vec![h0, h1]);
        assert!(cov.driven.is_empty());
    }

    /// The route a packet carries in the projection proptest: key 0 from
    /// the ingress, key 1 once it crosses a link whose bit the mask sets
    /// (a fresh tag, so `step` clears the deflected bit).
    struct Restamps(u16);

    impl ActiveRoute for Restamps {
        type Key = u8;
        fn ingress(&self) -> u8 {
            0
        }
        fn route(&self, _: u8) -> &EncodedRoute {
            unreachable!("step reads no route")
        }
        fn restamp(&mut self, _: &Topology, link: LinkId, _: NodeId) -> Option<u8> {
            (self.0 >> link.0 & 1 == 1).then_some(1)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 2_000,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// A switch of degree 1–12 whose neighbours are switches or hosts
        /// by `hosts`, its ports up by `up`, the links `restamps` names
        /// re-stamping, its residue `computed` and a packet in it from
        /// `in_port` (either past the degree names no port) with the bit
        /// `deflected`: under every technique the state and its canonical
        /// form have the same moves, and each move leads to the same
        /// canonical successor or edge.
        #[test]
        fn a_canonical_state_moves_like_the_full_one(
            degree in 1usize..13,
            hosts in proptest::prelude::any::<u16>(),
            up in proptest::prelude::any::<u16>(),
            restamps in proptest::prelude::any::<u16>(),
            computed in 0u64..14,
            (in_port, deflected) in (0u64..14, proptest::prelude::any::<bool>()),
        ) {
            const IDS: [u64; 13] = [41, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
            let mut b = kar_topology::TopologyBuilder::new();
            let a = b.core("A", IDS[0]);
            for i in 0..degree {
                let name = format!("N{i}");
                let peer = if hosts >> i & 1 == 1 {
                    b.edge(&name)
                } else {
                    b.core(&name, IDS[i + 1])
                };
                b.link(a, peer, kar_topology::LinkParams::default());
            }
            let topo = b.build().unwrap();
            let dst = topo.link(topo.node(a).ports[0]).peer_of(a);
            let down = |l: LinkId| up >> l.0 & 1 == 0;
            let full = State {
                node: a,
                in_port: if (in_port as usize) < degree { in_port } else { NO_PORT },
                deflected,
            };
            let mut active = Restamps(restamps);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            for technique in DeflectionTechnique::ALL {
                let canonical = full.canonical(technique);
                possible_moves(&topo, computed, technique, down, full, &mut want);
                possible_moves(&topo, computed, technique, down, canonical, &mut got);
                let ports = |moves: &[(PortIx, bool)]| moves.iter().map(|mv| mv.0).collect();
                let (got_ports, want_ports): (Vec<_>, Vec<_>) = (ports(&got), ports(&want));
                proptest::prop_assert_eq!(got_ports, want_ports, "{} {:?}", technique, full);
                for (&mv, &canonical_mv) in want.iter().zip(&got) {
                    let from_full = step(&topo, &mut active, dst, technique, (0, full), mv);
                    let from_canonical =
                        step(&topo, &mut active, dst, technique, (0, canonical), canonical_mv);
                    proptest::prop_assert_eq!(from_canonical, from_full, "{} {:?}", technique, full);
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
        assert_eq!(sweep.results.len(), 6);
        assert_eq!(sweep.stats.cases, 6 * 231);
        assert_eq!(summarize_sets(&sweep.results).total, 6 * 231);
        // A classify call either ends on a memo hit or ran at least one
        // exploration, so hits + explorations bound the cases from
        // below; the memo must still collapse a strict majority.
        assert!(
            sweep.stats.explored + sweep.stats.memo_hits >= sweep.stats.cases,
            "{:?}",
            sweep.stats
        );
        assert!(
            sweep.stats.explored < sweep.stats.cases / 2,
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
        assert_eq!(sweep.results.len(), 6);
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
            // TTL-bounded — no pair keeps a blackhole or loop offender.
            if technique != DeflectionTechnique::None {
                for pair in &results {
                    assert!(
                        pair.offenders.is_empty(),
                        "{technique}: {:?} -> {:?}: {:?}",
                        pair.src,
                        pair.dst,
                        pair.offenders
                    );
                }
            }
        }
    }
    /// A state graph shaped as an exploration leaves it, drawn from
    /// `seed`: the three sinks, then `states` states, each after the
    /// first entered by an edge from an earlier one (so every state is
    /// reachable from the root), at a random place among that state's
    /// edges. Each state has up to `extra` more edges, each into a sink
    /// (`sink_pct` percent), else into itself or one of the `span`
    /// states before it (`back_pct` percent), else into a later one; a
    /// state left with no edge gets one into a sink. Without sink edges
    /// every bottom component is closed, a short span makes self-loops
    /// and small cycles, and without backward edges the graph is a DAG.
    fn random_graph(
        seed: u64,
        states: usize,
        extra: usize,
        (sink_pct, back_pct): (u32, u32),
        span: usize,
    ) -> StateGraph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = SINKS + states;
        let mut edges: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut pred = vec![NO_STATE; n];
        for (i, out) in edges.iter_mut().enumerate().skip(SINKS) {
            for _ in 0..rng.gen_range(0..=extra) {
                let to = if rng.gen_range(0..100u32) < sink_pct || i + 1 == n {
                    rng.gen_range(0..SINKS)
                } else if rng.gen_range(0..100u32) < back_pct {
                    rng.gen_range(i.saturating_sub(span).max(SINKS)..=i)
                } else {
                    rng.gen_range(i + 1..n)
                };
                out.push(to as u32);
            }
        }
        for (i, parent) in pred.iter_mut().enumerate().skip(ROOT as usize + 1) {
            let from = rng.gen_range(ROOT as usize..i);
            let at = rng.gen_range(0..=edges[from].len());
            edges[from].insert(at, i as u32);
            *parent = from as u32;
        }
        let mut graph = Explorer::<()>::new().graph;
        graph.order.clear();
        graph.order.extend([DELIVERED, WRONG_EDGE, DROPPED]);
        graph.order.extend(ROOT..n as u32);
        graph.succ_start.clear();
        graph.succ.clear();
        for (i, out) in edges.iter_mut().enumerate() {
            if i >= SINKS && out.is_empty() {
                out.push(rng.gen_range(0..SINKS as u32));
            }
            for &to in out.iter() {
                let s = to as usize;
                if s < SINKS && pred[s] == NO_STATE {
                    pred[s] = i as u32;
                }
                graph.backward |= s >= SINKS && s <= i;
            }
            graph.succ_start.push(graph.succ.len() as u32);
            graph.succ.extend(&*out);
        }
        graph.succ_start.push(graph.succ.len() as u32);
        graph.pred = pred;
        graph
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 2_000,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The one Tarjan pass against the components oracle on random
        /// state graphs of up to 150 states: DAGs, self-loops, several
        /// closed components, and cyclic components with exits, each
        /// graph's shape set by how often an edge goes into a sink or
        /// backward. Both must give the same `has_cycle` and the same
        /// loop witness.
        #[test]
        fn one_pass_finds_the_cycles_and_trap_the_components_do(
            seed in proptest::prelude::any::<u64>(),
            states in 1usize..150,
            extra in 0usize..4,
            sink_pct in proptest::prop_oneof![proptest::strategy::Just(0u32), 0u32..60],
            // A DAG one time in four.
            back_pct in proptest::prop_oneof![
                proptest::strategy::Just(0u32), 0u32..=100, 0u32..=100, 0u32..=100
            ],
            span in proptest::prop_oneof![0usize..8, proptest::strategy::Just(150)],
        ) {
            let mut graph = random_graph(seed, states, extra, (sink_pct, back_pct), span);
            let node = |id: u32| NodeId(id as usize);
            let (has_cycle, loop_witness) =
                oracle::cycles(&graph.succ_start, &graph.succ, |i| node(graph.order[i as usize]));
            let relevant = LinkBits::default();
            let answer = graph.classify(NodeId(0), &relevant, node);
            proptest::prop_assert_eq!(answer.has_cycle, has_cycle);
            proptest::prop_assert_eq!(answer.loop_witness, loop_witness.as_deref());
            proptest::prop_assert_eq!(answer.outcome == Outcome::Loop, loop_witness.is_some());
        }
    }

    /// The shapes the proptest's graphs take, counted over a fixed batch
    /// drawn as the proptest draws them: some are acyclic, some have a
    /// self-loop, some two or more traps, and some a cyclic component
    /// with an exit ahead of a trap (214, 157, 40 and 21 of 400). A
    /// generator that lost one of these shapes would leave the one pass
    /// untested there.
    #[test]
    fn random_graphs_take_every_shape_the_one_pass_tells_apart() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(48);
        let (mut acyclic, mut self_loops, mut traps_2, mut escape_then_trap) = (0, 0, 0, 0);
        for seed in 0..400 {
            let sink_pct = if rng.gen_range(0..2) == 0 {
                0
            } else {
                rng.gen_range(0..60)
            };
            let back_pct = if rng.gen_range(0..4) == 0 {
                0
            } else {
                rng.gen_range(0..=100)
            };
            let span = if rng.gen_range(0..2) == 0 {
                150
            } else {
                rng.gen_range(0..8)
            };
            let (states, extra) = (rng.gen_range(1..150), rng.gen_range(0..4));
            let graph = random_graph(seed, states, extra, (sink_pct, back_pct), span);
            let mut sccs = oracle::Sccs::default();
            sccs.run(&graph.succ_start, &graph.succ);
            let succs_of = |i: u32| {
                &graph.succ[graph.succ_start[i as usize] as usize
                    ..graph.succ_start[i as usize + 1] as usize]
            };
            let mut kinds = Vec::new();
            for (sid, scc) in sccs.iter().enumerate() {
                let cyclic = scc.len() > 1 || succs_of(scc[0]).contains(&scc[0]);
                let inside = |&j: &u32| sccs.of[j as usize] == sid as u32;
                let closed = scc.iter().all(|&i| succs_of(i).iter().all(inside));
                if cyclic {
                    kinds.push(closed);
                }
            }
            let loops =
                (SINKS..graph.order.len()).filter(|&i| succs_of(i as u32).contains(&(i as u32)));
            acyclic += usize::from(kinds.is_empty());
            self_loops += usize::from(loops.count() > 0);
            traps_2 += usize::from(kinds.iter().filter(|&&closed| closed).count() >= 2);
            let first_trap = kinds.iter().position(|&closed| closed);
            escape_then_trap += usize::from(first_trap.is_some_and(|t| t > 0));
        }
        for (shape, count) in [
            ("acyclic", acyclic),
            ("self-loop", self_loops),
            ("two traps", traps_2),
            ("exit before a trap", escape_then_trap),
        ] {
            assert!(count >= 10, "{shape}: {count} of 400 graphs");
        }
    }

    /// Every exploration of a test build checks its one pass against the
    /// components oracle (`oracle::check`), so this runs the rnp28 k = 3
    /// sweeps of HP, AVP and NIP and asserts each exploration was
    /// checked, or ended at a failed uplink before building a graph.
    #[test]
    #[ignore = "three rnp28 k = 3 sweeps: about 5 s in a debug build"]
    fn one_pass_equals_the_components_on_every_rnp28_k3_exploration() {
        use std::sync::atomic::Ordering;
        let topo = kar_topology::rnp28::build();
        let cache = EncodingCache::new();
        for technique in [
            DeflectionTechnique::HotPotato,
            DeflectionTechnique::Avp,
            DeflectionTechnique::Nip,
        ] {
            let count = || {
                let checked = oracle::CHECKED.load(Ordering::Relaxed);
                checked + oracle::UPLINK_DOWN.load(Ordering::Relaxed)
            };
            let before = count();
            let sweep =
                verify_failure_sets(&topo, technique, &Protection::AutoFull, &cache, 3).unwrap();
            let seen = count() - before;
            assert!(
                seen >= sweep.stats.explored && sweep.stats.explored > 19_000,
                "{technique}: {seen} checked or graphless, {} explored",
                sweep.stats.explored
            );
        }
    }

    /// A held report is shared only with an answer equal to it in every
    /// field: on every topo15 case with k ≤ 2, every technique, an
    /// answer is its own report, and not that report with any one field
    /// changed — the relevant links included, since the memo grows
    /// projections from them.
    #[test]
    fn a_held_answer_is_only_its_own_report() {
        let topo = topo15::build();
        let cache = EncodingCache::new();
        let (src, dst) = (topo.expect("AS1"), topo.expect("AS3"));
        let primary = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        let route = cache
            .encode_with_protection(&topo, primary, &Protection::None)
            .unwrap();
        let sets: Vec<Vec<usize>> = (0..=2)
            .flat_map(|k| all_sets(topo.link_count(), k))
            .collect();
        let mut seen = HashSet::new();
        for technique in DeflectionTechnique::ALL {
            let mut explorer = Explorer::new();
            for failed in &sets {
                let failed = failed.iter().map(|&l| LinkId(l));
                let answer = explorer.answer(&topo, &mut &route, src, dst, technique, failed);
                let report = answer.report();
                seen.insert(report.outcome);
                assert!(answer.is(&report), "{technique}: {report:?}");
                let other_node = |w: &Option<Vec<NodeId>>| {
                    let mut w = w.clone().unwrap_or_default();
                    w.push(NodeId(usize::MAX));
                    Some(w)
                };
                let mut relevant_less = report.relevant_links.clone();
                relevant_less.pop();
                let mut relevant_more = report.relevant_links.clone();
                relevant_more.push(LinkId(topo.link_count()));
                let changed: [&dyn Fn(&mut VerifyReport); 12] = [
                    &|r| {
                        r.outcome = if r.outcome == Outcome::Loop {
                            Outcome::Delivered
                        } else {
                            Outcome::Loop
                        }
                    },
                    &|r| r.can_deliver ^= true,
                    &|r| r.can_wrong_edge ^= true,
                    &|r| r.can_blackhole ^= true,
                    &|r| r.has_cycle ^= true,
                    &|r| r.states += 1,
                    &|r| r.loop_witness = other_node(&r.loop_witness),
                    &|r| r.loop_witness = r.loop_witness.is_none().then(Vec::new),
                    &|r| r.blackhole_witness = other_node(&r.blackhole_witness),
                    &|r| r.blackhole_witness = r.blackhole_witness.is_none().then(Vec::new),
                    &|r| r.relevant_links = relevant_less.clone(),
                    &|r| r.relevant_links = relevant_more.clone(),
                ];
                for (i, change) in changed.iter().enumerate() {
                    let mut other = report.clone();
                    change(&mut other);
                    assert!(!answer.is(&other), "{technique}: change {i} of {report:?}");
                }
            }
        }
        assert!(
            seen.contains(&Outcome::Loop) && seen.contains(&Outcome::Blackhole),
            "{seen:?}"
        );
    }
}
