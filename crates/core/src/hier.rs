//! Two-level hierarchical KAR: per-domain route IDs with boundary
//! re-encoding.
//!
//! Flat KAR folds every core switch of a path into one route ID, so the
//! ID's bit length grows with path length — the key-growth wall charted
//! by `BENCH_scale.json` (a ring/256 needs 1265-bit IDs unprotected).
//! Hierarchical KAR routes over a [`Partition`] of the topology into
//! domains: the ingress edge stamps a route ID encoded over only the
//! *first* domain's coprime set, and every time the packet crosses a
//! domain-boundary link the entry switch re-stamps the tag with the
//! next per-domain segment. A boundary ingress is a *planned* re-encode
//! — the same §2.1 wrong-edge machinery the paper uses reactively, run
//! proactively at a known place — so route-ID size is bounded by the
//! longest intra-domain path instead of the network diameter.
//!
//! [`HierController`] is the [`EdgeLogic`] implementing this: ingress
//! stamps the first segment, [`EdgeLogic::core_ingress`] re-stamps at
//! boundary entries (from a deterministic `(entry, dst)` segment memo),
//! and wrong-edge packets are rescued by hierarchical recompute exactly
//! like the flat controller's [`crate::ReroutePolicy::Recompute`].
//! Every boundary ingress re-stamps — the planned handoff at the end of
//! a segment and deflection spill-over into a neighbouring domain
//! alike. Spill-over re-stamping is what makes the failure-aware
//! posture self-healing: a deflected wanderer is put back on a valid
//! plan at the first boundary it stumbles into. The flip side, measured
//! by the `fig_hier` transient analysis, is that *before* the
//! controller learns of a failure, a fresh segment can point a
//! deflected packet straight back at the link that deflected it — so
//! the hierarchical transient can exhibit wander-loops on host-sparse
//! topologies where flat KAR's whole-path residues happen to absorb the
//! wanderer. Once the failure notice lands (the deployed posture,
//! [`HierController::set_failure_aware`]), planned segments avoid the
//! failure and the verifier finds no loop or blackhole classes at all.
//!
//! [`verify_hier_route`] extends the exhaustive verifier of
//! [`crate::verify`] to segment-composed routes: it explores the packet
//! NFA over `(active segment, switch, in-port, deflected)` states,
//! switching segments at boundary crossings exactly as the controller
//! would, and classifies the case with the same [`Outcome`] precedence.
//! [`verify_hier_resilience`] sweeps k=1 exhaustively (plus sampled
//! k=2) for both flat and hierarchical encodings and reports whether
//! hierarchy introduced any *new* violation class — the gate the
//! `fig_hier` benchmark and the regression tests enforce.

use crate::cache::EncodingCache;
use crate::deflect::DeflectionTechnique;
use crate::error::KarError;
use crate::protection::{encode_with_protection, Protection};
use crate::route::EncodedRoute;
use crate::verify::{possible_moves, step, tarjan_sccs, Outcome, State, Terminal};
use crate::wire::RouteHeader;
use crate::ReroutePolicy;
use kar_simnet::{EdgeLogic, Packet, RerouteDecision, RouteArena, RouteTag, SimTime};
use kar_topology::{paths, LinkId, NodeId, Partition, PortIx, Topology};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One per-domain piece of a hierarchical route: the node path the
/// segment covers (ending at the next domain's entry switch, or at the
/// destination edge) and its CRT encoding over this domain's switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Segment node path. The last node is the next segment's entry
    /// core (for boundary segments) or the destination edge (for the
    /// final one); it contributes no residue, only the exit direction.
    pub path: Vec<NodeId>,
    /// The segment's encoded route (residues for this domain only).
    pub route: EncodedRoute,
}

/// A hierarchical route: the chain of per-domain segments a packet is
/// re-stamped with on its way from ingress to destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierRoute {
    /// Segments in traversal order; `segments[0]` is what the ingress
    /// edge stamps.
    pub segments: Vec<Segment>,
}

impl HierRoute {
    /// The largest per-segment header bit length — the bits-per-packet
    /// figure of hierarchical KAR (a packet carries one segment at a
    /// time).
    pub fn max_bits(&self) -> u32 {
        self.segments
            .iter()
            .map(|s| s.route.bit_length())
            .max()
            .unwrap_or(0)
    }

    /// Number of boundary re-encodes along the nominal path.
    pub fn reencodes(&self) -> usize {
        self.segments.len().saturating_sub(1)
    }

    /// Total hop count across all segments (edge to edge).
    pub fn nominal_hops(&self) -> usize {
        self.segments.iter().map(|s| s.path.len() - 1).sum()
    }
}

/// Splits an edge-to-edge node path at domain-boundary links.
///
/// Every returned piece ends with the first node *after* the boundary
/// (the next domain's entry switch) so its last window still yields the
/// exit port of the boundary switch; the next piece starts at that same
/// entry switch. A path that never crosses a boundary comes back as one
/// piece.
///
/// # Errors
///
/// [`KarError::NotAdjacent`] when consecutive path nodes share no link.
pub fn split_segments(
    topo: &Topology,
    partition: &Partition,
    path: &[NodeId],
) -> Result<Vec<Vec<NodeId>>, KarError> {
    let mut segments = Vec::new();
    let mut cur = vec![path[0]];
    for w in path.windows(2) {
        let link = topo.link_between(w[0], w[1]).ok_or(KarError::NotAdjacent {
            from: w[0],
            to: w[1],
        })?;
        cur.push(w[1]);
        if partition.is_boundary(link) {
            segments.push(cur);
            cur = vec![w[1]];
        }
    }
    if cur.len() > 1 {
        segments.push(cur);
    }
    Ok(segments)
}

/// Shared counters of one [`HierController`] — kept behind an `Arc` so
/// experiment drivers can read them after the controller moved into the
/// simulation.
#[derive(Debug, Default)]
pub struct HierStats {
    /// Segments encoded (ingress, boundary, and rescue re-encodes).
    pub segments_encoded: AtomicU64,
    /// Largest segment header bit length seen.
    pub max_segment_bits: AtomicU64,
    /// Boundary ingresses served from the segment memo.
    pub boundary_stamps: AtomicU64,
    /// Boundary ingresses that had to plan a fresh segment.
    pub boundary_recomputes: AtomicU64,
    /// Wrong-edge rescues (§2.1 recompute, hierarchical flavour).
    pub wrong_edge_reencodes: AtomicU64,
}

impl HierStats {
    fn note_segment(&self, route: &EncodedRoute) {
        self.segments_encoded.fetch_add(1, Ordering::Relaxed);
        self.max_segment_bits
            .fetch_max(route.bit_length() as u64, Ordering::Relaxed);
    }
}

/// The hierarchical KAR controller and edge logic.
///
/// Segment planning is a *pure function* of `(entry, dst)` on the
/// planning topology — `(entry, dst)` segments are memoized but never
/// depend on which packet asked first — so simulation runs stay
/// deterministic and the verifier can replay the controller's decisions
/// exactly.
#[derive(Debug)]
pub struct HierController {
    partition: Arc<Partition>,
    reroute: ReroutePolicy,
    cache: Option<Arc<EncodingCache>>,
    arena: RouteArena,
    /// `(src edge, dst edge)` → first segment, stamped at ingress.
    ingress_tbl: HashMap<(NodeId, NodeId), Segment>,
    /// `(entry core, dst edge)` → that entry's segment memo.
    segment_tbl: HashMap<(NodeId, NodeId), Segment>,
    /// Installed ingress pairs with their protection, replayed in
    /// deterministic order when a failure notice lands.
    installed: BTreeMap<(NodeId, NodeId), Protection>,
    failed: HashSet<LinkId>,
    failure_aware: bool,
    stats: Arc<HierStats>,
}

impl HierController {
    /// Creates a controller routing over `partition` with default
    /// settings (recompute-on-wrong-edge, failure-unaware — the paper's
    /// controller posture).
    pub fn new(partition: Arc<Partition>) -> Self {
        HierController {
            partition,
            reroute: ReroutePolicy::default(),
            cache: None,
            arena: RouteArena::default(),
            ingress_tbl: HashMap::new(),
            segment_tbl: HashMap::new(),
            installed: BTreeMap::new(),
            failed: HashSet::new(),
            failure_aware: false,
            stats: Arc::new(HierStats::default()),
        }
    }

    /// Sets the wrong-edge policy.
    pub fn with_reroute(mut self, policy: ReroutePolicy) -> Self {
        self.reroute = policy;
        self
    }

    /// Routes segment encoding through a shared [`EncodingCache`].
    pub fn with_encoding_cache(mut self, cache: Arc<EncodingCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// When `true`, planning avoids links reported down via
    /// [`EdgeLogic::on_link_event`], and every such notice flushes the
    /// segment memo and replans installed pairs (in deterministic pair
    /// order). The default `false` matches the paper's controller,
    /// which ignores failure notifications.
    pub fn set_failure_aware(&mut self, aware: bool) {
        self.failure_aware = aware;
    }

    /// Handle onto the shared counters (keep a clone before moving the
    /// controller into a simulation).
    pub fn stats(&self) -> Arc<HierStats> {
        Arc::clone(&self.stats)
    }

    /// The partition this controller routes over.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Shortest path on the planning topology (failure-aware planning
    /// avoids known-down links).
    fn select_path(
        &self,
        topo: &Topology,
        from: NodeId,
        dst: NodeId,
    ) -> Result<Vec<NodeId>, KarError> {
        let path = if self.failure_aware && !self.failed.is_empty() {
            paths::bfs_avoiding(topo, from, dst, &self.failed)
        } else {
            paths::bfs_shortest_path(topo, from, dst)
        };
        path.ok_or(KarError::NoPath { src: from, dst })
    }

    fn encode_path(
        &self,
        topo: &Topology,
        primary: Vec<NodeId>,
        protection: &Protection,
    ) -> Result<EncodedRoute, KarError> {
        let route = match &self.cache {
            Some(cache) => cache.encode_with_protection(topo, primary, protection)?,
            None => encode_with_protection(topo, primary, protection)?,
        };
        self.stats.note_segment(&route);
        Ok(route)
    }

    /// Plans the first segment of the shortest route `from → dst`
    /// (either an ingress edge or a boundary-entry core).
    fn first_segment(
        &mut self,
        topo: &Topology,
        from: NodeId,
        dst: NodeId,
        protection: &Protection,
    ) -> Result<Segment, KarError> {
        let path = self.select_path(topo, from, dst)?;
        let mut pieces = split_segments(topo, &self.partition, &path)?;
        if pieces.is_empty() {
            return Err(KarError::NoPath { src: from, dst });
        }
        let piece = pieces.swap_remove(0);
        let route = self.encode_path(topo, piece.clone(), protection)?;
        Ok(Segment { path: piece, route })
    }

    /// The memoized segment for a boundary entry: the first segment of
    /// the shortest route from `entry` to `dst`. Pure in `(entry, dst)`
    /// — the memo only caches, it never changes the answer.
    ///
    /// # Errors
    ///
    /// [`KarError::NoPath`] when `dst` is unreachable from `entry` on
    /// the planning topology.
    pub fn segment_from(
        &mut self,
        topo: &Topology,
        entry: NodeId,
        dst: NodeId,
    ) -> Result<Segment, KarError> {
        if let Some(seg) = self.segment_tbl.get(&(entry, dst)) {
            return Ok(seg.clone());
        }
        // Boundary re-encodes are unprotected, like the paper's §2.1
        // reactive recompute.
        let seg = self.first_segment(topo, entry, dst, &Protection::None)?;
        self.segment_tbl.insert((entry, dst), seg.clone());
        Ok(seg)
    }

    /// Installs a hierarchical route for `src → dst`: plans the segment
    /// chain along shortest paths, stores the first segment for ingress
    /// stamping and each boundary segment in the `(entry, dst)` memo,
    /// and returns the whole chain (for bit-length accounting and
    /// verification).
    ///
    /// `protection` applies to the *ingress* segment only; boundary
    /// re-encodes are unprotected like the paper's reactive recompute.
    ///
    /// # Errors
    ///
    /// [`KarError::NoPath`] when unreachable, plus any encoding error.
    pub fn install(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        protection: &Protection,
    ) -> Result<HierRoute, KarError> {
        let first = self.first_segment(topo, src, dst, protection)?;
        self.ingress_tbl.insert((src, dst), first.clone());
        self.installed.insert((src, dst), protection.clone());
        let mut segments = vec![first];
        // Follow the chain of entry switches; each boundary segment is
        // strictly closer to dst than the previous entry, so this
        // terminates well inside the node-count guard.
        for _ in 0..topo.node_count() {
            let tail = *segments
                .last()
                .expect("segments is non-empty")
                .path
                .last()
                .expect("segment paths are non-empty");
            if tail == dst {
                return Ok(HierRoute { segments });
            }
            segments.push(self.segment_from(topo, tail, dst)?);
        }
        Err(KarError::NoPath { src, dst })
    }

    /// The installed ingress route for `(src, dst)`, if any.
    pub fn ingress_route(&self, src: NodeId, dst: NodeId) -> Option<&EncodedRoute> {
        self.ingress_tbl.get(&(src, dst)).map(|s| &s.route)
    }

    /// The installed ingress segment for `(src, dst)`, if any.
    pub fn ingress_segment(&self, src: NodeId, dst: NodeId) -> Option<&Segment> {
        self.ingress_tbl.get(&(src, dst))
    }

    fn stamp(&mut self, pkt: &mut Packet, seg: &Segment) {
        let header = RouteHeader::for_route(&seg.route).expect("segments fit their own field");
        pkt.route = Some(RouteTag::new(self.arena.intern_wire(header.as_bytes())));
    }
}

impl EdgeLogic for HierController {
    fn ingress(&mut self, _topo: &Topology, edge: NodeId, pkt: &mut Packet) -> Option<PortIx> {
        let seg = self.ingress_tbl.get(&(edge, pkt.dst))?.clone();
        self.stamp(pkt, &seg);
        Some(seg.route.uplink)
    }

    fn core_ingress(
        &mut self,
        topo: &Topology,
        node: NodeId,
        in_port: Option<PortIx>,
        pkt: &mut Packet,
    ) {
        if pkt.route.is_none() {
            return;
        }
        let Some(p) = in_port else { return };
        let Some(&link) = topo.node(node).ports.get(p as usize) else {
            return;
        };
        if !self.partition.is_boundary(link) {
            return;
        }
        // The packet just entered a new domain — planned handoff or
        // deflection spill-over alike, a boundary ingress is a planned
        // re-encode: re-stamp with this entry's segment toward the
        // destination (a fresh tag, so the deflection mark clears).
        // Spill-over recovery is what makes the failure-aware posture
        // whole: a deflected wanderer is put back on a valid plan at the
        // first boundary it stumbles into. On a planning failure (the
        // destination became unreachable) the tag is left alone and
        // deflection/TTL take over, like a missed wrong-edge rescue.
        let hit = self.segment_tbl.contains_key(&(node, pkt.dst));
        if let Ok(seg) = self.segment_from(topo, node, pkt.dst) {
            if hit {
                self.stats.boundary_stamps.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats
                    .boundary_recomputes
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.stamp(pkt, &seg);
        }
    }

    fn reroute(&mut self, topo: &Topology, edge: NodeId, pkt: &mut Packet) -> RerouteDecision {
        match self.reroute {
            ReroutePolicy::Drop => RerouteDecision::Drop,
            ReroutePolicy::Bounce => RerouteDecision::Forward {
                port: 0,
                delay: SimTime::ZERO,
            },
            ReroutePolicy::Recompute { latency } => {
                let seg = match self.ingress_tbl.get(&(edge, pkt.dst)) {
                    Some(s) => s.clone(),
                    None => {
                        let Ok(seg) = self.first_segment(topo, edge, pkt.dst, &Protection::None)
                        else {
                            return RerouteDecision::Drop;
                        };
                        self.ingress_tbl.insert((edge, pkt.dst), seg.clone());
                        seg
                    }
                };
                self.stats
                    .wrong_edge_reencodes
                    .fetch_add(1, Ordering::Relaxed);
                self.stamp(pkt, &seg);
                RerouteDecision::Forward {
                    port: seg.route.uplink,
                    delay: latency,
                }
            }
        }
    }

    fn on_link_event(&mut self, topo: &Topology, link: LinkId, up: bool, _now: SimTime) {
        if up {
            self.failed.remove(&link);
        } else {
            self.failed.insert(link);
        }
        if !self.failure_aware {
            return;
        }
        // Segments planned under the old failure set may route straight
        // into the change; flush everything and replan the installed
        // pairs in deterministic order. Pairs that became unreachable
        // drop out of the ingress table (their packets are dropped at
        // ingress, like the flat controller's NoPath).
        self.segment_tbl.clear();
        self.ingress_tbl.clear();
        let pairs: Vec<((NodeId, NodeId), Protection)> = self
            .installed
            .iter()
            .map(|(&k, p)| (k, p.clone()))
            .collect();
        for ((src, dst), protection) in pairs {
            let _ = self.install(topo, src, dst, &protection);
        }
    }
}

/// What the segment-composed verifier learned about one case.
#[derive(Debug, Clone)]
pub struct HierReport {
    /// Classification with the usual [`Outcome`] precedence.
    pub outcome: Outcome,
    /// Some trajectory reaches the destination.
    pub can_deliver: bool,
    /// Some trajectory surfaces at a non-destination edge (rescued).
    pub can_wrong_edge: bool,
    /// Some trajectory ends in a forced drop.
    pub can_blackhole: bool,
    /// The composed state graph contains a cycle.
    pub has_cycle: bool,
    /// Composed `(segment, switch, in-port, deflected)` states explored.
    pub states: usize,
}

/// Exhaustively classifies one hierarchical route under one failure
/// set, mirroring [`crate::verify_route`] over the *composed* state
/// space: the active segment switches at every boundary crossing
/// (planned handoff or deflection spill-over) exactly as
/// [`HierController::core_ingress`] would re-stamp the packet, with the
/// deflection mark cleared by the fresh tag.
///
/// The controller is taken `&mut` so the exploration shares (and
/// extends) its deterministic `(entry, dst)` segment memo — the
/// verifier sees byte-identical segments to the dataplane.
///
/// # Errors
///
/// [`KarError::NoPath`] when no route `src → dst` exists to verify.
pub fn verify_hier_route(
    topo: &Topology,
    ctrl: &mut HierController,
    src: NodeId,
    dst: NodeId,
    technique: DeflectionTechnique,
    failed: &HashSet<LinkId>,
) -> Result<HierReport, KarError> {
    let ingress = match ctrl.ingress_segment(src, dst) {
        Some(s) => s.clone(),
        None => {
            ctrl.install(topo, src, dst, &Protection::None)?;
            ctrl.ingress_segment(src, dst)
                .expect("install populated the ingress table")
                .clone()
        }
    };
    let mut report = HierReport {
        outcome: Outcome::Delivered,
        can_deliver: false,
        can_wrong_edge: false,
        can_blackhole: false,
        has_cycle: false,
        states: 0,
    };
    // A failed uplink kills every packet at hop zero, as in the flat
    // verifier.
    let uplink = topo.node(src).ports[ingress.route.uplink as usize];
    if failed.contains(&uplink) {
        report.can_blackhole = true;
        report.outcome = Outcome::Blackhole;
        return Ok(report);
    }
    let first = topo.link(uplink).peer_of(src);
    // Key: the active segment — `None` for the ingress-stamped one,
    // `Some(entry)` after a boundary re-stamp at `entry`.
    type Key = Option<NodeId>;
    let mut routes: HashMap<Key, EncodedRoute> = HashMap::new();
    routes.insert(None, ingress.route.clone());
    let initial = (
        None as Key,
        State {
            node: first,
            in_port: topo.link(uplink).port_on(first),
            deflected: false,
        },
    );
    let mut index: HashMap<(Key, State), usize> = HashMap::new();
    let mut nodes: Vec<(Key, State)> = Vec::new();
    let mut succs: Vec<Vec<usize>> = Vec::new();
    let mut terminal_drop: Vec<bool> = Vec::new();
    let mut escapes: Vec<bool> = Vec::new();
    let mut queue = VecDeque::new();
    index.insert(initial, 0);
    nodes.push(initial);
    succs.push(Vec::new());
    terminal_drop.push(false);
    escapes.push(false);
    queue.push_back(0usize);
    while let Some(i) = queue.pop_front() {
        let (key, state) = nodes[i];
        let route = routes.get(&key).expect("active route cached").clone();
        match possible_moves(topo, &route, technique, failed, state) {
            Err(Terminal::Drop) => {
                terminal_drop[i] = true;
                report.can_blackhole = true;
            }
            Err(_) => unreachable!("possible_moves only yields Drop terminals"),
            Ok(moves) => {
                for (port, deflected) in moves {
                    match step(topo, dst, state.node, port, deflected) {
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
                            let link = topo.node(state.node).ports[port as usize];
                            // Every boundary crossing re-stamps with
                            // the entry's segment, exactly like
                            // core_ingress. A re-stamp is a fresh tag,
                            // so the deflected bit clears too.
                            let (next_key, next) = if ctrl.partition.is_boundary(link) {
                                match ctrl.segment_from(topo, next.node, dst) {
                                    Ok(seg) => {
                                        routes.entry(Some(next.node)).or_insert(seg.route);
                                        (
                                            Some(next.node),
                                            State {
                                                deflected: false,
                                                ..next
                                            },
                                        )
                                    }
                                    // No plan from here: the tag stays,
                                    // exactly like core_ingress.
                                    Err(_) => (key, next),
                                }
                            } else {
                                (key, next)
                            };
                            let composed = (next_key, next);
                            let j = *index.entry(composed).or_insert_with(|| {
                                nodes.push(composed);
                                succs.push(Vec::new());
                                terminal_drop.push(false);
                                escapes.push(false);
                                queue.push_back(nodes.len() - 1);
                                nodes.len() - 1
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
    report.states = nodes.len();

    let sccs = tarjan_sccs(&succs);
    let mut scc_of = vec![0usize; nodes.len()];
    for (sid, scc) in sccs.iter().enumerate() {
        for &i in scc {
            scc_of[i] = sid;
        }
    }
    let mut trapped_somewhere = false;
    for (sid, scc) in sccs.iter().enumerate() {
        let cyclic = scc.len() > 1 || (scc.len() == 1 && succs[scc[0]].contains(&scc[0]));
        if !cyclic {
            continue;
        }
        report.has_cycle = true;
        let trapped = scc.iter().all(|&i| {
            !terminal_drop[i] && !escapes[i] && succs[i].iter().all(|&j| scc_of[j] == sid)
        });
        trapped_somewhere |= trapped;
    }
    report.outcome = if trapped_somewhere {
        Outcome::Loop
    } else if report.can_blackhole {
        Outcome::Blackhole
    } else if report.has_cycle {
        Outcome::TtlExceeded
    } else if report.can_wrong_edge {
        Outcome::WrongEdge
    } else {
        Outcome::Delivered
    };
    Ok(report)
}

/// Outcome tallies of one verification sweep (one counter per
/// [`Outcome`], in enum order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Cases per outcome: `[delivered, wrong_edge, ttl, blackhole, loop]`.
    pub counts: [usize; 5],
}

impl OutcomeCounts {
    fn note(&mut self, o: Outcome) {
        self.counts[o as usize] += 1;
    }

    /// Cases classified as `o`.
    pub fn of(&self, o: Outcome) -> usize {
        self.counts[o as usize]
    }

    /// Total cases tallied.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Lossy cases (blackhole + loop) — the violation count.
    pub fn violations(&self) -> usize {
        self.of(Outcome::Blackhole) + self.of(Outcome::Loop)
    }

    /// The set of outcome classes that occurred at least once.
    pub fn classes(&self) -> Vec<Outcome> {
        [
            Outcome::Delivered,
            Outcome::WrongEdge,
            Outcome::TtlExceeded,
            Outcome::Blackhole,
            Outcome::Loop,
        ]
        .into_iter()
        .filter(|&o| self.of(o) > 0)
        .collect()
    }
}

/// Flat-vs-hierarchical verification sweep results at one failure size.
#[derive(Debug, Clone, Default)]
pub struct HierSweep {
    /// Cases examined (pairs × failure sets).
    pub cases: usize,
    /// Flat KAR tallies.
    pub flat: OutcomeCounts,
    /// Hierarchical KAR tallies.
    pub hier: OutcomeCounts,
    /// Violation classes (loop / blackhole) present in the hierarchical
    /// sweep but absent from the flat one — the acceptance gate demands
    /// this stays empty.
    pub new_violation_classes: Vec<Outcome>,
}

impl HierSweep {
    fn close(&mut self) {
        self.new_violation_classes = [Outcome::Blackhole, Outcome::Loop]
            .into_iter()
            .filter(|&o| self.hier.of(o) > 0 && self.flat.of(o) == 0)
            .collect();
    }

    /// `true` when hierarchy introduced no violation class flat KAR did
    /// not already exhibit on this topology.
    pub fn no_new_violation_classes(&self) -> bool {
        self.new_violation_classes.is_empty()
    }
}

/// Verifies hierarchical against flat encodings over every pair in
/// `pairs`: exhaustive k=1 (every single-link failure) plus
/// `k2_samples` deterministically sampled two-link failure sets per
/// pair. Both dataplanes run the same deflection technique; flat routes
/// are unprotected shortest paths (the hierarchy's ingress segments use
/// the same paths), so any classification gap is attributable to the
/// boundary re-encoding itself.
///
/// # Errors
///
/// Propagates encoding errors from either dataplane's planner.
pub fn verify_hier_resilience(
    topo: &Topology,
    partition: &Arc<Partition>,
    pairs: &[(NodeId, NodeId)],
    technique: DeflectionTechnique,
    k2_samples: usize,
) -> Result<(HierSweep, HierSweep), KarError> {
    let mut ctrl = HierController::new(Arc::clone(partition));
    let mut k1 = HierSweep::default();
    let mut k2 = HierSweep::default();
    let links = topo.link_count();
    for &(src, dst) in pairs {
        let primary =
            paths::bfs_shortest_path(topo, src, dst).ok_or(KarError::NoPath { src, dst })?;
        let flat_route = encode_with_protection(topo, primary, &Protection::None)?;
        ctrl.install(topo, src, dst, &Protection::None)?;
        let run_case = |failed: &HashSet<LinkId>,
                        sweep: &mut HierSweep,
                        ctrl: &mut HierController|
         -> Result<(), KarError> {
            let flat = crate::verify::verify_route(topo, &flat_route, src, dst, technique, failed);
            let hier = verify_hier_route(topo, ctrl, src, dst, technique, failed)?;
            sweep.cases += 1;
            sweep.flat.note(flat.outcome);
            sweep.hier.note(hier.outcome);
            Ok(())
        };
        for l in 0..links {
            let failed: HashSet<LinkId> = [LinkId(l)].into_iter().collect();
            run_case(&failed, &mut k1, &mut ctrl)?;
        }
        // Deterministic k=2 sample: stride through the C(L, 2) index
        // space so samples spread over the whole set without an RNG.
        if k2_samples > 0 && links >= 2 {
            let total = links * (links - 1) / 2;
            let take = k2_samples.min(total);
            let stride = (total / take).max(1);
            for s in 0..take {
                let mut idx = (s * stride) % total;
                // Unrank the idx-th unordered pair (a < b).
                let mut a = 0usize;
                loop {
                    let row = links - 1 - a;
                    if idx < row {
                        break;
                    }
                    idx -= row;
                    a += 1;
                }
                let b = a + 1 + idx;
                let failed: HashSet<LinkId> = [LinkId(a), LinkId(b)].into_iter().collect();
                run_case(&failed, &mut k2, &mut ctrl)?;
            }
        }
    }
    k1.close();
    k2.close();
    Ok((k1, k2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflect::KarForwarder;
    use kar_rns::IdStrategy;
    use kar_simnet::{FlowId, PacketKind, Sim, SimConfig};
    use kar_topology::{gen, LinkParams};

    fn ring(n: usize) -> Topology {
        gen::ring(n, IdStrategy::SmallestPrimes, LinkParams::default())
    }

    fn hier_sim<'t>(
        topo: &'t Topology,
        partition: Arc<Partition>,
        pairs: &[(NodeId, NodeId)],
    ) -> (Sim<'t>, Arc<HierStats>) {
        let mut ctrl = HierController::new(partition);
        for &(src, dst) in pairs {
            ctrl.install(topo, src, dst, &Protection::None).unwrap();
        }
        let stats = ctrl.stats();
        let sim = Sim::new(
            topo,
            Box::new(KarForwarder::new(DeflectionTechnique::Nip)),
            Box::new(ctrl),
            SimConfig {
                seed: 7,
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        (sim, stats)
    }

    #[test]
    fn segments_split_at_boundaries_only() {
        let topo = ring(12);
        let partition = Partition::ring(&topo, 3).unwrap();
        let src = topo.expect("H0");
        let dst = topo.expect("H7");
        let path = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        let segs = split_segments(&topo, &partition, &path).unwrap();
        assert!(segs.len() >= 2, "H0→H7 crosses at least one arc boundary");
        // Pieces chain: each piece starts where the previous ended.
        for w in segs.windows(2) {
            assert_eq!(w[0].last(), w[1].first());
        }
        // Concatenating pieces (deduping the shared joints) restores
        // the original path.
        let mut glued = segs[0].clone();
        for s in &segs[1..] {
            glued.extend_from_slice(&s[1..]);
        }
        assert_eq!(glued, path);
    }

    #[test]
    fn single_domain_install_matches_flat_encoding() {
        let topo = ring(8);
        let partition = Arc::new(Partition::single(&topo));
        let mut ctrl = HierController::new(Arc::clone(&partition));
        let src = topo.expect("H0");
        let dst = topo.expect("H3");
        let hier = ctrl.install(&topo, src, dst, &Protection::None).unwrap();
        assert_eq!(hier.segments.len(), 1, "one domain, one segment");
        let primary = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        let flat = encode_with_protection(&topo, primary, &Protection::None).unwrap();
        assert_eq!(hier.segments[0].route, flat);
        assert_eq!(hier.max_bits(), flat.bit_length());
        assert_eq!(hier.reencodes(), 0);
    }

    #[test]
    fn segment_bits_are_bounded_by_the_domain_not_the_path() {
        // A 48-ring: flat route IDs across half the ring are huge;
        // 8 domains of 6 switches keep every segment small.
        let topo = ring(48);
        let partition = Arc::new(Partition::ring(&topo, 8).unwrap());
        let mut ctrl = HierController::new(Arc::clone(&partition));
        let src = topo.expect("H0");
        let dst = topo.expect("H23");
        let hier = ctrl.install(&topo, src, dst, &Protection::None).unwrap();
        let primary = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        let flat = encode_with_protection(&topo, primary.clone(), &Protection::None).unwrap();
        assert!(hier.segments.len() >= 3);
        assert!(
            hier.max_bits() * 2 < flat.bit_length(),
            "hier {} bits vs flat {} bits",
            hier.max_bits(),
            flat.bit_length()
        );
        assert_eq!(hier.nominal_hops(), primary.len() - 1, "no stretch");
    }

    #[test]
    fn packets_deliver_across_boundaries() {
        let topo = ring(12);
        let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
        let src = topo.expect("H0");
        let dst = topo.expect("H6");
        let (mut sim, stats) = hier_sim(&topo, partition, &[(src, dst)]);
        for i in 0..20 {
            sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 500);
        }
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 20, "{:?}", sim.stats());
        assert!(
            stats.boundary_stamps.load(Ordering::Relaxed)
                + stats.boundary_recomputes.load(Ordering::Relaxed)
                >= 20,
            "every probe crossed at least one boundary: {stats:?}"
        );
        // Shortest-path hops: H0→C0→…→C6→H6 = 8.
        assert_eq!(sim.stats().max_hops, 7);
    }

    #[test]
    fn hier_delivers_across_a_failure_with_deflection() {
        let topo = ring(12);
        let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
        let src = topo.expect("H0");
        let dst = topo.expect("H6");
        let mut ctrl = HierController::new(partition);
        ctrl.install(&topo, src, dst, &Protection::None).unwrap();
        let mut sim = Sim::new(
            &topo,
            Box::new(KarForwarder::new(DeflectionTechnique::Nip)),
            Box::new(ctrl),
            SimConfig {
                seed: 11,
                default_ttl: 255,
                ..SimConfig::default()
            },
        );
        sim.schedule_link_down(SimTime::ZERO, topo.expect_link("C2", "C3"));
        for i in 0..30 {
            sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 500);
        }
        sim.run_to_quiescence();
        let s = sim.stats();
        assert!(
            s.delivered >= 27,
            "deflection + boundary re-encode rescue probes: {s:?}"
        );
    }

    #[test]
    fn failure_aware_replan_routes_around_the_cut() {
        let topo = ring(12);
        let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
        let src = topo.expect("H0");
        let dst = topo.expect("H6");
        let mut ctrl = HierController::new(partition);
        ctrl.set_failure_aware(true);
        ctrl.install(&topo, src, dst, &Protection::None).unwrap();
        // Failure lands on the nominal path; the replanned ingress
        // segment must avoid it.
        let cut = topo.expect_link("C2", "C3");
        ctrl.on_link_event(&topo, cut, false, SimTime::ZERO);
        let route = ctrl.ingress_route(src, dst).expect("replanned").clone();
        let mut pkt = Packet {
            id: 0,
            flow: FlowId(0),
            seq: 0,
            kind: PacketKind::Probe,
            size_bytes: 100,
            src,
            dst,
            route: None,
            ttl: 64,
            hops: 0,
            deflections: 0,
            created: SimTime::ZERO,
        };
        assert_eq!(ctrl.ingress(&topo, src, &mut pkt), Some(route.uplink));
        // C0's residue now points the other way around the ring (C11),
        // not into the cut side.
        let c0 = topo.expect("C0");
        let port = route.port_at(topo.switch_id(c0).unwrap());
        let toward = topo
            .neighbors(c0)
            .find(|&(p, _, _)| p == port)
            .map(|(_, _, peer)| peer)
            .unwrap();
        assert_eq!(toward, topo.expect("C11"));
    }

    #[test]
    fn verify_single_domain_equals_flat_verifier() {
        let topo = ring(10);
        let partition = Arc::new(Partition::single(&topo));
        let src = topo.expect("H1");
        let dst = topo.expect("H5");
        let primary = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        let flat = encode_with_protection(&topo, primary, &Protection::None).unwrap();
        let mut ctrl = HierController::new(partition);
        for l in 0..topo.link_count() {
            let failed: HashSet<LinkId> = [LinkId(l)].into_iter().collect();
            for technique in [
                DeflectionTechnique::None,
                DeflectionTechnique::Avp,
                DeflectionTechnique::Nip,
            ] {
                let f = crate::verify::verify_route(&topo, &flat, src, dst, technique, &failed);
                let h = verify_hier_route(&topo, &mut ctrl, src, dst, technique, &failed).unwrap();
                assert_eq!(
                    f.outcome, h.outcome,
                    "link {l} technique {technique:?}: flat {:?} vs hier {:?}",
                    f.outcome, h.outcome
                );
            }
        }
    }

    #[test]
    fn hier_resilience_introduces_no_new_violation_classes() {
        for (topo, parts) in [(ring(12), 4), (ring(16), 2)] {
            let partition = Arc::new(Partition::ring(&topo, parts).unwrap());
            let hosts = topo.edge_nodes();
            let pairs: Vec<(NodeId, NodeId)> = (0..hosts.len())
                .map(|i| (hosts[i], hosts[(i + hosts.len() / 2) % hosts.len()]))
                .take(4)
                .collect();
            let (k1, k2) =
                verify_hier_resilience(&topo, &partition, &pairs, DeflectionTechnique::Nip, 8)
                    .unwrap();
            assert!(k1.cases > 0 && k2.cases > 0);
            assert!(
                k1.no_new_violation_classes(),
                "k=1 new classes: {:?} (flat {:?} hier {:?})",
                k1.new_violation_classes,
                k1.flat,
                k1.hier
            );
            assert!(
                k2.no_new_violation_classes(),
                "k=2 new classes: {:?}",
                k2.new_violation_classes
            );
        }
    }

    #[test]
    fn wrong_edge_rescue_recomputes_hierarchically() {
        let topo = ring(12);
        let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
        let mut ctrl = HierController::new(partition);
        let src = topo.expect("H0");
        let dst = topo.expect("H6");
        let wrong = topo.expect("H3");
        ctrl.install(&topo, src, dst, &Protection::None).unwrap();
        let mut pkt = Packet {
            id: 0,
            flow: FlowId(0),
            seq: 0,
            kind: PacketKind::Probe,
            size_bytes: 100,
            src,
            dst,
            route: None,
            ttl: 64,
            hops: 0,
            deflections: 1,
            created: SimTime::ZERO,
        };
        match ctrl.reroute(&topo, wrong, &mut pkt) {
            RerouteDecision::Forward { delay, .. } => {
                assert_eq!(delay, SimTime::from_millis(2));
            }
            other => panic!("expected forward, got {other:?}"),
        }
        assert!(pkt.route.is_some(), "rescue stamped a fresh segment");
        assert_eq!(ctrl.stats().wrong_edge_reencodes.load(Ordering::Relaxed), 1);
    }
}
