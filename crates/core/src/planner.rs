//! The KAR controller: one planner under every edge.
//!
//! The paper's controller "knows the entire network topology, including
//! the Switch IDs … when a route is selected, it computes a Route ID"
//! (§2). [`Planner`] does exactly that — it selects primary paths
//! (shortest path, as in the paper's example), resolves the requested
//! [`Protection`] into driven-deflection segments, encodes route IDs and
//! installs them at ingress edges — and it implements the paper's §2.1
//! wrong-edge handling: when a deflected packet surfaces at an edge that
//! is not its destination, the edge consults the controller, which
//! re-encodes a route from that edge to the destination (the paper's
//! "second approach", used in all their tests).
//!
//! There is one planner, with two orthogonal parameters:
//!
//! * **segmentation** — none, or a [`Partition`]: a path is cut into
//!   pieces at domain-boundary links, the ingress edge stamps the first
//!   piece and every boundary entry switch re-stamps the next one
//!   ([`crate::hier`]). Flat KAR is the one-piece case.
//! * **link-state view** — [`LinkView`]: what a failure notice does.
//!
//! | | notice takes effect | which plans avoid known-down links | pair with no detour |
//! |---|---|---|---|
//! | [`LinkView::Static`] | never (the paper: "the controller ignores all failure notifications and keeps the same route") | none | — |
//! | [`LinkView::Avoiding`] | inside [`EdgeLogic::on_link_event`]: every table is flushed and every installed pair replanned | every plan made while a link is known down | dropped at ingress |
//! | [`LinkView::Notices`] | [`RecoveryConfig::notification_delay`] later, at the next ingress or encode | detours and rescues only: a primary is kept until *its own* links break and restored on repair | keeps its original ID |
//!
//! `Avoiding` is not `Notices` with a zero delay: primaries tie-break
//! equal-cost paths by node id and failure-avoiding plans by port
//! (DESIGN.md invariant 13), so replanning the unbroken pairs too picks
//! different paths on grids and random graphs.
//!
//! Every installed entry — ingress `(src, dst)` or boundary
//! `(entry, dst)` — builds its [`RouteTag`] once, at install, from the
//! canonical §2.3 [`RouteHeader`] bytes (the same bytes `kar-service`
//! puts on the socket), so stamping a packet is a table lookup and an
//! `Arc` clone whatever the segmentation and view.

use crate::cache::EncodingCache;
use crate::controller::{EncodeOutcome, EncodeRequest, ReroutePolicy};
use crate::error::KarError;
use crate::hier::{split_segments, HierRoute, HierStats, Segment};
use crate::protection::{encode_with_protection, Protection};
use crate::recovery::{lock_log, FlowRecovery, LinkNotice, RecoveryConfig, RecoveryLog};
use crate::route::EncodedRoute;
use crate::wire::RouteHeader;
use kar_obs::{Entity, Event, EventKind, ObsHandle};
use kar_rns::BigUint;
use kar_simnet::{EdgeLogic, Packet, RerouteDecision, RouteTag, SimTime};
use kar_topology::{paths, LinkId, NodeId, Partition, PortIx, Topology};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

/// What the planner does with link-state notices (see the module table).
#[derive(Debug, Clone, Default)]
pub enum LinkView {
    /// The paper's posture: notices are ignored, routes never change.
    #[default]
    Static,
    /// A notice flushes every table and replans every installed pair on
    /// the spot, avoiding all links known down.
    Avoiding,
    /// The recovery loop of [`crate::recovery`]: a notice lands after a
    /// control-channel delay and re-encodes only the pairs it breaks.
    Notices(RecoveryConfig),
}

type Pair = (NodeId, NodeId);

/// One installed piece of a route with everything a stamp needs, built
/// once: the tag comes from the header bytes, never from the route.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) seg: Segment,
    header: RouteHeader,
    tag: RouteTag,
}

impl Entry {
    fn new(path: Vec<NodeId>, route: EncodedRoute) -> Result<Arc<Entry>, KarError> {
        let header = RouteHeader::for_route(&route)?;
        let tag = RouteTag::new(BigUint::from_bytes_be(header.as_bytes()));
        Ok(Arc::new(Entry {
            seg: Segment { path, route },
            header,
            tag,
        }))
    }

    /// Replaces the packet's tag (a fresh tag: the deflection mark
    /// clears) and returns the entry's first-hop port.
    fn stamp(&self, pkt: &mut Packet) -> PortIx {
        pkt.route = Some(self.tag.clone());
        self.seg.route.uplink
    }
}

/// An installed pair: what was asked for and what it got.
#[derive(Debug)]
struct Installed {
    /// Protection the install asked for, so a later [`EncodeRequest`]
    /// with a different level re-installs instead of serving the
    /// existing route.
    protection: Protection,
    /// The nominal path, piece by piece; the first is what the ingress
    /// edge stamped at install.
    chain: Vec<Arc<Entry>>,
}

/// The entry currently stamped on packets of one pair
/// ([`LinkView::Notices`] only).
#[derive(Debug)]
struct Current {
    /// Failure epoch this decision was made in; stale entries are
    /// recomputed lazily on the next ingress.
    epoch: u64,
    entry: Arc<Entry>,
    /// `true` when `entry` detours around a failure (differs from the
    /// originally installed one).
    detour: bool,
    /// Causal span of the re-encode that produced this detour (when
    /// observability is on); `stamp` events parent to it.
    span: Option<u64>,
}

/// The KAR controller and edge logic: route computation, protection
/// planning, route-ID encoding, ingress / boundary / wrong-edge stamping
/// and the failure-reaction policy of its [`LinkView`].
///
/// Planning is a *pure function* of `(from, dst)` on the planning
/// topology — entries are memoized but never depend on which packet
/// asked first — so simulation runs stay deterministic and the verifier
/// ([`crate::hier::Segmented`]) can replay the planner's decisions
/// exactly.
///
/// # Examples
///
/// ```
/// use kar::{EncodeRequest, Planner};
/// use kar_simnet::SimTime;
/// use kar_topology::topo15;
///
/// let topo = topo15::build();
/// let req = EncodeRequest::new(topo.expect("AS1"), topo.expect("AS3"));
/// let out = Planner::new().encode(&topo, &req, SimTime::ZERO)?;
/// assert_eq!(out.header.unpack(), out.route.route_id);
/// # Ok::<(), kar::KarError>(())
/// ```
#[derive(Debug, Default)]
pub struct Planner {
    partition: Option<Arc<Partition>>,
    view: LinkView,
    reroute: ReroutePolicy,
    /// Optional shared encoding memo; a cached encode is byte-identical
    /// to a fresh one, so this only affects speed.
    cache: Option<Arc<EncodingCache>>,
    obs: ObsHandle,
    log: Arc<Mutex<RecoveryLog>>,
    stats: Arc<HierStats>,
    /// `(node, dst)` → what `node` stamps for `dst`. At an edge: its
    /// install, detour or wrong-edge rescue; at a core switch: the piece
    /// it re-stamps as a boundary entry.
    entries: HashMap<Pair, Arc<Entry>>,
    /// Installed pairs, replanned in this (deterministic) order.
    installed: BTreeMap<Pair, Installed>,
    current: HashMap<Pair, Current>,
    /// Link notifications in flight on the control channel.
    pending: VecDeque<LinkNotice>,
    /// Links known down (always empty under [`LinkView::Static`]).
    failed: HashSet<LinkId>,
    /// Bumped whenever the effective failure set changes; `current`
    /// entries from older epochs are recomputed on demand.
    epoch: u64,
    last_failure_observed: Option<SimTime>,
    /// Link of the most recently applied notice (failure or repair) —
    /// the causal anchor for re-encode events.
    last_notice_link: Option<LinkId>,
}

impl Planner {
    /// A flat, static planner with the default reroute policy — the
    /// paper's controller.
    pub fn new() -> Self {
        Planner::default()
    }

    /// Routes hierarchically over `partition` (see [`crate::hier`]).
    pub fn with_partition(mut self, partition: Arc<Partition>) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Sets the link-state view.
    pub fn with_view(mut self, view: LinkView) -> Self {
        self.view = view;
        self
    }

    /// Sets the wrong-edge policy.
    pub fn with_reroute(mut self, policy: ReroutePolicy) -> Self {
        self.reroute = policy;
        self
    }

    /// Routes all route-ID computation through a shared
    /// [`EncodingCache`] (typically one per experiment sweep).
    pub fn with_encoding_cache(mut self, cache: Arc<EncodingCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches an observability bundle: the recovery loop records a
    /// `recovery.notices` counter and `recovery.notification_ns` /
    /// `recovery.latency_ns` histograms, and emits a `reencode` event
    /// whenever a flow switches onto (or back off) a detour. Pure
    /// observation — never changes which routes are chosen.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Switches between [`LinkView::Static`] (`false`, the paper's
    /// evaluation) and [`LinkView::Avoiding`]; a [`LinkView::Notices`]
    /// planner is failure-aware already and stays as it is.
    pub fn set_failure_aware(&mut self, aware: bool) {
        if !matches!(self.view, LinkView::Notices(_)) {
            self.view = if aware {
                LinkView::Avoiding
            } else {
                LinkView::Static
            };
        }
    }

    /// The link-state view.
    pub fn view(&self) -> &LinkView {
        &self.view
    }

    /// The partition this planner routes over, if any.
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_deref()
    }

    /// Handle onto the boundary counters (keep a clone before moving the
    /// planner into a simulation).
    pub fn stats(&self) -> Arc<HierStats> {
        Arc::clone(&self.stats)
    }

    /// Handle onto the recovery log: take it before the run, read it
    /// after. The planner records only while a handle is held — a
    /// long-lived daemon never takes one, and must not grow a record per
    /// notice and per detour forever.
    pub fn log_handle(&self) -> Arc<Mutex<RecoveryLog>> {
        Arc::clone(&self.log)
    }

    /// The recovery log, while anyone outside the planner can read it.
    fn watched_log(&self) -> Option<MutexGuard<'_, RecoveryLog>> {
        (Arc::strong_count(&self.log) > 1).then(|| lock_log(&self.log))
    }

    /// The route `node` — an ingress edge or a boundary entry switch —
    /// holds for `dst`, if any.
    pub fn route(&self, node: NodeId, dst: NodeId) -> Option<&EncodedRoute> {
        self.entries.get(&(node, dst)).map(|e| &e.seg.route)
    }

    /// Hop count of the installed pair's nominal path, edge to edge.
    pub fn nominal_hops(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let installed = self.installed.get(&(src, dst))?;
        Some(installed.chain.iter().map(|e| e.seg.path.len() - 1).sum())
    }

    /// Serves one [`EncodeRequest`] at time `now` — the entry point
    /// [`crate::KarNetwork::encode`] drives.
    ///
    /// Applies every notification whose control-channel delay has
    /// elapsed by `now`, installs the pair on first sight (or when the
    /// requested protection changed), and returns the route *currently*
    /// live for the pair — under [`LinkView::Notices`] the original
    /// before a failure notice lands, the detour after — together with
    /// its canonical wire header.
    ///
    /// # Errors
    ///
    /// [`KarError::NoPath`] when unreachable, plus any encoding error
    /// (see [`EncodedRoute::encode`]).
    pub fn encode(
        &mut self,
        topo: &Topology,
        req: &EncodeRequest,
        now: SimTime,
    ) -> Result<EncodeOutcome, KarError> {
        let entry = self.live_entry(topo, req, now)?;
        Ok(EncodeOutcome {
            route: entry.seg.route.clone(),
            header: entry.header.clone(),
        })
    }

    /// [`Planner::encode`] for a caller that only reads the header — the
    /// `kar-service` daemon, which copies its bytes onto the socket: the
    /// same lookup, but the live entry's header is lent to `read`
    /// instead of cloned together with the route, so serving an
    /// installed pair allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`Planner::encode`]; `read` runs only on success.
    pub fn encode_with<R>(
        &mut self,
        topo: &Topology,
        req: &EncodeRequest,
        now: SimTime,
        read: impl FnOnce(&RouteHeader) -> R,
    ) -> Result<R, KarError> {
        Ok(read(&self.live_entry(topo, req, now)?.header))
    }

    /// The entry live for `req` at `now`, installed on first sight.
    fn live_entry(
        &mut self,
        topo: &Topology,
        req: &EncodeRequest,
        now: SimTime,
    ) -> Result<Arc<Entry>, KarError> {
        self.apply_pending(now);
        let (src, dst) = (req.src, req.dst);
        let installed = self.installed.get(&(src, dst));
        if installed.is_none_or(|i| i.protection != req.protection) {
            self.install(topo, src, dst, &req.protection)?;
        }
        match self.view {
            LinkView::Notices(_) => self.current_entry(topo, src, dst, now),
            _ => self.entries.get(&(src, dst)).cloned(),
        }
        .ok_or(KarError::RouteNotInstalled { src, dst })
    }

    /// Installs a shortest-path route for `src → dst` and returns its
    /// whole chain of pieces (one piece when unpartitioned), for
    /// bit-length accounting and verification.
    ///
    /// `protection` applies to the *ingress* piece only; boundary
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
        let first = self.plan_first(topo, src, dst, protection, true)?;
        self.record(topo, src, dst, first, protection)
    }

    /// Installs an explicit primary path (the paper's scenarios pin their
    /// routes rather than recomputing them). Under a partition the path
    /// is split at boundary links like any other and its downstream
    /// pieces replace the `(entry, dst)` memo. An [`LinkView::Avoiding`]
    /// replan forgets the pin.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::install`].
    pub fn install_explicit(
        &mut self,
        topo: &Topology,
        primary: Vec<NodeId>,
        protection: &Protection,
    ) -> Result<HierRoute, KarError> {
        let (Some(&src), Some(&dst)) = (primary.first(), primary.last()) else {
            let nowhere = NodeId(0);
            return Err(KarError::NoPath {
                src: nowhere,
                dst: nowhere,
            });
        };
        let mut pieces = self.pieces(topo, primary)?.into_iter();
        let first = pieces.next().ok_or(KarError::NoPath { src, dst })?;
        let first = self.encode_piece(topo, first, protection)?;
        for piece in pieces {
            let entry = self.encode_piece(topo, piece, &Protection::None)?;
            self.entries.insert((entry.seg.path[0], dst), entry);
        }
        self.record(topo, src, dst, first, protection)
    }

    /// Makes `first` what `src` stamps for `dst`, follows the chain of
    /// boundary entries to the destination and remembers the pair.
    fn record(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        first: Arc<Entry>,
        protection: &Protection,
    ) -> Result<HierRoute, KarError> {
        self.entries.insert((src, dst), Arc::clone(&first));
        let mut chain = vec![first];
        // Each boundary piece is planned from its entry switch, strictly
        // closer to dst than the previous one, so this terminates well
        // inside the node-count guard (which a pinned cycle would hit).
        loop {
            let tail = *chain[chain.len() - 1]
                .seg
                .path
                .last()
                .expect("piece paths are non-empty");
            if tail == dst {
                break;
            }
            if chain.len() > topo.node_count() {
                return Err(KarError::NoPath { src, dst });
            }
            chain.push(self.entry_or_plan(topo, tail, dst)?);
        }
        let route = HierRoute {
            segments: chain.iter().map(|e| e.seg.clone()).collect(),
        };
        let protection = protection.clone();
        self.installed
            .insert((src, dst), Installed { protection, chain });
        self.current.remove(&(src, dst));
        Ok(route)
    }

    /// Cuts a path at domain-boundary links (one piece when
    /// unpartitioned).
    fn pieces(&self, topo: &Topology, path: Vec<NodeId>) -> Result<Vec<Vec<NodeId>>, KarError> {
        match &self.partition {
            Some(partition) => split_segments(topo, partition, &path),
            None => Ok(vec![path]),
        }
    }

    /// Encodes one piece, via the shared cache when one is attached.
    fn encode_piece(
        &self,
        topo: &Topology,
        piece: Vec<NodeId>,
        protection: &Protection,
    ) -> Result<Arc<Entry>, KarError> {
        let route = match &self.cache {
            Some(cache) => cache.encode_with_protection(topo, piece.clone(), protection)?,
            None => encode_with_protection(topo, piece.clone(), protection)?,
        };
        Entry::new(piece, route)
    }

    /// Plans the first piece of the shortest route `from → dst` (from an
    /// ingress edge or a boundary-entry core). Every plan avoids the
    /// links known down, except a [`LinkView::Notices`] primary
    /// (`nominal`): that one is kept until its own links break.
    fn plan_first(
        &self,
        topo: &Topology,
        from: NodeId,
        dst: NodeId,
        protection: &Protection,
        nominal: bool,
    ) -> Result<Arc<Entry>, KarError> {
        let keep_nominal = nominal && matches!(self.view, LinkView::Notices(_));
        let path = if self.failed.is_empty() || keep_nominal {
            paths::bfs_shortest_path(topo, from, dst)
        } else {
            paths::bfs_avoiding(topo, from, dst, &self.failed)
        };
        let first = match path {
            Some(path) => self.pieces(topo, path)?.into_iter().next(),
            None => None,
        };
        let first = first.ok_or(KarError::NoPath { src: from, dst })?;
        self.encode_piece(topo, first, protection)
    }

    /// What `from` stamps for `dst`, planned on first sight: the first
    /// piece of the failure-avoiding shortest route, unprotected like the
    /// paper's §2.1 reactive recompute — a wrong-edge rescue at an edge,
    /// a boundary piece at an entry switch. Pure in `(from, dst)` — the
    /// memo only caches, it never changes the answer.
    pub(crate) fn entry_or_plan(
        &mut self,
        topo: &Topology,
        from: NodeId,
        dst: NodeId,
    ) -> Result<Arc<Entry>, KarError> {
        if let Some(hit) = self.entries.get(&(from, dst)) {
            return Ok(Arc::clone(hit));
        }
        let planned = self.plan_first(topo, from, dst, &Protection::None, false)?;
        self.entries.insert((from, dst), Arc::clone(&planned));
        Ok(planned)
    }

    /// Applies every pending notification whose control-channel delay
    /// has elapsed by `now`.
    fn apply_pending(&mut self, now: SimTime) {
        while let Some(next) = self.pending.front().copied() {
            if next.applied_at > now {
                break;
            }
            self.pending.pop_front();
            self.last_notice_link = Some(next.link);
            let changed = if next.up {
                self.failed.remove(&next.link)
            } else {
                self.last_failure_observed = Some(next.observed_at);
                self.failed.insert(next.link)
            };
            if changed {
                self.epoch += 1;
                // Rescues and boundary pieces planned under the previous
                // failure set are stale now.
                self.entries.clear();
            }
            if let Some(mut log) = self.watched_log() {
                log.notices.push(next);
            }
            if let Some(obs) = self.obs.get() {
                obs.metrics
                    .counter(Entity::Global, "recovery.notices")
                    .inc();
                obs.metrics
                    .histogram(Entity::Global, "recovery.notification_ns")
                    .observe(next.applied_at.since(next.observed_at).as_nanos());
            }
        }
    }

    /// The entry to stamp on a packet entering at `(src, dst)` now,
    /// recomputing if the failure epoch moved since the last packet.
    fn current_entry(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
    ) -> Option<Arc<Entry>> {
        let key = (src, dst);
        if let Some(cur) = self.current.get(&key) {
            if cur.epoch == self.epoch {
                return Some(Arc::clone(&cur.entry));
            }
        }
        let orig = self.installed.get(&key)?;
        let original = Arc::clone(&orig.chain[0]);
        // The link that actually broke this pair's primary path.
        let links = orig.chain.iter().flat_map(|e| e.seg.path.windows(2));
        let broken = links
            .filter_map(|w| topo.link_between(w[0], w[1]))
            .find(|l| self.failed.contains(l));
        let detoured = match (&self.view, broken) {
            (LinkView::Notices(config), Some(_)) => self
                .plan_first(topo, src, dst, &config.protection, false)
                .ok(),
            _ => None,
        };
        // No failure-avoiding path: keep the original ID and let
        // deflection fight for the packets.
        let detour = detoured.is_some();
        let entry = detoured.unwrap_or(original);
        if detour {
            self.entries.insert(key, Arc::clone(&entry));
        }
        let was_detour = self.current.get(&key).map(|c| c.detour).unwrap_or(false);
        // A re-encode while already detoured (new epoch, still broken)
        // keeps its original span: causally it is the same recovery.
        let mut span = if detour {
            self.current.get(&key).and_then(|c| c.span)
        } else {
            None
        };
        if detour && !was_detour {
            if let Some(failed_at) = self.last_failure_observed {
                if let Some(mut log) = self.watched_log() {
                    log.flows.push(FlowRecovery {
                        src,
                        dst,
                        failed_at,
                        recovered_at: now,
                    });
                }
                if let Some(obs) = self.obs.get() {
                    let latency_ns = now.since(failed_at).as_nanos();
                    obs.metrics
                        .counter(Entity::Global, "recovery.reencodes")
                        .inc();
                    obs.metrics
                        .histogram(Entity::Global, "recovery.latency_ns")
                        .observe(latency_ns);
                    // Parent the re-encode to the detection of the
                    // broken link.
                    let parent = broken.and_then(|l| obs.spans.last_detect(l.0 as u32));
                    let s = obs.spans.fresh();
                    span = Some(s);
                    obs.events.push(Event {
                        node: Some(src.0 as u32),
                        aux: latency_ns,
                        tag: "detour",
                        span: Some(s),
                        parent,
                        ..Event::new(now.as_nanos(), EventKind::Reencode)
                    });
                }
            }
        } else if !detour && was_detour {
            if let Some(obs) = self.obs.get() {
                let parent = self
                    .last_notice_link
                    .and_then(|l| obs.spans.last_detect(l.0 as u32));
                obs.events.push(Event {
                    node: Some(src.0 as u32),
                    tag: "restore",
                    span: Some(obs.spans.fresh()),
                    parent,
                    ..Event::new(now.as_nanos(), EventKind::Reencode)
                });
            }
        }
        self.current.insert(
            key,
            Current {
                epoch: self.epoch,
                entry: Arc::clone(&entry),
                detour,
                span,
            },
        );
        Some(entry)
    }
}

impl EdgeLogic for Planner {
    fn ingress(&mut self, topo: &Topology, edge: NodeId, pkt: &mut Packet) -> Option<PortIx> {
        let LinkView::Notices(_) = self.view else {
            return Some(self.entries.get(&(edge, pkt.dst))?.stamp(pkt));
        };
        // `created` is the injection time — the current simulation time
        // at every ingress call.
        self.apply_pending(pkt.created);
        let uplink = self
            .current_entry(topo, edge, pkt.dst, pkt.created)?
            .stamp(pkt);
        // Stamping a detour route is the moment a recovery becomes
        // visible to this packet: link its span to the re-encode's.
        if let Some(obs) = self.obs.get() {
            if let Some(cur) = self.current.get(&(edge, pkt.dst)) {
                if cur.detour {
                    obs.events.push(Event {
                        pkt: Some(pkt.id),
                        flow: Some(pkt.flow.0),
                        node: Some(edge.0 as u32),
                        tag: "detour",
                        span: Some(kar_obs::pkt_span(pkt.id)),
                        parent: cur.span,
                        ..Event::new(pkt.created.as_nanos(), EventKind::Stamp)
                    });
                }
            }
        }
        Some(uplink)
    }

    fn core_ingress(
        &mut self,
        topo: &Topology,
        node: NodeId,
        in_port: Option<PortIx>,
        pkt: &mut Packet,
    ) {
        let Some(partition) = &self.partition else {
            return;
        };
        if pkt.route.is_none() {
            return;
        }
        let Some(p) = in_port else { return };
        let Some(&link) = topo.node(node).ports.get(p as usize) else {
            return;
        };
        if !partition.is_boundary(link) {
            return;
        }
        // The packet just entered a new domain — planned handoff or
        // deflection spill-over alike, a boundary ingress is a planned
        // re-encode: re-stamp with this entry's piece toward the
        // destination (a fresh tag, so the deflection mark clears).
        // Spill-over recovery is what makes the failure-aware posture
        // whole: a deflected wanderer is put back on a valid plan at the
        // first boundary it stumbles into. On a planning failure (the
        // destination became unreachable) the tag is left alone and
        // deflection/TTL take over, like a missed wrong-edge rescue.
        if let Some(hit) = self.entries.get(&(node, pkt.dst)) {
            self.stats.boundary_stamps.fetch_add(1, Ordering::Relaxed);
            hit.stamp(pkt);
        } else if let Ok(planned) = self.entry_or_plan(topo, node, pkt.dst) {
            self.stats
                .boundary_recomputes
                .fetch_add(1, Ordering::Relaxed);
            planned.stamp(pkt);
        }
    }

    fn reroute(&mut self, topo: &Topology, edge: NodeId, pkt: &mut Packet) -> RerouteDecision {
        match self.reroute {
            ReroutePolicy::Drop => RerouteDecision::Drop,
            // Unchanged route ID, back out of the port it would use as
            // ingress (edges in our topologies have one uplink).
            ReroutePolicy::Bounce => RerouteDecision::Forward {
                port: 0,
                delay: SimTime::ZERO,
            },
            ReroutePolicy::Recompute { latency } => {
                // The controller recalculates "based on the best path
                // from the edge node to the destination" — unprotected,
                // matching a reactive recomputation.
                match self.entry_or_plan(topo, edge, pkt.dst) {
                    Ok(entry) => RerouteDecision::Forward {
                        port: entry.stamp(pkt),
                        delay: latency,
                    },
                    Err(_) => RerouteDecision::Drop,
                }
            }
        }
    }

    fn on_link_event(&mut self, topo: &Topology, link: LinkId, up: bool, now: SimTime) {
        match &self.view {
            LinkView::Static => {}
            LinkView::Avoiding => {
                if up {
                    self.failed.remove(&link);
                } else {
                    self.failed.insert(link);
                }
                // Pieces planned under the old failure set may route
                // straight into the change; flush everything and replan
                // the installed pairs in deterministic order. Pairs that
                // became unreachable drop out of the ingress table (their
                // packets are dropped at ingress).
                self.entries.clear();
                let pairs: Vec<(Pair, Protection)> = self
                    .installed
                    .iter()
                    .map(|(&pair, i)| (pair, i.protection.clone()))
                    .collect();
                for ((src, dst), protection) in pairs {
                    let _ = self.install(topo, src, dst, &protection);
                }
            }
            LinkView::Notices(config) => self.pending.push_back(LinkNotice {
                link,
                up,
                observed_at: now,
                applied_at: now + config.notification_delay,
            }),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::deflect::{DeflectionTechnique, KarForwarder};
    use kar_rns::IdStrategy;
    use kar_simnet::{FlowId, PacketKind, Sim, SimConfig};
    use kar_topology::{gen, topo15, LinkParams};
    use std::sync::atomic::AtomicU32;

    pub(crate) fn probe(src: NodeId, dst: NodeId, created: SimTime) -> Packet {
        Packet {
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
            created,
        }
    }

    pub(crate) fn ring(n: usize) -> Topology {
        gen::ring(n, IdStrategy::SmallestPrimes, LinkParams::default())
    }

    fn notices(delay: SimTime) -> Planner {
        Planner::new().with_view(LinkView::Notices(RecoveryConfig {
            notification_delay: delay,
            protection: Protection::None,
        }))
    }

    /// The corners of segmentation × view that experiments run: every
    /// behaviour the corners share is tested once, over this table, on
    /// ring/12.
    const CONFIGURATIONS: [&str; 3] = ["flat/static", "flat/notices", "partitioned/avoiding"];

    fn configured(topo: &Topology, name: &str) -> Planner {
        match name {
            "flat/static" => Planner::new(),
            "flat/notices" => notices(SimTime::from_millis(2)),
            _ => Planner::new()
                .with_partition(Arc::new(Partition::ring(topo, 4).unwrap()))
                .with_view(LinkView::Avoiding),
        }
    }

    /// Installs an unprotected route at t=0 through the public encode
    /// entry point.
    fn install(p: &mut Planner, topo: &Topology, src: NodeId, dst: NodeId) -> EncodedRoute {
        p.encode(topo, &EncodeRequest::new(src, dst), SimTime::ZERO)
            .unwrap()
            .route
    }

    fn stamped(
        p: &mut Planner,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        at: SimTime,
    ) -> RouteTag {
        let mut pkt = probe(src, dst, at);
        p.ingress(topo, src, &mut pkt).expect("pair is installed");
        pkt.route.expect("ingress stamps a tag")
    }

    #[test]
    fn one_stamp_path_hands_out_the_entrys_one_tag() {
        let topo = ring(12);
        let (src, dst) = (topo.expect("H0"), topo.expect("H6"));
        for name in CONFIGURATIONS {
            let mut p = configured(&topo, name);
            let out = p
                .encode(&topo, &EncodeRequest::new(src, dst), SimTime::ZERO)
                .unwrap();
            assert_eq!(out.header.unpack(), out.route.route_id, "{name}");
            assert_eq!(out.header.bits(), out.route.bit_length(), "{name}");
            assert_eq!(p.route(src, dst), Some(&out.route), "{name}");
            let a = stamped(&mut p, &topo, src, dst, SimTime::ZERO);
            let b = stamped(&mut p, &topo, src, dst, SimTime::from_millis(1));
            assert!(Arc::ptr_eq(&a.route_id, &b.route_id), "{name}: one Arc");
            assert_eq!(*a.route_id, out.header.unpack(), "{name}: wire bytes");
            // No route for the reverse direction.
            assert!(p
                .ingress(&topo, dst, &mut probe(dst, src, SimTime::ZERO))
                .is_none());
        }
        // A boundary restamp hands out the boundary entry's one Arc too,
        // and clears the deflection mark.
        let mut p = configured(&topo, "partitioned/avoiding");
        let chain = p.install(&topo, src, dst, &Protection::None).unwrap();
        assert!(chain.segments.len() >= 2, "H0 -> H6 crosses a boundary");
        let first = &chain.segments[0].path;
        let (exit, entry) = (first[first.len() - 2], first[first.len() - 1]);
        let in_port = topo.port_towards(entry, exit).unwrap();
        let restamp = |p: &mut Planner| {
            let mut pkt = probe(src, dst, SimTime::ZERO);
            let mut old = RouteTag::new(BigUint::from(1u64));
            old.deflected = true;
            pkt.route = Some(old);
            p.core_ingress(&topo, entry, Some(in_port), &mut pkt);
            pkt.route.unwrap()
        };
        let (a, b) = (restamp(&mut p), restamp(&mut p));
        assert!(Arc::ptr_eq(&a.route_id, &b.route_id));
        assert_eq!(*a.route_id, chain.segments[1].route.route_id);
        assert!(!a.deflected, "a re-stamp is a fresh tag");
        assert_eq!(p.stats().boundary_stamps.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn reroute_policies_hold_in_every_configuration() {
        let topo = ring(12);
        let (src, dst, wrong) = (topo.expect("H0"), topo.expect("H6"), topo.expect("H3"));
        for name in CONFIGURATIONS {
            let make = |policy| configured(&topo, name).with_reroute(policy);
            let mut pkt = probe(src, dst, SimTime::ZERO);
            pkt.route = Some(RouteTag::new(BigUint::from(99u64)));
            match make(ReroutePolicy::Bounce).reroute(&topo, wrong, &mut pkt) {
                RerouteDecision::Forward { port: 0, delay } => assert_eq!(delay, SimTime::ZERO),
                other => panic!("{name}: {other:?}"),
            }
            assert_eq!(
                *pkt.route.as_ref().unwrap().route_id,
                BigUint::from(99u64),
                "{name}: bounce must not rewrite the tag"
            );
            let mut drop = make(ReroutePolicy::Drop);
            assert_eq!(drop.reroute(&topo, wrong, &mut pkt), RerouteDecision::Drop);

            let mut recompute = make(ReroutePolicy::default());
            install(&mut recompute, &topo, src, dst);
            match recompute.reroute(&topo, wrong, &mut pkt) {
                RerouteDecision::Forward { port, delay } => {
                    assert_eq!(port, 0, "{name}: the edge's single uplink");
                    assert_eq!(delay, SimTime::from_millis(2), "{name}");
                }
                other => panic!("{name}: expected forward, got {other:?}"),
            }
            // The rescue is cached and is what the packet now carries.
            let rescue = recompute.route(wrong, dst).expect("rescue is cached");
            assert_eq!(*pkt.route.as_ref().unwrap().route_id, rescue.route_id);
        }
    }

    #[test]
    fn cached_install_matches_uncached_in_every_configuration() {
        let topo = ring(12);
        let (src, dst) = (topo.expect("H0"), topo.expect("H6"));
        let req = EncodeRequest::new(src, dst).with_protection(Protection::AutoFull);
        for name in CONFIGURATIONS {
            let expected = configured(&topo, name)
                .encode(&topo, &req, SimTime::ZERO)
                .unwrap();
            let cache = Arc::new(EncodingCache::new());
            for _ in 0..3 {
                let mut cached = configured(&topo, name).with_encoding_cache(Arc::clone(&cache));
                let got = cached.encode(&topo, &req, SimTime::ZERO).unwrap();
                assert_eq!(got, expected, "{name}");
            }
            let stats = cache.stats();
            assert_eq!(stats.hits, 2 * stats.misses, "{name}: {stats:?}");
        }
    }

    #[test]
    fn install_explicit_pins_the_papers_route() {
        let topo = topo15::build();
        let mut p = Planner::new();
        let route = p
            .install_explicit(&topo, topo15::primary_route(&topo), &Protection::None)
            .unwrap();
        // BFS would find the same 4-switch route here; the explicit API
        // guarantees it regardless of tie-breaking.
        let ids: Vec<u64> = route.segments[0].route.pairs.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![10, 7, 13, 29]);
        assert_eq!(route.segments[0].route.bit_length(), 15);
        assert_eq!(
            p.nominal_hops(topo.expect("AS1"), topo.expect("AS3")),
            Some(5)
        );
    }

    #[test]
    fn avoiding_replans_on_the_notice_and_drops_unreachable_pairs() {
        let topo = topo15::build();
        let (as1, as3) = (topo.expect("AS1"), topo.expect("AS3"));
        let cut = topo.expect_link("SW7", "SW13");
        let ids = |p: &Planner| -> Vec<u64> {
            let route = p.route(as1, as3).expect("installed");
            route.pairs.iter().map(|&(id, _)| id).collect()
        };
        let mut p = Planner::new();
        p.set_failure_aware(true);
        install(&mut p, &topo, as1, as3);
        assert_eq!(ids(&p), vec![10, 7, 13, 29]);
        // The notice takes effect inside on_link_event: the installed
        // pair is replanned around SW7-SW13 before any packet asks.
        p.on_link_event(&topo, cut, false, SimTime::ZERO);
        assert!(!ids(&p).windows(2).any(|w| w == [7, 13]), "{:?}", ids(&p));
        p.on_link_event(&topo, cut, true, SimTime::ZERO);
        assert_eq!(ids(&p), vec![10, 7, 13, 29]);
        // Cut AS1 off entirely: the pair stamps nothing, and a fresh
        // install reports the missing path.
        p.on_link_event(&topo, topo.expect_link("AS1", "SW10"), false, SimTime::ZERO);
        assert!(p
            .ingress(&topo, as1, &mut probe(as1, as3, SimTime::ZERO))
            .is_none());
        let err = p.install(&topo, as1, as3, &Protection::None).unwrap_err();
        assert!(matches!(err, KarError::NoPath { .. }));
        // The static view never hears any of it.
        let mut fixed = Planner::new();
        install(&mut fixed, &topo, as1, as3);
        fixed.on_link_event(&topo, cut, false, SimTime::ZERO);
        assert_eq!(ids(&fixed), vec![10, 7, 13, 29]);
    }

    #[test]
    fn reencodes_after_the_notification_delay_and_reverts_on_repair() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let failed = topo.expect_link("SW7", "SW13");
        let mut rc = notices(SimTime::from_millis(2));
        let log = rc.log_handle();
        let original = install(&mut rc, &topo, as1, as3);

        // Failure observed at t=1ms: not yet effective at t=2ms...
        rc.on_link_event(&topo, failed, false, SimTime::from_millis(1));
        let tag = stamped(&mut rc, &topo, as1, as3, SimTime::from_millis(2));
        assert_eq!(
            *tag.route_id, original.route_id,
            "before the notification lands the old ID is stamped"
        );

        // ...but effective at t=3ms: the detour avoids SW7-SW13.
        let recovered = stamped(&mut rc, &topo, as1, as3, SimTime::from_millis(3));
        assert_ne!(*recovered.route_id, original.route_id);

        {
            let log = log.lock().unwrap();
            assert_eq!(log.notices.len(), 1);
            assert_eq!(log.flows.len(), 1);
            let f = log.flows[0];
            assert_eq!((f.src, f.dst), (as1, as3));
            assert_eq!(f.latency(), SimTime::from_millis(2));
            assert!((log.mean_recovery_latency_s() - 0.002).abs() < 1e-12);
        }

        // Repair observed at t=5ms, effective at 7ms: original restored.
        rc.on_link_event(&topo, failed, true, SimTime::from_millis(5));
        let tag = stamped(&mut rc, &topo, as1, as3, SimTime::from_millis(8));
        assert_eq!(*tag.route_id, original.route_id);
        // Reverting is not another "recovery".
        assert_eq!(log.lock().unwrap().flows.len(), 1);
    }

    #[test]
    fn encode_serves_the_detour_once_the_notice_lands() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let failed = topo.expect_link("SW7", "SW13");
        let mut rc = notices(SimTime::from_millis(2));
        let req = EncodeRequest::new(as1, as3);
        let original = rc.encode(&topo, &req, SimTime::ZERO).unwrap();
        // Re-encoding the same request serves the same route...
        assert_eq!(rc.encode(&topo, &req, SimTime::ZERO).unwrap(), original);
        // ...a different protection level re-installs...
        let protected = rc
            .encode(
                &topo,
                &req.clone().with_protection(Protection::AutoFull),
                SimTime::ZERO,
            )
            .unwrap();
        assert_ne!(protected.route.route_id, original.route.route_id);
        // ...and after a failure notice becomes effective, the outcome
        // is the detour, header included.
        rc.encode(&topo, &req, SimTime::ZERO).unwrap();
        rc.on_link_event(&topo, failed, false, SimTime::from_millis(1));
        let detour = rc.encode(&topo, &req, SimTime::from_millis(4)).unwrap();
        assert_ne!(detour.route.route_id, original.route.route_id);
        assert_eq!(detour.header.unpack(), detour.route.route_id);
    }

    #[test]
    fn unaffected_routes_keep_their_ids() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as2 = topo.expect("AS2");
        let as3 = topo.expect("AS3");
        let mut rc = notices(SimTime::from_millis(2));
        let log = rc.log_handle();
        install(&mut rc, &topo, as1, as3);
        let other = install(&mut rc, &topo, as2, as3);
        // AS2's shortest path (SW23, SW17, SW37, SW29) does not cross
        // SW7-SW13.
        rc.on_link_event(&topo, topo.expect_link("SW7", "SW13"), false, SimTime::ZERO);
        let tag = stamped(&mut rc, &topo, as2, as3, SimTime::from_millis(10));
        assert_eq!(*tag.route_id, other.route_id);
        let log = log.lock().unwrap();
        assert_eq!(log.notices.len(), 1, "the notice itself is recorded");
        assert!(log.flows.is_empty());
    }

    #[test]
    fn survives_a_poisoned_log_mutex() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let failed = topo.expect_link("SW7", "SW13");
        let mut rc = notices(SimTime::ZERO);
        let original = install(&mut rc, &topo, as1, as3);

        // Poison the shared log: a panic while holding the lock (e.g. a
        // crashing telemetry reader in another worker) used to make every
        // later `.expect("recovery log lock")` cascade the panic.
        let log = rc.log_handle();
        let poisoner = std::thread::spawn({
            let log = Arc::clone(&log);
            move || {
                let _guard = log.lock().unwrap();
                panic!("poison the recovery log");
            }
        });
        assert!(poisoner.join().is_err());
        assert!(log.lock().is_err(), "mutex must actually be poisoned");

        // The planner still processes the failure and records both the
        // notice and the flow recovery.
        rc.on_link_event(&topo, failed, false, SimTime::from_millis(1));
        let tag = stamped(&mut rc, &topo, as1, as3, SimTime::from_millis(2));
        assert_ne!(*tag.route_id, original.route_id);
        let snapshot = log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        assert_eq!(snapshot.notices.len(), 1);
        assert_eq!(snapshot.flows.len(), 1);
    }

    #[test]
    fn keeps_the_original_id_when_no_detour_exists() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let uplink = topo.expect_link("AS1", "SW10");
        let mut rc = notices(SimTime::from_millis(2));
        let log = rc.log_handle();
        let original = install(&mut rc, &topo, as1, as3);
        // AS1's only uplink fails: no alternative path exists.
        rc.on_link_event(&topo, uplink, false, SimTime::ZERO);
        let tag = stamped(&mut rc, &topo, as1, as3, SimTime::from_millis(10));
        assert_eq!(*tag.route_id, original.route_id);
        let log = log.lock().unwrap();
        assert_eq!(log.notices.len(), 1);
        assert!(log.flows.is_empty());
    }

    /// The daemon's planner: notices land at once, nobody holds the log.
    #[test]
    fn an_unwatched_log_stays_empty_and_encode_with_lends_the_live_header() {
        let topo = topo15::build();
        let req = EncodeRequest::new(topo.expect("AS1"), topo.expect("AS3"));
        let cut = topo.expect_link("SW7", "SW13");
        let mut rc = notices(SimTime::ZERO);
        let original = rc.encode(&topo, &req, SimTime::ZERO).unwrap().header;
        let mut detour = None;
        for i in 0..10_000u64 {
            let (down, up) = (SimTime(4 * i + 1), SimTime(4 * i + 3));
            rc.on_link_event(&topo, cut, false, down);
            let read = rc.encode_with(&topo, &req, SimTime(down.0 + 1), RouteHeader::clone);
            let read = read.unwrap();
            assert_ne!(read, original, "cycle {i}: the read is detoured");
            assert_eq!(*detour.get_or_insert(read.clone()), read);
            rc.on_link_event(&topo, cut, true, up);
            let read = rc.encode_with(&topo, &req, SimTime(up.0 + 1), RouteHeader::clone);
            assert_eq!(read.unwrap(), original, "cycle {i}: restored");
        }
        // One lookup under both accessors: same header, same errors.
        let outcome = rc.encode(&topo, &req, SimTime(50_000)).unwrap();
        assert_eq!(outcome.header, original);
        let nowhere = EncodeRequest::new(req.src, NodeId(topo.node_count() + 7));
        let lent = rc.encode_with(&topo, &nowhere, SimTime(50_000), |_| ());
        assert_eq!(
            lent.unwrap_err(),
            rc.encode(&topo, &nowhere, SimTime(50_000)).unwrap_err()
        );
        // 20 000 notices and 10 000 detours later nothing was recorded;
        // a handle taken now sees only what follows.
        let log = rc.log_handle();
        assert!(log.lock().unwrap().notices.is_empty());
        assert!(log.lock().unwrap().flows.is_empty());
        rc.on_link_event(&topo, cut, false, SimTime(50_001));
        rc.encode(&topo, &req, SimTime(50_002)).unwrap();
        assert_eq!(log.lock().unwrap().notices.len(), 1);
        assert_eq!(log.lock().unwrap().flows.len(), 1);
    }

    /// Records the widest route ID any stamp of the wrapped planner put
    /// on a packet.
    struct WidestStamp(Planner, Arc<AtomicU32>);

    impl WidestStamp {
        fn note(&self, pkt: &Packet) {
            if let Some(tag) = &pkt.route {
                self.1.fetch_max(tag.route_id.bits(), Ordering::Relaxed);
            }
        }
    }

    impl EdgeLogic for WidestStamp {
        fn ingress(&mut self, t: &Topology, edge: NodeId, pkt: &mut Packet) -> Option<PortIx> {
            let port = self.0.ingress(t, edge, pkt);
            self.note(pkt);
            port
        }
        fn reroute(&mut self, t: &Topology, edge: NodeId, pkt: &mut Packet) -> RerouteDecision {
            let decision = self.0.reroute(t, edge, pkt);
            self.note(pkt);
            decision
        }
        fn on_link_event(&mut self, t: &Topology, link: LinkId, up: bool, now: SimTime) {
            self.0.on_link_event(t, link, up, now)
        }
        fn core_ingress(&mut self, t: &Topology, n: NodeId, p: Option<PortIx>, pkt: &mut Packet) {
            self.0.core_ingress(t, n, p, pkt);
            self.note(pkt);
        }
    }

    /// Segmentation and the notice-driven view compose: ring/48 in 8
    /// domains with the recovery loop, a link on the nominal path down
    /// at 1 ms.
    #[test]
    fn hierarchy_and_recovery_compose() {
        let topo = ring(48);
        let partition = Arc::new(Partition::ring(&topo, 8).unwrap());
        let hosts = topo.edge_nodes();
        let pairs: Vec<Pair> = (0..hosts.len())
            .step_by(6)
            .map(|i| (hosts[i], hosts[(i + 20) % hosts.len()]))
            .collect();
        let cut = topo.expect_link("C2", "C3");
        let mut planner = notices(SimTime::from_micros(200)).with_partition(Arc::clone(&partition));
        // What one domain can fold into a route ID: its own switches.
        let bound: u32 = (0..partition.num_domains())
            .map(|d| {
                let cores = partition.domain_cores(kar_topology::DomainId(d));
                let bits = |&c: &NodeId| 64 - topo.switch_id(c).unwrap().leading_zeros();
                cores.iter().map(bits).sum()
            })
            .max()
            .unwrap();
        let mut affected = 0;
        for &(src, dst) in &pairs {
            let chain = planner.install(&topo, src, dst, &Protection::None).unwrap();
            assert!(chain.max_bits() <= bound);
            let crosses = |s: &Segment| paths::links_along(&topo, &s.path).unwrap().contains(&cut);
            affected += usize::from(chain.segments.iter().any(crosses));
        }
        assert!(affected > 0 && affected < pairs.len(), "{affected}");
        let log = planner.log_handle();
        let widest = Arc::new(AtomicU32::new(0));
        let mut sim = Sim::new(
            &topo,
            Box::new(KarForwarder::new(DeflectionTechnique::Nip)),
            Box::new(WidestStamp(planner, Arc::clone(&widest))),
            SimConfig {
                seed: 3,
                default_ttl: 255,
                detection_delay: SimTime::from_micros(50),
                ..SimConfig::default()
            },
        );
        sim.schedule_link_down(SimTime::from_millis(1), cut);
        // 20 rounds of one probe per pair, 100 µs apart: the notice
        // lands at 1.25 ms, between rounds 12 and 13.
        let mut injected = 0u64;
        let mut before = sim.stats().clone();
        for round in 0..20u64 {
            sim.run_until(SimTime::from_micros(round * 100));
            if round == 13 {
                sim.run_to_quiescence();
                before = sim.stats().clone();
                assert!(
                    before.deflections > 0,
                    "the window is bridged by deflection"
                );
            }
            for (i, &(src, dst)) in pairs.iter().enumerate() {
                sim.inject(src, dst, FlowId(i as u32), round, PacketKind::Probe, 500);
                injected += 1;
            }
        }
        sim.run_to_quiescence();
        let s = sim.stats();
        assert_eq!(s.delivered + s.dropped(), injected, "conservation: {s:?}");
        // Every probe injected after the notice landed rides a plan
        // that avoids the cut: delivered, never deflected.
        let late = 7 * pairs.len() as u64;
        assert_eq!(s.delivered - before.delivered, late, "{s:?}");
        assert_eq!(s.deflections, before.deflections, "{s:?}");
        let log = log.lock().unwrap();
        assert_eq!(log.notices.len(), 1);
        assert_eq!(log.flows.len(), affected, "one recovery per affected pair");
        let w = widest.load(Ordering::Relaxed);
        assert!(
            w > 0 && w <= bound,
            "stamped {w} bits, domain bound {bound}"
        );
    }
}
