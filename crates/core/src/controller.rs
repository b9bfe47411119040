//! The KAR network controller and edge logic.
//!
//! The paper's controller "knows the entire network topology, including
//! the Switch IDs … when a route is selected, it computes a Route ID"
//! (§2). Our [`Controller`] does exactly that: it selects primary paths
//! (shortest path, as in the paper's example), resolves the requested
//! [`Protection`] into driven-deflection segments, encodes route IDs, and
//! installs them at ingress edges. It also implements the paper's §2.1
//! wrong-edge handling: when a deflected packet surfaces at an edge that
//! is not its destination, the edge consults the controller, which
//! re-encodes a route from that edge to the destination (the paper's
//! "second approach", used in all their tests).
//!
//! Faithfulness note: during the paper's experiments "the controller
//! ignores all failure notifications and keeps the same route", so
//! re-encoding here uses the *intact* topology, not the failed one. Flip
//! [`Controller::set_failure_aware`] to study the alternative.

use crate::cache::EncodingCache;
use crate::deflect::DeflectionTechnique;
use crate::error::KarError;
use crate::protection::{encode_with_protection, Protection};
use crate::route::EncodedRoute;
use crate::wire::RouteHeader;
use kar_simnet::{EdgeLogic, Packet, RerouteDecision, RouteArena, RouteTag, SimTime};
use kar_topology::{paths, LinkId, NodeId, PortIx, Topology};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One route-encode request: the single public encode entry point,
/// shared by [`crate::KarNetwork`], [`crate::RecoveringController`],
/// the campaign engine and the `kar-service` daemon.
///
/// # Examples
///
/// ```
/// use kar::{EncodeRequest, Protection};
/// use kar_topology::topo15;
///
/// let topo = topo15::build();
/// let req = EncodeRequest::new(topo.expect("AS1"), topo.expect("AS3"))
///     .with_protection(Protection::AutoFull);
/// assert_eq!(req.protection, Protection::AutoFull);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeRequest {
    /// Ingress edge.
    pub src: NodeId,
    /// Egress edge.
    pub dst: NodeId,
    /// Protection level folded into the route ID.
    pub protection: Protection,
}

impl EncodeRequest {
    /// An unprotected encode request for `src → dst`.
    pub fn new(src: NodeId, dst: NodeId) -> EncodeRequest {
        EncodeRequest {
            src,
            dst,
            protection: Protection::None,
        }
    }

    /// Sets the protection level.
    pub fn with_protection(mut self, protection: Protection) -> EncodeRequest {
        self.protection = protection;
        self
    }
}

/// Everything one successful encode produced: the installed route and
/// the canonical wire header carrying its route ID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeOutcome {
    /// The CRT-encoded route (route ID, basis, port map, uplink).
    pub route: EncodedRoute,
    /// The §2.3 fixed-width header for the route ID — the exact bytes
    /// the dataplane carries (see [`crate::wire`]).
    pub header: RouteHeader,
}

impl EncodeOutcome {
    /// Builds the outcome for a freshly-encoded route.
    pub(crate) fn of(route: EncodedRoute) -> Result<EncodeOutcome, KarError> {
        let header = RouteHeader::for_route(&route)?;
        Ok(EncodeOutcome { route, header })
    }
}

/// What an edge does with a packet that surfaced at the wrong edge
/// (paper §2.1, final design remark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReroutePolicy {
    /// Consult the controller: rewrite the route ID with a fresh path
    /// from this edge to the destination, paying a control-plane
    /// round-trip latency (the paper's second approach — used in all its
    /// tests).
    Recompute {
        /// Controller consultation latency.
        latency: SimTime,
    },
    /// Return the packet to the network unchanged (the paper's first
    /// approach).
    Bounce,
    /// Drop misdelivered packets.
    Drop,
}

impl Default for ReroutePolicy {
    fn default() -> Self {
        ReroutePolicy::Recompute {
            latency: SimTime::from_millis(2),
        }
    }
}

/// The KAR controller: route computation, protection planning, route-ID
/// encoding, and (as [`EdgeLogic`]) ingress/egress handling.
#[derive(Debug, Default)]
pub struct Controller {
    table: HashMap<(NodeId, NodeId), EncodedRoute>,
    reroute: ReroutePolicy,
    /// Links the controller believes are down (empty unless
    /// failure-aware — the paper's controller ignores failures).
    failed: HashSet<LinkId>,
    failure_aware: bool,
    /// Optional shared encoding memo; a cached encode is byte-identical
    /// to a fresh one, so this only affects speed.
    cache: Option<Arc<EncodingCache>>,
    /// Interns route IDs so every ingress tag for the same route shares
    /// one allocation (packet clones then only bump a refcount).
    arena: RouteArena,
}

impl Controller {
    /// Creates a controller with the default reroute policy.
    pub fn new() -> Self {
        Controller::default()
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

    /// Encodes via the shared cache when one is attached.
    fn encode_path(
        &self,
        topo: &Topology,
        primary: Vec<NodeId>,
        protection: &Protection,
    ) -> Result<EncodedRoute, KarError> {
        match &self.cache {
            Some(cache) => cache.encode_with_protection(topo, primary, protection),
            None => encode_with_protection(topo, primary, protection),
        }
    }

    /// When `true`, wrong-edge re-encoding avoids links marked failed via
    /// [`Controller::notify_failure`]. The paper's evaluation keeps this
    /// `false`.
    pub fn set_failure_aware(&mut self, aware: bool) {
        self.failure_aware = aware;
    }

    /// Records a failure notification (only consulted when
    /// failure-aware).
    pub fn notify_failure(&mut self, link: LinkId) {
        self.failed.insert(link);
    }

    /// Records a repair notification.
    pub fn notify_repair(&mut self, link: LinkId) {
        self.failed.remove(&link);
    }

    /// Number of installed ingress routes.
    pub fn installed_routes(&self) -> usize {
        self.table.len()
    }

    /// Forgets every installed and cached route. The recovery loop calls
    /// this when the known failure set changes: wrong-edge recomputations
    /// cached under the old failure set must not be served afterwards.
    pub fn clear_routes(&mut self) {
        self.table.clear();
        self.arena.clear();
    }

    /// The installed route for `(src, dst)`, if any.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<&EncodedRoute> {
        self.table.get(&(src, dst))
    }

    /// Computes the shortest path from `src` to `dst`, optionally
    /// avoiding failed links (failure-aware mode).
    fn select_path(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Vec<NodeId>, KarError> {
        let path = if self.failure_aware && !self.failed.is_empty() {
            paths::bfs_avoiding(topo, src, dst, &self.failed)
        } else {
            paths::bfs_shortest_path(topo, src, dst)
        };
        path.ok_or(KarError::NoPath { src, dst })
    }

    /// Serves one [`EncodeRequest`]: selects a shortest path, applies
    /// the requested protection, encodes and installs the route at the
    /// ingress edge, and returns it with its canonical wire header.
    ///
    /// # Errors
    ///
    /// [`KarError::NoPath`] when unreachable, plus any encoding error
    /// (see [`EncodedRoute::encode`]).
    pub fn encode(
        &mut self,
        topo: &Topology,
        req: &EncodeRequest,
    ) -> Result<EncodeOutcome, KarError> {
        let route = self.install_route(topo, req.src, req.dst, &req.protection)?;
        EncodeOutcome::of(route)
    }

    /// Selects a shortest path from `src` to `dst`, applies `protection`,
    /// encodes the route ID and installs it at the ingress edge.
    ///
    /// Lower-level positional form of [`Controller::encode`], kept for
    /// callers (the baseline stacks) that never need the wire header.
    ///
    /// # Errors
    ///
    /// [`KarError::NoPath`] when unreachable, plus any encoding error
    /// (see [`EncodedRoute::encode`]).
    pub fn install_route(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        protection: &Protection,
    ) -> Result<EncodedRoute, KarError> {
        let primary = self.select_path(topo, src, dst)?;
        let route = self.encode_path(topo, primary, protection)?;
        self.table.insert((src, dst), route.clone());
        Ok(route)
    }

    /// Installs an explicit primary path (the paper's scenarios pin their
    /// routes rather than recomputing them).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Controller::install_route`].
    pub fn install_explicit(
        &mut self,
        topo: &Topology,
        primary: Vec<NodeId>,
        protection: &Protection,
    ) -> Result<EncodedRoute, KarError> {
        let (src, dst) = (
            *primary.first().ok_or(KarError::NoPath {
                src: NodeId(0),
                dst: NodeId(0),
            })?,
            *primary.last().expect("non-empty checked above"),
        );
        let route = self.encode_path(topo, primary, protection)?;
        self.table.insert((src, dst), route.clone());
        Ok(route)
    }
}

impl EdgeLogic for Controller {
    fn ingress(&mut self, _topo: &Topology, edge: NodeId, pkt: &mut Packet) -> Option<PortIx> {
        let route = self.table.get(&(edge, pkt.dst))?;
        // Stamp the tag from the canonical §2.3 header bytes — the same
        // bytes `kar-service` puts on the socket — so the simulated
        // dataplane consumes exactly the wire representation. Interning
        // is by value, so this shares allocations with value-stamped
        // tags and changes no route ID.
        let header = RouteHeader::for_route(route).expect("installed routes fit their own field");
        pkt.route = Some(RouteTag::new(self.arena.intern_wire(header.as_bytes())));
        Some(route.uplink)
    }

    fn reroute(&mut self, topo: &Topology, edge: NodeId, pkt: &mut Packet) -> RerouteDecision {
        match self.reroute {
            ReroutePolicy::Drop => RerouteDecision::Drop,
            ReroutePolicy::Bounce => {
                // Unchanged route ID, back out of the port it would use
                // as ingress (edges in our topologies have one uplink).
                RerouteDecision::Forward {
                    port: 0,
                    delay: SimTime::ZERO,
                }
            }
            ReroutePolicy::Recompute { latency } => {
                // The controller recalculates "based on the best path
                // from the edge node to the destination" — unprotected,
                // matching a reactive recomputation.
                let route = match self.table.get(&(edge, pkt.dst)) {
                    Some(r) => r.clone(),
                    None => {
                        let Ok(primary) = self.select_path(topo, edge, pkt.dst) else {
                            return RerouteDecision::Drop;
                        };
                        match self.encode_path(topo, primary, &Protection::None) {
                            Ok(r) => {
                                self.table.insert((edge, pkt.dst), r.clone());
                                r
                            }
                            Err(_) => return RerouteDecision::Drop,
                        }
                    }
                };
                let header =
                    RouteHeader::for_route(&route).expect("installed routes fit their own field");
                pkt.route = Some(RouteTag::new(self.arena.intern_wire(header.as_bytes())));
                RerouteDecision::Forward {
                    port: route.uplink,
                    delay: latency,
                }
            }
        }
    }
}

/// Bundles the knobs of one KAR deployment (used by experiment drivers).
#[derive(Debug, Clone)]
pub struct KarConfig {
    /// Deflection technique for every core switch.
    pub technique: DeflectionTechnique,
    /// Protection level for installed routes.
    pub protection: Protection,
    /// Wrong-edge policy.
    pub reroute: ReroutePolicy,
}

impl Default for KarConfig {
    fn default() -> Self {
        KarConfig {
            technique: DeflectionTechnique::Nip,
            protection: Protection::None,
            reroute: ReroutePolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_simnet::{FlowId, PacketKind};
    use kar_topology::topo15;

    fn probe(src: NodeId, dst: NodeId) -> Packet {
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
            created: SimTime::ZERO,
        }
    }

    #[test]
    fn install_and_ingress() {
        let topo = topo15::build();
        let mut c = Controller::new();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let route = c.install_route(&topo, as1, as3, &Protection::None).unwrap();
        assert_eq!(route.bit_length(), 15);
        assert_eq!(c.installed_routes(), 1);
        assert_eq!(c.route(as1, as3), Some(&route));

        let mut pkt = probe(as1, as3);
        let port = c.ingress(&topo, as1, &mut pkt).unwrap();
        assert_eq!(port, route.uplink);
        assert_eq!(*pkt.route.as_ref().unwrap().route_id, route.route_id);
        // No route for the reverse direction.
        let mut back = probe(as3, as1);
        assert!(c.ingress(&topo, as3, &mut back).is_none());
    }

    #[test]
    fn encode_returns_route_and_matching_header() {
        let topo = topo15::build();
        let mut c = Controller::new();
        let req = EncodeRequest::new(topo.expect("AS1"), topo.expect("AS3"))
            .with_protection(Protection::AutoFull);
        let out = c.encode(&topo, &req).unwrap();
        assert_eq!(out.header.unpack(), out.route.route_id);
        assert_eq!(out.header.bits(), out.route.bit_length());
        assert_eq!(c.route(req.src, req.dst), Some(&out.route));
        // The ingress tag carries exactly the header's value.
        let mut pkt = probe(req.src, req.dst);
        c.ingress(&topo, req.src, &mut pkt).unwrap();
        assert_eq!(*pkt.route.unwrap().route_id, out.header.unpack());
    }

    #[test]
    fn install_explicit_pins_the_papers_route() {
        let topo = topo15::build();
        let mut c = Controller::new();
        let route = c
            .install_explicit(&topo, topo15::primary_route(&topo), &Protection::None)
            .unwrap();
        // BFS would find the same 4-switch route here; the explicit API
        // guarantees it regardless of tie-breaking.
        assert_eq!(
            route.pairs.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![10, 7, 13, 29]
        );
    }

    #[test]
    fn reroute_recomputes_from_wrong_edge() {
        let topo = topo15::build();
        let mut c = Controller::new();
        let as1 = topo.expect("AS1");
        let as2 = topo.expect("AS2");
        let as3 = topo.expect("AS3");
        c.install_route(&topo, as1, as3, &Protection::None).unwrap();
        // A deflected packet surfaces at AS2.
        let mut pkt = probe(as1, as3);
        match c.reroute(&topo, as2, &mut pkt) {
            RerouteDecision::Forward { port, delay } => {
                assert_eq!(port, 0); // AS2's single uplink
                assert_eq!(delay, SimTime::from_millis(2));
            }
            other => panic!("expected forward, got {other:?}"),
        }
        let tag = pkt.route.expect("rewritten tag");
        // The rewritten route must route AS2 → AS3: starting at SW23.
        let sw23 = 23;
        let port = tag.route_id.rem_u64(sw23);
        let sw23_node = topo.expect("SW23");
        let toward = topo
            .neighbors(sw23_node)
            .find(|&(p, _, _)| p == port)
            .map(|(_, _, peer)| peer);
        assert_eq!(toward, Some(topo.expect("SW17")));
        // The recomputed route is cached.
        assert!(c.route(as2, as3).is_some());
    }

    #[test]
    fn reroute_policies() {
        let topo = topo15::build();
        let as2 = topo.expect("AS2");
        let as3 = topo.expect("AS3");
        let mut bounce = Controller::new().with_reroute(ReroutePolicy::Bounce);
        let mut pkt = probe(topo.expect("AS1"), as3);
        pkt.route = Some(RouteTag::new(kar_rns::BigUint::from(99u64)));
        match bounce.reroute(&topo, as2, &mut pkt) {
            RerouteDecision::Forward { port: 0, delay } => assert_eq!(delay, SimTime::ZERO),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            *pkt.route.as_ref().unwrap().route_id,
            kar_rns::BigUint::from(99u64),
            "bounce must not rewrite the tag"
        );
        let mut drop = Controller::new().with_reroute(ReroutePolicy::Drop);
        assert_eq!(drop.reroute(&topo, as2, &mut pkt), RerouteDecision::Drop);
    }

    #[test]
    fn failure_aware_reroute_avoids_failed_links() {
        let topo = topo15::build();
        let mut c = Controller::new();
        c.set_failure_aware(true);
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        c.notify_failure(topo.expect_link("SW7", "SW13"));
        let route = c.install_route(&topo, as1, as3, &Protection::None).unwrap();
        // The primary route cannot use SW7-SW13 now.
        let ids: Vec<u64> = route.pairs.iter().map(|&(id, _)| id).collect();
        assert!(
            !(ids.windows(2).any(|w| w == [7, 13])),
            "route must avoid the failed link: {ids:?}"
        );
        c.notify_repair(topo.expect_link("SW7", "SW13"));
        let route2 = c.install_route(&topo, as1, as3, &Protection::None).unwrap();
        assert_eq!(
            route2.pairs.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![10, 7, 13, 29]
        );
    }

    #[test]
    fn cached_install_matches_uncached() {
        let topo = topo15::build();
        let cache = std::sync::Arc::new(crate::cache::EncodingCache::new());
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let mut plain = Controller::new();
        let expected = plain
            .install_route(&topo, as1, as3, &Protection::AutoFull)
            .unwrap();
        for _ in 0..3 {
            let mut cached = Controller::new().with_encoding_cache(cache.clone());
            let route = cached
                .install_route(&topo, as1, as3, &Protection::AutoFull)
                .unwrap();
            assert_eq!(route, expected);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn no_path_is_an_error() {
        let topo = topo15::build();
        let mut c = Controller::new();
        c.set_failure_aware(true);
        let as1 = topo.expect("AS1");
        // Cut AS1 off entirely.
        c.notify_failure(topo.expect_link("AS1", "SW10"));
        let err = c
            .install_route(&topo, as1, topo.expect("AS3"), &Protection::None)
            .unwrap_err();
        assert!(matches!(err, KarError::NoPath { .. }));
    }
}
