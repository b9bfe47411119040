//! Multipath KAR routing (paper §5 future work: "explore the use of
//! multiple paths … in the case of redundant links").
//!
//! KAR cannot encode two output ports for one switch in a single route
//! ID (the Fig. 8 constraint), but nothing stops the edge from holding
//! *several route IDs* over disjoint switch sets and spreading flows
//! across them. [`edge_disjoint_paths`] finds link-disjoint paths;
//! [`MultipathEdge`] installs one encoded route per path and hashes each
//! flow onto one of them, so a single link failure only disturbs the
//! flows on the affected path.

use crate::error::KarError;
use crate::protection::Protection;
use crate::route::EncodedRoute;
use kar_simnet::{EdgeLogic, Packet, RerouteDecision, RouteTag, SimTime};
use kar_topology::{paths, LinkId, NodeId, PortIx, Topology};
use std::collections::{HashMap, HashSet};

/// Finds up to `k` paths from `src` to `dst` whose *core* links are
/// pairwise disjoint (greedy: repeated BFS, removing the core links of
/// each accepted path). Host access links are shared by construction —
/// a single-homed edge has no alternative for its first hop.
///
/// Returns at least one path when the nodes are connected; fewer than
/// `k` when the topology runs out of disjoint core links.
pub fn edge_disjoint_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Vec<Vec<NodeId>> {
    let mut used: HashSet<LinkId> = HashSet::new();
    let mut out: Vec<Vec<NodeId>> = Vec::new();
    while out.len() < k {
        let Some(path) = paths::bfs_shortest_path_where(topo, src, dst, |_, l| !used.contains(&l))
        else {
            break;
        };
        if out.contains(&path) {
            // BFS re-found an accepted path, which happens exactly when
            // that path added no core-core link to the avoid set (e.g. a
            // one-switch path, all of whose links touch a host). Widening
            // the avoid set with *all* of its links forces the next BFS
            // onto genuinely different links; giving up here used to end
            // the search even when further disjoint paths existed.
            let mut widened = false;
            for w in path.windows(2) {
                if let Some(l) = topo.link_between(w[0], w[1]) {
                    widened |= used.insert(l);
                }
            }
            if !widened {
                break; // the duplicate has nothing left to exclude
            }
            continue;
        }
        for w in path.windows(2) {
            let both_core = topo.switch_id(w[0]).is_some() && topo.switch_id(w[1]).is_some();
            if both_core {
                if let Some(l) = topo.link_between(w[0], w[1]) {
                    used.insert(l);
                }
            }
        }
        out.push(path);
    }
    out
}

/// Edge logic holding several route IDs per `(src, dst)` pair and
/// assigning each flow to one of them by hash.
///
/// # Examples
///
/// ```
/// use kar::{MultipathEdge, Protection};
/// use kar_topology::topo15;
///
/// let topo = topo15::build();
/// let mut edge = MultipathEdge::new();
/// let n = edge.install(
///     &topo,
///     topo.expect("AS1"),
///     topo.expect("AS3"),
///     3,
///     &Protection::None,
/// )?;
/// assert!(n >= 2); // topo15 offers several core-disjoint paths
/// # Ok::<(), kar::KarError>(())
/// ```
#[derive(Debug, Default)]
pub struct MultipathEdge {
    routes: HashMap<(NodeId, NodeId), Vec<EncodedRoute>>,
}

impl MultipathEdge {
    /// Creates an empty multipath edge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans and installs up to `k` link-disjoint routes from `src` to
    /// `dst`, each with the given protection, and returns how many were
    /// installed.
    ///
    /// # Errors
    ///
    /// [`KarError::NoPath`] when `src` cannot reach `dst`; encoding
    /// errors are propagated.
    pub fn install(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        k: usize,
        protection: &Protection,
    ) -> Result<usize, KarError> {
        let paths = edge_disjoint_paths(topo, src, dst, k);
        if paths.is_empty() {
            return Err(KarError::NoPath { src, dst });
        }
        let mut encoded = Vec::with_capacity(paths.len());
        for path in paths {
            encoded.push(crate::protection::encode_with_protection(
                topo, path, protection,
            )?);
        }
        let n = encoded.len();
        self.routes.insert((src, dst), encoded);
        Ok(n)
    }

    /// Number of routes installed for a pair.
    pub fn route_count(&self, src: NodeId, dst: NodeId) -> usize {
        self.routes.get(&(src, dst)).map(Vec::len).unwrap_or(0)
    }

    /// The route a given flow id maps to, if installed.
    pub fn route_for(&self, src: NodeId, dst: NodeId, flow: u32) -> Option<&EncodedRoute> {
        let routes = self.routes.get(&(src, dst))?;
        // Fibonacci hashing spreads consecutive flow ids evenly.
        let h = (flow as u64).wrapping_mul(11400714819323198485) >> 32;
        Some(&routes[(h % routes.len() as u64) as usize])
    }
}

impl EdgeLogic for MultipathEdge {
    fn ingress(&mut self, _topo: &Topology, edge: NodeId, pkt: &mut Packet) -> Option<PortIx> {
        let route = self.route_for(edge, pkt.dst, pkt.flow.0)?;
        pkt.route = Some(RouteTag::new(route.route_id.clone()));
        Some(route.uplink)
    }

    fn reroute(&mut self, _topo: &Topology, edge: NodeId, pkt: &mut Packet) -> RerouteDecision {
        // Re-tag with the flow's own route and send it back in (cheap
        // local decision; a production deployment would consult the
        // controller as the planner's `reroute` does).
        match self.route_for(edge, pkt.dst, pkt.flow.0) {
            Some(route) if edge == pkt.src => {
                pkt.route = Some(RouteTag::new(route.route_id.clone()));
                RerouteDecision::Forward {
                    port: route.uplink,
                    delay: SimTime::ZERO,
                }
            }
            _ => RerouteDecision::Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflect::{DeflectionTechnique, KarForwarder};
    use kar_simnet::{FlowId, PacketKind, Sim, SimConfig};
    use kar_topology::{paths, rnp28, topo15};

    #[test]
    fn finds_disjoint_paths_on_topo15() {
        let topo = topo15::build();
        let found = edge_disjoint_paths(&topo, topo.expect("AS1"), topo.expect("AS3"), 3);
        // AS1 has a single access link, so everything shares AS1-SW10 —
        // still, the core segments must be link-disjoint.
        assert!(found.len() >= 2, "topo15 has ≥ 2 disjoint core paths");
        let mut used = HashSet::new();
        for path in &found {
            for w in path.windows(2) {
                if topo.switch_id(w[0]).is_none() || topo.switch_id(w[1]).is_none() {
                    continue; // shared host access links
                }
                let l = topo.link_between(w[0], w[1]).unwrap();
                assert!(used.insert(l), "core link reused across paths");
            }
        }
    }

    #[test]
    fn hash_spreads_flows() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let mut edge = MultipathEdge::new();
        let n = edge.install(&topo, as1, as3, 3, &Protection::None).unwrap();
        assert!(n >= 2);
        assert_eq!(edge.route_count(as1, as3), n);
        let mut seen = HashSet::new();
        for flow in 0..64u32 {
            let r = edge.route_for(as1, as3, flow).unwrap();
            seen.insert(r.route_id.clone());
        }
        assert_eq!(seen.len(), n, "all routes receive some flows");
        // Same flow always maps to the same route (no packet-level
        // reordering from multipath itself).
        let a = edge.route_for(as1, as3, 7).unwrap().route_id.clone();
        let b = edge.route_for(as1, as3, 7).unwrap().route_id.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn failure_on_one_path_spares_other_flows() {
        let topo = rnp28::build();
        let src = topo.expect("E_BH");
        let dst = topo.expect("E_113");
        let mut edge = MultipathEdge::new();
        let n = edge.install(&topo, src, dst, 2, &Protection::None).unwrap();
        assert_eq!(n, 2, "SW41→SW113 has the 107 and 109 branches");
        // Identify which link flow 0 and flow 1..k use.
        let mut sim = Sim::new(
            &topo,
            Box::new(KarForwarder::new(DeflectionTechnique::None)),
            Box::new(edge),
            SimConfig::default(),
        );
        // Find two flows mapping to different paths by probing.
        for flow in 0..8u32 {
            sim.inject(src, dst, FlowId(flow), 0, PacketKind::Probe, 300);
        }
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 8, "all paths work when healthy");

        // Now fail the SW73-SW107 branch; flows hashed to the SW109
        // branch must be unaffected even with deflection disabled.
        let mut edge = MultipathEdge::new();
        edge.install(&topo, src, dst, 2, &Protection::None).unwrap();
        let mut sim = Sim::new(
            &topo,
            Box::new(KarForwarder::new(DeflectionTechnique::None)),
            Box::new(edge),
            SimConfig::default(),
        );
        sim.schedule_link_down(kar_simnet::SimTime::ZERO, topo.expect_link("SW73", "SW107"));
        for flow in 0..8u32 {
            sim.inject(src, dst, FlowId(flow), 0, PacketKind::Probe, 300);
        }
        sim.run_to_quiescence();
        let s = sim.stats();
        assert!(
            s.delivered >= 1 && s.delivered < 8,
            "only the failed path's flows die without deflection: {s:?}"
        );
    }

    #[test]
    fn duplicate_path_widens_search_instead_of_ending_it() {
        // Two parallel one-switch paths: H0-A-H1 and H0-B-H1. Neither
        // contains a core-core link, so accepting the first adds nothing
        // to the avoid set and the next BFS re-finds it; the search used
        // to give up there and report a single path.
        let mut b = kar_topology::TopologyBuilder::new();
        let params = kar_topology::LinkParams::default();
        let h0 = b.edge("H0");
        let h1 = b.edge("H1");
        let sa = b.core("A", 3);
        let sb = b.core("B", 5);
        b.link(h0, sa, params);
        b.link(sa, h1, params);
        b.link(h0, sb, params);
        b.link(sb, h1, params);
        let topo = b.build().unwrap();
        let found = edge_disjoint_paths(&topo, h0, h1, 3);
        assert_eq!(found.len(), 2, "both parallel paths: {found:?}");
        assert_ne!(found[0], found[1]);
        // Asking for more than exist still terminates.
        assert_eq!(edge_disjoint_paths(&topo, h0, h1, 8).len(), 2);
    }

    #[test]
    fn disjoint_paths_are_real_paths() {
        let topo = rnp28::build();
        for path in edge_disjoint_paths(&topo, topo.expect("E_BV"), topo.expect("E_SP"), 3) {
            assert!(paths::links_along(&topo, &path).is_ok());
            assert_eq!(path.first(), Some(&topo.expect("E_BV")));
            assert_eq!(path.last(), Some(&topo.expect("E_SP")));
        }
    }

    #[test]
    fn unreachable_install_errors() {
        let topo = topo15::build();
        let mut edge = MultipathEdge::new();
        // AS1 → AS1 degenerates to a single-node path → encode fails as
        // NoPath via the empty-primary check.
        let as1 = topo.expect("AS1");
        let err = edge.install(&topo, as1, as1, 2, &Protection::None);
        assert!(err.is_err());
    }
}
