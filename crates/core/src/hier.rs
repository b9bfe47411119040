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
//! A [`crate::Planner`] built [`crate::Planner::with_partition`] is the
//! [`EdgeLogic`](kar_simnet::EdgeLogic) implementing this: ingress
//! stamps the first segment, `core_ingress` re-stamps at boundary
//! entries (from a deterministic `(entry, dst)` segment memo), and
//! wrong-edge packets are rescued by hierarchical recompute exactly
//! like flat [`crate::ReroutePolicy::Recompute`].
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
//! [`crate::LinkView::Avoiding`]), planned segments avoid the failure
//! and the verifier finds no loop or blackhole classes at all.
//!
//! [`Segmented`] is the partitioned instance of the verifier's
//! [`ActiveRoute`]: the one exhaustive explorer of [`crate::verify`]
//! then walks `(active segment, state)` pairs, each state holding what
//! the technique reads of `(switch, in-port, deflected)`,
//! switching segments at boundary crossings exactly as the planner
//! would, with the same [`crate::Outcome`] precedence, witnesses and
//! `relevant_links`. Whether hierarchy introduces any *new* violation
//! class is the gate `fig_hier` (per cell) and the regression tests
//! (k=1 exhaustive plus sampled k=2 on small rings) enforce.

use crate::deflect::DeflectionTechnique;
use crate::error::KarError;
use crate::planner::Planner;
use crate::protection::Protection;
use crate::route::EncodedRoute;
use crate::verify::{verify_route, ActiveRoute, VerifyReport};
use kar_topology::{LinkId, NodeId, Partition, Topology};
use std::collections::HashSet;
use std::sync::atomic::AtomicU64;

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

/// Shared boundary counters of one [`Planner`] — kept behind an `Arc`
/// so experiment drivers can read them after the planner moved into the
/// simulation.
#[derive(Debug, Default)]
pub struct HierStats {
    /// Boundary ingresses served from the segment memo.
    pub boundary_stamps: AtomicU64,
    /// Boundary ingresses that had to plan a fresh segment.
    pub boundary_recomputes: AtomicU64,
}

/// A partitioned route as the verifier sees it: the segment `src`
/// stamps for `dst`, replaced at every boundary crossing (planned
/// handoff or deflection spill-over) by the entry switch's segment,
/// exactly as the planner's `core_ingress` re-stamps the packet.
///
/// The planner is borrowed `&mut` so the exploration shares (and
/// extends) its deterministic `(entry, dst)` segment memo — the verifier
/// sees byte-identical segments to the dataplane.
pub struct Segmented<'a> {
    planner: &'a mut Planner,
    ingress: EncodedRoute,
    dst: NodeId,
}

impl<'a> Segmented<'a> {
    /// The route `src → dst` as `planner` serves it, installed
    /// (unprotected) on first sight.
    ///
    /// # Errors
    ///
    /// [`KarError::NoPath`] when no route `src → dst` exists to verify.
    pub fn of(
        topo: &Topology,
        planner: &'a mut Planner,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Self, KarError> {
        if planner.route(src, dst).is_none() {
            planner.plan_and_record(topo, src, dst, &Protection::None)?;
        }
        let ingress = planner.route(src, dst).expect("just installed").clone();
        Ok(Segmented {
            planner,
            ingress,
            dst,
        })
    }
}

impl ActiveRoute for Segmented<'_> {
    /// `None` for the ingress-stamped segment, `Some(entry)` after a
    /// boundary re-stamp at `entry`.
    type Key = Option<NodeId>;

    fn ingress(&self) -> Self::Key {
        None
    }

    fn route(&self, key: Self::Key) -> &EncodedRoute {
        match key {
            None => &self.ingress,
            Some(entry) => self
                .planner
                .route(entry, self.dst)
                .expect("restamp planned this entry"),
        }
    }

    fn restamp(&mut self, topo: &Topology, link: LinkId, node: NodeId) -> Option<Self::Key> {
        if !self.planner.partition()?.is_boundary(link) {
            return None;
        }
        // No plan from here: the tag stays, exactly like core_ingress.
        let planned = self.planner.entry_or_plan(topo, node, self.dst);
        planned.ok().map(|_| Some(node))
    }
}

/// Exhaustively classifies one partitioned route under one failure set:
/// [`verify_route`] over [`Segmented`].
///
/// # Errors
///
/// [`KarError::NoPath`] when no route `src → dst` exists to verify.
pub fn verify_hier_route(
    topo: &Topology,
    planner: &mut Planner,
    src: NodeId,
    dst: NodeId,
    technique: DeflectionTechnique,
    failed: &HashSet<LinkId>,
) -> Result<VerifyReport, KarError> {
    let route = Segmented::of(topo, planner, src, dst)?;
    Ok(verify_route(topo, route, src, dst, technique, failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflect::KarForwarder;
    use crate::planner::tests::{probe, ring};
    use crate::protection::encode_with_protection;
    use crate::verify::{Outcome, VerifySummary};
    use kar_simnet::{EdgeLogic, FlowId, PacketKind, Sim, SimConfig, SimTime};
    use kar_topology::paths;
    use std::sync::Arc;

    fn planner(partition: Arc<Partition>) -> Planner {
        Planner::new().with_partition(partition)
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
        let mut ctrl = planner(Arc::clone(&partition));
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
        let mut ctrl = planner(Arc::clone(&partition));
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
    fn hier_delivers_across_a_failure_with_deflection() {
        let topo = ring(12);
        let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
        let src = topo.expect("H0");
        let dst = topo.expect("H6");
        let mut ctrl = planner(partition);
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
        let mut ctrl = planner(partition);
        ctrl.set_failure_aware(true);
        ctrl.install(&topo, src, dst, &Protection::None).unwrap();
        // Failure lands on the nominal path; the replanned ingress
        // segment must avoid it.
        let cut = topo.expect_link("C2", "C3");
        ctrl.on_link_event(&topo, cut, false, SimTime::ZERO);
        let route = ctrl.route(src, dst).expect("replanned").clone();
        let mut pkt = probe(src, dst, SimTime::ZERO);
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
        let mut ctrl = planner(partition);
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

    /// Both dataplanes run NIP over the same unprotected shortest paths,
    /// so any classification gap is the boundary re-encoding's own:
    /// every single-link failure, plus a strided sample of link pairs.
    #[test]
    fn hier_resilience_introduces_no_new_violation_classes() {
        let nip = DeflectionTechnique::Nip;
        for (topo, parts) in [(ring(12), 4), (ring(16), 2)] {
            let mut ctrl = planner(Arc::new(Partition::ring(&topo, parts).unwrap()));
            let (hosts, links) = (topo.edge_nodes(), topo.link_count());
            let k1: Vec<HashSet<LinkId>> = (0..links).map(|l| [LinkId(l)].into()).collect();
            let k2: Vec<HashSet<LinkId>> = (0..8)
                .map(|s| [LinkId(s * 5 % links), LinkId((s * 7 + 3) % links)].into())
                .collect();
            for (k, sets) in [(1, k1), (2, k2)] {
                let (mut flat, mut hier) = (VerifySummary::default(), VerifySummary::default());
                for i in 0..4 {
                    let (src, dst) = (hosts[i], hosts[(i + hosts.len() / 2) % hosts.len()]);
                    let primary = paths::bfs_shortest_path(&topo, src, dst).unwrap();
                    let route = encode_with_protection(&topo, primary, &Protection::None).unwrap();
                    for failed in &sets {
                        let f = verify_route(&topo, &route, src, dst, nip, failed);
                        let h = verify_hier_route(&topo, &mut ctrl, src, dst, nip, failed);
                        flat.record(f.outcome, false);
                        hier.record(h.unwrap().outcome, false);
                    }
                }
                for class in [Outcome::Blackhole, Outcome::Loop] {
                    assert!(
                        hier.count(class) == 0 || flat.count(class) > 0,
                        "k={k} new class {class}: flat {flat:?} hier {hier:?}"
                    );
                }
            }
        }
    }

    /// The unified report carries witnesses for partitioned routes too.
    /// `fig_hier`'s transient tally (stale segments, one link down)
    /// counts hier-only loops on host-sparse grids; the smallest is the
    /// 3×3 grid in two domains (rings with a host per switch have none).
    #[test]
    fn transient_hier_loop_comes_with_a_boundary_crossing_witness() {
        use kar_rns::IdStrategy;
        use kar_topology::{gen, LinkParams};
        let topo = gen::grid(3, 3, IdStrategy::SmallestPrimes, LinkParams::default());
        let partition = Arc::new(Partition::auto(&topo, 2).unwrap());
        let (src, dst) = (topo.expect("H_NE"), topo.expect("H_NW"));
        let failed: HashSet<LinkId> = [LinkId(0)].into_iter().collect();
        let technique = DeflectionTechnique::Nip;
        let primary = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        let flat = encode_with_protection(&topo, primary, &Protection::None).unwrap();
        let flat = verify_route(&topo, &flat, src, dst, technique, &failed);
        assert_ne!(flat.outcome, Outcome::Loop, "flat absorbs the wanderer");
        let mut stale = planner(Arc::clone(&partition));
        let hier = verify_hier_route(&topo, &mut stale, src, dst, technique, &failed).unwrap();
        assert_eq!(hier.outcome, Outcome::Loop);
        let cycle = hier.loop_witness.expect("a loop comes with its witness");
        let hops: Vec<LinkId> = (0..cycle.len())
            .map(|i| topo.link_between(cycle[i], cycle[(i + 1) % cycle.len()]))
            .collect::<Option<_>>()
            .expect("consecutive witness switches are adjacent: it is a cycle");
        assert!(hops.iter().all(|l| !failed.contains(l)));
        assert!(
            hops.iter().any(|&l| partition.is_boundary(l)),
            "the re-stamp at a boundary entry is what closes the loop: {cycle:?}"
        );
        assert!(!hier.relevant_links.is_empty());
    }
}
