//! Static analysis of encoded routes: driven walks, protection coverage,
//! loop detection.
//!
//! These checks answer, *without running traffic*, the questions the
//! paper argues qualitatively: from which switches will a deflected
//! packet be driven to the destination (§2.1), and what fraction of a
//! failure's deflection candidates is covered by the protection paths
//! (the 1/3–2/3 argument of §3.1 and the 1/5–2/5 argument of §3.2)?
//!
//! Both are queries on the verifier's state graph under NIP: one search
//! of the move relation on a fresh [`crate::verify::Explorer`], rooted
//! where the question starts. A walk follows the graph while a state
//! has exactly one move, and a failure's candidates are the moves of the
//! deflecting switch's state — a host among them exactly when NIP would
//! deflect into it. All wrong edges share one sink there, so which host
//! a move surfaces at is read off its port.

use crate::deflect::DeflectionTechnique::Nip;
use crate::route::EncodedRoute;
use crate::verify::{Explorer, State, Terminal, ROOT};
use kar_topology::{LinkId, NodeId, Topology};
use std::collections::HashSet;

/// Result of following a route ID's residues hop by hop from a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrivenOutcome {
    /// The walk reached the destination in this many hops.
    Reached {
        /// Hops taken.
        hops: usize,
    },
    /// The walk hit a switch where NIP has no move (it drops) or more
    /// than one (it deflects at random): the residue names an invalid,
    /// failed or input port, and NIP's deflection set there is empty or
    /// holds several ports.
    InvalidPort {
        /// Where the walk got stuck.
        at: NodeId,
    },
    /// The walk revisited a `(switch, input port, deflected)` state, so
    /// it cycles forever.
    Loop {
        /// The switch of the first revisited state.
        at: NodeId,
    },
    /// The walk surfaced at an edge node other than the destination.
    WrongEdge {
        /// The edge reached.
        at: NodeId,
    },
}

impl DrivenOutcome {
    /// `true` when the walk reached the destination.
    pub fn reached(&self) -> bool {
        matches!(self, DrivenOutcome::Reached { .. })
    }
}

/// Follows `route` under NIP from switch `from` until the destination
/// edge `dst`, a wrong edge, a switch without exactly one move, or a
/// loop. `failed` links are treated as unavailable ports.
///
/// This is the *deterministic* part of forwarding — what a packet does
/// between random deflections. A switch not folded into the route ID
/// still yields a residue; if that residue happens to name a healthy
/// port the walk follows it, exactly as a real KAR switch would (§2.1: a
/// deflected packet "may arrive at a node included in the route ID; from
/// there, it will follow the computed path once again").
pub fn driven_walk(
    topo: &Topology,
    route: &EncodedRoute,
    from: NodeId,
    dst: NodeId,
    failed: &HashSet<LinkId>,
) -> DrivenOutcome {
    driven_walk_from(topo, route, from, None, dst, failed)
}

/// [`driven_walk`] for a packet that entered `from` from the neighbour
/// `entered`, if any. NIP never sends a packet back out of its input
/// port, so that port is excluded both from the residue rule and from
/// the deflection set; when the residue is unusable and the deflection
/// set (core-facing ports when any exist) holds one port, NIP takes it
/// deterministically — the paper's "the only alternative path is to SW11
/// and, then, to SW17".
pub fn driven_walk_from(
    topo: &Topology,
    route: &EncodedRoute,
    from: NodeId,
    entered: Option<NodeId>,
    dst: NodeId,
    failed: &HashSet<LinkId>,
) -> DrivenOutcome {
    if from == dst {
        return DrivenOutcome::Reached { hops: 0 };
    }
    if topo.switch_id(from).is_none() {
        return DrivenOutcome::WrongEdge { at: from };
    }
    let root = State::arrived(topo, from, entered, true);
    let graph = Explorer::searched(topo, &mut &*route, dst, Nip, failed, ((), root));
    follow(&graph, topo, ROOT)
}

/// The driven walk on a searched graph from its state local `from`:
/// while a state has exactly one move, take it. A revisited state is a
/// loop; a state with no move or several stops the walk.
fn follow(graph: &Explorer<()>, topo: &Topology, from: u32) -> DrivenOutcome {
    let mut visited = HashSet::new();
    let (mut at, mut hops) = (from, 0);
    loop {
        let node = graph.node_of(at);
        if !visited.insert(at) {
            return DrivenOutcome::Loop { at: node };
        }
        let mut moves = graph.moves_of(topo, at);
        let (Some(mv), None) = (moves.next(), moves.next()) else {
            return DrivenOutcome::InvalidPort { at: node };
        };
        hops += 1;
        match mv {
            Ok(next) => at = next,
            Err(Terminal::Delivered) => return DrivenOutcome::Reached { hops },
            Err(Terminal::WrongEdge(at)) => return DrivenOutcome::WrongEdge { at },
        }
    }
}

/// Coverage of one failure: which deflection candidates are driven to the
/// destination.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// The switch that deflects (upstream endpoint of the failed link).
    pub deflecting_switch: NodeId,
    /// Where NIP's moves at the deflecting switch lead, in port order:
    /// its healthy non-input ports, core-facing ones only when any
    /// exist. A host appears only when no core-facing port is left.
    pub candidates: Vec<NodeId>,
    /// The subset of candidates from which the route ID drives the packet
    /// to the destination.
    pub driven: Vec<NodeId>,
}

impl CoverageReport {
    /// `driven.len() / candidates.len()`, `1.0` when there are no
    /// candidates — which happens only when the deflecting switch has no
    /// healthy port but its input, so the packet is dropped there and
    /// nothing can protect it.
    pub fn fraction(&self) -> f64 {
        if self.candidates.is_empty() {
            return 1.0;
        }
        self.driven.len() as f64 / self.candidates.len() as f64
    }
}

/// Analyzes the coverage of a failure of `failed_link` for traffic
/// following `route` along `primary` toward `dst`.
///
/// The deflecting switch is the primary-path endpoint of the failed link
/// that the packet reaches first; its candidates are NIP's moves from
/// the state the packet arrives in there (from the previous primary
/// node), and a candidate is driven when that move, then the
/// [`driven_walk`] from where it lands, reaches `dst`. One search,
/// rooted at that state, answers both: the candidates are the root's
/// moves in order, and each walk runs on the same graph.
///
/// # Panics
///
/// Panics if `failed_link` does not join two core switches, or does not
/// touch the primary path (no deflection would happen there). An edge's
/// uplink is refused: its failure kills the packet at the edge, before
/// any switch could deflect it.
pub fn failure_coverage(
    topo: &Topology,
    route: &EncodedRoute,
    primary: &[NodeId],
    failed_link: LinkId,
    dst: NodeId,
) -> CoverageReport {
    let link = topo.link(failed_link);
    assert!(
        topo.switch_id(link.a).is_some() && topo.switch_id(link.b).is_some(),
        "failed link must join two core switches"
    );
    let pos = primary
        .iter()
        .position(|&n| link.touches(n) && topo.switch_id(n).is_some())
        .expect("failed link must touch a primary-path switch");
    let deflecting = primary[pos];
    let entered = pos.checked_sub(1).map(|i| primary[i]);
    let root = State::arrived(topo, deflecting, entered, false);
    let failed = HashSet::from([failed_link]);
    let graph = Explorer::searched(topo, &mut &*route, dst, Nip, &failed, ((), root));
    let (mut candidates, mut driven) = (Vec::new(), Vec::new());
    for mv in graph.moves_of(topo, ROOT) {
        let (peer, reached) = match mv {
            Ok(next) => (graph.node_of(next), follow(&graph, topo, next).reached()),
            Err(Terminal::Delivered) => (dst, true),
            Err(Terminal::WrongEdge(at)) => (at, false),
        };
        candidates.push(peer);
        if reached {
            driven.push(peer);
        }
    }
    CoverageReport {
        deflecting_switch: deflecting,
        candidates,
        driven,
    }
}

/// One row of [`residue_table`]: what a route ID means at one switch.
#[derive(Debug, Clone)]
pub struct ResidueRow {
    /// The switch.
    pub node: NodeId,
    /// Its switch ID.
    pub switch_id: u64,
    /// `route_id mod switch_id`.
    pub residue: u64,
    /// The neighbour that port points at, if the port exists.
    pub next_hop: Option<NodeId>,
    /// Whether this switch was explicitly folded into the route ID.
    pub encoded: bool,
}

/// Decodes what `route` does at *every* core switch of the network —
/// the debugging view of a route ID. Switches not folded into the
/// basis still produce a (pseudo-random) residue; seeing where those
/// point explains every "accidental drive" in an experiment.
pub fn residue_table(topo: &Topology, route: &EncodedRoute) -> Vec<ResidueRow> {
    topo.core_nodes()
        .into_iter()
        .map(|node| {
            let switch_id = topo.switch_id(node).expect("core switch has an id");
            let residue = route.port_at(switch_id);
            let next_hop = topo
                .neighbors(node)
                .find(|&(p, _, _)| p == residue)
                .map(|(_, _, peer)| peer);
            ResidueRow {
                node,
                switch_id,
                residue,
                next_hop,
                encoded: route.contains_switch(switch_id),
            }
        })
        .collect()
}

/// Renders [`residue_table`] with names.
pub fn render_residue_table(topo: &Topology, route: &EncodedRoute) -> String {
    let mut out = format!(
        "route id {} ({} bits)
| switch | id | residue | next hop | encoded |
|---|---|---|---|---|
",
        route.route_id,
        route.bit_length()
    );
    for row in residue_table(topo, route) {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |
",
            topo.node(row.node).name,
            row.switch_id,
            row.residue,
            row.next_hop
                .map(|n| topo.node(n).name.clone())
                .unwrap_or_else(|| "-".into()),
            if row.encoded { "yes" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::{encode_with_protection, Protection};
    use crate::route::RouteSpec;
    use crate::verify::{verify_route, Outcome};
    use kar_rns::IdStrategy;
    use kar_topology::{gen, paths, topo15, LinkParams};

    fn route_with(
        protection: &[(&str, &str)],
    ) -> (kar_topology::Topology, EncodedRoute, Vec<NodeId>) {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let pairs = topo15::protection_pairs(&topo, protection);
        let route =
            EncodedRoute::encode(&topo, &RouteSpec::protected(primary.clone(), pairs)).unwrap();
        (topo, route, primary)
    }

    #[test]
    fn primary_path_walk_reaches_destination() {
        let (topo, route, _) = route_with(&[]);
        let out = driven_walk(
            &topo,
            &route,
            topo.expect("SW10"),
            topo.expect("AS3"),
            &HashSet::new(),
        );
        assert_eq!(out, DrivenOutcome::Reached { hops: 4 });
    }

    #[test]
    fn protected_branch_drives_to_destination() {
        let (topo, route, _) = route_with(&topo15::PARTIAL_PROTECTION);
        for name in ["SW11", "SW19", "SW31"] {
            let out = driven_walk(
                &topo,
                &route,
                topo.expect(name),
                topo.expect("AS3"),
                &HashSet::new(),
            );
            assert!(out.reached(), "{name}: {out:?}");
        }
    }

    #[test]
    fn paper_coverage_fractions_for_partial_protection() {
        let (topo, route, primary) = route_with(&topo15::PARTIAL_PROTECTION);
        let dst = topo.expect("AS3");
        // SW10-SW7 failure: 1 of 3 candidates protected (§3.1: "2/3 of
        // packets will be sent to switches SW17 or SW37").
        let cov = failure_coverage(
            &topo,
            &route,
            &primary,
            topo.expect_link("SW10", "SW7"),
            dst,
        );
        assert_eq!(cov.deflecting_switch, topo.expect("SW10"));
        assert_eq!(cov.candidates.len(), 3);
        assert_eq!(cov.driven.len(), 1);
        assert!((cov.fraction() - 1.0 / 3.0).abs() < 1e-12);
        // SW7-SW13 and SW13-SW29: fully enclosed.
        for (a, b) in [("SW7", "SW13"), ("SW13", "SW29")] {
            let cov = failure_coverage(&topo, &route, &primary, topo.expect_link(a, b), dst);
            assert_eq!(cov.fraction(), 1.0, "{a}-{b}: {cov:?}");
        }
    }

    #[test]
    fn full_protection_covers_everything() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let mut pairs = topo15::protection_pairs(&topo, &topo15::PARTIAL_PROTECTION);
        pairs.extend(topo15::protection_pairs(
            &topo,
            &topo15::FULL_EXTRA_PROTECTION,
        ));
        let route =
            EncodedRoute::encode(&topo, &RouteSpec::protected(primary.clone(), pairs)).unwrap();
        let dst = topo.expect("AS3");
        for (a, b) in topo15::FAILURE_LOCATIONS {
            let cov = failure_coverage(&topo, &route, &primary, topo.expect_link(a, b), dst);
            assert_eq!(cov.fraction(), 1.0, "{a}-{b}: {cov:?}");
        }
    }

    #[test]
    fn unprotected_sw7_failure_has_no_driven_candidates() {
        let (topo, route, primary) = route_with(&[]);
        let dst = topo.expect("AS3");
        let cov = failure_coverage(
            &topo,
            &route,
            &primary,
            topo.expect_link("SW7", "SW13"),
            dst,
        );
        // Candidates SW11 and SW19 exist but nothing drives them (unless a
        // residue accidentally points the right way — with these IDs it
        // does not).
        assert_eq!(cov.candidates.len(), 2);
        assert!(cov.fraction() < 1.0);
    }

    #[test]
    #[should_panic(expected = "failed link must join two core switches")]
    fn an_ingress_uplink_is_refused() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let route = encode_with_protection(&topo, primary.clone(), &Protection::AutoFull).unwrap();
        let uplink = topo.link_between(primary[0], primary[1]).unwrap();
        failure_coverage(&topo, &route, &primary, uplink, *primary.last().unwrap());
    }

    #[test]
    fn walk_detects_loops_and_wrong_edges() {
        let (topo, route, _) = route_with(&[]);
        let dst = topo.expect("AS3");
        // SW43 is off the primary path; its residue leads to SW41, where
        // NIP has no single move left.
        let out = driven_walk(&topo, &route, topo.expect("SW43"), dst, &HashSet::new());
        assert_eq!(
            out,
            DrivenOutcome::InvalidPort {
                at: topo.expect("SW41")
            }
        );
        // With SW10–SW37 down, the walk from SW17 comes back to a state
        // it has been in.
        let failed: HashSet<LinkId> = [topo.expect_link("SW10", "SW37")].into_iter().collect();
        let out = driven_walk(&topo, &route, topo.expect("SW17"), dst, &failed);
        assert_eq!(
            out,
            DrivenOutcome::Loop {
                at: topo.expect("SW41")
            }
        );
        // A walk that starts at the wrong edge reports it.
        let out = driven_walk(
            &topo,
            &route,
            topo.expect("AS2"),
            topo.expect("AS3"),
            &HashSet::new(),
        );
        assert_eq!(
            out,
            DrivenOutcome::WrongEdge {
                at: topo.expect("AS2")
            }
        );
    }

    #[test]
    fn a_ring_switch_deflects_into_its_own_host() {
        // A middle ring switch has three ports: its input, its failed
        // next hop and its host. NIP deflects into the host, so AutoFull
        // cannot cover this failure and the packet surfaces at a wrong
        // edge.
        let topo = gen::ring(8, IdStrategy::SmallestPrimes, LinkParams::default());
        let (src, dst) = (topo.expect("H0"), topo.expect("H4"));
        let primary = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        let route = encode_with_protection(&topo, primary.clone(), &Protection::AutoFull).unwrap();
        let middle = primary[primary.len() / 2];
        let failed = topo
            .link_between(middle, primary[primary.len() / 2 + 1])
            .unwrap();
        let host = topo
            .neighbors(middle)
            .map(|(_, _, peer)| peer)
            .find(|&peer| topo.switch_id(peer).is_none())
            .unwrap();
        let cov = failure_coverage(&topo, &route, &primary, failed, dst);
        assert_eq!(cov.deflecting_switch, middle);
        assert_eq!(cov.candidates, vec![host]);
        assert_eq!(cov.fraction(), 0.0);
        let set: HashSet<LinkId> = [failed].into_iter().collect();
        let report = verify_route(&topo, &route, src, dst, Nip, &set);
        assert_ne!(report.outcome, Outcome::Delivered);
    }

    #[test]
    fn residue_table_marks_encoded_switches() {
        let (topo, route, _) = route_with(&topo15::PARTIAL_PROTECTION);
        let table = residue_table(&topo, &route);
        assert_eq!(table.len(), topo.core_nodes().len());
        let row = |name: &str| {
            table
                .iter()
                .find(|r| r.node == topo.expect(name))
                .unwrap()
                .clone()
        };
        // Encoded switches point exactly where the spec says.
        let sw7 = row("SW7");
        assert!(sw7.encoded);
        assert_eq!(sw7.next_hop, Some(topo.expect("SW13")));
        let sw31 = row("SW31");
        assert!(sw31.encoded);
        assert_eq!(sw31.next_hop, Some(topo.expect("SW29")));
        // Non-encoded switches have *some* residue, possibly invalid.
        let sw43 = row("SW43");
        assert!(!sw43.encoded);
        let rendered = render_residue_table(&topo, &route);
        assert!(rendered.contains("| SW7 | 7 |"));
    }

    #[test]
    fn failed_link_blocks_the_walk() {
        let (topo, route, _) = route_with(&[]);
        let failed: HashSet<LinkId> = [topo.expect_link("SW7", "SW13")].into_iter().collect();
        let out = driven_walk(
            &topo,
            &route,
            topo.expect("SW10"),
            topo.expect("AS3"),
            &failed,
        );
        assert_eq!(
            out,
            DrivenOutcome::InvalidPort {
                at: topo.expect("SW7")
            }
        );
    }
}
