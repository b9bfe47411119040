//! Automatic planning of driven-deflection forwarding paths.
//!
//! The paper composes protection paths by hand for its two scenarios.
//! This module generalizes the construction: given a primary path, build
//! the logical tree rooted at the destination (§2, "a logical tree with
//! its root at destination … has been built") that drives deflected
//! packets home, either completely ([`plan_full`]) or within a route-ID
//! bit budget ([`plan_with_budget`], the paper's §2.3 partial-protection
//! idea).

use crate::deflect::DeflectionTechnique::Nip;
use crate::deflect::NO_PORT;
use crate::route::{EncodedRoute, RouteSpec};
use crate::verify::{possible_moves, State};
use kar_rns::route_id_bit_length;
use kar_topology::{NodeId, Topology};
use std::collections::HashSet;

/// Protection level requested when installing a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Protection {
    /// No protection segments.
    None,
    /// Explicit `(from_switch, towards)` segments (the paper's hand-built
    /// scenarios).
    Segments(Vec<(NodeId, NodeId)>),
    /// Cover every deflection candidate of every primary switch.
    AutoFull,
    /// Greedy coverage within a route-ID bit budget (loose protection,
    /// §2.3).
    AutoBudget {
        /// Maximum allowed `bit_length` of the resulting route ID.
        max_bits: u32,
    },
}

/// Breadth-first next-hop tree toward `root`, restricted to core switches
/// not in `forbidden` (plus `root` itself, which may be an edge):
/// `tree[n]` is `n`'s next hop toward `root`, `None` for `root` and for
/// nodes outside the tree. Ties break by node id, like primary paths.
fn tree_toward(topo: &Topology, root: NodeId, forbidden: &HashSet<NodeId>) -> Vec<Option<NodeId>> {
    let mut next = vec![None; topo.node_count()];
    let mut queue = vec![root];
    let mut head = 0;
    while let Some(&n) = queue.get(head) {
        head += 1;
        for (_, peer) in topo.neighbors_by_id(n) {
            if peer == root || next[peer.0].is_some() || forbidden.contains(&peer) {
                continue;
            }
            if topo.switch_id(peer).is_none() {
                continue; // edges do not forward
            }
            next[peer.0] = Some(n);
            queue.push(peer);
        }
    }
    next
}

/// The deflection candidates of primary switch `primary[idx]`: NIP's
/// moves there with its next-hop link down (the last switch of a path has
/// no residue port). Core-facing only when any exist; a host candidate is
/// in no tree, so it never yields a segment.
fn candidates_of(topo: &Topology, primary: &[NodeId], idx: usize) -> Vec<NodeId> {
    let node = primary[idx];
    let state = State::arrived(topo, node, idx.checked_sub(1).map(|i| primary[i]), false);
    let next = primary
        .get(idx + 1)
        .and_then(|&n| topo.link_between(node, n));
    let residue = next.map_or(NO_PORT, |l| topo.link(l).port_on(node));
    let mut moves = Vec::new();
    possible_moves(topo, residue, Nip, |l| Some(l) == next, state, &mut moves);
    let ports = &topo.node(node).ports;
    moves
        .into_iter()
        .map(|(p, _)| topo.link(ports[p as usize]).peer_of(node))
        .collect()
}

/// Plans segments that drive *every* deflection candidate of every
/// primary-path switch to the destination — full protection.
///
/// The tree is built over core switches not on the primary path, so a
/// driven packet never re-enters the (possibly failed) primary route
/// before the destination. Candidates that cannot reach the destination
/// without the primary path are left uncovered (returned segments simply
/// do not include them).
pub fn plan_full(topo: &Topology, primary: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let dst_core = primary
        .iter()
        .rev()
        .find(|&&n| topo.switch_id(n).is_some())
        .copied()
        .expect("primary path must contain a core switch");
    let forbidden: HashSet<NodeId> = primary
        .iter()
        .copied()
        .filter(|&n| n != dst_core && topo.switch_id(n).is_some())
        .collect();
    let tree = tree_toward(topo, dst_core, &forbidden);
    let mut segments: Vec<(NodeId, NodeId)> = Vec::new();
    let mut included: HashSet<NodeId> = HashSet::new();
    let core_count = primary
        .iter()
        .filter(|&&n| topo.switch_id(n).is_some())
        .count();
    for idx in 0..core_count {
        // idx-th core on the path == position in `primary` among cores;
        // map back to primary indices.
        let (pidx, _) = primary
            .iter()
            .enumerate()
            .filter(|&(_, &n)| topo.switch_id(n).is_some())
            .nth(idx)
            .expect("core index in range");
        for cand in candidates_of(topo, primary, pidx) {
            // Walk the tree from the candidate to the destination, adding
            // each hop as a segment.
            let mut cur = cand;
            while cur != dst_core {
                if included.contains(&cur) {
                    break; // already wired toward the destination
                }
                let Some(parent) = tree[cur.0] else {
                    break; // unreachable without the primary path
                };
                segments.push((cur, parent));
                included.insert(cur);
                cur = parent;
            }
        }
    }
    segments
}

/// Plans segments greedily within a bit budget: candidate coverage paths
/// are added starting from the failures closest to the destination (their
/// detours are shortest and their protection matters most — exactly how
/// the paper's hand-built partial protection behaves), stopping before
/// the route ID would exceed `max_bits`.
///
/// Returns the planned segments; the result always encodes within
/// `max_bits` (it may be empty if even one segment would not fit).
pub fn plan_with_budget(
    topo: &Topology,
    primary: &[NodeId],
    max_bits: u32,
) -> Vec<(NodeId, NodeId)> {
    let full = plan_full(topo, primary);
    // Candidate order: plan_full pushes segments walking from candidates
    // of upstream-to-downstream switches; re-rank chains by proximity to
    // destination: later primary switches first.
    let mut base_ids: Vec<u64> = primary.iter().filter_map(|&n| topo.switch_id(n)).collect();
    let mut chosen: Vec<(NodeId, NodeId)> = Vec::new();
    // Group `full` into chains per starting candidate, preserving inner
    // order (each chain must be added atomically — half a chain strands
    // packets in un-encoded territory).
    let mut chains: Vec<Vec<(NodeId, NodeId)>> = Vec::new();
    let mut seen_start: HashSet<NodeId> = HashSet::new();
    let mut current: Vec<(NodeId, NodeId)> = Vec::new();
    for seg in &full {
        if seen_start.contains(&seg.0) {
            continue;
        }
        let continues = current
            .last()
            .map(|last: &(NodeId, NodeId)| last.1 == seg.0)
            .unwrap_or(false);
        if !continues && !current.is_empty() {
            chains.push(std::mem::take(&mut current));
        }
        seen_start.insert(seg.0);
        current.push(*seg);
    }
    if !current.is_empty() {
        chains.push(current);
    }
    // Shorter chains (closer to the destination) first.
    chains.sort_by_key(|c| c.len());
    for chain in chains {
        let mut trial_ids = base_ids.clone();
        for (from, _) in &chain {
            if let Some(id) = topo.switch_id(*from) {
                if !trial_ids.contains(&id) {
                    trial_ids.push(id);
                }
            }
        }
        if route_id_bit_length(&trial_ids) <= max_bits {
            for seg in &chain {
                if !chosen.contains(seg) {
                    chosen.push(*seg);
                }
            }
            base_ids = trial_ids;
        }
    }
    chosen
}

/// Resolves a [`Protection`] request into concrete segments for a primary
/// path.
pub fn resolve(
    topo: &Topology,
    primary: &[NodeId],
    protection: &Protection,
) -> Vec<(NodeId, NodeId)> {
    match protection {
        Protection::None => Vec::new(),
        Protection::Segments(segs) => segs.clone(),
        Protection::AutoFull => plan_full(topo, primary),
        Protection::AutoBudget { max_bits } => plan_with_budget(topo, primary, *max_bits),
    }
}

/// Convenience: encode a primary path with the given protection.
///
/// # Errors
///
/// Propagates [`crate::KarError`] from encoding (adjacency, conflicts,
/// coprimality).
pub fn encode_with_protection(
    topo: &Topology,
    primary: Vec<NodeId>,
    protection: &Protection,
) -> Result<EncodedRoute, crate::KarError> {
    let segments = resolve(topo, &primary, protection);
    EncodedRoute::encode(topo, &RouteSpec::protected(primary, segments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::failure_coverage;
    use kar_topology::{rnp28, topo15};

    #[test]
    fn auto_full_covers_all_topo15_failures() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let segments = plan_full(&topo, &primary);
        assert!(!segments.is_empty());
        let route = EncodedRoute::encode(
            &topo,
            &RouteSpec::protected(primary.clone(), segments.clone()),
        )
        .unwrap();
        let dst = topo.expect("AS3");
        for (a, b) in topo15::FAILURE_LOCATIONS {
            let cov = failure_coverage(&topo, &route, &primary, topo.expect_link(a, b), dst);
            assert_eq!(cov.fraction(), 1.0, "{a}-{b}: {cov:?}");
        }
    }

    #[test]
    fn auto_full_avoids_primary_switches_in_segments() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let primary_cores: HashSet<NodeId> = primary
            .iter()
            .copied()
            .filter(|&n| topo.switch_id(n).is_some())
            .collect();
        let dst_core = topo.expect("SW29");
        for (from, _) in plan_full(&topo, &primary) {
            assert!(
                !primary_cores.contains(&from) || from == dst_core,
                "segment must not re-route a primary switch"
            );
        }
    }

    #[test]
    fn auto_full_encodes_without_conflict() {
        let topo = rnp28::build();
        let primary: Vec<NodeId> = rnp28::FIG7_ROUTE.iter().map(|n| topo.expect(n)).collect();
        let route = encode_with_protection(&topo, primary, &Protection::AutoFull).unwrap();
        assert!(route.bit_length() > 0);
    }

    #[test]
    fn budget_limits_bit_length() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let full = encode_with_protection(&topo, primary.clone(), &Protection::AutoFull).unwrap();
        for budget in [15, 28, 43, full.bit_length()] {
            let route = encode_with_protection(
                &topo,
                primary.clone(),
                &Protection::AutoBudget { max_bits: budget },
            )
            .unwrap();
            assert!(
                route.bit_length() <= budget,
                "budget {budget} gave {} bits",
                route.bit_length()
            );
        }
    }

    #[test]
    fn budget_zero_extra_means_unprotected() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let route =
            encode_with_protection(&topo, primary, &Protection::AutoBudget { max_bits: 15 })
                .unwrap();
        assert_eq!(route.pairs.len(), 4);
        assert_eq!(route.bit_length(), 15);
    }

    #[test]
    fn budget_extremes_match_unprotected_and_full() {
        // Note: *total* coverage is not strictly monotone in the budget,
        // because re-encoding also changes the pseudo-random residues at
        // non-encoded switches (accidental drives can disappear). The
        // guaranteed properties are at the extremes.
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let dst = topo.expect("AS3");
        // Tight budget: no protection segments fit.
        let tight = encode_with_protection(
            &topo,
            primary.clone(),
            &Protection::AutoBudget { max_bits: 15 },
        )
        .unwrap();
        assert_eq!(tight.pairs.len(), 4);
        // Generous budget: everything is covered, like AutoFull.
        let generous = encode_with_protection(
            &topo,
            primary.clone(),
            &Protection::AutoBudget { max_bits: 64 },
        )
        .unwrap();
        let total: f64 = topo15::FAILURE_LOCATIONS
            .iter()
            .map(|&(a, b)| {
                failure_coverage(&topo, &generous, &primary, topo.expect_link(a, b), dst).fraction()
            })
            .sum();
        assert!(
            (total - 3.0).abs() < 1e-9,
            "full coverage at 64 bits: {total}"
        );
        // Intermediate budgets cover at least the guaranteed (encoded)
        // candidates of the cheapest chains.
        let mid = encode_with_protection(&topo, primary, &Protection::AutoBudget { max_bits: 30 })
            .unwrap();
        assert!(mid.pairs.len() > 4 && mid.pairs.len() < generous.pairs.len());
    }

    #[test]
    fn resolve_dispatches() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        assert!(resolve(&topo, &primary, &Protection::None).is_empty());
        let sw11 = topo.expect("SW11");
        let sw19 = topo.expect("SW19");
        let explicit = Protection::Segments(vec![(sw11, sw19)]);
        assert_eq!(resolve(&topo, &primary, &explicit), vec![(sw11, sw19)]);
        assert!(!resolve(&topo, &primary, &Protection::AutoFull).is_empty());
    }
}
