//! Service chaining over KAR routes (paper §5 future work: "investigate
//! the application of KAR in the service chaining of virtualized network
//! functions").
//!
//! A service chain is a route forced through an ordered set of waypoint
//! switches (where the network functions sit). Because KAR gives each
//! switch exactly one residue per route ID, a valid chain must visit
//! every switch at most once — the same intrinsic constraint as Fig. 8.
//! [`chain_path`] stitches shortest-path segments between consecutive
//! waypoints and rejects chains that would revisit a switch.

use crate::error::KarError;
use kar_topology::{paths, NodeId, Topology};
use std::collections::HashSet;

/// Computes a loop-free path `src → w₁ → … → wₙ → dst`.
///
/// Each leg is a shortest path; legs are not allowed to revisit nodes
/// used by earlier legs (one residue per switch). Later legs route
/// around already-used switches when possible.
///
/// # Errors
///
/// [`KarError::DuplicateWaypoint`] when a stop repeats a switch the
/// chain already visits — including a waypoint equal to its
/// predecessor (a zero-length leg) and `src` itself as the first
/// waypoint, which earlier versions silently accepted.
/// [`KarError::NoPath`] when some leg cannot be completed without
/// revisiting an earlier switch.
///
/// # Examples
///
/// ```
/// use kar::chain_path;
/// use kar_topology::topo15;
///
/// let topo = topo15::build();
/// let path = chain_path(
///     &topo,
///     topo.expect("AS1"),
///     &[topo.expect("SW17")], // force traffic through a middlebox
///     topo.expect("AS3"),
/// )?;
/// assert!(path.contains(&topo.expect("SW17")));
/// # Ok::<(), kar::KarError>(())
/// ```
pub fn chain_path(
    topo: &Topology,
    src: NodeId,
    waypoints: &[NodeId],
    dst: NodeId,
) -> Result<Vec<NodeId>, KarError> {
    let mut full: Vec<NodeId> = vec![src];
    let mut used: HashSet<NodeId> = [src].into_iter().collect();
    let mut cur = src;
    let stops: Vec<NodeId> = waypoints.iter().copied().chain([dst]).collect();
    for &stop in &stops {
        if used.contains(&stop) {
            // An earlier leg already consumed this switch's residue.
            // `used` always holds `cur`, so this also rejects a
            // waypoint equal to its predecessor (the old `stop != cur`
            // exemption let those — and src as the first waypoint —
            // slip through as silent zero-length legs).
            return Err(KarError::DuplicateWaypoint { node: stop });
        }
        // Shortest leg through switches no earlier leg consumed (`stop`
        // itself is not in `used`, checked above).
        let leg = paths::bfs_shortest_path_where(topo, cur, stop, |n, _| !used.contains(&n))
            .ok_or(KarError::NoPath {
                src: cur,
                dst: stop,
            })?;
        for &n in &leg[1..] {
            used.insert(n);
            full.push(n);
        }
        cur = stop;
    }
    Ok(full)
}

/// Returns `true` if `path` visits `waypoints` in order.
pub fn visits_in_order(path: &[NodeId], waypoints: &[NodeId]) -> bool {
    let mut iter = path.iter();
    waypoints.iter().all(|w| iter.by_ref().any(|n| n == w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_topology::{paths, topo15};

    #[test]
    fn chain_visits_waypoints_in_order() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let w = [topo.expect("SW17"), topo.expect("SW41")];
        let path = chain_path(&topo, as1, &w, as3).unwrap();
        assert_eq!(path.first(), Some(&as1));
        assert_eq!(path.last(), Some(&as3));
        assert!(visits_in_order(&path, &w));
        // No switch appears twice (one residue per switch).
        let mut seen = HashSet::new();
        assert!(path.iter().all(|&n| seen.insert(n)), "{path:?}");
        assert!(paths::links_along(&topo, &path).is_ok());
    }

    #[test]
    fn chain_routes_around_used_switches() {
        // AS1 → SW11 → SW31 → AS3: the SW11→SW31 leg must route around
        // SW10 (already consumed by the first leg).
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let w = [topo.expect("SW11"), topo.expect("SW31")];
        let path = chain_path(&topo, as1, &w, as3).unwrap();
        assert!(visits_in_order(&path, &w));
        let mut seen = HashSet::new();
        assert!(path.iter().all(|&n| seen.insert(n)), "revisit in {path:?}");
        assert!(paths::links_along(&topo, &path).is_ok());
    }

    #[test]
    fn impossible_chain_is_rejected() {
        // AS2 attaches at SW23, so the first leg to SW43 consumes SW23's
        // residue; demanding SW23 as a later waypoint must fail — one
        // residue per switch (the paper's intrinsic constraint).
        let topo = topo15::build();
        let as2 = topo.expect("AS2");
        let as3 = topo.expect("AS3");
        let w = [topo.expect("SW43"), topo.expect("SW23")];
        let err = chain_path(&topo, as2, &w, as3).unwrap_err();
        assert_eq!(
            err,
            KarError::DuplicateWaypoint {
                node: topo.expect("SW23")
            }
        );
    }

    #[test]
    fn consecutive_duplicate_waypoints_are_rejected() {
        // The old `stop != cur` exemption turned SW17 → SW17 into a
        // silent zero-length leg; it must be a DuplicateWaypoint.
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let sw17 = topo.expect("SW17");
        let err = chain_path(&topo, as1, &[sw17, sw17], as3).unwrap_err();
        assert_eq!(err, KarError::DuplicateWaypoint { node: sw17 });
        assert!(err.to_string().contains("repeats"), "{err}");
    }

    #[test]
    fn src_as_first_waypoint_is_rejected() {
        // src is in the used set from the start; naming it as a
        // waypoint used to slip through the same exemption.
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let err = chain_path(&topo, as1, &[as1], as3).unwrap_err();
        assert_eq!(err, KarError::DuplicateWaypoint { node: as1 });
    }

    #[test]
    fn chained_route_encodes_and_forwards() {
        use crate::{DeflectionTechnique, KarNetwork, Protection};
        use kar_simnet::{FlowId, PacketKind};
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let w = [topo.expect("SW17"), topo.expect("SW41")];
        let path = chain_path(&topo, as1, &w, as3).unwrap();
        let hops = path.len() - 2;
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
            .seed(2)
            .tracing()
            .build();
        net.install_explicit(path, &Protection::None).unwrap();
        let mut sim = net.into_sim();
        sim.inject(as1, as3, FlowId(0), 0, PacketKind::Probe, 500);
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().max_hops as usize, hops);
        let trace = sim.trace().get(0).unwrap();
        assert!(visits_in_order(&trace.path, &w), "{}", trace.pretty(&topo));
    }

    #[test]
    fn in_order_check() {
        let a = NodeId(1);
        let b = NodeId(2);
        let c = NodeId(3);
        assert!(visits_in_order(&[a, b, c], &[a, c]));
        assert!(!visits_in_order(&[a, b, c], &[c, a]));
        assert!(visits_in_order(&[a, b, c], &[]));
    }
}
