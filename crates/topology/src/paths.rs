//! Path computation over a [`Topology`]: BFS (hop count), Dijkstra
//! (delay-weighted), and helpers that turn node paths into the
//! `(switch_id, port)` pairs KAR encodes.

use crate::graph::{Adj, LinkId, NodeId, PortIx, Topology};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// A simple path as a node sequence (first = source, last = destination).
pub type NodePath = Vec<NodeId>;

/// Shortest path by hop count (BFS). Returns `None` if unreachable.
///
/// **Tie-break: lowest node id first.** Each dequeued node offers its
/// neighbors in ascending node-id order, so among equally short paths
/// the one found is independent of link-insertion (port) order and
/// reconstructed paper scenarios are stable across runs. Every primary
/// route, pinned fixture and committed `BENCH_*.json` depends on it.
pub fn bfs_shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<NodePath> {
    bfs_shortest_path_where(topo, src, dst, |_, _| true)
}

/// [`bfs_shortest_path`] over the sub-graph whose steps `admit(peer,
/// link)` accepts: same search, same lowest-node-id tie-break, a step
/// into `peer` over `link` taken only when admitted.
pub fn bfs_shortest_path_where(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    admit: impl Fn(NodeId, LinkId) -> bool,
) -> Option<NodePath> {
    bfs(topo, src, dst, Topology::adj_by_peer, admit)
}

/// Shortest path by hop count that crosses no link in `avoid` — the
/// controller's failure-aware detour search, and the verifier's test for
/// "this failure set disconnects the pair".
///
/// **Tie-break: lowest port first.** Each dequeued node offers its
/// neighbors in port order, *not* the node-id order of
/// [`bfs_shortest_path`]; with an empty `avoid` the two can return
/// different (equally short) paths. Re-encoded routes and the pinned
/// verifier fixtures depend on this order.
pub fn bfs_avoiding(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    avoid: &HashSet<LinkId>,
) -> Option<NodePath> {
    bfs(topo, src, dst, Topology::adj_by_port, |_, l| {
        !avoid.contains(&l)
    })
}

/// The one hop-count BFS. `order` picks each node's adjacency slice (and
/// with it the tie-break); `prev` doubles as the seen set and the queue
/// is one preallocated `Vec` between two cursors, so a search allocates
/// twice and sorts nothing.
fn bfs<'t>(
    topo: &'t Topology,
    src: NodeId,
    dst: NodeId,
    order: impl Fn(&'t Topology, NodeId) -> &'t [Adj],
    admit: impl Fn(NodeId, LinkId) -> bool,
) -> Option<NodePath> {
    if src == dst {
        return Some(vec![src]);
    }
    const UNSEEN: u32 = u32::MAX; // `AdjIndex::build` keeps node ids below it
    let mut prev = vec![UNSEEN; topo.node_count()];
    prev[src.0] = src.0 as u32;
    // Every node enters the queue at most once; the spare slot takes the
    // unconditional store below when the queue is already full.
    let mut queue = vec![0u32; topo.node_count() + 1];
    queue[0] = src.0 as u32;
    let (mut head, mut tail) = (0, 1);
    while head < tail {
        let n = queue[head];
        head += 1;
        for a in order(topo, NodeId(n as usize)) {
            let peer = a.peer as usize;
            let take = prev[peer] == UNSEEN && admit(NodeId(peer), LinkId(a.link as usize));
            // Branch-free on purpose: whether a neighbor is new is a coin
            // flip the predictor loses, so the step is a select and the
            // push a store plus a conditional bump.
            prev[peer] = if take { n } else { prev[peer] };
            queue[tail] = a.peer;
            tail += usize::from(take);
            if take && peer == dst.0 {
                let mut path = vec![dst];
                let mut cur = peer;
                while cur != src.0 {
                    cur = prev[cur] as usize;
                    path.push(NodeId(cur));
                }
                path.reverse();
                return Some(path);
            }
        }
    }
    None
}

/// Shortest path by accumulated link propagation delay (Dijkstra).
/// Returns `None` if unreachable.
pub fn dijkstra_by_delay(topo: &Topology, src: NodeId, dst: NodeId) -> Option<NodePath> {
    let mut dist: Vec<u128> = vec![u128::MAX; topo.node_count()];
    let mut prev: Vec<Option<NodeId>> = vec![None; topo.node_count()];
    let mut heap = BinaryHeap::new();
    dist[src.0] = 0;
    heap.push(Reverse((0u128, src)));
    while let Some(Reverse((d, n))) = heap.pop() {
        if d > dist[n.0] {
            continue;
        }
        if n == dst {
            break;
        }
        for (_, l, peer) in topo.neighbors(n) {
            let w = topo.link(l).params.delay_ns as u128 + 1; // +1 keeps hops relevant
            let nd = d + w;
            if nd < dist[peer.0] {
                dist[peer.0] = nd;
                prev[peer.0] = Some(n);
                heap.push(Reverse((nd, peer)));
            }
        }
    }
    if dist[dst.0] == u128::MAX {
        return None;
    }
    Some(reconstruct(&prev, src, dst))
}

fn reconstruct(prev: &[Option<NodeId>], src: NodeId, dst: NodeId) -> NodePath {
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = prev[cur.0].expect("reconstruction reached a node with no predecessor");
        path.push(cur);
    }
    path.reverse();
    path
}

/// Hop count of a node path (`len - 1`), `0` for trivial paths.
pub fn hop_count(path: &[NodeId]) -> usize {
    path.len().saturating_sub(1)
}

/// Converts a node path into KAR `(switch_id, output_port)` pairs for the
/// core switches along it.
///
/// Edge nodes on the path are skipped (they do not forward by residue);
/// the last node needs no output pair because it terminates the path.
///
/// # Errors
///
/// Returns [`PathError::NotAdjacent`] when two consecutive path nodes have
/// no connecting link.
pub fn switch_port_pairs(
    topo: &Topology,
    path: &[NodeId],
) -> Result<Vec<(u64, PortIx)>, PathError> {
    let mut out = Vec::new();
    for w in path.windows(2) {
        let (from, to) = (w[0], w[1]);
        let port = topo
            .port_towards(from, to)
            .ok_or(PathError::NotAdjacent { from, to })?;
        if let Some(id) = topo.switch_id(from) {
            out.push((id, port));
        }
    }
    Ok(out)
}

/// The links traversed by a node path.
///
/// # Errors
///
/// Returns [`PathError::NotAdjacent`] when two consecutive nodes have no
/// connecting link.
pub fn links_along(topo: &Topology, path: &[NodeId]) -> Result<Vec<LinkId>, PathError> {
    path.windows(2)
        .map(|w| {
            topo.link_between(w[0], w[1]).ok_or(PathError::NotAdjacent {
                from: w[0],
                to: w[1],
            })
        })
        .collect()
}

/// Errors from path helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// Two consecutive nodes of the supplied path are not adjacent.
    NotAdjacent {
        /// Path node without a link to `to`.
        from: NodeId,
        /// The unreachable next node.
        to: NodeId,
    },
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::NotAdjacent { from, to } => {
                write!(f, "path nodes {from} and {to} are not adjacent")
            }
        }
    }
}

impl std::error::Error for PathError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkParams;
    use crate::TopologyBuilder;

    /// S - A(7) - B(11) - D, plus a longer detour A - C(13) - E(17) - B.
    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let a = b.core("A", 7);
        let bb = b.core("B", 11);
        let d = b.edge("D");
        let c = b.core("C", 13);
        let e = b.core("E", 17);
        b.link(s, a, LinkParams::default());
        b.link(a, bb, LinkParams::default());
        b.link(bb, d, LinkParams::default());
        b.link(a, c, LinkParams::default());
        b.link(c, e, LinkParams::default());
        b.link(e, bb, LinkParams::default());
        b.build().unwrap()
    }

    #[test]
    fn bfs_finds_shortest() {
        let t = diamond();
        let p = bfs_shortest_path(&t, t.expect("S"), t.expect("D")).unwrap();
        let names: Vec<&str> = p.iter().map(|&n| t.node(n).name.as_str()).collect();
        assert_eq!(names, vec!["S", "A", "B", "D"]);
        assert_eq!(hop_count(&p), 3);
    }

    #[test]
    fn bfs_trivial_and_unreachable() {
        let t = diamond();
        let s = t.expect("S");
        assert_eq!(bfs_shortest_path(&t, s, s), Some(vec![s]));
        let mut b = TopologyBuilder::new();
        let x = b.edge("X");
        let y = b.edge("Y");
        let t2 = b.build().unwrap();
        let _ = (x, y);
        assert_eq!(bfs_shortest_path(&t2, t2.expect("X"), t2.expect("Y")), None);
    }

    #[test]
    fn dijkstra_prefers_low_delay() {
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let a = b.core("A", 7);
        let c = b.core("C", 11);
        let d = b.edge("D");
        // Direct link is slow (10 ms), detour via C is 2×1 µs.
        b.link(s, a, LinkParams::new(100, 1));
        b.link(a, d, LinkParams::new(100, 10_000));
        b.link(a, c, LinkParams::new(100, 1));
        b.link(c, d, LinkParams::new(100, 1));
        let t = b.build().unwrap();
        let p = dijkstra_by_delay(&t, s, d).unwrap();
        let names: Vec<&str> = p.iter().map(|&n| t.node(n).name.as_str()).collect();
        assert_eq!(names, vec!["S", "A", "C", "D"]);
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let mut b = TopologyBuilder::new();
        b.edge("X");
        b.edge("Y");
        let t = b.build().unwrap();
        assert_eq!(dijkstra_by_delay(&t, t.expect("X"), t.expect("Y")), None);
    }

    #[test]
    fn pairs_skip_edges_and_use_real_ports() {
        let t = diamond();
        let p = bfs_shortest_path(&t, t.expect("S"), t.expect("D")).unwrap();
        let pairs = switch_port_pairs(&t, &p).unwrap();
        // A exits towards B via port 1 (port 0 went to S), B towards D via
        // port 1 (port 0 went to A).
        assert_eq!(pairs, vec![(7, 1), (11, 1)]);
    }

    #[test]
    fn pairs_reject_teleporting_paths() {
        let t = diamond();
        let bad = vec![t.expect("S"), t.expect("B")];
        assert!(matches!(
            switch_port_pairs(&t, &bad),
            Err(PathError::NotAdjacent { .. })
        ));
    }

    #[test]
    fn links_along_path() {
        let t = diamond();
        let p = bfs_shortest_path(&t, t.expect("S"), t.expect("D")).unwrap();
        let links = links_along(&t, &p).unwrap();
        assert_eq!(links.len(), 3);
        assert_eq!(links[1], t.expect_link("A", "B"));
    }
}
