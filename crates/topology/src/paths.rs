//! Path computation over a [`Topology`]: BFS (hop count) and helpers
//! that turn node paths into the `(switch_id, port)` pairs KAR encodes.

use crate::graph::{Adj, LinkId, NodeId, PortIx, Topology};
use std::cell::Cell;

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
/// controller's failure-aware detour search. `avoid` is sorted ascending
/// (the planner keeps its links known down that way), so a step asks one
/// `binary_search`.
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
    avoid: &[LinkId],
) -> Option<NodePath> {
    debug_assert!(avoid.is_sorted(), "bfs_avoiding wants a sorted slice");
    bfs(topo, src, dst, Topology::adj_by_port, |_, l| {
        avoid.binary_search(&l).is_err()
    })
}

/// The one hop-count BFS, searched from both ends. `order` picks each
/// node's adjacency slice, and with it the tie-break: the answer is the
/// path a one-sided search from `src` in that order returns, node for
/// node (DESIGN.md invariant 13).
///
/// Whole levels of the smaller frontier are expanded until the sides
/// touch. Forward steps walk `order` and record first-discoverer parents
/// in `prev`, as the one-sided search does; backward steps record hops
/// to `dst` in `hops`, and a backward step from `x` over `link` asks
/// `admit(x, link)`, because the forward step it mirrors enters `x`.
///
/// The rest of the path is read off the destination half of the
/// shortest-path DAG. Every first-discoverer parent of a node on a
/// shortest path is itself on one, so the one-sided search meets the
/// DAG's nodes in the order it would meet them alone: its first DAG node
/// of each level is the first DAG child, in `order`, of the level
/// before's. The path is therefore the forward parents up to the first
/// DAG node of the meeting level, then that greedy walk to `dst`.
///
/// The marks and queues are the thread's [`Scratch`], so a search
/// allocates only the path it returns.
fn bfs<'t>(
    topo: &'t Topology,
    src: NodeId,
    dst: NodeId,
    order: impl Fn(&'t Topology, NodeId) -> &'t [Adj],
    admit: impl Fn(NodeId, LinkId) -> bool,
) -> Option<NodePath> {
    let n = topo.node_count();
    if src.0 >= n || dst.0 >= n {
        return None; // no such node, so no path to or from it
    }
    if src == dst {
        return Some(vec![src]);
    }
    // Taken out, not borrowed in place: a search run from inside `admit`
    // finds the slot empty and works on a scratch of its own, and a panic
    // drops this one instead of leaving it marked.
    let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
    let path = scratch.search(topo, src, dst, order, admit);
    let _ = SCRATCH.try_with(|slot| slot.set(scratch));
    path
}

/// A node one side of a search has not reached (`AdjIndex::build` keeps
/// node ids below it).
const UNSEEN: u32 = u32::MAX;

/// One thread's search marks and queues, kept between searches and grown
/// to the largest topology the thread has searched. Between searches
/// every mark is [`UNSEEN`]; what the queues hold is dead.
#[derive(Default)]
struct Scratch {
    /// Two halves of `cap` marks: forward parents, then hops to dst. Each
    /// doubles as its side's seen set.
    marks: Vec<u32>,
    /// Two halves of `cap + 1` slots: the forward queue, then the
    /// backward one. A node enters each at most once; the spare slot
    /// takes the unconditional store of the search loop when a queue is
    /// full.
    queues: Vec<u32>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            marks: Vec::new(),
            queues: Vec::new(),
        })
    };
}

impl Scratch {
    /// [`bfs`] between two distinct nodes of `topo`. Leaves every mark
    /// [`UNSEEN`] again by unmarking exactly the nodes the two queues
    /// took — O(visited), not O(nodes).
    fn search<'t>(
        &mut self,
        topo: &'t Topology,
        src: NodeId,
        dst: NodeId,
        order: impl Fn(&'t Topology, NodeId) -> &'t [Adj],
        admit: impl Fn(NodeId, LinkId) -> bool,
    ) -> Option<NodePath> {
        let n = topo.node_count();
        if self.marks.len() < 2 * n {
            self.marks = vec![UNSEEN; 2 * n];
            self.queues = vec![0; 2 * (n + 1)];
        }
        let cap = self.marks.len() / 2;
        let (prev, hops) = self.marks.split_at_mut(cap);
        let (fwd, bwd) = self.queues.split_at_mut(cap + 1);
        prev[src.0] = src.0 as u32;
        hops[dst.0] = 0;
        fwd[0] = src.0 as u32;
        bwd[0] = dst.0 as u32;
        // Each side's current level: `fwd[f.0..f.1]`, `fd` hops from src, and
        // `bwd[b.0..b.1]`, `bd` hops from dst.
        let (mut f, mut b) = ((0, 1), (0, 1));
        let (mut fd, mut bd) = (0u32, 0u32);
        // Before each expansion the two searched balls are disjoint, so the
        // distance is at least fd + bd + 1 and a node where they touch lies
        // exactly `bd` hops from dst on a shortest path.
        let mid = loop {
            let (f_len, b_len) = (f.1 - f.0, b.1 - b.0);
            if f_len == 0 || b_len == 0 {
                break None;
            }
            if f_len <= b_len {
                let mut tail = f.1;
                let mut met = None;
                'level: for i in f.0..f.1 {
                    let u = fwd[i];
                    for a in order(topo, NodeId(u as usize)) {
                        let peer = a.peer as usize;
                        let take =
                            prev[peer] == UNSEEN && admit(NodeId(peer), LinkId(a.link as usize));
                        // Branch-free on purpose: whether a neighbor is new is
                        // a coin flip the predictor loses, so the step is a
                        // select and the push a store plus a conditional bump.
                        prev[peer] = if take { u } else { prev[peer] };
                        fwd[tail] = a.peer;
                        tail += usize::from(take);
                        // Discovery order is level order, so the first touch
                        // is the level's first DAG node.
                        if take && hops[peer] != UNSEEN {
                            met = Some(peer);
                            break 'level;
                        }
                    }
                }
                fd += 1;
                f = (f.1, tail);
                if met.is_some() {
                    break met;
                }
            } else {
                let mut tail = b.1;
                let mut met = false;
                for i in b.0..b.1 {
                    let x = bwd[i] as usize;
                    for a in order(topo, NodeId(x)) {
                        let peer = a.peer as usize;
                        let take =
                            hops[peer] == UNSEEN && admit(NodeId(x), LinkId(a.link as usize));
                        hops[peer] = if take { bd + 1 } else { hops[peer] };
                        bwd[tail] = a.peer;
                        tail += usize::from(take);
                        met |= take && prev[peer] != UNSEEN;
                    }
                }
                bd += 1;
                b = (b.1, tail);
                // The whole level is in, so every forward node `bd` hops from
                // dst is marked; the first in forward order is the one.
                if met {
                    let mut level = fwd[f.0..f.1].iter().map(|&u| u as usize);
                    break Some(level.find(|&u| hops[u] == bd).expect("the sides touched"));
                }
            }
        };
        let path = mid.map(|mid| {
            let mut path = vec![src; (fd + bd) as usize + 1];
            let mut cur = mid;
            for slot in path[..=fd as usize].iter_mut().rev() {
                *slot = NodeId(cur);
                cur = prev[cur] as usize;
            }
            cur = mid;
            for slot in &mut path[fd as usize + 1..] {
                let closer = hops[cur] - 1;
                let step = order(topo, NodeId(cur))
                    .iter()
                    .find(|a| {
                        hops[a.peer as usize] == closer
                            && admit(NodeId(a.peer as usize), LinkId(a.link as usize))
                    })
                    .expect("a node k hops from dst steps to one k - 1 hops away");
                cur = step.peer as usize;
                *slot = NodeId(cur);
            }
            path
        });
        // Every node a side marked entered its queue once, at or before its
        // last level's end.
        for &u in &fwd[..f.1] {
            prev[u as usize] = UNSEEN;
        }
        for &x in &bwd[..b.1] {
            hops[x as usize] = UNSEEN;
        }
        path
    }
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
