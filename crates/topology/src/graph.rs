//! Core graph model: nodes, ports, links.
//!
//! A KAR network distinguishes **edge nodes** (hosts/edges that attach and
//! strip route IDs) from **core switches** (which own a coprime switch ID
//! and forward by `route_id mod switch_id`). Ports on a node are numbered
//! `0..degree` in link-insertion order; a switch's output-port index must
//! be a valid residue of its switch ID, so every core switch requires
//! `switch_id > max port index`.

use std::collections::HashMap;
use std::fmt;

/// Index of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A port index local to one node (`0..degree`).
pub type PortIx = u64;

/// What a node is, in KAR terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An edge node: attaches route IDs on ingress, strips them on egress,
    /// hosts applications. Holds no switch ID.
    Edge,
    /// A core switch with its (network-wide pairwise-coprime) switch ID.
    Core {
        /// The switch ID used as the modulus in forwarding.
        switch_id: u64,
    },
}

impl NodeKind {
    /// The switch ID if this is a core switch.
    pub fn switch_id(&self) -> Option<u64> {
        match self {
            NodeKind::Core { switch_id } => Some(*switch_id),
            NodeKind::Edge => None,
        }
    }
}

/// A node of the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name (`"SW7"`, `"AS1"`, `"BoaVista"`, …).
    pub name: String,
    /// Edge or core switch.
    pub kind: NodeKind,
    /// Outgoing port table: `ports[p]` is the link reachable via port `p`.
    pub ports: Vec<LinkId>,
}

impl Node {
    /// Number of ports (== degree).
    pub fn degree(&self) -> usize {
        self.ports.len()
    }
}

/// Transmission properties of one link (both directions are symmetric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Transmission rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay in nanoseconds.
    pub delay_ns: u64,
    /// Drop-tail queue capacity per direction, in packets.
    pub queue_pkts: usize,
}

impl LinkParams {
    /// Convenience constructor from megabits/second and microseconds.
    pub fn new(rate_mbps: u64, delay_us: u64) -> Self {
        LinkParams {
            rate_bps: rate_mbps * 1_000_000,
            delay_ns: delay_us * 1_000,
            queue_pkts: 100,
        }
    }

    /// Sets the per-direction queue capacity (builder style).
    pub fn with_queue(mut self, pkts: usize) -> Self {
        self.queue_pkts = pkts;
        self
    }
}

impl Default for LinkParams {
    /// 200 Mbit/s, 250 µs propagation, 100-packet queues — the defaults of
    /// the paper's 15-node emulation (nominal 200 Mbit/s TCP).
    fn default() -> Self {
        LinkParams::new(200, 250)
    }
}

/// An undirected link between two `(node, port)` endpoints.
#[derive(Debug, Clone)]
pub struct Link {
    /// First endpoint node.
    pub a: NodeId,
    /// Port index on `a` leading to `b`.
    pub a_port: PortIx,
    /// Second endpoint node.
    pub b: NodeId,
    /// Port index on `b` leading to `a`.
    pub b_port: PortIx,
    /// Rate/delay/queue parameters.
    pub params: LinkParams,
}

impl Link {
    /// The endpoint opposite `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this link.
    pub fn peer_of(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n} is not an endpoint of this link")
        }
    }

    /// The port on `n` that leads into this link.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this link.
    pub fn port_on(&self, n: NodeId) -> PortIx {
        if n == self.a {
            self.a_port
        } else if n == self.b {
            self.b_port
        } else {
            panic!("node {n} is not an endpoint of this link")
        }
    }

    /// Returns `true` if `n` is one of the endpoints.
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.a || n == self.b
    }
}

/// One directed adjacency entry: a neighbor and the link that reaches it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Adj {
    pub(crate) peer: u32,
    pub(crate) link: u32,
}

/// Flat (CSR) adjacency index: node `n` owns
/// `offsets[n]..offsets[n + 1]` of both entry arrays, once in port order
/// and once sorted by peer id (stable, so parallel links keep port order).
///
/// Derived data — a pure function of `nodes[*].ports` and `links`, built
/// once in [`TopologyBuilder::build`](crate::TopologyBuilder::build) and
/// never serialized. Every graph walk reads it instead of chasing
/// `ports[p] → links[l] → peer_of(n)`.
#[derive(Debug, Clone)]
pub(crate) struct AdjIndex {
    offsets: Vec<u32>,
    by_port: Vec<Adj>,
    by_peer: Vec<Adj>,
}

impl Default for AdjIndex {
    /// The index of the empty topology (`offsets.len() == nodes + 1`).
    fn default() -> Self {
        AdjIndex::build(&[], &[])
    }
}

impl AdjIndex {
    /// # Panics
    ///
    /// Panics if the node count or the number of link ends does not fit
    /// the index's `u32` entries.
    pub(crate) fn build(nodes: &[Node], links: &[Link]) -> Self {
        // `u32::MAX` itself is the BFS "unseen" mark in `paths`.
        assert!(
            nodes.len() < u32::MAX as usize && links.len() <= (u32::MAX / 2) as usize,
            "topology too large for the u32 adjacency index"
        );
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut by_port = Vec::with_capacity(2 * links.len());
        offsets.push(0);
        for (n, node) in nodes.iter().enumerate() {
            by_port.extend(node.ports.iter().map(|&l| Adj {
                peer: links[l.0].peer_of(NodeId(n)).0 as u32,
                link: l.0 as u32,
            }));
            offsets.push(by_port.len() as u32);
        }
        let mut by_peer = by_port.clone();
        for w in offsets.windows(2) {
            by_peer[w[0] as usize..w[1] as usize].sort_by_key(|a| a.peer);
        }
        AdjIndex {
            offsets,
            by_port,
            by_peer,
        }
    }

    fn range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.offsets[n.0] as usize..self.offsets[n.0 + 1] as usize
    }
}

/// An immutable-after-build network topology.
///
/// Build one with [`TopologyBuilder`](crate::TopologyBuilder), or use the
/// ready-made paper topologies in [`topo15`](crate::topo15) and
/// [`rnp28`](crate::rnp28).
#[derive(Debug, Clone, Default)]
pub struct Topology {
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    pub(crate) by_name: HashMap<String, NodeId>,
    pub(crate) adj: AdjIndex,
}

impl Topology {
    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, indexable by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (undirected) links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The link with the given id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Looks a node up by name, panicking with a helpful message if absent.
    ///
    /// # Panics
    ///
    /// Panics if no node has this name.
    pub fn expect(&self, name: &str) -> NodeId {
        self.find(name)
            .unwrap_or_else(|| panic!("no node named {name:?} in topology"))
    }

    /// Looks a core switch up by its switch ID.
    pub fn find_switch(&self, switch_id: u64) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.kind.switch_id() == Some(switch_id))
            .map(NodeId)
    }

    /// The switch ID of `n`, if it is a core switch.
    pub fn switch_id(&self, n: NodeId) -> Option<u64> {
        self.node(n).kind.switch_id()
    }

    /// Node `n`'s adjacency entries in port order (`[p]` is port `p`).
    pub(crate) fn adj_by_port(&self, n: NodeId) -> &[Adj] {
        &self.adj.by_port[self.adj.range(n)]
    }

    /// Node `n`'s adjacency entries sorted by peer id.
    pub(crate) fn adj_by_peer(&self, n: NodeId) -> &[Adj] {
        &self.adj.by_peer[self.adj.range(n)]
    }

    /// Iterator over `(port, link, peer)` triples of `n`, in port order.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (PortIx, LinkId, NodeId)> + '_ {
        self.adj_by_port(n).iter().enumerate().map(|(p, a)| {
            (
                p as PortIx,
                LinkId(a.link as usize),
                NodeId(a.peer as usize),
            )
        })
    }

    /// Iterator over `(link, peer)` pairs of `n`, lowest peer id first
    /// (parallel links to one peer in port order) — the visiting order
    /// of [`bfs_shortest_path`](crate::paths::bfs_shortest_path).
    pub fn neighbors_by_id(&self, n: NodeId) -> impl Iterator<Item = (LinkId, NodeId)> + '_ {
        self.adj_by_peer(n)
            .iter()
            .map(|a| (LinkId(a.link as usize), NodeId(a.peer as usize)))
    }

    /// The port on `from` that leads directly to `to`, if adjacent.
    pub fn port_towards(&self, from: NodeId, to: NodeId) -> Option<PortIx> {
        self.neighbors(from)
            .find(|&(_, _, peer)| peer == to)
            .map(|(p, _, _)| p)
    }

    /// The link between `a` and `b`, if adjacent.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.neighbors(a)
            .find(|&(_, _, peer)| peer == b)
            .map(|(_, l, _)| l)
    }

    /// The link between the nodes named `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either name is unknown or the nodes are not adjacent —
    /// intended for experiment scripts addressing links like `"SW7-SW13"`.
    pub fn expect_link(&self, a: &str, b: &str) -> LinkId {
        self.link_between(self.expect(a), self.expect(b))
            .unwrap_or_else(|| panic!("no link {a}-{b} in topology"))
    }

    /// All switch IDs of core nodes, in node order.
    pub fn switch_ids(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .filter_map(|n| n.kind.switch_id())
            .collect()
    }

    /// All edge-node ids.
    pub fn edge_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|&n| self.node(n).kind == NodeKind::Edge)
            .collect()
    }

    /// All core-node ids.
    pub fn core_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|&n| matches!(self.node(n).kind, NodeKind::Core { .. }))
            .collect()
    }

    /// Checks whether the whole topology is connected (ignoring direction).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for (_, _, peer) in self.neighbors(n) {
                if !seen[peer.0] {
                    seen[peer.0] = true;
                    count += 1;
                    stack.push(peer);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyBuilder;

    fn tiny() -> Topology {
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let sw4 = b.core("SW4", 4);
        let sw7 = b.core("SW7", 7);
        let d = b.edge("D");
        b.link(s, sw4, LinkParams::default());
        b.link(sw4, sw7, LinkParams::default());
        b.link(sw7, d, LinkParams::default());
        b.build().unwrap()
    }

    #[test]
    fn lookup_by_name_and_switch_id() {
        let t = tiny();
        assert_eq!(t.find("SW4"), Some(NodeId(1)));
        assert_eq!(t.find_switch(7), Some(NodeId(2)));
        assert_eq!(t.find("nope"), None);
        assert_eq!(t.switch_id(t.expect("SW7")), Some(7));
        assert_eq!(t.switch_id(t.expect("S")), None);
    }

    #[test]
    fn ports_are_insertion_ordered() {
        let t = tiny();
        let sw4 = t.expect("SW4");
        // First link touching SW4 was S-SW4 → port 0 towards S.
        assert_eq!(t.port_towards(sw4, t.expect("S")), Some(0));
        assert_eq!(t.port_towards(sw4, t.expect("SW7")), Some(1));
        assert_eq!(t.port_towards(sw4, t.expect("D")), None);
    }

    #[test]
    fn link_peers_and_ports() {
        let t = tiny();
        let l = t.expect_link("SW4", "SW7");
        let link = t.link(l);
        let sw4 = t.expect("SW4");
        let sw7 = t.expect("SW7");
        assert_eq!(link.peer_of(sw4), sw7);
        assert_eq!(link.peer_of(sw7), sw4);
        assert_eq!(link.port_on(sw4), 1);
        assert_eq!(link.port_on(sw7), 0);
        assert!(link.touches(sw4));
        assert!(!link.touches(t.expect("S")));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn peer_of_foreign_node_panics() {
        let t = tiny();
        let l = t.expect_link("SW4", "SW7");
        t.link(l).peer_of(t.expect("D"));
    }

    #[test]
    fn classification() {
        let t = tiny();
        assert_eq!(t.edge_nodes().len(), 2);
        assert_eq!(t.core_nodes().len(), 2);
        assert_eq!(t.switch_ids(), vec![4, 7]);
    }

    #[test]
    fn connectivity() {
        let t = tiny();
        assert!(t.is_connected());
        let mut b = TopologyBuilder::new();
        b.edge("A");
        b.edge("B");
        assert!(!b.build().unwrap().is_connected());
    }

    #[test]
    fn degrees() {
        let t = tiny();
        assert_eq!(t.node(t.expect("SW4")).degree(), 2);
        assert_eq!(t.node(t.expect("S")).degree(), 1);
        assert_eq!(t.neighbors(t.expect("SW4")).count(), 2);
    }

    #[test]
    fn default_params_match_paper_emulation() {
        let p = LinkParams::default();
        assert_eq!(p.rate_bps, 200_000_000);
        assert_eq!(p.delay_ns, 250_000);
    }
}
