//! Incremental construction and validation of [`Topology`] values.

use crate::graph::{AdjIndex, Link, LinkId, LinkParams, Node, NodeId, NodeKind, Topology};
use kar_rns::{first_common_factor, pairwise_coprime};
use std::collections::HashMap;
use std::fmt;

/// Builds a [`Topology`] node by node, link by link.
///
/// Ports are numbered in link-insertion order, which makes reconstruction
/// of hand-drawn topologies deterministic. [`TopologyBuilder::build`]
/// validates the KAR invariants (pairwise-coprime switch IDs, each ID
/// larger than the switch's degree, unique names).
///
/// # Examples
///
/// ```
/// use kar_topology::{LinkParams, TopologyBuilder};
///
/// let mut b = TopologyBuilder::new();
/// let s = b.edge("S");
/// let sw4 = b.core("SW4", 4);
/// let sw7 = b.core("SW7", 7);
/// let d = b.edge("D");
/// b.link(s, sw4, LinkParams::default());
/// b.link(sw4, sw7, LinkParams::default());
/// b.link(sw7, d, LinkParams::default());
/// let topo = b.build()?;
/// assert_eq!(topo.node_count(), 4);
/// # Ok::<(), kar_topology::TopologyError>(())
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    by_name: HashMap<String, NodeId>,
    duplicate_name: Option<String>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        if self.by_name.insert(name.to_string(), id).is_some() {
            self.duplicate_name = Some(name.to_string());
        }
        self.nodes.push(Node {
            name: name.to_string(),
            kind,
            ports: Vec::new(),
        });
        id
    }

    /// Adds an edge node (host / route-ID attachment point).
    pub fn edge(&mut self, name: &str) -> NodeId {
        self.add_node(name, NodeKind::Edge)
    }

    /// Adds a core switch with the given switch ID.
    pub fn core(&mut self, name: &str, switch_id: u64) -> NodeId {
        self.add_node(name, NodeKind::Core { switch_id })
    }

    /// Connects `a` and `b` with a bidirectional link; returns its id.
    ///
    /// The new link occupies the next free port index on each endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are not meaningful in KAR) or if
    /// either id is out of range.
    pub fn link(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> LinkId {
        assert_ne!(a, b, "self-loop on node {a}");
        let id = LinkId(self.links.len());
        let a_port = self.nodes[a.0].ports.len() as u64;
        let b_port = self.nodes[b.0].ports.len() as u64;
        self.nodes[a.0].ports.push(id);
        self.nodes[b.0].ports.push(id);
        self.links.push(Link {
            a,
            a_port,
            b,
            b_port,
            params,
        });
        id
    }

    /// Convenience: connect two nodes by name.
    ///
    /// # Panics
    ///
    /// Panics if either name was never added.
    pub fn link_names(&mut self, a: &str, b: &str, params: LinkParams) -> LinkId {
        let an = self.by_name[a];
        let bn = self.by_name[b];
        self.link(an, bn, params)
    }

    /// Validates and freezes the topology, deriving its adjacency index
    /// (the one place a [`Topology`] is constructed).
    ///
    /// # Errors
    ///
    /// * [`TopologyError::DuplicateName`] — two nodes share a name;
    /// * [`TopologyError::NotCoprime`] — switch IDs share a factor;
    /// * [`TopologyError::IdTooSmallForDegree`] — a switch ID cannot
    ///   address all of its ports as residues (`id <= degree - 1` would be
    ///   enough, but we require `id > degree` so the ID can also encode a
    ///   "no valid port" residue).
    ///
    /// # Panics
    ///
    /// Panics if the node count or twice the link count reaches `u32::MAX`
    /// (the adjacency index stores `u32` ids).
    pub fn build(self) -> Result<Topology, TopologyError> {
        if let Some(name) = self.duplicate_name {
            return Err(TopologyError::DuplicateName { name });
        }
        let ids: Vec<u64> = self
            .nodes
            .iter()
            .filter_map(|n| n.kind.switch_id())
            .collect();
        if !pairwise_coprime(&ids) {
            let (i, j, g) = first_common_factor(&ids)
                .map(|(i, j, g)| (ids[i], ids[j], g))
                .unwrap_or_else(|| {
                    let bad = *ids.iter().find(|&&x| x < 2).expect("some id below 2");
                    (bad, bad, bad)
                });
            return Err(TopologyError::NotCoprime {
                a: i,
                b: j,
                factor: g,
            });
        }
        for node in &self.nodes {
            if let NodeKind::Core { switch_id } = node.kind {
                if switch_id <= node.ports.len() as u64 {
                    return Err(TopologyError::IdTooSmallForDegree {
                        name: node.name.clone(),
                        switch_id,
                        degree: node.ports.len(),
                    });
                }
            }
        }
        Ok(Topology {
            adj: AdjIndex::build(&self.nodes, &self.links),
            nodes: self.nodes,
            links: self.links,
            by_name: self.by_name,
        })
    }
}

/// Validation errors from [`TopologyBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two nodes share the same name.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
    /// Two switch IDs share a common factor (or an ID is below 2).
    NotCoprime {
        /// First offending ID.
        a: u64,
        /// Second offending ID.
        b: u64,
        /// Shared factor.
        factor: u64,
    },
    /// A switch ID is too small to address all ports of the switch.
    IdTooSmallForDegree {
        /// Switch name.
        name: String,
        /// Its ID.
        switch_id: u64,
        /// Its degree (port count).
        degree: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateName { name } => write!(f, "duplicate node name {name:?}"),
            TopologyError::NotCoprime { a, b, factor } => {
                write!(f, "switch ids {a} and {b} share factor {factor}")
            }
            TopologyError::IdTooSmallForDegree {
                name,
                switch_id,
                degree,
            } => write!(
                f,
                "switch {name} has id {switch_id} but degree {degree}; ports are residues, so the id must exceed the degree"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_names() {
        let mut b = TopologyBuilder::new();
        b.edge("X");
        b.core("X", 7);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::DuplicateName { name: "X".into() }
        );
    }

    #[test]
    fn rejects_non_coprime_ids() {
        let mut b = TopologyBuilder::new();
        b.core("A", 6);
        b.core("B", 9);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::NotCoprime {
                a: 6,
                b: 9,
                factor: 3
            }
        );
    }

    #[test]
    fn rejects_id_not_exceeding_degree() {
        let mut b = TopologyBuilder::new();
        let hub = b.core("HUB", 3);
        let x = b.core("X", 5);
        let y = b.core("Y", 7);
        let z = b.core("Z", 11);
        b.link(hub, x, LinkParams::default());
        b.link(hub, y, LinkParams::default());
        b.link(hub, z, LinkParams::default());
        match b.build().unwrap_err() {
            TopologyError::IdTooSmallForDegree {
                name,
                switch_id,
                degree,
            } => {
                assert_eq!(name, "HUB");
                assert_eq!(switch_id, 3);
                assert_eq!(degree, 3);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new();
        let a = b.core("A", 7);
        b.link(a, a, LinkParams::default());
    }

    #[test]
    fn link_names_connects() {
        let mut b = TopologyBuilder::new();
        b.core("A", 7);
        b.core("B", 11);
        b.link_names("A", "B", LinkParams::default());
        let t = b.build().unwrap();
        assert!(t.link_between(t.expect("A"), t.expect("B")).is_some());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = TopologyError::IdTooSmallForDegree {
            name: "SW4".into(),
            switch_id: 4,
            degree: 5,
        };
        assert!(e.to_string().contains("must exceed the degree"));
    }
}
