//! # kar-topology — network graphs for the KAR reproduction
//!
//! Topology model (nodes, ports, links with rate/delay/queue parameters),
//! path computation, generators, and faithful reconstructions of the two
//! networks evaluated in the KAR paper:
//!
//! * [`topo15`] — the 15-node experimental network of Fig. 2/3 (§3.1);
//! * [`rnp28`] — the Brazilian RNP backbone of Fig. 6/8 (§3.2), 28 PoPs
//!   and 40 links with class-proportional rates.
//!
//! Both reconstructions embed every quantitative constraint stated in the
//! paper's text (deflection fan-outs, protection coverage, Table 1 bit
//! lengths) and are verified by this crate's test suite.
//!
//! # Examples
//!
//! ```
//! use kar_topology::{topo15, paths};
//!
//! let topo = topo15::build();
//! let route = topo15::primary_route(&topo);
//! let pairs = paths::switch_port_pairs(&topo, &route)?;
//! let ids: Vec<u64> = pairs.iter().map(|&(id, _)| id).collect();
//! assert_eq!(ids, [10, 7, 13, 29]); // SW10-SW7-SW13-SW29
//! # Ok::<(), kar_topology::paths::PathError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod dot;
mod graph;

pub mod analysis;
pub mod gen;
pub mod hier;
pub mod paths;
pub mod rnp28;
pub mod topo15;

pub use builder::{TopologyBuilder, TopologyError};
pub use dot::to_dot;
pub use graph::{Link, LinkId, LinkParams, Node, NodeId, NodeKind, PortIx, Topology};
pub use hier::{DomainId, Partition, PartitionError};
