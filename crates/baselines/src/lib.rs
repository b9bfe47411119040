//! # kar-baselines — comparator schemes for the KAR evaluation
//!
//! The KAR paper positions itself against failure-reaction schemes along
//! three axes (its Table 2): multiple-failure support, source routing,
//! and core state. This crate implements the comparators the evaluation
//! needs:
//!
//! * **No deflection** — KAR's modulo dataplane that drops on failure
//!   (the Fig. 4 reference; re-exported from `kar_simnet` as
//!   [`ModuloForwarder`], or use `DeflectionTechnique::None`);
//! * [`FastFailover`] — a stateful per-destination primary/backup table
//!   in every switch (OpenFlow 1.3 Fast Failover / MPLS FRR class);
//! * [`SlickForwarder`] / [`SlickEdge`] — a Slick-Packets-style scheme:
//!   stateless source routing with the alternates *explicitly encoded*
//!   per hop (contrast with KAR's single folded integer);
//! * [`PathSplicing`] — k perturbed routing trees per destination in
//!   every switch, spliced across on failure (stateful, k× the
//!   fast-failover footprint);
//! * [`TableScheme`] — uniform constructor over the table-based schemes
//!   ([`FastFailover`], [`PathSplicing`]) so sweeps can iterate them the
//!   way KAR sweeps iterate `DeflectionTechnique::ALL`;
//! * [`table2_rows`] / [`render_table2`] — the paper's Table 2, with the
//!   rows we implement verified experimentally
//!   ([`check_kar_row`], [`check_fast_failover_state`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fast_failover;
mod feature_matrix;
mod scheme;
mod slick;
mod splicing;

pub use fast_failover::{FailoverEntry, FastFailover, TableEdge};
pub use feature_matrix::{
    check_fast_failover_state, check_kar_row, render_table2, table2_rows, CoreState, FeatureRow,
};
pub use kar_simnet::ModuloForwarder;
pub use scheme::TableScheme;
pub use slick::{SlickEdge, SlickEntry, SlickForwarder, SlickHeader};
pub use splicing::PathSplicing;
