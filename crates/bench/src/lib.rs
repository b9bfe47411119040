//! # kar-bench — experiment harness for the KAR reproduction
//!
//! One binary, `kar-bench <experiment> [--flag value]…`, runs every
//! table and figure of the paper (`table1`, `fig4`, `fig5`, `fig7`,
//! `fig8`, `table2`) and our extensions; `kar-bench list` names them all
//! and the command line is the whole configuration ([`cli`]). The
//! experiment logic lives in [`experiments`] so tests can run
//! scaled-down versions. `kar-bench inspect` ([`inspect`]) renders the
//! `--metrics` dumps ([`obs`]; each run's own result line rides in the
//! dump as its `summary` record). The microbenchmarks are the `kar-perf`
//! ledger in `benchmark/`, not this crate.
//!
//! One of each:
//!
//! * [`cli`] — the registry entry type, the one argument parser and
//!   `kar-bench`'s `main`; what it was not told about it refuses.
//! * [`inspect`] — the one reader of `--metrics` dumps: tables,
//!   forensics or JSON.
//! * [`harness`] — the three run shapes: [`harness::TcpRun`] (one bulk
//!   TCP flow across a failure window), [`harness::ProbeRun`] (paced
//!   probes over KAR or a table baseline under faults and Byzantine
//!   switches) and [`harness::FleetRun`] (hundreds of CBR flows over a
//!   generated topology). Experiments describe runs; only the harness
//!   builds simulators.
//! * [`runner`] — a work-stealing thread pool whose parallel results are
//!   byte-identical to the serial order (each run seeds its own
//!   simulator; nothing is global).
//! * [`sweep`] — the sweep engine every grid experiment runs on: keyed
//!   seeding, `--jobs` fan-out, `--checkpoint` resume and grid-order
//!   documents. [`campaign`] (`fig_scale`) and the
//!   `experiments::{hier, adversary, breaking, multi_failure, dynamic}`
//!   sweeps are each a cell list, a cell function and a document header
//!   on top of it.
//! * [`record`] — `record!`: a sweep's record type, its one JSON line
//!   (document record, checkpoint line and run summary alike) and the
//!   reader that restores it on resume, all from one field list.
//! * JSON goes through `kar_obs::json`, the workspace's one writer and
//!   reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod experiments;
pub mod harness;
pub mod inspect;
pub mod obs;
pub mod record;
pub mod runner;
pub mod sweep;
