//! # kar-bench — experiment harness for the KAR reproduction
//!
//! One binary per table/figure of the paper (`table1`, `fig4`, `fig5`,
//! `fig7`, `fig8`, `table2`) plus extensions (`ablation_ids`,
//! `multi_failure`), and Criterion microbenchmarks for the encoding and
//! forwarding hot paths. The experiment logic lives in [`experiments`]
//! so tests can run scaled-down versions; binaries are thin wrappers.
//!
//! Knobs via environment: `KAR_RUNS` (repetitions), `KAR_SECONDS`
//! (per-run transfer seconds), `KAR_SEED`, `KAR_JOBS` (worker threads,
//! also `--jobs N` on every sweep binary), `KAR_METRICS` (observability
//! dump path, also `--metrics <path>` — see [`obs`] and the
//! `kar-inspect` binary that renders the dumps; each run's own result
//! line rides in the dump as its `summary` record).
//!
//! One of each:
//!
//! * [`harness`] — the two run shapes: [`harness::TcpRun`] (one bulk TCP
//!   flow across a failure window) and [`harness::ProbeRun`] (paced
//!   probes over KAR or a table baseline under faults and Byzantine
//!   switches). Experiments describe runs; only the harness builds
//!   simulators.
//! * [`runner`] — a work-stealing thread pool whose parallel results are
//!   byte-identical to the serial order (each run seeds its own
//!   simulator; nothing is global).
//! * [`sweep`] — the sweep engine every grid experiment runs on: keyed
//!   seeding, `--jobs` fan-out, `--checkpoint` resume and grid-order
//!   documents. [`campaign`] (binary `fig_scale`) and the
//!   `experiments::{hier, adversary, breaking, multi_failure, dynamic}`
//!   sweeps are each a cell list, a cell function and a document header
//!   on top of it.
//! * [`record`] — `record!`: a sweep's record type, its one JSON line
//!   (document record, checkpoint line and run summary alike) and the
//!   reader that restores it on resume, all from one field list.
//! * [`cli::CommonArgs`] — the flags shared by every binary (`--jobs`,
//!   `--checkpoint`, `--out`, `--metrics`, `--trace`, `--seed`).
//! * JSON goes through `kar_obs::json`, the workspace's one writer and
//!   reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod experiments;
pub mod harness;
pub mod obs;
pub mod record;
pub mod runner;
pub mod sweep;
