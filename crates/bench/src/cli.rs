//! Shared command-line handling for the experiment binaries.
//!
//! One [`CommonArgs::parse`] call handles, for every binary:
//!
//! * `--jobs N` / `--jobs=N` (or `KAR_JOBS`) — worker threads for the
//!   [`crate::runner`] pool;
//! * `--checkpoint PATH` — on the sweep binaries (`fig_scale`,
//!   `fig_hier`, `fig_adversary`, `fig_breaking`, `multi_failure`,
//!   `fig_dynamic`), the [`crate::sweep`] checkpoint: an interrupted
//!   sweep re-run with the same flags resumes at the last completed
//!   cell;
//! * `--out PATH` — on the same binaries, where to write the sweep's
//!   JSON document (see [`CommonArgs::write_document`]);
//! * `--metrics PATH` / `--metrics=PATH` (or `KAR_METRICS`) — enables
//!   the [`crate::obs`] dump sink;
//! * `--trace PATH` / `--trace=PATH` (or `KAR_TRACE`) — also enables
//!   the sink, exporting a Chrome trace-event file (load it in
//!   `chrome://tracing` / Perfetto) on top of, or instead of, the
//!   metrics dump;
//! * `--events-cap N` / `--events-cap=N` (or `KAR_EVENTS_CAP`) — event
//!   ring capacity per run, for when the default window evicts the
//!   events a forensic capture needed;
//! * `--seed N` (or `KAR_SEED`) — base RNG seed, with a per-experiment
//!   default.
//!
//! None of the knobs changes simulation results except the seed: jobs
//! and checkpoints only schedule work, and metrics are pure
//! observation. Call [`CommonArgs::finish`] at the end of `main` to
//! flush any requested metrics dump.

use crate::harness::env_knob;
use crate::{obs, runner, sweep};
use std::path::PathBuf;
use std::str::FromStr;

/// The flags and environment knobs shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Worker threads for sweep parallelism (`--jobs`, `KAR_JOBS`).
    pub jobs: usize,
    /// Base RNG seed (`--seed`, `KAR_SEED`, experiment default).
    pub seed: u64,
    /// Whether observability collection is on (a metrics dump and/or a
    /// Chrome trace was requested).
    pub metrics: bool,
    /// Sweep checkpoint file (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Where the sweep document goes (`--out`).
    pub out: Option<PathBuf>,
    /// The raw arguments, for a binary's own flags (see
    /// [`CommonArgs::flag`]).
    pub args: Vec<String>,
}

impl CommonArgs {
    /// Parses the process arguments (skipping `argv[0]`), enabling the
    /// metrics sink as a side effect. `default_seed` is the experiment's
    /// seed when neither `--seed` nor `KAR_SEED` is present.
    pub fn parse(default_seed: u64) -> CommonArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut common = CommonArgs::parse_pure(&args, default_seed);
        common.metrics = obs::init(args);
        common
    }

    /// The side-effect-free core of [`CommonArgs::parse`]: resolves
    /// everything from flags and environment without touching the
    /// metrics sink (so tests can exercise precedence in isolation).
    /// `metrics` is left `false`.
    pub fn parse_pure(args: &[String], default_seed: u64) -> CommonArgs {
        let seed = flag_value(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| env_knob("KAR_SEED", default_seed));
        CommonArgs {
            jobs: runner::jobs_from_args(args),
            seed,
            metrics: false,
            checkpoint: flag_value(args, "--checkpoint").map(PathBuf::from),
            out: flag_value(args, "--out").map(PathBuf::from),
            args: args.to_vec(),
        }
    }

    /// A binary's own `--name <value>` flag (`--max-switches`, `--k`,
    /// …), or `default` when absent or unparsable.
    pub fn flag<T: FromStr>(&self, name: &str, default: T) -> T {
        flag_value(&self.args, name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether `--topo` (`topo15`, `rnp28` or the default `both`)
    /// selects the topology called `name`.
    pub fn wants_topo(&self, name: &str) -> bool {
        let which = self.flag("--topo", "both".to_string());
        which == "both" || which == name
    }

    /// How a sweep binary executes its sweep (`--jobs`, `--checkpoint`).
    pub fn sweep(&self) -> sweep::Opts {
        sweep::Opts {
            jobs: self.jobs,
            checkpoint: self.checkpoint.clone(),
        }
    }

    /// Writes a sweep's JSON document to `--out`, or to `default_name`
    /// at the repository root (the committed `BENCH_*.json` files), or
    /// nowhere when neither is given. Reports on stderr as `tool`.
    pub fn write_document(&self, tool: &str, default_name: Option<&str>, text: &str) {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let Some(out) = self.out.clone().or(default_name.map(|n| root.join(n))) else {
            return;
        };
        match std::fs::write(&out, text) {
            Ok(()) => eprintln!("{tool}: wrote {}", out.display()),
            Err(e) => eprintln!("{tool}: cannot write {}: {e}", out.display()),
        }
    }

    /// Flushes the metrics dump (when one was requested) — call once at
    /// the end of `main`.
    pub fn finish(&self) {
        obs::finish();
    }
}

/// Extracts `--name <value>` or `--name=<value>`; the last occurrence
/// wins (matching [`crate::obs::metrics_path`]'s convention).
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    let mut iter = args.iter();
    let mut value = None;
    let prefix = format!("{name}=");
    while let Some(arg) = iter.next() {
        if arg == name {
            value = iter.next().cloned();
        } else if let Some(v) = arg.strip_prefix(&prefix) {
            value = Some(v.to_string());
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seed_flag_beats_default() {
        let args = argv(&["--seed", "42"]);
        assert_eq!(CommonArgs::parse_pure(&args, 7).seed, 42);
        let args = argv(&["--seed=9"]);
        assert_eq!(CommonArgs::parse_pure(&args, 7).seed, 9);
        assert_eq!(CommonArgs::parse_pure(&[], 7).seed, 7);
    }

    #[test]
    fn jobs_flag_is_recognized() {
        let args = argv(&["--jobs", "3"]);
        assert_eq!(CommonArgs::parse_pure(&args, 1).jobs, 3);
        let args = argv(&["--jobs=2", "--jobs=5"]);
        assert_eq!(CommonArgs::parse_pure(&args, 1).jobs, 5, "last wins");
    }

    #[test]
    fn sweep_flags_are_parsed_in_one_place() {
        let args = argv(&["--checkpoint", "c.ckpt", "--out=doc.json", "--jobs", "2"]);
        let c = CommonArgs::parse_pure(&args, 1);
        assert_eq!(c.out, Some(PathBuf::from("doc.json")));
        let opts = c.sweep();
        assert_eq!(opts.jobs, 2);
        assert_eq!(opts.checkpoint, Some(PathBuf::from("c.ckpt")));
        let c = CommonArgs::parse_pure(&[], 1);
        assert_eq!((c.checkpoint, c.out), (None, None));
    }

    #[test]
    fn unrelated_flags_are_ignored() {
        let args = argv(&["--correlated", "--seed", "4", "extra"]);
        let c = CommonArgs::parse_pure(&args, 1);
        assert_eq!(c.seed, 4);
        assert!(!c.metrics);
    }
}
