//! Experiment-side observability plumbing: the `--metrics <path>` flag.
//!
//! Every experiment binary accepts `--metrics <path>` (or
//! `--metrics=<path>`, or the `KAR_METRICS` environment variable) to
//! collect a [`kar_obs`] dump: per-run metrics
//! snapshots, event traces and profiler tables, written as JSON lines
//! that `kar-inspect` renders back. The flow is:
//!
//! 1. `main` calls [`init`] with its CLI arguments — when a path was
//!    requested, the process-global [`kar_obs::sink`] starts collecting;
//! 2. each run calls [`RunObs::begin`] (an enabled handle + profiler
//!    when collecting, inert otherwise), attaches it to its network via
//!    `KarNetworkBuilder::obs` / `profiler`, and calls
//!    [`RunObs::submit`] — or [`RunObs::submit_summary`], which adds the
//!    run's own result line as the dump's `summary` record — with its
//!    run label when done;
//! 3. `main` calls [`finish`], which writes every submitted dump
//!    (sorted by label, so parallel completion order never shows).
//!
//! Metrics are pure observation: a run with the sink enabled is
//! byte-identical to one without (`tests/obs_determinism.rs` enforces
//! this).

use crate::cli::flag_value;
use kar_obs::json::Json;
use kar_obs::{sink, DumpRecord, Obs, ObsHandle, Profiler, RunDump, TopoLabeler};
use kar_topology::Topology;
use std::path::PathBuf;
use std::sync::Arc;

/// `--<name> <value>` / `--<name>=<value>` (last occurrence wins),
/// falling back to the `env` variable.
fn flag_or_env(args: &[String], name: &str, env: &str) -> Option<String> {
    flag_value(args, name).or_else(|| std::env::var(env).ok())
}

/// The metrics dump path: `--metrics <path>` / `--metrics=<path>`, then
/// the `KAR_METRICS` environment variable.
pub fn metrics_path(args: &[String]) -> Option<PathBuf> {
    flag_or_env(args, "--metrics", "KAR_METRICS").map(PathBuf::from)
}

/// Enables the process-global sink when the CLI (or environment) asked
/// for a metrics dump (`--metrics`) and/or a Chrome trace (`--trace` /
/// `KAR_TRACE`). Either alone turns collection on; `--events-cap` /
/// `KAR_EVENTS_CAP` sizes every run's event ring. Returns whether
/// collection is on.
pub fn init<I: IntoIterator<Item = String>>(args: I) -> bool {
    let args: Vec<String> = args.into_iter().collect();
    if let Some(path) = metrics_path(&args) {
        sink::enable(&path);
    }
    if let Some(path) = flag_or_env(&args, "--trace", "KAR_TRACE") {
        sink::enable_trace(&PathBuf::from(path));
    }
    if sink::enabled() {
        let cap = flag_or_env(&args, "--events-cap", "KAR_EVENTS_CAP");
        if let Some(cap) = cap.and_then(|v| v.parse().ok()) {
            sink::set_event_cap(cap);
        }
    }
    sink::enabled()
}

/// Flushes every submitted dump to the requested file(s) and disables
/// the sink. Reports the outcome on stderr (never stdout — that
/// belongs to the experiment's table).
pub fn finish() {
    match sink::flush() {
        Ok(report) => {
            if let Some(path) = report.metrics {
                eprintln!("metrics: wrote {}", path.display());
            }
            if let Some(path) = report.trace {
                eprintln!("trace: wrote {}", path.display());
            }
        }
        Err(err) => eprintln!("metrics: write failed: {err}"),
    }
}

/// Per-run observability attachment: an enabled [`ObsHandle`] and
/// [`Profiler`] while the sink is collecting, inert otherwise — so
/// experiment code can attach and submit unconditionally.
#[derive(Debug, Clone, Default)]
pub struct RunObs {
    /// Handle for `KarNetworkBuilder::obs` /
    /// [`kar_simnet::Sim::attach_obs`].
    pub handle: ObsHandle,
    /// Dispatch-loop profiler for `with_profiler` /
    /// [`kar_simnet::Sim::attach_profiler`], present only while
    /// collecting (its timings are host wall clock, excluded from every
    /// determinism digest).
    pub profiler: Option<Arc<Profiler>>,
}

impl RunObs {
    /// Begins observation for one run; inert unless [`init`] enabled the
    /// sink.
    pub fn begin() -> RunObs {
        if sink::enabled() {
            RunObs {
                handle: ObsHandle::from_obs(Arc::new(Obs::with_event_capacity(sink::event_cap()))),
                profiler: Some(Arc::new(Profiler::new())),
            }
        } else {
            RunObs::default()
        }
    }

    /// Collects everything recorded so far into a dump labeled `label`
    /// (entities resolved against `topo`) and submits it to the sink.
    /// No-op when observation is off.
    pub fn submit(&self, label: &str, topo: &Topology) {
        self.submit_with(label, topo, Vec::new());
    }

    /// [`RunObs::submit`] plus the run's `summary` record: `experiment`
    /// followed by the members of `record` — the JSON object the
    /// experiment also writes to its document, so a run has one result
    /// line and the dump carries it. No-op when observation is off.
    pub fn submit_summary(&self, label: &str, topo: &Topology, experiment: &str, record: &str) {
        if !self.handle.is_enabled() {
            return;
        }
        let mut fields = vec![("experiment".to_string(), Json::Str(experiment.to_string()))];
        match Json::parse(record) {
            Ok(Json::Obj(members)) => fields.extend(members),
            other => panic!("summary of {label} is not a JSON object: {other:?}"),
        }
        self.submit_with(label, topo, fields);
    }

    fn submit_with(&self, label: &str, topo: &Topology, summary: Vec<(String, Json)>) {
        let Some(obs) = self.handle.get() else {
            return;
        };
        let labeler = TopoLabeler::new(topo);
        let rows = self.profiler.as_ref().map(|p| p.rows()).unwrap_or_default();
        let mut dump = RunDump::collect_obs(label, obs, &rows, &labeler);
        if !summary.is_empty() {
            dump.records.push(DumpRecord::Summary { fields: summary });
        }
        sink::submit(dump);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_path_parsing() {
        let parse =
            |args: &[&str]| metrics_path(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        std::env::remove_var("KAR_METRICS");
        assert_eq!(
            parse(&["--metrics", "/tmp/m.jsonl"]),
            Some("/tmp/m.jsonl".into())
        );
        assert_eq!(
            parse(&["--metrics=/tmp/x.jsonl"]),
            Some("/tmp/x.jsonl".into())
        );
        assert_eq!(
            parse(&["--jobs", "4", "--metrics", "a", "--metrics=b"]),
            Some("b".into()),
            "last flag wins"
        );
        assert_eq!(parse(&["--jobs", "4"]), None);
        assert_eq!(parse(&["--metrics"]), None, "missing value is ignored");
    }

    #[test]
    fn run_obs_is_inert_without_the_sink() {
        // The sink is process-global; this test only asserts the
        // *disabled* side (the enabled side is covered by the
        // `obs_determinism` integration test, which owns the sink).
        if !sink::enabled() {
            let obs = RunObs::begin();
            assert!(!obs.handle.is_enabled());
            assert!(obs.profiler.is_none());
        }
    }
}
