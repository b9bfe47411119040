//! Experiment-side observability plumbing: the `--metrics <path>` flag.
//!
//! Every experiment accepts `--metrics <path>` to collect a [`kar_obs`]
//! dump: per-run metrics snapshots, event traces and profiler tables,
//! written as JSON lines that `kar-bench inspect` renders back. The flow
//! is:
//!
//! 1. [`crate::cli::main`] calls [`init`] with the observability flags —
//!    when a path was requested, the process-global [`kar_obs::sink`]
//!    starts collecting;
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

use kar_obs::json::Json;
use kar_obs::{sink, DumpRecord, Obs, ObsHandle, Profiler, RunDump, TopoLabeler};
use kar_topology::Topology;
use std::path::Path;
use std::sync::Arc;

/// Enables the process-global sink when a metrics dump (`--metrics`)
/// and/or a Chrome trace (`--trace`) was asked for. Either alone turns
/// collection on; `events_cap` (`--events-cap`) sizes every run's event
/// ring. Returns whether collection is on.
pub fn init(metrics: Option<&Path>, trace: Option<&Path>, events_cap: usize) -> bool {
    if let Some(path) = metrics {
        sink::enable(path);
    }
    if let Some(path) = trace {
        sink::enable_trace(path);
    }
    if sink::enabled() {
        sink::set_event_cap(events_cap);
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
        let parse = |args: &[&str]| {
            let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let args = crate::cli::Args::parse(&crate::experiments::REGISTRY[0], &argv);
            args.map(|a| a.opt("--metrics").map(str::to_string))
        };
        let path = |p: &str| Ok(Some(p.to_string()));
        assert_eq!(parse(&["--metrics", "/tmp/m.jsonl"]), path("/tmp/m.jsonl"));
        assert_eq!(parse(&["--metrics=/tmp/x.jsonl"]), path("/tmp/x.jsonl"));
        let last = parse(&["--jobs", "4", "--metrics", "a", "--metrics=b"]);
        assert_eq!(last, path("b"), "last flag wins");
        assert_eq!(parse(&["--jobs", "4"]), Ok(None));
        assert!(parse(&["--metrics"]).is_err(), "missing value is refused");
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
