//! Process-global metrics sink: experiment harnesses `submit` per-run
//! dumps from worker threads as runs finish, and the binary `flush`es
//! once at exit. Disabled by default — when no sink is enabled, `submit`
//! is a no-op and run paths skip metrics collection entirely (see
//! `ObsHandle`).
//!
//! The sink owns up to two output paths: the JSON-lines metrics dump
//! (`--metrics`) and a Chrome trace-event file (`--trace`, rendered by
//! [`crate::chrome`]). Either alone enables collection; one flush
//! writes both from the same sorted dumps. It also carries the
//! requested event-ring capacity (`--events-cap`) so every run's ring
//! is sized consistently.
//!
//! Flushing sorts dumps by run label, so the file contents do not depend
//! on the completion order of parallel runs.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::chrome;
use crate::dump::RunDump;
use crate::events::EVENT_RING_CAP;

struct SinkState {
    metrics_path: Option<PathBuf>,
    trace_path: Option<PathBuf>,
    event_cap: usize,
    dumps: Vec<RunDump>,
}

impl SinkState {
    fn fresh() -> Self {
        SinkState {
            metrics_path: None,
            trace_path: None,
            event_cap: EVENT_RING_CAP,
            dumps: Vec::new(),
        }
    }
}

static SINK: Mutex<Option<SinkState>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut SinkState) -> R) -> R {
    let mut sink = SINK.lock().expect("sink lock");
    f(sink.get_or_insert_with(SinkState::fresh))
}

/// Directs the metrics dump at `path`; dumps accumulate until [`flush`].
pub fn enable(path: &Path) {
    with_state(|s| s.metrics_path = Some(path.to_path_buf()));
}

/// Directs the Chrome trace-event export at `path`. Enables collection
/// even without a metrics path.
pub fn enable_trace(path: &Path) {
    with_state(|s| s.trace_path = Some(path.to_path_buf()));
}

/// Sets the event-ring capacity runs should use (`--events-cap`).
pub fn set_event_cap(cap: usize) {
    with_state(|s| s.event_cap = cap.max(1));
}

/// The event-ring capacity runs should use (the default when no sink
/// is enabled or none was requested).
pub fn event_cap() -> usize {
    SINK.lock()
        .expect("sink lock")
        .as_ref()
        .map(|s| s.event_cap)
        .unwrap_or(EVENT_RING_CAP)
}

/// Whether a sink is currently enabled.
pub fn enabled() -> bool {
    SINK.lock().expect("sink lock").is_some()
}

/// Drops any enabled sink and its pending dumps (for tests).
pub fn disable() {
    *SINK.lock().expect("sink lock") = None;
}

/// Queues one run's dump. No-op when the sink is disabled.
pub fn submit(dump: RunDump) {
    let mut sink = SINK.lock().expect("sink lock");
    if let Some(state) = sink.as_mut() {
        state.dumps.push(dump);
    }
}

/// What [`flush`] wrote.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// The metrics dump path, when one was written.
    pub metrics: Option<PathBuf>,
    /// The Chrome trace path, when one was written.
    pub trace: Option<PathBuf>,
}

impl FlushReport {
    /// Whether nothing was written (no sink, or no paths requested).
    pub fn is_empty(&self) -> bool {
        self.metrics.is_none() && self.trace.is_none()
    }
}

/// Writes all queued dumps (sorted by run label) to every requested
/// path and disables the sink. Returns what was written.
pub fn flush() -> io::Result<FlushReport> {
    let state = SINK.lock().expect("sink lock").take();
    let Some(mut state) = state else {
        return Ok(FlushReport::default());
    };
    state.dumps.sort_by(|a, b| a.label.cmp(&b.label));
    let mut report = FlushReport::default();
    if let Some(path) = &state.metrics_path {
        let mut file = std::fs::File::create(path)?;
        for dump in &state.dumps {
            file.write_all(dump.to_lines().as_bytes())?;
        }
        file.flush()?;
        report.metrics = Some(path.clone());
    }
    if let Some(path) = &state.trace_path {
        std::fs::write(path, chrome::trace_json(&state.dumps))?;
        report.trace = Some(path.clone());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::DumpRecord;

    // One test, not several: the sink is process-global, so parallel
    // unit tests would race on it.
    #[test]
    fn sink_lifecycle_covers_metrics_trace_and_cap() {
        sink_sorts_by_label_and_disables_after_flush();
        trace_only_sink_collects_and_writes_chrome_json();
    }

    fn sink_sorts_by_label_and_disables_after_flush() {
        let path = std::env::temp_dir().join("kar_obs_sink_test.jsonl");
        enable(&path);
        assert!(enabled());
        for label in ["b/run", "a/run"] {
            submit(RunDump {
                label: label.into(),
                records: vec![DumpRecord::Counter {
                    entity: "global".into(),
                    metric: "x".into(),
                    value: 1,
                }],
            });
        }
        let report = flush().unwrap();
        assert_eq!(report.metrics, Some(path.clone()));
        assert_eq!(report.trace, None);
        assert!(!enabled());
        // Disabled sink swallows submissions; flush is a no-op.
        submit(RunDump::default());
        assert!(flush().unwrap().is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        let a = text.find("a/run").unwrap();
        let b = text.find("b/run").unwrap();
        assert!(a < b, "dumps not sorted by label");
        let _ = std::fs::remove_file(&path);
    }

    fn trace_only_sink_collects_and_writes_chrome_json() {
        let path = std::env::temp_dir().join("kar_obs_sink_test.trace.json");
        enable_trace(&path);
        assert!(enabled(), "--trace alone must enable collection");
        set_event_cap(123);
        assert_eq!(event_cap(), 123);
        submit(RunDump {
            label: "t/run".into(),
            records: Vec::new(),
        });
        let report = flush().unwrap();
        assert_eq!(report.metrics, None);
        assert_eq!(report.trace, Some(path.clone()));
        assert_eq!(event_cap(), crate::EVENT_RING_CAP, "cap resets with sink");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["), "got: {text}");
        let _ = std::fs::remove_file(&path);
    }
}
