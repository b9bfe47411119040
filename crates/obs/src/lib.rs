//! # kar-obs — unified observability for the KAR reproduction
//!
//! The paper's evaluation reasons about *why* throughput collapses or
//! survives a failure — deflection loops, stretch inflation, recovery
//! lag. Those phenomena are only visible with time-resolved, per-entity
//! measurements, so this crate provides one observability layer shared
//! by the simulator, the KAR control plane and the bench harness:
//!
//! * a [`MetricsRegistry`] of named counters, gauges, log-linear
//!   [`Histogram`]s and decimated time [`Series`], keyed by
//!   `(entity, metric)` — recording is lock-free and the whole layer
//!   costs nothing when disabled (see [`ObsHandle`]),
//! * structured event tracing: a bounded [`EventRing`] of [`Event`]s
//!   (hop, deflection, drop, fault, detection, re-encode) whose packet
//!   ids act as span ids linking a packet's hops to its flow,
//! * a sim [`Profiler`] timing the discrete-event loop per event type,
//! * a JSON-lines dump format ([`RunDump`]), whose `summary` record
//!   carries each run's own result line, plus the [`sink`] that
//!   experiment binaries flush to `--metrics <path>`; `kar-inspect` (in
//!   `kar-bench`) renders the dumps,
//! * [`json`] — the workspace's one JSON writer and reader.
//!
//! Metrics are **pure observation**: nothing here feeds back into
//! simulation state or touches its RNG, so runs are byte-identical with
//! metrics on or off (enforced by determinism tests in `kar-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod dump;
mod events;
pub mod forensics;
pub mod json;
mod metrics;
mod profile;
pub mod sink;
pub mod span;

pub use dump::{parse_line, read_dumps, DumpRecord, RunDump, TopoLabeler};
pub use events::{Event, EventKind, EventRing, EVENT_RING_CAP};
pub use forensics::{ForensicCapture, ForensicLog};
pub use json::{escape, json_f64};
pub use metrics::{
    bucket_index, bucket_range, Counter, Entity, Gauge, HistSnapshot, Histogram, HistogramSummary,
    MetricsRegistry, MetricsSnapshot, Series, SeriesSnapshot,
};
pub use profile::{fmt_ns, ProfileRow, Profiler};
pub use span::{pkt_span, SpanTracker};

use std::sync::Arc;

/// One run's observability bundle: a metrics registry, an event ring,
/// the causal [`SpanTracker`] and the flight-recorder [`ForensicLog`].
/// Created per simulation; shared by everything that records.
#[derive(Debug, Default)]
pub struct Obs {
    /// The metrics registry.
    pub metrics: MetricsRegistry,
    /// The event ring.
    pub events: EventRing,
    /// Causal span allocator (fault → detect → re-encode → packet).
    pub spans: SpanTracker,
    /// Anomaly-triggered flight recorder.
    pub forensics: ForensicLog,
}

impl Obs {
    /// A fresh bundle with the default event capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh bundle keeping at most `event_cap` events.
    pub fn with_event_capacity(event_cap: usize) -> Self {
        Obs {
            metrics: MetricsRegistry::new(),
            events: EventRing::with_capacity(event_cap),
            spans: SpanTracker::new(),
            forensics: ForensicLog::new(),
        }
    }
}

/// A cheap-to-clone, possibly-disabled handle to an [`Obs`] bundle.
///
/// The disabled handle is the default everywhere: recording sites guard
/// on [`ObsHandle::get`] (one `Option` check, no allocation, no atomics),
/// which is what makes "near-zero overhead when off" true.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle(Option<Arc<Obs>>);

impl ObsHandle {
    /// The disabled handle: records nothing.
    pub fn disabled() -> Self {
        ObsHandle(None)
    }

    /// An enabled handle around a fresh bundle.
    pub fn enabled() -> Self {
        ObsHandle(Some(Arc::new(Obs::new())))
    }

    /// Wraps an existing shared bundle.
    pub fn from_obs(obs: Arc<Obs>) -> Self {
        ObsHandle(Some(obs))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The bundle, when enabled.
    pub fn get(&self) -> Option<&Obs> {
        self.0.as_deref()
    }

    /// The shared bundle, when enabled.
    pub fn arc(&self) -> Option<Arc<Obs>> {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_cheap_and_inert() {
        let h = ObsHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.get().is_none());
        assert!(h.arc().is_none());
        assert!(!ObsHandle::default().is_enabled());
    }

    #[test]
    fn enabled_handle_shares_one_bundle() {
        let h = ObsHandle::enabled();
        let h2 = h.clone();
        h.get().unwrap().metrics.counter(Entity::Global, "x").inc();
        assert_eq!(
            h2.get().unwrap().metrics.counter(Entity::Global, "x").get(),
            1
        );
    }
}
