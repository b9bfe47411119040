//! Controller recovery loop: reactive re-encoding after failure
//! detection.
//!
//! During the paper's experiments "the controller ignores all failure
//! notifications and keeps the same route" — deflection alone carries
//! packets around the failure. [`crate::LinkView::Notices`] is the
//! other half of a deployable system: a [`crate::Planner`] that
//! *listens*. When the failure detector resolves a link transition (the
//! data plane's detection delay has elapsed — see
//! [`kar_simnet::SimConfig::detection_delay`]), the notification travels
//! the control channel for a further
//! [`RecoveryConfig::notification_delay`]; the planner then re-encodes
//! every installed route whose primary path crosses a failed link —
//! avoiding the known-failed links, through the shared
//! [`crate::EncodingCache`] when one is attached — and installs the
//! fresh route ID at the ingress edge.
//!
//! Until the new ID lands, in-flight and newly injected packets still
//! carry the old one and survive (or not) purely by deflection — exactly
//! the window the paper's resilience argument is about. The
//! [`RecoveryLog`] makes that window measurable: it records, per flow,
//! when the failure was observed and when the first packet left the edge
//! with a recovered route ID. This module holds the loop's configuration
//! and its log; the loop itself is the planner's.

use crate::protection::Protection;
use kar_simnet::SimTime;
use kar_topology::{LinkId, NodeId};
use std::sync::Mutex;

/// Knobs of the recovery loop.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Control-channel latency from the failure detector resolving a
    /// transition to the re-encoded route being live at the edge. This
    /// is *on top of* the data plane's detection delay.
    pub notification_delay: SimTime,
    /// Protection applied to recovery routes. The paper's reactive
    /// recomputation is unprotected ([`Protection::None`], the default);
    /// protecting the detour too models a controller that re-arms
    /// against the next failure.
    pub protection: Protection,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            notification_delay: SimTime::from_millis(2),
            protection: Protection::None,
        }
    }
}

/// One link notification as the controller processed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkNotice {
    /// The link that changed state.
    pub link: LinkId,
    /// `true` for a repair, `false` for a failure.
    pub up: bool,
    /// When the failure detector resolved the transition.
    pub observed_at: SimTime,
    /// When the controller acted on it (`observed_at` plus the
    /// notification delay).
    pub applied_at: SimTime,
}

/// One flow switching onto a recovered route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecovery {
    /// Ingress edge of the recovered flow.
    pub src: NodeId,
    /// Destination edge.
    pub dst: NodeId,
    /// When the triggering failure was observed by the detector.
    pub failed_at: SimTime,
    /// When the first packet left the edge with the recovered route ID.
    pub recovered_at: SimTime,
}

impl FlowRecovery {
    /// Detector-to-recovered-traffic latency.
    pub fn latency(&self) -> SimTime {
        self.recovered_at.since(self.failed_at)
    }
}

/// Everything the recovery loop did during a run.
///
/// Shared via [`crate::Planner::log_handle`] — taken before the run,
/// since recording happens only while a handle is held — so the
/// telemetry can read it after the simulation (which owns the planner)
/// finishes.
#[derive(Debug, Clone, Default)]
pub struct RecoveryLog {
    /// Link notifications in processing order.
    pub notices: Vec<LinkNotice>,
    /// Flows that switched onto a recovered route.
    pub flows: Vec<FlowRecovery>,
}

impl RecoveryLog {
    /// Mean per-flow recovery latency in seconds (0.0 when no flow
    /// needed recovery).
    pub fn mean_recovery_latency_s(&self) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        let total: u64 = self.flows.iter().map(|f| f.latency().as_nanos()).sum();
        (total as f64 / self.flows.len() as f64) / 1e9
    }
}

/// Locks the shared recovery log, recovering from a poisoned mutex.
///
/// Telemetry readers hold this lock only to push/clone plain records, so
/// a panic on another thread mid-push leaves the log merely truncated,
/// never structurally broken — propagating the poison would cascade one
/// worker's panic into every simulation sharing the log handle.
pub(crate) fn lock_log(log: &Mutex<RecoveryLog>) -> std::sync::MutexGuard<'_, RecoveryLog> {
    log.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
