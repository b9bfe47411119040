//! Causal span ids: fault → detection → re-encode → packet.
//!
//! Every traced [`Event`](crate::Event) can carry a `span` id and a
//! `parent` span id. Packet events share one span per packet; control
//! plane events (faults, detections, re-encodes) get fresh spans whose
//! parents stitch the causal chain the paper's resilience story is
//! about: a physical fault is *detected* after the detection delay, the
//! detection triggers a controller *re-encode*, and the re-encoded
//! route is *stamped* onto packets at ingress. Post-run tools
//! ([`chrome`](crate::chrome), [`forensics`](crate::forensics),
//! `kar-bench inspect`) walk the parent links to answer "why did this
//! packet take that path".
//!
//! Span ids live in two disjoint namespaces so packet spans need no
//! allocation or shared state:
//!
//! * **packet spans** are odd: `pkt_span(id) = id << 1 | 1`,
//! * **control spans** are even: allocated from a per-run counter in
//!   the [`SpanTracker`], `2, 4, 6, …`.
//!
//! The tracker is part of the [`Obs`](crate::Obs) bundle and is only
//! touched inside obs-enabled guards, so span allocation can never
//! perturb simulation state (DESIGN.md invariant 12).

use std::collections::HashMap;
use std::sync::Mutex;

/// The span id of packet `pkt` (odd namespace, pure function).
pub fn pkt_span(pkt: u64) -> u64 {
    (pkt << 1) | 1
}

/// Whether `span` is a packet span (odd) rather than a control span.
pub fn is_pkt_span(span: u64) -> bool {
    span & 1 == 1
}

#[derive(Debug, Default)]
struct SpanState {
    /// Control-span counter; the next span is `(next + 1) << 1`.
    next: u64,
    /// Per-link span of the most recent fault event.
    last_fault: HashMap<u32, u64>,
    /// Span of the most recent fault on *any* link — the default blame
    /// for anomalous packet fates with no link of their own (loops).
    last_fault_any: Option<u64>,
    /// Per-link span of the most recent detection event.
    last_detect: HashMap<u32, u64>,
}

impl SpanState {
    fn alloc(&mut self) -> u64 {
        self.next += 1;
        self.next << 1
    }
}

/// Per-run allocator and registry of control-plane spans.
///
/// Lives in the [`Obs`](crate::Obs) bundle; all methods take an
/// uncontended mutex, and none are called when observability is off.
#[derive(Debug, Default)]
pub struct SpanTracker {
    inner: Mutex<SpanState>,
}

impl SpanTracker {
    /// A fresh tracker (first control span is 2).
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a span for a fault on `link` and remembers it as the
    /// link's most recent fault.
    pub fn fault(&self, link: u32) -> u64 {
        let mut st = self.inner.lock().expect("span lock");
        let span = st.alloc();
        st.last_fault.insert(link, span);
        st.last_fault_any = Some(span);
        span
    }

    /// Allocates a span for a detection on `link`, parented to the
    /// link's most recent fault (if any), and remembers it as the
    /// link's most recent detection.
    pub fn detect(&self, link: u32) -> (u64, Option<u64>) {
        let mut st = self.inner.lock().expect("span lock");
        let parent = st.last_fault.get(&link).copied();
        let span = st.alloc();
        st.last_detect.insert(link, span);
        (span, parent)
    }

    /// Allocates a fresh control span with no registry side effects
    /// (used for re-encodes; the caller keeps the id to parent stamps).
    pub fn fresh(&self) -> u64 {
        self.inner.lock().expect("span lock").alloc()
    }

    /// The span of the most recent fault on `link`, if any.
    pub fn last_fault(&self, link: u32) -> Option<u64> {
        self.inner
            .lock()
            .expect("span lock")
            .last_fault
            .get(&link)
            .copied()
    }

    /// The span of the most recent fault on any link, if any. An
    /// anomalous drop (loop, blackhole) parents to this when it cannot
    /// name the specific link that doomed it — "the last thing that
    /// broke" is the forensically useful default blame.
    pub fn last_fault_any(&self) -> Option<u64> {
        self.inner.lock().expect("span lock").last_fault_any
    }

    /// The span of the most recent detection on `link`, if any.
    pub fn last_detect(&self, link: u32) -> Option<u64> {
        self.inner
            .lock()
            .expect("span lock")
            .last_detect
            .get(&link)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_never_collide() {
        let t = SpanTracker::new();
        for pkt in 0..100u64 {
            assert!(is_pkt_span(pkt_span(pkt)));
        }
        for _ in 0..100 {
            assert!(!is_pkt_span(t.fresh()));
        }
    }

    #[test]
    fn detect_parents_to_the_latest_fault_on_that_link() {
        let t = SpanTracker::new();
        let f3 = t.fault(3);
        let f5 = t.fault(5);
        assert_ne!(f3, f5);
        let (d3, p3) = t.detect(3);
        assert_eq!(p3, Some(f3));
        let (_, p5) = t.detect(5);
        assert_eq!(p5, Some(f5));
        assert_eq!(t.last_detect(3), Some(d3));
        assert_eq!(t.last_fault(3), Some(f3));
        // A link nobody faulted has no chain.
        let (_, p9) = t.detect(9);
        assert_eq!(p9, None);
        assert_eq!(t.last_detect(99), None);
    }

    #[test]
    fn repeated_faults_rebind_the_parent() {
        let t = SpanTracker::new();
        let _first = t.fault(1);
        let second = t.fault(1);
        let (_, parent) = t.detect(1);
        assert_eq!(parent, Some(second));
        assert_eq!(t.last_fault_any(), Some(second));
        let third = t.fault(7);
        assert_eq!(t.last_fault_any(), Some(third), "any-link blame follows");
    }
}
