//! Structured event tracing: a bounded ring of simulation events.
//!
//! Where the metrics registry aggregates, the event ring keeps the raw
//! phenomena: every packet hop, deflection, drop, fault, detection and
//! re-encode, time-stamped in simulation time. The packet id doubles as
//! a **span id** — all events of one packet's journey share it, and each
//! carries the flow id, so a post-run tool can stitch a flow's hop
//! timeline back together (`kar-bench inspect` does exactly that).
//!
//! The ring is bounded: when full, the oldest events are overwritten and
//! the overflow is counted, so long runs keep the *recent* window — the
//! part that explains how the run ended — at a fixed memory cost.

use std::collections::VecDeque;
use std::sync::Mutex;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A packet entered the network at an edge.
    Inject,
    /// A packet arrived at a core switch.
    Hop,
    /// A switch deflected a packet off its computed port.
    Deflect,
    /// A packet was discarded.
    Drop,
    /// A packet reached its destination edge.
    Deliver,
    /// A physical link failed.
    Fault,
    /// A physical link was repaired.
    Repair,
    /// The adjacent switches observed a link transition.
    Detect,
    /// The controller re-encoded (or reverted) a route.
    Reencode,
    /// A re-encoded (detour) route ID was stamped onto a packet at
    /// ingress — the moment a recovery becomes visible to the flow.
    Stamp,
    /// An application-level observation (see `HostCtx::observe`).
    Note,
}

impl EventKind {
    /// Stable lowercase name (used in dumps).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Inject => "inject",
            EventKind::Hop => "hop",
            EventKind::Deflect => "deflect",
            EventKind::Drop => "drop",
            EventKind::Deliver => "deliver",
            EventKind::Fault => "fault",
            EventKind::Repair => "repair",
            EventKind::Detect => "detect",
            EventKind::Reencode => "reencode",
            EventKind::Stamp => "stamp",
            EventKind::Note => "note",
        }
    }

    /// Parses a dump name back (inverse of [`EventKind::as_str`]).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "inject" => EventKind::Inject,
            "hop" => EventKind::Hop,
            "deflect" => EventKind::Deflect,
            "drop" => EventKind::Drop,
            "deliver" => EventKind::Deliver,
            "fault" => EventKind::Fault,
            "repair" => EventKind::Repair,
            "detect" => EventKind::Detect,
            "reencode" => EventKind::Reencode,
            "stamp" => EventKind::Stamp,
            "note" => EventKind::Note,
            _ => return None,
        })
    }
}

/// One simulation event. Compact by design (no allocations): numeric
/// ids plus one `aux` scalar and one static `tag`, whose meaning depends
/// on the kind (e.g. `aux` = input port for hops, `tag` = drop reason
/// for drops).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulation time in nanoseconds.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Span id: the packet this event belongs to.
    pub pkt: Option<u64>,
    /// Flow the packet belongs to.
    pub flow: Option<u32>,
    /// Node where it happened (raw `NodeId` index).
    pub node: Option<u32>,
    /// Link involved (raw `LinkId` index).
    pub link: Option<u32>,
    /// Kind-specific scalar (port, hop count, …).
    pub aux: u64,
    /// Kind-specific label (drop reason, "down"/"up", …).
    pub tag: &'static str,
    /// Causal span this event belongs to (see [`crate::span`]).
    pub span: Option<u64>,
    /// Span that caused this one (fault → detect → re-encode → stamp).
    pub parent: Option<u64>,
}

impl Event {
    /// A blank event of `kind` at `at_ns`; fill the relevant fields.
    pub fn new(at_ns: u64, kind: EventKind) -> Self {
        Event {
            at_ns,
            kind,
            pkt: None,
            flow: None,
            node: None,
            link: None,
            aux: 0,
            tag: "",
            span: None,
            parent: None,
        }
    }
}

#[derive(Debug)]
struct RingInner {
    buf: VecDeque<Event>,
    cap: usize,
    pushed: u64,
}

/// Default event capacity (≈4 MiB of events).
pub const EVENT_RING_CAP: usize = 1 << 16;

/// The bounded event ring. Single-producer in practice (the simulator),
/// but shareable; pushes take an uncontended mutex.
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<RingInner>,
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::with_capacity(EVENT_RING_CAP)
    }
}

impl EventRing {
    /// A ring keeping at most `cap` events (minimum 1).
    pub fn with_capacity(cap: usize) -> Self {
        EventRing {
            inner: Mutex::new(RingInner {
                buf: VecDeque::new(),
                cap: cap.max(1),
                pushed: 0,
            }),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, ev: Event) {
        let mut inner = self.inner.lock().expect("event ring lock");
        if inner.buf.len() == inner.cap {
            inner.buf.pop_front();
        }
        inner.buf.push_back(ev);
        inner.pushed += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("event ring lock")
            .buf
            .iter()
            .copied()
            .collect()
    }

    /// Total events ever pushed (including evicted ones).
    pub fn pushed(&self) -> u64 {
        self.inner.lock().expect("event ring lock").pushed
    }

    /// Events evicted by the bound.
    pub fn evicted(&self) -> u64 {
        let inner = self.inner.lock().expect("event ring lock");
        inner.pushed - inner.buf.len() as u64
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("event ring lock").cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_window() {
        let ring = EventRing::with_capacity(3);
        for i in 0..5u64 {
            let mut ev = Event::new(i, EventKind::Hop);
            ev.pkt = Some(i);
            ring.push(ev);
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].pkt, Some(2));
        assert_eq!(evs[2].pkt, Some(4));
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.evicted(), 2);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            EventKind::Inject,
            EventKind::Hop,
            EventKind::Deflect,
            EventKind::Drop,
            EventKind::Deliver,
            EventKind::Fault,
            EventKind::Repair,
            EventKind::Detect,
            EventKind::Reencode,
            EventKind::Stamp,
            EventKind::Note,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("nonsense"), None);
    }
}
