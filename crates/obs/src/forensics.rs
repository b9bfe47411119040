//! Anomaly-triggered flight recorder.
//!
//! Aggregate metrics say *that* packets looped or vanished; the flight
//! recorder freezes *why*. When the simulator observes an anomaly — a
//! TTL-expired loop, a blackholed packet on a down port, a
//! `CorruptedResidue`, or a verifier-gate mismatch — it captures the
//! recent event window plus the **full causal chain** of the offending
//! packet (walking [`span`](crate::span) parent links back through
//! stamp → re-encode → detection → fault) into a self-contained
//! [`ForensicCapture`]. Captures ride in the normal dump
//! (`kar-bench inspect --view forensics` renders them), so a CI failure
//! ships its own black box.
//!
//! Like everything in this crate the recorder is pure observation: it
//! reads the event ring, never the simulation, and is only invoked
//! inside obs-enabled guards (DESIGN.md invariant 12).

use std::collections::BTreeSet;
use std::sync::Mutex;

use crate::dump::{DumpEvent, DumpRecord, RunDump};
use crate::events::{Event, EventRing};
use crate::profile::fmt_ns;
use crate::span::pkt_span;

/// Max captures kept per run (the rest are counted as suppressed).
pub const FORENSIC_CAPTURE_CAP: usize = 8;
/// Max captures kept per distinct trigger (loops repeat; two suffice).
pub const FORENSIC_PER_TRIGGER_CAP: usize = 2;
/// Ring events frozen into each capture's "recent" section.
pub const FORENSIC_RECENT_WINDOW: usize = 64;

/// One frozen anomaly: the trigger, the recent event window and the
/// offending packet's causal chain.
#[derive(Debug, Clone)]
pub struct ForensicCapture {
    /// What tripped the recorder (`loop`, `blackhole`,
    /// `corrupted-residue`, `verifier-gate`).
    pub trigger: &'static str,
    /// Simulation time of the trigger in nanoseconds.
    pub at_ns: u64,
    /// The offending packet, if the trigger names one.
    pub pkt: Option<u64>,
    /// Ring evictions at capture time (non-zero ⇒ chain may be cut).
    pub evicted: u64,
    /// The last [`FORENSIC_RECENT_WINDOW`] ring events.
    pub recent: Vec<Event>,
    /// Every retained event on the packet's causal chain (transitive
    /// closure over span parents), oldest first.
    pub chain: Vec<Event>,
}

#[derive(Debug, Default)]
struct LogState {
    captures: Vec<ForensicCapture>,
    suppressed: u64,
}

/// Per-run bounded store of [`ForensicCapture`]s; part of the
/// [`Obs`](crate::Obs) bundle.
#[derive(Debug, Default)]
pub struct ForensicLog {
    inner: Mutex<LogState>,
}

impl ForensicLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes a capture for `trigger` (bounds permitting) from the
    /// current contents of `ring`.
    pub fn capture(&self, trigger: &'static str, at_ns: u64, pkt: Option<u64>, ring: &EventRing) {
        let mut st = self.inner.lock().expect("forensic lock");
        let same_trigger = st.captures.iter().filter(|c| c.trigger == trigger).count();
        if st.captures.len() >= FORENSIC_CAPTURE_CAP || same_trigger >= FORENSIC_PER_TRIGGER_CAP {
            st.suppressed += 1;
            return;
        }
        let events = ring.events();
        let recent: Vec<Event> = events
            .iter()
            .rev()
            .take(FORENSIC_RECENT_WINDOW)
            .rev()
            .copied()
            .collect();
        let chain = match pkt {
            Some(p) => causal_chain(&events, pkt_span(p)),
            None => Vec::new(),
        };
        st.captures.push(ForensicCapture {
            trigger,
            at_ns,
            pkt,
            evicted: ring.evicted(),
            recent,
            chain,
        });
    }

    /// All captures, in trigger order.
    pub fn captures(&self) -> Vec<ForensicCapture> {
        self.inner.lock().expect("forensic lock").captures.clone()
    }

    /// Captures dropped by the bounds.
    pub fn suppressed(&self) -> u64 {
        self.inner.lock().expect("forensic lock").suppressed
    }
}

/// Every event whose span is in the transitive parent closure of
/// `root`, oldest first: the packet's own events plus the stamp /
/// re-encode / detection / fault control spans that led to them.
pub fn causal_chain(events: &[Event], root: u64) -> Vec<Event> {
    let mut want: BTreeSet<u64> = BTreeSet::new();
    want.insert(root);
    // Parents always point at older spans, so a bounded fixpoint over
    // the retained window terminates quickly (chains are short).
    loop {
        let before = want.len();
        for ev in events {
            if let (Some(span), Some(parent)) = (ev.span, ev.parent) {
                if want.contains(&span) {
                    want.insert(parent);
                }
            }
        }
        if want.len() == before {
            break;
        }
    }
    events
        .iter()
        .filter(|ev| ev.span.is_some_and(|s| want.contains(&s)))
        .copied()
        .collect()
}

/// One capture parsed back out of a dump.
#[derive(Debug, Clone)]
pub struct CaptureView<'a> {
    /// The [`DumpRecord::Forensic`] record the capture was read from.
    pub record: &'a DumpRecord,
    /// Events in the capture: `(section, event)` where section is
    /// `"chain"` or `"recent"`.
    pub events: Vec<(&'a str, &'a DumpEvent)>,
}

/// Groups a run's forensic records back into [`CaptureView`]s.
pub fn captures_in(run: &RunDump) -> Vec<CaptureView<'_>> {
    let mut views: Vec<(u64, CaptureView)> = Vec::new();
    for record in &run.records {
        match record {
            DumpRecord::Forensic { capture, .. } => views.push((
                *capture,
                CaptureView {
                    record,
                    events: Vec::new(),
                },
            )),
            DumpRecord::ForensicEvent {
                capture,
                section,
                event,
            } => {
                if let Some((_, v)) = views.iter_mut().find(|(c, _)| c == capture) {
                    v.events.push((section, event));
                }
            }
            _ => {}
        }
    }
    views.into_iter().map(|(_, v)| v).collect()
}

/// Renders one capture as the fault → detection → re-encode → packet
/// timeline with gap annotations (detection lag, re-encode latency,
/// packets lost in the blind window).
pub fn render_capture(v: &CaptureView) -> String {
    use std::fmt::Write as _;
    let DumpRecord::Forensic {
        capture,
        trigger,
        at_ns,
        pkt,
        evicted,
        ..
    } = v.record
    else {
        return String::new();
    };
    let mut out = String::new();
    let pkt_str = pkt.map(|p| format!(" pkt={p}")).unwrap_or_default();
    let _ = writeln!(
        out,
        "capture {capture}: trigger={trigger}{pkt_str} at {}  (ring evicted: {evicted})",
        fmt_ns(*at_ns),
    );

    let section = |want: &str| -> Vec<&DumpEvent> {
        v.events
            .iter()
            .filter(|(s, _)| *s == want)
            .map(|(_, e)| *e)
            .collect()
    };
    let (chain, recent) = (section("chain"), section("recent"));

    // Anchor times for the gap annotations.
    let time_of = |want: &str| chain.iter().find(|e| e.kind == want).map(|e| e.at_ns);
    let fault_at = time_of("fault");
    let detect_at = time_of("detect");
    let reencode_at = time_of("reencode");

    if chain.is_empty() {
        let _ = writeln!(out, "  causal chain: (none — trigger names no packet)");
    } else {
        let _ = writeln!(out, "  causal chain ({} events):", chain.len());
    }
    for e in &chain {
        let at = e.at_ns;
        let mut line = format!("    {:>10}  {:<8}", fmt_ns(at), e.kind);
        if let Some(p) = e.pkt {
            let _ = write!(line, " pkt {p}");
        }
        if !e.node.is_empty() {
            let _ = write!(line, " @{}", e.node);
        }
        if !e.link.is_empty() {
            let _ = write!(line, " link {}", e.link);
        }
        if !e.tag.is_empty() {
            let _ = write!(line, " [{}]", e.tag);
        }
        match (e.span, e.parent) {
            (Some(s), Some(p)) => {
                let _ = write!(line, "  (span {s} ← {p})");
            }
            (Some(s), None) => {
                let _ = write!(line, "  (span {s})");
            }
            _ => {}
        }
        // Gap annotations on the chain's control-plane milestones.
        match e.kind.as_str() {
            "detect" => {
                if let Some(f) = fault_at {
                    let _ = write!(line, "   detection lag {}", fmt_ns(at.saturating_sub(f)));
                }
            }
            "reencode" => {
                if let Some(d) = detect_at {
                    let _ = write!(
                        line,
                        "   re-encode {} after detect",
                        fmt_ns(at.saturating_sub(d))
                    );
                }
            }
            "stamp" => {
                if let Some(re) = reencode_at {
                    let _ = write!(
                        line,
                        "   stamped {} after re-encode",
                        fmt_ns(at.saturating_sub(re))
                    );
                }
            }
            _ => {}
        }
        out.push_str(&line);
        out.push('\n');
    }

    // Blind window: packets dropped between the fault and its detection.
    if let (Some(f), Some(d)) = (fault_at, detect_at) {
        let lost = recent
            .iter()
            .filter(|e| e.kind == "drop" && (f..=d).contains(&e.at_ns))
            .count();
        let _ = writeln!(
            out,
            "  blind window {}: {} packet(s) dropped between fault and detection",
            fmt_ns(d.saturating_sub(f)),
            lost
        );
    }
    let _ = writeln!(out, "  recent window: {} event(s) frozen", recent.len());
    out
}

/// Renders every capture in `run` (header + one block per capture);
/// empty string when the run recorded none.
pub fn render_forensics(run: &RunDump) -> String {
    use std::fmt::Write as _;
    let views = captures_in(run);
    if views.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let suppressed = views
        .iter()
        .filter_map(|v| match v.record {
            DumpRecord::Forensic { suppressed, .. } => Some(*suppressed),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "FORENSICS — {} capture(s), {} suppressed",
        views.len(),
        suppressed
    );
    for v in &views {
        out.push_str(&render_capture(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventKind, EventRing};
    use crate::span::SpanTracker;

    fn ev(at: u64, kind: EventKind, span: Option<u64>, parent: Option<u64>) -> Event {
        Event {
            span,
            parent,
            ..Event::new(at, kind)
        }
    }

    #[test]
    fn chain_walks_parent_links_transitively() {
        let spans = SpanTracker::new();
        let f = spans.fault(0);
        let (d, fp) = spans.detect(0);
        assert_eq!(fp, Some(f));
        let re = spans.fresh();
        let pkt = pkt_span(7);
        let events = vec![
            ev(10, EventKind::Fault, Some(f), None),
            ev(20, EventKind::Detect, Some(d), Some(f)),
            ev(30, EventKind::Reencode, Some(re), Some(d)),
            ev(40, EventKind::Stamp, Some(pkt), Some(re)),
            ev(50, EventKind::Hop, Some(pkt), None),
            // Unrelated noise that must not appear in the chain.
            ev(45, EventKind::Hop, Some(pkt_span(8)), None),
            ev(5, EventKind::Fault, Some(spans.fault(1)), None),
        ];
        let chain = causal_chain(&events, pkt);
        let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Fault,
                EventKind::Detect,
                EventKind::Reencode,
                EventKind::Stamp,
                EventKind::Hop,
            ]
        );
        assert_eq!(chain[0].at_ns, 10);
    }

    #[test]
    fn log_bounds_captures_and_counts_suppressed() {
        let ring = EventRing::with_capacity(16);
        ring.push(ev(1, EventKind::Drop, Some(pkt_span(1)), None));
        let log = ForensicLog::new();
        for i in 0..5 {
            log.capture("loop", i, Some(i), &ring);
        }
        assert_eq!(log.captures().len(), FORENSIC_PER_TRIGGER_CAP);
        assert_eq!(log.suppressed(), 5 - FORENSIC_PER_TRIGGER_CAP as u64);
        // A different trigger still gets its slots.
        log.capture("blackhole", 9, None, &ring);
        assert_eq!(log.captures().len(), FORENSIC_PER_TRIGGER_CAP + 1);
    }
}
