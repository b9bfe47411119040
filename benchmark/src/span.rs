//! Spans recorded by the benchmark's own code around each call into a
//! layer (the traced run only): name, start, end, the span that caused
//! it, and one id per request or repetition. Spans stay in memory until
//! the run ends; a layer's self time is its span's duration minus what
//! its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Handle to an open or finished span of one [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// Returned by a disabled tracer; never indexes anything.
const NO_SPAN: SpanId = SpanId(u32::MAX);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Request (window) or repetition this span belongs to.
    request: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every span of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing and never
/// reads the clock, so timed runs share the traced run's code path at
/// no cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing (timed runs).
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer (traced runs).
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Records a span around `f`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_time_ns((s.start_ns, s.end_ns), kids);
        }
        out
    }

    /// Writes every span as one JSON document.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, w: &mut impl Write, workload: &str, seed: u64) -> io::Result<()> {
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may nest, overlap each other or stick
/// out of the parent; each covered nanosecond is subtracted once.
pub fn self_time_ns(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = span;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(c_start, c_end) in children.iter() {
        let from = c_start.max(reach);
        let to = c_end.min(end);
        if to > from {
            covered += to - from;
            reach = to;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time_ns((0, 100), &mut [(10, 20), (50, 80)]), 60);
        assert_eq!(self_time_ns((0, 100), &mut []), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // (10,40) and (30,60) cover 10..60 = 50, not 30 + 30.
        assert_eq!(self_time_ns((0, 100), &mut [(30, 60), (10, 40)]), 50);
        // A child inside another child adds nothing.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time_ns((100, 200), &mut [(50, 120), (180, 300)]), 60);
        assert_eq!(self_time_ns((100, 200), &mut [(0, 50), (250, 300)]), 100);
        assert_eq!(self_time_ns((100, 200), &mut [(0, 300)]), 0);
    }

    #[test]
    fn nested_spans_attribute_self_time_to_each_level() {
        let mut t = Tracer::on();
        let root = t.begin("root", 1, None);
        let mid = t.begin("mid", 1, Some(root));
        let leaf = t.begin("leaf", 1, Some(mid));
        t.end(leaf);
        t.end(mid);
        t.end(root);
        // Pin the clock readings so the arithmetic is exact.
        for (i, (s, e)) in [(0, 100), (10, 90), (20, 50)].into_iter().enumerate() {
            t.spans[i].start_ns = s;
            t.spans[i].end_ns = e;
        }
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 20);
        assert_eq!(totals["mid"].self_ns, 50);
        assert_eq!(totals["leaf"].self_ns, 30);
        assert_eq!(totals["root"].total_ns, 100);
        let sum: u64 = totals.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", 0, None);
        t.end(id);
        assert_eq!(t.span("y", 0, Some(id), || 7), 7);
        assert!(t.totals().is_empty());
        assert!(t.durations_ns("x").is_empty());
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut t = Tracer::on();
        let a = t.begin("a", 3, None);
        let b = t.begin("b", 3, Some(a));
        t.end(b);
        t.end(a);
        let mut buf = Vec::new();
        t.write_json(&mut buf, "w", 9).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"workload\":\"w\",\"seed\":9,\"spans\":["));
        assert!(text.contains("\"id\":0,\"parent\":null,\"name\":\"a\",\"request\":3"));
        assert!(text.contains("\"id\":1,\"parent\":0,\"name\":\"b\""));
    }
}
