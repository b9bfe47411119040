//! Chrome trace-event exporter: any run's causal spans, loadable
//! directly into `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! The export maps the dump's event records onto the trace-event JSON
//! format (the `{"traceEvents": [...]}` flavour):
//!
//! * each **run** becomes a process (`pid`), named by its run label,
//! * each **node** becomes a thread (`tid`), with `tid 0` reserved for
//!   control-plane events (faults, detections, re-encodes),
//! * each **span** with more than one event becomes an async slice
//!   (`ph: "b"`/`"e"`) spanning first to last event,
//! * every event also emits an **instant** (`ph: "i"`) carrying kind,
//!   tag, aux, link, packet and span ids in `args`,
//! * every **parent link** becomes a flow arrow (`ph: "s"` → `"f"`)
//!   from the parent span's first event to the child event — the
//!   clickable fault → detection → re-encode → packet chain.
//!
//! Timestamps are microseconds (the format's unit), converted from the
//! dump's nanoseconds with three decimals so nothing collapses.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::dump::{DumpEvent, RunDump};
use crate::json::escape;

/// Microsecond timestamp with sub-µs precision preserved.
fn ts_us(at_ns: u64) -> String {
    format!("{:.3}", at_ns as f64 / 1000.0)
}

fn push_obj(out: &mut String, body: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push('{');
    out.push_str(body);
    out.push('}');
}

/// Renders `dumps` as a self-contained Chrome trace-event JSON string.
pub fn trace_json(dumps: &[RunDump]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (run_idx, dump) in dumps.iter().enumerate() {
        let pid = run_idx + 1;
        push_obj(
            &mut out,
            &format!(
                "\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}",
                escape(&dump.label)
            ),
        );
        push_obj(
            &mut out,
            &format!(
                "\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"control plane\"}}"
            ),
        );

        // tid per node, first-seen order; 0 is the control plane.
        let mut tids: HashMap<&str, usize> = HashMap::new();
        let events: Vec<&DumpEvent> = dump.events().collect();
        for ev in &events {
            let node = ev.node.as_str();
            if !node.is_empty() && !tids.contains_key(node) {
                let tid = tids.len() + 1;
                tids.insert(node, tid);
                push_obj(
                    &mut out,
                    &format!(
                        "\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                         \"args\":{{\"name\":\"{}\"}}",
                        escape(node)
                    ),
                );
            }
        }
        let tid_of = |node: &str| -> usize {
            if node.is_empty() {
                0
            } else {
                tids.get(node).copied().unwrap_or(0)
            }
        };

        // Span extents: (first event, last event) per span id.
        struct Extent<'a> {
            first_ns: u64,
            last_ns: u64,
            first_kind: &'a str,
            first_node: &'a str,
            pkt: Option<u64>,
            count: usize,
        }
        let mut extents: Vec<(u64, Extent)> = Vec::new();
        let mut by_span: HashMap<u64, usize> = HashMap::new();
        for ev in &events {
            let Some(span) = ev.span else {
                continue;
            };
            match by_span.get(&span) {
                Some(&i) => {
                    let e = &mut extents[i].1;
                    e.last_ns = ev.at_ns.max(e.last_ns);
                    e.count += 1;
                    if e.pkt.is_none() {
                        e.pkt = ev.pkt;
                    }
                }
                None => {
                    by_span.insert(span, extents.len());
                    extents.push((
                        span,
                        Extent {
                            first_ns: ev.at_ns,
                            last_ns: ev.at_ns,
                            first_kind: &ev.kind,
                            first_node: &ev.node,
                            pkt: ev.pkt,
                            count: 1,
                        },
                    ));
                }
            }
        }
        for (span, e) in &extents {
            if e.count < 2 {
                continue;
            }
            let name = match e.pkt {
                Some(p) => format!("pkt {p}"),
                None => e.first_kind.to_string(),
            };
            let tid = tid_of(e.first_node);
            push_obj(
                &mut out,
                &format!(
                    "\"ph\":\"b\",\"cat\":\"span\",\"id\":{span},\"pid\":{pid},\"tid\":{tid},\
                     \"ts\":{},\"name\":\"{}\"",
                    ts_us(e.first_ns),
                    escape(&name)
                ),
            );
            push_obj(
                &mut out,
                &format!(
                    "\"ph\":\"e\",\"cat\":\"span\",\"id\":{span},\"pid\":{pid},\"tid\":{tid},\
                     \"ts\":{},\"name\":\"{}\"",
                    ts_us(e.last_ns),
                    escape(&name)
                ),
            );
        }

        // Instants + flow arrows for parent links.
        let mut arrows = 0u64;
        for ev in &events {
            let tid = tid_of(&ev.node);
            let name = if ev.tag.is_empty() {
                ev.kind.clone()
            } else {
                format!("{} {}", ev.kind, ev.tag)
            };
            let mut args = format!("\"aux\":{}", ev.aux);
            if let Some(p) = ev.pkt {
                let _ = write!(args, ",\"pkt\":{p}");
            }
            if let Some(f) = ev.flow {
                let _ = write!(args, ",\"flow\":{f}");
            }
            if !ev.link.is_empty() {
                let _ = write!(args, ",\"link\":\"{}\"", escape(&ev.link));
            }
            if let Some(s) = ev.span {
                let _ = write!(args, ",\"span\":{s}");
            }
            if let Some(p) = ev.parent {
                let _ = write!(args, ",\"parent\":{p}");
            }
            push_obj(
                &mut out,
                &format!(
                    "\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\
                     \"name\":\"{}\",\"args\":{{{args}}}",
                    ts_us(ev.at_ns),
                    escape(&name)
                ),
            );
            // Flow arrow: parent span's first event → this event.
            if let Some(parent) = ev.parent {
                if let Some(&i) = by_span.get(&parent) {
                    let (_, pe) = &extents[i];
                    arrows += 1;
                    // Unique arrow id within the run; runs are separate pids.
                    let id = format!("{}.{arrows}", parent);
                    push_obj(
                        &mut out,
                        &format!(
                            "\"ph\":\"s\",\"cat\":\"cause\",\"id\":\"{id}\",\"pid\":{pid},\
                             \"tid\":{},\"ts\":{},\"name\":\"cause\"",
                            tid_of(pe.first_node),
                            ts_us(pe.first_ns)
                        ),
                    );
                    push_obj(
                        &mut out,
                        &format!(
                            "\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"cause\",\"id\":\"{id}\",\
                             \"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"cause\"",
                            ts_us(ev.at_ns)
                        ),
                    );
                }
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::DumpRecord;

    fn ev(
        at_ns: u64,
        kind: &str,
        node: &str,
        pkt: Option<u64>,
        span: Option<u64>,
        parent: Option<u64>,
    ) -> DumpRecord {
        DumpRecord::Event(DumpEvent {
            at_ns,
            kind: kind.into(),
            pkt,
            node: node.into(),
            span,
            parent,
            ..DumpEvent::default()
        })
    }

    #[test]
    fn export_links_the_causal_chain() {
        let dump = RunDump {
            label: "fig/run".into(),
            records: vec![
                ev(1_000, "fault", "", None, Some(2), None),
                ev(201_000, "detect", "SW7", None, Some(4), Some(2)),
                ev(1_201_000, "reencode", "E_1", None, Some(6), Some(4)),
                ev(1_300_000, "stamp", "E_1", Some(9), Some(19), Some(6)),
                ev(1_310_000, "hop", "SW7", Some(9), Some(19), None),
                ev(1_320_000, "deliver", "E_2", Some(9), Some(19), None),
            ],
        };
        let json = trace_json(&[dump]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        // The run names its process; nodes name threads.
        assert!(json.contains("\"name\":\"fig/run\""));
        assert!(json.contains("\"name\":\"SW7\""));
        // The packet span (3 events) becomes an async slice.
        assert!(json.contains("\"ph\":\"b\",\"cat\":\"span\",\"id\":19"));
        assert!(json.contains("\"ph\":\"e\",\"cat\":\"span\",\"id\":19"));
        // Every parent link becomes a flow arrow pair.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 3);
        // Balanced braces ⇒ at least structurally sound JSON.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        // Timestamps are µs with the ns digits preserved.
        assert!(json.contains("\"ts\":201.000"));
    }

    #[test]
    fn empty_dumps_export_an_empty_trace() {
        assert!(trace_json(&[]).starts_with("{\"traceEvents\":[]"));
    }
}
