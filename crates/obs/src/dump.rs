//! Dump format: flat JSON lines, one record per line.
//!
//! Every line carries a `"run"` label so dumps from many runs can share
//! one file; `kar-bench inspect` groups them back. Entities are resolved to
//! human names (`node:SW7`, `link:SW7-SW13`) at dump time via a
//! [`TopoLabeler`], so the reader never needs the topology. Lines are
//! written and read through [`crate::json`].
//!
//! A traced event has one definition, [`DumpEvent`]: an `event` line is
//! its ten members, and a flight-recorder `fevent` line is the same ten
//! behind the capture index and section it belongs to. A field added to
//! [`DumpEvent`] — its conversion, writer and reader — reaches both line
//! types and every reader of either.

use std::collections::HashMap;
use std::io::{self, BufRead};

use kar_topology::{LinkId, NodeId, Topology};

use crate::events::Event;
use crate::json::{json_f64, Json, Obj};
use crate::metrics::{Entity, HistSnapshot};
use crate::profile::ProfileRow;

/// Resolves raw entity indexes to topology names at dump time.
#[derive(Debug, Clone, Default)]
pub struct TopoLabeler {
    nodes: Vec<String>,
    links: Vec<String>,
}

impl TopoLabeler {
    /// A labeler for `topo`: nodes by name, links as `A-B`.
    pub fn new(topo: &Topology) -> Self {
        let nodes: Vec<String> = (0..topo.node_count())
            .map(|i| topo.node(NodeId(i)).name.clone())
            .collect();
        let links = (0..topo.link_count())
            .map(|i| {
                let l = topo.link(LinkId(i));
                format!("{}-{}", nodes[l.a.0], nodes[l.b.0])
            })
            .collect();
        TopoLabeler { nodes, links }
    }

    /// A labeler with no topology: falls back to numeric names.
    pub fn anonymous() -> Self {
        TopoLabeler::default()
    }

    /// Name of node `i` (`node7` when unknown).
    pub fn node(&self, i: u32) -> String {
        self.nodes
            .get(i as usize)
            .cloned()
            .unwrap_or_else(|| format!("node{i}"))
    }

    /// Name of link `i` (`link4` when unknown).
    pub fn link(&self, i: u32) -> String {
        self.links
            .get(i as usize)
            .cloned()
            .unwrap_or_else(|| format!("link{i}"))
    }

    /// Stable label of `e` (`global`, `node:SW7`, `link:SW7-SW13`,
    /// `flow:3`, `pair:AS1>AS9`).
    pub fn entity(&self, e: Entity) -> String {
        match e {
            Entity::Global => "global".to_string(),
            Entity::Node(i) => format!("node:{}", self.node(i)),
            Entity::Link(i) => format!("link:{}", self.link(i)),
            Entity::Flow(i) => format!("flow:{i}"),
            Entity::Pair(s, d) => format!("pair:{}>{}", self.node(s), self.node(d)),
        }
    }
}

/// One parsed (or to-be-written) dump line, minus its run label.
#[derive(Debug, Clone, PartialEq)]
pub enum DumpRecord {
    /// A counter read-out.
    Counter {
        /// Labeled entity (`node:SW7`, …).
        entity: String,
        /// Metric name.
        metric: String,
        /// Final value.
        value: u64,
    },
    /// A gauge read-out.
    Gauge {
        /// Labeled entity.
        entity: String,
        /// Metric name.
        metric: String,
        /// Final value.
        value: i64,
        /// High-water mark.
        max: i64,
    },
    /// A histogram read-out.
    Hist {
        /// Labeled entity.
        entity: String,
        /// Metric name.
        metric: String,
        /// Recorded values.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Smallest recorded value.
        min: u64,
        /// Largest recorded value.
        max: u64,
        /// Non-empty `(bucket lower bound, count)` pairs.
        buckets: Vec<(u64, u64)>,
    },
    /// A time-series read-out.
    Series {
        /// Labeled entity.
        entity: String,
        /// Metric name.
        metric: String,
        /// `(t_ns, value)` samples.
        samples: Vec<(u64, f64)>,
    },
    /// One traced event (an `event` line).
    Event(DumpEvent),
    /// Event-ring occupancy for the run: total pushed, evicted by the
    /// bound, and the configured capacity.
    Ring {
        /// Events ever pushed.
        pushed: u64,
        /// Events evicted by the ring bound.
        evicted: u64,
        /// Ring capacity.
        cap: u64,
    },
    /// Flight-recorder capture header; its events follow as
    /// [`DumpRecord::ForensicEvent`] lines sharing the capture index.
    Forensic {
        /// Capture index within the run.
        capture: u64,
        /// Trigger name (`loop`, `blackhole`, …).
        trigger: String,
        /// Trigger time (ns).
        at_ns: u64,
        /// Offending packet, if any.
        pkt: Option<u64>,
        /// Ring evictions at capture time.
        evicted: u64,
        /// Captures suppressed by the recorder bounds (whole run).
        suppressed: u64,
    },
    /// One event frozen inside a forensic capture (an `fevent` line).
    ForensicEvent {
        /// Capture index this event belongs to.
        capture: u64,
        /// `"chain"` (causal chain) or `"recent"` (ring window).
        section: String,
        /// The event.
        event: DumpEvent,
    },
    /// One profiler row.
    Profile {
        /// Event-type label.
        label: String,
        /// Events dispatched.
        count: u64,
        /// Total self-time in nanoseconds.
        total_ns: u64,
        /// Slowest dispatch in nanoseconds.
        max_ns: u64,
    },
    /// The run's one-line summary: the members of the experiment's own
    /// record (the line it also writes to its document), in order.
    Summary {
        /// `(name, value)` members.
        fields: Vec<(String, Json)>,
    },
}

/// One traced event as a dump carries it: the body of an `event` line
/// ([`DumpRecord::Event`]) and of an `fevent` line
/// ([`DumpRecord::ForensicEvent`]) alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DumpEvent {
    /// Simulation time in nanoseconds.
    pub at_ns: u64,
    /// Event kind name (see `EventKind::as_str`).
    pub kind: String,
    /// Packet span id, if any.
    pub pkt: Option<u64>,
    /// Flow id, if any.
    pub flow: Option<u64>,
    /// Node name ("" when not applicable).
    pub node: String,
    /// Link name ("" when not applicable).
    pub link: String,
    /// Kind-specific scalar.
    pub aux: u64,
    /// Kind-specific label.
    pub tag: String,
    /// Causal span id, if any.
    pub span: Option<u64>,
    /// Parent span id, if any.
    pub parent: Option<u64>,
}

impl DumpEvent {
    /// `ev` with its node and link named by `labeler` (`""` when absent).
    pub fn labeled(ev: &Event, labeler: &TopoLabeler) -> Self {
        DumpEvent {
            at_ns: ev.at_ns,
            kind: ev.kind.as_str().to_string(),
            pkt: ev.pkt,
            flow: ev.flow.map(u64::from),
            node: ev.node.map(|n| labeler.node(n)).unwrap_or_default(),
            link: ev.link.map(|l| labeler.link(l)).unwrap_or_default(),
            aux: ev.aux,
            tag: ev.tag.to_string(),
            span: ev.span,
            parent: ev.parent,
        }
    }

    /// Appends the ten members to `obj` in line order; an absent id is
    /// `null`.
    fn write(&self, obj: Obj) -> Obj {
        obj.num("at_ns", self.at_ns)
            .str("kind", &self.kind)
            .num("pkt", or_null(self.pkt))
            .num("flow", or_null(self.flow))
            .str("node", &self.node)
            .str("link", &self.link)
            .num("aux", self.aux)
            .str("tag", &self.tag)
            .num("span", or_null(self.span))
            .num("parent", or_null(self.parent))
    }

    /// Reads the ten members of a parsed line.
    fn read(m: &Members) -> Self {
        DumpEvent {
            at_ns: m.u64("at_ns"),
            kind: m.text("kind"),
            pkt: m.opt_u64("pkt"),
            flow: m.opt_u64("flow"),
            node: m.text("node"),
            link: m.text("link"),
            aux: m.u64("aux"),
            tag: m.text("tag"),
            span: m.opt_u64("span"),
            parent: m.opt_u64("parent"),
        }
    }
}

/// Everything one run dumped, under one label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDump {
    /// The run label (e.g. `fig_dynamic/single/hp`).
    pub label: String,
    /// Records in dump order.
    pub records: Vec<DumpRecord>,
}

impl RunDump {
    /// Builds a dump from a run's [`Obs`](crate::Obs) bundle: the
    /// metrics snapshot first, then events in time order, `profile`'s
    /// rows, ring occupancy and the flight-recorder captures.
    pub fn collect(
        label: &str,
        obs: &crate::Obs,
        profile: &[ProfileRow],
        labeler: &TopoLabeler,
    ) -> Self {
        let snap = obs.metrics.snapshot();
        let mut records = Vec::new();
        for (e, metric, value) in &snap.counters {
            records.push(DumpRecord::Counter {
                entity: labeler.entity(*e),
                metric: metric.clone(),
                value: *value,
            });
        }
        for (e, metric, value, max) in &snap.gauges {
            records.push(DumpRecord::Gauge {
                entity: labeler.entity(*e),
                metric: metric.clone(),
                value: *value,
                max: *max,
            });
        }
        for h in &snap.histograms {
            let HistSnapshot {
                entity,
                metric,
                count,
                sum,
                min,
                max,
                buckets,
            } = h;
            records.push(DumpRecord::Hist {
                entity: labeler.entity(*entity),
                metric: metric.clone(),
                count: *count,
                sum: *sum,
                min: *min,
                max: *max,
                buckets: buckets.clone(),
            });
        }
        for (e, metric, samples) in &snap.series {
            records.push(DumpRecord::Series {
                entity: labeler.entity(*e),
                metric: metric.clone(),
                samples: samples.clone(),
            });
        }
        for ev in &obs.events.events() {
            records.push(DumpRecord::Event(DumpEvent::labeled(ev, labeler)));
        }
        for r in profile {
            records.push(DumpRecord::Profile {
                label: r.label.to_string(),
                count: r.count,
                total_ns: r.total_ns,
                max_ns: r.max_ns,
            });
        }
        records.push(DumpRecord::Ring {
            pushed: obs.events.pushed(),
            evicted: obs.events.evicted(),
            cap: obs.events.capacity() as u64,
        });
        let suppressed = obs.forensics.suppressed();
        for (i, c) in obs.forensics.captures().iter().enumerate() {
            let capture = i as u64;
            records.push(DumpRecord::Forensic {
                capture,
                trigger: c.trigger.to_string(),
                at_ns: c.at_ns,
                pkt: c.pkt,
                evicted: c.evicted,
                suppressed,
            });
            for (section, evs) in [("chain", &c.chain), ("recent", &c.recent)] {
                for ev in evs {
                    records.push(DumpRecord::ForensicEvent {
                        capture,
                        section: section.to_string(),
                        event: DumpEvent::labeled(ev, labeler),
                    });
                }
            }
        }
        RunDump {
            label: label.to_string(),
            records,
        }
    }

    /// The run's `event` records, in dump order.
    pub fn events(&self) -> impl Iterator<Item = &DumpEvent> {
        self.records.iter().filter_map(|r| match r {
            DumpRecord::Event(event) => Some(event),
            _ => None,
        })
    }

    /// Serializes to JSON lines (one per record, each carrying the run
    /// label), ending with a trailing newline when non-empty.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&record_line(&self.label, r));
            out.push('\n');
        }
        out
    }
}

fn record_line(run: &str, r: &DumpRecord) -> String {
    let head = |kind: &str| Obj::new().str("run", run).str("type", kind);
    match r {
        DumpRecord::Counter {
            entity,
            metric,
            value,
        } => head("counter")
            .str("entity", entity)
            .str("metric", metric)
            .num("value", value),
        DumpRecord::Gauge {
            entity,
            metric,
            value,
            max,
        } => head("gauge")
            .str("entity", entity)
            .str("metric", metric)
            .num("value", value)
            .num("max", max),
        DumpRecord::Hist {
            entity,
            metric,
            count,
            sum,
            min,
            max,
            buckets,
        } => {
            let packed: Vec<String> = buckets.iter().map(|(lo, c)| format!("{lo}:{c}")).collect();
            head("hist")
                .str("entity", entity)
                .str("metric", metric)
                .num("count", count)
                .num("sum", sum)
                .num("min", min)
                .num("max", max)
                .str("buckets", &packed.join(";"))
        }
        DumpRecord::Series {
            entity,
            metric,
            samples,
        } => {
            let packed: Vec<String> = samples
                .iter()
                .map(|(t, v)| format!("{t}:{}", json_f64(*v)))
                .collect();
            head("series")
                .str("entity", entity)
                .str("metric", metric)
                .str("samples", &packed.join(";"))
        }
        DumpRecord::Event(event) => event.write(head("event")),
        DumpRecord::ForensicEvent {
            capture,
            section,
            event,
        } => event.write(
            head("fevent")
                .num("capture", capture)
                .str("section", section),
        ),
        DumpRecord::Ring {
            pushed,
            evicted,
            cap,
        } => head("ring")
            .num("pushed", pushed)
            .num("evicted", evicted)
            .num("cap", cap),
        DumpRecord::Forensic {
            capture,
            trigger,
            at_ns,
            pkt,
            evicted,
            suppressed,
        } => head("forensic")
            .num("capture", capture)
            .str("trigger", trigger)
            .num("at_ns", at_ns)
            .num("pkt", or_null(*pkt))
            .num("evicted", evicted)
            .num("suppressed", suppressed),
        DumpRecord::Profile {
            label,
            count,
            total_ns,
            max_ns,
        } => head("profile")
            .str("label", label)
            .num("count", count)
            .num("total_ns", total_ns)
            .num("max_ns", max_ns),
        DumpRecord::Summary { fields } => fields
            .iter()
            .fold(head("summary"), |obj, (name, value)| obj.raw(name, value)),
    }
    .finish()
}

/// `v`, or `null` when absent.
fn or_null(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

/// A dump value as text: strings as they are, numbers as written.
fn text_of(v: &Json) -> &str {
    match v {
        Json::Str(s) | Json::Num(s) => s,
        _ => "",
    }
}

/// A parsed line's members, read leniently: an absent or mistyped
/// member reads as `""`, `0` or `None`.
struct Members(Json);

impl Members {
    fn text(&self, k: &str) -> String {
        self.0.get(k).map(text_of).unwrap_or_default().to_string()
    }

    fn opt_u64(&self, k: &str) -> Option<u64> {
        // Scientific notation (a foreign writer's) falls back through f64.
        let v = self.0.get(k)?;
        v.as_num().or_else(|| v.as_f64().map(|f| f as u64))
    }

    fn u64(&self, k: &str) -> u64 {
        self.opt_u64(k).unwrap_or(0)
    }

    fn i64(&self, k: &str) -> i64 {
        self.0.get(k).and_then(Json::as_num).unwrap_or(0)
    }
}

fn parse_pairs_u64(packed: &str) -> Vec<(u64, u64)> {
    packed
        .split(';')
        .filter(|s| !s.is_empty())
        .filter_map(|s| {
            let (a, b) = s.split_once(':')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect()
}

fn parse_pairs_f64(packed: &str) -> Vec<(u64, f64)> {
    packed
        .split(';')
        .filter(|s| !s.is_empty())
        .filter_map(|s| {
            let (a, b) = s.split_once(':')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect()
}

/// Parses one dump line into `(run label, record)`. Lines that are not
/// dump records yield `None`.
pub fn parse_line(line: &str) -> Option<(String, DumpRecord)> {
    let m = Members(Json::parse(line).ok()?);
    let run = text_of(m.0.get("run")?).to_string();
    let rec = match text_of(m.0.get("type")?) {
        "counter" => DumpRecord::Counter {
            entity: m.text("entity"),
            metric: m.text("metric"),
            value: m.u64("value"),
        },
        "gauge" => DumpRecord::Gauge {
            entity: m.text("entity"),
            metric: m.text("metric"),
            value: m.i64("value"),
            max: m.i64("max"),
        },
        "hist" => DumpRecord::Hist {
            entity: m.text("entity"),
            metric: m.text("metric"),
            count: m.u64("count"),
            sum: m.u64("sum"),
            min: m.u64("min"),
            max: m.u64("max"),
            buckets: parse_pairs_u64(&m.text("buckets")),
        },
        "series" => DumpRecord::Series {
            entity: m.text("entity"),
            metric: m.text("metric"),
            samples: parse_pairs_f64(&m.text("samples")),
        },
        "event" => DumpRecord::Event(DumpEvent::read(&m)),
        "ring" => DumpRecord::Ring {
            pushed: m.u64("pushed"),
            evicted: m.u64("evicted"),
            cap: m.u64("cap"),
        },
        "forensic" => DumpRecord::Forensic {
            capture: m.u64("capture"),
            trigger: m.text("trigger"),
            at_ns: m.u64("at_ns"),
            pkt: m.opt_u64("pkt"),
            evicted: m.u64("evicted"),
            suppressed: m.u64("suppressed"),
        },
        "fevent" => DumpRecord::ForensicEvent {
            capture: m.u64("capture"),
            section: m.text("section"),
            event: DumpEvent::read(&m),
        },
        "profile" => DumpRecord::Profile {
            label: m.text("label"),
            count: m.u64("count"),
            total_ns: m.u64("total_ns"),
            max_ns: m.u64("max_ns"),
        },
        "summary" => DumpRecord::Summary {
            fields: m
                .0
                .as_obj()?
                .iter()
                .filter(|(k, _)| k != "run" && k != "type")
                .cloned()
                .collect(),
        },
        _ => return None,
    };
    Some((run, rec))
}

/// Reads a dump stream back into per-run groups, preserving first-seen
/// run order and per-run record order. Unparseable lines are skipped.
pub fn read_dumps<R: BufRead>(reader: R) -> io::Result<Vec<RunDump>> {
    let mut order: Vec<String> = Vec::new();
    let mut by_run: HashMap<String, Vec<DumpRecord>> = HashMap::new();
    for line in reader.lines() {
        let line = line?;
        if let Some((run, rec)) = parse_line(&line) {
            if !by_run.contains_key(&run) {
                order.push(run.clone());
            }
            by_run.entry(run).or_default().push(rec);
        }
    }
    Ok(order
        .into_iter()
        .map(|label| {
            let records = by_run.remove(&label).unwrap_or_default();
            RunDump { label, records }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    #[test]
    fn dump_round_trips_through_lines() {
        let obs = crate::Obs::new();
        obs.metrics.counter(Entity::Node(0), "deflect.hp").add(3);
        obs.metrics.gauge(Entity::Link(1), "queue").set(-2);
        obs.metrics
            .histogram(Entity::Flow(7), "latency_ns")
            .observe(12345);
        obs.metrics.series(Entity::Link(1), "util").sample(10, 0.5);
        let mut ev = Event::new(42, EventKind::Deflect);
        ev.pkt = Some(9);
        ev.flow = Some(7);
        ev.node = Some(0);
        ev.tag = "hp";
        ev.span = Some(crate::span::pkt_span(9));
        obs.events.push(ev);
        obs.forensics.capture("loop", 50, Some(9), &obs.events);
        let profile = vec![ProfileRow {
            label: "arrive",
            count: 4,
            total_ns: 1000,
            max_ns: 400,
        }];
        let dump = RunDump::collect(
            "test/run \"quoted\"",
            &obs,
            &profile,
            &TopoLabeler::anonymous(),
        );
        let fevents = dump
            .records
            .iter()
            .filter(|r| matches!(r, DumpRecord::ForensicEvent { .. }))
            .count();
        assert_eq!((dump.events().count(), fevents), (1, 2), "{dump:?}");
        let lines = dump.to_lines();
        let back = read_dumps(lines.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], dump);
    }

    #[test]
    fn span_ring_and_forensic_records_round_trip() {
        let dump = RunDump {
            label: "r".into(),
            records: vec![
                DumpRecord::Event(DumpEvent {
                    at_ns: 10,
                    kind: "detect".into(),
                    node: "SW7".into(),
                    link: "SW7-SW13".into(),
                    aux: 1,
                    tag: "down".into(),
                    span: Some(4),
                    parent: Some(2),
                    ..DumpEvent::default()
                }),
                DumpRecord::Ring {
                    pushed: 100,
                    evicted: 36,
                    cap: 64,
                },
                DumpRecord::Forensic {
                    capture: 0,
                    trigger: "loop".into(),
                    at_ns: 999,
                    pkt: Some(7),
                    evicted: 36,
                    suppressed: 3,
                },
                DumpRecord::ForensicEvent {
                    capture: 0,
                    section: "chain".into(),
                    event: DumpEvent {
                        at_ns: 10,
                        kind: "fault".into(),
                        link: "SW7-SW13".into(),
                        tag: "down".into(),
                        span: Some(2),
                        ..DumpEvent::default()
                    },
                },
                DumpRecord::Summary {
                    fields: vec![
                        ("experiment".into(), Json::Str("fig5".into())),
                        ("seed".into(), Json::Num(u64::MAX.to_string())),
                        ("mean_hops".into(), Json::Num("8.607294317217981".into())),
                        ("latency".into(), Json::Null),
                    ],
                },
            ],
        };
        let back = read_dumps(dump.to_lines().as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], dump);
    }

    /// The line format itself, not only its round trip: one line of
    /// each record type, byte for byte.
    #[test]
    fn every_record_type_keeps_its_line_bytes() {
        let records = vec![
            DumpRecord::Counter {
                entity: "node:SW7".into(),
                metric: "deflect.hp".into(),
                value: 3,
            },
            DumpRecord::Gauge {
                entity: "link:SW7-SW13".into(),
                metric: "queue".into(),
                value: -2,
                max: 5,
            },
            DumpRecord::Hist {
                entity: "flow:7".into(),
                metric: "latency_ns".into(),
                count: 2,
                sum: 300,
                min: 100,
                max: 200,
                buckets: vec![(96, 1), (192, 1)],
            },
            DumpRecord::Series {
                entity: "link:SW7-SW13".into(),
                metric: "util".into(),
                samples: vec![(10, 0.5), (20, 1.0)],
            },
            DumpRecord::Event(DumpEvent {
                at_ns: 42,
                kind: "deflect".into(),
                pkt: Some(9),
                flow: Some(7),
                node: "SW7".into(),
                aux: 2,
                tag: "hp".into(),
                span: Some(19),
                ..DumpEvent::default()
            }),
            DumpRecord::Ring {
                pushed: 100,
                evicted: 36,
                cap: 64,
            },
            DumpRecord::Forensic {
                capture: 0,
                trigger: "loop".into(),
                at_ns: 999,
                pkt: Some(7),
                evicted: 36,
                suppressed: 3,
            },
            DumpRecord::ForensicEvent {
                capture: 0,
                section: "chain".into(),
                event: DumpEvent {
                    at_ns: 10,
                    kind: "fault".into(),
                    link: "SW7-SW13".into(),
                    tag: "down".into(),
                    span: Some(2),
                    ..DumpEvent::default()
                },
            },
            DumpRecord::Profile {
                label: "arrive".into(),
                count: 4,
                total_ns: 1000,
                max_ns: 400,
            },
            DumpRecord::Summary {
                fields: vec![
                    ("experiment".into(), Json::Str("fig5".into())),
                    ("seed".into(), Json::Num(u64::MAX.to_string())),
                    ("latency".into(), Json::Null),
                ],
            },
        ];
        let dump = RunDump {
            label: "fig/\"q\"".into(),
            records,
        };
        let text = dump.to_lines();
        let expected = [
            r#"{"run":"fig/\"q\"","type":"counter","entity":"node:SW7","metric":"deflect.hp","value":3}"#,
            r#"{"run":"fig/\"q\"","type":"gauge","entity":"link:SW7-SW13","metric":"queue","value":-2,"max":5}"#,
            r#"{"run":"fig/\"q\"","type":"hist","entity":"flow:7","metric":"latency_ns","count":2,"sum":300,"min":100,"max":200,"buckets":"96:1;192:1"}"#,
            r#"{"run":"fig/\"q\"","type":"series","entity":"link:SW7-SW13","metric":"util","samples":"10:0.5;20:1"}"#,
            r#"{"run":"fig/\"q\"","type":"event","at_ns":42,"kind":"deflect","pkt":9,"flow":7,"node":"SW7","link":"","aux":2,"tag":"hp","span":19,"parent":null}"#,
            r#"{"run":"fig/\"q\"","type":"ring","pushed":100,"evicted":36,"cap":64}"#,
            r#"{"run":"fig/\"q\"","type":"forensic","capture":0,"trigger":"loop","at_ns":999,"pkt":7,"evicted":36,"suppressed":3}"#,
            r#"{"run":"fig/\"q\"","type":"fevent","capture":0,"section":"chain","at_ns":10,"kind":"fault","pkt":null,"flow":null,"node":"","link":"SW7-SW13","aux":0,"tag":"down","span":2,"parent":null}"#,
            r#"{"run":"fig/\"q\"","type":"profile","label":"arrive","count":4,"total_ns":1000,"max_ns":400}"#,
            r#"{"run":"fig/\"q\"","type":"summary","experiment":"fig5","seed":18446744073709551615,"latency":null}"#,
        ];
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        assert!(text.ends_with('\n'));
        assert_eq!(read_dumps(text.as_bytes()).unwrap(), vec![dump]);
    }

    #[test]
    fn u64_extremes_survive_the_parser() {
        let dump = RunDump {
            label: "r".into(),
            records: vec![DumpRecord::Hist {
                entity: "global".into(),
                metric: "m".into(),
                count: 1,
                sum: u64::MAX,
                min: u64::MAX,
                max: u64::MAX,
                buckets: vec![(u64::MAX - 1, 1)],
            }],
        };
        let back = read_dumps(dump.to_lines().as_bytes()).unwrap();
        assert_eq!(back[0], dump);
    }

    #[test]
    fn a_foreign_writers_scientific_notation_reads_back() {
        let text = "{\"run\":\"a\",\"type\":\"counter\",\"entity\":\"global\",\"metric\":\"x\",\"value\":1.5e3}\n\
                    {\"run\":\"a\",\"type\":\"forensic\",\"capture\":0,\"trigger\":\"loop\",\"at_ns\":2E6,\"pkt\":1.5e3,\"evicted\":0,\"suppressed\":0}\n";
        let dumps = read_dumps(text.as_bytes()).unwrap();
        assert_eq!(
            dumps[0].records,
            vec![
                DumpRecord::Counter {
                    entity: "global".into(),
                    metric: "x".into(),
                    value: 1500,
                },
                DumpRecord::Forensic {
                    capture: 0,
                    trigger: "loop".into(),
                    at_ns: 2_000_000,
                    pkt: Some(1500),
                    evicted: 0,
                    suppressed: 0,
                },
            ]
        );
    }

    #[test]
    fn foreign_lines_are_skipped() {
        let text = "{\"type\":\"run\",\"experiment\":\"fig4\"}\nnot json\n\
                    {\"run\":\"a\",\"type\":\"counter\",\"entity\":\"global\",\"metric\":\"x\",\"value\":1}\n";
        let dumps = read_dumps(text.as_bytes()).unwrap();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].label, "a");
        assert_eq!(dumps[0].records.len(), 1);
    }

    #[test]
    fn labeler_falls_back_on_unknown_ids() {
        let l = TopoLabeler::anonymous();
        assert_eq!(l.entity(Entity::Node(3)), "node:node3");
        assert_eq!(l.entity(Entity::Link(0)), "link:link0");
        assert_eq!(l.entity(Entity::Global), "global");
        assert_eq!(l.entity(Entity::Pair(1, 2)), "pair:node1>node2");
    }
}
