//! Dump format: flat JSON lines, one record per line.
//!
//! Every line carries a `"run"` label so dumps from many runs can share
//! one file; `kar-bench inspect` groups them back. Entities are resolved to
//! human names (`node:SW7`, `link:SW7-SW13`) at dump time via a
//! [`TopoLabeler`], so the reader never needs the topology. Lines are
//! written and read through [`crate::json`].

use std::collections::HashMap;
use std::io::{self, BufRead};

use kar_topology::{LinkId, NodeId, Topology};

use crate::events::Event;
use crate::json::{json_f64, Json, Obj};
use crate::metrics::{Entity, HistSnapshot, MetricsSnapshot};
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
    /// One traced event.
    Event {
        /// Simulation time in nanoseconds.
        at_ns: u64,
        /// Event kind name (see `EventKind::as_str`).
        kind: String,
        /// Packet span id, if any.
        pkt: Option<u64>,
        /// Flow id, if any.
        flow: Option<u64>,
        /// Node name ("" when not applicable).
        node: String,
        /// Link name ("" when not applicable).
        link: String,
        /// Kind-specific scalar.
        aux: u64,
        /// Kind-specific label.
        tag: String,
        /// Causal span id, if any.
        span: Option<u64>,
        /// Parent span id, if any.
        parent: Option<u64>,
    },
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
    /// One event frozen inside a forensic capture.
    ForensicEvent {
        /// Capture index this event belongs to.
        capture: u64,
        /// `"chain"` (causal chain) or `"recent"` (ring window).
        section: String,
        /// Simulation time in nanoseconds.
        at_ns: u64,
        /// Event kind name.
        kind: String,
        /// Packet id, if any.
        pkt: Option<u64>,
        /// Flow id, if any.
        flow: Option<u64>,
        /// Node name ("" when not applicable).
        node: String,
        /// Link name ("" when not applicable).
        link: String,
        /// Kind-specific scalar.
        aux: u64,
        /// Kind-specific label.
        tag: String,
        /// Causal span id, if any.
        span: Option<u64>,
        /// Parent span id, if any.
        parent: Option<u64>,
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

/// Everything one run dumped, under one label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDump {
    /// The run label (e.g. `fig_dynamic/single/hp`).
    pub label: String,
    /// Records in dump order.
    pub records: Vec<DumpRecord>,
}

impl RunDump {
    /// Builds a dump from live observations: metrics snapshot first,
    /// then events in time order, then profiler rows.
    pub fn collect(
        label: &str,
        snap: &MetricsSnapshot,
        events: &[Event],
        profile: &[ProfileRow],
        labeler: &TopoLabeler,
    ) -> Self {
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
        for ev in events {
            records.push(DumpRecord::Event {
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
            });
        }
        for r in profile {
            records.push(DumpRecord::Profile {
                label: r.label.to_string(),
                count: r.count,
                total_ns: r.total_ns,
                max_ns: r.max_ns,
            });
        }
        RunDump {
            label: label.to_string(),
            records,
        }
    }

    /// Builds a dump from a whole [`Obs`](crate::Obs) bundle: metrics,
    /// events, ring occupancy and flight-recorder captures.
    pub fn collect_obs(
        label: &str,
        obs: &crate::Obs,
        profile: &[ProfileRow],
        labeler: &TopoLabeler,
    ) -> Self {
        let mut dump = Self::collect(
            label,
            &obs.metrics.snapshot(),
            &obs.events.events(),
            profile,
            labeler,
        );
        dump.records.push(DumpRecord::Ring {
            pushed: obs.events.pushed(),
            evicted: obs.events.evicted(),
            cap: obs.events.capacity() as u64,
        });
        let suppressed = obs.forensics.suppressed();
        for (i, c) in obs.forensics.captures().iter().enumerate() {
            let capture = i as u64;
            dump.records.push(DumpRecord::Forensic {
                capture,
                trigger: c.trigger.to_string(),
                at_ns: c.at_ns,
                pkt: c.pkt,
                evicted: c.evicted,
                suppressed,
            });
            for (section, evs) in [("chain", &c.chain), ("recent", &c.recent)] {
                for ev in evs {
                    dump.records.push(DumpRecord::ForensicEvent {
                        capture,
                        section: section.to_string(),
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
                    });
                }
            }
        }
        dump
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
    let opt_num = |v: &Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
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
        DumpRecord::Event {
            at_ns,
            kind,
            pkt,
            flow,
            node,
            link,
            aux,
            tag,
            span,
            parent,
        }
        | DumpRecord::ForensicEvent {
            at_ns,
            kind,
            pkt,
            flow,
            node,
            link,
            aux,
            tag,
            span,
            parent,
            ..
        } => {
            let head = match r {
                DumpRecord::ForensicEvent {
                    capture, section, ..
                } => head("fevent")
                    .num("capture", capture)
                    .str("section", section),
                _ => head("event"),
            };
            head.num("at_ns", at_ns)
                .str("kind", kind)
                .num("pkt", opt_num(pkt))
                .num("flow", opt_num(flow))
                .str("node", node)
                .str("link", link)
                .num("aux", aux)
                .str("tag", tag)
                .num("span", opt_num(span))
                .num("parent", opt_num(parent))
        }
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
            .num("pkt", opt_num(pkt))
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

/// A dump value as text: strings as they are, numbers as written.
fn text_of(v: &Json) -> &str {
    match v {
        Json::Str(s) | Json::Num(s) => s,
        _ => "",
    }
}

fn u64_of(v: &Json) -> Option<u64> {
    // Scientific notation (a foreign writer's) falls back through f64.
    v.as_num().or_else(|| v.as_f64().map(|f| f as u64))
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
    let map = Json::parse(line).ok()?;
    let run = text_of(map.get("run")?).to_string();
    let get = |k: &str| map.get(k).map(text_of).unwrap_or_default().to_string();
    let opt_u64 = |k: &str| map.get(k).and_then(u64_of);
    let get_u64 = |k: &str| opt_u64(k).unwrap_or(0);
    let get_i64 = |k: &str| map.get(k).and_then(Json::as_num).unwrap_or(0);
    let rec = match text_of(map.get("type")?) {
        "counter" => DumpRecord::Counter {
            entity: get("entity"),
            metric: get("metric"),
            value: get_u64("value"),
        },
        "gauge" => DumpRecord::Gauge {
            entity: get("entity"),
            metric: get("metric"),
            value: get_i64("value"),
            max: get_i64("max"),
        },
        "hist" => DumpRecord::Hist {
            entity: get("entity"),
            metric: get("metric"),
            count: get_u64("count"),
            sum: get_u64("sum"),
            min: get_u64("min"),
            max: get_u64("max"),
            buckets: parse_pairs_u64(&get("buckets")),
        },
        "series" => DumpRecord::Series {
            entity: get("entity"),
            metric: get("metric"),
            samples: parse_pairs_f64(&get("samples")),
        },
        "event" => DumpRecord::Event {
            at_ns: get_u64("at_ns"),
            kind: get("kind"),
            pkt: opt_u64("pkt"),
            flow: opt_u64("flow"),
            node: get("node"),
            link: get("link"),
            aux: get_u64("aux"),
            tag: get("tag"),
            span: opt_u64("span"),
            parent: opt_u64("parent"),
        },
        "ring" => DumpRecord::Ring {
            pushed: get_u64("pushed"),
            evicted: get_u64("evicted"),
            cap: get_u64("cap"),
        },
        "forensic" => DumpRecord::Forensic {
            capture: get_u64("capture"),
            trigger: get("trigger"),
            at_ns: get_u64("at_ns"),
            pkt: opt_u64("pkt"),
            evicted: get_u64("evicted"),
            suppressed: get_u64("suppressed"),
        },
        "fevent" => DumpRecord::ForensicEvent {
            capture: get_u64("capture"),
            section: get("section"),
            at_ns: get_u64("at_ns"),
            kind: get("kind"),
            pkt: opt_u64("pkt"),
            flow: opt_u64("flow"),
            node: get("node"),
            link: get("link"),
            aux: get_u64("aux"),
            tag: get("tag"),
            span: opt_u64("span"),
            parent: opt_u64("parent"),
        },
        "profile" => DumpRecord::Profile {
            label: get("label"),
            count: get_u64("count"),
            total_ns: get_u64("total_ns"),
            max_ns: get_u64("max_ns"),
        },
        "summary" => DumpRecord::Summary {
            fields: map
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
    use crate::metrics::MetricsRegistry;

    #[test]
    fn dump_round_trips_through_lines() {
        let reg = MetricsRegistry::new();
        reg.counter(Entity::Node(0), "deflect.hp").add(3);
        reg.gauge(Entity::Link(1), "queue").set(-2);
        reg.histogram(Entity::Flow(7), "latency_ns").observe(12345);
        reg.series(Entity::Link(1), "util").sample(10, 0.5);
        let mut ev = Event::new(42, EventKind::Deflect);
        ev.pkt = Some(9);
        ev.flow = Some(7);
        ev.node = Some(0);
        ev.tag = "hp";
        let profile = vec![ProfileRow {
            label: "arrive",
            count: 4,
            total_ns: 1000,
            max_ns: 400,
        }];
        let dump = RunDump::collect(
            "test/run \"quoted\"",
            &reg.snapshot(),
            &[ev],
            &profile,
            &TopoLabeler::anonymous(),
        );
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
                DumpRecord::Event {
                    at_ns: 10,
                    kind: "detect".into(),
                    pkt: None,
                    flow: None,
                    node: "SW7".into(),
                    link: "SW7-SW13".into(),
                    aux: 1,
                    tag: "down".into(),
                    span: Some(4),
                    parent: Some(2),
                },
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
                    at_ns: 10,
                    kind: "fault".into(),
                    pkt: None,
                    flow: None,
                    node: String::new(),
                    link: "SW7-SW13".into(),
                    aux: 0,
                    tag: "down".into(),
                    span: Some(2),
                    parent: None,
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
