//! `kar-bench inspect`: renders a `--metrics` dump back into tables.
//!
//! Usage: `kar-bench inspect --dump <dump.jsonl>
//! [--view tables|forensics|json] [--run <substring>] [--pkt <id>]`
//!
//! The dump file holds one or more labeled runs (see `kar_obs::dump`).
//! With no `--run` filter the tool lists every run and renders the
//! first; `--run` selects the first run whose label contains the given
//! substring. For the selected run the `tables` view (the default)
//! prints:
//!
//! - a per-switch table (injected / forwarded / delivered / deflections
//!   by technique),
//! - a link heat summary (bytes, drops, queue high-water mark, hottest
//!   links first),
//! - global counters and histogram summaries (latency, hops, drops by
//!   reason, recovery timings),
//! - one packet's hop timeline (the busiest packet span by default,
//!   `--pkt` to pick another),
//! - the sim profiler table, when the run carried one.
//!
//! `--view forensics` instead renders the flight-recorder captures
//! (anomaly-frozen event windows plus the causal chain from fault to
//! drop, with detection-lag / re-encode-latency / blind-window
//! annotations). `--view json` prints the run list, run summaries and
//! per-switch tables of every run as one machine-readable JSON
//! document. A flag the chosen view does not read is refused: `--run`
//! with `json`, `--pkt` with anything but `tables`.
//!
//! Both text views warn when a run's event ring overflowed
//! (`evicted > 0`): timelines and forensics are then missing their
//! oldest events, and `--events-cap` on the producing experiment raises
//! the ring size.
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use crate::cli::{flag, Args, Experiment};
use kar_obs::json::{Json, Obj};
use kar_obs::{fmt_ns, read_dumps, DumpRecord, RunDump};
use kar_simnet::DropReason;

/// `kar-bench inspect`: reads a finished run's dump, runs nothing.
pub const EXPERIMENT: Experiment = Experiment::new(
    "inspect",
    "A --metrics dump rendered as tables, forensics or JSON",
    &[
        flag("--dump", "", "the dump to read (required)"),
        flag("--view", "tables", "tables|forensics|json"),
        flag("--run", "", "the first run whose label contains this"),
        flag("--pkt", "", "packet whose timeline the tables view shows"),
    ],
    run,
)
.reader();

/// The run's `ring` accounting record: `(pushed, evicted, cap)`.
fn ring_stats(run: &RunDump) -> Option<(u64, u64, u64)> {
    run.records.iter().find_map(|r| match r {
        DumpRecord::Ring {
            pushed,
            evicted,
            cap,
        } => Some((*pushed, *evicted, *cap)),
        _ => None,
    })
}

/// Prominent overflow warning: an overflowed ring means timelines and
/// forensic captures silently lost their oldest events.
fn warn_evicted(run: &RunDump) {
    if let Some((_, evicted, cap)) = ring_stats(run) {
        if evicted > 0 {
            println!(
                "WARNING: run {} overflowed its event ring — {evicted} event(s) evicted \
                 (cap {cap}).",
                run.label
            );
            println!(
                "         Timelines and forensics are missing the oldest events; re-run the \
                 producing binary with --events-cap <n> to keep more."
            );
            println!();
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let Some(path) = args.opt("--dump") else {
        return args.refuse("--dump <path> is required");
    };
    let view: String = args.get("--view");
    let pkt = match args.opt("--pkt") {
        None => None,
        Some(p) => match p.parse::<u64>() {
            Ok(pkt) => Some(pkt),
            Err(_) => return args.refuse(&format!("--pkt takes a number, not {p}")),
        },
    };
    if view == "json" && args.opt("--run").is_some() {
        return args.refuse("--run picks the run of the tables or forensics view, not json");
    }
    if view != "tables" && pkt.is_some() {
        return args.refuse(&format!(
            "--pkt picks a timeline of the tables view, not {view}"
        ));
    }
    let file = match File::open(path) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("kar-bench inspect: cannot open {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let dumps = match read_dumps(BufReader::new(file)) {
        Ok(d) => d,
        Err(err) => {
            eprintln!("kar-bench inspect: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if dumps.is_empty() {
        eprintln!("kar-bench inspect: {path} holds no dump records");
        return ExitCode::FAILURE;
    }
    if view == "json" {
        println!("{}", json_report(path, &dumps));
        return ExitCode::SUCCESS;
    }
    println!("{path}: {} run(s)", dumps.len());
    for d in &dumps {
        let overflow = match ring_stats(d) {
            Some((_, evicted, _)) if evicted > 0 => format!(" [ring evicted {evicted}]"),
            _ => String::new(),
        };
        println!("  {} ({} records){overflow}", d.label, d.records.len());
    }
    println!();
    let selected = match args.opt("--run") {
        Some(needle) => match dumps.iter().find(|d| d.label.contains(needle)) {
            Some(d) => d,
            None => {
                eprintln!("kar-bench inspect: no run label contains {needle:?}");
                return ExitCode::FAILURE;
            }
        },
        None => &dumps[0],
    };
    if view == "forensics" {
        warn_evicted(selected);
        print!("{}", kar_obs::forensics::render_forensics(selected));
        return ExitCode::SUCCESS;
    }
    render(selected, pkt);
    ExitCode::SUCCESS
}

/// The run's `summary` record: its experiment's result line, as members.
fn summary(run: &RunDump) -> Option<&[(String, Json)]> {
    run.records.iter().find_map(|r| match r {
        DumpRecord::Summary { fields } => Some(fields.as_slice()),
        _ => None,
    })
}

/// Machine-readable view of the dump: the run list plus each run's
/// summary, ring accounting and per-switch activity table, as one JSON
/// document (one run per line, one switch per line inside it).
fn json_report(path: &str, dumps: &[RunDump]) -> String {
    let array = |indent: &str, items: Vec<String>| {
        let lines: Vec<String> = items.iter().map(|i| format!("\n{indent}{i}")).collect();
        format!("[{}]", lines.join(","))
    };
    let runs = dumps.iter().map(|d| {
        let switches = switch_counters(d).into_iter().map(|(name, metrics)| {
            let get = |m: &str| metrics.get(m).copied().unwrap_or(0);
            let mut deflect = metrics
                .iter()
                .filter_map(|(m, v)| Some((m.strip_prefix("deflect.")?, v)))
                .peekable();
            let any = deflect.peek().is_some();
            let deflect = deflect.fold(Obj::new(), |o, (technique, v)| o.num(technique, v));
            Obj::new()
                .str("name", name)
                .num("injected", get("injected"))
                .num("forwarded", get("forwarded"))
                .num("delivered", get("delivered"))
                .opt("deflect", any.then(|| deflect.finish()))
                .finish()
        });
        let ring = ring_stats(d).map(|(pushed, evicted, cap)| {
            Obj::new()
                .num("pushed", pushed)
                .num("evicted", evicted)
                .num("cap", cap)
                .finish()
        });
        Obj::new()
            .str("label", &d.label)
            .num("records", d.records.len())
            .opt("summary", summary(d).map(|f| Json::Obj(f.to_vec())))
            .opt("ring", ring)
            .raw("switches", array("  ", switches.collect()))
            .finish()
    });
    Obj::new()
        .str("path", path)
        .raw("runs", array("", runs.collect()))
        .finish()
}

/// Node-scoped counters per switch: `name -> metric -> value`, the
/// shared source for the rendered table and the json view.
fn switch_counters(run: &RunDump) -> BTreeMap<&str, BTreeMap<&str, u64>> {
    let mut nodes: BTreeMap<&str, BTreeMap<&str, u64>> = BTreeMap::new();
    for r in &run.records {
        if let DumpRecord::Counter {
            entity,
            metric,
            value,
        } = r
        {
            if let Some(name) = scoped(entity, "node:") {
                *nodes.entry(name).or_default().entry(metric).or_insert(0) += value;
            }
        }
    }
    nodes
}

fn render(run: &RunDump, pkt: Option<u64>) {
    println!("=== run {} ===", run.label);
    warn_evicted(run);
    if let Some(fields) = summary(run) {
        println!("summary:");
        for (name, value) in fields {
            println!("  {name} = {value}");
        }
        println!();
    }
    render_switch_table(run);
    render_link_heat(run);
    render_drops(run);
    render_global(run);
    render_timeline(run, pkt);
    render_profile(run);
}

/// Drops broken down by the forwarder's exact reason, in
/// [`DropReason::ALL`] declaration order — the engine records one
/// `drop.<reason>` counter per drop, so every reason the dataplane can
/// emit (missing tag, port down, residue out of range, TTL, queue, …)
/// shows up here by name.
fn render_drops(run: &RunDump) {
    let mut by_reason: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &run.records {
        if let DumpRecord::Counter {
            entity,
            metric,
            value,
        } = r
        {
            if entity == "global" {
                if let Some(reason) = metric.strip_prefix("drop.") {
                    *by_reason.entry(reason).or_insert(0) += value;
                }
            }
        }
    }
    if by_reason.is_empty() {
        return;
    }
    let total: u64 = by_reason.values().sum();
    println!("drops by reason ({total} total):");
    println!("| reason | count |");
    println!("|---|---|");
    // Known reasons first, in declaration order; anything the engine
    // invents later still renders (alphabetically) after them.
    for reason in DropReason::ALL {
        if let Some(count) = by_reason.remove(reason.as_str()) {
            println!("| {} | {count} |", reason.as_str());
        }
    }
    for (reason, count) in &by_reason {
        println!("| {reason} | {count} |");
    }
    println!();
}

/// Splits a `node:SW7`-style entity label; `None` for other scopes.
fn scoped<'a>(entity: &'a str, scope: &str) -> Option<&'a str> {
    entity.strip_prefix(scope)
}

fn render_switch_table(run: &RunDump) {
    let nodes = switch_counters(run);
    let mut deflect_cols: Vec<&str> = nodes
        .values()
        .flat_map(|m| m.keys().copied())
        .filter(|m| m.starts_with("deflect."))
        .collect();
    if nodes.is_empty() {
        return;
    }
    deflect_cols.sort_unstable();
    deflect_cols.dedup();
    let mut header = "| switch | injected | forwarded | delivered |".to_string();
    for c in &deflect_cols {
        header.push_str(&format!(" {c} |"));
    }
    println!("per-switch activity:");
    println!("{header}");
    println!("{}", "|---".repeat(4 + deflect_cols.len()) + "|");
    for (name, metrics) in &nodes {
        let get = |m: &str| metrics.get(m).copied().unwrap_or(0);
        let mut row = format!(
            "| {name} | {} | {} | {} |",
            get("injected"),
            get("forwarded"),
            get("delivered")
        );
        for c in &deflect_cols {
            row.push_str(&format!(" {} |", get(c)));
        }
        println!("{row}");
    }
    println!();
}

fn render_link_heat(run: &RunDump) {
    // name -> (bytes, drops, queue high-water).
    let mut links: BTreeMap<&str, (u64, u64, i64)> = BTreeMap::new();
    // Link-scoped counters beyond the traffic trio (e.g. the verifier's
    // per-failed-link `verify.blackhole` / `verify.loop`): name -> metric -> value.
    let mut extra: BTreeMap<&str, BTreeMap<&str, u64>> = BTreeMap::new();
    for r in &run.records {
        match r {
            DumpRecord::Counter {
                entity,
                metric,
                value,
            } => {
                if let Some(name) = scoped(entity, "link:") {
                    let slot = links.entry(name).or_default();
                    match metric.as_str() {
                        "bytes" => slot.0 += value,
                        "drops" => slot.1 += value,
                        _ => *extra.entry(name).or_default().entry(metric).or_insert(0) += value,
                    }
                }
            }
            DumpRecord::Gauge {
                entity,
                metric,
                max,
                ..
            } => {
                if let Some(name) = scoped(entity, "link:") {
                    if metric == "queue" {
                        let slot = links.entry(name).or_default();
                        slot.2 = slot.2.max(*max);
                    }
                }
            }
            _ => {}
        }
    }
    render_link_counters(&extra);
    links.retain(|_, (bytes, drops, queue)| *bytes > 0 || *drops > 0 || *queue > 0);
    if links.is_empty() {
        return;
    }
    let mut rows: Vec<(&str, (u64, u64, i64))> = links.into_iter().collect();
    // Hottest first: bytes, then drops; name breaks ties deterministically.
    rows.sort_by(|a, b| (b.1 .0, b.1 .1).cmp(&(a.1 .0, a.1 .1)).then(a.0.cmp(b.0)));
    let total: u64 = rows.iter().map(|(_, (bytes, _, _))| bytes).sum();
    println!(
        "link heat ({} active links, {total} bytes total):",
        rows.len()
    );
    println!("| link | bytes | share | drops | queue max |");
    println!("|---|---|---|---|---|");
    for (name, (bytes, drops, queue)) in rows.iter().take(12) {
        let share = if total > 0 {
            format!("{:.1}%", 100.0 * *bytes as f64 / total as f64)
        } else {
            "-".to_string()
        };
        println!("| {name} | {bytes} | {share} | {drops} | {queue} |");
    }
    if rows.len() > 12 {
        println!("(… {} more links)", rows.len() - 12);
    }
    println!();
}

fn render_link_counters(extra: &BTreeMap<&str, BTreeMap<&str, u64>>) {
    if extra.is_empty() {
        return;
    }
    let mut cols: Vec<&str> = extra.values().flat_map(|m| m.keys().copied()).collect();
    cols.sort_unstable();
    cols.dedup();
    let mut rows: Vec<(&str, u64)> = extra
        .iter()
        .map(|(name, m)| (*name, m.values().sum()))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("per-link counters:");
    let mut header = "| link |".to_string();
    for c in &cols {
        header.push_str(&format!(" {c} |"));
    }
    println!("{header}");
    println!("{}", "|---".repeat(1 + cols.len()) + "|");
    for (name, _) in rows.iter().take(12) {
        let mut row = format!("| {name} |");
        for c in &cols {
            row.push_str(&format!(" {} |", extra[name].get(c).copied().unwrap_or(0)));
        }
        println!("{row}");
    }
    if rows.len() > 12 {
        println!("(… {} more links)", rows.len() - 12);
    }
    println!();
}

fn render_global(run: &RunDump) {
    let mut lines = Vec::new();
    for r in &run.records {
        match r {
            DumpRecord::Counter {
                entity,
                metric,
                value,
            } if entity == "global" && !metric.starts_with("drop.") => {
                // `drop.<reason>` counters get their own table above.
                lines.push(format!("  {metric} = {value}"));
            }
            DumpRecord::Hist {
                entity,
                metric,
                count,
                sum,
                min,
                max,
                ..
            } if entity == "global" && *count > 0 => {
                let mean = *sum as f64 / *count as f64;
                let (mean, min, max) = if metric.ends_with("_ns") {
                    (fmt_ns((mean) as u64), fmt_ns(*min), fmt_ns(*max))
                } else {
                    (format!("{mean:.2}"), min.to_string(), max.to_string())
                };
                lines.push(format!(
                    "  {metric}: count {count}, mean {mean}, min {min}, max {max}"
                ));
            }
            _ => {}
        }
    }
    if lines.is_empty() {
        return;
    }
    println!("global:");
    for l in lines {
        println!("{l}");
    }
    println!();
}

fn render_timeline(run: &RunDump, wanted: Option<u64>) {
    // Count events per packet span to pick the busiest by default.
    let mut per_pkt: BTreeMap<u64, usize> = BTreeMap::new();
    for r in &run.records {
        if let DumpRecord::Event { pkt: Some(p), .. } = r {
            *per_pkt.entry(*p).or_insert(0) += 1;
        }
    }
    let chosen = match wanted {
        Some(p) => Some(p),
        None => per_pkt
            .iter()
            .max_by_key(|(p, n)| (**n, std::cmp::Reverse(**p)))
            .map(|(p, _)| *p),
    };
    let Some(chosen) = chosen else {
        // No packet spans; show unscoped events (faults, re-encodes).
        let mut rows: Vec<&DumpRecord> = run
            .records
            .iter()
            .filter(|r| matches!(r, DumpRecord::Event { .. }))
            .collect();
        if rows.is_empty() {
            return;
        }
        rows.sort_by_key(|r| match r {
            DumpRecord::Event { at_ns, .. } => *at_ns,
            _ => 0,
        });
        println!("events (no packet spans):");
        for r in rows.iter().take(30) {
            println!("{}", event_line(r));
        }
        if rows.len() > 30 {
            println!("(… {} more events)", rows.len() - 30);
        }
        println!();
        return;
    };
    let mut rows: Vec<&DumpRecord> = run
        .records
        .iter()
        .filter(|r| matches!(r, DumpRecord::Event { pkt: Some(p), .. } if *p == chosen))
        .collect();
    if rows.is_empty() {
        println!("packet {chosen}: no events in this run");
        println!();
        return;
    }
    rows.sort_by_key(|r| match r {
        DumpRecord::Event { at_ns, .. } => *at_ns,
        _ => 0,
    });
    println!("packet {chosen} timeline ({} events):", rows.len());
    for r in &rows {
        println!("{}", event_line(r));
    }
    println!();
}

fn event_line(r: &DumpRecord) -> String {
    let DumpRecord::Event {
        at_ns,
        kind,
        flow,
        node,
        link,
        aux,
        tag,
        span,
        parent,
        ..
    } = r
    else {
        return String::new();
    };
    let mut line = format!("  {:>10} {kind:<9}", fmt_ns(*at_ns));
    if !node.is_empty() {
        line.push_str(&format!(" at {node}"));
    }
    if !link.is_empty() {
        line.push_str(&format!(" on {link}"));
    }
    if let Some(f) = flow {
        line.push_str(&format!(" flow {f}"));
    }
    if !tag.is_empty() {
        line.push_str(&format!(" [{tag}]"));
    }
    if *aux != 0 {
        line.push_str(&format!(" aux={aux}"));
    }
    match (span, parent) {
        (Some(s), Some(p)) => line.push_str(&format!(" (span {s} ← {p})")),
        (Some(s), None) => line.push_str(&format!(" (span {s})")),
        _ => {}
    }
    line
}

fn render_profile(run: &RunDump) {
    let mut rows: Vec<(&str, u64, u64, u64)> = run
        .records
        .iter()
        .filter_map(|r| match r {
            DumpRecord::Profile {
                label,
                count,
                total_ns,
                max_ns,
            } => Some((label.as_str(), *count, *total_ns, *max_ns)),
            _ => None,
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    println!("profiler (by self-time):");
    println!("| event | count | total | mean | max |");
    println!("|---|---|---|---|---|");
    for (label, count, total_ns, max_ns) in rows {
        let mean = total_ns.checked_div(count).unwrap_or(0);
        println!(
            "| {label} | {count} | {} | {} | {} |",
            fmt_ns(total_ns),
            fmt_ns(mean),
            fmt_ns(max_ns)
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lines_render_all_fields() {
        let line = event_line(&DumpRecord::Event {
            at_ns: 1_500_000,
            kind: "deflect".into(),
            pkt: Some(3),
            flow: Some(1),
            node: "SW7".into(),
            link: "SW7-SW13".into(),
            aux: 2,
            tag: "hp".into(),
            span: Some(7),
            parent: Some(4),
        });
        assert!(line.contains("deflect"), "{line}");
        assert!(line.contains("at SW7"), "{line}");
        assert!(line.contains("on SW7-SW13"), "{line}");
        assert!(line.contains("flow 1"), "{line}");
        assert!(line.contains("[hp]"), "{line}");
        assert!(line.contains("aux=2"), "{line}");
        assert!(line.contains("(span 7 ← 4)"), "{line}");
    }

    #[test]
    fn json_report_escapes_and_structures() {
        let run = RunDump {
            label: "fig4/\"quoted\"".to_string(),
            records: vec![
                DumpRecord::Counter {
                    entity: "node:SW7".into(),
                    metric: "injected".into(),
                    value: 3,
                },
                DumpRecord::Counter {
                    entity: "node:SW7".into(),
                    metric: "deflect.avp".into(),
                    value: 2,
                },
                DumpRecord::Ring {
                    pushed: 10,
                    evicted: 4,
                    cap: 6,
                },
                DumpRecord::Summary {
                    fields: vec![
                        ("experiment".into(), Json::Str("fig4".into())),
                        ("seed".into(), Json::Num("11981841711409792483".into())),
                    ],
                },
            ],
        };
        let doc = json_report("d.jsonl", &[run]);
        assert!(
            doc.contains("\"summary\":{\"experiment\":\"fig4\",\"seed\":11981841711409792483}"),
            "{doc}"
        );
        assert!(Json::parse(&doc).is_ok(), "{doc}");
        assert!(doc.contains("\"label\":\"fig4/\\\"quoted\\\"\""), "{doc}");
        assert!(
            doc.contains("\"ring\":{\"pushed\":10,\"evicted\":4,\"cap\":6}"),
            "{doc}"
        );
        assert!(doc.contains("\"name\":\"SW7\",\"injected\":3"), "{doc}");
        assert!(doc.contains("\"deflect\":{\"avp\":2}"), "{doc}");
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "balanced braces: {doc}"
        );
    }
}
