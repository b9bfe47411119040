//! CI resilience gate: exhaustively classifies every
//! `(src, dst, failure set)` case on topo15 and rnp28 for the HP, AVP
//! and NIP dataplanes under auto-planned full protection, and exits
//! nonzero if the violation counts differ from the pinned expectations
//! — the failures the paper's protection guarantee claims to cover.
//!
//! At k=1 the no-deflection dataplane is reported but never gates (it
//! drops by design), and AVP gates against a pinned allowance instead
//! of zero: AVP may deflect back out the input port, and on rnp28 two
//! residues form a deterministic ping-pong — the known loop the paper
//! motivates NIP with (§2.1). At k=2 *every* technique has pinned
//! counts (the fixtures in `crates/core/tests/fixtures/`): two
//! simultaneous failures defeat even NIP on some cases, and the gate's
//! job is to freeze exactly which.
use crate::cli::{flag, Experiment, TOPO};
use crate::harness::link_names;
use crate::obs::RunObs;
use kar::verify::{summarize_sets, FailureSetResult, SweepStats, VerifySummary};
use kar::{verify_failure_sets, DeflectionTechnique, EncodingCache, Outcome, Protection};
use kar_obs::Entity;
use kar_topology::{rnp28, topo15, LinkId, Topology};
use std::ops::RangeInclusive;
use std::process::ExitCode;

/// Records one technique's verification sweep into a metrics dump:
/// global outcome counters plus per-failed-link blackhole/loop counters
/// (the link-heat view of where the dataplane is fragile). The verifier
/// is symbolic — there is no `Sim` to attach to — so the counters are
/// recorded directly from the case results.
fn record<'c>(
    topo: &Topology,
    label: &str,
    cases: impl Iterator<Item = (Outcome, &'c [LinkId])>,
    s: &VerifySummary,
) {
    let run = RunObs::begin();
    let Some(o) = run.handle.get() else { return };
    let m = &o.metrics;
    m.counter(Entity::Global, "verify.cases")
        .add(s.total as u64);
    m.counter(Entity::Global, "verify.disconnected")
        .add(s.disconnected as u64);
    m.counter(Entity::Global, "verify.violations")
        .add(s.violations as u64);
    for (outcome, metric) in [
        (Outcome::Delivered, "verify.delivered"),
        (Outcome::WrongEdge, "verify.wrong_edge"),
        (Outcome::TtlExceeded, "verify.ttl_exceeded"),
        (Outcome::Blackhole, "verify.blackhole"),
        (Outcome::Loop, "verify.loop"),
    ] {
        m.counter(Entity::Global, metric)
            .add(s.count(outcome) as u64);
    }
    for (outcome, failed) in cases {
        let metric = match outcome {
            Outcome::Blackhole => "verify.blackhole",
            Outcome::Loop => "verify.loop",
            _ => continue,
        };
        for link in failed {
            m.counter(Entity::Link(link.0 as u32), metric).inc();
        }
    }
    run.submit(label, topo);
}

/// Freezes a verifier-gate mismatch into the flight recorder: one
/// `note` event per offending case (src node, dst in `aux`, first
/// failed link, outcome as tag), then a `verifier-gate` capture — so a
/// failed CI gate ships its own black box inside the metrics dump
/// (`kar-inspect forensics` renders it).
fn record_gate_mismatch(topo: &Topology, label: &str, offenders: &[&FailureSetResult]) {
    let run = RunObs::begin();
    let Some(o) = run.handle.get() else { return };
    for (i, case) in offenders.iter().enumerate() {
        let mut ev = kar_obs::Event::new(i as u64, kar_obs::EventKind::Note);
        ev.node = Some(case.src.0 as u32);
        ev.aux = case.dst.0 as u64;
        ev.link = case.failed.first().map(|l| l.0 as u32);
        ev.tag = match case.report.outcome {
            Outcome::Loop => "loop",
            Outcome::Blackhole => "blackhole",
            Outcome::TtlExceeded => "ttl-exceeded",
            Outcome::WrongEdge => "wrong-edge",
            Outcome::Delivered => "delivered",
        };
        o.events.push(ev);
    }
    o.forensics.capture("verifier-gate", 0, None, &o.events);
    run.submit(label, topo);
}

fn print_header(name: &str, k: usize) {
    println!("{name}: exhaustive {k}-failure-set verification (AutoFull)");
    println!("| technique | cases | delivered | wrong-edge | ttl | blackhole | loop | disconnected | violations |");
    println!("|---|---|---|---|---|---|---|---|---|");
}

fn print_row(technique: DeflectionTechnique, s: &VerifySummary) {
    println!(
        "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
        technique.label(),
        s.total,
        s.count(Outcome::Delivered),
        s.count(Outcome::WrongEdge),
        s.count(Outcome::TtlExceeded),
        s.count(Outcome::Blackhole),
        s.count(Outcome::Loop),
        s.disconnected,
        s.violations,
    );
}

/// The violation counts `technique` may show on `name` at failure-set
/// size `k`, or `None` where the sweep only reports.
///
/// k=1: the drop-on-failure dataplane never gates, HP and NIP must be
/// clean, and AVP gets its pinned allowance (rnp28 has 3 known
/// input-port ping-pong loops around SW107-SW113). k=2: exactly the
/// committed classification fixtures
/// (`crates/core/tests/fixtures/k2_{topo15,rnp28}.tsv`) projected to the
/// one column that gates; the fixture test pins the full tables.
fn allowed_violations(
    name: &str,
    k: usize,
    technique: DeflectionTechnique,
) -> Option<RangeInclusive<usize>> {
    use DeflectionTechnique::*;
    let exactly = |n| Some(n..=n);
    match (k, name, technique) {
        (1, _, None) => Option::None,
        (1, "rnp28", Avp) => Some(0..=3),
        (1, ..) => exactly(0),
        (2, "topo15", HotPotato) | (2, "rnp28", HotPotato) => exactly(0),
        (2, "topo15", Avp) => exactly(20),
        (2, "topo15", Nip) => exactly(14),
        (2, "rnp28", Avp) => exactly(186),
        (2, "rnp28", Nip) => exactly(240),
        _ => Option::None,
    }
}

/// Sweeps every `k`-failure set of `topo` per technique, prints the
/// classification table and gates it against [`allowed_violations`].
fn check(topo: &Topology, name: &str, k: usize) -> bool {
    let cache = EncodingCache::new();
    let mut ok = true;
    print_header(name, k);
    let mut stats = SweepStats::default();
    // The k=1 sweep predates `--k`; its labels and table stay as they were.
    let scope = if k == 1 {
        name.to_string()
    } else {
        format!("{name}/k{k}")
    };
    for technique in DeflectionTechnique::ALL {
        let sweep = verify_failure_sets(topo, technique, &Protection::AutoFull, &cache, k)
            .expect("verification runs");
        let s = summarize_sets(&sweep.results);
        let label = format!("verify/{scope}/{}", technique.label());
        let cases = sweep.results.iter();
        record(
            topo,
            &label,
            cases.map(|c| (c.report.outcome, c.failed.as_slice())),
            &s,
        );
        print_row(technique, &s);
        stats.cases += sweep.stats.cases;
        stats.explored += sweep.stats.explored;
        stats.memo_hits += sweep.stats.memo_hits;
        stats.disconnect_pruned += sweep.stats.disconnect_pruned;
        stats.symmetry_hits += sweep.stats.symmetry_hits;
        let Some(allowed) = allowed_violations(name, k, technique) else {
            continue;
        };
        if allowed.contains(&s.violations) {
            continue;
        }
        ok = false;
        eprintln!(
            "GATE {scope}/{}: {} violations, allowed {allowed:?}",
            technique.label(),
            s.violations
        );
        let offenders: Vec<&FailureSetResult> = sweep
            .results
            .iter()
            .filter(|c| !c.disconnected)
            .filter(|c| matches!(c.report.outcome, Outcome::Blackhole | Outcome::Loop))
            .take(10)
            .collect();
        record_gate_mismatch(topo, &format!("{label}/gate-mismatch"), &offenders);
        for case in offenders {
            eprintln!(
                "  {} -> {} with {} failed: {} (witness {:?})",
                topo.node(case.src).name,
                topo.node(case.dst).name,
                link_names(topo, &case.failed).join(", "),
                case.report.outcome,
                case.report
                    .loop_witness
                    .as_ref()
                    .or(case.report.blackhole_witness.as_ref()),
            );
        }
    }
    if k > 1 {
        println!(
            "{name}: {} cases, {} explorations ({} memo hits, {} disconnect-pruned, {} symmetry hits)",
            stats.cases,
            stats.explored,
            stats.memo_hits,
            stats.disconnect_pruned,
            stats.symmetry_hits
        );
    }
    println!();
    ok
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "verify_resilience",
    "Resilience gate: exhaustive k-failure classification against the pinned counts",
    &[flag("--k", "1", "failure-set size to sweep"), TOPO],
    |args| {
        let k: usize = args.get("--k");
        let mut ok = true;
        if args.wants_topo("topo15") {
            ok &= check(&topo15::build(), "topo15", k);
        }
        if args.wants_topo("rnp28") {
            ok &= check(&rnp28::build(), "rnp28", k);
        }
        match (ok, k) {
            (false, _) => eprintln!(
                "resilience gate FAILED: violation counts drifted from the pinned classification"
            ),
            (true, 1) => println!(
                "resilience gate passed: HP and NIP survive every survivable single-link failure"
            ),
            _ => println!("resilience gate passed: k={k} classification matches the pinned tables"),
        }
        ExitCode::from(u8::from(!ok))
    },
);
