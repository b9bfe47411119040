//! `verify-k3`: the k-failure verifier's memo / prune / explore engine.
//! The op is one `(pair, failure set)` case (`SweepStats::cases`) of
//! `verify_failure_sets(rnp28, technique, AutoFull, k = 3)` for HP, AVP
//! and NIP, each with a fresh `EncodingCache`. Touches neither `Sim`
//! nor the daemon; single-threaded.

use crate::ledger::{per_call_ns, reconcile, Row};
use crate::span::Tracer;
use crate::workload::{Layers, Rep, Scale, Workload};
use kar::prelude::*;
use kar::verify::summarize_sets;
use kar::{verify_failure_sets, verify_route, PairVerifier, SweepStats, VerifySummary};
use kar_topology::{paths, rnp28, LinkId};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Metric suffix, technique, the pinned k = 2 violation count on rnp28
/// under AutoFull (`verify_resilience --k 2`), and the ledger's name for
/// the technique's explorations.
const TECHNIQUES: [(&str, DeflectionTechnique, usize, &str); 3] = [
    (
        "hp",
        DeflectionTechnique::HotPotato,
        0,
        "verify_route explorations (HP)",
    ),
    (
        "avp",
        DeflectionTechnique::Avp,
        186,
        "verify_route explorations (AVP)",
    ),
    (
        "nip",
        DeflectionTechnique::Nip,
        240,
        "verify_route explorations (NIP)",
    ),
];

pub struct Verify {
    topo: Topology,
    scale: Scale,
    /// Failure-set size of a repetition: 3, or 2 under `--smoke`.
    k: usize,
    /// Per-technique outcome counts of the first repetition.
    reference: Option<Vec<VerifySummary>>,
}

/// One technique's sweep: outcome counts, work accounting, wall.
struct Sweep {
    summary: VerifySummary,
    stats: SweepStats,
    wall: Duration,
}

fn sweep(topo: &Topology, technique: DeflectionTechnique, k: usize) -> Sweep {
    let started = Instant::now();
    let cache = EncodingCache::new();
    let out = verify_failure_sets(topo, technique, &Protection::AutoFull, &cache, k)
        .expect("rnp28 routes encode");
    Sweep {
        summary: summarize_sets(&out.results),
        stats: out.stats,
        wall: started.elapsed(),
    }
}

impl Verify {
    /// Builds rnp28 and reproduces the pinned k = 2 classification — the
    /// expected answer that anchors the k = 3 counts.
    ///
    /// # Panics
    ///
    /// Panics when a k = 2 sweep drifts from the pinned violation
    /// counts: the verifier under test is then not the pinned one.
    pub fn build(scale: Scale) -> Verify {
        let topo = rnp28::build();
        for (label, technique, pinned, _) in TECHNIQUES {
            let got = sweep(&topo, technique, 2).summary.violations;
            assert_eq!(
                got, pinned,
                "rnp28 k=2 {label} violations drifted from the pinned count"
            );
        }
        Verify {
            topo,
            scale,
            k: scale.pick(3, 2),
            reference: None,
        }
    }

    fn run(&mut self, tracer: &mut Tracer, request: u64) -> (Rep, Vec<Sweep>) {
        let started = Instant::now();
        let sweeps: Vec<Sweep> = TECHNIQUES
            .iter()
            .map(|&(label, technique, _, _)| {
                tracer.span(label, request, None, || {
                    sweep(&self.topo, technique, self.k)
                })
            })
            .collect();
        let wall = started.elapsed();
        let summaries: Vec<VerifySummary> = sweeps.iter().map(|s| s.summary.clone()).collect();
        let ops: u64 = sweeps.iter().map(|s| s.stats.cases as u64).sum();
        let verdict = check(&summaries, self.reference.as_deref());
        self.reference.get_or_insert(summaries);
        let failed = match verdict {
            Ok(()) => 0,
            Err(why) => {
                eprintln!("FAILED verify-k3: {why}");
                ops
            }
        };
        (Rep { ops, failed, wall }, sweeps)
    }
}

/// Outcome counts must repeat exactly, and HP must survive every
/// survivable failure set (the project's headline: zero violations at
/// k ≤ 3).
fn check(got: &[VerifySummary], reference: Option<&[VerifySummary]>) -> Result<(), String> {
    if got[0].violations != 0 {
        return Err(format!(
            "HP has {} violations, expected 0",
            got[0].violations
        ));
    }
    match reference {
        Some(r) if r != got => Err("outcome counts differ from the first repetition's".into()),
        _ => Ok(()),
    }
}

/// One ordered edge pair with its AutoFull route, as the sweep sees it.
struct Pair<'t> {
    src: NodeId,
    dst: NodeId,
    route: EncodedRoute,
    verifier: PairVerifier<'t>,
}

/// The cases unit costs are measured on: every ordered edge pair, under
/// each single-link failure the no-failure exploration says the
/// route's fate can depend on. Returns the pairs and `(pair index,
/// failed link)` cases.
fn unit_cases(
    topo: &Topology,
    technique: DeflectionTechnique,
) -> (Vec<Pair<'_>>, Vec<(usize, LinkId)>) {
    let cache = EncodingCache::new();
    let edges = topo.edge_nodes();
    let mut pairs = Vec::new();
    let mut cases = Vec::new();
    for &src in &edges {
        for &dst in edges.iter().filter(|&&d| d != src) {
            let primary = paths::bfs_shortest_path(topo, src, dst).expect("rnp28 is connected");
            let route = cache
                .encode_with_protection(topo, primary, &Protection::AutoFull)
                .expect("rnp28 routes encode");
            let intact = verify_route(topo, &route, src, dst, technique, &HashSet::new());
            cases.extend(intact.relevant_links.iter().map(|&l| (pairs.len(), l)));
            pairs.push(Pair {
                src,
                dst,
                verifier: PairVerifier::new(topo, route.clone(), src, dst, technique),
                route,
            });
        }
    }
    (pairs, cases)
}

impl Workload for Verify {
    fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
        self.run(tracer, 0).0
    }

    fn traced(&mut self, tracer: &mut Tracer) -> (Layers, Vec<Rep>) {
        let smoke = self.scale.smoke;
        let (plain, sweeps) = self.run(&mut Tracer::off(), 0);
        let (traced, _) = self.run(tracer, 1);
        let mut layers: Layers = vec![(
            "trace.overhead_pct".into(),
            100.0 * (plain.ops_per_s() - traced.ops_per_s()) / plain.ops_per_s(),
        )];
        let mut ledger = Vec::new();
        for (&(label, technique, _, explorations), sweep) in TECHNIQUES.iter().zip(&sweeps) {
            let (mut pairs, cases) = unit_cases(&self.topo, technique);
            let mut at = 0;
            let explored_ns = per_call_ns(smoke, || {
                at = if at + 1 == cases.len() { 0 } else { at + 1 };
                let (pair, link) = cases[at];
                let p = &pairs[pair];
                let failed = HashSet::from([link]);
                black_box(verify_route(
                    &self.topo, &p.route, p.src, p.dst, technique, &failed,
                ));
            });
            // Classify every case once, so the timed calls below are
            // all answered from the projection memo.
            for &(pair, link) in &cases {
                pairs[pair].verifier.classify(&[link]);
            }
            let memo_hit_ns = per_call_ns(smoke, || {
                at = if at + 1 == cases.len() { 0 } else { at + 1 };
                let (pair, link) = cases[at];
                black_box(pairs[pair].verifier.classify(&[link]));
            });
            let s = sweep.stats;
            for (what, value) in [
                ("explored_us", explored_ns / 1e3),
                ("memo_hit_ns", memo_hit_ns),
                ("explored", s.explored as f64),
                ("memo_hits", s.memo_hits as f64),
                ("disconnect_pruned", s.disconnect_pruned as f64),
            ] {
                layers.push((format!("core.verify.{what}.{label}"), value));
            }
            println!(
                "sweep {label}: {} cases in {:.3} s, {} explored, {} memo hits, {} pruned",
                s.cases,
                sweep.wall.as_secs_f64(),
                s.explored,
                s.memo_hits,
                s.disconnect_pruned
            );
            ledger.push(Row {
                layer: explorations,
                count: s.explored as f64,
                unit_ns: explored_ns,
            });
            ledger.push(Row {
                layer: "PairVerifier memo hits",
                count: s.memo_hits as f64,
                unit_ns: memo_hit_ns,
            });
        }
        let unexplained = reconcile(
            plain.wall.as_nanos() as f64,
            &ledger,
            "failure-set enumeration, a connectivity BFS per un-pruned set, projection \
             fix-point rounds, and one VerifyReport clone + result row per case",
        );
        layers.push(("trace.unexplained_pct".into(), unexplained));
        (layers, vec![plain, traced])
    }
}
