//! Multiple simultaneous link failures — the Table 2 "supports multiple
//! link failures" claim, quantified.
//!
//! For k = 0..=3 random simultaneous core-link failures, inject a batch
//! of probes and measure the delivery ratio of three schemes: KAR with
//! NIP + full protection, KAR without deflection, and table-based fast
//! failover (one backup per destination — which a second failure can
//! exhaust).

use crate::cli::{flag, Args, Experiment, Flag};
use crate::harness::{ProbeRun, ProbeScheme, Scenario};
use crate::obs::RunObs;
use crate::record::{label_record, record, Record};
use crate::sweep;
use kar::{DeflectionTechnique, Protection};
use kar_baselines::TableScheme;
use kar_simnet::srlg_groups;
use kar_topology::{rnp28, topo15};
use kar_topology::{LinkId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::process::ExitCode;

/// Schemes compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// KAR, NIP deflection, auto-planned full protection.
    KarNipFull,
    /// KAR dataplane with no deflection (drop on failure).
    KarNoDeflection,
    /// Stateful per-destination primary/backup tables.
    FastFailover,
    /// Stateful k-slice splicing (k = 4).
    PathSplicing,
}

impl Scheme {
    /// All schemes.
    pub const ALL: [Scheme; 4] = [
        Scheme::KarNipFull,
        Scheme::KarNoDeflection,
        Scheme::FastFailover,
        Scheme::PathSplicing,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::KarNipFull => "KAR NIP+full",
            Scheme::KarNoDeflection => "KAR no-deflection",
            Scheme::FastFailover => "FastFailover",
            Scheme::PathSplicing => "PathSplicing k=4",
        }
    }

    fn probe_scheme(self) -> ProbeScheme {
        let kar = |technique| ProbeScheme::Kar {
            technique,
            protection: Protection::AutoFull,
            recovery: None,
        };
        match self {
            Scheme::KarNipFull => kar(DeflectionTechnique::Nip),
            Scheme::KarNoDeflection => kar(DeflectionTechnique::None),
            Scheme::FastFailover => ProbeScheme::Table(TableScheme::FastFailover),
            Scheme::PathSplicing => ProbeScheme::Table(TableScheme::PathSplicing { slices: 4 }),
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

label_record!(Scheme, Scheme::ALL);

record! {
    /// One measured point (document record and run summary).
    #[derive(Debug, Clone)]
    pub struct MultiFailurePoint {
        /// [`Scenario::label`] of the scenario.
        pub target: String,
        /// Simultaneous failures.
        pub k: usize,
        /// Scheme measured.
        pub scheme: Scheme,
        /// Mean delivery ratio over the trials.
        pub delivery: f64,
    }
}

/// Candidate links for failure: core-core links not on the last hop to
/// an edge (so the destination stays attached).
fn failable_links(topo: &Topology) -> Vec<LinkId> {
    (0..topo.link_count())
        .map(LinkId)
        .filter(|&l| {
            let link = topo.link(l);
            topo.switch_id(link.a).is_some() && topo.switch_id(link.b).is_some()
        })
        .collect()
}

/// Delivery ratio of `scheme` with `failures` down from t = 0.
fn run_one(
    target: &Scenario<'_>,
    scheme: Scheme,
    failures: &[LinkId],
    seed: u64,
    probes: u64,
    obs: &RunObs,
) -> f64 {
    let flows = [target.pair()];
    let run = ProbeRun {
        probes,
        seed,
        down: failures,
        ..ProbeRun::new(target.topo, scheme.probe_scheme(), &flows)
    };
    run.run(obs).stats.delivered as f64 / probes as f64
}

fn fingerprint(
    sweep: &str,
    targets: &[Scenario<'_>],
    depth: &str,
    trials: usize,
    probes: u64,
    seed: u64,
) -> String {
    let names: Vec<String> = targets.iter().map(Scenario::label).collect();
    format!(
        "{sweep}-v1 seed={seed} targets={} depth={depth} trials={trials} probes={probes}",
        names.join("+")
    )
}

/// Runs the sweep: for each target, `k` in `ks` and scheme, the mean
/// delivery ratio over `trials` random `k`-link failure sets.
pub fn run(
    targets: &[Scenario<'_>],
    ks: &[usize],
    trials: usize,
    probes: u64,
    base_seed: u64,
    opts: &sweep::Opts,
) -> Vec<MultiFailurePoint> {
    let cells: Vec<(&Scenario<'_>, usize, Scheme)> = targets
        .iter()
        .flat_map(|t| {
            ks.iter()
                .flat_map(move |&k| Scheme::ALL.into_iter().map(move |s| (t, k, s)))
        })
        .collect();
    let fp = fingerprint(
        "multi_failure",
        targets,
        &format!("{ks:?}"),
        trials,
        probes,
        base_seed,
    );
    sweep::typed(&sweep::run(
        opts,
        &fp,
        &cells,
        |(t, k, scheme)| format!("{}/k{k}/{}", t.label(), scheme.label()),
        |&(target, k, scheme)| {
            let candidates = failable_links(target.topo);
            // One dump per measured point, aggregated over its trials.
            let obs = RunObs::begin();
            let mut total = 0.0;
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(base_seed ^ ((k as u64) << 16) ^ t as u64);
                let mut links = candidates.clone();
                links.shuffle(&mut rng);
                links.truncate(k);
                total += run_one(target, scheme, &links, base_seed + t as u64, probes, &obs);
            }
            let point = MultiFailurePoint {
                target: target.label(),
                k,
                scheme,
                delivery: total / trials as f64,
            };
            obs.submit_summary(
                &format!(
                    "multi/{}-{}/{}/k{k}",
                    target.src,
                    target.dst,
                    scheme.label()
                ),
                target.topo,
                "multi_failure",
                &point.to_json(),
            );
            point.to_json()
        },
    ))
}

record! {
    /// Outcome of the correlated (SRLG) failure sweep for one scheme
    /// (document record and run summary).
    ///
    /// Unlike the independent sweep above, failures here arrive as whole
    /// shared-risk link groups — every core-core link of one switch dies
    /// together, as a line-card or fiber-conduit loss would take it.
    /// Groups fail cumulatively in a per-trial random order, so the sweep
    /// measures which scheme is the *first* to black-hole as correlated
    /// damage grows.
    #[derive(Debug, Clone)]
    pub struct CorrelatedOutcome {
        /// [`Scenario::label`] of the scenario.
        pub target: String,
        /// Scheme measured.
        pub scheme: Scheme,
        /// Mean delivery ratio after `g + 1` SRLG groups have failed.
        pub delivery: Vec<f64>,
        /// Per trial: the smallest number of failed groups at which the
        /// scheme delivered nothing, if it ever black-holed.
        pub first_blackhole: Vec<Option<usize>>,
    }
}

impl CorrelatedOutcome {
    /// Mean group count at first blackhole over the trials that
    /// black-holed, or `None` if the scheme always delivered something.
    pub fn mean_first_blackhole(&self) -> Option<f64> {
        let hits: Vec<usize> = self.first_blackhole.iter().flatten().copied().collect();
        if hits.is_empty() {
            None
        } else {
            Some(hits.iter().sum::<usize>() as f64 / hits.len() as f64)
        }
    }
}

/// Per outcome of one target's `group`: the trials in which that scheme
/// black-holed at the smallest group count among all of them (ties count
/// for every tied scheme).
pub fn blackholed_first(group: &[CorrelatedOutcome]) -> Vec<usize> {
    let trials = group.first().map_or(0, |o| o.first_blackhole.len());
    let mut firsts = vec![0; group.len()];
    for t in 0..trials {
        let min = group.iter().filter_map(|o| o.first_blackhole[t]).min();
        for (o, first) in group.iter().zip(&mut firsts) {
            if min.is_some() && o.first_blackhole[t] == min {
                *first += 1;
            }
        }
    }
    firsts
}

/// Runs the correlated-failure sweep: per trial, shuffle the topology's
/// SRLG groups, fail them cumulatively up to `max_groups`, and measure
/// every scheme on the identical damage sequence (the shuffle is seeded
/// from the trial only, never from the scheme).
pub fn run_correlated(
    targets: &[Scenario<'_>],
    max_groups: usize,
    trials: usize,
    probes: u64,
    base_seed: u64,
    opts: &sweep::Opts,
) -> Vec<CorrelatedOutcome> {
    let cells: Vec<(&Scenario<'_>, Scheme)> = targets
        .iter()
        .flat_map(|t| Scheme::ALL.into_iter().map(move |s| (t, s)))
        .collect();
    let fp = fingerprint(
        "multi_failure_correlated",
        targets,
        &max_groups.to_string(),
        trials,
        probes,
        base_seed,
    );
    sweep::typed(&sweep::run(
        opts,
        &fp,
        &cells,
        |(t, scheme)| format!("{}/{}", t.label(), scheme.label()),
        |&(target, scheme)| {
            let groups = srlg_groups(target.topo);
            let depth = max_groups.min(groups.len());
            let mut outcome = CorrelatedOutcome {
                target: target.label(),
                scheme,
                delivery: vec![0.0; depth],
                first_blackhole: Vec::new(),
            };
            // One aggregated dump across every trial and group depth.
            let obs = RunObs::begin();
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(base_seed ^ ((t as u64) << 20));
                let mut order: Vec<usize> = (0..groups.len()).collect();
                order.shuffle(&mut rng);
                let mut failed: BTreeSet<LinkId> = BTreeSet::new();
                let mut first = None;
                for g in 0..depth {
                    failed.extend(groups[order[g]].iter().copied());
                    let links: Vec<LinkId> = failed.iter().copied().collect();
                    let ratio = run_one(target, scheme, &links, base_seed + t as u64, probes, &obs);
                    outcome.delivery[g] += ratio;
                    if first.is_none() && ratio == 0.0 {
                        first = Some(g + 1);
                    }
                }
                outcome.first_blackhole.push(first);
            }
            for d in &mut outcome.delivery {
                *d /= trials as f64;
            }
            obs.submit_summary(
                &format!(
                    "multi-correlated/{}-{}/{}",
                    target.src,
                    target.dst,
                    scheme.label()
                ),
                target.topo,
                "multi_failure_correlated",
                &outcome.to_json(),
            );
            outcome.to_json()
        },
    ))
}

/// Renders the correlated sweep.
pub fn render_correlated(name: &str, outcomes: &[CorrelatedOutcome]) -> String {
    let depth = outcomes.first().map_or(0, |o| o.delivery.len());
    let mut out =
        format!("Correlated SRLG failures — delivery ratio by failed groups ({name})\n| scheme |");
    for g in 1..=depth {
        out.push_str(&format!(" {g} groups |"));
    }
    out.push_str(" first blackhole (mean groups) | black-holed first |\n|---|");
    out.push_str(&"---|".repeat(depth + 2));
    out.push('\n');
    for (o, first) in outcomes.iter().zip(blackholed_first(outcomes)) {
        out.push_str(&format!("| {} |", o.scheme.label()));
        for d in &o.delivery {
            out.push_str(&format!(" {d:.2} |"));
        }
        match o.mean_first_blackhole() {
            Some(mean) => out.push_str(&format!(" {mean:.1} |")),
            None => out.push_str(" never |"),
        }
        out.push_str(&format!(" {first}/{} trials |\n", o.first_blackhole.len()));
    }
    out
}

/// Renders the sweep.
pub fn render(name: &str, points: &[MultiFailurePoint]) -> String {
    let mut out = format!("Multiple simultaneous failures — delivery ratio ({name})\n| k |");
    for scheme in Scheme::ALL {
        out.push_str(&format!(" {scheme} |"));
    }
    out.push_str("\n|---|---|---|---|---|\n");
    let mut ks: Vec<usize> = points.iter().map(|p| p.k).collect();
    ks.dedup();
    for k in ks {
        out.push_str(&format!("| {k} |"));
        for scheme in Scheme::ALL {
            let point = points.iter().find(|p| p.k == k && p.scheme == scheme);
            out.push_str(&format!(" {:.2} |", point.map_or(f64::NAN, |p| p.delivery)));
        }
        out.push('\n');
    }
    out
}

const FLAGS: &[Flag] = &[
    flag("--runs", "20", "trials per cell"),
    flag("--probes", "200", "probes per trial"),
    flag("--groups", "3", "largest number of SRLG groups failed"),
];

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "multi_failure",
    "Delivery ratio under k simultaneous failures (Table 2's multi-failure claim)",
    FLAGS.split_at(2).0,
    |args| main(args, false),
)
.sweep();

/// `kar-bench multi_failure_correlated`: whole SRLG groups (every
/// core-core link of one switch at once) in a cumulative random order.
pub(super) const CORRELATED: Experiment = Experiment::new(
    "multi_failure_correlated",
    "Correlated (SRLG-group) failures: which scheme black-holes first",
    FLAGS,
    |args| main(args, true),
)
.sweep();

fn main(args: &Args, correlated: bool) -> ExitCode {
    let (trials, probes) = (args.get("--runs"), args.get("--probes"));
    let (t15, rnp) = (topo15::build(), rnp28::build());
    let targets = [
        Scenario::new("topo15", &t15, "AS1", "AS3"),
        Scenario::new("rnp28", &rnp, "E_BV", "E_SP"),
    ];
    let opts = args.sweep();
    let document = if correlated {
        let groups = args.get("--groups");
        let outcomes = run_correlated(&targets, groups, trials, probes, args.seed(), &opts);
        for (target, group) in targets.iter().zip(outcomes.chunks(Scheme::ALL.len())) {
            print!("{}", render_correlated(&target.label(), group));
        }
        let records = outcomes.iter().map(Record::to_json);
        sweep::document("multi_failure_correlated", records, "")
    } else {
        let ks = [0usize, 1, 2, 3];
        let points = run(&targets, &ks, trials, probes, args.seed(), &opts);
        let per_target = ks.len() * Scheme::ALL.len();
        for (target, group) in targets.iter().zip(points.chunks(per_target)) {
            print!("{}", render(&target.label(), group));
        }
        sweep::document("multi_failure", points.iter().map(Record::to_json), "")
    };
    args.write_document(&document);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_topology::topo15;

    fn target(topo: &Topology) -> [Scenario<'_>; 1] {
        [Scenario::new("topo15", topo, "AS1", "AS3")]
    }

    fn serial() -> sweep::Opts {
        sweep::Opts::jobs(1)
    }

    #[test]
    fn kar_nip_dominates_under_failures() {
        let topo = topo15::build();
        let points = run(&target(&topo), &[0, 1, 2], 3, 30, 77, &serial());
        let get = |k: usize, s: Scheme| {
            points
                .iter()
                .find(|p| p.k == k && p.scheme == s)
                .unwrap()
                .delivery
        };
        // No failures: everyone delivers everything.
        for s in Scheme::ALL {
            assert!((get(0, s) - 1.0).abs() < 1e-9, "{s:?}");
        }
        // With failures, NIP+full beats no-deflection.
        for k in [1usize, 2] {
            assert!(
                get(k, Scheme::KarNipFull) >= get(k, Scheme::KarNoDeflection),
                "k={k}"
            );
        }
        assert!(get(2, Scheme::KarNipFull) > 0.8, "KAR survives k=2");
    }

    #[test]
    fn correlated_groups_hurt_the_stateless_drop_scheme_first() {
        let topo = topo15::build();
        let outcomes = run_correlated(&target(&topo), 2, 4, 20, 9, &serial());
        assert_eq!(outcomes.len(), Scheme::ALL.len());
        let get = |s: Scheme| outcomes.iter().find(|o| o.scheme == s).unwrap();
        let nip = get(Scheme::KarNipFull);
        let none = get(Scheme::KarNoDeflection);
        assert_eq!(nip.delivery.len(), 2);
        assert_eq!(nip.first_blackhole.len(), 4);
        // Identical damage sequences: deflection can only help.
        for g in 0..2 {
            assert!(
                nip.delivery[g] >= none.delivery[g],
                "g={} nip={:?} none={:?}",
                g,
                nip.delivery,
                none.delivery
            );
        }
        // No scheme black-holes before the drop-on-failure dataplane.
        let firsts = blackholed_first(&outcomes);
        for (o, first) in outcomes.iter().zip(&firsts) {
            assert!(
                firsts[1] >= *first,
                "{:?} black-holed first more often than no-deflection",
                o.scheme
            );
        }
        // Replays are deterministic.
        let again = run_correlated(&target(&topo), 2, 4, 20, 9, &serial());
        for (a, b) in outcomes.iter().zip(&again) {
            assert_eq!(a.delivery, b.delivery);
            assert_eq!(a.first_blackhole, b.first_blackhole);
        }
    }

    #[test]
    fn correlated_render_lists_every_scheme() {
        let topo = topo15::build();
        let outcomes = run_correlated(&target(&topo), 1, 2, 10, 5, &serial());
        let text = render_correlated("topo15", &outcomes);
        for s in Scheme::ALL {
            assert!(text.contains(s.label()), "{text}");
        }
        assert!(text.contains("first blackhole"));
    }

    #[test]
    fn render_has_all_ks() {
        let topo = topo15::build();
        let points = run(&target(&topo), &[0, 1], 2, 20, 3, &serial());
        let text = render("topo15", &points);
        assert!(text.contains("| 0 |"));
        assert!(text.contains("| 1 |"));
    }
}
