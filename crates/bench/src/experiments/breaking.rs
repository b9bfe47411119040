//! Breaking-point search (`BENCH_breaking.json`): for each
//! (pair, technique, protection) cell, the *smallest* failure set that
//! defeats the dataplane — found symbolically by
//! [`kar::min_failure_set`], then confirmed by replaying the witness set
//! through the real forwarder and measured against the table-based
//! baseline schemes under the identical failures.
//!
//! The sweep answers the question the k-failure classification tables
//! only aggregate: not *how many* failure sets break a technique, but
//! *how much* simultaneous damage each protection budget actually buys
//! per pair — the resilience frontier. A cell with no breaking point up
//! to `max_k` survives every failure set of that size that leaves the
//! pair physically connected.
//!
//! Every reported breaking point carries a replay record: the witness
//! links are failed at t=0 in a traced simulation and the run must
//! reproduce the predicted failure class (TTL exhaustion for `Loop`,
//! a core drop for `Blackhole`). The verifier models nondeterministic
//! deflection choices, so a random-walking technique may need a few
//! seeds before a packet walks into the trap; the replay retries a
//! bounded seed window and records the confirming seed.

use crate::cli::{flag, Args, Experiment, TOPO};
use crate::harness::{link_names, ProbeRun, ProbeScheme, Scenario};
use crate::obs::RunObs;
use crate::record::{record, Record};
use crate::sweep;
use kar::verify::BreakingPoint;
use kar::{min_failure_set, DeflectionTechnique, EncodingCache, Outcome, Protection};
use kar_baselines::TableScheme;
use kar_simnet::{DropReason, Stats};
use kar_topology::{rnp28, topo15};
use kar_topology::{LinkId, NodeId, Topology};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Seeds tried before declaring a witness unconfirmed. Deterministic
/// drops confirm on the first seed; a witness that requires a long
/// chain of random deflection choices (an NIP blackhole on rnp28 needs
/// a 13-hop walk that only ~a quarter of seeded runs take) needs a
/// statistical window. At a 25% per-seed hit rate, 32 seeds leave a
/// miss probability under 1e-4.
pub const REPLAY_SEED_TRIES: u64 = 32;

/// Protection levels swept, identically for every technique.
pub fn protection_levels() -> [(&'static str, Protection); 3] {
    [
        ("none", Protection::None),
        ("budget24", Protection::AutoBudget { max_bits: 24 }),
        ("full", Protection::AutoFull),
    ]
}

record! {
    /// One replay of a witness failure set through the real forwarder.
    #[derive(Debug, Clone)]
    pub struct Replay {
        /// Seed that produced this record (the confirming one, or the
        /// last tried when nothing confirmed).
        pub seed: u64,
        /// Whether the run reproduced the predicted failure class.
        pub confirms: bool,
        /// Probes injected.
        pub injected: u64,
        /// Probes delivered.
        pub delivered: u64,
        /// Drops by TTL expiry (the `Loop` signature).
        pub ttl_drops: u64,
        /// Drops inside the core with nowhere to forward (the
        /// `Blackhole` signature: dead port, no route, residue out of
        /// range).
        pub blackhole_drops: u64,
    }
}

record! {
    /// A baseline scheme measured under the identical witness failure set.
    #[derive(Debug, Clone)]
    pub struct BaselineRun {
        /// Scheme label.
        pub scheme: String,
        /// Probes injected.
        pub injected: u64,
        /// Probes delivered.
        pub delivered: u64,
    }
}

record! {
    /// The breaking point of one cell, replay attached.
    #[derive(Debug, Clone)]
    pub struct BreakingDetail {
        /// Witness set size (the minimum that breaks the cell).
        pub k: usize,
        /// Witness links by endpoint names, e.g. `SW10-SW17`.
        pub links: Vec<String>,
        /// Predicted failure class (`Loop` or `Blackhole`).
        pub outcome: Outcome,
        /// The forwarder replay of the witness set.
        pub replay: Replay,
        /// Table-based baselines under the same failures.
        pub baselines: Vec<BaselineRun>,
    }
}

record! {
    /// One (pair, technique, protection) cell of the sweep — its
    /// `BENCH_breaking.json` record and, prefixed with `experiment`, its
    /// run summary in the metrics dump.
    #[derive(Debug, Clone)]
    pub struct BreakingCell {
        /// Topology name.
        pub topo: String,
        /// Source edge name.
        pub src: String,
        /// Destination edge name.
        pub dst: String,
        /// Deflection technique.
        pub technique: DeflectionTechnique,
        /// Protection level label (see [`protection_levels`]).
        pub protection: String,
        /// Largest failure-set size searched.
        pub max_k: usize,
        /// The breaking point, or `None` if the cell survives every
        /// connectivity-preserving failure set up to `max_k`.
        pub breaking: Option<BreakingDetail>,
    }
}

fn blackhole_drops(stats: &Stats) -> u64 {
    [
        DropReason::PortDown,
        DropReason::NoRoute,
        DropReason::ResidueOutOfRange,
    ]
    .iter()
    .map(|r| stats.drops.get(r).copied().unwrap_or(0))
    .sum()
}

/// `probes` paced probes from `src` to `dst` under `scheme` with the
/// witness links `failed` down from t = 0.
fn probe(
    topo: &Topology,
    pair: (NodeId, NodeId),
    scheme: ProbeScheme,
    failed: &[LinkId],
    seed: u64,
    probes: u64,
    obs: &RunObs,
) -> Stats {
    let flows = [pair];
    let run = ProbeRun {
        probes,
        seed,
        down: failed,
        ..ProbeRun::new(topo, scheme, &flows)
    };
    run.run(obs).stats
}

/// Replays a witness set through the real forwarder, retrying up to
/// [`REPLAY_SEED_TRIES`] seeds until one reproduces the predicted
/// failure class.
fn replay_witness(
    replay_once: impl Fn(u64) -> Stats,
    bp: &BreakingPoint,
    base_seed: u64,
) -> Replay {
    let mut last = None;
    for seed in base_seed..base_seed + REPLAY_SEED_TRIES {
        let stats = replay_once(seed);
        let ttl_drops = stats.dropped_for(DropReason::TtlExpired);
        let bh_drops = blackhole_drops(&stats);
        let replay = Replay {
            seed,
            confirms: match bp.outcome {
                Outcome::Loop => ttl_drops > 0,
                Outcome::Blackhole => bh_drops > 0,
                _ => false,
            },
            injected: stats.injected,
            delivered: stats.delivered,
            ttl_drops,
            blackhole_drops: bh_drops,
        };
        if replay.confirms {
            return replay;
        }
        last = Some(replay);
    }
    last.expect("at least one replay ran")
}

/// Runs one cell: the breaking-point search, then — when there is a
/// breaking point — the witness replay and the baselines under the same
/// failures.
fn run_cell(
    pair: &Scenario<'_>,
    (pname, protection): &(&str, Protection),
    technique: DeflectionTechnique,
    max_k: usize,
    seed: u64,
    probes: u64,
) -> BreakingCell {
    let topo = pair.topo;
    let ends = pair.pair();
    let obs = RunObs::begin();
    let cache = EncodingCache::new();
    let bp = min_failure_set(topo, ends.0, ends.1, technique, protection, &cache, max_k)
        .expect("breaking-point search runs");
    let breaking = bp.map(|bp| {
        let kar = ProbeScheme::Kar {
            technique,
            protection: protection.clone(),
            recovery: None,
        };
        let replay = replay_witness(
            |seed| probe(topo, ends, kar.clone(), &bp.failed, seed, probes, &obs),
            &bp,
            seed,
        );
        // The baselines are measured, not observed: the cell's dump
        // describes the KAR replays only.
        let baselines = TableScheme::DEFAULT
            .into_iter()
            .map(|scheme| {
                let table = ProbeScheme::Table(scheme);
                let stats = probe(
                    topo,
                    ends,
                    table,
                    &bp.failed,
                    seed,
                    probes,
                    &RunObs::default(),
                );
                BaselineRun {
                    scheme: scheme.label().to_string(),
                    injected: stats.injected,
                    delivered: stats.delivered,
                }
            })
            .collect();
        BreakingDetail {
            k: bp.failed.len(),
            links: link_names(topo, &bp.failed),
            outcome: bp.outcome,
            replay,
            baselines,
        }
    });
    let cell = BreakingCell {
        topo: pair.topo_name.to_string(),
        src: pair.src.to_string(),
        dst: pair.dst.to_string(),
        technique,
        protection: pname.to_string(),
        max_k,
        breaking,
    };
    obs.submit_summary(
        &format!("breaking/{}", cell_key(pair, pname, technique)),
        topo,
        "fig_breaking",
        &cell.to_json(),
    );
    cell
}

fn cell_key(pair: &Scenario<'_>, protection: &str, technique: DeflectionTechnique) -> String {
    format!(
        "{}/{}-{}/{}/{protection}",
        pair.topo_name,
        pair.src,
        pair.dst,
        technique.label()
    )
}

/// Runs the sweep: for every pair, every protection level × every
/// technique, breaking points searched up to `max_k` (byte-identical
/// results at any job count, resumable from `opts.checkpoint`).
pub fn run(
    pairs: &[Scenario<'_>],
    max_k: usize,
    seed: u64,
    probes: u64,
    opts: &sweep::Opts,
) -> Vec<BreakingCell> {
    let levels = protection_levels();
    let mut grid = Vec::new();
    for pair in pairs {
        for level in &levels {
            grid.extend(DeflectionTechnique::ALL.map(|technique| (pair, level, technique)));
        }
    }
    let names: Vec<String> = pairs
        .iter()
        .map(|p| format!("{}/{}-{}", p.topo_name, p.src, p.dst))
        .collect();
    let fingerprint = format!(
        "breaking-v1 seed={seed} max_k={max_k} probes={probes} pairs={}",
        names.join("+")
    );
    sweep::typed(&sweep::run(
        opts,
        &fingerprint,
        &grid,
        |(pair, level, technique)| cell_key(pair, level.0, *technique),
        |&(pair, level, technique)| run_cell(pair, level, technique, max_k, seed, probes).to_json(),
    ))
}

/// Renders the sweep as a markdown table.
pub fn render(cells: &[BreakingCell]) -> String {
    let mut out = String::from(
        "Breaking points — smallest failure set that defeats each cell\n\
         | topo | pair | technique | protection | breaks at | outcome | witness | replay | baselines (same failures) |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for c in cells {
        let (breaks, outcome, witness, replay, baselines) = match &c.breaking {
            None => (
                format!("> k={}", c.max_k),
                "—".to_string(),
                "—".to_string(),
                "—".to_string(),
                "—".to_string(),
            ),
            Some(d) => (
                format!("k={}", d.k),
                d.outcome.to_string(),
                d.links.join(", "),
                format!(
                    "{}/{} delivered{} (seed {})",
                    d.replay.delivered,
                    d.replay.injected,
                    if d.replay.confirms {
                        ", confirmed"
                    } else {
                        ", UNCONFIRMED"
                    },
                    d.replay.seed
                ),
                d.baselines
                    .iter()
                    .map(|b| format!("{} {}/{}", b.scheme, b.delivered, b.injected))
                    .collect::<Vec<_>>()
                    .join("; "),
            ),
        };
        writeln!(
            out,
            "| {} | {}→{} | {} | {} | {} | {} | {} | {} | {} |",
            c.topo,
            c.src,
            c.dst,
            c.technique.label(),
            c.protection,
            breaks,
            outcome,
            witness,
            replay,
            baselines,
        )
        .unwrap();
    }
    out
}

/// Serializes the sweep as the `BENCH_breaking.json` document. Contains
/// no wall-clock fields: the document is a pure function of the
/// configuration, byte-identical across runs and machines, so it can be
/// committed and diffed.
pub fn to_json(cells: &[BreakingCell]) -> String {
    sweep::document("breaking", cells.iter().map(Record::to_json), "")
}

/// `kar-bench fig_breaking` (`BENCH_breaking.json` at the defaults).
/// Exits nonzero when a witness is not confirmed by any replay seed.
pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "fig_breaking",
    "Breaking points: the smallest failure set defeating each (pair, technique, protection)",
    &[
        flag("--max-k", "3", "largest failure-set size searched"),
        TOPO,
        flag("--probes", "20", "probes per replay"),
    ],
    main,
)
.seed(11)
.sweep();

fn main(args: &Args) -> ExitCode {
    let max_k: usize = args.get("--max-k");
    let (t15, rnp) = (topo15::build(), rnp28::build());
    let mut pairs = vec![
        Scenario::new("topo15", &t15, "AS1", "AS3"),
        Scenario::new("rnp28", &rnp, "E_BV", "E_SP"),
        Scenario::new("rnp28", &rnp, "E_BH", "E_113"),
    ];
    pairs.retain(|pair| args.wants_topo(pair.topo_name));
    let probes = args.get("--probes");
    let cells = run(&pairs, max_k, args.seed(), probes, &args.sweep());
    print!("{}", render(&cells));
    let broken = cells.iter().filter(|c| c.breaking.is_some()).count();
    let unconfirmed: Vec<&BreakingCell> = cells
        .iter()
        .filter(|c| c.breaking.as_ref().is_some_and(|d| !d.replay.confirms))
        .collect();
    eprintln!(
        "fig_breaking: {} cells, {} with a breaking point <= k={}, {} unconfirmed replays",
        cells.len(),
        broken,
        max_k,
        unconfirmed.len()
    );
    args.write_document(&to_json(&cells));
    for c in &unconfirmed {
        let d = c.breaking.as_ref().unwrap();
        eprintln!(
            "UNCONFIRMED {}/{}→{}/{}/{}: witness {:?} predicted {} but no replay seed reproduced it",
            c.topo,
            c.src,
            c.dst,
            c.technique.label(),
            c.protection,
            d.links,
            d.outcome
        );
    }
    ExitCode::from(u8::from(!unconfirmed.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_topology::topo15;

    fn run_pair(max_k: usize, seed: u64, probes: u64) -> Vec<BreakingCell> {
        let topo = topo15::build();
        let pair = Scenario::new("topo15", &topo, "AS1", "AS3");
        run(&[pair], max_k, seed, probes, &sweep::Opts::jobs(2))
    }

    #[test]
    fn unprotected_cells_break_and_replays_confirm() {
        let cells = run_pair(2, 11, 20);
        assert_eq!(cells.len(), 3 * DeflectionTechnique::ALL.len());
        // Drop-on-failure without protection breaks on the first primary
        // link — the Fig. 4 premise.
        let none = cells
            .iter()
            .find(|c| c.technique == DeflectionTechnique::None && c.protection == "none")
            .unwrap();
        let d = none.breaking.as_ref().expect("unprotected cell breaks");
        assert_eq!(d.k, 1);
        assert_eq!(d.outcome, Outcome::Blackhole);
        // The acceptance criterion: every reported breaking point's
        // witness replays through the real forwarder reproducing the
        // predicted failure class.
        for c in &cells {
            if let Some(d) = &c.breaking {
                assert!(
                    d.replay.confirms,
                    "{}/{}/{} witness {:?} did not reproduce {} in replay",
                    c.topo,
                    c.technique.label(),
                    c.protection,
                    d.links,
                    d.outcome
                );
                assert!(!d.baselines.is_empty());
            }
        }
    }

    #[test]
    fn protection_never_lowers_the_breaking_point() {
        let cells = run_pair(2, 3, 10);
        let breaks_at = |tech, prot: &str| {
            cells
                .iter()
                .find(|c| c.technique == tech && c.protection == prot)
                .unwrap()
                .breaking
                .as_ref()
                .map_or(usize::MAX, |d| d.k)
        };
        for tech in DeflectionTechnique::ALL {
            assert!(
                breaks_at(tech, "full") >= breaks_at(tech, "none"),
                "{}: full protection broke earlier than none",
                tech.label()
            );
        }
    }

    #[test]
    fn json_is_wellformed_enough_to_commit() {
        let cells = run_pair(1, 5, 10);
        let json = to_json(&cells);
        assert!(json.starts_with("{\n\"experiment\":\"breaking\""));
        assert_eq!(json.matches("\"technique\"").count(), cells.len());
        assert!(json.contains("\"breaking\":{") || json.contains("\"breaking\":null"));
        // Deterministic: same configuration, byte-identical document.
        let again = to_json(&run_pair(1, 5, 10));
        assert_eq!(json, again);
        let text = render(&cells);
        assert!(text.contains("breaking points") || text.contains("Breaking points"));
    }
}
