//! Adversarial & churn scenario suite — the experiment behind the
//! `kar-bench fig_adversary` (`BENCH_adversary.json`).
//!
//! The paper's evaluation assumes fail-stop links and honest switches.
//! This experiment stresses both assumptions at once:
//!
//! * **Targeted link campaigns** fail core links in descending
//!   edge-betweenness order ([`kar_topology::analysis::ranked_links`]) —
//!   the "cut where the shortest paths concentrate" attacker — and are
//!   compared against **random campaigns of matched intensity** (same
//!   link count, same schedule, links drawn uniformly from the same
//!   core-core pool).
//! * **Byzantine switches** ([`kar_simnet::Behavior`]) misforward to
//!   random healthy ports, corrupt route-ID residues in flight, or drop
//!   silently; compromised switches are placed at the highest-load
//!   positions ([`kar_topology::analysis::ranked_core_switches`]).
//! * **Rolling churn** drives Poisson down/up trains on the most loaded
//!   links while the failure-reactive controller repairs concurrently.
//!
//! Every scheme in a cell — KAR's deflection techniques at two
//! protection levels and the table-based baselines of
//! [`kar_baselines`] — faces the **identical attack trace**: the fault
//! plan and Byzantine placement are seeded from `(topology, attack,
//! intensity)` only, never from the scheme, so the comparison isolates
//! the routing scheme. The grid is a [`crate::sweep`] (`--jobs`,
//! `--checkpoint`, `--out`) and every point is one canonical line, so
//! `--jobs N` determinism is testable; the JSON document contains no
//! wall-clock fields and is committed at the repository root.

use crate::cli::{flag, Args, Experiment, TOPO};
use crate::harness::{row, ProbeRun, ProbeScheme};
use crate::record::{label_record, record, Record};
use crate::sweep::{self, keyed_seed};
use kar::recovery::RecoveryConfig;
use kar::{DeflectionTechnique, Protection};
use kar_baselines::TableScheme;
use kar_simnet::{Behavior, DropReason, FaultPlan, FlowId, SimTime};
use kar_topology::{analysis, paths, NodeId, Topology};
use kar_topology::{rnp28, topo15};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::process::ExitCode;

/// One attack family, parameterized by an intensity `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Fail the `n` highest-betweenness core links, one every interval.
    TargetedLinks,
    /// Fail `n` uniformly drawn core links on the same schedule — the
    /// matched-intensity control for [`AttackKind::TargetedLinks`].
    RandomLinks,
    /// Poisson down/up trains on the `2n` most loaded core links,
    /// concurrent with controller repair.
    RollingChurn,
    /// The `n` highest-load core switches forward every packet out a
    /// random healthy port.
    ByzMisforward,
    /// The `n` highest-load core switches rewrite route-ID residues in
    /// flight.
    ByzCorrupt,
    /// The `n` highest-load core switches silently discard all traffic.
    ByzDrop,
}

impl AttackKind {
    /// Every attack family, in render order.
    pub const ALL: [AttackKind; 6] = [
        AttackKind::TargetedLinks,
        AttackKind::RandomLinks,
        AttackKind::RollingChurn,
        AttackKind::ByzMisforward,
        AttackKind::ByzCorrupt,
        AttackKind::ByzDrop,
    ];

    /// Stable kebab-case label (used in seeds, JSON and tables).
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::TargetedLinks => "targeted-links",
            AttackKind::RandomLinks => "random-links",
            AttackKind::RollingChurn => "rolling-churn",
            AttackKind::ByzMisforward => "byz-misforward",
            AttackKind::ByzCorrupt => "byz-corrupt",
            AttackKind::ByzDrop => "byz-drop",
        }
    }

    /// The switch behavior this attack installs, when it is a Byzantine
    /// attack rather than a link campaign.
    pub fn byzantine_behavior(self) -> Option<Behavior> {
        match self {
            AttackKind::ByzMisforward => Some(Behavior::Misforward),
            AttackKind::ByzCorrupt => Some(Behavior::CorruptResidue),
            AttackKind::ByzDrop => Some(Behavior::DropSilently),
            _ => None,
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

label_record!(AttackKind, AttackKind::ALL);

/// One routing scheme under attack: a KAR technique at a protection
/// level, or a table-based baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSpec {
    /// KAR dataplane with the failure-reactive controller enabled.
    Kar {
        /// Deflection technique.
        technique: DeflectionTechnique,
        /// Protection level label: `"none"` or `"full"`.
        protection: &'static str,
    },
    /// A precomputed-table comparator from [`kar_baselines`].
    Table(TableScheme),
}

impl SchemeSpec {
    /// Display label, e.g. `"NIP/full"` or `"FastFailover"`.
    pub fn label(self) -> String {
        match self {
            SchemeSpec::Kar {
                technique,
                protection,
            } => format!("{}/{}", technique.label(), protection),
            SchemeSpec::Table(t) => t.label().to_string(),
        }
    }
}

/// The scheme grid: HP/AVP/NIP at `none` and `full` protection, plus
/// the default table-based comparators — 8 schemes per cell.
pub fn schemes() -> Vec<SchemeSpec> {
    let mut out = Vec::new();
    for technique in [
        DeflectionTechnique::HotPotato,
        DeflectionTechnique::Avp,
        DeflectionTechnique::Nip,
    ] {
        for protection in ["none", "full"] {
            out.push(SchemeSpec::Kar {
                technique,
                protection,
            });
        }
    }
    out.extend(TableScheme::DEFAULT.into_iter().map(SchemeSpec::Table));
    out
}

/// Knobs of one adversary sweep.
#[derive(Debug, Clone)]
pub struct AdversaryConfig {
    /// Probes injected per flow (one per `gap`).
    pub probes: u64,
    /// Inter-injection gap per flow.
    pub gap: SimTime,
    /// Data-plane failure-detection delay.
    pub detection: SimTime,
    /// Controller notification delay on top of detection (KAR schemes).
    pub notification: SimTime,
    /// Base RNG seed; attack traces and sims derive from it.
    pub seed: u64,
    /// Attack intensities `n` to sweep.
    pub intensities: Vec<u32>,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            probes: 120,
            gap: SimTime::from_micros(300),
            detection: SimTime::from_micros(200),
            notification: SimTime::from_millis(1),
            seed: 23,
            intensities: vec![1, 2, 4],
        }
    }
}

record! {
    /// One measured grid point — its `BENCH_adversary.json` cell and,
    /// prefixed with `experiment`, its run summary in the metrics dump.
    /// The line carries every simulated quantity, so two runs of the
    /// same grid point are deterministic exactly when their lines match
    /// (the `--jobs` conformance property).
    #[derive(Debug, Clone, PartialEq)]
    pub struct AdversaryPoint {
        /// Topology name (`"topo15"`, `"rnp28"`).
        pub topo: String,
        /// Attack family.
        pub attack: AttackKind,
        /// Attack intensity `n`.
        pub intensity: u32,
        /// Scheme label (see [`SchemeSpec::label`]).
        pub scheme: String,
        /// Probes injected (all flows).
        pub injected: u64,
        /// Probes delivered.
        pub delivered: u64,
        /// Probes dropped (all reasons).
        pub dropped: u64,
        /// Delivered / injected.
        pub reachability: f64,
        /// Mean delivered hops relative to each flow's fault-free
        /// shortest path (NaN when nothing was delivered).
        pub stretch: f64,
        /// Drops classified as tampered residues
        /// ([`DropReason::CorruptedResidue`]) — corruption *detected* by
        /// the residue range check.
        pub corrupted_residue_drops: u64,
        /// Packets a Byzantine switch silently discarded.
        pub adversary_drops: u64,
        /// Packets pushed out a port the honest forwarder did not choose.
        pub byzantine_misforwards: u64,
        /// Route tags rewritten in flight.
        pub byzantine_corruptions: u64,
        /// Packets discarded by [`Behavior::DropSilently`] switches as
        /// counted by the engine's Byzantine counter (must equal the
        /// [`DropReason::AdversaryDrop`] bucket).
        pub byzantine_drops: u64,
        /// Physical link up→down transitions.
        pub link_failures: u64,
        /// Physical down→up transitions.
        pub link_repairs: u64,
        /// Flows the controller re-encoded onto a detour (0 for
        /// baselines, which have no controller).
        pub recovered_flows: usize,
        /// Mean failure-detection → recovered-traffic latency in seconds
        /// (NaN when no flow recovered).
        pub mean_recovery_latency_s: f64,
    }
}

/// Seed of the attack trace — a function of `(topology, attack,
/// intensity)` and the base seed ONLY, so every scheme in a cell faces
/// the identical trace.
fn attack_seed(cfg: &AdversaryConfig, topo: &str, attack: AttackKind, n: u32) -> u64 {
    keyed_seed(cfg.seed, &format!("{topo}/{attack}/{n}"))
}

/// Seed of one scheme's simulation (adds the scheme to the key so e.g.
/// HP's random walk and PathSplicing's slices draw independent streams).
fn sim_seed(cfg: &AdversaryConfig, topo: &str, attack: AttackKind, n: u32, scheme: &str) -> u64 {
    keyed_seed(cfg.seed, &format!("{topo}/{attack}/{n}/{scheme}"))
}

/// All campaigns start here: flows are warmed up, then the attack lands
/// mid-traffic.
const ATTACK_START: SimTime = SimTime(10_000_000);
/// One campaign failure every 4 ms.
const CAMPAIGN_INTERVAL: SimTime = SimTime(4_000_000);
/// Churn runs for 30 ms past the attack start.
const CHURN_HORIZON: SimTime = SimTime(30_000_000);
/// Mean Poisson gap between outages of one churned link.
const CHURN_MEAN_GAP: SimTime = SimTime(6_000_000);
/// Mean Poisson outage duration.
const CHURN_MEAN_DOWNTIME: SimTime = SimTime(3_000_000);

/// Builds the link-level fault plan of one attack trace, or `None` for
/// the Byzantine attacks (which fail no links).
fn attack_plan(topo: &Topology, attack: AttackKind, n: u32, plan_seed: u64) -> Option<FaultPlan> {
    let ranked = analysis::ranked_links(topo);
    let count = (n as usize).min(ranked.len());
    match attack {
        AttackKind::TargetedLinks => Some(FaultPlan::new(plan_seed).campaign(
            ranked[..count].to_vec(),
            ATTACK_START,
            CAMPAIGN_INTERVAL,
        )),
        AttackKind::RandomLinks => {
            // Matched intensity: same pool, same count, same schedule —
            // only the link choice differs (uniform, from the plan seed).
            let mut pool = ranked;
            let mut rng = StdRng::seed_from_u64(plan_seed);
            pool.shuffle(&mut rng);
            pool.truncate(count);
            Some(FaultPlan::new(plan_seed).campaign(pool, ATTACK_START, CAMPAIGN_INTERVAL))
        }
        AttackKind::RollingChurn => {
            let churned = (2 * n as usize).min(ranked.len());
            Some(FaultPlan::new(plan_seed).churn(
                ranked[..churned].to_vec(),
                ATTACK_START,
                CHURN_HORIZON,
                CHURN_MEAN_GAP,
                CHURN_MEAN_DOWNTIME,
            ))
        }
        _ => None,
    }
}

/// The Byzantine placement of one attack trace: the `n` highest-load
/// core switches, all running the attack's behavior.
fn byzantine_set(topo: &Topology, attack: AttackKind, n: u32) -> Vec<(NodeId, Behavior)> {
    let Some(behavior) = attack.byzantine_behavior() else {
        return Vec::new();
    };
    let ranked = analysis::ranked_core_switches(topo);
    ranked
        .into_iter()
        .take(n as usize)
        .map(|node| (node, behavior))
        .collect()
}

/// Fault-free shortest-path core hops of each flow — the stretch
/// denominator (edge hosts don't forward, so a path of `len` nodes
/// crosses `len - 2` core switches).
fn nominal_hops(topo: &Topology, flows: &[(NodeId, NodeId)]) -> Vec<u64> {
    flows
        .iter()
        .map(|&(src, dst)| {
            let path = paths::bfs_shortest_path(topo, src, dst).expect("flow pair connected");
            path.len().saturating_sub(2) as u64
        })
        .collect()
}

/// Runs one `(topology, attack, intensity, scheme)` point. The fault
/// plan and Byzantine placement derive from the attack trace seed
/// (scheme-independent); only the simulation seed knows the scheme.
pub fn run_point(
    topo: &Topology,
    topo_name: &str,
    flows: &[(NodeId, NodeId)],
    attack: AttackKind,
    intensity: u32,
    scheme: SchemeSpec,
    cfg: &AdversaryConfig,
) -> AdversaryPoint {
    let plan_seed = attack_seed(cfg, topo_name, attack, intensity);
    let plan = attack_plan(topo, attack, intensity, plan_seed);
    let byz = byzantine_set(topo, attack, intensity);
    let probe_scheme = match scheme {
        SchemeSpec::Kar {
            technique,
            protection,
        } => ProbeScheme::Kar {
            technique,
            protection: match protection {
                "none" => Protection::None,
                "full" => Protection::AutoFull,
                other => unreachable!("unknown protection level {other}"),
            },
            recovery: Some(RecoveryConfig {
                notification_delay: cfg.notification,
                protection: Protection::None,
            }),
        },
        SchemeSpec::Table(table) => ProbeScheme::Table(table),
    };
    let obs = crate::obs::RunObs::begin();
    let outcome = ProbeRun {
        probes: cfg.probes,
        gap: cfg.gap,
        seed: sim_seed(cfg, topo_name, attack, intensity, &scheme.label()),
        detection: cfg.detection,
        plan: plan.as_ref(),
        byzantine: &byz,
        ..ProbeRun::new(topo, probe_scheme, flows)
    }
    .run(&obs);
    let stats = &outcome.stats;
    let nominals = nominal_hops(topo, flows);
    let nominal_total: u64 = nominals
        .iter()
        .enumerate()
        .map(|(f, nominal)| {
            let delivered = stats
                .flows
                .get(&FlowId(f as u32))
                .map_or(0, |fs| fs.delivered_pkts);
            delivered * nominal
        })
        .sum();
    let point = AdversaryPoint {
        topo: topo_name.to_string(),
        attack,
        intensity,
        scheme: scheme.label(),
        injected: stats.injected,
        delivered: stats.delivered,
        dropped: stats.dropped(),
        reachability: stats.delivery_ratio(),
        stretch: stats.total_hops as f64 / nominal_total as f64,
        corrupted_residue_drops: stats.dropped_for(DropReason::CorruptedResidue),
        adversary_drops: stats.dropped_for(DropReason::AdversaryDrop),
        byzantine_misforwards: stats.byzantine_misforwards,
        byzantine_corruptions: stats.byzantine_corruptions,
        byzantine_drops: stats.byzantine_drops,
        link_failures: stats.link_failures,
        link_repairs: stats.link_repairs,
        recovered_flows: outcome.recovered_flows(),
        mean_recovery_latency_s: outcome.mean_recovery_latency_s(),
    };
    obs.submit_summary(
        &format!(
            "fig_adversary/{topo_name}/{}/n{intensity}/{}",
            attack.label(),
            scheme.label()
        ),
        topo,
        "fig_adversary",
        &point.to_json(),
    );
    point
}

/// The flow set of one topology: every attack runs the same multi-flow
/// workload so reachability aggregates over independent paths.
pub fn flow_set(topo: &Topology, topo_name: &str) -> Vec<(NodeId, NodeId)> {
    let pairs: &[(&str, &str)] = match topo_name {
        "topo15" => &[
            ("AS1", "AS3"),
            ("AS3", "AS1"),
            ("AS1", "AS2"),
            ("AS2", "AS3"),
        ],
        "rnp28" => &[
            ("E_BV", "E_SP"),
            ("E_SP", "E_BV"),
            ("E_BH", "E_113"),
            ("E_113", "E_BH"),
        ],
        other => unreachable!("unknown topology {other}"),
    };
    pairs
        .iter()
        .map(|&(s, d)| (topo.expect(s), topo.expect(d)))
        .collect()
}

/// Runs the attack × intensity × scheme grid on each `(name, topology)`
/// (byte-identical results at any job count, resumable from
/// `opts.checkpoint`).
pub fn run(
    cfg: &AdversaryConfig,
    topos: &[(&str, &Topology)],
    opts: &sweep::Opts,
) -> Vec<AdversaryPoint> {
    let flows: Vec<Vec<(NodeId, NodeId)>> = topos
        .iter()
        .map(|(name, topo)| flow_set(topo, name))
        .collect();
    let mut grid: Vec<(usize, AttackKind, u32, SchemeSpec)> = Vec::new();
    for t in 0..topos.len() {
        for attack in AttackKind::ALL {
            for &n in &cfg.intensities {
                grid.extend(schemes().into_iter().map(|s| (t, attack, n, s)));
            }
        }
    }
    let join = |parts: Vec<String>| parts.join("+");
    let fingerprint = format!(
        "adversary-v1 seed={} probes={} gap={} detection={} notification={} intensities={} topos={}",
        cfg.seed,
        cfg.probes,
        cfg.gap.0,
        cfg.detection.0,
        cfg.notification.0,
        join(cfg.intensities.iter().map(u32::to_string).collect()),
        join(topos.iter().map(|(name, _)| name.to_string()).collect()),
    );
    sweep::typed(&sweep::run(
        opts,
        &fingerprint,
        &grid,
        |&(t, attack, n, scheme)| format!("{}/{attack}/{n}/{}", topos[t].0, scheme.label()),
        |&(t, attack, n, scheme)| {
            let (name, topo) = topos[t];
            run_point(topo, name, &flows[t], attack, n, scheme, cfg).to_json()
        },
    ))
}

record! {
    /// Mean reachability of the targeted campaign vs its
    /// matched-intensity random control, per `(topology, intensity)` —
    /// positive `gap` means the targeted attack degrades reachability
    /// faster.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GapReport {
        /// Topology name.
        pub topo: String,
        /// Attack intensity.
        pub intensity: u32,
        /// Mean reachability under [`AttackKind::TargetedLinks`].
        pub targeted: f64,
        /// Mean reachability under [`AttackKind::RandomLinks`].
        pub random: f64,
        /// `random - targeted`.
        pub gap: f64,
    }
}

/// Computes the targeted-vs-random gap over all schemes of each
/// `(topology, intensity)` cell present in `points`.
pub fn targeted_vs_random(points: &[AdversaryPoint]) -> Vec<GapReport> {
    let mut keys: Vec<(&str, u32)> = points
        .iter()
        .filter(|p| p.attack == AttackKind::TargetedLinks)
        .map(|p| (p.topo.as_str(), p.intensity))
        .collect();
    keys.sort();
    keys.dedup();
    let mean = |topo: &str, n: u32, attack: AttackKind| -> f64 {
        let vals: Vec<f64> = points
            .iter()
            .filter(|p| p.topo == topo && p.intensity == n && p.attack == attack)
            .map(|p| p.reachability)
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    keys.into_iter()
        .map(|(topo, n)| {
            let targeted = mean(topo, n, AttackKind::TargetedLinks);
            let random = mean(topo, n, AttackKind::RandomLinks);
            GapReport {
                topo: topo.to_string(),
                intensity: n,
                targeted,
                random,
                gap: random - targeted,
            }
        })
        .collect()
}

/// Renders the grid and gap summary as markdown tables.
pub fn render(points: &[AdversaryPoint], gaps: &[GapReport]) -> String {
    let mut out = String::from(
        "Adversarial & churn suite — reachability under attack\n\
         | topo | attack | n | scheme | delivered | reach | stretch | byz (misfwd/corrupt/drop) | corrupt detected | failures/repairs | recovered | mean recovery |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for p in points {
        out.push_str(&row(&[
            p.topo.to_string(),
            p.attack.label().to_string(),
            format!("{}", p.intensity),
            p.scheme.clone(),
            format!("{}/{}", p.delivered, p.injected),
            format!("{:.3}", p.reachability),
            if p.stretch.is_finite() {
                format!("{:.2}", p.stretch)
            } else {
                "-".to_string()
            },
            format!(
                "{}/{}/{}",
                p.byzantine_misforwards, p.byzantine_corruptions, p.adversary_drops
            ),
            format!("{}", p.corrupted_residue_drops),
            format!("{}/{}", p.link_failures, p.link_repairs),
            format!("{}", p.recovered_flows),
            if p.recovered_flows == 0 {
                "-".to_string()
            } else {
                format!("{:.2} ms", p.mean_recovery_latency_s * 1e3)
            },
        ]));
        out.push('\n');
    }
    out.push_str(
        "\nTargeted vs random campaigns (mean reachability over all schemes)\n\
         | topo | n | targeted | random | gap |\n\
         |---|---|---|---|---|\n",
    );
    for g in gaps {
        out.push_str(&row(&[
            g.topo.to_string(),
            format!("{}", g.intensity),
            format!("{:.3}", g.targeted),
            format!("{:.3}", g.random),
            format!("{:+.3}", g.gap),
        ]));
        out.push('\n');
    }
    out
}

/// Serializes the sweep as the `BENCH_adversary.json` document. No
/// wall-clock fields: a pure function of the configuration,
/// byte-identical across runs and machines, committed at the repository
/// root so shifts in the attack-resilience frontier show up in review
/// diffs.
pub fn to_json(points: &[AdversaryPoint], gaps: &[GapReport]) -> String {
    let gaps = sweep::lines(gaps.iter().map(GapReport::to_json));
    let tail = format!(",\n\"targeted_vs_random\":[\n{gaps}]");
    sweep::document("adversary", points.iter().map(Record::to_json), &tail)
}

/// `kar-bench fig_adversary` (`BENCH_adversary.json` at the defaults).
/// Exits nonzero when the targeted campaign fails to degrade rnp28
/// reachability faster than the matched random campaign at the highest
/// intensity — the betweenness ranking's acceptance criterion.
pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "fig_adversary",
    "Targeted/random campaigns, Byzantine switches and churn vs KAR and the baselines",
    &[
        TOPO,
        flag("--probes", "120", "probes per flow"),
        flag("--intensities", "1,2,4", "comma-separated intensities"),
    ],
    main,
)
.seed(23)
.sweep();

fn main(args: &Args) -> ExitCode {
    let list: &str = args.opt("--intensities").unwrap_or_default();
    let Ok(intensities) = list
        .split(',')
        .map(str::parse)
        .collect::<Result<Vec<u32>, _>>()
    else {
        return args.refuse(&format!("--intensities takes numbers, not {list}"));
    };
    let cfg = AdversaryConfig {
        seed: args.seed(),
        probes: args.get("--probes"),
        intensities,
        ..AdversaryConfig::default()
    };
    let (t15, rnp) = (topo15::build(), rnp28::build());
    let topos: Vec<(&str, &Topology)> = [("topo15", &t15), ("rnp28", &rnp)]
        .into_iter()
        .filter(|(name, _)| args.wants_topo(name))
        .collect();
    let points = run(&cfg, &topos, &args.sweep());
    let gaps = targeted_vs_random(&points);
    print!("{}", render(&points, &gaps));
    eprintln!(
        "fig_adversary: {} cells over {} intensities, {} gap rows",
        points.len(),
        cfg.intensities.len(),
        gaps.len()
    );
    args.write_document(&to_json(&points, &gaps));
    let top = cfg.intensities.iter().copied().max().unwrap_or(0);
    let regressed = gaps
        .iter()
        .find(|g| g.topo == "rnp28" && g.intensity == top && g.gap <= 0.0);
    if let Some(g) = regressed {
        eprintln!(
            "REGRESSION rnp28 n={}: targeted campaign ({:.3}) did not degrade \
             reachability below the random control ({:.3})",
            g.intensity, g.targeted, g.random
        );
    }
    ExitCode::from(u8::from(regressed.is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_topology::topo15;

    fn run_topo15(cfg: &AdversaryConfig, jobs: usize) -> Vec<AdversaryPoint> {
        run(
            cfg,
            &[("topo15", &topo15::build())],
            &sweep::Opts::jobs(jobs),
        )
    }

    /// A grid small enough for debug-mode CI: one intensity, topo15.
    fn quick() -> AdversaryConfig {
        AdversaryConfig {
            probes: 40,
            intensities: vec![1],
            ..AdversaryConfig::default()
        }
    }

    #[test]
    fn grid_covers_attacks_and_schemes() {
        let cfg = quick();
        let points = run_topo15(&cfg, 2);
        assert_eq!(points.len(), AttackKind::ALL.len() * schemes().len());
        for p in &points {
            assert_eq!(p.injected, 40 * 4, "{}", p.to_json());
            assert_eq!(p.injected, p.delivered + p.dropped, "{}", p.to_json());
            assert!((0.0..=1.0).contains(&p.reachability), "{}", p.to_json());
        }
    }

    #[test]
    fn parallel_grid_is_byte_identical_to_serial() {
        let cfg = quick();
        let serial = run_topo15(&cfg, 1);
        let parallel = run_topo15(&cfg, 4);
        // Lines, not values: NaN fields compare unequal to themselves.
        let lines = |ps: &[AdversaryPoint]| -> Vec<String> {
            ps.iter().map(AdversaryPoint::to_json).collect()
        };
        assert_eq!(lines(&serial), lines(&parallel));
    }

    #[test]
    fn byzantine_attacks_register_on_the_right_counters() {
        let topo = topo15::build();
        let flows = flow_set(&topo, "topo15");
        let cfg = quick();
        let nip = SchemeSpec::Kar {
            technique: DeflectionTechnique::Nip,
            protection: "none",
        };
        let drop = run_point(&topo, "topo15", &flows, AttackKind::ByzDrop, 1, nip, &cfg);
        assert!(drop.adversary_drops > 0, "{}", drop.to_json());
        assert_eq!(drop.adversary_drops, drop.byzantine_drops);
        // Deflecting techniques absorb a tampered residue as a
        // deflection, so corruption surfaces as path stretch, not drops.
        let corrupt = run_point(
            &topo,
            "topo15",
            &flows,
            AttackKind::ByzCorrupt,
            1,
            nip,
            &cfg,
        );
        assert!(corrupt.byzantine_corruptions > 0, "{}", corrupt.to_json());
        assert!(
            corrupt.stretch > 1.5,
            "corruption under NIP shows up as detours: {}",
            corrupt.to_json()
        );
        // The drop-on-failure plane is where the residue range check
        // actually classifies tampering (DropReason::CorruptedResidue).
        let plain = SchemeSpec::Kar {
            technique: DeflectionTechnique::None,
            protection: "none",
        };
        let caught = run_point(
            &topo,
            "topo15",
            &flows,
            AttackKind::ByzCorrupt,
            1,
            plain,
            &cfg,
        );
        assert!(
            caught.corrupted_residue_drops > 0,
            "tampered residues must trip the range check: {}",
            caught.to_json()
        );
        let misfwd = run_point(
            &topo,
            "topo15",
            &flows,
            AttackKind::ByzMisforward,
            1,
            nip,
            &cfg,
        );
        assert!(misfwd.byzantine_misforwards > 0, "{}", misfwd.to_json());
    }

    #[test]
    fn attack_traces_are_scheme_independent() {
        let topo = topo15::build();
        let cfg = quick();
        let seed = attack_seed(&cfg, "topo15", AttackKind::TargetedLinks, 2);
        let a = attack_plan(&topo, AttackKind::TargetedLinks, 2, seed).unwrap();
        let b = attack_plan(&topo, AttackKind::TargetedLinks, 2, seed).unwrap();
        assert_eq!(a.compile(&topo), b.compile(&topo));
        // Random campaigns match the targeted intensity: same number of
        // failure events on the same schedule.
        let r = attack_plan(&topo, AttackKind::RandomLinks, 2, seed).unwrap();
        let targeted = a.compile(&topo);
        let random = r.compile(&topo);
        assert_eq!(targeted.len(), random.len());
        for (t, r) in targeted.iter().zip(random.iter()) {
            assert_eq!(t.at, r.at, "matched schedule");
        }
    }

    #[test]
    fn gap_report_covers_every_cell_once() {
        let cfg = quick();
        let points = run_topo15(&cfg, 2);
        let gaps = targeted_vs_random(&points);
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].topo, "topo15");
        assert_eq!(gaps[0].intensity, 1);
        assert!((gaps[0].gap - (gaps[0].random - gaps[0].targeted)).abs() < 1e-12);
        let json = to_json(&points, &gaps);
        assert!(json.contains("\"targeted_vs_random\":["));
        assert!(json.contains("\"experiment\":\"adversary\""));
        assert!(!render(&points, &gaps).is_empty());
    }
}
