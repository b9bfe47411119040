//! Hierarchical-domain sweep (`BENCH_hier.json`): flat vs two-level
//! hierarchical KAR vs the table-based baselines, 512→4096 switches.
//!
//! The scale campaign (`BENCH_scale.json`) charts KAR's key-growth
//! wall: flat route-ID bits grow with path length, so a 4096-switch
//! ring needs multi-kilobit headers. This sweep measures the cure. Each
//! `(family, switches)` point is partitioned into domains of roughly
//! [`HierConfig::domain_target`] switches ([`Partition::auto`]), and
//! four schemes are compared on the *same* deterministic pair sample:
//!
//! * **flat** — one CRT route ID over the whole path (unprotected),
//!   driven through a traffic sim with one mid-path failure and the
//!   failure-reactive recovery loop;
//! * **hier** — per-domain segments re-stamped at boundary crossings
//!   (a partitioned [`kar::Planner`], [`LinkView::Avoiding`]), same sim, plus a
//!   flat-vs-hier verification sample proving boundary re-encoding adds
//!   no new loop/blackhole classes;
//! * **fast_failover** / **splicing** — the `kar-baselines` table
//!   schemes: zero header bits but per-switch state that grows with the
//!   destination set (no traffic sim; their cost axis is state).
//!
//! Wall-clock is deliberately never measured: the emitted document is a
//! pure function of the configuration, byte-identical across machines,
//! so CI can `cmp` a fresh default-flag run against the committed file.

use crate::campaign::Family;
use crate::cli::{flag, Args, Experiment};
use crate::harness::{nominal_core_hops, sample_pairs, DrawStream, FleetOutcome, FleetRun};
use crate::obs::RunObs;
use crate::sweep::{self, cell_text, keyed_seed};
use kar::{
    verify_hier_route, verify_route, DeflectionTechnique, LinkView, Outcome, Planner, Protection,
};
use kar_baselines::{FastFailover, PathSplicing};
use kar_obs::json::{Json, Obj};
use kar_rns::IdStrategy;
use kar_simnet::{EdgeLogic, SimTime};
use kar_topology::{paths, LinkId, NodeId, Partition, Topology};
use std::collections::{BTreeSet, HashSet};
use std::process::ExitCode;
use std::sync::Arc;

/// Routing scheme of a sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Flat KAR: one route ID over the whole path.
    Flat,
    /// Two-level hierarchical KAR: per-domain segments.
    Hier,
    /// Fast-failover tables (zero header, per-switch state).
    FastFailover,
    /// Path-splicing slices (zero header, k× per-switch state).
    Splicing,
}

impl Scheme {
    /// Stable label used in cell keys and JSON records.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Flat => "flat",
            Scheme::Hier => "hier",
            Scheme::FastFailover => "fast_failover",
            Scheme::Splicing => "splicing",
        }
    }

    /// Every scheme, in sweep order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Flat,
        Scheme::Hier,
        Scheme::FastFailover,
        Scheme::Splicing,
    ];
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierCell {
    /// Topology family.
    pub family: Family,
    /// Core switch count.
    pub switches: usize,
    /// Routing scheme.
    pub scheme: Scheme,
}

impl HierCell {
    /// The cell's stable key (`family/switches/scheme`).
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.family.label(),
            self.switches,
            self.scheme.label()
        )
    }
}

/// Sweep configuration. `Default` is the full 512→4096 sweep.
#[derive(Debug, Clone)]
pub struct HierConfig {
    /// Base seed; placement is derived per `(family, switches)` so every
    /// scheme sees identical pairs.
    pub seed: u64,
    /// Switch counts to sweep.
    pub sizes: Vec<usize>,
    /// Families to sweep.
    pub families: Vec<Family>,
    /// Target switches per domain; the partition gets
    /// `max(2, switches / domain_target)` domains.
    pub domain_target: usize,
    /// Sampled `(src, dst)` pairs per cell.
    pub pairs: usize,
    /// Datagrams each pair sends in the traffic sim.
    pub packets_per_pair: u64,
    /// Pairs carried into the flat-vs-hier verification sample.
    pub verify_pairs: usize,
    /// Single-link failures verified per pair (primary-path links
    /// first, then a stride over the remaining links).
    pub verify_links: usize,
}

impl Default for HierConfig {
    fn default() -> Self {
        HierConfig {
            seed: 1,
            sizes: vec![512, 1024, 2048, 4096],
            families: Family::ALL.to_vec(),
            domain_target: 64,
            pairs: 24,
            packets_per_pair: 8,
            verify_pairs: 2,
            verify_links: 16,
        }
    }
}

impl HierConfig {
    /// The cell grid in deterministic order: family-major, then size,
    /// then scheme.
    pub fn cells(&self) -> Vec<HierCell> {
        let mut out = Vec::new();
        for &family in &self.families {
            for &switches in &self.sizes {
                for &scheme in &Scheme::ALL {
                    out.push(HierCell {
                        family,
                        switches,
                        scheme,
                    });
                }
            }
        }
        out
    }

    /// Configuration fingerprint (see the sweep engine's contract: two
    /// checkpoints interoperate exactly when fingerprints match).
    pub fn fingerprint(&self) -> String {
        let join = |parts: Vec<String>| parts.join("+");
        format!(
            "hier-v1 seed={} sizes={} families={} domain={} pairs={} ppf={} vpairs={} vlinks={}",
            self.seed,
            join(self.sizes.iter().map(|n| n.to_string()).collect()),
            join(
                self.families
                    .iter()
                    .map(|f| f.label().to_string())
                    .collect()
            ),
            self.domain_target,
            self.pairs,
            self.packets_per_pair,
            self.verify_pairs,
            self.verify_links,
        )
    }

    /// The placement seed of a `(family, switches)` point — shared by
    /// every scheme so their pair samples are identical.
    fn placement_seed(&self, family: Family, switches: usize) -> u64 {
        keyed_seed(self.seed, &format!("{}/{}", family.label(), switches))
    }

    /// Domains requested for `switches` switches.
    fn domains_for(&self, switches: usize) -> usize {
        (switches / self.domain_target).max(2)
    }
}

/// Everything one completed cell reports.
#[derive(Debug, Clone, Default)]
pub struct HierRecord {
    /// Cell key (`family/switches/scheme`).
    pub key: String,
    /// Topology family label.
    pub family: String,
    /// Core switches requested.
    pub switches: usize,
    /// Scheme label.
    pub scheme: String,
    /// Placement seed of the `(family, switches)` point.
    pub seed: u64,
    /// ID allocation ceiling, when the strategy could not cover the
    /// cell (all other fields stay zero).
    pub gen_error: Option<usize>,
    /// Edge hosts.
    pub hosts: usize,
    /// Links.
    pub links: usize,
    /// Distinct `(src, dst)` pairs measured.
    pub pairs: usize,
    /// Domains of the partition (hier only, 0 otherwise).
    pub domains: usize,
    /// Domain-boundary links (hier only).
    pub boundary_links: usize,
    /// Worst-case bits a packet of this scheme carries (flat: largest
    /// route ID; hier: largest *segment* ID; tables: 0).
    pub header_bits_max: u32,
    /// Per-switch forwarding state summed over the network (tables
    /// only; KAR cores are stateless).
    pub state_entries: usize,
    /// Mean nominal (failure-free shortest-path) core hops per flow.
    pub nominal_hops_mean: f64,
    /// Boundary re-encodes on the nominal routes (hier only).
    pub planned_reencodes: usize,
    /// Traffic-sim results (flat and hier schemes only): one mid-path
    /// link failure, NIP deflection.
    pub traffic: Option<FleetOutcome>,
    /// Flat-vs-hier verification sample (hier scheme only).
    pub verify: Option<VerifyOutcome>,
}

/// Flat-vs-hier verification tallies over the sampled failure cases.
///
/// Two hierarchical postures are verified per case. The **deployed**
/// posture (failure-aware controller, matching the traffic sim's
/// configuration) feeds `hier_*` and the `new_violation_classes` gate.
/// The **transient** posture (failure-unaware controller — segments
/// planned on the intact topology, the same knowledge state as the
/// flat comparator's stale route) is reported as data: before the
/// failure notice lands, a boundary re-stamp can point a deflected
/// packet straight back at the failed link, so the hierarchical
/// transient can wander-loop on host-sparse topologies where flat KAR's
/// whole-path residues happen to absorb the wanderer.
#[derive(Debug, Clone, Default)]
pub struct VerifyOutcome {
    /// Cases examined (pairs × sampled links).
    pub cases: usize,
    /// Flat (stale-route) cases classified as inescapable loops.
    pub flat_loops: usize,
    /// Flat (stale-route) cases classified as blackholes.
    pub flat_blackholes: usize,
    /// Deployed-posture hier cases classified as inescapable loops.
    pub hier_loops: usize,
    /// Deployed-posture hier cases classified as blackholes (including
    /// ingress drops when the failure disconnects the pair).
    pub hier_blackholes: usize,
    /// Transient-posture hier cases classified as inescapable loops.
    pub transient_hier_loops: usize,
    /// Transient-posture hier cases classified as blackholes.
    pub transient_hier_blackholes: usize,
    /// Violation classes present in the deployed-posture hier tally but
    /// absent from the flat one — the acceptance gate demands 0.
    pub new_violation_classes: usize,
    /// Violation classes present in the transient-posture hier tally
    /// but absent from the flat one (informational).
    pub transient_new_classes: usize,
}

impl HierRecord {
    /// Serializes as one JSON object on a single line.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new()
            .str("cell", &self.key)
            .str("family", &self.family)
            .num("switches", self.switches)
            .str("scheme", &self.scheme)
            .num("seed", self.seed)
            .opt("gen_error_achieved", self.gen_error)
            .num("hosts", self.hosts)
            .num("links", self.links)
            .num("pairs", self.pairs)
            .num("domains", self.domains)
            .num("boundary_links", self.boundary_links)
            .num("header_bits_max", self.header_bits_max)
            .num("state_entries", self.state_entries)
            .f64("nominal_hops_mean", self.nominal_hops_mean)
            .num("planned_reencodes", self.planned_reencodes);
        if let Some(t) = &self.traffic {
            let mean_hops = t.stats.mean_hops().unwrap_or(0.0);
            let stretch = if self.nominal_hops_mean > 0.0 {
                mean_hops / self.nominal_hops_mean
            } else {
                0.0
            };
            o = o
                .num("injected", t.stats.injected)
                .num("delivered", t.stats.delivered)
                .f64("delivery_ratio", t.stats.delivery_ratio())
                .f64("mean_hops", mean_hops)
                .f64("stretch", stretch)
                .num("deflections", t.stats.deflections)
                .num("boundary_restamps", t.boundary_restamps);
        }
        if let Some(v) = &self.verify {
            o = o
                .num("verify_cases", v.cases)
                .num("flat_loops", v.flat_loops)
                .num("flat_blackholes", v.flat_blackholes)
                .num("hier_loops", v.hier_loops)
                .num("hier_blackholes", v.hier_blackholes)
                .num("transient_hier_loops", v.transient_hier_loops)
                .num("transient_hier_blackholes", v.transient_hier_blackholes)
                .num("verify_new_classes", v.new_violation_classes)
                .num("transient_new_classes", v.transient_new_classes);
        }
        o.finish()
    }
}

/// The shared per-point context every scheme derives its record from.
struct Point {
    topo: Topology,
    pairs: Vec<(NodeId, NodeId)>,
    distinct: Vec<(NodeId, NodeId)>,
    nominal_hops_mean: f64,
    seed: u64,
}

fn build_point(cfg: &HierConfig, cell: &HierCell) -> Result<Point, usize> {
    let seed = cfg.placement_seed(cell.family, cell.switches);
    let topo = cell
        .family
        .build(cell.switches, seed, IdStrategy::SmallestPrimes)
        .map_err(|e| e.assigned)?;
    let hosts = topo.edge_nodes();
    let pairs = sample_pairs(&hosts, cfg.pairs, &mut DrawStream::new(seed));
    let distinct: Vec<(NodeId, NodeId)> = pairs
        .iter()
        .copied()
        .collect::<BTreeSet<(NodeId, NodeId)>>()
        .into_iter()
        .collect();
    // Every flow sends the same number of packets, so the mean is over
    // flows (repeats included), in the simulator's unit of core hops.
    let hop_sum: usize = pairs
        .iter()
        .map(|&(src, dst)| {
            let path = paths::bfs_shortest_path(&topo, src, dst).expect("families are connected");
            nominal_core_hops(&path)
        })
        .sum();
    let nominal_hops_mean = hop_sum as f64 / pairs.len() as f64;
    Ok(Point {
        topo,
        pairs,
        distinct,
        nominal_hops_mean,
        seed,
    })
}

/// Drives the point's pairs through a [`FleetRun`] (flat, or over
/// `partition`), CBR pacing seeded from the placement stream.
fn drive(
    cfg: &HierConfig,
    point: &Point,
    partition: Option<&Arc<Partition>>,
    record: &mut HierRecord,
) {
    let outcome = FleetRun {
        topo: &point.topo,
        pairs: &point.pairs,
        protection: Protection::None,
        partition: partition.cloned(),
        seed: point.seed,
        packets: cfg.packets_per_pair,
    }
    .run(
        &mut DrawStream::new(point.seed ^ 0x7261_6666_6963), // "raffic"
        &RunObs::default(),
    );
    record.header_bits_max = outcome.header_bits_max;
    record.planned_reencodes = outcome.planned_reencodes;
    record.traffic = Some(outcome);
}

/// The sampled failed links for one verification pair: core links along
/// the pair's primary path first (the failures that matter most), then
/// a deterministic stride over the remaining link space.
fn verify_link_sample(topo: &Topology, src: NodeId, dst: NodeId, budget: usize) -> Vec<LinkId> {
    let mut out = Vec::new();
    if let Some(primary) = paths::bfs_shortest_path(topo, src, dst) {
        for w in primary.windows(2) {
            if topo.switch_id(w[0]).is_some() && topo.switch_id(w[1]).is_some() {
                if let Some(l) = topo.link_between(w[0], w[1]) {
                    if out.len() < budget / 2 {
                        out.push(l);
                    }
                }
            }
        }
    }
    let total = topo.link_count();
    let want = budget.saturating_sub(out.len()).min(total);
    if let Some(stride) = total.checked_div(want) {
        let stride = stride.max(1);
        for s in 0..want {
            let l = LinkId((s * stride) % total);
            if !out.contains(&l) {
                out.push(l);
            }
        }
    }
    out
}

/// Classifies the verification pairs under sampled single-link failures
/// on both dataplanes and compares violation classes.
fn verify_point(cfg: &HierConfig, point: &Point, partition: &Arc<Partition>) -> VerifyOutcome {
    let mut out = VerifyOutcome::default();
    // Transient posture: segments planned on the intact topology, the
    // same knowledge state as the flat comparator's stale route.
    let mut stale = Planner::new().with_partition(Arc::clone(partition));
    for &(src, dst) in point.distinct.iter().take(cfg.verify_pairs) {
        let primary =
            paths::bfs_shortest_path(&point.topo, src, dst).expect("families are connected");
        let flat = kar::protection::encode_with_protection(&point.topo, primary, &Protection::None)
            .expect("unprotected paths encode");
        for link in verify_link_sample(&point.topo, src, dst, cfg.verify_links) {
            let failed: HashSet<LinkId> = [link].into_iter().collect();
            // Deployed posture: a fresh controller told about the
            // failure (as the sim's recovery notice would), so segments
            // are planned around it. An install failure means the
            // failure disconnected the pair — no routing scheme can
            // deliver, so the case probes nothing and is skipped for
            // all three tallies.
            let mut aware = Planner::new()
                .with_partition(Arc::clone(partition))
                .with_view(LinkView::Avoiding);
            aware.on_link_event(&point.topo, link, false, SimTime::ZERO);
            let Ok(deployed) = verify_hier_route(
                &point.topo,
                &mut aware,
                src,
                dst,
                DeflectionTechnique::Nip,
                &failed,
            )
            .map(|r| r.outcome) else {
                continue;
            };
            let f = verify_route(
                &point.topo,
                &flat,
                src,
                dst,
                DeflectionTechnique::Nip,
                &failed,
            );
            let t = verify_hier_route(
                &point.topo,
                &mut stale,
                src,
                dst,
                DeflectionTechnique::Nip,
                &failed,
            )
            .expect("hier routes install on the intact topology");
            out.cases += 1;
            let tally = |outcome, loops: &mut usize, blackholes: &mut usize| match outcome {
                Outcome::Loop => *loops += 1,
                Outcome::Blackhole => *blackholes += 1,
                _ => {}
            };
            tally(f.outcome, &mut out.flat_loops, &mut out.flat_blackholes);
            tally(
                t.outcome,
                &mut out.transient_hier_loops,
                &mut out.transient_hier_blackholes,
            );
            tally(deployed, &mut out.hier_loops, &mut out.hier_blackholes);
        }
    }
    out.new_violation_classes = usize::from(out.hier_loops > 0 && out.flat_loops == 0)
        + usize::from(out.hier_blackholes > 0 && out.flat_blackholes == 0);
    out.transient_new_classes = usize::from(out.transient_hier_loops > 0 && out.flat_loops == 0)
        + usize::from(out.transient_hier_blackholes > 0 && out.flat_blackholes == 0);
    out
}

/// Runs one sweep cell to completion.
pub fn run_cell(cfg: &HierConfig, cell: &HierCell) -> HierRecord {
    let mut record = HierRecord {
        key: cell.key(),
        family: cell.family.label().to_string(),
        switches: cell.switches,
        scheme: cell.scheme.label().to_string(),
        ..HierRecord::default()
    };
    let point = match build_point(cfg, cell) {
        Ok(p) => p,
        Err(achieved) => {
            record.gen_error = Some(achieved);
            return record;
        }
    };
    record.seed = point.seed;
    record.hosts = point.topo.edge_nodes().len();
    record.links = point.topo.link_count();
    record.pairs = point.distinct.len();
    record.nominal_hops_mean = point.nominal_hops_mean;
    let destinations = || -> Vec<NodeId> {
        let dsts: BTreeSet<NodeId> = point.distinct.iter().map(|&(_, d)| d).collect();
        dsts.into_iter().collect()
    };
    match cell.scheme {
        Scheme::Flat => drive(cfg, &point, None, &mut record),
        Scheme::Hier => {
            let partition = Arc::new(
                Partition::auto(&point.topo, cfg.domains_for(cell.switches))
                    .expect("generated families partition"),
            );
            record.domains = partition.num_domains();
            record.boundary_links = partition.boundary_links().len();
            drive(cfg, &point, Some(&partition), &mut record);
            record.verify = Some(verify_point(cfg, &point, &partition));
        }
        Scheme::FastFailover => {
            record.state_entries =
                FastFailover::precompute(&point.topo, &destinations()).total_entries();
        }
        Scheme::Splicing => {
            record.state_entries =
                PathSplicing::precompute(&point.topo, &destinations(), 4, point.seed)
                    .total_entries();
        }
    }
    record
}

/// Renders the full `BENCH_hier.json` document (line-oriented, like
/// the other campaign documents).
pub fn to_json(cfg: &HierConfig, records: &[Json]) -> String {
    sweep::campaign_document("hier", &cfg.fingerprint(), records, "")
}

/// A human-readable summary table (stdout side of `fig_hier`).
pub fn render_table(records: &[Json]) -> String {
    let mut out = String::from(
        "| Cell | Hdr bits | State | Domains | Delivery | Stretch | New classes |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for record in records {
        let get = |f: &str| cell_text(record, &[f]);
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            get("cell"),
            get("header_bits_max"),
            get("state_entries"),
            get("domains"),
            get("delivery_ratio"),
            get("stretch"),
            get("verify_new_classes"),
        ));
    }
    out
}

/// Cells whose deployed-posture verification found a violation class
/// flat KAR does not have (`fig_hier`'s exit condition).
pub fn cells_with_new_classes(records: &[Json]) -> Vec<String> {
    records
        .iter()
        .filter(|r| {
            r.get("verify_new_classes")
                .and_then(Json::as_num::<usize>)
                .is_some_and(|n| n > 0)
        })
        .map(|r| cell_text(r, &["cell"]))
        .collect()
}

/// Runs the sweep over the configured grid on the sweep engine and
/// returns every cell's record in grid order.
pub fn run(cfg: &HierConfig, opts: &sweep::Opts) -> Vec<Json> {
    sweep::run(
        opts,
        &cfg.fingerprint(),
        &cfg.cells(),
        HierCell::key,
        |cell| run_cell(cfg, cell).to_json(),
    )
}

/// `kar-bench fig_hier` (`BENCH_hier.json` at the defaults). Exits
/// nonzero when boundary re-encoding introduces a loop or blackhole
/// class flat KAR does not have (deployed posture).
pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "fig_hier",
    "Flat vs two-level hierarchical KAR vs table baselines, 512→4096 switches",
    &[
        flag("--max-switches", "4096", "largest cell (< 512: small grid)"),
        flag("--pairs", "24", "sampled pairs per cell"),
        flag("--packets", "8", "datagrams per pair"),
    ],
    main,
)
.sweep();

fn main(args: &Args) -> ExitCode {
    let max_switches: usize = args.get("--max-switches");
    // The small grid (16-switch domains) is a seconds-long sweep for
    // the resume tests.
    let (grid, domain_target): (&[usize], _) = if max_switches < 512 {
        (&[32, 64, 128], 16)
    } else {
        (&[512, 1024, 2048, 4096], 64)
    };
    let cfg = HierConfig {
        seed: args.seed(),
        sizes: grid
            .iter()
            .copied()
            .filter(|&n| n <= max_switches)
            .collect(),
        domain_target,
        pairs: args.get("--pairs"),
        packets_per_pair: args.get("--packets"),
        ..HierConfig::default()
    };
    let records = run(&cfg, &args.sweep());
    eprintln!("fig_hier: {} cells", records.len());
    print!("{}", render_table(&records));
    args.write_document(&to_json(&cfg, &records));
    let bad = cells_with_new_classes(&records);
    if !bad.is_empty() {
        let (n, cells) = (bad.len(), bad.join(", "));
        eprintln!("fig_hier: new violation classes vs flat in {n} cell(s): {cells} — failing");
    }
    ExitCode::from(u8::from(!bad.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::add_fleets;
    use kar::KarNetwork;

    fn smoke_config() -> HierConfig {
        HierConfig {
            seed: 9,
            sizes: vec![24],
            families: vec![Family::Ring],
            domain_target: 6,
            pairs: 6,
            packets_per_pair: 4,
            verify_pairs: 2,
            verify_links: 6,
        }
    }

    #[test]
    fn run_cell_is_deterministic_and_hier_beats_flat_on_bits() {
        let cfg = smoke_config();
        let flat_cell = HierCell {
            family: Family::Ring,
            switches: 24,
            scheme: Scheme::Flat,
        };
        let hier_cell = HierCell {
            scheme: Scheme::Hier,
            ..flat_cell
        };
        let flat = run_cell(&cfg, &flat_cell);
        let hier = run_cell(&cfg, &hier_cell);
        assert_eq!(flat.to_json(), run_cell(&cfg, &flat_cell).to_json());
        assert_eq!(hier.to_json(), run_cell(&cfg, &hier_cell).to_json());
        // Same placement: schemes measure identical pair samples.
        assert_eq!(flat.seed, hier.seed);
        assert_eq!(flat.pairs, hier.pairs);
        assert_eq!(flat.nominal_hops_mean, hier.nominal_hops_mean);
        // The headline: per-domain segments are smaller than whole-path
        // route IDs.
        assert!(
            hier.header_bits_max < flat.header_bits_max,
            "hier {} vs flat {}",
            hier.header_bits_max,
            flat.header_bits_max
        );
        assert_eq!(hier.domains, 4);
        assert!(hier.boundary_links > 0);
        let ht = hier.traffic.as_ref().unwrap();
        let ft = flat.traffic.as_ref().unwrap();
        assert!(ht.stats.delivery_ratio() > 0.9, "{ht:?}");
        assert!(ft.stats.delivery_ratio() > 0.9, "{ft:?}");
        assert!(ht.boundary_restamps > 0);
        let v = hier.verify.as_ref().unwrap();
        assert!(v.cases > 0);
        assert_eq!(v.new_violation_classes, 0, "{v:?}");
    }

    #[test]
    fn table_schemes_report_state_not_headers() {
        let cfg = smoke_config();
        let ff = run_cell(
            &cfg,
            &HierCell {
                family: Family::Ring,
                switches: 24,
                scheme: Scheme::FastFailover,
            },
        );
        assert_eq!(ff.header_bits_max, 0);
        assert!(ff.state_entries > 0);
        assert!(ff.traffic.is_none());
        let sp = run_cell(
            &cfg,
            &HierCell {
                family: Family::Ring,
                switches: 24,
                scheme: Scheme::Splicing,
            },
        );
        assert!(sp.state_entries > ff.state_entries, "k slices cost more");
    }

    #[test]
    fn sweep_document_shape_and_grid_order() {
        let cfg = smoke_config();
        let records = run(&cfg, &sweep::Opts::jobs(2));
        let keys: Vec<String> = records.iter().map(|r| cell_text(r, &["cell"])).collect();
        assert_eq!(
            keys,
            [
                "ring/24/flat",
                "ring/24/hier",
                "ring/24/fast_failover",
                "ring/24/splicing"
            ]
        );
        assert!(to_json(&cfg, &records).starts_with("{\"campaign\":\"hier\""));
        assert!(records[1].get("verify_new_classes").is_some());
        assert!(cells_with_new_classes(&records).is_empty());
        assert!(render_table(&records).contains("ring/24/hier"));
    }

    /// With no link down, every packet walks its shortest path, so a
    /// flat cell's stretch is exactly 1: the nominal mean counts what
    /// the simulator's `hops` counts (core switches), per flow.
    #[test]
    fn fault_free_flat_traffic_has_stretch_one() {
        let cfg = smoke_config();
        let cell = HierCell {
            family: Family::Ring,
            switches: 24,
            scheme: Scheme::Flat,
        };
        let point = build_point(&cfg, &cell).unwrap();
        let mut net = KarNetwork::builder(&point.topo, DeflectionTechnique::Nip)
            .seed(point.seed)
            .build();
        for &(src, dst) in &point.distinct {
            net.planner_mut()
                .install(&point.topo, src, dst, &Protection::None)
                .unwrap();
        }
        let mut sim = net.into_sim();
        let mut draws = DrawStream::new(point.seed);
        add_fleets(&mut sim, &point.pairs, &mut draws, cfg.packets_per_pair);
        sim.run_to_quiescence();
        let record = HierRecord {
            nominal_hops_mean: point.nominal_hops_mean,
            traffic: Some(FleetOutcome {
                stats: sim.stats().clone(),
                routes: point.distinct.len(),
                header_bits_max: 0,
                planned_reencodes: 0,
                boundary_restamps: 0,
            }),
            ..HierRecord::default()
        };
        let json = Json::parse(&record.to_json()).unwrap();
        let field = |f: &str| json.get(f).and_then(Json::as_f64).unwrap();
        assert_eq!(field("delivery_ratio"), 1.0);
        let stretch = field("stretch");
        assert!((stretch - 1.0).abs() < 1e-9, "stretch {stretch}");
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let serial = run(&smoke_config(), &sweep::Opts::jobs(1));
        let parallel = run(&smoke_config(), &sweep::Opts::jobs(4));
        assert_eq!(serial, parallel);
    }
}
