//! Scale-sweep campaign: families of generated topologies, hundreds of
//! concurrent CBR flows per cell and streaming aggregation, run on the
//! [`crate::sweep`] engine.
//!
//! A *campaign* is a grid of cells — `(topology family, switch count,
//! protection level)` — each of which builds a coprime-ID topology from
//! [`kar_topology::gen`], installs one KAR route per flow pair, fails
//! one core link on the first route's primary path, and drives every
//! flow with paced CBR traffic until the network drains. Per-packet
//! latency and hop data go straight into the observability layer's
//! log-linear histograms, so a cell's memory footprint is independent of
//! its packet count: the record keeps only count/mean/p50/p95/p99
//! summaries ([`kar_obs::HistogramSummary`]).
//!
//! Cells are independent and seeded from the campaign seed plus a hash
//! of the cell key (never the enumeration index), so every simulated
//! quantity is a pure function of `(cell, seed)` — a sweep at `--jobs N`
//! is byte-identical to the serial one, a resumed sweep to an
//! uninterrupted one, and the default-flag document to the committed
//! `BENCH_scale.json`. No record holds a host-clock value: what an
//! encode or an event costs in wall time is `kar-perf`'s ledger
//! (`BENCHMARK.json`), not this sweep's.

use crate::cli::{flag, Experiment};
use crate::harness::{core_links_along, sample_pairs, DrawStream, FleetRun};
use crate::obs::RunObs;
use crate::record::{record, Record};
use crate::sweep::{self, cell_text, keyed_seed};
use kar::{verify_route, DeflectionTechnique, Outcome, Protection};
use kar_obs::json::{Json, Obj};
use kar_obs::{Entity, HistogramSummary, ObsHandle, Profiler};
use kar_rns::{route_id_bit_length, IdAllocator, IdStrategy};
use kar_topology::{gen, paths, LinkParams, Topology};
use std::collections::HashSet;
use std::process::ExitCode;
use std::sync::Arc;

/// Topology family of a campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`gen::try_ring`]: one host per switch, degree 3 everywhere — the
    /// longest paths and the smallest deflection fan-out.
    Ring,
    /// [`gen::try_grid`]: the squarest `rows × cols` factorization of
    /// the switch count, hosts on the four corners.
    Grid,
    /// [`gen::try_random_connected_hosts`]: spanning tree plus `n/2`
    /// chords, one host per switch.
    Random,
}

impl Family {
    /// Stable label used in cell keys and JSON records.
    pub fn label(self) -> &'static str {
        match self {
            Family::Ring => "ring",
            Family::Grid => "grid",
            Family::Random => "random",
        }
    }

    /// Every family, in campaign order.
    pub const ALL: [Family; 3] = [Family::Ring, Family::Grid, Family::Random];

    /// Builds the family's topology at `switches` switches.
    ///
    /// # Errors
    ///
    /// Propagates [`gen::GenError`] when the ID strategy cannot cover
    /// the requested size.
    pub fn build(
        self,
        switches: usize,
        seed: u64,
        strategy: IdStrategy,
    ) -> Result<Topology, gen::GenError> {
        let params = LinkParams::default();
        match self {
            Family::Ring => gen::try_ring(switches, strategy, params),
            Family::Grid => {
                let (rows, cols) = squarest(switches);
                gen::try_grid(rows, cols, strategy, params)
            }
            Family::Random => {
                gen::try_random_connected_hosts(switches, switches / 2, seed, strategy, params)
            }
        }
    }
}

/// The squarest `rows × cols` factorization of `n` (`rows ≤ cols`,
/// `rows * cols == n`).
fn squarest(n: usize) -> (usize, usize) {
    let mut rows = 1;
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            rows = r;
        }
        r += 1;
    }
    (rows, n / rows)
}

/// Protection level of a campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtLevel {
    /// No protection: deflection alone fights for packets.
    None,
    /// [`Protection::AutoBudget`] with a 64-bit route-ID budget.
    Budget,
    /// [`Protection::AutoFull`]: every primary link protected.
    Full,
}

impl ProtLevel {
    /// Stable label used in cell keys and JSON records.
    pub fn label(self) -> &'static str {
        match self {
            ProtLevel::None => "none",
            ProtLevel::Budget => "budget64",
            ProtLevel::Full => "full",
        }
    }

    /// Every level, in campaign order.
    pub const ALL: [ProtLevel; 3] = [ProtLevel::None, ProtLevel::Budget, ProtLevel::Full];

    /// The concrete [`Protection`] this level maps to.
    pub fn protection(self) -> Protection {
        match self {
            ProtLevel::None => Protection::None,
            ProtLevel::Budget => Protection::AutoBudget { max_bits: 64 },
            ProtLevel::Full => Protection::AutoFull,
        }
    }
}

/// One cell of the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Topology family.
    pub family: Family,
    /// Core switch count.
    pub switches: usize,
    /// Protection level.
    pub prot: ProtLevel,
}

impl Cell {
    /// The cell's stable key — used for checkpoint matching and seeding,
    /// never its position in the enumeration (so adding sizes or
    /// families later cannot silently reseed existing cells).
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.family.label(),
            self.switches,
            self.prot.label()
        )
    }
}

/// Campaign configuration. `Default` is the full 16→256 sweep.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base RNG seed; each cell derives its own from this plus a hash of
    /// its key.
    pub seed: u64,
    /// Switch counts to sweep (doubling sequence by default).
    pub sizes: Vec<usize>,
    /// Families to sweep.
    pub families: Vec<Family>,
    /// Protection levels to sweep.
    pub prots: Vec<ProtLevel>,
    /// Concurrent flows per cell = `flows_per_switch × switches`,
    /// clamped to `[64, 1024]`.
    pub flows_per_switch: usize,
    /// Datagrams each flow sends.
    pub packets_per_flow: u64,
    /// Switch-ID allocation strategy for generated topologies.
    pub strategy: IdStrategy,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            sizes: vec![16, 32, 64, 128, 256],
            families: Family::ALL.to_vec(),
            prots: ProtLevel::ALL.to_vec(),
            flows_per_switch: 2,
            packets_per_flow: 30,
            strategy: IdStrategy::SmallestPrimes,
        }
    }
}

impl CampaignConfig {
    /// The cell grid in deterministic order: family-major, then size,
    /// then protection.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &family in &self.families {
            for &switches in &self.sizes {
                for &prot in &self.prots {
                    out.push(Cell {
                        family,
                        switches,
                        prot,
                    });
                }
            }
        }
        out
    }

    /// Configuration fingerprint: two checkpoints interoperate exactly
    /// when their fingerprints match.
    pub fn fingerprint(&self) -> String {
        let join = |parts: Vec<String>| parts.join("+");
        format!(
            "scale-v1 seed={} sizes={} families={} prots={} fps={} ppf={} strategy={:?}",
            self.seed,
            join(self.sizes.iter().map(|n| n.to_string()).collect()),
            join(
                self.families
                    .iter()
                    .map(|f| f.label().to_string())
                    .collect()
            ),
            join(self.prots.iter().map(|p| p.label().to_string()).collect()),
            self.flows_per_switch,
            self.packets_per_flow,
            self.strategy,
        )
    }

    /// The seed of one cell: a splitmix64 of the campaign seed and the
    /// FNV-1a hash of the cell key.
    pub fn cell_seed(&self, cell: &Cell) -> u64 {
        keyed_seed(self.seed, &cell.key())
    }
}

/// Everything one completed cell reports. Serialized with
/// [`CellRecord::to_json`]; the checkpoint stores the JSON verbatim so a
/// resumed campaign reproduces its output byte-for-byte without
/// recomputing.
#[derive(Debug, Clone, Default)]
pub struct CellRecord {
    /// Cell key (`family/switches/protection`).
    pub key: String,
    /// Topology family label.
    pub family: String,
    /// Core switches requested.
    pub switches: usize,
    /// Protection level label.
    pub protection: String,
    /// The cell's derived seed.
    pub seed: u64,
    /// ID allocation failure, when the strategy could not cover the
    /// cell: `achieved` switches out of `switches` (every traffic field
    /// below is zero then).
    pub gen_error: Option<usize>,
    /// Edge hosts in the topology.
    pub hosts: usize,
    /// Links in the topology.
    pub links: usize,
    /// Concurrent flows driven.
    pub flows: usize,
    /// Distinct `(src, dst)` routes installed.
    pub routes: usize,
    /// Worst-case route-ID bit length over the whole ID set (Eq. 9 on
    /// every switch ID).
    pub network_bits: u32,
    /// Largest installed route ID, in bits.
    pub route_bits_max: u32,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Delivery ratio.
    pub delivery_ratio: f64,
    /// Packets dropped.
    pub dropped: u64,
    /// Deflection events.
    pub deflections: u64,
    /// Per-packet latency summary (nanoseconds).
    pub latency: HistogramSummary,
    /// Per-packet hop-count summary.
    pub hops: HistogramSummary,
    /// Discrete events dispatched (deterministic).
    pub events: u64,
    /// Single-failure verification cases sampled on the first route.
    pub verify_cases: usize,
    /// Sampled cases classified as inescapable loops.
    pub verify_loops: usize,
    /// Sampled cases classified as blackholes.
    pub verify_blackholes: usize,
    /// Sampled cases that deliver with certainty.
    pub verify_delivered: usize,
}

impl CellRecord {
    /// Serializes as one JSON object on a single line.
    pub fn to_json(&self) -> String {
        let summary = |s: &HistogramSummary| {
            Obj::new()
                .num("count", s.count)
                .f64("mean", s.mean)
                .num("p50", s.p50)
                .num("p95", s.p95)
                .num("p99", s.p99)
                .finish()
        };
        Obj::new()
            .str("cell", &self.key)
            .str("family", &self.family)
            .num("switches", self.switches)
            .str("protection", &self.protection)
            .num("seed", self.seed)
            .opt("gen_error_achieved", self.gen_error)
            .num("hosts", self.hosts)
            .num("links", self.links)
            .num("flows", self.flows)
            .num("routes", self.routes)
            .num("network_bits", self.network_bits)
            .num("route_bits_max", self.route_bits_max)
            .num("injected", self.injected)
            .num("delivered", self.delivered)
            .f64("delivery_ratio", self.delivery_ratio)
            .num("dropped", self.dropped)
            .num("deflections", self.deflections)
            .raw("latency_ns", summary(&self.latency))
            .raw("hops", summary(&self.hops))
            .num("events", self.events)
            .num("verify_cases", self.verify_cases)
            .num("verify_loops", self.verify_loops)
            .num("verify_blackholes", self.verify_blackholes)
            .num("verify_delivered", self.verify_delivered)
            .finish()
    }
}

/// Runs one campaign cell to completion and returns its record.
pub fn run_cell(cfg: &CampaignConfig, cell: &Cell) -> CellRecord {
    let seed = cfg.cell_seed(cell);
    let mut record = CellRecord {
        key: cell.key(),
        family: cell.family.label().to_string(),
        switches: cell.switches,
        protection: cell.prot.label().to_string(),
        seed,
        ..CellRecord::default()
    };
    let topo = match cell.family.build(cell.switches, seed, cfg.strategy) {
        Ok(t) => t,
        Err(e) => {
            record.gen_error = Some(e.assigned);
            return record;
        }
    };
    record.hosts = topo.edge_nodes().len();
    record.links = topo.link_count();
    record.network_bits = route_id_bit_length(&topo.switch_ids());

    // Flow placement: seeded draws over the host set, self-pairs
    // excluded. Hundreds of flows per cell (paper's "heavy traffic"
    // regime), clamped so small cells still see contention and huge ones
    // stay tractable.
    let hosts = topo.edge_nodes();
    let n_flows = (cfg.flows_per_switch * cell.switches).clamp(64, 1024);
    let mut draws = DrawStream::new(seed);
    let pairs = sample_pairs(&hosts, n_flows, &mut draws);
    record.flows = pairs.len();

    // One route per distinct pair, one core link on the first flow's
    // primary path down, one FlowFleet app per source host pacing CBR
    // with seeded per-flow interval and start offset (the CRT and
    // `Reducer` stress happens inside these encodes and the hop loop).
    let protection = cell.prot.protection();
    let obs = RunObs {
        handle: ObsHandle::enabled(),
        profiler: Some(Arc::new(Profiler::new())),
    };
    let outcome = FleetRun {
        topo: &topo,
        pairs: &pairs,
        protection: protection.clone(),
        partition: None,
        seed,
        packets: cfg.packets_per_flow,
    }
    .run(&mut draws, &obs);
    record.routes = outcome.routes;
    record.route_bits_max = outcome.header_bits_max;
    let stats = &outcome.stats;
    record.injected = stats.injected;
    record.delivered = stats.delivered;
    record.delivery_ratio = stats.delivery_ratio();
    record.dropped = stats.dropped();
    record.deflections = stats.deflections;
    if let Some(bundle) = obs.handle.get() {
        record.latency = bundle
            .metrics
            .histogram(Entity::Global, "latency_ns")
            .summary();
        record.hops = bundle.metrics.histogram(Entity::Global, "hops").summary();
    }
    record.events = obs.profiler.as_ref().map_or(0, |p| p.total_events());

    // Sampled verification: exhaustive single-failure verification is
    // O(pairs × links) and intractable here, so classify the first
    // route under each of (up to) six single failures along its own
    // primary path — the failures that matter to it.
    let (src0, dst0) = pairs[0];
    let primary = paths::bfs_shortest_path(&topo, src0, dst0).expect("installed routes have paths");
    let core_links = core_links_along(&topo, &primary);
    let spec = kar::RouteSpec::unprotected(primary.clone());
    let route = match &protection {
        Protection::None => kar::EncodedRoute::encode(&topo, &spec),
        _ => kar::protection::encode_with_protection(&topo, primary.clone(), &protection),
    }
    .expect("first route re-encodes");
    for link in core_links.iter().take(6) {
        let report = verify_route(
            &topo,
            &route,
            src0,
            dst0,
            DeflectionTechnique::Nip,
            &HashSet::from([*link]),
        );
        record.verify_cases += 1;
        match report.outcome {
            Outcome::Loop => record.verify_loops += 1,
            Outcome::Blackhole => record.verify_blackholes += 1,
            Outcome::Delivered => record.verify_delivered += 1,
            _ => {}
        }
    }
    record
}

record! {
    /// One row of the key-growth study: how far an [`IdStrategy`]
    /// stretches on ring-degree switches, and the worst-case route-ID bit
    /// length at the achieved size.
    #[derive(Debug, Clone)]
    pub struct KeyGrowthRow {
        /// Strategy label.
        pub strategy: String,
        /// Ring size requested.
        pub requested: usize,
        /// Switches that received an ID (`== requested` when the build
        /// succeeded).
        pub achieved: usize,
        /// Worst-case route-ID bit length over the achieved ID set.
        pub bits: u32,
    }
}

/// The key-growth study: for each strategy and campaign size, try to
/// build the ring and report the achievable ceiling (via
/// [`gen::try_ring`]'s error) plus Eq. 9's worst-case bit length at
/// that size. `PrimesBelow` models fixed-width switch-ID hardware and
/// is where ceilings actually bite.
pub fn key_growth_study(sizes: &[usize]) -> Vec<KeyGrowthRow> {
    let strategies: [(String, IdStrategy); 5] = [
        ("SmallestPrimes".into(), IdStrategy::SmallestPrimes),
        ("SmallestCoprime".into(), IdStrategy::SmallestCoprime),
        ("PrimesBelow(2^8)".into(), IdStrategy::PrimesBelow(1 << 8)),
        ("PrimesBelow(2^10)".into(), IdStrategy::PrimesBelow(1 << 10)),
        ("PrimesBelow(2^12)".into(), IdStrategy::PrimesBelow(1 << 12)),
    ];
    let mut rows = Vec::new();
    for (label, strategy) in &strategies {
        for &n in sizes {
            let achieved = match gen::try_ring(n, *strategy, LinkParams::default()) {
                Ok(_) => n,
                Err(e) => e.assigned,
            };
            // Mirror the allocation to read the worst-case bit length at
            // the achieved size (the error does not carry partial IDs).
            let mut alloc = IdAllocator::new(*strategy);
            for _ in 0..achieved {
                alloc.allocate(3).expect("achieved size allocates");
            }
            rows.push(KeyGrowthRow {
                strategy: label.clone(),
                requested: n,
                achieved,
                bits: alloc.allocated_bits(),
            });
            if achieved < n {
                break; // larger sizes only repeat the same ceiling
            }
        }
    }
    rows
}

/// Renders the full `BENCH_scale.json` document from the campaign's
/// records: one cell record per line (line-oriented so diffs stay
/// readable), then the key-growth study.
pub fn to_json(cfg: &CampaignConfig, records: &[Json], key_growth: &[KeyGrowthRow]) -> String {
    let rows = sweep::lines(key_growth.iter().map(Record::to_json));
    let tail = format!(",\n\"key_growth\":[\n{rows}]");
    sweep::campaign_document("scale", &cfg.fingerprint(), records, &tail)
}

/// A human-readable summary table (stdout side of `fig_scale`).
pub fn render_table(records: &[Json]) -> String {
    let mut out = String::from(
        "| Cell | Bits(max) | Flows | Delivery | p99 lat (ms) | Defl | Loops | Blackholes |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for record in records {
        let get = |f: &str| cell_text(record, &[f]);
        let p99_ms = record
            .path(&["latency_ns", "p99"])
            .and_then(Json::as_f64)
            .map(|ns| format!("{:.2}", ns / 1e6))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            get("cell"),
            get("route_bits_max"),
            get("flows"),
            get("delivery_ratio"),
            p99_ms,
            get("deflections"),
            get("verify_loops"),
            get("verify_blackholes"),
        ));
    }
    out
}

/// Runs the campaign on the sweep engine (resuming from
/// `opts.checkpoint` when it is fingerprint-compatible) and returns
/// every cell's record in grid order.
pub fn run_campaign(cfg: &CampaignConfig, opts: &sweep::Opts) -> Vec<Json> {
    sweep::run(opts, &cfg.fingerprint(), &cfg.cells(), Cell::key, |cell| {
        run_cell(cfg, cell).to_json()
    })
}

/// `kar-bench fig_scale` (`BENCH_scale.json` at the defaults).
pub(crate) const EXPERIMENT: Experiment = Experiment::new(
    "fig_scale",
    "Scale sweep: topology families 16→512 switches × protection, one failure per cell",
    &[
        flag("--max-switches", "256", "largest cell (512 = full sweep)"),
        flag("--flows", "2", "flows per switch"),
        flag("--packets", "30", "datagrams per flow"),
    ],
    |args| {
        let max_switches: usize = args.get("--max-switches");
        let sizes = [16usize, 32, 64, 128, 256, 512];
        let cfg = CampaignConfig {
            seed: args.seed(),
            sizes: sizes.into_iter().filter(|&n| n <= max_switches).collect(),
            flows_per_switch: args.get("--flows"),
            packets_per_flow: args.get("--packets"),
            ..CampaignConfig::default()
        };
        let records = run_campaign(&cfg, &args.sweep());
        eprintln!("fig_scale: {} cells", records.len());
        print!("{}", render_table(&records));
        let key_growth = key_growth_study(&cfg.sizes);
        println!("\n| Strategy | Requested | Achieved | Route-ID bits |\n|---|---|---|---|");
        for row in &key_growth {
            println!(
                "| {} | {} | {} | {} |",
                row.strategy, row.requested, row.achieved, row.bits
            );
        }
        args.write_document(&to_json(&cfg, &records, &key_growth));
        ExitCode::SUCCESS
    },
)
.sweep();

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> CampaignConfig {
        CampaignConfig {
            seed: 11,
            sizes: vec![8],
            families: vec![Family::Ring, Family::Grid],
            prots: vec![ProtLevel::None, ProtLevel::Full],
            flows_per_switch: 2,
            packets_per_flow: 4,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn cell_seeds_depend_on_key_not_position() {
        let cfg = smoke_config();
        let a = Cell {
            family: Family::Ring,
            switches: 8,
            prot: ProtLevel::None,
        };
        let b = Cell {
            family: Family::Grid,
            switches: 8,
            prot: ProtLevel::None,
        };
        assert_ne!(cfg.cell_seed(&a), cfg.cell_seed(&b));
        // Same key, same seed — regardless of any grid reshuffling.
        let mut wider = smoke_config();
        wider.sizes = vec![8, 16];
        assert_eq!(cfg.cell_seed(&a), wider.cell_seed(&a));
    }

    #[test]
    fn run_cell_is_deterministic() {
        let cfg = smoke_config();
        let cell = Cell {
            family: Family::Ring,
            switches: 8,
            prot: ProtLevel::Full,
        };
        let a = run_cell(&cfg, &cell);
        let b = run_cell(&cfg, &cell);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.injected > 0);
        assert!(a.delivered > 0);
        assert!(a.latency.count > 0, "latency histogram populated");
        assert!(a.events > 0);
        assert!(a.verify_cases > 0);
    }

    #[test]
    fn full_protection_never_widens_less_than_none() {
        let cfg = smoke_config();
        let none = run_cell(
            &cfg,
            &Cell {
                family: Family::Ring,
                switches: 8,
                prot: ProtLevel::None,
            },
        );
        let full = run_cell(
            &cfg,
            &Cell {
                family: Family::Ring,
                switches: 8,
                prot: ProtLevel::Full,
            },
        );
        assert!(
            full.route_bits_max >= none.route_bits_max,
            "protection grows the route ID: {} vs {}",
            full.route_bits_max,
            none.route_bits_max
        );
    }

    #[test]
    fn exhausted_strategy_reports_ceiling_instead_of_aborting() {
        let cfg = CampaignConfig {
            strategy: IdStrategy::PrimesBelow(13),
            ..smoke_config()
        };
        let rec = run_cell(
            &cfg,
            &Cell {
                family: Family::Ring,
                switches: 8,
                prot: ProtLevel::None,
            },
        );
        assert_eq!(rec.gen_error, Some(3), "{rec:?}");
        assert_eq!(rec.injected, 0);
        assert!(rec.to_json().contains("\"gen_error_achieved\":3"));
    }

    #[test]
    fn campaign_grid_order_and_json_shape() {
        let cfg = smoke_config();
        let records = run_campaign(&cfg, &sweep::Opts::jobs(2));
        let keys: Vec<String> = records.iter().map(|r| cell_text(r, &["cell"])).collect();
        assert_eq!(
            keys,
            ["ring/8/none", "ring/8/full", "grid/8/none", "grid/8/full"]
        );
        let doc = to_json(&cfg, &records, &key_growth_study(&cfg.sizes));
        assert!(doc.starts_with("{\"campaign\":\"scale\""));
        assert!(doc.contains("\"key_growth\":["));
        assert!(render_table(&records).contains("ring/8/none"));
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let serial = run_campaign(&smoke_config(), &sweep::Opts::jobs(1));
        let parallel = run_campaign(&smoke_config(), &sweep::Opts::jobs(4));
        assert_eq!(serial, parallel);
    }

    /// What the tables rely on: a record member reads back as exactly
    /// the token it was written with, `-` when the record has none.
    #[test]
    fn json_field_extracts_tokens() {
        let line =
            r#"{"a":1,"b":"x,y","c":{"d":[1,2],"e":3},"f":null,"seed":11981841711409792483}"#;
        let json = Json::parse(line).unwrap();
        assert_eq!(cell_text(&json, &["a"]), "1");
        assert_eq!(cell_text(&json, &["b"]), "x,y");
        assert_eq!(cell_text(&json, &["c"]), "{\"d\":[1,2],\"e\":3}");
        assert_eq!(cell_text(&json, &["c", "e"]), "3");
        assert_eq!(cell_text(&json, &["f"]), "null");
        assert_eq!(cell_text(&json, &["seed"]), "11981841711409792483");
        assert_eq!(cell_text(&json, &["missing"]), "-");
    }

    #[test]
    fn key_growth_hits_ceilings_for_bounded_strategies() {
        let rows = key_growth_study(&[16, 64]);
        let below8: Vec<&KeyGrowthRow> = rows
            .iter()
            .filter(|r| r.strategy == "PrimesBelow(2^8)")
            .collect();
        // 52 primes in [5, 256): the 16-ring fits, the 64-ring does not.
        assert_eq!(below8[0].achieved, 16);
        assert_eq!(below8.last().unwrap().achieved, 52);
        // Unbounded strategies cover everything, with growing bits.
        let smallest: Vec<&KeyGrowthRow> = rows
            .iter()
            .filter(|r| r.strategy == "SmallestPrimes")
            .collect();
        assert_eq!(smallest.len(), 2);
        assert!(smallest[1].bits > smallest[0].bits);
        assert_eq!(smallest[1].achieved, 64);
    }
}
