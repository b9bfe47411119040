//! Shared experiment harness — the three run shapes every experiment
//! is built from:
//!
//! * [`TcpRun`] — one bulk TCP flow over a KAR network with an optional
//!   scheduled link failure, the shape of every throughput experiment
//!   in the paper (§3);
//! * [`ProbeRun`] — paced probes over KAR or a table-based baseline
//!   under static failures, a [`FaultPlan`] and/or Byzantine switches,
//!   the shape of every delivery-ratio experiment (multi-failure,
//!   dynamic faults, breaking-point replays, adversary campaigns,
//!   detection delay, `kar-bench probe`);
//! * [`FleetRun`] — hundreds of paced CBR flows over a generated
//!   topology with one mid-path failure and a failure-reactive planner,
//!   flat or partitioned (the scale and hierarchy sweeps).

use crate::obs::RunObs;
use crate::sweep::splitmix64;
use kar::{
    DeflectionTechnique, EncodeRequest, EncodingCache, KarNetwork, Protection, RecoveryConfig,
    RecoveryLog, ReroutePolicy,
};
use kar_baselines::{TableEdge, TableScheme};
use kar_obs::json::Obj;
use kar_simnet::{
    App, Behavior, FaultPlan, FlowId, HostCtx, Packet, PacketKind, Sim, SimConfig, SimTime, Stats,
};
use kar_tcp::{BulkFlow, CongestionControl, IntervalMeter, TcpConfig};
use kar_topology::{paths, LinkId, NodeId, Partition, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A failure window: the link goes down at `down` and up at `up`.
#[derive(Debug, Clone, Copy)]
pub struct FailureWindow {
    /// The failed link.
    pub link: LinkId,
    /// Failure time.
    pub down: SimTime,
    /// Repair time.
    pub up: SimTime,
}

/// Specification of one TCP throughput run.
#[derive(Debug, Clone)]
pub struct TcpRun<'a> {
    /// The network.
    pub topo: &'a Topology,
    /// Deflection technique in every core switch.
    pub technique: DeflectionTechnique,
    /// The pinned primary path (edge → … → edge), as in the paper's
    /// scenarios.
    pub primary: Vec<NodeId>,
    /// Protection for the forward (data) direction.
    pub protection: Protection,
    /// Optional failure window.
    pub failure: Option<FailureWindow>,
    /// Total simulated duration.
    pub duration: SimTime,
    /// Meter bin width.
    pub bin: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Per-packet hop budget.
    pub ttl: u16,
    /// Congestion-control algorithm for the measured flow.
    pub congestion: CongestionControl,
    /// Shared-softswitch service time per traversal, if modeled.
    ///
    /// The paper's Mininet host runs every userspace switch on shared
    /// CPU; its 200 Mbit/s ceiling on the 15-node network shows the
    /// no-failure workload already saturated that CPU, which is what
    /// converts deflection hop-inflation into throughput loss. Calibrate
    /// per topology so the no-failure run sits near saturation.
    pub switch_service: Option<SimTime>,
    /// Optional shared route-encoding cache. Sweeps that re-run the same
    /// routes attach one cache to every spec; cached encodes are
    /// byte-identical to fresh ones, so results are unaffected.
    pub cache: Option<Arc<EncodingCache>>,
    /// Run label for the observability dump (see [`crate::obs`]); when
    /// empty a `tcp/seed<N>` fallback is used. Only read while a
    /// `--metrics` sink is collecting — never affects the simulation.
    pub label: String,
}

impl<'a> TcpRun<'a> {
    /// A run over `primary` with sensible defaults (NIP, no protection,
    /// 10 s, 1 s bins, seed 1).
    pub fn new(topo: &'a Topology, primary: Vec<NodeId>) -> Self {
        TcpRun {
            topo,
            technique: DeflectionTechnique::Nip,
            primary,
            protection: Protection::None,
            failure: None,
            duration: SimTime::from_secs(10),
            bin: SimTime::from_secs(1),
            seed: 1,
            ttl: 128,
            congestion: CongestionControl::Reno,
            switch_service: None,
            cache: None,
            label: String::new(),
        }
    }
}

/// Result of one TCP run.
#[derive(Debug, Clone)]
pub struct TcpRunResult {
    /// The receiver's goodput meter.
    pub meter: IntervalMeter,
    /// Network statistics snapshot.
    pub delivered: u64,
    /// Packets dropped in the network.
    pub dropped: u64,
    /// Deflections experienced by delivered packets.
    pub deflections: u64,
    /// Mean hops per delivered packet (0.0 when nothing was delivered —
    /// a starved run, not a zero-hop one; `delivered` disambiguates).
    pub mean_hops: f64,
    /// Out-of-order data arrivals observed at the destination edge.
    pub reordered: u64,
    /// Host wall-clock time the run took (summary only — excluded from
    /// [`TcpRunResult::digest`] because it varies between invocations).
    pub wall: Duration,
}

impl TcpRunResult {
    /// A canonical serialization of every *simulated* quantity — all
    /// fields except the host wall clock. Two runs of the same spec are
    /// deterministic exactly when their digests are byte-identical, which
    /// is what the parallel-runner conformance tests compare.
    pub fn digest(&self) -> String {
        format!(
            "meter={:?} delivered={} dropped={} deflections={} mean_hops={:?} reordered={}",
            self.meter,
            self.delivered,
            self.dropped,
            self.deflections,
            self.mean_hops,
            self.reordered,
        )
    }

    /// The run's result line — what the metrics dump carries as this
    /// run's `summary` record: its coordinates (`label`, `index` in the
    /// sweep's spec order, seed), its simulated outcome and the host
    /// wall-clock cost.
    pub fn summary_json(&self, spec: &TcpRun<'_>, label: &str, index: usize) -> String {
        // `hops` counts core-switch traversals; the primary path lists
        // edge + cores + edge, so its nominal hop count is len - 2.
        let nominal_hops = spec.primary.len().saturating_sub(2) as f64;
        let hop_inflation = if nominal_hops > 0.0 {
            self.mean_hops / nominal_hops
        } else {
            0.0
        };
        Obj::new()
            .str("label", label)
            .num("index", index)
            .num("seed", spec.seed)
            .str("technique", spec.technique.label())
            .f64("duration_s", spec.duration.as_nanos() as f64 / 1e9)
            .num("delivered", self.delivered)
            .num("dropped", self.dropped)
            .num("deflections", self.deflections)
            .f64("mean_hops", self.mean_hops)
            .f64("hop_inflation", hop_inflation)
            .num("reordered", self.reordered)
            .f64(
                "mean_mbps",
                self.meter.mean_mbps(SimTime::ZERO, spec.duration),
            )
            .f64("wall_ms", self.wall.as_secs_f64() * 1e3)
            .finish()
    }
}

/// Executes one bulk-TCP run and returns the meter plus network stats.
///
/// The reverse (ACK) direction always gets an auto-planned full
/// protection so the measured effect is the forward data path — except
/// with `DeflectionTechnique::None`, where protection is irrelevant
/// because nothing deflects.
///
/// # Panics
///
/// Panics if the scenario is malformed (routes fail to install) —
/// experiment constants are validated by tests.
pub fn run_tcp(spec: &TcpRun<'_>) -> TcpRunResult {
    run_tcp_at(spec, 0)
}

/// [`run_tcp`] for the spec at position `index` of a sweep's spec list
/// (the position is part of the run's dump summary, nothing else).
pub fn run_tcp_at(spec: &TcpRun<'_>, index: usize) -> TcpRunResult {
    let started = Instant::now();
    let obs = RunObs::begin();
    let src = *spec.primary.first().expect("non-empty primary");
    let dst = *spec.primary.last().expect("non-empty primary");
    let mut builder = KarNetwork::builder(spec.topo, spec.technique)
        .seed(spec.seed)
        .ttl(spec.ttl)
        .reroute(ReroutePolicy::Recompute {
            latency: SimTime::from_millis(2),
        })
        .obs(obs.handle.clone());
    if let Some(profiler) = &obs.profiler {
        builder = builder.profiler(profiler.clone());
    }
    if let Some(service) = spec.switch_service {
        builder = builder.switch_service(service);
    }
    if let Some(cache) = &spec.cache {
        builder = builder.encoding_cache(cache.clone());
    }
    let mut net = builder.build();
    net.install_explicit(spec.primary.clone(), &spec.protection)
        .expect("forward route installs");
    let mut reverse = spec.primary.clone();
    reverse.reverse();
    net.install_explicit(reverse, &Protection::AutoFull)
        .expect("reverse route installs");
    let mut sim = net.into_sim();
    if let Some(f) = spec.failure {
        sim.schedule_link_down(f.down, f.link);
        sim.schedule_link_up(f.up, f.link);
    }
    let flow = BulkFlow::install(
        &mut sim,
        src,
        dst,
        FlowId(1),
        TcpConfig {
            congestion: spec.congestion,
            ..TcpConfig::default()
        },
        spec.bin,
    );
    sim.run_until(spec.duration);
    let meter = flow.meter.borrow().clone();
    let stats = sim.stats();
    let flow_stats = stats.flows.get(&FlowId(1));
    let result = TcpRunResult {
        meter,
        delivered: stats.delivered,
        dropped: stats.dropped(),
        deflections: stats.deflections,
        mean_hops: stats.mean_hops().unwrap_or(0.0),
        reordered: flow_stats.map(|f| f.out_of_order).unwrap_or(0),
        wall: started.elapsed(),
    };
    if obs.handle.is_enabled() {
        // `<experiment>/<run coordinates>`, e.g. `fig5/SW10-SW7/Full/NIP/r2`.
        let fallback = format!("tcp/seed{}", spec.seed);
        let label = if spec.label.is_empty() {
            &fallback
        } else {
            &spec.label
        };
        let (experiment, run) = label.split_once('/').unwrap_or((label, ""));
        let summary = result.summary_json(spec, run, index);
        obs.submit_summary(label, spec.topo, experiment, &summary);
    }
    result
}

/// One named `(topology, src, dst)` scenario of the probe sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Scenario<'a> {
    /// Topology name (`"topo15"`, `"rnp28"`).
    pub topo_name: &'a str,
    /// The network.
    pub topo: &'a Topology,
    /// Source edge name.
    pub src: &'a str,
    /// Destination edge name.
    pub dst: &'a str,
}

impl<'a> Scenario<'a> {
    /// `src → dst` on `topo`, called `topo_name`.
    pub const fn new(topo_name: &'a str, topo: &'a Topology, src: &'a str, dst: &'a str) -> Self {
        Scenario {
            topo_name,
            topo,
            src,
            dst,
        }
    }

    /// The `(src, dst)` edge nodes.
    pub fn pair(&self) -> (NodeId, NodeId) {
        (self.topo.expect(self.src), self.topo.expect(self.dst))
    }

    /// Display name, e.g. `"topo15 AS1→AS3"`.
    pub fn label(&self) -> String {
        format!("{} {}→{}", self.topo_name, self.src, self.dst)
    }
}

/// Hop budget of every probe run: generous enough that only a genuine
/// forwarding loop exhausts it.
pub const PROBE_TTL: u16 = 255;
/// Probe datagram size in bytes.
pub const PROBE_BYTES: u32 = 500;

/// The routing scheme a [`ProbeRun`] drives its probes through.
#[derive(Debug, Clone)]
pub enum ProbeScheme {
    /// The KAR dataplane, one route per flow.
    Kar {
        /// Deflection technique in every core switch.
        technique: DeflectionTechnique,
        /// Protection of every installed route.
        protection: Protection,
        /// The failure-reactive controller loop, when enabled.
        recovery: Option<RecoveryConfig>,
    },
    /// A precomputed-table comparator from [`kar_baselines`].
    Table(TableScheme),
}

/// Specification of one probe run: `probes` rounds, one probe per flow
/// per round, one round every `gap`.
#[derive(Debug, Clone)]
pub struct ProbeRun<'a> {
    /// The network.
    pub topo: &'a Topology,
    /// Routing scheme under test.
    pub scheme: ProbeScheme,
    /// `(src, dst)` edge pairs; flow `i` is `FlowId(i)`.
    pub flows: &'a [(NodeId, NodeId)],
    /// Probes injected per flow.
    pub probes: u64,
    /// Inter-injection gap (pacing below line rate, so drop-tail queues
    /// measure routing, not burst absorption).
    pub gap: SimTime,
    /// RNG seed (simulator and table construction).
    pub seed: u64,
    /// Data-plane failure-detection delay.
    pub detection: SimTime,
    /// Links down from t = 0, in scheduling order.
    pub down: &'a [LinkId],
    /// A dynamic fault process on top of `down`.
    pub plan: Option<&'a FaultPlan>,
    /// Byzantine switches and their behaviors.
    pub byzantine: &'a [(NodeId, Behavior)],
}

/// What a [`ProbeRun`] measured.
#[derive(Debug, Clone)]
pub struct ProbeOutcome {
    /// The simulator's statistics at quiescence.
    pub stats: Stats,
    /// The recovery loop's log (KAR schemes with recovery enabled).
    pub recovery: Option<RecoveryLog>,
}

impl ProbeOutcome {
    /// Flows the controller re-encoded onto a detour (0 without a
    /// recovery loop).
    pub fn recovered_flows(&self) -> usize {
        self.recovery.as_ref().map_or(0, |log| log.flows.len())
    }

    /// Mean failure-detection → recovered-traffic latency in seconds
    /// (NaN without a recovery loop).
    pub fn mean_recovery_latency_s(&self) -> f64 {
        self.recovery
            .as_ref()
            .map_or(f64::NAN, RecoveryLog::mean_recovery_latency_s)
    }
}

impl<'a> ProbeRun<'a> {
    /// 100 probes per flow, one every 500 µs, seed 1, instant detection,
    /// no faults, honest switches.
    pub fn new(topo: &'a Topology, scheme: ProbeScheme, flows: &'a [(NodeId, NodeId)]) -> Self {
        ProbeRun {
            topo,
            scheme,
            flows,
            probes: 100,
            gap: SimTime::from_micros(500),
            seed: 1,
            detection: SimTime::ZERO,
            down: &[],
            plan: None,
            byzantine: &[],
        }
    }

    /// Builds the simulation, attaches `obs`, schedules the faults,
    /// drives the paced probes and runs to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if a route fails to install — experiment constants are
    /// validated by tests.
    pub fn run(&self, obs: &RunObs) -> ProbeOutcome {
        let (mut sim, log) = match &self.scheme {
            ProbeScheme::Kar {
                technique,
                protection,
                recovery,
            } => {
                let mut builder = KarNetwork::builder(self.topo, *technique)
                    .seed(self.seed)
                    .ttl(PROBE_TTL)
                    .detection_delay(self.detection)
                    .obs(obs.handle.clone());
                if let Some(recovery) = recovery {
                    builder = builder.recovery(recovery.clone());
                }
                let mut net = builder.build();
                let log = net.recovery_log();
                for &(src, dst) in self.flows {
                    net.encode(&EncodeRequest::new(src, dst).with_protection(protection.clone()))
                        .expect("route installs");
                }
                (net.into_sim(), log)
            }
            ProbeScheme::Table(table) => {
                let endpoints: Vec<NodeId> = self.flows.iter().flat_map(|&(s, d)| [s, d]).collect();
                let mut sim = Sim::new(
                    self.topo,
                    table.forwarder(self.topo, &endpoints, self.seed),
                    Box::new(TableEdge),
                    SimConfig {
                        seed: self.seed,
                        default_ttl: PROBE_TTL,
                        detection_delay: self.detection,
                        ..SimConfig::default()
                    },
                );
                sim.attach_obs(&obs.handle);
                (sim, None)
            }
        };
        if let Some(profiler) = &obs.profiler {
            sim.attach_profiler(profiler.clone());
        }
        for &(node, behavior) in self.byzantine {
            sim.set_behavior(node, behavior);
        }
        for &link in self.down {
            sim.schedule_link_down(SimTime::ZERO, link);
        }
        if let Some(plan) = self.plan {
            plan.apply(&mut sim);
        }
        for i in 0..self.probes {
            sim.run_until(SimTime(i * self.gap.as_nanos()));
            for (f, &(src, dst)) in self.flows.iter().enumerate() {
                sim.inject(
                    src,
                    dst,
                    FlowId(f as u32),
                    i,
                    PacketKind::Probe,
                    PROBE_BYTES,
                );
            }
        }
        sim.run_to_quiescence();
        ProbeOutcome {
            stats: sim.stats().clone(),
            recovery: log.map(|log| log.lock().expect("recovery log lock").clone()),
        }
    }
}

/// A deterministic sequence of pseudo-random draws for flow placement —
/// a tiny splitmix64 stream so cell workloads never depend on a global
/// RNG.
#[derive(Debug)]
pub struct DrawStream {
    state: u64,
}

impl DrawStream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Self {
        DrawStream { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Uniform draw in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Paces several CBR flows out of one host (the engine attaches one app
/// per edge node, so flows sharing a source must share the app). Timer
/// ids select the flow.
struct FlowFleet {
    flows: Vec<FleetFlow>,
}

struct FleetFlow {
    dst: NodeId,
    flow: FlowId,
    interval: SimTime,
    offset: SimTime,
    limit: u64,
    sent: u64,
}

impl App for FlowFleet {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for ix in 0..self.flows.len() {
            // Stagger starts so a 1024-flow cell is paced traffic, not a
            // time-zero burst into drop-tail queues.
            ctx.set_timer(self.flows[ix].offset, ix as u64);
        }
    }

    fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, _pkt: &Packet) {}

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        let f = &mut self.flows[id as usize];
        if f.sent >= f.limit {
            return;
        }
        ctx.send(f.dst, f.flow, f.sent, PacketKind::Probe, 700);
        f.sent += 1;
        if f.sent < f.limit {
            ctx.set_timer(f.interval, id);
        }
    }
}

/// Seeded `(src, dst)` draws over `hosts`, self-pairs excluded.
pub(crate) fn sample_pairs(
    hosts: &[NodeId],
    n: usize,
    draws: &mut DrawStream,
) -> Vec<(NodeId, NodeId)> {
    (0..n)
        .map(|_| {
            let src = hosts[draws.below(hosts.len())];
            let mut dst = hosts[draws.below(hosts.len())];
            while dst == src {
                dst = hosts[draws.below(hosts.len())];
            }
            (src, dst)
        })
        .collect()
}

/// Drives `pairs` as CBR flows of `limit` datagrams each: one
/// [`FlowFleet`] app per source host, per-flow interval and start offset
/// seeded from `draws`.
fn add_fleets(sim: &mut Sim<'_>, pairs: &[(NodeId, NodeId)], draws: &mut DrawStream, limit: u64) {
    let mut fleets: BTreeMap<usize, Vec<FleetFlow>> = BTreeMap::new();
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        let interval = SimTime::from_micros(1_000 + draws.below(1_000) as u64);
        let offset = SimTime::from_micros(draws.below(2_000) as u64);
        fleets.entry(src.0).or_default().push(FleetFlow {
            dst,
            flow: FlowId(i as u32),
            interval,
            offset,
            limit,
            sent: 0,
        });
    }
    for (src, flows) in fleets {
        sim.add_app(NodeId(src), Box::new(FlowFleet { flows }));
    }
}

/// Core-core links along a path, in path order.
pub(crate) fn core_links_along(topo: &Topology, path: &[NodeId]) -> Vec<LinkId> {
    path.windows(2)
        .filter(|w| topo.switch_id(w[0]).is_some() && topo.switch_id(w[1]).is_some())
        .filter_map(|w| topo.link_between(w[0], w[1]))
        .collect()
}

/// Specification of one fleet run: every pair a paced CBR flow over NIP
/// KAR with 50 µs failure detection, the middle core link of the first
/// pair's primary path down from t = 0, and a planner that reacts to
/// it — the recovery loop (200 µs notices) over flat routes, or a
/// failure-aware partitioned planner when `partition` is set. Without
/// detection and a reaction the wrong-edge recompute loop livelocks on
/// stale routes (each recompute resets the TTL).
#[derive(Debug, Clone)]
pub struct FleetRun<'a> {
    /// The network.
    pub topo: &'a Topology,
    /// One flow per entry (repeats allowed); flow `i` is `FlowId(i)`.
    pub pairs: &'a [(NodeId, NodeId)],
    /// Protection of every installed route.
    pub protection: Protection,
    /// Domains of the hierarchical planner; `None` runs flat KAR.
    pub partition: Option<Arc<Partition>>,
    /// Simulator seed.
    pub seed: u64,
    /// Datagrams each flow sends.
    pub packets: u64,
}

/// What a [`FleetRun`] measured.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The simulator's statistics at quiescence.
    pub stats: Stats,
    /// Distinct `(src, dst)` routes installed.
    pub routes: usize,
    /// Widest header a packet carries: the largest route ID, or the
    /// largest *segment* ID under a partition.
    pub header_bits_max: u32,
    /// Boundary re-encodes on the nominal routes (partitioned only).
    pub planned_reencodes: usize,
    /// Boundary re-stamps observed in the dataplane (partitioned only).
    pub boundary_restamps: u64,
}

impl FleetRun<'_> {
    /// Installs the distinct pairs, fails the link, paces the fleets
    /// from `draws` (draw order is part of every committed document)
    /// and runs to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if a route fails to install — the generated families are
    /// connected.
    pub fn run(&self, draws: &mut DrawStream, obs: &RunObs) -> FleetOutcome {
        // Four hops per switch: only a genuine loop exhausts the budget.
        let ttl = (self.topo.core_nodes().len() * 4).clamp(64, 16384) as u16;
        let mut builder = KarNetwork::builder(self.topo, DeflectionTechnique::Nip)
            .seed(self.seed)
            .ttl(ttl)
            .detection_delay(SimTime::from_micros(50))
            .obs(obs.handle.clone());
        if let Some(profiler) = &obs.profiler {
            builder = builder.profiler(profiler.clone());
        }
        builder = match &self.partition {
            Some(partition) => builder.hierarchy(Arc::clone(partition)),
            None => builder.recovery(RecoveryConfig {
                notification_delay: SimTime::from_micros(200),
                ..RecoveryConfig::default()
            }),
        };
        let mut net = builder.build();
        let distinct: BTreeSet<(NodeId, NodeId)> = self.pairs.iter().copied().collect();
        let (mut header_bits_max, mut planned_reencodes) = (0, 0);
        // Post-failure quiescence: a partitioned planner replans its
        // installed pairs when the failure notice lands (flat routes
        // get the recovery loop for the same reason).
        let planner = net.planner_mut();
        planner.set_failure_aware(self.partition.is_some());
        for &(src, dst) in &distinct {
            let route = planner
                .install(self.topo, src, dst, &self.protection)
                .expect("route installs");
            header_bits_max = header_bits_max.max(route.max_bits());
            planned_reencodes += route.reencodes();
        }
        let hier = net.hier_stats();
        let mut sim = net.into_sim();
        // The middle core link of the first pair's shortest path, so
        // the failure provably intersects live traffic.
        let (src, dst) = self.pairs[0];
        let primary = paths::bfs_shortest_path(self.topo, src, dst).expect("pairs are connected");
        let core_links = core_links_along(self.topo, &primary);
        if let Some(&link) = core_links.get(core_links.len() / 2) {
            sim.schedule_link_down(SimTime::ZERO, link);
        }
        add_fleets(&mut sim, self.pairs, draws, self.packets);
        sim.run_to_quiescence();
        FleetOutcome {
            stats: sim.stats().clone(),
            routes: distinct.len(),
            header_bits_max,
            planned_reencodes,
            boundary_restamps: hier.map_or(0, |h| {
                h.boundary_stamps.load(Ordering::Relaxed)
                    + h.boundary_recomputes.load(Ordering::Relaxed)
            }),
        }
    }
}

/// Links by endpoint names, e.g. `SW10-SW17`.
pub fn link_names(topo: &Topology, links: &[LinkId]) -> Vec<String> {
    links
        .iter()
        .map(|&l| {
            let link = topo.link(l);
            format!("{}-{}", topo.node(link.a).name, topo.node(link.b).name)
        })
        .collect()
}

/// Formats a Markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_topology::topo15;

    #[test]
    fn baseline_run_saturates_topo15() {
        let topo = topo15::build();
        let spec = TcpRun {
            duration: SimTime::from_secs(5),
            ..TcpRun::new(&topo, topo15::primary_route(&topo))
        };
        let res = run_tcp(&spec);
        let mean = res
            .meter
            .mean_mbps(SimTime::from_secs(1), SimTime::from_secs(5));
        assert!(mean > 150.0, "steady state ≈ 190 Mbit/s, got {mean}");
        // `reordered` counts out-of-order arrivals including Reno's own
        // loss retransmissions, so it is non-zero even without failures;
        // deflections must be exactly zero though.
        assert_eq!(res.deflections, 0);
    }

    #[test]
    fn failure_without_deflection_starves_throughput() {
        let topo = topo15::build();
        let spec = TcpRun {
            technique: DeflectionTechnique::None,
            duration: SimTime::from_secs(8),
            failure: Some(FailureWindow {
                link: topo.expect_link("SW7", "SW13"),
                down: SimTime::from_secs(2),
                up: SimTime::from_secs(6),
            }),
            ..TcpRun::new(&topo, topo15::primary_route(&topo))
        };
        let res = run_tcp(&spec);
        let during = res
            .meter
            .mean_mbps(SimTime::from_secs(3), SimTime::from_secs(6));
        assert!(during < 1.0, "no deflection → starved, got {during}");
        assert!(res.dropped > 0);
    }

    #[test]
    fn nip_with_protection_keeps_traffic_flowing() {
        let topo = topo15::build();
        let spec = TcpRun {
            protection: Protection::AutoFull,
            duration: SimTime::from_secs(8),
            failure: Some(FailureWindow {
                link: topo.expect_link("SW7", "SW13"),
                down: SimTime::from_secs(2),
                up: SimTime::from_secs(8),
            }),
            ..TcpRun::new(&topo, topo15::primary_route(&topo))
        };
        let res = run_tcp(&spec);
        let during = res
            .meter
            .mean_mbps(SimTime::from_secs(3), SimTime::from_secs(8));
        assert!(
            during > 50.0,
            "NIP + full protection must keep TCP alive, got {during}"
        );
        assert!(res.deflections > 0);
    }
}
