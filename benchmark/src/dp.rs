//! The three data-plane workloads. The op is a hop of a delivered
//! packet (`Stats::total_hops`); all three run single-threaded inside
//! `kar_simnet::Sim`, built from public APIs only.
//!
//! * `dp-fig7-tcp` — the paper's own experiment: rnp28, the Fig. 7
//!   route under full protection, NIP, SW13–SW41 down for the whole
//!   run, one Reno bulk flow. Narrow route ID, small event backlog, TCP
//!   in the loop.
//! * `dp-ring256-fleet` — a 256-switch ring, 512 paced flows, the
//!   recovering controller and a mid-path failure: route IDs beyond a
//!   thousand bits, hundreds of pending timers, no TCP.
//! * `dp-ring512-hier` — a 512-switch ring in 8 domains under the
//!   hierarchical controller: the only workload that runs
//!   `HierController` and its boundary restamp.

use crate::dp_units;
use crate::ledger::{reconcile, Row};
use crate::span::{SpanId, Tracer};
use crate::workload::{layer, sample_pairs, Draws, Layers, Rep, Scale, Workload};
use kar::hier::HierRoute;
use kar::prelude::*;
use kar::HierController;
use kar_obs::{ObsHandle, Profiler};
use kar_rns::IdStrategy;
use kar_simnet::{App, HostCtx};
use kar_tcp::{BulkFlow, TcpConfig};
use kar_topology::{gen, paths, rnp28, LinkId, LinkParams, Partition};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which data-plane workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig7Tcp,
    Ring256Fleet,
    Ring512Hier,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig7Tcp, Kind::Ring256Fleet, Kind::Ring512Hier];
}

/// One paced flow of a fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    pub src: NodeId,
    pub dst: NodeId,
    interval: SimTime,
    offset: SimTime,
}

/// A data-plane workload set up from a seed.
pub struct Dp {
    pub kind: Kind,
    pub scale: Scale,
    pub seed: u64,
    pub topo: Topology,
    /// Shared across repetitions and filled by the set-up run, so timed
    /// repetitions encode nothing: CRT cost lands in `setup_s`.
    pub cache: Arc<EncodingCache>,
    /// Fig. 7: delivered hops after which a repetition stops. Fleets:
    /// packets each flow sends.
    size: u64,
    /// Distinct `(src, dst)` pairs, one flow each (empty for Fig. 7).
    pub flows: Vec<Flow>,
    failed_link: LinkId,
    pub partition: Option<Arc<Partition>>,
    /// Timed repetitions made so far (selects the Fig. 7 sub-seed).
    reps_done: u64,
    /// `Stats` of the first full repetition under each simulator seed;
    /// every later one must equal it, observability on or off.
    reference: HashMap<u64, Stats>,
}

/// Simulator seeds a Fig. 7 run cycles through, one per repetition.
/// Reno under five-way random deflection is chaotic: one RNG stream
/// stalls for simulated seconds, the next never drops a packet, and the
/// hop loop's event mix (so its rate and memory) follows. Cycling a
/// handful of streams inside every run makes runs of different
/// `--seed`s measure the same mixture.
const FIG7_SUB_SEEDS: u64 = 8;

/// What one simulation produced.
pub struct Once {
    /// The simulator seed it ran under.
    sim_seed: u64,
    pub stats: Stats,
    pub in_flight: u64,
    /// Wall time of the traffic phase (`Sim::run_*`); building the
    /// network and installing routes is not part of the hop loop.
    pub wall: Duration,
    /// Boundary restamps (hierarchical workload only).
    pub restamps: u64,
}

/// Paces several flows out of one host (the engine attaches one app per
/// edge node); timer ids select the flow.
struct Fleet {
    flows: Vec<(Flow, FlowId, u64)>,
    limit: u64,
}

impl App for Fleet {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for (ix, (flow, _, _)) in self.flows.iter().enumerate() {
            ctx.set_timer(flow.offset, ix as u64);
        }
    }

    fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, _pkt: &Packet) {}

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        let (flow, flow_id, sent) = &mut self.flows[id as usize];
        ctx.send(flow.dst, *flow_id, *sent, PacketKind::Probe, 700);
        *sent += 1;
        if *sent < self.limit {
            ctx.set_timer(flow.interval, id);
        }
    }
}

/// The pinned Fig. 7 primary, E_BV → E_SP.
pub fn fig7_primary(topo: &Topology) -> Vec<NodeId> {
    rnp28::FIG7_ROUTE.iter().map(|n| topo.expect(n)).collect()
}

/// Core-core links along a path, in path order.
fn core_links_along(topo: &Topology, path: &[NodeId]) -> Vec<LinkId> {
    path.windows(2)
        .filter(|w| topo.switch_id(w[0]).is_some() && topo.switch_id(w[1]).is_some())
        .filter_map(|w| topo.link_between(w[0], w[1]))
        .collect()
}

impl Dp {
    /// Builds the workload's inputs from `seed` and makes one small
    /// set-up run, which fills the encoding cache and proves the wiring
    /// conserves packets.
    pub fn build(kind: Kind, seed: u64, scale: Scale) -> Dp {
        let ring = |n| {
            gen::try_ring(n, IdStrategy::SmallestPrimes, LinkParams::default())
                .expect("smallest primes never run out")
        };
        let (topo, partition) = match kind {
            Kind::Fig7Tcp => (rnp28::build(), None),
            Kind::Ring256Fleet => (ring(scale.pick(256, 64)), None),
            Kind::Ring512Hier => {
                let topo = ring(scale.pick(512, 64));
                let partition =
                    Partition::auto(&topo, scale.pick(8, 4)).expect("rings partition evenly");
                (topo, Some(Arc::new(partition)))
            }
        };
        let (flows, failed_link, size) = if kind == Kind::Fig7Tcp {
            let failed = topo.expect_link("SW13", "SW41");
            (Vec::new(), failed, scale.pick(200_000, 20_000))
        } else {
            // One fixed set of pairs, rotated around the ring by the
            // seed: every seed gets different switches (so different
            // route IDs) under the same multiset of path lengths, and
            // runs of different seeds do the same amount of work.
            let hosts = topo.edge_nodes();
            let pairs = sample_pairs(&hosts, scale.pick(512, 64), &mut Draws::new(0, 0xd9));
            let mut draws = Draws::new(seed, 0xd9);
            let turn = draws.below(hosts.len());
            let turned = |n: NodeId| {
                let at = hosts.iter().position(|&h| h == n).expect("a host");
                hosts[(at + turn) % hosts.len()]
            };
            let flows: Vec<Flow> = pairs
                .into_iter()
                .map(|(src, dst)| Flow {
                    src: turned(src),
                    dst: turned(dst),
                    // Paced and staggered, so hundreds of flows are
                    // traffic and not a time-zero burst into drop-tail
                    // queues.
                    interval: SimTime::from_micros(1_000 + draws.below(1_000) as u64),
                    offset: SimTime::from_micros(draws.below(2_000) as u64),
                })
                .collect();
            // Fail the middle core link of the first flow's primary, so
            // the failure provably intersects live traffic.
            let primary = paths::bfs_shortest_path(&topo, flows[0].src, flows[0].dst)
                .expect("rings are connected");
            let core = core_links_along(&topo, &primary);
            let packets = match kind {
                Kind::Ring256Fleet => scale.pick(8, 4),
                _ => scale.pick(6, 4),
            };
            (flows, core[core.len() / 2], packets)
        };
        let dp = Dp {
            kind,
            scale,
            seed,
            topo,
            cache: Arc::new(EncodingCache::new()),
            size,
            flows,
            failed_link,
            partition,
            reps_done: 0,
            reference: HashMap::new(),
        };
        let warm_size = if kind == Kind::Fig7Tcp { 20_000 } else { 1 };
        let warm = dp.run_once(
            warm_size,
            0,
            &ObsHandle::disabled(),
            None,
            &mut Tracer::off(),
            None,
        );
        if let Err(why) = check(&warm, None) {
            panic!("{kind:?} set-up run: {why}");
        }
        dp
    }

    /// Hop budget of the fleet topologies (as the scale campaign sets
    /// it); the paper's 128 for rnp28.
    fn ttl(&self) -> u16 {
        match self.kind {
            Kind::Fig7Tcp => 128,
            _ => (self.topo.core_nodes().len() * 4).clamp(64, 4096) as u16,
        }
    }

    /// A hierarchical controller with every flow installed, plus the
    /// installed segment chains.
    pub fn hier_controller(&self) -> (HierController, Vec<HierRoute>) {
        let partition = self.partition.clone().expect("hierarchical workload");
        let mut ctrl = HierController::new(partition).with_encoding_cache(self.cache.clone());
        ctrl.set_failure_aware(true);
        let routes = self
            .flows
            .iter()
            .map(|f| {
                ctrl.install(&self.topo, f.src, f.dst, &Protection::None)
                    .expect("rings are connected")
            })
            .collect();
        (ctrl, routes)
    }

    /// The routes packets of this workload carry, with the node path
    /// each one covers: the two protected Fig. 7 routes, one flat route
    /// per fleet flow, or every per-domain segment.
    pub fn routes(&self) -> Vec<(Vec<NodeId>, EncodedRoute)> {
        let encode = |path: Vec<NodeId>, protection: &Protection| {
            let route = self
                .cache
                .encode_with_protection(&self.topo, path.clone(), protection)
                .expect("workload routes encode");
            (path, route)
        };
        match self.kind {
            Kind::Fig7Tcp => {
                let forward = fig7_primary(&self.topo);
                let reverse = forward.iter().rev().copied().collect();
                vec![
                    encode(forward, &Protection::AutoFull),
                    encode(reverse, &Protection::AutoFull),
                ]
            }
            Kind::Ring256Fleet => self
                .flows
                .iter()
                .map(|f| {
                    let path = paths::bfs_shortest_path(&self.topo, f.src, f.dst)
                        .expect("rings are connected");
                    encode(path, &Protection::None)
                })
                .collect(),
            Kind::Ring512Hier => self
                .hier_controller()
                .1
                .into_iter()
                .flat_map(|r| r.segments)
                .map(|s| (s.path, s.route))
                .collect(),
        }
    }

    /// Builds the network from the fixture, installs every route, runs
    /// the traffic to the end and returns what the engine counted.
    pub fn run_once(
        &self,
        size: u64,
        sub_seed: u64,
        obs: &ObsHandle,
        profiler: Option<&Arc<Profiler>>,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> Once {
        let sim_seed = Draws::new(self.seed, sub_seed).next();
        let build = tracer.begin("net.build", 0, parent);
        let topo = &self.topo;
        let mut builder = KarNetwork::builder(topo, DeflectionTechnique::Nip)
            .seed(sim_seed)
            .ttl(self.ttl())
            .encoding_cache(self.cache.clone())
            .obs(obs.clone());
        if let Some(profiler) = profiler {
            builder = builder.profiler(profiler.clone());
        }
        let mut hier_stats = None;
        let mut sim = match self.kind {
            Kind::Fig7Tcp => {
                // 20 µs shared-softswitch service: the paper's Mininet
                // calibration for the RNP runs.
                let mut net = builder.switch_service(SimTime::from_micros(20)).build();
                let primary = fig7_primary(topo);
                let (src, dst) = (primary[0], primary[primary.len() - 1]);
                net.install_explicit(
                    primary.iter().rev().copied().collect(),
                    &Protection::AutoFull,
                )
                .expect("reverse route installs");
                net.install_explicit(primary, &Protection::AutoFull)
                    .expect("forward route installs");
                let mut sim = net.into_sim();
                BulkFlow::install(
                    &mut sim,
                    src,
                    dst,
                    FlowId(1),
                    TcpConfig::default(),
                    SimTime::from_secs(1),
                );
                sim
            }
            Kind::Ring256Fleet => {
                let mut net = builder
                    .detection_delay(SimTime::from_micros(50))
                    .recovery(RecoveryConfig {
                        notification_delay: SimTime::from_micros(200),
                        ..RecoveryConfig::default()
                    })
                    .build();
                for f in &self.flows {
                    net.encode(&EncodeRequest::new(f.src, f.dst))
                        .expect("rings are connected");
                }
                net.into_sim()
            }
            Kind::Ring512Hier => {
                let partition = self.partition.clone().expect("hierarchical workload");
                let mut net = builder
                    .detection_delay(SimTime::from_micros(50))
                    .hierarchy(partition)
                    .build();
                let ctrl = net.hier_controller_mut().expect("hierarchy enabled");
                // Replan installed pairs when the failure notice lands.
                ctrl.set_failure_aware(true);
                for f in &self.flows {
                    ctrl.install(topo, f.src, f.dst, &Protection::None)
                        .expect("rings are connected");
                }
                hier_stats = net.hier_stats();
                net.into_sim()
            }
        };
        sim.schedule_link_down(SimTime::ZERO, self.failed_link);
        let mut fleets: BTreeMap<NodeId, Vec<(Flow, FlowId, u64)>> = BTreeMap::new();
        for (i, f) in self.flows.iter().enumerate() {
            fleets
                .entry(f.src)
                .or_default()
                .push((*f, FlowId(i as u32), 0));
        }
        for (src, flows) in fleets {
            sim.add_app(src, Box::new(Fleet { flows, limit: size }));
        }
        tracer.end(build);

        let run = tracer.begin("sim.run", 0, parent);
        let started = Instant::now();
        if self.kind == Kind::Fig7Tcp {
            // Fixed work is a hop count, not a simulated duration: Reno
            // stalls for simulated seconds on some seeds, and a stall
            // costs almost no events. The stopping rule reads simulated
            // state only, so it is deterministic per seed.
            let slice = SimTime::from_millis(250);
            let cap = SimTime::from_secs(3_600);
            let mut until = SimTime::ZERO;
            while sim.stats().total_hops < size && until < cap {
                until += slice;
                sim.run_until(until);
            }
        } else {
            sim.run_to_quiescence();
        }
        let wall = started.elapsed();
        tracer.end(run);
        let restamps = hier_stats.map_or(0, |h| {
            h.boundary_stamps.load(Ordering::Relaxed)
                + h.boundary_recomputes.load(Ordering::Relaxed)
        });
        Once {
            sim_seed,
            stats: sim.stats().clone(),
            in_flight: sim.in_flight(),
            wall,
            restamps,
        }
    }

    /// Turns a finished simulation into a repetition: every hop counts
    /// as failed when the run broke packet conservation or its `Stats`
    /// differ from the first repetition's under the same simulator
    /// seed.
    pub fn judge(&mut self, once: &Once) -> Rep {
        let verdict = check(once, self.reference.get(&once.sim_seed));
        self.reference
            .entry(once.sim_seed)
            .or_insert_with(|| once.stats.clone());
        let ops = once.stats.total_hops;
        let failed = match verdict {
            Ok(()) => 0,
            Err(why) => {
                eprintln!("FAILED {:?}: {why}", self.kind);
                ops
            }
        };
        Rep {
            ops,
            failed,
            wall: once.wall,
        }
    }
}

/// The per-repetition correctness checks.
fn check(once: &Once, reference: Option<&Stats>) -> Result<(), String> {
    let s = &once.stats;
    if s.injected != s.delivered + s.dropped() + once.in_flight {
        return Err(format!(
            "conservation broken: injected {} != delivered {} + dropped {} + in flight {}",
            s.injected,
            s.delivered,
            s.dropped(),
            once.in_flight
        ));
    }
    if s.total_hops == 0 {
        return Err("no packet was delivered".into());
    }
    match reference {
        Some(r) if r != s => Err("Stats differ from the first repetition's under this seed".into()),
        _ => Ok(()),
    }
}

impl Workload for Dp {
    fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
        let sub_seed = match self.kind {
            Kind::Fig7Tcp => self.reps_done % FIG7_SUB_SEEDS,
            _ => 0,
        };
        self.reps_done += 1;
        let once = self.run_once(
            self.size,
            sub_seed,
            &ObsHandle::disabled(),
            None,
            tracer,
            None,
        );
        self.judge(&once)
    }

    fn traced(&mut self, tracer: &mut Tracer) -> (Layers, Vec<Rep>) {
        // Three repetitions of the same fixed work: observability off,
        // metrics on, metrics + profiler on. Their `Stats` must be equal
        // (DESIGN invariant 12) and their walls price observability —
        // so they are five timed repetitions long, or a percent of
        // overhead would drown in timer noise.
        let size = self.size * 5;
        let metrics_obs = ObsHandle::enabled();
        let profiled_obs = ObsHandle::enabled();
        let profiler = Arc::new(Profiler::new());
        let configs = [
            ("repetition.plain", ObsHandle::disabled(), None),
            ("repetition.metrics", metrics_obs, None),
            ("repetition.profiled", profiled_obs.clone(), Some(&profiler)),
        ];
        let mut runs = Vec::new();
        for (i, (name, obs, profiler)) in configs.into_iter().enumerate() {
            let root = tracer.begin(name, i as u64, None);
            runs.push(self.run_once(size, 0, &obs, profiler, tracer, Some(root)));
            tracer.end(root);
        }
        let reps: Vec<Rep> = runs.iter().map(|once| self.judge(once)).collect();
        let [plain, metrics, profiled] = &runs[..] else {
            unreachable!("three configurations ran");
        };
        let wall_ns = |o: &Once| o.wall.as_nanos() as f64;
        let overhead =
            |o: &Once, base: &Once| 100.0 * (wall_ns(o) - wall_ns(base)) / wall_ns(plain);

        let snapshot = profiled_obs
            .get()
            .expect("enabled handle")
            .metrics
            .snapshot();
        let counted = |pick: &dyn Fn(&str) -> bool| -> f64 {
            snapshot
                .counters
                .iter()
                .filter(|(_, metric, _)| pick(metric))
                .map(|c| c.2 as f64)
                .sum()
        };
        let forwards = counted(&|m| m == "forwarded");
        let injected = counted(&|m| m == "injected");
        let deflections = counted(&|m| m.starts_with("deflect."));
        let events = profiler.total_events() as f64;
        let rows = profiler.rows();
        let busy_ns: f64 = rows.iter().map(|r| r.total_ns as f64).sum();
        let busy_pct = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .map_or(0.0, |r| 100.0 * r.total_ns as f64 / busy_ns)
        };
        let hops = plain.stats.total_hops as f64;

        let mut layers: Layers = vec![
            ("simnet.sim.event_ns".into(), wall_ns(plain) / events),
            ("simnet.sim.events_per_hop".into(), events / hops),
            ("simnet.sim.deflections".into(), deflections),
            ("simnet.sim.drops".into(), plain.stats.dropped() as f64),
            ("simnet.sim.busy_pct.arrive".into(), busy_pct("arrive")),
            ("simnet.sim.busy_pct.tx_done".into(), busy_pct("tx-done")),
            ("simnet.sim.busy_pct.timer".into(), busy_pct("timer")),
            ("simnet.sim.busy_pct.reinject".into(), busy_pct("reinject")),
            ("obs.overhead.metrics_pct".into(), overhead(metrics, plain)),
            (
                "obs.overhead.profiler_pct".into(),
                overhead(profiled, metrics),
            ),
            ("trace.overhead_pct".into(), overhead(profiled, plain)),
        ];

        // Unit costs of every data-plane layer, on the routes of all
        // three dp workloads (the metric names say whose).
        let units = tracer.span("unit_costs", 0, None, || dp_units::measure(self));
        let unit = |name: &str| layer(&units, name);
        let own = dp_units::own_costs(self);
        let (ingress, backlog) = match self.kind {
            Kind::Fig7Tcp => (
                "core.controller.ingress_ns",
                "simnet.calendar.push_pop_ns.b64",
            ),
            Kind::Ring256Fleet => (
                "core.recovery.ingress_ns",
                "simnet.calendar.push_pop_ns.b1024",
            ),
            Kind::Ring512Hier => ("core.hier.ingress_ns", "simnet.calendar.push_pop_ns.b1024"),
        };
        let ledger = [
            Row {
                layer: "KarForwarder::forward + Reducer::rem",
                count: forwards,
                unit_ns: own.forward_ns,
            },
            Row {
                layer: "EdgeLogic::ingress",
                count: injected,
                unit_ns: unit(ingress),
            },
            Row {
                layer: "EdgeLogic::core_ingress (restamp)",
                count: plain.restamps as f64,
                unit_ns: unit("core.hier.core_ingress_ns"),
            },
            Row {
                layer: "EdgeLogic::core_ingress (pass)",
                count: if self.kind == Kind::Ring512Hier {
                    forwards
                } else {
                    0.0
                },
                unit_ns: own.core_pass_ns,
            },
            Row {
                layer: "CalendarQueue::push + pop",
                count: events,
                unit_ns: unit(backlog),
            },
        ];
        let remainder = match self.kind {
            Kind::Fig7Tcp => {
                "Sim dispatch (link queues, serialization, shared-CPU model, stats) \
                 and kar-tcp Reno inside arrive/timer events"
            }
            _ => "Sim dispatch (link queues, serialization, detection, stats) and the fleet app",
        };
        let unexplained = reconcile(wall_ns(plain), &ledger, remainder);
        layers.push(("trace.unexplained_pct".into(), unexplained));
        layers.extend(units);
        (layers, reps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale { smoke: true };

    #[test]
    fn repetitions_of_every_kind_pass_their_checks_and_repeat_exactly() {
        for kind in Kind::ALL {
            let mut dp = Dp::build(kind, 3, SMOKE);
            // One more than the Fig. 7 sub-seed cycle, so the last
            // repetition repeats the first one's simulator seed.
            let reps: Vec<Rep> = (0..=FIG7_SUB_SEEDS)
                .map(|_| dp.repetition(&mut Tracer::off()))
                .collect();
            assert!(reps[0].ops > 0, "{kind:?} delivered nothing");
            assert!(reps.iter().all(|r| r.failed == 0), "{kind:?}");
            assert_eq!(
                reps[0].ops, reps[FIG7_SUB_SEEDS as usize].ops,
                "{kind:?} fixed work must repeat"
            );
        }
    }

    #[test]
    fn every_seed_gets_the_same_path_lengths_on_other_switches() {
        let lengths = |dp: &Dp| {
            let mut l: Vec<usize> = dp.routes().iter().map(|(path, _)| path.len()).collect();
            l.sort_unstable();
            l
        };
        let a = Dp::build(Kind::Ring256Fleet, 1, SMOKE);
        let b = Dp::build(Kind::Ring256Fleet, 2, SMOKE);
        assert_eq!(lengths(&a), lengths(&b));
        assert_ne!(a.routes()[0].0, b.routes()[0].0);
    }

    #[test]
    fn a_flipped_stats_field_fails_every_op_of_the_repetition() {
        let mut dp = Dp::build(Kind::Ring256Fleet, 3, SMOKE);
        assert_eq!(dp.repetition(&mut Tracer::off()).failed, 0);
        let mut once = dp.run_once(
            dp.size,
            0,
            &ObsHandle::disabled(),
            None,
            &mut Tracer::off(),
            None,
        );
        // A field conservation does not cover: only the comparison with
        // the first repetition can catch it.
        once.stats.deflections += 1;
        let rep = dp.judge(&once);
        assert!(rep.ops > 0);
        assert_eq!(rep.failed, rep.ops);
        assert_eq!(rep.ops_per_s(), 0.0);
        // Conservation alone catches a lost packet.
        once.stats.deflections -= 1;
        once.stats.delivered -= 1;
        assert_eq!(dp.judge(&once).failed, rep.ops);
    }

    #[test]
    fn seed_changes_the_fleet_but_not_its_size() {
        let a = Dp::build(Kind::Ring256Fleet, 1, SMOKE);
        let b = Dp::build(Kind::Ring256Fleet, 2, SMOKE);
        assert_eq!(a.flows.len(), b.flows.len());
        assert!(a
            .flows
            .iter()
            .zip(&b.flows)
            .any(|(x, y)| (x.src, x.dst) != (y.src, y.dst)));
    }
}
