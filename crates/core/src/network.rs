//! One-stop assembly of a KAR network simulation.
//!
//! [`KarNetworkBuilder`] collects every knob of a run — seed, TTL,
//! detection delay, reroute policy, recovery loop, observability — and
//! a single [`KarNetworkBuilder::build`] produces a [`KarNetwork`],
//! which wires a topology, the KAR dataplane (modulo forwarding plus
//! deflection), and the controller-backed edge logic into a ready
//! [`Sim`]. This is the API the examples and every experiment driver
//! use; routes go in through [`KarNetwork::encode`] (one
//! [`EncodeRequest`] per route).

use crate::cache::EncodingCache;
use crate::controller::{EncodeOutcome, EncodeRequest, ReroutePolicy};
use crate::deflect::{DeflectionTechnique, KarForwarder};
use crate::error::KarError;
use crate::hier::HierStats;
use crate::planner::{LinkView, Planner};
use crate::protection::Protection;
use crate::recovery::{RecoveryConfig, RecoveryLog};
use crate::route::EncodedRoute;
use kar_obs::{Entity, ObsHandle, Profiler};
use kar_simnet::{Behavior, Sim, SimConfig, SimTime};
use kar_topology::{NodeId, Partition, Topology};
use std::sync::{Arc, Mutex};

/// Collects every configuration knob of a KAR simulation; one
/// [`KarNetworkBuilder::build`] call turns it into a [`KarNetwork`].
///
/// # Examples
///
/// ```
/// use kar::prelude::*;
/// use kar_topology::topo15;
///
/// let topo = topo15::build();
/// let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
///     .seed(7)
///     .ttl(255)
///     .build();
/// let as1 = topo.expect("AS1");
/// let as3 = topo.expect("AS3");
/// net.encode(&EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull))?;
/// let mut sim = net.into_sim();
/// sim.run_until(SimTime::from_millis(1));
/// # Ok::<(), kar::KarError>(())
/// ```
pub struct KarNetworkBuilder<'t>(KarNetwork<'t>);

impl<'t> KarNetworkBuilder<'t> {
    /// Starts a builder with default controller/simulation settings.
    pub fn new(topo: &'t Topology, technique: DeflectionTechnique) -> Self {
        KarNetworkBuilder(KarNetwork {
            topo,
            technique,
            planner: Planner::new(),
            sim_config: SimConfig::default(),
            byzantine: Vec::new(),
            obs: ObsHandle::disabled(),
            profiler: None,
        })
    }

    /// RNG seed (runs with equal seeds are bit-identical).
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.sim_config.seed = seed;
        self
    }

    /// Per-packet hop budget.
    pub fn ttl(mut self, ttl: u16) -> Self {
        self.0.sim_config.default_ttl = ttl;
        self
    }

    /// Serializes every core-switch traversal through one shared CPU
    /// taking `service` per packet (see
    /// [`kar_simnet::SimConfig::switch_service`]).
    pub fn switch_service(mut self, service: kar_simnet::SimTime) -> Self {
        self.0.sim_config.switch_service = Some(service);
        self
    }

    /// Enables per-packet path tracing (see [`kar_simnet::TraceLog`]).
    pub fn tracing(mut self) -> Self {
        self.0.sim_config.trace_paths = true;
        self
    }

    /// Failure-detection delay: how long switches keep forwarding into a
    /// dead port before noticing (the paper assumes zero).
    pub fn detection_delay(mut self, delay: kar_simnet::SimTime) -> Self {
        self.0.sim_config.detection_delay = delay;
        self
    }

    /// Wrong-edge policy (default: controller recompute with a 2 ms
    /// round trip, the paper's setting).
    pub fn reroute(mut self, policy: ReroutePolicy) -> Self {
        self.0.planner = self.0.planner.with_reroute(policy);
        self
    }

    /// Enables the failure-reactive controller loop (see
    /// [`crate::recovery`]). Read latencies afterwards via
    /// [`KarNetwork::recovery_log`].
    pub fn recovery(mut self, config: RecoveryConfig) -> Self {
        self.0.planner = self.0.planner.with_view(LinkView::Notices(config));
        self
    }

    /// Routes hierarchically over `partition` (see [`crate::hier`]):
    /// route IDs are encoded per domain and re-stamped at boundary
    /// crossings, bounding header bits by the largest domain instead of
    /// the path length. Encode-time protection applies to the ingress
    /// segment only; boundary re-encodes are unprotected (the paper's
    /// reactive-recompute posture). Composes with
    /// [`KarNetworkBuilder::recovery`]: segmentation and link-state view
    /// are independent parameters of the one [`Planner`].
    pub fn hierarchy(mut self, partition: Arc<Partition>) -> Self {
        self.0.planner = self.0.planner.with_partition(partition);
        self
    }

    /// Declares `node` a Byzantine switch with the given [`Behavior`]
    /// (accumulates across calls; the last behavior set for a node
    /// wins). Honest-only configurations never call this, keeping them
    /// byte-identical to the pre-adversary engine.
    pub fn byzantine(mut self, node: NodeId, behavior: Behavior) -> Self {
        self.0.byzantine.push((node, behavior));
        self
    }

    /// Attaches an observability bundle (see [`kar_obs`]). Pure
    /// observation — a run with observability attached is byte-identical
    /// to one without. Set it before installing routes so install-time
    /// gauges are captured too.
    pub fn obs(mut self, obs: ObsHandle) -> Self {
        self.0.planner = self.0.planner.with_obs(obs.clone());
        self.0.obs = obs;
        self
    }

    /// Attaches a profiler timing the engine's dispatch loop per event
    /// type (host wall clock — telemetry only).
    pub fn profiler(mut self, profiler: Arc<Profiler>) -> Self {
        self.0.profiler = Some(profiler);
        self
    }

    /// Routes all route-ID computation through a shared
    /// [`EncodingCache`]. Cached encodes are byte-identical to fresh
    /// ones — sharing a cache changes speed, never results.
    pub fn encoding_cache(mut self, cache: Arc<EncodingCache>) -> Self {
        self.0.planner = self.0.planner.with_encoding_cache(cache);
        self
    }

    /// Finalizes the configuration into a [`KarNetwork`] ready for route
    /// installs and [`KarNetwork::into_sim`].
    pub fn build(self) -> KarNetwork<'t> {
        self.0
    }
}

/// A configured KAR deployment: routes can be installed on it and
/// [`KarNetwork::into_sim`] wires it into a runnable simulation.
///
/// Construct one via [`KarNetwork::builder`] (or [`KarNetwork::new`]
/// for all-default settings).
pub struct KarNetwork<'t> {
    topo: &'t Topology,
    technique: DeflectionTechnique,
    planner: Planner,
    sim_config: SimConfig,
    byzantine: Vec<(NodeId, Behavior)>,
    obs: ObsHandle,
    profiler: Option<Arc<Profiler>>,
}

impl<'t> KarNetwork<'t> {
    /// Starts a [`KarNetworkBuilder`] — the one-stop configuration
    /// surface for every knob of a run.
    pub fn builder(topo: &'t Topology, technique: DeflectionTechnique) -> KarNetworkBuilder<'t> {
        KarNetworkBuilder::new(topo, technique)
    }

    /// Creates a network with the given deflection technique and default
    /// controller/simulation settings (equivalent to building the
    /// default [`KarNetworkBuilder`]).
    pub fn new(topo: &'t Topology, technique: DeflectionTechnique) -> Self {
        KarNetworkBuilder::new(topo, technique).build()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// Handle onto the recovery-latency log, when the failure-reactive
    /// controller loop is enabled (see [`KarNetworkBuilder::recovery`]).
    /// The first call attaches the log (see [`Planner::log_handle`]).
    pub fn recovery_log(&mut self) -> Option<Arc<Mutex<RecoveryLog>>> {
        matches!(self.planner.view(), LinkView::Notices(_)).then(|| self.planner.log_handle())
    }

    /// Mutable access to the planner (failure awareness, inspection,
    /// whole-chain installs).
    pub fn planner_mut(&mut self) -> &mut Planner {
        &mut self.planner
    }

    /// [`KarNetwork::planner_mut`] when [`KarNetworkBuilder::hierarchy`]
    /// was set.
    #[doc(hidden)]
    pub fn hier_controller_mut(&mut self) -> Option<&mut Planner> {
        self.planner
            .partition()
            .is_some()
            .then_some(&mut self.planner)
    }

    /// Handle onto the planner's boundary counters, when hierarchy is
    /// enabled (survives [`KarNetwork::into_sim`]).
    pub fn hier_stats(&self) -> Option<Arc<HierStats>> {
        self.planner.partition().map(|_| self.planner.stats())
    }

    /// Serves one [`EncodeRequest`]: installs a shortest-path route
    /// with the requested protection and returns it together with its
    /// canonical wire header. The single public encode entry point —
    /// the service daemon, the campaign engine and the examples all
    /// call this. Under [`KarNetworkBuilder::hierarchy`] the returned
    /// route is the *ingress segment* (what the edge actually stamps);
    /// downstream segments live in the planner's boundary memo.
    ///
    /// # Errors
    ///
    /// See [`Planner::encode`].
    pub fn encode(&mut self, req: &EncodeRequest) -> Result<EncodeOutcome, KarError> {
        let outcome = self.planner.encode(self.topo, req, SimTime::ZERO)?;
        self.note_install(req.src, req.dst);
        Ok(outcome)
    }

    /// Publishes the nominal (failure-free) hop count of an installed
    /// primary under its `(src, dst)` pair so dumps can compute stretch.
    fn note_install(&self, src: NodeId, dst: NodeId) {
        if let (Some(obs), Some(hops)) = (self.obs.get(), self.planner.nominal_hops(src, dst)) {
            obs.metrics
                .gauge(Entity::Pair(src.0 as u32, dst.0 as u32), "nominal_hops")
                .set(hops as i64);
        }
    }

    /// Installs an explicit (pinned) primary path with protection and
    /// returns what the ingress edge stamps (under
    /// [`KarNetworkBuilder::hierarchy`] the path is split at boundary
    /// links like any other; this is its first segment).
    ///
    /// # Errors
    ///
    /// See [`Planner::install_explicit`].
    pub fn install_explicit(
        &mut self,
        primary: Vec<NodeId>,
        protection: &Protection,
    ) -> Result<EncodedRoute, KarError> {
        let ends = primary.first().copied().zip(primary.last().copied());
        let mut route = self
            .planner
            .install_explicit(self.topo, primary, protection)?;
        let (src, dst) = ends.expect("an installed path is non-empty");
        self.note_install(src, dst);
        Ok(route.segments.swap_remove(0).route)
    }

    /// Finalizes into a runnable simulation.
    pub fn into_sim(self) -> Sim<'t> {
        let mut sim = Sim::new(
            self.topo,
            Box::new(KarForwarder::new(self.technique)),
            Box::new(self.planner),
            self.sim_config,
        );
        sim.attach_obs(&self.obs);
        if let Some(profiler) = self.profiler {
            sim.attach_profiler(profiler);
        }
        for (node, behavior) in self.byzantine {
            sim.set_behavior(node, behavior);
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_simnet::{FlowId, PacketKind};
    use kar_topology::{paths, topo15};

    #[test]
    fn probe_crosses_topo15_primary_route() {
        let topo = topo15::build();
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
            .seed(3)
            .build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        net.encode(&EncodeRequest::new(as1, as3)).unwrap();
        let mut sim = net.into_sim();
        sim.inject(as1, as3, FlowId(0), 0, PacketKind::Probe, 1000);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().max_hops, 4); // SW10, SW7, SW13, SW29
        assert_eq!(sim.stats().deflections, 0);
    }

    #[test]
    fn deflection_rescues_probes_across_failure() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let failed = topo.expect_link("SW7", "SW13");

        // Without deflection: all probes die at SW7.
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::None)
            .seed(3)
            .build();
        net.encode(&EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull))
            .unwrap();
        let mut sim = net.into_sim();
        sim.schedule_link_down(SimTime::ZERO, failed);
        for i in 0..50 {
            sim.inject(as1, as3, FlowId(0), i, PacketKind::Probe, 1000);
        }
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 0);

        // With NIP + full protection: every probe survives.
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
            .seed(3)
            .build();
        net.encode(&EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull))
            .unwrap();
        let mut sim = net.into_sim();
        sim.schedule_link_down(SimTime::ZERO, failed);
        for i in 0..50 {
            sim.inject(as1, as3, FlowId(0), i, PacketKind::Probe, 1000);
        }
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 50, "{:?}", sim.stats());
        assert!(sim.stats().deflections >= 50);
    }

    #[test]
    fn hitless_property_no_packet_loss_with_protection() {
        // The paper's liveness claim: with driven deflections, in-flight
        // packets reach the destination despite the failure — no loss.
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        for (a, b) in topo15::FAILURE_LOCATIONS {
            let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
                .seed(11)
                .build();
            net.encode(&EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull))
                .unwrap();
            let mut sim = net.into_sim();
            sim.schedule_link_down(SimTime::ZERO, topo.expect_link(a, b));
            for i in 0..100 {
                sim.inject(as1, as3, FlowId(0), i, PacketKind::Probe, 500);
            }
            sim.run_to_quiescence();
            assert_eq!(
                sim.stats().delivered,
                100,
                "failure {a}-{b}: {:?}",
                sim.stats()
            );
        }
    }

    #[test]
    fn unprotected_nip_still_delivers_by_wandering() {
        // Without protection, NIP random walks; packets may surface at
        // AS2 (wrong edge) and get re-encoded by the controller. With a
        // generous TTL everything eventually arrives.
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
            .seed(5)
            .ttl(255)
            .build();
        net.encode(&EncodeRequest::new(as1, as3)).unwrap();
        let mut sim = net.into_sim();
        sim.schedule_link_down(SimTime::ZERO, topo.expect_link("SW7", "SW13"));
        for i in 0..50 {
            sim.inject(as1, as3, FlowId(0), i, PacketKind::Probe, 500);
        }
        sim.run_to_quiescence();
        let s = sim.stats();
        assert!(
            s.delivered >= 45,
            "most random-walking probes should arrive: {s:?}"
        );
        assert!(
            s.mean_hops().unwrap() > 4.0,
            "wandering costs hops: {:?}",
            s.mean_hops()
        );
    }

    #[test]
    fn recovery_reencodes_the_flow_after_the_notification_lands() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let failed = topo.expect_link("SW7", "SW13");
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
            .seed(7)
            .detection_delay(SimTime::from_micros(100))
            .recovery(crate::recovery::RecoveryConfig {
                notification_delay: SimTime::from_millis(1),
                protection: Protection::None,
            })
            .build();
        let log = net.recovery_log().unwrap();
        net.encode(&EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull))
            .unwrap();
        let mut sim = net.into_sim();
        // Failure at 1 ms; observed at 1.1 ms; recovery live at 2.1 ms.
        sim.schedule_link_down(SimTime::from_millis(1), failed);
        for i in 0..20 {
            sim.run_until(SimTime::from_micros(i * 500));
            sim.inject(as1, as3, FlowId(0), i, PacketKind::Probe, 500);
        }
        sim.run_to_quiescence();
        let s = sim.stats();
        // Packets already racing toward SW7 inside the 100 µs detection
        // window die in the dead link; everything else arrives — either
        // by deflection (observed-down window) or on the recovered route.
        assert!(s.delivered >= 18, "{s:?}");
        assert_eq!(s.delivered + s.dropped(), 20, "{s:?}");
        assert!(
            s.deflected_delivered > 0,
            "packets in the recovery window survive by deflection: {s:?}"
        );
        let log = log.lock().unwrap();
        assert_eq!(log.notices.len(), 1);
        assert_eq!(log.flows.len(), 1, "{log:?}");
        assert!(
            log.flows[0].latency() >= SimTime::from_millis(1),
            "latency includes the notification delay: {}",
            log.flows[0].latency()
        );
    }

    #[test]
    fn observability_records_installs_and_recovery_without_changing_results() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let failed = topo.expect_link("SW7", "SW13");
        let run = |obs: ObsHandle| {
            let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
                .seed(7)
                .detection_delay(SimTime::from_micros(100))
                .obs(obs)
                .recovery(crate::recovery::RecoveryConfig {
                    notification_delay: SimTime::from_millis(1),
                    protection: Protection::None,
                })
                .build();
            net.encode(&EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull))
                .unwrap();
            let mut sim = net.into_sim();
            sim.schedule_link_down(SimTime::from_millis(1), failed);
            for i in 0..20 {
                sim.run_until(SimTime::from_micros(i * 500));
                sim.inject(as1, as3, FlowId(0), i, PacketKind::Probe, 500);
            }
            sim.run_to_quiescence();
            sim.stats().clone()
        };
        let plain = run(kar_obs::ObsHandle::disabled());
        let handle = kar_obs::ObsHandle::enabled();
        let instrumented = run(handle.clone());
        assert_eq!(plain, instrumented, "observation must not perturb the run");

        let obs = handle.get().unwrap();
        // Route install published the nominal hop count of the primary
        // (AS1 → SW10 → SW7 → SW13 → SW29 → AS3: 5 link hops).
        let nominal = obs
            .metrics
            .gauge(Entity::Pair(as1.0 as u32, as3.0 as u32), "nominal_hops")
            .get();
        assert_eq!(nominal, 5);
        // The recovery loop saw one failure notice and re-encoded once.
        assert_eq!(
            obs.metrics
                .counter(Entity::Global, "recovery.notices")
                .get(),
            1
        );
        assert_eq!(
            obs.metrics
                .counter(Entity::Global, "recovery.reencodes")
                .get(),
            1
        );
        let notif = obs
            .metrics
            .histogram(Entity::Global, "recovery.notification_ns");
        assert_eq!(notif.count(), 1);
        assert_eq!(notif.min(), Some(SimTime::from_millis(1).as_nanos()));
        let latency = obs.metrics.histogram(Entity::Global, "recovery.latency_ns");
        assert_eq!(latency.count(), 1);
        assert!(latency.min().unwrap() >= SimTime::from_millis(1).as_nanos());
        let reencodes: Vec<_> = obs
            .events
            .events()
            .into_iter()
            .filter(|e| e.kind == kar_obs::EventKind::Reencode)
            .collect();
        assert_eq!(reencodes.len(), 1, "one detour, never restored");
        assert_eq!(reencodes[0].tag, "detour");
        assert_eq!(reencodes[0].node, Some(as1.0 as u32));
    }

    #[test]
    fn hierarchy_through_the_builder_delivers_and_counts_boundaries() {
        let topo = crate::planner::tests::ring(12);
        let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
            .seed(5)
            .hierarchy(Arc::clone(&partition))
            .build();
        let src = topo.expect("H0");
        let dst = topo.expect("H6");
        let out = net.encode(&EncodeRequest::new(src, dst)).unwrap();
        // The advertised route is the ingress segment: strictly smaller
        // than the flat encoding over the same half-ring path.
        let primary = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        let flat =
            crate::protection::encode_with_protection(&topo, primary, &Protection::None).unwrap();
        assert!(out.route.bit_length() < flat.bit_length());
        let stats = net.hier_stats().unwrap();
        let mut sim = net.into_sim();
        for i in 0..10 {
            sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 500);
        }
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 10, "{:?}", sim.stats());
        // Shortest-path hops: H0→C0→…→C6→H6 = 8 links, 7 switches.
        assert_eq!(sim.stats().max_hops, 7);
        assert!(
            stats
                .boundary_stamps
                .load(std::sync::atomic::Ordering::Relaxed)
                + stats
                    .boundary_recomputes
                    .load(std::sync::atomic::Ordering::Relaxed)
                >= 10
        );
    }

    /// A pinned path is just a path: under a partition it is split at
    /// boundary links like any other, and every probe walks it.
    #[test]
    fn pinned_route_survives_hierarchy() {
        let topo = crate::planner::tests::ring(12);
        let partition = Arc::new(Partition::ring(&topo, 4).unwrap());
        let (src, dst) = (topo.expect("H0"), topo.expect("H6"));
        // Both half-rings are shortest; pin the one BFS does not pick.
        let bfs = paths::bfs_shortest_path(&topo, src, dst).unwrap();
        let other_way = if bfs[2] == topo.expect("C1") { 11 } else { 1 };
        let mut pinned = vec![src];
        pinned.extend((0..=6).map(|i| topo.expect(&format!("C{}", (i * other_way) % 12))));
        pinned.push(dst);
        assert_ne!(pinned, bfs);
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
            .seed(5)
            .tracing()
            .hierarchy(Arc::clone(&partition))
            .build();
        let first = net
            .install_explicit(pinned.clone(), &Protection::None)
            .unwrap();
        let flat =
            crate::protection::encode_with_protection(&topo, pinned.clone(), &Protection::None)
                .unwrap();
        assert!(
            first.bit_length() < flat.bit_length(),
            "a per-domain segment"
        );
        let stats = net.hier_stats().unwrap();
        let mut sim = net.into_sim();
        for i in 0..10 {
            sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 500);
        }
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 10, "{:?}", sim.stats());
        for (_, trace) in sim.trace().iter() {
            assert_eq!(trace.path, pinned, "probes walk the pinned half-ring");
        }
        let crossings = pinned
            .windows(2)
            .filter(|w| partition.is_boundary(topo.link_between(w[0], w[1]).unwrap()))
            .count() as u64;
        assert!(crossings >= 2);
        let stamps = stats
            .boundary_stamps
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(
            stamps,
            10 * crossings,
            "every segment was pinned at install"
        );
    }

    #[test]
    fn builder_knobs() {
        let topo = topo15::build();
        let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Avp)
            .seed(9)
            .ttl(32)
            .reroute(ReroutePolicy::Drop)
            .build();
        assert_eq!(net.topology().node_count(), 15);
        assert!(net.recovery_log().is_none());
        let sim = net.into_sim();
        assert_eq!(sim.forwarder().name(), "AVP");
    }

    /// `encode` returns the header whose bytes the ingress path stamps
    /// onto packets — the sim side of the sim/service byte-identity
    /// contract.
    #[test]
    fn encode_outcome_header_matches_installed_route() {
        let topo = topo15::build();
        let mut net = KarNetwork::new(&topo, DeflectionTechnique::Nip);
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let out = net
            .encode(&EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull))
            .unwrap();
        assert_eq!(out.header.unpack(), out.route.route_id);
        assert_eq!(
            net.planner_mut().route(as1, as3),
            Some(&out.route),
            "encode installs at the ingress edge"
        );
    }
}
