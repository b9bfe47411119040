//! The discrete-event simulation engine.
//!
//! This replaces the paper's Mininet + OpenFlow-softswitch emulation: links
//! serialize packets at their configured rate into drop-tail queues,
//! propagation is a fixed delay, link failures are scheduled events that a
//! switch observes instantly as port status (the paper assumes fast local
//! failure detection), and all randomness flows from one seeded RNG so
//! every run is reproducible.

use crate::adversary::Behavior;
use crate::calendar::{CalendarEntry, CalendarQueue};
use crate::forwarder::{DropReason, ForwardDecision, Forwarder, SwitchCtx};
use crate::host::{App, AppAction, EdgeLogic, HostCtx, RerouteDecision};
use crate::packet::{FlowId, Packet, PacketKind};
use crate::stats::Stats;
use crate::time::{tx_time, SimTime};
use crate::trace::{PacketFate, TraceLog};
use kar_obs::{pkt_span, Entity, Event as ObsEvent, EventKind, Obs, ObsHandle, Profiler};
use kar_rns::{BigUint, Reducer};
use kar_topology::{LinkId, NodeId, NodeKind, PortIx, Topology};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// RNG seed: equal seeds give bit-identical runs.
    pub seed: u64,
    /// Hop budget given to each injected packet. Deflection random walks
    /// are cut off here (the paper's transient loops are bounded the same
    /// way in its softswitch prototype).
    pub default_ttl: u16,
    /// Per-packet service time of a *shared* switching CPU, if any.
    ///
    /// The paper's evaluation runs every OpenFlow softswitch in user
    /// space on one Mininet host, so the aggregate forwarding capacity
    /// is fixed and goodput falls as deflections inflate per-packet hop
    /// counts. `Some(t)` models that: every core-switch traversal is
    /// serialized through one shared server taking `t` per packet.
    /// `None` (the default) forwards at infinite speed.
    ///
    /// The server's pending completions form a FIFO beside the event
    /// calendar: the server finishes packets in the order it takes them,
    /// so their `(at, seq)` keys already ascend, and the engine merges
    /// the FIFO's head with the calendar's by that key. The dispatch
    /// order is the one a single sorted queue of both would give.
    pub switch_service: Option<SimTime>,
    /// Record every packet's node path in a [`TraceLog`] (costs memory;
    /// off by default).
    pub trace_paths: bool,
    /// How long the adjacent switches take to observe a link state
    /// change, in both directions: after a failure the port still reads
    /// up (packets forwarded into it are lost), and after a repair it
    /// still reads down (the working port is avoided). The paper assumes
    /// instantaneous local detection (`ZERO`, the default); real
    /// detection (loss-of-light, BFD) takes from microseconds to tens of
    /// milliseconds. Fault plans can override the delay per event to
    /// model jitter.
    pub detection_delay: SimTime,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            default_ttl: 64,
            switch_service: None,
            trace_paths: false,
            detection_delay: SimTime::ZERO,
        }
    }
}

/// One direction of a link at runtime. Packets are boxed here and in
/// [`Event`]: a hop moves a pointer, not the 112-byte packet.
#[derive(Debug, Default)]
struct DirState {
    queue: VecDeque<Box<Packet>>,
    transmitting: Option<Box<Packet>>,
    /// Bumped whenever the direction is force-cleared (link failure) so
    /// stale `TxDone` events can be recognized and ignored.
    epoch: u64,
}

/// Physical state of one link. What the adjacent switches *believe* is
/// not here but in [`Sim::port_up`], the slices forwarders read.
#[derive(Debug, Default)]
struct LinkState {
    /// Physical state: a down link refuses traffic regardless of what the
    /// adjacent switches believe.
    down: bool,
    /// Bumped on every physical transition; detection events carry the
    /// seq of the transition they observed so a stale detection (e.g. a
    /// slow failure report racing a fast repair report under jitter)
    /// never overwrites a newer observation.
    change_seq: u64,
    /// `change_seq` of the most recently applied observation.
    observed_seq: u64,
    dirs: [DirState; 2],
}

enum Event {
    Start(NodeId),
    Arrive {
        pkt: Box<Packet>,
        node: NodeId,
        in_port: Option<PortIx>,
        /// Whether the shared switching CPU already served this arrival.
        cpu_done: bool,
    },
    TxDone {
        link: LinkId,
        dir: usize,
        epoch: u64,
    },
    Timer {
        node: NodeId,
        id: u64,
    },
    LinkDown {
        link: LinkId,
        /// Per-event detection delay override (`None` = config default).
        detection: Option<SimTime>,
    },
    LinkUp {
        link: LinkId,
        detection: Option<SimTime>,
    },
    /// The adjacent switches resolve a link state change (`down` is the
    /// newly observed state); `seq` guards against stale observations.
    Detect {
        link: LinkId,
        seq: u64,
        down: bool,
    },
    Reinject {
        pkt: Box<Packet>,
        node: NodeId,
        port: PortIx,
    },
}

impl Event {
    /// Static label for the profiler's self-time table.
    fn label(&self) -> &'static str {
        match self {
            Event::Start(_) => "start",
            Event::Arrive { .. } => "arrive",
            Event::TxDone { .. } => "tx-done",
            Event::Timer { .. } => "timer",
            Event::LinkDown { .. } => "link-down",
            Event::LinkUp { .. } => "link-up",
            Event::Detect { .. } => "detect",
            Event::Reinject { .. } => "reinject",
        }
    }
}

/// Pre-resolved instrument handles for the engine's hot paths. Built
/// once when an enabled [`ObsHandle`] is attached, so recording never
/// takes the registry lock (the per-flow histograms on delivery are the
/// one cold-path exception).
struct SimObs {
    bundle: Arc<Obs>,
    /// `deflect.<technique>` per switch, technique from the forwarder.
    node_deflect: Vec<kar_obs::Counter>,
    /// Packets a core switch chose an output port for.
    node_forwarded: Vec<kar_obs::Counter>,
    /// Packets injected at each edge.
    node_injected: Vec<kar_obs::Counter>,
    /// Packets delivered at each edge.
    node_delivered: Vec<kar_obs::Counter>,
    /// Bytes that finished serializing on each link.
    link_bytes: Vec<kar_obs::Counter>,
    /// Packets lost on each link (overflow or failure).
    link_drops: Vec<kar_obs::Counter>,
    /// Queue depth of the most recently changed direction (the max is
    /// the per-link high-water mark over both directions).
    link_queue: Vec<kar_obs::Gauge>,
    /// Queue depth over time, decimated.
    link_queue_series: Vec<kar_obs::Series>,
    /// Global delivery latency, nanoseconds.
    latency: kar_obs::Histogram,
    /// Global delivered hop counts.
    hops: kar_obs::Histogram,
}

impl SimObs {
    fn build(handle: &ObsHandle, topo: &Topology, technique: &str) -> Option<SimObs> {
        let bundle = handle.arc()?;
        let reg = &bundle.metrics;
        let deflect_metric = format!("deflect.{technique}");
        let nodes = 0..topo.node_count() as u32;
        let links = 0..topo.link_count() as u32;
        let per_node = |m: &str| -> Vec<_> {
            nodes
                .clone()
                .map(|i| reg.counter(Entity::Node(i), m))
                .collect()
        };
        Some(SimObs {
            node_deflect: per_node(&deflect_metric),
            node_forwarded: per_node("forwarded"),
            node_injected: per_node("injected"),
            node_delivered: per_node("delivered"),
            link_bytes: links
                .clone()
                .map(|i| reg.counter(Entity::Link(i), "bytes"))
                .collect(),
            link_drops: links
                .clone()
                .map(|i| reg.counter(Entity::Link(i), "drops"))
                .collect(),
            link_queue: links
                .clone()
                .map(|i| reg.gauge(Entity::Link(i), "queue"))
                .collect(),
            link_queue_series: links
                .map(|i| reg.series(Entity::Link(i), "queue"))
                .collect(),
            latency: reg.histogram(Entity::Global, "latency_ns"),
            hops: reg.histogram(Entity::Global, "hops"),
            bundle,
        })
    }

    fn event(&self, ev: ObsEvent) {
        self.bundle.events.push(ev);
    }
}

/// The discrete-event network simulator.
///
/// Wire up a topology, a [`Forwarder`] (the core dataplane), an
/// [`EdgeLogic`] (ingress/egress), and apps on edge nodes; schedule
/// failures; then [`Sim::run_until`] an end time and read [`Sim::stats`].
///
/// # Examples
///
/// A two-switch network delivering a probe end to end is exercised in the
/// crate tests (`sim::tests::probe_crosses_static_route`); realistic
/// usage goes through the `kar` crate's [`KarNetwork`] façade, which
/// assembles all the pieces.
///
/// [`KarNetwork`]: https://docs.rs/kar
pub struct Sim<'t> {
    topo: &'t Topology,
    now: SimTime,
    /// Pending events in `(at, seq)` order — a bucketed calendar queue
    /// (see [`crate::calendar`]) that reproduces the old binary heap's
    /// order exactly.
    events: CalendarQueue<Event>,
    /// The shared switching CPU's pending completions (served arrivals),
    /// ascending in `(at, seq)` by construction: `cpu_busy_until` never
    /// decreases and `seq` always grows. Merged with `events` by key in
    /// [`Sim::next_event`].
    cpu_queue: VecDeque<CalendarEntry<Event>>,
    /// Key of the last dispatched event: each next one must be larger.
    #[cfg(debug_assertions)]
    last_key: Option<(SimTime, u64)>,
    /// Per-node reduction constants, handed to the forwarder via
    /// [`SwitchCtx::reducer`]: one per core switch, `None` for edges.
    reducers: Vec<Option<Reducer>>,
    links: Vec<LinkState>,
    /// What each switch currently observes of its ports, node `n`'s in
    /// `port_up[port_base[n]..port_base[n + 1]]` in port order — the
    /// slice a core hop hands the forwarder as [`SwitchCtx::ports`].
    /// Lags the physical [`LinkState::down`] by the detection delay in
    /// *both* directions (a freshly failed link still reads up, a freshly
    /// repaired one still reads down); both ends of a link always agree.
    port_up: Vec<bool>,
    port_base: Vec<usize>,
    /// Per-node Byzantine behavior, indexed by `NodeId` (see
    /// [`crate::adversary`]). Empty means every switch is honest — the
    /// default, and the only state existing scenarios ever see.
    behaviors: Vec<Behavior>,
    forwarder: Box<dyn Forwarder>,
    edge_logic: Box<dyn EdgeLogic>,
    apps: Vec<Option<Box<dyn App>>>,
    rng: StdRng,
    stats: Stats,
    config: SimConfig,
    next_pkt_id: u64,
    next_event_seq: u64,
    in_flight: u64,
    /// Shared switching CPU is busy until this time (see
    /// [`SimConfig::switch_service`]).
    cpu_busy_until: SimTime,
    trace: TraceLog,
    /// Pre-resolved metrics/event handles (`None` = observability off,
    /// which costs one pointer check per hook).
    obs: Option<SimObs>,
    /// Wall-clock self-time profiler for the dispatch loop.
    profiler: Option<Arc<Profiler>>,
}

impl<'t> Sim<'t> {
    /// Creates an engine over `topo` with the given dataplane and edge
    /// logic.
    pub fn new(
        topo: &'t Topology,
        forwarder: Box<dyn Forwarder>,
        edge_logic: Box<dyn EdgeLogic>,
        config: SimConfig,
    ) -> Self {
        let mut links = Vec::with_capacity(topo.link_count());
        links.resize_with(topo.link_count(), LinkState::default);
        let reducers = (0..topo.node_count())
            .map(|i| match topo.node(NodeId(i)).kind {
                NodeKind::Core { switch_id } => Some(Reducer::new(switch_id)),
                _ => None,
            })
            .collect();
        let mut port_base = Vec::with_capacity(topo.node_count() + 1);
        port_base.push(0);
        for node in topo.nodes() {
            port_base.push(port_base[port_base.len() - 1] + node.ports.len());
        }
        Sim {
            topo,
            now: SimTime::ZERO,
            events: CalendarQueue::default(),
            cpu_queue: VecDeque::new(),
            #[cfg(debug_assertions)]
            last_key: None,
            reducers,
            links,
            port_up: vec![true; port_base[port_base.len() - 1]],
            port_base,
            behaviors: Vec::new(),
            forwarder,
            edge_logic,
            apps: (0..topo.node_count()).map(|_| None).collect(),
            rng: StdRng::seed_from_u64(config.seed),
            stats: Stats::default(),
            config,
            next_pkt_id: 0,
            next_event_seq: 0,
            in_flight: 0,
            cpu_busy_until: SimTime::ZERO,
            trace: TraceLog::default(),
            obs: None,
            profiler: None,
        }
    }

    /// Attaches an observability bundle. Instrument handles are resolved
    /// once here, so the hot paths record lock-free; attaching a
    /// disabled handle (the default everywhere) keeps observability off.
    /// Metrics are pure observation — they never touch the RNG or any
    /// simulation state, so runs are byte-identical with or without.
    pub fn attach_obs(&mut self, handle: &ObsHandle) {
        self.obs = SimObs::build(handle, self.topo, self.forwarder.name());
    }

    /// The attached observability bundle (disabled handle when none).
    pub fn obs(&self) -> ObsHandle {
        match &self.obs {
            Some(o) => ObsHandle::from_obs(o.bundle.clone()),
            None => ObsHandle::disabled(),
        }
    }

    /// Attaches a wall-clock profiler: every dispatched event is timed
    /// under its type label. Profiling measures the host, not the
    /// simulation — it never affects simulated behavior.
    pub fn attach_profiler(&mut self, profiler: Arc<Profiler>) {
        self.profiler = Some(profiler);
    }

    /// Assigns a (possibly Byzantine) [`Behavior`] to a core switch.
    ///
    /// Misbehavior is enforced by the engine around the forwarder, so it
    /// subverts every dataplane identically. Leaving a node unset (or
    /// setting [`Behavior::Honest`]) keeps the engine on the exact honest
    /// code path — an all-honest run draws the same RNG sequence as one
    /// on a build without the adversary model.
    ///
    /// # Panics
    ///
    /// Panics if `node` is an edge — only core switches forward, so only
    /// they can misbehave.
    pub fn set_behavior(&mut self, node: NodeId, behavior: Behavior) {
        assert!(
            matches!(self.topo.node(node).kind, NodeKind::Core { .. }),
            "behaviors attach to core switches, {} is an edge",
            self.topo.node(node).name
        );
        if self.behaviors.len() <= node.0 {
            self.behaviors.resize(node.0 + 1, Behavior::Honest);
        }
        self.behaviors[node.0] = behavior;
    }

    /// The behavior assigned to `node` ([`Behavior::Honest`] if never
    /// set).
    pub fn behavior(&self, node: NodeId) -> Behavior {
        self.behaviors.get(node.0).copied().unwrap_or_default()
    }

    /// Marks traces of packets still in flight as
    /// [`PacketFate::TruncatedAtSimEnd`]; call when a run ends before
    /// the network drains. Returns how many traces were truncated.
    pub fn finalize_traces(&mut self) -> usize {
        self.trace.finalize()
    }

    /// Attaches an application to an edge node; its `on_start` runs at
    /// time zero (or immediately if the simulation already started).
    ///
    /// # Panics
    ///
    /// Panics if `node` is a core switch — apps live on edges.
    pub fn add_app(&mut self, node: NodeId, app: Box<dyn App>) {
        assert!(
            matches!(self.topo.node(node).kind, NodeKind::Edge),
            "apps attach to edge nodes, {} is a core switch",
            self.topo.node(node).name
        );
        self.apps[node.0] = Some(app);
        self.push(self.now, Event::Start(node));
    }

    /// Schedules a link failure at `at`. Queued and serializing packets on
    /// the link are lost; the adjacent switches see the port down after
    /// [`SimConfig::detection_delay`].
    pub fn schedule_link_down(&mut self, at: SimTime, link: LinkId) {
        self.push(
            at,
            Event::LinkDown {
                link,
                detection: None,
            },
        );
    }

    /// Like [`Sim::schedule_link_down`] but with a per-event detection
    /// delay (used by fault plans to jitter detection).
    pub fn schedule_link_down_detected(&mut self, at: SimTime, link: LinkId, detection: SimTime) {
        self.push(
            at,
            Event::LinkDown {
                link,
                detection: Some(detection),
            },
        );
    }

    /// Schedules a link repair at `at`. The link physically re-admits
    /// traffic immediately; the adjacent switches keep reading the port
    /// as down until the repair is detected.
    pub fn schedule_link_up(&mut self, at: SimTime, link: LinkId) {
        self.push(
            at,
            Event::LinkUp {
                link,
                detection: None,
            },
        );
    }

    /// Like [`Sim::schedule_link_up`] but with a per-event detection
    /// delay.
    pub fn schedule_link_up_detected(&mut self, at: SimTime, link: LinkId, detection: SimTime) {
        self.push(
            at,
            Event::LinkUp {
                link,
                detection: Some(detection),
            },
        );
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology this engine runs over.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// Collected statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Events ever scheduled, on the calendar and the CPU queue alike;
    /// once the run is quiescent, every one of them has been dispatched.
    pub fn events_scheduled(&self) -> u64 {
        self.next_event_seq
    }

    /// Packets currently inside the network (queued, serializing,
    /// propagating, or awaiting controller reinjection). Together with
    /// [`Stats`] this gives the conservation invariant
    /// `injected == delivered + dropped + in_flight`.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Whether `link` is currently up (physical state).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        !self.links[link.0].down
    }

    /// Whether the switches adjacent to `link` currently *observe* it as
    /// up. Lags [`Sim::link_is_up`] by the detection delay in both
    /// directions.
    pub fn link_observed_up(&self, link: LinkId) -> bool {
        let l = self.topo.link(link);
        self.port_up[self.port_slot(l.a, l.a_port)]
    }

    /// Index of `node`'s `port` in [`Sim::port_up`].
    fn port_slot(&self, node: NodeId, port: PortIx) -> usize {
        self.port_base[node.0] + port as usize
    }

    /// The engine's forwarder (for post-run inspection, e.g. state-table
    /// sizes in the Table 2 experiment).
    pub fn forwarder(&self) -> &dyn Forwarder {
        self.forwarder.as_ref()
    }

    /// Per-packet path traces (empty unless
    /// [`SimConfig::trace_paths`] was set).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Runs the event loop until simulated time reaches `until`.
    /// Events at exactly `until` are processed.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(entry) = self.next_event(Some(until)) {
            debug_assert!(entry.at >= self.now, "time went backwards");
            self.dispatch(entry);
        }
        self.now = self.now.max(until);
    }

    /// Runs until the event queue drains completely (useful for letting
    /// in-flight packets settle after traffic stops).
    pub fn run_to_quiescence(&mut self) {
        while let Some(entry) = self.next_event(None) {
            self.dispatch(entry);
        }
    }

    /// Takes the pending event with the smallest `(at, seq)` key from the
    /// calendar and the CPU queue, if it is due at or before `until`
    /// (`None`: whenever). The calendar's head leaves only if it is below
    /// both the CPU head's key and `(until, u64::MAX)`; otherwise the CPU
    /// head does, if it is due. Keys are unique, so no tie reaches here.
    fn next_event(&mut self, until: Option<SimTime>) -> Option<CalendarEntry<Event>> {
        let cpu = self.cpu_queue.front().map(|e| (e.at, e.seq));
        let end = until.map(|u| (u, u64::MAX));
        let limit = match (cpu, end) {
            (None, None) => return self.events.pop(),
            (Some(c), Some(e)) => c.min(e),
            (Some(k), None) | (None, Some(k)) => k,
        };
        match self.events.pop_before(limit) {
            Some(entry) => Some(entry),
            None if cpu.is_some_and(|c| end.is_none_or(|e| c < e)) => self.cpu_queue.pop_front(),
            None => None,
        }
    }

    fn push(&mut self, at: SimTime, ev: Event) {
        let seq = self.draw_seq();
        self.events.push(at, seq, ev);
    }

    /// The next event's tie-break `seq`: one counter for the calendar
    /// and the CPU queue alike.
    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        seq
    }

    /// Advances the clock to `entry` and handles its event. Debug builds
    /// assert that dispatched keys strictly ascend, so every debug run
    /// checks the merge of the calendar and the CPU queue.
    fn dispatch(&mut self, entry: CalendarEntry<Event>) {
        #[cfg(debug_assertions)]
        {
            let key = (entry.at, entry.seq);
            debug_assert!(
                self.last_key.is_none_or(|last| last < key),
                "dispatch order broke: {key:?} after {:?}",
                self.last_key
            );
            self.last_key = Some(key);
        }
        self.now = entry.at;
        let ev = entry.item;
        // Taken and put back rather than cloned: no reference-count
        // traffic per event. Nothing inside dispatch reads the field.
        if let Some(profiler) = self.profiler.take() {
            let label = ev.label();
            let t0 = std::time::Instant::now();
            self.dispatch_inner(ev);
            profiler.record(label, t0.elapsed());
            self.profiler = Some(profiler);
        } else {
            self.dispatch_inner(ev);
        }
    }

    fn dispatch_inner(&mut self, ev: Event) {
        match ev {
            Event::Start(node) => self.run_app(node, AppEntry::Start),
            Event::Timer { node, id } => self.run_app(node, AppEntry::Timer(id)),
            Event::Arrive {
                pkt,
                node,
                in_port,
                cpu_done,
            } => self.on_arrive(pkt, node, in_port, cpu_done),
            Event::TxDone { link, dir, epoch } => self.on_tx_done(link, dir, epoch),
            Event::LinkDown { link, detection } => self.on_link_down(link, detection),
            Event::LinkUp { link, detection } => self.on_link_up(link, detection),
            Event::Detect { link, seq, down } => self.apply_observation(link, seq, down),
            Event::Reinject { pkt, node, port } => self.send_out_port(node, port, pkt),
        }
    }

    fn on_link_down(&mut self, link: LinkId, detection: Option<SimTime>) {
        let ls = &mut self.links[link.0];
        if ls.down {
            return; // already down (overlapping fault clauses): no-op
        }
        ls.down = true;
        ls.change_seq += 1;
        let seq = ls.change_seq;
        let mut lost_ids = Vec::new();
        for dir in &mut ls.dirs {
            lost_ids.extend(dir.queue.drain(..).map(|p| p.id));
            lost_ids.extend(dir.transmitting.take().map(|p| p.id));
            dir.epoch += 1;
        }
        for &id in &lost_ids {
            self.stats.record_drop(DropReason::LinkFailure);
            if self.config.trace_paths {
                // Queued/serializing packets die with the link; without
                // this their traces would read InFlight forever.
                self.trace
                    .finish(id, PacketFate::Dropped(DropReason::LinkFailure));
            }
        }
        self.in_flight -= lost_ids.len() as u64;
        self.stats.link_failures += 1;
        if let Some(o) = &self.obs {
            let at = self.now.as_nanos();
            o.link_drops[link.0].add(lost_ids.len() as u64);
            o.link_queue[link.0].set(0);
            // The fault opens a causal span; the packets it killed and
            // the eventual detection both parent to it.
            let span = o.bundle.spans.fault(link.0 as u32);
            for &id in &lost_ids {
                o.bundle
                    .metrics
                    .counter(Entity::Global, "drop.link-failure")
                    .add(1);
                let mut ev = ObsEvent::new(at, EventKind::Drop);
                ev.pkt = Some(id);
                ev.link = Some(link.0 as u32);
                ev.tag = DropReason::LinkFailure.as_str();
                ev.span = Some(pkt_span(id));
                ev.parent = Some(span);
                o.event(ev);
            }
            let mut ev = ObsEvent::new(at, EventKind::Fault);
            ev.link = Some(link.0 as u32);
            ev.aux = lost_ids.len() as u64;
            ev.tag = "down";
            ev.span = Some(span);
            o.event(ev);
        }
        self.observe_after(link, seq, true, detection);
    }

    fn on_link_up(&mut self, link: LinkId, detection: Option<SimTime>) {
        let ls = &mut self.links[link.0];
        if !ls.down {
            return; // already up: no-op
        }
        // Both directions were force-cleared when the link failed and the
        // epoch bump retired any in-flight TxDone, and enqueue refuses
        // traffic while physically down — so a repaired link re-admits
        // packets on a clean, current-epoch channel.
        debug_assert!(ls
            .dirs
            .iter()
            .all(|d| d.queue.is_empty() && d.transmitting.is_none()));
        ls.down = false;
        ls.change_seq += 1;
        let seq = ls.change_seq;
        self.stats.link_repairs += 1;
        if let Some(o) = &self.obs {
            let mut ev = ObsEvent::new(self.now.as_nanos(), EventKind::Repair);
            ev.link = Some(link.0 as u32);
            ev.tag = "up";
            // A repair is a link transition like a fault: it re-binds the
            // link's transition span so the "up" detection parents here.
            ev.span = Some(o.bundle.spans.fault(link.0 as u32));
            o.event(ev);
        }
        self.observe_after(link, seq, false, detection);
    }

    /// Schedules (or, at zero delay, applies) the switches' observation
    /// of a physical link transition.
    fn observe_after(&mut self, link: LinkId, seq: u64, down: bool, detection: Option<SimTime>) {
        let delay = detection.unwrap_or(self.config.detection_delay);
        if delay == SimTime::ZERO {
            self.apply_observation(link, seq, down);
        } else {
            let at = self.now + delay;
            self.push(at, Event::Detect { link, seq, down });
        }
    }

    fn apply_observation(&mut self, link: LinkId, seq: u64, down: bool) {
        let ls = &mut self.links[link.0];
        if seq <= ls.observed_seq {
            return; // a newer transition was already observed (jitter race)
        }
        ls.observed_seq = seq;
        let l = self.topo.link(link);
        for slot in [self.port_slot(l.a, l.a_port), self.port_slot(l.b, l.b_port)] {
            self.port_up[slot] = !down;
        }
        if let Some(o) = &self.obs {
            let (span, parent) = o.bundle.spans.detect(link.0 as u32);
            let mut ev = ObsEvent::new(self.now.as_nanos(), EventKind::Detect);
            ev.link = Some(link.0 as u32);
            ev.aux = seq;
            ev.tag = if down { "down" } else { "up" };
            ev.span = Some(span);
            ev.parent = parent;
            o.event(ev);
        }
        self.edge_logic
            .on_link_event(self.topo, link, !down, self.now);
    }

    fn on_tx_done(&mut self, link: LinkId, dir: usize, epoch: u64) {
        let delay = SimTime(self.topo.link(link).params.delay_ns);
        let rate = self.topo.link(link).params.rate_bps;
        let ls = &mut self.links[link.0];
        if ls.dirs[dir].epoch != epoch {
            return; // stale: the direction was cleared by a failure
        }
        let pkt = ls.dirs[dir]
            .transmitting
            .take()
            .expect("TxDone with current epoch implies a packet in service");
        self.stats.record_link_tx(link, pkt.size_bytes as u64);
        if let Some(o) = &self.obs {
            o.link_bytes[link.0].add(pkt.size_bytes as u64);
        }
        // Serialization finished: the packet is on the wire and will
        // arrive after the propagation delay.
        let l = self.topo.link(link);
        let (to_node, in_port) = if dir == 0 {
            (l.b, l.b_port)
        } else {
            (l.a, l.a_port)
        };
        let at = self.now + delay;
        self.push(
            at,
            Event::Arrive {
                pkt,
                node: to_node,
                in_port: Some(in_port),
                cpu_done: false,
            },
        );
        // Start serving the next queued packet, if any.
        let ls = &mut self.links[link.0];
        if let Some(next) = ls.dirs[dir].queue.pop_front() {
            let t = tx_time(next.size_bytes, rate);
            let epoch = ls.dirs[dir].epoch;
            ls.dirs[dir].transmitting = Some(next);
            let at = self.now + t;
            let depth = self.links[link.0].dirs[dir].queue.len();
            self.note_queue_depth(link, depth);
            self.push(at, Event::TxDone { link, dir, epoch });
        }
    }

    /// Records the queue depth of a link direction that just changed.
    fn note_queue_depth(&self, link: LinkId, depth: usize) {
        if let Some(o) = &self.obs {
            o.link_queue[link.0].set(depth as i64);
            o.link_queue_series[link.0].sample(self.now.as_nanos(), depth as f64);
        }
    }

    fn enqueue_on_link(&mut self, from: NodeId, link: LinkId, pkt: Box<Packet>) {
        let l = self.topo.link(link);
        let rate = l.params.rate_bps;
        let cap = l.params.queue_pkts;
        let dir = if from == l.a { 0 } else { 1 };
        let ls = &mut self.links[link.0];
        if ls.down {
            // Sent into a port that still reads up (detection lag): the
            // link loses it, like the packets `on_link_down` flushed.
            if let Some(o) = &self.obs {
                o.link_drops[link.0].inc();
            }
            self.drop_pkt(pkt.id, DropReason::LinkFailure);
            return;
        }
        let d = &mut ls.dirs[dir];
        if d.transmitting.is_some() {
            if d.queue.len() >= cap {
                if let Some(o) = &self.obs {
                    o.link_drops[link.0].inc();
                }
                self.drop_pkt(pkt.id, DropReason::QueueOverflow);
            } else {
                d.queue.push_back(pkt);
                let depth = d.queue.len();
                self.note_queue_depth(link, depth);
            }
        } else {
            let t = tx_time(pkt.size_bytes, rate);
            let epoch = d.epoch;
            d.transmitting = Some(pkt);
            let at = self.now + t;
            self.push(at, Event::TxDone { link, dir, epoch });
        }
    }

    fn drop_pkt(&mut self, pkt_id: u64, reason: DropReason) {
        self.stats.record_drop(reason);
        self.in_flight -= 1;
        if self.config.trace_paths {
            self.trace.finish(pkt_id, PacketFate::Dropped(reason));
        }
        if let Some(o) = &self.obs {
            // Drops are rare enough that the registry lookup (one lock)
            // beats pre-resolving a counter per reason.
            o.bundle
                .metrics
                .counter(Entity::Global, &format!("drop.{}", reason.as_str()))
                .inc();
            let mut ev = ObsEvent::new(self.now.as_nanos(), EventKind::Drop);
            ev.pkt = Some(pkt_id);
            ev.tag = reason.as_str();
            ev.span = Some(pkt_span(pkt_id));
            // Anomalous fates trip the flight recorder: it freezes the
            // recent event window plus this packet's causal chain.
            let trigger = match reason {
                DropReason::TtlExpired => Some("loop"),
                DropReason::PortDown => Some("blackhole"),
                DropReason::CorruptedResidue => Some("corrupted-residue"),
                _ => None,
            };
            if trigger.is_some() {
                // The drop can't always name the link that doomed it (a
                // loop has no single culprit), so blame the most recent
                // fault — that stitches the fault into the causal chain.
                ev.parent = o.bundle.spans.last_fault_any();
            }
            o.event(ev);
            if let Some(trigger) = trigger {
                o.bundle.forensics.capture(
                    trigger,
                    self.now.as_nanos(),
                    Some(pkt_id),
                    &o.bundle.events,
                );
            }
        }
    }

    fn send_out_port(&mut self, node: NodeId, port: PortIx, pkt: Box<Packet>) {
        match self.topo.node(node).ports.get(port as usize) {
            Some(&link) => self.enqueue_on_link(node, link, pkt),
            None => self.drop_pkt(pkt.id, DropReason::BadPort),
        }
    }

    fn on_arrive(
        &mut self,
        mut pkt: Box<Packet>,
        node: NodeId,
        in_port: Option<PortIx>,
        cpu_done: bool,
    ) {
        let topo = self.topo;
        if self.config.trace_paths && !cpu_done {
            self.trace.visit(pkt.id, node);
        }
        // Core-switch traversals optionally pass through the shared
        // switching CPU first (Mininet-style userspace forwarding).
        if !cpu_done && matches!(topo.node(node).kind, NodeKind::Core { .. }) {
            if let Some(service) = self.config.switch_service {
                let start = self.cpu_busy_until.max(self.now);
                self.cpu_busy_until = start + service;
                let seq = self.draw_seq();
                self.cpu_queue.push_back(CalendarEntry {
                    at: self.cpu_busy_until,
                    seq,
                    item: Event::Arrive {
                        pkt,
                        node,
                        in_port,
                        cpu_done: true,
                    },
                });
                return;
            }
        }
        match topo.node(node).kind {
            NodeKind::Edge => {
                if pkt.dst == node {
                    self.edge_logic.egress(topo, node, &mut pkt);
                    self.stats.record_delivery(&pkt, self.now);
                    self.in_flight -= 1;
                    if self.config.trace_paths {
                        self.trace.finish(pkt.id, PacketFate::Delivered);
                    }
                    if let Some(o) = &self.obs {
                        let lat = self.now.since(pkt.created).as_nanos();
                        o.node_delivered[node.0].inc();
                        o.latency.observe(lat);
                        o.hops.observe(pkt.hops as u64);
                        // Per-flow histograms resolve through the
                        // registry: flows are few, deliveries cold
                        // enough for one uncontended lock.
                        let flow = Entity::Flow(pkt.flow.0);
                        o.bundle.metrics.histogram(flow, "latency_ns").observe(lat);
                        o.bundle
                            .metrics
                            .histogram(flow, "hops")
                            .observe(pkt.hops as u64);
                        let mut ev = ObsEvent::new(self.now.as_nanos(), EventKind::Deliver);
                        ev.pkt = Some(pkt.id);
                        ev.flow = Some(pkt.flow.0);
                        ev.node = Some(node.0 as u32);
                        ev.aux = pkt.hops as u64;
                        ev.span = Some(pkt_span(pkt.id));
                        o.event(ev);
                    }
                    self.run_app(node, AppEntry::Packet(pkt));
                } else {
                    // Wrong edge: paper §2.1 — consult the controller to
                    // rewrite the route ID, then send the packet back in.
                    match self.edge_logic.reroute(topo, node, &mut pkt) {
                        RerouteDecision::Forward { port, delay } => {
                            pkt.ttl = self.config.default_ttl;
                            let at = self.now + delay;
                            self.push(at, Event::Reinject { pkt, node, port });
                        }
                        RerouteDecision::Drop => self.drop_pkt(pkt.id, DropReason::Misdelivery),
                    }
                }
            }
            NodeKind::Core { switch_id } => {
                if !pkt.tick_ttl() {
                    self.drop_pkt(pkt.id, DropReason::TtlExpired);
                    return;
                }
                // Hierarchical controllers rewrite the route tag here
                // when the packet just crossed a domain boundary; the
                // default edge logic is a no-op (no RNG, no state), so
                // flat runs stay byte-identical.
                self.edge_logic.core_ingress(topo, node, in_port, &mut pkt);
                // Byzantine interposition (see [`crate::adversary`]).
                // Honest switches take exactly the pre-adversary code
                // path — same branches, zero extra RNG draws — so
                // all-honest runs stay byte-identical (enforced by
                // `crates/bench/tests/adversary_determinism.rs`).
                let behavior = self.behavior(node);
                if behavior == Behavior::DropSilently {
                    self.stats.byzantine_drops += 1;
                    self.drop_pkt(pkt.id, DropReason::AdversaryDrop);
                    return;
                }
                let ports = &self.port_up[self.port_base[node.0]..self.port_base[node.0 + 1]];
                let ctx = SwitchCtx {
                    topo,
                    node,
                    switch_id,
                    in_port,
                    ports,
                    now: self.now,
                    reducer: self.reducers[node.0].as_ref(),
                    behavior,
                };
                let deflections_before = pkt.deflections;
                let mut decision = if behavior == Behavior::Misforward {
                    // Ignore the forwarder: pick any healthy port
                    // uniformly. The tag is left untouched, so the
                    // packet continues honestly from its wrong ingress.
                    let healthy: Vec<PortIx> = ctx.healthy_ports().collect();
                    if healthy.is_empty() {
                        ForwardDecision::Drop(DropReason::PortDown)
                    } else {
                        self.stats.byzantine_misforwards += 1;
                        let i: usize = self.rng.gen_range(0..healthy.len());
                        ForwardDecision::Output(healthy[i])
                    }
                } else {
                    self.forwarder.forward(&ctx, &mut pkt, &mut self.rng)
                };
                // An out-of-range residue on a tampered tag is header
                // corruption, not a routing mistake — reclassify so the
                // drop tables can tell the two apart.
                if decision == ForwardDecision::Drop(DropReason::ResidueOutOfRange)
                    && pkt.route.as_ref().is_some_and(|t| t.tampered)
                {
                    decision = ForwardDecision::Drop(DropReason::CorruptedResidue);
                }
                if behavior == Behavior::CorruptResidue {
                    if let ForwardDecision::Output(_) = decision {
                        // Forward where the honest algorithm said, but
                        // rewrite the route ID in flight. `tamper`
                        // clears the residue memo so downstream switches
                        // reduce the garbage ID, not a cached value.
                        if let Some(tag) = pkt.route.as_mut() {
                            tag.tamper(BigUint::from(self.rng.next_u64()));
                            self.stats.byzantine_corruptions += 1;
                        }
                    }
                }
                match decision {
                    ForwardDecision::Output(p) => {
                        if let Some(o) = &self.obs {
                            let at = self.now.as_nanos();
                            o.node_forwarded[node.0].inc();
                            let mut ev = ObsEvent::new(at, EventKind::Hop);
                            ev.pkt = Some(pkt.id);
                            ev.flow = Some(pkt.flow.0);
                            ev.node = Some(node.0 as u32);
                            ev.aux = p;
                            ev.span = Some(pkt_span(pkt.id));
                            o.event(ev);
                            if pkt.deflections > deflections_before {
                                o.node_deflect[node.0].inc();
                                let mut ev = ObsEvent::new(at, EventKind::Deflect);
                                ev.pkt = Some(pkt.id);
                                ev.flow = Some(pkt.flow.0);
                                ev.node = Some(node.0 as u32);
                                ev.aux = p;
                                ev.span = Some(pkt_span(pkt.id));
                                o.event(ev);
                            }
                        }
                        if !ports.get(p as usize).copied().unwrap_or(false) {
                            self.drop_pkt(pkt.id, DropReason::BadPort);
                        } else {
                            self.send_out_port(node, p, pkt);
                        }
                    }
                    ForwardDecision::Drop(reason) => self.drop_pkt(pkt.id, reason),
                }
            }
        }
    }

    fn run_app(&mut self, node: NodeId, entry: AppEntry) {
        let Some(mut app) = self.apps[node.0].take() else {
            return; // deliveries to app-less edges are still counted in stats
        };
        let mut actions = Vec::new();
        {
            let mut ctx = HostCtx {
                node,
                now: self.now,
                actions: &mut actions,
            };
            match entry {
                AppEntry::Start => app.on_start(&mut ctx),
                AppEntry::Timer(id) => app.on_timer(&mut ctx, id),
                AppEntry::Packet(pkt) => app.on_packet(&mut ctx, &pkt),
            }
        }
        self.apps[node.0] = Some(app);
        for action in actions {
            match action {
                AppAction::Timer { at, id } => self.push(at, Event::Timer { node, id }),
                AppAction::Send {
                    dst,
                    flow,
                    seq,
                    kind,
                    size_bytes,
                } => self.inject(node, dst, flow, seq, kind, size_bytes),
                AppAction::Observe { label, value } => {
                    if let Some(o) = &self.obs {
                        o.bundle
                            .metrics
                            .counter(Entity::Node(node.0 as u32), label)
                            .add(value);
                        let mut ev = ObsEvent::new(self.now.as_nanos(), EventKind::Note);
                        ev.node = Some(node.0 as u32);
                        ev.aux = value;
                        ev.tag = label;
                        o.event(ev);
                    }
                }
            }
        }
    }

    /// Injects one packet at `src` (normally called via app actions, but
    /// public so tests and delivery-ratio experiments can drive the
    /// network without a transport stack).
    pub fn inject(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
        seq: u64,
        kind: PacketKind,
        size_bytes: u32,
    ) {
        // The packet's one allocation: from here to delivery or drop it
        // moves as this box.
        let mut pkt = Box::new(Packet {
            id: self.next_pkt_id,
            flow,
            seq,
            kind,
            size_bytes,
            src,
            dst,
            route: None,
            ttl: self.config.default_ttl,
            hops: 0,
            deflections: 0,
            created: self.now,
        });
        self.next_pkt_id += 1;
        self.stats.record_injection();
        self.in_flight += 1;
        if self.config.trace_paths {
            self.trace.visit(pkt.id, src);
        }
        if let Some(o) = &self.obs {
            o.node_injected[src.0].inc();
            let mut ev = ObsEvent::new(self.now.as_nanos(), EventKind::Inject);
            ev.pkt = Some(pkt.id);
            ev.flow = Some(pkt.flow.0);
            ev.node = Some(src.0 as u32);
            ev.aux = pkt.size_bytes as u64;
            ev.span = Some(pkt_span(pkt.id));
            o.event(ev);
        }
        let topo = self.topo;
        match self.edge_logic.ingress(topo, src, &mut pkt) {
            Some(port) => self.send_out_port(src, port, pkt),
            None => {
                let id = pkt.id;
                self.drop_pkt(id, DropReason::NoRoute)
            }
        }
    }
}

enum AppEntry {
    Start,
    Timer(u64),
    Packet(Box<Packet>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RouteTag;
    use kar_rns::{crt_encode, RnsBasis};
    use kar_topology::{LinkParams, TopologyBuilder};

    /// Forwarder that follows `route_id mod switch_id` and drops on
    /// failure — the minimal KAR dataplane, used here to test the engine
    /// itself (richer deflection lives in the `kar` crate).
    struct ModuloDrop;

    impl Forwarder for ModuloDrop {
        fn forward(
            &mut self,
            ctx: &SwitchCtx<'_>,
            pkt: &mut Packet,
            _rng: &mut StdRng,
        ) -> ForwardDecision {
            let Some(tag) = &mut pkt.route else {
                return ForwardDecision::Drop(DropReason::MissingTag);
            };
            let port = ctx.residue(tag);
            if ctx.port_available(port) {
                ForwardDecision::Output(port)
            } else {
                ForwardDecision::Drop(DropReason::PortDown)
            }
        }

        fn name(&self) -> &str {
            "modulo-drop"
        }
    }

    /// Edge logic with one fixed route tag for every packet.
    struct FixedTag {
        route_id: kar_rns::BigUint,
        uplink: PortIx,
    }

    impl EdgeLogic for FixedTag {
        fn ingress(&mut self, _t: &Topology, _e: NodeId, pkt: &mut Packet) -> Option<PortIx> {
            pkt.route = Some(RouteTag::new(self.route_id.clone()));
            Some(self.uplink)
        }
    }

    /// S — SW4 — SW7 — D with the paper's example encoding.
    fn line_world() -> (Topology, kar_rns::BigUint) {
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let sw4 = b.core("SW4", 4);
        let sw7 = b.core("SW7", 7);
        let d = b.edge("D");
        b.link(s, sw4, LinkParams::new(100, 10));
        b.link(sw4, sw7, LinkParams::new(100, 10));
        b.link(sw7, d, LinkParams::new(100, 10));
        let topo = b.build().unwrap();
        // SW4 must exit port 1 (towards SW7), SW7 port 1 (towards D).
        let basis = RnsBasis::new(vec![4, 7]).unwrap();
        let r = crt_encode(&basis, &[1, 1]).unwrap();
        (topo, r)
    }

    /// Packets travel boxed, so what the calendar pushes, sorts and pops
    /// per event is a few words, not the packet.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn events_carry_packets_by_pointer() {
        assert_eq!(std::mem::size_of::<Event>(), 40);
        assert_eq!(
            std::mem::size_of::<crate::calendar::CalendarEntry<Event>>(),
            56
        );
    }

    #[test]
    fn probe_crosses_static_route() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        let s = topo.expect("S");
        let d = topo.expect("D");
        sim.inject(s, d, FlowId(0), 0, PacketKind::Probe, 1000);
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().dropped(), 0);
        assert_eq!(sim.in_flight(), 0);
        assert_eq!(sim.stats().max_hops, 2);
    }

    #[test]
    fn latency_matches_store_and_forward_math() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            0,
            PacketKind::Probe,
            1000,
        );
        sim.run_to_quiescence();
        // Three store-and-forward hops at 100 Mbit/s: 3 × (80 µs tx + 10 µs prop).
        assert!((sim.stats().mean_latency_s().unwrap() - 3.0 * 90e-6).abs() < 1e-9);
    }

    #[test]
    fn link_failure_drops_and_conserves() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        let failed = topo.expect_link("SW4", "SW7");
        sim.schedule_link_down(SimTime::ZERO, failed);
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            0,
            PacketKind::Probe,
            1000,
        );
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().dropped_for(DropReason::PortDown), 1);
        assert_eq!(sim.in_flight(), 0);
        assert!(!sim.link_is_up(failed));
    }

    #[test]
    fn link_repair_restores_delivery() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        let l = topo.expect_link("SW4", "SW7");
        sim.schedule_link_down(SimTime::ZERO, l);
        sim.schedule_link_up(SimTime::from_millis(1), l);
        sim.run_until(SimTime::from_millis(2));
        assert!(sim.link_is_up(l));
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            0,
            PacketKind::Probe,
            1000,
        );
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 1);
    }

    #[test]
    fn queue_overflow_is_bounded_drop_tail() {
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let c = b.core("C", 5);
        let d = b.edge("D");
        // Slow link with a 2-packet queue.
        b.link(s, c, LinkParams::new(1000, 1));
        let slow = LinkParams::new(1, 1).with_queue(2);
        b.link(c, d, slow);
        let topo = b.build().unwrap();
        let basis = RnsBasis::new(vec![5]).unwrap();
        let r = crt_encode(&basis, &[1]).unwrap();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        for i in 0..10 {
            sim.inject(
                topo.expect("S"),
                topo.expect("D"),
                FlowId(0),
                i,
                PacketKind::Probe,
                1500,
            );
        }
        sim.run_to_quiescence();
        // 1 serializing + 2 queued survive; 7 overflow.
        assert_eq!(sim.stats().dropped_for(DropReason::QueueOverflow), 7);
        assert_eq!(sim.stats().delivered, 3);
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn failure_loses_queued_packets() {
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let c = b.core("C", 5);
        let d = b.edge("D");
        b.link(s, c, LinkParams::new(1000, 1));
        b.link(c, d, LinkParams::new(1, 1)); // 12 ms per 1500 B packet
        let topo = b.build().unwrap();
        let basis = RnsBasis::new(vec![5]).unwrap();
        let r = crt_encode(&basis, &[1]).unwrap();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        for i in 0..5 {
            sim.inject(
                topo.expect("S"),
                topo.expect("D"),
                FlowId(0),
                i,
                PacketKind::Probe,
                1500,
            );
        }
        // Fail C-D while packets sit in its queue.
        sim.schedule_link_down(SimTime::from_millis(5), topo.expect_link("C", "D"));
        sim.run_to_quiescence();
        assert!(sim.stats().dropped_for(DropReason::LinkFailure) >= 4);
        assert_eq!(
            sim.stats().delivered + sim.stats().dropped(),
            sim.stats().injected
        );
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn ttl_expiry_kills_looping_packets() {
        // Two switches pointing at each other: route id chosen so each
        // sends back to the other forever.
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let c1 = b.core("C1", 5);
        let c2 = b.core("C2", 7);
        b.link(s, c1, LinkParams::new(100, 1));
        b.link(c1, c2, LinkParams::new(100, 1));
        let topo = b.build().unwrap();
        // C1 exits port 1 (to C2); C2 exits port 0 (back to C1).
        let basis = RnsBasis::new(vec![5, 7]).unwrap();
        let r = crt_encode(&basis, &[1, 0]).unwrap();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig {
                seed: 1,
                default_ttl: 16,
                ..SimConfig::default()
            },
        );
        sim.inject(
            topo.expect("S"),
            NodeId(999).min(topo.expect("S")), // destination never reached; use S itself
            FlowId(0),
            0,
            PacketKind::Probe,
            100,
        );
        sim.run_to_quiescence();
        assert_eq!(sim.stats().dropped_for(DropReason::TtlExpired), 1);
        assert_eq!(sim.in_flight(), 0);
    }

    /// An app that sends one probe on start and records deliveries.
    struct PingApp {
        dst: NodeId,
        got: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl App for PingApp {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.send(self.dst, FlowId(9), 0, PacketKind::Probe, 500);
            ctx.set_timer(SimTime::from_millis(1), 42);
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, pkt: &Packet) {
            assert_eq!(pkt.flow, FlowId(9));
            self.got.set(self.got.get() + 1);
        }
        fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, id: u64) {
            assert_eq!(id, 42);
        }
    }

    #[test]
    fn apps_send_receive_and_time() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let s = topo.expect("S");
        let d = topo.expect("D");
        sim.add_app(
            s,
            Box::new(PingApp {
                dst: d,
                got: got.clone(),
            }),
        );
        sim.add_app(
            d,
            Box::new(PingApp {
                dst: s,
                got: got.clone(),
            }),
        );
        // D's probe back to S has no usable reverse route tag in this
        // fixture (same tag, so SW7 computes port 1 → D again: the packet
        // surfaces at D, the wrong edge, and default reroute drops it).
        sim.run_until(SimTime::from_secs(1));
        assert!(got.get() >= 1);
        assert_eq!(
            sim.stats().injected,
            sim.stats().delivered + sim.stats().dropped() + sim.in_flight()
        );
    }

    #[test]
    #[should_panic(expected = "apps attach to edge nodes")]
    fn app_on_core_switch_panics() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        sim.add_app(topo.expect("SW4"), Box::new(ModuloApp));
    }

    struct ModuloApp;
    impl App for ModuloApp {
        fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, _pkt: &Packet) {}
        fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _id: u64) {}
    }

    #[test]
    fn traces_record_full_paths() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig {
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            0,
            PacketKind::Probe,
            500,
        );
        sim.run_to_quiescence();
        let trace = sim.trace().get(0).expect("packet 0 traced");
        let names: Vec<&str> = trace
            .path
            .iter()
            .map(|&n| topo.node(n).name.as_str())
            .collect();
        assert_eq!(names, vec!["S", "SW4", "SW7", "D"]);
        assert_eq!(trace.fate, crate::trace::PacketFate::Delivered);
        assert_eq!(trace.revisits(), 0);
        assert!(trace.pretty(&topo).contains("S → SW4 → SW7 → D"));
    }

    #[test]
    fn traces_record_drop_fate() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig {
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        sim.schedule_link_down(SimTime::ZERO, topo.expect_link("SW4", "SW7"));
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            0,
            PacketKind::Probe,
            500,
        );
        sim.run_to_quiescence();
        let trace = sim.trace().get(0).unwrap();
        assert_eq!(
            trace.fate,
            crate::trace::PacketFate::Dropped(DropReason::PortDown)
        );
        assert_eq!(trace.path.len(), 2); // S, SW4
    }

    #[test]
    fn link_bytes_are_accounted() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        for i in 0..5 {
            sim.inject(
                topo.expect("S"),
                topo.expect("D"),
                FlowId(0),
                i,
                PacketKind::Probe,
                1000,
            );
        }
        sim.run_to_quiescence();
        for name in [("S", "SW4"), ("SW4", "SW7"), ("SW7", "D")] {
            let l = topo.expect_link(name.0, name.1);
            assert_eq!(sim.stats().bytes_on(l), 5000, "{name:?}");
        }
    }

    #[test]
    fn detection_delay_blackholes_packets_until_detected() {
        // With a 1 ms detection delay, a switch keeps forwarding into a
        // dead port — those packets are lost. After detection the
        // (drop-on-failure) forwarder reports NoRoute instead.
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig {
                detection_delay: SimTime::from_millis(1),
                ..SimConfig::default()
            },
        );
        sim.schedule_link_down(SimTime::ZERO, topo.expect_link("SW4", "SW7"));
        // Before detection: forwarded into the dead link → LinkFailure.
        sim.run_until(SimTime::from_micros(100));
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            0,
            PacketKind::Probe,
            500,
        );
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.stats().dropped_for(DropReason::LinkFailure), 1);
        // After detection: the forwarder sees the port down → PortDown.
        sim.run_until(SimTime::from_millis(2));
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            1,
            PacketKind::Probe,
            500,
        );
        sim.run_to_quiescence();
        assert_eq!(sim.stats().dropped_for(DropReason::PortDown), 1);
        assert_eq!(sim.stats().delivered, 0);
    }

    #[test]
    fn obs_records_metrics_and_events_without_changing_the_run() {
        let run = |with_obs: bool| {
            let (topo, r) = line_world();
            let mut sim = Sim::new(
                &topo,
                Box::new(ModuloDrop),
                Box::new(FixedTag {
                    route_id: r,
                    uplink: 0,
                }),
                SimConfig::default(),
            );
            let handle = if with_obs {
                ObsHandle::enabled()
            } else {
                ObsHandle::disabled()
            };
            sim.attach_obs(&handle);
            for i in 0..5 {
                sim.inject(
                    topo.expect("S"),
                    topo.expect("D"),
                    FlowId(0),
                    i,
                    PacketKind::Probe,
                    1000,
                );
            }
            sim.run_to_quiescence();
            (sim.stats().clone(), handle)
        };
        let (stats_off, _) = run(false);
        let (stats_on, handle) = run(true);
        // Pure observation: identical stats either way.
        assert_eq!(stats_off, stats_on);
        let obs = handle.get().expect("enabled handle");
        let snap = obs.metrics.snapshot();
        let counter = |e: Entity, m: &str| {
            snap.counters
                .iter()
                .find(|(ce, cm, _)| *ce == e && cm == m)
                .map(|&(_, _, v)| v)
        };
        let (topo, _) = line_world();
        let s = topo.expect("S").0 as u32;
        let d = topo.expect("D").0 as u32;
        let sw4 = topo.expect("SW4").0 as u32;
        assert_eq!(counter(Entity::Node(s), "injected"), Some(5));
        assert_eq!(counter(Entity::Node(d), "delivered"), Some(5));
        assert_eq!(counter(Entity::Node(sw4), "forwarded"), Some(5));
        // Global latency histogram saw every delivery.
        let lat = snap
            .histograms
            .iter()
            .find(|h| h.entity == Entity::Global && h.metric == "latency_ns")
            .expect("latency histogram");
        assert_eq!(lat.count, 5);
        // Events: 5 injects, hops at both switches, 5 delivers.
        let events = obs.events.events();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::Inject), 5);
        assert_eq!(count(EventKind::Hop), 10);
        assert_eq!(count(EventKind::Deliver), 5);
        // Span: packet 0's events are time-ordered and share its flow.
        let span: Vec<_> = events.iter().filter(|e| e.pkt == Some(0)).collect();
        assert_eq!(span.len(), 4);
        assert!(span.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(span.iter().all(|e| e.flow == Some(0)));
    }

    #[test]
    fn obs_counts_fault_drop_and_detect_events() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig {
                detection_delay: SimTime::from_micros(10),
                ..SimConfig::default()
            },
        );
        let handle = ObsHandle::enabled();
        sim.attach_obs(&handle);
        sim.schedule_link_down(SimTime::ZERO, topo.expect_link("SW4", "SW7"));
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            0,
            PacketKind::Probe,
            500,
        );
        sim.run_to_quiescence();
        let obs = handle.get().unwrap();
        let events = obs.events.events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Fault));
        assert!(kinds.contains(&EventKind::Detect));
        assert!(kinds.contains(&EventKind::Drop));
        let drop = events
            .iter()
            .find(|e| e.kind == EventKind::Drop)
            .expect("drop event");
        assert_eq!(drop.tag, "port-down");
    }

    /// Every packet a link loses shows in that link's `drops` counter:
    /// overflow, the packet serializing when the link fails, and those
    /// forwarded into it before the failure is detected.
    #[test]
    fn link_drop_counters_add_up_to_the_link_drops() {
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let sw4 = b.core("SW4", 4);
        let sw7 = b.core("SW7", 7);
        let d = b.edge("D");
        b.link(s, sw4, LinkParams::new(100, 10).with_queue(2));
        let failing = b.link(sw4, sw7, LinkParams::new(100, 10));
        b.link(sw7, d, LinkParams::new(100, 10));
        let topo = b.build().unwrap();
        let basis = RnsBasis::new(vec![4, 7]).unwrap();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: crt_encode(&basis, &[1, 1]).unwrap(),
                uplink: 0,
            }),
            SimConfig {
                detection_delay: SimTime::from_millis(1),
                ..SimConfig::default()
            },
        );
        let handle = ObsHandle::enabled();
        sim.attach_obs(&handle);
        // Six at once into a 2-packet queue: 3 overflow. The survivors
        // reach SW4 at 90 / 170 / 250 µs; the failure at 100 µs kills
        // the first mid-serialization, and the other two are forwarded
        // into the dead port, which still reads up.
        for seq in 0..6 {
            sim.inject(s, d, FlowId(0), seq, PacketKind::Probe, 1000);
        }
        sim.schedule_link_down(SimTime::from_micros(100), failing);
        sim.run_to_quiescence();
        let stats = sim.stats();
        assert_eq!(stats.dropped_for(DropReason::QueueOverflow), 3);
        assert_eq!(stats.dropped_for(DropReason::LinkFailure), 3);
        let link_drops: u64 = handle
            .get()
            .unwrap()
            .metrics
            .snapshot()
            .counters
            .iter()
            .filter(|(e, m, _)| matches!(e, Entity::Link(_)) && m == "drops")
            .map(|c| c.2)
            .sum();
        assert_eq!(
            link_drops,
            stats.dropped_for(DropReason::LinkFailure)
                + stats.dropped_for(DropReason::QueueOverflow)
        );
    }

    #[test]
    fn profiler_times_the_dispatch_loop() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig::default(),
        );
        let profiler = Arc::new(Profiler::new());
        sim.attach_profiler(profiler.clone());
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            0,
            PacketKind::Probe,
            1000,
        );
        sim.run_to_quiescence();
        let rows = profiler.rows();
        let arrive = rows.iter().find(|r| r.label == "arrive").expect("arrive");
        assert_eq!(arrive.count, 3); // SW4, SW7, D (injection is not an arrival)
        let tx = rows.iter().find(|r| r.label == "tx-done").expect("tx-done");
        assert_eq!(tx.count, 3);
    }

    #[test]
    fn finalize_traces_marks_unfinished_journeys() {
        let (topo, r) = line_world();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig {
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        sim.inject(
            topo.expect("S"),
            topo.expect("D"),
            FlowId(0),
            0,
            PacketKind::Probe,
            1000,
        );
        // Stop while the packet is still serializing on the first link.
        sim.run_until(SimTime::from_micros(1));
        assert_eq!(sim.in_flight(), 1);
        assert_eq!(sim.finalize_traces(), 1);
        assert_eq!(
            sim.trace().get(0).unwrap().fate,
            PacketFate::TruncatedAtSimEnd
        );
    }

    #[test]
    fn link_failure_finishes_traces_of_lost_packets() {
        // Regression: packets queued on a failing link used to keep
        // InFlight traces forever.
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let c = b.core("C", 5);
        let d = b.edge("D");
        b.link(s, c, LinkParams::new(1000, 1));
        b.link(c, d, LinkParams::new(1, 1)); // 12 ms per 1500 B packet
        let topo = b.build().unwrap();
        let basis = RnsBasis::new(vec![5]).unwrap();
        let r = crt_encode(&basis, &[1]).unwrap();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloDrop),
            Box::new(FixedTag {
                route_id: r,
                uplink: 0,
            }),
            SimConfig {
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        for i in 0..5 {
            sim.inject(
                topo.expect("S"),
                topo.expect("D"),
                FlowId(0),
                i,
                PacketKind::Probe,
                1500,
            );
        }
        sim.schedule_link_down(SimTime::from_millis(5), topo.expect_link("C", "D"));
        sim.run_to_quiescence();
        let lost = sim.stats().dropped_for(DropReason::LinkFailure);
        assert!(lost >= 4);
        let failure_fates = sim
            .trace()
            .iter()
            .filter(|(_, t)| t.fate == PacketFate::Dropped(DropReason::LinkFailure))
            .count() as u64;
        assert_eq!(failure_fates, lost);
        assert_eq!(sim.finalize_traces(), 0); // nothing left in flight
    }

    /// A link-down due at the exact nanosecond the shared CPU finishes a
    /// packet is ordered against that completion by `seq`, not by time
    /// alone: scheduled before the packet, it fails the port first and
    /// the switch finds no way out; scheduled once the packet waits at
    /// the switch, the switch forwards first and the link then loses the
    /// packet it is serializing.
    #[test]
    fn a_cpu_completion_and_a_link_down_at_one_instant_order_by_seq() {
        let service = SimTime::from_micros(5);
        // S → SW4 takes 80 µs of serialization + 10 µs of propagation.
        let reaches_sw4 = SimTime::from_micros(90);
        let served = reaches_sw4 + service;
        let run = |down_after_arrival: bool| {
            let (topo, r) = line_world();
            let mut sim = Sim::new(
                &topo,
                Box::new(ModuloDrop),
                Box::new(FixedTag {
                    route_id: r,
                    uplink: 0,
                }),
                SimConfig {
                    switch_service: Some(service),
                    ..SimConfig::default()
                },
            );
            let out = topo.expect_link("SW4", "SW7");
            if !down_after_arrival {
                sim.schedule_link_down(served, out);
            }
            sim.inject(
                topo.expect("S"),
                topo.expect("D"),
                FlowId(0),
                0,
                PacketKind::Probe,
                1000,
            );
            if down_after_arrival {
                sim.run_until(reaches_sw4);
                assert_eq!(sim.in_flight(), 1, "the packet waits for the CPU");
                sim.schedule_link_down(served, out);
            }
            sim.run_until(SimTime::from_millis(1));
            let stats = sim.stats();
            (
                stats.dropped_for(DropReason::PortDown),
                stats.dropped_for(DropReason::LinkFailure),
                stats.delivered,
            )
        };
        assert_eq!(run(false), (1, 0, 0), "the earlier link-down goes first");
        assert_eq!(run(true), (0, 1, 0), "the earlier completion goes first");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let (topo, r) = line_world();
            let mut sim = Sim::new(
                &topo,
                Box::new(ModuloDrop),
                Box::new(FixedTag {
                    route_id: r,
                    uplink: 0,
                }),
                SimConfig {
                    seed,
                    default_ttl: 64,
                    ..SimConfig::default()
                },
            );
            for i in 0..50 {
                sim.inject(
                    topo.expect("S"),
                    topo.expect("D"),
                    FlowId(0),
                    i,
                    PacketKind::Probe,
                    1000 + (i as u32 % 500),
                );
            }
            sim.run_to_quiescence();
            (
                sim.stats().delivered,
                sim.stats().delivered_bytes,
                sim.stats().total_latency_ns,
            )
        };
        assert_eq!(run(7), run(7));
    }
}
