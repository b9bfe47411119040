//! Unit costs of the data-plane layers, measured by calling
//! `Reducer::rem`, `KarForwarder::forward`, `EdgeLogic::{ingress,
//! core_ingress}`, the CRT encoder and `CalendarQueue` directly on the
//! dp workloads' own routes and switch IDs. Every dp traced run
//! measures the whole group; the metric name's suffix says whose input
//! it is (`w107` = the Fig. 7 route, `w1265` / `len128` = the widest
//! ring256 route, `ring512` = the hierarchical fleet).

use crate::dp::{fig7_primary, Dp, Kind};
use crate::ledger::{per_call_ns, per_call_ns_batched};
use crate::workload::Layers;
use kar::prelude::*;
use kar::{protection, HierController, HierRoute, RecoveringController};
use kar_obs::{Entity, Event, EventKind, Obs, Profiler};
use kar_rns::{crt_encode, BigUint, Reducer};
use kar_simnet::{Behavior, CalendarQueue, EdgeLogic, Forwarder, RouteTag, SwitchCtx};
use kar_topology::PortIx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn probe(src: NodeId, dst: NodeId) -> Packet {
    Packet {
        id: 0,
        flow: FlowId(0),
        seq: 0,
        kind: PacketKind::Probe,
        size_bytes: 700,
        src,
        dst,
        route: None,
        ttl: 64,
        hops: 0,
        deflections: 0,
        created: SimTime::ZERO,
    }
}

/// `Reducer::rem` of `route`'s ID, cycling over the switches folded
/// into it (what one packet does along its path).
fn rem_ns(route: &EncodedRoute, smoke: bool) -> f64 {
    let reducers: Vec<Reducer> = route
        .pairs
        .iter()
        .map(|&(id, _)| Reducer::new(id))
        .collect();
    let mut i = 0;
    per_call_ns(smoke, || {
        i = if i + 1 == reducers.len() { 0 } else { i + 1 };
        black_box(reducers[i].rem(black_box(&route.route_id)));
    })
}

/// The CRT fold that produced `route`'s ID.
fn crt_us(route: &EncodedRoute, smoke: bool) -> f64 {
    let ports: Vec<u64> = route.pairs.iter().map(|&(_, p)| p).collect();
    per_call_ns(smoke, || {
        black_box(crt_encode(black_box(&route.basis), black_box(&ports)).expect("valid residues"));
    }) / 1e3
}

/// One forwarding decision at `path[at]` for a packet that came from
/// `path[at - 1]` carrying `route`. Each decision gets a fresh tag (an
/// `Arc` bump), so the residue memo never turns this into a cache hit.
fn forward_ns(
    topo: &Topology,
    (path, route): &(Vec<NodeId>, EncodedRoute),
    at: usize,
    technique: DeflectionTechnique,
    primary_down: bool,
    smoke: bool,
) -> f64 {
    let node = path[at];
    let switch_id = topo.switch_id(node).expect("a core switch");
    let mut ports = vec![true; topo.node(node).degree()];
    if primary_down {
        ports[route.port_at(switch_id) as usize] = false;
    }
    let reducer = Reducer::new(switch_id);
    let route_id: Arc<BigUint> = Arc::new(route.route_id.clone());
    let mut forwarder = KarForwarder::new(technique);
    let mut rng = StdRng::seed_from_u64(1);
    let mut pkt = probe(path[0], path[path.len() - 1]);
    per_call_ns(smoke, || {
        pkt.route = Some(RouteTag::new(route_id.clone()));
        let ctx = SwitchCtx {
            topo,
            node,
            switch_id,
            in_port: topo.port_towards(node, path[at - 1]),
            ports: &ports,
            now: SimTime::ZERO,
            reducer: Some(&reducer),
            behavior: Behavior::Honest,
        };
        black_box(forwarder.forward(&ctx, &mut pkt, &mut rng));
    })
}

/// `EdgeLogic::ingress`, cycling over the workload's `(src, dst)`
/// pairs.
fn ingress_ns(
    topo: &Topology,
    edge: &mut dyn EdgeLogic,
    pairs: &[(NodeId, NodeId)],
    smoke: bool,
) -> f64 {
    let mut pkts: Vec<Packet> = pairs.iter().map(|&(s, d)| probe(s, d)).collect();
    let mut i = 0;
    per_call_ns(smoke, || {
        i = if i + 1 == pkts.len() { 0 } else { i + 1 };
        let pkt = &mut pkts[i];
        black_box(edge.ingress(topo, pkt.src, pkt).expect("installed pair"));
    })
}

/// Hold-steady churn on a `CalendarQueue` with `backlog` pending
/// events: pop the earliest, push a successor — the engine's pattern.
/// 95 % of successors land in the near future (packet events), the
/// rest in the timer tail.
fn push_pop_ns(backlog: usize, smoke: bool) -> f64 {
    let offsets: Vec<u64> = {
        let mut draws = crate::workload::Draws::new(7, backlog as u64);
        (0..8192)
            .map(|_| {
                if draws.below(100) < 95 {
                    1 + draws.below(100_000) as u64
                } else {
                    1_000_000 + draws.below(999_000_000) as u64
                }
            })
            .collect()
    };
    let mut queue: CalendarQueue<u32> = CalendarQueue::default();
    let mut seq = 0u64;
    for &offset in offsets.iter().cycle().take(backlog) {
        queue.push(SimTime(offset), seq, 0);
        seq += 1;
    }
    per_call_ns(smoke, || {
        let entry = queue.pop().expect("the backlog never drains");
        queue.push(
            entry.at + SimTime(offsets[seq as usize % offsets.len()]),
            seq,
            0,
        );
        seq += 1;
    })
}

/// The route of median bit length, with its path: what a typical hop of
/// the workload reduces.
fn median_route(mut routes: Vec<(Vec<NodeId>, EncodedRoute)>) -> (Vec<NodeId>, EncodedRoute) {
    routes.sort_by_key(|(_, r)| r.bit_length());
    routes.swap_remove(routes.len() / 2)
}

fn widest_route(routes: Vec<(Vec<NodeId>, EncodedRoute)>) -> (Vec<NodeId>, EncodedRoute) {
    routes
        .into_iter()
        .max_by_key(|(_, r)| r.bit_length())
        .expect("the workload has routes")
}

/// A boundary entry of the hierarchical fleet: the entry switch, the
/// port the packet arrives on (the boundary link) and its destination.
fn boundary_entry(topo: &Topology, routes: &[HierRoute]) -> (NodeId, PortIx, NodeId) {
    let route = routes
        .iter()
        .find(|r| r.segments.len() > 1)
        .expect("some flow crosses a domain boundary");
    let first = &route.segments[0].path;
    let (exit, entry) = (first[first.len() - 2], first[first.len() - 1]);
    let dst = *route
        .segments
        .last()
        .expect("non-empty")
        .path
        .last()
        .expect("non-empty");
    let in_port = topo.port_towards(entry, exit).expect("adjacent");
    (entry, in_port, dst)
}

/// Costs the reconciliation needs on the *traced* workload's own
/// routes (they are not named metrics: the named forward costs are
/// pinned to the Fig. 7 route).
pub struct OwnCosts {
    /// One NIP forwarding decision, primary port up, on the workload's
    /// median-width route.
    pub forward_ns: f64,
    /// `HierController::core_ingress` at a switch that is not a
    /// boundary entry (every core arrival pays it; 0 for flat
    /// workloads).
    pub core_pass_ns: f64,
}

pub fn own_costs(dp: &Dp) -> OwnCosts {
    let smoke = dp.scale.smoke;
    let typical = median_route(dp.routes());
    // The second switch on the path has a core predecessor unless the
    // path is a single switch long.
    let at = if typical.0.len() > 3 { 2 } else { 1 };
    let forward_ns = forward_ns(
        &dp.topo,
        &typical,
        at,
        DeflectionTechnique::Nip,
        false,
        smoke,
    );
    let core_pass_ns = if dp.kind == Kind::Ring512Hier {
        let (mut ctrl, routes) = dp.hier_controller();
        let (entry, boundary_port, dst) = boundary_entry(&dp.topo, &routes);
        let inner_port = (0..dp.topo.node(entry).degree() as PortIx)
            .find(|&p| p != boundary_port)
            .expect("a ring switch has three ports");
        let mut pkt = probe(dst, dst);
        pkt.route = Some(RouteTag::new(typical.1.route_id.clone()));
        per_call_ns(smoke, || {
            ctrl.core_ingress(&dp.topo, entry, Some(inner_port), black_box(&mut pkt));
        })
    } else {
        0.0
    };
    OwnCosts {
        forward_ns,
        core_pass_ns,
    }
}

/// Measures every unit cost of the dp group. `traced` is the workload
/// being traced; fixtures for the other two dp workloads are built here
/// from the same seed and scale.
pub fn measure(traced: &Dp) -> Layers {
    let smoke = traced.scale.smoke;
    let others: Vec<Dp> = Kind::ALL
        .into_iter()
        .filter(|&k| k != traced.kind)
        .map(|k| Dp::build(k, traced.seed, traced.scale))
        .collect();
    let of = |kind: Kind| others.iter().find(|d| d.kind == kind).unwrap_or(traced);
    let (fig7, ring, hier) = (
        of(Kind::Fig7Tcp),
        of(Kind::Ring256Fleet),
        of(Kind::Ring512Hier),
    );
    let mut out = Layers::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    // --- kar-rns on the Fig. 7 route and the widest ring256 route.
    let fig7_fwd = fig7.routes().swap_remove(0);
    let ring_widest = widest_route(ring.routes());
    put("rns.reducer.rem_ns.w107", rem_ns(&fig7_fwd.1, smoke));
    put("rns.reducer.rem_ns.w1265", rem_ns(&ring_widest.1, smoke));
    put("rns.crt.encode_us.len21", crt_us(&fig7_fwd.1, smoke));
    put("rns.crt.encode_us.len128", crt_us(&ring_widest.1, smoke));

    // --- kar::deflect at SW13, the five-way deflection point of Fig. 7.
    let sw13 = fig7_fwd
        .0
        .iter()
        .position(|&n| n == fig7.topo.expect("SW13"))
        .expect("SW13 is on the Fig. 7 route");
    for (name, technique, primary_down) in [
        (
            "core.deflect.forward_ns.hp",
            DeflectionTechnique::HotPotato,
            false,
        ),
        (
            "core.deflect.forward_ns.avp",
            DeflectionTechnique::Avp,
            false,
        ),
        (
            "core.deflect.forward_ns.nip",
            DeflectionTechnique::Nip,
            false,
        ),
        (
            "core.deflect.forward_ns.nip_deflect",
            DeflectionTechnique::Nip,
            true,
        ),
    ] {
        put(
            name,
            forward_ns(&fig7.topo, &fig7_fwd, sw13, technique, primary_down, smoke),
        );
    }

    // --- Protected-encode stages on the Fig. 7 primary.
    let primary = fig7_primary(&fig7.topo);
    put(
        "core.protection.resolve_us.fig7_full",
        per_call_ns(smoke, || {
            black_box(protection::resolve(
                &fig7.topo,
                &primary,
                &Protection::AutoFull,
            ));
        }) / 1e3,
    );
    put(
        "core.route.from_pairs_us.fig7_full",
        per_call_ns(smoke, || {
            let pairs = fig7_fwd.1.pairs.clone();
            black_box(EncodedRoute::from_pairs(pairs, fig7_fwd.1.uplink).expect("valid pairs"));
        }) / 1e3,
    );

    // --- The three edge logics, each with its workload's routes.
    let mut flat = Controller::new().with_encoding_cache(fig7.cache.clone());
    flat.install_explicit(&fig7.topo, primary.clone(), &Protection::AutoFull)
        .expect("Fig. 7 route installs");
    let fig7_pair = [(primary[0], primary[primary.len() - 1])];
    put(
        "core.controller.ingress_ns",
        ingress_ns(&fig7.topo, &mut flat, &fig7_pair, smoke),
    );

    let ring_pairs: Vec<(NodeId, NodeId)> = ring.flows.iter().map(|f| (f.src, f.dst)).collect();
    let mut recovering = RecoveringController::new(RecoveryConfig::default())
        .with_encoding_cache(ring.cache.clone());
    for &(src, dst) in &ring_pairs {
        recovering
            .encode(&ring.topo, &EncodeRequest::new(src, dst), SimTime::ZERO)
            .expect("rings are connected");
    }
    put(
        "core.recovery.ingress_ns",
        ingress_ns(&ring.topo, &mut recovering, &ring_pairs, smoke),
    );

    let hier_pairs: Vec<(NodeId, NodeId)> = hier.flows.iter().map(|f| (f.src, f.dst)).collect();
    let (mut hier_ctrl, hier_routes) = hier.hier_controller();
    put(
        "core.hier.ingress_ns",
        ingress_ns(&hier.topo, &mut hier_ctrl, &hier_pairs, smoke),
    );
    let (entry, boundary_port, dst) = boundary_entry(&hier.topo, &hier_routes);
    let mut pkt = probe(dst, dst);
    put(
        "core.hier.core_ingress_ns",
        per_call_ns(smoke, || {
            // Any tag will do: a boundary arrival replaces it.
            if pkt.route.is_none() {
                pkt.route = Some(RouteTag::new(BigUint::from(1u64)));
            }
            hier_ctrl.core_ingress(&hier.topo, entry, Some(boundary_port), black_box(&mut pkt));
        }),
    );
    // Cold install: a fresh controller and no shared cache per batch,
    // every flow installed once.
    let partition = hier.partition.clone().expect("hierarchical workload");
    put(
        "core.hier.install_us.ring512",
        per_call_ns_batched(|| {
            let mut ctrl = HierController::new(partition.clone());
            let t = Instant::now();
            for &(src, dst) in &hier_pairs {
                black_box(
                    ctrl.install(&hier.topo, src, dst, &Protection::None)
                        .expect("rings are connected"),
                );
            }
            (t.elapsed(), hier_pairs.len() as u64)
        }) / 1e3,
    );

    // --- kar-simnet's event queue at the two backlog orders seen.
    put("simnet.calendar.push_pop_ns.b64", push_pop_ns(64, smoke));
    put(
        "simnet.calendar.push_pop_ns.b1024",
        push_pop_ns(1024, smoke),
    );

    // --- kar-obs recording primitives (what metrics-on adds per hop).
    let obs = Obs::new();
    let counter = obs.metrics.counter(Entity::Node(0), "forwarded");
    put(
        "obs.metrics.counter_inc_ns",
        per_call_ns(smoke, || counter.inc()),
    );
    let histogram = obs.metrics.histogram(Entity::Global, "latency_ns");
    let mut v = 0u64;
    put(
        "obs.metrics.histogram_observe_ns",
        per_call_ns(smoke, || {
            v = v.wrapping_add(7_919);
            histogram.observe(v % 10_000_000);
        }),
    );
    put(
        "obs.events.push_ns",
        per_call_ns(smoke, || obs.events.push(Event::new(0, EventKind::Hop))),
    );
    let profiler = Profiler::new();
    put(
        "obs.profile.record_ns",
        per_call_ns(smoke, || {
            profiler.record("arrive", Duration::from_nanos(250))
        }),
    );
    out
}
