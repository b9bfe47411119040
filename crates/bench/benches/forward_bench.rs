//! Per-packet forwarding-decision latency: KAR's stateless modulo
//! forwarding (with each deflection technique) versus the stateful
//! table-based fast-failover baseline — the "simple, low-cost switches"
//! claim of the paper's conclusion, quantified.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kar::{DeflectionTechnique, KarForwarder, Protection};
use kar_baselines::FastFailover;
use kar_rns::BigUint;
use kar_simnet::{FlowId, Forwarder, Packet, PacketKind, RouteTag, SimTime, SwitchCtx};
use kar_topology::topo15;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn probe(
    route_id: Option<BigUint>,
    src: kar_topology::NodeId,
    dst: kar_topology::NodeId,
) -> Packet {
    Packet {
        id: 0,
        flow: FlowId(0),
        seq: 0,
        kind: PacketKind::Probe,
        size_bytes: 1500,
        src,
        dst,
        route: route_id.map(RouteTag::new),
        ttl: 64,
        hops: 0,
        deflections: 0,
        created: SimTime::ZERO,
    }
}

fn bench_forwarding(c: &mut Criterion) {
    let topo = topo15::build();
    let as1 = topo.expect("AS1");
    let as3 = topo.expect("AS3");
    let sw13 = topo.expect("SW13");
    // A realistic protected route ID (43 bits).
    let route = kar::protection::encode_with_protection(
        &topo,
        kar_topology::topo15::primary_route(&topo),
        &Protection::AutoFull,
    )
    .unwrap();
    let statuses_up = vec![true; topo.node(sw13).degree()];
    let mut statuses_fail = statuses_up.clone();
    let out_port = route.port_at(13) as usize;
    statuses_fail[out_port] = false;
    let mut rng = StdRng::seed_from_u64(1);

    let mut group = c.benchmark_group("forwarding_decision");
    for technique in DeflectionTechnique::ALL {
        let mut fwd = KarForwarder::new(technique);
        // Healthy path: pure modulo.
        group.bench_function(format!("{technique}/healthy"), |b| {
            b.iter(|| {
                let mut pkt = probe(Some(route.route_id.clone()), as1, as3);
                let ctx = SwitchCtx {
                    topo: &topo,
                    node: sw13,
                    switch_id: 13,
                    in_port: Some(0),
                    ports: &statuses_up,
                    now: SimTime::ZERO,
                    reducer: None,
                    behavior: kar_simnet::Behavior::Honest,
                };
                black_box(fwd.forward(&ctx, &mut pkt, &mut rng))
            })
        });
        // Failed output port: drop or deflect.
        group.bench_function(format!("{technique}/failed_port"), |b| {
            b.iter(|| {
                let mut pkt = probe(Some(route.route_id.clone()), as1, as3);
                let ctx = SwitchCtx {
                    topo: &topo,
                    node: sw13,
                    switch_id: 13,
                    in_port: Some(0),
                    ports: &statuses_fail,
                    now: SimTime::ZERO,
                    reducer: None,
                    behavior: kar_simnet::Behavior::Honest,
                };
                black_box(fwd.forward(&ctx, &mut pkt, &mut rng))
            })
        });
    }

    // Stateful baseline for comparison.
    let mut ff = FastFailover::precompute(&topo, &[as1, as3]);
    group.bench_function("FastFailover/healthy", |b| {
        b.iter(|| {
            let mut pkt = probe(None, as1, as3);
            let ctx = SwitchCtx {
                topo: &topo,
                node: sw13,
                switch_id: 13,
                in_port: Some(0),
                ports: &statuses_up,
                now: SimTime::ZERO,
                reducer: None,
                behavior: kar_simnet::Behavior::Honest,
            };
            black_box(ff.forward(&ctx, &mut pkt, &mut rng))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_forwarding);
criterion_main!(benches);
