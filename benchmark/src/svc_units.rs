//! In-process unit costs of the layers behind the daemon, measured on
//! the service workload's own topology and pairs: ID allocation and
//! generation (what `setup_s` pays), BFS, CRT, the encoding cache, the
//! recovering controller's five encode paths, the wire header and the
//! frame protocol. The cold encode is also replayed stage by stage
//! through public functions, so what is left over is the controller's
//! own bookkeeping.

use crate::ledger::{per_call_ns, per_call_ns_batched};
use crate::svc::{core_link_users, daemon_recovery, Svc};
use crate::workload::Layers;
use kar::prelude::*;
use kar::{protection, RecoveringController};
use kar_rns::{crt_encode, IdAllocator, IdStrategy};
use kar_service::proto::{self, Request, Response};
use kar_simnet::EdgeLogic;
use kar_topology::{paths, LinkId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles `0..n` without a division in the timed loop.
struct Cycle {
    at: usize,
    n: usize,
}

impl Cycle {
    fn new(n: usize) -> Cycle {
        Cycle { at: 0, n }
    }

    fn next(&mut self) -> usize {
        self.at = if self.at + 1 == self.n {
            0
        } else {
            self.at + 1
        };
        self.at
    }
}

/// A controller configured like the daemon's, with a clock that moves
/// forward on every use (notices apply when `now` passes them).
struct DaemonController {
    rc: RecoveringController,
    now: u64,
}

impl DaemonController {
    fn new() -> DaemonController {
        DaemonController {
            rc: RecoveringController::new(daemon_recovery())
                .with_encoding_cache(Arc::new(EncodingCache::new())),
            now: 0,
        }
    }

    fn encode(&mut self, topo: &Topology, (src, dst): (NodeId, NodeId)) -> EncodeOutcome {
        self.now += 1;
        self.rc
            .encode(topo, &EncodeRequest::new(src, dst), SimTime(self.now))
            .expect("sampled pairs are connected")
    }

    fn flip(&mut self, topo: &Topology, link: LinkId, up: bool) {
        self.now += 1;
        self.rc.on_link_event(topo, link, up, SimTime(self.now));
    }
}

pub fn measure(svc: &Svc) -> Layers {
    let smoke = svc.scale.smoke;
    let topo = &svc.topo;
    let mut out = Layers::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    // --- What set-up pays: generation, and the ID allocation inside it
    // replayed on the same degree sequence.
    put("topology.gen.random_s.n1024", svc.gen_time.as_secs_f64());
    let started = Instant::now();
    let mut allocator = IdAllocator::new(IdStrategy::SmallestPrimes);
    for core in topo.core_nodes() {
        black_box(
            allocator
                .allocate(topo.node(core).degree())
                .expect("primes never run out"),
        );
    }
    put(
        "rns.coprime.allocate_s.n1024",
        started.elapsed().as_secs_f64(),
    );

    // --- The miss path's stages, each on the workload's own pairs.
    let sample = &svc.pairs[..svc.pairs.len().min(512)];
    let primaries: Vec<Vec<NodeId>> = sample
        .iter()
        .map(|&(s, d)| paths::bfs_shortest_path(topo, s, d).expect("connected"))
        .collect();
    let specs: Vec<RouteSpec> = primaries
        .iter()
        .cloned()
        .map(RouteSpec::unprotected)
        .collect();
    let routes: Vec<EncodedRoute> = specs
        .iter()
        .map(|s| EncodedRoute::encode(topo, s).expect("sampled routes encode"))
        .collect();
    let mut c = Cycle::new(sample.len());

    let bfs_ns = per_call_ns(smoke, || {
        let (s, d) = sample[c.next()];
        black_box(paths::bfs_shortest_path(topo, s, d));
    });
    put("topology.paths.bfs_us.rand1024", bfs_ns / 1e3);
    let resolve_ns = per_call_ns(smoke, || {
        black_box(protection::resolve(
            topo,
            &primaries[c.next()],
            &Protection::None,
        ));
    });
    let collect_ns = per_call_ns(smoke, || {
        black_box(EncodedRoute::collect_pairs(topo, &specs[c.next()]).expect("valid path"));
    });
    let from_pairs_ns = per_call_ns(smoke, || {
        let r = &routes[c.next()];
        black_box(EncodedRoute::from_pairs(r.pairs.clone(), r.uplink).expect("valid pairs"));
    });
    // The route of median length stands for "a typical request" in the
    // fixed-input costs below (8 switches on rand1024).
    let typical = {
        let mut by_len: Vec<&EncodedRoute> = routes.iter().collect();
        by_len.sort_by_key(|r| r.pairs.len());
        by_len[by_len.len() / 2]
    };
    let ports: Vec<u64> = typical.pairs.iter().map(|&(_, p)| p).collect();
    put(
        "rns.crt.encode_us.len8",
        per_call_ns(smoke, || {
            black_box(crt_encode(&typical.basis, black_box(&ports)).expect("valid residues"));
        }) / 1e3,
    );

    let cache = EncodingCache::new();
    for p in &primaries {
        cache
            .encode_with_protection(topo, p.clone(), &Protection::None)
            .expect("sampled routes encode");
    }
    put(
        "core.cache.hit_ns",
        per_call_ns(smoke, || {
            let primary = primaries[c.next()].clone();
            black_box(
                cache
                    .encode_with_protection(topo, primary, &Protection::None)
                    .expect("hit"),
            );
        }),
    );

    // --- kar::wire on the typical route.
    let header = RouteHeader::for_route(typical).expect("fits its own field");
    let for_route_ns = per_call_ns(smoke, || {
        black_box(RouteHeader::for_route(black_box(typical)).expect("fits"));
    });
    put("core.wire.for_route_ns", for_route_ns);
    let fixed_ns = per_call_ns(smoke, || {
        black_box(header.to_wire(WireMode::Fixed));
    });
    put("core.wire.to_wire_ns.fixed", fixed_ns);
    put(
        "core.wire.to_wire_ns.varint",
        per_call_ns(smoke, || {
            black_box(header.to_wire(WireMode::Varint));
        }),
    );
    let wire = header.to_wire(WireMode::Fixed);
    put(
        "core.wire.from_wire_ns",
        per_call_ns(smoke, || {
            black_box(RouteHeader::from_wire(black_box(&wire)).expect("round-trips"));
        }),
    );

    // --- The recovering controller's encode paths.
    let cold_ns = per_call_ns_batched(|| {
        let mut ctrl = DaemonController::new();
        let t = Instant::now();
        for &pair in sample {
            black_box(ctrl.encode(topo, pair));
        }
        (t.elapsed(), sample.len() as u64)
    });
    put("core.recovery.encode_cold_us.rand1024", cold_ns / 1e3);
    let replayed = bfs_ns + resolve_ns + collect_ns + from_pairs_ns + for_route_ns;
    println!(
        "cold encode replay: bfs {bfs_ns:.0} + resolve {resolve_ns:.0} + collect_pairs \
         {collect_ns:.0} + from_pairs {from_pairs_ns:.0} + for_route {for_route_ns:.0} ns \
         = {replayed:.0} of {cold_ns:.0} ns"
    );
    put(
        "core.recovery.encode_cold_other_us",
        (cold_ns - replayed) / 1e3,
    );

    let mut ctrl = DaemonController::new();
    for &pair in sample {
        ctrl.encode(topo, pair);
    }
    put(
        "core.recovery.encode_warm_ns.rand1024",
        per_call_ns(smoke, || {
            black_box(ctrl.encode(topo, sample[c.next()]));
        }),
    );

    // A link no sampled primary crosses bumps the epoch without
    // breaking a pair; the busiest one breaks the most.
    let users = core_link_users(topo, sample);
    let idle = users
        .iter()
        .find(|(_, crossing)| crossing.is_empty())
        .expect("some core link carries no sampled primary")
        .0;
    let (busiest, broken) = users
        .iter()
        .max_by_key(|(_, crossing)| crossing.len())
        .map(|(link, crossing)| (*link, crossing))
        .expect("the topology has core links");

    let mut up = true;
    put(
        "core.recovery.encode_stale_ns.rand1024",
        per_call_ns_batched(|| {
            up = !up;
            ctrl.flip(topo, idle, up);
            let t = Instant::now();
            for &pair in sample {
                black_box(ctrl.encode(topo, pair));
            }
            (t.elapsed(), sample.len() as u64)
        }),
    );
    put(
        "core.recovery.reencode_us.rand1024",
        per_call_ns_batched(|| {
            ctrl.flip(topo, busiest, false);
            let t = Instant::now();
            for &ix in broken {
                black_box(ctrl.encode(topo, sample[ix]));
            }
            let elapsed = t.elapsed();
            ctrl.flip(topo, busiest, true);
            for &ix in broken {
                ctrl.encode(topo, sample[ix]);
            }
            (elapsed, broken.len() as u64)
        }) / 1e3,
    );
    put(
        "core.recovery.on_link_event_us.rand1024",
        per_call_ns_batched(|| {
            let mut elapsed = Duration::ZERO;
            for i in 0..64 {
                let t = Instant::now();
                ctrl.flip(topo, idle, i % 2 == 1);
                elapsed += t.elapsed();
                // Apply the notice, so the pending queue stays short.
                ctrl.encode(topo, sample[0]);
            }
            (elapsed, 64)
        }) / 1e3,
    );

    // --- kar_service::proto on a typical request and its response.
    let request = Request::Encode {
        src: sample[0].0 .0 as u32,
        dst: sample[0].1 .0 as u32,
        protection: Protection::None,
        mode: WireMode::Fixed,
    };
    let request_bytes = proto::encode_request(&request).expect("requests encode");
    let response = Response::Header(wire.clone());
    let response_bytes = proto::encode_response(&response);
    put(
        "service.proto.encode_request_ns",
        per_call_ns(smoke, || {
            black_box(proto::encode_request(black_box(&request)).expect("encodes"));
        }),
    );
    put(
        "service.proto.decode_request_ns",
        per_call_ns(smoke, || {
            black_box(proto::decode_request(black_box(&request_bytes)).expect("decodes"));
        }),
    );
    put(
        "service.proto.encode_response_ns",
        per_call_ns(smoke, || {
            black_box(proto::encode_response(black_box(&response)));
        }),
    );
    put(
        "service.proto.decode_response_ns",
        per_call_ns(smoke, || {
            black_box(proto::decode_response(black_box(&response_bytes)).expect("decodes"));
        }),
    );
    let mut frame = Vec::with_capacity(64);
    put(
        "service.proto.frame_roundtrip_ns",
        per_call_ns(smoke, || {
            frame.clear();
            proto::write_frame(&mut frame, &response_bytes).expect("in-memory write");
            black_box(proto::read_frame(&mut &frame[..]).expect("in-memory read"));
        }),
    );
    out
}
