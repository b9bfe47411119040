//! What a hop allocates, as a count that repeats.
//!
//! A packet is one allocation for its whole life: the engine boxes it at
//! injection and every later event, link queue and delivery moves that
//! box; a core hop reads the switch's port state in place. So once a
//! warm-up has sized the calendar buckets, the overflow heap and the
//! link queues, a run allocates at most once per injected packet however
//! many hops each packet takes — which this pins by doubling the hops.
//! With a shared switching CPU (`SimConfig::switch_service`) the same
//! holds once the CPU's completion queue has grown to the burst's
//! backlog.
//!
//! The test reads the counting `#[global_allocator]`'s process-wide
//! counter, so the file holds this one test.

use kar_rns::{is_prime, BigUint};
use kar_simnet::{
    EdgeLogic, FlowId, ModuloForwarder, Packet, PacketKind, RouteTag, Sim, SimConfig, SimTime,
};
use kar_topology::{LinkParams, NodeId, PortIx, Topology, TopologyBuilder};
use std::sync::Arc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::process_allocations;

/// Tags every packet with one shared route ID and sends it up port 0.
struct FixedTag(Arc<BigUint>);

impl EdgeLogic for FixedTag {
    fn ingress(&mut self, _: &Topology, _: NodeId, pkt: &mut Packet) -> Option<PortIx> {
        pkt.route = Some(RouteTag::new(self.0.clone()));
        Some(0)
    }
}

/// S — C₁ — … — C_k — D, core switch IDs the first `k` odd primes. Every
/// core's port 1 leads toward D, and route ID 1 is 1 mod every ID.
fn line(k: usize) -> Topology {
    let mut b = TopologyBuilder::new();
    let mut prev = b.edge("S");
    for (i, id) in (3u64..).filter(|&n| is_prime(n)).take(k).enumerate() {
        let core = b.core(&format!("C{i}"), id);
        b.link(prev, core, LinkParams::default());
        prev = core;
    }
    let d = b.edge("D");
    b.link(prev, d, LinkParams::default());
    b.build()
        .expect("distinct primes are coprime and exceed degree 2")
}

/// Allocations of one burst of `packets` across a line of `k` switches,
/// after two identical bursts have warmed the engine, and the burst's
/// mean delivery latency. Each burst starts on a calendar-window
/// boundary (1024 buckets of 1024 ns), so the last warm-up and the
/// measured burst fill the same buckets (and the same CPU backlog) to
/// the same depth.
fn burst_allocations(k: usize, packets: u64, switch_service: Option<SimTime>) -> (u64, f64) {
    const WINDOW_NS: u64 = 1 << 20;
    let topo = line(k);
    let (s, d) = (topo.expect("S"), topo.expect("D"));
    let mut sim = Sim::new(
        &topo,
        Box::new(ModuloForwarder::new()),
        Box::new(FixedTag(Arc::new(BigUint::from(1u64)))),
        SimConfig {
            switch_service,
            ..SimConfig::default()
        },
    );
    let burst = |sim: &mut Sim<'_>| {
        let start = (sim.now().as_nanos() / WINDOW_NS + 1) * WINDOW_NS;
        sim.run_until(SimTime(start));
        for seq in 0..packets {
            sim.inject(s, d, FlowId(0), seq, PacketKind::Probe, 1000);
        }
        sim.run_to_quiescence();
    };
    burst(&mut sim);
    burst(&mut sim);
    let (count, ()) = process_allocations(|| burst(&mut sim));
    let stats = sim.stats();
    assert_eq!(stats.delivered, 3 * packets, "line of {k}: {stats:?}");
    assert_eq!(stats.max_hops as usize, k);
    (
        count,
        stats.mean_latency_s().expect("packets were delivered"),
    )
}

#[test]
fn a_warm_hop_allocates_nothing_and_a_packet_once() {
    const PACKETS: u64 = 32;
    let (short, plain_latency) = burst_allocations(8, PACKETS, None);
    let (long, _) = burst_allocations(16, PACKETS, None);
    assert!(
        short <= PACKETS,
        "{short} allocations for {PACKETS} packets of 8 hops"
    );
    assert_eq!(short, long, "doubling the hops changed the allocations");

    // 20 µs a packet, the Fig. 7 setting: half a 1000-byte packet's
    // serialization, so up to 8 or 16 switches' hops queue for the CPU.
    let service = Some(SimTime::from_micros(20));
    let (short, cpu_latency) = burst_allocations(8, PACKETS, service);
    let (long, _) = burst_allocations(16, PACKETS, service);
    assert!(
        cpu_latency > plain_latency + 8.0 * 20e-6,
        "the CPU served every hop: {cpu_latency} s against {plain_latency} s"
    );
    assert!(
        short <= PACKETS,
        "{short} allocations for {PACKETS} packets of 8 hops with switch service"
    );
    assert_eq!(
        short, long,
        "with switch service, doubling the hops changed the allocations"
    );
}
