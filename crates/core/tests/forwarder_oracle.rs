//! `KarForwarder` against the forwarder it replaced.
//!
//! The forwarder draws from the switch rule the verifier's move relation
//! is built on, so comparing the two readers with each other proves
//! nothing about the rule. The oracle here is the forwarder's body from
//! before the rule was shared, kept verbatim: `forward` with its own
//! residue and deflection branches and the counting `random_port`. On
//! random switches, port states, input ports, deflected bits and residues,
//! under every technique, both must make the same decision, leave the
//! packet with the same deflection count and deflected bit, and leave
//! the generator in the same state.

use kar::{DeflectionTechnique, KarForwarder};
use kar_rns::BigUint;
use kar_simnet::{
    Behavior, DropReason, FlowId, ForwardDecision, Forwarder, Packet, PacketKind, RouteTag,
    SimTime, SwitchCtx,
};
use kar_topology::{LinkParams, NodeId, PortIx, TopologyBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The pre-rule dataplane, verbatim but for its name.
#[derive(Debug, Clone, Copy)]
struct ReferenceForwarder {
    technique: DeflectionTechnique,
}

impl ReferenceForwarder {
    fn new(technique: DeflectionTechnique) -> Self {
        ReferenceForwarder { technique }
    }

    fn random_port(
        ctx: &SwitchCtx<'_>,
        exclude: Option<PortIx>,
        prefer_core: bool,
        rng: &mut StdRng,
    ) -> Option<PortIx> {
        let healthy = || ctx.healthy_ports().filter(move |&p| Some(p) != exclude);
        let ports = &ctx.topo.node(ctx.node).ports;
        let core_facing = |p: &PortIx| {
            ports.get(*p as usize).is_some_and(|&l| {
                let peer = ctx.topo.link(l).peer_of(ctx.node);
                ctx.topo.switch_id(peer).is_some()
            })
        };
        // Count the candidates, draw, and take the drawn one: the same
        // draw and port as collecting the set, without collecting it.
        let core = if prefer_core {
            healthy().filter(core_facing).count()
        } else {
            0
        };
        if core > 0 {
            return healthy().filter(core_facing).nth(rng.gen_range(0..core));
        }
        match healthy().count() {
            0 => None,
            n => healthy().nth(rng.gen_range(0..n)),
        }
    }

    fn deflect(
        ctx: &SwitchCtx<'_>,
        pkt: &mut Packet,
        exclude: Option<PortIx>,
        prefer_core: bool,
        rng: &mut StdRng,
    ) -> ForwardDecision {
        match Self::random_port(ctx, exclude, prefer_core, rng) {
            Some(p) => {
                pkt.deflections = pkt.deflections.saturating_add(1);
                if let Some(tag) = &mut pkt.route {
                    tag.deflected = true;
                }
                ForwardDecision::Output(p)
            }
            None => ForwardDecision::Drop(DropReason::NoRoute),
        }
    }
}

impl Forwarder for ReferenceForwarder {
    fn forward(
        &mut self,
        ctx: &SwitchCtx<'_>,
        pkt: &mut Packet,
        rng: &mut StdRng,
    ) -> ForwardDecision {
        let Some(tag) = &mut pkt.route else {
            return ForwardDecision::Drop(DropReason::MissingTag);
        };
        let computed = ctx.residue(tag);
        let was_deflected = tag.deflected;
        match self.technique {
            DeflectionTechnique::None => {
                if ctx.port_available(computed) {
                    ForwardDecision::Output(computed)
                } else if (computed as usize) < ctx.ports.len() {
                    ForwardDecision::Drop(DropReason::PortDown)
                } else {
                    ForwardDecision::Drop(DropReason::ResidueOutOfRange)
                }
            }
            DeflectionTechnique::HotPotato => {
                if was_deflected {
                    // "Once a packet is deflected, it follows a complete
                    // random path in network."
                    Self::deflect(ctx, pkt, None, false, rng)
                } else if ctx.port_available(computed) {
                    ForwardDecision::Output(computed)
                } else {
                    Self::deflect(ctx, pkt, None, false, rng)
                }
            }
            DeflectionTechnique::Avp => {
                if ctx.port_available(computed) {
                    ForwardDecision::Output(computed)
                } else {
                    Self::deflect(ctx, pkt, None, true, rng)
                }
            }
            DeflectionTechnique::Nip => {
                if ctx.port_available(computed) && Some(computed) != ctx.in_port {
                    ForwardDecision::Output(computed)
                } else {
                    Self::deflect(ctx, pkt, ctx.in_port, true, rng)
                }
            }
        }
    }

    fn name(&self) -> &str {
        self.technique.label()
    }
}

/// The switch's id: a prime above every neighbour's, so a residue below
/// it can name any port or none.
const SWITCH_ID: u64 = 41;
const PEER_IDS: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

fn probe(route_id: u64, deflected: bool) -> Packet {
    let mut tag = RouteTag::new(BigUint::from(route_id));
    tag.deflected = deflected;
    Packet {
        id: 0,
        flow: FlowId(0),
        seq: 0,
        kind: PacketKind::Probe,
        size_bytes: 64,
        src: NodeId(0),
        dst: NodeId(1),
        route: Some(tag),
        ttl: 64,
        hops: 0,
        deflections: 0,
        created: SimTime::ZERO,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 2_000,
        ..ProptestConfig::default()
    })]

    /// A switch of degree 1–12 whose neighbours are switches or hosts by
    /// `hosts`, its ports up by `up`, a packet from `in_port` (14 is no
    /// port, 12 and 13 name none the switch has) with the bit `deflected`
    /// and a route whose residue there is `residue` (in range below the
    /// degree, out of range above it). Each technique forwards the packet
    /// three times, so a deflection's bit feeds the next hop: every
    /// decision, deflection count and tag bit is the oracle's, and so is
    /// the generator's next word.
    #[test]
    fn the_forwarder_decides_and_draws_what_the_reference_does(
        degree in 1usize..13,
        hosts in any::<u16>(),
        up in any::<u16>(),
        (in_port, deflected) in (0u64..15, any::<bool>()),
        (residue, lap) in (0u64..SWITCH_ID, 0u64..1_000),
        seed in any::<u64>(),
    ) {
        let mut b = TopologyBuilder::new();
        let a = b.core("A", SWITCH_ID);
        for (i, &id) in PEER_IDS.iter().enumerate().take(degree) {
            let name = format!("N{i}");
            let peer = if hosts >> i & 1 == 1 { b.edge(&name) } else { b.core(&name, id) };
            b.link(a, peer, LinkParams::default());
        }
        let topo = b.build().unwrap();
        let ports: Vec<bool> = (0..degree).map(|i| up >> i & 1 == 1).collect();
        let ctx = SwitchCtx {
            topo: &topo,
            node: a,
            switch_id: SWITCH_ID,
            in_port: Some(in_port).filter(|&p| p < 14),
            ports: &ports,
            now: SimTime::ZERO,
            reducer: None,
            behavior: Behavior::Honest,
        };
        let route_id = residue + SWITCH_ID * lap;
        for technique in DeflectionTechnique::ALL {
            let mut fwd = KarForwarder::new(technique);
            let mut oracle = ReferenceForwarder::new(technique);
            let (mut rng, mut oracle_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let (mut pkt, mut oracle_pkt) =
                (probe(route_id, deflected), probe(route_id, deflected));
            for hop in 0..3 {
                let got = fwd.forward(&ctx, &mut pkt, &mut rng);
                let want = oracle.forward(&ctx, &mut oracle_pkt, &mut oracle_rng);
                prop_assert_eq!(got, want, "{} hop {}", technique, hop);
                prop_assert_eq!(pkt.deflections, oracle_pkt.deflections, "{} hop {}", technique, hop);
                let bit = |p: &Packet| p.route.as_ref().map(|t| t.deflected);
                prop_assert_eq!(bit(&pkt), bit(&oracle_pkt), "{} hop {}", technique, hop);
            }
            prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "{}", technique);
        }
    }
}
