//! The three deflection techniques of paper §2.1 and the KAR dataplane.
//!
//! Every technique first computes `output = route_id mod switch_id`
//! (Eq. 3). They differ in what happens when that port is unusable — or,
//! for hot-potato, in what happens after the first deflection:
//!
//! * **HP (Hot-Potato)** — once a packet has been deflected, every later
//!   hop is uniformly random over healthy ports (a pure random walk);
//!   the paper uses HP as the lower-bound reference.
//! * **AVP (Any Valid Port)** — when the residue names a port that does
//!   not exist or is down, pick a random healthy port; the input port is
//!   a legal choice (two-node ping-pong loops are possible).
//! * **NIP (Not the Input Port)** — AVP, but the input port is excluded
//!   both when the residue points at it and from the random choice
//!   (Algorithm 1); avoids two-node loops and yields the paper's best
//!   results.
//!
//! `None` (drop on failure) gives the "no deflection" reference of
//! Fig. 4; the plain dataplane it degenerates to also lives in
//! `kar_simnet::ModuloForwarder`.

use kar_simnet::{DropReason, ForwardDecision, Forwarder, Packet, SwitchCtx};
use kar_topology::PortIx;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Which failure reaction a KAR switch applies (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeflectionTechnique {
    /// Drop packets whose computed port is unusable ("no deflection").
    None,
    /// Hot-Potato: random walk after the first deflection.
    HotPotato,
    /// Any Valid Port: modulo first, random healthy port on failure
    /// (input port allowed).
    Avp,
    /// Not the Input Port: AVP excluding the input port (Algorithm 1).
    #[default]
    Nip,
}

impl DeflectionTechnique {
    /// All techniques, in the order the paper presents them.
    pub const ALL: [DeflectionTechnique; 4] = [
        DeflectionTechnique::None,
        DeflectionTechnique::HotPotato,
        DeflectionTechnique::Avp,
        DeflectionTechnique::Nip,
    ];

    /// The paper's short name.
    pub fn label(self) -> &'static str {
        match self {
            DeflectionTechnique::None => "NoDeflection",
            DeflectionTechnique::HotPotato => "HP",
            DeflectionTechnique::Avp => "AVP",
            DeflectionTechnique::Nip => "NIP",
        }
    }
}

impl fmt::Display for DeflectionTechnique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The KAR core dataplane: stateless modulo forwarding with the chosen
/// deflection technique.
///
/// One instance serves every switch in the network — KAR switches hold no
/// per-switch state ([`Forwarder::state_entries`] is 0), which is the
/// Table 2 "stateless core" property.
#[derive(Debug, Clone, Copy)]
pub struct KarForwarder {
    technique: DeflectionTechnique,
}

impl KarForwarder {
    /// Creates a dataplane with the given technique.
    pub fn new(technique: DeflectionTechnique) -> Self {
        KarForwarder { technique }
    }

    /// The configured technique.
    pub fn technique(&self) -> DeflectionTechnique {
        self.technique
    }

    /// Uniformly random healthy port, optionally excluding one port.
    /// Returns `None` when no candidate exists.
    ///
    /// With `prefer_core`, core-facing ports are preferred: a switch
    /// knows which of its ports lead to hosts (in OpenFlow terms, edge
    /// ports), and deflecting a transit packet into a host port cannot
    /// help it — the paper's §3 candidate enumerations (e.g. five
    /// candidates at SW13, the SW109-or-SW71 coin at SW73) count only
    /// switch-to-switch links. AVP and NIP use this preference; host
    /// ports remain a last resort when no core port is available.
    /// Hot-potato passes `prefer_core = false` — its "complete random
    /// path" may stumble into any edge, where the controller re-encodes
    /// the packet (delivery "by chance", §2.1).
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

impl Forwarder for KarForwarder {
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

#[cfg(test)]
mod tests {
    use super::*;
    use kar_rns::BigUint;
    use kar_simnet::{FlowId, PacketKind, RouteTag, SimTime};
    use kar_topology::{LinkParams, NodeId, Topology, TopologyBuilder};
    use rand::{RngCore, SeedableRng};

    /// Hub switch (id 7) with three neighbours: X (port 0), Y (1), Z (2).
    fn hub() -> (Topology, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.core("A", 7);
        let x = b.core("X", 11);
        let y = b.core("Y", 13);
        let z = b.core("Z", 17);
        b.link(a, x, LinkParams::default());
        b.link(a, y, LinkParams::default());
        b.link(a, z, LinkParams::default());
        let topo = b.build().unwrap();
        (topo, a)
    }

    fn pkt(route_id: u64, deflected: bool) -> Packet {
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
            ttl: 16,
            hops: 0,
            deflections: 0,
            created: SimTime::ZERO,
        }
    }

    fn ctx<'a>(
        topo: &'a Topology,
        node: NodeId,
        in_port: Option<u64>,
        ports: &'a [bool],
    ) -> SwitchCtx<'a> {
        SwitchCtx {
            topo,
            node,
            switch_id: 7,
            in_port,
            ports,
            now: SimTime::ZERO,
            reducer: None,
            behavior: kar_simnet::Behavior::Honest,
        }
    }

    #[test]
    fn all_techniques_follow_healthy_residue() {
        let (topo, a) = hub();
        let up = vec![true, true, true];
        let mut rng = StdRng::seed_from_u64(1);
        for technique in DeflectionTechnique::ALL {
            let mut fwd = KarForwarder::new(technique);
            // 9 mod 7 = 2 → port 2, healthy, not the input (0).
            let mut p = pkt(9, false);
            let d = fwd.forward(&ctx(&topo, a, Some(0), &up), &mut p, &mut rng);
            assert_eq!(d, ForwardDecision::Output(2), "{technique}");
            assert_eq!(p.deflections, 0);
        }
    }

    #[test]
    fn none_drops_on_failed_port() {
        let (topo, a) = hub();
        let down2 = vec![true, true, false];
        let mut rng = StdRng::seed_from_u64(1);
        let mut fwd = KarForwarder::new(DeflectionTechnique::None);
        let mut p = pkt(9, false);
        assert_eq!(
            fwd.forward(&ctx(&topo, a, Some(0), &down2), &mut p, &mut rng),
            ForwardDecision::Drop(DropReason::PortDown)
        );
        // 5 mod 7 = 5 ≥ 3 ports: the residue itself is invalid here.
        let mut p = pkt(5, false);
        assert_eq!(
            fwd.forward(&ctx(&topo, a, Some(0), &down2), &mut p, &mut rng),
            ForwardDecision::Drop(DropReason::ResidueOutOfRange)
        );
    }

    #[test]
    fn avp_deflects_to_any_healthy_port_including_input() {
        let (topo, a) = hub();
        let down2 = vec![true, true, false];
        let mut rng = StdRng::seed_from_u64(1);
        let mut fwd = KarForwarder::new(DeflectionTechnique::Avp);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let mut p = pkt(9, false);
            match fwd.forward(&ctx(&topo, a, Some(0), &down2), &mut p, &mut rng) {
                ForwardDecision::Output(port) => {
                    seen.insert(port);
                    assert_eq!(p.deflections, 1);
                    assert!(p.route.unwrap().deflected);
                }
                d => panic!("unexpected {d:?}"),
            }
        }
        // AVP may return the packet to its input port 0.
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn nip_never_uses_the_input_port() {
        let (topo, a) = hub();
        let down2 = vec![true, true, false];
        let mut rng = StdRng::seed_from_u64(1);
        let mut fwd = KarForwarder::new(DeflectionTechnique::Nip);
        for _ in 0..200 {
            let mut p = pkt(9, false);
            match fwd.forward(&ctx(&topo, a, Some(0), &down2), &mut p, &mut rng) {
                ForwardDecision::Output(port) => assert_eq!(port, 1),
                d => panic!("unexpected {d:?}"),
            }
        }
    }

    #[test]
    fn nip_rejects_residue_pointing_at_input() {
        let (topo, a) = hub();
        let up = vec![true, true, true];
        let mut rng = StdRng::seed_from_u64(1);
        let mut fwd = KarForwarder::new(DeflectionTechnique::Nip);
        // 9 mod 7 = 2 and the packet came in on port 2.
        for _ in 0..100 {
            let mut p = pkt(9, false);
            match fwd.forward(&ctx(&topo, a, Some(2), &up), &mut p, &mut rng) {
                ForwardDecision::Output(port) => assert!(port == 0 || port == 1),
                d => panic!("unexpected {d:?}"),
            }
        }
        // AVP in the same situation happily sends it back.
        let mut avp = KarForwarder::new(DeflectionTechnique::Avp);
        let mut p = pkt(9, false);
        assert_eq!(
            avp.forward(&ctx(&topo, a, Some(2), &up), &mut p, &mut rng),
            ForwardDecision::Output(2)
        );
    }

    #[test]
    fn nip_drops_when_only_the_input_is_healthy() {
        let (topo, a) = hub();
        let only0 = vec![true, false, false];
        let mut rng = StdRng::seed_from_u64(1);
        let mut fwd = KarForwarder::new(DeflectionTechnique::Nip);
        let mut p = pkt(9, false);
        assert_eq!(
            fwd.forward(&ctx(&topo, a, Some(0), &only0), &mut p, &mut rng),
            ForwardDecision::Drop(DropReason::NoRoute)
        );
    }

    /// Degree-1 switch (id 7) with its single neighbour X on port 0.
    fn stub() -> (Topology, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.core("A", 7);
        let x = b.core("X", 11);
        b.link(a, x, LinkParams::default());
        let topo = b.build().unwrap();
        (topo, a)
    }

    /// Degree-2 switch (id 7) with neighbours X (port 0) and Y (port 1).
    fn chain() -> (Topology, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.core("A", 7);
        let x = b.core("X", 11);
        let y = b.core("Y", 13);
        b.link(a, x, LinkParams::default());
        b.link(a, y, LinkParams::default());
        let topo = b.build().unwrap();
        (topo, a)
    }

    /// At a degree-1 switch every arriving packet's only exit is the
    /// port it came in on. NIP must drop (Algorithm 1's fallback has no
    /// candidate); AVP happily ping-pongs it back.
    #[test]
    fn nip_drops_at_degree_one_switch() {
        let (topo, a) = stub();
        let up = vec![true];
        let mut rng = StdRng::seed_from_u64(1);
        // 7 mod 7 = 0: the residue names the input port itself.
        let mut fwd = KarForwarder::new(DeflectionTechnique::Nip);
        let mut p = pkt(7, false);
        assert_eq!(
            fwd.forward(&ctx(&topo, a, Some(0), &up), &mut p, &mut rng),
            ForwardDecision::Drop(DropReason::NoRoute)
        );
        // 5 mod 7 = 5: the residue is out of range — same dead end.
        let mut p = pkt(5, false);
        assert_eq!(
            fwd.forward(&ctx(&topo, a, Some(0), &up), &mut p, &mut rng),
            ForwardDecision::Drop(DropReason::NoRoute)
        );
        // AVP ping-pongs both packets back out the input port — via the
        // residue for route 7 (no deflection counted), via the random
        // fallback for the out-of-range route 5.
        let mut avp = KarForwarder::new(DeflectionTechnique::Avp);
        for (route_id, deflections) in [(7, 0), (5, 1)] {
            let mut p = pkt(route_id, false);
            assert_eq!(
                avp.forward(&ctx(&topo, a, Some(0), &up), &mut p, &mut rng),
                ForwardDecision::Output(0)
            );
            assert_eq!(p.deflections, deflections, "route {route_id}");
        }
    }

    /// At a degree-2 switch whose other port is down, the input port is
    /// the only healthy exit: NIP drops, AVP returns the packet.
    #[test]
    fn nip_drops_at_degree_two_switch_with_other_port_down() {
        let (topo, a) = chain();
        let only_input = vec![true, false];
        let mut rng = StdRng::seed_from_u64(1);
        let mut fwd = KarForwarder::new(DeflectionTechnique::Nip);
        // 8 mod 7 = 1: the residue names the down port.
        let mut p = pkt(8, false);
        assert_eq!(
            fwd.forward(&ctx(&topo, a, Some(0), &only_input), &mut p, &mut rng),
            ForwardDecision::Drop(DropReason::NoRoute)
        );
        // 7 mod 7 = 0: the residue names the (healthy) input port.
        let mut p = pkt(7, false);
        assert_eq!(
            fwd.forward(&ctx(&topo, a, Some(0), &only_input), &mut p, &mut rng),
            ForwardDecision::Drop(DropReason::NoRoute)
        );
        let mut avp = KarForwarder::new(DeflectionTechnique::Avp);
        let mut p = pkt(8, false);
        assert_eq!(
            avp.forward(&ctx(&topo, a, Some(0), &only_input), &mut p, &mut rng),
            ForwardDecision::Output(0)
        );
    }

    /// Degree-2 with both ports healthy is NIP's deterministic case: the
    /// packet must leave on the port it did not arrive on, whatever the
    /// residue says.
    #[test]
    fn nip_is_deterministic_at_degree_two() {
        let (topo, a) = chain();
        let up = vec![true, true];
        let mut rng = StdRng::seed_from_u64(1);
        let mut fwd = KarForwarder::new(DeflectionTechnique::Nip);
        for route_id in [7, 8, 5] {
            // Residues 0 (input), 1 (the other port), 5 (out of range).
            let mut p = pkt(route_id, false);
            assert_eq!(
                fwd.forward(&ctx(&topo, a, Some(0), &up), &mut p, &mut rng),
                ForwardDecision::Output(1),
                "route_id {route_id}"
            );
            let mut p = pkt(route_id, false);
            assert_eq!(
                fwd.forward(&ctx(&topo, a, Some(1), &up), &mut p, &mut rng),
                ForwardDecision::Output(0),
                "route_id {route_id} reversed"
            );
        }
    }

    #[test]
    fn hot_potato_random_walks_after_first_deflection() {
        let (topo, a) = hub();
        let up = vec![true, true, true];
        let mut rng = StdRng::seed_from_u64(1);
        let mut fwd = KarForwarder::new(DeflectionTechnique::HotPotato);
        // Residue points to port 2 and everything is healthy, but the
        // packet was already deflected → random walk anyway.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            let mut p = pkt(9, true);
            if let ForwardDecision::Output(port) =
                fwd.forward(&ctx(&topo, a, Some(0), &up), &mut p, &mut rng)
            {
                seen.insert(port);
            }
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // AVP/NIP in the same state follow the residue (deflection ceases
        // once a packet re-joins an encoded path — §2.1's key argument).
        for technique in [DeflectionTechnique::Avp, DeflectionTechnique::Nip] {
            let mut fwd = KarForwarder::new(technique);
            let mut p = pkt(9, true);
            assert_eq!(
                fwd.forward(&ctx(&topo, a, Some(0), &up), &mut p, &mut rng),
                ForwardDecision::Output(2),
                "{technique}"
            );
        }
    }

    #[test]
    fn invalid_residue_triggers_deflection() {
        let (topo, a) = hub();
        let up = vec![true, true, true];
        let mut rng = StdRng::seed_from_u64(1);
        // 5 mod 7 = 5, but the switch has only 3 ports.
        for technique in [DeflectionTechnique::Avp, DeflectionTechnique::Nip] {
            let mut fwd = KarForwarder::new(technique);
            let mut p = pkt(5, false);
            match fwd.forward(&ctx(&topo, a, Some(0), &up), &mut p, &mut rng) {
                ForwardDecision::Output(port) => {
                    assert!(port < 3);
                    if technique == DeflectionTechnique::Nip {
                        assert_ne!(port, 0);
                    }
                    assert_eq!(p.deflections, 1);
                }
                d => panic!("unexpected {d:?} for {technique}"),
            }
        }
    }

    #[test]
    fn missing_route_tag_drops() {
        let (topo, a) = hub();
        let up = vec![true, true, true];
        let mut rng = StdRng::seed_from_u64(1);
        let mut fwd = KarForwarder::new(DeflectionTechnique::Nip);
        let mut p = pkt(9, false);
        p.route = None;
        assert_eq!(
            fwd.forward(&ctx(&topo, a, None, &up), &mut p, &mut rng),
            ForwardDecision::Drop(DropReason::MissingTag)
        );
    }

    /// `random_port` as it was before it stopped collecting its
    /// candidates, kept verbatim as the oracle of the counting one.
    fn reference_random_port(
        ctx: &SwitchCtx<'_>,
        exclude: Option<PortIx>,
        prefer_core: bool,
        rng: &mut StdRng,
    ) -> Option<PortIx> {
        let healthy: Vec<PortIx> = ctx
            .healthy_ports()
            .filter(|&p| Some(p) != exclude)
            .collect();
        let core: Vec<PortIx> = if prefer_core {
            healthy
                .iter()
                .copied()
                .filter(|&p| {
                    ctx.topo
                        .neighbors(ctx.node)
                        .find(|&(port, _, _)| port == p)
                        .map(|(_, _, peer)| ctx.topo.switch_id(peer).is_some())
                        .unwrap_or(false)
                })
                .collect()
        } else {
            Vec::new()
        };
        let candidates = if core.is_empty() { &healthy } else { &core };
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[rng.gen_range(0..candidates.len())])
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 2_000,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// A switch of degree 1–12 whose neighbours are switches or hosts
        /// by `hosts`, its ports up by `up`, and every `exclude` (an
        /// index past the degree excludes nothing) and `prefer_core`:
        /// the counting `random_port` draws the reference's port and
        /// leaves the generator where the reference leaves it.
        #[test]
        fn random_port_draws_what_the_collecting_reference_draws(
            degree in 1usize..13,
            hosts in proptest::prelude::any::<u16>(),
            up in proptest::prelude::any::<u16>(),
            exclude in 0u64..14,
            prefer_core in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            const IDS: [u64; 13] = [41, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
            let mut b = TopologyBuilder::new();
            let a = b.core("A", IDS[0]);
            for i in 0..degree {
                let name = format!("N{i}");
                let peer = if hosts >> i & 1 == 1 {
                    b.edge(&name)
                } else {
                    b.core(&name, IDS[i + 1])
                };
                b.link(a, peer, LinkParams::default());
            }
            let topo = b.build().unwrap();
            let ports: Vec<bool> = (0..degree).map(|i| up >> i & 1 == 1).collect();
            let ctx = SwitchCtx {
                switch_id: IDS[0],
                ..ctx(&topo, a, None, &ports)
            };
            let exclude = Some(exclude).filter(|&p| (p as usize) < degree);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle = rng.clone();
            for draw in 0..4 {
                let got = KarForwarder::random_port(&ctx, exclude, prefer_core, &mut rng);
                let want = reference_random_port(&ctx, exclude, prefer_core, &mut oracle);
                proptest::prop_assert_eq!(got, want, "draw {}", draw);
            }
            proptest::prop_assert_eq!(rng.next_u64(), oracle.next_u64());
        }
    }

    #[test]
    fn stateless_core_property() {
        let fwd = KarForwarder::new(DeflectionTechnique::Nip);
        assert_eq!(fwd.state_entries(NodeId(0)), 0);
        assert_eq!(fwd.name(), "NIP");
        assert_eq!(DeflectionTechnique::HotPotato.to_string(), "HP");
    }
}
