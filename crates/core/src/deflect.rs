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
use kar_topology::{NodeId, PortIx, Topology};
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

/// A port no switch has: the input port of a packet that entered from
/// nowhere in particular, and the residue of a switch the route does not
/// leave through. [`rule`] only compares the input port with others and
/// asks `port_up` about the residue, so it never indexes with this.
pub(crate) const NO_PORT: PortIx = PortIx::MAX;

/// What a switch's rule does with a packet ([`rule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Move {
    /// Take the residue's port: the one move there is.
    Residue(PortIx),
    /// Deflect: every port of the set the rule wrote is a move.
    Deflect,
    /// No move: the switch drops the packet.
    Drop,
}

/// The rule of one switch (paper §2.1): the residue's port when the
/// technique may take it, or else the technique's deflection set, or a
/// drop when that set is empty. The forwarder and the verifier both read
/// it; they differ only in how each reads a port's status (`port_up`)
/// and where the set goes (`deflect_to`, called once per port of the set,
/// in ascending port order, and never for a residue move or a drop).
///
/// * `None` takes the residue's port or drops.
/// * HP takes the residue's port until the packet was deflected
///   (`deflected`); then, and on any failure, it deflects to every
///   healthy port.
/// * AVP takes the residue's port when it is up, else deflects to the
///   healthy ports, `in_port` included.
/// * NIP takes the residue's port when it is up and not `in_port`, else
///   deflects to the healthy ports but `in_port` (Algorithm 1).
///
/// AVP and NIP deflect only to core-facing ports while any is a
/// candidate. A switch knows which of its ports lead to hosts (in
/// OpenFlow terms, edge ports), and deflecting a transit packet into a
/// host port cannot help it: the paper's §3 candidate enumerations (five
/// candidates at SW13, the SW109-or-SW71 coin at SW73) count only
/// switch-to-switch links. Host ports stay a last resort. HP's "complete
/// random path" may stumble into any edge, where the controller
/// re-encodes the packet (delivery "by chance", §2.1).
#[allow(clippy::too_many_arguments)] // one switch's whole input, plus the two readers' views
pub(crate) fn rule(
    topo: &Topology,
    node: NodeId,
    technique: DeflectionTechnique,
    residue: PortIx,
    in_port: PortIx,
    deflected: bool,
    port_up: impl Fn(PortIx) -> bool,
    mut deflect_to: impl FnMut(PortIx),
) -> Move {
    let (exclude, prefer_core) = match technique {
        DeflectionTechnique::None if port_up(residue) => return Move::Residue(residue),
        DeflectionTechnique::None => return Move::Drop,
        DeflectionTechnique::HotPotato if !deflected && port_up(residue) => {
            return Move::Residue(residue)
        }
        // "Once a packet is deflected, it follows a complete random path
        // in network."
        DeflectionTechnique::HotPotato => (NO_PORT, false),
        DeflectionTechnique::Avp if port_up(residue) => return Move::Residue(residue),
        DeflectionTechnique::Avp => (NO_PORT, true),
        DeflectionTechnique::Nip if port_up(residue) && residue != in_port => {
            return Move::Residue(residue)
        }
        DeflectionTechnique::Nip => (in_port, true),
    };
    let ports = &topo.node(node).ports;
    let candidates = || (0..ports.len() as PortIx).filter(|&p| p != exclude && port_up(p));
    let core_facing = |p: PortIx| {
        topo.switch_id(topo.link(ports[p as usize]).peer_of(node))
            .is_some()
    };
    let core_only = prefer_core && candidates().any(core_facing);
    let mut any = false;
    for p in candidates().filter(|&p| !core_only || core_facing(p)) {
        deflect_to(p);
        any = true;
    }
    if any {
        Move::Deflect
    } else {
        Move::Drop
    }
}

/// The KAR core dataplane: stateless modulo forwarding with the chosen
/// deflection technique.
///
/// One instance serves every switch in the network — KAR switches hold no
/// per-switch state ([`Forwarder::state_entries`] is 0), which is the
/// Table 2 "stateless core" property. The one buffer it owns holds the
/// current hop's deflection set, so a warm hop allocates nothing.
#[derive(Debug, Clone)]
pub struct KarForwarder {
    technique: DeflectionTechnique,
    set: Vec<PortIx>,
}

impl KarForwarder {
    /// Creates a dataplane with the given technique.
    pub fn new(technique: DeflectionTechnique) -> Self {
        KarForwarder {
            technique,
            set: Vec::new(),
        }
    }
}

impl Forwarder for KarForwarder {
    /// The switch's rule (`deflect::rule`) over the ports `ctx` reports
    /// up. A deflection draws its port uniformly from the set (one draw,
    /// even from a set of one), counts itself and marks the tag
    /// deflected.
    fn forward(
        &mut self,
        ctx: &SwitchCtx<'_>,
        pkt: &mut Packet,
        rng: &mut StdRng,
    ) -> ForwardDecision {
        let Some(tag) = &mut pkt.route else {
            return ForwardDecision::Drop(DropReason::MissingTag);
        };
        let residue = ctx.residue(tag);
        self.set.clear();
        match rule(
            ctx.topo,
            ctx.node,
            self.technique,
            residue,
            ctx.in_port.unwrap_or(NO_PORT),
            tag.deflected,
            |p| ctx.port_available(p),
            |p| self.set.push(p),
        ) {
            Move::Residue(p) => ForwardDecision::Output(p),
            Move::Deflect => {
                pkt.deflections = pkt.deflections.saturating_add(1);
                tag.deflected = true;
                ForwardDecision::Output(self.set[rng.gen_range(0..self.set.len())])
            }
            Move::Drop if self.technique != DeflectionTechnique::None => {
                ForwardDecision::Drop(DropReason::NoRoute)
            }
            Move::Drop if (residue as usize) < ctx.ports.len() => {
                ForwardDecision::Drop(DropReason::PortDown)
            }
            Move::Drop => ForwardDecision::Drop(DropReason::ResidueOutOfRange),
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
            let mut after = rng.clone();
            assert_eq!(
                fwd.forward(&ctx(&topo, a, Some(0), &up), &mut p, &mut rng),
                ForwardDecision::Output(1),
                "route_id {route_id}"
            );
            if route_id == 7 {
                // A deflection set of one still draws: one word.
                after.next_u64();
                assert_eq!(after.next_u64(), rng.clone().next_u64());
            }
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

    #[test]
    fn stateless_core_property() {
        let fwd = KarForwarder::new(DeflectionTechnique::Nip);
        assert_eq!(fwd.state_entries(NodeId(0)), 0);
        assert_eq!(fwd.name(), "NIP");
        assert_eq!(DeflectionTechnique::HotPotato.to_string(), "HP");
    }
}
