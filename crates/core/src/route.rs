//! Route specification and CRT encoding (paper §2.2).
//!
//! A [`RouteSpec`] is what the controller decides: a primary node path
//! plus zero or more *driven deflection forwarding segments* — directed
//! `(switch, next-hop)` pairs that are folded into the same route ID so
//! deflected packets get driven back toward the destination. Encoding a
//! spec yields an [`EncodedRoute`]: the integer route ID, its basis, and
//! the header bit length of Eq. 9.

use crate::error::KarError;
use kar_rns::{crt_seal, residue, BigUint, RnsBasis};
use kar_topology::{NodeId, PortIx, Topology};

/// A planned route: primary path plus protection segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSpec {
    /// The primary node path, edge to edge (e.g. AS1, SW10, …, AS3).
    pub primary: Vec<NodeId>,
    /// Driven-deflection segments `(from_switch, towards_neighbor)`.
    /// Order is irrelevant (the CRT sum commutes).
    pub protection: Vec<(NodeId, NodeId)>,
}

impl RouteSpec {
    /// A spec with no protection.
    pub fn unprotected(primary: Vec<NodeId>) -> Self {
        RouteSpec {
            primary,
            protection: Vec::new(),
        }
    }

    /// A spec with explicit protection segments.
    pub fn protected(primary: Vec<NodeId>, protection: Vec<(NodeId, NodeId)>) -> Self {
        RouteSpec {
            primary,
            protection,
        }
    }
}

/// A fully encoded route: what the ingress edge stamps on packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRoute {
    /// The route ID `R` (Eq. 4).
    pub route_id: BigUint,
    /// The pairwise-coprime switch IDs folded into `R`.
    pub basis: RnsBasis,
    /// The `(switch_id, port)` residues that were encoded, primary first.
    pub pairs: Vec<(u64, PortIx)>,
    /// Uplink port at the ingress edge (first hop).
    pub uplink: PortIx,
}

impl EncodedRoute {
    /// Encodes a [`RouteSpec`] over a topology.
    ///
    /// # Errors
    ///
    /// * [`KarError::NotAdjacent`] — consecutive primary nodes or a
    ///   protection segment without a connecting link;
    /// * [`KarError::NotACoreSwitch`] — a protection segment starting at
    ///   an edge node;
    /// * [`KarError::SwitchConflict`] — a protection segment asking a
    ///   switch already in the route ID for a different port (each switch
    ///   has one residue — the paper's intrinsic constraint);
    /// * [`KarError::NoPath`] — a primary path shorter than two nodes;
    /// * [`KarError::Rns`] — non-coprime IDs or a port not below its
    ///   switch ID.
    ///
    /// Protection segments that agree with an already-encoded port are
    /// deduplicated silently (folding the same tree twice is harmless).
    ///
    /// # Examples
    ///
    /// ```
    /// use kar::{EncodedRoute, RouteSpec};
    /// use kar_topology::{topo15, paths};
    ///
    /// let topo = topo15::build();
    /// let spec = RouteSpec::unprotected(topo15::primary_route(&topo));
    /// let route = EncodedRoute::encode(&topo, &spec)?;
    /// assert_eq!(route.bit_length(), 15); // Table 1, unprotected
    /// # Ok::<(), kar::KarError>(())
    /// ```
    pub fn encode(topo: &Topology, spec: &RouteSpec) -> Result<EncodedRoute, KarError> {
        let (pairs, uplink) = EncodedRoute::collect_pairs(topo, spec)?;
        EncodedRoute::from_pairs(pairs, uplink)
    }

    /// Resolves a spec into its `(switch_id, port)` residue pairs plus
    /// the ingress uplink — the topology-walking half of [`Self::encode`],
    /// with no CRT arithmetic.
    ///
    /// The returned pairs (with the uplink) fully determine the encoded
    /// route, which is what makes route encoding memoizable (see
    /// [`crate::cache::EncodingCache`]).
    ///
    /// # Errors
    ///
    /// The path/adjacency/conflict conditions of [`Self::encode`].
    pub fn collect_pairs(
        topo: &Topology,
        spec: &RouteSpec,
    ) -> Result<(Vec<(u64, PortIx)>, PortIx), KarError> {
        if spec.primary.len() < 2 {
            let n = spec.primary.first().copied().unwrap_or(NodeId(0));
            return Err(KarError::NoPath { src: n, dst: n });
        }
        let uplink =
            topo.port_towards(spec.primary[0], spec.primary[1])
                .ok_or(KarError::NotAdjacent {
                    from: spec.primary[0],
                    to: spec.primary[1],
                })?;
        let mut pairs: Vec<(u64, PortIx)> = Vec::new();
        for w in spec.primary.windows(2) {
            let port = topo.port_towards(w[0], w[1]).ok_or(KarError::NotAdjacent {
                from: w[0],
                to: w[1],
            })?;
            if let Some(id) = topo.switch_id(w[0]) {
                push_pair(&mut pairs, id, port)?;
            }
        }
        for &(from, towards) in &spec.protection {
            let id = topo
                .switch_id(from)
                .ok_or(KarError::NotACoreSwitch { node: from })?;
            let port = topo
                .port_towards(from, towards)
                .ok_or(KarError::NotAdjacent { from, to: towards })?;
            push_pair(&mut pairs, id, port)?;
        }
        Ok((pairs, uplink))
    }

    /// Seals residue pairs into a route ID — the CRT-arithmetic half of
    /// [`Self::encode`]: one [`kar_rns::crt_seal`] pass validates the
    /// switch IDs, encodes the ports and sizes the header field.
    ///
    /// # Errors
    ///
    /// [`KarError::Rns`] on non-coprime IDs or a port not below its
    /// switch ID.
    pub fn from_pairs(pairs: Vec<(u64, PortIx)>, uplink: PortIx) -> Result<EncodedRoute, KarError> {
        let (basis, route_id) = crt_seal(&pairs)?;
        Ok(EncodedRoute {
            route_id,
            basis,
            pairs,
            uplink,
        })
    }

    /// Header bits required for this route ID (Eq. 9).
    pub fn bit_length(&self) -> u32 {
        self.basis.bit_length()
    }

    /// The output port this route ID produces at a switch (Eq. 3) —
    /// meaningful for any switch ID, encoded or not (non-encoded switches
    /// see a pseudo-random residue, which is what deflection exploits).
    pub fn port_at(&self, switch_id: u64) -> PortIx {
        residue(&self.route_id, switch_id)
    }

    /// Whether `switch_id` was explicitly folded into this route.
    pub fn contains_switch(&self, switch_id: u64) -> bool {
        self.pairs.iter().any(|&(id, _)| id == switch_id)
    }
}

fn push_pair(pairs: &mut Vec<(u64, PortIx)>, id: u64, port: PortIx) -> Result<(), KarError> {
    match pairs.iter().find(|&&(e, _)| e == id) {
        Some(&(_, existing)) if existing == port => Ok(()), // harmless duplicate
        Some(&(_, existing)) => Err(KarError::SwitchConflict {
            switch_id: id,
            existing_port: existing,
            requested_port: port,
        }),
        None => {
            pairs.push((id, port));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_topology::{topo15, LinkParams, TopologyBuilder};

    #[test]
    fn paper_example_encoding() {
        // Rebuild Fig. 1: S - SW4 - SW7 - SW11 - D with SW5 hanging off
        // SW7 and reaching SW11 (the protection branch).
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let sw4 = b.core("SW4", 4);
        let sw7 = b.core("SW7", 7);
        let sw11 = b.core("SW11", 11);
        let d = b.edge("D");
        let sw5 = b.core("SW5", 5);
        b.link(sw4, s, LinkParams::default()); // SW4 port 0 = S
        b.link(sw7, sw4, LinkParams::default()); // SW7 port 0 = SW4, SW4 port 1 = SW7
        b.link(sw7, sw5, LinkParams::default()); // SW7 port 1 = SW5, SW5 port 0 = SW7
        b.link(sw7, sw11, LinkParams::default()); // SW7 port 2 = SW11
        b.link(sw11, d, LinkParams::default()); // SW11 port 1 = D... port 0 = SW7
        b.link(sw5, sw11, LinkParams::default()); // SW5 port 1 = SW11
        let topo = b.build().unwrap();

        // Paper: switches {4,7,11} ports {0,2,0}. Our port numbering gives
        // SW4→SW7 = 1, SW7→SW11 = 2, SW11→D = 1; different numbers, same
        // mechanics. Force the paper's exact numbers with a hand check of
        // the residues instead.
        let spec = RouteSpec::unprotected(vec![s, sw4, sw7, sw11, d]);
        let route = EncodedRoute::encode(&topo, &spec).unwrap();
        assert_eq!(route.port_at(4), topo.port_towards(sw4, sw7).unwrap());
        assert_eq!(route.port_at(7), topo.port_towards(sw7, sw11).unwrap());
        assert_eq!(route.port_at(11), topo.port_towards(sw11, d).unwrap());

        // Fold in the SW5 → SW11 driven deflection segment.
        let spec = RouteSpec::protected(vec![s, sw4, sw7, sw11, d], vec![(sw5, sw11)]);
        let protected = EncodedRoute::encode(&topo, &spec).unwrap();
        // Primary residues unchanged (disjoint extension).
        assert_eq!(protected.port_at(4), route.port_at(4));
        assert_eq!(protected.port_at(7), route.port_at(7));
        assert_eq!(protected.port_at(11), route.port_at(11));
        assert_eq!(protected.port_at(5), topo.port_towards(sw5, sw11).unwrap());
        assert!(protected.contains_switch(5));
        assert!(!route.contains_switch(5));
    }

    #[test]
    fn table1_bit_lengths_through_encoded_routes() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let unprot = EncodedRoute::encode(&topo, &RouteSpec::unprotected(primary.clone())).unwrap();
        assert_eq!(unprot.bit_length(), 15);
        assert_eq!(unprot.pairs.len(), 4);

        let partial = EncodedRoute::encode(
            &topo,
            &RouteSpec::protected(
                primary.clone(),
                topo15::protection_pairs(&topo, &topo15::PARTIAL_PROTECTION),
            ),
        )
        .unwrap();
        assert_eq!(partial.bit_length(), 28);
        assert_eq!(partial.pairs.len(), 7);

        let mut full_pairs = topo15::protection_pairs(&topo, &topo15::PARTIAL_PROTECTION);
        full_pairs.extend(topo15::protection_pairs(
            &topo,
            &topo15::FULL_EXTRA_PROTECTION,
        ));
        let full = EncodedRoute::encode(&topo, &RouteSpec::protected(primary, full_pairs)).unwrap();
        assert_eq!(full.bit_length(), 43);
        assert_eq!(full.pairs.len(), 10);
    }

    #[test]
    fn conflict_detection() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        // SW7 is on the primary path exiting toward SW13; asking it to
        // also exit toward SW11 must conflict.
        let sw7 = topo.expect("SW7");
        let sw11 = topo.expect("SW11");
        let err = EncodedRoute::encode(
            &topo,
            &RouteSpec::protected(primary.clone(), vec![(sw7, sw11)]),
        )
        .unwrap_err();
        assert!(matches!(err, KarError::SwitchConflict { switch_id: 7, .. }));
        // Re-stating the same port is fine (dedup).
        let sw13 = topo.expect("SW13");
        let ok =
            EncodedRoute::encode(&topo, &RouteSpec::protected(primary, vec![(sw7, sw13)])).unwrap();
        assert_eq!(ok.pairs.len(), 4);
    }

    #[test]
    fn rejects_malformed_specs() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let sw7 = topo.expect("SW7");
        assert!(matches!(
            EncodedRoute::encode(&topo, &RouteSpec::unprotected(vec![as1])),
            Err(KarError::NoPath { .. })
        ));
        assert!(matches!(
            EncodedRoute::encode(&topo, &RouteSpec::unprotected(vec![as1, as3])),
            Err(KarError::NotAdjacent { .. })
        ));
        // Protection segment from an edge node.
        let primary = topo15::primary_route(&topo);
        assert!(matches!(
            EncodedRoute::encode(
                &topo,
                &RouteSpec::protected(primary.clone(), vec![(as1, sw7)])
            ),
            Err(KarError::NotACoreSwitch { .. })
        ));
        // Protection segment between non-neighbours.
        let sw43 = topo.expect("SW43");
        assert!(matches!(
            EncodedRoute::encode(&topo, &RouteSpec::protected(primary, vec![(sw43, as3)])),
            Err(KarError::NotAdjacent { .. })
        ));
    }

    #[test]
    fn uplink_is_first_hop_port() {
        let topo = topo15::build();
        let route =
            EncodedRoute::encode(&topo, &RouteSpec::unprotected(topo15::primary_route(&topo)))
                .unwrap();
        let as1 = topo.expect("AS1");
        assert_eq!(
            route.uplink,
            topo.port_towards(as1, topo.expect("SW10")).unwrap()
        );
    }
}
