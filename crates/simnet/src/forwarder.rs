//! The pluggable core-switch forwarding interface.
//!
//! The paper modified an OpenFlow software switch so that the output port
//! is computed from the packet's route ID instead of looked up in a flow
//! table. [`Forwarder`] is that extension point: the engine calls it for
//! every packet arriving at a core switch, handing it the local view a
//! real switch would have — its own switch ID, the input port, and the
//! liveness of each port. Implementations live in the `kar` crate
//! (modulo forwarding with HP/AVP/NIP deflection) and in `kar-baselines`
//! (drop-on-failure, table-based fast failover, …).

use crate::adversary::Behavior;
use crate::packet::{Packet, RouteTag};
use crate::time::SimTime;
use kar_rns::Reducer;
use kar_topology::{NodeId, PortIx, Topology};
use rand::rngs::StdRng;

/// Everything a core switch can see when making a forwarding decision.
pub struct SwitchCtx<'a> {
    /// The network graph (immutable wiring; used for port lookups, not
    /// for global routing state — KAR cores are stateless).
    pub topo: &'a Topology,
    /// The switch making the decision.
    pub node: NodeId,
    /// This switch's ID: the modulus its route-ID residue is taken by.
    pub switch_id: u64,
    /// Port the packet came in on (`None` for locally injected packets).
    pub in_port: Option<PortIx>,
    /// `ports[p]` is `true` iff the switch observes the link behind port
    /// `p` as up (the engine lends its own per-switch port state, which
    /// lags the physical link by the detection delay).
    pub ports: &'a [bool],
    /// Current simulation time.
    pub now: SimTime,
    /// Precomputed reduction constants for `switch_id` (the engine hands
    /// every core switch one; `None` falls back to plain division,
    /// bit-identically).
    pub reducer: Option<&'a Reducer>,
    /// This switch's assigned (possibly Byzantine) behavior. The engine
    /// enforces it *around* the forwarder call; it is surfaced here so
    /// forwarders and inspectors can observe which switches are
    /// declared adversarial. Always [`Behavior::Honest`] unless the
    /// scenario configured otherwise.
    pub behavior: Behavior,
}

impl SwitchCtx<'_> {
    /// Returns `true` if `port` exists and its link is currently up.
    pub fn port_available(&self, port: PortIx) -> bool {
        self.ports.get(port as usize).copied().unwrap_or(false)
    }

    /// Iterator over the indexes of all healthy ports.
    pub fn healthy_ports(&self) -> impl Iterator<Item = PortIx> + '_ {
        self.ports
            .iter()
            .enumerate()
            .filter(|&(_, &up)| up)
            .map(|(p, _)| p as PortIx)
    }

    /// `route_id mod switch_id` — the KAR forwarding operation.
    ///
    /// Uses, in order: the tag's memoized residue from a previous visit
    /// to this switch, the engine's precomputed [`Reducer`], or plain
    /// [`kar_rns::BigUint::rem_u64`]. All three produce the same value
    /// bit for bit — debug builds check every answer against plain
    /// division, so each hop of each debug-profile test is an oracle
    /// run; the memo is refreshed so the next visit (deflection loops,
    /// controller bounces) is free.
    pub fn residue(&self, tag: &mut RouteTag) -> u64 {
        if let Some(r) = tag.memoized_residue(self.switch_id) {
            debug_assert_eq!(r, tag.route_id.rem_u64(self.switch_id));
            return r;
        }
        let r = match self.reducer {
            Some(red) => {
                debug_assert_eq!(red.modulus(), self.switch_id);
                red.rem(&tag.route_id)
            }
            None => tag.route_id.rem_u64(self.switch_id),
        };
        debug_assert_eq!(r, tag.route_id.rem_u64(self.switch_id));
        tag.memoize_residue(self.switch_id, r);
        r
    }
}

/// Why a packet was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DropReason {
    /// No usable route: an ingress edge without an installed route, or a
    /// deflecting forwarder with no deflection candidate left.
    NoRoute,
    /// The packet reached a core switch without a route tag (nothing to
    /// reduce — an edge-logic bug or a baseline that strips tags).
    MissingTag,
    /// The residue named a real port whose link is observed down, and
    /// the forwarder does not deflect.
    PortDown,
    /// The residue is `≥` the switch's port count — the route ID was not
    /// encoded for this switch (e.g. a deflected packet at a foreign
    /// switch under the no-deflection dataplane).
    ResidueOutOfRange,
    /// Same symptom as [`DropReason::ResidueOutOfRange`], but the tag
    /// was tampered with by a Byzantine switch upstream — the residue is
    /// garbage, not a routing mistake. Split out so corruption is
    /// detectable in the drop tables.
    CorruptedResidue,
    /// A Byzantine switch ([`Behavior::DropSilently`]) discarded the
    /// packet in transit.
    AdversaryDrop,
    /// The hop budget ran out (possible with random deflection loops).
    TtlExpired,
    /// A drop-tail queue was full.
    QueueOverflow,
    /// The packet was queued or in flight on a link that failed.
    LinkFailure,
    /// The forwarder returned a port whose link is down or absent.
    BadPort,
    /// An edge declined to reroute a misdelivered packet.
    Misdelivery,
}

impl DropReason {
    /// Stable kebab-case name (used in metric names and event tags).
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::NoRoute => "no-route",
            DropReason::MissingTag => "missing-tag",
            DropReason::PortDown => "port-down",
            DropReason::ResidueOutOfRange => "residue-out-of-range",
            DropReason::CorruptedResidue => "corrupted-residue",
            DropReason::AdversaryDrop => "adversary-drop",
            DropReason::TtlExpired => "ttl-expired",
            DropReason::QueueOverflow => "queue-overflow",
            DropReason::LinkFailure => "link-failure",
            DropReason::BadPort => "bad-port",
            DropReason::Misdelivery => "misdelivery",
        }
    }

    /// Every reason, in declaration order (drives `kar-bench inspect`'s
    /// drop table and the verifier's counters).
    pub const ALL: [DropReason; 11] = [
        DropReason::NoRoute,
        DropReason::MissingTag,
        DropReason::PortDown,
        DropReason::ResidueOutOfRange,
        DropReason::CorruptedResidue,
        DropReason::AdversaryDrop,
        DropReason::TtlExpired,
        DropReason::QueueOverflow,
        DropReason::LinkFailure,
        DropReason::BadPort,
        DropReason::Misdelivery,
    ];
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Outcome of a forwarding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardDecision {
    /// Transmit out of this port.
    Output(PortIx),
    /// Discard the packet.
    Drop(DropReason),
}

/// A core-switch forwarding engine.
///
/// One instance serves the whole network (the engine passes the per-switch
/// context on every call); stateful baselines key internal tables by
/// [`SwitchCtx::node`]. KAR itself needs no such state — that is the
/// paper's "stateless core" property, checked in `kar-baselines`'s
/// feature-matrix tests.
pub trait Forwarder {
    /// Decides where `pkt`, arriving at the switch described by `ctx`,
    /// goes next. May mutate the packet (e.g. mark it deflected).
    ///
    /// `rng` is the engine's seeded RNG — using it (rather than an
    /// internal one) keeps whole-simulation runs reproducible.
    fn forward(
        &mut self,
        ctx: &SwitchCtx<'_>,
        pkt: &mut Packet,
        rng: &mut StdRng,
    ) -> ForwardDecision;

    /// Human-readable name used in experiment output ("NIP", "HP", …).
    fn name(&self) -> &str;

    /// Number of forwarding-table entries this scheme stores at `node`
    /// (0 for stateless schemes — the Table 2 "state in core" metric).
    fn state_entries(&self, node: NodeId) -> usize {
        let _ = node;
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_topology::{LinkParams, TopologyBuilder};

    #[test]
    fn ctx_port_queries() {
        let mut b = TopologyBuilder::new();
        let a = b.core("A", 7);
        let x = b.core("X", 11);
        let y = b.core("Y", 13);
        b.link(a, x, LinkParams::default());
        b.link(a, y, LinkParams::default());
        let topo = b.build().unwrap();
        let ports = vec![true, false];
        let ctx = SwitchCtx {
            topo: &topo,
            node: a,
            switch_id: 7,
            in_port: Some(0),
            ports: &ports,
            now: SimTime::ZERO,
            reducer: None,
            behavior: Behavior::Honest,
        };
        assert!(ctx.port_available(0));
        assert!(!ctx.port_available(1));
        assert!(!ctx.port_available(9));
        assert_eq!(ctx.healthy_ports().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn residue_agrees_with_and_without_reducer_and_memoizes() {
        let mut b = TopologyBuilder::new();
        let a = b.core("A", 29);
        let x = b.core("X", 31);
        b.link(a, x, LinkParams::default());
        let topo = b.build().unwrap();
        let ports = vec![true];
        let reducer = Reducer::new(29);
        let route_id = kar_rns::BigUint::from(123_456_789_012_345u64);
        let slow = SwitchCtx {
            topo: &topo,
            node: a,
            switch_id: 29,
            in_port: None,
            ports: &ports,
            now: SimTime::ZERO,
            reducer: None,
            behavior: Behavior::Honest,
        };
        let fast = SwitchCtx {
            reducer: Some(&reducer),
            ports: &ports,
            ..slow
        };
        let mut tag = RouteTag::new(route_id.clone());
        let expect = route_id.rem_u64(29);
        assert_eq!(slow.residue(&mut tag.clone()), expect);
        assert_eq!(fast.residue(&mut tag), expect);
        // The reduction left a memo behind for the next visit.
        assert_eq!(tag.memoized_residue(29), Some(expect));
    }

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::TtlExpired.to_string(), "ttl-expired");
        assert_eq!(DropReason::QueueOverflow.to_string(), "queue-overflow");
        assert_eq!(
            DropReason::CorruptedResidue.to_string(),
            "corrupted-residue"
        );
        assert_eq!(DropReason::AdversaryDrop.to_string(), "adversary-drop");
    }

    /// `ALL` covers every variant exactly once and each `as_str` name is
    /// distinct kebab-case — metric names and drop tables key on these
    /// strings, so a collision or an unlisted variant would silently
    /// merge or hide a drop class.
    #[test]
    fn drop_reason_as_str_is_exhaustive_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for reason in DropReason::ALL {
            // Exhaustiveness: this match has no wildcard arm, so adding
            // a variant without extending `ALL` (checked below via the
            // count) or `as_str` fails to compile.
            let name = match reason {
                DropReason::NoRoute
                | DropReason::MissingTag
                | DropReason::PortDown
                | DropReason::ResidueOutOfRange
                | DropReason::CorruptedResidue
                | DropReason::AdversaryDrop
                | DropReason::TtlExpired
                | DropReason::QueueOverflow
                | DropReason::LinkFailure
                | DropReason::BadPort
                | DropReason::Misdelivery => reason.as_str(),
            };
            assert!(seen.insert(name), "duplicate as_str {name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{name} is not kebab-case"
            );
        }
        assert_eq!(seen.len(), DropReason::ALL.len());
        // ALL itself holds no duplicates.
        let distinct: std::collections::HashSet<_> = DropReason::ALL.into_iter().collect();
        assert_eq!(distinct.len(), DropReason::ALL.len());
    }
}
