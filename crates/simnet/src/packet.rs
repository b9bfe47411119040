//! Packets and the KAR route tag they carry through the core.

use crate::time::SimTime;
use kar_rns::BigUint;
use kar_topology::NodeId;
use std::fmt;
use std::sync::Arc;

/// Identifier of one transport flow (e.g. one iperf TCP connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId(pub u32);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Transport-level payload classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A data segment carrying `seq .. seq + payload`.
    Data,
    /// A cumulative acknowledgment: everything below `ack` was received.
    Ack {
        /// The next byte the receiver expects.
        ack: u64,
        /// The receiver's observed reordering displacement, in segments —
        /// the simulator's stand-in for Linux's SACK-based adaptive
        /// `tcp_reordering` metric (senders raise their duplicate-ACK
        /// threshold accordingly).
        reorder: u16,
        /// Set when this ACK was triggered by a duplicate segment — the
        /// stand-in for a DSACK block, letting senders undo spurious
        /// congestion-window reductions as Linux does.
        dsack: bool,
    },
    /// A probe used by tests and delivery-ratio experiments.
    Probe,
}

/// The KAR header attached by the ingress edge: the RNS route ID plus the
/// deflection state a core switch needs.
///
/// The route ID is shared (`Arc`): cloning a packet — retransmit
/// buffers, fan-out, queue snapshots — bumps a reference count instead
/// of copying limbs.
#[derive(Debug, Clone)]
pub struct RouteTag {
    /// The CRT-encoded route ID (paper Eq. 4). Replace the whole tag
    /// (e.g. [`RouteTag::new`]) rather than assigning this field in
    /// place, or a memoized residue from the old ID could survive.
    pub route_id: Arc<BigUint>,
    /// Set once the packet has been deflected at least once (used by the
    /// hot-potato technique, which random-walks after the first
    /// deflection).
    pub deflected: bool,
    /// Set once a Byzantine switch rewrote `route_id` in flight (via
    /// [`RouteTag::tamper`]). Lets the engine classify a later
    /// out-of-range residue as corruption rather than a routing mistake.
    pub tampered: bool,
    /// `(switch_id, residue)` of the most recent reduction — a pure
    /// cache, excluded from equality/hashing. Deflection loops and
    /// controller bounces revisit switches; the memo makes the repeat
    /// hop free.
    memo: Option<(u64, u64)>,
}

impl PartialEq for RouteTag {
    fn eq(&self, other: &Self) -> bool {
        self.route_id == other.route_id
            && self.deflected == other.deflected
            && self.tampered == other.tampered
    }
}
impl Eq for RouteTag {}
impl std::hash::Hash for RouteTag {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.route_id.hash(state);
        self.deflected.hash(state);
        self.tampered.hash(state);
    }
}

impl RouteTag {
    /// Wraps a route ID with clean deflection state. Accepts an owned
    /// [`BigUint`] or a shared `Arc<BigUint>`.
    pub fn new(route_id: impl Into<Arc<BigUint>>) -> Self {
        RouteTag {
            route_id: route_id.into(),
            deflected: false,
            tampered: false,
            memo: None,
        }
    }

    /// Replaces the route ID with an attacker-chosen value, marking the
    /// tag tampered. Clears the residue memo — a memoized residue of the
    /// old ID must not survive the rewrite — while preserving the
    /// deflection bit (the attacker only touches the ID field).
    pub fn tamper(&mut self, new_id: impl Into<Arc<BigUint>>) {
        self.route_id = new_id.into();
        self.tampered = true;
        self.memo = None;
    }

    /// The memoized residue for `switch_id`, if this tag was already
    /// reduced there.
    pub fn memoized_residue(&self, switch_id: u64) -> Option<u64> {
        match self.memo {
            Some((s, r)) if s == switch_id => Some(r),
            _ => None,
        }
    }

    /// Records `route_id mod switch_id = residue` for the next visit.
    pub fn memoize_residue(&mut self, switch_id: u64, residue: u64) {
        self.memo = Some((switch_id, residue));
    }
}

/// A simulated packet.
///
/// `size_bytes` is the on-wire size (headers included) used for
/// serialization delay; `seq`/`kind` carry transport semantics.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique per-simulation id (assigned by the engine).
    pub id: u64,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Transport sequence number (byte offset for data segments).
    pub seq: u64,
    /// Data / ACK / probe.
    pub kind: PacketKind,
    /// On-wire size in bytes.
    pub size_bytes: u32,
    /// Originating edge node.
    pub src: NodeId,
    /// Destination edge node.
    pub dst: NodeId,
    /// KAR route tag (attached at ingress, stripped at egress).
    pub route: Option<RouteTag>,
    /// Remaining hop budget; the engine drops the packet at zero.
    pub ttl: u16,
    /// Hops traversed so far.
    pub hops: u16,
    /// Number of deflections experienced.
    pub deflections: u16,
    /// Creation time (for latency accounting).
    pub created: SimTime,
}

impl Packet {
    /// Decrements the TTL, returning `false` when expired.
    pub fn tick_ttl(&mut self) -> bool {
        if self.ttl == 0 {
            return false;
        }
        self.ttl -= 1;
        self.hops += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(ttl: u16) -> Packet {
        Packet {
            id: 1,
            flow: FlowId(0),
            seq: 0,
            kind: PacketKind::Probe,
            size_bytes: 100,
            src: NodeId(0),
            dst: NodeId(1),
            route: None,
            ttl,
            hops: 0,
            deflections: 0,
            created: SimTime::ZERO,
        }
    }

    #[test]
    fn ttl_counts_down_and_expires() {
        let mut p = pkt(2);
        assert!(p.tick_ttl());
        assert!(p.tick_ttl());
        assert!(!p.tick_ttl());
        assert_eq!(p.hops, 2);
    }

    #[test]
    fn route_tag_starts_undeflected() {
        let tag = RouteTag::new(BigUint::from(44u64));
        assert!(!tag.deflected);
        assert!(!tag.tampered);
        assert_eq!(tag.route_id.to_u64(), Some(44));
        assert_eq!(tag.memoized_residue(7), None);
    }

    #[test]
    fn tamper_replaces_id_clears_memo_and_marks_tag() {
        let mut tag = RouteTag::new(BigUint::from(44u64));
        tag.deflected = true;
        tag.memoize_residue(7, 2);
        tag.tamper(BigUint::from(99u64));
        assert!(tag.tampered);
        assert!(tag.deflected, "tamper must not touch the deflection bit");
        assert_eq!(tag.route_id.to_u64(), Some(99));
        // A stale residue of the old ID must not survive.
        assert_eq!(tag.memoized_residue(7), None);
        // Tampered tags are distinguishable from clean ones with the
        // same ID.
        assert_ne!(tag, {
            let mut clean = RouteTag::new(BigUint::from(99u64));
            clean.deflected = true;
            clean
        });
    }

    #[test]
    fn residue_memo_is_per_switch_and_ignored_by_eq() {
        let mut tag = RouteTag::new(BigUint::from(44u64));
        tag.memoize_residue(7, 2);
        assert_eq!(tag.memoized_residue(7), Some(2));
        assert_eq!(tag.memoized_residue(11), None);
        // The memo is a cache: it must not distinguish tags.
        assert_eq!(tag, RouteTag::new(BigUint::from(44u64)));
        // Clones carry the memo along.
        assert_eq!(tag.clone().memoized_residue(7), Some(2));
    }
}
