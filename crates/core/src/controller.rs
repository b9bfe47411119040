//! The controller's request/response vocabulary.
//!
//! The paper's controller "knows the entire network topology, including
//! the Switch IDs … when a route is selected, it computes a Route ID"
//! (§2), and re-encodes at a wrong edge (§2.1). The controller itself is
//! [`crate::Planner`]; this module holds what callers hand it and get
//! back: one [`EncodeRequest`] in, one [`EncodeOutcome`] out, and the
//! [`ReroutePolicy`] an edge applies to a packet that surfaced at the
//! wrong place.

use crate::protection::Protection;
use crate::route::EncodedRoute;
use crate::wire::RouteHeader;
use kar_simnet::SimTime;
use kar_topology::NodeId;

/// One route-encode request: the single public encode entry point,
/// shared by [`crate::KarNetwork`], [`crate::Planner`], the campaign
/// engine and the `kar-service` daemon.
///
/// # Examples
///
/// ```
/// use kar::{EncodeRequest, Protection};
/// use kar_topology::topo15;
///
/// let topo = topo15::build();
/// let req = EncodeRequest::new(topo.expect("AS1"), topo.expect("AS3"))
///     .with_protection(Protection::AutoFull);
/// assert_eq!(req.protection, Protection::AutoFull);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeRequest {
    /// Ingress edge.
    pub src: NodeId,
    /// Egress edge.
    pub dst: NodeId,
    /// Protection level folded into the route ID.
    pub protection: Protection,
}

impl EncodeRequest {
    /// An unprotected encode request for `src → dst`.
    pub fn new(src: NodeId, dst: NodeId) -> EncodeRequest {
        EncodeRequest {
            src,
            dst,
            protection: Protection::None,
        }
    }

    /// Sets the protection level.
    pub fn with_protection(mut self, protection: Protection) -> EncodeRequest {
        self.protection = protection;
        self
    }
}

/// Everything one successful encode produced: the installed route and
/// the canonical wire header carrying its route ID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeOutcome {
    /// The CRT-encoded route (route ID, basis, port map, uplink).
    pub route: EncodedRoute,
    /// The §2.3 fixed-width header for the route ID — the exact bytes
    /// the dataplane carries (see [`crate::wire`]).
    pub header: RouteHeader,
}

/// What an edge does with a packet that surfaced at the wrong edge
/// (paper §2.1, final design remark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReroutePolicy {
    /// Consult the controller: rewrite the route ID with a fresh path
    /// from this edge to the destination, paying a control-plane
    /// round-trip latency (the paper's second approach — used in all its
    /// tests).
    Recompute {
        /// Controller consultation latency.
        latency: SimTime,
    },
    /// Return the packet to the network unchanged (the paper's first
    /// approach).
    Bounce,
    /// Drop misdelivered packets.
    Drop,
}

impl Default for ReroutePolicy {
    fn default() -> Self {
        ReroutePolicy::Recompute {
            latency: SimTime::from_millis(2),
        }
    }
}
