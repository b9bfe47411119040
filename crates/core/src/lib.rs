//! # kar — Key-for-Any-Route: stateless resilient source routing
//!
//! Rust reproduction of **"KAR: Key-for-Any-Route, a Resilient Routing
//! System"** (Gomes, Liberato, Dominicini, Ribeiro, Martinello —
//! DSN-W 2016). KAR encodes a forwarding path into a single integer
//! *route ID* via the Residue Number System: every core switch holds a
//! coprime *switch ID* and forwards each packet out of port
//! `route_id mod switch_id` — no forwarding tables in the core. On a
//! link failure, switches *deflect* packets instead of dropping them,
//! and *driven deflection forwarding paths* folded into the same route
//! ID steer deflected packets back to their destination, loop-free.
//!
//! The crate provides:
//!
//! * [`RouteSpec`] / [`EncodedRoute`] — route planning and CRT encoding
//!   (paper §2.2, Eq. 1–9);
//! * [`DeflectionTechnique`] / [`KarForwarder`] — the HP, AVP and NIP
//!   deflection dataplanes (paper §2.1, Algorithm 1);
//! * [`Protection`] and the planners in [`protection`] — unprotected,
//!   explicit, full, and bit-budgeted driven-deflection trees;
//! * [`Planner`] — the controller: route selection, route-ID
//!   computation, the paper's wrong-edge re-encoding, and as its two
//!   orthogonal parameters per-domain segmentation ([`hier`]) and the
//!   link-state view ([`LinkView`]: static, avoiding, or the
//!   notice-driven loop of [`recovery`]);
//! * [`EncodingCache`] — a shared, thread-safe route-encoding memo for
//!   repeated-route workloads (experiment sweeps);
//! * [`wire`] — the canonical on-the-wire route-ID serialization
//!   ([`RouteHeader`], fixed-width and varint framings) shared by the
//!   simulator's packet path and the `kar-service` daemon;
//! * [`EncodeRequest`] / [`EncodeOutcome`] — the one public encode
//!   entry point (served by [`KarNetwork::encode`] and
//!   [`Planner::encode`]);
//! * [`KarNetwork`] — one-stop wiring into the `kar-simnet` simulator;
//! * [`analysis`] — static driven-walk and failure-coverage checks;
//! * [`recovery`] — configuration and log of the failure-*reactive*
//!   loop that re-encodes affected routes after detection +
//!   notification delays, with per-flow recovery-latency accounting;
//! * [`hier`] — per-domain segments, their size accounting and the
//!   partitioned instance of the verifier's move relation;
//! * [`verify`] — an exhaustive resilience verifier that classifies
//!   every trajectory of a route under a failure set (delivered /
//!   wrong-edge / ttl-exceeded / blackhole / loop, with witnesses).
//!
//! # Examples
//!
//! Encode the paper's worked example and protect it:
//!
//! ```
//! use kar::{DeflectionTechnique, EncodeRequest, KarNetwork, Protection};
//! use kar_simnet::{FlowId, PacketKind, SimTime};
//! use kar_topology::topo15;
//!
//! let topo = topo15::build();
//! let mut net = KarNetwork::new(&topo, DeflectionTechnique::Nip);
//! let (as1, as3) = (topo.expect("AS1"), topo.expect("AS3"));
//! let req = EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull);
//! let outcome = net.encode(&req)?;
//! assert!(outcome.route.bit_length() >= 15);
//! assert_eq!(outcome.header.unpack(), outcome.route.route_id);
//!
//! let mut sim = net.into_sim();
//! sim.schedule_link_down(SimTime::ZERO, topo.expect_link("SW7", "SW13"));
//! sim.inject(as1, as3, FlowId(0), 0, PacketKind::Probe, 1000);
//! sim.run_to_quiescence();
//! assert_eq!(sim.stats().delivered, 1); // deflected, then driven home
//! # Ok::<(), kar::KarError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod chain;
mod compat;
mod controller;
mod deflect;
mod error;
pub mod hier;
pub mod multipath;
mod network;
mod planner;
pub mod protection;
pub mod recovery;
mod route;
pub mod verify;
pub mod wire;

pub use cache::{CacheStats, EncodingCache};
pub use chain::chain_path;
pub use compat::{Controller, HierController, RecoveringController};
pub use controller::{EncodeOutcome, EncodeRequest, ReroutePolicy};
pub use deflect::{DeflectionTechnique, KarForwarder};
pub use error::KarError;
pub use hier::{split_segments, verify_hier_route, HierRoute, HierStats, Segment, Segmented};
pub use multipath::{edge_disjoint_paths, MultipathEdge};
pub use network::KarNetwork;
pub use planner::{LinkView, Planner};
pub use protection::Protection;
pub use recovery::{FlowRecovery, RecoveryConfig, RecoveryLog};
pub use route::{EncodedRoute, RouteSpec};
pub use verify::{
    min_failure_set, verify_failure_sets, verify_route, ActiveRoute, BreakingPoint,
    FailureSetResult, KSweep, Outcome, PairVerifier, SweepStats, VerifyReport, VerifySummary,
};
pub use wire::{RouteHeader, WireError, WireMode};

/// The working set for building and running a KAR simulation.
///
/// `use kar::prelude::*;` brings in the network builder, the paper's
/// deflection techniques and protection levels, and the simulator/
/// topology types every driver touches (`Sim`, `SimTime`, `FlowId`,
/// `Topology`, `NodeId`, …).
pub mod prelude {
    #[doc(hidden)]
    pub use crate::compat::Controller;
    pub use crate::network::KarNetworkBuilder;
    pub use crate::{
        DeflectionTechnique, EncodeOutcome, EncodeRequest, EncodedRoute, EncodingCache, KarError,
        KarForwarder, KarNetwork, LinkView, Planner, Protection, RecoveryConfig, RecoveryLog,
        ReroutePolicy, RouteHeader, RouteSpec, WireMode,
    };
    pub use kar_simnet::{FlowId, Packet, PacketKind, Sim, SimConfig, SimTime, Stats};
    pub use kar_topology::{NodeId, Topology};
}
