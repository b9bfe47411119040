//! # kar-simnet — deterministic discrete-event network simulator
//!
//! The KAR paper evaluates its routing system in Mininet with a modified
//! OpenFlow 1.3 user-space switch. This crate is the corresponding
//! substrate for the Rust reproduction: a packet-level discrete-event
//! simulator with
//!
//! * store-and-forward links (rate, propagation delay, drop-tail queues),
//! * scheduled link failures *and repairs* observed as port status after
//!   a (possibly jittered) detection delay, with declarative dynamic
//!   fault processes — flap trains, SRLG groups, node crashes, targeted
//!   campaigns and rolling churn — via [`FaultPlan`],
//! * per-switch Byzantine [`Behavior`]s (misforwarding, residue
//!   corruption, silent drops) enforced by the engine around any
//!   dataplane, with all-honest runs byte-identical to a build without
//!   the adversary model,
//! * a pluggable core dataplane ([`Forwarder`] — implemented by KAR's
//!   modulo forwarding + deflection, and by baselines),
//! * pluggable edge logic ([`EdgeLogic`] — route-ID attachment/stripping
//!   and the paper's controller-assisted re-encoding at wrong edges),
//! * transport applications ([`App`] — e.g. the TCP model in `kar-tcp`),
//! * full accounting ([`Stats`]) with a conservation invariant
//!   (`injected == delivered + dropped + in_flight`),
//! * bit-identical reproducibility per RNG seed.
//!
//! The simulator is deliberately simple where the paper's metrics do not
//! need more: packets in propagation survive link failure (only queued
//! and serializing packets are lost), and switch forwarding takes zero
//! processing time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
pub mod calendar;
mod faults;
mod forwarder;
mod host;
mod modulo;
mod packet;
mod sim;
mod static_routes;
mod stats;
mod time;
mod trace;

pub use adversary::Behavior;
pub use calendar::{CalendarEntry, CalendarQueue};
pub use faults::{sample_srlg_links, srlg_groups, FaultEvent, FaultPlan};
pub use forwarder::{DropReason, ForwardDecision, Forwarder, SwitchCtx};
pub use host::{App, AppAction, EdgeLogic, HostCtx, RerouteDecision};
pub use modulo::ModuloForwarder;
pub use packet::{FlowId, Packet, PacketKind, RouteTag};
pub use sim::{Sim, SimConfig};
pub use static_routes::StaticRoutes;
pub use stats::{FlowStats, Stats};
pub use time::{tx_time, SimTime};
pub use trace::{PacketFate, PacketTrace, TraceLog};
