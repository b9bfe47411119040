//! # kar-service — KAR stood up as a control-plane service
//!
//! The paper's controller, behind a socket: a threaded TCP daemon that
//! answers `encode(src, dst, protection)`, `invalidate(link)` and
//! `stats()` over a length-prefixed binary protocol ([`proto`]),
//! backed by an [`kar::EncodingCache`] and one notice-driven
//! [`kar::Planner`] ([`kar::LinkView::Notices`]) behind one mutex. The
//! worker serving `invalidate` — the paper's failure notification —
//! applies it under that mutex before answering, so every later encode
//! sees it.
//!
//! The payload of an encode response is a [`kar::wire`]-serialized
//! [`kar::RouteHeader`]: byte-for-byte the same serialization the
//! simulator's packet path stamps onto packets. The loopback tests in
//! `tests/loopback.rs` prove it, one connection at a time and four at
//! once; how fast the daemon answers is measured by `kar-perf`'s
//! `svc-*` workloads (`BENCHMARK.json`).
//!
//! # Examples
//!
//! ```
//! use kar_service::{Daemon, ServiceClient, ServiceConfig};
//! use kar::{Protection, WireMode};
//! use kar_topology::topo15;
//!
//! let daemon = Daemon::spawn(ServiceConfig::new(topo15::build()))?;
//! let mut client = ServiceClient::connect(daemon.addr())?;
//! let topo = topo15::build();
//! let header = client.encode(
//!     topo.expect("AS1").0 as u32,
//!     topo.expect("AS3").0 as u32,
//!     &Protection::AutoFull,
//!     WireMode::Fixed,
//! ).expect("encode");
//! assert!(header.bits() >= 15);
//! drop(client);
//! daemon.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod daemon;
pub mod proto;

pub use client::{ClientError, ServiceClient};
pub use daemon::{expected_header, Daemon, ServiceConfig};
pub use proto::{Request, Response, ServiceStats, MAX_FRAME_LEN, PROTOCOL_VERSION};
