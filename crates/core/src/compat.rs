//! Constructor-only shims for the three pre-planner controller names.
//!
//! `benchmark/` (frozen across gain-neutral PRs) still spells
//! `Controller`, `RecoveringController` and `HierController`; each is a
//! [`Planner`] with one parameter preset and nothing else. No code in
//! this workspace names them; they go with the next benchmark-touching
//! PR (ROADMAP item 2c).

use crate::cache::EncodingCache;
use crate::planner::{LinkView, Planner};
use crate::recovery::RecoveryConfig;
use kar_simnet::{EdgeLogic, Packet, RerouteDecision, SimTime};
use kar_topology::{LinkId, NodeId, Partition, PortIx, Topology};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

macro_rules! shim {
    ($name:ident($($arg:ident: $ty:ty),*) => $planner:expr) => {
        /// A [`Planner`] with one parameter preset (see the module docs).
        #[doc(hidden)]
        #[derive(Debug)]
        pub struct $name(Planner);

        impl $name {
            /// The preset planner.
            #[allow(clippy::new_without_default)]
            pub fn new($($arg: $ty),*) -> Self {
                $name($planner)
            }

            /// See [`Planner::with_encoding_cache`].
            pub fn with_encoding_cache(self, cache: Arc<EncodingCache>) -> Self {
                $name(self.0.with_encoding_cache(cache))
            }
        }

        impl Deref for $name {
            type Target = Planner;
            fn deref(&self) -> &Planner {
                &self.0
            }
        }

        impl DerefMut for $name {
            fn deref_mut(&mut self) -> &mut Planner {
                &mut self.0
            }
        }

        impl EdgeLogic for $name {
            fn ingress(&mut self, t: &Topology, edge: NodeId, pkt: &mut Packet) -> Option<PortIx> {
                self.0.ingress(t, edge, pkt)
            }
            fn reroute(&mut self, t: &Topology, edge: NodeId, pkt: &mut Packet) -> RerouteDecision {
                self.0.reroute(t, edge, pkt)
            }
            fn on_link_event(&mut self, t: &Topology, link: LinkId, up: bool, now: SimTime) {
                self.0.on_link_event(t, link, up, now)
            }
            fn core_ingress(&mut self, t: &Topology, n: NodeId, p: Option<PortIx>, pkt: &mut Packet) {
                self.0.core_ingress(t, n, p, pkt)
            }
        }
    };
}

shim!(Controller() => Planner::new());
shim!(RecoveringController(config: RecoveryConfig) =>
    Planner::new().with_view(LinkView::Notices(config)));
shim!(HierController(partition: Arc<Partition>) => Planner::new().with_partition(partition));
