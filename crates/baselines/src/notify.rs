//! The controller-notification baseline: source routing whose only
//! failure reaction is telling the controller.
//!
//! This is the first high-level approach of the paper's introduction:
//! "sending a failure notification to the source node … until that
//! failure notification is received, packets that had already left the
//! source node are dropped." We model it as KAR's modulo dataplane with
//! *no* deflection, plus an edge that switches to a recomputed
//! (failure-avoiding) route ID only after the notification delay has
//! passed — everything sent before that dies at the failed link.

use kar::{EncodeRequest, EncodedRoute, KarError, LinkView, Planner};
use kar_simnet::{EdgeLogic, Packet, RouteTag, SimTime};
use kar_topology::{LinkId, NodeId, PortIx, Topology};
use std::collections::HashMap;

/// Edge logic that swaps route IDs at a planned switchover time.
#[derive(Debug, Default)]
pub struct NotifyRerouteEdge {
    before: HashMap<(NodeId, NodeId), EncodedRoute>,
    after: HashMap<(NodeId, NodeId), EncodedRoute>,
    /// When the recomputed routes take effect (failure time + detection +
    /// notification + controller processing + installation).
    switchover: SimTime,
}

impl NotifyRerouteEdge {
    /// Plans routes for the `(src, dst)` pairs: `before` uses the intact
    /// topology, `after` avoids `failed_link`, and `after` takes effect
    /// at `switchover`.
    ///
    /// # Errors
    ///
    /// Any planning/encoding failure from the KAR controller.
    pub fn plan(
        topo: &Topology,
        pairs: &[(NodeId, NodeId)],
        failed_link: LinkId,
        switchover: SimTime,
    ) -> Result<Self, KarError> {
        let mut before = HashMap::new();
        let mut after = HashMap::new();
        let mut intact = Planner::new();
        let mut avoiding = Planner::new().with_view(LinkView::Avoiding);
        avoiding.on_link_event(topo, failed_link, false, SimTime::ZERO);
        for &(src, dst) in pairs {
            let req = EncodeRequest::new(src, dst);
            let route = |planner: &mut Planner| planner.encode(topo, &req, SimTime::ZERO);
            before.insert((src, dst), route(&mut intact)?.route);
            after.insert((src, dst), route(&mut avoiding)?.route);
        }
        Ok(NotifyRerouteEdge {
            before,
            after,
            switchover,
        })
    }

    /// The moment recomputed routes take effect.
    pub fn switchover(&self) -> SimTime {
        self.switchover
    }
}

impl EdgeLogic for NotifyRerouteEdge {
    fn ingress(&mut self, _topo: &Topology, edge: NodeId, pkt: &mut Packet) -> Option<PortIx> {
        // `created` is stamped by the engine at injection time == now.
        let table = if pkt.created >= self.switchover {
            &self.after
        } else {
            &self.before
        };
        let route = table.get(&(edge, pkt.dst))?;
        pkt.route = Some(RouteTag::new(route.route_id.clone()));
        Some(route.uplink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_simnet::{FlowId, ModuloForwarder, PacketKind, Sim, SimConfig};
    use kar_topology::topo15;

    #[test]
    fn packets_die_until_switchover_then_flow() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let failed = topo.expect_link("SW7", "SW13");
        let switchover = SimTime::from_millis(100);
        let edge = NotifyRerouteEdge::plan(&topo, &[(as1, as3)], failed, switchover).unwrap();
        assert_eq!(edge.switchover(), switchover);
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloForwarder::new()),
            Box::new(edge),
            SimConfig::default(),
        );
        sim.schedule_link_down(SimTime::ZERO, failed);
        // 10 probes before the notification lands, 10 after.
        for i in 0..10 {
            sim.inject(as1, as3, FlowId(0), i, PacketKind::Probe, 500);
        }
        sim.run_until(switchover);
        for i in 10..20 {
            sim.inject(as1, as3, FlowId(0), i, PacketKind::Probe, 500);
        }
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 10, "{:?}", sim.stats());
        assert_eq!(sim.stats().dropped(), 10);
    }

    #[test]
    fn recomputed_route_avoids_the_failure() {
        let topo = topo15::build();
        let as1 = topo.expect("AS1");
        let as3 = topo.expect("AS3");
        let failed = topo.expect_link("SW10", "SW7");
        let edge = NotifyRerouteEdge::plan(
            &topo,
            &[(as1, as3)],
            failed,
            SimTime::ZERO, // switch over immediately
        )
        .unwrap();
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloForwarder::new()),
            Box::new(edge),
            SimConfig::default(),
        );
        sim.schedule_link_down(SimTime::ZERO, failed);
        sim.inject(as1, as3, FlowId(0), 0, PacketKind::Probe, 500);
        sim.run_to_quiescence();
        assert_eq!(sim.stats().delivered, 1);
    }
}
