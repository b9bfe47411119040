//! Differential test for hierarchical KAR's degenerate case: with the
//! whole topology as ONE domain there are no boundary links, so no
//! ingress ever re-stamps and the hierarchical forwarder must walk
//! exactly the flat KAR path — hop for hop, for every edge pair of
//! both paper topologies. Any divergence means the hierarchy layer
//! changes forwarding even when it should be a no-op — with the static
//! view and, under a flap train, with the recovery loop too.

use kar::{DeflectionTechnique, EncodeRequest, KarNetwork, Protection, RecoveryConfig};
use kar_simnet::{FaultPlan, FlowId, PacketFate, PacketKind, SimTime};
use kar_topology::{rnp28, topo15, Partition, Topology};
use std::sync::Arc;

/// Every ordered edge pair of `topo`.
fn edge_pairs(topo: &Topology) -> Vec<(kar_topology::NodeId, kar_topology::NodeId)> {
    let edges = topo.edge_nodes();
    edges
        .iter()
        .flat_map(|&s| edges.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .collect()
}

/// Runs one probe per pair through `net` and returns each probe's
/// traced hop sequence, in injection order.
fn traced_paths(
    mut sim: kar_simnet::Sim,
    pairs: &[(kar_topology::NodeId, kar_topology::NodeId)],
) -> Vec<Vec<kar_topology::NodeId>> {
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        sim.inject(src, dst, FlowId(i as u32), 0, PacketKind::Probe, 500);
    }
    sim.run_to_quiescence();
    assert_eq!(
        sim.stats().delivered,
        pairs.len() as u64,
        "every probe delivers on the intact topology"
    );
    (0..pairs.len())
        .map(|i| {
            let trace = sim.trace().get(i as u64).expect("probe traced");
            assert!(matches!(trace.fate, PacketFate::Delivered));
            trace.path.clone()
        })
        .collect()
}

fn assert_single_domain_hier_equals_flat(topo: Topology) {
    let pairs = edge_pairs(&topo);

    let mut flat = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
        .seed(11)
        .tracing()
        .build();
    for &(src, dst) in &pairs {
        flat.encode(&EncodeRequest::new(src, dst))
            .expect("paper topologies are connected");
    }
    let flat_paths = traced_paths(flat.into_sim(), &pairs);

    let mut hier = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
        .seed(11)
        .tracing()
        .hierarchy(Arc::new(Partition::single(&topo)))
        .build();
    {
        let ctrl = hier.planner_mut();
        for &(src, dst) in &pairs {
            let route = ctrl
                .install(&topo, src, dst, &Protection::None)
                .expect("paper topologies are connected");
            assert_eq!(route.reencodes(), 0, "one domain has no boundaries");
        }
    }
    let stats = hier.hier_stats().expect("hierarchy enabled");
    let hier_paths = traced_paths(hier.into_sim(), &pairs);

    assert_eq!(
        stats
            .boundary_stamps
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "no boundary links, so no re-stamps"
    );
    for (i, (f, h)) in flat_paths.iter().zip(&hier_paths).enumerate() {
        let (src, dst) = pairs[i];
        assert_eq!(
            f, h,
            "hier and flat walked different paths for {src} -> {dst}"
        );
    }
}

#[test]
fn single_domain_hier_walks_flat_paths_on_topo15() {
    assert_single_domain_hier_equals_flat(topo15::build());
}

#[test]
fn single_domain_hier_walks_flat_paths_on_rnp28() {
    assert_single_domain_hier_equals_flat(rnp28::build());
}

/// Single-domain ≡ flat for the notice-driven view: the same flap
/// train, the same paced probes, with and without the one-domain
/// partition — equal `Stats`, equal traced paths, equal `RecoveryLog`.
#[test]
fn single_domain_recovery_equals_flat_recovery_under_a_flap_train() {
    let topo = topo15::build();
    let pairs = edge_pairs(&topo);
    let plan = FaultPlan::new(5)
        .with_detection(SimTime::from_micros(50))
        .fail_for(
            topo.expect_link("SW13", "SW29"),
            SimTime::from_micros(700),
            SimTime::from_micros(2_500),
        )
        .flap(
            topo.expect_link("SW7", "SW13"),
            SimTime::from_micros(300),
            SimTime::from_micros(1_200),
            0.5,
            4,
        );
    let run = |partition: Option<Arc<Partition>>| {
        let mut builder = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
            .seed(11)
            .ttl(255)
            .tracing()
            .recovery(RecoveryConfig {
                notification_delay: SimTime::from_micros(200),
                protection: Protection::None,
            });
        if let Some(partition) = partition {
            builder = builder.hierarchy(partition);
        }
        let mut net = builder.build();
        for &(src, dst) in &pairs {
            net.encode(&EncodeRequest::new(src, dst).with_protection(Protection::AutoFull))
                .expect("topo15 is connected");
        }
        let log = net.recovery_log().expect("recovery enabled");
        let mut sim = net.into_sim();
        plan.apply(&mut sim);
        for round in 0..30u64 {
            sim.run_until(SimTime::from_micros(round * 200));
            for (i, &(src, dst)) in pairs.iter().enumerate() {
                sim.inject(src, dst, FlowId(i as u32), round, PacketKind::Probe, 500);
            }
        }
        sim.run_to_quiescence();
        let paths: Vec<_> = (0..sim.stats().injected)
            .map(|id| {
                sim.trace()
                    .get(id)
                    .expect("every probe is traced")
                    .path
                    .clone()
            })
            .collect();
        let log = log.lock().unwrap().clone();
        (sim.stats().clone(), paths, log.notices, log.flows)
    };
    let flat = run(None);
    let single = run(Some(Arc::new(Partition::single(&topo))));
    assert!(
        flat.0.deflections > 0 && flat.3.len() > 1,
        "the train bites"
    );
    assert!(
        flat.2.len() >= 8,
        "every transition is noticed: {:?}",
        flat.2
    );
    assert_eq!(flat.0, single.0, "stats");
    assert!(flat.1 == single.1, "traced paths differ");
    assert_eq!(flat.2, single.2, "link notices");
    assert_eq!(flat.3, single.3, "flow recoveries");
}
