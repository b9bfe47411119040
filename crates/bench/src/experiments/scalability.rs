//! Scalability of the route encoding: header cost as the network and
//! path grow, across three stateless-vs-stateful points in the design
//! space (encode *time* is a wall-clock quantity and lives in the
//! `kar-perf` ledger as `rns.crt.encode_us.len{8,21,128}`):
//!
//! * **KAR** — one integer, `⌈log₂(M−1)⌉` bits (Eq. 9);
//! * **Slick-Packets-style** — 6 explicit bytes per hop;
//! * **Fast failover** — zero header but `O(destinations)` entries in
//!   every switch.

use crate::cli::{print, Experiment};
use kar::{EncodedRoute, RouteSpec};
use kar_baselines::{FastFailover, SlickEdge};
use kar_rns::IdStrategy;
use kar_topology::{gen, paths, LinkParams, Topology};

/// One measured network size.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Short description of the network.
    pub network: String,
    /// Core switches.
    pub switches: usize,
    /// Hops of the measured route.
    pub hops: usize,
    /// KAR route-ID size in bytes (unprotected).
    pub kar_bytes: usize,
    /// Slick header size in bytes for the same path.
    pub slick_bytes: usize,
    /// Total fast-failover entries for one destination.
    pub ff_entries: usize,
}

fn measure(name: &str, topo: &Topology) -> ScalePoint {
    let edges = topo.edge_nodes();
    let (src, dst) = (edges[0], *edges.last().expect("has edges"));
    let path = paths::bfs_shortest_path(topo, src, dst).expect("connected");
    let route = EncodedRoute::encode(topo, &RouteSpec::unprotected(path.clone())).expect("encodes");
    let mut slick = SlickEdge::new();
    let header = slick.install(topo, src, dst).expect("slick plans");
    let ff = FastFailover::precompute(topo, &[dst]);
    ScalePoint {
        network: name.to_string(),
        switches: topo.core_nodes().len(),
        hops: path.len() - 1,
        kar_bytes: route.bit_length().div_ceil(8) as usize,
        slick_bytes: header.wire_bytes(),
        ff_entries: ff.total_entries(),
    }
}

/// Runs the sweep over fat-trees and random graphs.
pub fn run() -> Vec<ScalePoint> {
    let mut out = Vec::new();
    for k in [4usize, 6, 8] {
        let topo = gen::fat_tree(k, IdStrategy::SmallestPrimes, LinkParams::default());
        out.push(measure(&format!("fat-tree k={k}"), &topo));
    }
    for n in [25usize, 50, 100, 200] {
        let topo = gen::random_connected(
            n,
            n / 2,
            7,
            IdStrategy::SmallestPrimes,
            LinkParams::default(),
        );
        out.push(measure(&format!("random n={n}"), &topo));
    }
    out
}

/// Renders the sweep.
pub fn render(points: &[ScalePoint]) -> String {
    let mut out = String::from(
        "Encoding scalability — KAR (one integer) vs Slick (per-hop bytes) vs fast-failover state\n\
         | Network | Switches | Hops | KAR hdr (B) | Slick hdr (B) | FF entries/dst |\n|---|---|---|---|---|---|\n",
    );
    for p in points {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            p.network, p.switches, p.hops, p.kar_bytes, p.slick_bytes, p.ff_entries
        ));
    }
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "scalability",
    "Header bytes vs network size: KAR vs Slick headers vs fast-failover state",
    &[],
    |_| print(render(&run())),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_consistent_points() {
        let points = run();
        assert_eq!(points.len(), 7);
        for p in &points {
            assert!(p.hops >= 2, "{p:?}");
            assert!(p.kar_bytes >= 1);
            // One entry per forwarding core switch = hops minus the
            // host ingress hop.
            assert_eq!(p.slick_bytes, 1 + 6 * (p.hops - 1), "{p:?}");
            assert_eq!(p.ff_entries, p.switches);
        }
        // KAR's header stays small while fast-failover state grows with
        // the network.
        let big = points.iter().find(|p| p.network == "random n=200").unwrap();
        assert!(big.kar_bytes < 32, "{big:?}");
        assert_eq!(big.ff_entries, 200);
    }

    #[test]
    fn render_has_all_networks() {
        let text = render(&run());
        assert!(text.contains("fat-tree k=8"));
        assert!(text.contains("random n=200"));
    }
}
