//! Jitter under deflection — the "disordering and jitter" goal of §3
//! measured directly with CBR traffic (no TCP dynamics in the way).
//!
//! For each deflection technique, a ~53 Mbit/s CBR flow crosses topo15
//! with full protection while SW10-SW7 is down; the sink reports
//! one-way delay, RFC 3550 jitter, reordering and loss.

use crate::cli::{flag, print, Experiment};
use kar::{DeflectionTechnique, EncodeRequest, KarNetwork, Protection};
use kar_simnet::{FlowId, SimTime};
use kar_tcp::{CbrSender, CbrSink, JitterStats};
use kar_topology::topo15;

/// One measured row.
#[derive(Debug, Clone, Copy)]
pub struct JitterRow {
    /// Deflection technique.
    pub technique: DeflectionTechnique,
    /// Sink statistics.
    pub stats: JitterStats,
    /// Datagrams sent.
    pub sent: u64,
}

/// Runs the sweep: `packets` datagrams at 150 µs spacing per technique
/// (tight enough that the one-hop difference between protected branches
/// interleaves consecutive datagrams).
pub fn run(packets: u64, seed: u64) -> Vec<JitterRow> {
    let topo = topo15::build();
    let as1 = topo.expect("AS1");
    let as3 = topo.expect("AS3");
    DeflectionTechnique::ALL
        .iter()
        .map(|&technique| {
            let mut net = KarNetwork::builder(&topo, technique)
                .seed(seed)
                .ttl(255)
                .build();
            net.encode(&EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull))
                .expect("route installs");
            let mut sim = net.into_sim();
            sim.schedule_link_down(SimTime::ZERO, topo.expect_link("SW10", "SW7"));
            let tx =
                CbrSender::new(as3, FlowId(1), SimTime::from_micros(150), 1000).with_limit(packets);
            sim.add_app(as1, Box::new(tx));
            let (rx, stats) = CbrSink::new(FlowId(1));
            sim.add_app(as3, Box::new(rx));
            sim.run_to_quiescence();
            let stats = *stats.borrow();
            JitterRow {
                technique,
                stats,
                sent: packets,
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(rows: &[JitterRow]) -> String {
    let mut out = String::from(
        "CBR jitter under a SW10-SW7 failure (full protection, ~53 Mbit/s offered)\n\
         | Technique | Delivered | Reordered | Mean delay (ms) | Jitter (ms) | Loss |\n|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {}/{} | {} | {:.3} | {:.3} | {:.1}% |\n",
            r.technique,
            r.stats.received,
            r.sent,
            r.stats.reordered,
            r.stats.mean_delay_s * 1e3,
            r.stats.jitter_s * 1e3,
            r.stats.loss_ratio(r.sent) * 100.0
        ));
    }
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "jitter",
    "CBR delay/jitter under deflection (the §3 disordering-and-jitter goal)",
    &[flag("--probes", "2000", "datagrams per technique")],
    |args| print(render(&run(args.get("--probes"), args.seed()))),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_keeps_cbr_lossless_and_deflection_adds_jitter() {
        let rows = run(400, 9);
        let get = |t: DeflectionTechnique| rows.iter().find(|r| r.technique == t).unwrap();
        let none = get(DeflectionTechnique::None);
        let nip = get(DeflectionTechnique::Nip);
        // Without deflection everything dies at SW10.
        assert_eq!(none.stats.received, 0);
        // NIP + full protection: lossless, but jittery (1/3 vs 2/3 paths).
        assert_eq!(nip.stats.received, 400);
        assert!(nip.stats.jitter_s > 0.0);
        assert!(nip.stats.reordered > 0, "split paths reorder CBR too");
    }

    #[test]
    fn render_has_all_techniques() {
        let text = render(&run(50, 1));
        for t in ["NoDeflection", "HP", "AVP", "NIP"] {
            assert!(text.contains(t));
        }
    }
}
