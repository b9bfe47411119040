//! Flight-recorder integration test on the pinned AVP rnp28 loop.
//!
//! `BENCH_breaking.json` pins this breaking point: on the RNP backbone,
//! the `E_BH → E_113` route under AVP deflection breaks at k=1 — fail
//! `SW107-SW113` and every probe random-walks into a TTL-bounded loop
//! (seed 11, 20 injected, 20 TTL drops). That makes it the canonical
//! smoke case for the anomaly-triggered flight recorder: each TTL drop
//! must freeze a "loop" capture, and `kar-bench inspect --view
//! forensics` must render the full causal chain from the fault to the
//! dropped packet.

use kar::{DeflectionTechnique, Protection};
use kar_bench::harness::{ProbeRun, ProbeScheme};
use kar_bench::obs::RunObs;
use kar_obs::{Obs, ObsHandle, RunDump, TopoLabeler};
use kar_topology::rnp28;
use std::sync::Arc;

#[test]
fn avp_rnp28_loop_freezes_forensic_captures_with_the_causal_chain() {
    let topo = rnp28::build();
    let src = topo.expect("E_BH");
    let dst = topo.expect("E_113");
    let link = topo.expect_link("SW107", "SW113");

    // Observability attached directly (no process-global sink — this
    // test binary runs in parallel with others).
    let bundle = Arc::new(Obs::new());
    let obs = RunObs {
        handle: ObsHandle::from_obs(bundle.clone()),
        profiler: None,
    };

    // The breaking-point replay, exactly as `fig_breaking` runs it.
    let scheme = ProbeScheme::Kar {
        technique: DeflectionTechnique::Avp,
        protection: Protection::None,
        recovery: None,
    };
    let flows = [(src, dst)];
    let run = ProbeRun {
        probes: 20,
        seed: 11,
        down: &[link],
        ..ProbeRun::new(&topo, scheme, &flows)
    };
    let stats = run.run(&obs).stats;

    // The pinned outcome: probes loop until TTL exhaustion.
    let ttl_drops = stats.dropped_for(kar_simnet::DropReason::TtlExpired);
    assert!(
        ttl_drops > 0,
        "pinned breaking point no longer reproduces a loop (ttl_drops=0)"
    );

    // Every TTL drop tripped the flight recorder with trigger "loop",
    // bounded by the per-trigger cap; overflow is counted, not lost.
    let captures = bundle.forensics.captures();
    assert!(!captures.is_empty(), "no forensic captures were frozen");
    assert!(
        captures.iter().all(|c| c.trigger == "loop"),
        "unexpected triggers: {:?}",
        captures.iter().map(|c| c.trigger).collect::<Vec<_>>()
    );
    assert!(
        captures.len() as u64 + bundle.forensics.suppressed() >= ttl_drops.min(2),
        "captures + suppressed must account for the drops"
    );
    for c in &captures {
        assert!(c.pkt.is_some(), "loop captures name the dropped packet");
        assert!(!c.recent.is_empty(), "capture froze no recent events");
        assert!(!c.chain.is_empty(), "capture has no causal chain");
    }

    // Round-trip through the dump (what `--metrics` writes) and render
    // the same view `kar-bench inspect --view forensics` prints.
    let labeler = TopoLabeler::new(&topo);
    let dump = RunDump::collect_obs("breaking/rnp28/E_BH-E_113/AVP", &bundle, &[], &labeler);
    let text = kar_obs::forensics::render_forensics(&dump);
    assert!(text.contains("FORENSICS —"), "missing header: {text}");
    assert!(text.contains("trigger=loop"), "missing trigger: {text}");
    assert!(text.contains("causal chain"), "missing chain: {text}");
    assert!(
        text.contains("SW107-SW113"),
        "chain must name the failed link: {text}"
    );
    assert!(
        text.contains("drop"),
        "chain must end at the packet's drop: {text}"
    );
}
