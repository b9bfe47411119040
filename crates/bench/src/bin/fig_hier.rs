//! Hierarchy sweep (`BENCH_hier.json`): flat vs two-level hierarchical
//! KAR vs the table baselines, 512→4096 switches — header bits,
//! forwarding state, delivery, stretch, and a flat-vs-hier verification
//! sample per cell. See `kar_bench::experiments::hier`.
//!
//! Flags (on top of the common set, of which `--out` defaults to
//! `BENCH_hier.json` at the repository root):
//!
//! * `--max-switches N` — largest cell to run (default 4096). Passing
//!   `N < 512` switches to the small grid `[32, 64, 128]` with 16-switch
//!   domains — a seconds-long sweep for the resume tests.
//!
//! Environment knobs: `KAR_HIER_PAIRS` (pairs per cell, default 24),
//! `KAR_HIER_PKTS` (packets per pair, default 8), `KAR_HIER_DOMAIN`
//! (target switches per domain, default 64). The document never
//! contains wall-clock fields — it is a pure function of the
//! configuration, byte-identical across runs and machines; at the
//! defaults it is the committed file, which CI regenerates and `cmp`s.

use kar_bench::cli::CommonArgs;
use kar_bench::experiments::hier::{self, HierConfig};
use kar_bench::harness::env_knob;
use std::process::ExitCode;

fn main() -> ExitCode {
    let common = CommonArgs::parse(1);
    let max_switches: usize = common.flag("--max-switches", 4096);
    let grid: &[usize] = if max_switches < 512 {
        &[32, 64, 128]
    } else {
        &[512, 1024, 2048, 4096]
    };
    let sizes: Vec<usize> = grid
        .iter()
        .copied()
        .filter(|&n| n <= max_switches)
        .collect();
    let domain_target = if max_switches < 512 {
        env_knob("KAR_HIER_DOMAIN", 16) as usize
    } else {
        env_knob("KAR_HIER_DOMAIN", 64) as usize
    };
    let cfg = HierConfig {
        seed: common.seed,
        sizes,
        domain_target,
        pairs: env_knob("KAR_HIER_PAIRS", 24) as usize,
        packets_per_pair: env_knob("KAR_HIER_PKTS", 8),
        ..HierConfig::default()
    };
    let records = hier::run(&cfg, &common.sweep());
    eprintln!("fig_hier: {} cells", records.len());
    print!("{}", hier::render_table(&records));
    let document = hier::to_json(&cfg, &records);
    common.write_document("fig_hier", Some("BENCH_hier.json"), &document);
    common.finish();
    // Acceptance gate: boundary re-encoding must not introduce loop or
    // blackhole classes flat KAR doesn't have (deployed posture).
    let bad = hier::cells_with_new_classes(&records);
    if bad.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fig_hier: new violation classes vs flat in {} cell(s): {} — failing",
            bad.len(),
            bad.join(", ")
        );
        ExitCode::FAILURE
    }
}
