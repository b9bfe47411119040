//! Scale sweep (`BENCH_scale.json`): topology families from 16 to 512
//! switches × protection levels, hundreds of concurrent flows per cell,
//! one mid-path link failure each — route-ID growth, delivery, latency
//! percentiles, event counts and sampled verification counts versus
//! network size. The document is a pure function of the flags and knobs
//! below, byte-identical across runs and machines; at the defaults it
//! is the committed file, which CI regenerates and `cmp`s.
//!
//! Flags (on top of the common set, of which `--out` defaults to
//! `BENCH_scale.json` at the repository root):
//!
//! * `--max-switches N` — largest cell to run (default 256; pass 512
//!   for the full sweep, 32 for a seconds-long run).
//!
//! Environment knobs: `KAR_SCALE_FLOWS` (flows per switch, default 2),
//! `KAR_SCALE_PKTS` (packets per flow, default 30).

use kar_bench::campaign::{self, CampaignConfig};
use kar_bench::cli::CommonArgs;
use kar_bench::harness::env_knob;

fn main() {
    let common = CommonArgs::parse(1);
    let max_switches: usize = common.flag("--max-switches", 256);
    let sizes: Vec<usize> = [16usize, 32, 64, 128, 256, 512]
        .into_iter()
        .filter(|&n| n <= max_switches)
        .collect();
    let cfg = CampaignConfig {
        seed: common.seed,
        sizes,
        flows_per_switch: env_knob("KAR_SCALE_FLOWS", 2) as usize,
        packets_per_flow: env_knob("KAR_SCALE_PKTS", 30),
        ..CampaignConfig::default()
    };
    let records = campaign::run_campaign(&cfg, &common.sweep());
    eprintln!("fig_scale: {} cells", records.len());
    print!("{}", campaign::render_table(&records));
    let key_growth = campaign::key_growth_study(&cfg.sizes);
    println!();
    println!("| Strategy | Requested | Achieved | Route-ID bits |");
    println!("|---|---|---|---|");
    for row in &key_growth {
        println!(
            "| {} | {} | {} | {} |",
            row.strategy, row.requested, row.achieved, row.bits
        );
    }
    let document = campaign::to_json(&cfg, &records, &key_growth);
    common.write_document("fig_scale", Some("BENCH_scale.json"), &document);
    common.finish();
}
