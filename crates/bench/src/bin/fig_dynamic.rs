//! Dynamic fault processes (repair, flap, node crash) with the
//! failure-reactive controller loop: delivery, packets saved by
//! deflection, and per-flow recovery latency per technique.
//!
//! A sweep binary: `--jobs`, `--checkpoint` and `--out` (the JSON
//! document; nothing is written without it) work as on the others.
use kar_bench::cli::CommonArgs;
use kar_bench::experiments::dynamic;
use kar_bench::harness::env_knob;
use kar_simnet::SimTime;

fn main() {
    let common = CommonArgs::parse(11);
    let cfg = dynamic::DynamicConfig {
        probes: env_knob("KAR_PROBES", 100),
        notification: SimTime::from_micros(env_knob("KAR_NOTIFY_US", 1000)),
        seed: common.seed,
        ..dynamic::DynamicConfig::default()
    };
    let points = dynamic::run(cfg, &common.sweep());
    print!("{}", dynamic::render(&points));
    common.write_document("fig_dynamic", None, &dynamic::to_json(&points));
    common.finish();
}
