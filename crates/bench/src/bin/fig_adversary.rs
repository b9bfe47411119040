//! Adversarial & churn suite (`BENCH_adversary.json`): targeted and
//! random failure campaigns, Byzantine switches and rolling churn
//! against KAR's deflection techniques (at two protection levels) and
//! the table-based baselines, every scheme facing the identical attack
//! trace.
//!
//! Flags (on top of the common set, of which `--out` defaults to
//! `BENCH_adversary.json` at the repository root):
//!
//! * `--topo NAME` — `topo15`, `rnp28` or `both` (default `both`);
//! * `--probes N` — probes per flow (default 120);
//! * `--intensities LIST` — comma-separated attack intensities
//!   (default `1,2,4`).
//!
//! The document contains no wall-clock fields: it is a pure function of
//! the configuration, byte-identical across runs, and committed at the
//! repository root.
//!
//! Exits nonzero when the targeted campaign fails to degrade rnp28
//! reachability faster than the matched random campaign at the highest
//! intensity — the betweenness ranking's acceptance criterion.

use kar_bench::cli::{flag_value, CommonArgs};
use kar_bench::experiments::adversary::{self, AdversaryConfig};
use kar_topology::{rnp28, topo15};

fn main() {
    let common = CommonArgs::parse(23);
    let mut cfg = AdversaryConfig {
        seed: common.seed,
        ..AdversaryConfig::default()
    };
    cfg.probes = common.flag("--probes", cfg.probes);
    if let Some(list) = flag_value(&common.args, "--intensities") {
        let parsed: Vec<u32> = list
            .split(',')
            .filter_map(|v| v.trim().parse().ok())
            .collect();
        if !parsed.is_empty() {
            cfg.intensities = parsed;
        }
    }
    let (t15, rnp) = (topo15::build(), rnp28::build());
    let topos: Vec<(&str, &kar_topology::Topology)> = [("topo15", &t15), ("rnp28", &rnp)]
        .into_iter()
        .filter(|(name, _)| common.wants_topo(name))
        .collect();
    let points = adversary::run(&cfg, &topos, &common.sweep());
    let gaps = adversary::targeted_vs_random(&points);
    print!("{}", adversary::render(&points, &gaps));
    eprintln!(
        "fig_adversary: {} cells over {} intensities, {} gap rows",
        points.len(),
        cfg.intensities.len(),
        gaps.len()
    );
    common.write_document(
        "fig_adversary",
        Some("BENCH_adversary.json"),
        &adversary::to_json(&points, &gaps),
    );
    common.finish();
    // Acceptance gate: the betweenness-targeted campaign must beat its
    // matched random control on the backbone at the highest intensity.
    let top = cfg.intensities.iter().copied().max().unwrap_or(0);
    if let Some(g) = gaps
        .iter()
        .find(|g| g.topo == "rnp28" && g.intensity == top)
    {
        if g.gap <= 0.0 {
            eprintln!(
                "REGRESSION rnp28 n={}: targeted campaign ({:.3}) did not degrade \
                 reachability below the random control ({:.3})",
                g.intensity, g.targeted, g.random
            );
            std::process::exit(1);
        }
    }
}
