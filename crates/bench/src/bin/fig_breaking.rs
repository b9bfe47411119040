//! Breaking-point sweep (`BENCH_breaking.json`): per
//! (pair, technique, protection) cell on topo15 and rnp28, the smallest
//! failure set that defeats the dataplane — symbolic search via
//! `min_failure_set`, witness replayed through the real forwarder, and
//! the table-based baselines measured under the identical failures.
//!
//! Flags (on top of the common set, of which `--out` defaults to
//! `BENCH_breaking.json` at the repository root):
//!
//! * `--max-k N` — largest failure-set size searched (default 3);
//! * `--topo NAME` — `topo15`, `rnp28` or `both` (default `both`);
//! * `--probes N` — probes per replay (default 20).
//!
//! The document contains no wall-clock fields: it is a pure function of
//! the configuration, byte-identical across runs, and is committed at
//! the repository root so changes to the resilience frontier show up in
//! review diffs.

use kar_bench::cli::CommonArgs;
use kar_bench::experiments::breaking;
use kar_bench::harness::Scenario;
use kar_topology::{rnp28, topo15};

fn main() {
    let common = CommonArgs::parse(11);
    let max_k: usize = common.flag("--max-k", 3);
    let probes: u64 = common.flag("--probes", 20);
    let (t15, rnp) = (topo15::build(), rnp28::build());
    let pairs: Vec<Scenario<'_>> = [
        ("topo15", &t15, "AS1", "AS3"),
        ("rnp28", &rnp, "E_BV", "E_SP"),
        ("rnp28", &rnp, "E_BH", "E_113"),
    ]
    .into_iter()
    .filter(|(name, ..)| common.wants_topo(name))
    .map(|(topo_name, topo, src, dst)| Scenario {
        topo_name,
        topo,
        src,
        dst,
    })
    .collect();
    let cells = breaking::run(&pairs, max_k, common.seed, probes, &common.sweep());
    print!("{}", breaking::render(&cells));
    let broken = cells.iter().filter(|c| c.breaking.is_some()).count();
    let unconfirmed: Vec<&breaking::BreakingCell> = cells
        .iter()
        .filter(|c| c.breaking.as_ref().is_some_and(|d| !d.replay.confirms))
        .collect();
    eprintln!(
        "fig_breaking: {} cells, {} with a breaking point <= k={}, {} unconfirmed replays",
        cells.len(),
        broken,
        max_k,
        unconfirmed.len()
    );
    common.write_document(
        "fig_breaking",
        Some("BENCH_breaking.json"),
        &breaking::to_json(&cells),
    );
    common.finish();
    if !unconfirmed.is_empty() {
        for c in &unconfirmed {
            let d = c.breaking.as_ref().unwrap();
            eprintln!(
                "UNCONFIRMED {}/{}→{}/{}/{}: witness {:?} predicted {} but no replay seed reproduced it",
                c.topo,
                c.src,
                c.dst,
                c.technique.label(),
                c.protection,
                d.links,
                d.outcome
            );
        }
        std::process::exit(1);
    }
}
