//! Delivery ratio under k simultaneous failures (Table 2's multi-failure claim).
//!
//! With `--correlated`, failures arrive as whole SRLG groups (every
//! core-core link of one switch at once) in a cumulative random order,
//! and the sweep reports which scheme black-holes first.
//!
//! A sweep binary: `--jobs`, `--checkpoint` and `--out` (the JSON
//! document; nothing is written without it) work as on the others.
use kar_bench::cli::CommonArgs;
use kar_bench::experiments::multi_failure as mf;
use kar_bench::harness::{env_knob, Scenario};
use kar_bench::record::Record;
use kar_bench::sweep;
use kar_topology::{rnp28, topo15};

fn main() {
    let common = CommonArgs::parse(1);
    let correlated = common.args.iter().any(|a| a == "--correlated");
    let trials = env_knob("KAR_RUNS", 20) as usize;
    let probes = env_knob("KAR_PROBES", 200);
    let (t15, rnp) = (topo15::build(), rnp28::build());
    let targets = [
        Scenario {
            topo_name: "topo15",
            topo: &t15,
            src: "AS1",
            dst: "AS3",
        },
        Scenario {
            topo_name: "rnp28",
            topo: &rnp,
            src: "E_BV",
            dst: "E_SP",
        },
    ];
    let opts = common.sweep();
    let document = if correlated {
        let groups = env_knob("KAR_GROUPS", 3) as usize;
        let outcomes = mf::run_correlated(&targets, groups, trials, probes, common.seed, &opts);
        for (target, group) in targets.iter().zip(outcomes.chunks(mf::Scheme::ALL.len())) {
            print!("{}", mf::render_correlated(&target.label(), group));
        }
        let records = outcomes.iter().map(Record::to_json);
        sweep::document("multi_failure_correlated", records, "")
    } else {
        let ks = [0usize, 1, 2, 3];
        let points = mf::run(&targets, &ks, trials, probes, common.seed, &opts);
        for (target, group) in targets
            .iter()
            .zip(points.chunks(ks.len() * mf::Scheme::ALL.len()))
        {
            print!("{}", mf::render(&target.label(), group));
        }
        sweep::document("multi_failure", points.iter().map(Record::to_json), "")
    };
    common.write_document("multi_failure", None, &document);
    common.finish();
}
