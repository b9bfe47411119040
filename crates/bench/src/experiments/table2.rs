//! Table 2: the feature matrix, with the implemented rows verified
//! experimentally (see `kar-baselines`).

use crate::cli::{print, Experiment};
use kar_baselines::{check_fast_failover_state, check_kar_row, render_table2};
use kar_topology::topo15;

/// Renders the paper's table plus the experimental evidence block.
pub fn run_and_render(seed: u64) -> String {
    let mut out = String::from("TABLE 2. Feature comparison (as in the paper)\n\n");
    out.push_str(&render_table2());
    let (kar_state, delivered, injected) = check_kar_row(seed);
    let topo = topo15::build();
    let ff_state = check_fast_failover_state(&topo);
    out.push_str(&format!(
        "\nExperimental evidence (15-node network):\n\
         - KAR core state entries: {kar_state} (stateless ✓)\n\
         - KAR delivery under TWO simultaneous failures: {delivered}/{injected} (multi-failure ✓)\n\
         - FastFailover core state entries: {ff_state} (stateful, grows with destinations)\n"
    ));
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "table2",
    "Table 2: feature matrix with experimental evidence",
    &[],
    |args| print(run_and_render(args.seed())),
);

#[cfg(test)]
mod tests {
    #[test]
    fn evidence_block_renders() {
        let text = super::run_and_render(5);
        assert!(text.contains("stateless ✓"));
        assert!(text.contains("| KAR | Yes | Yes | Stateless |"));
    }
}
