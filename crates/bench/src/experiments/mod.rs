//! One module per reproduced table/figure plus our extensions, and the
//! [`REGISTRY`] `kar-bench <experiment>` dispatches on.

use crate::cli::{flag, Experiment, Flag};

pub mod ablation;
pub mod adversary;
pub mod breaking;
pub mod cc_ablation;
pub mod demo;
pub mod detection;
pub mod dynamic;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod hier;
pub mod jitter;
pub mod multi_failure;
pub mod scalability;
pub mod table1;
pub mod table2;
pub mod verify_resilience;

/// Every entry `kar-bench` can run, in `kar-bench list` order: the
/// experiments, then `inspect`, which renders their `--metrics` dumps.
pub const REGISTRY: &[Experiment] = &[
    table1::EXPERIMENT,
    table2::EXPERIMENT,
    fig4::EXPERIMENT,
    fig5::EXPERIMENT,
    demo::FIG6,
    fig7::EXPERIMENT,
    fig8::EXPERIMENT,
    ablation::EXPERIMENT,
    detection::EXPERIMENT,
    jitter::EXPERIMENT,
    cc_ablation::EXPERIMENT,
    scalability::EXPERIMENT,
    verify_resilience::EXPERIMENT,
    multi_failure::EXPERIMENT,
    multi_failure::CORRELATED,
    dynamic::EXPERIMENT,
    breaking::EXPERIMENT,
    adversary::EXPERIMENT,
    hier::EXPERIMENT,
    crate::campaign::EXPERIMENT,
    demo::ROUTE,
    demo::RESIDUES,
    demo::PROBE,
    demo::DOT,
    crate::inspect::EXPERIMENT,
];

/// The repetition knobs of the TCP figures (5, 7, 8).
const TCP_FLAGS: &[Flag] = &[
    flag("--runs", "30", "repetitions per case"),
    flag("--seconds", "5", "simulated seconds per run"),
];
