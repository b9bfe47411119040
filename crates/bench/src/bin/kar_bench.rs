//! `kar-bench <experiment> [--flag value]…` — see [`kar_bench::cli`].
use std::process::ExitCode;

fn main() -> ExitCode {
    kar_bench::cli::main(&std::env::args().skip(1).collect::<Vec<_>>())
}
