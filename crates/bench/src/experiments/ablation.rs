//! Ablation studies beyond the paper's figures:
//!
//! 1. **Encoding size vs ID-assignment strategy** (paper §2.3 raises the
//!    bit-length concern; we quantify how much the allocator strategy
//!    matters as paths grow).
//! 2. **Protection bit budget vs failure coverage** on the 15-node
//!    network (the paper's partial-protection idea, swept continuously).

use crate::cli::{print, Experiment};
use kar::analysis::failure_coverage;
use kar::{protection, EncodedRoute, Protection, RouteSpec};
use kar_rns::IdStrategy;
use kar_topology::{gen, paths, topo15, LinkParams};

/// One row of the strategy ablation: bit length of an end-to-end route
/// on a line of `path_len` switches, per allocation strategy.
#[derive(Debug, Clone)]
pub struct StrategyRow {
    /// Number of core switches on the path.
    pub path_len: usize,
    /// Bits with consecutive small primes.
    pub smallest_primes: u32,
    /// Bits with smallest coprime integers (prime powers allowed).
    pub smallest_coprime: u32,
    /// Bits with primes from 100 up (a naive "roomy" assignment).
    pub primes_from_100: u32,
}

/// Sweeps line topologies of growing length.
pub fn strategy_sweep(lengths: &[usize]) -> Vec<StrategyRow> {
    lengths
        .iter()
        .map(|&n| {
            let bits = |strategy: IdStrategy| {
                let topo = gen::line(n, strategy, LinkParams::default());
                let path = paths::bfs_shortest_path(&topo, topo.expect("H0"), topo.expect("H1"))
                    .expect("line is connected");
                EncodedRoute::encode(&topo, &RouteSpec::unprotected(path))
                    .expect("line encodes")
                    .bit_length()
            };
            StrategyRow {
                path_len: n,
                smallest_primes: bits(IdStrategy::SmallestPrimes),
                smallest_coprime: bits(IdStrategy::SmallestCoprime),
                primes_from_100: bits(IdStrategy::PrimesFrom(100)),
            }
        })
        .collect()
}

/// One row of the budget ablation.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// Allowed route-ID bits.
    pub max_bits: u32,
    /// Bits actually used.
    pub used_bits: u32,
    /// Switches folded into the route ID.
    pub switches: usize,
    /// Guaranteed coverage fraction per failure location, in
    /// [`topo15::FAILURE_LOCATIONS`] order.
    pub coverage: [f64; 3],
}

/// Sweeps the protection budget on topo15's primary route.
pub fn budget_sweep(budgets: &[u32]) -> Vec<BudgetRow> {
    let topo = topo15::build();
    let primary = topo15::primary_route(&topo);
    let dst = topo.expect("AS3");
    budgets
        .iter()
        .map(|&max_bits| {
            let route = protection::encode_with_protection(
                &topo,
                primary.clone(),
                &Protection::AutoBudget { max_bits },
            )
            .expect("budgeted route encodes");
            let mut coverage = [0.0f64; 3];
            for (i, (a, b)) in topo15::FAILURE_LOCATIONS.iter().enumerate() {
                coverage[i] =
                    failure_coverage(&topo, &route, &primary, topo.expect_link(a, b), dst)
                        .fraction();
            }
            BudgetRow {
                max_bits,
                used_bits: route.bit_length(),
                switches: route.pairs.len(),
                coverage,
            }
        })
        .collect()
}

/// Renders both ablations.
pub fn render(strategy: &[StrategyRow], budget: &[BudgetRow]) -> String {
    let mut out = String::from(
        "Ablation 1 — route-ID bits vs path length per ID-assignment strategy\n\
         | Path length | SmallestPrimes | SmallestCoprime | PrimesFrom(100) |\n|---|---|---|---|\n",
    );
    for r in strategy {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            r.path_len, r.smallest_primes, r.smallest_coprime, r.primes_from_100
        ));
    }
    out.push_str(
        "\nAblation 2 — protection bit budget vs guaranteed coverage (topo15 primary route)\n\
         | Budget (bits) | Used | Switches | cov(SW10-SW7) | cov(SW7-SW13) | cov(SW13-SW29) |\n|---|---|---|---|---|---|\n",
    );
    for r in budget {
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.2} | {:.2} |\n",
            r.max_bits, r.used_bits, r.switches, r.coverage[0], r.coverage[1], r.coverage[2]
        ));
    }
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "ablation_ids",
    "Ablations: encoding size vs ID strategy; protection budget vs coverage",
    &[],
    |_| {
        let strategy = strategy_sweep(&[2, 4, 6, 8, 10, 12, 16, 20]);
        let budget = budget_sweep(&[15, 20, 24, 28, 34, 43, 64]);
        print(render(&strategy, &budget))
    },
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coprime_never_beats_primes_by_much_and_small_beats_roomy() {
        let rows = strategy_sweep(&[2, 4, 8, 12]);
        for r in &rows {
            // Small IDs always beat IDs ≥ 100.
            assert!(r.smallest_primes < r.primes_from_100, "{r:?}");
            assert!(r.smallest_coprime <= r.smallest_primes, "{r:?}");
        }
        // Bits grow with path length.
        assert!(rows
            .windows(2)
            .all(|w| w[1].smallest_primes > w[0].smallest_primes));
    }

    #[test]
    fn budget_sweep_reaches_full_coverage() {
        let rows = budget_sweep(&[15, 28, 43, 64]);
        assert_eq!(rows[0].switches, 4, "15 bits fits only the primary");
        let last = rows.last().unwrap();
        assert!(last.coverage.iter().all(|&c| (c - 1.0).abs() < 1e-9));
        for r in &rows {
            assert!(r.used_bits <= r.max_bits);
        }
    }

    #[test]
    fn render_shows_both_tables() {
        let text = render(&strategy_sweep(&[2, 4]), &budget_sweep(&[15, 64]));
        assert!(text.contains("Ablation 1"));
        assert!(text.contains("Ablation 2"));
    }
}
