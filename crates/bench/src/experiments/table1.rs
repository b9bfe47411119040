//! Table 1: maximum route-ID bit length per protection mechanism on the
//! 15-node network.

use crate::cli::{print, Experiment};
use kar::{EncodedRoute, RouteSpec};
use kar_topology::topo15;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Protection mechanism name.
    pub mechanism: &'static str,
    /// `⌈log₂(M−1)⌉` of the encoded route (Eq. 9).
    pub bit_length: u32,
    /// Switches folded into the route ID.
    pub switches: usize,
    /// The paper's reported value, for the comparison column.
    pub paper_bits: u32,
    /// The paper's reported switch count.
    pub paper_switches: usize,
}

/// Computes the three rows from the reconstructed topology.
pub fn compute() -> Vec<Table1Row> {
    let topo = topo15::build();
    let primary = topo15::primary_route(&topo);
    let partial = topo15::protection_pairs(&topo, &topo15::PARTIAL_PROTECTION);
    let mut full = partial.clone();
    full.extend(topo15::protection_pairs(
        &topo,
        &topo15::FULL_EXTRA_PROTECTION,
    ));

    let encode = |prot: Vec<_>| {
        EncodedRoute::encode(&topo, &RouteSpec::protected(primary.clone(), prot))
            .expect("topo15 scenario encodes")
    };
    let unprot = encode(Vec::new());
    let part = encode(partial);
    let full = encode(full);
    vec![
        Table1Row {
            mechanism: "Unprotected",
            bit_length: unprot.bit_length(),
            switches: unprot.pairs.len(),
            paper_bits: 15,
            paper_switches: 4,
        },
        Table1Row {
            mechanism: "Partial protection",
            bit_length: part.bit_length(),
            switches: part.pairs.len(),
            paper_bits: 28,
            paper_switches: 7,
        },
        Table1Row {
            mechanism: "Full protection",
            bit_length: full.bit_length(),
            switches: full.pairs.len(),
            paper_bits: 43,
            paper_switches: 10,
        },
    ]
}

/// Renders the table with a paper-vs-measured comparison.
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "TABLE 1. Maximum bit length required by each protection mechanism (15-node network)\n\
         | Protection mechanism | Bit length | Switches in route ID | Paper bits | Paper switches |\n\
         |---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.mechanism, r.bit_length, r.switches, r.paper_bits, r.paper_switches
        ));
    }
    out
}

pub(super) const EXPERIMENT: Experiment = Experiment::new(
    "table1",
    "Table 1: route-ID bit lengths on the 15-node network",
    &[],
    |_| print(render(&compute())),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_paper_exactly() {
        for row in compute() {
            assert_eq!(row.bit_length, row.paper_bits, "{}", row.mechanism);
            assert_eq!(row.switches, row.paper_switches, "{}", row.mechanism);
        }
    }

    #[test]
    fn renders_all_rows() {
        let s = render(&compute());
        assert!(s.contains("Unprotected | 15 | 4 | 15 | 4"));
        assert!(s.contains("Partial protection | 28 | 7"));
        assert!(s.contains("Full protection | 43 | 10"));
    }
}
