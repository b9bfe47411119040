//! Pinned k=2 classification tables for topo15 and rnp28 — committed
//! regression fixtures, the two-failure generalization of the pinned
//! single-failure table in `verify.rs`.
//!
//! Each fixture row is one `(technique, protection)` cell of the
//! exhaustive sweep over every ordered edge pair × every 2-link failure
//! set. A forwarder, planner or verifier change that shifts any count
//! must be reviewed against these tables and re-blessed deliberately:
//!
//! ```text
//! KAR_BLESS=1 cargo test -p kar --test k2_classification -- --include-ignored
//! ```
//!
//! The `verify_resilience --k 2` CI gate pins the violation column of
//! the AutoFull rows; these fixtures pin every column of every row.

use kar::verify::{summarize_sets, verify_failure_sets};
use kar::{DeflectionTechnique, EncodingCache, Outcome, Protection};
use kar_topology::{rnp28, topo15, Topology};
use std::path::PathBuf;

fn table(topo: &Topology) -> String {
    let cache = EncodingCache::new();
    let mut out = String::from(
        "technique\tprotection\ttotal\tdelivered\twrong_edge\tttl_exceeded\tblackhole\tloop\tdisconnected\tviolations\n",
    );
    for (pname, protection) in [("none", Protection::None), ("full", Protection::AutoFull)] {
        for technique in DeflectionTechnique::ALL {
            let sweep =
                verify_failure_sets(topo, technique, &protection, &cache, 2).expect("sweep runs");
            let s = summarize_sets(&sweep.results);
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                technique.label(),
                pname,
                s.total,
                s.count(Outcome::Delivered),
                s.count(Outcome::WrongEdge),
                s.count(Outcome::TtlExceeded),
                s.count(Outcome::Blackhole),
                s.count(Outcome::Loop),
                s.disconnected,
                s.violations,
            ));
        }
    }
    out
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_pinned(topo: &Topology, fixture: &str) {
    let actual = table(topo);
    let path = fixture_path(fixture);
    if std::env::var("KAR_BLESS").is_ok() {
        std::fs::write(&path, &actual).expect("bless writes the fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with KAR_BLESS=1 to create)", path.display()));
    assert_eq!(
        actual, pinned,
        "k=2 classification drifted from {fixture}; if intentional, re-bless and review"
    );
}

#[test]
fn k2_topo15_classification_is_pinned() {
    check_pinned(&topo15::build(), "k2_topo15.tsv");
}

/// The rnp28 sweep is release-speed work (≈0.5 s release, tens of
/// seconds debug); CI runs it with `--ignored` in release.
#[test]
#[ignore = "release-speed sweep: run with --ignored (CI does)"]
fn k2_rnp28_classification_is_pinned() {
    check_pinned(&rnp28::build(), "k2_rnp28.tsv");
}

/// The headline the tables prove: hot-potato deflection under full
/// protection never loses a deliverable packet to *any* two-failure
/// set on either evaluation topology — random walking beats both
/// structured techniques on pure survival (at a latency cost the
/// ttl_exceeded column shows).
#[test]
fn hp_full_protection_survives_every_k2_set_on_topo15() {
    let topo = topo15::build();
    let cache = EncodingCache::new();
    let sweep = verify_failure_sets(
        &topo,
        DeflectionTechnique::HotPotato,
        &Protection::AutoFull,
        &cache,
        2,
    )
    .unwrap();
    for pair in &sweep.results {
        assert_eq!(
            pair.summary.violations, 0,
            "{:?} -> {:?}: {:?}",
            pair.src, pair.dst, pair.summary
        );
        assert!(
            pair.offenders.is_empty(),
            "{:?} -> {:?}: {:?}",
            pair.src,
            pair.dst,
            pair.offenders
        );
    }
}
