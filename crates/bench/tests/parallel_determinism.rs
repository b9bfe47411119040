//! Conformance tests for the parallel runner: a sweep's results must
//! not depend on how many worker threads executed it, and a single run
//! must replay byte-identically from its spec + seed.

use kar::{DeflectionTechnique, EncodingCache, Protection};
use kar_bench::experiments::fig5;
use kar_bench::harness::{run_tcp, FailureWindow, TcpRun};
use kar_bench::runner;
use kar_bench::sweep::Opts;
use kar_simnet::SimTime;
use kar_topology::topo15;
use std::sync::Arc;

/// Acceptance criterion of the parallel runner: for the Fig. 5 spec
/// set, `--jobs N` is byte-identical to `--jobs 1`. The digest covers
/// every result field except host wall-clock time — including the full
/// `IntervalMeter` bin series.
#[test]
fn fig5_spec_set_is_byte_identical_across_jobs() {
    let topo = topo15::build();
    // Scaled-down grid: 1 run × 2 s still covers all 18 cells (3
    // failures × 3 protection levels × 2 techniques).
    let (specs, labels) = fig5::spec_set(&topo, 1, 2, 42);
    assert_eq!(specs.len(), 18);
    let serial = runner::run_all(&specs, 1);
    let parallel = runner::run_all(&specs, 4);
    assert_eq!(serial.len(), parallel.len());
    for ((s, p), label) in serial.iter().zip(&parallel).zip(&labels) {
        assert_eq!(s.digest(), p.digest(), "divergence at {label}");
    }
}

/// Replay determinism: the same spec + seed produces the identical
/// `IntervalMeter` (and every other result field) on every invocation.
#[test]
fn same_spec_and_seed_replays_identically() {
    let topo = topo15::build();
    let spec = TcpRun {
        technique: DeflectionTechnique::Nip,
        protection: Protection::AutoFull,
        duration: SimTime::from_secs(2),
        failure: Some(FailureWindow {
            link: topo.expect_link("SW7", "SW13"),
            down: SimTime::ZERO,
            up: SimTime::from_secs(3),
        }),
        seed: 1234,
        switch_service: Some(SimTime::from_micros(7)),
        ..TcpRun::new(&topo, topo15::primary_route(&topo))
    };
    let first = run_tcp(&spec);
    let second = run_tcp(&spec);
    assert_eq!(first.digest(), second.digest());
    assert_eq!(format!("{:?}", first.meter), format!("{:?}", second.meter));
}

/// The route-encoding cache affects speed only — a cached sweep is
/// byte-identical to an uncached one.
#[test]
fn encoding_cache_does_not_change_results() {
    let topo = topo15::build();
    let base = TcpRun {
        technique: DeflectionTechnique::Avp,
        protection: Protection::AutoFull,
        duration: SimTime::from_secs(2),
        failure: Some(FailureWindow {
            link: topo.expect_link("SW13", "SW29"),
            down: SimTime::ZERO,
            up: SimTime::from_secs(3),
        }),
        seed: 77,
        ..TcpRun::new(&topo, topo15::primary_route(&topo))
    };
    let uncached = run_tcp(&base);
    let cache = Arc::new(EncodingCache::new());
    let cached_spec = TcpRun {
        cache: Some(cache.clone()),
        ..base
    };
    let cached = run_tcp(&cached_spec);
    let replay = run_tcp(&cached_spec); // second run hits the cache
    assert_eq!(uncached.digest(), cached.digest());
    assert_eq!(uncached.digest(), replay.digest());
    let stats = cache.stats();
    assert!(stats.hits > 0, "replay must hit the cache: {stats:?}");
}

/// The adversarial grid — rolling churn included, whose Poisson trains
/// are the newest source of compiled-in randomness — is byte-identical
/// at any job count, like every other sweep. Churn plans re-expand
/// per worker, so this also pins that `FaultPlan::compile` is a pure
/// function of `(plan, topology)` under concurrency.
#[test]
fn adversary_grid_is_byte_identical_across_jobs() {
    use kar_bench::experiments::adversary::{self, AdversaryConfig};
    let topo = topo15::build();
    let cfg = AdversaryConfig {
        probes: 30,
        intensities: vec![1, 2],
        ..AdversaryConfig::default()
    };
    let serial = adversary::run(&cfg, &[("topo15", &topo)], &Opts::jobs(1));
    let parallel = adversary::run(&cfg, &[("topo15", &topo)], &Opts::jobs(4));
    // Every point's line — and so the document `--out` writes.
    let gaps = adversary::targeted_vs_random(&serial);
    assert_eq!(
        adversary::to_json(&serial, &gaps),
        adversary::to_json(&parallel, &adversary::targeted_vs_random(&parallel))
    );
}
