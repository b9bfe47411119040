//! Exhaustive scan for counterexamples to the hitless-delivery property
//! (used to pin down liveness regressions; see tests/liveness_properties.rs).
//!
//! Usage: cargo run --release --example liveness_scan -- [min_seed] [max_seed]
//!
//! Scans seeds `min_seed..max_seed` (defaults 0 and `min_seed + 60`). A
//! seed that is not a number, a third argument or `min_seed > max_seed`
//! is refused: exit 2, the usage line on stderr, nothing scanned.

use kar::{DeflectionTechnique, KarNetwork, Protection};
use kar_rns::IdStrategy;
use kar_simnet::{FlowId, PacketKind, SimTime};
use kar_topology::{gen, paths, LinkParams};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run --release --example liveness_scan -- [min_seed] [max_seed]";

/// The seed range the command line asks for.
fn seed_range(args: &[String]) -> Result<(u64, u64), String> {
    let seed = |s: &String| s.parse::<u64>().map_err(|_| format!("not a seed: {s:?}"));
    let (min_seed, max_seed) = match args {
        [] => (0, 60),
        [min] => {
            let min = seed(min)?;
            (min, min.saturating_add(60))
        }
        [min, max] => (seed(min)?, seed(max)?),
        [_, _, extra, ..] => return Err(format!("unexpected argument {extra:?}")),
    };
    if min_seed > max_seed {
        return Err(format!("min_seed {min_seed} is above max_seed {max_seed}"));
    }
    Ok((min_seed, max_seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (min_seed, max_seed) = match seed_range(&args) {
        Ok(range) => range,
        Err(e) => {
            eprintln!("liveness_scan: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tested = 0u64;
    let mut failures = 0u64;
    for n in 6usize..16 {
        for extra in 3usize..12 {
            for seed in min_seed..max_seed {
                let topo = gen::random_connected(
                    n,
                    extra,
                    seed,
                    IdStrategy::SmallestPrimes,
                    LinkParams::default(),
                );
                let src = topo.expect("H0");
                let dst = topo.expect("H1");
                let primary = paths::bfs_shortest_path(&topo, src, dst).expect("connected");
                let core_links: Vec<_> = paths::links_along(&topo, &primary)
                    .unwrap()
                    .into_iter()
                    .filter(|&l| {
                        let link = topo.link(l);
                        topo.switch_id(link.a).is_some() && topo.switch_id(link.b).is_some()
                    })
                    .collect();
                for (li, &failed) in core_links.iter().enumerate() {
                    // The failure must not disconnect src from dst.
                    if paths::bfs_shortest_path_where(&topo, src, dst, |_, l| l != failed).is_none()
                    {
                        continue;
                    }
                    let route = kar::protection::encode_with_protection(
                        &topo,
                        primary.clone(),
                        &Protection::AutoFull,
                    )
                    .unwrap();
                    let coverage =
                        kar::analysis::failure_coverage(&topo, &route, &primary, failed, dst);
                    if coverage.candidates.is_empty() || (coverage.fraction() - 1.0).abs() > 1e-9 {
                        continue;
                    }
                    tested += 1;
                    let mut net = KarNetwork::builder(&topo, DeflectionTechnique::Nip)
                        .seed(seed ^ 0xabcd)
                        .ttl(255)
                        .build();
                    net.install_explicit(primary.clone(), &Protection::AutoFull)
                        .unwrap();
                    let mut sim = net.into_sim();
                    sim.schedule_link_down(SimTime::ZERO, failed);
                    for i in 0..40 {
                        sim.run_until(SimTime(i * 200_000));
                        sim.inject(src, dst, FlowId(0), i, PacketKind::Probe, 300);
                    }
                    sim.run_to_quiescence();
                    let s = sim.stats();
                    if s.delivered != 40 {
                        failures += 1;
                        println!(
                            "FAIL n={n} extra={extra} seed={seed} link_idx={li} \
                             failed={failed:?} delivered={} dropped={} stats={s:?}",
                            s.delivered,
                            s.dropped()
                        );
                    }
                }
            }
        }
    }
    println!("scanned: {tested} qualifying cases, {failures} failures");
    ExitCode::SUCCESS
}
