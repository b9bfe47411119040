//! Interactive entries — inspect one route or topology instead of
//! running an experiment: `route` (switches, ports, route ID, bits),
//! `residues` (the route ID decoded at every switch), `probe` (probes
//! across an optional failure), `dot` / `fig6` (Graphviz DOT).

use crate::cli::{flag, print, Args, Experiment, Flag};
use crate::harness::{ProbeRun, ProbeScheme};
use crate::obs::RunObs;
use kar::analysis::render_residue_table;
use kar::{DeflectionTechnique, EncodeRequest, KarNetwork, Protection};
use kar_simnet::SimTime;
use kar_topology::{rnp28, to_dot, topo15, NodeId, Topology};
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    flag("--topo", "topo15", "topo15|rnp28"),
    flag("--from", "", "source edge (default: the first edge node)"),
    flag("--to", "", "destination edge (default: the last edge node)"),
    flag("--technique", "nip", "none|hp|avp|nip"),
    flag("--protection", "auto", "none|partial|full|auto"),
    flag("--fail", "", "A-B: fail the link A-B at t=0"),
    flag("--probes", "100", "probes to send"),
];

/// The first `n` of [`FLAGS`]: `dot` takes one, `route` and `residues`
/// five, `probe` all seven.
const fn first(n: usize) -> &'static [Flag] {
    FLAGS.split_at(n).0
}

/// `kar-bench fig6`: `dot` on the RNP backbone, with the PoP legend on
/// stderr.
pub(super) const FIG6: Experiment = Experiment::new(
    "fig6",
    "Fig. 6: the RNP backbone as Graphviz DOT",
    first(0),
    |_| {
        let topo = rnp28::build();
        eprintln!(
            "Fig. 6 — RNP backbone: {} PoPs, {} backbone links (+{} host access links)",
            topo.core_nodes().len(),
            rnp28::LINKS.len(),
            rnp28::HOSTS.len(),
        );
        eprintln!("PoP labels:");
        for (name, id, label) in rnp28::SWITCHES {
            eprintln!("  {name:<6} id {id:<3} {label}");
        }
        print_dot(&topo)
    },
);
pub(super) const DOT: Experiment =
    Experiment::new("dot", "A topology as Graphviz DOT", first(1), |args| {
        print_dot(&topo(args))
    });
pub(super) const ROUTE: Experiment = Experiment::new(
    "route",
    "One route encoding: switches, ports, route ID, bits",
    first(5),
    |args| finish(args, route(args, false)),
);
pub(super) const RESIDUES: Experiment = Experiment::new(
    "residues",
    "One route ID decoded at every switch of the network",
    first(5),
    |args| finish(args, route(args, true)),
);
pub(super) const PROBE: Experiment = Experiment::new(
    "probe",
    "Probes across an optional failure: delivery, deflections, hops, latency",
    first(7),
    |args| finish(args, probe(args)),
);

fn print_dot(topo: &Topology) -> ExitCode {
    print(to_dot(topo))
}

/// A name the topology does not have is a refused flag value.
fn finish(args: &Args, result: Result<(), String>) -> ExitCode {
    result.map_or_else(|why| args.refuse(&why), |()| ExitCode::SUCCESS)
}

fn topo(args: &Args) -> Topology {
    match args.opt("--topo") {
        Some("rnp28") => rnp28::build(),
        _ => topo15::build(),
    }
}

fn technique(args: &Args) -> DeflectionTechnique {
    match args.opt("--technique") {
        Some("none") => DeflectionTechnique::None,
        Some("hp") => DeflectionTechnique::HotPotato,
        Some("avp") => DeflectionTechnique::Avp,
        _ => DeflectionTechnique::Nip,
    }
}

fn endpoints(topo: &Topology, args: &Args) -> Result<(NodeId, NodeId), String> {
    let edges = topo.edge_nodes();
    let resolve = |flag, default: Option<&NodeId>| match args.opt(flag) {
        Some(n) => topo.find(n).ok_or(format!("no node named {n}")),
        None => default.copied().ok_or("no edges".to_string()),
    };
    Ok((
        resolve("--from", edges.first())?,
        resolve("--to", edges.last())?,
    ))
}

fn protection(topo: &Topology, args: &Args) -> Protection {
    match (args.opt("--protection"), args.opt("--topo")) {
        (Some("none"), _) => Protection::None,
        (Some("partial"), Some("rnp28")) => Protection::Segments(
            rnp28::FIG7_PROTECTION
                .iter()
                .map(|&(a, b)| (topo.expect(a), topo.expect(b)))
                .collect(),
        ),
        (Some("partial"), _) => {
            Protection::Segments(topo15::protection_pairs(topo, &topo15::PARTIAL_PROTECTION))
        }
        _ => Protection::AutoFull,
    }
}

fn route(args: &Args, residues: bool) -> Result<(), String> {
    let topo = topo(args);
    let (from, to) = endpoints(&topo, args)?;
    let mut net = KarNetwork::new(&topo, technique(args));
    let route = net
        .encode(&EncodeRequest::new(from, to).with_protection(protection(&topo, args)))
        .map_err(|e| e.to_string())?
        .route;
    println!(
        "route {} → {}: {} switches, {} header bits",
        topo.node(from).name,
        topo.node(to).name,
        route.pairs.len(),
        route.bit_length()
    );
    if residues {
        print!("{}", render_residue_table(&topo, &route));
        return Ok(());
    }
    println!("route id: {}", route.route_id);
    for &(id, port) in &route.pairs {
        let node = topo.find_switch(id).expect("switch exists");
        let peer = topo
            .neighbors(node)
            .find(|&(p, _, _)| p == port)
            .map(|(_, _, n)| topo.node(n).name.clone())
            .unwrap_or_else(|| "?".into());
        println!(
            "  {} (id {id}) exits port {port} → {peer}",
            topo.node(node).name
        );
    }
    Ok(())
}

fn probe(args: &Args) -> Result<(), String> {
    let topo = topo(args);
    let (from, to) = endpoints(&topo, args)?;
    let mut down = Vec::new();
    if let Some(spec) = args.opt("--fail") {
        let (a, b) = spec
            .split_once('-')
            .ok_or("use --fail A-B with node names")?;
        down.push(
            topo.link_between(
                topo.find(a).ok_or(format!("no node {a}"))?,
                topo.find(b).ok_or(format!("no node {b}"))?,
            )
            .ok_or(format!("no link {spec}"))?,
        );
    }
    let scheme = ProbeScheme::Kar {
        technique: technique(args),
        protection: protection(&topo, args),
        recovery: None,
    };
    let outcome = ProbeRun {
        probes: args.get("--probes"),
        gap: SimTime::from_micros(200),
        seed: args.seed(),
        down: &down,
        ..ProbeRun::new(&topo, scheme, &[(from, to)])
    }
    .run(&RunObs::default());
    let s = &outcome.stats;
    println!(
        "{} / {} delivered | {} deflections | mean {:.1} hops (max {}) | mean latency {:.2} ms",
        s.delivered,
        s.injected,
        s.deflections,
        s.mean_hops().unwrap_or(0.0),
        s.max_hops,
        s.mean_latency_s().unwrap_or(0.0) * 1e3
    );
    for (reason, n) in &s.drops {
        println!("  dropped ({reason}): {n}");
    }
    Ok(())
}
