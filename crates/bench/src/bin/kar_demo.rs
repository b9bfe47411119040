//! `kar_demo` — interactive command-line driver for the KAR simulator.
//!
//! ```text
//! kar_demo <command> [options]
//!
//! Commands:
//!   route      Show a route encoding (switches, ports, route ID, bits)
//!   residues   Decode a route ID at every switch of the network
//!   probe      Send probes across an optional failure and report stats
//!   dot        Emit the topology as Graphviz DOT
//!
//! Options:
//!   --topo topo15|rnp28       topology            (default topo15)
//!   --from NAME --to NAME     endpoints           (default first/last edge)
//!   --fail A-B                fail link A-B at t=0
//!   --technique none|hp|avp|nip                   (default nip)
//!   --protection none|partial|full|auto           (default auto)
//!   --probes N                                    (default 100)
//!   --seed N                                      (default 1)
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p kar-bench --bin kar_demo -- probe --fail SW7-SW13
//! cargo run --release -p kar-bench --bin kar_demo -- route --topo rnp28 \
//!     --from E_BV --to E_SP --protection partial
//! cargo run -p kar-bench --bin kar_demo -- dot --topo rnp28 | dot -Tsvg > rnp.svg
//! ```

use kar::analysis::render_residue_table;
use kar::{DeflectionTechnique, EncodeRequest, KarNetwork, Protection};
use kar_bench::harness::{ProbeRun, ProbeScheme};
use kar_bench::obs::RunObs;
use kar_simnet::SimTime;
use kar_topology::{rnp28, to_dot, topo15, NodeId, Topology};
use std::process::ExitCode;

struct Args {
    command: String,
    topo: String,
    from: Option<String>,
    to: Option<String>,
    fail: Option<String>,
    technique: DeflectionTechnique,
    protection: String,
    probes: u64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("missing command (route|residues|probe|dot)")?;
    let mut args = Args {
        command,
        topo: "topo15".into(),
        from: None,
        to: None,
        fail: None,
        technique: DeflectionTechnique::Nip,
        protection: "auto".into(),
        probes: 100,
        seed: 1,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--topo" => args.topo = value()?,
            "--from" => args.from = Some(value()?),
            "--to" => args.to = Some(value()?),
            "--fail" => args.fail = Some(value()?),
            "--probes" => args.probes = value()?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("{e}"))?,
            "--technique" => {
                args.technique = match value()?.as_str() {
                    "none" => DeflectionTechnique::None,
                    "hp" => DeflectionTechnique::HotPotato,
                    "avp" => DeflectionTechnique::Avp,
                    "nip" => DeflectionTechnique::Nip,
                    other => return Err(format!("unknown technique {other}")),
                }
            }
            "--protection" => args.protection = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn build_topo(name: &str) -> Result<Topology, String> {
    match name {
        "topo15" => Ok(topo15::build()),
        "rnp28" => Ok(rnp28::build()),
        other => Err(format!("unknown topology {other} (use topo15|rnp28)")),
    }
}

fn endpoints(topo: &Topology, args: &Args) -> Result<(NodeId, NodeId), String> {
    let edges = topo.edge_nodes();
    let resolve = |name: &Option<String>, default: NodeId| -> Result<NodeId, String> {
        match name {
            Some(n) => topo.find(n).ok_or(format!("no node named {n}")),
            None => Ok(default),
        }
    };
    let from = resolve(&args.from, *edges.first().ok_or("no edges")?)?;
    let to = resolve(&args.to, *edges.last().ok_or("no edges")?)?;
    Ok((from, to))
}

fn protection(topo: &Topology, args: &Args) -> Result<Protection, String> {
    match (args.protection.as_str(), args.topo.as_str()) {
        ("none", _) => Ok(Protection::None),
        ("auto" | "full", _) => Ok(Protection::AutoFull),
        ("partial", "topo15") => Ok(Protection::Segments(topo15::protection_pairs(
            topo,
            &topo15::PARTIAL_PROTECTION,
        ))),
        ("partial", "rnp28") => Ok(Protection::Segments(
            rnp28::FIG7_PROTECTION
                .iter()
                .map(|&(a, b)| (topo.expect(a), topo.expect(b)))
                .collect(),
        )),
        (other, _) => Err(format!("unknown protection {other}")),
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let topo = build_topo(&args.topo)?;
    match args.command.as_str() {
        "dot" => {
            print!("{}", to_dot(&topo));
            Ok(())
        }
        "route" | "residues" => {
            let (from, to) = endpoints(&topo, &args)?;
            let prot = protection(&topo, &args)?;
            let mut net = KarNetwork::new(&topo, args.technique);
            let route = net
                .encode(&EncodeRequest::new(from, to).with_protection(prot))
                .map_err(|e| e.to_string())?
                .route;
            println!(
                "route {} → {}: {} switches, {} header bits",
                topo.node(from).name,
                topo.node(to).name,
                route.pairs.len(),
                route.bit_length()
            );
            if args.command == "route" {
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
            } else {
                print!("{}", render_residue_table(&topo, &route));
            }
            Ok(())
        }
        "probe" => {
            let (from, to) = endpoints(&topo, &args)?;
            let prot = protection(&topo, &args)?;
            let mut down = Vec::new();
            if let Some(spec) = &args.fail {
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
                technique: args.technique,
                protection: prot,
                recovery: None,
            };
            let outcome = ProbeRun {
                probes: args.probes,
                gap: SimTime::from_micros(200),
                seed: args.seed,
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
        other => Err(format!(
            "unknown command {other} (route|residues|probe|dot)"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kar_demo: {e}");
            eprintln!("see `kar_demo --help` in the module docs for usage");
            ExitCode::FAILURE
        }
    }
}
