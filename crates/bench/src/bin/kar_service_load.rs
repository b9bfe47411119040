//! Load driver for the `kar-service` daemon (`BENCH_service.json`):
//! spawns the daemon in-process on topo15, opens `--connections`
//! client connections and drives `--requests` hot-cache encode
//! round-trips through the full wire protocol, cycling every ordered
//! edge pair in both wire modes. Every response is checked
//! byte-for-byte against the in-process [`kar_service::expected_header`]
//! serialization, so the committed document doubles as a byte-identity
//! witness at load.
//!
//! Flags (on top of the common set, of which `--out` defaults to
//! `BENCH_service.json` at the repository root):
//!
//! * `--requests N` — total encode round-trips; accepts `k`/`m`
//!   suffixes (`10k`, `1m`; default `1m`);
//! * `--connections N` — concurrent client connections (default 4).
//!
//! The document's `mode` field is `"full"` when at least one million
//! requests were driven — only then are the wall-clock metrics (QPS,
//! p50/p99 latency) present, so `kar-trend` never gates CI on the
//! timing of a 10k smoke run. The deterministic columns (`errors`,
//! `byte_mismatches`) are always present and always gated.

use kar::{EncodeRequest, Protection, WireMode};
use kar_bench::cli::{flag_value, CommonArgs};
use kar_service::{expected_header, Daemon, ServiceClient, ServiceConfig};
use kar_topology::topo15;
use std::sync::Arc;
use std::time::Instant;

/// One request in the cycled workload: an ordered edge pair, the wire
/// mode to ask for, and the exact bytes the daemon must answer with.
struct WorkItem {
    src: u32,
    dst: u32,
    mode: WireMode,
    expected: Vec<u8>,
}

/// What one connection thread measured.
#[derive(Default)]
struct ThreadResult {
    latencies_ns: Vec<u64>,
    errors: u64,
    byte_mismatches: u64,
}

fn parse_requests(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, scale) = match text.as_bytes().last()? {
        b'k' | b'K' => (&text[..text.len() - 1], 1_000),
        b'm' | b'M' => (&text[..text.len() - 1], 1_000_000),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)]
}

fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    requests: u64,
    connections: usize,
    pairs: usize,
    full: bool,
    errors: u64,
    byte_mismatches: u64,
    wall_s: f64,
    sorted_ns: &[u64],
    stats: &kar_service::ServiceStats,
) -> String {
    let mut out = String::from("{\"campaign\":\"service\",\n");
    out.push_str(&format!(
        "\"fingerprint\":\"service-v1 topo=topo15 requests={requests} connections={connections} \
         pairs={pairs} modes=fixed+varint\",\n"
    ));
    out.push_str(&format!(
        "\"mode\":\"{}\",\n",
        if full { "full" } else { "smoke" }
    ));
    out.push_str(&format!(
        "\"requests\":{requests},\n\"connections\":{connections},\n\"pairs\":{pairs},\n"
    ));
    out.push_str(&format!(
        "\"errors\":{errors},\n\"byte_mismatches\":{byte_mismatches},\n"
    ));
    out.push_str(&format!(
        "\"daemon\":{{\"requests\":{},\"encode_ok\":{},\"encode_err\":{},\"invalidations\":{}}},\n",
        stats.requests, stats.encode_ok, stats.encode_err, stats.invalidations
    ));
    if full {
        let mean_ns =
            sorted_ns.iter().map(|&n| n as f64).sum::<f64>() / sorted_ns.len().max(1) as f64;
        out.push_str(&format!(
            "\"qps\":{},\n\"p50_us\":{},\n\"p99_us\":{},\n\"mean_us\":{},\n\"wall_s\":{}\n",
            json_num(requests as f64 / wall_s),
            json_num(percentile(sorted_ns, 0.50) as f64 / 1_000.0),
            json_num(percentile(sorted_ns, 0.99) as f64 / 1_000.0),
            json_num(mean_ns / 1_000.0),
            json_num(wall_s),
        ));
    } else {
        // Wall-clock numbers from a smoke run would teach the trend
        // gate noise; the doc records only what is deterministic.
        out.push_str("\"note\":\"smoke run: wall-clock metrics omitted\"\n");
    }
    out.push_str("}\n");
    out
}

fn main() {
    let common = CommonArgs::parse(17);
    let requests = flag_value(&common.args, "--requests")
        .and_then(|v| parse_requests(&v))
        .unwrap_or(1_000_000);
    let connections: usize = common.flag("--connections", 4).max(1);

    let topo = topo15::build();
    let recovery = ServiceConfig::new(topo.clone()).recovery.clone();
    // The workload: every ordered edge pair, both wire modes, with the
    // in-process reference bytes precomputed once.
    let mut work = Vec::new();
    let edges = topo.edge_nodes();
    for &src in &edges {
        for &dst in &edges {
            if src == dst {
                continue;
            }
            let req = EncodeRequest::new(src, dst);
            let header =
                expected_header(&topo, &req, recovery.clone(), &[]).expect("topo15 is connected");
            for mode in [WireMode::Fixed, WireMode::Varint] {
                work.push(WorkItem {
                    src: src.0 as u32,
                    dst: dst.0 as u32,
                    mode,
                    expected: header.to_wire(mode),
                });
            }
        }
    }
    let work = Arc::new(work);
    let pairs = work.len() / 2;

    let daemon = Daemon::spawn(ServiceConfig::new(topo)).expect("spawn daemon");
    let addr = daemon.addr();
    eprintln!(
        "kar_service_load: daemon on {addr}, {requests} requests over {connections} \
         connection(s), {pairs} pairs x 2 modes, seed {}",
        common.seed
    );

    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..connections {
        let work = Arc::clone(&work);
        let share =
            requests / connections as u64 + u64::from((requests % connections as u64) > t as u64);
        handles.push(std::thread::spawn(move || {
            let mut res = ThreadResult {
                latencies_ns: Vec::with_capacity(share as usize),
                ..ThreadResult::default()
            };
            let mut client = ServiceClient::connect(addr).expect("connect");
            // Stagger start offsets so connections don't march through
            // the workload in lockstep.
            let offset = (t * work.len()) / connections.max(1);
            for i in 0..share {
                let item = &work[(offset + i as usize) % work.len()];
                let t0 = Instant::now();
                match client.encode_raw(item.src, item.dst, &Protection::None, item.mode) {
                    Ok(bytes) => {
                        res.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                        if bytes != item.expected {
                            res.byte_mismatches += 1;
                        }
                    }
                    Err(_) => res.errors += 1,
                }
            }
            res
        }));
    }
    let mut latencies = Vec::with_capacity(requests as usize);
    let mut errors = 0u64;
    let mut byte_mismatches = 0u64;
    for h in handles {
        let r = h.join().expect("connection thread");
        latencies.extend(r.latencies_ns);
        errors += r.errors;
        byte_mismatches += r.byte_mismatches;
    }
    let wall_s = started.elapsed().as_secs_f64();
    latencies.sort_unstable();

    let mut tail = ServiceClient::connect(addr).expect("connect for stats");
    let stats = tail.stats().expect("stats");
    drop(tail);
    daemon.shutdown();

    let full = requests >= 1_000_000;
    eprintln!(
        "kar_service_load: {} ok / {errors} errors / {byte_mismatches} byte mismatches in {:.2}s \
         ({:.0} req/s), p50 {:.1}us p99 {:.1}us [{}]",
        latencies.len(),
        wall_s,
        requests as f64 / wall_s,
        percentile(&latencies, 0.50) as f64 / 1_000.0,
        percentile(&latencies, 0.99) as f64 / 1_000.0,
        if full { "full" } else { "smoke" },
    );

    let doc = to_json(
        requests,
        connections,
        pairs,
        full,
        errors,
        byte_mismatches,
        wall_s,
        &latencies,
        &stats,
    );
    common.write_document("kar_service_load", Some("BENCH_service.json"), &doc);
    common.finish();
    if errors > 0 || byte_mismatches > 0 {
        eprintln!("kar_service_load: FAILED — errors or byte mismatches under load");
        std::process::exit(1);
    }
}
