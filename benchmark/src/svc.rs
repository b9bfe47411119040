//! The three service workloads. The op is an encode response,
//! byte-verified (on `svc-churn` invalidates are ops too). One client
//! thread drives one connection to a one-worker `kar_service::Daemon`
//! in a closed loop with a window of 32 outstanding requests, speaking
//! `kar_service::proto` frames directly. Client and worker are pinned
//! to one core: they hand each window back and forth and never need to
//! run at once, and on separate cores every hand-over is a cross-core
//! wake-up that costs more than the request (see
//! [`sys::pin_to_one_cpu`]). `ops_per_s` is therefore requests per
//! second of client + daemon CPU, plus two context switches per window.
//!
//! * `svc-warm` — 4096 sampled pairs of a 1024-host random topology,
//!   installed during set-up, then cycled: the hit path.
//! * `svc-cold` — a fresh daemon per repetition and distinct pairs each
//!   requested once: the miss path.
//! * `svc-churn` — the warm set plus one invalidate after every pass
//!   over it, flapping the eight busiest core links: writes beside
//!   reads.

use crate::ledger::{reconcile, Row};
use crate::span::Tracer;
use crate::stats::{median, tail_percentile};
use crate::svc_units;
use crate::sys::{self, cpu_seconds};
use crate::workload::{layer, sample_pairs, Draws, Layers, Rep, Scale, Workload};
use kar::prelude::*;
use kar_rns::IdStrategy;
use kar_service::proto::{self, Request, Response};
use kar_service::{expected_header, Daemon, ServiceConfig};
use kar_topology::{gen, paths, LinkId, LinkParams};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Outstanding requests per window: deep enough that the hand-over
/// between client and worker is amortised over many requests (depth 1
/// measures the scheduler, not the daemon).
pub const WINDOW: usize = 32;
/// Core links that flap, the busiest first.
const HOT_LINKS: usize = 8;
const MODES: [WireMode; 2] = [WireMode::Fixed, WireMode::Varint];
/// Generator seed of the topology. "rand1024" is one fixed network,
/// like rnp28 or ring256: a random recursive tree grows hubs, and how
/// much traffic the busiest links carry (so what a flap costs) would
/// otherwise change with `--seed`, which drives the pair sample, the
/// flap order and the wire modes instead.
const TOPOLOGY_SEED: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
    Churn,
}

/// One step of a repetition's request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// `len` encodes from stream position `first`, all sent and
    /// answered while hot link `down` (if any) is down.
    Encodes {
        first: usize,
        len: usize,
        down: Option<usize>,
    },
    /// One invalidate of hot link `hot`, alone in its window, so the
    /// fault state behind every encode is unambiguous.
    Invalidate { hot: usize, up: bool },
}

/// Plans `encodes` encode requests in windows of [`WINDOW`]. With
/// `hot_links > 0` an invalidate follows every `flap_every` encodes,
/// taking hot link 0 down, then up, then link 1 down, … so at most one
/// link is down at a time; a final invalidate brings the last link back
/// up, so every repetition starts from the same state. No window
/// reaches across an invalidate.
pub fn plan(encodes: usize, hot_links: usize, flap_every: usize) -> Vec<Window> {
    let mut out = Vec::new();
    let mut down = None;
    let mut flaps = 0;
    let mut first = 0;
    while first < encodes {
        let mut len = WINDOW.min(encodes - first);
        if hot_links > 0 {
            len = len.min(flap_every - first % flap_every);
        }
        out.push(Window::Encodes { first, len, down });
        first += len;
        if hot_links > 0 && first % flap_every == 0 {
            let hot = (flaps / 2) % hot_links;
            let up = flaps % 2 == 1;
            out.push(Window::Invalidate { hot, up });
            down = (!up).then_some(hot);
            flaps += 1;
        }
    }
    if let Some(hot) = down {
        out.push(Window::Invalidate { hot, up: true });
    }
    out
}

/// Frames the client has sent, by kind — what the daemon's own `stats`
/// counters must equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sent {
    requests: u64,
    encodes: u64,
    invalidations: u64,
}

/// One framed connection with its send counts.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    sent: Sent,
}

impl Conn {
    fn open(daemon: &Daemon) -> Conn {
        let stream = TcpStream::connect(daemon.addr()).expect("connect to the daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone the stream")),
            writer: BufWriter::new(stream),
            sent: Sent::default(),
        }
    }

    fn send(&mut self, req: &Request) {
        let payload = proto::encode_request(req).expect("requests encode");
        proto::write_frame(&mut self.writer, &payload).expect("write to the daemon");
        self.sent.requests += 1;
        match req {
            Request::Encode { .. } => self.sent.encodes += 1,
            Request::Invalidate { .. } => self.sent.invalidations += 1,
            Request::Stats => {}
        }
    }

    fn flush(&mut self) {
        self.writer.flush().expect("flush to the daemon");
    }

    fn receive(&mut self) -> Vec<u8> {
        proto::read_frame(&mut self.reader)
            .expect("read from the daemon")
            .expect("the daemon closed the connection")
    }

    /// One request, one response (a window of 1).
    fn round_trip(&mut self, req: &Request) -> Response {
        self.send(req);
        self.flush();
        proto::decode_response(&self.receive()).expect("responses decode")
    }

    /// Whether the daemon's counters equal what this client sent (the
    /// stats request itself included).
    fn daemon_agrees(&mut self) -> Result<(), String> {
        let Response::Stats(stats) = self.round_trip(&Request::Stats) else {
            return Err("stats request got another response kind".into());
        };
        let got = (
            stats.requests,
            stats.encode_ok,
            stats.encode_err,
            stats.invalidations,
        );
        let want = (
            self.sent.requests,
            self.sent.encodes,
            0,
            self.sent.invalidations,
        );
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "daemon counted (requests, encode_ok, encode_err, invalidations) = {got:?}, client sent {want:?}"
            ))
        }
    }
}

/// A hot core link with the header every pair whose primary crosses it
/// must get while it is down (pair index → bytes per wire mode).
pub struct Hot {
    pub link: LinkId,
    detours: HashMap<usize, [Vec<u8>; 2]>,
}

pub struct Svc {
    pub kind: Kind,
    pub scale: Scale,
    pub topo: Topology,
    /// Wall time `try_random_connected_hosts` took in this set-up pass.
    pub gen_time: Duration,
    /// Sampled ordered host pairs, all distinct.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Expected response body per pair and wire mode with every link up,
    /// precomputed in-process with `kar_service::expected_header`.
    expected: Vec<[Vec<u8>; 2]>,
    pub hot: Vec<Hot>,
    /// Encode requests per repetition.
    encodes: usize,
    /// The long-lived daemon of `svc-warm` / `svc-churn` and the
    /// connection to it (`svc-cold` spawns one per repetition).
    conn: Option<Conn>,
    daemon: Option<Daemon>,
}

fn spawn_daemon(topo: &Topology) -> Daemon {
    Daemon::spawn(ServiceConfig {
        // One connection needs one worker; idle workers would only add
        // threads to the pinned core.
        workers: 1,
        ..ServiceConfig::new(topo.clone())
    })
    .expect("bind a loopback port")
}

/// The recovery knobs the daemon gives its controller.
pub fn daemon_recovery() -> RecoveryConfig {
    ServiceConfig::new(Topology::default()).recovery
}

fn wire_bytes(
    topo: &Topology,
    (src, dst): (NodeId, NodeId),
    faults: &[(LinkId, bool)],
) -> [Vec<u8>; 2] {
    let header = expected_header(
        topo,
        &EncodeRequest::new(src, dst),
        daemon_recovery(),
        faults,
    )
    .expect("sampled pairs are connected");
    MODES.map(|mode| header.to_wire(mode))
}

impl Svc {
    /// Generates the topology, samples the pairs, precomputes every
    /// expected response and (warm, churn) spawns the daemon and
    /// installs the working set through the socket.
    pub fn build(kind: Kind, seed: u64, scale: Scale) -> Svc {
        // Client and daemon share one core (see `pin_to_one_cpu`); the
        // daemon's threads inherit the pin when they are spawned.
        if !sys::pin_to_one_cpu() {
            eprintln!("note: could not pin to one CPU; expect bimodal service rates");
        }
        let switches = scale.pick(1024, 256);
        let started = Instant::now();
        let topo = gen::try_random_connected_hosts(
            switches,
            switches / 2,
            TOPOLOGY_SEED,
            IdStrategy::SmallestPrimes,
            LinkParams::default(),
        )
        .expect("smallest primes never run out");
        let gen_time = started.elapsed();

        let mut draws = Draws::new(seed, 0x5c);
        let n_pairs = match kind {
            Kind::Cold => scale.pick(8_192, 512),
            _ => scale.pick(4096, 256),
        };
        let pairs = sample_pairs(&topo.edge_nodes(), n_pairs, &mut draws);
        let expected = pairs.iter().map(|&p| wire_bytes(&topo, p, &[])).collect();
        let hot = if kind == Kind::Churn {
            hot_links(&topo, &pairs, &mut draws)
        } else {
            Vec::new()
        };
        let encodes = match kind {
            Kind::Warm => n_pairs * scale.pick(12, 2),
            Kind::Cold => n_pairs,
            Kind::Churn => n_pairs * 2 * HOT_LINKS,
        };
        let mut svc = Svc {
            kind,
            scale,
            topo,
            gen_time,
            pairs,
            expected,
            hot,
            encodes,
            conn: None,
            daemon: None,
        };
        if kind != Kind::Cold {
            let (daemon, conn) = svc.installed_daemon();
            svc.daemon = Some(daemon);
            svc.conn = Some(conn);
        }
        svc
    }

    /// A fresh daemon with every pair requested once (all misses) and
    /// verified.
    fn installed_daemon(&self) -> (Daemon, Conn) {
        let daemon = spawn_daemon(&self.topo);
        let mut conn = Conn::open(&daemon);
        let install = plan(self.pairs.len(), 0, 0);
        let failed = self.stream(&mut conn, &install, &mut Tracer::off(), 0);
        assert_eq!(failed, 0, "install pass returned wrong bytes");
        (daemon, conn)
    }

    /// One repetition's request stream. On `svc-churn` a link changes
    /// state after every pass over the pair set, so each pass reads every
    /// pair exactly once under one fault state: every read is the first
    /// after an epoch bump, and the reads that pay a detour are exactly
    /// the pairs whose primary crosses the link that is down.
    fn plan(&self) -> Vec<Window> {
        plan(self.encodes, self.hot.len(), self.pairs.len())
    }

    /// What the encode at stream position `pos` asks for and must get
    /// back while hot link `down` is down.
    fn case(&self, pos: usize, down: Option<usize>) -> (Request, &[u8]) {
        let ix = pos % self.pairs.len();
        let mode_ix = (pos / self.pairs.len() + pos) % 2;
        let (src, dst) = self.pairs[ix];
        let request = Request::Encode {
            src: src.0 as u32,
            dst: dst.0 as u32,
            protection: Protection::None,
            mode: MODES[mode_ix],
        };
        let bytes = down
            .and_then(|h| self.hot[h].detours.get(&ix))
            .unwrap_or(&self.expected[ix]);
        (request, &bytes[mode_ix])
    }

    /// Sends `plan` through `conn`, window by window, and byte-compares
    /// every response. Returns how many ops got a wrong answer.
    fn stream(&self, conn: &mut Conn, plan: &[Window], tracer: &mut Tracer, rep: u64) -> u64 {
        let mut failed = 0;
        let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(WINDOW);
        for window in plan {
            let root = tracer.begin("window", rep, None);
            let parent = Some(root);
            match *window {
                Window::Encodes { first, len, down } => {
                    tracer.span("client.build", rep, parent, || {
                        for pos in first..first + len {
                            conn.send(&self.case(pos, down).0);
                        }
                    });
                    tracer.span("client.flush", rep, parent, || conn.flush());
                    tracer.span("client.wait", rep, parent, || {
                        bodies.clear();
                        bodies.extend((0..len).map(|_| conn.receive()));
                    });
                    let responses = tracer.span("client.decode", rep, parent, || {
                        bodies
                            .iter()
                            .map(|b| proto::decode_response(b))
                            .collect::<Vec<_>>()
                    });
                    tracer.span("client.verify", rep, parent, || {
                        for (pos, response) in (first..).zip(&responses) {
                            let want = self.case(pos, down).1;
                            if !matches!(response, Ok(Response::Header(got)) if got == want) {
                                failed += 1;
                            }
                        }
                    });
                }
                Window::Invalidate { hot, up } => {
                    let request = Request::Invalidate {
                        link: self.hot[hot].link.0 as u32,
                        up,
                    };
                    let response = tracer.span("client.invalidate", rep, parent, || {
                        conn.round_trip(&request)
                    });
                    if response != Response::Ok {
                        failed += 1;
                    }
                }
            }
            tracer.end(root);
        }
        failed
    }

    /// Streams one repetition's plan through `conn` and checks the
    /// daemon's counters against the client's.
    fn timed_stream(&self, conn: &mut Conn, tracer: &mut Tracer, rep: u64) -> Rep {
        let plan = self.plan();
        let started = Instant::now();
        let mut failed = self.stream(conn, &plan, tracer, rep);
        let wall = started.elapsed();
        let ops = plan
            .iter()
            .map(|w| match w {
                Window::Encodes { len, .. } => *len as u64,
                Window::Invalidate { .. } => 1,
            })
            .sum();
        if failed > 0 {
            eprintln!(
                "FAILED {:?}: {failed} responses differ from the expected bytes",
                self.kind
            );
        }
        if let Err(why) = conn.daemon_agrees() {
            eprintln!("FAILED {:?}: {why}", self.kind);
            failed = ops;
        }
        Rep { ops, failed, wall }
    }

    fn rep(&mut self, tracer: &mut Tracer, rep: u64) -> Rep {
        match self.conn.take() {
            Some(mut conn) => {
                let out = self.timed_stream(&mut conn, tracer, rep);
                self.conn = Some(conn);
                out
            }
            None => {
                // svc-cold: every request of the repetition is a miss.
                let daemon = spawn_daemon(&self.topo);
                let mut conn = Conn::open(&daemon);
                let out = self.timed_stream(&mut conn, tracer, rep);
                drop(conn);
                daemon.shutdown();
                out
            }
        }
    }

    /// Encodes in one repetition answered with a detour (their primary
    /// crosses the link that is down).
    fn broken_reads(&self) -> u64 {
        self.plan()
            .iter()
            .map(|w| match *w {
                Window::Encodes {
                    first,
                    len,
                    down: Some(h),
                } => (first..first + len)
                    .filter(|pos| self.hot[h].detours.contains_key(&(pos % self.pairs.len())))
                    .count() as u64,
                _ => 0,
            })
            .sum()
    }
}

/// Every core link (switch to switch) of `topo` with the indexes of the
/// `pairs` whose primary path crosses it, in link order.
pub fn core_link_users(topo: &Topology, pairs: &[(NodeId, NodeId)]) -> Vec<(LinkId, Vec<usize>)> {
    let mut users: BTreeMap<LinkId, Vec<usize>> = (0..topo.link_count())
        .map(LinkId)
        .filter(|&l| {
            let link = topo.link(l);
            topo.switch_id(link.a).is_some() && topo.switch_id(link.b).is_some()
        })
        .map(|l| (l, Vec::new()))
        .collect();
    for (ix, &(src, dst)) in pairs.iter().enumerate() {
        let primary =
            paths::bfs_shortest_path(topo, src, dst).expect("sampled pairs are connected");
        for link in paths::links_along(topo, &primary).expect("a path's nodes are adjacent") {
            if let Some(crossing) = users.get_mut(&link) {
                crossing.push(ix);
            }
        }
    }
    users.into_iter().collect()
}

/// The [`HOT_LINKS`] core links that carry the most of `pairs`'
/// primaries, in seeded flap order, each with the detour header of
/// every pair it breaks.
fn hot_links(topo: &Topology, pairs: &[(NodeId, NodeId)], draws: &mut Draws) -> Vec<Hot> {
    let mut ranked = core_link_users(topo, pairs);
    // Stable: ties keep link order.
    ranked.sort_by_key(|(_, users)| std::cmp::Reverse(users.len()));
    ranked.truncate(HOT_LINKS);
    draws.shuffle(&mut ranked);
    ranked
        .into_iter()
        .map(|(link, users)| Hot {
            link,
            detours: users
                .into_iter()
                .map(|ix| (ix, wire_bytes(topo, pairs[ix], &[(link, false)])))
                .collect(),
        })
        .collect()
}

impl Drop for Svc {
    fn drop(&mut self) {
        // The daemon joins its worker, which serves until the client
        // disconnects.
        self.conn = None;
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
        }
    }
}

impl Workload for Svc {
    fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
        self.rep(tracer, 0)
    }

    fn traced(&mut self, tracer: &mut Tracer) -> (Layers, Vec<Rep>) {
        // Plain and traced repetitions in turn, three of each: one pair
        // is too few to tell a percent of overhead from the machine
        // changing speed between them.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut cpu = 0.0;
        for round in 0..3 {
            let cpu_before = cpu_seconds();
            plain.push(self.rep(&mut Tracer::off(), round));
            cpu += cpu_seconds() - cpu_before;
            traced.push(self.rep(tracer, round));
        }
        let rate = |reps: &[Rep]| median(&reps.iter().map(Rep::ops_per_s).collect::<Vec<_>>());
        let plain_ops: u64 = plain.iter().map(|r| r.ops).sum();
        let mut layers: Layers = vec![
            (
                "trace.overhead_pct".into(),
                100.0 * (rate(&plain) - rate(&traced)) / rate(&plain),
            ),
            (
                "service.cpu_us_per_req".into(),
                cpu * 1e6 / plain_ops as f64,
            ),
        ];
        let windows = tracer.durations_ns("window");
        if let Some((p, tail)) = tail_percentile(&windows) {
            println!(
                "window of {WINDOW} latency: p50 {:.1} us, p{p} {:.1} us, n = {}",
                median(&windows) / 1e3,
                tail / 1e3,
                windows.len()
            );
        }

        // Socket-level costs on a daemon that has the working set
        // installed (svc-cold gets one of its own here).
        let (daemon, mut conn) = match self.conn.take() {
            Some(conn) => (None, conn),
            None => {
                let (daemon, conn) = self.installed_daemon();
                (Some(daemon), conn)
            }
        };
        let noops = self.scale.pick(32_768, 1_024);
        let started = Instant::now();
        for _ in 0..noops / WINDOW {
            for _ in 0..WINDOW {
                conn.send(&Request::Stats);
            }
            conn.flush();
            for _ in 0..WINDOW {
                conn.receive();
            }
        }
        let noop_us = started.elapsed().as_secs_f64() * 1e6 / noops as f64;
        layers.push(("service.noop_us".into(), noop_us));

        // Depth 1 measures the scheduler, not the daemon: reported,
        // never gated. 2000 round trips support a p99.
        let rtts: Vec<f64> = (0..2_000)
            .map(|pos| {
                let request = self.case(pos, None).0;
                let t = Instant::now();
                conn.round_trip(&request);
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        let (p, tail) = tail_percentile(&rtts).expect("2000 samples support a tail percentile");
        assert_eq!(p, 99.0, "2000 samples support exactly p99");
        layers.push(("service.rtt_p50_us.depth1".into(), median(&rtts)));
        layers.push(("service.rtt_p99_us.depth1".into(), tail));

        // Invalidate round trips: the link under the first pair's path,
        // down then up, so the daemon ends in the state it started in.
        let link = self.hot.first().map_or_else(
            || {
                let (src, dst) = self.pairs[0];
                let primary = paths::bfs_shortest_path(&self.topo, src, dst).expect("connected");
                paths::links_along(&self.topo, &primary).expect("adjacent")[1]
            },
            |h| h.link,
        );
        let invalidates: Vec<f64> = (0..64)
            .map(|i| {
                let request = Request::Invalidate {
                    link: link.0 as u32,
                    up: i % 2 == 1,
                };
                let t = Instant::now();
                conn.round_trip(&request);
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        let invalidate_us = median(&invalidates);
        layers.push(("service.invalidate_us".into(), invalidate_us));

        let Response::Stats(stats) = conn.round_trip(&Request::Stats) else {
            panic!("stats request got another response kind");
        };
        layers.push(("service.cache_hits".into(), stats.cache_hits as f64));
        layers.push(("service.cache_misses".into(), stats.cache_misses as f64));
        match daemon {
            Some(daemon) => {
                drop(conn);
                daemon.shutdown();
            }
            None => self.conn = Some(conn),
        }

        // In-process unit costs and the stage-by-stage cold replay.
        let units = tracer.span("unit_costs", 0, None, || svc_units::measure(self));
        let unit = |name: &str| layer(&units, name);
        let ops = plain[0].ops as f64;
        let broken = self.broken_reads() as f64;
        let invalidations = self
            .plan()
            .iter()
            .filter(|w| matches!(w, Window::Invalidate { .. }))
            .count() as f64;
        let encodes = ops - invalidations;
        let controller = match self.kind {
            Kind::Warm => vec![Row {
                layer: "RecoveringController::encode (warm)",
                count: encodes,
                unit_ns: unit("core.recovery.encode_warm_ns.rand1024"),
            }],
            Kind::Cold => vec![Row {
                layer: "RecoveringController::encode (cold)",
                count: encodes,
                unit_ns: unit("core.recovery.encode_cold_us.rand1024") * 1e3,
            }],
            Kind::Churn => vec![
                Row {
                    layer: "RecoveringController::encode (stale)",
                    count: encodes - broken,
                    unit_ns: unit("core.recovery.encode_stale_ns.rand1024"),
                },
                Row {
                    layer: "RecoveringController::encode (broken)",
                    count: broken,
                    unit_ns: unit("core.recovery.reencode_us.rand1024") * 1e3,
                },
                Row {
                    layer: "invalidate round trip",
                    count: invalidations,
                    unit_ns: invalidate_us * 1e3,
                },
            ],
        };
        let mut ledger = vec![
            Row {
                layer: "socket + frame + dispatch (noop)",
                count: ops,
                unit_ns: noop_us * 1e3,
            },
            Row {
                layer: "RouteHeader::to_wire",
                count: encodes,
                unit_ns: (unit("core.wire.to_wire_ns.fixed") + unit("core.wire.to_wire_ns.varint"))
                    / 2.0,
            },
        ];
        ledger.extend(controller);
        let unexplained = reconcile(
            ops / rate(&plain) * 1e9,
            &ledger,
            "two context switches per window, the daemon's table inserts and route clones \
             around the controller call, and encode frames differing in size from the noop's",
        );
        layers.push(("trace.unexplained_pct".into(), unexplained));
        layers.extend(units);
        plain.extend(traced);
        (layers, plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale { smoke: true };

    #[test]
    fn no_window_straddles_an_invalidate() {
        for (encodes, hot, every) in [
            (4096, 8, 256),
            (4096 * 3 + 100, 8, 4096),
            (1000, 3, 100),
            (256, 1, 32),
            (10, 8, 7),
        ] {
            let plan = plan(encodes, hot, every);
            let mut next = 0;
            let mut down: Option<usize> = None;
            let mut since_flap = 0;
            for (at, w) in plan.iter().enumerate() {
                match *w {
                    Window::Encodes {
                        first,
                        len,
                        down: d,
                    } => {
                        assert_eq!(first, next, "windows tile the stream");
                        assert!((1..=WINDOW).contains(&len));
                        assert_eq!(d, down, "a window sees exactly one fault state");
                        next += len;
                        since_flap += len;
                        assert!(since_flap <= every);
                    }
                    Window::Invalidate { hot: h, up } => {
                        assert!(h < hot);
                        // At most one link is down at a time, and only a
                        // down link comes up.
                        assert_eq!(down, up.then_some(h));
                        down = (!up).then_some(h);
                        // Only the closing invalidate may come early.
                        if at + 1 < plan.len() {
                            assert_eq!(since_flap, every, "a flap follows `every` encodes");
                        }
                        since_flap = 0;
                    }
                }
            }
            assert_eq!(next, encodes, "every encode is planned");
            assert_eq!(down, None, "the plan ends with every link up");
        }
    }

    #[test]
    fn without_hot_links_the_plan_is_encodes_only() {
        let plan = plan(100, 0, 0);
        assert_eq!(plan.len(), 4);
        assert!(plan
            .iter()
            .all(|w| matches!(w, Window::Encodes { down: None, .. })));
    }

    #[test]
    fn every_kind_streams_clean_and_the_daemon_agrees() {
        for kind in [Kind::Warm, Kind::Cold, Kind::Churn] {
            let mut svc = Svc::build(kind, 5, SMOKE);
            let rep = svc.repetition(&mut Tracer::off());
            assert!(rep.ops > 0);
            assert_eq!(rep.failed, 0, "{kind:?}");
            if kind == Kind::Churn {
                assert_eq!(svc.hot.len(), HOT_LINKS);
                assert!(svc.broken_reads() > 0, "flaps must break some reads");
            }
        }
    }

    #[test]
    fn one_flipped_response_byte_is_counted_and_fails_the_run() {
        let mut svc = Svc::build(Kind::Warm, 5, SMOKE);
        // Flipping a byte of the expectation is flipping that byte of
        // every response compared with it.
        svc.expected[3][0][1] ^= 0x01;
        let rep = svc.repetition(&mut Tracer::off());
        // Pair 3 comes round once per pass, in Fixed mode every other
        // pass.
        assert_eq!(rep.failed, 1);
        assert!(rep.ops_per_s() < rep.ops as f64 / rep.wall.as_secs_f64());
        let spec = crate::Spec::load();
        let run = crate::Run::timed(&spec, "svc-warm", &mut svc, vec![Duration::ZERO], 0.0, 1);
        assert!(run.failed > 0);
        assert!(!run.correct());
        assert_ne!(run.exit_code(), 0);
    }
}
