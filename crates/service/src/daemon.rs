//! The threaded control-plane daemon.
//!
//! The daemon is its workers and one lock. Each worker `accept`s on the
//! one shared listener and serves the connection it got with framed
//! blocking I/O (the workspace is offline — no async runtime; `std::net`
//! threads are the whole story), so the kernel's listen backlog is the
//! bounded, first-come-first-served accept queue. Workers share one
//! notice-driven [`Planner`] behind a mutex, so encodes are serialized
//! exactly like the in-process simulator's single-threaded edge logic —
//! a service encode and a simulator encode of the same request are the
//! same code path and produce the same bytes.
//!
//! A worker serving `invalidate` applies the transition itself, under
//! that mutex, and queues the `OK` only after [`Planner::on_link_event`]
//! ran. Every encode takes the same lock, so an encode issued after an
//! invalidate response — on any connection — sees the transition. A
//! worker that panics while holding the lock poisons it; from then on
//! `encode` and `invalidate` answer `INTERNAL` instead of running on a
//! half-updated planner, and `stats` still answers.
//!
//! A burst in is a burst out (DESIGN.md invariant 15): a worker never
//! blocks in a read while responses are unflushed and never flushes
//! while a complete request is already buffered, so a client that
//! pipelines a window of requests in one `write` is answered with one
//! `write`, and a depth-1 client sees exactly one flush per request.
//! Serving an installed pair allocates nothing: the request lands in a
//! per-connection buffer, the stored header bytes are copied under the
//! planner lock into a second one, and that goes to the socket buffer.

use crate::proto::{self, status, Request, Response, ServiceStats};
use kar::recovery::RecoveryConfig;
use kar::{
    EncodeRequest, EncodingCache, KarError, LinkView, Planner, Protection, RouteHeader, WireMode,
};
use kar_obs::{Counter, Entity, Event, EventKind, Histogram, Obs, ObsHandle};
use kar_simnet::{EdgeLogic, SimTime};
use kar_topology::{LinkId, NodeId, Topology};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of one daemon instance.
pub struct ServiceConfig {
    /// The network the controller plans routes over.
    pub topo: Topology,
    /// Worker threads serving connections.
    pub workers: usize,
    /// How long a connection may sit silent between reads before the
    /// worker closes it and moves on. Without a deadline a client that
    /// connects and never writes (or stalls mid-frame) pins its worker
    /// forever — `workers` such clients starve the whole pool. A zero
    /// duration disables the deadline (trusted-peer setups only).
    pub idle_timeout: Duration,
    /// Recovery-loop knobs. The default sets
    /// [`RecoveryConfig::notification_delay`] to zero: a service
    /// invalidate is acknowledged only once applied, so the
    /// notification's latency is already real (socket) time.
    pub recovery: RecoveryConfig,
    /// Observability bundle; invalidate events and the `service.requests`
    /// / `service.errors` / `service.idle_timeouts` counters land here,
    /// with the `service.latency_ns` histogram: frame read to response
    /// *queued* — a coalesced response reaches the socket with its
    /// burst, so the flush is not in it.
    pub obs: ObsHandle,
}

impl ServiceConfig {
    /// Defaults: 4 workers, a 30-second idle deadline, zero
    /// notification delay, no observability.
    pub fn new(topo: Topology) -> ServiceConfig {
        ServiceConfig {
            topo,
            workers: 4,
            idle_timeout: Duration::from_secs(30),
            recovery: RecoveryConfig {
                notification_delay: SimTime::ZERO,
                protection: kar::Protection::None,
            },
            obs: ObsHandle::disabled(),
        }
    }
}

/// The counts behind `stats`, one cell per event. With observability on,
/// `requests`, `errors` and `idle_timeouts` are the registry's
/// `service.*` cells, so `stats` and the dump read the same number.
struct Counters {
    requests: Counter,
    errors: Counter,
    idle_timeouts: Counter,
    encode_ok: Counter,
    encode_err: Counter,
    invalidations: Counter,
}

impl Counters {
    fn new(obs: Option<&Obs>) -> Counters {
        let cell = |name| {
            obs.map_or_else(Counter::default, |o| {
                o.metrics.counter(Entity::Global, name)
            })
        };
        Counters {
            requests: cell("service.requests"),
            errors: cell("service.errors"),
            idle_timeouts: cell("service.idle_timeouts"),
            encode_ok: Counter::default(),
            encode_err: Counter::default(),
            invalidations: Counter::default(),
        }
    }
}

/// State shared by the workers.
struct State {
    topo: Topology,
    planner: Mutex<Planner>,
    cache: Arc<EncodingCache>,
    counters: Counters,
    start: Instant,
    /// The bundle invalidate events go to, when observability is on.
    obs: Option<Arc<Obs>>,
    latency_ns: Option<Histogram>,
    idle_timeout: Option<Duration>,
}

impl State {
    fn new(config: ServiceConfig) -> State {
        let cache = Arc::new(EncodingCache::new());
        let obs = config.obs.arc();
        let planner = Planner::new()
            .with_view(LinkView::Notices(config.recovery))
            .with_encoding_cache(Arc::clone(&cache))
            .with_obs(config.obs);
        State {
            topo: config.topo,
            planner: Mutex::new(planner),
            cache,
            counters: Counters::new(obs.as_deref()),
            start: Instant::now(),
            latency_ns: obs
                .as_ref()
                .map(|o| o.metrics.histogram(Entity::Global, "service.latency_ns")),
            obs,
            idle_timeout: (!config.idle_timeout.is_zero()).then_some(config.idle_timeout),
        }
    }

    /// The planner, or an `INTERNAL` answer when a worker panicked while
    /// holding it: a half-updated planner is refused, never re-entered.
    fn planner(&self) -> Result<MutexGuard<'_, Planner>, Response> {
        self.planner.lock().map_err(|_| Response::Error {
            code: status::INTERNAL,
            message: "planner poisoned".into(),
        })
    }

    /// Wall-clock time of `at` since daemon start: the controller's clock.
    fn sim_time(&self, at: Instant) -> SimTime {
        SimTime(at.duration_since(self.start).as_nanos() as u64)
    }

    fn stats(&self) -> ServiceStats {
        let cache = self.cache.stats();
        let counters = &self.counters;
        ServiceStats {
            requests: counters.requests.get(),
            encode_ok: counters.encode_ok.get(),
            encode_err: counters.encode_err.get(),
            invalidations: counters.invalidations.get(),
            idle_timeouts: counters.idle_timeouts.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            uptime_ns: self.start.elapsed().as_nanos() as u64,
        }
    }
}

/// A running daemon. Dropping it without [`Daemon::shutdown`] detaches
/// the workers (they exit with the process).
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `127.0.0.1:0` and starts `workers` threads, each accepting
    /// on the one listener.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(config: ServiceConfig) -> io::Result<Daemon> {
        let listener = Arc::new(TcpListener::bind("127.0.0.1:0")?);
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let state = Arc::new(State::new(config));
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..workers)
            .map(|_| {
                let (state, listener, stop) = (state.clone(), listener.clone(), stop.clone());
                thread::spawn(move || worker_loop(&state, &listener, &stop))
            })
            .collect();
        Ok(Daemon {
            addr,
            stop,
            workers,
        })
    }

    /// The bound address (always loopback with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, then joins every worker. Waits for open
    /// connections to close — clients must disconnect first.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // One throwaway connection per worker: each wakes one blocking
        // accept, and a worker that accepts anything once stopped exits.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Accepts and serves one connection at a time until shutdown.
fn worker_loop(state: &State, listener: &TcpListener, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if let Ok((stream, _)) = accepted {
            let _ = serve_connection(state, stream);
        }
    }
}

/// Serves framed requests on one connection until the peer closes it
/// or stays silent past the idle deadline.
fn serve_connection(state: &State, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // The slowloris guard: every blocking read carries the deadline, so
    // a peer that connects and never writes — or stalls mid-frame —
    // cannot pin this worker past it.
    stream.set_read_timeout(state.idle_timeout)?;
    serve(state, stream.try_clone()?, stream)
}

/// The request loop over any byte stream pair (a socket's two halves;
/// in-memory ones under test), buffered here.
fn serve(state: &State, input: impl Read, output: impl Write) -> io::Result<()> {
    let mut reader = BufReader::new(input);
    let mut writer = BufWriter::new(output);
    // Reused for every request of the connection.
    let (mut request, mut response) = (Vec::new(), Vec::new());
    loop {
        match proto::read_frame_into(&mut reader, &mut request) {
            Ok(true) => {}
            Ok(false) => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                state.counters.idle_timeouts.inc();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let started = Instant::now();
        state.counters.requests.inc();
        response.clear();
        if !respond(state, &request, state.sim_time(started), &mut response) {
            state.counters.errors.inc();
        }
        proto::write_frame(&mut writer, &response)?;
        if let Some(latency_ns) = &state.latency_ns {
            latency_ns.observe(started.elapsed().as_nanos() as u64);
        }
        // Never block in a read while responses are unflushed, never
        // flush while a whole request is already here: a burst in is a
        // burst out, and a peer that waits for an answer before sending
        // the rest of a frame is not kept waiting.
        if !proto::holds_frame(reader.buffer()) {
            writer.flush()?;
        }
    }
}

/// Appends the response payload for one request payload to `out`;
/// `false` when it carries an error status.
fn respond(state: &State, request: &[u8], now: SimTime, out: &mut Vec<u8>) -> bool {
    let response = match proto::decode_request(request) {
        Ok(Request::Encode {
            src,
            dst,
            protection,
            mode,
        }) => match encode(state, (src, dst), protection, mode, now, out) {
            Ok(()) => return true,
            Err(error) => error,
        },
        Ok(Request::Invalidate { link, up }) => invalidate(state, link, up),
        Ok(Request::Stats) => Response::Stats(state.stats()),
        Err(e) => Response::Error {
            code: status::BAD_REQUEST,
            message: e.to_string(),
        },
    };
    proto::encode_response_into(&response, out);
    !matches!(response, Response::Error { .. })
}

/// Appends a whole encode-success payload to `out` — the stored header
/// bytes copied under the planner lock, nothing cloned — or returns the
/// error response, `out` untouched.
fn encode(
    state: &State,
    (src, dst): (u32, u32),
    protection: Protection,
    mode: WireMode,
    now: SimTime,
    out: &mut Vec<u8>,
) -> Result<(), Response> {
    let nodes = state.topo.node_count();
    let outcome = if src as usize >= nodes || dst as usize >= nodes {
        Err(Response::Error {
            code: status::BAD_REQUEST,
            message: format!("node index out of range (topology has {nodes} nodes)"),
        })
    } else {
        let request = EncodeRequest::new(NodeId(src as usize), NodeId(dst as usize))
            .with_protection(protection);
        state.planner().and_then(|mut planner| {
            planner
                .encode_with(&state.topo, &request, now, |header| {
                    out.extend_from_slice(&proto::HEADER_RESPONSE_PREFIX);
                    header.to_wire_into(mode, out);
                })
                .map_err(|e| Response::Error {
                    code: match e {
                        KarError::NoPath { .. } => status::NO_PATH,
                        _ => status::ENCODE_FAILED,
                    },
                    message: e.to_string(),
                })
        })
    };
    let counter = match outcome {
        Ok(()) => &state.counters.encode_ok,
        Err(_) => &state.counters.encode_err,
    };
    counter.inc();
    outcome
}

/// Applies a link transition to the planner and records it, all under
/// the planner lock: the `OK` is queued only afterwards, so it is a
/// happens-before barrier for every later encode.
fn invalidate(state: &State, link: u32, up: bool) -> Response {
    if link as usize >= state.topo.link_count() {
        return Response::Error {
            code: status::BAD_REQUEST,
            message: format!(
                "link index out of range (topology has {} links)",
                state.topo.link_count()
            ),
        };
    }
    let mut planner = match state.planner() {
        Ok(planner) => planner,
        Err(poisoned) => return poisoned,
    };
    // Read under the lock, so notices reach the planner in time order.
    let now = state.sim_time(Instant::now());
    let link = LinkId(link as usize);
    planner.on_link_event(&state.topo, link, up, now);
    if let Some(obs) = &state.obs {
        let (kind, span) = if up {
            (EventKind::Repair, obs.spans.fresh())
        } else {
            (EventKind::Fault, obs.spans.fault(link.0 as u32))
        };
        obs.events.push(Event {
            aux: link.0 as u64,
            tag: "service",
            span: Some(span),
            ..Event::new(now.as_nanos(), kind)
        });
    }
    state.counters.invalidations.inc();
    Response::Ok
}

/// Re-encodes `req` in-process exactly as the daemon would, returning
/// the route header. Test and load-tool helper for byte-identity
/// checks: `expected_header(..).to_wire(mode)` must equal the encode
/// response body for a daemon in the same controller state.
///
/// # Errors
///
/// See [`Planner::encode`].
pub fn expected_header(
    topo: &Topology,
    req: &EncodeRequest,
    recovery: RecoveryConfig,
    faults: &[(LinkId, bool)],
) -> Result<RouteHeader, KarError> {
    let mut rc = Planner::new().with_view(LinkView::Notices(recovery));
    let mut now = SimTime::ZERO;
    for &(link, up) in faults {
        rc.on_link_event(topo, link, up, now);
        now = SimTime(now.0 + 1);
    }
    Ok(rc.encode(topo, req, SimTime(now.0 + 1))?.header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_topology::topo15;

    /// The far side of a connection: counts what reaches it.
    #[derive(Default)]
    struct Socket {
        bytes: Vec<u8>,
        writes: usize,
        flushes: usize,
    }

    impl Write for Socket {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// A peer at depth 1: every `read` yields exactly one more frame.
    struct OneFrameARead<'a>(std::slice::Iter<'a, Vec<u8>>);

    impl Read for OneFrameARead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(frame) = self.0.next() else {
                return Ok(0);
            };
            buf[..frame.len()].copy_from_slice(frame);
            Ok(frame.len())
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        proto::write_frame(&mut out, payload).unwrap();
        out
    }

    /// 30 encodes over topo15's edges in both wire modes, one request
    /// for a node that does not exist and one that does not parse.
    fn window_of_32(topo: &Topology) -> Vec<Vec<u8>> {
        let edges = topo.edge_nodes();
        let pairs = edges
            .iter()
            .flat_map(|&s| edges.iter().map(move |&d| (s, d)))
            .filter(|(s, d)| s != d);
        let mut frames: Vec<Vec<u8>> = (0..30)
            .zip(pairs.cycle())
            .map(|(i, (src, dst))| {
                let request = Request::Encode {
                    src: src.0 as u32,
                    dst: dst.0 as u32,
                    protection: Protection::None,
                    mode: [WireMode::Fixed, WireMode::Varint][i % 2],
                };
                frame(&proto::encode_request(&request).unwrap())
            })
            .collect();
        let nowhere = Request::Encode {
            src: 10_000,
            dst: 0,
            protection: Protection::None,
            mode: WireMode::Fixed,
        };
        frames.insert(7, frame(&proto::encode_request(&nowhere).unwrap()));
        frames.insert(
            19,
            frame(&[proto::PROTOCOL_VERSION + 1, proto::opcode::STATS]),
        );
        frames
    }

    /// Serves `input` on a fresh topo15 daemon state with observability
    /// on; returns how the loop ended, what the far side saw and the
    /// metrics.
    fn served(input: impl Read) -> (io::Result<()>, Socket, Arc<Obs>) {
        let mut config = ServiceConfig::new(topo15::build());
        config.obs = ObsHandle::enabled();
        let obs = config.obs.arc().unwrap();
        let mut socket = Socket::default();
        let ended = serve(&State::new(config), input, &mut socket);
        (ended, socket, obs)
    }

    /// Every response in `bytes`, decoded, in order.
    fn responses(mut bytes: &[u8]) -> Vec<Response> {
        let mut out = Vec::new();
        while let Some(payload) = proto::read_frame(&mut bytes).unwrap() {
            out.push(proto::decode_response(&payload).unwrap());
        }
        out
    }

    /// The paper's AS1 -> AS3 encode on topo15 and the invalidates of
    /// SW7-SW13, a link under its route, as frames: `[encode, down, up]`.
    fn encode_down_up(topo: &Topology) -> [Vec<u8>; 3] {
        let encode = Request::Encode {
            src: topo.expect("AS1").0 as u32,
            dst: topo.expect("AS3").0 as u32,
            protection: Protection::None,
            mode: WireMode::Fixed,
        };
        let link = topo.expect_link("SW7", "SW13").0 as u32;
        [
            encode,
            Request::Invalidate { link, up: false },
            Request::Invalidate { link, up: true },
        ]
        .map(|request| frame(&proto::encode_request(&request).unwrap()))
    }

    #[test]
    fn a_burst_in_is_a_burst_out_and_depth_one_is_answered_per_request() {
        let frames = window_of_32(&topo15::build());
        assert_eq!(frames.len(), 32);
        let (ended, burst, obs) = served(&frames.concat()[..]);
        ended.expect("a clean EOF at a frame boundary");
        assert_eq!(
            (burst.writes, burst.flushes),
            (1, 1),
            "32 requests in one read are answered in one write"
        );
        let (_, stepped, _) = served(OneFrameARead(frames.iter()));
        assert_eq!(
            (stepped.writes, stepped.flushes),
            (32, 32),
            "a peer that waits for each answer gets each at once"
        );
        assert_eq!(burst.bytes, stepped.bytes, "same bytes, same order");

        let mut answers = &burst.bytes[..];
        let mut errors = Vec::new();
        for i in 0..32 {
            let payload = proto::read_frame(&mut answers).unwrap().unwrap();
            match proto::decode_response(&payload).unwrap() {
                Response::Header(_) => {}
                Response::Error { code, .. } => errors.push((i, code)),
                other => panic!("request {i}: {other:?}"),
            }
        }
        assert_eq!(
            errors,
            [(7, status::BAD_REQUEST), (19, status::BAD_REQUEST)],
            "responses come in request order"
        );
        assert!(answers.is_empty());

        // The pre-resolved handles record what the by-name lookups did.
        let count = |name| obs.metrics.counter(Entity::Global, name).get();
        assert_eq!(count("service.requests"), 32);
        assert_eq!(count("service.errors"), 2);
        assert_eq!(count("service.idle_timeouts"), 0);
        let latency = obs.metrics.histogram(Entity::Global, "service.latency_ns");
        assert_eq!(latency.count(), 32);
    }

    #[test]
    fn a_request_and_a_half_is_answered_before_the_second_half_is_awaited() {
        let frames = window_of_32(&topo15::build());
        let mut input = frames[0].clone();
        input.extend_from_slice(&frames[1][..7]);
        // The peer closes mid-frame: an error, after the first answer
        // was written *and* flushed.
        let (ended, socket, _) = served(&input[..]);
        assert_eq!(ended.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!((socket.writes, socket.flushes), (1, 1));
        let payload = proto::read_frame(&mut &socket.bytes[..]).unwrap().unwrap();
        assert!(matches!(
            proto::decode_response(&payload),
            Ok(Response::Header(_))
        ));
    }

    #[test]
    fn an_encode_queued_behind_an_invalidate_in_the_same_burst_sees_it() {
        let topo = topo15::build();
        let [encode, down, up] = encode_down_up(&topo);
        let burst = [&encode, &down, &encode, &up, &encode]
            .map(|f| &f[..])
            .concat();
        let config = ServiceConfig::new(topo.clone());
        let recovery = config.recovery.clone();
        let mut socket = Socket::default();
        serve(&State::new(config), &burst[..], &mut socket).expect("a clean EOF");
        assert_eq!(
            (socket.writes, socket.flushes),
            (1, 1),
            "five requests in one read are answered in one write"
        );

        let failed = topo.expect_link("SW7", "SW13");
        let request = EncodeRequest::new(topo.expect("AS1"), topo.expect("AS3"));
        let header = |faults: &[(LinkId, bool)]| {
            let expected = expected_header(&topo, &request, recovery.clone(), faults).unwrap();
            Response::Header(expected.to_wire(WireMode::Fixed))
        };
        let detour = header(&[(failed, false)]);
        assert_ne!(detour, header(&[]), "SW7-SW13 is under the route");
        assert_eq!(
            responses(&socket.bytes),
            [
                header(&[]),
                Response::Ok,
                detour,
                Response::Ok,
                header(&[(failed, false), (failed, true)]),
            ]
        );
    }

    #[test]
    fn a_poisoned_planner_is_refused_and_stats_still_answers() {
        let topo = topo15::build();
        let state = State::new(ServiceConfig::new(topo.clone()));
        thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let _planner = state.planner();
                panic!("a worker dies holding the planner");
            });
            assert!(worker.join().is_err());
        });
        let [encode, down, _] = encode_down_up(&topo);
        let stats = frame(&proto::encode_request(&Request::Stats).unwrap());
        let burst = [encode, down, stats].concat();
        let mut socket = Socket::default();
        serve(&state, &burst[..], &mut socket).expect("a clean EOF");

        let refused = Response::Error {
            code: status::INTERNAL,
            message: "planner poisoned".into(),
        };
        let answers = responses(&socket.bytes);
        assert_eq!(answers[..2], [refused.clone(), refused]);
        let Response::Stats(stats) = &answers[2] else {
            panic!("stats answers on a poisoned planner: {:?}", answers[2]);
        };
        assert_eq!(
            (stats.requests, stats.encode_ok, stats.encode_err),
            (3, 0, 1)
        );
        assert_eq!(
            stats.invalidations, 0,
            "the refused transition was not applied"
        );
    }
}
