//! The threaded control-plane daemon.
//!
//! One listener thread accepts connections and hands them to a fixed
//! worker pool over a channel; each worker serves one connection at a
//! time with framed blocking I/O (the workspace is offline — no async
//! runtime; `std::net` threads are the whole story). Workers share one
//! notice-driven [`Planner`] behind a mutex, so encodes are serialized
//! exactly like the in-process simulator's single-threaded edge logic —
//! a service encode and a simulator encode of the same request are the
//! same code path and produce the same bytes.
//!
//! Fault notifications take the explicit control channel: a worker
//! serving `invalidate` does not mutate the controller itself but sends
//! the transition to a dedicated control thread and waits for its ack
//! (the controller/datapath split, kept observable). Because the ack
//! returns only after [`Planner::on_link_event`] ran, an
//! encode issued after an invalidate response — on any connection —
//! is guaranteed to see the transition.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// invalidate is acknowledged only once applied, so the control
    /// channel's latency is already real (socket) time.
    pub recovery: RecoveryConfig,
    /// Shared route-encoding memo (expose one cache across daemon and
    /// in-process users to share encodes).
    pub cache: Arc<EncodingCache>,
    /// Observability bundle; invalidate events and the `service.requests`
    /// / `service.errors` / `service.idle_timeouts` counters land here,
    /// with the `service.latency_ns` histogram: frame read to response
    /// *queued* — a coalesced response reaches the socket with its
    /// burst, so the flush is not in it.
    pub obs: ObsHandle,
}

impl ServiceConfig {
    /// Defaults: 4 workers, a 30-second idle deadline, zero
    /// notification delay, a fresh cache, no observability.
    pub fn new(topo: Topology) -> ServiceConfig {
        ServiceConfig {
            topo,
            workers: 4,
            idle_timeout: Duration::from_secs(30),
            recovery: RecoveryConfig {
                notification_delay: SimTime::ZERO,
                protection: kar::Protection::None,
            },
            cache: Arc::new(EncodingCache::new()),
            obs: ObsHandle::disabled(),
        }
    }
}

/// Counters shared by every worker.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    encode_ok: AtomicU64,
    encode_err: AtomicU64,
    invalidations: AtomicU64,
    idle_timeouts: AtomicU64,
}

/// A link transition in flight on the control channel.
struct FaultMsg {
    link: LinkId,
    up: bool,
    ack: mpsc::SyncSender<()>,
}

/// The observability bundle with the per-request instruments resolved
/// once (a registry lookup locks and hashes; recording does neither).
struct ServiceObs {
    bundle: Arc<Obs>,
    requests: Counter,
    errors: Counter,
    idle_timeouts: Counter,
    latency_ns: Histogram,
}

impl ServiceObs {
    fn resolve(handle: &ObsHandle) -> Option<ServiceObs> {
        let bundle = handle.arc()?;
        let counter = |name| bundle.metrics.counter(Entity::Global, name);
        Some(ServiceObs {
            requests: counter("service.requests"),
            errors: counter("service.errors"),
            idle_timeouts: counter("service.idle_timeouts"),
            latency_ns: bundle
                .metrics
                .histogram(Entity::Global, "service.latency_ns"),
            bundle,
        })
    }
}

/// State shared by the workers and the control thread.
struct State {
    topo: Topology,
    controller: Mutex<Planner>,
    cache: Arc<EncodingCache>,
    counters: Counters,
    start: Instant,
    obs: Option<ServiceObs>,
    idle_timeout: Option<Duration>,
}

impl State {
    fn new(config: ServiceConfig) -> State {
        let mut controller = Planner::new()
            .with_view(LinkView::Notices(config.recovery))
            .with_encoding_cache(Arc::clone(&config.cache));
        if config.obs.is_enabled() {
            controller = controller.with_obs(config.obs.clone());
        }
        State {
            topo: config.topo,
            controller: Mutex::new(controller),
            cache: config.cache,
            counters: Counters::default(),
            start: Instant::now(),
            obs: ServiceObs::resolve(&config.obs),
            idle_timeout: (!config.idle_timeout.is_zero()).then_some(config.idle_timeout),
        }
    }

    /// Wall-clock time of `at` since daemon start: the controller's clock.
    fn sim_time(&self, at: Instant) -> SimTime {
        SimTime(at.duration_since(self.start).as_nanos() as u64)
    }

    fn stats(&self) -> ServiceStats {
        let cache = self.cache.stats();
        ServiceStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            encode_ok: self.counters.encode_ok.load(Ordering::Relaxed),
            encode_err: self.counters.encode_err.load(Ordering::Relaxed),
            invalidations: self.counters.invalidations.load(Ordering::Relaxed),
            idle_timeouts: self.counters.idle_timeouts.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            uptime_ns: self.start.elapsed().as_nanos() as u64,
        }
    }
}

/// A running daemon. Dropping it without [`Daemon::shutdown`] detaches
/// the threads (they exit with the process).
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `127.0.0.1:0` and starts the listener, worker pool and
    /// control thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(config: ServiceConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let state = Arc::new(State::new(config));
        let stop = Arc::new(AtomicBool::new(false));
        let (fault_tx, fault_rx) = mpsc::channel::<FaultMsg>();
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut threads = Vec::new();
        threads.push(thread::spawn({
            let state = Arc::clone(&state);
            move || control_loop(state, fault_rx)
        }));
        for _ in 0..workers {
            let state = Arc::clone(&state);
            let conn_rx = Arc::clone(&conn_rx);
            let fault_tx = fault_tx.clone();
            threads.push(thread::spawn(move || worker_loop(state, conn_rx, fault_tx)));
        }
        // The workers hold the only fault senders now; when they exit,
        // the control thread's receiver disconnects and it exits too.
        drop(fault_tx);
        threads.push(thread::spawn({
            let stop = Arc::clone(&stop);
            move || listen_loop(listener, conn_tx, stop)
        }));
        Ok(Daemon {
            addr,
            stop,
            threads,
        })
    }

    /// The bound address (always loopback with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, then joins every thread. Waits for open
    /// connections to close — clients must disconnect first.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn listen_loop(listener: TcpListener, conn_tx: mpsc::Sender<TcpStream>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if conn_tx.send(stream).is_err() {
            break;
        }
    }
    // Dropping conn_tx disconnects the workers' queue.
}

fn control_loop(state: Arc<State>, fault_rx: mpsc::Receiver<FaultMsg>) {
    while let Ok(msg) = fault_rx.recv() {
        let now = state.sim_time(Instant::now());
        {
            let mut rc = state
                .controller
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            rc.on_link_event(&state.topo, msg.link, msg.up, now);
        }
        if let Some(obs) = state.obs.as_ref().map(|o| &o.bundle) {
            let (kind, span) = if msg.up {
                (EventKind::Repair, obs.spans.fresh())
            } else {
                (EventKind::Fault, obs.spans.fault(msg.link.0 as u32))
            };
            obs.events.push(Event {
                aux: msg.link.0 as u64,
                tag: "service",
                span: Some(span),
                ..Event::new(now.as_nanos(), kind)
            });
        }
        // Ack only after the controller saw the transition: the
        // invalidate response is a happens-before barrier for every
        // later encode.
        let _ = msg.ack.send(());
    }
}

fn worker_loop(
    state: Arc<State>,
    conn_rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>,
    fault_tx: mpsc::Sender<FaultMsg>,
) {
    loop {
        let stream = {
            let rx = conn_rx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            rx.recv()
        };
        match stream {
            Ok(stream) => {
                let _ = serve_connection(&state, &fault_tx, stream);
            }
            Err(_) => return, // listener gone: shutdown
        }
    }
}

/// Serves framed requests on one connection until the peer closes it
/// or stays silent past the idle deadline.
fn serve_connection(
    state: &State,
    fault_tx: &mpsc::Sender<FaultMsg>,
    stream: TcpStream,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // The slowloris guard: every blocking read carries the deadline, so
    // a peer that connects and never writes — or stalls mid-frame —
    // cannot pin this worker past it.
    stream.set_read_timeout(state.idle_timeout)?;
    serve(state, fault_tx, stream.try_clone()?, stream)
}

/// The request loop over any byte stream pair (a socket's two halves;
/// in-memory ones under test), buffered here.
fn serve(
    state: &State,
    fault_tx: &mpsc::Sender<FaultMsg>,
    input: impl Read,
    output: impl Write,
) -> io::Result<()> {
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
                state.counters.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &state.obs {
                    obs.idle_timeouts.inc();
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let started = Instant::now();
        state.counters.requests.fetch_add(1, Ordering::Relaxed);
        response.clear();
        let ok = respond(
            state,
            fault_tx,
            &request,
            state.sim_time(started),
            &mut response,
        );
        proto::write_frame(&mut writer, &response)?;
        if let Some(obs) = &state.obs {
            obs.requests.inc();
            obs.latency_ns.observe(started.elapsed().as_nanos() as u64);
            if !ok {
                obs.errors.inc();
            }
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
fn respond(
    state: &State,
    fault_tx: &mpsc::Sender<FaultMsg>,
    request: &[u8],
    now: SimTime,
    out: &mut Vec<u8>,
) -> bool {
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
        Ok(Request::Invalidate { link, up }) => invalidate(state, fault_tx, link, up),
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
        let mut rc = state
            .controller
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rc.encode_with(&state.topo, &request, now, |header| {
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
    };
    let counter = match outcome {
        Ok(()) => &state.counters.encode_ok,
        Err(_) => &state.counters.encode_err,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    outcome
}

/// Hands a link transition to the control thread and waits for its ack.
fn invalidate(state: &State, fault_tx: &mpsc::Sender<FaultMsg>, link: u32, up: bool) -> Response {
    if link as usize >= state.topo.link_count() {
        return Response::Error {
            code: status::BAD_REQUEST,
            message: format!(
                "link index out of range (topology has {} links)",
                state.topo.link_count()
            ),
        };
    }
    let (ack_tx, ack_rx) = mpsc::sync_channel(1);
    let sent = fault_tx.send(FaultMsg {
        link: LinkId(link as usize),
        up,
        ack: ack_tx,
    });
    if sent.is_err() || ack_rx.recv().is_err() {
        return Response::Error {
            code: status::INTERNAL,
            message: "fault channel closed".into(),
        };
    }
    state.counters.invalidations.fetch_add(1, Ordering::Relaxed);
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
        let state = State::new(config);
        // No invalidate is sent, so nobody needs to serve the channel.
        let (fault_tx, _fault_rx) = mpsc::channel();
        let mut socket = Socket::default();
        let ended = serve(&state, &fault_tx, input, &mut socket);
        (ended, socket, obs)
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
}
