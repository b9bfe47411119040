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

use crate::proto::{self, status, Request, Response, ServiceStats};
use kar::recovery::RecoveryConfig;
use kar::{EncodeRequest, EncodingCache, KarError, LinkView, Planner, RouteHeader};
use kar_obs::{Entity, Event, EventKind, ObsHandle};
use kar_simnet::{EdgeLogic, SimTime};
use kar_topology::{LinkId, NodeId, Topology};
use std::io::{self, BufReader, BufWriter, Write};
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
    /// Observability bundle; request counters/latency histograms and
    /// invalidate events land here.
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

/// State shared by the workers and the control thread.
struct State {
    topo: Topology,
    controller: Mutex<Planner>,
    cache: Arc<EncodingCache>,
    counters: Counters,
    start: Instant,
    obs: ObsHandle,
    idle_timeout: Option<Duration>,
}

impl State {
    /// Wall-clock time since daemon start as the controller's clock.
    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_nanos() as u64)
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
        let mut controller = Planner::new()
            .with_view(LinkView::Notices(config.recovery))
            .with_encoding_cache(Arc::clone(&config.cache));
        if config.obs.is_enabled() {
            controller = controller.with_obs(config.obs.clone());
        }
        let state = Arc::new(State {
            topo: config.topo,
            controller: Mutex::new(controller),
            cache: config.cache,
            counters: Counters::default(),
            start: Instant::now(),
            obs: config.obs,
            idle_timeout: (!config.idle_timeout.is_zero()).then_some(config.idle_timeout),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (fault_tx, fault_rx) = mpsc::channel::<FaultMsg>();
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut threads = Vec::new();
        threads.push(thread::spawn({
            let state = Arc::clone(&state);
            move || control_loop(state, fault_rx)
        }));
        for _ in 0..config.workers.max(1) {
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
        let now = state.now();
        {
            let mut rc = state
                .controller
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            rc.on_link_event(&state.topo, msg.link, msg.up, now);
        }
        if let Some(obs) = state.obs.get() {
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
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match proto::read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                state.counters.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = state.obs.get() {
                    obs.metrics
                        .counter(Entity::Global, "service.idle_timeouts")
                        .inc();
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let started = Instant::now();
        state.counters.requests.fetch_add(1, Ordering::Relaxed);
        let response = match proto::decode_request(&payload) {
            Ok(req) => handle(state, fault_tx, req),
            Err(e) => Response::Error {
                code: status::BAD_REQUEST,
                message: e.to_string(),
            },
        };
        proto::write_frame(&mut writer, &proto::encode_response(&response))?;
        writer.flush()?;
        if let Some(obs) = state.obs.get() {
            obs.metrics
                .counter(Entity::Global, "service.requests")
                .inc();
            obs.metrics
                .histogram(Entity::Global, "service.latency_ns")
                .observe(started.elapsed().as_nanos() as u64);
            if matches!(response, Response::Error { .. }) {
                obs.metrics.counter(Entity::Global, "service.errors").inc();
            }
        }
    }
}

fn handle(state: &State, fault_tx: &mpsc::Sender<FaultMsg>, req: Request) -> Response {
    match req {
        Request::Encode {
            src,
            dst,
            protection,
            mode,
        } => {
            let nodes = state.topo.node_count();
            if src as usize >= nodes || dst as usize >= nodes {
                state.counters.encode_err.fetch_add(1, Ordering::Relaxed);
                return Response::Error {
                    code: status::BAD_REQUEST,
                    message: format!("node index out of range (topology has {nodes} nodes)"),
                };
            }
            let request = EncodeRequest::new(NodeId(src as usize), NodeId(dst as usize))
                .with_protection(protection);
            let now = state.now();
            let outcome = {
                let mut rc = state
                    .controller
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                rc.encode(&state.topo, &request, now)
            };
            match outcome {
                Ok(outcome) => {
                    state.counters.encode_ok.fetch_add(1, Ordering::Relaxed);
                    Response::Header(outcome.header.to_wire(mode))
                }
                Err(e) => {
                    state.counters.encode_err.fetch_add(1, Ordering::Relaxed);
                    let code = match e {
                        KarError::NoPath { .. } => status::NO_PATH,
                        _ => status::ENCODE_FAILED,
                    };
                    Response::Error {
                        code,
                        message: e.to_string(),
                    }
                }
            }
        }
        Request::Invalidate { link, up } => {
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
        Request::Stats => Response::Stats(state.stats()),
    }
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
