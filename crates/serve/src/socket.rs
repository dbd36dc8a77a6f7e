//! The live front end: a TCP or Unix-socket JSONL server with bounded
//! queues, read deadlines, load shedding, and graceful drain.
//!
//! Architecture: an acceptor thread polls a non-blocking listener and
//! spawns one handler thread per connection. Handlers parse lines and
//! submit jobs over a *bounded* `sync_channel` to a single worker thread
//! that owns the [`SolverPool`] — when the channel is full the handler
//! sheds the request immediately with a typed response instead of
//! blocking. Every read carries a socket deadline, so a stalled client
//! cannot wedge a handler, and every request is answered inside a fault
//! cell, so a poisoned query cannot take the worker down.
//!
//! Shutdown is graceful by construction: the admin line
//! `{"op":"shutdown"}` (or [`ServerHandle::shutdown_and_join`]) flips the
//! shutdown flag; the acceptor stops accepting and joins its handlers,
//! handlers finish their in-flight lines, and the worker drains every
//! queued job before exiting — no request that was accepted goes
//! unanswered.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use mcpb_trace::Stopwatch;

use crate::admission::{AdmissionConfig, LoadModel};
use crate::engine::answer_request;
use crate::proto::{parse_request_bytes, Response, Verdict};
use crate::state::{ServeState, SolverPool};

/// Socket server knobs.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Endpoint: `tcp:HOST:PORT` (port 0 picks a free port) or
    /// `unix:/path/to.sock`.
    pub endpoint: String,
    /// Bounded job-queue depth between handlers and the worker; a full
    /// queue sheds.
    pub queue_depth: usize,
    /// Per-connection socket read deadline.
    pub read_timeout_ms: u64,
    /// Admission thresholds (degrade ladder on top of queue shedding).
    pub admission: AdmissionConfig,
    /// Attempts per query cell.
    pub max_attempts: u32,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            endpoint: "tcp:127.0.0.1:0".to_string(),
            queue_depth: 32,
            read_timeout_ms: 2_000,
            admission: AdmissionConfig::default(),
            max_attempts: 2,
        }
    }
}

/// Aggregate counters, maintained with `SeqCst` stores — contention is
/// per-response, not per-edge, so the strongest ordering costs nothing
/// that matters here.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    served: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
}

/// What the server did over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Request lines received (excluding admin lines).
    pub requests: u64,
    /// Clean serves.
    pub served: u64,
    /// Degraded answers.
    pub degraded: u64,
    /// Shed refusals (admission plus full-queue).
    pub shed: u64,
    /// Typed error responses.
    pub errors: u64,
}

impl ServerStats {
    /// True when every received request got exactly one response.
    pub fn drained_clean(&self) -> bool {
        self.requests == self.served + self.degraded + self.shed + self.errors
    }
}

/// Errors surfaced while standing the server up.
#[derive(Debug)]
pub enum ServeSocketError {
    /// The endpoint string is not `tcp:...` or `unix:...`.
    BadEndpoint(String),
    /// Binding the listener failed.
    Bind(std::io::Error),
}

impl std::fmt::Display for ServeSocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeSocketError::BadEndpoint(e) => {
                write!(f, "bad endpoint `{e}` (want tcp:HOST:PORT or unix:/path)")
            }
            ServeSocketError::Bind(e) => write!(f, "bind failed: {e}"),
        }
    }
}

impl std::error::Error for ServeSocketError {}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, String),
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown_and_join`].
pub struct ServerHandle {
    /// Resolved endpoint (`tcp:127.0.0.1:PORT` with the real port).
    endpoint: String,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    acceptor: Option<thread::JoinHandle<()>>,
    worker: Option<thread::JoinHandle<SolverPool>>,
}

impl ServerHandle {
    /// The resolved endpoint clients should dial.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// True once a drain has been requested — by an admin
    /// `{"op":"shutdown"}` line or a local shutdown call.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain and blocks until the acceptor, every
    /// connection handler, and the worker have exited. Returns the solver
    /// pool and lifetime stats.
    pub fn shutdown_and_join(mut self) -> (SolverPool, ServerStats) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let pool = self
            .worker
            .take()
            .expect("invariant: worker joined exactly once")
            .join()
            .expect("invariant: worker thread never panics (cells isolate faults)");
        let stats = ServerStats {
            requests: self.counters.requests.load(Ordering::SeqCst),
            served: self.counters.served.load(Ordering::SeqCst),
            degraded: self.counters.degraded.load(Ordering::SeqCst),
            shed: self.counters.shed.load(Ordering::SeqCst),
            errors: self.counters.errors.load(Ordering::SeqCst),
        };
        (pool, stats)
    }
}

struct Job {
    line: Vec<u8>,
    resp_tx: mpsc::SyncSender<String>,
}

/// Binds the configured endpoint and serves until shut down. The state is
/// shared read-only across threads; the pool moves into the worker thread
/// and comes back from [`ServerHandle::shutdown_and_join`].
pub fn serve_listener(
    state: Arc<ServeState>,
    pool: SolverPool,
    cfg: &SocketConfig,
) -> Result<ServerHandle, ServeSocketError> {
    let (listener, endpoint) = bind(&cfg.endpoint)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    // Bounded: a full queue sheds instead of buffering without limit.
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(cfg.queue_depth.max(1));

    let worker = {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        let admission = cfg.admission;
        let max_attempts = cfg.max_attempts;
        thread::spawn(move || {
            worker_loop(
                state,
                pool,
                job_rx,
                shutdown,
                counters,
                admission,
                max_attempts,
            )
        })
    };

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        let read_timeout = Duration::from_millis(cfg.read_timeout_ms.max(1));
        thread::spawn(move || accept_loop(listener, job_tx, shutdown, counters, read_timeout))
    };

    Ok(ServerHandle {
        endpoint,
        shutdown,
        counters,
        acceptor: Some(acceptor),
        worker: Some(worker),
    })
}

fn bind(endpoint: &str) -> Result<(Listener, String), ServeSocketError> {
    if let Some(addr) = endpoint.strip_prefix("tcp:") {
        let l = TcpListener::bind(addr).map_err(ServeSocketError::Bind)?;
        let resolved = l
            .local_addr()
            .map(|a| format!("tcp:{a}"))
            .unwrap_or_else(|_| endpoint.to_string());
        Ok((Listener::Tcp(l), resolved))
    } else if let Some(path) = endpoint.strip_prefix("unix:") {
        // A stale socket file from a previous run would fail the bind.
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path).map_err(ServeSocketError::Bind)?;
        Ok((Listener::Unix(l, path.to_string()), endpoint.to_string()))
    } else {
        Err(ServeSocketError::BadEndpoint(endpoint.to_string()))
    }
}

fn accept_loop(
    listener: Listener,
    job_tx: mpsc::SyncSender<Job>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    read_timeout: Duration,
) {
    match &listener {
        Listener::Tcp(l) => l
            .set_nonblocking(true)
            .expect("invariant: nonblocking mode is supported on TCP listeners"),
        Listener::Unix(l, _) => l
            .set_nonblocking(true)
            .expect("invariant: nonblocking mode is supported on unix listeners"),
    }
    // Monomorphized per stream type, so no per-connection trait-object box.
    fn spawn_handler<S: ConnStream + 'static>(
        s: S,
        job_tx: &mpsc::SyncSender<Job>,
        shutdown: &Arc<AtomicBool>,
        counters: &Arc<Counters>,
        handlers: &mut Vec<thread::JoinHandle<()>>,
    ) {
        let job_tx = job_tx.clone();
        let shutdown = Arc::clone(shutdown);
        let counters = Arc::clone(counters);
        handlers.push(thread::spawn(move || {
            handle_connection(s, job_tx, shutdown, counters)
        }));
    }

    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        let accepted = match &listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    // Responses are single small writes; Nagle would hold
                    // each one until the previous segment is acknowledged.
                    let _ = s.set_nodelay(true);
                    let _ = s.set_nonblocking(false);
                    let _ = s.set_read_timeout(Some(read_timeout));
                    let _ = s.set_write_timeout(Some(read_timeout));
                    spawn_handler(s, &job_tx, &shutdown, &counters, &mut handlers);
                    true
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                Err(_) => false,
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => {
                    let _ = s.set_nonblocking(false);
                    let _ = s.set_read_timeout(Some(read_timeout));
                    let _ = s.set_write_timeout(Some(read_timeout));
                    spawn_handler(s, &job_tx, &shutdown, &counters, &mut handlers);
                    true
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                Err(_) => false,
            },
        };
        if !accepted {
            thread::sleep(Duration::from_millis(2));
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    if let Listener::Unix(_, path) = listener {
        let _ = std::fs::remove_file(path);
    }
    // Dropping the last `job_tx` clone lets the worker observe disconnect
    // after the queue drains.
}

trait ConnStream: std::io::Read + Write + Send {}
impl<T: std::io::Read + Write + Send> ConnStream for T {}

fn handle_connection<S: ConnStream>(
    stream: S,
    job_tx: mpsc::SyncSender<Job>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // audit: deadline-ok(the socket carries a read timeout set at accept time)
        let n = match reader.read_line(&mut line) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Stalled or idle client: drop the connection rather than
                // pin a handler thread forever.
                break;
            }
            Err(_) => break,
        };
        if n == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "{\"op\":\"shutdown\"}" {
            shutdown.store(true, Ordering::SeqCst);
            let _ = write_line(reader.get_mut(), "{\"ok\":\"draining\"}".to_string());
            break;
        }
        counters.requests.fetch_add(1, Ordering::SeqCst);
        let (resp_tx, resp_rx) = mpsc::sync_channel::<String>(1);
        let job = Job {
            line: trimmed.as_bytes().to_vec(),
            resp_tx,
        };
        let body = match job_tx.try_send(job) {
            Ok(()) => match resp_rx.recv_timeout(Duration::from_secs(60)) {
                Ok(body) => body,
                Err(_) => {
                    counters.errors.fetch_add(1, Ordering::SeqCst);
                    "{\"verdict\":\"error\",\"reason\":\"worker gone\"}".to_string()
                }
            },
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                // Bounded queue is full (or the server is draining): shed
                // at the door, costing the worker nothing.
                counters.shed.fetch_add(1, Ordering::SeqCst);
                "{\"verdict\":\"shed\",\"reason\":\"queue full\"}".to_string()
            }
        };
        if write_line(reader.get_mut(), body).is_err() {
            break;
        }
    }
}

/// Writes `body` and its newline with one `write_all`. Two writes would
/// send the newline in a second segment that, on a connection carrying
/// back-to-back requests, waits for the client's delayed ACK.
fn write_line(stream: &mut impl Write, mut body: String) -> std::io::Result<()> {
    body.push('\n');
    stream.write_all(body.as_bytes())
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    state: Arc<ServeState>,
    mut pool: SolverPool,
    job_rx: mpsc::Receiver<Job>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    admission: AdmissionConfig,
    max_attempts: u32,
) -> SolverPool {
    let load = Mutex::new(LoadModel::new(admission));
    let mut seq = 0usize;
    loop {
        match job_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => {
                seq += 1;
                let sw = Stopwatch::start();
                let mut resp = match parse_request_bytes(&job.line) {
                    Ok(req) => {
                        let verdict = {
                            let mut l = load
                                .lock()
                                .expect("invariant: load-model lock is never poisoned");
                            let cost = req.cost.unwrap_or(4);
                            l.step(cost)
                        };
                        answer_request(&state, &mut pool, &req, verdict, seq, max_attempts)
                    }
                    Err(e) => Response {
                        seq,
                        id: None,
                        verdict: Verdict::Error,
                        solver: "?".to_string(),
                        served_by: None,
                        budget: 0,
                        seeds: Vec::new(),
                        quality: 0.0,
                        reason: Some(format!("parse error: {e}")),
                        attempts: 1,
                        runtime_secs: 0.0,
                    },
                };
                resp.runtime_secs = sw.elapsed_secs();
                match resp.verdict {
                    Verdict::Served => counters.served.fetch_add(1, Ordering::SeqCst),
                    Verdict::Degraded => counters.degraded.fetch_add(1, Ordering::SeqCst),
                    Verdict::Shed => counters.shed.fetch_add(1, Ordering::SeqCst),
                    Verdict::Error => counters.errors.fetch_add(1, Ordering::SeqCst),
                };
                // A handler that timed out and left is the only way this
                // send fails; the response is then dropped on the floor by
                // design (the client already got an error line).
                let _ = job.resp_tx.send(resp.body_json());
            }
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    // Drain whatever raced in between the flag and now.
                    while let Ok(job) = job_rx.try_recv() {
                        let _ = job
                            .resp_tx
                            .send("{\"verdict\":\"shed\",\"reason\":\"draining\"}".to_string());
                        counters.shed.fetch_add(1, Ordering::SeqCst);
                    }
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    pool
}
