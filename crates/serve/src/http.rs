//! HTTP/1.1 front end for the gateway (§7: "Optimus API and
//! communication between clients and the gateway are implemented in REST
//! API format … a Flask HTTP server that accepts client requests").
//!
//! Dependency-free: a hand-rolled HTTP server over
//! `std::net::TcpListener` with two front-end modes
//! ([`HttpConfig::mode`]):
//!
//! - [`FrontendMode::Pooled`] (default) — the production serving core.
//!   **Connection model:** one poller thread blocks in `poll(2)` on the
//!   listener, every parked idle connection and a wake socket, with the
//!   nearest real deadline (read stall, keep-alive idle, retry backoff)
//!   as its timeout — no fixed tick. It accepts new connections and
//!   dispatches only the connections the kernel reports ready to a fixed
//!   pool of HTTP workers, which parse pipelined requests incrementally
//!   from a reusable per-connection buffer ([`crate::parser`]).
//!   **Workers never block on inference:** `POST /infer` goes through
//!   [`Gateway::submit`] and the connection moves into a waker on the
//!   request's reply cell; the worker node's reply (or its death) pushes
//!   it straight back onto the workers' ready queue. So `GET /healthz`
//!   and `GET /metrics` stay responsive even when every worker queue is
//!   saturated (admission control answers `429` immediately, and an ops
//!   lane serves health endpoints past the connection budget).
//! - [`FrontendMode::ThreadPerConn`] — the original one-OS-thread per
//!   `Connection: close` exchange, kept as the load-generator baseline.
//!
//! Endpoints:
//!
//! - `GET /models` — JSON array of registered model names.
//! - `POST /infer` — body `{"model": "<name>", "shape": [..], "data": [..]}`
//!   (`data` optional; zeros are used when omitted). Responds
//!   `{"model", "start", "wait_seconds", "startup_seconds",
//!   "compute_seconds", "node", "transform_steps", "batch_size",
//!   "output_shape", "output": [..first 16 values..]}`. Malformed
//!   payloads get a `400` with a JSON error body — never a dropped
//!   connection; a full admission queue gets a `429`.
//! - `GET /metrics` — Prometheus text exposition of the gateway's
//!   registry (request counters by start kind, phase histograms,
//!   plan-cache counters, queue-depth/batch-size gauges).
//! - `GET /stats` — the same registry as one JSON object (histograms as
//!   `{count, sum, mean, p50, p95, p99}`).
//! - `GET /store` — weight-store residency: `{"enabled", "total",
//!   "nodes": [{"node", "stats"}..]}` with per-tier resident bytes, chunk
//!   hit/miss counts and the dedup ratio (`{"enabled": false}` when the
//!   gateway runs without a store).
//! - `GET /healthz` — liveness probe for load balancers:
//!   `{"status":"ok","fleet_nodes":N,"nodes":[true,..]}` with the live
//!   fleet size and per-node health (crashed nodes read `false` until
//!   they recover; drained nodes stay `false`).
//!
//! Sockets carry read/write timeouts ([`HttpConfig`]) so a stalled or
//! silent client cannot pin resources forever: a connection that goes
//! quiet mid-request gets a `408 Request Timeout`; an idle keep-alive
//! connection past [`HttpConfig::keep_alive_idle`] is closed silently.
//!
//! The pooled front end is Unix-only: it waits on `poll(2)` and wakes
//! its poller through a Unix socket pair.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use optimus_model::tensor::Tensor;

use crate::api::{InferenceResponse, ServeError};
use crate::gateway::{Gateway, InferenceResult, PendingInference};
use crate::parser::{parse_request, ParseOutcome, ParserLimits};
use crate::sys::{self, PollFd};

/// How the front end maps connections to OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendMode {
    /// A `poll(2)` event loop + fixed worker pool over keep-alive
    /// connections (the production path).
    Pooled,
    /// One OS thread per `Connection: close` exchange (the original
    /// front end, kept as the load-generator baseline).
    ThreadPerConn,
}

/// Configuration of the HTTP front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpConfig {
    /// Read timeout per connection. In pooled mode this is the stall
    /// deadline: a connection mid-request with no new bytes for this
    /// long gets a `408`. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Write timeout per connection (response flush).
    pub write_timeout: Option<Duration>,
    /// Front-end threading model.
    pub mode: FrontendMode,
    /// Fixed HTTP worker pool size (parsing + response writing; never
    /// blocks on inference).
    pub http_workers: usize,
    /// Connection budget of the pooled front end; connections beyond it
    /// are handed to the ops lane (health endpoints still answer,
    /// `/infer` gets an immediate `503`).
    pub max_connections: usize,
    /// Largest allowed request head; beyond it the request is `431`.
    pub max_header_bytes: usize,
    /// Largest allowed `Content-Length`; beyond it the request is `413`
    /// (decided from the header alone).
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection (between requests) is
    /// retained before being closed silently.
    pub keep_alive_idle: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            mode: FrontendMode::Pooled,
            http_workers: 8,
            max_connections: 1024,
            max_header_bytes: 16 * 1024,
            max_body_bytes: 16 * 1024 * 1024,
            keep_alive_idle: Duration::from_secs(30),
        }
    }
}

/// A running HTTP front end.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The pooled front end's shared state, to wake its threads at
    /// shutdown (`None` in thread-per-connection mode).
    pooled: Option<Arc<Shared>>,
    handles: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Serve `gateway` on `127.0.0.1:port` (`port` 0 picks a free port)
    /// with the default configuration (pooled keep-alive front end).
    ///
    /// # Errors
    ///
    /// Returns the bind error message when the port is unavailable.
    pub fn serve(gateway: Arc<Gateway>, port: u16) -> Result<HttpServer, String> {
        HttpServer::serve_with(gateway, port, HttpConfig::default())
    }

    /// [`HttpServer::serve`] with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns the bind error message when the port is unavailable.
    pub fn serve_with(
        gateway: Arc<Gateway>,
        port: u16,
        config: HttpConfig,
    ) -> Result<HttpServer, String> {
        let listener = TcpListener::bind(("127.0.0.1", port)).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let (pooled, handles) = match config.mode {
            FrontendMode::ThreadPerConn => (
                None,
                vec![spawn_legacy_acceptor(
                    listener,
                    gateway,
                    config,
                    stop.clone(),
                )],
            ),
            FrontendMode::Pooled => {
                let (shared, handles) = spawn_pooled(listener, gateway, config, stop.clone())
                    .map_err(|e| e.to_string())?;
                (Some(shared), handles)
            }
        };
        Ok(HttpServer {
            addr,
            stop,
            pooled,
            handles,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the serving threads. The
    /// pooled front end returns promptly: its poller is woken through
    /// the wake socket and idle HTTP workers through the ready queue.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        match &self.pooled {
            Some(shared) => shared.shut_down(),
            None => self.stop.store(true, Ordering::SeqCst),
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One response: status line suffix, content type, body.
struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: &'static str, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn error(status: &'static str, message: &str) -> Response {
        Response::json(status, serde_json::json!({ "error": message }).to_string())
    }

    fn code(&self) -> &str {
        self.status.split_whitespace().next().unwrap_or("")
    }
}

/// Whether an I/O error is a would-block / socket-timeout condition
/// (`SO_RCVTIMEO` surfaces as `WouldBlock` on Unix, `TimedOut` on
/// Windows; nonblocking sockets report `WouldBlock`).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------
// Pooled front end: poll(2) event loop → ready queue → worker pool.
// ---------------------------------------------------------------------

/// Pipelined requests a worker serves from one connection before
/// yielding it back to the queue so other connections interleave.
const REQUEST_BUDGET: usize = 32;

/// One persistent client connection. Travels between the poller (while
/// waiting for bytes or a retry deadline), a reply cell's waker (while
/// waiting for an inference) and HTTP workers (while parsing and
/// responding); the buffer is reused across requests.
struct Conn {
    stream: TcpStream,
    /// Unparsed received bytes (grows across fragmented reads, drained
    /// per parsed request).
    buf: Vec<u8>,
    /// Last instant bytes arrived or a response went out (stall/idle
    /// accounting).
    last_activity: Instant,
    /// In-flight inference this connection is parked on.
    pending: Option<PendingInference>,
    /// Keep-alive flag of the request that produced `pending`.
    keep_alive_after_reply: bool,
    /// Poller verdict: the client stalled mid-request (`408` + close).
    stalled: bool,
    /// Requests completed on this connection (distinguishes a silent
    /// new client, which deserves a `408`, from an idle keep-alive
    /// connection, which is closed silently).
    served: u64,
    /// This connection's share of the `max_connections` budget, given
    /// back wherever the connection is dropped.
    _slot: ConnSlot,
}

/// One unit of the pooled front end's connection budget.
struct ConnSlot(Arc<AtomicUsize>);

impl ConnSlot {
    fn take(conns: &Arc<AtomicUsize>) -> ConnSlot {
        conns.fetch_add(1, Ordering::Relaxed);
        ConnSlot(conns.clone())
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What the poller does once a parked connection's deadline passes.
enum Expiry {
    /// Silent mid-request (or since connecting): answer `408`, close.
    Stall,
    /// Idle between requests past `keep_alive_idle`: close silently.
    Idle,
    /// A retry backoff ended: a worker's [`Gateway::poll`] re-enqueues
    /// the inference.
    Retry,
}

impl Conn {
    fn new(stream: TcpStream, slot: ConnSlot) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(1024),
            last_activity: Instant::now(),
            pending: None,
            keep_alive_after_reply: true,
            stalled: false,
            served: 0,
            _slot: slot,
        }
    }

    /// When the poller must act on this parked connection without a
    /// socket event, and what it does then.
    fn deadline(&self, config: &HttpConfig) -> Option<(Instant, Expiry)> {
        if let Some(pending) = &self.pending {
            return pending.retry_at().map(|at| (at, Expiry::Retry));
        }
        if !self.buf.is_empty() || self.served == 0 {
            // Mid-request (or never sent anything): the read timeout is
            // the stall deadline, answered with a 408.
            let at = self.last_activity.checked_add(config.read_timeout?)?;
            Some((at, Expiry::Stall))
        } else {
            let at = self.last_activity.checked_add(config.keep_alive_idle)?;
            Some((at, Expiry::Idle))
        }
    }
}

/// MPMC hand-off to the HTTP workers, fed by the poller and by reply-cell
/// wakers. The crossbeam shim's `Receiver` is single-consumer, so the
/// multi-consumer ready queue is a mutex-protected deque with a condvar.
struct ReadyQueue {
    inner: Mutex<Ready>,
    cv: Condvar,
}

struct Ready {
    conns: VecDeque<Conn>,
    /// Set at shutdown: later pushes close their connection.
    closed: bool,
}

impl ReadyQueue {
    fn new() -> ReadyQueue {
        ReadyQueue {
            inner: Mutex::new(Ready {
                conns: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Every update leaves the queue valid, so a poisoned guard is
    /// recovered: reply-cell wakers push from `Drop` and must not panic.
    fn lock(&self) -> MutexGuard<'_, Ready> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, conn: Conn) {
        let mut ready = self.lock();
        if ready.closed {
            return; // the server is shutting down: `conn` closes
        }
        ready.conns.push_back(conn);
        drop(ready);
        self.cv.notify_one();
    }

    /// Block until a connection is ready; `None` once the queue closed.
    fn pop(&self) -> Option<Conn> {
        let ready = self.lock();
        let mut ready = self
            .cv
            .wait_while(ready, |r| r.conns.is_empty() && !r.closed)
            .unwrap_or_else(PoisonError::into_inner);
        ready.conns.pop_front()
    }

    /// Close queued connections, refuse later pushes and release every
    /// waiting worker.
    fn close(&self) {
        let queued = {
            let mut ready = self.lock();
            ready.closed = true;
            std::mem::take(&mut ready.conns)
        };
        drop(queued);
        self.cv.notify_all();
    }
}

/// The poller's wake socket. `poll(2)` watches the read end, so a byte
/// written to the other end ends its wait. Wakes coalesce: one byte
/// stands for every wake until the poller resets it.
struct Wake {
    tx: UnixStream,
    rx: UnixStream,
    armed: AtomicBool,
}

impl Wake {
    fn new() -> std::io::Result<Wake> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Wake {
            tx,
            rx,
            armed: AtomicBool::new(false),
        })
    }

    fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            // Only a full socket buffer fails, and that wakes the poller.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Poller side, before it takes what the wakers handed over: drain,
    /// then disarm. A wake after the disarm writes a byte that stays for
    /// the next `poll`; one before it found the flag armed and wrote
    /// nothing, and this swap makes its hand-over visible to the poller.
    fn reset(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        self.armed.swap(false, Ordering::SeqCst);
    }
}

/// State shared by every pooled front-end thread.
struct Shared {
    gateway: Arc<Gateway>,
    config: HttpConfig,
    stop: Arc<AtomicBool>,
    /// Connections handed (back) to the poller, each followed by a wake.
    park_tx: Sender<Conn>,
    wake: Wake,
    ready: Arc<ReadyQueue>,
    /// Live pooled connections (admission against `max_connections`).
    conns: Arc<AtomicUsize>,
}

impl Shared {
    /// Stop the poller, the HTTP workers and, through them, the ops lane.
    fn shut_down(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
        self.ready.close();
    }
}

fn spawn_pooled(
    listener: TcpListener,
    gateway: Arc<Gateway>,
    config: HttpConfig,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(Arc<Shared>, Vec<JoinHandle<()>>)> {
    let (park_tx, park_rx) = unbounded::<Conn>();
    let (ops_tx, ops_rx) = unbounded::<TcpStream>();
    let shared = Arc::new(Shared {
        gateway,
        config,
        stop,
        park_tx,
        wake: Wake::new()?,
        ready: Arc::new(ReadyQueue::new()),
        conns: Arc::new(AtomicUsize::new(0)),
    });
    let mut handles = Vec::new();
    {
        // The poller owns the ops lane's only sender: the lane ends with it.
        let s = shared.clone();
        handles.push(std::thread::spawn(move || {
            run_poller(&s, &listener, &park_rx, &ops_tx)
        }));
    }
    for _ in 0..config.http_workers.max(1) {
        let s = shared.clone();
        handles.push(std::thread::spawn(move || run_http_worker(&s)));
    }
    {
        let s = shared.clone();
        handles.push(std::thread::spawn(move || run_ops_lane(&s, &ops_rx)));
    }
    Ok((shared, handles))
}

/// The event loop. It blocks in `poll(2)` on the listener, the wake
/// socket and every parked connection waiting for bytes, with the
/// nearest deadline as the timeout, then dispatches exactly what is due:
/// readable connections to the workers, expired deadlines per
/// [`Expiry`], and new connections into the parked set.
fn run_poller(
    shared: &Shared,
    listener: &TcpListener,
    park_rx: &Receiver<Conn>,
    ops_tx: &Sender<TcpStream>,
) {
    let mut parked: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        while let Some(conn) = park_rx.try_recv() {
            parked.push(conn);
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        let next = parked
            .iter()
            .filter_map(|c| c.deadline(&shared.config))
            .map(|(at, _)| at)
            .min();
        fds.clear();
        fds.push(PollFd::readable(listener));
        fds.push(PollFd::readable(&shared.wake.rx));
        // A connection waiting out a retry backoff has no socket
        // interest: pipelined bytes wait until its reply is written.
        fds.extend(parked.iter().map(|c| match c.pending {
            Some(_) => PollFd::ignored(),
            None => PollFd::readable(&c.stream),
        }));
        let timeout = next.map(|at| at.saturating_duration_since(now));
        // `poll` fails only for a bad array (impossible: every fd is a
        // live socket this loop owns) or when the kernel is out of memory.
        if sys::wait(&mut fds, timeout).is_err() {
            break;
        }
        if fds[1].ready() {
            shared.wake.reset();
        }
        let now = Instant::now();
        // Back to front, so `swap_remove` only moves connections already
        // visited and `fds` stays aligned with `parked`.
        for i in (0..parked.len()).rev() {
            if fds[i + 2].ready() {
                shared.ready.push(parked.swap_remove(i));
                continue;
            }
            let Some((at, expiry)) = parked[i].deadline(&shared.config) else {
                continue;
            };
            if at > now {
                continue;
            }
            let mut conn = parked.swap_remove(i);
            match expiry {
                Expiry::Stall => {
                    conn.stalled = true;
                    shared.ready.push(conn);
                }
                Expiry::Retry => shared.ready.push(conn),
                Expiry::Idle => drop(conn),
            }
        }
        if fds[0].ready() {
            accept_ready(listener, shared, &mut parked, ops_tx);
        }
    }
}

/// Accept every pending connection. Within the `max_connections` budget
/// a connection is parked until its first bytes arrive; past it, the ops
/// lane answers it.
fn accept_ready(
    listener: &TcpListener,
    shared: &Shared,
    parked: &mut Vec<Conn>,
    ops_tx: &Sender<TcpStream>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Drained (`WouldBlock`), or failed (e.g. out of file
            // descriptors) until the next readiness.
            Err(_) => return,
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(shared.config.read_timeout);
        let _ = stream.set_write_timeout(shared.config.write_timeout);
        if shared.conns.load(Ordering::Relaxed) >= shared.config.max_connections {
            // Past the connection budget, operators must still be able to
            // observe the gateway: the ops lane answers health endpoints
            // and 503s inference, one blocking exchange at a time.
            let _ = stream.set_nonblocking(false);
            let _ = ops_tx.send(stream);
            continue;
        }
        let _ = stream.set_nonblocking(true);
        parked.push(Conn::new(stream, ConnSlot::take(&shared.conns)));
    }
}

fn run_http_worker(shared: &Shared) {
    while let Some(mut conn) = shared.ready.pop() {
        match serve_conn(&mut conn, shared) {
            Disposition::Park => park(conn, shared),
            Disposition::Requeue => shared.ready.push(conn),
            Disposition::Close => drop(conn),
        }
    }
}

/// Park `conn` until it has something to do. Waiting on an inference
/// reply, it moves into the reply cell's waker, which pushes it back onto
/// the ready queue when the worker node replies or dies. Otherwise
/// (waiting for bytes or a retry deadline) it goes to the poller.
fn park(conn: Conn, shared: &Shared) {
    match conn.pending.as_ref().and_then(PendingInference::reply_cell) {
        Some(reply) => {
            let ready = shared.ready.clone();
            reply.on_complete(Box::new(move || ready.push(conn)));
        }
        None => {
            // A send fails only once the poller has exited; `conn` closes.
            if shared.park_tx.send(conn).is_ok() {
                shared.wake.wake();
            }
        }
    }
}

enum Disposition {
    /// Wait for the next event: bytes, an inference reply or a retry
    /// deadline ([`park`]).
    Park,
    /// More parsed-but-unserved bytes remain; requeue for fairness.
    Requeue,
    /// Connection is finished (error, EOF, or `Connection: close`).
    Close,
}

enum ReadState {
    Progress,
    WouldBlock,
    Closed,
}

fn read_some(conn: &mut Conn) -> ReadState {
    let mut tmp = [0u8; 4096];
    match conn.stream.read(&mut tmp) {
        Ok(0) => ReadState::Closed,
        Ok(n) => {
            conn.buf.extend_from_slice(&tmp[..n]);
            conn.last_activity = Instant::now();
            ReadState::Progress
        }
        Err(ref e) if is_timeout(e) => ReadState::WouldBlock,
        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => ReadState::Progress,
        Err(_) => ReadState::Closed,
    }
}

/// Serialize `resp` with the right `Connection` header and write it.
/// The socket is flipped to blocking for the write so the configured
/// write timeout applies, then back to nonblocking for parking.
fn write_response(
    conn: &mut Conn,
    resp: &Response,
    keep_alive: bool,
    shared: &Shared,
) -> std::io::Result<()> {
    shared
        .gateway
        .metrics()
        .counter("optimus_http_requests_total", &[("code", resp.code())])
        .inc();
    let payload = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        resp.status,
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        resp.body
    );
    conn.stream.set_nonblocking(false)?;
    let result = conn.stream.write_all(payload.as_bytes());
    let _ = conn.stream.set_nonblocking(true);
    conn.last_activity = Instant::now();
    result
}

/// Drive one checked-out connection: flush a finished inference reply,
/// then parse and serve pipelined requests until the socket runs dry,
/// an inference parks it, or the request budget yields it.
fn serve_conn(conn: &mut Conn, shared: &Shared) -> Disposition {
    if conn.stalled {
        let resp = Response::error("408 Request Timeout", "timed out mid-request");
        let _ = write_response(conn, &resp, false, shared);
        return Disposition::Close;
    }
    if let Some(pending) = conn.pending.as_mut() {
        // Woken by the reply cell or an expired retry backoff.
        let Some(result) = shared.gateway.poll(pending) else {
            return Disposition::Park;
        };
        conn.pending = None;
        let keep = conn.keep_alive_after_reply;
        conn.served += 1;
        if write_response(conn, &render_infer_result(result), keep, shared).is_err() || !keep {
            return Disposition::Close;
        }
    }
    let limits = ParserLimits {
        max_header_bytes: shared.config.max_header_bytes,
        max_body_bytes: shared.config.max_body_bytes,
    };
    let mut budget = REQUEST_BUDGET;
    loop {
        match parse_request(&conn.buf, &limits) {
            ParseOutcome::Incomplete => match read_some(conn) {
                ReadState::Progress => continue,
                ReadState::WouldBlock => return Disposition::Park,
                ReadState::Closed => {
                    // EOF mid-request (e.g. body shorter than the declared
                    // content-length) still gets a JSON 400, not a silent
                    // drop; EOF between requests is a normal close.
                    if !conn.buf.is_empty() {
                        let resp = Response::error(
                            "400 Bad Request",
                            "connection closed before the request completed",
                        );
                        let _ = write_response(conn, &resp, false, shared);
                    }
                    return Disposition::Close;
                }
            },
            ParseOutcome::Error { status, message } => {
                // Framing is broken; answer and drop the connection.
                let _ = write_response(conn, &Response::error(status, message), false, shared);
                return Disposition::Close;
            }
            ParseOutcome::Request { request, consumed } => {
                conn.buf.drain(..consumed);
                if request.method == "POST" && request.path == "/infer" {
                    match submit_infer(&shared.gateway, &request.body) {
                        Ok(pending) => {
                            conn.pending = Some(pending);
                            conn.keep_alive_after_reply = request.keep_alive;
                            return Disposition::Park;
                        }
                        Err(resp) => {
                            conn.served += 1;
                            if write_response(conn, &resp, request.keep_alive, shared).is_err()
                                || !request.keep_alive
                            {
                                return Disposition::Close;
                            }
                        }
                    }
                } else {
                    let resp = route_get(&shared.gateway, &request.method, &request.path);
                    conn.served += 1;
                    if write_response(conn, &resp, request.keep_alive, shared).is_err()
                        || !request.keep_alive
                    {
                        return Disposition::Close;
                    }
                }
                budget -= 1;
                if budget == 0 {
                    return if conn.buf.is_empty() {
                        Disposition::Park
                    } else {
                        Disposition::Requeue
                    };
                }
            }
        }
    }
}

/// Overflow lane: connections past the pooled budget still get health
/// endpoints (one blocking `Connection: close` exchange each), so an
/// overloaded gateway remains observable; `/infer` is refused with 503.
/// Ends when the poller, which holds the only sender, exits.
fn run_ops_lane(shared: &Shared, ops_rx: &Receiver<TcpStream>) {
    while let Ok(stream) = ops_rx.recv() {
        serve_ops_connection(stream, shared);
    }
}

fn serve_ops_connection(stream: TcpStream, shared: &Shared) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let response = match read_one_request(stream) {
        Err(resp) => resp,
        Ok((method, path, _body)) => {
            if method == "POST" && path == "/infer" {
                Response::error(
                    "503 Service Unavailable",
                    "connection budget exhausted; inference admission is closed",
                )
            } else {
                route_get(&shared.gateway, &method, &path)
            }
        }
    };
    shared
        .gateway
        .metrics()
        .counter("optimus_http_requests_total", &[("code", response.code())])
        .inc();
    let _ = writer.write_all(render_close_response(&response).as_bytes());
}

// ---------------------------------------------------------------------
// Request routing shared by both front ends.
// ---------------------------------------------------------------------

fn serve_error_status(e: &ServeError) -> &'static str {
    match e {
        ServeError::Unavailable(_) | ServeError::Shutdown => "503 Service Unavailable",
        ServeError::Overloaded(_) => "429 Too Many Requests",
        _ => "422 Unprocessable Entity",
    }
}

/// Serve the read-only endpoints (and 404 anything else).
fn route_get(gateway: &Gateway, method: &str, path: &str) -> Response {
    match (method, path) {
        ("GET", "/models") => {
            let names = gateway.models();
            Response::json(
                "200 OK",
                serde_json::to_string(&names).expect("string array serializes"),
            )
        }
        ("GET", "/metrics") => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4",
            body: gateway.metrics().render_prometheus(),
        },
        ("GET", "/stats") => {
            Response::json("200 OK", gateway.metrics().snapshot_json().to_string())
        }
        ("GET", "/store") => Response::json("200 OK", store_response(gateway)),
        ("GET", "/healthz") => {
            let nodes = gateway.healthy_nodes();
            let fleet = gateway.fleet_size();
            Response::json(
                "200 OK",
                serde_json::json!({ "status": "ok", "fleet_nodes": fleet, "nodes": nodes })
                    .to_string(),
            )
        }
        _ => Response::error(
            "404 Not Found",
            "unknown endpoint (GET /models, /metrics, /stats, /store, /healthz; POST /infer)",
        ),
    }
}

/// Body of `GET /store`: fleet total plus per-node weight-store stats.
fn store_response(gateway: &Gateway) -> String {
    let Some(total) = gateway.store_stats() else {
        return "{\"enabled\":false}".to_string();
    };
    let nodes: Vec<String> = gateway
        .store_stats_by_node()
        .iter()
        .map(|(node, stats)| {
            format!(
                "{{\"node\":{node},\"stats\":{}}}",
                serde_json::to_string(stats).expect("store stats serialize")
            )
        })
        .collect();
    format!(
        "{{\"enabled\":true,\"total\":{},\"nodes\":[{}]}}",
        serde_json::to_string(&total).expect("store stats serialize"),
        nodes.join(",")
    )
}

/// Decode an `/infer` body into its model name and input tensor.
fn parse_infer_body(body: &[u8]) -> Result<(String, Tensor), (&'static str, String)> {
    let parsed: serde_json::Value = serde_json::from_slice(body)
        .map_err(|e| ("400 Bad Request", format!("malformed JSON: {e}")))?;
    let model = parsed["model"]
        .as_str()
        .ok_or(("400 Bad Request", "missing 'model'".to_string()))?;
    let shape: Vec<usize> = parsed["shape"]
        .as_array()
        .ok_or(("400 Bad Request", "missing 'shape'".to_string()))?
        .iter()
        .map(|v| v.as_u64().unwrap_or(0) as usize)
        .collect();
    let numel: usize = shape.iter().product();
    if numel == 0 || numel > 4_000_000 {
        return Err(("400 Bad Request", format!("bad tensor shape {shape:?}")));
    }
    let data: Vec<f32> = match parsed.get("data").and_then(|d| d.as_array()) {
        Some(values) => {
            if values.len() != numel {
                return Err((
                    "400 Bad Request",
                    format!("data length {} != shape numel {numel}", values.len()),
                ));
            }
            values
                .iter()
                .map(|v| v.as_f64().unwrap_or(0.0) as f32)
                .collect()
        }
        None => vec![0.0; numel],
    };
    Ok((model.to_string(), Tensor::new(shape, data)))
}

/// Parse and enqueue an `/infer` request without waiting for the reply.
fn submit_infer(gateway: &Gateway, body: &[u8]) -> Result<PendingInference, Response> {
    let (model, input) = match parse_infer_body(body) {
        Ok(parsed) => parsed,
        Err((status, msg)) => return Err(Response::error(status, &msg)),
    };
    gateway
        .submit(&model, input)
        .map_err(|e| Response::error(serve_error_status(&e), &e.to_string()))
}

fn render_infer_ok(resp: &InferenceResponse) -> String {
    let preview: Vec<f32> = resp.output.data().iter().copied().take(16).collect();
    serde_json::json!({
        "model": resp.model,
        "start": resp.start.as_label(),
        "wait_seconds": resp.wait_seconds,
        "startup_seconds": resp.startup_seconds,
        "compute_seconds": resp.compute_seconds,
        "node": resp.node,
        "transform_steps": resp.transform_steps,
        "batch_size": resp.batch_size,
        "output_shape": resp.output.shape().dims(),
        "output": preview,
    })
    .to_string()
}

fn render_infer_result(result: InferenceResult) -> Response {
    match result {
        Ok(resp) => Response::json("200 OK", render_infer_ok(&resp)),
        Err(e) => Response::error(serve_error_status(&e), &e.to_string()),
    }
}

// ---------------------------------------------------------------------
// Legacy thread-per-connection front end (the load-generator baseline).
// ---------------------------------------------------------------------

fn spawn_legacy_acceptor(
    listener: TcpListener,
    gateway: Arc<Gateway>,
    config: HttpConfig,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_read_timeout(config.read_timeout);
                    let _ = stream.set_write_timeout(config.write_timeout);
                    let gw = gateway.clone();
                    workers.push(std::thread::spawn(move || handle_connection(stream, &gw)));
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        for w in workers {
            let _ = w.join();
        }
    })
}

fn render_close_response(response: &Response) -> String {
    format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        response.content_type,
        response.body.len(),
        response.body
    )
}

fn handle_connection(stream: TcpStream, gateway: &Gateway) {
    let peer = stream.try_clone();
    let Ok(mut writer) = peer else { return };
    let response = match read_one_request(stream) {
        Err(resp) => resp,
        Ok((method, path, body)) => {
            if method == "POST" && path == "/infer" {
                match parse_infer_body(&body) {
                    Err((status, msg)) => Response::error(status, &msg),
                    Ok((model, input)) => match gateway.infer(&model, input) {
                        Ok(resp) => Response::json("200 OK", render_infer_ok(&resp)),
                        Err(e) => Response::error(serve_error_status(&e), &e.to_string()),
                    },
                }
            } else {
                route_get(gateway, &method, &path)
            }
        }
    };
    gateway
        .metrics()
        .counter("optimus_http_requests_total", &[("code", response.code())])
        .inc();
    let _ = writer.write_all(render_close_response(&response).as_bytes());
}

/// Read one blocking `Connection: close` style request (request line,
/// headers, `Content-Length` body). Malformed or timed-out requests
/// produce an error response instead of a silently dropped connection.
fn read_one_request(stream: TcpStream) -> Result<(String, String, Vec<u8>), Response> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    match reader.read_line(&mut request_line) {
        Err(e) if is_timeout(&e) => {
            return Err(Response::error(
                "408 Request Timeout",
                "timed out reading request line",
            ))
        }
        Err(_) => {
            return Err(Response::error(
                "400 Bad Request",
                "empty or unreadable request line",
            ))
        }
        Ok(_) => {}
    }
    if request_line.trim().is_empty() {
        return Err(Response::error(
            "400 Bad Request",
            "empty or unreadable request line",
        ));
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(Response::error("400 Bad Request", "malformed request line"));
    }
    // Headers (we only need Content-Length).
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let line = line.trim();
                if line.is_empty() {
                    break;
                }
                if let Some(v) = line
                    .to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                    .and_then(|v| v.parse::<usize>().ok())
                {
                    content_length = v;
                }
            }
            Err(e) if is_timeout(&e) => {
                return Err(Response::error(
                    "408 Request Timeout",
                    "timed out reading headers",
                ))
            }
            Err(_) => return Err(Response::error("400 Bad Request", "unreadable headers")),
        }
    }
    let mut body = vec![0u8; content_length.min(16 * 1024 * 1024)];
    if content_length > 0 {
        match reader.read_exact(&mut body) {
            Err(e) if is_timeout(&e) => {
                return Err(Response::error(
                    "408 Request Timeout",
                    "timed out reading body",
                ))
            }
            Err(_) => {
                return Err(Response::error(
                    "400 Bad Request",
                    "body shorter than content-length",
                ))
            }
            Ok(()) => {}
        }
    }
    Ok((method, path, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakes_racing_the_poller_reset_are_never_lost() {
        // A producer hands items over with a wake each while a poller-like
        // loop waits, resets and drains, as `run_poller` does. A wake lost
        // to the race with `reset` leaves an item unclaimed and the wait
        // times out.
        const ITEMS: u32 = 200_000;
        let wake = Arc::new(Wake::new().expect("socket pair"));
        let (tx, rx) = unbounded::<u32>();
        let producer = {
            let wake = wake.clone();
            std::thread::spawn(move || {
                for i in 0..ITEMS {
                    tx.send(i).expect("consumer alive");
                    wake.wake();
                }
            })
        };
        let mut claimed = 0;
        while claimed < ITEMS {
            let mut fds = [PollFd::readable(&wake.rx)];
            let ready = sys::wait(&mut fds, Some(Duration::from_secs(5))).expect("poll");
            assert_eq!(
                ready, 1,
                "wake lost with {claimed} of {ITEMS} items claimed"
            );
            wake.reset();
            while rx.try_recv().is_some() {
                claimed += 1;
            }
        }
        producer.join().unwrap();
    }
}
