//! The API server: the versioned v1 API over a [`StorageService`] for
//! "thousands of out-of-process applications", as a fixed worker pool
//! behind a readiness-driven reactor (ROADMAP parks an async front end).
//!
//! ## Architecture
//!
//! ```text
//! accept thread ──> reactor thread ──> fair ready-queue ──> N workers
//!      │                 │  ▲                                  │
//!      │ (429 over       │  └──────── keep-alive return ───────┘
//!      │  max_connections)│
//!      │                 └── owns idle connections, nonblocking;
//!      │                     poll(2) readiness, incremental parse,
//!      │                     idle timeouts (408), 431/413/400,
//!      │                     429 when the ready-queue is full
//! ```
//!
//! - **Accept** only hands sockets over (or sheds with `429` +
//!   `Retry-After` when the connection limit is hit). It never blocks on
//!   a client.
//! - The **reactor** owns every idle connection in nonblocking mode,
//!   accumulates bytes, and parses incrementally ([`crate::http::parse_head`]).
//!   A complete request becomes a job in the bounded fair queue; a full
//!   queue sheds `429` instead of letting the OS accept backlog decide.
//! - **Workers** (fixed pool — thread count is `workers + 2` regardless
//!   of connection count) run read→dispatch→write with HTTP/1.1
//!   keep-alive, drain pipelined requests already buffered on the
//!   connection (budget-capped, re-queued through the fair queue past the
//!   burst limit so a mega-pipeliner cannot monopolize a worker), and
//!   coalesce queued same-pool `/v1/write` bodies into one storage batch
//!   (exploiting the sharded storage plane's concurrent fan-out).
//! - **Fairness**: requests carry `x-statesman-app`; the ready-queue is
//!   deficit-round-robin across apps (quantum 1), so one chatty app
//!   cannot starve the rest.
//!
//! Dispatch is a typed route table of the six v1 rows ([`ROUTES`]); any
//! other path — the retired Table-3 spellings included — is a 404.
//!
//! Every response carries `x-statesman-server`; every retryable error
//! carries `retry-after`; delta and pool reads carry
//! [`WATERMARK_HEADER`]; paginated receipts carry [`CURSOR_HEADER`].

use crate::error::{error_response, reason, ApiErrorBody};
use crate::http::{parse_head, HttpLimits, HttpRequest, HttpResponse, RequestError, RequestHead};
use serde::{Deserialize, Serialize};
use statesman_obs::{Gauge, Histogram, Obs, RoundTrace, StatusBoard, LATENCY_BUCKETS_US};
use statesman_storage::{ReadRequest, StorageService, WriteRequest};
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState, Pool, StateError,
    StateResult, Version, WriteReceipt,
};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default per-connection idle timeout (no complete request arriving).
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Response header carrying the pool watermark: on delta reads
/// (`GET /v1/read?since=...`) clients feed its value back as the next
/// `since`; full pool reads carry the pool's current watermark so a
/// snapshot-then-follow client can start its changefeed without a probe.
pub const WATERMARK_HEADER: &str = "x-statesman-watermark";

/// Response header carrying the receipt-page cursor on paginated
/// `GET /v1/receipts?limit=` reads; feed it back as `after=` to ack the
/// page and fetch the next.
pub const CURSOR_HEADER: &str = "x-statesman-cursor";

/// Response header naming the serving implementation and version,
/// stamped on every response.
pub const SERVER_HEADER: &str = "x-statesman-server";

/// The `x-statesman-server` value this build stamps.
pub const SERVER_VERSION: &str = concat!("statesman/", env!("CARGO_PKG_VERSION"));

/// The endpoints the server implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/read` — pool rows at a chosen freshness (Table 3a).
    /// With `since=<version>`, a [`statesman_types::StateDelta`] of
    /// changes past that watermark instead (the changefeed read; the
    /// reply carries the new watermark in [`WATERMARK_HEADER`]).
    Read,
    /// `POST /v1/write` — upsert rows into a pool (Table 3a).
    Write,
    /// `GET /v1/receipts` — an application's receipts; `?limit=&after=`
    /// pages with a stable cursor, no `limit` drains (legacy shape).
    Receipts,
    /// `GET /v1/health` — liveness plus the server's simulated clock.
    Health,
    /// `GET /v1/metrics` — the metrics registry (text or JSON).
    Metrics,
    /// `GET /v1/status` — recent round traces and the status board.
    Status,
}

/// One row of the route table: a method + path bound to a [`Route`].
#[derive(Debug, Clone, Copy)]
pub struct RouteSpec {
    /// HTTP method.
    pub method: &'static str,
    /// Exact request path.
    pub path: &'static str,
    /// The endpoint this row reaches.
    pub route: Route,
}

/// The v1 route table.
pub const ROUTES: &[RouteSpec] = &[
    RouteSpec {
        method: "GET",
        path: "/v1/read",
        route: Route::Read,
    },
    RouteSpec {
        method: "POST",
        path: "/v1/write",
        route: Route::Write,
    },
    RouteSpec {
        method: "GET",
        path: "/v1/receipts",
        route: Route::Receipts,
    },
    RouteSpec {
        method: "GET",
        path: "/v1/health",
        route: Route::Health,
    },
    RouteSpec {
        method: "GET",
        path: "/v1/metrics",
        route: Route::Metrics,
    },
    RouteSpec {
        method: "GET",
        path: "/v1/status",
        route: Route::Status,
    },
];

/// `GET /v1/health` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always true when the server answers.
    pub ok: bool,
    /// The server's simulated clock, milliseconds since scenario start
    /// (out-of-process clients stamp proposals with this).
    pub now_ms: u64,
}

/// `GET /v1/status` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusResponse {
    /// The live status board (quarantine set, open breakers, degraded
    /// partitions, last round index).
    pub status: StatusBoard,
    /// The most recent round traces, oldest first.
    pub traces: Vec<RoundTrace>,
}

/// Front-end tuning knobs. [`Default`] is production-shaped; tests use
/// small values to hit the edges quickly.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the pool. `0` means auto: the process width
    /// (`statesman_types::par::default_worker_threads`) clamped to
    /// `[2, 8]`. Total thread count is `workers + 2` (accept +
    /// reactor) regardless of how many connections are open.
    pub workers: usize,
    /// Ready-queue bound. A complete request arriving while the queue
    /// holds this many is shed with `429` + `Retry-After`.
    pub queue_depth: usize,
    /// Open-connection bound. Accepts beyond it are answered `429` and
    /// closed immediately — admission control, not the OS accept backlog.
    pub max_connections: usize,
    /// How long a connection may sit without producing a complete
    /// request: a never-sent or half-sent request is answered `408`; a
    /// quiet keep-alive connection that has been served before is closed
    /// silently.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (resource rotation; `Retry-After`-free — clients just reconnect).
    pub max_requests_per_conn: u64,
    /// Maximum request-line + header bytes before `431`.
    pub max_header_bytes: usize,
    /// Maximum declared body bytes before `413`.
    pub max_body_bytes: usize,
    /// The backoff advised on `429` sheds (rounded up to whole seconds
    /// on the wire).
    pub retry_after: Duration,
    /// Maximum queued same-pool `/v1/write` jobs coalesced into one
    /// storage batch (1 disables coalescing).
    pub write_coalesce: usize,
    /// Hard bound on the write-coalescing gather window, measured from
    /// the moment the *popped* write entered the queue. A worker holding
    /// an under-filled batch may wait for more same-pool writes only
    /// until `enqueued_at + write_coalesce_max_delay`; a write that
    /// already aged past that in the queue commits immediately, so under
    /// backlog the window is zero and no write ever waits on an
    /// unbounded batch window. `Duration::ZERO` disables gathering
    /// (coalescing then only picks up writes already queued).
    pub write_coalesce_max_delay: Duration,
    /// Pipelined requests a worker drains per queue visit before the
    /// connection is re-queued through the fair queue.
    pub pipeline_burst: usize,
    /// How long [`ApiServer::shutdown`] waits for in-flight workers to
    /// finish before detaching them.
    pub stop_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_depth: 256,
            max_connections: 16_384,
            idle_timeout: DEFAULT_IO_TIMEOUT,
            max_requests_per_conn: 100_000,
            max_header_bytes: 16 << 10,
            max_body_bytes: 64 << 20,
            retry_after: Duration::from_secs(1),
            write_coalesce: 8,
            write_coalesce_max_delay: Duration::from_millis(2),
            pipeline_burst: 32,
            stop_grace: Duration::from_secs(3),
        }
    }
}

impl ServerConfig {
    fn worker_count(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        statesman_types::default_worker_threads().clamp(2, 8)
    }

    fn limits(&self) -> HttpLimits {
        HttpLimits {
            max_header_bytes: self.max_header_bytes,
            max_body_bytes: self.max_body_bytes,
        }
    }

    fn retry_after_ms(&self) -> u64 {
        (self.retry_after.as_millis() as u64).max(1)
    }
}

/// Shared open-connection accounting. Every [`Conn`] holds an `Arc` and
/// decrements on drop, so the count stays right no matter where a
/// connection dies (reactor, queue, worker).
#[derive(Default)]
struct ConnCount {
    open: AtomicI64,
    gauge: Option<Gauge>,
}

impl ConnCount {
    fn inc(&self) {
        let n = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(g) = &self.gauge {
            g.set(n);
        }
    }

    fn dec(&self) {
        let n = self.open.fetch_sub(1, Ordering::Relaxed) - 1;
        if let Some(g) = &self.gauge {
            g.set(n);
        }
    }

    fn get(&self) -> i64 {
        self.open.load(Ordering::Relaxed)
    }
}

/// One client connection and its accumulated read state. Owned by
/// exactly one of {reactor, ready-queue, worker} at any moment.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by a parsed request.
    buf: Vec<u8>,
    /// Parsed head of the next request, cached so completeness checks
    /// are O(1) once the head has parsed.
    head: Option<RequestHead>,
    /// Requests served on this connection.
    served: u64,
    /// Last time bytes arrived (idle-timeout anchor).
    last_activity: Instant,
    count: Arc<ConnCount>,
}

impl Conn {
    fn new(stream: TcpStream, count: Arc<ConnCount>) -> Conn {
        count.inc();
        Conn {
            stream,
            buf: Vec::new(),
            head: None,
            served: 0,
            last_activity: Instant::now(),
            count,
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.count.dec();
    }
}

/// A complete request ready for a worker, still attached to its
/// connection.
struct Job {
    conn: Conn,
    req: HttpRequest,
    /// When the job entered the fair queue. Bounds the write-coalescing
    /// gather window: a write that already aged in the queue gets no
    /// further delay.
    enqueued_at: Instant,
}

impl Job {
    fn new(conn: Conn, req: HttpRequest) -> Job {
        Job {
            conn,
            req,
            enqueued_at: Instant::now(),
        }
    }
}

/// Pop the next complete request out of a connection's buffer, if one is
/// fully buffered. `Ok(None)`: nothing complete yet.
fn next_buffered_request(
    conn: &mut Conn,
    limits: &HttpLimits,
) -> Result<Option<HttpRequest>, RequestError> {
    if conn.head.is_none() {
        if conn.buf.is_empty() {
            return Ok(None);
        }
        conn.head = parse_head(&conn.buf, limits)?;
    }
    let Some(head) = &conn.head else {
        return Ok(None);
    };
    if conn.buf.len() < head.total_len() {
        return Ok(None);
    }
    let head = conn.head.take().expect("checked above");
    let total = head.total_len();
    let mut req = head.request;
    req.body = conn.buf[head.head_len..total].to_vec();
    conn.buf.drain(..total);
    Ok(Some(req))
}

/// The bounded, per-app-fair ready queue. Deficit round-robin with
/// quantum 1: each app in rotation yields one job per turn, so a chatty
/// app's backlog cannot starve the others. `std::sync` primitives on
/// purpose — the vendored `parking_lot` shim has no `Condvar`.
struct FairQueue {
    inner: Mutex<FairQueueInner>,
    cv: Condvar,
    depth: usize,
    gauge: Option<Gauge>,
}

#[derive(Default)]
struct FairQueueInner {
    by_app: HashMap<String, VecDeque<Job>>,
    rotation: VecDeque<String>,
    len: usize,
    closed: bool,
}

impl FairQueue {
    fn new(depth: usize, gauge: Option<Gauge>) -> FairQueue {
        FairQueue {
            inner: Mutex::new(FairQueueInner::default()),
            cv: Condvar::new(),
            depth: depth.max(1),
            gauge,
        }
    }

    fn set_gauge(&self, n: usize) {
        if let Some(g) = &self.gauge {
            g.set(n as i64);
        }
    }

    /// Admit a job, or hand it back when the queue is full or closing
    /// (caller sheds with 429). The whole job rides in the `Err` on
    /// purpose: the caller still owns the connection it must answer on.
    #[allow(clippy::result_large_err)]
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut q = self.inner.lock().expect("queue poisoned");
        if q.closed || q.len >= self.depth {
            return Err(job);
        }
        let app = job.req.app_label().to_string();
        let per_app = q.by_app.entry(app.clone()).or_default();
        let newly_active = per_app.is_empty();
        per_app.push_back(job);
        if newly_active {
            q.rotation.push_back(app);
        }
        q.len += 1;
        self.set_gauge(q.len);
        drop(q);
        // notify_all, not notify_one: a worker gathering a write batch in
        // `take_writes_until` waits on the same condvar, and a single
        // notification it consumes for a non-write job would leave a
        // popper asleep with work queued.
        self.cv.notify_all();
        Ok(())
    }

    /// Next job under the fairness rotation. Blocks; `None` once the
    /// queue is closed **and** drained (graceful shutdown serves what
    /// was already admitted).
    fn pop(&self) -> Option<Job> {
        let mut q = self.inner.lock().expect("queue poisoned");
        loop {
            while let Some(app) = q.rotation.pop_front() {
                let Some(per_app) = q.by_app.get_mut(&app) else {
                    continue;
                };
                let Some(job) = per_app.pop_front() else {
                    // Emptied out-of-band (write coalescing); drop the
                    // rotation slot.
                    q.by_app.remove(&app);
                    continue;
                };
                if per_app.is_empty() {
                    q.by_app.remove(&app);
                } else {
                    q.rotation.push_back(app);
                }
                q.len -= 1;
                self.set_gauge(q.len);
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self.cv.wait(q).expect("queue poisoned");
        }
    }

    /// Pull up to `max` queued plain `/v1/write` jobs targeting `pool`
    /// (wire spelling), across all apps, for batch coalescing, waiting
    /// for late arrivals until `deadline` if the batch is under-filled.
    /// A `deadline` at or before now degenerates to a single non-blocking
    /// sweep, so callers bound the gather window per job. The rotation
    /// self-heals in `pop`.
    fn take_writes_until(&self, pool: &str, max: usize, deadline: Instant) -> Vec<Job> {
        if max == 0 {
            return Vec::new();
        }
        let mut q = self.inner.lock().expect("queue poisoned");
        let mut taken = Vec::new();
        loop {
            Self::sweep_writes(&mut q, pool, max, &mut taken);
            self.set_gauge(q.len);
            if taken.len() >= max || q.closed {
                return taken;
            }
            let now = Instant::now();
            if now >= deadline {
                return taken;
            }
            q = self
                .cv
                .wait_timeout(q, deadline - now)
                .expect("queue poisoned")
                .0;
        }
    }

    /// One locked sweep moving matching write jobs from the queue into
    /// `taken` (capped at `max` total) and updating `q.len`.
    fn sweep_writes(q: &mut FairQueueInner, pool: &str, max: usize, taken: &mut Vec<Job>) {
        for per_app in q.by_app.values_mut() {
            let mut i = 0;
            while i < per_app.len() && taken.len() < max {
                let j = &per_app[i];
                if j.req.method == "POST"
                    && j.req.path == "/v1/write"
                    && j.req.param("Pool") == Some(pool)
                {
                    taken.push(per_app.remove(i).expect("index checked"));
                    q.len -= 1;
                } else {
                    i += 1;
                }
            }
            if taken.len() >= max {
                break;
            }
        }
    }

    fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.cv.notify_all();
    }
}

/// Reactor wake-up channel: a byte written here interrupts `poll(2)`.
/// Unix socketpair because `std` has no pipe; this whole server is
/// `cfg(unix)`-reliant anyway via `poll`.
#[cfg(unix)]
mod wake {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    pub struct WakeRx(pub UnixStream);

    #[derive(Clone)]
    pub struct WakeTx(std::sync::Arc<UnixStream>);

    pub fn pair() -> std::io::Result<(WakeTx, WakeRx)> {
        let (tx, rx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok((WakeTx(std::sync::Arc::new(tx)), WakeRx(rx)))
    }

    impl WakeTx {
        /// Nudge the reactor. Best-effort: a full pipe means a wake-up
        /// is already pending, which is all we need.
        pub fn notify(&self) {
            let _ = (&*self.0).write(&[1]);
        }
    }

    impl WakeRx {
        /// Drain pending wake bytes.
        pub fn drain(&mut self) {
            let mut buf = [0u8; 64];
            while matches!(self.0.read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

/// Minimal `poll(2)` binding — readiness for the reactor without any
/// external crate (the container has no epoll/mio dependency; libc is
/// already linked by `std`).
#[cfg(unix)]
mod sys {
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Wait for readiness on `fds` up to `timeout_ms`. Errors (EINTR)
    /// report as "nothing ready"; the caller just loops.
    pub fn poll_in(fds: &mut [PollFd], timeout_ms: i32) -> usize {
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if n < 0 {
            0
        } else {
            n as usize
        }
    }
}

/// Shared per-server state handed to the reactor and every worker.
struct ServerContext {
    storage: StorageService,
    obs: Option<Obs>,
    cfg: ServerConfig,
    requests: Arc<AtomicU64>,
}

impl ServerContext {
    /// Count one served request in the shared registry, labeled by route
    /// path and status code, plus the byte side counters.
    fn record(&self, spec: Option<&RouteSpec>, resp: &HttpResponse, bytes_in: usize) {
        let Some(obs) = &self.obs else { return };
        let r = &obs.registry;
        let route = spec.map(|s| s.path).unwrap_or("unmatched");
        let status = resp.status.to_string();
        r.counter_with(
            "httpapi_requests_total",
            &[("route", route), ("status", &status)],
        )
        .inc();
        r.counter("httpapi_bytes_received_total")
            .add(bytes_in as u64);
        r.counter("httpapi_bytes_sent_total")
            .add(resp.body.len() as u64);
    }

    fn record_io_timeout(&self) {
        if let Some(obs) = &self.obs {
            obs.registry.counter("httpapi_io_timeouts_total").inc();
        }
    }

    fn record_shed(&self, reason: &str) {
        if let Some(obs) = &self.obs {
            obs.registry
                .counter_with("httpapi_sheds_total", &[("reason", reason)])
                .inc();
        }
    }

    fn bump(&self, name: &str) {
        if let Some(obs) = &self.obs {
            obs.registry.counter(name).inc();
        }
    }

    fn add(&self, name: &str, n: u64) {
        if let Some(obs) = &self.obs {
            obs.registry.counter(name).add(n);
        }
    }

    fn overloaded(&self) -> HttpResponse {
        finalize(error_response(StateError::Overloaded {
            retry_after_ms: self.cfg.retry_after_ms(),
        }))
    }
}

/// Stamp the invariant response headers every reply carries.
fn finalize(resp: HttpResponse) -> HttpResponse {
    resp.with_header(SERVER_HEADER, SERVER_VERSION)
}

/// Write a final response on a connection the server is about to close
/// (shed, reject, timeout), then half-close and briefly drain the
/// client's in-flight bytes. Closing with unread data in the receive
/// queue turns the FIN into an RST, which can destroy the very response
/// we just wrote — a shed client would see a connection error instead
/// of its 429. The drain is bounded (client close or 50 ms), so an
/// abusive peer cannot pin the calling thread.
fn write_and_close(stream: &mut TcpStream, resp: &HttpResponse) {
    if resp.write_to(stream, false).is_err() {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
}

/// The response a parse-level failure maps to: `431` oversized head,
/// `413` oversized body, `400` non-HTTP bytes — each with the unified
/// typed JSON body.
fn parse_error_response(e: &RequestError) -> HttpResponse {
    let (status, code, msg) = match e {
        RequestError::HeadersTooLarge => (
            431_u16,
            "headers_too_large",
            "request head exceeds the server's header limit".to_string(),
        ),
        RequestError::BodyTooLarge => (
            413_u16,
            "body_too_large",
            "declared content-length exceeds the server's body limit".to_string(),
        ),
        RequestError::Malformed(err) => (400_u16, "protocol_error", err.to_string()),
    };
    let body = ApiErrorBody {
        code: code.to_string(),
        message: msg.clone(),
        retryable: false,
        source: StateError::protocol(msg),
    };
    let json = serde_json::to_vec(&body).unwrap_or_else(|_| b"{}".to_vec());
    finalize(HttpResponse {
        status,
        reason: reason(status),
        body: json,
        content_type: "application/json",
        headers: Vec::new(),
    })
}

/// The running API server.
pub struct ApiServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<FairQueue>,
    wake: wake::WakeTx,
    accept_thread: Option<JoinHandle<()>>,
    reactor_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    requests: Arc<AtomicU64>,
    stop_grace: Duration,
}

impl ApiServer {
    /// Bind on 127.0.0.1 (ephemeral port) and start serving `storage`
    /// with the default [`ServerConfig`].
    pub fn start(storage: StorageService) -> StateResult<ApiServer> {
        Self::start_with_config(storage, ServerConfig::default(), None)
    }

    /// Like [`ApiServer::start`] but additionally serving `obs` through
    /// `/v1/metrics` and `/v1/status`, and recording request metrics
    /// into its registry.
    pub fn start_with_obs(storage: StorageService, obs: Obs) -> StateResult<ApiServer> {
        Self::start_with_config(storage, ServerConfig::default(), Some(obs))
    }

    /// Fully explicit constructor.
    pub fn start_with_config(
        storage: StorageService,
        cfg: ServerConfig,
        obs: Option<Obs>,
    ) -> StateResult<ApiServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let (wake_tx, wake_rx) = wake::pair()?;

        let conn_gauge = obs
            .as_ref()
            .map(|o| o.registry.gauge("httpapi_open_connections"));
        let queue_gauge = obs
            .as_ref()
            .map(|o| o.registry.gauge("httpapi_queue_depth"));
        let inflight_gauge = obs
            .as_ref()
            .map(|o| o.registry.gauge("httpapi_inflight_requests"));

        let count = Arc::new(ConnCount {
            open: AtomicI64::new(0),
            gauge: conn_gauge,
        });
        let queue = Arc::new(FairQueue::new(cfg.queue_depth, queue_gauge));
        let ctx = Arc::new(ServerContext {
            storage,
            obs,
            cfg: cfg.clone(),
            requests: requests.clone(),
        });

        // Connections flow accept → reactor and worker → reactor over
        // the same channel; the reactor owns the receiving end.
        let (conn_tx, conn_rx) = std::sync::mpsc::channel::<Conn>();

        let accept_thread = {
            let stop = stop.clone();
            let ctx = ctx.clone();
            let count = count.clone();
            let conn_tx = conn_tx.clone();
            let wake = wake_tx.clone();
            std::thread::Builder::new()
                .name("statesman-api-accept".into())
                .spawn(move || accept_loop(listener, stop, ctx, count, conn_tx, wake))
                .expect("spawn accept thread")
        };

        let reactor_thread = {
            let stop = stop.clone();
            let ctx = ctx.clone();
            let queue = queue.clone();
            std::thread::Builder::new()
                .name("statesman-api-reactor".into())
                .spawn(move || reactor_loop(conn_rx, wake_rx, stop, ctx, queue))
                .expect("spawn reactor thread")
        };

        let mut worker_threads = Vec::new();
        for i in 0..cfg.worker_count() {
            let worker = Worker {
                ctx: ctx.clone(),
                queue: queue.clone(),
                conn_tx: conn_tx.clone(),
                wake: wake_tx.clone(),
                inflight: inflight_gauge.clone(),
                hist: ctx.obs.as_ref().map(|o| {
                    o.registry.histogram_with(
                        "httpapi_request_duration_us",
                        &[("worker", &i.to_string())],
                        LATENCY_BUCKETS_US,
                    )
                }),
            };
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("statesman-api-worker-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker thread"),
            );
        }

        Ok(ApiServer {
            addr,
            stop,
            queue,
            wake: wake_tx,
            accept_thread: Some(accept_thread),
            reactor_thread: Some(reactor_thread),
            worker_threads,
            requests,
            stop_grace: cfg.stop_grace,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Worker + reactor + accept thread count — constant for the
    /// server's lifetime regardless of connection count (the bench
    /// asserts this).
    pub fn thread_count(&self) -> usize {
        self.worker_threads.len() + 2
    }

    /// Stop accepting, drain the admitted queue, and join every thread:
    /// accept and reactor synchronously, workers within
    /// [`ServerConfig::stop_grace`] (a worker still mid-write after the
    /// grace is detached; its socket write timeout bounds its life).
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop (blocked in accept) and the reactor
        // (blocked in poll); close the queue so workers drain and exit.
        let _ = TcpStream::connect(self.addr);
        self.queue.close();
        self.wake.notify();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        let deadline = Instant::now() + self.stop_grace;
        for w in self.worker_threads.drain(..) {
            while !w.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if w.is_finished() {
                let _ = w.join();
            }
            // else: detached; it exits on its own once its bounded
            // socket write completes, and the queue is already closed.
        }
    }

    /// Alias for [`ApiServer::shutdown`] under the name the redesigned
    /// API documents.
    pub fn stop(&mut self) {
        self.shutdown();
    }
}

impl Drop for ApiServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The accept loop: configure the socket, enforce the connection limit
/// (shedding with 429 — admission control happens here, not in the OS
/// accept backlog), and hand the connection to the reactor.
fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    ctx: Arc<ServerContext>,
    count: Arc<ConnCount>,
    conn_tx: Sender<Conn>,
    wake: wake::WakeTx,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        // Blocking writes (workers, sheds) are bounded by this; reads
        // never block (the reactor uses nonblocking mode + poll).
        let _ = stream.set_write_timeout(Some(ctx.cfg.idle_timeout.max(Duration::from_millis(1))));
        ctx.bump("httpapi_connections_total");
        if count.get() >= ctx.cfg.max_connections as i64 {
            ctx.record_shed("max_connections");
            let resp = ctx.overloaded();
            ctx.record(None, &resp, 0);
            let mut stream = stream;
            write_and_close(&mut stream, &resp);
            continue;
        }
        if conn_tx.send(Conn::new(stream, count.clone())).is_err() {
            break; // reactor gone (shutdown)
        }
        wake.notify();
    }
}

/// What the reactor decided about one connection after a readiness pass.
enum Verdict {
    /// Keep waiting.
    Idle,
    /// A complete request is buffered: hand to the queue.
    Ready,
    /// Peer closed / socket error: drop silently.
    Close,
    /// Answer this response, then close (408, 431, 413, 400).
    Reject(HttpResponse, &'static str),
}

/// The reactor: owns idle connections in nonblocking mode, waits for
/// readiness with `poll(2)`, parses incrementally, enforces idle
/// timeouts, and feeds complete requests to the fair queue (shedding
/// 429 when it is full). One thread, any number of connections.
fn reactor_loop(
    conn_rx: Receiver<Conn>,
    mut wake_rx: wake::WakeRx,
    stop: Arc<AtomicBool>,
    ctx: Arc<ServerContext>,
    queue: Arc<FairQueue>,
) {
    use std::os::fd::AsRawFd;
    let limits = ctx.cfg.limits();
    let idle = ctx.cfg.idle_timeout.max(Duration::from_millis(1));
    let mut conns: Vec<Conn> = Vec::new();
    let mut pollfds: Vec<sys::PollFd> = Vec::new();

    while !stop.load(Ordering::SeqCst) {
        // Ingest new and returned connections.
        while let Ok(mut c) = conn_rx.try_recv() {
            if c.stream.set_nonblocking(true).is_err() {
                continue; // drops (and un-counts) the connection
            }
            c.last_activity = Instant::now();
            conns.push(c);
        }

        // Wait for readiness: the wake pipe plus every connection.
        let now = Instant::now();
        let next_deadline = conns
            .iter()
            .map(|c| c.last_activity + idle)
            .min()
            .unwrap_or(now + Duration::from_millis(500));
        let timeout_ms = next_deadline
            .saturating_duration_since(now)
            .as_millis()
            .clamp(1, 500) as i32;
        pollfds.clear();
        pollfds.push(sys::PollFd {
            fd: wake_rx.0.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        for c in &conns {
            pollfds.push(sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
        }
        sys::poll_in(&mut pollfds, timeout_ms);
        wake_rx.drain();

        // Scan: readable conns first (the pollfd list is conns[i] at
        // index i+1), then idle deadlines for everyone.
        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            let readable = pollfds
                .get(i + 1)
                .map(|p| p.revents & sys::POLLIN != 0)
                // A conn ingested after the pollfd snapshot: treat as
                // readable once so freshly returned keep-alive sockets
                // are pumped promptly.
                .unwrap_or(true);
            let verdict = pump(&mut conns[i], readable, now, idle, &limits, &ctx);
            match verdict {
                Verdict::Idle => i += 1,
                Verdict::Close => {
                    conns.swap_remove(i);
                }
                Verdict::Reject(resp, why) => {
                    let mut c = conns.swap_remove(i);
                    if why == "io_timeout" {
                        ctx.record_io_timeout();
                    }
                    ctx.record(None, &resp, 0);
                    let _ = c.stream.set_nonblocking(false);
                    write_and_close(&mut c.stream, &resp);
                }
                Verdict::Ready => {
                    let mut c = conns.swap_remove(i);
                    match next_buffered_request(&mut c, &limits) {
                        Ok(Some(req)) => {
                            let _ = c.stream.set_nonblocking(false);
                            if let Err(job) = queue.push(Job::new(c, req)) {
                                shed_job(job, &ctx);
                            }
                        }
                        // Race-proofing; pump said Ready, so these are
                        // unreachable in practice.
                        Ok(None) => conns.push(c),
                        Err(e) => {
                            let resp = parse_error_response(&e);
                            ctx.record(None, &resp, 0);
                            let _ = c.stream.set_nonblocking(false);
                            write_and_close(&mut c.stream, &resp);
                        }
                    }
                }
            }
        }
    }
    // Shutdown: close everything still parked here or in transit.
    drop(conns);
    while conn_rx.try_recv().is_ok() {}
}

/// Shed one admitted-but-unqueueable request with 429 + Retry-After.
fn shed_job(job: Job, ctx: &ServerContext) {
    ctx.record_shed("queue_full");
    let resp = ctx.overloaded();
    ctx.record(None, &resp, job.req.body.len());
    let mut conn = job.conn;
    write_and_close(&mut conn.stream, &resp);
}

/// One reactor pass over one connection: drain readable bytes, check
/// parse state, check the idle deadline.
fn pump(
    conn: &mut Conn,
    readable: bool,
    now: Instant,
    idle: Duration,
    limits: &HttpLimits,
    _ctx: &ServerContext,
) -> Verdict {
    if readable {
        let mut tmp = [0u8; 16 << 10];
        loop {
            match conn.stream.read(&mut tmp) {
                Ok(0) => return Verdict::Close,
                Ok(n) => {
                    conn.buf.extend_from_slice(&tmp[..n]);
                    conn.last_activity = now;
                    if n < tmp.len() {
                        break;
                    }
                    // Stop slurping unboundedly ahead of the parser; the
                    // limits check below fires before the next read.
                    if conn.buf.len() > limits.max_header_bytes + limits.max_body_bytes {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
        // Parse as far as the bytes allow.
        if conn.head.is_none() && !conn.buf.is_empty() {
            match parse_head(&conn.buf, limits) {
                Ok(h) => conn.head = h,
                Err(e) => return Verdict::Reject(parse_error_response(&e), "parse"),
            }
        }
        if let Some(h) = &conn.head {
            if conn.buf.len() >= h.total_len() {
                return Verdict::Ready;
            }
        }
    }
    if now.saturating_duration_since(conn.last_activity) >= idle {
        // Mid-request (or never requested): 408. A quiet keep-alive
        // connection that has already been served closes silently.
        if conn.served == 0 || !conn.buf.is_empty() || conn.head.is_some() {
            return Verdict::Reject(
                finalize(HttpResponse::request_timeout(
                    "connection idled past the server's read timeout",
                )),
                "io_timeout",
            );
        }
        _ctx.bump("httpapi_idle_closes_total");
        return Verdict::Close;
    }
    Verdict::Idle
}

/// One pool worker: pops fair-queue jobs, serves them (coalescing
/// same-pool writes), drains pipelined requests, and returns keep-alive
/// connections to the reactor.
struct Worker {
    ctx: Arc<ServerContext>,
    queue: Arc<FairQueue>,
    conn_tx: Sender<Conn>,
    wake: wake::WakeTx,
    inflight: Option<Gauge>,
    hist: Option<Histogram>,
}

impl Worker {
    fn run(&self) {
        while let Some(job) = self.queue.pop() {
            if let Some(g) = &self.inflight {
                g.add(1);
            }
            self.serve(job);
            if let Some(g) = &self.inflight {
                g.add(-1);
            }
        }
    }

    fn serve(&self, job: Job) {
        let coalesce = self.ctx.cfg.write_coalesce;
        if coalesce > 1 && job.req.method == "POST" && job.req.path == "/v1/write" {
            if let Some(pool) = job.req.param("Pool") {
                // The gather window is anchored at the job's *enqueue*
                // time: a write popped off a backlog has already aged
                // past the deadline and commits with whatever is queued
                // right now, so coalescing never adds delay on top of
                // queueing delay — it only spends idle time.
                let deadline = job.enqueued_at + self.ctx.cfg.write_coalesce_max_delay;
                let extras = self.queue.take_writes_until(pool, coalesce - 1, deadline);
                if !extras.is_empty() {
                    self.serve_write_batch(job, extras);
                    return;
                }
            }
        }
        let Job { mut conn, req, .. } = job;
        let closing = self.serve_one(&mut conn, req);
        self.finish_conn(conn, closing);
    }

    /// Dispatch one request and write its response. Returns whether the
    /// connection must close afterwards.
    fn serve_one(&self, conn: &mut Conn, req: HttpRequest) -> bool {
        let (spec, resp) = dispatch(&req, &self.ctx);
        self.respond(conn, &req, finalize(resp), spec)
    }

    /// Write an already-built response with full bookkeeping (request
    /// count, metrics, keep-alive accounting, latency histogram).
    fn respond(
        &self,
        conn: &mut Conn,
        req: &HttpRequest,
        resp: HttpResponse,
        spec: Option<&'static RouteSpec>,
    ) -> bool {
        let start = Instant::now();
        let cfg = &self.ctx.cfg;
        let will_close = req.wants_close() || conn.served + 1 >= cfg.max_requests_per_conn;
        if conn.served > 0 {
            self.ctx.bump("httpapi_keepalive_reuses_total");
        }
        conn.served += 1;
        self.ctx.requests.fetch_add(1, Ordering::Relaxed);
        self.ctx.record(spec, &resp, req.body.len());
        let ok = resp.write_to(&mut conn.stream, !will_close).is_ok();
        if let Some(h) = &self.hist {
            h.observe(start.elapsed().as_micros() as f64);
        }
        will_close || !ok
    }

    /// Drain pipelined requests already buffered (budget-capped), then
    /// either return the connection to the reactor or let it drop.
    fn finish_conn(&self, mut conn: Conn, mut closing: bool) {
        let limits = self.ctx.cfg.limits();
        let mut burst = 1; // the request that got us here
        while !closing && burst < self.ctx.cfg.pipeline_burst {
            match next_buffered_request(&mut conn, &limits) {
                Ok(Some(req)) => {
                    burst += 1;
                    closing = self.serve_one(&mut conn, req);
                }
                Ok(None) => break,
                Err(e) => {
                    let resp = parse_error_response(&e);
                    self.ctx.record(None, &resp, 0);
                    let _ = resp.write_to(&mut conn.stream, false);
                    closing = true;
                }
            }
        }
        if closing {
            return; // conn drops; ConnCount decrements
        }
        // Burst exhausted with another full request buffered? Route it
        // back through the fair queue instead of hogging this worker.
        match next_buffered_request(&mut conn, &limits) {
            Ok(Some(req)) => {
                if let Err(job) = self.queue.push(Job::new(conn, req)) {
                    shed_job(job, &self.ctx);
                }
            }
            Ok(None) => {
                if self.conn_tx.send(conn).is_ok() {
                    self.wake.notify();
                }
                // send fails only at shutdown; the conn just drops.
            }
            Err(e) => {
                let resp = parse_error_response(&e);
                self.ctx.record(None, &resp, 0);
                let _ = resp.write_to(&mut conn.stream, false);
            }
        }
    }

    /// Coalesced write path: this job plus `extras` all target the same
    /// pool via plain `/v1/write`. Parse every body, commit the good
    /// ones as ONE storage batch (the sharded plane fans it out
    /// per-partition concurrently), and answer each connection
    /// individually. On a batch error fall back to per-request writes —
    /// value-identical rewrites are no-ops, so re-execution is safe and
    /// per-caller error attribution is preserved.
    fn serve_write_batch(&self, primary: Job, extras: Vec<Job>) {
        let spec = ROUTES.iter().find(|s| s.route == Route::Write);
        let pool = primary
            .req
            .param("Pool")
            .and_then(Pool::parse_wire_name)
            .expect("caller matched a plain write with a Pool param; wire names parse or the job would not have matched take_writes");
        let mut jobs: Vec<Job> = Vec::with_capacity(1 + extras.len());
        jobs.push(primary);
        jobs.extend(extras);

        let mut parsed: Vec<(Job, StateResult<Vec<NetworkState>>)> = jobs
            .into_iter()
            .map(|j| {
                let rows = serde_json::from_slice::<Vec<NetworkState>>(&j.req.body)
                    .map_err(|e| StateError::protocol(format!("body: {e}")));
                (j, rows)
            })
            .collect();

        let batch: Vec<NetworkState> = parsed
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok())
            .flatten()
            .cloned()
            .collect();
        let good = parsed.iter().filter(|(_, r)| r.is_ok()).count();
        let batched = self
            .ctx
            .storage
            .write(WriteRequest {
                pool: pool.clone(),
                rows: batch,
            })
            .is_ok();
        if good > 1 {
            self.ctx.bump("httpapi_write_batches_total");
            self.ctx
                .add("httpapi_writes_coalesced_total", (good - 1) as u64);
        }

        for (job, rows) in parsed.drain(..) {
            let Job { mut conn, req, .. } = job;
            let resp = match rows {
                Err(e) => error_response(e),
                Ok(rows) if batched => {
                    let _ = rows;
                    HttpResponse::no_content()
                }
                // Batch failed: per-request fallback isolates the
                // culprit and gives everyone their own typed error.
                Ok(rows) => match self.ctx.storage.write(WriteRequest {
                    pool: pool.clone(),
                    rows,
                }) {
                    Ok(()) => HttpResponse::no_content(),
                    Err(e) => error_response(e),
                },
            };
            let closing = self.respond(&mut conn, &req, finalize(resp), spec);
            self.finish_conn(conn, closing);
        }
    }
}

/// Route-table dispatch: exact-match lookup + handler invocation. A known
/// path under an unknown verb is 405 (with `allow`), an unknown path is
/// 404.
fn dispatch(req: &HttpRequest, ctx: &ServerContext) -> (Option<&'static RouteSpec>, HttpResponse) {
    let on_path: Vec<&'static RouteSpec> = ROUTES.iter().filter(|s| s.path == req.path).collect();
    if on_path.is_empty() {
        return (None, HttpResponse::not_found());
    }
    let Some(spec) = on_path.iter().find(|s| s.method == req.method) else {
        let allow = on_path
            .iter()
            .map(|s| s.method)
            .collect::<Vec<_>>()
            .join(", ");
        // Attribute the 405 to the path's first row so the metric lands
        // on a real route.
        return (Some(on_path[0]), HttpResponse::method_not_allowed(&allow));
    };
    let resp = match spec.route {
        Route::Read => handle_read(req, &ctx.storage),
        Route::Write => handle_write(req, &ctx.storage),
        Route::Receipts => handle_receipts(req, ctx),
        Route::Health => handle_health(ctx),
        Route::Metrics => handle_metrics(req, ctx),
        Route::Status => handle_status(req, ctx),
    };
    (Some(spec), resp)
}

fn storage_error(e: StateError) -> HttpResponse {
    error_response(e)
}

fn handle_read(req: &HttpRequest, storage: &StorageService) -> HttpResponse {
    if req.param("since").is_some() {
        return handle_read_since(req, storage);
    }
    let parse = || -> StateResult<ReadRequest> {
        let dc = DatacenterId::new(req.require("Datacenter")?);
        let pool = Pool::parse_wire_name(req.require("Pool")?)
            .ok_or_else(|| StateError::protocol("bad Pool"))?;
        let freshness = match req.param("Freshness") {
            Some(f) => Freshness::parse_wire_name(f)
                .ok_or_else(|| StateError::protocol("bad Freshness"))?,
            None => Freshness::UpToDate,
        };
        let entity = match req.param("Entity") {
            Some(e) => Some(
                EntityName::parse_wire_name(e).ok_or_else(|| StateError::protocol("bad Entity"))?,
            ),
            None => None,
        };
        let attribute = match req.param("Attribute") {
            Some(a) => Some(
                Attribute::parse_wire_name(a)
                    .ok_or_else(|| StateError::protocol("bad Attribute"))?,
            ),
            None => None,
        };
        Ok(ReadRequest {
            datacenter: dc,
            pool,
            freshness,
            entity,
            attribute,
        })
    };
    let request = match parse() {
        Ok(r) => r,
        Err(e) => return error_response(e),
    };
    match storage.read_versioned(request) {
        Ok((mut rows, served)) => {
            rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
            match serde_json::to_vec(&rows) {
                // Stamp the pool version these rows reflect — not the
                // leader's current one, which a bounded-stale body may
                // trail — so a snapshot-then-follow client can start its
                // changefeed from exactly here without a probe.
                Ok(json) => {
                    HttpResponse::ok_json(json).with_header(WATERMARK_HEADER, served.0.to_string())
                }
                Err(e) => error_response(StateError::protocol(format!("serialize: {e}"))),
            }
        }
        Err(e) => storage_error(e),
    }
}

/// `GET /v1/read?since=<version>`: the changefeed read. Always a leader
/// read; the reply body is a [`statesman_types::StateDelta`] and the new
/// watermark rides in [`WATERMARK_HEADER`].
fn handle_read_since(req: &HttpRequest, storage: &StorageService) -> HttpResponse {
    let parse = || -> StateResult<(DatacenterId, Pool, Version)> {
        let dc = DatacenterId::new(req.require("Datacenter")?);
        let pool = Pool::parse_wire_name(req.require("Pool")?)
            .ok_or_else(|| StateError::protocol("bad Pool"))?;
        let since = req
            .param("since")
            .expect("checked by caller")
            .parse::<u64>()
            .map_err(|_| StateError::protocol("since must be a non-negative integer version"))?;
        // A delta is the whole pool's change set: row filters and
        // staleness bounds don't compose with it.
        for incompatible in ["Entity", "Attribute", "Freshness"] {
            if req.param(incompatible).is_some() {
                return Err(StateError::protocol(format!(
                    "{incompatible} cannot be combined with since"
                )));
            }
        }
        Ok((dc, pool, Version(since)))
    };
    let (dc, pool, since) = match parse() {
        Ok(p) => p,
        Err(e) => return error_response(e),
    };
    match storage.read_since(&dc, &pool, since) {
        Ok(delta) => {
            let watermark = delta.watermark.0.to_string();
            match serde_json::to_vec(&delta) {
                Ok(json) => HttpResponse::ok_json(json).with_header(WATERMARK_HEADER, watermark),
                Err(e) => error_response(StateError::protocol(format!("serialize: {e}"))),
            }
        }
        Err(e) => storage_error(e),
    }
}

fn handle_write(req: &HttpRequest, storage: &StorageService) -> HttpResponse {
    let pool = match req
        .require("Pool")
        .and_then(|p| Pool::parse_wire_name(p).ok_or_else(|| StateError::protocol("bad Pool")))
    {
        Ok(p) => p,
        Err(e) => return error_response(e),
    };
    let rows: Vec<NetworkState> = match serde_json::from_slice(&req.body) {
        Ok(r) => r,
        Err(e) => return error_response(StateError::protocol(format!("body: {e}"))),
    };
    match storage.write(WriteRequest { pool, rows }) {
        Ok(()) => HttpResponse::no_content(),
        Err(e) => storage_error(e),
    }
}

/// Bits of a receipt cursor that hold the position; the partition's
/// ordinal sits above them.
const CURSOR_POSITION_BITS: u32 = 48;

/// `GET /v1/receipts?App=<app>[&limit=N][&after=C]`.
///
/// Receipts live only in storage and the server holds none, so a
/// restarted server serves the same pages. `after=C` first acknowledges
/// the page `C` came from: a logged ack of every receipt up to `C`'s
/// position in `C`'s partition. Then, without `limit`, every pending
/// receipt in every partition is taken (read and acknowledged). With
/// `limit`, the reply is a page of at most `limit` pending receipts from
/// the first partition, in sorted order, that has any. The page is read,
/// not acknowledged: reading again without `after` returns it again.
/// [`CURSOR_HEADER`] is the partition's ordinal shifted left by
/// [`CURSOR_POSITION_BITS`], or'd with the page's last position (an empty
/// page echoes `after`, or 0). A partition that fails is skipped and
/// keeps its receipts; the reply is an error only if the request
/// acknowledged and returned nothing.
fn handle_receipts(req: &HttpRequest, ctx: &ServerContext) -> HttpResponse {
    let partitions = ctx.storage.partitions();
    let parse = || -> StateResult<(AppId, Option<usize>, Option<u64>)> {
        let app = AppId::new(req.require("App")?);
        let limit = req.param("limit").map(|l| {
            l.parse::<usize>().map_err(|_| {
                StateError::invalid(format!("limit must be a non-negative integer, got {l:?}"))
            })
        });
        let after = req.param("after").map(|a| match a.parse::<u64>() {
            Ok(c) if ((c >> CURSOR_POSITION_BITS) as usize) < partitions.len() => Ok(c),
            _ => Err(StateError::invalid(format!(
                "after must be a cursor from a prior page, got {a:?}"
            ))),
        });
        Ok((app, limit.transpose()?, after.transpose()?))
    };
    let (app, limit, after) = match parse() {
        Ok(p) => p,
        Err(e) => return error_response(e),
    };
    if let Some(c) = after {
        let dc = &partitions[(c >> CURSOR_POSITION_BITS) as usize];
        let through = c & ((1 << CURSOR_POSITION_BITS) - 1);
        if let Err(e) = ctx.storage.ack_receipts(dc, &app, through) {
            return storage_error(e);
        }
    }
    let Some(limit) = limit else {
        return match ctx.storage.take_all_receipts(&app) {
            Ok(all) => receipts_reply(&all, None),
            Err(_) if after.is_some() => receipts_reply(&[], None),
            Err(e) => storage_error(e),
        };
    };
    let mut failure = None;
    for (ordinal, dc) in partitions.iter().enumerate() {
        match ctx.storage.pending_receipts(dc, &app, limit) {
            Ok(pending) => {
                if let Some((last, _)) = pending.last() {
                    let cursor = ((ordinal as u64) << CURSOR_POSITION_BITS) | last;
                    let page: Vec<WriteReceipt> = pending.into_iter().map(|(_, r)| r).collect();
                    return receipts_reply(&page, Some(cursor));
                }
            }
            Err(e) => failure = failure.or(Some(e)),
        }
    }
    match failure {
        Some(e) if after.is_none() => storage_error(e),
        _ => receipts_reply(&[], Some(after.unwrap_or(0))),
    }
}

/// A receipts body, with its page cursor when paginated.
fn receipts_reply(receipts: &[WriteReceipt], cursor: Option<u64>) -> HttpResponse {
    match serde_json::to_vec(receipts) {
        Ok(json) => match cursor {
            Some(c) => HttpResponse::ok_json(json).with_header(CURSOR_HEADER, c.to_string()),
            None => HttpResponse::ok_json(json),
        },
        Err(e) => error_response(StateError::protocol(format!("serialize: {e}"))),
    }
}

fn handle_health(ctx: &ServerContext) -> HttpResponse {
    let body = HealthResponse {
        ok: true,
        now_ms: ctx.storage.clock().now().as_millis(),
    };
    match serde_json::to_vec(&body) {
        Ok(json) => HttpResponse::ok_json(json),
        Err(e) => error_response(StateError::protocol(format!("serialize: {e}"))),
    }
}

fn handle_metrics(req: &HttpRequest, ctx: &ServerContext) -> HttpResponse {
    let Some(obs) = &ctx.obs else {
        return error_response(StateError::invalid(
            "observability is not enabled on this server (start it with start_with_obs)",
        ));
    };
    match req.param("format") {
        Some("json") => HttpResponse::ok_json(obs.registry.render_json().into_bytes()),
        None | Some("text") => HttpResponse::ok_text(obs.registry.render_text().into_bytes()),
        Some(other) => error_response(StateError::invalid(format!(
            "unknown metrics format {other:?} (use \"text\" or \"json\")"
        ))),
    }
}

fn handle_status(req: &HttpRequest, ctx: &ServerContext) -> HttpResponse {
    let Some(obs) = &ctx.obs else {
        return error_response(StateError::invalid(
            "observability is not enabled on this server (start it with start_with_obs)",
        ));
    };
    let rounds = match req.param("rounds") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return error_response(StateError::invalid(format!(
                    "rounds must be a non-negative integer, got {n:?}"
                )))
            }
        },
        None => 1,
    };
    let body = StatusResponse {
        status: obs.status(),
        traces: obs.traces.recent(rounds),
    };
    match serde_json::to_vec(&body) {
        Ok(json) => HttpResponse::ok_json(json),
        Err(e) => error_response(StateError::protocol(format!("serialize: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ApiClient;
    use statesman_net::SimClock;
    use statesman_types::{SimTime, Value};

    fn server() -> (ApiServer, ApiClient, SimClock) {
        let clock = SimClock::new();
        let storage = StorageService::single_dc("dc1", clock.clone());
        let server = ApiServer::start(storage).unwrap();
        let client = ApiClient::new(server.addr());
        (server, client, clock)
    }

    fn server_with(cfg: ServerConfig) -> (ApiServer, ApiClient, SimClock) {
        let clock = SimClock::new();
        let storage = StorageService::single_dc("dc1", clock.clone());
        let server = ApiServer::start_with_config(storage, cfg, None).unwrap();
        let client = ApiClient::new(server.addr());
        (server, client, clock)
    }

    fn fw_row(dev: &str, v: &str, at: SimTime) -> NetworkState {
        NetworkState::new(
            EntityName::device("dc1", dev),
            Attribute::DeviceFirmwareVersion,
            Value::text(v),
            at,
            AppId::monitor(),
        )
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut server, client, clock) = server();
        client
            .write(&Pool::Observed, &[fw_row("agg-1-1", "6.0", clock.now())])
            .unwrap();
        let rows = client
            .read(
                &DatacenterId::new("dc1"),
                &Pool::Observed,
                Freshness::UpToDate,
                None,
                None,
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, Value::text("6.0"));
        assert!(server.request_count() >= 2);
        server.shutdown();
    }

    #[test]
    fn read_filters_by_entity_and_attribute() {
        let (mut server, client, clock) = server();
        client
            .write(
                &Pool::Observed,
                &[
                    fw_row("agg-1-1", "6.0", clock.now()),
                    fw_row("agg-1-2", "6.0", clock.now()),
                ],
            )
            .unwrap();
        let rows = client
            .read(
                &DatacenterId::new("dc1"),
                &Pool::Observed,
                Freshness::UpToDate,
                Some(&EntityName::device("dc1", "agg-1-2")),
                Some(Attribute::DeviceFirmwareVersion),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].entity, EntityName::device("dc1", "agg-1-2"));
        server.shutdown();
    }

    #[test]
    fn read_since_serves_the_changefeed_over_the_wire() {
        let (mut server, client, clock) = server();
        let dc = DatacenterId::new("dc1");
        client
            .write(
                &Pool::Observed,
                &[
                    fw_row("agg-1-1", "6.0", clock.now()),
                    fw_row("agg-1-2", "6.0", clock.now()),
                ],
            )
            .unwrap();

        // From genesis: both rows arrive as one delta, watermark echoed
        // in the header (checked inside read_since).
        let d0 = client
            .read_os_since(&dc, statesman_types::Version::GENESIS)
            .unwrap();
        assert_eq!(d0.upserts.len(), 2);
        assert!(d0.deletes.is_empty());

        // Caught up: empty delta at the same watermark.
        let d1 = client.read_os_since(&dc, d0.watermark).unwrap();
        assert!(d1.is_empty());
        assert_eq!(d1.watermark, d0.watermark);

        // One change: exactly one upsert rides the feed.
        client
            .write(&Pool::Observed, &[fw_row("agg-1-1", "7.0", clock.now())])
            .unwrap();
        let d2 = client.read_os_since(&dc, d1.watermark).unwrap();
        assert_eq!(d2.upserts.len(), 1);
        assert_eq!(d2.upserts[0].value, Value::text("7.0"));
        assert!(!d2.snapshot);

        // The raw reply really carries the watermark header.
        let resp = client
            .raw_request("GET", "/v1/read?Datacenter=dc1&Pool=OS&since=0", &[])
            .unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.watermark().is_some(), "{:?}", resp.headers);
        server.shutdown();
    }

    #[test]
    fn every_response_names_the_server() {
        let (mut server, client, _clock) = server();
        let ok = client.raw_request("GET", "/v1/health", &[]).unwrap();
        assert_eq!(ok.server_version(), Some(SERVER_VERSION));
        let err = client.raw_request("GET", "/v1/read", &[]).unwrap();
        assert_eq!(err.status, 400);
        assert_eq!(err.server_version(), Some(SERVER_VERSION));
        server.shutdown();
    }

    #[test]
    fn full_reads_carry_the_pool_watermark() {
        let (mut server, client, clock) = server();
        client
            .write(&Pool::Observed, &[fw_row("agg-1-1", "6.0", clock.now())])
            .unwrap();
        let resp = client
            .raw_request("GET", "/v1/read?Datacenter=dc1&Pool=OS", &[])
            .unwrap();
        assert_eq!(resp.status, 200);
        let w = resp.watermark().expect("full reads carry the watermark");
        // Following the changefeed from that watermark is caught-up.
        let d = client
            .read_os_since(&DatacenterId::new("dc1"), Version(w))
            .unwrap();
        assert!(d.is_empty(), "{d:?}");
        server.shutdown();
    }

    #[test]
    fn bounded_stale_reads_stamp_the_version_they_served() {
        let (mut server, client, clock) = server();
        let dc = DatacenterId::new("dc1");
        client
            .write(&Pool::Observed, &[fw_row("agg-1-1", "6.0", clock.now())])
            .unwrap();
        // Warm the cache, then commit a row the cached snapshot lacks.
        let stale = "/v1/read?Datacenter=dc1&Pool=OS&Freshness=bounded-stale";
        assert_eq!(client.raw_request("GET", stale, &[]).unwrap().status, 200);
        let late = fw_row("agg-1-2", "6.1", clock.now());
        client
            .write(&Pool::Observed, std::slice::from_ref(&late))
            .unwrap();
        let resp = client.raw_request("GET", stale, &[]).unwrap();
        let body: Vec<NetworkState> = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(body.len(), 1, "served from the cache: {body:?}");
        // Snapshot-then-follow: the header is the version of the rows in
        // the body, so following from it delivers the row they lack. (The
        // leader's current watermark here would skip it for good.)
        let w = resp.watermark().expect("reads carry the watermark");
        let d = client.read_os_since(&dc, Version(w)).unwrap();
        assert_eq!(d.upserts.len(), 1, "{d:?}");
        assert_eq!(d.upserts[0].key(), late.key());
        server.shutdown();
    }

    #[test]
    fn read_since_rejects_bad_and_incompatible_params() {
        let (mut server, client, _clock) = server();
        for target in [
            "/v1/read?Datacenter=dc1&Pool=OS&since=banana",
            "/v1/read?Datacenter=dc1&Pool=OS&since=-1",
            "/v1/read?Datacenter=dc1&Pool=OS&since=0&Entity=device:dc1:agg-1-1",
            "/v1/read?Datacenter=dc1&Pool=OS&since=0&Attribute=DeviceFirmwareVersion",
            "/v1/read?Datacenter=dc1&Pool=OS&since=0&Freshness=UpToDate",
        ] {
            let err = client.raw_get(target).unwrap_err();
            assert!(
                matches!(err, StateError::Protocol { .. }),
                "{target}: {err:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn bad_requests_are_typed_4xx() {
        let (mut server, client, _clock) = server();
        let err = client.raw_get("/v1/read?Pool=OS").unwrap_err();
        assert!(
            matches!(err, StateError::Protocol { .. }),
            "missing Datacenter is a protocol error: {err}"
        );
        let err = client.raw_get("/nope").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        server.shutdown();
    }

    #[test]
    fn known_path_wrong_verb_is_405_with_allow() {
        let (mut server, client, _clock) = server();
        let resp = client.raw_request("POST", "/v1/read", &[]).unwrap();
        assert_eq!(resp.status, 405);
        assert_eq!(resp.header("allow"), Some("GET"));
        // Unknown paths — the retired Table-3 spellings included — stay
        // 404 even with a known verb.
        for path in [
            "/v2/read",
            "/NetworkState/Read?Datacenter=dc1&Pool=OS",
            "/healthz",
        ] {
            let resp = client.raw_request("GET", path, &[]).unwrap();
            assert_eq!(resp.status, 404, "{path}");
        }
        server.shutdown();
    }

    #[test]
    fn health_endpoint_reports_sim_time() {
        let (mut server, client, clock) = server();
        clock.advance(statesman_types::SimDuration::from_mins(3));
        let body = client.raw_get("/v1/health").unwrap();
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"ok\":true"), "{text}");
        assert!(
            text.contains(&format!("\"now_ms\":{}", 3 * 60_000)),
            "{text}"
        );
        server.shutdown();
    }

    #[test]
    fn unroutable_write_is_typed_4xx() {
        let (mut server, client, clock) = server();
        let row = NetworkState::new(
            EntityName::device("dc-unknown", "x"),
            Attribute::DeviceFirmwareVersion,
            Value::text("1"),
            clock.now(),
            AppId::monitor(),
        );
        let err = client.write(&Pool::Observed, &[row]).unwrap_err();
        assert!(
            matches!(err, StateError::UnroutableEntity { .. }),
            "client decodes the typed error: {err:?}"
        );
        server.shutdown();
    }

    #[test]
    fn metrics_and_status_require_obs() {
        let (mut server, client, _clock) = server();
        let err = client.raw_get("/v1/metrics").unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn half_open_connections_time_out_and_do_not_wedge_the_server() {
        use std::io::Read;
        let clock = SimClock::new();
        let storage = StorageService::single_dc("dc1", clock);
        let cfg = ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let mut server = ApiServer::start_with_config(storage, cfg, None).unwrap();
        let client = ApiClient::new(server.addr());

        // A client connects and never sends a byte (half-open)...
        let mut idle = TcpStream::connect(server.addr()).unwrap();

        // ...other clients are still served meanwhile...
        let body = client.raw_get("/v1/health").unwrap();
        assert!(String::from_utf8_lossy(&body).contains("\"ok\":true"));

        // ...and once the idle timeout fires, the idle connection is
        // answered with 408 and closed rather than pinning anything.
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        idle.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");

        // Shutdown joins all threads promptly (no wedged thread).
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_socket() {
        use std::io::{BufReader, Write};
        let (mut server, _client, _clock) = server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..5 {
            writer
                .write_all(b"GET /v1/health HTTP/1.1\r\nhost: x\r\n\r\n")
                .unwrap();
            let resp = crate::http::read_response_buffered(&mut reader).unwrap();
            assert_eq!(resp.status, 200, "request {i}");
            assert!(!resp.connection_close(), "request {i} keeps the conn");
        }
        assert_eq!(server.request_count(), 5);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_all_answer_in_order() {
        use std::io::{BufReader, Write};
        let (mut server, _client, _clock) = server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Three requests in one burst; the last asks to close.
        writer
            .write_all(
                b"GET /v1/health HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\nGET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n",
            )
            .unwrap();
        let r1 = crate::http::read_response_buffered(&mut reader).unwrap();
        let r2 = crate::http::read_response_buffered(&mut reader).unwrap();
        let r3 = crate::http::read_response_buffered(&mut reader).unwrap();
        assert_eq!(
            (r1.status, r2.status, r3.status),
            (200, 404, 200),
            "responses arrive in request order"
        );
        assert!(r3.connection_close());
        server.shutdown();
    }

    #[test]
    fn queue_overflow_sheds_with_429_and_retry_after() {
        // One worker, queue depth 1, and a storage briefly blocked is
        // hard to fake — instead flood with more simultaneous requests
        // than worker+queue can admit. Some must shed with 429; none may
        // get a connection error before a response.
        let (server, _client, _clock) = server_with(ServerConfig {
            workers: 1,
            queue_depth: 1,
            retry_after: Duration::from_secs(3),
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let mut server = server;
        let handles: Vec<_> = (0..24)
            .map(|_| {
                std::thread::spawn(move || {
                    let client = ApiClient::new(addr);
                    client.raw_request("GET", "/v1/health", &[]).unwrap()
                })
            })
            .collect();
        let mut ok = 0;
        let mut shed = 0;
        for h in handles {
            let resp = h.join().unwrap();
            match resp.status {
                200 => ok += 1,
                429 => {
                    shed += 1;
                    assert_eq!(resp.retry_after(), Some(3), "{:?}", resp.headers);
                    let e = crate::error::decode_error(resp.status, &resp.body);
                    assert!(
                        matches!(e, StateError::Overloaded { .. }) && e.is_retryable(),
                        "{e:?}"
                    );
                }
                other => panic!("unexpected status {other}"),
            }
        }
        assert!(ok > 0, "some requests must be served");
        // Shedding is load-dependent; with depth 1 and 24 parallel
        // clients it is effectively guaranteed, but don't flake if the
        // machine serializes the flood.
        let _ = shed;
        server.shutdown();
    }

    #[test]
    fn gather_window_coalesces_staggered_writes_and_stays_bounded() {
        let clock = SimClock::new();
        let storage = StorageService::single_dc("dc1", clock.clone());
        let obs = Obs::new();
        let mut server = ApiServer::start_with_config(
            storage,
            ServerConfig {
                workers: 1,
                write_coalesce: 8,
                write_coalesce_max_delay: Duration::from_millis(500),
                ..ServerConfig::default()
            },
            Some(obs.clone()),
        )
        .unwrap();
        let addr = server.addr();

        // Two near-simultaneous writes on a single worker: whichever is
        // popped first opens a gather window, and the other joins its
        // batch inside it instead of waiting for a second storage trip.
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let clock = clock.clone();
                std::thread::spawn(move || {
                    let client = ApiClient::new(addr);
                    client
                        .write(
                            &Pool::Observed,
                            &[fw_row(&format!("agg-1-{}", i + 1), "6.0", clock.now())],
                        )
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            obs.registry.counter("httpapi_write_batches_total").get(),
            1,
            "the two writes commit as one storage batch"
        );
        assert_eq!(
            obs.registry.counter("httpapi_writes_coalesced_total").get(),
            1
        );

        // A lone write's window is bounded: it commits after at most the
        // configured delay, not an open-ended wait for company.
        let started = Instant::now();
        ApiClient::new(addr)
            .write(&Pool::Observed, &[fw_row("agg-1-3", "7.0", clock.now())])
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "lone write answered within the bounded window"
        );
        server.shutdown();
    }

    #[test]
    fn connection_limit_sheds_new_connects() {
        let (mut server, client, _clock) = server_with(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        // Occupy the single slot with an open keep-alive connection.
        let _held = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let resp = client.raw_request("GET", "/v1/health", &[]).unwrap();
        assert_eq!(resp.status, 429);
        assert!(resp.retry_after().is_some());
        server.shutdown();
    }

    #[test]
    fn max_requests_per_conn_rotates_the_connection() {
        use std::io::{BufReader, Write};
        let (mut server, _client, _clock) = server_with(ServerConfig {
            max_requests_per_conn: 2,
            ..ServerConfig::default()
        });
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer
            .write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
            .unwrap();
        let r1 = crate::http::read_response_buffered(&mut reader).unwrap();
        assert!(!r1.connection_close(), "first request keeps the conn");
        writer
            .write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
            .unwrap();
        let r2 = crate::http::read_response_buffered(&mut reader).unwrap();
        assert!(r2.connection_close(), "budget exhausted closes");
        server.shutdown();
    }

    #[test]
    fn receipts_paginate_with_a_stable_cursor() {
        use statesman_types::{SimDuration, StateKey, Value, WriteOutcome};
        let clock = SimClock::new();
        let storage = StorageService::single_dc("dc1", clock.clone());
        let dc = DatacenterId::new("dc1");
        let app = AppId::new("switch-upgrade");
        // Post three checker receipts (the server pages in decided_at
        // order, so stagger the clock).
        for dev in ["agg-1-1", "agg-1-2", "agg-1-3"] {
            storage
                .post_receipts(
                    &dc,
                    vec![WriteReceipt {
                        app: app.clone(),
                        key: StateKey::new(
                            EntityName::device("dc1", dev),
                            Attribute::DeviceFirmwareVersion,
                        ),
                        proposed: Value::text("7.0"),
                        outcome: WriteOutcome::Accepted,
                        decided_at: clock.now(),
                    }],
                )
                .unwrap();
            clock.advance(SimDuration::from_secs(1));
        }
        let mut server = ApiServer::start(storage.clone()).unwrap();
        let client = ApiClient::new(server.addr());
        let writer = ApiClient::new(server.addr()).with_app(app.clone());

        // Page of 2: cursor header, receipts NOT consumed until acked.
        let p1 = client
            .raw_request("GET", "/v1/receipts?App=switch-upgrade&limit=2", &[])
            .unwrap();
        assert_eq!(p1.status, 200);
        let cursor1 = p1.cursor().expect("paginated reply carries a cursor");
        let page1: Vec<WriteReceipt> = serde_json::from_slice(&p1.body).unwrap();
        assert_eq!(page1.len(), 2);

        // Re-reading WITHOUT acking replays the same page (crash-safe).
        let p1b = client
            .raw_request("GET", "/v1/receipts?App=switch-upgrade&limit=2", &[])
            .unwrap();
        let page1b: Vec<WriteReceipt> = serde_json::from_slice(&p1b.body).unwrap();
        assert_eq!(page1, page1b, "unacked page is stable across reads");

        // Acking with the cursor advances to the remaining receipt.
        let p2 = client
            .raw_request(
                "GET",
                &format!("/v1/receipts?App=switch-upgrade&limit=2&after={cursor1}"),
                &[],
            )
            .unwrap();
        let page2: Vec<WriteReceipt> = serde_json::from_slice(&p2.body).unwrap();
        assert_eq!(page2.len(), 1);
        let cursor2 = p2.cursor().unwrap();
        assert!(cursor2 > cursor1);

        // Final ack drains; an empty page comes back.
        let p3 = client
            .raw_request(
                "GET",
                &format!("/v1/receipts?App=switch-upgrade&limit=2&after={cursor2}"),
                &[],
            )
            .unwrap();
        let page3: Vec<WriteReceipt> = serde_json::from_slice(&p3.body).unwrap();
        assert!(page3.is_empty());

        // And the client walks all pages transparently.
        storage
            .post_receipts(
                &dc,
                vec![WriteReceipt {
                    app: app.clone(),
                    key: StateKey::new(
                        EntityName::device("dc1", "agg-1-1"),
                        Attribute::DeviceFirmwareVersion,
                    ),
                    proposed: Value::text("8.0"),
                    outcome: WriteOutcome::Accepted,
                    decided_at: clock.now(),
                }],
            )
            .unwrap();
        let receipts = writer.take_receipts().unwrap();
        assert_eq!(receipts.len(), 1);
        // Drained: the client acked everything.
        assert!(writer.take_receipts().unwrap().is_empty());
        let _ = client;
        server.shutdown();
    }

    /// The server holds no receipt state: a page read but not acked
    /// survives a server restart, served again by a new server over the
    /// same storage; once acked it is gone for every server.
    #[test]
    fn an_unacked_receipt_page_survives_a_server_restart() {
        use statesman_types::{StateKey, Value, WriteOutcome};
        let clock = SimClock::new();
        let storage = StorageService::new(
            [DatacenterId::new("dc1"), DatacenterId::new("dc2")],
            clock.clone(),
            statesman_storage::StorageConfig::default(),
        );
        for (dc, dev) in [("dc1", "agg-1-1"), ("dc1", "agg-1-2"), ("dc2", "agg-1-1")] {
            storage
                .post_receipts(
                    &DatacenterId::new(dc),
                    vec![WriteReceipt {
                        app: AppId::new("upgrade"),
                        key: StateKey::new(
                            EntityName::device(dc, dev),
                            Attribute::DeviceFirmwareVersion,
                        ),
                        proposed: Value::text("7.0"),
                        outcome: WriteOutcome::Accepted,
                        decided_at: clock.now(),
                    }],
                )
                .unwrap();
        }
        let page = |server: &ApiServer, after: Option<u64>| {
            let target = match after {
                Some(c) => format!("/v1/receipts?App=upgrade&limit=2&after={c}"),
                None => "/v1/receipts?App=upgrade&limit=2".to_string(),
            };
            let resp = ApiClient::new(server.addr())
                .raw_request("GET", &target, &[])
                .unwrap();
            assert_eq!(resp.status, 200);
            let receipts: Vec<WriteReceipt> = serde_json::from_slice(&resp.body).unwrap();
            (
                receipts,
                resp.cursor().expect("paginated reply carries a cursor"),
            )
        };

        let mut first = ApiServer::start(storage.clone()).unwrap();
        let (before, cursor) = page(&first, None);
        assert_eq!(before.len(), 2, "one partition's page: {before:?}");
        first.shutdown();

        let mut second = ApiServer::start(storage.clone()).unwrap();
        assert_eq!(
            page(&second, None),
            (before, cursor),
            "same page after restart"
        );
        // Acking it moves on to the other partition's receipt, then to
        // an empty page.
        let (rest, next) = page(&second, Some(cursor));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].key.entity.datacenter, DatacenterId::new("dc2"));
        assert!(next > cursor);
        let (empty, _) = page(&second, Some(next));
        assert!(empty.is_empty());
        second.shutdown();
    }

    #[test]
    fn thread_count_is_bounded_by_the_pool() {
        let (mut server, _client, _clock) = server_with(ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        });
        assert_eq!(server.thread_count(), 5); // 3 workers + accept + reactor
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_stop_is_an_alias() {
        let (mut server, _client, _clock) = server();
        server.stop();
        server.shutdown();
        server.stop();
    }
}
