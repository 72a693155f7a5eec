//! `aiio-serve` — the paper's §3.4 deployment story made concrete: a
//! std-only HTTP/1.1 JSON server wrapping a trained [`AiioService`].
//!
//! Design invariants (see `DESIGN.md` § Serving architecture):
//!
//! * **Bounded everywhere.** Diagnosis work flows through one bounded MPMC
//!   queue into a fixed worker pool. A full queue answers
//!   `503 Service Unavailable` + `Retry-After` immediately — the server
//!   never buffers more than `queue_capacity` jobs, no matter how fast
//!   clients push.
//! * **Deadlines.** Every request carries a deadline (`X-Deadline-Ms`
//!   header, capped by the server-side maximum); a job that misses it
//!   answers `504` and its eventual result is discarded.
//! * **Panic isolation.** A diagnosis that panics poisons nothing: the
//!   worker catches the unwind, answers `500`, and keeps serving.
//! * **Atomic hot reload.** Models live behind `RwLock<Arc<AiioService>>`.
//!   Workers clone the `Arc` per job; `POST /admin/reload` swaps the slot,
//!   so in-flight jobs finish on the snapshot they started with and zero
//!   requests are dropped.
//! * **Bounded connections.** The accept loop blocks in `accept` and
//!   gives each connection its own `aiio-conn` thread, up to
//!   [`ServeConfig::max_connections`] at once. Past the cap it writes a
//!   fixed `503` + `Retry-After` without reading the request or spawning
//!   anything.
//! * **Graceful shutdown.** `POST /admin/shutdown` (or
//!   [`Handle::shutdown`]) sets a flag and wakes the blocked `accept`
//!   with a self-connect; the accept loop then stops, drains admitted
//!   work, and joins every thread before [`Server::run`] returns. Every
//!   connection has read and write timeouts, so a stalled peer cannot
//!   hold that join for longer than [`CONN_IO_TIMEOUT`].
//!
//! The wire format is [`http`], re-exported from `aiio-replnet` so the
//! server, [`client`] and the replication follower share one HTTP/1.1
//! implementation.
//!
//! ```no_run
//! use aiio_serve::{Server, ServeConfig};
//! # fn main() -> std::io::Result<()> {
//! # let service: aiio::AiioService = unimplemented!();
//! let server = Server::bind("127.0.0.1:0", service, ServeConfig::default())?;
//! println!("listening on {}", server.local_addr()?);
//! server.run()
//! # }
//! ```

pub mod client;
pub mod control;
pub mod metrics;
pub mod pool;
pub mod queue;

pub use aiio_replnet::http;
pub use control::{ControlConfig, ControlError};

use aiio::AiioService;
use aiio_darshan::JobLog;
use aiio_shard::{AnyStats, AnyStore};
use http::{Request, Response};
use metrics::{Endpoint, Metrics};
use pool::{Job, JobError, ModelSlot, Pool};
use queue::{Bounded, PushError};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Ingested rows required before the drift detector is consulted (PSI over
/// a handful of rows is noise).
pub const DRIFT_MIN_ROWS: usize = 16;

/// Read and write timeout on every accepted connection. A client that
/// stalls mid-request or stops reading its response releases its
/// connection thread after this long, so it can neither pin the thread
/// nor hold up [`Server::run`]'s shutdown join.
pub const CONN_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a shutdown request waits for its self-connect, the one
/// thing that wakes the accept loop out of a blocking `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Request bytes an over-cap rejection discards before it closes the
/// socket (see [`reject_connection`]).
const REJECT_DRAIN_BYTES: usize = 64 * 1024;

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Fixed worker-pool size (diagnosis threads).
    pub workers: usize,
    /// Bounded queue capacity; beyond this, requests get 503.
    pub queue_capacity: usize,
    /// Connections served at once, each on its own `aiio-conn` thread.
    /// A connection accepted past this gets a 503 + `Retry-After` and no
    /// thread. Must be at least 1.
    pub max_connections: usize,
    /// Default and maximum per-request deadline.
    pub deadline: Duration,
    /// `Retry-After` seconds advertised on 503.
    pub retry_after_secs: u32,
    /// Maximum accepted request body.
    pub max_body_bytes: usize,
    /// Threads the deterministic diagnosis engine (`aiio-par`) may use
    /// *inside* each worker. Defaults to 1: the pool's workers are the
    /// server's parallelism, and per-job engine threads on top would
    /// oversubscribe the cores. Raise it only with few workers and large
    /// per-job work. 0 leaves the engine's own resolution
    /// (`AIIO_THREADS`/auto) untouched.
    pub engine_threads: usize,
    /// Directory of a job-log store to attach. When set, `POST /ingest`
    /// appends diagnosed jobs there and `/metrics` exposes store depth,
    /// segment counters and the drift signal. The directory is opened
    /// through [`AnyStore`], so a plain store and a sharded fleet serve
    /// alike; on a fleet, ingest routes each row to its owning shard.
    pub store_dir: Option<std::path::PathBuf>,
    /// Shard count used when `store_dir` does not hold a store yet:
    /// `0` creates a plain single `aiio-store`; `n > 0` initialises a
    /// sharded fleet of `n` shards. An existing store's layout always
    /// wins; this knob only seeds brand-new directories
    /// ([`AnyStore::open`]).
    pub shards: usize,
    /// Freshly ingested rows the drift detector is evaluated over (a
    /// sliding window of transformed feature vectors).
    pub drift_window: usize,
    /// Primary base URL (`http://host:port`) to replicate from. Turns
    /// this server into a read-only follower: it pulls the primary's
    /// store into `store_dir` once at bind (best effort — a dead primary
    /// must not stop a follower from serving its last-synced bytes),
    /// `POST /repl/sync` pulls again on demand, and `POST /ingest`
    /// answers 403 (rows belong on the primary).
    pub replicate_from: Option<String>,
    /// Background control plane (periodic replication pull, threshold
    /// compaction, drift-triggered retrain). All tasks default to off;
    /// see [`ControlConfig`].
    pub control: ControlConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            max_connections: 256,
            deadline: Duration::from_secs(30),
            retry_after_secs: 1,
            max_body_bytes: 16 * 1024 * 1024,
            engine_threads: 1,
            store_dir: None,
            shards: 0,
            drift_window: 256,
            replicate_from: None,
            control: ControlConfig::default(),
        }
    }
}

/// The attached store plus the sliding window of freshly ingested feature
/// rows the drift detector scores. One mutex: ingestion is disk-bound and
/// ordered anyway (appends must hit the WAL in sequence).
struct IngestState {
    store: AnyStore,
    tail: VecDeque<Vec<f64>>,
}

struct Shared {
    slot: Arc<ModelSlot>,
    queue: Arc<Bounded<Job>>,
    metrics: Arc<Metrics>,
    shutdown: AtomicBool,
    /// Where a shutdown request self-connects to wake the accept loop:
    /// the bound address, with an unspecified IP replaced by loopback.
    wake_addr: SocketAddr,
    config: ServeConfig,
    ingest: Option<Mutex<IngestState>>,
    /// Primary URL when this server is a replication follower. The mutex
    /// serializes pull passes: two concurrent `/repl/sync` requests would
    /// interleave staging writes on the same replica files.
    repl: Option<Mutex<String>>,
}

impl Shared {
    /// Set the shutdown flag, then wake the accept loop with a
    /// self-connect; the loop sees the flag and drops that socket unserved.
    /// A failed connect is harmless: the listener is already closed, or
    /// the next connection it accepts wakes it just the same.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }
}

/// One live connection's slot under [`ServeConfig::max_connections`].
/// The accept loop takes it before spawning the `aiio-conn` thread and
/// moves it into the thread, so the count drops when the thread exits
/// (returning or unwinding) or when the spawn itself fails. The
/// release's `Release` pairs with the accept loop's `Acquire` load of
/// the count.
struct ConnSlot(Arc<Shared>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0
            .metrics
            .connections_open
            .fetch_sub(1, Ordering::Release);
    }
}

/// A cheap clone-able handle for observing and stopping a running server.
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// Request a graceful shutdown: stop accepting, drain admitted work,
    /// join all threads. Wakes a blocked accept loop before it returns.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Live metrics (shared with the server).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }
}

/// The bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    pool: Pool,
    /// The background control plane, when any scheduled task is enabled.
    sched: Option<aiio_sched::SchedHandle>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and spawn
    /// the worker pool. The accept loop starts on [`Server::run`].
    pub fn bind(addr: &str, service: AiioService, config: ServeConfig) -> std::io::Result<Server> {
        if config.max_connections == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "max_connections must be at least 1",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let wake_addr = loopback_of(listener.local_addr()?);
        if config.engine_threads > 0 {
            // Process-global: workers share one engine setting rather than
            // each oversubscribing the machine. Results are thread-count-
            // invariant by aiio-par's contract, so this only affects speed.
            aiio_par::set_threads(config.engine_threads);
        }
        if config.replicate_from.is_some() && config.store_dir.is_none() {
            return Err(std::io::Error::other(
                "--replicate-from needs a store directory to pull into",
            ));
        }
        if let (Some(primary), Some(dir)) = (&config.replicate_from, &config.store_dir) {
            // Initial sync, best effort: the follower serves whatever it
            // has if the primary is already gone — that is the failover
            // story — and `/repl/sync` retries later.
            let _ = aiio_replnet::pull_pass(dir, primary, &aiio_replnet::PullConfig::default());
        }
        // The store opens before the metrics exist: a sharded layout
        // fixes the fleet width for the server's lifetime, and the
        // per-shard gauge vector is sized from it at construction so the
        // ingest hot path stays lock-free.
        let attached = match &config.store_dir {
            Some(dir) => Some(AnyStore::open(dir, config.shards).map_err(|e| e.into_io())?),
            None => None,
        };
        let metrics = Arc::new(Metrics::with_shards(
            config.workers,
            attached.as_ref().map_or(0, |s| s.stats().shards.len()),
        ));
        if attached.is_some() {
            // Expose the decoded-segment block cache's counters next to
            // the store gauges it accelerates (None when AIIO_CACHE_BYTES=0
            // disables caching; /metrics then omits the family).
            if let Some(cache) = aiio_store::SegmentCache::shared() {
                metrics.set_cache(cache);
            }
        }
        let ingest = match attached {
            Some(store) => {
                // Publish the gauges while the store is still exclusively
                // ours — no mutex exists yet, so nothing is held across
                // the stat reads. The Release store on `store_attached`
                // pairs with the Acquire load in metrics rendering: a
                // scraper that sees the flag also sees these gauges.
                update_store_gauges(&metrics, &store.stats());
                metrics.store_attached.store(1, Ordering::Release);
                Some(Mutex::new(IngestState {
                    store,
                    tail: VecDeque::new(),
                }))
            }
            None => None,
        };
        let repl = config.replicate_from.clone().map(Mutex::new);
        let shared = Arc::new(Shared {
            slot: Arc::new(RwLock::new(Arc::new(service))),
            queue: Arc::new(Bounded::new(config.queue_capacity)),
            metrics,
            shutdown: AtomicBool::new(false),
            wake_addr,
            config,
            ingest,
            repl,
        });
        shared.metrics.engine_threads.store(
            shared.config.engine_threads.max(1) as u64,
            Ordering::Relaxed,
        );
        let pool = Pool::spawn(
            shared.config.workers,
            Arc::clone(&shared.queue),
            Arc::clone(&shared.slot),
            Arc::clone(&shared.metrics),
        );
        // The control plane spawns last: its tasks observe a fully wired
        // server (validation errors here surface before the accept loop
        // ever starts).
        let sched = control::spawn(&shared)?;
        Ok(Server {
            listener,
            shared,
            pool,
            sched,
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for shutdown and metrics from other threads.
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until shutdown is requested, then drain and join everything.
    pub fn run(self) -> std::io::Result<()> {
        let busy = busy_reply(&self.shared.config);
        let max = self.shared.config.max_connections as u64;
        let metrics = &self.shared.metrics;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let result = loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break Ok(());
            }
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // A fatal accept error still drains cleanly before it
                // surfaces.
                Err(e) => break Err(e),
            };
            // A shutdown request wakes this accept with a self-connect;
            // that socket (and any client racing it) is dropped unserved.
            if self.shared.shutdown.load(Ordering::Acquire) {
                break Ok(());
            }
            connections.retain(|h| !h.is_finished());
            // Only this loop takes slots, so the count cannot pass `max`
            // between the check and the increment.
            if metrics.connections_open.load(Ordering::Acquire) >= max {
                metrics
                    .connections_rejected_total
                    .fetch_add(1, Ordering::Relaxed);
                reject_connection(stream, &busy);
                continue;
            }
            metrics.connections_open.fetch_add(1, Ordering::AcqRel);
            let slot = ConnSlot(Arc::clone(&self.shared));
            let spawned = std::thread::Builder::new()
                .name("aiio-conn".into())
                .spawn(move || handle_connection(stream, &slot.0));
            if let Ok(h) = spawned {
                connections.push(h);
            }
        };
        self.drain(connections);
        result
    }

    /// Stop for good: close the listener (new clients are refused rather
    /// than left in the backlog), let in-flight connections finish (they
    /// may still enqueue until the queue closes below, which is fine —
    /// admitted work is always completed), then drain the control plane
    /// (its in-flight task completes, queued runs are skipped — joined
    /// before the pool because a retrain mid-swap still touches the model
    /// slot), then the workers.
    fn drain(self, connections: Vec<std::thread::JoinHandle<()>>) {
        let Server {
            listener,
            shared,
            pool,
            sched,
        } = self;
        drop(listener);
        for h in connections {
            let _ = h.join();
        }
        if let Some(s) = sched {
            s.join();
        }
        shared.queue.close();
        pool.join();
    }
}

/// The address that reaches a listener bound at `bound`: an unspecified
/// IP (`0.0.0.0`, `[::]`) becomes loopback of the same family.
fn loopback_of(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    bound
}

/// The fixed over-cap reply, serialized once per [`Server::run`].
fn busy_reply(config: &ServeConfig) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = Response::error(503, "too many open connections")
        .with_header("Retry-After", config.retry_after_secs.to_string())
        .write_to(&mut bytes);
    bytes
}

/// Answer a connection accepted past the cap, on the accept loop itself
/// and without ever blocking on the client: one non-blocking write of the
/// fixed 503, a half-close, then a non-blocking discard of whatever
/// request bytes have already arrived. The request is never parsed or
/// waited for; the discard exists because closing a socket with unread
/// bytes sends an RST, and an RST can destroy the 503 before the client
/// reads it.
fn reject_connection(mut stream: TcpStream, busy: &[u8]) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    if stream.write_all(busy).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let mut buf = [0u8; 4096];
    let mut discarded = 0;
    while discarded < REJECT_DRAIN_BYTES {
        match stream.read(&mut buf) {
            Ok(n) if n > 0 => discarded += n,
            _ => break,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(CONN_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CONN_IO_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let started = Instant::now();

    let (endpoint, response) = match http::read_head(&mut reader) {
        Err(e) => (Endpoint::Other, Response::from(&e)),
        Ok(mut req) => {
            // `curl` sends `Expect: 100-continue` for JSON bodies over 1 KiB
            // and stalls ~1 s waiting for this interim reply.
            if req
                .header("expect")
                .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
            {
                let _ = writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
                let _ = writer.flush();
            }
            match http::read_body(&mut reader, &mut req, shared.config.max_body_bytes) {
                Err(e) => (classify(&req.path), Response::from(&e)),
                Ok(()) => (classify(&req.path), route(&req, shared)),
            }
        }
    };
    shared
        .metrics
        .record_request(endpoint, response.status, started.elapsed());
    let _ = response.write_to(&mut writer);
}

fn classify(target: &str) -> Endpoint {
    let (path, _) = http::split_query(target);
    if path.starts_with("/repl/") {
        return Endpoint::Repl;
    }
    match path {
        "/diagnose" => Endpoint::Diagnose,
        "/diagnose/batch" => Endpoint::DiagnoseBatch,
        "/ingest" => Endpoint::Ingest,
        "/healthz" => Endpoint::Healthz,
        "/metrics" => Endpoint::Metrics,
        "/sched/stats" => Endpoint::SchedStats,
        "/query" => Endpoint::Query,
        "/admin/reload" => Endpoint::AdminReload,
        "/admin/shutdown" => Endpoint::AdminShutdown,
        _ => Endpoint::Other,
    }
}

fn route(req: &Request, shared: &Arc<Shared>) -> Response {
    let (path, query) = http::split_query(&req.path);
    match (req.method.as_str(), path) {
        ("POST", "/diagnose") => diagnose_one(req, shared),
        ("POST", "/diagnose/batch") => diagnose_batch(req, shared),
        ("POST", "/ingest") => ingest(req, shared),
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => Response::text(
            200,
            shared
                .metrics
                .render(shared.queue.len(), shared.queue.capacity()),
        ),
        ("GET", "/sched/stats") => control::sched_stats_response(&shared.metrics),
        ("GET", "/query") => query_rows(query, shared),
        ("POST", "/repl/sync") => repl_sync(req, shared),
        ("GET", p) if p.starts_with("/repl/") => repl_get(req, shared),
        ("POST", "/admin/reload") => admin_reload(req, shared),
        ("POST", "/admin/shutdown") => {
            shared.request_shutdown();
            Response::json(200, "{\"shutting_down\":true}")
        }
        ("GET" | "POST", _) => Response::error(404, &format!("no such endpoint {path}")),
        (m, _) => Response::error(405, &format!("method {m} not supported")),
    }
}

/// The request deadline: `X-Deadline-Ms` header, capped by the server max.
fn deadline_of(req: &Request, shared: &Shared) -> Duration {
    req.header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .map(|d| d.min(shared.config.deadline))
        .unwrap_or(shared.config.deadline)
}

fn busy_response(shared: &Shared, err: PushError) -> Response {
    match err {
        PushError::Full => {
            shared
                .metrics
                .rejected_total
                .fetch_add(1, Ordering::Relaxed);
            Response::error(503, "diagnosis queue is full")
                .with_header("Retry-After", shared.config.retry_after_secs.to_string())
        }
        PushError::Closed => Response::error(503, "server is shutting down"),
    }
}

fn job_error_response(err: &JobError) -> Response {
    match err {
        JobError::EmptyZoo => Response::error(422, "model zoo has no usable models"),
        JobError::InvalidLog(e) => Response::error(422, &format!("invalid job log: {e}")),
        JobError::WorkerPanicked => {
            Response::error(500, "diagnosis panicked (isolated; server still serving)")
        }
    }
}

fn diagnose_one(req: &Request, shared: &Arc<Shared>) -> Response {
    let body = match req.body_utf8() {
        Ok(b) => b,
        Err(e) => return Response::from(&e),
    };
    let log: JobLog = match serde_json::from_str(body) {
        Ok(l) => l,
        Err(e) => return Response::error(400, &format!("bad JobLog JSON: {e}")),
    };
    let deadline = deadline_of(req, shared);
    let (tx, rx) = sync_channel(1);
    if let Err(e) = shared.queue.try_push(Job {
        log,
        index: 0,
        reply: tx,
    }) {
        return busy_response(shared, e);
    }
    match rx.recv_timeout(deadline) {
        Ok((_, Ok(report))) => match serde_json::to_string(&report) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(500, &format!("serialization failed: {e}")),
        },
        Ok((_, Err(job_err))) => job_error_response(&job_err),
        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
            shared
                .metrics
                .timeouts_total
                .fetch_add(1, Ordering::Relaxed);
            Response::error(504, "diagnosis missed its deadline")
        }
    }
}

fn diagnose_batch(req: &Request, shared: &Arc<Shared>) -> Response {
    let body = match req.body_utf8() {
        Ok(b) => b,
        Err(e) => return Response::from(&e),
    };
    let logs: Vec<JobLog> = match serde_json::from_str(body) {
        Ok(l) => l,
        Err(e) => return Response::error(400, &format!("bad JobLog array JSON: {e}")),
    };
    if logs.is_empty() {
        return Response::json(200, "[]");
    }
    let n = logs.len();
    if n > shared.queue.capacity() {
        return Response::error(
            413,
            &format!(
                "batch of {n} exceeds queue capacity {}; split it",
                shared.queue.capacity()
            ),
        );
    }
    let deadline = deadline_of(req, shared);
    let (tx, rx) = sync_channel(n);
    let jobs: Vec<Job> = logs
        .into_iter()
        .enumerate()
        .map(|(index, log)| Job {
            log,
            index,
            reply: tx.clone(),
        })
        .collect();
    drop(tx);
    // All-or-nothing admission: a batch the queue cannot hold right now is
    // refused outright rather than half-started.
    if let Err(e) = shared.queue.try_push_many(jobs) {
        return busy_response(shared, e);
    }
    shared
        .metrics
        .batch_jobs_total
        .fetch_add(n as u64, Ordering::Relaxed);
    let started = Instant::now();
    let mut reports: Vec<Option<String>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let remaining = deadline.saturating_sub(started.elapsed());
        match rx.recv_timeout(remaining) {
            Ok((index, Ok(report))) => match serde_json::to_string(&report) {
                Ok(json) => {
                    if let Some(slot) = reports.get_mut(index) {
                        *slot = Some(json);
                    }
                }
                Err(e) => return Response::error(500, &format!("serialization failed: {e}")),
            },
            Ok((_, Err(job_err))) => return job_error_response(&job_err),
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                shared
                    .metrics
                    .timeouts_total
                    .fetch_add(1, Ordering::Relaxed);
                return Response::error(504, "batch missed its deadline");
            }
        }
    }
    let mut body =
        String::with_capacity(reports.iter().flatten().map(String::len).sum::<usize>() + n + 2);
    body.push('[');
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        match r {
            Some(json) => body.push_str(json),
            None => return Response::error(500, "batch result missing an index"),
        }
    }
    body.push(']');
    Response::json(200, body)
}

fn update_store_gauges(metrics: &Metrics, stats: &AnyStats) {
    let store = &stats.store;
    metrics
        .store_rows
        .store(store.total_rows as u64, Ordering::Relaxed);
    metrics
        .store_segments
        .store(store.segments as u64, Ordering::Relaxed);
    metrics
        .store_wal_rows
        .store(store.wal_rows as u64, Ordering::Relaxed);
    for shard in &stats.shards {
        if let Some(g) = metrics.shard_gauges(shard.shard) {
            g.rows.store(shard.serving_rows, Ordering::Relaxed);
            g.replication_lag
                .store(shard.replication_lag, Ordering::Relaxed);
            let from_replica = shard.role == aiio_shard::ShardRole::Replica.as_str();
            g.serving_replica
                .store(u64::from(from_replica), Ordering::Relaxed);
        }
    }
}

/// `GET /repl/*`: serve the store's bytes to a pulling follower.
fn repl_get(req: &Request, shared: &Arc<Shared>) -> Response {
    let Some(state) = &shared.ingest else {
        return Response::error(
            404,
            "no job-log store attached (start `aiio serve` with --store DIR)",
        );
    };
    let src = {
        let Ok(state) = state.lock() else {
            return Response::error(500, "store mutex poisoned");
        };
        aiio_replnet::ReplSource::of(&state.store)
    };
    aiio_replnet::repl_reply(&src, req.path.trim_start_matches("/repl/"))
}

/// Copy a finished pull's per-shard lag/RTT measurements into gauges.
fn update_repl_gauges(metrics: &Metrics, report: &aiio_replnet::PullReport) {
    for sp in &report.shards {
        if let Some(g) = metrics.shard_gauges(sp.shard as usize) {
            g.repl_lag_frames.store(sp.lag_frames, Ordering::Relaxed);
            g.repl_rtt_ms.store(sp.rtt_ms, Ordering::Relaxed);
        }
    }
}

/// `POST /repl/sync` (follower only): run one pull pass against the
/// configured primary, reopen the attached store on the fresh bytes, and
/// return the pass report. Body `{"probe": true}` measures lag without
/// writing anything.
fn repl_sync(req: &Request, shared: &Arc<Shared>) -> Response {
    let Some(repl) = &shared.repl else {
        return Response::error(
            404,
            "not a replication follower (start `aiio serve` with --replicate-from URL)",
        );
    };
    let probe = req
        .body_utf8()
        .ok()
        .and_then(|b| serde_json::parse_value(b).ok())
        .and_then(|v| v.get("probe").and_then(serde_json::Value::as_bool))
        .unwrap_or(false);
    let cfg = aiio_replnet::PullConfig::default();
    let report = if probe {
        let Some(dir) = shared.config.store_dir.as_deref() else {
            return Response::error(500, "follower has no store directory");
        };
        // xtask-allow: AIIO-R002 — intentional hold: the repl mutex
        // serializes pull *and* probe passes; a probe interleaved with a
        // pull would measure lag against half-published files.
        let Ok(primary) = repl.lock() else {
            return Response::error(500, "replication mutex poisoned");
        };
        match aiio_replnet::probe_pass(dir, &primary, &cfg) {
            Ok(r) => r,
            Err(e) => return Response::error(502, &format!("pull from {} failed: {e}", &*primary)),
        }
    } else {
        // The full pass (pull + reopen + gauges) is shared with the
        // scheduler's periodic pull task.
        match control::pull_and_reopen(shared, repl, &cfg) {
            Ok(r) => r,
            Err(control::PullError::Upstream(m)) => return Response::error(502, &m),
            Err(control::PullError::Local(m)) => return Response::error(500, &m),
        }
    };
    if probe {
        update_repl_gauges(&shared.metrics, &report);
    }
    match serde_json::to_string(&report) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("report serialization failed: {e}")),
    }
}

/// `POST /ingest`: append one `JobLog` (or an array) to the attached
/// store, then score the freshly ingested tail against the service's
/// training distribution. Runs on the connection thread — ingestion is
/// disk work, not diagnosis work, so it never competes for the worker
/// pool's bounded queue.
fn ingest(req: &Request, shared: &Arc<Shared>) -> Response {
    if shared.repl.is_some() {
        return Response::error(
            403,
            "this server is a replication follower; ingest rows on the primary",
        );
    }
    let Some(state) = &shared.ingest else {
        return Response::error(
            404,
            "no job-log store attached (start `aiio serve` with --store DIR)",
        );
    };
    let body = match req.body_utf8() {
        Ok(b) => b,
        Err(e) => return Response::from(&e),
    };
    let logs: Vec<JobLog> = if body.trim_start().starts_with('[') {
        match serde_json::from_str(body) {
            Ok(l) => l,
            Err(e) => return Response::error(400, &format!("bad JobLog array JSON: {e}")),
        }
    } else {
        match serde_json::from_str::<JobLog>(body) {
            Ok(l) => vec![l],
            Err(e) => return Response::error(400, &format!("bad JobLog JSON: {e}")),
        }
    };
    let service = pool::snapshot(&shared.slot);
    let pipeline = service.pipeline();
    // Featurization is pure CPU — do it before taking the store lock so
    // the critical section is exactly the WAL append plus tail rotation.
    let feature_rows: Vec<Vec<f64>> = logs.iter().map(|log| pipeline.features_of(log)).collect();
    let Ok(mut state) = state.lock() else {
        return Response::error(500, "store mutex poisoned");
    };
    // xtask-allow: AIIO-R002 — intentional hold: the ingest mutex *is*
    // the WAL append order (for a fleet, the ordinal-journal order).
    // Appending outside the lock would let two ingests interleave their
    // blocks and corrupt ordinal assignment; durability (sync) must land
    // before the tail/stats below claim the rows exist.
    if let Err(e) = state
        .store
        .append_batch(&logs)
        .and_then(|()| state.store.sync())
    {
        // A malformed row rejects the whole batch before any byte is
        // written: the client's fault, and nothing to recover.
        let status = if matches!(e, aiio_store::StoreError::Invalid(_)) {
            422
        } else {
            500
        };
        return Response::error(status, &format!("store append failed: {e}"));
    }
    let window = shared.config.drift_window.max(1);
    for row in feature_rows {
        if state.tail.len() == window {
            state.tail.pop_front();
        }
        state.tail.push_back(row);
    }
    let drift_rows: Option<Vec<Vec<f64>>> =
        (state.tail.len() >= DRIFT_MIN_ROWS).then(|| state.tail.iter().cloned().collect());
    let stats = state.store.stats();
    drop(state);
    // PSI scoring and response assembly run lock-free on the copied tail.
    let drift = service
        .drift_detector()
        .and_then(|d| drift_rows.as_deref().map(|rows| d.max_psi(rows)));
    shared
        .metrics
        .ingested_total
        .fetch_add(logs.len() as u64, Ordering::Relaxed);
    update_store_gauges(&shared.metrics, &stats);
    if let Some(psi) = drift {
        let micro = (psi.max(0.0) * 1e6).round();
        shared
            .metrics
            .drift_max_psi_micro
            .store(micro as u64, Ordering::Relaxed);
    }
    let drift_field = match drift {
        Some(psi) => format!("{psi:.6},\"drifted\":{}", psi > aiio::drift::PSI_DRIFTED),
        None => "null,\"drifted\":null".to_string(),
    };
    Response::json(
        200,
        format!(
            "{{\"ingested\":{},\"store_rows\":{},\"segments\":{},\"wal_rows\":{},\"shards\":{},\"drift_max_psi\":{drift_field}}}",
            logs.len(),
            stats.store.total_rows,
            stats.store.segments,
            stats.store.wal_rows,
            stats.shards.len(),
        ),
    )
}

fn healthz(shared: &Arc<Shared>) -> Response {
    let service = pool::snapshot(&shared.slot);
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"models\":{},\"failed_fits\":{},\"workers\":{},\"queue_depth\":{},\"queue_capacity\":{}}}",
            service.zoo().models().len(),
            service.zoo().failed().len(),
            shared.config.workers,
            shared.queue.len(),
            shared.queue.capacity()
        ),
    )
}

/// Rows `GET /query` returns when no `limit` parameter is given.
pub const DEFAULT_QUERY_LIMIT: usize = 100;

/// A float as a JSON value: finite numbers verbatim, infinities as
/// `null` (JSON has no spelling for them; an absent bound reads as
/// "unbounded" either way).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `GET /query`: a zone-map-pruned row scan over the attached store.
/// `counter` names a Table-4 counter (required); `min`/`max` bound it
/// inclusively (default unbounded); `limit` caps the rows returned (the
/// summary still covers the whole scan). Rows come back in global
/// insertion order on both layouts. Malformed parameters answer 400;
/// well-formed but unanswerable ranges (unknown counter, NaN, inverted
/// bounds) answer 422.
fn query_rows(query: &str, shared: &Arc<Shared>) -> Response {
    let Some(state) = &shared.ingest else {
        return Response::error(
            404,
            "no job-log store attached (start `aiio serve` with --store DIR)",
        );
    };
    let mut counter = None;
    let mut min = f64::NEG_INFINITY;
    let mut max = f64::INFINITY;
    let mut limit = DEFAULT_QUERY_LIMIT;
    for (name, value) in http::parse_query(query) {
        match name.as_str() {
            "counter" => match aiio_darshan::CounterId::from_name(&value) {
                Some(c) => counter = Some(c),
                None => return Response::error(422, &format!("unknown counter {value:?}")),
            },
            "min" => match value.parse::<f64>() {
                Ok(v) => min = v,
                Err(_) => return Response::error(400, &format!("min is not a number: {value:?}")),
            },
            "max" => match value.parse::<f64>() {
                Ok(v) => max = v,
                Err(_) => return Response::error(400, &format!("max is not a number: {value:?}")),
            },
            "limit" => match value.parse::<usize>() {
                Ok(v) => limit = v,
                Err(_) => return Response::error(400, &format!("limit is not a count: {value:?}")),
            },
            other => return Response::error(400, &format!("unknown query parameter {other:?}")),
        }
    }
    let Some(counter) = counter else {
        return Response::error(400, "missing required parameter: counter");
    };
    let range = match aiio_store::CounterRange::new(counter, min, max) {
        Ok(r) => r,
        Err(e) => return Response::error(422, &e.to_string()),
    };
    let view = {
        let Ok(state) = state.lock() else {
            return Response::error(500, "store mutex poisoned");
        };
        state.store.read_view()
    };
    // Rows are encoded straight into one buffer; the reply's head, which
    // reports `returned` and `truncated`, is only known after the scan.
    let mut rows = vec![b'['];
    let mut returned = 0usize;
    let mut truncated = false;
    let mut ser_err: Option<String> = None;
    let summary = view.scan_filtered(&range, &mut |job| {
        if returned >= limit {
            truncated = true;
            return;
        }
        if returned > 0 {
            rows.push(b',');
        }
        match serde_json::to_writer(&mut rows, job) {
            Ok(()) => returned += 1,
            Err(e) => ser_err = Some(e.to_string()),
        }
    });
    let summary = match summary {
        Ok(s) => s,
        Err(e) => return Response::error(500, &format!("scan failed: {e}")),
    };
    if let Some(e) = ser_err {
        return Response::error(500, &format!("row serialization failed: {e}"));
    }
    rows.push(b']');
    let mut body = format!(
        "{{\"counter\":\"{}\",\"min\":{},\"max\":{},\"limit\":{limit},\"returned\":{returned},\"truncated\":{truncated},\"rows\":",
        counter.name(),
        json_f64(min),
        json_f64(max),
    )
    .into_bytes();
    body.extend_from_slice(&rows);
    body.extend_from_slice(
        format!(
            ",\"summary\":{{\"segments_scanned\":{},\"segments_skipped\":{},\"rows_scanned\":{},\"rows_matched\":{}}}}}",
            summary.segments_scanned,
            summary.segments_skipped,
            summary.rows_scanned,
            summary.rows_matched,
        )
        .as_bytes(),
    );
    Response::bytes(200, "application/json", body)
}

fn admin_reload(req: &Request, shared: &Arc<Shared>) -> Response {
    let body = match req.body_utf8() {
        Ok(b) => b,
        Err(e) => return Response::from(&e),
    };
    let parsed = serde_json::parse_value(body);
    let path = match parsed
        .as_ref()
        .ok()
        .and_then(|v| v.get("path"))
        .and_then(|p| p.as_str())
    {
        Some(p) => p,
        None => return Response::error(400, "reload body must be {\"path\": \"<service.json>\"}"),
    };
    let service = match AiioService::load(path) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("cannot load service from {path}: {e}")),
    };
    if service.zoo().models().is_empty() {
        return Response::error(422, "refusing to load a service with an empty model zoo");
    }
    let models = service.zoo().models().len();
    pool::swap(&shared.slot, service);
    shared.metrics.reloads_total.fetch_add(1, Ordering::Relaxed);
    Response::json(200, format!("{{\"reloaded\":true,\"models\":{models}}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wildcard_bind_wakes_through_loopback_of_its_family() {
        let v4: SocketAddr = "0.0.0.0:7380".parse().unwrap();
        assert_eq!(loopback_of(v4), "127.0.0.1:7380".parse().unwrap());
        let v6: SocketAddr = "[::]:7380".parse().unwrap();
        assert_eq!(loopback_of(v6), "[::1]:7380".parse().unwrap());
        let bound: SocketAddr = "10.1.2.3:7380".parse().unwrap();
        assert_eq!(loopback_of(bound), bound);
    }
}
