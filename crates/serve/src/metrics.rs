//! Live server metrics with a text exposition endpoint.
//!
//! Everything is lock-free (`AtomicU64`) so the hot path never contends:
//! per-endpoint request/error counters and latency histograms, queue
//! rejections, worker panics, reloads, per-model inference counters and
//! per-worker job counters. `GET /metrics` renders the familiar
//! `name{label="v"} value` text format.

use aiio::ModelKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Upper bounds (milliseconds) of the latency histogram buckets; one
/// implicit `+Inf` bucket follows. The sub-millisecond bounds resolve
/// ingest, health and metrics requests, which finish well under 1 ms.
pub const LATENCY_BOUNDS_MS: [f64; 11] = [
    0.1, 0.25, 0.5, 1.0, 5.0, 10.0, 25.0, 100.0, 250.0, 1000.0, 5000.0,
];

/// The endpoints the server distinguishes in metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Diagnose,
    DiagnoseBatch,
    Ingest,
    Healthz,
    Metrics,
    AdminReload,
    AdminShutdown,
    /// Any `/repl/*` replication-transport exchange (WAL/segment/journal
    /// tails served to followers, `/repl/sync` pulls triggered on one).
    Repl,
    /// `GET /sched/stats` — the background control plane's counters.
    SchedStats,
    /// `GET /query` — zone-map-pruned row scans over the attached store.
    Query,
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 11] = [
        Endpoint::Diagnose,
        Endpoint::DiagnoseBatch,
        Endpoint::Ingest,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::AdminReload,
        Endpoint::AdminShutdown,
        Endpoint::Repl,
        Endpoint::SchedStats,
        Endpoint::Query,
        Endpoint::Other,
    ];

    fn index(self) -> usize {
        match self {
            Endpoint::Diagnose => 0,
            Endpoint::DiagnoseBatch => 1,
            Endpoint::Ingest => 2,
            Endpoint::Healthz => 3,
            Endpoint::Metrics => 4,
            Endpoint::AdminReload => 5,
            Endpoint::AdminShutdown => 6,
            Endpoint::Repl => 7,
            Endpoint::SchedStats => 8,
            Endpoint::Query => 9,
            Endpoint::Other => 10,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Endpoint::Diagnose => "diagnose",
            Endpoint::DiagnoseBatch => "diagnose_batch",
            Endpoint::Ingest => "ingest",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::AdminReload => "admin_reload",
            Endpoint::AdminShutdown => "admin_shutdown",
            Endpoint::Repl => "repl",
            Endpoint::SchedStats => "sched_stats",
            Endpoint::Query => "query",
            Endpoint::Other => "other",
        }
    }
}

#[derive(Default)]
struct Histogram {
    /// One counter per bound in [`LATENCY_BOUNDS_MS`] plus `+Inf`.
    buckets: [AtomicU64; LATENCY_BOUNDS_MS.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn observe(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let ms = us as f64 / 1000.0;
        let idx = LATENCY_BOUNDS_MS
            .iter()
            .position(|bound| ms <= *bound)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct EndpointStats {
    requests_total: AtomicU64,
    errors_total: AtomicU64,
    latency: Histogram,
}

/// Gauges for one shard of an attached sharded store. Sized once at bind
/// (the fleet width is fixed for a server's lifetime), so the ingest hot
/// path updates them lock-free like every other counter here.
#[derive(Default)]
pub struct ShardGauges {
    /// Rows the shard serves (journaled rows owned by it).
    pub rows: AtomicU64,
    /// Rows the shard's follower is behind its serving side.
    pub replication_lag: AtomicU64,
    /// 1 while the shard serves from its replica directory (failed over).
    pub serving_replica: AtomicU64,
    /// WAL frames the primary declared that the last network pull pass
    /// did not publish (0 after a clean sync; only meaningful on a
    /// follower started with `--replicate-from`).
    pub repl_lag_frames: AtomicU64,
    /// Round-trip time of the last network WAL fetch, milliseconds.
    pub repl_rtt_ms: AtomicU64,
}

/// All server counters; shared as `Arc<Metrics>` between the accept loop,
/// connection threads and the worker pool.
pub struct Metrics {
    endpoints: [EndpointStats; 11],
    /// Requests refused with 503 because the queue was full.
    pub rejected_total: AtomicU64,
    /// Connections with a live `aiio-conn` thread (gauge).
    pub connections_open: AtomicU64,
    /// Connections refused with 503 at accept time because
    /// `max_connections` were already open.
    pub connections_rejected_total: AtomicU64,
    /// Requests that missed their deadline (504).
    pub timeouts_total: AtomicU64,
    /// Diagnoses that panicked inside a worker (isolated, answered 500).
    pub worker_panics_total: AtomicU64,
    /// Successful `/admin/reload` model swaps.
    pub reloads_total: AtomicU64,
    /// Drift-triggered model retrains completed by the control plane.
    pub retrains_total: AtomicU64,
    /// Successfully completed diagnoses (single and batch jobs alike) —
    /// the server's throughput counter.
    pub diagnoses_total: AtomicU64,
    /// Jobs admitted through `/diagnose/batch`.
    pub batch_jobs_total: AtomicU64,
    /// Deterministic-engine thread count (gauge, set once at bind).
    pub engine_threads: AtomicU64,
    /// 1 when a job-log store is attached (gauge, set at bind); store and
    /// drift metrics below are only rendered when it is.
    pub store_attached: AtomicU64,
    /// Jobs appended through `POST /ingest`.
    pub ingested_total: AtomicU64,
    /// Total rows the attached store holds (gauge).
    pub store_rows: AtomicU64,
    /// Sealed segments in the attached store (gauge).
    pub store_segments: AtomicU64,
    /// Rows still in the store's WAL tail (gauge).
    pub store_wal_rows: AtomicU64,
    /// Max per-counter PSI of the freshly ingested tail against the
    /// service's training distribution, in micro-units (gauge; 250000 =
    /// the conventional 0.25 drift threshold). 0 until enough rows arrive.
    pub drift_max_psi_micro: AtomicU64,
    /// Diagnoses served, by model kind (in [`ModelKind::ALL`] order).
    inference: [AtomicU64; ModelKind::ALL.len()],
    /// Jobs completed per worker thread.
    worker_jobs: Vec<AtomicU64>,
    /// Per-shard gauges when the attached store is sharded; empty for a
    /// single store (rendering then omits the shard family entirely).
    shards: Vec<ShardGauges>,
    /// The embedded scheduler's live per-task counters, installed once
    /// at bind when any background task is enabled; rendering the
    /// `aiio_sched_*` family is gated on it.
    sched: OnceLock<Arc<aiio_sched::SchedStats>>,
    /// The process-wide decoded-segment block cache, installed once at
    /// bind when a store is attached and caching is enabled; rendering
    /// the `aiio_cache_*` family is gated on it.
    cache: OnceLock<Arc<aiio_store::SegmentCache>>,
    /// Construction time, for `aiio_uptime_seconds`.
    started: Instant,
}

impl Metrics {
    /// Counters for a pool of `workers` threads and an unsharded (or
    /// absent) store.
    pub fn new(workers: usize) -> Self {
        Self::with_shards(workers, 0)
    }

    /// Counters for a pool of `workers` threads serving a sharded store
    /// of width `shards` (0 for unsharded).
    pub fn with_shards(workers: usize, shards: usize) -> Self {
        Metrics {
            endpoints: Default::default(),
            rejected_total: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_rejected_total: AtomicU64::new(0),
            timeouts_total: AtomicU64::new(0),
            worker_panics_total: AtomicU64::new(0),
            reloads_total: AtomicU64::new(0),
            retrains_total: AtomicU64::new(0),
            diagnoses_total: AtomicU64::new(0),
            batch_jobs_total: AtomicU64::new(0),
            engine_threads: AtomicU64::new(1),
            store_attached: AtomicU64::new(0),
            ingested_total: AtomicU64::new(0),
            store_rows: AtomicU64::new(0),
            store_segments: AtomicU64::new(0),
            store_wal_rows: AtomicU64::new(0),
            drift_max_psi_micro: AtomicU64::new(0),
            inference: Default::default(),
            worker_jobs: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            shards: (0..shards).map(|_| ShardGauges::default()).collect(),
            sched: OnceLock::new(),
            cache: OnceLock::new(),
            started: Instant::now(),
        }
    }

    /// Install the scheduler's counters (once, at bind). A second call
    /// is ignored — the scheduler lives exactly as long as the server.
    pub fn set_sched(&self, stats: Arc<aiio_sched::SchedStats>) {
        let _ = self.sched.set(stats);
    }

    /// The scheduler's counters, when a control plane is running.
    pub fn sched(&self) -> Option<&Arc<aiio_sched::SchedStats>> {
        self.sched.get()
    }

    /// Install the segment block cache's counters (once, at bind). A
    /// second call is ignored — the cache is process-global and outlives
    /// the server.
    pub fn set_cache(&self, cache: Arc<aiio_store::SegmentCache>) {
        let _ = self.cache.set(cache);
    }

    /// The segment cache's counters, when caching is enabled.
    pub fn cache(&self) -> Option<&Arc<aiio_store::SegmentCache>> {
        self.cache.get()
    }

    /// Gauges for shard `shard`, when the attached store is sharded.
    pub fn shard_gauges(&self, shard: usize) -> Option<&ShardGauges> {
        self.shards.get(shard)
    }

    /// Record one finished HTTP exchange.
    pub fn record_request(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        let s = &self.endpoints[endpoint.index()];
        s.requests_total.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            s.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        s.latency.observe(elapsed);
    }

    /// Record the models a successful diagnosis ran.
    pub fn record_inference(&self, kinds: impl Iterator<Item = ModelKind>) {
        for kind in kinds {
            for (i, k) in ModelKind::ALL.iter().enumerate() {
                if *k == kind {
                    self.inference[i].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Record one job completed by worker `worker`.
    pub fn record_worker_job(&self, worker: usize) {
        if let Some(c) = self.worker_jobs.get(worker) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Jobs completed per worker (for tests asserting pool fan-out).
    pub fn worker_job_counts(&self) -> Vec<u64> {
        self.worker_jobs
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total requests seen on one endpoint.
    pub fn requests_on(&self, endpoint: Endpoint) -> u64 {
        self.endpoints[endpoint.index()]
            .requests_total
            .load(Ordering::Relaxed)
    }

    /// Render the text exposition (`GET /metrics`). `queue_depth` is
    /// sampled by the caller so the gauge is current.
    pub fn render(&self, queue_depth: usize, queue_capacity: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        for ep in Endpoint::ALL {
            let s = &self.endpoints[ep.index()];
            let requests = s.requests_total.load(Ordering::Relaxed);
            if requests == 0 {
                continue;
            }
            let label = ep.label();
            let _ = writeln!(
                out,
                "aiio_requests_total{{endpoint=\"{label}\"}} {requests}"
            );
            let _ = writeln!(
                out,
                "aiio_request_errors_total{{endpoint=\"{label}\"}} {}",
                s.errors_total.load(Ordering::Relaxed)
            );
            let mut cumulative = 0u64;
            for (i, bound) in LATENCY_BOUNDS_MS.iter().enumerate() {
                cumulative += s.latency.buckets[i].load(Ordering::Relaxed);
                let _ = writeln!(
                    out,
                    "aiio_request_latency_ms_bucket{{endpoint=\"{label}\",le=\"{bound}\"}} {cumulative}",
                );
            }
            cumulative += s.latency.buckets[LATENCY_BOUNDS_MS.len()].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "aiio_request_latency_ms_bucket{{endpoint=\"{label}\",le=\"+Inf\"}} {cumulative}",
            );
            let sum_us = s.latency.sum_us.load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "aiio_request_latency_ms_sum{{endpoint=\"{label}\"}} {}.{:03}",
                sum_us / 1000,
                sum_us % 1000
            );
            let _ = writeln!(
                out,
                "aiio_request_latency_ms_count{{endpoint=\"{label}\"}} {}",
                s.latency.count.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(out, "aiio_queue_depth {queue_depth}");
        let _ = writeln!(out, "aiio_queue_capacity {queue_capacity}");
        let _ = writeln!(
            out,
            "aiio_connections_open {}",
            self.connections_open.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "aiio_connections_rejected_total {}",
            self.connections_rejected_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "aiio_rejected_total {}",
            self.rejected_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "aiio_timeouts_total {}",
            self.timeouts_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "aiio_worker_panics_total {}",
            self.worker_panics_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "aiio_reloads_total {}",
            self.reloads_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "aiio_retrains_total {}",
            self.retrains_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "aiio_uptime_seconds {}",
            self.started.elapsed().as_secs()
        );
        if let Some(sched) = self.sched.get() {
            let now = sched.now_ms();
            for t in sched.tasks() {
                let task = t.name;
                let _ = writeln!(
                    out,
                    "aiio_sched_runs_total{{task=\"{task}\"}} {}",
                    t.runs_total.load(Ordering::Relaxed)
                );
                let _ = writeln!(
                    out,
                    "aiio_sched_failures_total{{task=\"{task}\"}} {}",
                    t.failures_total.load(Ordering::Relaxed)
                );
                let _ = writeln!(
                    out,
                    "aiio_sched_backoff_level{{task=\"{task}\"}} {}",
                    t.backoff_level.load(Ordering::Relaxed)
                );
                let _ = writeln!(
                    out,
                    "aiio_sched_next_run_ms{{task=\"{task}\"}} {}",
                    t.next_run_ms.load(Ordering::Relaxed).saturating_sub(now)
                );
            }
        }
        if let Some(cache) = self.cache.get() {
            let s = cache.stats();
            let _ = writeln!(out, "aiio_cache_hits_total {}", s.hits);
            let _ = writeln!(out, "aiio_cache_misses_total {}", s.misses);
            let _ = writeln!(out, "aiio_cache_insertions_total {}", s.insertions);
            let _ = writeln!(out, "aiio_cache_evictions_total {}", s.evictions);
            let _ = writeln!(out, "aiio_cache_invalidations_total {}", s.invalidations);
            let _ = writeln!(out, "aiio_cache_entries {}", s.entries);
            let _ = writeln!(out, "aiio_cache_bytes {}", s.bytes);
            let _ = writeln!(out, "aiio_cache_capacity_bytes {}", s.capacity_bytes);
        }
        let _ = writeln!(
            out,
            "aiio_diagnoses_total {}",
            self.diagnoses_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "aiio_batch_jobs_total {}",
            self.batch_jobs_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "aiio_engine_threads {}",
            self.engine_threads.load(Ordering::Relaxed)
        );
        // Acquire pairs with the Release store in `Server::bind`: seeing
        // the flag guarantees the store gauges it gates are visible too.
        if self.store_attached.load(Ordering::Acquire) != 0 {
            let _ = writeln!(
                out,
                "aiio_ingested_total {}",
                self.ingested_total.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "aiio_store_rows {}",
                self.store_rows.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "aiio_store_segments {}",
                self.store_segments.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "aiio_store_wal_rows {}",
                self.store_wal_rows.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "aiio_drift_max_psi_micro {}",
                self.drift_max_psi_micro.load(Ordering::Relaxed)
            );
            if !self.shards.is_empty() {
                let _ = writeln!(out, "aiio_store_shards {}", self.shards.len());
                for (s, g) in self.shards.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "aiio_shard_rows{{shard=\"{s}\"}} {}",
                        g.rows.load(Ordering::Relaxed)
                    );
                    let _ = writeln!(
                        out,
                        "aiio_shard_replication_lag{{shard=\"{s}\"}} {}",
                        g.replication_lag.load(Ordering::Relaxed)
                    );
                    let _ = writeln!(
                        out,
                        "aiio_shard_serving_replica{{shard=\"{s}\"}} {}",
                        g.serving_replica.load(Ordering::Relaxed)
                    );
                    let _ = writeln!(
                        out,
                        "aiio_shard_replication_lag_frames{{shard=\"{s}\"}} {}",
                        g.repl_lag_frames.load(Ordering::Relaxed)
                    );
                    let _ = writeln!(
                        out,
                        "aiio_shard_repl_rtt_ms{{shard=\"{s}\"}} {}",
                        g.repl_rtt_ms.load(Ordering::Relaxed)
                    );
                }
            }
        }
        for (i, kind) in ModelKind::ALL.iter().enumerate() {
            let n = self.inference[i].load(Ordering::Relaxed);
            if n > 0 {
                let _ = writeln!(out, "aiio_inference_total{{model=\"{}\"}} {n}", kind.name());
            }
        }
        for (w, c) in self.worker_jobs.iter().enumerate() {
            let _ = writeln!(
                out,
                "aiio_worker_jobs_total{{worker=\"{w}\"}} {}",
                c.load(Ordering::Relaxed)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let m = Metrics::new(2);
        m.record_request(Endpoint::Diagnose, 200, Duration::from_millis(3));
        m.record_request(Endpoint::Diagnose, 200, Duration::from_millis(8));
        m.record_request(Endpoint::Diagnose, 500, Duration::from_millis(7000));
        let text = m.render(1, 8);
        assert!(text.contains("aiio_requests_total{endpoint=\"diagnose\"} 3"));
        assert!(text.contains("aiio_request_errors_total{endpoint=\"diagnose\"} 1"));
        assert!(text.contains("le=\"5\"} 1"));
        assert!(text.contains("le=\"10\"} 2"));
        assert!(text.contains("le=\"+Inf\"} 3"));
        assert!(text.contains("aiio_queue_depth 1"));
    }

    #[test]
    fn sub_millisecond_latencies_land_in_fractional_buckets() {
        let m = Metrics::new(1);
        m.record_request(Endpoint::Ingest, 200, Duration::from_micros(80));
        m.record_request(Endpoint::Ingest, 200, Duration::from_micros(400));
        m.record_request(Endpoint::Ingest, 200, Duration::from_micros(1500));
        let text = m.render(0, 8);
        assert!(text.contains("endpoint=\"ingest\",le=\"0.1\"} 1"));
        assert!(text.contains("endpoint=\"ingest\",le=\"0.25\"} 1"));
        assert!(text.contains("endpoint=\"ingest\",le=\"0.5\"} 2"));
        assert!(text.contains("endpoint=\"ingest\",le=\"1\"} 2"));
        assert!(text.contains("endpoint=\"ingest\",le=\"5\"} 3"));
        assert!(text.contains("aiio_request_latency_ms_sum{endpoint=\"ingest\"} 1.980"));
        assert!(text.contains("aiio_connections_open 0"));
        assert!(text.contains("aiio_connections_rejected_total 0"));
    }

    #[test]
    fn inference_counts_by_kind() {
        let m = Metrics::new(1);
        m.record_inference([ModelKind::Mlp, ModelKind::Mlp, ModelKind::TabNet].into_iter());
        let text = m.render(0, 8);
        assert!(text.contains("aiio_inference_total{model=\"MLP\"} 2"));
        assert!(text.contains("aiio_inference_total{model=\"TabNet\"} 1"));
    }

    #[test]
    fn store_gauges_render_only_when_attached() {
        let m = Metrics::new(1);
        assert!(!m.render(0, 8).contains("aiio_store_rows"));
        m.store_attached.store(1, Ordering::Relaxed);
        m.store_rows.store(42, Ordering::Relaxed);
        m.drift_max_psi_micro.store(123456, Ordering::Relaxed);
        let text = m.render(0, 8);
        assert!(text.contains("aiio_store_rows 42"));
        assert!(text.contains("aiio_ingested_total 0"));
        assert!(text.contains("aiio_drift_max_psi_micro 123456"));
    }

    #[test]
    fn shard_gauges_render_per_shard_when_sharded() {
        let m = Metrics::with_shards(1, 2);
        m.store_attached.store(1, Ordering::Relaxed);
        m.shard_gauges(0).unwrap().rows.store(10, Ordering::Relaxed);
        m.shard_gauges(1)
            .unwrap()
            .replication_lag
            .store(3, Ordering::Relaxed);
        m.shard_gauges(1)
            .unwrap()
            .serving_replica
            .store(1, Ordering::Relaxed);
        let text = m.render(0, 8);
        assert!(text.contains("aiio_store_shards 2"));
        assert!(text.contains("aiio_shard_rows{shard=\"0\"} 10"));
        assert!(text.contains("aiio_shard_replication_lag{shard=\"1\"} 3"));
        assert!(text.contains("aiio_shard_serving_replica{shard=\"1\"} 1"));
        m.shard_gauges(0)
            .unwrap()
            .repl_lag_frames
            .store(7, Ordering::Relaxed);
        m.shard_gauges(0)
            .unwrap()
            .repl_rtt_ms
            .store(12, Ordering::Relaxed);
        let text = m.render(0, 8);
        assert!(text.contains("aiio_shard_replication_lag_frames{shard=\"0\"} 7"));
        assert!(text.contains("aiio_shard_repl_rtt_ms{shard=\"0\"} 12"));
        // Unsharded metrics never emit the shard family.
        let plain = Metrics::new(1);
        plain.store_attached.store(1, Ordering::Relaxed);
        assert!(!plain.render(0, 8).contains("aiio_store_shards"));
    }

    #[test]
    fn sched_family_renders_once_installed() {
        let m = Metrics::new(1);
        let text = m.render(0, 8);
        assert!(text.contains("aiio_uptime_seconds"));
        assert!(text.contains("aiio_retrains_total 0"));
        assert!(!text.contains("aiio_sched_runs_total"));
        // Drive a tiny scheduler by hand and install its stats.
        let clock = std::sync::Arc::new(aiio_sched::SimClock::new());
        let mut sched =
            aiio_sched::Scheduler::new(clock.clone() as std::sync::Arc<dyn aiio_sched::Clock>);
        sched
            .add(
                aiio_sched::TaskSpec::every("pull", std::time::Duration::from_millis(10)),
                Box::new(|| Ok(true)),
            )
            .unwrap();
        m.set_sched(std::sync::Arc::new(sched.stats()));
        clock.advance(10);
        sched.run_due();
        let text = m.render(0, 8);
        assert!(text.contains("aiio_sched_runs_total{task=\"pull\"} 1"));
        assert!(text.contains("aiio_sched_failures_total{task=\"pull\"} 0"));
        assert!(text.contains("aiio_sched_backoff_level{task=\"pull\"} 0"));
        assert!(text.contains("aiio_sched_next_run_ms{task=\"pull\"} 10"));
    }

    #[test]
    fn cache_family_renders_once_installed() {
        let m = Metrics::new(1);
        assert!(!m.render(0, 8).contains("aiio_cache_hits_total"));
        m.set_cache(std::sync::Arc::new(aiio_store::SegmentCache::new(1024)));
        let text = m.render(0, 8);
        assert!(text.contains("aiio_cache_hits_total 0"));
        assert!(text.contains("aiio_cache_misses_total 0"));
        assert!(text.contains("aiio_cache_entries 0"));
        assert!(text.contains("aiio_cache_capacity_bytes 1024"));
    }

    #[test]
    fn idle_endpoints_are_omitted() {
        let m = Metrics::new(1);
        m.record_request(Endpoint::Healthz, 200, Duration::ZERO);
        let text = m.render(0, 8);
        assert!(text.contains("endpoint=\"healthz\""));
        assert!(!text.contains("endpoint=\"diagnose\""));
    }
}
