//! The harness the serve suites share: a real server on an ephemeral
//! loopback port driven through the bundled client, plus the store
//! fixtures the replication and control-plane suites build on. Each
//! suite keeps its own `service()`, so model configs stay per suite.

// Each suite uses a different subset of the harness.
#![allow(dead_code)]

use aiio::AiioService;
use aiio_darshan::JobLog;
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_serve::client::{request, ClientResponse};
use aiio_serve::{ServeConfig, Server};
use aiio_shard::ShardedStore;
use aiio_store::StoreConfig;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

pub const RPC_TIMEOUT: Duration = Duration::from_secs(60);

/// Shard count of the fleets [`build_primary`] lays out.
pub const SHARDS: usize = 3;

pub struct Running {
    pub addr: String,
    pub handle: aiio_serve::Handle,
    pub thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    pub fn start(service: &AiioService, config: ServeConfig) -> Running {
        let server = Server::bind("127.0.0.1:0", service.clone(), config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Running {
            addr,
            handle,
            thread,
        }
    }

    pub fn rpc(&self, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
        request(&self.addr, method, path, body, RPC_TIMEOUT).unwrap()
    }

    pub fn stop(self) {
        self.handle.shutdown();
        self.thread.join().unwrap().unwrap();
    }
}

/// Value of one counter/gauge line in a `/metrics` exposition; pass the
/// full labelled name for labelled families.
pub fn metric_value(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{body}"))
}

/// Small store geometry so a handful of rows spans several WAL frames
/// and seals produce real segments.
pub fn small_store() -> StoreConfig {
    StoreConfig {
        rows_per_segment: 16,
        wal_block_rows: 4,
    }
}

/// Deterministic job pool every test appends waves from.
pub fn jobs_pool() -> &'static Vec<JobLog> {
    static CACHE: OnceLock<Vec<JobLog>> = OnceLock::new();
    CACHE.get_or_init(|| {
        DatabaseSampler::new(SamplerConfig {
            n_jobs: 240,
            seed: 77,
            noise_sigma: 0.0,
        })
        .generate()
        .jobs()
        .to_vec()
    })
}

/// Build a primary fleet under `dir` with sealed segments plus a live
/// WAL tail, synced to disk, then drop the handle. A store directory
/// has single-owner semantics — opening it rewrites the WAL via
/// tmp-file + rename, orphaning any other live handle's file
/// descriptor — so the builder must release the directory before the
/// serve instance attaches, and the suite reopens it afterwards.
pub fn build_primary(dir: &Path, rows: std::ops::Range<usize>) {
    let mut fleet = ShardedStore::open_with(dir, SHARDS, small_store()).unwrap();
    let pool = jobs_pool();
    let seal_at = rows.start + (rows.len() * 2) / 3;
    for (i, job) in pool[rows.clone()].iter().enumerate() {
        fleet.append(job).unwrap();
        if rows.start + i + 1 == seal_at {
            fleet.seal().unwrap();
        }
    }
    fleet.sync().unwrap();
}
