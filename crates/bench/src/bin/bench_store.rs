//! Throughput benchmark for the columnar job-log store.
//!
//! Generates a seeded iosim database, streams it into a fresh store in
//! bounded chunks, seals and compacts, then scans it back twice — a full
//! sequential pass and a zone-map-filtered pass — and writes the numbers
//! to `results/BENCH_store.json`.
//!
//! Scale knobs: `AIIO_BENCH_JOBS` (default 100000 — the CI soak uses this
//! size, smoke runs downscale), `AIIO_BENCH_SEED` (default 7),
//! `AIIO_BENCH_CHUNK` (ingest chunk rows, default 4096).

use aiio_bench::write_json;
use aiio_darshan::CounterId;
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_store::{CounterRange, Store};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct BenchStore {
    n_jobs: usize,
    seed: u64,
    chunk_rows: usize,
    ingest_ms: u64,
    ingest_jobs_per_s: f64,
    seal_compact_ms: u64,
    segments_before_compact: usize,
    segments_after_compact: usize,
    scan_ms: u64,
    scan_jobs_per_s: f64,
    scan_mib_per_s: f64,
    filtered_scan_ms: u64,
    filtered_rows: usize,
    total_rows: usize,
    sealed_bytes: u64,
    bytes_per_row: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn run() -> std::io::Result<()> {
    let n_jobs = env_usize("AIIO_BENCH_JOBS", 100_000);
    let seed = env_usize("AIIO_BENCH_SEED", 7) as u64;
    let chunk_rows = env_usize("AIIO_BENCH_CHUNK", 4096);

    let dir = std::env::temp_dir().join(format!("aiio_bench_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sampler = DatabaseSampler::new(SamplerConfig {
        n_jobs,
        seed,
        noise_sigma: 0.03,
    });

    eprintln!(
        "[bench_store] ingesting {n_jobs} jobs (chunks of {chunk_rows}) into {}",
        dir.display()
    );
    let mut store = Store::open(&dir).map_err(|e| e.into_io())?;
    let t = Instant::now();
    let ingested = sampler
        .sample_into_store(chunk_rows, |jobs| store.append_batch(jobs))
        .map_err(|e| e.into_io())?;
    store.sync().map_err(|e| e.into_io())?;
    let ingest_ms = t.elapsed().as_millis() as u64;

    let segments_before = store.stats().segments;
    eprintln!("[bench_store] sealing + compacting {segments_before} segments...");
    let t = Instant::now();
    store.seal().map_err(|e| e.into_io())?;
    let report = store.compact().map_err(|e| e.into_io())?;
    let seal_compact_ms = t.elapsed().as_millis() as u64;

    let stats = store.stats();
    eprintln!("[bench_store] full scan...");
    let t = Instant::now();
    let mut scanned = 0usize;
    store
        .scan(&mut |_job| scanned += 1)
        .map_err(|e| e.into_io())?;
    let scan_ms = t.elapsed().as_millis() as u64;
    assert_eq!(
        scanned as u64, ingested,
        "scan must yield every ingested row"
    );

    // A selective predicate: the zone maps let whole segments be skipped
    // when the sampler's job-size distribution clusters per segment.
    eprintln!("[bench_store] zone-map-filtered scan...");
    let range = CounterRange {
        counter: CounterId::Nprocs,
        min: 512.0,
        max: f64::INFINITY,
    };
    let t = Instant::now();
    let mut filtered_rows = 0usize;
    store
        .scan_filtered(&range, &mut |_job| filtered_rows += 1)
        .map_err(|e| e.into_io())?;
    let filtered_scan_ms = t.elapsed().as_millis() as u64;

    let secs = |ms: u64| (ms.max(1) as f64) / 1000.0;
    let result = BenchStore {
        n_jobs,
        seed,
        chunk_rows,
        ingest_ms,
        ingest_jobs_per_s: ingested as f64 / secs(ingest_ms),
        seal_compact_ms,
        segments_before_compact: report.segments_before,
        segments_after_compact: report.segments_after,
        scan_ms,
        scan_jobs_per_s: scanned as f64 / secs(scan_ms),
        scan_mib_per_s: stats.sealed_bytes as f64 / (1024.0 * 1024.0) / secs(scan_ms),
        filtered_scan_ms,
        filtered_rows,
        total_rows: stats.total_rows,
        sealed_bytes: stats.sealed_bytes,
        bytes_per_row: stats.sealed_bytes as f64 / (stats.total_rows.max(1) as f64),
    };
    println!(
        "ingest: {ingested} jobs in {ingest_ms} ms ({:.0} jobs/s); scan: {scan_ms} ms \
         ({:.0} jobs/s, {:.1} MiB/s); filtered scan: {} rows in {filtered_scan_ms} ms",
        result.ingest_jobs_per_s, result.scan_jobs_per_s, result.scan_mib_per_s, filtered_rows
    );
    println!(
        "compact: {} -> {} segments; {:.1} bytes/row on disk",
        result.segments_before_compact, result.segments_after_compact, result.bytes_per_row
    );
    write_json("BENCH_store", &result)?;
    std::fs::remove_dir_all(&dir)
}

fn main() -> std::process::ExitCode {
    if let Err(e) = run() {
        eprintln!("bench_store failed: {e}");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
