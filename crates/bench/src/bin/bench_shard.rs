//! Throughput benchmark for the sharded job-log fleet.
//!
//! Ingests the same seeded iosim database into a 1-shard fleet and an
//! N-shard fleet, then scatter-gather scans both, reporting ingest and
//! scan throughput side by side in `results/BENCH_shard.json`. The row
//! totals of the two layouts are asserted equal — the fleet is supposed
//! to be a transparent partitioning, not a different store.
//!
//! Scale knobs: `AIIO_BENCH_JOBS` (default 50000), `AIIO_BENCH_SEED`
//! (default 7), `AIIO_BENCH_CHUNK` (ingest chunk rows, default 4096),
//! `AIIO_BENCH_SHARDS` (wide layout, default 4), `AIIO_THREADS`
//! (scatter-gather workers, default: library heuristic).

use aiio_bench::write_json;
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_shard::ShardedStore;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct LayoutResult {
    shards: usize,
    ingest_ms: u64,
    ingest_jobs_per_s: f64,
    seal_compact_ms: u64,
    scan_ms: u64,
    scan_jobs_per_s: f64,
    total_rows: u64,
    journal_bytes: u64,
}

#[derive(Serialize)]
struct BenchShard {
    n_jobs: usize,
    seed: u64,
    chunk_rows: usize,
    narrow: LayoutResult,
    wide: LayoutResult,
    scan_speedup: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn bench_layout(
    sampler: &DatabaseSampler,
    n_jobs: usize,
    chunk_rows: usize,
    shards: usize,
) -> std::io::Result<LayoutResult> {
    let dir =
        std::env::temp_dir().join(format!("aiio_bench_shard_{}_{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!("[bench_shard] ingesting {n_jobs} jobs into {shards}-shard fleet...");
    let mut fleet =
        ShardedStore::open_with(&dir, shards, Default::default()).map_err(|e| e.into_io())?;
    let t = Instant::now();
    sampler
        .sample_into_store(chunk_rows, |batch| fleet.append_batch(batch))
        .map_err(|e| e.into_io())?;
    fleet.sync().map_err(|e| e.into_io())?;
    let ingest_ms = t.elapsed().as_millis() as u64;

    let t = Instant::now();
    fleet.seal().map_err(|e| e.into_io())?;
    fleet.compact().map_err(|e| e.into_io())?;
    let seal_compact_ms = t.elapsed().as_millis() as u64;

    eprintln!("[bench_shard] scatter-gather scan over {shards} shard(s)...");
    let t = Instant::now();
    let mut scanned = 0usize;
    fleet
        .scan(&mut |_job| scanned += 1)
        .map_err(|e| e.into_io())?;
    let scan_ms = t.elapsed().as_millis() as u64;
    assert_eq!(scanned, n_jobs, "scan must yield every ingested row");

    let stats = fleet.stats();
    let secs = |ms: u64| (ms.max(1) as f64) / 1000.0;
    let result = LayoutResult {
        shards,
        ingest_ms,
        ingest_jobs_per_s: n_jobs as f64 / secs(ingest_ms),
        seal_compact_ms,
        scan_ms,
        scan_jobs_per_s: scanned as f64 / secs(scan_ms),
        total_rows: stats.total_rows,
        journal_bytes: stats.journal_bytes,
    };
    std::fs::remove_dir_all(&dir)?;
    Ok(result)
}

fn run() -> std::io::Result<()> {
    let n_jobs = env_usize("AIIO_BENCH_JOBS", 50_000);
    let seed = env_usize("AIIO_BENCH_SEED", 7) as u64;
    let chunk_rows = env_usize("AIIO_BENCH_CHUNK", 4096);
    let wide_shards = env_usize("AIIO_BENCH_SHARDS", 4).max(2);

    let sampler = DatabaseSampler::new(SamplerConfig {
        n_jobs,
        seed,
        noise_sigma: 0.03,
    });

    let narrow = bench_layout(&sampler, n_jobs, chunk_rows, 1)?;
    let wide = bench_layout(&sampler, n_jobs, chunk_rows, wide_shards)?;
    assert_eq!(
        narrow.total_rows, wide.total_rows,
        "both layouts must hold the same rows"
    );

    let result = BenchShard {
        n_jobs,
        seed,
        chunk_rows,
        scan_speedup: narrow.scan_ms.max(1) as f64 / wide.scan_ms.max(1) as f64,
        narrow,
        wide,
    };
    println!(
        "1 shard: ingest {:.0} jobs/s, scan {:.0} jobs/s; {} shards: ingest {:.0} jobs/s, \
         scan {:.0} jobs/s (scan speedup {:.2}x)",
        result.narrow.ingest_jobs_per_s,
        result.narrow.scan_jobs_per_s,
        result.wide.shards,
        result.wide.ingest_jobs_per_s,
        result.wide.scan_jobs_per_s,
        result.scan_speedup
    );
    write_json("BENCH_shard", &result)
}

fn main() -> std::process::ExitCode {
    if let Err(e) = run() {
        eprintln!("bench_shard failed: {e}");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
