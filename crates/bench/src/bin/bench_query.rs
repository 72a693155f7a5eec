//! Read-path benchmark for the decoded-segment block cache and the
//! zone-map-pruned `/query` scan shape.
//!
//! Builds a sealed, compacted store from a seeded iosim database, then
//! times four scan flavours: full scan with caching disabled, cold
//! (cache filling) and warm (cache hitting), plus a selective filtered
//! scan pruned by the zone map vs the same predicate forced over every
//! segment. Writes `results/BENCH_query.json`.
//!
//! Scale knobs: `AIIO_BENCH_JOBS` (default 100000), `AIIO_BENCH_SEED`
//! (default 7), `AIIO_BENCH_CHUNK` (ingest chunk rows, default 4096).

use aiio_bench::write_json;
use aiio_darshan::CounterId;
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_store::{CounterRange, SegmentCache, Store};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct BenchQuery {
    n_jobs: usize,
    seed: u64,
    segments: usize,
    sealed_bytes: u64,
    /// Full scan, caching disabled (every pass decodes from disk).
    scan_uncached_ms: u64,
    /// Full scan against an empty cache (decodes + fills).
    scan_cold_ms: u64,
    /// Full scan against the filled cache (serves decoded rows).
    scan_warm_ms: u64,
    /// `scan_uncached_ms / scan_warm_ms` — the headline number.
    warm_speedup: f64,
    /// Selective filtered scan (uncached): zone map skips what it can.
    filtered_selective_ms: u64,
    filtered_selective_rows: usize,
    selective_segments_skipped: usize,
    /// Filtered scan whose range clears every zone (uncached): all
    /// segments skipped, only the WAL tail tested.
    filtered_all_pruned_ms: u64,
    all_pruned_segments_skipped: usize,
    /// Match-all filtered scan (uncached) — the same code path with
    /// nothing prunable, the pruned-vs-full baseline.
    filtered_full_ms: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes: u64,
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

    let dir = std::env::temp_dir().join(format!("aiio_bench_query_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sampler = DatabaseSampler::new(SamplerConfig {
        n_jobs,
        seed,
        noise_sigma: 0.03,
    });

    eprintln!(
        "[bench_query] ingesting {n_jobs} jobs into {}",
        dir.display()
    );
    let mut store = Store::open(&dir).map_err(|e| e.into_io())?;
    sampler
        .sample_into_store(chunk_rows, |jobs| store.append_batch(jobs))
        .map_err(|e| e.into_io())?;
    store.seal().map_err(|e| e.into_io())?;
    store.compact().map_err(|e| e.into_io())?;
    store.sync().map_err(|e| e.into_io())?;
    let stats = store.stats();

    let time_scan = |store: &Store| -> std::io::Result<u64> {
        let t = Instant::now();
        let mut rows = 0usize;
        store.scan(&mut |_| rows += 1).map_err(|e| e.into_io())?;
        assert_eq!(rows, n_jobs, "scan must yield every row");
        Ok(t.elapsed().as_millis() as u64)
    };

    eprintln!("[bench_query] full scan, caching disabled...");
    store.set_cache(None);
    let scan_uncached_ms = time_scan(&store)?;

    let cache = Arc::new(SegmentCache::new(512 * 1024 * 1024));
    store.set_cache(Some(Arc::clone(&cache)));
    eprintln!("[bench_query] full scan, cold cache...");
    let scan_cold_ms = time_scan(&store)?;
    eprintln!("[bench_query] full scan, warm cache...");
    let scan_warm_ms = time_scan(&store)?;

    // The filtered comparisons run uncached: pruning saves disk decodes,
    // and a warm cache would hide exactly that.
    let cs = cache.stats();
    store.set_cache(None);

    // Selective predicate over the sampler's nprocs distribution.
    let selective = CounterRange {
        counter: CounterId::Nprocs,
        min: 512.0,
        max: f64::INFINITY,
    };
    eprintln!("[bench_query] filtered scan, selective range...");
    let t = Instant::now();
    let mut filtered_selective_rows = 0usize;
    let selective_summary = store
        .scan_filtered(&selective, &mut |_| filtered_selective_rows += 1)
        .map_err(|e| e.into_io())?;
    let filtered_selective_ms = t.elapsed().as_millis() as u64;

    // A range above every zone: the map proves each segment disjoint and
    // the scan touches no segment bytes at all.
    let all_pruned = CounterRange {
        counter: CounterId::Nprocs,
        min: 1e12,
        max: f64::INFINITY,
    };
    eprintln!("[bench_query] filtered scan, everything pruned...");
    let t = Instant::now();
    let mut none = 0usize;
    let pruned_summary = store
        .scan_filtered(&all_pruned, &mut |_| none += 1)
        .map_err(|e| e.into_io())?;
    let filtered_all_pruned_ms = t.elapsed().as_millis() as u64;
    assert_eq!(none, 0, "no row has nprocs >= 1e12");

    let full_range = CounterRange {
        counter: CounterId::Nprocs,
        min: f64::NEG_INFINITY,
        max: f64::INFINITY,
    };
    eprintln!("[bench_query] filtered scan, nothing prunable...");
    let t = Instant::now();
    let mut full_rows = 0usize;
    store
        .scan_filtered(&full_range, &mut |_| full_rows += 1)
        .map_err(|e| e.into_io())?;
    let filtered_full_ms = t.elapsed().as_millis() as u64;
    assert_eq!(full_rows, n_jobs);
    let result = BenchQuery {
        n_jobs,
        seed,
        segments: stats.segments,
        sealed_bytes: stats.sealed_bytes,
        scan_uncached_ms,
        scan_cold_ms,
        scan_warm_ms,
        warm_speedup: scan_uncached_ms.max(1) as f64 / scan_warm_ms.max(1) as f64,
        filtered_selective_ms,
        filtered_selective_rows,
        selective_segments_skipped: selective_summary.segments_skipped,
        filtered_all_pruned_ms,
        all_pruned_segments_skipped: pruned_summary.segments_skipped,
        filtered_full_ms,
        cache_hits: cs.hits,
        cache_misses: cs.misses,
        cache_bytes: cs.bytes,
    };
    println!(
        "scan: uncached {scan_uncached_ms} ms, cold {scan_cold_ms} ms, warm {scan_warm_ms} ms \
         ({:.1}x warm speedup); filtered (uncached): selective {filtered_selective_ms} ms \
         ({filtered_selective_rows} rows, {} skipped), all-pruned {filtered_all_pruned_ms} ms \
         ({} of {} segment(s) skipped), full {filtered_full_ms} ms",
        result.warm_speedup,
        result.selective_segments_skipped,
        result.all_pruned_segments_skipped,
        result.segments
    );
    write_json("BENCH_query", &result)?;
    std::fs::remove_dir_all(&dir)
}

fn main() -> std::process::ExitCode {
    if let Err(e) = run() {
        eprintln!("bench_query failed: {e}");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
