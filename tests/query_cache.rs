//! Differential suite for the decoded-segment block cache: caching must
//! be byte-invisible. Every scan, filtered scan and training run here is
//! executed cache-off (`set_cache(None)`) and cache-on (a private
//! [`SegmentCache`]) and must agree exactly — at 1 and 8 engine threads,
//! across a compaction, and across a replication reset (a shard primary
//! lost and failed over to its replica, then re-seeded).
//!
//! The CI `query-soak` job reruns this file with `AIIO_CACHE_BYTES` set
//! to 0 and to the default budget, so the process-global cache path gets
//! the same on/off coverage as the private handles used here.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aiio::{AiioService, TrainConfig};
use aiio_darshan::{CounterId, FeaturePipeline, JobLog};
use aiio_shard::{manifest, ShardedStore};
use aiio_store::{CounterRange, SegmentCache, Store, StoreConfig};
use aiio_testkit::kill_path;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn tmpdir(tag: &str) -> PathBuf {
    aiio_testkit::tmpdir("aiio_query_cache", tag).unwrap()
}

fn job(i: u64, rng: &mut ChaCha8Rng) -> JobLog {
    let mut j = JobLog::new(i, format!("app-{}", i % 4), 2019 + (i % 4) as u16);
    j.counters
        .set(CounterId::PosixReads, rng.gen_range(0.0f64..1e5).round());
    j.counters
        .set(CounterId::PosixWrites, rng.gen_range(0.0f64..1e5).round());
    j.counters
        .set(CounterId::PosixSeqReads, rng.gen_range(0.0f64..1e4));
    j.time.total_read_time = rng.gen_range(0.0f64..100.0);
    j.time.total_write_time = rng.gen_range(0.0f64..100.0);
    j.time.slowest_rank_seconds = rng.gen_range(0.0f64..200.0);
    j
}

fn jobs(n: u64, seed: u64) -> Vec<JobLog> {
    let mut rng = aiio_testkit::rng(seed);
    (0..n).map(|i| job(i, &mut rng)).collect()
}

fn cfg() -> StoreConfig {
    StoreConfig {
        rows_per_segment: 16,
        wal_block_rows: 4,
    }
}

fn range() -> CounterRange {
    CounterRange::new(CounterId::PosixReads, 0.0, 5e4).unwrap()
}

/// Every observable byte of the read path, in one comparable bundle:
/// full-scan rows as serialized JSON, filtered rows, and the training
/// dataset built through the `StoreBackend` streaming path.
#[derive(PartialEq, Debug)]
struct ReadBundle {
    scan_json: Vec<String>,
    filtered_json: Vec<String>,
    dataset: aiio_darshan::Dataset,
}

fn bundle_of_store(store: &Store) -> ReadBundle {
    let mut scan_json = Vec::new();
    store
        .scan(&mut |j| scan_json.push(serde_json::to_string(j).unwrap()))
        .unwrap();
    let mut filtered_json = Vec::new();
    store
        .scan_filtered(&range(), &mut |j| {
            filtered_json.push(serde_json::to_string(j).unwrap())
        })
        .unwrap();
    ReadBundle {
        scan_json,
        filtered_json,
        dataset: FeaturePipeline::paper().dataset_of_backend(store).unwrap(),
    }
}

fn bundle_of_fleet(fleet: &ShardedStore) -> ReadBundle {
    let mut scan_json = Vec::new();
    fleet
        .scan(&mut |j| scan_json.push(serde_json::to_string(j).unwrap()))
        .unwrap();
    let mut filtered_json = Vec::new();
    fleet
        .scan_filtered(&range(), &mut |j| {
            filtered_json.push(serde_json::to_string(j).unwrap())
        })
        .unwrap();
    ReadBundle {
        scan_json,
        filtered_json,
        dataset: FeaturePipeline::paper().dataset_of_backend(fleet).unwrap(),
    }
}

fn service_bytes(root: &Path, backend: &dyn aiio_darshan::StoreBackend, tag: &str) -> Vec<u8> {
    let service = AiioService::train_from_backend(&TrainConfig::fast(), backend).unwrap();
    let path = root.join(format!("service-{tag}.json"));
    service.save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

#[test]
fn store_reads_identical_cache_on_off_across_threads_and_compaction() {
    let dir = tmpdir("store");
    let logs = jobs(150, 3);
    {
        let mut store = Store::open_with(&dir, cfg()).unwrap();
        store.append_batch(&logs).unwrap();
        store.sync().unwrap();
    }

    for threads in [1usize, 8] {
        aiio_par::with_threads(threads, || {
            let mut off = Store::open_with(&dir, cfg()).unwrap();
            off.set_cache(None);
            let baseline = bundle_of_store(&off);

            let cache = Arc::new(SegmentCache::new(64 * 1024 * 1024));
            let mut on = Store::open_with(&dir, cfg()).unwrap();
            on.set_cache(Some(Arc::clone(&cache)));
            let cold = bundle_of_store(&on);
            let warm = bundle_of_store(&on);
            assert_eq!(cold, baseline, "{threads} threads: cold cache diverges");
            assert_eq!(warm, baseline, "{threads} threads: warm cache diverges");
            assert!(
                cache.stats().hits > 0,
                "{threads} threads: warm pass never hit the cache"
            );
            assert_eq!(
                service_bytes(&dir, &on, &format!("on-{threads}")),
                service_bytes(&dir, &off, &format!("off-{threads}")),
                "{threads} threads: training bytes diverge cache on vs off"
            );
        });
    }

    // Compact *while the cache holds the pre-compaction segments*; the
    // merged layout must serve the same bytes (stale entries are both
    // invalidated and unservable by the len+fingerprint identity check).
    let cache = Arc::new(SegmentCache::new(64 * 1024 * 1024));
    let mut on = Store::open_with(&dir, cfg()).unwrap();
    on.set_cache(Some(Arc::clone(&cache)));
    let before = bundle_of_store(&on);
    on.compact().unwrap();
    let after = bundle_of_store(&on);
    assert_eq!(
        after, before,
        "compaction changed scan bytes under the cache"
    );

    let mut off = Store::open_with(&dir, cfg()).unwrap();
    off.set_cache(None);
    assert_eq!(
        bundle_of_store(&off),
        before,
        "compacted store reads differently without the cache"
    );
}

const SHARDS: usize = 3;

fn build_replicated(root: &Path, logs: &[JobLog]) {
    let cut = logs.len() / 2;
    let mut fleet = ShardedStore::open_with(root, SHARDS, cfg()).unwrap();
    fleet.append_batch(&logs[..cut]).unwrap();
    fleet.seal().unwrap();
    fleet.sync().unwrap();
    fleet.replicate().unwrap();
    fleet.append_batch(&logs[cut..]).unwrap();
    fleet.sync().unwrap();
    fleet.replicate().unwrap();
}

#[test]
fn fleet_reads_identical_cache_on_off_across_replication_reset() {
    let root = tmpdir("fleet");
    let logs = jobs(200, 7);
    build_replicated(&root, &logs);

    let baseline = {
        let mut fleet = ShardedStore::open_with(&root, SHARDS, cfg()).unwrap();
        fleet.set_cache(None);
        bundle_of_fleet(&fleet)
    };
    assert_eq!(baseline.scan_json.len(), logs.len());

    for threads in [1usize, 8] {
        aiio_par::with_threads(threads, || {
            let cache = Arc::new(SegmentCache::new(64 * 1024 * 1024));
            let mut fleet = ShardedStore::open_with(&root, SHARDS, cfg()).unwrap();
            fleet.set_cache(Some(Arc::clone(&cache)));
            assert_eq!(
                bundle_of_fleet(&fleet),
                baseline,
                "{threads} threads: cold fleet scan diverges"
            );
            assert_eq!(
                bundle_of_fleet(&fleet),
                baseline,
                "{threads} threads: warm fleet scan diverges"
            );
            assert!(cache.stats().hits > 0);
        });
    }

    // Replication reset: lose shard 1's primary, fail over to the
    // replica (same rows, different segment files), then re-seed. The
    // cache must never serve a pre-reset decode for a post-reset file.
    let epoch = manifest::epoch_dir(&root, 0);
    for threads in [1usize, 8] {
        // Each round loses the primary afresh — the previous round's
        // replicate() re-seeded it, making the fleet healthy again.
        kill_path(&manifest::shard_dir(&epoch, 1)).unwrap();
        aiio_par::with_threads(threads, || {
            let cache = Arc::new(SegmentCache::new(64 * 1024 * 1024));
            let mut on = ShardedStore::open_with(&root, SHARDS, cfg()).unwrap();
            assert_eq!(on.recovery_report().failovers, vec![1]);
            on.set_cache(Some(Arc::clone(&cache)));
            let on_bundle = bundle_of_fleet(&on);
            // Re-seed the lost primary while the cache is warm, then
            // replicate again: bytes must not move.
            on.replicate().unwrap();
            let reseeded = bundle_of_fleet(&on);

            let mut off = ShardedStore::open_with(&root, SHARDS, cfg()).unwrap();
            off.set_cache(None);
            let off_bundle = bundle_of_fleet(&off);

            assert_eq!(
                on_bundle, baseline,
                "{threads} threads: failed-over scan diverges under cache"
            );
            assert_eq!(
                reseeded, baseline,
                "{threads} threads: re-seeded scan diverges under cache"
            );
            assert_eq!(
                off_bundle, baseline,
                "{threads} threads: failed-over scan diverges without cache"
            );
            assert_eq!(
                service_bytes(&root, &on, &format!("on-{threads}")),
                service_bytes(&root, &off, &format!("off-{threads}")),
                "{threads} threads: post-reset training bytes diverge cache on vs off"
            );
        });
    }

    let _ = std::fs::remove_dir_all(&root);
}
