//! Differential suite: sharding must be invisible to training.
//!
//! The contract under test is exact, not statistical: for the same
//! ingest, a fleet at ANY shard count and ANY engine thread count must
//! produce (a) the same rows in the same order from `stream_jobs`,
//! (b) an equal `Dataset` from `FeaturePipeline::dataset_of_backend`,
//! and (c) a byte-identical persisted `AiioService` from
//! `train_from_backend` — compared against a plain unsharded
//! `aiio_store::Store` holding the same logs.
//!
//! The CI shard matrix drives this file across `AIIO_SHARDS` (which
//! shard counts to exercise) and `AIIO_THREADS` (consumed by `aiio_par`
//! itself); unset, it sweeps 1/2/4 shards and 1/8 threads locally.

use std::path::PathBuf;

use aiio::{AiioService, TrainConfig};
use aiio_darshan::{CounterId, FeaturePipeline, JobLog};
use aiio_shard::ShardedStore;
use aiio_store::{Store, StoreConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("aiio_shard_diff_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn job(i: u64, rng: &mut ChaCha8Rng) -> JobLog {
    let mut j = JobLog::new(i, format!("app-{}", i % 7), 2018 + (i % 5) as u16);
    j.counters
        .set(CounterId::PosixReads, rng.gen_range(0.0f64..1e6).round());
    j.counters
        .set(CounterId::PosixWrites, rng.gen_range(0.0f64..1e6).round());
    j.counters
        .set(CounterId::PosixSeqReads, rng.gen_range(0.0f64..1e4));
    j.counters.set(
        CounterId::Nprocs,
        [8.0, 64.0, 512.0][rng.gen_range(0usize..3)],
    );
    j.time.total_read_time = rng.gen_range(0.0f64..300.0);
    j.time.total_write_time = rng.gen_range(0.0f64..300.0);
    j.time.total_meta_time = rng.gen_range(0.0f64..30.0);
    j.time.slowest_rank_seconds = rng.gen_range(0.0f64..600.0);
    j
}

fn jobs(n: u64, seed: u64) -> Vec<JobLog> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|i| job(i, &mut rng)).collect()
}

fn cfg() -> StoreConfig {
    StoreConfig {
        rows_per_segment: 32,
        wal_block_rows: 8,
    }
}

/// Shard counts to sweep: `AIIO_SHARDS` (space/comma separated) or the
/// local default.
fn shard_counts() -> Vec<usize> {
    match std::env::var("AIIO_SHARDS") {
        Ok(v) => v
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().expect("AIIO_SHARDS must be shard counts"))
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

/// Thread counts to sweep. When `AIIO_THREADS` pins the engine (the CI
/// matrix does), respect the pin and only test that width.
fn thread_counts() -> Vec<usize> {
    match std::env::var("AIIO_THREADS") {
        Ok(v) => vec![v.parse().expect("AIIO_THREADS must be a thread count")],
        Err(_) => vec![1, 8],
    }
}

/// Ingest `logs` the way live traffic arrives: uneven batches, a seal
/// mid-stream, a reopen, then more rows left in the WAL tail.
fn build_fleet(root: &PathBuf, shards: usize, logs: &[JobLog]) -> ShardedStore {
    let cut_a = logs.len() / 3;
    let cut_b = logs.len() * 3 / 4;
    {
        let mut fleet = ShardedStore::open_with(root, shards, cfg()).unwrap();
        fleet.append_batch(&logs[..cut_a]).unwrap();
        fleet.seal().unwrap();
        fleet.append_batch(&logs[cut_a..cut_b]).unwrap();
        fleet.sync().unwrap();
    }
    let mut fleet = ShardedStore::open_with(root, shards, cfg()).unwrap();
    assert!(fleet.recovery_report().is_clean());
    fleet.append_batch(&logs[cut_b..]).unwrap();
    fleet.sync().unwrap();
    fleet
}

fn build_single(root: &PathBuf, logs: &[JobLog]) -> Store {
    let cut_a = logs.len() / 3;
    let cut_b = logs.len() * 3 / 4;
    {
        let mut store = Store::open_with(root, cfg()).unwrap();
        store.append_batch(&logs[..cut_a]).unwrap();
        store.seal().unwrap();
        store.append_batch(&logs[cut_a..cut_b]).unwrap();
        store.sync().unwrap();
    }
    let mut store = Store::open_with(root, cfg()).unwrap();
    store.append_batch(&logs[cut_b..]).unwrap();
    store.sync().unwrap();
    store
}

#[test]
fn datasets_are_equal_at_every_shard_and_thread_count() {
    let logs = jobs(400, 11);
    let single_root = tmpdir("ds_single");
    let single = build_single(&single_root, &logs);
    let pipeline = FeaturePipeline::paper();
    let want = pipeline.dataset_of_backend(&single).unwrap();
    assert_eq!(want.len(), 400);

    for shards in shard_counts() {
        let root = tmpdir(&format!("ds_fleet{shards}"));
        let fleet = build_fleet(&root, shards, &logs);
        for threads in thread_counts() {
            let got =
                aiio_par::with_threads(threads, || pipeline.dataset_of_backend(&fleet).unwrap());
            assert_eq!(
                want, got,
                "dataset diverged at {shards} shards, {threads} threads"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    let _ = std::fs::remove_dir_all(&single_root);
}

#[test]
fn trained_services_are_byte_identical_across_shard_counts() {
    let logs = jobs(300, 23);
    let config = TrainConfig::fast();

    let single_root = tmpdir("train_single");
    let single = build_single(&single_root, &logs);
    let reference = AiioService::train_from_backend(&config, &single).unwrap();
    let ref_path = single_root.join("service.json");
    reference.save(&ref_path).unwrap();
    let want = std::fs::read(&ref_path).unwrap();
    assert!(!want.is_empty());

    for shards in shard_counts() {
        let root = tmpdir(&format!("train_fleet{shards}"));
        let fleet = build_fleet(&root, shards, &logs);
        for threads in thread_counts() {
            let service = aiio_par::with_threads(threads, || {
                AiioService::train_from_backend(&config, &fleet).unwrap()
            });
            let path = root.join(format!("service-{threads}.json"));
            service.save(&path).unwrap();
            let got = std::fs::read(&path).unwrap();
            assert_eq!(
                want, got,
                "persisted service diverged at {shards} shards, {threads} threads"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    let _ = std::fs::remove_dir_all(&single_root);
}

#[test]
fn scans_replay_identically_after_rebalance() {
    let logs = jobs(250, 37);
    let root = tmpdir("rebalance_diff");
    let fleet = build_fleet(&root, 2, &logs);
    let mut want_ids = Vec::new();
    fleet.scan(&mut |j| want_ids.push(j.job_id)).unwrap();
    assert_eq!(want_ids.len(), 250);
    drop(fleet);

    for target in [4usize, 1, 3] {
        aiio_shard::rebalance_with(&root, target, cfg()).unwrap();
        let fleet = ShardedStore::open_with(&root, target, cfg()).unwrap();
        assert_eq!(fleet.shards(), target);
        let mut got = Vec::new();
        fleet.scan(&mut |j| got.push(j.job_id)).unwrap();
        assert_eq!(want_ids, got, "scan order changed rebalancing to {target}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
