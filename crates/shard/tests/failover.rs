//! Fault-injection suite: lose or corrupt a shard mid-ingest, survive.
//!
//! Each scenario builds a replicated fleet, damages one shard's primary
//! between ingest waves — deleting the directory wholesale, or
//! bit-flipping a sealed segment so the store quarantines it — and then
//! asserts the two halves of the failover contract:
//!
//! 1. **Reads serve from the replica**: the reopened fleet reports the
//!    shard in `ShardRole::Replica`, and a full scan returns every row
//!    in the original arrival order.
//! 2. **Training is unaffected**: `train_from_backend` on the damaged
//!    fleet persists byte-identically to a never-damaged control fleet
//!    that ingested the same logs.

use std::path::{Path, PathBuf};

use aiio::{AiioService, TrainConfig};
use aiio_darshan::{CounterId, JobLog};
use aiio_shard::{manifest, ShardRole, ShardedStore};
use aiio_store::StoreConfig;
use aiio_testkit::{flip_byte, kill_path, rng};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn tmpdir(tag: &str) -> PathBuf {
    aiio_testkit::tmpdir("aiio_shard_failover", tag).unwrap()
}

fn job(i: u64, rng: &mut ChaCha8Rng) -> JobLog {
    let mut j = JobLog::new(i, format!("app-{}", i % 4), 2019 + (i % 4) as u16);
    j.counters
        .set(CounterId::PosixReads, rng.gen_range(0.0f64..1e5).round());
    j.counters
        .set(CounterId::PosixWrites, rng.gen_range(0.0f64..1e5).round());
    j.time.total_read_time = rng.gen_range(0.0f64..100.0);
    j.time.total_write_time = rng.gen_range(0.0f64..100.0);
    j.time.slowest_rank_seconds = rng.gen_range(0.0f64..200.0);
    j
}

fn jobs(n: u64, seed: u64) -> Vec<JobLog> {
    let mut rng = rng(seed);
    (0..n).map(|i| job(i, &mut rng)).collect()
}

fn cfg() -> StoreConfig {
    StoreConfig {
        rows_per_segment: 16,
        wal_block_rows: 4,
    }
}

const SHARDS: usize = 3;

/// Ingest in two waves with a replication pass after each, so the
/// replicas cover both sealed segments and the WAL tail.
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

fn scan_ids(fleet: &ShardedStore) -> Vec<u64> {
    let mut ids = Vec::new();
    fleet.scan(&mut |j| ids.push(j.job_id)).unwrap();
    ids
}

fn service_bytes(root: &Path, fleet: &ShardedStore, tag: &str) -> Vec<u8> {
    let service = AiioService::train_from_backend(&TrainConfig::fast(), fleet).unwrap();
    let path = root.join(format!("service-{tag}.json"));
    service.save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

#[test]
fn deleting_a_shard_directory_fails_over_to_the_replica() {
    let logs = jobs(200, 5);
    let control_root = tmpdir("delete_control");
    build_replicated(&control_root, &logs);
    let control = ShardedStore::open_with(&control_root, SHARDS, cfg()).unwrap();
    let want_ids = scan_ids(&control);
    assert_eq!(want_ids.len(), 200);
    let want_bytes = service_bytes(&control_root, &control, "control");

    let victim_root = tmpdir("delete_victim");
    build_replicated(&victim_root, &logs);
    // Kill shard 1's primary wholesale — directory gone, WAL and all.
    let epoch = manifest::epoch_dir(&victim_root, 0);
    kill_path(&manifest::shard_dir(&epoch, 1)).unwrap();

    let fleet = ShardedStore::open_with(&victim_root, SHARDS, cfg()).unwrap();
    let rec = fleet.recovery_report();
    assert_eq!(rec.failovers, vec![1], "shard 1 must fail over");
    assert_eq!(
        rec.journal_entries_dropped, 0,
        "replica must cover all rows"
    );
    assert_eq!(fleet.roles()[1], ShardRole::Replica);
    assert_eq!(scan_ids(&fleet), want_ids);
    assert_eq!(
        service_bytes(&victim_root, &fleet, "victim"),
        want_bytes,
        "training after failover must be byte-identical to the undamaged fleet"
    );
    let _ = std::fs::remove_dir_all(&control_root);
    let _ = std::fs::remove_dir_all(&victim_root);
}

#[test]
fn corrupting_a_sealed_segment_fails_over_to_the_replica() {
    let logs = jobs(200, 6);
    let control_root = tmpdir("corrupt_control");
    build_replicated(&control_root, &logs);
    let control = ShardedStore::open_with(&control_root, SHARDS, cfg()).unwrap();
    let want_ids = scan_ids(&control);
    let want_bytes = service_bytes(&control_root, &control, "control");

    let victim_root = tmpdir("corrupt_victim");
    build_replicated(&victim_root, &logs);
    // Flip bits in every sealed segment of shard 0's primary: the store
    // quarantines them at open, leaving the primary short.
    let epoch = manifest::epoch_dir(&victim_root, 0);
    let shard_dir = manifest::shard_dir(&epoch, 0);
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&shard_dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("seg-") && name.ends_with(".seg") {
            let mid = entry.metadata().unwrap().len() as usize / 2;
            flip_byte(&entry.path(), mid, 0xA5).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "scenario must corrupt at least one segment");

    let fleet = ShardedStore::open_with(&victim_root, SHARDS, cfg()).unwrap();
    let rec = fleet.recovery_report();
    assert_eq!(rec.failovers, vec![0], "shard 0 must fail over");
    assert_eq!(
        rec.journal_entries_dropped, 0,
        "replica must cover all rows"
    );
    assert_eq!(fleet.roles()[0], ShardRole::Replica);
    assert_eq!(scan_ids(&fleet), want_ids);
    assert_eq!(
        service_bytes(&victim_root, &fleet, "victim"),
        want_bytes,
        "training after quarantine-failover must match the undamaged fleet"
    );
    let _ = std::fs::remove_dir_all(&control_root);
    let _ = std::fs::remove_dir_all(&victim_root);
}

#[test]
fn failed_over_fleet_keeps_ingesting_and_reseeds_the_lost_primary() {
    let logs = jobs(150, 7);
    let root = tmpdir("reseed");
    build_replicated(&root, &logs);
    let epoch = manifest::epoch_dir(&root, 0);
    kill_path(&manifest::shard_dir(&epoch, 2)).unwrap();

    let mut fleet = ShardedStore::open_with(&root, SHARDS, cfg()).unwrap();
    assert_eq!(fleet.roles()[2], ShardRole::Replica);
    // Ingest continues on the failed-over shard...
    let more = jobs(40, 8)
        .into_iter()
        .map(|mut j| {
            j.job_id += 1000;
            j
        })
        .collect::<Vec<_>>();
    fleet.append_batch(&more).unwrap();
    fleet.sync().unwrap();
    assert_eq!(fleet.len(), 190);
    // ... and replicate() re-seeds the lost primary directory.
    fleet.replicate().unwrap();
    assert!(manifest::shard_dir(&epoch, 2).exists());
    let stats = fleet.stats();
    assert!(stats.per_shard.iter().all(|p| p.replication_lag == 0));

    // The re-seeded fleet reopens clean and replays everything.
    drop(fleet);
    let fleet = ShardedStore::open_with(&root, SHARDS, cfg()).unwrap();
    assert_eq!(fleet.len(), 190);
    assert_eq!(scan_ids(&fleet).len(), 190);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn losing_a_replica_directory_is_harmless() {
    let logs = jobs(120, 9);
    let root = tmpdir("replica_loss");
    build_replicated(&root, &logs);
    let epoch = manifest::epoch_dir(&root, 0);
    kill_path(&manifest::replica_dir(&epoch, 0)).unwrap();

    let mut fleet = ShardedStore::open_with(&root, SHARDS, cfg()).unwrap();
    assert!(fleet.recovery_report().failovers.is_empty());
    assert_eq!(fleet.len(), 120);
    assert_eq!(scan_ids(&fleet).len(), 120);
    // Replication rebuilds the lost follower from the primary.
    fleet.replicate().unwrap();
    assert!(manifest::replica_dir(&epoch, 0).exists());
    assert!(fleet
        .stats()
        .per_shard
        .iter()
        .all(|p| p.replication_lag == 0));
    let _ = std::fs::remove_dir_all(&root);
}

/// A leader WAL rewrite whose new file happens to put a frame boundary
/// at the follower's old length: the byte offset alone looks valid, so
/// only the ordinal the follower sends with it shows its copy is from the
/// previous WAL generation. Without that check the follower silently
/// skipped rows 6..12 and a failover served 8 of 14 rows.
#[test]
fn leader_wal_rewrite_landing_on_a_frame_boundary_loses_no_rows() {
    let cfg = StoreConfig {
        rows_per_segment: 1024,
        wal_block_rows: 2,
    };
    let logs = jobs(14, 11);
    let root = tmpdir("rewrite_boundary");
    let mut fleet = ShardedStore::open_with(&root, 1, cfg).unwrap();
    // Three 2-row frames, shipped.
    for pair in logs[..6].chunks(2) {
        fleet.append_batch(pair).unwrap();
    }
    fleet.sync().unwrap();
    fleet.replicate().unwrap();
    // The seal rewrites the leader WAL; four more 2-row frames put a
    // frame boundary exactly at the follower's old WAL length.
    fleet.seal().unwrap();
    for pair in logs[6..].chunks(2) {
        fleet.append_batch(pair).unwrap();
    }
    fleet.sync().unwrap();
    let report = fleet.replicate().unwrap();
    drop(fleet);

    // Lose the primary: every row must come back from the follower.
    let epoch = manifest::epoch_dir(&root, 0);
    kill_path(&manifest::shard_dir(&epoch, 0)).unwrap();
    let fleet = ShardedStore::open_with(&root, 1, cfg).unwrap();
    assert_eq!(fleet.roles()[0], ShardRole::Replica);
    assert_eq!(scan_ids(&fleet), (0..14).collect::<Vec<u64>>());
    assert_eq!(fleet.recovery_report().journal_entries_dropped, 0);
    assert_eq!(report.wal_resets, 1, "the rewrite must reset the follower");
    let _ = std::fs::remove_dir_all(&root);
}
