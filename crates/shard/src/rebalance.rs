//! Deterministic, resumable rebalance: change the fleet width.
//!
//! A rebalance never edits the live epoch. It builds a complete *next*
//! epoch in a staging fleet under `rebalance-staging/`, streaming the
//! source fleet in global insertion order and re-routing every row by
//! its job-id hash, then publishes with two renames:
//!
//! ```text
//! source epoch E (live)          staging fleet
//!   epoch-00000E/  ── scan ──▶     rebalance-staging/epoch-000000/
//!                                        │ 1. rename → epoch-{E+1}/
//!                                        ▼ 2. publish manifest {epoch: E+1}
//! ```
//!
//! The state machine has three crash-safe phases:
//!
//! 1. **Staging.** The staging fleet is a real [`ShardedStore`], so every
//!    crash-consistency property (journal heal, orphan repair) applies to
//!    the half-built copy. On restart, its healed row count says exactly
//!    how many source rows were already staged; the copy *resumes* by
//!    skipping that many rows of the (deterministic) source scan.
//! 2. **Publish.** Rename the staged epoch directory into place, then
//!    atomically publish the manifest naming it. A crash between the two
//!    leaves the old manifest live; the next fleet open sweeps the
//!    unpublished epoch directory and a rerun starts clean.
//! 3. **Cleanup.** Remove the staging root and the old epoch directory —
//!    both best-effort, both re-swept by later opens.
//!
//! Because ownership is hash-*range* partitioning ([`crate::hash`]), the
//! plan can tell from a segment's job-id column alone whether all its
//! rows feed one target shard (`segments_fastpathed`) or straddle a
//! boundary (`segments_split`) — the per-row hash work is done once
//! against the raw `u64` column, no row decode. Rows are re-encoded
//! regardless (per-shard ordinals change); the fast path saves the
//! hash-and-classify pass, not the copy.

use std::path::Path;

use aiio_darshan::JobLog;
use aiio_store::schema::COL_JOB_ID;
use aiio_store::{segment, Result, StoreConfig, StoreError};
use serde::Serialize;

use crate::fleet::ShardedStore;
use crate::hash::{hash_job_id, shard_of_hash, MAX_SHARDS};
use crate::manifest::{self, Manifest};

/// Staging directory name under the fleet root.
pub const STAGING_DIR_NAME: &str = "rebalance-staging";

/// Rows per `append_batch` while copying.
const COPY_CHUNK_ROWS: usize = 1024;

/// What a rebalance did.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RebalanceReport {
    /// Fleet width before.
    pub from_shards: usize,
    /// Fleet width after.
    pub to_shards: usize,
    /// Epoch before.
    pub from_epoch: u64,
    /// Epoch after (same as `from_epoch` for a no-op).
    pub to_epoch: u64,
    /// Rows copied into the new epoch by this invocation.
    pub rows_moved: u64,
    /// Rows found already staged by an interrupted earlier run.
    pub rows_resumed: u64,
    /// Source segments whose whole hash range feeds one target shard.
    pub segments_fastpathed: usize,
    /// Source segments straddling a target-shard boundary.
    pub segments_split: usize,
}

/// Classify every sealed source segment by its job-id column: does its
/// hash range feed exactly one target shard? Pure metadata pass — reads
/// one CRC-checked `u64` column per segment, decodes no rows.
fn classify_segments(fleet: &ShardedStore, to_shards: usize) -> Result<(usize, usize)> {
    let mut fastpathed = 0usize;
    let mut split = 0usize;
    for s in 0..fleet.shards() {
        for meta in fleet.segment_metas(s) {
            let ids = segment::read_column_u64(&meta.path, COL_JOB_ID)?;
            let mut targets = ids
                .iter()
                .map(|&id| shard_of_hash(hash_job_id(id), to_shards));
            let first = targets.next();
            match first {
                None => fastpathed += 1,
                Some(t0) => {
                    if targets.all(|t| t == t0) {
                        fastpathed += 1;
                    } else {
                        split += 1;
                    }
                }
            }
        }
    }
    Ok((fastpathed, split))
}

/// Re-partition the fleet at `root` to `to_shards` shards. Idempotent
/// and resumable: rerunning after a crash continues where the staged
/// copy stopped; rerunning after success is a no-op.
pub fn rebalance(root: impl AsRef<Path>, to_shards: usize) -> Result<RebalanceReport> {
    rebalance_with(root, to_shards, StoreConfig::default())
}

/// [`rebalance`] with explicit per-shard store configuration for the new
/// epoch.
pub fn rebalance_with(
    root: impl AsRef<Path>,
    to_shards: usize,
    store_config: StoreConfig,
) -> Result<RebalanceReport> {
    let root = root.as_ref();
    let to_shards = to_shards.clamp(1, MAX_SHARDS);
    let source = ShardedStore::open_with(root, to_shards, store_config)?;
    let from = source.manifest().clone();
    let mut report = RebalanceReport {
        from_shards: from.shards,
        to_shards,
        from_epoch: from.epoch,
        to_epoch: from.epoch,
        ..RebalanceReport::default()
    };
    if from.shards == to_shards {
        return Ok(report);
    }
    let (fastpathed, split) = classify_segments(&source, to_shards)?;
    report.segments_fastpathed = fastpathed;
    report.segments_split = split;

    // Phase 1: stage. The staging fleet is a full ShardedStore, so an
    // interrupted copy heals itself at open and tells us how far it got.
    let staging_root = root.join(STAGING_DIR_NAME);
    match manifest::load(&staging_root) {
        Ok(None) => {}
        Ok(Some(m)) if m.shards == to_shards => {}
        // Leftover from an abandoned rebalance to a different width, or
        // an unreadable staging manifest: start the copy fresh.
        _ => std::fs::remove_dir_all(&staging_root)?,
    }
    let mut staging = ShardedStore::open_with(&staging_root, to_shards, store_config)?;
    let already = staging.len() as u64;
    report.rows_resumed = already;
    if already > source.len() as u64 {
        return Err(StoreError::Format {
            path: staging_root.clone(),
            detail: format!(
                "staged copy holds {already} rows but the source holds {} — staging is not a copy of this fleet; remove {} and rerun",
                source.len(),
                staging_root.display()
            ),
        });
    }

    let mut chunk: Vec<JobLog> = Vec::with_capacity(COPY_CHUNK_ROWS);
    let mut seen = 0u64;
    let mut copy_err: Option<StoreError> = None;
    source.scan(&mut |job| {
        if copy_err.is_some() {
            return;
        }
        seen += 1;
        if seen <= already {
            return;
        }
        chunk.push(job.clone());
        if chunk.len() >= COPY_CHUNK_ROWS {
            if let Err(e) = staging.append_batch(&chunk) {
                copy_err = Some(e);
            }
            report.rows_moved += chunk.len() as u64;
            chunk.clear();
        }
    })?;
    if let Some(e) = copy_err {
        return Err(e);
    }
    if !chunk.is_empty() {
        staging.append_batch(&chunk)?;
        report.rows_moved += chunk.len() as u64;
    }
    staging.seal()?;
    staging.sync()?;
    let staged_epoch = staging.epoch_path().to_path_buf();
    drop(staging);
    drop(source);

    // Phase 2: publish. Rename the staged epoch into place, then swing
    // the manifest. A crash between the two leaves the old manifest
    // live and the orphan epoch dir is swept by the next open.
    let next_epoch = from.epoch + 1;
    let final_dir = manifest::epoch_dir(root, next_epoch);
    if final_dir.exists() {
        std::fs::remove_dir_all(&final_dir)?;
    }
    std::fs::rename(&staged_epoch, &final_dir)?;
    manifest::publish(
        root,
        &Manifest {
            format_version: from.format_version,
            epoch: next_epoch,
            shards: to_shards,
        },
    )?;
    report.to_epoch = next_epoch;

    // Phase 3: cleanup (best-effort; later opens re-sweep). Cached
    // decodes under the retired epoch (and the staging copy) are dead
    // weight now that the manifest points at the new epoch.
    if let Some(cache) = aiio_store::SegmentCache::shared() {
        cache.invalidate_dir(&manifest::epoch_dir(root, from.epoch));
        cache.invalidate_dir(&staging_root);
    }
    let _ = std::fs::remove_dir_all(&staging_root);
    manifest::sweep_stale_epochs(root, next_epoch);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_darshan::CounterId;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("aiio_shard_rebalance_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn job(id: u64) -> JobLog {
        let mut j = JobLog::new(id, format!("app-{}", id % 5), 2018 + (id % 5) as u16);
        j.counters.set(CounterId::PosixReads, (id * 13 % 97) as f64);
        j
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            rows_per_segment: 8,
            wal_block_rows: 4,
        }
    }

    fn scan_ids(root: &Path) -> Vec<u64> {
        let fleet = ShardedStore::open_with(root, 1, small_config()).unwrap();
        let mut ids = Vec::new();
        fleet.scan(&mut |j| ids.push(j.job_id)).unwrap();
        ids
    }

    fn seed_fleet(root: &Path, shards: usize, rows: u64) {
        let mut fleet = ShardedStore::open_with(root, shards, small_config()).unwrap();
        fleet
            .append_batch(&(0..rows).map(job).collect::<Vec<_>>())
            .unwrap();
        fleet.seal().unwrap();
        fleet.sync().unwrap();
    }

    #[test]
    fn rebalance_widens_and_narrows_without_reordering() {
        let root = tmpdir("widen");
        seed_fleet(&root, 1, 70);
        let want = scan_ids(&root);

        let r = rebalance_with(&root, 4, small_config()).unwrap();
        assert_eq!(r.from_shards, 1);
        assert_eq!(r.to_shards, 4);
        assert_eq!(r.rows_moved, 70);
        assert_eq!(r.to_epoch, 1);
        let fleet = ShardedStore::open_with(&root, 4, small_config()).unwrap();
        assert_eq!(fleet.shards(), 4);
        assert!(fleet.stats().per_shard.iter().all(|p| p.serving_rows > 0));
        drop(fleet);
        assert_eq!(scan_ids(&root), want);

        let r = rebalance_with(&root, 2, small_config()).unwrap();
        assert_eq!(r.to_epoch, 2);
        assert_eq!(scan_ids(&root), want);
        assert!(!root.join(STAGING_DIR_NAME).exists());
        assert!(!manifest::epoch_dir(&root, 0).exists());
        assert!(!manifest::epoch_dir(&root, 1).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rebalance_to_the_same_width_is_a_noop() {
        let root = tmpdir("noop");
        seed_fleet(&root, 2, 20);
        let r = rebalance_with(&root, 2, small_config()).unwrap();
        assert_eq!(r.rows_moved, 0);
        assert_eq!(r.from_epoch, r.to_epoch);
        assert_eq!(scan_ids(&root).len(), 20);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupted_rebalance_resumes_where_it_stopped() {
        let root = tmpdir("resume");
        seed_fleet(&root, 1, 60);
        let want = scan_ids(&root);

        // Simulate a crash mid-phase-1: stage the first 25 rows exactly
        // as the copy loop would, then abandon.
        {
            let mut staged =
                ShardedStore::open_with(root.join(STAGING_DIR_NAME), 3, small_config()).unwrap();
            staged
                .append_batch(&(0..25).map(job).collect::<Vec<_>>())
                .unwrap();
            staged.sync().unwrap();
        }
        let r = rebalance_with(&root, 3, small_config()).unwrap();
        assert_eq!(r.rows_resumed, 25);
        assert_eq!(r.rows_moved, 35);
        assert_eq!(scan_ids(&root), want);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_staging_for_a_different_width_is_discarded() {
        let root = tmpdir("stale");
        seed_fleet(&root, 1, 30);
        {
            // Abandoned staging targeting width 2...
            let mut staged =
                ShardedStore::open_with(root.join(STAGING_DIR_NAME), 2, small_config()).unwrap();
            staged
                .append_batch(&(0..10).map(job).collect::<Vec<_>>())
                .unwrap();
            staged.sync().unwrap();
        }
        // ... must not leak rows into a rebalance targeting width 4.
        let r = rebalance_with(&root, 4, small_config()).unwrap();
        assert_eq!(r.rows_resumed, 0);
        assert_eq!(r.rows_moved, 30);
        assert_eq!(scan_ids(&root).len(), 30);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn segment_classification_counts_pure_and_straddling_segments() {
        let root = tmpdir("classify");
        seed_fleet(&root, 2, 64);
        let fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
        let (fast, split) = classify_segments(&fleet, 4).unwrap();
        // Going 2 -> 4 splits each source span in half, so segments mixing
        // both halves straddle; with 8-row segments over hashed ids, at
        // least one segment of each kind is overwhelmingly likely — but
        // the hard invariant is only that every segment is classified.
        let total: usize = (0..fleet.shards())
            .map(|s| fleet.segment_metas(s).len())
            .sum();
        assert_eq!(fast + split, total);
        assert!(total > 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
