//! The sharded fleet: N `aiio-store` instances behind one store surface.
//!
//! A [`ShardedStore`] routes every appended row to the shard owning its
//! job-id hash ([`crate::hash`]), records the owner in the ordinal
//! journal ([`crate::journal`]), and on read *merges by journal*: every
//! scan is an [`aiio_store::StoreReadView`] of the shards plus the
//! journal, whose walker takes each run of rows from the shard the
//! journal names. Because the journal is exactly the global arrival
//! order, a fleet scan replays rows byte-identically to one unsharded
//! store — at any shard count and any `aiio_par` thread count — which is
//! what keeps `FeaturePipeline::dataset_of_backend` (and therefore every
//! trained model) invariant under sharding.
//!
//! Crash consistency is a two-sided heal at open:
//!
//! * **Journal ahead of a shard** (crash between shard append and
//!   journal fsync never happens — rows land before their journal frame
//!   — but a *lost or failed-over* shard can be short): the journal is
//!   cut at the first entry whose row is missing and rewritten, so reads
//!   never block on rows nobody holds.
//! * **Shard ahead of the journal** (crash after shard append, before
//!   the journal frame): the surplus rows are *orphans*. Reads simply
//!   never reach them (the merge is journal-driven); the first append
//!   triggers [`ShardedStore::repair_orphans`], which rebuilds the shard
//!   without them via a staging directory + atomic rename.
//!
//! Failover: each shard may have a follower directory kept warm by
//! [`crate::replica`]. If at open the primary is missing rows the
//! follower has (deleted, quarantined, torn), the fleet serves — and
//! appends to — the follower instead, and [`ShardedStore::replicate`]
//! re-seeds the other side.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aiio_darshan::{JobLog, LogDatabase, StoreBackend};
use aiio_store::frames::FrameWriter;
use aiio_store::segment::SegmentMeta;
use aiio_store::{
    CompactReport, CounterRange, RecoveryReport, Result, ScanSummary, Store, StoreConfig,
    StoreError, StoreReadView, StoreStats,
};
use serde::Serialize;

use crate::any::Layout;
use crate::journal::{self, JOURNAL_NAME};
use crate::manifest::{self, Manifest};
use crate::replica;

/// Suffix of the staging directory an orphan repair rebuilds through.
pub const REPAIR_SUFFIX: &str = ".repair";

/// Which directory a shard currently serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ShardRole {
    /// Serving the primary directory (the normal state).
    Primary,
    /// Failed over: serving the follower directory.
    Replica,
}

impl ShardRole {
    /// Stable lowercase label for stats and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardRole::Primary => "primary",
            ShardRole::Replica => "replica",
        }
    }
}

/// Everything opening a fleet found and repaired.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FleetRecovery {
    /// Journal entries cut because their shard no longer holds the row.
    pub journal_entries_dropped: u64,
    /// Journal bytes abandoned past the first bad frame.
    pub journal_bytes_dropped: u64,
    /// Shard rows beyond the journaled prefix, pending lazy repair.
    pub orphan_rows: u64,
    /// Shards serving their follower directory instead of the primary.
    pub failovers: Vec<usize>,
    /// Per-shard store recovery, in shard order.
    pub shard_reports: Vec<RecoveryReport>,
}

impl FleetRecovery {
    /// True when nothing was dropped, orphaned or failed over.
    pub fn is_clean(&self) -> bool {
        self.journal_entries_dropped == 0
            && self.journal_bytes_dropped == 0
            && self.orphan_rows == 0
            && self.failovers.is_empty()
            && self.shard_reports.iter().all(RecoveryReport::is_clean)
    }
}

/// Point-in-time shape of one shard, for `shard-stats` and `/metrics`.
#[derive(Debug, Clone, Serialize)]
pub struct ShardStat {
    /// Shard index.
    pub shard: usize,
    /// Which directory it serves from.
    pub role: &'static str,
    /// Rows the journal serves from this shard.
    pub serving_rows: u64,
    /// Rows beyond the journal, pending repair.
    pub orphan_rows: u64,
    /// Last-known row count of the non-serving (follower) directory.
    pub replica_rows: u64,
    /// Rows the follower is behind the serving side (0 when caught up).
    pub replication_lag: u64,
    /// Underlying store shape.
    pub store: StoreStats,
}

/// Point-in-time shape of the whole fleet.
#[derive(Debug, Clone, Serialize)]
pub struct FleetStats {
    /// Live epoch number.
    pub epoch: u64,
    /// Fleet width.
    pub shards: usize,
    /// Rows a fleet scan yields (journaled rows).
    pub total_rows: u64,
    /// Ordinal journal size in bytes.
    pub journal_bytes: u64,
    /// Per-shard breakdown, in shard order.
    pub per_shard: Vec<ShardStat>,
}

impl FleetStats {
    /// The fleet's shape summed into one [`StoreStats`], so threshold
    /// policies written against a single store (e.g.
    /// [`aiio_store::CompactionTrigger`]) apply to a fleet unchanged.
    /// Segment and WAL figures sum over every shard's *serving* store.
    pub fn combined_store(&self) -> StoreStats {
        let mut out = StoreStats {
            segments: 0,
            sealed_rows: 0,
            wal_rows: 0,
            total_rows: self.total_rows as usize,
            sealed_bytes: 0,
            wal_bytes: 0,
        };
        for p in &self.per_shard {
            out.segments += p.store.segments;
            out.sealed_rows += p.store.sealed_rows;
            out.wal_rows += p.store.wal_rows;
            out.sealed_bytes += p.store.sealed_bytes;
            out.wal_bytes += p.store.wal_bytes;
        }
        out
    }
}

/// Aggregate outcome of one [`ShardedStore::replicate`] pass.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ReplicationReport {
    /// Shards whose follower was touched.
    pub shards_synced: usize,
    /// Sealed segments copied across all shards.
    pub segments_copied: usize,
    /// WAL frames shipped across all shards.
    pub frames_shipped: usize,
    /// Rows inside those frames.
    pub rows_shipped: usize,
    /// Follower WALs truncated and re-shipped after a leader rewrite.
    pub wal_resets: usize,
}

#[derive(Debug)]
struct ShardState {
    store: Store,
    role: ShardRole,
    primary_dir: PathBuf,
    replica_dir: PathBuf,
}

impl ShardState {
    fn serving_dir(&self) -> &Path {
        match self.role {
            ShardRole::Primary => &self.primary_dir,
            ShardRole::Replica => &self.replica_dir,
        }
    }

    fn follower_dir(&self) -> &Path {
        match self.role {
            ShardRole::Primary => &self.replica_dir,
            ShardRole::Replica => &self.primary_dir,
        }
    }
}

/// A sharded, replicated job-log store rooted at one directory.
#[derive(Debug)]
pub struct ShardedStore {
    root: PathBuf,
    manifest: Manifest,
    epoch_dir: PathBuf,
    states: Vec<ShardState>,
    assignments: Vec<u8>,
    serve_limits: Vec<u64>,
    orphan_rows: Vec<u64>,
    replica_rows: Vec<u64>,
    journal: FrameWriter,
    store_config: StoreConfig,
    recovery: FleetRecovery,
    repair_needed: bool,
}

fn repair_path(dir: &Path) -> PathBuf {
    let mut os = dir.as_os_str().to_os_string();
    os.push(REPAIR_SUFFIX);
    PathBuf::from(os)
}

/// Finish a repair interrupted by a crash: if the real directory is gone
/// but its staging sibling exists, the staging copy is complete (it is
/// only ever renamed after the original is removed) — adopt it. If both
/// exist, the staging copy may be half-built — discard it.
fn adopt_repair(dir: &Path) -> Result<()> {
    let staged = repair_path(dir);
    if dir.exists() {
        if staged.exists() {
            std::fs::remove_dir_all(&staged)?;
        }
    } else if staged.exists() {
        std::fs::rename(&staged, dir)?;
    }
    Ok(())
}

impl ShardedStore {
    /// Open an existing fleet, or initialise a new single-shard fleet in
    /// an empty directory.
    pub fn open(root: impl AsRef<Path>) -> Result<ShardedStore> {
        Self::open_with(root, 1, StoreConfig::default())
    }

    /// Open an existing fleet (its manifest decides the width), or
    /// initialise a new one with `shards` shards. `store_config` shapes
    /// the per-shard stores (segment size and WAL chunking).
    pub fn open_with(
        root: impl AsRef<Path>,
        shards: usize,
        store_config: StoreConfig,
    ) -> Result<ShardedStore> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let m = match manifest::load(&root)? {
            Some(m) => m,
            None => {
                // Seeding a manifest beside a plain store would shadow its
                // rows: fleet scans would never see them.
                if Layout::of(&root)? == Some(Layout::Plain) {
                    return Err(StoreError::Format {
                        path: root,
                        detail: "directory already holds a plain (unsharded) aiio-store; \
                                 initialising a fleet here would shadow its rows. Point \
                                 --shards at a fresh directory and re-ingest, or keep \
                                 using this one unsharded"
                            .into(),
                    });
                }
                let m = Manifest::new(shards);
                manifest::publish(&root, &m)?;
                m
            }
        };
        manifest::sweep_stale_epochs(&root, m.epoch);
        let epoch_dir = manifest::epoch_dir(&root, m.epoch);
        std::fs::create_dir_all(&epoch_dir)?;

        // Replay the journal before any shard opens: a refused (retired
        // format) journal must leave every shard directory untouched.
        let journal_path = epoch_dir.join(JOURNAL_NAME);
        let jr = journal::recover(&journal_path, m.shards)?;

        let mut recovery = FleetRecovery::default();
        let mut states = Vec::with_capacity(m.shards);
        let mut replica_rows = Vec::with_capacity(m.shards);
        for s in 0..m.shards {
            let primary_dir = manifest::shard_dir(&epoch_dir, s);
            let replica_dir = manifest::replica_dir(&epoch_dir, s);
            adopt_repair(&primary_dir)?;
            adopt_repair(&replica_dir)?;
            let primary = Store::open_with(&primary_dir, store_config)?;
            let follower_rows = if replica_dir.exists() {
                replica::replica_rows(&replica_dir)?
            } else {
                0
            };
            let (store, role) = if follower_rows > primary.len() as u64 {
                // The primary lost rows the follower still has: fail over.
                recovery.failovers.push(s);
                (
                    Store::open_with(&replica_dir, store_config)?,
                    ShardRole::Replica,
                )
            } else {
                (primary, ShardRole::Primary)
            };
            replica_rows.push(match role {
                ShardRole::Primary => follower_rows,
                // Serving the follower; the primary is what lags now.
                ShardRole::Replica => 0,
            });
            recovery.shard_reports.push(store.recovery_report().clone());
            states.push(ShardState {
                store,
                role,
                primary_dir,
                replica_dir,
            });
        }

        // Heal the journal against what the shards hold.
        recovery.journal_bytes_dropped = jr.dropped_bytes;
        let rows: Vec<u64> = states.iter().map(|st| st.store.len() as u64).collect();
        let mut counts = vec![0u64; m.shards];
        let mut healed = jr.assignments.len();
        for (i, &s) in jr.assignments.iter().enumerate() {
            if counts[s as usize] + 1 > rows[s as usize] {
                healed = i;
                break;
            }
            counts[s as usize] += 1;
        }
        recovery.journal_entries_dropped = (jr.assignments.len() - healed) as u64;
        let assignments = jr.assignments[..healed].to_vec();
        let journal = if healed < jr.assignments.len() || jr.dropped_bytes > 0 {
            journal::rewrite(&epoch_dir, &assignments)?
        } else {
            FrameWriter::open_append(&journal_path)?
        };
        let orphan_rows: Vec<u64> = rows
            .iter()
            .zip(&counts)
            .map(|(&have, &served)| have - served)
            .collect();
        recovery.orphan_rows = orphan_rows.iter().sum();
        let repair_needed = recovery.orphan_rows > 0;

        Ok(ShardedStore {
            root,
            manifest: m,
            epoch_dir,
            states,
            assignments,
            serve_limits: counts,
            orphan_rows,
            replica_rows,
            journal,
            store_config,
            recovery,
            repair_needed,
        })
    }

    /// Fleet root directory (the one holding `manifest.json`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The published topology.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Fleet width.
    pub fn shards(&self) -> usize {
        self.states.len()
    }

    /// Live epoch directory.
    pub fn epoch_path(&self) -> &Path {
        &self.epoch_dir
    }

    /// Directory each shard currently serves from (primary, or the
    /// follower after a failover), in shard order. The network
    /// replication endpoints snapshot these paths under the serving
    /// lock and do all file I/O after dropping it.
    pub fn serving_dirs(&self) -> Vec<PathBuf> {
        self.states
            .iter()
            .map(|st| st.serving_dir().to_path_buf())
            .collect()
    }

    /// On-disk path of the live epoch's ordinal journal.
    pub fn journal_path(&self) -> PathBuf {
        self.epoch_dir.join(JOURNAL_NAME)
    }

    /// What opening found and repaired.
    pub fn recovery_report(&self) -> &FleetRecovery {
        &self.recovery
    }

    /// Per-shard store configuration in effect.
    pub fn store_config(&self) -> &StoreConfig {
        &self.store_config
    }

    /// Rows a fleet scan yields.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when the fleet holds no journaled rows.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Role each shard currently serves in.
    pub fn roles(&self) -> Vec<ShardRole> {
        self.states.iter().map(|st| st.role).collect()
    }

    /// Sealed-segment metadata of one shard's serving store (empty slice
    /// for an out-of-range shard). Rebalance planning reads hash-range
    /// facts from these without decoding rows.
    pub fn segment_metas(&self, shard: usize) -> &[SegmentMeta] {
        self.states
            .get(shard)
            .map_or(&[][..], |st| st.store.segments())
    }

    /// Append one row to its owning shard.
    pub fn append(&mut self, job: &JobLog) -> Result<()> {
        self.append_batch(std::slice::from_ref(job))
    }

    /// Append a batch: rows land on their owning shards first, then one
    /// journal frame records the arrival order. A crash between the two
    /// leaves orphan rows that the next open detects and the next append
    /// repairs — never phantom journal entries pointing at missing rows.
    /// The whole batch is validated before any shard sees a row, so a
    /// rejected batch ([`StoreError::Invalid`]) writes nothing anywhere.
    pub fn append_batch(&mut self, jobs: &[JobLog]) -> Result<()> {
        if jobs.is_empty() {
            return Ok(());
        }
        aiio_store::validate_batch(jobs)?;
        self.repair_orphans()?;
        let routed = crate::router::route_batch(jobs, self.states.len());
        let ids = routed.assignments;
        for (s, bucket) in routed.buckets.iter().enumerate() {
            if !bucket.is_empty() {
                self.states[s].store.append_batch(bucket)?;
            }
        }
        self.journal
            .append(&journal::encode(self.assignments.len() as u64, &ids))?;
        for &s in &ids {
            self.serve_limits[s as usize] += 1;
        }
        self.assignments.extend_from_slice(&ids);
        Ok(())
    }

    /// Physically drop orphan rows (shard rows beyond the journaled
    /// prefix) by rebuilding each affected shard through a staging
    /// directory + atomic rename. Returns rows removed. Runs
    /// automatically before the first append; reads never need it
    /// because the journal-driven merge cannot reach an orphan.
    pub fn repair_orphans(&mut self) -> Result<u64> {
        if !self.repair_needed {
            return Ok(0);
        }
        let mut trimmed = 0u64;
        for s in 0..self.states.len() {
            if self.orphan_rows[s] == 0 {
                continue;
            }
            let limit = self.serve_limits[s] as usize;
            let mut keep: Vec<JobLog> = Vec::with_capacity(limit);
            self.states[s].store.scan(&mut |job| {
                if keep.len() < limit {
                    keep.push(job.clone());
                }
            })?;
            let dir = self.states[s].serving_dir().to_path_buf();
            let staged = repair_path(&dir);
            if staged.exists() {
                std::fs::remove_dir_all(&staged)?;
            }
            {
                let mut rebuilt = Store::open_with(&staged, self.store_config)?;
                rebuilt.append_batch(&keep)?;
                rebuilt.sync()?;
            }
            std::fs::remove_dir_all(&dir)?;
            std::fs::rename(&staged, &dir)?;
            // The rebuilt directory reuses the old segment paths with new
            // bytes; drop the dead entries before reopening over them.
            if let Some(cache) = self.states[s].store.cache() {
                cache.invalidate_dir(&dir);
            }
            self.states[s].store = Store::open_with(&dir, self.store_config)?;
            trimmed += self.orphan_rows[s];
            self.orphan_rows[s] = 0;
        }
        self.repair_needed = false;
        Ok(trimmed)
    }

    /// Seal every shard's WAL tail into columnar segments. Returns
    /// segments created.
    pub fn seal(&mut self) -> Result<usize> {
        let mut sealed = 0;
        for st in &mut self.states {
            sealed += st.store.seal()?;
        }
        Ok(sealed)
    }

    /// Flush every shard and the journal to the device.
    pub fn sync(&mut self) -> Result<()> {
        for st in &mut self.states {
            st.store.sync()?;
        }
        self.journal.sync()
    }

    /// Compact every shard's segment chain.
    pub fn compact(&mut self) -> Result<CompactReport> {
        let mut total = CompactReport::default();
        for st in &mut self.states {
            let r = st.store.compact()?;
            total.groups_merged += r.groups_merged;
            total.segments_before += r.segments_before;
            total.segments_after += r.segments_after;
            total.rows_moved += r.rows_moved;
        }
        Ok(total)
    }

    /// Bring every shard's follower up to date through the replication
    /// engine ([`replica::pull_shard`] reading the serving directory via
    /// [`replica::DirSource`]), re-seeding a lost primary when the shard
    /// is failed over.
    pub fn replicate(&mut self) -> Result<ReplicationReport> {
        let mut report = ReplicationReport::default();
        for s in 0..self.states.len() {
            let leader = self.states[s].serving_dir().to_path_buf();
            let follower = self.states[s].follower_dir().to_path_buf();
            let pass = replica::pull_shard(&follower, &replica::DirSource(&leader), s, false)?;
            if pass.segments_copied + pass.segments_removed > 0 {
                // Follower segment files changed under any cached decode
                // of a previous failover's serving stint.
                if let Some(cache) = self.states[s].store.cache() {
                    cache.invalidate_dir(&follower);
                }
            }
            report.shards_synced += 1;
            report.segments_copied += pass.segments_copied as usize;
            report.frames_shipped += pass.frames_shipped as usize;
            report.rows_shipped += pass.rows_shipped as usize;
            report.wal_resets += usize::from(pass.wal_reset);
            self.replica_rows[s] = replica::replica_rows(&follower)?;
        }
        Ok(report)
    }

    /// Point-in-time fleet shape. Replica row counts are the snapshot
    /// taken at open or at the last [`ShardedStore::replicate`] — this
    /// call does no follower I/O, so it is safe under a serving lock.
    pub fn stats(&self) -> FleetStats {
        let per_shard = self
            .states
            .iter()
            .enumerate()
            .map(|(s, st)| {
                let serving = self.serve_limits[s];
                let follower = self.replica_rows[s];
                ShardStat {
                    shard: s,
                    role: st.role.as_str(),
                    serving_rows: serving,
                    orphan_rows: self.orphan_rows[s],
                    replica_rows: follower,
                    replication_lag: serving.saturating_sub(follower),
                    store: st.store.stats(),
                }
            })
            .collect();
        FleetStats {
            epoch: self.manifest.epoch,
            shards: self.states.len(),
            total_rows: self.assignments.len() as u64,
            journal_bytes: self.journal.bytes(),
            per_shard,
        }
    }

    /// Stream every row in global insertion order — byte-identical to an
    /// unsharded store holding the same ingest. Peak memory is one
    /// decoded segment per shard.
    pub fn scan(&self, sink: &mut dyn FnMut(&JobLog)) -> Result<()> {
        self.live().scan(sink)
    }

    /// Stream rows matching `range` in global insertion order, skipping
    /// segments whose zone map proves they hold no match (their rows are
    /// consumed from the journal walk without being decoded).
    pub fn scan_filtered(
        &self,
        range: &CounterRange,
        sink: &mut dyn FnMut(&JobLog),
    ) -> Result<ScanSummary> {
        self.live().scan_filtered(range, sink)
    }

    /// Take an owned [`StoreReadView`] of the journal and every shard's
    /// parts. Orphan tail rows may be copied too; the journal-driven walk
    /// never reaches them, exactly as on the live fleet.
    pub fn read_view(&self) -> StoreReadView<'static> {
        self.live().into_owned()
    }

    /// Every shard, merged by the journal.
    fn live(&self) -> StoreReadView<'_> {
        let stores = self.states.iter().map(|st| &st.store);
        StoreReadView::new(stores, Some(&self.assignments))
    }

    /// Replace every shard's segment block cache (`None` disables
    /// caching). Differential tests use this to prove scans are
    /// byte-identical cache on and off; production fleets keep the
    /// process-wide cache their stores picked up at open.
    pub fn set_cache(&mut self, cache: Option<Arc<aiio_store::SegmentCache>>) {
        for st in &mut self.states {
            st.store.set_cache(cache.clone());
        }
    }

    /// Materialise the whole fleet as an in-memory [`LogDatabase`]
    /// (convenience for small fleets and tests; scans should stream).
    pub fn read_all(&self) -> Result<LogDatabase> {
        let mut db = LogDatabase::new();
        self.scan(&mut |job| db.push(job.clone()))?;
        Ok(db)
    }
}

impl StoreBackend for ShardedStore {
    fn job_count(&self) -> std::io::Result<usize> {
        Ok(self.len())
    }

    fn stream_jobs(&self, sink: &mut dyn FnMut(&JobLog)) -> std::io::Result<()> {
        self.scan(sink).map_err(StoreError::into_io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::shard_of;
    use aiio_darshan::CounterId;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aiio_shard_fleet_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn job(id: u64) -> JobLog {
        let mut j = JobLog::new(id, format!("app-{}", id % 3), 2019 + (id % 4) as u16);
        j.counters.set(CounterId::PosixReads, (id * 7 % 101) as f64);
        j.counters.set(CounterId::PosixWrites, (id * 3 % 53) as f64);
        j
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            rows_per_segment: 8,
            wal_block_rows: 4,
        }
    }

    /// Every file under `dir`, by path, with its bytes.
    fn tree_bytes(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
        let mut out = std::collections::BTreeMap::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    out.insert(path.clone(), std::fs::read(&path).unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn a_retired_asj1_journal_is_refused_and_touches_no_shard() {
        let root = tmpdir("asj1");
        {
            let mut fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
            fleet
                .append_batch(&(0..10).map(job).collect::<Vec<_>>())
                .unwrap();
            fleet.sync().unwrap();
        }
        // Re-frame the same assignments in the retired format 1:
        // magic "ASJ1" · n_rows · base_ordinal · CRC32(payload) · payload.
        let journal = manifest::epoch_dir(&root, 0).join(JOURNAL_NAME);
        let ids = journal::recover(&journal, 2).unwrap().assignments;
        assert_eq!(ids.len(), 10);
        let mut asj1 = b"ASJ1".to_vec();
        asj1.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        asj1.extend_from_slice(&0u64.to_le_bytes());
        asj1.extend_from_slice(&aiio_store::crc32(&ids).to_le_bytes());
        asj1.extend_from_slice(&ids);
        std::fs::write(&journal, &asj1).unwrap();
        let before = tree_bytes(&root);

        match ShardedStore::open_with(&root, 2, small_config()) {
            Err(StoreError::Format { path, detail }) => {
                assert_eq!(path, journal);
                assert!(detail.contains("ASJ1"), "{detail}");
            }
            other => panic!("an ASJ1 journal must refuse to open, got {other:?}"),
        }
        assert!(
            tree_bytes(&root) == before,
            "a refused open must leave every file byte-identical"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn combined_store_stats_sum_over_serving_shards() {
        let root = tmpdir("combined_stats");
        let mut fleet = ShardedStore::open_with(&root, 3, small_config()).unwrap();
        let jobs: Vec<JobLog> = (0..40).map(job).collect();
        fleet.append_batch(&jobs).unwrap();
        fleet.sync().unwrap();
        let stats = fleet.stats();
        let combined = stats.combined_store();
        assert_eq!(combined.total_rows, 40);
        assert_eq!(
            combined.sealed_rows + combined.wal_rows,
            stats
                .per_shard
                .iter()
                .map(|p| p.store.total_rows)
                .sum::<usize>()
        );
        assert_eq!(
            combined.wal_bytes,
            stats
                .per_shard
                .iter()
                .map(|p| p.store.wal_bytes)
                .sum::<u64>()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn refuses_to_seed_a_fleet_over_a_plain_store() {
        let root = tmpdir("plainguard");
        let mut store = Store::open_with(&root, small_config()).unwrap();
        store
            .append_batch(&(0..10).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        drop(store);

        let err = ShardedStore::open_with(&root, 2, small_config());
        assert!(err.is_err(), "must not shadow an existing plain store");
        let msg = err.err().unwrap().to_string();
        assert!(msg.contains("unsharded"), "unexpected error: {msg}");
        assert!(
            Layout::of(&root).unwrap() == Some(Layout::Plain),
            "no manifest may be published beside the plain store"
        );

        // The plain store is untouched and still serves all its rows.
        let store = Store::open_with(&root, small_config()).unwrap();
        assert_eq!(store.len(), 10);
        let _ = std::fs::remove_dir_all(&root);
    }

    fn ids_of_scan(fleet: &ShardedStore) -> Vec<u64> {
        let mut ids = Vec::new();
        fleet.scan(&mut |j| ids.push(j.job_id)).unwrap();
        ids
    }

    #[test]
    fn scan_replays_global_insertion_order_at_any_shard_count() {
        let jobs: Vec<JobLog> = (0..100).map(job).collect();
        for shards in [1usize, 2, 4] {
            let root = tmpdir(&format!("order{shards}"));
            let mut fleet = ShardedStore::open_with(&root, shards, small_config()).unwrap();
            fleet.append_batch(&jobs[..37]).unwrap();
            fleet.seal().unwrap();
            fleet.append_batch(&jobs[37..]).unwrap();
            fleet.sync().unwrap();
            assert_eq!(fleet.len(), 100);
            assert_eq!(ids_of_scan(&fleet), (0..100u64).collect::<Vec<_>>());
            // Reopen: the journal replays the same order.
            drop(fleet);
            let fleet = ShardedStore::open_with(&root, shards, small_config()).unwrap();
            assert!(fleet.recovery_report().is_clean());
            assert_eq!(ids_of_scan(&fleet), (0..100u64).collect::<Vec<_>>());
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn filtered_scan_matches_the_unsharded_store() {
        let jobs: Vec<JobLog> = (0..80).map(job).collect();
        let single_root = tmpdir("filter_single");
        let mut single = Store::open_with(&single_root, small_config()).unwrap();
        single.append_batch(&jobs).unwrap();
        single.seal().unwrap();

        let fleet_root = tmpdir("filter_fleet");
        let mut fleet = ShardedStore::open_with(&fleet_root, 3, small_config()).unwrap();
        fleet.append_batch(&jobs).unwrap();
        fleet.seal().unwrap();

        let range = CounterRange::at_least(CounterId::PosixReads, 50.0);
        let mut want = Vec::new();
        let s1 = single
            .scan_filtered(&range, &mut |j| want.push(j.job_id))
            .unwrap();
        let mut got = Vec::new();
        let s2 = fleet
            .scan_filtered(&range, &mut |j| got.push(j.job_id))
            .unwrap();
        assert_eq!(want, got);
        assert_eq!(s1.rows_matched, s2.rows_matched);
        let _ = std::fs::remove_dir_all(&single_root);
        let _ = std::fs::remove_dir_all(&fleet_root);
    }

    #[test]
    fn orphan_rows_are_invisible_and_repaired_on_next_append() {
        let root = tmpdir("orphans");
        {
            let mut fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
            fleet
                .append_batch(&(0..20).map(job).collect::<Vec<_>>())
                .unwrap();
            fleet.sync().unwrap();
        }
        // Simulate a crash after shard appends but before the journal
        // frame: chop the journal back to 12 entries.
        let epoch = manifest::epoch_dir(&root, 0);
        let jr = journal::recover(&epoch.join(JOURNAL_NAME), 2).unwrap();
        journal::rewrite(&epoch, &jr.assignments[..12]).unwrap();

        let mut fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
        let rec = fleet.recovery_report();
        assert_eq!(rec.orphan_rows, 8);
        assert_eq!(fleet.len(), 12);
        assert_eq!(ids_of_scan(&fleet), (0..12u64).collect::<Vec<_>>());
        // The next append repairs, and new rows continue the order.
        fleet
            .append_batch(&(100..104).map(job).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(
            ids_of_scan(&fleet),
            (0..12u64).chain(100..104).collect::<Vec<_>>()
        );
        // Repair survives a reopen cleanly.
        drop(fleet);
        let fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
        assert!(fleet.recovery_report().is_clean());
        assert_eq!(
            ids_of_scan(&fleet),
            (0..12u64).chain(100..104).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn journal_ahead_of_a_shard_is_cut_back() {
        let root = tmpdir("cut");
        {
            let mut fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
            fleet
                .append_batch(&(0..10).map(job).collect::<Vec<_>>())
                .unwrap();
            fleet.sync().unwrap();
        }
        // Lose shard 1's directory wholesale (no replica to fail over to).
        let epoch = manifest::epoch_dir(&root, 0);
        std::fs::remove_dir_all(manifest::shard_dir(&epoch, 1)).unwrap();
        let fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
        let rec = fleet.recovery_report();
        assert!(rec.journal_entries_dropped > 0);
        // What survives is exactly the arrival-order prefix before the
        // first row the lost shard owned.
        let first_lost = (0..10u64).find(|&id| shard_of(id, 2) == 1).unwrap();
        assert_eq!(fleet.len() as u64, first_lost);
        assert_eq!(ids_of_scan(&fleet), (0..first_lost).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replication_enables_failover_with_no_row_loss() {
        let root = tmpdir("failover");
        {
            let mut fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
            fleet
                .append_batch(&(0..30).map(job).collect::<Vec<_>>())
                .unwrap();
            fleet.sync().unwrap();
            let rep = fleet.replicate().unwrap();
            assert_eq!(rep.shards_synced, 2);
        }
        // Lose shard 0's primary directory entirely.
        let epoch = manifest::epoch_dir(&root, 0);
        std::fs::remove_dir_all(manifest::shard_dir(&epoch, 0)).unwrap();
        let mut fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
        assert_eq!(fleet.recovery_report().failovers, vec![0]);
        assert_eq!(fleet.recovery_report().journal_entries_dropped, 0);
        assert_eq!(fleet.roles()[0], ShardRole::Replica);
        assert_eq!(ids_of_scan(&fleet), (0..30u64).collect::<Vec<_>>());
        // Appends keep working on the failed-over shard, and replicate()
        // re-seeds the lost primary.
        fleet
            .append_batch(&(30..40).map(job).collect::<Vec<_>>())
            .unwrap();
        fleet.sync().unwrap();
        fleet.replicate().unwrap();
        assert_eq!(ids_of_scan(&fleet), (0..40u64).collect::<Vec<_>>());
        drop(fleet);
        let fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
        assert_eq!(ids_of_scan(&fleet), (0..40u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_report_roles_rows_and_lag() {
        let root = tmpdir("stats");
        let mut fleet = ShardedStore::open_with(&root, 2, small_config()).unwrap();
        fleet
            .append_batch(&(0..16).map(job).collect::<Vec<_>>())
            .unwrap();
        let stats = fleet.stats();
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.total_rows, 16);
        let served: u64 = stats.per_shard.iter().map(|p| p.serving_rows).sum();
        assert_eq!(served, 16);
        // Before replication the whole serving side is lag.
        let lag: u64 = stats.per_shard.iter().map(|p| p.replication_lag).sum();
        assert_eq!(lag, 16);
        fleet.sync().unwrap();
        fleet.replicate().unwrap();
        let lag: u64 = fleet
            .stats()
            .per_shard
            .iter()
            .map(|p| p.replication_lag)
            .sum();
        assert_eq!(lag, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
