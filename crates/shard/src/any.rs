//! One handle over a job-log directory, whatever its on-disk layout.
//!
//! A directory holds either a plain `aiio-store` (WAL and segments at the
//! root) or a sharded fleet (manifest, epochs, shards, ordinal journal).
//! [`Layout::of`] is the only code that reads which, and
//! [`AnyStore::open`] is the only code that decides what a fresh
//! directory becomes. The server, the CLI and network replication work
//! through [`AnyStore`]'s uniform surface — append, sync, seal, compact,
//! stats, snapshot scans, training — and never look at the files. A
//! snapshot is the same [`StoreReadView`] on both layouts; only a fleet's
//! carries an ordinal journal.

use std::path::Path;

use aiio_darshan::{JobLog, LogDatabase, StoreBackend};
use aiio_store::{CompactReport, Result, Store, StoreConfig, StoreReadView, StoreStats};

use crate::fleet::{FleetRecovery, ShardStat, ShardedStore};
use crate::manifest::MANIFEST_NAME;
use crate::replica::{DirSource, ShardSource as _};

/// What a job-log directory holds on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// A plain store: a WAL or sealed segments at the root.
    Plain,
    /// A sharded fleet: a manifest at the root.
    Fleet,
}

impl Layout {
    /// The layout `dir` holds, or `None` for a missing or empty
    /// directory. A manifest means a fleet; a WAL or sealed segments at
    /// the root mean a plain store. Reads only; creates nothing.
    pub fn of(dir: &Path) -> Result<Option<Layout>> {
        if dir.join(MANIFEST_NAME).exists() {
            return Ok(Some(Layout::Fleet));
        }
        let plain = dir.join(aiio_store::wal::WAL_NAME).exists()
            || !DirSource(dir).list_segments()?.is_empty();
        Ok(plain.then_some(Layout::Plain))
    }
}

/// Point-in-time shape of a store directory, the same on both layouts.
#[derive(Debug, Clone)]
pub struct AnyStats {
    /// The whole directory as one store (a fleet sums its serving
    /// shards), so [`aiio_store::CompactionTrigger`] applies unchanged.
    pub store: StoreStats,
    /// Per-shard breakdown in shard order; empty for a plain store.
    pub shards: Vec<ShardStat>,
}

/// An open job-log directory. Its methods behave the same on both
/// layouts: a fleet routes each row to its owning shard and replays
/// global insertion order on every read.
#[derive(Debug)]
pub enum AnyStore {
    /// A plain single store.
    Plain(Box<Store>),
    /// A sharded fleet.
    Fleet(Box<ShardedStore>),
}

impl AnyStore {
    /// Open the store at `dir`. An existing layout always wins; `shards`
    /// only seeds a fresh directory: `0` makes a plain store, `n > 0` an
    /// `n`-shard fleet. Asking for shards over an existing plain store is
    /// refused rather than shadowing its rows.
    pub fn open(dir: impl AsRef<Path>, shards: usize) -> Result<AnyStore> {
        let dir = dir.as_ref();
        match (Layout::of(dir)?, shards) {
            (Some(Layout::Plain) | None, 0) => Ok(AnyStore::Plain(Box::new(Store::open(dir)?))),
            _ => Ok(AnyStore::Fleet(Box::new(ShardedStore::open_with(
                dir,
                shards.max(1),
                StoreConfig::default(),
            )?))),
        }
    }

    /// Rows a scan yields.
    pub fn len(&self) -> usize {
        match self {
            AnyStore::Plain(s) => s.len(),
            AnyStore::Fleet(f) => f.len(),
        }
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a batch; a row failing [`JobLog::validate`] rejects the
    /// whole batch ([`aiio_store::StoreError::Invalid`]) unwritten.
    pub fn append_batch(&mut self, jobs: &[JobLog]) -> Result<()> {
        match self {
            AnyStore::Plain(s) => s.append_batch(jobs),
            AnyStore::Fleet(f) => f.append_batch(jobs),
        }
    }

    /// Flush appended rows (and a fleet's journal) to the device.
    pub fn sync(&mut self) -> Result<()> {
        match self {
            AnyStore::Plain(s) => s.sync(),
            AnyStore::Fleet(f) => f.sync(),
        }
    }

    /// Seal every WAL tail (every shard's, on a fleet) into segments;
    /// returns segments created.
    pub fn seal(&mut self) -> Result<usize> {
        match self {
            AnyStore::Plain(s) => s.seal(),
            AnyStore::Fleet(f) => f.seal(),
        }
    }

    /// Merge undersized segments (every shard's, on a fleet).
    pub fn compact(&mut self) -> Result<CompactReport> {
        match self {
            AnyStore::Plain(s) => s.compact(),
            AnyStore::Fleet(f) => f.compact(),
        }
    }

    /// Point-in-time shape. Does no file I/O, so it is safe under a
    /// serving lock.
    pub fn stats(&self) -> AnyStats {
        match self {
            AnyStore::Plain(s) => AnyStats {
                store: s.stats(),
                shards: Vec::new(),
            },
            AnyStore::Fleet(f) => {
                let stats = f.stats();
                AnyStats {
                    store: stats.combined_store(),
                    shards: stats.per_shard,
                }
            }
        }
    }

    /// What opening found and repaired. A plain store reports as one
    /// shard with no journal, failovers or orphans.
    pub fn recovery(&self) -> FleetRecovery {
        match self {
            AnyStore::Plain(s) => FleetRecovery {
                shard_reports: vec![s.recovery_report().clone()],
                ..FleetRecovery::default()
            },
            AnyStore::Fleet(f) => f.recovery_report().clone(),
        }
    }

    /// An owned snapshot for lock-free scanning (segment metadata and the
    /// WAL tail are copied; segment bytes are read by the scan).
    pub fn read_view(&self) -> StoreReadView<'static> {
        match self {
            AnyStore::Plain(s) => s.read_view(),
            AnyStore::Fleet(f) => f.read_view(),
        }
    }

    /// Every row in insertion order, in memory (for retraining).
    pub fn read_all(&self) -> Result<LogDatabase> {
        match self {
            AnyStore::Plain(s) => s.read_all(),
            AnyStore::Fleet(f) => f.read_all(),
        }
    }
}

impl StoreBackend for AnyStore {
    fn job_count(&self) -> std::io::Result<usize> {
        Ok(self.len())
    }

    fn stream_jobs(&self, sink: &mut dyn FnMut(&JobLog)) -> std::io::Result<()> {
        match self {
            AnyStore::Plain(s) => s.stream_jobs(sink),
            AnyStore::Fleet(f) => f.stream_jobs(sink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_darshan::CounterId;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("aiio_shard_any_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn job(id: u64) -> JobLog {
        let mut j = JobLog::new(id, "app", 2020);
        j.counters.set(CounterId::PosixReads, (id % 9) as f64);
        j
    }

    fn ids(store: &AnyStore) -> Vec<u64> {
        let mut out = Vec::new();
        store.stream_jobs(&mut |j| out.push(j.job_id)).unwrap();
        out
    }

    #[test]
    fn layout_is_decided_once_and_an_existing_layout_wins() {
        let plain = tmpdir("plain");
        assert_eq!(Layout::of(&plain).unwrap(), None);
        let mut store = AnyStore::open(&plain, 0).unwrap();
        store
            .append_batch(&(0..5).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        drop(store);
        assert_eq!(Layout::of(&plain).unwrap(), Some(Layout::Plain));
        // Shards over an existing plain store are refused, not shadowed.
        let err = AnyStore::open(&plain, 2).unwrap_err().to_string();
        assert!(err.contains("unsharded"), "{err}");
        assert_eq!(AnyStore::open(&plain, 0).unwrap().len(), 5);

        let fleet = tmpdir("fleet");
        let mut store = AnyStore::open(&fleet, 3).unwrap();
        store
            .append_batch(&(0..12).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        drop(store);
        assert_eq!(Layout::of(&fleet).unwrap(), Some(Layout::Fleet));
        // `shards = 0` reopens the fleet at its own width.
        let store = AnyStore::open(&fleet, 0).unwrap();
        assert_eq!(store.stats().shards.len(), 3);
        assert_eq!(ids(&store), (0..12).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&plain);
        let _ = std::fs::remove_dir_all(&fleet);
    }

    #[test]
    fn a_rejected_batch_writes_nothing_on_either_layout() {
        for shards in [0usize, 3] {
            let root = tmpdir(&format!("reject{shards}"));
            let mut store = AnyStore::open(&root, shards).unwrap();
            let mut batch: Vec<JobLog> = (0..6).map(job).collect();
            batch[4].counters.set(CounterId::PosixWrites, -1.0);
            let err = store.append_batch(&batch).unwrap_err();
            assert!(matches!(err, aiio_store::StoreError::Invalid(_)), "{err}");
            assert!(store.is_empty());
            store.append_batch(&batch[..4]).unwrap();
            store.sync().unwrap();
            drop(store);
            let store = AnyStore::open(&root, shards).unwrap();
            assert!(store.recovery().is_clean());
            assert_eq!(ids(&store), vec![0, 1, 2, 3]);
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
