//! The store itself: a directory of sealed segments plus a WAL tail.
//!
//! Ingest path: rows append to the WAL (CRC-framed blocks, flushed per
//! batch) and accumulate in a bounded in-memory tail; once
//! `rows_per_segment` are pending they are sealed into an immutable
//! columnar segment (staging file + atomic rename) and the WAL is
//! rewritten to just the unsealed remainder. Every mutation is ordered so
//! a crash at any instant loses at most the unsealed tail bytes past the
//! last intact WAL frame — committed segments are never touched in place.
//!
//! Read path: scans stream one segment at a time (peak memory is one
//! decoded segment, not the database) and can skip segments via
//! per-column zone maps.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aiio_darshan::{CounterId, JobLog, LogDatabase, StoreBackend};
use serde::Serialize;

use crate::cache::SegmentCache;
use crate::error::{Result, StoreError};
use crate::frames::FrameWriter;
use crate::scan::StoreReadView;
use crate::segment::{self, SegmentMeta, ZoneEntry};
use crate::wal::{self, WAL_NAME};

/// Tunables of a store. The defaults are what the CLI and server use.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Rows per sealed segment — the unit of scan memory, zone-map
    /// granularity and parallel fan-out.
    pub rows_per_segment: usize,
    /// Max rows per WAL block (one frame per ingest chunk).
    pub wal_block_rows: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            rows_per_segment: 8192,
            wal_block_rows: 512,
        }
    }
}

/// What opening a store found and repaired.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryReport {
    /// Intact WAL rows carried into the tail.
    pub wal_rows_recovered: usize,
    /// WAL bytes abandoned past the first bad frame.
    pub wal_bytes_dropped: u64,
    /// WAL rows skipped because an earlier copy is already durable: a
    /// sealed segment covers their ordinal (crash landed between seal
    /// and WAL rewrite) or an earlier WAL frame already replayed it (a
    /// replication follower's re-shipped frame).
    pub wal_rows_already_sealed: usize,
    /// Segments renamed aside because a checksum failed.
    pub quarantined_segments: Vec<String>,
    /// Rows those quarantined segments claimed to hold.
    pub quarantined_rows: usize,
    /// Pre-compaction segments deleted because a merged successor covers
    /// their rows (crash landed mid-compaction).
    pub stale_segments_removed: usize,
}

impl RecoveryReport {
    /// True when the store opened without dropping, skipping or
    /// quarantining anything.
    pub fn is_clean(&self) -> bool {
        self.wal_bytes_dropped == 0
            && self.wal_rows_already_sealed == 0
            && self.quarantined_segments.is_empty()
            && self.stale_segments_removed == 0
    }
}

/// Point-in-time store shape, for `aiio store-stats` and `/metrics`.
#[derive(Debug, Clone, Serialize)]
pub struct StoreStats {
    /// Sealed segments currently live.
    pub segments: usize,
    /// Rows in sealed segments.
    pub sealed_rows: usize,
    /// Rows still in the WAL tail.
    pub wal_rows: usize,
    /// Total rows a scan yields.
    pub total_rows: usize,
    /// Bytes across sealed segment files.
    pub sealed_bytes: u64,
    /// Bytes in the WAL file.
    pub wal_bytes: u64,
}

/// Threshold policy deciding when a background maintenance pass should
/// seal-and-compact a store: once sealed segments pile up past
/// `max_segments` or the WAL tail grows past `max_wal_bytes`. The
/// policy is pure (a predicate over [`StoreStats`]) so the control
/// plane can evaluate it without touching the store, and so the same
/// thresholds mean the same thing for a single store and for each
/// member of a sharded fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionTrigger {
    /// Fire once live sealed segments exceed this count (0 disables
    /// the segment trigger).
    pub max_segments: u64,
    /// Fire once the WAL file exceeds this many bytes (0 disables the
    /// WAL trigger).
    pub max_wal_bytes: u64,
}

impl CompactionTrigger {
    /// True when at least one threshold is active.
    pub fn is_enabled(&self) -> bool {
        self.max_segments > 0 || self.max_wal_bytes > 0
    }

    /// True when `stats` crosses an active threshold.
    pub fn due(&self, stats: &StoreStats) -> bool {
        (self.max_segments > 0 && stats.segments as u64 > self.max_segments)
            || (self.max_wal_bytes > 0 && stats.wal_bytes > self.max_wal_bytes)
    }
}

/// Outcome of [`Store::compact`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct CompactReport {
    /// Merge groups rewritten.
    pub groups_merged: usize,
    /// Segment count before.
    pub segments_before: usize,
    /// Segment count after.
    pub segments_after: usize,
    /// Rows rewritten into merged segments.
    pub rows_moved: usize,
}

/// Why a requested counter range is unanswerable. `matches` and
/// `overlaps` on a NaN or inverted range both come back `false` for every
/// row, so without up-front validation a bad query silently returns an
/// empty result instead of an error — `/query` turns this into a 422.
#[derive(Debug, Clone, PartialEq)]
pub enum RangeError {
    /// A bound is NaN.
    NotANumber,
    /// `min` is greater than `max`, so no value can satisfy both bounds.
    Inverted {
        /// The requested lower bound.
        min: f64,
        /// The requested upper bound.
        max: f64,
    },
}

impl std::fmt::Display for RangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeError::NotANumber => write!(f, "range bound is NaN"),
            RangeError::Inverted { min, max } => {
                write!(f, "inverted range: min {min} > max {max}")
            }
        }
    }
}

impl std::error::Error for RangeError {}

/// Inclusive value range over one Table-4 counter, used both to filter
/// rows and to skip whole segments whose zone map cannot intersect it.
#[derive(Debug, Clone, Copy)]
pub struct CounterRange {
    /// Counter the predicate reads.
    pub counter: CounterId,
    /// Smallest matching value.
    pub min: f64,
    /// Largest matching value.
    pub max: f64,
}

impl CounterRange {
    /// Validating constructor: rejects NaN and inverted (`min > max`)
    /// bounds, which would otherwise match nothing without any error.
    /// Infinite bounds are fine (that is how half-open ranges are spelt).
    pub fn new(counter: CounterId, min: f64, max: f64) -> std::result::Result<Self, RangeError> {
        if min.is_nan() || max.is_nan() {
            return Err(RangeError::NotANumber);
        }
        if min > max {
            return Err(RangeError::Inverted { min, max });
        }
        Ok(CounterRange { counter, min, max })
    }
    /// Rows where `counter` is exactly zero (the "jobs with
    /// POSIX_SEQ_READS == 0" shape of query, without a float `==`).
    pub fn exactly_zero(counter: CounterId) -> Self {
        CounterRange {
            counter,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Rows where `counter` is at least `min`.
    pub fn at_least(counter: CounterId, min: f64) -> Self {
        CounterRange {
            counter,
            min,
            max: f64::INFINITY,
        }
    }

    /// Does this row match?
    pub fn matches(&self, job: &JobLog) -> bool {
        let v = job.counters.get(self.counter);
        v >= self.min && v <= self.max
    }

    /// Can a segment with this zone entry contain a match?
    pub fn overlaps(&self, zone: &ZoneEntry) -> bool {
        zone.max >= self.min && zone.min <= self.max
    }
}

/// Tally of one zone-mapped scan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ScanSummary {
    /// Segments whose rows were decoded.
    pub segments_scanned: usize,
    /// Segments skipped entirely via the zone map.
    pub segments_skipped: usize,
    /// Rows decoded and tested.
    pub rows_scanned: usize,
    /// Rows that matched the predicate.
    pub rows_matched: usize,
}

/// Check every row of a batch before any of it is written: each must
/// pass [`JobLog::validate`] and fit one WAL frame.
pub fn validate_batch(jobs: &[JobLog]) -> Result<()> {
    jobs.iter()
        .try_for_each(|job| job.validate().and_then(|()| wal::check_fits(job)))
        .map_err(StoreError::Invalid)
}

/// An open job-log store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    config: StoreConfig,
    segments: Vec<SegmentMeta>,
    wal: FrameWriter,
    tail: Vec<JobLog>,
    /// Global ordinal one past the last sealed row; the WAL tail covers
    /// `[sealed_watermark, sealed_watermark + tail.len())`.
    sealed_watermark: u64,
    next_segment_id: u64,
    recovery: RecoveryReport,
    /// Decoded-segment cache every read path goes through; `None` reads
    /// straight from disk (`AIIO_CACHE_BYTES=0`, or a test opting out).
    cache: Option<Arc<SegmentCache>>,
}

impl Store {
    /// Open (or create) the store at `root` with default configuration,
    /// running recovery.
    pub fn open(root: impl AsRef<Path>) -> Result<Store> {
        Self::open_with(root, StoreConfig::default())
    }

    /// Open (or create) with explicit configuration.
    pub fn open_with(root: impl AsRef<Path>, config: StoreConfig) -> Result<Store> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let cache = SegmentCache::shared();
        let mut report = RecoveryReport::default();

        // Discover sealed segments. A leftover staging file is a seal that
        // never committed; the rows it held are still in the WAL.
        let staging = root.join(segment::STAGING_NAME);
        if staging.exists() {
            let _ = std::fs::remove_file(&staging);
        }
        let mut seg_paths: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&root)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(id) = name.to_str().and_then(segment::parse_segment_id) {
                seg_paths.push((id, entry.path()));
            }
        }
        seg_paths.sort_by_key(|(id, _)| *id);
        let mut next_segment_id = seg_paths.last().map_or(1, |(id, _)| id + 1);

        let mut metas: Vec<SegmentMeta> = Vec::new();
        for (_, path) in &seg_paths {
            // Every sealed segment is fully checksum-verified before it is
            // served; a corrupt one is quarantined instead.
            let verified =
                segment::load_meta(path).and_then(|meta| segment::read_jobs(path).map(|_| meta));
            match verified {
                Ok(meta) => metas.push(meta),
                Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                Err(_) => {
                    // Checksum or format damage: move the file aside so the
                    // intact prefix of the store keeps serving.
                    let rows = segment::load_meta(path).map(|m| m.rows).unwrap_or(0);
                    report.quarantined_rows += rows;
                    let q = segment::quarantine(path)?;
                    report.quarantined_segments.push(q.display().to_string());
                    if let Some(c) = &cache {
                        c.invalidate(path);
                    }
                }
            }
        }

        // Drop pre-compaction segments fully covered by a merged successor
        // (identified by row-ordinal overlap), then fix the watermark.
        let mut kept: Vec<SegmentMeta> = Vec::new();
        let mut watermark = 0u64;
        for meta in metas {
            if meta.end_ordinal() <= watermark {
                std::fs::remove_file(&meta.path)?;
                report.stale_segments_removed += 1;
                if let Some(c) = &cache {
                    c.invalidate(&meta.path);
                }
                continue;
            }
            if meta.base_ordinal < watermark {
                // Partial overlap cannot be produced by this writer; treat
                // as damage rather than serve duplicated rows.
                report.quarantined_rows += meta.rows;
                let q = segment::quarantine(&meta.path)?;
                report.quarantined_segments.push(q.display().to_string());
                if let Some(c) = &cache {
                    c.invalidate(&meta.path);
                }
                continue;
            }
            watermark = meta.end_ordinal();
            kept.push(meta);
        }
        let sealed_watermark = watermark;

        // Replay the WAL: keep intact rows past the sealed watermark,
        // tracking the covered ordinal as rows are taken so replay is
        // idempotent *within* the WAL too. A replication follower's WAL
        // can legitimately carry re-shipped (duplicated) frames after a
        // crashed sync pass; their rows are byte-identical copies of
        // ordinals already replayed and must not enter the tail twice.
        let replay = wal::recover(&root.join(WAL_NAME))?;
        report.wal_bytes_dropped = replay.dropped_bytes;
        let mut tail = Vec::new();
        let mut covered = sealed_watermark;
        for (ordinal, job) in replay.rows {
            if ordinal < covered {
                report.wal_rows_already_sealed += 1;
            } else {
                covered = ordinal + 1;
                tail.push(job);
            }
        }
        report.wal_rows_recovered = tail.len();

        // Normalize the WAL to exactly the live tail (atomic rewrite);
        // this also physically truncates any corrupt bytes.
        let wal = wal::rewrite(&root, sealed_watermark, &tail)?;

        if let Some(last) = kept.last() {
            next_segment_id = next_segment_id.max(last.id + 1);
        }
        Ok(Store {
            root,
            config,
            segments: kept,
            wal,
            tail,
            sealed_watermark,
            next_segment_id,
            recovery: report,
            cache,
        })
    }

    /// What recovery found when this handle opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Store directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Configuration this handle was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Sealed segment metadata, in scan order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// The segment cache this handle reads through, if any.
    pub fn cache(&self) -> Option<&Arc<SegmentCache>> {
        self.cache.as_ref()
    }

    /// Replace the cache (a private one for a test, or `None` to read
    /// straight from disk). Results are byte-identical either way.
    pub fn set_cache(&mut self, cache: Option<Arc<SegmentCache>>) {
        self.cache = cache;
    }

    /// Take an owned [`StoreReadView`] of the current readable state.
    pub fn read_view(&self) -> StoreReadView<'static> {
        self.live().into_owned()
    }

    fn live(&self) -> StoreReadView<'_> {
        StoreReadView::new([self], None)
    }

    /// Rows still in the WAL tail (everything past the last sealed
    /// segment), in insertion order.
    pub fn tail_rows(&self) -> &[JobLog] {
        &self.tail
    }

    /// Total rows a scan yields (sealed + tail).
    pub fn len(&self) -> usize {
        self.sealed_rows() + self.tail.len()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn sealed_rows(&self) -> usize {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// Current shape of the store.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            segments: self.segments.len(),
            sealed_rows: self.sealed_rows(),
            wal_rows: self.tail.len(),
            total_rows: self.len(),
            sealed_bytes: self.segments.iter().map(|s| s.bytes).sum(),
            wal_bytes: self.wal.bytes(),
        }
    }

    /// Append one job.
    pub fn append(&mut self, job: &JobLog) -> Result<()> {
        self.append_batch(std::slice::from_ref(job))
    }

    /// Append a batch of jobs: WAL first (one CRC frame per
    /// `wal_block_rows` chunk, split further only at the frame caps), then
    /// seal full segments as the tail fills. Every row is checked with
    /// [`validate_batch`] first; one bad or oversized row rejects the whole
    /// batch with [`StoreError::Invalid`] and writes nothing, so a
    /// malformed row can never poison the WAL.
    pub fn append_batch(&mut self, jobs: &[JobLog]) -> Result<()> {
        validate_batch(jobs)?;
        for chunk in jobs.chunks(self.config.wal_block_rows.max(1)) {
            let base = self.sealed_watermark + self.tail.len() as u64;
            self.wal.append(&wal::encode_block(base, chunk))?;
            self.tail.extend_from_slice(chunk);
        }
        while self.tail.len() >= self.config.rows_per_segment {
            self.seal_rows(self.config.rows_per_segment)?;
        }
        Ok(())
    }

    /// Seal the entire tail (including a final partial segment) so every
    /// row lives in checksummed columnar form. Returns segments created.
    pub fn seal(&mut self) -> Result<usize> {
        let mut created = 0;
        while !self.tail.is_empty() {
            let n = self.tail.len().min(self.config.rows_per_segment);
            self.seal_rows(n)?;
            created += 1;
        }
        Ok(created)
    }

    fn seal_rows(&mut self, n: usize) -> Result<()> {
        let meta = segment::write_segment(
            &self.root,
            self.next_segment_id,
            self.sealed_watermark,
            &self.tail[..n],
        )?;
        self.next_segment_id += 1;
        self.sealed_watermark = meta.end_ordinal();
        self.segments.push(meta);
        self.tail.drain(..n);
        // Shrink the WAL to the unsealed remainder. A crash before this
        // rename leaves sealed rows duplicated in the WAL; the ordinal
        // watermark filters them out on the next open.
        self.wal = wal::rewrite(&self.root, self.sealed_watermark, &self.tail)?;
        Ok(())
    }

    /// Flush WAL bytes to the device.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Merge runs of adjacent undersized segments into full ones. Order is
    /// preserved (a merged segment inherits the first member's id and base
    /// ordinal); a crash mid-compaction is healed on the next open via the
    /// ordinal watermark.
    pub fn compact(&mut self) -> Result<CompactReport> {
        let mut report = CompactReport {
            segments_before: self.segments.len(),
            ..CompactReport::default()
        };
        let limit = self.config.rows_per_segment;
        let mut rebuilt: Vec<SegmentMeta> = Vec::with_capacity(self.segments.len());
        let mut group: Vec<SegmentMeta> = Vec::new();
        let mut group_rows = 0usize;

        let old = std::mem::take(&mut self.segments);
        let flush_group = |group: &mut Vec<SegmentMeta>,
                           group_rows: &mut usize,
                           rebuilt: &mut Vec<SegmentMeta>,
                           report: &mut CompactReport|
         -> Result<()> {
            if group.len() >= 2 {
                let mut jobs = Vec::with_capacity(*group_rows);
                for m in group.iter() {
                    jobs.extend(segment::read_jobs(&m.path)?);
                }
                let first = &group[0];
                let merged =
                    segment::write_segment(&self.root, first.id, first.base_ordinal, &jobs)?;
                for m in group.iter().skip(1) {
                    std::fs::remove_file(&m.path)?;
                }
                // The first member's path now holds the merged bytes and
                // the rest are gone; the fingerprint check already makes
                // the old entries unservable — dropping them here keeps
                // the cache's byte budget from carrying dead weight.
                if let Some(c) = &self.cache {
                    for m in group.iter() {
                        c.invalidate(&m.path);
                    }
                }
                report.groups_merged += 1;
                report.rows_moved += jobs.len();
                rebuilt.push(merged);
            } else {
                rebuilt.append(group);
            }
            group.clear();
            *group_rows = 0;
            Ok(())
        };

        for meta in old {
            let contiguous = group
                .last()
                .is_some_and(|prev: &SegmentMeta| prev.end_ordinal() == meta.base_ordinal);
            let fits = group_rows + meta.rows <= limit;
            let small = meta.rows < limit;
            if !group.is_empty() && (!contiguous || !fits || !small) {
                flush_group(&mut group, &mut group_rows, &mut rebuilt, &mut report)?;
            }
            if small {
                group_rows += meta.rows;
                group.push(meta);
            } else {
                rebuilt.push(meta);
            }
        }
        flush_group(&mut group, &mut group_rows, &mut rebuilt, &mut report)?;

        self.segments = rebuilt;
        report.segments_after = self.segments.len();
        Ok(report)
    }

    /// Stream every row in insertion order. Peak memory is one decoded
    /// segment regardless of store size.
    pub fn scan(&self, sink: &mut dyn FnMut(&JobLog)) -> Result<()> {
        self.live().scan(sink)
    }

    /// Stream rows matching `range`, skipping segments whose zone map
    /// proves they hold no match. The WAL tail has no zone map and is
    /// always filtered row by row.
    pub fn scan_filtered(
        &self,
        range: &CounterRange,
        sink: &mut dyn FnMut(&JobLog),
    ) -> Result<ScanSummary> {
        self.live().scan_filtered(range, sink)
    }

    /// Materialise the whole store as an in-memory [`LogDatabase`]
    /// (convenience for small stores and tests; scans should stream).
    pub fn read_all(&self) -> Result<LogDatabase> {
        let mut db = LogDatabase::new();
        self.scan(&mut |job| db.push(job.clone()))?;
        Ok(db)
    }
}

impl StoreBackend for Store {
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
    use aiio_darshan::FeaturePipeline;

    fn job(i: u64) -> JobLog {
        let mut j = JobLog::new(i, format!("app-{}", i % 4), 2019 + (i % 4) as u16);
        j.counters.set(CounterId::Nprocs, (i % 64 + 1) as f64);
        j.counters.set(
            CounterId::PosixSeqReads,
            if i.is_multiple_of(2) { 0.0 } else { i as f64 },
        );
        j.counters.set(CounterId::PosixBytesWritten, i as f64 * 1e6);
        j.time.slowest_rank_seconds = 0.5 + (i % 7) as f64;
        j
    }

    fn jobs(n: u64) -> Vec<JobLog> {
        (0..n).map(job).collect()
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aiio_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            rows_per_segment: 16,
            wal_block_rows: 5,
        }
    }

    #[test]
    fn compaction_trigger_fires_on_either_threshold() {
        let stats = StoreStats {
            segments: 5,
            sealed_rows: 80,
            wal_rows: 3,
            total_rows: 83,
            sealed_bytes: 4096,
            wal_bytes: 512,
        };
        let off = CompactionTrigger {
            max_segments: 0,
            max_wal_bytes: 0,
        };
        assert!(!off.is_enabled());
        assert!(!off.due(&stats));
        let by_segments = CompactionTrigger {
            max_segments: 4,
            max_wal_bytes: 0,
        };
        assert!(by_segments.is_enabled());
        assert!(by_segments.due(&stats));
        let by_wal = CompactionTrigger {
            max_segments: 0,
            max_wal_bytes: 256,
        };
        assert!(by_wal.due(&stats));
        // Thresholds are strict: exactly-at does not fire.
        let at_edge = CompactionTrigger {
            max_segments: 5,
            max_wal_bytes: 512,
        };
        assert!(!at_edge.due(&stats));
    }

    #[test]
    fn ingest_seal_reopen_scan_roundtrips() {
        let root = tmp("roundtrip");
        let all = jobs(50);
        {
            let mut store = Store::open_with(&root, small_config()).unwrap();
            store.append_batch(&all).unwrap();
            // 50 rows, 16/segment → 3 sealed + 2 in the tail.
            assert_eq!(store.segments().len(), 3);
            assert_eq!(store.stats().wal_rows, 2);
            assert_eq!(store.len(), 50);
        }
        let store = Store::open_with(&root, small_config()).unwrap();
        assert!(
            store.recovery_report().is_clean() || store.recovery_report().wal_rows_recovered == 2
        );
        assert_eq!(store.len(), 50);
        let mut seen = Vec::new();
        store.scan(&mut |j| seen.push(j.clone())).unwrap();
        assert_eq!(seen, all, "scan order and content must match ingest");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn explicit_seal_empties_the_wal() {
        let root = tmp("seal");
        let mut store = Store::open_with(&root, small_config()).unwrap();
        store.append_batch(&jobs(20)).unwrap();
        let created = store.seal().unwrap();
        assert_eq!(created, 1, "4 tail rows become one partial segment");
        let stats = store.stats();
        assert_eq!(stats.wal_rows, 0);
        assert_eq!(stats.wal_bytes, 0);
        assert_eq!(stats.sealed_rows, 20);
        assert_eq!(store.seal().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn compact_merges_partial_segments_preserving_order() {
        let root = tmp("compact");
        let all = jobs(40);
        let mut store = Store::open_with(&root, small_config()).unwrap();
        // Seal after every 5 rows → 8 tiny segments.
        for chunk in all.chunks(5) {
            store.append_batch(chunk).unwrap();
            store.seal().unwrap();
        }
        assert_eq!(store.segments().len(), 8);
        let report = store.compact().unwrap();
        assert_eq!(report.segments_before, 8);
        assert!(report.segments_after < 8, "{report:?}");
        assert!(report.groups_merged >= 1);
        let mut seen = Vec::new();
        store.scan(&mut |j| seen.push(j.clone())).unwrap();
        assert_eq!(seen, all);
        // Reopen: merged layout must survive recovery untouched.
        drop(store);
        let store = Store::open_with(&root, small_config()).unwrap();
        assert_eq!(store.recovery_report().stale_segments_removed, 0);
        assert_eq!(store.read_all().unwrap().jobs(), &all[..]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn zone_maps_skip_non_matching_segments() {
        let root = tmp("zones");
        let mut store = Store::open_with(&root, small_config()).unwrap();
        // Segment 1: all PosixSeqReads zero; segment 2: all nonzero.
        let mut zeros = jobs(16);
        for j in &mut zeros {
            j.counters.set(CounterId::PosixSeqReads, 0.0);
        }
        let mut nonzeros = jobs(16);
        for (k, j) in nonzeros.iter_mut().enumerate() {
            j.counters.set(CounterId::PosixSeqReads, (k + 1) as f64);
        }
        store.append_batch(&zeros).unwrap();
        store.append_batch(&nonzeros).unwrap();

        let mut hits = 0usize;
        let summary = store
            .scan_filtered(
                &CounterRange::exactly_zero(CounterId::PosixSeqReads),
                &mut |_| hits += 1,
            )
            .unwrap();
        assert_eq!(summary.segments_skipped, 1, "{summary:?}");
        assert_eq!(summary.segments_scanned, 1);
        assert_eq!(summary.rows_matched, 16);
        assert_eq!(hits, 16);

        let summary = store
            .scan_filtered(
                &CounterRange::at_least(CounterId::PosixSeqReads, 1.0),
                &mut |_| {},
            )
            .unwrap();
        assert_eq!(summary.segments_skipped, 1);
        assert_eq!(summary.rows_matched, 16);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn store_backend_feeds_identical_datasets() {
        let root = tmp("backend");
        let all = jobs(45);
        let mut store = Store::open_with(&root, small_config()).unwrap();
        store.append_batch(&all).unwrap();
        let db: LogDatabase = all.iter().cloned().collect();
        let p = FeaturePipeline::paper();
        let from_store = p.dataset_of_backend(&store).unwrap();
        assert_eq!(from_store, p.dataset_of(&db));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_between_seal_and_wal_rewrite_does_not_duplicate() {
        let root = tmp("dupewal");
        let all = jobs(16);
        let mut store = Store::open_with(&root, small_config()).unwrap();
        store.append_batch(&all).unwrap(); // exactly one sealed segment, empty tail
        assert_eq!(store.stats().wal_rows, 0);
        drop(store);
        // Simulate the crash window: resurrect a WAL that still holds the
        // sealed rows (ordinals 0..16).
        let mut w = FrameWriter::open_append(&root.join(WAL_NAME)).unwrap();
        w.append(&wal::encode_block(0, &all)).unwrap();
        drop(w);
        let store = Store::open_with(&root, small_config()).unwrap();
        assert_eq!(store.len(), 16, "sealed rows must not replay from the WAL");
        assert_eq!(store.recovery_report().wal_rows_already_sealed, 16);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn leftover_staging_file_is_discarded() {
        let root = tmp("staging");
        let mut store = Store::open_with(&root, small_config()).unwrap();
        store.append_batch(&jobs(3)).unwrap();
        drop(store);
        std::fs::write(root.join(segment::STAGING_NAME), b"half a segment").unwrap();
        let store = Store::open_with(&root, small_config()).unwrap();
        assert_eq!(store.len(), 3);
        assert!(!root.join(segment::STAGING_NAME).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_segment_is_quarantined_on_open() {
        let root = tmp("quarantine");
        let mut store = Store::open_with(&root, small_config()).unwrap();
        store.append_batch(&jobs(32)).unwrap(); // two sealed segments
        let second = store.segments()[1].path.clone();
        drop(store);
        let mut bytes = std::fs::read(&second).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&second, &bytes).unwrap();
        let store = Store::open_with(&root, small_config()).unwrap();
        let report = store.recovery_report();
        assert_eq!(report.quarantined_segments.len(), 1);
        assert_eq!(report.quarantined_rows, 16);
        assert_eq!(store.len(), 16, "intact prefix keeps serving");
        assert!(!second.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_track_shape() {
        let root = tmp("stats");
        let mut store = Store::open_with(&root, small_config()).unwrap();
        store.append_batch(&jobs(21)).unwrap();
        let s = store.stats();
        assert_eq!(s.segments, 1);
        assert_eq!(s.sealed_rows, 16);
        assert_eq!(s.wal_rows, 5);
        assert_eq!(s.total_rows, 21);
        assert!(s.sealed_bytes > 0);
        assert!(s.wal_bytes > 0);
        assert!(!store.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }
}
