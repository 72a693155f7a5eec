//! Per-shard replication: the one engine both local and network
//! replication run through.
//!
//! A follower directory is just another `aiio-store` layout, kept warm
//! by [`pull_shard`] from a leader it reaches through a [`ShardSource`].
//! [`DirSource`] reads a leader directory on the same host (the fleet's
//! own primary → follower replication); `aiio-replnet` implements the
//! same three calls over HTTP, and its `/repl/*` endpoints answer them
//! through [`DirSource`], so both paths copy the same bytes.
//!
//! One pass mirrors sealed segments first (fetch missing or resized,
//! drop stale — staging write + atomic rename, so a crash never leaves a
//! half-written segment visible), then ships the mutable tail as raw
//! CRC-framed WAL bytes. The resume offset is *derived*, not persisted:
//! frames land in the follower WAL verbatim, so the CRC-intact byte
//! length of the follower's own WAL is exactly the leader offset already
//! covered. A pass killed at any byte leaves a state the next pass
//! resumes from, re-shipping at most the one torn frame it truncates.
//! Nothing is published unverified: received WAL bytes are CRC-walked
//! and only their intact prefix lands.
//!
//! A leader WAL rewrite (seal, compaction, recovery truncation) replaces
//! the follower WAL with the whole new one. The source flags a rewrite
//! when the offset no longer names a frame boundary; the engine catches
//! the rest with an ordinal-join check, because a byte offset into a
//! stale WAL generation can land on a frame boundary of the new file by
//! coincidence, but the first shipped frame must continue the ordinals
//! the follower already holds. The sealed segments the rewrite folded
//! the rows into are mirrored earlier in the same pass, and the store's
//! ordinal-watermark dedup makes any overlap harmless.
//!
//! Because the follower is a valid store at every step, failover is just
//! "open the other directory": no replay protocol, no special reader.

use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use aiio_store::{segment, wal, Result as StoreResult, StoreError};
use serde::{Deserialize, Serialize};

/// Suffix of the staging file a replicated file is written through.
pub const COPY_STAGING_SUFFIX: &str = ".copytmp";

/// One sealed segment a leader holds (also the JSON row of the network
/// segment listing).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// Segment file name (validated shape, `seg-*`).
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
}

/// A leader WAL tail as a [`ShardSource`] returns it.
#[derive(Debug, Clone)]
pub struct WalChunk {
    /// True when the requested offset was not a frame boundary of the
    /// leader WAL and the tail restarted from zero.
    pub reset: bool,
    /// Intact frames in (or, for a probe, available for) the body.
    pub frames: u64,
    /// Rows covered by those frames.
    pub rows: u64,
    /// Leader offset at the end of the tail.
    pub offset: u64,
    /// The frames verbatim (empty for a probe). Bytes that crossed a
    /// network may be torn or corrupt; the engine CRC-walks them before
    /// publishing anything.
    pub body: Vec<u8>,
}

/// Where a replication pass reads one leader shard's bytes from.
pub trait ShardSource {
    /// Sealed segments the leader holds, sorted by name.
    fn list_segments(&self) -> io::Result<Vec<SegmentEntry>>;
    /// The verified bytes of one listed segment.
    fn fetch_segment(&self, name: &str) -> io::Result<Vec<u8>>;
    /// The leader WAL from byte offset `from`; under `probe` only the
    /// counts, with an empty body.
    fn fetch_wal(&self, from: u64, probe: bool) -> io::Result<WalChunk>;
}

/// A leader shard in a local directory.
#[derive(Debug, Clone, Copy)]
pub struct DirSource<'a>(pub &'a Path);

impl ShardSource for DirSource<'_> {
    fn list_segments(&self) -> io::Result<Vec<SegmentEntry>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(self.0) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if segment::parse_segment_id(&name).is_some() {
                let bytes = entry.metadata()?.len();
                out.push(SegmentEntry { name, bytes });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn fetch_segment(&self, name: &str) -> io::Result<Vec<u8>> {
        // The id parse doubles as path validation: a name with
        // separators or an unexpected shape never reaches the filesystem.
        if segment::parse_segment_id(name).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("not a segment name: {name:?}"),
            ));
        }
        std::fs::read(self.0.join(name))
    }

    fn fetch_wal(&self, from: u64, probe: bool) -> io::Result<WalChunk> {
        let tail =
            wal::tail_frames(&self.0.join(wal::WAL_NAME), from).map_err(StoreError::into_io)?;
        Ok(WalChunk {
            reset: tail.reset,
            frames: tail.frames.len() as u64,
            rows: tail.frames.iter().map(|f| u64::from(f.n_rows)).sum(),
            offset: tail.new_offset,
            body: if probe {
                Vec::new()
            } else {
                tail.frames.into_iter().flat_map(|f| f.bytes).collect()
            },
        })
    }
}

/// What one [`pull_shard`] pass did.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ShardPullReport {
    /// Shard id.
    pub shard: u64,
    /// Segments fetched and published.
    pub segments_copied: u64,
    /// Stale follower segments removed.
    pub segments_removed: u64,
    /// Complete WAL frames published.
    pub frames_shipped: u64,
    /// Rows covered by those frames.
    pub rows_shipped: u64,
    /// True when the leader rewrote its WAL and the follower copy
    /// restarted.
    pub wal_reset: bool,
    /// Frames the source declared minus frames published (0 after a
    /// clean pass; >0 after a torn stream).
    pub lag_frames: u64,
    /// Round-trip time of the WAL fetch, milliseconds.
    pub rtt_ms: u64,
}

/// Bring the follower store at `dir` up to date with the leader behind
/// `src`: sealed segments first, then the WAL tail from the offset the
/// follower WAL already covers. Idempotent, including across a crash at
/// any point inside a pass; an `Err` leaves a valid prefix the next pass
/// resumes from. Under `probe` nothing is written and the report carries
/// the lag the source declares.
pub fn pull_shard(
    dir: &Path,
    src: &dyn ShardSource,
    shard: usize,
    probe: bool,
) -> io::Result<ShardPullReport> {
    let mut report = ShardPullReport {
        shard: shard as u64,
        ..ShardPullReport::default()
    };
    if !probe {
        std::fs::create_dir_all(dir)?;
        let (copied, removed) = pull_segments(dir, src)?;
        report.segments_copied = copied;
        report.segments_removed = removed;
    }
    let wal_path = dir.join(wal::WAL_NAME);
    let local = match std::fs::read(&wal_path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let (local_frames, local_intact) = wal::scan_frames(&local);
    let from = local_intact as u64;
    // The ordinal the next shipped frame must start at for the tail to
    // really continue our copy (None = empty copy, anything joins).
    let expected_next = local_frames
        .last()
        .map(|fr| fr.base_ordinal + u64::from(fr.n_rows));
    let t0 = Instant::now();
    let tail = src.fetch_wal(from, probe)?;
    report.rtt_ms = t0.elapsed().as_millis() as u64;
    report.wal_reset = tail.reset;
    if probe {
        report.lag_frames = tail.frames;
        report.rows_shipped = tail.rows;
        return Ok(report);
    }
    // CRC-walk the received bytes; only the intact prefix publishes. A
    // bit-flip or a torn stream shows up as lag, never as bad bytes.
    let (frames, intact) = wal::scan_frames(&tail.body);
    let joins = match (frames.first(), expected_next) {
        (Some(first), Some(exp)) => first.base_ordinal == exp,
        _ => true,
    };
    if tail.reset {
        apply_reset(&wal_path, &tail, &mut report)?;
    } else if !joins {
        // Our copy is from a stale WAL generation whose length happened
        // to parse as a boundary of the rewritten file. Fetch the whole
        // new WAL and treat it as the reset it really is.
        report.wal_reset = true;
        apply_reset(&wal_path, &src.fetch_wal(0, false)?, &mut report)?;
    } else {
        report.frames_shipped = frames.len() as u64;
        report.rows_shipped = frames.iter().map(|fr| u64::from(fr.n_rows)).sum();
        report.lag_frames = tail.frames.saturating_sub(report.frames_shipped);
        if intact > 0 {
            // Our derived offset is an intact-frame boundary; anything
            // past it locally is a torn tail from an earlier killed pass.
            truncate_to(&wal_path, from)?;
            append_bytes(&wal_path, &tail.body[..intact])?;
        }
    }
    Ok(report)
}

/// Replace the follower WAL with a rewritten leader's — but only from a
/// complete stream. A torn reset body can cover fewer rows than the copy
/// it replaces, and rows a fleet journal already admits must never
/// vanish; an incomplete stream keeps the local copy untouched and
/// reports the whole new WAL as lag for the next pass to ship.
fn apply_reset(wal_path: &Path, tail: &WalChunk, report: &mut ShardPullReport) -> io::Result<()> {
    let (frames, intact) = wal::scan_frames(&tail.body);
    if frames.len() as u64 == tail.frames && intact == tail.body.len() {
        report.frames_shipped = tail.frames;
        report.rows_shipped = frames.iter().map(|fr| u64::from(fr.n_rows)).sum();
        report.lag_frames = 0;
        publish_bytes(wal_path, &tail.body)?;
    } else {
        report.frames_shipped = 0;
        report.rows_shipped = 0;
        report.lag_frames = tail.frames.max(1);
    }
    Ok(())
}

/// Fetch the segments the follower is missing (or whose size disagrees),
/// publish each via staging + rename, then drop follower segments the
/// leader no longer lists. Returns (copied, removed).
fn pull_segments(dir: &Path, src: &dyn ShardSource) -> io::Result<(u64, u64)> {
    let remote = src.list_segments()?;
    let local = DirSource(dir).list_segments()?;
    let mut copied = 0u64;
    let mut removed = 0u64;
    for entry in remote.iter().filter(|e| !local.contains(e)) {
        let body = src.fetch_segment(&entry.name)?;
        publish_bytes(&dir.join(&entry.name), &body)?;
        copied += 1;
    }
    for entry in &local {
        if !remote.iter().any(|e| e.name == entry.name) {
            std::fs::remove_file(dir.join(&entry.name))?;
            removed += 1;
        }
    }
    if copied + removed > 0 {
        // Segment files under this directory were replaced or dropped;
        // release any cached decodes of the previous generation (the
        // fingerprint check already makes them unservable).
        if let Some(cache) = aiio_store::SegmentCache::shared() {
            cache.invalidate_dir(dir);
        }
    }
    Ok((copied, removed))
}

/// Trim `path` to `len` bytes (no-op for a missing or short file). Drops
/// the torn frame a killed pass may have left past a copy's intact
/// prefix, so appends always extend a clean boundary.
pub fn truncate_to(path: &Path, len: u64) -> io::Result<()> {
    match std::fs::OpenOptions::new().write(true).open(path) {
        Ok(f) => {
            if f.metadata()?.len() > len {
                f.set_len(len)?;
                f.sync_all()?;
            }
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Staging-write + atomic-rename publish: readers see the old file or
/// the whole new one, never a prefix.
pub fn publish_bytes(dst: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = dst
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other(format!("bad publish path {}", dst.display())))?;
    let staging = dst.with_file_name(format!("{name}{COPY_STAGING_SUFFIX}"));
    aiio_store::durable_replace(&staging, dst, bytes)
}

/// Append verified bytes and fsync.
pub fn append_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Cheap row count of a follower (or any store-shaped) directory without
/// opening it as a store: sealed-segment metadata plus WAL frames past the
/// sealed watermark. Used for failover decisions and replication-lag
/// gauges.
pub fn replica_rows(dir: &Path) -> StoreResult<u64> {
    let mut watermark = 0u64;
    for entry in DirSource(dir).list_segments()? {
        let meta = segment::load_meta(&dir.join(&entry.name))?;
        watermark = watermark.max(meta.end_ordinal());
    }
    let mut total = watermark;
    let tail = wal::tail_frames(&dir.join(wal::WAL_NAME), 0)?;
    for frame in &tail.frames {
        total = total.max(frame.base_ordinal + u64::from(frame.n_rows));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_darshan::JobLog;
    use aiio_store::{Store, StoreConfig};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("aiio_shard_replica_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn job(id: u64) -> JobLog {
        let mut j = JobLog::new(id, "app", 2020);
        j.counters
            .set(aiio_darshan::CounterId::PosixReads, id as f64 + 1.0);
        j
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            rows_per_segment: 4,
            wal_block_rows: 2,
            verify_on_open: true,
        }
    }

    /// Segments never seal, so the leader WAL only grows — the shape
    /// the crash-idempotency tests need (a seal rewrites the leader WAL
    /// and legitimately resets the follower, masking what they probe).
    fn no_seal_config() -> StoreConfig {
        StoreConfig {
            rows_per_segment: 1024,
            wal_block_rows: 2,
            verify_on_open: true,
        }
    }

    /// One local pass: `follower` pulls from the leader directory.
    fn pull(leader: &Path, follower: &Path) -> ShardPullReport {
        pull_shard(follower, &DirSource(leader), 0, false).unwrap()
    }

    fn rows_of(dir: &Path) -> Vec<u64> {
        let store = Store::open_with(dir, small_config()).unwrap();
        let mut ids = Vec::new();
        store.scan(&mut |j| ids.push(j.job_id)).unwrap();
        ids
    }

    #[test]
    fn follower_replays_exactly_the_leader_rows() {
        let root = tmpdir("replay");
        let leader = root.join("leader");
        let follower = root.join("follower");
        let mut store = Store::open_with(&leader, small_config()).unwrap();
        let jobs: Vec<JobLog> = (0..11).map(job).collect();
        store.append_batch(&jobs[..6]).unwrap();
        store.sync().unwrap();
        let r1 = pull(&leader, &follower);
        assert!(r1.segments_copied >= 1);
        assert_eq!(rows_of(&follower), (0..6u64).collect::<Vec<_>>());

        // Incremental ship: only the new frames move.
        store.append_batch(&jobs[6..]).unwrap();
        store.sync().unwrap();
        let r2 = pull(&leader, &follower);
        assert!(r2.rows_shipped > 0 && r2.rows_shipped <= 5);
        assert_eq!(rows_of(&follower), (0..11u64).collect::<Vec<_>>());
        assert_eq!(replica_rows(&follower).unwrap(), 11);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn leader_seal_resets_the_follower_wal_without_duplicating_rows() {
        let root = tmpdir("seal");
        let leader = root.join("leader");
        let follower = root.join("follower");
        let mut store = Store::open_with(&leader, small_config()).unwrap();
        store
            .append_batch(&(0..3).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        pull(&leader, &follower);

        // Seal rewrites the leader WAL; the next pass must notice.
        store.seal().unwrap();
        store
            .append_batch(&(3..5).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        let r = pull(&leader, &follower);
        assert!(r.wal_reset);
        assert_eq!(rows_of(&follower), (0..5u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sync_is_idempotent() {
        let root = tmpdir("idempotent");
        let leader = root.join("leader");
        let follower = root.join("follower");
        let mut store = Store::open_with(&leader, small_config()).unwrap();
        store
            .append_batch(&(0..7).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        pull(&leader, &follower);
        let again = pull(&leader, &follower);
        assert_eq!(again.segments_copied, 0);
        assert_eq!(again.frames_shipped, 0);
        assert!(!again.wal_reset);
        assert_eq!(rows_of(&follower), (0..7u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crashed_pass_that_appended_frames_is_not_reshipped() {
        // Regression: a pass that died after appending shipped frames to
        // the follower WAL (but before any bookkeeping) must not cause
        // the next pass to ship the same frames again.
        let root = tmpdir("crashmid");
        let leader = root.join("leader");
        let follower = root.join("follower");
        let mut store = Store::open_with(&leader, no_seal_config()).unwrap();
        store
            .append_batch(&(0..6).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        pull(&leader, &follower);

        // New leader frames appear...
        store
            .append_batch(&(6..9).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        // ...and a "crashed" pass appends them to the follower WAL by
        // hand, dying before it finishes.
        let follower_wal = follower.join(wal::WAL_NAME);
        let shipped = wal::intact_len(&follower_wal).unwrap();
        let new = wal::tail_frames(&leader.join(wal::WAL_NAME), shipped).unwrap();
        assert!(!new.frames.is_empty());
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&follower_wal)
                .unwrap();
            for frame in &new.frames {
                f.write_all(&frame.bytes).unwrap();
            }
        }

        // The retry derives the offset from the follower WAL and ships
        // nothing — the rows are already there, exactly once.
        let r = pull(&leader, &follower);
        assert_eq!(r.frames_shipped, 0, "frames must not ship twice");
        assert!(!r.wal_reset);
        assert_eq!(rows_of(&follower), (0..9u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_follower_tail_is_truncated_and_reshipped() {
        // A crash mid-append can leave half a frame on the follower; the
        // next pass must drop the torn bytes and ship the frame whole.
        let root = tmpdir("crashtorn");
        let leader = root.join("leader");
        let follower = root.join("follower");
        let mut store = Store::open_with(&leader, no_seal_config()).unwrap();
        store
            .append_batch(&(0..6).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        pull(&leader, &follower);

        store
            .append_batch(&(6..9).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        let follower_wal = follower.join(wal::WAL_NAME);
        let shipped = wal::intact_len(&follower_wal).unwrap();
        let new = wal::tail_frames(&leader.join(wal::WAL_NAME), shipped).unwrap();
        let first = &new.frames[0].bytes;
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&follower_wal)
                .unwrap();
            f.write_all(&first[..first.len() / 2]).unwrap();
        }

        let r = pull(&leader, &follower);
        assert!(r.frames_shipped > 0);
        // The pass converged: a further pass ships nothing. (Checked
        // before rows_of, which opens the follower as a store and
        // normalizes its WAL bytes.)
        let again = pull(&leader, &follower);
        assert_eq!(again.frames_shipped, 0);
        assert_eq!(rows_of(&follower), (0..9u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replica_rows_counts_without_opening_a_store() {
        let root = tmpdir("rows");
        let leader = root.join("leader");
        let follower = root.join("follower");
        assert_eq!(replica_rows(&follower).unwrap(), 0);
        let mut store = Store::open_with(&leader, small_config()).unwrap();
        store
            .append_batch(&(0..9).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        pull(&leader, &follower);
        assert_eq!(replica_rows(&follower).unwrap(), 9);
        let _ = std::fs::remove_dir_all(&root);
    }
}
