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
//! half-written segment visible), then ships the mutable tail through
//! [`pull_log`], the follower step every framed log shares — each shard
//! WAL here, and the fleet's ordinal journal in `aiio-replnet`:
//!
//! * **The resume point is derived, not persisted.** Frames land in the
//!   follower's copy verbatim, so the CRC-intact byte length of that copy
//!   is exactly the source offset already covered, and its last frame's
//!   end ordinal is the next row it expects. A step killed at any byte
//!   leaves a state the next step resumes from, re-shipping at most the
//!   one torn frame it truncates.
//! * **The source decides continuation.** The follower sends both
//!   numbers; the source continues only from a frame boundary at that
//!   offset whose frame ends at that ordinal, and otherwise resets
//!   ([`aiio_store::frames::tail_log`]). A byte offset alone is not
//!   enough: a leader log rewritten by a seal can put a frame boundary
//!   exactly at the follower's old length.
//! * **Nothing is published unverified.** Received bytes are CRC-walked
//!   and only their intact prefix lands.
//! * **A reset publishes only a complete stream.** A torn reset body can
//!   cover fewer rows than the copy it replaces, and rows a fleet journal
//!   already admits must never vanish; an incomplete stream keeps the
//!   local copy and reports the whole new log as lag. After a WAL reset
//!   the sealed segments the rewrite folded rows into were mirrored
//!   earlier in the same pass, and the store's ordinal-watermark dedup
//!   makes any overlap harmless.
//!
//! Because the follower is a valid store at every step, failover is just
//! "open the other directory": no replay protocol, no special reader.

use std::io;
use std::path::Path;
use std::time::Instant;

use aiio_store::frames::{self, Frame, FrameWriter, Tail};
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

/// Where a replication pass reads one leader shard's bytes from.
pub trait ShardSource {
    /// Sealed segments the leader holds, sorted by name.
    fn list_segments(&self) -> io::Result<Vec<SegmentEntry>>;
    /// The verified bytes of one listed segment.
    fn fetch_segment(&self, name: &str) -> io::Result<Vec<u8>>;
    /// The leader WAL tail for a follower copy `from` bytes long whose
    /// next expected row ordinal is `next` (see
    /// [`aiio_store::frames::tail_log`]); under `probe` only the counts,
    /// with an empty body.
    fn fetch_wal(&self, from: u64, next: u64, probe: bool) -> io::Result<Tail>;
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

    fn fetch_wal(&self, from: u64, next: u64, probe: bool) -> io::Result<Tail> {
        let path = self.0.join(wal::WAL_NAME);
        frames::tail_log(&path, wal::WAL_MAGIC, from, next, probe).map_err(StoreError::into_io)
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
/// `src`: sealed segments first, then the WAL tail through [`pull_log`].
/// Idempotent, including across a crash at any point inside a pass; an
/// `Err` leaves a valid prefix the next pass resumes from. Under `probe`
/// nothing is written and the report carries the lag the source
/// declares.
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
    let step = pull_log(
        &dir.join(wal::WAL_NAME),
        wal::WAL_MAGIC,
        probe,
        |from, next| src.fetch_wal(from, next, probe),
    )?;
    report.frames_shipped = step.frames;
    report.rows_shipped = step.rows;
    report.wal_reset = step.reset;
    report.lag_frames = step.lag_frames;
    report.rtt_ms = step.rtt_ms;
    Ok(report)
}

/// What one [`pull_log`] step did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogPull {
    /// Complete frames published.
    pub frames: u64,
    /// Rows covered by those frames (under a probe: rows the source
    /// declares).
    pub rows: u64,
    /// Bytes published.
    pub bytes: u64,
    /// True when the source reset the follower's copy.
    pub reset: bool,
    /// Frames the source declared minus frames published.
    pub lag_frames: u64,
    /// Round-trip time of the fetch, milliseconds.
    pub rtt_ms: u64,
}

/// The follower step for one framed log: bring the copy at `path` (frames
/// under `magic`) up to date with the tail `fetch(from, next)` returns.
/// In order: derive `from` and `next` from the copy's intact prefix,
/// fetch, CRC-walk the received bytes, then either replace the copy
/// (reset, and only from a complete stream) or truncate it to `from` and
/// append the verified frames. Under `probe` nothing is written and the
/// result carries the lag the source declares.
pub fn pull_log(
    path: &Path,
    magic: &[u8; 4],
    probe: bool,
    fetch: impl FnOnce(u64, u64) -> io::Result<Tail>,
) -> io::Result<LogPull> {
    let local = frames::read_log(path).map_err(StoreError::into_io)?;
    let (local_frames, from) = frames::walk(&local, magic);
    let next = local_frames.last().map_or(0, Frame::next_ordinal);
    let t0 = Instant::now();
    let tail = fetch(from as u64, next)?;
    let mut step = LogPull {
        reset: tail.reset,
        rtt_ms: t0.elapsed().as_millis() as u64,
        ..LogPull::default()
    };
    if probe {
        step.lag_frames = tail.frames;
        step.rows = tail.rows;
        return Ok(step);
    }
    let (got, intact) = frames::walk(&tail.body, magic);
    if tail.reset {
        if got.len() as u64 != tail.frames || intact != tail.body.len() {
            step.lag_frames = tail.frames.max(1);
            return Ok(step);
        }
        publish_bytes(path, &tail.body)?;
    } else if intact > 0 {
        // `from` is an intact-frame boundary of our copy; anything past
        // it locally is a torn tail from an earlier killed step.
        truncate_to(path, from as u64)?;
        let mut w = FrameWriter::open_append(path).map_err(StoreError::into_io)?;
        w.append(&tail.body[..intact])
            .and_then(|()| w.sync())
            .map_err(StoreError::into_io)?;
    }
    step.frames = got.len() as u64;
    step.rows = got.iter().map(|f| u64::from(f.n_rows)).sum();
    step.bytes = intact as u64;
    step.lag_frames = tail.frames.saturating_sub(step.frames);
    Ok(step)
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
/// the torn frame a killed step may have left past a copy's intact
/// prefix, so appends always extend a clean boundary.
fn truncate_to(path: &Path, len: u64) -> io::Result<()> {
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
fn publish_bytes(dst: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = dst
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other(format!("bad publish path {}", dst.display())))?;
    let staging = dst.with_file_name(format!("{name}{COPY_STAGING_SUFFIX}"));
    aiio_store::durable_replace(&staging, dst, bytes)
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
    let bytes = frames::read_log(&dir.join(wal::WAL_NAME))?;
    let (found, _) = frames::walk(&bytes, wal::WAL_MAGIC);
    Ok(found
        .iter()
        .map(Frame::next_ordinal)
        .fold(watermark, u64::max))
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
        }
    }

    /// Segments never seal, so the leader WAL only grows — the shape
    /// the crash-idempotency tests need (a seal rewrites the leader WAL
    /// and legitimately resets the follower, masking what they probe).
    fn no_seal_config() -> StoreConfig {
        StoreConfig {
            rows_per_segment: 1024,
            wal_block_rows: 2,
        }
    }

    /// The leader WAL tail a pass would fetch for the follower copy at
    /// `follower_wal`.
    fn leader_tail(leader: &Path, follower_wal: &Path) -> Tail {
        let local = frames::read_log(follower_wal).unwrap();
        let (held, from) = frames::walk(&local, wal::WAL_MAGIC);
        let next = held.last().map_or(0, Frame::next_ordinal);
        DirSource(leader)
            .fetch_wal(from as u64, next, false)
            .unwrap()
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
    fn leader_wal_rewritten_to_the_followers_exact_length_still_ships() {
        // A seal rewrites the leader WAL; refilled with rows of the same
        // encoded size, it ends exactly at the follower's old length. The
        // offset alone looks current — only the ordinal shows the copy
        // is a previous WAL generation.
        let root = tmpdir("exactlen");
        let leader = root.join("leader");
        let follower = root.join("follower");
        let mut store = Store::open_with(&leader, no_seal_config()).unwrap();
        store
            .append_batch(&(0..2).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        pull(&leader, &follower);
        let wal_len = |dir: &Path| std::fs::metadata(dir.join(wal::WAL_NAME)).unwrap().len();
        let shipped = wal_len(&follower);

        store.seal().unwrap();
        store
            .append_batch(&(2..4).map(job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
        assert_eq!(
            wal_len(&leader),
            shipped,
            "the rewrite must land on the old length"
        );

        let r = pull(&leader, &follower);
        assert!(r.wal_reset);
        assert_eq!(rows_of(&follower), (0..4u64).collect::<Vec<_>>());
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
        let new = leader_tail(&leader, &follower_wal);
        assert!(new.frames > 0);
        FrameWriter::open_append(&follower_wal)
            .unwrap()
            .append(&new.body)
            .unwrap();

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
        let new = leader_tail(&leader, &follower_wal);
        let first = &new.body[..frames::walk(&new.body, wal::WAL_MAGIC).0[0].end];
        FrameWriter::open_append(&follower_wal)
            .unwrap()
            .append(&first[..first.len() / 2])
            .unwrap();

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
