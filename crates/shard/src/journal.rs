//! The ordinal journal: the fleet's record of global insertion order.
//!
//! Hash partitioning scatters consecutive rows across shards, but the
//! training contract demands that a scan of the fleet replays rows in
//! exactly the order they were ingested — byte-identical to one big
//! store. Per-shard stores only know their local order, so the router
//! journals one byte per row (the owning shard id, in arrival order) at
//! the epoch root. A scatter-gather scan then *merges by journal*: walk
//! the journal, take the next row from whichever shard each byte names.
//!
//! Framing mirrors the store's WAL: self-describing CRC-checked frames,
//! recovery truncates at the first bad or out-of-sequence frame, shrink
//! only via tmp-file + atomic rename.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────┐
//! │ magic "ASJ1" · n_rows · base_ordinal · CRC32(payload)│
//! ├──────────────────────────────────────────────────────┤
//! │ payload: n_rows shard-id bytes                       │
//! └──────────────────────────────────────────────────────┘
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};

use aiio_store::{Result, StoreError};

use crate::hash::MAX_SHARDS;

/// Journal file name inside an epoch directory.
pub const JOURNAL_NAME: &str = "journal.bin";

/// Temporary file the journal is rewritten through.
pub const JOURNAL_TMP_NAME: &str = "journal.tmp";

/// Magic prefix of every journal frame (trailing `1` = format version).
pub const FRAME_MAGIC: &[u8; 4] = b"ASJ1";

/// Byte size of a frame header.
pub const FRAME_HEADER_LEN: usize = 20;

const MAX_FRAME_ROWS: u32 = 1 << 24;

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(
        bytes.get(off..off + 4)?.try_into().ok()?,
    ))
}

fn read_u64(bytes: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        bytes.get(off..off + 8)?.try_into().ok()?,
    ))
}

/// Serialize one frame of shard assignments whose first row has global
/// ordinal `base_ordinal`. At most [`MAX_FRAME_ROWS`] assignments fit in
/// one frame — `recover` rejects anything larger, so producing such a
/// frame would be silent data loss on the next open; callers with bigger
/// batches must chunk (as [`JournalWriter::append`] and [`rewrite`] do).
pub fn encode_frame(base_ordinal: u64, shard_ids: &[u8]) -> Vec<u8> {
    assert!(
        shard_ids.len() <= MAX_FRAME_ROWS as usize,
        "journal frame of {} rows exceeds MAX_FRAME_ROWS ({MAX_FRAME_ROWS}); chunk the batch",
        shard_ids.len()
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + shard_ids.len());
    out.extend_from_slice(FRAME_MAGIC);
    push_u32(&mut out, shard_ids.len() as u32);
    push_u64(&mut out, base_ordinal);
    push_u32(&mut out, aiio_store::crc32(shard_ids));
    out.extend_from_slice(shard_ids);
    out
}

/// What journal recovery found.
#[derive(Debug)]
pub struct JournalRecovery {
    /// One shard id per row, in global insertion order.
    pub assignments: Vec<u8>,
    /// Length of the intact, in-sequence prefix.
    pub valid_bytes: u64,
    /// Bytes abandoned past the first bad or out-of-sequence frame.
    pub dropped_bytes: u64,
}

/// Replay `path`, keeping frames up to the first framing, checksum or
/// ordinal-sequence violation. A frame whose `base_ordinal` is not the
/// running row count is a tear from a crashed rewrite and truncates the
/// replay there. Missing file = empty journal.
pub fn recover(path: &Path, shards: usize) -> Result<JournalRecovery> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let shards = shards.clamp(1, MAX_SHARDS) as u8 as usize;
    let mut assignments: Vec<u8> = Vec::new();
    let mut off = 0usize;
    let mut valid = 0usize;
    while off + FRAME_HEADER_LEN <= bytes.len() {
        if &bytes[off..off + 4] != FRAME_MAGIC {
            break;
        }
        let n_rows = read_u32(&bytes, off + 4).unwrap_or(u32::MAX);
        let base_ordinal = read_u64(&bytes, off + 8).unwrap_or(u64::MAX);
        let stored_crc = read_u32(&bytes, off + 16).unwrap_or(0);
        if n_rows > MAX_FRAME_ROWS || base_ordinal != assignments.len() as u64 {
            break;
        }
        let end = off + FRAME_HEADER_LEN + n_rows as usize;
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[off + FRAME_HEADER_LEN..end];
        if aiio_store::crc32(payload) != stored_crc {
            break;
        }
        if payload.iter().any(|&s| s as usize >= shards) {
            break;
        }
        assignments.extend_from_slice(payload);
        off = end;
        valid = off;
    }
    Ok(JournalRecovery {
        assignments,
        valid_bytes: valid as u64,
        dropped_bytes: (bytes.len() - valid) as u64,
    })
}

/// Walk the intact, in-sequence frame prefix of a raw byte buffer whose
/// first frame must carry global ordinal `base_ordinal`. Returns the
/// byte length of that prefix and the rows it covers.
///
/// This is the verification a network replication follower runs on
/// *received* journal tail bytes before publishing them: a bit-flip
/// fails the frame CRC, a torn stream ends mid-frame, and a frame whose
/// base ordinal does not continue the follower's own row count is a
/// tear — only the verified prefix is ever appended. Shard-id range
/// validation is deliberately left to [`recover`] at open; the wire
/// check cares about integrity and sequence, not topology.
pub fn scan_frames(bytes: &[u8], base_ordinal: u64) -> (usize, u64) {
    let mut off = 0usize;
    let mut rows = 0u64;
    let mut valid = 0usize;
    while off + FRAME_HEADER_LEN <= bytes.len() {
        if &bytes[off..off + 4] != FRAME_MAGIC {
            break;
        }
        let n_rows = read_u32(bytes, off + 4).unwrap_or(u32::MAX);
        let base = read_u64(bytes, off + 8).unwrap_or(u64::MAX);
        let stored_crc = read_u32(bytes, off + 16).unwrap_or(0);
        if n_rows > MAX_FRAME_ROWS || base != base_ordinal + rows {
            break;
        }
        let end = off + FRAME_HEADER_LEN + n_rows as usize;
        if end > bytes.len() {
            break;
        }
        if aiio_store::crc32(&bytes[off + FRAME_HEADER_LEN..end]) != stored_crc {
            break;
        }
        rows += u64::from(n_rows);
        off = end;
        valid = off;
    }
    (valid, rows)
}

/// What one tailing read of the journal returned (the journal analogue
/// of [`aiio_store::wal::WalTail`], at byte rather than frame
/// granularity — journal frames are shipped as an opaque verbatim byte
/// range).
#[derive(Debug)]
pub struct JournalTail {
    /// Verbatim frame bytes found at/after the requested offset.
    pub bytes: Vec<u8>,
    /// Offset to resume from on the next call (end of the intact
    /// prefix; bytes past it are torn or corrupt and never ship).
    pub reset: bool,
    /// True when the requested offset no longer names a frame boundary
    /// — the journal was healed (rewritten shorter) at an open — and
    /// the tail was re-read from offset zero. The follower must discard
    /// its journal copy and start over.
    pub new_offset: u64,
}

/// Tail `path` from byte offset `from`, returning the verbatim intact
/// frame bytes found there. The replication follower derives `from`
/// from its own journal's intact length (see [`scan_frames`]), so a
/// crashed pull pass can never re-ship bytes it already published. A
/// missing file is an empty tail at offset zero.
pub fn tail_bytes(path: &Path, from: u64) -> Result<JournalTail> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let (intact, _) = scan_frames(&bytes, 0);
    let from = from as usize;
    let on_boundary = from == intact || {
        // Any frame boundary inside the intact prefix is a valid resume
        // point (the follower may simply be behind).
        let (prefix_intact, _) = scan_frames(&bytes[..from.min(intact)], 0);
        from <= intact && prefix_intact == from
    };
    if on_boundary {
        Ok(JournalTail {
            bytes: bytes[from..intact].to_vec(),
            reset: false,
            new_offset: intact as u64,
        })
    } else {
        Ok(JournalTail {
            bytes: bytes[..intact].to_vec(),
            reset: true,
            new_offset: intact as u64,
        })
    }
}

/// Append handle to the journal.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
    bytes: u64,
}

impl JournalWriter {
    /// Open (creating if absent) the journal for appending.
    pub fn open_append(path: &Path) -> Result<JournalWriter> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            bytes,
        })
    }

    /// Append assignments starting at global ordinal `base_ordinal`.
    /// Batches past [`MAX_FRAME_ROWS`] are split into consecutive frames
    /// (each stamped with its own base ordinal) so every frame written
    /// is one `recover` accepts — an oversized single frame would be cut
    /// at the next open and its rows silently lost.
    pub fn append(&mut self, base_ordinal: u64, shard_ids: &[u8]) -> Result<()> {
        self.append_with_limit(base_ordinal, shard_ids, MAX_FRAME_ROWS as usize)
    }

    /// [`JournalWriter::append`] with an explicit per-frame row cap;
    /// split out so tests can exercise chunking without 16M-row batches.
    fn append_with_limit(
        &mut self,
        base_ordinal: u64,
        shard_ids: &[u8],
        max_rows: usize,
    ) -> Result<()> {
        if shard_ids.is_empty() {
            return Ok(());
        }
        let frames = shard_ids.len().div_ceil(max_rows);
        let mut bytes = Vec::with_capacity(shard_ids.len() + frames * FRAME_HEADER_LEN);
        let mut base = base_ordinal;
        for chunk in shard_ids.chunks(max_rows) {
            bytes.extend_from_slice(&encode_frame(base, chunk));
            base += chunk.len() as u64;
        }
        self.file.write_all(&bytes)?;
        self.file.flush()?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Flush OS buffers to the device.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Current journal size in bytes (tracked, not re-statted).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Atomically replace the journal with exactly `assignments` (frames of
/// at most [`MAX_FRAME_ROWS`] rows, or an empty file) via tmp + rename,
/// and return a fresh append handle.
pub fn rewrite(dir: &Path, assignments: &[u8]) -> Result<JournalWriter> {
    rewrite_with_limit(dir, assignments, MAX_FRAME_ROWS as usize)
}

/// [`rewrite`] with an explicit per-frame row cap; split out so tests
/// can exercise chunking without 16M-row batches.
fn rewrite_with_limit(dir: &Path, assignments: &[u8], max_rows: usize) -> Result<JournalWriter> {
    let mut bytes = Vec::new();
    let mut base = 0u64;
    for chunk in assignments.chunks(max_rows) {
        bytes.extend_from_slice(&encode_frame(base, chunk));
        base += chunk.len() as u64;
    }
    let path = dir.join(JOURNAL_NAME);
    aiio_store::durable_replace(&dir.join(JOURNAL_TMP_NAME), &path, &bytes)?;
    JournalWriter::open_append(&path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("aiio_shard_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_and_recover_roundtrips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(JOURNAL_NAME);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(0, &[0, 1, 2, 1]).unwrap();
        w.append(4, &[3, 0]).unwrap();
        let r = recover(&path, 4).unwrap();
        assert_eq!(r.assignments, vec![0, 1, 2, 1, 3, 0]);
        assert_eq!(r.dropped_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_truncates_at_corruption() {
        let dir = tmpdir("corrupt");
        let path = dir.join(JOURNAL_NAME);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(0, &[0, 1]).unwrap();
        let good = std::fs::metadata(&path).unwrap().len();
        w.append(2, &[1, 0, 1]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = good as usize + FRAME_HEADER_LEN + 1;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = recover(&path, 2).unwrap();
        assert_eq!(r.assignments, vec![0, 1]);
        assert_eq!(r.valid_bytes, good);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rejects_out_of_sequence_and_out_of_range_frames() {
        let dir = tmpdir("sequence");
        let path = dir.join(JOURNAL_NAME);
        // Frame claiming base ordinal 5 with nothing before it.
        std::fs::write(&path, encode_frame(5, &[0, 1])).unwrap();
        let r = recover(&path, 2).unwrap();
        assert!(r.assignments.is_empty());
        assert_eq!(r.dropped_bytes, std::fs::metadata(&path).unwrap().len());
        // Shard id past the fleet width.
        std::fs::write(&path, encode_frame(0, &[0, 7])).unwrap();
        let r = recover(&path, 2).unwrap();
        assert!(r.assignments.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_handles_torn_tails() {
        let dir = tmpdir("torn");
        let path = dir.join(JOURNAL_NAME);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(0, &[1, 0]).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [1usize, FRAME_HEADER_LEN - 2, FRAME_HEADER_LEN + 1] {
            let mut torn = full.clone();
            torn.extend_from_slice(&encode_frame(2, &[0, 1, 1])[..cut]);
            std::fs::write(&path, &torn).unwrap();
            let r = recover(&path, 2).unwrap();
            assert_eq!(r.assignments, vec![1, 0], "cut={cut}");
            assert_eq!(r.dropped_bytes, cut as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_appends_chunk_into_recoverable_frames() {
        // A batch past the per-frame cap must split into frames recover
        // accepts — one giant frame would be cut at the next open.
        let dir = tmpdir("chunkappend");
        let path = dir.join(JOURNAL_NAME);
        let mut w = JournalWriter::open_append(&path).unwrap();
        let ids: Vec<u8> = (0..11u8).map(|i| i % 3).collect();
        w.append_with_limit(0, &ids, 4).unwrap();
        w.append_with_limit(11, &[1, 2], 4).unwrap();
        // 11 rows at cap 4 → frames of 4+4+3, plus the 2-row frame.
        assert_eq!(w.bytes(), 13 + 4 * FRAME_HEADER_LEN as u64);
        let r = recover(&path, 3).unwrap();
        let mut want = ids;
        want.extend_from_slice(&[1, 2]);
        assert_eq!(r.assignments, want);
        assert_eq!(r.dropped_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_rewrites_chunk_into_recoverable_frames() {
        let dir = tmpdir("chunkrewrite");
        let w = rewrite_with_limit(&dir, &[0, 1, 1, 0, 1], 2).unwrap();
        assert_eq!(w.bytes(), 5 + 3 * FRAME_HEADER_LEN as u64);
        let r = recover(&dir.join(JOURNAL_NAME), 2).unwrap();
        assert_eq!(r.assignments, vec![0, 1, 1, 0, 1]);
        assert_eq!(r.dropped_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_ROWS")]
    fn encode_frame_rejects_oversized_batches() {
        let ids = vec![0u8; MAX_FRAME_ROWS as usize + 1];
        let _ = encode_frame(0, &ids);
    }

    #[test]
    fn tail_bytes_resumes_at_the_shipped_offset() {
        let dir = tmpdir("tail");
        let path = dir.join(JOURNAL_NAME);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(0, &[0, 1, 1]).unwrap();
        let t1 = tail_bytes(&path, 0).unwrap();
        assert!(!t1.reset);
        assert_eq!(t1.bytes.len() as u64, t1.new_offset);
        // Nothing new yet.
        let t2 = tail_bytes(&path, t1.new_offset).unwrap();
        assert!(!t2.reset);
        assert!(t2.bytes.is_empty());
        // New frames ship verbatim; appending them reproduces the file.
        w.append(3, &[1, 0]).unwrap();
        let t3 = tail_bytes(&path, t2.new_offset).unwrap();
        assert!(!t3.reset);
        let mut copy = t1.bytes.clone();
        copy.extend_from_slice(&t3.bytes);
        assert_eq!(copy, std::fs::read(&path).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_bytes_detects_heals_and_resets() {
        let dir = tmpdir("tailreset");
        let path = dir.join(JOURNAL_NAME);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(0, &[0, 1, 1, 0]).unwrap();
        let t1 = tail_bytes(&path, 0).unwrap();
        // A heal rewrites the journal shorter: the old offset is stale.
        rewrite(&dir, &[0, 1]).unwrap();
        let t2 = tail_bytes(&path, t1.new_offset).unwrap();
        assert!(t2.reset);
        assert_eq!(t2.bytes, std::fs::read(&path).unwrap());
        // A mid-frame offset is just as stale.
        let t3 = tail_bytes(&path, 3).unwrap();
        assert!(t3.reset);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_frames_verifies_sequence_and_checksums() {
        let mut bytes = encode_frame(7, &[0, 1]);
        bytes.extend_from_slice(&encode_frame(9, &[1]));
        let (intact, rows) = scan_frames(&bytes, 7);
        assert_eq!(intact, bytes.len());
        assert_eq!(rows, 3);
        // Wrong starting ordinal: nothing verifies.
        assert_eq!(scan_frames(&bytes, 0), (0, 0));
        // A flipped payload bit kills the frame it lands in.
        let mut damaged = bytes.clone();
        let idx = FRAME_HEADER_LEN; // first payload byte
        damaged[idx] ^= 0x01;
        let (intact, rows) = scan_frames(&damaged, 7);
        assert_eq!((intact, rows), (0, 0));
        // A torn tail keeps the complete frames before it.
        let cut = bytes.len() - 1;
        let (intact, rows) = scan_frames(&bytes[..cut], 7);
        assert_eq!(intact, FRAME_HEADER_LEN + 2);
        assert_eq!(rows, 2);
    }

    #[test]
    fn rewrite_is_atomic_and_resequences() {
        let dir = tmpdir("rewrite");
        let mut w = JournalWriter::open_append(&dir.join(JOURNAL_NAME)).unwrap();
        w.append(0, &[0, 1, 1, 0]).unwrap();
        let w2 = rewrite(&dir, &[0, 1]).unwrap();
        assert!(w2.bytes() > 0);
        let r = recover(&dir.join(JOURNAL_NAME), 2).unwrap();
        assert_eq!(r.assignments, vec![0, 1]);
        assert!(!dir.join(JOURNAL_TMP_NAME).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
