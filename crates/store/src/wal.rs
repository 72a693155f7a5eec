//! The write-ahead tail: CRC-framed row blocks appended on every ingest.
//!
//! Rows land in `wal.bin` first and move into a sealed columnar segment
//! when enough accumulate. Each append writes one self-describing block:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────┐
//! │ magic "AWL2" · n_rows · payload_len · base_ordinal     │
//! │ CRC32(header fields above + payload)                   │
//! ├────────────────────────────────────────────────────────┤
//! │ payload: n_rows serialized jobs                        │
//! └────────────────────────────────────────────────────────┘
//! ```
//!
//! The checksum covers the header fields as well as the payload (format
//! 2; format 1 covered only the payload). A payload-only CRC left
//! `n_rows` and `base_ordinal` unprotected, which a local crash never
//! exploits (torn appends truncate at a length check) but a replication
//! stream does: a bit-flip in a frame header in transit would have
//! published a verified-looking frame under the wrong ordinal.
//!
//! Recovery walks blocks front to back and stops at the first bad frame —
//! torn header, implausible length, checksum mismatch or undecodable
//! payload — so a crash mid-append loses exactly the bytes past the last
//! intact block, never anything before it. `base_ordinal` stamps each
//! block with the global ordinal of its first row, which lets the store
//! drop WAL rows that a crash between "segment sealed" and "WAL rewritten"
//! left duplicated on disk.
//!
//! The WAL is only ever shrunk by writing the surviving rows to `wal.tmp`
//! and renaming it over `wal.bin` — the same publish-by-rename discipline
//! segments use, so there is no window where a crash can eat durable rows.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use aiio_darshan::{CounterSet, JobLog, TimeCounters, N_COUNTERS};

use crate::codec::{
    crc32_finish, crc32_update, push_f64, push_u32, push_u64, read_f64, read_u32, read_u64,
    CRC32_INIT,
};
use crate::error::{Result, StoreError};
use crate::schema::N_TIME_COLUMNS;

/// WAL file name inside a store directory.
pub const WAL_NAME: &str = "wal.bin";

/// Temporary file the WAL is rewritten through.
pub const WAL_TMP_NAME: &str = "wal.tmp";

/// Magic prefix of every WAL block (the trailing `2` is the format
/// version: v2 extended the frame CRC over the header fields).
pub const BLOCK_MAGIC: &[u8; 4] = b"AWL2";

/// Byte size of a block header.
pub const BLOCK_HEADER_LEN: usize = 24;

const MAX_BLOCK_ROWS: u32 = 1 << 20;
const MAX_PAYLOAD_LEN: u32 = 1 << 26;
const FLOATS_PER_ROW: usize = N_COUNTERS + N_TIME_COLUMNS;

fn encode_job(out: &mut Vec<u8>, job: &JobLog) {
    push_u64(out, job.job_id);
    push_u32(out, u32::from(job.year));
    let app = job.app.as_bytes();
    push_u32(out, app.len() as u32);
    out.extend_from_slice(app);
    for &v in job.counters.as_slice() {
        push_f64(out, v);
    }
    push_f64(out, job.time.total_read_time);
    push_f64(out, job.time.total_write_time);
    push_f64(out, job.time.total_meta_time);
    push_f64(out, job.time.slowest_rank_seconds);
}

fn decode_job(payload: &[u8], off: usize) -> Option<(JobLog, usize)> {
    let job_id = read_u64(payload, off)?;
    let year = u16::try_from(read_u32(payload, off + 8)?).ok()?;
    let app_len = read_u32(payload, off + 12)? as usize;
    let app_start = off + 16;
    let app_bytes = payload.get(app_start..app_start.checked_add(app_len)?)?;
    let app = std::str::from_utf8(app_bytes).ok()?.to_string();
    let mut floats = [0.0f64; FLOATS_PER_ROW];
    let mut pos = app_start + app_len;
    for f in floats.iter_mut() {
        *f = read_f64(payload, pos)?;
        pos += 8;
    }
    let job = JobLog {
        job_id,
        app,
        year,
        counters: CounterSet::from_vec(floats[..N_COUNTERS].to_vec()),
        time: TimeCounters {
            total_read_time: floats[N_COUNTERS],
            total_write_time: floats[N_COUNTERS + 1],
            total_meta_time: floats[N_COUNTERS + 2],
            slowest_rank_seconds: floats[N_COUNTERS + 3],
        },
    };
    Some((job, pos))
}

/// Serialize one WAL block whose first row has global ordinal
/// `base_ordinal`.
pub fn encode_block(base_ordinal: u64, jobs: &[JobLog]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(jobs.len() * (24 + FLOATS_PER_ROW * 8));
    for job in jobs {
        encode_job(&mut payload, job);
    }
    let mut out = Vec::with_capacity(BLOCK_HEADER_LEN + payload.len());
    out.extend_from_slice(BLOCK_MAGIC);
    push_u32(&mut out, jobs.len() as u32);
    push_u32(&mut out, payload.len() as u32);
    push_u64(&mut out, base_ordinal);
    let crc = frame_crc(&out[..BLOCK_HEADER_LEN - 4], &payload);
    push_u32(&mut out, crc);
    out.extend_from_slice(&payload);
    out
}

/// Frame checksum over the header fields (everything before the CRC
/// slot) plus the payload. The two regions are not contiguous on disk —
/// the CRC sits between them — hence the incremental fold.
fn frame_crc(header_prefix: &[u8], payload: &[u8]) -> u32 {
    crc32_finish(crc32_update(
        crc32_update(CRC32_INIT, header_prefix),
        payload,
    ))
}

/// What WAL recovery found: the intact rows (with their global ordinals)
/// and how much of the file had to be abandoned.
#[derive(Debug)]
pub struct WalRecovery {
    /// Surviving rows in append order, each with its global row ordinal.
    pub rows: Vec<(u64, JobLog)>,
    /// Length of the intact prefix.
    pub valid_bytes: u64,
    /// Bytes past the first bad frame (0 for a clean WAL).
    pub dropped_bytes: u64,
}

/// Replay `path`, keeping every block up to the first framing or checksum
/// violation. Missing file = empty WAL. The file itself is not modified;
/// the store rewrites it afterwards via [`rewrite`].
pub fn recover(path: &Path) -> Result<WalRecovery> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let mut rows = Vec::new();
    let mut off = 0usize;
    let mut valid = 0usize;
    'blocks: while off + BLOCK_HEADER_LEN <= bytes.len() {
        if &bytes[off..off + 4] != BLOCK_MAGIC {
            break;
        }
        let n_rows = read_u32(&bytes, off + 4).unwrap_or(u32::MAX);
        let payload_len = read_u32(&bytes, off + 8).unwrap_or(u32::MAX);
        let base_ordinal = read_u64(&bytes, off + 12).unwrap_or(0);
        let stored_crc = read_u32(&bytes, off + 20).unwrap_or(0);
        if n_rows > MAX_BLOCK_ROWS || payload_len > MAX_PAYLOAD_LEN {
            break;
        }
        let payload_start = off + BLOCK_HEADER_LEN;
        let payload_end = payload_start + payload_len as usize;
        if payload_end > bytes.len() {
            break;
        }
        let payload = &bytes[payload_start..payload_end];
        if frame_crc(&bytes[off..off + BLOCK_HEADER_LEN - 4], payload) != stored_crc {
            break;
        }
        let mut pos = 0usize;
        let mut block_rows = Vec::with_capacity(n_rows as usize);
        for i in 0..n_rows as u64 {
            match decode_job(payload, pos) {
                Some((job, next)) => {
                    block_rows.push((base_ordinal + i, job));
                    pos = next;
                }
                None => break 'blocks,
            }
        }
        if pos != payload.len() {
            break;
        }
        rows.extend(block_rows);
        off = payload_end;
        valid = off;
    }
    Ok(WalRecovery {
        rows,
        valid_bytes: valid as u64,
        dropped_bytes: (bytes.len() - valid) as u64,
    })
}

/// One raw WAL frame as shipped by [`tail_frames`]: the full on-disk
/// bytes (header + payload, CRC intact) plus the decoded base ordinal so
/// a follower can reason about coverage without decoding rows.
#[derive(Debug, Clone)]
pub struct WalFrame {
    /// Global ordinal of the frame's first row.
    pub base_ordinal: u64,
    /// Rows in the frame.
    pub n_rows: u32,
    /// The frame verbatim, header included — appending these bytes to
    /// another WAL file reproduces the frame bit-exactly.
    pub bytes: Vec<u8>,
}

/// What one tailing read returned.
#[derive(Debug)]
pub struct WalTail {
    /// Intact frames found at/after the requested offset.
    pub frames: Vec<WalFrame>,
    /// Offset to resume from on the next call (end of the last intact
    /// frame; bytes past it are a torn tail still being written).
    pub new_offset: u64,
    /// True when the requested offset no longer names a frame boundary —
    /// the leader rewrote (shrank) its WAL after a seal — and the tail was
    /// re-read from offset zero. The follower must discard its shipped WAL
    /// and start over; sealed segments make the restart cheap.
    pub reset: bool,
}

/// Tail `path` from byte offset `from`, returning every intact frame
/// found there (checked by CRC, not decoded). This is the WAL-shipping
/// primitive: a replication follower remembers `new_offset`, calls again
/// later, and receives exactly the frames appended in between. A missing
/// file is an empty tail at offset zero.
pub fn tail_frames(path: &Path, from: u64) -> Result<WalTail> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let from = from as usize;
    if from <= bytes.len() {
        let (frames, end) = walk_frames(&bytes, from);
        // Progress, a clean end, or a torn frame still being appended at
        // the boundary all mean the offset is valid; only bytes that
        // cannot be the start of a frame mean the file was rewritten
        // underneath us.
        if !frames.is_empty() || end == bytes.len() || torn_frame_at(&bytes, end) {
            return Ok(WalTail {
                frames,
                new_offset: end as u64,
                reset: false,
            });
        }
    }
    // The offset points past EOF or inside a rewritten file: restart.
    let (frames, end) = walk_frames(&bytes, 0);
    Ok(WalTail {
        frames,
        new_offset: end as u64,
        reset: true,
    })
}

/// Byte length of the intact frame prefix of `path` (0 for a missing
/// file). This is the offset a replication follower trusts as already
/// shipped: frames are appended to the follower verbatim, so the
/// CRC-walked length of its own WAL *is* the leader offset it covers —
/// unlike a separately persisted cursor, it cannot lag what a crashed
/// ship pass actually wrote, and a torn trailing frame is excluded.
pub fn intact_len(path: &Path) -> Result<u64> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let (_, end) = walk_frames(&bytes, 0);
    Ok(end as u64)
}

/// Walk the intact frame prefix of a raw byte buffer, returning the
/// frames and the byte length of that prefix. This is the verification a
/// network replication follower runs on *received* tail bytes before
/// publishing them: a bit-flip anywhere in a frame fails its CRC and a
/// torn stream ends mid-frame, so only the verified prefix — complete,
/// checksummed frames — is ever appended to the follower WAL. Identical
/// to the walk [`tail_frames`] and [`intact_len`] run on files.
pub fn scan_frames(bytes: &[u8]) -> (Vec<WalFrame>, usize) {
    walk_frames(bytes, 0)
}

/// Could the bytes at `off` be the prefix of a frame whose remainder has
/// not hit the disk yet? True exactly when everything present so far is
/// consistent with an in-progress append (magic prefix, plausible
/// lengths, payload extending past EOF).
fn torn_frame_at(bytes: &[u8], off: usize) -> bool {
    let avail = &bytes[off.min(bytes.len())..];
    if avail.len() < 4 {
        return avail == &BLOCK_MAGIC[..avail.len()];
    }
    if &avail[..4] != BLOCK_MAGIC {
        return false;
    }
    if avail.len() < BLOCK_HEADER_LEN {
        return true;
    }
    let n_rows = read_u32(avail, 4).unwrap_or(u32::MAX);
    let payload_len = read_u32(avail, 8).unwrap_or(u32::MAX);
    n_rows <= MAX_BLOCK_ROWS
        && payload_len <= MAX_PAYLOAD_LEN
        && BLOCK_HEADER_LEN + payload_len as usize > avail.len()
}

/// Walk intact frames starting at `from`; returns the frames and the
/// offset one past the last intact frame (`from` itself when the first
/// frame is torn or invalid).
fn walk_frames(bytes: &[u8], from: usize) -> (Vec<WalFrame>, usize) {
    let mut frames = Vec::new();
    let mut off = from;
    let mut valid = from;
    while off + BLOCK_HEADER_LEN <= bytes.len() {
        if &bytes[off..off + 4] != BLOCK_MAGIC {
            break;
        }
        let n_rows = read_u32(bytes, off + 4).unwrap_or(u32::MAX);
        let payload_len = read_u32(bytes, off + 8).unwrap_or(u32::MAX);
        let base_ordinal = read_u64(bytes, off + 12).unwrap_or(0);
        let stored_crc = read_u32(bytes, off + 20).unwrap_or(0);
        if n_rows > MAX_BLOCK_ROWS || payload_len > MAX_PAYLOAD_LEN {
            break;
        }
        let end = off + BLOCK_HEADER_LEN + payload_len as usize;
        if end > bytes.len() {
            break;
        }
        if frame_crc(
            &bytes[off..off + BLOCK_HEADER_LEN - 4],
            &bytes[off + BLOCK_HEADER_LEN..end],
        ) != stored_crc
        {
            break;
        }
        frames.push(WalFrame {
            base_ordinal,
            n_rows,
            bytes: bytes[off..end].to_vec(),
        });
        off = end;
        valid = off;
    }
    (frames, valid)
}

/// Append handle to the WAL.
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    path: PathBuf,
    /// On-disk size, tracked across appends so [`WalWriter::bytes`] (and
    /// `Store::stats` above it) never re-stats the file — stats must stay
    /// callable under the serving layer's ingest lock without doing I/O.
    bytes: u64,
}

impl WalWriter {
    /// Open (creating if absent) the WAL for appending.
    pub fn open_append(path: &Path) -> Result<WalWriter> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            bytes,
        })
    }

    /// Append one block of rows starting at global ordinal `base_ordinal`.
    pub fn append_block(&mut self, base_ordinal: u64, jobs: &[JobLog]) -> Result<()> {
        if jobs.is_empty() {
            return Ok(());
        }
        let block = encode_block(base_ordinal, jobs);
        self.file.write_all(&block)?;
        self.file.flush()?;
        self.bytes += block.len() as u64;
        Ok(())
    }

    /// Flush OS buffers to the device (durability against machine crash,
    /// not just process crash).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Current WAL size in bytes (tracked, not re-statted: cheap enough
    /// to call from metric paths that hold locks).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The WAL's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Atomically replace the WAL with exactly `jobs` (one block, or an empty
/// file) via `wal.tmp` + rename, and return a fresh append handle.
pub fn rewrite(dir: &Path, base_ordinal: u64, jobs: &[JobLog]) -> Result<WalWriter> {
    let bytes = if jobs.is_empty() {
        Vec::new()
    } else {
        encode_block(base_ordinal, jobs)
    };
    let path = dir.join(WAL_NAME);
    crate::durable_replace(&dir.join(WAL_TMP_NAME), &path, &bytes)?;
    WalWriter::open_append(&path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_darshan::CounterId;

    fn job(i: u64) -> JobLog {
        let mut j = JobLog::new(i, format!("app-{}", i % 3), 2020);
        j.counters.set(CounterId::PosixWrites, i as f64 + 0.5);
        j.time.total_write_time = 0.125 * i as f64;
        j
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aiio_store_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_and_recover_roundtrips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(WAL_NAME);
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_block(0, &[job(0), job(1)]).unwrap();
        w.append_block(2, &[job(2)]).unwrap();
        let r = recover(&path).unwrap();
        assert_eq!(r.dropped_bytes, 0);
        assert_eq!(r.rows.len(), 3);
        for (i, (ord, j)) in r.rows.iter().enumerate() {
            assert_eq!(*ord, i as u64);
            assert_eq!(*j, job(i as u64));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_truncates_at_first_bad_frame() {
        let dir = tmpdir("badframe");
        let path = dir.join(WAL_NAME);
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_block(0, &[job(0)]).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        w.append_block(1, &[job(1), job(2)]).unwrap();
        // Corrupt one payload byte of the second block.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = good_len as usize + BLOCK_HEADER_LEN + 3;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = recover(&path).unwrap();
        assert_eq!(r.rows.len(), 1, "only the first block survives");
        assert_eq!(r.valid_bytes, good_len);
        assert_eq!(r.dropped_bytes, bytes.len() as u64 - good_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_handles_torn_tail_writes() {
        let dir = tmpdir("torn");
        let path = dir.join(WAL_NAME);
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_block(0, &[job(0), job(1)]).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Simulate a crash that wrote only part of a trailing block.
        for cut in [1, BLOCK_HEADER_LEN - 1, BLOCK_HEADER_LEN + 5] {
            let mut torn = full.clone();
            torn.extend_from_slice(&encode_block(2, &[job(2)])[..cut]);
            std::fs::write(&path, &torn).unwrap();
            let r = recover(&path).unwrap();
            assert_eq!(r.rows.len(), 2, "cut={cut}");
            assert_eq!(r.dropped_bytes, cut as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_wal_is_empty() {
        let dir = tmpdir("missing");
        let r = recover(&dir.join(WAL_NAME)).unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.valid_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let dir = tmpdir("rewrite");
        let path = dir.join(WAL_NAME);
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_block(0, &[job(0), job(1), job(2)]).unwrap();
        let w2 = rewrite(&dir, 2, &[job(2)]).unwrap();
        assert!(w2.bytes() > 0);
        let r = recover(&path).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].0, 2);
        let w3 = rewrite(&dir, 3, &[]).unwrap();
        assert_eq!(w3.bytes(), 0);
        assert!(recover(&path).unwrap().rows.is_empty());
        assert!(!dir.join(WAL_TMP_NAME).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailing_resumes_at_the_shipped_offset() {
        let dir = tmpdir("tail");
        let path = dir.join(WAL_NAME);
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_block(0, &[job(0), job(1)]).unwrap();
        let t1 = tail_frames(&path, 0).unwrap();
        assert!(!t1.reset);
        assert_eq!(t1.frames.len(), 1);
        assert_eq!(t1.frames[0].base_ordinal, 0);
        assert_eq!(t1.frames[0].n_rows, 2);
        // Nothing new yet.
        let t2 = tail_frames(&path, t1.new_offset).unwrap();
        assert!(!t2.reset);
        assert!(t2.frames.is_empty());
        assert_eq!(t2.new_offset, t1.new_offset);
        // Append more; only the new frame ships.
        w.append_block(2, &[job(2)]).unwrap();
        let t3 = tail_frames(&path, t2.new_offset).unwrap();
        assert!(!t3.reset);
        assert_eq!(t3.frames.len(), 1);
        assert_eq!(t3.frames[0].base_ordinal, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shipped_frames_are_bit_identical_to_the_source() {
        let dir = tmpdir("tailbits");
        let path = dir.join(WAL_NAME);
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_block(0, &[job(0)]).unwrap();
        w.append_block(1, &[job(1), job(2)]).unwrap();
        let t = tail_frames(&path, 0).unwrap();
        let shipped: Vec<u8> = t.frames.iter().flat_map(|f| f.bytes.clone()).collect();
        assert_eq!(shipped, std::fs::read(&path).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailing_detects_rewrites_and_resets() {
        let dir = tmpdir("tailreset");
        let path = dir.join(WAL_NAME);
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_block(0, &[job(0), job(1), job(2)]).unwrap();
        let t1 = tail_frames(&path, 0).unwrap();
        // Leader seals and rewrites: the WAL shrinks to one row.
        let _w2 = rewrite(&dir, 2, &[job(2)]).unwrap();
        let t2 = tail_frames(&path, t1.new_offset).unwrap();
        assert!(t2.reset, "offset past EOF must reset");
        assert_eq!(t2.frames.len(), 1);
        assert_eq!(t2.frames[0].base_ordinal, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailing_waits_on_torn_frames_without_resetting() {
        let dir = tmpdir("tailtorn");
        let path = dir.join(WAL_NAME);
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_block(0, &[job(0)]).unwrap();
        let boundary = std::fs::metadata(&path).unwrap().len();
        let full = encode_block(1, &[job(1)]);
        for cut in [2usize, BLOCK_HEADER_LEN - 1, BLOCK_HEADER_LEN + 3] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.truncate(boundary as usize);
            bytes.extend_from_slice(&full[..cut]);
            std::fs::write(&path, &bytes).unwrap();
            let t = tail_frames(&path, boundary).unwrap();
            assert!(!t.reset, "cut={cut}: torn tail is not a divergence");
            assert!(t.frames.is_empty());
            assert_eq!(t.new_offset, boundary);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailing_a_missing_wal_is_empty() {
        let dir = tmpdir("tailmissing");
        let t = tail_frames(&dir.join(WAL_NAME), 0).unwrap();
        assert!(!t.reset);
        assert!(t.frames.is_empty());
        assert_eq!(t.new_offset, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_ordinals_gate_duplicate_replay() {
        // The store filters rows below its sealed watermark; verify the
        // ordinals recovery reports are the ones encode_block stamped.
        let dir = tmpdir("ordinals");
        let path = dir.join(WAL_NAME);
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_block(100, &[job(0), job(1)]).unwrap();
        let r = recover(&path).unwrap();
        assert_eq!(r.rows[0].0, 100);
        assert_eq!(r.rows[1].0, 101);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
