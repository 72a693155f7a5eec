//! The framed log: the one CRC-framed, append-only file format behind
//! both the store's WAL ([`crate::wal`], magic `AWL2`) and the sharded
//! fleet's ordinal journal (`aiio_shard::journal`, magic `ASJ2`).
//!
//! ```text
//! ┌────────────────────────────────────────────────────────┐
//! │ magic · n_rows · payload_len · base_ordinal            │
//! │ CRC32(header fields above + payload)                   │
//! ├────────────────────────────────────────────────────────┤
//! │ payload: n_rows encoded rows                           │
//! └────────────────────────────────────────────────────────┘
//! ```
//!
//! A log owns only its magic and its row encoding. This module owns the
//! rest: the frame encoder, the CRC walk, the append handle, the
//! tmp-file rewrite and the replication tail.
//!
//! * The checksum covers the header fields as well as the payload, so a
//!   bit-flip in `n_rows` or `base_ordinal` — on disk or in a replication
//!   stream — fails the frame instead of publishing it under the wrong
//!   ordinal.
//! * [`walk`] keeps the intact frame prefix and stops at the first torn
//!   header, implausible length or checksum mismatch, so a crash
//!   mid-append loses exactly the bytes past the last intact frame.
//!   Whether consecutive frames must chain their ordinals is the log's
//!   rule, not the walker's.
//! * [`encode`] splits any batch into consecutive frames under both
//!   [`MAX_FRAME_ROWS`] and [`MAX_PAYLOAD_LEN`], so every frame written is
//!   one the walker accepts.
//! * A log is only ever shrunk by [`FrameWriter::rewrite`]: write a tmp
//!   file and rename it over the log, so no crash can eat durable rows.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::codec::{
    crc32_finish, crc32_update, push_u32, push_u64, read_u32, read_u64, CRC32_INIT,
};
use crate::error::{Result, StoreError};

/// Byte size of a frame header.
pub const HEADER_LEN: usize = 24;

/// Most rows one frame may hold.
pub const MAX_FRAME_ROWS: u32 = 1 << 20;

/// Most payload bytes one frame may hold. A row whose encoding alone is
/// larger fits no frame; logs must refuse it before writing anything.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 26;

/// One intact frame found by [`walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Byte offset of the frame header.
    pub offset: usize,
    /// Byte offset one past the payload.
    pub end: usize,
    /// Rows in the frame.
    pub n_rows: u32,
    /// Ordinal of the frame's first row.
    pub base_ordinal: u64,
}

impl Frame {
    /// The frame's payload within the bytes it was walked from.
    pub fn payload<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.offset + HEADER_LEN..self.end]
    }

    /// Ordinal one past the frame's last row.
    pub fn next_ordinal(&self) -> u64 {
        self.base_ordinal + u64::from(self.n_rows)
    }
}

/// Frame checksum over the header fields (everything before the CRC
/// slot) plus the payload. The two regions are not contiguous — the CRC
/// sits between them — hence the incremental fold.
fn frame_crc(header_prefix: &[u8], payload: &[u8]) -> u32 {
    crc32_finish(crc32_update(
        crc32_update(CRC32_INIT, header_prefix),
        payload,
    ))
}

/// Append frames holding `rows` to `out`, the first row at ordinal
/// `base_ordinal`. Rows are packed greedily: a frame closes before the
/// row that would take it past [`MAX_FRAME_ROWS`] or [`MAX_PAYLOAD_LEN`].
/// `row_len` must return exactly the bytes `encode_row` writes, and no
/// row may exceed [`MAX_PAYLOAD_LEN`] on its own. An empty batch writes
/// nothing.
pub fn encode<T>(
    out: &mut Vec<u8>,
    magic: &[u8; 4],
    base_ordinal: u64,
    rows: &[T],
    row_len: impl Fn(&T) -> usize,
    encode_row: impl FnMut(&mut Vec<u8>, &T),
) {
    encode_with_limit(
        out,
        magic,
        base_ordinal,
        rows,
        (MAX_FRAME_ROWS as usize, MAX_PAYLOAD_LEN as usize),
        row_len,
        encode_row,
    );
}

/// [`encode`] with explicit `(rows, payload bytes)` caps; split out so
/// tests can exercise the split without 64 MiB batches.
fn encode_with_limit<T>(
    out: &mut Vec<u8>,
    magic: &[u8; 4],
    base_ordinal: u64,
    rows: &[T],
    (max_rows, max_payload): (usize, usize),
    row_len: impl Fn(&T) -> usize,
    mut encode_row: impl FnMut(&mut Vec<u8>, &T),
) {
    let mut start = 0;
    while start < rows.len() {
        let mut end = start;
        let mut payload_len = 0usize;
        while end < rows.len() && end - start < max_rows {
            let len = row_len(&rows[end]);
            if end > start && payload_len + len > max_payload {
                break;
            }
            payload_len += len;
            end += 1;
        }
        let header = out.len();
        out.reserve(HEADER_LEN + payload_len);
        out.extend_from_slice(magic);
        push_u32(out, (end - start) as u32);
        push_u32(out, payload_len as u32);
        push_u64(out, base_ordinal + start as u64);
        push_u32(out, 0);
        for row in &rows[start..end] {
            encode_row(out, row);
        }
        debug_assert_eq!(out.len() - header - HEADER_LEN, payload_len);
        let crc = frame_crc(
            &out[header..header + HEADER_LEN - 4],
            &out[header + HEADER_LEN..],
        );
        out[header + HEADER_LEN - 4..header + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        start = end;
    }
}

/// Walk the intact frame prefix of `bytes`: every frame from offset 0
/// up to the first torn, implausible or checksum-failing one. Returns
/// the frames and the byte length of that prefix.
pub fn walk(bytes: &[u8], magic: &[u8; 4]) -> (Vec<Frame>, usize) {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off + HEADER_LEN <= bytes.len() && &bytes[off..off + 4] == magic {
        let n_rows = read_u32(bytes, off + 4).unwrap_or(u32::MAX);
        let payload_len = read_u32(bytes, off + 8).unwrap_or(u32::MAX);
        let base_ordinal = read_u64(bytes, off + 12).unwrap_or(0);
        let stored_crc = read_u32(bytes, off + 20).unwrap_or(0);
        if n_rows > MAX_FRAME_ROWS || payload_len > MAX_PAYLOAD_LEN {
            break;
        }
        let end = off + HEADER_LEN + payload_len as usize;
        if end > bytes.len()
            || frame_crc(
                &bytes[off..off + HEADER_LEN - 4],
                &bytes[off + HEADER_LEN..end],
            ) != stored_crc
        {
            break;
        }
        frames.push(Frame {
            offset: off,
            end,
            n_rows,
            base_ordinal,
        });
        off = end;
    }
    (frames, off)
}

/// The bytes of the log at `path`; a missing file is an empty log.
pub fn read_log(path: &Path) -> Result<Vec<u8>> {
    match std::fs::read(path) {
        Ok(b) => Ok(b),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(StoreError::Io(e)),
    }
}

/// Append handle to a framed log.
#[derive(Debug)]
pub struct FrameWriter {
    file: std::fs::File,
    path: PathBuf,
    /// On-disk size, tracked across appends so [`FrameWriter::bytes`]
    /// (and the stats above it) never re-stats the file — stats must
    /// stay callable under the serving layer's ingest lock without I/O.
    bytes: u64,
}

impl FrameWriter {
    /// Open (creating if absent) the log at `path` for appending.
    pub fn open_append(path: &Path) -> Result<FrameWriter> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(FrameWriter {
            file,
            path: path.to_path_buf(),
            bytes,
        })
    }

    /// Atomically replace the log at `path` with exactly `frames` (staged
    /// through `tmp` in the same directory, then renamed) and return a
    /// fresh append handle.
    pub fn rewrite(tmp: &Path, path: &Path, frames: &[u8]) -> Result<FrameWriter> {
        crate::durable_replace(tmp, path, frames)?;
        FrameWriter::open_append(path)
    }

    /// Append encoded frames verbatim.
    pub fn append(&mut self, frames: &[u8]) -> Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        self.file.write_all(frames)?;
        self.file.flush()?;
        self.bytes += frames.len() as u64;
        Ok(())
    }

    /// Flush OS buffers to the device (durability against machine crash,
    /// not just process crash).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Current log size in bytes (tracked, not re-statted: cheap enough
    /// to call from metric paths that hold locks).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What one tailing read of a log returned — the replication unit for
/// the WAL and the journal alike.
#[derive(Debug, Clone)]
pub struct Tail {
    /// The shipped frames verbatim (empty for a probe). Bytes that
    /// crossed a network may be torn or corrupt; followers walk them
    /// before publishing anything.
    pub body: Vec<u8>,
    /// Intact frames in (or, for a probe, available for) the body.
    pub frames: u64,
    /// Rows covered by those frames.
    pub rows: u64,
    /// Offset to resume from on the next call: the end of the source's
    /// intact prefix (bytes past it are a torn frame still being written).
    pub new_offset: u64,
    /// True when the follower's copy does not continue the source's log
    /// and the tail restarted from offset zero: the follower must replace
    /// its copy with the body.
    pub reset: bool,
}

/// Tail the log at `path` for a follower whose copy is `from` bytes long
/// and whose next expected row ordinal is `next`. The follower's copy
/// continues this log only when `from` is 0 or the end of a frame that
/// ends at ordinal `next`; the tail then ships the frames after it.
/// Anything else — an offset past the end, inside a frame, or at a frame
/// boundary of a rewritten log whose frame ends at another ordinal — is
/// a reset, and the tail ships the whole intact log. Under `probe` only
/// the counts are filled in. A missing file is an empty log.
pub fn tail_log(path: &Path, magic: &[u8; 4], from: u64, next: u64, probe: bool) -> Result<Tail> {
    let bytes = read_log(path)?;
    let (frames, intact) = walk(&bytes, magic);
    let resume = if from == 0 {
        Some(0)
    } else {
        frames
            .iter()
            .position(|f| f.end as u64 == from && f.next_ordinal() == next)
            .map(|i| i + 1)
    };
    let reset = resume.is_none();
    let shipped = &frames[resume.unwrap_or(0)..];
    let start = if reset { 0 } else { from as usize };
    Ok(Tail {
        body: if probe {
            Vec::new()
        } else {
            bytes[start..intact].to_vec()
        },
        frames: shipped.len() as u64,
        rows: shipped.iter().map(|f| u64::from(f.n_rows)).sum(),
        new_offset: intact as u64,
        reset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"TST1";

    /// Variable-width test rows: row `r` encodes as `r` bytes of value `r`.
    fn encode_rows(base: u64, rows: &[u8], limit: (usize, usize)) -> Vec<u8> {
        let mut out = Vec::new();
        encode_with_limit(
            &mut out,
            MAGIC,
            base,
            rows,
            limit,
            |&r| r as usize,
            |out, &r| out.extend(std::iter::repeat_n(r, r as usize)),
        );
        out
    }

    fn frames_of(base: u64, rows: &[u8]) -> Vec<u8> {
        encode_rows(
            base,
            rows,
            (MAX_FRAME_ROWS as usize, MAX_PAYLOAD_LEN as usize),
        )
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("aiio_store_frames_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A log at `dir/log.bin` holding `frames`, plus its path.
    fn log_with(dir: &Path, frames: &[&[u8]]) -> (PathBuf, FrameWriter) {
        let path = dir.join("log.bin");
        let mut w = FrameWriter::open_append(&path).unwrap();
        for f in frames {
            w.append(f).unwrap();
        }
        (path, w)
    }

    #[test]
    fn encode_and_walk_roundtrip_offsets_and_ordinals() {
        let mut bytes = frames_of(7, &[1, 2]);
        let first_end = bytes.len();
        bytes.extend_from_slice(&frames_of(9, &[3]));
        let (frames, intact) = walk(&bytes, MAGIC);
        assert_eq!(intact, bytes.len());
        assert_eq!(
            frames,
            vec![
                Frame {
                    offset: 0,
                    end: first_end,
                    n_rows: 2,
                    base_ordinal: 7
                },
                Frame {
                    offset: first_end,
                    end: bytes.len(),
                    n_rows: 1,
                    base_ordinal: 9
                },
            ]
        );
        assert_eq!(frames[0].payload(&bytes), &[1, 2, 2]);
        assert_eq!(frames[1].next_ordinal(), 10);
        // Another log's magic walks as empty.
        assert_eq!(walk(&bytes, b"XXXX"), (Vec::new(), 0));
        assert!(frames_of(0, &[]).is_empty());
    }

    #[test]
    fn walk_stops_at_the_first_corrupt_frame() {
        let mut bytes = frames_of(0, &[1]);
        let good = bytes.len();
        bytes.extend_from_slice(&frames_of(1, &[2, 3]));
        bytes.extend_from_slice(&frames_of(3, &[4]));
        // One payload byte of the middle frame: it and everything after
        // it are abandoned, even the intact frame behind it.
        bytes[good + HEADER_LEN + 1] ^= 0xFF;
        let (frames, intact) = walk(&bytes, MAGIC);
        assert_eq!(frames.len(), 1);
        assert_eq!(intact, good);
    }

    #[test]
    fn a_flipped_header_field_fails_the_frame_crc() {
        let bytes = frames_of(5, &[1, 2]);
        // n_rows (4..8), payload_len (8..12) and base_ordinal (12..20):
        // the low bit keeps every length plausible, so only the CRC over
        // the header catches the flip.
        for idx in [4usize, 8, 12, 19] {
            let mut damaged = bytes.clone();
            damaged[idx] ^= 0x01;
            assert_eq!(walk(&damaged, MAGIC), (Vec::new(), 0), "flip at byte {idx}");
        }
    }

    #[test]
    fn torn_tails_keep_the_frames_before_them() {
        let full = frames_of(0, &[1, 2]);
        let next = frames_of(2, &[3]);
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 1] {
            let mut torn = full.clone();
            torn.extend_from_slice(&next[..cut]);
            let (frames, intact) = walk(&torn, MAGIC);
            assert_eq!(frames.len(), 1, "cut={cut}");
            assert_eq!(intact, full.len(), "cut={cut}");
        }
    }

    #[test]
    fn encode_splits_at_the_row_cap() {
        // 11 rows at a 4-row cap: frames of 4 + 4 + 3, chained ordinals.
        let rows = [1u8; 11];
        let bytes = encode_rows(20, &rows, (4, usize::MAX));
        assert_eq!(bytes.len(), 11 + 3 * HEADER_LEN);
        let (frames, intact) = walk(&bytes, MAGIC);
        assert_eq!(intact, bytes.len());
        let shape: Vec<(u64, u32)> = frames.iter().map(|f| (f.base_ordinal, f.n_rows)).collect();
        assert_eq!(shape, vec![(20, 4), (24, 4), (28, 3)]);
    }

    #[test]
    fn encode_splits_at_the_payload_cap() {
        // A 10-byte cap: [3,4,2] = 9 (+5 would be 14), [5] (+6 would be
        // 11), [6,4] = 10 exactly, then [1].
        let rows = [3u8, 4, 2, 5, 6, 4, 1];
        let bytes = encode_rows(0, &rows, (usize::MAX, 10));
        let (frames, intact) = walk(&bytes, MAGIC);
        assert_eq!(intact, bytes.len());
        let shape: Vec<(u64, u32, usize)> = frames
            .iter()
            .map(|f| (f.base_ordinal, f.n_rows, f.payload(&bytes).len()))
            .collect();
        assert_eq!(shape, vec![(0, 3, 9), (3, 1, 5), (4, 2, 10), (6, 1, 1)]);
        let payloads: Vec<u8> = frames
            .iter()
            .flat_map(|f| f.payload(&bytes).to_vec())
            .collect();
        assert_eq!(payloads, frames_of(0, &rows)[HEADER_LEN..].to_vec());
    }

    #[test]
    fn writer_tracks_bytes_and_rewrite_replaces_atomically() {
        let dir = tmpdir("writer");
        let a = frames_of(0, &[1, 2, 3]);
        let (path, w) = log_with(&dir, &[&a, &[]]);
        assert_eq!(w.bytes(), a.len() as u64);
        assert_eq!(w.path(), path);
        let tmp = dir.join("log.tmp");
        let b = frames_of(2, &[3]);
        let mut w2 = FrameWriter::rewrite(&tmp, &path, &b).unwrap();
        assert_eq!(w2.bytes(), b.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), b);
        assert!(!tmp.exists());
        // The fresh handle appends after the rewritten bytes.
        w2.append(&frames_of(3, &[4])).unwrap();
        w2.sync().unwrap();
        let (frames, _) = walk(&std::fs::read(&path).unwrap(), MAGIC);
        assert_eq!(frames.len(), 2);
        let w3 = FrameWriter::rewrite(&tmp, &path, &[]).unwrap();
        assert_eq!(w3.bytes(), 0);
        assert!(read_log(&path).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_resumes_at_the_shipped_offset_with_verbatim_bytes() {
        let dir = tmpdir("tail");
        let (path, mut w) = log_with(&dir, &[&frames_of(0, &[1, 2])]);
        let t1 = tail_log(&path, MAGIC, 0, 0, false).unwrap();
        assert!(!t1.reset);
        assert_eq!((t1.frames, t1.rows), (1, 2));
        assert_eq!(t1.new_offset, t1.body.len() as u64);
        // Nothing new yet.
        let t2 = tail_log(&path, MAGIC, t1.new_offset, 2, false).unwrap();
        assert!(!t2.reset);
        assert!(t2.body.is_empty());
        assert_eq!((t2.frames, t2.new_offset), (0, t1.new_offset));
        // Only the new frames ship; the shipped bytes rebuild the log.
        w.append(&frames_of(2, &[3])).unwrap();
        w.append(&frames_of(3, &[4])).unwrap();
        let t3 = tail_log(&path, MAGIC, t2.new_offset, 2, false).unwrap();
        assert!(!t3.reset);
        assert_eq!((t3.frames, t3.rows), (2, 2));
        let mut copy = t1.body.clone();
        copy.extend_from_slice(&t3.body);
        assert_eq!(copy, std::fs::read(&path).unwrap());
        // A probe declares the same counts with no body.
        let p = tail_log(&path, MAGIC, t2.new_offset, 2, true).unwrap();
        assert!(p.body.is_empty());
        assert_eq!((p.frames, p.rows, p.reset), (2, 2, false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_resets_when_the_copy_does_not_continue_the_log() {
        let dir = tmpdir("tailreset");
        let (path, _w) = log_with(&dir, &[&frames_of(0, &[1, 2, 3])]);
        let t1 = tail_log(&path, MAGIC, 0, 0, false).unwrap();
        // The log shrinks (a seal rewrote it): the old offset is past EOF.
        let tmp = dir.join("log.tmp");
        let rewritten = frames_of(2, &[3]);
        FrameWriter::rewrite(&tmp, &path, &rewritten).unwrap();
        let t2 = tail_log(&path, MAGIC, t1.new_offset, 3, false).unwrap();
        assert!(t2.reset, "offset past EOF must reset");
        assert_eq!(t2.body, rewritten);
        assert_eq!((t2.frames, t2.rows), (1, 1));
        // A mid-frame offset is just as stale.
        assert!(tail_log(&path, MAGIC, 3, 3, false).unwrap().reset);
        // A frame boundary at the copy's exact length, but ending at
        // another ordinal: a rewritten log of the same size.
        let same_size = frames_of(3, &[1, 2, 3]);
        FrameWriter::rewrite(&tmp, &path, &same_size).unwrap();
        assert_eq!(same_size.len() as u64, t1.new_offset);
        let t3 = tail_log(&path, MAGIC, t1.new_offset, 3, false).unwrap();
        assert!(t3.reset, "same length, different ordinals must reset");
        assert_eq!(t3.body, same_size);
        // The same boundary at the expected ordinal continues.
        let t4 = tail_log(&path, MAGIC, t1.new_offset, 6, false).unwrap();
        assert!(!t4.reset);
        assert!(t4.body.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_waits_on_a_torn_frame_without_resetting() {
        let dir = tmpdir("tailtorn");
        let first = frames_of(0, &[1]);
        let boundary = first.len() as u64;
        let next = frames_of(1, &[2]);
        for cut in [2usize, HEADER_LEN - 1, HEADER_LEN + 1] {
            let (path, _w) = log_with(&dir, &[&first, &next[..cut]]);
            let t = tail_log(&path, MAGIC, boundary, 1, false).unwrap();
            assert!(!t.reset, "cut={cut}: a torn tail is not a divergence");
            assert!(t.body.is_empty());
            assert_eq!(t.new_offset, boundary);
            std::fs::remove_file(&path).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailing_a_missing_log_is_empty() {
        let dir = tmpdir("tailmissing");
        let t = tail_log(&dir.join("log.bin"), MAGIC, 0, 0, false).unwrap();
        assert!(!t.reset);
        assert!(t.body.is_empty());
        assert_eq!((t.frames, t.new_offset), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
