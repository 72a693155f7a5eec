//! The write-ahead tail: CRC-framed row blocks appended on every ingest.
//!
//! Rows land in `wal.bin` first and move into a sealed columnar segment
//! when enough accumulate. The file is a [`crate::frames`] log under
//! magic `AWL2` (the trailing `2` is the format version: v2 extended the
//! frame CRC over the header fields); this module adds only the row
//! codec and the ordinal-tagged replay. Each frame's `base_ordinal`
//! stamps the global ordinal of its first row, which lets the store drop
//! WAL rows that a crash between "segment sealed" and "WAL rewritten"
//! left duplicated on disk.
//!
//! Recovery keeps every intact frame up to the first bad one — torn
//! header, implausible length, checksum mismatch or undecodable payload —
//! so a crash mid-append loses exactly the bytes past the last intact
//! frame. It does not require consecutive frames to chain their
//! ordinals: a replication follower's WAL may hold re-shipped frames,
//! which `Store::open_with`'s replay deduplicates.
//!
//! The WAL is only ever shrunk by [`rewrite`]: the surviving rows go to
//! `wal.tmp`, which is renamed over `wal.bin` — the same publish-by-rename
//! discipline segments use, so there is no window where a crash can eat
//! durable rows.

use std::path::Path;

use aiio_darshan::{CounterSet, InvalidJobLog, JobLog, TimeCounters, N_COUNTERS};

use crate::codec::{push_f64, push_u32, push_u64, read_f64, read_u32, read_u64};
use crate::error::Result;
use crate::frames::{self, FrameWriter, MAX_PAYLOAD_LEN};
use crate::schema::N_TIME_COLUMNS;

/// WAL file name inside a store directory.
pub const WAL_NAME: &str = "wal.bin";

/// Temporary file the WAL is rewritten through.
pub const WAL_TMP_NAME: &str = "wal.tmp";

/// Magic prefix of every WAL frame.
pub const WAL_MAGIC: &[u8; 4] = b"AWL2";

const FLOATS_PER_ROW: usize = N_COUNTERS + N_TIME_COLUMNS;

/// Encoded byte size of one row: id, year, app length, app, floats.
fn encoded_len(job: &JobLog) -> usize {
    16 + job.app.len() + FLOATS_PER_ROW * 8
}

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

/// Refuse a row too large for any WAL frame, so it is rejected before a
/// byte of its batch is written.
pub(crate) fn check_fits(job: &JobLog) -> std::result::Result<(), InvalidJobLog> {
    let len = encoded_len(job);
    if len > MAX_PAYLOAD_LEN as usize {
        return Err(InvalidJobLog {
            job_id: job.job_id,
            field: "row_bytes",
            value: len as f64,
        });
    }
    Ok(())
}

/// Serialize `jobs` as WAL frames, the first row at global ordinal
/// `base_ordinal` (one frame unless the batch passes a frame cap).
pub fn encode_block(base_ordinal: u64, jobs: &[JobLog]) -> Vec<u8> {
    let mut out = Vec::new();
    frames::encode(
        &mut out,
        WAL_MAGIC,
        base_ordinal,
        jobs,
        encoded_len,
        encode_job,
    );
    out
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

/// Replay `path`, keeping every frame up to the first framing, checksum
/// or row-decoding violation. Missing file = empty WAL. The file itself
/// is not modified; the store rewrites it afterwards via [`rewrite`].
pub fn recover(path: &Path) -> Result<WalRecovery> {
    let bytes = frames::read_log(path)?;
    let (found, _) = frames::walk(&bytes, WAL_MAGIC);
    let mut rows = Vec::new();
    let mut valid = 0usize;
    'frames: for frame in &found {
        let payload = frame.payload(&bytes);
        let mut pos = 0usize;
        let mut frame_rows = Vec::with_capacity(frame.n_rows as usize);
        for i in 0..u64::from(frame.n_rows) {
            match decode_job(payload, pos) {
                Some((job, next)) => {
                    frame_rows.push((frame.base_ordinal + i, job));
                    pos = next;
                }
                None => break 'frames,
            }
        }
        if pos != payload.len() {
            break;
        }
        rows.extend(frame_rows);
        valid = frame.end;
    }
    Ok(WalRecovery {
        rows,
        valid_bytes: valid as u64,
        dropped_bytes: (bytes.len() - valid) as u64,
    })
}

/// Atomically replace the WAL in `dir` with exactly `jobs` (frames under
/// the caps, or an empty file) via `wal.tmp` + rename, and return a fresh
/// append handle.
pub fn rewrite(dir: &Path, base_ordinal: u64, jobs: &[JobLog]) -> Result<FrameWriter> {
    FrameWriter::rewrite(
        &dir.join(WAL_TMP_NAME),
        &dir.join(WAL_NAME),
        &encode_block(base_ordinal, jobs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::HEADER_LEN;
    use aiio_darshan::CounterId;
    use std::path::PathBuf;

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

    fn append_block(w: &mut FrameWriter, base: u64, jobs: &[JobLog]) {
        w.append(&encode_block(base, jobs)).unwrap();
    }

    #[test]
    fn append_and_recover_roundtrips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(WAL_NAME);
        let mut w = FrameWriter::open_append(&path).unwrap();
        append_block(&mut w, 0, &[job(0), job(1)]);
        append_block(&mut w, 2, &[job(2)]);
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
    fn block_bytes_are_pinned() {
        // FNV-1a of a two-row AWL2 frame: any drift in the row codec or
        // the frame layout changes the bytes every existing WAL holds.
        let bytes = encode_block(41, &[job(0), job(1)]);
        assert_eq!(bytes.len(), HEADER_LEN + 2 * (16 + 5 + FLOATS_PER_ROW * 8));
        assert_eq!(&bytes[..4], WAL_MAGIC);
        assert_eq!(crate::codec::fnv1a64(&bytes), BLOCK_FNV);
    }

    /// The bytes every AWL2 WAL already on disk was written with.
    const BLOCK_FNV: u64 = 0x64c8_4809_53ae_9a05;

    #[test]
    fn recovery_truncates_at_first_bad_frame() {
        let dir = tmpdir("badframe");
        let path = dir.join(WAL_NAME);
        let mut w = FrameWriter::open_append(&path).unwrap();
        append_block(&mut w, 0, &[job(0)]);
        let good_len = std::fs::metadata(&path).unwrap().len();
        append_block(&mut w, 1, &[job(1), job(2)]);
        // Corrupt one payload byte of the second block.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = good_len as usize + HEADER_LEN + 3;
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
        let mut w = FrameWriter::open_append(&path).unwrap();
        append_block(&mut w, 0, &[job(0), job(1)]);
        let full = std::fs::read(&path).unwrap();
        // Simulate a crash that wrote only part of a trailing block.
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 5] {
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
        let mut w = FrameWriter::open_append(&path).unwrap();
        append_block(&mut w, 0, &[job(0), job(1), job(2)]);
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
    fn block_ordinals_gate_duplicate_replay() {
        // The store filters rows below its sealed watermark; verify the
        // ordinals recovery reports are the ones encode_block stamped.
        let dir = tmpdir("ordinals");
        let path = dir.join(WAL_NAME);
        let mut w = FrameWriter::open_append(&path).unwrap();
        append_block(&mut w, 100, &[job(0), job(1)]);
        let r = recover(&path).unwrap();
        assert_eq!(r.rows[0].0, 100);
        assert_eq!(r.rows[1].0, 101);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_past_the_payload_cap_are_refused() {
        let mut big = job(7);
        big.app = "x".repeat(MAX_PAYLOAD_LEN as usize - encoded_len(&job(0)) + 5 + 1);
        let err = check_fits(&big).unwrap_err();
        assert_eq!((err.job_id, err.field), (7, "row_bytes"));
        big.app.pop();
        assert_eq!(encoded_len(&big), MAX_PAYLOAD_LEN as usize);
        assert!(check_fits(&big).is_ok());
    }
}
