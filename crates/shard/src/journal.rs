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
//! The file is an [`aiio_store::frames`] log — the store WAL's frame
//! format, CRC over header and payload — under magic `ASJ2`, with one
//! shard-id byte per row as the payload. On top of the shared walk,
//! recovery keeps frames only while their ordinals chain from zero and
//! every shard id is inside the fleet, so a tear from a crashed rewrite
//! truncates the replay there.
//!
//! The retired `ASJ1` format (a CRC over the payload only) is refused
//! at open rather than read: under the shared walker it would read as
//! empty, and an empty journal would make every shard row an orphan.

use std::path::Path;

use aiio_store::frames::{self, FrameWriter};
use aiio_store::{Result, StoreError};

use crate::hash::MAX_SHARDS;

/// Journal file name inside an epoch directory.
pub const JOURNAL_NAME: &str = "journal.bin";

/// Temporary file the journal is rewritten through.
pub const JOURNAL_TMP_NAME: &str = "journal.tmp";

/// Magic prefix of every journal frame.
pub const JOURNAL_MAGIC: &[u8; 4] = b"ASJ2";

/// Magic of the retired format-1 journal, refused at open.
const RETIRED_MAGIC: &[u8; 4] = b"ASJ1";

/// Serialize shard assignments as journal frames, the first row at global
/// ordinal `base_ordinal` (split at the shared frame row cap).
pub fn encode(base_ordinal: u64, shard_ids: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frames::encode(
        &mut out,
        JOURNAL_MAGIC,
        base_ordinal,
        shard_ids,
        |_| 1,
        |out, &id| out.push(id),
    );
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

/// Replay `path`, keeping frames up to the first framing, checksum,
/// ordinal-sequence or shard-range violation. A frame whose
/// `base_ordinal` is not the running row count is a tear from a crashed
/// rewrite and truncates the replay there. Missing file = empty journal;
/// a retired `ASJ1` journal is a [`StoreError::Format`].
pub fn recover(path: &Path, shards: usize) -> Result<JournalRecovery> {
    let bytes = frames::read_log(path)?;
    if bytes.starts_with(RETIRED_MAGIC) {
        return Err(StoreError::Format {
            path: path.to_path_buf(),
            detail: "retired ASJ1 ordinal journal; this build reads only ASJ2. \
                     Re-ingest the fleet into a fresh directory"
                .into(),
        });
    }
    let shards = shards.clamp(1, MAX_SHARDS) as u8 as usize;
    let (found, _) = frames::walk(&bytes, JOURNAL_MAGIC);
    let mut assignments: Vec<u8> = Vec::new();
    let mut valid = 0usize;
    for frame in &found {
        let payload = frame.payload(&bytes);
        if frame.base_ordinal != assignments.len() as u64
            || payload.len() != frame.n_rows as usize
            || payload.iter().any(|&s| s as usize >= shards)
        {
            break;
        }
        assignments.extend_from_slice(payload);
        valid = frame.end;
    }
    Ok(JournalRecovery {
        assignments,
        valid_bytes: valid as u64,
        dropped_bytes: (bytes.len() - valid) as u64,
    })
}

/// Atomically replace the journal in `dir` with exactly `assignments`
/// (frames chained from ordinal zero, or an empty file) via tmp + rename,
/// and return a fresh append handle.
pub fn rewrite(dir: &Path, assignments: &[u8]) -> Result<FrameWriter> {
    FrameWriter::rewrite(
        &dir.join(JOURNAL_TMP_NAME),
        &dir.join(JOURNAL_NAME),
        &encode(0, assignments),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_store::frames::HEADER_LEN;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("aiio_shard_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn open(dir: &Path) -> FrameWriter {
        FrameWriter::open_append(&dir.join(JOURNAL_NAME)).unwrap()
    }

    #[test]
    fn append_and_recover_roundtrips() {
        let dir = tmpdir("roundtrip");
        let mut w = open(&dir);
        w.append(&encode(0, &[0, 1, 2, 1])).unwrap();
        w.append(&encode(4, &[3, 0])).unwrap();
        let r = recover(w.path(), 4).unwrap();
        assert_eq!(r.assignments, vec![0, 1, 2, 1, 3, 0]);
        assert_eq!(r.dropped_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_truncates_at_corruption() {
        let dir = tmpdir("corrupt");
        let mut w = open(&dir);
        w.append(&encode(0, &[0, 1])).unwrap();
        let good = w.bytes();
        w.append(&encode(2, &[1, 0, 1])).unwrap();
        let path = w.path().to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = good as usize + HEADER_LEN + 1;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = recover(&path, 2).unwrap();
        assert_eq!(r.assignments, vec![0, 1]);
        assert_eq!(r.valid_bytes, good);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_header_fields_fail_the_frame_crc() {
        // ASJ1's CRC covered only the payload; under ASJ2 a flipped
        // n_rows or base_ordinal bit fails the frame checksum itself.
        let dir = tmpdir("headerflip");
        let path = dir.join(JOURNAL_NAME);
        let mut bytes = encode(0, &[0, 1]);
        let good = bytes.len();
        bytes.extend_from_slice(&encode(2, &[1, 1, 0]));
        // n_rows at 4..8, base_ordinal at 12..20 of the second frame.
        for idx in [good + 4, good + 12, good + 19] {
            let mut damaged = bytes.clone();
            damaged[idx] ^= 0x01;
            let (found, intact) = frames::walk(&damaged, JOURNAL_MAGIC);
            assert_eq!((found.len(), intact), (1, good), "flip at byte {idx}");
            std::fs::write(&path, &damaged).unwrap();
            let r = recover(&path, 2).unwrap();
            assert_eq!(r.assignments, vec![0, 1], "flip at byte {idx}");
            assert_eq!(r.valid_bytes, good as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rejects_out_of_sequence_and_out_of_range_frames() {
        let dir = tmpdir("sequence");
        let path = dir.join(JOURNAL_NAME);
        // Frame claiming base ordinal 5 with nothing before it.
        std::fs::write(&path, encode(5, &[0, 1])).unwrap();
        let r = recover(&path, 2).unwrap();
        assert!(r.assignments.is_empty());
        assert_eq!(r.dropped_bytes, std::fs::metadata(&path).unwrap().len());
        // Shard id past the fleet width.
        std::fs::write(&path, encode(0, &[0, 7])).unwrap();
        let r = recover(&path, 2).unwrap();
        assert!(r.assignments.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_handles_torn_tails() {
        let dir = tmpdir("torn");
        let path = dir.join(JOURNAL_NAME);
        let full = encode(0, &[1, 0]);
        for cut in [1usize, HEADER_LEN - 2, HEADER_LEN + 1] {
            let mut torn = full.clone();
            torn.extend_from_slice(&encode(2, &[0, 1, 1])[..cut]);
            std::fs::write(&path, &torn).unwrap();
            let r = recover(&path, 2).unwrap();
            assert_eq!(r.assignments, vec![1, 0], "cut={cut}");
            assert_eq!(r.dropped_bytes, cut as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_format_is_refused_not_read() {
        let dir = tmpdir("retired");
        let path = dir.join(JOURNAL_NAME);
        let mut asj1 = encode(0, &[0, 1]);
        asj1[..4].copy_from_slice(RETIRED_MAGIC);
        std::fs::write(&path, &asj1).unwrap();
        match recover(&path, 2) {
            Err(StoreError::Format { path: p, detail }) => {
                assert_eq!(p, path);
                assert!(detail.contains("ASJ1"), "{detail}");
            }
            other => panic!("an ASJ1 journal must be refused, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_is_atomic_and_resequences() {
        let dir = tmpdir("rewrite");
        let mut w = open(&dir);
        w.append(&encode(0, &[0, 1, 1, 0])).unwrap();
        let w2 = rewrite(&dir, &[0, 1]).unwrap();
        assert_eq!(w2.bytes(), (HEADER_LEN + 2) as u64);
        let r = recover(&dir.join(JOURNAL_NAME), 2).unwrap();
        assert_eq!(r.assignments, vec![0, 1]);
        assert!(!dir.join(JOURNAL_TMP_NAME).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
