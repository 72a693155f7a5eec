//! Sealed segments: immutable, columnar, checksummed.
//!
//! A sealed segment is one file holding `n_rows` jobs in column-major
//! order. Every region is independently CRC-32 framed so corruption is
//! pinned to a block, and the whole file is written to a staging path and
//! atomically renamed into place — a crash mid-seal leaves only a stale
//! staging file, never a half-written segment.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────┐
//! │ header   magic "AIIOSEG1" · version · n_rows · n_cols    │
//! │          base_ordinal · dict_len · CRC32(header)         │
//! ├──────────────────────────────────────────────────────────┤
//! │ app dictionary (JSON array of names) · CRC32(dict)       │
//! ├──────────────────────────────────────────────────────────┤
//! │ column 0:  n_rows × 8 B cells · CRC32(block)             │
//! │ column 1:  …                                             │
//! │ …          (53 columns, see `schema`)                    │
//! ├──────────────────────────────────────────────────────────┤
//! │ footer   per-column zone map (min,max) · CRC32(footer)   │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! `base_ordinal` is the global row ordinal of the segment's first job; it
//! is how recovery detects (and removes) stale pre-compaction segments
//! whose rows are already covered by a merged successor.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use aiio_darshan::JobLog;

use crate::codec::{crc32, fnv1a64, push_u32, push_u64, read_u32, read_u64};
use crate::error::{Result, StoreError};
use crate::schema::{decode_row, encode_row, zone_value, FORMAT_VERSION, N_STORE_COLUMNS};

/// Segment file magic.
pub const SEGMENT_MAGIC: &[u8; 8] = b"AIIOSEG1";

/// Fixed byte size of the segment header.
pub const HEADER_LEN: usize = 36;

/// Name of the staging file seals write through before the atomic rename.
pub const STAGING_NAME: &str = "seg-staging.tmp";

/// Suffix a corrupt segment is renamed to when quarantined.
pub const QUARANTINE_SUFFIX: &str = "quarantine";

const MAX_ROWS: u32 = 1 << 28;
const MAX_DICT_LEN: u32 = 1 << 26;

/// Per-column min/max over a sealed segment — the zone map scans use to
/// skip segments that cannot contain a matching row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneEntry {
    /// Smallest value in the column.
    pub min: f64,
    /// Largest value in the column.
    pub max: f64,
}

/// Everything the store keeps in memory about one sealed segment: identity,
/// row extent and the zone map. The row data itself stays on disk until a
/// scan streams it.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Path of the sealed file.
    pub path: PathBuf,
    /// Monotonic segment id (the number in `seg-<id>.seg`).
    pub id: u64,
    /// Rows in the segment.
    pub rows: usize,
    /// Global ordinal of the first row.
    pub base_ordinal: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 hash of the whole file — the content identity the
    /// segment cache keys on, so an entry cached for one generation of a
    /// path can never be served for another (compaction reuses the first
    /// member's id). Not CRC-32: the per-region CRC framing makes the
    /// whole-file CRC content-independent (see `codec::fnv1a64`).
    pub fingerprint: u64,
    /// One entry per store column.
    pub zones: Vec<ZoneEntry>,
}

impl SegmentMeta {
    /// Ordinal one past the segment's last row.
    pub fn end_ordinal(&self) -> u64 {
        self.base_ordinal + self.rows as u64
    }
}

/// File name of segment `id`.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.seg")
}

/// Parse a `seg-<id>.seg` file name back to its id.
pub fn parse_segment_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

fn corrupt(path: &Path, offset: u64, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        offset,
        detail: detail.into(),
    }
}

fn format_err(path: &Path, detail: impl Into<String>) -> StoreError {
    StoreError::Format {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Serialize `jobs` into segment bytes (header, dictionary, columns,
/// zone-map footer).
fn encode_segment(base_ordinal: u64, jobs: &[JobLog]) -> Vec<u8> {
    // App dictionary in order of first appearance, so ingesting the same
    // jobs always produces byte-identical segments.
    let mut dict: Vec<String> = Vec::new();
    let mut dict_index: BTreeMap<&str, u64> = BTreeMap::new();
    for job in jobs {
        if !dict_index.contains_key(job.app.as_str()) {
            dict_index.insert(job.app.as_str(), dict.len() as u64);
            dict.push(job.app.clone());
        }
    }
    let dict_json = serde_json::to_vec(&dict).unwrap_or_else(|_| b"[]".to_vec());

    let rows: Vec<[u64; N_STORE_COLUMNS]> = jobs
        .iter()
        .map(|job| {
            let idx = dict_index.get(job.app.as_str()).copied().unwrap_or(0);
            encode_row(job, idx)
        })
        .collect();

    let mut out = Vec::with_capacity(
        HEADER_LEN + dict_json.len() + 4 + N_STORE_COLUMNS * (jobs.len() * 8 + 4 + 16) + 4,
    );
    out.extend_from_slice(SEGMENT_MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u32(&mut out, jobs.len() as u32);
    push_u32(&mut out, N_STORE_COLUMNS as u32);
    push_u64(&mut out, base_ordinal);
    push_u32(&mut out, dict_json.len() as u32);
    let header_crc = crc32(&out[8..]);
    push_u32(&mut out, header_crc);

    out.extend_from_slice(&dict_json);
    push_u32(&mut out, crc32(&dict_json));

    let mut zones = Vec::with_capacity(N_STORE_COLUMNS);
    for col in 0..N_STORE_COLUMNS {
        let start = out.len();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for row in &rows {
            push_u64(&mut out, row[col]);
            let v = zone_value(col, row[col]);
            min = min.min(v);
            max = max.max(v);
        }
        let block_crc = crc32(&out[start..]);
        push_u32(&mut out, block_crc);
        zones.push(ZoneEntry { min, max });
    }

    let footer_start = out.len();
    for z in &zones {
        push_u64(&mut out, z.min.to_bits());
        push_u64(&mut out, z.max.to_bits());
    }
    let footer_crc = crc32(&out[footer_start..]);
    push_u32(&mut out, footer_crc);
    out
}

/// Seal `jobs` into `dir/seg-<id>.seg` via the staging file + atomic
/// rename, fsyncing the staging file first so the rename publishes fully
/// durable bytes.
pub fn write_segment(
    dir: &Path,
    id: u64,
    base_ordinal: u64,
    jobs: &[JobLog],
) -> Result<SegmentMeta> {
    let path = dir.join(segment_file_name(id));
    crate::durable_replace(
        &dir.join(STAGING_NAME),
        &path,
        &encode_segment(base_ordinal, jobs),
    )?;
    load_meta(&path)
}

struct ParsedHeader {
    n_rows: usize,
    dict_len: usize,
    base_ordinal: u64,
}

fn parse_header(path: &Path, bytes: &[u8]) -> Result<ParsedHeader> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(path, 0, "file shorter than segment header"));
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(format_err(path, "bad segment magic"));
    }
    let stored_crc = read_u32(bytes, HEADER_LEN - 4).unwrap_or(0);
    let actual_crc = crc32(&bytes[8..HEADER_LEN - 4]);
    if stored_crc != actual_crc {
        return Err(corrupt(path, 0, "header checksum mismatch"));
    }
    let version = read_u32(bytes, 8).unwrap_or(0);
    if version != FORMAT_VERSION {
        return Err(format_err(
            path,
            format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
        ));
    }
    let n_rows = read_u32(bytes, 12).unwrap_or(0);
    let n_cols = read_u32(bytes, 16).unwrap_or(0);
    let base_ordinal = read_u64(bytes, 20).unwrap_or(0);
    let dict_len = read_u32(bytes, 28).unwrap_or(0);
    if n_cols as usize != N_STORE_COLUMNS {
        return Err(format_err(
            path,
            format!("segment has {n_cols} columns, this build expects {N_STORE_COLUMNS}"),
        ));
    }
    if n_rows > MAX_ROWS || dict_len > MAX_DICT_LEN {
        return Err(corrupt(path, 8, "implausible row or dictionary size"));
    }
    Ok(ParsedHeader {
        n_rows: n_rows as usize,
        dict_len: dict_len as usize,
        base_ordinal,
    })
}

fn expected_len(h: &ParsedHeader) -> usize {
    HEADER_LEN + h.dict_len + 4 + N_STORE_COLUMNS * (h.n_rows * 8 + 4) + N_STORE_COLUMNS * 16 + 4
}

fn footer_offset(h: &ParsedHeader) -> usize {
    expected_len(h) - (N_STORE_COLUMNS * 16 + 4)
}

/// Load the metadata (header + zone-map footer) of a sealed segment,
/// verifying their checksums but not the column data.
pub fn load_meta(path: &Path) -> Result<SegmentMeta> {
    let bytes = std::fs::read(path)?;
    let h = parse_header(path, &bytes)?;
    if bytes.len() != expected_len(&h) {
        return Err(corrupt(
            path,
            bytes.len() as u64,
            format!(
                "truncated segment: {} bytes on disk, header implies {}",
                bytes.len(),
                expected_len(&h)
            ),
        ));
    }
    let foff = footer_offset(&h);
    let footer = &bytes[foff..bytes.len() - 4];
    let stored = read_u32(&bytes, bytes.len() - 4).unwrap_or(0);
    if crc32(footer) != stored {
        return Err(corrupt(
            path,
            foff as u64,
            "zone-map footer checksum mismatch",
        ));
    }
    let mut zones = Vec::with_capacity(N_STORE_COLUMNS);
    for col in 0..N_STORE_COLUMNS {
        let min = read_u64(footer, col * 16)
            .map(f64::from_bits)
            .unwrap_or(0.0);
        let max = read_u64(footer, col * 16 + 8)
            .map(f64::from_bits)
            .unwrap_or(0.0);
        zones.push(ZoneEntry { min, max });
    }
    let id = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_segment_id)
        .ok_or_else(|| format_err(path, "segment file name is not seg-<id>.seg"))?;
    Ok(SegmentMeta {
        path: path.to_path_buf(),
        id,
        rows: h.n_rows,
        base_ordinal: h.base_ordinal,
        bytes: bytes.len() as u64,
        fingerprint: fnv1a64(&bytes),
        zones,
    })
}

/// Read and fully verify a sealed segment, decoding every row. Verifies
/// the header, dictionary, per-column and footer checksums; any mismatch
/// is a [`StoreError::Corrupt`] naming the offending block.
pub fn read_jobs(path: &Path) -> Result<Vec<JobLog>> {
    let bytes = std::fs::read(path)?;
    decode_jobs(path, &bytes)
}

/// Decode (and fully CRC-verify) segment bytes already read from `path`.
/// Split out of [`read_jobs`] so the segment cache can fingerprint the
/// exact bytes it decoded in one pass over the file.
pub fn decode_jobs(path: &Path, bytes: &[u8]) -> Result<Vec<JobLog>> {
    let h = parse_header(path, bytes)?;
    if bytes.len() != expected_len(&h) {
        return Err(corrupt(
            path,
            bytes.len() as u64,
            format!(
                "truncated segment: {} bytes on disk, header implies {}",
                bytes.len(),
                expected_len(&h)
            ),
        ));
    }

    let dict_start = HEADER_LEN;
    let dict_end = dict_start + h.dict_len;
    let dict_bytes = &bytes[dict_start..dict_end];
    let stored = read_u32(bytes, dict_end).unwrap_or(0);
    if crc32(dict_bytes) != stored {
        return Err(corrupt(
            path,
            dict_start as u64,
            "app dictionary checksum mismatch",
        ));
    }
    let apps: Vec<String> = serde_json::from_slice(dict_bytes).map_err(|e| {
        corrupt(
            path,
            dict_start as u64,
            format!("app dictionary unparsable: {e}"),
        )
    })?;

    let mut rows = vec![[0u64; N_STORE_COLUMNS]; h.n_rows];
    let mut off = dict_end + 4;
    for col in 0..N_STORE_COLUMNS {
        let block_len = h.n_rows * 8;
        let block = &bytes[off..off + block_len];
        let stored = read_u32(bytes, off + block_len).unwrap_or(0);
        if crc32(block) != stored {
            return Err(corrupt(
                path,
                off as u64,
                format!(
                    "column `{}` checksum mismatch",
                    crate::schema::column_name(col)
                ),
            ));
        }
        for (r, row) in rows.iter_mut().enumerate() {
            row[col] = read_u64(block, r * 8).unwrap_or(0);
        }
        off += block_len + 4;
    }

    let foff = footer_offset(&h);
    let footer = &bytes[foff..bytes.len() - 4];
    let stored = read_u32(bytes, bytes.len() - 4).unwrap_or(0);
    if crc32(footer) != stored {
        return Err(corrupt(
            path,
            foff as u64,
            "zone-map footer checksum mismatch",
        ));
    }

    let mut jobs = Vec::with_capacity(h.n_rows);
    for (r, row) in rows.iter().enumerate() {
        let job = decode_row(row, &apps)
            .ok_or_else(|| corrupt(path, 0, format!("row {r} has out-of-range references")))?;
        jobs.push(job);
    }
    Ok(jobs)
}

/// Read one raw column of a sealed segment, CRC-verified, without
/// decoding any rows. This is the targeted read behind segment hash-range
/// metadata: a rebalance plan needs only the job-id column
/// (`schema::COL_JOB_ID`) of each segment to know which target shards its
/// hash range spans — 8 bytes per row instead of a full decode.
pub fn read_column_u64(path: &Path, col: usize) -> Result<Vec<u64>> {
    if col >= N_STORE_COLUMNS {
        return Err(format_err(
            path,
            format!("column {col} out of range (store has {N_STORE_COLUMNS})"),
        ));
    }
    let bytes = std::fs::read(path)?;
    let h = parse_header(path, &bytes)?;
    if bytes.len() != expected_len(&h) {
        return Err(corrupt(
            path,
            bytes.len() as u64,
            format!(
                "truncated segment: {} bytes on disk, header implies {}",
                bytes.len(),
                expected_len(&h)
            ),
        ));
    }
    let block_len = h.n_rows * 8;
    let off = HEADER_LEN + h.dict_len + 4 + col * (block_len + 4);
    let block = &bytes[off..off + block_len];
    let stored = read_u32(&bytes, off + block_len).unwrap_or(0);
    if crc32(block) != stored {
        return Err(corrupt(
            path,
            off as u64,
            format!(
                "column `{}` checksum mismatch",
                crate::schema::column_name(col)
            ),
        ));
    }
    let mut out = Vec::with_capacity(h.n_rows);
    for r in 0..h.n_rows {
        out.push(read_u64(block, r * 8).unwrap_or(0));
    }
    Ok(out)
}

/// Rename a damaged segment aside (`seg-<id>.seg.quarantine`) so it never
/// shadows a live id again; returns the quarantine path.
pub fn quarantine(path: &Path) -> Result<PathBuf> {
    let mut name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("segment")
        .to_string();
    name.push('.');
    name.push_str(QUARANTINE_SUFFIX);
    let dest = path.with_file_name(name);
    std::fs::rename(path, &dest)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_darshan::CounterId;

    fn job(i: u64, app: &str) -> JobLog {
        let mut j = JobLog::new(i, app, 2019 + (i % 3) as u16);
        j.counters.set(CounterId::PosixSeqReads, i as f64 * 1.5);
        j.counters.set(CounterId::Nprocs, 8.0);
        j.time.slowest_rank_seconds = 0.25 * (i + 1) as f64;
        j
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aiio_store_seg_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn seal_and_read_roundtrips_bit_exactly() {
        let dir = tmpdir("roundtrip");
        let jobs: Vec<JobLog> = (0..10)
            .map(|i| job(i, if i % 2 == 0 { "ior" } else { "e2e" }))
            .collect();
        let meta = write_segment(&dir, 1, 0, &jobs).unwrap();
        assert_eq!(meta.rows, 10);
        assert_eq!(meta.id, 1);
        assert_eq!(meta.end_ordinal(), 10);
        assert!(
            !dir.join(STAGING_NAME).exists(),
            "staging cleaned by rename"
        );
        let back = read_jobs(&meta.path).unwrap();
        assert_eq!(back, jobs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zone_maps_track_column_extents() {
        let dir = tmpdir("zones");
        let jobs: Vec<JobLog> = (3..9).map(|i| job(i, "ior")).collect();
        let meta = write_segment(&dir, 2, 7, &jobs).unwrap();
        let col = crate::schema::counter_column(CounterId::PosixSeqReads);
        let z = meta.zones[col];
        assert_eq!(z.min.to_bits(), (4.5f64).to_bits());
        assert_eq!(z.max.to_bits(), (12.0f64).to_bits());
        let idz = meta.zones[crate::schema::COL_JOB_ID];
        assert_eq!(idz.min.to_bits(), 3.0f64.to_bits());
        assert_eq!(idz.max.to_bits(), 8.0f64.to_bits());
        assert_eq!(meta.base_ordinal, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_any_region_is_detected() {
        let dir = tmpdir("bitflip");
        let jobs: Vec<JobLog> = (0..6).map(|i| job(i, "ior")).collect();
        let meta = write_segment(&dir, 3, 0, &jobs).unwrap();
        let clean = std::fs::read(&meta.path).unwrap();
        // Flip a bit in a handful of offsets spread over every region.
        for &off in &[
            9usize,
            HEADER_LEN + 2,
            HEADER_LEN + 40,
            clean.len() / 2,
            clean.len() - 10,
        ] {
            let mut bad = clean.clone();
            bad[off] ^= 0x10;
            std::fs::write(&meta.path, &bad).unwrap();
            let err = read_jobs(&meta.path);
            assert!(err.is_err(), "flip at {off} undetected");
        }
        std::fs::write(&meta.path, &clean).unwrap();
        assert!(read_jobs(&meta.path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_detected_by_meta_load() {
        let dir = tmpdir("trunc");
        let jobs: Vec<JobLog> = (0..6).map(|i| job(i, "ior")).collect();
        let meta = write_segment(&dir, 4, 0, &jobs).unwrap();
        let clean = std::fs::read(&meta.path).unwrap();
        std::fs::write(&meta.path, &clean[..clean.len() - 17]).unwrap();
        assert!(matches!(
            load_meta(&meta.path),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn targeted_column_read_matches_full_decode() {
        let dir = tmpdir("colread");
        let jobs: Vec<JobLog> = (10..17).map(|i| job(i, "ior")).collect();
        let meta = write_segment(&dir, 6, 0, &jobs).unwrap();
        let ids = read_column_u64(&meta.path, crate::schema::COL_JOB_ID).unwrap();
        assert_eq!(ids, (10..17).collect::<Vec<u64>>());
        assert!(read_column_u64(&meta.path, crate::schema::N_STORE_COLUMNS).is_err());
        // A flip inside the job-id column is caught by the targeted read.
        let clean = std::fs::read(&meta.path).unwrap();
        let mut bad = clean.clone();
        bad[HEADER_LEN + 40] ^= 0x04;
        std::fs::write(&meta.path, &bad).unwrap();
        assert!(read_column_u64(&meta.path, crate::schema::COL_JOB_ID).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_moves_the_file_aside() {
        let dir = tmpdir("quar");
        let jobs: Vec<JobLog> = (0..2).map(|i| job(i, "x")).collect();
        let meta = write_segment(&dir, 5, 0, &jobs).unwrap();
        let q = quarantine(&meta.path).unwrap();
        assert!(!meta.path.exists());
        assert!(q.exists());
        assert!(q.to_string_lossy().ends_with(".quarantine"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_file_name(7), "seg-00000007.seg");
        assert_eq!(parse_segment_id("seg-00000007.seg"), Some(7));
        assert_eq!(parse_segment_id("seg-7.seg"), None);
        assert_eq!(parse_segment_id("seg-00000007.seg.quarantine"), None);
        assert_eq!(parse_segment_id("wal.bin"), None);
    }
}
