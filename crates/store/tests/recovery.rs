//! Fault-injection suite: seeded truncation and bit-flips against a real
//! store directory, then reopen and check that recovery quarantines
//! exactly the damaged tail and serves the intact prefix byte-for-byte.
//!
//! Corruption sites are drawn from a seeded `ChaCha8Rng`, so every run
//! exercises the same offsets and a failure reproduces from the seed
//! printed in the assertion message. The damage itself — truncation,
//! bit flips — comes from `aiio_testkit`, the same helpers the shard
//! failover and network replication suites use.

use std::path::PathBuf;

use aiio_darshan::{CounterId, JobLog};
use aiio_store::{CounterRange, Store, StoreConfig, StoreError};
use aiio_testkit::{flip_bit, truncate_file};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn tmpdir(tag: &str) -> PathBuf {
    aiio_testkit::tmpdir("aiio_store_fault", tag).unwrap()
}

fn rng(seed: u64) -> ChaCha8Rng {
    aiio_testkit::rng(seed)
}

/// A job with enough variety (app dictionary, counters, wall-clock floats)
/// that an encode/decode slip anywhere in the row shows up as inequality.
fn job(i: u64, rng: &mut ChaCha8Rng) -> JobLog {
    let mut j = JobLog::new(i, format!("app-{}", i % 5), 2018 + (i % 4) as u16);
    j.counters
        .set(CounterId::PosixReads, rng.gen_range(0.0f64..1e6).round());
    j.counters
        .set(CounterId::PosixWrites, rng.gen_range(0.0f64..1e6).round());
    j.counters
        .set(CounterId::PosixSeqReads, rng.gen_range(0.0f64..1e4));
    j.counters.set(
        CounterId::Nprocs,
        [8.0, 64.0, 512.0][rng.gen_range(0usize..3)],
    );
    j.time.total_read_time = rng.gen_range(0.0f64..300.0);
    j.time.total_write_time = rng.gen_range(0.0f64..300.0);
    j.time.total_meta_time = rng.gen_range(0.0f64..30.0);
    j.time.slowest_rank_seconds = rng.gen_range(0.0f64..600.0);
    j
}

fn jobs(n: u64, seed: u64) -> Vec<JobLog> {
    let mut rng = rng(seed);
    (0..n).map(|i| job(i, &mut rng)).collect()
}

fn cfg(rows_per_segment: usize, wal_block_rows: usize) -> StoreConfig {
    StoreConfig {
        rows_per_segment,
        wal_block_rows,
    }
}

fn read_rows(store: &Store) -> Vec<JobLog> {
    let mut out = Vec::with_capacity(store.len());
    store.scan(&mut |j| out.push(j.clone())).unwrap();
    out
}

/// Build a WAL-only store (segment threshold never reached) out of
/// `frames` frames of `rows_per_frame` rows each, returning the job list
/// and the cumulative byte offset at the end of each frame.
fn wal_only_store(
    dir: &PathBuf,
    frames: usize,
    rows_per_frame: usize,
    seed: u64,
) -> (Vec<JobLog>, Vec<u64>) {
    let all = jobs((frames * rows_per_frame) as u64, seed);
    let mut store = Store::open_with(dir, cfg(1 << 20, rows_per_frame)).unwrap();
    let mut frame_ends = Vec::with_capacity(frames);
    for chunk in all.chunks(rows_per_frame) {
        store.append_batch(chunk).unwrap();
        store.sync().unwrap();
        frame_ends.push(store.stats().wal_bytes);
    }
    assert_eq!(store.len(), all.len());
    drop(store);
    (all, frame_ends)
}

#[test]
fn truncated_wal_recovers_exact_frame_prefix() {
    let dir = tmpdir("wal_trunc");
    const FRAMES: usize = 12;
    const ROWS: usize = 8;
    let (all, frame_ends) = wal_only_store(&dir, FRAMES, ROWS, 0xA110);
    let wal_path = dir.join("wal.bin");
    let full = std::fs::read(&wal_path).unwrap();
    assert_eq!(full.len() as u64, *frame_ends.last().unwrap());

    let mut rng = rng(7);
    for trial in 0..24 {
        // Cut inside frame k+1 (or exactly at its start when delta == 0):
        // frames 0..=k survive, the partial frame is dropped. Restore the
        // full WAL first — the previous trial's open healed it shorter.
        let k = rng.gen_range(0..FRAMES - 1);
        let frame_len = (frame_ends[k + 1] - frame_ends[k]) as usize;
        let delta = rng.gen_range(0..frame_len) as u64;
        let cut = frame_ends[k] + delta;
        std::fs::write(&wal_path, &full).unwrap();
        truncate_file(&wal_path, cut).unwrap();

        let store = Store::open_with(&dir, cfg(1 << 20, ROWS)).unwrap();
        let report = store.recovery_report();
        let surviving = ROWS * (k + 1);
        assert_eq!(
            report.wal_rows_recovered,
            surviving,
            "trial {trial}: cut {cut} inside frame {} should keep {surviving} rows",
            k + 1
        );
        assert_eq!(report.wal_bytes_dropped, delta, "trial {trial}");
        assert_eq!(report.is_clean(), delta == 0, "trial {trial}");
        assert_eq!(
            read_rows(&store),
            all[..surviving],
            "trial {trial}: surviving prefix must be byte-for-byte intact"
        );
        drop(store);

        // Recovery rewrote the WAL to the live tail; a second open is clean.
        let store = Store::open_with(&dir, cfg(1 << 20, ROWS)).unwrap();
        assert!(
            store.recovery_report().is_clean(),
            "trial {trial}: reopen after heal"
        );
        assert_eq!(store.len(), surviving);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_payload_bit_flip_drops_frames_from_damage_onward() {
    let dir = tmpdir("wal_flip");
    const FRAMES: usize = 10;
    const ROWS: usize = 8;
    const HEADER: u64 = 24; // WAL block header bytes ahead of the payload
    let (all, frame_ends) = wal_only_store(&dir, FRAMES, ROWS, 0xB0B0);
    let wal_path = dir.join("wal.bin");
    let full = std::fs::read(&wal_path).unwrap();

    let mut rng = rng(11);
    for trial in 0..24 {
        // Flip one payload byte of frame k: the CRC catches it, frames
        // before k survive untouched, frame k and everything after drop.
        let k = rng.gen_range(0..FRAMES);
        let frame_start = if k == 0 { 0 } else { frame_ends[k - 1] };
        let payload_start = frame_start + HEADER;
        let idx = rng.gen_range(payload_start..frame_ends[k]) as usize;
        std::fs::write(&wal_path, &full).unwrap();
        flip_bit(&wal_path, idx, rng.gen_range(0u32..8)).unwrap();

        let store = Store::open_with(&dir, cfg(1 << 20, ROWS)).unwrap();
        let report = store.recovery_report();
        let surviving = ROWS * k;
        assert_eq!(
            report.wal_rows_recovered, surviving,
            "trial {trial}: flip at {idx}"
        );
        assert_eq!(
            report.wal_bytes_dropped,
            full.len() as u64 - frame_start,
            "trial {trial}: everything from frame {k} on is abandoned"
        );
        assert!(!report.is_clean(), "trial {trial}");
        assert_eq!(read_rows(&store), all[..surviving], "trial {trial}");
        drop(store);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_bit_flip_quarantines_exactly_that_segment() {
    let dir = tmpdir("seg_flip");
    const SEGS: usize = 5;
    const ROWS: usize = 16;
    let all = jobs((SEGS * ROWS) as u64, 0xC0DE);
    let mut store = Store::open_with(&dir, cfg(ROWS, 8)).unwrap();
    store.append_batch(&all).unwrap();
    assert_eq!(
        store.segments().len(),
        SEGS,
        "append seals full segments as it goes"
    );
    assert_eq!(store.stats().wal_rows, 0);
    let seg_paths: Vec<PathBuf> = store.segments().iter().map(|m| m.path.clone()).collect();
    drop(store);
    let clean: Vec<Vec<u8>> = seg_paths
        .iter()
        .map(|p| std::fs::read(p).unwrap())
        .collect();

    let mut rng = rng(13);
    for trial in 0..20 {
        let s = rng.gen_range(0..SEGS);
        let idx = rng.gen_range(0..clean[s].len());
        flip_bit(&seg_paths[s], idx, rng.gen_range(0u32..8)).unwrap();

        let store = Store::open_with(&dir, cfg(ROWS, 8)).unwrap();
        let report = store.recovery_report();
        assert_eq!(
            report.quarantined_segments.len(),
            1,
            "trial {trial}: flip of byte {idx} in segment {s} quarantines it alone"
        );
        assert!(
            report.quarantined_segments[0].ends_with(".quarantine"),
            "trial {trial}"
        );
        // Row count is best-effort: a flip inside the header/footer makes
        // the segment's own metadata unreadable, so recovery reports 0.
        assert!(
            report.quarantined_rows == ROWS || report.quarantined_rows == 0,
            "trial {trial}: quarantined_rows = {}",
            report.quarantined_rows
        );
        assert!(!report.is_clean(), "trial {trial}");
        assert_eq!(store.len(), (SEGS - 1) * ROWS, "trial {trial}");

        // Every surviving row is intact and in order; only the damaged
        // segment's rows are missing.
        let expect: Vec<JobLog> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| !(s * ROWS..(s + 1) * ROWS).contains(i))
            .map(|(_, j)| j.clone())
            .collect();
        assert_eq!(read_rows(&store), expect, "trial {trial}");
        assert!(
            !seg_paths[s].exists(),
            "trial {trial}: damaged file moved aside"
        );
        drop(store);

        // Restore the segment for the next trial.
        let q = seg_paths[s].with_file_name(format!(
            "{}.quarantine",
            seg_paths[s].file_name().unwrap().to_str().unwrap()
        ));
        let _ = std::fs::remove_file(&q);
        std::fs::write(&seg_paths[s], &clean[s]).unwrap();
    }

    // With every segment restored the store is whole again.
    let store = Store::open_with(&dir, cfg(ROWS, 8)).unwrap();
    assert!(store.recovery_report().is_clean());
    assert_eq!(read_rows(&store), all);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_segment_is_quarantined_not_served() {
    let dir = tmpdir("seg_trunc");
    const ROWS: usize = 16;
    let all = jobs((3 * ROWS) as u64, 0xF00D);
    let mut store = Store::open_with(&dir, cfg(ROWS, 8)).unwrap();
    store.append_batch(&all).unwrap();
    store.seal().unwrap();
    let seg_paths: Vec<PathBuf> = store.segments().iter().map(|m| m.path.clone()).collect();
    drop(store);

    let mut rng = rng(17);
    let bytes = std::fs::read(&seg_paths[1]).unwrap();
    let cut = rng.gen_range(1..bytes.len());
    truncate_file(&seg_paths[1], cut as u64).unwrap();

    let store = Store::open_with(&dir, cfg(ROWS, 8)).unwrap();
    let report = store.recovery_report();
    assert_eq!(report.quarantined_segments.len(), 1);
    assert_eq!(store.len(), 2 * ROWS);
    let got = read_rows(&store);
    assert_eq!(got[..ROWS], all[..ROWS]);
    assert_eq!(got[ROWS..], all[2 * ROWS..]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filtered_scan_is_unchanged_by_compaction() {
    let dir = tmpdir("par_det");
    const ROWS: usize = 16;
    // 3 full segments plus a 5-row WAL tail.
    let all = jobs(3 * ROWS as u64 + 5, 0xDEAD);
    let mut store = Store::open_with(&dir, cfg(ROWS, 8)).unwrap();
    store.append_batch(&all).unwrap();
    assert_eq!(store.segments().len(), 3);
    assert_eq!(store.stats().wal_rows, 5);

    // Zone-filtered scans see the same rows regardless of segment layout:
    // compact, reopen, filter again.
    let range = CounterRange {
        counter: CounterId::Nprocs,
        min: 500.0,
        max: f64::INFINITY,
    };
    let mut before = Vec::new();
    store
        .scan_filtered(&range, &mut |j| before.push(j.job_id))
        .unwrap();
    store.seal().unwrap();
    store.compact().unwrap();
    let mut after = Vec::new();
    store
        .scan_filtered(&range, &mut |j| after.push(j.job_id))
        .unwrap();
    assert_eq!(before, after, "compaction must not change filtered results");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A row with a 1 MiB app name: 65 of them encode past the 64 MiB frame
/// payload cap.
fn wide_job(i: u64) -> JobLog {
    let mut j = JobLog::new(i, format!("{i}-{}", "w".repeat(1 << 20)), 2020);
    j.counters.set(CounterId::PosixWrites, i as f64);
    j
}

#[test]
fn wal_past_the_frame_payload_cap_survives_repeated_reopens() {
    // One 65-row batch is 65 MiB of WAL payload. Every open rewrites the
    // WAL to the live tail; a rewrite (or append) that framed it as one
    // block would write a frame the next open discards whole.
    let dir = tmpdir("payload_cap");
    const N: u64 = 65;
    {
        let mut store = Store::open_with(&dir, cfg(1024, 128)).unwrap();
        store
            .append_batch(&(0..N).map(wide_job).collect::<Vec<_>>())
            .unwrap();
        store.sync().unwrap();
    }
    for reopen in 1..=2 {
        let store = Store::open_with(&dir, cfg(1024, 128)).unwrap();
        assert_eq!(
            store.recovery_report().wal_bytes_dropped,
            0,
            "reopen {reopen} dropped WAL bytes"
        );
        assert_eq!(store.len() as u64, N, "reopen {reopen} lost rows");
        let mut i = 0u64;
        store
            .scan(&mut |j| {
                assert!(*j == wide_job(i), "reopen {reopen}: row {i} differs");
                i += 1;
            })
            .unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rows_past_the_frame_payload_cap_are_refused_before_any_write() {
    let dir = tmpdir("oversized_row");
    let mut store = Store::open_with(&dir, cfg(1024, 8)).unwrap();
    let mut huge = wide_job(1);
    huge.app = "h".repeat(64 << 20);
    let err = store.append_batch(&[wide_job(0), huge]).unwrap_err();
    assert!(
        matches!(err, StoreError::Invalid(ref e) if e.job_id == 1),
        "{err}"
    );
    assert_eq!(store.len(), 0);
    assert_eq!(store.stats().wal_bytes, 0);
    assert_eq!(std::fs::metadata(dir.join("wal.bin")).unwrap().len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_between_seal_and_wal_rewrite_does_not_duplicate_rows() {
    // Simulate the crash window by hand: seal rows into a segment, then
    // put the pre-seal WAL (which still holds those rows) back on disk.
    let dir = tmpdir("dup_replay");
    const ROWS: usize = 16;
    let all = jobs(ROWS as u64 + 4, 0xACE);
    let mut store = Store::open_with(&dir, cfg(ROWS, 8)).unwrap();
    store.append_batch(&all[..ROWS]).unwrap();
    // One full segment sealed; WAL rewritten to empty tail.
    assert_eq!(store.segments().len(), 1);
    drop(store);

    // Forge the stale WAL a crash would have left: all rows from ordinal 0.
    let stale = aiio_store::wal::encode_block(0, &all);
    std::fs::write(dir.join("wal.bin"), &stale).unwrap();

    let store = Store::open_with(&dir, cfg(ROWS, 8)).unwrap();
    let report = store.recovery_report();
    assert_eq!(
        report.wal_rows_already_sealed, ROWS,
        "sealed rows filtered by ordinal"
    );
    assert_eq!(report.wal_rows_recovered, 4, "unsealed tail survives");
    assert_eq!(read_rows(&store), all, "no duplicates, no losses");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicated_wal_frames_replay_once() {
    // A replication follower's WAL can hold the same frame twice when a
    // ship pass crashed between appending frames and finishing; replay
    // must dedup by ordinal *inside* the WAL, not just against segments.
    let dir = tmpdir("dup_frames");
    let all = jobs(8, 0xBEE);
    let mut wal_bytes = Vec::new();
    wal_bytes.extend_from_slice(&aiio_store::wal::encode_block(0, &all[..5]));
    wal_bytes.extend_from_slice(&aiio_store::wal::encode_block(0, &all[..5]));
    wal_bytes.extend_from_slice(&aiio_store::wal::encode_block(5, &all[5..]));
    std::fs::write(dir.join("wal.bin"), &wal_bytes).unwrap();

    let store = Store::open_with(&dir, cfg(64, 8)).unwrap();
    let report = store.recovery_report();
    assert_eq!(
        report.wal_rows_already_sealed, 5,
        "duplicated frame's rows dropped"
    );
    assert_eq!(report.wal_rows_recovered, 8);
    assert_eq!(read_rows(&store), all, "each row exactly once, in order");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A row `JobLog::validate` must refuse, of a seeded kind: a short
/// counter vector (only reachable through serde), or a NaN, infinite or
/// negative counter or time value.
fn adversarial(i: u64, rng: &mut ChaCha8Rng) -> JobLog {
    let mut j = job(i, rng);
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0][rng.gen_range(0usize..4)];
    match rng.gen_range(0u32..3) {
        0 => {
            let mut json = serde_json::to_string(&j).unwrap();
            let start = json.find("\"values\":[").unwrap() + "\"values\":[".len();
            let end = start + json[start..].find(']').unwrap();
            json.replace_range(start..end, "1,2,3");
            serde_json::from_str(&json).unwrap()
        }
        1 => {
            let c = CounterId::ALL[rng.gen_range(0..CounterId::ALL.len())];
            j.counters.set(c, bad);
            j
        }
        _ => {
            j.time.slowest_rank_seconds = bad;
            j
        }
    }
}

#[test]
fn adversarial_rows_reject_their_whole_batch_and_never_reach_disk() {
    for seed in 0..6u64 {
        let dir = tmpdir(&format!("adversarial_{seed}"));
        let mut rng = rng(seed);
        let mut store = Store::open_with(&dir, cfg(16, 4)).unwrap();
        let mut accepted = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..40 {
            let n = rng.gen_range(1usize..9);
            let mut batch: Vec<JobLog> =
                (0..n).map(|k| job(next_id + k as u64, &mut rng)).collect();
            let poisoned = rng.gen_bool(0.4);
            if poisoned {
                let at = rng.gen_range(0..n);
                batch[at] = adversarial(next_id + at as u64, &mut rng);
            }
            let before = store.stats();
            match store.append_batch(&batch) {
                Err(StoreError::Invalid(_)) if poisoned => {
                    let after = store.stats();
                    assert_eq!(before.total_rows, after.total_rows, "seed {seed}");
                    assert_eq!(before.wal_bytes, after.wal_bytes, "seed {seed}");
                }
                Ok(()) if !poisoned => {
                    accepted.extend(batch);
                    next_id += n as u64;
                }
                other => panic!("seed {seed}: poisoned={poisoned} got {other:?}"),
            }
            if rng.gen_bool(0.1) {
                store.seal().unwrap();
            }
        }
        store.sync().unwrap();
        drop(store);
        let store = Store::open_with(&dir, cfg(16, 4)).unwrap();
        assert!(
            store.recovery_report().is_clean(),
            "seed {seed}: {:?}",
            store.recovery_report()
        );
        assert_eq!(read_rows(&store), accepted, "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
