//! Two-host replication tests: a primary serve instance and a follower
//! on loopback, with a seeded fault proxy between them.
//!
//! The acceptance triad from the replication-transport issue:
//! 1. a clean pull leaves the follower byte-identical to the primary —
//!    `train_from_backend` on either side saves the same model bytes,
//!    at 1 and at 8 engine threads;
//! 2. seeded fault schedules (dropped connections mid-frame, stalls past
//!    the deadline, bit-flipped stream bytes, a primary killed mid-pass)
//!    never publish a corrupt or duplicate row on the follower — after
//!    every schedule the follower is a verified prefix of the primary,
//!    and a clean catch-up pass restores byte identity;
//! 3. any crash point in a pass resumes from the follower's derived
//!    intact offset without re-publishing an ordinal.
//!
//! Set `AIIO_REPL_SEED` to replay a schedule, `AIIO_REPL_LOG` to a path
//! to persist the fault log (written after every round, so the file
//! survives an assertion failure mid-test).

mod common;

use aiio::{AiioService, TrainConfig};
use aiio_darshan::JobLog;
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_replnet::{pull_pass, PullConfig};
use aiio_serve::ServeConfig;
use aiio_shard::ShardedStore;
use aiio_store::{Store, StoreConfig};
use aiio_testkit::{rng, tmpdir, Fault, FaultProxy};
use common::{build_primary, jobs_pool, metric_value, small_store, Running, SHARDS};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

/// Tight per-request posture for fault rounds: one attempt, no backoff,
/// a deadline the stall fault overshoots.
fn tight() -> PullConfig {
    PullConfig {
        deadline: Duration::from_millis(700),
        retries: 0,
        backoff: Duration::from_millis(0),
    }
}

/// One small-but-real service shared by every serve instance (training
/// dominates test wall-clock; the transport under test is cheap).
fn service() -> &'static AiioService {
    static CACHE: OnceLock<AiioService> = OnceLock::new();
    CACHE.get_or_init(|| {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 120,
            seed: 9,
            noise_sigma: 0.0,
        })
        .generate();
        AiioService::train(&oracle_cfg(), &db).unwrap()
    })
}

/// Training config for the byte-identity oracle: one model kind keeps
/// each oracle train cheap enough to run after every fault round.
fn oracle_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::fast();
    cfg.zoo = cfg.zoo.with_kinds(&[aiio::ModelKind::XgboostLike]);
    cfg.diagnosis.max_evals = 16;
    cfg
}

/// Every row as its JSON bytes, in journal order — sequence equality is
/// byte equality of the replicated data, and rules out duplicates (the
/// primary holds each ordinal exactly once).
fn fleet_rows(dir: &Path) -> Vec<String> {
    let fleet = ShardedStore::open_with(dir, SHARDS, small_store()).unwrap();
    assert_eq!(
        fleet.recovery_report().journal_entries_dropped,
        0,
        "follower journal admitted rows whose shard bytes never landed"
    );
    rows_of(&fleet)
}

fn rows_of(fleet: &ShardedStore) -> Vec<String> {
    fleet
        .read_all()
        .unwrap()
        .jobs()
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect()
}

/// The oracle: train from the backend, save, return the file bytes.
fn trained_bytes(backend: &dyn aiio_darshan::StoreBackend, tag: &str) -> Vec<u8> {
    let svc = AiioService::train_from_backend(&oracle_cfg(), backend).unwrap();
    let path =
        std::env::temp_dir().join(format!("aiio_repl_model_{tag}_{}.bin", std::process::id()));
    svc.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Reclaim exclusive ownership of a fleet directory. Must run *after*
/// the serve instance binds: the serve's own open at bind rewrites the
/// WALs, and whichever handle opens last owns the files. The serve
/// never writes again (the repl endpoints read files by path), so the
/// handle returned here is the single writer from this point on.
fn open_fleet(dir: &Path) -> ShardedStore {
    ShardedStore::open_with(dir, SHARDS, small_store()).unwrap()
}

fn append_wave(fleet: &mut ShardedStore, rows: std::ops::Range<usize>) {
    for job in &jobs_pool()[rows] {
        fleet.append(job).unwrap();
    }
    fleet.sync().unwrap();
}

#[test]
fn clean_two_host_sync_is_byte_identical_at_1_and_8_threads() {
    let prim = tmpdir("aiio_repl", "clean_primary").unwrap();
    let foll = tmpdir("aiio_repl", "clean_follower").unwrap();
    build_primary(&prim, 0..56);

    let server = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(prim.clone()),
            shards: SHARDS,
            ..ServeConfig::default()
        },
    );
    let base = format!("http://{}", server.addr);
    let fleet = open_fleet(&prim);

    let report = pull_pass(&foll, &base, &PullConfig::default()).unwrap();
    assert_eq!(report.layout, "fleet");
    assert_eq!(report.total_lag_frames(), 0);
    assert!(report.journal_bytes_shipped > 0);
    assert!(report.shards.iter().any(|s| s.segments_copied > 0));

    // The follower opens through real failover: its primary dirs are
    // empty, so every shard serves from the replicated copy.
    let follower = ShardedStore::open_with(&foll, SHARDS, small_store()).unwrap();
    assert_eq!(follower.recovery_report().failovers.len(), SHARDS);
    assert_eq!(rows_of(&follower), rows_of(&fleet));

    // Byte-identical trained model from either host, at 1 and 8 threads.
    for threads in [1usize, 8] {
        aiio_par::set_threads(threads);
        let p = trained_bytes(&fleet, "clean_p");
        let f = trained_bytes(&follower, "clean_f");
        assert!(!p.is_empty());
        assert_eq!(p, f, "model bytes diverged at {threads} threads");
    }

    // A second pass over an unchanged primary ships nothing.
    let again = pull_pass(&foll, &base, &PullConfig::default()).unwrap();
    assert_eq!(again.total_lag_frames(), 0);
    assert!(again.shards.iter().all(|s| s.frames_shipped == 0));
    assert!(again.shards.iter().all(|s| s.segments_copied == 0));
    assert_eq!(again.journal_bytes_shipped, 0);

    server.stop();
}

fn random_fault(rng: &mut ChaCha8Rng) -> Fault {
    match rng.gen_range(0u32..4) {
        0 => Fault::Refuse,
        1 => Fault::CutBodyAfter(rng.gen_range(0usize..2048)),
        2 => Fault::FlipBodyByte(rng.gen_range(0usize..4096)),
        _ => Fault::StallMs(1500),
    }
}

fn write_schedule_log(seed: u64, proxy: &FaultProxy) {
    if let Ok(path) = std::env::var("AIIO_REPL_LOG") {
        let mut text = format!("seed {seed}\n");
        for line in proxy.log() {
            text.push_str(&line);
            text.push('\n');
        }
        let _ = std::fs::write(path, text);
    }
}

/// The tentpole proof: seeded fault schedules against a live two-host
/// pair. After every schedule the follower must hold a verified prefix
/// of the primary (never a corrupt or duplicate row), and a clean
/// catch-up pass must restore full byte identity — including the
/// trained-model bytes. Ends by killing the primary mid-stream and
/// checking the follower still serves its last-synced bytes.
#[test]
fn seeded_fault_schedules_never_publish_corrupt_or_duplicate_rows() {
    let seed: u64 = std::env::var("AIIO_REPL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let mut rng = rng(seed);

    let prim = tmpdir("aiio_repl", "fault_primary").unwrap();
    let foll = tmpdir("aiio_repl", "fault_follower").unwrap();
    build_primary(&prim, 0..32);

    let server = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(prim.clone()),
            shards: SHARDS,
            ..ServeConfig::default()
        },
    );
    let proxy = FaultProxy::spawn(server.addr.parse().unwrap()).unwrap();
    let base = format!("http://{}", proxy.addr());
    let mut fleet = open_fleet(&prim);

    pull_pass(&foll, &base, &PullConfig::default()).unwrap();
    assert_eq!(fleet_rows(&foll), rows_of(&fleet));

    for round in 0..6u32 {
        let lo = 32 + 8 * round as usize;
        append_wave(&mut fleet, lo..lo + 8);
        if rng.gen_range(0u32..3) == 0 {
            // A primary seal rewrites its WAL: the next pull sees a
            // reset and must restart that shard's copy, not append.
            fleet.seal().unwrap();
            fleet.sync().unwrap();
        }

        // A clean fleet pass opens 8 connections (manifest, 3×segments,
        // 3×WAL, journal); scatter 1–3 faults across those slots.
        let mut schedule = vec![Fault::Pass; 8];
        for _ in 0..rng.gen_range(1usize..=3) {
            let slot = rng.gen_range(0usize..schedule.len());
            schedule[slot] = random_fault(&mut rng);
        }
        proxy.push(&schedule);
        // The faulty pass may fail outright or succeed with lag; both
        // must leave the follower a verified prefix.
        let _ = pull_pass(&foll, &base, &tight());
        proxy.clear();
        write_schedule_log(seed, &proxy);

        let primary_rows = rows_of(&fleet);
        let follower_rows = fleet_rows(&foll);
        assert!(
            follower_rows.len() <= primary_rows.len(),
            "round {round}: follower invented rows"
        );
        assert_eq!(
            follower_rows,
            primary_rows[..follower_rows.len()],
            "round {round}: follower diverged from the primary prefix"
        );

        // Clean catch-up: back to byte identity, model bytes included.
        let report = pull_pass(&foll, &base, &PullConfig::default()).unwrap();
        assert_eq!(report.total_lag_frames(), 0, "round {round}");
        assert_eq!(fleet_rows(&foll), primary_rows, "round {round}");
        let follower = ShardedStore::open_with(&foll, SHARDS, small_store()).unwrap();
        assert_eq!(
            trained_bytes(&fleet, "fault_p"),
            trained_bytes(&follower, "fault_f"),
            "round {round}: trained model bytes diverged after catch-up"
        );
    }

    // Kill the primary with the follower one wave behind: the pull must
    // fail without touching the follower, which keeps serving (and
    // training) its last-synced bytes.
    let synced_rows = rows_of(&fleet);
    let synced_model = trained_bytes(&fleet, "fault_dead");
    append_wave(&mut fleet, 80..88);
    server.stop();
    assert!(pull_pass(&foll, &base, &tight()).is_err());
    let follower_rows = fleet_rows(&foll);
    assert_eq!(follower_rows, synced_rows);
    assert!(follower_rows.len() < rows_of(&fleet).len());
    let follower = ShardedStore::open_with(&foll, SHARDS, small_store()).unwrap();
    assert_eq!(trained_bytes(&follower, "fault_fdead"), synced_model);

    write_schedule_log(seed, &proxy);
    proxy.stop();
}

/// Resume matrix over a plain (single-store) layout: cut the WAL stream
/// at an arbitrary byte, then re-pull. The restarted pass must resume
/// from the follower's derived intact offset — appending, never
/// resetting, never re-publishing an ordinal.
#[test]
fn any_crash_point_in_a_pass_resumes_without_duplicate_ordinals() {
    let seed: u64 = std::env::var("AIIO_REPL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let mut rng = rng(seed.wrapping_add(1));

    let prim = tmpdir("aiio_repl", "resume_primary").unwrap();
    let foll = tmpdir("aiio_repl", "resume_follower").unwrap();
    // Segment size above everything the loop appends: no auto-seal, so
    // the WAL stream is always the third connection of a pass and every
    // resume exercises the append path (never a reset).
    let cfg = StoreConfig {
        rows_per_segment: 64,
        wal_block_rows: 4,
    };
    let pool = jobs_pool();
    {
        // Build, then release the directory before the serve attaches
        // (opening a store rewrites its WAL; single-owner semantics).
        let mut store = Store::open_with(&prim, cfg).unwrap();
        for job in &pool[100..120] {
            store.append(job).unwrap();
        }
        store.seal().unwrap();
        for job in &pool[120..126] {
            store.append(job).unwrap();
        }
        store.sync().unwrap();
    }

    let server = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(prim.clone()),
            ..ServeConfig::default()
        },
    );
    let proxy = FaultProxy::spawn(server.addr.parse().unwrap()).unwrap();
    let base = format!("http://{}", proxy.addr());
    let mut store = Store::open_with(&prim, cfg).unwrap();

    let report = pull_pass(&foll, &base, &PullConfig::default()).unwrap();
    assert_eq!(report.layout, "single");

    // Raw-file reads: opening a store canonicalizes (rewrites) its WAL,
    // which would both disturb the live primary handle and hide the
    // exact-byte resume behaviour under test. The follower copy is only
    // opened once, at the end.
    let wal_bytes = |dir: &Path| std::fs::read(dir.join(aiio_store::wal::WAL_NAME)).unwrap();
    let intact = |dir: &Path| {
        let path = dir.join(aiio_store::wal::WAL_NAME);
        aiio_store::frames::tail_log(&path, aiio_store::wal::WAL_MAGIC, 0, 0, true)
            .map(|t| t.new_offset)
    };
    assert_eq!(wal_bytes(&foll), wal_bytes(&prim));

    for i in 0..8usize {
        let lo = 126 + 2 * i;
        for job in &pool[lo..lo + 2] {
            store.append(job).unwrap();
        }
        store.sync().unwrap();

        // Slots: manifest, segment listing, then the WAL stream — cut
        // the stream at a seeded byte (0 = before the first frame).
        let before = intact(&foll).unwrap();
        let cut = rng.gen_range(0usize..400);
        proxy.push(&[Fault::Pass, Fault::Pass, Fault::CutBodyAfter(cut)]);
        let torn = pull_pass(&foll, &base, &tight()).unwrap();
        proxy.clear();

        // The torn pass only ever extends the intact prefix, and what it
        // wrote is a verbatim prefix of the primary's WAL.
        let mid = intact(&foll).unwrap();
        assert!(mid >= before, "crash point {cut}: intact prefix shrank");
        let plen = mid as usize;
        assert_eq!(
            wal_bytes(&foll)[..plen],
            wal_bytes(&prim)[..plen],
            "crash point {cut}: published bytes diverge from the primary"
        );

        let resumed = pull_pass(&foll, &base, &PullConfig::default()).unwrap();
        assert_eq!(resumed.total_lag_frames(), 0);
        assert!(
            !resumed.shards[0].wal_reset,
            "crash point {cut}: resume restarted the WAL instead of appending"
        );
        // Byte equality of the whole WAL: the resume appended exactly
        // the missing frames — a re-published frame would duplicate
        // bytes here (torn pass shipped {torn.frames_shipped}).
        assert_eq!(
            wal_bytes(&foll),
            wal_bytes(&prim),
            "crash point {cut} (torn pass shipped {} frames, lag {})",
            torn.shards[0].frames_shipped,
            torn.total_lag_frames(),
        );
    }

    // Replay the follower copy once at the end: exact sequence equality
    // means every ordinal exactly once, in order — no duplicates.
    let follower_rows: Vec<String> = {
        let s = Store::open_with(&foll, cfg).unwrap();
        s.read_all()
            .unwrap()
            .jobs()
            .iter()
            .map(|j| serde_json::to_string(j).unwrap())
            .collect()
    };
    let primary_rows: Vec<String> = store
        .read_all()
        .unwrap()
        .jobs()
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();
    assert_eq!(follower_rows, primary_rows);

    server.stop();
    proxy.stop();
}

/// Follower serve wiring: `replication_lag_frames` rises when the
/// primary moves ahead, falls to zero after `POST /repl/sync`,
/// `serving_replica` is up on the follower (its shards fail over to the
/// replicated copies), and ingest on a follower answers 403.
#[test]
fn replication_gauges_track_lag_and_follower_refuses_ingest() {
    let prim = tmpdir("aiio_repl", "gauge_primary").unwrap();
    let foll = tmpdir("aiio_repl", "gauge_follower").unwrap();

    let primary = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(prim.clone()),
            shards: SHARDS,
            ..ServeConfig::default()
        },
    );
    let batch: Vec<String> = jobs_pool()[0..40]
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();
    let r = primary.rpc("POST", "/ingest", Some(&format!("[{}]", batch.join(","))));
    assert_eq!(r.status, 200, "{}", r.body);

    // A primary is not a follower: no sync endpoint, replica gauges 0.
    assert_eq!(primary.rpc("POST", "/repl/sync", Some("{}")).status, 404);
    let pm = primary.rpc("GET", "/metrics", None);
    assert_eq!(
        metric_value(&pm.body, "aiio_shard_serving_replica{shard=\"0\"}"),
        0
    );

    // The follower pulls once at bind, then serves from replica dirs.
    let follower = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(foll.clone()),
            shards: SHARDS,
            replicate_from: Some(format!("http://{}", primary.addr)),
            ..ServeConfig::default()
        },
    );
    let fm = follower.rpc("GET", "/metrics", None);
    assert_eq!(metric_value(&fm.body, "aiio_store_rows"), 40);
    for s in 0..SHARDS {
        assert_eq!(
            metric_value(
                &fm.body,
                &format!("aiio_shard_serving_replica{{shard=\"{s}\"}}")
            ),
            1,
            "shard {s} did not fail over to its replicated copy"
        );
    }

    // Rows belong on the primary.
    let denied = follower.rpc("POST", "/ingest", Some(&batch[0]));
    assert_eq!(denied.status, 403, "{}", denied.body);

    // Primary moves ahead; a probe measures the lag without writing.
    let more: Vec<String> = jobs_pool()[40..70]
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();
    let r = primary.rpc("POST", "/ingest", Some(&format!("[{}]", more.join(","))));
    assert_eq!(r.status, 200, "{}", r.body);

    let probe = follower.rpc("POST", "/repl/sync", Some("{\"probe\":true}"));
    assert_eq!(probe.status, 200, "{}", probe.body);
    assert!(probe.body.contains("\"probe\":true"), "{}", probe.body);
    let fm = follower.rpc("GET", "/metrics", None);
    let lag: u64 = (0..SHARDS)
        .map(|s| {
            metric_value(
                &fm.body,
                &format!("aiio_shard_replication_lag_frames{{shard=\"{s}\"}}"),
            )
        })
        .sum();
    assert!(lag > 0, "probe saw no lag after the primary moved ahead");
    // The probe wrote nothing: the follower still serves 40 rows.
    let fm_rows = metric_value(&fm.body, "aiio_store_rows");
    assert_eq!(fm_rows, 40);

    // A full sync ships the gap, reopens the store, zeroes the lag.
    let sync = follower.rpc("POST", "/repl/sync", Some("{}"));
    assert_eq!(sync.status, 200, "{}", sync.body);
    assert!(sync.body.contains("\"probe\":false"), "{}", sync.body);
    let fm = follower.rpc("GET", "/metrics", None);
    assert_eq!(metric_value(&fm.body, "aiio_store_rows"), 70);
    for s in 0..SHARDS {
        assert_eq!(
            metric_value(
                &fm.body,
                &format!("aiio_shard_replication_lag_frames{{shard=\"{s}\"}}"),
            ),
            0,
            "shard {s} lag did not fall to zero after sync"
        );
    }

    follower.stop();
    primary.stop();
}

/// The ordinal check over the wire: a primary seal rewrites its WAL and
/// four new 2-row frames put a frame boundary exactly at the follower's
/// old WAL length, so the offset alone looks current. The frame ending
/// there does not end at the ordinal the follower expects next; the
/// pass must restart the WAL instead of appending past rows 6..12 it
/// never received.
#[test]
fn stale_offset_on_a_rewritten_wal_frame_boundary_resets_instead_of_skipping() {
    let prim = tmpdir("aiio_repl", "join_primary").unwrap();
    let foll = tmpdir("aiio_repl", "join_follower").unwrap();
    let cfg = StoreConfig {
        rows_per_segment: 1024,
        wal_block_rows: 2,
    };
    // Equal-size rows, so equal row counts make equal frame lengths.
    let jobs: Vec<JobLog> = (0..14u64).map(|i| JobLog::new(i, "app", 2020)).collect();

    // Attach the serve to the empty directory first; the test's handle
    // opens last and is the single writer from then on.
    let server = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(prim.clone()),
            ..ServeConfig::default()
        },
    );
    let base = format!("http://{}", server.addr);
    let mut store = Store::open_with(&prim, cfg).unwrap();
    for pair in jobs[..6].chunks(2) {
        store.append_batch(pair).unwrap();
    }
    store.sync().unwrap();
    pull_pass(&foll, &base, &PullConfig::default()).unwrap();

    store.seal().unwrap();
    for pair in jobs[6..].chunks(2) {
        store.append_batch(pair).unwrap();
    }
    store.sync().unwrap();
    let report = pull_pass(&foll, &base, &PullConfig::default()).unwrap();

    let ids: Vec<u64> = Store::open_with(&foll, cfg)
        .unwrap()
        .read_all()
        .unwrap()
        .jobs()
        .iter()
        .map(|j| j.job_id)
        .collect();
    assert_eq!(ids, (0..14).collect::<Vec<u64>>());
    assert!(report.shards[0].wal_reset, "the stale offset must reset");
    assert_eq!(report.total_lag_frames(), 0);
    server.stop();
}
