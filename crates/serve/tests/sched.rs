//! Control-plane integration tests: a live serve instance with the
//! embedded scheduler doing the maintenance a human used to.
//!
//! The acceptance triad from the control-plane issue:
//! 1. a follower behind a seeded fault proxy converges to zero
//!    replication lag with **no** external `POST /repl/sync` — the
//!    scheduled pull plus bounded backoff is the whole story;
//! 2. drift-triggered retraining hot-swaps the model while concurrent
//!    `/diagnose` traffic drops zero requests;
//! 3. auto-compaction folds the WAL into segments once the configured
//!    thresholds are crossed, without losing a row.
//!
//! Set `AIIO_SCHED_SEED` to replay a fault schedule, `AIIO_SCHED_LOG`
//! to a path to persist the proxy's fault log (written after every
//! round, so the file survives an assertion failure mid-test).

mod common;

use aiio::{AiioService, TrainConfig};
use aiio_darshan::CounterId;
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_serve::client::request;
use aiio_serve::{ControlConfig, ServeConfig, Server};
use aiio_shard::ShardedStore;
use aiio_store::CompactionTrigger;
use aiio_testkit::{rng, tmpdir, Fault, FaultProxy};
use common::{build_primary, jobs_pool, metric_value, small_store, Running, RPC_TIMEOUT, SHARDS};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn sched_seed() -> u64 {
    std::env::var("AIIO_SCHED_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// One small-but-real service shared by every serve instance (training
/// dominates test wall-clock; the control plane under test is cheap).
fn service() -> &'static AiioService {
    static CACHE: OnceLock<AiioService> = OnceLock::new();
    CACHE.get_or_init(|| {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 120,
            seed: 9,
            noise_sigma: 0.0,
        })
        .generate();
        let mut cfg = TrainConfig::fast();
        cfg.zoo = cfg.zoo.with_kinds(&[aiio::ModelKind::XgboostLike]);
        cfg.diagnosis.max_evals = 16;
        AiioService::train(&cfg, &db).unwrap()
    })
}

/// Poll `/metrics` until `pred` holds or the deadline passes; returns
/// the last scrape either way.
fn wait_for_metrics(s: &Running, deadline: Duration, pred: impl Fn(&str) -> bool) -> String {
    let end = Instant::now() + deadline;
    loop {
        let body = s.rpc("GET", "/metrics", None).body;
        if pred(&body) || Instant::now() >= end {
            return body;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
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
    if let Ok(path) = std::env::var("AIIO_SCHED_LOG") {
        let mut text = format!("seed {seed}\n");
        for line in proxy.log() {
            text.push_str(&line);
            text.push('\n');
        }
        let _ = std::fs::write(path, text);
    }
}

/// The tentpole proof: a follower whose only sync mechanism is the
/// scheduled pull, behind a seeded fault proxy, while the primary keeps
/// appending. Faulted passes fail and back off; once the schedule
/// drains, the follower must converge to zero lag on every shard —
/// nobody ever POSTs `/repl/sync`.
#[test]
fn scheduled_pull_converges_to_zero_lag_under_seeded_faults() {
    let seed = sched_seed();
    let mut schedule_rng = rng(seed);

    let prim = tmpdir("aiio_sched", "pull_primary").unwrap();
    let foll = tmpdir("aiio_sched", "pull_follower").unwrap();
    build_primary(&prim, 0..32);

    let primary = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(prim.clone()),
            shards: SHARDS,
            ..ServeConfig::default()
        },
    );
    let proxy = FaultProxy::spawn(primary.addr.parse().unwrap()).unwrap();
    let mut fleet = ShardedStore::open_with(&prim, SHARDS, small_store()).unwrap();

    // The follower's entire sync policy: a 50 ms scheduled pull with
    // seeded jitter. The bind-time pull runs through a clean proxy.
    let follower = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(foll.clone()),
            shards: SHARDS,
            replicate_from: Some(format!("http://{}", proxy.addr())),
            control: ControlConfig {
                pull_every: Some(Duration::from_millis(50)),
                jitter: Duration::from_millis(10),
                seed,
                ..ControlConfig::default()
            },
            ..ServeConfig::default()
        },
    );

    for round in 0..4u32 {
        let lo = 32 + 8 * round as usize;
        for job in &jobs_pool()[lo..lo + 8] {
            fleet.append(job).unwrap();
        }
        fleet.sync().unwrap();
        if schedule_rng.gen_range(0u32..3) == 0 {
            fleet.seal().unwrap();
            fleet.sync().unwrap();
        }

        // Scatter faults over the next pull passes' connection slots;
        // round 0 pins a Refuse so at least one whole pass fails and
        // the backoff/failure counters provably move.
        let mut schedule = vec![Fault::Pass; 8];
        for _ in 0..schedule_rng.gen_range(1usize..=3) {
            let slot = schedule_rng.gen_range(0usize..schedule.len());
            schedule[slot] = random_fault(&mut schedule_rng);
        }
        if round == 0 {
            schedule[0] = Fault::Refuse;
        }
        proxy.push(&schedule);
        // Let scheduled passes chew through the faults (backed-off
        // retries may stretch this; the queue drains, we don't wait for
        // quiescence here).
        std::thread::sleep(Duration::from_millis(400));
        proxy.clear();
        write_schedule_log(seed, &proxy);
    }

    // Convergence: with the fault queue drained, scheduled pulls alone
    // must bring every shard's lag to zero and ship all 64 rows. Rows and
    // lag move inside a pass, but `runs_total` and the backoff gauge only
    // when it returns, and a pass that met a `StallMs` slot can be the
    // one that converges, still in flight (the stall is well inside the
    // pull's per-request deadline). So the scheduler's own evidence is
    // part of the wait, and the asserts below read one settled scrape.
    let body = wait_for_metrics(&follower, Duration::from_secs(60), |b| {
        metric_value(b, "aiio_store_rows") == 64
            && (0..SHARDS).all(|s| {
                metric_value(
                    b,
                    &format!("aiio_shard_replication_lag_frames{{shard=\"{s}\"}}"),
                ) == 0
            })
            && metric_value(b, "aiio_sched_runs_total{task=\"pull\"}") >= 4
            && metric_value(b, "aiio_sched_backoff_level{task=\"pull\"}") == 0
    });
    assert_eq!(metric_value(&body, "aiio_store_rows"), 64, "{body}");
    for s in 0..SHARDS {
        assert_eq!(
            metric_value(
                &body,
                &format!("aiio_shard_replication_lag_frames{{shard=\"{s}\"}}"),
            ),
            0,
            "shard {s} never converged:\n{body}"
        );
    }

    // The scheduler really drove it: pulls ran, the pinned Refuse
    // registered as a failure, and the first healthy pass after the
    // faults reset the backoff gauge.
    assert!(metric_value(&body, "aiio_sched_runs_total{task=\"pull\"}") >= 4);
    assert!(metric_value(&body, "aiio_sched_failures_total{task=\"pull\"}") >= 1);
    assert_eq!(
        metric_value(&body, "aiio_sched_backoff_level{task=\"pull\"}"),
        0,
        "backoff did not reset after convergence:\n{body}"
    );

    // The follower's copy is the primary's, row for row.
    let primary_rows: Vec<String> = fleet
        .read_all()
        .unwrap()
        .jobs()
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();
    follower.stop();
    let copy = ShardedStore::open_with(&foll, SHARDS, small_store()).unwrap();
    let follower_rows: Vec<String> = copy
        .read_all()
        .unwrap()
        .jobs()
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();
    assert_eq!(follower_rows, primary_rows);

    write_schedule_log(seed, &proxy);
    proxy.stop();
    primary.stop();
}

/// Drift-triggered retrain: ingest a tail whose `POSIX_OPENS` counter
/// jumped six decades, watch the scheduled retrain hot-swap the model,
/// and hammer `/diagnose` throughout — zero dropped requests.
#[test]
fn drift_retrain_swaps_model_without_dropping_requests() {
    let dir = tmpdir("aiio_sched", "retrain").unwrap();
    let s = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(dir.clone()),
            control: ControlConfig {
                retrain_every: Some(Duration::from_millis(100)),
                retrain_min_rows: 32,
                seed: sched_seed(),
                ..ControlConfig::default()
            },
            ..ServeConfig::default()
        },
    );

    // A drifted wave: the serving model trained on sampler-shaped jobs;
    // these have POSIX_OPENS multiplied a million-fold (+6 in log10
    // feature space), which pins the tail's PSI far past 0.25.
    let drifted: Vec<String> = DatabaseSampler::new(SamplerConfig {
        n_jobs: 100,
        seed: 31,
        noise_sigma: 0.0,
    })
    .generate()
    .jobs()
    .iter()
    .map(|log| {
        let mut l = log.clone();
        let opens = l.counters.get(CounterId::PosixOpens).max(1.0);
        l.counters.set(CounterId::PosixOpens, opens * 1e6);
        serde_json::to_string(&l).unwrap()
    })
    .collect();
    let r = s.rpc("POST", "/ingest", Some(&format!("[{}]", drifted.join(","))));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"drifted\":true"), "{}", r.body);

    // Readers hammer /diagnose across the swap; every request must get
    // a 200 (in-flight diagnoses finish on their Arc snapshot).
    let stop = Arc::new(AtomicBool::new(false));
    let job = serde_json::to_string(&jobs_pool()[0]).unwrap();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let addr = s.addr.clone();
            let body = job.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let r = request(&addr, "POST", "/diagnose", Some(&body), RPC_TIMEOUT).unwrap();
                    assert_eq!(r.status, 200, "request dropped during retrain: {}", r.body);
                    served += 1;
                }
                served
            })
        })
        .collect();

    // The scheduled retrain must fire exactly once for this drift
    // episode: the gauge resets with the tail, so a second run skips.
    let body = wait_for_metrics(&s, Duration::from_secs(120), |b| {
        metric_value(b, "aiio_retrains_total") >= 1
    });
    assert_eq!(
        metric_value(&body, "aiio_retrains_total"),
        1,
        "one drift episode must trigger exactly one retrain:\n{body}"
    );
    // Give the loop time for further retrain runs; with the gauge reset
    // they must all read "trigger not met".
    let body = wait_for_metrics(&s, Duration::from_secs(30), |b| {
        metric_value(b, "aiio_sched_runs_total{task=\"retrain\"}")
            > metric_value(b, "aiio_retrains_total")
    });
    assert_eq!(metric_value(&body, "aiio_retrains_total"), 1, "{body}");
    assert_eq!(metric_value(&body, "aiio_drift_max_psi_micro"), 0, "{body}");
    assert_eq!(
        metric_value(&body, "aiio_sched_failures_total{task=\"retrain\"}"),
        0,
        "{body}"
    );

    stop.store(true, Ordering::Relaxed);
    let served: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(served > 0, "readers never got a request through");
    let body = s.rpc("GET", "/metrics", None).body;
    assert_eq!(
        metric_value(&body, "aiio_request_errors_total{endpoint=\"diagnose\"}"),
        0,
        "{body}"
    );
    s.stop();
}

/// Auto-compaction: a WAL-bytes threshold crosses after one ingest
/// wave; the scheduled task seals and compacts without losing a row,
/// and runs before/after the crossing read as skipped, not failed.
#[test]
fn scheduled_compaction_folds_wal_into_segments() {
    let dir = tmpdir("aiio_sched", "compact").unwrap();
    let s = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(dir.clone()),
            control: ControlConfig {
                compact_every: Some(Duration::from_millis(50)),
                compaction: CompactionTrigger {
                    max_segments: 0,
                    max_wal_bytes: 512,
                },
                seed: sched_seed(),
                ..ControlConfig::default()
            },
            ..ServeConfig::default()
        },
    );

    let wave: Vec<String> = jobs_pool()[0..40]
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();
    let r = s.rpc("POST", "/ingest", Some(&format!("[{}]", wave.join(","))));
    assert_eq!(r.status, 200, "{}", r.body);

    // 40 JSON rows blow far past 512 WAL bytes: the next scheduled run
    // must seal them into segments and leave the WAL empty.
    let body = wait_for_metrics(&s, Duration::from_secs(30), |b| {
        metric_value(b, "aiio_store_wal_rows") == 0 && metric_value(b, "aiio_store_segments") >= 1
    });
    assert_eq!(metric_value(&body, "aiio_store_wal_rows"), 0, "{body}");
    assert!(metric_value(&body, "aiio_store_segments") >= 1, "{body}");
    assert_eq!(metric_value(&body, "aiio_store_rows"), 40, "{body}");
    assert!(metric_value(&body, "aiio_sched_runs_total{task=\"compact\"}") >= 1);
    assert_eq!(
        metric_value(&body, "aiio_sched_failures_total{task=\"compact\"}"),
        0,
        "{body}"
    );

    // Below the threshold again: further runs skip (runs grow, nothing
    // changes), and ingest keeps working on the compacted store.
    let r = s.rpc("POST", "/ingest", Some(&wave[0]));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"store_rows\":41"), "{}", r.body);
    s.stop();

    // The compacted directory replays every row.
    let store = aiio_store::Store::open(&dir).unwrap();
    assert_eq!(store.len(), 41);
    assert!(store.recovery_report().is_clean());
}

/// `GET /sched/stats` and the `/metrics` scheduler family: present and
/// live with a scheduler, a clear 404 without one.
#[test]
fn sched_stats_endpoint_reports_tasks_and_404s_without_scheduler() {
    // No scheduler configured: the endpoint says so.
    let plain = Running::start(service(), ServeConfig::default());
    let r = plain.rpc("GET", "/sched/stats", None);
    assert_eq!(r.status, 404, "{}", r.body);
    let m = plain.rpc("GET", "/metrics", None);
    assert!(!m.body.contains("aiio_sched_runs_total"), "{}", m.body);
    assert!(m.body.contains("aiio_uptime_seconds"), "{}", m.body);
    plain.stop();

    let dir = tmpdir("aiio_sched", "stats").unwrap();
    let s = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(dir),
            control: ControlConfig {
                compact_every: Some(Duration::from_millis(20)),
                retrain_every: Some(Duration::from_millis(40)),
                jitter: Duration::from_millis(5),
                seed: sched_seed(),
                ..ControlConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    // Wait until both tasks have run at least once, then read the JSON.
    wait_for_metrics(&s, Duration::from_secs(30), |b| {
        metric_value(b, "aiio_sched_runs_total{task=\"compact\"}") >= 1
            && metric_value(b, "aiio_sched_runs_total{task=\"retrain\"}") >= 1
    });
    let r = s.rpc("GET", "/sched/stats", None);
    assert_eq!(r.status, 200, "{}", r.body);
    for field in [
        "\"task\":\"compact\"",
        "\"task\":\"retrain\"",
        "\"runs\":",
        "\"failures\":",
        "\"backoff_level\":",
        "\"next_run_in_ms\":",
        "\"last_error\":",
    ] {
        assert!(r.body.contains(field), "{field} missing: {}", r.body);
    }
    // The metrics family mirrors the same counters, per task.
    let m = s.rpc("GET", "/metrics", None);
    for task in ["compact", "retrain"] {
        assert!(
            metric_value(
                &m.body,
                &format!("aiio_sched_runs_total{{task=\"{task}\"}}")
            ) >= 1
        );
        metric_value(
            &m.body,
            &format!("aiio_sched_next_run_ms{{task=\"{task}\"}}"),
        );
    }
    // A bad schedule is refused at bind, typed: compact on a follower.
    let err = Server::bind(
        "127.0.0.1:0",
        service().clone(),
        ServeConfig {
            store_dir: Some(tmpdir("aiio_sched", "badcfg").unwrap()),
            replicate_from: Some(format!("http://{}", s.addr)),
            control: ControlConfig {
                compact_every: Some(Duration::from_millis(50)),
                ..ControlConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let msg = err
        .err()
        .expect("follower compaction must be refused")
        .to_string();
    assert!(msg.contains("follower"), "{msg}");
    s.stop();
}
