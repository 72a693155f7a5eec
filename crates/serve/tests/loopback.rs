//! Loopback integration tests: a real server on an ephemeral port, driven
//! through the bundled blocking client.
//!
//! The acceptance triad from the serving issue:
//! 1. a batch of 100 jobs fanned across ≥4 workers is byte-identical to
//!    sequential in-process diagnosis;
//! 2. queue overflow answers 503 + `Retry-After` without buffering;
//! 3. a hot reload mid-traffic drops zero in-flight requests.

mod common;

use aiio::{AiioService, TrainConfig};
use aiio_iosim::{DatabaseSampler, IorConfig, SamplerConfig, Simulator};
use aiio_serve::client::{request, ClientResponse};
use aiio_serve::ServeConfig;
use common::{metric_value, Running, RPC_TIMEOUT};
use std::io::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One small-but-real service shared by every test (training dominates
/// test wall-clock; the serving layer under test is cheap).
fn service() -> &'static AiioService {
    static CACHE: OnceLock<AiioService> = OnceLock::new();
    CACHE.get_or_init(|| {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 150,
            seed: 9,
            noise_sigma: 0.0,
        })
        .generate();
        let mut cfg = TrainConfig::fast();
        cfg.zoo = cfg
            .zoo
            .with_kinds(&[aiio::ModelKind::XgboostLike, aiio::ModelKind::LightgbmLike]);
        cfg.diagnosis.max_evals = 64;
        AiioService::train(&cfg, &db).unwrap()
    })
}

fn job_json(seed: u64) -> String {
    let spec = IorConfig::parse("ior -w -t 1k -b 1m -Y").unwrap().to_spec();
    let log = Simulator::default().simulate(&spec, seed, 2022, seed);
    serde_json::to_string(&log).unwrap()
}

#[test]
fn healthz_and_metrics_roundtrip() {
    let s = Running::start(service(), ServeConfig::default());
    let health = s.rpc("GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""));
    assert!(health.body.contains("\"models\":2"));

    let one = s.rpc("POST", "/diagnose", Some(&job_json(1)));
    assert_eq!(one.status, 200, "{}", one.body);

    let metrics = s.rpc("GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .body
        .contains("aiio_requests_total{endpoint=\"diagnose\"} 1"));
    assert!(metrics
        .body
        .contains("aiio_request_latency_ms_bucket{endpoint=\"diagnose\",le=\"+Inf\"} 1"));
    assert!(metrics.body.contains("aiio_queue_depth 0"));
    assert!(metrics
        .body
        .contains("aiio_inference_total{model=\"XGBoost\"} 1"));
    assert!(metrics
        .body
        .contains("aiio_inference_total{model=\"LightGBM\"} 1"));
    s.stop();
}

#[test]
fn batch_of_100_matches_sequential_bytes_across_4_workers() {
    let s = Running::start(
        service(),
        ServeConfig {
            workers: 4,
            queue_capacity: 128,
            ..ServeConfig::default()
        },
    );

    let logs: Vec<String> = (0..100).map(job_json).collect();
    let batch_body = format!("[{}]", logs.join(","));
    let resp = s.rpc("POST", "/diagnose/batch", Some(&batch_body));
    assert_eq!(resp.status, 200, "{}", resp.body);

    // Byte-identical to sequential in-process diagnosis, in order.
    let expected: Vec<String> = logs
        .iter()
        .map(|l| {
            let log: aiio_darshan::JobLog = serde_json::from_str(l).unwrap();
            serde_json::to_string(&service().diagnose(&log)).unwrap()
        })
        .collect();
    assert_eq!(resp.body, format!("[{}]", expected.join(",")));

    // The batch really fanned out over all four workers.
    let per_worker = s.handle.metrics().worker_job_counts();
    assert_eq!(per_worker.len(), 4);
    assert_eq!(per_worker.iter().sum::<u64>(), 100);
    for (w, n) in per_worker.iter().enumerate() {
        assert!(*n > 0, "worker {w} processed no jobs: {per_worker:?}");
    }
    s.stop();
}

#[test]
fn overflow_answers_503_with_retry_after_and_stays_bounded() {
    // One worker and a tiny queue; a spray of concurrent singles must
    // overflow. The queue never holds more than its capacity and rejected
    // requests are counted — bounded memory by construction.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let s = Running::start(service(), config);

    let n_clients = 16;
    let mut total_busy = 0usize;
    // The race between the spray and the draining worker is inherently
    // timing-dependent; retry a few rounds until an overflow is observed.
    for _round in 0..5 {
        let results: Vec<ClientResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_clients)
                .map(|i| {
                    let addr = s.addr.clone();
                    let body = job_json(i);
                    scope.spawn(move || {
                        request(&addr, "POST", "/diagnose", Some(&body), RPC_TIMEOUT).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let ok = results.iter().filter(|r| r.status == 200).count();
        let busy: Vec<&ClientResponse> = results.iter().filter(|r| r.status == 503).collect();
        assert_eq!(ok + busy.len(), n_clients as usize, "only 200/503 expected");
        for r in &busy {
            assert_eq!(
                r.header("retry-after"),
                Some("1"),
                "503 must carry Retry-After"
            );
        }
        assert!(s.handle.queue_depth() <= 2, "queue exceeded its bound");
        total_busy += busy.len();
        if total_busy > 0 {
            break;
        }
    }
    assert!(
        total_busy > 0,
        "expected at least one 503 from a 2-deep queue"
    );
    let metrics = s.rpc("GET", "/metrics", None);
    assert!(metrics
        .body
        .contains(&format!("aiio_rejected_total {total_busy}")));
    s.stop();
}

#[test]
fn reload_mid_traffic_drops_zero_requests() {
    let s = Running::start(
        service(),
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            ..ServeConfig::default()
        },
    );
    let baseline = {
        let log: aiio_darshan::JobLog = serde_json::from_str(&job_json(77)).unwrap();
        serde_json::to_string(&service().diagnose(&log)).unwrap()
    };

    let path = std::env::temp_dir().join("aiio_serve_reload_test.json");
    service().save(&path).unwrap();
    let reload_body = format!(
        "{{\"path\":{}}}",
        serde_json::to_string(path.to_str().unwrap()).unwrap()
    );

    // Readers hammer /diagnose while the main thread swaps the models;
    // every single request must succeed with the identical report.
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let addr = s.addr.clone();
                let body = job_json(77);
                let baseline = baseline.clone();
                scope.spawn(move || {
                    for _ in 0..5 {
                        let r =
                            request(&addr, "POST", "/diagnose", Some(&body), RPC_TIMEOUT).unwrap();
                        assert_eq!(r.status, 200, "request dropped during reload: {}", r.body);
                        assert_eq!(r.body, baseline, "report changed during reload");
                    }
                })
            })
            .collect();
        for _ in 0..3 {
            let r = s.rpc("POST", "/admin/reload", Some(&reload_body));
            assert_eq!(r.status, 200, "{}", r.body);
            assert!(r.body.contains("\"reloaded\":true"));
        }
        for h in readers {
            h.join().unwrap();
        }
    });
    let _ = std::fs::remove_file(&path);

    let metrics = s.rpc("GET", "/metrics", None);
    assert!(metrics.body.contains("aiio_reloads_total 3"));
    assert!(metrics
        .body
        .contains("aiio_request_errors_total{endpoint=\"diagnose\"} 0"));
    s.stop();
}

#[test]
fn ingest_appends_to_store_and_tracks_drift() {
    let dir = std::env::temp_dir().join(format!("aiio_serve_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );

    // Without a store the endpoint 404s — checked on a second server.
    let plain = Running::start(service(), ServeConfig::default());
    assert_eq!(plain.rpc("POST", "/ingest", Some(&job_json(0))).status, 404);
    plain.stop();

    // Single-log ingest: appended, no drift verdict yet (tail too small).
    let r = s.rpc("POST", "/ingest", Some(&job_json(1)));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"ingested\":1"), "{}", r.body);
    assert!(r.body.contains("\"store_rows\":1"), "{}", r.body);
    assert!(r.body.contains("\"drift_max_psi\":null"), "{}", r.body);

    // Array ingest past DRIFT_MIN_ROWS: a drift score appears. (Whether
    // this small window reads as drifted against the tiny test service's
    // 75-row training split is a statistics question covered by the
    // aiio::drift unit tests; here we assert the wiring: a numeric score
    // and a verdict are computed and exposed.)
    let fresh: Vec<String> = DatabaseSampler::new(SamplerConfig {
        n_jobs: 127,
        seed: 10,
        noise_sigma: 0.0,
    })
    .generate()
    .jobs()
    .iter()
    .map(|l| serde_json::to_string(l).unwrap())
    .collect();
    let batch = format!("[{}]", fresh.join(","));
    let r = s.rpc("POST", "/ingest", Some(&batch));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"ingested\":127"), "{}", r.body);
    assert!(!r.body.contains("\"drift_max_psi\":null"), "{}", r.body);
    assert!(
        r.body.contains("\"drifted\":true") || r.body.contains("\"drifted\":false"),
        "{}",
        r.body
    );

    // Garbage is refused without touching the store.
    assert_eq!(s.rpc("POST", "/ingest", Some("not json")).status, 400);

    let metrics = s.rpc("GET", "/metrics", None);
    assert_eq!(metric_value(&metrics.body, "aiio_ingested_total"), 128);
    assert_eq!(metric_value(&metrics.body, "aiio_store_rows"), 128);
    assert!(metrics.body.contains("aiio_drift_max_psi_micro"));
    assert!(metrics
        .body
        .contains("aiio_requests_total{endpoint=\"ingest\"} 3"));
    s.stop();

    // The rows survived the server: reopen the store directly.
    let store = aiio_store::Store::open(&dir).unwrap();
    assert_eq!(store.len(), 128);
    assert!(store.recovery_report().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_ingest_routes_rows_and_exposes_per_shard_gauges() {
    let dir = std::env::temp_dir().join(format!("aiio_serve_shard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(dir.clone()),
            shards: 3,
            ..ServeConfig::default()
        },
    );

    let fresh: Vec<String> = DatabaseSampler::new(SamplerConfig {
        n_jobs: 60,
        seed: 12,
        noise_sigma: 0.0,
    })
    .generate()
    .jobs()
    .iter()
    .map(|l| serde_json::to_string(l).unwrap())
    .collect();
    let batch = format!("[{}]", fresh.join(","));
    let r = s.rpc("POST", "/ingest", Some(&batch));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"ingested\":60"), "{}", r.body);
    assert!(r.body.contains("\"store_rows\":60"), "{}", r.body);
    assert!(r.body.contains("\"shards\":3"), "{}", r.body);

    let metrics = s.rpc("GET", "/metrics", None);
    assert_eq!(metric_value(&metrics.body, "aiio_store_rows"), 60);
    assert_eq!(metric_value(&metrics.body, "aiio_store_shards"), 3);
    for shard in 0..3 {
        assert!(
            metrics
                .body
                .contains(&format!("aiio_shard_rows{{shard=\"{shard}\"}} ")),
            "{}",
            metrics.body
        );
        assert!(metrics.body.contains(&format!(
            "aiio_shard_serving_replica{{shard=\"{shard}\"}} 0"
        )));
    }
    // Row gauges across shards must account for every ingested row.
    let per_shard: u64 = (0..3)
        .map(|shard| {
            metric_value(
                &metrics.body,
                &format!("aiio_shard_rows{{shard=\"{shard}\"}}"),
            )
        })
        .sum();
    assert_eq!(per_shard, 60);
    s.stop();

    // The directory is a real fleet: reopen it sharded and scan it back,
    // and verify a restarted server auto-detects the layout (shards: 0).
    let fleet = aiio_shard::ShardedStore::open_with(&dir, 3, Default::default()).unwrap();
    assert!(fleet.recovery_report().is_clean());
    assert_eq!(fleet.len(), 60);
    drop(fleet);
    let s = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );
    let r = s.rpc("POST", "/ingest", Some(&job_json(2)));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"store_rows\":61"), "{}", r.body);
    assert!(r.body.contains("\"shards\":3"), "{}", r.body);
    s.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `job_json(seed)` with its counter vector replaced by `values`.
fn with_counter_values(seed: u64, values: &str) -> String {
    let json = job_json(seed);
    let start = json.find("\"values\":[").unwrap() + "\"values\":[".len();
    let end = start + json[start..].find(']').unwrap();
    format!("{}{values}{}", &json[..start], &json[end..])
}

#[test]
fn malformed_logs_answer_422_and_never_poison_the_store() {
    let short = with_counter_values(3, "1,2,3");
    let mut negative: aiio_darshan::JobLog = serde_json::from_str(&job_json(4)).unwrap();
    negative
        .counters
        .set(aiio_darshan::CounterId::PosixReads, -1.0);
    let negative = serde_json::to_string(&negative).unwrap();
    // JSON has no infinity, but an overflowing literal parses to one.
    let infinite = with_counter_values(
        5,
        &format!("1e999{}", ",0".repeat(aiio_darshan::N_COUNTERS - 1)),
    );
    for shards in [0usize, 3] {
        let dir = std::env::temp_dir().join(format!(
            "aiio_serve_malformed_{shards}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Running::start(
            service(),
            ServeConfig {
                store_dir: Some(dir.clone()),
                shards,
                ..ServeConfig::default()
            },
        );
        for bad in [&short, &negative, &infinite] {
            let r = s.rpc("POST", "/ingest", Some(bad));
            assert_eq!(r.status, 422, "{}", r.body);
            let r = s.rpc("POST", "/diagnose", Some(bad));
            assert_eq!(r.status, 422, "{}", r.body);
            let batch = format!("[{},{bad}]", job_json(6));
            assert_eq!(s.rpc("POST", "/diagnose/batch", Some(&batch)).status, 422);
            // One bad row rejects its whole ingest batch.
            assert_eq!(s.rpc("POST", "/ingest", Some(&batch)).status, 422);
        }
        let r = s.rpc("POST", "/ingest", Some(&job_json(1)));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"store_rows\":1,"), "{}", r.body);
        let metrics = s.rpc("GET", "/metrics", None);
        assert_eq!(metric_value(&metrics.body, "aiio_worker_panics_total"), 0);
        s.stop();

        // Recovery finds nothing to drop, and the acknowledged row is
        // the only row.
        let store = aiio_shard::AnyStore::open(&dir, 0).unwrap();
        assert!(store.recovery().is_clean(), "{:?}", store.recovery());
        let rows = store.read_all().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(serde_json::to_string(&rows.jobs()[0]).unwrap(), job_json(1));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn reload_refuses_garbage_and_empty_paths() {
    let s = Running::start(service(), ServeConfig::default());
    let r = s.rpc("POST", "/admin/reload", Some("{\"nope\":1}"));
    assert_eq!(r.status, 400);
    let r = s.rpc(
        "POST",
        "/admin/reload",
        Some("{\"path\":\"/nonexistent/x.json\"}"),
    );
    assert_eq!(r.status, 400);
    // Traffic still flows after refused reloads.
    let one = s.rpc("POST", "/diagnose", Some(&job_json(5)));
    assert_eq!(one.status, 200);
    s.stop();
}

#[test]
fn bad_requests_get_4xx_not_a_hang() {
    let s = Running::start(service(), ServeConfig::default());
    assert_eq!(s.rpc("POST", "/diagnose", Some("not json")).status, 400);
    assert_eq!(s.rpc("GET", "/nope", None).status, 404);
    assert_eq!(s.rpc("DELETE", "/diagnose", None).status, 405);
    assert_eq!(s.rpc("POST", "/diagnose/batch", Some("[]")).status, 200);
    // A batch larger than the queue is refused up front with 413.
    let big = format!("[{}]", (0..65).map(job_json).collect::<Vec<_>>().join(","));
    assert_eq!(s.rpc("POST", "/diagnose/batch", Some(&big)).status, 413);
    s.stop();
}

#[test]
fn parallel_engine_stress_stays_bounded_with_monotone_throughput() {
    // Parallel engine enabled: each pool worker fans its SHAP evaluations
    // over 2 engine threads while batches and singles race.
    let s = Running::start(
        service(),
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            engine_threads: 2,
            ..ServeConfig::default()
        },
    );

    let mid_scrape = std::sync::Mutex::new(String::new());
    std::thread::scope(|scope| {
        // Two concurrent 20-job batches.
        let batches: Vec<_> = (0..2)
            .map(|b| {
                let addr = s.addr.clone();
                let body = format!(
                    "[{}]",
                    (b * 20..b * 20 + 20)
                        .map(job_json)
                        .collect::<Vec<_>>()
                        .join(",")
                );
                scope.spawn(move || {
                    request(&addr, "POST", "/diagnose/batch", Some(&body), RPC_TIMEOUT).unwrap()
                })
            })
            .collect();
        // Four single-request clients interleaved with the batches.
        let singles: Vec<_> = (0..4)
            .map(|i| {
                let addr = s.addr.clone();
                scope.spawn(move || {
                    let mut ok = 0u64;
                    for j in 0..5 {
                        let r = request(
                            &addr,
                            "POST",
                            "/diagnose",
                            Some(&job_json(100 + i * 5 + j)),
                            RPC_TIMEOUT,
                        )
                        .unwrap();
                        assert!(
                            r.status == 200 || r.status == 503,
                            "unexpected status {}: {}",
                            r.status,
                            r.body
                        );
                        if r.status == 200 {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();

        // While traffic is in flight: the queue must never exceed its
        // bound, and a mid-traffic scrape gives the monotonicity baseline.
        for _ in 0..50 {
            assert!(s.handle.queue_depth() <= 64, "queue exceeded its bound");
            std::thread::yield_now();
        }
        *mid_scrape.lock().unwrap() = s.rpc("GET", "/metrics", None).body;

        for b in batches {
            let r = b.join().unwrap();
            assert_eq!(r.status, 200, "batch failed under stress: {}", r.body);
        }
        let ok_singles: u64 = singles.into_iter().map(|h| h.join().unwrap()).sum();

        // No deadlock: everything answered. Final scrape ≥ mid scrape on
        // both throughput counters, and the totals add up exactly.
        let mid = mid_scrape.lock().unwrap().clone();
        let end = s.rpc("GET", "/metrics", None).body;
        for name in ["aiio_diagnoses_total", "aiio_batch_jobs_total"] {
            assert!(
                metric_value(&end, name) >= metric_value(&mid, name),
                "{name} went backwards"
            );
        }
        assert_eq!(metric_value(&end, "aiio_batch_jobs_total"), 40);
        assert_eq!(metric_value(&end, "aiio_diagnoses_total"), 40 + ok_singles);
        assert_eq!(metric_value(&end, "aiio_engine_threads"), 2);
    });
    assert_eq!(s.handle.queue_depth(), 0, "queue must drain");
    s.stop();
}

#[test]
fn admin_shutdown_is_graceful() {
    let s = Running::start(service(), ServeConfig::default());
    let r = s.rpc("POST", "/admin/shutdown", None);
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"shutting_down\":true"));
    // run() exits cleanly without Handle::shutdown being called.
    s.thread.join().unwrap().unwrap();
}

#[test]
fn a_client_that_never_reads_cannot_block_shutdown() {
    // A WAL tail far larger than the loopback socket buffers, so the
    // server's response write blocks once the kernel buffers fill.
    let dir = aiio_testkit::tmpdir("aiio_serve_loopback", "stalled_reader").unwrap();
    {
        let mut store = aiio_store::Store::open(&dir).unwrap();
        let jobs: Vec<aiio_darshan::JobLog> = (0..24u64)
            .map(|i| aiio_darshan::JobLog::new(i, format!("{i}{}", "x".repeat(1 << 20)), 2020))
            .collect();
        store.append_batch(&jobs).unwrap();
        store.sync().unwrap();
    }
    let s = Running::start(
        service(),
        ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );
    let mut stalled = std::net::TcpStream::connect(&s.addr).unwrap();
    stalled
        .write_all(b"GET /repl/0/wal?from=0 HTTP/1.1\r\n\r\n")
        .unwrap();
    // A request is counted just before its response is written, so once
    // it shows up the connection thread is in (or past) the write.
    let end = Instant::now() + Duration::from_secs(60);
    while !s
        .rpc("GET", "/metrics", None)
        .body
        .contains("aiio_requests_total{endpoint=\"repl\"} 1")
    {
        assert!(Instant::now() < end, "the stalled request was never served");
        std::thread::sleep(Duration::from_millis(20));
    }
    s.handle.shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(s.thread.join()));
    let joined = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("run() stayed blocked behind a client that never reads");
    joined.unwrap().unwrap();
    drop(stalled);
    let _ = std::fs::remove_dir_all(&dir);
}
