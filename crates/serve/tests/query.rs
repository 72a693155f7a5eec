//! `GET /query` end-to-end: a real server over a real store (plain and
//! 4-shard fleet), rows back in global insertion order, 422 on
//! unanswerable ranges, and the hardened parser limits (431 oversized
//! head, 400 duplicate Content-Length) observed on the wire.

mod common;

use aiio::{AiioService, TrainConfig};
use aiio_darshan::{CounterId, JobLog};
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_serve::ServeConfig;
use common::{Running, RPC_TIMEOUT};
use std::io::{Read, Write};
use std::sync::OnceLock;

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
        cfg.zoo = cfg.zoo.with_kinds(&[aiio::ModelKind::XgboostLike]);
        cfg.diagnosis.max_evals = 32;
        AiioService::train(&cfg, &db).unwrap()
    })
}

/// A job whose queried counter is exactly `i`, so range selections and
/// row order are verifiable by eye.
fn job(i: u64) -> JobLog {
    let mut j = JobLog::new(i, format!("app-{}", i % 3), 2021);
    j.counters.set(CounterId::PosixOpens, i as f64);
    j.time.slowest_rank_seconds = 1.0 + i as f64;
    j
}

fn with_store(dir: &std::path::Path, shards: usize) -> Running {
    Running::start(
        service(),
        ServeConfig {
            store_dir: Some(dir.to_path_buf()),
            shards,
            ..ServeConfig::default()
        },
    )
}

fn get(s: &Running, path: &str) -> aiio_serve::client::ClientResponse {
    s.rpc("GET", path, None)
}

fn ingest(s: &Running, jobs: &[JobLog]) {
    let body = format!(
        "[{}]",
        jobs.iter()
            .map(|j| serde_json::to_string(j).unwrap())
            .collect::<Vec<_>>()
            .join(",")
    );
    let r = s.rpc("POST", "/ingest", Some(&body));
    assert_eq!(r.status, 200, "{}", r.body);
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    aiio_testkit::tmpdir("aiio_serve_query", tag).unwrap()
}

/// `job_id`s of the rows in a /query response body, in response order.
fn row_ids(body: &str) -> Vec<u64> {
    let parsed = serde_json::parse_value(body).unwrap();
    parsed
        .get("rows")
        .and_then(serde_json::Value::as_array)
        .unwrap_or_else(|| panic!("no rows in {body}"))
        .iter()
        .map(|r| r.get("job_id").and_then(serde_json::Value::as_u64).unwrap())
        .collect()
}

fn check_query_contract(s: &Running) {
    // Bounded range: counter values equal job_id here, so ids 10..=19 in
    // insertion order.
    let r = get(s, "/query?counter=POSIX_OPENS&min=10&max=19.5");
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(row_ids(&r.body), (10..20).collect::<Vec<u64>>());
    assert!(r.body.contains("\"truncated\":false"), "{}", r.body);

    // limit truncates rows but the summary still covers the whole scan.
    let r = get(s, "/query?counter=POSIX_OPENS&min=10&max=19.5&limit=4");
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(row_ids(&r.body), vec![10, 11, 12, 13]);
    assert!(r.body.contains("\"truncated\":true"), "{}", r.body);
    assert!(r.body.contains("\"rows_matched\":10"), "{}", r.body);

    // Unbounded scan returns everything in global insertion order.
    let r = get(s, "/query?counter=POSIX_OPENS");
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(row_ids(&r.body), (0..40).collect::<Vec<u64>>());

    // Unanswerable ranges: 422 with a reasoned message.
    assert_eq!(get(s, "/query?counter=NOT_A_COUNTER").status, 422);
    let r = get(s, "/query?counter=POSIX_OPENS&min=5&max=2");
    assert_eq!(r.status, 422);
    assert!(r.body.contains("inverted"), "{}", r.body);
    assert_eq!(get(s, "/query?counter=POSIX_OPENS&min=nan").status, 422);

    // Malformed parameters: 400.
    assert_eq!(get(s, "/query?counter=POSIX_OPENS&limit=many").status, 400);
    assert_eq!(get(s, "/query?counter=POSIX_OPENS&min=abc").status, 400);
    assert_eq!(get(s, "/query?counter=POSIX_OPENS&frob=1").status, 400);
    assert_eq!(get(s, "/query").status, 400);
}

#[test]
fn query_on_plain_store_returns_insertion_order() {
    let dir = tmpdir("plain");
    let s = with_store(&dir, 0);
    let jobs: Vec<JobLog> = (0..40).map(job).collect();
    ingest(&s, &jobs);
    check_query_contract(&s);

    // The endpoint shows up in metrics under its own label, and the
    // cache family renders whenever caching is enabled.
    let metrics = get(&s, "/metrics");
    assert!(
        metrics
            .body
            .contains("aiio_requests_total{endpoint=\"query\"}"),
        "{}",
        metrics.body
    );
    let cache_disabled = std::env::var("AIIO_CACHE_BYTES").ok().as_deref() == Some("0");
    assert_eq!(
        metrics.body.contains("aiio_cache_capacity_bytes"),
        !cache_disabled,
        "cache family presence must follow AIIO_CACHE_BYTES"
    );
    s.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_on_fleet_merges_scatter_gather_in_insertion_order() {
    let dir = tmpdir("fleet");
    let s = with_store(&dir, 4);
    let jobs: Vec<JobLog> = (0..40).map(job).collect();
    ingest(&s, &jobs);
    // Same contract as the plain store: sharding must be invisible.
    check_query_contract(&s);
    s.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_without_a_store_is_404() {
    let s = Running::start(service(), ServeConfig::default());
    assert_eq!(get(&s, "/query?counter=POSIX_OPENS").status, 404);
    s.stop();
}

/// FNV-1a over a whole `/query` reply, captured when rows were still
/// encoded one `String` at a time with `core::fmt` scalars. The writer
/// may get faster; the bytes on the wire may not change.
const QUERY_REPLY_FNV: u64 = 0x026c_bac2_b4a2_aff8;
const QUERY_REPLY_LEN: usize = 13_553;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn query_reply_bytes_match_the_pinned_fingerprint() {
    let dir = tmpdir("fingerprint");
    let s = with_store(&dir, 0);
    // Sampler rows (integral counters, fractional times) plus rows whose
    // scalars and strings take every branch of the JSON writer.
    let mut jobs: Vec<JobLog> = common::jobs_pool()[..24].to_vec();
    let edge = [
        ("plain", [0.0, -0.0, 1e15 - 1.0, 1e15]),
        (
            "quote \" backslash \\ tab \t nl \n cr \r",
            [2f64.powi(53), 1e20, 0.1, 1.0 / 3.0],
        ),
        (
            "ctl \u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f} é 東京 🦀",
            [5e-324, 2.2e-308, 1e300, 123.456],
        ),
    ];
    for (i, (app, values)) in edge.iter().enumerate() {
        let mut j = JobLog::new(1000 + i as u64, *app, 2023);
        for (c, v) in [
            CounterId::PosixOpens,
            CounterId::PosixReads,
            CounterId::PosixWrites,
            CounterId::Nprocs,
        ]
        .into_iter()
        .zip(values)
        {
            j.counters.set(c, *v);
        }
        j.time.slowest_rank_seconds = 0.5 + i as f64;
        jobs.push(j);
    }
    ingest(&s, &jobs);

    let r = get(&s, "/query?counter=POSIX_OPENS&limit=100");
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(row_ids(&r.body).len(), jobs.len());
    let (fnv, len) = (fnv1a64(r.body.as_bytes()), r.body.len());
    println!("QUERY_REPLY_FNV = {fnv:#018x}, QUERY_REPLY_LEN = {len}");
    assert_eq!((fnv, len), (QUERY_REPLY_FNV, QUERY_REPLY_LEN), "{}", r.body);
    s.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raw-socket requests the bundled client refuses to build: an oversized
/// request line and duplicate Content-Length headers.
fn raw_roundtrip(addr: &str, raw: &[u8]) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(RPC_TIMEOUT)).unwrap();
    stream.write_all(raw).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

#[test]
fn hardened_parser_limits_hold_on_the_wire() {
    let s = Running::start(service(), ServeConfig::default());

    // 9 KiB request line: over the 8 KiB cap, answered 431.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9 * 1024));
    let reply = raw_roundtrip(&s.addr, long.as_bytes());
    assert!(
        reply.starts_with("HTTP/1.1 431 "),
        "expected 431, got: {}",
        reply.lines().next().unwrap_or("")
    );

    // Cumulative header bytes over 32 KiB: also 431, even though every
    // individual line is modest.
    let mut head = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..10 {
        head.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(4 * 1024)));
    }
    head.push_str("\r\n");
    let reply = raw_roundtrip(&s.addr, head.as_bytes());
    assert!(
        reply.starts_with("HTTP/1.1 431 "),
        "expected 431, got: {}",
        reply.lines().next().unwrap_or("")
    );

    // Duplicate Content-Length is a request-smuggling shape: 400 even
    // when the copies agree.
    let smuggle = "POST /diagnose HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
    let reply = raw_roundtrip(&s.addr, smuggle.as_bytes());
    assert!(
        reply.starts_with("HTTP/1.1 400 "),
        "expected 400, got: {}",
        reply.lines().next().unwrap_or("")
    );

    // A request inside every limit still works on the same server.
    let ok = raw_roundtrip(&s.addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200 "), "{ok}");
    s.stop();
}
