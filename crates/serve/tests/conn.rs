//! The front door: a blocking accept loop behind one connection cap.
//!
//! * a stalled client holds one connection slot, never a diagnosis
//!   worker, and is cut at `CONN_IO_TIMEOUT`;
//! * past `max_connections`, a client that has already sent its request
//!   still reads a `503` + `Retry-After`, and the slots come back once
//!   the stalled sockets close;
//! * shutdown wakes the blocked accept promptly when idle, and waits at
//!   most `CONN_IO_TIMEOUT` for a stalled connection — on a wildcard
//!   bind and through `POST /admin/shutdown` alike.

mod common;

use aiio::{AiioService, TrainConfig};
use aiio_iosim::{DatabaseSampler, IorConfig, SamplerConfig, Simulator};
use aiio_serve::client::request;
use aiio_serve::{ServeConfig, Server, CONN_IO_TIMEOUT};
use aiio_testkit::{Fault, FaultProxy};
use common::{metric_value, Running, RPC_TIMEOUT};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Shutdown of an idle server must not wait for anything but the wake.
const IDLE_SHUTDOWN_BOUND: Duration = Duration::from_millis(1500);

/// Slack on top of `CONN_IO_TIMEOUT` for thread joins on a loaded host.
const MARGIN: Duration = Duration::from_secs(5);

fn service() -> &'static AiioService {
    static CACHE: OnceLock<AiioService> = OnceLock::new();
    CACHE.get_or_init(|| {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 120,
            seed: 11,
            noise_sigma: 0.0,
        })
        .generate();
        let mut cfg = TrainConfig::fast();
        cfg.zoo = cfg.zoo.with_kinds(&[aiio::ModelKind::XgboostLike]);
        cfg.diagnosis.max_evals = 64;
        AiioService::train(&cfg, &db).unwrap()
    })
}

fn job_json(seed: u64) -> String {
    let spec = IorConfig::parse("ior -w -t 1k -b 1m -Y").unwrap().to_spec();
    let log = Simulator::default().simulate(&spec, seed, 2022, seed);
    serde_json::to_string(&log).unwrap()
}

/// Scrape `/metrics` until `pred` holds on it, or panic after `within`.
/// Returns when the matching scrape was taken.
fn wait_for_metrics(addr: &str, within: Duration, pred: impl Fn(&str) -> bool) -> Instant {
    let end = Instant::now() + within;
    loop {
        let body = request(addr, "GET", "/metrics", None, RPC_TIMEOUT)
            .unwrap()
            .body;
        if pred(&body) {
            return Instant::now();
        }
        assert!(Instant::now() < end, "metrics never matched:\n{body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `aiio_connections_open` as a scrape sees it (the scrape's own
/// connection included).
fn open_is(n: u64) -> impl Fn(&str) -> bool {
    move |body| metric_value(body, "aiio_connections_open") == n
}

/// Join `run()` on a helper thread, failing (not hanging) past `within`.
fn join_within(thread: std::thread::JoinHandle<std::io::Result<()>>, within: Duration) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(thread.join()));
    let joined = rx
        .recv_timeout(within)
        .unwrap_or_else(|_| panic!("run() did not return within {within:?}"));
    joined.unwrap().unwrap();
}

#[test]
fn a_stalled_client_holds_a_connection_slot_not_a_worker() {
    let s = Running::start(
        service(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let proxy = FaultProxy::spawn(s.addr.parse().unwrap()).unwrap();
    proxy.push(&[Fault::StallMs(
        (CONN_IO_TIMEOUT + Duration::from_secs(2)).as_millis() as u64,
    )]);
    let proxy_addr = proxy.addr().to_string();
    let body = job_json(1);
    let stalled = std::thread::spawn(move || {
        request(&proxy_addr, "POST", "/diagnose", Some(&body), RPC_TIMEOUT)
    });
    // The proxy has connected upstream and gone silent: one slot for it,
    // one for this scrape.
    let stalled_at = wait_for_metrics(&s.addr, Duration::from_secs(30), open_is(2));

    // The only diagnosis worker is free, so everyone else is served.
    let health = s.rpc("GET", "/healthz", None);
    assert_eq!(health.status, 200, "{}", health.body);
    let diagnosis = s.rpc("POST", "/diagnose", Some(&job_json(2)));
    assert_eq!(diagnosis.status, 200, "{}", diagnosis.body);
    assert!(
        stalled_at.elapsed() < CONN_IO_TIMEOUT,
        "other clients waited behind the stalled one"
    );

    // The server cuts the silent connection at its read timeout.
    let freed_at = wait_for_metrics(&s.addr, CONN_IO_TIMEOUT + MARGIN, open_is(1));
    let held = freed_at - stalled_at;
    assert!(
        held + Duration::from_secs(1) >= CONN_IO_TIMEOUT && held <= CONN_IO_TIMEOUT + MARGIN,
        "stalled connection held its slot for {held:?}, expected ~{CONN_IO_TIMEOUT:?}"
    );
    let metrics = s.rpc("GET", "/metrics", None).body;
    assert_eq!(
        metric_value(&metrics, "aiio_request_errors_total{endpoint=\"other\"}"),
        1,
        "the cut is recorded as one failed request:\n{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "aiio_requests_total{endpoint=\"diagnose\"}"),
        1
    );
    let _ = stalled.join().unwrap();
    proxy.stop();
    s.stop();
}

#[test]
fn past_the_cap_a_sent_request_reads_503_then_slots_come_back() {
    let server = Server::bind(
        "127.0.0.1:0",
        service().clone(),
        ServeConfig {
            max_connections: 2,
            retry_after_secs: 3,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    // Everything connects before the accept loop runs, so the accept
    // queue orders it: the two quiet sockets take both slots, and the
    // third connection's whole request is already in the server's
    // receive buffer when it is refused.
    let quiet_a = TcpStream::connect(&addr).unwrap();
    let quiet_b = TcpStream::connect(&addr).unwrap();
    let mut over = TcpStream::connect(&addr).unwrap();
    over.write_all(b"GET /healthz HTTP/1.1\r\nHost: aiio\r\n\r\n")
        .unwrap();
    let thread = std::thread::spawn(move || server.run());

    over.set_read_timeout(Some(RPC_TIMEOUT)).unwrap();
    let mut reply = String::new();
    over.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 503 "), "{reply}");
    assert!(reply.contains("\r\nRetry-After: 3\r\n"), "{reply}");
    assert!(reply.contains("\r\nConnection: close\r\n"), "{reply}");
    // The unread request was discarded before the close, so the client
    // saw a FIN, not a reset (a reset can destroy the 503 unread).
    assert!(
        over.take_error().unwrap().is_none(),
        "the rejection closed with a reset"
    );

    drop(quiet_a);
    drop(quiet_b);
    let end = Instant::now() + Duration::from_secs(30);
    loop {
        let r = request(&addr, "GET", "/healthz", None, RPC_TIMEOUT).unwrap();
        if r.status == 200 {
            break;
        }
        assert_eq!(r.status, 503, "{}", r.body);
        assert_eq!(r.header("retry-after"), Some("3"));
        assert!(Instant::now() < end, "slots never came back");
        std::thread::sleep(Duration::from_millis(20));
    }
    let metrics = request(&addr, "GET", "/metrics", None, RPC_TIMEOUT)
        .unwrap()
        .body;
    assert!(metric_value(&metrics, "aiio_connections_rejected_total") >= 1);
    assert_eq!(metric_value(&metrics, "aiio_connections_open"), 1);
    // A rejected connection never reached a handler.
    assert_eq!(
        metric_value(&metrics, "aiio_requests_total{endpoint=\"healthz\"}"),
        1
    );
    handle.shutdown();
    join_within(thread, IDLE_SHUTDOWN_BOUND);
}

#[test]
fn a_zero_connection_cap_is_refused_at_bind() {
    let refused = Server::bind(
        "127.0.0.1:0",
        service().clone(),
        ServeConfig {
            max_connections: 0,
            ..ServeConfig::default()
        },
    );
    assert_eq!(
        refused.err().map(|e| e.kind()),
        Some(std::io::ErrorKind::InvalidInput)
    );
}

/// Bind on the wildcard address, serve one request over loopback, and
/// return the running pieces.
fn start_wildcard() -> (
    String,
    aiio_serve::Handle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("0.0.0.0:0", service().clone(), ServeConfig::default()).unwrap();
    let addr = format!("127.0.0.1:{}", server.local_addr().unwrap().port());
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let health = request(&addr, "GET", "/healthz", None, RPC_TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    (addr, handle, thread)
}

#[test]
fn idle_shutdown_wakes_the_accept_loop_on_a_wildcard_bind() {
    let (_, handle, thread) = start_wildcard();
    handle.shutdown();
    join_within(thread, IDLE_SHUTDOWN_BOUND);

    let (addr, _, thread) = start_wildcard();
    let reply = request(&addr, "POST", "/admin/shutdown", None, RPC_TIMEOUT).unwrap();
    assert!(
        reply.body.contains("\"shutting_down\":true"),
        "{}",
        reply.body
    );
    join_within(thread, IDLE_SHUTDOWN_BOUND);
}

#[test]
fn shutdown_waits_at_most_the_io_timeout_for_a_stalled_connection() {
    let (addr, _, thread) = start_wildcard();
    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled.write_all(b"POST /diagnose HTTP/1.1\r\n").unwrap();
    wait_for_metrics(&addr, Duration::from_secs(30), open_is(2));
    let reply = request(&addr, "POST", "/admin/shutdown", None, RPC_TIMEOUT).unwrap();
    assert!(
        reply.body.contains("\"shutting_down\":true"),
        "{}",
        reply.body
    );
    join_within(thread, CONN_IO_TIMEOUT + MARGIN);
    drop(stalled);
}
