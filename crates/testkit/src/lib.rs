//! `aiio-testkit`: the workspace's shared fault-injection vocabulary.
//!
//! Every crash-safety suite in this workspace speaks the same dialect of
//! damage — seeded RNG schedules, prefix truncation, single-byte and
//! single-bit flips, whole-directory loss — and the network replication
//! suite adds one more: a deterministic TCP proxy that corrupts a stream
//! in flight. This crate centralises those helpers so
//! `crates/store/tests/recovery.rs`, `crates/shard/tests/failover.rs`
//! and the `aiio-serve` replication harness inject faults with one
//! implementation instead of three private copies.
//!
//! It is a **dev-dependency only**: nothing in a shipping binary may
//! depend on it.
//!
//! [`FaultProxy`] keeps its own byte-level HTTP framing rather than using
//! `aiio_replnet::http`, for two reasons. It must relay and corrupt raw
//! bytes, which a parsed response cannot express. And `aiio-store` and
//! `aiio-shard` dev-depend on this crate, so depending on `aiio-replnet`
//! (which depends on both) would close a dev-dependency cycle.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A seeded RNG for reproducible fault schedules. Every trial that uses
/// randomness derives it from a printed seed so a failure replays.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A fresh scratch directory namespaced by crate prefix, tag and pid;
/// any prior leftover is removed first.
pub fn tmpdir(prefix: &str, tag: &str) -> std::io::Result<PathBuf> {
    let d = std::env::temp_dir().join(format!("{prefix}_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d)?;
    Ok(d)
}

/// Trim `path` to its first `len` bytes (simulates a torn write or a
/// crash mid-append). No-op when the file is already shorter.
pub fn truncate_file(path: &Path, len: u64) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    if f.metadata()?.len() > len {
        f.set_len(len)?;
        f.sync_all()?;
    }
    Ok(())
}

/// XOR byte `idx` of `path` with `mask` (simulates silent media
/// corruption). `idx` is clamped into the file; an empty file is left
/// untouched.
pub fn flip_byte(path: &Path, idx: usize, mask: u8) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Ok(());
    }
    let i = idx.min(bytes.len() - 1);
    bytes[i] ^= mask;
    std::fs::write(path, &bytes)
}

/// Flip a single bit (`bit` 0..=7) of byte `idx` in `path`.
pub fn flip_bit(path: &Path, idx: usize, bit: u32) -> std::io::Result<()> {
    flip_byte(path, idx, 1u8 << (bit % 8))
}

/// Remove a file or directory wholesale (simulates losing a disk or a
/// shard directory). Missing targets are fine — the loss already
/// happened.
pub fn kill_path(path: &Path) -> std::io::Result<()> {
    let res = if path.is_dir() {
        std::fs::remove_dir_all(path)
    } else {
        std::fs::remove_file(path)
    };
    match res {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Bind an ephemeral loopback port, retrying briefly: CI runners under
/// parallel suites can transiently exhaust the ephemeral range, and a
/// port-availability flake must not fail a determinism suite.
pub fn loopback_listener() -> std::io::Result<TcpListener> {
    let mut last: Option<std::io::Error> = None;
    for _ in 0..16 {
        match TcpListener::bind(("127.0.0.1", 0)) {
            Ok(l) => return Ok(l),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("loopback bind failed with no error")))
}

/// One scheduled action the [`FaultProxy`] applies to a proxied
/// HTTP exchange. Faults are consumed connection-by-connection in
/// schedule order; an empty schedule means [`Fault::Pass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Relay the exchange untouched.
    Pass,
    /// Drop the client connection without contacting the upstream.
    Refuse,
    /// Relay the response head, then cut the stream after `n` body
    /// bytes (a connection dropped mid-frame; `Content-Length` still
    /// promises the full body).
    CutBodyAfter(usize),
    /// Relay in full with response-body byte `n % len` XORed `0xA5`
    /// (silent in-flight corruption a CRC must catch).
    FlipBodyByte(usize),
    /// Open the upstream connection, then sleep `ms` before relaying the
    /// request: the upstream holds a connected, silent client (a slow
    /// client occupying a connection slot) while the client is driven
    /// past its per-request deadline.
    StallMs(u64),
}

struct ProxyShared {
    upstream: SocketAddr,
    schedule: Mutex<VecDeque<Fault>>,
    log: Mutex<Vec<String>>,
    stop: AtomicBool,
}

/// A deterministic in-process TCP proxy for one-request-per-connection
/// HTTP (`Connection: close`), applying one scheduled [`Fault`] per
/// accepted connection. Connections are handled *sequentially* on the
/// proxy thread, so a single-threaded client sees faults in exactly the
/// scheduled order — the property that makes a seeded schedule replay.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Start a proxy on an ephemeral loopback port in front of
    /// `upstream`, with an empty (all-[`Fault::Pass`]) schedule.
    pub fn spawn(upstream: SocketAddr) -> std::io::Result<FaultProxy> {
        let listener = loopback_listener()?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            schedule: Mutex::new(VecDeque::new()),
            log: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("aiio-faultproxy".into())
            .spawn(move || proxy_loop(&listener, &worker))?;
        Ok(FaultProxy {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// The address clients should talk to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Append faults to the schedule (consumed one per connection).
    pub fn push(&self, faults: &[Fault]) {
        if let Ok(mut q) = self.shared.schedule.lock() {
            q.extend(faults.iter().copied());
        }
    }

    /// Drop any unconsumed faults (subsequent connections pass clean).
    pub fn clear(&self) {
        if let Ok(mut q) = self.shared.schedule.lock() {
            *q = VecDeque::new();
        }
    }

    /// The schedule log so far: one line per accepted connection naming
    /// the fault applied and the request line it hit. Suites write this
    /// to disk so a failing seed ships its schedule as an artifact.
    pub fn log(&self) -> Vec<String> {
        self.shared
            .log
            .lock()
            .map(|l| l.clone())
            .unwrap_or_default()
    }

    /// Stop the proxy and join its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Pop the next scheduled fault; the guard must die here, before the
/// proxied exchange starts blocking on sockets.
fn next_fault(shared: &ProxyShared) -> Fault {
    shared
        .schedule
        .lock()
        .ok()
        .and_then(|mut q| q.pop_front())
        .unwrap_or(Fault::Pass)
}

fn proxy_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    let mut served = 0usize;
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                let fault = next_fault(shared);
                let line = handle_exchange(client, shared.upstream, fault);
                if let Ok(mut log) = shared.log.lock() {
                    log.push(format!("conn {served}: {fault:?} <- {line}"));
                }
                served += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Serve one proxied exchange, applying `fault`. Returns the request
/// line for the schedule log. All I/O errors are swallowed: from the
/// suite's point of view a broken proxy leg is just another fault.
fn handle_exchange(mut client: TcpStream, upstream: SocketAddr, fault: Fault) -> String {
    let _ = client.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = client.set_write_timeout(Some(Duration::from_secs(5)));
    let request = match read_http_message(&mut client) {
        Some(r) => r,
        None => return "<unreadable request>".to_string(),
    };
    let line = request
        .split(|&b| b == b'\r')
        .next()
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .unwrap_or_default();
    if fault == Fault::Refuse {
        return line;
    }
    let Ok(mut server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) else {
        return line;
    };
    let _ = server.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = server.set_write_timeout(Some(Duration::from_secs(5)));
    if let Fault::StallMs(ms) = fault {
        std::thread::sleep(Duration::from_millis(ms));
    }
    if server.write_all(&request).is_err() {
        return line;
    }
    let mut response = Vec::new();
    // The upstream speaks `Connection: close`: EOF ends the response.
    let _ = server.read_to_end(&mut response);
    let (head_len, body_len) = split_head(&response);
    match fault {
        Fault::CutBodyAfter(n) => {
            let end = head_len + n.min(body_len);
            let _ = client.write_all(&response[..end]);
        }
        Fault::FlipBodyByte(n) => {
            if body_len > 0 {
                response[head_len + n % body_len] ^= 0xA5;
            }
            let _ = client.write_all(&response);
        }
        _ => {
            let _ = client.write_all(&response);
        }
    }
    let _ = client.flush();
    line
}

/// Read one HTTP message (head plus `Content-Length` body) from a
/// stream. Returns `None` on timeout or malformed framing.
fn read_http_message(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > 1 << 20 {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    };
    let content_length = content_length_of(&buf[..head_end]).unwrap_or(0);
    let total = head_end + content_length;
    while buf.len() < total {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    Some(buf)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn content_length_of(head: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(head).ok()?;
    for line in text.lines() {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                return value.trim().parse().ok();
            }
        }
    }
    None
}

/// Byte offsets of an HTTP response: (head length including the blank
/// line, body length). A response with no head/body split counts as all
/// head — faults then leave it untouched rather than corrupting framing.
fn split_head(response: &[u8]) -> (usize, usize) {
    match find_head_end(response) {
        Some(pos) => (pos, response.len() - pos),
        None => (response.len(), 0),
    }
}
