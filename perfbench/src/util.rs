//! Shared plumbing: run context, statistics, failure accounting, the
//! closed-loop HTTP client and the result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad --seconds {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds: u64 = seconds.unwrap_or(10);
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Where a run reads and writes: `.bench_run/` under the current
/// directory (the checkout root).
#[derive(Debug, Clone)]
pub struct Ctx {
    pub args: Args,
    /// Scratch for stores and models, removed when the run ends.
    pub work: PathBuf,
    /// Span files and per-layer tables, kept for inspection.
    pub out: PathBuf,
}

impl Ctx {
    pub fn new(args: Args) -> std::io::Result<Ctx> {
        let base = PathBuf::from(".bench_run");
        let tag = format!("{}-seed{}", args.workload, args.seed);
        let work = base
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let out = base.join("out");
        if work.exists() {
            std::fs::remove_dir_all(&work)?;
        }
        std::fs::create_dir_all(&work)?;
        std::fs::create_dir_all(&out)?;
        Ok(Ctx { args, work, out })
    }

    /// Operations in the measured phase: `--seconds` at a nominal rate,
    /// so both commits of a comparison do the same work.
    pub fn ops(&self, nominal_per_s: f64) -> usize {
        ((self.args.seconds as f64 * nominal_per_s).round() as usize).max(1)
    }

    pub fn out_file(&self, suffix: &str) -> PathBuf {
        self.out.join(format!(
            "{}-seed{}-{suffix}",
            self.args.workload, self.args.seed
        ))
    }
}

/// Linear-interpolated percentile of `values` (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// FNV-1a 64 over a sequence of byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn fnv_hex(bytes: &[u8]) -> String {
    let mut f = Fnv::default();
    f.update(bytes);
    f.hex()
}

/// Flush dirty pages left by earlier work (`sync`), so the fsyncs of the
/// phase that follows do not pay for them. ext4 commits its journal on
/// fsync, and with it every dirty block ordered before, so without this a
/// set-up's cost depends on what ran before it.
pub fn flush_dirty_pages() {
    let _ = std::process::Command::new("sync").status();
}

/// Resident set size of this process, MiB.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Samples this process's RSS every 100 ms on a helper thread until
/// stopped; `stop` returns the median sample, MiB. The median over the
/// measured phase is steadier than one reading, which lands wherever the
/// allocator happens to be.
pub struct RssSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = vec![rss_mib()];
            while !flag.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                samples.push(rss_mib());
            }
            samples
        });
        RssSampler { stop, thread }
    }

    pub fn stop(self) -> f64 {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        median(&self.thread.join().unwrap_or_default())
    }
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, ty)| ty)
}

/// The code under test: the git commit when the checkout is a repository,
/// and always an FNV fingerprint of the workspace sources, since the
/// benchmark also runs from plain exported trees.
pub fn code_identity() -> (String, String) {
    // Only ask git inside a checkout's own repository: outside one it
    // would search the parent directories.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut fnv = Fnv::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            fnv.update(f.to_string_lossy().as_bytes());
            fnv.update(&bytes);
        }
    }
    (commit, fnv.hex())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name()
                .is_some_and(|n| n != "target" && n != "fixtures")
            {
                collect_sources(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Ops attempted and failed, with transport errors listed by kind.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub transport: BTreeMap<String, u64>,
    /// First few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why.into());
        }
    }

    /// Count a check that is not an operation of its own.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(why());
        }
    }

    pub fn transport(&mut self, e: &std::io::Error) {
        let kind = match e.kind() {
            std::io::ErrorKind::ConnectionRefused => "refused".to_string(),
            std::io::ErrorKind::AddrNotAvailable => "eaddrnotavail".to_string(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => "timeout".to_string(),
            other => format!("{other:?}").to_lowercase(),
        };
        *self.transport.entry(kind).or_default() += 1;
        self.fail(format!("transport: {e}"));
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.transport {
            *self.transport.entry(k).or_default() += v;
        }
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// One HTTP request of a closed-loop client.
pub struct HttpOp {
    pub method: &'static str,
    pub path: String,
    pub body: Option<String>,
}

/// What one request returned.
pub struct Reply {
    pub ms: f64,
    pub result: std::io::Result<aiio_serve::client::ClientResponse>,
}

pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Issue `ops` in order on one connection slot, waiting for each reply
/// before sending the next (closed loop). `on_reply` sees every reply as
/// it arrives, so large bodies need not be kept.
pub fn closed_loop(addr: &str, ops: &[(u64, HttpOp)], mut on_reply: impl FnMut(u64, Reply)) {
    for (id, op) in ops {
        let t = Instant::now();
        let result = aiio_serve::client::request(
            addr,
            op.method,
            &op.path,
            op.body.as_deref(),
            CLIENT_TIMEOUT,
        );
        let ms = t.elapsed().as_secs_f64() * 1e3;
        on_reply(*id, Reply { ms, result });
    }
}

/// Run a bound server on its own thread; the returned closure stops it
/// and waits for it to finish.
pub fn start_server(server: aiio_serve::Server) -> (String, impl FnOnce() -> std::io::Result<()>) {
    let addr = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let stop = move || {
        handle.shutdown();
        thread
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked")))
    };
    (addr, stop)
}

/// Empty the process-shared block cache that `Store::open` adopts, so the
/// next phase starts cold.
pub fn clear_shared_cache() {
    if let Some(c) = aiio_store::SegmentCache::shared() {
        c.clear();
    }
}

/// Decode one sealed segment through a brand-new cache, so every read is
/// a miss; median of five, ms.
pub fn cold_segment_ms(meta: &aiio_store::SegmentMeta) -> std::io::Result<f64> {
    let mut times = Vec::new();
    for _ in 0..5 {
        let cache = aiio_store::SegmentCache::new(aiio_store::cache::DEFAULT_CAPACITY_BYTES);
        let t = Instant::now();
        let jobs = cache.read_through(meta).map_err(|e| e.into_io())?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(jobs);
    }
    Ok(median(&times))
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// The full per-layer table, written to the layer file.
    pub layer_detail: Vec<Metric>,
    /// `key value` lines of run context printed before the result.
    pub context: Vec<(String, String)>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The final line: the machine-readable result.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics_json(metrics)
    )
}
