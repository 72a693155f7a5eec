//! The follower-side pull loop: one [`pull_pass`] makes the local copy
//! of a primary's store byte-identical to what the primary had durably
//! on disk when the pass ran (assuming the primary is quiesced; a live
//! primary just leaves the follower a valid prefix to extend next pass).
//!
//! Each shard goes through the same engine local fleet replication uses
//! ([`aiio_shard::replica::pull_shard`]); this module only supplies the
//! HTTP [`ShardSource`] and the fleet-level order around it.
//!
//! Pass order is load-bearing. For a fleet the pass ships the manifest
//! first, then every shard's segments and WAL, and the ordinal journal
//! *last*: a pass that dies anywhere leaves journal rows that all have
//! their shard bytes already present, which is exactly the invariant
//! [`aiio_shard::ShardedStore`] expects at open (journal rows <= shard
//! rows; the reverse would trigger a heal). Within a shard, segments
//! land before the WAL so a WAL reset after a primary seal never races
//! the segment that replaced it.
//!
//! The WAL and the journal are both framed logs and go through the same
//! follower step ([`replica::pull_log`]): the resume point is *derived*
//! from the local copy's intact prefix, never persisted, so a pull
//! killed at any byte resumes exactly, and received bytes are CRC-walked
//! before publication. Segment bodies are checked against their CRC
//! trailer before the staging-write + atomic-rename publish.

use std::io;
use std::path::Path;
use std::time::Duration;

use aiio_shard::replica::{self, SegmentEntry, ShardPullReport, ShardSource};
use aiio_shard::{journal, manifest};
use aiio_store::frames::Tail;

use crate::http::{self, Response};
use crate::server::ReplManifest;
use crate::{H_FRAMES, H_OFFSET, H_RESET, H_ROWS};

/// Deadlines and retry posture for one pull pass.
#[derive(Debug, Clone)]
pub struct PullConfig {
    /// Per-request deadline (connect + write + read).
    pub deadline: Duration,
    /// Extra attempts after the first failure, per request.
    pub retries: u32,
    /// Linear backoff unit between attempts.
    pub backoff: Duration,
}

impl Default for PullConfig {
    fn default() -> Self {
        PullConfig {
            deadline: Duration::from_secs(10),
            retries: 3,
            backoff: Duration::from_millis(100),
        }
    }
}

impl PullConfig {
    /// No per-request retries: one attempt per request, fail fast. The
    /// scheduled pull task in `aiio-sched` uses this so retry policy
    /// lives in exactly one place — the scheduler's bounded exponential
    /// backoff — instead of multiplying with the HTTP layer's own linear
    /// retries.
    pub fn single_attempt() -> Self {
        PullConfig {
            deadline: Duration::from_secs(10),
            retries: 0,
            backoff: Duration::ZERO,
        }
    }
}

/// What one [`pull_pass`] (or [`probe_pass`]) did.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PullReport {
    /// `"single"` or `"fleet"`, as reported by the primary.
    pub layout: String,
    /// Primary epoch mirrored locally.
    pub epoch: u64,
    /// Per-shard results.
    pub shards: Vec<ShardPullReport>,
    /// Journal bytes published (fleet only).
    pub journal_bytes_shipped: u64,
    /// True when the local journal copy restarted from zero.
    pub journal_reset: bool,
    /// True when this was a probe (no writes performed).
    pub probe: bool,
}

impl PullReport {
    /// Total declared-but-unpublished frames across shards.
    pub fn total_lag_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.lag_frames).sum()
    }
}

/// Pull the primary at `base` into `root`, publishing verified bytes.
/// Returns the per-shard report; an `Err` means the pass stopped early,
/// leaving the local copy a valid prefix the next pass resumes from.
pub fn pull_pass(root: &Path, base: &str, cfg: &PullConfig) -> io::Result<PullReport> {
    pass(root, base, cfg, false)
}

/// Measure replication lag against the primary at `base` without
/// writing anything locally.
pub fn probe_pass(root: &Path, base: &str, cfg: &PullConfig) -> io::Result<PullReport> {
    pass(root, base, cfg, true)
}

fn pass(root: &Path, base: &str, cfg: &PullConfig, probe: bool) -> io::Result<PullReport> {
    let m = fetch_manifest(base, cfg)?;
    let mut report = PullReport {
        layout: m.layout.clone(),
        epoch: m.epoch,
        shards: Vec::new(),
        journal_bytes_shipped: 0,
        journal_reset: false,
        probe,
    };
    let source = |shard| HttpSource { base, shard, cfg };
    if m.layout == "single" {
        let sp = replica::pull_shard(root, &source(0), 0, probe)?;
        report.shards.push(sp);
        return Ok(report);
    }
    if m.layout != "fleet" {
        return Err(io::Error::other(format!(
            "replnet: primary reports unknown layout {:?}",
            m.layout
        )));
    }
    let shards = (m.shards as usize).max(1);
    if !probe {
        adopt_manifest(root, &m)?;
    }
    let epoch_dir = manifest::epoch_dir(root, m.epoch);
    for s in 0..shards {
        let dir = manifest::replica_dir(&epoch_dir, s);
        let sp = replica::pull_shard(&dir, &source(s), s, probe)?;
        report.shards.push(sp);
    }
    // Journal last, and only when every shard caught up fully: a torn
    // WAL stream comes back as Ok-with-lag, and shipping journal rows
    // whose shard bytes did not land would invert the journal <= rows
    // invariant the fleet open relies on.
    if !probe && report.total_lag_frames() == 0 {
        let path = epoch_dir.join(journal::JOURNAL_NAME);
        let step = replica::pull_log(&path, journal::JOURNAL_MAGIC, false, |from, next| {
            fetch_tail(base, &format!("/repl/journal?from={from}&next={next}"), cfg)
        })?;
        report.journal_bytes_shipped = step.bytes;
        report.journal_reset = step.reset;
    }
    Ok(report)
}

/// One GET under the pass's deadline and retry posture: a transport
/// error, a non-200 status or a response `verify` rejects is retried up
/// to `cfg.retries` extra times, sleeping `backoff * attempt` between
/// attempts. A 200 with a torn body passes unless `verify` objects — the
/// follower step's CRC walk truncates WAL and journal tails itself.
fn get_verified(
    base: &str,
    path: &str,
    cfg: &PullConfig,
    verify: impl Fn(&Response) -> io::Result<()>,
) -> io::Result<Response> {
    let mut attempt = 0;
    loop {
        let outcome = http::roundtrip(base, "GET", path, &[], None, cfg.deadline).and_then(|r| {
            if r.status != 200 {
                return Err(io::Error::other(format!(
                    "replnet: GET {path} -> HTTP {}",
                    r.status
                )));
            }
            verify(&r).map(|()| r)
        });
        match outcome {
            Ok(r) => return Ok(r),
            Err(e) if attempt >= cfg.retries => return Err(e),
            Err(_) => {}
        }
        attempt += 1;
        std::thread::sleep(cfg.backoff * attempt);
    }
}

/// [`get_verified`] for bodies the caller checks itself.
fn get(base: &str, path: &str, cfg: &PullConfig) -> io::Result<Response> {
    get_verified(base, path, cfg, |_| Ok(()))
}

/// The value of header `name` as a u64, 0 when absent or malformed.
fn header_u64(r: &Response, name: &str) -> u64 {
    r.header(name).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// GET one framed-log tail (`path` carries `from=`/`next=`), reading the
/// counts from the reply headers.
fn fetch_tail(base: &str, path: &str, cfg: &PullConfig) -> io::Result<Tail> {
    let f = get(base, path, cfg)?;
    Ok(Tail {
        reset: f.header(H_RESET) == Some("1"),
        frames: header_u64(&f, H_FRAMES),
        rows: header_u64(&f, H_ROWS),
        new_offset: header_u64(&f, H_OFFSET),
        body: f.body,
    })
}

fn fetch_manifest(base: &str, cfg: &PullConfig) -> io::Result<ReplManifest> {
    let f = get(base, "/repl/manifest", cfg)?;
    let text = std::str::from_utf8(&f.body)
        .map_err(|_| io::Error::other("replnet: non-UTF8 manifest body"))?;
    serde_json::from_str(text).map_err(|e| io::Error::other(format!("replnet: manifest: {e}")))
}

/// Mirror the primary's topology locally, sweeping dead epochs, when it
/// differs from what is already published.
fn adopt_manifest(root: &Path, m: &ReplManifest) -> io::Result<()> {
    let into_io = aiio_store::StoreError::into_io;
    let shards = (m.shards as usize).max(1);
    let current = manifest::load(root).map_err(into_io)?;
    let stale = match &current {
        None => true,
        Some(c) => c.epoch != m.epoch || c.shards != shards,
    };
    if stale {
        std::fs::create_dir_all(root)?;
        let mut local = manifest::Manifest::new(shards);
        local.epoch = m.epoch;
        manifest::publish(root, &local).map_err(into_io)?;
        manifest::sweep_stale_epochs(root, m.epoch);
    }
    Ok(())
}

/// One primary shard reached over HTTP: the replication engine's source
/// for a follower on another host.
struct HttpSource<'a> {
    base: &'a str,
    shard: usize,
    cfg: &'a PullConfig,
}

impl ShardSource for HttpSource<'_> {
    fn list_segments(&self) -> io::Result<Vec<SegmentEntry>> {
        let f = get(
            self.base,
            &format!("/repl/{}/segments", self.shard),
            self.cfg,
        )?;
        let text = std::str::from_utf8(&f.body)
            .map_err(|_| io::Error::other("replnet: non-UTF8 segment listing"))?;
        serde_json::from_str(text)
            .map_err(|e| io::Error::other(format!("replnet: segment listing: {e}")))
    }

    /// Fetch one segment body, verifying the 4-byte LE CRC32 trailer.
    /// Transit corruption fails the check and is retried like any other
    /// transport error; it can never reach the publish step.
    fn fetch_segment(&self, name: &str) -> io::Result<Vec<u8>> {
        let path = format!("/repl/{}/segment/{name}", self.shard);
        let mut body = get_verified(self.base, &path, self.cfg, |r| {
            match r.body.split_last_chunk::<4>() {
                Some((data, trailer))
                    if aiio_store::crc32(data) == u32::from_le_bytes(*trailer) =>
                {
                    Ok(())
                }
                Some(_) => Err(io::Error::other(format!(
                    "replnet: segment {name}: CRC mismatch in transit"
                ))),
                None => Err(io::Error::other(format!(
                    "replnet: segment {name}: truncated before CRC trailer"
                ))),
            }
        })?
        .body;
        body.truncate(body.len().saturating_sub(4));
        Ok(body)
    }

    fn fetch_wal(&self, from: u64, next: u64, probe: bool) -> io::Result<Tail> {
        let probe_q = if probe { "&probe=1" } else { "" };
        let path = format!("/repl/{}/wal?from={from}&next={next}{probe_q}", self.shard);
        fetch_tail(self.base, &path, self.cfg)
    }
}
