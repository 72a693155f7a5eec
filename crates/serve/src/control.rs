//! The control plane: the background maintenance tasks `aiio serve`
//! hands to an embedded [`aiio_sched::Scheduler`] (see `DESIGN.md`
//! § Control plane).
//!
//! Three tasks, all optional, all validated at parse time:
//!
//! * **pull** (followers only) — one replication pull pass against the
//!   configured primary, then an atomic reopen of the attached store.
//!   This is what makes a follower's lag self-healing: no external
//!   `POST /repl/sync` is ever needed. The pull uses
//!   [`aiio_replnet::PullConfig::single_attempt`] so retry policy lives
//!   in exactly one place, the scheduler's bounded backoff.
//! * **compact** (primaries only) — seal-and-compact the attached store
//!   once its shape crosses the configured [`CompactionTrigger`]
//!   thresholds. A compacted follower copy would diverge from the
//!   primary's byte layout and force full pull resets, which is why the
//!   task is refused on followers at validation time.
//! * **retrain** — watch the drift gauge the ingest path maintains (max
//!   PSI of the fresh tail against the serving model's training
//!   distribution) and, once it crosses the conventional 0.25 drift
//!   threshold, retrain on the store's rows and hot-swap the model slot.
//!   In-flight diagnoses finish on the `Arc` snapshot they started with,
//!   so the swap drops zero requests.

use crate::metrics::Metrics;
use crate::{pool, update_repl_gauges, update_store_gauges, Shared};
use aiio_sched::{RealClock, SchedHandle, Scheduler, TaskSpec};
use aiio_shard::AnyStore;
use aiio_store::CompactionTrigger;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Scheduler configuration carried inside [`crate::ServeConfig`]. Every
/// interval is opt-in (`None` = task disabled); with all three disabled
/// no scheduler thread is spawned at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlConfig {
    /// Replication pull interval (followers). `None` disables.
    pub pull_every: Option<Duration>,
    /// Compaction check interval (primaries). `None` disables.
    pub compact_every: Option<Duration>,
    /// Drift check / retrain interval. `None` disables.
    pub retrain_every: Option<Duration>,
    /// Uniform per-run jitter in `[0, jitter]`, drawn from each task's
    /// seeded stream. Must be strictly below every enabled interval.
    pub jitter: Duration,
    /// Seed of the jitter streams (each task derives its own).
    pub seed: u64,
    /// Store-shape thresholds that make a compaction run actually
    /// compact (below them it reports "skipped").
    pub compaction: CompactionTrigger,
    /// Rows the store must hold before a drift-triggered retrain is
    /// attempted (retraining on a handful of rows yields a worse model
    /// than the drifted one).
    pub retrain_min_rows: usize,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            pull_every: None,
            compact_every: None,
            retrain_every: None,
            jitter: Duration::ZERO,
            seed: 0,
            compaction: CompactionTrigger {
                max_segments: 8,
                max_wal_bytes: 1 << 20,
            },
            retrain_min_rows: 64,
        }
    }
}

/// Why a scheduler configuration was refused — at parse/bind time,
/// before any thread exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// An enabled interval is zero (a busy loop, never what was meant).
    ZeroInterval { task: &'static str },
    /// The jitter is not strictly below an enabled interval.
    JitterNotBelowPeriod {
        task: &'static str,
        jitter_ms: u128,
        period_ms: u128,
    },
    /// Periodic pulling only makes sense on a follower
    /// (`--replicate-from`).
    PullWithoutPrimary,
    /// Compacting a follower would diverge its byte-for-byte copy from
    /// the primary and force full pull resets.
    CompactOnFollower,
    /// Compaction is scheduled but both thresholds are zero, so no run
    /// could ever fire.
    NoCompactionTrigger,
    /// A segment threshold of 1 can never be reached by compacting
    /// (compaction cannot go below one segment): the task would fire
    /// forever without effect.
    SegmentThresholdTooLow,
    /// A retrain floor of zero rows would retrain on an empty store.
    ZeroRetrainMinRows,
    /// The enabled tasks all operate on an attached store, and there is
    /// none.
    NoStoreAttached,
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::ZeroInterval { task } => {
                write!(f, "--sched-{task}: interval must be non-zero")
            }
            ControlError::JitterNotBelowPeriod {
                task,
                jitter_ms,
                period_ms,
            } => write!(
                f,
                "--sched-jitter ({jitter_ms} ms) must be strictly below the {task} interval ({period_ms} ms)"
            ),
            ControlError::PullWithoutPrimary => write!(
                f,
                "--sched-pull needs --replicate-from URL (only a follower pulls)"
            ),
            ControlError::CompactOnFollower => write!(
                f,
                "--sched-compact cannot run on a follower: compacting would diverge the replica's byte-for-byte copy from the primary"
            ),
            ControlError::NoCompactionTrigger => write!(
                f,
                "--sched-compact needs at least one threshold (--compact-max-segments or --compact-max-wal-bytes) to be non-zero"
            ),
            ControlError::SegmentThresholdTooLow => write!(
                f,
                "--compact-max-segments must be at least 2: compaction cannot reduce a store below one segment"
            ),
            ControlError::ZeroRetrainMinRows => {
                write!(f, "--retrain-min-rows must be non-zero")
            }
            ControlError::NoStoreAttached => write!(
                f,
                "scheduled maintenance needs an attached store (start `aiio serve` with --store DIR)"
            ),
        }
    }
}

impl std::error::Error for ControlError {}

impl ControlConfig {
    /// True when any task is enabled (and a scheduler thread is needed).
    pub fn any_enabled(&self) -> bool {
        self.pull_every.is_some() || self.compact_every.is_some() || self.retrain_every.is_some()
    }

    /// Validate the whole schedule against the server's role. Called at
    /// bind (and by the CLI at flag-parse time) so a bad schedule is a
    /// typed error before any thread exists.
    pub fn validate(&self, is_follower: bool, has_store: bool) -> Result<(), ControlError> {
        let enabled = [
            ("pull", self.pull_every),
            ("compact", self.compact_every),
            ("retrain", self.retrain_every),
        ];
        for (task, interval) in enabled {
            let Some(period) = interval else { continue };
            if period.is_zero() {
                return Err(ControlError::ZeroInterval { task });
            }
            if self.jitter >= period {
                return Err(ControlError::JitterNotBelowPeriod {
                    task,
                    jitter_ms: self.jitter.as_millis(),
                    period_ms: period.as_millis(),
                });
            }
        }
        if self.pull_every.is_some() && !is_follower {
            return Err(ControlError::PullWithoutPrimary);
        }
        if self.compact_every.is_some() {
            if is_follower {
                return Err(ControlError::CompactOnFollower);
            }
            if !self.compaction.is_enabled() {
                return Err(ControlError::NoCompactionTrigger);
            }
            if self.compaction.max_segments == 1 {
                return Err(ControlError::SegmentThresholdTooLow);
            }
        }
        if self.retrain_every.is_some() && self.retrain_min_rows == 0 {
            return Err(ControlError::ZeroRetrainMinRows);
        }
        if self.any_enabled() && !has_store {
            return Err(ControlError::NoStoreAttached);
        }
        Ok(())
    }
}

/// Validate the control config against the server's role and, when any
/// task is enabled, spawn the scheduler loop with the enabled tasks
/// registered. Called once from `Server::bind`.
pub(crate) fn spawn(shared: &Arc<Shared>) -> std::io::Result<Option<SchedHandle>> {
    let cfg = shared.config.control.clone();
    cfg.validate(shared.repl.is_some(), shared.ingest.is_some())
        .map_err(std::io::Error::other)?;
    if !cfg.any_enabled() {
        return Ok(None);
    }
    let clock = Arc::new(RealClock::new());
    let mut sched = Scheduler::new(clock);
    let spec = |name: &'static str, period: Duration, salt: u64| TaskSpec {
        name,
        period,
        jitter: cfg.jitter,
        backoff_cap: period.saturating_mul(16),
        seed: cfg.seed ^ salt,
    };
    if let Some(period) = cfg.pull_every {
        let s = Arc::clone(shared);
        sched
            .add(
                spec("pull", period, 0x70756c6c),
                Box::new(move || run_pull(&s)),
            )
            .map_err(std::io::Error::other)?;
    }
    if let Some(period) = cfg.compact_every {
        let s = Arc::clone(shared);
        sched
            .add(
                spec("compact", period, 0x636f6d70),
                Box::new(move || run_compact(&s)),
            )
            .map_err(std::io::Error::other)?;
    }
    if let Some(period) = cfg.retrain_every {
        let s = Arc::clone(shared);
        sched
            .add(
                spec("retrain", period, 0x72657472),
                Box::new(move || run_retrain(&s)),
            )
            .map_err(std::io::Error::other)?;
    }
    let handle = sched.spawn()?;
    shared.metrics.set_sched(handle.stats());
    Ok(Some(handle))
}

/// How a pull pass failed, split the way `POST /repl/sync` maps errors
/// onto status codes (upstream trouble is a 502, local trouble a 500).
pub(crate) enum PullError {
    Upstream(String),
    Local(String),
}

impl PullError {
    fn into_message(self) -> String {
        match self {
            PullError::Upstream(m) | PullError::Local(m) => m,
        }
    }
}

/// One full follower pull: pass against the primary, atomic reopen of
/// the attached store on the fresh bytes, gauge refresh. Shared by the
/// `POST /repl/sync` endpoint and the scheduled pull task, so both
/// paths keep exactly the same locking discipline.
pub(crate) fn pull_and_reopen(
    shared: &Shared,
    repl: &Mutex<String>,
    cfg: &aiio_replnet::PullConfig,
) -> Result<aiio_replnet::PullReport, PullError> {
    let Some(state) = &shared.ingest else {
        return Err(PullError::Local("follower has no store attached".into()));
    };
    let Some(dir) = shared.config.store_dir.as_deref() else {
        return Err(PullError::Local("follower has no store directory".into()));
    };
    // xtask-allow: AIIO-R002 — intentional hold: the repl mutex exists to
    // serialize pull passes; concurrent passes would interleave staging
    // writes and truncations on the same replica files.
    let Ok(primary) = repl.lock() else {
        return Err(PullError::Local("replication mutex poisoned".into()));
    };
    let report = aiio_replnet::pull_pass(dir, &primary, cfg)
        .map_err(|e| PullError::Upstream(format!("pull from {} failed: {e}", &*primary)))?;
    let Ok(mut st) = state.lock() else {
        return Err(PullError::Local("store mutex poisoned".into()));
    };
    // xtask-allow: AIIO-R002 — intentional hold: the reopen swaps the
    // attached store atomically with respect to concurrent readers of
    // the ingest state; serving a half-swapped store would mix epochs.
    match AnyStore::open(dir, shared.config.shards) {
        Ok(new_store) => st.store = new_store,
        Err(e) => {
            return Err(PullError::Local(format!(
                "reopen after sync failed: {}",
                e.into_io()
            )))
        }
    }
    let stats = st.store.stats();
    drop(st);
    update_store_gauges(&shared.metrics, &stats);
    update_repl_gauges(&shared.metrics, &report);
    Ok(report)
}

/// The scheduled pull task: one single-attempt pass (the scheduler's
/// backoff is the retry policy). Completed on a clean pass; a pass that
/// published everything but still measured declared-but-unshipped
/// frames (the primary appended mid-pass) counts as completed too — the
/// next period catches up.
pub(crate) fn run_pull(shared: &Shared) -> Result<bool, String> {
    let Some(repl) = &shared.repl else {
        return Err("not a replication follower".to_string());
    };
    pull_and_reopen(shared, repl, &aiio_replnet::PullConfig::single_attempt())
        .map(|_| true)
        .map_err(PullError::into_message)
}

/// The scheduled compaction task: skip while the store's shape is below
/// the thresholds; past them, seal the WAL tail and merge undersized
/// segments in one critical section.
pub(crate) fn run_compact(shared: &Shared) -> Result<bool, String> {
    let Some(state) = &shared.ingest else {
        return Err("no store attached".to_string());
    };
    let trigger = shared.config.control.compaction;
    let Ok(mut st) = state.lock() else {
        return Err("store mutex poisoned".to_string());
    };
    if !trigger.due(&st.store.stats().store) {
        return Ok(false);
    }
    // xtask-allow: AIIO-R002 — intentional hold: the ingest mutex *is*
    // the store's write order; sealing and compacting rewrite segment
    // files and the WAL, and an append interleaved with that rewrite
    // would corrupt ordinal assignment.
    st.store
        .seal()
        .and_then(|_| st.store.compact())
        .map_err(|e| format!("compaction failed: {e}"))?;
    let stats = st.store.stats();
    drop(st);
    update_store_gauges(&shared.metrics, &stats);
    Ok(true)
}

/// The scheduled retrain task: skip while the drift gauge (max PSI of
/// the fresh ingest tail, maintained by `POST /ingest`) is at or below
/// the 0.25 drift threshold; past it, retrain on the store's rows and
/// hot-swap the model slot.
pub(crate) fn run_retrain(shared: &Shared) -> Result<bool, String> {
    let threshold_micro = (aiio::drift::PSI_DRIFTED * 1e6) as u64;
    if shared.metrics.drift_max_psi_micro.load(Ordering::Relaxed) <= threshold_micro {
        return Ok(false);
    }
    let Some(state) = &shared.ingest else {
        return Err("no store attached".to_string());
    };
    let db = {
        let Ok(st) = state.lock() else {
            return Err("store mutex poisoned".to_string());
        };
        // xtask-allow: AIIO-R002 — intentional hold: the ingest mutex is
        // the store's synchronization; reading rows outside it could
        // interleave with an append mid-WAL-block. Training itself runs
        // below, after the guard is gone.
        st.store
            .read_all()
            .map_err(|e| format!("store read failed: {e}"))?
    };
    if db.len() < shared.config.control.retrain_min_rows {
        return Ok(false);
    }
    let train_cfg = aiio::TrainConfig::fast();
    let service = aiio::AiioService::train(&train_cfg, &db)
        .map_err(|e| format!("drift retrain failed: {e}"))?;
    if service.zoo().models().is_empty() {
        return Err("drift retrain produced a zoo with no usable models".to_string());
    }
    pool::swap(&shared.slot, service);
    shared
        .metrics
        .retrains_total
        .fetch_add(1, Ordering::Relaxed);
    // The tail was scored against the *old* model's training
    // distribution; a fresh detector needs a fresh window, and the gauge
    // resets with it so one drift episode triggers one retrain.
    if let Ok(mut st) = state.lock() {
        st.tail.clear();
    }
    shared
        .metrics
        .drift_max_psi_micro
        .store(0, Ordering::Relaxed);
    Ok(true)
}

/// `GET /sched/stats`: the scheduler's live per-task counters as JSON.
pub(crate) fn sched_stats_response(metrics: &Metrics) -> crate::http::Response {
    let Some(stats) = metrics.sched() else {
        return crate::http::Response::error(
            404,
            "no scheduler running (start `aiio serve` with --sched-pull/--sched-compact/--sched-retrain)",
        );
    };
    let now = stats.now_ms();
    let mut body = String::with_capacity(256);
    body.push_str("{\"tasks\":[");
    for (i, t) in stats.tasks().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let next = t.next_run_ms.load(Ordering::Relaxed).saturating_sub(now);
        body.push_str(&format!(
            "{{\"task\":\"{}\",\"runs\":{},\"failures\":{},\"backoff_level\":{},\"next_run_in_ms\":{next},\"last_error\":{}}}",
            t.name,
            t.runs_total.load(Ordering::Relaxed),
            t.failures_total.load(Ordering::Relaxed),
            t.backoff_level.load(Ordering::Relaxed),
            serde_json::to_string(&t.last_error()).unwrap_or_else(|_| "\"\"".to_string()),
        ));
    }
    body.push_str("]}");
    crate::http::Response::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ControlConfig {
        ControlConfig {
            pull_every: None,
            compact_every: Some(Duration::from_secs(60)),
            retrain_every: Some(Duration::from_secs(120)),
            ..ControlConfig::default()
        }
    }

    #[test]
    fn validation_accepts_a_sane_primary_schedule() {
        assert_eq!(base().validate(false, true), Ok(()));
    }

    #[test]
    fn validation_rejects_zero_intervals_and_fat_jitter() {
        let mut cfg = base();
        cfg.compact_every = Some(Duration::ZERO);
        assert_eq!(
            cfg.validate(false, true),
            Err(ControlError::ZeroInterval { task: "compact" })
        );
        let mut cfg = base();
        cfg.jitter = Duration::from_secs(60);
        assert!(matches!(
            cfg.validate(false, true),
            Err(ControlError::JitterNotBelowPeriod {
                task: "compact",
                ..
            })
        ));
    }

    #[test]
    fn validation_ties_tasks_to_roles() {
        let mut cfg = base();
        cfg.pull_every = Some(Duration::from_secs(30));
        assert_eq!(
            cfg.validate(false, true),
            Err(ControlError::PullWithoutPrimary)
        );
        let follower = ControlConfig {
            pull_every: Some(Duration::from_secs(30)),
            compact_every: None,
            retrain_every: None,
            ..ControlConfig::default()
        };
        assert_eq!(follower.validate(true, true), Ok(()));
        let mut compacting_follower = follower.clone();
        compacting_follower.compact_every = Some(Duration::from_secs(60));
        assert_eq!(
            compacting_follower.validate(true, true),
            Err(ControlError::CompactOnFollower)
        );
    }

    #[test]
    fn validation_checks_thresholds_and_store_presence() {
        let mut cfg = base();
        cfg.compaction = CompactionTrigger {
            max_segments: 0,
            max_wal_bytes: 0,
        };
        assert_eq!(
            cfg.validate(false, true),
            Err(ControlError::NoCompactionTrigger)
        );
        cfg.compaction.max_segments = 1;
        assert_eq!(
            cfg.validate(false, true),
            Err(ControlError::SegmentThresholdTooLow)
        );
        let mut cfg = base();
        cfg.retrain_min_rows = 0;
        assert_eq!(
            cfg.validate(false, true),
            Err(ControlError::ZeroRetrainMinRows)
        );
        assert_eq!(
            base().validate(false, false),
            Err(ControlError::NoStoreAttached)
        );
        // All-disabled needs nothing.
        assert_eq!(ControlConfig::default().validate(false, false), Ok(()));
    }
}
