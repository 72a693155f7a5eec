//! Per-job log records: counter sets, time counters, and the performance
//! tag of paper Eq. 1.

use crate::counters::{CounterId, N_COUNTERS};
use serde::{Deserialize, Serialize};

/// Bytes per MiB, for the paper's MiB/s performance unit.
pub const MIB: f64 = 1024.0 * 1024.0;

/// A dense set of the 46 feature counters for one job.
///
/// Zero is the "missing / not applicable" value, exactly as in the paper's
/// feature engineering (§3.1): an application that never writes has every
/// write counter at zero, and the sparsity-aware diagnosis relies on that.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSet {
    values: Vec<f64>,
}

impl Default for CounterSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterSet {
    /// All-zero counter set.
    pub fn new() -> Self {
        Self {
            values: vec![0.0; N_COUNTERS],
        }
    }

    /// Build from a dense vector in [`CounterId::ALL`] order.
    ///
    /// # Panics
    /// Panics if `values.len() != N_COUNTERS`.
    pub fn from_vec(values: Vec<f64>) -> Self {
        assert_eq!(values.len(), N_COUNTERS, "counter vector length mismatch");
        Self { values }
    }

    /// Value of one counter.
    #[inline]
    pub fn get(&self, id: CounterId) -> f64 {
        self.values[id.index()]
    }

    /// Set one counter.
    #[inline]
    pub fn set(&mut self, id: CounterId, v: f64) {
        self.values[id.index()] = v;
    }

    /// Add to one counter (the common bump-a-counter operation while
    /// simulating).
    #[inline]
    pub fn add(&mut self, id: CounterId, v: f64) {
        self.values[id.index()] += v;
    }

    /// Increment one counter by 1.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.values[id.index()] += 1.0;
    }

    /// Dense view in [`CounterId::ALL`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Fraction of counters that are exactly zero (paper §3.1's per-job
    /// sparsity term).
    pub fn sparsity(&self) -> f64 {
        // xtask-allow: AIIO-F001 — absent counters are exactly zero by construction
        let zeros = self.values.iter().filter(|&&v| v == 0.0).count();
        zeros as f64 / N_COUNTERS as f64
    }

    /// Ids of counters with nonzero values.
    pub fn nonzero_counters(&self) -> Vec<CounterId> {
        CounterId::ALL
            .iter()
            .copied()
            // xtask-allow: AIIO-F001 — absent counters are exactly zero by construction
            .filter(|c| self.get(*c) != 0.0)
            .collect()
    }
}

/// The time-related Darshan counters.
///
/// The paper uses Darshan's 25 time counters only to *estimate the
/// performance tag* and then drops them ("effects, not causes"); we keep the
/// aggregate quantities that estimation needs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeCounters {
    /// Cumulative read time across ranks, seconds.
    pub total_read_time: f64,
    /// Cumulative write time across ranks, seconds.
    pub total_write_time: f64,
    /// Cumulative metadata time across ranks, seconds.
    pub total_meta_time: f64,
    /// Wall time of the slowest rank's I/O, seconds — the denominator of
    /// paper Eq. 1.
    pub slowest_rank_seconds: f64,
}

/// Why [`JobLog::validate`] rejected a log: the first offending field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidJobLog {
    /// The offending log.
    pub job_id: u64,
    /// A counter name, a [`TimeCounters`] field, or `"counters"` when the
    /// counter vector has the wrong length.
    pub field: &'static str,
    /// The offending value (for `"counters"`, the vector's length).
    pub value: f64,
}

impl std::fmt::Display for InvalidJobLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (job, field, value) = (self.job_id, self.field, self.value);
        if field == "counters" {
            write!(
                f,
                "job {job}: {value} counter values, expected {N_COUNTERS}"
            )
        } else {
            write!(f, "job {job}: {field} is {value}; must be finite and >= 0")
        }
    }
}

impl std::error::Error for InvalidJobLog {}

/// One job's Darshan log: identity, the 46 feature counters, and the time
/// counters used for the performance tag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobLog {
    /// Unique id within a database.
    pub job_id: u64,
    /// Application name (e.g. "ior", "e2e", "openpmd", "dassa", or a
    /// synthetic family name).
    pub app: String,
    /// Year bucket, for Table 1-style summaries.
    pub year: u16,
    /// The 46 feature counters.
    pub counters: CounterSet,
    /// Time counters for the performance tag.
    pub time: TimeCounters,
}

impl JobLog {
    /// New empty log for an app.
    pub fn new(job_id: u64, app: impl Into<String>, year: u16) -> Self {
        Self {
            job_id,
            app: app.into(),
            year,
            counters: CounterSet::new(),
            time: TimeCounters::default(),
        }
    }

    /// Check the log is well formed: exactly [`N_COUNTERS`] counter
    /// values, every counter and time field finite and non-negative (the
    /// rule the text parser enforces by clamping). Logs from JSON must be
    /// checked before they reach a store or a model: serde accepts any
    /// vector length and any number.
    pub fn validate(&self) -> Result<(), InvalidJobLog> {
        let values = self.counters.as_slice();
        let invalid = |field, value| {
            Err(InvalidJobLog {
                job_id: self.job_id,
                field,
                value,
            })
        };
        if values.len() != N_COUNTERS {
            return invalid("counters", values.len() as f64);
        }
        let t = &self.time;
        let fields = CounterId::ALL
            .iter()
            .map(|c| c.name())
            .zip(values.iter().copied());
        for (field, value) in fields.chain([
            ("total_read_time", t.total_read_time),
            ("total_write_time", t.total_write_time),
            ("total_meta_time", t.total_meta_time),
            ("slowest_rank_seconds", t.slowest_rank_seconds),
        ]) {
            if !(value.is_finite() && value >= 0.0) {
                return invalid(field, value);
            }
        }
        Ok(())
    }

    /// Total bytes transferred (read + written) by all ranks.
    pub fn total_bytes(&self) -> f64 {
        self.counters.get(CounterId::PosixBytesRead)
            + self.counters.get(CounterId::PosixBytesWritten)
    }

    /// The paper's Eq. 1 performance estimate in MiB/s:
    /// `total bytes transferred / time of the slowest process`.
    ///
    /// Returns 0 for a job that moved no bytes or recorded no time (Darshan
    /// logs of pure-metadata jobs).
    pub fn performance_mib_s(&self) -> f64 {
        let t = self.time.slowest_rank_seconds;
        let b = self.total_bytes();
        if t <= 0.0 || b <= 0.0 {
            return 0.0;
        }
        b / MIB / t
    }

    /// True if the job performed no write operations at all.
    pub fn is_read_only(&self) -> bool {
        CounterId::ALL
            .iter()
            .filter(|c| c.is_write_related())
            // xtask-allow: AIIO-F001 — absent counters are exactly zero by construction
            .all(|c| self.counters.get(*c) == 0.0)
    }

    /// True if the job performed no read operations at all.
    pub fn is_write_only(&self) -> bool {
        CounterId::ALL
            .iter()
            .filter(|c| c.is_read_related())
            // xtask-allow: AIIO-F001 — absent counters are exactly zero by construction
            .all(|c| self.counters.get(*c) == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> JobLog {
        let mut log = JobLog::new(7, "ior", 2021);
        log.counters.set(CounterId::Nprocs, 256.0);
        log.counters.set(CounterId::PosixBytesWritten, 256.0 * MIB);
        log.counters.set(CounterId::PosixWrites, 1024.0);
        log.time.slowest_rank_seconds = 2.0;
        log
    }

    #[test]
    fn counter_set_roundtrip() {
        let mut cs = CounterSet::new();
        assert_eq!(cs.get(CounterId::PosixSeeks), 0.0);
        cs.set(CounterId::PosixSeeks, 5.0);
        cs.incr(CounterId::PosixSeeks);
        cs.add(CounterId::PosixSeeks, 4.0);
        assert_eq!(cs.get(CounterId::PosixSeeks), 10.0);
    }

    #[test]
    fn sparsity_counts_zeros() {
        let mut cs = CounterSet::new();
        assert_eq!(cs.sparsity(), 1.0);
        cs.set(CounterId::Nprocs, 64.0);
        let expected = (N_COUNTERS - 1) as f64 / N_COUNTERS as f64;
        assert!((cs.sparsity() - expected).abs() < 1e-12);
        assert_eq!(cs.nonzero_counters(), vec![CounterId::Nprocs]);
    }

    #[test]
    fn eq1_performance_in_mib_per_second() {
        let log = sample_log();
        // 256 MiB over 2 s = 128 MiB/s.
        assert!((log.performance_mib_s() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn performance_zero_without_bytes_or_time() {
        let mut log = JobLog::new(1, "meta-only", 2020);
        assert_eq!(log.performance_mib_s(), 0.0);
        log.counters.set(CounterId::PosixBytesRead, 100.0);
        log.time.slowest_rank_seconds = 0.0;
        assert_eq!(log.performance_mib_s(), 0.0);
    }

    #[test]
    fn read_write_only_detection() {
        let log = sample_log();
        assert!(log.is_write_only());
        assert!(!log.is_read_only());
        let mut rlog = JobLog::new(2, "reader", 2020);
        rlog.counters.set(CounterId::PosixBytesRead, 10.0);
        assert!(rlog.is_read_only());
        assert!(!rlog.is_write_only());
    }

    #[test]
    fn counterset_from_vec_validates_length() {
        let v = vec![0.0; N_COUNTERS];
        let _ = CounterSet::from_vec(v);
        let bad = vec![0.0; 3];
        assert!(std::panic::catch_unwind(|| CounterSet::from_vec(bad)).is_err());
    }

    #[test]
    fn validate_accepts_well_formed_and_rejects_each_bad_shape() {
        assert_eq!(sample_log().validate(), Ok(()));
        let short: JobLog = serde_json::from_str(
            r#"{"job_id":3,"app":"x","year":2020,"counters":{"values":[1,2,3]},
                "time":{"total_read_time":0,"total_write_time":0,"total_meta_time":0,
                "slowest_rank_seconds":1}}"#,
        )
        .unwrap();
        let err = short.validate().unwrap_err();
        assert_eq!((err.job_id, err.field, err.value), (3, "counters", 3.0));
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut log = sample_log();
            log.counters.set(CounterId::PosixSeeks, bad);
            let err = log.validate().unwrap_err();
            assert_eq!(err.field, "POSIX_SEEKS", "{err}");
            let mut log = sample_log();
            log.time.total_meta_time = bad;
            assert_eq!(log.validate().unwrap_err().field, "total_meta_time");
        }
    }

    #[test]
    fn serde_roundtrip() {
        let log = sample_log();
        let json = serde_json::to_string(&log).unwrap();
        let back: JobLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
    }
}
