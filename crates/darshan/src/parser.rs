//! Text I/O for Darshan logs: parse `darshan-parser`-style output into
//! [`JobLog`]s and emit the same format.
//!
//! Two dialects of darshan-util text output are supported:
//!
//! * **Total format** (`darshan-parser --total`): one line per aggregated
//!   counter, `total_POSIX_OPENS: 1234`. This is what the AIIO paper's
//!   feature extraction consumes.
//! * **Column format** (`darshan-parser`): tab-separated records
//!   `<module> <rank> <record id> <counter> <value> <file> ...`; counters
//!   are summed across ranks and records.
//!
//! Headers understood: `# nprocs:`, `# jobid:`, `# start_time_year:` (any
//! of them may be absent), and `# agg_perf_by_slowest:` (MiB/s, from
//! `darshan-parser --perf`), which back-computes the slowest-rank time.
//! Unknown counters and modules are ignored, matching how the paper drops
//! everything outside its 46-counter set.
//!
//! Time counters: the POSIX module's `POSIX_F_READ_TIME`,
//! `POSIX_F_WRITE_TIME` and `POSIX_F_META_TIME` fill
//! [`TimeCounters`]; when no `agg_perf_by_slowest` header is present the
//! slowest-rank time falls back to `(read + write + meta) / nprocs` (a
//! balanced-ranks assumption, documented limitation).

use crate::counters::CounterId;
use crate::log::{JobLog, TimeCounters, MIB};

/// Error from parsing a Darshan text log.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "darshan parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse one `darshan-parser`-style text log into a [`JobLog`].
pub fn parse_text(text: &str) -> Result<JobLog, ParseError> {
    let mut log = JobLog::new(0, "unknown", 0);
    let mut nprocs: f64 = 0.0;
    let mut read_time = 0.0;
    let mut write_time = 0.0;
    let mut meta_time = 0.0;
    let mut agg_perf_mib_s: Option<f64> = None;
    let mut saw_counter = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            parse_header(rest.trim(), &mut log, &mut nprocs, &mut agg_perf_mib_s);
            continue;
        }
        // Total format: `total_POSIX_OPENS: 123`.
        if let Some(rest) = line.strip_prefix("total_") {
            let (name, value) = rest.split_once(':').ok_or_else(|| ParseError {
                line: lineno,
                message: "total_ line without ':'".into(),
            })?;
            let value: f64 = value.trim().parse().map_err(|e| ParseError {
                line: lineno,
                message: format!("bad value for {name}: {e}"),
            })?;
            saw_counter |= apply_counter(
                &mut log,
                name.trim(),
                value,
                &mut read_time,
                &mut write_time,
                &mut meta_time,
            );
            continue;
        }
        // Column format: module rank record counter value [file ...].
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() >= 5 && (cols[0] == "POSIX" || cols[0] == "LUSTRE") {
            let name = cols[3];
            let value: f64 = cols[4].parse().map_err(|e| ParseError {
                line: lineno,
                message: format!("bad value for {name}: {e}"),
            })?;
            saw_counter |= apply_counter(
                &mut log,
                name,
                value,
                &mut read_time,
                &mut write_time,
                &mut meta_time,
            );
            continue;
        }
        // Anything else (other modules, perf sections) is ignored.
    }

    if !saw_counter {
        return Err(ParseError {
            line: 0,
            message: "no POSIX/LUSTRE counters found".into(),
        });
    }
    if nprocs > 0.0 {
        log.counters.set(CounterId::Nprocs, nprocs);
    }

    let slowest = match agg_perf_mib_s {
        Some(perf) if perf > 0.0 => log.total_bytes() / MIB / perf,
        _ => {
            let n = log.counters.get(CounterId::Nprocs).max(1.0);
            (read_time + write_time + meta_time) / n
        }
    };
    log.time = TimeCounters {
        total_read_time: read_time,
        total_write_time: write_time,
        total_meta_time: meta_time,
        slowest_rank_seconds: slowest,
    };
    Ok(log)
}

fn parse_header(rest: &str, log: &mut JobLog, nprocs: &mut f64, agg_perf: &mut Option<f64>) {
    let Some((key, value)) = rest.split_once(':') else {
        return;
    };
    let value = value.trim();
    match key.trim() {
        "nprocs" => {
            if let Ok(v) = value.parse() {
                *nprocs = v;
            }
        }
        "jobid" => {
            if let Ok(v) = value.parse() {
                log.job_id = v;
            }
        }
        "exe" => {
            // First token of the command line, basename only.
            if let Some(cmd) = value.split_whitespace().next() {
                log.app = cmd.rsplit('/').next().unwrap_or(cmd).to_string();
            }
        }
        "start_time_year" => {
            if let Ok(v) = value.parse() {
                log.year = v;
            }
        }
        "agg_perf_by_slowest" => {
            // `123.45 # MiB/s` or plain number.
            if let Some(num) = value.split_whitespace().next() {
                if let Ok(v) = num.parse::<f64>() {
                    *agg_perf = Some(v);
                }
            }
        }
        _ => {}
    }
}

/// Apply one named counter; returns true when the name was recognised.
fn apply_counter(
    log: &mut JobLog,
    name: &str,
    value: f64,
    read_time: &mut f64,
    write_time: &mut f64,
    meta_time: &mut f64,
) -> bool {
    // Darshan uses -1 for "not recorded" on some counters; clamp anything
    // negative (and drop NaN/inf) so every parsed log satisfies
    // `JobLog::validate` — the same rule JSON input is checked against.
    if !value.is_finite() {
        return false;
    }
    let value = value.max(0.0);
    match name {
        "POSIX_F_READ_TIME" => {
            *read_time += value;
            true
        }
        "POSIX_F_WRITE_TIME" => {
            *write_time += value;
            true
        }
        "POSIX_F_META_TIME" => {
            *meta_time += value;
            true
        }
        _ => match CounterId::from_name(name) {
            Some(id) => {
                // Alignment/stripe settings are per-job values, not sums.
                use CounterId::*;
                match id {
                    LustreStripeSize | LustreStripeWidth | PosixMemAlignment
                    | PosixFileAlignment | Nprocs | PosixStride1Stride | PosixStride2Stride
                    | PosixStride3Stride | PosixStride4Stride | PosixAccess1Access
                    | PosixAccess2Access | PosixAccess3Access | PosixAccess4Access => {
                        log.counters.set(id, value)
                    }
                    _ => log.counters.add(id, value),
                }
                true
            }
            None => false, // unknown counter (e.g. POSIX_DUPS): dropped
        },
    }
}

/// Emit a [`JobLog`] in `darshan-parser --total` text format (plus the
/// headers [`parse_text`] understands) — a lossless round-trip for the 46
/// feature counters and the performance tag.
pub fn to_total_text(log: &JobLog) -> String {
    let mut out = String::new();
    out.push_str("# darshan log version: 3.41 (aiio-rs text export)\n");
    out.push_str(&format!("# exe: {}\n", log.app));
    out.push_str(&format!("# jobid: {}\n", log.job_id));
    out.push_str(&format!("# start_time_year: {}\n", log.year));
    out.push_str(&format!(
        "# nprocs: {}\n",
        log.counters.get(CounterId::Nprocs) as u64
    ));
    let perf = log.performance_mib_s();
    if perf > 0.0 {
        out.push_str(&format!("# agg_perf_by_slowest: {perf:.6} # MiB/s\n"));
    }
    for id in CounterId::ALL {
        if id == CounterId::Nprocs {
            continue; // carried in the header
        }
        out.push_str(&format!("total_{}: {}\n", id.name(), log.counters.get(id)));
    }
    out.push_str(&format!(
        "total_POSIX_F_READ_TIME: {}\n",
        log.time.total_read_time
    ));
    out.push_str(&format!(
        "total_POSIX_F_WRITE_TIME: {}\n",
        log.time.total_write_time
    ));
    out.push_str(&format!(
        "total_POSIX_F_META_TIME: {}\n",
        log.time.total_meta_time
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> JobLog {
        let mut log = JobLog::new(42, "ior", 2021);
        log.counters.set(CounterId::Nprocs, 64.0);
        log.counters.set(CounterId::PosixOpens, 64.0);
        log.counters.set(CounterId::PosixWrites, 1024.0);
        log.counters.set(CounterId::PosixBytesWritten, 1024.0 * MIB);
        log.counters.set(CounterId::LustreStripeSize, MIB);
        log.time = TimeCounters {
            total_read_time: 0.0,
            total_write_time: 12.0,
            total_meta_time: 1.0,
            slowest_rank_seconds: 2.0,
        };
        log
    }

    #[test]
    fn total_format_roundtrip_preserves_counters_and_perf() {
        let log = sample_log();
        let text = to_total_text(&log);
        let back = parse_text(&text).unwrap();
        assert_eq!(back.job_id, 42);
        assert_eq!(back.app, "ior");
        assert_eq!(back.year, 2021);
        for id in CounterId::ALL {
            assert_eq!(back.counters.get(id), log.counters.get(id), "{id}");
        }
        assert!((back.performance_mib_s() - log.performance_mib_s()).abs() < 1e-6);
    }

    #[test]
    fn column_format_sums_across_ranks() {
        let text = "\
# nprocs: 2
POSIX\t0\t123456\tPOSIX_WRITES\t100\t/scratch/f\t/scratch\tlustre
POSIX\t1\t123456\tPOSIX_WRITES\t50\t/scratch/f\t/scratch\tlustre
POSIX\t-1\t123456\tPOSIX_BYTES_WRITTEN\t1048576\t/scratch/f\t/scratch\tlustre
LUSTRE\t-1\t123456\tLUSTRE_STRIPE_WIDTH\t4\t/scratch/f\t/scratch\tlustre
POSIX\t-1\t123456\tPOSIX_F_WRITE_TIME\t3.5\t/scratch/f\t/scratch\tlustre
";
        let log = parse_text(text).unwrap();
        assert_eq!(log.counters.get(CounterId::PosixWrites), 150.0);
        assert_eq!(log.counters.get(CounterId::PosixBytesWritten), 1048576.0);
        assert_eq!(log.counters.get(CounterId::LustreStripeWidth), 4.0);
        assert_eq!(log.counters.get(CounterId::Nprocs), 2.0);
        assert!((log.time.total_write_time - 3.5).abs() < 1e-12);
        // Balanced fallback: slowest = 3.5 / 2.
        assert!((log.time.slowest_rank_seconds - 1.75).abs() < 1e-12);
    }

    #[test]
    fn unknown_counters_and_modules_are_dropped() {
        let text = "\
# nprocs: 1
POSIX\t-1\t1\tPOSIX_DUPS\t7\t/f\t/\tlustre
STDIO\t-1\t1\tSTDIO_OPENS\t3\t/f\t/\tlustre
POSIX\t-1\t1\tPOSIX_OPENS\t5\t/f\t/\tlustre
";
        let log = parse_text(text).unwrap();
        assert_eq!(log.counters.get(CounterId::PosixOpens), 5.0);
    }

    #[test]
    fn agg_perf_header_sets_slowest_time() {
        let text = "\
# nprocs: 4
# agg_perf_by_slowest: 512.0 # MiB/s
total_POSIX_BYTES_WRITTEN: 1073741824
total_POSIX_WRITES: 10
";
        let log = parse_text(text).unwrap();
        // 1 GiB at 512 MiB/s = 2 seconds.
        assert!((log.time.slowest_rank_seconds - 2.0).abs() < 1e-9);
        assert!((log.performance_mib_s() - 512.0).abs() < 1e-9);
    }

    #[test]
    fn empty_or_counterless_input_is_an_error() {
        assert!(parse_text("").is_err());
        assert!(parse_text("# nprocs: 4\n").is_err());
        assert!(parse_text("just some text\n").is_err());
    }

    #[test]
    fn malformed_values_are_reported_with_line_numbers() {
        let err = parse_text("total_POSIX_OPENS: not-a-number\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("POSIX_OPENS"));
    }

    #[test]
    fn negative_and_nonfinite_values_are_sanitised() {
        // Darshan writes -1 for unrecorded counters; NaN should never
        // reach the feature pipeline.
        let text = "\
total_POSIX_STRIDE1_STRIDE: -1
total_POSIX_OPENS: 3
total_POSIX_F_READ_TIME: NaN
";
        let log = parse_text(text).unwrap();
        assert_eq!(log.counters.get(CounterId::PosixStride1Stride), 0.0);
        assert_eq!(log.counters.get(CounterId::PosixOpens), 3.0);
        assert_eq!(log.time.total_read_time, 0.0);
    }

    #[test]
    fn exe_header_takes_basename() {
        let text = "# exe: /usr/bin/ior -w -t 1m\ntotal_POSIX_OPENS: 1\n";
        let log = parse_text(text).unwrap();
        assert_eq!(log.app, "ior");
    }
}
