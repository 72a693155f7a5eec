//! Darshan-style counter extraction: walks a job's op blocks and fills the
//! 46 counters of the paper's Table 4 exactly the way Darshan's POSIX module
//! would observe the same operation stream.

use crate::config::StorageConfig;
use crate::ops::{AccessLayout, JobSpec, OpBlock, ReadWrite};
use aiio_darshan::{CounterId, CounterSet};
use std::collections::BTreeMap;

/// Greatest common divisor (Euclid); `gcd(0, 0)` is defined as 1 so callers
/// can divide by the result.
fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    a.max(1)
}

/// Number of accesses out of `count` with offset `k * step` (k = 0..count)
/// that are aligned to `align`. Exact over whole cycles of the offset
/// lattice: a multiple of `align/gcd(step, align)` steps returns to an
/// aligned offset.
fn aligned_count(count: u64, step: u64, align: u64) -> u64 {
    if align == 0 || step == 0 {
        return count;
    }
    let g = gcd(step, align);
    // Offsets k*step are aligned iff k is a multiple of align/g.
    let period = align / g;
    if period == 0 {
        count
    } else {
        count.div_ceil(period)
    }
}

/// File-alignment violations in a run of `count` accesses of `size` bytes
/// laid out as `layout`, against alignment `align`: the one alignment rule,
/// behind both `POSIX_FILE_NOT_ALIGNED` and the engine's read-modify-write
/// penalty.
pub(crate) fn unaligned_ops(count: u64, size: u64, layout: AccessLayout, align: u64) -> u64 {
    match layout {
        AccessLayout::Consecutive => count - aligned_count(count, size, align),
        AccessLayout::Strided { stride } => count - aligned_count(count, stride, align),
        AccessLayout::Random => count, // random byte offsets are effectively never aligned
    }
}

/// Pseudo-random but deterministic stride values for a `Random` layout run:
/// random offsets produce a spread of large, mostly-unique strides; Darshan
/// keeps the four most frequent. The exact values only need to be distinct,
/// large, and generally unaligned.
fn random_strides(size: u64) -> [u64; 4] {
    let base = size.max(1);
    [
        base * 17 + 4097,
        base * 29 + 12289,
        base * 43 + 20481,
        base * 61 + 28673,
    ]
}

/// Accumulates counters while walking one rank's script.
#[derive(Debug, Default)]
struct RankCounters {
    counters: BTreeMap<CounterId, f64>,
    strides: BTreeMap<u64, u64>,
    access_sizes: BTreeMap<u64, u64>,
    last_kind: Option<ReadWrite>,
}

impl RankCounters {
    fn add(&mut self, id: CounterId, v: f64) {
        // xtask-allow: AIIO-F001 — exact-zero adds are skipped to keep logs sparse
        if v != 0.0 {
            *self.counters.entry(id).or_insert(0.0) += v;
        }
    }

    fn process(&mut self, block: &OpBlock, align: u64) {
        match *block {
            OpBlock::Open { count } => self.add(CounterId::PosixOpens, count as f64),
            OpBlock::Fileno { count } => self.add(CounterId::PosixFilenos, count as f64),
            OpBlock::Stat { count } => self.add(CounterId::PosixStats, count as f64),
            OpBlock::Seek { count } => self.add(CounterId::PosixSeeks, count as f64),
            OpBlock::Fsync { .. } => {} // no Table 4 counter for fsync itself
            OpBlock::Transfer {
                kind,
                size,
                count,
                layout,
                seek_before_each,
                fsync_after_each: _,
                mem_aligned,
            } => {
                if count == 0 {
                    return;
                }
                let bytes = (size * count) as f64;
                match kind {
                    ReadWrite::Read => {
                        self.add(CounterId::PosixReads, count as f64);
                        self.add(CounterId::PosixBytesRead, bytes);
                        self.add(CounterId::read_bucket_for(size), count as f64);
                    }
                    ReadWrite::Write => {
                        self.add(CounterId::PosixWrites, count as f64);
                        self.add(CounterId::PosixBytesWritten, bytes);
                        self.add(CounterId::write_bucket_for(size), count as f64);
                    }
                }
                *self.access_sizes.entry(size).or_insert(0) += count;
                if seek_before_each {
                    self.add(CounterId::PosixSeeks, count as f64);
                }
                if !mem_aligned {
                    self.add(CounterId::PosixMemNotAligned, count as f64);
                }
                // Sequential / consecutive / stride bookkeeping. The first
                // access of a run has no predecessor within the run.
                let follow = count.saturating_sub(1);
                let (consec, seq) = match layout {
                    AccessLayout::Consecutive => (follow, follow),
                    AccessLayout::Strided { .. } => (0, follow),
                    // Random offsets move forward about half the time.
                    AccessLayout::Random => (0, follow / 2),
                };
                let (consec_id, seq_id) = match kind {
                    ReadWrite::Read => (CounterId::PosixConsecReads, CounterId::PosixSeqReads),
                    ReadWrite::Write => (CounterId::PosixConsecWrites, CounterId::PosixSeqWrites),
                };
                self.add(consec_id, consec as f64);
                self.add(seq_id, seq as f64);
                match layout {
                    AccessLayout::Consecutive => {
                        // Darshan records the distance between successive
                        // access starts; consecutive access has stride ==
                        // access size, which Darshan files under stride 0
                        // (no gap). We record nothing, matching darshan-util
                        // reports where pure-consecutive runs leave the
                        // STRIDE slots empty.
                    }
                    AccessLayout::Strided { stride } => {
                        *self.strides.entry(stride).or_insert(0) += follow;
                    }
                    AccessLayout::Random => {
                        for (i, s) in random_strides(size).into_iter().enumerate() {
                            let share = follow / 4 + u64::from((follow % 4) as usize > i);
                            if share > 0 {
                                *self.strides.entry(s).or_insert(0) += share;
                            }
                        }
                    }
                }
                let unaligned = unaligned_ops(count, size, layout, align);
                self.add(CounterId::PosixFileNotAligned, unaligned as f64);
                // Read/write switch tracking across blocks.
                if let Some(prev) = self.last_kind {
                    if prev != kind {
                        self.add(CounterId::PosixRwSwitches, 1.0);
                    }
                }
                self.last_kind = Some(kind);
            }
        }
    }
}

/// Record the Table 4 counters for a whole job under a storage
/// configuration (the config supplies the stripe/alignment settings).
pub fn record_counters(spec: &JobSpec, config: &StorageConfig) -> CounterSet {
    let mut total = CounterSet::new();
    let mut strides: BTreeMap<u64, u64> = BTreeMap::new();
    let mut access_sizes: BTreeMap<u64, u64> = BTreeMap::new();

    for group in &spec.groups {
        let mut rc = RankCounters::default();
        for block in &group.script {
            rc.process(block, config.stripe_size);
        }
        let n = group.n_ranks as f64;
        for (id, v) in rc.counters {
            total.add(id, v * n);
        }
        for (s, c) in rc.strides {
            *strides.entry(s).or_insert(0) += c * group.n_ranks as u64;
        }
        for (s, c) in rc.access_sizes {
            *access_sizes.entry(s).or_insert(0) += c * group.n_ranks as u64;
        }
    }

    total.set(CounterId::Nprocs, spec.nprocs() as f64);
    total.set(CounterId::LustreStripeSize, config.stripe_size as f64);
    total.set(CounterId::LustreStripeWidth, config.stripe_width as f64);
    total.set(CounterId::PosixMemAlignment, 8.0);
    total.set(CounterId::PosixFileAlignment, config.stripe_size as f64);

    // Top-4 strides by count (ties broken by larger stride for determinism).
    let mut stride_list: Vec<(u64, u64)> = strides.into_iter().collect();
    stride_list.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
    let stride_slots = [
        (CounterId::PosixStride1Stride, CounterId::PosixStride1Count),
        (CounterId::PosixStride2Stride, CounterId::PosixStride2Count),
        (CounterId::PosixStride3Stride, CounterId::PosixStride3Count),
        (CounterId::PosixStride4Stride, CounterId::PosixStride4Count),
    ];
    for ((stride, count), (sid, cid)) in stride_list.into_iter().zip(stride_slots) {
        total.set(sid, stride as f64);
        total.set(cid, count as f64);
    }

    // Top-4 access sizes by count.
    let mut access_list: Vec<(u64, u64)> = access_sizes.into_iter().collect();
    access_list.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
    let access_slots = [
        (CounterId::PosixAccess1Access, CounterId::PosixAccess1Count),
        (CounterId::PosixAccess2Access, CounterId::PosixAccess2Count),
        (CounterId::PosixAccess3Access, CounterId::PosixAccess3Count),
        (CounterId::PosixAccess4Access, CounterId::PosixAccess4Count),
    ];
    for ((size, count), (sid, cid)) in access_list.into_iter().zip(access_slots) {
        total.set(sid, size as f64);
        total.set(cid, count as f64);
    }

    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::JobSpec;

    fn cfg() -> StorageConfig {
        StorageConfig::cori_like_quiet()
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
    }

    #[test]
    fn aligned_count_exact_for_aligned_steps() {
        // step == align: every access aligned.
        assert_eq!(aligned_count(10, 1024, 1024), 10);
        // step == align/2: every other access aligned (k = 0, 2, 4, ...).
        assert_eq!(aligned_count(10, 512, 1024), 5);
        // coprime step: only k=0 aligned within small counts.
        assert_eq!(aligned_count(4, 1000, 1 << 20), 1);
    }

    #[test]
    fn write_run_fills_expected_counters() {
        let spec = JobSpec::uniform(
            "w",
            2,
            vec![
                OpBlock::Open { count: 1 },
                OpBlock::transfer(ReadWrite::Write, 1024, 8, AccessLayout::Consecutive),
            ],
        );
        let c = record_counters(&spec, &cfg());
        assert_eq!(c.get(CounterId::PosixOpens), 2.0);
        assert_eq!(c.get(CounterId::PosixFilenos), 0.0);
        assert_eq!(c.get(CounterId::PosixWrites), 16.0);
        assert_eq!(c.get(CounterId::PosixBytesWritten), 2.0 * 8.0 * 1024.0);
        // Darshan's buckets are upper-inclusive: 1024-byte writes are 100_1K.
        assert_eq!(c.get(CounterId::PosixSizeWrite100_1k), 16.0);
        assert_eq!(c.get(CounterId::PosixConsecWrites), 14.0); // (8-1) per rank
        assert_eq!(c.get(CounterId::PosixSeqWrites), 14.0);
        assert_eq!(c.get(CounterId::Nprocs), 2.0);
        // Write-only job: no read counters.
        assert_eq!(c.get(CounterId::PosixReads), 0.0);
        assert_eq!(c.get(CounterId::PosixSeqReads), 0.0);
    }

    #[test]
    fn strided_run_records_stride_slots() {
        let spec = JobSpec::uniform(
            "s",
            1,
            vec![OpBlock::transfer(
                ReadWrite::Write,
                1024,
                101,
                AccessLayout::Strided { stride: 4096 },
            )],
        );
        let c = record_counters(&spec, &cfg());
        assert_eq!(c.get(CounterId::PosixStride1Stride), 4096.0);
        assert_eq!(c.get(CounterId::PosixStride1Count), 100.0);
        assert_eq!(c.get(CounterId::PosixStride2Stride), 0.0);
        assert_eq!(c.get(CounterId::PosixConsecWrites), 0.0);
        assert_eq!(c.get(CounterId::PosixSeqWrites), 100.0);
    }

    #[test]
    fn random_run_populates_multiple_stride_slots_and_unaligned() {
        let spec = JobSpec::uniform(
            "r",
            1,
            vec![OpBlock::transfer(
                ReadWrite::Read,
                1024,
                41,
                AccessLayout::Random,
            )],
        );
        let c = record_counters(&spec, &cfg());
        assert!(c.get(CounterId::PosixStride1Count) > 0.0);
        assert!(c.get(CounterId::PosixStride4Count) > 0.0);
        assert_eq!(c.get(CounterId::PosixFileNotAligned), 41.0);
        assert_eq!(c.get(CounterId::PosixSeqReads), 20.0);
    }

    #[test]
    fn seek_before_each_counts_seeks() {
        let spec = JobSpec::uniform(
            "seeky",
            1,
            vec![OpBlock::Transfer {
                kind: ReadWrite::Read,
                size: 1024,
                count: 10,
                layout: AccessLayout::Consecutive,
                seek_before_each: true,
                fsync_after_each: false,
                mem_aligned: true,
            }],
        );
        let c = record_counters(&spec, &cfg());
        assert_eq!(c.get(CounterId::PosixSeeks), 10.0);
    }

    #[test]
    fn rw_switch_counted_between_blocks() {
        let spec = JobSpec::uniform(
            "rw",
            3,
            vec![
                OpBlock::transfer(ReadWrite::Write, 512, 4, AccessLayout::Consecutive),
                OpBlock::transfer(ReadWrite::Read, 512, 4, AccessLayout::Consecutive),
                OpBlock::transfer(ReadWrite::Write, 512, 4, AccessLayout::Consecutive),
            ],
        );
        let c = record_counters(&spec, &cfg());
        assert_eq!(c.get(CounterId::PosixRwSwitches), 6.0); // 2 switches x 3 ranks
    }

    #[test]
    fn aligned_large_writes_have_no_alignment_violations() {
        let spec = JobSpec::uniform(
            "big",
            1,
            vec![OpBlock::transfer(
                ReadWrite::Write,
                crate::config::MIB,
                16,
                AccessLayout::Consecutive,
            )],
        );
        let c = record_counters(&spec, &cfg());
        assert_eq!(c.get(CounterId::PosixFileNotAligned), 0.0);
        assert_eq!(c.get(CounterId::PosixSizeWrite100k_1m), 16.0);
    }

    #[test]
    fn access_size_slots_ranked_by_frequency() {
        let spec = JobSpec::uniform(
            "mix",
            1,
            vec![
                OpBlock::transfer(ReadWrite::Write, 1024, 100, AccessLayout::Consecutive),
                OpBlock::transfer(ReadWrite::Write, 2048, 10, AccessLayout::Consecutive),
            ],
        );
        let c = record_counters(&spec, &cfg());
        assert_eq!(c.get(CounterId::PosixAccess1Access), 1024.0);
        assert_eq!(c.get(CounterId::PosixAccess1Count), 100.0);
        assert_eq!(c.get(CounterId::PosixAccess2Access), 2048.0);
        assert_eq!(c.get(CounterId::PosixAccess2Count), 10.0);
    }

    #[test]
    fn config_counters_reflect_storage_settings() {
        let spec = JobSpec::uniform("cfg", 7, vec![]);
        let config = StorageConfig::cori_like_quiet().with_stripe(4, 4 * crate::config::MIB);
        let c = record_counters(&spec, &config);
        assert_eq!(c.get(CounterId::Nprocs), 7.0);
        assert_eq!(c.get(CounterId::LustreStripeWidth), 4.0);
        assert_eq!(
            c.get(CounterId::LustreStripeSize),
            (4 * crate::config::MIB) as f64
        );
        assert_eq!(
            c.get(CounterId::PosixFileAlignment),
            (4 * crate::config::MIB) as f64
        );
    }
}
