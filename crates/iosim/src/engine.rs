//! The storage cost model: turns a [`JobSpec`] into a Darshan-style
//! [`JobLog`] with realistic time counters.
//!
//! The model is deliberately structural rather than microscopically
//! accurate: per-operation client costs, per-RPC server costs serialized at
//! the OSTs and the metadata server, readahead and write-back caching, and
//! alignment penalties. Those are exactly the effects the paper's diagnosis
//! attributes bottlenecks to, so a model built from them yields training
//! data with the right causal structure.

use crate::config::StorageConfig;
use crate::ops::{AccessLayout, JobSpec, OpBlock, ReadWrite};
use crate::recorder::record_counters;
use aiio_darshan::{JobLog, TimeCounters};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One rank's demand for one [`OpBlock`], split by cause: the only copy of
/// the storage cost formulas. [`Simulator::simulate`] sums the terms into
/// the time counters; [`crate::labels::cost_breakdown`] groups them into
/// bottleneck classes.
///
/// A term a block does not incur is `0.0`, so [`BlockCost::client`] and
/// [`BlockCost::server`] can add every term unconditionally.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BlockCost {
    /// The transfer direction, or `None` for a metadata block (open,
    /// fileno, stat, seek, fsync), whose time counts as metadata time.
    pub kind: Option<ReadWrite>,
    /// Client: per-call syscall overhead plus the client-bandwidth time.
    pub syscall: f64,
    /// Client: `lseek` calls.
    pub seek: f64,
    /// Client: extra copies for unaligned user buffers.
    pub mem_unaligned: f64,
    /// Client: `fsync` calls.
    pub fsync: f64,
    /// Server: metadata-server service time.
    pub mds: f64,
    /// Server: per-RPC base cost at the OSTs, sync-write commits included.
    pub rpc: f64,
    /// Server: OST bandwidth time, as if on one OST.
    pub ost_bandwidth: f64,
    /// Server: read-modify-write penalties of unaligned accesses.
    pub unaligned: f64,
}

impl BlockCost {
    /// Client-side time of the block.
    fn client(&self) -> f64 {
        self.syscall + self.seek + self.mem_unaligned + self.fsync
    }

    /// Server-side demand of the block.
    fn server(&self) -> f64 {
        self.mds + self.rpc + self.ost_bandwidth + self.unaligned
    }
}

/// Cost of one rank-group's script plus its server-side demand.
#[derive(Debug, Default, Clone, Copy)]
struct GroupCost {
    /// Per-rank client-side wall time, seconds.
    client: f64,
    /// Per-rank client time attributable to reads / writes / metadata.
    client_read: f64,
    client_write: f64,
    client_meta: f64,
    /// Server busy seconds demanded by ONE rank of the group.
    server_read: f64,
    server_write: f64,
    mds: f64,
}

/// The simulator: a storage configuration plus the logic to execute job
/// specs against it.
///
/// ```
/// use aiio_iosim::{IorConfig, Simulator, StorageConfig};
/// let sim = Simulator::new(StorageConfig::cori_like_quiet());
/// let spec = IorConfig::parse("ior -w -t 1m -b 1m -Y").unwrap().to_spec();
/// let log = sim.simulate(&spec, 1, 2022, 0);
/// assert!(log.performance_mib_s() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: StorageConfig,
}

impl Simulator {
    /// Simulator over the given storage configuration.
    pub fn new(config: StorageConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Execute `spec` and produce its Darshan-style log.
    ///
    /// `seed` drives the interference noise; with
    /// [`StorageConfig::noise_sigma`] = 0 the result is fully deterministic
    /// and independent of the seed.
    pub fn simulate(&self, spec: &JobSpec, job_id: u64, year: u16, seed: u64) -> JobLog {
        let mut log = JobLog::new(job_id, spec.app.clone(), year);
        log.counters = record_counters(spec, &self.config);

        let mut slowest_client = 0.0f64;
        let mut ost_read_busy = 0.0;
        let mut ost_write_busy = 0.0;
        let mut mds_busy = 0.0;
        let mut read_time = 0.0;
        let mut write_time = 0.0;
        let mut meta_time = 0.0;

        for group in &spec.groups {
            let cost = self.group_cost(&group.script);
            let n = group.n_ranks as f64;
            slowest_client = slowest_client.max(cost.client);
            ost_read_busy += cost.server_read * n;
            ost_write_busy += cost.server_write * n;
            mds_busy += cost.mds * n;
            read_time += (cost.client_read + cost.server_read) * n;
            write_time += (cost.client_write + cost.server_write) * n;
            meta_time += (cost.client_meta + cost.mds) * n;
        }

        // RPCs are spread round-robin over the file's OSTs; the metadata
        // server is a single shared resource.
        let width = self.config.stripe_width.max(1) as f64;
        let server_busy = (ost_read_busy + ost_write_busy) / width + mds_busy;
        let mut elapsed = slowest_client.max(server_busy);

        if self.config.noise_sigma > 0.0 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA110_0000 ^ job_id);
            elapsed *= lognormal_factor(&mut rng, self.config.noise_sigma);
        }

        log.time = TimeCounters {
            total_read_time: read_time,
            total_write_time: write_time,
            total_meta_time: meta_time,
            slowest_rank_seconds: elapsed,
        };
        log
    }

    /// Convenience: simulate and return Eq. 1 performance in MiB/s.
    pub fn performance_of(&self, spec: &JobSpec, seed: u64) -> f64 {
        self.simulate(spec, 0, 2022, seed).performance_mib_s()
    }

    /// Cost of one rank's script.
    fn group_cost(&self, script: &[OpBlock]) -> GroupCost {
        let mut g = GroupCost::default();
        for block in script {
            let cost = self.block_cost(block);
            let (client, server) = (cost.client(), cost.server());
            // A rank blocks on its own synchronous server work (opens and
            // stats included), so its client time includes its server
            // demand; under contention the shared-server busy term
            // dominates via the max() in `simulate`.
            g.client += client + server;
            match cost.kind {
                Some(ReadWrite::Read) => {
                    g.client_read += client;
                    g.server_read += server;
                }
                Some(ReadWrite::Write) => {
                    g.client_write += client;
                    g.server_write += server;
                }
                None => {
                    g.client_meta += client + server;
                    g.mds += server;
                }
            }
        }
        g
    }

    /// One rank's demand for `block`, split by cause.
    pub(crate) fn block_cost(&self, block: &OpBlock) -> BlockCost {
        let c = &self.config;
        let zero = BlockCost::default();
        match *block {
            // Opens and stats are synchronous metadata-server RPCs.
            OpBlock::Open { count } => BlockCost {
                syscall: count as f64 * c.client_syscall,
                mds: count as f64 * c.open_cost,
                ..zero
            },
            OpBlock::Fileno { count } => BlockCost {
                syscall: count as f64 * c.client_syscall,
                ..zero
            },
            OpBlock::Stat { count } => BlockCost {
                syscall: count as f64 * c.client_syscall,
                mds: count as f64 * c.stat_cost,
                ..zero
            },
            OpBlock::Seek { count } => BlockCost {
                seek: count as f64 * c.seek_cost,
                ..zero
            },
            OpBlock::Fsync { count } => BlockCost {
                fsync: count as f64 * c.fsync_cost,
                ..zero
            },
            OpBlock::Transfer {
                kind,
                size,
                count,
                layout,
                seek_before_each,
                fsync_after_each,
                mem_aligned,
            } => {
                if count == 0 || size == 0 {
                    return BlockCost {
                        kind: Some(kind),
                        ..zero
                    };
                }
                let bytes = (size * count) as f64;
                let nf = count as f64;
                // Readahead-served reads and write-back coalesced writes of
                // a consecutive run reach the server as few large aligned
                // requests. Strided and random runs defeat both: every
                // operation is its own round trip, split into one RPC per
                // stripe it spans, and pays a read-modify-write at the OST
                // when unaligned.
                let per_op_rpcs = nf * size.div_ceil(c.stripe_size).max(1) as f64;
                let consecutive = layout == AccessLayout::Consecutive;
                let (rpc, aggregated) = match kind {
                    ReadWrite::Read if consecutive => {
                        let rpcs = (size * count).div_ceil(c.readahead_bytes).max(1);
                        (rpcs as f64 * c.read_rpc_base, true)
                    }
                    ReadWrite::Read => (per_op_rpcs * c.read_rpc_base, false),
                    // Every write is a synchronous commit.
                    ReadWrite::Write if fsync_after_each => {
                        (per_op_rpcs * (c.write_rpc_base + c.sync_write_extra), false)
                    }
                    ReadWrite::Write if consecutive => {
                        let rpcs = (bytes / c.writeback_bytes as f64).ceil().max(1.0);
                        (rpcs * c.write_rpc_base, true)
                    }
                    ReadWrite::Write => (per_op_rpcs * c.write_rpc_base, false),
                };
                let per_op = |applies: bool, cost: f64| if applies { nf * cost } else { 0.0 };
                let ost_bw = match kind {
                    ReadWrite::Read => c.ost_read_bw,
                    ReadWrite::Write => c.ost_write_bw,
                };
                BlockCost {
                    kind: Some(kind),
                    syscall: nf * c.client_syscall + bytes / c.client_max_bw,
                    seek: per_op(seek_before_each, c.seek_cost),
                    mem_unaligned: per_op(!mem_aligned, c.mem_unaligned_extra),
                    fsync: per_op(kind == ReadWrite::Write && fsync_after_each, c.fsync_cost),
                    rpc,
                    ost_bandwidth: bytes / ost_bw,
                    unaligned: if aggregated {
                        0.0
                    } else {
                        self.unaligned_ops(count, size, layout) as f64 * c.unaligned_extra
                    },
                    ..zero
                }
            }
        }
    }

    /// Alignment-violating operations in a run, against the stripe size.
    fn unaligned_ops(&self, count: u64, size: u64, layout: AccessLayout) -> u64 {
        crate::recorder::unaligned_ops(count, size, layout, self.config.stripe_size)
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new(StorageConfig::cori_like())
    }
}

/// Multiplicative log-normal noise factor with median 1.
fn lognormal_factor(rng: &mut impl Rng, sigma: f64) -> f64 {
    // Box-Muller.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MIB;
    use crate::ops::OpBlock;

    fn sim() -> Simulator {
        Simulator::new(StorageConfig::cori_like_quiet())
    }

    fn sync_write_spec(size: u64, total_bytes: u64, nprocs: u32) -> JobSpec {
        let count = total_bytes / size;
        JobSpec::uniform(
            "w",
            nprocs,
            vec![
                OpBlock::Open { count: 1 },
                OpBlock::Transfer {
                    kind: ReadWrite::Write,
                    size,
                    count,
                    layout: AccessLayout::Consecutive,
                    seek_before_each: false,
                    fsync_after_each: true,
                    mem_aligned: true,
                },
            ],
        )
    }

    #[test]
    fn small_sync_writes_much_slower_than_large() {
        let s = sim();
        let small = s.performance_of(&sync_write_spec(1024, MIB, 64), 0);
        let large = s.performance_of(&sync_write_spec(MIB, MIB, 64), 0);
        assert!(
            large > 20.0 * small,
            "expected >20x separation, got small={small:.2} large={large:.2} MiB/s"
        );
    }

    #[test]
    fn seek_per_read_slower_than_seek_once() {
        let s = sim();
        let mk = |seek_each: bool| {
            JobSpec::uniform(
                "r",
                64,
                vec![
                    OpBlock::Open { count: 1 },
                    OpBlock::Transfer {
                        kind: ReadWrite::Read,
                        size: 1024,
                        count: 1024,
                        layout: AccessLayout::Consecutive,
                        seek_before_each: seek_each,
                        fsync_after_each: false,
                        mem_aligned: true,
                    },
                ],
            )
        };
        let seeky = s.performance_of(&mk(true), 0);
        let clean = s.performance_of(&mk(false), 0);
        assert!(clean > 1.2 * seeky, "seeky={seeky:.2} clean={clean:.2}");
    }

    #[test]
    fn random_reads_slower_than_sequential() {
        let s = sim();
        let mk = |layout| {
            JobSpec::uniform(
                "r",
                64,
                vec![OpBlock::transfer(ReadWrite::Read, 1024, 1024, layout)],
            )
        };
        let seq = s.performance_of(&mk(AccessLayout::Consecutive), 0);
        let rnd = s.performance_of(&mk(AccessLayout::Random), 0);
        assert!(seq > 3.0 * rnd, "seq={seq:.2} rnd={rnd:.2}");
    }

    #[test]
    fn strided_buffered_writes_much_slower_than_consecutive() {
        // Write-back caching only coalesces contiguous runs, so strided
        // small buffered writes each become an RPC.
        let s = sim();
        let mk = |layout| {
            JobSpec::uniform(
                "w",
                64,
                vec![OpBlock::transfer(ReadWrite::Write, 1024, 1024, layout)],
            )
        };
        let consec = s.performance_of(&mk(AccessLayout::Consecutive), 0);
        let strided = s.performance_of(
            &mk(AccessLayout::Strided {
                stride: 1024 * 1024 + 17,
            }),
            0,
        );
        assert!(
            consec > 10.0 * strided,
            "consec={consec:.2} strided={strided:.2}"
        );
    }

    #[test]
    fn sync_small_writes_equally_slow_regardless_of_layout() {
        // With fsync after every write the per-op commit dominates; the
        // paper sees the same (Fig. 9's 1.46 MiB/s vs Fig. 7(a)'s 1.55).
        let s = sim();
        let mk = |layout| {
            JobSpec::uniform(
                "w",
                64,
                vec![OpBlock::Transfer {
                    kind: ReadWrite::Write,
                    size: 1024,
                    count: 1024,
                    layout,
                    seek_before_each: false,
                    fsync_after_each: true,
                    mem_aligned: true,
                }],
            )
        };
        let consec = s.performance_of(&mk(AccessLayout::Consecutive), 0);
        let strided = s.performance_of(
            &mk(AccessLayout::Strided {
                stride: 1024 * 1024 + 17,
            }),
            0,
        );
        assert!(consec >= strided, "consec={consec:.2} strided={strided:.2}");
        assert!(
            consec < 1.5 * strided,
            "should be within 50%: consec={consec:.2} strided={strided:.2}"
        );
    }

    #[test]
    fn many_opens_hurt_performance() {
        let s = sim();
        let mk = |opens: u64| {
            JobSpec::uniform(
                "o",
                32,
                vec![
                    OpBlock::Open { count: opens },
                    OpBlock::transfer(ReadWrite::Read, MIB, 64, AccessLayout::Consecutive),
                ],
            )
        };
        let few = s.performance_of(&mk(1), 0);
        let many = s.performance_of(&mk(256), 0);
        assert!(few > 1.5 * many, "few={few:.2} many={many:.2}");
    }

    #[test]
    fn wider_stripes_increase_large_transfer_bandwidth() {
        let narrow = Simulator::new(StorageConfig::cori_like_quiet());
        let wide = Simulator::new(StorageConfig::cori_like_quiet().with_stripe(8, MIB));
        let spec = JobSpec::uniform(
            "bw",
            256,
            vec![OpBlock::transfer(
                ReadWrite::Write,
                MIB,
                64,
                AccessLayout::Consecutive,
            )],
        );
        let p_narrow = narrow.performance_of(&spec, 0);
        let p_wide = wide.performance_of(&spec, 0);
        assert!(
            p_wide > 2.0 * p_narrow,
            "narrow={p_narrow:.2} wide={p_wide:.2}"
        );
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let noisy = Simulator::new(StorageConfig::cori_like());
        let spec = sync_write_spec(MIB, 16 * MIB, 8);
        let p1 = noisy.performance_of(&spec, 1);
        let p2 = noisy.performance_of(&spec, 2);
        assert_ne!(p1, p2);
        assert!((p1 / p2) < 2.0 && (p2 / p1) < 2.0);
    }

    #[test]
    fn deterministic_without_noise() {
        let s = sim();
        let spec = sync_write_spec(MIB, 16 * MIB, 8);
        assert_eq!(s.performance_of(&spec, 1), s.performance_of(&spec, 999));
    }

    #[test]
    fn time_counters_populated_and_consistent() {
        let s = sim();
        let log = s.simulate(&sync_write_spec(MIB, 16 * MIB, 8), 5, 2021, 0);
        assert!(log.time.slowest_rank_seconds > 0.0);
        assert!(log.time.total_write_time > 0.0);
        assert!(log.time.total_meta_time > 0.0);
        assert_eq!(log.time.total_read_time, 0.0);
        assert!(log.performance_mib_s() > 0.0);
        assert_eq!(log.job_id, 5);
        assert_eq!(log.year, 2021);
    }

    #[test]
    fn sync_writes_spanning_stripes_pay_per_stripe_rpcs() {
        // A 4 MiB sync write splits into 4 RPCs on 1 MiB stripes but only
        // 1 RPC on 4 MiB stripes, so the wide-stripe config is faster even
        // with a single OST.
        let small_stripe = Simulator::new(StorageConfig::cori_like_quiet());
        let big_stripe = Simulator::new(StorageConfig::cori_like_quiet().with_stripe(1, 4 * MIB));
        let spec = JobSpec::uniform(
            "span",
            64,
            vec![OpBlock::Transfer {
                kind: ReadWrite::Write,
                size: 4 * MIB,
                count: 16,
                layout: AccessLayout::Consecutive,
                seek_before_each: false,
                fsync_after_each: true,
                mem_aligned: true,
            }],
        );
        let p_small = small_stripe.performance_of(&spec, 0);
        let p_big = big_stripe.performance_of(&spec, 0);
        assert!(
            p_big > p_small,
            "small-stripe {p_small:.2} big-stripe {p_big:.2}"
        );
    }

    #[test]
    fn mem_unaligned_buffers_add_client_cost() {
        let s = sim();
        let mk = |aligned: bool| {
            JobSpec::uniform(
                "mem",
                4,
                vec![OpBlock::Transfer {
                    kind: ReadWrite::Read,
                    size: 1024,
                    count: 100_000,
                    layout: AccessLayout::Consecutive,
                    seek_before_each: false,
                    fsync_after_each: false,
                    mem_aligned: aligned,
                }],
            )
        };
        let t_aligned = s.simulate(&mk(true), 0, 2022, 0).time.slowest_rank_seconds;
        let t_unaligned = s.simulate(&mk(false), 1, 2022, 0).time.slowest_rank_seconds;
        assert!(t_unaligned >= t_aligned);
    }

    #[test]
    fn unaligned_strided_ops_counted() {
        let s = sim();
        // Stride of 1 MiB + 17 is never aligned after the first op.
        assert_eq!(
            s.unaligned_ops(100, 1024, AccessLayout::Strided { stride: MIB + 17 }),
            99
        );
        // Stride exactly 1 MiB is always aligned.
        assert_eq!(
            s.unaligned_ops(100, 1024, AccessLayout::Strided { stride: MIB }),
            0
        );
        assert_eq!(s.unaligned_ops(100, 1024, AccessLayout::Random), 100);
    }
}
