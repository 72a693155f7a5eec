//! Bit-identity of the simulator against its earlier, duplicated cost model.
//!
//! Up to commit c25a32b, the storage cost formulas lived in two places:
//! `Simulator::group_cost` in the engine and a hand-kept copy in
//! `labels::cost_breakdown`, with the file-alignment rule kept a third time
//! in the recorder. The `reference` module below keeps those earlier
//! versions verbatim (only renamed, and with `self.config` read from a
//! local struct). Every test here asserts that the current one-copy model
//! reproduces them bit for bit (`to_bits`), on sampled workloads and on
//! the paper's fixtures.

use aiio_darshan::{CounterId, JobLog};
use aiio_iosim::ior::table3;
use aiio_iosim::sampler::sample_workload;
use aiio_iosim::{apps, cost_breakdown, ground_truth, JobSpec, Simulator, StorageConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod reference {
    use aiio_darshan::{JobLog, TimeCounters};
    use aiio_iosim::labels::CostBreakdown;
    use aiio_iosim::recorder::record_counters;
    use aiio_iosim::{AccessLayout, JobSpec, OpBlock, ReadWrite, StorageConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn gcd(a: u64, b: u64) -> u64 {
        let (mut a, mut b) = (a, b);
        while b != 0 {
            let t = b;
            b = a % b;
            a = t;
        }
        a.max(1)
    }

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

    /// The recorder's `POSIX_FILE_NOT_ALIGNED` for a whole job: per-rank
    /// sums of the earlier inline alignment match, times the group size.
    pub fn file_not_aligned(spec: &JobSpec, config: &StorageConfig) -> f64 {
        let align = config.stripe_size;
        let mut total = 0.0;
        for group in &spec.groups {
            let mut rank = 0.0;
            for block in &group.script {
                if let OpBlock::Transfer {
                    size,
                    count,
                    layout,
                    ..
                } = *block
                {
                    if count == 0 {
                        continue;
                    }
                    // File-alignment violations.
                    let unaligned = match layout {
                        AccessLayout::Consecutive => count - aligned_count(count, size, align),
                        AccessLayout::Strided { stride } => {
                            count - aligned_count(count, stride, align)
                        }
                        AccessLayout::Random => count, // random byte offsets are effectively never aligned
                    };
                    rank += unaligned as f64;
                }
            }
            total += rank * group.n_ranks as f64;
        }
        total
    }

    #[derive(Debug, Default, Clone, Copy)]
    struct GroupCost {
        client: f64,
        client_read: f64,
        client_write: f64,
        client_meta: f64,
        server_read: f64,
        server_write: f64,
        mds: f64,
    }

    pub struct Simulator {
        pub config: StorageConfig,
    }

    impl Simulator {
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

        fn group_cost(&self, script: &[OpBlock]) -> GroupCost {
            let c = &self.config;
            let mut g = GroupCost::default();
            for block in script {
                match *block {
                    OpBlock::Open { count } => {
                        let client = count as f64 * c.client_syscall;
                        let server = count as f64 * c.open_cost;
                        g.client += client + server; // opens are synchronous RPCs
                        g.client_meta += client + server;
                        g.mds += server;
                    }
                    OpBlock::Fileno { count } => {
                        let t = count as f64 * c.client_syscall;
                        g.client += t;
                        g.client_meta += t;
                    }
                    OpBlock::Stat { count } => {
                        let client = count as f64 * c.client_syscall;
                        let server = count as f64 * c.stat_cost;
                        g.client += client + server;
                        g.client_meta += client + server;
                        g.mds += server;
                    }
                    OpBlock::Seek { count } => {
                        let t = count as f64 * c.seek_cost;
                        g.client += t;
                        g.client_meta += t;
                    }
                    OpBlock::Fsync { count } => {
                        let t = count as f64 * c.fsync_cost;
                        g.client += t;
                        g.client_meta += t;
                    }
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
                            continue;
                        }
                        let bytes = (size * count) as f64;
                        let nf = count as f64;

                        let mut client = nf * c.client_syscall + bytes / c.client_max_bw;
                        if seek_before_each {
                            client += nf * c.seek_cost;
                        }
                        if !mem_aligned {
                            client += nf * c.mem_unaligned_extra;
                        }

                        let unaligned = self.unaligned_ops(count, size, layout) as f64;

                        let server = match kind {
                            ReadWrite::Read => match layout {
                                AccessLayout::Consecutive => {
                                    let rpcs = self.read_rpcs(count, size, layout) as f64;
                                    rpcs * c.read_rpc_base + bytes / c.ost_read_bw
                                }
                                _ => {
                                    let rpcs = self.read_rpcs(count, size, layout) as f64;
                                    rpcs * c.read_rpc_base
                                        + bytes / c.ost_read_bw
                                        + unaligned * c.unaligned_extra
                                }
                            },
                            ReadWrite::Write => {
                                if fsync_after_each {
                                    let rpcs = nf * self.rpc_split(size) as f64;
                                    client += nf * c.fsync_cost;
                                    rpcs * (c.write_rpc_base + c.sync_write_extra)
                                        + bytes / c.ost_write_bw
                                        + unaligned * c.unaligned_extra
                                } else {
                                    match layout {
                                        AccessLayout::Consecutive => {
                                            let rpcs =
                                                (bytes / c.writeback_bytes as f64).ceil().max(1.0);
                                            rpcs * c.write_rpc_base + bytes / c.ost_write_bw
                                        }
                                        _ => {
                                            let rpcs = nf * self.rpc_split(size) as f64;
                                            rpcs * c.write_rpc_base
                                                + bytes / c.ost_write_bw
                                                + unaligned * c.unaligned_extra
                                        }
                                    }
                                }
                            }
                        };

                        g.client += client + server;
                        match kind {
                            ReadWrite::Read => {
                                g.client_read += client;
                                g.server_read += server;
                            }
                            ReadWrite::Write => {
                                g.client_write += client;
                                g.server_write += server;
                            }
                        }
                    }
                }
            }
            g
        }

        fn read_rpcs(&self, count: u64, size: u64, layout: AccessLayout) -> u64 {
            match layout {
                AccessLayout::Consecutive => {
                    let bytes = count * size;
                    bytes.div_ceil(self.config.readahead_bytes).max(1)
                }
                _ => count * self.rpc_split(size),
            }
        }

        fn rpc_split(&self, size: u64) -> u64 {
            size.div_ceil(self.config.stripe_size).max(1)
        }

        fn unaligned_ops(&self, count: u64, size: u64, layout: AccessLayout) -> u64 {
            let align = self.config.stripe_size;
            let aligned = |step: u64| -> u64 {
                let g = gcd(step, align);
                let period = align / g;
                count.div_ceil(period)
            };
            match layout {
                AccessLayout::Consecutive => count - aligned(size),
                AccessLayout::Strided { stride } => count - aligned(stride),
                AccessLayout::Random => count,
            }
        }
    }

    fn lognormal_factor(rng: &mut impl Rng, sigma: f64) -> f64 {
        // Box-Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (sigma * z).exp()
    }

    pub fn cost_breakdown(spec: &JobSpec, config: &StorageConfig) -> CostBreakdown {
        let sim = Simulator {
            config: config.clone(),
        };
        let c = config;
        let mut b = CostBreakdown::default();
        let mut max_client_seek = 0.0f64;
        for group in &spec.groups {
            let n = group.n_ranks as f64;
            let mut group_seek = 0.0f64;
            for block in &group.script {
                match *block {
                    OpBlock::Open { count } => b.metadata_time += n * count as f64 * c.open_cost,
                    OpBlock::Fileno { count } => {
                        b.metadata_time += n * count as f64 * c.client_syscall
                    }
                    OpBlock::Stat { count } => b.metadata_time += n * count as f64 * c.stat_cost,
                    OpBlock::Seek { count } => group_seek += count as f64 * c.seek_cost,
                    OpBlock::Fsync { count } => {
                        b.sync_write_overhead += n * count as f64 * c.fsync_cost
                    }
                    OpBlock::Transfer {
                        kind,
                        size,
                        count,
                        layout,
                        seek_before_each,
                        fsync_after_each,
                        ..
                    } => {
                        if count == 0 || size == 0 {
                            continue;
                        }
                        let bytes = n * (size * count) as f64;
                        let nf = n * count as f64;
                        if seek_before_each {
                            group_seek += count as f64 * c.seek_cost;
                        }
                        let unaligned = n * sim.unaligned_ops(count, size, layout) as f64;
                        match kind {
                            ReadWrite::Read => {
                                b.bandwidth_time += bytes / c.aggregate_read_bw();
                                match layout {
                                    AccessLayout::Consecutive => {
                                        let rpcs =
                                            ((size * count).div_ceil(c.readahead_bytes)).max(1);
                                        b.read_rpc_overhead += n * rpcs as f64 * c.read_rpc_base;
                                    }
                                    _ => {
                                        let split = size.div_ceil(c.stripe_size).max(1);
                                        b.read_rpc_overhead += nf * split as f64 * c.read_rpc_base;
                                        b.unaligned_penalty += unaligned * c.unaligned_extra;
                                    }
                                }
                            }
                            ReadWrite::Write => {
                                b.bandwidth_time += bytes / c.aggregate_write_bw();
                                if fsync_after_each {
                                    let split = size.div_ceil(c.stripe_size).max(1);
                                    b.sync_write_overhead +=
                                        nf * split as f64 * (c.write_rpc_base + c.sync_write_extra)
                                            + nf * c.fsync_cost;
                                    b.unaligned_penalty += unaligned * c.unaligned_extra;
                                } else {
                                    match layout {
                                        AccessLayout::Consecutive => {
                                            let rpcs = ((size * count) as f64
                                                / c.writeback_bytes as f64)
                                                .ceil()
                                                .max(1.0);
                                            b.buffered_write_rpc_overhead +=
                                                n * rpcs * c.write_rpc_base;
                                        }
                                        _ => {
                                            let split = size.div_ceil(c.stripe_size).max(1);
                                            b.buffered_write_rpc_overhead +=
                                                nf * split as f64 * c.write_rpc_base;
                                            b.unaligned_penalty += unaligned * c.unaligned_extra;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            max_client_seek = max_client_seek.max(group_seek);
        }
        b.seek_time = max_client_seek;
        b
    }
}

/// The seven breakdown components in a fixed order.
fn components(b: &aiio_iosim::CostBreakdown) -> [f64; 7] {
    [
        b.seek_time,
        b.metadata_time,
        b.sync_write_overhead,
        b.read_rpc_overhead,
        b.buffered_write_rpc_overhead,
        b.unaligned_penalty,
        b.bandwidth_time,
    ]
}

fn time_bits(log: &JobLog) -> [u64; 4] {
    [
        log.time.total_read_time.to_bits(),
        log.time.total_write_time.to_bits(),
        log.time.total_meta_time.to_bits(),
        log.time.slowest_rank_seconds.to_bits(),
    ]
}

#[test]
fn sampled_jobs_simulate_and_break_down_bit_for_bit_as_the_reference() {
    const DRAWS_PER_RUN: usize = 2500;
    let mut draws = 0;
    for seed in [1u64, 7, 42, 2022] {
        for noisy in [true, false] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for job_id in 0..DRAWS_PER_RUN as u64 {
                let (spec, storage) = sample_workload(&mut rng);
                let storage = StorageConfig {
                    noise_sigma: if noisy { storage.noise_sigma } else { 0.0 },
                    ..storage
                };
                let sim_seed: u64 = rng.gen();
                let old = reference::Simulator {
                    config: storage.clone(),
                }
                .simulate(&spec, job_id, 2022, sim_seed);
                let new = Simulator::new(storage.clone()).simulate(&spec, job_id, 2022, sim_seed);
                assert_eq!(
                    time_bits(&new),
                    time_bits(&old),
                    "seed {seed} draw {job_id}"
                );
                assert_eq!(new, old, "seed {seed} draw {job_id}");
                assert_eq!(
                    new.counters.get(CounterId::PosixFileNotAligned).to_bits(),
                    reference::file_not_aligned(&spec, &storage).to_bits(),
                    "seed {seed} draw {job_id}"
                );

                let old = components(&reference::cost_breakdown(&spec, &storage));
                let new = components(&cost_breakdown(&spec, &storage));
                assert_eq!(
                    new.map(f64::to_bits),
                    old.map(f64::to_bits),
                    "seed {seed} draw {job_id}: {new:?} vs {old:?}"
                );
                draws += 1;
            }
        }
    }
    assert_eq!(draws, 20_000);
}

/// Every Table 3 pattern and every application kernel, tuned and untuned.
fn fixtures() -> Vec<(String, JobSpec, StorageConfig)> {
    let quiet = StorageConfig::cori_like_quiet();
    let mut out: Vec<(String, JobSpec, StorageConfig)> = [
        ("fig7a", table3::fig7a()),
        ("fig7b", table3::fig7b()),
        ("fig8a", table3::fig8a()),
        ("fig8b", table3::fig8b()),
        ("fig9", table3::fig9()),
        ("fig10", table3::fig10()),
        ("fig11", table3::fig11()),
        ("fig12", table3::fig12()),
    ]
    .into_iter()
    .map(|(name, ior)| (name.to_string(), ior.to_spec(), quiet.clone()))
    .collect();
    for app in [
        apps::e2e,
        apps::openpmd,
        apps::vpic,
        apps::ml_training,
        apps::dassa,
    ] {
        for tuned in [false, true] {
            let run = app(tuned, &quiet);
            out.push((run.label, run.spec, run.storage));
        }
    }
    out
}

#[test]
fn paper_fixtures_keep_their_labels_and_simulate_bit_for_bit() {
    let fixtures = fixtures();
    assert_eq!(fixtures.len(), 18);
    for (name, spec, storage) in &fixtures {
        let old = reference::Simulator {
            config: storage.clone(),
        }
        .simulate(spec, 3, 2022, 11);
        let new = Simulator::new(storage.clone()).simulate(spec, 3, 2022, 11);
        assert_eq!(time_bits(&new), time_bits(&old), "{name}");
        assert_eq!(new, old, "{name}");

        let old = reference::cost_breakdown(spec, storage);
        let new = cost_breakdown(spec, storage);
        assert_eq!(ground_truth(spec, storage), old.dominant(), "{name}");
        // Exact even for e2e-tuned, whose aggregator groups are not powers
        // of two: `n * (c * x)` and the old `(n * c) * x` round alike there.
        assert_eq!(
            components(&new).map(f64::to_bits),
            components(&old).map(f64::to_bits),
            "{name}: {new:?} vs {old:?}"
        );
    }
}
