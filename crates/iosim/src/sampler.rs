//! Randomized job sampling: the stand-in for NERSC's production Darshan
//! database.
//!
//! Each sampled job draws a workload shape (direction, request size, op
//! count, layout, sync behaviour, metadata load) and a storage variant
//! (stripe settings), runs it through the simulator, and yields a
//! [`JobLog`]. Sampling is deterministic given the seed and embarrassingly
//! parallel (one independent RNG per job), so databases of tens of
//! thousands of jobs build in seconds.

use crate::config::{StorageConfig, MIB};
use crate::engine::Simulator;
use crate::labels::{ground_truth, BottleneckClass};
use crate::ops::{AccessLayout, JobSpec, OpBlock, ReadWrite};
use aiio_darshan::{JobLog, LogDatabase};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Relative per-year job volumes from the paper's Table 1 (2019-2022).
pub const TABLE1_YEAR_WEIGHTS: [(u16, u64); 4] = [
    (2019, 3_013_293),
    (2020, 1_554_827),
    (2021, 2_854_583),
    (2022, 963_035),
];

/// Sampler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// Number of jobs to generate.
    pub n_jobs: usize,
    /// Master seed; every derived job is a pure function of this.
    pub seed: u64,
    /// Interference noise applied to job times.
    pub noise_sigma: f64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            n_jobs: 4096,
            seed: 7,
            noise_sigma: 0.03,
        }
    }
}

/// The database sampler.
#[derive(Debug, Clone)]
pub struct DatabaseSampler {
    config: SamplerConfig,
}

impl DatabaseSampler {
    /// Sampler with the given configuration.
    pub fn new(config: SamplerConfig) -> Self {
        Self { config }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Generate the full database (parallel, deterministic).
    pub fn generate(&self) -> LogDatabase {
        let ids: Vec<u64> = (0..self.config.n_jobs as u64).collect();
        let jobs = aiio_par::map(&ids, |&job_id| self.generate_job(job_id));
        jobs.into_iter().collect()
    }

    /// Generate the database together with each job's ground-truth
    /// bottleneck label (see [`crate::labels`]) — the tagged dataset the
    /// paper's conclusion proposes for classification-style evaluation.
    pub fn generate_labeled(&self) -> (LogDatabase, Vec<BottleneckClass>) {
        let ids: Vec<u64> = (0..self.config.n_jobs as u64).collect();
        let rows = aiio_par::map(&ids, |&job_id| self.generate_labeled_job(job_id));
        let mut labels = Vec::with_capacity(rows.len());
        let db = rows
            .into_iter()
            .map(|(log, label)| {
                labels.push(label);
                log
            })
            .collect();
        (db, labels)
    }

    /// Generate jobs `start..end` (parallel, deterministic). Because each
    /// job is a pure function of `(seed, job_id)`, the concatenation of
    /// consecutive ranges equals one big [`DatabaseSampler::generate`] —
    /// the building block for streaming a huge database through bounded
    /// memory ([`DatabaseSampler::sample_into_store`]).
    pub fn generate_range(&self, start: u64, end: u64) -> Vec<JobLog> {
        let ids: Vec<u64> = (start..end.max(start)).collect();
        aiio_par::map(&ids, |&job_id| self.generate_job(job_id))
    }

    /// Stream the full sampled database into a store through `append`,
    /// in bounded-memory chunks of `chunk_rows` jobs, and return the jobs
    /// sampled. Deterministic: the chunks concatenate to exactly what
    /// [`DatabaseSampler::generate`] returns, in the same order, but peak
    /// memory is one chunk — this is how a paper-scale (millions of jobs)
    /// database is built. `append` is typically a store's `append_batch`,
    /// so any layout can be filled.
    pub fn sample_into_store(
        &self,
        chunk_rows: usize,
        mut append: impl FnMut(&[JobLog]) -> aiio_store::Result<()>,
    ) -> aiio_store::Result<u64> {
        let n = self.config.n_jobs as u64;
        let chunk = chunk_rows.max(1) as u64;
        let mut start = 0u64;
        while start < n {
            let end = (start + chunk).min(n);
            append(&self.generate_range(start, end))?;
            start = end;
        }
        Ok(n)
    }

    /// Generate one job by id.
    pub fn generate_job(&self, job_id: u64) -> JobLog {
        self.simulate_job(job_id).2
    }

    /// Generate one job plus its ground-truth label.
    pub fn generate_labeled_job(&self, job_id: u64) -> (JobLog, BottleneckClass) {
        let (spec, sim, log) = self.simulate_job(job_id);
        (log, ground_truth(&spec, sim.config()))
    }

    /// Draw job `job_id`'s workload and storage and simulate it.
    fn simulate_job(&self, job_id: u64) -> (JobSpec, Simulator, JobLog) {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(job_id),
        );
        let (spec, storage) = sample_workload(&mut rng);
        let sim = Simulator::new(StorageConfig {
            noise_sigma: self.config.noise_sigma,
            ..storage
        });
        let year = sample_year(&mut rng);
        let log = sim.simulate(&spec, job_id, year, rng.gen());
        (spec, sim, log)
    }
}

/// Draw a year with Table 1 proportions.
fn sample_year(rng: &mut impl Rng) -> u16 {
    let total: u64 = TABLE1_YEAR_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for (year, w) in TABLE1_YEAR_WEIGHTS {
        if pick < w {
            return year;
        }
        pick -= w;
    }
    TABLE1_YEAR_WEIGHTS[0].0
}

/// Log-uniform draw over `[lo, hi]`.
fn log_uniform(rng: &mut impl Rng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo.ln()..=hi.ln())).exp()
}

/// Sample one workload and its storage variant.
pub fn sample_workload(rng: &mut impl Rng) -> (JobSpec, StorageConfig) {
    let nprocs = 1u32 << rng.gen_range(0..=12); // 1..4096 ranks
    let storage = sample_storage(rng);

    let direction = rng.gen_range(0..10);
    let (do_write, do_read) = match direction {
        0..=3 => (true, false),
        4..=7 => (false, true),
        _ => (true, true),
    };

    let mut script = Vec::new();
    let opens = log_uniform(rng, 1.0, 64.0) as u64;
    script.push(OpBlock::Open {
        count: opens.max(1),
    });
    if rng.gen_bool(0.4) {
        // Middleware stacks (HDF5 etc.) call fileno; plain POSIX apps don't.
        script.push(OpBlock::Fileno {
            count: rng.gen_range(1..=opens.max(1)),
        });
    }
    if rng.gen_bool(0.3) {
        script.push(OpBlock::Stat {
            count: rng.gen_range(1..=32),
        });
    }

    fn push_phase<R: Rng>(rng: &mut R, kind: ReadWrite) -> OpBlock {
        let size = log_uniform(rng, 64.0, 8.0 * MIB as f64) as u64;
        let count = log_uniform(rng, 4.0, 4096.0) as u64;
        let layout = match rng.gen_range(0..4u8) {
            0 | 1 => AccessLayout::Consecutive,
            2 => {
                let mult = rng.gen_range(2..=64) as u64;
                AccessLayout::Strided {
                    stride: size.saturating_mul(mult).max(size + 1),
                }
            }
            _ => AccessLayout::Random,
        };
        let fsync_after_each = kind == ReadWrite::Write && rng.gen_bool(0.35);
        let seek_before_each = match kind {
            ReadWrite::Read => rng.gen_bool(0.5) || matches!(layout, AccessLayout::Random),
            ReadWrite::Write => matches!(layout, AccessLayout::Random),
        };
        OpBlock::Transfer {
            kind,
            size: size.max(64),
            count: count.max(1),
            layout,
            seek_before_each,
            fsync_after_each,
            mem_aligned: rng.gen_bool(0.85),
        }
    }

    if do_write {
        let b = push_phase(rng, ReadWrite::Write);
        script.push(b);
    }
    if do_read {
        let b = push_phase(rng, ReadWrite::Read);
        script.push(b);
    }
    // Occasionally interleave a second pair to create RW switches.
    if do_write && do_read && rng.gen_bool(0.4) {
        let b = push_phase(rng, ReadWrite::Write);
        script.push(b);
    }
    if rng.gen_bool(0.15) {
        script.push(OpBlock::Seek {
            count: rng.gen_range(1..=256),
        });
    }

    let family = if do_write && do_read {
        "synthetic-mixed"
    } else if do_write {
        "synthetic-write"
    } else {
        "synthetic-read"
    };
    (JobSpec::uniform(family, nprocs, script), storage)
}

/// Sample a storage variant: mostly Cori defaults, sometimes custom stripes.
fn sample_storage(rng: &mut impl Rng) -> StorageConfig {
    let base = StorageConfig::cori_like();
    if rng.gen_bool(0.7) {
        base
    } else {
        let width = 1u32 << rng.gen_range(0..=3); // 1..8 OSTs
        let size = (64u64 * 1024) << rng.gen_range(0..=7); // 64 KiB..8 MiB
        base.with_stripe(width, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_darshan::CounterId;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SamplerConfig {
            n_jobs: 32,
            seed: 11,
            noise_sigma: 0.03,
        };
        let a = DatabaseSampler::new(cfg.clone()).generate();
        let b = DatabaseSampler::new(cfg).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_concatenate_to_the_full_database() {
        let cfg = SamplerConfig {
            n_jobs: 48,
            seed: 17,
            noise_sigma: 0.02,
        };
        let sampler = DatabaseSampler::new(cfg);
        let whole = sampler.generate();
        let mut pieces = sampler.generate_range(0, 20);
        pieces.extend(sampler.generate_range(20, 48));
        assert_eq!(whole.jobs(), &pieces[..]);
        assert!(sampler.generate_range(5, 5).is_empty());
    }

    #[test]
    fn sample_into_store_equals_in_memory_generation() {
        let dir = std::env::temp_dir().join(format!("aiio_sampler_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = aiio_store::Store::open_with(
            &dir,
            aiio_store::StoreConfig {
                rows_per_segment: 16,
                ..aiio_store::StoreConfig::default()
            },
        )
        .unwrap();
        let sampler = DatabaseSampler::new(SamplerConfig {
            n_jobs: 50,
            seed: 23,
            noise_sigma: 0.01,
        });
        let n = sampler
            .sample_into_store(7, |jobs| store.append_batch(jobs))
            .unwrap();
        assert_eq!(n, 50);
        assert_eq!(store.len(), 50);
        // Chunked out-of-core ingestion lands byte-for-byte on generate().
        assert_eq!(store.read_all().unwrap(), sampler.generate());
        // Small chunks against a 16-row segment size must still have sealed.
        assert!(store.stats().segments >= 2, "{:?}", store.stats());
        // Reopened with room for every row, seal + compact merges the
        // undersized segments, and the merged store still reads back as
        // generate().
        drop(store);
        let mut store = aiio_store::Store::open_with(
            &dir,
            aiio_store::StoreConfig {
                rows_per_segment: 64,
                ..aiio_store::StoreConfig::default()
            },
        )
        .unwrap();
        store.seal().unwrap();
        let report = store.compact().unwrap();
        assert!(report.segments_after < report.segments_before, "{report:?}");
        assert_eq!(store.stats().segments, report.segments_after);
        assert_eq!(store.read_all().unwrap(), sampler.generate());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatabaseSampler::new(SamplerConfig {
            n_jobs: 16,
            seed: 1,
            noise_sigma: 0.0,
        })
        .generate();
        let b = DatabaseSampler::new(SamplerConfig {
            n_jobs: 16,
            seed: 2,
            noise_sigma: 0.0,
        })
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn jobs_have_positive_performance_and_ids() {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 64,
            seed: 3,
            noise_sigma: 0.0,
        })
        .generate();
        assert_eq!(db.len(), 64);
        for (i, j) in db.jobs().iter().enumerate() {
            assert_eq!(j.job_id, i as u64);
            assert!(j.performance_mib_s() > 0.0, "job {i} has zero perf");
            assert!(j.counters.get(CounterId::Nprocs) >= 1.0);
        }
    }

    #[test]
    fn database_is_sparse_like_the_paper() {
        // Paper §3.1: average sparsity 0.2379 (~10 of 45 counters zero).
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 256,
            seed: 5,
            noise_sigma: 0.0,
        })
        .generate();
        let s = db.average_sparsity();
        assert!(s > 0.1 && s < 0.7, "sparsity {s} out of plausible range");
    }

    #[test]
    fn years_cover_table1_range() {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 512,
            seed: 9,
            noise_sigma: 0.0,
        })
        .generate();
        let years = db.year_summaries();
        assert_eq!(years.len(), 4);
        assert!(years.iter().all(|y| (2019..=2022).contains(&y.year)));
        // 2019 should have the most jobs (highest Table 1 weight).
        let max = years.iter().max_by_key(|y| y.n_jobs).unwrap();
        assert_eq!(max.year, 2019);
    }

    #[test]
    fn performance_spans_multiple_orders_of_magnitude() {
        // Fig. 4/5 shape: performance spread over a wide range.
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 256,
            seed: 13,
            noise_sigma: 0.0,
        })
        .generate();
        let perfs: Vec<f64> = db.jobs().iter().map(|j| j.performance_mib_s()).collect();
        let max = perfs.iter().copied().fold(0.0f64, f64::max);
        let min = perfs.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min > 100.0, "min={min:.3} max={max:.3}");
    }

    #[test]
    fn labeled_generation_matches_unlabeled_and_covers_classes() {
        let cfg = SamplerConfig {
            n_jobs: 256,
            seed: 5,
            noise_sigma: 0.0,
        };
        let (db, labels) = DatabaseSampler::new(cfg.clone()).generate_labeled();
        assert_eq!(db, DatabaseSampler::new(cfg).generate());
        assert_eq!(labels.len(), db.len());
        // The sampler should produce at least four distinct classes.
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        assert!(distinct.len() >= 4, "only {distinct:?}");
    }

    /// FNV-1a 64 of `bytes`, continued from the running hash `h`.
    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn labeled_database_matches_its_pinned_fingerprint() {
        // Both constants were captured at commit c25a32b, before the engine
        // and the labeller shared one copy of the cost formulas. Any change
        // to a log's JSON bytes, a job's label or one bit of its cost
        // breakdown moves them.
        const LOGS_FNV: u64 = 0xd861_7d71_9cc5_4140;
        const LABELS_FNV: u64 = 0x131b_9254_ff8b_a60b;
        let cfg = SamplerConfig {
            n_jobs: 2000,
            ..SamplerConfig::default()
        };
        let (db, labels) = DatabaseSampler::new(cfg.clone()).generate_labeled();
        let path =
            std::env::temp_dir().join(format!("aiio_sampler_pin_{}.json", std::process::id()));
        db.save_json(&path).unwrap();
        let json = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let logs_fnv = fnv1a(0xcbf2_9ce4_8422_2325, &json);

        let mut labels_fnv = 0xcbf2_9ce4_8422_2325;
        for (job_id, label) in labels.iter().enumerate() {
            // The sampler's own draw for this job, replayed.
            let mut rng = ChaCha8Rng::seed_from_u64(
                cfg.seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(job_id as u64),
            );
            let (spec, storage) = sample_workload(&mut rng);
            let b = crate::labels::cost_breakdown(&spec, &storage);
            assert_eq!(b.dominant(), *label, "job {job_id}");
            labels_fnv = fnv1a(labels_fnv, label.name().as_bytes());
            for v in [
                b.seek_time,
                b.metadata_time,
                b.sync_write_overhead,
                b.read_rpc_overhead,
                b.buffered_write_rpc_overhead,
                b.unaligned_penalty,
                b.bandwidth_time,
            ] {
                labels_fnv = fnv1a(labels_fnv, &v.to_bits().to_le_bytes());
            }
        }
        assert_eq!(
            (logs_fnv, labels_fnv),
            (LOGS_FNV, LABELS_FNV),
            "got LOGS_FNV = {logs_fnv:#018x}, LABELS_FNV = {labels_fnv:#018x}"
        );
    }

    #[test]
    fn mixed_jobs_record_rw_switches() {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 256,
            seed: 21,
            noise_sigma: 0.0,
        })
        .generate();
        let with_switch = db
            .jobs()
            .iter()
            .filter(|j| j.counters.get(CounterId::PosixRwSwitches) > 0.0)
            .count();
        assert!(with_switch > 10, "only {with_switch} jobs with rw switches");
    }
}
