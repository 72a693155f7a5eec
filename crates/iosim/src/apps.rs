//! The paper's three real-application I/O kernels (§4.2), each with the
//! untuned configuration AIIO diagnoses and the tuned configuration the
//! paper derives from the diagnosis.
//!
//! * **E2E** (§4.2.1) — the Chimera/Pixie3D end-to-end I/O kernel
//!   (`write_3d_nc4`). Untuned, 64 ranks write non-contiguous sub-rows of a
//!   (1024, 1024, 512) grid: many small strided writes that collective I/O
//!   cannot merge. Tuned, the decomposition matches the write shape so
//!   collective buffering merges everything into large contiguous writes
//!   issued by a few aggregators (paper speedup: 146×).
//! * **OpenPMD** (§4.2.2) — the h5bench OpenPMD kernel, 1024 ranks writing
//!   mesh + particle data. Untuned, independent small particle writes and a
//!   1 MiB stripe; tuned, collective buffering merges the small writes and
//!   the stripe is raised to 4 MiB (paper speedup: 1.82×).
//! * **DASSA** (§4.2.3) — distributed-acoustic-sensing analysis. Untuned,
//!   every worker opens 21 one-minute files plus a template; tuned, the
//!   files are merged into one (paper speedup: 2.1×).

use crate::config::{StorageConfig, MIB};
use crate::ops::{AccessLayout, JobSpec, OpBlock, ReadWrite};

/// An application experiment: a job spec plus the storage configuration it
/// runs against (tuning may change both — OpenPMD changes the stripe).
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Human-readable label, e.g. `e2e-untuned`.
    pub label: String,
    /// The workload.
    pub spec: JobSpec,
    /// Storage settings for the run.
    pub storage: StorageConfig,
}

/// E2E kernel. `tuned = false` reproduces the paper's Fig. 13(a) setup,
/// `tuned = true` its Fig. 13(b).
pub fn e2e(tuned: bool, base: &StorageConfig) -> AppRun {
    let nprocs = 64u32;
    if !tuned {
        // (npx,npy,npz) = (32,32,16), (ndx,ndy,ndz) = (32,32,32): a
        // (1024, 1024, 512) grid of 4-byte values, 2 GiB total. Each rank
        // owns a cubic subset whose rows are short (512 B) and separated by
        // the global row length, so nothing is mergeable.
        let total_bytes = 2u64 * 1024 * MIB;
        let write_size = 512u64;
        let count = total_bytes / write_size / nprocs as u64;
        let spec = JobSpec::uniform(
            "e2e",
            nprocs,
            vec![
                OpBlock::Open { count: 1 },
                OpBlock::Transfer {
                    kind: ReadWrite::Write,
                    size: write_size,
                    count,
                    layout: AccessLayout::Strided { stride: 8 * 1024 },
                    seek_before_each: false,
                    fsync_after_each: false,
                    mem_aligned: true,
                },
            ],
        );
        AppRun {
            label: "e2e-untuned".into(),
            spec,
            storage: base.clone(),
        }
    } else {
        // Grid resized to (1024, 64, 32) so each rank's data is contiguous;
        // collective buffering funnels it through 8 aggregators writing
        // 1 MiB blocks.
        let total_bytes = 1024u64 * 64 * 32 * 4;
        let aggregators = 8u32;
        let per_agg = total_bytes / aggregators as u64;
        let spec = JobSpec {
            app: "e2e".into(),
            groups: vec![
                crate::ops::RankGroup {
                    n_ranks: aggregators,
                    script: vec![
                        OpBlock::Open { count: 1 },
                        OpBlock::transfer(
                            ReadWrite::Write,
                            MIB,
                            per_agg.div_ceil(MIB),
                            AccessLayout::Consecutive,
                        ),
                    ],
                },
                crate::ops::RankGroup {
                    n_ranks: 64 - aggregators,
                    script: vec![],
                },
            ],
        };
        AppRun {
            label: "e2e-tuned".into(),
            spec,
            storage: base.clone(),
        }
    }
}

/// OpenPMD kernel (h5bench), 1024 ranks, mesh + particle data.
pub fn openpmd(tuned: bool, base: &StorageConfig) -> AppRun {
    let nprocs = 1024u32;
    // Per rank: 2 MiB of mesh data and 64 particle attribute chunks.
    let mesh_bytes = 2 * MIB;
    let particle_chunk = 800u64;
    let particle_chunks = 64u64;
    if !tuned {
        // Independent I/O: the small particle writes go out one by one,
        // strided across ranks; stripe stays at the 1 MiB default.
        let spec = JobSpec::uniform(
            "openpmd",
            nprocs,
            vec![
                OpBlock::Open { count: 1 },
                OpBlock::transfer(
                    ReadWrite::Write,
                    MIB,
                    mesh_bytes / MIB,
                    AccessLayout::Consecutive,
                ),
                OpBlock::Transfer {
                    kind: ReadWrite::Write,
                    size: particle_chunk,
                    count: particle_chunks,
                    layout: AccessLayout::Strided {
                        stride: particle_chunk * nprocs as u64,
                    },
                    seek_before_each: false,
                    fsync_after_each: false,
                    mem_aligned: true,
                },
            ],
        );
        AppRun {
            label: "openpmd-untuned".into(),
            spec,
            storage: base.clone(),
        }
    } else {
        // OPENPMD_HDF5_INDEPENDENT off + 4 MiB stripe: collective buffering
        // merges the particle writes into the mesh stream.
        let merged_bytes = mesh_bytes + particle_chunk * particle_chunks;
        let spec = JobSpec::uniform(
            "openpmd",
            nprocs,
            vec![
                OpBlock::Open { count: 1 },
                OpBlock::transfer(
                    ReadWrite::Write,
                    MIB,
                    merged_bytes.div_ceil(MIB),
                    AccessLayout::Consecutive,
                ),
            ],
        );
        let storage = base.clone().with_stripe(base.stripe_width, 4 * MIB);
        AppRun {
            label: "openpmd-tuned".into(),
            spec,
            storage,
        }
    }
}

/// VPIC-style particle checkpoint (Byna et al.'s trillion-particle runs,
/// the paper's ref \[10\]): every rank dumps its particle buffer. Untuned,
/// each rank writes its own interleaved region with the default 1 MiB
/// stripe; tuned, ranks write large aligned blocks over a wider stripe
/// (the tuning the VPIC I/O studies applied).
pub fn vpic(tuned: bool, base: &StorageConfig) -> AppRun {
    let nprocs = 512u32;
    let per_rank_bytes = 8 * MIB;
    if !tuned {
        let spec = JobSpec::uniform(
            "vpic",
            nprocs,
            vec![
                OpBlock::Open { count: 1 },
                // Particle arrays land as medium writes strided across the
                // shared file (rank-interleaved layout).
                OpBlock::Transfer {
                    kind: ReadWrite::Write,
                    size: 64 * 1024,
                    count: per_rank_bytes / (64 * 1024),
                    layout: AccessLayout::Strided {
                        stride: 64 * 1024 * nprocs as u64 + 4096,
                    },
                    seek_before_each: false,
                    fsync_after_each: false,
                    mem_aligned: true,
                },
            ],
        );
        AppRun {
            label: "vpic-untuned".into(),
            spec,
            storage: base.clone(),
        }
    } else {
        let spec = JobSpec::uniform(
            "vpic",
            nprocs,
            vec![
                OpBlock::Open { count: 1 },
                OpBlock::transfer(
                    ReadWrite::Write,
                    MIB,
                    per_rank_bytes / MIB,
                    AccessLayout::Consecutive,
                ),
            ],
        );
        let storage = base.clone().with_stripe(8, base.stripe_size);
        AppRun {
            label: "vpic-tuned".into(),
            spec,
            storage,
        }
    }
}

/// ML-training input pipeline (Paul et al., the paper's ref \[36\]): many
/// small random sample reads per worker. Untuned, every sample is its own
/// random read; tuned, samples are batched into large sequential reads
/// from a pre-shuffled file.
pub fn ml_training(tuned: bool, base: &StorageConfig) -> AppRun {
    let workers = 32u32;
    let sample_bytes = 16 * 1024u64;
    let samples_per_worker = 1024u64;
    if !tuned {
        let spec = JobSpec::uniform(
            "ml-train",
            workers,
            vec![
                OpBlock::Open { count: 1 },
                OpBlock::Transfer {
                    kind: ReadWrite::Read,
                    size: sample_bytes,
                    count: samples_per_worker,
                    layout: AccessLayout::Random,
                    seek_before_each: true,
                    fsync_after_each: false,
                    mem_aligned: true,
                },
            ],
        );
        AppRun {
            label: "ml-train-untuned".into(),
            spec,
            storage: base.clone(),
        }
    } else {
        let total = sample_bytes * samples_per_worker;
        let spec = JobSpec::uniform(
            "ml-train",
            workers,
            vec![
                OpBlock::Open { count: 1 },
                OpBlock::transfer(
                    ReadWrite::Read,
                    MIB,
                    total.div_ceil(MIB),
                    AccessLayout::Consecutive,
                ),
            ],
        );
        AppRun {
            label: "ml-train-tuned".into(),
            spec,
            storage: base.clone(),
        }
    }
}

/// DASSA earthquake-search kernel: one node, many worker threads, each
/// reading `m` one-minute DAS files plus a template.
pub fn dassa(tuned: bool, base: &StorageConfig) -> AppRun {
    let workers = 64u32;
    let minute_files = 21u64;
    let file_bytes = 32 * MIB;
    if !tuned {
        // Each worker opens all 21 minute files + 1 template and reads them
        // back to back.
        let spec = JobSpec::uniform(
            "dassa",
            workers,
            vec![
                OpBlock::Open {
                    count: minute_files + 1,
                },
                OpBlock::transfer(
                    ReadWrite::Read,
                    MIB,
                    minute_files * file_bytes / MIB / workers as u64,
                    AccessLayout::Consecutive,
                ),
            ],
        );
        AppRun {
            label: "dassa-untuned".into(),
            spec,
            storage: base.clone(),
        }
    } else {
        // Minute files merged into one; a single open per worker.
        let spec = JobSpec::uniform(
            "dassa",
            workers,
            vec![
                OpBlock::Open { count: 2 }, // merged data file + template
                OpBlock::transfer(
                    ReadWrite::Read,
                    MIB,
                    minute_files * file_bytes / MIB / workers as u64,
                    AccessLayout::Consecutive,
                ),
            ],
        );
        AppRun {
            label: "dassa-tuned".into(),
            spec,
            storage: base.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;

    fn perf(run: &AppRun) -> f64 {
        Simulator::new(run.storage.clone()).performance_of(&run.spec, 0)
    }

    fn quiet() -> StorageConfig {
        StorageConfig::cori_like_quiet()
    }

    #[test]
    fn e2e_tuning_gives_large_speedup() {
        // Paper Fig. 13: 3.28 -> 482 MiB/s (146x). We require a large
        // separation, not the exact factor.
        let untuned = perf(&e2e(false, &quiet()));
        let tuned = perf(&e2e(true, &quiet()));
        assert!(
            tuned > 30.0 * untuned,
            "untuned={untuned:.2} tuned={tuned:.2}"
        );
        assert!(untuned < 20.0, "untuned should be slow, got {untuned:.2}");
    }

    #[test]
    fn openpmd_tuning_gives_moderate_speedup() {
        // Paper Fig. 14: 713 -> 1303 MiB/s (1.82x). Require 1.2x-20x.
        let untuned = perf(&openpmd(false, &quiet()));
        let tuned = perf(&openpmd(true, &quiet()));
        let ratio = tuned / untuned;
        assert!(ratio > 1.2 && ratio < 20.0, "ratio={ratio:.2}");
    }

    #[test]
    fn dassa_tuning_speedup_from_fewer_opens() {
        // Paper Fig. 15: 695 -> 1482 MiB/s (2.1x). Require 1.3x-6x.
        let untuned = perf(&dassa(false, &quiet()));
        let tuned = perf(&dassa(true, &quiet()));
        let ratio = tuned / untuned;
        assert!(ratio > 1.3 && ratio < 6.0, "ratio={ratio:.2}");
    }

    #[test]
    fn vpic_tuning_gives_speedup_and_removes_strides() {
        use aiio_darshan::CounterId;
        let untuned = vpic(false, &quiet());
        let tuned = vpic(true, &quiet());
        let pu = perf(&untuned);
        let pt = perf(&tuned);
        assert!(pt > 2.0 * pu, "untuned={pu:.2} tuned={pt:.2}");
        let log = Simulator::new(untuned.storage.clone()).simulate(&untuned.spec, 0, 2022, 0);
        assert!(log.counters.get(CounterId::PosixStride1Count) > 0.0);
        let log_t = Simulator::new(tuned.storage.clone()).simulate(&tuned.spec, 1, 2022, 0);
        assert_eq!(log_t.counters.get(CounterId::PosixStride1Count), 0.0);
    }

    #[test]
    fn ml_training_batched_reads_beat_random_sample_reads() {
        use aiio_darshan::CounterId;
        let untuned = ml_training(false, &quiet());
        let tuned = ml_training(true, &quiet());
        let pu = perf(&untuned);
        let pt = perf(&tuned);
        assert!(pt > 1.5 * pu, "untuned={pu:.2} tuned={pt:.2}");
        let log = Simulator::new(untuned.storage.clone()).simulate(&untuned.spec, 0, 2022, 0);
        assert!(log.counters.get(CounterId::PosixSeeks) > 0.0);
        assert!(log.is_read_only());
    }

    #[test]
    fn untuned_e2e_is_dominated_by_small_writes() {
        use aiio_darshan::CounterId;
        let run = e2e(false, &quiet());
        let log = Simulator::new(run.storage.clone()).simulate(&run.spec, 0, 2022, 0);
        // The small-write bucket the paper flags (POSIX_SIZE_WRITE_100_1K)
        // must dominate the write histogram.
        let small = log.counters.get(CounterId::PosixSizeWrite100_1k);
        let writes = log.counters.get(CounterId::PosixWrites);
        assert!(small > 0.9 * writes, "small={small} writes={writes}");
    }

    #[test]
    fn dassa_opens_scale_with_file_count() {
        use aiio_darshan::CounterId;
        let untuned = dassa(false, &quiet());
        let tuned = dassa(true, &quiet());
        let s = Simulator::new(quiet());
        let lu = s.simulate(&untuned.spec, 0, 2022, 0);
        let lt = s.simulate(&tuned.spec, 1, 2022, 0);
        assert!(
            lu.counters.get(CounterId::PosixOpens) > 10.0 * lt.counters.get(CounterId::PosixOpens)
        );
    }

    #[test]
    fn openpmd_tuned_removes_small_write_bucket() {
        use aiio_darshan::CounterId;
        let s = Simulator::new(quiet());
        let u = openpmd(false, &quiet());
        let t = openpmd(true, &quiet());
        let lu = s.simulate(&u.spec, 0, 2022, 0);
        let lt = Simulator::new(t.storage.clone()).simulate(&t.spec, 1, 2022, 0);
        assert!(lu.counters.get(CounterId::PosixSizeWrite100_1k) > 0.0);
        assert_eq!(lt.counters.get(CounterId::PosixSizeWrite100_1k), 0.0);
        // Tuned run records the larger stripe.
        assert_eq!(
            lt.counters.get(CounterId::LustreStripeSize),
            (4 * MIB) as f64
        );
    }
}
