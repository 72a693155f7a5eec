//! Parallel-I/O and Lustre-like storage simulator.
//!
//! The AIIO paper's experiments run on NERSC's Cori: a Cray XC40 with a
//! Lustre file system (default 1 OST, 1 MiB stripe). We have no Cori, so this
//! crate plays its role (see DESIGN.md's substitution table): it executes
//! *workload scripts* — per-rank streams of open/seek/read/write/fsync/stat
//! operations — against a parameterised storage cost model, and emits
//! Darshan-style [`aiio_darshan::JobLog`]s with every counter of the paper's
//! Table 4 filled in plus the time counters that define the Eq. 1 performance
//! tag.
//!
//! The cost model encodes the causal structure the paper's diagnosis is
//! supposed to discover:
//!
//! * small requests pay a per-request cost, so many small writes are slow
//!   (paper Fig. 7, 104× from 1 KiB → 1 MiB transfers);
//! * seeks cost client time, so seek-per-read sequential input is slower
//!   than seek-once (Fig. 8);
//! * strided and random access defeat readahead and alignment (Figs. 9–12);
//! * unaligned accesses pay a read-modify-write penalty at the OST;
//! * opens serialize on the metadata server, so many-small-files hurt
//!   (Fig. 15, DASSA);
//! * stripe settings change how requests split across OSTs (Fig. 14,
//!   OpenPMD).
//!
//! Modules:
//! * [`config`] — storage cost-model parameters ([`StorageConfig`]).
//! * [`ops`] — workload scripts ([`JobSpec`], [`OpBlock`], [`AccessLayout`]).
//! * [`recorder`] — Darshan-style counter extraction from a script.
//! * [`engine`] — the cost model; turns a [`JobSpec`] into a [`JobLog`](aiio_darshan::JobLog).
//! * [`ior`] — an IOR-like synthetic workload generator (accepts the paper's
//!   Table 3 command lines).
//! * [`apps`] — the paper's three real-application kernels (E2E, OpenPMD,
//!   DASSA), untuned and tuned variants.
//! * [`sampler`] — randomized job sampling to build large training
//!   databases (the NERSC-database substitute), in memory or streamed
//!   into an `aiio-store` store in bounded-memory chunks.

pub mod apps;
pub mod config;
pub mod engine;
pub mod ior;
pub mod labels;
pub mod ops;
pub mod recorder;
pub mod sampler;
pub mod trace;

pub use config::StorageConfig;
pub use engine::Simulator;
pub use ior::IorConfig;
pub use labels::{cost_breakdown, ground_truth, BottleneckClass, CostBreakdown};
pub use ops::{AccessLayout, JobSpec, OpBlock, RankGroup, ReadWrite};
pub use sampler::{DatabaseSampler, SamplerConfig};
pub use trace::{parse_trace, to_trace, TraceError};
