//! `aiio-shard`: a sharded, replicated job-log store.
//!
//! One `aiio-store` directory tops out at one disk and one WAL. This
//! crate scales the same storage contract horizontally: a
//! [`ShardedStore`] is a fleet of N independent stores, each owning a
//! contiguous span of the job-id hash space ([`hash`]), behind the same
//! append / scan / train surface as a single store.
//!
//! Three properties define the crate, in priority order:
//!
//! 1. **Sharding is invisible to training.** An ordinal journal
//!    ([`journal`]) records the owning shard of every row in arrival
//!    order; scans merge by journal, so `stream_jobs` — and therefore
//!    `FeaturePipeline::dataset_of_backend` and every model trained from
//!    it — is *byte-identical* to an unsharded store at any shard count
//!    and any `aiio_par` thread count. `ShardedStore` implements
//!    `darshan::StoreBackend`; the training stack does not know it is
//!    sharded.
//! 2. **A lost shard is survivable.** Each shard's follower directory
//!    pulls its sealed segments and WAL frames through the one
//!    replication engine ([`replica`]), the same pass a follower on
//!    another host runs over HTTP; when a primary is lost or
//!    quarantined, the fleet opens the follower instead
//!    ([`fleet::ShardRole::Replica`]) and re-seeds the primary on the
//!    next replication pass.
//! 3. **Width is a parameter, not a commitment.** [`rebalance()`] streams
//!    the fleet into a staged next epoch at a new width and publishes it
//!    with one atomic manifest swing ([`manifest`]); interrupted runs
//!    resume, and the result is deterministic — the same rows always
//!    produce the same fleet.
//!
//! Code that serves or maintains a job-log directory without caring how
//! it is laid out opens it through [`AnyStore`] ([`any`]): a plain
//! `aiio-store` and a fleet behave alike behind it, and [`Layout::of`]
//! is the only code that reads which one a directory holds.
//!
//! ```no_run
//! use aiio_shard::ShardedStore;
//! use aiio_darshan::FeaturePipeline;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut fleet = ShardedStore::open_with("/data/fleet", 4, Default::default())?;
//! // ... fleet.append_batch(&jobs)? ...
//! fleet.replicate()?;
//! // Training sees one store; bytes match an unsharded run.
//! let dataset = FeaturePipeline::paper().dataset_of_backend(&fleet)?;
//! # Ok(()) }
//! ```

pub mod any;
pub mod fleet;
pub mod hash;
pub mod journal;
pub mod manifest;
pub mod rebalance;
pub mod replica;
pub mod router;

pub use any::{AnyStats, AnyStore, Layout};
pub use fleet::{FleetRecovery, FleetStats, ReplicationReport, ShardRole, ShardStat, ShardedStore};
pub use hash::{hash_job_id, hash_span, shard_of, MAX_SHARDS};
pub use manifest::Manifest;
pub use rebalance::{rebalance, rebalance_with, RebalanceReport};
pub use replica::{pull_shard, DirSource, ShardPullReport, ShardSource};
pub use router::{route_batch, RoutedBatch};
