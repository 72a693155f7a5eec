//! `aiio-store`: a crash-safe, append-only, columnar job-log store.
//!
//! The paper's pipeline is fed by an 825 GB / 6.6 M-job Darshan database
//! (PAPER.md §3.1); a `Vec<JobLog>` round-tripped through JSON cannot play
//! that role. This crate is the storage layer that can: logs stream in
//! through a checksummed WAL ([`wal`], a [`frames`] log — the one
//! CRC-framed append-only format, which the sharded fleet's ordinal
//! journal shares), accumulate into immutable columnar
//! segments ([`segment`]) — one fixed-width column per Table-4 counter
//! ([`schema`]), so reads are zero-parse and bit-exact — and stream back
//! out in bounded memory, optionally skipping segments via per-column
//! min/max zone maps ([`store`]).
//!
//! Durability contract: every publish is a staging-file write + atomic
//! rename + parent-directory fsync ([`durable_replace`]), recovery truncates the WAL at the first bad checksum and
//! quarantines damaged segments, and what was dropped is reported in a
//! [`RecoveryReport`] instead of silently vanishing. `Store` implements
//! `darshan::StoreBackend`, so `FeaturePipeline` dataset construction —
//! and therefore model-zoo training — runs out-of-core straight from disk,
//! byte-identical to the in-memory path.

pub mod cache;
mod codec;
mod durable;
pub mod error;
pub mod frames;
pub mod scan;
pub mod schema;
pub mod segment;
pub mod store;
pub mod wal;

pub use cache::{CacheStats, SegmentCache};
pub use codec::crc32;
pub use durable::durable_replace;
pub use error::{Result, StoreError};
pub use scan::StoreReadView;
pub use segment::{SegmentMeta, ZoneEntry};
pub use store::{
    validate_batch, CompactReport, CompactionTrigger, CounterRange, RangeError, RecoveryReport,
    ScanSummary, Store, StoreConfig, StoreStats,
};
