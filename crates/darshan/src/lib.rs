//! Darshan-style I/O log data model.
//!
//! Darshan is the de-facto standard I/O profiler on DOE supercomputers; the
//! AIIO paper trains on 6.6 M Darshan logs from NERSC's Cori machine. This
//! crate reproduces the parts of that data model the paper depends on:
//!
//! * the 46 POSIX/Lustre counters of the paper's Table 4 ([`counters`]),
//! * per-job logs with the time-related counters Darshan uses to estimate a
//!   job's I/O performance — paper Eq. 1 ([`log`]),
//! * the `log10(x+1)` feature engineering of paper Eq. 2, missing-counter
//!   fill, and the sparsity metric of §3.1 ([`features`]),
//! * a log database with persistence, per-year summaries (Table 1), and
//!   seeded train/validation splitting ([`database`]).
//!
//! Real Darshan binary logs are not parsed here — the upstream of this crate
//! is the `aiio-iosim` simulator, which plays the role of the instrumented
//! machine (see DESIGN.md's substitution table).

pub mod counters;
pub mod database;
pub mod features;
pub mod log;
pub mod parser;

pub use counters::{CounterCategory, CounterId, N_COUNTERS};
pub use database::{LogDatabase, SplitIndices, StoreBackend, YearSummary};
pub use features::{Dataset, FeaturePipeline};
pub use log::{CounterSet, InvalidJobLog, JobLog, TimeCounters};
pub use parser::{parse_text, to_total_text, ParseError};
