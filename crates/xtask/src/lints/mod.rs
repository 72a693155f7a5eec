//! The six invariant passes. Each module owns one rule family; rule IDs
//! are listed in the crate-level docs.

pub mod concurrency;
pub mod counter_schema;
pub mod determinism;
pub mod float_safety;
pub mod panic_hygiene;
pub mod sparsity;
