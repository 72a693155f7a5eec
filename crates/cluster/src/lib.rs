//! Clustering substrate for the group-level I/O analysis baseline.
//!
//! The paper's Fig. 1 critiques Gauge (Del Rosario et al., 2020), which
//! clusters jobs with HDBSCAN and diagnoses each *cluster*. Reproducing
//! that figure requires the baseline itself, so this crate implements
//! [`hdbscan`] — hierarchical density-based clustering: core distances,
//! mutual-reachability minimum spanning tree, condensed tree, and
//! excess-of-mass cluster extraction.

pub mod hdbscan;

pub use hdbscan::{Hdbscan, HdbscanConfig, NOISE};
