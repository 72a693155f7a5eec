//! Small dense linear-algebra substrate for the AIIO reproduction.
//!
//! The neural-network, SHAP, and clustering crates need a handful of dense
//! operations: row-major matrices with a matmul, symmetric
//! positive-definite solvers for (weighted, ridge-regularised) least squares,
//! activation functions including an exact [`func::sparsemax`], and the usual
//! summary statistics. Rather than pull in a full BLAS binding, this crate
//! implements exactly that surface in safe, sequential Rust; callers
//! parallelise above it with the deterministic `aiio-par` engine.
//!
//! Everything is `f64`: the matrices involved are small (thousands of rows,
//! tens of columns), so memory traffic is not the bottleneck and the extra
//! precision keeps the SHAP regression and Cholesky factorisations stable.

pub mod func;
pub mod matrix;
pub mod solve;
pub mod stats;

pub use matrix::Matrix;
pub use solve::{cholesky_solve, ridge_regression, weighted_least_squares, SolveError};
