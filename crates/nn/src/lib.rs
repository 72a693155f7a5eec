//! Neural-network substrate: the paper's MLP (Table 5) and a compact TabNet.
//!
//! Two of AIIO's five performance functions are neural networks: a plain
//! multilayer perceptron with batch normalisation and dropout, and TabNet —
//! a deep tabular model whose sequential-attention masks select features per
//! decision step. Mature Rust bindings for either do not exist, so this
//! crate implements both from scratch:
//!
//! * [`layers`] — dense / ReLU / batch-norm / dropout layers with explicit
//!   training forward/backward passes and an `&self` inference pass over
//!   batch-major [`Matrix`](aiio_linalg::Matrix)es;
//! * [`adam`] — the Adam optimiser;
//! * [`error`] — typed [`DimensionError`]s for config validation and
//!   layer wiring, so a misconfigured model family fails its fit instead
//!   of panicking the zoo;
//! * [`mlp`] — the paper's Table 5 architecture (hidden sizes 90, 89, 69,
//!   49, 29, 9 with BN + dropout), MSE loss, minibatch training and
//!   early stopping;
//! * [`tabnet`] — a TabNet-style regressor: per-step attentive masks via
//!   exact [sparsemax](aiio_linalg::func::sparsemax) with relaxation priors,
//!   feature transformers, and an aggregated decision output, all with
//!   hand-derived gradients (verified against finite differences in the
//!   test suite).

pub mod adam;
pub mod error;
pub mod layers;
pub mod mlp;
pub mod tabnet;

pub use adam::Adam;
pub use error::DimensionError;
pub use mlp::{Mlp, MlpConfig};
pub use tabnet::{TabNet, TabNetConfig};

/// Epoch-level fit record shared by both trainers.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpochRecord {
    pub epoch: usize,
    pub train_rmse: f64,
    pub valid_rmse: Option<f64>,
}
