//! Model-interpretation substrate: Shapley-value attribution and LIME.
//!
//! AIIO's diagnosis function (paper §3.3) is SHAP run on each performance
//! model: the contribution `C_j` of counter `j` to the predicted
//! performance of one job, computed against a **zero background** so that
//! counters that are zero in the job's log receive exactly zero
//! contribution — the paper's robustness property. This crate provides:
//!
//! * [`booster`] — the [`Predictor`] for `aiio-gbdt` boosters, which
//!   answers Kernel SHAP and LIME coalitions straight from their bit masks;
//! * [`exact`] — exact Shapley values by subset enumeration (the test
//!   oracle; exponential, fine for ≤ 20 active features);
//! * [`kernel`] — Kernel SHAP (Lundberg & Lee, 2017): coalition sampling
//!   with Shapley-kernel weights and a constrained weighted least squares,
//!   exactly the paper's "SHAP Kernel Explainer" including the sparse-input
//!   handling;
//! * [`tree`] — path-dependent TreeSHAP for `aiio-gbdt` ensembles
//!   (polynomial-time, used for ablations and cross-checks);
//! * [`lime`] — LIME (Ribeiro et al., 2016): local perturbation plus
//!   distance-weighted ridge regression;
//! * [`plan`] — the coalition plan both of those build, once per point
//!   for every model explained there;
//! * [`metrics`] — the paper's Eq. 5 "RMSE for SHAP" diagnosis-quality
//!   metric and local-accuracy checks;
//! * [`global`] — PDP (the "traditional method" the paper contrasts SHAP
//!   against) and permutation importance.
//!
//! All explainers return an [`Attribution`]: per-feature contributions plus
//! the expected (background) prediction, satisfying
//! `expected + Σ values ≈ f(x)` (local accuracy).

pub mod booster;
pub mod exact;
pub mod global;
pub mod kernel;
pub mod lime;
pub mod metrics;
pub mod plan;
pub mod tree;

use serde::{Deserialize, Serialize};

/// The sparsity mask of the paper's robustness guarantee (§3.3): indices
/// whose value differs from the background.
///
/// Every attribution-producing function must restrict its work to this
/// set so that counters absent from a job's log — zero in the input and
/// zero in the background — provably receive exactly zero attribution.
/// This is the single routing point the `xtask` sparsity-guarantee lint
/// (`AIIO-S001`) checks for.
///
/// The comparison is intentionally exact: "absent" in a Darshan log means
/// the counter is exactly the background value, not merely close to it.
pub fn sparsity_mask(x: &[f64], background: &[f64]) -> Vec<usize> {
    assert_eq!(x.len(), background.len(), "x/background length mismatch");
    // xtask-allow: AIIO-F001 — exact background equality defines the mask
    (0..x.len()).filter(|&i| x[i] != background[i]).collect()
}

/// A model that can be explained: batch prediction over raw feature rows.
///
/// Contract: a row's prediction depends only on that row — not on the
/// batch it arrives in, its position there, or the other rows. The
/// explainers rely on it twice: batches are split over threads at any
/// boundary, and each distinct coalition is evaluated once, in mask
/// order, with its value reused wherever the coalition repeats (see
/// [`plan`]). `aiio-nn`'s `tests/inference.rs` and [`booster`]'s tests
/// check it for the workspace's models.
pub trait Predictor: Sync {
    /// Predict a batch of rows.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64>;

    /// Predict a single row.
    fn predict_one(&self, row: &[f64]) -> f64 {
        self.predict_batch(std::slice::from_ref(&row.to_vec()))[0]
    }

    /// Predict one coalition per mask. Coalition `mask` is the row that
    /// takes `x[active[b]]` wherever bit `b` of `mask` is set and
    /// `background` everywhere else; `active` lists distinct feature
    /// indices, at most `usize::BITS` of them.
    ///
    /// The default is [`predict_coalition_rows`]. Models that can answer
    /// straight from the masks (`aiio_gbdt::Booster`, see [`booster`])
    /// override it and must return the same bits.
    fn predict_coalitions(
        &self,
        x: &[f64],
        background: &[f64],
        active: &[usize],
        masks: &[usize],
    ) -> Vec<f64> {
        predict_coalition_rows(self, x, background, active, masks)
    }
}

/// [`Predictor::predict_coalitions`] by building every coalition row and
/// predicting the rows over the stable [`aiio_par::map_chunks`] partition.
/// Predictions are per-row, so the result is bit-identical at any thread
/// count.
pub fn predict_coalition_rows<P: Predictor + ?Sized>(
    model: &P,
    x: &[f64],
    background: &[f64],
    active: &[usize],
    masks: &[usize],
) -> Vec<f64> {
    let rows: Vec<Vec<f64>> = masks
        .iter()
        .map(|&mask| {
            let mut row = background.to_vec();
            for (bit, &feat) in active.iter().enumerate() {
                if mask >> bit & 1 == 1 {
                    row[feat] = x[feat];
                }
            }
            row
        })
        .collect();
    aiio_par::map_chunks(&rows, |chunk| model.predict_batch(chunk))
}

/// Wrap a plain function as a [`Predictor`].
pub struct FnPredictor<F: Fn(&[f64]) -> f64 + Sync>(pub F);

impl<F: Fn(&[f64]) -> f64 + Sync> Predictor for FnPredictor<F> {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| (self.0)(r)).collect()
    }
}

/// Per-feature attribution of one prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// Contribution of each feature (aligned with the input row).
    pub values: Vec<f64>,
    /// Expected model output over the background (`φ0`).
    pub expected: f64,
}

impl Attribution {
    /// `expected + Σ values` — should equal the model output at the
    /// explained point (local accuracy).
    pub fn reconstructed(&self) -> f64 {
        self.expected + self.values.iter().sum::<f64>()
    }

    /// Indices sorted by most-negative contribution first (the paper's
    /// bottleneck ranking).
    pub fn most_negative_first(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&a, &b| self.values[a].total_cmp(&self.values[b]));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A nonlinear model that records every coalition mask it evaluates.
    #[derive(Default)]
    pub(crate) struct Counting {
        pub(crate) seen: Mutex<Vec<usize>>,
    }

    impl Counting {
        fn f(x: &[f64]) -> f64 {
            x.iter()
                .enumerate()
                .map(|(i, v)| (i as f64 + 1.0) * v.sin())
                .sum::<f64>()
                + x[0] * x[1]
                - x[2] * x[3] * x[4]
        }

        /// The recorded masks, in evaluation order.
        pub(crate) fn seen(&self) -> Vec<usize> {
            self.seen.lock().map(|s| s.clone()).unwrap_or_default()
        }
    }

    impl Predictor for Counting {
        fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
            rows.iter().map(|r| Self::f(r)).collect()
        }

        fn predict_coalitions(
            &self,
            x: &[f64],
            background: &[f64],
            active: &[usize],
            masks: &[usize],
        ) -> Vec<f64> {
            if let Ok(mut seen) = self.seen.lock() {
                seen.extend_from_slice(masks);
            }
            predict_coalition_rows(self, x, background, active, masks)
        }
    }

    /// `masks` sorted and deduplicated.
    pub(crate) fn distinct(masks: &[usize]) -> Vec<usize> {
        let mut d = masks.to_vec();
        d.sort_unstable();
        d.dedup();
        d
    }

    #[test]
    fn fn_predictor_wraps_closures() {
        let p = FnPredictor(|x: &[f64]| x[0] * 2.0);
        assert_eq!(p.predict_one(&[3.0]), 6.0);
        assert_eq!(p.predict_batch(&[vec![1.0], vec![2.0]]), vec![2.0, 4.0]);
    }

    #[test]
    fn attribution_orderings() {
        let a = Attribution {
            values: vec![0.5, -2.0, 1.0, -0.1],
            expected: 3.0,
        };
        assert_eq!(a.most_negative_first(), vec![1, 3, 0, 2]);
        assert!((a.reconstructed() - 2.4).abs() < 1e-12);
    }
}
