//! LIME (Ribeiro, Singh & Guestrin, 2016) — local interpretable
//! model-agnostic explanations.
//!
//! Perturbs the explained point by switching active features on/off against
//! the background, weights the perturbations by proximity with an
//! exponential kernel, and fits a weighted ridge regression whose
//! coefficients are the explanation. AIIO supports LIME alongside SHAP as a
//! diagnosis function (§3.3) but never merges across the two because their
//! scales differ.

use crate::{Attribution, Predictor};
use aiio_linalg::{weighted_least_squares, Matrix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// LIME configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LimeConfig {
    /// Number of perturbation samples.
    pub n_samples: usize,
    /// Kernel width σ for the proximity weight `exp(-d² / σ²)`, where `d`
    /// is the fraction of switched-off active features.
    pub kernel_width: f64,
    /// Ridge regularisation of the local surrogate.
    pub ridge: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LimeConfig {
    fn default() -> Self {
        Self {
            n_samples: 1024,
            kernel_width: 0.75,
            ridge: 1e-3,
            seed: 0,
        }
    }
}

/// The LIME explainer.
#[derive(Debug, Clone, Default)]
pub struct Lime {
    config: LimeConfig,
}

impl Lime {
    pub fn new(config: LimeConfig) -> Self {
        Self { config }
    }

    /// Explain `model` at `x` against `background`. Inactive features
    /// (equal to the background) receive exactly zero.
    ///
    /// # Panics
    /// Panics if `usize::BITS` or more features are active (a perturbation
    /// is a `usize` bit mask over them).
    pub fn explain(&self, model: &dyn Predictor, x: &[f64], background: &[f64]) -> Attribution {
        self.explain_with_baseline(model, x, background, model.predict_one(background))
    }

    /// [`Self::explain`] with the baseline `f(background)` supplied by the
    /// caller (see `KernelShap::explain_with_baseline`; same caching hook).
    /// `expected` must equal `model.predict_one(background)`.
    ///
    /// # Panics
    /// As [`Self::explain`].
    pub fn explain_with_baseline(
        &self,
        model: &dyn Predictor,
        x: &[f64],
        background: &[f64],
        expected: f64,
    ) -> Attribution {
        let active = crate::sparsity_mask(x, background);
        let k = active.len();
        crate::check_coalition_width(k);
        let mut values = vec![0.0; x.len()];
        if k == 0 {
            return Attribution { values, expected };
        }

        let masks = self.masks(k);
        let fvals = crate::predict_distinct_coalitions(model, x, background, &active, &masks);
        let beta = self.surrogate(k, &masks, &fvals);
        for (j, &feat) in active.iter().enumerate() {
            values[feat] = beta[j + 1];
        }
        // LIME's natural "expected" is its intercept; we keep the model's
        // background prediction for comparability with SHAP outputs.
        Attribution { values, expected }
    }

    /// Perturbation masks over `k` active features (bit `j` = active
    /// feature `j` on): the full point, the empty point, then uniform
    /// random draws up to `n_samples`.
    fn masks(&self, k: usize) -> Vec<usize> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let n = self.config.n_samples.max(k + 2);
        let mut masks: Vec<usize> = Vec::with_capacity(n);
        masks.push(usize::MAX >> (usize::BITS as usize - k));
        masks.push(0);
        for _ in 2..n {
            masks.push((0..k).fold(0, |m, j| m | usize::from(rng.gen_bool(0.5)) << j));
        }
        masks
    }

    /// The local surrogate over the perturbations `masks` and their model
    /// values `fvals`: intercept first, then one coefficient per active
    /// feature.
    fn surrogate(&self, k: usize, masks: &[usize], fvals: &[f64]) -> Vec<f64> {
        // Proximity weights: distance = fraction of switched-off features.
        let weights: Vec<f64> = masks
            .iter()
            .map(|mask| {
                let off = (k - mask.count_ones() as usize) as f64 / k as f64;
                (-off * off / (self.config.kernel_width * self.config.kernel_width)).exp()
            })
            .collect();

        // Design: intercept + one column per active feature.
        let mut design = Matrix::zeros(masks.len(), k + 1);
        for (r, &mask) in masks.iter().enumerate() {
            design[(r, 0)] = 1.0;
            for j in 0..k {
                design[(r, j + 1)] = (mask >> j & 1) as f64;
            }
        }
        weighted_least_squares(&design, fvals, &weights, self.config.ridge)
            .unwrap_or_else(|_| vec![0.0; k + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnPredictor;

    #[test]
    fn recovers_linear_coefficients() {
        let f = FnPredictor(|x: &[f64]| 3.0 * x[0] - 2.0 * x[1] + 7.0);
        let x = [1.0, 1.0, 0.0];
        let a = Lime::default().explain(&f, &x, &[0.0; 3]);
        assert!((a.values[0] - 3.0).abs() < 0.2, "{:?}", a.values);
        assert!((a.values[1] + 2.0).abs() < 0.2, "{:?}", a.values);
        assert_eq!(a.values[2], 0.0);
    }

    #[test]
    fn inactive_features_zero() {
        let f = FnPredictor(|x: &[f64]| x.iter().sum());
        let a = Lime::default().explain(&f, &[5.0, 0.0], &[0.0, 0.0]);
        assert_eq!(a.values[1], 0.0);
        assert!(a.values[0] > 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let f = FnPredictor(|x: &[f64]| x[0] * x[1] + x[2]);
        let x = [1.0, 2.0, 3.0];
        let a = Lime::default().explain(&f, &x, &[0.0; 3]);
        let b = Lime::default().explain(&f, &x, &[0.0; 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn each_distinct_perturbation_is_evaluated_once_with_every_mask_bits() {
        use crate::tests::{distinct, Counting};
        // 5 active features: at most 32 distinct masks among 1024 samples;
        // 20 features: nearly every sample distinct.
        for k in [5, 20] {
            let x: Vec<f64> = (0..k).map(|i| 0.3 + 0.2 * i as f64).collect();
            let bg = vec![0.0; k];
            let lime = Lime::default();
            let model = Counting::default();
            let got = lime.explain(&model, &x, &bg);

            let masks = lime.masks(k);
            let once = distinct(&masks);
            assert_eq!(model.seen(), once, "each distinct mask exactly once");
            if k == 5 {
                assert_eq!(once.len(), 32);
            }
            // The same surrogate over every mask's own evaluation.
            let active: Vec<usize> = (0..k).collect();
            let fvals = model.predict_coalitions(&x, &bg, &active, &masks);
            let beta = lime.surrogate(k, &masks, &fvals);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.values), bits(&beta[1..]));
        }
    }

    #[test]
    fn sign_of_contributions_tracks_the_model() {
        // A feature that hurts the output must get a negative coefficient.
        let f = FnPredictor(|x: &[f64]| 10.0 - 4.0 * x[0] + x[1]);
        let a = Lime::default().explain(&f, &[2.0, 3.0], &[0.0, 0.0]);
        assert!(a.values[0] < 0.0);
        assert!(a.values[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "64 active features")]
    fn too_many_active_features_for_a_mask_panic() {
        let f = FnPredictor(|x: &[f64]| x.iter().sum());
        Lime::default().explain(&f, &[1.0; 64], &[0.0; 64]);
    }

    #[test]
    fn no_active_features_yields_zeros() {
        let f = FnPredictor(|x: &[f64]| x[0]);
        let a = Lime::default().explain(&f, &[0.0], &[0.0]);
        assert_eq!(a.values, vec![0.0]);
    }
}
