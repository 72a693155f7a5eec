//! Kernel SHAP (Lundberg & Lee, 2017) — the paper's "SHAP Kernel
//! Explainer", model-agnostic and sparsity-aware.
//!
//! Coalitions of *active* features (value ≠ background) are evaluated
//! through the model with masked-out features set to the background; a
//! weighted least squares with the Shapley kernel recovers the
//! attributions. The sum constraint `Σφ = f(x) − f(background)` is enforced
//! by variable elimination, so local accuracy holds by construction.
//! Features equal to the background never enter the regression and receive
//! exactly zero attribution — the paper's robustness-to-sparsity behaviour
//! (§3.3 "Sparse Darshan log input is required for diagnosis functions").

use crate::{Attribution, Predictor};
use aiio_linalg::{weighted_least_squares, Matrix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Kernel SHAP configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelShapConfig {
    /// Maximum model evaluations (coalitions). When all `2^k - 2` proper
    /// coalitions fit, the result is exact.
    pub max_evals: usize,
    /// RNG seed for coalition sampling.
    pub seed: u64,
}

impl Default for KernelShapConfig {
    fn default() -> Self {
        Self {
            max_evals: 2048,
            seed: 0,
        }
    }
}

/// The Shapley kernel weight for a coalition of size `s` out of `k`.
fn shapley_kernel(k: usize, s: usize) -> f64 {
    debug_assert!(s >= 1 && s < k);
    let binom = binomial(k, s);
    (k as f64 - 1.0) / (binom * s as f64 * (k - s) as f64)
}

fn binomial(n: usize, r: usize) -> f64 {
    let r = r.min(n - r);
    let mut v = 1.0;
    for i in 0..r {
        v = v * (n - i) as f64 / (i + 1) as f64;
    }
    v
}

/// The attributions of the `k` active features from the coalition values
/// `fvals` (one per mask), by a weighted least squares with the sum
/// constraint `Σφ = fx − expected` enforced through eliminating the last
/// variable:
///   `y_S - z_last (fx - f0)  =  Σ_{j<k-1} φ_j (z_j - z_last)`.
fn constrained_wls(
    k: usize,
    masks: &[usize],
    weights: &[f64],
    fvals: &[f64],
    fx: f64,
    expected: f64,
) -> Vec<f64> {
    let delta = fx - expected;
    let p = k - 1;
    let mut design = Matrix::zeros(masks.len(), p);
    let mut target = vec![0.0; masks.len()];
    for (r, &mask) in masks.iter().enumerate() {
        let z_last = (mask >> (k - 1) & 1) as f64;
        for j in 0..p {
            let z_j = (mask >> j & 1) as f64;
            design[(r, j)] = z_j - z_last;
        }
        target[r] = (fvals[r] - expected) - z_last * delta;
    }
    let mut phi_active =
        weighted_least_squares(&design, &target, weights, 0.0).unwrap_or_else(|_| vec![0.0; p]);
    let last = delta - phi_active.iter().sum::<f64>();
    phi_active.push(last);
    phi_active
}

/// Kernel SHAP explainer.
///
/// ```
/// use aiio_explain::kernel::KernelShap;
/// use aiio_explain::FnPredictor;
/// let f = FnPredictor(|x: &[f64]| 3.0 * x[0] - 2.0 * x[1]);
/// let attr = KernelShap::default().explain(&f, &[1.0, 1.0, 0.0], &[0.0; 3]);
/// assert!((attr.values[0] - 3.0).abs() < 1e-9);
/// assert!((attr.values[1] + 2.0).abs() < 1e-9);
/// assert_eq!(attr.values[2], 0.0); // zero input, zero attribution
/// ```
#[derive(Debug, Clone, Default)]
pub struct KernelShap {
    config: KernelShapConfig,
}

impl KernelShap {
    pub fn new(config: KernelShapConfig) -> Self {
        Self { config }
    }

    /// Explain `model` at `x` against `background`.
    ///
    /// # Panics
    /// Panics if `usize::BITS` or more features are active (a coalition is
    /// a `usize` bit mask over them).
    pub fn explain(&self, model: &dyn Predictor, x: &[f64], background: &[f64]) -> Attribution {
        self.explain_with_baseline(model, x, background, model.predict_one(background))
    }

    /// [`Self::explain`] with the baseline `f(background)` supplied by the
    /// caller — the hook for per-model background caches: the background
    /// prediction is the one model evaluation repeated diagnoses share, so
    /// callers that explain many jobs against one background compute it
    /// once. `expected` must equal `model.predict_one(background)`.
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
        let fx = model.predict_one(x);
        if k == 1 {
            values[active[0]] = fx - expected;
            return Attribution { values, expected };
        }

        // Collect coalitions (as bitmasks over the active set) and weights,
        // then evaluate each distinct coalition once (bit-identical at any
        // thread count; see `Predictor::predict_coalitions`).
        let (masks, weights) = self.coalitions(k);
        let fvals = crate::predict_distinct_coalitions(model, x, background, &active, &masks);
        let phi_active = constrained_wls(k, &masks, &weights, &fvals, fx, expected);
        for (bit, &feat) in active.iter().enumerate() {
            values[feat] = phi_active[bit];
        }
        Attribution { values, expected }
    }

    /// Choose coalitions: full enumeration when it fits the budget,
    /// otherwise paired sampling with level-weighted sizes.
    fn coalitions(&self, k: usize) -> (Vec<usize>, Vec<f64>) {
        let full = (1usize << k) - 2; // proper nonempty subsets
        if full <= self.config.max_evals {
            let masks: Vec<usize> = (1..(1usize << k) - 1).collect();
            let weights = masks
                .iter()
                .map(|m| shapley_kernel(k, (*m as u32).count_ones() as usize))
                .collect();
            return (masks, weights);
        }
        let mut masks = Vec::with_capacity(self.config.max_evals);
        let mut weights = Vec::with_capacity(self.config.max_evals);
        // Always include every singleton and every (k-1)-coalition — the
        // highest-weight levels.
        for bit in 0..k {
            let m = 1usize << bit;
            masks.push(m);
            weights.push(shapley_kernel(k, 1));
            let inv = ((1usize << k) - 1) ^ m;
            masks.push(inv);
            weights.push(shapley_kernel(k, k - 1));
        }
        // Sample the rest in complement pairs; each sampled coalition
        // carries its kernel weight (duplicates simply add weight).
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        // Level distribution ∝ kernel weight × level size.
        let level_mass: Vec<f64> = (2..=k.saturating_sub(2))
            .map(|s| shapley_kernel(k, s) * binomial(k, s))
            .collect();
        let total_mass: f64 = level_mass.iter().sum();
        if total_mass <= 0.0 {
            return (masks, weights);
        }
        while masks.len() + 2 <= self.config.max_evals {
            // Draw a size.
            let mut pick = rng.gen_range(0.0..total_mass);
            let mut s = 2;
            for (i, m) in level_mass.iter().enumerate() {
                if pick < *m {
                    s = i + 2;
                    break;
                }
                pick -= m;
            }
            // Draw a random coalition of size s.
            let mut bits: Vec<usize> = (0..k).collect();
            for i in 0..s {
                let j = rng.gen_range(i..k);
                bits.swap(i, j);
            }
            let mask: usize = bits[..s].iter().map(|b| 1usize << b).sum();
            let w = shapley_kernel(k, s);
            masks.push(mask);
            weights.push(w);
            let inv = ((1usize << k) - 1) ^ mask;
            masks.push(inv);
            weights.push(shapley_kernel(k, k - s));
        }
        (masks, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::FnPredictor;

    fn close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} !~ {b:?}");
        }
    }

    #[test]
    fn matches_exact_for_full_enumeration() {
        let f = FnPredictor(|x: &[f64]| x[0] * x[1] + 2.0 * x[2] - x[3] * x[3]);
        let x = [1.0, 2.0, 3.0, 0.5];
        let bg = [0.0; 4];
        let ks = KernelShap::new(KernelShapConfig::default());
        let got = ks.explain(&f, &x, &bg);
        let want = exact_shapley(&f, &x, &bg);
        close(&got.values, &want.values, 1e-8);
        assert!((got.expected - want.expected).abs() < 1e-10);
    }

    #[test]
    fn zero_background_features_get_zero() {
        let f = FnPredictor(|x: &[f64]| x.iter().sum::<f64>());
        let x = [1.0, 0.0, 2.0, 0.0];
        let got = KernelShap::default().explain(&f, &x, &[0.0; 4]);
        assert_eq!(got.values[1], 0.0);
        assert_eq!(got.values[3], 0.0);
        assert!((got.values[0] - 1.0).abs() < 1e-9);
        assert!((got.values[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn local_accuracy_always_holds() {
        let f = FnPredictor(|x: &[f64]| (x[0] - x[1]).powi(2) + x[2].exp());
        let x = [0.7, -0.3, 0.4];
        let got = KernelShap::default().explain(&f, &x, &[0.0; 3]);
        assert!((got.reconstructed() - f.predict_one(&x)).abs() < 1e-9);
    }

    #[test]
    fn single_active_feature_gets_full_delta() {
        let f = FnPredictor(|x: &[f64]| 5.0 + 2.0 * x[1]);
        let got = KernelShap::default().explain(&f, &[0.0, 3.0], &[0.0, 0.0]);
        assert!((got.values[1] - 6.0).abs() < 1e-12);
        assert_eq!(got.values[0], 0.0);
        assert!((got.expected - 5.0).abs() < 1e-12);
    }

    #[test]
    fn no_active_features_yields_all_zero() {
        let f = FnPredictor(|x: &[f64]| x[0] + 1.0);
        let got = KernelShap::default().explain(&f, &[0.0], &[0.0]);
        assert_eq!(got.values, vec![0.0]);
    }

    #[test]
    fn sampling_mode_approximates_exact() {
        // 14 active features: 2^14-2 = 16382 coalitions > budget of 600.
        let f = FnPredictor(|x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (i as f64 + 1.0) * v)
                .sum::<f64>()
                + x[0] * x[1]
                + x[2] * x[3]
        });
        let x: Vec<f64> = (0..14).map(|i| 1.0 + 0.1 * i as f64).collect();
        let bg = vec![0.0; 14];
        let got = KernelShap::new(KernelShapConfig {
            max_evals: 600,
            seed: 3,
        })
        .explain(&f, &x, &bg);
        let want = exact_shapley(&f, &x, &bg);
        // Loose tolerance: it's a sampled estimate.
        let scale = want.values.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for (g, w) in got.values.iter().zip(&want.values) {
            assert!((g - w).abs() < 0.15 * scale, "got {g} want {w}");
        }
        // Local accuracy still exact thanks to the constraint.
        assert!((got.reconstructed() - f.predict_one(&x)).abs() < 1e-9);
    }

    #[test]
    fn each_distinct_coalition_is_evaluated_once_with_every_mask_bits() {
        use crate::tests::{distinct, Counting};
        // 14 active features and a 600-evaluation budget: sampled, with
        // repeats; 5 features: full enumeration, no repeats.
        for (k, max_evals, seed) in [(14, 600, 3), (14, 600, 4), (5, 2048, 0)] {
            let x: Vec<f64> = (0..k).map(|i| 0.3 + 0.2 * i as f64).collect();
            let bg = vec![0.0; k];
            let ks = KernelShap::new(KernelShapConfig { max_evals, seed });
            let model = Counting::default();
            let got = ks.explain(&model, &x, &bg);

            let (masks, weights) = ks.coalitions(k);
            let once = distinct(&masks);
            assert_eq!(model.seen(), once, "each distinct mask exactly once");
            if k == 14 {
                assert!(once.len() < masks.len(), "the sample should repeat masks");
            }
            // The same WLS over every mask's own evaluation.
            let active: Vec<usize> = (0..k).collect();
            let fvals = model.predict_coalitions(&x, &bg, &active, &masks);
            let fx = model.predict_one(&x);
            let want = constrained_wls(k, &masks, &weights, &fvals, fx, got.expected);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.values), bits(&want));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let f = FnPredictor(|x: &[f64]| x.iter().product::<f64>());
        let x: Vec<f64> = (0..13).map(|i| 1.0 + i as f64 * 0.01).collect();
        let bg = vec![0.0; 13];
        let cfg = KernelShapConfig {
            max_evals: 300,
            seed: 9,
        };
        let a = KernelShap::new(cfg.clone()).explain(&f, &x, &bg);
        let b = KernelShap::new(cfg).explain(&f, &x, &bg);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "64 active features")]
    fn too_many_active_features_for_a_mask_panic() {
        let f = FnPredictor(|x: &[f64]| x.iter().sum());
        KernelShap::default().explain(&f, &[1.0; 64], &[0.0; 64]);
    }

    #[test]
    fn kernel_weights_are_symmetric_and_positive() {
        for k in 2..10 {
            for s in 1..k {
                let w = shapley_kernel(k, s);
                assert!(w > 0.0);
                assert!((w - shapley_kernel(k, k - s)).abs() < 1e-12);
            }
        }
    }
}
