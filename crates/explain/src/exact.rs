//! Exact Shapley values by subset enumeration.
//!
//! For a point `x` and background `b`, feature `j`'s Shapley value is
//!
//! ```text
//! φ_j = Σ_{S ⊆ A\{j}}  |S|! (|A| - |S| - 1)! / |A|!  ·  (f(x_{S∪{j}}) - f(x_S))
//! ```
//!
//! where `A` is the set of *active* features (those whose value differs from
//! the background) and `x_S` replaces every feature outside `S` with its
//! background value. Inactive features provably have zero Shapley value
//! (replacing them changes nothing), which is exactly the paper's
//! sparsity-robustness property — enumerating only `A` makes that explicit
//! and keeps the cost at `2^|A|`.
//!
//! Exponential — use as a test oracle and for small jobs.

use crate::{Attribution, Predictor};

/// Hard cap on active features (2^24 evaluations is already unreasonable).
pub const MAX_ACTIVE: usize = 24;

/// Compute exact Shapley values of `model` at `x` against `background`.
///
/// # Panics
/// Panics if `x` and `background` differ in length or more than
/// [`MAX_ACTIVE`] features are active.
pub fn exact_shapley(model: &dyn Predictor, x: &[f64], background: &[f64]) -> Attribution {
    let active = crate::sparsity_mask(x, background);
    let k = active.len();
    assert!(k <= MAX_ACTIVE, "{k} active features exceed MAX_ACTIVE");

    let mut values = vec![0.0; x.len()];
    if k == 0 {
        return Attribution {
            values,
            expected: model.predict_one(background),
        };
    }

    // Evaluate the model at every masked point.
    let n_subsets = 1usize << k;
    let masks: Vec<usize> = (0..n_subsets).collect();
    let fvals = model.predict_coalitions(x, background, &active, &masks);

    // Precompute factorial weights w(s) = s! (k - s - 1)! / k!.
    let ln_fact: Vec<f64> = {
        let mut v = vec![0.0; k + 1];
        for i in 1..=k {
            v[i] = v[i - 1] + (i as f64).ln();
        }
        v
    };
    let weight = |s: usize| -> f64 { (ln_fact[s] + ln_fact[k - s - 1] - ln_fact[k]).exp() };

    for (bit, &feat) in active.iter().enumerate() {
        let j_mask = 1usize << bit;
        let mut phi = 0.0;
        for mask in 0..n_subsets {
            if mask & j_mask != 0 {
                continue;
            }
            let s = (mask as u32).count_ones() as usize;
            phi += weight(s) * (fvals[mask | j_mask] - fvals[mask]);
        }
        values[feat] = phi;
    }

    Attribution {
        values,
        expected: fvals[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnPredictor;

    #[test]
    fn linear_model_attributions_are_coefficients_times_deviation() {
        // f(x) = 3 x0 - 2 x1 + x2; background 0.
        let f = FnPredictor(|x: &[f64]| 3.0 * x[0] - 2.0 * x[1] + x[2]);
        let x = [1.0, 2.0, -1.0];
        let a = exact_shapley(&f, &x, &[0.0; 3]);
        assert!((a.values[0] - 3.0).abs() < 1e-12);
        assert!((a.values[1] + 4.0).abs() < 1e-12);
        assert!((a.values[2] + 1.0).abs() < 1e-12);
        assert!((a.expected - 0.0).abs() < 1e-12);
    }

    #[test]
    fn local_accuracy_on_a_nonlinear_model() {
        let f = FnPredictor(|x: &[f64]| x[0] * x[1] + x[2].powi(2) + 0.5);
        let x = [2.0, 3.0, 1.5];
        let a = exact_shapley(&f, &x, &[0.0; 3]);
        assert!((a.reconstructed() - f.predict_one(&x)).abs() < 1e-10);
    }

    #[test]
    fn interaction_split_evenly_by_symmetry() {
        // f = x0 * x1 with x = (1, 1): both features contribute 0.5.
        let f = FnPredictor(|x: &[f64]| x[0] * x[1]);
        let a = exact_shapley(&f, &[1.0, 1.0], &[0.0, 0.0]);
        assert!((a.values[0] - 0.5).abs() < 1e-12);
        assert!((a.values[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inactive_features_get_exactly_zero() {
        // x2 equals the background, so it must have zero attribution even
        // though the model uses it.
        let f = FnPredictor(|x: &[f64]| x[0] + 10.0 * x[2]);
        let x = [1.0, 5.0, 7.0];
        let bg = [0.0, 0.0, 7.0];
        let a = exact_shapley(&f, &x, &bg);
        assert_eq!(a.values[2], 0.0);
        assert!((a.values[0] - 1.0).abs() < 1e-12);
        assert_eq!(a.values[1], 0.0); // model ignores x1
        assert!((a.expected - 70.0).abs() < 1e-12);
    }

    #[test]
    fn dummy_feature_axiom() {
        // A feature the model ignores gets zero even when active.
        let f = FnPredictor(|x: &[f64]| x[0].powi(2));
        let a = exact_shapley(&f, &[2.0, 9.0], &[0.0, 0.0]);
        assert_eq!(a.values[1], 0.0);
        assert!((a.values[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn all_background_point_has_no_attribution() {
        let f = FnPredictor(|x: &[f64]| x[0] + x[1] + 42.0);
        let a = exact_shapley(&f, &[0.0, 0.0], &[0.0, 0.0]);
        assert!(a.values.iter().all(|&v| v == 0.0));
        assert!((a.expected - 42.0).abs() < 1e-12);
    }
}
