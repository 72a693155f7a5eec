//! One coalition plan per explained point, shared by every model: the
//! active features, the sampled masks, their distinct set and the
//! surrogate's factored normal equations depend only on the explainer,
//! `x` and the background. A diagnosis builds one per job, so each model
//! of its zoo pays only its predictions, `XᵀWy` and two triangular solves.

use crate::{Attribution, Predictor};
use aiio_linalg::WlsFactor;

/// The model-independent half of Kernel SHAP or LIME at one point, built
/// by `KernelShap::plan` or `Lime::plan`.
#[derive(Debug)]
pub struct CoalitionPlan<'a> {
    x: &'a [f64],
    background: &'a [f64],
    /// `sparsity_mask(x, background)`: bit `b` of a mask switches `active[b]`.
    active: Vec<usize>,
    surrogate: Surrogate,
    /// The sampled masks sorted and deduplicated: each is predicted once.
    distinct: Vec<usize>,
    /// Sampled mask `r`, repeats included, is `distinct[scatter[r]]`; it
    /// is row `r` of the surrogate.
    scatter: Vec<usize>,
    /// The surrogate's weighted normal equations over the masks, factored;
    /// `None` if they could not be, and the attributions are then zero.
    factor: Option<WlsFactor>,
}

/// How a plan turns a model's coalition values into attributions.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Surrogate {
    /// Kernel SHAP's weighted least squares, whose sum constraint
    /// eliminates the last active feature (see `KernelShap::plan`).
    KernelShap,
    /// LIME's weighted ridge, intercept first (see `Lime::plan`).
    Lime,
}

impl<'a> CoalitionPlan<'a> {
    /// Plan at `x` against `background`: `sample(k)` draws the masks over
    /// the `k ≥ 1` active features and factors the surrogate over them.
    /// Panics at `usize::BITS` or more active features: the explainers form
    /// `1 << k` and the all-on mask, so `k` must leave one bit spare.
    pub(crate) fn new(
        x: &'a [f64],
        background: &'a [f64],
        surrogate: Surrogate,
        sample: impl FnOnce(usize) -> (Vec<usize>, Option<WlsFactor>),
    ) -> Self {
        let active = crate::sparsity_mask(x, background);
        let k = active.len();
        assert!(
            k < usize::BITS as usize,
            "{k} active features: coalition masks are usize bit sets, so at most {} fit",
            usize::BITS - 1
        );
        let (masks, factor) = if k > 0 { sample(k) } else { Default::default() };
        let mut distinct = masks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let scatter = masks.iter().map(|m| distinct.partition_point(|d| d < m));
        let scatter = scatter.collect();
        Self {
            x,
            background,
            active,
            surrogate,
            distinct,
            scatter,
            factor,
        }
    }

    /// Explain `model` at the planned point, with the same bits as the
    /// explainer's own `explain_with_baseline`. `expected` must equal
    /// `model.predict_one(background)`.
    pub fn explain(&self, model: &dyn Predictor, expected: f64) -> Attribution {
        debug_assert_eq!(self.active, crate::sparsity_mask(self.x, self.background));
        let k = self.active.len();
        // `(mask, f(mask))` for every sampled mask, each distinct one predicted
        // once: by the `Predictor` contract, the bits of predicting all.
        let at_masks = || {
            let f = model.predict_coalitions(self.x, self.background, &self.active, &self.distinct);
            self.scatter.iter().map(move |&i| (self.distinct[i], f[i]))
        };
        let coefficients = match self.surrogate {
            _ if k == 0 => Vec::new(),
            // The sum constraint leaves a lone feature all of f(x) − f0.
            Surrogate::KernelShap if k == 1 => vec![model.predict_one(self.x) - expected],
            Surrogate::KernelShap => {
                let delta = model.predict_one(self.x) - expected;
                let target: Vec<f64> = at_masks()
                    .map(|(mask, f)| (f - expected) - (mask >> (k - 1) & 1) as f64 * delta)
                    .collect();
                let mut phi = self.solve(&target, k - 1);
                phi.push(delta - phi.iter().sum::<f64>());
                phi
            }
            // LIME's natural "expected" is its intercept; the model's
            // background prediction is kept for comparability with SHAP.
            Surrogate::Lime => self
                .solve(&at_masks().map(|(_, f)| f).collect::<Vec<_>>(), k + 1)
                .split_off(1),
        };
        let mut values = vec![0.0; self.x.len()];
        for (&feat, v) in self.active.iter().zip(coefficients) {
            values[feat] = v;
        }
        Attribution { values, expected }
    }

    /// The surrogate's `p` coefficients for `target` (one per mask), or
    /// `p` zeros if its normal equations could not be factored.
    fn solve(&self, target: &[f64], p: usize) -> Vec<f64> {
        let beta = self.factor.as_ref().and_then(|f| f.solve(target).ok());
        beta.unwrap_or_else(|| vec![0.0; p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelShap, KernelShapConfig};
    use crate::lime::{Lime, LimeConfig};
    use crate::tests::Counting;
    use crate::FnPredictor;

    fn bits(a: &Attribution) -> (Vec<u64>, u64) {
        let values = a.values.iter().map(|v| v.to_bits()).collect();
        (values, a.expected.to_bits())
    }

    /// Three models that disagree, so a plan that leaked one model's
    /// values into another's explanation would show.
    fn models() -> Vec<Box<dyn Predictor>> {
        vec![
            Box::new(Counting::default()),
            Box::new(FnPredictor(|x: &[f64]| {
                x.iter().enumerate().map(|(i, v)| v * v - i as f64).sum()
            })),
            Box::new(FnPredictor(|x: &[f64]| {
                x.iter().fold(1.0, |acc, v| acc * (1.0 + 0.1 * v)) + x[0]
            })),
        ]
    }

    /// `k` active features among 16, at their own nonzero values.
    fn point(k: usize) -> Vec<f64> {
        (0..16)
            .map(|i| if i < k { 0.25 + 0.3 * i as f64 } else { 0.0 })
            .collect()
    }

    #[test]
    fn one_plan_over_several_models_matches_one_explanation_per_model_bits() {
        let bg = vec![0.0; 16];
        // At a 600-evaluation budget, k = 5 is fully enumerated and k = 14
        // sampled, with repeats.
        for k in [0, 1, 2, 5, 14] {
            let x = point(k);
            let shap = KernelShap::new(KernelShapConfig {
                max_evals: 600,
                seed: 3,
            });
            let lime = Lime::new(LimeConfig {
                n_samples: 600,
                seed: 3,
                ..LimeConfig::default()
            });
            let (shap_plan, lime_plan) = (shap.plan(&x, &bg), lime.plan(&x, &bg));
            let models = models();
            // Reversed, so the plan's results cannot depend on model order.
            for model in models.iter().rev() {
                let expected = model.predict_one(&bg);
                let m = model.as_ref();
                let once = shap.explain_with_baseline(m, &x, &bg, expected);
                assert_eq!(
                    bits(&shap_plan.explain(m, expected)),
                    bits(&once),
                    "shap k={k}"
                );
                let once = lime.explain_with_baseline(m, &x, &bg, expected);
                assert_eq!(
                    bits(&lime_plan.explain(m, expected)),
                    bits(&once),
                    "lime k={k}"
                );
                assert!(
                    once.values[k..].iter().all(|&v| v == 0.0),
                    "inactive stay zero"
                );
            }
        }
    }

    #[test]
    fn distinct_masks_scatter_back_to_every_position() {
        let masks = vec![7, 0, 31, 7, 3, 0, 31, 3, 3, 16];
        let x = [0.5, 1.5, -2.0, 3.0, 0.25];
        let bg = [0.0; 5];
        let plan = CoalitionPlan::new(&x, &bg, Surrogate::Lime, |k| {
            assert_eq!(k, 5);
            (masks.clone(), None)
        });
        assert_eq!(plan.distinct, vec![0, 3, 7, 16, 31]);
        let back: Vec<usize> = plan.scatter.iter().map(|&i| plan.distinct[i]).collect();
        assert_eq!(back, masks);
        let model = Counting::default();
        // An unfactorable surrogate attributes nothing.
        assert_eq!(plan.explain(&model, 1.0).values, vec![0.0; 5]);
        assert_eq!(model.seen(), plan.distinct, "each distinct mask once");
    }
}
