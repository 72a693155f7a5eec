//! [`Predictor`] for `aiio-gbdt` boosters, with mask-native coalition
//! evaluation.
//!
//! Every coalition row the explainers ask for is "`x` where the mask bit
//! is set, background elsewhere". At a split on feature `f` both rows can
//! only disagree when `f` is active and `x[f]` and `background[f]` fall on
//! different sides of the threshold. So [`Predictor::predict_coalitions`]
//! first compiles the early-stopped trees against `(x, background,
//! active)`: every other split collapses to the child both rows take, and
//! the rest become a two-way branch on one mask bit. Many trees collapse
//! to a single leaf. Each mask then adds one leaf per tree to the base
//! score, in tree order: the same float additions, in the same order, as
//! `Booster::predict` on the built row, so the result is bit-identical.

use crate::Predictor;
use aiio_gbdt::{Booster, Node};

impl Predictor for Booster {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        self.predict(rows)
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        Booster::predict_one(self, row)
    }

    fn predict_coalitions(
        &self,
        x: &[f64],
        background: &[f64],
        active: &[usize],
        masks: &[usize],
    ) -> Vec<f64> {
        let forest = Compiled::new(self, x, background, active);
        aiio_par::map_chunks(masks, |chunk| {
            chunk.iter().map(|&mask| forest.predict(mask)).collect()
        })
    }
}

/// One compiled tree node.
#[derive(Clone, Copy)]
enum Step {
    /// Add this leaf value.
    Leaf(f64),
    /// Go to `on` when mask bit `bit` is set (the row holds `x[f]`), else
    /// to `off` (it holds the background); both index [`Compiled::steps`].
    Bit { bit: u32, on: u32, off: u32 },
}

/// A booster's trees specialised to one `(x, background, active)`.
struct Compiled {
    /// The base score plus every leading tree that collapsed to one leaf,
    /// added in tree order.
    prefix: f64,
    /// The root of every later tree, in tree order.
    roots: Vec<Step>,
    /// Children of the [`Step::Bit`] nodes.
    steps: Vec<Step>,
}

/// `bit_of` entry for a feature no mask bit switches.
const INACTIVE: u32 = u32::MAX;

impl Compiled {
    fn new(booster: &Booster, x: &[f64], background: &[f64], active: &[usize]) -> Compiled {
        let mut bit_of = vec![INACTIVE; x.len()];
        for (bit, &feat) in active.iter().enumerate() {
            bit_of[feat] = bit as u32;
        }
        let mut compiled = Compiled {
            prefix: booster.base_score(),
            roots: Vec::new(),
            steps: Vec::new(),
        };
        for tree in booster.trees() {
            let root = compiled.compile(tree.nodes(), 0, x, background, &bit_of);
            match root {
                Step::Leaf(v) if compiled.roots.is_empty() => compiled.prefix += v,
                _ => compiled.roots.push(root),
            }
        }
        compiled
    }

    /// Compile the subtree at `nodes[i]`.
    fn compile(
        &mut self,
        nodes: &[Node],
        i: usize,
        x: &[f64],
        background: &[f64],
        bit_of: &[u32],
    ) -> Step {
        let n = &nodes[i];
        if n.is_leaf() {
            return Step::Leaf(n.value);
        }
        let f = n.feature as usize;
        let child = |left: bool| if left { n.left } else { n.right } as usize;
        let x_left = x[f] <= n.threshold;
        let bg_left = background[f] <= n.threshold;
        if x_left == bg_left || bit_of[f] == INACTIVE {
            return self.compile(nodes, child(bg_left), x, background, bit_of);
        }
        let on = self.compile(nodes, child(x_left), x, background, bit_of);
        let off = self.compile(nodes, child(bg_left), x, background, bit_of);
        self.steps.extend([on, off]);
        let on = (self.steps.len() - 2) as u32;
        Step::Bit {
            bit: bit_of[f],
            on,
            off: on + 1,
        }
    }

    /// The booster's prediction on coalition `mask`.
    fn predict(&self, mask: usize) -> f64 {
        let mut p = self.prefix;
        for &root in &self.roots {
            let mut step = root;
            loop {
                match step {
                    Step::Leaf(v) => {
                        p += v;
                        break;
                    }
                    Step::Bit { bit, on, off } => {
                        let next = if mask >> bit & 1 == 1 { on } else { off };
                        step = self.steps[next as usize];
                    }
                }
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelShap, KernelShapConfig};
    use aiio_gbdt::{GbdtConfig, Growth};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const DIMS: usize = 8;

    /// Predicts built rows only: the trait's default coalition path.
    struct RowsOnly<'a>(&'a Booster);

    impl Predictor for RowsOnly<'_> {
        fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
            self.0.predict(rows)
        }
    }

    fn boosters() -> Vec<Booster> {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let x: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..DIMS).map(|_| rng.gen_range(0.0..4.0)).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| r[0] * r[1] - 2.0 * r[2] + (r[3] > 2.0) as u8 as f64 + r[5].sin())
            .collect();
        [Growth::LevelWise, Growth::LeafWise, Growth::Oblivious]
            .into_iter()
            .map(|growth| {
                let cfg = GbdtConfig {
                    growth,
                    n_rounds: 40,
                    ..GbdtConfig::xgboost_like()
                };
                Booster::fit(&cfg, &x, &y, None).unwrap()
            })
            .collect()
    }

    /// Every split threshold of `b`, to draw values exactly on one.
    fn thresholds(b: &Booster) -> Vec<(usize, f64)> {
        b.trees()
            .iter()
            .flat_map(|t| t.nodes())
            .filter(|n| !n.is_leaf())
            .map(|n| (n.feature as usize, n.threshold))
            .collect()
    }

    /// A random point: uniform values, some exactly on a split threshold,
    /// some equal to `background`.
    fn draw(rng: &mut ChaCha8Rng, splits: &[(usize, f64)], background: &[f64]) -> Vec<f64> {
        let mut v: Vec<f64> = (0..DIMS).map(|_| rng.gen_range(0.0..4.0)).collect();
        for _ in 0..3 {
            let (f, thr) = splits[rng.gen_range(0..splits.len())];
            v[f] = thr;
        }
        for _ in 0..2 {
            let f = rng.gen_range(0..DIMS);
            v[f] = background[f];
        }
        v
    }

    fn row_path(b: &Booster, x: &[f64], bg: &[f64], active: &[usize], masks: &[usize]) -> Vec<u64> {
        bits(&RowsOnly(b).predict_coalitions(x, bg, active, masks))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn coalitions_match_the_row_path_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for b in boosters() {
            let splits = thresholds(&b);
            for case in 0..40 {
                let bg = if case % 2 == 0 {
                    vec![0.0; DIMS]
                } else {
                    draw(&mut rng, &splits, &[0.0; DIMS])
                };
                let x = draw(&mut rng, &splits, &bg);
                let active = crate::sparsity_mask(&x, &bg);
                let all = (1usize << active.len()) - 1;
                let mut masks = vec![0, all];
                masks.extend((0..100).map(|_| rng.gen_range(0..=all)));
                let got = bits(&b.predict_coalitions(&x, &bg, &active, &masks));
                assert_eq!(
                    got,
                    row_path(&b, &x, &bg, &active, &masks),
                    "{:?}",
                    b.config().growth
                );
                let rows = vec![bg.clone(), x.clone()];
                assert_eq!(got[..2], bits(&b.predict(&rows))[..]);
            }
        }
    }

    #[test]
    fn all_some_or_no_features_switched_and_no_masks() {
        let x = [1.0, 3.5, 0.5, 2.5, 1.0, 3.0, 2.0, 0.1];
        let bg = [3.0, 0.5, 3.5, 0.5, 2.0, 0.0, 3.0, 3.9];
        let masks: Vec<usize> = (0..1 << DIMS).collect();
        // Features left out of `active` keep the background even though
        // they differ from it.
        let subsets = [(0..DIMS).collect(), vec![1, 2, 5, 6], vec![]];
        for b in &boosters() {
            for active in &subsets {
                assert_eq!(
                    bits(&b.predict_coalitions(&x, &bg, active, &masks)),
                    row_path(b, &x, &bg, active, &masks)
                );
            }
            assert!(b.predict_coalitions(&x, &bg, &subsets[0], &[]).is_empty());
        }
    }

    #[test]
    fn kernel_shap_through_the_booster_matches_the_row_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for b in boosters() {
            let splits = thresholds(&b);
            for (case, max_evals) in [(0, 2048), (1, 2048), (2, 60), (3, 60)] {
                let bg = if case % 2 == 0 {
                    vec![0.0; DIMS]
                } else {
                    draw(&mut rng, &splits, &[0.0; DIMS])
                };
                let x = draw(&mut rng, &splits, &bg);
                let shap = KernelShap::new(KernelShapConfig { max_evals, seed: 3 });
                let fast = shap.explain(&b, &x, &bg);
                let slow = shap.explain(&RowsOnly(&b), &x, &bg);
                assert_eq!(bits(&fast.values), bits(&slow.values));
                assert_eq!(fast.expected.to_bits(), slow.expected.to_bits());
            }
        }
    }
}
