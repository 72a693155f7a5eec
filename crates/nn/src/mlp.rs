//! The paper's MLP performance function (Table 5): a fully-connected
//! network with ReLU activations, batch normalisation and dropout between
//! hidden layers, trained with Adam on MSE loss with early stopping.

use crate::adam::Adam;
use crate::error::{check_fit_inputs, DimensionError};
use crate::layers::{BatchNorm, Dense, Dropout, ReLu};
use crate::EpochRecord;
use aiio_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// MLP hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer widths. The paper's Table 5 uses
    /// `[90, 89, 69, 49, 29, 9]`.
    pub hidden: Vec<usize>,
    /// Dropout rate between hidden layers.
    pub dropout: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Stop after this many epochs without validation improvement
    /// (paper: 10). 0 disables.
    pub early_stopping: usize,
    /// RNG seed (init, shuffling, dropout).
    pub seed: u64,
}

impl MlpConfig {
    /// The paper's Table 5 architecture.
    pub fn paper() -> Self {
        Self {
            hidden: vec![90, 89, 69, 49, 29, 9],
            dropout: 0.1,
            learning_rate: 1e-3,
            batch_size: 256,
            max_epochs: 200,
            early_stopping: 10,
            seed: 0,
        }
    }

    /// A small architecture for tests and quick experiments.
    pub fn small() -> Self {
        Self {
            hidden: vec![32, 16],
            max_epochs: 300,
            ..Self::paper()
        }
    }

    /// Check the architecture before any parameter is allocated.
    pub fn validate(&self) -> Result<(), DimensionError> {
        if self.hidden.contains(&0) {
            return Err(DimensionError::ZeroWidth {
                what: "hidden layer",
            });
        }
        if self.batch_size == 0 {
            return Err(DimensionError::ZeroWidth { what: "batch_size" });
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(DimensionError::RateOutOfRange {
                what: "dropout",
                value: self.dropout,
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(DimensionError::RateOutOfRange {
                what: "learning_rate",
                value: self.learning_rate,
            });
        }
        Ok(())
    }
}

/// One hidden block: dense -> (batchnorm) -> relu -> (dropout).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Block {
    dense: Dense,
    bn: Option<BatchNorm>,
    relu: ReLu,
    dropout: Option<Dropout>,
}

/// A fitted MLP regressor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    config: MlpConfig,
    blocks: Vec<Block>,
    head: Dense,
    history: Vec<EpochRecord>,
}

impl Mlp {
    /// Fit on `(x, y)`, optionally early-stopping against `valid`.
    ///
    /// # Errors
    /// Returns a [`DimensionError`] when the config fails
    /// [`MlpConfig::validate`] or the inputs are empty/mismatched.
    pub fn fit(
        config: &MlpConfig,
        x: &[Vec<f64>],
        y: &[f64],
        valid: Option<(&[Vec<f64>], &[f64])>,
    ) -> Result<Mlp, DimensionError> {
        config.validate()?;
        check_fit_inputs(x, y, valid)?;
        let n_features = x[0].len();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        // Build blocks: the first hidden layer has no BN/dropout (as in the
        // paper's Table 5, where BN starts after the second dense layer).
        let mut blocks = Vec::new();
        let mut inputs = n_features;
        for (i, &h) in config.hidden.iter().enumerate() {
            blocks.push(Block {
                dense: Dense::new(inputs, h, &mut rng),
                bn: (i > 0).then(|| BatchNorm::new(h)),
                relu: ReLu::default(),
                dropout: (i > 0 && config.dropout > 0.0).then(|| Dropout::new(config.dropout)),
            });
            inputs = h;
        }
        let head = Dense::new(inputs, 1, &mut rng);
        let mut model = Mlp {
            config: config.clone(),
            blocks,
            head,
            history: vec![],
        };

        let mut adam = Adam::new(config.learning_rate);
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut best_valid = f64::INFINITY;
        let mut best_state: Option<(Vec<Block>, Dense)> = None;
        let mut since_best = 0usize;

        for epoch in 0..config.max_epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                let xb =
                    Matrix::from_rows(&chunk.iter().map(|&i| x[i].clone()).collect::<Vec<_>>());
                let yb: Vec<f64> = chunk.iter().map(|&i| y[i]).collect();
                let pred = model.forward(&xb, &mut rng);
                // MSE loss: dL/dpred = 2 (pred - y) / batch.
                let nb = yb.len() as f64;
                let dy = Matrix::from_fn(pred.rows(), 1, |i, _| 2.0 * (pred[(i, 0)] - yb[i]) / nb);
                model.backward(&dy)?;
                model.apply_grads(&mut adam)?;
            }
            let train_rmse = rmse(&model.predict(x), y);
            let valid_rmse = valid.map(|(vx, vy)| rmse(&model.predict(vx), vy));
            model.history.push(EpochRecord {
                epoch,
                train_rmse,
                valid_rmse,
            });
            if let Some(v) = valid_rmse {
                if v < best_valid {
                    best_valid = v;
                    best_state = Some((model.blocks.clone(), model.head.clone()));
                    since_best = 0;
                } else {
                    since_best += 1;
                    if config.early_stopping > 0 && since_best >= config.early_stopping {
                        break;
                    }
                }
            }
        }
        if let Some((blocks, head)) = best_state {
            model.blocks = blocks;
            model.head = head;
        }
        model.clear_caches();
        Ok(model)
    }

    /// Training pass: batch statistics, dropout masks, and every layer
    /// caches what `backward` needs.
    fn forward(&mut self, x: &Matrix, rng: &mut ChaCha8Rng) -> Matrix {
        let mut h = x.clone();
        for b in &mut self.blocks {
            h = b.dense.forward(&h);
            if let Some(bn) = &mut b.bn {
                h = bn.forward(&h);
            }
            h = b.relu.forward(&h);
            if let Some(d) = &mut b.dropout {
                h = d.forward(&h, rng);
            }
        }
        self.head.forward(&h)
    }

    /// Drop the training caches so a fitted model holds only what its
    /// serialized form holds.
    fn clear_caches(&mut self) {
        for b in &mut self.blocks {
            b.dense.clear_cache();
            if let Some(bn) = &mut b.bn {
                bn.clear_cache();
            }
            b.relu.clear_cache();
            if let Some(d) = &mut b.dropout {
                d.clear_cache();
            }
        }
        self.head.clear_cache();
    }

    fn backward(&mut self, dy: &Matrix) -> Result<(), DimensionError> {
        let mut g = self.head.backward(dy)?;
        for b in self.blocks.iter_mut().rev() {
            if let Some(d) = &mut b.dropout {
                g = d.backward(&g);
            }
            g = b.relu.backward(&g)?;
            if let Some(bn) = &mut b.bn {
                g = bn.backward(&g)?;
            }
            g = b.dense.backward(&g)?;
        }
        Ok(())
    }

    fn apply_grads(&mut self, adam: &mut Adam) -> Result<(), DimensionError> {
        let mut slot = 0;
        for b in &mut self.blocks {
            let gw = b
                .dense
                .gw
                .take()
                .ok_or(DimensionError::MissingGradient { layer: "dense" })?;
            adam.update(slot, b.dense.w.as_mut_slice(), gw.as_slice());
            slot += 1;
            let gb = std::mem::take(&mut b.dense.gb);
            adam.update(slot, &mut b.dense.b, &gb);
            slot += 1;
            if let Some(bn) = &mut b.bn {
                let gg = std::mem::take(&mut bn.ggamma);
                adam.update(slot, &mut bn.gamma, &gg);
                slot += 1;
                let gb = std::mem::take(&mut bn.gbeta);
                adam.update(slot, &mut bn.beta, &gb);
                slot += 1;
            }
        }
        let gw = self
            .head
            .gw
            .take()
            .ok_or(DimensionError::MissingGradient { layer: "head" })?;
        adam.update(slot, self.head.w.as_mut_slice(), gw.as_slice());
        slot += 1;
        let gb = std::mem::take(&mut self.head.gb);
        adam.update(slot, &mut self.head.b, &gb);
        Ok(())
    }

    /// Predict a batch with the `&self` inference pass: running batch-norm
    /// statistics, no dropout, no caches. Each row's prediction depends
    /// only on that row.
    pub fn predict(&self, x: &[Vec<f64>]) -> Vec<f64> {
        if x.is_empty() {
            return vec![];
        }
        let mut h = Matrix::from_rows(x);
        for b in &self.blocks {
            h = b.dense.eval(&h);
            if let Some(bn) = &b.bn {
                bn.eval(&mut h);
            }
            b.relu.eval(&mut h);
            if let Some(d) = &b.dropout {
                d.eval(&mut h);
            }
        }
        self.head.eval(&h).into_vec()
    }

    /// Predict one sample.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        self.predict(std::slice::from_ref(&x.to_vec()))[0]
    }

    /// Per-epoch train/valid RMSE.
    pub fn history(&self) -> &[EpochRecord] {
        &self.history
    }

    /// The architecture widths, input to output.
    pub fn layer_widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.blocks.iter().map(|b| b.dense.w.cols()).collect();
        w.push(1);
        w
    }
}

fn rmse(pred: &[f64], y: &[f64]) -> f64 {
    let sse: f64 = pred.iter().zip(y).map(|(p, t)| (p - t) * (p - t)).sum();
    (sse / y.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn linearish(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| 2.0 * r[0] - r[1] + 0.5 * r[2] * r[3])
            .collect();
        (x, y)
    }

    #[test]
    fn learns_a_smooth_function() {
        let (x, y) = linearish(600, 1);
        let cfg = MlpConfig {
            max_epochs: 120,
            dropout: 0.0,
            ..MlpConfig::small()
        };
        let m = Mlp::fit(&cfg, &x, &y, None).unwrap();
        let err = rmse(&m.predict(&x), &y);
        let spread = {
            let mean: f64 = y.iter().sum::<f64>() / y.len() as f64;
            (y.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / y.len() as f64).sqrt()
        };
        assert!(err < 0.35 * spread, "rmse {err} vs spread {spread}");
    }

    #[test]
    fn early_stopping_halts_training() {
        let (x, y) = linearish(300, 2);
        let (vx, vy) = linearish(100, 3);
        let cfg = MlpConfig {
            max_epochs: 500,
            early_stopping: 3,
            ..MlpConfig::small()
        };
        let m = Mlp::fit(&cfg, &x, &y, Some((&vx, &vy))).unwrap();
        assert!(m.history().len() < 500, "ran all epochs");
    }

    #[test]
    fn paper_architecture_matches_table5() {
        let cfg = MlpConfig::paper();
        assert_eq!(cfg.hidden, vec![90, 89, 69, 49, 29, 9]);
        let (x, y) = linearish(64, 4);
        let cfg = MlpConfig {
            max_epochs: 1,
            ..cfg
        };
        let m = Mlp::fit(&cfg, &x, &y, None).unwrap();
        assert_eq!(m.layer_widths(), vec![90, 89, 69, 49, 29, 9, 1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = linearish(128, 5);
        let cfg = MlpConfig {
            max_epochs: 5,
            ..MlpConfig::small()
        };
        let a = Mlp::fit(&cfg, &x, &y, None).unwrap();
        let b = Mlp::fit(&cfg, &x, &y, None).unwrap();
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn predict_is_pure() {
        let (x, y) = linearish(64, 6);
        let cfg = MlpConfig {
            max_epochs: 3,
            ..MlpConfig::small()
        };
        let m = Mlp::fit(&cfg, &x, &y, None).unwrap();
        assert_eq!(m.predict(&x), m.predict(&x));
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = MlpConfig::small();
        cfg.hidden = vec![32, 0];
        assert_eq!(
            cfg.validate(),
            Err(crate::DimensionError::ZeroWidth {
                what: "hidden layer"
            })
        );
        let mut cfg = MlpConfig::small();
        cfg.dropout = 1.0;
        assert!(matches!(
            cfg.validate(),
            Err(crate::DimensionError::RateOutOfRange {
                what: "dropout",
                ..
            })
        ));
        assert!(MlpConfig::paper().validate().is_ok());
    }

    #[test]
    fn fit_rejects_empty_and_mismatched_inputs() {
        let cfg = MlpConfig::small();
        assert_eq!(
            Mlp::fit(&cfg, &[], &[], None).err(),
            Some(crate::DimensionError::EmptyTrainingSet)
        );
        let x = vec![vec![1.0, 2.0]];
        assert_eq!(
            Mlp::fit(&cfg, &x, &[1.0, 2.0], None).err(),
            Some(crate::DimensionError::LengthMismatch { x: 1, y: 2 })
        );
        let valid_x = vec![vec![1.0, 2.0]; 3];
        assert_eq!(
            Mlp::fit(&cfg, &x, &[1.0], Some((&valid_x, &[1.0, 2.0]))).err(),
            Some(crate::DimensionError::LengthMismatch { x: 3, y: 2 })
        );
    }

    #[test]
    fn training_reduces_loss() {
        let (x, y) = linearish(400, 7);
        let cfg = MlpConfig {
            max_epochs: 60,
            dropout: 0.0,
            ..MlpConfig::small()
        };
        let m = Mlp::fit(&cfg, &x, &y, None).unwrap();
        let h = m.history();
        assert!(h.last().unwrap().train_rmse < 0.7 * h[0].train_rmse);
    }
}
