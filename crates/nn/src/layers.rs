//! Differentiable layers over batch-major matrices (`batch x features`).
//!
//! Each layer has two passes. `forward(&mut self)` is the training pass:
//! batch-norm uses batch statistics, dropout draws a mask, and the layer
//! caches whatever its `backward` needs. `eval(&self)` is the inference
//! pass: running statistics, no dropout, no caches, and in place wherever
//! the layer keeps its input's shape. Each layer also owns its parameters
//! and their gradients.

use crate::error::DimensionError;
use aiio_linalg::func::{relu, relu_grad};
use aiio_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully-connected layer `y = x W + b` with `W: in x out`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    pub w: Matrix,
    pub b: Vec<f64>,
    #[serde(skip)]
    pub gw: Option<Matrix>,
    #[serde(skip)]
    pub gb: Vec<f64>,
    #[serde(skip)]
    x_cache: Option<Matrix>,
}

impl Dense {
    /// He-initialised dense layer.
    pub fn new(inputs: usize, outputs: usize, rng: &mut impl Rng) -> Dense {
        let scale = (2.0 / inputs as f64).sqrt();
        let w = Matrix::from_fn(inputs, outputs, |_, _| {
            (rng.gen::<f64>() * 2.0 - 1.0) * scale
        });
        Dense {
            w,
            b: vec![0.0; outputs],
            gw: None,
            gb: vec![],
            x_cache: None,
        }
    }

    /// Training pass: caches `x` for [`Dense::backward`].
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.x_cache = Some(x.clone());
        self.eval(x)
    }

    /// Inference pass: `x W + b`.
    pub fn eval(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        for i in 0..y.rows() {
            for (v, b) in y.row_mut(i).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        y
    }

    /// Drop the training cache.
    pub(crate) fn clear_cache(&mut self) {
        self.x_cache = None;
    }

    pub fn backward(&mut self, dy: &Matrix) -> Result<Matrix, DimensionError> {
        let x = self
            .x_cache
            .as_ref()
            .ok_or(DimensionError::BackwardBeforeForward { layer: "dense" })?;
        self.gw = Some(x.transpose_matmul(dy));
        let mut gb = vec![0.0; dy.cols()];
        for i in 0..dy.rows() {
            for (g, &d) in gb.iter_mut().zip(dy.row(i)) {
                *g += d;
            }
        }
        self.gb = gb;
        Ok(dy.matmul(&self.w.transpose()))
    }
}

/// ReLU activation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReLu {
    #[serde(skip)]
    x_cache: Option<Matrix>,
}

impl ReLu {
    /// Training pass: caches `x` for [`ReLu::backward`].
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.x_cache = Some(x.clone());
        x.map(relu)
    }

    /// Inference pass, in place.
    pub fn eval(&self, x: &mut Matrix) {
        x.map_inplace(relu);
    }

    /// Drop the training cache.
    pub(crate) fn clear_cache(&mut self) {
        self.x_cache = None;
    }

    pub fn backward(&mut self, dy: &Matrix) -> Result<Matrix, DimensionError> {
        let x = self
            .x_cache
            .as_ref()
            .ok_or(DimensionError::BackwardBeforeForward { layer: "relu" })?;
        Ok(dy.zip_map(&x.map(relu_grad), |d, g| d * g))
    }
}

/// Batch normalisation over the batch dimension.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm {
    pub gamma: Vec<f64>,
    pub beta: Vec<f64>,
    pub running_mean: Vec<f64>,
    pub running_var: Vec<f64>,
    pub momentum: f64,
    pub eps: f64,
    #[serde(skip)]
    pub ggamma: Vec<f64>,
    #[serde(skip)]
    pub gbeta: Vec<f64>,
    #[serde(skip)]
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Matrix,
    std_inv: Vec<f64>,
}

impl BatchNorm {
    pub fn new(features: usize) -> BatchNorm {
        BatchNorm {
            gamma: vec![1.0; features],
            beta: vec![0.0; features],
            running_mean: vec![0.0; features],
            running_var: vec![1.0; features],
            momentum: 0.9,
            eps: 1e-5,
            ggamma: vec![],
            gbeta: vec![],
            cache: None,
        }
    }

    /// Training pass: normalises with the batch statistics, folds them
    /// into the running statistics and caches what
    /// [`BatchNorm::backward`] needs.
    ///
    /// A one-row batch has no variance, so it is normalised with the
    /// running statistics instead and leaves the cache (and the running
    /// statistics) as they were.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        if x.rows() <= 1 {
            let mut y = x.clone();
            self.eval(&mut y);
            return y;
        }
        let mean = x.col_means();
        let var = x.col_variances();
        for ((rm, rv), (m, v)) in self
            .running_mean
            .iter_mut()
            .zip(self.running_var.iter_mut())
            .zip(mean.iter().zip(&var))
        {
            *rm = self.momentum * *rm + (1.0 - self.momentum) * m;
            *rv = self.momentum * *rv + (1.0 - self.momentum) * v;
        }
        let std_inv = self.std_inv(&var);
        let mut x_hat = x.clone();
        for i in 0..x_hat.rows() {
            for ((v, m), s) in x_hat.row_mut(i).iter_mut().zip(&mean).zip(&std_inv) {
                *v = (*v - m) * s;
            }
        }
        let mut y = x_hat.clone();
        for i in 0..y.rows() {
            for ((v, g), b) in y.row_mut(i).iter_mut().zip(&self.gamma).zip(&self.beta) {
                *v = *v * g + b;
            }
        }
        self.cache = Some(BnCache { x_hat, std_inv });
        y
    }

    /// Inference pass, in place: the running-statistics affine map
    /// `((x - mean) * std_inv) * gamma + beta`, in the training pass's
    /// operation order.
    pub fn eval(&self, x: &mut Matrix) {
        let std_inv = self.std_inv(&self.running_var);
        for i in 0..x.rows() {
            let stats = self.running_mean.iter().zip(&std_inv);
            let affine = self.gamma.iter().zip(&self.beta);
            for ((v, (m, s)), (g, b)) in x.row_mut(i).iter_mut().zip(stats).zip(affine) {
                *v = (*v - m) * s * g + b;
            }
        }
    }

    fn std_inv(&self, var: &[f64]) -> Vec<f64> {
        var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect()
    }

    /// Drop the training cache.
    pub(crate) fn clear_cache(&mut self) {
        self.cache = None;
    }

    pub fn backward(&mut self, dy: &Matrix) -> Result<Matrix, DimensionError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or(DimensionError::BackwardBeforeForward { layer: "batchnorm" })?;
        let n = dy.rows() as f64;
        let f = dy.cols();
        // Parameter gradients.
        let mut ggamma = vec![0.0; f];
        let mut gbeta = vec![0.0; f];
        for i in 0..dy.rows() {
            for j in 0..f {
                ggamma[j] += dy[(i, j)] * cache.x_hat[(i, j)];
                gbeta[j] += dy[(i, j)];
            }
        }
        // Input gradient (standard batch-norm backward):
        // dx = (gamma * std_inv / n) * (n*dy - sum(dy) - x_hat * sum(dy*x_hat))
        let mut dx = Matrix::zeros(dy.rows(), f);
        for j in 0..f {
            let sum_dy = gbeta[j];
            let sum_dy_xhat = ggamma[j];
            let k = self.gamma[j] * cache.std_inv[j] / n;
            for i in 0..dy.rows() {
                dx[(i, j)] = k * (n * dy[(i, j)] - sum_dy - cache.x_hat[(i, j)] * sum_dy_xhat);
            }
        }
        self.ggamma = ggamma;
        self.gbeta = gbeta;
        Ok(dx)
    }
}

/// Inverted dropout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    pub p: f64,
    #[serde(skip)]
    mask: Option<Matrix>,
}

impl Dropout {
    pub fn new(p: f64) -> Dropout {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        Dropout { p, mask: None }
    }

    /// Training pass: draws and caches a keep mask, scaling kept
    /// activations by `1 / (1 - p)`.
    pub fn forward(&mut self, x: &Matrix, rng: &mut impl Rng) -> Matrix {
        // xtask-allow: AIIO-F001 — p = 0.0 is an exact config sentinel (dropout disabled)
        if self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mask = Matrix::from_fn(x.rows(), x.cols(), |_, _| {
            if rng.gen::<f64>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let y = x.zip_map(&mask, |a, m| a * m);
        self.mask = Some(mask);
        y
    }

    /// Inference pass: inverted dropout already scaled the training
    /// activations, so inference is the identity.
    pub fn eval(&self, _x: &mut Matrix) {}

    /// Drop the training cache.
    pub(crate) fn clear_cache(&mut self) {
        self.mask = None;
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        match &self.mask {
            Some(mask) => dy.zip_map(mask, |d, m| d * m),
            None => dy.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    #[test]
    fn dense_forward_matches_manual() {
        let mut d = Dense::new(2, 1, &mut rng());
        d.w = Matrix::from_rows(&[vec![2.0], vec![3.0]]);
        d.b = vec![1.0];
        let y = d.eval(&Matrix::from_rows(&[vec![1.0, 1.0]]));
        assert_eq!(y[(0, 0)], 6.0);
    }

    #[test]
    fn dense_gradient_check() {
        let mut d = Dense::new(3, 2, &mut rng());
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]);
        // Loss = sum(y); dL/dy = ones.
        let _ = d.forward(&x);
        let ones = Matrix::from_fn(2, 2, |_, _| 1.0);
        let dx = d.backward(&ones).unwrap();
        let eps = 1e-6;
        // Check dL/dw numerically for a few entries.
        for (i, j) in [(0, 0), (1, 1), (2, 0)] {
            let orig = d.w[(i, j)];
            d.w[(i, j)] = orig + eps;
            let lp: f64 = d.eval(&x).as_slice().iter().sum();
            d.w[(i, j)] = orig - eps;
            let lm: f64 = d.eval(&x).as_slice().iter().sum();
            d.w[(i, j)] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = d.gw.as_ref().unwrap()[(i, j)];
            assert!((num - ana).abs() < 1e-6, "dw[{i},{j}]: {num} vs {ana}");
        }
        // Check dL/dx numerically.
        for (i, j) in [(0, 0), (1, 2)] {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            let lp: f64 = d.eval(&xp).as_slice().iter().sum();
            let lm: f64 = d.eval(&xm).as_slice().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx[(i, j)]).abs() < 1e-6);
        }
    }

    #[test]
    fn relu_zeroes_negatives_and_gradients() {
        let mut r = ReLu::default();
        let x = Matrix::from_rows(&[vec![-1.0, 2.0]]);
        let y = r.forward(&x);
        assert_eq!(y, Matrix::from_rows(&[vec![0.0, 2.0]]));
        let dx = r.backward(&Matrix::from_rows(&[vec![5.0, 5.0]])).unwrap();
        assert_eq!(dx, Matrix::from_rows(&[vec![0.0, 5.0]]));
    }

    #[test]
    fn batchnorm_normalises_batch() {
        let mut bn = BatchNorm::new(2);
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]);
        let y = bn.forward(&x);
        // Each column of y should have ~zero mean and ~unit variance.
        let means = y.col_means();
        let vars = y.col_variances();
        for (m, v) in means.iter().zip(&vars) {
            assert!(m.abs() < 1e-9, "mean {m}");
            assert!((v - 1.0).abs() < 1e-3, "var {v}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        let x = Matrix::from_rows(&[vec![10.0], vec![20.0]]);
        for _ in 0..200 {
            let _ = bn.forward(&x);
        }
        // Eval on a single row: output should be roughly (15-15)/std = 0
        // for the mean input.
        let mut y = Matrix::from_rows(&[vec![15.0]]);
        bn.eval(&mut y);
        assert!(y[(0, 0)].abs() < 0.2, "got {}", y[(0, 0)]);
    }

    #[test]
    fn batchnorm_gradient_check() {
        let mut bn = BatchNorm::new(2);
        bn.gamma = vec![1.3, 0.7];
        bn.beta = vec![0.1, -0.2];
        let x = Matrix::from_rows(&[
            vec![0.5, -1.0],
            vec![1.5, 0.3],
            vec![-0.7, 2.0],
            vec![0.1, 0.9],
        ]);
        // Loss = sum of squares of output / 2 → dL/dy = y.
        let y = bn.forward(&x);
        let dx = bn.backward(&y).unwrap();
        let eps = 1e-6;
        let loss = |bn: &mut BatchNorm, x: &Matrix| -> f64 {
            // Recompute with the training pass on a clone, so the running
            // stats stay frozen.
            let mut b = bn.clone();
            let y = b.forward(x);
            y.as_slice().iter().map(|v| v * v).sum::<f64>() / 2.0
        };
        for (i, j) in [(0, 0), (2, 1), (3, 0)] {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            let num = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (num - dx[(i, j)]).abs() < 1e-5,
                "dx[{i},{j}]: numeric {num} vs analytic {}",
                dx[(i, j)]
            );
        }
    }

    #[test]
    fn dropout_scales_to_preserve_expectation() {
        let mut d = Dropout::new(0.5);
        let x = Matrix::from_fn(1000, 1, |_, _| 1.0);
        let y = d.forward(&x, &mut rng());
        let mean = y.as_slice().iter().sum::<f64>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        // The inference pass is the identity.
        let mut y = x.clone();
        d.eval(&mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5);
        let x = Matrix::from_fn(4, 4, |_, _| 1.0);
        let y = d.forward(&x, &mut rng());
        let dy = Matrix::from_fn(4, 4, |_, _| 1.0);
        let dx = d.backward(&dy);
        // Gradient flows exactly where outputs were kept.
        for (o, g) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(*o == 0.0, *g == 0.0);
        }
    }
}
