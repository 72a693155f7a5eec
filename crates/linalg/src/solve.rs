//! Symmetric positive-definite solvers and the (weighted, ridge) least-squares
//! routines Kernel SHAP and LIME are built on.

use crate::matrix::Matrix;

/// Errors from the dense solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The system matrix was not positive definite even after the allowed
    /// diagonal jitter (rank-deficient design with zero ridge, usually).
    NotPositiveDefinite,
    /// Input dimensions were inconsistent.
    DimensionMismatch,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NotPositiveDefinite => {
                write!(
                    f,
                    "matrix is not positive definite (rank-deficient design?)"
                )
            }
            SolveError::DimensionMismatch => write!(f, "inconsistent dimensions"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Cholesky factorisation `A = L L^T` of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular factor. Fails if a pivot becomes
/// non-positive.
pub fn cholesky(a: &Matrix) -> Result<Matrix, SolveError> {
    if a.rows() != a.cols() {
        return Err(SolveError::DimensionMismatch);
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(SolveError::NotPositiveDefinite);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Weighted least squares: minimise `Σ_i w_i (x_i^T β - y_i)^2 + ridge ‖β‖²`.
///
/// Solves the normal equations `(X^T W X + ridge·I) β = X^T W y` by Cholesky.
/// If the design is rank-deficient and `ridge == 0`, a tiny jitter is added
/// to the diagonal (up to 1e-8 · trace/n) before giving up.
///
/// It is [`WlsFactor::new`] then [`WlsFactor::solve`], for callers that
/// solve one design once.
pub fn weighted_least_squares(
    x: &Matrix,
    y: &[f64],
    weights: &[f64],
    ridge: f64,
) -> Result<Vec<f64>, SolveError> {
    if y.len() != x.rows() {
        return Err(SolveError::DimensionMismatch);
    }
    WlsFactor::new(x, weights, ridge)?.solve(y)
}

/// The weighted normal equations `X^T W X + ridge·I` of one design,
/// Cholesky-factored once for any number of targets `y`.
#[derive(Debug, Clone)]
pub struct WlsFactor {
    /// The nonzero entries of `W X` as `(i, a, w_i · x_ia)`, row-major:
    /// `X^T W y` adds them in the order `X^T W X` did.
    terms: Vec<(usize, usize, f64)>,
    rows: usize,
    /// The lower-triangular Cholesky factor `L`.
    l: Matrix,
}

impl WlsFactor {
    /// Factor the normal equations of design `x` under `weights` and
    /// `ridge` (see [`weighted_least_squares`] for the jitter fallback).
    pub fn new(x: &Matrix, weights: &[f64], ridge: f64) -> Result<Self, SolveError> {
        let (n, p) = (x.rows(), x.cols());
        if weights.len() != n {
            return Err(SolveError::DimensionMismatch);
        }
        let terms: Vec<(usize, usize, f64)> = (0..n)
            // xtask-allow: AIIO-F001 — exact-zero skip: zero-weight rows contribute nothing
            .filter(|&i| weights[i] != 0.0)
            .flat_map(|i| {
                x.row(i)
                    .iter()
                    .enumerate()
                    .map(move |(a, &v)| (i, a, weights[i] * v))
            })
            // xtask-allow: AIIO-F001 — exact-zero skip: zero terms contribute nothing
            .filter(|&(_, _, wa)| wa != 0.0)
            .collect();
        // Accumulate the upper triangle, mirror it and add the ridge.
        let mut xtwx = Matrix::zeros(p, p);
        for &(i, a, wa) in &terms {
            for b in a..p {
                xtwx[(a, b)] += wa * x[(i, b)];
            }
        }
        for a in 0..p {
            for b in 0..a {
                xtwx[(a, b)] = xtwx[(b, a)];
            }
            xtwx[(a, a)] += ridge;
        }
        let l = match cholesky(&xtwx) {
            // xtask-allow: AIIO-F001 — ridge = 0.0 is an exact config sentinel, not arithmetic
            Err(SolveError::NotPositiveDefinite) if ridge == 0.0 => {
                let trace: f64 = (0..p).map(|i| xtwx[(i, i)]).sum();
                let jitter = 1e-8 * (trace / p.max(1) as f64).max(1.0);
                for i in 0..p {
                    xtwx[(i, i)] += jitter;
                }
                cholesky(&xtwx)?
            }
            factored => factored?,
        };
        Ok(Self { terms, rows: n, l })
    }

    /// The coefficients `β` for the target `y` (one value per design row):
    /// `X^T W y`, then the forward and back substitutions.
    pub fn solve(&self, y: &[f64]) -> Result<Vec<f64>, SolveError> {
        if y.len() != self.rows {
            return Err(SolveError::DimensionMismatch);
        }
        let (l, p) = (&self.l, self.l.rows());
        let mut b = vec![0.0; p];
        for &(i, a, wa) in &self.terms {
            b[a] += wa * y[i];
        }
        // Forward substitution: L z = b.
        let mut z = vec![0.0; p];
        for i in 0..p {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * z[k];
            }
            z[i] = sum / l[(i, i)];
        }
        // Back substitution: L^T β = z.
        let mut beta = vec![0.0; p];
        for i in (0..p).rev() {
            let mut sum = z[i];
            for k in i + 1..p {
                sum -= l[(k, i)] * beta[k];
            }
            beta[i] = sum / l[(i, i)];
        }
        Ok(beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} !~ {b:?}");
        }
    }

    #[test]
    fn cholesky_recovers_factor() {
        // A = L L^T with known L.
        let l = Matrix::from_rows(&[vec![2.0, 0.0], vec![1.0, 3.0]]);
        let a = l.matmul(&l.transpose());
        let got = cholesky(&a).unwrap();
        approx(got.as_slice(), l.as_slice(), 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(cholesky(&a), Err(SolveError::NotPositiveDefinite));
    }

    /// Ordinary ridge regression: unit weights.
    fn ridge_regression(x: &Matrix, y: &[f64], ridge: f64) -> Result<Vec<f64>, SolveError> {
        weighted_least_squares(x, y, &vec![1.0; x.rows()], ridge)
    }

    /// Solve `A x = b` for symmetric positive-definite `A` via Cholesky,
    /// as the one-pass solve below did.
    fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        if a.rows() != b.len() {
            return Err(SolveError::DimensionMismatch);
        }
        let l = cholesky(a)?;
        let n = b.len();
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Ok(x)
    }

    #[test]
    fn factor_solves_the_normal_equations() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.5, -1.0], vec![3.0, 0.0]]);
        let (w, y, ridge) = ([1.0, 2.0, 0.5], [1.0, -2.0, 4.0], 0.1);
        let beta = WlsFactor::new(&x, &w, ridge).unwrap().solve(&y).unwrap();
        // (X^T W X + ridge·I) β == X^T W y.
        let wx = Matrix::from_fn(3, 2, |i, a| w[i] * x[(i, a)]);
        let mut normal = wx.transpose_matmul(&x);
        for a in 0..2 {
            normal[(a, a)] += ridge;
        }
        approx(&normal.matvec(&beta), &wx.transpose().matvec(&y), 1e-12);
    }

    #[test]
    fn least_squares_recovers_exact_linear_model() {
        // y = 3 x0 - 2 x1, enough samples for full rank.
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, -1.0],
        ]);
        let y: Vec<f64> = (0..x.rows())
            .map(|i| 3.0 * x[(i, 0)] - 2.0 * x[(i, 1)])
            .collect();
        let beta = ridge_regression(&x, &y, 0.0).unwrap();
        approx(&beta, &[3.0, -2.0], 1e-10);
    }

    #[test]
    fn weights_zero_out_contaminated_samples() {
        // Same linear model plus one wild outlier whose weight is zero.
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![5.0, 5.0],
        ]);
        let mut y: Vec<f64> = (0..x.rows())
            .map(|i| 3.0 * x[(i, 0)] - 2.0 * x[(i, 1)])
            .collect();
        y[3] = 1e6;
        let w = vec![1.0, 1.0, 1.0, 0.0];
        let beta = weighted_least_squares(&x, &y, &w, 0.0).unwrap();
        approx(&beta, &[3.0, -2.0], 1e-8);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![2.0, 4.0, 6.0];
        let b0 = ridge_regression(&x, &y, 0.0).unwrap()[0];
        let b1 = ridge_regression(&x, &y, 10.0).unwrap()[0];
        assert!((b0 - 2.0).abs() < 1e-10);
        assert!(b1 < b0 && b1 > 0.0);
    }

    #[test]
    fn rank_deficient_design_handled_by_jitter() {
        // Duplicate column ⇒ singular normal equations; jitter should rescue.
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let y = vec![2.0, 4.0, 6.0];
        let beta = ridge_regression(&x, &y, 0.0).unwrap();
        // The two coefficients split the slope; their sum predicts y.
        let pred: Vec<f64> = (0..3)
            .map(|i| x.row(i).iter().zip(&beta).map(|(a, b)| a * b).sum())
            .collect();
        approx(&pred, &y, 1e-3);
    }

    /// `weighted_least_squares` as it was before the factor/solve split:
    /// one pass accumulating `X^T W X` and `X^T W y`, then `cholesky_solve`.
    fn one_pass_wls(
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        ridge: f64,
    ) -> Result<Vec<f64>, SolveError> {
        let (n, p) = (x.rows(), x.cols());
        if y.len() != n || weights.len() != n {
            return Err(SolveError::DimensionMismatch);
        }
        let mut xtwx = Matrix::zeros(p, p);
        let mut xtwy = vec![0.0; p];
        for i in 0..n {
            let w = weights[i];
            if w == 0.0 {
                continue;
            }
            let row = x.row(i);
            for a in 0..p {
                let wa = w * row[a];
                if wa == 0.0 {
                    continue;
                }
                xtwy[a] += wa * y[i];
                for b in a..p {
                    xtwx[(a, b)] += wa * row[b];
                }
            }
        }
        for a in 0..p {
            for b in 0..a {
                xtwx[(a, b)] = xtwx[(b, a)];
            }
            xtwx[(a, a)] += ridge;
        }
        match cholesky_solve(&xtwx, &xtwy) {
            Err(SolveError::NotPositiveDefinite) if ridge == 0.0 => {
                let trace: f64 = (0..p).map(|i| xtwx[(i, i)]).sum();
                let jitter = 1e-8 * (trace / p.max(1) as f64).max(1.0);
                for i in 0..p {
                    xtwx[(i, i)] += jitter;
                }
                cholesky_solve(&xtwx, &xtwy)
            }
            other => other,
        }
    }

    #[test]
    fn factor_then_solve_is_bit_identical_to_the_one_pass_solve() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let bits = |r: Result<Vec<f64>, SolveError>| {
            r.map(|v| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>())
        };
        // Kernel-SHAP-shaped (entries in {-1, 0, 1}, ridge 0), LIME-shaped
        // (0/1 after an intercept, ridge 1e-3) and dense random designs,
        // some weights exactly zero.
        let mut cases = Vec::new();
        for (n, p, ridge) in [
            (1, 1, 0.0),
            (40, 5, 0.0),
            (931, 15, 0.0),
            (300, 9, 1e-3),
            (60, 7, 0.5),
        ] {
            let x = Matrix::from_fn(n, p, |_, j| match ridge {
                0.0 => rng.gen_range(-1i32..=1) as f64,
                1e-3 if j == 0 => 1.0,
                1e-3 => rng.gen_range(0i32..=1) as f64,
                _ => rng.gen_range(-3.0..3.0),
            });
            let w = (0..n)
                .map(|_| {
                    if rng.gen_range(0..8) == 0 {
                        0.0
                    } else {
                        rng.gen_range(0.0..2.0)
                    }
                })
                .collect();
            cases.push((x, w, ridge));
        }
        // Rank-deficient at ridge 0: a duplicated column takes the jitter
        // fallback; negative weights fail even with it.
        let dup = Matrix::from_fn(50, 4, |i, j| ((i * 7 + j.min(2) * 3) % 5) as f64 - 2.0);
        let neg = Matrix::from_fn(20, 3, |i, j| ((i + j) % 4) as f64);
        cases.push((dup, vec![1.0; 50], 0.0));
        cases.push((neg, vec![-0.5; 20], 0.0));

        for (x, w, ridge) in &cases {
            let factor = WlsFactor::new(x, w, *ridge);
            for _ in 0..3 {
                let y: Vec<f64> = (0..x.rows()).map(|_| rng.gen_range(-5.0..5.0)).collect();
                let want = one_pass_wls(x, &y, w, *ridge);
                let split = factor
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|f| f.solve(&y));
                assert_eq!(bits(split), bits(want.clone()));
                assert_eq!(bits(weighted_least_squares(x, &y, w, *ridge)), bits(want));
            }
        }
        let (dup, neg) = (&cases[5].0, &cases[6].0);
        let normal = |x: &Matrix| x.transpose_matmul(x);
        assert!(
            cholesky(&normal(dup)).is_err(),
            "the duplicated column is singular"
        );
        assert!(
            WlsFactor::new(dup, &cases[5].1, 0.0).is_ok(),
            "and the jitter rescues it"
        );
        assert!(
            WlsFactor::new(neg, &cases[6].1, 0.0).is_err(),
            "negative weights fail"
        );
    }

    #[test]
    fn dimension_mismatch_detected() {
        let x = Matrix::zeros(3, 2);
        assert_eq!(
            weighted_least_squares(&x, &[1.0; 2], &[1.0; 3], 0.0),
            Err(SolveError::DimensionMismatch)
        );
        assert_eq!(
            WlsFactor::new(&x, &[1.0; 2], 0.0).map(|_| ()),
            Err(SolveError::DimensionMismatch)
        );
        let f = WlsFactor::new(&Matrix::identity(2), &[1.0; 2], 0.0).unwrap();
        assert_eq!(f.solve(&[1.0; 3]), Err(SolveError::DimensionMismatch));
    }
}
