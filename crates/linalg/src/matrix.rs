//! Row-major dense `f64` matrix with the operations the rest of the
//! workspace needs: construction, elementwise maps, transpose, and a
//! vectorisation-friendly matrix multiply.

use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f64`.
///
/// Row-major layout matches how job feature vectors are produced (one row
/// per job), so mini-batch extraction is a contiguous copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Create a matrix from a slice of equally-long rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Copy column `j` out into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix multiply `self * other`.
    ///
    /// The inner loops run in `ikj` order so the innermost accesses both
    /// operands sequentially, which lets the compiler vectorise.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        out.data.chunks_mut(n).enumerate().for_each(|(i, out_row)| {
            let a_row = self.row(i);
            for (k, &a) in a_row.iter().enumerate() {
                // xtask-allow: AIIO-F001 — exact-zero skip: sparse rows shortcut, correct for any nonzero
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        });
        out
    }

    /// `selfᵀ * other` without building the transpose, for gradient
    /// products like `xᵀ dy`.
    ///
    /// Each output element sums the same products in the same ascending
    /// `k` order, with the same exact-zero skip, as
    /// `self.transpose().matmul(other)`, so the bits are the same.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "transpose_matmul dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        // Output rows go in blocks of about 16 KiB, which stay in L1
        // while every `k` streams past.
        let block = (2048 / n.max(1)).max(1);
        for i0 in (0..self.cols).step_by(block) {
            let i1 = (i0 + block).min(self.cols);
            for k in 0..self.rows {
                let b_row = other.row(k);
                for (i, &a) in (i0..i1).zip(&self.row(k)[i0..i1]) {
                    // xtask-allow: AIIO-F001 — exact-zero skip, as in `matmul`
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &b) in out.data[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        }
        out
    }

    /// `self * v` for a vector `v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Elementwise binary combination `f(self, other)` into a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "zip_map shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Add `other` scaled by `alpha` into `self` (axpy).
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Extract the rows at `indices` into a new matrix (gather).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Per-column mean.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (m, &x) in means.iter_mut().zip(self.row(i)) {
                *m += x;
            }
        }
        let n = self.rows.max(1) as f64;
        means.iter_mut().for_each(|m| *m /= n);
        means
    }

    /// Per-column (population) variance.
    pub fn col_variances(&self) -> Vec<f64> {
        let means = self.col_means();
        let mut vars = vec![0.0; self.cols];
        for i in 0..self.rows {
            for ((v, &m), &x) in vars.iter_mut().zip(&means).zip(self.row(i)) {
                let d = x - m;
                *v += d * d;
            }
        }
        let n = self.rows.max(1) as f64;
        vars.iter_mut().for_each(|v| *v /= n);
        vars
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]])
        );
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_matmul_is_bit_identical_to_transpose_then_matmul() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for (rows, a_cols, b_cols) in [
            (1, 1, 1),
            (7, 3, 5),
            (64, 46, 32),
            (33, 90, 89),
            (9, 40, 3000),
            (5, 0, 4),
        ] {
            // Roughly 40% exact zeros (and some negative zeros) in `a`, as
            // ReLU activations have.
            let a = Matrix::from_fn(rows, a_cols, |_, _| match rng.gen_range(0..5) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0..2.0),
            });
            let b = Matrix::from_fn(rows, b_cols, |_, _| rng.gen_range(-1e3..1e3));
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let got = a.transpose_matmul(&b);
            assert_eq!((got.rows(), got.cols()), (a_cols, b_cols));
            assert_eq!(bits(&got), bits(&a.transpose().matmul(&b)));
        }
    }

    #[test]
    #[should_panic(expected = "transpose_matmul dimension mismatch")]
    fn transpose_matmul_rejects_mismatched_shapes() {
        let _ = Matrix::zeros(2, 3).transpose_matmul(&Matrix::zeros(3, 2));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]);
        let v = vec![3.0, 4.0];
        let got = a.matvec(&v);
        assert_eq!(got, vec![-1.0, 8.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn gather_rows_picks_rows_in_order() {
        let a = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g, Matrix::from_rows(&[vec![2.0], vec![0.0], vec![2.0]]));
    }

    #[test]
    fn col_means_and_variances() {
        let a = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]);
        assert_eq!(a.col_means(), vec![2.0, 10.0]);
        assert_eq!(a.col_variances(), vec![1.0, 0.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![10.0, 20.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::from_rows(&[vec![6.0, 12.0]]));
        a.scale(2.0);
        assert_eq!(a, Matrix::from_rows(&[vec![12.0, 24.0]]));
    }

    #[test]
    fn map_and_zip_map() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0]]);
        assert_eq!(a.map(f64::abs), Matrix::from_rows(&[vec![1.0, 2.0]]));
        let b = Matrix::from_rows(&[vec![3.0, 3.0]]);
        assert_eq!(
            a.zip_map(&b, |x, y| x * y),
            Matrix::from_rows(&[vec![3.0, -6.0]])
        );
    }

    #[test]
    fn frobenius_norm_of_unit_rows() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
