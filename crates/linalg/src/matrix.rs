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
    /// One packed, register-tiled kernel: the rows of `other` that meet a
    /// nonzero column of `self` are packed into 8-column panels, and 4 × 8
    /// tiles of the output accumulate in registers across them. All-zero
    /// columns of `self` (absent counters in coalition rows, dead ReLU
    /// units) cost nothing. An AVX2 build of the kernel runs when the CPU
    /// has AVX2.
    ///
    /// Each output element sums the same products in the same ascending
    /// `k` order, from `+0.0`, as the plain `ikj` loop with an exact-zero
    /// skip. The tile also adds the `±0` products of zeros in `self`; a
    /// sum that starts at `+0.0` is never `-0.0` under round-to-nearest,
    /// so those leave it unchanged, as long as `other` is finite. A
    /// non-finite `other` (where `0 * inf` would be NaN) takes the `ikj`
    /// loop instead, so the bits are the loop's either way.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        if !other.data.iter().all(|b| b.is_finite()) {
            return self.matmul_ikj(other);
        }
        self.packed_product(other, true)
    }

    /// `matmul`'s tile kernel without the finite guard: its live rows of
    /// `other` packed into panels, then [`Matrix::tiled`].
    fn packed_product(&self, other: &Matrix, avx2: bool) -> Matrix {
        let live = self.live_cols();
        let n = other.cols;
        let mut panels = vec![[0.0; LANES]; live.len() * n.div_ceil(LANES)];
        for (idx, &k) in live.iter().enumerate() {
            for (p, b) in other.row(k).chunks(LANES).enumerate() {
                panels[p * live.len() + idx][..b.len()].copy_from_slice(b);
            }
        }
        self.tiled(&live, &panels, n, avx2)
    }

    /// `self * wᵀ` without building the transpose, for gradient products
    /// like `dy Wᵀ`.
    ///
    /// The same kernel as [`Matrix::matmul`], with its panels packed
    /// straight from the rows of `w`, so the bits are those of
    /// `self.matmul(&w.transpose())`.
    ///
    /// # Panics
    /// Panics if `self.cols != w.cols`.
    pub fn matmul_transpose(&self, w: &Matrix) -> Matrix {
        assert_eq!(self.cols, w.cols, "matmul_transpose dimension mismatch");
        if !w.data.iter().all(|b| b.is_finite()) {
            return self.matmul_ikj(&w.transpose());
        }
        let live = self.live_cols();
        let mut panels = vec![[0.0; LANES]; live.len() * w.rows.div_ceil(LANES)];
        for j in 0..w.rows {
            let w_row = w.row(j);
            let panel = &mut panels[j / LANES * live.len()..];
            for (slot, &k) in panel.iter_mut().zip(&live) {
                slot[j % LANES] = w_row[k];
            }
        }
        self.tiled(&live, &panels, w.rows, true)
    }

    /// The plain `ikj` product with an exact-zero skip: `matmul`'s answer
    /// when the right operand is not finite, and the reference its tile
    /// kernel is tested against.
    fn matmul_ikj(&self, other: &Matrix) -> Matrix {
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

    /// Ascending indices of the columns with at least one nonzero entry.
    fn live_cols(&self) -> Vec<usize> {
        let mut live = vec![false; self.cols];
        for row in self.data.chunks(self.cols.max(1)) {
            for (l, &a) in live.iter_mut().zip(row) {
                // xtask-allow: AIIO-F001 — exact-zero test: an all-zero column adds nothing (the finite guard covers `0 * inf`)
                *l |= a != 0.0;
            }
        }
        (0..self.cols).filter(|&k| live[k]).collect()
    }

    /// `self * B` for the `B` that `panels` packs: for each block of
    /// [`LANES`] output columns, one run of `live.len()` rows of `B`, the
    /// `idx`-th holding row `live[idx]`, zero-padded past `n`.
    ///
    /// `avx2` lets the AVX2 build of the kernel run when the CPU has it;
    /// both builds compute the same bits (tests pin the plain one too).
    fn tiled(&self, live: &[usize], panels: &[[f64; LANES]], n: usize, avx2: bool) -> Matrix {
        let mut out = Matrix::zeros(self.rows, n);
        if live.is_empty() || n == 0 {
            return out;
        }
        #[cfg(target_arch = "x86_64")]
        if avx2 && std::is_x86_feature_detected!("avx2") {
            // SAFETY: `tiles_avx2` is `tile_rows` compiled for AVX2, and
            // the line above checked that this CPU has it.
            unsafe { tiles_avx2(self, live, panels, &mut out.data) };
            return out;
        }
        let _ = avx2; // read only on x86_64
        tile_rows(self, live, panels, &mut out.data);
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

/// Output columns per register tile: two AVX2 registers of `f64`.
const LANES: usize = 8;

/// Rows per full register tile: the 4 × 8 accumulator fills eight AVX2
/// registers and reuses each packed `B` row four times.
const TILE_ROWS: usize = 4;

/// The tile kernel, compiled for AVX2.
///
/// # Safety
/// Outside AVX2 code a call needs `unsafe`: the caller must first check
/// that the CPU has AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tiles_avx2(a: &Matrix, live: &[usize], panels: &[[f64; LANES]], out: &mut [f64]) {
    tile_rows(a, live, panels, out);
}

/// The one source of the tile kernel, inlined into both builds (the
/// plain one in [`Matrix::tiled`], and `tiles_avx2`): full
/// [`TILE_ROWS`]-row tiles, then one-row tiles for the remainder.
#[inline(always)]
fn tile_rows(a: &Matrix, live: &[usize], panels: &[[f64; LANES]], out: &mut [f64]) {
    let full = a.rows - a.rows % TILE_ROWS;
    let mut quad = vec![[0.0; TILE_ROWS]; live.len()];
    for i0 in (0..full).step_by(TILE_ROWS) {
        row_block(a, i0, live, panels, &mut quad, out);
    }
    let mut single = vec![[0.0; 1]; live.len()];
    for i0 in full..a.rows {
        row_block(a, i0, live, panels, &mut single, out);
    }
}

/// Rows `i0..i0 + R` of the product. Their live entries are gathered
/// into `a_pack`; then, per panel, an `R × LANES` accumulator starts at
/// `+0.0`, adds one product per live `k` in ascending order, and its
/// valid columns are stored.
#[inline(always)]
fn row_block<const R: usize>(
    a: &Matrix,
    i0: usize,
    live: &[usize],
    panels: &[[f64; LANES]],
    a_pack: &mut [[f64; R]],
    out: &mut [f64],
) {
    for (dst, &k) in a_pack.iter_mut().zip(live) {
        for (r, d) in dst.iter_mut().enumerate() {
            *d = a.data[(i0 + r) * a.cols + k];
        }
    }
    let n = out.len() / a.rows;
    for (p, panel) in panels.chunks_exact(live.len()).enumerate() {
        let mut acc = [[0.0; LANES]; R];
        for (av, bv) in a_pack.iter().zip(panel) {
            for (acc_r, &ar) in acc.iter_mut().zip(av) {
                for (o, &b) in acc_r.iter_mut().zip(bv) {
                    *o += ar * b;
                }
            }
        }
        let c0 = p * LANES;
        let width = LANES.min(n - c0);
        for (r, acc_r) in acc.iter().enumerate() {
            let start = (i0 + r) * n + c0;
            out[start..start + width].copy_from_slice(&acc_r[..width]);
        }
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

    /// Bits with every NaN read as one: Rust leaves NaN payloads
    /// unspecified, so only "NaN here" is a property of the arithmetic.
    fn bits(m: &Matrix) -> Vec<u64> {
        let nan = f64::NAN.to_bits();
        m.as_slice()
            .iter()
            .map(|x| if x.is_nan() { nan } else { x.to_bits() })
            .collect()
    }

    /// A value drawn from the awkward corners: exact and negative zeros,
    /// subnormals, magnitudes whose products overflow to `inf`, and (when
    /// `non_finite`) `inf` and NaN themselves.
    fn awkward(rng: &mut impl rand::Rng, non_finite: bool) -> f64 {
        match rng.gen_range(0..if non_finite { 12 } else { 10 }) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => rng.gen_range(-4.0..4.0) * f64::MIN_POSITIVE,
            4 => f64::from_bits(rng.gen_range(1..8)),
            5 => rng.gen_range(-1.0..1.0) * 1e300,
            10 => f64::NAN,
            11 => f64::NEG_INFINITY,
            _ => rng.gen_range(-2.0..2.0),
        }
    }

    /// A `rows x cols` matrix of [`awkward`] values, with about a third of
    /// its columns all zero (as dead ReLU units and absent counters are).
    fn awkward_matrix(
        rng: &mut impl rand::Rng,
        rows: usize,
        cols: usize,
        non_finite: bool,
    ) -> Matrix {
        let dead: Vec<bool> = (0..cols).map(|_| rng.gen_range(0..3) == 0).collect();
        Matrix::from_fn(rows, cols, |_, j| {
            if dead[j] {
                0.0
            } else {
                awkward(rng, non_finite)
            }
        })
    }

    #[test]
    fn tile_kernel_is_bit_identical_to_the_ikj_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(30);
        let avx2 = is_avx2();
        let ms = (0..=13).chain([131]);
        let ns: Vec<usize> = (1..=20).chain([89]).collect();
        let mut cases = 0;
        for m in ms {
            for &n in &ns {
                // Every `k` in 0..=47 comes up across the `m` sweep.
                for k in [rng.gen_range(0..=47), (m * 21 + n) % 48] {
                    // `A` may hold NaN and `inf`; `B` is finite, so the
                    // tile kernel itself runs.
                    let a = awkward_matrix(&mut rng, m, k, true);
                    let b = awkward_matrix(&mut rng, k, n, false);
                    let want = bits(&a.matmul_ikj(&b));
                    let plain = a.packed_product(&b, false);
                    assert_eq!((plain.rows(), plain.cols()), (m, n));
                    assert_eq!(bits(&plain), want, "plain build, {m}x{k}x{n}");
                    if avx2 {
                        let simd = a.packed_product(&b, true);
                        assert_eq!(bits(&simd), want, "AVX2 build, {m}x{k}x{n}");
                    }
                    assert_eq!(bits(&a.matmul(&b)), want, "matmul, {m}x{k}x{n}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 15 * 21 * 2);
    }

    /// Whether this CPU runs the AVX2 build.
    fn is_avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn non_finite_weights_take_the_ikj_fallback() {
        // Zeros in `a` meet `inf` and NaN in `b`: the loop skips them, a
        // tile would add `0 * inf = NaN`.
        let a = Matrix::from_rows(&[
            vec![0.0, 1.0, -0.0],
            vec![2.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0],
            vec![1.0, 1.0, 0.0],
            vec![0.0, -3.0, 0.5],
        ]);
        let b = Matrix::from_rows(&[
            vec![f64::INFINITY, 1.0, 0.0],
            vec![2.0, f64::NAN, -1.0],
            vec![0.0, 4.0, f64::NEG_INFINITY],
        ]);
        let want = a.matmul_ikj(&b);
        assert_eq!(bits(&a.matmul(&b)), bits(&want));
        assert_eq!(want[(0, 0)], 2.0, "the loop skips 0 * inf");
        // The guard is load-bearing: the unguarded tile reads NaN there.
        assert!(a.packed_product(&b, false)[(0, 0)].is_nan());
        assert_eq!(
            bits(&a.matmul_transpose(&b.transpose())),
            bits(&want),
            "matmul_transpose falls back too"
        );
    }

    #[test]
    fn matmul_transpose_is_bit_identical_to_matmul_of_the_transpose() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        for (m, k, n) in [
            (0, 3, 4),
            (5, 0, 3),
            (1, 1, 1),
            (7, 9, 17),
            (64, 90, 89),
            (131, 47, 9),
            (13, 29, 1),
        ] {
            for non_finite_w in [false, true] {
                let a = awkward_matrix(&mut rng, m, k, true);
                let w = awkward_matrix(&mut rng, n, k, non_finite_w);
                let got = a.matmul_transpose(&w);
                assert_eq!((got.rows(), got.cols()), (m, n));
                assert_eq!(bits(&got), bits(&a.matmul(&w.transpose())));
                assert_eq!(bits(&got), bits(&a.matmul_ikj(&w.transpose())));
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul_transpose dimension mismatch")]
    fn matmul_transpose_rejects_mismatched_shapes() {
        let _ = Matrix::zeros(2, 3).matmul_transpose(&Matrix::zeros(3, 2));
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
