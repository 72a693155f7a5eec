//! Scalar and vector activation functions.
//!
//! Includes the exact `sparsemax` projection (Martins & Astudillo, 2016)
//! that TabNet's attentive transformer uses for feature-selection masks,
//! together with its Jacobian-vector product for backpropagation.

/// Rectified linear unit.
#[inline]
pub fn relu(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Derivative of [`relu`] (subgradient 0 at the kink).
#[inline]
pub fn relu_grad(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Logistic sigmoid, numerically stable for large |x|.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Gated linear unit over a pre-split pair: `a * sigmoid(b)`.
#[inline]
pub fn glu(a: f64, b: f64) -> f64 {
    a * sigmoid(b)
}

/// Numerically-stable softmax of a slice (subtracts the max before `exp`).
pub fn softmax(z: &[f64]) -> Vec<f64> {
    if z.is_empty() {
        return Vec::new();
    }
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = z.iter().map(|&x| (x - m).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Exact sparsemax: the Euclidean projection of `z` onto the probability
/// simplex. Unlike softmax it produces genuinely sparse distributions,
/// which is what gives TabNet's masks their feature-selection behaviour.
///
/// Returns a vector `p` with `p_i >= 0`, `Σ p_i = 1`, and `p_i = 0` outside
/// the support. See [`sparsemax_in_place`] for the allocation-free form.
pub fn sparsemax(z: &[f64]) -> Vec<f64> {
    let mut p = z.to_vec();
    sparsemax_in_place(&mut p, &mut Vec::new());
    p
}

/// [`sparsemax`] of `row`, written over `row`. `keys` is scratch space the
/// caller keeps across rows so a batch of rows allocates once.
///
/// The support search walks the values in descending [`f64::total_cmp`]
/// order. Each value is sorted as its `total_cmp` key, an `i64` whose
/// integer order is that order; equal keys are equal bits, so an unstable
/// integer sort yields the same value sequence, and the same cumulative
/// sums, as a stable float sort.
pub fn sparsemax_in_place(row: &mut [f64], keys: &mut Vec<i64>) {
    if row.is_empty() {
        return;
    }
    keys.clear();
    keys.extend(row.iter().map(|&x| total_order_key(x)));
    keys.sort_unstable();
    // Find the support size via the threshold condition
    // 1 + j*z_(j) > Σ_{i<=j} z_(i) over the values in descending order.
    let mut cumsum = 0.0;
    let mut support = 0;
    let mut support_sum = 0.0;
    for (j, &key) in keys.iter().rev().enumerate() {
        let zj = from_total_order_key(key);
        cumsum += zj;
        let jf = (j + 1) as f64;
        if 1.0 + jf * zj > cumsum {
            support = j + 1;
            support_sum = cumsum;
        }
    }
    let tau = (support_sum - 1.0) / support as f64;
    for x in row.iter_mut() {
        *x = (*x - tau).max(0.0);
    }
}

/// The key [`f64::total_cmp`] compares: flipping the magnitude bits of
/// negative values makes the signed integer order the total float order.
#[inline]
fn total_order_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64 >> 1) as i64)
}

/// Inverse of [`total_order_key`] (the flip is its own inverse: the sign
/// bit it reads is never flipped).
#[inline]
fn from_total_order_key(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64 >> 1) as i64)) as u64)
}

/// Jacobian-vector product of sparsemax at output `p` applied to upstream
/// gradient `g`: `J^T g` where `J = diag(s) - s s^T / |S|` and `s` is the
/// support indicator. Needed for TabNet backprop.
pub fn sparsemax_jvp(p: &[f64], g: &[f64]) -> Vec<f64> {
    assert_eq!(p.len(), g.len());
    let support: Vec<bool> = p.iter().map(|&x| x > 0.0).collect();
    let k = support.iter().filter(|&&s| s).count();
    if k == 0 {
        return vec![0.0; p.len()];
    }
    let mean_g: f64 = g
        .iter()
        .zip(&support)
        .filter(|(_, &s)| s)
        .map(|(&x, _)| x)
        .sum::<f64>()
        / k as f64;
    g.iter()
        .zip(&support)
        .map(|(&gi, &s)| if s { gi - mean_g } else { 0.0 })
        .collect()
}

/// `log10(x + 1)` — the paper's Eq. 2 feature transform.
#[inline]
pub fn log1p10(x: f64) -> f64 {
    (x + 1.0).log10()
}

/// Inverse of [`log1p10`].
#[inline]
pub fn inv_log1p10(y: f64) -> f64 {
    10f64.powf(y) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(relu(-3.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(1.0), 1.0);
    }

    #[test]
    fn sigmoid_symmetry_and_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn softmax_stable_under_large_inputs() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sparsemax_matches_softmax_limit_on_uniform() {
        let p = sparsemax(&[0.5, 0.5, 0.5]);
        for &x in &p {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sparsemax_is_sparse_for_spread_inputs() {
        let p = sparsemax(&[3.0, 0.0, -3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(p[0], 1.0);
        assert_eq!(p[1], 0.0);
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn sparsemax_simplex_properties() {
        let z = [0.9, 0.2, -0.1, 0.4];
        let p = sparsemax(&z);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x >= 0.0));
        // Order preserved on the support.
        assert!(p[0] >= p[3] && p[3] >= p[1]);
    }

    #[test]
    fn sparsemax_shift_invariance() {
        // Projection onto the simplex is invariant to adding a constant.
        let z = [0.3, -0.2, 0.8];
        let p1 = sparsemax(&z);
        let shifted: Vec<f64> = z.iter().map(|x| x + 5.0).collect();
        let p2 = sparsemax(&shifted);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sparsemax_jvp_zero_mean_on_support() {
        let p = sparsemax(&[0.9, 0.2, -5.0]);
        let g = [1.0, 2.0, 3.0];
        let jvp = sparsemax_jvp(&p, &g);
        // Off-support entries get zero gradient.
        assert_eq!(jvp[2], 0.0);
        // On-support entries are centred.
        let s: f64 = jvp.iter().take(2).sum();
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn sparsemax_jvp_finite_difference_check() {
        // Directional derivative of sparsemax along g matches JVP where the
        // support is stable.
        let z = [0.9, 0.2, -0.1, 0.4];
        let g = [0.3, -0.1, 0.2, 0.05];
        let eps = 1e-7;
        let zp: Vec<f64> = z.iter().zip(&g).map(|(a, b)| a + eps * b).collect();
        let zm: Vec<f64> = z.iter().zip(&g).map(|(a, b)| a - eps * b).collect();
        let fd: Vec<f64> = sparsemax(&zp)
            .iter()
            .zip(sparsemax(&zm))
            .map(|(a, b)| (a - b) / (2.0 * eps))
            .collect();
        let p = sparsemax(&z);
        let jvp = sparsemax_jvp(&p, &g);
        for (a, b) in fd.iter().zip(&jvp) {
            assert!((a - b).abs() < 1e-5, "fd {fd:?} vs jvp {jvp:?}");
        }
    }

    /// Reference sparsemax: a stable descending `total_cmp` sort of a
    /// copied row, which the integer-key sort must match bit for bit.
    fn sparsemax_stable_sort(z: &[f64]) -> Vec<f64> {
        let k = z.len();
        if k == 0 {
            return Vec::new();
        }
        let mut sorted: Vec<f64> = z.to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let mut cumsum = 0.0;
        let mut support = 0;
        let mut support_sum = 0.0;
        for (j, &zj) in sorted.iter().enumerate() {
            cumsum += zj;
            let jf = (j + 1) as f64;
            if 1.0 + jf * zj > cumsum {
                support = j + 1;
                support_sum = cumsum;
            }
        }
        let tau = (support_sum - 1.0) / support as f64;
        z.iter().map(|&x| (x - tau).max(0.0)).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn total_order_keys_sort_like_total_cmp_and_round_trip() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(total_order_key(w[0]) < total_order_key(w[1]), "{w:?}");
        }
        for &v in &vals {
            assert_eq!(
                from_total_order_key(total_order_key(v)).to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn integer_key_sparsemax_is_bit_identical_to_the_stable_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(24);
        let mut keys = Vec::new();
        let mut check = |z: &[f64]| {
            let mut row = z.to_vec();
            sparsemax_in_place(&mut row, &mut keys);
            assert_eq!(bits(&row), bits(&sparsemax_stable_sort(z)), "z = {z:?}");
            assert_eq!(bits(&sparsemax(z)), bits(&row), "z = {z:?}");
        };
        // Fixed edge cases: one element, all equal, signed zeros, subnormals,
        // large magnitudes, and ties straddling the support threshold.
        let fixed: [&[f64]; 10] = [
            &[],
            &[0.3],
            &[-7.5],
            &[0.25; 46],
            &[0.0, -0.0, 0.0, -0.0],
            &[-0.0, 1.0, 0.0, 1.0, -0.0],
            &[5e-324, -5e-324, 2.2e-308, -2.2e-308, 0.0],
            &[1e300, -1e300, 1e308, -1e308, 1.0],
            &[0.5, 0.5, 0.5, 0.1, 0.1, -0.1],
            &[1.0, 1.0, 0.0, 0.0, 0.0],
        ];
        for z in fixed {
            check(z);
        }
        // Random rows drawn from small value pools (many ties) and from
        // wide ranges, at TabNet's width and others.
        let pool = [
            0.0, -0.0, 0.5, -0.5, 1.0, 5e-324, -5e-324, 1e300, -1e300, 0.125,
        ];
        for case in 0..2000 {
            let len = rng.gen_range(1..64);
            let z: Vec<f64> = (0..len)
                .map(|_| match case % 4 {
                    0 => pool[rng.gen_range(0..pool.len())],
                    1 => rng.gen_range(-3.0..3.0),
                    2 => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-320..300)),
                    _ => f64::from_bits(rng.gen::<u64>() & !(0x7ffu64 << 52)),
                })
                .collect();
            check(&z);
        }
    }

    #[test]
    fn log_transform_roundtrip() {
        for &x in &[0.0, 1.0, 42.0, 6309573.0] {
            let y = log1p10(x);
            assert!((inv_log1p10(y) - x).abs() < 1e-6 * (x + 1.0));
        }
        assert_eq!(log1p10(0.0), 0.0);
    }
}
