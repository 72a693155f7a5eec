//! The inference pass of both nets is a pure function of the fitted
//! parameters and of each row alone:
//!
//! * a prediction does not depend on how a batch is split — whole batch,
//!   one row at a time, and the `aiio_par::chunk_bounds` partition that
//!   parallel explainers use all give the same bits;
//! * a fitted model carries no training state: it equals its serde round
//!   trip field for field and predicts the same bits.

use aiio_nn::{Mlp, MlpConfig, TabNet, TabNetConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let y = x.iter().map(|r| 2.0 * r[0] - r[3] + r[1] * r[4]).collect();
    (x, y)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

/// Whole batch == row by row == concatenated `chunk_bounds` chunks.
fn assert_split_invariant(
    predict: impl Fn(&[Vec<f64>]) -> Vec<f64>,
    predict_one: impl Fn(&[f64]) -> f64,
) {
    let (x, _) = data(203, 99);
    let whole = bits(&predict(&x));
    assert_eq!(whole.len(), x.len());
    let rows: Vec<f64> = x.iter().map(|r| predict_one(r)).collect();
    assert_eq!(
        bits(&rows),
        whole,
        "per-row predictions differ from the batch"
    );
    let chunks: Vec<f64> = aiio_par::chunk_bounds(x.len())
        .into_iter()
        .flat_map(|(start, end)| predict(&x[start..end]))
        .collect();
    assert_eq!(
        bits(&chunks),
        whole,
        "chunked predictions differ from the batch"
    );
}

fn mlp() -> (Mlp, Vec<Vec<f64>>) {
    let (x, y) = data(300, 1);
    let (vx, vy) = data(80, 2);
    // Batch norm and dropout both active, and a validation set so the
    // returned parameters are an early-stopping snapshot.
    let cfg = MlpConfig {
        hidden: vec![16, 12, 8],
        batch_size: 64,
        max_epochs: 6,
        ..MlpConfig::small()
    };
    (Mlp::fit(&cfg, &x, &y, Some((&vx, &vy))).unwrap(), vx)
}

fn tabnet() -> (TabNet, Vec<Vec<f64>>) {
    let (x, y) = data(300, 3);
    let (vx, vy) = data(80, 4);
    let cfg = TabNetConfig {
        batch_size: 64,
        max_epochs: 6,
        ..TabNetConfig::small()
    };
    (TabNet::fit(&cfg, &x, &y, Some((&vx, &vy))).unwrap(), vx)
}

#[test]
fn mlp_predictions_do_not_depend_on_the_batch_split() {
    let (m, _) = mlp();
    assert_split_invariant(|x| m.predict(x), |r| m.predict_one(r));
}

#[test]
fn tabnet_predictions_do_not_depend_on_the_batch_split() {
    let (m, _) = tabnet();
    assert_split_invariant(|x| m.predict(x), |r| m.predict_one(r));
}

#[test]
fn fitted_mlp_equals_its_serde_round_trip() {
    let (m, x) = mlp();
    let back: Mlp = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
    assert_eq!(
        format!("{back:?}"),
        format!("{m:?}"),
        "fitted model holds training state"
    );
    assert_eq!(bits(&back.predict(&x)), bits(&m.predict(&x)));
}

#[test]
fn fitted_tabnet_equals_its_serde_round_trip() {
    let (m, x) = tabnet();
    let back: TabNet = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
    assert_eq!(
        format!("{back:?}"),
        format!("{m:?}"),
        "fitted model holds training state"
    );
    assert_eq!(bits(&back.predict(&x)), bits(&m.predict(&x)));
}
