//! The five performance-function models behind one interface.

use aiio_explain::Predictor;
use aiio_gbdt::Booster;
use aiio_nn::{Mlp, TabNet};
use serde::{Deserialize, Serialize};

/// Which of the paper's five models a trained performance function is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Level-wise GBDT (XGBoost-style).
    XgboostLike,
    /// Leaf-wise GBDT (LightGBM-style).
    LightgbmLike,
    /// Oblivious GBDT (CatBoost-style).
    CatboostLike,
    /// Multilayer perceptron (paper Table 5).
    Mlp,
    /// TabNet.
    TabNet,
}

impl ModelKind {
    /// All five kinds in the paper's order (Table 2).
    pub const ALL: [ModelKind; 5] = [
        ModelKind::CatboostLike,
        ModelKind::LightgbmLike,
        ModelKind::XgboostLike,
        ModelKind::Mlp,
        ModelKind::TabNet,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::XgboostLike => "XGBoost",
            ModelKind::LightgbmLike => "LightGBM",
            ModelKind::CatboostLike => "CatBoost",
            ModelKind::Mlp => "MLP",
            ModelKind::TabNet => "TabNet",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A trained performance function of any kind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyModel {
    Gbdt(Booster),
    Mlp(Mlp),
    TabNet(TabNet),
}

impl AnyModel {
    /// Predict one transformed-feature row.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        match self {
            AnyModel::Gbdt(m) => m.predict_one(x),
            AnyModel::Mlp(m) => m.predict_one(x),
            AnyModel::TabNet(m) => m.predict_one(x),
        }
    }

    /// Predict a batch.
    pub fn predict_batch(&self, x: &[Vec<f64>]) -> Vec<f64> {
        match self {
            AnyModel::Gbdt(m) => m.predict(x),
            AnyModel::Mlp(m) => m.predict(x),
            AnyModel::TabNet(m) => m.predict(x),
        }
    }

    /// Access the underlying booster when this is a tree model (TreeSHAP).
    pub fn as_gbdt(&self) -> Option<&Booster> {
        match self {
            AnyModel::Gbdt(m) => Some(m),
            _ => None,
        }
    }
}

impl Predictor for AnyModel {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        AnyModel::predict_batch(self, rows)
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        AnyModel::predict_one(self, row)
    }

    fn predict_coalitions(
        &self,
        x: &[f64],
        background: &[f64],
        active: &[usize],
        masks: &[usize],
    ) -> Vec<f64> {
        match self {
            AnyModel::Gbdt(m) => m.predict_coalitions(x, background, active, masks),
            _ => aiio_explain::predict_coalition_rows(self, x, background, active, masks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_gbdt::GbdtConfig;
    use aiio_nn::{MlpConfig, TabNetConfig};

    #[test]
    fn kinds_have_unique_paper_names() {
        let names: std::collections::HashSet<&str> =
            ModelKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 5);
        assert_eq!(ModelKind::XgboostLike.to_string(), "XGBoost");
    }

    #[test]
    fn any_model_predicts_through_the_trait() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        let cfg = GbdtConfig {
            n_rounds: 20,
            ..GbdtConfig::xgboost_like()
        };
        let m = AnyModel::Gbdt(Booster::fit(&cfg, &x, &y, None).unwrap());
        let p1 = m.predict_one(&[25.0]);
        let p2 = Predictor::predict_batch(&m, &[vec![25.0]])[0];
        assert_eq!(p1, p2);
        assert!((p1 - 50.0).abs() < 10.0);
        assert!(m.as_gbdt().is_some());
    }

    #[test]
    fn every_kind_predicts_an_empty_batch_as_empty() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] - r[1]).collect();
        let gbdt = GbdtConfig {
            n_rounds: 5,
            ..GbdtConfig::xgboost_like()
        };
        let mlp = MlpConfig {
            max_epochs: 2,
            ..MlpConfig::small()
        };
        let tabnet = TabNetConfig {
            max_epochs: 2,
            ..TabNetConfig::small()
        };
        let models = [
            AnyModel::Gbdt(Booster::fit(&gbdt, &x, &y, None).unwrap()),
            AnyModel::Mlp(Mlp::fit(&mlp, &x, &y, None).unwrap()),
            AnyModel::TabNet(TabNet::fit(&tabnet, &x, &y, None).unwrap()),
        ];
        for m in &models {
            assert_eq!(Predictor::predict_batch(m, &[]), Vec::<f64>::new());
        }
    }
}
