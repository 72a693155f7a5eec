//! A Gauge-style group-level baseline (Del Rosario et al., PDSW 2020) —
//! the approach the paper's Fig. 1 critiques.
//!
//! Gauge clusters jobs with HDBSCAN, fits one performance model per
//! cluster, and explains at the *cluster* level. Its published analysis
//! samples explanations against the data distribution (a mean background),
//! which assigns nonzero impact to counters that are zero for an
//! individual job — the non-robust behaviour shown in Fig. 1(d). This
//! module reproduces all four failure modes so the benches can regenerate
//! the figure:
//!
//! * Fig. 1(a): per-member prediction error vs the cluster-average error;
//! * Fig. 1(b): cluster-level counter importance;
//! * Fig. 1(c): one member's counter importance — differing from (b);
//! * Fig. 1(d): zero-valued counters receiving nonzero impact.

use aiio_cluster::{Hdbscan, HdbscanConfig};
use aiio_darshan::Dataset;
use aiio_explain::kernel::{KernelShap, KernelShapConfig};
use aiio_explain::Attribution;
use aiio_gbdt::{Booster, GbdtConfig};
use serde::{Deserialize, Serialize};

/// Gauge baseline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeConfig {
    pub hdbscan: HdbscanConfig,
    pub model: GbdtConfig,
    /// Explanation budget per member.
    pub max_evals: usize,
    pub seed: u64,
}

impl Default for GaugeConfig {
    fn default() -> Self {
        Self {
            hdbscan: HdbscanConfig {
                min_cluster_size: 16,
                min_samples: 8,
            },
            model: GbdtConfig {
                n_rounds: 60,
                max_depth: 5,
                ..GbdtConfig::xgboost_like()
            },
            max_evals: 512,
            seed: 0,
        }
    }
}

/// Analysis of one extracted cluster.
#[derive(Debug, Clone)]
pub struct ClusterAnalysis {
    /// HDBSCAN label.
    pub label: i32,
    /// Dataset row indices of the members.
    pub members: Vec<usize>,
    /// The per-cluster performance model.
    pub model: Booster,
    /// Mean feature vector of the cluster — Gauge's explanation background.
    pub mean_features: Vec<f64>,
    /// Absolute prediction error per member (Fig. 1a bars).
    pub member_abs_errors: Vec<f64>,
}

impl ClusterAnalysis {
    /// The cluster-average absolute error (Fig. 1a's "Average" line).
    pub fn average_abs_error(&self) -> f64 {
        if self.member_abs_errors.is_empty() {
            return 0.0;
        }
        self.member_abs_errors.iter().sum::<f64>() / self.member_abs_errors.len() as f64
    }
}

/// The fitted group-level analysis.
#[derive(Debug, Clone)]
pub struct GaugeAnalysis {
    pub clustering: Hdbscan,
    pub clusters: Vec<ClusterAnalysis>,
    config: GaugeConfig,
}

impl GaugeAnalysis {
    /// Cluster the dataset and fit one model per cluster. A cluster whose
    /// model fails to fit propagates its [`aiio_gbdt::FitError`].
    pub fn fit(ds: &Dataset, config: &GaugeConfig) -> Result<GaugeAnalysis, aiio_gbdt::FitError> {
        let clustering = Hdbscan::fit(&ds.x, &config.hdbscan);
        // One independent booster per cluster; parallel over clusters with
        // results gathered in label order.
        let labels: Vec<i32> = (0..clustering.n_clusters as i32).collect();
        let fits = aiio_par::map(&labels, |&label| {
            let members = clustering.members(label);
            let x: Vec<Vec<f64>> = members.iter().map(|&i| ds.x[i].clone()).collect();
            let y: Vec<f64> = members.iter().map(|&i| ds.y[i]).collect();
            let model = Booster::fit(&config.model, &x, &y, None)?;
            let pred = model.predict(&x);
            let member_abs_errors: Vec<f64> =
                pred.iter().zip(&y).map(|(p, t)| (p - t).abs()).collect();
            let n = x.len() as f64;
            let dims = x[0].len();
            let mut mean_features = vec![0.0; dims];
            for row in &x {
                for (m, v) in mean_features.iter_mut().zip(row) {
                    *m += v / n;
                }
            }
            Ok(ClusterAnalysis {
                label,
                members,
                model,
                mean_features,
                member_abs_errors,
            })
        });
        let clusters = fits.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(GaugeAnalysis {
            clustering,
            clusters,
            config: config.clone(),
        })
    }

    /// Gauge-style explanation of one member: Kernel SHAP against the
    /// cluster-mean background. Because the background is nonzero, zero
    /// counters of the member participate in coalitions and receive
    /// nonzero impact — the Fig. 1(d) non-robustness.
    // xtask-allow: AIIO-S001 — the Gauge baseline is deliberately non-robust
    // (nonzero cluster-mean background) to reproduce Fig. 1(d); masking happens
    // inside KernelShap::explain against that background
    pub fn explain_member(&self, cluster: &ClusterAnalysis, features: &[f64]) -> Attribution {
        let shap = KernelShap::new(KernelShapConfig {
            max_evals: self.config.max_evals,
            seed: self.config.seed,
        });
        shap.explain(&cluster.model, features, &cluster.mean_features)
    }

    /// Cluster-level counter importance (Fig. 1b): mean |SHAP| over a
    /// sample of members.
    pub fn cluster_importance(
        &self,
        cluster: &ClusterAnalysis,
        ds: &Dataset,
        sample: usize,
    ) -> Vec<f64> {
        let dims = ds.x[0].len();
        let mut total = vec![0.0; dims];
        let take = cluster.members.len().min(sample.max(1));
        for &i in cluster.members.iter().take(take) {
            let a = self.explain_member(cluster, &ds.x[i]);
            for (t, v) in total.iter_mut().zip(&a.values) {
                *t += v.abs();
            }
        }
        total.iter_mut().for_each(|t| *t /= take as f64);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_darshan::FeaturePipeline;
    use aiio_iosim::{DatabaseSampler, SamplerConfig};
    use std::sync::OnceLock;

    fn fitted() -> &'static (GaugeAnalysis, Dataset) {
        static CACHE: OnceLock<(GaugeAnalysis, Dataset)> = OnceLock::new();
        CACHE.get_or_init(|| {
            let db = DatabaseSampler::new(SamplerConfig {
                n_jobs: 240,
                seed: 11,
                noise_sigma: 0.0,
            })
            .generate();
            let ds = FeaturePipeline::paper().dataset_of(&db);
            let cfg = GaugeConfig {
                hdbscan: HdbscanConfig {
                    min_cluster_size: 10,
                    min_samples: 5,
                },
                model: GbdtConfig {
                    n_rounds: 20,
                    max_depth: 4,
                    ..GbdtConfig::xgboost_like()
                },
                max_evals: 128,
                seed: 0,
            };
            (GaugeAnalysis::fit(&ds, &cfg).unwrap(), ds)
        })
    }

    #[test]
    fn finds_clusters_on_the_synthetic_database() {
        let (g, ds) = fitted();
        assert!(g.clustering.n_clusters >= 1, "no clusters found");
        let member_total: usize = g.clusters.iter().map(|c| c.members.len()).sum();
        assert!(member_total + g.clustering.n_noise() == ds.len());
    }

    #[test]
    fn member_errors_spread_around_the_average() {
        // Fig. 1(a)'s point: individual member errors differ substantially
        // from the cluster average.
        let (g, _) = fitted();
        let c = g.clusters.iter().max_by_key(|c| c.members.len()).unwrap();
        let avg = c.average_abs_error();
        let max = c.member_abs_errors.iter().copied().fold(0.0f64, f64::max);
        assert!(max > avg, "max member error should exceed the average");
    }

    #[test]
    fn mean_background_explanation_is_non_robust() {
        // Fig. 1(d)'s point: with the cluster-mean background, a member's
        // zero counters can receive nonzero impact.
        let (g, ds) = fitted();
        let c = g.clusters.iter().max_by_key(|c| c.members.len()).unwrap();
        let mut found_violation = false;
        for &i in c.members.iter().take(10) {
            let a = g.explain_member(c, &ds.x[i]);
            let violations = aiio_explain::metrics::robustness_violations(&a, &ds.x[i]);
            if !violations.is_empty() {
                found_violation = true;
                break;
            }
        }
        assert!(
            found_violation,
            "expected Gauge-style explanations to be non-robust"
        );
    }

    #[test]
    fn cluster_importance_has_feature_width() {
        let (g, ds) = fitted();
        let c = &g.clusters[0];
        let imp = g.cluster_importance(c, ds, 5);
        assert_eq!(imp.len(), ds.x[0].len());
        assert!(imp.iter().any(|&v| v > 0.0));
    }
}
