//! The diagnosis function (paper §3.3): per-model SHAP/LIME attribution of
//! a single job's counters, merged across models, rendered as a ranked
//! bottleneck report.

use crate::advisor::{advice_for, Advice};
use crate::merge::{
    average_weights, closest_model, merge_attributions_average, MergeError, MergeMethod,
};
use crate::model::ModelKind;
use crate::zoo::ModelZoo;
use aiio_darshan::{CounterId, FeaturePipeline, JobLog, N_COUNTERS};
use aiio_explain::kernel::{KernelShap, KernelShapConfig};
use aiio_explain::lime::{Lime, LimeConfig};
use aiio_explain::{Attribution, Predictor};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Which interpretation technology drives the diagnosis (§3.3 supports
/// both; results are never merged across technologies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExplainerKind {
    /// SHAP Kernel Explainer (the paper's default).
    KernelShap,
    /// LIME.
    Lime,
}

/// Diagnosis configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosisConfig {
    pub explainer: ExplainerKind,
    pub merge: MergeMethod,
    /// Model-evaluation budget per explanation.
    pub max_evals: usize,
    /// RNG seed for coalition/perturbation sampling.
    pub seed: u64,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        Self {
            explainer: ExplainerKind::KernelShap,
            merge: MergeMethod::Average,
            max_evals: 1024,
            seed: 0,
        }
    }
}

/// One counter's contribution in a report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterContribution {
    pub counter: CounterId,
    /// The counter's raw (untransformed) value in the log.
    pub raw_value: f64,
    /// Its contribution `C_j` to the predicted (transformed) performance.
    pub contribution: f64,
}

/// The complete diagnosis of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosisReport {
    pub job_id: u64,
    pub app: String,
    /// Darshan-estimated performance (Eq. 1), MiB/s.
    pub performance_mib_s: f64,
    /// Per-model predicted performance in MiB/s, in zoo order.
    pub predictions_mib_s: Vec<(ModelKind, f64)>,
    /// Per-model attributions over the 46 counters, in zoo order.
    pub per_model: Vec<(ModelKind, Attribution)>,
    /// The merged attribution used for the ranking below.
    pub merged: Attribution,
    /// Which merge method produced `merged`.
    pub merge: MergeMethod,
    /// Counters with negative contributions, most negative first — the
    /// job's diagnosed bottlenecks.
    pub bottlenecks: Vec<CounterContribution>,
    /// Counters with positive contributions, largest first.
    pub positives: Vec<CounterContribution>,
    /// Tuning advice for the top bottlenecks.
    pub advice: Vec<Advice>,
}

impl DiagnosisReport {
    /// The single most negative counter, if any contribution is negative.
    pub fn top_bottleneck(&self) -> Option<CounterId> {
        self.bottlenecks.first().map(|c| c.counter)
    }

    /// True if no zero-valued counter received a nonzero contribution —
    /// the paper's robustness property.
    pub fn is_robust(&self, log: &JobLog) -> bool {
        CounterId::ALL.iter().all(|&c| {
            // xtask-allow: AIIO-F001 — exact zero IS the sparsity guarantee being checked
            log.counters.get(c) != 0.0 || self.merged.values[c.index()] == 0.0
        })
    }
}

impl std::fmt::Display for DiagnosisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "AIIO diagnosis — job {} ({})", self.job_id, self.app)?;
        writeln!(
            f,
            "  estimated performance: {:.2} MiB/s",
            self.performance_mib_s
        )?;
        for (kind, p) in &self.predictions_mib_s {
            writeln!(f, "  {kind:<9} predicts: {p:.2} MiB/s")?;
        }
        let scale = self
            .bottlenecks
            .iter()
            .chain(&self.positives)
            .map(|c| c.contribution.abs())
            .fold(0.0f64, f64::max)
            .max(1e-12);
        writeln!(f, "  top bottlenecks (negative impact):")?;
        for c in self.bottlenecks.iter().take(8) {
            let bars = ((c.contribution.abs() / scale) * 24.0).round() as usize;
            writeln!(
                f,
                "    {:<28} {:>10.4}  {}",
                c.counter.name(),
                c.contribution,
                "-".repeat(bars.max(1))
            )?;
        }
        writeln!(f, "  top positive factors:")?;
        for c in self.positives.iter().take(4) {
            let bars = ((c.contribution.abs() / scale) * 24.0).round() as usize;
            writeln!(
                f,
                "    {:<28} {:>10.4}  {}",
                c.counter.name(),
                c.contribution,
                "+".repeat(bars.max(1))
            )?;
        }
        if !self.advice.is_empty() {
            writeln!(f, "  suggested tuning:")?;
            for a in &self.advice {
                writeln!(f, "    - [{}] {}", a.counter.name(), a.suggestion)?;
            }
        }
        Ok(())
    }
}

/// Error from a diagnosis request — the typed boundary the serving layer
/// maps to HTTP 422 instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiagnoseError {
    /// The model zoo holds no trained models.
    EmptyZoo,
    /// The log fails [`JobLog::validate`]: a short counter vector, or a
    /// NaN, infinite or negative value the features would turn into NaN.
    InvalidLog(aiio_darshan::InvalidJobLog),
}

impl std::fmt::Display for DiagnoseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiagnoseError::EmptyZoo => write!(f, "cannot diagnose with an empty model zoo"),
            DiagnoseError::InvalidLog(e) => write!(f, "invalid job log: {e}"),
        }
    }
}

impl std::error::Error for DiagnoseError {}

impl From<MergeError> for DiagnoseError {
    fn from(e: MergeError) -> Self {
        match e {
            MergeError::NoModels => DiagnoseError::EmptyZoo,
        }
    }
}

/// Per-model memo of the background ("baseline") prediction
/// `f_m(background)`. The zero background is shared by every diagnosis, so
/// its prediction is the one model evaluation repeated diagnoses would
/// otherwise recompute; caching it is safe because the value is a pure
/// function of the (immutable) trained model. Slots are keyed by position
/// in the zoo and lazily sized on first use; a size mismatch (e.g. a
/// hand-rolled zoo shrank after the cache warmed) falls back to computing
/// without memoising.
#[derive(Debug, Default)]
pub struct BaselineCache {
    slots: OnceLock<Vec<OnceLock<f64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BaselineCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The baseline of model `index` in a zoo of `n_models`, computed via
    /// `compute` on the first call and memoised after.
    pub fn expected_for(
        &self,
        n_models: usize,
        index: usize,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let slots = self
            .slots
            .get_or_init(|| (0..n_models).map(|_| OnceLock::new()).collect());
        match slots.get(index) {
            Some(slot) => {
                if let Some(&v) = slot.get() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    v
                } else {
                    // Concurrent first calls may both compute; the slot
                    // keeps one value and both count as misses.
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    *slot.get_or_init(compute)
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                compute()
            }
        }
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to evaluate the model.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The diagnosis engine: a trained zoo plus the feature pipeline and
/// explainer configuration.
#[derive(Debug, Clone)]
pub struct Diagnoser<'a> {
    zoo: &'a ModelZoo,
    pipeline: FeaturePipeline,
    config: DiagnosisConfig,
    baselines: Option<&'a BaselineCache>,
}

impl<'a> Diagnoser<'a> {
    pub fn new(zoo: &'a ModelZoo, pipeline: FeaturePipeline, config: DiagnosisConfig) -> Self {
        Self {
            zoo,
            pipeline,
            config,
            baselines: None,
        }
    }

    /// Reuse (and warm) `cache` for per-model background predictions.
    pub fn with_baselines(mut self, cache: &'a BaselineCache) -> Self {
        self.baselines = Some(cache);
        self
    }

    /// Explain one model at the job's feature vector with the zero
    /// background required for sparsity robustness. `model_index` keys the
    /// baseline cache by the model's position in the zoo.
    // xtask-allow: AIIO-S001 — delegates to KernelShap/Lime explainers, which
    // route through aiio_explain::sparsity_mask (cross-crate, invisible to the lint)
    fn explain_one(
        &self,
        model: &dyn Predictor,
        features: &[f64],
        model_index: usize,
    ) -> Attribution {
        let background = vec![0.0; features.len()];
        let expected = match self.baselines {
            Some(cache) => cache.expected_for(self.zoo.models().len(), model_index, || {
                model.predict_one(&background)
            }),
            None => model.predict_one(&background),
        };
        match self.config.explainer {
            ExplainerKind::KernelShap => KernelShap::new(KernelShapConfig {
                max_evals: self.config.max_evals,
                seed: self.config.seed,
            })
            .explain_with_baseline(model, features, &background, expected),
            ExplainerKind::Lime => Lime::new(LimeConfig {
                n_samples: self.config.max_evals,
                seed: self.config.seed,
                ..LimeConfig::default()
            })
            .explain_with_baseline(model, features, &background, expected),
        }
    }

    /// Diagnose one job log.
    ///
    /// # Panics
    /// Panics if the zoo is empty or `log` fails [`JobLog::validate`] —
    /// use [`Diagnoser::try_diagnose`] at service boundaries.
    pub fn diagnose(&self, log: &JobLog) -> DiagnosisReport {
        assert!(
            !self.zoo.is_empty(),
            "cannot diagnose with an empty model zoo"
        );
        match self.try_diagnose(log) {
            Ok(report) => report,
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Diagnose one job log, returning a typed error on an empty zoo or
    /// a malformed log instead of panicking (the serving layer maps both
    /// to HTTP 422).
    pub fn try_diagnose(&self, log: &JobLog) -> Result<DiagnosisReport, DiagnoseError> {
        if self.zoo.is_empty() {
            return Err(DiagnoseError::EmptyZoo);
        }
        log.validate().map_err(DiagnoseError::InvalidLog)?;
        let features = self.pipeline.features_of(log);
        let tag = self.pipeline.tag_of(log);

        // One independent explanation per model (each explainer reseeds
        // its own RNG), gathered in zoo order by the index-ordered
        // reduction — the parallel and sequential paths are bit-identical.
        let per_model: Vec<(ModelKind, Attribution)> =
            aiio_par::map_indexed(self.zoo.models(), |i, tm| {
                (tm.kind, self.explain_one(&tm.model, &features, i))
            });
        let predictions: Vec<f64> = self.zoo.predict_all(&features);
        let predictions_mib_s: Vec<(ModelKind, f64)> = self
            .zoo
            .models()
            .iter()
            .zip(&predictions)
            .map(|(tm, &p)| (tm.kind, self.pipeline.tag_to_mib_s(p)))
            .collect();

        let merged = match self.config.merge {
            MergeMethod::Closest => {
                let idx = closest_model(&predictions, tag)?;
                per_model[idx].1.clone()
            }
            MergeMethod::Average => {
                let w = average_weights(&predictions, tag)?;
                let attrs: Vec<Attribution> = per_model.iter().map(|(_, a)| a.clone()).collect();
                merge_attributions_average(&attrs, &w)
            }
        };

        let mut bottlenecks = Vec::new();
        let mut positives = Vec::new();
        for i in 0..N_COUNTERS {
            let c = CounterId::from_index(i);
            let contribution = merged.values[i];
            let entry = CounterContribution {
                counter: c,
                raw_value: log.counters.get(c),
                contribution,
            };
            if contribution < 0.0 {
                bottlenecks.push(entry);
            } else if contribution > 0.0 {
                positives.push(entry);
            }
        }
        bottlenecks.sort_by(|a, b| a.contribution.total_cmp(&b.contribution));
        positives.sort_by(|a, b| b.contribution.total_cmp(&a.contribution));

        // Walk the full ranking and keep the first few *advisable*
        // counters: the most negative contributors are often bulk-volume
        // counters (bytes moved, nprocs) that no tuning knob addresses.
        let advice = bottlenecks
            .iter()
            .filter_map(|c| advice_for(c.counter, c.raw_value))
            .take(4)
            .collect();

        Ok(DiagnosisReport {
            job_id: log.job_id,
            app: log.app.clone(),
            performance_mib_s: log.performance_mib_s(),
            predictions_mib_s,
            per_model,
            merged,
            merge: self.config.merge,
            bottlenecks,
            positives,
            advice,
        })
    }
}

// The serving layer shares one `AiioService` snapshot across worker
// threads; this audit fails to compile if the diagnosis path ever grows
// non-`Send + Sync` state (e.g. interior mutability or `Rc`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Diagnoser<'static>>();
    assert_send_sync::<DiagnosisReport>();
    assert_send_sync::<DiagnoseError>();
    assert_send_sync::<BaselineCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{ModelZoo, ZooConfig};
    use aiio_darshan::{FeaturePipeline, LogDatabase};
    use aiio_gbdt::GbdtConfig;
    use aiio_iosim::{DatabaseSampler, SamplerConfig};
    use std::sync::OnceLock;

    fn trained() -> &'static (ModelZoo, LogDatabase) {
        static CACHE: OnceLock<(ModelZoo, LogDatabase)> = OnceLock::new();
        CACHE.get_or_init(|| {
            let db = DatabaseSampler::new(SamplerConfig {
                n_jobs: 400,
                seed: 77,
                noise_sigma: 0.0,
            })
            .generate();
            let ds = FeaturePipeline::paper().dataset_of(&db);
            let split = db.split_indices(0.5, 3);
            // Trees only: fast and sufficient for diagnosis plumbing tests.
            let cfg = ZooConfig {
                xgboost: GbdtConfig {
                    n_rounds: 30,
                    max_depth: 4,
                    ..GbdtConfig::xgboost_like()
                },
                lightgbm: GbdtConfig {
                    n_rounds: 30,
                    max_leaves: 15,
                    ..GbdtConfig::lightgbm_like()
                },
                catboost: GbdtConfig {
                    n_rounds: 30,
                    max_depth: 4,
                    ..GbdtConfig::catboost_like()
                },
                ..ZooConfig::fast()
            }
            .with_kinds(&[
                ModelKind::XgboostLike,
                ModelKind::LightgbmLike,
                ModelKind::CatboostLike,
            ]);
            let zoo =
                ModelZoo::train(&cfg, &ds.subset(&split.train), &ds.subset(&split.valid)).unwrap();
            (zoo, db)
        })
    }

    fn diagnose_job(merge: MergeMethod, job: &aiio_darshan::JobLog) -> DiagnosisReport {
        let (zoo, _) = trained();
        let d = Diagnoser::new(
            zoo,
            FeaturePipeline::paper(),
            DiagnosisConfig {
                merge,
                max_evals: 512,
                ..DiagnosisConfig::default()
            },
        );
        d.diagnose(job)
    }

    #[test]
    fn report_is_robust_for_every_job() {
        let (_, db) = trained();
        for job in db.jobs().iter().take(8) {
            let r = diagnose_job(MergeMethod::Average, job);
            assert!(r.is_robust(job), "job {} not robust", job.job_id);
            // Write-only jobs never get read counters flagged.
            if job.is_write_only() {
                for b in &r.bottlenecks {
                    assert!(
                        !b.counter.is_read_related(),
                        "{b:?} flagged on write-only job"
                    );
                }
            }
        }
    }

    #[test]
    fn merged_attribution_reconstructs_sensibly() {
        let (_, db) = trained();
        let job = &db.jobs()[0];
        let r = diagnose_job(MergeMethod::Average, job);
        // Average-merged reconstruction equals the weighted model output,
        // which by Eq. 8 weighting is close to the true tag.
        let tag = FeaturePipeline::paper().tag_of(job);
        assert!(
            (r.merged.reconstructed() - tag).abs() < 1.0,
            "tag {tag}, recon {}",
            r.merged.reconstructed()
        );
    }

    #[test]
    fn closest_merge_selects_one_model_attribution() {
        let (_, db) = trained();
        let job = &db.jobs()[1];
        let r = diagnose_job(MergeMethod::Closest, job);
        assert!(
            r.per_model.iter().any(|(_, a)| *a == r.merged),
            "closest merge must equal one per-model attribution"
        );
    }

    #[test]
    fn bottlenecks_sorted_most_negative_first() {
        let (_, db) = trained();
        let job = &db.jobs()[2];
        let r = diagnose_job(MergeMethod::Average, job);
        for w in r.bottlenecks.windows(2) {
            assert!(w[0].contribution <= w[1].contribution);
        }
        for w in r.positives.windows(2) {
            assert!(w[0].contribution >= w[1].contribution);
        }
        for b in &r.bottlenecks {
            assert!(b.contribution < 0.0);
        }
    }

    #[test]
    fn display_renders_counter_names() {
        let (_, db) = trained();
        let job = &db.jobs()[3];
        let r = diagnose_job(MergeMethod::Average, job);
        let text = r.to_string();
        assert!(text.contains("AIIO diagnosis"));
        assert!(text.contains("MiB/s"));
    }

    #[test]
    fn lime_explainer_also_robust() {
        let (zoo, db) = trained();
        let job = &db.jobs()[4];
        let d = Diagnoser::new(
            zoo,
            FeaturePipeline::paper(),
            DiagnosisConfig {
                explainer: ExplainerKind::Lime,
                max_evals: 256,
                ..DiagnosisConfig::default()
            },
        );
        let r = d.diagnose(job);
        assert!(r.is_robust(job));
    }

    #[test]
    fn empty_zoo_yields_typed_error_not_panic() {
        let (_, db) = trained();
        let zoo: ModelZoo = serde_json::from_str(r#"{"models":[],"failed":[]}"#).unwrap();
        let d = Diagnoser::new(&zoo, FeaturePipeline::paper(), DiagnosisConfig::default());
        assert_eq!(d.try_diagnose(&db.jobs()[0]), Err(DiagnoseError::EmptyZoo));
    }

    #[test]
    fn malformed_log_yields_typed_error_not_garbage() {
        let (zoo, db) = trained();
        let d = Diagnoser::new(zoo, FeaturePipeline::paper(), DiagnosisConfig::default());
        let mut negative = db.jobs()[0].clone();
        negative.counters.set(CounterId::PosixReads, -5.0);
        assert!(matches!(
            d.try_diagnose(&negative),
            Err(DiagnoseError::InvalidLog(_))
        ));
        let mut short = serde_json::to_string(&db.jobs()[0]).unwrap();
        let values = short.find("\"values\":[").unwrap() + "\"values\":[".len();
        let end = values + short[values..].find(']').unwrap();
        short.replace_range(values..end, "1,2,3");
        let short: JobLog = serde_json::from_str(&short).unwrap();
        assert!(matches!(
            d.try_diagnose(&short),
            Err(DiagnoseError::InvalidLog(e)) if e.field == "counters"
        ));
    }

    #[test]
    fn serde_report_roundtrip() {
        let (_, db) = trained();
        let r = diagnose_job(MergeMethod::Average, &db.jobs()[5]);
        let json = serde_json::to_string(&r).unwrap();
        let back: DiagnosisReport = serde_json::from_str(&json).unwrap();
        // JSON roundtrips f64 to within an ulp; compare structure, ranking,
        // and values to tight tolerance instead of bitwise equality.
        assert_eq!(r.job_id, back.job_id);
        assert_eq!(r.top_bottleneck(), back.top_bottleneck());
        assert_eq!(r.bottlenecks.len(), back.bottlenecks.len());
        for (a, b) in r.merged.values.iter().zip(&back.merged.values) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
