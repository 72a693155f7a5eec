//! The AIIO service (paper §3.4 / Fig. 17): train once, persist the
//! models, and serve per-job diagnoses.
//!
//! The paper deploys AIIO as a web service so models can be managed
//! centrally; this module provides the same lifecycle in-process — train /
//! save / load / diagnose — which is the part the experiments depend on.
//! (An HTTP front-end would add a network dependency without exercising
//! anything new.)

use crate::diagnosis::{BaselineCache, DiagnoseError, Diagnoser, DiagnosisConfig, DiagnosisReport};
use crate::drift::DriftDetector;
use crate::zoo::{ModelZoo, ZooConfig, ZooError};
use aiio_darshan::{Dataset, FeaturePipeline, JobLog, LogDatabase, SplitIndices, StoreBackend};
use serde::{Deserialize, Serialize};
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::sync::Arc;

/// Error from training a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// Zoo training produced no usable models.
    Zoo(ZooError),
    /// The storage backend failed while streaming the training logs.
    /// (Stringified so `TrainError` stays `Clone + Eq`.)
    Backend(String),
    /// The train or the validation set has no rows, so there is nothing
    /// to fit or nothing to score the fits on.
    EmptySplit { train: usize, valid: usize },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Zoo(e) => write!(f, "zoo training failed: {e}"),
            TrainError::Backend(e) => write!(f, "storage backend failed: {e}"),
            TrainError::EmptySplit { train, valid } => write!(
                f,
                "empty split: {train} train and {valid} validation rows; \
                 training needs at least one of each"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<ZooError> for TrainError {
    fn from(e: ZooError) -> Self {
        TrainError::Zoo(e)
    }
}

/// Everything needed to train a service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    pub zoo: ZooConfig,
    pub diagnosis: DiagnosisConfig,
    /// Train fraction of the shuffled database (paper: 0.5).
    pub train_fraction: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            zoo: ZooConfig::default(),
            diagnosis: DiagnosisConfig::default(),
            train_fraction: 0.5,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// Reduced budgets for tests/examples.
    pub fn fast() -> Self {
        Self {
            zoo: ZooConfig::fast(),
            ..Self::default()
        }
    }
}

/// A trained, persistable AIIO instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AiioService {
    pipeline: FeaturePipeline,
    zoo: ModelZoo,
    diagnosis: DiagnosisConfig,
    /// Validation RMSE per model at train time, for reporting.
    pub validation_rmse: Vec<(crate::ModelKind, f64)>,
    /// Reference feature distribution fitted on the training split, so a
    /// deployed service can score incoming logs for drift (§1's portability
    /// limitation). `#[serde(default)]` keeps services persisted before this
    /// field existed loadable.
    #[serde(default)]
    drift: Option<DriftDetector>,
    /// Per-model background-prediction memo. Runtime-only (rebuilt cold on
    /// load, shared across clones of one trained service); excluded from
    /// persistence because it's derivable from the models.
    #[serde(skip, default = "fresh_baselines")]
    baselines: Arc<BaselineCache>,
}

fn fresh_baselines() -> Arc<BaselineCache> {
    Arc::new(BaselineCache::new())
}

impl AiioService {
    /// Train all models on a log database (half/half split as in §3.2).
    ///
    /// A model whose fit fails degrades the zoo (see [`ModelZoo::failed`]);
    /// only a zoo with zero usable models is an error.
    pub fn train(config: &TrainConfig, db: &LogDatabase) -> Result<AiioService, TrainError> {
        let pipeline = FeaturePipeline::paper();
        let ds = pipeline.dataset_of(db);
        let split = db.split_indices(config.train_fraction, config.seed);
        let train = ds.subset(&split.train);
        let valid = ds.subset(&split.valid);
        Self::train_on_datasets(config, pipeline, &train, &valid)
    }

    /// Train all models by streaming logs from a storage backend (e.g. an
    /// `aiio-store` on-disk store) instead of an in-memory database.
    ///
    /// The split uses the same seeded shuffle over row indices as
    /// [`AiioService::train`], so a store holding the same logs in the same
    /// order trains a byte-identical service.
    pub fn train_from_backend(
        config: &TrainConfig,
        src: &dyn StoreBackend,
    ) -> Result<AiioService, TrainError> {
        let pipeline = FeaturePipeline::paper();
        let ds = pipeline
            .dataset_of_backend(src)
            .map_err(|e| TrainError::Backend(e.to_string()))?;
        let split = SplitIndices::of_len(ds.len(), config.train_fraction, config.seed);
        let train = ds.subset(&split.train);
        let valid = ds.subset(&split.valid);
        Self::train_on_datasets(config, pipeline, &train, &valid)
    }

    /// Train on pre-built datasets (exposed for experiments that need
    /// custom splits). Both sets need at least one row.
    pub fn train_on_datasets(
        config: &TrainConfig,
        pipeline: FeaturePipeline,
        train: &Dataset,
        valid: &Dataset,
    ) -> Result<AiioService, TrainError> {
        if train.is_empty() || valid.is_empty() {
            return Err(TrainError::EmptySplit {
                train: train.len(),
                valid: valid.len(),
            });
        }
        let zoo = ModelZoo::train(&config.zoo, train, valid)?;
        let validation_rmse = zoo.rmse_per_model(valid);
        let drift = Some(DriftDetector::fit(train));
        Ok(AiioService {
            pipeline,
            zoo,
            diagnosis: config.diagnosis.clone(),
            validation_rmse,
            drift,
            baselines: fresh_baselines(),
        })
    }

    /// Diagnose one job log — works for unseen jobs without retraining
    /// (the generalisation property of §3.2).
    ///
    /// # Panics
    /// Panics if the zoo is empty (impossible for a trained service; a
    /// hand-crafted or corrupted persisted service can hit it — servers
    /// should use [`AiioService::try_diagnose`]).
    pub fn diagnose(&self, log: &JobLog) -> DiagnosisReport {
        self.diagnoser().diagnose(log)
    }

    /// Diagnose one job log, returning a typed error on an empty zoo.
    pub fn try_diagnose(&self, log: &JobLog) -> Result<DiagnosisReport, DiagnoseError> {
        self.diagnoser().try_diagnose(log)
    }

    /// Diagnose a batch of logs in parallel (one SHAP run per job per
    /// model; jobs are independent, so this scales with cores). The
    /// deterministic map keeps the reports in input order and bit-identical
    /// to diagnosing each log sequentially, at any thread count.
    pub fn diagnose_batch(&self, logs: &[JobLog]) -> Vec<DiagnosisReport> {
        aiio_par::map(logs, |log| self.diagnose(log))
    }

    fn diagnoser(&self) -> Diagnoser<'_> {
        Diagnoser::new(&self.zoo, self.pipeline, self.diagnosis.clone())
            .with_baselines(&self.baselines)
    }

    /// The per-model background-prediction memo (hit/miss counters are
    /// what tests and the serving layer's metrics read).
    pub fn baseline_cache(&self) -> &BaselineCache {
        &self.baselines
    }

    /// The trained model zoo.
    pub fn zoo(&self) -> &ModelZoo {
        &self.zoo
    }

    /// The feature pipeline.
    pub fn pipeline(&self) -> FeaturePipeline {
        self.pipeline
    }

    /// The drift detector fitted on the training split, if any (`None` for
    /// services persisted before drift tracking existed).
    pub fn drift_detector(&self) -> Option<&DriftDetector> {
        self.drift.as_ref()
    }

    /// Persist the trained service (pre-trained models of Fig. 17).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(BufWriter::new(file), self).map_err(std::io::Error::other)
    }

    /// Load a persisted service.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<AiioService> {
        let file = std::fs::File::open(path)?;
        serde_json::from_reader(BufReader::new(file))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use aiio_gbdt::GbdtConfig;
    use aiio_iosim::{DatabaseSampler, SamplerConfig, Simulator, StorageConfig};
    use std::sync::OnceLock;

    fn quick_config() -> TrainConfig {
        let mut cfg = TrainConfig::fast();
        cfg.zoo = ZooConfig {
            xgboost: GbdtConfig {
                n_rounds: 25,
                max_depth: 4,
                ..GbdtConfig::xgboost_like()
            },
            lightgbm: GbdtConfig {
                n_rounds: 25,
                max_leaves: 15,
                ..GbdtConfig::lightgbm_like()
            },
            catboost: GbdtConfig {
                n_rounds: 25,
                max_depth: 4,
                ..GbdtConfig::catboost_like()
            },
            ..ZooConfig::fast()
        }
        .with_kinds(&[ModelKind::XgboostLike, ModelKind::LightgbmLike]);
        cfg.diagnosis.max_evals = 256;
        cfg
    }

    fn service() -> &'static AiioService {
        static CACHE: OnceLock<AiioService> = OnceLock::new();
        CACHE.get_or_init(|| {
            let db = DatabaseSampler::new(SamplerConfig {
                n_jobs: 300,
                seed: 5,
                noise_sigma: 0.0,
            })
            .generate();
            AiioService::train(&quick_config(), &db).unwrap()
        })
    }

    #[test]
    fn trains_and_reports_validation_rmse() {
        let s = service();
        assert_eq!(s.validation_rmse.len(), 2);
        for (_, e) in &s.validation_rmse {
            assert!(e.is_finite() && *e >= 0.0);
        }
    }

    #[test]
    fn diagnoses_an_unseen_job_without_retraining() {
        let s = service();
        // A job from a different generator seed = unseen.
        let spec = aiio_iosim::IorConfig::parse("ior -w -t 1k -b 1m -Y")
            .unwrap()
            .to_spec();
        let log = Simulator::new(StorageConfig::cori_like_quiet()).simulate(&spec, 12345, 2022, 9);
        let report = s.diagnose(&log);
        assert!(report.is_robust(&log));
        assert_eq!(report.job_id, 12345);
    }

    #[test]
    fn save_load_roundtrip_preserves_diagnosis() {
        let s = service();
        let path = std::env::temp_dir().join("aiio_service_test.json");
        s.save(&path).unwrap();
        let loaded = AiioService::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let spec = aiio_iosim::IorConfig::parse("ior -r -t 1k -b 1m")
            .unwrap()
            .to_spec();
        let log = Simulator::new(StorageConfig::cori_like_quiet()).simulate(&spec, 7, 2022, 3);
        let a = s.diagnose(&log);
        let b = loaded.diagnose(&log);
        assert_eq!(a.bottlenecks.len(), b.bottlenecks.len());
        assert_eq!(a.top_bottleneck(), b.top_bottleneck());
    }

    #[test]
    fn batch_diagnosis_matches_sequential() {
        let s = service();
        let sim = Simulator::new(StorageConfig::cori_like_quiet());
        let logs: Vec<aiio_darshan::JobLog> = (0..4)
            .map(|i| {
                let spec = aiio_iosim::IorConfig::parse("ior -w -t 1k -b 64k -Y")
                    .unwrap()
                    .to_spec();
                sim.simulate(&spec, 500 + i, 2022, i)
            })
            .collect();
        let batch = s.diagnose_batch(&logs);
        assert_eq!(batch.len(), 4);
        for (log, report) in logs.iter().zip(&batch) {
            let single = s.diagnose(log);
            assert_eq!(report.top_bottleneck(), single.top_bottleneck());
            assert_eq!(report.job_id, log.job_id);
        }
    }

    #[test]
    fn save_load_under_concurrent_diagnosis_is_stable() {
        // The serving layer hot-reloads persisted models while reader
        // threads keep diagnosing; persistence must not wobble under that
        // concurrency. N readers diagnose the same log continuously while
        // the main thread saves and reloads the service; every report —
        // before, during and after the reload — must be identical.
        let s = service();
        let spec = aiio_iosim::IorConfig::parse("ior -w -t 1k -b 1m -Y")
            .unwrap()
            .to_spec();
        let log = Simulator::new(StorageConfig::cori_like_quiet()).simulate(&spec, 4242, 2022, 1);
        let baseline = serde_json::to_string(&s.diagnose(&log)).unwrap();

        let path = std::env::temp_dir().join("aiio_service_concurrent_test.json");
        let loaded = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let log = &log;
                    let baseline = &baseline;
                    scope.spawn(move || {
                        for _ in 0..3 {
                            let r = serde_json::to_string(&s.diagnose(log)).unwrap();
                            assert_eq!(&r, baseline, "report drifted during save/load");
                        }
                    })
                })
                .collect();
            s.save(&path).unwrap();
            let loaded = AiioService::load(&path).unwrap();
            for handle in readers {
                handle.join().unwrap();
            }
            loaded
        });
        let _ = std::fs::remove_file(&path);

        let after = serde_json::to_string(&loaded.diagnose(&log)).unwrap();
        assert_eq!(after, baseline, "report drifted across a hot reload");
    }

    #[test]
    fn training_on_empty_kind_list_is_an_error() {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 60,
            seed: 1,
            noise_sigma: 0.0,
        })
        .generate();
        let mut cfg = TrainConfig::fast();
        cfg.zoo = cfg.zoo.with_kinds(&[]);
        assert!(AiioService::train(&cfg, &db).is_err());
    }

    #[test]
    fn training_on_one_job_is_an_empty_split_error() {
        // Half of one row rounds the row into train, leaving nothing to
        // validate on.
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 1,
            ..SamplerConfig::default()
        })
        .generate();
        assert_eq!(
            AiioService::train(&TrainConfig::fast(), &db).unwrap_err(),
            TrainError::EmptySplit { train: 1, valid: 0 }
        );
    }

    #[test]
    fn training_on_an_empty_validation_set_is_an_error() {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 8,
            ..SamplerConfig::default()
        })
        .generate();
        let pipeline = FeaturePipeline::paper();
        let train = pipeline.dataset_of(&db);
        let valid = train.subset(&[]);
        let err = AiioService::train_on_datasets(&TrainConfig::fast(), pipeline, &train, &valid)
            .unwrap_err();
        assert_eq!(err, TrainError::EmptySplit { train: 8, valid: 0 });
        let err = AiioService::train_on_datasets(&TrainConfig::fast(), pipeline, &valid, &train)
            .unwrap_err();
        assert_eq!(err, TrainError::EmptySplit { train: 0, valid: 8 });
    }

    #[test]
    fn backend_training_is_byte_identical_to_in_memory() {
        // LogDatabase is itself a StoreBackend (streams its jobs in order),
        // so training through the backend path must reproduce the in-memory
        // path exactly — same split, same models, same RMSE, bit for bit.
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 120,
            seed: 11,
            noise_sigma: 0.0,
        })
        .generate();
        let cfg = quick_config();
        let a = AiioService::train(&cfg, &db).unwrap();
        let b = AiioService::train_from_backend(&cfg, &db).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn training_fits_a_drift_detector() {
        let s = service();
        let d = s.drift_detector().expect("trained service tracks drift");
        // The training distribution itself must read as stable.
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 100,
            seed: 5,
            noise_sigma: 0.0,
        })
        .generate();
        let fresh = s.pipeline().dataset_of(&db);
        assert!(!d.is_drifted(&fresh.x));
    }

    #[test]
    fn load_tolerates_missing_drift_field() {
        // Services persisted before drift tracking have no `drift` key.
        let s = service();
        let mut v = serde_json::parse_value(&serde_json::to_string(s).unwrap()).unwrap();
        if let serde_json::Value::Map(fields) = &mut v {
            fields.retain(|(k, _)| k != "drift");
        }
        let path = std::env::temp_dir().join("aiio_service_no_drift.json");
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        let loaded = AiioService::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(loaded.drift_detector().is_none());
        assert_eq!(loaded.validation_rmse.len(), s.validation_rmse.len());
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join("aiio_service_garbage.json");
        std::fs::write(&path, b"not json").unwrap();
        assert!(AiioService::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
