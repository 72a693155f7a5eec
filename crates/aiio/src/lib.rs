//! AIIO — job-level, automatic I/O performance bottleneck diagnosis.
//!
//! This crate is the Rust reproduction of the system described in
//! *AIIO: Using Artificial Intelligence for Job-Level and Automatic I/O
//! Performance Bottleneck Diagnosis* (Dong, Bez & Byna, HPDC '23):
//!
//! 1. **Performance functions** (§3.2): five regression models — three
//!    gradient-boosting variants (XGBoost/LightGBM/CatBoost-style, from
//!    `aiio-gbdt`), an MLP and a TabNet (from `aiio-nn`) — trained on a
//!    Darshan-style log database to map I/O counters to `log10`-transformed
//!    job performance ([`zoo`]).
//! 2. **Diagnosis functions** (§3.3): SHAP (or LIME) run per model with a
//!    zero background, so counters that are zero in the job's log get
//!    exactly zero contribution ([`diagnosis`]).
//! 3. **Merging** (§3.2–3.3): the *Closest Method* (Eq. 6) picks the model
//!    whose prediction is nearest the job's Darshan-estimated performance;
//!    the *Average Method* (Eq. 7–8) blends predictions and attributions
//!    with error-inverse weights ([`merge`]).
//! 4. **Actionable output**: negative contributions are the job's
//!    bottlenecks; [`advisor`] maps each flagged counter to the tuning move
//!    the paper applies in §4 (bigger transfers, fewer seeks, alignment,
//!    collective buffering, fewer files, stripe settings).
//! 5. **Deployment** (§3.4): [`service`] persists trained models and
//!    serves diagnoses for new logs — the in-process equivalent of the
//!    paper's web service.
//! 6. **Baseline**: [`gauge`] reimplements the group-level
//!    (HDBSCAN-cluster) diagnosis the paper's Fig. 1 critiques, including
//!    its non-robust mean-background explanation.
//!
//! ```no_run
//! use aiio::prelude::*;
//!
//! // Build a training database with the bundled simulator.
//! let db = DatabaseSampler::new(SamplerConfig { n_jobs: 2000, ..Default::default() }).generate();
//! let service = AiioService::train(&TrainConfig::fast(), &db).expect("zoo trains");
//!
//! // Diagnose an unseen job.
//! let job = IorConfig::parse("ior -w -t 1k -b 1m -Y").unwrap().to_spec();
//! let log = Simulator::default().simulate(&job, 999, 2022, 1);
//! let report = service.diagnose(&log);
//! println!("{report}");
//! ```

pub mod advisor;
pub mod autotune;
pub mod diagnosis;
pub mod drift;
pub mod eval;
pub mod gauge;
pub mod merge;
pub mod model;
pub mod rules;
pub mod service;
pub mod whatif;
pub mod zoo;

pub use advisor::{advice_for, Advice};
pub use autotune::{AutoTuner, TuningAction, TuningOutcome};
pub use diagnosis::{
    BaselineCache, DiagnoseError, Diagnoser, DiagnosisConfig, DiagnosisReport, ExplainerKind,
};
pub use drift::{DriftDetector, DriftScore};
pub use eval::{ClassificationReport, ClassificationScorer};
pub use merge::{average_weights, merge_attributions_average, MergeError, MergeMethod};
pub use model::{AnyModel, ModelKind};
pub use rules::{RuleChecker, RuleThresholds};
pub use service::{AiioService, TrainConfig, TrainError};
pub use whatif::{WhatIf, WhatIfPrediction};
pub use zoo::{ModelZoo, ZooConfig, ZooError};

/// Convenient re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::{
        AiioService, DiagnoseError, Diagnoser, DiagnosisConfig, DiagnosisReport, MergeMethod,
        ModelKind, ModelZoo, TrainConfig, TrainError, ZooConfig,
    };
    pub use aiio_darshan::{CounterId, Dataset, FeaturePipeline, JobLog, LogDatabase};
    pub use aiio_iosim::{DatabaseSampler, IorConfig, SamplerConfig, Simulator, StorageConfig};
}
