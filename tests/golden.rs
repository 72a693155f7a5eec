//! Golden output fingerprints: a fixed seed, a small three-family zoo and
//! eight unseen iosim jobs must reproduce the exact bytes pinned below.
//!
//! The parallel-equivalence suite proves outputs do not depend on the
//! thread count; this suite proves they do not depend on the code revision.
//! A change that is meant to be behaviour-preserving (an inference pass, a
//! faster solver, a reorganised module) must leave both constants alone.
//!
//! The constants change only in a commit that says why the outputs changed.
//! To recompute them, run this file with `--nocapture`: each test prints
//! the fingerprint it computed before comparing.

use aiio::prelude::*;
use aiio::ExplainerKind;

/// FNV-1a 64 over the serialized trained service (`AiioService::save`'s bytes).
const MODEL_FNV: u64 = 0xe36b1c069958ce71;
/// FNV-1a 64 over the eight serialized `DiagnosisReport`s, in job order.
const REPORTS_FNV: u64 = 0x2582e48afedb6b0c;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An MLP, a TabNet and one GBDT on 240 seeded jobs, with budgets small
/// enough for a debug build. Kernel SHAP, the default average merge.
fn service() -> AiioService {
    let db = DatabaseSampler::new(SamplerConfig {
        n_jobs: 240,
        seed: 0x601D,
        noise_sigma: 0.02,
    })
    .generate();
    let mut zoo =
        ZooConfig::fast().with_kinds(&[ModelKind::LightgbmLike, ModelKind::Mlp, ModelKind::TabNet]);
    zoo.lightgbm.n_rounds = 20;
    zoo.mlp.max_epochs = 8;
    zoo.tabnet.max_epochs = 6;
    let config = TrainConfig {
        zoo,
        diagnosis: DiagnosisConfig {
            explainer: ExplainerKind::KernelShap,
            merge: MergeMethod::Average,
            max_evals: 256,
            seed: 0,
        },
        ..TrainConfig::fast()
    };
    AiioService::train(&config, &db).expect("golden zoo trains")
}

/// Eight jobs the zoo never saw (a different sampler seed).
fn unseen_jobs() -> Vec<JobLog> {
    DatabaseSampler::new(SamplerConfig {
        n_jobs: 8,
        seed: 0x601E,
        noise_sigma: 0.02,
    })
    .generate()
    .jobs()
    .to_vec()
}

#[test]
fn trained_model_and_diagnosis_reports_match_the_golden_fingerprints() {
    let service = service();
    assert!(
        service.zoo().failed().is_empty(),
        "{:?}",
        service.zoo().failed()
    );
    assert_eq!(service.zoo().len(), 3);
    let model = serde_json::to_string(&service).expect("service serialises");
    let mut reports = Vec::new();
    for job in unseen_jobs() {
        let report = service.try_diagnose(&job).expect("unseen job diagnoses");
        reports.extend(serde_json::to_vec(&report).expect("report serialises"));
    }
    let (model_fnv, reports_fnv) = (fnv1a64(model.as_bytes()), fnv1a64(&reports));
    println!("MODEL_FNV = {model_fnv:#018x}; REPORTS_FNV = {reports_fnv:#018x}");
    assert_eq!(model_fnv, MODEL_FNV, "trained-model bytes changed");
    assert_eq!(reports_fnv, REPORTS_FNV, "diagnosis report bytes changed");
}
