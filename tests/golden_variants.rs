//! Golden fingerprints for the diagnosis paths `tests/golden.rs` does not
//! reach: LIME as the explainer, and the closest-model merge. A small
//! two-family zoo (one booster, which answers coalitions from bit masks,
//! and one MLP, which takes the row path) diagnoses eight unseen iosim
//! jobs under each configuration; the reports' bytes must match the pinned
//! FNVs.
//!
//! As in `tests/golden.rs`, the constants change only in a commit that
//! says why the outputs changed. Run with `--nocapture` to print the
//! fingerprints this revision computes.

use aiio::prelude::*;
use aiio::{Diagnoser, ExplainerKind};

/// FNV-1a 64 over the eight LIME reports (average merge), in job order.
const LIME_REPORTS_FNV: u64 = 0xbf6802e7a726b43a;
/// FNV-1a 64 over the eight Kernel SHAP reports under the closest-model
/// merge, in job order.
const CLOSEST_REPORTS_FNV: u64 = 0xa3ae6d92ce9fe240;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A LightGBM-style booster and an MLP on 160 seeded jobs, with budgets
/// small enough for a debug build.
fn service() -> AiioService {
    let db = DatabaseSampler::new(SamplerConfig {
        n_jobs: 160,
        seed: 0x601D,
        noise_sigma: 0.02,
    })
    .generate();
    let mut zoo = ZooConfig::fast().with_kinds(&[ModelKind::LightgbmLike, ModelKind::Mlp]);
    zoo.lightgbm.n_rounds = 20;
    zoo.mlp.max_epochs = 6;
    AiioService::train(
        &TrainConfig {
            zoo,
            ..TrainConfig::fast()
        },
        &db,
    )
    .expect("zoo trains")
}

/// FNV over the reports of eight jobs the zoo never saw, diagnosed with
/// `explainer` and `merge` at a 256-evaluation budget.
fn reports_fnv(service: &AiioService, explainer: ExplainerKind, merge: MergeMethod) -> u64 {
    let config = DiagnosisConfig {
        explainer,
        merge,
        max_evals: 256,
        seed: 0,
    };
    let diagnoser = Diagnoser::new(service.zoo(), service.pipeline(), config);
    let jobs = DatabaseSampler::new(SamplerConfig {
        n_jobs: 8,
        seed: 0x601E,
        noise_sigma: 0.02,
    })
    .generate();
    let mut bytes = Vec::new();
    for job in jobs.jobs() {
        let report = diagnoser.try_diagnose(job).expect("unseen job diagnoses");
        bytes.extend(serde_json::to_vec(&report).expect("report serialises"));
    }
    fnv1a64(&bytes)
}

#[test]
fn lime_and_closest_merge_reports_match_the_golden_fingerprints() {
    let service = service();
    assert_eq!(service.zoo().len(), 2, "{:?}", service.zoo().failed());
    let lime = reports_fnv(&service, ExplainerKind::Lime, MergeMethod::Average);
    let closest = reports_fnv(&service, ExplainerKind::KernelShap, MergeMethod::Closest);
    println!("LIME_REPORTS_FNV = {lime:#018x}; CLOSEST_REPORTS_FNV = {closest:#018x}");
    assert_eq!(lime, LIME_REPORTS_FNV, "LIME report bytes changed");
    assert_eq!(
        closest, CLOSEST_REPORTS_FNV,
        "closest-merge report bytes changed"
    );
}
