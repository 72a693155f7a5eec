//! Ablations of AIIO's design choices (DESIGN.md): what each ingredient
//! buys, measured on the standard database.
//!
//! 1. zero-background vs mean-background SHAP → robustness violations;
//! 2. early stopping on/off → unseen-job prediction RMSE;
//! 3. log10(x+1) transform on/off → prediction RMSE;
//! 4. tree growth strategy at an equal budget → prediction RMSE;
//! 5. explainer choice (Kernel SHAP vs TreeSHAP vs LIME) → Eq. 5 RMSE and
//!    top-bottleneck agreement;
//! 6. GOSS vs plain row subsampling → prediction RMSE at a matched row
//!    budget.

use crate::{print_table, write_json, Context};
use aiio_darshan::FeaturePipeline;
use aiio_explain::kernel::{KernelShap, KernelShapConfig};
use aiio_explain::lime::{Lime, LimeConfig};
use aiio_explain::metrics::{robustness_violations, shap_rmse};
use aiio_explain::tree::tree_shap;
use aiio_gbdt::{Booster, GbdtConfig, Growth};
use aiio_linalg::stats::rmse;

/// Run all ablations.
///
/// Model-fit failures surface as `io::Error` rather than aborting the
/// whole repro run.
pub fn run(ctx: &Context) -> std::io::Result<()> {
    println!("\n== Ablations ==");
    let (train, valid) = ctx.datasets();

    // --- 1. Background choice for SHAP ----------------------------------
    println!("\n[1] SHAP background: zero (AIIO) vs training-mean (Gauge-style)");
    let cfg = GbdtConfig {
        n_rounds: 60,
        ..GbdtConfig::xgboost_like()
    };
    let model = Booster::fit(&cfg, &train.x, &train.y, Some((&valid.x, &valid.y)))
        .map_err(std::io::Error::other)?;
    let shap = KernelShap::new(KernelShapConfig {
        max_evals: 256,
        seed: 0,
    });
    let mean_bg: Vec<f64> = {
        let dims = train.x[0].len();
        let mut m = vec![0.0; dims];
        for row in &train.x {
            for (a, v) in m.iter_mut().zip(row) {
                *a += v / train.x.len() as f64;
            }
        }
        m
    };
    let zero_bg = vec![0.0; train.x[0].len()];
    let (mut zero_viol, mut mean_viol) = (0usize, 0usize);
    let sample = valid.len().min(16);
    for i in 0..sample {
        let x = &valid.x[i];
        let a0 = shap.explain(&model, x, &zero_bg);
        let am = shap.explain(&model, x, &mean_bg);
        zero_viol += robustness_violations(&a0, x).len();
        mean_viol += robustness_violations(&am, x).len();
    }
    println!("  zero-counter impact violations over {sample} jobs: zero-bg {zero_viol}, mean-bg {mean_viol}");

    // --- 2. Early stopping ------------------------------------------------
    println!("\n[2] early stopping (rounds=10) vs none, unseen-job RMSE");
    let with = Booster::fit(
        &GbdtConfig {
            n_rounds: 300,
            early_stopping_rounds: 10,
            ..GbdtConfig::xgboost_like()
        },
        &train.x,
        &train.y,
        Some((&valid.x, &valid.y)),
    )
    .map_err(std::io::Error::other)?;
    // Without early stopping the validation set must not influence training:
    // fit blind, evaluate after.
    let without = Booster::fit(
        &GbdtConfig {
            n_rounds: 300,
            early_stopping_rounds: 0,
            ..GbdtConfig::xgboost_like()
        },
        &train.x,
        &train.y,
        None,
    )
    .map_err(std::io::Error::other)?;
    let rmse_with = rmse(&with.predict(&valid.x), &valid.y);
    let rmse_without = rmse(&without.predict(&valid.x), &valid.y);
    println!(
        "  with early stopping: {rmse_with:.4} ({} trees)",
        with.best_n_trees()
    );
    println!(
        "  without:             {rmse_without:.4} ({} trees)",
        without.best_n_trees()
    );

    // --- 3. log10(x+1) transform ------------------------------------------
    println!("\n[3] feature/tag transform: Eq. 2 vs raw counters");
    let raw_ds = FeaturePipeline::raw().dataset_of(&ctx.db);
    let split = ctx.db.split_indices(0.5, ctx.scale.seed);
    let raw_train = raw_ds.subset(&split.train);
    let raw_valid = raw_ds.subset(&split.valid);
    let m_raw = Booster::fit(
        &cfg,
        &raw_train.x,
        &raw_train.y,
        Some((&raw_valid.x, &raw_valid.y)),
    )
    .map_err(std::io::Error::other)?;
    // Compare in transformed space so the metric is commensurable: transform
    // the raw model's predictions and targets.
    let p = FeaturePipeline::paper();
    let raw_pred_t: Vec<f64> = m_raw
        .predict(&raw_valid.x)
        .iter()
        .map(|&v| p.transform_value(v.max(0.0)))
        .collect();
    let raw_y_t: Vec<f64> = raw_valid
        .y
        .iter()
        .map(|&v| p.transform_value(v.max(0.0)))
        .collect();
    let rmse_raw = rmse(&raw_pred_t, &raw_y_t);
    let rmse_log = rmse(&model.predict(&valid.x), &valid.y);
    println!("  transformed pipeline: {rmse_log:.4}; raw pipeline (measured in log space): {rmse_raw:.4}");

    // --- 4. Growth strategies at equal budget ------------------------------
    println!("\n[4] growth strategy at an equal budget (60 rounds)");
    let mut growth_rows = Vec::new();
    let mut growth_json = Vec::new();
    for growth in [Growth::LevelWise, Growth::LeafWise, Growth::Oblivious] {
        let gcfg = GbdtConfig {
            growth,
            n_rounds: 60,
            ..GbdtConfig::xgboost_like()
        };
        let m = Booster::fit(&gcfg, &train.x, &train.y, Some((&valid.x, &valid.y)))
            .map_err(std::io::Error::other)?;
        let e = rmse(&m.predict(&valid.x), &valid.y);
        growth_rows.push(vec![format!("{growth:?}"), format!("{e:.4}")]);
        growth_json.push((format!("{growth:?}"), e));
    }
    print_table(&["growth", "valid RMSE"], &growth_rows);

    // --- 5. Explainer choice -----------------------------------------------
    println!("\n[5] explainer choice on the level-wise booster (Eq. 5 RMSE, top-1 agreement with Kernel SHAP)");
    let kernel = KernelShap::new(KernelShapConfig {
        max_evals: 512,
        seed: 0,
    });
    let lime = Lime::new(LimeConfig {
        n_samples: 512,
        ..LimeConfig::default()
    });
    let zero_bg2 = vec![0.0; train.x[0].len()];
    let nj = valid.len().min(24);
    let mut kernel_attrs = Vec::new();
    let mut tree_attrs = Vec::new();
    let mut lime_attrs = Vec::new();
    let mut y_sample = Vec::new();
    let mut tree_agree = 0usize;
    let mut lime_agree = 0usize;
    for i in 0..nj {
        let x = &valid.x[i];
        let ka = kernel.explain(&model, x, &zero_bg2);
        let ta = tree_shap(&model, x);
        let la = lime.explain(&model, x, &zero_bg2);
        let top = |a: &aiio_explain::Attribution| a.most_negative_first().first().copied();
        if top(&ka) == top(&ta) {
            tree_agree += 1;
        }
        if top(&ka) == top(&la) {
            lime_agree += 1;
        }
        kernel_attrs.push(ka);
        tree_attrs.push(ta);
        lime_attrs.push(la);
        y_sample.push(valid.y[i]);
    }
    let rows5 = vec![
        vec![
            "KernelSHAP (zero bg)".into(),
            format!("{:.4}", shap_rmse(&kernel_attrs, &y_sample)),
            "-".into(),
        ],
        vec![
            "TreeSHAP (cover bg)".into(),
            format!("{:.4}", shap_rmse(&tree_attrs, &y_sample)),
            format!("{tree_agree}/{nj}"),
        ],
        vec![
            "LIME (zero bg)".into(),
            format!("{:.4}", shap_rmse(&lime_attrs, &y_sample)),
            format!("{lime_agree}/{nj}"),
        ],
    ];
    print_table(&["explainer", "Eq.5 RMSE", "top-1 agreement"], &rows5);

    // --- 6. GOSS vs plain subsampling --------------------------------------
    println!("\n[6] GOSS vs plain row subsampling at a matched ~30% row budget");
    let goss = Booster::fit(
        &GbdtConfig {
            n_rounds: 60,
            ..GbdtConfig::lightgbm_goss()
        },
        &train.x,
        &train.y,
        Some((&valid.x, &valid.y)),
    )
    .map_err(std::io::Error::other)?;
    let sub = Booster::fit(
        &GbdtConfig {
            n_rounds: 60,
            subsample: 0.3,
            ..GbdtConfig::lightgbm_like()
        },
        &train.x,
        &train.y,
        Some((&valid.x, &valid.y)),
    )
    .map_err(std::io::Error::other)?;
    let rmse_goss = rmse(&goss.predict(&valid.x), &valid.y);
    let rmse_sub = rmse(&sub.predict(&valid.x), &valid.y);
    println!("  GOSS (top 20% + 10%): {rmse_goss:.4}; uniform 30% subsample: {rmse_sub:.4}");

    write_json(
        "ablation",
        &serde_json::json!({
            "zero_bg_violations": zero_viol,
            "mean_bg_violations": mean_viol,
            "rmse_early_stop": rmse_with,
            "rmse_no_early_stop": rmse_without,
            "rmse_log_transform": rmse_log,
            "rmse_raw_features": rmse_raw,
            "growth_rmse": growth_json,
            "explainer_eq5": {
                "kernel": shap_rmse(&kernel_attrs, &y_sample),
                "tree": shap_rmse(&tree_attrs, &y_sample),
                "lime": shap_rmse(&lime_attrs, &y_sample),
                "tree_top1_agreement": tree_agree,
                "lime_top1_agreement": lime_agree,
                "sample": nj,
            },
            "rmse_goss": rmse_goss,
            "rmse_subsample30": rmse_sub,
        }),
    )
}
