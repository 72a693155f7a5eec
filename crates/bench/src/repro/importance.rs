//! Extension experiment: global counter importance, three ways.
//!
//! The paper's related work reports platform-level findings such as "the
//! number of processes strongly correlates with job bandwidth" (Wang et
//! al., refs [48, 49]). With trained per-job models we can recover such
//! global statements and cross-check three *independent* importance
//! signals on the same model family:
//!
//! * split/cover importance of the gradient-boosted trees;
//! * permutation importance (model-agnostic);
//! * TabNet's learned sparsemax feature masks.
//!
//! Agreement across methods is evidence the models learned the simulator's
//! causal structure rather than artifacts of one importance definition.

use crate::{print_table, write_json, Context};
use aiio::ModelKind;
use aiio_darshan::CounterId;
use aiio_explain::global::permutation_importance;
use serde::Serialize;

#[derive(Serialize)]
struct ImportanceResult {
    split_top: Vec<(String, f64)>,
    permutation_top: Vec<(String, f64)>,
    tabnet_mask_top: Vec<(String, f64)>,
    rank_overlap_top8: usize,
}

fn top_k(values: &[f64], k: usize) -> Vec<(String, f64)> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
    idx.into_iter()
        .take(k)
        .map(|i| (CounterId::from_index(i).name().to_string(), values[i]))
        .collect()
}

/// Run the importance comparison.
pub fn run(ctx: &Context) -> std::io::Result<()> {
    println!("\n== Extension: global counter importance, three ways ==");
    let (train, valid) = ctx.datasets();
    let zoo = ctx.service.zoo();

    // 1. Tree split importance (any GBDT model in the zoo).
    let gbdt = zoo
        .models()
        .iter()
        .find_map(|tm| tm.model.as_gbdt())
        .ok_or_else(|| std::io::Error::other("zoo contains no tree model"))?;
    let (splits, _cover) = gbdt.feature_importance(aiio_darshan::N_COUNTERS);

    // 2. Permutation importance of the same model on validation rows.
    let take = valid.len().min(512);
    let perm = permutation_importance(gbdt, &valid.x[..take], &valid.y[..take], ctx.scale.seed);

    // 3. TabNet masks, when a TabNet is in the zoo.
    let masks = match zoo.get(ModelKind::TabNet) {
        Some(aiio::AnyModel::TabNet(t)) => t.feature_masks(&train.x[..train.len().min(256)]),
        _ => vec![0.0; aiio_darshan::N_COUNTERS],
    };

    let split_top = top_k(&splits, 8);
    let perm_top = top_k(&perm, 8);
    let mask_top = top_k(&masks, 8);

    let rows: Vec<Vec<String>> = (0..8)
        .map(|i| {
            vec![
                split_top
                    .get(i)
                    .map(|(n, v)| format!("{n} ({v:.3})"))
                    .unwrap_or_default(),
                perm_top
                    .get(i)
                    .map(|(n, v)| format!("{n} ({v:.3})"))
                    .unwrap_or_default(),
                mask_top
                    .get(i)
                    .map(|(n, v)| format!("{n} ({v:.3})"))
                    .unwrap_or_default(),
            ]
        })
        .collect();
    print_table(&["tree splits", "permutation", "tabnet masks"], &rows);

    // How many of the split-importance top 8 also appear in the
    // permutation top 8?
    let split_set: std::collections::HashSet<&String> = split_top.iter().map(|(n, _)| n).collect();
    let overlap = perm_top
        .iter()
        .filter(|(n, _)| split_set.contains(n))
        .count();
    println!("top-8 overlap between tree-split and permutation importance: {overlap}/8");

    write_json(
        "importance",
        &ImportanceResult {
            split_top,
            permutation_top: perm_top,
            tabnet_mask_top: mask_top,
            rank_overlap_top8: overlap,
        },
    )
}
