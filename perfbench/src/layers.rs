//! Per-layer figures derived from a traced replay.
//!
//! The result line carries the same per-layer metrics for every workload:
//! each layer's share of the replay's self time, how much tracing slowed
//! the replay, and how much of the client-observed latency the in-process
//! work explains. A layer a workload never calls reads 0. The workload-
//! specific table (per-call µs, counts, ratios) goes to the layer file.

use crate::trace::{self, Span};
use crate::util::{self, metric, Metric};
use std::collections::BTreeMap;

/// The workspace crates on the three paths, by span-name prefix.
/// `linalg` has no spans of its own: inside a diagnosis its solve runs
/// within `explain`, so it is measured by a direct probe instead.
pub const LAYERS: [&str; 9] = [
    "serve", "aiio", "explain", "nn", "gbdt", "darshan", "store", "shard", "par",
];

fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = trace::self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0) += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Self time per op of every layer, µs (layer-file detail).
pub fn self_us_per_op(spans: &[Span], ops: f64) -> Vec<Metric> {
    let by_layer = self_ns_by_layer(spans);
    LAYERS
        .iter()
        .map(|l| {
            let ns = by_layer.get(l).copied().unwrap_or(0);
            metric(
                format!("{l}.self_us_per_op"),
                ns as f64 / 1e3 / ops.max(1.0),
                "us",
            )
        })
        .collect()
}

/// The per-layer metrics of the result line.
///
/// * `replay_ms`: in-process time of each op with tracing off;
/// * `http_ms`: client-observed latency of the same op ids (empty when the
///   workload has no HTTP phase);
/// * `on_s` / `off_s`: wall time of the same replay with spans on / off.
pub fn universal(
    spans: &[Span],
    replay_ms: &[f64],
    http_ms: &[f64],
    on_s: f64,
    off_s: f64,
) -> Vec<Metric> {
    let by_layer = self_ns_by_layer(spans);
    let total: u64 = by_layer.values().sum();
    let mut out: Vec<Metric> = LAYERS
        .iter()
        .map(|l| {
            let ns = by_layer.get(l).copied().unwrap_or(0);
            metric(
                format!("{l}.self_frac"),
                ns as f64 / total.max(1) as f64,
                "frac",
            )
        })
        .collect();
    out.push(metric(
        "trace.overhead_frac",
        (on_s - off_s) / off_s,
        "frac",
    ));
    let replayed: Vec<f64> = replay_ms
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    out.push(metric(
        "replay.op_ms",
        util::percentile(&replayed, 0.5),
        "ms",
    ));
    let (mut http_sum, mut replay_sum) = (0.0, 0.0);
    for (h, r) in http_ms.iter().zip(replay_ms) {
        if h.is_finite() && r.is_finite() {
            http_sum += h;
            replay_sum += r;
        }
    }
    let serve_overhead = if http_sum > 0.0 {
        (http_sum - replay_sum) / http_sum
    } else {
        0.0
    };
    out.push(metric("serve.overhead_frac", serve_overhead, "frac"));
    out
}
