//! `diagnose`: the paper's job-level path. A served default zoo answers
//! `POST /diagnose` for unseen jobs from two closed-loop connections.

use crate::layers;
use crate::trace::{self, Span};
use crate::util::{self, metric, Ctx, HttpOp, Outcome, Tally};
use aiio::diagnosis::CounterContribution;
use aiio::{
    advice_for, average_weights, merge_attributions_average, AiioService, AnyModel,
    DiagnosisConfig, DiagnosisReport, ModelKind, TrainConfig,
};
use aiio_darshan::{CounterId, JobLog, N_COUNTERS};
use aiio_explain::kernel::{KernelShap, KernelShapConfig};
use aiio_explain::{Attribution, Predictor};
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_serve::{ServeConfig, Server};
use std::io;
use std::time::Instant;

/// The served model is fixed: it is the deployment, not the traffic.
/// Only the diagnosed jobs come from `--seed`.
const MODEL_SEED: u64 = 7;
const MODEL_JOBS: usize = 300;
/// Unseen traffic uses iosim seeds far from the model's.
const TRAFFIC_SEED_BASE: u64 = 1_000_000;
const WORKERS: usize = 2;
const ENGINE_THREADS: usize = 1;
const CONNECTIONS: usize = 2;
const TRAIN_THREADS: usize = 2;
/// Reports per second the measured phase is sized for.
const NOMINAL_PER_S: f64 = 32.0;
const SETUPS: usize = 5;

struct Setup {
    service: AiioService,
    server: Server,
    jobs: Vec<JobLog>,
    bodies: Vec<String>,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        engine_threads: ENGINE_THREADS,
        ..ServeConfig::default()
    }
}

/// Generation, training the served model and bind: what `setup_s` times.
fn setup(seed: u64, n_ops: usize) -> io::Result<Setup> {
    let (service, jobs) = aiio_par::with_threads(TRAIN_THREADS, || {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: MODEL_JOBS,
            seed: MODEL_SEED,
            ..SamplerConfig::default()
        })
        .generate();
        let service = AiioService::train(&TrainConfig::default(), &db).map_err(io::Error::other)?;
        let traffic = DatabaseSampler::new(SamplerConfig {
            n_jobs: n_ops,
            seed: TRAFFIC_SEED_BASE + seed,
            ..SamplerConfig::default()
        })
        .generate();
        Ok::<_, io::Error>((service, traffic.jobs().to_vec()))
    })?;
    let bodies = jobs
        .iter()
        .map(|j| serde_json::to_string(j).map_err(io::Error::other))
        .collect::<io::Result<Vec<_>>>()?;
    // Binding pins the engine to ENGINE_THREADS process-wide.
    let server = Server::bind("127.0.0.1:0", service.clone(), serve_config())?;
    Ok(Setup {
        service,
        server,
        jobs,
        bodies,
    })
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let n = ctx.ops(NOMINAL_PER_S);
    let mut setup_s = Vec::new();
    util::flush_dirty_pages();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            let (_, stop) = util::start_server(old.server);
            stop()?;
        }
        let t = Instant::now();
        kept = Some(setup(ctx.args.seed, n)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Some(s) = kept else {
        return Err(io::Error::other("no set-up ran"));
    };

    // Measured phase: tracing off.
    util::flush_dirty_pages();
    let (addr, stop) = util::start_server(s.server);
    let rss = util::RssSampler::start();
    let t0 = Instant::now();
    let mut replies: Vec<(u64, util::Reply)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let ops: Vec<(u64, HttpOp)> = (c..n)
                    .step_by(CONNECTIONS)
                    .map(|i| {
                        (
                            i as u64,
                            HttpOp {
                                method: "POST",
                                path: "/diagnose".into(),
                                body: Some(s.bodies[i].clone()),
                            },
                        )
                    })
                    .collect();
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut got = Vec::with_capacity(ops.len());
                    util::closed_loop(&addr, &ops, |id, r| got.push((id, r)));
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let rss = rss.stop();
    stop()?;
    replies.sort_by_key(|(id, _)| *id);

    let mut tally = Tally::default();
    let mut http_ms = vec![f64::NAN; n];
    let mut http_body: Vec<Option<String>> = vec![None; n];
    let mut latencies = Vec::with_capacity(n);
    for (id, reply) in replies {
        match reply.result {
            Err(e) => tally.transport(&e),
            Ok(resp) if resp.status != 200 => {
                tally.fail(format!("op {id}: HTTP {}", resp.status));
            }
            Ok(resp) => {
                latencies.push(reply.ms);
                http_ms[id as usize] = reply.ms;
                http_body[id as usize] = Some(resp.body);
                tally.ok();
            }
        }
    }
    if tally.attempted < n as u64 {
        tally.fail(format!(
            "{} of {n} requests never completed",
            n as u64 - tally.attempted
        ));
    }

    // Correctness: every report is byte-equal to the in-process service.
    let mut out = Outcome::default();
    let mut spans: Vec<Span> = Vec::new();
    if ctx.args.trace {
        let (off, on) = aiio_par::with_threads(ENGINE_THREADS, || {
            (
                replay(&s.service, &s.bodies, false),
                replay(&s.service, &s.bodies, true),
            )
        });
        compare_reports(&mut tally, &http_body, &off.reports, "replay");
        compare_reports(&mut tally, &http_body, &on.reports, "traced replay");
        check_self_time_sums(&mut tally, &on.spans);
        let k = median_active_features(&s.service, &s.jobs);
        out.layer_detail = detail(&s.service, &on.spans, &off, &http_ms, &http_body, k);
        out.per_layer = layers::universal(&on.spans, &off.op_ms, &http_ms, on.wall_s, off.wall_s);
        spans = on.spans;
    } else {
        let expected = in_process_reports(&s.service, &s.jobs);
        compare_reports(&mut tally, &http_body, &expected, "service.diagnose");
    }
    let mut fnv = util::Fnv::default();
    for b in http_body.iter().flatten() {
        fnv.update(b.as_bytes());
    }

    out.end_to_end = vec![
        metric("op.p50_ms", util::percentile(&latencies, 0.5), "ms"),
        metric("op.p90_ms", util::percentile(&latencies, 0.9), "ms"),
        metric("op.rate_per_s", latencies.len() as f64 / wall_s, "1/s"),
        metric("read.p50_ms", util::percentile(&latencies, 0.5), "ms"),
        metric("read.p90_ms", util::percentile(&latencies, 0.9), "ms"),
        metric("setup_s", util::median(&setup_s), "s"),
        metric("rss_mib", rss, "MiB"),
    ];
    out.context = vec![
        ("ops".into(), format!("{} POST /diagnose", latencies.len())),
        (
            "op".into(),
            "POST /diagnose -> report; read = the same request".into(),
        ),
        ("diagnose.report_fnv".into(), fnv.hex()),
        ("server_workers".into(), WORKERS.to_string()),
        ("engine_threads".into(), ENGINE_THREADS.to_string()),
        ("client_connections".into(), CONNECTIONS.to_string()),
        (
            "model".into(),
            format!("TrainConfig::default() on {MODEL_JOBS} iosim jobs, seed {MODEL_SEED}"),
        ),
        (
            "segment_cache".into(),
            "not on this path (no store attached)".into(),
        ),
    ];
    out.tally = tally;
    if !spans.is_empty() {
        std::fs::write(ctx.out_file("spans.jsonl"), trace::to_jsonl(&spans))?;
    }
    Ok(out)
}

fn compare_reports(tally: &mut Tally, http: &[Option<String>], want: &[String], what: &str) {
    for (i, (got, want)) in http.iter().zip(want).enumerate() {
        // Requests that already failed are counted once, above.
        if let Some(got) = got {
            tally.check(got == want, || {
                format!("op {i}: report differs from {what}")
            });
        }
    }
}

fn in_process_reports(service: &AiioService, jobs: &[JobLog]) -> Vec<String> {
    let per_thread: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    (c..jobs.len())
                        .step_by(CONNECTIONS)
                        .map(|i| {
                            let r = serde_json::to_string(&service.diagnose(&jobs[i]));
                            (i, r.unwrap_or_default())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut out = vec![String::new(); jobs.len()];
    for (i, r) in per_thread.into_iter().flatten() {
        out[i] = r;
    }
    out
}

/// A model whose batch predictions are recorded as spans.
struct Timed<'a> {
    model: &'a AnyModel,
    name: &'static str,
}

impl Predictor for Timed<'_> {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        trace::span_items(self.name, rows.len() as u64, || {
            Predictor::predict_batch(self.model, rows)
        })
    }
}

fn predict_span(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::XgboostLike => "gbdt.xgboost.predict",
        ModelKind::LightgbmLike => "gbdt.lightgbm.predict",
        ModelKind::CatboostLike => "gbdt.catboost.predict",
        ModelKind::Mlp => "nn.mlp.predict",
        ModelKind::TabNet => "nn.tabnet.predict",
    }
}

/// One diagnosis, composed from the layers' public functions in the order
/// `Diagnoser::try_diagnose` calls them (Kernel SHAP, average merge).
fn diagnose_traced(service: &AiioService, log: &JobLog) -> DiagnosisReport {
    let zoo = service.zoo();
    let pipeline = service.pipeline();
    let config = DiagnosisConfig::default();
    let features = trace::span("darshan.features_of", || pipeline.features_of(log));
    let tag = pipeline.tag_of(log);
    let per_model: Vec<(ModelKind, Attribution)> = trace::span("par.map", || {
        aiio_par::map_indexed(zoo.models(), |i, tm| {
            let attr = trace::span("explain.kernel_shap", || {
                let background = vec![0.0; features.len()];
                let expected = trace::span("aiio.baseline", || {
                    service.baseline_cache().expected_for(zoo.len(), i, || {
                        Predictor::predict_one(&tm.model, &background)
                    })
                });
                let timed = Timed {
                    model: &tm.model,
                    name: predict_span(tm.kind),
                };
                KernelShap::new(KernelShapConfig {
                    max_evals: config.max_evals,
                    seed: config.seed,
                })
                .explain_with_baseline(&timed, &features, &background, expected)
            });
            (tm.kind, attr)
        })
    });
    let predictions = trace::span("aiio.predict_all", || zoo.predict_all(&features));
    let predictions_mib_s = zoo
        .models()
        .iter()
        .zip(&predictions)
        .map(|(tm, &p)| (tm.kind, pipeline.tag_to_mib_s(p)))
        .collect();
    // A trained zoo is never empty, so the weights always exist.
    let w = average_weights(&predictions, tag).unwrap_or_default();
    let attrs: Vec<Attribution> = per_model.iter().map(|(_, a)| a.clone()).collect();
    let merged = merge_attributions_average(&attrs, &w);
    let mut bottlenecks = Vec::new();
    let mut positives = Vec::new();
    for i in 0..N_COUNTERS {
        let c = CounterId::from_index(i);
        let entry = CounterContribution {
            counter: c,
            raw_value: log.counters.get(c),
            contribution: merged.values[i],
        };
        if entry.contribution < 0.0 {
            bottlenecks.push(entry);
        } else if entry.contribution > 0.0 {
            positives.push(entry);
        }
    }
    bottlenecks.sort_by(|a, b| a.contribution.total_cmp(&b.contribution));
    positives.sort_by(|a, b| b.contribution.total_cmp(&a.contribution));
    let advice = bottlenecks
        .iter()
        .filter_map(|c| advice_for(c.counter, c.raw_value))
        .take(4)
        .collect();
    DiagnosisReport {
        job_id: log.job_id,
        app: log.app.clone(),
        performance_mib_s: log.performance_mib_s(),
        predictions_mib_s,
        per_model,
        merged,
        merge: config.merge,
        bottlenecks,
        positives,
        advice,
    }
}

/// The server's handler work for one request body, in process.
fn handle_traced(service: &AiioService, body: &str) -> String {
    let log: Result<JobLog, _> = trace::span("serve.decode", || serde_json::from_str(body));
    let Ok(log) = log else {
        return String::new();
    };
    let report = trace::span("aiio.diagnose", || diagnose_traced(service, &log));
    trace::span("serve.encode", || serde_json::to_string(&report)).unwrap_or_default()
}

struct Replay {
    reports: Vec<String>,
    /// In-process time of each op, ms (indexed by op id).
    op_ms: Vec<f64>,
    spans: Vec<Span>,
    wall_s: f64,
}

/// Replay every request in process with the measured phase's
/// concurrency: one thread per connection, same op ids.
fn replay(service: &AiioService, bodies: &[String], traced: bool) -> Replay {
    /// One thread's (op id, ms, encoded report) results and its spans.
    type Part = (Vec<(usize, f64, String)>, Vec<Span>);
    let t0 = Instant::now();
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    trace::enable(traced);
                    let mut got = Vec::new();
                    for i in (c..bodies.len()).step_by(CONNECTIONS) {
                        let t = Instant::now();
                        let r = trace::root("serve.diagnose", i as u64, || {
                            handle_traced(service, &bodies[i])
                        });
                        got.push((i, t.elapsed().as_secs_f64() * 1e3, r));
                    }
                    trace::enable(false);
                    (got, trace::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut reports = vec![String::new(); bodies.len()];
    let mut op_ms = vec![f64::NAN; bodies.len()];
    let mut spans = Vec::new();
    for (got, s) in parts {
        for (i, ms, r) in got {
            reports[i] = r;
            op_ms[i] = ms;
        }
        spans.extend(s);
    }
    Replay {
        reports,
        op_ms,
        spans,
        wall_s,
    }
}

/// Self times under each `aiio.diagnose` span must add up to its duration:
/// its children run one after another, so nothing is counted twice or lost.
/// Tolerance: 0.5% of the span, plus 2 µs of clock granularity.
fn check_self_time_sums(tally: &mut Tally, spans: &[Span]) {
    let selfs = trace::self_times(spans);
    for s in spans.iter().filter(|s| s.name == "aiio.diagnose") {
        let sum = trace::subtree_self_ns(spans, &selfs, s.id) as f64;
        let dur = s.duration_ns() as f64;
        tally.check((sum - dur).abs() <= dur * 0.005 + 2_000.0, || {
            format!("op {}: self times sum to {sum} ns, span is {dur} ns", s.op)
        });
    }
}

fn median_active_features(service: &AiioService, jobs: &[JobLog]) -> usize {
    let ks: Vec<f64> = jobs
        .iter()
        .map(|j| {
            let f = service.pipeline().features_of(j);
            aiio_explain::sparsity_mask(&f, &vec![0.0; f.len()]).len() as f64
        })
        .collect();
    util::median(&ks).round() as usize
}

/// `weighted_least_squares` on a Kernel-SHAP-shaped problem: 1024
/// coalition rows over `k - 1` eliminated columns. Inside a diagnosis this
/// solve is folded into `explain.kernel_shap` self time; calling it
/// directly at the workload's median `k` gives its shape-matched cost.
fn wls_probe_us(k: usize) -> f64 {
    use rand::{Rng, SeedableRng};
    let k = k.clamp(2, 60);
    let p = k - 1;
    let rows = 1024;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(k as u64);
    let mut design = aiio_linalg::Matrix::zeros(rows, p);
    let mut target = vec![0.0; rows];
    let mut weights = vec![0.0; rows];
    for r in 0..rows {
        let mask: u64 = rng.gen_range(1..(1u64 << k) - 1);
        let z_last = (mask >> (k - 1) & 1) as f64;
        for j in 0..p {
            design[(r, j)] = (mask >> j & 1) as f64 - z_last;
        }
        let s = mask.count_ones() as f64;
        weights[r] = 1.0 / (s * (k as f64 - s)).max(1.0);
        target[r] = rng.gen_range(-1.0..1.0);
    }
    let times: Vec<f64> = (0..25)
        .map(|_| {
            let t = Instant::now();
            let beta = aiio_linalg::weighted_least_squares(&design, &target, &weights, 0.0);
            std::hint::black_box(beta).ok();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    util::median(&times)
}

fn detail(
    service: &AiioService,
    spans: &[Span],
    off: &Replay,
    http_ms: &[f64],
    http_body: &[Option<String>],
    k: usize,
) -> Vec<util::Metric> {
    let names = trace::by_name(spans);
    let ops = off.reports.len().max(1) as f64;
    let stat = |n: &str| names.get(n).cloned().unwrap_or_default();
    let per_call_us = |n: &str| {
        let s = stat(n);
        s.total_ns as f64 / 1e3 / s.calls.max(1) as f64
    };
    let self_per_call_us = |n: &str| {
        let s = stat(n);
        s.self_ns as f64 / 1e3 / s.calls.max(1) as f64
    };
    let explains = stat("explain.kernel_shap");
    let predicted_rows: u64 = service
        .zoo()
        .models()
        .iter()
        .map(|m| stat(predict_span(m.kind)).items)
        .sum();
    let mut d = Vec::new();
    for m in service.zoo().models() {
        let name = predict_span(m.kind);
        // One explanation per model per op: 1024 coalitions + f(x).
        d.push(metric(
            format!("{}_us", name),
            stat(name).total_ns as f64 / 1e3 / ops,
            "us",
        ));
        if let AnyModel::Gbdt(b) = &m.model {
            d.push(metric(
                name.replace(".predict", ".trees"),
                b.best_n_trees() as f64,
                "count",
            ));
        }
    }
    d.push(metric(
        "explain.kernel_shap.self_us",
        self_per_call_us("explain.kernel_shap"),
        "us",
    ));
    d.push(metric(
        "explain.rows_per_explain",
        predicted_rows as f64 / explains.calls.max(1) as f64,
        "count",
    ));
    d.push(metric("linalg.wls_us", wls_probe_us(k), "us"));
    d.push(metric("linalg.wls_k", k as f64, "count"));
    d.push(metric(
        "aiio.diagnose_us",
        per_call_us("aiio.diagnose"),
        "us",
    ));
    d.push(metric(
        "aiio.merge_advice_us",
        self_per_call_us("aiio.diagnose"),
        "us",
    ));
    d.push(metric(
        "aiio.predict_all_us",
        per_call_us("aiio.predict_all"),
        "us",
    ));
    let cache = service.baseline_cache();
    let lookups = (cache.hits() + cache.misses()).max(1) as f64;
    d.push(metric(
        "aiio.baseline_hit_ratio",
        cache.hits() as f64 / lookups,
        "frac",
    ));
    d.push(metric(
        "darshan.features_of_us",
        per_call_us("darshan.features_of"),
        "us",
    ));
    d.push(metric("par.map_self_us", self_per_call_us("par.map"), "us"));
    let overhead: Vec<f64> = http_ms
        .iter()
        .zip(&off.op_ms)
        .filter(|(h, r)| h.is_finite() && r.is_finite())
        .map(|(h, r)| (h - r) * 1e3)
        .collect();
    d.push(metric(
        "serve.diagnose.overhead_us",
        util::median(&overhead),
        "us",
    ));
    d.push(metric(
        "serve.diagnose.decode_us",
        per_call_us("serve.decode"),
        "us",
    ));
    d.push(metric(
        "serve.diagnose.encode_us",
        per_call_us("serve.encode"),
        "us",
    ));
    let bytes: Vec<f64> = http_body.iter().flatten().map(|b| b.len() as f64).collect();
    d.push(metric(
        "serve.diagnose.response_bytes",
        util::median(&bytes),
        "bytes",
    ));
    d.extend(layers::self_us_per_op(spans, ops));
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio::ZooConfig;
    use aiio_gbdt::GbdtConfig;

    #[test]
    fn traced_replay_reproduces_reports_and_self_times_add_up() {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 120,
            seed: 3,
            ..SamplerConfig::default()
        })
        .generate();
        let mut cfg = TrainConfig::fast();
        cfg.zoo = ZooConfig {
            xgboost: GbdtConfig {
                n_rounds: 10,
                ..GbdtConfig::xgboost_like()
            },
            ..ZooConfig::fast()
        }
        .with_kinds(&[ModelKind::XgboostLike, ModelKind::Mlp]);
        let service = AiioService::train(&cfg, &db).unwrap();
        let jobs = DatabaseSampler::new(SamplerConfig {
            n_jobs: 4,
            seed: 99,
            ..SamplerConfig::default()
        })
        .generate();
        let bodies: Vec<String> = jobs
            .jobs()
            .iter()
            .map(|j| serde_json::to_string(j).unwrap())
            .collect();
        let r = aiio_par::with_threads(1, || replay(&service, &bodies, true));
        for (job, got) in jobs.jobs().iter().zip(&r.reports) {
            assert_eq!(got, &serde_json::to_string(&service.diagnose(job)).unwrap());
        }
        let mut tally = Tally::default();
        check_self_time_sums(&mut tally, &r.spans);
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        // Every span of an op carries the op's id.
        for s in &r.spans {
            assert!(s.op < 4);
        }
    }
}
