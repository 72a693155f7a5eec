//! `train-store`: out-of-core training of the default zoo over a sealed,
//! compacted 4-shard fleet, then persisting the model (`train --store`).

use crate::layers;
use crate::trace::{self, Span};
use crate::util::{self, metric, Ctx, Outcome, Tally};
use aiio::{AiioService, AnyModel, DriftDetector, ModelKind, TrainConfig};
use aiio_darshan::{JobLog, LogDatabase, SplitIndices, StoreBackend};
use aiio_gbdt::Booster;
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_nn::{Mlp, TabNet};
use aiio_shard::ShardedStore;
use aiio_store::{SegmentCache, StoreConfig};
use rand::{Rng, SeedableRng};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The archive's content is fixed: training time follows early stopping,
/// which follows the data, and seed-to-seed changes in the data would
/// move it far more than the changes this workload exists to catch.
/// `--seed` sets the job ids (so the rows' shard placement) and the
/// ingest batch sizes (so the WAL and segment layout).
const ARCHIVE_SEED: u64 = 11;
const ARCHIVE_JOBS: usize = 800;
const SHARDS: usize = 4;
const TRAIN_THREADS: usize = 2;
/// Seconds one training is sized at; the measured phase runs
/// `--seconds / NOMINAL_TRAIN_S` trainings (at least one).
const NOMINAL_TRAIN_S: f64 = 3.5;
/// Unseen jobs the fresh model diagnoses after each training (the `read`
/// op), drawn from `--seed`.
const PROBES: usize = 16;
const PROBE_SEED_BASE: u64 = 3_000_000;
const SETUPS: usize = 3;

fn archive(seed: u64) -> Vec<JobLog> {
    let mut jobs = DatabaseSampler::new(SamplerConfig {
        n_jobs: ARCHIVE_JOBS,
        seed: ARCHIVE_SEED,
        ..SamplerConfig::default()
    })
    .generate()
    .jobs()
    .to_vec();
    let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
    for (i, j) in jobs.iter_mut().enumerate() {
        j.job_id = base + i as u64;
    }
    jobs
}

/// What one set-up yields.
struct Setup {
    jobs: Vec<JobLog>,
    probes: Vec<JobLog>,
    /// The same logs trained in memory: what every saved model must equal.
    reference: AiioService,
}

/// Generation, store seeding (ingest in seeded batch sizes, then seal and
/// compact every shard) and training the in-memory reference model. The
/// store work alone is ~20 fsyncs, whose latency varies far more between
/// runs than any CPU work does; the reference training makes set-up time
/// as steady as the trainings it precedes.
fn setup(dir: &Path, seed: u64) -> io::Result<Setup> {
    let (jobs, probes) = aiio_par::with_threads(TRAIN_THREADS, || {
        let probes = DatabaseSampler::new(SamplerConfig {
            n_jobs: PROBES,
            seed: PROBE_SEED_BASE + seed,
            ..SamplerConfig::default()
        })
        .generate();
        (archive(seed), probes.jobs().to_vec())
    });
    let mut fleet =
        ShardedStore::open_with(dir, SHARDS, StoreConfig::default()).map_err(|e| e.into_io())?;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut at = 0;
    while at < jobs.len() {
        let take = rng.gen_range(1..=64usize).min(jobs.len() - at);
        fleet
            .append_batch(&jobs[at..at + take])
            .map_err(|e| e.into_io())?;
        at += take;
    }
    fleet.sync().map_err(|e| e.into_io())?;
    fleet.seal().map_err(|e| e.into_io())?;
    fleet.compact().map_err(|e| e.into_io())?;
    drop(fleet);
    let db: LogDatabase = jobs.iter().cloned().collect();
    let reference = aiio_par::with_threads(TRAIN_THREADS, || {
        AiioService::train(&TrainConfig::default(), &db)
    })
    .map_err(io::Error::other)?;
    Ok(Setup {
        jobs,
        probes,
        reference,
    })
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let trainings = ((ctx.args.seconds as f64 / NOMINAL_TRAIN_S).round() as usize).max(1);
    let mut setup_s = Vec::new();
    let mut kept = None;
    util::flush_dirty_pages();
    for round in 0..SETUPS {
        let dir = ctx.work.join(format!("fleet-{round}"));
        let t = Instant::now();
        let s = setup(&dir, ctx.args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((dir, s));
    }
    let Some((
        dir,
        Setup {
            jobs,
            probes,
            reference: reference_service,
        },
    )) = kept
    else {
        return Err(io::Error::other("no set-up ran"));
    };
    let config = TrainConfig::default();
    let mut tally = Tally::default();

    // Measured phase: each training opens the fleet with a cold block
    // cache, trains on 2 engine threads and saves; the fresh model then
    // diagnoses the unseen probe jobs (the `read` op).
    let mut train_s = Vec::new();
    let mut read_ms = Vec::new();
    let mut saved: Vec<Vec<u8>> = Vec::new();
    let mut reports: Vec<Vec<String>> = Vec::new();
    let mut last_service = None;
    util::flush_dirty_pages();
    let rss = util::RssSampler::start();
    for t in 0..trainings {
        let path = ctx.work.join(format!("model-{t}.json"));
        util::clear_shared_cache();
        let t0 = Instant::now();
        let trained = ShardedStore::open(&dir)
            .map_err(|e| e.to_string())
            .and_then(|fleet| {
                aiio_par::with_threads(TRAIN_THREADS, || {
                    AiioService::train_from_backend(&config, &fleet)
                })
                .map_err(|e| e.to_string())
            })
            .and_then(|service| {
                service
                    .save(&path)
                    .map(|()| service)
                    .map_err(|e| e.to_string())
            });
        let secs = t0.elapsed().as_secs_f64();
        let service = match trained {
            Err(e) => {
                tally.fail(format!("training {t}: {e}"));
                continue;
            }
            Ok(service) => service,
        };
        train_s.push(secs);
        tally.ok();
        saved.push(std::fs::read(&path)?);
        let mut got = Vec::new();
        for job in &probes {
            let t1 = Instant::now();
            let report = aiio_par::with_threads(1, || service.diagnose(job));
            read_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            tally.ok();
            got.push(serde_json::to_string(&report).unwrap_or_default());
        }
        reports.push(got);
        last_service = Some(service);
    }
    let rss = rss.stop();

    // Correctness: every saved model is byte-equal to training the same
    // logs in memory, and so are the probe reports it produced.
    let reference = serde_json::to_string(&reference_service).map_err(io::Error::other)?;
    for (t, bytes) in saved.iter().enumerate() {
        tally.check(bytes.as_slice() == reference.as_bytes(), || {
            format!("saved model {t} differs from in-memory training")
        });
    }
    let want: Vec<String> = aiio_par::with_threads(TRAIN_THREADS, || {
        probes
            .iter()
            .map(|j| serde_json::to_string(&reference_service.diagnose(j)).unwrap_or_default())
            .collect()
    });
    for (t, got) in reports.iter().enumerate() {
        tally.check(got == &want, || {
            format!("training {t}: probe reports differ from the in-memory model's")
        });
    }
    let model_fnv = util::fnv_hex(reference.as_bytes());

    let mut out = Outcome::default();
    if ctx.args.trace {
        if let Some(service) = &last_service {
            let off = replay(ctx, &dir, &config, service, false)?;
            let on = replay(ctx, &dir, &config, service, true)?;
            for r in [&off, &on] {
                check_models(&mut tally, service, &r.models);
            }
            out.per_layer =
                layers::universal(&on.spans, &[off.train_ms], &[], on.wall_s, off.wall_s);
            out.layer_detail = detail(&on, &dir)?;
            std::fs::write(ctx.out_file("spans.jsonl"), trace::to_jsonl(&on.spans))?;
        }
    }
    let train_ms: Vec<f64> = train_s.iter().map(|s| s * 1e3).collect();
    out.end_to_end = vec![
        metric("op.p50_ms", util::percentile(&train_ms, 0.5), "ms"),
        metric("op.p90_ms", util::percentile(&train_ms, 0.9), "ms"),
        metric(
            "op.rate_per_s",
            (jobs.len() * train_s.len()) as f64 / train_s.iter().sum::<f64>(),
            "1/s",
        ),
        metric("read.p50_ms", util::percentile(&read_ms, 0.5), "ms"),
        metric("read.p90_ms", util::percentile(&read_ms, 0.9), "ms"),
        metric("setup_s", util::median(&setup_s), "s"),
        metric("rss_mib", rss, "MiB"),
    ];
    out.context = vec![
        ("ops".into(), format!("{} trainings, {} probe diagnoses", train_s.len(), read_ms.len())),
        (
            "op".into(),
            "open fleet -> train_from_backend -> save; rate = rows trained/s; read = one diagnosis by the fresh model".into(),
        ),
        ("train.model_fnv".into(), model_fnv),
        ("archive".into(), format!("{ARCHIVE_JOBS} iosim jobs (seed {ARCHIVE_SEED}) on {SHARDS} shards, sealed + compacted")),
        ("engine_threads".into(), TRAIN_THREADS.to_string()),
        ("server_workers".into(), "0 (no server on this path)".into()),
        ("client_connections".into(), "1 (in process)".into()),
        ("segment_cache".into(), "shared cache cleared before every training; replays use a fresh private cache".into()),
    ];
    out.tally = tally;
    Ok(out)
}

/// The fleet as a training source, with the scan and the per-row
/// featurisation it feeds recorded as separate spans.
struct TimedFleet<'a>(&'a ShardedStore);

impl StoreBackend for TimedFleet<'_> {
    fn job_count(&self) -> io::Result<usize> {
        self.0.job_count()
    }

    fn stream_jobs(&self, sink: &mut dyn FnMut(&JobLog)) -> io::Result<()> {
        trace::span("shard.scan", || {
            self.0
                .stream_jobs(&mut |job| trace::span("darshan.featurize_row", || sink(job)))
        })
    }
}

fn fit_span(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::XgboostLike => "gbdt.xgboost.fit",
        ModelKind::LightgbmLike => "gbdt.lightgbm.fit",
        ModelKind::CatboostLike => "gbdt.catboost.fit",
        ModelKind::Mlp => "nn.mlp.fit",
        ModelKind::TabNet => "nn.tabnet.fit",
    }
}

/// One family's fit, exactly as `ModelZoo::train` runs it.
fn fit(
    kind: ModelKind,
    config: &TrainConfig,
    train: &aiio_darshan::Dataset,
    valid: &aiio_darshan::Dataset,
) -> Result<AnyModel, String> {
    let z = &config.zoo;
    let v = Some((valid.x.as_slice(), valid.y.as_slice()));
    let (x, y) = (&train.x, &train.y);
    match kind {
        ModelKind::XgboostLike => Booster::fit(&z.xgboost, x, y, v)
            .map(AnyModel::Gbdt)
            .map_err(|e| e.to_string()),
        ModelKind::LightgbmLike => Booster::fit(&z.lightgbm, x, y, v)
            .map(AnyModel::Gbdt)
            .map_err(|e| e.to_string()),
        ModelKind::CatboostLike => Booster::fit(&z.catboost, x, y, v)
            .map(AnyModel::Gbdt)
            .map_err(|e| e.to_string()),
        ModelKind::Mlp => Mlp::fit(&z.mlp, x, y, v)
            .map(AnyModel::Mlp)
            .map_err(|e| e.to_string()),
        ModelKind::TabNet => TabNet::fit(&z.tabnet, x, y, v)
            .map(AnyModel::TabNet)
            .map_err(|e| e.to_string()),
    }
}

struct Replay {
    spans: Vec<Span>,
    wall_s: f64,
    /// In-process time of the training op, ms.
    train_ms: f64,
    models: Vec<(ModelKind, Result<AnyModel, String>)>,
}

/// Replay `train_from_backend` from the layers' public functions, then
/// `save`: dataset build over the fleet (cold private cache), the split,
/// every family's fit through the engine on 2 threads, the drift fit.
fn replay(
    ctx: &Ctx,
    dir: &Path,
    config: &TrainConfig,
    service: &AiioService,
    traced: bool,
) -> io::Result<Replay> {
    let mut fleet = ShardedStore::open(dir).map_err(|e| e.into_io())?;
    fleet.set_cache(Some(Arc::new(SegmentCache::new(
        aiio_store::cache::DEFAULT_CAPACITY_BYTES,
    ))));
    trace::enable(traced);
    let t0 = Instant::now();
    let models = trace::root("aiio.train", 0, || -> io::Result<_> {
        let pipeline = service.pipeline();
        let ds = trace::span("darshan.dataset_of_backend", || {
            pipeline.dataset_of_backend(&TimedFleet(&fleet))
        })?;
        let split = SplitIndices::of_len(ds.len(), config.train_fraction, config.seed);
        let train = ds.subset(&split.train);
        let valid = ds.subset(&split.valid);
        let fits = trace::span("par.map", || {
            let parent = trace::current();
            aiio_par::with_threads(TRAIN_THREADS, || {
                aiio_par::map(&config.zoo.kinds, |&kind| {
                    let start = trace::now_ns();
                    let model = fit(kind, config, &train, &valid);
                    (kind, model, start, trace::now_ns())
                })
            })
            .into_iter()
            .map(|(kind, model, start, end)| {
                if let Some(p) = parent {
                    trace::push(trace::external(fit_span(kind), p, start, end));
                }
                (kind, model)
            })
            .collect::<Vec<_>>()
        });
        trace::span("aiio.drift_fit", || DriftDetector::fit(&train));
        Ok(fits)
    })?;
    let train_ms = t0.elapsed().as_secs_f64() * 1e3;
    let path = ctx.work.join("replay-model.json");
    trace::root("aiio.save", 1, || service.save(&path))?;
    let wall_s = t0.elapsed().as_secs_f64();
    trace::enable(false);
    Ok(Replay {
        spans: trace::take(),
        wall_s,
        train_ms,
        models,
    })
}

/// The replay fits the same models the measured training saved.
fn check_models(
    tally: &mut Tally,
    service: &AiioService,
    models: &[(ModelKind, Result<AnyModel, String>)],
) {
    for (kind, model) in models {
        let want = service.zoo().get(*kind).map(serde_json::to_string);
        let got = model.as_ref().ok().map(serde_json::to_string);
        match (want, got) {
            (Some(Ok(w)), Some(Ok(g))) => {
                tally.check(w == g, || format!("replayed {kind} fit differs"))
            }
            _ => tally.fail(format!("replayed {kind} fit is missing or failed")),
        }
    }
}

fn detail(on: &Replay, dir: &Path) -> io::Result<Vec<util::Metric>> {
    let names = trace::by_name(&on.spans);
    let stat = |k: &str| names.get(k).cloned().unwrap_or_default();
    let secs = |k: &str| stat(k).total_ns as f64 / 1e9;
    let mut d = Vec::new();
    let mut fit_sum = 0.0;
    for (kind, model) in &on.models {
        let name = fit_span(*kind);
        fit_sum += secs(name);
        d.push(metric(format!("{name}_s"), secs(name), "s"));
        match model {
            Ok(AnyModel::Gbdt(b)) => d.push(metric(
                name.replace(".fit", ".trees"),
                b.best_n_trees() as f64,
                "count",
            )),
            Ok(AnyModel::Mlp(m)) => {
                d.push(metric("nn.mlp.epochs", m.history().len() as f64, "count"))
            }
            Ok(AnyModel::TabNet(m)) => d.push(metric(
                "nn.tabnet.epochs",
                m.history().len() as f64,
                "count",
            )),
            Err(_) => {}
        }
    }
    let zoo_s = secs("par.map");
    d.push(metric("aiio.zoo_train_s", zoo_s, "s"));
    d.push(metric(
        "par.zoo_efficiency",
        fit_sum / (TRAIN_THREADS as f64 * zoo_s),
        "frac",
    ));
    d.push(metric(
        "aiio.drift_fit_ms",
        secs("aiio.drift_fit") * 1e3,
        "ms",
    ));
    d.push(metric("aiio.save_ms", secs("aiio.save") * 1e3, "ms"));
    d.push(metric(
        "darshan.dataset_of_backend_ms",
        secs("darshan.dataset_of_backend") * 1e3,
        "ms",
    ));
    d.push(metric(
        "shard.scan_ms",
        stat("shard.scan").self_ns as f64 / 1e6,
        "ms",
    ));
    let fleet = ShardedStore::open(dir).map_err(|e| e.into_io())?;
    if let Some(meta) = (0..fleet.shards()).find_map(|s| fleet.segment_metas(s).first()) {
        d.push(metric(
            "store.read_segment_cold_ms",
            util::cold_segment_ms(meta)?,
            "ms",
        ));
    }
    d.extend(layers::self_us_per_op(&on.spans, 1.0));
    Ok(d)
}
