//! `ingest-query`: writes and reads sharing one store mutex. Connection A
//! posts 8-row ingests while connection B runs a zone-mapped query that
//! matches about 30% of rows and prunes no segment.

use crate::layers;
use crate::trace::{self, Span};
use crate::util::{self, metric, Ctx, HttpOp, Outcome, Tally};
use aiio::{AiioService, DriftDetector, TrainConfig};
use aiio_darshan::{CounterId, FeaturePipeline, JobLog};
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_serve::{ServeConfig, Server, DRIFT_MIN_ROWS};
use aiio_store::{CounterRange, SegmentCache, Store, StoreReadView};
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rows sealed into segments at set-up, and rows left in the WAL tail.
/// The tail starts close enough to the 8192-row seal threshold that the
/// measured phase crosses two inline seals.
const SEALED_ROWS: usize = 3 * 8192;
const TAIL_ROWS: usize = 6000;
const BATCH: usize = 8;
const QUERY: &str = "/query?counter=nprocs&min=512&limit=100";
const QUERY_MIN_NPROCS: f64 = 512.0;
const QUERY_LIMIT: usize = 100;
/// Only the pipeline and drift detector are on this path, so the served
/// model is the fast zoo, fixed like the diagnose workload's.
const MODEL_SEED: u64 = 7;
const MODEL_JOBS: usize = 400;
const ROWS_SEED_BASE: u64 = 2_000_000;
const WORKERS: usize = 2;
const ENGINE_THREADS: usize = 1;
const TRAIN_THREADS: usize = 2;
/// Ingests (and queries) per second the measured phase is sized for.
const NOMINAL_PER_S: f64 = 160.0;
const SETUPS: usize = 5;
/// The server's drift window (`ServeConfig::default().drift_window`).
const DRIFT_WINDOW: usize = 256;

struct Setup {
    service: AiioService,
    server: Server,
    dir: std::path::PathBuf,
    seeded: Vec<JobLog>,
    bodies: Vec<String>,
}

fn seed_store(dir: &Path, rows: &[JobLog]) -> io::Result<Store> {
    let mut store = Store::open(dir).map_err(|e| e.into_io())?;
    for chunk in rows.chunks(1024) {
        store.append_batch(chunk).map_err(|e| e.into_io())?;
    }
    store.sync().map_err(|e| e.into_io())?;
    Ok(store)
}

fn setup(ctx: &Ctx, round: usize, n_ingests: usize) -> io::Result<Setup> {
    let seeded_len = SEALED_ROWS + TAIL_ROWS;
    let (service, rows) = aiio_par::with_threads(TRAIN_THREADS, || {
        let model_db = DatabaseSampler::new(SamplerConfig {
            n_jobs: MODEL_JOBS,
            seed: MODEL_SEED,
            ..SamplerConfig::default()
        })
        .generate();
        let service =
            AiioService::train(&TrainConfig::fast(), &model_db).map_err(io::Error::other)?;
        let rows = DatabaseSampler::new(SamplerConfig {
            n_jobs: 0,
            seed: ROWS_SEED_BASE + ctx.args.seed,
            ..SamplerConfig::default()
        })
        .generate_range(0, (seeded_len + n_ingests * BATCH) as u64);
        Ok::<_, io::Error>((service, rows))
    })?;
    let dir = ctx.work.join(format!("store-{round}"));
    drop(seed_store(&dir, &rows[..seeded_len])?);
    let bodies = rows[seeded_len..]
        .chunks(BATCH)
        .map(|c| serde_json::to_string(c).map_err(io::Error::other))
        .collect::<io::Result<Vec<_>>>()?;
    let server = Server::bind(
        "127.0.0.1:0",
        service.clone(),
        ServeConfig {
            workers: WORKERS,
            engine_threads: ENGINE_THREADS,
            store_dir: Some(dir.clone()),
            drift_window: DRIFT_WINDOW,
            ..ServeConfig::default()
        },
    )?;
    Ok(Setup {
        service,
        server,
        dir,
        seeded: rows[..seeded_len].to_vec(),
        bodies,
    })
}

/// Check a `/query` reply without a full JSON parse (the vendored parser
/// revalidates the rest of the document for every string character, so
/// its cost grows with the square of the reply's size): every row's `nprocs`,
/// at its counter's position in the row's value array, is in range, and
/// the row count matches `returned`.
fn check_query_reply(body: &str) -> Result<(), String> {
    const ROW: &str = "\"counters\":{\"values\":[";
    let mut rows = 0usize;
    for part in body.split(ROW).skip(1) {
        let nprocs: f64 = part
            .split(']')
            .next()
            .and_then(|values| values.split(',').nth(CounterId::Nprocs.index()))
            .and_then(|v| v.trim().parse().ok())
            .ok_or("row without an nprocs value")?;
        if nprocs < QUERY_MIN_NPROCS {
            return Err(format!("row {rows} has nprocs {nprocs}, below the range"));
        }
        rows += 1;
    }
    let returned: usize = body
        .split("\"returned\":")
        .nth(1)
        .and_then(|r| r.split(',').next())
        .and_then(|r| r.parse().ok())
        .ok_or("reply lacks returned")?;
    if rows != returned || rows > QUERY_LIMIT {
        return Err(format!("{rows} rows for returned={returned}"));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let n = ctx.ops(NOMINAL_PER_S);
    let mut setup_s = Vec::new();
    util::flush_dirty_pages();
    let mut kept: Option<Setup> = None;
    for round in 0..SETUPS {
        if let Some(old) = kept.take() {
            let (_, stop) = util::start_server(old.server);
            stop()?;
        }
        let t = Instant::now();
        kept = Some(setup(ctx, round, n)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Some(s) = kept else {
        return Err(io::Error::other("no set-up ran"));
    };

    // Cold block cache: the served store's segments were written, never
    // read through the cache, and earlier set-ups' entries are dropped.
    util::clear_shared_cache();
    util::flush_dirty_pages();
    let (addr, stop) = util::start_server(s.server);
    let rss = util::RssSampler::start();
    let t0 = Instant::now();
    let ingest_ops: Vec<(u64, HttpOp)> = s
        .bodies
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                i as u64,
                HttpOp {
                    method: "POST",
                    path: "/ingest".into(),
                    body: Some(b.clone()),
                },
            )
        })
        .collect();
    let query_ops: Vec<(u64, HttpOp)> = (0..n)
        .map(|j| {
            (
                (n + j) as u64,
                HttpOp {
                    method: "GET",
                    path: QUERY.into(),
                    body: None,
                },
            )
        })
        .collect();
    let ((ingest_tally, ingest_ms, ingest_wall_s), (query_tally, query_ms, query_bytes)) =
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let mut tally = Tally::default();
                let mut ms = vec![f64::NAN; n];
                util::closed_loop(&addr, &ingest_ops, |id, r| match r.result {
                    Err(e) => tally.transport(&e),
                    Ok(resp) => {
                        let acked = serde_json::parse_value(&resp.body)
                            .ok()
                            .and_then(|v| v.get("ingested").and_then(serde::Value::as_u64));
                        if resp.status == 200 && acked == Some(BATCH as u64) {
                            ms[id as usize] = r.ms;
                            tally.ok();
                        } else {
                            tally.fail(format!("ingest {id}: HTTP {} {acked:?}", resp.status));
                        }
                    }
                });
                (tally, ms, t0.elapsed().as_secs_f64())
            });
            let b = scope.spawn(|| {
                let mut tally = Tally::default();
                let mut ms = vec![f64::NAN; n];
                let mut bytes = Vec::with_capacity(n);
                util::closed_loop(&addr, &query_ops, |id, r| match r.result {
                    Err(e) => tally.transport(&e),
                    Ok(resp) if resp.status != 200 => {
                        tally.fail(format!("query {id}: HTTP {}", resp.status));
                    }
                    Ok(resp) => match check_query_reply(&resp.body) {
                        Ok(()) => {
                            ms[id as usize - n] = r.ms;
                            bytes.push(resp.body.len() as f64);
                            tally.ok();
                        }
                        Err(e) => tally.fail(format!("query {id}: {e}")),
                    },
                });
                (tally, ms, bytes)
            });
            (a.join().unwrap_or_default(), b.join().unwrap_or_default())
        });
    let rss = rss.stop();
    let mut tally = Tally::default();
    tally.absorb(ingest_tally);
    tally.absorb(query_tally);
    let final_reply = aiio_serve::client::request(&addr, "GET", QUERY, None, util::CLIENT_TIMEOUT);
    stop()?;

    // The store the server leaves behind holds every acknowledged row,
    // and answers the final query exactly as the server did.
    let acked_rows = ingest_ms.iter().filter(|v| v.is_finite()).count() * BATCH;
    let reopened = Store::open(&s.dir).map_err(|e| e.into_io())?;
    let want_rows = s.seeded.len() + acked_rows;
    tally.check(reopened.len() == want_rows, || {
        format!(
            "reopened store has {} rows, want {want_rows}",
            reopened.len()
        )
    });
    let range = CounterRange::at_least(CounterId::Nprocs, QUERY_MIN_NPROCS);
    let mut expect_rows = Vec::new();
    let expect = reopened
        .scan_filtered(&range, &mut |job| {
            if expect_rows.len() < QUERY_LIMIT {
                expect_rows.push(serde_json::to_string(job).unwrap_or_default());
            }
        })
        .map_err(|e| e.into_io())?;
    let want_rows_json = format!("\"rows\":[{}]", expect_rows.join(","));
    let want_summary = format!(
        "\"summary\":{{\"segments_scanned\":{},\"segments_skipped\":{},\"rows_scanned\":{},\"rows_matched\":{}}}",
        expect.segments_scanned, expect.segments_skipped, expect.rows_scanned, expect.rows_matched
    );
    match final_reply {
        Err(e) => tally.transport(&e),
        Ok(resp) => tally.check(
            resp.status == 200
                && check_query_reply(&resp.body).is_ok()
                && resp.body.contains(&want_rows_json)
                && resp.body.contains(&want_summary),
            || "final /query differs from scan_filtered of the reopened store".into(),
        ),
    }
    drop(reopened);

    let ingest_lat: Vec<f64> = ingest_ms
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    let query_lat: Vec<f64> = query_ms.iter().copied().filter(|v| v.is_finite()).collect();
    let mut out = Outcome::default();
    if ctx.args.trace {
        let off = replay(ctx, &s.service, &s.seeded, &s.bodies, false)?;
        let on = replay(ctx, &s.service, &s.seeded, &s.bodies, true)?;
        for r in [&off, &on] {
            tally.check(r.failures.is_empty(), || {
                format!("replay: {}", r.failures.join("; "))
            });
        }
        let http_ms: Vec<f64> = ingest_ms.iter().chain(&query_ms).copied().collect();
        out.per_layer = layers::universal(&on.spans, &off.op_ms, &http_ms, on.wall_s, off.wall_s);
        out.layer_detail = detail(&on, &off, &ingest_ms, &query_ms, &query_bytes, n)?;
        std::fs::write(ctx.out_file("spans.jsonl"), trace::to_jsonl(&on.spans))?;
    }
    out.end_to_end = vec![
        metric("op.p50_ms", util::percentile(&ingest_lat, 0.5), "ms"),
        metric("op.p90_ms", util::percentile(&ingest_lat, 0.9), "ms"),
        metric("op.rate_per_s", acked_rows as f64 / ingest_wall_s, "1/s"),
        metric("read.p50_ms", util::percentile(&query_lat, 0.5), "ms"),
        metric("read.p90_ms", util::percentile(&query_lat, 0.9), "ms"),
        metric("setup_s", util::median(&setup_s), "s"),
        metric("rss_mib", rss, "MiB"),
    ];
    out.context = vec![
        (
            "ops".into(),
            format!(
                "{} POST /ingest x{BATCH} rows, {} GET {QUERY}",
                ingest_lat.len(),
                query_lat.len()
            ),
        ),
        (
            "op".into(),
            "POST /ingest (8 rows); rate = rows acknowledged/s; read = GET /query".into(),
        ),
        (
            "store_rows".into(),
            format!("{} seeded + {acked_rows} ingested", s.seeded.len()),
        ),
        ("server_workers".into(), WORKERS.to_string()),
        ("engine_threads".into(), ENGINE_THREADS.to_string()),
        ("client_connections".into(), "2 (ingest, query)".into()),
        (
            "segment_cache".into(),
            "shared cache cleared before the measured phase; replays use a fresh private cache"
                .into(),
        ),
    ];
    out.tally = tally;
    Ok(out)
}

/// The server's ingest state: the store and the drift window, one mutex.
struct IngestState {
    store: Store,
    tail: VecDeque<Vec<f64>>,
}

struct Replay {
    op_ms: Vec<f64>,
    spans: Vec<Span>,
    wall_s: f64,
    failures: Vec<String>,
    summaries: Vec<(usize, usize)>,
    cache: aiio_store::CacheStats,
    wal_bytes_per_row: f64,
    seals: usize,
    first_segment: Option<aiio_store::SegmentMeta>,
}

/// `POST /ingest`'s handler work, in the order the server does it.
fn ingest_one(
    body: &str,
    state: &Mutex<IngestState>,
    pipeline: FeaturePipeline,
    drift: Option<&DriftDetector>,
) -> Result<usize, String> {
    let logs: Vec<JobLog> =
        trace::span("serve.decode", || serde_json::from_str(body)).map_err(|e| e.to_string())?;
    let rows: Vec<Vec<f64>> = logs
        .iter()
        .map(|l| trace::span("darshan.features_of", || pipeline.features_of(l)))
        .collect();
    let mut st = trace::span("serve.lock_wait", || state.lock()).map_err(|e| e.to_string())?;
    let before = st.store.stats().segments;
    let start = trace::now_ns();
    st.store.append_batch(&logs).map_err(|e| e.to_string())?;
    let end = trace::now_ns();
    if let Some(parent) = trace::current() {
        let sealed = st.store.stats().segments > before;
        let name = if sealed {
            "store.seal"
        } else {
            "store.append_batch"
        };
        trace::push(trace::external(name, parent, start, end));
    }
    trace::span("store.sync", || st.store.sync()).map_err(|e| e.to_string())?;
    for row in rows {
        if st.tail.len() == DRIFT_WINDOW {
            st.tail.pop_front();
        }
        st.tail.push_back(row);
    }
    let drift_rows: Option<Vec<Vec<f64>>> =
        (st.tail.len() >= DRIFT_MIN_ROWS).then(|| st.tail.iter().cloned().collect());
    let stats = st.store.stats();
    drop(st);
    let psi = drift.and_then(|d| {
        drift_rows
            .as_deref()
            .map(|rows| trace::span("aiio.drift_psi", || d.max_psi(rows)))
    });
    let reply = format!(
        "{{\"ingested\":{},\"store_rows\":{},\"segments\":{},\"wal_rows\":{},\"drift_max_psi\":{psi:?}}}",
        logs.len(),
        stats.total_rows,
        stats.segments,
        stats.wal_rows
    );
    Ok(reply.len())
}

/// `GET /query`'s handler work: parse, snapshot under the lock, scan and
/// encode after it.
fn query_one(state: &Mutex<IngestState>) -> Result<(usize, usize), String> {
    let (_, query) = aiio_serve::http::split_query(QUERY);
    let mut counter = None;
    let mut min = f64::NEG_INFINITY;
    let mut limit = aiio_serve::DEFAULT_QUERY_LIMIT;
    for (k, v) in aiio_serve::http::parse_query(query) {
        match k.as_str() {
            "counter" => counter = CounterId::from_name(&v),
            "min" => min = v.parse().map_err(|_| "bad min")?,
            "limit" => limit = v.parse().map_err(|_| "bad limit")?,
            _ => return Err(format!("unexpected parameter {k}")),
        }
    }
    let counter = counter.ok_or("no counter")?;
    let range = CounterRange::new(counter, min, f64::INFINITY).map_err(|e| e.to_string())?;
    let view: StoreReadView = {
        let st = trace::span("serve.lock_wait", || state.lock()).map_err(|e| e.to_string())?;
        let tail = st.store.tail_rows().len() as u64;
        trace::span_items("store.read_view", tail, || st.store.read_view())
    };
    let mut rows = String::from("[");
    let mut returned = 0usize;
    let summary = trace::span("store.scan_filtered", || {
        view.scan_filtered(&range, &mut |job| {
            if returned >= limit {
                return;
            }
            if let Ok(json) = trace::span("serve.encode", || serde_json::to_string(job)) {
                if returned > 0 {
                    rows.push(',');
                }
                rows.push_str(&json);
                returned += 1;
            }
        })
    })
    .map_err(|e| e.to_string())?;
    rows.push(']');
    if returned != limit.min(summary.rows_matched) {
        return Err(format!(
            "returned {returned} of {} matches",
            summary.rows_matched
        ));
    }
    Ok((summary.rows_scanned, summary.segments_skipped))
}

/// Replay the measured phase's ingests and queries in process, against a
/// freshly seeded copy of the store behind one mutex, on two threads.
fn replay(
    ctx: &Ctx,
    service: &AiioService,
    seeded: &[JobLog],
    bodies: &[String],
    traced: bool,
) -> io::Result<Replay> {
    let dir = ctx
        .work
        .join(if traced { "replay-on" } else { "replay-off" });
    let mut store = seed_store(&dir, seeded)?;
    let cache = Arc::new(SegmentCache::new(aiio_store::cache::DEFAULT_CAPACITY_BYTES));
    store.set_cache(Some(Arc::clone(&cache)));
    let state = Mutex::new(IngestState {
        store,
        tail: VecDeque::new(),
    });
    let pipeline = service.pipeline();
    let drift = service.drift_detector();
    let n = bodies.len();
    let t0 = Instant::now();
    type Part = (
        Vec<(usize, f64)>,
        Vec<Span>,
        Vec<String>,
        Vec<(usize, usize)>,
    );
    let (a, b): (Part, Part) = std::thread::scope(|scope| {
        let state = &state;
        let a = scope.spawn(move || {
            trace::enable(traced);
            let (mut ms, mut fails) = (Vec::new(), Vec::new());
            for (i, body) in bodies.iter().enumerate() {
                let t = Instant::now();
                let r = trace::root("serve.ingest", i as u64, || {
                    ingest_one(body, state, pipeline, drift)
                });
                ms.push((i, t.elapsed().as_secs_f64() * 1e3));
                if let Err(e) = r {
                    fails.push(format!("ingest {i}: {e}"));
                }
            }
            trace::enable(false);
            (ms, trace::take(), fails, Vec::new())
        });
        let b = scope.spawn(move || {
            trace::enable(traced);
            let (mut ms, mut fails, mut sums) = (Vec::new(), Vec::new(), Vec::new());
            for j in 0..n {
                let t = Instant::now();
                let r = trace::root("serve.query", (n + j) as u64, || query_one(state));
                ms.push((n + j, t.elapsed().as_secs_f64() * 1e3));
                match r {
                    Ok(s) => sums.push(s),
                    Err(e) => fails.push(format!("query {j}: {e}")),
                }
            }
            trace::enable(false);
            (ms, trace::take(), fails, sums)
        });
        (a.join().unwrap_or_default(), b.join().unwrap_or_default())
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let st = state
        .into_inner()
        .map_err(|_| io::Error::other("replay mutex poisoned"))?;
    let stats = st.store.stats();
    let mut op_ms = vec![f64::NAN; 2 * n];
    for &(i, ms) in a.0.iter().chain(&b.0) {
        op_ms[i] = ms;
    }
    let mut spans = a.1;
    spans.extend(b.1);
    let mut failures = a.2;
    failures.extend(b.2);
    if a.0.len() + b.0.len() != 2 * n {
        failures.push("a replay thread stopped early".into());
    }
    let seals = spans.iter().filter(|s| s.name == "store.seal").count();
    Ok(Replay {
        op_ms,
        spans,
        wall_s,
        failures,
        summaries: b.3,
        cache: cache.stats(),
        wal_bytes_per_row: stats.wal_bytes as f64 / stats.wal_rows.max(1) as f64,
        seals,
        first_segment: st.store.segments().first().cloned(),
    })
}

fn detail(
    on: &Replay,
    off: &Replay,
    ingest_ms: &[f64],
    query_ms: &[f64],
    query_bytes: &[f64],
    n: usize,
) -> io::Result<Vec<util::Metric>> {
    let names = trace::by_name(&on.spans);
    let stat = |k: &str| names.get(k).cloned().unwrap_or_default();
    let per_call_us = |k: &str| {
        let s = stat(k);
        s.total_ns as f64 / 1e3 / s.calls.max(1) as f64
    };
    let ops = n.max(1) as f64;
    let overhead = |http: &[f64], offset: usize| {
        let v: Vec<f64> = http
            .iter()
            .enumerate()
            .filter_map(|(i, h)| {
                let r = off.op_ms[offset + i];
                (h.is_finite() && r.is_finite()).then(|| (h - r) * 1e3)
            })
            .collect();
        util::median(&v)
    };
    let scanned: Vec<f64> = on.summaries.iter().map(|s| s.0 as f64).collect();
    let skipped: Vec<f64> = on.summaries.iter().map(|s| s.1 as f64).collect();
    let lookups = (on.cache.hits + on.cache.misses).max(1) as f64;
    let mut d = vec![
        metric(
            "store.append_batch_us",
            per_call_us("store.append_batch"),
            "us",
        ),
        metric("store.sync_us", per_call_us("store.sync"), "us"),
        metric("store.seal_ms", per_call_us("store.seal") / 1e3, "ms"),
        metric("store.seals", on.seals as f64, "count"),
        metric("store.read_view_us", per_call_us("store.read_view"), "us"),
        metric(
            "store.tail_rows",
            stat("store.read_view").items as f64 / stat("store.read_view").calls.max(1) as f64,
            "count",
        ),
        metric(
            "store.scan_filtered_us",
            stat("store.scan_filtered").self_ns as f64
                / 1e3
                / stat("store.scan_filtered").calls.max(1) as f64,
            "us",
        ),
        metric("store.rows_scanned", util::median(&scanned), "count"),
        metric("store.segments_skipped", util::median(&skipped), "count"),
        metric(
            "store.cache_hit_ratio",
            on.cache.hits as f64 / lookups,
            "frac",
        ),
        metric("store.wal_bytes_per_row", on.wal_bytes_per_row, "bytes"),
        metric("aiio.drift_psi_us", per_call_us("aiio.drift_psi"), "us"),
        metric(
            "darshan.features_of_us",
            per_call_us("darshan.features_of"),
            "us",
        ),
        metric("serve.lock_wait_us", per_call_us("serve.lock_wait"), "us"),
        metric("serve.ingest.decode_us", per_call_us("serve.decode"), "us"),
        metric(
            "serve.query.encode_us",
            stat("serve.encode").total_ns as f64 / 1e3 / ops,
            "us",
        ),
        metric(
            "serve.query.response_bytes",
            util::median(query_bytes),
            "bytes",
        ),
        metric("serve.ingest.overhead_us", overhead(ingest_ms, 0), "us"),
        metric("serve.query.overhead_us", overhead(query_ms, n), "us"),
    ];
    if let Some(meta) = &off.first_segment {
        d.push(metric(
            "store.read_segment_cold_ms",
            util::cold_segment_ms(meta)?,
            "ms",
        ));
    }
    d.extend(layers::self_us_per_op(&on.spans, 2.0 * ops));
    Ok(d)
}
