//! Subcommand implementations and the tiny flag parser (no external
//! argument-parsing dependency).

use aiio::prelude::*;
use aiio_darshan::{parse_text, to_total_text, JobLog};
use std::collections::HashMap;

/// A boxed error string is all the CLI needs.
pub type CliError = String;

const USAGE: &str = "\
aiio — job-level automatic I/O bottleneck diagnosis (AIIO, HPDC '23 reproduction)

USAGE:
  aiio simulate <ior-cmdline> [--nprocs N] [--seed S] [--json] [--out FILE]
  aiio simulate --trace FILE  [--seed S] [--json] [--out FILE]
      Run an IOR-style workload (or a workload trace file — see
      aiio-iosim::trace for the format) through the storage simulator and
      emit its Darshan log (darshan-parser --total text, or JSON).

  aiio sample --jobs N [--seed S] [--noise SIGMA] [--threads T] --out FILE
      Generate a synthetic Darshan log database (JSON).

  aiio ingest --store DIR (--db FILE | --jobs N [--seed S] [--noise SIGMA])
              [--chunk N] [--threads T] [--shards N]
      Append job logs to a crash-safe columnar store (aiio-store): either
      an existing JSON database, or freshly sampled jobs streamed straight
      from the simulator in bounded-memory chunks. --shards N initialises
      a brand-new directory as a sharded fleet (aiio-shard) of N
      hash-partitioned stores; a directory that already holds a fleet is
      detected automatically and each row routed to its owning shard.

  aiio compact --store DIR
      Seal the store's WAL tail into columnar segments and merge
      undersized segments. On a sharded fleet, every shard is sealed and
      compacted.

  aiio store-stats --store DIR [--json]
      Print segment/row/byte counters for a store, plus what (if
      anything) crash recovery dropped when opening it.

  aiio shard-stats --store DIR [--json]
      Print per-shard row counts, roles (primary/replica), orphan rows
      and replication lag for a sharded fleet.

  aiio replicate --store DIR [--from URL] [--json]
      Without --from: ship each shard's sealed segments and WAL tail to
      its follower directory, so a lost or corrupted shard fails over
      with no row loss on the next open. With --from http://host:port:
      pull the *remote* primary served there (its /repl/* endpoints)
      into DIR over the network instead — one pass of CRC-verified
      WAL-tail, segment and journal shipping that resumes from the local
      copy's intact length, so a killed pass never re-publishes a row.

  aiio rebalance --store DIR --shards N [--json]
      Re-partition a fleet to N shards: rows stream into a staged next
      epoch (resumable if interrupted) that is published with one atomic
      manifest swing. Scans and training replay identically afterwards.

  aiio train (--db FILE | --store DIR) --out FILE [--fast] [--seed S]
             [--threads T]
      Train the five performance functions on a database and persist the
      service (pre-trained models, paper Fig. 17). With --store, training
      streams from the columnar store instead of an in-memory JSON
      database — same models, bit for bit. A sharded fleet works too:
      scatter-gather scans replay global ingest order, so the persisted
      service is byte-identical at any shard count.

  aiio diagnose --model FILE --log FILE [--json] [--merge average|closest]
               [--threads T]
      Diagnose one job log (darshan text or JSON JobLog) and print the
      ranked bottleneck report.

  aiio serve --model FILE [--addr HOST:PORT] [--workers N] [--queue N]
             [--max-connections N] [--threads T] [--store DIR] [--shards N]
             [--replicate-from URL]
             [--sched-pull DUR] [--sched-compact DUR] [--sched-retrain DUR]
             [--sched-jitter DUR] [--sched-seed S]
             [--compact-max-segments N] [--compact-max-wal-bytes N]
             [--retrain-min-rows N]
      Serve diagnoses over HTTP (the paper's §3.4 web service): POST
      /diagnose and /diagnose/batch, GET /healthz and /metrics, POST
      /admin/reload and /admin/shutdown. With --store, POST /ingest
      appends job logs to the columnar store and /metrics gains store
      depth, segment counters and a drift gauge over the fresh tail.
      A malformed job log (not exactly 46 counters, or a NaN, infinite
      or negative value) answers 422 and is never stored or diagnosed.
      A sharded fleet (see ingest --shards) is detected automatically:
      ingest routes rows to their owning shard and /metrics adds
      per-shard rows, replication lag and failover gauges; --shards N
      seeds a brand-new directory as an N-shard fleet.
      With --replicate-from http://host:port, this server becomes a
      read-only follower of the primary serving there: it pulls the
      primary's store into --store DIR at startup, re-syncs on every
      POST /repl/sync, answers 403 on /ingest, and keeps serving its
      last-synced bytes if the primary dies (failover reads).
      The --sched-* flags enable the background control plane (see
      DESIGN.md § Control plane): --sched-pull re-pulls a follower's
      primary every DUR so replication lag self-heals with no external
      trigger; --sched-compact seals+compacts the store once it crosses
      --compact-max-segments or --compact-max-wal-bytes; --sched-retrain
      watches the drift gauge and hot-swaps a freshly trained model when
      the ingested tail drifts past PSI 0.25 (needs at least
      --retrain-min-rows stored rows). DUR accepts 500ms / 30s / 2m;
      --sched-jitter adds a seeded uniform jitter in [0, DUR) to every
      run so follower fleets do not stampede their primary in phase.
      Schedules are validated up front: zero intervals, jitter >= period,
      compacting a follower or pulling on a primary are startup errors.
      GET /sched/stats reports per-task runs, failures, backoff level and
      time to next run; /metrics exports the same as aiio_sched_*.
      --max-connections N caps the connections served at once (default
      256, one thread each); a connection past the cap gets 503 with
      Retry-After and /metrics counts it in
      aiio_connections_rejected_total.
      Prints `listening on ADDR` once bound (use --addr 127.0.0.1:0 for
      an ephemeral port) and runs until /admin/shutdown.

  aiio query --counter NAME (--store DIR | --addr HOST:PORT)
             [--min X] [--max X] [--limit N] [--json] [--threads T]
      Scan a store for jobs whose counter lies in [min, max] (inclusive;
      either bound may be omitted). With --store the scan runs in
      process, pruning segments via the zone map and reusing the decoded-
      segment block cache; with --addr it asks a running `aiio serve`
      (GET /query) instead. Rows stream back in global insertion order
      on plain stores and sharded fleets alike; --limit caps the rows
      printed (default 100) while the summary still covers the whole
      scan. --json prints raw JobLog rows (one per line locally, the
      server's response body remotely).

  aiio sched-stats --addr HOST:PORT [--json]
      Print a running server's background-task counters (GET
      /sched/stats): runs, failures, current backoff level and time to
      the next run for each scheduled task.

  aiio client --addr HOST:PORT <health|metrics|diagnose|batch|reload|shutdown>
              [LOG-FILE...] [--path FILE] [--deadline-ms N]
      Talk to a running `aiio serve`: diagnose sends one log file (darshan
      text or JSON), batch sends all of them in one request, reload
      hot-swaps the server's models from --path.

  aiio help
      Show this message.

Parallelism: --threads T pins the deterministic engine (aiio-par) to T
worker threads; results are bit-identical at any setting. Without the
flag, AIIO_THREADS or the machine's core count decides. For serve,
--threads sets the per-worker engine threads (default 1: the worker pool
is the parallelism).
";

/// Apply `--threads T` to the deterministic engine; results are identical
/// at any thread count, so this is purely a speed knob.
fn apply_threads_flag(flags: &HashMap<String, String>) -> Result<(), CliError> {
    if let Some(t) = flag(flags, "threads") {
        aiio_par::set_threads(parse_num(t, "threads")?);
    }
    Ok(())
}

/// Parse `--flag value` pairs and bare `--switch`es after the positionals.
fn parse_flags(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), CliError> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let is_switch = matches!(name, "json" | "fast");
            if is_switch {
                flags.insert(name.to_string(), "true".to_string());
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                flags.insert(name.to_string(), v.clone());
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &'a HashMap<String, String>, name: &str) -> Option<&'a str> {
    flags.get(name).map(String::as_str)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, CliError> {
    flag(flags, name).ok_or_else(|| format!("missing required --{name}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad {what} '{s}': {e}"))
}

/// Parse a human duration: `500ms`, `30s`, `2m`, or a bare number of
/// seconds. Rejects empty and non-numeric magnitudes with a typed
/// message naming the flag.
fn parse_duration(s: &str, what: &str) -> Result<std::time::Duration, CliError> {
    let (magnitude, unit_ms) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1u64)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1000)
    } else if let Some(v) = s.strip_suffix('m') {
        (v, 60_000)
    } else {
        (s, 1000)
    };
    let n: u64 = magnitude
        .parse()
        .map_err(|_| format!("bad {what} '{s}': expected a duration like 500ms, 30s or 2m"))?;
    Ok(std::time::Duration::from_millis(n.saturating_mul(unit_ms)))
}

/// Entry point for the binary (and the integration tests).
pub fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "simulate" => cmd_simulate(rest),
        "sample" => cmd_sample(rest),
        "ingest" => cmd_ingest(rest),
        "compact" => cmd_compact(rest),
        "store-stats" => cmd_store_stats(rest),
        "shard-stats" => cmd_shard_stats(rest),
        "replicate" => cmd_replicate(rest),
        "rebalance" => cmd_rebalance(rest),
        "train" => cmd_train(rest),
        "diagnose" => cmd_diagnose(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "sched-stats" => cmd_sched_stats(rest),
        "client" => cmd_client(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}' (try `aiio help`)")),
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args)?;
    let seed: u64 = flag(&flags, "seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(0);
    let spec = if let Some(trace_path) = flag(&flags, "trace") {
        let text = std::fs::read_to_string(trace_path).map_err(|e| e.to_string())?;
        let name = std::path::Path::new(trace_path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace");
        aiio_iosim::parse_trace(name, &text).map_err(|e| e.to_string())?
    } else {
        let cmdline = pos.first().ok_or_else(|| {
            "simulate needs an IOR command line (e.g. \"ior -w -t 1k -b 1m\") or --trace FILE"
                .to_string()
        })?;
        let mut cfg = IorConfig::parse(cmdline).map_err(|e| e.to_string())?;
        if let Some(n) = flag(&flags, "nprocs") {
            cfg.nprocs = parse_num(n, "nprocs")?;
        }
        cfg.to_spec()
    };
    let nprocs = spec.nprocs();
    let log = Simulator::new(StorageConfig::cori_like()).simulate(&spec, seed, 2022, seed);

    let rendered = if flag(&flags, "json").is_some() {
        serde_json::to_string_pretty(&log).map_err(|e| e.to_string())?
    } else {
        to_total_text(&log)
    };
    match flag(&flags, "out") {
        Some(path) => std::fs::write(path, rendered).map_err(|e| e.to_string())?,
        None => print!("{rendered}"),
    }
    eprintln!(
        "simulated {} ranks, {:.2} MiB/s (Eq. 1)",
        nprocs,
        log.performance_mib_s()
    );
    Ok(())
}

/// The database sampler `--jobs N [--seed S] [--noise SIGMA]` describe.
fn sampler_of(flags: &HashMap<String, String>, jobs: &str) -> Result<DatabaseSampler, CliError> {
    let seed: u64 = flag(flags, "seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(7);
    let noise: f64 = flag(flags, "noise")
        .map(|s| parse_num(s, "noise"))
        .transpose()?
        .unwrap_or(0.03);
    Ok(DatabaseSampler::new(SamplerConfig {
        n_jobs: parse_num(jobs, "jobs")?,
        seed,
        noise_sigma: noise,
    }))
}

fn cmd_sample(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    apply_threads_flag(&flags)?;
    let sampler = sampler_of(&flags, required(&flags, "jobs")?)?;
    let out = required(&flags, "out")?;
    let db = sampler.generate();
    db.save_json(out).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} jobs to {out} (avg sparsity {:.3})",
        db.len(),
        db.average_sparsity()
    );
    Ok(())
}

/// Print what crash recovery had to drop or repair in one store.
fn print_store_recovery(rec: &aiio_store::RecoveryReport) {
    if !rec.is_clean() {
        eprintln!(
            "recovery: {} WAL rows recovered, {} WAL bytes dropped, {} rows deduplicated, \
             {} segment(s) quarantined ({} rows), {} stale segment(s) removed",
            rec.wal_rows_recovered,
            rec.wal_bytes_dropped,
            rec.wal_rows_already_sealed,
            rec.quarantined_segments.len(),
            rec.quarantined_rows,
            rec.stale_segments_removed,
        );
    }
}

/// Print what opening a store directory found and repaired: per-store
/// recovery, plus a fleet's failovers, journal cuts and orphans.
fn print_recovery(rec: &aiio_shard::FleetRecovery) {
    if !rec.failovers.is_empty() {
        eprintln!(
            "recovery: shard(s) {:?} failed over to their replica",
            rec.failovers
        );
    }
    if rec.journal_entries_dropped + rec.journal_bytes_dropped + rec.orphan_rows > 0 {
        eprintln!(
            "recovery: {} journal entries dropped ({} bytes), {} orphan row(s) pending repair",
            rec.journal_entries_dropped, rec.journal_bytes_dropped, rec.orphan_rows,
        );
    }
    rec.shard_reports.iter().for_each(print_store_recovery);
}

/// Open the store directory at `dir` (a plain store or a sharded fleet;
/// `shards` only seeds a fresh directory), surfacing what recovery did.
fn open_store(dir: &str, shards: usize) -> Result<aiio_shard::AnyStore, CliError> {
    let store = aiio_shard::AnyStore::open(dir, shards).map_err(|e| e.to_string())?;
    print_recovery(&store.recovery());
    Ok(store)
}

/// `" (N shards)"` for a fleet, nothing for a plain store.
fn shards_note(shards: usize) -> String {
    if shards == 0 {
        String::new()
    } else {
        format!(" ({shards} shards)")
    }
}

fn print_store_line(s: &aiio_store::StoreStats) {
    eprintln!(
        "store: {} rows ({} sealed in {} segments, {} in WAL), {} segment bytes, {} WAL bytes",
        s.total_rows, s.sealed_rows, s.segments, s.wal_rows, s.sealed_bytes, s.wal_bytes
    );
}

fn print_shard_line(p: &aiio_shard::ShardStat) {
    eprintln!(
        "  shard {:03} [{}]: {} rows ({} sealed in {} segments, {} in WAL), \
         replica at {} rows (lag {}), {} orphan row(s)",
        p.shard,
        p.role,
        p.serving_rows,
        p.store.sealed_rows,
        p.store.segments,
        p.store.wal_rows,
        p.replica_rows,
        p.replication_lag,
        p.orphan_rows,
    );
}

/// Whole-store totals, then one line per shard (none for a plain store).
fn print_stats(s: &aiio_shard::AnyStats) {
    print_store_line(&s.store);
    s.shards.iter().for_each(print_shard_line);
}

fn print_fleet_stats(fleet: &aiio_shard::ShardedStore) {
    let s = fleet.stats();
    eprintln!(
        "fleet: {} rows across {} shards (epoch {}, journal {} bytes)",
        s.total_rows, s.shards, s.epoch, s.journal_bytes
    );
    s.per_shard.iter().for_each(print_shard_line);
}

fn cmd_ingest(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    apply_threads_flag(&flags)?;
    let dir = required(&flags, "store")?;
    let chunk: usize = flag(&flags, "chunk")
        .map(|s| parse_num(s, "chunk"))
        .transpose()?
        .unwrap_or(1024)
        .max(1);
    let shards: usize = flag(&flags, "shards")
        .map(|s| parse_num(s, "shards"))
        .transpose()?
        .unwrap_or(0);
    let mut store = open_store(dir, shards)?;
    let before = store.len();
    match (flag(&flags, "db"), flag(&flags, "jobs")) {
        (Some(db_path), None) => {
            let db = LogDatabase::load_json(db_path).map_err(|e| e.to_string())?;
            for jobs in db.jobs().chunks(chunk) {
                store.append_batch(jobs).map_err(|e| e.to_string())?;
            }
        }
        (None, Some(n)) => {
            sampler_of(&flags, n)?
                .sample_into_store(chunk, |jobs| store.append_batch(jobs))
                .map_err(|e| e.to_string())?;
        }
        _ => return Err("ingest needs exactly one of --db FILE or --jobs N".into()),
    }
    store.sync().map_err(|e| e.to_string())?;
    let stats = store.stats();
    eprintln!(
        "ingested {} jobs into {dir}{}",
        store.len() - before,
        shards_note(stats.shards.len())
    );
    print_stats(&stats);
    Ok(())
}

fn cmd_compact(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    let dir = required(&flags, "store")?;
    let mut store = open_store(dir, 0)?;
    let sealed = store.seal().map_err(|e| e.to_string())?;
    let report = store.compact().map_err(|e| e.to_string())?;
    eprintln!(
        "sealed {sealed} new segment(s); merged {} group(s): {} -> {} segments ({} rows moved)",
        report.groups_merged, report.segments_before, report.segments_after, report.rows_moved
    );
    print_stats(&store.stats());
    Ok(())
}

/// The layout `dir` holds, as the store handle reads it.
fn layout_of(dir: &str) -> Result<Option<aiio_shard::Layout>, CliError> {
    aiio_shard::Layout::of(std::path::Path::new(dir)).map_err(|e| e.to_string())
}

fn cmd_store_stats(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    let dir = required(&flags, "store")?;
    if layout_of(dir)? == Some(aiio_shard::Layout::Fleet) {
        return Err(format!(
            "{dir} is a sharded fleet; use `aiio shard-stats --store {dir}`"
        ));
    }
    let store = aiio_store::Store::open(dir).map_err(|e| e.to_string())?;
    print_store_recovery(store.recovery_report());
    if flag(&flags, "json").is_some() {
        let body = serde_json::to_string_pretty(&store.stats()).map_err(|e| e.to_string())?;
        println!("{body}");
    } else {
        print_store_line(&store.stats());
        for seg in store.segments() {
            eprintln!(
                "  segment {:08}: rows {} (ordinals {}..{}), {} bytes",
                seg.id,
                seg.rows,
                seg.base_ordinal,
                seg.end_ordinal(),
                seg.bytes
            );
        }
    }
    Ok(())
}

/// Fail with a hint unless `dir` already holds a fleet — the shard
/// commands never initialise a directory by accident.
fn require_fleet(dir: &str) -> Result<(), CliError> {
    match layout_of(dir)? {
        Some(aiio_shard::Layout::Fleet) => Ok(()),
        _ => Err(format!(
            "{dir} is not a sharded fleet; create one with \
             `aiio ingest --store {dir} --shards N ...`"
        )),
    }
}

/// Open an existing fleet, surfacing what recovery did.
fn open_existing_fleet(dir: &str) -> Result<aiio_shard::ShardedStore, CliError> {
    require_fleet(dir)?;
    let fleet = aiio_shard::ShardedStore::open(dir).map_err(|e| e.to_string())?;
    print_recovery(fleet.recovery_report());
    Ok(fleet)
}

fn cmd_shard_stats(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    let dir = required(&flags, "store")?;
    let fleet = open_existing_fleet(dir)?;
    if flag(&flags, "json").is_some() {
        let body = serde_json::to_string_pretty(&fleet.stats()).map_err(|e| e.to_string())?;
        println!("{body}");
    } else {
        print_fleet_stats(&fleet);
    }
    Ok(())
}

fn cmd_replicate(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    let dir = required(&flags, "store")?;
    if let Some(url) = flag(&flags, "from") {
        let report = aiio_replnet::pull_pass(
            std::path::Path::new(dir),
            url,
            &aiio_replnet::PullConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        if flag(&flags, "json").is_some() {
            let body = serde_json::to_string(&report).map_err(|e| e.to_string())?;
            println!("{body}");
        } else {
            let segments: u64 = report.shards.iter().map(|s| s.segments_copied).sum();
            let frames: u64 = report.shards.iter().map(|s| s.frames_shipped).sum();
            let rows: u64 = report.shards.iter().map(|s| s.rows_shipped).sum();
            eprintln!(
                "pulled {} layout (epoch {}) from {url}: {} segment(s) copied, \
                 {} WAL frame(s) shipped ({} rows), {} journal byte(s), lag {} frame(s)",
                report.layout,
                report.epoch,
                segments,
                frames,
                rows,
                report.journal_bytes_shipped,
                report.total_lag_frames(),
            );
        }
        return Ok(());
    }
    let mut fleet = open_existing_fleet(dir)?;
    let report = fleet.replicate().map_err(|e| e.to_string())?;
    if flag(&flags, "json").is_some() {
        let body = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        println!("{body}");
    } else {
        eprintln!(
            "replicated {} shard(s): {} segment(s) copied, {} WAL frame(s) shipped \
             ({} rows), {} follower WAL reset(s)",
            report.shards_synced,
            report.segments_copied,
            report.frames_shipped,
            report.rows_shipped,
            report.wal_resets,
        );
        print_fleet_stats(&fleet);
    }
    Ok(())
}

fn cmd_rebalance(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    let dir = required(&flags, "store")?;
    let to: usize = parse_num(required(&flags, "shards")?, "shards")?;
    require_fleet(dir)?;
    let report = aiio_shard::rebalance(dir, to).map_err(|e| e.to_string())?;
    if flag(&flags, "json").is_some() {
        let body = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        println!("{body}");
    } else {
        eprintln!(
            "rebalanced {} -> {} shards (epoch {} -> {}): {} row(s) moved \
             ({} resumed from an interrupted run), {} segment(s) fast-pathed, {} split",
            report.from_shards,
            report.to_shards,
            report.from_epoch,
            report.to_epoch,
            report.rows_moved,
            report.rows_resumed,
            report.segments_fastpathed,
            report.segments_split,
        );
        print_fleet_stats(&open_existing_fleet(dir)?);
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    apply_threads_flag(&flags)?;
    let out = required(&flags, "out")?;
    let mut cfg = if flag(&flags, "fast").is_some() {
        TrainConfig::fast()
    } else {
        TrainConfig::default()
    };
    if let Some(s) = flag(&flags, "seed") {
        cfg.seed = parse_num(s, "seed")?;
    }
    let service = match (flag(&flags, "db"), flag(&flags, "store")) {
        (Some(db_path), None) => {
            let db = LogDatabase::load_json(db_path).map_err(|e| e.to_string())?;
            if db.len() < 20 {
                return Err(format!(
                    "database has only {} jobs; need at least 20",
                    db.len()
                ));
            }
            eprintln!(
                "training on {} jobs ({} models)...",
                db.len(),
                cfg.zoo.kinds.len()
            );
            AiioService::train(&cfg, &db).map_err(|e| e.to_string())?
        }
        (None, Some(dir)) => {
            let store = open_store(dir, 0)?;
            if store.len() < 20 {
                return Err(format!(
                    "store has only {} jobs; need at least 20",
                    store.len()
                ));
            }
            eprintln!(
                "training out-of-core on {} stored jobs{} ({} models)...",
                store.len(),
                shards_note(store.stats().shards.len()),
                cfg.zoo.kinds.len()
            );
            // A fleet's scans replay global insertion order, so the models
            // are byte-identical to training from an unsharded store.
            AiioService::train_from_backend(&cfg, &store).map_err(|e| e.to_string())?
        }
        _ => return Err("train needs exactly one of --db FILE or --store DIR".into()),
    };
    for (kind, reason) in service.zoo().failed() {
        eprintln!("  warning: {kind:?} failed to fit: {reason}");
    }
    for (kind, rmse) in &service.validation_rmse {
        eprintln!("  {kind:<9} validation RMSE {rmse:.4}");
    }
    service.save(out).map_err(|e| e.to_string())?;
    eprintln!("saved pre-trained models to {out}");
    Ok(())
}

fn cmd_diagnose(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    apply_threads_flag(&flags)?;
    let model_path = required(&flags, "model")?;
    let log_path = required(&flags, "log")?;
    let mut service = AiioService::load(model_path).map_err(|e| e.to_string())?;
    let _ = &mut service;

    let raw = std::fs::read_to_string(log_path).map_err(|e| e.to_string())?;
    let log: JobLog = if raw.trim_start().starts_with('{') {
        serde_json::from_str(&raw).map_err(|e| format!("bad JSON log: {e}"))?
    } else {
        parse_text(&raw).map_err(|e| e.to_string())?
    };

    let report = service.try_diagnose(&log).map_err(|e| e.to_string())?;
    if flag(&flags, "json").is_some() {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!("{report}");
    }
    if let Some(merge) = flag(&flags, "merge") {
        // Merge selection is fixed at train time in the service config;
        // accept the flag for forward compatibility but tell the truth.
        eprintln!("note: merge method is configured at training time; '{merge}' ignored");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    let model_path = required(&flags, "model")?;
    let addr = flag(&flags, "addr").unwrap_or("127.0.0.1:7380");
    let service = AiioService::load(model_path).map_err(|e| e.to_string())?;
    let mut config = aiio_serve::ServeConfig::default();
    if let Some(w) = flag(&flags, "workers") {
        config.workers = parse_num(w, "workers")?;
    }
    if let Some(q) = flag(&flags, "queue") {
        config.queue_capacity = parse_num(q, "queue")?;
    }
    if let Some(c) = flag(&flags, "max-connections") {
        config.max_connections = parse_num(c, "max-connections")?;
    }
    if let Some(t) = flag(&flags, "threads") {
        config.engine_threads = parse_num(t, "threads")?;
    }
    if let Some(dir) = flag(&flags, "store") {
        config.store_dir = Some(dir.into());
    }
    if let Some(s) = flag(&flags, "shards") {
        config.shards = parse_num(s, "shards")?;
    }
    if let Some(url) = flag(&flags, "replicate-from") {
        config.replicate_from = Some(url.to_string());
    }
    if let Some(d) = flag(&flags, "sched-pull") {
        config.control.pull_every = Some(parse_duration(d, "sched-pull")?);
    }
    if let Some(d) = flag(&flags, "sched-compact") {
        config.control.compact_every = Some(parse_duration(d, "sched-compact")?);
    }
    if let Some(d) = flag(&flags, "sched-retrain") {
        config.control.retrain_every = Some(parse_duration(d, "sched-retrain")?);
    }
    if let Some(d) = flag(&flags, "sched-jitter") {
        config.control.jitter = parse_duration(d, "sched-jitter")?;
    }
    if let Some(s) = flag(&flags, "sched-seed") {
        config.control.seed = parse_num(s, "sched-seed")?;
    }
    if let Some(n) = flag(&flags, "compact-max-segments") {
        config.control.compaction.max_segments = parse_num(n, "compact-max-segments")?;
    }
    if let Some(n) = flag(&flags, "compact-max-wal-bytes") {
        config.control.compaction.max_wal_bytes = parse_num(n, "compact-max-wal-bytes")?;
    }
    if let Some(n) = flag(&flags, "retrain-min-rows") {
        config.control.retrain_min_rows = parse_num(n, "retrain-min-rows")?;
    }
    // Surface schedule mistakes before a port binds or threads spawn:
    // the same typed validation runs again inside Server::bind.
    config
        .control
        .validate(config.replicate_from.is_some(), config.store_dir.is_some())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "serving {} models with {} workers (queue depth {}, engine threads {})",
        service.zoo().models().len(),
        config.workers,
        config.queue_capacity,
        config.engine_threads
    );
    let server = aiio_serve::Server::bind(addr, service, config).map_err(|e| e.to_string())?;
    // The smoke script and tests discover ephemeral ports from this line.
    println!(
        "listening on {}",
        server.local_addr().map_err(|e| e.to_string())?
    );
    server.run().map_err(|e| e.to_string())
}

/// One human-readable line per matched row.
fn print_query_row(job_id: u64, app: &str, counter: aiio_darshan::CounterId, value: f64) {
    println!("job {job_id:>12}  {app:<12} {}={value}", counter.name());
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    apply_threads_flag(&flags)?;
    let counter_name = required(&flags, "counter")?;
    let counter = aiio_darshan::CounterId::from_name(counter_name)
        .ok_or_else(|| format!("unknown counter '{counter_name}' (see Table 4 names)"))?;
    let min: f64 = flag(&flags, "min")
        .map(|s| parse_num(s, "min"))
        .transpose()?
        .unwrap_or(f64::NEG_INFINITY);
    let max: f64 = flag(&flags, "max")
        .map(|s| parse_num(s, "max"))
        .transpose()?
        .unwrap_or(f64::INFINITY);
    let limit: usize = flag(&flags, "limit")
        .map(|s| parse_num(s, "limit"))
        .transpose()?
        .unwrap_or(aiio_serve::DEFAULT_QUERY_LIMIT);
    let json = flag(&flags, "json").is_some();

    if let Some(addr) = flag(&flags, "addr") {
        // Remote: let the running server do the scan (its block cache is
        // warm). Counter names and numbers never need percent-encoding.
        let mut path = format!("/query?counter={counter_name}&limit={limit}");
        if let Some(v) = flag(&flags, "min") {
            path.push_str(&format!("&min={v}"));
        }
        if let Some(v) = flag(&flags, "max") {
            path.push_str(&format!("&max={v}"));
        }
        let timeout = std::time::Duration::from_secs(120);
        let response = aiio_serve::client::request(addr, "GET", &path, None, timeout)
            .map_err(|e| format!("request to {addr} failed: {e}"))?;
        if response.status >= 400 {
            return Err(format!(
                "GET /query answered {} {}: {}",
                response.status,
                aiio_serve::http::reason(response.status),
                response.body
            ));
        }
        if json {
            println!("{}", response.body);
            return Ok(());
        }
        let parsed = serde_json::parse_value(&response.body).map_err(|e| e.to_string())?;
        let rows = parsed
            .get("rows")
            .and_then(serde_json::Value::as_array)
            .ok_or_else(|| format!("malformed /query body: {}", response.body))?;
        let idx = aiio_darshan::CounterId::ALL
            .iter()
            .position(|c| *c == counter)
            .ok_or("counter missing from CounterId::ALL")?;
        for row in rows {
            let job_id = row.get("job_id").and_then(serde_json::Value::as_u64);
            let app = row.get("app").and_then(serde_json::Value::as_str);
            let value = row
                .get("counters")
                .and_then(|c| c.get("values"))
                .and_then(|v| v.get_index(idx))
                .and_then(serde_json::Value::as_f64);
            match (job_id, app, value) {
                (Some(id), Some(app), Some(v)) => print_query_row(id, app, counter, v),
                _ => return Err(format!("malformed row in /query body: {}", response.body)),
            }
        }
        let n = |k: &str| {
            parsed
                .get(k)
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0)
        };
        let s = |k: &str| {
            parsed
                .get("summary")
                .and_then(|v| v.get(k))
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0)
        };
        eprintln!(
            "query: {} row(s) returned{} of {} matched; scanned {} segment(s), \
             skipped {} via zone map, {} row(s) tested",
            n("returned"),
            if parsed.get("truncated").and_then(serde_json::Value::as_bool) == Some(true) {
                " (truncated)"
            } else {
                ""
            },
            s("rows_matched"),
            s("segments_scanned"),
            s("segments_skipped"),
            s("rows_scanned"),
        );
        return Ok(());
    }

    let dir = flag(&flags, "store").ok_or("query needs --store DIR or --addr HOST:PORT")?;
    let range = aiio_store::CounterRange::new(counter, min, max).map_err(|e| e.to_string())?;
    let mut printed = 0usize;
    let mut truncated = false;
    let mut row_err: Option<String> = None;
    let mut emit = |job: &JobLog| {
        if printed >= limit {
            truncated = true;
            return;
        }
        if json {
            match serde_json::to_string(job) {
                Ok(line) => println!("{line}"),
                Err(e) => row_err = Some(e.to_string()),
            }
        } else {
            print_query_row(job.job_id, &job.app, counter, job.counters.get(counter));
        }
        printed += 1;
    };
    let summary = open_store(dir, 0)?
        .read_view()
        .scan_filtered(&range, &mut emit)
        .map_err(|e| e.to_string())?;
    if let Some(e) = row_err {
        return Err(format!("row serialization failed: {e}"));
    }
    eprintln!(
        "query: {printed} row(s) printed{} of {} matched; scanned {} segment(s), \
         skipped {} via zone map, {} row(s) tested",
        if truncated { " (truncated)" } else { "" },
        summary.rows_matched,
        summary.segments_scanned,
        summary.segments_skipped,
        summary.rows_scanned,
    );
    Ok(())
}

fn cmd_sched_stats(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args)?;
    let addr = required(&flags, "addr")?;
    let timeout = std::time::Duration::from_secs(30);
    let response = aiio_serve::client::request(addr, "GET", "/sched/stats", None, timeout)
        .map_err(|e| format!("request to {addr} failed: {e}"))?;
    if response.status >= 400 {
        return Err(format!(
            "GET /sched/stats answered {} {}: {}",
            response.status,
            aiio_serve::http::reason(response.status),
            response.body
        ));
    }
    if flag(&flags, "json").is_some() {
        println!("{}", response.body);
        return Ok(());
    }
    let parsed = serde_json::parse_value(&response.body).map_err(|e| e.to_string())?;
    let tasks = parsed
        .get("tasks")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| format!("malformed /sched/stats body: {}", response.body))?;
    for t in tasks {
        let s = |k: &str| {
            t.get(k)
                .and_then(serde_json::Value::as_str)
                .map(str::to_string)
        };
        let n = |k: &str| t.get(k).and_then(serde_json::Value::as_u64).unwrap_or(0);
        let name = s("task").unwrap_or_else(|| "?".to_string());
        let last_error = s("last_error").unwrap_or_default();
        print!(
            "{name:<8} runs {} (failures {}), backoff level {}, next run in {} ms",
            n("runs"),
            n("failures"),
            n("backoff_level"),
            n("next_run_in_ms"),
        );
        if last_error.is_empty() {
            println!();
        } else {
            println!(", last error: {last_error}");
        }
    }
    Ok(())
}

/// Read a log file (darshan text or JSON JobLog) as a JSON body.
fn log_file_as_json(path: &str) -> Result<String, CliError> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if raw.trim_start().starts_with('{') {
        // Validate rather than pass through blindly.
        let log: JobLog = serde_json::from_str(&raw).map_err(|e| format!("{path}: {e}"))?;
        serde_json::to_string(&log).map_err(|e| e.to_string())
    } else {
        let log = parse_text(&raw).map_err(|e| format!("{path}: {e}"))?;
        serde_json::to_string(&log).map_err(|e| e.to_string())
    }
}

fn cmd_client(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args)?;
    let addr = required(&flags, "addr")?;
    let action = pos.first().ok_or_else(|| {
        "client needs an action (health|metrics|diagnose|batch|reload|shutdown)".to_string()
    })?;
    let timeout = std::time::Duration::from_secs(120);
    let (method, path, body) = match action.as_str() {
        "health" => ("GET", "/healthz", None),
        "metrics" => ("GET", "/metrics", None),
        "shutdown" => ("POST", "/admin/shutdown", None),
        "reload" => {
            let model = required(&flags, "path")?;
            let body = format!("{{\"path\":{}}}", aiio_serve::http::json_string(model));
            ("POST", "/admin/reload", Some(body))
        }
        "diagnose" => {
            let log = pos
                .get(1)
                .ok_or_else(|| "diagnose needs a log file".to_string())?;
            ("POST", "/diagnose", Some(log_file_as_json(log)?))
        }
        "batch" => {
            let logs: Vec<String> = pos[1..]
                .iter()
                .map(|p| log_file_as_json(p))
                .collect::<Result<_, _>>()?;
            if logs.is_empty() {
                return Err("batch needs at least one log file".into());
            }
            (
                "POST",
                "/diagnose/batch",
                Some(format!("[{}]", logs.join(","))),
            )
        }
        other => return Err(format!("unknown client action '{other}'")),
    };
    let deadline = flag(&flags, "deadline-ms");
    let headers: Vec<(&str, &str)> = deadline
        .map(|v| vec![("X-Deadline-Ms", v)])
        .unwrap_or_default();
    let response = aiio_serve::client::request_with_headers(
        addr,
        method,
        path,
        body.as_deref(),
        timeout,
        &headers,
    )
    .map_err(|e| format!("request to {addr} failed: {e}"))?;
    println!("{}", response.body);
    if response.status >= 400 {
        return Err(format!(
            "{method} {path} answered {} {}",
            response.status,
            aiio_serve::http::reason(response.status)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parser_splits_positional_and_flags() {
        let args: Vec<String> = ["ior -w", "--nprocs", "64", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, flags) = parse_flags(&args).unwrap();
        assert_eq!(pos, vec!["ior -w"]);
        assert_eq!(flags.get("nprocs").unwrap(), "64");
        assert_eq!(flags.get("json").unwrap(), "true");
    }

    #[test]
    fn flag_parser_rejects_missing_values() {
        let args: Vec<String> = ["--out"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(dispatch(&["frobnicate".to_string()]).is_err());
    }

    #[test]
    fn help_succeeds() {
        assert!(dispatch(&["help".to_string()]).is_ok());
        assert!(dispatch(&[]).is_ok());
    }
}
