//! End-to-end and per-layer benchmark of the AIIO service's three paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload diagnose|ingest-query|train-store --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every line but the last is a
//! human-readable log; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). The exit code is
//! nonzero when any operation or correctness check failed.

mod diagnose;
mod ingest;
mod layers;
mod trace;
mod train;
mod util;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match util::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = match util::Ctx::new(args.clone()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot create .bench_run/: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "diagnose" => diagnose::run(&ctx),
        "ingest-query" => ingest::run(&ctx),
        "train-store" => train::run(&ctx),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (diagnose, ingest-query, train-store)"
            );
            return ExitCode::from(2);
        }
    };
    let fs = util::fs_type(&ctx.work);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let (commit, tree) = util::code_identity();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut context = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("host_cores".to_string(), cores.to_string()),
        ("store_fs".to_string(), fs),
        ("commit".to_string(), commit),
        ("source_fnv".to_string(), tree),
    ];
    context.extend(outcome.context.iter().cloned());
    let failed_frac = outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64;
    context.push(("failed_frac".into(), format!("{failed_frac}")));
    let transport: Vec<String> = outcome
        .tally
        .transport
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    context.push((
        "transport_errors".into(),
        if transport.is_empty() {
            "none".into()
        } else {
            transport.join(",")
        },
    ));
    for (k, v) in &context {
        println!("context {k} {v}");
    }
    for n in &outcome.tally.notes {
        println!("failure {n}");
    }
    let shown = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    if args.trace {
        for m in &outcome.layer_detail {
            println!("layer {} {} {}", m.name, m.value, m.unit);
        }
        let mut file = String::new();
        for (k, v) in &context {
            file.push_str(&format!("{k}\t{v}\n"));
        }
        for m in outcome.layer_detail.iter().chain(&outcome.per_layer) {
            file.push_str(&format!("{}\t{}\t{}\n", m.name, m.value, m.unit));
        }
        if let Err(e) = std::fs::write(ctx.out_file("layers.tsv"), file) {
            eprintln!("perfbench: cannot write the layer file: {e}");
        }
    }
    let finite = shown.iter().all(|m| m.value.is_finite());
    let correct = outcome.tally.failed == 0 && finite;
    if !finite {
        println!("failure a metric is not a finite number");
    }
    println!("{}", util::result_line(correct, &outcome.tally, shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
