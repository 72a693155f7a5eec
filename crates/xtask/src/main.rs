//! `cargo run -p xtask -- check` — run the workspace invariant suite.
//!
//! Exit status is non-zero when any lint reports a finding, so the command
//! slots directly into CI. Flags:
//!
//! * `--root DIR` — scan a tree other than this workspace (fixtures).
//! * `--format json` — one JSON object per finding on stdout (rule, file,
//!   line, message, hint); human status lines move to stderr so the stream
//!   stays machine-parseable.
//!
//! `cargo run -p xtask -- annotate` reads `--format json` findings from
//! stdin and emits GitHub Actions `::error` workflow commands, one per
//! finding, so CI surfaces lint hits as inline PR annotations.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;
use xtask::source::Workspace;
use xtask::{all_lints, Finding};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let Some((&cmd, rest)) = args.split_first() else {
        return usage();
    };
    match cmd {
        "check" => match parse_check(rest) {
            Some((root, format)) => check(&root, format),
            None => usage(),
        },
        "annotate" => annotate(),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- check [--root DIR] [--format text|json]");
    eprintln!(
        "       cargo run -p xtask -- annotate   (JSON findings on stdin -> ::error commands)"
    );
    eprintln!();
    eprintln!("passes:");
    for lint in all_lints() {
        eprintln!("  {:<18} {}", lint.name(), lint.description());
    }
    ExitCode::FAILURE
}

fn parse_check(rest: &[&str]) -> Option<(PathBuf, Format)> {
    let mut root = workspace_root();
    let mut format = Format::Text;
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--root" => root = PathBuf::from(it.next()?),
            "--format" => {
                format = match *it.next()? {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some((root, format))
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let raw = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    raw.canonicalize().unwrap_or(raw)
}

fn check(root: &Path, format: Format) -> ExitCode {
    let ws = match Workspace::load(root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let mut findings: Vec<Finding> = Vec::new();
    let mut status = String::new();
    for lint in all_lints() {
        let found = lint.run(&ws);
        let state = if found.is_empty() { "ok" } else { "FAIL" };
        status.push_str(&format!(
            "{:<18} {state:>4}   {}\n",
            lint.name(),
            lint.description()
        ));
        findings.extend(found);
    }
    match format {
        Format::Text => {
            print!("{status}");
            if !findings.is_empty() {
                println!();
                for finding in &findings {
                    println!("{finding}");
                }
                println!();
            }
            if findings.is_empty() {
                println!(
                    "xtask check: all invariants hold ({} files scanned)",
                    ws.files.len()
                );
            } else {
                println!("xtask check: {} finding(s)", findings.len());
            }
        }
        Format::Json => {
            // Status goes to stderr: stdout carries exactly one JSON
            // object per finding so it pipes into `annotate` (or jq).
            eprint!("{status}");
            for finding in &findings {
                match serde_json::to_string(&finding_json(finding)) {
                    Ok(line) => println!("{line}"),
                    Err(e) => eprintln!("xtask: failed to encode finding: {e}"),
                }
            }
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn finding_json(f: &Finding) -> Value {
    Value::Map(vec![
        ("rule".to_string(), Value::Str(f.rule.to_string())),
        ("file".to_string(), Value::Str(f.file.clone())),
        ("line".to_string(), Value::U64(f.line as u64)),
        ("message".to_string(), Value::Str(f.message.clone())),
        ("hint".to_string(), Value::Str(f.hint.to_string())),
    ])
}

/// Read `--format json` findings from stdin, emit one GitHub Actions
/// `::error` workflow command per finding. Non-JSON lines pass through to
/// stderr untouched so accidental status noise stays visible.
fn annotate() -> ExitCode {
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("xtask annotate: failed to read stdin: {e}");
        return ExitCode::FAILURE;
    }
    let mut emitted = 0usize;
    for line in input.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::parse_value(trimmed) else {
            eprintln!("{line}");
            continue;
        };
        let (Some(rule), Some(file), Some(line_no), Some(message)) = (
            v.get("rule").and_then(Value::as_str),
            v.get("file").and_then(Value::as_str),
            v.get("line").and_then(Value::as_u64),
            v.get("message").and_then(Value::as_str),
        ) else {
            eprintln!("{line}");
            continue;
        };
        // Workflow-command data must stay on one line; findings never
        // contain newlines, but escape the GitHub property separators.
        let message = message.replace('%', "%25").replace(',', "%2C");
        println!("::error file={file},line={line_no},title={rule}::[{rule}] {message}");
        emitted += 1;
    }
    eprintln!("xtask annotate: {emitted} annotation(s)");
    ExitCode::SUCCESS
}
