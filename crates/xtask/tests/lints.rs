//! End-to-end lint tests: the broken fixture tree must trip every rule ID
//! (and fail the CLI with a non-zero exit), while the real workspace must
//! pass clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::source::Workspace;
use xtask::{all_lints, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/broken")
}

fn run_on(root: &Path) -> Vec<Finding> {
    let ws = Workspace::load(root).expect("scan fixture tree");
    all_lints().iter().flat_map(|l| l.run(&ws)).collect()
}

fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn broken_fixture_trips_every_rule() {
    let findings = run_on(&fixture_root());
    let fired = rules_fired(&findings);
    for rule in [
        "AIIO-C001",
        "AIIO-C002",
        "AIIO-C003",
        "AIIO-C004",
        "AIIO-C005",
        "AIIO-S001",
        "AIIO-P001",
        "AIIO-P002",
        "AIIO-P003",
        "AIIO-F001",
        "AIIO-F002",
        "AIIO-D001",
        "AIIO-D002",
        "AIIO-R001",
        "AIIO-R002",
        "AIIO-R003",
        "AIIO-R004",
    ] {
        assert!(
            fired.contains(&rule),
            "{rule} did not fire; findings:\n{findings:#?}"
        );
    }
}

#[test]
fn broken_counter_schema_findings_are_specific() {
    let findings = run_on(&fixture_root());
    let c001: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AIIO-C001").collect();
    assert!(
        c001.iter().any(|f| f.message.contains("discriminant gap")),
        "missing gap finding: {c001:#?}"
    );
    assert!(
        c001.iter().any(|f| f.message.contains("N_COUNTERS = 5")),
        "missing N_COUNTERS mismatch: {c001:#?}"
    );
    assert!(
        c001.iter()
            .any(|f| f.message.contains("missing from `CounterId::ALL`")),
        "missing ALL-completeness finding: {c001:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "AIIO-C002" && f.message.contains("`GhostCounter`")),
        "GhostCounter not reported as never emitted: {findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "AIIO-C004" && f.message.contains("`OrphanCounter`")),
        "OrphanCounter not reported as never diagnosable: {findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "AIIO-C005" && f.message.contains("`GhostCounter`")),
        "GhostCounter not reported as missing a store column: {findings:#?}"
    );
}

#[test]
fn broken_fixture_findings_point_at_the_right_files() {
    let findings = run_on(&fixture_root());
    let file_of = |rule: &str| -> &str {
        findings
            .iter()
            .find(|f| f.rule == rule)
            .map(|f| f.file.as_str())
            .unwrap_or("<none>")
    };
    assert_eq!(file_of("AIIO-S001"), "crates/explain/src/lib.rs");
    assert_eq!(file_of("AIIO-F001"), "crates/explain/src/lib.rs");
    assert_eq!(file_of("AIIO-F002"), "crates/explain/src/lib.rs");
    assert_eq!(file_of("AIIO-D001"), "crates/explain/src/lib.rs");
    assert_eq!(file_of("AIIO-D002"), "crates/explain/src/lib.rs");
    assert_eq!(file_of("AIIO-C002"), "crates/darshan/src/counters.rs");
    assert_eq!(file_of("AIIO-C003"), "crates/darshan/src/features.rs");
    assert_eq!(file_of("AIIO-C005"), "crates/store/src/schema.rs");
    assert_eq!(file_of("AIIO-R001"), "crates/syncfix/src/lib.rs");
    assert_eq!(file_of("AIIO-R002"), "crates/syncfix/src/lib.rs");
    assert_eq!(file_of("AIIO-R003"), "crates/syncfix/src/lib.rs");
    assert_eq!(file_of("AIIO-R004"), "crates/syncfix/src/lib.rs");
}

#[test]
fn cli_fails_on_broken_fixture_with_rule_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run xtask binary");
    assert!(
        !out.status.success(),
        "xtask check must fail on the broken fixture"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "AIIO-C001",
        "AIIO-S001",
        "AIIO-F001",
        "AIIO-F002",
        "AIIO-D001",
    ] {
        assert!(
            stdout.contains(rule),
            "missing {rule} in CLI output:\n{stdout}"
        );
    }
}

#[test]
fn json_findings_round_trip_through_annotate() {
    use std::io::Write as _;
    use std::process::Stdio;

    // `check --format json` emits one object per finding on stdout.
    let check = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .args(["--format", "json"])
        .output()
        .expect("run xtask check --format json");
    assert!(!check.status.success(), "fixture tree must fail");
    let json = String::from_utf8_lossy(&check.stdout).to_string();
    let lines: Vec<&str> = json.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "no JSON findings emitted:\n{json}");
    for line in &lines {
        let v = serde_json::parse_value(line).expect("each stdout line is a JSON object");
        for key in ["rule", "file", "line", "message", "hint"] {
            assert!(!v[key].is_null(), "finding missing `{key}`: {line}");
        }
    }

    // Piping that stream into `annotate` yields one ::error per finding.
    let mut annotate = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("annotate")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xtask annotate");
    annotate
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(json.as_bytes())
        .expect("feed findings to annotate");
    let out = annotate.wait_with_output().expect("run xtask annotate");
    assert!(out.status.success(), "annotate is a formatter, not a gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let errors: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("::error "))
        .collect();
    assert_eq!(
        errors.len(),
        lines.len(),
        "every finding must become an annotation:\n{stdout}"
    );
    assert!(
        errors
            .iter()
            .any(|l| l.contains("file=crates/syncfix/src/lib.rs") && l.contains("title=AIIO-R")),
        "concurrency findings must annotate the fixture file:\n{stdout}"
    );
}

#[test]
fn recorder_union_covers_multi_emitter_schemas() {
    use xtask::lints::counter_schema::{CounterSchemaLint, SchemaPaths};
    use xtask::Lint;

    let ws = Workspace::load(&fixture_root()).expect("scan fixture tree");

    // Default paths: only the simulator recorder → GhostCounter drifts.
    let default_lint = CounterSchemaLint::default();
    assert!(
        default_lint
            .run(&ws)
            .iter()
            .any(|f| f.rule == "AIIO-C002" && f.message.contains("`GhostCounter`")),
        "single-recorder baseline should flag GhostCounter"
    );

    // Registering the second emitter unions its counters in.
    let multi = CounterSchemaLint {
        paths: SchemaPaths {
            recorders: &[
                "crates/iosim/src/recorder.rs",
                "crates/iosim/src/trace_recorder.rs",
            ],
            ..SchemaPaths::default()
        },
    };
    assert!(
        !multi
            .run(&ws)
            .iter()
            .any(|f| f.rule == "AIIO-C002" && f.message.contains("`GhostCounter`")),
        "a recorders list containing the trace ingester must satisfy emission"
    );
}

#[test]
fn serve_crate_is_inside_the_lint_perimeter() {
    // The serving layer is library code: the panic-hygiene, float
    // safety and determinism lints must scan it like every other crate,
    // including the HTTP wire module it re-exports from aiio-replnet.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("scan workspace");
    for file in [
        "crates/serve/src/lib.rs",
        "crates/serve/src/queue.rs",
        "crates/serve/src/pool.rs",
        "crates/serve/src/metrics.rs",
        "crates/serve/src/client.rs",
        "crates/replnet/src/http.rs",
    ] {
        assert!(ws.file(file).is_some(), "{file} missing from lint scan");
    }
}

#[test]
fn clean_workspace_passes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = xtask::run_all(&root).expect("scan workspace");
    assert!(findings.is_empty(), "clean tree must pass:\n{findings:#?}");
}
