//! End-to-end CLI tests: drive the real `aiio` binary through the full
//! simulate → sample → train → diagnose workflow in a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn aiio() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aiio"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aiio_cli_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = aiio().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("diagnose"));
    assert!(text.contains("simulate"));
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let out = aiio().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn simulate_emits_parsable_darshan_text() {
    let out = aiio()
        .args(["simulate", "ior -w -t 1k -b 1m -Y"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total_POSIX_WRITES:"));
    // And it round-trips through the parser.
    let log = aiio_darshan::parse_text(&text).unwrap();
    assert!(log.performance_mib_s() > 0.0);
}

#[test]
fn simulate_rejects_bad_ior_lines() {
    let out = aiio().args(["simulate", "ior -t 1k"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn full_workflow_sample_train_diagnose() {
    let dir = tmpdir("workflow");
    let db = dir.join("db.json");
    let model = dir.join("model.json");
    let log = dir.join("job.txt");

    // sample
    let out = aiio()
        .args([
            "sample", "--jobs", "200", "--seed", "3", "--noise", "0", "--out",
        ])
        .arg(&db)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(db.exists());

    // train (fast)
    let out = aiio()
        .args(["train", "--fast", "--db"])
        .arg(&db)
        .arg("--out")
        .arg(&model)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    // simulate an unseen job to a file
    let out = aiio()
        .args(["simulate", "ior -r -t 1k -b 1m", "--out"])
        .arg(&log)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // diagnose it (text report)
    let out = aiio()
        .args(["diagnose", "--model"])
        .arg(&model)
        .arg("--log")
        .arg(&log)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("AIIO diagnosis"));
    assert!(text.contains("top bottlenecks"));

    // diagnose as JSON
    let out = aiio()
        .args(["diagnose", "--json", "--model"])
        .arg(&model)
        .arg("--log")
        .arg(&log)
        .output()
        .unwrap();
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");
    assert!(report.get("bottlenecks").is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diagnose_accepts_json_joblog_too() {
    let dir = tmpdir("jsonlog");
    let db = dir.join("db.json");
    let model = dir.join("model.json");
    let log = dir.join("job.json");

    assert!(aiio()
        .args(["sample", "--jobs", "200", "--seed", "4", "--noise", "0", "--out"])
        .arg(&db)
        .status()
        .unwrap()
        .success());
    assert!(aiio()
        .args(["train", "--fast", "--db"])
        .arg(&db)
        .arg("--out")
        .arg(&model)
        .status()
        .unwrap()
        .success());
    assert!(aiio()
        .args(["simulate", "ior -w -t 1k -b 1m -Y", "--json", "--out"])
        .arg(&log)
        .status()
        .unwrap()
        .success());
    let out = aiio()
        .args(["diagnose", "--model"])
        .arg(&model)
        .arg("--log")
        .arg(&log)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn train_rejects_tiny_databases() {
    let dir = tmpdir("tinydb");
    let db = dir.join("db.json");
    assert!(aiio()
        .args(["sample", "--jobs", "5", "--out"])
        .arg(&db)
        .status()
        .unwrap()
        .success());
    let out = aiio()
        .args(["train", "--db"])
        .arg(&db)
        .arg("--out")
        .arg(dir.join("m.json"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 20"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_workflow_ingest_compact_train_matches_db_path() {
    let dir = tmpdir("store");
    let db = dir.join("db.json");
    let store = dir.join("logs.store");
    let model_db = dir.join("model_db.json");
    let model_store = dir.join("model_store.json");

    // Sample a database to JSON, then ingest the same jobs into a store.
    assert!(aiio()
        .args(["sample", "--jobs", "200", "--seed", "3", "--noise", "0", "--out"])
        .arg(&db)
        .status()
        .unwrap()
        .success());
    let out = aiio()
        .args(["ingest", "--chunk", "64", "--db"])
        .arg(&db)
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("ingested 200 jobs"));

    // Compact seals the WAL tail into columnar segments.
    let out = aiio()
        .args(["compact", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Stats (JSON) reflect all 200 rows sealed.
    let out = aiio()
        .args(["store-stats", "--json", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stats: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(stats["total_rows"].as_u64(), Some(200));
    assert_eq!(stats["wal_rows"].as_u64(), Some(0));

    // Training from the store is byte-identical to training from the JSON
    // database the store was fed with.
    assert!(aiio()
        .args(["train", "--fast", "--db"])
        .arg(&db)
        .arg("--out")
        .arg(&model_db)
        .status()
        .unwrap()
        .success());
    let out = aiio()
        .args(["train", "--fast", "--store"])
        .arg(&store)
        .arg("--out")
        .arg(&model_store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let a = std::fs::read(&model_db).unwrap();
    let b = std::fs::read(&model_store).unwrap();
    assert_eq!(a, b, "out-of-core model differs from in-memory model");

    // Sampling straight into the store (no JSON intermediate) appends.
    let out = aiio()
        .args([
            "ingest", "--jobs", "30", "--seed", "9", "--noise", "0", "--store",
        ])
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("ingested 30 jobs"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_workflow_ingest_rebalance_replicate_train_matches_single() {
    let dir = tmpdir("shard");
    let db = dir.join("db.json");
    let store = dir.join("logs.store");
    let fleet = dir.join("logs.fleet");
    let model_store = dir.join("model_store.json");
    let model_fleet = dir.join("model_fleet.json");
    let model_rebalanced = dir.join("model_rebalanced.json");
    let model_compacted = dir.join("model_compacted.json");

    assert!(aiio()
        .args(["sample", "--jobs", "120", "--seed", "5", "--noise", "0", "--out"])
        .arg(&db)
        .status()
        .unwrap()
        .success());

    // Same database into a plain store and a 3-shard fleet.
    assert!(aiio()
        .args(["ingest", "--chunk", "32", "--db"])
        .arg(&db)
        .arg("--store")
        .arg(&store)
        .status()
        .unwrap()
        .success());
    let out = aiio()
        .args(["ingest", "--chunk", "32", "--shards", "3", "--db"])
        .arg(&db)
        .arg("--store")
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("ingested 120 jobs"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("(3 shards)"));

    // shard-stats sees every row; store-stats refuses the fleet layout.
    let out = aiio()
        .args(["shard-stats", "--json", "--store"])
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stats: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(stats["shards"].as_u64(), Some(3));
    assert_eq!(stats["total_rows"].as_u64(), Some(120));
    let out = aiio()
        .args(["store-stats", "--store"])
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("shard-stats"));

    // Training from the fleet is byte-identical to the unsharded store.
    assert!(aiio()
        .args(["train", "--fast", "--store"])
        .arg(&store)
        .arg("--out")
        .arg(&model_store)
        .status()
        .unwrap()
        .success());
    let out = aiio()
        .args(["train", "--fast", "--store"])
        .arg(&fleet)
        .arg("--out")
        .arg(&model_fleet)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&model_store).unwrap(),
        std::fs::read(&model_fleet).unwrap(),
        "sharded model differs from single-store model"
    );

    // Replicate, then rebalance 3 -> 2; training bytes still match.
    let out = aiio()
        .args(["replicate", "--store"])
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("replicated 3 shard(s)"));
    let out = aiio()
        .args(["rebalance", "--shards", "2", "--store"])
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("rebalanced 3 -> 2 shards"));
    let out = aiio()
        .args(["shard-stats", "--json", "--store"])
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stats: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(stats["shards"].as_u64(), Some(2));
    assert_eq!(stats["total_rows"].as_u64(), Some(120));
    let out = aiio()
        .args(["train", "--fast", "--store"])
        .arg(&fleet)
        .arg("--out")
        .arg(&model_rebalanced)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&model_store).unwrap(),
        std::fs::read(&model_rebalanced).unwrap(),
        "model changed after rebalance"
    );

    // Compact seals and compacts every shard. Nothing lands at the fleet
    // root, no row is lost, and training bytes are unchanged.
    let out = aiio()
        .args(["compact", "--store"])
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("store: 120 rows"));
    assert!(!fleet.join("wal.bin").exists(), "compact wrote a plain WAL");
    let out = aiio()
        .args(["shard-stats", "--json", "--store"])
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stats: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(stats["total_rows"].as_u64(), Some(120));
    for shard in stats["per_shard"].as_array().unwrap() {
        assert!(
            shard["store"]["segments"].as_u64().unwrap() > 0,
            "{shard:?}"
        );
        assert_eq!(shard["store"]["wal_rows"].as_u64(), Some(0), "{shard:?}");
    }
    let out = aiio()
        .args(["train", "--fast", "--store"])
        .arg(&fleet)
        .arg("--out")
        .arg(&model_compacted)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&model_store).unwrap(),
        std::fs::read(&model_compacted).unwrap(),
        "model changed after compaction"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_client_roundtrip_over_loopback() {
    use std::io::BufRead;

    let dir = tmpdir("serve");
    let db = dir.join("db.json");
    let model = dir.join("model.json");
    let log = dir.join("job.json");
    let log2 = dir.join("job2.txt");

    assert!(aiio()
        .args(["sample", "--jobs", "200", "--seed", "6", "--noise", "0", "--out"])
        .arg(&db)
        .status()
        .unwrap()
        .success());
    assert!(aiio()
        .args(["train", "--fast", "--db"])
        .arg(&db)
        .arg("--out")
        .arg(&model)
        .status()
        .unwrap()
        .success());
    assert!(aiio()
        .args(["simulate", "ior -w -t 1k -b 1m -Y", "--json", "--out"])
        .arg(&log)
        .status()
        .unwrap()
        .success());
    assert!(aiio()
        .args(["simulate", "ior -r -t 1k -b 1m", "--out"])
        .arg(&log2)
        .status()
        .unwrap()
        .success());

    // Serve on an ephemeral port; discover it from the announce line.
    let mut server = aiio()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--model",
        ])
        .arg(&model)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut announce = String::new();
    std::io::BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut announce)
        .unwrap();
    let addr = announce
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line {announce:?}"))
        .to_string();

    let client = |args: &[&str]| {
        let mut cmd = aiio();
        cmd.args(["client", "--addr", &addr]).args(args);
        let out = cmd.output().unwrap();
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };

    let (ok, body, err) = client(&["health"]);
    assert!(ok, "{err}");
    assert!(body.contains("\"status\":\"ok\""));

    // `--addr` also takes the URL form `--replicate-from` uses.
    let out = aiio()
        .args(["client", "--addr", &format!("http://{addr}"), "health"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"status\":\"ok\""));

    let (ok, body, err) = client(&["diagnose", log.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(body.contains("\"bottlenecks\""));

    // Batch accepts a mix of JSON and darshan-text logs.
    let (ok, body, err) = client(&["batch", log.to_str().unwrap(), log2.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(body.starts_with('[') && body.contains("\"bottlenecks\""));

    let (ok, _, err) = client(&["reload", "--path", model.to_str().unwrap()]);
    assert!(ok, "{err}");

    let (ok, body, err) = client(&["metrics"]);
    assert!(ok, "{err}");
    assert!(body.contains("aiio_requests_total{endpoint=\"diagnose\"} 1"));
    assert!(body.contains("aiio_requests_total{endpoint=\"diagnose_batch\"} 1"));
    assert!(body.contains("aiio_reloads_total 1"));

    // A missing log file fails client-side without touching the server.
    let (ok, _, err) = client(&["diagnose", "/nonexistent.json"]);
    assert!(!ok);
    assert!(err.contains("/nonexistent.json"));

    let (ok, _, err) = client(&["shutdown"]);
    assert!(ok, "{err}");
    let status = server.wait().unwrap();
    assert!(status.success(), "server exited nonzero after shutdown");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_accepts_trace_files() {
    let dir = tmpdir("trace");
    let trace = dir.join("job.trace");
    std::fs::write(
        &trace,
        "ranks 32\nopen 1\nwrite 2048 x512 consecutive fsync\n",
    )
    .unwrap();
    let out = aiio()
        .args(["simulate", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total_POSIX_WRITES: 16384")); // 32 ranks x 512
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_trace_rejects_malformed_files() {
    let dir = tmpdir("badtrace");
    let trace = dir.join("bad.trace");
    std::fs::write(&trace, "write 8 x8 consecutive\n").unwrap(); // no ranks header
    let out = aiio()
        .args(["simulate", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ranks"));
    let _ = std::fs::remove_dir_all(&dir);
}
