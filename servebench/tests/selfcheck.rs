//! Self-check of the benchmark's correctness oracle: a short run against a
//! normal server is correct and reports every end-to-end metric of
//! `BENCHMARK.json` with its unit, and a run against a server that flips
//! the served tree's labels (`HAMLET_FAULT_FLIP_LABELS`) is caught.
//!
//! The server binary is `$SERVEBENCH_SERVER` when set, otherwise it is
//! built into the repository's `target/release`.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn server_bin() -> PathBuf {
    if let Some(bin) = std::env::var_os("SERVEBENCH_SERVER") {
        return PathBuf::from(bin);
    }
    let root = repo_root();
    let target = root.join("target");
    let status = Command::new(env!("CARGO"))
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "hamlet-serve",
        ])
        .args(["--bin", "hamlet-serve"])
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building hamlet-serve failed");
    target.join("release").join("hamlet-serve")
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::Num(n)) => n.as_u64().expect("a whole number"),
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Runs a one-second untraced tree-1row pass and returns its result line.
fn run(out: &str, fault: Option<&str>) -> Value {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(out);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_servebench"));
    cmd.current_dir(repo_root())
        .arg("--server")
        .arg(server_bin())
        .args([
            "--workload",
            "tree-1row",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--out")
        .arg(&out_dir)
        .env_remove("HAMLET_FAULT_FLIP_LABELS");
    if let Some(key) = fault {
        cmd.env("HAMLET_FAULT_FLIP_LABELS", key);
    }
    let output = cmd.output().expect("the benchmark runs");
    assert!(
        output.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

#[test]
fn normal_server_is_correct_and_reports_every_metric() {
    let result = run("selfcheck-ok", None);
    assert_eq!(field(&result, "correct"), Some(&Value::Bool(true)));
    assert_eq!(as_u64(field(&result, "failed")), 0, "fail_ratio must be 0");
    assert!(as_u64(field(&result, "attempted")) > 0);

    let contract = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let contract: Value = serde_json::from_str(&contract).expect("BENCHMARK.json is JSON");
    let Some(Value::Arr(wanted)) = field(&contract, "end_to_end") else {
        panic!("BENCHMARK.json lists no end_to_end metrics");
    };
    let metrics = field(&result, "metrics").expect("metrics");
    for m in wanted {
        let Some(Value::Str(name)) = field(m, "name") else {
            panic!("metric without a name");
        };
        let got = field(metrics, name).unwrap_or_else(|| panic!("metric {name} missing"));
        assert_eq!(field(got, "unit"), field(m, "unit"), "unit of {name}");
        assert!(
            matches!(field(got, "value"), Some(Value::Num(_))),
            "{name} has no numeric value"
        );
    }
}

#[test]
fn flipped_labels_are_caught() {
    let result = run("selfcheck-fault", Some("tree@1"));
    assert_eq!(field(&result, "correct"), Some(&Value::Bool(false)));
    assert!(
        as_u64(field(&result, "failed")) > 0,
        "fail_ratio must be above 0 when the server flips labels"
    );
}
