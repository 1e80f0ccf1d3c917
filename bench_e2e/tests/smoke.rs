//! Smoke test: every workload, untraced and traced, in its short
//! `--smoke` mode, passes its output checks and prints a complete
//! JSON result as its last line.

use std::path::{Path, PathBuf};
use std::process::Command;

use coldtall::obs::json::{self, Value};

/// The repository root (the parent of this package).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// Builds the release `coldtall` CLI into `target`, where the harness
/// looks for it.
fn build_coldtall(target: &Path) {
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "coldtall",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the coldtall CLI failed");
}

#[test]
fn every_workload_passes_its_checks_in_smoke_mode() {
    let harness = PathBuf::from(env!("CARGO_BIN_EXE_bench_e2e"));
    let target = harness
        .parent()
        .and_then(Path::parent)
        .expect("the harness sits in <target>/<profile>/")
        .canonicalize()
        .expect("the target directory exists");
    build_coldtall(&target);
    for workload in ["artifacts", "cli", "serve"] {
        for trace in ["0", "1"] {
            let output = Command::new(&harness)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .current_dir(repo_root())
                .env("CARGO_TARGET_DIR", &target)
                .output()
                .expect("the harness runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace={trace} failed: {}\n{stdout}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: {stdout}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result
                .get("attempted")
                .and_then(Value::as_f64)
                .is_some_and(|n| n >= 1.0));
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object in {last}");
            };
            assert!(!metrics.is_empty());
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {metric:?}"
                );
                assert!(
                    matches!(metric.get("unit"), Some(Value::String(_))),
                    "{workload}: {name}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", "cli", "--trace", "2"])
        .output()
        .expect("the harness runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
