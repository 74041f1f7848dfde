//! Every workload at toy sizes, through the binary, as the benchmark is
//! invoked: one untraced and one traced run each.

use comet_obs::json::{self, JsonValue};
use comet_perf::catalog::{Metric, END_TO_END, PER_LAYER};
use comet_perf::workload::Workload;
use std::process::Command;

fn run(workload: Workload, trace: bool) -> JsonValue {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf-smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .current_dir(&dir)
        .args(["run", "--workload", workload.name(), "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{} trace={trace} failed: {stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

fn check(result: &JsonValue, catalog: &[Metric], label: &str) {
    let keys: Vec<&str> =
        result.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{label}");
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)), "{label}");
    assert!(result.get("attempted").and_then(JsonValue::as_f64).is_some_and(|n| n >= 1.0));
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0), "{label}");
    let metrics = result.get("metrics").and_then(JsonValue::as_obj).expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = catalog.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "{label}");
    for ((name, entry), metric) in metrics.iter().zip(catalog) {
        assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(metric.unit), "{name}");
        let value = entry.get("value").and_then(JsonValue::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{label} {name}: {value:?}");
    }
}

#[test]
fn every_workload_runs_and_reports_every_metric() {
    for workload in Workload::ALL {
        let untraced = run(workload, false);
        check(&untraced, &END_TO_END, workload.name());
        for metric in &END_TO_END {
            let value = untraced
                .get("metrics")
                .and_then(|m| m.get(metric.name))
                .and_then(|e| e.get("value"))
                .and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{} {} is never 0",
                workload.name(),
                metric.name
            );
        }
        check(&run(workload, true), &PER_LAYER, workload.name());
    }
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["run", "--workload", "nope", "--seed", "1"][..],
        &["run", "--seed", "1"],
        &["run", "--workload", "grid_fast", "--seed", "1", "--trace", "2"],
        &["frobnicate"],
        &[],
    ] {
        let status =
            Command::new(env!("CARGO_BIN_EXE_perf")).args(args).output().expect("runs").status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
