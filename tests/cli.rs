//! End-to-end tests of the `comet` CLI binary: pollute a CSV, evaluate it,
//! run a budgeted recommendation session, and check the emitted artifacts.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn comet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_comet"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet_cli_it_{tag}"));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small separable dataset of `rows` rows written as CSV.
fn write_clean_csv(path: &PathBuf, rows: usize) {
    let mut csv = String::from("f1,f2,cat,y\n");
    // Deterministic pseudo-random but separable data.
    for i in 0..rows {
        let c = i % 2;
        let jitter = ((i * 37) % 101) as f64 / 101.0 - 0.5;
        let f1 = if c == 0 { -2.0 } else { 2.0 } + jitter;
        let f2 = ((i * 13) % 17) as f64 / 17.0;
        let cat = if c == 0 { "a" } else { "b" };
        let label = if c == 0 { "no" } else { "yes" };
        csv.push_str(&format!("{f1:.4},{f2:.4},{cat},{label}\n"));
    }
    fs::write(path, csv).unwrap();
}

#[test]
fn pollute_then_evaluate_then_recommend() {
    let dir = temp_dir("full");
    let clean = dir.join("clean.csv");
    let dirty = dir.join("dirty.csv");
    let trace = dir.join("trace.csv");
    write_clean_csv(&clean, 240);

    // pollute
    let out = comet()
        .args([
            "pollute",
            "--input",
            clean.to_str().unwrap(),
            "--label",
            "y",
            "--error",
            "mv",
            "--level",
            "0.3",
            "--output",
            dirty.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "pollute failed: {}", String::from_utf8_lossy(&out.stderr));
    let dirty_text = fs::read_to_string(&dirty).unwrap();
    assert!(dirty_text.contains(",,"), "dirty CSV should contain empty (missing) fields");

    // evaluate both versions; the dirty one must not crash and both report F1.
    for file in [&clean, &dirty] {
        let out = comet()
            .args(["evaluate", "--input", file.to_str().unwrap(), "--label", "y"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("F1"), "{stdout}");
    }

    // recommend with a tiny budget, writing the trace CSV.
    let out = comet()
        .args([
            "recommend",
            "--dirty",
            dirty.to_str().unwrap(),
            "--clean",
            clean.to_str().unwrap(),
            "--label",
            "y",
            "--budget",
            "4",
            "--step",
            "0.03",
            "--trace",
            trace.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "recommend failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dirty F1"), "{stdout}");
    assert!(stdout.contains("budget units"), "{stdout}");
    let trace_text = fs::read_to_string(&trace).unwrap();
    assert!(trace_text.starts_with("iteration,feature,error_type"));
    assert!(trace_text.lines().count() >= 2, "trace must contain steps");

    // Same run again with --metrics-out: the journal must be valid JSONL
    // and the trace byte-identical (metrics only observe).
    let trace2 = dir.join("trace_metrics.csv");
    let journal = dir.join("run.jsonl");
    let out = comet()
        .args([
            "recommend",
            "--dirty",
            dirty.to_str().unwrap(),
            "--clean",
            clean.to_str().unwrap(),
            "--label",
            "y",
            "--budget",
            "4",
            "--step",
            "0.03",
            "--trace",
            trace2.to_str().unwrap(),
            "--metrics-out",
            journal.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "recommend failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("metrics report"), "{stdout}");
    assert!(stdout.contains("metrics journal written"), "{stdout}");
    assert_eq!(
        trace_text,
        fs::read_to_string(&trace2).unwrap(),
        "metrics must not change the trace",
    );

    let journal_text = fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = journal_text.lines().collect();
    assert!(lines.len() >= 2, "journal needs iteration records and a summary:\n{journal_text}");
    for (i, line) in lines.iter().enumerate() {
        let value = comet::obs::json::parse(line)
            .unwrap_or_else(|e| panic!("journal line {i} must parse ({e}): {line}"));
        let kind = value.get("kind").and_then(|k| k.as_str()).map(str::to_string);
        if i + 1 < lines.len() {
            assert_eq!(kind.as_deref(), Some("iteration"), "line {i}: {line}");
            let phases = value.get("phases").expect("iteration records carry phases");
            for phase in comet::core::PHASES {
                assert!(phases.get(phase).is_some(), "line {i} missing phase {phase}");
            }
        } else {
            assert_eq!(kind.as_deref(), Some("summary"), "last line: {line}");
            assert!(value.get("phase_totals").is_some());
            assert!(value.get("registry").is_some());
        }
    }

    fs::remove_dir_all(dir).ok();
}

#[test]
fn unknown_command_and_missing_flags_fail_cleanly() {
    let out = comet().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = comet().args(["pollute", "--input", "x.csv"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required flag"));

    let out = comet().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn recommend_rejects_bad_numeric_flags_without_panicking() {
    let dir = temp_dir("bad_numbers");
    let clean = dir.join("clean.csv");
    write_clean_csv(&clean, 240);
    let path = clean.to_str().unwrap();
    for (flag, value, field) in [
        ("--budget", "nan", "budget"),
        ("--budget", "inf", "budget"),
        ("--budget", "-1", "budget"),
        ("--step", "0", "step_frac"),
    ] {
        let out = comet()
            .args(["recommend", "--dirty", path, "--clean", path, "--label", "y", flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains("error: invalid configuration:"), "{flag} {value}: {stderr}");
        assert!(stderr.contains(field), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
    fs::remove_dir_all(dir).ok();
}

#[test]
fn recommend_rejects_shape_mismatch() {
    let dir = temp_dir("mismatch");
    let a = dir.join("a.csv");
    let b = dir.join("b.csv");
    fs::write(&a, "x,y\n1.0,no\n2.0,yes\n3.0,no\n4.0,yes\n").unwrap();
    fs::write(&b, "x,y\n1.0,no\n2.0,yes\n").unwrap();
    let out = comet()
        .args([
            "recommend",
            "--dirty",
            a.to_str().unwrap(),
            "--clean",
            b.to_str().unwrap(),
            "--label",
            "y",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("identical shapes"));
    fs::remove_dir_all(dir).ok();
}

#[test]
fn help_prints_usage() {
    let out = comet().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("comet pollute"));
    assert!(stdout.contains("comet recommend"));
}

#[test]
fn misspelt_flags_are_rejected() {
    for (args, message) in [
        (&["evaluate", "--input", "x.csv", "--algorithm", "gb"][..], "--algorithm for evaluate"),
        (&["recommend", "--dirty", "d.csv", "--budgte", "1"], "--budgte for recommend"),
        (&["pollute", "--sed", "3"], "--sed for pollute"),
        (&["client", "status", "--sesion", "s00000001"], "--sesion for client"),
    ] {
        let out = comet().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {message}")), "{args:?}: {stderr}");
    }
}

#[test]
fn no_feature_cache_flag_is_gone() {
    // Refused as a flag, not silently taken with `--seed` as its value.
    let out = comet()
        .args(["recommend", "--no-feature-cache", "--seed", "5", "--label", "y"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag --no-feature-cache for recommend"), "{stderr}");
}

/// A categorical shift that changes which `cat` label comes first makes
/// the dirty CSV number its categories differently from the clean one. The
/// session must still compare, and restore, cells by label.
#[test]
fn recommend_compares_categories_by_label_across_dictionaries() {
    let dir = temp_dir("dictionaries");
    let (clean, dirty, trace) =
        (dir.join("clean.csv"), dir.join("dirty.csv"), dir.join("trace.csv"));
    write_clean_csv(&clean, 160);
    let run = |args: &[&str]| {
        let out = comet().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let path = |p: &PathBuf| p.to_str().unwrap().to_string();
    let (clean_s, dirty_s, trace_s) = (path(&clean), path(&dirty), path(&trace));
    let out = run(&[
        "pollute", "--input", &clean_s, "--label", "y", "--error", "cs", "--level", "0.3",
        "--output", &dirty_s, "--seed", "4",
    ]);
    assert!(out.contains("polluted 48 cells"), "{out}");
    // The first row's `a` became `b`, so the dirty dictionary is [b, a].
    let first = fs::read_to_string(&dirty).unwrap().lines().nth(1).unwrap().to_string();
    assert!(first.ends_with(",b,no"), "{first}");
    run(&[
        "recommend",
        "--dirty",
        &dirty_s,
        "--clean",
        &clean_s,
        "--label",
        "y",
        "--budget",
        "12",
        "--step",
        "0.05",
        "--seed",
        "5",
        "--algo",
        "svm",
        "--trace",
        &trace_s,
    ]);
    let trace = fs::read_to_string(&trace).unwrap();
    let mut cleaned = 0;
    for line in trace.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!((fields[1], fields[2]), ("cat", "CS"), "{trace}");
        cleaned += fields[9].parse::<usize>().unwrap();
    }
    // Exactly the polluted cells, after which the session runs out of dirt.
    assert_eq!(cleaned, 48, "{trace}");
    fs::remove_dir_all(dir).ok();
}
