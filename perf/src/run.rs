//! `perf run`: measure one workload in a fresh child process, check its
//! outputs, and print every metric.
//!
//! The child is this binary again (`perf child …`), started with
//! `COMET_KERNELS` and `COMET_THREADS` removed from its environment, so it
//! runs the program's defaults at the host's core count, and so peak RSS
//! and the process-wide state (spill pool, metrics registry, fan-out
//! budget, kernel tier) start fresh for every measurement. A traced run
//! starts two children with the same seed — one untraced, one traced — and
//! requires their trace fingerprints to be equal.

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::{Observations, Plan, Workload, DEFAULT_SECONDS};
use crate::{grid, oocore, serve};
use comet_obs::json::{self, JsonObject, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Where children keep spill files and the daemon's store, relative to the
/// working directory. Each child uses (and removes) its own subdirectory.
const WORK_ROOT: &str = ".perf_work";
const CHILD_TAG: &str = "PERF_CHILD ";

/// Arguments of `perf run` (and of the internal `perf child`).
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload to measure.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Directory for the run file, spans and layer self times.
    pub out: Option<PathBuf>,
    /// Toy sizes.
    pub smoke: bool,
}

impl RunArgs {
    /// Parse `--workload W --seed N [--seconds S] [--trace 0|1] [--out DIR]
    /// [--smoke]`.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = None;
        let mut parsed = RunArgs {
            workload: Workload::GridFast,
            seed: 0,
            seconds: DEFAULT_SECONDS,
            trace: false,
            out: None,
            smoke: false,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    parsed.seconds = s;
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                "--out" => parsed.out = Some(PathBuf::from(value()?)),
                "--smoke" => parsed.smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        parsed.seed = seed.ok_or("--seed is required")?;
        Ok(parsed)
    }

    fn file_stem(&self) -> String {
        format!("{}-s{}", self.workload.name(), self.seed)
    }
}

/// What a child reports back.
#[derive(Debug, Default)]
struct ChildReport {
    trace_fp: String,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    samples: BTreeMap<String, u64>,
    meta: BTreeMap<String, String>,
}

/// `perf child`: run the workload in this process, print one report line.
pub fn child(args: &RunArgs) -> ExitCode {
    let work_dir =
        Path::new(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perf: {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        traced: args.trace,
        work_dir: work_dir.clone(),
    };
    let mut obs = Observations::default();
    let result = match args.workload {
        Workload::GridFast => grid::run(&grid::FAST, &plan, &mut obs),
        Workload::GridSlow => grid::run(&grid::SLOW, &plan, &mut obs),
        Workload::Oocore => oocore::run(&plan, &mut obs),
        Workload::ServeMixed => serve::run(&plan, &mut obs),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Err(e) = result {
        eprintln!("perf: {}: {e}", args.workload.name());
        return ExitCode::from(1);
    }
    if let (Some(out), Some(tracer)) = (&args.out, &obs.tracer) {
        let stem = args.file_stem();
        let mut self_times = JsonObject::new();
        for (name, s) in tracer.self_times() {
            self_times.field_f64(name, s);
        }
        let written = std::fs::create_dir_all(out)
            .and_then(|()| {
                std::fs::write(out.join(format!("{stem}.spans.jsonl")), tracer.to_jsonl())
            })
            .and_then(|()| {
                std::fs::write(out.join(format!("{stem}.layers.json")), self_times.finish() + "\n")
            });
        if let Err(e) = written {
            eprintln!("perf: writing spans to {}: {e}", out.display());
            return ExitCode::from(1);
        }
    }
    println!("{CHILD_TAG}{}", child_json(&mut obs));
    ExitCode::SUCCESS
}

fn child_json(obs: &mut Observations) -> String {
    let metrics = obs.end_to_end();
    let sessions = obs.latency_s.len();
    let mut out = JsonObject::new();
    out.field_str("trace_fp", &format!("{:016x}", obs.trace_fingerprint()))
        .field_u64("attempted", obs.attempted)
        .field_u64("failed", obs.failed);
    let problems: Vec<String> =
        obs.problems.iter().map(|p| JsonValue::Str(p.clone()).to_string()).collect();
    out.field_raw("problems", &format!("[{}]", problems.join(",")));
    let mut m = JsonObject::new();
    for (name, value) in &metrics {
        m.field_f64(name, *value);
    }
    out.field_raw("metrics", &m.finish());
    let mut l = JsonObject::new();
    for (name, value) in &obs.layers {
        l.field_f64(name, *value);
    }
    out.field_raw("layers", &l.finish());
    let mut s = JsonObject::new();
    for (name, n) in &obs.samples {
        s.field_u64(name, *n as u64);
    }
    out.field_u64("sessions", sessions as u64);
    out.field_raw("samples", &s.finish());
    let mut meta = JsonObject::new();
    meta.field_str("threads", &comet_par::max_threads().to_string())
        .field_str("kernel_tier", comet_ml::kernels::tier().name())
        .field_str("f32_probes", &comet_core::CometConfig::default().f32_probes.to_string());
    out.field_raw("meta", &meta.finish());
    out.finish()
}

fn parse_child(line: &str) -> Result<ChildReport, String> {
    let doc = json::parse(line)?;
    let num = |v: &JsonValue| v.as_f64().unwrap_or(f64::NAN);
    let map = |key: &str| -> BTreeMap<String, f64> {
        doc.get(key)
            .and_then(JsonValue::as_obj)
            .map(|fields| fields.iter().map(|(k, v)| (k.clone(), num(v))).collect())
            .unwrap_or_default()
    };
    let mut report = ChildReport {
        trace_fp: doc.get("trace_fp").and_then(JsonValue::as_str).unwrap_or("").to_string(),
        attempted: doc.get("attempted").map_or(0.0, num) as u64,
        failed: doc.get("failed").map_or(0.0, num) as u64,
        metrics: map("metrics"),
        layers: map("layers"),
        samples: map("samples").into_iter().map(|(k, v)| (k, v as u64)).collect(),
        ..ChildReport::default()
    };
    if let Some(JsonValue::Arr(items)) = doc.get("problems") {
        report.problems = items.iter().filter_map(|p| p.as_str().map(str::to_string)).collect();
    }
    if let Some(fields) = doc.get("meta").and_then(JsonValue::as_obj) {
        for (k, v) in fields {
            report.meta.insert(k.clone(), v.as_str().unwrap_or("").to_string());
        }
    }
    let sessions = doc.get("sessions").map_or(0.0, num) as u64;
    report.meta.insert("sessions".into(), sessions.to_string());
    Ok(report)
}

fn spawn_child(args: &RunArgs, traced: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env_remove("COMET_KERNELS")
        .env_remove("COMET_THREADS")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    let child = cmd.spawn().map_err(|e| format!("starting the measured process: {e}"))?;
    let pid = child.id();
    let output = child.wait_with_output().map_err(|e| format!("waiting for it: {e}"))?;
    // A child that died early leaves its scratch directory behind.
    let _ = std::fs::remove_dir_all(
        Path::new(WORK_ROOT).join(format!("{}-{pid}", args.workload.name())),
    );
    let _ = std::fs::remove_dir(WORK_ROOT);
    if !output.status.success() {
        return Err(format!("the measured process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(CHILD_TAG))
        .ok_or("the measured process printed no report")?;
    parse_child(line)
}

/// The commit of a git checkout in the working directory, read from
/// `.git` directly (no `git` process, nothing outside the directory).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs").ok()?.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// `perf run`.
pub fn run(args: &RunArgs) -> ExitCode {
    let untraced = match spawn_child(args, false) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perf: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let mut problems = untraced.problems.clone();
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let (catalog, values, samples, meta): (&[Metric], _, _, _) = if args.trace {
        let traced = match spawn_child(args, true) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perf: {} (traced): {e}", args.workload.name());
                return ExitCode::from(1);
            }
        };
        if traced.trace_fp != untraced.trace_fp {
            problems.push(format!(
                "tracing changed the sessions' traces: fingerprint {} untraced, {} traced",
                untraced.trace_fp, traced.trace_fp
            ));
        }
        problems.extend(traced.problems.iter().cloned());
        attempted += traced.attempted;
        failed += traced.failed;
        let mut layers = traced.layers.clone();
        let wall = |r: &ChildReport| r.metrics.get("wall_s").copied().unwrap_or(f64::NAN);
        layers.insert("trace.overhead_frac".into(), wall(&traced) / wall(&untraced) - 1.0);
        let sessions: u64 = traced.meta.get("sessions").and_then(|s| s.parse().ok()).unwrap_or(0);
        let mut samples: BTreeMap<String, u64> =
            PER_LAYER.iter().map(|m| (m.name.to_string(), sessions)).collect();
        samples.insert("trace.overhead_frac".into(), 2);
        (&PER_LAYER[..], layers, samples, traced.meta)
    } else {
        (&END_TO_END[..], untraced.metrics.clone(), untraced.samples.clone(), untraced.meta.clone())
    };

    let correct = problems.is_empty();
    let mut metrics = JsonObject::new();
    let mut sample_counts = JsonObject::new();
    println!(
        "perf {} seed {}: {} sessions, {} threads on {} cores, kernels {}, f32 probes {}",
        args.workload.name(),
        args.seed,
        meta.get("sessions").map_or("?", String::as_str),
        meta.get("threads").map_or("?", String::as_str),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        meta.get("kernel_tier").map_or("?", String::as_str),
        meta.get("f32_probes").map_or("?", String::as_str),
    );
    for metric in catalog {
        let value = values.get(metric.name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let n = samples.get(metric.name).copied().unwrap_or(1);
        // A tail percentile needs ten samples beyond it; say when it lacks them.
        let percentile = match metric.name {
            "serve.latency_s.p50" => Some(0.5),
            "serve.latency_s.p80" => Some(0.8),
            _ => None,
        };
        let short = percentile.is_some_and(|q| !stats::tail_supported(n as usize, q));
        let note = if short { ", fewer than 10 beyond" } else { "" };
        println!("  {:<32} {:>14.6} {:<6} ({n} samples{note})", metric.name, value, metric.unit);
        let mut entry = JsonObject::new();
        entry.field_f64("value", value).field_str("unit", metric.unit);
        metrics.field_raw(metric.name, &entry.finish());
        sample_counts.field_u64(metric.name, n);
    }
    for p in &problems {
        println!("  CHECK FAILED: {p}");
    }
    let mut result = JsonObject::new();
    result
        .field_raw("correct", if correct { "true" } else { "false" })
        .field_u64("attempted", attempted.max(1))
        .field_u64("failed", failed)
        .field_raw("metrics", &metrics.finish());
    let result = result.finish();

    if let Some(out) = &args.out {
        let mut info = JsonObject::new();
        info.field_u64("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as u64);
        for (k, v) in &meta {
            info.field_str(k, v);
        }
        info.field_str("git_commit", git_commit().as_deref().unwrap_or("unknown"));
        info.field_raw("samples", &sample_counts.finish());
        let problem_list: Vec<String> =
            problems.iter().map(|p| JsonValue::Str(p.clone()).to_string()).collect();
        let mut doc = JsonObject::new();
        doc.field_str("workload", args.workload.name())
            .field_u64("seed", args.seed)
            .field_f64("seconds", args.seconds)
            .field_raw("trace", if args.trace { "true" } else { "false" })
            .field_raw("smoke", if args.smoke { "true" } else { "false" })
            .field_raw("meta", &info.finish())
            .field_raw("problems", &format!("[{}]", problem_list.join(",")))
            .field_raw("result", &result);
        let suffix = if args.trace { "trace.json" } else { "json" };
        let path = out.join(format!("{}.{suffix}", args.file_stem()));
        if let Err(e) =
            std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, doc.finish() + "\n"))
        {
            eprintln!("perf: {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
