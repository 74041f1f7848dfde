//! `comet` — command-line interface to the COMET toolkit.
//!
//! ```text
//! comet pollute   --input data.csv --label y --error mv --level 0.2 --output dirty.csv
//! comet evaluate  --input data.csv --label y --algo knn
//! comet recommend --dirty dirty.csv --clean clean.csv --label y --algo knn --budget 10
//! comet serve     --root store/ --workers 2 --port-file port.txt
//! comet client start --port-file port.txt --dirty FP --clean FP --label y
//! ```
//!
//! * `pollute` injects one error type at a given level into every applicable
//!   feature — handy for building test fixtures.
//! * `evaluate` splits a CSV, tunes the chosen model, and reports F1.
//! * `recommend` runs a full COMET session against a dirty/clean CSV pair
//!   (the clean file is the simulated Cleaner's ground truth) and prints
//!   the step-by-step cleaning recommendations plus a summary; the trace is
//!   optionally written as CSV via `--trace out.csv`, and `--metrics-out
//!   run.jsonl` enables the `comet-obs` registry for the run and streams a
//!   JSONL journal (one record per iteration with per-phase durations and
//!   counters, one summary record at exit) plus a metrics report.
//!   `--checkpoint ckpt.jsonl` records a resumable checkpoint every
//!   iteration; add `--resume` to continue a killed run bit-identically
//!   (DESIGN.md §9).
//! * `serve` runs the multi-tenant session daemon (DESIGN.md §14): it
//!   hosts uploaded datasets and queued cleaning sessions, survives
//!   `kill -9` (interrupted sessions resume bit-identically from their
//!   checkpoints on restart), and blocks until a client sends `drain`.
//! * `client` is the matching wire client, one request per invocation; it
//!   prints the daemon's JSON response, and `--retry N` honours the
//!   server's backoff hints on retryable rejections.

use comet::core::{build_paired_env, CheckpointSpec, CleaningSession, CometConfig};
use comet::frame::{read_csv, write_csv};
use comet::jenga::{inject, sample_rows, ErrorType};
use comet::ml::{Algorithm, RandomSearch};
use comet::obs::json::JsonObject;
use comet::serve::{Client, Daemon, ServeConfig, ServeFault, ServeFaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  comet pollute   --input FILE --label COL --error mv|gn|cs|s --level FRAC --output FILE [--seed N]
  comet evaluate  --input FILE --label COL [--algo NAME] [--seed N] [--segment-rows N]
  comet recommend --dirty FILE --clean FILE --label COL [--algo NAME] [--budget N]
                  [--step FRAC] [--trace FILE]
                  [--checkpoint FILE [--resume]] [--metrics-out FILE]
                  [--kernels scalar|simd] [--f32-probes]
                  [--detect [--detectors LIST]] [--seed N]
                  [--segment-rows N] [--memory-budget BYTES]

  comet serve     --root DIR [--workers N] [--max-queued N] [--tenant-cap N]
                  [--backoff-ms N] [--port N] [--port-file FILE]
                  [--kernels scalar|simd] [--metrics-out FILE]
                  [--report-every-secs N] [--inject-fault SPEC[,SPEC...]]
                  [--segment-rows N] [--memory-budget BYTES]
  comet client ACTION [--port N | --port-file FILE] [--retry N] ...
                  ping | stats | drain
                  upload  --file FILE
                  start   --dirty FP --label COL [--clean FP] [--algo NAME]
                          [--budget N] [--seed N] [--tenant NAME] [--detect]
                          [--deadline-ms N]
                  status  --session ID
                  results --session ID [--from N]
                  cancel  --session ID

  --detect      seed candidates from the built-in detector ensemble instead
                of the dirty/clean provenance diff (the oracle); --detectors
                narrows the ensemble (comma list, e.g. missing-sentinel,iqr;
                default all)
  --segment-rows N      rows per column segment (default 65536; 0 = whole
                column). Traces are bit-identical across sizes.
  --memory-budget BYTES cap resident segment bytes; cold segments spill to
                disk (LRU, content-addressed). Accepts K/M/G suffixes,
                e.g. 512M
  A flag not on the command's usage line is an error.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "pollute" => cmd_pollute(rest),
        "evaluate" => cmd_evaluate(rest),
        "recommend" => cmd_recommend(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["resume", "f32-probes", "detect"];

/// The flags each command accepts: exactly those on its usage line
/// (`client` takes the union over its actions).
const POLLUTE_FLAGS: &str = "input label error level output seed";
const EVALUATE_FLAGS: &str = "input label algo seed segment-rows";
const RECOMMEND_FLAGS: &str = "dirty clean label algo budget step trace checkpoint resume \
    metrics-out kernels f32-probes detect detectors seed segment-rows memory-budget";
const SERVE_FLAGS: &str = "root workers max-queued tenant-cap backoff-ms port port-file \
    kernels metrics-out report-every-secs inject-fault segment-rows memory-budget";
const CLIENT_FLAGS: &str = "port port-file retry file dirty clean label algo budget seed \
    tenant detect deadline-ms session from";

/// Parse `--key value` pairs (and valueless [`BOOL_FLAGS`]). A flag not in
/// the space-separated `known` list is an error naming `command`, before
/// it can swallow the next argument as its value.
fn parse_flags(
    command: &str,
    known: &str,
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut iter = args.iter();
    while let Some(key) = iter.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got {key:?}"));
        };
        if !known.split_whitespace().any(|flag| flag == name) {
            return Err(format!("unknown flag --{name} for {command}"));
        }
        if BOOL_FLAGS.contains(&name) {
            out.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(String::as_str).ok_or_else(|| format!("missing required flag --{name}"))
}

fn seed_of(flags: &HashMap<String, String>) -> Result<u64, String> {
    flags.get("seed").map_or(Ok(42), |s| s.parse().map_err(|e| format!("--seed: {e}")))
}

/// `--detect [--detectors LIST]` → the session's detector configuration.
/// `--detectors` without `--detect` is rejected rather than ignored.
fn parse_detect(
    flags: &HashMap<String, String>,
) -> Result<Option<comet::detect::DetectorConfig>, String> {
    let enabled = flags.contains_key("detect");
    match flags.get("detectors") {
        Some(list) => {
            if !enabled {
                return Err("--detectors requires --detect".into());
            }
            let set = comet::detect::DetectorSet::parse(list)
                .ok_or_else(|| format!("unknown detector in {list:?}"))?;
            if set.is_empty() {
                return Err("--detectors must enable at least one detector".into());
            }
            Ok(Some(comet::detect::DetectorConfig {
                enabled: set,
                ..comet::detect::DetectorConfig::default()
            }))
        }
        None if enabled => Ok(Some(comet::detect::DetectorConfig::default())),
        None => Ok(None),
    }
}

/// `--segment-rows N` → rows per column segment (`0` = whole-column,
/// absent = the config default).
fn segment_rows_of(flags: &HashMap<String, String>) -> Result<usize, String> {
    flags.get("segment-rows").map_or(Ok(CometConfig::default().segment_rows), |s| {
        s.parse().map_err(|e| format!("--segment-rows: {e}"))
    })
}

/// Parse a byte size: a plain integer, optionally with a binary K/M/G
/// suffix (`512M` = 512 × 2²⁰).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, shift) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.trim().parse().map_err(|e| format!("bad byte size {s:?}: {e}"))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("byte size {s:?} overflows u64"))
}

fn algo_of(flags: &HashMap<String, String>) -> Result<Algorithm, String> {
    match flags.get("algo") {
        None => Ok(Algorithm::Knn),
        Some(name) => Algorithm::parse(name).ok_or_else(|| format!("unknown algorithm {name:?}")),
    }
}

fn cmd_pollute(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("pollute", POLLUTE_FLAGS, args)?;
    let input = required(&flags, "input")?;
    let label = required(&flags, "label")?;
    let output = required(&flags, "output")?;
    let error = ErrorType::parse(required(&flags, "error")?)
        .ok_or("unknown error type (use mv|gn|cs|s)")?;
    let level: f64 = required(&flags, "level")?.parse().map_err(|e| format!("--level: {e}"))?;
    if !(0.0..=1.0).contains(&level) {
        return Err("--level must be in [0, 1]".into());
    }
    let mut rng = StdRng::seed_from_u64(seed_of(&flags)?);

    let mut df = read_csv(input, Some(label)).map_err(|e| format!("{input}: {e}"))?;
    let n = df.nrows();
    let cells = (level * n as f64).round() as usize;
    let mut touched = 0usize;
    for col in df.feature_indices() {
        let kind = df.column(col).map_err(|e| e.to_string())?.kind();
        if !error.applicable(kind) {
            continue;
        }
        let rows = sample_rows(n, cells, &mut rng);
        let rec = inject(&mut df, col, &rows, error, &mut rng).map_err(|e| e.to_string())?;
        touched += rec.changed.len();
    }
    write_csv(&df, output).map_err(|e| e.to_string())?;
    println!("polluted {touched} cells with {error}; wrote {output}");
    Ok(())
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("evaluate", EVALUATE_FLAGS, args)?;
    let input = required(&flags, "input")?;
    let label = required(&flags, "label")?;
    let algorithm = algo_of(&flags)?;
    let mut rng = StdRng::seed_from_u64(seed_of(&flags)?);

    let df = read_csv(input, Some(label)).map_err(|e| format!("{input}: {e}"))?;
    let segment_rows = segment_rows_of(&flags)?;
    let env = build_paired_env(
        df,
        None,
        algorithm,
        0.01,
        RandomSearch::default(),
        7,
        segment_rows,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let f1 = env.evaluate().map_err(|e| e.to_string())?;
    println!(
        "{algorithm} on {input}: F1 {f1:.4} ({} train / {} test rows, {} features)",
        env.train().nrows(),
        env.test().nrows(),
        env.feature_cols().len()
    );
    Ok(())
}

fn cmd_recommend(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("recommend", RECOMMEND_FLAGS, args)?;
    let dirty_path = required(&flags, "dirty")?;
    let clean_path = required(&flags, "clean")?;
    let label = required(&flags, "label")?;
    let algorithm = algo_of(&flags)?;
    let budget: f64 = flags
        .get("budget")
        .map_or(Ok(20.0), |s| s.parse().map_err(|e| format!("--budget: {e}")))?;
    let step: f64 =
        flags.get("step").map_or(Ok(0.01), |s| s.parse().map_err(|e| format!("--step: {e}")))?;
    let kernels = match flags.get("kernels") {
        None => CometConfig::default().kernels,
        Some(name) => comet::ml::kernels::KernelTier::parse(name)
            .ok_or_else(|| format!("unknown kernel tier {name:?} (use scalar|simd)"))?,
    };
    let config = CometConfig {
        budget,
        kernels,
        f32_probes: flags.contains_key("f32-probes"),
        detect: parse_detect(&flags)?,
        segment_rows: segment_rows_of(&flags)?,
        ..CometConfig::default()
    };
    // Checked before any I/O: `CleaningSession::new` panics on an invalid
    // config, and a bad flag must fail as a message, not a crash.
    config.validate().map_err(|e| format!("invalid configuration: {e}"))?;
    if !(step > 0.0 && step <= 1.0) {
        return Err(format!("invalid configuration: step_frac must be in (0,1], got {step}"));
    }
    // Which error types does the dirt look like? Oracle mode runs the
    // paper's four (the provenance derived from the diff uses those
    // heuristically). Detection mode runs the full extended taxonomy: the
    // ensemble attributes families like outliers and near-duplicates that
    // the diff heuristic never emits.
    let errors = if config.detect.is_some() {
        ErrorType::EXTENDED.to_vec()
    } else {
        ErrorType::ALL.to_vec()
    };
    let resume = flags.contains_key("resume");
    let checkpoint =
        flags.get("checkpoint").map(|path| CheckpointSpec { path: path.into(), resume });
    if resume && checkpoint.is_none() {
        return Err("--resume requires --checkpoint FILE".into());
    }
    // A checkpoint that cannot resume is refused before the CSVs are read
    // and the model is tuned; the session checks the rest of its identity.
    if let Some(spec) = &checkpoint {
        spec.preflight(&config, &errors).map_err(|e| e.to_string())?;
    }
    let mut rng = StdRng::seed_from_u64(seed_of(&flags)?);

    // `--memory-budget` arms the spill tier before the CSVs stream in, so
    // even the initial load stays under the cap. The spill directory lives
    // next to the checkpoint when one is given (it survives a kill and the
    // resume finds the same content-addressed files), else under the OS
    // temp dir.
    let memory_budget = flags.get("memory-budget").map(|s| parse_bytes(s)).transpose()?;
    if let Some(budget) = memory_budget {
        let dir = match flags.get("checkpoint") {
            Some(ckpt) => std::path::Path::new(ckpt)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .unwrap_or_else(|| std::path::Path::new("."))
                .join("comet-spill"),
            None => std::env::temp_dir().join(format!("comet-spill-{}", std::process::id())),
        };
        comet::frame::spill_configure(&dir, budget)
            .map_err(|e| format!("--memory-budget: cannot open spill dir: {e}"))?;
    }

    let dirty = read_csv(dirty_path, Some(label)).map_err(|e| format!("{dirty_path}: {e}"))?;
    let clean = read_csv(clean_path, Some(label)).map_err(|e| format!("{clean_path}: {e}"))?;

    // The shared front-end path: `comet-core::build_paired_env` splits,
    // derives the provenance oracle, and assembles the environment exactly
    // the way the `comet-serve` daemon does, so a CLI run and a served run
    // with the same seed produce bit-identical traces.
    let mut env = build_paired_env(
        dirty,
        Some(clean),
        algorithm,
        step,
        RandomSearch::default(),
        7,
        config.segment_rows,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    if let Some(budget) = memory_budget {
        // Derived feature blocks get a quarter of the budget; they are
        // dropped (recomputed from segments), never spilled.
        env.set_feature_cache_budget((budget / 4).max(1) as usize);
    }
    // `--metrics-out` turns on the observability registry for this run and
    // streams the JSONL journal to the given path while the session runs.
    let metrics_out = flags.get("metrics-out");
    if let Some(path) = metrics_out {
        let file = std::fs::File::create(path).map_err(|e| format!("--metrics-out: {e}"))?;
        comet::obs::reset();
        comet::obs::set_enabled(true);
        comet::obs::journal::set_sink(Some(Box::new(std::io::BufWriter::new(file))));
    }

    let mut session = CleaningSession::new(config, errors);
    if let Some(spec) = checkpoint {
        session = session.with_checkpoint(spec);
    }
    let outcome = session.run(&mut env, &mut rng).map_err(|e| e.to_string())?;
    println!("dirty F1: {:.4}", outcome.trace.initial_f1);

    if let Some(path) = metrics_out {
        if let Some(metrics) = &outcome.metrics {
            comet::obs::journal::emit(&metrics.summary_json());
            print!("{}", metrics.report());
        }
        // `take_sink` flushes and surfaces any write error the journal
        // swallowed mid-run — a silently truncated journal should not
        // report success.
        let (_sink, flush_error) = comet::obs::journal::take_sink();
        comet::obs::set_enabled(false);
        match flush_error {
            Some(e) => eprintln!("warning: metrics journal {path} may be incomplete: {e}"),
            None => println!("metrics journal written to {path}"),
        }
    }
    let trace = outcome.trace;

    for r in &trace.records {
        let feature = env
            .train()
            .column(r.col)
            .map(|c| c.name().to_string())
            .unwrap_or_else(|_| format!("#{}", r.col));
        println!(
            "  [{:>3}] {feature:<16} {:<4} cost {:>4.1}  F1 {:.4}  {}",
            r.iteration,
            r.err.abbrev(),
            r.cost,
            r.actual_f1,
            r.action.label(),
        );
    }
    for f in &trace.failures {
        println!(
            "  [{:>3}] candidate (#{}, {}) failed after {} retries: {}",
            f.iteration,
            f.col,
            f.err.abbrev(),
            f.retries,
            f.reason,
        );
    }
    print!("{}", trace.summary());
    if config.detect.is_some() {
        // Harness-side diagnostics: how well the ensemble tracked the
        // dirty/clean diff (COMET itself never saw these numbers).
        if let Ok(scores) = env.detector_scores() {
            println!("detector precision/recall vs the dirty/clean diff (train split):");
            for s in scores {
                println!(
                    "  {:<20} flagged {:>5}  P {:.3}  R {:.3}",
                    s.detector.name(),
                    s.flagged,
                    s.precision,
                    s.recall,
                );
            }
        }
    }
    if let Some(path) = flags.get("trace") {
        std::fs::write(path, trace.to_csv(Some(env.train()))).map_err(|e| e.to_string())?;
        println!("trace written to {path}");
    }
    if memory_budget.is_some() {
        if let Some(s) = comet::frame::spill_stats() {
            println!(
                "spill tier: {} spills / {} reloads, {} segments resident \
                 ({:.1} MiB resident, {:.1} MiB on disk)",
                s.spills,
                s.reloads,
                s.resident_segments,
                s.resident_bytes as f64 / (1u64 << 20) as f64,
                s.spill_bytes as f64 / (1u64 << 20) as f64,
            );
        }
        comet::frame::spill_deconfigure();
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("serve", SERVE_FLAGS, args)?;
    let mut config =
        ServeConfig { root: required(&flags, "root")?.into(), ..ServeConfig::default() };
    if let Some(v) = flags.get("workers") {
        config.workers = v.parse().map_err(|e| format!("--workers: {e}"))?;
    }
    if let Some(v) = flags.get("max-queued") {
        config.admission.max_queued = v.parse().map_err(|e| format!("--max-queued: {e}"))?;
    }
    if let Some(v) = flags.get("tenant-cap") {
        config.admission.per_tenant_cap = v.parse().map_err(|e| format!("--tenant-cap: {e}"))?;
    }
    if let Some(v) = flags.get("backoff-ms") {
        config.admission.base_backoff_ms = v.parse().map_err(|e| format!("--backoff-ms: {e}"))?;
    }
    if let Some(v) = flags.get("port") {
        config.port = v.parse().map_err(|e| format!("--port: {e}"))?;
    }
    if let Some(v) = flags.get("report-every-secs") {
        let secs: u64 = v.parse().map_err(|e| format!("--report-every-secs: {e}"))?;
        config.report_every = std::time::Duration::from_secs(secs);
    }
    if let Some(name) = flags.get("kernels") {
        config.kernels = comet::ml::kernels::KernelTier::parse(name)
            .ok_or_else(|| format!("unknown kernel tier {name:?} (use scalar|simd)"))?;
    }
    if let Some(list) = flags.get("inject-fault") {
        let specs: Vec<ServeFault> =
            list.split(',').map(ServeFault::parse).collect::<Result<_, _>>()?;
        config.faults = ServeFaultPlan::new(specs);
    }
    if flags.contains_key("segment-rows") {
        config.segment_rows = segment_rows_of(&flags)?;
    }
    if let Some(s) = flags.get("memory-budget") {
        config.memory_budget = Some(parse_bytes(s)?);
    }
    let metrics_out = flags.get("metrics-out");
    if let Some(path) = metrics_out {
        let file = std::fs::File::create(path).map_err(|e| format!("--metrics-out: {e}"))?;
        comet::obs::reset();
        comet::obs::set_enabled(true);
        comet::obs::journal::set_sink(Some(Box::new(std::io::BufWriter::new(file))));
    }

    let daemon = Daemon::start(config).map_err(|e| format!("starting daemon: {e}"))?;
    let port = daemon.port();
    // The port file is the rendezvous for scripts driving an ephemeral
    // port: written only once the socket is live and accepting.
    if let Some(path) = flags.get("port-file") {
        std::fs::write(path, format!("{port}\n")).map_err(|e| format!("--port-file: {e}"))?;
    }
    println!("comet-serve listening on 127.0.0.1:{port}");
    daemon.join();
    println!("comet-serve drained");

    if let Some(path) = metrics_out {
        let (_sink, flush_error) = comet::obs::journal::take_sink();
        comet::obs::set_enabled(false);
        match flush_error {
            Some(e) => eprintln!("warning: metrics journal {path} may be incomplete: {e}"),
            None => println!("metrics journal written to {path}"),
        }
    }
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let Some((action, rest)) = args.split_first() else {
        return Err(
            "client needs an action: ping|upload|start|status|results|cancel|stats|drain".into()
        );
    };
    let flags = parse_flags("client", CLIENT_FLAGS, rest)?;
    let retries: usize =
        flags.get("retry").map_or(Ok(0), |s| s.parse().map_err(|e| format!("--retry: {e}")))?;
    let request = build_client_request(action, &flags)?;
    let port = client_port(&flags)?;
    let mut client =
        Client::connect(port).map_err(|e| format!("connecting to 127.0.0.1:{port}: {e}"))?;
    // Typed retryable rejections (queue-full, tenant-cap) are retried up
    // to `--retry` times honouring the server's backoff hint; anything
    // still failing surfaces as `kind: message (retry in N ms)` on stderr
    // with a nonzero exit.
    let value = client.request_with_retry(&request, retries).map_err(|e| e.to_string())?;
    println!("{value}");
    Ok(())
}

/// Resolve the daemon port from `--port` or a `--port-file` written by
/// `comet serve`.
fn client_port(flags: &HashMap<String, String>) -> Result<u16, String> {
    if let Some(p) = flags.get("port") {
        return p.parse().map_err(|e| format!("--port: {e}"));
    }
    match flags.get("port-file") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--port-file {path}: {e}"))?;
            text.trim().parse().map_err(|e| format!("--port-file {path}: {e}"))
        }
        None => Err("client needs --port N or --port-file FILE".into()),
    }
}

/// Encode one client action as a request frame for the serve protocol.
fn build_client_request(action: &str, flags: &HashMap<String, String>) -> Result<String, String> {
    let mut req = JsonObject::new();
    match action {
        "ping" | "stats" | "drain" => {
            req.field_str("cmd", action);
        }
        "upload" => {
            let path = required(flags, "file")?;
            let csv = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            req.field_str("cmd", "upload").field_str("csv", &csv);
        }
        "start" => {
            req.field_str("cmd", "start")
                .field_str("dirty", required(flags, "dirty")?)
                .field_str("label", required(flags, "label")?);
            for key in ["clean", "tenant", "algo"] {
                if let Some(value) = flags.get(key) {
                    req.field_str(key, value);
                }
            }
            if let Some(b) = flags.get("budget") {
                req.field_f64("budget", b.parse().map_err(|e| format!("--budget: {e}"))?);
            }
            if let Some(s) = flags.get("seed") {
                req.field_u64("seed", s.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            if flags.contains_key("detect") {
                req.field_raw("detect", "true");
            }
            if let Some(ms) = flags.get("deadline-ms") {
                req.field_u64(
                    "deadline_ms",
                    ms.parse().map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
        }
        "status" | "cancel" => {
            req.field_str("cmd", action).field_str("session", required(flags, "session")?);
        }
        "results" => {
            req.field_str("cmd", "results").field_str("session", required(flags, "session")?);
            if let Some(from) = flags.get("from") {
                req.field_u64("from", from.parse().map_err(|e| format!("--from: {e}"))?);
            }
        }
        other => {
            return Err(format!(
                "unknown client action {other:?} \
                 (use ping|upload|start|status|results|cancel|stats|drain)"
            ));
        }
    }
    Ok(req.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<HashMap<String, String>, String> {
        let known = [POLLUTE_FLAGS, EVALUATE_FLAGS, RECOMMEND_FLAGS, SERVE_FLAGS, CLIENT_FLAGS];
        parse_flags(
            "test",
            &known.join(" "),
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parse_flags_pairs() {
        let f = flags(&["--input", "a.csv", "--label", "y"]).unwrap();
        assert_eq!(f.get("input").unwrap(), "a.csv");
        assert_eq!(required(&f, "label").unwrap(), "y");
        assert!(required(&f, "missing").is_err());
    }

    #[test]
    fn parse_flags_rejects_bad_shapes() {
        assert!(flags(&["input", "a.csv"]).is_err(), "missing --");
        assert!(flags(&["--input"]).is_err(), "dangling flag");
    }

    #[test]
    fn parse_flags_rejects_flags_off_the_usage_line() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = parse_flags("recommend", RECOMMEND_FLAGS, &args(&["--budgte", "1"])).unwrap_err();
        assert_eq!(err, "unknown flag --budgte for recommend");
        // Refused before it can take `--seed` as its value.
        let err =
            parse_flags("recommend", RECOMMEND_FLAGS, &args(&["--verbose", "--seed"])).unwrap_err();
        assert_eq!(err, "unknown flag --verbose for recommend");
        // A flag valid for one command is still unknown to another.
        assert!(parse_flags("pollute", POLLUTE_FLAGS, &args(&["--algo", "gb"])).is_err());
        assert!(parse_flags("client", CLIENT_FLAGS, &args(&["--session", "s1"])).is_ok());
    }

    #[test]
    fn resume_is_a_valueless_flag() {
        let f = flags(&["--resume", "--trace", "t.csv"]).unwrap();
        assert_eq!(f.get("resume").unwrap(), "true");
        assert_eq!(f.get("trace").unwrap(), "t.csv");
        let f = flags(&["--resume"]).unwrap();
        assert!(f.contains_key("resume"));
    }

    #[test]
    fn kernel_flags_parse() {
        let f = flags(&["--f32-probes", "--kernels", "simd"]).unwrap();
        assert!(f.contains_key("f32-probes"), "--f32-probes is valueless");
        assert_eq!(f.get("kernels").unwrap(), "simd");
        use comet::ml::kernels::KernelTier;
        assert_eq!(KernelTier::parse("simd"), Some(KernelTier::Simd));
    }

    #[test]
    fn segment_and_budget_flags_parse() {
        let f = flags(&[]).unwrap();
        assert_eq!(segment_rows_of(&f).unwrap(), CometConfig::default().segment_rows);
        let f = flags(&["--segment-rows", "1024"]).unwrap();
        assert_eq!(segment_rows_of(&f).unwrap(), 1024);
        let f = flags(&["--segment-rows", "0"]).unwrap();
        assert_eq!(segment_rows_of(&f).unwrap(), 0, "0 = whole-column");
        assert!(segment_rows_of(&flags(&["--segment-rows", "many"]).unwrap()).is_err());

        assert_eq!(parse_bytes("4096").unwrap(), 4096);
        assert_eq!(parse_bytes("64K").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("512M").unwrap(), 512 << 20);
        assert_eq!(parse_bytes("2g").unwrap(), 2 << 30);
        assert!(parse_bytes("1.5G").is_err());
        assert!(parse_bytes("lots").is_err());
        assert!(parse_bytes("99999999999G").is_err(), "overflow is loud");
    }

    #[test]
    fn seed_and_algo_defaults() {
        let f = flags(&[]).unwrap();
        assert_eq!(seed_of(&f).unwrap(), 42);
        assert_eq!(algo_of(&f).unwrap(), Algorithm::Knn);
        let f = flags(&["--seed", "7", "--algo", "gb"]).unwrap();
        assert_eq!(seed_of(&f).unwrap(), 7);
        assert_eq!(algo_of(&f).unwrap(), Algorithm::Gb);
        let f = flags(&["--algo", "alexnet"]).unwrap();
        assert!(algo_of(&f).is_err());
        let f = flags(&["--seed", "NaN"]).unwrap();
        assert!(seed_of(&f).is_err());
    }

    #[test]
    fn detect_flags_parse() {
        let f = flags(&["--detect"]).unwrap();
        let config = parse_detect(&f).unwrap().expect("--detect enables detection");
        assert_eq!(config, comet::detect::DetectorConfig::default());

        let f = flags(&["--detect", "--detectors", "missing-sentinel,iqr"]).unwrap();
        let config = parse_detect(&f).unwrap().unwrap();
        assert!(config.enabled.contains(comet::detect::DetectorKind::MissingSentinel));
        assert!(config.enabled.contains(comet::detect::DetectorKind::Iqr));
        assert!(!config.enabled.contains(comet::detect::DetectorKind::Domain));

        // Oracle mode stays the default; partial/invalid flags are loud.
        assert_eq!(parse_detect(&flags(&[]).unwrap()).unwrap(), None);
        assert!(parse_detect(&flags(&["--detectors", "iqr"]).unwrap()).is_err());
        assert!(parse_detect(&flags(&["--detect", "--detectors", "psychic"]).unwrap()).is_err());
    }

    #[test]
    fn provenance_derivation_classifies_errors() {
        // The CLI builds environments through the shared `comet-core`
        // helpers; this exercises the façade re-export end to end.
        use comet::frame::{Cell, Column, DataFrame};
        use comet::jenga::GroundTruth;
        let x = Column::numeric("x", vec![1.0, 2.0, 3.0, 4.0]);
        let c = Column::categorical("c", vec![0, 1, 0, 1], vec!["a".into(), "b".into()]).unwrap();
        let y = Column::categorical("y", vec![0, 1, 0, 1], vec!["n".into(), "p".into()]).unwrap();
        let clean = DataFrame::new(vec![x, c, y], Some("y")).unwrap();
        let mut dirty = clean.clone();
        dirty.set(0, 0, Cell::Missing).unwrap(); // MV
        dirty.set(1, 0, Cell::Num(200.0)).unwrap(); // ×100 → scaling
        dirty.set(2, 0, Cell::Num(3.7)).unwrap(); // noise
        dirty.set(3, 1, Cell::Cat(0)).unwrap(); // shift
        let gt = GroundTruth::new(clean);
        let prov = comet::core::derive_provenance(&dirty, &gt).unwrap();
        assert_eq!(prov.get(0, 0), Some(ErrorType::MissingValues));
        assert_eq!(prov.get(0, 1), Some(ErrorType::Scaling));
        assert_eq!(prov.get(0, 2), Some(ErrorType::GaussianNoise));
        assert_eq!(prov.get(1, 3), Some(ErrorType::CategoricalShift));
        assert_eq!(prov.get(0, 3), None);
    }

    #[test]
    fn client_requests_encode_and_validate() {
        let f = flags(&["--session", "s00000001", "--from", "3"]).unwrap();
        let req = build_client_request("results", &f).unwrap();
        let parsed = comet::obs::json::parse(&req).unwrap();
        assert_eq!(parsed.get("cmd").unwrap().as_str(), Some("results"));
        assert_eq!(parsed.get("session").unwrap().as_str(), Some("s00000001"));
        assert_eq!(parsed.get("from").unwrap().as_f64(), Some(3.0));

        let f = flags(&["--dirty", "abc", "--label", "y", "--detect", "--budget", "5"]).unwrap();
        let req = build_client_request("start", &f).unwrap();
        let parsed = comet::obs::json::parse(&req).unwrap();
        assert_eq!(parsed.get("detect"), Some(&comet::obs::json::JsonValue::Bool(true)));
        assert_eq!(parsed.get("budget").unwrap().as_f64(), Some(5.0));
        assert!(parsed.get("clean").is_none(), "omitted flags stay omitted");

        assert!(build_client_request("start", &flags(&["--dirty", "abc"]).unwrap()).is_err());
        assert!(build_client_request("status", &flags(&[]).unwrap()).is_err());
        assert!(build_client_request("frobnicate", &flags(&[]).unwrap()).is_err());
    }

    #[test]
    fn client_port_resolves_flag_then_file() {
        let f = flags(&["--port", "4410"]).unwrap();
        assert_eq!(client_port(&f).unwrap(), 4410);
        assert!(client_port(&flags(&[]).unwrap()).is_err(), "no source → loud error");
        assert!(client_port(&flags(&["--port", "banana"]).unwrap()).is_err());

        let path = std::env::temp_dir().join(format!("comet-port-{}", std::process::id()));
        std::fs::write(&path, "4411\n").unwrap();
        let f = flags(&["--port-file", path.to_str().unwrap()]).unwrap();
        assert_eq!(client_port(&f).unwrap(), 4411);
        std::fs::remove_file(&path).ok();
    }
}
