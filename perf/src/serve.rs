//! `serve_mixed`: an in-process `comet-serve` daemon with two workers,
//! driven closed-loop by two clients (tenants `t0`, `t1`): each client
//! starts its next session only when its previous one is done, polling
//! `results` in between. Each round uploads both data pairs (the set-up)
//! and then runs the whole script of sessions; a session's latency is the
//! median over its rounds, and `wall_s` the median round.
//!
//! Sessions use the same core layers as the grids, differently: each
//! parses its CSVs, tunes with ten draws, checkpoints every iteration and,
//! every fourth session, runs detection, while two sessions share the
//! fan-out budget. Every request goes out on a fresh connection, as the
//! `comet client` command sends it.
//!
//! The learners are KNN, SVM and LOR. MLP is left to `grid_slow`: its
//! tuned cost spans an order of magnitude, so a handful of MLP sessions
//! would decide the latency tail on their own.

use crate::layers;
use crate::replay::{self, ReplayCounts, SessionSpec};
use crate::spans::Tracer;
use crate::stats;
use crate::workload::{across_rounds, derive_seed, secs, start_round, Observations, Plan};
use comet_core::{build_paired_env, CleaningSession, CometConfig};
use comet_datasets::Dataset;
use comet_frame::{read_csv, write_csv_string, DEFAULT_SEGMENT_ROWS};
use comet_jenga::ErrorType;
use comet_ml::{Algorithm, RandomSearch};
use comet_obs::json::{self, JsonObject, JsonValue};
use comet_serve::protocol::Response;
use comet_serve::{Client, Daemon, ServeConfig, SessionStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Sessions per client. With 50 sessions the 80th latency percentile has
/// ten samples beyond it.
const SESSIONS_PER_CLIENT: usize = 25;
const ROWS: usize = 400;
const BUDGET: f64 = 1.0;
const POLL: Duration = Duration::from_millis(10);
const ALGOS: [Algorithm; 3] = [Algorithm::Knn, Algorithm::Svm, Algorithm::LogReg];
const PAIRS: [(Dataset, [ErrorType; 2]); 2] = [
    (Dataset::Eeg, [ErrorType::MissingValues, ErrorType::Outliers]),
    (Dataset::Churn, [ErrorType::MissingValues, ErrorType::CategoricalShift]),
];
/// The daemon's fixed environment parameters (`execute_session`).
const STEP_FRAC: f64 = 0.01;
const EVAL_SEED: u64 = 7;
/// Seed of the session script and its data, which every run shares.
const SCRIPT_SEED: u64 = 0x5E55;

/// The dirty and clean dataset fingerprints of one uploaded pair.
type PairIds = (String, String);

#[derive(Debug, Clone)]
struct Request {
    client: usize,
    index: usize,
    algo: Algorithm,
    pair: usize,
    detect: bool,
    seed: u64,
}

/// One finished session, as its client saw it.
#[derive(Debug)]
struct Finished {
    request: Request,
    id: String,
    status: String,
    latency_s: f64,
    first_rec_s: Option<f64>,
    queue_wait_s: Option<f64>,
    initial_f1: f64,
    final_f1: f64,
    budget_spent: f64,
    predictions: Vec<(usize, ErrorType, f64)>,
}

#[derive(Debug, Default)]
struct ClientLog {
    finished: Vec<Finished>,
    request_ms: Vec<f64>,
    starts: u64,
    rejections: u64,
}

/// Each client's sessions, in the order it sends them. Both clients send
/// the same mix — learners cycle KNN/SVM/LOR, the dataset changes every
/// three sessions, every fourth session runs detection — each session
/// with its own fixed seed, in an order drawn from the run seed. The
/// sessions do not depend on the run seed: the daemon tunes every model
/// with a random search whose cost depends on the session's seed and
/// data, so varying those would vary the amount of work from seed to
/// seed. The order decides which sessions overlap.
fn requests(plan: &Plan, per_client: usize) -> Vec<Vec<Request>> {
    (0..CLIENTS)
        .map(|client| {
            let mut list: Vec<Request> = (0..per_client)
                .map(|index| Request {
                    client,
                    index,
                    algo: ALGOS[index % ALGOS.len()],
                    pair: (index / ALGOS.len()) % PAIRS.len(),
                    detect: index % 4 == 3,
                    seed: derive_seed(
                        SCRIPT_SEED,
                        "serve-session",
                        (index * CLIENTS + client) as u64,
                    ),
                })
                .collect();
            let mut rng =
                StdRng::seed_from_u64(derive_seed(plan.seed, "serve-order", client as u64));
            for i in (1..list.len()).rev() {
                list.swap(i, rng.gen_range(0..=i));
            }
            list
        })
        .collect()
}

/// The session the daemon builds from a start request (`execute_session`).
fn session_config(request: &Request, budget: f64) -> (CometConfig, Vec<ErrorType>) {
    let detect = request.detect.then(comet_detect::DetectorConfig::default);
    let errors =
        if detect.is_some() { ErrorType::EXTENDED.to_vec() } else { ErrorType::ALL.to_vec() };
    let config = CometConfig {
        budget,
        detect,
        kernels: ServeConfig::default().kernels,
        segment_rows: DEFAULT_SEGMENT_ROWS,
        ..CometConfig::default()
    };
    (config, errors)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn str_field<'a>(doc: &'a JsonValue, key: &str) -> &'a str {
    doc.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn num_field(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

fn results_request(id: &str, from: u64) -> String {
    JsonObject::new()
        .field_str("cmd", "results")
        .field_str("session", id)
        .field_u64("from", from)
        .finish()
}

/// The iteration-0 predictions in a `results` step list.
fn first_predictions(doc: &JsonValue) -> Vec<(usize, ErrorType, f64)> {
    let Some(JsonValue::Arr(steps)) = doc.get("steps") else { return Vec::new() };
    steps
        .iter()
        .filter(|s| num_field(s, "iteration") == 0.0)
        .filter_map(|s| {
            let predicted = s.get("predicted_f1")?.as_f64()?;
            let err =
                ErrorType::EXTENDED.into_iter().find(|e| e.abbrev() == str_field(s, "err"))?;
            Some((num_field(s, "col") as usize, err, predicted))
        })
        .collect()
}

/// Send one request on a fresh connection and return the response and its
/// time, ms. A kept-open connection answered each request in about 86 ms
/// on a 2-core host, against about 2 ms here: frames go out as two small
/// writes, which on a warm connection meet the delayed-ACK timer.
fn send(port: u16, request: &str) -> Result<(Response, f64), String> {
    let sent = Instant::now();
    let mut client = Client::connect(port).map_err(|e| format!("connect: {e}"))?;
    let response = client.request(request).map_err(|e| e.to_string())?;
    Ok((response, ms_since(sent)))
}

/// [`send`], failing on an error response.
fn send_ok(port: u16, request: &str) -> Result<(JsonValue, f64), String> {
    match send(port, request)? {
        (Response::Ok(doc), ms) => Ok((doc, ms)),
        (Response::Err(e), _) => Err(e.to_string()),
    }
}

/// One client's closed loop.
fn drive(
    port: u16,
    requests: &[Request],
    datasets: &[PairIds],
    budget: f64,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    for request in requests {
        let (dirty, clean) = &datasets[request.pair];
        let mut start = JsonObject::new();
        start
            .field_str("cmd", "start")
            .field_str("dirty", dirty)
            .field_str("clean", clean)
            .field_str("label", "label")
            .field_str("tenant", &format!("t{}", request.client))
            .field_str("algo", request.algo.name())
            .field_f64("budget", budget)
            .field_u64("seed", request.seed);
        if request.detect {
            start.field_raw("detect", "true");
        }
        let start = start.finish();
        let started = Instant::now();
        let id = loop {
            log.starts += 1;
            let (response, ms) = send(port, &start).map_err(|e| format!("start: {e}"))?;
            log.request_ms.push(ms);
            match response {
                Response::Ok(doc) => break str_field(&doc, "session").to_string(),
                Response::Err(e) if e.retryable => {
                    log.rejections += 1;
                    thread::sleep(Duration::from_millis(e.backoff_ms.unwrap_or(100)));
                }
                Response::Err(e) => return Err(format!("start refused: {e}")),
            }
        };
        let (mut first_rec_s, mut queue_wait_s, mut seen) = (None, None, 0u64);
        let (status, latency_s, last) = loop {
            thread::sleep(POLL);
            let (doc, ms) = send_ok(port, &results_request(&id, seen))
                .map_err(|e| format!("results {id}: {e}"))?;
            log.request_ms.push(ms);
            let status = str_field(&doc, "status").to_string();
            seen = num_field(&doc, "total") as u64;
            if queue_wait_s.is_none() && status != "queued" {
                queue_wait_s = Some(secs(started.elapsed()));
            }
            if first_rec_s.is_none() && seen > 0 {
                first_rec_s = Some(secs(started.elapsed()));
            }
            if matches!(status.as_str(), "done" | "stopped" | "failed") {
                break (status, secs(started.elapsed()), doc);
            }
        };
        // Outside the timed loop: every step, for the replay's check.
        let (all, _) =
            send_ok(port, &results_request(&id, 0)).map_err(|e| format!("results {id}: {e}"))?;
        log.finished.push(Finished {
            request: request.clone(),
            id,
            status,
            latency_s,
            first_rec_s,
            queue_wait_s,
            initial_f1: num_field(&last, "initial_f1"),
            final_f1: num_field(&last, "best_f1"),
            budget_spent: num_field(&last, "budget_spent"),
            predictions: first_predictions(&all),
        });
    }
    Ok(log)
}

/// Generate both REIN pairs as CSV and upload them; returns the dataset
/// fingerprints and each upload's time, ms.
fn upload_pairs(port: u16, rows: usize) -> Result<(Vec<PairIds>, Vec<f64>), String> {
    let mut fps = Vec::new();
    let mut upload_ms = Vec::new();
    for (k, (dataset, families)) in PAIRS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(derive_seed(SCRIPT_SEED, "serve-data", k as u64));
        let pair = dataset.generate_rein_pair(Some(rows), families, &mut rng);
        let mut ids = Vec::new();
        for frame in [&pair.dirty, &pair.clean] {
            let csv = write_csv_string(frame).map_err(|e| format!("csv: {e}"))?;
            let request =
                JsonObject::new().field_str("cmd", "upload").field_str("csv", &csv).finish();
            let (doc, ms) = send_ok(port, &request).map_err(|e| format!("upload: {e}"))?;
            upload_ms.push(ms);
            ids.push(str_field(&doc, "dataset").to_string());
        }
        fps.push((ids[0].clone(), ids[1].clone()));
    }
    Ok((fps, upload_ms))
}

/// Sizes of one run.
struct Shape {
    rows: usize,
    budget: f64,
    per_client: usize,
}

impl Shape {
    fn of(plan: &Plan) -> Shape {
        if plan.smoke {
            Shape { rows: 80, budget: 1.0, per_client: 2 }
        } else {
            Shape { rows: ROWS, budget: BUDGET, per_client: SESSIONS_PER_CLIENT }
        }
    }
}

/// Run the workload.
pub fn run(plan: &Plan, obs: &mut Observations) -> Result<(), String> {
    let shape = Shape::of(plan);
    let root = plan.work_dir.join("serve");
    let daemon = Daemon::start(ServeConfig {
        root: root.clone(),
        workers: WORKERS,
        report_every: Duration::from_secs(3600),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon: {e}"))?;
    let measured = measure(plan, &shape, obs, daemon.port());
    daemon.request_drain();
    daemon.join();
    check_and_replay(plan, &shape, obs, &root, &measured?)
}

struct Measured {
    /// Each client's sessions, in the order it sent them.
    plans: Vec<Vec<Request>>,
    /// Every finished session of each round, by client and script index.
    rounds: Vec<Vec<Finished>>,
    datasets: Vec<PairIds>,
    /// The sessions' own first-iteration pollute + estimate time per
    /// round, s.
    iteration0_s: f64,
}

fn measure(
    plan: &Plan,
    shape: &Shape,
    obs: &mut Observations,
    port: u16,
) -> Result<Measured, String> {
    let plans = requests(plan, shape.per_client);
    let journal = comet_obs::journal::SharedBuffer::new();
    let (mut datasets, mut upload_ms, mut request_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut round_wall_s, mut finished_by_round) = (Vec::new(), Vec::new());
    for round in plan.rounds() {
        let (fps, ms) = start_round(obs, || upload_pairs(port, shape.rows))?;
        datasets = fps;
        upload_ms.extend(ms);
        if plan.traced {
            if round == 0 {
                comet_obs::reset();
                comet_obs::journal::set_sink(Some(Box::new(journal.clone())));
            }
            comet_obs::set_enabled(true);
        }
        let started = Instant::now();
        let logs: Vec<Result<ClientLog, String>> = thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|reqs| {
                    let datasets = &datasets;
                    scope.spawn(move || drive(port, reqs, datasets, shape.budget))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
                .collect()
        });
        round_wall_s.push(secs(started.elapsed()));
        obs.end_round();
        comet_obs::set_enabled(false);
        let mut finished = Vec::new();
        for log in logs {
            let log = log?;
            obs.attempted += log.starts;
            obs.failed += log.rejections;
            if log.rejections > 0 {
                obs.problem(format!("{} start requests were rejected", log.rejections));
            }
            request_ms.extend(log.request_ms);
            finished.extend(log.finished);
        }
        finished.sort_by_key(|f| (f.request.client, f.request.index));
        finished_by_round.push(finished);
    }
    obs.wall_s = across_rounds(round_wall_s).unwrap_or(0.0);
    let mut iteration0_s = 0.0;
    if plan.traced {
        comet_obs::journal::set_sink(None);
        layers::from_registry(
            &comet_obs::snapshot(),
            comet_par::max_threads(),
            finished_by_round.len(),
            &mut obs.layers,
        );
        // Iteration records of concurrent sessions interleave, but every
        // session's iteration 0 is in the sum either way.
        for line in journal.contents().lines() {
            let Ok(doc) = json::parse(line) else { continue };
            if str_field(&doc, "kind") == "iteration" && num_field(&doc, "iteration") == 0.0 {
                if let Some(phases) = doc.get("phases") {
                    iteration0_s += num_field(phases, "pollute") + num_field(phases, "estimate");
                }
            }
        }
        iteration0_s /= finished_by_round.len() as f64;
        let queue_wait: Vec<f64> =
            finished_by_round.iter().flatten().filter_map(|f| f.queue_wait_s).collect();
        obs.layers.insert("serve.queue_wait_s.p50", stats::median(&queue_wait).unwrap_or(0.0));
        obs.layers.insert("serve.request_ms.p50", stats::median(&request_ms).unwrap_or(0.0));
        obs.layers.insert("serve.upload_ms.p50", stats::median(&upload_ms).unwrap_or(0.0));
    }
    Ok(Measured { plans, rounds: finished_by_round, datasets, iteration0_s })
}

fn check_and_replay(
    plan: &Plan,
    shape: &Shape,
    obs: &mut Observations,
    root: &Path,
    measured: &Measured,
) -> Result<(), String> {
    let budget = shape.budget;
    let store = SessionStore::open(root).map_err(|e| format!("store: {e}"))?;
    // One round's checkpoint files, and the traces every later round must
    // reproduce.
    let mut checkpoint_bytes = 0u64;
    let mut traces: Vec<String> = Vec::new();
    for (round, finished) in measured.rounds.iter().enumerate() {
        for (k, f) in finished.iter().enumerate() {
            if f.status != "done" {
                obs.failed += 1;
                obs.problem(format!("session {} ended {}", f.id, f.status));
            }
            if f.budget_spent > budget + 1e-9 {
                obs.problem(format!(
                    "session {} spent {} of budget {budget}",
                    f.id, f.budget_spent
                ));
            }
            let dir = store.session_dir(&f.id);
            let outcome = std::fs::read_to_string(dir.join("outcome.json")).unwrap_or_default();
            let failures =
                json::parse(&outcome).map(|doc| num_field(&doc, "failures")).unwrap_or(f64::NAN);
            if failures != 0.0 {
                obs.failed += 1;
                obs.problem(format!("session {}: {failures} candidate evaluations failed", f.id));
            }
            let trace = std::fs::read_to_string(dir.join("trace.csv")).unwrap_or_default();
            if round == 0 {
                checkpoint_bytes +=
                    std::fs::metadata(dir.join("checkpoint.jsonl")).map_or(0, |m| m.len());
                traces.push(trace);
            } else if traces.get(k) != Some(&trace) {
                obs.problem(format!("session {} decided differently in round {round}", f.id));
            }
        }
    }
    let Some(first_round) = measured.rounds.first() else { return Ok(()) };
    for (k, f) in first_round.iter().enumerate() {
        let of_session = || measured.rounds.iter().filter_map(move |r| r.get(k));
        obs.latency_s.extend(across_rounds(of_session().map(|f| f.latency_s)));
        obs.first_rec_s.extend(across_rounds(of_session().filter_map(|f| f.first_rec_s)));
        obs.f1_final.push(f.final_f1);
    }
    obs.traces = traces;

    // The daemon must build the very session the library builds from the
    // same inputs: compare the first session's stored trace byte for byte.
    if let Some((first, stored)) = first_round.first().zip(obs.traces.first()) {
        match in_process_trace(&store, &measured.datasets, first, budget) {
            Ok(csv) if &csv == stored => {}
            Ok(_) => obs.problem(format!(
                "session {}: the daemon's trace.csv differs from the same session run in-process",
                first.id
            )),
            Err(e) => obs.problem(format!("in-process reference session: {e}")),
        }
    }

    if plan.traced {
        let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;
        obs.layers.insert("core.checkpoint_mb", mb(checkpoint_bytes));
        for (name, q) in [("serve.latency_s.p50", 0.5), ("serve.latency_s.p80", 0.8)] {
            obs.layers.insert(name, stats::quantile(&obs.latency_s, q).unwrap_or(0.0));
        }
        let (tracer, counts) = replay_all(&store, measured, budget, obs);
        layers::from_replay(&tracer, counts, measured.iteration0_s, &mut obs.layers);
        obs.tracer = Some(tracer);
    }
    Ok(())
}

/// Replay every session's first iteration the way the daemon ran them:
/// one thread per client, each replaying that client's sessions in the
/// order it sent them and holding one fan-out slot like a daemon worker,
/// so the two replays contend with each other as the sessions did.
fn replay_all(
    store: &SessionStore,
    measured: &Measured,
    budget: f64,
    obs: &mut Observations,
) -> (Tracer, ReplayCounts) {
    let mut tracer = Tracer::default();
    let origin = tracer.origin();
    // Every round ran the same sessions; replay them once.
    let finished = measured.rounds.first().map_or(&[][..], Vec::as_slice);
    let replayed: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = measured
            .plans
            .iter()
            .map(|plan| {
                scope.spawn(move || {
                    let _slot = comet_par::occupy_slots(1);
                    let mut t = Tracer::starting_at(origin, 0);
                    let mut counts = ReplayCounts::default();
                    let mut problems = Vec::new();
                    for request in plan {
                        let Some(f) = finished.iter().find(|f| {
                            (f.request.client, f.request.index) == (request.client, request.index)
                        }) else {
                            continue;
                        };
                        t.set_session((request.index * CLIENTS + request.client) as u32);
                        let result = replay_session(
                            &mut t,
                            store,
                            &measured.datasets,
                            f,
                            budget,
                            &mut counts,
                        );
                        if let Err(e) = result {
                            problems.push(format!("replay of session {}: {e}", f.id));
                        }
                    }
                    (t, counts, problems)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut counts = ReplayCounts::default();
    for result in replayed {
        match result {
            Ok((t, c, problems)) => {
                tracer.absorb(t);
                counts.blr_fits += c.blr_fits;
                counts.degraded += c.degraded;
                obs.problems.extend(problems);
            }
            Err(_) => obs.problem("a replay thread panicked"),
        }
    }
    (tracer, counts)
}

fn read_pair(
    store: &SessionStore,
    datasets: &[PairIds],
    pair: usize,
) -> Result<(comet_frame::DataFrame, comet_frame::DataFrame), String> {
    let (dirty, clean) = &datasets[pair];
    let read = |fp: &str| {
        read_csv(store.dataset_path(fp), Some("label")).map_err(|e| format!("{fp}: {e}"))
    };
    Ok((read(dirty)?, read(clean)?))
}

fn in_process_trace(
    store: &SessionStore,
    datasets: &[PairIds],
    f: &Finished,
    budget: f64,
) -> Result<String, String> {
    let (dirty, clean) = read_pair(store, datasets, f.request.pair)?;
    let mut rng = StdRng::seed_from_u64(f.request.seed);
    let mut env = build_paired_env(
        dirty,
        Some(clean),
        f.request.algo,
        STEP_FRAC,
        RandomSearch::default(),
        EVAL_SEED,
        DEFAULT_SEGMENT_ROWS,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let (config, errors) = session_config(&f.request, budget);
    let outcome =
        CleaningSession::new(config, errors).run(&mut env, &mut rng).map_err(|e| e.to_string())?;
    Ok(outcome.trace.to_csv(Some(env.train())))
}

fn replay_session(
    t: &mut Tracer,
    store: &SessionStore,
    datasets: &[PairIds],
    f: &Finished,
    budget: f64,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let (dirty, clean) =
        t.span("frame.csv_read", |_| read_pair(store, datasets, f.request.pair))?;
    let mut rng = StdRng::seed_from_u64(f.request.seed);
    let mut env = replay::paired_env(
        t,
        dirty,
        clean,
        f.request.algo,
        STEP_FRAC,
        RandomSearch::default(),
        EVAL_SEED,
        &mut rng,
    )?;
    let (config, errors) = session_config(&f.request, budget);
    let spec = SessionSpec {
        config: &config,
        errors: &errors,
        rng,
        eval_seed: EVAL_SEED,
        initial_f1: f.initial_f1,
        predictions: f.predictions.clone(),
        block_budget: None,
    };
    replay::first_iteration(t, &mut env, spec, counts)
}
