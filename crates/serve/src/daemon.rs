//! The daemon: accept loop, worker pool, supervisor, and the command
//! dispatch tying [`crate::protocol`], [`crate::admission`], and
//! [`crate::store`] together.
//!
//! Life of a session: `start` passes admission, gets a monotonic id, its
//! manifest is persisted (*before* the accept response — invariant 1 of
//! the store), and the id joins the bounded pending queue. A worker pops
//! it, occupies one `comet-par` slot (daemon fan-out and session fan-out
//! share the one global budget), builds the environment from the
//! content-addressed datasets with the manifest's seed, and runs the
//! session with a checkpoint in the session directory and a
//! `SessionControl` attached. Cancels and expired deadlines reach the
//! session through that control; the partial outcome is persisted like a
//! completed one. On restart the daemon rescans the store and re-enqueues
//! every `queued`/`running` manifest in id order; sessions with a
//! checkpoint resume bit-identically (the comet-core replay guarantee).

use crate::admission::AdmissionConfig;
use crate::faults::ServeFaultPlan;
use crate::protocol::{self, kind};
use crate::store::{Manifest, SessionStore};
use comet_core::{
    build_paired_env, CheckpointSpec, CleaningSession, CometConfig, SessionControl, StopReason,
};
use comet_frame::read_csv;
use comet_jenga::ErrorType;
use comet_ml::kernels::KernelTier;
use comet_ml::{Algorithm, RandomSearch};
use comet_obs::json::{self, JsonObject, JsonValue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration, fixed at start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Store root directory.
    pub root: PathBuf,
    /// Worker pool size (concurrent sessions).
    pub workers: usize,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// TCP port on 127.0.0.1; `0` picks an ephemeral port (read it back
    /// from [`Daemon::port`]).
    pub port: u16,
    /// Kernel tier for *every* hosted session — the tier is process-global
    /// (`comet_ml::kernels::set_tier`), so one daemon pins one tier.
    pub kernels: KernelTier,
    /// Staged service-layer faults.
    pub faults: Arc<ServeFaultPlan>,
    /// Period of the supervisor's serve report to the journal sink (if one
    /// is installed).
    pub report_every: Duration,
    /// Rows per column segment for every hosted session (`0` = whole
    /// column). Part of each session's checkpoint identity, so one daemon
    /// pins one segmentation — exactly like the kernel tier.
    pub segment_rows: usize,
    /// Resident-segment byte cap. `Some(n)` arms the process-global spill
    /// pool under `<root>/spill`; cold segments move to content-addressed
    /// files and reload on demand. `None` = everything stays in memory.
    pub memory_budget: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            root: PathBuf::from("comet-serve-store"),
            workers: 2,
            admission: AdmissionConfig::default(),
            port: 0,
            kernels: KernelTier::Scalar,
            faults: ServeFaultPlan::new(Vec::new()),
            report_every: Duration::from_secs(10),
            segment_rows: comet_frame::DEFAULT_SEGMENT_ROWS,
            memory_budget: None,
        }
    }
}

/// Per-session live state: the manifest mirror plus the control handle
/// the status/results/cancel endpoints and the deadline supervisor use.
#[derive(Debug)]
struct SessionEntry {
    manifest: Manifest,
    control: SessionControl,
    /// Set when the run starts; the supervisor expires it.
    deadline: Option<Instant>,
}

#[derive(Debug)]
struct Inner {
    config: ServeConfig,
    store: SessionStore,
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    sessions: Mutex<BTreeMap<String, SessionEntry>>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    running: AtomicUsize,
}

/// A running daemon; join it to block until drained.
#[derive(Debug)]
pub struct Daemon {
    port: u16,
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Daemon {
    /// Open the store, recover interrupted work, bind the socket, and
    /// spawn the worker pool + accept loop + supervisor.
    pub fn start(config: ServeConfig) -> io::Result<Daemon> {
        comet_ml::kernels::set_tier(config.kernels);
        let store = SessionStore::open(&config.root)?;
        if let Some(budget) = config.memory_budget {
            // The spill pool is process-global, like the kernel tier:
            // every hosted session shares the one budget. Content
            // addressing makes the directory safe to reuse across
            // restarts — a recovered session finds its segments by
            // fingerprint or rewrites them idempotently.
            comet_frame::spill_configure(config.root.join("spill"), budget)
                .map_err(|e| io::Error::other(format!("spill dir: {e}")))?;
        }

        // Crash recovery: every manifest still queued/running is accepted
        // work this daemon owes a result for. Re-enqueue in id order (the
        // original acceptance order); a checkpoint file means the comet-core
        // layer will resume the interrupted run bit-identically.
        let mut queue = VecDeque::new();
        let mut sessions = BTreeMap::new();
        for mut manifest in store.load_manifests()? {
            if manifest.status != "queued" && manifest.status != "running" {
                continue;
            }
            if store.session_dir(&manifest.id).join("checkpoint.jsonl").exists() {
                comet_obs::counter_add("serve.sessions_resumed", 1);
            }
            manifest.status = "queued".into();
            store.write_manifest(&manifest)?;
            queue.push_back(manifest.id.clone());
            sessions.insert(
                manifest.id.clone(),
                SessionEntry { manifest, control: SessionControl::new(), deadline: None },
            );
        }
        comet_obs::gauge_set("serve.queue_depth", queue.len() as f64);

        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let port = listener.local_addr()?.port();
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            config,
            store,
            queue: Mutex::new(queue),
            queue_cv: Condvar::new(),
            sessions: Mutex::new(sessions),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            running: AtomicUsize::new(0),
        });

        let mut threads = Vec::new();
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-supervisor".into())
                    .spawn(move || supervisor_loop(&inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || accept_loop(&inner, listener))?,
            );
        }
        Ok(Daemon { port, inner, threads })
    }

    /// The bound port on 127.0.0.1.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Block until the daemon shuts down (a client sent `drain`).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Ask the daemon to drain and shut down without a client (tests and
    /// signal handlers): equivalent to receiving a `drain` command.
    pub fn request_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        wait_drained(&self.inner);
        initiate_shutdown(&self.inner, self.port);
    }
}

/// Block until no work is pending or running.
fn wait_drained(inner: &Inner) {
    let mut q = lock(&inner.queue);
    while !(q.is_empty() && inner.running.load(Ordering::SeqCst) == 0) {
        let (guard, _) = inner
            .queue_cv
            .wait_timeout(q, Duration::from_millis(100))
            .unwrap_or_else(PoisonError::into_inner);
        q = guard;
    }
}

/// Flip the shutdown flag and unblock every waiting thread.
fn initiate_shutdown(inner: &Inner, port: u16) {
    inner.shutdown.store(true, Ordering::SeqCst);
    inner.queue_cv.notify_all();
    // The accept loop blocks in `accept`; poke it awake.
    let _ = TcpStream::connect(("127.0.0.1", port));
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let inner = Arc::clone(inner);
        // Handler threads are detached: they die with the process, and a
        // drained daemon writes its last response before shutdown flips.
        let _ = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || handle_connection(&inner, stream));
    }
}

/// Outcome of dispatching one request frame.
enum Action {
    /// Write this response frame and keep the connection.
    Respond(String),
    /// Drop the connection without responding (injected fault).
    Disconnect,
    /// Drain: block until idle, respond, then shut the daemon down.
    Drain,
}

fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    // A stalled peer may not hold a handler thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    loop {
        let frame = match protocol::read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return, // clean close, torn frame, or timeout
        };
        comet_obs::counter_add("serve.requests", 1);
        if let Some(delay_ms) = inner.config.faults.next_request_delay() {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        let started = Instant::now();
        let (metric, action) = dispatch(inner, &frame);
        comet_obs::observe_duration(metric, started.elapsed());
        match action {
            Action::Respond(response) => {
                if protocol::write_frame(&mut stream, &response).is_err() {
                    return;
                }
            }
            Action::Disconnect => return,
            Action::Drain => {
                inner.draining.store(true, Ordering::SeqCst);
                wait_drained(inner);
                emit_serve_report(inner, "drain");
                let mut ok = protocol::ok_response();
                ok.field_raw("drained", "true");
                let _ = protocol::write_frame(&mut stream, &ok.finish());
                initiate_shutdown(inner, inner.config.port);
                // The poke above used the configured port, which is 0 for
                // ephemeral binds; poke the real one through the stream's
                // own local view instead.
                if let Ok(addr) = stream.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return;
            }
        }
    }
}

/// Route one request frame; returns the endpoint's latency-metric name
/// and the action. Never panics: malformed input becomes a typed
/// `invalid` response.
fn dispatch(inner: &Arc<Inner>, frame: &str) -> (&'static str, Action) {
    let request = match json::parse(frame) {
        Ok(v) => v,
        Err(e) => {
            return (
                "serve.endpoint.invalid",
                Action::Respond(protocol::error_response(
                    kind::INVALID,
                    &format!("unparseable request: {e}"),
                    false,
                    None,
                )),
            );
        }
    };
    let cmd = request.get("cmd").and_then(JsonValue::as_str).unwrap_or("");
    match cmd {
        "ping" => {
            let mut ok = protocol::ok_response();
            ok.field_raw("pong", "true");
            ("serve.endpoint.ping", Action::Respond(ok.finish()))
        }
        "upload" => ("serve.endpoint.upload", cmd_upload(inner, &request)),
        "start" => ("serve.endpoint.start", Action::Respond(cmd_start(inner, &request))),
        "status" => ("serve.endpoint.status", Action::Respond(cmd_status(inner, &request))),
        "results" => ("serve.endpoint.results", Action::Respond(cmd_results(inner, &request))),
        "cancel" => ("serve.endpoint.cancel", Action::Respond(cmd_cancel(inner, &request))),
        "stats" => ("serve.endpoint.stats", Action::Respond(cmd_stats(inner))),
        "drain" => ("serve.endpoint.drain", Action::Drain),
        other => (
            "serve.endpoint.invalid",
            Action::Respond(protocol::error_response(
                kind::INVALID,
                &format!("unknown command {other:?}"),
                false,
                None,
            )),
        ),
    }
}

fn cmd_upload(inner: &Inner, request: &JsonValue) -> Action {
    if inner.config.faults.next_upload_disconnects() {
        return Action::Disconnect;
    }
    let Some(csv) = request.get("csv").and_then(JsonValue::as_str) else {
        return Action::Respond(protocol::error_response(
            kind::INVALID,
            "upload needs a csv field",
            false,
            None,
        ));
    };
    match inner.store.put_dataset(csv) {
        Ok(fp) => {
            comet_obs::counter_add("serve.uploads", 1);
            let mut ok = protocol::ok_response();
            ok.field_str("dataset", &fp);
            Action::Respond(ok.finish())
        }
        Err(e) => Action::Respond(protocol::error_response(
            kind::IO,
            &format!("storing dataset: {e}"),
            true,
            Some(inner.config.admission.base_backoff_ms),
        )),
    }
}

fn cmd_start(inner: &Inner, request: &JsonValue) -> String {
    let str_of = |key: &str| request.get(key).and_then(JsonValue::as_str);
    let Some(dirty) = str_of("dirty") else {
        return protocol::error_response(
            kind::INVALID,
            "start needs a dirty dataset fp",
            false,
            None,
        );
    };
    let Some(label) = str_of("label") else {
        return protocol::error_response(kind::INVALID, "start needs a label column", false, None);
    };
    let clean = str_of("clean").map(str::to_string);
    let tenant = str_of("tenant").unwrap_or("default").to_string();
    let algo = str_of("algo").unwrap_or("knn").to_string();
    if Algorithm::parse(&algo).is_none() {
        return protocol::error_response(
            kind::INVALID,
            &format!("unknown algorithm {algo:?}"),
            false,
            None,
        );
    }
    let budget = request.get("budget").and_then(JsonValue::as_f64).unwrap_or(20.0);
    let seed = match whole(request, "seed", EXACT_U64) {
        Ok(seed) => seed.unwrap_or(42),
        Err(refusal) => return refusal,
    };
    let deadline_ms = match whole(request, "deadline_ms", f64::INFINITY) {
        Ok(ms) => ms,
        Err(refusal) => return refusal,
    };
    let detect = matches!(request.get("detect"), Some(JsonValue::Bool(true)));
    if !budget.is_finite() || budget <= 0.0 {
        return protocol::error_response(kind::INVALID, "budget must be positive", false, None);
    }
    for fp in std::iter::once(dirty).chain(clean.as_deref()) {
        if let Err(e) = SessionStore::check_dataset_fp(fp) {
            return protocol::error_response(kind::INVALID, &e, false, None);
        }
        if !inner.store.dataset_path(fp).exists() {
            return protocol::error_response(
                kind::NOT_FOUND,
                &format!("dataset {fp:?} is not uploaded"),
                false,
                None,
            );
        }
    }

    // Admission under one queue lock, so the depth a decision saw is the
    // depth the enqueue acts on.
    let mut queue = lock(&inner.queue);
    let tenant_inflight = lock(&inner.sessions)
        .values()
        .filter(|e| {
            e.manifest.tenant == tenant
                && matches!(e.manifest.status.as_str(), "queued" | "running")
        })
        .count();
    if let Err(rejection) = inner.config.admission.admit(
        queue.len(),
        tenant_inflight,
        inner.draining.load(Ordering::SeqCst),
    ) {
        comet_obs::counter_add("serve.admission_rejections", 1);
        return protocol::error_response(
            rejection.kind,
            &rejection.message,
            rejection.retryable,
            rejection.backoff_ms,
        );
    }

    let id = match inner.store.allocate_id() {
        Ok(id) => id,
        Err(e) => {
            return protocol::error_response(kind::IO, &format!("allocating id: {e}"), true, None)
        }
    };
    let manifest = Manifest {
        id: id.clone(),
        tenant,
        dirty: dirty.to_string(),
        clean,
        label: label.to_string(),
        algo,
        budget,
        seed,
        detect,
        deadline_ms,
        status: "queued".into(),
        stop_reason: None,
        error: None,
    };
    // Invariant 1: persist before responding — an accepted session
    // survives any crash from here on.
    if let Err(e) = inner.store.write_manifest(&manifest) {
        return protocol::error_response(
            kind::IO,
            &format!("persisting manifest: {e}"),
            true,
            None,
        );
    }
    lock(&inner.sessions).insert(
        id.clone(),
        SessionEntry { manifest, control: SessionControl::new(), deadline: None },
    );
    queue.push_back(id.clone());
    comet_obs::counter_add("serve.sessions_accepted", 1);
    comet_obs::gauge_set("serve.queue_depth", queue.len() as f64);
    drop(queue);
    inner.queue_cv.notify_all();

    let mut ok = protocol::ok_response();
    ok.field_str("session", &id);
    ok.finish()
}

/// JSON numbers arrive as f64, so `as u64` would silently round, truncate
/// or saturate: below this (2^53) every whole number is exact, and 2^53 + 1
/// already arrives as 2^53.
const EXACT_U64: f64 = 9_007_199_254_740_992.0;

/// The optional whole-number field `key`, refused with a typed `invalid`
/// response unless it is whole and in `[0, below)`.
fn whole(request: &JsonValue, key: &str, below: f64) -> Result<Option<u64>, String> {
    match request.get(key).and_then(JsonValue::as_f64) {
        Some(v) if !(v >= 0.0 && v < below && v.fract() == 0.0) => Err(protocol::error_response(
            kind::INVALID,
            &format!("{key} must be a whole number in [0, {below})"),
            false,
            None,
        )),
        v => Ok(v.map(|v| v as u64)),
    }
}

/// The request's `session` field, refused with a typed `invalid` response
/// when it is missing or not a session id the store emits.
fn session_of<'a>(request: &'a JsonValue, cmd: &str) -> Result<&'a str, String> {
    let invalid = |message: &str| protocol::error_response(kind::INVALID, message, false, None);
    let id = request
        .get("session")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| invalid(&format!("{cmd} needs a session id")))?;
    SessionStore::check_session_id(id).map_err(|e| invalid(&e))?;
    Ok(id)
}

fn cmd_status(inner: &Inner, request: &JsonValue) -> String {
    let id = match session_of(request, "status") {
        Ok(id) => id,
        Err(refusal) => return refusal,
    };
    let sessions = lock(&inner.sessions);
    let (manifest, progress) = match sessions.get(id) {
        Some(entry) => (entry.manifest.clone(), Some(entry.control.progress())),
        // Sessions finished before a restart live only on disk.
        None => match inner.store.load_manifest(id) {
            Ok(m) => (m, None),
            Err(_) => {
                return protocol::error_response(
                    kind::NOT_FOUND,
                    &format!("no session {id:?}"),
                    false,
                    None,
                );
            }
        },
    };
    drop(sessions);
    let mut ok = protocol::ok_response();
    ok.field_str("session", id).field_str("status", &manifest.status);
    if let Some(reason) = &manifest.stop_reason {
        ok.field_str("stop_reason", reason);
    }
    if let Some(error) = &manifest.error {
        ok.field_str("error", error);
    }
    if let Some(p) = progress {
        ok.field_u64("iterations", p.iterations as u64)
            .field_f64("initial_f1", p.initial_f1)
            .field_f64("best_f1", p.best_f1)
            .field_f64("budget_spent", p.budget_spent);
    }
    ok.finish()
}

fn cmd_results(inner: &Inner, request: &JsonValue) -> String {
    let (id, from) = match (session_of(request, "results"), whole(request, "from", EXACT_U64)) {
        (Ok(id), Ok(from)) => (id, from.unwrap_or(0) as usize),
        (Err(refusal), _) | (_, Err(refusal)) => return refusal,
    };
    let sessions = lock(&inner.sessions);
    let Some(entry) = sessions.get(id) else {
        drop(sessions);
        // After a restart, a finished session's trace is only on disk.
        return match inner.store.load_manifest(id) {
            Ok(manifest) => {
                let trace_csv =
                    std::fs::read_to_string(inner.store.session_dir(id).join("trace.csv"))
                        .unwrap_or_default();
                let mut ok = protocol::ok_response();
                ok.field_str("session", id)
                    .field_str("status", &manifest.status)
                    .field_str("trace_csv", &trace_csv);
                ok.finish()
            }
            Err(_) => protocol::error_response(
                kind::NOT_FOUND,
                &format!("no session {id:?}"),
                false,
                None,
            ),
        };
    };
    let manifest = entry.manifest.clone();
    let progress = entry.control.progress();
    drop(sessions);

    // The incremental result stream: steps[from..] as JSON records. A
    // client polls with `from = records seen so far` and receives only
    // what landed since — each recommendation streams out the iteration
    // it is made.
    let steps: Vec<String> = progress
        .steps
        .iter()
        .skip(from)
        .map(|s| {
            let mut obj = JsonObject::new();
            obj.field_u64("iteration", s.iteration as u64)
                .field_u64("col", s.col as u64)
                .field_str("err", s.err.abbrev())
                .field_str("action", s.action.label())
                .field_f64("cost", s.cost)
                .field_f64("budget_spent", s.budget_spent)
                .field_f64("actual_f1", s.actual_f1);
            if let Some(p) = s.predicted_f1 {
                obj.field_f64("predicted_f1", p);
            }
            obj.finish()
        })
        .collect();
    let mut ok = protocol::ok_response();
    ok.field_str("session", id)
        .field_str("status", &manifest.status)
        .field_u64("total", progress.steps.len() as u64)
        .field_f64("initial_f1", progress.initial_f1)
        .field_f64("best_f1", progress.best_f1)
        .field_f64("budget_spent", progress.budget_spent)
        .field_raw("steps", &format!("[{}]", steps.join(",")));
    if let Some(reason) = &manifest.stop_reason {
        ok.field_str("stop_reason", reason);
    }
    ok.finish()
}

fn cmd_cancel(inner: &Inner, request: &JsonValue) -> String {
    let id = match session_of(request, "cancel") {
        Ok(id) => id,
        Err(refusal) => return refusal,
    };
    let sessions = lock(&inner.sessions);
    let Some(entry) = sessions.get(id) else {
        return protocol::error_response(
            kind::NOT_FOUND,
            &format!("no session {id:?}"),
            false,
            None,
        );
    };
    entry.control.cancel();
    let status = entry.manifest.status.clone();
    drop(sessions);
    comet_obs::counter_add("serve.cancel_requests", 1);
    let mut ok = protocol::ok_response();
    ok.field_str("session", id).field_raw("cancelled", "true").field_str("was", &status);
    ok.finish()
}

fn cmd_stats(inner: &Inner) -> String {
    let queue_depth = lock(&inner.queue).len();
    let mut ok = protocol::ok_response();
    ok.field_u64("queue_depth", queue_depth as u64)
        .field_u64("running", inner.running.load(Ordering::SeqCst) as u64)
        .field_raw("draining", if inner.draining.load(Ordering::SeqCst) { "true" } else { "false" })
        .field_raw("metrics", &comet_obs::snapshot().to_json());
    ok.finish()
}

/// Mutate one session's manifest in memory and on disk.
fn update_manifest(inner: &Inner, id: &str, apply: impl FnOnce(&mut Manifest)) {
    let mut sessions = lock(&inner.sessions);
    if let Some(entry) = sessions.get_mut(id) {
        apply(&mut entry.manifest);
        let manifest = entry.manifest.clone();
        drop(sessions);
        if let Err(e) = inner.store.write_manifest(&manifest) {
            comet_obs::counter_add("serve.manifest_write_errors", 1);
            comet_obs::journal::emit(&format!(
                "{{\"kind\":\"serve_error\",\"what\":\"manifest write {id}: {e}\"}}"
            ));
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let id = {
            let mut queue = lock(&inner.queue);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    // `running` rises under the queue lock so the drain
                    // waiter never observes empty-queue + zero-running
                    // while work is in hand-off.
                    inner.running.fetch_add(1, Ordering::SeqCst);
                    comet_obs::gauge_set("serve.queue_depth", queue.len() as f64);
                    break id;
                }
                queue = inner.queue_cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_one(inner, &id);
        inner.running.fetch_sub(1, Ordering::SeqCst);
        inner.queue_cv.notify_all();
    }
}

fn run_one(inner: &Arc<Inner>, id: &str) {
    let (manifest, control) = {
        let sessions = lock(&inner.sessions);
        match sessions.get(id) {
            Some(e) => (e.manifest.clone(), e.control.clone()),
            None => return,
        }
    };
    // A session cancelled while still queued never runs: record the stop
    // without paying for an environment build.
    if control.stop_requested() == Some(StopReason::Cancelled) {
        comet_obs::counter_add("serve.sessions_stopped", 1);
        update_manifest(inner, id, |m| {
            m.status = "stopped".into();
            m.stop_reason = Some(StopReason::Cancelled.name().into());
        });
        return;
    }

    update_manifest(inner, id, |m| m.status = "running".into());
    if let Some(ms) = manifest.deadline_ms {
        let mut sessions = lock(&inner.sessions);
        if let Some(entry) = sessions.get_mut(id) {
            entry.deadline = Some(Instant::now() + Duration::from_millis(ms));
        }
    }
    comet_obs::gauge_set("serve.running", inner.running.load(Ordering::SeqCst) as f64);

    // The busy worker occupies one slot of the global comet-par budget, so
    // daemon concurrency and per-session fan-out share a single cap.
    let _slot = comet_par::occupy_slots(1);
    // Injected long-running-session simulator: hold the worker, but let a
    // cancel (or expired deadline) release it early, like a real session
    // reaching an iteration boundary would.
    if let Some(stall_ms) = inner.config.faults.next_session_stall() {
        let until = Instant::now() + Duration::from_millis(stall_ms);
        while Instant::now() < until && control.stop_requested().is_none() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let started = Instant::now();
    let result = execute_session(inner, &manifest, control);
    comet_obs::observe_duration("serve.session_runtime", started.elapsed());

    match result {
        Ok(stop) => match stop {
            None => {
                comet_obs::counter_add("serve.sessions_completed", 1);
                update_manifest(inner, id, |m| m.status = "done".into());
            }
            Some(reason) => {
                comet_obs::counter_add("serve.sessions_stopped", 1);
                update_manifest(inner, id, |m| {
                    m.status = "stopped".into();
                    m.stop_reason = Some(reason.name().into());
                });
            }
        },
        Err(error) => {
            comet_obs::counter_add("serve.sessions_failed", 1);
            update_manifest(inner, id, |m| {
                m.status = "failed".into();
                m.error = Some(error);
            });
        }
    }
}

/// Build the environment from the manifest and run the session to its
/// end (natural, stopped, or failed). Returns the stop reason on graceful
/// early stops.
fn execute_session(
    inner: &Inner,
    manifest: &Manifest,
    control: SessionControl,
) -> Result<Option<StopReason>, String> {
    let algorithm = Algorithm::parse(&manifest.algo)
        .ok_or_else(|| format!("unknown algorithm {:?}", manifest.algo))?;
    let detect = manifest.detect.then(comet_detect::DetectorConfig::default);
    let errors =
        if detect.is_some() { ErrorType::EXTENDED.to_vec() } else { ErrorType::ALL.to_vec() };
    let config = CometConfig {
        budget: manifest.budget,
        detect,
        kernels: inner.config.kernels,
        segment_rows: inner.config.segment_rows,
        ..CometConfig::default()
    };
    let dir = inner.store.session_dir(&manifest.id);
    let checkpoint = dir.join("checkpoint.jsonl");
    let spec = CheckpointSpec { resume: checkpoint.exists(), path: checkpoint };
    // A checkpoint that cannot resume fails the session before its CSVs
    // are read and its model is tuned.
    spec.preflight(&config, &errors).map_err(|e| e.to_string())?;

    let label = Some(manifest.label.as_str());
    let dirty = read_csv(inner.store.dataset_path(&manifest.dirty), label)
        .map_err(|e| format!("dirty dataset {}: {e}", manifest.dirty))?;
    let clean = match &manifest.clean {
        Some(fp) => Some(
            read_csv(inner.store.dataset_path(fp), label)
                .map_err(|e| format!("clean dataset {fp}: {e}"))?,
        ),
        None => None,
    };

    // All session randomness flows from the manifest seed: with the
    // content-addressed datasets this makes the trace a pure function of
    // the manifest — the property the crash-recovery smoke compares.
    let mut rng = StdRng::seed_from_u64(manifest.seed);
    let mut env = build_paired_env(
        dirty,
        clean,
        algorithm,
        0.01,
        RandomSearch::default(),
        7,
        inner.config.segment_rows,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    if let Some(budget) = inner.config.memory_budget {
        env.set_feature_cache_budget((budget / 4).max(1) as usize);
    }

    let mut session =
        CleaningSession::new(config, errors).with_checkpoint(spec).with_control(control);
    if let Some(faults) = inner.config.faults.session_faults() {
        session = session.with_faults(faults);
    }
    let outcome = session.run(&mut env, &mut rng).map_err(|e| e.to_string())?;

    // Persist the result next to the checkpoint: the trace as CSV (the
    // artifact the CI smoke compares byte-for-byte) and a summary.
    let trace_csv = outcome.trace.to_csv(Some(env.train()));
    std::fs::write(dir.join("trace.csv"), trace_csv).map_err(|e| format!("trace.csv: {e}"))?;
    let mut summary = JsonObject::new();
    summary
        .field_str("session", &manifest.id)
        .field_f64("initial_f1", outcome.trace.initial_f1)
        .field_f64("final_f1", outcome.trace.final_f1)
        .field_u64("steps", outcome.trace.records.len() as u64)
        .field_u64("failures", outcome.trace.failures.len() as u64);
    if let Some(reason) = outcome.stop {
        summary.field_str("stop", reason.name());
    }
    std::fs::write(dir.join("outcome.json"), summary.finish())
        .map_err(|e| format!("outcome.json: {e}"))?;
    Ok(outcome.stop)
}

/// Deadline expiry + periodic serve report, on one slow tick.
fn supervisor_loop(inner: &Arc<Inner>) {
    let mut last_report = Instant::now();
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        let now = Instant::now();
        {
            let sessions = lock(&inner.sessions);
            for entry in sessions.values() {
                if entry.manifest.status == "running" {
                    if let Some(deadline) = entry.deadline {
                        if now >= deadline {
                            // The session sees this at its next iteration
                            // boundary and stops gracefully.
                            entry.control.expire_deadline();
                            comet_obs::counter_add("serve.deadlines_expired", 1);
                        }
                    }
                }
            }
        }
        if comet_obs::journal::has_sink()
            && now.duration_since(last_report) >= inner.config.report_every
        {
            last_report = now;
            emit_serve_report(inner, "periodic");
        }
    }
}

/// One journal line summarizing the daemon: queue depth, running count,
/// and the full metrics snapshot.
fn emit_serve_report(inner: &Inner, trigger: &str) {
    let mut obj = JsonObject::new();
    obj.field_str("kind", "serve_report")
        .field_str("trigger", trigger)
        .field_u64("queue_depth", lock(&inner.queue).len() as u64)
        .field_u64("running", inner.running.load(Ordering::SeqCst) as u64)
        .field_raw("metrics", &comet_obs::snapshot().to_json());
    comet_obs::journal::emit(&obj.finish());
}
