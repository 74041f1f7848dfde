//! Integration tests: a real daemon on a real socket, driven by the
//! protocol client — session lifecycle, admission pressure, deadlines,
//! crash recovery, and injected service faults.

use comet_obs::json::{JsonObject, JsonValue};
use comet_serve::protocol::kind;
use comet_serve::{
    AdmissionConfig, Client, Daemon, Manifest, ServeConfig, ServeFault, ServeFaultPlan,
    SessionStore,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet_serve_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small separable dataset and a copy with 25 % of `f1` missing.
fn csv_pair(rows: usize) -> (String, String) {
    let mut clean = String::from("f1,f2,y\n");
    let mut dirty = String::from("f1,f2,y\n");
    for i in 0..rows {
        let c = i % 2;
        let jitter = ((i * 37) % 101) as f64 / 101.0 - 0.5;
        let f1 = if c == 0 { -2.0 } else { 2.0 } + jitter;
        let f2 = ((i * 13) % 17) as f64 / 17.0;
        let y = if c == 0 { "no" } else { "yes" };
        clean.push_str(&format!("{f1:.4},{f2:.4},{y}\n"));
        if i % 4 == 0 {
            dirty.push_str(&format!(",{f2:.4},{y}\n"));
        } else {
            dirty.push_str(&format!("{f1:.4},{f2:.4},{y}\n"));
        }
    }
    (dirty, clean)
}

fn start_daemon(
    root: &Path,
    workers: usize,
    max_queued: usize,
    faults: Arc<ServeFaultPlan>,
) -> Daemon {
    Daemon::start(ServeConfig {
        root: root.to_path_buf(),
        workers,
        admission: AdmissionConfig { max_queued, per_tenant_cap: 8, base_backoff_ms: 10 },
        port: 0,
        faults,
        report_every: Duration::from_secs(3600),
        ..ServeConfig::default()
    })
    .unwrap()
}

fn upload_req(csv: &str) -> String {
    let mut o = JsonObject::new();
    o.field_str("cmd", "upload").field_str("csv", csv);
    o.finish()
}

fn start_req(dirty: &str, clean: &str, budget: f64, seed: u64, deadline_ms: Option<u64>) -> String {
    let mut o = JsonObject::new();
    o.field_str("cmd", "start")
        .field_str("dirty", dirty)
        .field_str("clean", clean)
        .field_str("label", "y")
        .field_str("algo", "knn")
        .field_str("tenant", "t1")
        .field_f64("budget", budget)
        .field_u64("seed", seed);
    if let Some(ms) = deadline_ms {
        o.field_u64("deadline_ms", ms);
    }
    o.finish()
}

fn session_req(cmd: &str, id: &str) -> String {
    let mut o = JsonObject::new();
    o.field_str("cmd", cmd).field_str("session", id);
    o.finish()
}

fn str_field(v: &JsonValue, name: &str) -> String {
    v.get(name).and_then(JsonValue::as_str).unwrap_or_default().to_string()
}

/// Poll `status` until the predicate holds; panic after ~30 s.
fn wait_status(client: &mut Client, id: &str, pred: impl Fn(&JsonValue) -> bool) -> JsonValue {
    let mut last = String::new();
    for _ in 0..6000 {
        let v = client.request_ok(&session_req("status", id)).expect("status request");
        if pred(&v) {
            return v;
        }
        last = str_field(&v, "status");
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("session {id} did not reach the expected status (last seen {last:?})");
}

fn upload_pair(client: &mut Client, rows: usize) -> (String, String) {
    let (dirty_csv, clean_csv) = csv_pair(rows);
    let dirty = str_field(&client.request_ok(&upload_req(&dirty_csv)).unwrap(), "dataset");
    let clean = str_field(&client.request_ok(&upload_req(&clean_csv)).unwrap(), "dataset");
    (dirty, clean)
}

#[test]
fn full_session_lifecycle_over_the_wire() {
    let root = temp_root("lifecycle");
    let daemon = start_daemon(&root, 2, 8, ServeFaultPlan::new(Vec::new()));
    let mut client = Client::connect(daemon.port()).unwrap();

    // ping
    let pong = client.request_ok("{\"cmd\":\"ping\"}").unwrap();
    assert!(matches!(pong.get("pong"), Some(JsonValue::Bool(true))));

    // upload both dataset versions; re-upload is idempotent.
    let (dirty, clean) = upload_pair(&mut client, 120);
    let again = str_field(&client.request_ok(&upload_req(&csv_pair(120).0)).unwrap(), "dataset");
    assert_eq!(again, dirty, "content-addressed uploads are idempotent");

    // starting with an unknown dataset is a typed not-found.
    match client.request_ok(&start_req("feedfacefeedface", &clean, 3.0, 11, None)) {
        Err(comet_serve::client::ClientError::Server(e)) => assert_eq!(e.kind, kind::NOT_FOUND),
        other => panic!("expected not-found, got {other:?}"),
    }
    // an unknown command is a typed invalid.
    match client.request_ok("{\"cmd\":\"meteor\"}") {
        Err(comet_serve::client::ClientError::Server(e)) => assert_eq!(e.kind, kind::INVALID),
        other => panic!("expected invalid, got {other:?}"),
    }

    // start a real session and watch it finish.
    let started = client.request_ok(&start_req(&dirty, &clean, 3.0, 11, None)).unwrap();
    let id = str_field(&started, "session");
    assert_eq!(id, "s00000001", "ids are monotonic from 1");
    let done = wait_status(&mut client, &id, |v| str_field(v, "status") == "done");
    assert!(done.get("iterations").and_then(JsonValue::as_f64).unwrap_or(0.0) >= 1.0);

    // results stream: full fetch, then an incremental fetch past the end.
    let results = client.request_ok(&session_req("results", &id)).unwrap();
    let total = results.get("total").and_then(JsonValue::as_f64).unwrap() as usize;
    assert!(total >= 1, "a finished session has recommendation steps");
    let steps = match results.get("steps") {
        Some(JsonValue::Arr(items)) => items.len(),
        other => panic!("steps must be an array, got {other:?}"),
    };
    assert_eq!(steps, total);
    let mut more = JsonObject::new();
    more.field_str("cmd", "results").field_str("session", &id).field_u64("from", total as u64);
    let tail = client.request_ok(&more.finish()).unwrap();
    match tail.get("steps") {
        Some(JsonValue::Arr(items)) => assert!(items.is_empty(), "nothing new past the end"),
        other => panic!("steps must be an array, got {other:?}"),
    }

    // the store holds the full artifact set.
    let dir = root.join("sessions").join(&id);
    for artifact in ["manifest.json", "checkpoint.jsonl", "trace.csv", "outcome.json"] {
        assert!(dir.join(artifact).exists(), "missing {artifact}");
    }

    // stats exposes queue/running and the metrics snapshot.
    let stats = client.request_ok("{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.get("queue_depth").is_some());
    assert!(stats.get("metrics").is_some());

    // drain: the daemon confirms, then shuts down.
    let drained = client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    assert!(matches!(drained.get("drained"), Some(JsonValue::Bool(true))));
    daemon.join();
}

#[test]
fn kept_open_connection_answers_without_ack_stalls() {
    // A frame written as two segments (length, then payload) waits on the
    // peer's delayed ACK, ~40 ms per request on a kept-open connection.
    // Twenty pings on one connection must finish well inside that.
    let root = temp_root("keepalive");
    let daemon = start_daemon(&root, 1, 4, Arc::new(ServeFaultPlan::default()));
    let mut client = Client::connect(daemon.port()).unwrap();
    client.request_ok("{\"cmd\":\"ping\"}").unwrap();
    let started = Instant::now();
    for _ in 0..20 {
        client.request_ok("{\"cmd\":\"ping\"}").unwrap();
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(400), "20 pings took {elapsed:?}");
    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deeply_nested_frame_is_a_typed_invalid_not_an_abort() {
    // 100,000 `[` is a 100 KB frame, far under the frame cap; an unbounded
    // recursive parser overflows the connection thread's stack on it and
    // aborts the daemon with every tenant's sessions.
    let root = temp_root("nested");
    let daemon = start_daemon(&root, 1, 4, Arc::new(ServeFaultPlan::default()));
    let mut client = Client::connect(daemon.port()).unwrap();
    match client.request_ok(&"[".repeat(100_000)) {
        Err(comet_serve::client::ClientError::Server(e)) => assert_eq!(e.kind, kind::INVALID),
        other => panic!("expected invalid, got {other:?}"),
    }
    let pong = client.request_ok("{\"cmd\":\"ping\"}").unwrap();
    assert!(matches!(pong.get("pong"), Some(JsonValue::Bool(true))));
    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn start_refuses_seeds_and_deadlines_it_cannot_store_exactly() {
    // JSON numbers are f64s: 2^53 + 1 arrives as 2^53, and a cast to u64
    // silently rounds 1.5, clamps -5 and saturates 1e300. Each must be a
    // typed `invalid` naming its field instead.
    let root = temp_root("start_numbers");
    let daemon = start_daemon(&root, 1, 4, Arc::new(ServeFaultPlan::default()));
    let mut client = Client::connect(daemon.port()).unwrap();
    let start = |field: &str, value: &str| {
        format!(
            "{{\"cmd\":\"start\",\"dirty\":\"0000000000000000\",\"label\":\"y\",\"{field}\":{value}}}"
        )
    };
    let bad = [
        ("seed", "-5"),
        ("seed", "1.5"),
        ("seed", "1e300"),
        ("seed", "9007199254740993"),
        ("deadline_ms", "-1"),
    ];
    for (field, value) in bad {
        match client.request_ok(&start(field, value)) {
            Err(comet_serve::client::ClientError::Server(e)) => {
                assert_eq!(e.kind, kind::INVALID, "{field}={value}: {}", e.message);
                assert!(e.message.contains(field), "{field}={value}: {}", e.message);
            }
            other => panic!("{field}={value}: expected invalid, got {other:?}"),
        }
    }
    // 2^53 - 1 is exact, so it passes validation and fails on the missing
    // dataset instead.
    match client.request_ok(&start("seed", "9007199254740991")) {
        Err(comet_serve::client::ClientError::Server(e)) => assert_eq!(e.kind, kind::NOT_FOUND),
        other => panic!("expected not-found, got {other:?}"),
    }
    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn wire_ids_and_offsets_are_validated_before_use() {
    // A dataset fp or session id from the wire becomes a store path, so
    // only the shapes the store emits may pass: a `../` fp used to read a
    // CSV from outside the store and run a session on it.
    let root = temp_root("wire_ids");
    let outside = root.join("outside");
    std::fs::create_dir_all(&outside).unwrap();
    std::fs::write(outside.join("secret.csv"), csv_pair(40).1).unwrap();
    let daemon = start_daemon(&root.join("store"), 1, 4, Arc::new(ServeFaultPlan::default()));
    let mut client = Client::connect(daemon.port()).unwrap();
    let (dirty, clean) = upload_pair(&mut client, 120);
    let expect_invalid = |client: &mut Client, request: &str| match client.request_ok(request) {
        Err(comet_serve::client::ClientError::Server(e)) => {
            assert_eq!(e.kind, kind::INVALID, "{request}: {}", e.message)
        }
        other => panic!("{request}: expected invalid, got {other:?}"),
    };
    expect_invalid(&mut client, &start_req("../../outside/secret", &clean, 3.0, 11, None));
    expect_invalid(&mut client, &start_req(&dirty, "../../outside/secret", 3.0, 11, None));
    for cmd in ["status", "results", "cancel"] {
        expect_invalid(&mut client, &session_req(cmd, "../x"));
    }

    // `from` is a whole number like `seed`: -1 used to read as 0 and 1.5
    // as 1.
    let id = str_field(
        &client.request_ok(&start_req(&dirty, &clean, 3.0, 11, None)).unwrap(),
        "session",
    );
    wait_status(&mut client, &id, |v| str_field(v, "status") == "done");
    for from in ["-1", "1.5"] {
        let request = format!("{{\"cmd\":\"results\",\"session\":\"{id}\",\"from\":{from}}}");
        expect_invalid(&mut client, &request);
    }
    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn admission_rejects_under_pressure_and_recovers_after_cancel() {
    let root = temp_root("admission");
    // One worker, one queue slot, and a long-running-session simulator
    // pinned to the first execution: the third start must bounce.
    let stall = ServeFaultPlan::new(vec![ServeFault::SessionStall { nth: 1, stall_ms: 60_000 }]);
    let daemon = start_daemon(&root, 1, 1, stall);
    let mut client = Client::connect(daemon.port()).unwrap();
    let (dirty, clean) = upload_pair(&mut client, 120);

    // s1 occupies the worker (the stall holds it until cancelled).
    let s1 =
        str_field(&client.request_ok(&start_req(&dirty, &clean, 3.0, 1, None)).unwrap(), "session");
    wait_status(&mut client, &s1, |v| str_field(v, "status") == "running");
    // s2 fills the queue.
    let s2 =
        str_field(&client.request_ok(&start_req(&dirty, &clean, 3.0, 2, None)).unwrap(), "session");

    // s3 is rejected: typed, retryable, with a backoff hint.
    let rejection = match client.request_ok(&start_req(&dirty, &clean, 3.0, 3, None)) {
        Err(comet_serve::client::ClientError::Server(e)) => e,
        other => panic!("expected queue-full, got {other:?}"),
    };
    assert_eq!(rejection.kind, kind::QUEUE_FULL);
    assert!(rejection.retryable);
    assert!(rejection.backoff_ms.is_some());

    // Free capacity, then the retry loop gets s3 in. Order matters: s2 is
    // cancelled first, while the worker is still pinned on s1 — cancelling
    // s1 first would free the worker to grab s2 before its cancel lands.
    client.request_ok(&session_req("cancel", &s2)).unwrap();
    client.request_ok(&session_req("cancel", &s1)).unwrap();
    let accepted =
        client.request_with_retry(&start_req(&dirty, &clean, 3.0, 3, None), 1000).unwrap();
    let s3 = str_field(&accepted, "session");
    assert_eq!(s3, "s00000003");

    // everything settles: s1/s2 stopped by cancel, s3 runs to done.
    wait_status(&mut client, &s1, |v| str_field(v, "status") == "stopped");
    let stopped = wait_status(&mut client, &s2, |v| str_field(v, "status") == "stopped");
    assert_eq!(str_field(&stopped, "stop_reason"), "cancelled");
    wait_status(&mut client, &s3, |v| str_field(v, "status") == "done");

    // while draining, new starts are rejected non-retryably.
    let drained = client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    assert!(matches!(drained.get("drained"), Some(JsonValue::Bool(true))));
    daemon.join();
}

#[test]
fn deadlines_stop_sessions_with_a_partial_result() {
    let root = temp_root("deadline");
    // The stall keeps the session alive past the supervisor's first tick,
    // so the 1 ms deadline reliably expires a *running* session; the stall
    // itself aborts on the expiry, like an iteration boundary would.
    let stall = ServeFaultPlan::new(vec![ServeFault::SessionStall { nth: 1, stall_ms: 60_000 }]);
    let daemon = start_daemon(&root, 1, 8, stall);
    let mut client = Client::connect(daemon.port()).unwrap();
    let (dirty, clean) = upload_pair(&mut client, 120);

    // A 1 ms deadline on an unbounded budget: the supervisor must expire
    // it and the session must stop gracefully at an iteration boundary.
    let id = str_field(
        &client.request_ok(&start_req(&dirty, &clean, 500.0, 4, Some(1))).unwrap(),
        "session",
    );
    let stopped = wait_status(&mut client, &id, |v| str_field(v, "status") == "stopped");
    assert_eq!(str_field(&stopped, "stop_reason"), "deadline-exceeded");

    // The partial result is persisted like a finished one.
    let dir = root.join("sessions").join(&id);
    assert!(dir.join("trace.csv").exists());
    let outcome = std::fs::read_to_string(dir.join("outcome.json")).unwrap();
    assert!(outcome.contains("deadline-exceeded"), "{outcome}");
    let manifest =
        Manifest::parse(&std::fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
    assert_eq!(manifest.status, "stopped");
    assert_eq!(manifest.stop_reason.as_deref(), Some("deadline-exceeded"));

    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
}

#[test]
fn restart_resumes_interrupted_sessions_bit_identically() {
    // Reference run: one session, uninterrupted, over the wire.
    let root_a = temp_root("recovery_ref");
    let daemon = start_daemon(&root_a, 1, 8, ServeFaultPlan::new(Vec::new()));
    let mut client = Client::connect(daemon.port()).unwrap();
    let (dirty_csv, clean_csv) = csv_pair(120);
    let dirty = str_field(&client.request_ok(&upload_req(&dirty_csv)).unwrap(), "dataset");
    let clean = str_field(&client.request_ok(&upload_req(&clean_csv)).unwrap(), "dataset");
    let id =
        str_field(&client.request_ok(&start_req(&dirty, &clean, 4.0, 9, None)).unwrap(), "session");
    wait_status(&mut client, &id, |v| str_field(v, "status") == "done");
    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
    let reference_trace =
        std::fs::read_to_string(root_a.join("sessions").join(&id).join("trace.csv")).unwrap();
    let full_checkpoint =
        std::fs::read_to_string(root_a.join("sessions").join(&id).join("checkpoint.jsonl"))
            .unwrap();
    let manifest = Manifest::parse(
        &std::fs::read_to_string(root_a.join("sessions").join(&id).join("manifest.json")).unwrap(),
    )
    .unwrap();

    // Simulate a daemon killed mid-session: a store whose manifest still
    // says "running" and whose checkpoint holds only a prefix of the work.
    let root_b = temp_root("recovery_cut");
    let store = SessionStore::open(&root_b).unwrap();
    assert_eq!(store.put_dataset(&dirty_csv).unwrap(), dirty);
    assert_eq!(store.put_dataset(&clean_csv).unwrap(), clean);
    let mut interrupted = manifest.clone();
    interrupted.status = "running".into();
    store.write_manifest(&interrupted).unwrap();
    let lines: Vec<&str> = full_checkpoint.lines().collect();
    assert!(lines.len() >= 3, "reference checkpoint too short to cut: {} lines", lines.len());
    let cut = lines[..lines.len() / 2 + 1].join("\n") + "\n";
    std::fs::write(store.session_dir(&id).join("checkpoint.jsonl"), cut).unwrap();

    // Restart on the interrupted store: the session is re-enqueued,
    // resumed from the checkpoint, and finishes with the identical trace.
    let daemon = start_daemon(&root_b, 1, 8, ServeFaultPlan::new(Vec::new()));
    let mut client = Client::connect(daemon.port()).unwrap();
    wait_status(&mut client, &id, |v| str_field(v, "status") == "done");
    let resumed_trace =
        std::fs::read_to_string(root_b.join("sessions").join(&id).join("trace.csv")).unwrap();
    assert_eq!(resumed_trace, reference_trace, "recovery must lose no work and invent none");

    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
}

#[test]
fn unresumable_checkpoints_fail_before_the_datasets_are_read() {
    // A real checkpoint, from a budget-4 session.
    let root_a = temp_root("preflight_ref");
    let daemon = start_daemon(&root_a, 1, 8, ServeFaultPlan::new(Vec::new()));
    let mut client = Client::connect(daemon.port()).unwrap();
    let (dirty, clean) = upload_pair(&mut client, 120);
    let id =
        str_field(&client.request_ok(&start_req(&dirty, &clean, 4.0, 9, None)).unwrap(), "session");
    wait_status(&mut client, &id, |v| str_field(v, "status") == "done");
    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
    let session_a = root_a.join("sessions").join(&id);
    let checkpoint = std::fs::read_to_string(session_a.join("checkpoint.jsonl")).unwrap();
    assert!(checkpoint.contains("\"version\":4"), "{checkpoint}");
    let manifest =
        Manifest::parse(&std::fs::read_to_string(session_a.join("manifest.json")).unwrap())
            .unwrap();

    // Two interrupted sessions in a store without their datasets: reading
    // them would fail the session with another error.
    let root_b = temp_root("preflight_refused");
    let store = SessionStore::open(&root_b).unwrap();
    let interrupted = |id: &str, budget: f64, checkpoint: String| {
        let m = Manifest { id: id.into(), budget, status: "running".into(), ..manifest.clone() };
        store.write_manifest(&m).unwrap();
        std::fs::write(store.session_dir(id).join("checkpoint.jsonl"), checkpoint).unwrap();
    };
    interrupted("s00000001", 2.0, checkpoint.clone());
    interrupted("s00000002", 4.0, checkpoint.replacen("\"version\":4", "\"version\":3", 1));

    let daemon = start_daemon(&root_b, 1, 8, ServeFaultPlan::new(Vec::new()));
    let mut client = Client::connect(daemon.port()).unwrap();
    for (id, expected) in [
        ("s00000001", "`budget` (checkpoint 4.0, session 2.0)"),
        ("s00000002", "checkpoint header version 3 is not supported"),
    ] {
        let status = wait_status(&mut client, id, |v| str_field(v, "status") == "failed");
        let error = str_field(&status, "error");
        assert!(error.starts_with("checkpoint error: "), "{id}: {error}");
        assert!(error.contains(expected), "{id}: {error}");
    }
    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
}

#[test]
fn injected_service_faults_disconnect_and_stall() {
    let root = temp_root("faults");
    let plan = ServeFaultPlan::new(vec![
        // 2nd request (the first upload below) drops mid-upload; 3rd
        // request (the retried upload) stalls 50 ms then succeeds.
        ServeFault::UploadDisconnect { nth: 1 },
        ServeFault::SlowClient { nth: 3, delay_ms: 50 },
    ]);
    let daemon = start_daemon(&root, 1, 8, plan);
    let mut client = Client::connect(daemon.port()).unwrap();
    client.request_ok("{\"cmd\":\"ping\"}").unwrap();

    // The first upload is dropped without a response: the client sees a
    // clean close, not a hang and not garbage.
    let (dirty_csv, _) = csv_pair(40);
    match client.request(&upload_req(&dirty_csv)) {
        Err(comet_serve::client::ClientError::Io(_)) => {}
        other => panic!("expected a dropped connection, got {other:?}"),
    }

    // Reconnect and retry: the slow-client stall delays but does not harm.
    let mut client = Client::connect(daemon.port()).unwrap();
    let begun = std::time::Instant::now();
    let fp = str_field(&client.request_ok(&upload_req(&dirty_csv)).unwrap(), "dataset");
    assert!(!fp.is_empty());
    assert!(begun.elapsed() >= Duration::from_millis(50), "staged stall must apply");

    client.request_ok("{\"cmd\":\"drain\"}").unwrap();
    daemon.join();
}
