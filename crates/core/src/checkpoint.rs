//! Session checkpoint/resume.
//!
//! While a session runs with a [`CheckpointSpec`], it appends one JSONL
//! verification record per outer-loop iteration (flushed per line, so a
//! killed process loses at most the line it was writing). A resumed
//! session replays from iteration 0 by recomputing every iteration; the
//! determinism contract (threads, segment sizes, spill) makes the replay
//! bit-identical to the interrupted run. Each replayed iteration is
//! verified against its stored record (trace fingerprint, budget, rng draw
//! count, record count); any divergence is a [`CometError::Checkpoint`],
//! never a silently different result.
//!
//! The first line is the header,
//! `{"kind":"checkpoint_header","version":4,"identity":{…}}`: the run's
//! whole [`SessionIdentity`]. A resume compares it field by field with the
//! resuming session's and names every mismatch in one error.
//!
//! All `u64` identities (seeds, fingerprints) are serialized as 16-digit
//! hex *strings*: the journal's JSON parser reads numbers as `f64`, which
//! only carries 53 bits.

use crate::config::CometConfig;
use crate::env::{CleaningEnvironment, ModelSpec};
use crate::error::CometError;
use crate::faults::FaultPlan;
use crate::session::MAX_RETRIES;
use crate::trace::CleaningTrace;
use comet_jenga::ErrorType;
use comet_obs::json::{self, JsonObject, JsonValue};
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The header format this build writes, and the only one it reads.
const HEADER_VERSION: u64 = 4;

/// Where a session persists its progress, and whether to resume from an
/// existing file first.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file (JSONL, rewritten on every run).
    pub path: PathBuf,
    /// Load the file and resume the interrupted run it records.
    pub resume: bool,
}

impl CheckpointSpec {
    /// Refuse a resume that cannot succeed, before the caller reads data
    /// or tunes a model. The checkpoint must load (a header of this
    /// build's version) and record the same candidate error set and
    /// [`CometConfig`] as the resuming session; the error is the
    /// [`CometError::Checkpoint`] the session would raise after all that
    /// work. The session still checks its whole identity: the session seed
    /// and the environment's settings exist only once the data is read.
    /// A spec that does not resume always passes.
    pub fn preflight(&self, config: &CometConfig, errors: &[ErrorType]) -> Result<(), CometError> {
        if !self.resume {
            return Ok(());
        }
        let settings = SessionIdentity::settings(errors, config);
        let recorded = load(&self.path)?.identity.0.into_iter();
        let known = recorded.filter(|(name, _)| settings.0.contains_key(name));
        settings.check_resume(&SessionIdentity(known.collect()))
    }
}

fn mix(h: u64, w: u64) -> u64 {
    const M: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    (h.rotate_left(5) ^ w).wrapping_mul(M)
}

fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = mix(h, b as u64);
    }
    h
}

/// Everything that must match for a checkpoint to be resumable, as
/// `(field name, canonical string)` entries: the session seed (16-digit
/// hex), the candidate error set, every [`CometConfig`] field, and the
/// environment's evaluation settings — algorithm, tuned hyperparameters,
/// metric, evaluation seed and step sizes — each by its derived `Debug`.
/// The environment's entries make a resume under another model fail up
/// front, naming the setting; without them it would fail only at the first
/// trace-fingerprint check, after recomputing iteration 0.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionIdentity(BTreeMap<String, String>);

/// `(field name, Debug)` of each listed field of a `$ty`. The
/// destructuring pattern has no `..`: a field missing from the list is a
/// compile error, so no field can escape the identity.
macro_rules! entries {
    ($ty:ident, $value:expr; $($field:ident),* $(,)?) => {{
        let $ty { $($field),* } = $value;
        [$((stringify!($field), format!("{:?}", $field))),*]
    }};
}

impl SessionIdentity {
    pub(crate) fn new(
        session_seed: u64,
        errors: &[ErrorType],
        config: &CometConfig,
        env: &CleaningEnvironment,
    ) -> Self {
        let model = entries!(ModelSpec, env.model(); algorithm, params);
        let evaluation = [
            ("metric", format!("{:?}", env.metric())),
            ("eval_seed", format!("{:?}", env.eval_seed())),
            ("step_train", format!("{:?}", env.step_train())),
            ("step_test", format!("{:?}", env.step_test())),
            ("session_seed", hex_u64(session_seed)),
        ];
        let mut identity = Self::settings(errors, config);
        identity.0.extend(model.into_iter().chain(evaluation).map(|(k, v)| (k.to_string(), v)));
        identity
    }

    /// The entries known before any data is read: the candidate error set
    /// and every [`CometConfig`] field.
    fn settings(errors: &[ErrorType], config: &CometConfig) -> Self {
        let config = entries!(CometConfig, config;
            pollution_steps, n_combinations, budget, costs, interval, blr_degree,
            use_uncertainty, bias_correction, revert_on_decrease, fallback, kernels,
            f32_probes, detect, segment_rows,
        );
        let entries = [("errors", format!("{errors:?}"))].into_iter().chain(config);
        SessionIdentity(entries.map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for (name, value) in &self.0 {
            obj.field_str(name, value);
        }
        obj.finish()
    }

    fn from_json(value: Option<&JsonValue>) -> Result<Self, CometError> {
        let fields = value
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| CometError::Checkpoint("checkpoint header has no identity".into()))?;
        let entry = |(name, value): &(String, JsonValue)| {
            let value = value.as_str().ok_or_else(|| {
                CometError::Checkpoint(format!("identity field {name:?} is not a string"))
            })?;
            Ok((name.clone(), value.to_string()))
        };
        fields.iter().map(entry).collect::<Result<_, _>>().map(SessionIdentity)
    }

    /// Every field that differs from `recorded`, with both values. A field
    /// present on one side only is a mismatch too.
    fn mismatches(&self, recorded: &SessionIdentity) -> Vec<String> {
        let names: BTreeSet<&String> = self.0.keys().chain(recorded.0.keys()).collect();
        let shown = |v: Option<&String>| v.map_or("<absent>", String::as_str).to_string();
        names
            .into_iter()
            .filter(|&name| self.0.get(name) != recorded.0.get(name))
            .map(|name| {
                let (was, now) = (shown(recorded.0.get(name)), shown(self.0.get(name)));
                format!("`{name}` (checkpoint {was}, session {now})")
            })
            .collect()
    }

    /// Refuse to resume a checkpoint recorded under another identity,
    /// naming every mismatch in one error.
    fn check_resume(&self, recorded: &SessionIdentity) -> Result<(), CometError> {
        let mismatches = self.mismatches(recorded);
        if mismatches.is_empty() {
            return Ok(());
        }
        Err(CometError::Checkpoint(format!(
            "refusing to resume: the session identity (seed, candidate errors, config and \
             evaluation settings) differs from the checkpoint's in {}",
            mismatches.join(", ")
        )))
    }
}

/// Fingerprint of every decision the trace has accumulated so far —
/// records, failures, and the F1 curve, bit-exact (f64s hashed by their
/// bit patterns). Divergence detection during resume replay.
pub(crate) fn trace_fingerprint(trace: &CleaningTrace) -> u64 {
    let mut h = 0x7_2A_CEu64;
    for r in &trace.records {
        h = mix(h, r.iteration as u64);
        h = mix(h, r.col as u64);
        h = mix(h, r.err as u64);
        h = mix_bytes(h, format!("{:?}", r.action).as_bytes());
        h = mix(h, r.cost.to_bits());
        h = mix(h, r.budget_spent.to_bits());
        h = mix(h, r.predicted_f1.map_or(u64::MAX, f64::to_bits));
        h = mix(h, r.raw_predicted_f1.map_or(u64::MAX, f64::to_bits));
        h = mix(h, r.actual_f1.to_bits());
        h = mix(h, r.cleaned_cells as u64);
    }
    for f in &trace.failures {
        h = mix(h, f.iteration as u64);
        h = mix(h, f.col as u64);
        h = mix(h, f.err as u64);
        h = mix_bytes(h, f.reason.as_bytes());
        h = mix(h, f.retries as u64);
    }
    for &(spent, f1) in &trace.f1_curve {
        h = mix(h, spent.to_bits());
        h = mix(h, f1.to_bits());
    }
    h
}

pub(crate) fn hex_u64(v: u64) -> String {
    format!("{v:016x}")
}

pub(crate) fn parse_hex(s: &str) -> Result<u64, CometError> {
    u64::from_str_radix(s, 16)
        .map_err(|e| CometError::Checkpoint(format!("bad hex value {s:?}: {e}")))
}

/// An rng adapter that counts draws. The per-iteration draw count goes
/// into the checkpoint, giving resume verification a cheap view of the
/// session's sequential randomness consumption.
pub(crate) struct CountingRng<'a, R: RngCore> {
    inner: &'a mut R,
    draws: u64,
}

impl<'a, R: RngCore> CountingRng<'a, R> {
    pub fn new(inner: &'a mut R) -> Self {
        CountingRng { inner, draws: 0 }
    }

    /// Draws consumed so far (each `next_u32`/`next_u64`/`fill_bytes`
    /// call counts as one).
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

impl<R: RngCore> RngCore for CountingRng<'_, R> {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += 1;
        self.inner.fill_bytes(dest);
    }
}

/// One iteration's stored verification record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IterationCheckpoint {
    pub iteration: usize,
    /// Cumulative budget spent after this iteration.
    pub budget_spent: f64,
    /// Cumulative sequential rng draws after this iteration.
    pub rng_draws: u64,
    /// Total trace records after this iteration.
    pub records: usize,
    /// [`trace_fingerprint`] after this iteration.
    pub trace_fp: u64,
}

/// Everything a checkpoint file holds.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointData {
    pub identity: SessionIdentity,
    pub iterations: Vec<IterationCheckpoint>,
}

/// Appends checkpoint records, one flushed JSONL line each.
pub(crate) struct CheckpointWriter {
    out: BufWriter<File>,
    faults: Option<Arc<FaultPlan>>,
    /// The interrupted run's iteration records, which a resumed replay
    /// must reproduce (empty unless resuming).
    replay: Vec<IterationCheckpoint>,
}

impl CheckpointWriter {
    /// Open a session's checkpoint. On resume, load the interrupted run
    /// and refuse it unless its identity matches `identity` field by field;
    /// its iteration records are what [`Self::commit`] verifies the
    /// recomputed replay against. Either way the file is then rewritten
    /// from scratch. A planned `CheckpointWriteError` in `faults` fires
    /// from inside [`Self::write_iteration`], so an injected failure
    /// travels the production I/O error path.
    pub fn open(
        spec: &CheckpointSpec,
        identity: &SessionIdentity,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<Self, CometError> {
        let mut replay = Vec::new();
        if spec.resume {
            let data = load(&spec.path)?;
            identity.check_resume(&data.identity)?;
            replay = data.iterations;
        }
        let mut writer = CheckpointWriter::create(&spec.path, identity)?;
        writer.faults = faults;
        writer.replay = replay;
        Ok(writer)
    }

    /// Create (truncate) the checkpoint file and write its header.
    pub fn create(path: &Path, identity: &SessionIdentity) -> Result<Self, CometError> {
        let file = File::create(path).map_err(|e| {
            CometError::Checkpoint(format!("cannot create {}: {e}", path.display()))
        })?;
        let mut writer =
            CheckpointWriter { out: BufWriter::new(file), faults: None, replay: Vec::new() };
        let mut obj = JsonObject::new();
        obj.field_str("kind", "checkpoint_header")
            .field_u64("version", HEADER_VERSION)
            .field_raw("identity", &identity.to_json());
        writer.write_line(&obj.finish())?;
        Ok(writer)
    }

    fn write_line(&mut self, line: &str) -> Result<(), CometError> {
        self.out
            .write_all(line.as_bytes())
            .and_then(|_| self.out.write_all(b"\n"))
            .and_then(|_| self.out.flush())
            .map_err(|e| CometError::Checkpoint(format!("write failed: {e}")))
    }

    /// Persist one completed iteration.
    pub fn write_iteration(&mut self, record: &IterationCheckpoint) -> Result<(), CometError> {
        if let Some(plan) = &self.faults {
            if plan.arm_checkpoint(record.iteration) {
                return Err(CometError::Checkpoint(format!(
                    "injected checkpoint write failure at iteration {}",
                    record.iteration
                )));
            }
        }
        let mut obj = JsonObject::new();
        obj.field_str("kind", "checkpoint_iteration")
            .field_u64("iteration", record.iteration as u64)
            .field_f64("budget_spent", record.budget_spent)
            .field_u64("rng_draws", record.rng_draws)
            .field_u64("records", record.records as u64)
            .field_str("trace_fp", &hex_u64(record.trace_fp));
        self.write_line(&obj.finish())
    }

    /// Verify a completed iteration against the interrupted run's record
    /// (when resuming), then persist it.
    /// Checkpoint I/O faults are often transient (full disk freed, volume
    /// reattached), so a failed write is retried in place up to
    /// `MAX_RETRIES` times. Retries consume no randomness, so a recovered
    /// write leaves the trace bit-identical to an undisturbed run.
    pub fn commit(&mut self, record: &IterationCheckpoint) -> Result<(), CometError> {
        if let Some(stored) = self.replay.get(record.iteration) {
            if stored != record {
                return Err(CometError::Checkpoint(format!(
                    "resume diverged at iteration {}: checkpoint {stored:?}, replay {record:?}",
                    record.iteration
                )));
            }
        }
        let mut attempt = 0usize;
        loop {
            let Err(e) = self.write_iteration(record) else { return Ok(()) };
            comet_obs::counter_add("fault.checkpoint_write_errors", 1);
            if attempt >= MAX_RETRIES {
                return Err(e);
            }
            attempt += 1;
            comet_obs::counter_add("fault.checkpoint_write_retries", 1);
        }
    }
}

fn get_f64(value: &JsonValue, key: &str) -> Result<f64, CometError> {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| CometError::Checkpoint(format!("missing numeric field {key:?}")))
}

fn get_hex(value: &JsonValue, key: &str) -> Result<u64, CometError> {
    let s = value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| CometError::Checkpoint(format!("missing hex field {key:?}")))?;
    parse_hex(s)
}

/// Load a checkpoint file. An unparseable line — the tail a killed writer
/// left behind — ends the load at everything before it; a missing or
/// malformed header, or one of another version, is an error.
pub(crate) fn load(path: &Path) -> Result<CheckpointData, CometError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CometError::Checkpoint(format!("cannot read {}: {e}", path.display())))?;
    let mut identity = None;
    let mut iterations = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = json::parse(line) else {
            break; // truncated tail of a killed run
        };
        match value.get("kind").and_then(JsonValue::as_str) {
            Some("checkpoint_header") => {
                let version = value.get("version").and_then(JsonValue::as_f64);
                if version != Some(HEADER_VERSION as f64) {
                    return Err(CometError::Checkpoint(format!(
                        "checkpoint header version {} is not supported (this build reads \
                         version {HEADER_VERSION} only); rerun without resuming",
                        version.map_or("<missing>".to_string(), |v| v.to_string())
                    )));
                }
                identity = Some(SessionIdentity::from_json(value.get("identity"))?);
            }
            Some("checkpoint_iteration") => {
                iterations.push(IterationCheckpoint {
                    iteration: get_f64(&value, "iteration")? as usize,
                    budget_spent: get_f64(&value, "budget_spent")?,
                    rng_draws: get_f64(&value, "rng_draws")? as u64,
                    records: get_f64(&value, "records")? as usize,
                    trace_fp: get_hex(&value, "trace_fp")?,
                });
            }
            other => {
                return Err(CometError::Checkpoint(format!("unknown record kind {other:?}")));
            }
        }
    }
    let identity = identity.ok_or_else(|| {
        CometError::Checkpoint(format!("{} has no checkpoint header", path.display()))
    })?;
    Ok(CheckpointData { identity, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FailureRecord, StepAction, StepRecord};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("comet_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn identity() -> SessionIdentity {
        let mut rng = StdRng::seed_from_u64(3);
        let df = comet_datasets::Dataset::Eeg.generate(Some(60), &mut rng);
        let search = comet_ml::RandomSearch { n_samples: 1, ..Default::default() };
        let algorithm = comet_ml::Algorithm::Knn;
        let env = crate::setup::build_paired_env(df, None, algorithm, 0.05, search, 7, 0, &mut rng)
            .unwrap();
        let config = CometConfig { segment_rows: 1024, ..CometConfig::default() };
        SessionIdentity::new(0xDEAD_BEEF_CAFE_F00D, &[ErrorType::MissingValues], &config, &env)
    }

    #[test]
    fn writer_loader_roundtrip() {
        let path = temp_path("roundtrip.jsonl");
        let mut w = CheckpointWriter::create(&path, &identity()).unwrap();
        w.write_iteration(&IterationCheckpoint {
            iteration: 0,
            budget_spent: 1.5,
            rng_draws: 3,
            records: 1,
            trace_fp: 0xABCD,
        })
        .unwrap();
        let data = load(&path).unwrap();
        assert_eq!(data.identity, identity());
        assert_eq!(data.iterations.len(), 1);
        assert_eq!(
            data.iterations[0],
            IterationCheckpoint {
                iteration: 0,
                budget_spent: 1.5,
                rng_draws: 3,
                records: 1,
                trace_fp: 0xABCD,
            }
        );
        // The header is one line holding the whole identity.
        let text = std::fs::read_to_string(&path).unwrap();
        let header = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("version").and_then(JsonValue::as_f64), Some(4.0));
        let recorded = header.get("identity").and_then(JsonValue::as_obj).unwrap();
        assert_eq!(recorded.len(), 22);
        let entry = |key: &str| recorded.iter().find(|(k, _)| k == key).unwrap().1.as_str();
        assert_eq!(entry("algorithm"), Some("Knn"));
        assert_eq!(entry("eval_seed"), Some("7"), "the seed the environment evaluates with");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn identity_mismatches_name_both_values_and_absent_keys() {
        let base = identity();
        assert!(base.mismatches(&base).is_empty());
        let mut fewer = base.clone();
        fewer.0.remove("budget");
        assert_eq!(base.mismatches(&fewer), ["`budget` (checkpoint <absent>, session 50.0)"]);
        assert_eq!(fewer.mismatches(&base), ["`budget` (checkpoint 50.0, session <absent>)"]);
        let mut extra = base.clone();
        extra.0.insert("label".into(), "x".into());
        assert_eq!(base.mismatches(&extra), ["`label` (checkpoint x, session <absent>)"]);
    }

    #[test]
    fn preflight_compares_only_the_settings_known_before_the_data() {
        let path = temp_path("preflight.jsonl");
        drop(CheckpointWriter::create(&path, &identity()).unwrap());
        let config = CometConfig { segment_rows: 1024, ..CometConfig::default() };
        let spec = CheckpointSpec { path: path.clone(), resume: true };
        // The recorded seed and model are not compared: they need the data.
        spec.preflight(&config, &[ErrorType::MissingValues]).unwrap();
        let changed = CometConfig { budget: 7.0, ..config };
        let err = spec.preflight(&changed, &ErrorType::ALL).unwrap_err().to_string();
        assert!(err.contains("`budget` (checkpoint 50.0, session 7.0)"), "{err}");
        assert!(err.contains("`errors` (checkpoint [MissingValues], session ["), "{err}");
        assert_eq!(err.matches("(checkpoint ").count(), 2, "{err}");
        // Without a resume, nothing is read.
        let fresh = CheckpointSpec { path: temp_path("absent.jsonl"), resume: false };
        fresh.preflight(&changed, &ErrorType::ALL).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_tail_is_tolerated_missing_header_is_not() {
        let path = temp_path("truncated.jsonl");
        let mut w = CheckpointWriter::create(&path, &identity()).unwrap();
        w.write_iteration(&IterationCheckpoint {
            iteration: 0,
            budget_spent: 1.0,
            rng_draws: 1,
            records: 1,
            trace_fp: 9,
        })
        .unwrap();
        drop(w);
        // Simulate a kill mid-write: append half a record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"checkpoint_iter");
        std::fs::write(&path, &text).unwrap();
        let data = load(&path).unwrap();
        assert_eq!(data.iterations.len(), 1);

        let headerless = temp_path("headerless.jsonl");
        let iteration = text.lines().nth(1).unwrap();
        std::fs::write(&headerless, format!("{iteration}\n")).unwrap();
        assert!(matches!(load(&headerless), Err(CometError::Checkpoint(_))));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(headerless).ok();
    }

    #[test]
    fn hex_roundtrips_full_u64_range() {
        for v in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000, (1 << 53) + 1] {
            assert_eq!(parse_hex(&hex_u64(v)).unwrap(), v);
        }
        assert!(parse_hex("not-hex").is_err());
    }

    #[test]
    fn counting_rng_counts_and_passes_through() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut counted = CountingRng::new(&mut b);
        assert_eq!(counted.draws(), 0);
        let xs: Vec<u64> = (0..5).map(|_| counted.next_u64()).collect();
        let _ = counted.gen_range(0..100usize);
        assert_eq!(counted.draws(), 6);
        let expect: Vec<u64> = (0..5).map(|_| a.next_u64()).collect();
        assert_eq!(xs, expect, "counting must not perturb the stream");
    }

    #[test]
    fn trace_fingerprint_sees_every_decision_field() {
        let base = CleaningTrace {
            records: vec![StepRecord {
                iteration: 0,
                col: 1,
                err: ErrorType::MissingValues,
                action: StepAction::Accepted,
                cost: 1.0,
                budget_spent: 1.0,
                predicted_f1: Some(0.8),
                raw_predicted_f1: Some(0.79),
                actual_f1: 0.81,
                cleaned_cells: 3,
            }],
            f1_curve: vec![(1.0, 0.81)],
            initial_f1: 0.7,
            final_f1: 0.81,
            fully_clean_f1: Some(0.9),
            ..CleaningTrace::default()
        };
        let fp = trace_fingerprint;
        let base_fp = fp(&base);
        assert_eq!(base_fp, fp(&base.clone()));

        let mut action = base.clone();
        action.records[0].action = StepAction::Reverted;
        assert_ne!(base_fp, fp(&action));

        let mut failed = base.clone();
        failed.failures.push(FailureRecord {
            iteration: 0,
            col: 2,
            err: ErrorType::Scaling,
            reason: "panic: injected".into(),
            retries: 1,
        });
        assert_ne!(base_fp, fp(&failed));

        let mut curve = base.clone();
        curve.f1_curve[0].1 = 0.82;
        assert_ne!(base_fp, fp(&curve));

        // Runtimes are measurement, not decisions.
        let mut timed = base.clone();
        timed.iteration_runtimes.push(std::time::Duration::from_millis(1));
        assert_eq!(base_fp, fp(&timed));
    }

    #[test]
    fn older_header_versions_are_refused() {
        // Version-1 headers carried per-setting fields instead of the
        // identity, version-2 identities lacked the environment's model,
        // and version-3 files carried evaluation-cache records; each is
        // refused by version, never read with defaults.
        let path = temp_path("old_versions.jsonl");
        std::fs::write(
            &path,
            "{\"kind\":\"checkpoint_header\",\"version\":1,\
             \"session_seed\":\"0000000000000007\",\
             \"config_fp\":\"0000000000000008\",\"budget_total\":10}\n",
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("version 1"), "{err}");

        let identity = identity().to_json();
        for version in [2, 3] {
            std::fs::write(
                &path,
                format!(
                    "{{\"kind\":\"checkpoint_header\",\"version\":{version},\
                     \"identity\":{identity}}}\n"
                ),
            )
            .unwrap();
            let err = load(&path).unwrap_err();
            assert!(matches!(err, CometError::Checkpoint(_)), "{err}");
            assert!(err.to_string().contains(&format!("version {version}")), "{err}");
        }

        // A current header without an identity is corruption.
        std::fs::write(&path, "{\"kind\":\"checkpoint_header\",\"version\":4}\n").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("identity"), "{err}");
        std::fs::remove_file(path).ok();
    }
}
