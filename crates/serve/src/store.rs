//! The on-disk session store — the daemon's single source of truth.
//!
//! ```text
//! <root>/
//!   next_id                     monotonic session-id counter
//!   datasets/<fp>.csv           content-addressed uploads (fp = FNV-1a 64)
//!   sessions/<id>/
//!     manifest.json             accepted request + live status (atomic writes)
//!     checkpoint.jsonl          comet-core per-iteration checkpoint
//!     trace.csv                 final step-by-step trace
//!     outcome.json              final summary (F1s, budget, stop reason)
//! ```
//!
//! Two invariants carry the crash-recovery story:
//!
//! 1. **Manifest before response.** A session's manifest is persisted
//!    (write-temp + rename, so it is atomically whole or absent) *before*
//!    the accept response leaves the daemon. A client that saw "accepted"
//!    will find its session after any crash.
//! 2. **Status lives in the manifest.** Restart recovery is a pure scan:
//!    every manifest whose status is still `queued` or `running` is work
//!    to re-enqueue, in session-id order; `running` sessions with a
//!    checkpoint file resume from it bit-identically.

use comet_obs::json::{self, JsonObject, JsonValue};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Content fingerprint for uploads: FNV-1a 64 over the raw bytes,
/// rendered as 16 hex digits. Not cryptographic — it keys a local cache
/// directory, it does not authenticate anything.
pub fn fingerprint(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    format!("{h:016x}")
}

/// A session's accepted request plus its live status — the unit of
/// crash recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Monotonic session id (`s00000001`, ...). Ids order submissions, so
    /// a restart re-enqueues in the original acceptance order.
    pub id: String,
    /// Submitting tenant (admission bookkeeping).
    pub tenant: String,
    /// Fingerprint of the dirty dataset.
    pub dirty: String,
    /// Fingerprint of the clean reference; `None` for detection-seeded
    /// sessions cleaning against their own ground truth.
    pub clean: Option<String>,
    /// Label column name.
    pub label: String,
    /// Target algorithm (`Algorithm::parse` name).
    pub algo: String,
    /// Cleaning budget.
    pub budget: f64,
    /// Session seed — with the dataset bytes, fully determines the trace.
    pub seed: u64,
    /// Detection-seeded (`--detect`) instead of oracle provenance.
    pub detect: bool,
    /// Wall-clock deadline in milliseconds, measured from run start.
    pub deadline_ms: Option<u64>,
    /// `queued` | `running` | `done` | `stopped` | `failed`.
    pub status: String,
    /// Stop reason name for `stopped` sessions.
    pub stop_reason: Option<String>,
    /// Error message for `failed` sessions.
    pub error: Option<String>,
}

impl Manifest {
    /// Encode as one JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("id", &self.id)
            .field_str("tenant", &self.tenant)
            .field_str("dirty", &self.dirty);
        if let Some(clean) = &self.clean {
            obj.field_str("clean", clean);
        }
        obj.field_str("label", &self.label)
            .field_str("algo", &self.algo)
            .field_f64("budget", self.budget)
            .field_str("seed", &format!("{:016x}", self.seed))
            .field_raw("detect", if self.detect { "true" } else { "false" });
        if let Some(ms) = self.deadline_ms {
            obj.field_u64("deadline_ms", ms);
        }
        obj.field_str("status", &self.status);
        if let Some(reason) = &self.stop_reason {
            obj.field_str("stop_reason", reason);
        }
        if let Some(error) = &self.error {
            obj.field_str("error", error);
        }
        obj.finish()
    }

    /// Parse a manifest document.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let v = json::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest missing string field {key:?}"))
        };
        let seed_hex = str_field("seed")?;
        let seed = u64::from_str_radix(&seed_hex, 16)
            .map_err(|e| format!("manifest seed {seed_hex:?}: {e}"))?;
        Ok(Manifest {
            id: str_field("id")?,
            tenant: str_field("tenant")?,
            dirty: str_field("dirty")?,
            clean: v.get("clean").and_then(JsonValue::as_str).map(str::to_string),
            label: str_field("label")?,
            algo: str_field("algo")?,
            budget: v
                .get("budget")
                .and_then(JsonValue::as_f64)
                .ok_or("manifest missing numeric field \"budget\"")?,
            seed,
            detect: matches!(v.get("detect"), Some(JsonValue::Bool(true))),
            deadline_ms: v.get("deadline_ms").and_then(JsonValue::as_f64).map(|x| x as u64),
            status: str_field("status")?,
            stop_reason: v.get("stop_reason").and_then(JsonValue::as_str).map(str::to_string),
            error: v.get("error").and_then(JsonValue::as_str).map(str::to_string),
        })
    }
}

/// Handle on one store root. Id allocation is serialized through an
/// internal lock; everything else is plain file I/O.
#[derive(Debug)]
pub struct SessionStore {
    root: PathBuf,
    id_lock: Mutex<()>,
}

impl SessionStore {
    /// Open (creating directories as needed) a store at `root`.
    pub fn open(root: &Path) -> io::Result<SessionStore> {
        fs::create_dir_all(root.join("datasets"))?;
        fs::create_dir_all(root.join("sessions"))?;
        Ok(SessionStore { root: root.to_path_buf(), id_lock: Mutex::new(()) })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Refuse a dataset fingerprint [`fingerprint`] could not have
    /// emitted (16 lowercase hex digits), before it becomes a path.
    pub fn check_dataset_fp(fp: &str) -> Result<(), String> {
        let hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
        if fp.len() == 16 && fp.bytes().all(hex) {
            Ok(())
        } else {
            Err(format!("dataset {fp:?} is not a fingerprint (16 lowercase hex digits)"))
        }
    }

    /// Refuse a session id [`Self::allocate_id`] could not have emitted
    /// (`s` and 8 digits), before it becomes a path.
    pub fn check_session_id(id: &str) -> Result<(), String> {
        match id.strip_prefix('s') {
            Some(digits) if digits.len() == 8 && digits.bytes().all(|b| b.is_ascii_digit()) => {
                Ok(())
            }
            _ => Err(format!("session {id:?} is not a session id (s and 8 digits)")),
        }
    }

    /// Store an uploaded dataset under its content fingerprint; returns
    /// the fingerprint. Re-uploading identical bytes is idempotent.
    pub fn put_dataset(&self, csv: &str) -> io::Result<String> {
        let fp = fingerprint(csv.as_bytes());
        let path = self.dataset_path(&fp);
        if !path.exists() {
            write_atomic(&path, csv.as_bytes())?;
        }
        Ok(fp)
    }

    /// Path of a stored dataset (which may not exist).
    pub fn dataset_path(&self, fp: &str) -> PathBuf {
        self.root.join("datasets").join(format!("{fp}.csv"))
    }

    /// A session's directory (which may not exist).
    pub fn session_dir(&self, id: &str) -> PathBuf {
        self.root.join("sessions").join(id)
    }

    /// Allocate the next monotonic session id and persist the counter
    /// *before* returning, so a crash between allocation and manifest
    /// write burns the id instead of reusing it.
    pub fn allocate_id(&self) -> io::Result<String> {
        let _guard = self.id_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let counter_path = self.root.join("next_id");
        let next: u64 = match fs::read_to_string(&counter_path) {
            Ok(text) => text
                .trim()
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("next_id: {e}")))?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => 1,
            Err(e) => return Err(e),
        };
        write_atomic(&counter_path, (next + 1).to_string().as_bytes())?;
        Ok(format!("s{next:08}"))
    }

    /// Persist a manifest atomically (temp + rename): readers see the old
    /// complete document or the new one, never a torn write.
    pub fn write_manifest(&self, manifest: &Manifest) -> io::Result<()> {
        let dir = self.session_dir(&manifest.id);
        fs::create_dir_all(&dir)?;
        write_atomic(&dir.join("manifest.json"), manifest.to_json().as_bytes())
    }

    /// Load one session's manifest.
    pub fn load_manifest(&self, id: &str) -> io::Result<Manifest> {
        let text = fs::read_to_string(self.session_dir(id).join("manifest.json"))?;
        Manifest::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Load every session manifest, sorted by id — the restart scan.
    /// Directories without a parseable manifest are skipped (a crash
    /// between `allocate_id` and `write_manifest` leaves none).
    pub fn load_manifests(&self) -> io::Result<Vec<Manifest>> {
        let sessions = self.root.join("sessions");
        let mut out = Vec::new();
        for entry in fs::read_dir(&sessions)? {
            let entry = entry?;
            let Some(id) = entry.file_name().to_str().map(str::to_string) else {
                continue;
            };
            if let Ok(manifest) = self.load_manifest(&id) {
                out.push(manifest);
            }
        }
        out.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(out)
    }
}

/// Write a file atomically: temp file in the same directory, then rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{} has no parent", path.display()))
    })?;
    let tmp = dir.join(format!(
        ".tmp.{}.{}",
        std::process::id(),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("file")
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str) -> SessionStore {
        let dir = std::env::temp_dir().join("comet_serve_store_tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        SessionStore::open(&dir).unwrap()
    }

    fn manifest(id: &str, status: &str) -> Manifest {
        Manifest {
            id: id.into(),
            tenant: "t1".into(),
            dirty: "00000000000000ab".into(),
            clean: Some("00000000000000cd".into()),
            label: "y".into(),
            algo: "knn".into(),
            budget: 6.0,
            seed: 0xdead_beef,
            detect: false,
            deadline_ms: Some(30_000),
            status: status.into(),
            stop_reason: None,
            error: None,
        }
    }

    #[test]
    fn manifests_round_trip_through_json() {
        let m = manifest("s00000001", "queued");
        assert_eq!(Manifest::parse(&m.to_json()).unwrap(), m);

        let mut stopped = manifest("s00000002", "stopped");
        stopped.clean = None;
        stopped.detect = true;
        stopped.deadline_ms = None;
        stopped.stop_reason = Some("deadline-exceeded".into());
        assert_eq!(Manifest::parse(&stopped.to_json()).unwrap(), stopped);

        assert!(Manifest::parse("{}").is_err());
        assert!(Manifest::parse("{\"id\":\"x\"").is_err());
    }

    #[test]
    fn datasets_are_content_addressed_and_idempotent() {
        let store = tmp_store("datasets");
        let fp1 = store.put_dataset("a,y\n1,0\n").unwrap();
        let fp2 = store.put_dataset("a,y\n1,0\n").unwrap();
        let fp3 = store.put_dataset("a,y\n2,1\n").unwrap();
        assert_eq!(fp1, fp2, "identical bytes, identical fingerprint");
        assert_ne!(fp1, fp3);
        assert_eq!(fs::read_to_string(store.dataset_path(&fp1)).unwrap(), "a,y\n1,0\n");
    }

    #[test]
    fn only_emitted_ids_pass_the_checks() {
        let store = tmp_store("checks");
        let fp = store.put_dataset("a,y\n1,0\n").unwrap();
        assert_eq!(SessionStore::check_dataset_fp(&fp), Ok(()));
        for bad in ["../../outside/secret", "", "0123456789ABCDEF", "0123456789abcde", "/etc/x"] {
            assert!(SessionStore::check_dataset_fp(bad).is_err(), "{bad:?}");
        }
        let id = store.allocate_id().unwrap();
        assert_eq!(SessionStore::check_session_id(&id), Ok(()));
        for bad in ["../x", "s0000001", "s000000010", "S00000001", "s0000000a", "s/../../x"] {
            assert!(SessionStore::check_session_id(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn ids_are_monotonic_and_survive_reopen() {
        let store = tmp_store("ids");
        assert_eq!(store.allocate_id().unwrap(), "s00000001");
        assert_eq!(store.allocate_id().unwrap(), "s00000002");
        let reopened = SessionStore::open(store.root()).unwrap();
        assert_eq!(reopened.allocate_id().unwrap(), "s00000003", "counter persists");
    }

    #[test]
    fn restart_scan_returns_manifests_in_id_order() {
        let store = tmp_store("scan");
        // Written out of order on purpose.
        store.write_manifest(&manifest("s00000003", "queued")).unwrap();
        store.write_manifest(&manifest("s00000001", "done")).unwrap();
        store.write_manifest(&manifest("s00000002", "running")).unwrap();
        // A torn session dir (no manifest) is skipped, not fatal.
        fs::create_dir_all(store.session_dir("s00000004")).unwrap();
        let all = store.load_manifests().unwrap();
        let ids: Vec<&str> = all.iter().map(|m| m.id.as_str()).collect();
        assert_eq!(ids, ["s00000001", "s00000002", "s00000003"]);
    }

    #[test]
    fn manifest_updates_are_atomic_replacements() {
        let store = tmp_store("atomic");
        let mut m = manifest("s00000001", "queued");
        store.write_manifest(&m).unwrap();
        m.status = "done".into();
        store.write_manifest(&m).unwrap();
        assert_eq!(store.load_manifest("s00000001").unwrap().status, "done");
        // No temp droppings left behind.
        let leftovers: Vec<_> = fs::read_dir(store.session_dir("s00000001"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }
}
