//! Workspace-level dataflow analysis over the parsed item graph: **D8
//! trace-taint reachability** ([`compute_taint`]), consuming the
//! [`crate::rules::ScannedFile`] set the pipeline builds once per run.
//!
//! Find the crates that *define or write* the trace machinery (the
//! roots), then close over the use/call graph — a root's code calls into
//! everything it references, so every crate reachable from a root
//! participates in producing the trace. The resulting set feeds the D1–D3
//! gates in [`crate::rules`]; there is no hard-coded crate list anywhere.
//! `[[exempt]]` entries in `lint.toml` carve out audited leaves (the
//! observability layer, whose output never feeds trace decisions) and
//! fail as stale the day they stop being reachable.

use crate::config::ExemptEntry;
use crate::parse::{ident_at, is_punct, ItemKind};
use crate::rules::ScannedFile;
use std::collections::{BTreeMap, BTreeSet};

/// Structs whose *definition* marks a crate as a trace-writing root: the
/// trace record store, the checkpoint emitter, and the recommender whose
/// ranking the trace records.
const TRACE_DEFS: [&str; 3] = ["CleaningTrace", "CheckpointWriter", "Recommender"];

/// Record types whose *construction* (`StepRecord { .. }`) marks a crate
/// as trace-writing even when the types are defined elsewhere.
const TRACE_WRITES: [&str; 2] = ["StepRecord", "FailureRecord"];

/// Loop state whose associated calls (`SessionState::new(..)`) mark a
/// crate as trace-writing: the baseline strategies book every step into
/// the trace through COMET's own session state.
const TRACE_BOOKS: [&str; 1] = ["SessionState"];

/// The D8 taint computation's result.
#[derive(Debug, Default)]
pub struct Taint {
    /// Crates that define or write the trace machinery.
    pub roots: BTreeSet<String>,
    /// Use-graph closure of the roots, before `[[exempt]]` subtraction.
    pub reachable: BTreeSet<String>,
    /// `reachable` minus the audited `[[exempt]]` crates — what D1–D3
    /// gate on.
    pub trace_affecting: BTreeSet<String>,
    /// Self-check and exemption-staleness errors (nonzero exit).
    pub errors: Vec<String>,
}

/// Compute the trace-affecting crate set from the scanned workspace.
pub fn compute_taint(files: &[ScannedFile], exempt: &[ExemptEntry]) -> Taint {
    let mut taint = Taint::default();
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let known: BTreeSet<&str> = files.iter().map(|f| f.ctx.crate_name.as_str()).collect();
    for file in files {
        if file.ctx.is_test_file() {
            continue; // dev-only edges are not trace-affecting
        }
        let crate_name = file.ctx.crate_name.as_str();
        edges.entry(crate_name).or_default().extend(
            file.parsed.crate_refs.iter().map(String::as_str).filter(|r| known.contains(r)),
        );
        if is_root_file(file) {
            taint.roots.insert(crate_name.to_string());
        }
    }
    // BFS: a root's code calls into everything it references.
    let mut queue: Vec<&str> = taint.roots.iter().map(String::as_str).collect();
    let mut reachable: BTreeSet<&str> = queue.iter().copied().collect();
    while let Some(c) = queue.pop() {
        for &dep in edges.get(c).into_iter().flatten() {
            if reachable.insert(dep) {
                queue.push(dep);
            }
        }
    }
    taint.reachable = reachable.iter().map(|s| s.to_string()).collect();
    if taint.roots.is_empty() {
        taint.errors.push(
            "D8: no trace-writing roots found — the workspace defines none of \
             CleaningTrace/CheckpointWriter/Recommender and constructs no step \
             records; the taint analysis targets have moved"
                .to_string(),
        );
    }
    taint.trace_affecting = taint.reachable.clone();
    for e in exempt {
        if !taint.reachable.contains(&e.name) {
            taint.errors.push(format!(
                "lint.toml: stale [[exempt]] entry — crate `{}` is not reachable from \
                 the trace-writing roots; remove the entry",
                e.name
            ));
            continue;
        }
        taint.trace_affecting.remove(&e.name);
    }
    taint
}

fn is_root_file(file: &ScannedFile) -> bool {
    let defines = file
        .parsed
        .items
        .iter()
        .any(|i| i.kind == ItemKind::Struct && TRACE_DEFS.contains(&i.name.as_str()));
    if defines {
        return true;
    }
    // `StepRecord { .. }` construction: the ident followed by `{`, not
    // preceded by `struct`/`impl`/`for` (those are definitions/headers).
    // `SessionState::..` calls: the ident followed by `::`.
    let ts = &file.lexed.tokens;
    for k in 0..ts.len() {
        let Some(id) = ident_at(ts, k) else { continue };
        let books =
            TRACE_BOOKS.contains(&id) && is_punct(ts, k + 1, b':') && is_punct(ts, k + 2, b':');
        let writes = TRACE_WRITES.contains(&id) && is_punct(ts, k + 1, b'{');
        if !(books || writes) || file.in_test(k) {
            continue;
        }
        if books {
            return true;
        }
        let prev = k.checked_sub(1).and_then(|p| ident_at(ts, p));
        if !matches!(prev, Some("struct" | "impl" | "for" | "enum" | "union")) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileContext;

    fn scanned(path: &str, src: &str) -> ScannedFile {
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next())
            .unwrap_or("comet")
            .to_string();
        ScannedFile::new(FileContext { path: path.to_string(), crate_name }, src.as_bytes())
    }

    #[test]
    fn taint_closes_over_the_use_graph_from_roots() {
        let files = vec![
            scanned("crates/core/src/trace.rs", "pub struct CleaningTrace { pub n: usize }"),
            scanned("crates/core/src/lib.rs", "use comet_ml::Model; use comet_obs::Counter;"),
            scanned("crates/ml/src/lib.rs", "use comet_frame::Frame;"),
            scanned("crates/frame/src/lib.rs", "pub struct Frame;"),
            scanned("crates/obs/src/lib.rs", "pub struct Counter;"),
            scanned("crates/serve/src/lib.rs", "use comet_core::Session;"),
        ];
        let t = compute_taint(&files, &[]);
        assert_eq!(t.roots, ["core"].map(String::from).into());
        // core -> {ml, obs}, ml -> frame; serve *uses* core but nothing
        // trace-writing reaches serve.
        let want: BTreeSet<String> = ["core", "ml", "obs", "frame"].map(String::from).into();
        assert_eq!(t.reachable, want);
        assert!(!t.reachable.contains("serve"));
        assert!(t.errors.is_empty(), "{:?}", t.errors);
    }

    #[test]
    fn step_record_construction_is_a_root_but_tests_are_not() {
        let files = vec![
            scanned(
                "crates/baselines/src/cl.rs",
                "fn rec() { let r = StepRecord { iteration: 0 }; }",
            ),
            scanned(
                "crates/bench/src/lib.rs",
                "#[cfg(test)]\nmod t { fn rec() { let r = StepRecord { iteration: 0 }; } }",
            ),
        ];
        let t = compute_taint(&files, &[]);
        assert_eq!(t.roots, ["baselines"].map(String::from).into());
    }

    #[test]
    fn booking_through_session_state_is_a_root_but_tests_are_not() {
        let files = vec![
            scanned(
                "crates/baselines/src/rr.rs",
                "fn run() { let mut state = SessionState::new(config, env)?; }",
            ),
            scanned(
                "crates/bench/src/lib.rs",
                "fn f(s: &SessionState) {}\n#[cfg(test)]\nmod t { fn g() { SessionState::new(c, e); } }",
            ),
        ];
        let t = compute_taint(&files, &[]);
        assert_eq!(t.roots, ["baselines"].map(String::from).into());
    }

    #[test]
    fn exemption_subtracts_and_goes_stale_when_unreachable() {
        let files = vec![
            scanned("crates/core/src/trace.rs", "pub struct CleaningTrace;\nuse comet_obs::C;"),
            scanned("crates/obs/src/lib.rs", "pub struct C;"),
        ];
        let exempt = vec![ExemptEntry { name: "obs".into(), reason: "audited counters".into() }];
        let t = compute_taint(&files, &exempt);
        assert!(t.reachable.contains("obs"));
        assert!(!t.trace_affecting.contains("obs"));
        assert!(t.errors.is_empty());
        // Same exemption without the edge: stale.
        let files = vec![scanned("crates/core/src/trace.rs", "pub struct CleaningTrace;")];
        let t = compute_taint(&files, &exempt);
        assert_eq!(t.errors.len(), 1);
        assert!(t.errors[0].contains("stale"), "{}", t.errors[0]);
    }

    #[test]
    fn no_roots_is_a_self_check_error() {
        let files = vec![scanned("crates/obs/src/lib.rs", "pub struct C;")];
        let t = compute_taint(&files, &[]);
        assert_eq!(t.errors.len(), 1);
        assert!(t.errors[0].contains("no trace-writing roots"), "{}", t.errors[0]);
    }
}
