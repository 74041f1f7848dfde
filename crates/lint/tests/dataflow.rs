//! Workspace-level dataflow tests: D8 taint properties of the real
//! workspace against the crate list the rules used to hard-code,
//! fixture-driven root detection, and the machine-readable JSON rendering
//! of a clean and a deliberately broken workspace.

use comet_lint::graph::compute_taint;
use comet_lint::rules::ScannedFile;
use comet_lint::{file_context, lint_files, load_allowlist, render_json, workspace_sources};
use std::path::Path;

/// The trace-affecting crate list that was hard-coded in the rules module
/// before D8 computed it from the use graph. The computed set must stay a
/// superset: taint can only be discovered, never silently lost.
const OLD_HARDCODED_LIST: [&str; 7] =
    ["core", "ml", "bayes", "jenga", "baselines", "frame", "detect"];

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// Scan the real workspace, applying `mutate` to the file at `target`
/// (repo-relative). `mutate` is the identity check when `target` is empty.
fn scanned_workspace(target: &str, mutate: impl Fn(&str) -> String) -> Vec<ScannedFile> {
    let root = repo_root();
    let sources = workspace_sources(&root).unwrap();
    sources
        .iter()
        .map(|rel| {
            let ctx = file_context(rel);
            let src = std::fs::read_to_string(root.join(rel)).unwrap();
            let src = if ctx.path == target { mutate(&src) } else { src };
            ScannedFile::new(ctx, src.as_bytes())
        })
        .collect()
}

fn real_allowlist() -> comet_lint::config::Allowlist {
    load_allowlist(&repo_root().join("lint.toml")).unwrap()
}

#[test]
fn the_unmutated_workspace_is_clean() {
    let files = scanned_workspace("", |s| s.to_string());
    let report = lint_files(&files, &real_allowlist());
    assert!(report.is_clean(), "errors: {:#?}", report.evaluation.errors);
}

// --- D8 on the real workspace ---

#[test]
fn computed_taint_is_a_superset_of_the_old_hardcoded_list() {
    let files = scanned_workspace("", |s| s.to_string());
    let report = lint_files(&files, &real_allowlist());
    for name in OLD_HARDCODED_LIST {
        assert!(
            report.taint.reachable.contains(name),
            "`{name}` was in the old hard-coded trace-affecting list but is not \
             reachable from the computed roots: {:?}",
            report.taint.reachable
        );
    }
    assert!(report.taint.roots.contains("core"), "roots: {:?}", report.taint.roots);
    // The observability layer is reachable but audited out via [[exempt]].
    assert!(report.taint.reachable.contains("obs"));
    assert!(!report.taint.trace_affecting.contains("obs"));
}

#[test]
fn the_hardcoded_trace_list_stays_deleted() {
    let src = std::fs::read_to_string(repo_root().join("crates/lint/src/rules.rs")).unwrap();
    assert!(
        !src.contains(concat!("TRACE_", "AFFECTING")),
        "the hard-coded trace-affecting crate list must stay deleted from the \
         rules module; D8 computes the set from the use graph"
    );
}

// --- D8 fixtures: root detection TP/TN ---

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scan_fixture_as(name: &str, path: &str) -> ScannedFile {
    ScannedFile::new(file_context(Path::new(path)), &fixture(name))
}

#[test]
fn step_record_construction_marks_a_root_crate() {
    let files = vec![scan_fixture_as("tp_d8.rs", "crates/baselines/src/fixture.rs")];
    let taint = compute_taint(&files, &[]);
    assert!(taint.roots.contains("baselines"), "roots: {:?}", taint.roots);
}

#[test]
fn step_record_construction_in_tests_is_not_a_root() {
    let files = vec![scan_fixture_as("tn_d8.rs", "crates/baselines/src/fixture.rs")];
    let taint = compute_taint(&files, &[]);
    assert!(taint.roots.is_empty(), "roots: {:?}", taint.roots);
    // An empty workspace with no roots is a self-check error, not silence.
    assert!(taint.errors.iter().any(|e| e.contains("no trace-writing roots")));
}

// --- machine-readable output ---

#[test]
fn json_rendering_of_the_real_workspace_is_clean_and_complete() {
    let files = scanned_workspace("", |s| s.to_string());
    let report = lint_files(&files, &real_allowlist());
    let json = render_json(&report);
    assert!(json.contains("\"clean\": true"), "{json}");
    assert!(json.contains("\"errors\": [\n  ]") || json.contains("\"errors\": []"), "{json}");
    assert!(json.contains("\"trace_affecting\": ["));
    // Allowlisted debt is reported, flagged allowed — not hidden.
    assert!(json.contains("\"allowed\": true"), "{json}");
    assert!(!json.contains("\"allowed\": false"), "unallowed finding in a clean run: {json}");
}

#[test]
fn json_rendering_of_a_mutated_workspace_reports_the_break() {
    // An unallowlisted `.unwrap()` (D4) in library code breaks the gate.
    let budget = "crates/core/src/budget.rs";
    let files = scanned_workspace(budget, |src| {
        format!("{src}\npub fn broken(x: Option<u8>) -> u8 {{\n    x.unwrap()\n}}\n")
    });
    let report = lint_files(&files, &real_allowlist());
    let json = render_json(&report);
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(json.contains(budget) && json.contains("\"rule\": \"D4\""), "{json}");
    assert!(json.contains("\"allowed\": false"), "{json}");
}
