//! `comet-lint`: a workspace static-analysis pass enforcing COMET's
//! determinism, NaN-safety, error-handling, and concurrency invariants at
//! the source level (DESIGN.md §11 catalogues the invariants and which
//! rule guards each one; §16 covers the dataflow analyses).
//!
//! The pipeline: walk every workspace crate's sources → lex each file
//! with the hand-rolled comment/string-aware [`lexer`] → [`parse`] items
//! and cross-crate references → compute the trace-taint crate set from
//! the use graph ([`graph`], D8) → match the [`rules`] catalogue over the
//! token stream under that scope → drop findings suppressed by pragmas or
//! inside test regions, failing any pragma that suppressed nothing → reconcile
//! what remains against the checked-in `lint.toml` burn-down allowlist
//! ([`config`]). Anything left is a violation and the binary exits
//! nonzero.
//!
//! Dependency-free by design: no `syn`, no proc macros, no crates.io.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod config;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;

use config::{evaluate, Allowlist, Evaluation};
use rules::{scan_with_usage, FileContext, Finding, ScannedFile, Scope};
use std::fs;
use std::path::{Path, PathBuf};

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Pragma- and test-region-filtered findings, in path order.
    pub findings: Vec<Finding>,
    /// Allowlist reconciliation (errors + allowed counts), extended with
    /// taint self-check errors and stale-pragma errors.
    pub evaluation: Evaluation,
    /// Number of files scanned.
    pub files: usize,
    /// The D8 trace-taint computation (roots, closure, exemptions).
    pub taint: graph::Taint,
}

impl Report {
    /// Clean means zero errors after allowlist reconciliation.
    pub fn is_clean(&self) -> bool {
        self.evaluation.errors.is_empty()
    }
}

/// Collect the workspace's Rust sources under `root`, repo-relative and
/// sorted: each crate's `src/`, `tests/`, and `benches/`, plus the root
/// crate's `src/`, `tests/`, and `examples/`. Fixture trees (anything
/// outside those directories, e.g. `crates/lint/fixtures/`) are not
/// workspace sources and are skipped.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let crate_dirs = list_dir(&crates_dir)?.into_iter().filter(|p| p.is_dir());
    for crate_dir in crate_dirs {
        for sub in ["src", "tests", "benches"] {
            collect_rs(&crate_dir.join(sub), &mut files);
        }
    }
    for sub in ["src", "tests", "examples"] {
        collect_rs(&root.join(sub), &mut files);
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .map(|p| p.strip_prefix(root).map(Path::to_path_buf).unwrap_or(p))
        .collect();
    rel.sort();
    Ok(rel)
}

fn list_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Build the [`FileContext`] for a repo-relative path.
pub fn file_context(rel: &Path) -> FileContext {
    let path =
        rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/");
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("comet")
        .to_string();
    FileContext { path, crate_name }
}

/// Lint an already-scanned file set against `allow`. This is the whole
/// pipeline minus I/O: taint computation, scoped per-file rules,
/// pragma-staleness enforcement, and allowlist reconciliation.
pub fn lint_files(files: &[ScannedFile], allow: &Allowlist) -> Report {
    let taint = graph::compute_taint(files, &allow.exempt);
    let scope = Scope { trace_affecting: taint.trace_affecting.clone() };
    let mut findings = Vec::new();
    let mut used_per_file: Vec<Vec<bool>> = Vec::with_capacity(files.len());
    for file in files {
        let mut used = Vec::new();
        findings.extend(scan_with_usage(file, &scope, &mut used));
        used_per_file.push(used);
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    let mut evaluation = evaluate(&findings, allow);
    evaluation.errors.extend(taint.errors.iter().cloned());
    // Every pragma must earn its keep: an `allow` that suppressed nothing
    // is dead weight that would silently mask a future regression at its
    // line.
    for (file, used) in files.iter().zip(&used_per_file) {
        for (pragma, _) in file.pragmas.iter().zip(used).filter(|(_, &was_used)| !was_used) {
            evaluation.errors.push(format!(
                "{}:{}: stale pragma — this `allow` suppresses no findings; remove it \
                 (or the rule regressed and the pragma is masking nothing)",
                file.ctx.path, pragma.first_line
            ));
        }
    }
    Report { findings, evaluation, files: files.len(), taint }
}

/// Lint the workspace at `root` against `allow`.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> Result<Report, String> {
    let sources = workspace_sources(root)?;
    let mut files = Vec::with_capacity(sources.len());
    for rel in &sources {
        let ctx = file_context(rel);
        let abs = root.join(rel);
        let src = fs::read(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
        files.push(ScannedFile::new(ctx, &src));
    }
    Ok(lint_files(&files, allow))
}

/// Load and parse the allowlist at `path`; a missing file is an empty
/// allowlist (useful for fixture-driven tests).
pub fn load_allowlist(path: &Path) -> Result<Allowlist, String> {
    if !path.exists() {
        return Ok(Allowlist::default());
    }
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    config::parse_allowlist(&text)
}

/// Render a report as a single JSON object (findings, errors, taint) for
/// machine consumers — the CI diff-annotation step parses this. Escaping
/// is hand-rolled like everything else in this crate.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let allowed = report
            .evaluation
            .allowed_groups
            .iter()
            .any(|(r, file)| *r == f.rule && file == &f.file);
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \
             \"allowed\": {}, \"message\": {}}}",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(f.rule.as_str()),
            allowed,
            json_str(&f.message)
        ));
    }
    out.push_str("\n  ],\n  \"errors\": [");
    for (i, e) in report.evaluation.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}", json_str(e)));
    }
    out.push_str("\n  ],\n  \"taint\": {");
    let sets = [
        ("roots", &report.taint.roots),
        ("reachable", &report.taint.reachable),
        ("trace_affecting", &report.taint.trace_affecting),
    ];
    for (i, (name, set)) in sets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let items: Vec<String> = set.iter().map(|s| json_str(s)).collect();
        out.push_str(&format!("\n    \"{name}\": [{}]", items.join(", ")));
    }
    out.push_str(&format!(
        "\n  }},\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
        report.files,
        report.is_clean()
    ));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanned(path: &str, src: &str) -> ScannedFile {
        ScannedFile::new(file_context(Path::new(path)), src.as_bytes())
    }

    /// A minimal workspace with a trace-writing root so the D8 self-check
    /// passes.
    fn base_files() -> Vec<ScannedFile> {
        vec![scanned("crates/core/src/trace.rs", "pub struct CleaningTrace { pub n: usize }")]
    }

    #[test]
    fn lint_files_reports_taint() {
        let report = lint_files(&base_files(), &Allowlist::default());
        assert_eq!(report.taint.roots, ["core".to_string()].into());
        assert!(report.is_clean(), "{:?}", report.evaluation.errors);
    }

    #[test]
    fn stale_allow_pragma_is_an_error() {
        let mut files = base_files();
        files.push(scanned(
            "crates/core/src/x.rs",
            "fn f() {\n    // comet-lint: allow(D4)\n    let y = 1;\n}",
        ));
        let report = lint_files(&files, &Allowlist::default());
        assert!(
            report
                .evaluation
                .errors
                .iter()
                .any(|e| e.contains("stale pragma") && e.contains("crates/core/src/x.rs:2")),
            "{:?}",
            report.evaluation.errors
        );
    }

    #[test]
    fn used_allow_pragma_is_not_stale() {
        let mut files = base_files();
        files.push(scanned(
            "crates/core/src/x.rs",
            "fn f() {\n    // comet-lint: allow(D4)\n    x.unwrap();\n}",
        ));
        let report = lint_files(&files, &Allowlist::default());
        assert!(
            !report.evaluation.errors.iter().any(|e| e.contains("crates/core/src/x.rs")),
            "{:?}",
            report.evaluation.errors
        );
    }

    #[test]
    fn render_json_is_well_formed_enough_to_round_trip_quotes() {
        // An unallowlisted D4 violation makes the report unclean.
        let mut files = base_files();
        files.push(scanned("crates/core/src/x.rs", "fn f() { x.unwrap(); }"));
        let report = lint_files(&files, &Allowlist::default());
        let json = render_json(&report);
        assert!(json.contains("\"findings\": ["));
        assert!(json.contains("\"taint\": {"));
        assert!(json.contains("\"roots\": [\"core\"]"));
        assert!(json.contains("\"clean\": false"));
        // Message text with quotes/backslashes must be escaped.
        assert!(!json.contains("\\`"));
        let quoted = json_str("a \"b\" \\ c\nd");
        assert_eq!(quoted, "\"a \\\"b\\\" \\\\ c\\nd\"");
    }
}
