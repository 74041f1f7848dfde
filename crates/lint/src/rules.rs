//! The COMET rule catalogue (D1–D9) and the per-file scan driver.
//!
//! Rules operate on the token stream from [`crate::lexer`], so nothing in
//! a comment or string literal can trigger them, plus two side tables:
//! `comet-lint` pragmas harvested from comments, and test-region token
//! ranges (`#[cfg(test)]` modules, `#[test]` functions) where determinism
//! and error-handling rules do not apply.
//!
//! D1–D6 are token-local. D8 (trace-taint reachability) is a
//! workspace-level dataflow analysis in [`crate::graph`]; its `Rule`
//! variant exists here so findings, pragmas, and the allowlist treat every
//! rule uniformly. D9 is per-file but flow-sensitive: its third check
//! walks parsed `fn` bodies from [`crate::parse`]. D7 (fingerprint
//! coverage) is retired: the checkpoint's session identity covers every
//! config field by construction (DESIGN.md §11), and the number is not
//! reused.

use crate::lexer::{lex, Comment, Lexed, Tok, Token};
use crate::parse::{ident_at, is_float_at, is_punct, matching, parse, Parsed};
use std::collections::BTreeSet;
use std::fmt;

/// The COMET invariant rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in trace-affecting crates: iteration order
    /// is seeded per-process, so any iteration (now or added later) can
    /// silently reorder trace-affecting work. Use `BTreeMap`/`BTreeSet`,
    /// or sort before iterating and carry a pragma.
    D1,
    /// No `partial_cmp` sorts or `f64::max`/`f64::min` on score-like
    /// values: NaN either panics the comparator or silently drops out of
    /// the reduction. Use `total_cmp` or the NaN-sanitized helpers.
    D2,
    /// No entropy or wall-clock sources outside `comet-obs` and bench
    /// binaries: all randomness must derive from the session seed.
    D3,
    /// No `.unwrap()`/`.expect()`/`panic!` in non-test library code: use
    /// the `CometError` taxonomy.
    D4,
    /// Every `unsafe` must carry a `// SAFETY:` comment.
    D5,
    /// No raw `sum::<f64>()`/`sum::<f32>()`/`.fold(0.0, ..)` float
    /// reductions in the `comet-ml`/`comet-bayes` hot paths: accumulation
    /// order is part of the trace contract, so route through the
    /// fixed-order `kernels` primitives. Only the lane-ordered tier
    /// modules (`kernels/{scalar,lanes8,x86}.rs`) are exempt.
    D6,
    /// Trace-taint reachability: the set of trace-affecting crates is
    /// *computed* from the use/call graph (crates reachable from the
    /// trace-writing roots), not hard-coded. D1–D3 gate on the computed
    /// set; `[[exempt]]` entries in `lint.toml` carve out audited leaves
    /// (the observability layer) and go stale when unreachable.
    D8,
    /// Concurrency rules: no two `.lock()` acquisitions in one statement
    /// chain (lock-ordering hazard), no `Ordering::Relaxed` outside the
    /// audited counter paths, and no `Arc::make_mut`/`Arc::get_mut`
    /// while a borrowing view obtained from `self` may still be live
    /// (the `with_payload_mut` bug class).
    D9,
}

pub const ALL_RULES: [Rule; 8] =
    [Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::D5, Rule::D6, Rule::D8, Rule::D9];

impl Rule {
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::D8 => "D8",
            Rule::D9 => "D9",
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "D1" | "d1" => Some(Rule::D1),
            "D2" | "d2" => Some(Rule::D2),
            "D3" | "d3" => Some(Rule::D3),
            "D4" | "d4" => Some(Rule::D4),
            "D5" | "d5" => Some(Rule::D5),
            "D6" | "d6" => Some(Rule::D6),
            "D8" | "d8" => Some(Rule::D8),
            "D9" | "d9" => Some(Rule::D9),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic: `file:line:col: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}: {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// What the scanner needs to know about a file beyond its bytes.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Repo-relative path with forward slashes (diagnostic + allowlist key).
    pub path: String,
    /// Workspace crate directory name (`core`, `ml`, …; `comet` for the
    /// root crate).
    pub crate_name: String,
}

/// The workspace-level facts a per-file scan depends on — today, the
/// computed set of trace-affecting crates from [`crate::graph`]. The
/// production pipeline always computes it; tests construct explicit
/// scopes.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Crates whose source participates in producing the cleaning trace:
    /// any order-of-iteration or NaN-comparison slip here changes
    /// recommendations. Computed as the use-graph closure of the
    /// trace-writing roots (D8), minus audited `[[exempt]]` leaves.
    pub trace_affecting: BTreeSet<String>,
}

impl Scope {
    pub fn of<I, S>(names: I) -> Scope
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Scope { trace_affecting: names.into_iter().map(Into::into).collect() }
    }
}

/// Crates allowed to read wall clocks / entropy: the observability layer
/// and bench binaries measure time *by design*. The serve daemon is the
/// *service* layer — deadlines, backoff, and endpoint latency are
/// wall-clock concepts there; the sessions it hosts still never read
/// clocks (a deadline reaches comet-core as an externally raised flag,
/// DESIGN.md §14). A crate the taint computation marks trace-affecting is
/// scanned by D3 regardless.
const TIMING_EXEMPT: [&str; 3] = ["obs", "bench", "serve"];

/// Crates whose float reductions sit on the evaluation hot path and must
/// use the fixed-order `kernels` primitives.
const HOT_PATH: [&str; 2] = ["ml", "bayes"];

/// The audited lock-free counter layer where `Ordering::Relaxed` is the
/// point (metric counters tolerate reordering; nothing reads them for
/// trace decisions). Everywhere else a Relaxed atomic needs a reviewed
/// `allow(D9)` pragma stating why the ordering is safe.
const RELAXED_AUDITED: [&str; 1] = ["obs"];

impl FileContext {
    fn trace_affecting(&self, scope: &Scope) -> bool {
        scope.trace_affecting.contains(&self.crate_name)
    }

    fn timing_exempt(&self, scope: &Scope) -> bool {
        TIMING_EXEMPT.contains(&self.crate_name.as_str()) && !self.trace_affecting(scope)
    }

    fn hot_path(&self) -> bool {
        // Only the lane-ordered primitive modules may spell raw reductions;
        // the dispatcher (`kernels/mod.rs`) and everything above it must
        // route through them, so D6 scans those too.
        const LANE_ORDERED: [&str; 3] =
            ["kernels/scalar.rs", "kernels/lanes8.rs", "kernels/x86.rs"];
        HOT_PATH.contains(&self.crate_name.as_str())
            && !LANE_ORDERED.iter().any(|m| self.path.ends_with(m))
    }

    /// Test-ish files: integration tests, benches, examples.
    pub fn is_test_file(&self) -> bool {
        self.path.split('/').any(|c| c == "tests" || c == "benches" || c == "examples")
    }

    /// Binary targets (`src/bin/*`, `main.rs`).
    pub fn is_bin(&self) -> bool {
        self.path.contains("/src/bin/") || self.path.ends_with("main.rs")
    }

    /// Non-test library code: where D4 (typed errors) applies.
    pub fn is_library(&self) -> bool {
        !self.is_test_file() && !self.is_bin()
    }
}

/// One harvested `allow` pragma comment with its line range: it
/// suppresses the named rules (or all of them) on the comment's own lines
/// and the first line after it. Every pragma must earn its keep: one that
/// suppresses nothing fails the gate as stale.
#[derive(Debug, Clone)]
pub struct Pragma {
    pub rules: Vec<Rule>,
    pub all: bool,
    pub first_line: u32,
    pub last_line: u32,
}

impl Pragma {
    /// Does this pragma suppress `rule` at `line`?
    pub fn suppresses(&self, rule: Rule, line: u32) -> bool {
        (self.all || self.rules.contains(&rule)) && self.covers_line(line)
    }

    /// The lines a pragma applies to: its own plus the first line after.
    pub fn covers_line(&self, line: u32) -> bool {
        line >= self.first_line && line <= self.last_line + 1
    }
}

pub fn collect_pragmas(comments: &[Comment]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        let Some(at) = c.text.find("comet-lint:") else { continue };
        let rest = &c.text[at + "comet-lint:".len()..];
        let Some(open) = rest.find("allow(") else { continue };
        let args = &rest[open + "allow(".len()..];
        let Some(close) = args.find(')') else { continue };
        let mut rules = Vec::new();
        let mut all = false;
        for part in args[..close].split(',') {
            let part = part.trim();
            if part.eq_ignore_ascii_case("all") {
                all = true;
            } else if let Some(r) = Rule::parse(part) {
                rules.push(r);
            }
        }
        if all || !rules.is_empty() {
            out.push(Pragma { rules, all, first_line: c.line, last_line: c.end_line });
        }
    }
    out
}

/// One workspace source file, lexed and parsed once, shared by the
/// per-file rules and the workspace-level graph analyses.
#[derive(Debug)]
pub struct ScannedFile {
    pub ctx: FileContext,
    pub lexed: Lexed,
    pub parsed: Parsed,
    pub pragmas: Vec<Pragma>,
    pub whole_file_test: bool,
    pub test_ranges: Vec<(usize, usize)>,
}

impl ScannedFile {
    pub fn new(ctx: FileContext, src: &[u8]) -> ScannedFile {
        let lexed = lex(src);
        let pragmas = collect_pragmas(&lexed.comments);
        let (whole_file_test, test_ranges) = test_regions(&lexed.tokens);
        let test_all = whole_file_test || ctx.is_test_file();
        let parsed =
            parse(&lexed, &|k| test_all || test_ranges.iter().any(|&(a, b)| k >= a && k <= b));
        ScannedFile { ctx, lexed, parsed, pragmas, whole_file_test, test_ranges }
    }

    /// Is the token at index `k` inside test-only code?
    pub fn in_test(&self, k: usize) -> bool {
        self.whole_file_test
            || self.ctx.is_test_file()
            || self.test_ranges.iter().any(|&(a, b)| k >= a && k <= b)
    }
}

/// Scan one file under `scope`, marking which of its pragmas suppressed
/// at least one finding in `pragma_used` (resized to `file.pragmas`).
/// Returns the pragma- and test-region-filtered findings.
pub fn scan_with_usage(
    file: &ScannedFile,
    scope: &Scope,
    pragma_used: &mut Vec<bool>,
) -> Vec<Finding> {
    pragma_used.clear();
    pragma_used.resize(file.pragmas.len(), false);
    let matcher =
        Matcher { ctx: &file.ctx, ts: &file.lexed.tokens, comments: &file.lexed.comments, scope };
    let mut raw = matcher.scan();
    raw.extend(d9_flow(file));
    raw.sort_by_key(|(k, _)| *k);
    let mut findings = Vec::new();
    for (k, f) in raw {
        // D5 (`SAFETY:` comments) holds even in test code — unsafe is
        // unsafe wherever it compiles. Every other rule guards the
        // production trace and stands down inside tests.
        if file.in_test(k) && f.rule != Rule::D5 {
            continue;
        }
        let suppressed = file
            .pragmas
            .iter()
            .position(|p| p.suppresses(f.rule, f.line))
            .inspect(|&i| pragma_used[i] = true);
        if suppressed.is_some() {
            continue;
        }
        findings.push(f);
    }
    findings
}

/// Scan one file's source and return its findings (convenience wrapper
/// for fixture-driven tests; pragma usage is discarded).
pub fn scan_file(ctx: &FileContext, src: &[u8], scope: &Scope) -> Vec<Finding> {
    let file = ScannedFile::new(ctx.clone(), src);
    let mut used = Vec::new();
    scan_with_usage(&file, scope, &mut used)
}

/// Token-index ranges covered by `#[cfg(test)]` / `#[test]` / `#[bench]`
/// items, plus whether a `#![cfg(test)]` inner attribute marks the whole
/// file as test code.
fn test_regions(ts: &[Token]) -> (bool, Vec<(usize, usize)>) {
    let mut ranges = Vec::new();
    let mut whole_file = false;
    let mut k = 0;
    while k < ts.len() {
        if !is_punct(ts, k, b'#') {
            k += 1;
            continue;
        }
        let inner = is_punct(ts, k + 1, b'!');
        let open = if inner { k + 2 } else { k + 1 };
        if !is_punct(ts, open, b'[') {
            k += 1;
            continue;
        }
        let Some(close) = matching(ts, open, b'[', b']') else {
            k += 1;
            continue;
        };
        if !attr_is_test(&ts[open..=close]) {
            k = close + 1;
            continue;
        }
        if inner {
            whole_file = true;
            k = close + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut at = close + 1;
        while is_punct(ts, at, b'#') && is_punct(ts, at + 1, b'[') {
            match matching(ts, at + 1, b'[', b']') {
                Some(c) => at = c + 1,
                None => break,
            }
        }
        // The item body is the first brace block before a `;` (a `;`
        // first means a body-less item like `mod tests;` — nothing to
        // mark in this file).
        let mut body_open = None;
        let mut j = at;
        while j < ts.len() {
            match ts[j].tok {
                Tok::Punct(b'{') => {
                    body_open = Some(j);
                    break;
                }
                Tok::Punct(b';') => break,
                _ => j += 1,
            }
        }
        if let Some(bo) = body_open {
            if let Some(bc) = matching(ts, bo, b'{', b'}') {
                ranges.push((k, bc));
                k = bc + 1;
                continue;
            }
            // Unterminated body: conservatively treat the rest of the
            // file as part of the test item.
            ranges.push((k, ts.len().saturating_sub(1)));
            break;
        }
        k = close + 1;
    }
    (whole_file, ranges)
}

/// Does an attribute token slice (`[` .. `]`) gate on `test`?
/// `#[test]`, `#[bench]`, `#[cfg(test)]`, `#[cfg(all(test, ..))]` do;
/// `#[cfg(not(test))]` does not (it is the *non*-test configuration).
fn attr_is_test(attr: &[Token]) -> bool {
    let mut saw_test = false;
    for t in attr {
        if let Tok::Ident(id) = &t.tok {
            match id.as_str() {
                "not" => return false,
                "test" | "bench" => saw_test = true,
                _ => {}
            }
        }
    }
    saw_test
}

struct Matcher<'a> {
    ctx: &'a FileContext,
    ts: &'a [Token],
    comments: &'a [Comment],
    scope: &'a Scope,
}

impl Matcher<'_> {
    /// Run every applicable token-local rule; returns `(token index,
    /// finding)` pairs *before* pragma/test-region filtering.
    fn scan(&self) -> Vec<(usize, Finding)> {
        let mut out = Vec::new();
        let mut in_use = false; // inside a `use …;` declaration
        let mut stmt_locks = 0usize; // `.lock(` calls in the current statement
        for k in 0..self.ts.len() {
            if ident_at(self.ts, k) == Some("use") {
                in_use = true;
            } else if is_punct(self.ts, k, b';') {
                in_use = false;
            }
            if matches!(self.ts[k].tok, Tok::Punct(b';' | b'{' | b'}')) {
                stmt_locks = 0;
            }
            self.d1(k, in_use, &mut out);
            self.d2(k, &mut out);
            self.d3(k, &mut out);
            self.d4(k, &mut out);
            self.d5(k, &mut out);
            self.d6(k, &mut out);
            self.d9a(k, &mut stmt_locks, &mut out);
            self.d9b(k, &mut out);
        }
        out
    }

    fn emit(&self, out: &mut Vec<(usize, Finding)>, k: usize, rule: Rule, message: String) {
        let t = &self.ts[k];
        out.push((
            k,
            Finding { rule, file: self.ctx.path.clone(), line: t.line, col: t.col, message },
        ));
    }

    fn d1(&self, k: usize, in_use: bool, out: &mut Vec<(usize, Finding)>) {
        if !self.ctx.trace_affecting(self.scope) || in_use {
            return;
        }
        if let Some(id @ ("HashMap" | "HashSet")) = ident_at(self.ts, k) {
            self.emit(
                out,
                k,
                Rule::D1,
                format!(
                    "`{id}` in a trace-affecting crate: iteration order is seeded \
                     per-process; use `BTree{}` or sort before iterating",
                    &id[4..]
                ),
            );
        }
    }

    fn d2(&self, k: usize, out: &mut Vec<(usize, Finding)>) {
        if !self.ctx.trace_affecting(self.scope) {
            return;
        }
        let ts = self.ts;
        if ident_at(ts, k) == Some("partial_cmp") {
            self.emit(
                out,
                k,
                Rule::D2,
                "`partial_cmp` on floats panics or mis-sorts on NaN; use `total_cmp` \
                 over a NaN-sanitized key"
                    .into(),
            );
            return;
        }
        if ident_at(ts, k) == Some("f64") && is_punct(ts, k + 1, b':') && is_punct(ts, k + 2, b':')
        {
            if let Some(m @ ("max" | "min")) = ident_at(ts, k + 3) {
                self.emit(
                    out,
                    k,
                    Rule::D2,
                    format!(
                        "`f64::{m}` silently drops NaN out of reductions; use a \
                         `total_cmp` fold or the NaN-sanitized helpers"
                    ),
                );
                return;
            }
        }
        if is_punct(ts, k, b'.') && is_punct(ts, k + 2, b'(') {
            if let Some(m @ ("max" | "min")) = ident_at(ts, k + 1) {
                if is_float_at(ts, k + 3) || ident_at(ts, k + 3) == Some("f64") {
                    self.emit(
                        out,
                        k + 1,
                        Rule::D2,
                        format!(
                            "float `.{m}(..)` ignores a NaN receiver; use `total_cmp` \
                             or the NaN-sanitized helpers"
                        ),
                    );
                }
            }
        }
    }

    fn d3(&self, k: usize, out: &mut Vec<(usize, Finding)>) {
        if self.ctx.timing_exempt(self.scope) {
            return;
        }
        let ts = self.ts;
        if let Some(id @ ("thread_rng" | "from_entropy" | "OsRng" | "getrandom" | "SystemTime")) =
            ident_at(ts, k)
        {
            self.emit(
                out,
                k,
                Rule::D3,
                format!(
                    "`{id}` is an entropy/wall-clock source; all randomness must \
                     derive from the session seed (comet-obs and bench binaries only)"
                ),
            );
            return;
        }
        if ident_at(ts, k) == Some("Instant")
            && is_punct(ts, k + 1, b':')
            && is_punct(ts, k + 2, b':')
            && ident_at(ts, k + 3) == Some("now")
        {
            self.emit(
                out,
                k,
                Rule::D3,
                "`Instant::now` reads the wall clock; timing belongs to comet-obs \
                 and bench binaries (pragma observability spans that never feed \
                 trace decisions)"
                    .into(),
            );
        }
    }

    fn d4(&self, k: usize, out: &mut Vec<(usize, Finding)>) {
        if !self.ctx.is_library() {
            return;
        }
        let ts = self.ts;
        if is_punct(ts, k, b'.') && is_punct(ts, k + 2, b'(') {
            if let Some(m @ ("unwrap" | "expect")) = ident_at(ts, k + 1) {
                self.emit(
                    out,
                    k + 1,
                    Rule::D4,
                    format!("`.{m}(..)` in library code panics the session; return a `CometError`"),
                );
                return;
            }
        }
        if let Some(id @ ("panic" | "unreachable" | "todo" | "unimplemented")) = ident_at(ts, k) {
            if is_punct(ts, k + 1, b'!') {
                self.emit(
                    out,
                    k,
                    Rule::D4,
                    format!("`{id}!` in library code aborts the session; return a `CometError`"),
                );
            }
        }
    }

    fn d5(&self, k: usize, out: &mut Vec<(usize, Finding)>) {
        if ident_at(self.ts, k) != Some("unsafe") {
            return;
        }
        let line = self.ts[k].line;
        let documented = self
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.end_line <= line && c.end_line + 3 >= line);
        if !documented {
            self.emit(
                out,
                k,
                Rule::D5,
                "`unsafe` without a `// SAFETY:` comment on the preceding lines".into(),
            );
        }
    }

    fn d6(&self, k: usize, out: &mut Vec<(usize, Finding)>) {
        if !self.ctx.hot_path() {
            return;
        }
        let ts = self.ts;
        if ident_at(ts, k) == Some("sum")
            && is_punct(ts, k + 1, b':')
            && is_punct(ts, k + 2, b':')
            && is_punct(ts, k + 3, b'<')
            && matches!(ident_at(ts, k + 4), Some("f64") | Some("f32"))
        {
            self.emit(
                out,
                k,
                Rule::D6,
                "raw `sum::<f64>()`/`sum::<f32>()` reduction in a hot-path crate; \
                 accumulation order is part of the trace contract — use the \
                 fixed-order `kernels` primitives"
                    .into(),
            );
            return;
        }
        if is_punct(ts, k, b'.')
            && ident_at(ts, k + 1) == Some("fold")
            && is_punct(ts, k + 2, b'(')
            && (is_float_at(ts, k + 3) || matches!(ident_at(ts, k + 3), Some("f64") | Some("f32")))
        {
            self.emit(
                out,
                k + 1,
                Rule::D6,
                "raw float `.fold(..)` reduction in a hot-path crate; use the \
                 fixed-order `kernels` primitives"
                    .into(),
            );
        }
    }

    /// D9a: a second `.lock(` inside one statement chain. Holding one
    /// guard while acquiring another in a single expression is how
    /// lock-ordering inversions are born; split the statement and scope
    /// the first guard, or carry a reviewed pragma stating the order.
    fn d9a(&self, k: usize, stmt_locks: &mut usize, out: &mut Vec<(usize, Finding)>) {
        let ts = self.ts;
        if is_punct(ts, k, b'.') && ident_at(ts, k + 1) == Some("lock") && is_punct(ts, k + 2, b'(')
        {
            *stmt_locks += 1;
            if *stmt_locks >= 2 {
                self.emit(
                    out,
                    k + 1,
                    Rule::D9,
                    "two `.lock()` acquisitions in one statement chain risk a \
                     lock-ordering inversion; take and scope the guards in \
                     separate statements"
                        .into(),
                );
            }
        }
    }

    /// D9b: `Ordering::Relaxed` outside the audited counter layer. Every
    /// production Relaxed site must either live in `comet-obs` or carry a
    /// reviewed `allow(D9)` pragma explaining why no ordering is needed.
    fn d9b(&self, k: usize, out: &mut Vec<(usize, Finding)>) {
        if RELAXED_AUDITED.contains(&self.ctx.crate_name.as_str()) {
            return;
        }
        let ts = self.ts;
        if ident_at(ts, k) == Some("Ordering")
            && is_punct(ts, k + 1, b':')
            && is_punct(ts, k + 2, b':')
            && ident_at(ts, k + 3) == Some("Relaxed")
        {
            self.emit(
                out,
                k,
                Rule::D9,
                "`Ordering::Relaxed` outside the audited counter paths; state why \
                 no ordering is required in a reviewed `allow(D9)` pragma or use \
                 an acquire/release pair"
                    .into(),
            );
        }
    }
}

/// D9c: flow-sensitive `Arc::make_mut`/`Arc::get_mut` check over parsed
/// fn bodies. Within one body, a `let NAME = … self.method(…) …;` binding
/// is treated as a live borrowing view until an explicit `drop(NAME)`;
/// reaching a `make_mut`/`get_mut` with any such binding live is flagged
/// (the exact shape of the `with_payload_mut` bug PR 9 fixed: the view's
/// `Arc` clone kept the refcount at 2, so `make_mut` silently cloned and
/// the mutation went to a copy). The analysis is linear — inner blocks do
/// not end liveness — so rare false positives take a reviewed pragma.
fn d9_flow(file: &ScannedFile) -> Vec<(usize, Finding)> {
    let ts = &file.lexed.tokens;
    let mut out = Vec::new();
    for item in &file.parsed.items {
        let crate::parse::ItemKind::Fn { body: Some((open, close)), .. } = &item.kind else {
            continue;
        };
        // name -> the self-method the view came from
        let mut live: Vec<(String, String)> = Vec::new();
        let mut k = *open;
        while k < *close {
            if ident_at(ts, k) == Some("let") {
                let mut j = k + 1;
                if ident_at(ts, j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = ident_at(ts, j) {
                    // Initializer runs to the statement's `;` at bracket
                    // depth 0 relative to here. The walk does NOT skip it:
                    // `make_mut` usually sits inside a `let` initializer.
                    let mut depth = 0usize;
                    let mut end = j + 1;
                    while end < *close {
                        match ts[end].tok {
                            Tok::Punct(b'{' | b'(' | b'[') => depth += 1,
                            Tok::Punct(b'}' | b')' | b']') => depth = depth.saturating_sub(1),
                            Tok::Punct(b';') if depth == 0 => break,
                            _ => {}
                        }
                        end += 1;
                    }
                    if let Some(method) = self_method_call(ts, j + 1, end) {
                        live.retain(|(n, _)| n != name);
                        live.push((name.to_string(), method));
                    }
                }
            }
            if ident_at(ts, k) == Some("drop") && is_punct(ts, k + 1, b'(') {
                if let Some(name) = ident_at(ts, k + 2) {
                    if is_punct(ts, k + 3, b')') {
                        live.retain(|(n, _)| n != name);
                    }
                }
            }
            if ident_at(ts, k) == Some("Arc")
                && is_punct(ts, k + 1, b':')
                && is_punct(ts, k + 2, b':')
            {
                if let Some(m @ ("make_mut" | "get_mut")) = ident_at(ts, k + 3) {
                    if let Some((name, method)) = live.first() {
                        let t = &ts[k + 3];
                        out.push((
                            k + 3,
                            Finding {
                                rule: Rule::D9,
                                file: file.ctx.path.clone(),
                                line: t.line,
                                col: t.col,
                                message: format!(
                                    "`Arc::{m}` while `{name}` (from `self.{method}(..)`) may \
                                     still borrow the payload: the live view keeps the \
                                     refcount above 1, so the mutation silently lands on a \
                                     clone; `drop({name})` first"
                                ),
                            },
                        ));
                    }
                }
            }
            k += 1;
        }
    }
    out
}

/// Does `ts[from..to]` contain a `self.method(` call? Returns the method
/// name of the first one.
fn self_method_call(ts: &[Token], from: usize, to: usize) -> Option<String> {
    for k in from..to.min(ts.len()) {
        if ident_at(ts, k) == Some("self") && is_punct(ts, k + 1, b'.') && is_punct(ts, k + 3, b'(')
        {
            if let Some(m) = ident_at(ts, k + 2) {
                return Some(m.to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str) -> FileContext {
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next())
            .unwrap_or("comet")
            .to_string();
        FileContext { path: path.to_string(), crate_name }
    }

    fn test_scope() -> Scope {
        Scope::of(["core", "ml", "bayes", "jenga", "baselines", "frame", "detect"])
    }

    fn rules_found(path: &str, src: &str) -> Vec<Rule> {
        scan_file(&ctx(path), src.as_bytes(), &test_scope()).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn use_declarations_are_not_d1_findings() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        let found = rules_found("crates/core/src/x.rs", src);
        assert_eq!(found, vec![Rule::D1, Rule::D1]);
    }

    #[test]
    fn non_trace_crates_skip_d1_d2_d6() {
        let src = "fn f() { let m = HashMap::new(); a.partial_cmp(b); x.iter().sum::<f64>(); }";
        assert!(rules_found("crates/obs/src/x.rs", src).is_empty());
        assert_eq!(rules_found("crates/core/src/x.rs", src).len(), 2); // D1 + D2; D6 is ml/bayes only
    }

    #[test]
    fn the_scope_not_a_constant_decides_what_is_trace_affecting() {
        let src = "fn f() { let m = HashMap::new(); }";
        // `serve` is not in the explicit scope: no finding.
        assert!(rules_found("crates/serve/src/x.rs", src).is_empty());
        // The same file under a scope that taints `serve` is flagged.
        let found = scan_file(&ctx("crates/serve/src/x.rs"), src.as_bytes(), &Scope::of(["serve"]));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::D1);
    }

    #[test]
    fn a_tainted_timing_exempt_crate_is_scanned_by_d3() {
        let src = "fn f() { let t = SystemTime::now(); }";
        // serve is timing-exempt by default…
        assert!(rules_found("crates/serve/src/x.rs", src).is_empty());
        // …but the computed taint set takes precedence.
        let found = scan_file(&ctx("crates/serve/src/x.rs"), src.as_bytes(), &Scope::of(["serve"]));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::D3);
    }

    #[test]
    fn d6_covers_f32_reductions() {
        let src = "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }";
        assert_eq!(rules_found("crates/ml/src/x.rs", src), vec![Rule::D6]);
        let fold = "fn f(xs: &[f32]) -> f32 { xs.iter().fold(0.0f32, |a, b| a + b) }";
        assert_eq!(rules_found("crates/ml/src/x.rs", fold), vec![Rule::D6]);
    }

    #[test]
    fn only_lane_ordered_tier_modules_are_d6_exempt() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert!(rules_found("crates/ml/src/kernels/scalar.rs", src).is_empty());
        assert!(rules_found("crates/ml/src/kernels/lanes8.rs", src).is_empty());
        assert!(rules_found("crates/ml/src/kernels/x86.rs", src).is_empty());
        // The dispatcher must route through the tier primitives, so it IS scanned.
        assert_eq!(rules_found("crates/ml/src/kernels/mod.rs", src), vec![Rule::D6]);
    }

    #[test]
    fn test_regions_stand_down_except_d5() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); unsafe { y(); } }\n}";
        let found = rules_found("crates/core/src/x.rs", src);
        assert_eq!(found, vec![Rule::D5]);
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }";
        assert_eq!(rules_found("crates/core/src/x.rs", src), vec![Rule::D4]);
    }

    #[test]
    fn pragmas_suppress_next_line_only() {
        let src = "fn f() {\n    // comet-lint: allow(D4)\n    x.unwrap();\n    y.unwrap();\n}";
        let found = scan_file(&ctx("crates/core/src/x.rs"), src.as_bytes(), &test_scope());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn pragma_usage_is_tracked() {
        let used_pragma = "fn f() {\n    // comet-lint: allow(D4)\n    x.unwrap();\n}";
        let file = ScannedFile::new(ctx("crates/core/src/x.rs"), used_pragma.as_bytes());
        let mut used = Vec::new();
        let found = scan_with_usage(&file, &test_scope(), &mut used);
        assert!(found.is_empty());
        assert_eq!(used, vec![true]);

        let stale_pragma = "fn f() {\n    // comet-lint: allow(D4)\n    let y = 1;\n}";
        let file = ScannedFile::new(ctx("crates/core/src/x.rs"), stale_pragma.as_bytes());
        let found = scan_with_usage(&file, &test_scope(), &mut used);
        assert!(found.is_empty());
        assert_eq!(used, vec![false]);
    }

    #[test]
    fn safety_comment_satisfies_d5() {
        let ok = "// SAFETY: the slice is checked above.\nunsafe { f(); }";
        assert!(rules_found("crates/ml/src/x.rs", ok).is_empty());
        let bad = "unsafe { f(); }";
        assert_eq!(rules_found("crates/ml/src/x.rs", bad), vec![Rule::D5]);
    }

    #[test]
    fn unwrap_or_variants_are_not_d4() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); }";
        assert!(rules_found("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_path_segments_are_not_d4() {
        let src = "fn f() { std::panic::catch_unwind(|| 1); }";
        assert!(rules_found("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d9a_flags_two_locks_in_one_statement() {
        let src = "fn f(&self) { let x = self.a.lock().len() + self.b.lock().len(); }";
        assert_eq!(rules_found("crates/par/src/x.rs", src), vec![Rule::D9]);
        // Separate statements are fine.
        let ok = "fn f(&self) { let x = self.a.lock().len(); let y = self.b.lock().len(); }";
        assert!(rules_found("crates/par/src/x.rs", ok).is_empty());
    }

    #[test]
    fn d9b_flags_relaxed_outside_obs() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(rules_found("crates/frame/src/x.rs", src), vec![Rule::D9]);
        assert_eq!(rules_found("crates/serve/src/x.rs", src), vec![Rule::D9]);
        // The audited counter layer is the exception.
        assert!(rules_found("crates/obs/src/x.rs", src).is_empty());
        // SeqCst anywhere is fine.
        let ok = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::SeqCst); }";
        assert!(rules_found("crates/par/src/x.rs", ok).is_empty());
    }

    #[test]
    fn d9c_flags_make_mut_under_a_live_view() {
        let bad = "impl S { fn f(&mut self) -> u64 { let view = self.view(); \
                   let out = Arc::make_mut(&mut self.p); out.mutate(); view.len() } }";
        assert_eq!(rules_found("crates/frame/src/x.rs", bad), vec![Rule::D9]);
    }

    #[test]
    fn d9c_accepts_the_drop_then_make_mut_shape() {
        // The post-PR-9 `with_payload_mut` shape: view dropped before the
        // exclusive access.
        let ok = "impl S { fn f(&mut self) -> u64 { let view = self.view(); \
                  let n = view.len(); drop(view); let out = Arc::make_mut(&mut self.p); n } }";
        assert!(rules_found("crates/frame/src/x.rs", ok).is_empty());
        // Bindings that are not self-method views don't count.
        let ok2 = "impl S { fn f(&mut self) { let mut state = lock(&self.state); \
                   let out = Arc::make_mut(&mut self.p); } }";
        assert!(rules_found("crates/frame/src/x.rs", ok2).is_empty());
    }
}
