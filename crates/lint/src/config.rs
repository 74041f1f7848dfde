//! The checked-in allowlist (`lint.toml`) and its burn-down semantics.
//!
//! The file is a tiny TOML subset — `[[allow]]` and `[[exempt]]` tables
//! with string and integer values only — parsed by hand so the linter
//! stays dependency free. Each `[[allow]]` entry pins an exact finding
//! count for one `(rule, file)` pair. The count is a ratchet: more
//! findings than the count is a new violation, and *fewer* findings than
//! the count is also an error ("stale allowlist") so the number can only
//! ever be ratcheted down. `[[exempt]]` entries subtract an audited crate
//! from the computed trace-taint set (D8) and go stale the day the crate
//! stops being reachable.

use crate::rules::{Finding, Rule};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One `[[allow]]` entry: `count` findings of `rule` in `file` are
/// tolerated, no more and no fewer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: Rule,
    pub file: String,
    pub count: usize,
    pub reason: String,
}

/// One `[[exempt]]` entry: `name` is reachable from the trace-writing
/// roots but audited to never feed trace decisions (`reason` says why).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExemptEntry {
    pub name: String,
    pub reason: String,
}

/// The parsed allowlist.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
    pub exempt: Vec<ExemptEntry>,
}

impl Allowlist {
    /// Total allowed findings across all entries — the workspace burn-down
    /// count. CI asserts this number can only decrease.
    pub fn burn_down_total(&self) -> usize {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Burn-down count for one rule.
    pub fn burn_down(&self, rule: Rule) -> usize {
        self.entries.iter().filter(|e| e.rule == rule).map(|e| e.count).sum()
    }
}

/// An `[[allow]]` entry mid-parse: rule, file, count, reason so far.
type PartialAllow = (Option<Rule>, Option<String>, Option<usize>, String);

/// Which table the parser is inside.
enum Current {
    Allow(PartialAllow),
    Exempt(Option<String>, Option<String>),
}

/// Parse `lint.toml` text. Returns a message describing the first
/// malformed line on failure.
pub fn parse_allowlist(text: &str) -> Result<Allowlist, String> {
    let mut out = Allowlist::default();
    let mut current: Option<Current> = None;
    let finish = |cur: &mut Option<Current>, out: &mut Allowlist| -> Result<(), String> {
        match cur.take() {
            Some(Current::Allow((rule, file, count, reason))) => {
                let rule = rule.ok_or("allow entry missing `rule`")?;
                let file = file.ok_or("allow entry missing `file`")?;
                let count = count.ok_or("allow entry missing `count`")?;
                out.entries.push(AllowEntry { rule, file, count, reason });
            }
            Some(Current::Exempt(name, reason)) => {
                let name = name.ok_or("exempt entry missing `crate`")?;
                let reason = reason.ok_or("exempt entry missing `reason`")?;
                if reason.trim().is_empty() {
                    return Err(format!("exempt entry for `{name}` has an empty `reason`"));
                }
                out.exempt.push(ExemptEntry { name, reason });
            }
            None => {}
        }
        Ok(())
    };
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = n + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish(&mut current, &mut out)?;
            current = Some(Current::Allow((None, None, None, String::new())));
            continue;
        }
        if line == "[[exempt]]" {
            finish(&mut current, &mut out)?;
            current = Some(Current::Exempt(None, None));
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("lint.toml:{lineno}: unknown table `{line}`"));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint.toml:{lineno}: expected `key = value`, got `{line}`"));
        };
        let (key, value) = (key.trim(), value.trim());
        match current.as_mut() {
            None => {
                return Err(format!(
                    "lint.toml:{lineno}: `{key}` outside an [[allow]]/[[exempt]] entry"
                ));
            }
            Some(Current::Allow(cur)) => match key {
                "rule" => {
                    let s = unquote(value)
                        .ok_or_else(|| format!("lint.toml:{lineno}: `rule` must be a string"))?;
                    cur.0 = Some(Rule::parse(&s).ok_or_else(|| {
                        format!("lint.toml:{lineno}: unknown rule `{s}` (expected D1..D9)")
                    })?);
                }
                "file" => {
                    cur.1 =
                        Some(unquote(value).ok_or_else(|| {
                            format!("lint.toml:{lineno}: `file` must be a string")
                        })?);
                }
                "count" => {
                    cur.2 = Some(value.parse().map_err(|_| {
                        format!("lint.toml:{lineno}: `count` must be a non-negative integer")
                    })?);
                }
                "reason" => {
                    cur.3 = unquote(value)
                        .ok_or_else(|| format!("lint.toml:{lineno}: `reason` must be a string"))?;
                }
                other => return Err(format!("lint.toml:{lineno}: unknown key `{other}`")),
            },
            Some(Current::Exempt(name, reason)) => {
                match key {
                    "crate" => {
                        *name = Some(unquote(value).ok_or_else(|| {
                            format!("lint.toml:{lineno}: `crate` must be a string")
                        })?);
                    }
                    "reason" => {
                        *reason = Some(unquote(value).ok_or_else(|| {
                            format!("lint.toml:{lineno}: `reason` must be a string")
                        })?);
                    }
                    other => {
                        return Err(format!("lint.toml:{lineno}: unknown exempt key `{other}`"));
                    }
                }
            }
        }
    }
    finish(&mut current, &mut out)?;
    Ok(out)
}

fn unquote(v: &str) -> Option<String> {
    let inner = v.strip_prefix('"')?.strip_suffix('"')?;
    // The only escapes the allowlist needs.
    Some(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

/// The outcome of reconciling findings against the allowlist.
#[derive(Debug, Default)]
pub struct Evaluation {
    /// Human-readable violations; non-empty means a nonzero exit.
    pub errors: Vec<String>,
    /// Findings covered by an exact-count allow entry.
    pub allowed: usize,
    /// The `(rule, file)` groups whose findings are allowlisted — lets
    /// `--json` tag individual findings.
    pub allowed_groups: Vec<(Rule, String)>,
}

/// Reconcile pragma-filtered findings with the allowlist.
pub fn evaluate(findings: &[Finding], allow: &Allowlist) -> Evaluation {
    let mut by_group: BTreeMap<(Rule, &str), Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        by_group.entry((f.rule, f.file.as_str())).or_default().push(f);
    }
    let mut eval = Evaluation::default();
    let mut claimed: Vec<(Rule, &str)> = Vec::new();
    for entry in &allow.entries {
        let key = (entry.rule, entry.file.as_str());
        if claimed.contains(&key) {
            eval.errors.push(format!(
                "lint.toml: duplicate [[allow]] entry for {} in {}",
                entry.rule, entry.file
            ));
            continue;
        }
        claimed.push(key);
        let n = by_group.get(&key).map_or(0, |v| v.len());
        if n == entry.count && n > 0 {
            eval.allowed += n;
            eval.allowed_groups.push((entry.rule, entry.file.clone()));
        } else if n > entry.count {
            let mut msg = format!(
                "{}: {} findings of {} exceed the allowlisted count {} — fix the new \
                 violation(s) or annotate with `// comet-lint: allow({})`:",
                entry.file, n, entry.rule, entry.count, entry.rule
            );
            for f in by_group.get(&key).into_iter().flatten() {
                let _ = write!(msg, "\n  {f}");
            }
            eval.errors.push(msg);
        } else {
            eval.errors.push(format!(
                "lint.toml: stale entry — {} now has {} findings of {} but allows {}; \
                 ratchet the count down (it can only decrease)",
                entry.file, n, entry.rule, entry.count
            ));
        }
    }
    for (key, group) in &by_group {
        if claimed.contains(key) {
            continue;
        }
        for f in group {
            eval.errors.push(f.to_string());
        }
    }
    eval
}

/// Render `[[allow]]` entries for every finding group — the starting
/// point for a new baseline after an intentional change.
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut by_group: BTreeMap<(Rule, &str), usize> = BTreeMap::new();
    for f in findings {
        *by_group.entry((f.rule, f.file.as_str())).or_default() += 1;
    }
    let mut out = String::new();
    for ((rule, file), count) in by_group {
        let _ = write!(
            out,
            "[[allow]]\nrule = \"{rule}\"\nfile = \"{file}\"\ncount = {count}\nreason = \"\"\n\n"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str, line: u32) -> Finding {
        Finding { rule, file: file.into(), line, col: 1, message: "m".into() }
    }

    #[test]
    fn parses_entries_and_totals() {
        let toml = r#"
            # comment
            [[allow]]
            rule = "D4"
            file = "crates/core/src/session.rs"
            count = 3
            reason = "pre-existing; burn down"

            [[allow]]
            rule = "D1"
            file = "crates/ml/src/featurize.rs"
            count = 2
        "#;
        let a = parse_allowlist(toml).expect("parses");
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.burn_down_total(), 5);
        assert_eq!(a.burn_down(Rule::D4), 3);
    }

    #[test]
    fn parses_exempt_entries() {
        let toml = r#"
            [[exempt]]
            crate = "obs"
            reason = "audited counter layer; output never feeds trace decisions"

            [[allow]]
            rule = "D9"
            file = "f.rs"
            count = 1
            reason = "r"
        "#;
        let a = parse_allowlist(toml).expect("parses");
        assert_eq!(a.exempt.len(), 1);
        assert_eq!(a.exempt[0].name, "obs");
        assert_eq!(a.entries.len(), 1);
    }

    #[test]
    fn exempt_requires_crate_and_reason() {
        assert!(parse_allowlist("[[exempt]]\ncrate = \"obs\"").is_err());
        assert!(parse_allowlist("[[exempt]]\nreason = \"r\"").is_err());
        assert!(parse_allowlist("[[exempt]]\ncrate = \"obs\"\nreason = \"\"").is_err());
        assert!(parse_allowlist("[[exempt]]\ncrate = \"obs\"\ncount = 1").is_err());
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(parse_allowlist("[[allow]]\nrule = \"D12\"").is_err());
        assert!(parse_allowlist("rule = \"D1\"").is_err());
        assert!(parse_allowlist("[[allow]]\nfile = \"x\"\ncount = 1").is_err());
        assert!(parse_allowlist("[[allow]]\nrule = \"D1\"\nfile = \"x\"\ncount = -1").is_err());
        assert!(parse_allowlist("[other]").is_err());
    }

    #[test]
    fn d8_and_d9_are_valid_allowlist_rules_and_retired_d7_is_not() {
        for rule in ["D8", "D9"] {
            let toml = format!("[[allow]]\nrule = \"{rule}\"\nfile = \"f.rs\"\ncount = 1\n");
            assert!(parse_allowlist(&toml).is_ok(), "{rule}");
        }
        assert!(parse_allowlist("[[allow]]\nrule = \"D7\"\nfile = \"f.rs\"\ncount = 1\n").is_err());
    }

    #[test]
    fn exact_count_is_allowed() {
        let a = parse_allowlist("[[allow]]\nrule = \"D4\"\nfile = \"f.rs\"\ncount = 2\n")
            .expect("parses");
        let fs = vec![finding(Rule::D4, "f.rs", 1), finding(Rule::D4, "f.rs", 2)];
        let e = evaluate(&fs, &a);
        assert!(e.errors.is_empty(), "{:?}", e.errors);
        assert_eq!(e.allowed, 2);
        assert_eq!(e.allowed_groups, vec![(Rule::D4, "f.rs".to_string())]);
    }

    #[test]
    fn count_exceeded_and_stale_both_fail() {
        let a = parse_allowlist("[[allow]]\nrule = \"D4\"\nfile = \"f.rs\"\ncount = 1\n")
            .expect("parses");
        let over = vec![finding(Rule::D4, "f.rs", 1), finding(Rule::D4, "f.rs", 2)];
        assert_eq!(evaluate(&over, &a).errors.len(), 1);
        let stale: Vec<Finding> = vec![];
        let e = evaluate(&stale, &a);
        assert_eq!(e.errors.len(), 1);
        assert!(e.errors[0].contains("stale"), "{}", e.errors[0]);
    }

    #[test]
    fn unlisted_findings_are_errors() {
        let fs = vec![finding(Rule::D2, "g.rs", 7)];
        let e = evaluate(&fs, &Allowlist::default());
        assert_eq!(e.errors.len(), 1);
        assert!(e.errors[0].contains("g.rs:7"), "{}", e.errors[0]);
    }
}
