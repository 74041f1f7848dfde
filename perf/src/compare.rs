//! `perf compare PARENT_DIR CHANGE_DIR`: judge a change against its parent
//! from run files written by `perf run --out`, one row per workload.
//!
//! Per end-to-end metric, with the bounds of `BENCHMARK.json`:
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **improved** — the change wins at least nine tenths of at least ten
//!   seed-paired runs (ties count for neither) and the medians differ by
//!   more than the parent's own interquartile spread;
//! * **unresolved** — the parent's spread is wider than the bound and not
//!   every change run reads better than every parent run;
//! * **unchanged** — otherwise.
//!
//! A workload is regressed if any metric is, else unresolved if any is,
//! else improved if any is, else unchanged.

use crate::catalog::Better;
use crate::stats;
use comet_obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` a comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Bound>,
}

impl Benchmark {
    /// Parse `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Benchmark, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| match doc.get(key) {
            Some(JsonValue::Arr(items)) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json has no {key} list")),
        };
        let name_of = |item: &JsonValue| {
            item.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or("entry without a name")
        };
        let workloads = list("workloads")?.iter().map(name_of).collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|item| {
                let better = match item.get("better").and_then(JsonValue::as_str) {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    other => return Err(format!("bad better {other:?}")),
                };
                let bound =
                    item.get("bound").and_then(JsonValue::as_f64).ok_or("entry without a bound")?;
                Ok(Bound { name: name_of(item)?, better, bound })
            })
            .collect::<Result<_, String>>()?;
        Ok(Benchmark { workloads, end_to_end })
    }
}

/// Verdict for one metric or workload, in order of precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Better beyond noise.
    Improved,
    /// Within the bound.
    Unchanged,
    /// The parent's spread exceeds the bound.
    Unresolved,
    /// Worse than the bound.
    Regressed,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judge one metric from per-seed values of the parent and the change.
pub fn judge(bound: &Bound, parent: &BTreeMap<u64, f64>, change: &BTreeMap<u64, f64>) -> Verdict {
    let p: Vec<f64> = parent.values().copied().collect();
    let c: Vec<f64> = change.values().copied().collect();
    let (Some(pm), Some(cm)) = (stats::median(&p), stats::median(&c)) else {
        return Verdict::Unresolved;
    };
    // Positive = better, in the metric's own direction.
    let gain = |parent: f64, change: f64| match bound.better {
        Better::Lower => parent - change,
        Better::Higher => change - parent,
    };
    if pm != 0.0 && -gain(pm, cm) / pm.abs() > bound.bound {
        return Verdict::Regressed;
    }
    let spread = stats::quartiles(&p).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let pairs: Vec<(f64, f64)> =
        parent.iter().filter_map(|(seed, &pv)| change.get(seed).map(|&cv| (pv, cv))).collect();
    let wins = pairs.iter().filter(|&&(pv, cv)| gain(pv, cv) > 0.0).count();
    if pairs.len() >= 10 && wins * 10 >= pairs.len() * 9 && gain(pm, cm) > spread {
        return Verdict::Improved;
    }
    let every_run_better = p.iter().all(|&pv| c.iter().all(|&cv| gain(pv, cv) > 0.0));
    if pm != 0.0 && spread / pm.abs() > bound.bound && !every_run_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Per workload, per metric, per seed: the value of every correct
/// untraced run file in `dir`.
type Runs = BTreeMap<String, BTreeMap<String, BTreeMap<u64, f64>>>;

fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json")
            || name.ends_with(".trace.json")
            || name.ends_with(".layers.json")
        {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(seed), Some(result)) = (
            doc.get("workload").and_then(JsonValue::as_str),
            doc.get("seed").and_then(JsonValue::as_f64),
            doc.get("result"),
        ) else {
            continue;
        };
        if result.get("correct") != Some(&JsonValue::Bool(true)) {
            continue;
        }
        let Some(metrics) = result.get("metrics").and_then(JsonValue::as_obj) else { continue };
        for (metric, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(JsonValue::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .insert(seed as u64, value);
            }
        }
    }
    Ok(runs)
}

/// Compare and print one row per workload. Returns whether any workload
/// regressed.
pub fn compare(
    benchmark: &Benchmark,
    parent_dir: &Path,
    change_dir: &Path,
) -> Result<bool, String> {
    let parent = load_runs(parent_dir)?;
    let change = load_runs(change_dir)?;
    let empty = BTreeMap::new();
    let mut any_regressed = false;
    println!("{:<14} {:<11} notes", "workload", "verdict");
    for workload in &benchmark.workloads {
        let (Some(p), Some(c)) = (parent.get(workload), change.get(workload)) else {
            println!("{workload:<14} {:<11} no runs on one side", Verdict::Unresolved.label());
            continue;
        };
        let mut verdict = Verdict::Unchanged;
        let mut notes = Vec::new();
        let mut improved = false;
        for bound in &benchmark.end_to_end {
            let pv = p.get(&bound.name).unwrap_or(&empty);
            let cv = c.get(&bound.name).unwrap_or(&empty);
            let v = judge(bound, pv, cv);
            let median = |m: &BTreeMap<u64, f64>| {
                stats::median(&m.values().copied().collect::<Vec<_>>()).unwrap_or(f64::NAN)
            };
            if v != Verdict::Unchanged {
                notes.push(format!(
                    "{} {} ({:.6} -> {:.6}, bound {:.0}%)",
                    bound.name,
                    v.label(),
                    median(pv),
                    median(cv),
                    bound.bound * 100.0
                ));
            }
            improved |= v == Verdict::Improved;
            if v > verdict {
                verdict = v;
            }
        }
        if verdict == Verdict::Unchanged && improved {
            verdict = Verdict::Improved;
        }
        any_regressed |= verdict == Verdict::Regressed;
        println!("{workload:<14} {:<11} {}", verdict.label(), notes.join("; "));
    }
    Ok(any_regressed)
}
