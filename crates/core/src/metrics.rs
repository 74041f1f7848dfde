//! Run-level metrics for a [`CleaningSession`](crate::CleaningSession):
//! per-phase timings, one record per outer-loop iteration, and an
//! end-of-run summary carrying the global [`comet_obs`] registry snapshot.
//!
//! The session only *collects* while `comet_obs::enabled()` is on; with
//! metrics off (the default) nothing here is constructed and the hot path
//! pays one relaxed atomic load per instrumentation site. Collection never
//! influences control flow, which is what keeps instrumented traces
//! bit-identical to bare runs.

use comet_obs::json::JsonObject;
use comet_obs::Snapshot;

/// The six phases of one outer-loop iteration, in execution order.
pub const PHASES: [&str; 6] = ["pollute", "estimate", "rank", "clean_step", "evaluate", "fallback"];

/// Nanoseconds spent per phase. `pollute` and `estimate` run fused inside
/// the parallel candidate fan-out, so those two are *aggregate worker
/// time* (they can exceed the iteration's wall clock on multi-threaded
/// runs); the remaining four are sequential wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// What-if pollution of candidate variants (aggregate worker time).
    pub pollute: u64,
    /// BLR fit + backward extrapolation (aggregate worker time).
    pub estimate: u64,
    /// Candidate ranking (Eq. 4).
    pub rank: u64,
    /// Simulated cleaning steps (batch + step-by-step paths).
    pub clean_step: u64,
    /// Model evaluations outside the fan-out (batch + step-by-step paths).
    pub evaluate: u64,
    /// The whole fallback block, including its cleaning and evaluation.
    pub fallback: u64,
}

impl PhaseNanos {
    /// Sum across all phases.
    pub fn total(&self) -> u64 {
        self.pollute + self.estimate + self.rank + self.clean_step + self.evaluate + self.fallback
    }

    /// Add another reading phase-wise.
    pub fn accumulate(&mut self, other: &PhaseNanos) {
        self.pollute += other.pollute;
        self.estimate += other.estimate;
        self.rank += other.rank;
        self.clean_step += other.clean_step;
        self.evaluate += other.evaluate;
        self.fallback += other.fallback;
    }

    /// `(name, nanos)` pairs in [`PHASES`] order.
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("pollute", self.pollute),
            ("estimate", self.estimate),
            ("rank", self.rank),
            ("clean_step", self.clean_step),
            ("evaluate", self.evaluate),
            ("fallback", self.fallback),
        ]
    }

    /// Encode as a JSON object of seconds keyed by phase name.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for (name, nanos) in self.named() {
            obj.field_f64(name, nanos as f64 / 1e9);
        }
        obj.finish()
    }
}

/// One outer-loop iteration's worth of metrics — one journal line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationMetrics {
    /// Outer-loop iteration index.
    pub iteration: usize,
    /// Dirty `(feature, error)` pairs ranked this iteration.
    pub candidates: usize,
    /// Step records appended to the trace this iteration.
    pub records: usize,
    /// Cumulative budget spent after this iteration.
    pub budget_spent: f64,
    /// Current (accepted) F1 after this iteration.
    pub f1: f64,
    /// Candidate evaluations that failed out (after retries) this
    /// iteration and were skipped.
    pub failures: usize,
    /// Per-phase timings.
    pub phases: PhaseNanos,
}

impl IterationMetrics {
    /// Encode as one JSONL journal record (`"kind": "iteration"`).
    pub fn to_json_line(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("kind", "iteration");
        obj.field_u64("iteration", self.iteration as u64);
        obj.field_u64("candidates", self.candidates as u64);
        obj.field_u64("records", self.records as u64);
        obj.field_f64("budget_spent", self.budget_spent);
        obj.field_f64("f1", self.f1);
        obj.field_u64("failures", self.failures as u64);
        obj.field_raw("phases", &self.phases.to_json());
        obj.finish()
    }
}

/// Everything a metrics-enabled run collected: the per-iteration series
/// plus a final copy of the global registry (cache counters, worker
/// utilization, tuner trials, span histograms).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// One entry per outer-loop iteration, in order.
    pub iterations: Vec<IterationMetrics>,
    /// F1 before any cleaning.
    pub initial_f1: f64,
    /// F1 at session end.
    pub final_f1: f64,
    /// Total budget spent.
    pub budget_spent: f64,
    /// Global `comet_obs` registry at session end.
    pub registry: Snapshot,
}

impl RunMetrics {
    /// Phase-wise totals over all iterations.
    pub fn phase_totals(&self) -> PhaseNanos {
        let mut total = PhaseNanos::default();
        for it in &self.iterations {
            total.accumulate(&it.phases);
        }
        total
    }

    /// Encode the end-of-run summary as one JSONL record
    /// (`"kind": "summary"`), closing a journal of iteration records.
    pub fn summary_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("kind", "summary");
        obj.field_u64("iterations", self.iterations.len() as u64);
        obj.field_f64("initial_f1", self.initial_f1);
        obj.field_f64("final_f1", self.final_f1);
        obj.field_f64("budget_spent", self.budget_spent);
        obj.field_raw("phase_totals", &self.phase_totals().to_json());
        obj.field_raw("registry", &self.registry.to_json());
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_obs::json;

    fn sample() -> RunMetrics {
        RunMetrics {
            iterations: vec![
                IterationMetrics {
                    iteration: 0,
                    candidates: 3,
                    records: 1,
                    budget_spent: 1.0,
                    f1: 0.8,
                    failures: 1,
                    phases: PhaseNanos {
                        pollute: 1_000,
                        estimate: 2_000,
                        rank: 10,
                        clean_step: 300,
                        evaluate: 4_000,
                        fallback: 0,
                    },
                },
                IterationMetrics {
                    iteration: 1,
                    candidates: 2,
                    records: 1,
                    budget_spent: 2.0,
                    f1: 0.82,
                    failures: 0,
                    phases: PhaseNanos { fallback: 7_000, ..PhaseNanos::default() },
                },
            ],
            initial_f1: 0.75,
            final_f1: 0.82,
            budget_spent: 2.0,
            registry: Snapshot::default(),
        }
    }

    #[test]
    fn phase_totals_accumulate() {
        let m = sample();
        let totals = m.phase_totals();
        assert_eq!(totals.pollute, 1_000);
        assert_eq!(totals.fallback, 7_000);
        assert_eq!(totals.total(), 14_310);
    }

    #[test]
    fn iteration_line_has_all_phase_keys() {
        let line = sample().iterations[0].to_json_line();
        let value = json::parse(&line).expect("journal line must parse");
        assert_eq!(value.get("kind").and_then(|v| v.as_str()), Some("iteration"));
        assert_eq!(value.get("candidates").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(value.get("failures").and_then(|v| v.as_f64()), Some(1.0));
        let phases = value.get("phases").expect("phases object");
        for name in PHASES {
            assert!(phases.get(name).is_some(), "missing phase key {name}");
        }
        assert_eq!(phases.get("estimate").and_then(|v| v.as_f64()), Some(2e-6));
    }

    #[test]
    fn summary_line_parses_and_totals() {
        let text = sample().summary_json();
        let value = json::parse(&text).expect("summary must parse");
        assert_eq!(value.get("kind").and_then(|v| v.as_str()), Some("summary"));
        assert_eq!(value.get("iterations").and_then(|v| v.as_f64()), Some(2.0));
        let totals = value.get("phase_totals").expect("phase_totals object");
        assert_eq!(totals.get("fallback").and_then(|v| v.as_f64()), Some(7e-6));
        assert!(value.get("registry").and_then(|r| r.get("counters")).is_some());
    }
}
