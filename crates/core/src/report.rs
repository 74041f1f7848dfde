//! Trace export and human-readable session summaries.

use crate::metrics::RunMetrics;
use crate::trace::{CleaningTrace, StepAction};
use comet_frame::DataFrame;

impl StepAction {
    /// Stable label for CSV/reporting.
    pub fn label(self) -> &'static str {
        match self {
            StepAction::Accepted => "accepted",
            StepAction::Reverted => "reverted",
            StepAction::BufferApplied => "buffer_applied",
            StepAction::Fallback => "fallback",
        }
    }
}

impl CleaningTrace {
    /// Render the trace as CSV (one row per attempted step). `frame`
    /// resolves feature indices to column names where possible.
    pub fn to_csv(&self, frame: Option<&DataFrame>) -> String {
        let mut out = String::from(
            "iteration,feature,error_type,action,cost,budget_spent,\
             predicted_f1,raw_predicted_f1,actual_f1,cleaned_cells\n",
        );
        for r in &self.records {
            let feature = frame
                .and_then(|df| df.column(r.col).ok().map(|c| c.name().to_string()))
                .unwrap_or_else(|| {
                    if r.col == usize::MAX {
                        "<records>".to_string() // record-wise strategies (AC)
                    } else {
                        format!("#{}", r.col)
                    }
                });
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                r.iteration,
                feature,
                r.err.abbrev(),
                r.action.label(),
                r.cost,
                r.budget_spent,
                r.predicted_f1.map(|p| p.to_string()).unwrap_or_default(),
                r.raw_predicted_f1.map(|p| p.to_string()).unwrap_or_default(),
                r.actual_f1,
                r.cleaned_cells,
            ));
        }
        out
    }

    /// Multi-line human-readable summary of the run.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "F1 {:.4} -> {:.4} ({:+.2} pt) over {:.1} budget units\n",
            self.initial_f1,
            self.final_f1,
            100.0 * (self.final_f1 - self.initial_f1),
            self.total_spent(),
        ));
        if let Some(clean) = self.fully_clean_f1 {
            out.push_str(&format!("fully clean reference: {clean:.4}\n"));
        }
        out.push_str(&format!(
            "steps: {} accepted, {} reverted, {} buffer re-applied, {} fallback\n",
            self.count_action(StepAction::Accepted),
            self.count_action(StepAction::Reverted),
            self.count_action(StepAction::BufferApplied),
            self.count_action(StepAction::Fallback),
        ));
        if let Some(mae) = self.prediction_mae() {
            out.push_str(&format!("prediction MAE: {mae:.4}\n"));
        }
        if let Some(rt) = self.mean_iteration_runtime() {
            out.push_str(&format!(
                "mean recommendation runtime: {:.1} ms over {} iterations\n",
                rt.as_secs_f64() * 1e3,
                self.iteration_runtimes.len(),
            ));
        }
        out
    }
}

impl RunMetrics {
    /// The "MetricsReport" section: a Figure-12-style per-module runtime
    /// breakdown plus worker-pool, tuner and spill-tier counters, rendered
    /// from a metrics-enabled run.
    pub fn report(&self) -> String {
        let totals = self.phase_totals();
        let denom = totals.total().max(1) as f64;
        let mut out = String::from("== metrics report ==\n");
        out.push_str(&format!("iterations: {}\n", self.iterations.len()));
        out.push_str("phase breakdown (pollute/estimate are aggregate worker time):\n");
        for (name, nanos) in totals.named() {
            out.push_str(&format!(
                "  {name:<10} {:>9.3} s  ({:>5.1}%)\n",
                nanos as f64 / 1e9,
                100.0 * nanos as f64 / denom,
            ));
        }
        if let Some(peak) = self.registry.gauge("par.peak_workers") {
            out.push_str(&format!("peak extra workers: {peak:.0}\n"));
        }
        let fanouts = self.registry.counter("par.fanouts");
        if fanouts > 0 {
            out.push_str(&format!(
                "parallel fan-outs: {fanouts} ({} sequential)\n",
                self.registry.counter("par.sequential_fallbacks"),
            ));
        }
        let trials = self.registry.counter("tune.trials");
        if trials > 0 {
            out.push_str(&format!(
                "hyperparameter trials: {trials} over {} searches\n",
                self.registry.counter("tune.searches"),
            ));
        }
        // Segment spill tier: only reported when a memory budget was
        // configured (the counters stay zero otherwise).
        let spills = self.registry.counter("segment.spills");
        let reloads = self.registry.counter("segment.reloads");
        if spills > 0 || reloads > 0 {
            out.push_str(&format!("segment spills: {spills} ({reloads} reloads)\n"));
            if let Some(resident) = self.registry.gauge("segment.resident") {
                out.push_str(&format!(
                    "resident segments: {resident:.0} ({:.1} MiB resident, {:.1} MiB spilled)\n",
                    self.registry.gauge("segment.resident_bytes").unwrap_or(0.0)
                        / (1u64 << 20) as f64,
                    self.registry.gauge("segment.spill_bytes").unwrap_or(0.0) / (1u64 << 20) as f64,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{IterationMetrics, PhaseNanos};
    use crate::trace::StepRecord;
    use comet_jenga::ErrorType;
    use std::time::Duration;

    fn trace() -> CleaningTrace {
        CleaningTrace {
            records: vec![
                StepRecord {
                    iteration: 0,
                    col: 1,
                    err: ErrorType::MissingValues,
                    action: StepAction::Accepted,
                    cost: 1.0,
                    budget_spent: 1.0,
                    predicted_f1: Some(0.8),
                    raw_predicted_f1: Some(0.79),
                    actual_f1: 0.82,
                    cleaned_cells: 5,
                },
                StepRecord {
                    iteration: 1,
                    col: usize::MAX,
                    err: ErrorType::Scaling,
                    action: StepAction::Fallback,
                    cost: 1.0,
                    budget_spent: 2.0,
                    predicted_f1: None,
                    raw_predicted_f1: None,
                    actual_f1: 0.81,
                    cleaned_cells: 3,
                },
            ],
            failures: vec![],
            f1_curve: vec![(1.0, 0.82), (2.0, 0.81)],
            initial_f1: 0.8,
            final_f1: 0.81,
            fully_clean_f1: Some(0.85),
            iteration_runtimes: vec![Duration::from_millis(12)],
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = trace().to_csv(None);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("iteration,feature,error_type"));
        assert!(lines[1].contains("#1,MV,accepted,1,1,0.8,0.79,0.82,5"));
        assert!(lines[2].contains("<records>,S,fallback"));
    }

    #[test]
    fn csv_resolves_feature_names() {
        let x = comet_frame::Column::numeric("age", vec![1.0]);
        let income = comet_frame::Column::numeric("income", vec![2.0]);
        let df = comet_frame::DataFrame::new(vec![x, income], None).unwrap();
        let csv = trace().to_csv(Some(&df));
        assert!(csv.contains(",income,MV,"), "{csv}");
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = trace().summary();
        assert!(s.contains("0.8000 -> 0.8100"));
        assert!(s.contains("1 accepted"));
        assert!(s.contains("1 fallback"));
        assert!(s.contains("prediction MAE"));
        assert!(s.contains("12.0 ms"));
        assert!(s.contains("fully clean reference: 0.8500"));
    }

    #[test]
    fn action_labels_are_stable() {
        assert_eq!(StepAction::Accepted.label(), "accepted");
        assert_eq!(StepAction::BufferApplied.label(), "buffer_applied");
    }

    #[test]
    fn metrics_report_mentions_phases() {
        let metrics = RunMetrics {
            iterations: vec![IterationMetrics {
                iteration: 0,
                candidates: 2,
                records: 1,
                budget_spent: 1.0,
                f1: 0.8,
                failures: 0,
                phases: PhaseNanos {
                    pollute: 2_000_000_000,
                    estimate: 1_000_000_000,
                    rank: 500_000,
                    clean_step: 20_000_000,
                    evaluate: 900_000_000,
                    fallback: 0,
                },
            }],
            initial_f1: 0.7,
            final_f1: 0.8,
            budget_spent: 1.0,
            registry: comet_obs::Snapshot::default(),
        };
        let s = metrics.report();
        assert!(s.contains("metrics report"));
        assert!(s.contains("iterations: 1"));
        for phase in crate::metrics::PHASES {
            assert!(s.contains(phase), "missing {phase} in {s}");
        }
        assert!(!s.contains("segment spills"), "no spill tier → no spill section: {s}");
    }

    #[test]
    fn metrics_report_includes_spill_tier_when_active() {
        let mut registry = comet_obs::Snapshot::default();
        registry.counters.insert("segment.spills".into(), 4);
        registry.counters.insert("segment.reloads".into(), 2);
        registry.gauges.insert("segment.resident".into(), 7.0);
        registry.gauges.insert("segment.resident_bytes".into(), (3u64 << 20) as f64);
        registry.gauges.insert("segment.spill_bytes".into(), (1u64 << 20) as f64);
        let metrics = RunMetrics {
            iterations: vec![],
            initial_f1: 0.7,
            final_f1: 0.8,
            budget_spent: 1.0,
            registry,
        };
        let s = metrics.report();
        assert!(s.contains("segment spills: 4 (2 reloads)"), "{s}");
        assert!(s.contains("resident segments: 7 (3.0 MiB resident, 1.0 MiB spilled)"), "{s}");
    }
}
