//! COMET configuration.

use crate::cost::CostPolicy;
use comet_detect::DetectorConfig;
use comet_ml::kernels::KernelTier;

/// The loop policy of a COMET run. Defaults follow the paper's
/// experimental setup (§4); the ablation benchmarks flip individual
/// switches. The model, metric, evaluation seed and step size belong to
/// the [`CleaningEnvironment`](crate::CleaningEnvironment).
///
/// Every field is one entry of a checkpoint's session identity (DESIGN.md
/// §9), encoded by its derived `Debug`: a `--resume` under any changed
/// field is refused with an error naming it. The identity destructures
/// this struct without `..`, so a new field does not compile until it is
/// part of the identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CometConfig {
    /// How many *additional* pollution steps the Polluter probes (§3.1: 2).
    pub pollution_steps: usize,
    /// Random cell combinations per pollution level (§3.1: "multiple").
    pub n_combinations: usize,
    /// Total cleaning budget in cost units (§4.2: 50).
    pub budget: f64,
    /// Cost policy.
    pub costs: CostPolicy,
    /// Credible-interval level for the Estimator's uncertainty.
    pub interval: f64,
    /// Polynomial degree of the Bayesian regression basis.
    pub blr_degree: usize,
    /// Ablation: subtract the uncertainty in the score (paper: true).
    pub use_uncertainty: bool,
    /// Ablation: per-feature bias correction of predictions (paper: true).
    pub bias_correction: bool,
    /// Ablation: revert-and-buffer on F1 decrease (paper: true).
    pub revert_on_decrease: bool,
    /// Ablation: fallback strategy when no candidate is positive (paper: true).
    pub fallback: bool,
    /// Kernel tier for all linear-algebra reductions (DESIGN.md §12).
    /// Each tier has one fixed reduction order, so the tier is part of the
    /// session's determinism contract (and of its checkpoint identity).
    /// Defaults to scalar.
    pub kernels: KernelTier,
    /// Run the Estimator's inner pollution-probe evaluations with f32
    /// model training (SGD/MLP/KNN forward passes). The Bayesian fit,
    /// ranking, and every accepted-step evaluation stay f64; only the
    /// what-if probes drop precision. Off by default.
    pub f32_probes: bool,
    /// Detection-seeded mode: when set, candidate `(feature, error)` pairs
    /// come from a deterministic detector ensemble scanning the dirty
    /// frames instead of the JENGA provenance oracle (DESIGN.md §13): it
    /// decides which candidate pairs exist. `None` = oracle mode (the
    /// paper's setup).
    pub detect: Option<DetectorConfig>,
    /// Rows per column segment (DESIGN.md §15). `0` = whole-column (one
    /// segment per column). Traces are bit-identical across segment sizes,
    /// but spill files, feature-block cache keys, and pollution clone
    /// granularity are per-segment, so a cross-segment-size resume is
    /// refused all the same.
    pub segment_rows: usize,
}

impl Default for CometConfig {
    fn default() -> Self {
        CometConfig {
            pollution_steps: 2,
            n_combinations: 2,
            budget: 50.0,
            costs: CostPolicy::constant(),
            interval: 0.95,
            blr_degree: 1,
            use_uncertainty: true,
            bias_correction: true,
            revert_on_decrease: true,
            fallback: true,
            kernels: KernelTier::Scalar,
            f32_probes: false,
            detect: None,
            segment_rows: comet_frame::DEFAULT_SEGMENT_ROWS,
        }
    }
}

impl CometConfig {
    /// Validate invariant-critical fields.
    pub fn validate(&self) -> Result<(), String> {
        if self.pollution_steps == 0 {
            return Err("pollution_steps must be at least 1".into());
        }
        if self.n_combinations == 0 {
            return Err("n_combinations must be at least 1".into());
        }
        if !(self.interval > 0.0 && self.interval < 1.0) {
            return Err(format!("interval must be in (0,1), got {}", self.interval));
        }
        if !(self.budget >= 0.0 && self.budget.is_finite()) {
            return Err(format!("budget must be finite and non-negative, got {}", self.budget));
        }
        if let Some(detect) = &self.detect {
            detect.validate().map_err(|e| format!("detect: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CometConfig::default();
        assert_eq!(c.pollution_steps, 2);
        assert_eq!(c.budget, 50.0);
        assert!(c.use_uncertainty && c.bias_correction && c.revert_on_decrease && c.fallback);
        // The paper's numbers were produced with full-precision probes;
        // the kernel tier only follows an explicit opt-in.
        assert_eq!(c.kernels, KernelTier::Scalar);
        assert!(!c.f32_probes);
        assert!(c.detect.is_none(), "the paper's setup is oracle mode");
        assert_eq!(c.segment_rows, comet_frame::DEFAULT_SEGMENT_ROWS);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad = [
            CometConfig { pollution_steps: 0, ..CometConfig::default() },
            CometConfig { n_combinations: 0, ..CometConfig::default() },
            CometConfig { interval: 1.0, ..CometConfig::default() },
            CometConfig { budget: -1.0, ..CometConfig::default() },
            CometConfig { budget: f64::NAN, ..CometConfig::default() },
            CometConfig { budget: f64::INFINITY, ..CometConfig::default() },
            CometConfig {
                detect: Some(comet_detect::DetectorConfig {
                    knn_k: 0,
                    ..comet_detect::DetectorConfig::default()
                }),
                ..CometConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }
}
