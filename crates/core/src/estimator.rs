//! The Estimator module (paper §3.2): measure pollution effects, fit a
//! Bayesian regression, extrapolate the effect of *cleaning* one step.

use crate::env::{CleaningEnvironment, EnvError};
use crate::polluter::PollutedVariant;
use comet_bayes::{BayesianLinearRegression, BlrConfig, Ols, RunningStats};
use comet_jenga::ErrorType;
use std::collections::BTreeMap;

/// The Estimator's output for one `(feature, error type)` candidate.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Feature column.
    pub col: usize,
    /// Error type.
    pub err: ErrorType,
    /// F1 in the current data state (pollution step 0).
    pub current_f1: f64,
    /// Raw regression prediction at −1 steps (one cleaning step).
    pub raw_predicted_f1: f64,
    /// Bias-corrected prediction (§3.3: mean of observed discrepancies).
    pub predicted_f1: f64,
    /// Credible-interval width `U(f)` of the prediction.
    pub uncertainty: f64,
    /// `(pollution steps, measured F1)` points the regression was fitted on.
    pub points: Vec<(f64, f64)>,
    /// Training rows the Polluter flagged (Cleaner hint).
    pub flagged_train: Vec<usize>,
    /// Test rows the Polluter flagged.
    pub flagged_test: Vec<usize>,
}

impl Estimate {
    /// Predicted F1 gain of one cleaning step.
    pub fn gain(&self) -> f64 {
        self.predicted_f1 - self.current_f1
    }
}

/// The Estimator: owns the per-candidate bias-correction state that
/// accumulates as the Recommender compares predictions with outcomes.
#[derive(Debug, Clone)]
pub struct Estimator {
    blr_config: BlrConfig,
    bias_correction: bool,
    /// Observed (actual − raw predicted) discrepancies per candidate pair.
    discrepancies: BTreeMap<(usize, ErrorType), RunningStats>,
}

impl Estimator {
    /// Create an Estimator. `degree`/`interval` configure the Bayesian
    /// regression; `bias_correction` enables the §3.3 adjustment.
    pub fn new(degree: usize, interval: f64, bias_correction: bool) -> Self {
        Estimator {
            blr_config: BlrConfig { degree, interval, ..BlrConfig::default() },
            bias_correction,
            discrepancies: BTreeMap::new(),
        }
    }

    /// Step 1 + Step 2 (Eqs. 2–3): evaluate every polluted variant, regress
    /// F1 on pollution steps, and predict the F1 one *cleaning* step away
    /// (x = −1) with uncertainty. Variant evaluations are independent model
    /// fits, so they fan out across worker threads; results are collected
    /// in variant order, keeping the regression points deterministic.
    pub fn estimate(
        &self,
        env: &CleaningEnvironment,
        col: usize,
        err: ErrorType,
        current_f1: f64,
        variants: &[PollutedVariant],
    ) -> Result<Estimate, EnvError> {
        assert!(!variants.is_empty(), "need at least one polluted variant");
        // Per-worker state batches the variant-evaluation tally: one
        // registry update when the worker's batch drops, not one per item.
        struct EvalTally(u64);
        impl Drop for EvalTally {
            fn drop(&mut self) {
                if self.0 > 0 {
                    comet_obs::counter_add("estimator.variant_evals", self.0);
                }
            }
        }
        let scores: Vec<Result<f64, EnvError>> = comet_par::par_map_with(
            (0..variants.len()).collect(),
            || EvalTally(0),
            |tally, i| {
                tally.0 += 1;
                // Probe evaluations may run in the opt-in f32 tier; the
                // step-0 point (current_f1) and every accepted-step
                // evaluation stay full f64.
                env.evaluate_frames_probe(&variants[i].train, &variants[i].test)
            },
        );
        let mut points: Vec<(f64, f64)> = Vec::with_capacity(variants.len() + 1);
        points.push((0.0, current_f1));
        let mut flagged_train = Vec::new();
        let mut flagged_test = Vec::new();
        for (v, score) in variants.iter().zip(scores) {
            debug_assert_eq!((v.col, v.err), (col, err));
            let f1 = score?;
            points.push((v.steps as f64, f1));
            if v.steps == 1 {
                // Union of first-step rows across combinations = the set of
                // entries whose pollution informed this estimate.
                for &r in &v.flagged_train {
                    if !flagged_train.contains(&r) {
                        flagged_train.push(r);
                    }
                }
                for &r in &v.flagged_test {
                    if !flagged_test.contains(&r) {
                        flagged_test.push(r);
                    }
                }
            }
        }

        let xs: Vec<f64> = points.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = points.iter().map(|&(_, y)| y).collect();
        let (mean, uncertainty) = self.backward_prediction(&xs, &ys)?;
        // F1 lives in [0, 1]; the linear extrapolation may leave it.
        let raw = mean.clamp(0.0, 1.0);
        let corrected =
            if self.bias_correction { (raw + self.bias(col, err)).clamp(0.0, 1.0) } else { raw };
        Ok(Estimate {
            col,
            err,
            current_f1,
            raw_predicted_f1: raw,
            predicted_f1: corrected,
            uncertainty,
            points,
            flagged_train,
            flagged_test,
        })
    }

    /// Predict F1 one cleaning step away (x = −1): Bayesian regression when
    /// the fit is well-conditioned, otherwise a degraded-mode ridge OLS
    /// fallback (point estimate, uncertainty from the observed F1 spread)
    /// so a near-singular design degrades the estimate instead of failing
    /// the candidate. Degraded fits bump `fault.degraded_estimates`.
    fn backward_prediction(&self, xs: &[f64], ys: &[f64]) -> Result<(f64, f64), EnvError> {
        let mut blr = BayesianLinearRegression::new(self.blr_config);
        let fitted = blr.fit(xs, ys).map(|_| ());
        let blr_err = match fitted.and_then(|()| blr.predict(-1.0)) {
            Ok(pred) => return Ok((pred.mean, pred.uncertainty())),
            Err(e) => e,
        };
        comet_obs::counter_add("fault.degraded_estimates", 1);
        let mut ols = Ols::new(self.blr_config.degree);
        let fitted = ols.fit(xs, ys).map(|_| ());
        let mean = fitted.and_then(|()| ols.predict(-1.0)).map_err(|ols_err| {
            EnvError::Invalid(format!(
                "Bayesian regression failed ({blr_err}) and OLS fallback failed ({ols_err})"
            ))
        })?;
        // OLS carries no posterior; use the observed response spread as a
        // conservative stand-in (floored so the score penalty stays real).
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &y in ys {
            lo = lo.min(y);
            hi = hi.max(y);
        }
        // comet-lint: allow(D2) — epsilon floor on an interval width scanned from finite samples
        Ok((mean, (hi - lo).max(1e-6)))
    }

    /// Mean observed discrepancy (actual − raw prediction) for a candidate.
    pub fn bias(&self, col: usize, err: ErrorType) -> f64 {
        self.discrepancies.get(&(col, err)).map_or(0.0, RunningStats::mean)
    }

    /// Record an observed outcome so future predictions for this candidate
    /// are corrected (§3.3: the Estimator adjusts even when the Recommender
    /// reverts the step).
    pub fn record_outcome(&mut self, col: usize, err: ErrorType, raw_predicted: f64, actual: f64) {
        self.discrepancies.entry((col, err)).or_default().push(actual - raw_predicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polluter::Polluter;
    use comet_frame::{train_test_split, SplitOptions};
    use comet_jenga::{GroundTruth, PrePollutionPlan, Provenance, Scenario};
    use comet_ml::{Algorithm, Metric, RandomSearch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env(polluted: bool) -> CleaningEnvironment {
        let mut rng = StdRng::seed_from_u64(99);
        let df = comet_datasets::Dataset::Eeg.generate(Some(300), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        if polluted {
            let plan = PrePollutionPlan::explicit(
                Scenario::SingleError(ErrorType::MissingValues),
                vec![(0, 0.4)],
            );
            plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
            plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
        }
        CleaningEnvironment::new(
            train,
            test,
            gt_train,
            gt_test,
            prov_train,
            prov_test,
            Algorithm::Knn,
            Metric::F1,
            0.02,
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            3,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn estimate_has_sane_shape() {
        let env = env(true);
        let current = env.evaluate().unwrap();
        let polluter = Polluter::new(2, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let variants = polluter.variants(&env, 0, ErrorType::MissingValues, &mut rng).unwrap();
        let est = Estimator::new(1, 0.95, true);
        let e = est.estimate(&env, 0, ErrorType::MissingValues, current, &variants).unwrap();
        assert_eq!(e.points.len(), 5); // 1 current + 2 steps × 2 combos
        assert!((0.0..=1.0).contains(&e.predicted_f1));
        assert!(e.uncertainty >= 0.0);
        assert!(!e.flagged_train.is_empty());
        assert!((e.gain() - (e.predicted_f1 - e.current_f1)).abs() < 1e-15);
    }

    #[test]
    fn bias_correction_learns_from_outcomes() {
        let mut est = Estimator::new(1, 0.95, true);
        assert_eq!(est.bias(0, ErrorType::MissingValues), 0.0);
        est.record_outcome(0, ErrorType::MissingValues, 0.8, 0.9);
        est.record_outcome(0, ErrorType::MissingValues, 0.8, 0.7);
        assert!(est.bias(0, ErrorType::MissingValues).abs() < 1e-12);
        est.record_outcome(0, ErrorType::MissingValues, 0.5, 0.8);
        assert!(est.bias(0, ErrorType::MissingValues) > 0.0);
        // Other candidates unaffected.
        assert_eq!(est.bias(1, ErrorType::MissingValues), 0.0);
    }

    #[test]
    fn correction_applied_to_prediction() {
        let env = env(true);
        let current = env.evaluate().unwrap();
        let polluter = Polluter::new(2, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let variants = polluter.variants(&env, 0, ErrorType::MissingValues, &mut rng).unwrap();

        let mut est = Estimator::new(1, 0.95, true);
        let before = est.estimate(&env, 0, ErrorType::MissingValues, current, &variants).unwrap();
        // Teach a constant +0.05 bias.
        est.record_outcome(0, ErrorType::MissingValues, 0.0, 0.05);
        let after = est.estimate(&env, 0, ErrorType::MissingValues, current, &variants).unwrap();
        assert!((after.predicted_f1 - (before.raw_predicted_f1 + 0.05)).abs() < 1e-9);
    }

    #[test]
    fn disabled_correction_is_identity() {
        let mut est = Estimator::new(1, 0.95, false);
        est.record_outcome(0, ErrorType::Scaling, 0.0, 0.3);
        let env = env(true);
        let current = env.evaluate().unwrap();
        let polluter = Polluter::new(1, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let variants = polluter.variants(&env, 0, ErrorType::MissingValues, &mut rng).unwrap();
        let e = est.estimate(&env, 0, ErrorType::MissingValues, current, &variants).unwrap();
        assert_eq!(e.predicted_f1, e.raw_predicted_f1);
    }

    #[test]
    fn degenerate_design_falls_back_to_ols() {
        use comet_bayes::BlrConfig;
        // A flat prior over a constant-x design makes the BLR precision
        // near-singular; the degraded path must still produce a finite
        // point estimate with a spread-based uncertainty.
        let est = Estimator {
            blr_config: BlrConfig { degree: 1, prior_scale: 1e12, ..BlrConfig::default() },
            bias_correction: false,
            discrepancies: BTreeMap::new(),
        };
        let xs = [2.0; 8];
        let ys = [0.50, 0.55, 0.60, 0.52, 0.58, 0.54, 0.56, 0.53];
        let (mean, uncertainty) = est.backward_prediction(&xs, &ys).unwrap();
        assert!(mean.is_finite());
        assert!((uncertainty - 0.10).abs() < 1e-12, "spread-based uncertainty, got {uncertainty}");

        // A well-conditioned design still takes the Bayesian path and
        // reports a posterior (not spread-based) uncertainty.
        let healthy = Estimator::new(1, 0.95, false);
        let xs2 = [0.0, 1.0, 2.0, 3.0];
        let ys2 = [0.9, 0.8, 0.7, 0.6];
        let (mean2, unc2) = healthy.backward_prediction(&xs2, &ys2).unwrap();
        assert!((mean2 - 1.0).abs() < 0.05, "x=-1 extrapolation of a clean line, got {mean2}");
        assert!(unc2 > 0.0);
    }

    /// One environment for the thread-invariance proptest: construction
    /// (tuning included) costs more than every case combined.
    fn shared_env() -> &'static CleaningEnvironment {
        static ENV: std::sync::OnceLock<CleaningEnvironment> = std::sync::OnceLock::new();
        ENV.get_or_init(|| env(true))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]
        #[test]
        fn estimates_are_thread_count_invariant(seed in 0u64..1_000) {
            // The full hot path — polluted variants, cached featurization,
            // blocked kernels, model fits fanned out over workers — must
            // give bit-identical regression points at 1, 2, and 8 threads.
            // The feature cache is wiped per run so every block is
            // recomputed, not replayed.
            let env = shared_env();
            let polluter = Polluter::new(2, 1);
            let mut rng = StdRng::seed_from_u64(seed);
            let variants =
                polluter.variants(env, 0, ErrorType::MissingValues, &mut rng).unwrap();
            let est = Estimator::new(1, 0.95, false);
            let current = env.evaluate().unwrap();
            let run = |threads: usize| {
                env.clear_feature_cache();
                comet_par::with_threads(threads, || {
                    est.estimate(env, 0, ErrorType::MissingValues, current, &variants)
                        .unwrap()
                        .points
                })
            };
            let p1 = run(1);
            let p2 = run(2);
            let p8 = run(8);
            proptest::prop_assert_eq!(p1.len(), p2.len());
            proptest::prop_assert_eq!(p1.len(), p8.len());
            for ((a, b), c) in p1.iter().zip(&p2).zip(&p8) {
                proptest::prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                proptest::prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                proptest::prop_assert_eq!(a.0.to_bits(), c.0.to_bits());
                proptest::prop_assert_eq!(a.1.to_bits(), c.1.to_bits());
            }
        }
    }

    #[test]
    fn predictions_stay_in_unit_interval() {
        // Extreme synthetic points would extrapolate out of [0,1]; the
        // estimate must clamp.
        let env = env(false);
        let polluter = Polluter::new(2, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let variants = polluter.variants(&env, 0, ErrorType::GaussianNoise, &mut rng).unwrap();
        let mut est = Estimator::new(1, 0.95, true);
        est.record_outcome(0, ErrorType::GaussianNoise, 0.0, 1.0); // +1 bias
        let current = env.evaluate().unwrap();
        let e = est.estimate(&env, 0, ErrorType::GaussianNoise, current, &variants).unwrap();
        assert!(e.predicted_f1 <= 1.0);
    }
}
