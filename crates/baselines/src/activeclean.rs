//! AC — ActiveClean (Krishnan et al., PVLDB 2016), adapted per paper §5.3.
//!
//! ActiveClean treats cleaning as stochastic gradient descent: a convex
//! model is pre-trained on the already-clean records, then each iteration
//! selects the dirty records with the largest estimated gradient norms,
//! cleans them across *all* features, and takes SGD steps on the newly
//! cleaned sample. Per the paper's adaptation we (a) skip the error
//! detection component (§5.3: "AC's approach also includes an error
//! detection component, which we skip"), (b) align record-wise cleaning
//! with COMET's feature-level budget accounting, and (c) evaluate AC's
//! *own incrementally updated model* after every step — ActiveClean's
//! defining behaviour, and the source of the erratic F1 trajectories the
//! paper reports (§5.3: "the F1 score can drop by up to 30 %pt after a
//! cleaning step, only to recover").

use comet_core::{
    CleaningEnvironment, CleaningTrace, CometConfig, CometError, EnvError, SessionState, StepAction,
};
use comet_jenga::ErrorType;
use comet_ml::sgd::{Glm, Loss, SgdParams};
use comet_ml::{Algorithm, Featurizer};
use rand::Rng;
use std::time::Instant;

/// Record-wise steps clean no single feature: ActiveClean books every step
/// under this column, so its step counts are per error type.
const ALL_FEATURES: usize = usize::MAX;

/// ActiveClean hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveCleanConfig {
    /// SGD epochs over the newly cleaned sample per iteration.
    pub update_epochs: usize,
    /// Learning rate for the incremental updates.
    pub learning_rate: f64,
    /// Epochs for the initial pre-training on clean records.
    pub pretrain_epochs: usize,
}

impl Default for ActiveCleanConfig {
    fn default() -> Self {
        ActiveCleanConfig { update_epochs: 5, learning_rate: 0.05, pretrain_epochs: 30 }
    }
}

/// The ActiveClean baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActiveClean {
    /// Hyperparameters.
    pub config: ActiveCleanConfig,
}

impl ActiveClean {
    /// Map the environment's algorithm to its convex loss. Errors for
    /// non-convex algorithms (AC supports SVM/LOR/LIR only, §4.5).
    fn loss_for(algorithm: Algorithm) -> Result<Loss, EnvError> {
        match algorithm {
            Algorithm::Svm => Ok(Loss::Hinge),
            Algorithm::LogReg => Ok(Loss::Logistic),
            Algorithm::LinReg => Ok(Loss::Squared),
            other => Err(EnvError::Invalid(format!(
                "ActiveClean requires a convex-loss linear model, got {other}"
            ))),
        }
    }

    /// Run AC to completion (budget or clean). Every step is booked
    /// through COMET's own [`SessionState`], under `(ALL_FEATURES, err)`
    /// pairs. The error types are not consulted: AC cleans whole records,
    /// whatever dirt they carry.
    pub fn run<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        _errors: &[ErrorType],
        config: &CometConfig,
        rng: &mut R,
    ) -> Result<CleaningTrace, CometError> {
        let loss = Self::loss_for(env.model().algorithm)?;
        let mut state = SessionState::new(config, env)?;

        // --- Pre-train on the records that are already clean (§5.3). ---
        let mut glm = Glm::new(
            loss,
            SgdParams {
                learning_rate: self.config.learning_rate,
                l2: 1e-4,
                epochs: self.config.pretrain_epochs,
            },
        );
        {
            let featurizer = Featurizer::fit(env.train())?;
            let x = featurizer.transform(env.train())?;
            let y = env.train().label_codes()?;
            let (dirty_train, _) = dirty_rows(env)?;
            let clean_rows: Vec<usize> = (0..env.train().nrows())
                .filter(|r| dirty_train.binary_search(r).is_err())
                .collect();
            if clean_rows.is_empty() {
                glm.fit(&x, &y, env.n_classes(), rng);
            } else {
                let xc = x.take_rows(&clean_rows);
                let yc: Vec<u32> = clean_rows.iter().map(|&r| y[r]).collect();
                glm.fit(&xc, &yc, env.n_classes(), rng);
            }
        }

        for iteration in 0..100_000usize {
            state.set_iteration(iteration);
            if state.budget().exhausted() {
                break;
            }
            let (dirty_train, dirty_test) = dirty_rows(env)?;
            if dirty_train.is_empty() && dirty_test.is_empty() {
                break;
            }

            // comet-lint: allow(D3) — observability: iteration runtime for reports; never feeds a trace decision
            let started = Instant::now();
            // Gradient-weighted sampling of the next batch of records.
            let featurizer = Featurizer::fit(env.train())?;
            let x = featurizer.transform(env.train())?;
            let y = env.train().label_codes()?;
            let batch_train = weighted_sample(
                &dirty_train,
                // comet-lint: allow(D2) — epsilon clamp: `max(1e-9)` maps a NaN gradient norm to the floor, deterministically
                |&r| glm.grad_norm(x.row(r), y[r]).max(1e-9),
                env.step_train().min(dirty_train.len()),
                rng,
            );
            let batch_test = uniform_sample(&dirty_test, env.step_test(), rng);
            state.push_runtime(started.elapsed());

            // Price the batch before mutating: the cost reflects the mix of
            // error types about to be cleaned (feature-level alignment).
            let (cost, err_types) = batch_cost(env, &state, config, &batch_train, &batch_test);
            if !state.budget().can_afford(cost) {
                break;
            }
            let cleaned = env.clean_records(&batch_train, &batch_test)?;
            if cleaned == 0 && !batch_train.is_empty() {
                // Nothing actually changed (stale rows): avoid spinning.
                break;
            }
            // The batch's cost is paid once, under its first error type;
            // every further type it touched takes a step at no charge.
            let first = err_types.first().copied().unwrap_or(ErrorType::MissingValues);
            state.charge(cost, (ALL_FEATURES, first));
            for &err in err_types.iter().skip(1) {
                state.charge(0.0, (ALL_FEATURES, err));
            }

            // SGD update on the newly cleaned records (the AC model update).
            let featurizer = Featurizer::fit(env.train())?;
            let x = featurizer.transform(env.train())?;
            let y = env.train().label_codes()?;
            for _ in 0..self.config.update_epochs {
                for &r in &batch_train {
                    glm.sgd_step(x.row(r), y[r], self.config.learning_rate);
                }
            }

            // Evaluate AC's own model — not a retrained one. This is what
            // makes AC's trajectory erratic: the SGD state lags behind the
            // changing data.
            let x_test = featurizer.transform(env.test())?;
            let y_test = env.test().label_codes()?;
            let preds: Vec<u32> =
                (0..x_test.nrows()).map(|i| glm.predict_row(x_test.row(i))).collect();
            let f1 = env.metric().eval(&y_test, &preds, env.n_classes());
            state.accept(f1);
            state.record((ALL_FEATURES, first), StepAction::Accepted, cost, None, f1, cleaned);
            state.mark_curve();
        }
        Ok(state.finish())
    }
}

/// Price a record batch and name the error types it touches, in one scan
/// of the provenance. The cost is the cell-count-weighted mean of the
/// touched types' next-step costs (the paper's feature-level alignment;
/// discrepancies are minor under its equal-error-distribution assumption),
/// or one unit when the batch touches no known error type.
fn batch_cost(
    env: &CleaningEnvironment,
    state: &SessionState,
    config: &CometConfig,
    batch_train: &[usize],
    batch_test: &[usize],
) -> (f64, Vec<ErrorType>) {
    let mut weighted = 0.0;
    let mut total = 0usize;
    let mut touched: Vec<ErrorType> = Vec::new();
    for col in env.feature_cols() {
        for &err in &ErrorType::ALL {
            let tr = env.dirty_train_rows(col, err);
            let te = env.dirty_test_rows(col, err);
            let hits = batch_train.iter().filter(|r| tr.contains(r)).count()
                + batch_test.iter().filter(|r| te.contains(r)).count();
            if hits > 0 {
                weighted += hits as f64 * state.next_cost(config, (ALL_FEATURES, err));
                total += hits;
                if !touched.contains(&err) {
                    touched.push(err);
                }
            }
        }
    }
    touched.sort_unstable();
    let cost = if total == 0 { 1.0 } else { weighted / total as f64 };
    (cost, touched)
}

/// Rows with a ground-truth dirty cell in any feature, per split
/// (train, test), ascending: one scan of the ground truth.
fn dirty_rows(env: &CleaningEnvironment) -> Result<(Vec<usize>, Vec<usize>), EnvError> {
    let mut train = vec![false; env.train().nrows()];
    let mut test = vec![false; env.test().nrows()];
    for col in env.feature_cols() {
        let (train_rows, test_rows) = env.gt_dirty_rows(col)?;
        for r in train_rows {
            train[r] = true;
        }
        for r in test_rows {
            test[r] = true;
        }
    }
    let rows = |dirty: Vec<bool>| (0..dirty.len()).filter(|&r| dirty[r]).collect();
    Ok((rows(train), rows(test)))
}

/// Sample `k` distinct items from `pool` with probability proportional to
/// `weight` (sequential weighted reservoir, simple O(k·n) form).
fn weighted_sample<R: Rng, W: Fn(&usize) -> f64>(
    pool: &[usize],
    weight: W,
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut remaining: Vec<usize> = pool.to_vec();
    let mut out = Vec::with_capacity(k.min(pool.len()));
    for _ in 0..k.min(pool.len()) {
        let total: f64 = remaining.iter().map(&weight).sum();
        if total <= 0.0 {
            out.push(remaining.swap_remove(0));
            continue;
        }
        let mut target = rng.gen::<f64>() * total;
        let mut chosen = remaining.len() - 1;
        for (i, item) in remaining.iter().enumerate() {
            target -= weight(item);
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        out.push(remaining.swap_remove(chosen));
    }
    out
}

/// Sample up to `k` distinct items uniformly.
fn uniform_sample<R: Rng>(pool: &[usize], k: usize, rng: &mut R) -> Vec<usize> {
    let mut remaining: Vec<usize> = pool.to_vec();
    let take = k.min(remaining.len());
    for i in 0..take {
        let j = rng.gen_range(i..remaining.len());
        remaining.swap(i, j);
    }
    remaining.truncate(take);
    remaining
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_support::small_env;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_non_convex_models() {
        let mut env = small_env(1, vec![(0, 0.2)], Algorithm::Knn);
        let mut rng = StdRng::seed_from_u64(0);
        let res = ActiveClean::default().run(
            &mut env,
            &[ErrorType::MissingValues],
            &CometConfig::default(),
            &mut rng,
        );
        assert!(res.is_err());
    }

    #[test]
    fn cleans_records_within_budget() {
        let mut env = small_env(2, vec![(0, 0.3), (1, 0.2)], Algorithm::Svm);
        let before = env.total_dirty().unwrap();
        let config = CometConfig { budget: 10.0, ..CometConfig::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let trace = ActiveClean::default()
            .run(&mut env, &[ErrorType::MissingValues], &config, &mut rng)
            .unwrap();
        assert!(trace.total_spent() <= 10.0 + 1e-9);
        assert!(env.total_dirty().unwrap() < before);
        assert!(!trace.records.is_empty());
        // Record-wise cleaning can touch several cells per step.
        assert!(trace.records.iter().all(|r| r.cleaned_cells >= 1));
    }

    #[test]
    fn ample_budget_fully_cleans() {
        let mut env = small_env(3, vec![(0, 0.1)], Algorithm::LogReg);
        let config = CometConfig { budget: 10_000.0, ..CometConfig::default() };
        let mut rng = StdRng::seed_from_u64(2);
        ActiveClean::default()
            .run(&mut env, &[ErrorType::MissingValues], &config, &mut rng)
            .unwrap();
        assert!(env.is_fully_clean().unwrap());
    }

    #[test]
    fn weighted_sample_prefers_heavy_items() {
        let pool: Vec<usize> = (0..10).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut count_heavy = 0;
        for _ in 0..200 {
            let s = weighted_sample(&pool, |&i| if i == 7 { 100.0 } else { 1.0 }, 1, &mut rng);
            if s[0] == 7 {
                count_heavy += 1;
            }
        }
        // P(pick 7) = 100/109 ≈ 0.92.
        assert!(count_heavy > 150, "heavy item picked only {count_heavy}/200");
    }

    #[test]
    fn uniform_sample_distinct_and_clamped() {
        let pool = vec![1, 2, 3];
        let mut rng = StdRng::seed_from_u64(4);
        let s = uniform_sample(&pool, 10, &mut rng);
        assert_eq!(s.len(), 3);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, pool);
    }
}
