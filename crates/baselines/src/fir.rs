//! FIR — feature-importance-based recommendations (paper §4.5).
//!
//! Shapley values (computed once, on the initial dirty data) rank the
//! features; FIR cleans the highest-ranked still-dirty feature until it is
//! fully clean, then moves to the next. The ranking never updates — the
//! paper's point is precisely that this static view goes stale as cleaning
//! proceeds.

use crate::strategy::execute_picks;
use comet_core::{CleaningEnvironment, CleaningTrace, CometConfig, CometError, EnvError};
use comet_jenga::ErrorType;
use comet_ml::shapley::{column_means, rank_by_importance, shapley_importance, ShapleyConfig};
use comet_ml::Featurizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The FIR baseline.
#[derive(Debug, Clone, Copy)]
pub struct FeatureImportanceCleaner {
    /// Monte-Carlo permutations for the Shapley estimate.
    pub n_permutations: usize,
}

impl Default for FeatureImportanceCleaner {
    fn default() -> Self {
        FeatureImportanceCleaner { n_permutations: 8 }
    }
}

impl FeatureImportanceCleaner {
    /// Compute the static feature ranking on the current (dirty) data:
    /// fit the environment's tuned model on the dirty training split and
    /// estimate Shapley contributions to the test-set metric.
    pub fn rank_features<R: Rng>(
        &self,
        env: &CleaningEnvironment,
        rng: &mut R,
    ) -> Result<Vec<usize>, EnvError> {
        let featurizer = Featurizer::fit(env.train())?;
        let xtr = featurizer.transform(env.train())?;
        let xte = featurizer.transform(env.test())?;
        let ytr = env.train().label_codes()?;
        let yte = env.test().label_codes()?;
        let mut model = env.model().params.build();
        let mut fit_rng = StdRng::seed_from_u64(0xF17);
        model.fit(&xtr, &ytr, env.n_classes(), &mut fit_rng);

        let background = column_means(&xtr);
        let importances = shapley_importance(
            model.as_ref(),
            &xte,
            &yte,
            env.n_classes(),
            featurizer.groups(),
            &background,
            ShapleyConfig { n_permutations: self.n_permutations, metric: env.metric() },
            rng,
        );
        // Map group order back to original column indices.
        let group_order = rank_by_importance(&importances);
        Ok(group_order.into_iter().map(|g| featurizer.groups()[g].col).collect())
    }

    /// Run FIR to completion (budget or clean).
    pub fn run<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        errors: &[ErrorType],
        config: &CometConfig,
        rng: &mut R,
    ) -> Result<CleaningTrace, CometError> {
        let ranking = self.rank_features(env, rng)?;
        execute_picks(
            env,
            errors,
            config,
            move |env, dirty, _state, _rng| {
                // Highest-ranked feature that still has dirt; within the
                // feature, the error type with the most dirty training cells
                // (deterministic).
                for &col in &ranking {
                    let mut best: Option<(usize, ErrorType)> = None;
                    let mut best_count = 0usize;
                    for &(c, e) in dirty {
                        if c != col {
                            continue;
                        }
                        let count =
                            env.dirty_train_rows(c, e).len() + env.dirty_test_rows(c, e).len();
                        if count > best_count {
                            best_count = count;
                            best = Some((c, e));
                        }
                    }
                    if best.is_some() {
                        return Ok(best);
                    }
                }
                Ok(dirty.first().copied())
            },
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_support::small_env;
    use comet_ml::Algorithm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ranking_covers_all_features() {
        let env = small_env(1, vec![(0, 0.3)], Algorithm::Knn);
        let fir = FeatureImportanceCleaner { n_permutations: 2 };
        let mut rng = StdRng::seed_from_u64(0);
        let ranking = fir.rank_features(&env, &mut rng).unwrap();
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, env.feature_cols(), "ranking is a permutation of features");
    }

    #[test]
    fn cleans_one_feature_to_completion_before_next() {
        let mut env = small_env(2, vec![(0, 0.15), (1, 0.15)], Algorithm::Knn);
        let fir = FeatureImportanceCleaner { n_permutations: 2 };
        let config = CometConfig { budget: 1_000.0, ..CometConfig::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let trace = fir.run(&mut env, &[ErrorType::MissingValues], &config, &mut rng).unwrap();
        assert!(env.is_fully_clean().unwrap());
        // Steps on the two dirty features must not interleave: once the
        // second feature starts, the first never reappears.
        let cols: Vec<usize> = trace.records.iter().map(|r| r.col).collect();
        let mut seen_second = None;
        for &c in &cols {
            match seen_second {
                None => {
                    if c != cols[0] {
                        seen_second = Some(c);
                    }
                }
                Some(second) => {
                    assert_eq!(c, second, "FIR must not return to an earlier feature");
                }
            }
        }
    }

    #[test]
    fn respects_budget() {
        let mut env = small_env(3, vec![(0, 0.4)], Algorithm::Knn);
        let fir = FeatureImportanceCleaner { n_permutations: 2 };
        let config = CometConfig { budget: 4.0, ..CometConfig::default() };
        let mut rng = StdRng::seed_from_u64(2);
        let trace = fir.run(&mut env, &[ErrorType::MissingValues], &config, &mut rng).unwrap();
        assert!(trace.total_spent() <= 4.0 + 1e-9);
    }
}
