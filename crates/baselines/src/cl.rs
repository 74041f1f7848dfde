//! CL — COMET-Light (paper §4.5).
//!
//! Applies COMET's Estimator once, up front, to produce a *static* ranked
//! list of `(feature, error type)` candidates, then hands that frozen
//! ranking to COMET's own clean phase every iteration: the same cleaning
//! step, revert, buffer and fallback machinery. The contrast with full
//! COMET isolates the value of re-estimating every iteration: CL's ranking
//! goes stale as the data changes.

use comet_core::{
    Candidate, CleaningEnvironment, CleaningSession, CleaningTrace, CometConfig, CometError,
    Estimator, Polluter, Recommender, SessionState,
};
use comet_jenga::ErrorType;
use rand::Rng;
use std::time::Instant;

/// The COMET-Light baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct CometLight;

impl CometLight {
    /// Run CL to completion: until the budget is exhausted, the data is
    /// clean, or no step sticks.
    pub fn run<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        errors: &[ErrorType],
        config: &CometConfig,
        rng: &mut R,
    ) -> Result<CleaningTrace, CometError> {
        let session = CleaningSession::new(*config, errors.to_vec());
        let mut state = SessionState::new(config, env)?;

        // --- The single estimation pass (this is what makes CL "light"):
        // sequential on the caller's rng, with nothing to bias-correct
        // against. CL cleans without the Polluter's row preference.
        // comet-lint: allow(D3) — observability: iteration runtime for reports; never feeds a trace decision
        let started = Instant::now();
        let polluter = Polluter::from_config(config);
        let estimator = Estimator::new(config.blr_degree, config.interval, false);
        let scorer = Recommender::new(config.use_uncertainty);
        let mut ranking = Vec::new();
        for (col, err) in env.candidate_pairs(errors) {
            let variants = polluter.variants(env, col, err, rng)?;
            let mut estimate = estimator.estimate(env, col, err, state.current_f1(), &variants)?;
            estimate.flagged_train.clear();
            estimate.flagged_test.clear();
            let cost = state.next_cost(config, (col, err));
            ranking.push(Candidate { score: scorer.score(&estimate, cost), estimate, cost });
        }
        // Unlike `Recommender::rank`, non-positive gains stay in. The sort
        // is stable, so tied scores keep candidate-pair order, and a NaN
        // score sinks to the end through a sanitized `total_cmp` key (D2).
        let key = |c: &Candidate| if c.score.is_nan() { f64::NEG_INFINITY } else { c.score };
        ranking.sort_by(|a, b| key(b).total_cmp(&key(a)));
        state.push_runtime(started.elapsed());

        // --- Clean down the frozen ranking, still-dirty pairs only, each
        // priced at its current step count.
        for iteration in 0..100_000usize {
            state.set_iteration(iteration);
            if state.budget().exhausted() {
                break;
            }
            let dirty = env.candidate_pairs(errors);
            if dirty.is_empty() {
                break;
            }
            let ranked: Vec<Candidate> = ranking
                .iter()
                .filter(|c| dirty.contains(&(c.estimate.col, c.estimate.err)))
                .map(|c| Candidate {
                    cost: state.next_cost(config, (c.estimate.col, c.estimate.err)),
                    ..c.clone()
                })
                .collect();
            if !session.clean_ranked(env, rng, &mut state, &ranked)? {
                break;
            }
        }
        Ok(state.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_support::small_env;
    use comet_ml::Algorithm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_comet() -> CometConfig {
        CometConfig { n_combinations: 1, ..CometConfig::default() }
    }

    #[test]
    fn cl_runs_and_respects_budget() {
        let mut env = small_env(1, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let config = CometConfig { budget: 8.0, ..quick_comet() };
        let mut rng = StdRng::seed_from_u64(0);
        let trace =
            CometLight.run(&mut env, &[ErrorType::MissingValues], &config, &mut rng).unwrap();
        assert!(trace.total_spent() <= 8.0 + 1e-9);
        assert!(!trace.records.is_empty());
        // Exactly one estimation pass: one recommendation runtime entry.
        assert_eq!(trace.iteration_runtimes.len(), 1);
    }

    #[test]
    fn cl_fully_cleans_with_ample_budget() {
        let mut env = small_env(2, vec![(0, 0.1), (3, 0.1)], Algorithm::Knn);
        let config = CometConfig { budget: 1_000.0, ..quick_comet() };
        let mut rng = StdRng::seed_from_u64(1);
        CometLight.run(&mut env, &[ErrorType::MissingValues], &config, &mut rng).unwrap();
        assert!(env.candidate_pairs(&[ErrorType::MissingValues]).is_empty());
    }
}
