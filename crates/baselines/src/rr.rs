//! RR — random cleaning recommendations (paper §4.5).

use crate::strategy::execute_picks;
use comet_core::{CleaningEnvironment, CleaningTrace, CometConfig, CometError};
use comet_jenga::ErrorType;
use rand::Rng;

/// Picks a uniformly random dirty `(feature, error type)` pair each step.
/// The harness runs it five times per pre-pollution setting and averages
/// (§4.5), via [`crate::average_traces`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomCleaner;

impl RandomCleaner {
    /// Run one repetition.
    pub fn run<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        errors: &[ErrorType],
        config: &CometConfig,
        rng: &mut R,
    ) -> Result<CleaningTrace, CometError> {
        execute_picks(
            env,
            errors,
            config,
            |_env, dirty, _state, rng| Ok(Some(dirty[rng.gen_range(0..dirty.len())])),
            rng,
        )
    }

    /// Run `repetitions` independent repetitions, each on its own clone of
    /// the starting environment.
    pub fn run_repeated<R: Rng>(
        &self,
        env: &CleaningEnvironment,
        errors: &[ErrorType],
        config: &CometConfig,
        repetitions: usize,
        rng: &mut R,
    ) -> Result<Vec<CleaningTrace>, CometError> {
        assert!(repetitions > 0, "need at least one repetition");
        let mut traces = Vec::with_capacity(repetitions);
        for _ in 0..repetitions {
            let mut fresh = env.clone();
            traces.push(self.run(&mut fresh, errors, config, rng)?);
        }
        Ok(traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::average_traces;
    use crate::strategy::test_support::small_env;
    use comet_ml::Algorithm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_cleaner_spends_budget_and_cleans() {
        let mut env = small_env(1, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let before = env.total_dirty().unwrap();
        let config = CometConfig { budget: 10.0, ..CometConfig::default() };
        let mut rng = StdRng::seed_from_u64(0);
        let trace =
            RandomCleaner.run(&mut env, &[ErrorType::MissingValues], &config, &mut rng).unwrap();
        assert!(trace.total_spent() <= 10.0 + 1e-9);
        assert!(!trace.records.is_empty());
        assert!(env.total_dirty().unwrap() < before);
    }

    #[test]
    fn repetitions_are_independent() {
        let env = small_env(2, vec![(0, 0.3)], Algorithm::Knn);
        let config = CometConfig { budget: 5.0, ..CometConfig::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let traces = RandomCleaner
            .run_repeated(&env, &[ErrorType::MissingValues], &config, 3, &mut rng)
            .unwrap();
        assert_eq!(traces.len(), 3);
        // All start from the same initial F1 (clones of the same env).
        assert_eq!(traces[0].initial_f1, traces[1].initial_f1);
        let avg = average_traces(&traces, 5);
        assert_eq!(avg.len(), 6);
        assert!(avg.iter().all(|f| (0.0..=1.0).contains(f)));
    }

    #[test]
    fn stops_when_clean() {
        let mut env = small_env(3, vec![(0, 0.05)], Algorithm::Knn);
        let config = CometConfig { budget: 1_000.0, ..CometConfig::default() };
        let mut rng = StdRng::seed_from_u64(2);
        RandomCleaner.run(&mut env, &[ErrorType::MissingValues], &config, &mut rng).unwrap();
        assert!(env.is_fully_clean().unwrap());
    }
}
