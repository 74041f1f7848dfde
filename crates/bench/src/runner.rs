//! Strategy execution: run COMET or a baseline on a clone of a prepared
//! environment and collect traces.

use crate::opts::ExperimentOpts;
use comet_baselines::{
    average_traces, ActiveClean, CometLight, FeatureImportanceCleaner, Oracle, RandomCleaner,
};
use comet_core::{
    CleaningEnvironment, CleaningSession, CleaningTrace, CometConfig, CometError, CostPolicy,
};
use comet_jenga::ErrorType;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The cleaning strategies of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Full COMET.
    Comet,
    /// Random recommendations (averaged over repetitions).
    Rr,
    /// Feature-importance (Shapley) recommendations.
    Fir,
    /// COMET-Light.
    Cl,
    /// ActiveClean (convex models only).
    Ac,
    /// The greedy local optimum.
    Oracle,
}

impl Strategy {
    /// Display label used in tables (paper abbreviations).
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Comet => "COMET",
            Strategy::Rr => "RR",
            Strategy::Fir => "FIR",
            Strategy::Cl => "CL",
            Strategy::Ac => "AC",
            Strategy::Oracle => "Oracle",
        }
    }
}

/// Build the COMET config an experiment uses.
pub fn comet_config(opts: &ExperimentOpts, costs: CostPolicy) -> CometConfig {
    CometConfig {
        budget: opts.budget,
        costs,
        n_combinations: opts.combos,
        ..CometConfig::default()
    }
}

/// Run one strategy on a clone of `base`. Returns one trace per repetition
/// (only RR produces more than one).
pub fn run_strategy(
    strategy: Strategy,
    base: &CleaningEnvironment,
    errors: &[ErrorType],
    costs: CostPolicy,
    opts: &ExperimentOpts,
    seed: u64,
) -> Result<Vec<CleaningTrace>, CometError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = comet_config(opts, costs);
    let trace = match strategy {
        Strategy::Rr => {
            return RandomCleaner.run_repeated(
                base,
                errors,
                &config,
                opts.rr_repetitions,
                &mut rng,
            );
        }
        Strategy::Comet => {
            CleaningSession::new(config, errors.to_vec()).run(&mut base.clone(), &mut rng)?.trace
        }
        Strategy::Fir => {
            FeatureImportanceCleaner::default().run(&mut base.clone(), errors, &config, &mut rng)?
        }
        Strategy::Cl => CometLight.run(&mut base.clone(), errors, &config, &mut rng)?,
        Strategy::Ac => ActiveClean::default().run(&mut base.clone(), errors, &config, &mut rng)?,
        Strategy::Oracle => Oracle.run(&mut base.clone(), errors, &config, &mut rng)?,
    };
    Ok(vec![trace])
}

/// F1-per-budget-unit series of a strategy run (mean over repetitions).
pub fn f1_series(traces: &[CleaningTrace], max_budget: usize) -> Vec<f64> {
    average_traces(traces, max_budget)
}

/// The paper's headline quantity: COMET's F1 advantage over a baseline per
/// budget unit (positive = COMET ahead).
pub fn advantage(comet: &[f64], baseline: &[f64]) -> Vec<f64> {
    assert_eq!(comet.len(), baseline.len(), "series lengths must match");
    comet.iter().zip(baseline).map(|(c, b)| c - b).collect()
}

/// Element-wise mean of several equally long series.
pub fn mean_series(series: &[Vec<f64>]) -> Vec<f64> {
    assert!(!series.is_empty(), "need at least one series");
    let len = series[0].len();
    let mut out = vec![0.0; len];
    for s in series {
        assert_eq!(s.len(), len, "ragged series");
        for (o, v) in out.iter_mut().zip(s) {
            *o += v;
        }
    }
    out.iter_mut().for_each(|v| *v /= series.len() as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::build_prepolluted_env;
    use comet_datasets::Dataset;
    use comet_jenga::Scenario;
    use comet_ml::Algorithm;

    fn opts() -> ExperimentOpts {
        ExperimentOpts {
            rows: Some(150),
            budget: 4.0,
            search_samples: 1,
            combos: 1,
            rr_repetitions: 2,
            ..ExperimentOpts::quick()
        }
    }

    #[test]
    fn all_strategies_run_on_knn_env() {
        let opts = opts();
        let setup = build_prepolluted_env(
            Dataset::Eeg,
            Algorithm::Knn,
            Scenario::SingleError(ErrorType::MissingValues),
            0,
            &opts,
        )
        .unwrap();
        for strategy in
            [Strategy::Comet, Strategy::Rr, Strategy::Fir, Strategy::Cl, Strategy::Oracle]
        {
            let traces =
                run_strategy(strategy, &setup.env, &setup.errors, CostPolicy::constant(), &opts, 1)
                    .unwrap();
            let expected = if strategy == Strategy::Rr { 2 } else { 1 };
            assert_eq!(traces.len(), expected, "{strategy:?}");
            for t in &traces {
                assert!(t.total_spent() <= opts.budget + 1e-9);
            }
        }
    }

    #[test]
    fn ac_runs_on_convex_env_only() {
        let opts = opts();
        let svm = build_prepolluted_env(
            Dataset::Eeg,
            Algorithm::Svm,
            Scenario::SingleError(ErrorType::MissingValues),
            0,
            &opts,
        )
        .unwrap();
        assert!(run_strategy(
            Strategy::Ac,
            &svm.env,
            &svm.errors,
            CostPolicy::constant(),
            &opts,
            2
        )
        .is_ok());
        let knn = build_prepolluted_env(
            Dataset::Eeg,
            Algorithm::Knn,
            Scenario::SingleError(ErrorType::MissingValues),
            0,
            &opts,
        )
        .unwrap();
        assert!(run_strategy(
            Strategy::Ac,
            &knn.env,
            &knn.errors,
            CostPolicy::constant(),
            &opts,
            2
        )
        .is_err());
    }

    #[test]
    fn advantage_and_mean_series() {
        let adv = advantage(&[0.8, 0.9], &[0.7, 0.95]);
        assert!((adv[0] - 0.1).abs() < 1e-12);
        assert!((adv[1] + 0.05).abs() < 1e-12);
        let mean = mean_series(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(mean, vec![2.0, 3.0]);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::Comet.label(), "COMET");
        assert_eq!(Strategy::Ac.label(), "AC");
    }
}
