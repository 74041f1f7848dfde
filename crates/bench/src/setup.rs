//! Experiment environment construction: pre-polluted datasets (§4.1) and
//! CleanML-style paired datasets (§4.3), wired into a
//! [`CleaningEnvironment`].

use crate::opts::ExperimentOpts;
use comet_core::{CleaningEnvironment, EnvError};
use comet_datasets::{CleanMlPair, Dataset};
use comet_frame::{train_test_split, ColumnKind, SplitOptions};
use comet_jenga::{ErrorType, GroundTruth, PrePollutionPlan, Provenance, Scenario};
use comet_ml::{Algorithm, Metric, RandomSearch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully prepared experiment environment plus its identity.
pub struct EnvSetup {
    /// The environment (dirty data + ground truth + tuned model).
    pub env: CleaningEnvironment,
    /// Dataset used.
    pub dataset: Dataset,
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// Error types the scenario cleans.
    pub errors: Vec<ErrorType>,
}

/// Error types a scenario exposes for a dataset: the single error type, or
/// every type applicable to at least one feature (multi-error).
pub fn scenario_errors(dataset: Dataset, scenario: Scenario) -> Vec<ErrorType> {
    match scenario {
        Scenario::SingleError(err) => vec![err],
        Scenario::MultiError => {
            let spec = dataset.spec();
            let mut out = Vec::new();
            for err in ErrorType::ALL {
                let applicable = (spec.n_numeric > 0 && err.applicable(ColumnKind::Numeric))
                    || (spec.n_categorical > 0 && err.applicable(ColumnKind::Categorical));
                if applicable {
                    out.push(err);
                }
            }
            out
        }
    }
}

/// True when the dataset has at least one feature the error type applies to
/// (e.g. EEG has no categorical features, so categorical shift is skipped —
/// paper §4.3).
pub fn applicable(dataset: Dataset, err: ErrorType) -> bool {
    let spec = dataset.spec();
    (spec.n_numeric > 0 && err.applicable(ColumnKind::Numeric))
        || (spec.n_categorical > 0 && err.applicable(ColumnKind::Categorical))
}

fn search(opts: &ExperimentOpts) -> RandomSearch {
    RandomSearch { n_samples: opts.search_samples, ..RandomSearch::default() }
}

/// Build a pre-polluted environment (CMC/Churn/EEG/S-Credit experiments):
/// generate the clean analog, split, sample a pre-pollution setting
/// (exponential per-feature levels, §4.1), pollute train and test, tune.
pub fn build_prepolluted_env(
    dataset: Dataset,
    algorithm: Algorithm,
    scenario: Scenario,
    setting: usize,
    opts: &ExperimentOpts,
) -> Result<EnvSetup, EnvError> {
    let tag = format!("{dataset}-{algorithm}-{scenario:?}");
    let seed = opts.child_seed(&tag, setting as u64);
    let mut rng = StdRng::seed_from_u64(seed);

    let df = dataset.generate(opts.rows.map(|r| r.min(dataset.spec().rows)), &mut rng);
    let tt = train_test_split(&df, SplitOptions::default(), &mut rng)?;
    let gt_train = GroundTruth::new(tt.train.clone());
    let gt_test = GroundTruth::new(tt.test.clone());

    let mut train = tt.train;
    let mut test = tt.test;
    let mut prov_train = Provenance::for_frame(&train);
    let mut prov_test = Provenance::for_frame(&test);
    let plan = PrePollutionPlan::sample(&train, scenario, 0.15, 0.4, &mut rng)?;
    // Both splits are polluted equally in expectation (§4.1), with
    // independent randomness to avoid leakage.
    plan.apply(&mut train, 0.01, &mut prov_train, &mut rng)?;
    plan.apply(&mut test, 0.01, &mut prov_test, &mut rng)?;

    let env = CleaningEnvironment::new(
        train,
        test,
        gt_train,
        gt_test,
        prov_train,
        prov_test,
        algorithm,
        Metric::F1,
        0.01,
        search(opts),
        seed ^ 0x5EED,
        &mut rng,
    )?;
    Ok(EnvSetup { env, dataset, algorithm, errors: scenario_errors(dataset, scenario) })
}

/// Build an environment from a CleanML-style paired dataset: the dirty
/// version is the starting state, the clean version the ground truth, and
/// provenance carries the documented error types.
pub fn build_cleanml_env(
    dataset: Dataset,
    algorithm: Algorithm,
    setting: usize,
    opts: &ExperimentOpts,
) -> Result<EnvSetup, EnvError> {
    let tag = format!("cleanml-{dataset}-{algorithm}");
    let seed = opts.child_seed(&tag, setting as u64);
    let mut rng = StdRng::seed_from_u64(seed);

    let pair =
        dataset.generate_cleanml_pair(opts.rows.map(|r| r.min(dataset.spec().rows)), &mut rng);
    let env = pair_env(pair, algorithm, 0.01, opts, seed, &mut rng)?;
    Ok(EnvSetup { env, dataset, algorithm, errors: dataset.spec().cleanml_errors.to_vec() })
}

/// Build a detection-seeded environment carrying planted REIN error
/// families (outliers, swapped fields, near-duplicate rows, label noise).
/// Unlike every oracle-mode setup, the returned environment has detection
/// enabled: candidate pairs come from the `comet-detect` ensemble run on
/// the dirty frames, and the JENGA provenance stays hidden from the
/// strategies (it is only used by the harness to score detectors and to
/// simulate the cleaner).
pub fn build_rein_env(
    dataset: Dataset,
    algorithm: Algorithm,
    families: &[ErrorType],
    detect: comet_detect::DetectorConfig,
    setting: usize,
    opts: &ExperimentOpts,
) -> Result<EnvSetup, EnvError> {
    let tag = format!("rein-{dataset}-{algorithm}-{families:?}");
    let seed = opts.child_seed(&tag, setting as u64);
    let mut rng = StdRng::seed_from_u64(seed);

    let pair = dataset.generate_rein_pair(
        opts.rows.map(|r| r.min(dataset.spec().rows)),
        families,
        &mut rng,
    );
    // A coarser cleaning step than the oracle setups (5% of a column per
    // unit): a detection-seeded cleaner works through a flagged column in
    // batches, and per-step F1 movement must clear the evaluation noise
    // floor for budget ranking to be measurable.
    let mut env = pair_env(pair, algorithm, 0.05, opts, seed, &mut rng)?;
    env.enable_detection(detect);
    Ok(EnvSetup { env, dataset, algorithm, errors: families.to_vec() })
}

/// Wire a generated (dirty, clean) pair into an environment. Rows are
/// partitioned once, on the clean version, and the same partition is
/// applied to the dirty version and the provenance.
fn pair_env(
    pair: CleanMlPair,
    algorithm: Algorithm,
    step_frac: f64,
    opts: &ExperimentOpts,
    seed: u64,
    rng: &mut StdRng,
) -> Result<CleaningEnvironment, EnvError> {
    let tt = train_test_split(&pair.clean, SplitOptions::default(), rng)?;
    let ncols = pair.dirty.ncols();
    CleaningEnvironment::new(
        pair.dirty.take(&tt.train_rows)?,
        pair.dirty.take(&tt.test_rows)?,
        GroundTruth::new(pair.clean.take(&tt.train_rows)?),
        GroundTruth::new(pair.clean.take(&tt.test_rows)?),
        split_provenance(&pair.provenance, ncols, &tt.train_rows),
        split_provenance(&pair.provenance, ncols, &tt.test_rows),
        algorithm,
        Metric::F1,
        step_frac,
        search(opts),
        seed ^ 0x5EED,
        rng,
    )
}

/// Project a full-frame provenance onto a row subset.
fn split_provenance(full: &Provenance, ncols: usize, rows: &[usize]) -> Provenance {
    let mut out = Provenance::new(ncols, rows.len());
    for col in 0..ncols {
        for (i, &row) in rows.iter().enumerate() {
            if let Some(err) = full.get(col, row) {
                out.record(col, i, err);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOpts {
        ExperimentOpts { rows: Some(150), search_samples: 1, ..ExperimentOpts::quick() }
    }

    #[test]
    fn prepolluted_env_is_dirty_and_deterministic() {
        let opts = tiny_opts();
        let a = build_prepolluted_env(
            Dataset::Eeg,
            Algorithm::Knn,
            Scenario::SingleError(ErrorType::MissingValues),
            0,
            &opts,
        )
        .unwrap();
        assert!(a.env.total_dirty().unwrap() > 0);
        assert_eq!(a.errors, vec![ErrorType::MissingValues]);
        let b = build_prepolluted_env(
            Dataset::Eeg,
            Algorithm::Knn,
            Scenario::SingleError(ErrorType::MissingValues),
            0,
            &opts,
        )
        .unwrap();
        assert_eq!(a.env.train(), b.env.train(), "same setting, same data");
        // A different setting yields different pollution.
        let c = build_prepolluted_env(
            Dataset::Eeg,
            Algorithm::Knn,
            Scenario::SingleError(ErrorType::MissingValues),
            1,
            &opts,
        )
        .unwrap();
        assert_ne!(a.env.train(), c.env.train());
    }

    #[test]
    fn scenario_errors_respect_schema() {
        assert_eq!(
            scenario_errors(Dataset::Eeg, Scenario::MultiError),
            vec![ErrorType::MissingValues, ErrorType::GaussianNoise, ErrorType::Scaling]
        );
        assert!(scenario_errors(Dataset::Cmc, Scenario::MultiError)
            .contains(&ErrorType::CategoricalShift));
        assert!(!applicable(Dataset::Eeg, ErrorType::CategoricalShift));
        assert!(applicable(Dataset::Cmc, ErrorType::CategoricalShift));
    }

    #[test]
    fn cleanml_env_consistent_with_ground_truth() {
        let opts = tiny_opts();
        let setup = build_cleanml_env(Dataset::Titanic, Algorithm::Knn, 0, &opts).unwrap();
        let env = &setup.env;
        assert!(env.total_dirty().unwrap() > 0);
        assert_eq!(setup.errors, vec![ErrorType::MissingValues]);
        // Provenance rows must match ground-truth dirt per feature.
        for col in env.feature_cols() {
            let (gt_train, _) = env.gt_dirty_rows(col).unwrap();
            let prov_rows = env.dirty_train_rows(col, ErrorType::MissingValues);
            assert_eq!(gt_train, prov_rows, "column {col}");
        }
    }

    #[test]
    fn rein_env_is_detection_seeded() {
        let opts = tiny_opts();
        let setup = build_rein_env(
            Dataset::Eeg,
            Algorithm::Knn,
            &[ErrorType::Outliers],
            comet_detect::DetectorConfig::default(),
            0,
            &opts,
        )
        .unwrap();
        assert!(setup.env.total_dirty().unwrap() > 0, "REIN pair must plant dirt");
        assert!(setup.env.detection().is_some(), "detection mode must be on");
        assert_eq!(setup.errors, vec![ErrorType::Outliers]);
        // Candidates come from the detector ensemble, so they exist even
        // though nobody handed the environment an error-type filter that
        // matches the planted family exactly.
        let candidates = setup.env.candidate_pairs(&ErrorType::EXTENDED);
        assert!(!candidates.is_empty(), "detectors must surface candidates");
    }

    #[test]
    fn row_cap_never_exceeds_table1() {
        let opts = ExperimentOpts { rows: Some(10_000), ..tiny_opts() };
        let setup = build_prepolluted_env(
            Dataset::SCredit, // Table 1: 1 000 rows
            Algorithm::Knn,
            Scenario::SingleError(ErrorType::MissingValues),
            0,
            &opts,
        )
        .unwrap();
        assert!(setup.env.train().nrows() + setup.env.test().nrows() <= 1_000);
    }
}
