//! Cross-crate integration tests: the full COMET pipeline from dataset
//! generation through pollution, tuning, cleaning sessions and baselines.

use comet::baselines::{ActiveClean, Oracle, RandomCleaner};
use comet::core::{CleaningEnvironment, CleaningSession, CometConfig, CostPolicy, StepAction};
use comet::datasets::Dataset;
use comet::frame::{train_test_split, SplitOptions};
use comet::jenga::{ErrorType, GroundTruth, PrePollutionPlan, Provenance, Scenario};
use comet::ml::{Algorithm, Metric, RandomSearch};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_env(
    dataset: Dataset,
    algorithm: Algorithm,
    scenario: Scenario,
    rows: usize,
    seed: u64,
) -> CleaningEnvironment {
    let mut rng = StdRng::seed_from_u64(seed);
    let df = dataset.generate(Some(rows), &mut rng);
    let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
    let gt_train = GroundTruth::new(tt.train.clone());
    let gt_test = GroundTruth::new(tt.test.clone());
    let mut train = tt.train;
    let mut test = tt.test;
    let mut prov_train = Provenance::for_frame(&train);
    let mut prov_test = Provenance::for_frame(&test);
    let plan = PrePollutionPlan::sample(&train, scenario, 0.2, 0.4, &mut rng).unwrap();
    plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
    plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
    CleaningEnvironment::new(
        train,
        test,
        gt_train,
        gt_test,
        prov_train,
        prov_test,
        algorithm,
        Metric::F1,
        0.02,
        RandomSearch { n_samples: 2, ..RandomSearch::default() },
        seed,
        &mut rng,
    )
    .unwrap()
}

#[test]
fn comet_full_pipeline_single_error() {
    let mut env = build_env(
        Dataset::Eeg,
        Algorithm::Knn,
        Scenario::SingleError(ErrorType::MissingValues),
        260,
        1,
    );
    let initial_dirty = env.total_dirty().unwrap();
    assert!(initial_dirty > 0);

    let session = CleaningSession::new(
        CometConfig { budget: 8.0, n_combinations: 1, ..CometConfig::default() },
        vec![ErrorType::MissingValues],
    );
    let mut rng = StdRng::seed_from_u64(2);
    let trace = session.run(&mut env, &mut rng).unwrap().trace;

    // Bookkeeping invariants.
    assert!(trace.total_spent() <= 8.0 + 1e-9);
    assert!((0.0..=1.0).contains(&trace.initial_f1));
    assert!((0.0..=1.0).contains(&trace.final_f1));
    assert!(env.total_dirty().unwrap() <= initial_dirty);
    let accepted = trace.count_action(StepAction::Accepted)
        + trace.count_action(StepAction::Fallback)
        + trace.count_action(StepAction::BufferApplied);
    assert!(accepted > 0, "some cleaning must have been kept");
    // Costs in the constant policy are one unit per non-buffer step.
    for r in &trace.records {
        if r.action != StepAction::BufferApplied && r.action != StepAction::Fallback {
            assert_eq!(r.cost, 1.0);
        }
    }
}

#[test]
fn comet_multi_error_with_paper_costs() {
    let mut env = build_env(Dataset::Cmc, Algorithm::Svm, Scenario::MultiError, 260, 3);
    let session = CleaningSession::new(
        CometConfig {
            budget: 10.0,
            costs: CostPolicy::paper_multi(),
            n_combinations: 1,
            ..CometConfig::default()
        },
        ErrorType::ALL.to_vec(),
    );
    let mut rng = StdRng::seed_from_u64(4);
    let trace = session.run(&mut env, &mut rng).unwrap().trace;
    assert!(trace.total_spent() <= 10.0 + 1e-9);
    // Multi-error traces may clean several error types.
    let mut types: Vec<ErrorType> = trace.records.iter().map(|r| r.err).collect();
    types.sort_unstable();
    types.dedup();
    assert!(!types.is_empty());
    // Missing-value steps after the first on a feature are free (one-shot).
    let mut seen_mv_feature: Vec<usize> = Vec::new();
    for r in &trace.records {
        if r.err == ErrorType::MissingValues
            && (r.action == StepAction::Accepted || r.action == StepAction::Reverted)
        {
            if seen_mv_feature.contains(&r.col) {
                assert_eq!(r.cost, 0.0, "subsequent MV steps are free");
            } else {
                assert_eq!(r.cost, 2.0, "first MV step costs 2");
                seen_mv_feature.push(r.col);
            }
        }
    }
}

#[test]
fn comet_vs_random_on_concentrated_dirt() {
    // One informative feature heavily polluted among many clean ones:
    // COMET should find it faster than random cleaning on average.
    let mut comet_score = 0.0;
    let mut rr_score = 0.0;
    for seed in 0..2 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let df = Dataset::Eeg.generate(Some(300), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        // Pollute every feature moderately.
        let levels: Vec<(usize, f64)> = (0..14).map(|c| (c, 0.3)).collect();
        let plan =
            PrePollutionPlan::explicit(Scenario::SingleError(ErrorType::MissingValues), levels);
        plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
        plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
        let env = CleaningEnvironment::new(
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
            seed,
            &mut rng,
        )
        .unwrap();

        let session = CleaningSession::new(
            CometConfig { budget: 10.0, n_combinations: 1, ..CometConfig::default() },
            vec![ErrorType::MissingValues],
        );
        let mut comet_env = env.clone();
        let trace = session.run(&mut comet_env, &mut rng).unwrap().trace;
        comet_score += trace.f1_series(10).iter().sum::<f64>();

        let config =
            CometConfig { budget: 10.0, costs: CostPolicy::constant(), ..CometConfig::default() };
        let traces = RandomCleaner
            .run_repeated(&env, &[ErrorType::MissingValues], &config, 2, &mut rng)
            .unwrap();
        let mean: f64 = traces.iter().map(|t| t.f1_series(10).iter().sum::<f64>()).sum::<f64>()
            / traces.len() as f64;
        rr_score += mean;
    }
    // COMET must not lose to random by more than evaluation noise.
    assert!(comet_score >= rr_score - 0.4, "COMET {comet_score:.3} vs RR {rr_score:.3}");
}

#[test]
fn oracle_and_activeclean_share_environment_semantics() {
    let env = build_env(
        Dataset::Eeg,
        Algorithm::Svm,
        Scenario::SingleError(ErrorType::GaussianNoise),
        240,
        7,
    );
    let config =
        CometConfig { budget: 5.0, costs: CostPolicy::constant(), ..CometConfig::default() };
    let mut rng = StdRng::seed_from_u64(8);

    let mut oracle_env = env.clone();
    let oracle_trace =
        Oracle.run(&mut oracle_env, &[ErrorType::GaussianNoise], &config, &mut rng).unwrap();
    let mut ac_env = env.clone();
    let ac_trace = ActiveClean::default()
        .run(&mut ac_env, &[ErrorType::GaussianNoise], &config, &mut rng)
        .unwrap();

    // Identical starting states.
    assert_eq!(oracle_trace.initial_f1, ac_trace.initial_f1);
    assert_eq!(oracle_trace.fully_clean_f1, ac_trace.fully_clean_f1);
    // Both stayed within budget and actually cleaned.
    for trace in [&oracle_trace, &ac_trace] {
        assert!(trace.total_spent() <= 5.0 + 1e-9);
        assert!(trace.records.iter().map(|r| r.cleaned_cells).sum::<usize>() > 0);
    }
    assert!(env.total_dirty().unwrap() > ac_env.total_dirty().unwrap());
}

#[test]
fn cleanml_pair_pipeline() {
    let mut rng = StdRng::seed_from_u64(30);
    let pair = Dataset::Credit.generate_cleanml_pair(Some(300), &mut rng);
    let tt = train_test_split(&pair.clean, SplitOptions::default(), &mut rng).unwrap();
    let project = |rows: &[usize]| {
        let mut prov = Provenance::new(pair.dirty.ncols(), rows.len());
        for col in 0..pair.dirty.ncols() {
            for (i, &row) in rows.iter().enumerate() {
                if let Some(err) = pair.provenance.get(col, row) {
                    prov.record(col, i, err);
                }
            }
        }
        prov
    };
    let mut env = CleaningEnvironment::new(
        pair.dirty.take(&tt.train_rows).unwrap(),
        pair.dirty.take(&tt.test_rows).unwrap(),
        GroundTruth::new(pair.clean.take(&tt.train_rows).unwrap()),
        GroundTruth::new(pair.clean.take(&tt.test_rows).unwrap()),
        project(&tt.train_rows),
        project(&tt.test_rows),
        Algorithm::Gb,
        Metric::F1,
        0.02,
        RandomSearch { n_samples: 1, ..RandomSearch::default() },
        31,
        &mut rng,
    )
    .unwrap();

    let errors: Vec<ErrorType> = Dataset::Credit.spec().cleanml_errors.to_vec();
    let before = env.total_dirty().unwrap();
    assert!(before > 0);
    let session = CleaningSession::new(
        CometConfig { budget: 6.0, n_combinations: 1, ..CometConfig::default() },
        errors,
    );
    let trace = session.run(&mut env, &mut rng).unwrap().trace;
    assert!(env.total_dirty().unwrap() < before);
    assert!(trace.total_spent() <= 6.0 + 1e-9);
}

#[test]
fn deterministic_given_seed_across_the_whole_pipeline() {
    let run = |seed: u64| {
        let mut env = build_env(
            Dataset::SCredit,
            Algorithm::Knn,
            Scenario::SingleError(ErrorType::CategoricalShift),
            200,
            seed,
        );
        let session = CleaningSession::new(
            CometConfig { budget: 4.0, n_combinations: 1, ..CometConfig::default() },
            vec![ErrorType::CategoricalShift],
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = session.run(&mut env, &mut rng).unwrap().trace;
        (
            trace.initial_f1,
            trace.final_f1,
            trace.records.iter().map(|r| (r.col, r.actual_f1.to_bits())).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(5), run(5), "bit-identical traces for identical seeds");
}
