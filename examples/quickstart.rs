//! Quickstart: five minutes with COMET.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! We generate a small dataset, pollute every feature with missing values,
//! and let COMET recommend — step by step — which feature to clean next so
//! a KNN classifier's F1 recovers fastest within a budget of 10 units.

use comet::core::{CleaningEnvironment, CleaningSession, CometConfig, StepAction};
use comet::datasets::Dataset;
use comet::frame::{train_test_split, SplitOptions};
use comet::jenga::{ErrorType, GroundTruth, PrePollutionPlan, Provenance, Scenario};
use comet::ml::{Algorithm, Metric, RandomSearch};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. A clean dataset (a synthetic analog of the UCI EEG eye-state data)
    //    and a stratified train/test split.
    let df = Dataset::Eeg.generate(Some(500), &mut rng);
    let tt = train_test_split(&df, SplitOptions::default(), &mut rng).expect("split");
    println!(
        "dataset: {} rows train / {} rows test, {} features",
        tt.train.nrows(),
        tt.test.nrows(),
        tt.train.feature_indices().len()
    );

    // 2. Keep the clean ground truth, then pollute: 40 % missing values in
    //    every feature of both splits (the paper's pre-pollution).
    let gt_train = GroundTruth::new(tt.train.clone());
    let gt_test = GroundTruth::new(tt.test.clone());
    let mut train = tt.train;
    let mut test = tt.test;
    let mut prov_train = Provenance::for_frame(&train);
    let mut prov_test = Provenance::for_frame(&test);
    let levels: Vec<(usize, f64)> = train.feature_indices().into_iter().map(|c| (c, 0.4)).collect();
    let plan = PrePollutionPlan::explicit(Scenario::SingleError(ErrorType::MissingValues), levels);
    plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).expect("pollute train");
    plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).expect("pollute test");

    // 3. The cleaning environment: dirty data + (hidden) ground truth + the
    //    ML model under optimization. Hyperparameters are tuned once on the
    //    dirty data, exactly like a practitioner would.
    let mut env = CleaningEnvironment::new(
        train,
        test,
        gt_train,
        gt_test,
        prov_train,
        prov_test,
        Algorithm::Knn,
        Metric::F1,
        0.03, // cleaning step = 3 % of each split (quick demo)
        RandomSearch::default(),
        42,
        &mut rng,
    )
    .expect("environment");

    // 4. Run COMET with a budget of 10 units.
    let config = CometConfig { budget: 10.0, ..CometConfig::default() };
    let session = CleaningSession::new(config, vec![ErrorType::MissingValues]);
    let outcome = session.run(&mut env, &mut rng).expect("session");
    let trace = outcome.trace;
    println!("dirty F1: {:.4}", trace.initial_f1);

    // 5. Inspect the step-by-step recommendations.
    println!("\nstep-by-step recommendations:");
    for record in &trace.records {
        let feature = env
            .train()
            .column(record.col)
            .map(|c| c.name().to_string())
            .unwrap_or_else(|_| format!("#{}", record.col));
        println!(
            "  [{}] clean {feature} ({}): predicted F1 {} -> actual {:.4}  {:?}",
            record.iteration,
            record.err.abbrev(),
            record.predicted_f1.map(|p| format!("{p:.4}")).unwrap_or_else(|| "-".into()),
            record.actual_f1,
            record.action,
        );
    }
    println!(
        "\nF1: {:.4} (dirty) -> {:.4} (after {:.0} budget units); fully clean would be {:.4}",
        trace.initial_f1,
        trace.final_f1,
        trace.total_spent(),
        trace.fully_clean_f1.unwrap_or(f64::NAN),
    );
    println!(
        "accepted {} / reverted {} / fallback {} steps; prediction MAE {:.4}",
        trace.count_action(StepAction::Accepted),
        trace.count_action(StepAction::Reverted),
        trace.count_action(StepAction::Fallback),
        trace.prediction_mae().unwrap_or(f64::NAN),
    );
}
