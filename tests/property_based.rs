//! Property-based tests (proptest) on cross-crate invariants.

use comet::bayes::{BayesianLinearRegression, BlrConfig, StudentT};
use comet::core::CleaningEnvironment;
use comet::frame::{train_test_split, Cell, Column, DataFrame, SplitOptions};
use comet::jenga::{
    inject, sample_rows, ErrorType, GroundTruth, PrePollutionPlan, Provenance, Scenario,
};
use comet::ml::metrics::{accuracy, f1_binary, f1_macro};
use comet::ml::{Algorithm, Metric, RandomSearch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a small mixed-type frame from generated raw data.
fn frame(values: &[f64], cats: &[u8], labels: &[u8]) -> DataFrame {
    let n = values.len();
    let x = Column::numeric("x", values.to_vec());
    let c = Column::categorical(
        "c",
        cats.iter().map(|&v| (v % 3) as u32).collect(),
        vec!["a".into(), "b".into(), "d".into()],
    )
    .unwrap();
    let y = Column::categorical(
        "y",
        labels.iter().map(|&v| (v % 2) as u32).collect(),
        vec!["n".into(), "p".into()],
    )
    .unwrap();
    assert_eq!(cats.len(), n);
    assert_eq!(labels.len(), n);
    DataFrame::new(vec![x, c, y], Some("y")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pollution touches exactly the requested feature and never the label,
    /// and reverting the injection restores the frame bit-for-bit.
    #[test]
    fn pollution_is_local_and_revertible(
        values in prop::collection::vec(-1e3f64..1e3, 20..60),
        cats in prop::collection::vec(0u8..3, 60),
        labels in prop::collection::vec(0u8..2, 60),
        seed in 0u64..1000,
        k in 1usize..10,
        err_idx in 0usize..4,
    ) {
        let n = values.len();
        let df0 = frame(&values, &cats[..n], &labels[..n]);
        let err = ErrorType::ALL[err_idx];
        let col = if err.applicable(comet::frame::ColumnKind::Numeric) { 0 } else { 1 };
        let mut df = df0.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = sample_rows(n, k, &mut rng);
        let rec = inject(&mut df, col, &rows, err, &mut rng).unwrap();

        // Locality: the other feature and the label are untouched.
        let other = 1 - col;
        prop_assert_eq!(df.column(other).unwrap(), df0.column(other).unwrap());
        prop_assert_eq!(df.label_codes().unwrap(), df0.label_codes().unwrap());
        // Changed cells ⊆ requested rows.
        for (row, _) in &rec.changed {
            prop_assert!(rows.contains(row));
        }
        // Revert restores exactly.
        rec.revert(&mut df).unwrap();
        prop_assert_eq!(df, df0);
    }

    /// The Cleaner's step (§3.3), as every session runs it: one
    /// `clean_step` restores at most one step's worth of cells per split,
    /// the flagged rows first, and the dirty count falls by exactly the
    /// number of cells it reports.
    #[test]
    fn cleaning_steps_account_exactly(
        values in prop::collection::vec(-100f64..100.0, 40..60),
        seed in 0u64..1000,
        level in 0.1f64..0.4,
        step_frac in 0.02f64..0.2,
        n_flagged in 0usize..4,
    ) {
        let n = values.len();
        let labels: Vec<u8> = (0..n as u8).collect();
        let cats = vec![0u8; n];
        let df = frame(&values, &cats, &labels);
        let mut rng = StdRng::seed_from_u64(seed);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let (mut train, mut test) = (tt.train, tt.test);
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        let mv = ErrorType::MissingValues;
        let plan = PrePollutionPlan::explicit(Scenario::SingleError(mv), vec![(0, level)]);
        plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
        plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
        let search = RandomSearch { n_samples: 1, ..RandomSearch::default() };
        let mut env = CleaningEnvironment::new(
            train, test, gt_train, gt_test, prov_train, prov_test,
            Algorithm::Knn, Metric::F1, step_frac, search, seed, &mut rng,
        ).unwrap();
        // The last dirty rows: a uniform draw would rarely pick them first.
        let flagged: Vec<usize> =
            env.dirty_train_rows(0, mv).into_iter().rev().take(n_flagged).collect();
        let before = env.total_dirty().unwrap();
        let (train_cells, test_cells) = env.clean_step(0, mv, &flagged, &[], &mut rng).unwrap();
        let after = env.total_dirty().unwrap();
        prop_assert_eq!(before - after, train_cells + test_cells);
        prop_assert!(train_cells >= 1, "a dirty split must give up at least one cell");
        prop_assert!(train_cells <= env.step_train() && test_cells <= env.step_test());
        let dirty = env.dirty_train_rows(0, mv);
        for row in flagged.iter().take(env.step_train()) {
            prop_assert!(!dirty.contains(row), "flagged row {} left dirty", row);
        }
    }

    /// Train/test split partitions rows exactly, with no duplication.
    #[test]
    fn split_partitions_rows(
        n in 10usize..120,
        frac in 0.1f64..0.9,
        seed in 0u64..1000,
        stratify in any::<bool>(),
    ) {
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let cats = vec![0u8; n];
        let df = frame(&values, &cats, &labels);
        let mut rng = StdRng::seed_from_u64(seed);
        let tt = train_test_split(
            &df,
            SplitOptions { test_fraction: frac, stratify },
            &mut rng,
        )
        .unwrap();
        let mut all: Vec<usize> =
            tt.train_rows.iter().chain(&tt.test_rows).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        prop_assert!(!tt.train_rows.is_empty());
        prop_assert!(!tt.test_rows.is_empty());
    }

    /// Metrics stay in [0, 1]; F1 = 1 iff predictions equal labels is
    /// one-sided: perfect predictions always score 1.
    #[test]
    fn metric_bounds(
        y_true in prop::collection::vec(0u32..3, 1..60),
        y_pred_raw in prop::collection::vec(0u32..3, 60),
    ) {
        let n = y_true.len();
        let y_pred = &y_pred_raw[..n];
        let acc = accuracy(&y_true, y_pred);
        prop_assert!((0.0..=1.0).contains(&acc));
        let f1 = f1_macro(&y_true, y_pred, 3);
        prop_assert!((0.0..=1.0).contains(&f1));
        let f1b = f1_binary(&y_true, y_pred, 1);
        prop_assert!((0.0..=1.0).contains(&f1b));
        // Perfect predictions.
        prop_assert_eq!(accuracy(&y_true, &y_true), 1.0);
        if y_true.contains(&1) {
            prop_assert_eq!(f1_binary(&y_true, &y_true, 1), 1.0);
        }
    }

    /// The Bayesian regression's credible interval contains its own mean
    /// and widens with the interval level.
    #[test]
    fn blr_interval_properties(
        ys in prop::collection::vec(0.0f64..1.0, 4..20),
        x_query in -2.0f64..3.0,
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let mut narrow = BayesianLinearRegression::new(BlrConfig {
            interval: 0.5,
            ..BlrConfig::default()
        });
        narrow.fit(&xs, &ys).unwrap();
        let mut wide = BayesianLinearRegression::new(BlrConfig {
            interval: 0.99,
            ..BlrConfig::default()
        });
        wide.fit(&xs, &ys).unwrap();
        let pn = narrow.predict(x_query).unwrap();
        let pw = wide.predict(x_query).unwrap();
        prop_assert!(pn.lower <= pn.mean && pn.mean <= pn.upper);
        prop_assert!((pn.mean - pw.mean).abs() < 1e-9, "level must not shift the mean");
        prop_assert!(pw.uncertainty() >= pn.uncertainty());
    }

    /// Student-t CDF is monotone and symmetric for any ν.
    #[test]
    fn student_t_properties(nu in 0.5f64..50.0, t in -20.0f64..20.0) {
        let dist = StudentT::new(nu);
        let c = dist.cdf(t);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!((dist.cdf(t) + dist.cdf(-t) - 1.0).abs() < 1e-9);
        prop_assert!(dist.cdf(t + 0.1) >= c - 1e-12);
    }

    /// Cells written through the typed API always read back identically.
    #[test]
    fn cell_roundtrip(v in -1e9f64..1e9, row_count in 1usize..30, row_sel in 0usize..30) {
        let row = row_sel % row_count;
        let mut c = Column::numeric("x", vec![0.0; row_count]);
        c.set(row, Cell::Num(v)).unwrap();
        prop_assert_eq!(c.get(row).unwrap(), Cell::Num(v));
        c.set(row, Cell::Missing).unwrap();
        prop_assert!(c.get(row).unwrap().is_missing());
    }
}

mod core_properties {
    use comet::core::{Budget, CleaningTrace, CostModel, CostPolicy};
    use comet::jenga::ErrorType;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A budget never reports negative remaining funds and never lets
        /// total spending exceed the total, for any spend sequence.
        #[test]
        fn budget_never_overspends(
            total in 0.0f64..100.0,
            costs in prop::collection::vec(0.0f64..10.0, 0..50),
        ) {
            let mut budget = Budget::new(total);
            for cost in costs {
                let before = budget.spent();
                let ok = budget.try_spend(cost);
                if ok {
                    prop_assert!((budget.spent() - before - cost).abs() < 1e-9);
                } else {
                    prop_assert_eq!(budget.spent(), before);
                }
                prop_assert!(budget.remaining() >= 0.0);
                prop_assert!(budget.spent() <= budget.total() + 1e-6);
            }
        }

        /// Cumulative cost equals the sum of per-step costs for every model,
        /// and per-step costs are monotone for the linear model.
        #[test]
        fn cost_models_are_consistent(
            steps in 0usize..30,
            first in 0.0f64..5.0,
            rest in 0.0f64..5.0,
            increment in 0.0f64..3.0,
        ) {
            for model in [
                CostModel::Constant(first),
                CostModel::OneShot { first, rest },
                CostModel::Linear { initial: first, increment },
            ] {
                let total: f64 = (0..steps).map(|s| model.next_cost(s)).sum();
                prop_assert!((model.cumulative(steps) - total).abs() < 1e-9);
            }
            let linear = CostModel::Linear { initial: first, increment };
            for s in 0..steps.saturating_sub(1) {
                prop_assert!(linear.next_cost(s + 1) >= linear.next_cost(s));
            }
        }

        /// The constant policy charges the same for every error type; the
        /// paper's multi policy charges MV ≤ 2 total after the first step.
        #[test]
        fn cost_policy_routing(steps in 0usize..20) {
            let constant = CostPolicy::constant();
            for err in ErrorType::ALL {
                prop_assert_eq!(constant.next_cost(err, steps), 1.0);
            }
            let multi = CostPolicy::paper_multi();
            let mv_total = multi.model(ErrorType::MissingValues).cumulative(steps.max(1));
            prop_assert_eq!(mv_total, 2.0, "MV is one-shot: 2 units ever");
        }

        /// f1_at_budget is monotone in budget for a non-decreasing curve and
        /// always returns a value present in {initial} ∪ curve values.
        #[test]
        fn trace_budget_lookup(
            initial in 0.0f64..1.0,
            deltas in prop::collection::vec((0.1f64..2.0, 0.0f64..1.0), 0..20),
            probe in 0.0f64..50.0,
        ) {
            let mut spent = 0.0;
            let mut curve = Vec::new();
            for (step, f1) in &deltas {
                spent += step;
                curve.push((spent, *f1));
            }
            let trace = CleaningTrace {
                initial_f1: initial,
                f1_curve: curve.clone(),
                final_f1: curve.last().map_or(initial, |&(_, f)| f),
                ..CleaningTrace::default()
            };
            let value = trace.f1_at_budget(probe);
            let mut valid: Vec<f64> = vec![initial];
            valid.extend(curve.iter().map(|&(_, f)| f));
            prop_assert!(valid.iter().any(|v| (v - value).abs() < 1e-15));
            // Beyond total spend, the lookup returns the last kept value.
            prop_assert!((trace.f1_at_budget(1e9) - trace.final_f1).abs() < 1e-15);
        }
    }
}

mod fingerprint_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Mutating any single cell — value, validity bit, or categorical
        /// code — changes the frame fingerprint, and undoing the mutation
        /// restores it bit-for-bit. This is the soundness condition of
        /// everything fingerprints key (the feature-block cache, the
        /// detection memo, spill files): distinct data states must not
        /// share a key.
        #[test]
        fn fingerprint_tracks_single_cell_mutations(
            values in prop::collection::vec(-1e3f64..1e3, 20..60),
            cats in prop::collection::vec(0u8..3, 60),
            labels in prop::collection::vec(0u8..2, 60),
            pick in 0.0f64..1.0,
            delta in 1.0f64..100.0,
        ) {
            let n = values.len();
            let df0 = frame(&values, &cats[..n], &labels[..n]);
            let base = df0.fingerprint();
            prop_assert_eq!(df0.fingerprint(), base, "fingerprint must be deterministic");

            let row = ((pick * n as f64) as usize).min(n - 1);

            // Numeric value mutation, then exact restore.
            let mut df = df0.clone();
            let old = df.column(0).unwrap().num(row).unwrap();
            df.set(row, 0, Cell::Num(old + delta)).unwrap();
            prop_assert_ne!(df.fingerprint(), base);
            df.set(row, 0, Cell::Num(old)).unwrap();
            prop_assert_eq!(df.fingerprint(), base);

            // Validity flip alone (payload slot untouched).
            let mut df = df0.clone();
            df.set(row, 0, Cell::Missing).unwrap();
            prop_assert_ne!(df.fingerprint(), base);

            // Categorical code mutation.
            let mut df = df0.clone();
            let old_code = df.column(1).unwrap().cat(row).unwrap();
            df.set(row, 1, Cell::Cat((old_code + 1) % 3)).unwrap();
            prop_assert_ne!(df.fingerprint(), base);
        }
    }
}
