//! Shared strategy plumbing: the accept-always step executor used by
//! RR/FIR/Oracle, and trace averaging for repeated runs.

use comet_core::{
    CleaningEnvironment, CleaningTrace, CometConfig, CometError, EnvError, SessionState, StepAction,
};
use comet_jenga::ErrorType;
use rand::Rng;
use std::time::Instant;

/// Run an accept-always cleaning loop where `pick` chooses the next
/// `(feature, error type)` among the currently dirty pairs. Used by RR
/// (random pick), FIR (static ranking pick) and Oracle (measured pick).
/// Every step is booked through COMET's own [`SessionState`]. An
/// unaffordable pick gives way to the first affordable dirty pair.
pub(crate) fn execute_picks<R, F>(
    env: &mut CleaningEnvironment,
    errors: &[ErrorType],
    config: &CometConfig,
    mut pick: F,
    rng: &mut R,
) -> Result<CleaningTrace, CometError>
where
    R: Rng,
    F: FnMut(
        &mut CleaningEnvironment,
        &[(usize, ErrorType)],
        &SessionState,
        &mut R,
    ) -> Result<Option<(usize, ErrorType)>, EnvError>,
{
    let mut state = SessionState::new(config, env)?;
    for iteration in 0..100_000usize {
        state.set_iteration(iteration);
        if state.budget().exhausted() {
            break;
        }
        let dirty = env.candidate_pairs(errors);
        if dirty.is_empty() {
            break;
        }
        // comet-lint: allow(D3) — observability: iteration runtime for reports; never feeds a trace decision
        let started = Instant::now();
        let Some(picked) = pick(env, &dirty, &state, rng)? else {
            break;
        };
        state.push_runtime(started.elapsed());
        let affordable =
            |pair: &(usize, ErrorType)| state.budget().can_afford(state.next_cost(config, *pair));
        let Some(pair) =
            Some(picked).filter(affordable).or_else(|| dirty.iter().copied().find(affordable))
        else {
            break;
        };
        let cost = state.next_cost(config, pair);
        let (ctr, cte) = env.clean_step(pair.0, pair.1, &[], &[], rng)?;
        if ctr + cte == 0 {
            continue;
        }
        state.charge(cost, pair);
        let f1 = env.evaluate()?;
        state.accept(f1);
        state.record(pair, StepAction::Accepted, cost, None, f1, ctr + cte);
        state.mark_curve();
    }
    Ok(state.finish())
}

/// Average several traces into one F1-per-budget-unit series (RR runs five
/// repetitions, §4.5). Returns `series[b]` = mean F1 after budget `b`.
pub fn average_traces(traces: &[CleaningTrace], max_budget: usize) -> Vec<f64> {
    assert!(!traces.is_empty(), "need at least one trace");
    let mut series = vec![0.0; max_budget + 1];
    for trace in traces {
        for (b, slot) in series.iter_mut().enumerate() {
            *slot += trace.f1_at_budget(b as f64);
        }
    }
    series.iter_mut().for_each(|v| *v /= traces.len() as f64);
    series
}

#[cfg(test)]
pub(crate) mod test_support {
    use comet_core::CleaningEnvironment;
    use comet_frame::{train_test_split, SplitOptions};
    use comet_jenga::{ErrorType, GroundTruth, PrePollutionPlan, Provenance, Scenario};
    use comet_ml::{Algorithm, Metric, RandomSearch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small pre-polluted EEG environment used across baseline tests.
    pub fn small_env(
        seed: u64,
        levels: Vec<(usize, f64)>,
        algorithm: Algorithm,
    ) -> CleaningEnvironment {
        env_under(Scenario::SingleError(ErrorType::MissingValues), seed, levels, algorithm)
    }

    /// The same environment under the multi-error pre-pollution (§4.1):
    /// each pollution step of a feature draws its own error type.
    pub fn multi_error_env(
        seed: u64,
        levels: Vec<(usize, f64)>,
        algorithm: Algorithm,
    ) -> CleaningEnvironment {
        env_under(Scenario::MultiError, seed, levels, algorithm)
    }

    fn env_under(
        scenario: Scenario,
        seed: u64,
        levels: Vec<(usize, f64)>,
        algorithm: Algorithm,
    ) -> CleaningEnvironment {
        let mut rng = StdRng::seed_from_u64(seed);
        let df = comet_datasets::Dataset::Eeg.generate(Some(240), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        let plan = PrePollutionPlan::explicit(scenario, levels);
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
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            17,
            &mut rng,
        )
        .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_traces_means_series() {
        let t1 = CleaningTrace {
            initial_f1: 0.4,
            f1_curve: vec![(1.0, 0.6)],
            final_f1: 0.6,
            ..CleaningTrace::default()
        };
        let t2 = CleaningTrace {
            initial_f1: 0.6,
            f1_curve: vec![(2.0, 0.8)],
            final_f1: 0.8,
            ..CleaningTrace::default()
        };
        let avg = average_traces(&[t1, t2], 2);
        assert_eq!(avg, vec![0.5, 0.6, 0.7]);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_traces_panic() {
        average_traces(&[], 5);
    }
}

#[cfg(test)]
mod golden {
    use super::test_support::{multi_error_env, small_env};
    use crate::{ActiveClean, CometLight, FeatureImportanceCleaner, Oracle, RandomCleaner};
    use comet_core::{CleaningTrace, CometConfig, CostModel, CostPolicy, StepAction};
    use comet_jenga::ErrorType;
    use comet_ml::Algorithm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// FNV-1a 64, fed one little-endian `u64` at a time.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn eat(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
            }
        }

        /// An optional F1: a presence tag, then its bits.
        fn eat_opt(&mut self, v: Option<f64>) {
            self.eat(v.is_some() as u64);
            if let Some(x) = v {
                self.eat(x.to_bits());
            }
        }
    }

    /// FNV-1a over every decision of a trace except its predictions: per
    /// record the iteration, pair, action, cost, `actual_f1` bits and
    /// cleaned cells, then the F1 curve's bits.
    fn digest(trace: &CleaningTrace) -> u64 {
        let mut h = Fnv::new();
        for r in &trace.records {
            h.eat(r.iteration as u64);
            h.eat(r.col as u64);
            h.eat(r.err as u64);
            h.eat(r.action as u64);
            h.eat(r.cost.to_bits());
            h.eat(r.actual_f1.to_bits());
            h.eat(r.cleaned_cells as u64);
        }
        for &(spent, f1) in &trace.f1_curve {
            h.eat(spent.to_bits());
            h.eat(f1.to_bits());
        }
        h.0
    }

    /// FNV-1a over a whole trace but its wall-clock runtimes: the initial
    /// and fully-clean F1, every field of every record (predictions and
    /// budget spent included), the F1 curve and the final F1.
    fn full_digest(trace: &CleaningTrace) -> u64 {
        let mut h = Fnv::new();
        h.eat(trace.initial_f1.to_bits());
        h.eat_opt(trace.fully_clean_f1);
        for r in &trace.records {
            h.eat(r.iteration as u64);
            h.eat(r.col as u64);
            h.eat(r.err as u64);
            h.eat(r.action as u64);
            h.eat(r.cost.to_bits());
            h.eat(r.budget_spent.to_bits());
            h.eat_opt(r.predicted_f1);
            h.eat_opt(r.raw_predicted_f1);
            h.eat(r.actual_f1.to_bits());
            h.eat(r.cleaned_cells as u64);
        }
        for &(spent, f1) in &trace.f1_curve {
            h.eat(spent.to_bits());
            h.eat(f1.to_bits());
        }
        h.eat(trace.final_f1.to_bits());
        h.0
    }

    #[test]
    fn activeclean_traces_match_golden_digests() {
        // Recorded when ActiveClean kept its own budget, per-error step
        // counts and trace: booking through `SessionState` must reproduce
        // every record. Multi-error dirt under the paper's multi-error
        // costs makes batches mix error types at one-shot (MV), linear
        // (GN) and constant (S) prices.
        let config = CometConfig {
            budget: 15.0,
            costs: CostPolicy::paper_multi(),
            ..CometConfig::default()
        };
        let errors = [ErrorType::MissingValues, ErrorType::GaussianNoise, ErrorType::Scaling];
        let cases = [
            (Algorithm::Svm, 0x05e6_8c10_3818_82f3),
            (Algorithm::LinReg, 0xa51c_4a19_97d3_8b9c),
            (Algorithm::LogReg, 0xd62b_82a0_3387_2da0),
        ];
        for (algorithm, want) in cases {
            let mut env = multi_error_env(4, vec![(0, 0.3), (1, 0.2), (5, 0.3)], algorithm);
            let mut rng = StdRng::seed_from_u64(5);
            let trace = ActiveClean::default().run(&mut env, &errors, &config, &mut rng).unwrap();
            let got = full_digest(&trace);
            assert_eq!(got, want, "AC-{algorithm} digest {got:#018x} != {want:#018x}");
            // A batch's cost is the cell-weighted mean of its error types'
            // prices, so a fractional cost is a batch that mixed types.
            assert!(trace.records.iter().any(|r| r.cost.fract() != 0.0), "AC-{algorithm}");
        }
    }

    #[test]
    fn baseline_traces_match_golden_digests() {
        // Recorded when CL ran its own copy of the cleaning loop and the
        // pick baselines their own step bookkeeping: the shared session
        // loop must reproduce every decision. CL's runs exercise accepts,
        // reverts, buffer re-applications and fallbacks; the linear cost
        // model exercises pricing by step count.
        let mv = [ErrorType::MissingValues];
        let linear = CostModel::Linear { initial: 1.0, increment: 1.0 };
        let cases = [
            (
                CostPolicy::constant(),
                [
                    0xfc6a_b678_9c25_f002,
                    0x032b_7f5a_925d_8929,
                    0x7ef6_133b_ab1a_58a6,
                    0xa565_3705_c5cf_6656,
                ],
            ),
            (
                CostPolicy::constant().with_model(ErrorType::MissingValues, linear),
                [
                    0x2856_d1ba_5d6a_b7c4,
                    0xae16_01e3_a7ba_c67a,
                    0xb036_0d37_02c9_b7ca,
                    0xcb18_14e8_fcc5_001c,
                ],
            ),
        ];
        for (costs, want) in cases {
            let config =
                CometConfig { budget: 20.0, costs, n_combinations: 1, ..CometConfig::default() };
            let env = small_env(1, vec![(0, 0.3), (1, 0.2), (5, 0.3)], Algorithm::Knn);
            let rng = || StdRng::seed_from_u64(1);
            let fir = FeatureImportanceCleaner { n_permutations: 2 };
            let traces = [
                CometLight.run(&mut env.clone(), &mv, &config, &mut rng()).unwrap(),
                RandomCleaner.run(&mut env.clone(), &mv, &config, &mut rng()).unwrap(),
                fir.run(&mut env.clone(), &mv, &config, &mut rng()).unwrap(),
                Oracle.run(&mut env.clone(), &mv, &config, &mut rng()).unwrap(),
            ];
            for ((trace, want), name) in traces.iter().zip(want).zip(["CL", "RR", "FIR", "Oracle"])
            {
                let got = digest(trace);
                assert_eq!(got, want, "{name} digest {got:#018x} != {want:#018x}");
            }
            let actions: Vec<StepAction> = traces[0].records.iter().map(|r| r.action).collect();
            for action in [StepAction::Reverted, StepAction::BufferApplied, StepAction::Fallback] {
                assert!(actions.contains(&action), "CL trace lacks {action:?}");
            }
        }
    }
}
