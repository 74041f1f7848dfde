//! Integration test of the observability layer end to end: a real
//! cleaning session with the `comet-obs` registry enabled and an
//! in-memory journal sink, validating the streamed JSONL records.

use comet::core::{CleaningEnvironment, CleaningSession, CometConfig, PHASES};
use comet::frame::{train_test_split, SplitOptions};
use comet::jenga::{ErrorType, GroundTruth, PrePollutionPlan, Provenance, Scenario};
use comet::ml::{Algorithm, Metric, RandomSearch};
use comet::obs::journal::SharedBuffer;
use comet::obs::{journal, json};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// The obs enable flag and journal sink are process-global; tests in this
/// binary that touch them serialize here.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn build_env(seed: u64) -> CleaningEnvironment {
    let mut rng = StdRng::seed_from_u64(seed);
    let df = comet::datasets::Dataset::Eeg.generate(Some(200), &mut rng);
    let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
    let gt_train = GroundTruth::new(tt.train.clone());
    let gt_test = GroundTruth::new(tt.test.clone());
    let mut train = tt.train;
    let mut test = tt.test;
    let mut prov_train = Provenance::for_frame(&train);
    let mut prov_test = Provenance::for_frame(&test);
    let plan = PrePollutionPlan::explicit(
        Scenario::SingleError(ErrorType::MissingValues),
        vec![(0, 0.3), (1, 0.2)],
    );
    plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
    plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
    CleaningEnvironment::new(
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
        11,
        &mut rng,
    )
    .unwrap()
}

fn quick_config(budget: f64) -> CometConfig {
    CometConfig { budget, n_combinations: 1, ..CometConfig::default() }
}

#[test]
fn session_streams_valid_journal_records() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut env = build_env(9);
    let session = CleaningSession::new(quick_config(5.0), vec![ErrorType::MissingValues]);

    let buffer = SharedBuffer::new();
    comet::obs::reset();
    comet::obs::set_enabled(true);
    journal::set_sink(Some(Box::new(buffer.clone())));
    let mut rng = StdRng::seed_from_u64(3);
    let outcome = session.run(&mut env, &mut rng).unwrap();
    let metrics = outcome.metrics.as_ref().expect("metrics collected");
    journal::emit(&metrics.summary_json());
    journal::set_sink(None);
    comet::obs::set_enabled(false);

    let text = buffer.contents();
    let lines: Vec<&str> = text.lines().collect();
    // One record per iteration, plus the summary we appended.
    assert_eq!(lines.len(), metrics.iterations.len() + 1, "journal:\n{text}");
    for (i, line) in lines.iter().enumerate() {
        let value = json::parse(line)
            .unwrap_or_else(|e| panic!("journal line {i} must parse ({e}): {line}"));
        let kind = value.get("kind").and_then(|k| k.as_str());
        if i < metrics.iterations.len() {
            assert_eq!(kind, Some("iteration"));
            assert_eq!(
                value.get("iteration").and_then(|v| v.as_f64()),
                Some(metrics.iterations[i].iteration as f64),
            );
            let phases = value.get("phases").expect("phases object");
            for phase in PHASES {
                let v = phases.get(phase).and_then(|v| v.as_f64());
                assert!(v.is_some_and(|s| s >= 0.0), "line {i} phase {phase}: {line}");
            }
        } else {
            assert_eq!(kind, Some("summary"));
            assert_eq!(
                value.get("iterations").and_then(|v| v.as_f64()),
                Some(metrics.iterations.len() as f64),
            );
        }
    }
    // The report renders without panicking and names every phase.
    let report = metrics.report();
    for phase in PHASES {
        assert!(report.contains(phase), "report missing {phase}:\n{report}");
    }
}

#[test]
fn journal_sink_absent_means_no_records_but_same_trace() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let env0 = build_env(12);
    let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues]);
    let run = |enabled: bool| {
        let mut env = env0.clone();
        comet::obs::reset();
        comet::obs::set_enabled(enabled);
        let mut rng = StdRng::seed_from_u64(8);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        comet::obs::set_enabled(false);
        outcome
    };
    journal::set_sink(None);
    let bare = run(false);
    let instrumented = run(true);
    assert!(bare.metrics.is_none());
    assert!(instrumented.metrics.is_some());
    assert!(
        bare.trace.content_eq(&instrumented.trace),
        "enabling metrics must not change the trace",
    );
}
