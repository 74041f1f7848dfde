//! The traced replay: a session's first iteration re-run on a freshly
//! built environment, one public call at a time, with a span around each
//! call.
//!
//! The replay mirrors what `CleaningSession::run` does in iteration 0 —
//! derive the session seed, pollute each candidate with its own seeded
//! stream, evaluate every variant, fit the Bayesian regression, rank —
//! through the crates' public API, so each layer's time can be read off
//! separately. Candidates fan out over the host's workers like the
//! session's do: on a 2-core host the same calls take about 1.4 times as
//! long on each of two busy workers as on one, and a replay at one thread
//! would leave that contention unattributed. Its evaluation of the initial
//! state must reproduce the session's initial F1 bit for bit, and every
//! iteration-0 prediction the session recorded must match the replay's,
//! or the replay timed something other than the session did.

use crate::spans::Tracer;
use comet_bayes::{BayesianLinearRegression, BlrConfig, Ols};
use comet_core::{
    derive_provenance, CleaningEnvironment, CleaningTrace, CometConfig, Estimate, Polluter,
    Recommender,
};
use comet_frame::{train_test_split, DataFrame, SplitOptions, DEFAULT_SEGMENT_ROWS};
use comet_jenga::{ErrorType, GroundTruth};
use comet_ml::{scratch, Algorithm, FeatureCache, Featurizer, Metric, RandomSearch};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;

/// Counters the replay accumulates across sessions.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Bayesian regressions fitted.
    pub blr_fits: u64,
    /// Fits that fell back to ridge OLS.
    pub degraded: u64,
}

fn fit_span(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Gb => "ml.fit.gb",
        Algorithm::Mlp => "ml.fit.mlp",
        Algorithm::Svm => "ml.fit.svm",
        Algorithm::LinReg => "ml.fit.lir",
        Algorithm::Knn => "ml.fit.knn",
        Algorithm::LogReg => "ml.fit.lor",
        Algorithm::Dt | Algorithm::Rf | Algorithm::Nb => "ml.fit.other",
    }
}

fn predict_span(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Gb => "ml.predict.gb",
        Algorithm::Mlp => "ml.predict.mlp",
        Algorithm::Svm => "ml.predict.svm",
        Algorithm::LinReg => "ml.predict.lir",
        Algorithm::Knn => "ml.predict.knn",
        Algorithm::LogReg => "ml.predict.lor",
        Algorithm::Dt | Algorithm::Rf | Algorithm::Nb => "ml.predict.other",
    }
}

/// The per-candidate seed derivation of `CleaningSession::run`: every
/// `(col, err, iteration)` pollutes with its own stream.
fn candidate_seed(session_seed: u64, col: usize, err: ErrorType, iteration: usize) -> u64 {
    const M: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = session_seed;
    for w in [col as u64, err as u64, iteration as u64] {
        h = (h.rotate_left(5) ^ w).wrapping_mul(M);
    }
    h
}

/// Train and score the environment's model on one frame pair, as
/// `CleaningEnvironment::evaluate_frames` does, with a span per layer.
fn evaluate(
    t: &mut Tracer,
    env: &CleaningEnvironment,
    cache: &FeatureCache,
    train: &DataFrame,
    test: &DataFrame,
    eval_seed: u64,
) -> Result<f64, String> {
    let algorithm = env.model().algorithm;
    let (xtr, xte, ytr, yte) = t
        .span("ml.featurize", |_| {
            let featurizer = Featurizer::fit_cached(train, cache)?;
            let dim = featurizer.dim();
            let xtr = featurizer.transform_with(
                train,
                Some(cache),
                scratch::take(train.nrows() * dim),
            )?;
            let xte =
                featurizer.transform_with(test, Some(cache), scratch::take(test.nrows() * dim))?;
            Ok::<_, comet_frame::FrameError>((xtr, xte, train.label_codes()?, test.label_codes()?))
        })
        .map_err(|e| format!("featurize: {e}"))?;
    let n_classes = env.n_classes();
    let mut model = t.span("ml.build", |_| env.model().params.build());
    t.span(fit_span(algorithm), |_| {
        model.fit(&xtr, &ytr, n_classes, &mut StdRng::seed_from_u64(eval_seed))
    });
    let predictions = t.span(predict_span(algorithm), |_| model.predict(&xte));
    let score = t.span("ml.metric", |_| env.metric().eval(&yte, &predictions, n_classes));
    scratch::put_matrix(xtr);
    scratch::put_matrix(xte);
    Ok(score)
}

/// The Estimator's backward prediction: Bayesian fit, ridge OLS when the
/// fit degenerates.
fn backward_prediction(
    config: BlrConfig,
    xs: &[f64],
    ys: &[f64],
    counts: &mut ReplayCounts,
) -> Result<(f64, f64), String> {
    counts.blr_fits += 1;
    let mut blr = BayesianLinearRegression::new(config);
    let fitted = blr.fit(xs, ys).map(|_| ());
    if let Ok(prediction) = fitted.and_then(|()| blr.predict(-1.0)) {
        return Ok((prediction.mean, prediction.uncertainty()));
    }
    counts.degraded += 1;
    let mut ols = Ols::new(config.degree);
    let mean = ols
        .fit(xs, ys)
        .map(|_| ())
        .and_then(|()| ols.predict(-1.0))
        .map_err(|e| format!("regression fallback failed: {e}"))?;
    let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Ok((mean, (hi - lo).max(1e-6)))
}

/// What a replay needs to know about the session it re-runs.
pub struct SessionSpec<'a> {
    /// The session's configuration.
    pub config: &'a CometConfig,
    /// The error types it cleans.
    pub errors: &'a [ErrorType],
    /// The session rng, in the state `run` received it.
    pub rng: StdRng,
    /// The environment's model-fit seed.
    pub eval_seed: u64,
    /// The timed session's initial F1.
    pub initial_f1: f64,
    /// `(col, err, predicted F1)` of every iteration-0 step the timed
    /// session recorded with a prediction.
    pub predictions: Vec<(usize, ErrorType, f64)>,
    /// The feature-block byte budget the session's environment ran with.
    pub block_budget: Option<usize>,
}

/// The iteration-0 predictions a trace recorded.
pub fn first_predictions(trace: &CleaningTrace) -> Vec<(usize, ErrorType, f64)> {
    trace
        .records
        .iter()
        .filter(|r| r.iteration == 0)
        .filter_map(|r| r.raw_predicted_f1.map(|p| (r.col, r.err, p)))
        .collect()
}

/// Time the hyperparameter search `CleaningEnvironment::new` runs on
/// `train`: the same featurization, search and rng state, as a separate
/// call under the span `ml.tune`.
pub fn tune_probe(
    t: &mut Tracer,
    train: &DataFrame,
    algorithm: Algorithm,
    search: RandomSearch,
    mut rng: StdRng,
) -> Result<(), String> {
    t.span("ml.tune", |_| {
        let cache = FeatureCache::new();
        let featurizer = Featurizer::fit_cached(train, &cache)?;
        let x = featurizer.transform_with(train, Some(&cache), Vec::new())?;
        let y = train.label_codes()?;
        search.tune(algorithm, &x, &y, train.n_classes()?, &mut rng);
        Ok::<_, comet_frame::FrameError>(())
    })
    .map_err(|e| format!("tune: {e}"))
}

/// `comet_core::build_paired_env`, step by step: the split and provenance
/// under `core.setup`, the search under `ml.tune`, the constructor under
/// `core.env_build`. Leaves `rng` where `build_paired_env` leaves it.
#[allow(clippy::too_many_arguments)]
pub fn paired_env(
    t: &mut Tracer,
    dirty: DataFrame,
    clean: DataFrame,
    algorithm: Algorithm,
    step_frac: f64,
    search: RandomSearch,
    eval_seed: u64,
    rng: &mut StdRng,
) -> Result<CleaningEnvironment, String> {
    t.span("core.setup", |t| {
        let err = |e: &dyn std::fmt::Display| format!("paired environment: {e}");
        let dirty = dirty.resegment(DEFAULT_SEGMENT_ROWS).map_err(|e| err(&e))?;
        let clean = clean.resegment(DEFAULT_SEGMENT_ROWS).map_err(|e| err(&e))?;
        let tt = train_test_split(&clean, SplitOptions::default(), rng).map_err(|e| err(&e))?;
        let dirty_train = dirty.take(&tt.train_rows).map_err(|e| err(&e))?;
        let dirty_test = dirty.take(&tt.test_rows).map_err(|e| err(&e))?;
        let gt_train = GroundTruth::new(tt.train);
        let gt_test = GroundTruth::new(tt.test);
        let prov_train = derive_provenance(&dirty_train, &gt_train).map_err(|e| err(&e))?;
        let prov_test = derive_provenance(&dirty_test, &gt_test).map_err(|e| err(&e))?;
        tune_probe(t, &dirty_train, algorithm, search, rng.clone())?;
        t.span("core.env_build", |_| {
            CleaningEnvironment::new(
                dirty_train,
                dirty_test,
                gt_train,
                gt_test,
                prov_train,
                prov_test,
                algorithm,
                Metric::F1,
                step_frac,
                search,
                eval_seed,
                rng,
            )
        })
        .map_err(|e| err(&e))
    })
}

/// Replay iteration 0 of the session on `env`, which must be freshly
/// built the way the session's environment was. Spans: `detect.scan`,
/// `core.baseline` (the initial evaluation), one `core.candidate` per
/// candidate (the polluter, featurize, fit, predict, metric and Bayes
/// calls the session times as its pollute and estimate phases) under
/// `core.candidates`, and `core.rank`.
pub fn first_iteration(
    t: &mut Tracer,
    env: &mut CleaningEnvironment,
    mut spec: SessionSpec<'_>,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let config = spec.config;
    if let Some(detect) = config.detect {
        env.enable_detection(detect);
        t.span("detect.scan", |_| env.detect_reports()).map_err(|e| format!("detect: {e}"))?;
    }
    let env: &CleaningEnvironment = env;
    let session_seed = spec.rng.next_u64();
    let cache = FeatureCache::new();
    if let Some(bytes) = spec.block_budget {
        cache.set_block_byte_budget(bytes);
    }
    let baseline = t.span("core.baseline", |t| {
        evaluate(t, env, &cache, env.train(), env.test(), spec.eval_seed)
    })?;
    if baseline.to_bits() != spec.initial_f1.to_bits() {
        return Err(format!(
            "replay scores the initial state {baseline}, the session scored it {}",
            spec.initial_f1
        ));
    }

    let polluter = Polluter::from_config(config);
    let blr_config =
        BlrConfig { degree: config.blr_degree, interval: config.interval, ..BlrConfig::default() };
    let (origin, session) = (t.origin(), t.session());
    // One candidate's pollute + estimate work, on whichever worker runs it.
    let replay_candidate = |(col, err): (usize, ErrorType)| {
        let mut ct = Tracer::starting_at(origin, session);
        let mut c = ReplayCounts::default();
        let estimate = ct.span("core.candidate", |ct| {
            let mut rng = StdRng::seed_from_u64(candidate_seed(session_seed, col, err, 0));
            let variants = ct
                .span("core.polluter", |_| polluter.variants(env, col, err, &mut rng))
                .map_err(|e| format!("polluter: {e}"))?;
            // A content-identical variant is answered by the session's
            // evaluation cache; the replay skips it the same way.
            let mut scored = BTreeMap::new();
            scored.insert((env.train().fingerprint(), env.test().fingerprint()), baseline);
            let mut points = vec![(0.0, baseline)];
            for variant in &variants {
                let key = (variant.train.fingerprint(), variant.test.fingerprint());
                let score = match scored.get(&key) {
                    Some(&score) => score,
                    None => {
                        let score = evaluate(
                            ct,
                            env,
                            &cache,
                            &variant.train,
                            &variant.test,
                            spec.eval_seed,
                        )?;
                        scored.insert(key, score);
                        score
                    }
                };
                points.push((variant.steps as f64, score));
            }
            let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
            let (mean, uncertainty) =
                ct.span("bayes.blr", |_| backward_prediction(blr_config, &xs, &ys, &mut c))?;
            let raw = mean.clamp(0.0, 1.0);
            Ok::<_, String>(Estimate {
                col,
                err,
                current_f1: baseline,
                raw_predicted_f1: raw,
                predicted_f1: raw,
                uncertainty,
                points,
                flagged_train: Vec::new(),
                flagged_test: Vec::new(),
            })
        });
        (estimate, ct, c)
    };
    // Candidates fan out over the workers exactly as the session's do, so
    // each call is timed under the contention the session's calls met.
    let estimates = t.span("core.candidates", |t| {
        let mut estimates = Vec::new();
        for (estimate, ct, c) in
            comet_par::par_map(env.candidate_pairs(spec.errors), replay_candidate)
        {
            t.absorb(ct);
            counts.blr_fits += c.blr_fits;
            counts.degraded += c.degraded;
            estimates.push(estimate?);
        }
        Ok::<_, String>(estimates)
    })?;

    // Iteration 0 carries no bias correction yet, so every prediction the
    // session recorded must be the replay's raw prediction, bit for bit.
    for &(col, err, recorded) in &spec.predictions {
        let replayed =
            estimates.iter().find(|e| (e.col, e.err) == (col, err)).map(|e| e.raw_predicted_f1);
        if replayed.map(f64::to_bits) != Some(recorded.to_bits()) {
            return Err(format!(
                "replay predicts {replayed:?} for candidate ({col}, {err:?}), the session {recorded}"
            ));
        }
    }
    let costs: Vec<f64> = estimates.iter().map(|e| config.costs.next_cost(e.err, 0)).collect();
    t.span("core.rank", |_| Recommender::new(config.use_uncertainty).rank(estimates, &costs));
    Ok(())
}
