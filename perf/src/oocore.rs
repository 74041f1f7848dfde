//! `oocore_64k`: the out-of-core leg. An EEG session over 65,536 rows with
//! the spill pool armed at a quarter of one frame's payload and the
//! feature-block cache at a quarter of that, so segments page to disk and
//! back on every evaluation. No other workload arms the spill pool.
//!
//! A round is one session, so a run's numbers are medians over its rounds
//! alone: the size keeps a round to about two seconds, so that a run has a
//! dozen rounds or so. On a shared 2-core host, rounds varied by 15 %
//! within a run; at twice the rows a run had six rounds, and the same
//! seed's medians varied by 35 % from run to run.

use crate::layers;
use crate::replay::{self, ReplayCounts, SessionSpec};
use crate::spans::Tracer;
use crate::workload::{across_rounds, secs, start_round, Observations, Plan, REPLAY_ROUND};
use comet_core::{build_paired_env, CleaningSession, CleaningTrace, CometConfig};
use comet_datasets::Dataset;
use comet_frame::DataFrame;
use comet_jenga::{inject, sample_rows, ErrorType};
use comet_ml::{Algorithm, RandomSearch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const ROWS: usize = 65_536;
const SMOKE_ROWS: usize = 4_096;
/// Features that carry missing values. The seed picks which ones and
/// which rows, never how many, so every seed gives the session the same
/// number of candidates to probe. Two, so that the candidates fan out over
/// the workers: a lone candidate's variants fan out instead, which the
/// replay does not reproduce.
const DIRTY_FEATURES: usize = 2;
/// Share of a dirty feature's cells that are missing.
const DIRTY_SHARE: f64 = 0.1;
const STEP_FRAC: f64 = 0.02;
const EVAL_SEED: u64 = 7;
const BUDGET: f64 = 1.0;

/// EEG has 14 numeric features at ~9 payload bytes per cell (8 value + 1
/// validity); the pool may keep a quarter of one frame resident.
fn spill_budget(rows: usize) -> u64 {
    rows as u64 * 14 * 9 / 4
}

/// Default hyperparameters: a random search would make the model, and so
/// the amount of work, depend on the seed.
fn search() -> RandomSearch {
    RandomSearch { n_samples: 0, ..RandomSearch::default() }
}

fn config() -> CometConfig {
    CometConfig { budget: BUDGET, n_combinations: 1, ..CometConfig::default() }
}

fn session_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x00C0_5E55)
}

/// The seed's clean EEG frame, and a copy with missing values planted.
/// Leaves `rng` where environment construction continues from.
fn generate(
    t: &mut Tracer,
    rows: usize,
    rng: &mut StdRng,
) -> Result<(DataFrame, DataFrame), String> {
    let clean = t.span("datasets.generate", |_| Dataset::Eeg.generate(Some(rows), &mut *rng));
    let dirty = t.span("jenga.prepollute", |_| {
        let mut dirty = clean.clone();
        let mut features = clean.feature_indices();
        for i in (1..features.len()).rev() {
            features.swap(i, rng.gen_range(0..=i));
        }
        for &col in features.iter().take(DIRTY_FEATURES) {
            let cells = sample_rows(rows, (DIRTY_SHARE * rows as f64) as usize, &mut *rng);
            inject(&mut dirty, col, &cells, ErrorType::MissingValues, &mut *rng)?;
        }
        Ok::<_, comet_frame::FrameError>(dirty)
    });
    Ok((dirty.map_err(|e| format!("pollution: {e}"))?, clean))
}

/// Run the workload.
pub fn run(plan: &Plan, obs: &mut Observations) -> Result<(), String> {
    let rows = if plan.smoke { SMOKE_ROWS } else { ROWS };
    let result = run_armed(plan, obs, rows, spill_budget(rows));
    comet_frame::spill_deconfigure();
    result
}

/// Every round arms the spill pool on a fresh directory, builds the
/// environment afresh and runs the session on it. Spill files are
/// content-addressed and an existing file is never rewritten, so a reused
/// directory would spare later rounds the writes the first one paid for.
fn run_armed(plan: &Plan, obs: &mut Observations, rows: usize, spill: u64) -> Result<(), String> {
    let config = config();
    let errors = [ErrorType::MissingValues];
    let mut latencies = Vec::new();
    let mut first_recs = Vec::new();
    let mut first: Option<CleaningTrace> = None;
    let mut tracer = Tracer::default();
    let mut counts = ReplayCounts::default();
    let mut iteration0_s = 0.0;
    // Spills and reloads during the sessions, and the bytes left on disk.
    let (mut spills, mut reloads, mut spilled_bytes) = (0u64, 0u64, 0u64);
    if plan.traced {
        comet_obs::reset();
    }
    let mut rounds = 0;
    for round in plan.rounds() {
        rounds += 1;
        comet_frame::spill_configure(plan.work_dir.join(format!("spill-{round}")), spill)
            .map_err(|e| format!("spill pool: {e}"))?;
        let mut env = start_round(obs, || {
            let mut rng = StdRng::seed_from_u64(plan.seed);
            let (dirty, clean) = generate(&mut Tracer::default(), rows, &mut rng)?;
            let env = build_paired_env(
                dirty,
                Some(clean),
                Algorithm::Svm,
                STEP_FRAC,
                search(),
                EVAL_SEED,
                comet_frame::DEFAULT_SEGMENT_ROWS,
                &mut rng,
            )
            .map_err(|e| format!("environment: {e}"))?;
            env.set_feature_cache_budget((spill / 4) as usize);
            Ok(env)
        })?;

        let pool_before = comet_frame::spill_stats().unwrap_or_default();
        comet_obs::set_enabled(plan.traced);
        let started = Instant::now();
        let outcome = CleaningSession::new(config, errors.to_vec())
            .run(&mut env, &mut session_rng(plan.seed));
        latencies.push(secs(started.elapsed()));
        comet_obs::set_enabled(false);
        obs.end_round();
        let pool = comet_frame::spill_stats().unwrap_or_default();
        spills += pool.spills - pool_before.spills;
        reloads += pool.reloads - pool_before.reloads;
        spilled_bytes = pool.spill_bytes;
        if pool.resident_bytes > spill {
            obs.problem(format!(
                "spill pool ended with {} resident bytes over its {spill} budget",
                pool.resident_bytes
            ));
        }
        obs.attempted += 1;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                obs.failed += 1;
                obs.problem(format!("session failed: {e}"));
                continue;
            }
        };
        first_recs.extend(outcome.trace.iteration_runtimes.first().map(|d| secs(*d)));
        match &first {
            None => {
                obs.traces.push(outcome.trace.to_csv(Some(env.train())));
                first = Some(outcome.trace.clone());
            }
            Some(reference) if !outcome.trace.content_eq(reference) => {
                obs.problem("the session decided differently in different rounds");
            }
            Some(_) => {}
        }
        // The replay follows the session directly, so both meet the same
        // conditions on a shared host.
        if plan.traced && round == REPLAY_ROUND {
            iteration0_s = outcome
                .metrics
                .as_ref()
                .and_then(|m| m.iterations.first())
                .map_or(0.0, |it| (it.phases.pollute + it.phases.estimate) as f64 / 1e9);
            drop(env);
            let spec = SessionSpec {
                config: &config,
                errors: &errors,
                rng: session_rng(plan.seed),
                eval_seed: EVAL_SEED,
                initial_f1: outcome.trace.initial_f1,
                predictions: replay::first_predictions(&outcome.trace),
                block_budget: Some((spill / 4) as usize),
            };
            if let Err(e) = replay_session(&mut tracer, plan.seed, rows, spec, &mut counts) {
                obs.problem(format!("replay: {e}"));
            }
        }
    }
    if spills == 0 {
        obs.problem("the sessions never spilled");
    }
    let Some(trace) = first else { return Ok(()) };
    if trace.total_spent() > BUDGET + 1e-9 {
        obs.problem(format!("session spent {} of budget {BUDGET}", trace.total_spent()));
    }
    if !trace.failures.is_empty() {
        obs.failed += 1;
        obs.problem(format!("{} candidate evaluations failed", trace.failures.len()));
    }
    obs.latency_s.extend(across_rounds(latencies));
    obs.first_rec_s.extend(across_rounds(first_recs));
    obs.wall_s = obs.latency_s.iter().sum();
    obs.f1_final.push(trace.final_f1);

    if plan.traced {
        let snapshot = comet_obs::snapshot();
        layers::from_registry(&snapshot, comet_par::max_threads(), rounds, &mut obs.layers);
        let per_round = rounds as f64;
        obs.layers.insert("frame.spill.spills", spills as f64 / per_round);
        obs.layers.insert("frame.spill.reloads", reloads as f64 / per_round);
        obs.layers.insert("frame.spill.mb", spilled_bytes as f64 / (1 << 20) as f64);
        layers::from_replay(&tracer, counts, iteration0_s, &mut obs.layers);
        obs.tracer = Some(tracer);
    }
    Ok(())
}

/// Regenerate the data and rebuild the environment under spans, then
/// replay the session's first iteration.
fn replay_session(
    t: &mut Tracer,
    seed: u64,
    rows: usize,
    spec: SessionSpec<'_>,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (dirty, clean) = generate(t, rows, &mut rng)?;
    let mut env = replay::paired_env(
        t,
        dirty,
        clean,
        Algorithm::Svm,
        STEP_FRAC,
        search(),
        EVAL_SEED,
        &mut rng,
    )?;
    if let Some(bytes) = spec.block_budget {
        env.set_feature_cache_budget(bytes);
    }
    replay::first_iteration(t, &mut env, spec, counts)
}
