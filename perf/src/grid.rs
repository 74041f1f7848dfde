//! The grid workloads: one COMET session per cell of a slice of the
//! paper's grid, in quick mode, each on its own pre-polluted environment.
//!
//! The environments are built the way `comet_bench::build_prepolluted_env`
//! builds them, with two inputs pinned so that the amount of work does not
//! depend on the seed, which varies the data and the polluted cells: every
//! applicable feature is polluted at the same level (the paper's mean
//! level) instead of an exponentially drawn one, and the model keeps its
//! default hyperparameters instead of the best of a random search.
//!
//! `grid_fast` uses learners whose evaluation costs milliseconds, so
//! kernels, featurization and fan-out dominate; `grid_slow` uses MLP and
//! GB, where model fit is nearly all the time. A change to one side
//! should read as "no change" on the other.

use crate::layers;
use crate::replay::{self, ReplayCounts, SessionSpec};
use crate::spans::Tracer;
use crate::workload::{across_rounds, secs, start_round, Observations, Plan, REPLAY_ROUND};
use comet_bench::{applicable, comet_config, ExperimentOpts};
use comet_core::{CleaningEnvironment, CleaningSession, CleaningTrace, CometConfig, CostPolicy};
use comet_datasets::Dataset;
use comet_frame::{train_test_split, SplitOptions};
use comet_jenga::{ErrorType, GroundTruth, PrePollutionPlan, Provenance, Scenario};
use comet_ml::{Algorithm, Metric, RandomSearch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A grid slice.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    /// Learners.
    pub algos: &'static [Algorithm],
    /// Error types, each on every dataset it applies to.
    pub errors: &'static [ErrorType],
    /// Cleaning budget per session.
    pub budget: f64,
}

/// {KNN, SVM, LIR} × {MV, GN, CS, S} × {EEG, Churn}: 21 cells (EEG has no
/// categorical feature, so no CS cell).
pub const FAST: Grid = Grid {
    algos: &[Algorithm::Knn, Algorithm::Svm, Algorithm::LinReg],
    errors: &[
        ErrorType::MissingValues,
        ErrorType::GaussianNoise,
        ErrorType::CategoricalShift,
        ErrorType::Scaling,
    ],
    budget: 6.0,
};

/// {MLP, GB} × {MV, S} × {EEG, Churn}, budget 1: 8 cells, each a first
/// iteration and one cleaning step.
pub const SLOW: Grid = Grid {
    algos: &[Algorithm::Mlp, Algorithm::Gb],
    errors: &[ErrorType::MissingValues, ErrorType::Scaling],
    budget: 1.0,
};

const DATASETS: [Dataset; 2] = [Dataset::Eeg, Dataset::Churn];
/// Share of each applicable feature's cells polluted before the session.
const POLLUTION_LEVEL: f64 = 0.15;

#[derive(Debug, Clone, Copy)]
struct Cell {
    dataset: Dataset,
    algo: Algorithm,
    err: ErrorType,
}

/// Cells with the learners innermost, so every prefix mixes the learners
/// evenly.
fn cells(grid: &Grid) -> Vec<Cell> {
    let mut out = Vec::new();
    for dataset in DATASETS {
        for &err in grid.errors.iter().filter(|&&e| applicable(dataset, e)) {
            for &algo in grid.algos {
                out.push(Cell { dataset, algo, err });
            }
        }
    }
    out
}

fn session_rng(opts: &ExperimentOpts, index: usize) -> StdRng {
    StdRng::seed_from_u64(opts.child_seed("perf-session", index as u64))
}

/// One timed session.
struct SessionRun {
    latency_s: f64,
    trace: CleaningTrace,
    csv: String,
}

/// Run one grid workload.
pub fn run(grid: &Grid, plan: &Plan, obs: &mut Observations) -> Result<(), String> {
    let mut cells = cells(grid);
    let mut opts = ExperimentOpts {
        seed: plan.seed,
        budget: grid.budget,
        search_samples: 0,
        ..ExperimentOpts::quick()
    };
    if plan.smoke {
        cells.truncate(grid.algos.len());
        opts.rows = Some(80);
        opts.budget = 1.0;
    }
    let config = comet_config(&opts, CostPolicy::constant());
    let mut tracer = Tracer::default();
    let mut counts = ReplayCounts::default();
    let mut iteration0_s = 0.0;
    let mut runs: Vec<Vec<SessionRun>> = cells.iter().map(|_| Vec::new()).collect();
    let mut rounds = 0;
    for round in plan.rounds() {
        rounds += 1;
        // Set-up: generate, pre-pollute and tune every cell's environment.
        let mut set: Vec<CleaningEnvironment> = start_round(obs, || {
            cells.iter().map(|c| build_env(&mut Tracer::default(), c, &opts, false)).collect()
        })?;
        if plan.traced {
            if round == 0 {
                comet_obs::reset();
            }
            comet_obs::set_enabled(true);
        }
        for (i, env) in set.iter_mut().enumerate() {
            let session = CleaningSession::new(config, vec![cells[i].err]);
            let started = Instant::now();
            let outcome = session.run(env, &mut session_rng(&opts, i));
            let latency_s = secs(started.elapsed());
            obs.attempted += 1;
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => {
                    obs.failed += 1;
                    obs.problem(format!("session {i} failed: {e}"));
                    continue;
                }
            };
            let first_iteration = outcome.metrics.as_ref().and_then(|m| m.iterations.first());
            // The replay follows its session directly, so both meet the
            // same conditions on a shared host.
            if plan.traced && round == REPLAY_ROUND {
                comet_obs::set_enabled(false);
                iteration0_s += first_iteration
                    .map_or(0.0, |it| (it.phases.pollute + it.phases.estimate) as f64 / 1e9);
                tracer.set_session(i as u32);
                let replayed = replay_cell(
                    &mut tracer,
                    &cells[i],
                    &opts,
                    &config,
                    i,
                    &outcome.trace,
                    &mut counts,
                );
                if let Err(e) = replayed {
                    obs.problem(format!("replay of session {i}: {e}"));
                }
                comet_obs::set_enabled(true);
            }
            runs[i].push(SessionRun {
                latency_s,
                csv: outcome.trace.to_csv(Some(env.train())),
                trace: outcome.trace,
            });
        }
        obs.end_round();
        if plan.traced {
            comet_obs::set_enabled(false);
        }
    }

    for (i, session_runs) in runs.iter().enumerate() {
        let Some(first) = session_runs.first() else { continue };
        check_session(obs, i, &first.trace, opts.budget);
        if session_runs.iter().any(|r| !r.trace.content_eq(&first.trace)) {
            obs.problem(format!("session {i} decided differently in different rounds"));
        }
        obs.latency_s.extend(across_rounds(session_runs.iter().map(|r| r.latency_s)));
        obs.first_rec_s.extend(across_rounds(
            session_runs
                .iter()
                .filter_map(|r| r.trace.iteration_runtimes.first().map(|d| secs(*d))),
        ));
        obs.f1_final.push(first.trace.final_f1);
        obs.traces.push(first.csv.clone());
    }
    obs.wall_s = obs.latency_s.iter().sum();

    if plan.traced {
        let snapshot = comet_obs::snapshot();
        layers::from_registry(&snapshot, comet_par::max_threads(), rounds, &mut obs.layers);
        layers::from_replay(&tracer, counts, iteration0_s, &mut obs.layers);
        obs.tracer = Some(tracer);
    }
    Ok(())
}

fn check_session(obs: &mut Observations, index: usize, trace: &CleaningTrace, budget: f64) {
    if trace.total_spent() > budget + 1e-9 {
        obs.problem(format!("session {index} spent {} of budget {budget}", trace.total_spent()));
    }
    if !trace.failures.is_empty() {
        obs.failed += 1;
        obs.problem(format!(
            "session {index}: {} candidate evaluations failed",
            trace.failures.len()
        ));
    }
}

/// Build a cell's environment: generate, split, pre-pollute both splits,
/// tune. With `probe_tune`, the search is also timed on its own
/// (`ml.tune`), for the replay's breakdown.
fn build_env(
    t: &mut Tracer,
    cell: &Cell,
    opts: &ExperimentOpts,
    probe_tune: bool,
) -> Result<CleaningEnvironment, String> {
    let err =
        |e: &dyn std::fmt::Display| format!("{}/{}/{:?}: {e}", cell.dataset, cell.algo, cell.err);
    let scenario = Scenario::SingleError(cell.err);
    let search = RandomSearch { n_samples: opts.search_samples, ..RandomSearch::default() };
    let mut rng = StdRng::seed_from_u64(cell_seed(cell, opts));
    t.span("core.setup", |t| {
        let rows = opts.rows.map(|r| r.min(cell.dataset.spec().rows));
        let df = t.span("datasets.generate", |_| cell.dataset.generate(rows, &mut rng));
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).map_err(|e| err(&e))?;
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let (mut train, mut test) = (tt.train, tt.test);
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        t.span("jenga.prepollute", |_| {
            let mut levels = Vec::new();
            for col in train.feature_indices() {
                if cell.err.applicable(train.column(col)?.kind()) {
                    levels.push((col, POLLUTION_LEVEL));
                }
            }
            let pollution = PrePollutionPlan::explicit(scenario, levels);
            pollution.apply(&mut train, 0.01, &mut prov_train, &mut rng)?;
            pollution.apply(&mut test, 0.01, &mut prov_test, &mut rng)
        })
        .map_err(|e| err(&e))?;
        if probe_tune {
            replay::tune_probe(t, &train, cell.algo, search, rng.clone())?;
        }
        t.span("core.env_build", |_| {
            CleaningEnvironment::new(
                train,
                test,
                gt_train,
                gt_test,
                prov_train,
                prov_test,
                cell.algo,
                Metric::F1,
                0.01,
                search,
                eval_seed(cell, opts),
                &mut rng,
            )
        })
        .map_err(|e| err(&e))
    })
}

fn cell_seed(cell: &Cell, opts: &ExperimentOpts) -> u64 {
    let tag = format!("{}-{}-{:?}", cell.dataset, cell.algo, cell.err);
    opts.child_seed(&tag, 0)
}

fn eval_seed(cell: &Cell, opts: &ExperimentOpts) -> u64 {
    cell_seed(cell, opts) ^ 0x5EED
}

/// Rebuild the cell's environment under spans, then replay the session's
/// first iteration.
fn replay_cell(
    t: &mut Tracer,
    cell: &Cell,
    opts: &ExperimentOpts,
    config: &CometConfig,
    index: usize,
    trace: &CleaningTrace,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let mut env = build_env(t, cell, opts, true)?;
    let errors = [cell.err];
    let spec = SessionSpec {
        config,
        errors: &errors,
        rng: session_rng(opts, index),
        eval_seed: eval_seed(cell, opts),
        initial_f1: trace.initial_f1,
        predictions: replay::first_predictions(trace),
        block_budget: None,
    };
    replay::first_iteration(t, &mut env, spec, counts)
}
