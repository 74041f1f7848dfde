//! The COMET outer loop: iterate Polluter → Estimator → Recommender →
//! (simulated) Cleaner until the budget is spent or the data is clean.
//!
//! [`CleaningSession::run`] is a short loop over private phase
//! functions that share one [`SessionState`]: candidate estimation,
//! ranking, cleaning (step by step, then fallback), and the iteration end
//! (spill health check, metrics, checkpoint, progress).
//! The baselines book their steps through the same [`SessionState`], and
//! COMET-Light cleans through [`CleaningSession::clean_ranked`].

use crate::budget::Budget;
use crate::checkpoint::{
    trace_fingerprint, CheckpointSpec, CheckpointWriter, CountingRng, IterationCheckpoint,
    SessionIdentity,
};
use crate::config::CometConfig;
use crate::control::{SessionControl, SessionProgress, StopReason};
use crate::env::{CleaningEnvironment, EnvError};
use crate::error::CometError;
use crate::estimator::{Estimate, Estimator};
use crate::faults::{FaultKind, FaultPlan};
use crate::metrics::{IterationMetrics, PhaseNanos, RunMetrics};
use crate::polluter::Polluter;
use crate::recommender::{Candidate, Recommender};
use crate::trace::{CleaningTrace, FailureRecord, StepAction, StepRecord};
use comet_jenga::ErrorType;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times a failed candidate evaluation (panic, NaN loss,
/// estimator error) or checkpoint write is retried before it counts as
/// failed.
pub(crate) const MAX_RETRIES: usize = 1;

/// Fault injection's `TrainingPanic` arm: a *real* panic, thrown on purpose
/// so tests prove `par_map_catch` contains worker unwinds.
#[allow(clippy::panic)]
fn injected_training_panic(iteration: usize, col: usize, err: ErrorType) -> ! {
    // comet-lint: allow(D4) — deliberate: fault injection must produce a real panic for par_map_catch to contain
    panic!("injected fault: training panic at iteration {iteration} candidate ({col}, {err:?})");
}

/// Derive the private rng seed of one candidate's what-if pollution from
/// the session seed and the candidate's identity (FxHash-style mixing).
/// Giving every `(col, err, iteration)` its own stream — instead of letting
/// candidates share the session rng — is what makes the parallel candidate
/// fan-out produce traces bit-identical to a sequential run.
fn candidate_seed(session_seed: u64, col: usize, err: ErrorType, iteration: usize) -> u64 {
    const M: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = session_seed;
    for w in [col as u64, err as u64, iteration as u64] {
        h = (h.rotate_left(5) ^ w).wrapping_mul(M);
    }
    h
}

/// The `comet_obs` duration histogram of each phase, in
/// [`crate::metrics::PHASES`] order.
const PHASE_HISTOGRAMS: [&str; 6] = [
    "session.phase.pollute",
    "session.phase.estimate",
    "session.phase.rank",
    "session.phase.clean_step",
    "session.phase.evaluate",
    "session.phase.fallback",
];

/// One iteration's phase accumulators. `AtomicU64`s so the same clock
/// serves the sequential phases and the pollute/estimate work inside the
/// parallel candidate fan-out (where workers add concurrently). Reads the
/// wall clock only when `on`; nothing ever branches on its values.
#[derive(Default)]
struct PhaseClock {
    on: bool,
    pollute: AtomicU64,
    estimate: AtomicU64,
    rank: AtomicU64,
    clean_step: AtomicU64,
    evaluate: AtomicU64,
    fallback: AtomicU64,
}

impl PhaseClock {
    /// Run `f`, adding its elapsed nanoseconds to `acc` when the clock is on.
    fn time<T>(&self, acc: &AtomicU64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        // comet-lint: allow(D3) — observability: metrics phase timing; never feeds a trace decision
        let started = Instant::now();
        let out = f();
        // comet-lint: allow(D9) — monotonic metrics accumulator; only read at report time, no ordering needed
        acc.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn phases(self) -> PhaseNanos {
        PhaseNanos {
            pollute: self.pollute.into_inner(),
            estimate: self.estimate.into_inner(),
            rank: self.rank.into_inner(),
            clean_step: self.clean_step.into_inner(),
            evaluate: self.evaluate.into_inner(),
            fallback: self.fallback.into_inner(),
        }
    }
}

/// What one iteration's metrics record is measured against: its phase
/// clock and the counters as the iteration began.
struct IterationStart {
    clock: PhaseClock,
    candidates: usize,
    records: usize,
    failures: usize,
}

/// How one candidate evaluation attempt ended: a usable estimate, or a
/// failure reason (panic message, estimator error, non-finite output).
fn classify(outcome: Result<Result<Estimate, EnvError>, String>) -> Result<Estimate, String> {
    match outcome {
        Ok(Ok(est)) => {
            if est.raw_predicted_f1.is_finite()
                && est.predicted_f1.is_finite()
                && est.uncertainty.is_finite()
            {
                Ok(est)
            } else {
                Err("non-finite estimate (NaN loss)".to_string())
            }
        }
        Ok(Err(e)) => Err(format!("estimator failure: {e}")),
        Err(panic) => Err(format!("panic: {panic}")),
    }
}

/// Everything the loop carries from one iteration to the next: the budget,
/// the steps taken per candidate, the accepted F1, the trace, the
/// Estimator and the Recommender. [`CleaningSession::run`] drives one; a
/// baseline strategy drives its own and books each step through it.
pub struct SessionState {
    /// The current outer-loop iteration.
    iteration: usize,
    budget: Budget,
    /// Cleaning steps taken per candidate (drives the cost models).
    steps_done: BTreeMap<(usize, ErrorType), usize>,
    /// F1 of the accepted data state.
    current_f1: f64,
    trace: CleaningTrace,
    estimator: Estimator,
    recommender: Recommender,
}

impl SessionState {
    /// Start a run on `env`: the full budget, no steps taken, and a trace
    /// opened with the environment's dirty and fully cleaned F1.
    pub fn new(config: &CometConfig, env: &CleaningEnvironment) -> Result<Self, CometError> {
        let initial_f1 = env.evaluate()?;
        Ok(SessionState {
            iteration: 0,
            budget: Budget::new(config.budget),
            steps_done: BTreeMap::new(),
            current_f1: initial_f1,
            trace: CleaningTrace {
                initial_f1,
                fully_clean_f1: Some(env.fully_cleaned_f1()?),
                ..CleaningTrace::default()
            },
            estimator: Estimator::new(config.blr_degree, config.interval, config.bias_correction),
            recommender: Recommender::new(config.use_uncertainty),
        })
    }

    /// Stamp the records that follow with `iteration`.
    pub fn set_iteration(&mut self, iteration: usize) {
        self.iteration = iteration;
    }

    /// The cleaning budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// F1 of the accepted data state.
    pub fn current_f1(&self) -> f64 {
        self.current_f1
    }

    /// Make `f1` the accepted data state's F1.
    pub fn accept(&mut self, f1: f64) {
        self.current_f1 = f1;
    }

    /// Cost of the next cleaning step on `pair` under `config`'s policy.
    pub fn next_cost(&self, config: &CometConfig, pair: (usize, ErrorType)) -> f64 {
        config.costs.next_cost(pair.1, self.steps_done.get(&pair).copied().unwrap_or(0))
    }

    /// Pay for one cleaning step on `pair`.
    pub fn charge(&mut self, cost: f64, pair: (usize, ErrorType)) {
        self.budget.try_spend(cost);
        *self.steps_done.entry(pair).or_default() += 1;
    }

    /// Append a step record, stamped with this iteration and the budget
    /// spent so far. `estimate` is the ranked prediction behind the step
    /// (none for fallback steps).
    pub fn record(
        &mut self,
        (col, err): (usize, ErrorType),
        action: StepAction,
        cost: f64,
        estimate: Option<&Estimate>,
        actual_f1: f64,
        cleaned_cells: usize,
    ) {
        self.trace.records.push(StepRecord {
            iteration: self.iteration,
            col,
            err,
            action,
            cost,
            budget_spent: self.budget.spent(),
            predicted_f1: estimate.map(|e| e.predicted_f1),
            raw_predicted_f1: estimate.map(|e| e.raw_predicted_f1),
            actual_f1,
            cleaned_cells,
        });
    }

    /// Add the current `(budget spent, F1)` point to the F1 curve.
    pub fn mark_curve(&mut self) {
        self.trace.f1_curve.push((self.budget.spent(), self.current_f1));
    }

    /// Record how long one recommendation took (RQ6).
    pub fn push_runtime(&mut self, elapsed: Duration) {
        self.trace.iteration_runtimes.push(elapsed);
    }

    /// Close the trace at the accepted state's F1.
    pub fn finish(mut self) -> CleaningTrace {
        self.trace.final_f1 = self.current_f1;
        self.trace
    }

    /// Is `f1` no worse than the accepted state's F1?
    fn improves(&self, f1: f64) -> bool {
        f1 >= self.current_f1 - 1e-12
    }
}

/// A configured COMET run over a fixed set of candidate error types
/// (single-error scenario: one type; multi-error: all four).
#[derive(Debug, Clone)]
pub struct CleaningSession {
    config: CometConfig,
    errors: Vec<ErrorType>,
    faults: Option<Arc<FaultPlan>>,
    checkpoint: Option<CheckpointSpec>,
    control: Option<SessionControl>,
}

/// The result of a session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The full step-by-step trace.
    pub trace: CleaningTrace,
    /// Per-iteration phase timings and counters, collected only while
    /// `comet_obs` recording is enabled; `None` on bare runs.
    pub metrics: Option<RunMetrics>,
    /// Why the session stopped early, if a supervisor requested it through
    /// a [`SessionControl`]; `None` for a natural finish (budget spent,
    /// data clean, or no affordable action). An early-stopped session
    /// still carries its full partial trace — graceful degradation, not
    /// an error.
    pub stop: Option<StopReason>,
}

impl CleaningSession {
    /// Build a session. Panics on an invalid config or empty error set.
    pub fn new(config: CometConfig, errors: Vec<ErrorType>) -> Self {
        #[allow(clippy::expect_used)]
        // comet-lint: allow(D4) — documented constructor contract: invalid config is a caller bug, not a runtime failure
        config.validate().expect("valid config");
        assert!(!errors.is_empty(), "need at least one candidate error type");
        CleaningSession { config, errors, faults: None, checkpoint: None, control: None }
    }

    /// Inject a deterministic [`FaultPlan`] into candidate evaluations
    /// (testing and chaos drills; production sessions carry none).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Persist (and optionally resume from) a checkpoint file.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Attach a cooperative [`SessionControl`]: a supervisor can cancel the
    /// run or expire its deadline at any iteration boundary, and read
    /// best-so-far progress while the session is still running.
    pub fn with_control(mut self, control: SessionControl) -> Self {
        self.control = Some(control);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &CometConfig {
        &self.config
    }

    /// Run COMET against the environment until the budget is exhausted, the
    /// data is fully clean, or no affordable action remains.
    ///
    /// Candidate evaluations are failure-isolated: a panicking, erroring,
    /// or NaN-producing candidate is retried up to `MAX_RETRIES` times
    /// and then recorded in `trace.failures` and skipped — one bad
    /// candidate never kills the session.
    pub fn run<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        rng: &mut R,
    ) -> Result<SessionOutcome, CometError> {
        // Pin the process-global kernel tier to this session's config
        // before the first evaluation: every reduction in the run (and in
        // the worker threads it fans out to) must use one fixed lane
        // order. The f32-probe flag is per-environment.
        comet_ml::kernels::set_tier(self.config.kernels);
        env.set_f32_probes(self.config.f32_probes);
        // Detection-seeded mode: candidate pairs come from the detector
        // ensemble from here on, never from the provenance oracle.
        if let Some(detect) = self.config.detect {
            env.enable_detection(detect);
        }
        // Count sequential rng draws so checkpoints can verify a resumed
        // replay consumes randomness identically.
        let rng = &mut CountingRng::new(rng);
        // All candidate randomness derives from this one draw (see
        // [`candidate_seed`]); the caller's rng is then only consumed by the
        // strictly sequential cleaning steps. Drawn before the first model
        // evaluation so a resume can verify seed identity up front.
        let session_seed = rng.next_u64();
        let mut writer = match &self.checkpoint {
            Some(spec) => {
                let identity = SessionIdentity::new(session_seed, &self.errors, &self.config, env);
                Some(CheckpointWriter::open(spec, &identity, self.faults.clone())?)
            }
            None => None,
        };
        let mut state = SessionState::new(&self.config, env)?;
        // Metrics are collected only while `comet_obs` recording is on;
        // nothing may branch on collected values, so instrumented runs stay
        // bit-identical to bare ones.
        let metrics_on = comet_obs::enabled();
        let mut metrics = metrics_on.then(RunMetrics::default);
        // The initial publish makes the dirty baseline visible to status
        // polls before the first iteration lands.
        self.publish(&state, 0);

        let mut stop = None;
        for iteration in 0..10_000usize {
            state.iteration = iteration;
            // Cooperative stop: a cancel or an expired deadline raised by
            // the supervisor takes effect here, between iterations. All
            // completed iterations are already checkpointed, so stopping
            // loses nothing — the partial trace is a normal outcome.
            if let Some(reason) = self.control.as_ref().and_then(SessionControl::stop_requested) {
                comet_obs::counter_add("session.stopped_early", 1);
                stop = Some(reason);
                break;
            }
            // An exhausted budget still admits zero-cost productive
            // actions: buffered re-applications and free follow-up steps
            // under `OneShot { rest: 0.0 }` cost models. Breaking outright
            // here starved those (the free-step starvation bug).
            if state.budget.exhausted() && !self.free_action_available(env, &state) {
                break;
            }
            let pairs = env.candidate_pairs(&self.errors);
            if pairs.is_empty() {
                break;
            }
            let start = IterationStart {
                clock: PhaseClock { on: metrics_on, ..PhaseClock::default() },
                candidates: pairs.len(),
                records: state.trace.records.len(),
                failures: state.trace.failures.len(),
            };
            // The recommendation itself is the RQ6-timed part.
            // comet-lint: allow(D3) — observability: iteration runtime for reports; never feeds a trace decision
            let started = Instant::now();
            let estimates = self.estimate(env, &mut state, &pairs, session_seed, &start.clock);
            let ranked = self.rank(&state, estimates, &start.clock);
            state.push_runtime(started.elapsed());
            let progressed = self.clean(env, rng, &mut state, &ranked, &start.clock)?;
            let draws = rng.draws();
            self.end_iteration(&state, start, draws, writer.as_mut(), metrics.as_mut())?;
            if !progressed {
                break;
            }
        }

        let budget_spent = state.budget.spent();
        let trace = state.finish();
        let metrics = metrics.map(|mut rm| {
            rm.initial_f1 = trace.initial_f1;
            rm.final_f1 = trace.final_f1;
            rm.budget_spent = budget_spent;
            rm.registry = comet_obs::snapshot();
            rm
        });
        Ok(SessionOutcome { trace, metrics, stop })
    }

    /// Pollute and estimate every dirty candidate. Candidates are
    /// independent given their derived seeds, so the pipeline fans out
    /// across worker threads; `par_map_catch` returns results in `pairs`
    /// order and catches each candidate's panic into an `Err` slot, making
    /// the ranking input — and hence the whole trace — independent of the
    /// thread count. Failed candidates are retried, then recorded in the
    /// trace's failures and skipped.
    fn estimate(
        &self,
        env: &CleaningEnvironment,
        state: &mut SessionState,
        pairs: &[(usize, ErrorType)],
        session_seed: u64,
        clock: &PhaseClock,
    ) -> Vec<Estimate> {
        let (iteration, current_f1) = (state.iteration, state.current_f1);
        let (polluter, estimator) = (Polluter::from_config(&self.config), &state.estimator);
        let faults = self.faults.as_deref();
        let eval_candidate = |(col, err): (usize, ErrorType)| -> Result<Estimate, EnvError> {
            let fault = faults.and_then(|p| p.arm(iteration, col, err));
            if fault == Some(FaultKind::EstimatorFailure) {
                return Err(EnvError::Invalid(format!(
                    "injected fault: estimator failure at candidate ({col}, {err:?})"
                )));
            }
            if fault == Some(FaultKind::TrainingPanic) {
                injected_training_panic(iteration, col, err);
            }
            let mut cand_rng =
                StdRng::seed_from_u64(candidate_seed(session_seed, col, err, iteration));
            // Workers add into shared accumulators, so these two phases
            // measure aggregate worker time (they can exceed the
            // iteration's wall clock).
            let variants =
                clock.time(&clock.pollute, || polluter.variants(env, col, err, &mut cand_rng))?;
            let mut est = clock.time(&clock.estimate, || {
                estimator.estimate(env, col, err, current_f1, &variants)
            })?;
            if fault == Some(FaultKind::NanLoss) {
                est.raw_predicted_f1 = f64::NAN;
                est.predicted_f1 = f64::NAN;
            }
            Ok(est)
        };
        let attempts = comet_par::par_map_catch(pairs.to_vec(), eval_candidate);
        let mut estimates = Vec::with_capacity(pairs.len());
        for (outcome, &(col, err)) in attempts.into_iter().zip(pairs) {
            let mut result = classify(outcome);
            let mut retries = 0u32;
            // Failed candidates retry sequentially, in input order,
            // re-deriving the same candidate seed — retries stay
            // deterministic and thread-count independent.
            while result.is_err() && (retries as usize) < MAX_RETRIES {
                retries += 1;
                comet_obs::counter_add("fault.retries", 1);
                #[allow(clippy::expect_used)]
                let attempt = comet_par::par_map_catch(vec![(col, err)], eval_candidate)
                    .pop()
                    // comet-lint: allow(D4) — par_map_catch's one-in/one-out contract is proptested in comet-par
                    .expect("one item in, one result out");
                result = classify(attempt);
                if result.is_ok() {
                    comet_obs::counter_add("fault.recovered", 1);
                }
            }
            match result {
                Ok(est) => estimates.push(est),
                Err(reason) => {
                    comet_obs::counter_add("fault.candidate_failures", 1);
                    state.trace.failures.push(FailureRecord {
                        iteration,
                        col,
                        err,
                        reason,
                        retries,
                    });
                }
            }
        }
        estimates
    }

    /// Price each surviving estimate's next step and rank them (Eq. 4).
    /// Costs pair with `estimates` by index, so they are built from the
    /// survivors, not from the candidate pairs (failed ones are absent).
    fn rank(
        &self,
        state: &SessionState,
        estimates: Vec<Estimate>,
        clock: &PhaseClock,
    ) -> Vec<Candidate> {
        let costs: Vec<f64> =
            estimates.iter().map(|e| state.next_cost(&self.config, (e.col, e.err))).collect();
        clock.time(&clock.rank, || state.recommender.rank(estimates, &costs))
    }

    /// The clean phase over a ranking the caller made, with the phase
    /// clock off: the candidates one by one, then the fallback. Returns
    /// whether a step stuck. COMET-Light hands its frozen ranking to this
    /// each iteration.
    pub fn clean_ranked<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        rng: &mut R,
        state: &mut SessionState,
        ranked: &[Candidate],
    ) -> Result<bool, CometError> {
        self.clean(env, rng, state, ranked, &PhaseClock::default())
    }

    /// Execute recommendations until one sticks: the ranked candidates
    /// one by one, then the fallback. Returns whether the iteration made
    /// progress.
    fn clean<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        rng: &mut R,
        state: &mut SessionState,
        ranked: &[Candidate],
        clock: &PhaseClock,
    ) -> Result<bool, CometError> {
        if self.clean_step_by_step(env, rng, state, ranked, clock)? {
            return Ok(true);
        }
        if !self.config.fallback {
            return Ok(false);
        }
        // Timed as one block (its cleaning and evaluation included), so
        // the inner calls are not double-counted into clean_step/evaluate.
        clock.time(&clock.fallback, || self.fallback(env, rng, state))
    }

    /// Clean the ranked candidates one by one until a step sticks (§3.3).
    /// A buffered cleaned state re-applies for free; otherwise an
    /// affordable step is cleaned, evaluated, and kept — or reverted with
    /// the paid work kept in the cleaning buffer.
    fn clean_step_by_step<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        rng: &mut R,
        state: &mut SessionState,
        ranked: &[Candidate],
        clock: &PhaseClock,
    ) -> Result<bool, CometError> {
        for cand in ranked {
            let est = &cand.estimate;
            let pair = (est.col, est.err);
            // (`buffer_take` is its own existence check — no unwrap.)
            if let Some(buffered) = state.recommender.buffer_take(est.col, est.err) {
                let pre = env.snapshot(est.col)?;
                env.restore(&buffered)?;
                let f1 = clock.time(&clock.evaluate, || env.evaluate())?;
                if state.improves(f1) {
                    state.accept(f1);
                    state.recommender.record_post_clean_f1(est.col, est.err, f1);
                    state.record(pair, StepAction::BufferApplied, 0.0, Some(est), f1, 0);
                    state.mark_curve();
                    return Ok(true);
                }
                env.restore(&pre)?;
                state.recommender.buffer_store(est.col, est.err, buffered);
                continue;
            }
            if !state.budget.can_afford(cand.cost) {
                continue;
            }
            let pre = env.snapshot(est.col)?;
            let (ctr, cte) = clock.time(&clock.clean_step, || {
                env.clean_step(est.col, est.err, &est.flagged_train, &est.flagged_test, rng)
            })?;
            if ctr + cte == 0 {
                continue;
            }
            state.charge(cand.cost, pair);
            let f1 = clock.time(&clock.evaluate, || env.evaluate())?;
            state.estimator.record_outcome(est.col, est.err, est.raw_predicted_f1, f1);
            state.recommender.record_post_clean_f1(est.col, est.err, f1);
            let keep = state.improves(f1) || !self.config.revert_on_decrease;
            if keep {
                state.accept(f1);
            } else {
                let cleaned_state = env.snapshot(est.col)?;
                env.restore(&pre)?;
                state.recommender.buffer_store(est.col, est.err, cleaned_state);
            }
            let action = if keep { StepAction::Accepted } else { StepAction::Reverted };
            state.record(pair, action, cand.cost, Some(est), f1, ctr + cte);
            state.mark_curve();
            if keep {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Fallback (§3.3, step E): when no ranked candidate stuck, commit to
    /// the dirty candidate with the historically best post-cleaning F1 and
    /// *keep* the result even if F1 temporarily dips — the paper's own
    /// Figure 7 shows COMET's trajectory fluctuating exactly this way. This
    /// also guarantees progress: every fallback step reduces dirt.
    fn fallback<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        rng: &mut R,
        state: &mut SessionState,
    ) -> Result<bool, CometError> {
        let dirty_now = env.candidate_pairs(&self.errors);
        let Some((col, err)) = state.recommender.fallback(&dirty_now) else {
            return Ok(false);
        };
        let (cost, cells) = match state.recommender.buffer_take(col, err) {
            Some(buffered) => {
                env.restore(&buffered)?;
                (0.0, 0)
            }
            None => {
                let cost = state.next_cost(&self.config, (col, err));
                if !state.budget.can_afford(cost) {
                    return Ok(false);
                }
                let (ctr, cte) = env.clean_step(col, err, &[], &[], rng)?;
                if ctr + cte == 0 {
                    return Ok(false);
                }
                state.charge(cost, (col, err));
                (cost, ctr + cte)
            }
        };
        let f1 = env.evaluate()?;
        state.accept(f1);
        state.recommender.record_post_clean_f1(col, err, f1);
        state.record((col, err), StepAction::Fallback, cost, None, f1, cells);
        state.mark_curve();
        Ok(true)
    }

    /// Close an iteration: surface a spill-tier failure, record metrics,
    /// verify and checkpoint the iteration, and publish progress.
    fn end_iteration(
        &self,
        state: &SessionState,
        start: IterationStart,
        rng_draws: u64,
        checkpoint: Option<&mut CheckpointWriter>,
        run_metrics: Option<&mut RunMetrics>,
    ) -> Result<(), CometError> {
        let iteration = state.iteration;
        // A failed segment write or reload mid-iteration degraded the
        // affected cells to missing (libraries never panic on I/O), which
        // would silently corrupt every later decision. Surface the sticky
        // error and fail the session loudly instead.
        if comet_frame::spill_is_configured() {
            if let Some(cause) = comet_frame::spill_take_error() {
                return Err(CometError::Invalid(format!(
                    "segment spill tier failed during iteration {iteration}: {cause}"
                )));
            }
            comet_frame::spill_publish_resident_gauge();
        }
        if let Some(rm) = run_metrics {
            let phases = start.clock.phases();
            comet_obs::counter_add("session.iterations", 1);
            for ((_, nanos), name) in phases.named().into_iter().zip(PHASE_HISTOGRAMS) {
                comet_obs::observe_duration(name, Duration::from_nanos(nanos));
            }
            let it = IterationMetrics {
                iteration,
                candidates: start.candidates,
                records: state.trace.records.len() - start.records,
                budget_spent: state.budget.spent(),
                f1: state.current_f1,
                failures: state.trace.failures.len() - start.failures,
                phases,
            };
            if comet_obs::journal::has_sink() {
                comet_obs::journal::emit(&it.to_json_line());
            }
            rm.iterations.push(it);
        }
        if let Some(writer) = checkpoint {
            let record = IterationCheckpoint {
                iteration,
                budget_spent: state.budget.spent(),
                rng_draws,
                records: state.trace.records.len(),
                trace_fp: trace_fingerprint(&state.trace),
            };
            writer.commit(&record)?;
        }
        self.publish(state, iteration + 1);
        Ok(())
    }

    /// Publish best-so-far progress for status polls and result streams.
    /// Reading `control` never feeds back into the trace.
    fn publish(&self, state: &SessionState, iterations: usize) {
        if let Some(control) = &self.control {
            control.publish(SessionProgress {
                iterations,
                initial_f1: state.trace.initial_f1,
                best_f1: state.current_f1,
                budget_spent: state.budget.spent(),
                steps: state.trace.records.clone(),
            });
        }
    }

    /// True while an exhausted budget still leaves a zero-cost productive
    /// action on the table: a buffered cleaned state waiting to re-apply,
    /// or a dirty pair whose next step is free under the cost policy
    /// (`OneShot { rest: 0.0 }` follow-ups in `CostPolicy::paper_multi`).
    fn free_action_available(&self, env: &CleaningEnvironment, state: &SessionState) -> bool {
        state.recommender.buffer_len() > 0
            || env
                .candidate_pairs(&self.errors)
                .into_iter()
                .any(|pair| state.next_cost(&self.config, pair) == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_frame::{train_test_split, SplitOptions};
    use comet_jenga::{GroundTruth, PrePollutionPlan, Provenance, Scenario};
    use comet_ml::{Algorithm, Metric, RandomSearch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_env(
        seed: u64,
        rows: usize,
        levels: Vec<(usize, f64)>,
        algorithm: Algorithm,
    ) -> CleaningEnvironment {
        let mut rng = StdRng::seed_from_u64(seed);
        let df = comet_datasets::Dataset::Eeg.generate(Some(rows), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        let plan =
            PrePollutionPlan::explicit(Scenario::SingleError(ErrorType::MissingValues), levels);
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
            11,
            &mut rng,
        )
        .unwrap()
    }

    fn quick_config(budget: f64) -> CometConfig {
        CometConfig { budget, n_combinations: 1, ..CometConfig::default() }
    }

    #[test]
    fn session_runs_and_respects_budget() {
        let mut env = build_env(1, 240, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(6.0), vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(0);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        let trace = &outcome.trace;
        assert!(trace.total_spent() <= 6.0 + 1e-9);
        assert!(!trace.records.is_empty());
        // Budget spent is non-decreasing across records.
        let mut prev = 0.0;
        for r in &trace.records {
            assert!(r.budget_spent >= prev - 1e-12);
            prev = r.budget_spent;
        }
        assert!((0.0..=1.0).contains(&trace.final_f1));
        assert!(!trace.iteration_runtimes.is_empty());
    }

    #[test]
    fn ample_budget_fully_cleans() {
        let mut env = build_env(2, 200, vec![(0, 0.25)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(1_000.0), vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(1);
        session.run(&mut env, &mut rng).unwrap();
        // With an effectively unlimited budget the fallback keeps cleaning
        // until no candidate pair remains (the dataset is marked clean).
        assert!(env.candidate_pairs(&[ErrorType::MissingValues]).is_empty());
        assert!(env.is_fully_clean().unwrap());
    }

    #[test]
    fn cleaning_improves_f1_on_average() {
        // Across a few seeds, COMET cleaning should help on heavily polluted
        // data. Individual runs may dip slightly (Figure 7 in the paper shows
        // exactly such fluctuations); the mean must improve.
        let mut total = 0.0;
        let mut worst = f64::INFINITY;
        for seed in 0..3 {
            // Pollute every feature: cleaning must then matter regardless of
            // which features carry the planted signal.
            let levels: Vec<(usize, f64)> = (0..14).map(|c| (c, 0.35)).collect();
            let mut env = build_env(seed, 300, levels, Algorithm::Knn);
            let session = CleaningSession::new(quick_config(30.0), vec![ErrorType::MissingValues]);
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = session.run(&mut env, &mut rng).unwrap();
            let delta = outcome.trace.final_f1 - outcome.trace.initial_f1;
            total += delta;
            worst = worst.min(delta);
        }
        assert!(total > 0.0, "mean improvement {total}");
        assert!(worst > -0.05, "worst-case regression {worst} too large");
    }

    #[test]
    fn trace_actions_are_consistent() {
        let mut env = build_env(3, 240, vec![(0, 0.3), (5, 0.3)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(15.0), vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        for r in &outcome.trace.records {
            match r.action {
                StepAction::Accepted => {
                    assert!(r.predicted_f1.is_some());
                    assert!(r.cleaned_cells > 0);
                }
                StepAction::Reverted => {
                    assert!(r.cleaned_cells > 0);
                }
                StepAction::BufferApplied => {
                    assert_eq!(r.cost, 0.0);
                }
                StepAction::Fallback => {}
            }
        }
        // The curve is keyed by non-decreasing budget.
        let mut prev = 0.0;
        for &(b, f1) in &outcome.trace.f1_curve {
            assert!(b >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&f1));
            prev = b;
        }
    }

    #[test]
    fn ablations_run() {
        for (unc, bias, revert, fallback) in
            [(false, true, true, true), (true, false, true, true), (true, true, false, false)]
        {
            let mut env = build_env(4, 200, vec![(0, 0.3)], Algorithm::Knn);
            let config = CometConfig {
                use_uncertainty: unc,
                bias_correction: bias,
                revert_on_decrease: revert,
                fallback,
                ..quick_config(8.0)
            };
            let session = CleaningSession::new(config, vec![ErrorType::MissingValues]);
            let mut rng = StdRng::seed_from_u64(3);
            let outcome = session.run(&mut env, &mut rng).unwrap();
            assert!(outcome.trace.total_spent() <= 8.0 + 1e-9);
            if !revert {
                assert_eq!(outcome.trace.count_action(StepAction::Reverted), 0);
            }
        }
    }

    #[test]
    fn multi_error_scenario_runs_with_paper_costs() {
        let mut rng = StdRng::seed_from_u64(7);
        let df = comet_datasets::Dataset::Cmc.generate(Some(240), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        let plan =
            PrePollutionPlan::sample(&train, Scenario::MultiError, 0.15, 0.4, &mut rng).unwrap();
        plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
        plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
        let mut env = CleaningEnvironment::new(
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
            5,
            &mut rng,
        )
        .unwrap();
        let config = CometConfig {
            costs: crate::cost::CostPolicy::paper_multi(),
            budget: 10.0,
            n_combinations: 1,
            ..CometConfig::default()
        };
        let session = CleaningSession::new(config, ErrorType::ALL.to_vec());
        let outcome = session.run(&mut env, &mut rng).unwrap();
        assert!(outcome.trace.total_spent() <= 10.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one candidate error type")]
    fn empty_error_set_rejected() {
        CleaningSession::new(CometConfig::default(), vec![]);
    }

    /// The accounting invariant: the budget actually spent must equal the
    /// summed cost of the records that cleaned at least one cell.
    fn assert_budget_matches_cleaning_records(trace: &CleaningTrace) {
        let cleaned_cost: f64 =
            trace.records.iter().filter(|r| r.cleaned_cells > 0).map(|r| r.cost).sum();
        assert!(
            (trace.total_spent() - cleaned_cost).abs() < 1e-9,
            "spent {} != {} = sum of costs over cleaning records",
            trace.total_spent(),
            cleaned_cost,
        );
        for r in &trace.records {
            if r.cleaned_cells == 0 {
                assert_eq!(r.cost, 0.0, "zero-cell record must not carry a cost: {r:?}");
            }
        }
    }

    #[test]
    fn cleaning_a_clean_pair_reports_zero_cells() {
        // Unit-level proof of the step path's zero-cell rule: cleaning an
        // already-clean pair does no work, so it must report zero cells
        // (and hence never be charged by the session).
        let mut env = build_env(4, 200, vec![(0, 0.3)], Algorithm::Knn);
        let mut rng = StdRng::seed_from_u64(0);
        let mut guard = 0;
        while env.pair_dirty(0, ErrorType::MissingValues) {
            env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
            guard += 1;
            assert!(guard < 500, "cleaning must terminate");
        }
        let (ctr, cte) = env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
        assert_eq!((ctr, cte), (0, 0));
    }

    #[test]
    fn multi_error_shared_column_keeps_budget_invariant() {
        // The same column dirty under two error types: both pairs snapshot,
        // revert and buffer the one column, and the accounting invariant
        // must survive it, under the paper's multi-error cost policy.
        let mut rng = StdRng::seed_from_u64(19);
        let df = comet_datasets::Dataset::Eeg.generate(Some(300), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        for (scenario, levels) in [
            (Scenario::SingleError(ErrorType::MissingValues), vec![(0, 0.3), (1, 0.25)]),
            (Scenario::SingleError(ErrorType::GaussianNoise), vec![(0, 0.25), (2, 0.2)]),
        ] {
            let plan = PrePollutionPlan::explicit(scenario, levels);
            plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
            plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
        }
        let mut env = CleaningEnvironment::new(
            train,
            test,
            gt_train,
            gt_test,
            prov_train,
            prov_test,
            Algorithm::Knn,
            Metric::F1,
            0.05,
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            5,
            &mut rng,
        )
        .unwrap();
        // Column 0 must really carry both error types.
        assert!(env.pair_dirty(0, ErrorType::MissingValues));
        assert!(env.pair_dirty(0, ErrorType::GaussianNoise));
        let config =
            CometConfig { costs: crate::cost::CostPolicy::paper_multi(), ..quick_config(10.0) };
        let session = CleaningSession::new(config, ErrorType::ALL.to_vec());
        let outcome = session.run(&mut env, &mut rng).unwrap();
        assert!(outcome.trace.total_spent() <= 10.0 + 1e-9);
        assert!(!outcome.trace.records.is_empty());
        assert_budget_matches_cleaning_records(&outcome.trace);
    }

    #[test]
    fn free_steps_continue_after_budget_exhaustion() {
        // paper-multi missing values cost 2 for the first step and 0 after:
        // with a budget of exactly 2, the first step exhausts the budget but
        // every follow-up is free, so the session must keep cleaning until
        // the column is spotless instead of stopping after one step.
        let mut env = build_env(2, 200, vec![(0, 0.25)], Algorithm::Knn);
        let config = CometConfig {
            costs: crate::cost::CostPolicy::new(
                crate::cost::CostModel::OneShot { first: 2.0, rest: 0.0 },
                crate::cost::CostModel::Linear { initial: 1.0, increment: 1.0 },
                crate::cost::CostModel::Constant(1.0),
                crate::cost::CostModel::Constant(1.0),
            ),
            ..quick_config(2.0)
        };
        let session = CleaningSession::new(config, vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        let trace = &outcome.trace;
        assert!(trace.total_spent() <= 2.0 + 1e-9);
        let free_after_exhaustion =
            trace.records.iter().filter(|r| r.cost == 0.0 && r.budget_spent >= 2.0 - 1e-9).count();
        assert!(
            free_after_exhaustion > 0,
            "free follow-up steps must run after the budget is spent: {:?}",
            trace.records,
        );
        assert!(env.is_fully_clean().unwrap(), "free steps should finish the column");
        assert_budget_matches_cleaning_records(trace);
    }

    #[test]
    fn parallel_trace_bit_identical_to_sequential() {
        // The determinism contract of the parallel engine: one thread and
        // four threads must produce content-identical traces from the same
        // seed. Candidate rng streams derive from the session seed, and
        // par_map returns results in input order, so nothing the session
        // records may depend on scheduling.
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(10.0), vec![ErrorType::MissingValues]);
        let run_with = |threads: usize| {
            let mut env = env0.clone();
            let mut rng = StdRng::seed_from_u64(77);
            comet_par::with_threads(threads, || session.run(&mut env, &mut rng).unwrap())
        };
        let sequential = run_with(1);
        let parallel = run_with(4);
        assert!(
            sequential.trace.content_eq(&parallel.trace),
            "threads must not change the trace:\nseq: {:?}\npar: {:?}",
            sequential.trace.records,
            parallel.trace.records,
        );
        assert!(!sequential.trace.records.is_empty(), "trivial traces prove nothing");
    }

    /// The `comet_obs` enable flag is process-global; tests that flip it
    /// serialize here so concurrent test threads cannot observe each
    /// other's windows.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn metrics_enabled_does_not_change_the_trace() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues]);
        let run = |env0: &CleaningEnvironment| {
            let mut env = env0.clone();
            let mut rng = StdRng::seed_from_u64(77);
            session.run(&mut env, &mut rng).unwrap()
        };

        comet_obs::set_enabled(false);
        let bare = run(&env0);
        assert!(bare.metrics.is_none(), "bare runs collect nothing");

        comet_obs::set_enabled(true);
        comet_obs::reset();
        let instrumented = run(&env0);
        comet_obs::set_enabled(false);

        assert!(
            bare.trace.content_eq(&instrumented.trace),
            "metrics may only observe, never change the trace",
        );
        let metrics = instrumented.metrics.expect("instrumented runs collect metrics");
        assert_eq!(metrics.iterations.len(), instrumented.trace.iteration_runtimes.len());
        assert!(metrics.phase_totals().total() > 0, "phases must register time");
        assert!(metrics.registry.counter("session.iterations") > 0);
        assert!(metrics.registry.counter("estimator.variant_evals") > 0, "evaluations observed");
        assert_eq!(metrics.initial_f1, instrumented.trace.initial_f1);
        assert_eq!(metrics.final_f1, instrumented.trace.final_f1);
    }

    #[test]
    fn parallel_trace_bit_identical_with_metrics_enabled() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        comet_obs::set_enabled(true);
        comet_obs::reset();
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(10.0), vec![ErrorType::MissingValues]);
        let run_with = |threads: usize| {
            let mut env = env0.clone();
            let mut rng = StdRng::seed_from_u64(77);
            comet_par::with_threads(threads, || session.run(&mut env, &mut rng).unwrap())
        };
        let sequential = run_with(1);
        let parallel = run_with(4);
        comet_obs::set_enabled(false);
        assert!(
            sequential.trace.content_eq(&parallel.trace),
            "metrics-enabled runs must stay thread-count independent",
        );
        assert!(!sequential.trace.records.is_empty(), "trivial traces prove nothing");
        assert!(sequential.metrics.is_some() && parallel.metrics.is_some());
    }

    use crate::faults::{FaultKind, FaultSpec};

    /// Three permanent faults (panic, NaN loss, estimator error) plus one
    /// transient panic that recovers on retry — the fault-injection suite's
    /// standard plan over `build_env` column coordinates.
    fn standard_fault_plan() -> FaultPlan {
        let mv = ErrorType::MissingValues;
        FaultPlan::new(vec![
            FaultSpec {
                iteration: 0,
                col: 0,
                err: mv,
                kind: FaultKind::TrainingPanic,
                attempts: u32::MAX,
            },
            FaultSpec {
                iteration: 0,
                col: 1,
                err: mv,
                kind: FaultKind::NanLoss,
                attempts: u32::MAX,
            },
            FaultSpec {
                iteration: 0,
                col: 2,
                err: mv,
                kind: FaultKind::EstimatorFailure,
                attempts: u32::MAX,
            },
            FaultSpec {
                iteration: 1,
                col: 0,
                err: mv,
                kind: FaultKind::TrainingPanic,
                attempts: 1,
            },
        ])
    }

    #[test]
    fn session_survives_injected_faults_with_budget_invariant() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        comet_obs::set_enabled(true);
        comet_obs::reset();
        let mut env = build_env(31, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(10.0), vec![ErrorType::MissingValues])
            .with_faults(standard_fault_plan());
        let mut rng = StdRng::seed_from_u64(77);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        comet_obs::set_enabled(false);
        let trace = &outcome.trace;

        // The session completed despite three permanently failing
        // candidates, and the accounting invariant held throughout.
        assert!(!trace.records.is_empty(), "session must keep cleaning around failures");
        assert_budget_matches_cleaning_records(trace);

        // All three iteration-0 failures are on record with their reasons.
        let it0: Vec<&crate::trace::FailureRecord> =
            trace.failures.iter().filter(|f| f.iteration == 0).collect();
        assert_eq!(it0.len(), 3, "failures: {:?}", trace.failures);
        let reason_of = |col: usize| &it0.iter().find(|f| f.col == col).unwrap().reason;
        assert!(reason_of(0).contains("panic"), "{:?}", reason_of(0));
        assert!(reason_of(1).contains("non-finite"), "{:?}", reason_of(1));
        assert!(reason_of(2).contains("estimator failure"), "{:?}", reason_of(2));
        for f in &it0 {
            assert_eq!(f.retries, 1, "MAX_RETRIES spends one retry: {f:?}");
        }
        // The transient iteration-1 panic recovered and left no failure.
        assert!(trace.failures.iter().all(|f| f.iteration == 0), "{:?}", trace.failures);

        // fault.* counters saw it all.
        let metrics = outcome.metrics.expect("obs enabled");
        assert!(metrics.registry.counter("fault.injected") >= 7, "3 permanent × 2 + transient");
        assert_eq!(metrics.registry.counter("fault.candidate_failures"), 3);
        assert!(metrics.registry.counter("fault.retries") >= 4);
        assert!(metrics.registry.counter("fault.recovered") >= 1);
        let with_failures: usize = metrics.iterations.iter().map(|i| i.failures).sum();
        assert_eq!(with_failures, 3);
    }

    #[test]
    fn faulted_trace_is_thread_count_invariant() {
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let run_with = |threads: usize| {
            let mut env = env0.clone();
            let session = CleaningSession::new(quick_config(10.0), vec![ErrorType::MissingValues])
                .with_faults(standard_fault_plan());
            let mut rng = StdRng::seed_from_u64(77);
            comet_par::with_threads(threads, || session.run(&mut env, &mut rng).unwrap())
        };
        let sequential = run_with(1);
        let parallel = run_with(4);
        assert!(
            sequential.trace.content_eq(&parallel.trace),
            "fault handling must not depend on scheduling:\nseq: {:?}\npar: {:?}",
            sequential.trace.failures,
            parallel.trace.failures,
        );
        assert!(!sequential.trace.failures.is_empty());
        assert!(!sequential.trace.records.is_empty());
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("comet_session_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn transient_checkpoint_write_fault_recovers_seed_identically() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        comet_obs::set_enabled(true);
        comet_obs::reset();
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25)], Algorithm::Knn);
        let clean_path = ckpt_path("io_clean.jsonl");
        let faulted_path = ckpt_path("io_faulted.jsonl");
        let run = |path: &std::path::Path, faults: Option<FaultPlan>| {
            let mut env = env0.clone();
            let mut session =
                CleaningSession::new(quick_config(6.0), vec![ErrorType::MissingValues])
                    .with_checkpoint(CheckpointSpec { path: path.to_path_buf(), resume: false });
            if let Some(plan) = faults {
                session = session.with_faults(plan);
            }
            let mut rng = StdRng::seed_from_u64(11);
            session.run(&mut env, &mut rng).unwrap()
        };
        let undisturbed = run(&clean_path, None);
        let plan = FaultPlan::new(vec![FaultSpec {
            iteration: 0,
            col: 0, // ignored by checkpoint faults
            err: ErrorType::MissingValues,
            kind: FaultKind::CheckpointWriteError,
            attempts: 1, // transient: the first retry succeeds
        }]);
        let recovered = run(&faulted_path, Some(plan));
        let reg = comet_obs::snapshot();
        comet_obs::set_enabled(false);
        assert!(
            undisturbed.trace.content_eq(&recovered.trace),
            "a recovered checkpoint write must not perturb the trace",
        );
        assert_eq!(reg.counter("fault.checkpoint_write_errors"), 1);
        assert_eq!(reg.counter("fault.checkpoint_write_retries"), 1);
        // The retried write left the same file as the undisturbed run.
        assert_eq!(std::fs::read(&clean_path).unwrap(), std::fs::read(&faulted_path).unwrap());
        std::fs::remove_file(clean_path).ok();
        std::fs::remove_file(faulted_path).ok();
    }

    #[test]
    fn exhausted_checkpoint_write_retries_surface_a_typed_error() {
        // Its injected write faults bump the same process-global counters
        // the transient-fault test above asserts on.
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let mut env = build_env(31, 240, vec![(0, 0.3)], Algorithm::Knn);
        let path = ckpt_path("io_permanent.jsonl");
        let plan = FaultPlan::new(vec![FaultSpec {
            iteration: 0,
            col: 0,
            err: ErrorType::MissingValues,
            kind: FaultKind::CheckpointWriteError,
            attempts: u32::MAX,
        }]);
        let session = CleaningSession::new(quick_config(6.0), vec![ErrorType::MissingValues])
            .with_checkpoint(CheckpointSpec { path: path.clone(), resume: false })
            .with_faults(plan);
        let mut rng = StdRng::seed_from_u64(11);
        let err = session.run(&mut env, &mut rng).unwrap_err();
        assert!(
            matches!(err, CometError::Checkpoint(ref m)
                if m.contains("injected checkpoint write failure")),
            "{err}",
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pre_cancelled_session_stops_gracefully_at_the_first_boundary() {
        let mut env = build_env(21, 300, vec![(0, 0.3)], Algorithm::Knn);
        let control = SessionControl::new();
        control.cancel();
        let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues])
            .with_control(control.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        assert_eq!(outcome.stop, Some(StopReason::Cancelled));
        assert!(outcome.trace.records.is_empty(), "no iteration may run after the stop");
        let progress = control.progress();
        assert_eq!(progress.iterations, 0);
        assert_eq!(progress.best_f1, outcome.trace.initial_f1, "initial state still published");
    }

    #[test]
    fn attached_control_publishes_progress_and_leaves_the_trace_unchanged() {
        let env0 = build_env(21, 300, vec![(0, 0.3), (1, 0.25)], Algorithm::Knn);
        let run = |control: Option<SessionControl>| {
            let mut env = env0.clone();
            let mut session =
                CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues]);
            if let Some(c) = control {
                session = session.with_control(c);
            }
            let mut rng = StdRng::seed_from_u64(7);
            session.run(&mut env, &mut rng).unwrap()
        };
        let bare = run(None);
        let control = SessionControl::new();
        let supervised = run(Some(control.clone()));
        assert_eq!(supervised.stop, None, "an unsignalled control never stops a session");
        assert!(
            bare.trace.content_eq(&supervised.trace),
            "attaching a control must not perturb the trace",
        );
        let progress = control.progress();
        assert!(progress.iterations >= 1);
        assert_eq!(progress.steps, supervised.trace.records);
        assert_eq!(progress.best_f1, supervised.trace.final_f1);
        assert_eq!(progress.initial_f1, supervised.trace.initial_f1);
    }

    #[test]
    fn kill_and_resume_is_bit_identical_across_thread_counts() {
        let env0 = build_env(32, 200, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let full_path = ckpt_path("full.jsonl");
        let cut_path = ckpt_path("cut.jsonl");

        // Uninterrupted run, checkpointing as it goes.
        let full = {
            let mut env = env0.clone();
            let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: full_path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            comet_par::with_threads(1, || session.run(&mut env, &mut rng).unwrap())
        };
        assert!(full.trace.records.len() > 1, "need a multi-step run to cut in half");

        // Simulate a kill partway through: keep the header, the first
        // iteration record, and a truncated half-written line.
        let text = std::fs::read_to_string(&full_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 2, "checkpoint must span several iterations: {text}");
        let mut cut = lines[..2].join("\n");
        cut.push_str("\n{\"kind\":\"checkpoint_itera");
        std::fs::write(&cut_path, &cut).unwrap();

        // Resume from the cut file at a different thread count.
        let resumed = {
            let mut env = env0.clone();
            let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: cut_path.clone(), resume: true });
            let mut rng = StdRng::seed_from_u64(5);
            comet_par::with_threads(4, || session.run(&mut env, &mut rng).unwrap())
        };
        assert!(
            full.trace.content_eq(&resumed.trace),
            "resumed trace must be bit-identical:\nfull: {:?}\nresumed: {:?}",
            full.trace.records,
            resumed.trace.records,
        );

        // The rewritten checkpoint equals the uninterrupted one, byte for byte.
        assert_eq!(std::fs::read(&full_path).unwrap(), std::fs::read(&cut_path).unwrap());
        std::fs::remove_file(full_path).ok();
        std::fs::remove_file(cut_path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_seed_and_config() {
        let env0 = build_env(32, 200, vec![(0, 0.3)], Algorithm::Knn);
        let path = ckpt_path("mismatch.jsonl");
        {
            let mut env = env0.clone();
            let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap();
        }

        // Wrong rng seed → different session seed → refuse to resume.
        let mut env = env0.clone();
        let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues])
            .with_checkpoint(CheckpointSpec { path: path.clone(), resume: true });
        let mut rng = StdRng::seed_from_u64(6);
        let err = session.run(&mut env, &mut rng).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("session_seed"), "{err}");

        // Wrong config → refuse to resume.
        let mut env = env0.clone();
        let session = CleaningSession::new(quick_config(5.0), vec![ErrorType::MissingValues])
            .with_checkpoint(CheckpointSpec { path: path.clone(), resume: true });
        let mut rng = StdRng::seed_from_u64(5);
        let err = session.run(&mut env, &mut rng).unwrap_err();
        assert!(err.to_string().contains("config"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_kernel_tier_and_probe_precision() {
        let env0 = build_env(32, 200, vec![(0, 0.3)], Algorithm::Knn);
        let path = ckpt_path("tier_mismatch.jsonl");
        {
            let mut env = env0.clone();
            let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap();
        }
        let resume = |path: &std::path::Path| {
            let mut env = env0.clone();
            let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.to_path_buf(), resume: true });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).map(|_| ())
        };

        // Rewrite the header to claim the SIMD tier: a checkpoint taken
        // under one reduction order must refuse silent resume under
        // another, loudly, before any replay work happens.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"kernels\":\"Scalar\""), "header must record the tier");
        let tampered = text.replace("\"kernels\":\"Scalar\"", "\"kernels\":\"Simd\"");
        std::fs::write(&path, &tampered).unwrap();
        let err = resume(&path).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("kernels"), "{err}");
        assert!(err.to_string().contains("Simd") && err.to_string().contains("Scalar"), "{err}");

        // Same for probe precision: f32 probes score differently, and the
        // header flag refuses the replay before it recomputes anything.
        let tampered = text.replace("\"f32_probes\":\"false\"", "\"f32_probes\":\"true\"");
        assert_ne!(tampered, text, "header must record the probe flag");
        std::fs::write(&path, &tampered).unwrap();
        let err = resume(&path).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("f32_probes"), "{err}");

        // The untampered header still resumes cleanly.
        std::fs::write(&path, &text).unwrap();
        resume(&path).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn resume_under_another_model_is_refused_by_name() {
        // Both environments come from the same rng, so the session seed
        // alone cannot tell an SVM checkpoint from a LOR one. Without the
        // model's identity entries, the resume would fail only at the first
        // trace-fingerprint check, after recomputing iteration 0, with an
        // error that names no setting.
        let levels = vec![(0, 0.3), (1, 0.2)];
        let path = ckpt_path("model_mismatch.jsonl");
        let run = |algorithm: Algorithm, resume: bool| {
            let mut env = build_env(32, 200, levels.clone(), algorithm);
            let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume });
            session.run(&mut env, &mut StdRng::seed_from_u64(5)).map(|_| ())
        };
        run(Algorithm::Svm, false).unwrap();
        let err = run(Algorithm::LogReg, true).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err}");
        assert_eq!(named_keys(&err), ["algorithm", "params"], "{err}");
        run(Algorithm::Svm, true).unwrap();
        std::fs::remove_file(path).ok();
    }

    /// The session inputs a checkpoint identity is built from.
    type Inputs = (u64, Vec<ErrorType>, CometConfig, CleaningEnvironment);
    type Mutator = fn(&mut Inputs);

    fn other_tier(tier: comet_ml::kernels::KernelTier) -> comet_ml::kernels::KernelTier {
        use comet_ml::kernels::KernelTier;
        if tier == KernelTier::Scalar {
            KernelTier::Simd
        } else {
            KernelTier::Scalar
        }
    }

    /// One mutator per identity key, each changing exactly that input and
    /// keeping the config valid. A built environment derives its model,
    /// metric, seed and step sizes together, so those mutators write one
    /// setting directly.
    const MUTATORS: [(&str, Mutator); 22] = [
        ("session_seed", |i| i.0 ^= 1),
        ("errors", |i| i.1.push(ErrorType::GaussianNoise)),
        ("pollution_steps", |i| i.2.pollution_steps = 3),
        ("n_combinations", |i| i.2.n_combinations = 2),
        ("budget", |i| i.2.budget = 5.0),
        ("costs", |i| i.2.costs = crate::cost::CostPolicy::paper_multi()),
        ("interval", |i| i.2.interval = 0.9),
        ("blr_degree", |i| i.2.blr_degree = 2),
        ("use_uncertainty", |i| i.2.use_uncertainty = false),
        ("bias_correction", |i| i.2.bias_correction = false),
        ("revert_on_decrease", |i| i.2.revert_on_decrease = false),
        ("fallback", |i| i.2.fallback = false),
        ("kernels", |i| i.2.kernels = other_tier(i.2.kernels)),
        ("f32_probes", |i| i.2.f32_probes = true),
        ("detect", |i| i.2.detect = Some(comet_detect::DetectorConfig::default())),
        ("segment_rows", |i| i.2.segment_rows = 1024),
        ("algorithm", |i| i.3.settings_mut().0.algorithm = Algorithm::Svm),
        ("params", |i| {
            i.3.settings_mut().0.params = comet_ml::HyperParams::Knn(comet_ml::KnnParams { k: 99 })
        }),
        ("metric", |i| *i.3.settings_mut().1 = Metric::Accuracy),
        ("eval_seed", |i| *i.3.settings_mut().2 += 1),
        ("step_train", |i| *i.3.settings_mut().3[0] += 1),
        ("step_test", |i| *i.3.settings_mut().3[1] += 1),
    ];

    /// The identity keys a refusal names (they are the backticked words).
    fn named_keys(err: &CometError) -> Vec<String> {
        err.to_string().split('`').skip(1).step_by(2).map(str::to_string).collect()
    }

    #[test]
    fn identity_drill_refuses_each_mutation_by_name() {
        let env0 = build_env(32, 200, vec![(0, 0.3)], Algorithm::Knn);
        let path = ckpt_path("identity_drill.jsonl");
        // The session seed is the run rng's first draw.
        let session_seed = StdRng::seed_from_u64(5).next_u64();
        let base: Inputs =
            (session_seed, vec![ErrorType::MissingValues], quick_config(4.0), env0.clone());
        let run = |resume: bool| {
            let mut env = env0.clone();
            let session = CleaningSession::new(base.2, base.1.clone())
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume });
            session.run(&mut env, &mut StdRng::seed_from_u64(5))
        };
        let full = run(false).unwrap();
        let identity = |i: &Inputs| SessionIdentity::new(i.0, &i.1, &i.2, &i.3);
        assert_eq!(crate::checkpoint::load(&path).unwrap().identity, identity(&base));

        // The table covers every key the header stores, once each.
        let text = std::fs::read_to_string(&path).unwrap();
        let header = comet_obs::json::parse(text.lines().next().unwrap()).unwrap();
        let stored: Vec<&str> = header
            .get("identity")
            .and_then(comet_obs::json::JsonValue::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut table: Vec<&str> = MUTATORS.iter().map(|(k, _)| *k).collect();
        table.sort_unstable();
        assert_eq!(stored, table);

        let resume = |i: &Inputs| {
            let spec = CheckpointSpec { path: path.clone(), resume: true };
            CheckpointWriter::open(&spec, &identity(i), None).map(|_| ())
        };
        for (key, mutate) in MUTATORS {
            let mut inputs = base.clone();
            mutate(&mut inputs);
            inputs.2.validate().unwrap();
            let err = resume(&inputs).unwrap_err();
            assert!(matches!(err, CometError::Checkpoint(_)), "{key}: {err}");
            assert_eq!(named_keys(&err), [key], "{err}");
        }
        let mut both = base.clone();
        both.2.kernels = other_tier(both.2.kernels);
        both.2.segment_rows = 1024;
        assert_eq!(named_keys(&resume(&both).unwrap_err()), ["kernels", "segment_rows"]);

        // The unmutated checkpoint resumes to the same trace.
        let resumed = run(true).unwrap();
        assert!(full.trace.content_eq(&resumed.trace));
        std::fs::remove_file(path).ok();
    }

    fn detect_config(budget: f64) -> CometConfig {
        CometConfig {
            detect: Some(comet_detect::DetectorConfig::default()),
            ..quick_config(budget)
        }
    }

    #[test]
    fn detection_seeded_session_cleans_without_the_oracle() {
        let mut env = build_env(41, 240, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(detect_config(1_000.0), vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(9);
        let before = env.total_dirty().unwrap();
        let outcome = session.run(&mut env, &mut rng).unwrap();
        assert!(!outcome.trace.records.is_empty());
        // With ample budget the detection-seeded session drains every pair
        // it can see; missing sentinels are fully detectable, so the frames
        // end up genuinely clean — no oracle was consulted to get there.
        assert!(env.total_dirty().unwrap() < before / 10, "dirt must mostly vanish");
        assert!(env.candidate_pairs(&[ErrorType::MissingValues]).is_empty());
    }

    #[test]
    fn detection_trace_bit_identical_across_thread_counts() {
        let env0 = build_env(42, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(detect_config(10.0), vec![ErrorType::MissingValues]);
        let run_with = |threads: usize| {
            let mut env = env0.clone();
            let mut rng = StdRng::seed_from_u64(77);
            comet_par::with_threads(threads, || session.run(&mut env, &mut rng).unwrap())
        };
        let one = run_with(1);
        for threads in [2, 8] {
            let other = run_with(threads);
            assert!(
                one.trace.content_eq(&other.trace),
                "detection must not break thread-count determinism ({threads} threads):\
                 \n1: {:?}\n{threads}: {:?}",
                one.trace.records,
                other.trace.records,
            );
        }
        assert!(!one.trace.records.is_empty(), "trivial traces prove nothing");
    }

    #[test]
    fn detect_kill_and_resume_is_bit_identical() {
        let env0 = build_env(43, 200, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let full_path = ckpt_path("detect_full.jsonl");
        let cut_path = ckpt_path("detect_cut.jsonl");
        let full = {
            let mut env = env0.clone();
            let session = CleaningSession::new(detect_config(8.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: full_path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap()
        };
        assert!(full.trace.records.len() > 1, "need a multi-step run to cut in half");

        let text = std::fs::read_to_string(&full_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 2, "checkpoint must span several iterations: {text}");
        let mut cut = lines[..2].join("\n");
        cut.push_str("\n{\"kind\":\"checkpoint_itera");
        std::fs::write(&cut_path, &cut).unwrap();

        let resumed = {
            let mut env = env0.clone();
            let session = CleaningSession::new(detect_config(8.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: cut_path.clone(), resume: true });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap()
        };
        assert!(
            full.trace.content_eq(&resumed.trace),
            "detect-mode resume must be bit-identical:\nfull: {:?}\nresumed: {:?}",
            full.trace.records,
            resumed.trace.records,
        );
        std::fs::remove_file(full_path).ok();
        std::fs::remove_file(cut_path).ok();
    }

    #[test]
    fn resume_rejects_changed_detector_config() {
        let env0 = build_env(43, 200, vec![(0, 0.3)], Algorithm::Knn);
        let path = ckpt_path("detect_mismatch.jsonl");
        {
            let mut env = env0.clone();
            let session = CleaningSession::new(detect_config(4.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap();
        }
        let resume = |config: CometConfig| {
            let mut env = env0.clone();
            let session = CleaningSession::new(config, vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume: true });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).map(|_| ())
        };

        // A different detector threshold is a different session identity:
        // the candidate pairs it would offer are not the recorded ones.
        let loosened = CometConfig {
            detect: Some(comet_detect::DetectorConfig {
                z_threshold: 6.0,
                ..comet_detect::DetectorConfig::default()
            }),
            ..quick_config(4.0)
        };
        let err = resume(loosened).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("detect"), "{err}");

        // So is switching back to oracle mode entirely.
        let err = resume(quick_config(4.0)).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err}");

        // The unchanged detector configuration still resumes.
        resume(detect_config(4.0)).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn f32_probes_leave_final_f64_ranking_unchanged() {
        // The Figure-3/4 workload shape (EEG + KNN): probe evaluations in
        // f32 may move individual regression points by float noise, but
        // the recommended action sequence — and therefore every accepted
        // step's full-precision F1 — must come out identical.
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let run_with = |f32_probes: bool| {
            let mut env = env0.clone();
            let config = CometConfig { f32_probes, ..quick_config(10.0) };
            let session = CleaningSession::new(config, vec![ErrorType::MissingValues]);
            let mut rng = StdRng::seed_from_u64(77);
            session.run(&mut env, &mut rng).unwrap()
        };
        let full = run_with(false);
        let probed = run_with(true);
        assert!(!full.trace.records.is_empty(), "trivial traces prove nothing");
        assert_eq!(full.trace.records.len(), probed.trace.records.len());
        for (a, b) in full.trace.records.iter().zip(&probed.trace.records) {
            assert_eq!(
                (a.iteration, a.col, a.err, a.action),
                (b.iteration, b.col, b.err, b.action),
                "probe precision must not reorder recommendations",
            );
            // Accepted-step evaluations stay f64 in both runs.
            assert_eq!(a.actual_f1.to_bits(), b.actual_f1.to_bits());
        }
        assert_eq!(full.trace.final_f1.to_bits(), probed.trace.final_f1.to_bits());
    }

    #[test]
    fn warm_feature_cache_does_not_change_the_trace() {
        // Cached column blocks are bit-identical to recomputed ones, so a
        // session on a clone whose shared feature cache is warm must
        // produce the same trace as one starting cold.
        let env0 = build_env(32, 200, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues]);

        env0.clear_feature_cache();
        let start = env0.feature_cache_stats();
        let mut cold_env = env0.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let cold = session.run(&mut cold_env, &mut rng).unwrap();

        // The cold run filled the cache every clone of env0 shares.
        let mid = env0.feature_cache_stats();
        let mut warm_env = env0.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let warm = session.run(&mut warm_env, &mut rng).unwrap();

        let end = env0.feature_cache_stats();
        assert!(end.block_hits > mid.block_hits, "warm run must actually hit the cache");
        assert!(
            end.block_misses - mid.block_misses < mid.block_misses - start.block_misses,
            "the warm run must reuse the cold run's blocks",
        );
        assert!(cold.trace.content_eq(&warm.trace));
    }
}
