//! The simulated cleaning environment.
//!
//! In the paper, a human or algorithmic *Cleaner* executes COMET's
//! recommendations. The reproduction simulates that Cleaner: it holds the
//! dirty train/test splits, their clean ground truth, and per-cell error
//! provenance, and exposes exactly the operations a Cleaner performs —
//! clean one step of one feature (restoring ground truth), evaluate the
//! model, revert a cleaning step. COMET itself only ever sees the dirty
//! frames and the evaluation scores, never the ground truth.
//!
//! All cleaning strategies (COMET, RR, FIR, CL, AC, Oracle) run against
//! this same environment, so their traces are directly comparable.

use comet_detect::{DetectionReport, DetectorConfig, DetectorScore};
use comet_frame::{Column, DataFrame, FrameError};
use comet_jenga::{ErrorType, GroundTruth, Provenance};
use comet_ml::{
    build_f32, scratch, Algorithm, FeatureCache, FeatureCacheStats, Featurizer, HyperParams,
    Matrix, MatrixF32, Metric, RandomSearch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Errors from environment operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvError {
    /// Underlying frame error.
    Frame(FrameError),
    /// Configuration / usage error.
    Invalid(String),
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::Frame(e) => write!(f, "frame error: {e}"),
            EnvError::Invalid(msg) => write!(f, "invalid: {msg}"),
        }
    }
}

impl std::error::Error for EnvError {}

impl From<FrameError> for EnvError {
    fn from(e: FrameError) -> Self {
        EnvError::Frame(e)
    }
}

/// The ML model under evaluation: algorithm plus the hyperparameters found
/// by the one-time random search (§4.4).
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Tuned hyperparameters.
    pub params: HyperParams,
}

/// A revertible snapshot of one feature column across both splits,
/// including its provenance — what the Recommender's cleaning buffer stores.
#[derive(Debug, Clone)]
pub struct StateSnapshot {
    /// Feature column index.
    pub col: usize,
    train_col: Column,
    test_col: Column,
    prov_train: Vec<Option<ErrorType>>,
    prov_test: Vec<Option<ErrorType>>,
}

/// Train and test feature matrices (pooled scratch buffers) and their labels.
type Featurized = (Matrix, Matrix, Vec<u32>, Vec<u32>);

/// Memoized detection reports for the environment's *current* frames.
/// Detection is pure in the frame contents and the detector config, so the
/// entry is keyed by both. Clones share the memo through the `Arc`, like
/// the feature cache.
#[derive(Debug, Default, Clone)]
struct DetectMemo {
    inner: Arc<Mutex<Option<DetectMemoEntry>>>,
}

#[derive(Debug, Clone)]
struct DetectMemoEntry {
    key: (u64, u64),
    config: DetectorConfig,
    train: DetectionReport,
    test: DetectionReport,
}

/// The simulated world: dirty data + hidden ground truth + a fixed model.
#[derive(Debug, Clone)]
pub struct CleaningEnvironment {
    train: DataFrame,
    test: DataFrame,
    gt_train: GroundTruth,
    gt_test: GroundTruth,
    prov_train: Provenance,
    prov_test: Provenance,
    model: ModelSpec,
    metric: Metric,
    n_classes: usize,
    step_train: usize,
    step_test: usize,
    eval_seed: u64,
    /// Column-block featurization cache, shared between clones (its `Clone`
    /// shares the backing `Arc`). Keyed by (transform params, column
    /// content fingerprint), so only the column a candidate pollution
    /// actually touched is re-featurized.
    feat_cache: FeatureCache,
    /// When true, `evaluate_frames_probe` trains the model's f32 twin
    /// (where one exists) instead of the full f64 model. Per-handle; the
    /// feature cache stays shared.
    f32_probes: bool,
    /// Detection-seeded mode (DESIGN.md §13): when set, candidate pairs
    /// come from the detector ensemble scanning the dirty frames and
    /// cleaning steps target ground-truth dirt regardless of the (noisy)
    /// family attribution. `None` = oracle mode, the paper's setup.
    detect: Option<DetectorConfig>,
    /// Memoized detection reports for the current frame contents.
    detect_memo: DetectMemo,
    /// `(col, err)` pairs detection keeps proposing but whose columns hold
    /// no ground-truth dirt any more — permanent false positives (a natural
    /// outlier stays an outlier after cleaning). Marked when a cleaning
    /// step restores zero cells; monotone, never reverted (a revert of the
    /// column restores dirt state, not the Cleaner's learned futility), so
    /// detection-seeded sessions terminate. Cloned by value: a clone
    /// starts from the parent's knowledge and evolves independently.
    detect_exhausted: BTreeSet<(usize, ErrorType)>,
}

impl CleaningEnvironment {
    /// Build the environment. `gt_*` must be the clean versions of the
    /// supplied dirty splits; `prov_*` the per-cell error provenance.
    /// Hyperparameters are tuned once on the dirty training data (§4.4:
    /// "users working with dirty data aim for the highest prediction
    /// accuracy given the dataset's current state").
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng>(
        train: DataFrame,
        test: DataFrame,
        gt_train: GroundTruth,
        gt_test: GroundTruth,
        prov_train: Provenance,
        prov_test: Provenance,
        algorithm: Algorithm,
        metric: Metric,
        step_frac: f64,
        search: RandomSearch,
        eval_seed: u64,
        rng: &mut R,
    ) -> Result<Self, EnvError> {
        if !(step_frac > 0.0 && step_frac <= 1.0) {
            return Err(EnvError::Invalid(format!("step_frac {step_frac} out of (0,1]")));
        }
        if train.schema() != test.schema() {
            return Err(EnvError::Invalid("train/test schema mismatch".into()));
        }
        let n_classes = train.n_classes()?;
        let step_train = ((step_frac * train.nrows() as f64).round() as usize).max(1);
        let step_test = ((step_frac * test.nrows() as f64).round() as usize).max(1);

        // One-time hyperparameter search on the dirty data. Runs through
        // the feature cache so the session's first evaluation already hits
        // the training split's column blocks.
        let feat_cache = FeatureCache::new();
        let featurizer = Featurizer::fit_cached(&train, &feat_cache)?;
        let xtr = featurizer.transform_with(&train, Some(&feat_cache), Vec::new())?;
        let ytr = train.label_codes()?;
        let tuned = search.tune(algorithm, &xtr, &ytr, n_classes, rng);

        Ok(CleaningEnvironment {
            train,
            test,
            gt_train,
            gt_test,
            prov_train,
            prov_test,
            model: ModelSpec { algorithm, params: tuned.params },
            metric,
            n_classes,
            step_train,
            step_test,
            eval_seed,
            feat_cache,
            f32_probes: false,
            detect: None,
            detect_memo: DetectMemo::default(),
            detect_exhausted: BTreeSet::new(),
        })
    }

    /// The current (dirty) training split.
    pub fn train(&self) -> &DataFrame {
        &self.train
    }

    /// The current (dirty) test split.
    pub fn test(&self) -> &DataFrame {
        &self.test
    }

    /// The model specification in use.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The optimization metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of label classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Cells per cleaning/pollution step on the training split.
    pub fn step_train(&self) -> usize {
        self.step_train
    }

    /// Cells per cleaning/pollution step on the test split.
    pub fn step_test(&self) -> usize {
        self.step_test
    }

    /// The seed every model fit starts from.
    pub(crate) fn eval_seed(&self) -> u64 {
        self.eval_seed
    }

    /// Feature column indices.
    pub fn feature_cols(&self) -> Vec<usize> {
        self.train.feature_indices()
    }

    /// Train and evaluate the model on arbitrary frames (used by the
    /// Polluter's what-if variants). Every call featurizes, fits and
    /// scores; the result is deterministic given the frames and the model.
    /// Takes `&self`, so worker threads can evaluate candidates
    /// concurrently.
    pub fn evaluate_frames(&self, train: &DataFrame, test: &DataFrame) -> Result<f64, EnvError> {
        self.check_frame_shapes(train, test)?;
        let (xtr, xte, ytr, yte) = self.featurize(train, test)?;
        let mut model = self.model.params.build();
        let mut rng = StdRng::seed_from_u64(self.eval_seed);
        model.fit(&xtr, &ytr, self.n_classes, &mut rng);
        let score = self.metric.eval(&yte, &model.predict(&xte), self.n_classes);
        scratch::put_matrix(xtr);
        scratch::put_matrix(xte);
        Ok(score)
    }

    /// Featurize a frame pair through the block cache: fit on `train`,
    /// transform train then test into pooled scratch buffers, then read
    /// both label vectors. Callers return the matrices to the scratch pool.
    ///
    /// Candidate pollutions mutate one column, so with the block cache
    /// warm, fit + transform reduce to one column's stats scan and two
    /// column-block computations; everything else is splices of cached
    /// blocks into pooled buffers.
    fn featurize(&self, train: &DataFrame, test: &DataFrame) -> Result<Featurized, EnvError> {
        let cache = Some(&self.feat_cache);
        let featurizer = Featurizer::fit_cached(train, &self.feat_cache)?;
        let dim = featurizer.dim();
        let xtr = featurizer.transform_with(train, cache, scratch::take(train.nrows() * dim))?;
        let xte = featurizer.transform_with(test, cache, scratch::take(test.nrows() * dim))?;
        Ok((xtr, xte, train.label_codes()?, test.label_codes()?))
    }

    /// `evaluate_frames` and its probe variant accept arbitrary caller
    /// frames — the one public entry point where user-shaped row lengths
    /// can reach the kernels' equal-dimensionality contract (`sq_dist`,
    /// `dot` only `debug_assert` it). Mismatches become a typed error here
    /// instead of silent garbage in release builds.
    fn check_frame_shapes(&self, train: &DataFrame, test: &DataFrame) -> Result<(), EnvError> {
        if train.schema() != test.schema() {
            return Err(EnvError::Invalid(
                "evaluate_frames requires train/test frames with identical schemas \
                 (kernel reductions require equal row dimensionality)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// [`evaluate_frames`](Self::evaluate_frames) for the Estimator's
    /// what-if pollution probes. With `f32_probes` enabled and an f32 twin
    /// available for the session's model, the fit and forward pass run in
    /// single precision (DESIGN.md §12); the result crosses the f32 → f64
    /// promotion boundary as integer class predictions, so the metric —
    /// and everything downstream: the Bayesian fit and the final ranking —
    /// is computed in f64. Falls back to the full f64 path when the flag
    /// is off or the model has no f32 twin (trees, forests, naive Bayes).
    pub fn evaluate_frames_probe(
        &self,
        train: &DataFrame,
        test: &DataFrame,
    ) -> Result<f64, EnvError> {
        if !self.f32_probes {
            return self.evaluate_frames(train, test);
        }
        let Some(mut model) = build_f32(&self.model.params) else {
            return self.evaluate_frames(train, test);
        };
        self.check_frame_shapes(train, test)?;
        let (xtr, xte, ytr, yte) = self.featurize(train, test)?;
        // Featurization stays f64 (and cached); only the training matrices
        // narrow. The f64 buffers return to the scratch pool immediately.
        let xtr32 = MatrixF32::from_matrix(&xtr);
        let xte32 = MatrixF32::from_matrix(&xte);
        scratch::put_matrix(xtr);
        scratch::put_matrix(xte);
        let mut rng = StdRng::seed_from_u64(self.eval_seed);
        model.fit(&xtr32, &ytr, self.n_classes, &mut rng);
        Ok(self.metric.eval(&yte, &model.predict(&xte32), self.n_classes))
    }

    /// Enable or disable f32 probe evaluations for this handle (clones
    /// keep their own flag).
    pub fn set_f32_probes(&mut self, enabled: bool) {
        self.f32_probes = enabled;
    }

    /// Whether probe evaluations run in the f32 tier.
    pub fn f32_probes(&self) -> bool {
        self.f32_probes
    }

    /// Feature-block-cache counters (entries, hits, misses).
    pub fn feature_cache_stats(&self) -> FeatureCacheStats {
        self.feat_cache.stats()
    }

    /// Drop every cached column block and fitted statistic (shared with all
    /// clones of this environment).
    pub fn clear_feature_cache(&self) {
        self.feat_cache.clear();
    }

    /// Cap the feature-block cache's byte footprint (shared with all
    /// clones). Cold blocks are dropped, not spilled — they are derived
    /// data, cheaper to recompute from the (possibly spilled) segments
    /// than to round-trip through disk.
    pub fn set_feature_cache_budget(&self, bytes: usize) {
        self.feat_cache.set_block_byte_budget(bytes);
    }

    /// Evaluate the model on the current state.
    pub fn evaluate(&self) -> Result<f64, EnvError> {
        self.evaluate_frames(&self.train, &self.test)
    }

    /// Rows of feature `col` currently dirty with `err` on the train split.
    pub fn dirty_train_rows(&self, col: usize, err: ErrorType) -> Vec<usize> {
        self.prov_train.rows_with(col, Some(err))
    }

    /// Rows of feature `col` currently dirty with `err` on the test split.
    pub fn dirty_test_rows(&self, col: usize, err: ErrorType) -> Vec<usize> {
        self.prov_test.rows_with(col, Some(err))
    }

    /// True while feature `col` still carries `err`-type dirt in either
    /// split — the simulated Cleaner's "not yet marked clean" signal.
    pub fn pair_dirty(&self, col: usize, err: ErrorType) -> bool {
        !self.dirty_train_rows(col, err).is_empty() || !self.dirty_test_rows(col, err).is_empty()
    }

    /// All `(feature, error type)` candidate pairs, restricted to the given
    /// error types (single-error scenario passes one; multi-error all).
    ///
    /// Oracle mode (the paper's setup) reads the JENGA provenance: a pair
    /// is a candidate while its column still carries `err`-type dirt.
    /// Detection mode derives the pairs from the detector ensemble's flags
    /// on the current dirty frames — COMET never touches ground truth —
    /// minus the pairs the Cleaner has learned are pure false positives.
    pub fn candidate_pairs(&self, errors: &[ErrorType]) -> Vec<(usize, ErrorType)> {
        if self.detect.is_some() {
            return self.detected_candidate_pairs(errors);
        }
        let mut out = Vec::new();
        for &col in &self.feature_cols() {
            for &err in errors {
                if self.pair_dirty(col, err) {
                    out.push((col, err));
                }
            }
        }
        out
    }

    fn detected_candidate_pairs(&self, errors: &[ErrorType]) -> Vec<(usize, ErrorType)> {
        let Ok((train, test)) = self.detect_reports() else {
            // Unreachable with a validated config; surfaced as a counter
            // rather than silently dropped.
            comet_obs::counter_add("detect.errors", 1);
            return Vec::new();
        };
        let mut pairs = train.candidate_pairs();
        pairs.extend(test.candidate_pairs());
        pairs.sort_unstable();
        pairs.dedup();
        pairs.retain(|&(col, err)| {
            errors.contains(&err) && !self.detect_exhausted.contains(&(col, err))
        });
        pairs
    }

    /// Enable detection-seeded mode: from now on, candidate pairs come
    /// from the detector ensemble instead of the provenance oracle, and
    /// cleaning steps target any ground-truth dirt in the chosen column
    /// (the family attribution is a noisy hint, not a filter).
    pub fn enable_detection(&mut self, config: DetectorConfig) {
        self.detect = Some(config);
    }

    /// The active detector configuration, if detection mode is on.
    pub fn detection(&self) -> Option<DetectorConfig> {
        self.detect
    }

    /// Detection reports for the current train/test frames (memoized by
    /// content fingerprint, shared with clones). Errors when detection
    /// mode is off.
    pub fn detect_reports(&self) -> Result<(DetectionReport, DetectionReport), EnvError> {
        let Some(config) = self.detect else {
            return Err(EnvError::Invalid("detection mode is not enabled".into()));
        };
        let key = (self.train.fingerprint(), self.test.fingerprint());
        {
            let memo = self.detect_memo.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = memo.as_ref() {
                if entry.key == key && entry.config == config {
                    return Ok((entry.train.clone(), entry.test.clone()));
                }
            }
        }
        let train = comet_detect::detect(&self.train, &config)?;
        let test = comet_detect::detect(&self.test, &config)?;
        comet_obs::counter_add(
            "detect.flagged_cells",
            (train.flagged_cell_count() + test.flagged_cell_count()) as u64,
        );
        let false_positives = comet_detect::false_positive_cells(&train, &self.prov_train)
            + comet_detect::false_positive_cells(&test, &self.prov_test);
        comet_obs::counter_add("detect.false_positives", false_positives as u64);
        let mut memo = self.detect_memo.inner.lock().unwrap_or_else(PoisonError::into_inner);
        *memo = Some(DetectMemoEntry { key, config, train: train.clone(), test: test.clone() });
        Ok((train, test))
    }

    /// Per-detector precision/recall on the *train* split, scored against
    /// the hidden provenance (harness-side diagnostics; COMET never sees
    /// these numbers). Errors when detection mode is off.
    pub fn detector_scores(&self) -> Result<Vec<DetectorScore>, EnvError> {
        let (train, _) = self.detect_reports()?;
        Ok(comet_detect::score_detectors(&train, &self.prov_train, &self.train))
    }

    /// Total dirty cells across both splits (ground-truth diff).
    pub fn total_dirty(&self) -> Result<usize, EnvError> {
        Ok(self.gt_train.total_dirty(&self.train)? + self.gt_test.total_dirty(&self.test)?)
    }

    /// True when both splits match ground truth exactly.
    pub fn is_fully_clean(&self) -> Result<bool, EnvError> {
        Ok(self.total_dirty()? == 0)
    }

    /// Snapshot feature `col` (both splits + provenance) for later revert.
    pub fn snapshot(&self, col: usize) -> Result<StateSnapshot, EnvError> {
        Ok(StateSnapshot {
            col,
            train_col: self.train.column(col)?.clone(),
            test_col: self.test.column(col)?.clone(),
            prov_train: self.prov_train.column(col).to_vec(),
            prov_test: self.prov_test.column(col).to_vec(),
        })
    }

    /// Restore a snapshot (the Recommender's revert).
    pub fn restore(&mut self, snapshot: &StateSnapshot) -> Result<(), EnvError> {
        self.train.replace_column(snapshot.col, snapshot.train_col.clone())?;
        self.test.replace_column(snapshot.col, snapshot.test_col.clone())?;
        self.prov_train.set_column(snapshot.col, snapshot.prov_train.clone());
        self.prov_test.set_column(snapshot.col, snapshot.prov_test.clone());
        Ok(())
    }

    /// Simulate one cleaning step of `(col, err)`: restore up to one step's
    /// worth of `err`-polluted cells per split (preferring the rows the
    /// Polluter flagged, §3.3), clearing their provenance. Returns
    /// `(train_cells, test_cells)` actually cleaned.
    ///
    /// In detection mode the human cleaner inspects the *column*, not the
    /// detector's (noisy) family attribution: any ground-truth dirt found
    /// there is eligible, with the detector-flagged rows tried first. A
    /// step that restores zero cells marks `(col, err)` as exhausted — a
    /// pure false positive the Cleaner will not revisit. That set is
    /// monotone (a revert restores dirt state, not the Cleaner's learned
    /// futility), which is what guarantees termination without an oracle.
    pub fn clean_step<R: Rng>(
        &mut self,
        col: usize,
        err: ErrorType,
        preferred_train: &[usize],
        preferred_test: &[usize],
        rng: &mut R,
    ) -> Result<(usize, usize), EnvError> {
        let detect = self.detect.is_some();
        let mut pref_train = preferred_train.to_vec();
        let mut pref_test = preferred_test.to_vec();
        if detect {
            // Detector-flagged rows extend the session's preference list;
            // the reports are cloned out so the memo borrow ends here.
            let (train_rep, test_rep) = self.detect_reports()?;
            pref_train.extend(train_rep.flagged_rows_any(col));
            pref_test.extend(test_rep.flagged_rows_any(col));
        }
        // Each split's dirty rows are read just before that split is
        // cleaned, so a spilled frame reloads each split's segments once.
        let dirty_rows = |df: &DataFrame, gt: &GroundTruth, prov: &Provenance| {
            if detect {
                gt.dirty_rows(df, col)
            } else {
                Ok(prov.rows_with(col, Some(err)))
            }
        };
        let rows = dirty_rows(&self.train, &self.gt_train, &self.prov_train)?;
        let cleaned_train = clean_split(
            &mut self.train,
            &self.gt_train,
            &mut self.prov_train,
            col,
            &rows,
            self.step_train,
            &pref_train,
            rng,
        )?;
        let rows = dirty_rows(&self.test, &self.gt_test, &self.prov_test)?;
        let cleaned_test = clean_split(
            &mut self.test,
            &self.gt_test,
            &mut self.prov_test,
            col,
            &rows,
            self.step_test,
            &pref_test,
            rng,
        )?;
        if detect && cleaned_train + cleaned_test == 0 {
            self.detect_exhausted.insert((col, err));
        }
        Ok((cleaned_train, cleaned_test))
    }

    /// Clean *everything* (diagnostics: the paper's "cleaned" horizontal
    /// line in Figure 7). Returns the fully-clean F1.
    pub fn fully_cleaned_f1(&self) -> Result<f64, EnvError> {
        self.evaluate_frames(self.gt_train.clean(), self.gt_test.clean())
    }

    /// Direct mutable access for strategies that clean record-wise
    /// (ActiveClean): restore the given rows across *all* feature columns.
    /// Returns the number of cells changed.
    pub fn clean_records(
        &mut self,
        train_rows: &[usize],
        test_rows: &[usize],
    ) -> Result<usize, EnvError> {
        let mut changed = 0;
        for &col in &self.feature_cols() {
            let restored = self.gt_train.restore(&mut self.train, col, train_rows)?;
            for &r in &restored {
                self.prov_train.clear(col, r);
            }
            changed += restored.len();
            let restored = self.gt_test.restore(&mut self.test, col, test_rows)?;
            for &r in &restored {
                self.prov_test.clear(col, r);
            }
            changed += restored.len();
        }
        Ok(changed)
    }

    /// Ground-truth dirty rows per split for a column, regardless of error
    /// type (used by the Oracle and by record-wise strategies).
    pub fn gt_dirty_rows(&self, col: usize) -> Result<(Vec<usize>, Vec<usize>), EnvError> {
        Ok((self.gt_train.dirty_rows(&self.train, col)?, self.gt_test.dirty_rows(&self.test, col)?))
    }
}

/// Clean up to `k` of `dirty` (the split's ascending dirty rows of `col`)
/// in one split: preferred rows first, the rest drawn at random.
#[allow(clippy::too_many_arguments)]
fn clean_split<R: Rng>(
    df: &mut DataFrame,
    gt: &GroundTruth,
    prov: &mut Provenance,
    col: usize,
    dirty: &[usize],
    k: usize,
    preferred: &[usize],
    rng: &mut R,
) -> Result<usize, EnvError> {
    if dirty.is_empty() {
        return Ok(0);
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for &p in preferred {
        if chosen.len() == k {
            break;
        }
        if dirty.binary_search(&p).is_ok() && !chosen.contains(&p) {
            chosen.push(p);
        }
    }
    if chosen.len() < k {
        let mut rest: Vec<usize> = dirty.iter().copied().filter(|r| !chosen.contains(r)).collect();
        let need = (k - chosen.len()).min(rest.len());
        for i in 0..need {
            let j = rng.gen_range(i..rest.len());
            rest.swap(i, j);
            chosen.push(rest[i]);
        }
    }
    let restored = gt.restore(df, col, &chosen)?;
    // Clear provenance for every chosen row: restoring may be a no-op for a
    // cell whose polluted value coincides with ground truth, but the cell is
    // clean either way.
    for &r in &chosen {
        prov.clear(col, r);
    }
    Ok(restored.len().max(chosen.len()))
}

#[cfg(test)]
impl CleaningEnvironment {
    /// The evaluation settings, writable. A built environment derives them
    /// together; the identity drill changes one at a time.
    #[allow(clippy::type_complexity)]
    pub(crate) fn settings_mut(
        &mut self,
    ) -> (&mut ModelSpec, &mut Metric, &mut u64, [&mut usize; 2]) {
        let steps = [&mut self.step_train, &mut self.step_test];
        (&mut self.model, &mut self.metric, &mut self.eval_seed, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_frame::{train_test_split, SplitOptions};
    use comet_jenga::{PrePollutionPlan, Scenario};

    fn make_env(seed: u64) -> CleaningEnvironment {
        let mut rng = StdRng::seed_from_u64(seed);
        let df = comet_datasets::Dataset::Eeg.generate(Some(300), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        let plan = PrePollutionPlan::explicit(
            Scenario::SingleError(ErrorType::MissingValues),
            vec![(0, 0.3), (1, 0.2), (2, 0.1)],
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
            0.01,
            RandomSearch { n_samples: 2, ..RandomSearch::default() },
            7,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let env = make_env(1);
        assert_eq!(env.n_classes(), 2);
        assert_eq!(env.feature_cols().len(), 14);
        assert!(env.step_train() >= 1);
        assert!(env.step_test() >= 1);
        assert_eq!(env.model().algorithm, Algorithm::Knn);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let env = make_env(2);
        let a = env.evaluate().unwrap();
        let b = env.evaluate().unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn feature_cache_recomputes_only_mutated_columns() {
        let mut env = make_env(10);
        let mut rng = StdRng::seed_from_u64(0);
        env.evaluate().unwrap();
        let warm = env.feature_cache_stats();
        assert!(warm.block_entries > 0);
        env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
        env.evaluate().unwrap();
        let after = env.feature_cache_stats();
        // One cleaning step touches column 0 of each split; every other
        // column's block is answered from cache (the train column's new
        // stats also re-key the test column's block, hence exactly two).
        assert_eq!(after.block_misses - warm.block_misses, 2);
        assert!(after.block_hits > warm.block_hits);
    }

    #[test]
    fn cached_evaluation_matches_uncached_reference() {
        let mut env = make_env(11);
        let mut rng = StdRng::seed_from_u64(0);
        env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
        let before = env.feature_cache_stats();
        let cached = env.evaluate().unwrap();
        // Construction warmed the cache, and the step touched one column.
        assert!(env.feature_cache_stats().block_hits > before.block_hits);
        // From scratch: no block cache, no scratch pool.
        let featurizer = Featurizer::fit(env.train()).unwrap();
        let xtr = featurizer.transform(env.train()).unwrap();
        let xte = featurizer.transform(env.test()).unwrap();
        let mut model = env.model().params.build();
        let ytr = env.train().label_codes().unwrap();
        model.fit(&xtr, &ytr, env.n_classes(), &mut StdRng::seed_from_u64(7));
        let yte = env.test().label_codes().unwrap();
        let reference = env.metric().eval(&yte, &model.predict(&xte), env.n_classes());
        assert_eq!(cached.to_bits(), reference.to_bits());
    }

    #[test]
    fn cloned_environment_shares_feature_cache() {
        let env = make_env(12);
        env.evaluate().unwrap();
        let clone = env.clone();
        let before = env.feature_cache_stats();
        clone.evaluate().unwrap();
        let after = env.feature_cache_stats();
        // All blocks come from the shared cache: hits move, misses do not.
        assert!(after.block_hits > before.block_hits);
        assert_eq!(after.block_misses, before.block_misses);
    }

    #[test]
    fn candidate_pairs_track_dirt() {
        let env = make_env(3);
        let pairs = env.candidate_pairs(&[ErrorType::MissingValues]);
        let cols: Vec<usize> = pairs.iter().map(|&(c, _)| c).collect();
        assert_eq!(cols, vec![0, 1, 2]);
        assert!(env.pair_dirty(0, ErrorType::MissingValues));
        assert!(!env.pair_dirty(5, ErrorType::MissingValues));
        assert!(!env.pair_dirty(0, ErrorType::GaussianNoise));
    }

    #[test]
    fn clean_step_reduces_dirt_and_terminates() {
        let mut env = make_env(4);
        let mut rng = StdRng::seed_from_u64(0);
        let before = env.total_dirty().unwrap();
        let (ctr, cte) = env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
        assert!(ctr > 0 && ctr <= env.step_train());
        assert!(cte <= env.step_test());
        let after = env.total_dirty().unwrap();
        assert_eq!(before - after, ctr + cte);

        // Keep cleaning column 0 until its pair is clean.
        let mut guard = 0;
        while env.pair_dirty(0, ErrorType::MissingValues) {
            env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
            guard += 1;
            assert!(guard < 200, "cleaning must terminate");
        }
        assert_eq!(env.dirty_train_rows(0, ErrorType::MissingValues).len(), 0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut env = make_env(5);
        let mut rng = StdRng::seed_from_u64(1);
        let snap = env.snapshot(0).unwrap();
        let dirty_before = env.dirty_train_rows(0, ErrorType::MissingValues);
        env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
        assert_ne!(env.dirty_train_rows(0, ErrorType::MissingValues), dirty_before);
        env.restore(&snap).unwrap();
        assert_eq!(env.dirty_train_rows(0, ErrorType::MissingValues), dirty_before);
    }

    #[test]
    fn preferred_rows_cleaned_first() {
        let mut env = make_env(6);
        let mut rng = StdRng::seed_from_u64(2);
        let dirty = env.dirty_train_rows(0, ErrorType::MissingValues);
        let preferred = vec![dirty[0]];
        env.clean_step(0, ErrorType::MissingValues, &preferred, &[], &mut rng).unwrap();
        assert!(!env.dirty_train_rows(0, ErrorType::MissingValues).contains(&dirty[0]));
    }

    #[test]
    fn fully_cleaned_f1_at_least_plausible() {
        let env = make_env(7);
        let clean_f1 = env.fully_cleaned_f1().unwrap();
        assert!((0.0..=1.0).contains(&clean_f1));
        assert!(!env.is_fully_clean().unwrap());
    }

    #[test]
    fn clean_records_clears_across_features() {
        let mut env = make_env(8);
        let (rows0, _) = env.gt_dirty_rows(0).unwrap();
        let changed = env.clean_records(&rows0, &[]).unwrap();
        assert!(changed >= rows0.len());
        assert!(env.dirty_train_rows(0, ErrorType::MissingValues).is_empty());
    }

    #[test]
    fn mismatched_frame_schemas_are_a_typed_error() {
        // The public evaluation entry points are where caller-shaped row
        // lengths could reach the kernels' equal-dimensionality contract;
        // they must surface as `EnvError::Invalid`, not debug-only UB.
        let env = make_env(13);
        let mut rng = StdRng::seed_from_u64(0);
        let other = comet_datasets::Dataset::Cmc.generate(Some(50), &mut rng);
        let err = env.evaluate_frames(env.train(), &other).unwrap_err();
        assert!(matches!(&err, EnvError::Invalid(msg) if msg.contains("schema")));
        let err = env.evaluate_frames_probe(env.train(), &other).unwrap_err();
        assert!(matches!(&err, EnvError::Invalid(msg) if msg.contains("schema")));
    }

    #[test]
    fn f32_probes_stay_deterministic_and_leave_f64_evaluations_unchanged() {
        let mut env = make_env(14);
        assert!(!env.f32_probes());
        // Flag off: the probe path is the f64 path.
        let f64_score = env.evaluate_frames_probe(env.train(), env.test()).unwrap();
        assert_eq!(f64_score, env.evaluate().unwrap());

        env.set_f32_probes(true);
        assert!(env.f32_probes());
        let a = env.evaluate_frames_probe(env.train(), env.test()).unwrap();
        let b = env.evaluate_frames_probe(env.train(), env.test()).unwrap();
        assert_eq!(a, b, "f32 probes must be deterministic");
        assert!((0.0..=1.0).contains(&a));
        // Full evaluations stay f64 with the flag on.
        assert_eq!(env.evaluate().unwrap(), f64_score);
    }

    #[test]
    fn step_fraction_outside_the_unit_interval_is_rejected() {
        for step_frac in [0.0, 1.5, f64::NAN] {
            let mut rng = StdRng::seed_from_u64(9);
            let df = comet_datasets::Dataset::Eeg.generate(Some(50), &mut rng);
            let res = CleaningEnvironment::new(
                df.clone(),
                df.clone(),
                GroundTruth::new(df.clone()),
                GroundTruth::new(df.clone()),
                Provenance::for_frame(&df),
                Provenance::for_frame(&df),
                Algorithm::Knn,
                Metric::F1,
                step_frac,
                RandomSearch { n_samples: 1, ..RandomSearch::default() },
                0,
                &mut rng,
            );
            let err = res.unwrap_err();
            assert!(matches!(&err, EnvError::Invalid(m) if m.contains("step_frac")), "{err}");
        }
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = comet_datasets::Dataset::Eeg.generate(Some(50), &mut rng);
        let b = comet_datasets::Dataset::Cmc.generate(Some(50), &mut rng);
        let res = CleaningEnvironment::new(
            a.clone(),
            b.clone(),
            GroundTruth::new(a.clone()),
            GroundTruth::new(b.clone()),
            Provenance::for_frame(&a),
            Provenance::for_frame(&b),
            Algorithm::Knn,
            Metric::F1,
            0.01,
            RandomSearch::default(),
            0,
            &mut rng,
        );
        assert!(res.is_err());
    }

    #[test]
    fn detect_reports_require_detection_mode() {
        let env = make_env(20);
        assert!(env.detection().is_none());
        assert!(matches!(env.detect_reports(), Err(EnvError::Invalid(_))));
        assert!(matches!(env.detector_scores(), Err(EnvError::Invalid(_))));
    }

    #[test]
    fn detection_mode_candidates_come_from_detectors_not_provenance() {
        let mut env = make_env(21);
        let oracle_pairs = env.candidate_pairs(&[ErrorType::MissingValues]);
        env.enable_detection(DetectorConfig::default());
        assert!(env.detection().is_some());
        let detect_pairs = env.candidate_pairs(&[ErrorType::MissingValues]);
        // Missing sentinels are trivially detectable, so every column the
        // oracle lists must also be flagged by the ensemble.
        let detect_cols: BTreeSet<usize> = detect_pairs.iter().map(|&(c, _)| c).collect();
        for &(col, _) in &oracle_pairs {
            assert!(detect_cols.contains(&col), "oracle col {col} missing from detection");
        }
        // And the family filter still applies.
        assert!(env.candidate_pairs(&[ErrorType::CategoricalShift]).is_empty());
    }

    #[test]
    fn detect_reports_are_memoized_and_invalidated_by_cleaning() {
        let mut env = make_env(22);
        env.enable_detection(DetectorConfig::default());
        let (a_train, _) = env.detect_reports().unwrap();
        let (b_train, _) = env.detect_reports().unwrap();
        assert_eq!(a_train, b_train, "repeat detection must be memoized/deterministic");
        // The memo is shared with clones, like the feature cache.
        let clone = env.clone();
        let (c_train, _) = clone.detect_reports().unwrap();
        assert_eq!(a_train, c_train);
        // Cleaning changes the frame fingerprint: flags must not grow.
        let mut rng = StdRng::seed_from_u64(0);
        let before = a_train.flagged_cell_count();
        env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
        let (after_train, _) = env.detect_reports().unwrap();
        assert!(after_train.flagged_cell_count() < before);
    }

    #[test]
    fn detection_mode_clean_step_cleans_any_dirt_and_learns_false_positives() {
        let mut env = make_env(23);
        env.enable_detection(DetectorConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let before = env.total_dirty().unwrap();
        // The detector attributes sentinel cells to MissingValues; cleaning
        // through the detect path restores real ground-truth dirt.
        let (ctr, cte) = env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
        assert!(ctr + cte > 0);
        assert_eq!(before - env.total_dirty().unwrap(), ctr + cte);

        // Drain column 0 completely, then one more step on the now-clean
        // column: zero cells cleaned marks the pair exhausted and it leaves
        // the candidate list even if a detector still (falsely) flags it.
        let mut guard = 0;
        while !env.gt_dirty_rows(0).map(|(a, b)| a.is_empty() && b.is_empty()).unwrap() {
            env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
            guard += 1;
            assert!(guard < 300, "detect-mode cleaning must terminate");
        }
        env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
        let pairs = env.candidate_pairs(&[ErrorType::MissingValues]);
        assert!(
            !pairs.iter().any(|&(c, e)| c == 0 && e == ErrorType::MissingValues),
            "exhausted pair must not be re-offered: {pairs:?}"
        );
    }

    #[test]
    fn detector_scores_track_planted_missing_values() {
        let mut env = make_env(24);
        env.enable_detection(DetectorConfig::default());
        let scores = env.detector_scores().unwrap();
        let ms = scores
            .iter()
            .find(|s| s.detector == comet_detect::DetectorKind::MissingSentinel)
            .unwrap();
        // Every planted MissingValues cell is an invalid cell, so the
        // sentinel detector has perfect recall here (precision can dip if
        // the generator produced natural missings, which Eeg does not).
        assert!(ms.true_dirty > 0);
        assert!((ms.recall - 1.0).abs() < 1e-12, "recall {}", ms.recall);
        assert!(ms.precision > 0.99, "precision {}", ms.precision);
    }
}
