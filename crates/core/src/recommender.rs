//! The Recommender module (paper §3.3): score, rank, buffer, fall back.

use crate::env::StateSnapshot;
use crate::estimator::Estimate;
use comet_jenga::ErrorType;
use std::collections::BTreeMap;

/// A scored cleaning candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The Estimator's output.
    pub estimate: Estimate,
    /// Cost of the next cleaning step for this candidate.
    pub cost: f64,
    /// The Eq. 4 score `(gain − U) / C`.
    pub score: f64,
}

/// The Recommender: ranking plus the stateful parts of §3.3 — the cleaning
/// buffer of reverted-but-paid cleaning steps and the post-cleaning F1
/// history that drives the fallback strategy.
#[derive(Debug, Default)]
pub struct Recommender {
    use_uncertainty: bool,
    /// Reverted cleaning results, keyed by candidate; re-applying is free
    /// because the cleaning work was already paid for.
    buffer: BTreeMap<(usize, ErrorType), StateSnapshot>,
    /// Best F1 ever observed right after cleaning a candidate.
    post_clean_f1: BTreeMap<(usize, ErrorType), f64>,
}

impl Recommender {
    /// `use_uncertainty = false` is the score ablation (gain / cost only).
    pub fn new(use_uncertainty: bool) -> Self {
        Recommender { use_uncertainty, ..Recommender::default() }
    }

    /// Score one estimate (Eq. 4). Cost must be positive; a zero-cost step
    /// (one-shot follow-ups) is scored against a tiny epsilon so free
    /// cleaning of a positive-gain feature ranks very high.
    pub fn score(&self, estimate: &Estimate, cost: f64) -> f64 {
        let penalty = if self.use_uncertainty { estimate.uncertainty } else { 0.0 };
        // comet-lint: allow(D2) — epsilon clamp on a validated positive cost, not a score comparison
        (estimate.gain() - penalty) / cost.max(1e-6)
    }

    /// (A) Select positives, (B) score & rank. Returns candidates with
    /// positive predicted gain, best score first.
    pub fn rank(&self, estimates: Vec<Estimate>, costs: &[f64]) -> Vec<Candidate> {
        assert_eq!(estimates.len(), costs.len(), "one cost per estimate");
        let mut out: Vec<Candidate> = estimates
            .into_iter()
            .zip(costs)
            .filter(|(e, _)| e.gain() > 0.0)
            .map(|(estimate, &cost)| {
                let score = self.score(&estimate, cost);
                Candidate { estimate, cost, score }
            })
            .collect();
        // `total_cmp` over a NaN-sanitized key, not `partial_cmp(..)
        // .expect(..)`: a degenerate regression (e.g. zero-variance points)
        // can produce a NaN score, and ranking must not panic mid-session.
        // NaN maps to -∞ so such candidates sink to the end of the list
        // (in `total_cmp`'s raw order +NaN would rank *above* +∞).
        let sort_key = |c: &Candidate| if c.score.is_nan() { f64::NEG_INFINITY } else { c.score };
        out.sort_by(|a, b| {
            sort_key(b).total_cmp(&sort_key(a)).then_with(|| {
                (a.estimate.col, a.estimate.err).cmp(&(b.estimate.col, b.estimate.err))
            })
        });
        out
    }

    /// Store a reverted cleaning result in the cleaning buffer (step D).
    pub fn buffer_store(&mut self, col: usize, err: ErrorType, cleaned_state: StateSnapshot) {
        self.buffer.insert((col, err), cleaned_state);
    }

    /// Take a buffered cleaned state for a candidate, if present.
    pub fn buffer_take(&mut self, col: usize, err: ErrorType) -> Option<StateSnapshot> {
        self.buffer.remove(&(col, err))
    }

    /// Number of buffered states.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Record the F1 observed right after cleaning a candidate (fuel for
    /// the fallback strategy).
    pub fn record_post_clean_f1(&mut self, col: usize, err: ErrorType, f1: f64) {
        let entry = self.post_clean_f1.entry((col, err)).or_insert(f1);
        if f1 > *entry {
            *entry = f1;
        }
    }

    /// (E) Fallback selection: among the still-dirty candidates, the one
    /// with the historically highest post-cleaning F1; with no history, the
    /// first dirty candidate (deterministic order).
    pub fn fallback(&self, dirty: &[(usize, ErrorType)]) -> Option<(usize, ErrorType)> {
        if dirty.is_empty() {
            return None;
        }
        dirty
            .iter()
            .copied()
            .filter(|key| self.post_clean_f1.contains_key(key))
            .max_by(|a, b| self.post_clean_f1[a].total_cmp(&self.post_clean_f1[b]))
            .or_else(|| dirty.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(col: usize, gain: f64, uncertainty: f64) -> Estimate {
        Estimate {
            col,
            err: ErrorType::MissingValues,
            current_f1: 0.5,
            raw_predicted_f1: 0.5 + gain,
            predicted_f1: 0.5 + gain,
            uncertainty,
            points: vec![],
            flagged_train: vec![],
            flagged_test: vec![],
        }
    }

    #[test]
    fn scoring_matches_eq4() {
        let r = Recommender::new(true);
        let e = estimate(0, 0.10, 0.02);
        assert!((r.score(&e, 2.0) - (0.10 - 0.02) / 2.0).abs() < 1e-12);
        // Ablation: uncertainty ignored.
        let r2 = Recommender::new(false);
        assert!((r2.score(&e, 2.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_scores_high_but_finite() {
        let r = Recommender::new(true);
        let e = estimate(0, 0.1, 0.0);
        let s = r.score(&e, 0.0);
        assert!(s > 1e4 && s.is_finite());
    }

    #[test]
    fn rank_filters_non_positive_gains() {
        let r = Recommender::new(true);
        let ests = vec![estimate(0, 0.1, 0.0), estimate(1, -0.05, 0.0), estimate(2, 0.0, 0.0)];
        let ranked = r.rank(ests, &[1.0, 1.0, 1.0]);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].estimate.col, 0);
    }

    #[test]
    fn rank_orders_by_score_with_cost() {
        let r = Recommender::new(true);
        // Same gain, different costs: cheaper wins.
        let ests = vec![estimate(0, 0.1, 0.0), estimate(1, 0.1, 0.0)];
        let ranked = r.rank(ests, &[2.0, 1.0]);
        assert_eq!(ranked[0].estimate.col, 1);
        // Uncertainty penalizes.
        let ests = vec![estimate(0, 0.1, 0.09), estimate(1, 0.08, 0.0)];
        let ranked = r.rank(ests, &[1.0, 1.0]);
        assert_eq!(ranked[0].estimate.col, 1);
    }

    #[test]
    fn rank_survives_nan_scores_and_sinks_them() {
        // Regression: a NaN score (degenerate regression output) used to
        // panic the `partial_cmp(..).expect(..)` comparator mid-session.
        let r = Recommender::new(true);
        let mut poisoned = estimate(0, 0.1, 0.0);
        poisoned.predicted_f1 = f64::NAN; // gain() = NaN > 0.0 is false…
        let ests = vec![poisoned, estimate(1, 0.05, 0.0), estimate(2, 0.2, 0.0)];
        let ranked = r.rank(ests, &[1.0, 1.0, 1.0]);
        // …so the NaN-gain candidate is filtered; the rest rank normally.
        let cols: Vec<usize> = ranked.iter().map(|c| c.estimate.col).collect();
        assert_eq!(cols, vec![2, 1]);

        // A NaN *uncertainty* passes the gain filter but must sort last,
        // never first, and never panic.
        let mut nan_unc = estimate(3, 0.9, 0.0);
        nan_unc.uncertainty = f64::NAN;
        let ests = vec![nan_unc, estimate(1, 0.05, 0.0), estimate(2, 0.2, 0.0)];
        let ranked = r.rank(ests, &[1.0, 1.0, 1.0]);
        let cols: Vec<usize> = ranked.iter().map(|c| c.estimate.col).collect();
        assert_eq!(cols, vec![2, 1, 3]);
        assert!(ranked[2].score.is_nan());
    }

    #[test]
    fn fallback_survives_nan_history() {
        let mut r = Recommender::new(true);
        let dirty = vec![(0, ErrorType::MissingValues), (1, ErrorType::MissingValues)];
        r.record_post_clean_f1(0, ErrorType::MissingValues, f64::NAN);
        r.record_post_clean_f1(1, ErrorType::MissingValues, 0.4);
        // Must not panic; NaN history ranks above finite in total order is
        // acceptable — the invariant is a deterministic, panic-free pick.
        let pick = r.fallback(&dirty);
        assert!(pick.is_some());
        assert_eq!(r.fallback(&dirty), pick);
    }

    #[test]
    fn rank_ties_break_deterministically() {
        let r = Recommender::new(true);
        let ests = vec![estimate(2, 0.1, 0.0), estimate(1, 0.1, 0.0)];
        let ranked = r.rank(ests, &[1.0, 1.0]);
        assert_eq!(ranked[0].estimate.col, 1);
    }

    #[test]
    fn fallback_prefers_best_history() {
        let mut r = Recommender::new(true);
        let dirty = vec![(0, ErrorType::MissingValues), (1, ErrorType::MissingValues)];
        // No history → first dirty.
        assert_eq!(r.fallback(&dirty), Some((0, ErrorType::MissingValues)));
        r.record_post_clean_f1(1, ErrorType::MissingValues, 0.9);
        r.record_post_clean_f1(0, ErrorType::MissingValues, 0.7);
        assert_eq!(r.fallback(&dirty), Some((1, ErrorType::MissingValues)));
        // History keeps the max.
        r.record_post_clean_f1(1, ErrorType::MissingValues, 0.2);
        assert_eq!(r.fallback(&dirty), Some((1, ErrorType::MissingValues)));
        // A candidate with history that is no longer dirty is skipped.
        let only0 = vec![(0, ErrorType::MissingValues)];
        assert_eq!(r.fallback(&only0), Some((0, ErrorType::MissingValues)));
        assert_eq!(r.fallback(&[]), None);
    }
}
