//! Classification metrics. The paper reports F1 (binary) and, for the
//! three-class CMC dataset, we use macro-F1 — the standard multi-class
//! generalization scikit-learn would apply.

/// Which prediction-accuracy metric to optimize/report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Binary F1 for 2 classes (positive class = 1), macro-F1 otherwise.
    F1,
    /// Plain accuracy.
    Accuracy,
}

impl Metric {
    /// Evaluate the metric.
    pub fn eval(self, y_true: &[u32], y_pred: &[u32], n_classes: usize) -> f64 {
        match self {
            Metric::Accuracy => accuracy(y_true, y_pred),
            Metric::F1 => {
                if n_classes == 2 {
                    f1_binary(y_true, y_pred, 1)
                } else {
                    f1_macro(y_true, y_pred, n_classes)
                }
            }
        }
    }
}

/// Fraction of correct predictions.
pub fn accuracy(y_true: &[u32], y_pred: &[u32]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    if y_true.is_empty() {
        return 0.0;
    }
    let correct = y_true.iter().zip(y_pred).filter(|(a, b)| a == b).count();
    correct as f64 / y_true.len() as f64
}

/// True when the ground truth collapsed to one class — a pathological
/// pollution can wipe out a class entirely. The metrics below still return
/// defined values there (never NaN), but the event is worth counting:
/// `metrics.single_class` in the `comet_obs` registry.
fn note_single_class(y_true: &[u32]) -> bool {
    let single = !y_true.is_empty() && y_true.iter().all(|&t| t == y_true[0]);
    if single {
        comet_obs::counter_add("metrics.single_class", 1);
    }
    single
}

/// F1 for one class treated as positive. Returns 0 when precision+recall
/// are both undefined (scikit-learn's `zero_division=0` convention), so the
/// result is defined even for single-class ground truth (which additionally
/// bumps the `metrics.single_class` counter).
pub fn f1_binary(y_true: &[u32], y_pred: &[u32], positive: u32) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    note_single_class(y_true);
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fne = 0usize;
    for (&t, &p) in y_true.iter().zip(y_pred) {
        match (t == positive, p == positive) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fne += 1,
            (false, false) => {}
        }
    }
    if 2 * tp + fp + fne == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / (2 * tp + fp + fne) as f64
}

/// Unweighted mean of per-class F1 scores.
pub fn f1_macro(y_true: &[u32], y_pred: &[u32], n_classes: usize) -> f64 {
    assert!(n_classes > 0, "need at least one class");
    let total: f64 = (0..n_classes as u32).map(|c| f1_binary(y_true, y_pred, c)).sum();
    total / n_classes as f64
}

/// Precision for one class treated as positive (`tp / (tp + fp)`; 0 when no
/// positive prediction exists, including the empty-split case). Single-class
/// ground truth bumps the `metrics.single_class` counter, exactly like
/// [`f1_binary`] — detector precision/recall scoring runs on arbitrary flag
/// vectors and must never panic or emit NaN into the trace.
pub fn precision(y_true: &[u32], y_pred: &[u32], positive: u32) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    note_single_class(y_true);
    let tp = y_true.iter().zip(y_pred).filter(|&(&t, &p)| t == positive && p == positive).count();
    let predicted = y_pred.iter().filter(|&&p| p == positive).count();
    if predicted == 0 {
        0.0
    } else {
        tp as f64 / predicted as f64
    }
}

/// Recall for one class treated as positive (`tp / (tp + fn)`; 0 when the
/// class is absent from the labels, including the empty-split case).
/// Single-class ground truth bumps the `metrics.single_class` counter.
pub fn recall(y_true: &[u32], y_pred: &[u32], positive: u32) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    note_single_class(y_true);
    let tp = y_true.iter().zip(y_pred).filter(|&(&t, &p)| t == positive && p == positive).count();
    let actual = y_true.iter().filter(|&&t| t == positive).count();
    if actual == 0 {
        0.0
    } else {
        tp as f64 / actual as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[1, 0, 1, 1], &[1, 0, 0, 1]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[1], &[1]), 1.0);
    }

    #[test]
    fn f1_perfect_and_worst() {
        assert_eq!(f1_binary(&[1, 0, 1], &[1, 0, 1], 1), 1.0);
        assert_eq!(f1_binary(&[1, 1, 1], &[0, 0, 0], 1), 0.0);
        // No positives anywhere → 0 by convention.
        assert_eq!(f1_binary(&[0, 0], &[0, 0], 1), 0.0);
    }

    #[test]
    fn f1_hand_computed() {
        // tp=2, fp=1, fn=1 → precision 2/3, recall 2/3, F1 = 2/3.
        let y_true = [1, 1, 1, 0, 0];
        let y_pred = [1, 1, 0, 1, 0];
        let f1 = f1_binary(&y_true, &y_pred, 1);
        assert!((f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn macro_f1_averages_classes() {
        // Three classes; class 2 never predicted.
        let y_true = [0, 0, 1, 1, 2, 2];
        let y_pred = [0, 0, 1, 0, 1, 1];
        // class0: tp=2, fp=1, fn=0 → 0.8; class1: tp=1, fp=2, fn=1 → 0.4;
        // class2: tp=0 → 0. macro = 0.4.
        let f1 = f1_macro(&y_true, &y_pred, 3);
        assert!((f1 - 0.4).abs() < 1e-12, "{f1}");
    }

    #[test]
    fn metric_dispatch() {
        let y_true = [1, 1, 0, 0];
        let y_pred = [1, 0, 0, 0];
        assert_eq!(Metric::Accuracy.eval(&y_true, &y_pred, 2), 0.75);
        // binary F1: tp=1, fp=0, fn=1 → 2/3.
        assert!((Metric::F1.eval(&y_true, &y_pred, 2) - 2.0 / 3.0).abs() < 1e-12);
        // With n_classes=3 the same data routes to macro.
        let macro_f1 = Metric::F1.eval(&y_true, &y_pred, 3);
        assert!(macro_f1 > 0.0 && macro_f1 < 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        accuracy(&[1], &[1, 0]);
    }

    #[test]
    fn precision_recall_hand_computed() {
        // tp=2, fp=1, fn=1.
        let y_true = [1, 1, 1, 0, 0];
        let y_pred = [1, 1, 0, 1, 0];
        assert!((precision(&y_true, &y_pred, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((recall(&y_true, &y_pred, 1) - 2.0 / 3.0).abs() < 1e-12);
        // No positive predictions → precision 0; class absent → recall 0.
        assert_eq!(precision(&[0, 0], &[0, 0], 1), 0.0);
        assert_eq!(recall(&[0, 0], &[0, 1], 1), 0.0);
    }

    /// The two tests below switch the process-global recording flag on and
    /// off; without this lock one can switch it off between the other's
    /// counted calls.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn exclusive_obs() -> std::sync::MutexGuard<'static, ()> {
        OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn single_class_ground_truth_is_defined_and_counted() {
        // All-one-class ground truth: F1 must return defined values (no
        // NaN) and count the event while recording is on.
        let _obs = exclusive_obs();
        comet_obs::set_enabled(true);
        let before = comet_obs::snapshot().counter("metrics.single_class");
        let f1_all_pos = f1_binary(&[1, 1, 1], &[1, 0, 1], 1);
        let f1_all_neg = f1_binary(&[0, 0, 0], &[1, 0, 1], 1);
        let after = comet_obs::snapshot().counter("metrics.single_class");
        comet_obs::set_enabled(false);
        assert!(f1_all_pos.is_finite() && (0.0..=1.0).contains(&f1_all_pos));
        assert_eq!(f1_all_neg, 0.0);
        // Concurrent tests may also bump the counter, so assert growth by
        // at least the two single-class calls above.
        assert!(after >= before + 2, "counter {before} -> {after}");
    }

    #[test]
    fn empty_test_split_never_panics_or_emits_nan() {
        // Detector scoring and pathological splits can hand every metric an
        // empty vector; each must return a defined (finite) value.
        let empty: [u32; 0] = [];
        for v in [
            accuracy(&empty, &empty),
            f1_binary(&empty, &empty, 1),
            f1_macro(&empty, &empty, 2),
            precision(&empty, &empty, 1),
            recall(&empty, &empty, 1),
            Metric::F1.eval(&empty, &empty, 2),
            Metric::Accuracy.eval(&empty, &empty, 2),
        ] {
            assert!(v.is_finite(), "metric emitted {v}");
            assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
        }
    }

    #[test]
    fn precision_recall_single_class_is_defined_and_counted() {
        let _obs = exclusive_obs();
        comet_obs::set_enabled(true);
        let before = comet_obs::snapshot().counter("metrics.single_class");
        let p = precision(&[1, 1, 1], &[1, 0, 1], 1);
        let r = recall(&[0, 0, 0], &[1, 0, 1], 0);
        let after = comet_obs::snapshot().counter("metrics.single_class");
        comet_obs::set_enabled(false);
        assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        assert!(r.is_finite() && (0.0..=1.0).contains(&r));
        assert!(after >= before + 2, "counter {before} -> {after}");
    }
}
