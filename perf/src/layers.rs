//! Per-layer metrics of a traced run, from two sources: the `comet_obs`
//! registry the timed sessions filled (session phases and cache, fan-out
//! and detection counters), and the spans of the replay.

use crate::replay::ReplayCounts;
use crate::spans::Tracer;
use comet_obs::Snapshot;
use std::collections::BTreeMap;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn histogram_sum(snap: &Snapshot, name: &str) -> f64 {
    snap.histograms.get(name).map_or(0.0, |h| h.sum)
}

/// Metrics read from the registry after the timed sessions, which ran
/// `rounds` times over; times and counts are per round.
pub fn from_registry(
    snap: &Snapshot,
    threads: usize,
    rounds: usize,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let per_round = 1.0 / rounds.max(1) as f64;
    for (metric, phase) in [
        ("core.pollute_s", "session.phase.pollute"),
        ("core.estimate_s", "session.phase.estimate"),
        ("core.rank_s", "session.phase.rank"),
        ("core.clean_step_s", "session.phase.clean_step"),
        ("core.evaluate_s", "session.phase.evaluate"),
        ("core.fallback_s", "session.phase.fallback"),
    ] {
        out.insert(metric, histogram_sum(snap, phase) * per_round);
    }
    let counter = |name: &str| snap.counter(name) as f64 * per_round;
    out.insert(
        "core.eval_cache.hit_rate",
        ratio(
            counter("eval_cache.hits"),
            counter("eval_cache.hits") + counter("eval_cache.misses"),
        ),
    );
    out.insert("core.variant_evals", counter("estimator.variant_evals"));
    out.insert(
        "ml.block_cache.hit_rate",
        ratio(
            counter("featurize.block_hits"),
            counter("featurize.block_hits") + counter("featurize.block_misses"),
        ),
    );
    out.insert(
        "ml.scratch.reuse_rate",
        ratio(
            counter("alloc.scratch_reuse"),
            counter("alloc.scratch_reuse") + counter("alloc.scratch_alloc"),
        ),
    );
    let fanouts = counter("par.fanouts");
    out.insert("par.fanouts", fanouts);
    out.insert("par.workers_spawned", counter("par.workers_spawned"));
    out.insert("par.sequential_fallback_rate", ratio(counter("par.sequential_fallbacks"), fanouts));
    // Extra workers won per fan-out, as a share of the most it could win.
    out.insert(
        "par.utilization",
        ratio(counter("par.workers_spawned"), fanouts * threads.saturating_sub(1) as f64),
    );
    out.insert("detect.flagged_cells", counter("detect.flagged_cells"));
    out.insert("serve.admission_rejections", counter("serve.admission_rejections"));
}

/// Metrics read from the replay's spans. `iteration0_s` is the timed
/// sessions' own first-iteration pollute + estimate time, which the
/// replay's candidate loop re-does one call at a time.
pub fn from_replay(
    tracer: &Tracer,
    counts: ReplayCounts,
    iteration0_s: f64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    out.insert("ml.fit_s", tracer.total_prefix_s("ml.fit."));
    out.insert("ml.predict_s", tracer.total_prefix_s("ml.predict."));
    for (metric, span) in [
        ("ml.fit_s.gb", "ml.fit.gb"),
        ("ml.fit_s.mlp", "ml.fit.mlp"),
        ("ml.fit_s.svm", "ml.fit.svm"),
        ("ml.fit_s.lir", "ml.fit.lir"),
        ("ml.fit_s.knn", "ml.fit.knn"),
        ("ml.fit_s.lor", "ml.fit.lor"),
        ("ml.predict_s.gb", "ml.predict.gb"),
        ("ml.predict_s.mlp", "ml.predict.mlp"),
        ("ml.predict_s.svm", "ml.predict.svm"),
        ("ml.predict_s.lir", "ml.predict.lir"),
        ("ml.predict_s.knn", "ml.predict.knn"),
        ("ml.predict_s.lor", "ml.predict.lor"),
        ("ml.featurize_s", "ml.featurize"),
        ("ml.metric_s", "ml.metric"),
        ("ml.tune_s", "ml.tune"),
        ("bayes.blr_s", "bayes.blr"),
        ("core.polluter_s", "core.polluter"),
        ("datasets.generate_s", "datasets.generate"),
        ("jenga.prepollute_s", "jenga.prepollute"),
        ("frame.csv_read_s", "frame.csv_read"),
        ("detect.scan_s", "detect.scan"),
    ] {
        out.insert(metric, tracer.total_s(span));
    }
    // The constructor tunes the model; that part is `ml.tune_s`, timed by
    // an identical separate call.
    out.insert(
        "core.env_build_s",
        (tracer.total_s("core.env_build") - tracer.total_s("ml.tune")).max(0.0),
    );
    out.insert("bayes.degraded_frac", ratio(counts.degraded as f64, counts.blr_fits as f64));
    out.insert("trace.coverage", ratio(tracer.total_s("core.candidate"), iteration0_s));
}
