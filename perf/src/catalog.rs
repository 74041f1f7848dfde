//! The metric catalogue: every name the benchmark emits, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//! `BENCHMARK.json` at the repository root must list exactly these (a test
//! checks it).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, failure shares).
    Lower,
    /// Larger values are better (throughput, accuracy, hit rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit as printed next to every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off. Every
/// workload reports all of them. Failures are not a metric here (a
/// correct run has none): they are the result's `failed` out of
/// `attempted`.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("first_rec_ms.geomean", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("f1_final", "f1", Higher, 0.2),
];

/// Per-layer numbers from a traced run. Layer prefixes are crate names.
pub const PER_LAYER: [Metric; 52] = [
    layer("ml.fit_s", "s", Lower),
    layer("ml.fit_s.gb", "s", Lower),
    layer("ml.fit_s.mlp", "s", Lower),
    layer("ml.fit_s.svm", "s", Lower),
    layer("ml.fit_s.lir", "s", Lower),
    layer("ml.fit_s.knn", "s", Lower),
    layer("ml.fit_s.lor", "s", Lower),
    layer("ml.predict_s", "s", Lower),
    layer("ml.predict_s.gb", "s", Lower),
    layer("ml.predict_s.mlp", "s", Lower),
    layer("ml.predict_s.svm", "s", Lower),
    layer("ml.predict_s.lir", "s", Lower),
    layer("ml.predict_s.knn", "s", Lower),
    layer("ml.predict_s.lor", "s", Lower),
    layer("ml.featurize_s", "s", Lower),
    layer("ml.metric_s", "s", Lower),
    layer("ml.block_cache.hit_rate", "ratio", Higher),
    layer("ml.scratch.reuse_rate", "ratio", Higher),
    layer("ml.tune_s", "s", Lower),
    layer("datasets.generate_s", "s", Lower),
    layer("jenga.prepollute_s", "s", Lower),
    layer("core.env_build_s", "s", Lower),
    layer("core.pollute_s", "s", Lower),
    layer("core.estimate_s", "s", Lower),
    layer("core.rank_s", "s", Lower),
    layer("core.clean_step_s", "s", Lower),
    layer("core.evaluate_s", "s", Lower),
    layer("core.fallback_s", "s", Lower),
    layer("core.polluter_s", "s", Lower),
    layer("core.eval_cache.hit_rate", "ratio", Higher),
    layer("core.variant_evals", "count", Lower),
    layer("bayes.blr_s", "s", Lower),
    layer("bayes.degraded_frac", "ratio", Lower),
    layer("par.fanouts", "count", Higher),
    layer("par.workers_spawned", "count", Higher),
    layer("par.sequential_fallback_rate", "ratio", Lower),
    layer("par.utilization", "ratio", Higher),
    layer("frame.spill.spills", "count", Lower),
    layer("frame.spill.reloads", "count", Lower),
    layer("frame.spill.mb", "MiB", Lower),
    layer("frame.csv_read_s", "s", Lower),
    layer("detect.scan_s", "s", Lower),
    layer("detect.flagged_cells", "count", Lower),
    layer("core.checkpoint_mb", "MiB", Lower),
    layer("serve.latency_s.p50", "s", Lower),
    layer("serve.latency_s.p80", "s", Lower),
    layer("serve.queue_wait_s.p50", "s", Lower),
    layer("serve.request_ms.p50", "ms", Lower),
    layer("serve.upload_ms.p50", "ms", Lower),
    layer("serve.admission_rejections", "count", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.coverage", "ratio", Higher),
];

/// The name rule every metric and workload name follows: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
