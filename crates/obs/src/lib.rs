//! # comet-obs — run-metrics observability
//!
//! A dependency-free metrics layer for the COMET workspace: counters,
//! gauges and histograms with fixed bucket boundaries behind one global
//! registry, plus a JSONL run-journal sink ([`journal`]) and the minimal
//! JSON support ([`json`]) the journal format needs.
//!
//! Design constraints, in priority order:
//!
//! 1. **Near-no-op when disabled.** Every recording call first checks one
//!    relaxed atomic; with metrics off (the default) nothing is timed,
//!    locked, or allocated, so instrumented hot paths cost one branch.
//!    Crucially, metrics can never change *behaviour* — only observe it —
//!    which is what keeps instrumented traces bit-identical to bare runs.
//! 2. **Zero dependencies.** Plain `std`, like `comet-par`; the crate sits
//!    below every other workspace member.
//! 3. **Stable, greppable names.** Metric names are `&'static str` in
//!    `module.metric` form (`featurize.block_hits`, `par.workers_spawned`,
//!    `session.phase.pollute`); [`snapshot`] returns them sorted.
//!
//! The registry is process-global because the instrumented code spans
//! crates and worker threads; [`reset`] restores a clean slate between
//! runs (the CLI resets before each `--metrics-out` session).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod journal;
pub mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Duration;

/// Global on/off switch. Off by default; all recording is skipped while off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The one registry behind every counter/gauge/histogram in the process.
static REGISTRY: LazyLock<Mutex<Registry>> = LazyLock::new(|| Mutex::new(Registry::default()));

/// Histogram bucket upper bounds for durations, in seconds. Spans from
/// 10 µs (a cache hit) to 30 s (a full-dataset model fit); one fixed set
/// keeps snapshots mergeable across runs.
pub const DURATION_BUCKETS: [f64; 12] =
    [1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0];

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

#[derive(Debug, Clone)]
struct Histogram {
    bounds: &'static [f64],
    /// One count per bound, plus a final overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// Enable or disable all metric recording. Disabling does not clear
/// accumulated values; use [`reset`] for that.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether metric recording is currently on. One relaxed load — cheap
/// enough for any hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Add `delta` to a monotonically increasing counter. No-op while disabled.
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *reg.counters.entry(name).or_insert(0) += delta;
}

/// Set a gauge to `value`. No-op while disabled.
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    reg.gauges.insert(name, value);
}

/// Raise a gauge to `value` if `value` exceeds its current reading
/// (high-water marks like peak live workers). No-op while disabled.
pub fn gauge_max(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let g = reg.gauges.entry(name).or_insert(f64::NEG_INFINITY);
    if value > *g {
        *g = value;
    }
}

/// Record `value` into the histogram `name` with the given fixed bucket
/// bounds. The bounds of the *first* observation win; later calls with
/// different bounds still record into the existing histogram.
pub fn observe_with(name: &'static str, bounds: &'static [f64], value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    reg.histograms.entry(name).or_insert_with(|| Histogram::new(bounds)).observe(value);
}

/// Record a duration (in seconds) into histogram `name` using
/// [`DURATION_BUCKETS`].
pub fn observe_duration(name: &'static str, d: Duration) {
    observe_with(name, &DURATION_BUCKETS, d.as_secs_f64());
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the final overflow bucket is implicit).
    pub bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 with no observations).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Point-in-time copy of the whole registry, names sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters.
    pub counters: BTreeMap<String, u64>,
    /// All gauges.
    pub gauges: BTreeMap<String, f64>,
    /// All histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value, defaulting to 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Render the snapshot as one JSON object
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut counters = json::JsonObject::new();
        for (name, value) in &self.counters {
            counters.field_u64(name, *value);
        }
        let mut gauges = json::JsonObject::new();
        for (name, value) in &self.gauges {
            gauges.field_f64(name, *value);
        }
        let mut histograms = json::JsonObject::new();
        for (name, h) in &self.histograms {
            let mut obj = json::JsonObject::new();
            obj.field_u64("count", h.count);
            obj.field_f64("sum", h.sum);
            if h.count > 0 {
                obj.field_f64("min", h.min);
                obj.field_f64("max", h.max);
                obj.field_f64("mean", h.mean());
            }
            obj.field_raw("bounds", &json::array_f64(&h.bounds));
            obj.field_raw("counts", &json::array_u64(&h.counts));
            histograms.field_raw(name, &obj.finish());
        }
        let mut out = json::JsonObject::new();
        out.field_raw("counters", &counters.finish());
        out.field_raw("gauges", &gauges.finish());
        out.field_raw("histograms", &histograms.finish());
        out.finish()
    }
}

/// Copy the registry's current state (works whether or not recording is
/// enabled — disabled just means nothing new arrives).
pub fn snapshot() -> Snapshot {
    let reg = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    Snapshot {
        counters: reg.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        gauges: reg.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    HistogramSnapshot {
                        bounds: h.bounds.to_vec(),
                        counts: h.counts.clone(),
                        count: h.count,
                        sum: h.sum,
                        min: h.min,
                        max: h.max,
                    },
                )
            })
            .collect(),
    }
}

/// Clear every counter, gauge, and histogram (the enable flag and journal
/// sink are untouched).
pub fn reset() {
    let mut reg = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    reg.counters.clear();
    reg.gauges.clear();
    reg.histograms.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry and enable flag are process-global; every test takes
    /// this lock so they cannot interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        set_enabled(false);
        reset();
        guard
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = exclusive();
        counter_add("t.counter", 3);
        gauge_set("t.gauge", 1.5);
        observe_duration("t.histogram", Duration::from_millis(5));
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let _guard = exclusive();
        set_enabled(true);
        counter_add("t.counter", 2);
        counter_add("t.counter", 3);
        gauge_set("t.gauge", 1.0);
        gauge_set("t.gauge", 4.0);
        gauge_max("t.peak", 2.0);
        gauge_max("t.peak", 1.0);
        observe_duration("t.histogram", Duration::from_micros(50));
        observe_duration("t.histogram", Duration::from_millis(5));
        set_enabled(false);

        let snap = snapshot();
        assert_eq!(snap.counter("t.counter"), 5);
        assert_eq!(snap.gauge("t.gauge"), Some(4.0));
        assert_eq!(snap.gauge("t.peak"), Some(2.0));
        let h = &snap.histograms["t.histogram"];
        assert_eq!(h.count, 2);
        assert!(h.sum > 0.005 && h.sum < 0.006, "sum {}", h.sum);
        assert!(h.min < h.max);
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
        assert_eq!(h.bounds, DURATION_BUCKETS.to_vec());
    }

    #[test]
    fn histogram_bucket_assignment() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 0 (inclusive upper bound)
        h.observe(5.0); // bucket 1
        h.observe(100.0); // overflow
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = exclusive();
        set_enabled(true);
        counter_add("t.counter", 1);
        observe_duration("t.histogram", Duration::from_millis(1));
        reset();
        set_enabled(false);
        assert_eq!(snapshot(), Snapshot::default());
    }

    #[test]
    fn snapshot_json_parses() {
        let _guard = exclusive();
        set_enabled(true);
        counter_add("t.counter", 7);
        gauge_set("t.gauge", 2.5);
        observe_duration("t.histogram", Duration::from_millis(2));
        set_enabled(false);
        let text = snapshot().to_json();
        let value = json::parse(&text).expect("snapshot JSON must parse");
        assert_eq!(
            value.get("counters").and_then(|c| c.get("t.counter")).unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(value.get("gauges").and_then(|g| g.get("t.gauge")).unwrap().as_f64(), Some(2.5));
        let h = value.get("histograms").and_then(|h| h.get("t.histogram")).unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
    }
}
