//! Summary statistics over run samples.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile: the value at 1-based rank `ceil(q * n)`.
/// `None` for an empty slice or `q` outside `(0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(values);
    let rank = rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// Samples that lie beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    rank(n, q).map_or(0, |r| n - r)
}

/// Whether `n` samples support reporting the `q`-quantile as a tail
/// percentile: at least ten samples must lie beyond it. With 50 samples
/// the 80th percentile leaves exactly ten beyond.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Geometric mean. `None` when empty or when any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean. `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// so spreads computed here match the ones an outside check computes.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // May be negative or exceed 4 where `j` was clamped: the rule then
        // extrapolates linearly, as Python's does.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
