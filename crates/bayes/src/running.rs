//! Welford online mean accumulator.
//!
//! The Estimator's bias correction (paper §3.3, last paragraph) maintains a
//! running mean of prediction discrepancies per feature; this accumulator
//! does so in O(1) memory and numerically stably.

/// Online mean over a stream of `f64` observations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
}

impl RunningStats {
    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_batch_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::default();
        for &x in &data {
            rs.push(x);
        }
        assert!((rs.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        let mut rs = RunningStats::default();
        assert_eq!(rs.mean(), 0.0);
        rs.push(3.5);
        assert_eq!(rs.mean(), 3.5);
    }

    #[test]
    fn stable_under_large_offsets() {
        let mut rs = RunningStats::default();
        for i in 0..1000 {
            rs.push(1e9 + (i % 5) as f64);
        }
        assert!((rs.mean() - (1e9 + 2.0)).abs() < 1e-6);
    }
}
