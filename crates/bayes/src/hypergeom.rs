//! Hypergeometric distribution.
//!
//! Paper §3.1: the Polluter may accidentally overwrite already-dirty cells.
//! Drawing `n` cells to pollute from a column with `population` cells of
//! which `successes` are already dirty, the number of dirty cells hit is
//! hypergeometric. COMET uses this to argue the overlap is negligible when
//! dirt is sparse; we expose the distribution so the Polluter can quantify
//! the expected shortfall of a pollution step.

use crate::special::ln_gamma;

/// Hypergeometric(N = population, K = successes, n = draws).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypergeometric {
    population: u64,
    successes: u64,
    draws: u64,
}

impl Hypergeometric {
    /// Create the distribution; requires `successes ≤ population` and
    /// `draws ≤ population`.
    pub fn new(population: u64, successes: u64, draws: u64) -> Self {
        assert!(successes <= population, "successes must be ≤ population");
        assert!(draws <= population, "draws must be ≤ population");
        Hypergeometric { population, successes, draws }
    }

    /// Smallest support value: `max(0, draws + successes − population)`.
    pub fn min_k(self) -> u64 {
        (self.draws + self.successes).saturating_sub(self.population)
    }

    /// Largest support value: `min(draws, successes)`.
    pub fn max_k(self) -> u64 {
        self.draws.min(self.successes)
    }

    /// Probability of drawing exactly `k` successes.
    pub fn pmf(self, k: u64) -> f64 {
        if k < self.min_k() || k > self.max_k() {
            return 0.0;
        }
        (ln_choose(self.successes, k) + ln_choose(self.population - self.successes, self.draws - k)
            - ln_choose(self.population, self.draws))
        .exp()
    }

    /// Probability of drawing at most `k` successes.
    pub fn cdf(self, k: u64) -> f64 {
        if k >= self.max_k() {
            return 1.0;
        }
        let mut total = 0.0;
        for i in self.min_k()..=k {
            total += self.pmf(i);
        }
        // comet-lint: allow(D2) — CDF clamp to 1.0 over a finite pmf sum
        total.min(1.0)
    }

    /// Expected number of successes drawn: `n·K/N`.
    pub fn mean(self) -> f64 {
        if self.population == 0 {
            return 0.0;
        }
        self.draws as f64 * self.successes as f64 / self.population as f64
    }
}

/// `ln C(n, k)` via log-gamma; 0 for out-of-range `k`.
fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        let h = Hypergeometric::new(50, 10, 12);
        let total: f64 = (0..=12).map(|k| h.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn known_small_case() {
        // Urn: N=10, K=4 dirty, draw n=3. P(k=0) = C(6,3)/C(10,3) = 20/120.
        let h = Hypergeometric::new(10, 4, 3);
        assert!((h.pmf(0) - 20.0 / 120.0).abs() < 1e-12);
        // P(k=2) = C(4,2)C(6,1)/C(10,3) = 36/120.
        assert!((h.pmf(2) - 36.0 / 120.0).abs() < 1e-12);
        assert!((h.mean() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn support_bounds() {
        // N=10, K=8, n=5 → min successes drawn = 3.
        let h = Hypergeometric::new(10, 8, 5);
        assert_eq!(h.min_k(), 3);
        assert_eq!(h.max_k(), 5);
        assert_eq!(h.pmf(2), 0.0);
        assert_eq!(h.pmf(6), 0.0);
    }

    #[test]
    fn cdf_monotone_and_complete() {
        let h = Hypergeometric::new(30, 7, 10);
        let mut prev = 0.0;
        for k in 0..=7 {
            let c = h.cdf(k);
            assert!(c >= prev - 1e-15);
            prev = c;
        }
        assert!((h.cdf(7) - 1.0).abs() < 1e-12);
        assert_eq!(h.cdf(100), 1.0);
    }

    #[test]
    fn sparse_dirt_rarely_hit() {
        // The paper's claim: with 1% dirt, a 1% pollution step mostly hits
        // clean cells. N=1000, K=10 dirty, n=10 draws.
        let h = Hypergeometric::new(1000, 10, 10);
        // `pmf(0)`: no already-dirty cell is hit.
        assert!(h.pmf(0) > 0.90, "p = {}", h.pmf(0));
        assert!(h.mean() < 0.2);
    }

    #[test]
    fn heavy_dirt_often_hit() {
        let h = Hypergeometric::new(100, 80, 10);
        assert!(h.pmf(0) < 1e-6);
        assert_eq!(h.min_k(), 0);
    }

    #[test]
    #[should_panic(expected = "successes")]
    fn invalid_parameters_panic() {
        Hypergeometric::new(5, 6, 1);
    }

    #[test]
    fn degenerate_population() {
        let h = Hypergeometric::new(0, 0, 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.pmf(0), 1.0);
    }
}
