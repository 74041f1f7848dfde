//! Student-t distribution: CDF and quantiles.

use crate::special::regularized_incomplete_beta;

/// Student-t distribution with `nu` degrees of freedom (location 0, scale 1).
///
/// The predictive distribution of a conjugate Bayesian linear regression is a
/// scaled/shifted Student-t; [`crate::BayesianLinearRegression`] uses
/// [`StudentT::quantile`] to build credible intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    nu: f64,
}

impl StudentT {
    /// Create a Student-t distribution with `nu > 0` degrees of freedom.
    pub fn new(nu: f64) -> Self {
        assert!(nu > 0.0, "degrees of freedom must be positive, got {nu}");
        StudentT { nu }
    }

    /// Degrees of freedom.
    pub fn nu(self) -> f64 {
        self.nu
    }

    /// Cumulative distribution function at `t`, via the identity
    /// `P(T ≤ t) = 1 − I_x(ν/2, 1/2) / 2` with `x = ν/(ν + t²)` for `t > 0`.
    pub fn cdf(self, t: f64) -> f64 {
        if t == 0.0 {
            return 0.5;
        }
        let x = self.nu / (self.nu + t * t);
        let tail = 0.5 * regularized_incomplete_beta(self.nu / 2.0, 0.5, x);
        if t > 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }

    /// Quantile (inverse CDF) at probability `p ∈ (0, 1)`, computed by
    /// bisection on the CDF (the CDF is smooth and strictly increasing, so
    /// 200 bisections reach ~1e-12 absolute precision on the bracketed
    /// interval).
    pub fn quantile(self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
        if (p - 0.5).abs() < 1e-15 {
            return 0.0;
        }
        // Bracket: expand until the CDF straddles p.
        let mut lo = -1.0;
        let mut hi = 1.0;
        while self.cdf(lo) > p {
            lo *= 2.0;
            if lo < -1e12 {
                break;
            }
        }
        while self.cdf(hi) < p {
            hi *= 2.0;
            if hi > 1e12 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-13 * (1.0 + hi.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// Two-sided central interval half-width for confidence `level`
    /// (e.g. 0.95 → the 97.5 % quantile).
    pub fn interval_half_width(self, level: f64) -> f64 {
        assert!(level > 0.0 && level < 1.0, "level must be in (0,1)");
        self.quantile(0.5 + level / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_symmetry() {
        let t = StudentT::new(5.0);
        for x in [0.5, 1.0, 2.3] {
            assert!((t.cdf(x) + t.cdf(-x) - 1.0).abs() < 1e-12);
        }
        assert_eq!(t.cdf(0.0), 0.5);
    }

    #[test]
    fn cdf_matches_cauchy_for_nu_1() {
        // T(1) is Cauchy: CDF = 1/2 + atan(t)/π.
        let t = StudentT::new(1.0);
        for x in [-3.0f64, -1.0, 0.0, 0.5, 2.0] {
            let want = 0.5 + x.atan() / std::f64::consts::PI;
            assert!((t.cdf(x) - want).abs() < 1e-10, "cdf({x})");
        }
    }

    #[test]
    fn cdf_approaches_normal_for_large_nu() {
        // Φ(1.96) ≈ 0.975.
        let t = StudentT::new(1e6);
        assert!((t.cdf(1.959964) - 0.975).abs() < 1e-4);
    }

    #[test]
    fn known_critical_values() {
        // Classic t-table: t_{0.975, 10} = 2.228, t_{0.975, 2} = 4.303.
        assert!((StudentT::new(10.0).quantile(0.975) - 2.2281).abs() < 1e-3);
        assert!((StudentT::new(2.0).quantile(0.975) - 4.3027).abs() < 1e-3);
        assert!((StudentT::new(1.0).quantile(0.975) - 12.7062).abs() < 1e-3);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let t = StudentT::new(7.0);
        for p in [0.01, 0.2, 0.5, 0.77, 0.99] {
            let q = t.quantile(p);
            assert!((t.cdf(q) - p).abs() < 1e-10, "p={p}");
        }
    }

    #[test]
    fn interval_half_width_95() {
        let hw = StudentT::new(10.0).interval_half_width(0.95);
        assert!((hw - 2.2281).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dof_rejected() {
        StudentT::new(0.0);
    }

    #[test]
    #[should_panic(expected = "p in (0,1)")]
    fn quantile_rejects_bad_p() {
        StudentT::new(3.0).quantile(1.0);
    }
}
