//! Conjugate Bayesian linear regression (Normal–Inverse-Gamma prior).
//!
//! Model: `y = Xw + ε`, `ε ~ N(0, σ²)`, with conjugate prior
//! `w | σ² ~ N(m₀, σ²V₀)`, `σ² ~ InvGamma(a₀, b₀)`.
//!
//! The posterior is again Normal–Inverse-Gamma and the posterior predictive
//! at a new input `x*` is a scaled/shifted Student-t — which is exactly what
//! COMET's Estimator needs: a point prediction for the F1 score after the
//! next cleaning step *plus* a credible interval whose width becomes the
//! uncertainty penalty `U(f)` in the Recommender score (paper Eq. 4).

use crate::linalg::{cholesky_factor, cholesky_solve, spd_inverse, CholeskyError};
use crate::poly::PolynomialBasis;
use crate::student_t::StudentT;
use std::fmt;

/// Condition-number estimate above which a fit is declared [`BayesError::Degenerate`].
const CONDITION_LIMIT: f64 = 1e12;

/// Failure of a regression fit or prediction in this crate (shared by the
/// Bayesian model and the OLS cross-check).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BayesError {
    /// The regularized precision matrix `V₀⁻¹ + XᵀX` failed to factor.
    Cholesky(CholeskyError),
    /// The design is numerically near-singular: the condition estimate of
    /// the precision matrix exceeds [`CONDITION_LIMIT`], so the posterior
    /// would be dominated by floating-point noise (NaN-adjacent).
    Degenerate {
        /// The offending condition estimate.
        condition: f64,
    },
    /// An observation was NaN or infinite.
    NonFinite,
    /// `predict` was called before a successful `fit`.
    Unfitted,
}

impl fmt::Display for BayesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BayesError::Cholesky(e) => write!(f, "precision factorization failed: {e}"),
            BayesError::Degenerate { condition } => {
                write!(f, "near-singular design: condition estimate {condition:.3e} > 1e12")
            }
            BayesError::NonFinite => write!(f, "non-finite observation in regression input"),
            BayesError::Unfitted => write!(f, "predict called before a successful fit"),
        }
    }
}

impl std::error::Error for BayesError {}

impl From<CholeskyError> for BayesError {
    fn from(e: CholeskyError) -> Self {
        BayesError::Cholesky(e)
    }
}

/// Hyperparameters of the Normal–Inverse-Gamma prior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlrConfig {
    /// Polynomial degree of the basis applied to the scalar input.
    pub degree: usize,
    /// Prior weight variance scale: `V₀ = prior_scale · I`.
    pub prior_scale: f64,
    /// Inverse-gamma shape `a₀`.
    pub a0: f64,
    /// Inverse-gamma rate `b₀`.
    pub b0: f64,
    /// Credible-interval level for [`Prediction::lower`]/[`Prediction::upper`].
    pub interval: f64,
}

impl Default for BlrConfig {
    fn default() -> Self {
        // Weakly informative: wide weight prior, a noise prior that admits
        // both near-deterministic and noisy F1-vs-pollution trends.
        BlrConfig { degree: 1, prior_scale: 100.0, a0: 1.0, b0: 1e-4, interval: 0.95 }
    }
}

/// Posterior parameters after conditioning on data.
#[derive(Debug, Clone, PartialEq)]
pub struct Posterior {
    /// Posterior mean of the weights, length `d`.
    pub mean: Vec<f64>,
    /// Posterior covariance scale `Vₙ` (row-major `d×d`); the weight
    /// covariance is `σ² Vₙ`.
    pub cov_scale: Vec<f64>,
    /// Posterior inverse-gamma shape `aₙ`.
    pub a: f64,
    /// Posterior inverse-gamma rate `bₙ`.
    pub b: f64,
    /// Number of observations conditioned on.
    pub n: usize,
}

/// A posterior-predictive summary at one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predictive mean.
    pub mean: f64,
    /// Predictive standard deviation (Student-t scale × √(ν/(ν−2)) is the
    /// true SD for ν > 2; this field stores the *scale* parameter, which is
    /// what interval construction uses).
    pub scale: f64,
    /// Lower bound of the central credible interval.
    pub lower: f64,
    /// Upper bound of the central credible interval.
    pub upper: f64,
}

impl Prediction {
    /// Interval width — the paper's uncertainty `U(f)`.
    pub fn uncertainty(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Bayesian linear regression on a scalar input through a polynomial basis.
#[derive(Debug, Clone)]
pub struct BayesianLinearRegression {
    config: BlrConfig,
    basis: PolynomialBasis,
    posterior: Option<Posterior>,
}

impl BayesianLinearRegression {
    /// Create an unfitted model.
    pub fn new(config: BlrConfig) -> Self {
        let basis = PolynomialBasis::new(config.degree);
        BayesianLinearRegression { config, basis, posterior: None }
    }

    /// The configuration.
    pub fn config(&self) -> &BlrConfig {
        &self.config
    }

    /// Fit the posterior from paired observations. Requires at least one
    /// point; with fewer points than basis dimensions the prior regularizes.
    ///
    /// Fails with [`BayesError::NonFinite`] on NaN/∞ inputs and with
    /// [`BayesError::Degenerate`] when the regularized precision matrix is so
    /// ill-conditioned that the posterior would be numerical noise (e.g. a
    /// constant design column under an effectively flat prior).
    pub fn fit(&mut self, xs: &[f64], ys: &[f64]) -> Result<&Posterior, BayesError> {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        assert!(!xs.is_empty(), "need at least one observation");
        if xs.iter().chain(ys).any(|v| !v.is_finite()) {
            return Err(BayesError::NonFinite);
        }
        let d = self.basis.dim();
        let n = xs.len();

        // Precision matrix: V₀⁻¹ + XᵀX, with V₀ = prior_scale · I.
        let prior_precision = 1.0 / self.config.prior_scale;
        let mut precision = vec![0.0; d * d];
        for i in 0..d {
            precision[i * d + i] = prior_precision;
        }
        let mut xty = vec![0.0; d];
        let mut yty = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let phi = self.basis.expand(x);
            for i in 0..d {
                xty[i] += phi[i] * y;
                for j in 0..d {
                    precision[i * d + j] += phi[i] * phi[j];
                }
            }
            yty += y * y;
        }

        // Condition estimate from the Cholesky factor's diagonal: for
        // `L Lᵀ = A`, `(max lᵢᵢ / min lᵢᵢ)²` lower-bounds `cond₂(A)`. A huge
        // value means XᵀX is rank-deficient beyond what the prior can
        // regularize — solving would amplify rounding noise into the
        // posterior, so the fit is rejected instead.
        let factor = cholesky_factor(&precision, d)?;
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for i in 0..d {
            let pivot = factor[i * d + i];
            lo = lo.min(pivot);
            hi = hi.max(pivot);
        }
        let condition = (hi / lo) * (hi / lo);
        if !condition.is_finite() || condition > CONDITION_LIMIT {
            return Err(BayesError::Degenerate { condition });
        }

        // mₙ = Vₙ Xᵀy  (prior mean is zero).
        let mean = cholesky_solve(&precision, d, &xty)?;
        let cov_scale = spd_inverse(&precision, d)?;

        // bₙ = b₀ + ½(yᵀy − mₙᵀ(V₀⁻¹ + XᵀX)mₙ); guard tiny negatives from
        // floating-point cancellation.
        let mut quad = 0.0;
        for i in 0..d {
            for j in 0..d {
                quad += mean[i] * precision[i * d + j] * mean[j];
            }
        }
        let a = self.config.a0 + n as f64 / 2.0;
        // comet-lint: allow(D2) — positivity floor for the inverse-gamma rate parameter
        let b = (self.config.b0 + 0.5 * (yty - quad)).max(self.config.b0 * 1e-6).max(1e-12);

        Ok(self.posterior.insert(Posterior { mean, cov_scale, a, b, n }))
    }

    /// The fitted posterior, if [`fit`](Self::fit) has been called.
    pub fn posterior(&self) -> Option<&Posterior> {
        self.posterior.as_ref()
    }

    /// Posterior-predictive summary at input `x`. Fails with
    /// [`BayesError::Unfitted`] before a successful [`fit`](Self::fit).
    pub fn predict(&self, x: f64) -> Result<Prediction, BayesError> {
        let post = self.posterior.as_ref().ok_or(BayesError::Unfitted)?;
        let d = self.basis.dim();
        let phi = self.basis.expand(x);

        let mut mean = 0.0;
        #[allow(clippy::needless_range_loop)]
        for i in 0..d {
            mean += phi[i] * post.mean[i];
        }
        // x*ᵀ Vₙ x*.
        let mut xvx = 0.0;
        for i in 0..d {
            for j in 0..d {
                xvx += phi[i] * post.cov_scale[i * d + j] * phi[j];
            }
        }
        let scale = ((post.b / post.a) * (1.0 + xvx)).sqrt();
        let t = StudentT::new(2.0 * post.a);
        let half = t.interval_half_width(self.config.interval) * scale;
        Ok(Prediction { mean, scale, lower: mean - half, upper: mean + half })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data(n: usize, slope: f64, intercept: f64, noise: f64) -> (Vec<f64>, Vec<f64>) {
        // Deterministic pseudo-noise so tests don't need rand.
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| intercept + slope * x + noise * ((i as f64 * 12.9898).sin()))
            .collect();
        (xs, ys)
    }

    #[test]
    fn recovers_noiseless_line() {
        let (xs, ys) = line_data(20, -0.5, 0.9, 0.0);
        let mut blr = BayesianLinearRegression::new(BlrConfig::default());
        let post = blr.fit(&xs, &ys).unwrap().clone();
        // The weak prior shrinks estimates slightly toward zero.
        assert!((post.mean[0] - 0.9).abs() < 1e-2, "intercept {}", post.mean[0]);
        assert!((post.mean[1] + 0.5).abs() < 2e-2, "slope {}", post.mean[1]);
        let p = blr.predict(0.5).unwrap();
        assert!((p.mean - 0.65).abs() < 1e-2);
        // Prior shrinkage leaves small residuals even on noiseless data, so
        // the interval is narrow but not degenerate.
        assert!(p.uncertainty() < 0.15, "noiseless fit should be confident");
    }

    #[test]
    fn noisy_fit_has_wider_interval() {
        let (xs, ys) = line_data(20, -0.5, 0.9, 0.0);
        let (_, ys_noisy) = line_data(20, -0.5, 0.9, 0.1);
        let mut clean = BayesianLinearRegression::new(BlrConfig::default());
        clean.fit(&xs, &ys).unwrap();
        let mut noisy = BayesianLinearRegression::new(BlrConfig::default());
        noisy.fit(&xs, &ys_noisy).unwrap();
        assert!(
            noisy.predict(0.5).unwrap().uncertainty() > clean.predict(0.5).unwrap().uncertainty(),
            "noise must widen the credible interval"
        );
    }

    #[test]
    fn interval_shrinks_with_more_data() {
        let (xs_small, ys_small) = line_data(4, 1.0, 0.0, 0.05);
        let (xs_big, ys_big) = line_data(64, 1.0, 0.0, 0.05);
        let mut small = BayesianLinearRegression::new(BlrConfig::default());
        small.fit(&xs_small, &ys_small).unwrap();
        let mut big = BayesianLinearRegression::new(BlrConfig::default());
        big.fit(&xs_big, &ys_big).unwrap();
        assert!(
            big.predict(0.5).unwrap().uncertainty() < small.predict(0.5).unwrap().uncertainty()
        );
    }

    #[test]
    fn extrapolation_is_less_certain_than_interpolation() {
        let (xs, ys) = line_data(16, -1.0, 1.0, 0.02);
        let mut blr = BayesianLinearRegression::new(BlrConfig::default());
        blr.fit(&xs, &ys).unwrap();
        let inside = blr.predict(0.5).unwrap().uncertainty();
        let outside = blr.predict(3.0).unwrap().uncertainty();
        assert!(outside > inside, "extrapolation {outside} <= interpolation {inside}");
    }

    #[test]
    fn quadratic_basis_captures_curvature() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 / 30.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 - 0.3 * x - 0.5 * x * x).collect();
        let mut blr =
            BayesianLinearRegression::new(BlrConfig { degree: 2, ..BlrConfig::default() });
        blr.fit(&xs, &ys).unwrap();
        let p = blr.predict(0.8).unwrap();
        let want = 1.0 - 0.3 * 0.8 - 0.5 * 0.64;
        assert!((p.mean - want).abs() < 1e-2, "{} vs {want}", p.mean);
    }

    #[test]
    fn single_point_falls_back_to_prior_shrinkage() {
        let mut blr = BayesianLinearRegression::new(BlrConfig::default());
        blr.fit(&[0.0], &[0.7]).unwrap();
        let p = blr.predict(0.0).unwrap();
        // With one point the prediction is pulled toward it but the interval
        // must be wide.
        assert!((p.mean - 0.7).abs() < 0.1);
        assert!(p.uncertainty() > 0.1);
    }

    #[test]
    fn posterior_bookkeeping() {
        let (xs, ys) = line_data(10, 1.0, 0.0, 0.0);
        let mut blr = BayesianLinearRegression::new(BlrConfig::default());
        assert!(blr.posterior().is_none());
        let post = blr.fit(&xs, &ys).unwrap();
        assert_eq!(post.n, 10);
        assert!((post.a - (1.0 + 5.0)).abs() < 1e-12);
        assert!(post.b > 0.0);
    }

    #[test]
    fn conjugate_update_and_interval_match_closed_form() {
        // Three points on a degree-1 basis [1, x] under V₀ = 2·I. By hand:
        // precision V₀⁻¹ + XᵀX = [[7/2, 3], [3, 11/2]] (det 41/4), so
        // Vₙ = [[22, −12], [−12, 14]]/41; Xᵀy = [7, 10] gives
        // mₙ = [34, 56]/41; aₙ = 2 + 3/2; bₙ = ½ + ½(21 − mₙᵀXᵀy) = 52/41.
        let config = BlrConfig { degree: 1, prior_scale: 2.0, a0: 2.0, b0: 0.5, interval: 0.95 };
        let mut blr = BayesianLinearRegression::new(config);
        let post = blr.fit(&[0.0, 1.0, 2.0], &[1.0, 2.0, 4.0]).unwrap().clone();
        let close = |got: f64, want: f64, tol: f64| {
            assert!((got - want).abs() < tol, "got {got}, want {want}");
        };
        for (got, want) in post.mean.iter().zip([34.0 / 41.0, 56.0 / 41.0]) {
            close(*got, want, 1e-12);
        }
        let cov = [22.0 / 41.0, -12.0 / 41.0, -12.0 / 41.0, 14.0 / 41.0];
        for (got, want) in post.cov_scale.iter().zip(cov) {
            close(*got, want, 1e-12);
        }
        close(post.a, 3.5, 1e-12);
        close(post.b, 52.0 / 41.0, 1e-12);
        // Predictive: Student-t with 2aₙ = 7 degrees of freedom, scale
        // √((bₙ/aₙ)(1 + xᵀVₙx)); t₇(0.975) is the 95 % half-width factor.
        const T7_975: f64 = 2.364624251592785;
        for (x, mean, xvx) in [(1.0, 90.0 / 41.0, 12.0 / 41.0), (3.0, 202.0 / 41.0, 76.0 / 41.0)] {
            let p = blr.predict(x).unwrap();
            let scale = (52.0f64 / 41.0 / 3.5 * (1.0 + xvx)).sqrt();
            close(p.mean, mean, 1e-12);
            close(p.scale, scale, 1e-12);
            close(p.lower, mean - T7_975 * scale, 1e-9);
            close(p.upper, mean + T7_975 * scale, 1e-9);
        }
    }

    #[test]
    fn predict_before_fit_is_a_typed_error() {
        let blr = BayesianLinearRegression::new(BlrConfig::default());
        assert_eq!(blr.predict(0.0), Err(BayesError::Unfitted));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_inputs_panic() {
        BayesianLinearRegression::new(BlrConfig::default()).fit(&[0.0, 1.0], &[0.0]).unwrap();
    }

    #[test]
    fn constant_column_under_flat_prior_is_degenerate() {
        // A constant design (every observation at x = 2) makes XᵀX rank-1;
        // with an effectively flat prior the regularizer no longer hides
        // that, so the fit must refuse rather than emit a noise posterior.
        let xs = [2.0; 8];
        let ys = [0.5, 0.6, 0.4, 0.55, 0.5, 0.45, 0.6, 0.5];
        let mut blr =
            BayesianLinearRegression::new(BlrConfig { prior_scale: 1e12, ..BlrConfig::default() });
        match blr.fit(&xs, &ys) {
            Err(BayesError::Degenerate { condition }) => {
                assert!(condition > 1e12, "condition estimate {condition} too small")
            }
            other => panic!("expected Degenerate, got {other:?}"),
        }
        assert!(blr.posterior().is_none(), "a rejected fit must not leave a posterior");
        // The default prior regularizes the same design into a valid (if
        // heavily shrunk) posterior — degeneracy is about conditioning, not
        // about constant inputs per se.
        let mut regularized = BayesianLinearRegression::new(BlrConfig::default());
        assert!(regularized.fit(&xs, &ys).is_ok());
    }

    #[test]
    fn non_finite_observations_rejected() {
        let mut blr = BayesianLinearRegression::new(BlrConfig::default());
        assert_eq!(blr.fit(&[0.0, f64::NAN], &[0.1, 0.2]), Err(BayesError::NonFinite));
        assert_eq!(blr.fit(&[0.0, 1.0], &[0.1, f64::INFINITY]), Err(BayesError::NonFinite));
    }

    #[test]
    fn blr_error_display_is_informative() {
        assert!(BayesError::Degenerate { condition: 5e13 }.to_string().contains("near-singular"));
        assert!(BayesError::NonFinite.to_string().contains("non-finite"));
        let wrapped = BayesError::from(CholeskyError::NotPositiveDefinite { pivot: 0 });
        assert!(wrapped.to_string().contains("factorization failed"));
    }

    #[test]
    fn prediction_uncertainty_is_interval_width() {
        let (xs, ys) = line_data(12, 0.0, 0.5, 0.01);
        let mut blr = BayesianLinearRegression::new(BlrConfig::default());
        blr.fit(&xs, &ys).unwrap();
        let p = blr.predict(0.2).unwrap();
        assert!((p.uncertainty() - (p.upper - p.lower)).abs() < 1e-15);
        assert!(p.lower < p.mean && p.mean < p.upper);
    }
}
