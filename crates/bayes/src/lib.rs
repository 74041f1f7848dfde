//! # comet-bayes — Bayesian regression and statistics substrate
//!
//! COMET's Estimator (paper §3.2) fits a Bayesian regression through the
//! (pollution level → F1 score) measurements and extrapolates one cleaning
//! step backwards; the *width of the predictive credible interval* is the
//! uncertainty `U(f)` used in the Recommender's score (§3.3). This crate
//! provides that machinery from scratch:
//!
//! * [`BayesianLinearRegression`] — conjugate Normal–Inverse-Gamma linear
//!   regression with closed-form posterior and Student-t predictive
//!   distribution (mean + credible interval),
//! * [`PolynomialBasis`] — feature expansion for curved degradation trends,
//! * [`Ols`] — ordinary least squares (cross-check and baseline),
//! * [`StudentT`] — CDF/quantiles via the regularized incomplete beta
//!   function (Lanczos log-gamma + Lentz continued fraction),
//! * [`RunningStats`] — online mean (the Estimator's bias correction),
//! * small dense linear algebra (Cholesky solve) shared by the above.

mod blr;
mod linalg;
mod ols;
mod poly;
mod running;
mod special;
mod student_t;

pub use blr::{BayesError, BayesianLinearRegression, BlrConfig, Posterior, Prediction};
pub use linalg::{cholesky_solve, CholeskyError};
pub use ols::Ols;
pub use poly::PolynomialBasis;
pub use running::RunningStats;
pub use special::{ln_gamma, regularized_incomplete_beta};
pub use student_t::StudentT;
