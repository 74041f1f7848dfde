//! # comet-core — the COMET cleaning-recommendation engine
//!
//! Implements the system of *"Step-by-Step Data Cleaning Recommendations to
//! Improve ML Prediction Accuracy"* (EDBT 2025): given a dirty dataset, a
//! target ML algorithm, and a cleaning budget, COMET recommends — one
//! cleaning step at a time — which feature (and error type) to clean next
//! so the model's F1 improves the most per unit of cleaning cost.
//!
//! Architecture (paper Figure 2):
//!
//! * [`Polluter`] (§3.1) — injects *additional* errors into each candidate
//!   feature at +1 and +2 pollution steps, several random cell combinations
//!   per level, never needing to know which cells are truly dirty,
//! * [`Estimator`] (§3.2) — trains the target model on every polluted
//!   variant, fits a Bayesian linear regression through the (pollution
//!   level → F1) points, and extrapolates one step *backwards* to predict
//!   the F1 after cleaning, with a credible-interval uncertainty; a
//!   per-feature bias correction learns from observed discrepancies (§3.3),
//! * [`Recommender`] (§3.3) — keeps positive-gain candidates, ranks them by
//!   `(gain − uncertainty) / cost` (Eq. 4), reverts cleaning steps that
//!   *decreased* F1 into a cleaning buffer, and falls back to the
//!   historically best feature when no candidate looks positive,
//! * [`CleaningSession`] — the outer loop tying the modules to a simulated
//!   Cleaner ([`CleaningEnvironment`]) under a [`Budget`] with per-error
//!   [`CostModel`]s (§4.2),
//! * [`CleaningTrace`] — per-step records (predicted vs actual F1, costs,
//!   reverts, fallbacks) from which every figure of the paper is derived.
//!
//! Fault tolerance (DESIGN.md §9): candidate failures are isolated and
//! retried ([`FaultPlan`] injects them deterministically for testing),
//! errors surface through the [`CometError`] taxonomy, and sessions can
//! checkpoint/resume via [`CheckpointSpec`]. Long-running hosts supervise
//! sessions through a [`SessionControl`] (cooperative cancel/deadline +
//! live best-so-far progress, DESIGN.md §14) and build environments via
//! [`build_paired_env`] so every front end constructs sessions
//! identically.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod budget;
mod checkpoint;
mod config;
mod control;
mod cost;
mod env;
mod error;
mod estimator;
mod faults;
mod metrics;
mod polluter;
mod recommender;
mod report;
mod session;
mod setup;
mod trace;

pub use budget::Budget;
pub use checkpoint::CheckpointSpec;
pub use config::CometConfig;
pub use control::{SessionControl, SessionProgress, StopReason};
pub use cost::{CostModel, CostPolicy};
pub use env::{CleaningEnvironment, EnvError, ModelSpec, StateSnapshot};
pub use error::CometError;
pub use estimator::{Estimate, Estimator};
pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use metrics::{IterationMetrics, PhaseNanos, RunMetrics, PHASES};
pub use polluter::{PollutedVariant, Polluter};
pub use recommender::{Candidate, Recommender};
pub use session::{CleaningSession, SessionOutcome, SessionState};
pub use setup::{build_paired_env, derive_provenance};
pub use trace::{CleaningTrace, FailureRecord, StepAction, StepRecord};
