//! # comet-baselines — the cleaning strategies COMET is evaluated against
//!
//! The paper's §4.5 contenders, all running against the same simulated
//! [`CleaningEnvironment`](comet_core::CleaningEnvironment) as COMET so
//! their traces are directly comparable:
//!
//! * [`RandomCleaner`] (**RR**) — uniformly random dirty feature each step;
//!   the bench harness averages five repetitions,
//! * [`FeatureImportanceCleaner`] (**FIR**) — Shapley values computed once
//!   on the dirty data rank the features; clean top-ranked until exhausted,
//! * [`CometLight`] (**CL**) — one Estimator pass up front produces a
//!   static ranking; every iteration then runs COMET's own clean phase
//!   (step, revert, buffer, fallback) over it,
//! * [`ActiveClean`] (**AC**) — Krishnan et al.'s gradient-based record
//!   selection for convex-loss models, adapted to the feature-level budget
//!   accounting of §5.3,
//! * [`Oracle`] — the local optimum of §4.5: actually tries every candidate
//!   step and keeps the best gain/cost (upper bound).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod activeclean;
mod cl;
mod fir;
mod oracle;
mod rr;
mod strategy;

pub use activeclean::{ActiveClean, ActiveCleanConfig};
pub use cl::CometLight;
pub use fir::FeatureImportanceCleaner;
pub use oracle::Oracle;
pub use rr::RandomCleaner;
pub use strategy::average_traces;
