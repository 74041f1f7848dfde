//! # comet-jenga — data error injection framework
//!
//! A from-scratch reimplementation of the role JENGA (Schelter et al., EDBT
//! 2021) plays in the COMET paper: controlled injection of realistic data
//! errors into tabular datasets, plus the bookkeeping COMET's simulated
//! cleaning study needs.
//!
//! Components:
//!
//! * [`ErrorType`] — the four error types of paper §3.4 (missing values,
//!   Gaussian noise, categorical shift, scaling),
//! * [`inject`] / [`sample_rows`] — pollution primitives that corrupt chosen
//!   cells of one feature and report exactly what changed,
//! * [`PrePollutionPlan`] — the paper's §4.1 *pre-pollution settings*:
//!   per-feature pollution levels drawn from an exponential distribution,
//!   in a single-error or multi-error scenario, applied with independent
//!   randomness to train and test splits,
//! * [`GroundTruth`] — the clean reference used to *simulate* a Cleaner:
//!   which cells are dirty, restore chosen ones, residual-dirt queries
//!   (the Cleaner's step that chooses them is `comet-core`'s
//!   `CleaningEnvironment::clean_step`),
//! * [`Provenance`] — per-cell record of which error type polluted a cell,
//!   required for the multi-error scenario where cleaning costs differ per
//!   error type (§4.2).

mod error_type;
mod inject;
mod plan;
mod tracker;
mod util;

pub use error_type::ErrorType;
pub use inject::{inject, sample_rows, InjectionRecord};
pub use plan::{PrePollutionPlan, Scenario};
pub use tracker::{GroundTruth, Provenance};
pub use util::sample_normal;
