//! # comet-perf — the end-to-end and per-layer benchmark
//!
//! `perf run --workload W --seed N --seconds S --trace 0|1` measures one
//! workload in a fresh child process and prints every metric with its
//! unit, then one JSON result line. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the per-layer ones, from a traced run
//! that replays each session's first iteration one public call at a time.
//! `perf compare PARENT_DIR CHANGE_DIR` judges a change against its parent
//! from `--out` run files. See `README.md` for the metric catalogue.
//!
//! Every timing is taken from outside the program: around calls into each
//! crate's public functions, plus the session phases and `comet_obs`
//! counters the program already exposes.

pub mod catalog;
pub mod compare;
mod grid;
mod layers;
mod oocore;
mod replay;
pub mod run;
mod serve;
pub mod spans;
pub mod stats;
pub mod workload;
