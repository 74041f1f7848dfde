//! # comet-frame — columnar dataset substrate
//!
//! A small, dependency-free, typed columnar data frame built for the COMET
//! reproduction. The paper's reference implementation sits on top of pandas;
//! this crate provides the subset of functionality COMET actually needs, with
//! explicit missing-value tracking (a first-class error type in the paper):
//!
//! * typed columns — numeric (`f64`) and categorical (dictionary-encoded
//!   `u32` codes), stored as chunked row segments
//!   ([`DEFAULT_SEGMENT_ROWS`] rows each) behind per-segment `Arc` CoW,
//! * a per-cell validity mask (missing values are *not* encoded as NaN),
//! * a schema with feature/label roles,
//! * cell-level reads/writes (the Polluter and Cleaner mutate single cells),
//! * CSV round-trips (streamed row-by-row into segments) and (stratified)
//!   train/test splitting,
//! * per-column summary statistics,
//! * cheap 64-bit content fingerprints ([`Column::fingerprint`],
//!   [`DataFrame::fingerprint`]) keying `comet-core`'s detection memo and
//!   the feature cache's fitted statistics, plus memoized per-segment
//!   fingerprints keying feature-block caches and addressing the spill
//!   tier,
//! * an optional LRU spill-to-disk pool ([`spill_configure`]) that bounds
//!   resident segment bytes under a memory budget.
//!
//! The frame is column-major: every mutation COMET performs is column-local
//! (pollute feature `f`, clean feature `f`), so columns are independently
//! cloneable snapshots — cheap state save/restore is what the Recommender's
//! revert logic relies on. Segmenting makes that save/restore cheap *within*
//! a column too: a few-cell pollution on a million-row column un-shares and
//! re-fingerprints only the touched segments.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod builder;
mod column;
mod csv;
mod error;
mod fingerprint;
mod frame;
mod schema;
mod segment;
mod spill;
mod split;
mod stats;

pub use builder::{numeric_schema, ColumnBuilder, DataFrameBuilder};
pub use column::{Cell, Column};
pub use csv::{is_missing_sentinel, read_csv, read_csv_str, write_csv, write_csv_string};
pub use error::FrameError;
pub use fingerprint::fingerprint_bytes;
pub use frame::DataFrame;
pub use schema::{ColumnKind, FieldMeta, Role, Schema};
pub use segment::{SegmentView, DEFAULT_SEGMENT_ROWS};
pub use spill::{
    configure as spill_configure, deconfigure as spill_deconfigure,
    is_configured as spill_is_configured, publish_resident_gauge as spill_publish_resident_gauge,
    stats as spill_stats, take_error as spill_take_error, SpillStats,
};
pub use split::{train_test_split, SplitOptions, TrainTest};
pub use stats::{ColumnSummary, NumericSummary};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FrameError>;
