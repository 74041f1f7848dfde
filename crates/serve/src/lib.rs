//! # comet-serve — the fault-tolerant multi-tenant session daemon
//!
//! A long-running service hosting COMET cleaning sessions (DESIGN.md
//! §14). Clients talk a length-prefixed JSON protocol ([`protocol`]) over
//! a local TCP socket: upload datasets, start sessions (oracle or
//! detection-seeded), poll status and best-so-far results while a session
//! runs, stream step records, cancel, and drain the daemon.
//!
//! Robustness model, in one paragraph: the daemon never trusts a request
//! to finish. Admission ([`admission`]) is a pure function over queue and
//! tenant counts — past the high-water mark clients get *typed, retryable*
//! rejections with deterministic backoff hints instead of unbounded
//! queues. Accepted sessions are persisted (manifest first, response
//! second — [`store`]) so a `kill -9` loses no accepted work: on restart
//! the daemon scans its store, validates checkpoint identities, and
//! resumes interrupted sessions to bit-identical traces via the
//! comet-core checkpoint layer. Deadlines and cancels reach the running
//! session as cooperative flags (`SessionControl`) checked at iteration
//! boundaries; a stopped session checkpoints, releases its worker slot,
//! and reports its partial best-so-far as a normal result — graceful
//! degradation, not an error. I/O faults are injectable at the service
//! layer ([`faults`]) so the recovery paths are exercised by tests, not
//! just by outages.
//!
//! Threading: a fixed worker pool multiplexed over the `comet-par` global
//! budget (each busy worker occupies one slot, so daemon fan-out and
//! session fan-out share one cap), one accept thread, one supervisor
//! thread (deadline expiry + periodic serve report). The kernel tier is
//! process-global (`comet_ml::kernels::set_tier`), so one daemon pins one
//! tier for every session it hosts.
//!
//! This crate is in comet-lint's `TIMING_EXEMPT` set: deadlines, backoff,
//! and endpoint latency are wall-clock concepts *of the service layer*.
//! The hosted sessions never read clocks — determinism holds per session.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod admission;
pub mod client;
pub mod daemon;
pub mod faults;
pub mod protocol;
pub mod store;

pub use admission::{AdmissionConfig, Rejection};
pub use client::Client;
pub use daemon::{Daemon, ServeConfig};
pub use faults::{ServeFault, ServeFaultPlan};
pub use store::{Manifest, SessionStore};
