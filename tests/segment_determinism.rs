//! Segmentation is a storage layout, not a semantic: the same session must
//! produce byte-identical traces whether its frames live in one segment,
//! 64Ki-row segments, or absurdly small ones — across thread counts, under
//! a spill budget tight enough to page every segment to disk, and across a
//! kill-and-resume mid-run. These tests are the determinism contract of
//! DESIGN.md §15.
//!
//! The spill pool is process-global, so every test here serializes on one
//! mutex (other integration-test binaries are separate processes and
//! cannot interfere).

use comet::core::{build_paired_env, CheckpointSpec, CleaningSession, CometConfig, CometError};
use comet::frame::{Cell, Column, DataFrame};
use comet::jenga::ErrorType;
use comet::ml::{Algorithm, RandomSearch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

static POOL_LOCK: Mutex<()> = Mutex::new(());

fn lock_pool() -> MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet-segdet-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A dirty/clean pair with enough dirt in both features for a session to
/// take several iterations (same shape as the checkpoint-truncation toy).
fn toy_pair() -> (DataFrame, DataFrame) {
    let n = 40;
    let x: Vec<f64> =
        (0..n).map(|i| if i % 2 == 0 { -2.0 } else { 2.0 } + i as f64 * 0.01).collect();
    let z: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let labels: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
    let clean = DataFrame::new(
        vec![
            Column::numeric("x", x),
            Column::numeric("z", z),
            Column::categorical("y", labels, vec!["no".into(), "yes".into()]).unwrap(),
        ],
        Some("y"),
    )
    .unwrap();
    let mut dirty = clean.clone();
    for row in [0, 5, 10, 15, 20, 25] {
        dirty.set(row, 0, Cell::Missing).unwrap();
    }
    for row in [2, 9, 16, 23] {
        dirty.set(row, 1, Cell::Num(1e4 + row as f64)).unwrap();
    }
    (dirty, clean)
}

/// Run one full session at the given segment size, returning the trace CSV
/// (the byte-identity witness). `checkpoint` optionally records/resumes.
fn run_trace(seg_rows: usize, checkpoint: Option<(&Path, bool)>) -> Result<String, CometError> {
    let (dirty, clean) = toy_pair();
    let mut rng = StdRng::seed_from_u64(17);
    let mut env = build_paired_env(
        dirty,
        Some(clean),
        Algorithm::Knn,
        0.05,
        RandomSearch { n_samples: 1, ..RandomSearch::default() },
        7,
        seg_rows,
        &mut rng,
    )?;
    let config = CometConfig { budget: 6.0, segment_rows: seg_rows, ..CometConfig::default() };
    let mut session = CleaningSession::new(config, ErrorType::ALL.to_vec());
    if let Some((path, resume)) = checkpoint {
        session = session.with_checkpoint(CheckpointSpec { path: path.into(), resume });
    }
    let outcome = session.run(&mut env, &mut rng)?;
    Ok(outcome.trace.to_csv(Some(env.train())))
}

/// The core contract: segment size × thread count never changes a trace.
/// Sizes cover pathological (3 rows), boundary-straddling (16), the default
/// (64Ki ⇒ single segment here), and the whole-column sentinel (0).
#[test]
fn traces_bit_identical_across_segment_sizes_and_threads() {
    let _guard = lock_pool();
    let reference = run_trace(comet::frame::DEFAULT_SEGMENT_ROWS, None).unwrap();
    assert!(reference.lines().count() > 1, "session must actually take steps");
    for seg_rows in [3usize, 16, 0] {
        for threads in [1usize, 2, 8] {
            let trace = comet::par::with_threads(threads, || run_trace(seg_rows, None)).unwrap();
            assert_eq!(
                trace, reference,
                "trace diverged at seg_rows={seg_rows}, threads={threads}"
            );
        }
    }
}

/// Same contract with the spill tier armed so tightly that every segment
/// pages to disk: an out-of-core run is bit-identical to the in-memory one,
/// and actually spilled.
#[test]
fn traces_bit_identical_under_spill_pressure() {
    let _guard = lock_pool();
    let reference = run_trace(comet::frame::DEFAULT_SEGMENT_ROWS, None).unwrap();
    let dir = temp_dir("spill");
    comet::frame::spill_configure(&dir, 64).unwrap();
    let result = comet::par::with_threads(2, || run_trace(8, None));
    let stats = comet::frame::spill_stats().unwrap();
    comet::frame::spill_deconfigure();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(result.unwrap(), reference, "out-of-core trace diverged");
    assert!(stats.spills > 0, "a 64-byte budget must force spills: {stats:?}");
}

/// Kill-and-resume mid-spill: truncate a completed run's checkpoint at a
/// line boundary (what a `kill -9` leaves behind) and resume under the same
/// tight spill budget — the replayed-plus-recomputed trace is bit-identical.
#[test]
fn kill_and_resume_mid_spill_is_bit_identical() {
    let _guard = lock_pool();
    let dir = temp_dir("resume");
    comet::frame::spill_configure(dir.join("spill"), 64).unwrap();

    let ckpt = dir.join("ckpt.jsonl");
    let reference = run_trace(8, Some((&ckpt, false))).unwrap();
    let bytes = std::fs::read(&ckpt).unwrap();
    let cuts: Vec<usize> =
        bytes.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1).collect();
    assert!(cuts.len() >= 3, "need several checkpointed iterations to cut");
    std::fs::write(&ckpt, &bytes[..cuts[cuts.len() - 2]]).unwrap();

    let resumed = run_trace(8, Some((&ckpt, true))).unwrap();
    comet::frame::spill_deconfigure();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(resumed, reference, "resume after mid-spill kill diverged");
}

/// Spill files and feature blocks are addressed per segment, so resuming a
/// checkpoint under a different segment size must be refused loudly, not
/// silently recomputed.
#[test]
fn resume_with_different_segment_size_is_refused() {
    let _guard = lock_pool();
    let dir = temp_dir("refuse");
    let ckpt = dir.join("ckpt.jsonl");
    run_trace(8, Some((&ckpt, false))).unwrap();
    let err = run_trace(16, Some((&ckpt, true))).unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(err, CometError::Checkpoint(ref m) if m.contains("segment_rows")),
        "expected a typed segment_rows refusal, got: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random pollute/restore/set sequences applied to copies of one
    /// column at segment sizes {1, 7, 64Ki ⇒ single, whole-column} leave
    /// every copy with identical cells and an identical fingerprint.
    /// Each op is (kind, row, value): kind 0 pollutes (→ missing), kind 1
    /// restores the original value, kind 2 sets a fresh one.
    #[test]
    fn random_edit_sequences_are_segment_size_invariant(
        ops in prop::collection::vec((0u8..3, 0usize..50, -1e3f64..1e3), 1..40),
    ) {
        let _guard = lock_pool();
        let base: Vec<f64> = (0..50).map(|i| (i as f64) * 0.75 - 12.0).collect();
        let whole = Column::numeric("x", base.clone());
        let mut copies: Vec<Column> = [1usize, 7, comet::frame::DEFAULT_SEGMENT_ROWS, 0]
            .iter()
            .map(|&s| whole.resegment(s).unwrap())
            .collect();
        for &(kind, row, v) in &ops {
            let cell = match kind {
                0 => Cell::Missing,
                1 => Cell::Num(base[row]),
                _ => Cell::Num(v),
            };
            for col in &mut copies {
                col.set(row, cell).unwrap();
            }
        }
        let fp = copies[0].fingerprint();
        for (i, col) in copies.iter().enumerate() {
            prop_assert_eq!(col.fingerprint(), fp, "fingerprint diverged for copy {}", i);
            for row in 0..50 {
                prop_assert_eq!(
                    col.get(row).unwrap(),
                    copies[0].get(row).unwrap(),
                    "cell ({}, copy {}) diverged", row, i
                );
            }
        }
    }
}
