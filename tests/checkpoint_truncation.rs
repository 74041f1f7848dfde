//! Property-based crash-recovery: a checkpoint truncated at an
//! *arbitrary byte* — the worst a `kill -9` or a full disk can leave
//! behind — must either resume bit-identically or fail with a typed
//! [`CometError::Checkpoint`], never panic. And a torn checkpoint must
//! never contaminate its neighbours: sibling sessions resuming from
//! their own (intact) files in the same directory stay bit-identical
//! regardless of what the truncated one does. The loader is fuzzed the
//! same way with flipped bytes and with lines spliced in from a sibling
//! seed's checkpoint: a resume reproduces the reference trace and
//! rewrites the reference checkpoint, or fails typed.

use comet::core::{build_paired_env, CheckpointSpec, CleaningSession, CometConfig, CometError};
use comet::frame::{Cell, Column, DataFrame};
use comet::jenga::ErrorType;
use comet::ml::{Algorithm, RandomSearch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Seeds of the sibling sessions sharing one store directory.
const SEEDS: [u64; 3] = [11, 22, 33];

/// A small dirty/clean pair with enough dirt in both features for a
/// session to take several checkpointed iterations.
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

fn session_config() -> CometConfig {
    CometConfig { budget: 6.0, ..CometConfig::default() }
}

/// Run one full session for `seed`, checkpointing to `path`. Returns the
/// trace CSV (the byte-identity witness).
fn run_session(seed: u64, path: &Path, resume: bool) -> Result<String, CometError> {
    let (dirty, clean) = toy_pair();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = build_paired_env(
        dirty,
        Some(clean),
        Algorithm::Knn,
        0.05,
        RandomSearch { n_samples: 1, ..RandomSearch::default() },
        7,
        comet::frame::DEFAULT_SEGMENT_ROWS,
        &mut rng,
    )?;
    let session = CleaningSession::new(session_config(), ErrorType::ALL.to_vec())
        .with_checkpoint(CheckpointSpec { path: path.into(), resume });
    let outcome = session.run(&mut env, &mut rng)?;
    Ok(outcome.trace.to_csv(Some(env.train())))
}

struct Reference {
    dir: PathBuf,
    /// Per seed: (trace CSV, checkpoint bytes of the completed run).
    runs: Vec<(String, Vec<u8>)>,
}

/// The uninterrupted reference runs, computed once: truncation cases
/// compare against these bytes.
fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("comet-ckpt-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let runs = SEEDS
            .iter()
            .map(|&seed| {
                let path = dir.join(format!("ref-{seed}.jsonl"));
                let trace = run_session(seed, &path, false).expect("reference run");
                let bytes = std::fs::read(&path).expect("reference checkpoint");
                assert!(
                    bytes.iter().filter(|&&b| b == b'\n').count() >= 3,
                    "reference checkpoint too short for interesting truncations"
                );
                (trace, bytes)
            })
            .collect();
        Reference { dir, runs }
    })
}

/// Check one resumed session of `SEEDS[i]`: it reproduced the reference
/// trace and rewrote the reference checkpoint at `path` byte for byte, or
/// (only when `may_refuse`) it failed with a typed checkpoint error.
fn check_resumed(
    i: usize,
    path: &Path,
    result: Result<String, CometError>,
    may_refuse: bool,
) -> Result<(), TestCaseError> {
    let (expected_trace, expected_bytes) = &reference().runs[i];
    match result {
        Ok(trace) => {
            prop_assert_eq!(&trace, expected_trace, "session {} diverged after resume", SEEDS[i]);
            let rewritten = std::fs::read(path).unwrap();
            prop_assert!(
                &rewritten == expected_bytes,
                "session {} rewrote a different checkpoint",
                SEEDS[i]
            );
        }
        // Typed refusal is the other legal outcome for a damaged file
        // (e.g. the damage landed in the header).
        Err(CometError::Checkpoint(_)) if may_refuse => {}
        Err(e) => {
            return Err(TestCaseError(format!(
                "session {} failed with an untyped or unexpected error: {e}",
                SEEDS[i]
            )))
        }
    }
    Ok(())
}

/// The checkpoint's lines, each with its newline.
fn lines(bytes: &[u8]) -> Vec<&[u8]> {
    bytes.split_inclusive(|&b| b == b'\n').collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Truncate one sibling's checkpoint at an arbitrary byte while the
    /// other sessions resume from intact files in the same directory,
    /// everyone concurrently. The truncated session resumes
    /// bit-identically or fails with a typed checkpoint error; the
    /// siblings are bit-identical unconditionally.
    #[test]
    fn truncated_checkpoints_resume_exactly_or_fail_typed(
        victim in 0usize..SEEDS.len(),
        cut_frac in 0.0f64..1.0,
        case in 0u64..1_000_000,
    ) {
        let reference = reference();
        let case_dir = reference.dir.join(format!("case-{case}"));
        std::fs::create_dir_all(&case_dir).unwrap();
        let mut paths = Vec::new();
        for (i, &seed) in SEEDS.iter().enumerate() {
            let path = case_dir.join(format!("ckpt-{seed}.jsonl"));
            let bytes = &reference.runs[i].1;
            let written: &[u8] = if i == victim {
                let cut = ((bytes.len() as f64) * cut_frac) as usize;
                &bytes[..cut.min(bytes.len())]
            } else {
                bytes
            };
            std::fs::write(&path, written).unwrap();
            paths.push(path);
        }

        // Resume all three concurrently — sibling writes must not leak
        // into each other's files or traces.
        let results: Vec<Result<String, CometError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = SEEDS
                .iter()
                .zip(&paths)
                .map(|(&seed, path)| scope.spawn(move || run_session(seed, path, true)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).collect()
        });

        for (i, result) in results.into_iter().enumerate() {
            check_resumed(i, &paths[i], result, i == victim)?;
        }
        std::fs::remove_dir_all(&case_dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// XOR one byte anywhere in a checkpoint with a non-zero mask: a
    /// changed identity, version, record kind or verification value is
    /// refused, a line that no longer parses ends the load like a torn
    /// tail, and whatever the loader accepts must replay exactly.
    #[test]
    fn flipped_checkpoints_resume_exactly_or_fail_typed(
        victim in 0usize..SEEDS.len(),
        at_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let reference = reference();
        let mut bytes = reference.runs[victim].1.clone();
        let at = ((bytes.len() as f64 * at_frac) as usize).min(bytes.len() - 1);
        bytes[at] ^= mask;
        let path = reference.dir.join(format!("flip-{victim}-{at}-{mask}.jsonl"));
        std::fs::write(&path, &bytes).unwrap();
        let result = run_session(SEEDS[victim], &path, true);
        check_resumed(victim, &path, result, true)?;
        std::fs::remove_file(&path).ok();
    }

    /// Put one line of a sibling seed's checkpoint into the victim's, in
    /// place of one of its lines or before it. A foreign header names
    /// another session seed, and a foreign iteration record fails
    /// verification where the replay reaches it, so every splice is
    /// refused except a foreign header put before the victim's own, which
    /// the victim's header then overrides.
    #[test]
    fn spliced_checkpoints_resume_exactly_or_fail_typed(
        victim in 0usize..SEEDS.len(),
        donor_step in 1usize..SEEDS.len(),
        donor_frac in 0.0f64..1.0,
        at_frac in 0.0f64..1.0,
        replace in any::<bool>(),
    ) {
        let reference = reference();
        let donor = (victim + donor_step) % SEEDS.len();
        let donor_lines = lines(&reference.runs[donor].1);
        let line = donor_lines[(donor_lines.len() as f64 * donor_frac) as usize];
        let mut spliced = lines(&reference.runs[victim].1);
        let at = (spliced.len() as f64 * at_frac) as usize;
        if replace {
            spliced[at] = line;
        } else {
            spliced.insert(at, line);
        }
        let path = reference.dir.join(format!("splice-{victim}-{donor}-{at}-{replace}.jsonl"));
        std::fs::write(&path, spliced.concat()).unwrap();
        let result = run_session(SEEDS[victim], &path, true);
        let overridden = !replace && at == 0 && line.starts_with(b"{\"kind\":\"checkpoint_header\"");
        prop_assert!(
            overridden || matches!(result, Err(CometError::Checkpoint(_))),
            "a spliced checkpoint resumed: {:?}", result
        );
        check_resumed(victim, &path, result, true)?;
        std::fs::remove_file(&path).ok();
    }
}

/// Deterministic corner cases the generator might miss: empty file,
/// header-only prefix, and a cut exactly on a line boundary.
#[test]
fn truncation_corner_cases() {
    let reference = reference();
    let dir = reference.dir.join("corners");
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = &reference.runs[0].1;
    let expected = &reference.runs[0].0;

    // Empty file: typed error (no header), never a panic.
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, b"").unwrap();
    assert!(matches!(run_session(SEEDS[0], &empty, true), Err(CometError::Checkpoint(_))));

    // Header only: a resume that replays nothing and recomputes everything.
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let header_only = dir.join("header.jsonl");
    std::fs::write(&header_only, &bytes[..header_end]).unwrap();
    assert_eq!(&run_session(SEEDS[0], &header_only, true).unwrap(), expected);

    // Cut at the penultimate line boundary: replays all but the tail.
    let cuts: Vec<usize> =
        bytes.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1).collect();
    let partial = dir.join("partial.jsonl");
    std::fs::write(&partial, &bytes[..cuts[cuts.len() - 2]]).unwrap();
    assert_eq!(&run_session(SEEDS[0], &partial, true).unwrap(), expected);

    std::fs::remove_dir_all(&dir).ok();
}
