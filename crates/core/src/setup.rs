//! Shared session setup: turn a (dirty, clean) frame pair into a ready
//! [`CleaningEnvironment`].
//!
//! This is the one place that knows how to derive a provenance oracle from
//! a dirty/clean diff and how to split/assemble the environment, so every
//! front end — the `comet recommend` CLI and the `comet-serve` daemon —
//! builds sessions identically. Identical construction order matters: the
//! split and the environment consume the caller's rng sequentially, and
//! any divergence between front ends would silently produce different
//! traces for the same seed.

use crate::env::{CleaningEnvironment, EnvError};
use crate::error::CometError;
use comet_frame::{
    train_test_split, Cell, Column, ColumnBuilder, ColumnKind, DataFrame, FrameError, SplitOptions,
};
use comet_jenga::{ErrorType, GroundTruth, Provenance};
use comet_ml::{Algorithm, Metric, RandomSearch};
use rand::Rng;

/// Classify each dirty cell's apparent error type from the dirty/clean
/// diff: empty cells are missing values; changed categoricals are shifts;
/// changed numerics with a power-of-ten ratio are scaling, otherwise
/// noise. This is the oracle-mode candidate source (detection-seeded
/// sessions ignore it).
pub fn derive_provenance(dirty: &DataFrame, gt: &GroundTruth) -> Result<Provenance, CometError> {
    let mut prov = Provenance::for_frame(dirty);
    for col in dirty.feature_indices() {
        let rows = gt.dirty_rows(dirty, col).map_err(EnvError::from)?;
        for row in rows {
            let dirty_cell = dirty.get(row, col)?;
            let clean_cell = gt.clean().get(row, col)?;
            let err = match (dirty_cell, clean_cell) {
                (Cell::Missing, _) => ErrorType::MissingValues,
                (Cell::Cat(_), _) => ErrorType::CategoricalShift,
                (Cell::Num(d), Cell::Num(c)) if c != 0.0 => {
                    let ratio = d / c;
                    let is_pow10 = [10.0, 100.0, 1000.0, 0.1, 0.01, 0.001]
                        .iter()
                        .any(|f| (ratio - f).abs() < 1e-9);
                    if is_pow10 {
                        ErrorType::Scaling
                    } else {
                        ErrorType::GaussianNoise
                    }
                }
                _ => ErrorType::GaussianNoise,
            };
            prov.record(col, row, err);
        }
    }
    Ok(prov)
}

/// Assemble a [`CleaningEnvironment`] from a dirty frame and its clean
/// reference (the simulated Cleaner's ground truth). One split — drawn
/// from `rng` on the *clean* frame — drives both versions, and the
/// provenance oracle is derived from the per-split diffs.
///
/// With `clean == None` the data is treated as its own ground truth
/// (evaluate-only use; no dirt, no candidates). Otherwise the two frames
/// must share a schema, and the clean frame's categorical codes are
/// re-encoded onto the dirty frame's dictionaries (see
/// [`align_dictionaries`]) so every code comparison names one label.
///
/// `segment_rows` sets the column segment size for both frames (`0` =
/// whole-column); the re-segmentation happens before the split so the
/// train/test frames, their ground truths, and every pollution clone in
/// the session inherit it. Traces are bit-identical across segment sizes.
#[allow(clippy::too_many_arguments)]
pub fn build_paired_env<R: Rng>(
    dirty: DataFrame,
    clean: Option<DataFrame>,
    algorithm: Algorithm,
    step_frac: f64,
    search: RandomSearch,
    eval_seed: u64,
    segment_rows: usize,
    rng: &mut R,
) -> Result<CleaningEnvironment, CometError> {
    let mut dirty = dirty.resegment(segment_rows).map_err(EnvError::from)?;
    let clean = match clean {
        Some(clean) => {
            if dirty.nrows() != clean.nrows() || dirty.ncols() != clean.ncols() {
                return Err(CometError::Invalid(format!(
                    "dirty and clean frames must have identical shapes \
                     (dirty {}x{}, clean {}x{})",
                    dirty.nrows(),
                    dirty.ncols(),
                    clean.nrows(),
                    clean.ncols()
                )));
            }
            let clean = align_dictionaries(&mut dirty, clean)?;
            clean.resegment(segment_rows).map_err(EnvError::from)?
        }
        None => dirty.clone(),
    };
    // One split drives both versions.
    let tt = train_test_split(&clean, SplitOptions::default(), rng).map_err(EnvError::from)?;
    let dirty_train = dirty.take(&tt.train_rows)?;
    let dirty_test = dirty.take(&tt.test_rows)?;
    let gt_train = GroundTruth::new(tt.train);
    let gt_test = GroundTruth::new(tt.test);
    let prov_train = derive_provenance(&dirty_train, &gt_train)?;
    let prov_test = derive_provenance(&dirty_test, &gt_test)?;
    Ok(CleaningEnvironment::new(
        dirty_train,
        dirty_test,
        gt_train,
        gt_test,
        prov_train,
        prov_test,
        algorithm,
        Metric::F1,
        step_frac,
        search,
        eval_seed,
        rng,
    )?)
}

/// Refuse a clean frame whose schema differs from the dirty one's, naming
/// the first differing column, then re-encode each clean categorical column
/// (the label included) onto the dirty column's dictionary by label. A CSV
/// numbers its categories in first-appearance order, so a pollution that
/// changes which label comes first gives the two files different codes for
/// the same label. A label only the clean frame has is appended to the
/// dirty dictionary; dirty codes never change. Columns whose dictionaries
/// already agree are left untouched.
fn align_dictionaries(
    dirty: &mut DataFrame,
    mut clean: DataFrame,
) -> Result<DataFrame, CometError> {
    let fields = dirty.schema().fields().iter().zip(clean.schema().fields());
    if let Some((col, (d, c))) = fields.enumerate().find(|(_, (d, c))| d != c) {
        return Err(CometError::Invalid(format!(
            "dirty and clean frames must have identical schemas: column {col} is {:?} \
             ({} {:?}) in the dirty frame, {:?} ({} {:?}) in the clean frame",
            d.name,
            d.kind.name(),
            d.role,
            c.name,
            c.kind.name(),
            c.role
        )));
    }
    for col in 0..dirty.ncols() {
        let (d, c) = (dirty.column(col)?, clean.column(col)?);
        if d.kind() != ColumnKind::Categorical || d.categories() == c.categories() {
            continue;
        }
        let mut dict = d.categories().to_vec();
        let to_dirty: Vec<u32> = c
            .categories()
            .iter()
            .map(|label| match dict.iter().position(|l| l == label) {
                Some(code) => code as u32,
                None => {
                    dict.push(label.clone());
                    dict.len() as u32 - 1
                }
            })
            .collect();
        let grown = dict.len() > d.categories().len();
        let recode = |column: &Column, map: &dyn Fn(u32) -> u32| -> Result<Column, FrameError> {
            let mut out =
                ColumnBuilder::categorical(column.name(), dict.clone(), column.segment_rows());
            for row in 0..column.len() {
                out.push_cat(column.cat(row).map(map))?;
            }
            Ok(out.finish())
        };
        let clean_col = recode(c, &|code| to_dirty[code as usize])?;
        let dirty_col = if grown { Some(recode(d, &|code| code)?) } else { None };
        clean.replace_column(col, clean_col)?;
        if let Some(dirty_col) = dirty_col {
            dirty.replace_column(col, dirty_col)?;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_frame::Column;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_pair() -> (DataFrame, DataFrame) {
        let n = 40;
        let x: Vec<f64> =
            (0..n).map(|i| if i % 2 == 0 { -2.0 } else { 2.0 } + i as f64 * 0.01).collect();
        let z: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
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
        dirty.set(0, 0, Cell::Missing).unwrap();
        dirty.set(1, 0, Cell::Num(dirty_num(&clean, 1, 0) * 100.0)).unwrap();
        dirty.set(2, 1, Cell::Num(dirty_num(&clean, 2, 1) + 0.37)).unwrap();
        (dirty, clean)
    }

    fn dirty_num(df: &DataFrame, row: usize, col: usize) -> f64 {
        match df.get(row, col).unwrap() {
            Cell::Num(v) => v,
            other => panic!("expected numeric cell, got {other:?}"),
        }
    }

    #[test]
    fn provenance_derivation_classifies_errors() {
        let (dirty, clean) = toy_pair();
        let gt = GroundTruth::new(clean);
        let prov = derive_provenance(&dirty, &gt).unwrap();
        assert_eq!(prov.get(0, 0), Some(ErrorType::MissingValues));
        assert_eq!(prov.get(0, 1), Some(ErrorType::Scaling));
        assert_eq!(prov.get(1, 2), Some(ErrorType::GaussianNoise));
        assert_eq!(prov.get(1, 0), None);
    }

    #[test]
    fn paired_env_builds_and_rejects_shape_mismatch() {
        let (dirty, clean) = toy_pair();
        let mut rng = StdRng::seed_from_u64(3);
        let env = build_paired_env(
            dirty.clone(),
            Some(clean.clone()),
            Algorithm::Knn,
            0.05,
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            7,
            comet_frame::DEFAULT_SEGMENT_ROWS,
            &mut rng,
        )
        .unwrap();
        assert_eq!(env.train().nrows() + env.test().nrows(), clean.nrows());

        let truncated = clean.take(&(0..clean.nrows() - 1).collect::<Vec<_>>()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let err = build_paired_env(
            dirty,
            Some(truncated),
            Algorithm::Knn,
            0.05,
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            7,
            comet_frame::DEFAULT_SEGMENT_ROWS,
            &mut rng,
        )
        .unwrap_err();
        assert!(
            matches!(err, CometError::Invalid(ref m) if m.contains("identical shapes")),
            "{err}"
        );
    }

    #[test]
    fn self_ground_truth_env_has_no_candidates() {
        let (_, clean) = toy_pair();
        let mut rng = StdRng::seed_from_u64(9);
        let env = build_paired_env(
            clean,
            None,
            Algorithm::Knn,
            0.05,
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            7,
            comet_frame::DEFAULT_SEGMENT_ROWS,
            &mut rng,
        )
        .unwrap();
        assert!(env.candidate_pairs(&ErrorType::ALL).is_empty());
    }

    /// A frame with a numeric feature, a categorical feature `c` holding
    /// `labels`, and a label column, each dictionary numbered in
    /// first-appearance order the way the CSV reader numbers it.
    fn csv_like(labels: &[&str]) -> DataFrame {
        let mut dict: Vec<String> = Vec::new();
        let codes = labels
            .iter()
            .map(|&l| match dict.iter().position(|d| d == l) {
                Some(code) => code as u32,
                None => {
                    dict.push(l.to_string());
                    dict.len() as u32 - 1
                }
            })
            .collect();
        let n = labels.len();
        let x = (0..n).map(|i| if i % 2 == 0 { -2.0 } else { 2.0 } + i as f64 * 0.01).collect();
        let y = (0..n).map(|i| (i % 2) as u32).collect();
        DataFrame::new(
            vec![
                Column::numeric("x", x),
                Column::categorical("c", codes, dict).unwrap(),
                Column::categorical("y", y, vec!["no".into(), "yes".into()]).unwrap(),
            ],
            Some("y"),
        )
        .unwrap()
    }

    fn paired(dirty: DataFrame, clean: DataFrame) -> Result<CleaningEnvironment, CometError> {
        let mut rng = StdRng::seed_from_u64(3);
        let search = RandomSearch { n_samples: 1, ..RandomSearch::default() };
        build_paired_env(dirty, Some(clean), Algorithm::Knn, 0.05, search, 7, 0, &mut rng)
    }

    fn alternating(n: usize) -> Vec<&'static str> {
        (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect()
    }

    #[test]
    fn paired_env_compares_categories_by_label_after_a_first_row_shift() {
        let clean = alternating(40);
        let mut dirty = clean.clone();
        for row in [0, 6, 12] {
            dirty[row] = "b";
        }
        // Row 0's shift makes the dirty dictionary [b, a] against the clean
        // [a, b]: by code, every unshifted cell would look dirty.
        let env = paired(csv_like(&dirty), csv_like(&clean)).unwrap();
        assert_eq!(env.total_dirty().unwrap(), 3);
    }

    #[test]
    fn clean_only_label_joins_the_dirty_dictionary_and_is_restorable() {
        let mut clean = alternating(40);
        clean[3] = "c";
        let mut dirty = clean.clone();
        dirty[3] = "b";
        let mut env = paired(csv_like(&dirty), csv_like(&clean)).unwrap();
        assert_eq!(env.total_dirty().unwrap(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let (train, test) =
            env.clean_step(1, ErrorType::CategoricalShift, &[], &[], &mut rng).unwrap();
        assert_eq!(train + test, 1);
        assert_eq!(env.total_dirty().unwrap(), 0);
    }

    #[test]
    fn schema_mismatch_is_a_typed_error_naming_the_column() {
        let clean = csv_like(&alternating(40));
        let mut columns = clean.columns().to_vec();
        columns[1] = columns[1].clone().with_name("kind");
        let dirty = DataFrame::new(columns, Some("y")).unwrap();
        let err = paired(dirty, clean).unwrap_err();
        assert!(
            matches!(&err, CometError::Invalid(m) if m.contains("\"kind\"") && m.contains("\"c\"")),
            "{err}"
        );
    }
}
