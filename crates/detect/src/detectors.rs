//! The detection ensemble.
//!
//! Every detector is a pure function of the frame and the configuration:
//! no RNG, no clocks, no hash-seeded iteration (groups live in `BTreeMap`s,
//! float sorts use `total_cmp`). Running twice — on any thread count —
//! yields the same flags in the same order.

use crate::config::{DetectorConfig, DetectorKind};
use crate::report::{DetectionReport, Flag};
use comet_frame::{Cell, ColumnKind, DataFrame, FrameError};
use std::collections::BTreeMap;

/// Rows beyond this, the O(n²) label-disagreement detector bows out.
const KNN_ROW_CAP: usize = 20_000;

/// Robust-sigma factor: for a normal distribution, `1.4826 · MAD ≈ σ`.
const MAD_TO_SIGMA: f64 = 1.4826;

/// How close (in decades) a value/median ratio must sit to an exact power
/// of ten for the domain detector to call it a unit error.
const DECADE_TOL: f64 = 0.15;

/// Robust per-column statistics shared by the domain, robust-z, and IQR
/// detectors. `None` when the column has no valid values.
struct NumStats {
    median: f64,
    q1: f64,
    q3: f64,
    iqr: f64,
    /// `1.4826 · MAD`; 0 when the column is degenerate.
    mad_scale: f64,
}

/// Linear-interpolation quantile of an ascending-sorted, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn num_stats(values: &[f64]) -> Option<NumStats> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let median = quantile(&sorted, 0.5);
    let q1 = quantile(&sorted, 0.25);
    let q3 = quantile(&sorted, 0.75);
    let mut dev: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
    dev.sort_unstable_by(f64::total_cmp);
    let mad = quantile(&dev, 0.5);
    Some(NumStats { median, q1, q3, iqr: q3 - q1, mad_scale: MAD_TO_SIGMA * mad })
}

impl NumStats {
    /// Tukey fence at `k · IQR` beyond the quartiles.
    fn outside_fence(&self, v: f64, k: f64) -> bool {
        v < self.q1 - k * self.iqr || v > self.q3 + k * self.iqr
    }
}

/// Valid numeric values of a column, paired with their row indices.
fn numeric_values(df: &DataFrame, col: usize) -> Result<Vec<(usize, f64)>, FrameError> {
    let c = df.column(col)?;
    Ok((0..c.len()).filter_map(|row| c.num(row).map(|v| (row, v))).collect())
}

/// Every cell of a column in row order, read one segment view at a time.
fn column_cells(df: &DataFrame, col: usize) -> Result<Vec<Cell>, FrameError> {
    let c = df.column(col)?;
    let mut cells = Vec::with_capacity(c.len());
    for seg in 0..c.n_segments() {
        let view = c.segment_view(seg)?;
        cells.extend((0..view.len()).map(|row| match (view.num(row), view.cat(row)) {
            (Some(v), _) => Cell::Num(v),
            (_, Some(code)) => Cell::Cat(code),
            _ => Cell::Missing,
        }));
    }
    Ok(cells)
}

/// Run the enabled detectors over `df` and collect the flag set.
///
/// Only feature columns are scanned, except the label-disagreement
/// detector, which flags cells of the label column. The report is sorted
/// and deterministic (see the crate docs for the full contract).
pub fn detect(df: &DataFrame, config: &DetectorConfig) -> Result<DetectionReport, FrameError> {
    config.validate().map_err(FrameError::InvalidArgument)?;
    let features = df.feature_indices();
    let numeric_features: Vec<usize> = features
        .iter()
        .copied()
        .filter(|&c| df.column(c).map(|col| col.kind() == ColumnKind::Numeric).unwrap_or(false))
        .collect();

    // Shared robust stats for every numeric feature column.
    let mut stats: BTreeMap<usize, NumStats> = BTreeMap::new();
    for &c in &numeric_features {
        let vals: Vec<f64> = numeric_values(df, c)?.into_iter().map(|(_, v)| v).collect();
        if let Some(s) = num_stats(&vals) {
            stats.insert(c, s);
        }
    }

    let mut flags: Vec<Flag> = Vec::new();
    for kind in config.enabled.iter() {
        match kind {
            DetectorKind::MissingSentinel => missing_sentinel(df, &features, &mut flags)?,
            DetectorKind::Domain => domain(df, &numeric_features, &stats, &mut flags)?,
            DetectorKind::RobustZ => robust_z(df, &numeric_features, &stats, config, &mut flags)?,
            DetectorKind::Iqr => iqr(df, &numeric_features, &stats, config, &mut flags)?,
            DetectorKind::NearDuplicate => near_duplicate(df, &features, config, &mut flags)?,
            DetectorKind::LabelDisagreement => {
                label_disagreement(df, &numeric_features, config, &mut flags)?
            }
        }
    }
    Ok(DetectionReport::new(flags))
}

/// Explicitly missing cells → `MissingValues`.
fn missing_sentinel(
    df: &DataFrame,
    features: &[usize],
    flags: &mut Vec<Flag>,
) -> Result<(), FrameError> {
    for &col in features {
        let c = df.column(col)?;
        for seg in 0..c.n_segments() {
            let offset = c.segment_offset(seg);
            let view = c.segment_view(seg)?;
            for local in 0..view.len() {
                if !view.is_valid(local) {
                    flags.push(Flag {
                        col,
                        row: offset + local,
                        detector: DetectorKind::MissingSentinel,
                        family: comet_jenga::ErrorType::MissingValues,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Domain violations. Two signals, checked in order for each value that
/// sits outside its own column's 1.5·IQR fence:
///
/// 1. `|v| / |median|` lands within [`DECADE_TOL`] of an exact power of ten
///    (1–6 decades, either direction) → `Scaling` (a unit error).
/// 2. the value falls inside a *sibling* numeric column's quartile bulk
///    → `SwappedFields` (the value belongs to another field's domain).
fn domain(
    df: &DataFrame,
    numeric_features: &[usize],
    stats: &BTreeMap<usize, NumStats>,
    flags: &mut Vec<Flag>,
) -> Result<(), FrameError> {
    for &col in numeric_features {
        let Some(s) = stats.get(&col) else { continue };
        for (row, v) in numeric_values(df, col)? {
            if !s.outside_fence(v, 1.5) {
                continue;
            }
            if is_decade_ratio(v, s.median) {
                flags.push(Flag {
                    col,
                    row,
                    detector: DetectorKind::Domain,
                    family: comet_jenga::ErrorType::Scaling,
                });
                continue;
            }
            let in_sibling_bulk = numeric_features.iter().any(|&other| {
                other != col
                    && stats.get(&other).is_some_and(|o| o.iqr > 0.0 && v >= o.q1 && v <= o.q3)
            });
            if in_sibling_bulk {
                flags.push(Flag {
                    col,
                    row,
                    detector: DetectorKind::Domain,
                    family: comet_jenga::ErrorType::SwappedFields,
                });
            }
        }
    }
    Ok(())
}

/// True when `|v| / |median|` is within [`DECADE_TOL`] of 10^±k, k = 1..=6.
fn is_decade_ratio(v: f64, median: f64) -> bool {
    if median == 0.0 || v == 0.0 || (v < 0.0) != (median < 0.0) {
        return false;
    }
    let decades = (v.abs() / median.abs()).log10();
    let nearest = decades.round();
    nearest != 0.0 && nearest.abs() <= 6.0 && (decades - nearest).abs() <= DECADE_TOL
}

/// Median/MAD robust z-score beyond `z_threshold` → `Outliers`.
fn robust_z(
    df: &DataFrame,
    numeric_features: &[usize],
    stats: &BTreeMap<usize, NumStats>,
    config: &DetectorConfig,
    flags: &mut Vec<Flag>,
) -> Result<(), FrameError> {
    for &col in numeric_features {
        let Some(s) = stats.get(&col) else { continue };
        if s.mad_scale <= 0.0 {
            continue; // degenerate column: over half the values identical
        }
        for (row, v) in numeric_values(df, col)? {
            if (v - s.median).abs() / s.mad_scale > config.z_threshold {
                flags.push(Flag {
                    col,
                    row,
                    detector: DetectorKind::RobustZ,
                    family: comet_jenga::ErrorType::Outliers,
                });
            }
        }
    }
    Ok(())
}

/// Outside the `iqr_k · IQR` Tukey fences → `Outliers`.
fn iqr(
    df: &DataFrame,
    numeric_features: &[usize],
    stats: &BTreeMap<usize, NumStats>,
    config: &DetectorConfig,
    flags: &mut Vec<Flag>,
) -> Result<(), FrameError> {
    for &col in numeric_features {
        let Some(s) = stats.get(&col) else { continue };
        if s.iqr <= 0.0 {
            continue;
        }
        for (row, v) in numeric_values(df, col)? {
            if s.outside_fence(v, config.iqr_k) {
                flags.push(Flag {
                    col,
                    row,
                    detector: DetectorKind::Iqr,
                    family: comet_jenga::ErrorType::Outliers,
                });
            }
        }
    }
    Ok(())
}

/// FNV-1a-style fold of one word into a running row signature.
fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17)
}

/// Near-duplicate rows via banded fingerprints.
///
/// Numeric cells quantize to buckets of half a standard deviation; two
/// bands at offsets 0 and ½ keep a jittered pair from being split by a
/// single bucket boundary. Rows sharing a band signature are *candidates*;
/// a candidate pair is verified cell-by-cell (numeric within
/// `dup_rel_tol`, categorical equal, missing matches missing) and must
/// agree on at least `dup_match_frac` of the feature columns. *Every*
/// member of a verified pair has its feature cells flagged
/// `NearDuplicateRows`: without ground truth a detector cannot tell which
/// row is the original and which the copy (upstream shuffles destroy
/// insertion order), so it surfaces the whole cluster and leaves the
/// resolution to the cleaner.
fn near_duplicate(
    df: &DataFrame,
    features: &[usize],
    config: &DetectorConfig,
    flags: &mut Vec<Flag>,
) -> Result<(), FrameError> {
    let n = df.nrows();
    if n < 2 || features.is_empty() {
        return Ok(());
    }
    // Bucket widths per feature column (numeric only).
    let mut widths: BTreeMap<usize, f64> = BTreeMap::new();
    for &c in features {
        let col = df.column(c)?;
        if col.kind() == ColumnKind::Numeric {
            let std = col.std().unwrap_or(0.0);
            widths.insert(c, if std > 0.0 { 0.5 * std } else { 1.0 });
        }
    }

    // Verification reads the rows of each signature group, which lie
    // anywhere in the frame, so each column is read once up front: under a
    // spill budget, per-cell reads reload a segment at almost every access.
    let cells: Vec<Vec<Cell>> =
        features.iter().map(|&c| column_cells(df, c)).collect::<Result<_, _>>()?;

    let mut dup_rows: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for band in 0..2u64 {
        let offset = 0.5 * band as f64;
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for row in 0..n {
            let mut sig = 0xcbf2_9ce4_8422_2325u64 ^ band;
            for (&c, column) in features.iter().zip(&cells) {
                let word = match column[row] {
                    Cell::Num(v) => {
                        let width = widths.get(&c).copied().unwrap_or(1.0);
                        let bucket = (v / width + offset).floor();
                        // Buckets beyond i64 range all collapse to the same
                        // word; verification sorts out the collisions.
                        1 ^ (bucket as i64 as u64).rotate_left(1)
                    }
                    Cell::Cat(code) => 2 ^ (u64::from(code) << 2),
                    Cell::Missing => 3,
                };
                sig = fold(sig, word);
            }
            groups.entry(sig).or_default().push(row);
        }
        for rows in groups.values() {
            for j in 1..rows.len() {
                if dup_rows.contains(&rows[j]) {
                    continue;
                }
                // Verify against every earlier row in the group (bounded
                // lookback keeps a degenerate all-one-bucket frame linear).
                for i in j.saturating_sub(128)..j {
                    if rows_match(&cells, rows[i], rows[j], config) {
                        dup_rows.insert(rows[i]);
                        dup_rows.insert(rows[j]);
                        break;
                    }
                }
            }
        }
    }
    for row in dup_rows {
        for &col in features {
            flags.push(Flag {
                col,
                row,
                detector: DetectorKind::NearDuplicate,
                family: comet_jenga::ErrorType::NearDuplicateRows,
            });
        }
    }
    Ok(())
}

/// Cell-by-cell verification of a candidate near-duplicate pair over the
/// feature columns' `cells`.
fn rows_match(cells: &[Vec<Cell>], a: usize, b: usize, config: &DetectorConfig) -> bool {
    let mut matches = 0usize;
    for column in cells {
        let cell_match = match (column[a], column[b]) {
            (Cell::Missing, Cell::Missing) => true,
            (Cell::Num(x), Cell::Num(y)) => {
                let ax = x.abs();
                let ay = y.abs();
                let mut scale = if ax > ay { ax } else { ay };
                if scale < 1.0 {
                    scale = 1.0;
                }
                (x - y).abs() <= config.dup_rel_tol * scale
            }
            (Cell::Cat(x), Cell::Cat(y)) => x == y,
            _ => false,
        };
        if cell_match {
            matches += 1;
        }
    }
    matches as f64 >= config.dup_match_frac * cells.len() as f64
}

/// Rows whose label disagrees with the strict majority of their `knn_k`
/// nearest neighbours (standardized numeric feature space, Euclidean).
/// Flags land on the *label* column with family `LabelNoise`.
///
/// O(n²); skipped entirely above [`KNN_ROW_CAP`] rows or when the frame has
/// no label / no numeric features.
fn label_disagreement(
    df: &DataFrame,
    numeric_features: &[usize],
    config: &DetectorConfig,
    flags: &mut Vec<Flag>,
) -> Result<(), FrameError> {
    let n = df.nrows();
    let Ok(label_col) = df.label_index() else {
        return Ok(());
    };
    if !(3..=KNN_ROW_CAP).contains(&n) || numeric_features.is_empty() {
        return Ok(());
    }
    if df.column(label_col)?.kind() != ColumnKind::Categorical {
        return Ok(());
    }
    // The neighbour scan reads every label once per row, so the column is
    // read once up front (per-cell reads would reload spilled segments).
    let labels: Vec<Option<u32>> =
        column_cells(df, label_col)?.into_iter().map(Cell::as_cat).collect();

    // Standardized numeric feature matrix, row-major; missing → 0 (the mean).
    let d = numeric_features.len();
    let mut matrix = vec![0.0f64; n * d];
    for (j, &c) in numeric_features.iter().enumerate() {
        let col = df.column(c)?;
        let mean = col.mean().unwrap_or(0.0);
        let std = col.std().unwrap_or(0.0);
        let inv = if std > 0.0 { 1.0 / std } else { 0.0 };
        for row in 0..n {
            if let Some(v) = col.num(row) {
                matrix[row * d + j] = (v - mean) * inv;
            }
        }
    }

    let k = config.knn_k;
    for row in 0..n {
        let Some(own) = labels[row] else { continue };
        // Distances to every other labelled row; ties break on row index.
        let mut dists: Vec<(f64, usize)> = Vec::with_capacity(n - 1);
        for other in 0..n {
            if other == row || labels[other].is_none() {
                continue;
            }
            let mut d2 = 0.0;
            for j in 0..d {
                let diff = matrix[row * d + j] - matrix[other * d + j];
                d2 += diff * diff;
            }
            dists.push((d2, other));
        }
        if dists.len() < k {
            continue;
        }
        dists.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut votes: BTreeMap<u32, usize> = BTreeMap::new();
        for &(_, other) in dists.iter().take(k) {
            if let Some(code) = labels[other] {
                *votes.entry(code).or_insert(0) += 1;
            }
        }
        // Strict majority; BTreeMap iteration makes ties resolve to the
        // smallest code deterministically (and a tie is never a strict
        // majority anyway).
        let Some((&majority, &count)) = votes.iter().max_by_key(|(_, &c)| c) else {
            continue;
        };
        if 2 * count > k && majority != own {
            flags.push(Flag {
                col: label_col,
                row,
                detector: DetectorKind::LabelDisagreement,
                family: comet_jenga::ErrorType::LabelNoise,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorSet;
    use comet_frame::Column;
    use comet_jenga::ErrorType;

    /// 40 rows: x in a tight band around 11, y ramping from 1000 with a
    /// +600 jump at the halfway mark — the label follows the y cluster.
    fn base_frame() -> DataFrame {
        let x: Vec<f64> = (0..40).map(|i| 10.0 + (i % 5) as f64 * 0.5).collect();
        let y: Vec<f64> =
            (0..40).map(|i| 1000.0 + 13.0 * i as f64 + if i >= 20 { 600.0 } else { 0.0 }).collect();
        let labels: Vec<u32> = (0..40).map(|i| u32::from(i >= 20)).collect();
        DataFrame::new(
            vec![
                Column::numeric("x", x),
                Column::numeric("y", y),
                Column::categorical("label", labels, vec!["n".into(), "p".into()]).unwrap(),
            ],
            Some("label"),
        )
        .unwrap()
    }

    fn only(kind: DetectorKind) -> DetectorConfig {
        DetectorConfig { enabled: DetectorSet::none().with(kind), ..DetectorConfig::default() }
    }

    #[test]
    fn clean_frame_is_mostly_quiet() {
        let df = base_frame();
        let report = detect(&df, &DetectorConfig::default()).unwrap();
        // The clean frame has no missing cells, no decade ratios, no
        // near-duplicates; allow a handful of borderline outlier flags.
        assert!(report.flagged_cell_count() <= 2, "{:?}", report.flags());
    }

    #[test]
    fn missing_cells_are_flagged() {
        let mut df = base_frame();
        df.set(3, 0, Cell::Missing).unwrap();
        df.set(8, 1, Cell::Missing).unwrap();
        let report = detect(&df, &only(DetectorKind::MissingSentinel)).unwrap();
        assert_eq!(report.flagged_rows(0, ErrorType::MissingValues), vec![3]);
        assert_eq!(report.flagged_rows(1, ErrorType::MissingValues), vec![8]);
        assert_eq!(report.len(), 2);
    }

    #[test]
    fn decade_ratio_attributes_scaling_not_outliers() {
        let mut df = base_frame();
        // x ~ 10–12.5; a ×100 unit error is far outside the fence AND an
        // exact decade ratio → Domain wins the attribution over robust-z.
        let v = df.column(0).unwrap().num(5).unwrap();
        df.set(5, 0, Cell::Num(v * 100.0)).unwrap();
        let report = detect(&df, &DetectorConfig::default()).unwrap();
        assert_eq!(report.cells()[&(0, 5)], ErrorType::Scaling);
    }

    #[test]
    fn sibling_bulk_value_attributes_swapped_fields() {
        let mut df = base_frame();
        // Plant a mid-range y value into x: far outside x's fence, inside
        // y's quartile bulk, and not a power-of-ten ratio to x's median.
        df.set(7, 0, Cell::Num(1750.0)).unwrap();
        let report = detect(&df, &DetectorConfig::default()).unwrap();
        assert_eq!(report.cells()[&(0, 7)], ErrorType::SwappedFields);
    }

    #[test]
    fn robust_z_and_iqr_flag_far_outliers() {
        let mut df = base_frame();
        df.set(11, 1, Cell::Num(5000.0)).unwrap(); // y tops out near 2100
        for kind in [DetectorKind::RobustZ, DetectorKind::Iqr] {
            let report = detect(&df, &only(kind)).unwrap();
            assert_eq!(
                report.flagged_rows(1, ErrorType::Outliers),
                vec![11],
                "{kind} missed the planted outlier"
            );
        }
    }

    #[test]
    fn degenerate_constant_column_never_divides_by_zero() {
        let df = DataFrame::new(
            vec![
                Column::numeric("c", vec![5.0; 20]),
                Column::categorical("label", vec![0; 20], vec!["n".into()]).unwrap(),
            ],
            Some("label"),
        )
        .unwrap();
        let report = detect(&df, &DetectorConfig::default()).unwrap();
        // Zero IQR / zero MAD must not divide by zero or flag outliers.
        assert!(report.flagged_rows(0, ErrorType::Outliers).is_empty());
        assert!(report.flagged_rows(0, ErrorType::Scaling).is_empty());
        // Every row IS an exact copy of every other — the duplicate
        // detector is *supposed* to flag the whole cluster.
        assert_eq!(report.flagged_rows(0, ErrorType::NearDuplicateRows).len(), 20);
    }

    #[test]
    fn near_duplicates_flag_every_cluster_member() {
        let mut df = base_frame();
        // Make row 25 a jittered copy of row 4 across all features.
        for c in [0usize, 1] {
            let v = df.column(c).unwrap().num(4).unwrap();
            df.set(25, c, Cell::Num(v * 1.005)).unwrap();
        }
        let report = detect(&df, &only(DetectorKind::NearDuplicate)).unwrap();
        let flagged = report.flagged_rows(0, ErrorType::NearDuplicateRows);
        // A detector cannot know which member of the pair is the copy, so
        // both rows are surfaced for the cleaner to resolve.
        assert!(flagged.contains(&25), "copy not flagged: {flagged:?}");
        assert!(flagged.contains(&4), "source not flagged: {flagged:?}");
        assert_eq!(flagged.len(), 2, "unrelated rows must stay unflagged");
    }

    #[test]
    fn label_disagreement_flags_flipped_labels() {
        let mut df = base_frame();
        // Row 2 sits deep in the label-0 cluster; flip its label to 1.
        df.set(2, 2, Cell::Cat(1)).unwrap();
        let report = detect(&df, &only(DetectorKind::LabelDisagreement)).unwrap();
        let label_col = df.label_index().unwrap();
        let flagged = report.flagged_rows(label_col, ErrorType::LabelNoise);
        assert!(flagged.contains(&2), "flipped label not flagged: {flagged:?}");
        // Flags must land on the label column only.
        for f in report.flags() {
            assert_eq!(f.col, label_col);
        }
    }

    #[test]
    fn empty_detector_set_yields_empty_report() {
        let df = base_frame();
        let cfg = DetectorConfig { enabled: DetectorSet::none(), ..DetectorConfig::default() };
        assert!(detect(&df, &cfg).unwrap().is_empty());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let df = base_frame();
        let cfg = DetectorConfig { knn_k: 0, ..DetectorConfig::default() };
        assert!(detect(&df, &cfg).is_err());
    }

    #[test]
    fn detection_is_deterministic_across_reruns() {
        let mut df = base_frame();
        df.set(3, 0, Cell::Missing).unwrap();
        df.set(5, 1, Cell::Num(9999.0)).unwrap();
        df.set(2, 2, Cell::Cat(1)).unwrap();
        let a = detect(&df, &DetectorConfig::default()).unwrap();
        let b = detect(&df, &DetectorConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
