//! Ground-truth tracking and per-cell error provenance.
//!
//! COMET itself never sees this information (paper §3: "At no point does
//! COMET require information about the actual pollution level … nor which
//! entries are actually erroneous"). The *simulation harness* needs it to
//! play the role of the Cleaner: restore chosen dirty cells of a feature, and
//! in the multi-error scenario know which error type polluted each cell so
//! the correct cost model is charged (§4.2).

use crate::ErrorType;
use comet_frame::{DataFrame, FrameError, Result};

/// The clean reference version of a (train or test) frame.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    clean: DataFrame,
}

impl GroundTruth {
    /// Capture the clean state. Call before any pollution is applied.
    pub fn new(clean: DataFrame) -> Self {
        GroundTruth { clean }
    }

    /// The clean frame.
    pub fn clean(&self) -> &DataFrame {
        &self.clean
    }

    /// Rows of feature `col` whose value in `dirty` differs from clean.
    pub fn dirty_rows(&self, dirty: &DataFrame, col: usize) -> Result<Vec<usize>> {
        let a = dirty.column(col)?;
        let b = self.clean.column(col)?;
        if a.len() != b.len() {
            return Err(FrameError::LengthMismatch {
                expected: b.len(),
                got: a.len(),
                column: a.name().to_string(),
            });
        }
        let mut rows = Vec::new();
        for row in 0..a.len() {
            if !cells_eq(a.get(row)?, b.get(row)?) {
                rows.push(row);
            }
        }
        Ok(rows)
    }

    /// Number of dirty cells in feature `col`.
    pub fn dirty_count(&self, dirty: &DataFrame, col: usize) -> Result<usize> {
        Ok(self.dirty_rows(dirty, col)?.len())
    }

    /// Total dirty cells across all feature columns — plus the label
    /// column when the frame has one, so label noise counts as dirt (a
    /// session is not "fully clean" while flipped labels remain).
    pub fn total_dirty(&self, dirty: &DataFrame) -> Result<usize> {
        let mut total = 0;
        for col in dirty.feature_indices() {
            total += self.dirty_count(dirty, col)?;
        }
        if let Ok(label) = dirty.label_index() {
            total += self.dirty_count(dirty, label)?;
        }
        Ok(total)
    }

    /// True when every feature (and label) cell matches ground truth.
    pub fn is_fully_clean(&self, dirty: &DataFrame) -> Result<bool> {
        Ok(self.total_dirty(dirty)? == 0)
    }

    /// Restore the given rows of feature `col` to their clean values.
    /// Returns the rows that actually changed.
    pub fn restore(&self, dirty: &mut DataFrame, col: usize, rows: &[usize]) -> Result<Vec<usize>> {
        let mut restored = Vec::new();
        for &row in rows {
            let clean_cell = self.clean.get(row, col)?;
            if !cells_eq(dirty.get(row, col)?, clean_cell) {
                dirty.set(row, col, clean_cell)?;
                restored.push(row);
            }
        }
        Ok(restored)
    }
}

fn cells_eq(a: comet_frame::Cell, b: comet_frame::Cell) -> bool {
    use comet_frame::Cell;
    match (a, b) {
        (Cell::Missing, Cell::Missing) => true,
        (Cell::Num(x), Cell::Num(y)) => {
            // comet-lint: allow(D2) — tolerance scale over abs values; NaN cells compare unequal earlier
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-12 * scale
        }
        (Cell::Cat(x), Cell::Cat(y)) => x == y,
        _ => false,
    }
}

/// Per-cell record of which error type polluted a cell, per column.
///
/// `None` means the cell is clean (or its dirt has unknown provenance, e.g.
/// pre-existing errors in CleanML datasets before we re-derive them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    cells: Vec<Vec<Option<ErrorType>>>,
}

impl Provenance {
    /// Empty provenance for a frame with `ncols` columns of `nrows` rows.
    pub fn new(ncols: usize, nrows: usize) -> Self {
        Provenance { cells: vec![vec![None; nrows]; ncols] }
    }

    /// Build provenance sized for a frame.
    pub fn for_frame(df: &DataFrame) -> Self {
        Self::new(df.ncols(), df.nrows())
    }

    /// Record that `(col, row)` was polluted with `err`. Later pollution of
    /// the same cell overwrites the provenance (the last error dominates the
    /// observable value).
    pub fn record(&mut self, col: usize, row: usize, err: ErrorType) {
        self.cells[col][row] = Some(err);
    }

    /// Mark `(col, row)` clean.
    pub fn clear(&mut self, col: usize, row: usize) {
        self.cells[col][row] = None;
    }

    /// Provenance of a single cell.
    pub fn get(&self, col: usize, row: usize) -> Option<ErrorType> {
        self.cells[col][row]
    }

    /// Rows of `col` polluted with `err` (or with *any* error if `None`).
    pub fn rows_with(&self, col: usize, err: Option<ErrorType>) -> Vec<usize> {
        self.cells[col]
            .iter()
            .enumerate()
            .filter(|(_, e)| match err {
                Some(want) => **e == Some(want),
                None => e.is_some(),
            })
            .map(|(row, _)| row)
            .collect()
    }

    /// Distinct error types present in `col`.
    pub fn error_types_in(&self, col: usize) -> Vec<ErrorType> {
        let mut seen = Vec::new();
        for e in self.cells[col].iter().flatten() {
            if !seen.contains(e) {
                seen.push(*e);
            }
        }
        seen.sort_unstable();
        seen
    }

    /// Number of polluted cells in `col`.
    pub fn count(&self, col: usize) -> usize {
        self.cells[col].iter().filter(|e| e.is_some()).count()
    }

    /// The full provenance vector of a column (snapshot support).
    pub fn column(&self, col: usize) -> &[Option<ErrorType>] {
        &self.cells[col]
    }

    /// Replace the full provenance vector of a column (revert support).
    /// Panics on length mismatch.
    pub fn set_column(&mut self, col: usize, cells: Vec<Option<ErrorType>>) {
        assert_eq!(cells.len(), self.cells[col].len(), "provenance length mismatch");
        self.cells[col] = cells;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject;
    use comet_frame::{Cell, Column};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frame() -> DataFrame {
        let x = Column::numeric("x", (0..50).map(|i| i as f64).collect());
        let y = Column::categorical(
            "y",
            (0..50).map(|i| (i % 2) as u32).collect(),
            vec!["n".into(), "p".into()],
        )
        .unwrap();
        DataFrame::new(vec![x, y], Some("y")).unwrap()
    }

    #[test]
    fn dirty_rows_tracks_injection() {
        let mut df = frame();
        let gt = GroundTruth::new(df.clone());
        let mut rng = StdRng::seed_from_u64(1);
        inject(&mut df, 0, &[3, 7, 11], ErrorType::MissingValues, &mut rng).unwrap();
        assert_eq!(gt.dirty_rows(&df, 0).unwrap(), vec![3, 7, 11]);
        assert_eq!(gt.dirty_count(&df, 0).unwrap(), 3);
        assert_eq!(gt.total_dirty(&df).unwrap(), 3);
        assert!(!gt.is_fully_clean(&df).unwrap());
    }

    #[test]
    fn restore_brings_back_exact_values() {
        let mut df = frame();
        let gt = GroundTruth::new(df.clone());
        let mut rng = StdRng::seed_from_u64(2);
        inject(&mut df, 0, &[1, 2], ErrorType::GaussianNoise, &mut rng).unwrap();
        let restored = gt.restore(&mut df, 0, &[1, 2, 5]).unwrap();
        assert_eq!(restored, vec![1, 2]);
        assert!(gt.is_fully_clean(&df).unwrap());
        assert_eq!(df.get(1, 0).unwrap(), Cell::Num(1.0));
    }

    #[test]
    fn label_dirt_counts_toward_total() {
        let mut df = frame();
        let gt = GroundTruth::new(df.clone());
        let mut rng = StdRng::seed_from_u64(6);
        inject(&mut df, 1, &[2, 4], ErrorType::LabelNoise, &mut rng).unwrap();
        assert_eq!(gt.total_dirty(&df).unwrap(), 2, "flipped labels are dirt");
        assert!(!gt.is_fully_clean(&df).unwrap());
        gt.restore(&mut df, 1, &[2, 4]).unwrap();
        assert!(gt.is_fully_clean(&df).unwrap());
    }

    #[test]
    fn provenance_record_query_clear() {
        let df = frame();
        let mut prov = Provenance::for_frame(&df);
        prov.record(0, 3, ErrorType::GaussianNoise);
        prov.record(0, 9, ErrorType::Scaling);
        prov.record(0, 9, ErrorType::MissingValues); // overwrite
        assert_eq!(prov.get(0, 3), Some(ErrorType::GaussianNoise));
        assert_eq!(prov.get(0, 9), Some(ErrorType::MissingValues));
        assert_eq!(prov.rows_with(0, Some(ErrorType::GaussianNoise)), vec![3]);
        assert_eq!(prov.rows_with(0, None), vec![3, 9]);
        assert_eq!(
            prov.error_types_in(0),
            vec![ErrorType::MissingValues, ErrorType::GaussianNoise]
        );
        assert_eq!(prov.count(0), 2);
        prov.clear(0, 3);
        assert_eq!(prov.count(0), 1);
        assert_eq!(prov.get(0, 3), None);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let df = frame();
        let gt = GroundTruth::new(df.clone());
        let small = df.take(&[0, 1]).unwrap();
        assert!(gt.dirty_rows(&small, 0).is_err());
    }
}
