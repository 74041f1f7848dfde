//! Relational-style frame operations: filter, project, stack, sample.

use crate::{Cell, Column, DataFrame, FrameError, Result};
use rand::Rng;

impl DataFrame {
    /// Keep only the rows for which `predicate(row)` is true.
    pub fn filter<P: FnMut(usize) -> bool>(&self, mut predicate: P) -> Result<DataFrame> {
        let rows: Vec<usize> = (0..self.nrows()).filter(|&r| predicate(r)).collect();
        if rows.is_empty() {
            return Err(FrameError::Empty);
        }
        self.take(&rows)
    }

    /// First `n` rows (clamped to the frame size).
    pub fn head(&self, n: usize) -> Result<DataFrame> {
        let rows: Vec<usize> = (0..n.min(self.nrows())).collect();
        if rows.is_empty() {
            return Err(FrameError::Empty);
        }
        self.take(&rows)
    }

    /// Uniform random sample of `n` distinct rows, in original order.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Result<DataFrame> {
        let total = self.nrows();
        let n = n.min(total);
        if n == 0 {
            return Err(FrameError::Empty);
        }
        let mut idx: Vec<usize> = (0..total).collect();
        for i in 0..n {
            let j = rng.gen_range(i..total);
            idx.swap(i, j);
        }
        idx.truncate(n);
        idx.sort_unstable();
        self.take(&idx)
    }

    /// Project to the named columns (the label column, if present in the
    /// frame but not in `names`, is dropped too — pass it explicitly to
    /// keep it).
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        if names.is_empty() {
            return Err(FrameError::Empty);
        }
        let mut columns = Vec::with_capacity(names.len());
        let mut label = None;
        for &name in names {
            let idx = self.schema().index_of(name)?;
            if self.label_index().ok() == Some(idx) {
                label = Some(name);
            }
            columns.push(self.column(idx)?.clone());
        }
        DataFrame::new(columns, label)
    }

    /// Vertically stack another frame with an identical schema (categorical
    /// dictionaries must match exactly so codes stay meaningful).
    pub fn vstack(&self, other: &DataFrame) -> Result<DataFrame> {
        if self.schema() != other.schema() {
            return Err(FrameError::InvalidArgument("schema mismatch in vstack".into()));
        }
        let mut columns = Vec::with_capacity(self.ncols());
        for (a, b) in self.columns().iter().zip(other.columns()) {
            if a.categories() != b.categories() {
                return Err(FrameError::InvalidArgument(format!(
                    "dictionary mismatch in column {:?}",
                    a.name()
                )));
            }
            columns.push(concat_columns(a, b)?);
        }
        let label_name = self.label_index().ok().map(|i| self.schema().fields()[i].name.clone());
        DataFrame::new(columns, label_name.as_deref())
    }
}

fn concat_columns(a: &Column, b: &Column) -> Result<Column> {
    let rows_a: Vec<usize> = (0..a.len()).collect();
    // Build via take + manual append using the cell API.
    let out = a.take(&rows_a)?;
    // Grow by taking b's cells one at a time (simple and type-safe).
    let b_cells: Vec<Cell> = (0..b.len()).map(|r| b.get(r)).collect::<Result<_>>()?;
    extend_column(out, &b_cells)
}

/// Append cells to a column by rebuilding its storage.
fn extend_column(col: Column, cells: &[Cell]) -> Result<Column> {
    use crate::ColumnKind;
    let name = col.name().to_string();
    match col.kind() {
        ColumnKind::Numeric => {
            let mut values: Vec<Option<f64>> = (0..col.len())
                .map(|r| match col.get(r) {
                    Ok(Cell::Num(v)) => Some(v),
                    _ => None,
                })
                .collect();
            for cell in cells {
                values.push(cell.as_num());
            }
            Ok(Column::numeric_opt(name, values))
        }
        ColumnKind::Categorical => {
            let mut codes: Vec<Option<u32>> =
                (0..col.len()).map(|r| col.get(r).ok().and_then(|c| c.as_cat())).collect();
            for cell in cells {
                codes.push(cell.as_cat());
            }
            Column::categorical_opt(name, codes, col.categories().to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frame() -> DataFrame {
        let x = Column::numeric("x", (0..10).map(|i| i as f64).collect());
        let c = Column::categorical(
            "c",
            vec![0, 1, 0, 1, 2, 0, 1, 2, 0, 0],
            vec!["a".into(), "b".into(), "d".into()],
        )
        .unwrap();
        let y = Column::categorical(
            "y",
            (0..10).map(|i| (i % 2) as u32).collect(),
            vec!["n".into(), "p".into()],
        )
        .unwrap();
        DataFrame::new(vec![x, c, y], Some("y")).unwrap()
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let df = frame();
        let even = df.filter(|r| r % 2 == 0).unwrap();
        assert_eq!(even.nrows(), 5);
        assert_eq!(even.column(0).unwrap().num(1), Some(2.0));
        assert!(df.filter(|_| false).is_err());
    }

    #[test]
    fn head_and_sample() {
        let df = frame();
        assert_eq!(df.head(3).unwrap().nrows(), 3);
        assert_eq!(df.head(99).unwrap().nrows(), 10);
        let mut rng = StdRng::seed_from_u64(0);
        let s = df.sample(4, &mut rng).unwrap();
        assert_eq!(s.nrows(), 4);
        // Sampled rows preserve original relative order (sorted indices).
        let vals: Vec<f64> = (0..4).map(|r| s.column(0).unwrap().num(r).unwrap()).collect();
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vals, sorted);
    }

    #[test]
    fn select_projects_columns() {
        let df = frame();
        let proj = df.select(&["x", "y"]).unwrap();
        assert_eq!(proj.ncols(), 2);
        assert_eq!(proj.label_index().unwrap(), 1);
        let no_label = df.select(&["x"]).unwrap();
        assert!(no_label.label_index().is_err());
        assert!(df.select(&["nope"]).is_err());
        assert!(df.select(&[]).is_err());
    }

    #[test]
    fn vstack_concatenates() {
        let df = frame();
        let stacked = df.vstack(&df).unwrap();
        assert_eq!(stacked.nrows(), 20);
        assert_eq!(stacked.column(0).unwrap().num(10), Some(0.0));
        assert_eq!(stacked.label_codes().unwrap().len(), 20);
        // Missing values survive stacking.
        let mut with_missing = frame();
        with_missing.set(0, 0, Cell::Missing).unwrap();
        let stacked = with_missing.vstack(&df).unwrap();
        assert!(stacked.get(0, 0).unwrap().is_missing());
        assert_eq!(stacked.get(10, 0).unwrap(), Cell::Num(0.0));
    }

    #[test]
    fn vstack_rejects_schema_mismatch() {
        let df = frame();
        let other = df.select(&["x", "y"]).unwrap();
        assert!(df.vstack(&other).is_err());
    }
}
