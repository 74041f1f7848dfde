//! The column-major [`DataFrame`].

use crate::{Cell, Column, ColumnKind, FieldMeta, FrameError, Result, Role, Schema};

/// A typed, column-major data frame with at most one label column.
///
/// Every COMET mutation is column-local, so the frame hands out owned column
/// snapshots ([`DataFrame::column`] + [`DataFrame::replace_column`]) for the
/// Recommender's save/revert cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    schema: Schema,
    columns: Vec<Column>,
    nrows: usize,
}

impl DataFrame {
    /// Build a frame from columns. Roles/kinds are derived from the columns
    /// plus the `label` name (if provided).
    pub fn new(columns: Vec<Column>, label: Option<&str>) -> Result<Self> {
        if columns.is_empty() {
            return Err(FrameError::Empty);
        }
        let nrows = columns[0].len();
        let mut fields = Vec::with_capacity(columns.len());
        for col in &columns {
            if col.len() != nrows {
                return Err(FrameError::LengthMismatch {
                    expected: nrows,
                    got: col.len(),
                    column: col.name().to_string(),
                });
            }
            let role = match label {
                Some(l) if l == col.name() => Role::Label,
                _ => Role::Feature,
            };
            fields.push(FieldMeta { name: col.name().to_string(), kind: col.kind(), role });
        }
        if let Some(l) = label {
            if !fields.iter().any(|f| f.role == Role::Label) {
                return Err(FrameError::UnknownColumn(l.to_string()));
            }
        }
        let schema = Schema::new(fields)?;
        Ok(DataFrame { schema, columns, nrows })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (features + label).
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> Result<&Column> {
        self.columns
            .get(idx)
            .ok_or(FrameError::ColumnOutOfBounds { col: idx, ncols: self.columns.len() })
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.index_of(name)?;
        self.column(idx)
    }

    /// Mutable column by index.
    pub fn column_mut(&mut self, idx: usize) -> Result<&mut Column> {
        let ncols = self.columns.len();
        self.columns.get_mut(idx).ok_or(FrameError::ColumnOutOfBounds { col: idx, ncols })
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Replace column `idx` wholesale (the revert operation). The new column
    /// must match name, kind, and length.
    pub fn replace_column(&mut self, idx: usize, column: Column) -> Result<()> {
        let current = self.column(idx)?;
        if current.name() != column.name() {
            return Err(FrameError::UnknownColumn(column.name().to_string()));
        }
        if current.kind() != column.kind() {
            return Err(FrameError::TypeMismatch {
                column: column.name().to_string(),
                expected: current.kind().name(),
                got: column.kind().name(),
            });
        }
        if column.len() != self.nrows {
            return Err(FrameError::LengthMismatch {
                expected: self.nrows,
                got: column.len(),
                column: column.name().to_string(),
            });
        }
        self.columns[idx] = column;
        Ok(())
    }

    /// Cell read.
    pub fn get(&self, row: usize, col: usize) -> Result<Cell> {
        self.column(col)?.get(row)
    }

    /// Cell write.
    pub fn set(&mut self, row: usize, col: usize, cell: Cell) -> Result<()> {
        self.column_mut(col)?.set(row, cell)
    }

    /// The label column.
    pub fn label(&self) -> Result<&Column> {
        let idx = self.schema.label_index().ok_or(FrameError::NoLabel)?;
        self.column(idx)
    }

    /// Index of the label column.
    pub fn label_index(&self) -> Result<usize> {
        self.schema.label_index().ok_or(FrameError::NoLabel)
    }

    /// Label codes for every row. Errors if any label is missing — the paper
    /// never pollutes labels, so missing labels indicate a bug upstream.
    pub fn label_codes(&self) -> Result<Vec<u32>> {
        let label = self.label()?;
        let mut out = Vec::with_capacity(self.nrows);
        for row in 0..self.nrows {
            match label.get(row)? {
                Cell::Cat(code) => out.push(code),
                Cell::Num(v) => out.push(v as u32),
                Cell::Missing => {
                    return Err(FrameError::InvalidArgument(format!("label missing in row {row}")))
                }
            }
        }
        Ok(out)
    }

    /// Number of label classes.
    pub fn n_classes(&self) -> Result<usize> {
        let label = self.label()?;
        match label.kind() {
            ColumnKind::Categorical => Ok(label.cardinality()),
            ColumnKind::Numeric => {
                let codes = self.label_codes()?;
                Ok(codes.iter().copied().max().map_or(0, |m| m as usize + 1))
            }
        }
    }

    /// Indices of feature columns.
    pub fn feature_indices(&self) -> Vec<usize> {
        self.schema.feature_indices()
    }

    /// New frame with only the given rows (order-preserving, duplicates OK).
    pub fn take(&self, rows: &[usize]) -> Result<DataFrame> {
        let mut columns = Vec::with_capacity(self.columns.len());
        for col in &self.columns {
            columns.push(col.take(rows)?);
        }
        Ok(DataFrame { schema: self.schema.clone(), columns, nrows: rows.len() })
    }

    /// Rebuild every column with segments of `seg_rows` rows (0 = one
    /// whole-column segment). Content, fingerprints, and traces are
    /// invariant under resegmentation; only memory locality and spill
    /// granularity change. O(1) per column whose size already matches.
    pub fn resegment(&self, seg_rows: usize) -> Result<DataFrame> {
        let mut columns = Vec::with_capacity(self.columns.len());
        for col in &self.columns {
            columns.push(col.resegment(seg_rows)?);
        }
        Ok(DataFrame { schema: self.schema.clone(), columns, nrows: self.nrows })
    }

    /// Total number of missing cells across feature columns.
    pub fn missing_cells(&self) -> usize {
        self.feature_indices().into_iter().map(|i| self.columns[i].missing_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        let age = Column::numeric("age", vec![25.0, 40.0, 31.0, 58.0]);
        let job = Column::categorical("job", vec![0, 1, 0, 1], vec!["tech".into(), "admin".into()])
            .unwrap();
        let label =
            Column::categorical("y", vec![0, 1, 1, 0], vec!["no".into(), "yes".into()]).unwrap();
        DataFrame::new(vec![age, job, label], Some("y")).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let df = sample();
        assert_eq!(df.nrows(), 4);
        assert_eq!(df.ncols(), 3);
        assert_eq!(df.label_index().unwrap(), 2);
        assert_eq!(df.feature_indices(), vec![0, 1]);
        assert_eq!(df.n_classes().unwrap(), 2);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let a = Column::numeric("a", vec![1.0]);
        let b = Column::numeric("b", vec![1.0, 2.0]);
        assert!(matches!(
            DataFrame::new(vec![a, b], None).unwrap_err(),
            FrameError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn unknown_label_rejected() {
        let a = Column::numeric("a", vec![1.0]);
        assert!(DataFrame::new(vec![a], Some("nope")).is_err());
    }

    #[test]
    fn empty_frame_rejected() {
        assert_eq!(DataFrame::new(vec![], None).unwrap_err(), FrameError::Empty);
    }

    #[test]
    fn cell_read_write() {
        let mut df = sample();
        df.set(0, 0, Cell::Num(99.0)).unwrap();
        assert_eq!(df.get(0, 0).unwrap(), Cell::Num(99.0));
        assert!(df.get(0, 9).is_err());
    }

    #[test]
    fn replace_column_enforces_compatibility() {
        let mut df = sample();
        let snapshot = df.column(0).unwrap().clone();
        df.set(0, 0, Cell::Missing).unwrap();
        assert_eq!(df.missing_cells(), 1);
        df.replace_column(0, snapshot).unwrap();
        assert_eq!(df.missing_cells(), 0);
        assert_eq!(df.get(0, 0).unwrap(), Cell::Num(25.0));

        let wrong_name = Column::numeric("other", vec![0.0; 4]);
        assert!(df.replace_column(0, wrong_name).is_err());
        let wrong_len = Column::numeric("age", vec![0.0; 3]);
        assert!(df.replace_column(0, wrong_len).is_err());
        let wrong_kind = Column::categorical("age", vec![0; 4], vec!["x".into()]).unwrap();
        assert!(df.replace_column(0, wrong_kind).is_err());
    }

    #[test]
    fn label_codes_and_missing_label_error() {
        let mut df = sample();
        assert_eq!(df.label_codes().unwrap(), vec![0, 1, 1, 0]);
        df.set(2, 2, Cell::Missing).unwrap();
        assert!(df.label_codes().is_err());
    }

    #[test]
    fn take_subsets_rows() {
        let df = sample();
        let sub = df.take(&[3, 0]).unwrap();
        assert_eq!(sub.nrows(), 2);
        assert_eq!(sub.get(0, 0).unwrap(), Cell::Num(58.0));
        assert_eq!(sub.label_codes().unwrap(), vec![0, 0]);
        assert_eq!(sub.schema(), df.schema());
    }

    #[test]
    fn numeric_label_codes() {
        let x = Column::numeric("x", vec![0.5, 1.5]);
        let y = Column::numeric("y", vec![0.0, 1.0]);
        let df = DataFrame::new(vec![x, y], Some("y")).unwrap();
        assert_eq!(df.label_codes().unwrap(), vec![0, 1]);
        assert_eq!(df.n_classes().unwrap(), 2);
    }
}
