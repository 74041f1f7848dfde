//! Minimal dense row-major matrix.

use std::fmt;

/// Shape violation when assembling a [`Matrix`] from untrusted row data.
/// Converted to `CometError::Invalid` at the `comet-core` boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixShapeError {
    /// No rows were provided, so the column count cannot be inferred and
    /// downstream consumers (model `fit`, row iteration) have nothing to
    /// train on.
    EmptyRowSet,
    /// A row's length disagrees with the first row's.
    RaggedRow {
        /// Index of the offending row.
        row: usize,
        /// Length the first row established.
        expected: usize,
        /// Length actually seen.
        got: usize,
    },
}

impl fmt::Display for MatrixShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixShapeError::EmptyRowSet => {
                write!(f, "cannot build a matrix from an empty row set")
            }
            MatrixShapeError::RaggedRow { row, expected, got } => {
                write!(f, "ragged row {row}: expected {expected} columns, got {got}")
            }
        }
    }
}

impl std::error::Error for MatrixShapeError {}

/// Dense row-major `f64` matrix. Rows are observations, columns features.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Build from a slice of row vectors. An empty slice yields the empty
    /// `0×0` matrix; panics on ragged rows (programmer error in trusted
    /// callers — use [`Matrix::try_from_vecs`] for untrusted row data).
    pub fn from_vecs(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        match Matrix::try_from_vecs(rows) {
            Ok(m) => m,
            Err(e) => panic!("ragged rows: {e}"),
        }
    }

    /// Fallible [`Matrix::from_vecs`]: rejects an empty row set (the column
    /// count would be unrecoverably inferred as 0) and ragged rows with a
    /// typed error instead of panicking.
    pub fn try_from_vecs(rows: &[Vec<f64>]) -> Result<Self, MatrixShapeError> {
        let Some(first) = rows.first() else {
            return Err(MatrixShapeError::EmptyRowSet);
        };
        let ncols = first.len();
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(MatrixShapeError::RaggedRow { row: i, expected: ncols, got: r.len() });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix { nrows: rows.len(), ncols, data })
    }

    /// Re-shape a recycled buffer into a zero-filled `nrows × ncols` matrix,
    /// reusing its allocation (the scratch-pool entry point: no new heap
    /// allocation when the buffer's capacity already suffices).
    pub fn from_buffer(nrows: usize, ncols: usize, mut buf: Vec<f64>) -> Self {
        buf.clear();
        buf.resize(nrows * ncols, 0.0);
        Matrix { nrows, ncols, data: buf }
    }

    /// Tear down into the backing buffer so the allocation can be pooled.
    pub fn into_buffer(self) -> Vec<f64> {
        self.data
    }

    /// Row-major backing slice (`nrows * ncols` elements).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.ncols + j]
    }

    /// Element write.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.ncols + j] = v;
    }

    /// Iterate rows. Yields exactly `nrows` items even for zero-column
    /// matrices (each row is then the empty slice).
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.nrows).map(move |i| self.row(i))
    }

    /// New matrix with only the given rows (order-preserving, duplicates OK).
    pub fn take_rows(&self, rows: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * self.ncols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix { nrows: rows.len(), ncols: self.ncols, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        m.row_mut(0)[0] = -1.0;
        assert_eq!(m.get(0, 0), -1.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_vecs(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn from_vecs_empty_yields_empty_matrix() {
        let m = Matrix::from_vecs(&[]);
        assert_eq!((m.nrows(), m.ncols()), (0, 0));
        assert_eq!(m.rows().count(), 0);
    }

    #[test]
    fn try_from_vecs_rejects_empty_and_ragged() {
        assert_eq!(Matrix::try_from_vecs(&[]), Err(MatrixShapeError::EmptyRowSet));
        let err = Matrix::try_from_vecs(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert_eq!(err, MatrixShapeError::RaggedRow { row: 1, expected: 2, got: 1 });
        assert!(err.to_string().contains("ragged row 1"));
        let ok = Matrix::try_from_vecs(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(ok, Matrix::from_vecs(&[vec![1.0], vec![2.0]]));
    }

    #[test]
    fn zero_column_rows_iterate_per_row() {
        // Regression: chunks_exact over an empty buffer used to yield zero
        // rows for an n×0 matrix; models then saw no data at all.
        let m = Matrix::zeros(3, 0);
        let rows: Vec<&[f64]> = m.rows().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn buffer_roundtrip_reuses_allocation() {
        let m = Matrix::from_vecs(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let buf = m.into_buffer();
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        let m2 = Matrix::from_buffer(2, 2, buf);
        assert_eq!(m2, Matrix::zeros(2, 2));
        let buf2 = m2.into_buffer();
        assert_eq!(buf2.capacity(), cap);
        assert_eq!(buf2.as_ptr(), ptr);
    }

    #[test]
    fn rows_iterator() {
        let m = Matrix::from_vecs(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let rows: Vec<&[f64]> = m.rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn take_rows_duplicates_and_reorders() {
        let m = Matrix::from_vecs(&[vec![1.0], vec![2.0], vec![3.0]]);
        let t = m.take_rows(&[2, 0, 2]);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.row(0), &[3.0]);
        assert_eq!(t.row(2), &[3.0]);
    }
}
