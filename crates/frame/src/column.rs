//! Typed columns with an explicit validity mask, stored as chunked row
//! segments.
//!
//! Storage is `Arc`-backed and copy-on-write at *segment* granularity:
//! cloning a column (and thus snapshotting or duplicating a frame) is O(1)
//! reference bumps per segment, and a mutation through [`Column::set`]
//! un-shares only the touched segment — a few-cell pollution on a
//! million-row column copies O(segment) data, not O(column). The cleaning
//! session leans on this: every candidate pollution snapshots a column and
//! every polluter variant clones both frames. Cold segments can spill to
//! disk under a memory budget (see [`crate::spill`]); readers transparently
//! reload them.

use std::sync::{Arc, OnceLock};

use crate::segment::{
    seal_categorical, seal_numeric, SegData, SegPayload, SegmentCore, SegmentSealer, SegmentView,
    DEFAULT_SEGMENT_ROWS,
};
use crate::{ColumnKind, FrameError, Result};

/// A single cell value, as read from or written into a column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Missing value (the validity mask is authoritative, not NaN).
    Missing,
    /// Numeric value.
    Num(f64),
    /// Categorical code into the column's dictionary.
    Cat(u32),
}

impl Cell {
    /// Kind name for error reporting.
    pub fn kind_name(self) -> &'static str {
        match self {
            Cell::Missing => "missing",
            Cell::Num(_) => "numeric",
            Cell::Cat(_) => "categorical",
        }
    }

    /// True if this cell is missing.
    pub fn is_missing(self) -> bool {
        matches!(self, Cell::Missing)
    }

    /// Numeric payload, if any.
    pub fn as_num(self) -> Option<f64> {
        match self {
            Cell::Num(v) => Some(v),
            _ => None,
        }
    }

    /// Categorical payload, if any.
    pub fn as_cat(self) -> Option<u32> {
        match self {
            Cell::Cat(c) => Some(c),
            _ => None,
        }
    }
}

/// Memoized content fingerprint. Cloning carries the computed value over
/// (clones share content, so they share the fingerprint); any mutation
/// resets the slot. Excluded from equality — it is a cache, not content.
#[derive(Debug, Default)]
pub(crate) struct FpCache(OnceLock<u64>);

impl Clone for FpCache {
    fn clone(&self) -> Self {
        let slot = OnceLock::new();
        if let Some(v) = self.0.get() {
            let _ = slot.set(*v);
        }
        FpCache(slot)
    }
}

/// One named, typed column with a validity mask and (for categoricals) a
/// dictionary mapping codes to category names. Rows live in fixed-size
/// segments of `seg_rows` (the last segment may be short).
#[derive(Debug, Clone)]
pub struct Column {
    name: Arc<str>,
    kind: ColumnKind,
    /// Rows per full segment; always ≥ 1.
    seg_rows: usize,
    len: usize,
    segments: Vec<Arc<SegmentCore>>,
    /// Dictionary for categorical columns; empty for numeric columns.
    categories: Arc<Vec<String>>,
    fp: FpCache,
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        if self.name != other.name
            || self.kind != other.kind
            || self.len != other.len
            || !(Arc::ptr_eq(&self.categories, &other.categories)
                || self.categories == other.categories)
        {
            return false;
        }
        // Shared storage (the common case after an O(1) snapshot) short-
        // circuits without scanning payloads.
        if self.segments.len() == other.segments.len()
            && self.segments.iter().zip(&other.segments).all(|(a, b)| Arc::ptr_eq(a, b))
        {
            return true;
        }
        // Logical comparison: validity plus values at valid rows.
        for row in 0..self.len {
            let a = self.get(row).unwrap_or(Cell::Missing);
            let b = other.get(row).unwrap_or(Cell::Missing);
            match (a, b) {
                (Cell::Num(x), Cell::Num(y)) if x.to_bits() != y.to_bits() => return false,
                (Cell::Num(_), Cell::Num(_)) => {}
                (a, b) if a != b => return false,
                _ => {}
            }
        }
        true
    }
}

/// Write `cell` into a payload at segment-local `row`. Kind and dictionary
/// checks happen before this is called.
fn apply_cell(payload: &mut SegPayload, row: usize, cell: Cell) {
    match cell {
        Cell::Missing => payload.valid[row] = false,
        Cell::Num(x) => {
            if let SegData::Num(v) = &mut payload.data {
                v[row] = x;
            }
            payload.valid[row] = true;
        }
        Cell::Cat(code) => {
            if let SegData::Cat(v) = &mut payload.data {
                v[row] = code;
            }
            payload.valid[row] = true;
        }
    }
}

impl Column {
    pub(crate) fn from_parts(
        name: Arc<str>,
        kind: ColumnKind,
        seg_rows: usize,
        len: usize,
        segments: Vec<Arc<SegmentCore>>,
        categories: Arc<Vec<String>>,
    ) -> Self {
        Column { name, kind, seg_rows, len, segments, categories, fp: FpCache::default() }
    }

    /// Build a numeric column where every value is valid.
    pub fn numeric(name: impl Into<String>, values: Vec<f64>) -> Self {
        let len = values.len();
        let valid = vec![true; len];
        let segments = seal_numeric(values, valid, DEFAULT_SEGMENT_ROWS);
        Column::from_parts(
            name.into().into(),
            ColumnKind::Numeric,
            DEFAULT_SEGMENT_ROWS,
            len,
            segments,
            Arc::new(Vec::new()),
        )
    }

    /// Build a numeric column from optional values (None = missing).
    pub fn numeric_opt(name: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        let valid: Vec<bool> = values.iter().map(Option::is_some).collect();
        let data: Vec<f64> = values.into_iter().map(|v| v.unwrap_or(0.0)).collect();
        let len = data.len();
        let segments = seal_numeric(data, valid, DEFAULT_SEGMENT_ROWS);
        Column::from_parts(
            name.into().into(),
            ColumnKind::Numeric,
            DEFAULT_SEGMENT_ROWS,
            len,
            segments,
            Arc::new(Vec::new()),
        )
    }

    /// Build a categorical column from codes and a dictionary. Codes must
    /// index into the dictionary.
    pub fn categorical(
        name: impl Into<String>,
        codes: Vec<u32>,
        categories: Vec<String>,
    ) -> Result<Self> {
        let name = name.into();
        for &code in &codes {
            if code as usize >= categories.len() {
                return Err(FrameError::UnknownCategory { column: name, code });
            }
        }
        let len = codes.len();
        let valid = vec![true; len];
        let segments = seal_categorical(codes, valid, DEFAULT_SEGMENT_ROWS);
        Ok(Column::from_parts(
            name.into(),
            ColumnKind::Categorical,
            DEFAULT_SEGMENT_ROWS,
            len,
            segments,
            Arc::new(categories),
        ))
    }

    /// Build a categorical column from optional codes (None = missing).
    pub fn categorical_opt(
        name: impl Into<String>,
        codes: Vec<Option<u32>>,
        categories: Vec<String>,
    ) -> Result<Self> {
        let name = name.into();
        for code in codes.iter().flatten() {
            if *code as usize >= categories.len() {
                return Err(FrameError::UnknownCategory { column: name, code: *code });
            }
        }
        let valid: Vec<bool> = codes.iter().map(Option::is_some).collect();
        let data: Vec<u32> = codes.into_iter().map(|c| c.unwrap_or(0)).collect();
        let len = data.len();
        let segments = seal_categorical(data, valid, DEFAULT_SEGMENT_ROWS);
        Ok(Column::from_parts(
            name.into(),
            ColumnKind::Categorical,
            DEFAULT_SEGMENT_ROWS,
            len,
            segments,
            Arc::new(categories),
        ))
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Storage kind of this column.
    pub fn kind(&self) -> ColumnKind {
        self.kind
    }

    /// Dictionary (empty for numeric columns).
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Number of categories in the dictionary (0 for numeric columns).
    pub fn cardinality(&self) -> usize {
        self.categories.len()
    }

    /// Rows per full segment.
    pub fn segment_rows(&self) -> usize {
        self.seg_rows
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// First row covered by segment `seg`.
    pub fn segment_offset(&self, seg: usize) -> usize {
        seg * self.seg_rows
    }

    /// Rows in segment `seg` (the last segment may be short).
    pub fn segment_len(&self, seg: usize) -> usize {
        self.segments.get(seg).map_or(0, |s| s.len())
    }

    /// Read handle on segment `seg`'s payload, reloading it from the spill
    /// tier if necessary. Hot loops should fetch one view per segment
    /// instead of calling the per-cell accessors per row.
    pub fn segment_view(&self, seg: usize) -> Result<SegmentView> {
        match self.segments.get(seg) {
            Some(core) => core.view(),
            None => Err(FrameError::ColumnOutOfBounds { col: seg, ncols: self.segments.len() }),
        }
    }

    /// Memoized content fingerprint of segment `seg` (kind + values +
    /// validity; excludes the column name, so identical content shares
    /// spill files and feature-block cache entries across columns).
    pub fn segment_fingerprint(&self, seg: usize) -> Result<u64> {
        match self.segments.get(seg) {
            Some(core) => core.fingerprint(),
            None => Err(FrameError::ColumnOutOfBounds { col: seg, ncols: self.segments.len() }),
        }
    }

    #[inline]
    fn locate(&self, row: usize) -> (usize, usize) {
        (row / self.seg_rows, row % self.seg_rows)
    }

    /// Number of missing cells.
    pub fn missing_count(&self) -> usize {
        let mut count = 0;
        for seg in &self.segments {
            if let Ok(view) = seg.view() {
                count += view.payload().valid.iter().filter(|v| !**v).count();
            }
        }
        count
    }

    /// True when the cell at `row` is present (in bounds and not missing).
    pub fn is_valid(&self, row: usize) -> bool {
        if row >= self.len {
            return false;
        }
        let (s, local) = self.locate(row);
        self.segments[s].view().map(|v| v.is_valid(local)).unwrap_or(false)
    }

    /// Read the cell at `row`.
    pub fn get(&self, row: usize) -> Result<Cell> {
        if row >= self.len {
            return Err(FrameError::RowOutOfBounds { row, nrows: self.len });
        }
        let (s, local) = self.locate(row);
        let view = self.segments[s].view()?;
        if !view.is_valid(local) {
            return Ok(Cell::Missing);
        }
        Ok(match view.payload().data {
            SegData::Num(ref v) => Cell::Num(v[local]),
            SegData::Cat(ref v) => Cell::Cat(v[local]),
        })
    }

    /// Write the cell at `row`, enforcing the column's kind. Writing
    /// [`Cell::Missing`] clears the validity bit; writing a value sets it.
    /// The first write to a shared segment un-shares that segment only
    /// (copy-on-write at segment granularity).
    pub fn set(&mut self, row: usize, cell: Cell) -> Result<()> {
        if row >= self.len {
            return Err(FrameError::RowOutOfBounds { row, nrows: self.len });
        }
        match (self.kind, cell) {
            (_, Cell::Missing) | (ColumnKind::Numeric, Cell::Num(_)) => {}
            (ColumnKind::Categorical, Cell::Cat(code)) => {
                if code as usize >= self.categories.len() {
                    return Err(FrameError::UnknownCategory {
                        column: self.name.as_ref().to_owned(),
                        code,
                    });
                }
            }
            (_, cell) => {
                return Err(FrameError::TypeMismatch {
                    column: self.name.as_ref().to_owned(),
                    expected: self.kind.name(),
                    got: cell.kind_name(),
                })
            }
        }
        let (s, local) = self.locate(row);
        let core = &self.segments[s];
        if Arc::strong_count(core) == 1 {
            // Uniquely owned by this column: mutate in place (the payload
            // itself un-shares from live views via make_mut).
            core.with_payload_mut(|payload| apply_cell(payload, local, cell))?;
        } else {
            // Shared with a snapshot: copy-on-write this one segment.
            let view = core.view()?;
            let mut payload = view.payload().clone();
            apply_cell(&mut payload, local, cell);
            self.segments[s] = SegmentCore::new_resident(payload, self.kind);
        }
        self.fp = FpCache::default();
        Ok(())
    }

    /// Numeric value at `row` if present and the column is numeric.
    pub fn num(&self, row: usize) -> Option<f64> {
        if row >= self.len {
            return None;
        }
        let (s, local) = self.locate(row);
        self.segments[s].view().ok()?.num(local)
    }

    /// Categorical code at `row` if present and the column is categorical.
    pub fn cat(&self, row: usize) -> Option<u32> {
        if row >= self.len {
            return None;
        }
        let (s, local) = self.locate(row);
        self.segments[s].view().ok()?.cat(local)
    }

    /// Iterate all cells in row order.
    pub fn iter(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.len).map(move |row| self.get(row).unwrap_or(Cell::Missing))
    }

    /// Build a new column containing only the given rows, in order.
    /// Duplicated and re-ordered indices are allowed (used by bootstrap
    /// sampling and splits). Raw payload values (including fillers under
    /// masked cells) are preserved so fingerprints match the pre-segmented
    /// layout exactly.
    pub fn take(&self, rows: &[usize]) -> Result<Column> {
        let nrows = self.len;
        if let Some(&bad) = rows.iter().find(|&&r| r >= nrows) {
            return Err(FrameError::RowOutOfBounds { row: bad, nrows });
        }
        let mut out = SegmentSealer::new(self.kind, self.seg_rows, rows.len());
        // Cache the last source view: split/sample indices are sorted, so
        // consecutive rows overwhelmingly land in the same segment.
        let mut cached: Option<(usize, SegmentView)> = None;
        for &r in rows {
            let (s, local) = self.locate(r);
            let view = match &cached {
                Some((seg, view)) if *seg == s => view,
                _ => {
                    cached = Some((s, self.segment_view(s)?));
                    match &cached {
                        Some((_, view)) => view,
                        // The cache was just written; this arm is unreachable.
                        None => return Err(FrameError::Io("segment cache invariant".into())),
                    }
                }
            };
            out.push_raw(view, local);
        }
        Ok(Column::from_parts(
            self.name.clone(),
            self.kind,
            self.seg_rows,
            rows.len(),
            out.finish(),
            self.categories.clone(),
        ))
    }

    /// Rebuild this column with a different segment size. `seg_rows == 0`
    /// means whole-column (a single segment). Content, fingerprints, and
    /// traces are invariant under resegmentation; only locality and spill
    /// granularity change. A no-op (O(1) clone) when the size matches.
    pub fn resegment(&self, seg_rows: usize) -> Result<Column> {
        let target = if seg_rows == 0 { self.len.max(1) } else { seg_rows };
        if target == self.seg_rows {
            return Ok(self.clone());
        }
        let mut out = SegmentSealer::new(self.kind, target, self.len);
        for seg in 0..self.segments.len() {
            let view = self.segment_view(seg)?;
            for local in 0..view.len() {
                out.push_raw(&view, local);
            }
        }
        let mut col = Column::from_parts(
            self.name.clone(),
            self.kind,
            target,
            self.len,
            out.finish(),
            self.categories.clone(),
        );
        // Content is unchanged, so the memoized whole-column fingerprint
        // (segment-size-invariant by construction) carries over.
        col.fp = self.fp.clone();
        Ok(col)
    }

    /// Rename the column (used when deriving feature matrices).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into().into();
        self.fp = FpCache::default();
        self
    }

    /// True when `self` and `other` share the same payload storage (an O(1)
    /// copy-on-write clone that has not diverged). Diagnostic for tests and
    /// snapshot-cost assertions.
    pub fn shares_storage_with(&self, other: &Column) -> bool {
        self.segments.len() == other.segments.len()
            && self.segments.iter().zip(&other.segments).all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Memoization slot for the content fingerprint (see `fingerprint.rs`).
    pub(crate) fn fp_slot(&self) -> &OnceLock<u64> {
        &self.fp.0
    }

    /// Display string for a cell (category name, numeric literal, or empty
    /// string for missing) — the CSV writer's cell format.
    pub fn display(&self, row: usize) -> Result<String> {
        Ok(match self.get(row)? {
            Cell::Missing => String::new(),
            Cell::Num(v) => format_float(v),
            Cell::Cat(code) => self.categories[code as usize].clone(),
        })
    }
}

/// Format a float so that CSV round-trips losslessly (shortest repr).
pub(crate) fn format_float(v: f64) -> String {
    let mut s = format!("{v}");
    // Ensure a decimal point or exponent so the reader infers numeric.
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
        s.push_str(".0");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat_col() -> Column {
        Column::categorical(
            "color",
            vec![0, 1, 2, 1],
            vec!["red".into(), "green".into(), "blue".into()],
        )
        .unwrap()
    }

    #[test]
    fn numeric_get_set_roundtrip() {
        let mut c = Column::numeric("x", vec![1.0, 2.0, 3.0]);
        assert_eq!(c.get(1).unwrap(), Cell::Num(2.0));
        c.set(1, Cell::Num(9.5)).unwrap();
        assert_eq!(c.get(1).unwrap(), Cell::Num(9.5));
        assert_eq!(c.num(1), Some(9.5));
        assert_eq!(c.cat(1), None);
    }

    #[test]
    fn missing_via_mask_not_nan() {
        let mut c = Column::numeric("x", vec![1.0, 2.0]);
        c.set(0, Cell::Missing).unwrap();
        assert_eq!(c.get(0).unwrap(), Cell::Missing);
        assert_eq!(c.missing_count(), 1);
        // Restoring a value clears the missing bit.
        c.set(0, Cell::Num(7.0)).unwrap();
        assert_eq!(c.missing_count(), 0);
        assert_eq!(c.get(0).unwrap(), Cell::Num(7.0));
    }

    #[test]
    fn numeric_opt_builder() {
        let c = Column::numeric_opt("x", vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(c.missing_count(), 1);
        assert!(c.get(1).unwrap().is_missing());
    }

    #[test]
    fn categorical_roundtrip_and_dictionary_bounds() {
        let mut c = cat_col();
        assert_eq!(c.get(2).unwrap(), Cell::Cat(2));
        assert_eq!(c.cardinality(), 3);
        c.set(0, Cell::Cat(2)).unwrap();
        assert_eq!(c.cat(0), Some(2));
        let err = c.set(0, Cell::Cat(3)).unwrap_err();
        assert!(matches!(err, FrameError::UnknownCategory { code: 3, .. }));
    }

    #[test]
    fn invalid_code_in_constructor() {
        let err = Column::categorical("c", vec![5], vec!["only".into()]).unwrap_err();
        assert!(matches!(err, FrameError::UnknownCategory { code: 5, .. }));
        let err = Column::categorical_opt("c", vec![Some(9)], vec!["only".into()]).unwrap_err();
        assert!(matches!(err, FrameError::UnknownCategory { code: 9, .. }));
    }

    #[test]
    fn type_mismatch_on_set() {
        let mut c = Column::numeric("x", vec![1.0]);
        let err = c.set(0, Cell::Cat(0)).unwrap_err();
        assert!(matches!(err, FrameError::TypeMismatch { .. }));
    }

    #[test]
    fn out_of_bounds_get_set() {
        let mut c = Column::numeric("x", vec![1.0]);
        assert!(c.get(1).is_err());
        assert!(c.set(1, Cell::Num(0.0)).is_err());
    }

    #[test]
    fn take_reorders_and_duplicates() {
        let c = Column::numeric_opt("x", vec![Some(1.0), None, Some(3.0)]);
        let t = c.take(&[2, 0, 0, 1]).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(0).unwrap(), Cell::Num(3.0));
        assert_eq!(t.get(1).unwrap(), Cell::Num(1.0));
        assert_eq!(t.get(2).unwrap(), Cell::Num(1.0));
        assert!(t.get(3).unwrap().is_missing());
        assert!(c.take(&[99]).is_err());
    }

    #[test]
    fn take_preserves_dictionary() {
        let c = cat_col();
        let t = c.take(&[3, 2]).unwrap();
        assert_eq!(t.categories(), c.categories());
        assert_eq!(t.cat(0), Some(1));
    }

    #[test]
    fn display_formats() {
        let mut c = cat_col();
        assert_eq!(c.display(0).unwrap(), "red");
        c.set(0, Cell::Missing).unwrap();
        assert_eq!(c.display(0).unwrap(), "");
        let n = Column::numeric("x", vec![2.0, 2.5]);
        assert_eq!(n.display(0).unwrap(), "2.0");
        assert_eq!(n.display(1).unwrap(), "2.5");
    }

    #[test]
    fn iter_yields_all_cells() {
        let c = Column::numeric_opt("x", vec![Some(1.0), None]);
        let cells: Vec<Cell> = c.iter().collect();
        assert_eq!(cells, vec![Cell::Num(1.0), Cell::Missing]);
    }

    #[test]
    fn clone_is_shared_until_mutation() {
        let a = Column::numeric_opt("x", vec![Some(1.0), None, Some(3.0)]);
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b));
        b.set(0, Cell::Num(9.0)).unwrap();
        assert!(!a.shares_storage_with(&b));
        // The original is untouched by writes through the clone.
        assert_eq!(a.get(0).unwrap(), Cell::Num(1.0));
        assert_eq!(b.get(0).unwrap(), Cell::Num(9.0));
        assert!(a.get(1).unwrap().is_missing() && b.get(1).unwrap().is_missing());
    }

    #[test]
    fn missing_write_unshares_only_the_mask() {
        let a = cat_col();
        let mut b = a.clone();
        b.set(2, Cell::Missing).unwrap();
        assert_eq!(a.missing_count(), 0);
        assert_eq!(b.missing_count(), 1);
        assert_eq!(a.cat(2), Some(2));
    }

    #[test]
    fn equality_ignores_sharing() {
        let a = Column::numeric("x", vec![1.0, 2.0]);
        let shared = a.clone();
        let rebuilt = Column::numeric("x", vec![1.0, 2.0]);
        assert!(a.shares_storage_with(&shared));
        assert!(!a.shares_storage_with(&rebuilt));
        assert_eq!(a, shared);
        assert_eq!(a, rebuilt);
    }

    #[test]
    fn cell_accessors() {
        assert!(Cell::Missing.is_missing());
        assert_eq!(Cell::Num(2.0).as_num(), Some(2.0));
        assert_eq!(Cell::Num(2.0).as_cat(), None);
        assert_eq!(Cell::Cat(1).as_cat(), Some(1));
        assert_eq!(Cell::Cat(1).as_num(), None);
        assert_eq!(Cell::Missing.kind_name(), "missing");
    }

    #[test]
    fn resegment_preserves_content_and_sharing_granularity() {
        let values: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let base = Column::numeric("x", values.clone());
        let seg = base.resegment(16).unwrap();
        assert_eq!(seg.n_segments(), 7);
        assert_eq!(seg.segment_len(6), 4);
        assert_eq!(seg.segment_offset(3), 48);
        assert_eq!(base, seg);
        assert_eq!(base.fingerprint(), seg.fingerprint());
        // Whole-column sentinel.
        let whole = seg.resegment(0).unwrap();
        assert_eq!(whole.n_segments(), 1);
        assert_eq!(whole.fingerprint(), base.fingerprint());
    }

    #[test]
    fn segment_cow_touches_one_segment() {
        let base =
            Column::numeric("x", (0..100).map(|i| i as f64).collect()).resegment(16).unwrap();
        let mut poked = base.clone();
        poked.set(50, Cell::Num(-1.0)).unwrap();
        assert!(!poked.shares_storage_with(&base));
        // Only segment 3 (rows 48..64) diverged.
        for seg in 0..base.n_segments() {
            let same = Arc::ptr_eq(&base.segments[seg], &poked.segments[seg]);
            assert_eq!(same, seg != 3, "segment {seg}");
        }
        assert_eq!(base.get(50).unwrap(), Cell::Num(50.0));
        assert_eq!(poked.get(50).unwrap(), Cell::Num(-1.0));
    }

    #[test]
    fn segment_fingerprints_are_content_addressed() {
        let a = Column::numeric("a", (0..64).map(|i| i as f64).collect()).resegment(16).unwrap();
        let b = Column::numeric("b", (0..64).map(|i| i as f64).collect()).resegment(16).unwrap();
        // Same content, different names: segment fingerprints agree
        // (content-addressed), whole-column fingerprints differ (named).
        for seg in 0..a.n_segments() {
            assert_eq!(a.segment_fingerprint(seg).unwrap(), b.segment_fingerprint(seg).unwrap());
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.set(17, Cell::Num(99.0)).unwrap();
        assert_ne!(
            a.segment_fingerprint(1).unwrap(),
            c.segment_fingerprint(1).unwrap(),
            "touched segment fingerprint changes"
        );
        assert_eq!(a.segment_fingerprint(0).unwrap(), c.segment_fingerprint(0).unwrap());
    }

    #[test]
    fn take_across_segments_preserves_segment_size() {
        let base = Column::numeric_opt(
            "x",
            (0..100).map(|i| if i % 7 == 0 { None } else { Some(i as f64) }).collect(),
        )
        .resegment(16)
        .unwrap();
        let rows: Vec<usize> = (0..100).step_by(3).collect();
        let t = base.take(&rows).unwrap();
        assert_eq!(t.segment_rows(), 16);
        assert_eq!(t.len(), rows.len());
        for (out_row, &src_row) in rows.iter().enumerate() {
            assert_eq!(t.get(out_row).unwrap(), base.get(src_row).unwrap());
        }
    }
}
