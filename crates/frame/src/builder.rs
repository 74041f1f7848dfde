//! Row-oriented, streaming frame construction.
//!
//! [`ColumnBuilder`] accumulates one column's cells and seals them into
//! fixed-size segments as it goes, so building a 10⁷-row column never holds
//! more than one unsealed segment of working buffer per column — and when
//! the spill pool is configured, sealed segments can already spill while
//! the rest of the data is still being generated or parsed.
//! [`DataFrameBuilder`] stacks one `ColumnBuilder` per schema field behind
//! a row-at-a-time API.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::column::Column;
use crate::segment::{SegmentSealer, DEFAULT_SEGMENT_ROWS};
use crate::{Cell, ColumnKind, DataFrame, FieldMeta, FrameError, Result, Role, Schema};

/// Streaming builder for a single [`Column`]: cells are pushed one at a
/// time and sealed into segments of `seg_rows` rows incrementally.
///
/// Categorical builders come in two flavours: a *fixed* dictionary declared
/// up front ([`ColumnBuilder::categorical`], used by generators so codes
/// are stable across builds) and an *open* dictionary grown in
/// first-appearance order ([`ColumnBuilder::categorical_open`], used by the
/// CSV reader's inference).
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    name: String,
    sealer: SegmentSealer,
    len: usize,
    dict: Vec<String>,
    dict_index: BTreeMap<String, u32>,
    open_dict: bool,
}

impl ColumnBuilder {
    fn new(name: String, kind: ColumnKind, seg_rows: usize, dict: Vec<String>, open: bool) -> Self {
        let seg_rows = if seg_rows == 0 { DEFAULT_SEGMENT_ROWS } else { seg_rows };
        let dict_index =
            dict.iter().enumerate().map(|(i, s)| (s.clone(), i as u32)).collect::<BTreeMap<_, _>>();
        ColumnBuilder {
            name,
            sealer: SegmentSealer::new(kind, seg_rows, 0),
            len: 0,
            dict,
            dict_index,
            open_dict: open,
        }
    }

    /// Start a numeric column. `seg_rows == 0` selects
    /// [`DEFAULT_SEGMENT_ROWS`].
    pub fn numeric(name: impl Into<String>, seg_rows: usize) -> Self {
        ColumnBuilder::new(name.into(), ColumnKind::Numeric, seg_rows, Vec::new(), false)
    }

    /// Start a categorical column with a fixed dictionary.
    pub fn categorical(name: impl Into<String>, dict: Vec<String>, seg_rows: usize) -> Self {
        ColumnBuilder::new(name.into(), ColumnKind::Categorical, seg_rows, dict, false)
    }

    /// Start a categorical column whose dictionary grows in first-appearance
    /// order as labels are pushed ([`ColumnBuilder::push_label`]).
    pub fn categorical_open(name: impl Into<String>, seg_rows: usize) -> Self {
        ColumnBuilder::new(name.into(), ColumnKind::Categorical, seg_rows, Vec::new(), true)
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mismatch(&self, got: &'static str) -> FrameError {
        let expected = self.sealer.kind().name();
        FrameError::TypeMismatch { column: self.name.clone(), expected, got }
    }

    /// Push a numeric value (`None` = missing). Errors on categorical
    /// columns.
    pub fn push_num(&mut self, value: Option<f64>) -> Result<()> {
        if self.sealer.kind() != ColumnKind::Numeric {
            return Err(self.mismatch("numeric"));
        }
        self.sealer.push_num(value.unwrap_or(0.0), value.is_some());
        self.len += 1;
        Ok(())
    }

    /// Push a categorical code (`None` = missing), validated against the
    /// current dictionary. Errors on numeric columns.
    pub fn push_cat(&mut self, code: Option<u32>) -> Result<()> {
        if self.sealer.kind() != ColumnKind::Categorical {
            return Err(self.mismatch("categorical"));
        }
        if let Some(code) = code {
            if code as usize >= self.dict.len() {
                return Err(FrameError::UnknownCategory { column: self.name.clone(), code });
            }
        }
        self.sealer.push_cat(code.unwrap_or(0), code.is_some());
        self.len += 1;
        Ok(())
    }

    /// Push a categorical value by label, interning it into the dictionary
    /// (open-dictionary builders only).
    pub fn push_label(&mut self, label: &str) -> Result<()> {
        if self.sealer.kind() != ColumnKind::Categorical {
            return Err(self.mismatch("categorical"));
        }
        if !self.open_dict {
            return Err(FrameError::InvalidArgument(format!(
                "column {:?} has a fixed dictionary; push codes instead",
                self.name
            )));
        }
        let code = match self.dict_index.get(label) {
            Some(&code) => code,
            None => {
                let code = self.dict.len() as u32;
                self.dict.push(label.to_string());
                self.dict_index.insert(label.to_string(), code);
                code
            }
        };
        self.sealer.push_cat(code, true);
        self.len += 1;
        Ok(())
    }

    /// Push any cell, dispatching on the column kind.
    pub fn push_cell(&mut self, cell: Cell) -> Result<()> {
        match (self.sealer.kind(), cell) {
            (ColumnKind::Numeric, Cell::Num(v)) => self.push_num(Some(v)),
            (ColumnKind::Numeric, Cell::Missing) => self.push_num(None),
            (ColumnKind::Categorical, Cell::Cat(c)) => self.push_cat(Some(c)),
            (ColumnKind::Categorical, Cell::Missing) => self.push_cat(None),
            (_, cell) => Err(self.mismatch(cell.kind_name())),
        }
    }

    /// Seal the trailing partial segment and produce the column.
    pub fn finish(self) -> Column {
        let (kind, seg_rows) = (self.sealer.kind(), self.sealer.seg_rows());
        Column::from_parts(
            self.name.into(),
            kind,
            seg_rows,
            self.len,
            self.sealer.finish(),
            Arc::new(self.dict),
        )
    }
}

/// Incrementally builds a [`DataFrame`] row by row against a fixed schema.
///
/// Used by dataset generators and the CSV reader: declare the schema first,
/// then push rows of [`Cell`]s. Categorical dictionaries must be declared up
/// front so codes are stable across builds with different row orders. Rows
/// stream into per-column segments as they arrive (see [`ColumnBuilder`]),
/// so peak memory stays bounded by the spill budget, not the frame size.
#[derive(Debug, Clone)]
pub struct DataFrameBuilder {
    schema: Schema,
    builders: Vec<ColumnBuilder>,
    /// Per-column dictionaries (empty for numeric columns), kept for
    /// row-level validation before any cell of the row is committed.
    dictionaries: Vec<Vec<String>>,
}

impl DataFrameBuilder {
    /// Start a builder for `schema`. `dictionaries[i]` must be non-empty for
    /// every categorical column `i` and empty for numeric columns.
    pub fn new(schema: Schema, dictionaries: Vec<Vec<String>>) -> Result<Self> {
        DataFrameBuilder::with_segment_rows(schema, dictionaries, DEFAULT_SEGMENT_ROWS)
    }

    /// Like [`DataFrameBuilder::new`] with an explicit segment size
    /// (`seg_rows == 0` selects [`DEFAULT_SEGMENT_ROWS`]).
    pub fn with_segment_rows(
        schema: Schema,
        dictionaries: Vec<Vec<String>>,
        seg_rows: usize,
    ) -> Result<Self> {
        if dictionaries.len() != schema.len() {
            return Err(FrameError::InvalidArgument(format!(
                "expected {} dictionaries, got {}",
                schema.len(),
                dictionaries.len()
            )));
        }
        let mut builders = Vec::with_capacity(schema.len());
        for (i, field) in schema.fields().iter().enumerate() {
            let dict_len = dictionaries[i].len();
            match field.kind {
                ColumnKind::Categorical if dict_len == 0 => {
                    return Err(FrameError::InvalidArgument(format!(
                        "categorical column {:?} needs a dictionary",
                        field.name
                    )))
                }
                ColumnKind::Numeric if dict_len != 0 => {
                    return Err(FrameError::InvalidArgument(format!(
                        "numeric column {:?} must not have a dictionary",
                        field.name
                    )))
                }
                _ => {}
            }
            builders.push(match field.kind {
                ColumnKind::Numeric => ColumnBuilder::numeric(field.name.clone(), seg_rows),
                ColumnKind::Categorical => ColumnBuilder::categorical(
                    field.name.clone(),
                    dictionaries[i].clone(),
                    seg_rows,
                ),
            });
        }
        Ok(DataFrameBuilder { schema, builders, dictionaries })
    }

    /// Append one row. The row length must match the schema and each cell's
    /// kind must match its column; the row is validated in full before any
    /// cell is committed.
    pub fn push_row(&mut self, row: &[Cell]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(FrameError::InvalidArgument(format!(
                "row has {} cells, schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        for (i, &cell) in row.iter().enumerate() {
            let field = self.schema.field(i)?;
            let ok = match (field.kind, cell) {
                (_, Cell::Missing) => true,
                (ColumnKind::Numeric, Cell::Num(_)) => true,
                (ColumnKind::Categorical, Cell::Cat(code)) => {
                    (code as usize) < self.dictionaries[i].len()
                }
                _ => false,
            };
            if !ok {
                return Err(FrameError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.kind.name(),
                    got: cell.kind_name(),
                });
            }
        }
        for (i, &cell) in row.iter().enumerate() {
            self.builders[i].push_cell(cell)?;
        }
        Ok(())
    }

    /// Number of rows accumulated so far.
    pub fn nrows(&self) -> usize {
        self.builders.first().map_or(0, ColumnBuilder::len)
    }

    /// Finish, producing the frame. Fails on zero rows.
    pub fn finish(self) -> Result<DataFrame> {
        if self.nrows() == 0 {
            return Err(FrameError::Empty);
        }
        let label_name = self.schema.label_index().map(|i| self.schema.fields()[i].name.clone());
        let columns: Vec<Column> = self.builders.into_iter().map(ColumnBuilder::finish).collect();
        DataFrame::new(columns, label_name.as_deref())
    }

    /// The builder's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

/// Convenience: schema + dictionaries for the common "numeric features with a
/// categorical label" case. Errors if the names collide or a dictionary is
/// malformed, same as [`Schema::new`].
pub fn numeric_schema(
    features: &[&str],
    label: &str,
    classes: &[&str],
) -> Result<(Schema, Vec<Vec<String>>)> {
    let mut fields: Vec<FieldMeta> = features.iter().map(|f| FieldMeta::numeric(*f)).collect();
    fields.push(FieldMeta { name: label.into(), kind: ColumnKind::Categorical, role: Role::Label });
    let mut dicts: Vec<Vec<String>> = vec![Vec::new(); features.len()];
    dicts.push(classes.iter().map(|c| c.to_string()).collect());
    Ok((Schema::new(fields)?, dicts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> DataFrameBuilder {
        let schema = Schema::new(vec![
            FieldMeta::numeric("x"),
            FieldMeta::categorical("c"),
            FieldMeta::label("y"),
        ])
        .unwrap();
        let dicts = vec![vec![], vec!["a".into(), "b".into()], vec!["no".into(), "yes".into()]];
        DataFrameBuilder::new(schema, dicts).unwrap()
    }

    #[test]
    fn builds_frame_row_by_row() {
        let mut b = builder();
        b.push_row(&[Cell::Num(1.0), Cell::Cat(0), Cell::Cat(1)]).unwrap();
        b.push_row(&[Cell::Missing, Cell::Cat(1), Cell::Cat(0)]).unwrap();
        assert_eq!(b.nrows(), 2);
        let df = b.finish().unwrap();
        assert_eq!(df.nrows(), 2);
        assert_eq!(df.label_codes().unwrap(), vec![1, 0]);
        assert!(df.get(1, 0).unwrap().is_missing());
        assert_eq!(df.column_by_name("c").unwrap().cardinality(), 2);
    }

    #[test]
    fn wrong_row_length_rejected() {
        let mut b = builder();
        assert!(b.push_row(&[Cell::Num(1.0)]).is_err());
    }

    #[test]
    fn wrong_cell_kind_rejected() {
        let mut b = builder();
        let err = b.push_row(&[Cell::Cat(0), Cell::Cat(0), Cell::Cat(0)]).unwrap_err();
        assert!(matches!(err, FrameError::TypeMismatch { .. }));
    }

    #[test]
    fn out_of_dictionary_code_rejected() {
        let mut b = builder();
        let err = b.push_row(&[Cell::Num(1.0), Cell::Cat(5), Cell::Cat(0)]).unwrap_err();
        assert!(matches!(err, FrameError::TypeMismatch { .. }));
    }

    #[test]
    fn empty_finish_rejected() {
        assert_eq!(builder().finish().unwrap_err(), FrameError::Empty);
    }

    #[test]
    fn dictionary_arity_validated() {
        let schema = Schema::new(vec![FieldMeta::numeric("x")]).unwrap();
        assert!(DataFrameBuilder::new(schema.clone(), vec![]).is_err());
        assert!(DataFrameBuilder::new(schema, vec![vec!["oops".into()]]).is_err());
        let cat_schema = Schema::new(vec![FieldMeta::categorical("c")]).unwrap();
        assert!(DataFrameBuilder::new(cat_schema, vec![vec![]]).is_err());
    }

    #[test]
    fn numeric_schema_helper() {
        let (schema, dicts) = numeric_schema(&["f1", "f2"], "y", &["neg", "pos"]).unwrap();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema.label_index(), Some(2));
        assert_eq!(schema.fields()[0].kind, ColumnKind::Numeric);
        assert_eq!(dicts[2], vec!["neg".to_string(), "pos".to_string()]);
    }

    #[test]
    fn column_builder_streams_into_segments() {
        let mut b = ColumnBuilder::numeric("x", 8);
        for i in 0..20 {
            b.push_num(if i % 3 == 0 { None } else { Some(i as f64) }).unwrap();
        }
        assert_eq!(b.len(), 20);
        let col = b.finish();
        assert_eq!(col.len(), 20);
        assert_eq!(col.n_segments(), 3);
        assert_eq!(col.segment_rows(), 8);
        assert!(col.get(0).unwrap().is_missing());
        assert_eq!(col.num(4), Some(4.0));
        // Identical content built whole-column must fingerprint identically.
        let whole = Column::numeric_opt(
            "x",
            (0..20).map(|i| if i % 3 == 0 { None } else { Some(i as f64) }).collect(),
        );
        assert_eq!(col.fingerprint(), whole.fingerprint());
    }

    #[test]
    fn column_builder_open_dictionary_first_appearance_order() {
        let mut b = ColumnBuilder::categorical_open("c", 4);
        for label in ["b", "a", "b", "c", "a", "b"] {
            b.push_label(label).unwrap();
        }
        b.push_cat(None).unwrap();
        let col = b.finish();
        assert_eq!(col.categories(), &["b".to_string(), "a".to_string(), "c".to_string()]);
        assert_eq!(col.cat(0), Some(0));
        assert_eq!(col.cat(3), Some(2));
        assert_eq!(col.missing_count(), 1);
        assert_eq!(col.n_segments(), 2);
    }

    #[test]
    fn column_builder_kind_and_bounds_checks() {
        let mut n = ColumnBuilder::numeric("x", 0);
        assert!(n.push_cat(Some(0)).is_err());
        assert!(n.push_label("a").is_err());
        let mut c = ColumnBuilder::categorical("c", vec!["only".into()], 0);
        assert!(c.push_num(Some(1.0)).is_err());
        assert!(c.push_cat(Some(1)).is_err());
        assert!(c.push_label("other").is_err(), "fixed dictionaries reject interning");
        c.push_cat(Some(0)).unwrap();
        assert_eq!(c.finish().cat(0), Some(0));
    }

    #[test]
    fn empty_column_builder_finishes_to_empty_column() {
        let col = ColumnBuilder::numeric("x", 4).finish();
        assert_eq!(col.len(), 0);
        assert!(col.is_empty());
        assert_eq!(col.n_segments(), 1);
    }
}
