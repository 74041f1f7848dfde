//! Schema: column names, kinds, and roles.

use crate::{FrameError, Result};

/// The storage kind of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// `f64` values.
    Numeric,
    /// Dictionary-encoded categories (`u32` codes).
    Categorical,
}

impl ColumnKind {
    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            ColumnKind::Numeric => "numeric",
            ColumnKind::Categorical => "categorical",
        }
    }
}

/// The role a column plays in the ML task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// An input feature — eligible for pollution and cleaning.
    Feature,
    /// The prediction target. The paper never pollutes labels (§4.1).
    Label,
}

/// Metadata for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldMeta {
    /// Column name (unique within a schema).
    pub name: String,
    /// Storage kind.
    pub kind: ColumnKind,
    /// Feature or label.
    pub role: Role,
}

impl FieldMeta {
    /// Convenience constructor for a numeric feature.
    pub fn numeric(name: impl Into<String>) -> Self {
        FieldMeta { name: name.into(), kind: ColumnKind::Numeric, role: Role::Feature }
    }

    /// Convenience constructor for a categorical feature.
    pub fn categorical(name: impl Into<String>) -> Self {
        FieldMeta { name: name.into(), kind: ColumnKind::Categorical, role: Role::Feature }
    }

    /// Convenience constructor for a categorical label.
    pub fn label(name: impl Into<String>) -> Self {
        FieldMeta { name: name.into(), kind: ColumnKind::Categorical, role: Role::Label }
    }
}

/// An ordered set of [`FieldMeta`] with unique names and at most one label.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<FieldMeta>,
}

impl Schema {
    /// Build a schema, validating name uniqueness and label multiplicity.
    pub fn new(fields: Vec<FieldMeta>) -> Result<Self> {
        let mut labels = 0usize;
        for (i, field) in fields.iter().enumerate() {
            if fields[..i].iter().any(|f| f.name == field.name) {
                return Err(FrameError::DuplicateColumn(field.name.clone()));
            }
            if field.role == Role::Label {
                labels += 1;
            }
        }
        if labels > 1 {
            return Err(FrameError::InvalidArgument("schema has more than one label".into()));
        }
        Ok(Schema { fields })
    }

    /// Number of columns (features + label).
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in column order.
    pub fn fields(&self) -> &[FieldMeta] {
        &self.fields
    }

    /// Metadata for column `idx`.
    pub fn field(&self, idx: usize) -> Result<&FieldMeta> {
        self.fields
            .get(idx)
            .ok_or(FrameError::ColumnOutOfBounds { col: idx, ncols: self.fields.len() })
    }

    /// Index of the column called `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| FrameError::UnknownColumn(name.to_string()))
    }

    /// Index of the label column, if any.
    pub fn label_index(&self) -> Option<usize> {
        self.fields.iter().position(|f| f.role == Role::Label)
    }

    /// Indices of all feature columns, in order.
    pub fn feature_indices(&self) -> Vec<usize> {
        self.fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.role == Role::Feature)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            FieldMeta::numeric("age"),
            FieldMeta::categorical("job"),
            FieldMeta::label("churn"),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![FieldMeta::numeric("x"), FieldMeta::categorical("x")]);
        assert_eq!(err.unwrap_err(), FrameError::DuplicateColumn("x".into()));
    }

    #[test]
    fn two_labels_rejected() {
        let err = Schema::new(vec![FieldMeta::label("a"), FieldMeta::label("b")]);
        assert!(matches!(err.unwrap_err(), FrameError::InvalidArgument(_)));
    }

    #[test]
    fn lookup_by_name_and_index() {
        let s = sample();
        assert_eq!(s.index_of("job").unwrap(), 1);
        assert_eq!(s.field(0).unwrap().name, "age");
        assert!(s.index_of("nope").is_err());
        assert!(s.field(9).is_err());
    }

    #[test]
    fn label_and_feature_indices() {
        let s = sample();
        assert_eq!(s.label_index(), Some(2));
        assert_eq!(s.feature_indices(), vec![0, 1]);
    }

    #[test]
    fn schema_without_label() {
        let s = Schema::new(vec![FieldMeta::numeric("only")]).unwrap();
        assert_eq!(s.label_index(), None);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn kind_names() {
        assert_eq!(ColumnKind::Numeric.name(), "numeric");
        assert_eq!(ColumnKind::Categorical.name(), "categorical");
    }
}
