//! Schema describing the columns of a [`crate::Frame`].

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit float; `NaN` encodes a missing value.
    Float,
    /// Nullable 64-bit integer.
    Int,
    /// Nullable boolean.
    Bool,
    /// Dictionary-encoded string category.
    Categorical,
}

impl DataType {
    /// Human-readable name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Float => "float",
            DataType::Int => "int",
            DataType::Bool => "bool",
            DataType::Categorical => "categorical",
        }
    }
}

/// A named, typed column slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name, unique within a schema.
    pub name: String,
    /// Logical type of the column.
    pub dtype: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field { name: name.into(), dtype }
    }
}

/// An ordered collection of [`Field`]s with O(1) name lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Position of a field by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.position(name).map(|i| &self.fields[i])
    }

    /// True when a field with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Append a field, returning its position.
    pub(crate) fn push(&mut self, field: Field) -> usize {
        let pos = self.fields.len();
        self.index.insert(field.name.clone(), pos);
        self.fields.push(field);
        pos
    }

    /// Rebuild the name index (needed after deserialisation, since the
    /// index is skipped by serde).
    pub fn rebuild_index(&mut self) {
        self.index = self.fields.iter().enumerate().map(|(i, f)| (f.name.clone(), i)).collect();
    }

    /// Names of all fields in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut s = Schema::new();
        s.push(Field::new("a", DataType::Float));
        s.push(Field::new("b", DataType::Bool));
        assert_eq!(s.position("a"), Some(0));
        assert_eq!(s.position("b"), Some(1));
        assert_eq!(s.position("c"), None);
        assert_eq!(s.field("b").unwrap().dtype, DataType::Bool);
        assert_eq!(s.names(), vec!["a", "b"]);
    }

    #[test]
    fn rebuild_index_after_manual_clear() {
        let mut s = Schema::new();
        s.push(Field::new("x", DataType::Int));
        s.index.clear();
        assert_eq!(s.position("x"), None);
        s.rebuild_index();
        assert_eq!(s.position("x"), Some(0));
    }

    #[test]
    fn dtype_names_are_distinct() {
        let names = [
            DataType::Float.name(),
            DataType::Int.name(),
            DataType::Bool.name(),
            DataType::Categorical.name(),
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
