//! The [`Frame`]: an ordered collection of equal-length named columns.

use crate::column::Column;
use crate::error::TabularError;
use crate::schema::{Field, Schema};
use crate::Result;
use serde::{Deserialize, Serialize};

/// A columnar table. All columns have the same number of rows.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Frame {
    schema: Schema,
    columns: Vec<Column>,
    nrows: usize,
}

impl Frame {
    /// An empty frame (no columns, no rows).
    pub fn new() -> Self {
        Frame::default()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append a column. The first column fixes the row count; subsequent
    /// columns must match it.
    pub fn push_column(&mut self, name: impl Into<String>, column: Column) -> Result<()> {
        let name = name.into();
        if self.schema.contains(&name) {
            return Err(TabularError::DuplicateColumn(name));
        }
        if self.columns.is_empty() {
            self.nrows = column.len();
        } else if column.len() != self.nrows {
            return Err(TabularError::LengthMismatch {
                expected: self.nrows,
                actual: column.len(),
            });
        }
        self.schema.push(Field::new(name, column.dtype()));
        self.columns.push(column);
        Ok(())
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.schema
            .position(name)
            .map(|i| &self.columns[i])
            .ok_or_else(|| TabularError::UnknownColumn(name.to_string()))
    }

    /// Borrow a column by position.
    pub fn column_at(&self, index: usize) -> Option<&Column> {
        self.columns.get(index)
    }

    /// Borrow a float column's payload, with a typed error on mismatch.
    pub fn f64_column(&self, name: &str) -> Result<&[f64]> {
        let col = self.column(name)?;
        col.as_f64().ok_or_else(|| TabularError::TypeMismatch {
            column: name.to_string(),
            expected: "float",
            actual: col.dtype().name(),
        })
    }

    /// Borrow a bool column's payload, with a typed error on mismatch.
    pub fn bool_column(&self, name: &str) -> Result<&[Option<bool>]> {
        let col = self.column(name)?;
        col.as_bool().ok_or_else(|| TabularError::TypeMismatch {
            column: name.to_string(),
            expected: "bool",
            actual: col.dtype().name(),
        })
    }

    /// Borrow an int column's payload, with a typed error on mismatch.
    pub fn i64_column(&self, name: &str) -> Result<&[Option<i64>]> {
        let col = self.column(name)?;
        col.as_i64().ok_or_else(|| TabularError::TypeMismatch {
            column: name.to_string(),
            expected: "int",
            actual: col.dtype().name(),
        })
    }

    /// A new frame containing only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Frame> {
        let mut out = Frame::new();
        for &name in names {
            out.push_column(name, self.column(name)?.clone())?;
        }
        Ok(out)
    }

    /// A new frame with the named column dropped.
    pub fn drop_column(&self, name: &str) -> Result<Frame> {
        if !self.schema.contains(name) {
            return Err(TabularError::UnknownColumn(name.to_string()));
        }
        let mut out = Frame::new();
        for (field, col) in self.schema.fields().iter().zip(&self.columns) {
            if field.name != name {
                out.push_column(field.name.clone(), col.clone())?;
            }
        }
        Ok(out)
    }

    /// A new frame keeping only rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Frame> {
        if mask.len() != self.nrows {
            return Err(TabularError::MaskLength { expected: self.nrows, actual: mask.len() });
        }
        let mut out = Frame::new();
        for (field, col) in self.schema.fields().iter().zip(&self.columns) {
            out.push_column(field.name.clone(), col.filter(mask))?;
        }
        // An all-false mask on a frame with columns yields 0 rows; keep that.
        out.nrows = mask.iter().filter(|&&m| m).count();
        Ok(out)
    }

    /// A new frame with rows gathered by `indices` (repeats allowed).
    pub fn take(&self, indices: &[usize]) -> Result<Frame> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.nrows) {
            return Err(TabularError::RowOutOfBounds { index: bad, nrows: self.nrows });
        }
        let mut out = Frame::new();
        for (field, col) in self.schema.fields().iter().zip(&self.columns) {
            out.push_column(field.name.clone(), col.take(indices))?;
        }
        out.nrows = indices.len();
        Ok(out)
    }

    /// Restore schema lookup after deserialisation.
    pub fn rebuild_index(&mut self) {
        self.schema.rebuild_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        let mut f = Frame::new();
        f.push_column("steps", Column::from_f64(vec![4000.0, 5000.0, f64::NAN])).unwrap();
        f.push_column("sleep", Column::from_f64(vec![7.0, 6.5, 8.0])).unwrap();
        f.push_column("fell", Column::from_bool(vec![Some(false), Some(true), None])).unwrap();
        f
    }

    #[test]
    fn push_column_fixes_row_count() {
        let f = sample();
        assert_eq!(f.nrows(), 3);
        assert_eq!(f.ncols(), 3);
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut f = sample();
        let err = f.push_column("steps", Column::from_f64(vec![0.0; 3])).unwrap_err();
        assert_eq!(err, TabularError::DuplicateColumn("steps".into()));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut f = sample();
        let err = f.push_column("extra", Column::from_f64(vec![0.0; 2])).unwrap_err();
        assert_eq!(err, TabularError::LengthMismatch { expected: 3, actual: 2 });
    }

    #[test]
    fn typed_accessor_mismatch_is_reported() {
        let f = sample();
        let err = f.f64_column("fell").unwrap_err();
        assert!(matches!(err, TabularError::TypeMismatch { .. }));
    }

    #[test]
    fn select_projects_in_order() {
        let f = sample();
        let g = f.select(&["sleep", "steps"]).unwrap();
        assert_eq!(g.schema().names(), vec!["sleep", "steps"]);
        assert_eq!(g.nrows(), 3);
    }

    #[test]
    fn drop_column_removes_exactly_one() {
        let f = sample();
        let g = f.drop_column("sleep").unwrap();
        assert_eq!(g.ncols(), 2);
        assert!(g.column("sleep").is_err());
        assert!(g.column("steps").is_ok());
    }

    #[test]
    fn filter_respects_mask() {
        let f = sample();
        let g = f.filter(&[true, false, true]).unwrap();
        assert_eq!(g.nrows(), 2);
        assert_eq!(g.f64_column("sleep").unwrap(), &[7.0, 8.0]);
    }

    #[test]
    fn filter_bad_mask_len() {
        let f = sample();
        assert!(matches!(f.filter(&[true]), Err(TabularError::MaskLength { .. })));
    }

    #[test]
    fn take_out_of_bounds() {
        let f = sample();
        assert!(matches!(
            f.take(&[0, 3]),
            Err(TabularError::RowOutOfBounds { index: 3, nrows: 3 })
        ));
    }

    #[test]
    fn empty_frame_has_no_rows() {
        let f = Frame::new();
        assert_eq!(f.nrows(), 0);
        assert_eq!(f.ncols(), 0);
    }
}
