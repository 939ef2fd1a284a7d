//! Typed column storage.

use crate::schema::DataType;
use serde::{Deserialize, Serialize};

/// A single column of data. Float columns encode missing values as `NaN`
/// so the numeric hot paths (aggregation, matrix export, split scanning
/// downstream in `msaw-gbdt`) never pay for an `Option` discriminant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Column {
    /// 64-bit floats, `NaN` = missing.
    Float(Vec<f64>),
    /// Nullable integers.
    Int(Vec<Option<i64>>),
    /// Nullable booleans.
    Bool(Vec<Option<bool>>),
    /// Dictionary-encoded categories: `codes[i]` indexes into `categories`.
    Categorical {
        /// Per-row category code; `None` = missing.
        codes: Vec<Option<u32>>,
        /// The dictionary of category labels.
        categories: Vec<String>,
    },
}

impl Column {
    /// Build a float column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float(values)
    }

    /// Build an int column.
    pub fn from_i64(values: Vec<Option<i64>>) -> Self {
        Column::Int(values)
    }

    /// Build a bool column.
    pub fn from_bool(values: Vec<Option<bool>>) -> Self {
        Column::Bool(values)
    }

    /// Build a categorical column by dictionary-encoding the labels in
    /// first-appearance order.
    pub fn from_labels<S: AsRef<str>>(labels: &[Option<S>]) -> Self {
        let mut categories: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(labels.len());
        for label in labels {
            match label {
                None => codes.push(None),
                Some(l) => {
                    let l = l.as_ref();
                    let code = match categories.iter().position(|c| c == l) {
                        Some(pos) => pos as u32,
                        None => {
                            categories.push(l.to_string());
                            (categories.len() - 1) as u32
                        }
                    };
                    codes.push(Some(code));
                }
            }
        }
        Column::Categorical { codes, categories }
    }

    /// Logical type of the column.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Float(_) => DataType::Float,
            Column::Int(_) => DataType::Int,
            Column::Bool(_) => DataType::Bool,
            Column::Categorical { .. } => DataType::Categorical,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Float(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Categorical { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the float payload, if this is a float column.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the int payload, if this is an int column.
    pub fn as_i64(&self) -> Option<&[Option<i64>]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the bool payload, if this is a bool column.
    pub fn as_bool(&self) -> Option<&[Option<bool>]> {
        match self {
            Column::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow categorical codes and dictionary, if categorical.
    pub fn as_categorical(&self) -> Option<(&[Option<u32>], &[String])> {
        match self {
            Column::Categorical { codes, categories } => Some((codes, categories)),
            _ => None,
        }
    }

    /// Keep only rows where `mask[i]` is true. `mask.len()` must equal
    /// `self.len()` (enforced by [`crate::Frame::filter`]).
    pub fn filter(&self, mask: &[bool]) -> Column {
        fn keep<T: Clone>(values: &[T], mask: &[bool]) -> Vec<T> {
            values.iter().zip(mask).filter(|(_, &m)| m).map(|(v, _)| v.clone()).collect()
        }
        match self {
            Column::Float(v) => Column::Float(keep(v, mask)),
            Column::Int(v) => Column::Int(keep(v, mask)),
            Column::Bool(v) => Column::Bool(keep(v, mask)),
            Column::Categorical { codes, categories } => {
                Column::Categorical { codes: keep(codes, mask), categories: categories.clone() }
            }
        }
    }

    /// Select rows by index (indices may repeat; each must be in bounds).
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
            Column::Categorical { codes, categories } => Column::Categorical {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                categories: categories.clone(),
            },
        }
    }

    /// Render the value at `row` for display/CSV. Missing values render
    /// as the empty string.
    pub fn render(&self, row: usize) -> String {
        match self {
            Column::Float(v) => {
                if v[row].is_nan() {
                    String::new()
                } else {
                    format!("{}", v[row])
                }
            }
            Column::Int(v) => v[row].map(|x| x.to_string()).unwrap_or_default(),
            Column::Bool(v) => v[row].map(|x| x.to_string()).unwrap_or_default(),
            Column::Categorical { codes, categories } => {
                codes[row].and_then(|c| categories.get(c as usize)).cloned().unwrap_or_default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_dictionary_encode_in_first_appearance_order() {
        let c = Column::from_labels(&[Some("modena"), Some("sydney"), Some("modena"), None]);
        let (codes, cats) = c.as_categorical().unwrap();
        assert_eq!(cats, &["modena".to_string(), "sydney".to_string()]);
        assert_eq!(codes, &[Some(0), Some(1), Some(0), None]);
    }

    #[test]
    fn filter_keeps_masked_rows() {
        let c = Column::from_f64(vec![1.0, 2.0, 3.0, 4.0]);
        let filtered = c.filter(&[true, false, true, false]);
        assert_eq!(filtered.as_f64().unwrap(), &[1.0, 3.0]);
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = Column::from_i64(vec![Some(10), Some(20), Some(30)]);
        let taken = c.take(&[2, 0, 0]);
        assert_eq!(taken.as_i64().unwrap(), &[Some(30), Some(10), Some(10)]);
    }

    #[test]
    fn render_uses_empty_string_for_missing() {
        let c = Column::from_f64(vec![f64::NAN, 1.5]);
        assert_eq!(c.render(0), "");
        assert_eq!(c.render(1), "1.5");
    }
}
