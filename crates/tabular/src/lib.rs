//! # msaw-tabular
//!
//! A small, typed, columnar data substrate used throughout the MySAwH
//! reproduction. It plays the role pandas played in the original study:
//! holding heterogeneous patient observations (floats with missing
//! values, integers, booleans, categoricals), selecting and filtering
//! them, and holding the dense row-major matrices the learners train on.
//!
//! The design follows the repository-wide guidance for database-flavoured
//! Rust: columns are contiguous `Vec`s, missing floats are encoded as
//! `NaN` (so hot numeric paths stay branch-light), and every fallible
//! operation returns a typed [`TabularError`] instead of panicking.
//!
//! ```
//! use msaw_tabular::{Frame, Column};
//!
//! let mut frame = Frame::new();
//! frame.push_column("steps", Column::from_f64(vec![4200.0, f64::NAN, 6100.0])).unwrap();
//! frame.push_column("fell", Column::from_bool(vec![Some(false), Some(true), None])).unwrap();
//! assert_eq!(frame.nrows(), 3);
//! let steps = frame.column("steps").unwrap().as_f64().unwrap();
//! assert!(steps[1].is_nan());
//! ```

pub mod column;
pub mod csv;
pub mod error;
pub mod frame;
pub mod matrix;
pub mod schema;

pub use column::Column;
pub use error::TabularError;
pub use frame::Frame;
pub use matrix::Matrix;
pub use schema::{DataType, Field, Schema};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TabularError>;
