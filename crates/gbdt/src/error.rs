//! Error types for training and inference.
//!
//! The taxonomy is split by pipeline stage so callers can be precise
//! about what they propagate: [`TrainError`] for everything reachable
//! while fitting a model, [`PredictError`] for everything reachable
//! while scoring or loading one. [`GbdtError`] is the crate umbrella
//! for APIs that cross both stages; it source-chains to the stage
//! error it wraps.

use std::fmt;

/// Errors reachable while fitting a model (bad data or parameters).
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// Training data had no rows.
    EmptyDataset,
    /// Labels and feature matrix disagree on row count.
    LabelLength { rows: usize, labels: usize },
    /// A parameter value was out of its valid range.
    InvalidParam { name: &'static str, message: String },
    /// Logistic objective requires labels in {0, 1}.
    NonBinaryLabel { row: usize, value: f64 },
    /// Eval set width disagrees with the training matrix.
    EvalFeatureCount { expected: usize, actual: usize },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "training data has no rows"),
            TrainError::LabelLength { rows, labels } => {
                write!(f, "feature matrix has {rows} rows but {labels} labels were given")
            }
            TrainError::InvalidParam { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            TrainError::NonBinaryLabel { row, value } => {
                write!(f, "logistic objective requires labels in {{0,1}}, row {row} has {value}")
            }
            TrainError::EvalFeatureCount { expected, actual } => {
                write!(f, "eval set has {actual} features but training data has {expected}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Errors reachable while scoring with — or loading — a trained model.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// Prediction input has a different feature count than the model.
    FeatureCount { expected: usize, actual: usize },
    /// A serialised model could not be decoded.
    Decode(String),
    /// A batch-prediction pool job panicked; the panic was contained
    /// and `block` is deterministically the lowest failing block index
    /// (the pool's drain policy).
    Batch { block: usize, message: String },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::FeatureCount { expected, actual } => {
                write!(f, "model expects {expected} features, input has {actual}")
            }
            PredictError::Decode(msg) => write!(f, "model decode error: {msg}"),
            PredictError::Batch { block, message } => {
                write!(f, "batch prediction block {block} failed: {message}")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// Errors reachable while building, opening or training on a chunked
/// (out-of-core) binned matrix — see `crate::chunked`. Spilled chunk
/// files are untrusted input to `open`, so corruption is a first-class
/// variant rather than a panic.
#[derive(Debug)]
pub enum ChunkError {
    /// The spill file could not be read or written.
    Io(std::io::Error),
    /// The spill file failed structural, checksum or code-range
    /// validation, or a chunk given to
    /// [`crate::ChunkedMatrixBuilder::push_encoded`] held a code above
    /// its feature's missing code. `what` names the field or region,
    /// `detail` says how it failed.
    Corrupt { what: &'static str, detail: String },
    /// A training-stage failure (bad parameters or labels).
    Train(TrainError),
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Io(e) => write!(f, "chunk store I/O error: {e}"),
            ChunkError::Corrupt { what, detail } => {
                write!(f, "corrupt chunk store ({what}): {detail}")
            }
            ChunkError::Train(e) => write!(f, "chunked training failed: {e}"),
        }
    }
}

impl std::error::Error for ChunkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChunkError::Io(e) => Some(e),
            ChunkError::Train(e) => Some(e),
            ChunkError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for ChunkError {
    fn from(e: std::io::Error) -> Self {
        ChunkError::Io(e)
    }
}

impl From<TrainError> for ChunkError {
    fn from(e: TrainError) -> Self {
        ChunkError::Train(e)
    }
}

/// Crate umbrella over the per-stage errors, for callers that cross
/// both stages (e.g. load-then-score, train-then-evaluate).
#[derive(Debug, Clone, PartialEq)]
pub enum GbdtError {
    /// A training-stage failure.
    Train(TrainError),
    /// A prediction-stage failure.
    Predict(PredictError),
}

impl fmt::Display for GbdtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GbdtError::Train(e) => write!(f, "training failed: {e}"),
            GbdtError::Predict(e) => write!(f, "prediction failed: {e}"),
        }
    }
}

impl std::error::Error for GbdtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GbdtError::Train(e) => Some(e),
            GbdtError::Predict(e) => Some(e),
        }
    }
}

impl From<TrainError> for GbdtError {
    fn from(e: TrainError) -> Self {
        GbdtError::Train(e)
    }
}

impl From<PredictError> for GbdtError {
    fn from(e: PredictError) -> Self {
        GbdtError::Predict(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn messages_carry_context() {
        let e = PredictError::FeatureCount { expected: 59, actual: 3 };
        let s = e.to_string();
        assert!(s.contains("59") && s.contains('3'));
    }

    #[test]
    fn umbrella_chains_to_the_stage_error() {
        let e = GbdtError::from(TrainError::EmptyDataset);
        let src = e.source().expect("umbrella has a source");
        assert_eq!(src.to_string(), TrainError::EmptyDataset.to_string());
        assert!(e.to_string().contains("training failed"));
    }
}
