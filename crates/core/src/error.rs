//! The workspace's umbrella error: everything a full pipeline run —
//! ingest → sample construction → grid training → interpretation — can
//! surface, source-chained to the layer that failed.
//!
//! Layering: `tabular::TabularError` (storage) and
//! `gbdt::{TrainError, PredictError}` (learning) stay independent;
//! `preprocess::SampleError` wraps tabular + validation failures; this
//! type wraps all of them plus the pool's panic report, so binaries and
//! experiments handle exactly one error type.

use msaw_gbdt::{ChunkError, PredictError, TrainError};
use msaw_parallel::PoolError;
use msaw_preprocess::SampleError;
use msaw_tabular::TabularError;
use std::fmt;

/// Any failure of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A variant was asked to evaluate an empty sample set.
    EmptySampleSet,
    /// Too few samples for the requested fold rotation.
    TooFewSamples { have: usize, need: usize },
    /// A model fit failed; `job` is the grid's flat job index when the
    /// fit ran inside the pooled grid (lowest failing index — see
    /// `msaw_parallel`'s drain policy), `None` for standalone fits.
    Train { job: Option<usize>, source: TrainError },
    /// A prediction-stage failure.
    Predict(PredictError),
    /// Sample construction or ingest failed.
    Sample(SampleError),
    /// The tabular layer failed outside ingest.
    Tabular(TabularError),
    /// A pool job panicked (the panic was contained; this reports the
    /// lowest failing job index and its payload).
    Pool(PoolError),
    /// An interpretation report was asked about a feature the sample
    /// set does not have.
    UnknownFeature(String),
    /// The model registry failed to store or load an artifact.
    Registry(crate::registry::RegistryError),
    /// The out-of-core (chunked) training path failed below the
    /// parameter layer — spill-file I/O or corruption. Carried rendered
    /// so this type stays `Clone + PartialEq`; typed parameter/label
    /// failures arrive as [`PipelineError::Train`] instead.
    Chunk { message: String },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::EmptySampleSet => {
                write!(f, "cannot evaluate an empty sample set")
            }
            PipelineError::TooFewSamples { have, need } => {
                write!(f, "too few samples for OOF: have {have}, need at least {need}")
            }
            PipelineError::Train { job: Some(job), source } => {
                write!(f, "grid fit job {job} failed: {source}")
            }
            PipelineError::Train { job: None, source } => {
                write!(f, "model fit failed: {source}")
            }
            PipelineError::Predict(e) => write!(f, "prediction failed: {e}"),
            PipelineError::Sample(e) => write!(f, "sample pipeline failed: {e}"),
            PipelineError::Tabular(e) => write!(f, "tabular layer failed: {e}"),
            PipelineError::Pool(e) => write!(f, "worker pool failed: {e}"),
            PipelineError::UnknownFeature(name) => write!(f, "unknown feature `{name}`"),
            PipelineError::Registry(e) => write!(f, "model registry failed: {e}"),
            PipelineError::Chunk { message } => {
                write!(f, "out-of-core training failed: {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Train { source, .. } => Some(source),
            PipelineError::Predict(e) => Some(e),
            PipelineError::Sample(e) => Some(e),
            PipelineError::Tabular(e) => Some(e),
            PipelineError::Pool(e) => Some(e),
            PipelineError::Registry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrainError> for PipelineError {
    fn from(source: TrainError) -> Self {
        PipelineError::Train { job: None, source }
    }
}

impl From<ChunkError> for PipelineError {
    fn from(e: ChunkError) -> Self {
        match e {
            // Parameter/label failures keep their typed identity.
            ChunkError::Train(source) => PipelineError::Train { job: None, source },
            other => PipelineError::Chunk { message: other.to_string() },
        }
    }
}

impl From<PredictError> for PipelineError {
    fn from(e: PredictError) -> Self {
        PipelineError::Predict(e)
    }
}

impl From<SampleError> for PipelineError {
    fn from(e: SampleError) -> Self {
        PipelineError::Sample(e)
    }
}

impl From<TabularError> for PipelineError {
    fn from(e: TabularError) -> Self {
        PipelineError::Tabular(e)
    }
}

impl From<PoolError> for PipelineError {
    fn from(e: PoolError) -> Self {
        PipelineError::Pool(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn sources_chain_through_every_layer() {
        let train = TrainError::EmptyDataset;
        let e = PipelineError::Train { job: Some(7), source: train.clone() };
        assert_eq!(e.source().unwrap().to_string(), train.to_string());
        assert!(e.to_string().contains("job 7"));

        let pool = PoolError { job: 3, message: "boom".into() };
        let e = PipelineError::from(pool.clone());
        assert_eq!(e.source().unwrap().to_string(), pool.to_string());
    }

    #[test]
    fn standalone_train_failures_have_no_job() {
        let e = PipelineError::from(TrainError::EmptyDataset);
        assert!(matches!(e, PipelineError::Train { job: None, .. }));
        assert!(!e.to_string().contains("job"));
    }
}
