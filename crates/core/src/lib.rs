//! # msaw-core
//!
//! The paper's learning framework (its Fig. 3), assembled from the
//! substrate crates:
//!
//! * [`config`] — experiment configuration: the gradient-boosting
//!   hyper-parameters per outcome, split sizes, CV folds, seeds;
//! * [`experiment`] — train-and-evaluate for a single `(outcome,
//!   approach, ±FI)` variant: 80/20 split, K-fold CV on the training
//!   side, held-out test metrics (1-MAPE for QoL/SPPB, the full
//!   per-class classification report for Falls). Its one fit runner
//!   serves every grid, whether a plan's rows live in a sample set's
//!   training context or in a view of a bin-coded matrix;
//! * [`grid`] — the full 12-model grid (3 outcomes × DD/KD × ±FI) that
//!   regenerates Fig. 4, with per-clinic stratification for Table 1,
//!   and the pooled job runner all grids share;
//! * [`grid_chunked`] — the same grid sharded out of core: two
//!   streaming passes build spillable bin-coded matrices, and the
//!   grid's runner fits plans over views of them — bit-identical to
//!   the in-memory grid under `canonical_row_order` without row
//!   subsampling;
//! * [`oof`] — out-of-fold predictions over an entire sample set, used
//!   for the per-patient MAE distributions of Fig. 5;
//! * [`interpret`] — SHAP-based reports: per-patient top-k local
//!   explanations and contrast pairs (Fig. 6), global dependence curves
//!   with data-driven thresholds (Fig. 7);
//! * [`registry`] — persisted-model registry keyed by (outcome,
//!   variant, cohort fingerprint), with atomic publish and verified
//!   load of the prediction-bundle artifacts;
//! * [`scale`] — the population-scale streaming pipeline: cohorts
//!   generated and featurized chunk by chunk, binned into fixed-size
//!   row blocks (optionally spilled to disk), and trained out of core —
//!   bit-identical to the in-memory histogram fit.
//!
//! ```no_run
//! use msaw_cohort::{generate, CohortConfig};
//! use msaw_core::{config::ExperimentConfig, grid};
//!
//! let data = generate(&CohortConfig::paper(42));
//! // Worker count 0: the default bounded pool.
//! let results = grid::try_run_full_grid_on(0, &data, &ExperimentConfig::default())?;
//! for r in &results {
//!     println!("{}", r.summary_line());
//! }
//! # Ok::<(), msaw_core::PipelineError>(())
//! ```

pub mod config;
pub mod error;
pub mod experiment;
pub mod grid;
pub mod grid_chunked;
pub mod interpret;
pub mod oof;
pub mod registry;
pub mod scale;

pub use config::ExperimentConfig;
pub use error::PipelineError;
pub use experiment::{try_run_variant, Approach, RegressionScores, VariantResult};
pub use grid::{try_run_clinic_grids, try_run_full_grid_on};
pub use grid_chunked::{try_run_full_grid_chunked, ChunkedGridConfig, ChunkedGridReport};
pub use oof::try_oof_predictions;
pub use registry::{cohort_fingerprint, ModelKey, ModelRegistry, PruneReport, RegistryError};
pub use scale::{peak_rss_mb, run_scale, ScaleConfig, ScaleReport};
