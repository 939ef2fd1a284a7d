//! # msaw-gbdt
//!
//! Gradient-boosted decision trees built from scratch for the MySAwH
//! reproduction, following the XGBoost formulation (Chen & Guestrin,
//! KDD'16) the paper used:
//!
//! * second-order (gradient + hessian) split gain with L2 leaf
//!   regularisation (`lambda`) and a split penalty (`gamma`);
//! * **sparsity-aware** split enumeration: every split learns a default
//!   direction for missing values (`NaN`s) by trying both sides;
//! * shrinkage (`learning_rate`), row subsampling and per-tree column
//!   subsampling;
//! * two objectives — squared error for regression (QoL, SPPB) and
//!   logistic loss with `scale_pos_weight` for the imbalanced Falls
//!   classification;
//! * two split finders behind one boosting loop ([`FitRun`]) — a
//!   recursive exact greedy grower and one level-wise histogram grower
//!   over quantile-sketch bins (the paper's learner supports both; they
//!   form one of our ablation benches). The histogram grower streams
//!   the row blocks of a [`ChunkedMatrix`]: one in-memory block for
//!   [`Booster::train`] and [`TrainingContext`] fits, many (in memory
//!   or spilled to disk) for [`train_chunked`]. On one block it visits
//!   each round's sampled rows in sample order, so in-memory histogram
//!   models keep their bits at any `subsample` (see `chunked`);
//! * early stopping against a held-out evaluation set;
//! * gain / cover / frequency feature importances;
//! * one persisted model format: the checksummed prediction-bundle
//!   [`ModelArtifact`], which stores the trees and cuts once and
//!   compiles its [`FlatForest`] on load;
//! * a shared-preparation engine: [`TrainingContext`] indexes and bins a
//!   matrix once, then [`Booster::train_on_rows`] trains any number of
//!   models on row-index views of it — bit-for-bit identical (exact
//!   method) to copying the rows out and training from scratch, which
//!   is what makes repeated CV/grid fits cheap (see `context`/`engine`).
//!
//! The tree layout (flat node arrays carrying per-node covers) is chosen
//! so `msaw-shap` can run exact path-dependent TreeSHAP over it.
//!
//! ```
//! use msaw_gbdt::{Booster, Params};
//! use msaw_tabular::Matrix;
//!
//! // y = x0, with one feature: a stump learns it quickly.
//! let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![1.0], vec![1.0]]);
//! let y = vec![0.0, 0.0, 1.0, 1.0];
//! let params = Params { n_estimators: 80, max_depth: 2, ..Params::regression() };
//! let model = Booster::train(&params, &x, &y).unwrap();
//! let preds = model.predict(&x);
//! assert!((preds[0] - 0.0).abs() < 0.1);
//! assert!((preds[2] - 1.0).abs() < 0.1);
//! ```

pub mod artifact;
pub mod binning;
pub mod booster;
pub mod chunked;
pub mod context;
mod engine;
pub mod error;
pub mod forest;
pub mod importance;
pub mod objective;
pub mod params;
pub mod ranks;
pub mod simd;
mod sketch;
pub mod split;
pub mod tree;

pub use artifact::{fnv1a_64, ModelArtifact, ARTIFACT_VERSION};
pub use booster::{Booster, EvalRecord, FitRun, TrainReport};
#[doc(hidden)]
pub use chunked::{build_hists_for_bench, hist_kernel_name};
pub use chunked::{
    encode_rows, predict_rows_chunked, train_chunked, train_chunked_on, ChunkedMatrix,
    ChunkedMatrixBuilder, ChunkedView, DEFAULT_BLOCK_ROWS,
};
pub use context::{ContextCache, ExactIndex, TrainingContext, MISSING_RANK};
pub use engine::TreeScratch;
pub use error::{ChunkError, GbdtError, PredictError, TrainError};
pub use forest::FlatForest;
pub use importance::{FeatureImportance, ImportanceKind};
pub use objective::Objective;
pub use params::{Params, TreeMethod, DEFAULT_CONTEXT_BINS};
pub use ranks::{RankStore, RankedChunk};
pub use simd::SimdLevel;
pub use sketch::{CutSketch, DEFAULT_SKETCH_DISTINCT};
pub use tree::{Node, Tree, TreeDefect};

/// Crate-wide result alias; the default error is the [`GbdtError`]
/// umbrella, but stage-specific APIs narrow it (`Result<T, TrainError>`,
/// `Result<T, PredictError>`).
pub type Result<T, E = GbdtError> = std::result::Result<T, E>;
