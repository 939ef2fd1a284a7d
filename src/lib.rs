//! # mysawh-repro
//!
//! Umbrella crate for the reproduction of *"Data-driven vs
//! knowledge-driven inference of health outcomes in the ageing
//! population: a case study"* (Ferrari, Guaraldi, Mandreoli, Martoglia,
//! Milić, Missier — EDBT/ICDT 2020 joint conference workshops).
//!
//! It re-exports the workspace crates under one roof so the examples
//! and integration tests read like downstream user code:
//!
//! * [`cohort`] — the synthetic MySAwH cohort simulator (the closed
//!   clinical dataset's stand-in);
//! * [`preprocess`] — §3 quality assurance and sample construction;
//! * [`gbdt`] — the from-scratch XGBoost-style learner;
//! * [`shap`] — exact path-dependent TreeSHAP;
//! * [`kd`] — the knowledge-driven Frailty Index and ICI;
//! * [`metrics`] — evaluation metrics and cross-validation;
//! * [`core`] — the paper's DD-vs-KD learning framework, including the
//!   persisted-model registry;
//! * [`serve`] — the batching prediction service over persisted model
//!   artifacts;
//! * [`baselines`] — the interpretable comparators (GA²M-style additive
//!   model, ridge linear/logistic regression);
//! * [`tabular`] — the columnar data substrate.
//!
//! ## Quickstart
//!
//! ```no_run
//! use mysawh_repro::cohort::{generate, CohortConfig};
//! use mysawh_repro::core::{try_run_full_grid_on, ExperimentConfig};
//!
//! let data = generate(&CohortConfig::paper(42));
//! // Worker count 0: the default bounded pool.
//! for result in try_run_full_grid_on(0, &data, &ExperimentConfig::default())? {
//!     println!("{}", result.summary_line());
//! }
//! # Ok::<(), mysawh_repro::core::PipelineError>(())
//! ```

pub use msaw_baselines as baselines;
pub use msaw_cohort as cohort;
pub use msaw_core as core;
pub use msaw_gbdt as gbdt;
pub use msaw_kd as kd;
pub use msaw_metrics as metrics;
pub use msaw_preprocess as preprocess;
pub use msaw_serve as serve;
pub use msaw_shap as shap;
pub use msaw_tabular as tabular;
