//! # msaw-shap
//!
//! Post-hoc model interpretation via Shapley values, reimplementing the
//! method the paper uses (SHAP, Lundberg & Lee 2017) for the tree
//! ensembles trained by `msaw-gbdt`:
//!
//! * [`TreeExplainer`] — exact polynomial-time *path-dependent TreeSHAP*
//!   (Lundberg et al. 2018, Algorithm 2), attributing each prediction to
//!   the input features so that the attributions sum to the difference
//!   between the prediction and the model's expected output
//!   ("local accuracy" — enforced by tests against a brute-force
//!   enumeration of all feature subsets);
//! * [`global`] — population-level summaries (mean |SHAP| rankings),
//!   the basis of the paper's global explanations;
//! * [`dependence`] — per-feature dependence curves and automatic
//!   threshold extraction (the paper's Fig. 7 shows SHAP recovering the
//!   expert's cutoff of ≥3 for a PRO answer, data-driven);
//! * [`interaction`] — SHAP interaction values via conditional TreeSHAP
//!   (Lundberg et al. Algorithm 3): pairwise effect matrices whose rows
//!   sum back to the ordinary SHAP values (also verified brute-force).
//!
//! Attributions are computed in *raw score* space (log-odds for logistic
//! models), matching the `shap` package's default for XGBoost.

pub mod dependence;
pub mod explainer;
pub mod global;
pub mod interaction;

pub use dependence::{dependence_curve, sign_change_threshold, DependencePoint};
pub use explainer::{Explanation, PathArena, TreeExplainer};
pub use global::GlobalSummary;
pub use interaction::{
    shap_interaction_values, shap_interaction_values_with_workers, InteractionValues,
};

#[cfg(test)]
pub(crate) mod brute;
