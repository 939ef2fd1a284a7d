//! # msaw-metrics
//!
//! Evaluation machinery for the MySAwH reproduction, standing in for the
//! sklearn utilities the original study used:
//!
//! * regression metrics — MAE, MAPE / 1-MAPE (the paper's headline
//!   regression score), RMSE, R²;
//! * classification metrics — confusion matrix, accuracy, per-class
//!   precision / recall / F1 (the paper reports them for both the `True`
//!   and `False` Falls classes);
//! * resampling — seeded train/test splits, K-fold and stratified K-fold
//!   cross-validation, grouped (per-patient) splitting to avoid leakage;
//! * probability calibration — Brier score, reliability curves and
//!   expected calibration error for the Falls risk model;
//! * descriptive statistics — box-plot five-number summaries with
//!   Tukey outliers (Fig. 5) and histogram binning (Fig. 1).

pub mod boxplot;
pub mod calibration;
pub mod classification;
pub mod cv;
pub mod histogram;
pub mod regression;

pub use boxplot::BoxStats;
pub use calibration::{brier_score, calibration_curve, expected_calibration_error, CalibrationBin};
pub use classification::{BinaryReport, ConfusionMatrix};
pub use cv::{group_train_test_split, kfold, stratified_kfold, train_test_split, Fold};
pub use histogram::{try_histogram, Bin, HistogramError};
pub use regression::{mae, mape, one_minus_mape, r2, rmse};
