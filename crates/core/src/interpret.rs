//! Model interpretation reports — the paper's §5.2.
//!
//! Local: per-patient top-k SHAP attributions, and "contrast pairs" —
//! two patients with (nearly) the same prediction but different
//! explanations, the paper's Fig. 6 argument for personalised medicine.
//! Global: dependence curves with data-driven thresholds (Fig. 7).
//!
//! All reports over the same `(model, sample set)` pair share one
//! explainer and one SHAP matrix through [`ShapReport`], the one entry
//! point for every report. The free [`explain_row`] stays beside it
//! because it explains a single row without computing the full matrix.

use crate::error::PipelineError;
use msaw_gbdt::Booster;
use msaw_preprocess::SampleSet;
use msaw_shap::{
    dependence_curve, sign_change_threshold, Explanation, GlobalSummary, TreeExplainer,
};
use msaw_tabular::Matrix;
use serde::{Deserialize, Serialize};

/// A named SHAP attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// Feature name.
    pub feature: String,
    /// The feature's value in the explained sample (`NaN` = missing).
    pub value: f64,
    /// Its SHAP value (raw-score space).
    pub shap: f64,
}

/// A local explanation report for one sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalReport {
    /// Row index within the sample set.
    pub row: usize,
    /// Patient the row belongs to.
    pub patient: u32,
    /// The model's (transformed) prediction.
    pub prediction: f64,
    /// The top-k attributions by |SHAP|, descending.
    pub top: Vec<Attribution>,
}

/// Build a [`LocalReport`] from one row's already-computed explanation.
fn local_report(
    model: &Booster,
    set: &SampleSet,
    row: usize,
    exp: &Explanation,
    top_k: usize,
) -> LocalReport {
    let features = set.features.row(row);
    let top = exp
        .top_k(top_k)
        .into_iter()
        .map(|(f, shap)| Attribution {
            feature: set.feature_names[f].clone(),
            value: features[f],
            shap,
        })
        .collect();
    LocalReport {
        row,
        patient: set.meta[row].patient.0,
        prediction: model.predict_row(features),
        top,
    }
}

/// Explain one row of a sample set.
///
/// Builds one explainer and explains one row, without the full SHAP
/// matrix. To explain many rows of the same set — or mix local and
/// global reports — build a [`ShapReport`] once instead.
pub fn explain_row(model: &Booster, set: &SampleSet, row: usize, top_k: usize) -> LocalReport {
    let explainer = TreeExplainer::new(model);
    let exp = explainer.shap_values_row(set.features.row(row));
    local_report(model, set, row, &exp, top_k)
}

/// Global dependence report for one feature (Fig. 7): the SHAP-vs-value
/// curve and the data-driven threshold where its influence flips sign.
#[derive(Debug, Clone, PartialEq)]
pub struct DependenceReport {
    /// The analysed feature.
    pub feature: String,
    /// `(feature value, SHAP value)` points, sorted by value.
    pub points: Vec<(f64, f64)>,
    /// Value at which the mean SHAP flips sign, when it does.
    pub threshold: Option<f64>,
}

/// Shared interpretation state for one `(model, sample set)` pair: one
/// [`TreeExplainer`] and one SHAP matrix over every row of the set,
/// computed once on the shared worker pool and reused by every report —
/// Fig. 7's ranking and dependence curve read the same matrix.
pub struct ShapReport<'a> {
    model: &'a Booster,
    set: &'a SampleSet,
    explainer: TreeExplainer<'a>,
    shap: Matrix,
    /// Raw score of every row, batch-computed by the flat engine
    /// (bit-identical to `predict_raw_row`).
    raw: Vec<f64>,
}

impl<'a> ShapReport<'a> {
    /// Build the shared state: one explainer, one SHAP matrix and one
    /// raw-prediction vector over all rows of `set` (fanned across the
    /// worker pool). A model/set width mismatch (explaining a set the
    /// model was not trained on) is a [`PipelineError::Predict`].
    pub fn try_new(model: &'a Booster, set: &'a SampleSet) -> Result<Self, PipelineError> {
        let raw = model.try_predict_raw(&set.features)?;
        let explainer = TreeExplainer::new(model);
        let shap = explainer.shap_values(&set.features);
        Ok(ShapReport { model, set, explainer, shap, raw })
    }

    /// The shared explainer.
    pub fn explainer(&self) -> &TreeExplainer<'a> {
        &self.explainer
    }

    /// The cached SHAP matrix (rows × features, raw-score space).
    pub fn shap_matrix(&self) -> &Matrix {
        &self.shap
    }

    /// One row's cached attributions as an [`Explanation`].
    fn explanation(&self, row: usize) -> Explanation {
        Explanation {
            values: self.shap.row(row).to_vec(),
            base_value: self.explainer.expected_value(),
            prediction: self.raw[row],
        }
    }

    /// Explain one row from the cached matrix (cf. [`explain_row`]).
    pub fn explain_row(&self, row: usize, top_k: usize) -> LocalReport {
        local_report(self.model, self.set, row, &self.explanation(row), top_k)
    }

    /// Find two samples from *different patients* whose predictions
    /// agree within `tolerance` but whose top-1 drivers differ — the
    /// paper's Fig. 6 scenario — or `None` when no such pair exists.
    pub fn find_contrast_pair(
        &self,
        tolerance: f64,
        top_k: usize,
    ) -> Option<(LocalReport, LocalReport)> {
        // Predictions and top drivers for every row, off the caches.
        let rows: Vec<(usize, f64, usize)> = (0..self.set.len())
            .map(|i| {
                let pred = self.model.objective().transform(self.raw[i]);
                (i, pred, self.explanation(i).ranking()[0])
            })
            .collect();
        for (a_pos, &(a, pred_a, top_a)) in rows.iter().enumerate() {
            for &(b, pred_b, top_b) in &rows[a_pos + 1..] {
                if self.set.meta[a].patient == self.set.meta[b].patient {
                    continue;
                }
                if (pred_a - pred_b).abs() <= tolerance && top_a != top_b {
                    return Some((self.explain_row(a, top_k), self.explain_row(b, top_k)));
                }
            }
        }
        None
    }

    /// Dependence report for `feature_name` from the cached matrix
    /// (Fig. 7). A feature the set does not have is
    /// [`PipelineError::UnknownFeature`].
    pub fn try_dependence_report(
        &self,
        feature_name: &str,
    ) -> Result<DependenceReport, PipelineError> {
        let feature = self
            .set
            .feature_names
            .iter()
            .position(|n| n == feature_name)
            .ok_or_else(|| PipelineError::UnknownFeature(feature_name.to_string()))?;
        let curve = dependence_curve(&self.set.features, &self.shap, feature);
        let threshold = sign_change_threshold(&curve);
        Ok(DependenceReport {
            feature: feature_name.to_string(),
            points: curve.iter().map(|p| (p.feature_value, p.shap_value)).collect(),
            threshold,
        })
    }

    /// Where each PRO item's influence flips sign — the population-level
    /// DD counterpart of the KD cutoff table that the paper suggests for
    /// epidemiological studies. Monotone or inert items are omitted.
    pub fn population_thresholds(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (f, name) in self.set.feature_names.iter().enumerate() {
            if !name.starts_with("pro_") {
                continue;
            }
            let curve = dependence_curve(&self.set.features, &self.shap, f);
            if let Some(t) = sign_change_threshold(&curve) {
                out.push((name.clone(), t));
            }
        }
        out
    }

    /// Global importance ranking (mean |SHAP|) with feature names
    /// attached, from the cached matrix.
    pub fn global_ranking(&self, top_k: usize) -> Vec<(String, f64)> {
        let summary = GlobalSummary::from_shap_matrix(&self.shap);
        summary
            .top_k(top_k)
            .into_iter()
            .map(|(f, v)| (self.set.feature_names[f].clone(), v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::experiment::fit_final_model;
    use msaw_cohort::{generate, CohortConfig};
    use msaw_gbdt::PredictError;
    use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};

    fn setup() -> (SampleSet, Booster) {
        let data = generate(&CohortConfig::small(42));
        let cfg = ExperimentConfig::fast();
        let panel = FeaturePanel::build(&data, &cfg.pipeline);
        let set = build_samples(&data, &panel, OutcomeKind::Sppb, &cfg.pipeline);
        let model = fit_final_model(&set, &cfg);
        (set, model)
    }

    #[test]
    fn local_report_has_k_named_attributions() {
        let (set, model) = setup();
        let report = explain_row(&model, &set, 0, 5);
        assert_eq!(report.top.len(), 5);
        assert_eq!(report.patient, set.meta[0].patient.0);
        // Sorted by |SHAP| descending.
        for w in report.top.windows(2) {
            assert!(w[0].shap.abs() >= w[1].shap.abs());
        }
        // Names resolve to real features.
        for a in &report.top {
            assert!(set.feature_names.contains(&a.feature));
        }
    }

    #[test]
    fn contrast_pair_has_same_prediction_different_driver() {
        let (set, model) = setup();
        let pair = ShapReport::try_new(&model, &set).unwrap().find_contrast_pair(0.5, 5);
        let (a, b) = pair.expect("a contrast pair should exist in a real cohort");
        assert_ne!(a.patient, b.patient);
        assert!((a.prediction - b.prediction).abs() <= 0.5);
        assert_ne!(a.top[0].feature, b.top[0].feature);
    }

    #[test]
    fn dependence_report_produces_points() {
        let (set, model) = setup();
        let report = ShapReport::try_new(&model, &set)
            .unwrap()
            .try_dependence_report("pro_locomotion_walk_distance")
            .unwrap();
        assert!(!report.points.is_empty());
        // Points sorted by feature value.
        for w in report.points.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn global_ranking_names_features() {
        let (set, model) = setup();
        let ranking = ShapReport::try_new(&model, &set).unwrap().global_ranking(10);
        assert_eq!(ranking.len(), 10);
        for w in ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn population_thresholds_are_within_likert_range() {
        let (set, model) = setup();
        let thresholds = ShapReport::try_new(&model, &set).unwrap().population_thresholds();
        assert!(!thresholds.is_empty(), "some PRO item should show a threshold");
        for (name, t) in &thresholds {
            assert!(name.starts_with("pro_"));
            assert!((1.0..=5.0).contains(t), "{name}: threshold {t} outside Likert range");
        }
    }

    #[test]
    fn unknown_feature_is_a_typed_error() {
        let (set, model) = setup();
        let report = ShapReport::try_new(&model, &set).unwrap();
        let err = report.try_dependence_report("not_a_feature").unwrap_err();
        assert_eq!(err, PipelineError::UnknownFeature("not_a_feature".into()));
    }

    #[test]
    fn mismatched_set_width_is_a_predict_error() {
        let (set, model) = setup();
        let wider = set.try_with_extra_feature("fi_baseline", &vec![0.0; set.len()]).unwrap();
        match ShapReport::try_new(&model, &wider) {
            Err(PipelineError::Predict(PredictError::FeatureCount { expected, actual })) => {
                assert_eq!(expected, set.features.ncols());
                assert_eq!(actual, set.features.ncols() + 1);
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("width mismatch must not build a report"),
        }
    }

    /// Bitwise LocalReport equality — `PartialEq` would reject reports
    /// whose attributions carry `NaN` (missing) feature values.
    fn assert_reports_bits_eq(a: &LocalReport, b: &LocalReport) {
        assert_eq!(a.row, b.row);
        assert_eq!(a.patient, b.patient);
        assert_eq!(a.prediction.to_bits(), b.prediction.to_bits());
        assert_eq!(a.top.len(), b.top.len());
        for (x, y) in a.top.iter().zip(&b.top) {
            assert_eq!(x.feature, y.feature);
            assert_eq!(x.value.to_bits(), y.value.to_bits());
            assert_eq!(x.shap.to_bits(), y.shap.to_bits());
        }
    }

    #[test]
    fn shap_report_explain_row_matches_the_free_function() {
        // The cached matrix and the one-row path explain identically,
        // bit for bit.
        let (set, model) = setup();
        let report = ShapReport::try_new(&model, &set).unwrap();
        for row in [0usize, 3, set.len() - 1] {
            assert_reports_bits_eq(&report.explain_row(row, 5), &explain_row(&model, &set, row, 5));
        }
    }

    #[test]
    fn shap_report_caches_one_matrix_of_set_shape() {
        let (set, model) = setup();
        let report = ShapReport::try_new(&model, &set).unwrap();
        assert_eq!(report.shap_matrix().nrows(), set.len());
        assert_eq!(report.shap_matrix().ncols(), set.features.ncols());
        // The cached matrix is the explainer's own output.
        let direct = report.explainer().shap_values(&set.features);
        assert_eq!(report.shap_matrix().as_slice(), direct.as_slice());
    }
}
