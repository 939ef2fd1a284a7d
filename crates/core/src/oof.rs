//! Out-of-fold predictions: every sample predicted by a model that never
//! saw it, the basis of the per-patient MAE distributions in Fig. 5.

use crate::config::ExperimentConfig;
use crate::error::PipelineError;
use msaw_cohort::Clinic;
use msaw_gbdt::{Booster, TreeScratch};
use msaw_metrics::{kfold, BoxStats};
use msaw_preprocess::SampleSet;
use std::collections::BTreeMap;

/// Predict every row of `set` using K-fold rotation: for each fold, a
/// model is trained on the other folds and predicts the held-out rows.
/// A set too small for the fold rotation is
/// [`PipelineError::TooFewSamples`], a failing fold fit is
/// [`PipelineError::Train`].
pub fn try_oof_predictions(
    set: &SampleSet,
    cfg: &ExperimentConfig,
) -> Result<Vec<f64>, PipelineError> {
    let need = cfg.cv_folds * 2;
    if set.len() < need {
        return Err(PipelineError::TooFewSamples { have: set.len(), need });
    }
    let params = cfg.params_for(set.outcome);
    // One shared context: the matrix is indexed once and every fold's
    // model trains on a row view of it. One shared scratch: the first
    // fold pays the arena allocations, later folds reuse them.
    let ctx = set.training_context();
    let mut scratch = TreeScratch::new();
    let mut preds = vec![f64::NAN; set.len()];
    for fold in kfold(set.len(), cfg.cv_folds, cfg.seed ^ 0x00f) {
        let y_train: Vec<f64> = fold.train.iter().map(|&i| set.labels[i]).collect();
        let model = Booster::train_on_rows_with(params, &ctx, &fold.train, &y_train, &mut scratch)?;
        // Batch-predict the held-out rows through the flat engine.
        let fold_preds = model.flat_forest().predict_rows(&set.features, &fold.validation);
        for (&row, &p) in fold.validation.iter().zip(&fold_preds) {
            preds[row] = p;
        }
    }
    debug_assert!(preds.iter().all(|p| !p.is_nan()));
    Ok(preds)
}

/// Per-patient MAE of out-of-fold predictions.
pub fn per_patient_mae(set: &SampleSet, preds: &[f64]) -> BTreeMap<u32, f64> {
    assert_eq!(preds.len(), set.len());
    let mut acc: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
    for (i, meta) in set.meta.iter().enumerate() {
        let e = acc.entry(meta.patient.0).or_insert((0.0, 0));
        e.0 += (set.labels[i] - preds[i]).abs();
        e.1 += 1;
    }
    acc.into_iter().map(|(p, (sum, n))| (p, sum / n as f64)).collect()
}

/// Fig. 5's statistic: per-clinic box-plot summaries of the per-patient
/// MAE values.
pub fn mae_boxes_by_clinic(set: &SampleSet, preds: &[f64]) -> Vec<(Clinic, BoxStats)> {
    let per_patient = per_patient_mae(set, preds);
    let clinic_of: BTreeMap<u32, Clinic> =
        set.meta.iter().map(|m| (m.patient.0, m.clinic)).collect();
    Clinic::ALL
        .iter()
        .filter_map(|&clinic| {
            let values: Vec<f64> = per_patient
                .iter()
                .filter(|(p, _)| clinic_of.get(p) == Some(&clinic))
                .map(|(_, &mae)| mae)
                .collect();
            BoxStats::of(&values).map(|b| (clinic, b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaw_cohort::{generate, CohortConfig};
    use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};

    fn setup() -> (SampleSet, ExperimentConfig) {
        let data = generate(&CohortConfig::small(42));
        let cfg = ExperimentConfig::fast();
        let panel = FeaturePanel::build(&data, &cfg.pipeline);
        (build_samples(&data, &panel, OutcomeKind::Qol, &cfg.pipeline), cfg)
    }

    #[test]
    fn every_row_gets_an_oof_prediction() {
        let (set, cfg) = setup();
        let preds = try_oof_predictions(&set, &cfg).unwrap();
        assert_eq!(preds.len(), set.len());
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn per_patient_mae_covers_all_patients_in_set() {
        let (set, cfg) = setup();
        let preds = try_oof_predictions(&set, &cfg).unwrap();
        let mae = per_patient_mae(&set, &preds);
        let patients: std::collections::HashSet<u32> =
            set.meta.iter().map(|m| m.patient.0).collect();
        assert_eq!(mae.len(), patients.len());
        assert!(mae.values().all(|&v| v >= 0.0));
    }

    #[test]
    fn boxes_cover_all_clinics() {
        let (set, cfg) = setup();
        let preds = try_oof_predictions(&set, &cfg).unwrap();
        let boxes = mae_boxes_by_clinic(&set, &preds);
        assert_eq!(boxes.len(), 3);
        for (_, b) in &boxes {
            assert!(b.median >= 0.0);
            assert!(b.q1 <= b.median && b.median <= b.q3);
        }
    }

    #[test]
    fn oof_is_deterministic() {
        let (set, cfg) = setup();
        assert_eq!(
            try_oof_predictions(&set, &cfg).unwrap(),
            try_oof_predictions(&set, &cfg).unwrap()
        );
    }

    #[test]
    fn too_few_samples_is_a_typed_error() {
        let (set, cfg) = setup();
        let tiny = set.take(&[0, 1, 2]);
        let err = try_oof_predictions(&tiny, &cfg).unwrap_err();
        assert_eq!(err, PipelineError::TooFewSamples { have: 3, need: cfg.cv_folds * 2 });
    }
}
