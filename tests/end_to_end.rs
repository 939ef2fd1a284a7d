//! End-to-end integration: raw synthetic cohort → QA pipeline → trained
//! models → metrics → SHAP explanations, across every workspace crate.

use mysawh_repro::cohort::{generate, CohortConfig};
use mysawh_repro::core::experiment::fit_final_model;
use mysawh_repro::core::interpret::{explain_row, ShapReport};
use mysawh_repro::core::{try_run_variant, Approach, ExperimentConfig};
use mysawh_repro::kd::attach_fi;
use mysawh_repro::preprocess::{build_samples, FeaturePanel, OutcomeKind};
use mysawh_repro::shap::TreeExplainer;

fn fast_setup() -> (mysawh_repro::cohort::CohortData, ExperimentConfig, FeaturePanel) {
    let data = generate(&CohortConfig::small(7));
    let cfg = ExperimentConfig::fast();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    (data, cfg, panel)
}

#[test]
fn pipeline_runs_for_every_outcome() {
    let (data, cfg, panel) = fast_setup();
    for outcome in OutcomeKind::ALL {
        let set = build_samples(&data, &panel, outcome, &cfg.pipeline);
        assert!(set.len() > 100, "{}: only {} samples", outcome.name(), set.len());
        let result = try_run_variant(&set, Approach::DataDriven, false, &cfg).unwrap();
        let metric = result.primary_metric();
        assert!((0.0..=1.0).contains(&metric), "{}: metric {metric} out of range", outcome.name());
    }
}

#[test]
fn shap_local_accuracy_holds_on_the_real_pipeline() {
    // The TreeSHAP efficiency axiom must survive the full stack:
    // missing values, FI column, real monthly aggregates.
    let (data, cfg, panel) = fast_setup();
    let set = attach_fi(&build_samples(&data, &panel, OutcomeKind::Qol, &cfg.pipeline), &data);
    let model = fit_final_model(&set, &cfg);
    let explainer = TreeExplainer::new(&model);
    for row in (0..set.len()).step_by(37) {
        let exp = explainer.shap_values_row(set.features.row(row));
        let reconstructed = exp.base_value + exp.values.iter().sum::<f64>();
        assert!(
            (reconstructed - exp.prediction).abs() < 1e-7,
            "row {row}: SHAP does not sum to the prediction"
        );
    }
}

#[test]
fn explanations_name_real_features() {
    let (data, cfg, panel) = fast_setup();
    let set = build_samples(&data, &panel, OutcomeKind::Sppb, &cfg.pipeline);
    let model = fit_final_model(&set, &cfg);
    let report = explain_row(&model, &set, 3, 5);
    assert_eq!(report.top.len(), 5);
    for attribution in &report.top {
        assert!(set.feature_names.contains(&attribution.feature));
    }
    let ranking = ShapReport::try_new(&model, &set).unwrap().global_ranking(10);
    assert_eq!(ranking.len(), 10);
}

#[test]
fn whole_run_is_reproducible() {
    let run = || {
        let data = generate(&CohortConfig::small(11));
        let cfg = ExperimentConfig::fast();
        let panel = FeaturePanel::build(&data, &cfg.pipeline);
        let set = build_samples(&data, &panel, OutcomeKind::Qol, &cfg.pipeline);
        try_run_variant(&set, Approach::DataDriven, false, &cfg).unwrap().primary_metric()
    };
    assert_eq!(run(), run());
}

#[test]
fn fi_column_is_present_and_bounded() {
    let (data, cfg, panel) = fast_setup();
    let set = attach_fi(&build_samples(&data, &panel, OutcomeKind::Falls, &cfg.pipeline), &data);
    assert_eq!(set.feature_names.last().unwrap(), "fi_baseline");
    let fi = set.features.column(set.features.ncols() - 1);
    assert!(fi.iter().all(|&v| (0.0..=1.0).contains(&v)));
}
