//! The paper's qualitative claims, checked as integration tests on a
//! reduced cohort (claims are about orderings and structure, which must
//! be robust to scale).

use mysawh_repro::cohort::{generate, CohortConfig};
use mysawh_repro::core::grid::{find, try_run_full_grid_on};
use mysawh_repro::core::{Approach, ExperimentConfig};
use mysawh_repro::preprocess::{build_samples, FeaturePanel, OutcomeKind};

fn grid() -> Vec<mysawh_repro::core::VariantResult> {
    let data = generate(&CohortConfig::small(42));
    try_run_full_grid_on(0, &data, &ExperimentConfig::fast()).unwrap()
}

#[test]
fn dd_beats_kd_on_both_regression_outcomes() {
    // §5.1: "the DD approach performs generally better than KD".
    let results = grid();
    for outcome in [OutcomeKind::Qol, OutcomeKind::Sppb] {
        for with_fi in [false, true] {
            let dd = find(&results, outcome, Approach::DataDriven, with_fi).primary_metric();
            let kd = find(&results, outcome, Approach::KnowledgeDriven, with_fi).primary_metric();
            assert!(
                dd >= kd - 0.005,
                "{} with_fi={with_fi}: DD {dd:.3} vs KD {kd:.3}",
                outcome.name()
            );
        }
    }
}

#[test]
fn regression_scores_are_in_the_paper_band() {
    // §5.1: "higher than 90% 1-MAPE for all cases in QoL and SPPB".
    // On the reduced cohort we allow a small slack below the paper's 90%.
    let results = grid();
    for outcome in [OutcomeKind::Qol, OutcomeKind::Sppb] {
        for approach in [Approach::DataDriven, Approach::KnowledgeDriven] {
            for with_fi in [false, true] {
                let m = find(&results, outcome, approach, with_fi).primary_metric();
                assert!(
                    m > 0.85,
                    "{} {} with_fi={with_fi}: 1-MAPE {m:.3} below band",
                    outcome.name(),
                    approach.label()
                );
            }
        }
    }
}

#[test]
fn fi_lifts_falls_recall_for_the_kd_model() {
    // §5.1: the KD Falls model without FI has very low recall on the
    // minority class; adding FI recovers it (2% → 54% in the paper).
    let results = grid();
    let without = find(&results, OutcomeKind::Falls, Approach::KnowledgeDriven, false)
        .classification
        .expect("classification");
    let with = find(&results, OutcomeKind::Falls, Approach::KnowledgeDriven, true)
        .classification
        .expect("classification");
    assert!(
        with.recall_true > without.recall_true,
        "FI should raise KD recall-True: {:.2} -> {:.2}",
        without.recall_true,
        with.recall_true
    );
}

#[test]
fn falls_is_imbalanced_like_fig1() {
    let data = generate(&CohortConfig::small(42));
    let cfg = ExperimentConfig::fast();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    let set = build_samples(&data, &panel, OutcomeKind::Falls, &cfg.pipeline);
    let rate = set.labels.iter().sum::<f64>() / set.len() as f64;
    assert!((0.05..=0.30).contains(&rate), "falls rate {rate}");
}

#[test]
fn qa_thins_the_sample_set_as_in_section_3() {
    // Paper: 2,250 usable of 4,176 potential (≈54%). The mechanism —
    // a sizeable but not overwhelming QA drop — must reproduce.
    let data = generate(&CohortConfig::small(42));
    let cfg = ExperimentConfig::fast();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    let set = build_samples(&data, &panel, OutcomeKind::Qol, &cfg.pipeline);
    let potential = data.patients.len() * 16;
    let kept = set.len() as f64 / potential as f64;
    assert!((0.35..=0.85).contains(&kept), "kept {kept:.2} of potential");
}

#[test]
fn all_twelve_models_train_and_score() {
    let results = grid();
    assert_eq!(results.len(), 12);
    for r in &results {
        assert!(r.primary_metric().is_finite(), "{} broke", r.summary_line());
        assert!(r.n_train > r.n_test);
    }
}
