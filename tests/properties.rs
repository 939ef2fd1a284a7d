//! Property-based tests (proptest) over the core invariants of the
//! learners, the interpreter, the metrics and the data pipeline.

use mysawh_repro::gbdt::{Booster, ModelArtifact, Params, TreeMethod};
use mysawh_repro::metrics::{
    kfold, mae, one_minus_mape, rmse, stratified_kfold, BoxStats, ConfusionMatrix,
};
use mysawh_repro::preprocess::interpolate;
use mysawh_repro::shap::TreeExplainer;
use mysawh_repro::tabular::Matrix;
use proptest::prelude::*;

/// A small random regression dataset: values in a sane range, a target
/// correlated with feature 0.
fn dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (8usize..40, 1usize..5).prop_flat_map(|(rows, cols)| {
        (
            proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![4 => -10.0..10.0f64, 1 => Just(f64::NAN)],
                    cols,
                ),
                rows,
            ),
            proptest::collection::vec(-5.0..5.0f64, rows),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn training_always_yields_finite_predictions((rows, noise) in dataset()) {
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = rows
            .iter()
            .zip(&noise)
            .map(|(r, n)| if r[0].is_nan() { *n } else { r[0] + n })
            .collect();
        let params = Params { n_estimators: 5, max_depth: 3, ..Params::regression() };
        let model = Booster::train(&params, &x, &y).unwrap();
        for p in model.predict(&x) {
            prop_assert!(p.is_finite());
        }
        for t in model.trees() {
            prop_assert!(t.validate(), "structurally invalid tree");
        }
    }

    #[test]
    fn shap_efficiency_axiom_on_random_models((rows, noise) in dataset()) {
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = rows
            .iter()
            .zip(&noise)
            .map(|(r, n)| if r[0].is_nan() { *n } else { 2.0 * r[0] + n })
            .collect();
        let params = Params { n_estimators: 4, max_depth: 3, ..Params::regression() };
        let model = Booster::train(&params, &x, &y).unwrap();
        let explainer = TreeExplainer::new(&model);
        for i in 0..x.nrows().min(5) {
            let exp = explainer.shap_values_row(x.row(i));
            let total = exp.base_value + exp.values.iter().sum::<f64>();
            prop_assert!(
                (total - exp.prediction).abs() < 1e-7,
                "Σφ + base = {total} but prediction = {}",
                exp.prediction
            );
        }
    }

    #[test]
    fn model_serialisation_round_trips((rows, noise) in dataset()) {
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = rows.iter().zip(&noise).map(|(r, n)| r.len() as f64 + n).collect();
        let params = Params {
            n_estimators: 3,
            tree_method: TreeMethod::Hist { max_bins: 16 },
            ..Params::regression()
        };
        let model = Booster::train(&params, &x, &y).unwrap();
        let bytes = ModelArtifact::from_booster(model.clone(), None).encode();
        let decoded = mysawh_repro::gbdt::artifact::decode(&bytes).unwrap();
        prop_assert_eq!(model, decoded.booster);
    }

    #[test]
    fn interpolation_never_extrapolates(
        values in proptest::collection::vec(
            prop_oneof![2 => 0.0..10.0f64, 1 => Just(f64::NAN)], 1..60),
        max_gap in 0usize..10,
    ) {
        let series: Vec<Option<f64>> = values
            .iter()
            .map(|&v| if v.is_nan() { None } else { Some(v) })
            .collect();
        let out = interpolate(&series, max_gap);
        let present: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if present.is_empty() {
            prop_assert!(out.iter().all(|v| v.is_nan()));
        } else {
            let lo = present.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = present.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for (i, &v) in out.iter().enumerate() {
                if v.is_nan() {
                    continue;
                }
                prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "slot {i} = {v} outside [{lo},{hi}]");
                // Originally present values must never change.
                if !values[i].is_nan() {
                    prop_assert_eq!(v, values[i]);
                }
            }
        }
    }

    #[test]
    fn regression_metric_identities(
        pairs in proptest::collection::vec((0.1..10.0f64, 0.0..10.0f64), 1..50)
    ) {
        let t: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let p: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        prop_assert!(mae(&t, &p) >= 0.0);
        prop_assert!(rmse(&t, &p) + 1e-12 >= mae(&t, &p), "RMSE must dominate MAE");
        let score = one_minus_mape(&t, &p);
        prop_assert!((0.0..=1.0).contains(&score));
        prop_assert_eq!(mae(&t, &t), 0.0);
        prop_assert_eq!(one_minus_mape(&t, &t), 1.0);
    }

    #[test]
    fn confusion_matrix_counts_are_conserved(
        labels in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..200)
    ) {
        let t: Vec<bool> = labels.iter().map(|l| l.0).collect();
        let p: Vec<bool> = labels.iter().map(|l| l.1).collect();
        let m = ConfusionMatrix::from_labels(&t, &p);
        prop_assert_eq!(m.total(), t.len());
        prop_assert!((0.0..=1.0).contains(&m.accuracy()));
        let r = m.report();
        for v in [r.precision_true, r.precision_false, r.recall_true,
                  r.recall_false, r.f1_true, r.f1_false] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn kfold_is_always_a_partition(n in 4usize..120, seed in any::<u64>()) {
        let k = 2 + (seed as usize % 3).min(n - 2);
        let folds = kfold(n, k.min(n), seed);
        let mut seen = vec![false; n];
        for fold in &folds {
            for &i in &fold.validation {
                prop_assert!(!seen[i], "row {i} validated twice");
                seen[i] = true;
            }
            prop_assert_eq!(fold.train.len() + fold.validation.len(), n);
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn stratified_folds_balance_positives(
        labels in proptest::collection::vec(any::<bool>(), 20..200),
        seed in any::<u64>(),
    ) {
        let k = 4;
        let folds = stratified_kfold(&labels, k, seed);
        let total_pos = labels.iter().filter(|&&l| l).count();
        for fold in &folds {
            let pos = fold.validation.iter().filter(|&&i| labels[i]).count();
            // Round-robin dealing bounds each fold's share tightly.
            prop_assert!(pos <= total_pos / k + 1);
        }
    }

    #[test]
    fn boxstats_orderings_hold(values in proptest::collection::vec(-100.0..100.0f64, 1..200)) {
        let b = BoxStats::of(&values).unwrap();
        prop_assert!(b.min <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median + 1e-9);
        prop_assert!(b.median <= b.q3 + 1e-9);
        prop_assert!(b.q3 <= b.max + 1e-9);
        prop_assert!(b.whisker_low >= b.min - 1e-9);
        prop_assert!(b.whisker_high <= b.max + 1e-9);
        prop_assert_eq!(b.count, values.len());
    }

    #[test]
    fn hist_and_exact_agree_on_few_distinct_values(
        codes in proptest::collection::vec(0u8..4, 16..64),
        noise in proptest::collection::vec(-0.1..0.1f64, 64),
    ) {
        // With ≤4 distinct values per feature, hist cut points are the
        // exact midpoints, so the two methods must build identical trees.
        let rows: Vec<Vec<f64>> = codes.iter().map(|&c| vec![c as f64]).collect();
        let y: Vec<f64> = codes
            .iter()
            .zip(&noise)
            .map(|(&c, n)| c as f64 * 1.5 + n)
            .collect();
        let x = Matrix::from_rows(&rows);
        let exact = Booster::train(
            &Params { n_estimators: 4, ..Params::regression() }, &x, &y).unwrap();
        let hist = Booster::train(
            &Params {
                n_estimators: 4,
                tree_method: TreeMethod::Hist { max_bins: 64 },
                ..Params::regression()
            }, &x, &y).unwrap();
        for i in 0..x.nrows() {
            prop_assert!((exact.predict_row(x.row(i)) - hist.predict_row(x.row(i))).abs() < 1e-9);
        }
    }
}
