//! Equivalence suite for the batch-parallel SHAP engine.
//!
//! Locks the two refactor invariants: (1) the arena traversal is
//! *bit-identical* to the retired clone-per-branch recursion kept in
//! `tests/reference`, on models with NaNs and repeated features on
//! a path; (2) the pooled batch entry points are *byte-identical* at
//! any worker count, including the interaction matrix's fanned
//! conditional passes.

mod reference;

use msaw_gbdt::{Booster, Params};
use msaw_shap::{shap_interaction_values_with_workers, PathArena, TreeExplainer};
use msaw_tabular::Matrix;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A toy model over data with ~10% missing values.
fn train_toy(n_features: usize, n_rows: usize, seed: u64) -> (Booster, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> =
        (0..n_rows)
            .map(|_| {
                (0..n_features)
                    .map(|_| {
                        if rng.random::<f64>() < 0.1 {
                            f64::NAN
                        } else {
                            rng.random_range(0.0..10.0)
                        }
                    })
                    .collect()
            })
            .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| {
            let a = if r[0].is_nan() { 5.0 } else { r[0] };
            let b = if n_features > 1 && !r[1].is_nan() { r[1] } else { 0.0 };
            2.0 * a - b
        })
        .collect();
    let x = Matrix::from_rows(&rows);
    let params = Params { n_estimators: 12, max_depth: 4, ..Params::regression() };
    (Booster::train(&params, &x, &y).unwrap(), x)
}

/// A deep single-feature model, forcing the same feature to repeat on
/// root-to-leaf paths (the UNWIND branch of the algorithm).
fn train_repeated_feature() -> (Booster, Matrix) {
    let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, (i % 4) as f64]).collect();
    let y: Vec<f64> = rows.iter().map(|r| (r[0] / 8.0).floor() + r[1]).collect();
    let x = Matrix::from_rows(&rows);
    let params = Params { n_estimators: 6, max_depth: 6, ..Params::regression() };
    (Booster::train(&params, &x, &y).unwrap(), x)
}

/// Exact (bitwise) comparison of two attribution vectors.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: feature {i}: {x} vs {y}");
    }
}

#[test]
fn arena_matches_clone_recursion_with_nans() {
    let (model, x) = train_toy(5, 150, 7);
    let explainer = TreeExplainer::new(&model);
    for i in 0..x.nrows() {
        let arena = explainer.shap_values_row(x.row(i));
        let clone = reference::shap_values_row_clone(&model, x.row(i));
        assert_bits_eq(&arena.values, &clone, &format!("row {i}"));
    }
}

#[test]
fn arena_matches_clone_recursion_on_repeated_feature_paths() {
    let (model, x) = train_repeated_feature();
    let explainer = TreeExplainer::new(&model);
    for i in 0..x.nrows() {
        let arena = explainer.shap_values_row(x.row(i));
        let clone = reference::shap_values_row_clone(&model, x.row(i));
        assert_bits_eq(&arena.values, &clone, &format!("row {i}"));
    }
}

#[test]
fn arena_matches_clone_on_all_missing_rows() {
    let (model, _) = train_toy(4, 120, 11);
    let rows =
        [vec![f64::NAN; 4], vec![f64::NAN, 3.0, f64::NAN, 9.5], vec![0.0, f64::NAN, 5.0, 1.0]];
    let explainer = TreeExplainer::new(&model);
    for row in &rows {
        let arena = explainer.shap_values_row(row);
        let clone = reference::shap_values_row_clone(&model, row);
        assert_bits_eq(&arena.values, &clone, "missing-value row");
    }
}

#[test]
fn one_arena_reused_across_rows_changes_nothing() {
    // The worker-pool path hands each worker one long-lived arena; its
    // state after row k must not leak into row k+1.
    let (model, x) = train_toy(4, 60, 13);
    let explainer = TreeExplainer::new(&model);
    let mut arena = PathArena::new();
    for i in 0..x.nrows() {
        let reused = explainer.shap_values_row_with(x.row(i), &mut arena);
        let fresh = explainer.shap_values_row(x.row(i));
        assert_bits_eq(&reused.values, &fresh.values, &format!("row {i}"));
    }
}

#[test]
fn shap_matrix_is_byte_identical_at_any_worker_count() {
    let (model, x) = train_toy(6, 200, 3);
    let explainer = TreeExplainer::new(&model);
    // Serial reference: a plain row loop.
    let serial = explainer.shap_values_with_workers(&x, 1);
    for workers in [2, 8] {
        let pooled = explainer.shap_values_with_workers(&x, workers);
        assert_bits_eq(serial.as_slice(), pooled.as_slice(), &format!("workers={workers}"));
    }
    // And the default entry point agrees too.
    assert_bits_eq(serial.as_slice(), explainer.shap_values(&x).as_slice(), "default workers");
}

#[test]
fn shap_matrix_matches_pre_refactor_serial_path() {
    let (model, x) = train_toy(5, 120, 19);
    let explainer = TreeExplainer::new(&model);
    let new = explainer.shap_values(&x);
    let old = reference::shap_values_serial_clone(&model, &x);
    assert_bits_eq(new.as_slice(), old.as_slice(), "matrix vs pre-refactor serial");
}

#[test]
fn interaction_matrix_is_unchanged_and_worker_count_independent() {
    let (model, x) = train_toy(4, 160, 5);
    for i in [0usize, 17, 59] {
        let row = x.row(i);
        let old = reference::shap_interaction_values_clone(&model, row);
        for workers in [1, 2, 8] {
            let new = shap_interaction_values_with_workers(&model, row, workers);
            assert_eq!(new.n_features, old.n_features);
            assert_bits_eq(&new.values, &old.values, &format!("row {i} workers={workers}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arena-vs-clone equality on random data (with NaNs), random
    /// depth, and every row of the dataset.
    #[test]
    fn arena_equals_clone_on_random_models(
        (rows, depth) in (
            proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![5 => -10.0..10.0f64, 1 => Just(f64::NAN)],
                    3,
                ),
                10..50,
            ),
            2usize..6,
        )
    ) {
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().filter(|v| v.is_finite()).sum::<f64>())
            .collect();
        let x = Matrix::from_rows(&rows);
        let params = Params { n_estimators: 5, max_depth: depth, ..Params::regression() };
        let model = Booster::train(&params, &x, &y).unwrap();
        let explainer = TreeExplainer::new(&model);
        for i in 0..x.nrows() {
            let arena = explainer.shap_values_row(x.row(i));
            let clone = reference::shap_values_row_clone(&model, x.row(i));
            for (a, b) in arena.values.iter().zip(&clone) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "row {}: {} vs {}", i, a, b);
            }
        }
    }
}
