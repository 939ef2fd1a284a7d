//! The flat-forest engine's contract: every batch entry point is
//! **bit-for-bit identical** to the `Tree::predict_row` node walk —
//! same routing at thresholds and NaNs, same tree-order summation from
//! the same base score — at any worker count.

use msaw_gbdt::{simd, Booster, FlatForest, Node, Objective, Params, Tree};
use msaw_tabular::Matrix;
use proptest::prelude::*;

/// Deterministic pseudo-random matrix with ~10% missing values.
fn pseudo_matrix(nrows: usize, ncols: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..nrows)
        .map(|i| {
            (0..ncols)
                .map(|j| {
                    let h = (i * 31 + j * 17 + i * j) % 97;
                    if h % 10 == 3 {
                        f64::NAN
                    } else {
                        ((h % 11) as f64) * 0.5
                    }
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn pseudo_labels(nrows: usize) -> Vec<f64> {
    (0..nrows).map(|i| ((i * 13 + 5) % 29) as f64 / 29.0).collect()
}

fn trained_model(nrows: usize, ncols: usize) -> (Matrix, Booster) {
    let data = pseudo_matrix(nrows, ncols);
    let labels = pseudo_labels(nrows);
    let params = Params {
        n_estimators: 30,
        max_depth: 4,
        subsample: 0.8,
        colsample_bytree: 0.7,
        ..Params::regression()
    };
    let model = Booster::train(&params, &data, &labels).unwrap();
    (data, model)
}

/// The node-walk oracle: `base + Σ predict_row` in tree order.
fn walk_raw(model: &Booster, data: &Matrix) -> Vec<f64> {
    data.rows().map(|r| model.predict_raw_row(r)).collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i}: {x} vs {y}");
    }
}

/// Raw batch scores on `workers` threads at the active kernel level.
fn raw_batch(flat: &FlatForest, workers: usize, data: &Matrix) -> Vec<f64> {
    flat.try_predict_raw_batch_on(workers, data, simd::active_level()).unwrap()
}

#[test]
fn flat_batch_equals_node_walk_bitwise() {
    let (data, model) = trained_model(120, 6);
    let flat = model.flat_forest();
    assert_eq!(flat.n_trees(), model.trees().len());
    let workers = msaw_parallel::available_workers();
    assert_bits_eq(&raw_batch(&flat, workers, &data), &walk_raw(&model, &data), "raw batch");
    let walk_transformed: Vec<f64> = data.rows().map(|r| model.predict_row(r)).collect();
    assert_bits_eq(&flat.predict_batch(&data), &walk_transformed, "transformed batch");
}

#[test]
fn flat_is_invariant_across_worker_counts() {
    let (data, model) = trained_model(300, 5);
    let flat = model.flat_forest();
    let reference = raw_batch(&flat, 1, &data);
    assert_bits_eq(&reference, &walk_raw(&model, &data), "serial flat vs walk");
    for workers in [2, 8] {
        assert_bits_eq(
            &raw_batch(&flat, workers, &data),
            &reference,
            &format!("workers={workers}"),
        );
    }
}

#[test]
fn zero_row_inputs_yield_empty_outputs_at_any_worker_count() {
    // The pool's block splitter makes zero blocks from zero items, so
    // the batch entry points need no empty-input guard — document that
    // contract here against regressions.
    let (data, model) = trained_model(50, 4);
    let flat = model.flat_forest();
    let empty = Matrix::zeros(0, data.ncols());
    assert!(flat.predict_batch(&empty).is_empty());
    assert!(flat.predict_rows(&data, &[]).is_empty());
    for workers in [1, 2, 8] {
        assert!(raw_batch(&flat, workers, &empty).is_empty());
        assert!(flat.predict_raw_rows_on(workers, &data, &[]).is_empty());
    }
}

#[test]
fn row_view_prediction_matches_walk() {
    let (data, model) = trained_model(100, 4);
    let flat = model.flat_forest();
    // An unsorted view with repeats.
    let rows: Vec<usize> = vec![7, 3, 99, 0, 3, 42, 17];
    let raw = flat.predict_raw_rows_on(1, &data, &rows);
    let transformed = flat.predict_rows(&data, &rows);
    for (i, &r) in rows.iter().enumerate() {
        assert_eq!(raw[i].to_bits(), model.predict_raw_row(data.row(r)).to_bits());
        assert_eq!(transformed[i].to_bits(), model.predict_row(data.row(r)).to_bits());
    }
    for workers in [1, 2, 8] {
        assert_bits_eq(&flat.predict_raw_rows_on(workers, &data, &rows), &raw, "row view workers");
    }
}

#[test]
fn single_leaf_tree_predicts_its_weight() {
    let mut t = Tree::new();
    t.push(Node::Leaf { weight: -0.75, cover: 4.0 });
    let flat = FlatForest::from_trees(&[t.clone()], 0.5, Objective::SquaredError, 3);
    let data = pseudo_matrix(10, 3);
    for row in data.rows() {
        assert_eq!(flat.predict_raw_row(row).to_bits(), (0.5 + t.predict_row(row)).to_bits());
        assert_eq!(flat.predict_raw_row(row), 0.5 + -0.75);
    }
}

/// root: x0 < 0.5 ? leaf(-1) : (x1 < 2 ? leaf(1) : leaf(3)),
/// missing x0 → right, missing x1 → left.
fn sample_tree() -> Tree {
    let mut t = Tree::new();
    t.push(Node::Split {
        feature: 0,
        threshold: 0.5,
        default_left: false,
        left: 1,
        right: 2,
        cover: 10.0,
        gain: 5.0,
    });
    t.push(Node::Leaf { weight: -1.0, cover: 4.0 });
    t.push(Node::Split {
        feature: 1,
        threshold: 2.0,
        default_left: true,
        left: 3,
        right: 4,
        cover: 6.0,
        gain: 2.0,
    });
    t.push(Node::Leaf { weight: 1.0, cover: 3.0 });
    t.push(Node::Leaf { weight: 3.0, cover: 3.0 });
    t
}

#[test]
fn nan_routing_follows_per_node_defaults() {
    let flat = FlatForest::from_trees(&[sample_tree()], 0.0, Objective::SquaredError, 2);
    // x0 missing → default right; x1 = 5 → right leaf(3).
    assert_eq!(flat.predict_raw_row(&[f64::NAN, 5.0]), 3.0);
    // x0 = 1 → right; x1 missing → default left → leaf(1).
    assert_eq!(flat.predict_raw_row(&[1.0, f64::NAN]), 1.0);
    // Both missing: right at the root, left at the child.
    assert_eq!(flat.predict_raw_row(&[f64::NAN, f64::NAN]), 1.0);
}

#[test]
fn value_equal_to_threshold_goes_right() {
    // `value < threshold` goes left, so the threshold itself goes right
    // (0.5 and 2.0 are exactly representable — no rounding slack).
    let flat = FlatForest::from_trees(&[sample_tree()], 0.0, Objective::SquaredError, 2);
    assert_eq!(flat.predict_raw_row(&[0.5, 0.0]), 1.0);
    assert_eq!(flat.predict_raw_row(&[0.5, 2.0]), 3.0);
    // Just below goes left.
    assert_eq!(flat.predict_raw_row(&[0.4999999999999999, 0.0]), -1.0);
}

#[test]
fn empty_feature_rows_reach_leaf_only_trees() {
    // Leaf-only forests never read a feature, so zero-width rows are valid.
    let mut a = Tree::new();
    a.push(Node::Leaf { weight: 0.25, cover: 1.0 });
    let mut b = Tree::new();
    b.push(Node::Leaf { weight: -0.125, cover: 1.0 });
    let flat = FlatForest::from_trees(&[a, b], 1.0, Objective::SquaredError, 0);
    let data = Matrix::zeros(5, 0);
    let out = raw_batch(&flat, 1, &data);
    assert_eq!(out, vec![1.0 + 0.25 + -0.125; 5]);
}

#[test]
fn multi_tree_sum_is_in_tree_order_from_base_score() {
    let trees = vec![sample_tree(), sample_tree(), sample_tree()];
    let flat = FlatForest::from_trees(&trees, -0.5, Objective::SquaredError, 2);
    let row = [0.7, 1.0];
    let expected = -0.5 + trees.iter().map(|t| t.predict_row(&row)).sum::<f64>();
    assert_eq!(flat.predict_raw_row(&row).to_bits(), expected.to_bits());
    assert_eq!(flat.n_trees(), 3);
    assert_eq!(flat.n_nodes(), 15);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any trained forest and any matrix, flat == node walk bitwise.
    #[test]
    fn flat_equals_walk_for_random_forests(
        nrows in 2usize..40,
        ncols in 1usize..5,
        cells in collection::vec(
            prop_oneof![9 => (0u32..9).prop_map(|v| v as f64 * 0.5 - 1.0), 1 => Just(f64::NAN)],
            200
        ),
        labels in collection::vec(0.0..1.0f64, 40),
        seed in 0u64..64,
        depth in 1usize..5
    ) {
        let rows: Vec<Vec<f64>> = (0..nrows)
            .map(|i| (0..ncols).map(|j| cells[(i * ncols + j) % cells.len()]).collect())
            .collect();
        let data = Matrix::from_rows(&rows);
        let y: Vec<f64> = (0..nrows).map(|i| labels[i % labels.len()]).collect();
        let params = Params {
            n_estimators: 10,
            max_depth: depth,
            subsample: 0.8,
            seed,
            ..Params::regression()
        };
        let model = Booster::train(&params, &data, &y).unwrap();
        let flat = model.flat_forest();
        let walk = walk_raw(&model, &data);
        for workers in [1, 2, 8] {
            let batch = raw_batch(&flat, workers, &data);
            for (a, b) in batch.iter().zip(&walk) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------
// The predict_raw width-check bugfix: both fallible entry points must
// reject a wrong-width matrix instead of silently mis-indexing.
// ---------------------------------------------------------------------

#[test]
fn try_predict_rejects_wrong_width() {
    let (_, model) = trained_model(50, 3);
    let bad = Matrix::zeros(4, 7);
    match model.try_predict(&bad) {
        Err(msaw_gbdt::PredictError::FeatureCount { expected, actual }) => {
            assert_eq!((expected, actual), (3, 7));
        }
        other => panic!("expected FeatureCount error, got {other:?}"),
    }
}

#[test]
fn try_predict_raw_rejects_wrong_width() {
    let (_, model) = trained_model(50, 3);
    let bad = Matrix::zeros(4, 2);
    match model.try_predict_raw(&bad) {
        Err(msaw_gbdt::PredictError::FeatureCount { expected, actual }) => {
            assert_eq!((expected, actual), (3, 2));
        }
        other => panic!("expected FeatureCount error, got {other:?}"),
    }
}

#[test]
fn correct_width_still_accepted_by_both_paths() {
    let (data, model) = trained_model(50, 3);
    assert!(model.try_predict(&data).is_ok());
    let raw = model.try_predict_raw(&data).unwrap();
    assert_bits_eq(&raw, &walk_raw(&model, &data), "try_predict_raw");
}
