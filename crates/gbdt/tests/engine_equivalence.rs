//! The shared-context engine's contract: training on a row-index view
//! of a `TrainingContext` is **bit-for-bit identical** (exact method) to
//! materialising the rows with `take_rows` and training on the copy, and
//! the context's shared binning is consistent with re-encoding any
//! materialised subset against the same cuts.

use msaw_gbdt::{
    encode_rows, Booster, ChunkedMatrix, ChunkedMatrixBuilder, Params, TrainingContext, TreeMethod,
};
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
                        // Small value pool to force plenty of ties.
                        ((h % 11) as f64) * 0.5
                    }
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn pseudo_labels(nrows: usize, binary: bool) -> Vec<f64> {
    (0..nrows)
        .map(|i| {
            let v = ((i * 13 + 5) % 29) as f64 / 29.0;
            if binary {
                if v > 0.5 {
                    1.0
                } else {
                    0.0
                }
            } else {
                v
            }
        })
        .collect()
}

/// An unsorted, duplicate-free subset covering ~2/3 of the rows.
fn subset(nrows: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..nrows).filter(|i| i % 3 != 1).collect();
    // Deterministic scramble: the view must not rely on sorted indices.
    rows.reverse();
    let mid = rows.len() / 2;
    rows.swap(0, mid);
    rows
}

fn check_exact_equivalence(params: &Params, labels_binary: bool) {
    let data = pseudo_matrix(90, 6);
    let labels = pseudo_labels(90, labels_binary);
    let rows = subset(90);
    let y: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();

    let ctx = TrainingContext::new(&data);
    let via_view = Booster::train_on_rows(params, &ctx, &rows, &y).unwrap();
    let via_copy = Booster::train(params, &data.take_rows(&rows), &y).unwrap();
    assert_eq!(via_view, via_copy, "view-trained model must equal copy-trained model");

    // And the predictions agree on the full matrix, bit for bit.
    assert_eq!(via_view.predict(&data), via_copy.predict(&data));
}

#[test]
fn exact_view_equals_copy_regression() {
    let params = Params {
        n_estimators: 25,
        max_depth: 4,
        subsample: 0.8,
        colsample_bytree: 0.5,
        min_child_weight: 1.5,
        ..Params::regression()
    };
    check_exact_equivalence(&params, false);
}

#[test]
fn exact_view_equals_copy_logistic() {
    let params = Params { n_estimators: 25, max_depth: 3, subsample: 0.7, ..Params::binary(2.0) };
    check_exact_equivalence(&params, true);
}

#[test]
fn exact_view_equals_copy_without_subsampling() {
    let params = Params { n_estimators: 15, ..Params::regression() };
    check_exact_equivalence(&params, false);
}

#[test]
fn full_rowset_view_equals_plain_train() {
    let data = pseudo_matrix(60, 4);
    let labels = pseudo_labels(60, false);
    let rows: Vec<usize> = (0..60).collect();
    let params = Params { n_estimators: 20, subsample: 0.9, ..Params::regression() };
    let ctx = TrainingContext::new(&data);
    let via_view = Booster::train_on_rows(&params, &ctx, &rows, &labels).unwrap();
    let plain = Booster::train(&params, &data, &labels).unwrap();
    assert_eq!(via_view, plain);
}

#[test]
fn hist_view_is_deterministic_and_learns() {
    let data = pseudo_matrix(90, 5);
    let labels = pseudo_labels(90, false);
    let rows = subset(90);
    let y: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();
    let params = Params {
        n_estimators: 40,
        subsample: 0.8,
        tree_method: TreeMethod::Hist { max_bins: 64 },
        ..Params::regression()
    };
    let ctx = TrainingContext::new(&data);
    let a = Booster::train_on_rows(&params, &ctx, &rows, &y).unwrap();
    let b = Booster::train_on_rows(&params, &ctx, &rows, &y).unwrap();
    assert_eq!(a, b, "hist view training must be deterministic");
    let preds: Vec<f64> = rows.iter().map(|&r| a.predict_row(data.row(r))).collect();
    let mae: f64 = y.iter().zip(&preds).map(|(t, p)| (t - p).abs()).sum::<f64>() / y.len() as f64;
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let base: f64 = y.iter().map(|t| (t - mean).abs()).sum::<f64>() / y.len() as f64;
    assert!(mae < base, "hist view failed to learn: mae {mae} vs baseline {base}");
}

#[test]
fn context_bins_exactly_once_across_many_fits() {
    let data = pseudo_matrix(60, 4);
    let labels = pseudo_labels(60, false);
    let params = Params { n_estimators: 5, ..Params::regression() };
    let before = msaw_gbdt::binning::fit_count();
    let ctx = TrainingContext::new(&data);
    for start in 0..5 {
        let rows: Vec<usize> = (start..60).collect();
        let y: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();
        Booster::train_on_rows(&params, &ctx, &rows, &y).unwrap();
    }
    assert_eq!(
        msaw_gbdt::binning::fit_count() - before,
        1,
        "five fits on one context must quantise exactly once"
    );
}

#[test]
fn objective_is_still_validated_on_the_view_path() {
    let data = pseudo_matrix(20, 3);
    let ctx = TrainingContext::new(&data);
    let rows: Vec<usize> = (0..20).collect();
    let bad_labels = vec![0.5; 20]; // not 0/1
    let params = Params { n_estimators: 3, ..Params::binary(1.0) };
    assert!(Booster::train_on_rows(&params, &ctx, &rows, &bad_labels).is_err());
    assert!(Booster::train_on_rows(&params, &ctx, &[], &[]).is_err());
}

/// Strategy: a random matrix (with missing cells and heavy value ties)
/// plus a random non-empty row subset (duplicates allowed — a view may
/// legitimately repeat rows, e.g. bootstrap-style callers).
fn matrix_and_subset() -> impl Strategy<Value = (usize, usize, Vec<f64>, Vec<usize>)> {
    (2usize..24, 1usize..5).prop_flat_map(|(nrows, ncols)| {
        let cell = prop_oneof![
            9 => (0u32..9).prop_map(|v| v as f64 * 0.5 - 1.0),
            1 => Just(f64::NAN),
        ];
        (
            Just(nrows),
            Just(ncols),
            collection::vec(cell, nrows * ncols),
            collection::vec(0..nrows, 1..=nrows),
        )
    })
}

fn build(nrows: usize, ncols: usize, cells: &[f64]) -> Matrix {
    let rows: Vec<Vec<f64>> =
        (0..nrows).map(|i| cells[i * ncols..(i + 1) * ncols].to_vec()).collect();
    Matrix::from_rows(&rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Looking bins up through the shared context agrees with re-encoding
    /// the materialised subset against the context's cuts.
    #[test]
    fn context_codes_match_with_cuts_on_subset(
        (nrows, ncols, cells, rows) in matrix_and_subset()
    ) {
        let data = build(nrows, ncols, &cells);
        let ctx = TrainingContext::with_max_bins(&data, 8);
        let cuts = (0..ncols).map(|j| ctx.binned().cuts(j).to_vec()).collect();
        let mut builder = ChunkedMatrixBuilder::in_memory(cuts, rows.len());
        builder.push_encoded(&encode_rows(builder.cuts(), data.take_rows(&rows).as_slice())).unwrap();
        let materialised = builder.finish().unwrap();
        for (pos, &r) in rows.iter().enumerate() {
            for j in 0..ncols {
                prop_assert_eq!(
                    ctx.binned().bin(r, j),
                    materialised.bin(pos, j),
                    "row {} feature {} disagrees", r, j
                );
            }
        }
    }

    /// Cuts depend only on the distinct present values, so fitting from
    /// scratch on any permutation of the full row set reproduces the
    /// context's codes exactly.
    #[test]
    fn refit_on_permuted_rows_matches_context(
        (nrows, ncols, cells) in (2usize..24, 1usize..5).prop_flat_map(|(n, c)| {
            let cell = prop_oneof![
                9 => (0u32..9).prop_map(|v| v as f64 * 0.5),
                1 => Just(f64::NAN),
            ];
            (Just(n), Just(c), collection::vec(cell, n * c))
        }),
        salt in 0usize..1000
    ) {
        let data = build(nrows, ncols, &cells);
        let ctx = TrainingContext::with_max_bins(&data, 8);
        // A deterministic permutation of all rows.
        let mut perm: Vec<usize> = (0..nrows).collect();
        for i in 0..nrows {
            perm.swap(i, (i * 7 + salt) % nrows);
        }
        let refit = ChunkedMatrix::fit(&data.take_rows(&perm), 8);
        for (pos, &r) in perm.iter().enumerate() {
            for j in 0..ncols {
                prop_assert_eq!(ctx.binned().bin(r, j), refit.bin(pos, j));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for any matrix and row view, the exact
    /// engine's view training equals copy-then-train, model for model.
    #[test]
    fn exact_view_training_equals_copy_for_random_inputs(
        (nrows, ncols, cells, rows) in matrix_and_subset(),
        label_cells in collection::vec(0.0..1.0f64, 24),
        seed in 0u64..32
    ) {
        let data = build(nrows, ncols, &cells);
        let labels: Vec<f64> = rows.iter().map(|&r| label_cells[r % 24]).collect();
        let params = Params {
            n_estimators: 8,
            max_depth: 3,
            subsample: 0.8,
            colsample_bytree: 0.7,
            seed,
            ..Params::regression()
        };
        let ctx = TrainingContext::new(&data);
        let via_view = Booster::train_on_rows(&params, &ctx, &rows, &labels).unwrap();
        let via_copy = Booster::train(&params, &data.take_rows(&rows), &labels).unwrap();
        prop_assert_eq!(via_view, via_copy);
    }
}
