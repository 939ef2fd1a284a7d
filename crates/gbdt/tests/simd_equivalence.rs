//! The SIMD kernels' contract: every vector tier produces **bitwise**
//! the same numbers as the scalar fallback — for prediction (flat-forest
//! traversal) and for training (histogram accumulation) — across NaN
//! lanes, threshold ties, remainder blocks shorter than a lockstep
//! group, degenerate single-leaf trees, and any worker count.
//!
//! Prediction comparisons pass the kernel level explicitly
//! (`try_predict_raw_batch_on`), so they need no global state; the
//! training comparisons force the process-wide dispatch level and are
//! serialized behind a mutex.

use msaw_gbdt::simd::{self, SimdLevel};
use msaw_gbdt::{Booster, ModelArtifact, Params, TreeMethod};
use msaw_tabular::Matrix;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the process-global forced dispatch level.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// The vector tiers this machine can actually run (empty off-AVX2 x86
/// and on other architectures — the suite then degenerates to
/// scalar-vs-scalar, which still locks the dispatch plumbing).
fn vector_levels() -> Vec<SimdLevel> {
    [SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&l| l <= simd::detected_level())
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i}: {x} vs {y}");
    }
}

/// Deterministic matrix with a tunable missing-value density.
fn pseudo_matrix(nrows: usize, ncols: usize, nan_mod: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..nrows)
        .map(|i| {
            (0..ncols)
                .map(|j| {
                    let h = (i * 31 + j * 17 + i * j) % 97;
                    if nan_mod > 0 && h % nan_mod == 1 {
                        f64::NAN
                    } else {
                        ((h % 13) as f64) * 0.5 - 2.0
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

fn train(data: &Matrix, labels: &[f64], depth: usize) -> Booster {
    let params = Params { n_estimators: 12, max_depth: depth, ..Params::regression() };
    Booster::train(&params, data, labels).unwrap()
}

/// Assert every vector tier matches the scalar kernel bitwise on
/// `query`, at worker counts 1, 2 and 8.
fn assert_levels_agree(model: &Booster, query: &Matrix, what: &str) {
    let flat = model.flat_forest();
    let reference = flat.try_predict_raw_batch_on(1, query, SimdLevel::Scalar).unwrap();
    for level in vector_levels() {
        for workers in [1usize, 2, 8] {
            let got = flat.try_predict_raw_batch_on(workers, query, level).unwrap();
            assert_bits_eq(&got, &reference, &format!("{what}: {level:?} workers={workers}"));
        }
    }
}

#[test]
fn nan_lanes_route_like_scalar() {
    // Dense missingness (~every other cell) exercises the default-left
    // blend in as many lanes as possible; an all-NaN block exercises it
    // in every lane at once.
    let data = pseudo_matrix(600, 7, 2);
    let model = train(&data, &pseudo_labels(600), 4);
    assert_levels_agree(&model, &data, "dense NaN matrix");
    let all_nan = Matrix::from_rows(&vec![vec![f64::NAN; 7]; 70]);
    assert_levels_agree(&model, &all_nan, "all-NaN matrix");
}

#[test]
fn threshold_ties_route_right_in_every_lane() {
    // Two clussters of feature values (1.0 / 2.0) force midpoint
    // thresholds at 1.5; querying exactly 1.5 sits on every split
    // boundary, where `v < t` must be false in scalar and vector code
    // alike.
    let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![if i % 2 == 0 { 1.0 } else { 2.0 }]).collect();
    let labels: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
    let data = Matrix::from_rows(&rows);
    let model = train(&data, &labels, 3);
    let boundary = Matrix::from_rows(&vec![vec![1.5]; 64]);
    assert_levels_agree(&model, &boundary, "tie at threshold");
    // A tie must land on the >= side: identical to querying 2.0.
    let flat = model.flat_forest();
    let at_tie = flat.try_predict_raw_batch_on(1, &boundary, SimdLevel::Scalar).unwrap();
    let above = flat
        .try_predict_raw_batch_on(1, &Matrix::from_rows(&vec![vec![2.0]; 64]), SimdLevel::Scalar)
        .unwrap();
    assert_bits_eq(&at_tie, &above, "tie routes right");
}

#[test]
fn remainder_blocks_shorter_than_a_lockstep_group_agree() {
    // 1..33 rows covers: sub-quad, sub-oct, exactly one AVX2 group
    // (16), one AVX-512 group (32), and one-past each.
    let data = pseudo_matrix(400, 5, 10);
    let model = train(&data, &pseudo_labels(400), 4);
    for nrows in [1usize, 3, 7, 8, 15, 16, 17, 31, 32, 33] {
        let query = pseudo_matrix(nrows, 5, 7);
        assert_levels_agree(&model, &query, &format!("nrows={nrows}"));
    }
}

#[test]
fn single_leaf_trees_agree() {
    // A constant target trains depth-0 trees (single leaf, no splits):
    // the kernels' broadcast path.
    let data = pseudo_matrix(100, 4, 9);
    let labels = vec![2.5; 100];
    let model = train(&data, &labels, 4);
    assert_levels_agree(&model, &data, "single-leaf forest");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes, NaN densities and depths: every available vector
    /// tier matches scalar bitwise at several worker counts.
    #[test]
    fn any_model_any_level_matches_scalar_bitwise(
        nrows in 20usize..250,
        ncols in 1usize..9,
        nan_mod in 0usize..6,
        depth in 1usize..6,
    ) {
        let data = pseudo_matrix(nrows, ncols, nan_mod);
        let model = train(&data, &pseudo_labels(nrows), depth);
        let query = pseudo_matrix(nrows + 13, ncols, 3);
        assert_levels_agree(&model, &query, "proptest model");
    }
}

/// Train the same problem under a forced dispatch level and return the
/// model artifact bytes — a complete fingerprint of every split,
/// threshold and leaf weight the histogram kernels produced.
fn train_bytes_at(level: SimdLevel, exact: bool) -> Vec<u8> {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::force_level(Some(level));
    let data = pseudo_matrix(350, 6, 4);
    let labels = pseudo_labels(350);
    let params = Params {
        n_estimators: 10,
        max_depth: 4,
        tree_method: if exact { TreeMethod::Exact } else { TreeMethod::Hist { max_bins: 64 } },
        ..Params::regression()
    };
    let model = Booster::train(&params, &data, &labels).unwrap();
    simd::force_level(None);
    ModelArtifact::from_booster(model, None).encode().to_vec()
}

#[test]
fn hist_training_is_bit_identical_across_levels() {
    let reference = train_bytes_at(SimdLevel::Scalar, false);
    for level in vector_levels() {
        let got = train_bytes_at(level, false);
        assert_eq!(got, reference, "histogram training diverged at {level:?}");
    }
}

/// Like [`train_bytes_at`] but with a tunable feature count. The
/// histogram index-widening kernels process features in lockstep groups
/// of 8 (AVX2) or 16 (AVX-512); narrow matrices only exercise their
/// scalar tails, so the hist-path equivalence must be pinned at widths
/// that reach the vector bodies too.
fn wide_train_bytes_at(level: SimdLevel, ncols: usize) -> Vec<u8> {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::force_level(Some(level));
    let data = pseudo_matrix(260, ncols, 5);
    let labels = pseudo_labels(260);
    let params = Params {
        n_estimators: 8,
        max_depth: 4,
        tree_method: TreeMethod::Hist { max_bins: 32 },
        ..Params::regression()
    };
    let model = Booster::train(&params, &data, &labels).unwrap();
    simd::force_level(None);
    ModelArtifact::from_booster(model, None).encode().to_vec()
}

#[test]
fn wide_feature_hist_training_is_bit_identical_across_levels() {
    // 8: one full AVX2 group, AVX-512 tail only. 16: one full AVX-512
    // group, exactly two AVX2 groups. 17/21: full group(s) plus a
    // sub-group remainder on both tiers. 40: multiple full groups with
    // a mixed tail.
    for ncols in [8usize, 16, 17, 21, 40] {
        let reference = wide_train_bytes_at(SimdLevel::Scalar, ncols);
        for level in vector_levels() {
            let got = wide_train_bytes_at(level, ncols);
            assert_eq!(got, reference, "hist training diverged at {level:?}, ncols={ncols}");
        }
    }
}

#[test]
fn exact_training_is_bit_identical_across_levels() {
    let reference = train_bytes_at(SimdLevel::Scalar, true);
    for level in vector_levels() {
        let got = train_bytes_at(level, true);
        assert_eq!(got, reference, "exact training diverged at {level:?}");
    }
}
