//! Histogram fits streamed over a chunked matrix must be bitwise equal
//! to the in-memory histogram fit — for any block size, worker count
//! {1, 2, 8}, memory or spilled storage, and both objectives at
//! `subsample == 1`, and on one block at any subsample. Across several
//! blocks a subsampled fit must still be identical at every worker
//! count and store kind. This is the determinism contract `bench_scale`
//! and the population-scale pipeline rest on.

use msaw_gbdt::{
    encode_rows, predict_rows_chunked, train_chunked, train_chunked_on, Booster, ChunkError,
    ChunkedMatrix, ChunkedMatrixBuilder, CutSketch, Params, TrainError, TrainingContext,
    TreeMethod, TreeScratch,
};
use msaw_tabular::Matrix;

/// Deterministic pseudo-random row-major features with NaN missing.
fn synth_rows(nrows: usize, ncols: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(nrows * ncols);
    let mut state = 0x9e3779b97f4a7c15u64;
    for i in 0..nrows {
        for j in 0..ncols {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = if state.is_multiple_of(13) {
                f64::NAN
            } else {
                ((state >> 20) % 2000) as f64 / 16.0 - (i % 7) as f64 + j as f64 * 0.5
            };
            out.push(v);
        }
    }
    out
}

/// Labels with signal in the features (regression-ish).
fn synth_labels(rows: &[f64], nrows: usize, ncols: usize) -> Vec<f64> {
    (0..nrows)
        .map(|i| {
            let mut acc = 0.0;
            for j in 0..ncols {
                let v = rows[i * ncols + j];
                if !v.is_nan() {
                    acc += v * ((j + 1) as f64) * 0.01;
                }
            }
            acc + (i % 5) as f64 * 0.25
        })
        .collect()
}

fn hist_params() -> Params {
    Params {
        n_estimators: 12,
        max_depth: 4,
        tree_method: TreeMethod::Hist { max_bins: 16 },
        ..Params::regression()
    }
}

/// Build a chunked matrix from the same rows, via the streaming sketch.
fn chunk_matrix(rows: &[f64], ncols: usize, block_rows: usize) -> ChunkedMatrix {
    let mut sketch = CutSketch::new(ncols);
    // Feed in uneven chunks to exercise order-independence of the merge.
    for chunk in rows.chunks(37 * ncols) {
        sketch.update(chunk);
    }
    assert!(sketch.is_exact(), "test data must stay within sketch capacity");
    let mut b = ChunkedMatrixBuilder::in_memory(sketch.cuts(16), block_rows);
    b.push_encoded(&encode_rows(b.cuts(), rows)).unwrap();
    b.finish().unwrap()
}

/// Bitwise model equality: `Booster` derives `PartialEq` and no float
/// in a trained model is NaN, so `==` is exact; predictions double-pin.
fn assert_models_identical(a: &Booster, b: &Booster, probe: &Matrix, tag: &str) {
    assert_eq!(a, b, "{tag}: models differ");
    let pa = a.predict(probe);
    let pb = b.predict(probe);
    assert_eq!(pa.len(), pb.len());
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: predictions differ");
    }
}

#[test]
fn chunked_equals_in_memory_across_block_sizes_and_workers() {
    let nrows = 261;
    let ncols = 6;
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let params = hist_params();
    let reference = Booster::train(&params, &data, &labels).unwrap();

    for block_rows in [1usize, 7, 64, nrows, nrows + 100] {
        for workers in [1usize, 2, 8] {
            let mut m = chunk_matrix(&rows, ncols, block_rows);
            let report = train_chunked(&params, &mut m, &labels, workers).unwrap();
            assert_models_identical(
                &reference,
                &report.booster,
                &data,
                &format!("block_rows={block_rows} workers={workers}"),
            );
            assert_eq!(report.best_round, params.n_estimators);
            assert_eq!(report.history.len(), params.n_estimators);
        }
    }
}

#[test]
fn chunked_loss_history_matches_in_memory_fit() {
    let nrows = 150;
    let ncols = 4;
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let params = hist_params();
    let reference = Booster::train_with_eval(&params, &data, &labels, None).unwrap();

    let mut m = chunk_matrix(&rows, ncols, 32);
    let report = train_chunked(&params, &mut m, &labels, 2).unwrap();
    assert_eq!(report.history.len(), reference.history.len());
    for (a, b) in report.history.iter().zip(&reference.history) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "round {}", a.round);
        assert!(a.eval_loss.is_none());
    }
}

#[test]
fn spilled_store_trains_identically_to_memory_store() {
    let nrows = 200;
    let ncols = 5;
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let params = hist_params();
    let reference = Booster::train(&params, &data, &labels).unwrap();

    let mut sketch = CutSketch::new(ncols);
    sketch.update(&rows);
    let cuts = sketch.cuts(16);
    let path = std::env::temp_dir().join(format!("msaw_chunk_equiv_{}.mscb", std::process::id()));
    let mut b = ChunkedMatrixBuilder::spilled(cuts, 48, &path).unwrap();
    for chunk in rows.chunks(11 * ncols) {
        b.push_encoded(&encode_rows(b.cuts(), chunk)).unwrap();
    }
    // The freshly-sealed matrix must train directly (no reopen): the
    // seal path hands over its own block table.
    let mut sealed = b.finish().unwrap();
    assert!(sealed.is_spilled());
    let report = train_chunked(&params, &mut sealed, &labels, 2).unwrap();
    assert_models_identical(&reference, &report.booster, &data, "disk sealed");
    drop(sealed);

    for workers in [1usize, 2, 8] {
        let mut m = ChunkedMatrix::open(&path).unwrap();
        assert!(m.is_spilled());
        let report = train_chunked(&params, &mut m, &labels, workers).unwrap();
        assert_models_identical(&reference, &report.booster, &data, &format!("disk w={workers}"));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn subset_fit_equals_in_memory_row_view_training() {
    // The sharded grid's primitive: training on a strictly ascending
    // row subset of the chunked matrix must be bit-identical to the
    // in-memory engine's row-view fit over the same context cuts.
    let nrows = 230;
    let ncols = 5;
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let params = hist_params();
    let ctx = TrainingContext::with_max_bins(&data, 16);

    // An arbitrary ascending subset (every row i with i % 3 != 1).
    let subset: Vec<usize> = (0..nrows).filter(|i| i % 3 != 1).collect();
    let y: Vec<f64> = subset.iter().map(|&i| labels[i]).collect();
    let mut scratch = TreeScratch::new();
    let reference = Booster::train_on_rows_with(&params, &ctx, &subset, &y, &mut scratch).unwrap();

    let subset_u32: Vec<u32> = subset.iter().map(|&i| i as u32).collect();
    for block_rows in [16usize, 64, nrows] {
        for workers in [1usize, 2, 8] {
            let m = chunk_matrix(&rows, ncols, block_rows);
            let mut scratch = TreeScratch::new();
            let report =
                train_chunked_on(&params, m.view(), Some(&subset_u32), &y, workers, &mut scratch)
                    .unwrap();
            assert_models_identical(
                &reference,
                &report.booster,
                &data,
                &format!("subset block_rows={block_rows} workers={workers}"),
            );
        }
    }
}

#[test]
fn column_view_fit_ignores_columns_outside_the_view() {
    // A fit over a column-prefix view of a wide matrix must equal a
    // fit over a narrow matrix holding only those columns — the
    // economy the sharded grid's shared DD/DD+FI storage rests on.
    let nrows = 160;
    let ncols = 6;
    let keep = 4usize;
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let narrow_rows: Vec<f64> =
        (0..nrows).flat_map(|i| rows[i * ncols..i * ncols + keep].to_vec()).collect();
    let params = hist_params();

    let narrow = chunk_matrix(&narrow_rows, keep, 32);
    let mut scratch = TreeScratch::new();
    let reference =
        train_chunked_on(&params, narrow.view(), None, &labels, 1, &mut scratch).unwrap();

    let wide = chunk_matrix(&rows, ncols, 32);
    let mut scratch = TreeScratch::new();
    let report =
        train_chunked_on(&params, wide.col_view(0..keep), None, &labels, 2, &mut scratch).unwrap();
    assert_eq!(reference.booster, report.booster, "column view leaked out-of-view columns");
}

/// Spill `rows` in `block_rows`-row blocks to a per-test file and
/// reopen it.
fn spilled_matrix(rows: &[f64], ncols: usize, block_rows: usize, tag: &str) -> ChunkedMatrix {
    let mut sketch = CutSketch::new(ncols);
    sketch.update(rows);
    let path = std::env::temp_dir()
        .join(format!("msaw_chunk_eq_{tag}_{block_rows}_{}.mscb", std::process::id()));
    let mut b = ChunkedMatrixBuilder::spilled(sketch.cuts(16), block_rows, &path).unwrap();
    b.push_encoded(&encode_rows(b.cuts(), rows)).unwrap();
    b.finish().unwrap();
    ChunkedMatrix::open(&path).unwrap()
}

fn remove_spill(m: ChunkedMatrix) {
    let path = m.spill_path().expect("a spilled matrix").to_path_buf();
    drop(m);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn spilled_loading_path_never_changes_the_model() {
    // A spilled pass over several blocks prefetches block k+1 on a
    // reader thread; a pass over one block loads it serially. Both
    // read identical bytes and match the in-memory store at every
    // worker count.
    let nrows = 300;
    let ncols = 5;
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let params = hist_params();
    let reference = Booster::train(&params, &data, &labels).unwrap();

    for block_rows in [32usize, nrows] {
        let mut m = spilled_matrix(&rows, ncols, block_rows, "loading");
        assert_eq!(m.n_blocks() > 1, block_rows < nrows);
        for workers in [1usize, 2, 8] {
            let report = train_chunked(&params, &mut m, &labels, workers).unwrap();
            assert_models_identical(
                &reference,
                &report.booster,
                &data,
                &format!("workers={workers} block_rows={block_rows}"),
            );
        }
        remove_spill(m);
    }
}

#[test]
fn one_block_subsampled_fit_equals_the_in_memory_fit() {
    // On one block the passes visit the round's sample in draw order —
    // the in-memory fit's order — so row and column subsampling keep
    // every bit, in memory and spilled, at every worker count.
    let nrows = 240;
    let ncols = 6;
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let params = Params { subsample: 0.9, colsample_bytree: 0.8, ..hist_params() };
    let reference = Booster::train_with_eval(&params, &data, &labels, None).unwrap();

    let spilled = spilled_matrix(&rows, ncols, nrows, "one_block");
    for m in [&chunk_matrix(&rows, ncols, nrows), &spilled] {
        for workers in [1usize, 2, 8] {
            let mut scratch = TreeScratch::new();
            let report =
                train_chunked_on(&params, m.view(), None, &labels, workers, &mut scratch).unwrap();
            let tag = format!("spilled={} workers={workers}", m.is_spilled());
            assert_models_identical(&reference.booster, &report.booster, &data, &tag);
            assert_eq!(report.history, reference.history, "{tag}");
        }
    }
    remove_spill(spilled);
}

#[test]
fn multi_block_subsampled_fits_agree_at_every_worker_count_and_store() {
    // Across blocks the per-cell order is block-major: not the
    // one-block order, but the same at any worker count, in memory or
    // spilled.
    let nrows = 260;
    let ncols = 6;
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let params = Params { subsample: 0.7, colsample_bytree: 0.8, ..hist_params() };
    let subset: Vec<u32> = (0..nrows as u32).filter(|i| i % 5 != 3).collect();
    let y: Vec<f64> = subset.iter().map(|&i| labels[i as usize]).collect();

    let memory = chunk_matrix(&rows, ncols, 48);
    let mut scratch = TreeScratch::new();
    let reference =
        train_chunked_on(&params, memory.view(), Some(&subset), &y, 1, &mut scratch).unwrap();
    let spilled = spilled_matrix(&rows, ncols, 48, "multi_block");
    for m in [&memory, &spilled] {
        for workers in [1usize, 2, 8] {
            let report =
                train_chunked_on(&params, m.view(), Some(&subset), &y, workers, &mut scratch)
                    .unwrap();
            let tag = format!("spilled={} workers={workers}", m.is_spilled());
            assert_models_identical(&reference.booster, &report.booster, &data, &tag);
        }
    }
    remove_spill(spilled);
}

#[test]
fn chunked_predictions_equal_the_flat_forest() {
    // predict_rows_chunked walks bin codes; the flat forest walks raw
    // values. Same trees, same rows — the transformed outputs must be
    // bit-identical, in memory and spilled, prefetched (several blocks)
    // or loaded serially (one block).
    let nrows = 240;
    let ncols = 5;
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let params = hist_params();
    let model = Booster::train(&params, &data, &labels).unwrap();

    let subset: Vec<usize> = (0..nrows).filter(|i| i % 4 != 2).collect();
    let reference = model.flat_forest().predict_rows_on(1, &data, &subset);
    let subset_u32: Vec<u32> = subset.iter().map(|&i| i as u32).collect();

    let assert_preds = |m: &ChunkedMatrix, tag: &str| {
        let mut bufs = Vec::new();
        let preds = predict_rows_chunked(&model, m.view(), &subset_u32, &mut bufs).unwrap();
        assert_eq!(preds.len(), reference.len(), "{tag}");
        for (a, b) in preds.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: prediction bits differ");
        }
    };

    assert_preds(&chunk_matrix(&rows, ncols, 48), "memory");

    for block_rows in [48usize, nrows] {
        let m = spilled_matrix(&rows, ncols, block_rows, "predict");
        assert_preds(&m, &format!("disk block_rows={block_rows}"));
        remove_spill(m);
    }
}

#[test]
fn unsorted_or_out_of_range_prediction_rows_are_typed_errors() {
    // 40 rows in 16-row blocks. Each bad input steps back a block or
    // leaves the matrix, and its per-block counts sum to its length,
    // so only an explicit order check can catch it.
    let (nrows, ncols) = (40, 3);
    let rows = synth_rows(nrows, ncols);
    let labels = synth_labels(&rows, nrows, ncols);
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let model = Booster::train(&hist_params(), &data, &labels).unwrap();
    let m = chunk_matrix(&rows, ncols, 16);
    let mut bufs = Vec::new();
    for bad in [&[17u32, 0][..], &[20, 3, 30], &[5, 40]] {
        match predict_rows_chunked(&model, m.view(), bad, &mut bufs) {
            Err(ChunkError::Train(TrainError::InvalidParam { name: "rows", .. })) => {}
            other => panic!("rows {bad:?}: expected a typed rows error, got {other:?}"),
        }
    }
    // An ascending subset — or any order and repeats within a block —
    // still predicts bit-identically to the flat forest over the raw
    // rows, in input order.
    for subset in [vec![0usize, 3, 15, 16, 17, 30, 39], vec![3, 0, 15, 3, 20, 16, 39, 33]] {
        let subset_u32: Vec<u32> = subset.iter().map(|&i| i as u32).collect();
        let got = predict_rows_chunked(&model, m.view(), &subset_u32, &mut bufs).unwrap();
        let want = model.flat_forest().predict_rows(&data, &subset);
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "rows {subset:?}: prediction bits differ");
        }
    }
}

#[test]
fn logistic_objective_is_also_bit_identical() {
    let nrows = 180;
    let ncols = 4;
    let rows = synth_rows(nrows, ncols);
    let reg_labels = synth_labels(&rows, nrows, ncols);
    let median = {
        let mut s = reg_labels.clone();
        s.sort_by(f64::total_cmp);
        s[nrows / 2]
    };
    let labels: Vec<f64> = reg_labels.iter().map(|&v| if v > median { 1.0 } else { 0.0 }).collect();
    let data = Matrix::from_vec(rows.clone(), nrows, ncols);
    let params = Params {
        n_estimators: 10,
        max_depth: 3,
        tree_method: TreeMethod::Hist { max_bins: 16 },
        ..Params::binary(3.0)
    };
    let reference = Booster::train(&params, &data, &labels).unwrap();
    for block_rows in [13usize, 96] {
        let mut m = chunk_matrix(&rows, ncols, block_rows);
        let report = train_chunked(&params, &mut m, &labels, 4).unwrap();
        assert_models_identical(
            &reference,
            &report.booster,
            &data,
            &format!("logistic block_rows={block_rows}"),
        );
    }
}
