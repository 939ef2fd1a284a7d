//! Bit-level fingerprints of the two streaming pipelines' outputs.
//!
//! `run_scale` and the sharded grid are otherwise checked only against
//! themselves (worker-count and store invariance within one build) or,
//! in the exact-sketch regime without row subsampling, against the
//! in-memory grid. These constants pin what they write and what they
//! return across changes to the code behind them: the spilled `.mscb`
//! bytes (FNV-1a), `run_scale`'s per-round losses, and the `Debug` text
//! of a multi-block, subsampled, spilled sharded grid. A refactor of
//! either pipeline, its spill writer or the fit runner underneath is
//! allowed only if every constant stays put.

use msaw_cohort::CohortConfig;
use msaw_core::scale::{run_scale, ScaleConfig};
use msaw_core::{try_run_full_grid_chunked, ChunkedGridConfig, ExperimentConfig};
use msaw_gbdt::{fnv1a_64, EvalRecord, TreeMethod};
use msaw_preprocess::OutcomeKind;
use std::path::{Path, PathBuf};

/// A fresh directory per test, removed again on success.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msaw_spill_fp_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Length and FNV-1a of a file's bytes.
fn file_fingerprint(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), fnv1a_64(&bytes))
}

/// FNV-1a over every history entry's round and training-loss bits.
fn history_fingerprint(history: &[EvalRecord]) -> u64 {
    let mut bytes = Vec::with_capacity(history.len() * 16);
    for rec in history {
        bytes.extend_from_slice(&(rec.round as u64).to_le_bytes());
        bytes.extend_from_slice(&rec.train_loss.to_bits().to_le_bytes());
    }
    fnv1a_64(&bytes)
}

#[test]
fn run_scale_spill_and_losses_match_their_fingerprints() {
    let dir = scratch_dir("scale");
    let path = dir.join("scale.mscb");
    let mut cfg = ScaleConfig::new(OutcomeKind::Sppb);
    cfg.params.n_estimators = 3;
    cfg.chunk_patients = 64;
    cfg.block_rows = 500;
    cfg.spill_path = Some(path.clone());
    let report = run_scale(&CohortConfig::scaled(21, 300), &cfg).unwrap();
    assert!(report.spilled);
    assert_eq!(report.n_rows, 2925);
    assert_eq!(report.train.history.len(), 3);
    assert_eq!(file_fingerprint(&path), (360_124, 0xa6bf_d82c_6847_8ee7));
    assert_eq!(history_fingerprint(&report.train.history), 0xe223_bc36_c884_10c7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_grid_spills_and_results_match_their_fingerprints() {
    let dir = scratch_dir("grid");
    let mut exp = ExperimentConfig::fast();
    for params in [&mut exp.regression_params, &mut exp.classification_params] {
        params.tree_method = TreeMethod::Hist { max_bins: 16 };
        params.n_estimators = 12;
        params.subsample = 0.9;
        params.colsample_bytree = 0.8;
    }
    exp.canonical_row_order = true;
    exp.auto_balance_falls = true;
    let mut cfg = ChunkedGridConfig::new(exp);
    cfg.chunk_patients = 5;
    cfg.block_rows = 64;
    cfg.spill_dir = Some(dir.clone());
    cfg.workers = 2;
    let report = try_run_full_grid_chunked(&CohortConfig::small(7), &cfg).unwrap();
    assert!(report.spilled);
    assert!(report.n_rows > 2 * cfg.block_rows, "the grid must span several blocks");
    assert_eq!(report.results.len(), 12);
    assert_eq!(file_fingerprint(&dir.join("grid_dd_fi.mscb")), (66_730, 0x77cd_9bf9_821c_d057));
    assert_eq!(file_fingerprint(&dir.join("grid_kd_fi.mscb")), (2_350, 0xea67_42eb_2cd8_a713));
    let results = format!("{:?}", report.results);
    assert_eq!(fnv1a_64(results.as_bytes()), 0xe61f_4e88_c6e6_1da5);
    let _ = std::fs::remove_dir_all(&dir);
}
