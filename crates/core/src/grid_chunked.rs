//! The 12-model grid, sharded out of core: every `(outcome, variant)`
//! fit of [`crate::grid::try_run_full_grid_on`] driven through the
//! chunked trainer over spillable bin-coded matrices, so the grid runs
//! on cohorts whose feature matrices never fit in RAM.
//!
//! The pipeline mirrors [`crate::scale::run_scale`]'s pass structure,
//! widened to the grid's four feature representations:
//!
//! 1. **Sketch** — patient chunks are generated and featurized across
//!    workers; each worker sketches the *extended* 60-column row
//!    (the 59 DD features plus the window-baseline FI) and the
//!    2-column KD row (`[ici, fi]`), and collects the three outcomes'
//!    labels plus per-row patient ids. Merging in chunk order keeps
//!    every artifact worker-count invariant.
//! 2. **Encode** — chunks are regenerated and bin-encoded against the
//!    shared cut tables into two [`ChunkedMatrix`]es (optionally
//!    spilled): the 60-column DD⁺FI matrix and the 2-column KD⁺FI
//!    matrix. The four variants are *column views* of these two —
//!    DD is columns `0..59`, KD is column `0` — so each distinct
//!    column is sketched and encoded exactly once, the out-of-core
//!    mirror of the in-memory grid's [`msaw_gbdt::ContextCache`].
//! 3. **Fit** — the ~72 fold/final fits are fanned across one bounded
//!    worker pool, each training via [`train_chunked_on`] on its
//!    ascending row subset and scoring via [`predict_rows_chunked`],
//!    through the same split/fold/scoring code paths as the in-memory
//!    experiment layer.
//!
//! Under `canonical_row_order` (which this path requires) and an exact
//! cut sketch, the twelve [`VariantResult`]s are bit-identical to
//! [`crate::grid::try_run_full_grid_on`] on the materialised cohort —
//! pinned by the tests below.

use crate::config::ExperimentConfig;
use crate::error::PipelineError;
use crate::experiment::{
    balanced_params, final_output_from_preds, primary_metric_from_preds, split_plan, Approach,
    FitJob, FitOutput, SplitPlan, VariantResult,
};
use msaw_cohort::stream::CohortStream;
use msaw_cohort::CohortConfig;
use msaw_gbdt::{
    encode_rows, predict_rows_chunked, train_chunked_on, ChunkError, ChunkedMatrix,
    ChunkedMatrixBuilder, ChunkedView, CutSketch, TreeMethod, TreeScratch, DEFAULT_BLOCK_ROWS,
    DEFAULT_SKETCH_DISTINCT,
};
use msaw_kd::{compute_ici_row, default_ici_spec, frailty_index, IciVariable};
use msaw_parallel::{try_run_waves_on, WaveError};
use msaw_preprocess::{
    label_of, patient_samples, FeaturePanel, OutcomeKind, PipelineConfig, N_FEATURES,
};
use std::path::PathBuf;

/// Configuration of a sharded chunked grid run.
#[derive(Debug, Clone)]
pub struct ChunkedGridConfig {
    /// The experiment protocol. Must be stream-compatible: histogram
    /// tree method (same `max_bins` for both parameter sets), no
    /// row/column subsampling, and `canonical_row_order` set.
    pub experiment: ExperimentConfig,
    /// Patients generated/featurized per work unit.
    pub chunk_patients: usize,
    /// Rows per binned block of the chunked matrices.
    pub block_rows: usize,
    /// Per-feature distinct-value capacity of the cut sketches.
    pub sketch_capacity: usize,
    /// Spill directory for the two bin-coded matrices (`grid_dd_fi.mscb`
    /// and `grid_kd_fi.mscb`); `None` keeps both in memory. Spilled
    /// files are left on disk for the caller to inspect or remove.
    pub spill_dir: Option<PathBuf>,
    /// Worker count for every stage; `0` means the default.
    pub workers: usize,
}

impl ChunkedGridConfig {
    /// A config with the default chunking knobs around `experiment`.
    pub fn new(experiment: ExperimentConfig) -> ChunkedGridConfig {
        ChunkedGridConfig {
            experiment,
            chunk_patients: 512,
            block_rows: DEFAULT_BLOCK_ROWS,
            sketch_capacity: DEFAULT_SKETCH_DISTINCT,
            spill_dir: None,
            workers: 0,
        }
    }
}

/// What a sharded grid run produced, beyond the twelve results.
#[derive(Debug, Clone)]
pub struct ChunkedGridReport {
    /// The grid results in canonical order: for each outcome of
    /// [`OutcomeKind::ALL`], the KD, KD+FI, DD, DD+FI variants.
    pub results: Vec<VariantResult>,
    /// Samples in the cohort (shared by every outcome).
    pub n_rows: usize,
    /// Whether the bin-coded matrices were spilled to disk.
    pub spilled: bool,
    /// Whether every cut sketch stayed exact — the regime where the
    /// chunked grid is bit-identical to the in-memory one.
    pub sketch_exact: bool,
}

/// One patient chunk's extended rows: the 60-column DD⁺FI row-major
/// slab, the 2-column KD⁺FI slab, per-outcome labels and patient ids.
struct ExtBlock {
    rows_dd: Vec<f64>,
    rows_kd: Vec<f64>,
    labels: [Vec<f64>; 3],
    patients: Vec<u64>,
}

/// Generate and featurize patients `start..end` into extended rows.
/// Mirrors [`crate::grid::build_variant_sets`] row for row: the DD
/// features from [`patient_samples`], the window-baseline FI from the
/// record's own month-0/month-9 assessment ([`frailty_index`]), the
/// ICI from [`compute_ici_row`] over the DD row (missing → NaN, as
/// [`msaw_kd::ici_sample_set`] encodes it), and one label per outcome
/// read off the window's outcome visit.
fn extended_block(
    cohort: &CohortConfig,
    pipeline: &PipelineConfig,
    spec: &[IciVariable],
    positions: &[Option<usize>],
    start: u32,
    end: u32,
) -> ExtBlock {
    let mut out = ExtBlock {
        rows_dd: Vec::new(),
        rows_kd: Vec::new(),
        labels: [Vec::new(), Vec::new(), Vec::new()],
        patients: Vec::new(),
    };
    for record in CohortStream::range(cohort, start, end) {
        let part = patient_samples(&record, OutcomeKind::ALL[0], pipeline);
        for i in 0..part.n_rows() {
            let row = part.row(i);
            let meta = &part.meta[i];
            // The FI of the visit that opens the sample's window —
            // month 0 for window 1, month 9 for window 2 — exactly
            // `fi_at_window_start` read off the streamed record.
            let fi_month = if meta.window == 1 { 0 } else { 9 };
            let assessment = record
                .clinical
                .iter()
                .find(|a| a.month == fi_month)
                .expect("every generated patient is assessed at months 0 and 9");
            let fi = frailty_index(&assessment.deficits);
            let ici = compute_ici_row(row, positions, spec).unwrap_or(f64::NAN);
            out.rows_dd.extend_from_slice(row);
            out.rows_dd.push(fi);
            out.rows_kd.push(ici);
            out.rows_kd.push(fi);
            let visit_month = 9 * meta.window as usize;
            let visit = record
                .outcomes
                .iter()
                .find(|o| o.month == visit_month)
                .expect("a window only emits samples when its outcome visit exists");
            for (k, &outcome) in OutcomeKind::ALL.iter().enumerate() {
                out.labels[k].push(label_of(visit, outcome));
            }
            debug_assert_eq!(
                out.labels[0].last().copied().map(f64::to_bits),
                part.labels.get(i).copied().map(f64::to_bits),
                "recomputed label must match the emitted one"
            );
            out.patients.push(meta.patient.0 as u64);
        }
    }
    out
}

/// Check the protocol is stream-compatible and return the shared
/// histogram resolution.
fn validate_config(cfg: &ChunkedGridConfig) -> Result<u16, PipelineError> {
    let invalid = |message: String| PipelineError::Chunk { message };
    if !cfg.experiment.canonical_row_order {
        return Err(invalid(
            "the chunked grid streams rows in ascending order; set canonical_row_order".into(),
        ));
    }
    let mut bins = None;
    for params in [&cfg.experiment.regression_params, &cfg.experiment.classification_params] {
        let TreeMethod::Hist { max_bins } = params.tree_method else {
            return Err(invalid("the chunked grid requires TreeMethod::Hist".into()));
        };
        if let Some(prev) = bins {
            if prev != max_bins {
                return Err(invalid(format!(
                    "the chunked grid shares one cut table; max_bins differ ({prev} vs {max_bins})"
                )));
            }
        }
        bins = Some(max_bins);
        if params.subsample < 1.0 || params.colsample_bytree < 1.0 {
            return Err(invalid("the chunked grid requires subsample and colsample == 1.0".into()));
        }
    }
    Ok(bins.expect("two parameter sets were checked"))
}

/// Run the full 12-model grid out of core over a streamed cohort. See
/// the module docs for the pass structure; results are bit-identical
/// to [`crate::grid::try_run_full_grid_on`] on the materialised cohort
/// while the cut sketches stay exact.
pub fn try_run_full_grid_chunked(
    cohort: &CohortConfig,
    cfg: &ChunkedGridConfig,
) -> Result<ChunkedGridReport, PipelineError> {
    let max_bins = validate_config(cfg)?;
    let exp = &cfg.experiment;
    let n_features = N_FEATURES;
    let dd_cols = n_features + 1;
    let spec = default_ici_spec();
    let names = FeaturePanel::feature_names();
    let positions: Vec<Option<usize>> =
        spec.iter().map(|v| names.iter().position(|n| n == &v.feature)).collect();

    let n_patients = cohort.total_patients();
    let chunk_patients = cfg.chunk_patients.max(1);
    let n_chunks = n_patients.div_ceil(chunk_patients);
    let stream_workers =
        if cfg.workers == 0 { msaw_parallel::default_workers(n_chunks) } else { cfg.workers };
    let wave = stream_workers * 2;
    let chunk_range = |c: usize| {
        let start = (c * chunk_patients) as u32;
        (start, ((c + 1) * chunk_patients).min(n_patients) as u32)
    };
    let wave_err = |e: WaveError<ChunkError>| -> PipelineError {
        match e {
            WaveError::Pool(p) => p.into(),
            WaveError::Consume(c) => c.into(),
        }
    };

    // Pass 1: sketch both representations, collect labels and patient
    // ids. Per-worker sketches merge in chunk order (order-independent
    // while exact; the merge tracks thinning past capacity).
    let mut sketch_dd = CutSketch::with_capacity(dd_cols, cfg.sketch_capacity);
    let mut sketch_kd = CutSketch::with_capacity(2, cfg.sketch_capacity);
    let mut labels: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut patients: Vec<u64> = Vec::new();
    try_run_waves_on(
        stream_workers,
        n_chunks,
        wave,
        |c| {
            let (start, end) = chunk_range(c);
            let block = extended_block(cohort, &exp.pipeline, &spec, &positions, start, end);
            let mut s_dd = CutSketch::with_capacity(dd_cols, cfg.sketch_capacity);
            s_dd.update(&block.rows_dd);
            let mut s_kd = CutSketch::with_capacity(2, cfg.sketch_capacity);
            s_kd.update(&block.rows_kd);
            (s_dd, s_kd, block.labels, block.patients)
        },
        |_, (s_dd, s_kd, chunk_labels, chunk_patients)| {
            sketch_dd.merge(&s_dd);
            sketch_kd.merge(&s_kd);
            for (all, part) in labels.iter_mut().zip(chunk_labels) {
                all.extend(part);
            }
            patients.extend(chunk_patients);
            Ok::<(), ChunkError>(())
        },
    )
    .map_err(wave_err)?;
    let n_rows = labels[0].len();
    if n_rows == 0 {
        return Err(PipelineError::EmptySampleSet);
    }
    let sketch_exact = sketch_dd.is_exact() && sketch_kd.is_exact();
    let cuts_dd = sketch_dd.cuts(max_bins);
    let cuts_kd = sketch_kd.cuts(max_bins);

    // Pass 2: regenerate and bin-encode both matrices, appending code
    // slabs in chunk order so the sealed matrices (and any spilled
    // `.mscb` files) are byte-identical at every worker count.
    let mut builder_dd = match &cfg.spill_dir {
        Some(dir) => ChunkedMatrixBuilder::spilled(
            cuts_dd.clone(),
            cfg.block_rows,
            &dir.join("grid_dd_fi.mscb"),
        )?,
        None => ChunkedMatrixBuilder::in_memory(cuts_dd.clone(), cfg.block_rows),
    };
    let mut builder_kd = match &cfg.spill_dir {
        Some(dir) => ChunkedMatrixBuilder::spilled(
            cuts_kd.clone(),
            cfg.block_rows,
            &dir.join("grid_kd_fi.mscb"),
        )?,
        None => ChunkedMatrixBuilder::in_memory(cuts_kd.clone(), cfg.block_rows),
    };
    try_run_waves_on(
        stream_workers,
        n_chunks,
        wave,
        |c| {
            let (start, end) = chunk_range(c);
            let block = extended_block(cohort, &exp.pipeline, &spec, &positions, start, end);
            (encode_rows(&cuts_dd, &block.rows_dd), encode_rows(&cuts_kd, &block.rows_kd))
        },
        |_, (codes_dd, codes_kd)| {
            builder_dd.push_encoded(&codes_dd)?;
            builder_kd.push_encoded(&codes_kd)
        },
    )
    .map_err(wave_err)?;
    let matrix_dd: ChunkedMatrix = builder_dd.finish()?;
    let matrix_kd: ChunkedMatrix = builder_kd.finish()?;
    let spilled = matrix_dd.is_spilled();

    // Freeze one split plan per outcome — identical across that
    // outcome's four variants, exactly as the in-memory grid's four
    // plans agree when rows and labels agree.
    let groups = exp.split_by_patient.then_some(patients.as_slice());
    let plans: Vec<SplitPlan> = OutcomeKind::ALL
        .iter()
        .enumerate()
        .map(|(k, &outcome)| {
            split_plan(n_rows, &labels[k], outcome.is_classification(), groups, exp)
        })
        .collect();

    // The twelve variants in canonical order, each a column view of
    // one of the two sealed matrices.
    struct Variant<'m> {
        outcome: OutcomeKind,
        outcome_idx: usize,
        approach: Approach,
        with_fi: bool,
        view: ChunkedView<'m>,
    }
    let mut variants: Vec<Variant<'_>> = Vec::with_capacity(12);
    for (k, &outcome) in OutcomeKind::ALL.iter().enumerate() {
        let spec: [(Approach, bool, ChunkedView<'_>); 4] = [
            (Approach::KnowledgeDriven, false, matrix_kd.col_view(0..1)),
            (Approach::KnowledgeDriven, true, matrix_kd.view()),
            (Approach::DataDriven, false, matrix_dd.col_view(0..n_features)),
            (Approach::DataDriven, true, matrix_dd.view()),
        ];
        for (approach, with_fi, view) in spec {
            variants.push(Variant { outcome, outcome_idx: k, approach, with_fi, view });
        }
    }

    // Fan the fold/final fits across the pool: per-worker scratch, one
    // chunked fit per job on its ascending row subset, scored through
    // the shared experiment-layer helpers.
    let jobs: Vec<(usize, FitJob)> = variants
        .iter()
        .enumerate()
        .flat_map(|(v, var)| {
            let folds = plans[var.outcome_idx].folds.len();
            (0..folds).map(FitJob::Fold).chain(std::iter::once(FitJob::Final)).map(move |j| (v, j))
        })
        .collect();
    let fit_workers =
        if cfg.workers == 0 { msaw_parallel::default_workers(jobs.len()) } else { cfg.workers };
    let results = msaw_parallel::try_run_scratch_on(
        fit_workers,
        jobs.len(),
        TreeScratch::new,
        |scratch, i| {
            let (v, job) = jobs[i];
            let var = &variants[v];
            let plan = &plans[var.outcome_idx];
            let outcome_labels = &labels[var.outcome_idx];
            let (fit_list, eval_list): (&[usize], &[usize]) = match job {
                FitJob::Fold(f) => (&plan.folds[f].0, &plan.folds[f].1),
                FitJob::Final => (&plan.train_rows, &plan.test_rows),
            };
            let y: Vec<f64> = fit_list.iter().map(|&r| outcome_labels[r]).collect();
            let base = exp.params_for(var.outcome);
            let params = if var.outcome.is_classification() && exp.auto_balance_falls {
                balanced_params(base, &y)
            } else {
                base.clone()
            };
            let fit_rows: Vec<u32> = fit_list.iter().map(|&r| r as u32).collect();
            // One worker per fit: parallelism lives in the job pool,
            // mirroring the in-memory grid's single-worker predict.
            let report = train_chunked_on(&params, var.view, Some(&fit_rows), &y, 1, scratch)?;
            let eval_rows: Vec<u32> = eval_list.iter().map(|&r| r as u32).collect();
            let mut bufs = Vec::new();
            let preds = predict_rows_chunked(&report.booster, var.view, &eval_rows, &mut bufs)?;
            let y_eval: Vec<f64> = eval_list.iter().map(|&r| outcome_labels[r]).collect();
            let is_cls = var.outcome.is_classification();
            Ok::<FitOutput, ChunkError>(match job {
                FitJob::Fold(_) => FitOutput::CvScore(primary_metric_from_preds(
                    is_cls,
                    &y_eval,
                    &preds,
                    exp.decision_threshold,
                )),
                FitJob::Final => {
                    final_output_from_preds(is_cls, &y_eval, &preds, exp.decision_threshold)
                }
            })
        },
    )?;

    // Reassemble in canonical order; the lowest failing job index wins
    // deterministically, matching the in-memory grid's error contract.
    let mut outputs: Vec<Vec<FitOutput>> = variants.iter().map(|_| Vec::new()).collect();
    for (i, (&(v, _), result)) in jobs.iter().zip(results).enumerate() {
        match result {
            Ok(out) => outputs[v].push(out),
            Err(ChunkError::Train(source)) => {
                return Err(PipelineError::Train { job: Some(i), source })
            }
            Err(other) => return Err(other.into()),
        }
    }
    let results: Vec<VariantResult> = variants
        .iter()
        .zip(outputs)
        .map(|(var, outs)| {
            let plan = &plans[var.outcome_idx];
            let mut cv_scores = Vec::with_capacity(plan.folds.len());
            let mut regression = None;
            let mut classification = None;
            for out in outs {
                match out {
                    FitOutput::CvScore(s) => cv_scores.push(s),
                    FitOutput::Final { regression: r, classification: c } => {
                        regression = r;
                        classification = c;
                    }
                }
            }
            assert_eq!(cv_scores.len(), plan.folds.len(), "one CV score per fold");
            VariantResult {
                outcome: var.outcome,
                approach: var.approach,
                with_fi: var.with_fi,
                regression,
                classification,
                cv_scores,
                n_train: plan.train_rows.len(),
                n_test: plan.test_rows.len(),
            }
        })
        .collect();

    Ok(ChunkedGridReport { results, n_rows, spilled, sketch_exact })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::try_run_full_grid_on;
    use msaw_cohort::generate;

    /// A stream-compatible protocol both grid paths accept: histogram
    /// method, no subsampling, canonical row order.
    fn stream_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::fast();
        for params in [&mut cfg.regression_params, &mut cfg.classification_params] {
            params.n_estimators = 24;
            params.tree_method = TreeMethod::Hist { max_bins: 16 };
            params.subsample = 1.0;
            params.colsample_bytree = 1.0;
        }
        cfg.canonical_row_order = true;
        cfg.auto_balance_falls = true;
        cfg
    }

    fn assert_results_identical(a: &[VariantResult], b: &[VariantResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            let tag = format!("{} {} fi={}", x.outcome.name(), x.approach.label(), x.with_fi);
            assert_eq!(x.outcome, y.outcome, "{tag}");
            assert_eq!(x.approach, y.approach, "{tag}");
            assert_eq!(x.with_fi, y.with_fi, "{tag}");
            assert_eq!(x.regression, y.regression, "{tag}");
            assert_eq!(x.classification, y.classification, "{tag}");
            assert_eq!(x.cv_scores, y.cv_scores, "{tag}");
            assert_eq!(x.n_train, y.n_train, "{tag}");
            assert_eq!(x.n_test, y.n_test, "{tag}");
        }
    }

    #[test]
    fn chunked_grid_matches_in_memory_grid_bit_for_bit() {
        let cohort = CohortConfig::small(42);
        let exp = stream_cfg();
        let data = generate(&cohort);
        let reference = try_run_full_grid_on(1, &data, &exp).unwrap();

        let mut cfg = ChunkedGridConfig::new(exp);
        cfg.chunk_patients = 7;
        cfg.block_rows = 128;
        let report = try_run_full_grid_chunked(&cohort, &cfg).unwrap();
        assert!(report.sketch_exact, "the seed cohort must stay in the exact-sketch regime");
        assert!(!report.spilled);
        assert_eq!(report.n_rows, data_rows(&cohort, &cfg.experiment));
        assert_results_identical(&report.results, &reference);
    }

    /// Row count of the materialised sample set, for cross-checking.
    fn data_rows(cohort: &CohortConfig, exp: &ExperimentConfig) -> usize {
        let data = generate(cohort);
        let panel = FeaturePanel::build(&data, &exp.pipeline);
        msaw_preprocess::build_samples(&data, &panel, OutcomeKind::ALL[0], &exp.pipeline).len()
    }

    #[test]
    fn spilled_grid_equals_the_in_memory_store_at_any_worker_count() {
        let cohort = CohortConfig::small(7);
        let mut exp = stream_cfg();
        for params in [&mut exp.regression_params, &mut exp.classification_params] {
            params.n_estimators = 8;
        }
        let mut cfg = ChunkedGridConfig::new(exp);
        cfg.chunk_patients = 5;
        cfg.block_rows = 64;
        cfg.workers = 1;
        let reference = try_run_full_grid_chunked(&cohort, &cfg).unwrap();
        assert!(!reference.spilled);

        let dir = std::env::temp_dir().join(format!("msaw_grid_spill_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for workers in [1usize, 2, 8] {
            let mut spill_cfg = cfg.clone();
            spill_cfg.spill_dir = Some(dir.clone());
            spill_cfg.workers = workers;
            let spilled = try_run_full_grid_chunked(&cohort, &spill_cfg).unwrap();
            assert!(spilled.spilled, "workers={workers}");
            assert_results_identical(&spilled.results, &reference.results);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_incompatible_protocols_are_rejected() {
        let cohort = CohortConfig::small(42);
        // Missing canonical order.
        let mut exp = stream_cfg();
        exp.canonical_row_order = false;
        let err = try_run_full_grid_chunked(&cohort, &ChunkedGridConfig::new(exp)).unwrap_err();
        assert!(err.to_string().contains("canonical_row_order"), "{err}");
        // Exact tree method.
        let mut exp = stream_cfg();
        exp.regression_params.tree_method = TreeMethod::Exact;
        let err = try_run_full_grid_chunked(&cohort, &ChunkedGridConfig::new(exp)).unwrap_err();
        assert!(err.to_string().contains("Hist"), "{err}");
        // Mismatched histogram resolutions.
        let mut exp = stream_cfg();
        exp.classification_params.tree_method = TreeMethod::Hist { max_bins: 32 };
        let err = try_run_full_grid_chunked(&cohort, &ChunkedGridConfig::new(exp)).unwrap_err();
        assert!(err.to_string().contains("max_bins"), "{err}");
        // Row subsampling.
        let mut exp = stream_cfg();
        exp.regression_params.subsample = 0.9;
        let err = try_run_full_grid_chunked(&cohort, &ChunkedGridConfig::new(exp)).unwrap_err();
        assert!(err.to_string().contains("subsample"), "{err}");
    }

    #[test]
    fn default_config_knobs_are_sane() {
        let cfg = ChunkedGridConfig::new(ExperimentConfig::fast());
        assert!(cfg.chunk_patients > 0);
        assert_eq!(cfg.block_rows, DEFAULT_BLOCK_ROWS);
        assert_eq!(cfg.sketch_capacity, DEFAULT_SKETCH_DISTINCT);
        assert!(cfg.spill_dir.is_none());
    }
}
