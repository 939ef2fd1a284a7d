//! The 12-model grid, sharded out of core: every `(outcome, variant)`
//! fit of [`crate::grid::try_run_full_grid_on`] driven through the
//! chunked trainer over spillable bin-coded matrices, so the grid runs
//! on cohorts whose feature matrices never fit in RAM.
//!
//! The cohort streams through [`crate::scale`]'s two-pass streaming
//! routine, which generates every patient once, into two matrices: the *extended*
//! 60-column DD⁺FI matrix (the 59 DD features plus the window-baseline
//! FI) and the 2-column KD⁺FI matrix (`[ici, fi]`), with the three
//! outcomes' labels and per-row patient ids collected in chunk order.
//! Pass 1 ranks and sketches each chunk; pass 2 remaps the ranks into
//! bin codes, in memory or spilled, without generating again. The four
//! variants are *column views* of the two matrices — DD is columns
//! `0..59`, KD is column `0` — so each distinct column is sketched and
//! encoded exactly once, the out-of-core mirror of the in-memory grid's
//! [`msaw_gbdt::ContextCache`].
//!
//! The twelve variants then become experiment-layer [`VariantPlan`]s
//! over those views, and the in-memory grid's pool runs their ~72
//! fold/final fits through the one fit runner,
//! [`crate::experiment::try_run_fit_job_with`], with the same
//! `grid_fit` failpoint and error contract: each fit trains out of core
//! on its ascending row subset and predicts on the stored codes, with
//! the protocol's own row and column subsampling.
//!
//! Under `canonical_row_order` (which this path requires) and an exact
//! cut sketch, the twelve [`VariantResult`]s are bit-identical to
//! [`crate::grid::try_run_full_grid_on`] on the materialised cohort
//! when the protocol does not subsample rows, or when one block holds
//! every row. A subsampled grid over several blocks adds each
//! histogram cell block-major: deterministic at every worker count and
//! store kind, but not the in-memory bits. The tests below pin all
//! three.

use crate::config::ExperimentConfig;
use crate::error::PipelineError;
use crate::experiment::{plan_views, Approach, VariantPlan, VariantResult};
use crate::grid::try_run_plans_on;
use crate::scale::{stream, Passes, Streamed};
use msaw_cohort::stream::CohortStream;
use msaw_cohort::CohortConfig;
use msaw_gbdt::{TreeMethod, DEFAULT_BLOCK_ROWS, DEFAULT_SKETCH_DISTINCT};
use msaw_kd::{compute_ici_row, default_ici_spec, frailty_index, IciVariable};
use msaw_preprocess::{
    label_of, patient_samples, FeaturePanel, OutcomeKind, PipelineConfig, N_FEATURES,
};
use std::path::PathBuf;

/// Configuration of a sharded chunked grid run.
#[derive(Debug, Clone)]
pub struct ChunkedGridConfig {
    /// The experiment protocol. Must be stream-compatible: histogram
    /// tree method (same `max_bins` for both parameter sets) and
    /// `canonical_row_order` set.
    pub experiment: ExperimentConfig,
    /// Patients generated/featurized per work unit.
    pub chunk_patients: usize,
    /// Rows per binned block of the chunked matrices.
    pub block_rows: usize,
    /// Spill directory for the two bin-coded matrices (`grid_dd_fi.mscb`
    /// and `grid_kd_fi.mscb`, each with a rank file beside it while
    /// the matrices stream); `None` keeps both in memory. A successful
    /// run leaves the two matrices on disk for the caller to inspect or
    /// remove; a failed one leaves nothing.
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
    }
    Ok(bins.expect("two parameter sets were checked"))
}

/// Run the full 12-model grid out of core over a streamed cohort. See
/// the module docs for the pass structure; while the cut sketches stay
/// exact, results are bit-identical to
/// [`crate::grid::try_run_full_grid_on`] on the materialised cohort
/// without row subsampling or on one block.
pub fn try_run_full_grid_chunked(
    cohort: &CohortConfig,
    cfg: &ChunkedGridConfig,
) -> Result<ChunkedGridReport, PipelineError> {
    let max_bins = validate_config(cfg)?;
    let exp = &cfg.experiment;
    let n_features = N_FEATURES;
    let spec = default_ici_spec();
    let names = FeaturePanel::feature_names();
    let positions: Vec<Option<usize>> =
        spec.iter().map(|v| names.iter().position(|n| n == &v.feature)).collect();

    let n_patients = cohort.total_patients();
    let chunk_patients = cfg.chunk_patients.max(1);
    let spill = |file: &str| cfg.spill_dir.as_ref().map(|dir| dir.join(file));
    let passes = Passes {
        n_patients,
        chunk_patients,
        workers: if cfg.workers == 0 {
            msaw_parallel::default_workers(n_patients.div_ceil(chunk_patients))
        } else {
            cfg.workers
        },
        max_bins,
        sketch_capacity: DEFAULT_SKETCH_DISTINCT,
        block_rows: cfg.block_rows,
        matrices: [(n_features + 1, spill("grid_dd_fi.mscb")), (2, spill("grid_kd_fi.mscb"))],
    };
    let mut labels: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut patients: Vec<u64> = Vec::new();
    let Streamed { matrices: [matrix_dd, matrix_kd], sketch_exact, spills, .. } = stream(
        &passes,
        |start, end| {
            let block = extended_block(cohort, &exp.pipeline, &spec, &positions, start, end);
            ([block.rows_dd, block.rows_kd], (block.labels, block.patients))
        },
        |(chunk_labels, chunk_patients)| {
            for (all, part) in labels.iter_mut().zip(chunk_labels) {
                all.extend(part);
            }
            patients.extend(chunk_patients);
        },
    )?;
    let n_rows = labels[0].len();
    if n_rows == 0 {
        return Err(PipelineError::EmptySampleSet);
    }
    let spilled = matrix_dd.is_spilled();

    // The twelve variants in canonical order, each a column view of one
    // of the two sealed matrices; an outcome's four share one split.
    let plans: Vec<VariantPlan<'_>> = OutcomeKind::ALL
        .iter()
        .zip(&labels)
        .flat_map(|(&outcome, labels)| {
            plan_views(
                outcome,
                labels,
                &patients,
                exp,
                [
                    (Approach::KnowledgeDriven, false, matrix_kd.col_view(0..1)),
                    (Approach::KnowledgeDriven, true, matrix_kd.view()),
                    (Approach::DataDriven, false, matrix_dd.col_view(0..n_features)),
                    (Approach::DataDriven, true, matrix_dd.view()),
                ],
            )
        })
        .collect();
    let results = try_run_plans_on(cfg.workers, &plans, exp)?;
    spills.keep();
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
    }

    /// The paper's own protocol: `fast()`'s subsample 0.9 and colsample
    /// 0.8 on the histogram method, canonical row order.
    fn subsampled_cfg() -> ExperimentConfig {
        let mut cfg = stream_cfg();
        for params in [&mut cfg.regression_params, &mut cfg.classification_params] {
            params.n_estimators = 12;
            params.subsample = 0.9;
            params.colsample_bytree = 0.8;
        }
        cfg
    }

    #[test]
    fn one_block_subsampled_grid_matches_in_memory_grid_bit_for_bit() {
        // One block holds every row, so each fit visits its row sample
        // in draw order, exactly as the in-memory fit does.
        let cohort = CohortConfig::small(42);
        let exp = subsampled_cfg();
        let reference = try_run_full_grid_on(1, &generate(&cohort), &exp).unwrap();
        let mut cfg = ChunkedGridConfig::new(exp);
        cfg.chunk_patients = 7;
        cfg.block_rows = data_rows(&cohort, &cfg.experiment);
        let report = try_run_full_grid_chunked(&cohort, &cfg).unwrap();
        assert!(report.sketch_exact);
        assert_results_identical(&report.results, &reference);
    }

    #[test]
    fn multi_block_subsampled_grid_is_identical_at_every_worker_count_and_store() {
        let cohort = CohortConfig::small(7);
        let mut cfg = ChunkedGridConfig::new(subsampled_cfg());
        cfg.chunk_patients = 5;
        cfg.block_rows = 64;
        cfg.workers = 1;
        let reference = try_run_full_grid_chunked(&cohort, &cfg).unwrap();
        assert!(reference.n_rows > 2 * cfg.block_rows, "the grid must span several blocks");

        let dir = std::env::temp_dir().join(format!("msaw_grid_sub_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for workers in [1usize, 2, 8] {
            for spill in [false, true] {
                let mut run_cfg = cfg.clone();
                run_cfg.workers = workers;
                run_cfg.spill_dir = spill.then(|| dir.clone());
                let report = try_run_full_grid_chunked(&cohort, &run_cfg).unwrap();
                assert_eq!(report.spilled, spill);
                assert_results_identical(&report.results, &reference.results);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_config_knobs_are_sane() {
        let cfg = ChunkedGridConfig::new(ExperimentConfig::fast());
        assert!(cfg.chunk_patients > 0);
        assert_eq!(cfg.block_rows, DEFAULT_BLOCK_ROWS);
        assert!(cfg.spill_dir.is_none());
    }
}
