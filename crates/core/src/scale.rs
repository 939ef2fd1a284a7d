//! Population-scale streaming pipeline: generate → featurize → bin →
//! train, with memory bounded by chunk sizes rather than cohort size.
//!
//! The paper's cohort is 261 patients; this module answers "what if it
//! were a million". It composes the streaming layers end to end, with
//! every stage fanned across the worker pool:
//!
//! 1. **Sketch pass** — patient chunks are regenerated and featurized
//!    in parallel ([`range_samples`] is pure in `(config, id range)`),
//!    each worker building a private [`CutSketch`]; the main thread
//!    merges sketches and appends labels strictly in chunk order, so
//!    the cut table is byte-identical at any worker count.
//! 2. **Encode pass** — workers regenerate their chunks (generation is
//!    deterministic, so the rows are bit-identical) and bin-encode
//!    them against the shared cut table; the main thread appends the
//!    code slabs in chunk order into a [`ChunkedMatrixBuilder`]:
//!    fixed-size row blocks of binned `u16` codes, in memory or
//!    spilled to a checksummed columnar file whose bytes never depend
//!    on the worker count.
//! 3. **Fit** — [`train_chunked`] streams the row blocks through
//!    histogram training — prefetching spilled blocks so decode
//!    overlaps compute — bit-identical to the in-memory
//!    [`msaw_gbdt::Booster::train`] hist path (pinned by tests here and
//!    in `msaw-gbdt`).
//!
//! Peak memory is `O(chunk_patients + block_rows + labels)`, so the
//! only term growing with cohort size is the label vector (8 bytes per
//! sample) — the 100× larger code matrix lives on disk when spilled.

use crate::error::PipelineError;
use msaw_cohort::CohortConfig;
use msaw_gbdt::{
    encode_rows, train_chunked, ChunkError, ChunkedMatrixBuilder, CutSketch, Params, TrainError,
    TrainReport, TreeMethod,
};
use msaw_parallel::{try_run_waves_on, WaveError};
use msaw_preprocess::{range_samples, OutcomeKind, PipelineConfig, N_FEATURES};
use std::path::PathBuf;
use std::time::Instant;

/// How a [`run_scale`] invocation should stream and train.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Outcome to label and train on.
    pub outcome: OutcomeKind,
    /// Featurization settings (QA gaps, windows, …).
    pub pipeline: PipelineConfig,
    /// Training hyper-parameters; must use [`TreeMethod::Hist`]
    /// (the exact method cannot stream).
    pub params: Params,
    /// Patients generated and featurized per streaming chunk.
    pub chunk_patients: usize,
    /// Rows per binned block in the chunked matrix.
    pub block_rows: usize,
    /// Per-feature distinct-value capacity of the cut sketch.
    pub sketch_capacity: usize,
    /// Spill the binned blocks to this file instead of holding them in
    /// memory. `None` keeps them resident (fine below ~10⁵ patients).
    pub spill_path: Option<PathBuf>,
    /// Worker threads for histogram accumulation during the fit.
    pub workers: usize,
}

impl ScaleConfig {
    /// Defaults tuned for the scaling bench: modest forest, bounded
    /// chunks, in-memory blocks.
    pub fn new(outcome: OutcomeKind) -> ScaleConfig {
        ScaleConfig {
            outcome,
            pipeline: PipelineConfig::default(),
            params: Params {
                n_estimators: 20,
                max_depth: 4,
                tree_method: TreeMethod::Hist { max_bins: 32 },
                ..Params::regression()
            },
            chunk_patients: 2048,
            block_rows: msaw_gbdt::DEFAULT_BLOCK_ROWS,
            sketch_capacity: msaw_gbdt::DEFAULT_SKETCH_DISTINCT,
            spill_path: None,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// What a [`run_scale`] run did, with per-stage wall times for the
/// scaling curves.
#[derive(Debug)]
pub struct ScaleReport {
    /// Patients generated.
    pub n_patients: usize,
    /// QA-passing samples (training rows).
    pub n_rows: usize,
    /// Feature count.
    pub n_features: usize,
    /// Whether the binned blocks were spilled to disk.
    pub spilled: bool,
    /// Whether the cut sketch stayed exact (no thinning).
    pub sketch_exact: bool,
    /// Wall time of the sketch pass (generate + featurize + sketch).
    pub sketch_secs: f64,
    /// Wall time of the encode pass (regenerate + bin + store).
    pub encode_secs: f64,
    /// Wall time of the chunked fit.
    pub fit_secs: f64,
    /// Fit throughput, rows × trees per second of fit wall time.
    pub fit_rows_per_sec: f64,
    /// Peak resident set size of the process so far, if the platform
    /// exposes it (Linux `VmHWM`). Monotonic across a process, so
    /// ascending-scale sweeps attribute it to the largest run.
    pub peak_rss_mb: Option<f64>,
    /// The trained model and its loss history.
    pub train: TrainReport,
}

/// Run the streaming generate → sketch → encode → fit pipeline for
/// `cohort` under `cfg`. See the module docs for the pass structure;
/// the trained model is bit-identical to materialising the cohort and
/// calling [`msaw_gbdt::Booster::train`] with the same parameters
/// (while the sketch stays exact, which it does by a wide margin for
/// this feature panel).
pub fn run_scale(cohort: &CohortConfig, cfg: &ScaleConfig) -> Result<ScaleReport, PipelineError> {
    let n_features = N_FEATURES;
    let workers = cfg.workers.max(1);
    let chunk_patients = cfg.chunk_patients.max(1);
    let n_patients = cohort.total_patients();
    let n_chunks = n_patients.div_ceil(chunk_patients);
    // Bounded fan-out: at most one wave of chunk outputs (two per
    // worker, so the pool stays fed while one drains) is resident;
    // merging strictly in chunk order keeps every artifact
    // byte-identical at any worker count.
    let wave = workers * 2;
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

    // Reject parameters the fit would reject before streaming a single
    // patient: at population scale both passes take minutes.
    let TreeMethod::Hist { max_bins } = cfg.params.tree_method else {
        return Err(PipelineError::Train {
            job: None,
            source: TrainError::InvalidParam {
                name: "tree_method",
                message: "the scale pipeline streams histograms; use TreeMethod::Hist".into(),
            },
        });
    };
    cfg.params.validate()?;

    // Pass 1: sketch cuts and collect labels. Each worker sketches its
    // chunk into a private sketch; the fold merges them in chunk order
    // (distinct-set unions, order-independent while exact — the merge
    // also tracks thinning so `sketch_exact` stays truthful).
    let sketch_start = Instant::now();
    let mut sketch = CutSketch::with_capacity(n_features, cfg.sketch_capacity);
    let mut labels: Vec<f64> = Vec::new();
    try_run_waves_on(
        workers,
        n_chunks,
        wave,
        |c| {
            let (start, end) = chunk_range(c);
            let block = range_samples(cohort, cfg.outcome, &cfg.pipeline, start, end);
            let mut part = CutSketch::with_capacity(n_features, cfg.sketch_capacity);
            part.update(&block.rows);
            (part, block.labels)
        },
        |_, (part, chunk_labels)| {
            sketch.merge(&part);
            labels.extend(chunk_labels);
            Ok::<(), ChunkError>(())
        },
    )
    .map_err(wave_err)?;
    let sketch_exact = sketch.is_exact();
    let cuts = sketch.cuts(max_bins);
    let sketch_secs = sketch_start.elapsed().as_secs_f64();

    // Pass 2: regenerate and encode into fixed-size binned blocks.
    // Workers regenerate + bin-encode their chunks against the shared
    // cut table; the fold appends code slabs in chunk order, so the
    // sealed matrix (and a spilled `.mscb` file) is byte-identical to
    // the serial build.
    let encode_start = Instant::now();
    let mut builder = match &cfg.spill_path {
        Some(path) => ChunkedMatrixBuilder::spilled(cuts.clone(), cfg.block_rows, path)?,
        None => ChunkedMatrixBuilder::in_memory(cuts.clone(), cfg.block_rows),
    };
    try_run_waves_on(
        workers,
        n_chunks,
        wave,
        |c| {
            let (start, end) = chunk_range(c);
            let block = range_samples(cohort, cfg.outcome, &cfg.pipeline, start, end);
            encode_rows(&cuts, &block.rows)
        },
        |_, codes| builder.push_encoded(&codes),
    )
    .map_err(wave_err)?;
    let mut matrix = builder.finish()?;
    let encode_secs = encode_start.elapsed().as_secs_f64();
    // Sample the high-water mark after the seal so the reported RSS
    // covers the encode pass's peak (sampling only at the end raced
    // the kernel's accounting of the builder teardown).
    let rss_after_seal = peak_rss_mb();

    // Pass 3: out-of-core fit over the row blocks.
    let fit_start = Instant::now();
    let train = train_chunked(&cfg.params, &mut matrix, &labels, workers)?;
    let fit_secs = fit_start.elapsed().as_secs_f64();
    let n_rows = labels.len();
    let fit_rows_per_sec = if fit_secs > 0.0 {
        n_rows as f64 * cfg.params.n_estimators as f64 / fit_secs
    } else {
        0.0
    };

    Ok(ScaleReport {
        n_patients,
        n_rows,
        n_features,
        spilled: matrix.is_spilled(),
        sketch_exact,
        sketch_secs,
        encode_secs,
        fit_secs,
        fit_rows_per_sec,
        peak_rss_mb: match (rss_after_seal, peak_rss_mb()) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        },
        train,
    })
}

/// Peak resident set size of this process in MiB, from Linux's
/// `/proc/self/status` `VmHWM` line; `None` where that is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaw_gbdt::{Booster, DEFAULT_SKETCH_DISTINCT};
    use msaw_preprocess::{build_samples, FeaturePanel};
    use proptest::prelude::*;

    /// The streamed, chunked, out-of-core run must train the same model
    /// — bit for bit — as materialising the cohort and fitting in
    /// memory, for both storage modes.
    #[test]
    fn scale_run_matches_in_memory_training() {
        let cohort = CohortConfig::small(42);
        let mut cfg = ScaleConfig::new(OutcomeKind::Qol);
        cfg.params.n_estimators = 8;
        cfg.chunk_patients = 5;
        cfg.block_rows = 64;
        cfg.workers = 4;

        let data = msaw_cohort::generate(&cohort);
        let panel = FeaturePanel::build(&data, &cfg.pipeline);
        let set = build_samples(&data, &panel, OutcomeKind::Qol, &cfg.pipeline);
        let reference = Booster::train(&cfg.params, &set.features, &set.labels).unwrap();

        let report = run_scale(&cohort, &cfg).unwrap();
        assert_eq!(report.n_rows, set.len());
        assert_eq!(report.n_features, set.features.ncols());
        assert!(report.sketch_exact);
        assert!(!report.spilled);
        assert_eq!(report.train.booster, reference);

        let spill =
            std::env::temp_dir().join(format!("msaw_scale_test_{}.mscb", std::process::id()));
        cfg.spill_path = Some(spill.clone());
        let spilled = run_scale(&cohort, &cfg).unwrap();
        assert!(spilled.spilled);
        assert_eq!(spilled.train.booster, reference);
        let _ = std::fs::remove_file(&spill);
    }

    /// The parallel fan-out merges strictly in chunk order, so sketch,
    /// encode and fit are worker-count invariant — same model bits at
    /// 1, 2 and 8 workers, and a spilled run writes byte-identical
    /// `.mscb` files whatever the worker count.
    #[test]
    fn worker_count_never_changes_the_model_or_the_spill_bytes() {
        let cohort = CohortConfig::small(42);
        let mut cfg = ScaleConfig::new(OutcomeKind::Sppb);
        cfg.params.n_estimators = 6;
        cfg.chunk_patients = 7;
        cfg.block_rows = 128;
        cfg.workers = 1;
        let spill_of = |w: usize| {
            std::env::temp_dir().join(format!("msaw_scale_workers_{}_{w}.mscb", std::process::id()))
        };
        cfg.spill_path = Some(spill_of(1));
        let base = run_scale(&cohort, &cfg).unwrap();
        let base_bytes = std::fs::read(spill_of(1)).unwrap();
        for workers in [2usize, 8] {
            cfg.workers = workers;
            cfg.spill_path = Some(spill_of(workers));
            let got = run_scale(&cohort, &cfg).unwrap();
            assert_eq!(got.train.booster, base.train.booster, "workers={workers}");
            assert_eq!(got.n_rows, base.n_rows);
            let bytes = std::fs::read(spill_of(workers)).unwrap();
            assert_eq!(bytes, base_bytes, "spill bytes differ at workers={workers}");
        }
        for w in [1usize, 2, 8] {
            let _ = std::fs::remove_file(spill_of(w));
        }
    }

    /// Chunk size shapes the fan-out's work units, not its results:
    /// sketch cuts, labels and the trained model are identical for any
    /// `(chunk_patients, workers)` pairing — the two knobs the
    /// parallel passes expose must both be inert.
    #[test]
    fn chunk_size_and_worker_count_are_jointly_inert() {
        let cohort = CohortConfig::small(42);
        let n = cohort.total_patients();
        let mut cfg = ScaleConfig::new(OutcomeKind::Qol);
        cfg.params.n_estimators = 3;
        cfg.block_rows = 64;
        cfg.chunk_patients = 1;
        cfg.workers = 1;
        let base = run_scale(&cohort, &cfg).unwrap();
        for chunk_patients in [3usize, 7, 16, n, n + 9] {
            for workers in [1usize, 2, 8] {
                cfg.chunk_patients = chunk_patients;
                cfg.workers = workers;
                let got = run_scale(&cohort, &cfg).unwrap();
                assert_eq!(
                    got.train.booster, base.train.booster,
                    "chunk_patients={chunk_patients} workers={workers}"
                );
                assert_eq!(got.n_rows, base.n_rows);
            }
        }
    }

    #[test]
    fn exact_method_is_rejected_with_a_typed_error() {
        let cohort = CohortConfig::small(7);
        let mut cfg = ScaleConfig::new(OutcomeKind::Qol);
        cfg.params.tree_method = TreeMethod::Exact;
        match run_scale(&cohort, &cfg) {
            Err(PipelineError::Train {
                source: msaw_gbdt::TrainError::InvalidParam { name: "tree_method", .. },
                ..
            }) => {}
            other => panic!("expected InvalidParam, got {other:?}"),
        }
    }

    #[test]
    fn bad_parameters_fail_before_streaming_and_leave_no_spill() {
        let cohort = CohortConfig::small(7);
        let spill =
            std::env::temp_dir().join(format!("msaw_scale_bad_params_{}.mscb", std::process::id()));
        let _ = std::fs::remove_file(&spill);
        let mut zero_trees = ScaleConfig::new(OutcomeKind::Qol);
        zero_trees.params.n_estimators = 0;
        let mut exact = ScaleConfig::new(OutcomeKind::Qol);
        exact.params.tree_method = TreeMethod::Exact;
        for (mut cfg, name) in [(zero_trees, "n_estimators"), (exact, "tree_method")] {
            cfg.spill_path = Some(spill.clone());
            match run_scale(&cohort, &cfg) {
                Err(PipelineError::Train {
                    job: None,
                    source: TrainError::InvalidParam { name: got, .. },
                }) => assert_eq!(got, name),
                other => panic!("expected InvalidParam {{ name: {name:?} }}, got {other:?}"),
            }
            assert!(!spill.exists(), "{name}: a rejected run wrote {}", spill.display());
        }
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_mb().expect("VmHWM available");
            assert!(rss > 1.0, "a test process uses more than 1 MiB, got {rss}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Pass-1 fan-out property: for *arbitrary* chunk sizes and
        /// worker counts, the chunk-order merge of per-worker sketches
        /// and label buffers is byte-equal to one serial pass over the
        /// whole cohort — cuts (bitwise), labels (bitwise), exactness.
        #[test]
        fn parallel_sketch_equals_serial_sketch(
            chunk_patients in 1usize..70,
            workers in 1usize..9,
        ) {
            let cohort = CohortConfig::small(42);
            let pipeline = PipelineConfig::default();
            let n_features = N_FEATURES;
            let n_patients = cohort.total_patients();

            let serial_block =
                range_samples(&cohort, OutcomeKind::Qol, &pipeline, 0, n_patients as u32);
            let mut serial = CutSketch::with_capacity(n_features, DEFAULT_SKETCH_DISTINCT);
            serial.update(&serial_block.rows);

            let n_chunks = n_patients.div_ceil(chunk_patients);
            let mut merged = CutSketch::with_capacity(n_features, DEFAULT_SKETCH_DISTINCT);
            let mut labels: Vec<f64> = Vec::new();
            try_run_waves_on(
                workers,
                n_chunks,
                workers * 2,
                |c| {
                    let start = (c * chunk_patients) as u32;
                    let end = ((c + 1) * chunk_patients).min(n_patients) as u32;
                    let block = range_samples(&cohort, OutcomeKind::Qol, &pipeline, start, end);
                    let mut part = CutSketch::with_capacity(n_features, DEFAULT_SKETCH_DISTINCT);
                    part.update(&block.rows);
                    (part, block.labels)
                },
                |_, (part, chunk_labels)| {
                    merged.merge(&part);
                    labels.extend(chunk_labels);
                    Ok::<(), ChunkError>(())
                },
            )
            .unwrap();

            prop_assert_eq!(merged.is_exact(), serial.is_exact());
            let merged_cuts = merged.cuts(32);
            let serial_cuts = serial.cuts(32);
            prop_assert_eq!(&merged_cuts, &serial_cuts);
            for (m, s) in merged_cuts.iter().zip(&serial_cuts) {
                let m_bits: Vec<u64> = m.iter().map(|v| v.to_bits()).collect();
                let s_bits: Vec<u64> = s.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(m_bits, s_bits);
            }
            let label_bits: Vec<u64> = labels.iter().map(|v| v.to_bits()).collect();
            let serial_bits: Vec<u64> =
                serial_block.labels.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(label_bits, serial_bits);
        }
    }
}
