//! Population-scale streaming pipeline: generate → featurise → bin →
//! train, with memory bounded by chunk sizes rather than cohort size.
//!
//! The paper's cohort is 261 patients; this module answers "what if it
//! were a million". [`run_scale`] and the sharded grid
//! ([`crate::grid_chunked`]) share one two-pass streaming routine that
//! generates every patient once:
//!
//! 1. **Rank pass** — patient chunks are generated and featurised
//!    across the worker pool (the row producer, here [`range_samples`],
//!    is pure in its patient range), and each worker ranks its chunk's
//!    rows into their sorted distinct values ([`RankedChunk`]). The
//!    calling thread merges the ranks into the [`CutSketch`], keeps
//!    them in a [`RankStore`] and appends labels strictly in chunk
//!    order, so every artifact is byte-identical at any worker count.
//! 2. **Remap pass** — once the cuts are final, a plain loop on the
//!    calling thread maps every stored rank to its bin code and appends
//!    the codes in chunk order to a [`ChunkedMatrixBuilder`]: fixed-size
//!    row blocks of `u16` codes, in memory or spilled to a checksummed
//!    file. Nothing is generated twice, and the codes equal
//!    [`msaw_gbdt::encode_rows`] of the pass-1 rows, so the matrix and
//!    its spill bytes are those of regenerating and encoding each chunk.
//! 3. **Fit** — [`train_chunked`] streams the row blocks through
//!    histogram training — prefetching spilled blocks so decode
//!    overlaps compute — bit-identical to the in-memory
//!    [`msaw_gbdt::Booster::train`] hist path (pinned by tests here and
//!    in `msaw-gbdt`).
//!
//! A spilled run keeps its ranks in a rank file beside the spill file
//! ([`RankStore::path_beside`]) until pass 2 ends, and a run that fails
//! removes its spill files too. Peak memory of a spilled run is
//! `O(chunk_patients + block_rows + labels)`: the only term growing
//! with cohort size is the label vector (8 bytes per sample).

use crate::error::PipelineError;
use msaw_cohort::CohortConfig;
use msaw_gbdt::{
    train_chunked, ChunkError, ChunkedMatrix, ChunkedMatrixBuilder, CutSketch, Params, RankStore,
    RankedChunk, TrainError, TrainReport, TreeMethod,
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
    /// Pass 1's ranks go to a rank file beside it, removed once pass 2
    /// has read it, so disk use peaks at about twice the spill size.
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
    /// Wall time of pass 1 (generate + featurise + rank + sketch).
    pub sketch_secs: f64,
    /// Wall time of pass 2 (remap the ranks + store the codes).
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

/// Run the streaming generate → rank → remap → fit pipeline for
/// `cohort` under `cfg`. See the module docs for the pass structure;
/// the trained model is bit-identical to materialising the cohort and
/// calling [`msaw_gbdt::Booster::train`] with the same parameters
/// (while the sketch stays exact, which it does by a wide margin for
/// this feature panel).
pub fn run_scale(cohort: &CohortConfig, cfg: &ScaleConfig) -> Result<ScaleReport, PipelineError> {
    // Reject parameters the fit would reject before streaming a single
    // patient: at population scale the passes take minutes.
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

    let n_patients = cohort.total_patients();
    let workers = cfg.workers.max(1);
    let passes = Passes {
        n_patients,
        chunk_patients: cfg.chunk_patients,
        workers,
        max_bins,
        sketch_capacity: cfg.sketch_capacity,
        block_rows: cfg.block_rows,
        matrices: [(N_FEATURES, cfg.spill_path.clone())],
    };
    let mut labels: Vec<f64> = Vec::new();
    let Streamed { matrices: [mut matrix], sketch_exact, rank_secs, remap_secs, spills } = stream(
        &passes,
        |start, end| {
            let block = range_samples(cohort, cfg.outcome, &cfg.pipeline, start, end);
            ([block.rows], block.labels)
        },
        |chunk_labels| labels.extend(chunk_labels),
    )?;
    // Sample the high-water mark after the seal so the reported RSS
    // covers the encode pass's peak (sampling only at the end raced
    // the kernel's accounting of the builder teardown).
    let rss_after_seal = peak_rss_mb();

    // Pass 3: out-of-core fit over the row blocks.
    let fit_start = Instant::now();
    let train = train_chunked(&cfg.params, &mut matrix, &labels, workers)?;
    spills.keep();
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
        n_features: N_FEATURES,
        spilled: matrix.is_spilled(),
        sketch_exact,
        sketch_secs: rank_secs,
        encode_secs: remap_secs,
        fit_secs,
        fit_rows_per_sec,
        peak_rss_mb: match (rss_after_seal, peak_rss_mb()) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        },
        train,
    })
}

/// The shape of one streamed run.
pub(crate) struct Passes<const N: usize> {
    pub n_patients: usize,
    pub chunk_patients: usize,
    pub workers: usize,
    pub max_bins: u16,
    pub sketch_capacity: usize,
    pub block_rows: usize,
    /// Per matrix: its feature count and its spill file (`None` keeps
    /// it in memory).
    pub matrices: [(usize, Option<PathBuf>); N],
}

/// What a streamed run built.
pub(crate) struct Streamed<const N: usize> {
    pub matrices: [ChunkedMatrix; N],
    /// Whether every cut sketch stayed exact.
    pub sketch_exact: bool,
    /// Wall time of pass 1: generate, featurise, rank and sketch.
    pub rank_secs: f64,
    /// Wall time of pass 2: remap and store.
    pub remap_secs: f64,
    /// Removes the spill files unless the caller keeps them.
    pub spills: SpillGuard,
}

/// A run's spill files, removed when dropped unless [`SpillGuard::keep`]
/// was called: a failed run leaves no file behind.
pub(crate) struct SpillGuard(Vec<PathBuf>);

impl SpillGuard {
    /// The run succeeded: leave its spill files for the caller.
    pub fn keep(mut self) {
        self.0.clear();
    }
}

impl Drop for SpillGuard {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The shared two-pass routine (see the module docs): stream a cohort into `N`
/// bin-coded matrices. `produce(start, end)` returns patients
/// `start..end` as one row-major slab per matrix plus the caller's
/// bookkeeping, which `keep` receives in chunk order.
pub(crate) fn stream<const N: usize, B: Send>(
    run: &Passes<N>,
    produce: impl Fn(u32, u32) -> ([Vec<f64>; N], B) + Sync,
    mut keep: impl FnMut(B),
) -> Result<Streamed<N>, PipelineError> {
    let spills = SpillGuard(run.matrices.iter().filter_map(|(_, spill)| spill.clone()).collect());
    let chunk_patients = run.chunk_patients.max(1);
    let n_chunks = run.n_patients.div_ceil(chunk_patients);

    // Pass 1. At most one wave of chunk outputs (two per worker, so the
    // pool stays fed while one drains) is resident at a time.
    let start = Instant::now();
    let mut sketches = Vec::with_capacity(N);
    let mut stores = Vec::with_capacity(N);
    for (ncols, spill) in &run.matrices {
        sketches.push(CutSketch::with_capacity(*ncols, run.sketch_capacity));
        stores.push(match spill {
            Some(path) => RankStore::beside(path, *ncols)?,
            None => RankStore::in_memory(*ncols),
        });
    }
    try_run_waves_on(
        run.workers,
        n_chunks,
        run.workers * 2,
        |c| {
            #[cfg(feature = "failpoint")]
            msaw_parallel::failpoint::hit("stream_chunk", c);
            let first = c * chunk_patients;
            let end = (first + chunk_patients).min(run.n_patients);
            let (rows, extra) = produce(first as u32, end as u32);
            let ranked: [RankedChunk; N] =
                std::array::from_fn(|m| RankedChunk::build(&rows[m], run.matrices[m].0));
            (ranked, extra)
        },
        |_, (ranked, extra)| {
            for ((chunk, sketch), store) in ranked.into_iter().zip(&mut sketches).zip(&mut stores) {
                sketch.merge_ranked(&chunk);
                store.push(chunk)?;
            }
            keep(extra);
            Ok::<(), ChunkError>(())
        },
    )
    .map_err(|e| match e {
        WaveError::Pool(p) => PipelineError::from(p),
        WaveError::Consume(c) => c.into(),
    })?;
    let rank_secs = start.elapsed().as_secs_f64();

    // Pass 2: remap each matrix's ranks against its final cuts.
    let start = Instant::now();
    let sketch_exact = sketches.iter().all(CutSketch::is_exact);
    let mut matrices = Vec::with_capacity(N);
    for ((sketch, store), (_, spill)) in sketches.iter().zip(stores).zip(&run.matrices) {
        let cuts = sketch.cuts(run.max_bins);
        let mut builder = match spill {
            Some(path) => ChunkedMatrixBuilder::spilled(cuts, run.block_rows, path)?,
            None => ChunkedMatrixBuilder::in_memory(cuts, run.block_rows),
        };
        store.remap_into(&mut builder)?;
        matrices.push(builder.finish()?);
    }
    let matrices = matrices.try_into().expect("one matrix per slab");
    let remap_secs = start.elapsed().as_secs_f64();
    Ok(Streamed { matrices, sketch_exact, rank_secs, remap_secs, spills })
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
    use msaw_gbdt::{encode_rows, Booster, DEFAULT_SKETCH_DISTINCT};
    use msaw_preprocess::{build_samples, FeaturePanel};
    use proptest::prelude::*;
    use std::path::Path;

    /// The regenerate-and-encode pipeline, rebuilt from public calls:
    /// per-chunk sketches merged in chunk order, then every chunk
    /// generated again, encoded and appended, spilled to `spill`.
    /// Returns the spilled bytes, the model and whether the sketch
    /// stayed exact.
    fn regenerate_and_encode(
        cohort: &CohortConfig,
        cfg: &ScaleConfig,
        spill: &Path,
    ) -> (Vec<u8>, Booster, bool) {
        let n = cohort.total_patients();
        let chunk = cfg.chunk_patients;
        let ranges: Vec<(u32, u32)> = (0..n.div_ceil(chunk))
            .map(|c| ((c * chunk) as u32, ((c + 1) * chunk).min(n) as u32))
            .collect();
        let block = |&(start, end): &(u32, u32)| {
            range_samples(cohort, cfg.outcome, &cfg.pipeline, start, end)
        };
        let mut sketch = CutSketch::with_capacity(N_FEATURES, cfg.sketch_capacity);
        let mut labels = Vec::new();
        for range in &ranges {
            let block = block(range);
            let mut part = CutSketch::with_capacity(N_FEATURES, cfg.sketch_capacity);
            part.update(&block.rows);
            sketch.merge(&part);
            labels.extend(block.labels);
        }
        let TreeMethod::Hist { max_bins } = cfg.params.tree_method else {
            panic!("the scale pipeline needs TreeMethod::Hist")
        };
        let mut builder =
            ChunkedMatrixBuilder::spilled(sketch.cuts(max_bins), cfg.block_rows, spill).unwrap();
        for range in &ranges {
            let codes = encode_rows(builder.cuts(), &block(range).rows);
            builder.push_encoded(&codes).unwrap();
        }
        let mut matrix = builder.finish().unwrap();
        let model = train_chunked(&cfg.params, &mut matrix, &labels, 1).unwrap().booster;
        (std::fs::read(spill).unwrap(), model, sketch.is_exact())
    }

    /// Remapping pass-1 ranks writes the bytes and trains the model of
    /// regenerating and encoding every chunk, whether the sketch stays
    /// exact or thins (capacity 64 thins the activity columns, both
    /// within one chunk and across merges), at any chunk size and
    /// worker count; no rank file outlives the run.
    #[test]
    fn both_sketch_regimes_equal_the_regenerate_and_encode_path() {
        let cohort = CohortConfig::small(42);
        let dir = std::env::temp_dir().join(format!("msaw_scale_regimes_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spill = dir.join("run.mscb");
        for capacity in [DEFAULT_SKETCH_DISTINCT, 64] {
            for chunk_patients in [1usize, 7, 300] {
                let mut cfg = ScaleConfig::new(OutcomeKind::Qol);
                cfg.params.n_estimators = 3;
                cfg.block_rows = 200;
                cfg.sketch_capacity = capacity;
                cfg.chunk_patients = chunk_patients;
                let (bytes, model, exact) =
                    regenerate_and_encode(&cohort, &cfg, &dir.join("reference.mscb"));
                assert_eq!(exact, capacity == DEFAULT_SKETCH_DISTINCT);
                cfg.spill_path = Some(spill.clone());
                for workers in [1usize, 2, 8] {
                    cfg.workers = workers;
                    let tag =
                        format!("capacity={capacity} chunk={chunk_patients} workers={workers}");
                    let report = run_scale(&cohort, &cfg).unwrap();
                    assert_eq!(report.sketch_exact, exact, "{tag}");
                    assert_eq!(report.train.booster, model, "{tag}");
                    assert!(std::fs::read(&spill).unwrap() == bytes, "spill bytes differ: {tag}");
                    assert!(!RankStore::path_beside(&spill).exists(), "rank file left: {tag}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

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
