//! Performance tracking for the flat-forest prediction engine: times
//! raw-score batch prediction on the paper cohort's SPPB DD model —
//! the node-walk loop (`predict_raw_row` per row) against the compiled
//! [`msaw_gbdt::FlatForest`], single-core and multi-worker — and writes
//! `BENCH_predict.json` so the engine's perf trajectory is recorded
//! from run to run.
//!
//! Usage: `cargo run --release -p msaw-bench --bin bench_predict [out.json]`

use std::time::Instant;

use msaw_bench::{
    exit_on_error, experiment_config, out_path_arg, paper_cohort, BenchError, EXPERIMENT_SEED,
};
use msaw_core::experiment::fit_final_model;
use msaw_core::PipelineError;
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};

/// Median of at least one timed repetition, in seconds.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let out_path = out_path_arg("bench_predict", "BENCH_predict.json")?;
    let data = paper_cohort();
    let cfg = experiment_config();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    let set = build_samples(&data, &panel, OutcomeKind::Sppb, &cfg.pipeline);
    eprintln!(
        "training the SPPB DD model ({} rows x {} features)...",
        set.len(),
        set.features.ncols()
    );
    let model = fit_final_model(&set, &cfg);
    let flat = model.flat_forest();
    let workers = msaw_parallel::available_workers();
    let level = msaw_gbdt::simd::active_level();

    // The engine swap must be invisible in the outputs before its
    // timings are comparable: flat == node walk, bit for bit.
    let walk: Vec<f64> = set.features.rows().map(|r| model.predict_raw_row(r)).collect();
    let batch = flat.try_predict_raw_batch_on(workers, &set.features, level);
    for (a, b) in batch.map_err(PipelineError::Predict)?.iter().zip(&walk) {
        assert_eq!(a.to_bits(), b.to_bits(), "flat forest diverged from the node walk");
    }

    // Repeat each timed batch so one pass is long enough to measure.
    const PASSES: usize = 20;
    let walk_secs = time_median(5, || {
        for _ in 0..PASSES {
            let preds: Vec<f64> = set.features.rows().map(|r| model.predict_raw_row(r)).collect();
            std::hint::black_box(preds);
        }
    }) / PASSES as f64;
    eprintln!("node walk (single core):   {:.3}ms/batch", walk_secs * 1e3);

    // Every row times the one batch entry point; a failing batch is
    // reported after its timing, like bench_grid's rows.
    let time_batch = |workers, level| -> Result<f64, BenchError> {
        let mut checked = Ok(());
        let secs = time_median(5, || {
            for _ in 0..PASSES {
                checked = std::hint::black_box(flat.try_predict_raw_batch_on(
                    workers,
                    &set.features,
                    level,
                ))
                .map(drop);
            }
        });
        checked.map_err(PipelineError::Predict)?;
        Ok(secs / PASSES as f64)
    };

    let flat_single_secs = time_batch(1, level)?;
    eprintln!("flat forest (single core): {:.3}ms/batch", flat_single_secs * 1e3);

    let flat_multi_secs = time_batch(workers, level)?;
    eprintln!("flat forest ({workers} workers):   {:.3}ms/batch", flat_multi_secs * 1e3);

    // The always-compiled scalar fallback on the same single core, via
    // the explicit kernel level: both the regression guard for the
    // fallback and the denominator of the SIMD speedup headline.
    let flat_scalar_secs = time_batch(1, msaw_gbdt::SimdLevel::Scalar)?;
    let simd_kernel = msaw_gbdt::simd::kernel_name();
    eprintln!("flat forest (scalar, 1 core): {:.3}ms/batch", flat_scalar_secs * 1e3);
    eprintln!(
        "speedups: {:.2}x single-core, {:.2}x with {workers} workers, \
         {:.2}x {simd_kernel} kernel vs scalar",
        walk_secs / flat_single_secs,
        walk_secs / flat_multi_secs,
        flat_scalar_secs / flat_single_secs,
    );

    let json = format!(
        "{{\n  \"cohort\": \"paper\",\n  \"patients\": {},\n  \"seed\": {},\n  \
         \"rows\": {},\n  \"features\": {},\n  \"trees\": {},\n  \"nodes\": {},\n  \
         \"walk_single_core_secs\": {:.9},\n  \"flat_single_core_secs\": {:.9},\n  \
         \"flat_multi_worker_secs\": {:.9},\n  \"flat_scalar_single_core_secs\": {:.9},\n  \
         \"simd_kernel\": \"{}\",\n  \"simd_speedup\": {:.3},\n  \"workers\": {},\n  \
         \"flat_single_core_speedup\": {:.3},\n  \"flat_multi_worker_speedup\": {:.3}\n}}\n",
        data.patients.len(),
        EXPERIMENT_SEED,
        set.len(),
        set.features.ncols(),
        model.trees().len(),
        flat.n_nodes(),
        walk_secs,
        flat_single_secs,
        flat_multi_secs,
        flat_scalar_secs,
        simd_kernel,
        flat_scalar_secs / flat_single_secs,
        workers,
        walk_secs / flat_single_secs,
        walk_secs / flat_multi_secs,
    );
    std::fs::write(&out_path, json)
        .map_err(|source| BenchError::Io { path: out_path.clone(), source })?;
    println!("wrote {out_path}");
    Ok(())
}
