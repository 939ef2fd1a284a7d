//! Performance tracking for the SHAP engine: times row-batch SHAP and
//! the Fig. 7 interpretation path end-to-end on the paper cohort's SPPB
//! DD model, and writes `BENCH_shap.json` so the engine's perf
//! trajectory is recorded from run to run.
//!
//! Usage: `cargo run --release -p msaw-bench --bin bench_shap [out.json]`

use std::time::Instant;

use msaw_bench::{
    exit_on_error, experiment_config, out_path_arg, paper_cohort, BenchError, EXPERIMENT_SEED,
};
use msaw_core::experiment::fit_final_model;
use msaw_core::interpret::ShapReport;
use msaw_core::PipelineError;
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind, SampleSet};
use msaw_shap::TreeExplainer;
use msaw_tabular::Matrix;

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

/// The Fig. 7 interpretation path: one [`ShapReport`] feeds both the
/// ranking and the dependence curve.
fn fig7_path(model: &msaw_gbdt::Booster, set: &SampleSet) -> Result<Option<f64>, PipelineError> {
    let report = ShapReport::try_new(model, set)?;
    let feature = report
        .global_ranking(8)
        .into_iter()
        .map(|(n, _)| n)
        .find(|n| n.starts_with("pro_"))
        .expect("a PRO item ranks among the top features");
    Ok(report.try_dependence_report(&feature)?.threshold)
}

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let out_path = out_path_arg("bench_shap", "BENCH_shap.json")?;
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
    let explainer = TreeExplainer::new(&model);

    // Row-batch SHAP on the pooled arena engine, over the full sample set.
    let batch = time_median(3, || {
        std::hint::black_box::<Matrix>(explainer.shap_values(&set.features));
    });
    eprintln!("shap matrix (batch engine):    {batch:.3}s");

    // Fig. 7 end-to-end: ranking + dependence report.
    let mut checked = Ok(None);
    let fig7 = time_median(3, || {
        checked = std::hint::black_box(fig7_path(&model, &set));
    });
    checked?;
    eprintln!("fig7 path (shared ShapReport): {fig7:.3}s");

    let json = format!(
        "{{\n  \"cohort\": \"paper\",\n  \"patients\": {},\n  \"seed\": {},\n  \
         \"rows\": {},\n  \"features\": {},\n  \"trees\": {},\n  \
         \"shap_matrix_secs\": {:.6},\n  \"fig7_end_to_end_secs\": {:.6}\n}}\n",
        data.patients.len(),
        EXPERIMENT_SEED,
        set.len(),
        set.features.ncols(),
        model.trees().len(),
        batch,
        fig7,
    );
    std::fs::write(&out_path, json)
        .map_err(|source| BenchError::Io { path: out_path.clone(), source })?;
    println!("wrote {out_path}");
    Ok(())
}
