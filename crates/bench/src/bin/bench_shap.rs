//! Performance tracking for the SHAP engine: times row-batch SHAP and
//! the Fig. 7 interpretation path end-to-end on the paper cohort's SPPB
//! DD model, against the retired serial clone-per-branch implementation
//! kept in `msaw_shap::reference`, and writes `BENCH_shap.json` so the
//! engine's perf trajectory is recorded from run to run.
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
use msaw_shap::{dependence_curve, reference, sign_change_threshold, GlobalSummary, TreeExplainer};
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

/// The Fig. 7 interpretation path as it ran before the shared-matrix
/// refactor: `global_ranking` and `dependence_report` each built their
/// own explainer and their own full SHAP matrix, serially, with the
/// clone-per-branch recursion.
fn fig7_pre_refactor(model: &msaw_gbdt::Booster, set: &SampleSet) -> Option<f64> {
    let shap = reference::shap_values_serial_clone(model, &set.features);
    let summary = GlobalSummary::from_shap_matrix(&shap);
    let feature = summary
        .top_k(8)
        .into_iter()
        .map(|(f, _)| f)
        .find(|&f| set.feature_names[f].starts_with("pro_"))
        .expect("a PRO item ranks among the top features");
    let shap_again = reference::shap_values_serial_clone(model, &set.features);
    let curve = dependence_curve(&set.features, &shap_again, feature);
    sign_change_threshold(&curve)
}

/// The same path on the current engine: one [`ShapReport`] feeds both
/// the ranking and the dependence curve.
fn fig7_current(model: &msaw_gbdt::Booster, set: &SampleSet) -> Result<Option<f64>, PipelineError> {
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

    // Row-batch SHAP: the pooled arena engine vs the retired serial
    // clone-per-branch loop, on the full sample set.
    let batch = time_median(3, || {
        std::hint::black_box::<Matrix>(explainer.shap_values(&set.features));
    });
    eprintln!("shap matrix (batch engine):    {batch:.3}s");
    let batch_pre = time_median(3, || {
        std::hint::black_box::<Matrix>(reference::shap_values_serial_clone(&model, &set.features));
    });
    eprintln!("shap matrix (pre-refactor):    {batch_pre:.3}s");

    // Fig. 7 end-to-end: ranking + dependence report.
    let fig7 = time_median(3, || {
        let _ = std::hint::black_box(fig7_current(&model, &set));
    });
    eprintln!("fig7 path (shared ShapReport): {fig7:.3}s");
    let fig7_pre = time_median(3, || {
        std::hint::black_box(fig7_pre_refactor(&model, &set));
    });
    eprintln!("fig7 path (pre-refactor):      {fig7_pre:.3}s");

    // The two paths must agree before their timings are comparable.
    assert_eq!(
        fig7_current(&model, &set)?,
        fig7_pre_refactor(&model, &set),
        "current and pre-refactor Fig. 7 paths must find the same threshold"
    );
    eprintln!("fig7 speedup: {:.2}x", fig7_pre / fig7);

    let json = format!(
        "{{\n  \"cohort\": \"paper\",\n  \"patients\": {},\n  \"seed\": {},\n  \
         \"rows\": {},\n  \"features\": {},\n  \"trees\": {},\n  \
         \"shap_matrix_secs\": {:.6},\n  \"shap_matrix_pre_refactor_secs\": {:.6},\n  \
         \"fig7_end_to_end_secs\": {:.6},\n  \"fig7_pre_refactor_secs\": {:.6},\n  \
         \"fig7_speedup\": {:.3}\n}}\n",
        data.patients.len(),
        EXPERIMENT_SEED,
        set.len(),
        set.features.ncols(),
        model.trees().len(),
        batch,
        batch_pre,
        fig7,
        fig7_pre,
        fig7_pre / fig7,
    );
    std::fs::write(&out_path, json)
        .map_err(|source| BenchError::Io { path: out_path.clone(), source })?;
    println!("wrote {out_path}");
    Ok(())
}
