//! Fig. 7 — global interpretation: the SHAP value of one PRO question
//! plotted against its possible answers, revealing a data-derived
//! threshold. The paper's point: the DD approach re-discovers the kind
//! of cutoff (≥ 3 on a Likert answer) the KD approach hard-codes, but
//! from data and per-model.

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, BenchError};
use msaw_core::experiment::fit_final_model;
use msaw_core::interpret::ShapReport;
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    let set = build_samples(&data, &panel, OutcomeKind::Sppb, &cfg.pipeline);
    eprintln!("training the SPPB DD model and computing SHAP dependence...");
    let model = fit_final_model(&set, &cfg);
    // One explainer + one SHAP matrix feed both the ranking and the
    // dependence curve below.
    let shap = ShapReport::try_new(&model, &set)?;

    println!("Figure 7 — global SHAP dependence for one PRO question");
    println!();
    println!("Globally most influential features (mean |SHAP|):");
    let ranking = shap.global_ranking(8);
    for (name, value) in &ranking {
        println!("  {:<42} {:>8.4}", name, value);
    }

    // Pick the highest-ranked PRO item (Likert 1-5) for the dependence plot.
    let feature = ranking
        .iter()
        .map(|(n, _)| n)
        .find(|n| n.starts_with("pro_"))
        .expect("a PRO item ranks among the top features")
        .clone();
    let report = shap.try_dependence_report(&feature)?;

    println!();
    println!("Dependence of `{feature}` (mean SHAP per answer bucket):");
    // Bucket the monthly means by rounded answer value, as the paper's
    // scatter is grouped by the discrete possible answers.
    let mut buckets: std::collections::BTreeMap<i64, (f64, usize)> = Default::default();
    for &(v, s) in &report.points {
        let e = buckets.entry(v.round() as i64).or_insert((0.0, 0));
        e.0 += s;
        e.1 += 1;
    }
    for (answer, (sum, n)) in &buckets {
        let mean = sum / *n as f64;
        let marker = if mean >= 0.0 { "+" } else { "-" };
        println!(
            "  answer ≈ {answer}:  mean SHAP {:>+8.4}  ({:>4} samples)  {}{}",
            mean,
            n,
            marker,
            "#".repeat((mean.abs() * 40.0).round() as usize)
        );
    }
    match report.threshold {
        Some(t) => println!(
            "\nData-driven threshold: SHAP flips sign at answer ≈ {t:.1} — the DD analogue\n\
             of the expert's manual cutoff (the paper observes a threshold of ≥ 3)."
        ),
        None => println!("\nNo sign change found for this feature."),
    }
    Ok(())
}
