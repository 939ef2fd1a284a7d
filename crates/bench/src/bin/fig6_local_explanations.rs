//! Fig. 6 — local interpretation: two patients with the same SPPB
//! prediction but different top-5 SHAP attributions, demonstrating the
//! personalised-medicine argument of §5.2 (similar outcomes explained by
//! different behaviour → different interventions).

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, BenchError};
use msaw_core::experiment::fit_final_model;
use msaw_core::interpret::{LocalReport, ShapReport};
use msaw_kd::attach_fi;
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};
use msaw_shap::shap_interaction_values;

fn print_report(report: &LocalReport, tag: &str) {
    println!();
    println!(
        "{tag}: patient {} (sample row {}), predicted SPPB {:.2}",
        report.patient, report.row, report.prediction
    );
    println!("  top-5 Shapley values:");
    for a in &report.top {
        let direction = if a.shap >= 0.0 { "+" } else { "-" };
        println!(
            "    [{direction}] {:<42} value {:>8.2}   SHAP {:>+8.4}",
            a.feature, a.value, a.shap
        );
    }
}

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    let set = attach_fi(&build_samples(&data, &panel, OutcomeKind::Sppb, &cfg.pipeline), &data);
    eprintln!("training the SPPB DD w/ FI model and scanning for a contrast pair...");
    let model = fit_final_model(&set, &cfg);

    println!("Figure 6 — local explanations of two patients' SPPB predictions");
    let shap = ShapReport::try_new(&model, &set)?;
    match shap.find_contrast_pair(0.15, 5) {
        Some((a, b)) => {
            print_report(&a, "Patient A");
            print_report(&b, "Patient B");
            println!();
            println!(
                "Same predicted SPPB (Δ = {:.3}) driven by different features → the clinician\n\
                 would consider different interventions, as the paper argues.",
                (a.prediction - b.prediction).abs()
            );

            // Extension beyond the paper: SHAP interaction values for
            // patient A — which feature *pairs* shape the prediction.
            let inter = shap_interaction_values(&model, set.features.row(a.row));
            println!();
            println!("Strongest SHAP interactions for Patient A (extension):");
            for (i, j, v) in inter.top_pairs(3) {
                println!(
                    "    {:<38} x {:<38} {:>+8.4}",
                    set.feature_names[i], set.feature_names[j], v
                );
            }
        }
        None => println!("no contrast pair found at this tolerance — relax it and rerun"),
    }
    Ok(())
}
