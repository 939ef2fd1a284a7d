//! Fig. 5 — regression MAE distribution per patient, grouped by clinical
//! centre, for QoL and SPPB.
//!
//! Every sample receives an out-of-fold prediction (a model that never
//! saw it), absolute errors are averaged per patient, and each clinic's
//! per-patient MAE distribution is summarised as a box plot. The paper
//! reads this figure for robustness: Hong Kong shows more outliers than
//! Modena and Sydney because of its small, homogeneous stratum.

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, BenchError};
use msaw_core::oof::{mae_boxes_by_clinic, try_oof_predictions};
use msaw_kd::attach_fi;
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);

    println!("Figure 5 — per-patient MAE distribution by clinical centre");
    for outcome in [OutcomeKind::Qol, OutcomeKind::Sppb] {
        eprintln!("computing out-of-fold predictions for {}...", outcome.name());
        let set = attach_fi(&build_samples(&data, &panel, outcome, &cfg.pipeline), &data);
        let preds = try_oof_predictions(&set, &cfg)?;
        println!();
        println!(
            "{} (DD w/ FI model, {}-fold out-of-fold predictions)",
            outcome.name(),
            cfg.cv_folds
        );
        println!("  clinic     |   n |  median |      q1 |      q3 | whiskers          | outliers");
        for (clinic, b) in mae_boxes_by_clinic(&set, &preds) {
            println!(
                "  {:<10} | {:>3} | {:>7.4} | {:>7.4} | {:>7.4} | [{:>7.4},{:>7.4}] | {}",
                clinic.name(),
                b.count,
                b.median,
                b.q1,
                b.q3,
                b.whisker_low,
                b.whisker_high,
                b.outliers.len()
            );
        }
    }
    println!();
    println!("Expect Hong Kong's distribution to be the least stable (fewest patients).");
    Ok(())
}
