//! Extension — calibration of the Falls probability model.
//!
//! The paper evaluates Falls only through thresholded metrics; for the
//! preventive-medicine uses it motivates (acting on *risk*, not on a
//! hard label), the predicted probabilities themselves must be
//! trustworthy. This binary reports the Brier score, the expected
//! calibration error and the reliability curve of the DD w/ FI model.

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, BenchError};
use msaw_core::oof::try_oof_predictions;
use msaw_kd::attach_fi;
use msaw_metrics::{brier_score, calibration_curve, expected_calibration_error};
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    let set = attach_fi(&build_samples(&data, &panel, OutcomeKind::Falls, &cfg.pipeline), &data);
    eprintln!("computing out-of-fold fall probabilities...");
    let probs = try_oof_predictions(&set, &cfg)?;
    let labels: Vec<bool> = set.labels.iter().map(|&l| l == 1.0).collect();

    let prevalence = labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64;
    println!("Falls probability calibration (DD w/ FI, out-of-fold)");
    println!();
    println!("samples: {}   prevalence: {:.1}%", set.len(), 100.0 * prevalence);
    println!(
        "Brier score: {:.4}  (constant-prevalence baseline: {:.4})",
        brier_score(&labels, &probs),
        prevalence * (1.0 - prevalence)
    );
    println!(
        "expected calibration error (10 bins): {:.4}",
        expected_calibration_error(&labels, &probs, 10)
    );
    println!();
    println!("reliability curve:");
    println!("  bucket      | mean predicted | observed rate |     n");
    for b in calibration_curve(&labels, &probs, 10) {
        if b.count == 0 {
            continue;
        }
        println!(
            "  [{:.1}, {:.1}) | {:>14.3} | {:>13.3} | {:>5}",
            b.lo, b.hi, b.mean_predicted, b.observed_rate, b.count
        );
    }
    println!();
    println!("A well-calibrated model tracks the diagonal (predicted ≈ observed).");
    Ok(())
}
