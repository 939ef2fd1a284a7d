//! Methodological ablation — within-patient leakage.
//!
//! The paper (like much of the clinical-ML literature of its time)
//! splits at the *sample* level: the same patient's monthly samples can
//! land in both train and test, and samples from one window share their
//! label. This ablation quantifies how much of the headline score that
//! leakage is worth by comparing the paper's protocol against a
//! grouped split that keeps each patient entirely on one side —
//! both runs go through the same `try_run_variant` pipeline, toggled by
//! `ExperimentConfig::split_by_patient`.

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, pct, BenchError};
use msaw_core::{try_run_variant, Approach, ExperimentConfig};
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();
    let grouped_cfg = ExperimentConfig { split_by_patient: true, ..cfg.clone() };
    let panel = FeaturePanel::build(&data, &cfg.pipeline);

    println!("Ablation — sample-level split (paper protocol) vs per-patient grouped split");
    println!();
    println!("outcome | sample-level (paper) | patient-grouped | leakage premium");
    for outcome in OutcomeKind::ALL {
        let set = build_samples(&data, &panel, outcome, &cfg.pipeline);
        let paper_style =
            try_run_variant(&set, Approach::DataDriven, false, &cfg)?.primary_metric();
        let grouped =
            try_run_variant(&set, Approach::DataDriven, false, &grouped_cfg)?.primary_metric();
        println!(
            "{:<7} | {:>20} | {:>15} | {:>+14.1}pp",
            outcome.name(),
            pct(paper_style),
            pct(grouped),
            100.0 * (paper_style - grouped),
        );
    }
    println!();
    println!("A positive premium means part of the paper-protocol score comes from the");
    println!("model recognising patients it has already seen — a caveat for deployment.");
    Ok(())
}
