//! §3 Quality Assurance — the interpolation sweep.
//!
//! The paper: "We experimentally determined the max size of gaps that
//! could be safely interpolated (five missing steps), by assessing the
//! predictive performance of each of the models resulting from training
//! sets obtained from more or less 'aggressive' interpolation."
//!
//! This binary reruns that sweep: for every max-gap limit it rebuilds
//! the QoL sample set and evaluates the DD model, printing sample count
//! and 1-MAPE. Small limits starve the training set; large limits admit
//! spurious interpolated data.

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, BenchError};
use msaw_core::{try_run_variant, Approach};
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind, PipelineConfig};

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let base = experiment_config();

    println!("QA sweep — model quality vs max interpolation gap (QoL, DD)");
    println!();
    println!("max gap | samples kept | kept %  | 1-MAPE (test) | MAE");
    for max_gap in 0..=10usize {
        let pipeline = PipelineConfig { max_interpolation_gap: max_gap, ..base.pipeline.clone() };
        let mut cfg = base.clone();
        cfg.pipeline = pipeline.clone();
        let panel = FeaturePanel::build(&data, &pipeline);
        let set = build_samples(&data, &panel, OutcomeKind::Qol, &pipeline);
        if set.len() < 50 {
            println!("{max_gap:>7} | {:>12} | too few samples to evaluate", set.len());
            continue;
        }
        let result = try_run_variant(&set, Approach::DataDriven, false, &cfg)?;
        let scores = result.regression.expect("regression outcome");
        println!(
            "{max_gap:>7} | {:>12} | {:>6.1}% | {:>12.1}% | {:.4}{}",
            set.len(),
            100.0 * set.len() as f64 / (data.patients.len() * 16) as f64,
            100.0 * scores.one_minus_mape,
            scores.mae,
            if max_gap == 5 { "   <- paper's choice" } else { "" }
        );
    }
    println!();
    println!("The paper fixed max gap = 5 as the balance point between sample count and");
    println!("interpolation-induced noise.");
    Ok(())
}
