//! Fig. 1 — distribution of the three outcomes over the QA'd sample set:
//! (a) QoL in 0.1-wide bins, (b) SPPB value counts, (c) Falls counts.
//!
//! The paper plots (a) and (b) with log-scale counts; we print the raw
//! counts per bin, which carry the same information.

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, BenchError};
use msaw_metrics::histogram::{try_histogram, value_counts_bool, value_counts_i64};
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);

    println!("Figure 1 — outcome distributions over the sample set");
    println!();

    let qol = build_samples(&data, &panel, OutcomeKind::Qol, &cfg.pipeline);
    println!(
        "(sample set: {} records from {} potential — paper: 2,250 of 4,176)",
        qol.len(),
        data.patients.len() * 16
    );
    println!();
    println!("(a) QoL distribution");
    for bin in try_histogram(&qol.labels, 0.0, 1.0, 10)? {
        println!(
            "  {:>8}  {:>6}  {}",
            bin.label(),
            bin.count,
            bar(bin.count, 40.0 / qol.len() as f64)
        );
    }

    let sppb = build_samples(&data, &panel, OutcomeKind::Sppb, &cfg.pipeline);
    println!();
    println!("(b) SPPB distribution");
    let sppb_int: Vec<i64> = sppb.labels.iter().map(|&l| l as i64).collect();
    for (value, count) in value_counts_i64(&sppb_int) {
        println!("  {:>8}  {:>6}  {}", value, count, bar(count, 40.0 / sppb.len() as f64));
    }

    let falls = build_samples(&data, &panel, OutcomeKind::Falls, &cfg.pipeline);
    println!();
    println!("(c) Falls distribution");
    let falls_bool: Vec<bool> = falls.labels.iter().map(|&l| l == 1.0).collect();
    let (neg, pos) = value_counts_bool(&falls_bool);
    println!("  {:>8}  {:>6}  {}", "False", neg, bar(neg, 40.0 / falls.len() as f64));
    println!("  {:>8}  {:>6}  {}", "True", pos, bar(pos, 40.0 / falls.len() as f64));
    println!();
    println!(
        "positive rate: {:.1}% (paper Fig. 1c shows a small minority of True)",
        100.0 * pos as f64 / falls.len() as f64
    );
    Ok(())
}

fn bar(count: usize, scale: f64) -> String {
    "#".repeat((count as f64 * scale).round() as usize)
}
