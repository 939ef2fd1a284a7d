//! Fig. 4 — the headline comparison: predictive performance of the
//! data-driven vs knowledge-driven approaches, with and without the
//! baseline Frailty Index, on all three outcomes.
//!
//! Prints the same two panels the paper shows: 1-MAPE for the QoL and
//! SPPB regressions (left) and the per-class classification report for
//! Falls (right).

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, pct, BenchError};
use msaw_core::grid::find;
use msaw_core::{try_run_full_grid_on, Approach};
use msaw_preprocess::OutcomeKind;

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();
    eprintln!(
        "cohort: {} patients; running 12 models (3 outcomes x DD/KD x +/-FI)...",
        data.patients.len()
    );
    let results = try_run_full_grid_on(0, &data, &cfg)?;

    println!("Figure 4 — predictive performance (test split)");
    println!();
    println!("Left panel: 1-MAPE for the regression outcomes");
    println!("         |   QoL KD |   QoL DD |  SPPB KD |  SPPB DD");
    for with_fi in [false, true] {
        let row: Vec<String> = [OutcomeKind::Qol, OutcomeKind::Sppb]
            .iter()
            .flat_map(|&o| {
                [Approach::KnowledgeDriven, Approach::DataDriven]
                    .map(|a| pct(find(&results, o, a, with_fi).primary_metric()))
            })
            .collect();
        println!(
            "{:<8} | {:>8} | {:>8} | {:>8} | {:>8}",
            if with_fi { "w/ FI" } else { "w/o FI" },
            row[0],
            row[1],
            row[2],
            row[3]
        );
    }

    println!();
    println!("Right panel: classification effectiveness for Falls");
    println!("         |  Acc KD |  Acc DD | P(T) KD | P(T) DD | P(F) KD | P(F) DD | R(T) KD | R(T) DD | R(F) KD | R(F) DD | F1(T) KD | F1(T) DD | F1(F) KD | F1(F) DD");
    for with_fi in [false, true] {
        let kd = find(&results, OutcomeKind::Falls, Approach::KnowledgeDriven, with_fi)
            .classification
            .expect("falls is classification");
        let dd = find(&results, OutcomeKind::Falls, Approach::DataDriven, with_fi)
            .classification
            .expect("falls is classification");
        println!(
            "{:<8} | {:>7} | {:>7} | {:>7} | {:>7} | {:>7} | {:>7} | {:>7} | {:>7} | {:>7} | {:>7} | {:>8} | {:>8} | {:>8} | {:>8}",
            if with_fi { "w/ FI" } else { "w/o FI" },
            pct(kd.accuracy),
            pct(dd.accuracy),
            pct(kd.precision_true),
            pct(dd.precision_true),
            pct(kd.precision_false),
            pct(dd.precision_false),
            pct(kd.recall_true),
            pct(dd.recall_true),
            pct(kd.recall_false),
            pct(dd.recall_false),
            pct(kd.f1_true),
            pct(dd.f1_true),
            pct(kd.f1_false),
            pct(dd.f1_false),
        );
    }

    println!();
    println!("Full per-variant detail:");
    for r in &results {
        println!("  {}", r.summary_line());
    }
    Ok(())
}
