//! Table 1 — the same 12-model grid as Fig. 4, trained and evaluated
//! separately per clinic (Hong Kong, Modena, Sydney). The paper uses
//! this to probe inter-clinic protocol differences; its Hong Kong rows
//! show anomalies it attributes to the small stratum (33 patients).

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, pct, BenchError};
use msaw_cohort::Clinic;
use msaw_core::grid::{find, try_run_clinic_grids};
use msaw_core::Approach;
use msaw_preprocess::OutcomeKind;

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();

    println!("Table 1 — single-clinic model performance");
    println!();
    println!("clinic     |        | 1-MAPE QoL KD/DD | 1-MAPE SPPB KD/DD | Falls Acc KD/DD | R(T) KD/DD | F1(T) KD/DD");

    // The paper orders rows Hong Kong, Modena, Sydney. All three grids
    // share one set of full-cohort variant builds (filtered per clinic).
    eprintln!("running 12 models for each of 3 clinics...");
    let per_clinic =
        try_run_clinic_grids(&data, &[Clinic::HongKong, Clinic::Modena, Clinic::Sydney], &cfg)?;
    for (clinic, results) in per_clinic {
        for with_fi in [false, true] {
            let get = |o: OutcomeKind, a: Approach| find(&results, o, a, with_fi);
            let falls_kd = get(OutcomeKind::Falls, Approach::KnowledgeDriven)
                .classification
                .expect("classification");
            let falls_dd = get(OutcomeKind::Falls, Approach::DataDriven)
                .classification
                .expect("classification");
            println!(
                "{:<10} | {:<6} | {:>7} {:>8} | {:>8} {:>8} | {:>7} {:>7} | {:>4} {:>5} | {:>5} {:>5}",
                clinic.name(),
                if with_fi { "w/ FI" } else { "w/o FI" },
                pct(get(OutcomeKind::Qol, Approach::KnowledgeDriven).primary_metric()),
                pct(get(OutcomeKind::Qol, Approach::DataDriven).primary_metric()),
                pct(get(OutcomeKind::Sppb, Approach::KnowledgeDriven).primary_metric()),
                pct(get(OutcomeKind::Sppb, Approach::DataDriven).primary_metric()),
                pct(falls_kd.accuracy),
                pct(falls_dd.accuracy),
                pct(falls_kd.recall_true),
                pct(falls_dd.recall_true),
                pct(falls_kd.f1_true),
                pct(falls_dd.f1_true),
            );
        }
        let n = find(&results, OutcomeKind::Qol, Approach::DataDriven, false);
        println!("{:<10} |        | ({} train / {} test samples)", "", n.n_train, n.n_test);
    }
    println!();
    println!("Expect Hong Kong (33 patients) to be the noisiest stratum, as in the paper.");
    Ok(())
}
