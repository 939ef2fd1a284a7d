//! Ablation — the two learner design choices DESIGN.md calls out:
//!
//! 1. **Sparsity-aware missing handling** (XGBoost §3.4): native NaN
//!    routing with learned default directions, versus the classical
//!    impute-then-train baseline (per-feature mean imputation).
//! 2. **Exact vs histogram split finding**: identical API, different
//!    candidate sets; quality should be near-identical at the paper's
//!    scale while histogram trains faster (timings in the Criterion
//!    bench `train_gbdt`).

use msaw_bench::{exit_on_error, experiment_config, paper_cohort, pct, BenchError};
use msaw_core::{try_run_variant, Approach};
use msaw_gbdt::TreeMethod;
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind, SampleSet};
use msaw_tabular::Matrix;

/// Replace every NaN with its feature's mean over the set.
fn mean_impute(set: &SampleSet) -> SampleSet {
    let nrows = set.features.nrows();
    let ncols = set.features.ncols();
    let means: Vec<f64> = (0..ncols)
        .map(|j| {
            let col = set.features.column(j);
            let present: Vec<f64> = col.iter().copied().filter(|v| !v.is_nan()).collect();
            if present.is_empty() {
                0.0
            } else {
                present.iter().sum::<f64>() / present.len() as f64
            }
        })
        .collect();
    let mut data = Vec::with_capacity(nrows * ncols);
    for i in 0..nrows {
        for (j, &mean) in means.iter().enumerate() {
            let v = set.features.get(i, j);
            data.push(if v.is_nan() { mean } else { v });
        }
    }
    SampleSet {
        features: Matrix::from_vec(data, nrows, ncols),
        feature_names: set.feature_names.clone(),
        labels: set.labels.clone(),
        meta: set.meta.clone(),
        outcome: set.outcome,
    }
}

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    let set = build_samples(&data, &panel, OutcomeKind::Qol, &cfg.pipeline);

    println!("Ablation 1 — missing-value handling (QoL, DD)");
    let native = try_run_variant(&set, Approach::DataDriven, false, &cfg)?;
    let imputed_set = mean_impute(&set);
    let imputed = try_run_variant(&imputed_set, Approach::DataDriven, false, &cfg)?;
    println!(
        "  sparsity-aware (native NaN):  1-MAPE {}  MAE {:.4}",
        pct(native.regression.unwrap().one_minus_mape),
        native.regression.unwrap().mae
    );
    println!(
        "  mean imputation baseline:     1-MAPE {}  MAE {:.4}",
        pct(imputed.regression.unwrap().one_minus_mape),
        imputed.regression.unwrap().mae
    );

    println!();
    println!("Ablation 2 — split finder (QoL, DD)");
    for (label, method) in [
        ("exact", TreeMethod::Exact),
        ("hist 256 bins", TreeMethod::Hist { max_bins: 256 }),
        ("hist 32 bins", TreeMethod::Hist { max_bins: 32 }),
    ] {
        let mut c = cfg.clone();
        c.regression_params.tree_method = method;
        let r = try_run_variant(&set, Approach::DataDriven, false, &c)?;
        println!(
            "  {:<14} 1-MAPE {}  MAE {:.4}",
            label,
            pct(r.regression.unwrap().one_minus_mape),
            r.regression.unwrap().mae
        );
    }
    Ok(())
}
