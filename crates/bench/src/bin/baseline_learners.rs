//! §5 learner comparison — the paper's model-selection claim:
//!
//! "The Gradient Boosting algorithm proved to offer better predictive
//! performance than other popular intelligible learning frameworks such
//! as GA2M, suggesting that separating model performance from model
//! interpretability would better suit our needs."
//!
//! This binary reruns that comparison on the DD sample sets: gradient
//! boosting (glass-box via post-hoc TreeSHAP) vs an additive GA²M-style
//! model and ridge linear/logistic regression (glass-box by
//! construction).

use msaw_baselines::{AdditiveModel, GamParams, LinearModel, LinearParams};
use msaw_bench::{exit_on_error, experiment_config, paper_cohort, pct, BenchError};
use msaw_core::{try_run_variant, Approach};
use msaw_metrics::train_test_split;
use msaw_metrics::{one_minus_mape, ConfusionMatrix};
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let data = paper_cohort();
    let cfg = experiment_config();
    let panel = FeaturePanel::build(&data, &cfg.pipeline);

    println!("Learner comparison on the DD feature space (80/20 split)");
    println!();
    println!("outcome | gradient boosting | additive (GA2M-style) | ridge linear");
    for outcome in OutcomeKind::ALL {
        let set = build_samples(&data, &panel, outcome, &cfg.pipeline);
        let (train, test) = train_test_split(set.len(), cfg.test_fraction, cfg.seed);
        let x_train = set.features.take_rows(&train);
        let y_train: Vec<f64> = train.iter().map(|&i| set.labels[i]).collect();
        let x_test = set.features.take_rows(&test);
        let y_test: Vec<f64> = test.iter().map(|&i| set.labels[i]).collect();

        let gbdt = try_run_variant(&set, Approach::DataDriven, false, &cfg)?.primary_metric();

        let gam_params =
            if outcome.is_classification() { GamParams::binary() } else { GamParams::regression() };
        let gam = AdditiveModel::train(&gam_params, &x_train, &y_train).expect("gam trains");
        let gam_preds = gam.predict(&x_test);

        let lin_params = if outcome.is_classification() {
            LinearParams::binary()
        } else {
            LinearParams::regression()
        };
        let lin = LinearModel::train(&lin_params, &x_train, &y_train).expect("linear trains");
        let lin_preds = lin.predict(&x_test);

        let score = |preds: &[f64]| {
            if outcome.is_classification() {
                let labels: Vec<bool> = y_test.iter().map(|&l| l == 1.0).collect();
                ConfusionMatrix::from_probabilities(&labels, preds, cfg.decision_threshold)
                    .accuracy()
            } else {
                one_minus_mape(&y_test, preds)
            }
        };
        println!(
            "{:<7} | {:>17} | {:>21} | {:>12}",
            outcome.name(),
            pct(gbdt),
            pct(score(&gam_preds)),
            pct(score(&lin_preds)),
        );
    }
    println!();
    println!("Metric: 1-MAPE for QoL/SPPB, accuracy for Falls. Expect gradient boosting to");
    println!("match or beat the glass-box learners, as the paper found for GA2M.");
    Ok(())
}
