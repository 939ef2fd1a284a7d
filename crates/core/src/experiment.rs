//! One variant = one trained and evaluated model: an outcome, an
//! approach (DD or KD), and whether the baseline FI is included.
//!
//! A [`VariantPlan`] freezes a variant's split and folds and records
//! where its fits read rows: a sample set's [`TrainingContext`] (the
//! in-memory and per-clinic grids) or a [`ChunkedView`] of a sealed
//! bin-coded matrix (the sharded grid). [`try_run_fit_job_with`] is the
//! one fit → predict → score runner for both.

use crate::config::ExperimentConfig;
use crate::error::PipelineError;
use msaw_gbdt::{
    predict_rows_chunked, train_chunked_on, Booster, ChunkError, ChunkedView, ContextCache,
    Objective, Params, TrainingContext, TreeMethod, TreeScratch,
};
use msaw_metrics::{
    group_train_test_split, kfold, stratified_kfold, train_test_split, ConfusionMatrix,
};
use msaw_metrics::{mae, one_minus_mape};
use msaw_preprocess::{OutcomeKind, SampleSet};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// DD vs KD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Approach {
    /// Data-driven: the full 59-feature (60 with FI) representation.
    DataDriven,
    /// Knowledge-driven: the expert's ICI scalar (plus FI when enabled).
    KnowledgeDriven,
}

impl Approach {
    /// Short label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Approach::DataDriven => "DD",
            Approach::KnowledgeDriven => "KD",
        }
    }
}

/// Regression metrics on the held-out test set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegressionScores {
    /// The paper's headline score, `1 - MAPE`.
    pub one_minus_mape: f64,
    /// Mean absolute error.
    pub mae: f64,
}

/// The evaluated result of one variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantResult {
    /// Which outcome was predicted.
    pub outcome: OutcomeKind,
    /// DD or KD.
    pub approach: Approach,
    /// Whether the window-baseline FI was a feature.
    pub with_fi: bool,
    /// Test-set regression scores (QoL, SPPB).
    pub regression: Option<RegressionScores>,
    /// Test-set classification report (Falls).
    pub classification: Option<msaw_metrics::BinaryReport>,
    /// Primary metric per CV fold on the training side (1-MAPE or
    /// accuracy), in fold order.
    pub cv_scores: Vec<f64>,
    /// Training rows.
    pub n_train: usize,
    /// Test rows.
    pub n_test: usize,
}

impl VariantResult {
    /// The primary test metric: 1-MAPE for regression, accuracy for
    /// classification.
    pub fn primary_metric(&self) -> f64 {
        if let Some(r) = &self.regression {
            r.one_minus_mape
        } else if let Some(c) = &self.classification {
            c.accuracy
        } else {
            f64::NAN
        }
    }

    /// Mean of the CV fold scores.
    pub fn cv_mean(&self) -> f64 {
        if self.cv_scores.is_empty() {
            return f64::NAN;
        }
        self.cv_scores.iter().sum::<f64>() / self.cv_scores.len() as f64
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        let fi = if self.with_fi { "w/ FI " } else { "w/o FI" };
        match (&self.regression, &self.classification) {
            (Some(r), _) => format!(
                "{:<5} {} {}  1-MAPE {:5.1}%  MAE {:.4}  (cv {:5.1}%, {} train / {} test)",
                self.outcome.name(),
                self.approach.label(),
                fi,
                100.0 * r.one_minus_mape,
                r.mae,
                100.0 * self.cv_mean(),
                self.n_train,
                self.n_test
            ),
            (_, Some(c)) => format!(
                "{:<5} {} {}  Acc {:5.1}%  P(T) {:5.1}%  P(F) {:5.1}%  R(T) {:5.1}%  R(F) {:5.1}%  F1(T) {:5.1}%  F1(F) {:5.1}%",
                self.outcome.name(),
                self.approach.label(),
                fi,
                100.0 * c.accuracy,
                100.0 * c.precision_true,
                100.0 * c.precision_false,
                100.0 * c.recall_true,
                100.0 * c.recall_false,
                100.0 * c.f1_true,
                100.0 * c.f1_false
            ),
            _ => format!("{} {} {fi}: no scores", self.outcome.name(), self.approach.label()),
        }
    }
}

/// Tune `scale_pos_weight` to the training split's class imbalance,
/// XGBoost's standard `sum(neg)/sum(pos)` recipe.
fn balanced_params(base: &Params, labels: &[f64]) -> Params {
    let pos = labels.iter().filter(|&&l| l == 1.0).count().max(1);
    let neg = labels.len() - labels.iter().filter(|&&l| l == 1.0).count();
    Params {
        objective: Objective::Logistic { scale_pos_weight: neg.max(1) as f64 / pos as f64 },
        ..base.clone()
    }
}

/// The hyper-parameters of a fit on labels `y`: the outcome's own, with
/// the class-weight recipe switched on by `cfg.auto_balance_falls`. The
/// paper's models did not reweight (which is exactly why its KD Falls
/// model without FI collapses to the majority class).
fn fit_params(cfg: &ExperimentConfig, outcome: OutcomeKind, y: &[f64]) -> Params {
    let params = cfg.params_for(outcome);
    if outcome.is_classification() && cfg.auto_balance_falls {
        balanced_params(params, y)
    } else {
        params.clone()
    }
}

/// Score predictions against their labels: a fold's primary metric
/// (accuracy at the decision threshold for classification, `1 - MAPE`
/// otherwise), or the final model's full test-set evaluation.
fn job_output(
    job: FitJob,
    is_classification: bool,
    y: &[f64],
    preds: &[f64],
    threshold: f64,
) -> FitOutput {
    if is_classification {
        let labels: Vec<bool> = y.iter().map(|&l| l == 1.0).collect();
        let cm = ConfusionMatrix::from_probabilities(&labels, preds, threshold);
        match job {
            FitJob::Fold(_) => FitOutput::CvScore(cm.accuracy()),
            FitJob::Final => {
                FitOutput::Final { regression: None, classification: Some(cm.report()) }
            }
        }
    } else {
        let score = one_minus_mape(y, preds);
        match job {
            FitJob::Fold(_) => FitOutput::CvScore(score),
            FitJob::Final => FitOutput::Final {
                regression: Some(RegressionScores { one_minus_mape: score, mae: mae(y, preds) }),
                classification: None,
            },
        }
    }
}

/// The 80/20 split the protocol uses: sample-level (the paper's
/// default) or per-patient grouped when `cfg.split_by_patient` is set.
fn split_train_test(set: &SampleSet, cfg: &ExperimentConfig) -> (Vec<usize>, Vec<usize>) {
    let groups = cfg.split_by_patient.then(|| set.patient_groups());
    split_rows(set.len(), groups.as_deref(), cfg)
}

/// Set-free core of [`split_train_test`]: split `n_rows` samples,
/// grouped by `groups` when given.
fn split_rows(
    n_rows: usize,
    groups: Option<&[u64]>,
    cfg: &ExperimentConfig,
) -> (Vec<usize>, Vec<usize>) {
    match groups {
        Some(g) => group_train_test_split(g, cfg.test_fraction, cfg.seed),
        None => train_test_split(n_rows, cfg.test_fraction, cfg.seed),
    }
}

/// CV folds over the training rows: stratified on the labels for
/// classification outcomes (Falls is imbalanced enough that a plain
/// KFold can hand a fold a lopsided class mix), plain KFold otherwise.
/// Fold indices are positions into `train_rows`. (Production callers
/// go through [`split_plan`]; kept for the stratification tests.)
#[cfg(test)]
fn cv_folds(
    set: &SampleSet,
    train_rows: &[usize],
    cfg: &ExperimentConfig,
) -> Vec<msaw_metrics::Fold> {
    fold_rows(train_rows, &set.labels, set.outcome.is_classification(), cfg)
}

/// Set-free core of [`cv_folds`]: `labels` are full-dataset labels the
/// training rows index into.
fn fold_rows(
    train_rows: &[usize],
    labels: &[f64],
    is_classification: bool,
    cfg: &ExperimentConfig,
) -> Vec<msaw_metrics::Fold> {
    if is_classification {
        let flags: Vec<bool> = train_rows.iter().map(|&i| labels[i] == 1.0).collect();
        stratified_kfold(&flags, cfg.cv_folds, cfg.seed ^ 0x5eed)
    } else {
        kfold(train_rows.len(), cfg.cv_folds, cfg.seed ^ 0x5eed)
    }
}

/// The protocol's frozen row partition for one dataset: the 80/20
/// split plus the CV folds over the training side, all in absolute row
/// indices.
struct SplitPlan {
    /// Training rows of the 80% side.
    train_rows: Vec<usize>,
    /// Held-out test rows.
    test_rows: Vec<usize>,
    /// Per fold: (training rows, validation rows), absolute indices.
    folds: Vec<(Vec<usize>, Vec<usize>)>,
}

/// Compute the protocol's split and folds for `n_rows` samples.
/// Folds are built only when the training side can feed every fold at
/// least two samples. Under `cfg.canonical_row_order` every list is
/// then sorted ascending — same membership, streaming-friendly order.
fn split_plan(
    n_rows: usize,
    labels: &[f64],
    is_classification: bool,
    groups: Option<&[u64]>,
    cfg: &ExperimentConfig,
) -> SplitPlan {
    let (mut train_rows, mut test_rows) = split_rows(n_rows, groups, cfg);
    let mut folds: Vec<(Vec<usize>, Vec<usize>)> = if train_rows.len() >= cfg.cv_folds * 2 {
        fold_rows(&train_rows, labels, is_classification, cfg)
            .into_iter()
            .map(|fold| {
                (
                    fold.train.iter().map(|&i| train_rows[i]).collect(),
                    fold.validation.iter().map(|&i| train_rows[i]).collect(),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    if cfg.canonical_row_order {
        train_rows.sort_unstable();
        test_rows.sort_unstable();
        for (fold_train, fold_val) in &mut folds {
            fold_train.sort_unstable();
            fold_val.sort_unstable();
        }
    }
    SplitPlan { train_rows, test_rows, folds }
}

/// Where a plan's fits read their rows.
enum RowStore<'a> {
    /// A sample set's shared training context: exact or histogram fits
    /// on row views, flat-forest predictions on the raw rows. Boxed,
    /// because a context is ten times the size of a view.
    Context(Box<TrainingContext<'a>>),
    /// A column view of a sealed bin-coded matrix, in memory or
    /// spilled: out-of-core histogram fits and predictions on the
    /// stored codes (the sharded grid).
    Chunked(ChunkedView<'a>),
}

/// One variant, prepared for fitting: where its fits read rows, the
/// labels they score against, and the protocol's 80/20 split and CV
/// folds, all in absolute row indices.
///
/// A plan is immutable and `Sync`: its fit jobs are independent and may
/// run on any thread in any order — [`try_run_fit_job_with`] is a pure
/// function of `(plan, job)` — which is what lets
/// [`crate::grid::try_run_full_grid_on`] fan the whole grid's jobs
/// across one bounded worker pool.
pub struct VariantPlan<'a> {
    outcome: OutcomeKind,
    approach: Approach,
    with_fi: bool,
    labels: &'a [f64],
    rows: RowStore<'a>,
    /// Shared by the sharded grid's four variants of one outcome.
    split: Arc<SplitPlan>,
}

/// One unit of training work inside a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitJob {
    /// Fit fold `i` on its training rows, score its validation rows.
    Fold(usize),
    /// Fit the final model on the full 80% split, score the held-out 20%.
    Final,
}

/// The result of one [`FitJob`].
#[derive(Debug, Clone)]
pub enum FitOutput {
    /// A fold's primary metric on its validation rows.
    CvScore(f64),
    /// The final model's test-set evaluation.
    Final {
        /// Regression scores (QoL, SPPB).
        regression: Option<RegressionScores>,
        /// Classification report (Falls).
        classification: Option<msaw_metrics::BinaryReport>,
    },
}

/// Prepare one variant: build its shared context (the set's matrix is
/// quantised here, once, on the calling thread) and freeze the
/// protocol's split and folds. An empty sample set is a
/// [`PipelineError::EmptySampleSet`].
pub fn try_plan_variant<'a>(
    set: &'a SampleSet,
    approach: Approach,
    with_fi: bool,
    cfg: &ExperimentConfig,
) -> Result<VariantPlan<'a>, PipelineError> {
    if set.is_empty() {
        return Err(PipelineError::EmptySampleSet);
    }
    Ok(plan_with_context(set, approach, with_fi, cfg, protocol_context(set, cfg)))
}

/// The set's shared context at the protocol's histogram resolution: the
/// cuts every grid fit of the set trains against, and the final model
/// with them.
fn protocol_context<'a>(set: &'a SampleSet, cfg: &ExperimentConfig) -> TrainingContext<'a> {
    match cfg.params_for(set.outcome).tree_method {
        TreeMethod::Hist { max_bins } => TrainingContext::with_max_bins(&set.features, max_bins),
        TreeMethod::Exact => set.training_context(),
    }
}

/// [`try_plan_variant`] through a [`ContextCache`]: column sets shared
/// between variants (DD and DD+FI overlap on 59 of 60 columns, the KD
/// pair on the ICI scalar) are quantised once and reused, both across
/// variants and across callers holding the same cache.
///
/// The returned plan is bit-identical to the uncached one — the cache
/// key is the column's exact byte pattern, and quantisation is a pure
/// function of those bytes.
pub fn try_plan_variant_cached<'a>(
    set: &'a SampleSet,
    approach: Approach,
    with_fi: bool,
    cfg: &ExperimentConfig,
    cache: &mut ContextCache,
) -> Result<VariantPlan<'a>, PipelineError> {
    if set.is_empty() {
        return Err(PipelineError::EmptySampleSet);
    }
    let ctx = match cfg.params_for(set.outcome).tree_method {
        TreeMethod::Hist { max_bins } => cache.context_with_bins(&set.features, max_bins),
        TreeMethod::Exact => cache.context_for(&set.features),
    };
    Ok(plan_with_context(set, approach, with_fi, cfg, ctx))
}

/// Shared tail of the plan builders: freeze the protocol's 80/20 split
/// and CV folds around an already-built context.
fn plan_with_context<'a>(
    set: &'a SampleSet,
    approach: Approach,
    with_fi: bool,
    cfg: &ExperimentConfig,
    ctx: TrainingContext<'a>,
) -> VariantPlan<'a> {
    let groups = cfg.split_by_patient.then(|| set.patient_groups());
    let split =
        split_plan(set.len(), &set.labels, set.outcome.is_classification(), groups.as_deref(), cfg);
    VariantPlan {
        outcome: set.outcome,
        approach,
        with_fi,
        labels: &set.labels,
        rows: RowStore::Context(Box::new(ctx)),
        split: Arc::new(split),
    }
}

/// Plan one outcome's variants over column views of sealed bin-coded
/// matrices, for the sharded grid. `labels` and `groups` (patient ids,
/// used under `cfg.split_by_patient`) cover every row of every view.
/// The variants share one frozen split and folds, exactly as the
/// in-memory grid's four plans of an outcome agree.
pub(crate) fn plan_views<'a>(
    outcome: OutcomeKind,
    labels: &'a [f64],
    groups: &[u64],
    cfg: &ExperimentConfig,
    views: [(Approach, bool, ChunkedView<'a>); 4],
) -> [VariantPlan<'a>; 4] {
    let groups = cfg.split_by_patient.then_some(groups);
    let split =
        Arc::new(split_plan(labels.len(), labels, outcome.is_classification(), groups, cfg));
    views.map(|(approach, with_fi, view)| VariantPlan {
        outcome,
        approach,
        with_fi,
        labels,
        rows: RowStore::Chunked(view),
        split: Arc::clone(&split),
    })
}

impl VariantPlan<'_> {
    /// The fit jobs of this variant, in canonical order: every CV fold,
    /// then the final model.
    pub fn jobs(&self) -> impl Iterator<Item = FitJob> {
        (0..self.split.folds.len()).map(FitJob::Fold).chain(std::iter::once(FitJob::Final))
    }
}

/// Execute one fit job against a plan: fit on the job's rows, predict
/// its held-out rows on one worker (fit jobs already run inside the
/// grid's pool), and score them. Pure in `(plan, job, cfg)`: safe to
/// call from any thread, results independent of scheduling. A fit
/// failure (bad labels, bad hyper-parameters) is a
/// [`ChunkError::Train`]; a bin-coded block that fails to load is an
/// I/O or corruption [`ChunkError`].
///
/// Context plans train through [`Booster::train_on_rows_with`], which
/// fans a split search out from `params.parallel_split_threshold` rows,
/// and predict through the flat forest on the raw rows. Chunked plans
/// train through [`msaw_gbdt::train_chunked_on`] on one worker and
/// predict through [`msaw_gbdt::predict_rows_chunked`] on the stored
/// codes, with a fresh prefetch buffer pool per job.
///
/// The fit reuses the caller-owned `scratch`'s gradient/partition/
/// histogram arenas instead of allocating fresh ones, which is what
/// makes a worker's Nth fit allocation-free. Results are independent of
/// the scratch's history — the same bit-identity contract as
/// [`Booster::train_on_rows_with`].
pub fn try_run_fit_job_with(
    plan: &VariantPlan<'_>,
    job: FitJob,
    cfg: &ExperimentConfig,
    scratch: &mut TreeScratch,
) -> Result<FitOutput, ChunkError> {
    let (fit_rows, eval_rows) = match job {
        FitJob::Fold(i) => (&plan.split.folds[i].0, &plan.split.folds[i].1),
        FitJob::Final => (&plan.split.train_rows, &plan.split.test_rows),
    };
    let y: Vec<f64> = fit_rows.iter().map(|&i| plan.labels[i]).collect();
    let params = fit_params(cfg, plan.outcome, &y);
    let preds = match &plan.rows {
        RowStore::Context(ctx) => {
            let model = Booster::train_on_rows_with(&params, ctx, fit_rows, &y, scratch)?;
            model.flat_forest().predict_rows_on(1, ctx.data(), eval_rows)
        }
        RowStore::Chunked(view) => {
            let fit_rows: Vec<u32> = fit_rows.iter().map(|&r| r as u32).collect();
            let model = train_chunked_on(&params, *view, Some(&fit_rows), &y, 1, scratch)?.booster;
            let eval_rows: Vec<u32> = eval_rows.iter().map(|&r| r as u32).collect();
            predict_rows_chunked(&model, *view, &eval_rows, &mut Vec::new())?
        }
    };
    let y_eval: Vec<f64> = eval_rows.iter().map(|&i| plan.labels[i]).collect();
    Ok(job_output(job, plan.outcome.is_classification(), &y_eval, &preds, cfg.decision_threshold))
}

/// Assemble a [`VariantResult`] from a plan and its job outputs, which
/// must be in the plan's canonical job order (folds, then final).
pub fn finish_variant(plan: &VariantPlan<'_>, outputs: Vec<FitOutput>) -> VariantResult {
    let mut cv_scores = Vec::with_capacity(plan.split.folds.len());
    let mut regression = None;
    let mut classification = None;
    for out in outputs {
        match out {
            FitOutput::CvScore(s) => cv_scores.push(s),
            FitOutput::Final { regression: r, classification: c } => {
                regression = r;
                classification = c;
            }
        }
    }
    assert_eq!(cv_scores.len(), plan.split.folds.len(), "one CV score per fold");
    VariantResult {
        outcome: plan.outcome,
        approach: plan.approach,
        with_fi: plan.with_fi,
        regression,
        classification,
        cv_scores,
        n_train: plan.split.train_rows.len(),
        n_test: plan.split.test_rows.len(),
    }
}

/// Run the paper's protocol on one prepared sample set: shuffle-split
/// 80/20, K-fold CV on the training side (stratified for Falls), final
/// fit on all training rows, report on the held-out 20%. Empty sets and
/// fit failures come back as a [`PipelineError`].
pub fn try_run_variant(
    set: &SampleSet,
    approach: Approach,
    with_fi: bool,
    cfg: &ExperimentConfig,
) -> Result<VariantResult, PipelineError> {
    let plan = try_plan_variant(set, approach, with_fi, cfg)?;
    let mut scratch = TreeScratch::new();
    let outputs: Vec<FitOutput> = plan
        .jobs()
        .map(|job| try_run_fit_job_with(&plan, job, cfg, &mut scratch))
        .collect::<Result<_, _>>()?;
    Ok(finish_variant(&plan, outputs))
}

/// [`try_fit_final_model`], panicking on failure.
pub fn fit_final_model(set: &SampleSet, cfg: &ExperimentConfig) -> Booster {
    try_fit_final_model(set, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Train a final model on the full 80% training split of a sample set
/// (the model the interpretation experiments explain), against the
/// same context — and so, under a histogram protocol, the same cuts —
/// as the grid's fits of the set.
pub fn try_fit_final_model(
    set: &SampleSet,
    cfg: &ExperimentConfig,
) -> Result<Booster, PipelineError> {
    let (train_rows, _) = split_train_test(set, cfg);
    let y: Vec<f64> = train_rows.iter().map(|&i| set.labels[i]).collect();
    let params = fit_params(cfg, set.outcome, &y);
    let ctx = protocol_context(set, cfg);
    Ok(Booster::train_on_rows_with(&params, &ctx, &train_rows, &y, &mut TreeScratch::new())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaw_cohort::{generate, CohortConfig};
    use msaw_preprocess::{build_samples, FeaturePanel, PipelineConfig};

    fn qol_set() -> SampleSet {
        let data = generate(&CohortConfig::small(42));
        let cfg = PipelineConfig::default();
        let panel = FeaturePanel::build(&data, &cfg);
        build_samples(&data, &panel, OutcomeKind::Qol, &cfg)
    }

    fn falls_set() -> SampleSet {
        let data = generate(&CohortConfig::small(42));
        let cfg = PipelineConfig::default();
        let panel = FeaturePanel::build(&data, &cfg);
        build_samples(&data, &panel, OutcomeKind::Falls, &cfg)
    }

    #[test]
    fn regression_variant_produces_regression_scores() {
        let set = qol_set();
        let r =
            try_run_variant(&set, Approach::DataDriven, false, &ExperimentConfig::fast()).unwrap();
        assert!(r.regression.is_some());
        assert!(r.classification.is_none());
        let scores = r.regression.unwrap();
        assert!((0.0..=1.0).contains(&scores.one_minus_mape));
        assert!(scores.mae >= 0.0);
        assert_eq!(r.n_train + r.n_test, set.len());
        assert_eq!(r.cv_scores.len(), 5);
    }

    #[test]
    fn classification_variant_produces_report() {
        let set = falls_set();
        let r =
            try_run_variant(&set, Approach::DataDriven, false, &ExperimentConfig::fast()).unwrap();
        assert!(r.classification.is_some());
        assert!(r.regression.is_none());
        let c = r.classification.unwrap();
        assert!((0.0..=1.0).contains(&c.accuracy));
    }

    #[test]
    fn model_beats_predicting_the_mean() {
        let set = qol_set();
        let cfg = ExperimentConfig::fast();
        let r = try_run_variant(&set, Approach::DataDriven, false, &cfg).unwrap();
        // Baseline: predict the train mean everywhere.
        let (train_rows, test_rows) = train_test_split(set.len(), cfg.test_fraction, cfg.seed);
        let mean: f64 =
            train_rows.iter().map(|&i| set.labels[i]).sum::<f64>() / train_rows.len() as f64;
        let y: Vec<f64> = test_rows.iter().map(|&i| set.labels[i]).collect();
        let baseline = one_minus_mape(&y, &vec![mean; y.len()]);
        assert!(
            r.regression.unwrap().one_minus_mape > baseline,
            "model {:.3} should beat mean baseline {:.3}",
            r.regression.unwrap().one_minus_mape,
            baseline
        );
    }

    /// Under a histogram protocol the final model trains on the
    /// protocol's `max_bins`, the cuts the grid scored, not the
    /// context default.
    #[test]
    fn final_model_trains_at_the_protocols_histogram_resolution() {
        let set = qol_set();
        let mut cfg = ExperimentConfig::fast();
        for params in [&mut cfg.regression_params, &mut cfg.classification_params] {
            params.tree_method = TreeMethod::Hist { max_bins: 16 };
        }
        let model = fit_final_model(&set, &cfg);

        let (train_rows, _) = split_train_test(&set, &cfg);
        let y: Vec<f64> = train_rows.iter().map(|&i| set.labels[i]).collect();
        let params = fit_params(&cfg, set.outcome, &y);
        let ctx = TrainingContext::with_max_bins(&set.features, 16);
        let reference =
            Booster::train_on_rows_with(&params, &ctx, &train_rows, &y, &mut TreeScratch::new())
                .unwrap();
        let bits = |m: &Booster| -> Vec<u64> {
            m.predict(&set.features).iter().map(|p| p.to_bits()).collect()
        };
        assert_eq!(bits(&model), bits(&reference));
    }

    #[test]
    fn results_are_seed_deterministic() {
        let set = qol_set();
        let cfg = ExperimentConfig::fast();
        let a = try_run_variant(&set, Approach::DataDriven, false, &cfg).unwrap();
        let b = try_run_variant(&set, Approach::DataDriven, false, &cfg).unwrap();
        assert_eq!(a.primary_metric(), b.primary_metric());
        assert_eq!(a.cv_scores, b.cv_scores);
    }

    #[test]
    fn summary_lines_mention_the_variant() {
        let set = qol_set();
        let r = try_run_variant(&set, Approach::KnowledgeDriven, true, &ExperimentConfig::fast())
            .unwrap();
        let line = r.summary_line();
        assert!(line.contains("QoL") && line.contains("KD") && line.contains("w/ FI"));
    }

    #[test]
    fn balanced_params_matches_imbalance() {
        let base = ExperimentConfig::default().classification_params;
        let labels = vec![1.0, 0.0, 0.0, 0.0, 0.0];
        let p = balanced_params(&base, &labels);
        match p.objective {
            Objective::Logistic { scale_pos_weight } => assert_eq!(scale_pos_weight, 4.0),
            _ => panic!("wrong objective"),
        }
    }

    #[test]
    fn grouped_split_keeps_patients_on_one_side() {
        let set = qol_set();
        let cfg = ExperimentConfig { split_by_patient: true, ..ExperimentConfig::fast() };
        let (train, test) = split_train_test(&set, &cfg);
        assert_eq!(train.len() + test.len(), set.len());
        let train_patients: std::collections::HashSet<u32> =
            train.iter().map(|&i| set.meta[i].patient.0).collect();
        for &i in &test {
            assert!(
                !train_patients.contains(&set.meta[i].patient.0),
                "patient {} leaked across the grouped split",
                set.meta[i].patient.0
            );
        }
        // And the run itself still completes under the grouped protocol.
        let r = try_run_variant(&set, Approach::DataDriven, false, &cfg).unwrap();
        assert!(r.primary_metric().is_finite());
    }

    #[test]
    fn sample_split_is_the_default_and_unchanged() {
        let set = qol_set();
        let cfg = ExperimentConfig::fast();
        let (train, test) = split_train_test(&set, &cfg);
        let (t2, v2) = train_test_split(set.len(), cfg.test_fraction, cfg.seed);
        assert_eq!(train, t2);
        assert_eq!(test, v2);
    }

    #[test]
    fn canonical_row_order_sorts_without_changing_membership() {
        let set = qol_set();
        let shuffled_cfg = ExperimentConfig::fast();
        let sorted_cfg = ExperimentConfig { canonical_row_order: true, ..ExperimentConfig::fast() };
        let a = split_plan(set.len(), &set.labels, false, None, &shuffled_cfg);
        let b = split_plan(set.len(), &set.labels, false, None, &sorted_cfg);
        let sorted = |v: &[usize]| {
            let mut s = v.to_vec();
            s.sort_unstable();
            s
        };
        // Same membership on every list, ascending order on the
        // canonical side.
        assert_eq!(sorted(&a.train_rows), b.train_rows);
        assert_eq!(sorted(&a.test_rows), b.test_rows);
        assert_ne!(a.train_rows, b.train_rows, "shuffle order should not already be sorted");
        assert_eq!(a.folds.len(), b.folds.len());
        for ((at, av), (bt, bv)) in a.folds.iter().zip(&b.folds) {
            assert_eq!(sorted(at), *bt);
            assert_eq!(sorted(av), *bv);
            assert!(bt.windows(2).all(|w| w[0] < w[1]));
            assert!(bv.windows(2).all(|w| w[0] < w[1]));
        }
        // The protocol still runs end to end under the flag.
        let r = try_run_variant(&set, Approach::DataDriven, false, &sorted_cfg).unwrap();
        assert!(r.primary_metric().is_finite());
    }

    #[test]
    fn classification_cv_is_stratified() {
        let set = falls_set();
        let cfg = ExperimentConfig::fast();
        let (train_rows, _) = split_train_test(&set, &cfg);
        let folds = cv_folds(&set, &train_rows, &cfg);
        assert_eq!(folds.len(), cfg.cv_folds);
        let total_pos = train_rows.iter().filter(|&&i| set.labels[i] == 1.0).count();
        let overall = total_pos as f64 / train_rows.len() as f64;
        for fold in &folds {
            let pos = fold.validation.iter().filter(|&&i| set.labels[train_rows[i]] == 1.0).count();
            let rate = pos as f64 / fold.validation.len() as f64;
            // Round-robin dealing keeps every fold within one sample of
            // the overall positive rate.
            assert!(
                (rate - overall).abs() <= 1.5 / fold.validation.len() as f64 + 1e-12,
                "fold positive rate {rate:.3} strays from overall {overall:.3}"
            );
        }
    }

    #[test]
    fn try_run_variant_types_the_empty_set() {
        let set = qol_set();
        let empty = set.take(&[]);
        let err = try_run_variant(&empty, Approach::DataDriven, false, &ExperimentConfig::fast())
            .unwrap_err();
        assert_eq!(err, PipelineError::EmptySampleSet);
    }
}
