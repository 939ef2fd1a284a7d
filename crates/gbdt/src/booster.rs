//! Tree growing and the boosting loop.

use crate::binning::BinnedMatrix;
use crate::context::{ExactIndex, TrainingContext};
use crate::engine::{grow_tree, Backend, RoundCtx, TreeScratch};
use crate::error::{PredictError, TrainError};
use crate::forest::FlatForest;
use crate::objective::Objective;
use crate::params::{Params, TreeMethod};
use crate::tree::Tree;
use crate::Result;
use msaw_tabular::Matrix;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Per-round evaluation record (train loss, optional eval loss).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Boosting round (0-based).
    pub round: usize,
    /// Mean training loss after this round.
    pub train_loss: f64,
    /// Mean loss on the eval set, when one was supplied.
    pub eval_loss: Option<f64>,
}

/// Outcome of a training run: the model plus its loss history.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The trained model.
    pub booster: Booster,
    /// Per-round losses.
    pub history: Vec<EvalRecord>,
    /// Round the returned model was truncated to (early stopping), i.e.
    /// the number of trees kept.
    pub best_round: usize,
}

/// A trained gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Booster {
    pub(crate) trees: Vec<Tree>,
    pub(crate) base_score: f64,
    pub(crate) objective: Objective,
    pub(crate) n_features: usize,
}

impl Booster {
    /// Train on `data` (rows × features, `NaN` = missing) against `labels`.
    pub fn train(params: &Params, data: &Matrix, labels: &[f64]) -> Result<Booster, TrainError> {
        Ok(Self::train_with_eval(params, data, labels, None)?.booster)
    }

    /// Train with an optional `(eval_data, eval_labels)` set for early
    /// stopping, returning the full loss history.
    ///
    /// This standalone path prepares only the index its `tree_method`
    /// needs; repeated fits over subsets of one matrix should go through
    /// a shared [`TrainingContext`] and [`Self::train_on_rows`] instead.
    pub fn train_with_eval(
        params: &Params,
        data: &Matrix,
        labels: &[f64],
        eval: Option<(&Matrix, &[f64])>,
    ) -> Result<TrainReport, TrainError> {
        params.validate()?;
        let nrows = data.nrows();
        if nrows == 0 {
            return Err(TrainError::EmptyDataset);
        }
        if labels.len() != nrows {
            return Err(TrainError::LabelLength { rows: nrows, labels: labels.len() });
        }
        if let Some((ed, el)) = eval {
            if ed.ncols() != data.ncols() {
                return Err(TrainError::EvalFeatureCount {
                    expected: data.ncols(),
                    actual: ed.ncols(),
                });
            }
            if el.len() != ed.nrows() {
                return Err(TrainError::LabelLength { rows: ed.nrows(), labels: el.len() });
            }
        }
        params.objective.validate_labels(labels)?;

        let map: Vec<usize> = (0..nrows).collect();
        let mut scratch = TreeScratch::new();
        match params.tree_method {
            TreeMethod::Hist { max_bins } => {
                let binned = BinnedMatrix::fit(data, max_bins);
                Ok(train_core(
                    params,
                    data,
                    &map,
                    labels,
                    Backend::Hist(&binned),
                    eval,
                    &mut scratch,
                ))
            }
            TreeMethod::Exact => {
                let index = ExactIndex::fit(data);
                Ok(train_core(
                    params,
                    data,
                    &map,
                    labels,
                    Backend::Exact(&index),
                    eval,
                    &mut scratch,
                ))
            }
        }
    }

    /// Train on a row-index view of a shared [`TrainingContext`] — no
    /// `take_rows` copy, no re-binning, no re-sorting. `labels` is
    /// position-aligned with `rows` (`labels[i]` belongs to full-matrix
    /// row `rows[i]`).
    ///
    /// For `TreeMethod::Exact` the result is bit-for-bit identical to
    /// materialising the rows and calling [`Self::train`]. For
    /// `TreeMethod::Hist` the context's shared full-matrix cuts are used
    /// (the method's `max_bins` is ignored in favour of the context's).
    pub fn train_on_rows(
        params: &Params,
        ctx: &TrainingContext,
        rows: &[usize],
        labels: &[f64],
    ) -> Result<Booster, TrainError> {
        Self::train_on_rows_with(params, ctx, rows, labels, &mut TreeScratch::new())
    }

    /// [`Self::train_on_rows`] against a caller-owned [`TreeScratch`] —
    /// the worker-pool path, where one scratch is created per worker and
    /// reused across every fold and fit that worker executes so
    /// steady-state boosting rounds allocate nothing. Results are
    /// bit-identical regardless of what the scratch was previously used
    /// for.
    pub fn train_on_rows_with(
        params: &Params,
        ctx: &TrainingContext,
        rows: &[usize],
        labels: &[f64],
        scratch: &mut TreeScratch,
    ) -> Result<Booster, TrainError> {
        params.validate()?;
        if rows.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        if labels.len() != rows.len() {
            return Err(TrainError::LabelLength { rows: rows.len(), labels: labels.len() });
        }
        debug_assert!(rows.iter().all(|&r| r < ctx.nrows()), "row index out of bounds");
        params.objective.validate_labels(labels)?;

        let backend = match params.tree_method {
            TreeMethod::Hist { .. } => Backend::Hist(ctx.binned()),
            TreeMethod::Exact => Backend::Exact(ctx.exact()),
        };
        Ok(train_core(params, ctx.data(), rows, labels, backend, None, scratch).booster)
    }

    /// Raw (untransformed) score for one row.
    pub fn predict_raw_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        self.base_score + self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Transformed prediction (identity for regression, probability for
    /// logistic) for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.objective.transform(self.predict_raw_row(row))
    }

    /// Compile the ensemble into a [`FlatForest`] for batched
    /// prediction. Cache the result when predicting repeatedly — the
    /// batch methods below compile a fresh one per call.
    pub fn flat_forest(&self) -> FlatForest {
        FlatForest::from_booster(self)
    }

    /// Transformed predictions for a matrix via the flat engine on every
    /// core. Returns an error when the feature count disagrees with the
    /// training data (see [`FlatForest::try_predict_batch_on`]).
    pub fn try_predict(&self, data: &Matrix) -> Result<Vec<f64>, PredictError> {
        self.flat_forest().try_predict_batch_on(msaw_parallel::available_workers(), data)
    }

    /// Transformed predictions; panics where [`Self::try_predict`]
    /// returns an error.
    pub fn predict(&self, data: &Matrix) -> Vec<f64> {
        self.try_predict(data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Raw-score predictions for a matrix via the flat engine, with the
    /// same checks as [`Self::try_predict`].
    pub fn try_predict_raw(&self, data: &Matrix) -> Result<Vec<f64>, PredictError> {
        self.flat_forest().try_predict_raw_batch_on(
            msaw_parallel::available_workers(),
            data,
            crate::simd::active_level(),
        )
    }

    /// The ensemble's trees.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// The learned base (raw) score.
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// The objective the model was trained with.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Number of features the model expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// An in-flight boosting fit that can be stepped one round at a time.
///
/// `FitRun` is the boosting loop of [`Booster::train`] with the loop
/// inside-out: [`FitRun::round`] executes exactly one round, and
/// [`FitRun::finish`] materialises the `TrainReport`. Splitting the
/// loop open exists for one consumer — the allocation-regression test,
/// which needs to meter the heap between individual rounds to prove the
/// steady state allocates nothing. Normal callers should use the
/// `train*` entry points, which drive a `FitRun` to completion.
///
/// Works in *position space*: position `p` of the training view maps to
/// full-matrix row `map[p]`; `labels`, gradients and raw scores are
/// position-indexed, and the RNG subsamples positions — exactly the
/// index space the old copy-then-train path used on a materialised
/// subset, which is what keeps the exact path bit-identical to it.
///
/// All per-round buffers live in the borrowed [`TreeScratch`]; after
/// the setup in [`FitRun::new`] (which sizes every pool to its fit-wide
/// worst case), steady-state rounds perform zero heap allocations.
pub struct FitRun<'a> {
    params: &'a Params,
    data: &'a Matrix,
    map: &'a [usize],
    labels: &'a [f64],
    backend: Backend<'a>,
    eval: Option<(&'a Matrix, &'a [f64])>,
    scratch: &'a mut TreeScratch,
    rng: StdRng,
    base_score: f64,
    history: Vec<EvalRecord>,
    best_eval: f64,
    best_round: usize,
    round: usize,
    stopped: bool,
}

impl<'a> FitRun<'a> {
    /// Start a fit over a row-index view of a shared context, with the
    /// same validation as [`Booster::train_on_rows`].
    pub fn new(
        params: &'a Params,
        ctx: &'a TrainingContext<'a>,
        rows: &'a [usize],
        labels: &'a [f64],
        scratch: &'a mut TreeScratch,
    ) -> Result<FitRun<'a>, TrainError> {
        params.validate()?;
        if rows.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        if labels.len() != rows.len() {
            return Err(TrainError::LabelLength { rows: rows.len(), labels: labels.len() });
        }
        debug_assert!(rows.iter().all(|&r| r < ctx.nrows()), "row index out of bounds");
        params.objective.validate_labels(labels)?;
        let backend = match params.tree_method {
            TreeMethod::Hist { .. } => Backend::Hist(ctx.binned()),
            TreeMethod::Exact => Backend::Exact(ctx.exact()),
        };
        Ok(Self::from_parts(params, ctx.data(), rows, labels, backend, None, scratch))
    }

    /// Internal constructor shared by every `train*` entry point;
    /// callers have already validated their inputs.
    fn from_parts(
        params: &'a Params,
        data: &'a Matrix,
        map: &'a [usize],
        labels: &'a [f64],
        backend: Backend<'a>,
        eval: Option<(&'a Matrix, &'a [f64])>,
        scratch: &'a mut TreeScratch,
    ) -> FitRun<'a> {
        let nrows = map.len();
        let base_score = params.objective.base_score(labels);
        scratch.prepare(params, nrows, &backend);
        scratch.raw.clear();
        scratch.raw.resize(nrows, base_score);
        scratch.eval_raw.clear();
        if let Some((ed, _)) = eval {
            scratch.eval_raw.resize(ed.nrows(), base_score);
        }
        scratch.grad.clear();
        scratch.grad.resize(nrows, 0.0);
        scratch.hess.clear();
        scratch.hess.resize(nrows, 0.0);
        // Leaf cache: `grow_tree` records the leaf weight each routed
        // position landed in, so the ensemble update adds cached weights
        // instead of re-walking the tree (bit-identical — training
        // partitions rows with exactly `predict_row`'s routing).
        scratch.leaf_of.clear();
        scratch.leaf_of.resize(nrows, 0.0);
        scratch.routed.clear();
        scratch.routed.resize(nrows, false);
        scratch.all_rows.clear();
        scratch.all_rows.extend(0..nrows);
        scratch.all_cols.clear();
        scratch.all_cols.extend(0..data.ncols());
        scratch.sample_cols.clear();
        if scratch.sample_cols.capacity() < data.ncols() {
            scratch.sample_cols.reserve(data.ncols());
        }
        FitRun {
            params,
            data,
            map,
            labels,
            backend,
            eval,
            scratch,
            rng: StdRng::seed_from_u64(params.seed),
            base_score,
            history: Vec::with_capacity(params.n_estimators),
            best_eval: f64::INFINITY,
            best_round: 0,
            round: 0,
            stopped: false,
        }
    }

    /// Execute one boosting round. Returns `false` (without doing any
    /// work) once the fit is complete — all rounds run or early stopping
    /// fired — so `while run.round() {}` drives a fit to completion.
    pub fn round(&mut self) -> bool {
        if self.stopped || self.round >= self.params.n_estimators {
            return false;
        }
        let params = self.params;
        let nrows = self.map.len();
        let scratch = &mut *self.scratch;
        params.objective.grad_hess(self.labels, &scratch.raw, &mut scratch.grad, &mut scratch.hess);

        // Row subsampling (without replacement), in position space.
        let mut rows = scratch.pools.take_rows();
        rows.extend_from_slice(&scratch.all_rows);
        if params.subsample < 1.0 {
            let n_keep = ((nrows as f64 * params.subsample).round() as usize).max(1);
            rows.shuffle(&mut self.rng);
            rows.truncate(n_keep);
        }

        // Column subsampling per tree.
        let cols: &[usize] = if params.colsample_bytree < 1.0 {
            let n_keep =
                ((self.data.ncols() as f64 * params.colsample_bytree).round() as usize).max(1);
            scratch.sample_cols.clear();
            scratch.sample_cols.extend_from_slice(&scratch.all_cols);
            scratch.sample_cols.shuffle(&mut self.rng);
            scratch.sample_cols.truncate(n_keep);
            &scratch.sample_cols
        } else {
            &scratch.all_cols
        };

        let subsampled = rows.len() < nrows;
        if subsampled {
            scratch.routed.fill(false);
            for &p in &rows {
                scratch.routed[p] = true;
            }
        }

        let rctx = RoundCtx {
            map: self.map,
            grad: &scratch.grad,
            hess: &scratch.hess,
            features: cols,
            params,
        };
        let tree_start = scratch.nodes.len();
        let depth = grow_tree(
            &self.backend,
            &rctx,
            rows,
            &mut scratch.leaf_of,
            &mut scratch.pools,
            &mut scratch.nodes,
        );
        scratch.tree_starts.push(tree_start);
        scratch.tree_depths.push(depth);

        // Single-tree flat compile for the rows training didn't route
        // (subsample remainder) and the eval set.
        scratch.single.recompile_single(
            &scratch.nodes[tree_start..],
            depth,
            0.0,
            params.objective,
            self.data.ncols(),
        );

        // Update raw predictions on every training row (standard GBM:
        // subsampling affects fitting, not the ensemble update) — from
        // the leaf cache where available, the flat engine otherwise.
        if subsampled {
            for (p, r) in scratch.raw.iter_mut().enumerate() {
                *r += if scratch.routed[p] {
                    scratch.leaf_of[p]
                } else {
                    scratch.single.sum_row(self.data.row(self.map[p]))
                };
            }
        } else {
            for (p, r) in scratch.raw.iter_mut().enumerate() {
                *r += scratch.leaf_of[p];
            }
        }
        let train_loss = params.objective.loss(self.labels, &scratch.raw);

        let eval_loss = if let Some((ed, el)) = self.eval {
            for (i, r) in scratch.eval_raw.iter_mut().enumerate() {
                *r += scratch.single.sum_row(ed.row(i));
            }
            Some(params.objective.loss(el, &scratch.eval_raw))
        } else {
            None
        };

        self.history.push(EvalRecord { round: self.round, train_loss, eval_loss });

        if let Some(el) = eval_loss {
            if el < self.best_eval - 1e-12 {
                self.best_eval = el;
                self.best_round = self.round + 1;
            } else if params.early_stopping_rounds > 0
                && self.round + 1 >= self.best_round + params.early_stopping_rounds
            {
                self.stopped = true;
            }
        } else {
            self.best_round = self.round + 1;
        }
        self.round += 1;
        true
    }

    /// Materialise the trained model and loss history. Trees are copied
    /// out of the scratch arena here, once per fit.
    pub fn finish(self) -> TrainReport {
        let mut n_trees = self.scratch.tree_starts.len();
        // With early stopping, keep only the trees up to the best round.
        if self.eval.is_some() && self.params.early_stopping_rounds > 0 {
            n_trees = n_trees.min(self.best_round.max(1));
        }
        let mut trees: Vec<Tree> = Vec::with_capacity(n_trees);
        for t in 0..n_trees {
            let start = self.scratch.tree_starts[t];
            let end =
                self.scratch.tree_starts.get(t + 1).copied().unwrap_or(self.scratch.nodes.len());
            trees.push(Tree::from_nodes(self.scratch.nodes[start..end].to_vec()));
        }
        let kept = trees.len();
        TrainReport {
            booster: Booster {
                trees,
                base_score: self.base_score,
                objective: self.params.objective,
                n_features: self.data.ncols(),
            },
            history: self.history,
            best_round: kept,
        }
    }
}

/// The boosting loop, shared by the standalone and shared-context entry
/// points: drive a [`FitRun`] to completion against the given scratch.
fn train_core(
    params: &Params,
    data: &Matrix,
    map: &[usize],
    labels: &[f64],
    backend: Backend,
    eval: Option<(&Matrix, &[f64])>,
    scratch: &mut TreeScratch,
) -> TrainReport {
    let mut run = FitRun::from_parts(params, data, map, labels, backend, eval, scratch);
    while run.round() {}
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = 2·x0 + noise-free step on x1.
    fn toy_regression(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x0 = (i % 10) as f64;
                let x1 = ((i * 7) % 13) as f64;
                vec![x0, x1]
            })
            .collect();
        let y: Vec<f64> =
            rows.iter().map(|r| 2.0 * r[0] + if r[1] > 6.0 { 5.0 } else { 0.0 }).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn regression_fits_toy_function() {
        let (x, y) = toy_regression(200);
        let params = Params { n_estimators: 100, max_depth: 3, ..Params::regression() };
        let model = Booster::train(&params, &x, &y).unwrap();
        let preds = model.predict(&x);
        let mae: f64 =
            y.iter().zip(&preds).map(|(a, b)| (a - b).abs()).sum::<f64>() / y.len() as f64;
        assert!(mae < 0.3, "MAE {mae} too high on a noiseless toy problem");
    }

    #[test]
    fn training_loss_is_monotone_nonincreasing() {
        let (x, y) = toy_regression(100);
        let params = Params { n_estimators: 30, ..Params::regression() };
        let report = Booster::train_with_eval(&params, &x, &y, None).unwrap();
        for w in report.history.windows(2) {
            assert!(
                w[1].train_loss <= w[0].train_loss + 1e-9,
                "loss went up: {} -> {}",
                w[0].train_loss,
                w[1].train_loss
            );
        }
    }

    #[test]
    fn classification_learns_separable_classes() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 20) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| if r[0] >= 10.0 { 1.0 } else { 0.0 }).collect();
        let x = Matrix::from_rows(&rows);
        let params = Params { n_estimators: 50, max_depth: 2, ..Params::binary(1.0) };
        let model = Booster::train(&params, &x, &y).unwrap();
        let preds = model.predict(&x);
        for (p, t) in preds.iter().zip(&y) {
            assert!((*p >= 0.5) == (*t == 1.0), "p={p} t={t}");
            assert!((0.0..=1.0).contains(p));
        }
    }

    #[test]
    fn early_stopping_truncates_trees() {
        let (x, y) = toy_regression(120);
        // Train on the first 80 rows, eval on the last 40.
        let train_idx: Vec<usize> = (0..80).collect();
        let eval_idx: Vec<usize> = (80..120).collect();
        let xt = x.take_rows(&train_idx);
        let yt: Vec<f64> = train_idx.iter().map(|&i| y[i]).collect();
        let xe = x.take_rows(&eval_idx);
        let ye: Vec<f64> = eval_idx.iter().map(|&i| y[i]).collect();
        let params = Params { n_estimators: 500, early_stopping_rounds: 5, ..Params::regression() };
        let report = Booster::train_with_eval(&params, &xt, &yt, Some((&xe, &ye))).unwrap();
        assert!(report.booster.trees().len() < 500, "early stopping never fired");
        assert_eq!(report.booster.trees().len(), report.best_round);
    }

    #[test]
    fn subsampling_still_learns() {
        let (x, y) = toy_regression(300);
        let params = Params {
            n_estimators: 120,
            subsample: 0.7,
            colsample_bytree: 0.5,
            ..Params::regression()
        };
        let model = Booster::train(&params, &x, &y).unwrap();
        let preds = model.predict(&x);
        let mae: f64 =
            y.iter().zip(&preds).map(|(a, b)| (a - b).abs()).sum::<f64>() / y.len() as f64;
        assert!(mae < 1.0, "MAE {mae}");
    }

    #[test]
    fn training_is_seed_deterministic() {
        let (x, y) = toy_regression(100);
        let params = Params { n_estimators: 10, subsample: 0.8, ..Params::regression() };
        let a = Booster::train(&params, &x, &y).unwrap();
        let b = Booster::train(&params, &x, &y).unwrap();
        assert_eq!(a, b);
        let c = Booster::train(&Params { seed: 7, ..params }, &x, &y).unwrap();
        assert_ne!(a, c, "different seed should change subsampling");
    }

    #[test]
    fn hist_method_matches_exact_quality() {
        let (x, y) = toy_regression(300);
        let exact =
            Booster::train(&Params { n_estimators: 50, ..Params::regression() }, &x, &y).unwrap();
        let hist = Booster::train(
            &Params {
                n_estimators: 50,
                tree_method: TreeMethod::Hist { max_bins: 64 },
                ..Params::regression()
            },
            &x,
            &y,
        )
        .unwrap();
        let pe = exact.predict(&x);
        let ph = hist.predict(&x);
        let mae_e: f64 =
            y.iter().zip(&pe).map(|(a, b)| (a - b).abs()).sum::<f64>() / y.len() as f64;
        let mae_h: f64 =
            y.iter().zip(&ph).map(|(a, b)| (a - b).abs()).sum::<f64>() / y.len() as f64;
        // With only 10/13 distinct values per feature the cut sets are
        // exact, so quality must be essentially identical.
        assert!((mae_e - mae_h).abs() < 1e-6, "exact {mae_e} vs hist {mae_h}");
    }

    #[test]
    fn missing_features_are_usable() {
        // x0 informative but 30% missing; the model must still beat the mean.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let x0 = if i % 10 < 3 { f64::NAN } else { (i % 17) as f64 };
                vec![x0]
            })
            .collect();
        let y: Vec<f64> =
            (0..200).map(|i| if i % 10 < 3 { 8.0 } else { (i % 17) as f64 }).collect();
        let x = Matrix::from_rows(&rows);
        let params = Params { n_estimators: 80, max_depth: 3, ..Params::regression() };
        let model = Booster::train(&params, &x, &y).unwrap();
        let preds = model.predict(&x);
        let mae: f64 =
            y.iter().zip(&preds).map(|(a, b)| (a - b).abs()).sum::<f64>() / y.len() as f64;
        assert!(mae < 1.0, "missing-value routing failed, MAE {mae}");
    }

    #[test]
    fn empty_dataset_rejected() {
        let x = Matrix::zeros(0, 3);
        let err = Booster::train(&Params::regression(), &x, &[]).unwrap_err();
        assert_eq!(err, TrainError::EmptyDataset);
    }

    #[test]
    fn label_length_mismatch_rejected() {
        let x = Matrix::zeros(3, 1);
        let err = Booster::train(&Params::regression(), &x, &[1.0]).unwrap_err();
        assert!(matches!(err, TrainError::LabelLength { rows: 3, labels: 1 }));
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let (x, y) = toy_regression(50);
        let model =
            Booster::train(&Params { n_estimators: 2, ..Params::regression() }, &x, &y).unwrap();
        let bad = Matrix::zeros(2, 5);
        assert!(matches!(
            model.try_predict(&bad),
            Err(PredictError::FeatureCount { expected: 2, actual: 5 })
        ));
    }

    #[test]
    fn constant_labels_yield_base_score_only() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![4.0, 4.0, 4.0];
        let model =
            Booster::train(&Params { n_estimators: 5, ..Params::regression() }, &x, &y).unwrap();
        for p in model.predict(&x) {
            assert!((p - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn covers_are_conserved_down_every_tree() {
        // cover(parent) == cover(left) + cover(right): path-dependent
        // TreeSHAP relies on this to read covers as branch probabilities.
        let (x, y) = toy_regression(150);
        let model =
            Booster::train(&Params { n_estimators: 15, ..Params::regression() }, &x, &y).unwrap();
        for tree in model.trees() {
            for node in tree.nodes() {
                if let crate::tree::Node::Split { left, right, cover, .. } = node {
                    let sum = tree.nodes()[*left].cover() + tree.nodes()[*right].cover();
                    assert!(
                        (sum - cover).abs() < 1e-9 * cover.max(1.0),
                        "cover leak: parent {cover}, children {sum}"
                    );
                }
            }
        }
    }

    #[test]
    fn predictions_invariant_under_positive_affine_feature_transform() {
        // Exact split finding depends only on value order, so scaling
        // and shifting a feature must leave the learned function (as a
        // map from rows to predictions) unchanged.
        let (x, y) = toy_regression(120);
        let params = Params { n_estimators: 20, ..Params::regression() };
        let base = Booster::train(&params, &x, &y).unwrap();
        let transformed_rows: Vec<Vec<f64>> =
            x.rows().map(|r| r.iter().map(|v| v * 3.0 + 11.0).collect()).collect();
        let xt = Matrix::from_rows(&transformed_rows);
        let transformed = Booster::train(&params, &xt, &y).unwrap();
        for i in 0..x.nrows() {
            let a = base.predict_row(x.row(i));
            let b = transformed.predict_row(xt.row(i));
            assert!((a - b).abs() < 1e-9, "row {i}: {a} vs {b}");
        }
    }

    #[test]
    fn trees_validate_structurally() {
        let (x, y) = toy_regression(150);
        let model =
            Booster::train(&Params { n_estimators: 20, ..Params::regression() }, &x, &y).unwrap();
        for t in model.trees() {
            assert!(t.validate());
            assert!(t.depth() <= 4);
        }
    }
}
