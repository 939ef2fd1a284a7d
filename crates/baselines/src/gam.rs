//! Generalised additive model via cyclic gradient boosting.
//!
//! `f(x) = base + Σ_j g_j(x_j)` where each shape function `g_j` is
//! piecewise constant over the feature's quantile bins (plus one bin
//! for missing values). Training visits features round-robin; each
//! visit applies one shrunken Newton step per bin — the univariate core
//! of the GA²M / EBM family. The model stays fully glass-box: every
//! prediction decomposes exactly into per-feature contributions.

use msaw_gbdt::binning::BinnedMatrix;
use msaw_gbdt::{Objective, TrainError};
use msaw_tabular::Matrix;
use serde::{Deserialize, Serialize};

/// GAM hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GamParams {
    /// Full passes over the feature set.
    pub n_rounds: usize,
    /// Shrinkage per bin update.
    pub learning_rate: f64,
    /// L2 regularisation on each bin's Newton step.
    pub lambda: f64,
    /// Quantile bins per feature.
    pub max_bins: u16,
    /// Loss function.
    pub objective: Objective,
}

impl GamParams {
    /// Defaults for regression.
    pub fn regression() -> Self {
        GamParams {
            n_rounds: 40,
            learning_rate: 0.25,
            lambda: 2.0,
            max_bins: 32,
            objective: Objective::SquaredError,
        }
    }

    /// Defaults for binary classification.
    pub fn binary() -> Self {
        GamParams {
            objective: Objective::Logistic { scale_pos_weight: 1.0 },
            ..GamParams::regression()
        }
    }
}

/// One feature's fitted shape function: an additive offset per bin.
/// Index `cuts.len()` (the last slot) is the missing-value bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeFunction {
    /// Bin boundaries (`v < cuts[i]` falls in bin `i` or lower).
    pub cuts: Vec<f64>,
    /// Additive contribution per bin; final entry = missing bin.
    pub values: Vec<f64>,
}

impl ShapeFunction {
    /// The contribution of a feature value.
    pub fn evaluate(&self, v: f64) -> f64 {
        if v.is_nan() {
            *self.values.last().expect("missing bin exists")
        } else {
            self.values[self.cuts.partition_point(|&c| c <= v)]
        }
    }
}

/// A trained additive model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdditiveModel {
    /// Constant raw offset.
    pub base_score: f64,
    /// One shape function per feature.
    pub shapes: Vec<ShapeFunction>,
    objective: Objective,
}

impl AdditiveModel {
    /// Train on `data` (NaN = missing) against `labels`.
    pub fn train(params: &GamParams, data: &Matrix, labels: &[f64]) -> Result<Self, TrainError> {
        if data.nrows() == 0 {
            return Err(TrainError::EmptyDataset);
        }
        if labels.len() != data.nrows() {
            return Err(TrainError::LabelLength { rows: data.nrows(), labels: labels.len() });
        }
        params.objective.validate_labels(labels)?;
        if params.n_rounds == 0 {
            return Err(TrainError::InvalidParam {
                name: "n_rounds",
                message: "must be positive".into(),
            });
        }

        let n = data.nrows();
        let binned = BinnedMatrix::fit(data, params.max_bins);
        // Pre-resolve each row's bin per feature (missing = last bin).
        let n_bins_of = |f: usize| binned.cuts(f).len() + 2; // value bins + missing
        let mut shapes: Vec<ShapeFunction> = (0..data.ncols())
            .map(|f| ShapeFunction {
                cuts: binned.cuts(f).to_vec(),
                values: vec![0.0; n_bins_of(f)],
            })
            .collect();
        let row_bins: Vec<Vec<u32>> = (0..data.ncols())
            .map(|f| {
                (0..n)
                    .map(|i| match binned.bin(i, f) {
                        Some(b) => b as u32,
                        None => (n_bins_of(f) - 1) as u32,
                    })
                    .collect()
            })
            .collect();

        let base_score = params.objective.base_score(labels);
        let mut raw = vec![base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        for _round in 0..params.n_rounds {
            for f in 0..data.ncols() {
                params.objective.grad_hess(labels, &raw, &mut grad, &mut hess);
                let n_bins = n_bins_of(f);
                let mut g = vec![0.0f64; n_bins];
                let mut h = vec![0.0f64; n_bins];
                for i in 0..n {
                    let b = row_bins[f][i] as usize;
                    g[b] += grad[i];
                    h[b] += hess[i];
                }
                let shape = &mut shapes[f];
                let mut deltas = vec![0.0f64; n_bins];
                for b in 0..n_bins {
                    if h[b] > 0.0 {
                        deltas[b] = -g[b] / (h[b] + params.lambda) * params.learning_rate;
                        shape.values[b] += deltas[b];
                    }
                }
                for i in 0..n {
                    raw[i] += deltas[row_bins[f][i] as usize];
                }
            }
        }

        // Centre each shape function so the decomposition is identified
        // (mean contribution folded into the base score).
        let mut model = AdditiveModel { base_score, shapes, objective: params.objective };
        for f in 0..data.ncols() {
            let mean: f64 =
                (0..n).map(|i| model.shapes[f].evaluate(data.get(i, f))).sum::<f64>() / n as f64;
            for v in &mut model.shapes[f].values {
                *v -= mean;
            }
            model.base_score += mean;
        }
        Ok(model)
    }

    /// Raw (untransformed) score for a row.
    pub fn predict_raw_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.shapes.len());
        self.base_score + row.iter().zip(&self.shapes).map(|(&v, s)| s.evaluate(v)).sum::<f64>()
    }

    /// Transformed prediction for a row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.objective.transform(self.predict_raw_row(row))
    }

    /// Transformed predictions for a matrix, fanned across the shared
    /// worker pool in row blocks (per-row values unchanged).
    pub fn predict(&self, data: &Matrix) -> Vec<f64> {
        let workers = msaw_parallel::available_workers();
        msaw_parallel::try_run_blocks_on(workers, data.nrows(), 256, |range| {
            range.map(|i| self.predict_row(data.row(i))).collect()
        })
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Exact per-feature contributions for a row (raw-score space):
    /// glass-box by construction, no post-hoc approximation needed.
    pub fn contributions(&self, row: &[f64]) -> Vec<f64> {
        row.iter().zip(&self.shapes).map(|(&v, s)| s.evaluate(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn additive_data(n: usize) -> (Matrix, Vec<f64>) {
        // y = step(x0) + linear(x1): perfectly additive — a GAM's home turf.
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![(i % 10) as f64, ((i * 3) % 7) as f64]).collect();
        let y: Vec<f64> =
            rows.iter().map(|r| if r[0] > 4.0 { 3.0 } else { 0.0 } + 0.5 * r[1]).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_an_additive_function_well() {
        let (x, y) = additive_data(200);
        let model = AdditiveModel::train(&GamParams::regression(), &x, &y).unwrap();
        let preds = model.predict(&x);
        let mae: f64 =
            y.iter().zip(&preds).map(|(a, b)| (a - b).abs()).sum::<f64>() / y.len() as f64;
        assert!(mae < 0.15, "MAE {mae} on a purely additive target");
    }

    #[test]
    fn contributions_decompose_the_prediction_exactly() {
        let (x, y) = additive_data(120);
        let model = AdditiveModel::train(&GamParams::regression(), &x, &y).unwrap();
        for i in 0..x.nrows() {
            let row = x.row(i);
            let total = model.base_score + model.contributions(row).iter().sum::<f64>();
            assert!((total - model.predict_raw_row(row)).abs() < 1e-12);
        }
    }

    #[test]
    fn missing_values_get_their_own_bin() {
        let rows: Vec<Vec<f64>> =
            (0..100).map(|i| vec![if i % 4 == 0 { f64::NAN } else { (i % 10) as f64 }]).collect();
        let y: Vec<f64> =
            (0..100).map(|i| if i % 4 == 0 { 9.0 } else { (i % 10) as f64 * 0.1 }).collect();
        let x = Matrix::from_rows(&rows);
        let model = AdditiveModel::train(&GamParams::regression(), &x, &y).unwrap();
        // The missing bin must have learned the elevated target.
        let p_missing = model.predict_row(&[f64::NAN]);
        let p_present = model.predict_row(&[5.0]);
        assert!(p_missing > p_present + 5.0, "{p_missing} vs {p_present}");
    }

    #[test]
    fn classification_probabilities_are_bounded_and_ordered() {
        let rows: Vec<Vec<f64>> = (0..120).map(|i| vec![(i % 12) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| f64::from(r[0] >= 6.0)).collect();
        let x = Matrix::from_rows(&rows);
        let model = AdditiveModel::train(&GamParams::binary(), &x, &y).unwrap();
        let lo = model.predict_row(&[1.0]);
        let hi = model.predict_row(&[10.0]);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        assert!(hi > 0.8 && lo < 0.2, "lo {lo} hi {hi}");
    }

    #[test]
    fn cannot_model_a_pure_interaction() {
        // y = XOR(x0>0.5, x1>0.5): zero additive signal. The GAM must
        // degenerate to ≈ the mean — this is exactly the capacity gap
        // that makes trees outperform it in the paper.
        let rows: Vec<Vec<f64>> =
            (0..200).map(|i| vec![(i % 2) as f64, ((i / 2) % 2) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| f64::from((r[0] > 0.5) != (r[1] > 0.5))).collect();
        let x = Matrix::from_rows(&rows);
        let model = AdditiveModel::train(&GamParams::regression(), &x, &y).unwrap();
        for i in 0..x.nrows() {
            let p = model.predict_row(x.row(i));
            assert!((p - 0.5).abs() < 0.05, "GAM should stay near the mean, got {p}");
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let x = Matrix::zeros(0, 2);
        assert!(matches!(
            AdditiveModel::train(&GamParams::regression(), &x, &[]),
            Err(TrainError::EmptyDataset)
        ));
        let x = Matrix::zeros(3, 1);
        assert!(matches!(
            AdditiveModel::train(&GamParams::regression(), &x, &[1.0]),
            Err(TrainError::LabelLength { .. })
        ));
        let bad = GamParams { n_rounds: 0, ..GamParams::regression() };
        assert!(AdditiveModel::train(&bad, &Matrix::zeros(3, 1), &[1.0; 3]).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = additive_data(80);
        let a = AdditiveModel::train(&GamParams::regression(), &x, &y).unwrap();
        let b = AdditiveModel::train(&GamParams::regression(), &x, &y).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shape_functions_are_centred() {
        let (x, y) = additive_data(150);
        let model = AdditiveModel::train(&GamParams::regression(), &x, &y).unwrap();
        for f in 0..x.ncols() {
            let mean: f64 =
                (0..x.nrows()).map(|i| model.shapes[f].evaluate(x.get(i, f))).sum::<f64>()
                    / x.nrows() as f64;
            assert!(mean.abs() < 1e-9, "shape {f} mean {mean}");
        }
    }
}
