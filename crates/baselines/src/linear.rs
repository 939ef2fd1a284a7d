//! Ridge-regularised linear / logistic regression — the classical
//! clinical-statistics baseline, trained by full-batch gradient descent
//! on standardised features.
//!
//! Missing values are replaced by the feature's training mean, which is
//! equivalent to a zero contribution after standardisation; the learned
//! means are stored in the model so inference applies the same rule.

use msaw_gbdt::{Objective, TrainError};
use msaw_tabular::Matrix;
use serde::{Deserialize, Serialize};

/// Linear-model hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearParams {
    /// Gradient-descent iterations.
    pub n_iters: usize,
    /// Step size.
    pub learning_rate: f64,
    /// L2 penalty on the weights (not the intercept).
    pub lambda: f64,
    /// Loss function.
    pub objective: Objective,
}

impl LinearParams {
    /// Defaults for regression.
    pub fn regression() -> Self {
        LinearParams {
            n_iters: 800,
            learning_rate: 1.5,
            lambda: 1e-3,
            objective: Objective::SquaredError,
        }
    }

    /// Defaults for binary classification.
    pub fn binary() -> Self {
        LinearParams {
            objective: Objective::Logistic { scale_pos_weight: 1.0 },
            ..LinearParams::regression()
        }
    }
}

/// A trained linear model over standardised features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Weight per (standardised) feature.
    pub weights: Vec<f64>,
    /// Intercept in raw-score space.
    pub intercept: f64,
    /// Per-feature training means (also the missing-value fill).
    pub means: Vec<f64>,
    /// Per-feature training standard deviations (1 when degenerate).
    pub stds: Vec<f64>,
    objective: Objective,
}

impl LinearModel {
    /// Train on `data` (NaN = missing) against `labels`.
    pub fn train(params: &LinearParams, data: &Matrix, labels: &[f64]) -> Result<Self, TrainError> {
        if data.nrows() == 0 {
            return Err(TrainError::EmptyDataset);
        }
        if labels.len() != data.nrows() {
            return Err(TrainError::LabelLength { rows: data.nrows(), labels: labels.len() });
        }
        params.objective.validate_labels(labels)?;
        let n = data.nrows();
        let d = data.ncols();

        // Missing-aware standardisation statistics.
        let mut means = vec![0.0f64; d];
        let mut stds = vec![1.0f64; d];
        for j in 0..d {
            let col = data.column(j);
            let present: Vec<f64> = col.iter().copied().filter(|v| !v.is_nan()).collect();
            if present.is_empty() {
                continue;
            }
            let mean = present.iter().sum::<f64>() / present.len() as f64;
            let var =
                present.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / present.len() as f64;
            means[j] = mean;
            stds[j] = if var > 1e-12 { var.sqrt() } else { 1.0 };
        }

        // Standardised dense design matrix (missing → 0 after centring).
        let mut z = vec![0.0f64; n * d];
        for i in 0..n {
            for j in 0..d {
                let v = data.get(i, j);
                z[i * d + j] = if v.is_nan() { 0.0 } else { (v - means[j]) / stds[j] };
            }
        }

        // Correlated features (the 56 PRO items all track the same
        // latent state) inflate the Gram matrix's top eigenvalue far
        // beyond 1, so a fixed step diverges. Estimate λ_max by power
        // iteration and scale the step to stay inside the stable region.
        let lambda_max = {
            let mut v = vec![1.0 / (d as f64).sqrt(); d];
            let mut lambda = 1.0f64;
            for _ in 0..10 {
                // u = Zᵀ(Z v) / n
                let mut u = vec![0.0f64; d];
                for i in 0..n {
                    let zr = &z[i * d..(i + 1) * d];
                    let s = dot(zr, &v);
                    for (uj, &zv) in u.iter_mut().zip(zr) {
                        *uj += s * zv;
                    }
                }
                for uj in &mut u {
                    *uj /= n as f64;
                }
                lambda = dot(&u, &u).sqrt();
                if lambda <= 1e-12 {
                    lambda = 1.0;
                    break;
                }
                for (vj, &uj) in v.iter_mut().zip(&u) {
                    *vj = uj / lambda;
                }
            }
            lambda.max(1.0)
        };
        let step = params.learning_rate / lambda_max;

        let mut weights = vec![0.0f64; d];
        let mut intercept = params.objective.base_score(labels);
        let mut raw = vec![0.0f64; n];
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        for _ in 0..params.n_iters {
            for i in 0..n {
                let zr = &z[i * d..(i + 1) * d];
                raw[i] = intercept + dot(zr, &weights);
            }
            params.objective.grad_hess(labels, &raw, &mut grad, &mut hess);
            // Average gradient over rows, plus the ridge term.
            let mut wgrad = vec![0.0f64; d];
            let mut igrad = 0.0f64;
            for i in 0..n {
                let zr = &z[i * d..(i + 1) * d];
                for (wg, &zv) in wgrad.iter_mut().zip(zr) {
                    *wg += grad[i] * zv;
                }
                igrad += grad[i];
            }
            let inv_n = 1.0 / n as f64;
            for (w, wg) in weights.iter_mut().zip(&wgrad) {
                *w -= step * (wg * inv_n + params.lambda * *w);
            }
            intercept -= step * igrad * inv_n;
        }

        Ok(LinearModel { weights, intercept, means, stds, objective: params.objective })
    }

    /// Raw score for a row.
    pub fn predict_raw_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.weights.len());
        let mut acc = self.intercept;
        for (j, &v) in row.iter().enumerate() {
            if !v.is_nan() {
                acc += self.weights[j] * (v - self.means[j]) / self.stds[j];
            }
        }
        acc
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
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![(i % 10) as f64, ((i * 7) % 5) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 3.0 * r[1] + 1.0).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn recovers_a_linear_function() {
        let (x, y) = linear_data(200);
        let model = LinearModel::train(&LinearParams::regression(), &x, &y).unwrap();
        let preds = model.predict(&x);
        let mae: f64 =
            y.iter().zip(&preds).map(|(a, b)| (a - b).abs()).sum::<f64>() / y.len() as f64;
        assert!(mae < 0.05, "MAE {mae} on an exactly linear target");
    }

    #[test]
    fn logistic_separates_classes() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 20) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| f64::from(r[0] >= 10.0)).collect();
        let x = Matrix::from_rows(&rows);
        let model = LinearModel::train(&LinearParams::binary(), &x, &y).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let p = model.predict_row(row);
            assert!((0.0..=1.0).contains(&p));
            assert_eq!(p >= 0.5, y[i] == 1.0, "row {i}: p={p}");
        }
    }

    #[test]
    fn missing_values_contribute_nothing() {
        let (x, y) = linear_data(100);
        let model = LinearModel::train(&LinearParams::regression(), &x, &y).unwrap();
        // A fully-missing row predicts the centred intercept.
        let p = model.predict_raw_row(&[f64::NAN, f64::NAN]);
        assert!((p - model.intercept).abs() < 1e-12);
    }

    #[test]
    fn constant_feature_is_harmless() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 5) as f64, 3.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let model = LinearModel::train(&LinearParams::regression(), &x, &y).unwrap();
        assert!(model.weights.iter().all(|w| w.is_finite()));
        let preds = model.predict(&x);
        let mae: f64 =
            y.iter().zip(&preds).map(|(a, b)| (a - b).abs()).sum::<f64>() / y.len() as f64;
        assert!(mae < 0.05);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(LinearModel::train(&LinearParams::regression(), &Matrix::zeros(0, 1), &[]).is_err());
        assert!(
            LinearModel::train(&LinearParams::regression(), &Matrix::zeros(2, 1), &[1.0]).is_err()
        );
        let bin = LinearParams::binary();
        assert!(LinearModel::train(&bin, &Matrix::zeros(2, 1), &[0.5, 1.0]).is_err());
    }

    #[test]
    fn deterministic() {
        let (x, y) = linear_data(60);
        let a = LinearModel::train(&LinearParams::regression(), &x, &y).unwrap();
        let b = LinearModel::train(&LinearParams::regression(), &x, &y).unwrap();
        assert_eq!(a, b);
    }
}
