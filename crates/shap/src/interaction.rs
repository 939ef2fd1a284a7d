//! SHAP interaction values (Lundberg, Erion & Lee 2018, §4.2 /
//! Algorithm 3): a matrix `Φ` whose off-diagonal `Φ[i][j]` captures the
//! interaction effect between features `i` and `j` on one prediction and
//! whose diagonal holds each feature's main effect, such that every row
//! sums to the feature's ordinary SHAP value and the whole matrix sums
//! to `f(x) − E[f(X)]`.
//!
//! Computed via *conditional* TreeSHAP: `Φ[i][j] = (φ_i(x | j follows
//! the instance's branch) − φ_i(x | j follows the background)) / 2`.

use crate::explainer::{tree_shap_conditional_with, Condition, PathArena};
use msaw_gbdt::Booster;

/// The interaction matrix for one explained row.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionValues {
    /// Row-major `n_features × n_features` matrix.
    pub values: Vec<f64>,
    /// Feature count (matrix side length).
    pub n_features: usize,
}

impl InteractionValues {
    /// Entry accessor.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.n_features + j]
    }

    /// Row sums — by construction the ordinary SHAP values.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.n_features).map(|i| (0..self.n_features).map(|j| self.get(i, j)).sum()).collect()
    }

    /// The `k` strongest off-diagonal pairs by |interaction|, each pair
    /// reported once (`i < j`), descending.
    pub fn top_pairs(&self, k: usize) -> Vec<(usize, usize, f64)> {
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..self.n_features {
            for j in i + 1..self.n_features {
                pairs.push((i, j, self.get(i, j)));
            }
        }
        pairs.sort_by(|a, b| b.2.abs().partial_cmp(&a.2.abs()).expect("finite values"));
        pairs.truncate(k);
        pairs
    }
}

/// Compute SHAP interaction values for one row (raw-score space).
///
/// Cost is `n_features + 1` full TreeSHAP passes; they are mutually
/// independent, so the passes fan across the shared bounded worker
/// pool. Reassembly is keyed by conditioned feature, making the matrix
/// byte-identical at any worker count.
pub fn shap_interaction_values(model: &Booster, row: &[f64]) -> InteractionValues {
    shap_interaction_values_with_workers(
        model,
        row,
        msaw_parallel::default_workers(model.n_features() + 1),
    )
}

/// One conditional pass's accumulators: either the unconditional φ, or
/// a feature's (fixed-present, fixed-absent) pair.
enum Pass {
    Phi(Vec<f64>),
    OnOff(Vec<f64>, Vec<f64>),
}

/// [`shap_interaction_values`] with an explicit worker count — the hook
/// the equivalence suite uses to pin determinism across pool sizes.
pub fn shap_interaction_values_with_workers(
    model: &Booster,
    row: &[f64],
    workers: usize,
) -> InteractionValues {
    let m = model.n_features();
    assert_eq!(row.len(), m, "feature count mismatch");
    // Jobs 0..m: feature j's FixedPresent/FixedAbsent pair. Job m: the
    // ordinary (unconditional) pass for the diagonal.
    let passes = msaw_parallel::try_run_scratch_on(workers, m + 1, PathArena::new, |arena, j| {
        if j == m {
            let mut phi = vec![0.0; m];
            for tree in model.trees() {
                tree_shap_conditional_with(tree, row, &mut phi, Condition::None, 0, arena);
            }
            Pass::Phi(phi)
        } else {
            let mut on = vec![0.0; m];
            let mut off = vec![0.0; m];
            for tree in model.trees() {
                tree_shap_conditional_with(tree, row, &mut on, Condition::FixedPresent, j, arena);
                tree_shap_conditional_with(tree, row, &mut off, Condition::FixedAbsent, j, arena);
            }
            Pass::OnOff(on, off)
        }
    })
    .unwrap_or_else(|e| panic!("{e}"));

    let mut values = vec![0.0; m * m];
    let mut phi = Vec::new();
    for (j, pass) in passes.into_iter().enumerate() {
        match pass {
            Pass::Phi(p) => phi = p,
            Pass::OnOff(on, off) => {
                for i in 0..m {
                    if i == j {
                        continue;
                    }
                    let v = (on[i] - off[i]) / 2.0;
                    values[i * m + j] = v;
                }
            }
        }
    }
    // Diagonal: the main effect is what remains of φ_i after all
    // pairwise interactions are attributed.
    for i in 0..m {
        let off_sum: f64 = (0..m).filter(|&j| j != i).map(|j| values[i * m + j]).sum();
        values[i * m + i] = phi[i] - off_sum;
    }
    InteractionValues { values, n_features: m }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::explainer::TreeExplainer;
    use msaw_gbdt::Params;
    use msaw_tabular::Matrix;

    /// y has a strong x0·x1 interaction plus additive x2.
    fn interacting_model() -> (Booster, Matrix) {
        let rows: Vec<Vec<f64>> = (0..160)
            .map(|i| vec![(i % 2) as f64, ((i / 2) % 2) as f64, ((i / 4) % 5) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 4.0 * r[0] * r[1] + 0.5 * r[2]).collect();
        let x = Matrix::from_rows(&rows);
        let model = Booster::train(
            &Params { n_estimators: 20, max_depth: 3, ..Params::regression() },
            &x,
            &y,
        )
        .unwrap();
        (model, x)
    }

    #[test]
    fn rows_sum_to_ordinary_shap_values() {
        let (model, x) = interacting_model();
        let explainer = TreeExplainer::new(&model);
        for i in [0usize, 7, 33] {
            let inter = shap_interaction_values(&model, x.row(i));
            let phi = explainer.shap_values_row(x.row(i));
            for (a, b) in inter.row_sums().iter().zip(&phi.values) {
                assert!((a - b).abs() < 1e-7, "row sum {a} vs shap {b}");
            }
        }
    }

    #[test]
    fn matrix_total_equals_prediction_gap() {
        let (model, x) = interacting_model();
        let explainer = TreeExplainer::new(&model);
        let row = x.row(3);
        let inter = shap_interaction_values(&model, row);
        let total: f64 = inter.values.iter().sum();
        let expected = model.predict_raw_row(row) - explainer.expected_value();
        assert!((total - expected).abs() < 1e-7, "{total} vs {expected}");
    }

    #[test]
    fn matrix_is_symmetric() {
        let (model, x) = interacting_model();
        let inter = shap_interaction_values(&model, x.row(1));
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (inter.get(i, j) - inter.get(j, i)).abs() < 1e-7,
                    "Φ[{i}][{j}] != Φ[{j}][{i}]"
                );
            }
        }
    }

    #[test]
    fn interacting_pair_dominates() {
        let (model, x) = interacting_model();
        // Pick a row where the x0·x1 term is active.
        let active = (0..x.nrows()).find(|&i| x.get(i, 0) == 1.0 && x.get(i, 1) == 1.0).unwrap();
        let inter = shap_interaction_values(&model, x.row(active));
        let top = inter.top_pairs(1);
        assert_eq!((top[0].0, top[0].1), (0, 1), "x0–x1 must be the top pair");
        assert!(top[0].2.abs() > 0.1);
        // x2 enters the target additively, so its interactions reflect
        // only the trained trees' incidental feature mixing — they must
        // be far smaller than the real x0–x1 interaction.
        assert!(inter.get(0, 2).abs() < top[0].2.abs() * 0.25, "{}", inter.get(0, 2));
        assert!(inter.get(1, 2).abs() < top[0].2.abs() * 0.25);
    }

    #[test]
    fn matches_brute_force_interactions() {
        let (model, x) = interacting_model();
        for i in [0usize, 5, 21] {
            let row = x.row(i);
            let fast = shap_interaction_values(&model, row);
            let slow = brute::brute_force_interactions(&model, row);
            for a in 0..3 {
                for b in 0..3 {
                    assert!(
                        (fast.get(a, b) - slow[a * 3 + b]).abs() < 1e-7,
                        "row {i} Φ[{a}][{b}]: fast {} vs brute {}",
                        fast.get(a, b),
                        slow[a * 3 + b]
                    );
                }
            }
        }
    }
}
