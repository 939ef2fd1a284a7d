//! Exact path-dependent TreeSHAP (Lundberg, Erion & Lee 2018, Alg. 2).
//!
//! For each tree the algorithm walks every root-to-leaf path once while
//! maintaining, for the set of *unique* features on the path, the
//! proportion of feature-subset permutations that would send the instance
//! down the path ("one fraction") versus the proportion of background
//! mass that flows down it ("zero fraction", derived from training
//! covers). The bookkeeping makes the Shapley summation over all 2^M
//! feature subsets collapse into an O(L·D²) scan per tree.
//!
//! The traversal runs inside a [`PathArena`]: one preallocated buffer
//! holding every recursion level's unique-feature path as a contiguous
//! segment, so descending into a branch is a `copy_within` instead of a
//! fresh `Vec` allocation per split node. The arithmetic is untouched —
//! output is bit-identical to the clone-per-branch recursion retained as
//! the oracle in `tests/reference`, and batch entry points fan rows
//! across the shared `msaw-parallel` pool with slot-indexed reassembly,
//! so results are byte-identical at any worker count.

use msaw_gbdt::{Booster, Node, Tree};
use msaw_tabular::Matrix;

/// The attribution of one prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Per-feature Shapley values (raw-score space).
    pub values: Vec<f64>,
    /// The model's expected raw output over the training distribution
    /// (the attribution baseline).
    pub base_value: f64,
    /// The raw prediction for the explained row; equals
    /// `base_value + values.iter().sum()` up to float error.
    pub prediction: f64,
}

impl Explanation {
    /// Features ranked by descending |SHAP|, ties broken by index.
    pub fn ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_by(|&a, &b| {
            self.values[b]
                .abs()
                .partial_cmp(&self.values[a].abs())
                .expect("finite SHAP values")
                .then(a.cmp(&b))
        });
        order
    }

    /// The `k` most influential `(feature, shap_value)` pairs.
    pub fn top_k(&self, k: usize) -> Vec<(usize, f64)> {
        self.ranking().into_iter().take(k).map(|f| (f, self.values[f])).collect()
    }
}

/// SHAP explainer bound to a trained booster.
#[derive(Debug, Clone)]
pub struct TreeExplainer<'m> {
    model: &'m Booster,
    expected_value: f64,
}

impl<'m> TreeExplainer<'m> {
    /// Build an explainer; precomputes the cover-weighted expected value.
    pub fn new(model: &'m Booster) -> Self {
        let expected_value =
            model.base_score() + model.trees().iter().map(tree_expected_value).sum::<f64>();
        TreeExplainer { model, expected_value }
    }

    /// The attribution baseline `E[f(X)]` in raw-score space.
    pub fn expected_value(&self) -> f64 {
        self.expected_value
    }

    /// SHAP values for one row (raw-score space).
    pub fn shap_values_row(&self, row: &[f64]) -> Explanation {
        self.shap_values_row_with(row, &mut PathArena::new())
    }

    /// [`Self::shap_values_row`] reusing a caller-owned traversal arena —
    /// the allocation-free path for callers explaining many rows.
    pub fn shap_values_row_with(&self, row: &[f64], arena: &mut PathArena) -> Explanation {
        Explanation {
            values: self.shap_row_values(row, arena),
            base_value: self.expected_value,
            prediction: self.model.predict_raw_row(row),
        }
    }

    /// Just the per-feature attributions for one row, into a fresh vec.
    fn shap_row_values(&self, row: &[f64], arena: &mut PathArena) -> Vec<f64> {
        assert_eq!(row.len(), self.model.n_features(), "feature count mismatch");
        let mut values = vec![0.0; row.len()];
        for tree in self.model.trees() {
            tree_shap_conditional_with(tree, row, &mut values, Condition::None, 0, arena);
        }
        values
    }

    /// SHAP values for every row of a matrix; returns a matrix of the
    /// same shape.
    ///
    /// Rows are fanned across the shared bounded worker pool (each
    /// worker reusing one traversal arena) and reassembled by row
    /// index, so the matrix is byte-identical at any worker count.
    pub fn shap_values(&self, data: &Matrix) -> Matrix {
        self.shap_values_with_workers(data, msaw_parallel::default_workers(data.nrows()))
    }

    /// [`Self::shap_values`] with an explicit worker count — the hook the
    /// equivalence suite uses to pin determinism across pool sizes.
    pub fn shap_values_with_workers(&self, data: &Matrix, workers: usize) -> Matrix {
        let rows =
            msaw_parallel::try_run_scratch_on(workers, data.nrows(), PathArena::new, |arena, i| {
                self.shap_row_values(data.row(i), arena)
            })
            .unwrap_or_else(|e| panic!("{e}"));
        let mut out = Matrix::zeros(data.nrows(), data.ncols());
        for (i, values) in rows.iter().enumerate() {
            for (j, v) in values.iter().enumerate() {
                out.set(i, j, *v);
            }
        }
        out
    }
}

/// Cover-weighted mean leaf value of a tree — its expected raw output
/// under the training distribution the covers encode.
pub fn tree_expected_value(tree: &Tree) -> f64 {
    fn rec(tree: &Tree, idx: usize) -> f64 {
        match &tree.nodes()[idx] {
            Node::Leaf { weight, .. } => *weight,
            Node::Split { left, right, cover, .. } => {
                let cl = tree.nodes()[*left].cover();
                let cr = tree.nodes()[*right].cover();
                debug_assert!(*cover > 0.0);
                (cl * rec(tree, *left) + cr * rec(tree, *right)) / cover
            }
        }
    }
    if tree.is_empty() {
        0.0
    } else {
        rec(tree, 0)
    }
}

/// One element of the unique-feature path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PathElement {
    /// Feature index; `usize::MAX` marks the artificial root element.
    pub(crate) feature: usize,
    /// Fraction of background (cover) mass flowing down this branch.
    pub(crate) zero_fraction: f64,
    /// 1 when the instance follows the branch, 0 otherwise.
    pub(crate) one_fraction: f64,
    /// Permutation-weight accumulator.
    pub(crate) pweight: f64,
}

pub(crate) const ROOT_FEATURE: usize = usize::MAX;

/// A reusable traversal arena: every recursion level's unique-feature
/// path lives as a contiguous segment of one flat buffer.
///
/// Level `d`'s segment starts where level `d-1`'s ends, so descending
/// into a branch copies the parent segment forward (`copy_within`)
/// instead of cloning a `Vec` — the buffer peaks at the
/// `(depth+1)(depth+2)/2` triangular bound once and is then reused for
/// every subsequent tree and row. The element values and the order of
/// operations on them are exactly those of the clone-based recursion
/// (the oracle in `tests/reference`), so attributions are bit-identical.
#[derive(Debug, Default)]
pub struct PathArena {
    elements: Vec<PathElement>,
}

impl PathArena {
    /// An empty arena; it grows to a tree's triangular bound on first
    /// use and is reused across trees and rows thereafter.
    pub fn new() -> Self {
        PathArena { elements: Vec::new() }
    }

    /// Make room for a traversal of a tree of the given depth.
    fn prepare(&mut self, depth: usize) {
        let cap = (depth + 2) * (depth + 3) / 2;
        if self.elements.len() < cap {
            self.elements.resize(cap, PathElement::default());
        }
    }
}

/// Grow the path by one split (EXTEND). `path` holds the previous
/// elements plus one uninitialised slot at the end, which this writes.
fn extend_path(path: &mut [PathElement], zero_fraction: f64, one_fraction: f64, feature: usize) {
    let depth = path.len() - 1;
    path[depth] = PathElement {
        feature,
        zero_fraction,
        one_fraction,
        pweight: if depth == 0 { 1.0 } else { 0.0 },
    };
    for i in (0..depth).rev() {
        path[i + 1].pweight += one_fraction * path[i].pweight * (i + 1) as f64 / (depth + 1) as f64;
        path[i].pweight = zero_fraction * path[i].pweight * (depth - i) as f64 / (depth + 1) as f64;
    }
}

/// Remove element `index` from the path, undoing its EXTEND (UNWIND).
/// The caller shrinks its length bookkeeping by one afterwards.
fn unwind_path(path: &mut [PathElement], index: usize) {
    let depth = path.len() - 1;
    let one_fraction = path[index].one_fraction;
    let zero_fraction = path[index].zero_fraction;
    let mut next_one_portion = path[depth].pweight;
    for i in (0..depth).rev() {
        if one_fraction != 0.0 {
            let tmp = path[i].pweight;
            path[i].pweight =
                next_one_portion * (depth + 1) as f64 / ((i + 1) as f64 * one_fraction);
            next_one_portion =
                tmp - path[i].pweight * zero_fraction * (depth - i) as f64 / (depth + 1) as f64;
        } else {
            path[i].pweight =
                path[i].pweight * (depth + 1) as f64 / (zero_fraction * (depth - i) as f64);
        }
    }
    for i in index..depth {
        path[i].feature = path[i + 1].feature;
        path[i].zero_fraction = path[i + 1].zero_fraction;
        path[i].one_fraction = path[i + 1].one_fraction;
    }
}

/// Total permutation weight if element `index` were unwound, without
/// mutating the path.
fn unwound_path_sum(path: &[PathElement], index: usize) -> f64 {
    let depth = path.len() - 1;
    let one_fraction = path[index].one_fraction;
    let zero_fraction = path[index].zero_fraction;
    let mut next_one_portion = path[depth].pweight;
    let mut total = 0.0;
    for i in (0..depth).rev() {
        if one_fraction != 0.0 {
            let tmp = next_one_portion * (depth + 1) as f64 / ((i + 1) as f64 * one_fraction);
            total += tmp;
            next_one_portion =
                path[i].pweight - tmp * zero_fraction * (depth - i) as f64 / (depth + 1) as f64;
        } else {
            total += path[i].pweight / zero_fraction * (depth + 1) as f64 / (depth - i) as f64;
        }
    }
    total
}

/// How conditional TreeSHAP treats one designated feature — the
/// machinery behind SHAP interaction values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Ordinary (unconditional) TreeSHAP.
    None,
    /// The conditioned feature always follows the instance's branch and
    /// receives no attribution itself.
    FixedPresent,
    /// The conditioned feature always follows the background (cover)
    /// distribution and receives no attribution itself.
    FixedAbsent,
}

/// Accumulate one tree's SHAP values for `row` into `phi`.
pub fn tree_shap(tree: &Tree, row: &[f64], phi: &mut [f64]) {
    tree_shap_conditional(tree, row, phi, Condition::None, 0);
}

/// Accumulate one tree's *conditional* SHAP values for `row` into `phi`
/// (`condition_feature` is ignored when `condition` is [`Condition::None`]).
pub fn tree_shap_conditional(
    tree: &Tree,
    row: &[f64],
    phi: &mut [f64],
    condition: Condition,
    condition_feature: usize,
) {
    tree_shap_conditional_with(tree, row, phi, condition, condition_feature, &mut PathArena::new());
}

/// [`tree_shap_conditional`] reusing a caller-owned traversal arena.
pub fn tree_shap_conditional_with(
    tree: &Tree,
    row: &[f64],
    phi: &mut [f64],
    condition: Condition,
    condition_feature: usize,
    arena: &mut PathArena,
) {
    arena.prepare(tree.depth());
    recurse(
        tree,
        row,
        phi,
        0,
        &mut arena.elements,
        Segment { start: 0, len: 0 },
        1.0,
        1.0,
        ROOT_FEATURE,
        condition,
        condition_feature,
        1.0,
    );
}

/// One recursion level's live path: `len` elements at `arena[start..]`.
#[derive(Clone, Copy)]
struct Segment {
    start: usize,
    len: usize,
}

impl Segment {
    /// The next free arena index — where a child level's copy begins.
    fn end(self) -> usize {
        self.start + self.len
    }
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    tree: &Tree,
    row: &[f64],
    phi: &mut [f64],
    node_idx: usize,
    arena: &mut [PathElement],
    mut seg: Segment,
    parent_zero_fraction: f64,
    parent_one_fraction: f64,
    parent_feature: usize,
    condition: Condition,
    condition_feature: usize,
    condition_fraction: f64,
) {
    if condition_fraction == 0.0 {
        return;
    }
    // The conditioned feature never joins the path: it is fixed, not
    // attributed.
    if condition == Condition::None || parent_feature != condition_feature {
        seg.len += 1;
        extend_path(
            &mut arena[seg.start..seg.end()],
            parent_zero_fraction,
            parent_one_fraction,
            parent_feature,
        );
    }
    match &tree.nodes()[node_idx] {
        Node::Leaf { weight, .. } => {
            let path = &arena[seg.start..seg.end()];
            for i in 1..path.len() {
                let w = unwound_path_sum(path, i);
                let el = path[i];
                phi[el.feature] +=
                    w * (el.one_fraction - el.zero_fraction) * weight * condition_fraction;
            }
        }
        Node::Split { feature, threshold, default_left, left, right, cover, .. } => {
            let v = row[*feature];
            let goes_left = if v.is_nan() { *default_left } else { v < *threshold };
            let (hot, cold) = if goes_left { (*left, *right) } else { (*right, *left) };
            let hot_zero = tree.nodes()[hot].cover() / cover;
            let cold_zero = tree.nodes()[cold].cover() / cover;

            // If this feature already appeared on the path, its previous
            // fractions are consumed and the old element removed.
            let mut incoming_zero = 1.0;
            let mut incoming_one = 1.0;
            if let Some(k) =
                arena[seg.start..seg.end()].iter().position(|el| el.feature == *feature)
            {
                incoming_zero = arena[seg.start + k].zero_fraction;
                incoming_one = arena[seg.start + k].one_fraction;
                unwind_path(&mut arena[seg.start..seg.end()], k);
                seg.len -= 1;
            }

            // Split the condition mass between the branches.
            let mut hot_fraction = condition_fraction;
            let mut cold_fraction = condition_fraction;
            if condition != Condition::None && *feature == condition_feature {
                match condition {
                    Condition::FixedPresent => cold_fraction = 0.0,
                    Condition::FixedAbsent => {
                        hot_fraction *= hot_zero;
                        cold_fraction *= cold_zero;
                    }
                    Condition::None => unreachable!(),
                }
            }

            // Hot branch (the one the instance follows) then cold branch,
            // each on its own forward copy of this level's path. A child
            // only writes at or beyond `seg.end()`, so the parent segment
            // is intact when the cold branch re-copies it.
            let child = Segment { start: seg.end(), len: seg.len };
            arena.copy_within(seg.start..seg.end(), child.start);
            recurse(
                tree,
                row,
                phi,
                hot,
                arena,
                child,
                incoming_zero * hot_zero,
                incoming_one,
                *feature,
                condition,
                condition_feature,
                hot_fraction,
            );
            arena.copy_within(seg.start..seg.end(), child.start);
            recurse(
                tree,
                row,
                phi,
                cold,
                arena,
                child,
                incoming_zero * cold_zero,
                0.0,
                *feature,
                condition,
                condition_feature,
                cold_fraction,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use msaw_gbdt::Params;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn train_toy(n_features: usize, n_rows: usize, seed: u64) -> (Booster, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| {
                (0..n_features)
                    .map(|_| {
                        if rng.random::<f64>() < 0.1 {
                            f64::NAN
                        } else {
                            rng.random_range(0.0..10.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| {
                let a = if r[0].is_nan() { 5.0 } else { r[0] };
                let b = if n_features > 1 && !r[1].is_nan() { r[1] } else { 0.0 };
                2.0 * a - b + if n_features > 2 && !r[2].is_nan() && r[2] > 5.0 { 3.0 } else { 0.0 }
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let params = Params { n_estimators: 10, max_depth: 3, ..Params::regression() };
        (Booster::train(&params, &x, &y).unwrap(), x)
    }

    #[test]
    fn local_accuracy_holds_for_every_row() {
        let (model, x) = train_toy(4, 120, 1);
        let explainer = TreeExplainer::new(&model);
        for i in 0..x.nrows() {
            let exp = explainer.shap_values_row(x.row(i));
            let reconstructed = exp.base_value + exp.values.iter().sum::<f64>();
            assert!(
                (reconstructed - exp.prediction).abs() < 1e-8,
                "row {i}: {} vs {}",
                reconstructed,
                exp.prediction
            );
        }
    }

    #[test]
    fn matches_brute_force_shapley_on_small_trees() {
        // 3 features → 8 subsets: brute force is exact and cheap.
        let (model, x) = train_toy(3, 80, 2);
        let explainer = TreeExplainer::new(&model);
        for i in (0..x.nrows()).step_by(7) {
            let fast = explainer.shap_values_row(x.row(i));
            let slow = brute::brute_force_shap(&model, x.row(i));
            for (f, (a, b)) in fast.values.iter().zip(&slow).enumerate() {
                assert!((a - b).abs() < 1e-8, "row {i} feature {f}: treeshap {a} vs brute {b}");
            }
        }
    }

    #[test]
    fn matches_brute_force_with_missing_values() {
        let (model, _) = train_toy(3, 100, 3);
        let explainer = TreeExplainer::new(&model);
        let rows = [
            vec![f64::NAN, 2.0, 8.0],
            vec![1.0, f64::NAN, f64::NAN],
            vec![f64::NAN, f64::NAN, f64::NAN],
        ];
        for row in &rows {
            let fast = explainer.shap_values_row(row);
            let slow = brute::brute_force_shap(&model, row);
            for (a, b) in fast.values.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-8, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn expected_value_is_cover_weighted_leaf_mean() {
        let (model, x) = train_toy(2, 60, 4);
        let explainer = TreeExplainer::new(&model);
        // Squared-error trees trained on the full data have covers equal
        // to row counts, so the expected value equals the mean prediction.
        let preds = model.try_predict_raw(&x).unwrap();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!(
            (explainer.expected_value() - mean).abs() < 1e-6,
            "{} vs {}",
            explainer.expected_value(),
            mean
        );
    }

    #[test]
    fn uninformative_feature_gets_zero_attribution() {
        // Feature 1 is constant: it can never split, so φ₁ must be 0.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 10) as f64, 7.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let model =
            Booster::train(&Params { n_estimators: 10, ..Params::regression() }, &x, &y).unwrap();
        let explainer = TreeExplainer::new(&model);
        let exp = explainer.shap_values_row(&[3.0, 7.0]);
        assert_eq!(exp.values[1], 0.0);
        assert!(exp.values[0].abs() > 0.0);
    }

    #[test]
    fn ranking_orders_by_absolute_value() {
        let exp = Explanation { values: vec![0.1, -0.9, 0.5], base_value: 0.0, prediction: -0.3 };
        assert_eq!(exp.ranking(), vec![1, 2, 0]);
        assert_eq!(exp.top_k(2), vec![(1, -0.9), (2, 0.5)]);
    }

    #[test]
    fn shap_matrix_matches_rowwise_calls() {
        let (model, x) = train_toy(3, 30, 5);
        let explainer = TreeExplainer::new(&model);
        let m = explainer.shap_values(&x);
        for i in 0..x.nrows() {
            let exp = explainer.shap_values_row(x.row(i));
            for j in 0..x.ncols() {
                assert_eq!(m.get(i, j), exp.values[j]);
            }
        }
    }

    #[test]
    fn repeated_feature_on_path_is_handled() {
        // Deep trees on one feature force the same feature to appear
        // multiple times on a path, exercising the UNWIND branch.
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] / 8.0).floor()).collect();
        let x = Matrix::from_rows(&rows);
        let model = Booster::train(
            &Params { n_estimators: 5, max_depth: 5, ..Params::regression() },
            &x,
            &y,
        )
        .unwrap();
        let explainer = TreeExplainer::new(&model);
        for i in [0usize, 17, 42, 63] {
            let exp = explainer.shap_values_row(x.row(i));
            let reconstructed = exp.base_value + exp.values.iter().sum::<f64>();
            assert!((reconstructed - exp.prediction).abs() < 1e-8);
        }
    }
}
