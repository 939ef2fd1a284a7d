//! The pre-arena TreeSHAP recursion, kept verbatim as an oracle.
//!
//! This is the clone-per-branch implementation the arena traversal in
//! `msaw_shap::explainer` replaced: every split node clones the live
//! unique-feature path for each of its two branches. It is O(nodes ×
//! depth) in heap allocations and single-threaded — exactly why it was
//! retired from the hot path — but it is the most direct transcription
//! of Lundberg et al.'s Algorithm 2, which makes it the right reference
//! for the arena-vs-clone equivalence suite. Test-only code.

use msaw_gbdt::{Booster, Node, Tree};
use msaw_shap::explainer::Condition;
use msaw_shap::InteractionValues;
use msaw_tabular::Matrix;

/// One element of the unique-feature path (clone-based twin).
#[derive(Debug, Clone, Copy)]
struct PathElement {
    feature: usize,
    zero_fraction: f64,
    one_fraction: f64,
    pweight: f64,
}

const ROOT_FEATURE: usize = usize::MAX;

fn extend_path(path: &mut Vec<PathElement>, zero_fraction: f64, one_fraction: f64, feature: usize) {
    let depth = path.len();
    path.push(PathElement {
        feature,
        zero_fraction,
        one_fraction,
        pweight: if depth == 0 { 1.0 } else { 0.0 },
    });
    for i in (0..depth).rev() {
        path[i + 1].pweight += one_fraction * path[i].pweight * (i + 1) as f64 / (depth + 1) as f64;
        path[i].pweight = zero_fraction * path[i].pweight * (depth - i) as f64 / (depth + 1) as f64;
    }
}

fn unwind_path(path: &mut Vec<PathElement>, index: usize) {
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
    path.pop();
}

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

#[allow(clippy::too_many_arguments)]
fn recurse(
    tree: &Tree,
    row: &[f64],
    phi: &mut [f64],
    node_idx: usize,
    path: &mut Vec<PathElement>,
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
    if condition == Condition::None || parent_feature != condition_feature {
        extend_path(path, parent_zero_fraction, parent_one_fraction, parent_feature);
    }
    match &tree.nodes()[node_idx] {
        Node::Leaf { weight, .. } => {
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

            let mut incoming_zero = 1.0;
            let mut incoming_one = 1.0;
            if let Some(k) = path.iter().position(|el| el.feature == *feature) {
                incoming_zero = path[k].zero_fraction;
                incoming_one = path[k].one_fraction;
                unwind_path(path, k);
            }

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

            let mut hot_path = path.clone();
            recurse(
                tree,
                row,
                phi,
                hot,
                &mut hot_path,
                incoming_zero * hot_zero,
                incoming_one,
                *feature,
                condition,
                condition_feature,
                hot_fraction,
            );
            let mut cold_path = path.clone();
            recurse(
                tree,
                row,
                phi,
                cold,
                &mut cold_path,
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

/// Accumulate one tree's conditional SHAP values for `row` into `phi`
/// with the clone-per-branch recursion.
pub fn tree_shap_conditional_clone(
    tree: &Tree,
    row: &[f64],
    phi: &mut [f64],
    condition: Condition,
    condition_feature: usize,
) {
    let mut path = Vec::with_capacity(tree.depth() + 2);
    recurse(
        tree,
        row,
        phi,
        0,
        &mut path,
        1.0,
        1.0,
        ROOT_FEATURE,
        condition,
        condition_feature,
        1.0,
    );
}

/// Accumulate one tree's (unconditional) SHAP values for `row` into
/// `phi` with the clone-per-branch recursion.
pub fn tree_shap_clone(tree: &Tree, row: &[f64], phi: &mut [f64]) {
    tree_shap_conditional_clone(tree, row, phi, Condition::None, 0);
}

/// One row's attributions via the clone-based recursion.
pub fn shap_values_row_clone(model: &Booster, row: &[f64]) -> Vec<f64> {
    assert_eq!(row.len(), model.n_features(), "feature count mismatch");
    let mut values = vec![0.0; row.len()];
    for tree in model.trees() {
        tree_shap_clone(tree, row, &mut values);
    }
    values
}

/// The full pre-refactor batch path: a serial row loop over the
/// clone-based recursion, computing each row's raw prediction alongside
/// just as `TreeExplainer::shap_values` used to.
pub fn shap_values_serial_clone(model: &Booster, data: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(data.nrows(), data.ncols());
    for i in 0..data.nrows() {
        let values = shap_values_row_clone(model, data.row(i));
        std::hint::black_box(model.predict_raw_row(data.row(i)));
        for (j, v) in values.iter().enumerate() {
            out.set(i, j, *v);
        }
    }
    out
}

/// The pre-refactor interaction path: `n_features + 1` serial
/// conditional passes per row, clone-based recursion throughout.
pub fn shap_interaction_values_clone(model: &Booster, row: &[f64]) -> InteractionValues {
    let m = model.n_features();
    assert_eq!(row.len(), m, "feature count mismatch");
    let mut phi = vec![0.0; m];
    for tree in model.trees() {
        tree_shap_conditional_clone(tree, row, &mut phi, Condition::None, 0);
    }
    let mut values = vec![0.0; m * m];
    for j in 0..m {
        let mut on = vec![0.0; m];
        let mut off = vec![0.0; m];
        for tree in model.trees() {
            tree_shap_conditional_clone(tree, row, &mut on, Condition::FixedPresent, j);
            tree_shap_conditional_clone(tree, row, &mut off, Condition::FixedAbsent, j);
        }
        for i in 0..m {
            if i == j {
                continue;
            }
            values[i * m + j] = (on[i] - off[i]) / 2.0;
        }
    }
    for i in 0..m {
        let off_sum: f64 = (0..m).filter(|&j| j != i).map(|j| values[i * m + j]).sum();
        values[i * m + i] = phi[i] - off_sum;
    }
    InteractionValues { values, n_features: m }
}
