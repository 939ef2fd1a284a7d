//! Binary classification metrics.
//!
//! The paper's Falls experiment reports accuracy plus precision, recall
//! and F1 for *both* classes — the negative ("no falls") class dominates
//! heavily, and the interesting failure mode (the KD model without FI
//! collapsing to the majority class) only shows up in the per-class view.

use serde::{Deserialize, Serialize};

/// A 2×2 confusion matrix for a binary outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Predicted positive, actually positive.
    pub tp: usize,
    /// Predicted positive, actually negative.
    pub fp: usize,
    /// Predicted negative, actually negative.
    pub tn: usize,
    /// Predicted negative, actually positive.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Tally predictions against labels. Panics on length mismatch.
    pub fn from_labels(y_true: &[bool], y_pred: &[bool]) -> Self {
        assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
        let mut m = ConfusionMatrix::default();
        for (&t, &p) in y_true.iter().zip(y_pred) {
            match (t, p) {
                (true, true) => m.tp += 1,
                (false, true) => m.fp += 1,
                (false, false) => m.tn += 1,
                (true, false) => m.fn_ += 1,
            }
        }
        m
    }

    /// Tally thresholded probabilities (`p >= threshold` → positive).
    pub fn from_probabilities(y_true: &[bool], probs: &[f64], threshold: f64) -> Self {
        let preds: Vec<bool> = probs.iter().map(|&p| p >= threshold).collect();
        Self::from_labels(y_true, &preds)
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Overall accuracy. 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / n as f64
    }

    /// Precision for the positive class; 0 when nothing was predicted
    /// positive (sklearn's zero-division convention).
    pub fn precision_pos(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall (sensitivity) for the positive class; 0 when there are no
    /// positive observations.
    pub fn recall_pos(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Precision for the negative class.
    pub fn precision_neg(&self) -> f64 {
        ratio(self.tn, self.tn + self.fn_)
    }

    /// Recall (specificity) for the negative class.
    pub fn recall_neg(&self) -> f64 {
        ratio(self.tn, self.tn + self.fp)
    }

    /// F1 for the positive class.
    pub fn f1_pos(&self) -> f64 {
        f1(self.precision_pos(), self.recall_pos())
    }

    /// F1 for the negative class.
    pub fn f1_neg(&self) -> f64 {
        f1(self.precision_neg(), self.recall_neg())
    }

    /// Bundle all paper-reported scores.
    pub fn report(&self) -> BinaryReport {
        BinaryReport {
            accuracy: self.accuracy(),
            precision_true: self.precision_pos(),
            precision_false: self.precision_neg(),
            recall_true: self.recall_pos(),
            recall_false: self.recall_neg(),
            f1_true: self.f1_pos(),
            f1_false: self.f1_neg(),
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn f1(precision: f64, recall: f64) -> f64 {
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// The seven classification scores the paper reports for Falls
/// (Fig. 4 right panel and the right half of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinaryReport {
    /// Overall accuracy.
    pub accuracy: f64,
    /// Precision on the positive ("fell") class.
    pub precision_true: f64,
    /// Precision on the negative class.
    pub precision_false: f64,
    /// Recall on the positive class.
    pub recall_true: f64,
    /// Recall on the negative class.
    pub recall_false: f64,
    /// F1 on the positive class.
    pub f1_true: f64,
    /// F1 on the negative class.
    pub f1_false: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> ConfusionMatrix {
        // 6 positives (4 found), 14 negatives (12 kept).
        ConfusionMatrix { tp: 4, fn_: 2, tn: 12, fp: 2 }
    }

    #[test]
    fn tallies_from_labels() {
        let t = [true, true, false, false, true];
        let p = [true, false, false, true, true];
        let m = ConfusionMatrix::from_labels(&t, &p);
        assert_eq!(m, ConfusionMatrix { tp: 2, fn_: 1, tn: 1, fp: 1 });
    }

    #[test]
    fn accuracy_matches_hand_count() {
        assert!((example().accuracy() - 16.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn per_class_precision_recall() {
        let m = example();
        assert!((m.precision_pos() - 4.0 / 6.0).abs() < 1e-12);
        assert!((m.recall_pos() - 4.0 / 6.0).abs() < 1e-12);
        assert!((m.precision_neg() - 12.0 / 14.0).abs() < 1e-12);
        assert!((m.recall_neg() - 12.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let m = example();
        let p = m.precision_pos();
        let r = m.recall_pos();
        assert!((m.f1_pos() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn majority_class_collapse_has_zero_true_recall() {
        // The KD-without-FI Falls failure mode: everything predicted False.
        let t = [true, false, false, false];
        let p = [false, false, false, false];
        let m = ConfusionMatrix::from_labels(&t, &p);
        assert_eq!(m.recall_pos(), 0.0);
        assert_eq!(m.precision_pos(), 0.0);
        assert_eq!(m.f1_pos(), 0.0);
        assert_eq!(m.recall_neg(), 1.0);
        assert_eq!(m.accuracy(), 0.75);
    }

    #[test]
    fn thresholding_probabilities() {
        let t = [true, false];
        let m = ConfusionMatrix::from_probabilities(&t, &[0.9, 0.4], 0.5);
        assert_eq!(m.tp, 1);
        assert_eq!(m.tn, 1);
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.f1_pos(), 0.0);
    }

    #[test]
    fn report_bundles_all_scores() {
        let r = example().report();
        assert!((r.accuracy - 0.8).abs() < 1e-12);
        assert!(r.f1_true > 0.0 && r.f1_false > 0.0);
    }
}
