//! Split bookkeeping shared by both growers, sparsity-aware (XGBoost
//! §3.3–3.4): candidate scoring and tie-breaking (`BestTracker`) and
//! the histogram boundary scan (`scan_hist`). The exact grower
//! (`engine`) feeds the tracker from rank-sorted node lists; the
//! level-wise histogram grower (`chunked`) from node histograms. The
//! boundary scan is scalar on every SIMD level: it is a serial prefix
//! fold of one `(g, h)` pair per bin, and a 128-bit pair-add version
//! timed the same as the plain loop.
//!
//! For every candidate threshold the finder evaluates *two* routings of
//! the missing-value mass — all-missing-left and all-missing-right — and
//! keeps the better one as the split's learned default direction.

/// The best split found for a node, with the child gradient statistics
/// needed to seed the recursion without rescanning.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitCandidate {
    /// Feature to test.
    pub feature: usize,
    /// `value < threshold` goes left.
    pub threshold: f64,
    /// Side receiving missing values.
    pub default_left: bool,
    /// Loss reduction (γ already subtracted).
    pub gain: f64,
    /// Gradient sum of the left child (including missing if routed left).
    pub left_grad: f64,
    /// Hessian sum of the left child.
    pub left_hess: f64,
    /// Gradient sum of the right child.
    pub right_grad: f64,
    /// Hessian sum of the right child.
    pub right_hess: f64,
}

/// Regularised score `G²/(H+λ)` of a node holding gradient mass `(g, h)`.
#[inline]
pub fn score(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

/// Shared split-search configuration.
#[derive(Debug, Clone, Copy)]
pub struct SplitConfig {
    /// L2 leaf regularisation.
    pub lambda: f64,
    /// Minimum loss reduction for a split to be kept.
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
}

/// Candidate bookkeeping shared by the exact and histogram scans: given
/// left/right statistics for both missing routings, keep the best.
pub(crate) struct BestTracker {
    cfg: SplitConfig,
    parent_score: f64,
    pub(crate) best: Option<SplitCandidate>,
}

impl BestTracker {
    pub(crate) fn new(cfg: SplitConfig, total_g: f64, total_h: f64) -> Self {
        BestTracker { cfg, parent_score: score(total_g, total_h, cfg.lambda), best: None }
    }

    /// Offer one (feature, threshold, missing-direction) candidate.
    #[allow(clippy::too_many_arguments)]
    fn offer(
        &mut self,
        feature: usize,
        threshold: f64,
        default_left: bool,
        lg: f64,
        lh: f64,
        rg: f64,
        rh: f64,
    ) {
        if lh < self.cfg.min_child_weight || rh < self.cfg.min_child_weight {
            return;
        }
        let gain = 0.5
            * (score(lg, lh, self.cfg.lambda) + score(rg, rh, self.cfg.lambda) - self.parent_score)
            - self.cfg.gamma;
        if gain <= 0.0 {
            return;
        }
        let better = match &self.best {
            None => true,
            // Deterministic tie-breaking keeps parallel search reproducible.
            Some(b) => {
                gain > b.gain
                    || (gain == b.gain
                        && (feature < b.feature
                            || (feature == b.feature && threshold < b.threshold)))
            }
        };
        if better {
            self.best = Some(SplitCandidate {
                feature,
                threshold,
                default_left,
                gain,
                left_grad: lg,
                left_hess: lh,
                right_grad: rg,
                right_hess: rh,
            });
        }
    }

    /// Offer both missing routings for a present-value prefix `(gl, hl)`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn offer_both(
        &mut self,
        feature: usize,
        threshold: f64,
        gl: f64,
        hl: f64,
        g_miss: f64,
        h_miss: f64,
        g_total: f64,
        h_total: f64,
    ) {
        // Missing right: left keeps only the present prefix.
        self.offer(feature, threshold, false, gl, hl, g_total - gl, h_total - hl);
        if h_miss > 0.0 || g_miss != 0.0 {
            // Missing left: the missing mass joins the prefix.
            let lg = gl + g_miss;
            let lh = hl + h_miss;
            self.offer(feature, threshold, true, lg, lh, g_total - lg, h_total - lh);
        }
    }

    pub(crate) fn merge(self, other: Option<SplitCandidate>) -> Option<SplitCandidate> {
        match (self.best, other) {
            (None, b) => b,
            (a, None) => a,
            (Some(a), Some(b)) => {
                let a_wins = a.gain > b.gain
                    || (a.gain == b.gain
                        && (a.feature < b.feature
                            || (a.feature == b.feature && a.threshold <= b.threshold)));
                Some(if a_wins { a } else { b })
            }
        }
    }
}

/// Deterministically fold per-chunk winners into one best candidate,
/// applying the same tie-break order as the serial scan — the merge
/// behind the exact grower's feature-parallel scans.
pub(crate) fn merge_chunks(
    cfg: SplitConfig,
    total_g: f64,
    total_h: f64,
    results: Vec<Option<SplitCandidate>>,
) -> Option<SplitCandidate> {
    let mut best = None;
    for r in results {
        let mut tracker = BestTracker::new(cfg, total_g, total_h);
        tracker.best = best;
        best = tracker.merge(r);
    }
    best
}

/// Scan the bin boundaries of one feature's prebuilt histogram and
/// offer every candidate to `tracker`. `hist` carries one slot per bin
/// plus a trailing missing slot (the in-band layout the level-wise
/// histogram grower accumulates); this is that grower's boundary pass.
pub(crate) fn scan_hist(
    feature: usize,
    cuts: &[f64],
    hist: &[[f64; 2]],
    total_g: f64,
    total_h: f64,
    tracker: &mut BestTracker,
) {
    if cuts.is_empty() {
        return;
    }
    let [g_miss, h_miss] = hist[hist.len() - 1];
    let mut gl = 0.0;
    let mut hl = 0.0;
    // Boundary after bin i corresponds to threshold cuts[i].
    for (i, &cut) in cuts.iter().enumerate() {
        gl += hist[i][0];
        hl += hist[i][1];
        tracker.offer_both(feature, cut, gl, hl, g_miss, h_miss, total_g, total_h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::{ChunkedMatrix, HistPools};
    use crate::context::ExactIndex;
    use crate::engine::{find_split_exact, root_lists, EnginePools, RoundCtx};
    use crate::params::Params;
    use crate::tree::Node;
    use msaw_tabular::Matrix;

    fn simple_data() -> (Matrix, Vec<f64>, Vec<f64>) {
        // Feature 0 separates rows {0,1} (grad +1) from {2,3} (grad -1).
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]);
        let grad = vec![1.0, 1.0, -1.0, -1.0];
        let hess = vec![1.0; 4];
        (x, grad, hess)
    }

    fn cfg() -> SplitConfig {
        SplitConfig { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 }
    }

    /// Depth-1 growth under `cfg`.
    fn params(cfg: SplitConfig) -> Params {
        Params {
            max_depth: 1,
            lambda: cfg.lambda,
            gamma: cfg.gamma,
            min_child_weight: cfg.min_child_weight,
            ..Params::regression()
        }
    }

    /// The exact finder's root split over every row of `x`, scanned by
    /// `threads` feature-chunk workers.
    fn exact_split(
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        features: &[usize],
        cfg: SplitConfig,
        threads: usize,
    ) -> Option<SplitCandidate> {
        let index = ExactIndex::fit(x);
        let params = params(cfg);
        let map: Vec<usize> = (0..x.nrows()).collect();
        let rctx = RoundCtx { map: &map, grad, hess, features, params: &params };
        let lists = root_lists(&index, &rctx, &map, &mut EnginePools::default());
        let (g, h) = (grad.iter().sum(), hess.iter().sum());
        find_split_exact(&index, &rctx, &lists, threads, g, h)
    }

    /// The level-wise histogram grower's root split over every row of
    /// `x`: `(feature, threshold, default_left, gain)` of a depth-1 tree.
    fn hist_split(
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        features: &[usize],
        max_bins: u16,
    ) -> Option<(usize, f64, bool, f64)> {
        let m = ChunkedMatrix::fit(x, max_bins);
        let params = params(cfg());
        let mut pools = HistPools::default();
        pools.prepare(&params, m.view(), 0..x.nrows()).unwrap();
        let sample: Vec<usize> = (0..x.nrows()).collect();
        let mut nodes = Vec::new();
        pools.grow_tree(m.view(), &params, &sample, features, grad, hess, 1, &mut nodes).unwrap();
        match nodes[0] {
            Node::Split { feature, threshold, default_left, gain, .. } => {
                Some((feature, threshold, default_left, gain))
            }
            Node::Leaf { .. } => None,
        }
    }

    #[test]
    fn exact_finds_the_obvious_split() {
        let (x, g, h) = simple_data();
        let best = exact_split(&x, &g, &h, &[0], cfg(), 1).unwrap();
        assert_eq!(best.feature, 0);
        assert!(best.threshold > 1.0 && best.threshold < 10.0);
        // Left has grads +2, right -2 → gain = 0.5*(4/3 + 4/3 - 0) = 4/3
        assert!((best.gain - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(best.left_grad, 2.0);
        assert_eq!(best.right_grad, -2.0);
    }

    #[test]
    fn threshold_is_midpoint_between_distinct_values() {
        let (x, g, h) = simple_data();
        let best = exact_split(&x, &g, &h, &[0], cfg(), 1).unwrap();
        assert_eq!(best.threshold, 5.5);
    }

    #[test]
    fn missing_values_choose_the_better_side() {
        // Rows 0,1 present low values with +1 grads; rows 2,3 missing with
        // -1 grads. The only boundary is between values 0 and 1; routing
        // the missing mass right separates + from - best.
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![f64::NAN], vec![f64::NAN]]);
        let g = vec![1.0, 1.0, -1.0, -1.0];
        let h = vec![1.0; 4];
        let best = exact_split(&x, &g, &h, &[0], cfg(), 1).unwrap();
        // Both grads positive below threshold: threshold 0.5 splits row 0
        // from row 1; best config puts missing right with leftover +1.
        // What matters: a split exists and default direction is learned.
        assert!(!best.default_left);
        assert!(best.gain > 0.0);
    }

    #[test]
    fn missing_left_wins_when_it_matches_signs() {
        // Present: low value +1 grad, high value -1. Missing rows grad +1
        // belong with the low side (left).
        let x = Matrix::from_rows(&[vec![0.0], vec![10.0], vec![f64::NAN]]);
        let g = vec![1.0, -1.0, 1.0];
        let h = vec![1.0; 3];
        let best = exact_split(&x, &g, &h, &[0], cfg(), 1).unwrap();
        assert!(best.default_left);
        assert_eq!(best.left_grad, 2.0);
        assert_eq!(best.right_grad, -1.0);
    }

    #[test]
    fn min_child_weight_blocks_thin_children() {
        let (x, g, h) = simple_data();
        let strict = SplitConfig { min_child_weight: 3.0, ..cfg() };
        assert!(exact_split(&x, &g, &h, &[0], strict, 1).is_none());
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let (x, g, h) = simple_data();
        let strict = SplitConfig { gamma: 10.0, ..cfg() };
        assert!(exact_split(&x, &g, &h, &[0], strict, 1).is_none());
    }

    #[test]
    fn constant_feature_yields_no_split() {
        let x = Matrix::from_rows(&[vec![2.0], vec![2.0], vec![2.0]]);
        let g = vec![1.0, -1.0, 0.0];
        let h = vec![1.0; 3];
        assert!(exact_split(&x, &g, &h, &[0], cfg(), 1).is_none());
        assert!(hist_split(&x, &g, &h, &[0], 8).is_none());
    }

    #[test]
    fn parallel_matches_serial() {
        // 8 informative-ish features with varying alignments.
        let nrows = 64;
        let ncols = 8;
        let mut data = vec![0.0; nrows * ncols];
        let mut grad = Vec::with_capacity(nrows);
        for i in 0..nrows {
            for j in 0..ncols {
                // Deterministic pseudo-values.
                data[i * ncols + j] = ((i * 31 + j * 17) % 97) as f64;
            }
            grad.push(if i % 3 == 0 { 1.0 } else { -0.5 });
        }
        let x = Matrix::from_vec(data, nrows, ncols);
        let hess = vec![1.0; nrows];
        let features: Vec<usize> = (0..ncols).collect();
        let serial = exact_split(&x, &grad, &hess, &features, cfg(), 1);
        let parallel = exact_split(&x, &grad, &hess, &features, cfg(), 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn hist_agrees_with_exact_on_small_data() {
        let (x, g, h) = simple_data();
        let exact = exact_split(&x, &g, &h, &[0], cfg(), 1).unwrap();
        let (feature, threshold, _, gain) = hist_split(&x, &g, &h, &[0], 64).unwrap();
        assert_eq!(exact.feature, feature);
        assert!((exact.gain - gain).abs() < 1e-9);
        // With fewer distinct values than bins the cut set is exact.
        assert_eq!(exact.threshold, threshold);
    }

    #[test]
    fn hist_handles_missing_mass() {
        let x = Matrix::from_rows(&[vec![0.0], vec![10.0], vec![f64::NAN]]);
        let g = vec![1.0, -1.0, 1.0];
        let h = vec![1.0; 3];
        let (_, _, default_left, _) = hist_split(&x, &g, &h, &[0], 8).unwrap();
        assert!(default_left);
    }
}
