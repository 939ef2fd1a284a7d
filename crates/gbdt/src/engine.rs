//! The exact tree grower and the per-worker training scratch.
//!
//! [`grow_tree`] grows one exact-method tree per boosting round against
//! a row-index *view* of a prepared matrix, never materialising a row
//! subset. (Histogram trees grow level by level in [`crate::chunked`];
//! [`crate::FitRun`] drives both growers from one boosting loop.)
//!
//! Everything here works in **position space**: positions `0..n` index
//! the training view, and `map[pos]` translates to a row of the
//! underlying full matrix. Gradients, hessians and the RNG-driven
//! subsamples are all position-indexed, which is exactly how the old
//! copy-then-train path behaved on a materialised subset — that
//! correspondence is what makes the exact path bit-identical to it.
//!
//! ## Exact path
//!
//! The old exact finder re-extracted and comparison-sorted `(value,
//! grad, hess)` triples per node per feature (`O(n log n)` each). Here
//! the [`ExactIndex`] supplies precomputed per-feature ranks, so:
//!
//! * the **root** of each tree value-sorts its rows with a counting
//!   sort over ranks (`O(n + k)`), whose bucket order reproduces the
//!   stable sort's tie order (node insertion order) exactly;
//! * **children** never re-sort: a node's sorted list is filtered by a
//!   side bitmap into the two children (`O(n)`), preserving both value
//!   order and tie order;
//! * **partitioning** compares integer ranks against the split's
//!   boundary rank — provably equivalent to the old `value < threshold`
//!   float compare for every row in the node.
//!
//! The scan visits the same `(value, grad, hess)` sequence as the old
//! sorted scan, so every floating-point accumulation is performed in
//! the same order with the same operands: identical trees, identical
//! predictions.
//!
//! ## Scratch reuse
//!
//! Nothing in the per-node hot path allocates in steady state. All
//! transient buffers — row partitions, per-feature sorted lists, the
//! side bitmap, counting-sort buckets, the histogram grower's arena and
//! the growing tree's node arena — live in a [`TreeScratch`] that is
//! created once per training worker and recycled across every node,
//! tree, fold and fit that worker executes. Free-list pools hand
//! buffers back on every `grow_*` return path, and
//! [`TreeScratch::prepare`] pre-sizes every pool to its worst case for
//! the fit (bounded by the recursion depth), so steady-state rounds
//! perform **zero** heap allocations — pinned by the counting-allocator
//! test in `tests/alloc_regression.rs`.
//!
//! Per-node tree output is appended to a flat node arena with
//! tree-relative child indices; `Tree` values are only materialised
//! once per fit, when the finished forest is assembled.
//!
//! ## Threading
//!
//! Nodes with at least `params.parallel_split_threshold` rows scan
//! features in parallel chunks with deterministic merging (same
//! tie-break as the serial scan, so results are thread-count
//! invariant). Below the threshold everything is serial — the grid's
//! node sizes sit far below the default threshold, where thread spawn
//! costs would dominate.

use crate::context::{ExactIndex, MISSING_RANK};
use crate::params::Params;
use crate::split::{merge_chunks, BestTracker, SplitCandidate, SplitConfig};
use crate::tree::Node;

/// Immutable per-round (per-tree) state.
pub(crate) struct RoundCtx<'a> {
    /// Position → underlying matrix row.
    pub map: &'a [usize],
    /// Position-indexed gradients.
    pub grad: &'a [f64],
    /// Position-indexed hessians.
    pub hess: &'a [f64],
    /// This round's column subsample, in draw order.
    pub features: &'a [usize],
    pub params: &'a Params,
}

impl RoundCtx<'_> {
    fn split_config(&self) -> SplitConfig {
        SplitConfig {
            lambda: self.params.lambda,
            gamma: self.params.gamma,
            min_child_weight: self.params.min_child_weight,
        }
    }

    /// Emit a leaf and record its weight as the leaf assignment of every
    /// position that reached it — the cache `FitRun::round` adds to `raw`
    /// instead of re-walking the finished tree.
    fn leaf(
        &self,
        tree: &mut TreeBuf,
        depth: usize,
        rows: &[usize],
        leaf_of: &mut [f64],
        g: f64,
        h: f64,
    ) -> usize {
        let weight = -g / (h + self.params.lambda) * self.params.learning_rate;
        for &p in rows {
            leaf_of[p] = weight;
        }
        tree.note_depth(depth);
        tree.push(Node::Leaf { weight, cover: h })
    }
}

/// Worker threads for a node (or histogram fit) of `rows` rows: the
/// machine's cores, capped at 8, from `params.parallel_split_threshold`
/// rows on; one below it.
pub(crate) fn split_workers(params: &Params, rows: usize) -> usize {
    if rows >= params.parallel_split_threshold {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
    } else {
        1
    }
}

// ---------------------------------------------------------------------
// Scratch arena
// ---------------------------------------------------------------------

/// Reserve capacity without shrinking: afterwards `v.capacity() >= cap`.
fn reserve_cap<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() < cap {
        v.reserve(cap - v.len());
    }
}

/// One node's per-feature exact-finder lists, flattened: feature `fi`'s
/// rank-sorted `(position, rank)` pairs live at
/// `pairs[pair_bounds[fi]..pair_bounds[fi + 1]]` and its missing
/// positions at `miss[miss_bounds[fi]..miss_bounds[fi + 1]]`. One
/// buffer per node instead of `2 × n_features` — the dominant
/// allocation of the old exact path.
#[derive(Debug, Default)]
pub(crate) struct FeatureListSet {
    pairs: Vec<(u32, u32)>,
    pair_bounds: Vec<usize>,
    miss: Vec<u32>,
    miss_bounds: Vec<usize>,
}

impl FeatureListSet {
    fn reset(&mut self) {
        self.pairs.clear();
        self.miss.clear();
        self.pair_bounds.clear();
        self.miss_bounds.clear();
        self.pair_bounds.push(0);
        self.miss_bounds.push(0);
    }

    /// Seal the current feature's region; call once per feature, in
    /// round feature order.
    fn close_feature(&mut self) {
        self.pair_bounds.push(self.pairs.len());
        self.miss_bounds.push(self.miss.len());
    }

    fn pairs(&self, fi: usize) -> &[(u32, u32)] {
        &self.pairs[self.pair_bounds[fi]..self.pair_bounds[fi + 1]]
    }

    fn miss(&self, fi: usize) -> &[u32] {
        &self.miss[self.miss_bounds[fi]..self.miss_bounds[fi + 1]]
    }
}

/// Free-list pools for every transient buffer the exact grower touches.
/// `take_*` pops a cleared buffer (allocating only if the pool
/// underflows, which [`TreeScratch::prepare`]'s worst-case sizing
/// prevents); every `grow_*` return path puts its buffers back.
#[derive(Debug, Default)]
pub(crate) struct EnginePools {
    rows: Vec<Vec<usize>>,
    lists: Vec<FeatureListSet>,
    /// Position-indexed split-side bitmap; written before read for every
    /// row of the node being partitioned, so it never needs clearing.
    side: Vec<bool>,
    /// Per-root-row rank cache for the counting sort.
    row_ranks: Vec<u32>,
    /// Counting-sort buckets, reused across features.
    counts: Vec<u32>,
}

impl EnginePools {
    pub(crate) fn take_rows(&mut self) -> Vec<usize> {
        let mut v = self.rows.pop().unwrap_or_default();
        v.clear();
        v
    }

    pub(crate) fn put_rows(&mut self, v: Vec<usize>) {
        self.rows.push(v);
    }

    fn take_lists(&mut self) -> FeatureListSet {
        let mut s = self.lists.pop().unwrap_or_default();
        s.reset();
        s
    }

    fn put_lists(&mut self, s: FeatureListSet) {
        self.lists.push(s);
    }
}

/// Per-worker training scratch: every reusable buffer one worker needs
/// to run any number of fits, allocated once and recycled across trees,
/// folds and fits. Create one per training worker (or one for serial
/// use) and thread it through `Booster::train_on_rows_with` /
/// `FitRun`; a fresh `TreeScratch` behaves identically to a reused one
/// — buffer contents never leak between fits (everything is re-sized
/// and rewritten before being read), which is what keeps pooled results
/// bit-identical at any worker count.
#[derive(Debug)]
pub struct TreeScratch {
    pub(crate) pools: EnginePools,
    /// Flat node arena for the fit's trees; tree `t` occupies
    /// `nodes[tree_starts[t]..tree_starts[t + 1]]` (tree-relative child
    /// indices), and `tree_depths[t]` is its grown depth.
    pub(crate) nodes: Vec<Node>,
    pub(crate) tree_starts: Vec<usize>,
    pub(crate) tree_depths: Vec<u16>,
    /// Position-indexed raw scores / gradients / hessians.
    pub(crate) raw: Vec<f64>,
    pub(crate) eval_raw: Vec<f64>,
    pub(crate) grad: Vec<f64>,
    pub(crate) hess: Vec<f64>,
    /// Per-position leaf weight of the current tree.
    pub(crate) leaf_of: Vec<f64>,
    /// Per-position "reached a leaf this round" flag (subsampled rounds).
    pub(crate) routed: Vec<bool>,
    pub(crate) all_rows: Vec<usize>,
    pub(crate) all_cols: Vec<usize>,
    pub(crate) sample_cols: Vec<usize>,
    /// Single-tree flat compilation reused every round for score updates.
    pub(crate) single: crate::forest::FlatForest,
    /// Buffer arena of the level-wise histogram grower.
    pub(crate) hist: crate::chunked::HistPools,
}

impl TreeScratch {
    /// An empty scratch; every fit pre-sizes its buffers to that fit's
    /// worst case before its first round.
    pub fn new() -> TreeScratch {
        TreeScratch {
            pools: EnginePools::default(),
            nodes: Vec::new(),
            tree_starts: Vec::new(),
            tree_depths: Vec::new(),
            raw: Vec::new(),
            eval_raw: Vec::new(),
            grad: Vec::new(),
            hess: Vec::new(),
            leaf_of: Vec::new(),
            routed: Vec::new(),
            all_rows: Vec::new(),
            all_cols: Vec::new(),
            sample_cols: Vec::new(),
            single: crate::forest::FlatForest::empty(),
            hist: crate::chunked::HistPools::default(),
        }
    }

    /// Pre-size every pool and the node arena to the fit's worst case,
    /// so no steady-state round allocates. `exact` carries the fit's
    /// rank index when it grows exact trees; a histogram fit needs only
    /// the round's row-sample buffer here (its grower sizes its own
    /// arena). Bounds:
    ///
    /// * at any moment the exact recursion holds at most `depth + 3`
    ///   row buffers / list sets (one per ancestor's pending sibling,
    ///   plus the current node's own and its two children's);
    /// * a single node's lists hold at most `n × n_features` pairs
    ///   (the root);
    /// * a tree has at most `min(2^(depth+1) − 1, 2n − 1)` nodes.
    pub(crate) fn prepare(&mut self, params: &Params, n: usize, exact: Option<&ExactIndex>) {
        let d = params.max_depth.max(1);
        let pools = &mut self.pools;
        let rows_needed = if exact.is_some() { 2 * d + 4 } else { 1 };
        while pools.rows.len() < rows_needed {
            pools.rows.push(Vec::new());
        }
        for v in &mut pools.rows {
            reserve_cap(v, n);
        }
        if let Some(index) = exact {
            if pools.side.len() < n {
                pools.side.resize(n, false);
            }
            reserve_cap(&mut pools.row_ranks, n);
            reserve_cap(&mut pools.counts, index.max_distinct());
            let ncols = index.ncols();
            let sets_needed = 2 * d + 3;
            while pools.lists.len() < sets_needed {
                pools.lists.push(FeatureListSet::default());
            }
            for s in &mut pools.lists {
                reserve_cap(&mut s.pairs, n * ncols);
                reserve_cap(&mut s.miss, n * ncols);
                reserve_cap(&mut s.pair_bounds, ncols + 1);
                reserve_cap(&mut s.miss_bounds, ncols + 1);
            }
        }
        // Node arena: worst case over the whole fit.
        let by_depth =
            if d + 1 >= usize::BITS as usize { usize::MAX } else { (1usize << (d + 1)) - 1 };
        let per_tree = by_depth.min(2 * n.saturating_sub(1) + 1);
        self.nodes.clear();
        self.tree_starts.clear();
        self.tree_depths.clear();
        reserve_cap(&mut self.nodes, per_tree.saturating_mul(params.n_estimators));
        reserve_cap(&mut self.tree_starts, params.n_estimators + 1);
        reserve_cap(&mut self.tree_depths, params.n_estimators);
        self.single.reserve_nodes(per_tree);
    }
}

impl Default for TreeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// A tree being grown into the scratch's node arena. Child indices are
/// tree-relative (`push` returns them; `link` patches them in), and the
/// maximum leaf depth is tracked as leaves are emitted so the flat
/// compiler never re-walks the finished tree.
struct TreeBuf<'n> {
    nodes: &'n mut Vec<Node>,
    start: usize,
    max_depth: u16,
}

impl TreeBuf<'_> {
    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1 - self.start
    }

    fn link(&mut self, node_idx: usize, left_idx: usize, right_idx: usize) {
        if let Node::Split { left, right, .. } = &mut self.nodes[self.start + node_idx] {
            *left = left_idx;
            *right = right_idx;
        }
    }

    fn note_depth(&mut self, depth: usize) {
        self.max_depth = self.max_depth.max(depth as u16);
    }
}

/// Grow one exact tree over the given positions (in round order),
/// appending its nodes to the scratch arena (`nodes`, tree-relative
/// indices) and writing each position's leaf weight into `leaf_of`
/// (position-indexed, only the entries named by `rows` are touched).
/// `rows` must come from `pools.take_rows()`; it is recycled. Returns
/// the tree's grown depth.
pub(crate) fn grow_tree(
    index: &ExactIndex,
    rctx: &RoundCtx,
    rows: Vec<usize>,
    leaf_of: &mut [f64],
    pools: &mut EnginePools,
    nodes: &mut Vec<Node>,
) -> u16 {
    let start = nodes.len();
    let mut tree = TreeBuf { nodes, start, max_depth: 0 };
    let g: f64 = rows.iter().map(|&p| rctx.grad[p]).sum();
    let h: f64 = rows.iter().map(|&p| rctx.hess[p]).sum();
    let lists = root_lists(index, rctx, &rows, pools);
    grow_exact(index, rctx, &mut tree, rows, lists, 0, g, h, pools, leaf_of);
    tree.max_depth
}

// ---------------------------------------------------------------------
// Exact path
// ---------------------------------------------------------------------

/// Counting-sort the root's rows by rank, per feature. `O(n + k)` per
/// feature; bucket placement in row order reproduces a stable sort.
pub(crate) fn root_lists(
    index: &ExactIndex,
    rctx: &RoundCtx,
    rows: &[usize],
    pools: &mut EnginePools,
) -> FeatureListSet {
    let mut set = pools.take_lists();
    pools.row_ranks.clear();
    pools.row_ranks.resize(rows.len(), 0);
    for &f in rctx.features {
        let k = index.distinct(f).len();
        pools.counts.clear();
        pools.counts.resize(k, 0);
        let mut n_present = 0usize;
        for (i, &p) in rows.iter().enumerate() {
            let r = index.rank(rctx.map[p], f);
            pools.row_ranks[i] = r;
            if r != MISSING_RANK {
                pools.counts[r as usize] += 1;
                n_present += 1;
            }
        }
        // Exclusive prefix sum: counts become bucket write offsets.
        let mut acc = 0u32;
        for c in pools.counts.iter_mut() {
            let n = *c;
            *c = acc;
            acc += n;
        }
        let base = set.pairs.len();
        set.pairs.resize(base + n_present, (0, 0));
        for (i, &p) in rows.iter().enumerate() {
            let r = pools.row_ranks[i];
            if r == MISSING_RANK {
                set.miss.push(p as u32);
            } else {
                let slot = &mut pools.counts[r as usize];
                set.pairs[base + *slot as usize] = (p as u32, r);
                *slot += 1;
            }
        }
        set.close_feature();
    }
    set
}

/// Scan one feature's sorted list for the best boundary, mirroring the
/// old sort-per-node exact scan float-for-float.
#[allow(clippy::too_many_arguments)]
fn scan_list(
    feature: usize,
    sorted: &[(u32, u32)],
    missing: &[u32],
    distinct: &[f64],
    rctx: &RoundCtx,
    total_g: f64,
    total_h: f64,
    tracker: &mut BestTracker,
) {
    // No boundary can be offered with fewer than two present rows, so
    // the missing mass would go unused — skip the whole feature.
    if sorted.len() < 2 {
        return;
    }
    let mut g_miss = 0.0;
    let mut h_miss = 0.0;
    for &p in missing {
        g_miss += rctx.grad[p as usize];
        h_miss += rctx.hess[p as usize];
    }
    let mut gl = 0.0;
    let mut hl = 0.0;
    for i in 0..sorted.len() - 1 {
        let (p, r) = sorted[i];
        gl += rctx.grad[p as usize];
        hl += rctx.hess[p as usize];
        let r_next = sorted[i + 1].1;
        if r_next == r {
            continue;
        }
        let v = distinct[r as usize];
        let v_next = distinct[r_next as usize];
        let threshold = v + (v_next - v) * 0.5;
        tracker.offer_both(feature, threshold, gl, hl, g_miss, h_miss, total_g, total_h);
    }
}

/// The best split of one node over the round's features, scanned by
/// `threads` workers over contiguous feature chunks (the grower passes
/// [`split_workers`] of the node's row count) and merged in chunk order.
pub(crate) fn find_split_exact(
    index: &ExactIndex,
    rctx: &RoundCtx,
    lists: &FeatureListSet,
    threads: usize,
    g: f64,
    h: f64,
) -> Option<SplitCandidate> {
    let cfg = rctx.split_config();
    let nf = rctx.features.len();
    if threads <= 1 || nf < 2 {
        let mut tracker = BestTracker::new(cfg, g, h);
        for (fi, &f) in rctx.features.iter().enumerate() {
            scan_list(
                f,
                lists.pairs(fi),
                lists.miss(fi),
                index.distinct(f),
                rctx,
                g,
                h,
                &mut tracker,
            );
        }
        return tracker.best;
    }
    let threads = threads.min(nf);
    let chunk = nf.div_ceil(threads);
    let results: Vec<Option<SplitCandidate>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nf)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(nf);
                s.spawn(move || {
                    let mut tracker = BestTracker::new(cfg, g, h);
                    for fi in start..end {
                        let f = rctx.features[fi];
                        scan_list(
                            f,
                            lists.pairs(fi),
                            lists.miss(fi),
                            index.distinct(f),
                            rctx,
                            g,
                            h,
                            &mut tracker,
                        );
                    }
                    tracker.best
                })
            })
            .collect();
        handles.into_iter().map(|hd| hd.join().expect("split worker panicked")).collect()
    });
    merge_chunks(cfg, g, h, results)
}

#[allow(clippy::too_many_arguments)]
fn grow_exact(
    index: &ExactIndex,
    rctx: &RoundCtx,
    tree: &mut TreeBuf,
    rows: Vec<usize>,
    lists: FeatureListSet,
    depth: usize,
    g: f64,
    h: f64,
    pools: &mut EnginePools,
    leaf_of: &mut [f64],
) -> usize {
    if depth >= rctx.params.max_depth || rows.len() < 2 {
        let idx = rctx.leaf(tree, depth, &rows, leaf_of, g, h);
        pools.put_rows(rows);
        pools.put_lists(lists);
        return idx;
    }
    let threads = split_workers(rctx.params, rows.len());
    let Some(split) = find_split_exact(index, rctx, &lists, threads, g, h) else {
        let idx = rctx.leaf(tree, depth, &rows, leaf_of, g, h);
        pools.put_rows(rows);
        pools.put_lists(lists);
        return idx;
    };

    // `rank < boundary` is exactly `value < threshold`: every distinct
    // value below the threshold has a rank below the partition point.
    let boundary = index.distinct(split.feature).partition_point(|&v| v < split.threshold) as u32;
    let mut left_rows = pools.take_rows();
    let mut right_rows = pools.take_rows();
    for &p in &rows {
        let r = index.rank(rctx.map[p], split.feature);
        let goes_left = if r == MISSING_RANK { split.default_left } else { r < boundary };
        pools.side[p] = goes_left;
        if goes_left {
            left_rows.push(p);
        } else {
            right_rows.push(p);
        }
    }
    // A candidate with an empty side can only arise from numerical
    // pathology; fall back to a leaf rather than recurse forever.
    if left_rows.is_empty() || right_rows.is_empty() {
        let idx = rctx.leaf(tree, depth, &rows, leaf_of, g, h);
        pools.put_rows(rows);
        pools.put_rows(left_rows);
        pools.put_rows(right_rows);
        pools.put_lists(lists);
        return idx;
    }
    pools.put_rows(rows);

    // Children inherit their sorted order by a stable filter of the
    // parent's lists — no re-sort, and tie order stays node order.
    //
    // Children that will leaf immediately (depth cap, or too few rows
    // to split) never read their lists, so the filter is skipped for
    // them — at the deepest split level that is the *entire* pass. The
    // kept filter is branchless: each pair is written to both children
    // and only the chosen side's cursor advances, trading a second
    // predictable store for an unpredictable branch.
    let want_child_lists =
        depth + 1 < rctx.params.max_depth && (left_rows.len() >= 2 || right_rows.len() >= 2);
    let mut left_lists = pools.take_lists();
    let mut right_lists = pools.take_lists();
    if want_child_lists {
        for fi in 0..rctx.features.len() {
            let parent = lists.pairs(fi);
            let lp0 = left_lists.pairs.len();
            let rp0 = right_lists.pairs.len();
            left_lists.pairs.resize(lp0 + parent.len(), (0, 0));
            right_lists.pairs.resize(rp0 + parent.len(), (0, 0));
            let mut li = 0usize;
            let mut ri = 0usize;
            for &pr in parent {
                left_lists.pairs[lp0 + li] = pr;
                right_lists.pairs[rp0 + ri] = pr;
                let goes_left = pools.side[pr.0 as usize] as usize;
                li += goes_left;
                ri += 1 - goes_left;
            }
            left_lists.pairs.truncate(lp0 + li);
            right_lists.pairs.truncate(rp0 + ri);
            for &p in lists.miss(fi) {
                if pools.side[p as usize] {
                    left_lists.miss.push(p);
                } else {
                    right_lists.miss.push(p);
                }
            }
            left_lists.close_feature();
            right_lists.close_feature();
        }
    }
    pools.put_lists(lists);

    let node_idx = push_split(tree, &split, h);
    let left_idx = grow_exact(
        index,
        rctx,
        tree,
        left_rows,
        left_lists,
        depth + 1,
        split.left_grad,
        split.left_hess,
        pools,
        leaf_of,
    );
    let right_idx = grow_exact(
        index,
        rctx,
        tree,
        right_rows,
        right_lists,
        depth + 1,
        split.right_grad,
        split.right_hess,
        pools,
        leaf_of,
    );
    tree.link(node_idx, left_idx, right_idx);
    node_idx
}

fn push_split(tree: &mut TreeBuf, split: &SplitCandidate, cover: f64) -> usize {
    tree.push(Node::Split {
        feature: split.feature,
        threshold: split.threshold,
        default_left: split.default_left,
        left: usize::MAX,
        right: usize::MAX,
        cover,
        gain: split.gain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaw_tabular::Matrix;
    use proptest::prelude::*;

    /// Dyadic rationals (multiples of 0.25 with small magnitude) make
    /// every partial sum exactly representable, so the exact scan's
    /// row-by-row accumulation and the histogram scan's per-bin grouping
    /// produce bitwise-equal left sums — which is what lets this test
    /// demand bitwise-equal split choices rather than approximate ones.
    fn dyadic_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            8 => (-8i32..9).prop_map(|k| k as f64 * 0.25),
            1 => Just(f64::NAN),
        ]
    }

    fn dyadic_grad() -> impl Strategy<Value = f64> {
        (-8i32..9).prop_map(|k| k as f64 * 0.25)
    }

    fn dyadic_hess() -> impl Strategy<Value = f64> {
        (1i32..9).prop_map(|k| k as f64 * 0.25)
    }

    fn split_params() -> Params {
        let mut params = Params::regression();
        params.min_child_weight = 0.0;
        params.parallel_split_threshold = usize::MAX;
        params
    }

    proptest! {
        /// With every feature's distinct count far below `max_bins`, the
        /// histogram cuts are the exact midpoints, so the exact finder
        /// and the level-wise grower's histogram scan see identical
        /// candidate sets and must grow the same depth-1 tree — split
        /// (feature, threshold, default direction, gain) and leaf
        /// weights alike, bitwise.
        #[test]
        fn hist_and_exact_agree_when_bins_are_exact(
            ncols in 1usize..4,
            rows in proptest::collection::vec(
                proptest::collection::vec(dyadic_value(), 4),
                2..40,
            ),
            grads in proptest::collection::vec(dyadic_grad(), 40),
            hesses in proptest::collection::vec(dyadic_hess(), 40),
        ) {
            let n = rows.len();
            let data = Matrix::from_rows(
                &rows.iter().map(|r| r[..ncols].to_vec()).collect::<Vec<_>>(),
            );
            let params = Params { max_depth: 1, ..split_params() };
            let map: Vec<usize> = (0..n).collect();
            let features: Vec<usize> = (0..ncols).collect();
            let grad = &grads[..n];
            let hess = &hesses[..n];

            let index = ExactIndex::fit(&data);
            let rctx = RoundCtx { map: &map, grad, hess, features: &features, params: &params };
            let mut scratch = TreeScratch::new();
            scratch.prepare(&params, n, Some(&index));
            let mut leaf_of = vec![0.0; n];
            let mut exact = Vec::new();
            let mut root = scratch.pools.take_rows();
            root.extend(0..n);
            grow_tree(&index, &rctx, root, &mut leaf_of, &mut scratch.pools, &mut exact);

            let binned = crate::ChunkedMatrix::fit(&data, 256);
            let mut hist_pools = crate::chunked::HistPools::default();
            hist_pools.prepare(&params, binned.view(), 0..n).unwrap();
            let mut hist = Vec::new();
            hist_pools
                .grow_tree(binned.view(), &params, &map, &features, grad, hess, 1, &mut hist)
                .unwrap();

            prop_assert_eq!(exact.len(), hist.len(), "exact={:?} hist={:?}", exact, hist);
            for (e, h) in exact.iter().zip(&hist) {
                match (e, h) {
                    (
                        Node::Split { feature: fe, threshold: te, default_left: de, gain: ge, .. },
                        Node::Split { feature: fh, threshold: th, default_left: dh, gain: gh, .. },
                    ) => {
                        prop_assert_eq!(fe, fh);
                        prop_assert_eq!(te.to_bits(), th.to_bits());
                        prop_assert_eq!(de, dh);
                        prop_assert_eq!(ge.to_bits(), gh.to_bits());
                    }
                    (Node::Leaf { weight: we, .. }, Node::Leaf { weight: wh, .. }) => {
                        prop_assert_eq!(we.to_bits(), wh.to_bits());
                    }
                    _ => prop_assert!(false, "growers disagree: exact={:?} hist={:?}", exact, hist),
                }
            }
        }
    }
}
