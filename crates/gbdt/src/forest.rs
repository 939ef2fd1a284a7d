//! The flat-forest batched prediction engine.
//!
//! [`Tree::predict_row`] pointer-chases a `Vec<Node>` of 7-field enums —
//! every hop loads a large enum variant, matches on its tag, and follows
//! a `usize` child index, with the next load depending on the previous
//! one. Fine for one row, wasteful for the paper's evaluation loop,
//! which predicts whole matrices over and over (CV folds, early-stopping
//! eval, OOF rotations, SHAP baselines).
//!
//! [`FlatForest`] compiles an ensemble **once** into a contiguous array
//! of 24-byte nodes (the cache-conscious layout argument of the XGBoost
//! system paper, Chen & Guestrin KDD'16 §4):
//!
//! * `threshold: f64` — split threshold, **or the leaf weight** for
//!   leaves (the two are never needed at once);
//! * `children: [u32; 2]` — absolute `[left, right]` indices; a leaf
//!   points both at itself, making it a harmless self-loop;
//! * `feature_and_default: u32` — split feature with the NaN default
//!   direction folded into the top bit.
//!
//! Trees are concatenated with child indices rebased. The leaf
//! self-loops buy the real speedup: a tree of depth `d` is walked with a
//! **fixed** `d`-iteration loop (rows that reach a leaf early just spin
//! on it), so the batch kernel can walk 8 rows per tree in lockstep —
//! eight independent load chains the CPU pipelines where the node walk
//! serialises on one — with no per-hop "am I at a leaf?" branch. Batch
//! entry points fan row blocks across the `msaw_parallel` pool with
//! index-keyed reassembly. On x86_64 a block's whole lockstep groups
//! (16 rows at AVX2, 32 at AVX-512) go to the gather kernels of
//! [`crate::simd`]; the rows past the last whole group, and every row
//! at the scalar level, take the 8-row scalar walk. That split, in
//! `accumulate_block`, is the only place a traversal tail is handled.
//!
//! ## Bit-identity contract
//!
//! Every entry point reproduces [`Booster::predict_raw_row`] exactly:
//! the same `v < threshold` / NaN-default routing, leaf weights summed
//! in tree order, added to the same `base_score`. The accumulation
//! order per row is `base + ((w0 + w1) + …)` — identical operands in
//! identical order — so outputs are bit-for-bit equal to the node walk
//! at any worker count (locked by `tests/flat_forest.rs`).

use crate::booster::Booster;
use crate::objective::Objective;
use crate::tree::{Node, Tree};
use msaw_tabular::Matrix;

/// Top bit of `feature_and_default`: set → missing values go left.
const DEFAULT_LEFT_BIT: u32 = 1 << 31;

/// Rows per parallel block: small enough that a block's outputs live in
/// cache while the tree loop revisits them, large enough to amortise a
/// pool claim.
const BLOCK_ROWS: usize = 256;

/// Rows walked in lockstep per tree — independent traversal chains the
/// CPU can pipeline. 8 keeps the lane state in registers.
const LANES: usize = 8;

/// One compiled node: 24 bytes, three loads per hop, no enum tag.
/// Fields are crate-visible so the artifact codec can persist the
/// compiled array verbatim and validate a loaded one field-by-field.
///
/// `#[repr(C)]` pins the field layout the AVX2 kernel's gathers address
/// by byte offset (checked below at compile time); the codec persists
/// fields individually, so the representation change is invisible on
/// disk.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub(crate) struct FlatNode {
    /// Split threshold; holds the leaf *weight* for leaves.
    pub(crate) threshold: f64,
    /// `[left, right]` child indices; leaves self-loop (`[i, i]`).
    pub(crate) children: [u32; 2],
    /// Split feature, with [`DEFAULT_LEFT_BIT`] folded into the top bit.
    pub(crate) feature_and_default: u32,
}

/// Crate-visible alias of [`DEFAULT_LEFT_BIT`] for the artifact codec.
pub(crate) const FLAT_DEFAULT_LEFT_BIT: u32 = DEFAULT_LEFT_BIT;

// The SIMD traversal kernel gathers node fields by byte offset; if this
// layout ever changes, fail the build rather than read garbage.
const _: () = {
    assert!(std::mem::size_of::<FlatNode>() == 24);
    assert!(std::mem::offset_of!(FlatNode, threshold) == 0);
    assert!(std::mem::offset_of!(FlatNode, children) == 8);
    assert!(std::mem::offset_of!(FlatNode, feature_and_default) == 16);
};

/// Which rows of a matrix a batch block covers: a contiguous run
/// starting at an offset, or an arbitrary index gather (the OOF/grid
/// row-view shape).
enum RowSel<'a> {
    Contiguous(usize),
    Gather(&'a [usize]),
}

/// An ensemble compiled into a contiguous node array for batched
/// prediction. Build one with [`Booster::flat_forest`] (or
/// [`FlatForest::from_trees`]) and reuse it across calls — compilation
/// is a single pass over the nodes.
#[derive(Debug, Clone)]
pub struct FlatForest {
    nodes: Vec<FlatNode>,
    /// Root node index of each tree, in ensemble order.
    roots: Vec<u32>,
    /// Maximum depth of each tree (0 = single leaf): the fixed hop count
    /// of the lockstep kernel.
    depths: Vec<u16>,
    base_score: f64,
    objective: Objective,
    n_features: usize,
}

impl FlatForest {
    /// Compile a trained booster.
    pub fn from_booster(model: &Booster) -> Self {
        Self::from_trees(model.trees(), model.base_score(), model.objective(), model.n_features())
    }

    /// Compile a slice of trees with an explicit base score. Empty trees
    /// are rejected (the grower always emits at least one leaf).
    pub fn from_trees(
        trees: &[Tree],
        base_score: f64,
        objective: Objective,
        n_features: usize,
    ) -> Self {
        let total: usize = trees.iter().map(Tree::len).sum();
        assert!(total < u32::MAX as usize, "forest too large for u32 node indices");
        let mut nodes = Vec::with_capacity(total);
        let mut roots = Vec::with_capacity(trees.len());
        let mut depths = Vec::with_capacity(trees.len());
        for tree in trees {
            assert!(!tree.is_empty(), "cannot compile an empty tree");
            let base = nodes.len() as u32;
            roots.push(base);
            depths.push(u16::try_from(tree.depth()).expect("tree depth fits in u16"));
            for (i, node) in tree.nodes().iter().enumerate() {
                nodes.push(match node {
                    Node::Leaf { weight, .. } => {
                        let me = base + i as u32;
                        FlatNode { threshold: *weight, children: [me, me], feature_and_default: 0 }
                    }
                    Node::Split {
                        feature: f,
                        threshold: t,
                        default_left: dl,
                        left: l,
                        right: r,
                        ..
                    } => {
                        // These bounds are what lets the batch kernel
                        // elide its per-hop checks.
                        assert!(*f < n_features, "split feature out of range");
                        assert!(*l < tree.len() && *r < tree.len(), "child index out of range");
                        FlatNode {
                            threshold: *t,
                            children: [base + *l as u32, base + *r as u32],
                            feature_and_default: (*f as u32)
                                | if *dl { DEFAULT_LEFT_BIT } else { 0 },
                        }
                    }
                });
            }
        }
        FlatForest { nodes, roots, depths, base_score, objective, n_features }
    }

    /// An empty shell for [`Self::recompile_single`] — holds no trees
    /// but keeps its buffers across recompiles.
    pub(crate) fn empty() -> Self {
        FlatForest {
            nodes: Vec::new(),
            roots: Vec::new(),
            depths: Vec::new(),
            base_score: 0.0,
            objective: Objective::SquaredError,
            n_features: 0,
        }
    }

    /// Recompile this forest in place to hold exactly one tree, reusing
    /// the node buffer — the per-round score-update path, which compiles
    /// every freshly grown tree without allocating. `tree_nodes` uses
    /// tree-relative child indices (a tree slice of the scratch arena)
    /// and `depth` is the grower-tracked depth [`Tree::depth`] would
    /// report. Translation and validation mirror [`Self::from_trees`].
    pub(crate) fn recompile_single(
        &mut self,
        tree_nodes: &[Node],
        depth: u16,
        base_score: f64,
        objective: Objective,
        n_features: usize,
    ) {
        assert!(!tree_nodes.is_empty(), "cannot compile an empty tree");
        assert!(tree_nodes.len() < u32::MAX as usize, "forest too large for u32 node indices");
        self.nodes.clear();
        self.roots.clear();
        self.depths.clear();
        self.base_score = base_score;
        self.objective = objective;
        self.n_features = n_features;
        self.roots.push(0);
        self.depths.push(depth);
        if self.nodes.capacity() < tree_nodes.len() {
            self.nodes.reserve(tree_nodes.len());
        }
        for (i, node) in tree_nodes.iter().enumerate() {
            self.nodes.push(match node {
                Node::Leaf { weight, .. } => {
                    let me = i as u32;
                    FlatNode { threshold: *weight, children: [me, me], feature_and_default: 0 }
                }
                Node::Split {
                    feature: f,
                    threshold: t,
                    default_left: dl,
                    left: l,
                    right: r,
                    ..
                } => {
                    assert!(*f < n_features, "split feature out of range");
                    assert!(
                        *l < tree_nodes.len() && *r < tree_nodes.len(),
                        "child index out of range"
                    );
                    FlatNode {
                        threshold: *t,
                        children: [*l as u32, *r as u32],
                        feature_and_default: (*f as u32) | if *dl { DEFAULT_LEFT_BIT } else { 0 },
                    }
                }
            });
        }
    }

    /// Pre-size the node buffer so [`Self::recompile_single`] never
    /// reallocates mid-fit (called from `TreeScratch::prepare` with the
    /// fit's worst-case tree size).
    pub(crate) fn reserve_nodes(&mut self, cap: usize) {
        if self.nodes.capacity() < cap {
            self.nodes.reserve(cap - self.nodes.len());
        }
    }

    /// Reassemble a forest from parts the artifact decoder has already
    /// validated: every child index `< nodes.len()`, every split
    /// feature `< n_features`, `roots`/`depths` one entry per tree with
    /// roots in range. The unchecked batch kernel relies on exactly
    /// those invariants, so this constructor is crate-private — the
    /// only callers are [`Self::from_trees`]-equivalent paths that have
    /// proven them.
    pub(crate) fn from_validated_parts(
        nodes: Vec<FlatNode>,
        roots: Vec<u32>,
        depths: Vec<u16>,
        base_score: f64,
        objective: Objective,
        n_features: usize,
    ) -> Self {
        debug_assert_eq!(roots.len(), depths.len());
        FlatForest { nodes, roots, depths, base_score, objective, n_features }
    }

    /// The compiled node array (the artifact codec's persistence unit).
    pub(crate) fn raw_nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// Per-tree root indices, in ensemble order.
    pub(crate) fn raw_roots(&self) -> &[u32] {
        &self.roots
    }

    /// Per-tree maximum depths (the lockstep kernel's hop counts).
    pub(crate) fn raw_depths(&self) -> &[u16] {
        &self.depths
    }

    /// The objective the compiled model transforms raw scores with.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Number of trees compiled in.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total number of nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The base (raw) score every prediction starts from.
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// Number of features a row must have.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// One routing hop from node `i`; must not be called on a leaf
    /// (leaves read `row[0]`, which zero-width rows don't have).
    #[inline(always)]
    fn step(&self, i: usize, row: &[f64]) -> usize {
        let node = &self.nodes[i];
        let fd = node.feature_and_default;
        let v = row[(fd & !DEFAULT_LEFT_BIT) as usize];
        let go_left = if v.is_nan() { fd & DEFAULT_LEFT_BIT != 0 } else { v < node.threshold };
        node.children[usize::from(!go_left)] as usize
    }

    /// [`Self::step`] without bounds checks — the batch kernel's hop.
    ///
    /// # Safety
    ///
    /// `i` must be a node index of this forest and `row.len()` must
    /// equal `self.n_features` (with `n_features > 0` if `i` may be a
    /// leaf). `from_trees` asserts every split feature `< n_features`
    /// and every child in range, and children never leave the forest,
    /// so both loads stay in bounds.
    #[inline(always)]
    unsafe fn step_unchecked(&self, i: usize, row: &[f64]) -> usize {
        let node = self.nodes.get_unchecked(i);
        let fd = node.feature_and_default;
        let v = *row.get_unchecked((fd & !DEFAULT_LEFT_BIT) as usize);
        // Branch-free routing: `v < t` is false for NaN, so missing
        // values fall through to the default-direction term instead of
        // a data-dependent (mispredicting) NaN branch.
        let go_left = (v < node.threshold) | (v.is_nan() & (fd & DEFAULT_LEFT_BIT != 0));
        *node.children.get_unchecked(usize::from(!go_left)) as usize
    }

    /// Walk one tree for one row, returning its leaf weight.
    #[inline]
    fn leaf_value(&self, root: u32, row: &[f64]) -> f64 {
        let mut i = root as usize;
        while self.nodes[i].children[0] as usize != i {
            i = self.step(i, row);
        }
        self.nodes[i].threshold
    }

    /// Sum of tree contributions for one row, in tree order, **without**
    /// the base score (the single-tree building block `FitRun` uses
    /// for its eval-set updates).
    #[inline]
    pub fn sum_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut acc = 0.0;
        for &root in &self.roots {
            acc += self.leaf_value(root, row);
        }
        acc
    }

    /// Raw (untransformed) score for one row — bit-identical to
    /// [`Booster::predict_raw_row`].
    #[inline]
    pub fn predict_raw_row(&self, row: &[f64]) -> f64 {
        self.base_score + self.sum_row(row)
    }

    /// Transformed prediction for one row.
    #[inline]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.objective.transform(self.predict_raw_row(row))
    }

    /// The batch kernel: accumulate every tree's contribution for rows
    /// `rows_of(0..n)` into `out`, trees outer so the hot tree's nodes
    /// stay cached, [`LANES`] rows walked in lockstep inside. Thanks to
    /// the leaf self-loops each tree is a fixed `depth`-hop loop with no
    /// per-hop leaf test, and the lanes are independent load chains.
    ///
    /// Every slice `rows_of` returns must have `self.n_features`
    /// elements — the entry points assert the matrix width once so the
    /// per-hop loads can go unchecked.
    fn accumulate<'d>(&self, rows_of: impl Fn(usize) -> &'d [f64], out: &mut [f64]) {
        let n = out.len();
        for (t, &root) in self.roots.iter().enumerate() {
            let root = root as usize;
            let depth = self.depths[t] as usize;
            if depth == 0 {
                let w = self.nodes[root].threshold;
                for o in out.iter_mut() {
                    *o += w;
                }
                continue;
            }
            let mut base = 0;
            while base + LANES <= n {
                let rows: [&[f64]; LANES] = std::array::from_fn(|k| {
                    let row = rows_of(base + k);
                    assert_eq!(row.len(), self.n_features, "row width mismatch");
                    row
                });
                let mut idx = [root; LANES];
                for _ in 0..depth {
                    for k in 0..LANES {
                        // SAFETY: `idx[k]` starts at a root and follows
                        // validated children; rows are `n_features` wide
                        // (asserted above) and a split under this tree
                        // guarantees `n_features > 0` for the leaf
                        // self-loop's `row[0]` read.
                        idx[k] = unsafe { self.step_unchecked(idx[k], rows[k]) };
                    }
                }
                for k in 0..LANES {
                    out[base + k] += self.nodes[idx[k]].threshold;
                }
                base += LANES;
            }
            for (k, o) in out.iter_mut().enumerate().skip(base) {
                *o += self.leaf_value(root as u32, rows_of(k));
            }
        }
    }

    /// Route one block through the level's kernel: the one place a
    /// traversal tail is handled. The vector levels validate the block's
    /// row indices and width once, precompute each row's flat offset
    /// into the matrix buffer on the stack, and hand the block's whole
    /// lockstep groups (16 rows at AVX2, 32 at AVX-512) to the level's
    /// kernel; the rows past the last whole group, and every row at the
    /// scalar level, run the scalar [`Self::accumulate`]. Each output
    /// still adds its trees' leaf weights in tree order, so all levels
    /// produce bit-identical sums (see `simd.rs` module docs).
    fn accumulate_block(
        &self,
        level: crate::simd::SimdLevel,
        data: &Matrix,
        rows: RowSel,
        out: &mut [f64],
    ) {
        // Rows `..done` go to the vector kernel, `done..` to the scalar walk.
        #[cfg(target_arch = "x86_64")]
        let done = if level >= crate::simd::SimdLevel::Avx2 && out.len() <= BLOCK_ROWS {
            use crate::simd::x86::{accumulate_avx2, accumulate_avx512, GROUP, GROUP512};
            type Kernel = unsafe fn(&[FlatNode], &[u32], &[u16], &[f64], &[i64], &mut [f64]);
            let (group, kernel): (usize, Kernel) = if level == crate::simd::SimdLevel::Avx512 {
                (GROUP512, accumulate_avx512)
            } else {
                (GROUP, accumulate_avx2)
            };
            let done = out.len() / group * group;
            let ncols = data.ncols();
            assert_eq!(ncols, self.n_features, "row width mismatch");
            let mut off = [0i64; BLOCK_ROWS];
            match rows {
                RowSel::Contiguous(start) => {
                    assert!(start + done <= data.nrows(), "row range out of bounds");
                    for (k, o) in off[..done].iter_mut().enumerate() {
                        *o = ((start + k) * ncols) as i64;
                    }
                }
                RowSel::Gather(block) => {
                    assert_eq!(block.len(), out.len());
                    for (o, &r) in off[..done].iter_mut().zip(block) {
                        assert!(r < data.nrows(), "row index out of bounds");
                        *o = (r * ncols) as i64;
                    }
                }
            }
            // SAFETY: the level's ISA is guaranteed by `active_level`'s
            // capability clamp; the forest's construction validated
            // every node, and the row offsets were just bounds-checked
            // against `data`.
            unsafe {
                kernel(
                    &self.nodes,
                    &self.roots,
                    &self.depths,
                    data.as_slice(),
                    &off[..done],
                    &mut out[..done],
                )
            };
            done
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (done, _) = (0, level);
        let tail = &mut out[done..];
        match rows {
            RowSel::Contiguous(start) => self.accumulate(|k| data.row(start + done + k), tail),
            RowSel::Gather(block) => self.accumulate(|k| data.row(block[done + k]), tail),
        }
    }

    /// The one [`BLOCK_ROWS`]-row block loop behind every batch entry
    /// point: raw scores of `n` rows at kernel `level` on `workers`
    /// threads, `select` naming each block's rows. Byte-identical at any
    /// worker count.
    fn raw_blocks<'r>(
        &self,
        workers: usize,
        data: &Matrix,
        level: crate::simd::SimdLevel,
        n: usize,
        select: impl Fn(std::ops::Range<usize>) -> RowSel<'r> + Sync,
    ) -> Result<Vec<f64>, msaw_parallel::PoolError> {
        msaw_parallel::try_run_blocks_on(workers, n, BLOCK_ROWS, |range| {
            let mut out = vec![0.0; range.len()];
            self.accumulate_block(level, data, select(range), &mut out);
            for o in &mut out {
                // IEEE addition commutes bit-for-bit, so this equals `base + acc`.
                *o += self.base_score;
            }
            out
        })
    }

    /// Transformed predictions for every row of a matrix, fanned across
    /// the default worker pool: [`Self::try_predict_batch_on`] on every
    /// core, panicking where it returns an error.
    pub fn predict_batch(&self, data: &Matrix) -> Vec<f64> {
        self.try_predict_batch_on(msaw_parallel::available_workers(), data)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Raw scores for every row of a matrix on exactly `workers` threads
    /// at kernel `level`, in fixed 256-row blocks, byte-identical
    /// at any worker count. Panic-safe: a row-width mismatch is a typed
    /// [`PredictError`] and a panicking block comes back as
    /// `PredictError::Batch` with the lowest failing block index (the
    /// pool's drain policy) instead of unwinding — the serving layer's
    /// guarantee that one bad request cannot take down a worker. A
    /// zero-row matrix yields an empty vector — the pool's block
    /// splitter produces zero blocks — so callers need no empty-input
    /// guard. Pass [`crate::simd::active_level`] unless comparing
    /// kernel tiers.
    ///
    /// [`PredictError`]: crate::error::PredictError
    pub fn try_predict_raw_batch_on(
        &self,
        workers: usize,
        data: &Matrix,
        level: crate::simd::SimdLevel,
    ) -> Result<Vec<f64>, crate::error::PredictError> {
        if data.ncols() != self.n_features {
            return Err(crate::error::PredictError::FeatureCount {
                expected: self.n_features,
                actual: data.ncols(),
            });
        }
        self.raw_blocks(workers, data, level, data.nrows(), |r| RowSel::Contiguous(r.start))
            .map_err(|e| crate::error::PredictError::Batch { block: e.job, message: e.message })
    }

    /// Panic-safe transformed batch prediction on exactly `workers`
    /// threads at the active kernel level (see
    /// [`Self::try_predict_raw_batch_on`]).
    pub fn try_predict_batch_on(
        &self,
        workers: usize,
        data: &Matrix,
    ) -> Result<Vec<f64>, crate::error::PredictError> {
        let mut out = self.try_predict_raw_batch_on(workers, data, crate::simd::active_level())?;
        for o in &mut out {
            *o = self.objective.transform(*o);
        }
        Ok(out)
    }

    /// Raw scores for a row-index view of a matrix on exactly `workers`
    /// threads (the OOF/grid shape: predict a fold's validation rows
    /// without materialising them) — pass 1 from call sites already
    /// running inside a worker pool. An empty `rows` slice yields an
    /// empty vector.
    pub fn predict_raw_rows_on(&self, workers: usize, data: &Matrix, rows: &[usize]) -> Vec<f64> {
        debug_assert_eq!(data.ncols(), self.n_features);
        let level = crate::simd::active_level();
        self.raw_blocks(workers, data, level, rows.len(), |r| RowSel::Gather(&rows[r]))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Transformed predictions for a row-index view of a matrix on every
    /// core.
    pub fn predict_rows(&self, data: &Matrix, rows: &[usize]) -> Vec<f64> {
        self.predict_rows_on(msaw_parallel::available_workers(), data, rows)
    }

    /// [`Self::predict_rows`] on exactly `workers` threads.
    pub fn predict_rows_on(&self, workers: usize, data: &Matrix, rows: &[usize]) -> Vec<f64> {
        let mut out = self.predict_raw_rows_on(workers, data, rows);
        for o in &mut out {
            *o = self.objective.transform(*o);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    /// The in-place single-tree recompile must behave exactly like a
    /// fresh `from_trees` over the same tree, including when the buffer
    /// is reused across trees of different shapes.
    #[test]
    fn recompile_single_matches_from_trees() {
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 9) as f64, if i % 7 == 0 { f64::NAN } else { (i % 5) as f64 }])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + r[1].max(0.0)).collect();
        let x = Matrix::from_rows(&rows);
        let params = Params { n_estimators: 6, max_depth: 3, ..Params::regression() };
        let model = Booster::train(&params, &x, &y).unwrap();

        let mut reused = FlatForest::empty();
        for tree in model.trees() {
            let fresh = FlatForest::from_trees(
                std::slice::from_ref(tree),
                0.0,
                model.objective(),
                model.n_features(),
            );
            let depth = u16::try_from(tree.depth()).unwrap();
            reused.recompile_single(
                tree.nodes(),
                depth,
                0.0,
                model.objective(),
                model.n_features(),
            );
            assert_eq!(reused.n_trees(), 1);
            assert_eq!(reused.n_nodes(), tree.len());
            for i in 0..x.nrows() {
                let a = fresh.sum_row(x.row(i));
                let b = reused.sum_row(x.row(i));
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
    }
}
