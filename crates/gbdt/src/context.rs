//! Shared training context: quantise and rank a feature matrix **once**,
//! then train any number of boosters on row-index views of it.
//!
//! The experiment protocol behind the paper's 12-model grid performs
//! ~72 fits per grid (5 CV folds + 1 final fit × 12 variants), and the
//! naive path pays `Matrix::take_rows` plus a full re-sort/re-binning of
//! the feature matrix for every one of them. A [`TrainingContext`]
//! front-loads the order statistics both split finders need:
//!
//! * an [`ExactIndex`] — per feature, the sorted distinct present values
//!   and each row's *rank* into them — which lets the exact finder
//!   value-sort any node's rows with a counting sort (`O(n + k)`) instead
//!   of a comparison sort, and partition on integer rank compares;
//! * a one-block [`ChunkedMatrix`] of bin codes over the full matrix
//!   for the histogram grower (shared cuts, XGBoost `DMatrix`
//!   semantics) — the same store out-of-core fits stream, so in-memory
//!   and out-of-core histogram fits run one grower.
//!
//! Determinism contract: for `TreeMethod::Exact`,
//! [`crate::Booster::train_on_rows`] against a context is **bit-for-bit
//! identical** to materialising the rows with `take_rows` and calling
//! [`crate::Booster::train`] — rank order reproduces value order exactly,
//! and counting sort reproduces the stable sort's tie order (node
//! insertion order). The equivalence tests in the crate pin this.
//!
//! For `TreeMethod::Hist` the context's cuts come from the *full*
//! matrix, not the training subset, so thresholds can differ from the
//! copy-then-train path (which re-fits cuts on the subset). That is the
//! standard shared-`DMatrix` behaviour and is the point of binning once.
//!
//! ## Cross-variant sharing
//!
//! The grid's variant matrices overlap massively: DD and DD+FI share 59
//! of 60 columns (DD+FI appends one frailty column), and the KD pair
//! likewise. A [`ContextCache`] deduplicates the per-column work — the
//! sort/dedup/rank pass and the cut fitting/encoding — across every
//! context built through it, keyed on the column's exact bit pattern.
//! Because each per-column artifact is a pure function of the column's
//! bytes, a cache-built context is bit-identical to a direct
//! [`TrainingContext::new`] over the same matrix.

use crate::binning::{bump_column_fit_count, cuts_from_distinct, distinct_values, encode_column};
use crate::chunked::ChunkedMatrix;
use crate::params::DEFAULT_CONTEXT_BINS;
use msaw_tabular::Matrix;
use std::collections::HashMap;

/// Sentinel rank for missing (`NaN`) values.
pub const MISSING_RANK: u32 = u32::MAX;

/// Order statistics of a single column: its sorted distinct present
/// values and every cell's rank into them ([`MISSING_RANK`] for `NaN`).
pub(crate) fn exact_column(col: &[f64]) -> (Vec<f64>, Vec<u32>) {
    let values = distinct_values(col);
    let mut ranks = vec![MISSING_RANK; col.len()];
    for (i, &v) in col.iter().enumerate() {
        if !v.is_nan() {
            // v is present in `values`, so the partition point is
            // exactly its index.
            ranks[i] = values.partition_point(|&x| x < v) as u32;
        }
    }
    (values, ranks)
}

/// Per-feature order statistics for the exact split finder: sorted
/// distinct present values, and each cell's rank into them.
#[derive(Debug, Clone)]
pub struct ExactIndex {
    /// Per feature, ascending distinct present values.
    distinct: Vec<Vec<f64>>,
    /// Row-major ranks; `MISSING_RANK` encodes `NaN`.
    ranks: Vec<u32>,
    ncols: usize,
}

impl ExactIndex {
    /// Build the index for a full matrix.
    pub fn fit(data: &Matrix) -> ExactIndex {
        let nrows = data.nrows();
        let ncols = data.ncols();
        let mut distinct = Vec::with_capacity(ncols);
        let mut ranks = vec![MISSING_RANK; nrows * ncols];
        for j in 0..ncols {
            let col = data.column(j);
            let (values, col_ranks) = exact_column(&col);
            for (i, &r) in col_ranks.iter().enumerate() {
                ranks[i * ncols + j] = r;
            }
            distinct.push(values);
        }
        ExactIndex { distinct, ranks, ncols }
    }

    /// Assemble from per-column artifacts (the [`ContextCache`] path);
    /// `ranks` is already row-major.
    pub(crate) fn from_parts(distinct: Vec<Vec<f64>>, ranks: Vec<u32>, ncols: usize) -> ExactIndex {
        assert_eq!(distinct.len(), ncols, "one distinct set per feature required");
        ExactIndex { distinct, ranks, ncols }
    }

    /// Sorted distinct present values of one feature.
    #[inline]
    pub fn distinct(&self, feature: usize) -> &[f64] {
        &self.distinct[feature]
    }

    /// Rank of `(row, feature)`; [`MISSING_RANK`] encodes missing.
    #[inline]
    pub fn rank(&self, row: usize, feature: usize) -> u32 {
        self.ranks[row * self.ncols + feature]
    }

    /// Feature count.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Largest per-feature distinct count — the counting-sort bucket
    /// bound scratch preparation reserves against.
    pub(crate) fn max_distinct(&self) -> usize {
        self.distinct.iter().map(|d| d.len()).max().unwrap_or(0)
    }
}

/// A feature matrix prepared once for repeated training on row subsets.
#[derive(Debug)]
pub struct TrainingContext<'a> {
    data: &'a Matrix,
    exact: ExactIndex,
    binned: ChunkedMatrix,
}

impl<'a> TrainingContext<'a> {
    /// Prepare `data` with the default histogram resolution
    /// ([`DEFAULT_CONTEXT_BINS`]). Builds both the exact rank index and
    /// the quantile binning eagerly; [`ChunkedMatrix::fit`] runs exactly
    /// once per context.
    pub fn new(data: &'a Matrix) -> TrainingContext<'a> {
        Self::with_max_bins(data, DEFAULT_CONTEXT_BINS)
    }

    /// Prepare `data` with an explicit histogram bin budget.
    pub fn with_max_bins(data: &'a Matrix, max_bins: u16) -> TrainingContext<'a> {
        TrainingContext {
            data,
            exact: ExactIndex::fit(data),
            binned: ChunkedMatrix::fit(data, max_bins),
        }
    }

    /// The underlying full matrix.
    pub fn data(&self) -> &'a Matrix {
        self.data
    }

    /// The exact-finder rank index.
    pub fn exact(&self) -> &ExactIndex {
        &self.exact
    }

    /// The shared full-matrix quantisation: one in-memory block.
    pub fn binned(&self) -> &ChunkedMatrix {
        &self.binned
    }

    /// Row count of the underlying matrix.
    pub fn nrows(&self) -> usize {
        self.data.nrows()
    }

    /// Feature count of the underlying matrix.
    pub fn ncols(&self) -> usize {
        self.data.ncols()
    }
}

/// One column's quantisation under a specific bin budget: `(cuts, codes)`.
type ColumnBinning = (Vec<f64>, Vec<u16>);

/// Per-column artifacts memoised by the [`ContextCache`].
#[derive(Debug)]
struct CachedColumn {
    distinct: Vec<f64>,
    ranks: Vec<u32>,
    /// Per bin budget used so far: `(max_bins, (cuts, codes))`. Almost
    /// always length 0 or 1 — the grid uses one budget throughout.
    binned: Vec<(u16, ColumnBinning)>,
}

/// Cross-variant memoisation of per-column quantisation work.
///
/// Columns are keyed on their exact bit pattern (`f64::to_bits` per
/// cell), so two variant matrices that share a column — regardless of
/// where it sits — compute its sort/rank pass and its cuts/codes once.
/// Every artifact is a pure function of the column bytes (and the bin
/// budget), which makes a cache-built [`TrainingContext`] bit-identical
/// to a directly-built one; the tests below and the grid equivalence
/// suite in `msaw-core` pin that.
#[derive(Debug, Default)]
pub struct ContextCache {
    columns: HashMap<Vec<u64>, CachedColumn>,
    hits: usize,
    misses: usize,
}

impl ContextCache {
    /// An empty cache.
    pub fn new() -> ContextCache {
        ContextCache::default()
    }

    /// Build a context with the default bin budget, reusing any column
    /// already seen by this cache.
    pub fn context_for<'a>(&mut self, data: &'a Matrix) -> TrainingContext<'a> {
        self.context_with_bins(data, DEFAULT_CONTEXT_BINS)
    }

    /// Build a context with an explicit bin budget, reusing any column
    /// already seen by this cache.
    pub fn context_with_bins<'a>(
        &mut self,
        data: &'a Matrix,
        max_bins: u16,
    ) -> TrainingContext<'a> {
        assert!(max_bins >= 2, "need at least 2 bins");
        let nrows = data.nrows();
        let ncols = data.ncols();
        let mut distinct = Vec::with_capacity(ncols);
        let mut cuts = Vec::with_capacity(ncols);
        let mut ranks = vec![MISSING_RANK; nrows * ncols];
        let mut codes = vec![0u16; nrows * ncols];
        for j in 0..ncols {
            let col = data.column(j);
            let key: Vec<u64> = col.iter().map(|v| v.to_bits()).collect();
            let entry = match self.columns.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    self.hits += 1;
                    e.into_mut()
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.misses += 1;
                    let (values, col_ranks) = exact_column(&col);
                    e.insert(CachedColumn {
                        distinct: values,
                        ranks: col_ranks,
                        binned: Vec::new(),
                    })
                }
            };
            if !entry.binned.iter().any(|(b, _)| *b == max_bins) {
                let col_cuts = cuts_from_distinct(&entry.distinct, max_bins);
                let col_codes = encode_column(&col, &col_cuts);
                bump_column_fit_count(1);
                entry.binned.push((max_bins, (col_cuts, col_codes)));
            }
            let (col_cuts, col_codes) =
                &entry.binned.iter().find(|(b, _)| *b == max_bins).expect("just inserted").1;
            for i in 0..nrows {
                ranks[i * ncols + j] = entry.ranks[i];
                codes[i * ncols + j] = col_codes[i];
            }
            distinct.push(entry.distinct.clone());
            cuts.push(col_cuts.clone());
        }
        TrainingContext {
            data,
            exact: ExactIndex::from_parts(distinct, ranks, ncols),
            binned: ChunkedMatrix::from_codes(cuts, nrows, codes),
        }
    }

    /// Columns served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Columns computed from scratch so far (= distinct columns seen).
    pub fn misses(&self) -> usize {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Matrix {
        Matrix::from_rows(&[vec![3.0, f64::NAN], vec![1.0, 5.0], vec![3.0, 2.0], vec![2.0, 5.0]])
    }

    #[test]
    fn ranks_order_matches_value_order() {
        let x = toy();
        let idx = ExactIndex::fit(&x);
        assert_eq!(idx.distinct(0), &[1.0, 2.0, 3.0]);
        assert_eq!(idx.rank(0, 0), 2);
        assert_eq!(idx.rank(1, 0), 0);
        assert_eq!(idx.rank(2, 0), 2);
        assert_eq!(idx.rank(3, 0), 1);
    }

    #[test]
    fn missing_values_get_the_sentinel_rank() {
        let x = toy();
        let idx = ExactIndex::fit(&x);
        assert_eq!(idx.rank(0, 1), MISSING_RANK);
        assert_eq!(idx.distinct(1), &[2.0, 5.0]);
        assert_eq!(idx.rank(1, 1), 1);
        assert_eq!(idx.rank(2, 1), 0);
    }

    #[test]
    fn rank_reconstructs_the_value() {
        let x = toy();
        let idx = ExactIndex::fit(&x);
        for i in 0..x.nrows() {
            for j in 0..x.ncols() {
                let r = idx.rank(i, j);
                if r != MISSING_RANK {
                    assert_eq!(idx.distinct(j)[r as usize], x.get(i, j));
                }
            }
        }
    }

    #[test]
    fn context_builds_both_indices() {
        let x = toy();
        let before = crate::binning::fit_count();
        let ctx = TrainingContext::new(&x);
        assert_eq!(crate::binning::fit_count(), before + 1);
        assert_eq!(ctx.nrows(), 4);
        assert_eq!(ctx.ncols(), 2);
        assert_eq!(ctx.exact().ncols(), 2);
        assert_eq!(ctx.binned().nrows(), 4);
    }

    /// A cache-built context must be indistinguishable from a direct one.
    #[test]
    fn cached_context_matches_direct_build() {
        let x = toy();
        let direct = TrainingContext::new(&x);
        let mut cache = ContextCache::new();
        let cached = cache.context_for(&x);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        for j in 0..x.ncols() {
            assert_eq!(direct.exact().distinct(j), cached.exact().distinct(j));
            assert_eq!(direct.binned().cuts(j), cached.binned().cuts(j));
            for i in 0..x.nrows() {
                assert_eq!(direct.exact().rank(i, j), cached.exact().rank(i, j));
                assert_eq!(direct.binned().bin(i, j), cached.binned().bin(i, j));
            }
        }
    }

    /// Shared columns between two matrices are computed once; only the
    /// extra column costs work.
    #[test]
    fn shared_columns_hit_the_cache() {
        let x = toy();
        let extended = x.hstack_column(&[7.0, 8.0, 9.0, 7.0]);
        let mut cache = ContextCache::new();
        let col_before = crate::binning::column_fit_count();
        cache.context_for(&x);
        assert_eq!((cache.misses(), cache.hits()), (2, 0));
        let second = cache.context_for(&extended);
        assert_eq!((cache.misses(), cache.hits()), (3, 2));
        assert_eq!(crate::binning::column_fit_count() - col_before, 3);
        // The shared columns still come out identical.
        let direct = TrainingContext::new(&extended);
        for j in 0..extended.ncols() {
            assert_eq!(direct.exact().distinct(j), second.exact().distinct(j));
            assert_eq!(direct.binned().cuts(j), second.binned().cuts(j));
        }
    }

    /// Distinct bin budgets over the same column share the rank pass but
    /// quantise separately.
    #[test]
    fn distinct_bin_budgets_requantise() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![(i % 17) as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let mut cache = ContextCache::new();
        let a = cache.context_with_bins(&x, 4);
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        let b = cache.context_with_bins(&x, 256);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert!(a.binned().cuts(0).len() <= 3);
        assert_eq!(b.binned().cuts(0).len(), 16);
        assert_eq!(b.binned().cuts(0), TrainingContext::new(&x).binned().cuts(0));
    }
}
