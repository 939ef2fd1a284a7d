//! The streaming cut sketch: per-feature distinct values merged chunk
//! by chunk, then turned into the histogram grower's quantile cuts.

use crate::binning::cuts_from_distinct;

/// Default per-feature capacity of the [`CutSketch`]: below this many
/// distinct values the sketch is exact and the resulting cuts are
/// byte-identical to [`crate::ChunkedMatrix::fit`] on the materialised
/// matrix.
pub const DEFAULT_SKETCH_DISTINCT: usize = 1 << 16;

/// Streaming per-feature distinct-value accumulator: feed row-major
/// chunks in any sizes, then derive quantile cuts. Exact (and therefore
/// bit-identical to the in-memory fit) while a column's distinct count
/// stays within `capacity`; beyond it the sorted set is thinned to
/// evenly spaced ranks, which keeps memory bounded at population scale
/// at the cost of approximate (still deterministic) cuts.
#[derive(Debug, Clone)]
pub struct CutSketch {
    capacity: usize,
    cols: Vec<Vec<f64>>,
    /// Per-column flag: set once thinning has discarded distinct values.
    thinned: Vec<bool>,
}

impl CutSketch {
    /// A sketch over `ncols` features with the default capacity.
    pub fn new(ncols: usize) -> CutSketch {
        CutSketch::with_capacity(ncols, DEFAULT_SKETCH_DISTINCT)
    }

    /// A sketch with an explicit per-feature distinct-value capacity
    /// (clamped to at least 2 so cuts stay derivable).
    pub fn with_capacity(ncols: usize, capacity: usize) -> CutSketch {
        CutSketch {
            capacity: capacity.max(2),
            cols: vec![Vec::new(); ncols],
            thinned: vec![false; ncols],
        }
    }

    /// Number of features the sketch tracks.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Whether every column's distinct set is still exact.
    pub fn is_exact(&self) -> bool {
        self.thinned.iter().all(|&t| !t)
    }

    /// Absorb a row-major chunk (`rows.len()` must be a multiple of
    /// `ncols`). `NaN`s are missing and ignored, as in the in-memory fit.
    pub fn update(&mut self, rows: &[f64]) {
        let ncols = self.cols.len();
        assert!(ncols > 0 && rows.len().is_multiple_of(ncols), "row-major chunk width mismatch");
        let mut distinct = Vec::new();
        for j in 0..ncols {
            column_distinct(rows, ncols, j, &mut distinct);
            self.absorb(j, &distinct);
        }
    }

    /// Absorb another sketch over the same features — the reduction a
    /// parallel sketch pass folds per-chunk sketches with (the streaming
    /// pipelines fold ranked chunks through [`CutSketch::merge_ranked`],
    /// which merges the same sets). While every column is still exact,
    /// merging distinct sets is associative and commutative, so the
    /// result is independent of how the input chunks were grouped into
    /// per-worker sketches; once capacity forces thinning, the merge
    /// stays deterministic in merge order (the scale pipeline always
    /// merges in ascending chunk order).
    pub fn merge(&mut self, other: &CutSketch) {
        assert_eq!(self.cols.len(), other.cols.len(), "sketch width mismatch");
        assert_eq!(self.capacity, other.capacity, "sketch capacity mismatch");
        for j in 0..self.cols.len() {
            self.thinned[j] |= other.thinned[j];
            self.absorb(j, &other.cols[j]);
        }
    }

    /// Merge one chunk's per-column sorted distinct values the way
    /// [`CutSketch::merge`] merges a fresh sketch of that chunk: a
    /// column the chunk alone overfills is thinned first.
    pub(crate) fn merge_chunk(&mut self, distinct: &[Vec<f64>]) {
        assert_eq!(self.cols.len(), distinct.len(), "sketch width mismatch");
        for (j, values) in distinct.iter().enumerate() {
            if values.len() > self.capacity {
                let mut part = values.clone();
                thin_even(&mut part, self.capacity);
                self.thinned[j] = true;
                self.absorb(j, &part);
            } else {
                self.absorb(j, values);
            }
        }
    }

    /// Union sorted distinct `values` into column `j`, thinning past
    /// capacity — the step every way of feeding the sketch ends in.
    fn absorb(&mut self, j: usize, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        self.cols[j] = merge_distinct(&self.cols[j], values);
        if self.cols[j].len() > self.capacity {
            thin_even(&mut self.cols[j], self.capacity);
            self.thinned[j] = true;
        }
    }

    /// Derive the per-feature cut sets, exactly as the in-memory fit
    /// derives them from each column's distinct values.
    pub fn cuts(&self, max_bins: u16) -> Vec<Vec<f64>> {
        self.cols.iter().map(|d| cuts_from_distinct(d, max_bins)).collect()
    }
}

/// Column `j`'s sorted distinct present values of a row-major chunk,
/// into `out` — the per-chunk set the sketch and the pass-1 ranks share.
pub(crate) fn column_distinct(rows: &[f64], ncols: usize, j: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend(rows.iter().skip(j).step_by(ncols).copied().filter(|v| !v.is_nan()));
    out.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    out.dedup();
}

/// Merge two sorted deduplicated runs into one.
pub(crate) fn merge_distinct(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if b[j] < a[i] {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Thin a sorted set to `cap` evenly spaced ranks (keeping both ends).
fn thin_even(vals: &mut Vec<f64>, cap: usize) {
    let n = vals.len();
    if n <= cap {
        return;
    }
    let kept: Vec<f64> = (0..cap).map(|k| vals[k * (n - 1) / (cap - 1)]).collect();
    *vals = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::tests::synth;
    use crate::ChunkedMatrix;
    use msaw_tabular::Matrix;

    #[test]
    fn sketch_matches_in_memory_cuts() {
        let nrows = 200;
        let ncols = 4;
        let rows = synth(nrows, ncols, true);
        let data = Matrix::from_vec(rows.clone(), nrows, ncols);
        let binned = ChunkedMatrix::fit(&data, 16);
        for chunk in [1usize, 7, 64, nrows] {
            let mut sketch = CutSketch::new(ncols);
            for block in rows.chunks(chunk * ncols) {
                sketch.update(block);
            }
            assert!(sketch.is_exact());
            let cuts = sketch.cuts(16);
            for (j, c) in cuts.iter().enumerate() {
                assert_eq!(c, binned.cuts(j), "feature {j} at chunk {chunk}");
            }
        }
    }

    #[test]
    fn sketch_thins_deterministically_beyond_capacity() {
        let rows = synth(500, 1, false);
        let mut a = CutSketch::with_capacity(1, 64);
        let mut b = CutSketch::with_capacity(1, 64);
        for block in rows.chunks(17) {
            a.update(block);
        }
        for block in rows.chunks(17) {
            b.update(block);
        }
        assert!(!a.is_exact());
        assert_eq!(a.cuts(256), b.cuts(256));
        assert!(a.cuts(256)[0].windows(2).all(|w| w[0] < w[1]));
    }
}
