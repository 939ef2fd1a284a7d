//! Quantile binning for the histogram split finder (XGBoost's
//! approximate/hist method).
//!
//! Per feature, `cuts_from_distinct` picks a set of *cut points* —
//! midpoints between adjacent distinct values at (approximately) equal
//! quantile ranks — and `encode_value` maps each value to its bin
//! once, so node histogram accumulation touches each row exactly once
//! per feature regardless of how many distinct values exist. The codes
//! live in a [`crate::ChunkedMatrix`] ([`crate::ChunkedMatrix::fit`]
//! quantises a whole in-memory matrix).
//!
//! ## Code layout
//!
//! Codes are stored row-major (`codes[row * ncols + feature]`) with an
//! **in-band** missing sentinel: a feature with `c` cuts uses codes
//! `0..=c` for present values and `c + 1` for missing. A node histogram
//! with `c + 2` slots can therefore be accumulated straight off a row's
//! code slice — `hist[code]` — with no per-cell `Option` branch; the
//! missing mass simply lands in the last slot.
//! [`crate::ChunkedMatrix::bin`] still presents the `Option<u16>` view
//! for callers that want it.

use std::cell::Cell;

thread_local! {
    /// Number of whole-matrix fits ([`crate::ChunkedMatrix::fit`]) on
    /// this thread. Tests use
    /// the delta across a grid run to prove each variant's matrix is
    /// quantised exactly once. Thread-local (not atomic) so a test's
    /// count cannot be polluted by other tests running in parallel;
    /// contexts are built on the calling thread, so the grid's fits all
    /// land on the counter of the thread that invoked it.
    static FIT_COUNT: Cell<usize> = const { Cell::new(0) };

    /// Number of per-*column* quantisations (cut fitting + encoding) on
    /// this thread. A whole-matrix fit bumps it once per column; the
    /// cross-variant `ContextCache` bumps it only on cache misses, so
    /// grid tests can pin the number of **distinct** columns quantised.
    static COLUMN_FIT_COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Total whole-matrix fits ([`crate::ChunkedMatrix::fit`]) made by the
/// current thread.
pub fn fit_count() -> usize {
    FIT_COUNT.with(|c| c.get())
}

pub(crate) fn bump_fit_count() {
    FIT_COUNT.with(|c| c.set(c.get() + 1));
}

/// Total per-column quantisations performed by the current thread
/// (cache hits in a `ContextCache` do not count).
pub fn column_fit_count() -> usize {
    COLUMN_FIT_COUNT.with(|c| c.get())
}

pub(crate) fn bump_column_fit_count(by: usize) {
    COLUMN_FIT_COUNT.with(|c| c.set(c.get() + by));
}

/// In-band code of one value against one feature's cuts.
#[inline]
pub(crate) fn encode_value(v: f64, cuts: &[f64]) -> u16 {
    if v.is_nan() {
        // In-band missing sentinel: one past the last present bin.
        cuts.len() as u16 + 1
    } else {
        // Count of cuts <= v = index of the bin containing v.
        cuts.partition_point(|&c| c <= v) as u16
    }
}

/// In-band codes for a whole column.
pub(crate) fn encode_column(col: &[f64], cuts: &[f64]) -> Vec<u16> {
    col.iter().map(|&v| encode_value(v, cuts)).collect()
}

/// Sorted distinct present values of a column — the shared first step of
/// both the exact rank index and cut fitting (and the unit the
/// cross-variant cache keys on).
pub(crate) fn distinct_values(col: &[f64]) -> Vec<f64> {
    let mut present: Vec<f64> = col.iter().copied().filter(|v| !v.is_nan()).collect();
    present.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    present.dedup();
    present
}

/// Cut points from a column's sorted distinct present values — the
/// shared cut rule of a whole-matrix fit, the `ContextCache` (which
/// already holds the distinct set for the exact index) and the
/// streaming `CutSketch`.
pub(crate) fn cuts_from_distinct(present: &[f64], max_bins: u16) -> Vec<f64> {
    if present.len() < 2 {
        return Vec::new();
    }
    let max_cuts = (max_bins - 1) as usize;
    if present.len() - 1 <= max_cuts {
        // Few distinct values: exact midpoints, identical to the exact finder.
        return present.windows(2).map(|w| w[0] + (w[1] - w[0]) * 0.5).collect();
    }
    // Evenly spaced ranks over the distinct values.
    let mut cuts = Vec::with_capacity(max_cuts);
    for k in 1..=max_cuts {
        let idx = k * (present.len() - 1) / (max_cuts + 1);
        let idx = idx.min(present.len() - 2);
        let cut = present[idx] + (present[idx + 1] - present[idx]) * 0.5;
        if cuts.last().is_none_or(|&last| cut > last) {
            cuts.push(cut);
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkedMatrix;
    use msaw_tabular::Matrix;

    #[test]
    fn few_distinct_values_get_exact_cuts() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![4.0], vec![2.0]]);
        let b = ChunkedMatrix::fit(&x, 256);
        assert_eq!(b.cuts(0), &[1.5, 3.0]);
        assert_eq!(b.bin(0, 0), Some(0));
        assert_eq!(b.bin(1, 0), Some(1));
        assert_eq!(b.bin(2, 0), Some(2));
        assert_eq!(b.bin(3, 0), Some(1));
    }

    #[test]
    fn missing_values_get_sentinel() {
        let x = Matrix::from_rows(&[vec![1.0], vec![f64::NAN]]);
        let b = ChunkedMatrix::fit(&x, 4);
        assert_eq!(b.bin(1, 0), None);
        // The in-band code is one past the last present bin.
        assert_eq!(encode_value(f64::NAN, b.cuts(0)), b.cuts(0).len() as u16 + 1);
    }

    #[test]
    fn constant_feature_has_no_cuts() {
        let x = Matrix::from_rows(&[vec![3.0], vec![3.0], vec![3.0]]);
        let b = ChunkedMatrix::fit(&x, 8);
        assert!(b.cuts(0).is_empty());
        // Constant features still get a present/missing code pair so the
        // branch-free accumulator can index them.
        assert_eq!(b.bin(0, 0), Some(0));
        assert_eq!(encode_value(f64::NAN, b.cuts(0)), 1);
    }

    #[test]
    fn bin_count_respects_max_bins() {
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let b = ChunkedMatrix::fit(&x, 16);
        assert!(b.cuts(0).len() <= 15);
        assert!(b.cuts(0).len() >= 8, "should use most of the budget");
    }

    #[test]
    fn cuts_are_strictly_ascending() {
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![(i % 37) as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let b = ChunkedMatrix::fit(&x, 8);
        let cuts = b.cuts(0);
        for w in cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn binning_is_order_consistent() {
        // If v1 < cut <= v2 then bin(v1) < bin(v2).
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i as f64).sqrt()]).collect();
        let x = Matrix::from_rows(&rows);
        let b = ChunkedMatrix::fit(&x, 10);
        for i in 1..100 {
            let b0 = b.bin(i - 1, 0).unwrap();
            let b1 = b.bin(i, 0).unwrap();
            assert!(b0 <= b1, "bins must be monotone in value");
        }
    }

    #[test]
    fn values_respect_their_bin_boundaries() {
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![((i * 7) % 101) as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let b = ChunkedMatrix::fit(&x, 8);
        let cuts = b.cuts(0);
        for i in 0..256 {
            let v = x.get(i, 0);
            let bin = b.bin(i, 0).unwrap() as usize;
            if bin > 0 {
                assert!(v >= cuts[bin - 1], "value below its bin's lower cut");
            }
            if bin < cuts.len() {
                assert!(v < cuts[bin], "value at/above its bin's upper cut");
            }
        }
    }

    #[test]
    fn column_assembly_matches_a_whole_matrix_fit() {
        let x = Matrix::from_rows(&[
            vec![1.0, f64::NAN],
            vec![2.0, 5.0],
            vec![4.0, 2.0],
            vec![2.0, 5.0],
        ]);
        let direct = ChunkedMatrix::fit(&x, 256);
        let cuts: Vec<Vec<f64>> = (0..2).map(|j| direct.cuts(j).to_vec()).collect();
        let mut codes = vec![0u16; x.nrows() * 2];
        for j in 0..2 {
            for (i, code) in encode_column(&x.column(j), &cuts[j]).into_iter().enumerate() {
                codes[i * 2 + j] = code;
            }
        }
        let assembled = ChunkedMatrix::from_codes(cuts, x.nrows(), codes);
        for i in 0..x.nrows() {
            for j in 0..2 {
                assert_eq!(direct.bin(i, j), assembled.bin(i, j));
            }
        }
    }

    #[test]
    fn fit_bumps_the_column_counter_per_column() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let before = column_fit_count();
        ChunkedMatrix::fit(&x, 8);
        assert_eq!(column_fit_count() - before, 3);
    }
}
