//! Histogram binning for outcome-distribution reports (Fig. 1).

use serde::{Deserialize, Serialize};

/// One histogram bin: `[lo, hi)` except the last bin, which is `[lo, hi]`
/// so the maximum observation is not dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bin {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Upper edge (inclusive only for the final bin).
    pub hi: f64,
    /// Number of observations in the bin.
    pub count: usize,
}

impl Bin {
    /// Render the bin range the way the paper labels its axes, e.g. `0,7-0,8`
    /// → here rendered with dots: `0.7-0.8`.
    pub fn label(&self) -> String {
        format!("{}-{}", trim(self.lo), trim(self.hi))
    }
}

fn trim(x: f64) -> String {
    let s = format!("{x:.2}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// A histogram was requested over a degenerate binning.
#[derive(Debug, Clone, PartialEq)]
pub enum HistogramError {
    /// `nbins == 0`: no bins to count into.
    ZeroBins,
    /// `hi <= lo`: the range has no width to divide.
    EmptyRange {
        /// Requested lower edge.
        lo: f64,
        /// Requested upper edge.
        hi: f64,
    },
}

impl std::fmt::Display for HistogramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistogramError::ZeroBins => write!(f, "nbins must be positive"),
            HistogramError::EmptyRange { lo, hi } => {
                write!(f, "empty histogram range [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for HistogramError {}

/// Bin `values` into `nbins` equal-width bins over `[lo, hi]`. `NaN`s and
/// values outside the range are ignored. Degenerate binning requests —
/// `nbins == 0` or an empty range — come back as a [`HistogramError`]
/// (an *empty value slice* is fine: it yields all-zero counts).
pub fn try_histogram(
    values: &[f64],
    lo: f64,
    hi: f64,
    nbins: usize,
) -> Result<Vec<Bin>, HistogramError> {
    if nbins == 0 {
        return Err(HistogramError::ZeroBins);
    }
    if hi <= lo {
        return Err(HistogramError::EmptyRange { lo, hi });
    }
    let width = (hi - lo) / nbins as f64;
    let mut bins: Vec<Bin> = (0..nbins)
        .map(|i| Bin { lo: lo + i as f64 * width, hi: lo + (i + 1) as f64 * width, count: 0 })
        .collect();
    for &v in values {
        if v.is_nan() || v < lo || v > hi {
            continue;
        }
        let mut idx = ((v - lo) / width) as usize;
        if idx >= nbins {
            idx = nbins - 1; // v == hi lands in the final, closed bin
        }
        bins[idx].count += 1;
    }
    Ok(bins)
}

/// Count occurrences of each distinct integer value, ascending; used for
/// the SPPB (0–12) and Falls (false/true) panels of Fig. 1.
pub fn value_counts_i64(values: &[i64]) -> Vec<(i64, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for &v in values {
        *counts.entry(v).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

/// Count `false` and `true` occurrences.
pub fn value_counts_bool(values: &[bool]) -> (usize, usize) {
    let trues = values.iter().filter(|&&v| v).count();
    (values.len() - trues, trues)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_width_bins_cover_range() {
        let bins = try_histogram(&[0.05, 0.15, 0.15, 0.95], 0.0, 1.0, 10).unwrap();
        assert_eq!(bins.len(), 10);
        assert_eq!(bins[0].count, 1);
        assert_eq!(bins[1].count, 2);
        assert_eq!(bins[9].count, 1);
        assert_eq!(bins.iter().map(|b| b.count).sum::<usize>(), 4);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let bins = try_histogram(&[1.0], 0.0, 1.0, 4).unwrap();
        assert_eq!(bins[3].count, 1);
    }

    #[test]
    fn out_of_range_and_nan_are_ignored() {
        let bins = try_histogram(&[-0.1, 1.1, f64::NAN, 0.5], 0.0, 1.0, 2).unwrap();
        assert_eq!(bins.iter().map(|b| b.count).sum::<usize>(), 1);
    }

    #[test]
    fn labels_trim_trailing_zeros() {
        let bins = try_histogram(&[], 0.0, 1.0, 10).unwrap();
        assert_eq!(bins[7].label(), "0.7-0.8");
        assert_eq!(bins[0].label(), "0-0.1");
    }

    #[test]
    fn value_counts_sorted_ascending() {
        let counts = value_counts_i64(&[12, 9, 12, 10, 9, 9]);
        assert_eq!(counts, vec![(9, 3), (10, 1), (12, 2)]);
    }

    #[test]
    fn bool_counts() {
        assert_eq!(value_counts_bool(&[true, false, false, true, false]), (3, 2));
    }

    #[test]
    fn degenerate_requests_are_typed_errors() {
        assert_eq!(try_histogram(&[1.0], 0.0, 1.0, 0), Err(HistogramError::ZeroBins));
        assert_eq!(
            try_histogram(&[1.0], 1.0, 1.0, 4),
            Err(HistogramError::EmptyRange { lo: 1.0, hi: 1.0 })
        );
    }

    #[test]
    fn empty_and_single_value_inputs_are_fine() {
        let empty = try_histogram(&[], 0.0, 1.0, 4).unwrap();
        assert!(empty.iter().all(|b| b.count == 0));
        let single = try_histogram(&[0.5], 0.0, 1.0, 4).unwrap();
        assert_eq!(single.iter().map(|b| b.count).sum::<usize>(), 1);
    }
}
