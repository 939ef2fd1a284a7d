//! Temporal aggregation: weekly/daily series into monthly values.

/// Average a regular series into blocks of `block_len` (e.g. 4 weeks →
/// 1 month), skipping `NaN`s. A block with no present values is `NaN`.
/// The series length must be a multiple of `block_len`.
pub fn monthly_means(series: &[f64], block_len: usize) -> Vec<f64> {
    assert!(block_len > 0, "block length must be positive");
    assert_eq!(
        series.len() % block_len,
        0,
        "series length {} not a multiple of block {}",
        series.len(),
        block_len
    );
    series.chunks_exact(block_len).map(block_mean).collect()
}

/// Mean of one block's present values, skipping `NaN`s; `NaN` when the
/// block has none.
pub(crate) fn block_mean(block: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &v in block {
        if !v.is_nan() {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_complete_blocks() {
        let out = monthly_means(&[1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0], 4);
        assert_eq!(out, vec![2.5, 10.0]);
    }

    #[test]
    fn skips_nans_within_block() {
        let out = monthly_means(&[2.0, f64::NAN, 4.0, f64::NAN], 4);
        assert_eq!(out, vec![3.0]);
    }

    #[test]
    fn all_missing_block_is_nan() {
        let out = monthly_means(&[f64::NAN, f64::NAN, 1.0, 1.0], 2);
        assert!(out[0].is_nan());
        assert_eq!(out[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_series_panics() {
        monthly_means(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn empty_series_gives_no_blocks() {
        assert!(monthly_means(&[], 4).is_empty());
    }
}
