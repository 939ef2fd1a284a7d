//! Bounded linear interpolation of observation series.

/// Fill gaps of up to `max_gap` consecutive missing values by linear
/// interpolation between the flanking observations. Longer gaps, and
/// gaps touching either end of the series (no flanking value), stay
/// missing. Returns an `f64` series with `NaN` for still-missing slots.
pub fn interpolate(series: &[Option<f64>], max_gap: usize) -> Vec<f64> {
    let mut out: Vec<f64> = series.iter().map(|v| v.unwrap_or(f64::NAN)).collect();
    interpolate_in_place(&mut out, max_gap);
    out
}

/// [`interpolate`] in place, on a series whose missing slots are `NaN`.
pub(crate) fn interpolate_in_place(out: &mut [f64], max_gap: usize) {
    let mut i = 0usize;
    while i < out.len() {
        if !out[i].is_nan() {
            i += 1;
            continue;
        }
        // Find the end of this missing run.
        let start = i;
        while i < out.len() && out[i].is_nan() {
            i += 1;
        }
        let len = i - start;
        // Interior gap with both endpoints present, short enough?
        if start > 0 && i < out.len() && len <= max_gap {
            let left = out[start - 1];
            let right = out[i];
            for (k, slot) in out[start..i].iter_mut().enumerate() {
                let t = (k + 1) as f64 / (len + 1) as f64;
                *slot = left + (right - left) * t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Vec<Option<f64>> {
        values.iter().map(|&v| if v.is_nan() { None } else { Some(v) }).collect()
    }

    #[test]
    fn short_gap_is_linearly_filled() {
        let input = s(&[1.0, f64::NAN, f64::NAN, 4.0]);
        let out = interpolate(&input, 5);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn gap_longer_than_max_stays_missing() {
        let input = s(&[1.0, f64::NAN, f64::NAN, f64::NAN, 5.0]);
        let out = interpolate(&input, 2);
        assert_eq!(out[0], 1.0);
        assert!(out[1].is_nan() && out[2].is_nan() && out[3].is_nan());
        assert_eq!(out[4], 5.0);
    }

    #[test]
    fn gap_exactly_max_is_filled() {
        let input = s(&[0.0, f64::NAN, f64::NAN, f64::NAN, 4.0]);
        let out = interpolate(&input, 3);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn leading_and_trailing_gaps_stay_missing() {
        let input = s(&[f64::NAN, 2.0, 3.0, f64::NAN]);
        let out = interpolate(&input, 5);
        assert!(out[0].is_nan());
        assert_eq!(out[1], 2.0);
        assert_eq!(out[2], 3.0);
        assert!(out[3].is_nan());
    }

    #[test]
    fn zero_max_gap_disables_interpolation() {
        let input = s(&[1.0, f64::NAN, 3.0]);
        let out = interpolate(&input, 0);
        assert!(out[1].is_nan());
    }

    #[test]
    fn all_missing_stays_all_missing() {
        let input = s(&[f64::NAN, f64::NAN]);
        let out = interpolate(&input, 10);
        assert!(out.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn complete_series_is_untouched() {
        let input = s(&[1.0, 2.0, 3.0]);
        assert_eq!(interpolate(&input, 5), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn multiple_gaps_handled_independently() {
        let input = s(&[1.0, f64::NAN, 3.0, f64::NAN, f64::NAN, f64::NAN, 7.0]);
        let out = interpolate(&input, 2);
        assert_eq!(out[1], 2.0);
        // Second gap has length 3 > 2 → untouched.
        assert!(out[3].is_nan() && out[4].is_nan() && out[5].is_nan());
    }

    #[test]
    fn empty_series_is_fine() {
        assert!(interpolate(&[], 5).is_empty());
    }

    #[test]
    fn interpolation_is_monotone_within_gap() {
        let input = s(&[0.0, f64::NAN, f64::NAN, f64::NAN, f64::NAN, 10.0]);
        let out = interpolate(&input, 5);
        for w in out.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
