//! Regression metrics. The paper reports regression quality as
//! `1 - MAPE` (Mean Absolute Percentage Error), so [`one_minus_mape`]
//! is the headline score for QoL and SPPB.

/// Mean absolute error. Panics on length mismatch (programmer error).
pub fn mae(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    assert!(!y_true.is_empty(), "empty input");
    let sum: f64 = y_true.iter().zip(y_pred).map(|(t, p)| (t - p).abs()).sum();
    sum / y_true.len() as f64
}

/// Mean absolute percentage error, as a fraction (0.07 = 7%).
///
/// Targets with magnitude below `eps = 1e-9` are skipped, mirroring the
/// common sklearn-era practice of guarding the division; the paper's
/// targets (QoL in (0,1], SPPB mostly 4–12) make this a rare event.
pub fn mape(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    const EPS: f64 = 1e-9;
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&t, &p) in y_true.iter().zip(y_pred) {
        if t.abs() > EPS {
            sum += ((t - p) / t).abs();
            n += 1;
        }
    }
    assert!(n > 0, "no non-zero targets for MAPE");
    sum / n as f64
}

/// The paper's regression score: `1 - MAPE`, clamped at 0 so a
/// catastrophic model reads as 0% rather than a negative percentage.
pub fn one_minus_mape(y_true: &[f64], y_pred: &[f64]) -> f64 {
    (1.0 - mape(y_true, y_pred)).max(0.0)
}

/// Root mean squared error.
pub fn rmse(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    assert!(!y_true.is_empty(), "empty input");
    let ss: f64 = y_true.iter().zip(y_pred).map(|(t, p)| (t - p) * (t - p)).sum();
    (ss / y_true.len() as f64).sqrt()
}

/// Coefficient of determination R². Returns 0 when the targets are
/// constant (undefined variance) and the predictions are not exact.
pub fn r2(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    assert!(!y_true.is_empty(), "empty input");
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let ss_tot: f64 = y_true.iter().map(|&t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = y_true.iter().zip(y_pred).map(|(t, p)| (t - p) * (t - p)).sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_basic() {
        assert_eq!(mae(&[1.0, 2.0, 3.0], &[1.0, 3.0, 1.0]), 1.0);
    }

    #[test]
    fn mae_perfect_is_zero() {
        assert_eq!(mae(&[5.0, 6.0], &[5.0, 6.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mae_length_mismatch_panics() {
        mae(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn mape_basic() {
        // |(10-9)/10| = 0.1, |(20-22)/20| = 0.1 → MAPE = 0.1
        assert!((mape(&[10.0, 20.0], &[9.0, 22.0]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_targets() {
        let m = mape(&[0.0, 10.0], &[5.0, 11.0]);
        assert!((m - 0.1).abs() < 1e-12);
    }

    #[test]
    fn one_minus_mape_clamps_at_zero() {
        // A terrible model: MAPE >> 1.
        assert_eq!(one_minus_mape(&[1.0], &[100.0]), 0.0);
    }

    #[test]
    fn one_minus_mape_perfect_is_one() {
        assert_eq!(one_minus_mape(&[0.8, 0.9], &[0.8, 0.9]), 1.0);
    }

    #[test]
    fn rmse_penalises_large_errors_more_than_mae() {
        let t = [0.0, 0.0];
        let p = [0.0, 2.0];
        assert!(rmse(&t, &p) > mae(&t, &p));
    }

    #[test]
    fn r2_perfect_is_one() {
        assert_eq!(r2(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn r2_mean_model_is_zero() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r2(&t, &p).abs() < 1e-12);
    }

    #[test]
    fn r2_constant_targets() {
        assert_eq!(r2(&[2.0, 2.0], &[2.0, 2.0]), 1.0);
        assert_eq!(r2(&[2.0, 2.0], &[1.0, 3.0]), 0.0);
    }
}
