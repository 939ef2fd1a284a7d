//! Frailty Index by deficit accumulation (Searle et al. 2008, as cited
//! by the paper): the ratio of deficits present to deficits assessed.

use msaw_cohort::{CohortData, PatientId};
use msaw_preprocess::SampleSet;

/// FI of one assessment: mean deficit score. Scores are graded
/// (0 / 0.5 / 1), so the index lies in `[0, 1]`; values ≳ 0.25 are
/// conventionally read as frail.
pub fn frailty_index(deficits: &[f64]) -> f64 {
    assert!(!deficits.is_empty(), "an FI needs at least one deficit variable");
    deficits.iter().sum::<f64>() / deficits.len() as f64
}

/// The FI measured at the clinical visit that *opens* a window:
/// month 0 for window 1, month 9 for window 2 — the paper's "baseline"
/// physician assessment added to the patient-centric data points.
pub fn fi_at_window_start(data: &CohortData, patient: PatientId, window: u8) -> f64 {
    let month = match window {
        1 => 0,
        2 => 9,
        w => panic!("window must be 1 or 2, got {w}"),
    };
    let assessment = data
        .assessment(patient, month)
        .unwrap_or_else(|| panic!("patient {patient:?} has no visit at month {month}"));
    frailty_index(&assessment.deficits)
}

/// Append the window-baseline FI to every sample of a set, producing
/// the paper's `Sample^FI_o` variant.
pub fn attach_fi(set: &SampleSet, data: &CohortData) -> SampleSet {
    let fi: Vec<f64> =
        set.meta.iter().map(|m| fi_at_window_start(data, m.patient, m.window)).collect();
    set.try_with_extra_feature("fi_baseline", &fi).expect("one value per sample required")
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaw_cohort::{generate, CohortConfig};
    use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind, PipelineConfig};

    #[test]
    fn fi_is_the_mean_deficit() {
        assert_eq!(frailty_index(&[1.0, 0.0, 0.5, 0.5]), 0.5);
        assert_eq!(frailty_index(&[0.0; 37]), 0.0);
        assert_eq!(frailty_index(&[1.0; 37]), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one deficit")]
    fn empty_deficits_panic() {
        frailty_index(&[]);
    }

    #[test]
    fn window_start_uses_the_right_visit() {
        let data = generate(&CohortConfig::small(42));
        let pid = data.patients[0].id;
        let fi1 = fi_at_window_start(&data, pid, 1);
        let a0 = data.assessment(pid, 0).unwrap();
        assert_eq!(fi1, frailty_index(&a0.deficits));
        let fi2 = fi_at_window_start(&data, pid, 2);
        let a9 = data.assessment(pid, 9).unwrap();
        assert_eq!(fi2, frailty_index(&a9.deficits));
    }

    #[test]
    fn attach_fi_adds_one_column_per_sample() {
        let data = generate(&CohortConfig::small(42));
        let cfg = PipelineConfig::default();
        let panel = FeaturePanel::build(&data, &cfg);
        let set = build_samples(&data, &panel, OutcomeKind::Qol, &cfg);
        let augmented = attach_fi(&set, &data);
        assert_eq!(augmented.features.ncols(), set.features.ncols() + 1);
        let fi_col = augmented.features.column(augmented.features.ncols() - 1);
        assert!(fi_col.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Samples of the same patient and window share their FI.
        for (i, a) in augmented.meta.iter().enumerate() {
            for (j, b) in augmented.meta.iter().enumerate().skip(i + 1) {
                if a.patient == b.patient && a.window == b.window {
                    assert_eq!(fi_col[i], fi_col[j]);
                }
            }
        }
    }

    #[test]
    fn fi_tracks_latent_frailty_across_patients() {
        // FI is a noisy readout of latent frailty; over the cohort the
        // correlation must be clearly positive.
        let data = generate(&CohortConfig::paper(42));
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for p in &data.patients {
            let fi = fi_at_window_start(&data, p.id, 1);
            let latent = data.latent[p.id.0 as usize].frailty[0];
            pairs.push((fi, latent));
        }
        let n = pairs.len() as f64;
        let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
        let cov: f64 = pairs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / n;
        let sx = (pairs.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>() / n).sqrt();
        let sy = (pairs.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>() / n).sqrt();
        let corr = cov / (sx * sy);
        assert!(corr > 0.55, "FI–frailty correlation too weak: {corr}");
    }
}
