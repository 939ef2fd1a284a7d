//! The cohort generator: assembles patients, trajectories, PRO panels,
//! activity traces, clinical assessments and outcomes into one
//! deterministic [`CohortData`].

use crate::activity::ActivityTrace;
use crate::clinical::{ClinicalAssessment, ClinicalVariable};
use crate::config::CohortConfig;
use crate::domains::{Domain, DomainVector};
use crate::outcomes::OutcomeRecord;
use crate::patient::{Patient, PatientId};
use crate::rng::{normal, substream, Stream};
use crate::stream::CohortStream;
use crate::trajectory::{self, Trajectory};
use serde::{Deserialize, Serialize};

/// Weekly PRO observations: `series[patient][question][week]`,
/// `None` = the app prompt went unanswered (a gap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProPanel {
    /// Per-patient, per-question weekly answer series.
    pub series: Vec<Vec<Vec<Option<u8>>>>,
}

impl ProPanel {
    /// Weekly series of one `(patient, question)` pair.
    pub fn get(&self, patient: PatientId, question: usize) -> &[Option<u8>] {
        &self.series[patient.0 as usize][question]
    }
}

/// A fully generated synthetic cohort.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CohortData {
    /// The generating configuration (for provenance).
    pub config: CohortConfig,
    /// Enrolled patients, indexed by `PatientId`.
    pub patients: Vec<Patient>,
    /// Latent trajectories — **for tests/validation only**, never features.
    pub latent: Vec<Trajectory>,
    /// Weekly PRO observations with gaps.
    pub pro: ProPanel,
    /// Daily activity traces.
    pub activity: Vec<ActivityTrace>,
    /// Clinical assessments: one entry per patient per visit month.
    pub clinical: Vec<ClinicalAssessment>,
    /// Outcome measurements at months 9 and 18.
    pub outcomes: Vec<OutcomeRecord>,
    /// The clinical variable panel the assessments are scored against.
    pub clinical_panel: Vec<ClinicalVariable>,
}

impl CohortData {
    /// The patient's clinic.
    pub fn clinic_of(&self, patient: PatientId) -> crate::patient::Clinic {
        self.patients[patient.0 as usize].clinic
    }

    /// The clinical assessment of a patient at a visit month, if any.
    pub fn assessment(&self, patient: PatientId, month: usize) -> Option<&ClinicalAssessment> {
        self.clinical.iter().find(|a| a.patient == patient && a.month == month)
    }

    /// The outcome record of a patient at a visit month, if any.
    pub fn outcome(&self, patient: PatientId, month: usize) -> Option<&OutcomeRecord> {
        self.outcomes.iter().find(|o| o.patient == patient && o.month == month)
    }
}

/// Draw a patient's demographics and baseline latent state.
pub(crate) fn make_patient(
    id: u32,
    clinic_cfg: &crate::config::ClinicConfig,
    seed: u64,
) -> Patient {
    let mut rng = substream(seed, Stream::Baseline, id as u64, 0);
    // OPLWH: 50+, right-skewed age distribution.
    let age = 50.0 + 14.0 * (normal(&mut rng).abs() * 0.6 + 0.2).min(2.2);
    let years_with_hiv = (8.0 + 9.0 * (normal(&mut rng) * 0.5 + 1.0)).clamp(1.0, 40.0);

    // Common wellness factor, degraded by age and infection duration
    // (the paper's "accentuated ageing" in long-lived HIV patients).
    let g = 0.72 - 0.004 * (age - 60.0) - 0.003 * (years_with_hiv - 15.0)
        + clinic_cfg.baseline_spread * normal(&mut rng);
    let mut baseline = DomainVector::splat(0.0);
    for d in Domain::ALL {
        let v = g + 0.07 * normal(&mut rng);
        baseline.set(d, v.clamp(0.05, 0.98));
    }
    let baseline_frailty = trajectory::frailty_from_capacity(&baseline, 0.5);
    Patient {
        id: PatientId(id),
        clinic: clinic_cfg.clinic,
        age,
        years_with_hiv,
        baseline_capacity: baseline,
        baseline_frailty,
    }
}

/// Generate the full cohort for `config`.
///
/// A thin collect over [`CohortStream`]: each patient is produced by
/// the streaming generator (whose draws are keyed purely on the
/// patient id) and appended in id order, so this materialised form and
/// the streamed form are byte-identical by construction — pinned by
/// `tests/stream_equivalence.rs`.
pub fn generate(config: &CohortConfig) -> CohortData {
    let n = config.total_patients();
    let mut patients = Vec::with_capacity(n);
    let mut latent = Vec::with_capacity(n);
    let mut pro_series = Vec::with_capacity(n);
    let mut activity_traces = Vec::with_capacity(n);
    let mut clinical_records = Vec::with_capacity(n * crate::VISIT_MONTHS.len());
    let mut outcome_records = Vec::with_capacity(n * 2);

    let mut stream = CohortStream::new(config);
    let panel = stream.panel().to_vec();
    for record in &mut stream {
        patients.push(record.patient);
        latent.push(record.latent);
        pro_series.push(record.pro);
        activity_traces.push(record.activity);
        clinical_records.extend(record.clinical);
        outcome_records.extend(record.outcomes);
    }

    CohortData {
        config: config.clone(),
        patients,
        latent,
        pro: ProPanel { series: pro_series },
        activity: activity_traces,
        clinical: clinical_records,
        outcomes: outcome_records,
        clinical_panel: panel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::missing::gap_lengths;
    use crate::patient::Clinic;
    use crate::{STUDY_MONTHS, WEEKS_PER_MONTH};

    fn small() -> CohortData {
        generate(&CohortConfig::small(42))
    }

    #[test]
    fn cohort_has_configured_size_and_structure() {
        let data = small();
        let n = data.config.total_patients();
        assert_eq!(data.patients.len(), n);
        assert_eq!(data.latent.len(), n);
        assert_eq!(data.pro.series.len(), n);
        assert_eq!(data.activity.len(), n);
        assert_eq!(data.clinical.len(), n * 3);
        assert_eq!(data.outcomes.len(), n * 2);
        for series in data.pro.series.iter().flatten() {
            assert_eq!(series.len(), STUDY_MONTHS * WEEKS_PER_MONTH);
        }
    }

    #[test]
    fn patient_ids_are_dense_and_ordered() {
        let data = small();
        for (i, p) in data.patients.iter().enumerate() {
            assert_eq!(p.id.0 as usize, i);
        }
    }

    #[test]
    fn clinics_are_assigned_in_blocks() {
        let data = generate(&CohortConfig::paper(1));
        let modena = data.patients.iter().filter(|p| p.clinic == Clinic::Modena).count();
        let sydney = data.patients.iter().filter(|p| p.clinic == Clinic::Sydney).count();
        let hk = data.patients.iter().filter(|p| p.clinic == Clinic::HongKong).count();
        assert_eq!((modena, sydney, hk), (128, 100, 33));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.patients, b.patients);
        assert_eq!(a.pro.series, b.pro.series);
        assert_eq!(a.outcomes, b.outcomes);
        let c = generate(&CohortConfig::small(43));
        assert_ne!(a.outcomes, c.outcomes);
    }

    #[test]
    fn ages_are_fifty_plus() {
        let data = small();
        for p in &data.patients {
            assert!(p.age >= 50.0, "age {}", p.age);
            assert!(p.age < 95.0);
        }
    }

    #[test]
    fn gap_statistics_match_paper_scale() {
        let data = generate(&CohortConfig::paper(7));
        let mut total_gaps = 0usize;
        let mut total_len = 0usize;
        let mut max_len = 0usize;
        for patient in &data.pro.series {
            for series in patient {
                for len in gap_lengths(series) {
                    total_gaps += 1;
                    total_len += len;
                    max_len = max_len.max(len);
                }
            }
        }
        let per_patient = total_gaps as f64 / data.patients.len() as f64;
        let mean_len = total_len as f64 / total_gaps as f64;
        assert!((80.0..=140.0).contains(&per_patient), "gaps/patient {per_patient} (paper ≈108)");
        assert!((3.5..=6.0).contains(&mean_len), "mean gap {mean_len} (paper ≈5)");
        assert!(max_len <= 17, "max gap {max_len} (paper max 17)");
    }

    #[test]
    fn outcome_distributions_match_fig1_shape() {
        let data = generate(&CohortConfig::paper(11));
        let qols: Vec<f64> = data.outcomes.iter().map(|o| o.qol).collect();
        let high = qols.iter().filter(|&&q| q >= 0.6).count();
        assert!(high as f64 / qols.len() as f64 > 0.6, "QoL should skew high (Fig 1a)");
        let sppb_high = data.outcomes.iter().filter(|o| o.sppb >= 9).count();
        assert!(
            sppb_high as f64 / data.outcomes.len() as f64 > 0.5,
            "SPPB mass should sit at 9-12 (Fig 1b)"
        );
        let falls = data.outcomes.iter().filter(|o| o.falls).count();
        let rate = falls as f64 / data.outcomes.len() as f64;
        assert!(
            (0.05..=0.30).contains(&rate),
            "falls rate {rate} should be a small minority (Fig 1c)"
        );
    }

    #[test]
    fn lookup_helpers_work() {
        let data = small();
        let pid = data.patients[0].id;
        assert!(data.assessment(pid, 0).is_some());
        assert!(data.assessment(pid, 9).is_some());
        assert!(data.assessment(pid, 5).is_none());
        assert!(data.outcome(pid, 18).is_some());
        assert!(data.outcome(pid, 0).is_none());
        assert_eq!(data.clinic_of(pid), data.patients[0].clinic);
    }

    #[test]
    fn hong_kong_baselines_are_more_homogeneous() {
        let data = generate(&CohortConfig::paper(3));
        let spread = |clinic: Clinic| {
            let vals: Vec<f64> = data
                .patients
                .iter()
                .filter(|p| p.clinic == clinic)
                .map(|p| p.baseline_capacity.mean())
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        assert!(spread(Clinic::HongKong) < spread(Clinic::Modena));
    }
}
