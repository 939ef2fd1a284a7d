//! Streaming per-patient cohort generation.
//!
//! Every random draw in the simulator is made on a keyed substream —
//! `substream(seed, stream, patient_id, item)` — so one patient's data
//! depends only on `(config, patient_id)`, never on how many other
//! patients were generated before it or in what order. That property is
//! what this module exposes: a [`CohortStream`] yields fully generated
//! [`PatientRecord`]s one at a time (over the whole cohort or any id
//! range of it, via [`CohortStream::range`]) with **O(1)** cohort
//! state, and the full-cohort [`crate::generate`] is nothing but
//! `collect` over it.
//!
//! Determinism contract (pinned by `tests/stream_equivalence.rs`):
//! for any chunk size, concatenating consecutive range streams
//! reproduces the materialised [`crate::CohortData`] bit for bit.

use crate::activity::{self, ActivityTrace};
use crate::clinical::{self, clinical_panel, ClinicalAssessment, ClinicalVariable};
use crate::config::{ClinicConfig, CohortConfig};
use crate::generator::make_patient;
use crate::missing::inject_gaps;
use crate::outcomes::{self, OutcomeRecord};
use crate::patient::Patient;
use crate::pro::{N_PRO, QUESTION_BANK};
use crate::rng::{substream, Stream};
use crate::trajectory::{self, Trajectory};
use crate::{STUDY_MONTHS, VISIT_MONTHS, WEEKS_PER_MONTH};
use serde::{Deserialize, Serialize};

/// Everything the simulator produces for one patient: the same fields
/// the cohort-wide [`crate::CohortData`] holds, cut along the patient
/// axis. `clinical` has one entry per [`VISIT_MONTHS`] visit and
/// `outcomes` one per outcome month (9, then 18), in the same order the
/// full-cohort generator appends them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatientRecord {
    /// Demographics and baseline latent state.
    pub patient: Patient,
    /// Latent trajectory — tests/validation only, never features.
    pub latent: Trajectory,
    /// Weekly PRO answers with gaps: `pro[question][week]`.
    pub pro: Vec<Vec<Option<u8>>>,
    /// Daily activity trace.
    pub activity: ActivityTrace,
    /// Clinical assessments at months 0, 9, 18 (in that order).
    pub clinical: Vec<ClinicalAssessment>,
    /// Outcome measurements at months 9 and 18 (in that order).
    pub outcomes: Vec<OutcomeRecord>,
}

impl PatientRecord {
    /// Field-by-field equality with NaN-tolerant (bitwise) float
    /// comparison on the activity trace, whose not-worn days are `NaN`
    /// and make derived `PartialEq` irreflexive. This is the relation
    /// the streaming determinism contract is stated in.
    pub fn bits_eq(&self, other: &PatientRecord) -> bool {
        self.patient == other.patient
            && self.latent == other.latent
            && self.pro == other.pro
            && self.activity.bits_eq(&other.activity)
            && self.clinical == other.clinical
            && self.outcomes == other.outcomes
    }
}

/// The clinic block a patient id falls in. Ids are assigned densely in
/// `config.clinics` order (the same block layout [`crate::generate`]
/// has always used), so the lookup is a prefix-sum walk.
pub fn clinic_config_of(config: &CohortConfig, id: u32) -> Option<&ClinicConfig> {
    let mut first = 0usize;
    for clinic_cfg in &config.clinics {
        let next = first + clinic_cfg.n_patients;
        if (id as usize) < next {
            return Some(clinic_cfg);
        }
        first = next;
    }
    None
}

/// Generate one patient's full record. Pure in `(config, panel, id)`:
/// every draw comes off a substream keyed on the patient id, so calls
/// can be made in any order, any number of times, from any thread, and
/// always reproduce the same bytes. `panel` must be the shared
/// [`clinical_panel`] (passed in so per-patient calls don't rebuild it).
///
/// Returns `None` when `id` is outside the configured cohort.
pub fn generate_patient(
    config: &CohortConfig,
    panel: &[ClinicalVariable],
    id: u32,
) -> Option<PatientRecord> {
    let clinic_cfg = clinic_config_of(config, id)?;
    let seed = config.seed;
    const N_WEEKS: usize = STUDY_MONTHS * WEEKS_PER_MONTH;

    let patient = make_patient(id, clinic_cfg, seed);
    let traj = trajectory::simulate(&patient, clinic_cfg, seed);
    let balance = trajectory::balance_trait(&patient, seed);

    // Weekly PRO answers for all 56 questions, then gaps.
    let mut per_question: Vec<Vec<Option<u8>>> = Vec::with_capacity(N_PRO);
    let mut thetas = [0.0; N_WEEKS];
    let mut answers = [0u8; N_WEEKS];
    for (q_idx, question) in QUESTION_BANK.iter().enumerate() {
        let mut rng_answers = substream(seed, Stream::Pro, patient.id.0 as u64, q_idx as u64);
        for (week, theta) in thetas.iter_mut().enumerate() {
            let month = week / WEEKS_PER_MONTH + 1;
            let domain_theta = traj.capacity[month].get(question.domain);
            let bl = question.balance_loading;
            *theta = (1.0 - bl) * domain_theta + bl * balance;
        }
        question.answer_series(
            &thetas,
            clinic_cfg.observation_noise,
            &mut rng_answers,
            &mut answers,
        );
        let mut series: Vec<Option<u8>> = answers.iter().map(|&a| Some(a)).collect();
        let mut rng_gaps = substream(seed, Stream::Gaps, patient.id.0 as u64, q_idx as u64);
        inject_gaps(&mut series, &config.missingness, &mut rng_gaps);
        per_question.push(series);
    }

    let activity = activity::simulate(&patient, &traj, clinic_cfg, seed);

    let clinical_records: Vec<ClinicalAssessment> = VISIT_MONTHS
        .into_iter()
        .map(|month| clinical::assess(&patient, &traj, month, panel, seed))
        .collect();
    let outcome_records: Vec<OutcomeRecord> = [9, 18]
        .into_iter()
        .map(|month| outcomes::measure(&patient, &traj, month, clinic_cfg.observation_noise, seed))
        .collect();

    Some(PatientRecord {
        patient,
        latent: traj,
        pro: per_question,
        activity,
        clinical: clinical_records,
        outcomes: outcome_records,
    })
}

/// An iterator of [`PatientRecord`]s over a cohort configuration, in
/// patient-id order, holding one shared clinical panel and otherwise
/// O(1) state — the streaming front end of the simulator.
pub struct CohortStream<'a> {
    config: &'a CohortConfig,
    panel: Vec<ClinicalVariable>,
    next: u32,
    total: u32,
}

impl<'a> CohortStream<'a> {
    /// Stream every patient of `config`, ids `0..total_patients()`.
    pub fn new(config: &'a CohortConfig) -> CohortStream<'a> {
        CohortStream {
            config,
            panel: clinical_panel(),
            next: 0,
            total: config.total_patients() as u32,
        }
    }

    /// Stream the patients with ids `start..end` (clamped to the
    /// cohort), sharing one clinical panel. Generation is pure in
    /// `(config, id)`, so a range stream yields bit-identical records
    /// to the same ids of a full stream — the primitive parallel
    /// pipelines fan chunks of the cohort across workers with.
    pub fn range(config: &'a CohortConfig, start: u32, end: u32) -> CohortStream<'a> {
        let total = config.total_patients() as u32;
        let end = end.min(total);
        CohortStream { config, panel: clinical_panel(), next: start.min(end), total: end }
    }

    /// The clinical variable panel records are scored against.
    pub fn panel(&self) -> &[ClinicalVariable] {
        &self.panel
    }

    /// Remaining patients.
    pub fn remaining(&self) -> usize {
        (self.total - self.next) as usize
    }
}

impl Iterator for CohortStream<'_> {
    type Item = PatientRecord;

    fn next(&mut self) -> Option<PatientRecord> {
        if self.next >= self.total {
            return None;
        }
        let record = generate_patient(self.config, &self.panel, self.next)
            .expect("ids below total_patients() always fall in a clinic block");
        self.next += 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.remaining();
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CohortStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_length_matches_config() {
        let cfg = CohortConfig::small(42);
        let stream = CohortStream::new(&cfg);
        assert_eq!(stream.len(), cfg.total_patients());
        assert_eq!(stream.count(), cfg.total_patients());
    }

    #[test]
    fn records_are_id_ordered_and_block_assigned() {
        let cfg = CohortConfig::small(42);
        for (i, record) in CohortStream::new(&cfg).enumerate() {
            assert_eq!(record.patient.id.0 as usize, i);
            let expected = clinic_config_of(&cfg, i as u32).unwrap().clinic;
            assert_eq!(record.patient.clinic, expected);
        }
    }

    #[test]
    fn generate_patient_is_order_independent() {
        let cfg = CohortConfig::small(7);
        let panel = clinical_panel();
        // Generating id 5 cold equals generating it after 0..5.
        let cold = generate_patient(&cfg, &panel, 5).unwrap();
        let warm = CohortStream::new(&cfg).nth(5).unwrap();
        assert!(cold.bits_eq(&warm));
    }

    #[test]
    fn out_of_range_id_is_none() {
        let cfg = CohortConfig::small(42);
        let panel = clinical_panel();
        assert!(generate_patient(&cfg, &panel, cfg.total_patients() as u32).is_none());
        assert!(clinic_config_of(&cfg, u32::MAX).is_none());
    }

    #[test]
    fn chunk_sizes_partition_without_loss() {
        let cfg = CohortConfig::small(42);
        let n = cfg.total_patients();
        for chunk in [1usize, 7, n, n + 10] {
            let total: usize = (0..n)
                .step_by(chunk)
                .map(|start| CohortStream::range(&cfg, start as u32, (start + chunk) as u32).len())
                .sum();
            assert_eq!(total, n, "chunk size {chunk}");
        }
    }
}
