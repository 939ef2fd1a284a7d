//! The one per-patient featurisation, written into caller-owned
//! buffers: QA interpolation of the weekly PRO series, monthly means of
//! PRO and activity, and the QA row filter. Every sample path funnels
//! through here — [`crate::PatientFeatures::build`],
//! [`crate::FeaturePanel::build`] with [`crate::build_samples`], and
//! the streamed [`crate::patient_samples`] / [`crate::range_samples`] —
//! so the materialised and streamed sample sets cannot diverge.

use crate::aggregate::block_mean;
use crate::interpolate::interpolate_in_place;
use crate::samples::{label_of, OutcomeKind, PipelineConfig, SampleMeta};
use crate::stream::SampleBlock;
use msaw_cohort::activity::ActivityTrace;
use msaw_cohort::missing::GAP;
use msaw_cohort::{
    Clinic, PatientId, PatientRecord, ProTable, N_PRO, N_WEEKS, STUDY_MONTHS, WEEKS_PER_MONTH,
};

/// Features per sample: the 56 PRO items in bank order, then the steps,
/// sleep and calories monthly means.
pub const N_FEATURES: usize = N_PRO + 3;

/// Values in one patient's month table: [`STUDY_MONTHS`] rows of
/// [`N_FEATURES`], row `m − 1` holding month `m`.
pub(crate) const MONTH_TABLE_LEN: usize = STUDY_MONTHS * N_FEATURES;

/// Interpolate and aggregate one patient's weekly PRO answer table and
/// daily activity trace into `table`, a month table
/// ([`MONTH_TABLE_LEN`] values, `NaN` = still missing after QA).
/// Allocation-free.
///
/// # Panics
/// When `table` is not a month table.
pub(crate) fn featurise_into(
    pro: &ProTable,
    trace: &ActivityTrace,
    cfg: &PipelineConfig,
    table: &mut [f64],
) {
    assert_eq!(table.len(), MONTH_TABLE_LEN, "a month table holds {MONTH_TABLE_LEN} values");
    let mut weekly = [0.0; N_WEEKS];
    for (q, series) in pro.chunks_exact(N_WEEKS).enumerate() {
        for (slot, &answer) in weekly.iter_mut().zip(series) {
            *slot = if answer == GAP { f64::NAN } else { f64::from(answer) };
        }
        interpolate_in_place(&mut weekly, cfg.max_interpolation_gap);
        let months = weekly.chunks_exact(WEEKS_PER_MONTH);
        for (row, weeks) in table.chunks_exact_mut(N_FEATURES).zip(months) {
            row[q] = block_mean(weeks);
        }
    }
    for (m, row) in table.chunks_exact_mut(N_FEATURES).enumerate() {
        let month = m + 1;
        row[N_PRO] = trace.monthly_mean(&trace.steps, month);
        row[N_PRO + 1] = trace.monthly_mean(&trace.sleep_hours, month);
        row[N_PRO + 2] = trace.monthly_mean(&trace.calories, month);
    }
}

/// Append every QA-passing sample of one patient — both windows, all
/// eight candidate months each — from its month `table` to `block`.
/// `label_for_visit(9·window)` supplies the window's label (or `None`
/// to skip that window); rows missing more than
/// `cfg.max_missing_features` features are dropped.
pub(crate) fn append_rows(
    table: &[f64],
    patient: PatientId,
    clinic: Clinic,
    label_for_visit: impl Fn(usize) -> Option<f64>,
    cfg: &PipelineConfig,
    block: &mut SampleBlock,
) {
    for window in 1u8..=2 {
        let Some(label) = label_for_visit(9 * window as usize) else {
            continue;
        };
        for i in 1usize..=8 {
            let month = i + (window as usize - 1) * 9;
            let row = &table[(month - 1) * N_FEATURES..month * N_FEATURES];
            let missing = row.iter().filter(|v| v.is_nan()).count();
            if missing > cfg.max_missing_features {
                continue;
            }
            block.rows.extend_from_slice(row);
            block.labels.push(label);
            block.meta.push(SampleMeta { patient, clinic, month, window });
        }
    }
}

/// Featurise one generated patient and append its QA-passing samples
/// to `block`, labelled from the record's own outcome visits.
pub(crate) fn append_patient_samples(
    record: &PatientRecord,
    outcome: OutcomeKind,
    cfg: &PipelineConfig,
    block: &mut SampleBlock,
) {
    let mut table = [0.0; MONTH_TABLE_LEN];
    featurise_into(&record.pro, &record.activity, cfg, &mut table);
    append_rows(
        &table,
        record.patient.id,
        record.patient.clinic,
        |visit_month| {
            record.outcomes.iter().find(|o| o.month == visit_month).map(|r| label_of(r, outcome))
        },
        cfg,
        block,
    );
}
