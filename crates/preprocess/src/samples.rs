//! Sample-set construction (the paper's §3 "Observational data and
//! feature space").

use crate::featurise::{append_rows, featurise_into, MONTH_TABLE_LEN, N_FEATURES};
use crate::stream::SampleBlock;
use msaw_cohort::activity::ActivityTrace;
use msaw_cohort::{Clinic, CohortData, OutcomeRecord, PatientId, ProTable, QUESTION_BANK};
use msaw_tabular::Matrix;
use serde::{Deserialize, Serialize};

/// Which outcome a sample set targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OutcomeKind {
    /// Quality of Life — regression on `[0,1]`.
    Qol,
    /// Short Physical Performance Battery — regression on 0–12.
    Sppb,
    /// Falls — binary classification.
    Falls,
}

impl OutcomeKind {
    /// All outcomes in the paper's order.
    pub const ALL: [OutcomeKind; 3] = [OutcomeKind::Qol, OutcomeKind::Sppb, OutcomeKind::Falls];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OutcomeKind::Qol => "QoL",
            OutcomeKind::Sppb => "SPPB",
            OutcomeKind::Falls => "Falls",
        }
    }

    /// Whether this outcome is a classification task.
    pub fn is_classification(self) -> bool {
        matches!(self, OutcomeKind::Falls)
    }
}

/// Pipeline knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Longest gap (consecutive missing weekly observations) filled by
    /// interpolation. The paper's experimentally determined value is 5.
    pub max_interpolation_gap: usize,
    /// A sample is dropped when more than this many of its 59 features
    /// are still missing after interpolation and aggregation.
    pub max_missing_features: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { max_interpolation_gap: 5, max_missing_features: 3 }
    }
}

/// Provenance of one sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleMeta {
    /// The patient the sample describes.
    pub patient: PatientId,
    /// The patient's clinic (for stratified experiments).
    pub clinic: Clinic,
    /// Observation month `m = i + (j-1)*9`.
    pub month: usize,
    /// Window `j ∈ {1, 2}`; the label is the visit at month `9·j`.
    pub window: u8,
}

/// A ready-to-train sample set.
#[derive(Debug, Clone)]
pub struct SampleSet {
    /// Dense feature matrix (`NaN` = missing).
    pub features: Matrix,
    /// Column names, aligned with `features`.
    pub feature_names: Vec<String>,
    /// One label per row (Falls encoded as 0.0/1.0).
    pub labels: Vec<f64>,
    /// Per-row provenance.
    pub meta: Vec<SampleMeta>,
    /// The outcome the labels measure.
    pub outcome: OutcomeKind,
}

impl SampleSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Append one extra feature column (e.g. the baseline FI), returning
    /// a new set. `values` must have one entry per sample; a length
    /// mismatch is a typed [`crate::SampleError`].
    pub fn try_with_extra_feature(
        &self,
        name: &str,
        values: &[f64],
    ) -> Result<SampleSet, crate::SampleError> {
        if values.len() != self.len() {
            return Err(crate::SampleError::FeatureLength {
                name: name.to_string(),
                expected: self.len(),
                actual: values.len(),
            });
        }
        let mut names = self.feature_names.clone();
        names.push(name.to_string());
        Ok(SampleSet {
            features: self.features.hstack_column(values),
            feature_names: names,
            labels: self.labels.clone(),
            meta: self.meta.clone(),
            outcome: self.outcome,
        })
    }

    /// Restrict to the samples of one clinic.
    pub fn filter_clinic(&self, clinic: Clinic) -> SampleSet {
        let keep: Vec<usize> = self
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.clinic == clinic)
            .map(|(i, _)| i)
            .collect();
        self.take(&keep)
    }

    /// Restrict to a subset of rows.
    pub fn take(&self, indices: &[usize]) -> SampleSet {
        SampleSet {
            features: self.features.take_rows(indices),
            feature_names: self.feature_names.clone(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            meta: indices.iter().map(|&i| self.meta[i]).collect(),
            outcome: self.outcome,
        }
    }

    /// Per-row group keys (patient ids) for leakage-free splitting.
    pub fn patient_groups(&self) -> Vec<u64> {
        self.meta.iter().map(|m| m.patient.0 as u64).collect()
    }

    /// Build a shared training context over the full feature matrix:
    /// the matrix is indexed and quantised exactly once, after which any
    /// number of row views (CV folds, the final 80% fit, OOF rotations)
    /// can be trained via [`msaw_gbdt::Booster::train_on_rows`] without
    /// re-binning or copying rows.
    pub fn training_context(&self) -> msaw_gbdt::TrainingContext<'_> {
        msaw_gbdt::TrainingContext::new(&self.features)
    }

    /// Export as a [`msaw_tabular::Frame`] — provenance columns
    /// (patient, clinic, month, window), every feature, and the label —
    /// so a sample set can be inspected or dumped to CSV with
    /// `msaw_tabular::csv::write_csv`.
    pub fn to_frame(&self) -> msaw_tabular::Frame {
        use msaw_tabular::Column;
        let mut frame = msaw_tabular::Frame::new();
        frame
            .push_column(
                "patient",
                Column::from_i64(self.meta.iter().map(|m| Some(m.patient.0 as i64)).collect()),
            )
            .expect("fresh frame");
        let clinics: Vec<Option<&str>> = self.meta.iter().map(|m| Some(m.clinic.name())).collect();
        frame.push_column("clinic", Column::from_labels(&clinics)).expect("row counts match");
        frame
            .push_column(
                "month",
                Column::from_i64(self.meta.iter().map(|m| Some(m.month as i64)).collect()),
            )
            .expect("row counts match");
        frame
            .push_column(
                "window",
                Column::from_i64(self.meta.iter().map(|m| Some(m.window as i64)).collect()),
            )
            .expect("row counts match");
        for (j, name) in self.feature_names.iter().enumerate() {
            frame
                .push_column(name.clone(), Column::from_f64(self.features.column(j)))
                .expect("feature names are unique");
        }
        frame
            .push_column(
                format!("label_{}", self.outcome.name()),
                Column::from_f64(self.labels.clone()),
            )
            .expect("label name cannot collide with features");
        frame
    }
}

/// Monthly feature values for the whole cohort: the shared stage the
/// three per-outcome sample sets are cut from.
#[derive(Debug, Clone)]
pub struct FeaturePanel {
    /// One [`PatientFeatures`] per patient, in patient-id order. Not one
    /// flat array: freeing a multi-MB allocation raises glibc's dynamic
    /// mmap threshold, which grew a serving process's later peak RSS by
    /// ~60%.
    patients: Vec<PatientFeatures>,
}

/// Monthly feature values for one patient: the per-patient slice of
/// [`FeaturePanel`], computable from that patient's raw series alone.
#[derive(Debug, Clone)]
pub struct PatientFeatures {
    /// Month-major: entry `(m − 1)·N_FEATURES + j` is feature `j` of
    /// month `m`, in [`FeaturePanel::feature_names`] order; `NaN` =
    /// missing after QA.
    pub table: Vec<f64>,
}

impl PatientFeatures {
    /// Interpolate + aggregate one patient's weekly PRO answer table
    /// and daily activity trace into monthly features, through the same
    /// featuriser every sample path uses.
    pub fn build(pro: &ProTable, trace: &ActivityTrace, cfg: &PipelineConfig) -> PatientFeatures {
        let mut table = vec![0.0; MONTH_TABLE_LEN];
        featurise_into(pro, trace, cfg, &mut table);
        PatientFeatures { table }
    }
}

impl FeaturePanel {
    /// Run interpolation + aggregation over the cohort.
    pub fn build(data: &CohortData, cfg: &PipelineConfig) -> FeaturePanel {
        let patients = (0..data.patients.len())
            .map(|p| PatientFeatures::build(&data.pro.series[p], &data.activity[p], cfg))
            .collect();
        FeaturePanel { patients }
    }

    /// The canonical 59 feature names: the 56 PRO items in bank order,
    /// then the activity aggregates.
    pub fn feature_names() -> Vec<String> {
        let mut names: Vec<String> = QUESTION_BANK.iter().map(|q| q.name.clone()).collect();
        names.push("steps_monthly_mean".to_string());
        names.push("sleep_hours_monthly_mean".to_string());
        names.push("calories_monthly_mean".to_string());
        names
    }
}

/// The label an outcome record yields for one task.
pub fn label_of(record: &OutcomeRecord, outcome: OutcomeKind) -> f64 {
    match outcome {
        OutcomeKind::Qol => record.qol,
        OutcomeKind::Sppb => record.sppb as f64,
        OutcomeKind::Falls => f64::from(record.falls),
    }
}

/// Build `Sample_o` for one outcome: every in-window month of every
/// patient becomes a candidate sample; rows missing more than
/// `cfg.max_missing_features` features are dropped (QA).
pub fn build_samples(
    data: &CohortData,
    panel: &FeaturePanel,
    outcome: OutcomeKind,
    cfg: &PipelineConfig,
) -> SampleSet {
    let mut block = SampleBlock::new();
    for patient in &data.patients {
        append_rows(
            &panel.patients[patient.id.0 as usize].table,
            patient.id,
            patient.clinic,
            |visit_month| data.outcome(patient.id, visit_month).map(|r| label_of(r, outcome)),
            cfg,
            &mut block,
        );
    }
    let nrows = block.n_rows();
    SampleSet {
        features: Matrix::from_vec(block.rows, nrows, N_FEATURES),
        feature_names: FeaturePanel::feature_names(),
        labels: block.labels,
        meta: block.meta,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaw_cohort::{generate, CohortConfig};

    fn built() -> (CohortData, FeaturePanel, SampleSet) {
        let data = generate(&CohortConfig::small(42));
        let cfg = PipelineConfig::default();
        let panel = FeaturePanel::build(&data, &cfg);
        let set = build_samples(&data, &panel, OutcomeKind::Qol, &cfg);
        (data, panel, set)
    }

    #[test]
    fn feature_names_are_59_and_unique() {
        let names = FeaturePanel::feature_names();
        assert_eq!(names.len(), 59);
        assert_eq!(names.len(), N_FEATURES);
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), 59);
    }

    #[test]
    fn samples_have_consistent_shapes() {
        let (_, _, set) = built();
        assert!(!set.is_empty());
        assert_eq!(set.features.nrows(), set.labels.len());
        assert_eq!(set.features.nrows(), set.meta.len());
        assert_eq!(set.features.ncols(), 59);
    }

    #[test]
    fn qa_drops_a_plausible_fraction() {
        let (data, _, set) = built();
        let potential = data.patients.len() * 16;
        let kept = set.len() as f64 / potential as f64;
        // Paper: 2250 of 4176 ≈ 0.54 kept. Allow a band.
        assert!((0.30..=0.85).contains(&kept), "kept fraction {kept}");
    }

    #[test]
    fn months_stay_inside_their_window() {
        let (_, _, set) = built();
        for m in &set.meta {
            match m.window {
                1 => assert!((1..=8).contains(&m.month)),
                2 => assert!((10..=17).contains(&m.month)),
                w => panic!("bad window {w}"),
            }
        }
    }

    #[test]
    fn no_kept_row_exceeds_missing_budget() {
        let (_, _, set) = built();
        let cfg = PipelineConfig::default();
        for row in set.features.rows() {
            let missing = row.iter().filter(|v| v.is_nan()).count();
            assert!(missing <= cfg.max_missing_features);
        }
    }

    #[test]
    fn pro_features_are_in_likert_range_when_present() {
        let (_, _, set) = built();
        for row in set.features.rows() {
            for &v in &row[..56] {
                if !v.is_nan() {
                    assert!((1.0..=5.0).contains(&v), "PRO monthly mean {v}");
                }
            }
        }
    }

    #[test]
    fn falls_labels_are_binary() {
        let data = generate(&CohortConfig::small(42));
        let cfg = PipelineConfig::default();
        let panel = FeaturePanel::build(&data, &cfg);
        let set = build_samples(&data, &panel, OutcomeKind::Falls, &cfg);
        assert!(set.labels.iter().all(|&l| l == 0.0 || l == 1.0));
        assert!(set.outcome.is_classification());
    }

    #[test]
    fn sppb_labels_are_integers_in_range() {
        let data = generate(&CohortConfig::small(42));
        let cfg = PipelineConfig::default();
        let panel = FeaturePanel::build(&data, &cfg);
        let set = build_samples(&data, &panel, OutcomeKind::Sppb, &cfg);
        assert!(set.labels.iter().all(|&l| (0.0..=12.0).contains(&l) && l.fract() == 0.0));
    }

    #[test]
    fn with_extra_feature_appends_column() {
        let (_, _, set) = built();
        let fi: Vec<f64> = (0..set.len()).map(|i| i as f64 * 0.01).collect();
        let augmented = set.try_with_extra_feature("fi_baseline", &fi).unwrap();
        assert_eq!(augmented.features.ncols(), 60);
        assert_eq!(augmented.feature_names.last().unwrap(), "fi_baseline");
        assert_eq!(augmented.features.get(3, 59), 0.03);
    }

    #[test]
    fn filter_clinic_keeps_only_that_clinic() {
        let (_, _, set) = built();
        let modena = set.filter_clinic(Clinic::Modena);
        assert!(!modena.is_empty());
        assert!(modena.meta.iter().all(|m| m.clinic == Clinic::Modena));
        assert!(modena.len() < set.len());
    }

    #[test]
    fn tighter_interpolation_keeps_fewer_samples() {
        let data = generate(&CohortConfig::small(42));
        let strict = PipelineConfig { max_interpolation_gap: 0, ..Default::default() };
        let lax = PipelineConfig { max_interpolation_gap: 10, ..Default::default() };
        let n_strict =
            build_samples(&data, &FeaturePanel::build(&data, &strict), OutcomeKind::Qol, &strict)
                .len();
        let n_lax =
            build_samples(&data, &FeaturePanel::build(&data, &lax), OutcomeKind::Qol, &lax).len();
        assert!(n_strict < n_lax, "strict {n_strict} !< lax {n_lax}");
    }

    #[test]
    fn to_frame_round_trips_through_csv() {
        let (_, _, set) = built();
        let frame = set.to_frame();
        assert_eq!(frame.nrows(), set.len());
        assert_eq!(frame.ncols(), 4 + 59 + 1);
        // Round trip through CSV and confirm the label column survives.
        let mut buf = Vec::new();
        msaw_tabular::csv::write_csv(&frame, &mut buf).unwrap();
        let schema = msaw_tabular::csv::CsvSchema {
            columns: frame.schema().fields().iter().map(|f| (f.name.clone(), f.dtype)).collect(),
        };
        let back = msaw_tabular::csv::read_csv(std::io::Cursor::new(buf), &schema).unwrap();
        assert_eq!(back.nrows(), set.len());
        let labels = back.f64_column("label_QoL").unwrap();
        for (a, b) in labels.iter().zip(&set.labels) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn patient_groups_align_with_meta() {
        let (_, _, set) = built();
        let groups = set.patient_groups();
        assert_eq!(groups.len(), set.len());
        assert_eq!(groups[0], set.meta[0].patient.0 as u64);
    }
}
