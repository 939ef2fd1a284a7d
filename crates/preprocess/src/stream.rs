//! Streaming featurization: turn a [`CohortStream`] into blocks of
//! ready-to-train samples without ever materialising the cohort or the
//! full feature matrix.
//!
//! Each patient is featurized independently by the featuriser in
//! [`crate::featurise`], which appends its QA-passing rows straight
//! into the block being built — the same featurisation and row filter
//! the materialised [`crate::build_samples`] path runs, in the same patient
//! order — so concatenating the streamed blocks reproduces the
//! in-memory [`crate::SampleSet`] byte for byte (pinned by the tests below).

use crate::featurise::{append_patient_samples, N_FEATURES};
use crate::samples::{OutcomeKind, PipelineConfig, SampleMeta};
use msaw_cohort::stream::CohortStream;
use msaw_cohort::{CohortConfig, PatientRecord};

/// A block of assembled samples — the streamed counterpart of a
/// [`crate::SampleSet`] slice. `rows` is row-major with [`N_FEATURES`]
/// columns per row.
#[derive(Debug, Clone)]
pub struct SampleBlock {
    /// Row-major feature values, `n_rows × n_features`.
    pub rows: Vec<f64>,
    /// One label per row.
    pub labels: Vec<f64>,
    /// Per-row provenance.
    pub meta: Vec<SampleMeta>,
    /// Columns per row.
    pub n_features: usize,
}

impl SampleBlock {
    /// An empty block of [`N_FEATURES`]-wide rows.
    pub(crate) fn new() -> SampleBlock {
        SampleBlock {
            rows: Vec::new(),
            labels: Vec::new(),
            meta: Vec::new(),
            n_features: N_FEATURES,
        }
    }

    /// Number of samples in the block.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// One row's feature values.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.n_features..(i + 1) * self.n_features]
    }
}

/// Featurize one generated patient into QA-passing samples: the
/// per-patient step of [`crate::build_samples`], with the window label read
/// off the record's own outcome visits.
pub fn patient_samples(
    record: &PatientRecord,
    outcome: OutcomeKind,
    cfg: &PipelineConfig,
) -> SampleBlock {
    let mut block = SampleBlock::new();
    append_patient_samples(record, outcome, cfg, &mut block);
    block
}

/// Featurize the patients with ids `start..end` into one
/// [`SampleBlock`] — the unit of work parallel pipelines fan across
/// workers. Generation is pure in `(config, id)`, so consecutive ranges
/// concatenate to the materialised [`crate::build_samples`] rows,
/// whatever the chunking.
pub fn range_samples(
    config: &CohortConfig,
    outcome: OutcomeKind,
    cfg: &PipelineConfig,
    start: u32,
    end: u32,
) -> SampleBlock {
    let mut block = SampleBlock::new();
    for record in CohortStream::range(config, start, end) {
        append_patient_samples(&record, outcome, cfg, &mut block);
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::{build_samples, FeaturePanel};
    use msaw_cohort::generate;

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Consecutive `range_samples` calls of `chunk` patients, the path
    /// both streaming pipelines take, concatenate to the materialised
    /// sample set bit for bit, in blocks of feature-width rows.
    fn assert_equivalent(config: &CohortConfig, outcome: OutcomeKind, chunk: usize) {
        let cfg = PipelineConfig::default();
        let data = generate(config);
        let panel = FeaturePanel::build(&data, &cfg);
        let full = build_samples(&data, &panel, outcome, &cfg);
        let n = config.total_patients();
        let (mut rows, mut labels, mut meta) = (Vec::new(), Vec::new(), Vec::new());
        for start in (0..n).step_by(chunk) {
            let end = (start + chunk).min(n);
            let block = range_samples(config, outcome, &cfg, start as u32, end as u32);
            assert_eq!(block.n_features, N_FEATURES);
            assert_eq!(block.rows.len(), block.n_rows() * N_FEATURES);
            rows.extend(block.rows);
            labels.extend(block.labels);
            meta.extend(block.meta);
        }
        assert_eq!(labels.len(), full.len());
        assert!(bits_eq(&rows, full.features.as_slice()), "features diverge at chunk {chunk}");
        assert!(bits_eq(&labels, &full.labels));
        assert_eq!(meta, full.meta);
    }

    #[test]
    fn streamed_samples_equal_materialised_for_every_outcome() {
        let config = CohortConfig::small(42);
        for outcome in OutcomeKind::ALL {
            assert_equivalent(&config, outcome, 16);
        }
    }

    #[test]
    fn chunk_size_never_changes_the_samples() {
        let config = CohortConfig::small(42);
        let n = config.total_patients();
        for chunk in [1usize, 7, n, n + 50] {
            assert_equivalent(&config, OutcomeKind::Qol, chunk);
        }
    }
}
