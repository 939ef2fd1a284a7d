//! Streaming featurization: turn a [`CohortStream`] into blocks of
//! ready-to-train samples without ever materialising the cohort or the
//! full feature matrix.
//!
//! Each patient is featurized independently by the featuriser in
//! [`crate::featurise`], which appends its QA-passing rows straight
//! into the block being built — the same featurisation and row filter
//! the materialised [`crate::build_samples`] path runs, in the same patient
//! order — so concatenating the streamed blocks reproduces the
//! in-memory [`SampleSet`] byte for byte (pinned by the tests below).

use crate::featurise::{append_patient_samples, N_FEATURES};
use crate::samples::{FeaturePanel, OutcomeKind, PipelineConfig, SampleMeta, SampleSet};
use msaw_cohort::stream::{CohortChunks, CohortStream};
use msaw_cohort::{CohortConfig, PatientRecord};
use msaw_tabular::Matrix;

/// A block of assembled samples — the streamed counterpart of a
/// [`SampleSet`] slice. `rows` is row-major with [`N_FEATURES`]
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
/// workers. Generation is pure in `(config, id)`, so this block is
/// bit-identical to the same id range of a serial [`SampleStream`]
/// pass, whatever chunking either side uses.
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

/// Streaming generate→featurize pipeline: yields one [`SampleBlock`]
/// per chunk of `chunk_patients` patients, holding only that chunk in
/// memory. Patient order (and therefore row order under concatenation)
/// is identical to the materialised path for every chunk size.
pub struct SampleStream<'a> {
    chunks: CohortChunks<'a>,
    outcome: OutcomeKind,
    cfg: PipelineConfig,
}

impl<'a> SampleStream<'a> {
    /// Stream samples for `outcome` over the whole cohort of `config`.
    pub fn new(
        config: &'a CohortConfig,
        outcome: OutcomeKind,
        cfg: PipelineConfig,
        chunk_patients: usize,
    ) -> SampleStream<'a> {
        SampleStream { chunks: CohortStream::new(config).chunks(chunk_patients), outcome, cfg }
    }
}

impl Iterator for SampleStream<'_> {
    type Item = SampleBlock;

    fn next(&mut self) -> Option<SampleBlock> {
        let records = self.chunks.next()?;
        let mut block = SampleBlock::new();
        for record in &records {
            append_patient_samples(record, self.outcome, &self.cfg, &mut block);
        }
        Some(block)
    }
}

/// Collect a streamed run back into a [`SampleSet`] — the convenience
/// used by equivalence tests and small-scale callers; at population
/// scale, consume the blocks instead.
pub fn collect_samples(
    config: &CohortConfig,
    outcome: OutcomeKind,
    cfg: &PipelineConfig,
    chunk_patients: usize,
) -> SampleSet {
    let mut rows: Vec<f64> = Vec::new();
    let mut labels = Vec::new();
    let mut meta = Vec::new();
    for block in SampleStream::new(config, outcome, cfg.clone(), chunk_patients) {
        rows.extend_from_slice(&block.rows);
        labels.extend(block.labels);
        meta.extend(block.meta);
    }
    let nrows = labels.len();
    SampleSet {
        features: Matrix::from_vec(rows, nrows, N_FEATURES),
        feature_names: FeaturePanel::feature_names(),
        labels,
        meta,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::build_samples;
    use msaw_cohort::generate;

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn assert_equivalent(config: &CohortConfig, outcome: OutcomeKind, chunk: usize) {
        let cfg = PipelineConfig::default();
        let data = generate(config);
        let panel = FeaturePanel::build(&data, &cfg);
        let full = build_samples(&data, &panel, outcome, &cfg);
        let streamed = collect_samples(config, outcome, &cfg, chunk);
        assert_eq!(streamed.len(), full.len());
        assert!(
            bits_eq(streamed.features.as_slice(), full.features.as_slice()),
            "features diverge at chunk {chunk}"
        );
        assert!(bits_eq(&streamed.labels, &full.labels));
        assert_eq!(streamed.meta, full.meta);
        assert_eq!(streamed.feature_names, full.feature_names);
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

    #[test]
    fn block_rows_are_feature_width() {
        let config = CohortConfig::small(42);
        let blocks: Vec<SampleBlock> =
            SampleStream::new(&config, OutcomeKind::Qol, PipelineConfig::default(), 8).collect();
        assert!(!blocks.is_empty());
        for block in &blocks {
            assert_eq!(block.n_features, 59);
            assert_eq!(block.rows.len(), block.n_rows() * 59);
            if block.n_rows() > 0 {
                assert_eq!(block.row(0).len(), 59);
            }
        }
    }
}
