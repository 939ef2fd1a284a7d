//! # msaw-preprocess
//!
//! The paper's §3 data pipeline, from raw cohort observations to the
//! sample sets the learners train on:
//!
//! 1. **Quality assurance** — weekly PRO series contain gaps (unanswered
//!    app prompts). Gaps up to a configurable length are filled by
//!    linear interpolation; longer gaps are left missing because
//!    interpolating them "produces spurious data" (the paper determined
//!    the safe maximum, five consecutive missing observations,
//!    experimentally — our `qa_gap_sweep` experiment reproduces that
//!    sweep).
//! 2. **Aggregation** — interpolated weekly PRO answers and daily
//!    activity traces are averaged into monthly values.
//! 3. **Sample construction** — for each outcome `o ∈ {QoL, SPPB,
//!    Falls}` and each patient, every month `m = i + (j−1)·9` (`i ∈
//!    1..8`, window `j ∈ {1,2}`) yields one sample: the 59 monthly
//!    feature values (56 PRO + steps, sleep, calories) paired with the
//!    outcome measured at the visit ending the window (month 9 or 18).
//!    Samples with too many still-missing features are dropped,
//!    thinning the 4,176 potential records to ≈2,250 usable ones as in
//!    the paper.
//!
//! The FI-augmented variants (`Sample^FI_o`) are built by appending the
//! baseline Frailty Index column via [`SampleSet::try_with_extra_feature`] —
//! the index itself is computed by `msaw-kd`.

pub mod aggregate;
pub mod error;
pub mod featurise;
pub mod ingest;
pub mod interpolate;
pub mod samples;
pub mod stream;

pub use aggregate::monthly_means;
pub use error::SampleError;
pub use featurise::N_FEATURES;
pub use ingest::{frame_to_samples, ingest_frame, read_sample_csv, IngestMode, Ingested};
pub use interpolate::interpolate;
pub use samples::{
    build_samples, label_of, FeaturePanel, OutcomeKind, PatientFeatures, PipelineConfig,
    SampleMeta, SampleSet,
};
pub use stream::{patient_samples, range_samples, SampleBlock};
