//! Streamed chunked generation must equal full-cohort materialisation
//! bit for bit, for every chunk size — the determinism contract the
//! out-of-core training pipeline is built on.

use msaw_cohort::stream::CohortStream;
use msaw_cohort::{generate, CohortConfig, CohortData, PatientRecord};
use proptest::prelude::*;

/// Concatenate consecutive `CohortStream::range` calls of `chunk`
/// patients, the path both streaming pipelines take, back into
/// patient-major order.
fn stream_chunked(config: &CohortConfig, chunk: usize) -> Vec<PatientRecord> {
    let n = config.total_patients();
    (0..n)
        .step_by(chunk)
        .flat_map(|start| CohortStream::range(config, start as u32, (start + chunk).min(n) as u32))
        .collect()
}

/// Assert the streamed records reproduce the materialised cohort
/// exactly. Float comparisons are bitwise (activity traces contain NaN
/// not-worn days), everything else uses structural equality.
fn assert_matches(data: &CohortData, records: &[PatientRecord]) {
    let n = data.patients.len();
    assert_eq!(records.len(), n);
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.patient, data.patients[i], "patient {i}");
        assert_eq!(rec.latent, data.latent[i], "latent {i}");
        assert_eq!(rec.pro, data.pro.series[i], "pro {i}");
        assert!(rec.activity.bits_eq(&data.activity[i]), "activity {i}");
        // The materialised cohort flattens visits patient-major:
        // 3 clinical rows then 2 outcome rows per patient.
        assert_eq!(rec.clinical.as_slice(), &data.clinical[i * 3..i * 3 + 3], "clinical {i}");
        assert_eq!(rec.outcomes.as_slice(), &data.outcomes[i * 2..i * 2 + 2], "outcomes {i}");
    }
}

#[test]
fn chunk_sizes_reproduce_full_cohort() {
    let config = CohortConfig::small(42);
    let n = config.total_patients();
    let data = generate(&config);
    for chunk in [1usize, 7, 256, n] {
        assert_matches(&data, &stream_chunked(&config, chunk));
    }
}

#[test]
fn single_patient_cohort_streams() {
    let mut config = CohortConfig::paper(9);
    config.clinics.truncate(1);
    config.clinics[0].n_patients = 1;
    let data = generate(&config);
    for chunk in [1usize, 2, 100] {
        assert_matches(&data, &stream_chunked(&config, chunk));
    }
}

#[test]
fn chunk_larger_than_cohort_yields_one_chunk() {
    let config = CohortConfig::small(11);
    let n = config.total_patients();
    let records: Vec<_> = CohortStream::range(&config, 0, (n + 100) as u32).collect();
    assert_eq!(records.len(), n);
    assert_matches(&generate(&config), &records);
}

/// A tiny arbitrary cohort: 1–3 clinics, 1–6 patients each, varied
/// noise parameters — enough structural variety to shake out any
/// order- or chunk-dependence, small enough to generate hundreds of
/// cases quickly.
fn arb_config() -> impl Strategy<Value = CohortConfig> {
    (1usize..4, any::<u64>(), 1usize..7).prop_map(|(n_clinics, seed, per_clinic)| {
        let mut config = CohortConfig::paper(seed);
        config.clinics.truncate(n_clinics);
        for (i, c) in config.clinics.iter_mut().enumerate() {
            c.n_patients = per_clinic + i; // unequal blocks
        }
        config
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_equals_materialised_for_any_chunk_size(
        config in arb_config(),
        chunk in 1usize..25,
    ) {
        let data = generate(&config);
        assert_matches(&data, &stream_chunked(&config, chunk));
    }
}
