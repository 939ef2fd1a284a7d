//! Adversarial-input contract for the model artifact decoder: **no
//! byte sequence may panic it**, and every rejection is a typed
//! [`PredictError::Decode`]. Valid models must round-trip canonically —
//! encode → decode → encode is byte-identical — with and without cut
//! points.

use msaw_gbdt::artifact::{self, fnv1a_64, ModelArtifact, ARTIFACT_VERSION};
use msaw_gbdt::{Booster, Params, PredictError, TreeMethod};
use msaw_tabular::Matrix;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic pseudo-random training data with missing values.
fn pseudo_data(nrows: usize, ncols: usize) -> (Matrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..nrows)
        .map(|i| {
            (0..ncols)
                .map(|j| {
                    let h = (i * 37 + j * 23 + i * j) % 101;
                    if h % 9 == 4 {
                        f64::NAN
                    } else {
                        ((h % 13) as f64) * 0.25 - 1.0
                    }
                })
                .collect()
        })
        .collect();
    let labels = (0..nrows).map(|i| ((i * 7 + 3) % 31) as f64 / 31.0).collect();
    (Matrix::from_rows(&rows), labels)
}

/// A realistically-shaped model: multiple trees, real depth, NaN routing.
fn trained_model() -> Booster {
    let (data, labels) = pseudo_data(150, 5);
    let params = Params { n_estimators: 12, max_depth: 4, ..Params::regression() };
    Booster::train(&params, &data, &labels).unwrap()
}

fn trained_artifact() -> ModelArtifact {
    let (data, labels) = pseudo_data(150, 5);
    let binned = msaw_gbdt::binning::BinnedMatrix::fit(&data, 32);
    let params = Params {
        n_estimators: 12,
        max_depth: 4,
        tree_method: TreeMethod::Hist { max_bins: 32 },
        ..Params::regression()
    };
    let model = Booster::train(&params, &data, &labels).unwrap();
    ModelArtifact::from_booster(model, Some(binned.clone_cuts()))
}

/// An exact-method model's artifact: trees and flat forest, no cuts.
fn uncut_artifact() -> ModelArtifact {
    ModelArtifact::from_booster(trained_model(), None)
}

/// Edit an artifact's body and recompute its FNV trailer, so the
/// structural checks — not the checksum — must reject the edit.
fn resealed(mut bytes: Vec<u8>, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    bytes.truncate(bytes.len() - 8);
    edit(&mut bytes);
    sealed(bytes)
}

/// Append the FNV trailer a valid artifact ends with.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a_64(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// Run a decoder over bytes inside a panic trap; a panic is a test
/// failure naming the offending input (`what` and its offset or length).
fn must_not_panic<T>(what: &str, at: usize, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!("decoder panicked on {what} {at}"),
    }
}

#[test]
fn v2_truncation_at_every_offset_is_a_typed_error() {
    for artifact in [trained_artifact(), uncut_artifact()] {
        let bytes = artifact::encode(&artifact).to_vec();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            let result = must_not_panic("prefix of length", cut, || artifact::decode(prefix));
            match result {
                Err(PredictError::Decode(_)) => {}
                Ok(_) => panic!("truncated prefix of {cut} bytes decoded successfully"),
                Err(other) => panic!("prefix of {cut} bytes: unexpected error kind {other:?}"),
            }
        }
    }
}

#[test]
fn v2_single_byte_corruption_is_always_rejected() {
    // The artifact trailer checksums every byte, so any flip must be
    // caught — a corrupt artifact never loads as a subtly wrong model.
    for (artifact, pattern) in [(trained_artifact(), 0x10u8), (uncut_artifact(), 0xff)] {
        let bytes = artifact::encode(&artifact).to_vec();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= pattern;
            let result = must_not_panic("flip of byte", at, || artifact::decode(&bad));
            match result {
                Err(PredictError::Decode(_)) => {}
                Ok(_) => panic!("byte {at} ^ {pattern:#x} went undetected"),
                Err(other) => panic!("byte {at}: unexpected error kind {other:?}"),
            }
        }
    }
}

#[test]
fn resealed_truncation_at_every_offset_is_a_typed_error() {
    // Every body prefix under a valid trailer: the checksum passes, so
    // the section parsers' own length checks must reject each cut.
    for artifact in [trained_artifact(), uncut_artifact()] {
        let bytes = artifact::encode(&artifact).to_vec();
        for cut in 0..bytes.len() - 8 {
            let bad = sealed(bytes[..cut].to_vec());
            let result =
                must_not_panic("resealed prefix of length", cut, || artifact::decode(&bad));
            match result {
                Err(PredictError::Decode(_)) => {}
                Ok(_) => panic!("resealed prefix of {cut} bytes decoded successfully"),
                Err(other) => panic!("resealed prefix of {cut} bytes: unexpected error {other:?}"),
            }
        }
    }
}

#[test]
fn resealed_single_byte_corruption_never_panics() {
    // Every body byte flipped under a recomputed trailer reaches the
    // structural parser. A flip may still decode (a tree's cover or
    // gain is not cross-checked against the flat section) — but it must
    // never panic, and any rejection must be the typed decode error.
    for artifact in [trained_artifact(), uncut_artifact()] {
        let bytes = artifact::encode(&artifact).to_vec();
        for at in 0..bytes.len() - 8 {
            for pattern in [0x01u8, 0x80, 0xff] {
                let bad = resealed(bytes.clone(), |b| b[at] ^= pattern);
                let result = must_not_panic("resealed flip of byte", at, || artifact::decode(&bad));
                if let Err(e) = result {
                    assert!(
                        matches!(e, PredictError::Decode(_)),
                        "byte {at} ^ {pattern:#x}: unexpected error kind {e:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn corrupt_tree_indices_are_rejected_with_located_errors() {
    // Surgically corrupt the first tree's first split node and reseal
    // the checksum, so the structural validators must catch it: the
    // layout after the 23-byte header and the 4-byte node count is
    // tag(1) feature(4) threshold(8) default(1) left(4) right(4)
    // cover(8) gain(8).
    let bytes = uncut_artifact().encode().to_vec();
    // Header: magic 4 + version 2 + objective tag 1 + base score 8 +
    // n_features 4 + n_trees 4 = 23 bytes; tree 0's node count follows.
    let first_node = 23 + 4;
    assert_eq!(bytes[first_node], 1, "expected the root of tree 0 to be a split");

    // Split feature far beyond n_features.
    let bad = resealed(bytes.clone(), |b| {
        b[first_node + 1..first_node + 5].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    match artifact::decode(&bad) {
        Err(PredictError::Decode(msg)) => {
            assert!(msg.contains("tree 0"), "{msg}");
            assert!(msg.contains("feature"), "{msg}");
        }
        other => panic!("expected a located decode error, got {other:?}"),
    }

    // Left child index far beyond the node count.
    let bad = resealed(bytes.clone(), |b| {
        b[first_node + 14..first_node + 18].copy_from_slice(&0x00ff_ffffu32.to_le_bytes());
    });
    match artifact::decode(&bad) {
        Err(PredictError::Decode(msg)) => {
            assert!(msg.contains("tree 0"), "{msg}");
            assert!(msg.contains("child"), "{msg}");
        }
        other => panic!("expected a located decode error, got {other:?}"),
    }

    // Self-referential left child (a cycle, not a tree).
    let bad = resealed(bytes, |b| {
        b[first_node + 14..first_node + 18].copy_from_slice(&0u32.to_le_bytes());
    });
    match artifact::decode(&bad) {
        Err(PredictError::Decode(msg)) => assert!(msg.contains("tree 0"), "{msg}"),
        other => panic!("expected a located decode error, got {other:?}"),
    }
}

#[test]
fn absurd_counts_do_not_allocate() {
    // A buffer claiming 2^32-1 trees must be rejected up front — by
    // the count/remaining-bytes cap, not by an OOM or a panic. The
    // checksum is resealed so it cannot be what rejects the input.
    // The u32 tree count sits at offset 19 (after magic, version,
    // objective tag, base score and n_features).
    let bytes = resealed(uncut_artifact().encode().to_vec(), |b| {
        b[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    match artifact::decode(&bytes) {
        Err(PredictError::Decode(msg)) => assert!(msg.contains("count"), "{msg}"),
        other => panic!("expected a count-cap error, got {other:?}"),
    }
}

#[test]
fn random_garbage_never_panics_the_decoder() {
    // Deterministic pseudo-random byte soup, half of it under a valid
    // header and trailer so parsing gets past the header and checksum.
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..200 {
        let len = (next() % 512) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        if round % 2 == 0 && bytes.len() >= 6 {
            // A valid header and a valid trailer over the garbage, so
            // the body parser itself must reject it.
            bytes[..4].copy_from_slice(b"MSGB");
            bytes[4..6].copy_from_slice(&ARTIFACT_VERSION.to_le_bytes());
            bytes = sealed(bytes);
        }
        let len = bytes.len();
        must_not_panic("garbage of length", len, || artifact::decode(&bytes)).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Canonical round-trip for any trained model: encode → decode →
    /// encode is byte-identical, and the reloaded model predicts
    /// bit-identically.
    #[test]
    fn round_trip_is_canonical_for_random_models(
        nrows in 20usize..80,
        ncols in 1usize..6,
        n_estimators in 1usize..8,
        depth in 1usize..5,
        seed in 0u64..32,
        hist_sel in 0u8..2
    ) {
        let hist = hist_sel == 1;
        let (data, labels) = pseudo_data(nrows, ncols);
        let params = Params {
            n_estimators,
            max_depth: depth,
            seed,
            subsample: 0.9,
            tree_method: if hist { TreeMethod::Hist { max_bins: 16 } } else { TreeMethod::Exact },
            ..Params::regression()
        };
        let model = Booster::train(&params, &data, &labels).unwrap();

        // The full bundle, with cuts when the hist method was used.
        let cuts = hist.then(|| msaw_gbdt::binning::BinnedMatrix::fit(&data, 16).clone_cuts());
        let bundle = ModelArtifact::from_booster(model, cuts);
        let v2 = artifact::encode(&bundle);
        let bundle2 = artifact::decode(&v2).unwrap();
        prop_assert_eq!(&artifact::encode(&bundle2)[..], &v2[..]);
        prop_assert_eq!(&bundle2.booster, &bundle.booster);
        for row in data.rows().take(16) {
            prop_assert_eq!(
                bundle.forest.predict_raw_row(row).to_bits(),
                bundle2.forest.predict_raw_row(row).to_bits()
            );
        }
    }
}
