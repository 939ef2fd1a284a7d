//! The persisted-model artifact (format version 2): the full
//! prediction bundle and the workspace's one model format.
//!
//! It persists everything prediction needs, so a load neither
//! recompiles a [`FlatForest`] nor loses the binning metadata a serving
//! layer needs to quantise incoming rows:
//!
//! * the booster trees (SHAP and retraining still need the full
//!   `Node` representation with covers and gains);
//! * the per-feature quantisation cut points the model was trained
//!   against (optional — exact-method models have none);
//! * the compiled [`FlatForest`]: the contiguous 24-byte node array
//!   plus per-tree roots and depths, written verbatim so a load is one
//!   validation pass over the bytes rather than a recompile.
//!
//! ## Byte layout (little endian)
//!
//! ```text
//! b"MSGB"  magic                                  4 B
//! u16      version = 2                            2 B
//! u8       objective tag (+ f64 payload)        1–9 B
//! f64      base score                             8 B
//! u32      feature count                          4 B
//! u32      tree count                             4 B
//! per tree u32 node count · tagged nodes          (tree records)
//! u8       has_cuts (0 | 1)                       1 B
//!   if 1, per feature: u32 cut count · f64 cuts
//! u32      flat node count                        4 B
//! u32 × T  per-tree root indices
//! u16 × T  per-tree depths
//! 24 B × N flat nodes: f64 threshold · u32 left · u32 right ·
//!          u32 feature|default_left<<31 · u32 reserved (0)
//! u64      FNV-1a checksum of every preceding byte
//! ```
//!
//! ## Validation invariants
//!
//! Decoding trusts nothing. In order:
//!
//! 1. the trailing checksum must match before anything is parsed, so
//!    bit rot and truncation fail fast with one precise error;
//! 2. every claimed count is capped by the bytes actually remaining
//!    *before* any allocation (no `with_capacity` DoS);
//! 3. every tree is structurally validated — child indices in range,
//!    tree-shaped reachability, split features `< n_features` — with
//!    errors naming the tree and node;
//! 4. cut sets must be finite and strictly ascending (the binning
//!    search relies on order);
//! 5. the flat section is cross-checked **node by node** against the
//!    decoded trees: roots must equal the tree-length prefix sums,
//!    depths must equal each tree's measured depth, and every 24-byte
//!    node must equal what compiling that tree would produce. A valid
//!    artifact therefore serves bit-identical predictions to an
//!    in-process compile, and the unchecked batch kernel's bounds
//!    invariants hold by construction.
//!
//! Any violation is a typed [`PredictError::Decode`] — never a panic,
//! abort, or a model that fails later at predict time.
//!
//! ## Versioning policy
//!
//! The `u16` after the magic selects the decoder; fields are only ever
//! appended behind a version bump, never reinterpreted. [`decode`]
//! reads version 2 only. The retired version 1 — the booster alone,
//! without cuts, flat forest or checksum — fails as `unsupported
//! version 1`.

use crate::booster::Booster;
use crate::error::PredictError;
use crate::forest::{FlatForest, FlatNode, FLAT_DEFAULT_LEFT_BIT};
use crate::serialize::{check_count, decode_booster_body, need, put_objective, put_tree, MAGIC};
use crate::tree::{Node, Tree};
use crate::Result;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// The artifact format version this module writes.
pub const ARTIFACT_VERSION: u16 = 2;

/// Bytes of one serialised flat node.
const FLAT_NODE_BYTES: usize = 24;

/// FNV-1a 64-bit hash — the artifact checksum and the registry's
/// cohort-fingerprint primitive. Not cryptographic; it detects
/// corruption and truncation, not tampering.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A decoded prediction bundle: everything the serving layer needs.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// The full booster (tree ensemble with covers/gains, for SHAP).
    pub booster: Booster,
    /// Per-feature quantisation cut points the model was trained
    /// against, when the histogram method was used.
    pub cuts: Option<Vec<Vec<f64>>>,
    /// The compiled prediction engine, loaded from the persisted node
    /// array without recompiling.
    pub forest: FlatForest,
}

impl ModelArtifact {
    /// Bundle a trained model (compiling its flat forest once).
    ///
    /// `cuts`, when given, must hold one cut set per feature — the
    /// tables [`crate::ChunkedMatrix::cuts`] gives, feature by feature.
    pub fn from_booster(booster: Booster, cuts: Option<Vec<Vec<f64>>>) -> Self {
        if let Some(c) = &cuts {
            assert_eq!(c.len(), booster.n_features(), "one cut set per feature required");
        }
        let forest = booster.flat_forest();
        ModelArtifact { booster, cuts, forest }
    }

    /// Serialise the bundle into the v2 byte format.
    pub fn encode(&self) -> Bytes {
        encode(self)
    }

    /// Persist atomically next to nothing: plain write (the registry
    /// layers write-then-rename on top of this).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Load and fully validate a bundle written by [`Self::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<ModelArtifact, PredictError> {
        let bytes = std::fs::read(path)
            .map_err(|e| PredictError::Decode(format!("cannot read artifact file: {e}")))?;
        decode(&bytes)
    }
}

/// Encode a bundle into the v2 format described in the module docs.
pub fn encode(artifact: &ModelArtifact) -> Bytes {
    let model = &artifact.booster;
    let forest = &artifact.forest;
    let mut buf = BytesMut::with_capacity(
        128 + model.trees().len() * 256 + forest.n_nodes() * FLAT_NODE_BYTES,
    );
    buf.put_slice(MAGIC);
    buf.put_u16_le(ARTIFACT_VERSION);
    put_objective(&mut buf, model.objective());
    buf.put_f64_le(model.base_score());
    buf.put_u32_le(model.n_features() as u32);
    buf.put_u32_le(model.trees().len() as u32);
    for tree in model.trees() {
        put_tree(&mut buf, tree);
    }
    match &artifact.cuts {
        None => buf.put_u8(0),
        Some(cuts) => {
            assert_eq!(cuts.len(), model.n_features(), "one cut set per feature required");
            buf.put_u8(1);
            for feature_cuts in cuts {
                buf.put_u32_le(feature_cuts.len() as u32);
                for &cut in feature_cuts {
                    buf.put_f64_le(cut);
                }
            }
        }
    }
    buf.put_u32_le(forest.n_nodes() as u32);
    for &root in forest.raw_roots() {
        buf.put_u32_le(root);
    }
    for &depth in forest.raw_depths() {
        buf.put_u16_le(depth);
    }
    for node in forest.raw_nodes() {
        buf.put_f64_le(node.threshold);
        buf.put_u32_le(node.children[0]);
        buf.put_u32_le(node.children[1]);
        buf.put_u32_le(node.feature_and_default);
        buf.put_u32_le(0); // reserved; must be zero (canonical form)
    }
    let checksum = fnv1a_64(buf.as_slice());
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Decode an artifact. See the module docs for the full validation
/// contract; corruption of any byte is a typed error.
pub fn decode(mut data: &[u8]) -> Result<ModelArtifact, PredictError> {
    need(data, 6, "header")?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PredictError::Decode("bad magic".into()));
    }
    match data.get_u16_le() {
        ARTIFACT_VERSION => decode_v2_body(data),
        other => Err(PredictError::Decode(format!("unsupported version {other}"))),
    }
}

/// The v2 payload after magic + version: checksum first, then sections.
fn decode_v2_body(mut data: &[u8]) -> Result<ModelArtifact, PredictError> {
    // The checksum covers magic and version too; `data` starts after
    // them, 6 bytes into the checksummed span.
    const PREFIX: usize = 6;
    need(data, 8, "checksum trailer")?;
    let body_len = data.len() - 8;
    let mut trailer = &data[body_len..];
    let stored = trailer.get_u64_le();
    let mut checksummed = [0u8; PREFIX];
    checksummed[..4].copy_from_slice(MAGIC);
    checksummed[4..].copy_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in checksummed.iter().chain(&data[..body_len]) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if hash != stored {
        return Err(PredictError::Decode(format!(
            "checksum mismatch: stored {stored:#018x}, computed {hash:#018x} \
             (artifact corrupt or truncated)"
        )));
    }
    data = &data[..body_len];

    let booster = decode_booster_body(&mut data)?;
    let n_features = booster.n_features();
    let n_trees = booster.trees().len();

    // Binning section.
    need(data, 1, "cuts flag")?;
    let cuts = match data.get_u8() {
        0 => None,
        1 => {
            let mut all = Vec::with_capacity(n_features.min(data.remaining() / 4));
            for j in 0..n_features {
                need(data, 4, "cut count")?;
                let n_cuts = data.get_u32_le() as usize;
                check_count(data, n_cuts, 8, "cut")?;
                let mut feature_cuts = Vec::with_capacity(n_cuts);
                for k in 0..n_cuts {
                    let cut = data.get_f64_le();
                    if !cut.is_finite() {
                        return Err(PredictError::Decode(format!(
                            "feature {j}: cut {k} is not finite"
                        )));
                    }
                    if let Some(&prev) = feature_cuts.last() {
                        if cut <= prev {
                            return Err(PredictError::Decode(format!(
                                "feature {j}: cut {k} ({cut}) not strictly above its \
                                 predecessor ({prev})"
                            )));
                        }
                    }
                    feature_cuts.push(cut);
                }
                all.push(feature_cuts);
            }
            Some(all)
        }
        other => return Err(PredictError::Decode(format!("unknown cuts flag {other}"))),
    };

    // Flat-forest section: counts, roots, depths, node array.
    need(data, 4, "flat node count")?;
    let n_flat = data.get_u32_le() as usize;
    let expected_nodes: usize = booster.trees().iter().map(Tree::len).sum();
    if n_flat != expected_nodes {
        return Err(PredictError::Decode(format!(
            "flat forest has {n_flat} nodes but the trees hold {expected_nodes}"
        )));
    }
    need(data, n_trees * 4, "flat roots")?;
    let mut roots = Vec::with_capacity(n_trees);
    for _ in 0..n_trees {
        roots.push(data.get_u32_le());
    }
    need(data, n_trees * 2, "flat depths")?;
    let mut depths = Vec::with_capacity(n_trees);
    for _ in 0..n_trees {
        depths.push(data.get_u16_le());
    }
    check_count(data, n_flat, FLAT_NODE_BYTES, "flat node")?;
    need(data, n_flat * FLAT_NODE_BYTES, "flat node array")?;
    let mut nodes = Vec::with_capacity(n_flat);
    for i in 0..n_flat {
        let threshold = data.get_f64_le();
        let left = data.get_u32_le();
        let right = data.get_u32_le();
        let feature_and_default = data.get_u32_le();
        let reserved = data.get_u32_le();
        if reserved != 0 {
            return Err(PredictError::Decode(format!(
                "flat node {i}: reserved word is {reserved:#x}, expected 0"
            )));
        }
        nodes.push(FlatNode { threshold, children: [left, right], feature_and_default });
    }
    if data.has_remaining() {
        return Err(PredictError::Decode(format!("{} trailing bytes", data.remaining())));
    }

    // Cross-check the flat section against the trees, node by node —
    // this is what licenses the unchecked kernel *and* guarantees the
    // loaded engine is bit-identical to a fresh compile.
    let mut base = 0u32;
    for (t, tree) in booster.trees().iter().enumerate() {
        if roots[t] != base {
            return Err(PredictError::Decode(format!(
                "flat root of tree {t} is {}, expected {base}",
                roots[t]
            )));
        }
        let measured = tree.depth();
        if usize::from(depths[t]) != measured {
            return Err(PredictError::Decode(format!(
                "flat depth of tree {t} is {}, expected {measured}",
                depths[t]
            )));
        }
        for (i, node) in tree.nodes().iter().enumerate() {
            let flat = &nodes[base as usize + i];
            let expected = match node {
                Node::Leaf { weight, .. } => {
                    let me = base + i as u32;
                    FlatNode { threshold: *weight, children: [me, me], feature_and_default: 0 }
                }
                Node::Split { feature, threshold, default_left, left, right, .. } => FlatNode {
                    threshold: *threshold,
                    children: [base + *left as u32, base + *right as u32],
                    feature_and_default: (*feature as u32)
                        | if *default_left { FLAT_DEFAULT_LEFT_BIT } else { 0 },
                },
            };
            // Bitwise comparison: NaN thresholds must round-trip too.
            let same = flat.threshold.to_bits() == expected.threshold.to_bits()
                && flat.children == expected.children
                && flat.feature_and_default == expected.feature_and_default;
            if !same {
                return Err(PredictError::Decode(format!(
                    "flat node {} (tree {t}, node {i}) does not match its tree node",
                    base as usize + i
                )));
            }
        }
        base += tree.len() as u32;
    }

    let forest = FlatForest::from_validated_parts(
        nodes,
        roots,
        depths,
        booster.base_score(),
        booster.objective(),
        n_features,
    );
    Ok(ModelArtifact { booster, cuts, forest })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Params, TreeMethod};
    use msaw_tabular::Matrix;

    fn trained(hist: bool) -> (Booster, Option<Vec<Vec<f64>>>) {
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 11) as f64, if i % 7 == 0 { f64::NAN } else { (i % 5) as f64 }])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + r[1].max(0.0)).collect();
        let x = Matrix::from_rows(&rows);
        if hist {
            let binned = crate::ChunkedMatrix::fit(&x, 16);
            let params = Params {
                n_estimators: 6,
                tree_method: TreeMethod::Hist { max_bins: 16 },
                ..Params::regression()
            };
            let cuts = (0..x.ncols()).map(|j| binned.cuts(j).to_vec()).collect();
            (Booster::train(&params, &x, &y).unwrap(), Some(cuts))
        } else {
            let params = Params { n_estimators: 6, ..Params::regression() };
            (Booster::train(&params, &x, &y).unwrap(), None)
        }
    }

    fn artifact(hist: bool) -> ModelArtifact {
        let (model, cuts) = trained(hist);
        ModelArtifact::from_booster(model, cuts)
    }

    #[test]
    fn round_trip_preserves_booster_cuts_and_forest() {
        for hist in [false, true] {
            let a = artifact(hist);
            let b = decode(&encode(&a)).unwrap();
            assert_eq!(a.booster, b.booster);
            assert_eq!(a.cuts, b.cuts);
            assert_eq!(a.forest.n_nodes(), b.forest.n_nodes());
            // The loaded forest predicts bit-identically to the
            // in-process compile.
            let row = vec![3.0, f64::NAN];
            assert_eq!(
                a.forest.predict_raw_row(&row).to_bits(),
                b.forest.predict_raw_row(&row).to_bits()
            );
        }
    }

    #[test]
    fn encode_is_canonical_round_trip() {
        let a = artifact(true);
        let bytes = encode(&a);
        let again = encode(&decode(&bytes).unwrap());
        assert_eq!(bytes, again, "encode → decode → encode must be byte-identical");
    }

    #[test]
    fn v1_input_is_rejected_as_unsupported() {
        // A version-1 header (the retired booster-only format) is
        // refused before anything else is parsed.
        let mut bytes = encode(&artifact(false)).to_vec();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert_eq!(msg, "unsupported version 1");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // The checksum must catch any one-byte corruption with a typed
        // error; structural validation backstops it on collision.
        let bytes = encode(&artifact(true)).to_vec();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(decode(&bad).is_err(), "flipping byte {at} went undetected");
        }
    }

    #[test]
    fn truncation_at_every_offset_is_a_typed_error() {
        let bytes = encode(&artifact(false)).to_vec();
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(PredictError::Decode(_)) => {}
                other => panic!("prefix of {cut} bytes: {other:?}"),
            }
        }
    }

    #[test]
    fn non_canonical_reserved_word_is_rejected() {
        // Rebuild a valid checksum over a corrupted reserved word to
        // prove the structural check fires independently.
        let a = artifact(false);
        let bytes = encode(&a).to_vec();
        let body_len = bytes.len() - 8;
        // Last flat node's reserved word sits 4 bytes before the checksum.
        let mut bad = bytes.clone();
        bad[body_len - 4] = 0xff;
        let checksum = fnv1a_64(&bad[..body_len]);
        bad[body_len..].copy_from_slice(&checksum.to_le_bytes());
        let err = decode(&bad).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("reserved"), "{msg}");
    }

    #[test]
    fn file_round_trip() {
        let a = artifact(true);
        let dir = std::env::temp_dir().join("msaw_gbdt_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.msgb2");
        a.save(&path).unwrap();
        let b = ModelArtifact::load(&path).unwrap();
        assert_eq!(a.booster, b.booster);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
