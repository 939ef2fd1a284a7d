//! The persisted-model artifact (format version 3): the full
//! prediction bundle and the workspace's one model format.
//!
//! It persists what prediction and serving need and nothing derived
//! from it:
//!
//! * the booster trees (SHAP and retraining still need the full
//!   `Node` representation with covers and gains);
//! * the per-feature quantisation cut points the model was trained
//!   against (optional — exact-method models have none), which a
//!   serving layer needs to quantise incoming rows.
//!
//! A load compiles the [`FlatForest`] from the decoded trees with
//! [`ModelArtifact::from_booster`], the same compile a trained model
//! goes through, so a loaded model predicts bit for bit what the
//! in-process one does.
//!
//! ## Byte layout (little endian)
//!
//! ```text
//! b"MSGB"  magic                                  4 B
//! u16      version = 3                            2 B
//! u8       objective tag (+ f64 payload)        1–9 B
//! f64      base score                             8 B
//! u32      feature count                          4 B
//! u32      tree count                             4 B
//! per tree u32 node count · tagged nodes:
//!   leaf   u8 0 · f64 weight · f64 cover         17 B
//!   split  u8 1 · u32 feature · f64 threshold · u8 default_left ·
//!          u32 left · u32 right · f64 cover · f64 gain   38 B
//! u8       has_cuts (0 | 1)                       1 B
//!   if 1, per feature: u32 cut count · f64 cuts
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
//!    tree-shaped reachability, split features `< n_features` — and
//!    must fit the flat forest's `u16` depths and `u32` node indices,
//!    with errors naming the tree (and the node, for a structural
//!    defect);
//! 4. cut sets must be finite and strictly ascending (the binning
//!    search relies on order), and no bytes may trail them.
//!
//! Only then is the forest compiled, so the compiler's bounds asserts
//! (which license the unchecked batch kernel) cannot fire. Any
//! violation is a typed [`PredictError::Decode`] — never a panic,
//! abort, or a model that fails later at predict time.
//!
//! ## Versioning policy
//!
//! The `u16` after the magic selects the decoder; fields are only ever
//! appended behind a version bump, never reinterpreted. [`decode`]
//! reads version 3 only. The retired versions fail as `unsupported
//! version N`: version 1 held the booster alone, and version 2 also
//! stored the compiled 24-byte flat-forest nodes, which its decoder
//! had to check node by node against a recompile of the trees.

use crate::booster::Booster;
use crate::error::PredictError;
use crate::forest::FlatForest;
use crate::objective::Objective;
use crate::tree::{Node, Tree};
use crate::Result;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// The artifact format version this module writes.
pub const ARTIFACT_VERSION: u16 = 3;

/// The magic every persisted model starts with.
const MAGIC: &[u8; 4] = b"MSGB";

const OBJ_SQUARED: u8 = 0;
const OBJ_LOGISTIC: u8 = 1;
const NODE_LEAF: u8 = 0;
const NODE_SPLIT: u8 = 1;

/// Smallest possible on-wire tree record: the `u32` node count alone.
/// Any claimed tree count above `remaining / MIN_TREE_BYTES` cannot be
/// backed by real data, so it is rejected *before* allocating.
const MIN_TREE_BYTES: usize = 4;

/// Smallest possible on-wire node record: a leaf (`u8` tag + two
/// `f64`s). The per-tree node-count cap divides by this.
const MIN_NODE_BYTES: usize = 1 + 16;

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
    /// The compiled prediction engine.
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

    /// Serialise the bundle into the v3 byte format.
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

/// Encode a bundle into the v3 format described in the module docs.
pub fn encode(artifact: &ModelArtifact) -> Bytes {
    let model = &artifact.booster;
    let mut buf = BytesMut::with_capacity(128 + model.trees().len() * 256);
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
    let checksum = fnv1a_64(buf.as_slice());
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Decode an artifact and compile its forest. See the module docs for
/// the full validation contract; corruption of any byte is a typed
/// error.
pub fn decode(bytes: &[u8]) -> Result<ModelArtifact, PredictError> {
    let mut data = bytes;
    need(data, 6, "header")?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PredictError::Decode("bad magic".into()));
    }
    let version = data.get_u16_le();
    if version != ARTIFACT_VERSION {
        return Err(PredictError::Decode(format!("unsupported version {version}")));
    }
    // The checksum covers every byte before it, magic and version too.
    need(data, 8, "checksum trailer")?;
    let body_len = bytes.len() - 8;
    let stored = (&bytes[body_len..]).get_u64_le();
    let computed = fnv1a_64(&bytes[..body_len]);
    if computed != stored {
        return Err(PredictError::Decode(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x} \
             (artifact corrupt or truncated)"
        )));
    }
    data = &bytes[6..body_len];

    // Booster section.
    let objective = get_objective(&mut data)?;
    need(data, 16, "base score and counts")?;
    let base_score = data.get_f64_le();
    let n_features = data.get_u32_le() as usize;
    let n_trees = data.get_u32_le() as usize;
    check_count(data, n_trees, MIN_TREE_BYTES, "tree")?;
    let mut trees = Vec::with_capacity(n_trees);
    let mut n_nodes = 0usize;
    for t in 0..n_trees {
        let tree = get_tree(&mut data, t, n_features)?;
        n_nodes += tree.len();
        if n_nodes >= u32::MAX as usize {
            return Err(PredictError::Decode(format!(
                "tree {t}: the forest's {n_nodes} nodes overflow u32 node indices"
            )));
        }
        trees.push(tree);
    }
    let booster = Booster { trees, base_score, objective, n_features };

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
    if data.has_remaining() {
        return Err(PredictError::Decode(format!("{} trailing bytes", data.remaining())));
    }
    Ok(ModelArtifact::from_booster(booster, cuts))
}

/// Truncation guard shared by every section parser.
fn need(data: &[u8], n: usize, what: &str) -> Result<(), PredictError> {
    if data.remaining() < n {
        Err(PredictError::Decode(format!("truncated input while reading {what}")))
    } else {
        Ok(())
    }
}

/// Reject a claimed element count that the bytes actually remaining in
/// the buffer cannot possibly back (`min_bytes` per element), so a
/// corrupt header yields a typed error instead of a huge `with_capacity`
/// allocation (the OOM-abort DoS a 12-byte header used to be able to
/// trigger).
fn check_count(
    data: &[u8],
    count: usize,
    min_bytes: usize,
    what: &str,
) -> Result<(), PredictError> {
    if count > data.remaining() / min_bytes {
        return Err(PredictError::Decode(format!(
            "claimed {what} count {count} exceeds what {} remaining bytes can hold",
            data.remaining()
        )));
    }
    Ok(())
}

fn put_objective(buf: &mut BytesMut, objective: Objective) {
    match objective {
        Objective::SquaredError => buf.put_u8(OBJ_SQUARED),
        Objective::Logistic { scale_pos_weight } => {
            buf.put_u8(OBJ_LOGISTIC);
            buf.put_f64_le(scale_pos_weight);
        }
    }
}

fn get_objective(data: &mut &[u8]) -> Result<Objective, PredictError> {
    need(data, 1, "objective")?;
    match data.get_u8() {
        OBJ_SQUARED => Ok(Objective::SquaredError),
        OBJ_LOGISTIC => {
            need(data, 8, "scale_pos_weight")?;
            Ok(Objective::Logistic { scale_pos_weight: data.get_f64_le() })
        }
        other => Err(PredictError::Decode(format!("unknown objective tag {other}"))),
    }
}

/// Append one tree's record (`u32` node count, then tagged nodes).
fn put_tree(buf: &mut BytesMut, tree: &Tree) {
    buf.put_u32_le(tree.len() as u32);
    for node in tree.nodes() {
        match node {
            Node::Leaf { weight, cover } => {
                buf.put_u8(NODE_LEAF);
                buf.put_f64_le(*weight);
                buf.put_f64_le(*cover);
            }
            Node::Split { feature, threshold, default_left, left, right, cover, gain } => {
                buf.put_u8(NODE_SPLIT);
                buf.put_u32_le(*feature as u32);
                buf.put_f64_le(*threshold);
                buf.put_u8(u8::from(*default_left));
                buf.put_u32_le(*left as u32);
                buf.put_u32_le(*right as u32);
                buf.put_f64_le(*cover);
                buf.put_f64_le(*gain);
            }
        }
    }
}

/// Decode tree `t` of an ensemble, validating node-count plausibility
/// before allocating, then tree shape, feature bounds and depth before
/// returning, so a malformed record is a typed error naming the tree
/// and node — never a compile-time assert or an out-of-bounds read.
fn get_tree(data: &mut &[u8], t: usize, n_features: usize) -> Result<Tree, PredictError> {
    need(data, 4, "tree node count")?;
    let n_nodes = data.get_u32_le() as usize;
    check_count(data, n_nodes, MIN_NODE_BYTES, "node")?;
    let mut tree = Tree::new();
    for _ in 0..n_nodes {
        need(data, 1, "node tag")?;
        match data.get_u8() {
            NODE_LEAF => {
                need(data, 16, "leaf")?;
                let weight = data.get_f64_le();
                let cover = data.get_f64_le();
                tree.push(Node::Leaf { weight, cover });
            }
            NODE_SPLIT => {
                need(data, 4 + 8 + 1 + 4 + 4 + 8 + 8, "split")?;
                let feature = data.get_u32_le() as usize;
                let threshold = data.get_f64_le();
                let default_left = data.get_u8() != 0;
                let left = data.get_u32_le() as usize;
                let right = data.get_u32_le() as usize;
                let cover = data.get_f64_le();
                let gain = data.get_f64_le();
                tree.push(Node::Split {
                    feature,
                    threshold,
                    default_left,
                    left,
                    right,
                    cover,
                    gain,
                });
            }
            other => return Err(PredictError::Decode(format!("unknown node tag {other}"))),
        }
    }
    if let Err(defect) = tree.check_structure(n_features) {
        return Err(PredictError::Decode(format!("tree {t}: {defect}")));
    }
    // The flat forest walks each tree in a fixed `u16` count of hops.
    let depth = tree.depth();
    if depth > usize::from(u16::MAX) {
        return Err(PredictError::Decode(format!(
            "tree {t}: depth {depth} exceeds the flat forest's limit of {}",
            u16::MAX
        )));
    }
    Ok(tree)
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

    /// An exact-method model on two features, regression or binary.
    fn trained_model(binary: bool) -> Booster {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 12) as f64, (i % 5) as f64]).collect();
        let x = Matrix::from_rows(&rows);
        if binary {
            let y: Vec<f64> = rows.iter().map(|r| f64::from(r[0] > 5.0)).collect();
            Booster::train(&Params { n_estimators: 8, ..Params::binary(2.0) }, &x, &y).unwrap()
        } else {
            let y: Vec<f64> = rows.iter().map(|r| r[0] + 0.5 * r[1]).collect();
            Booster::train(&Params { n_estimators: 8, ..Params::regression() }, &x, &y).unwrap()
        }
    }

    /// A model's artifact bytes.
    fn encoded(model: &Booster) -> Vec<u8> {
        ModelArtifact::from_booster(model.clone(), None).encode().to_vec()
    }

    /// Append the FNV trailer a valid artifact ends with.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let checksum = fnv1a_64(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        body
    }

    /// Edit an artifact's body and recompute its trailer, so the
    /// structural checks — not the checksum — must reject the edit.
    fn resealed(mut bytes: Vec<u8>, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        bytes.truncate(bytes.len() - 8);
        edit(&mut bytes);
        sealed(bytes)
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
    fn v2_input_is_rejected_as_unsupported() {
        // Version 2 (the trees plus their compiled flat nodes) is
        // refused the same way, under a valid trailer too.
        let bytes = resealed(encode(&artifact(true)).to_vec(), |body| {
            body[4..6].copy_from_slice(&2u16.to_le_bytes());
        });
        let err = decode(&bytes).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert_eq!(msg, "unsupported version 2");
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

    /// A fresh directory of this process's own in the temp dir, so
    /// concurrent test runs never share a file; the test removes it.
    fn process_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("msaw_gbdt_artifact_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_round_trip() {
        let a = artifact(true);
        let dir = process_dir("file_round_trip");
        let path = dir.join("model.msgb2");
        a.save(&path).unwrap();
        let b = ModelArtifact::load(&path).unwrap();
        assert_eq!(a.booster, b.booster);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_trip_regression_model() {
        let model = trained_model(false);
        let decoded = decode(&encoded(&model)).unwrap();
        assert_eq!(model, decoded.booster);
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let model = trained_model(true);
        let decoded = decode(&encoded(&model)).unwrap();
        let row = vec![3.0, f64::NAN];
        assert_eq!(model.predict_row(&row), decoded.booster.predict_row(&row));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encoded(&trained_model(false));
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(PredictError::Decode(_))));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encoded(&trained_model(false));
        // Chop at several points; every prefix must fail cleanly, also
        // under a recomputed trailer, where the section parsers rather
        // than the checksum must catch the cut.
        let body = &bytes[..bytes.len() - 8];
        for cut in [0, 3, 5, 10, 23, 27, body.len() / 2, body.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
            let err = decode(&sealed(body[..cut].to_vec())).unwrap_err();
            assert!(matches!(err, PredictError::Decode(_)), "resealed prefix of {cut}: {err:?}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let bytes = resealed(encoded(&trained_model(false)), |body| body.push(0));
        let err = decode(&bytes).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("trailing"), "{msg}");
    }

    #[test]
    fn save_load_file_round_trip() {
        let model = trained_model(false);
        let dir = process_dir("save_load_file_round_trip");
        let path = dir.join("model.msgb");
        ModelArtifact::from_booster(model.clone(), None).save(&path).unwrap();
        let loaded = ModelArtifact::load(&path).unwrap();
        assert_eq!(model, loaded.booster);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_a_decode_error() {
        let err = ModelArtifact::load("/nonexistent/path/model.msgb").unwrap_err();
        assert!(matches!(err, PredictError::Decode(_)));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = encoded(&trained_model(false));
        bytes[4] = 99;
        assert!(matches!(decode(&bytes), Err(PredictError::Decode(_))));
    }

    /// Byte offset of the `u32` tree count in a regression-model header:
    /// magic (4) + version (2) + objective tag (1) + base score (8) +
    /// feature count (4).
    const TREE_COUNT_AT: usize = 19;

    #[test]
    fn absurd_tree_count_is_a_typed_error_not_an_allocation() {
        // A corrupt 23-byte header claiming u32::MAX trees used to
        // pre-allocate gigabytes before the first byte was read.
        let bytes = resealed(encoded(&trained_model(false)), |body| {
            body[TREE_COUNT_AT..TREE_COUNT_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let err = decode(&bytes).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("count"), "{msg}");
    }

    #[test]
    fn absurd_node_count_is_a_typed_error_not_an_allocation() {
        // First tree's node count sits right after the header.
        let at = TREE_COUNT_AT + 4;
        let bytes = resealed(encoded(&trained_model(false)), |body| {
            body[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let err = decode(&bytes).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("count"), "{msg}");
    }

    /// A complete artifact, without cuts, for a booster whose single
    /// tree is written unvalidated under a valid checksum — the defects
    /// a corrupted file could carry.
    fn with_tree(tree: Tree, n_features: usize) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(MAGIC);
        buf.put_u16_le(ARTIFACT_VERSION);
        put_objective(&mut buf, Objective::SquaredError);
        buf.put_f64_le(0.5);
        buf.put_u32_le(n_features as u32);
        buf.put_u32_le(1);
        put_tree(&mut buf, &tree);
        buf.put_u8(0);
        sealed(buf.as_slice().to_vec())
    }

    fn split(feature: usize, left: usize, right: usize) -> Node {
        Node::Split {
            feature,
            threshold: 1.0,
            default_left: true,
            left,
            right,
            cover: 2.0,
            gain: 0.1,
        }
    }

    fn leaf() -> Node {
        Node::Leaf { weight: 0.25, cover: 1.0 }
    }

    #[test]
    fn split_feature_out_of_range_is_rejected_at_decode() {
        // feature 7 on a 2-feature model: used to decode cleanly, then
        // read out of bounds (or panic) at predict time.
        let mut tree = Tree::new();
        tree.push(split(7, 1, 2));
        tree.push(leaf());
        tree.push(leaf());
        let err = decode(&with_tree(tree, 2)).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(
            msg.contains("tree 0") && msg.contains("node 0") && msg.contains("feature 7"),
            "{msg}"
        );
    }

    #[test]
    fn child_index_out_of_range_is_rejected_at_decode() {
        let mut tree = Tree::new();
        tree.push(split(0, 1, 5));
        tree.push(leaf());
        tree.push(leaf());
        let err = decode(&with_tree(tree, 2)).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("tree 0") && msg.contains("child index 5"), "{msg}");
    }

    #[test]
    fn cyclic_tree_is_rejected_at_decode() {
        // Root's left child points back at the root: an infinite
        // predict-time loop had this decoded.
        let mut tree = Tree::new();
        tree.push(split(0, 0, 1));
        tree.push(leaf());
        let err = decode(&with_tree(tree, 2)).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("tree 0") && msg.contains("more than one parent"), "{msg}");
    }

    /// A right-leaning chain `depth` splits deep on feature 0: split
    /// `d` sends `x < d` left to a leaf weighing `d`, so a row of value
    /// `x` stops at split `⌈x⌉` and rows past every threshold reach the
    /// deepest leaf.
    fn chain(depth: usize) -> Tree {
        let mut tree = Tree::new();
        for d in 0..depth {
            tree.push(Node::Split {
                feature: 0,
                threshold: d as f64,
                default_left: d % 2 == 1,
                left: 2 * d + 1,
                right: 2 * d + 2,
                cover: 1.0,
                gain: 0.0,
            });
            tree.push(Node::Leaf { weight: d as f64 * 1e-3, cover: 1.0 });
        }
        tree.push(Node::Leaf { weight: -1.0, cover: 1.0 });
        tree
    }

    #[test]
    fn a_tree_deeper_than_the_flat_forest_allows_is_a_decode_error() {
        let err = decode(&with_tree(chain(usize::from(u16::MAX) + 1), 1)).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("tree 0") && msg.contains("depth 65536"), "{msg}");
    }

    #[test]
    fn the_deepest_tree_the_flat_forest_allows_decodes_and_predicts_like_its_booster() {
        let bytes = with_tree(chain(usize::from(u16::MAX)), 1);
        let loaded = decode(&bytes).unwrap();
        assert_eq!(loaded.forest.n_nodes(), 2 * usize::from(u16::MAX) + 1);
        assert_eq!(encode(&loaded).to_vec(), bytes, "encode → decode → encode");
        let values = [-1.0, 0.0, 2.5, 3.0, 40_000.5, 65_534.0, 65_535.0, 1e9, f64::NAN];
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![values[i % values.len()]]).collect();
        let x = Matrix::from_rows(&rows);
        let batch = loaded.forest.predict_batch(&x);
        for (row, got) in rows.iter().zip(&batch) {
            let want = loaded.booster.predict_row(row);
            assert_eq!(want.to_bits(), got.to_bits(), "row {row:?}");
            assert_eq!(want.to_bits(), loaded.forest.predict_row(row).to_bits(), "row {row:?}");
        }
    }
}
