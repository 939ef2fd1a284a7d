//! The booster codec inside the model artifact ([`crate::artifact`]):
//! the objective, base score, counts and tree records it writes after
//! its magic and version.
//!
//! Layout (little endian via `bytes`): objective tag (+payload) ·
//! `f64` base score · `u32` feature count · `u32` tree count ·
//! per tree: `u32` node count · tagged nodes.

use crate::booster::Booster;
use crate::error::PredictError;
use crate::objective::Objective;
use crate::tree::{Node, Tree};
use crate::Result;
use bytes::{Buf, BufMut, BytesMut};

/// The magic every persisted model starts with.
pub(crate) const MAGIC: &[u8; 4] = b"MSGB";

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

/// Truncation guard shared by every decoder in this crate.
pub(crate) fn need(data: &[u8], n: usize, what: &str) -> Result<(), PredictError> {
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
pub(crate) fn check_count(
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

pub(crate) fn put_objective(buf: &mut BytesMut, objective: Objective) {
    match objective {
        Objective::SquaredError => buf.put_u8(OBJ_SQUARED),
        Objective::Logistic { scale_pos_weight } => {
            buf.put_u8(OBJ_LOGISTIC);
            buf.put_f64_le(scale_pos_weight);
        }
    }
}

pub(crate) fn get_objective(data: &mut &[u8]) -> Result<Objective, PredictError> {
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
pub(crate) fn put_tree(buf: &mut BytesMut, tree: &Tree) {
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
/// before allocating and tree shape + feature bounds before returning,
/// so a malformed record is a typed error naming the tree and node —
/// never a later predict-time panic or out-of-bounds read.
pub(crate) fn get_tree(
    data: &mut &[u8],
    t: usize,
    n_features: usize,
) -> Result<Tree, PredictError> {
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
    Ok(tree)
}

/// Decode the booster payload (objective, base score, counts, trees).
///
/// Every count is checked against the bytes actually remaining before
/// any allocation, and every tree is structurally validated (child
/// indices, tree shape, split features against the feature count)
/// before it is accepted — corrupt input is always a typed
/// [`PredictError::Decode`], never a panic, OOM abort, or a model that
/// fails later at predict time.
pub(crate) fn decode_booster_body(data: &mut &[u8]) -> Result<Booster, PredictError> {
    let objective = get_objective(data)?;
    need(data, 16, "base score and counts")?;
    let base_score = data.get_f64_le();
    let n_features = data.get_u32_le() as usize;
    let n_trees = data.get_u32_le() as usize;
    check_count(data, n_trees, MIN_TREE_BYTES, "tree")?;
    let mut trees = Vec::with_capacity(n_trees);
    for t in 0..n_trees {
        trees.push(get_tree(data, t, n_features)?);
    }
    Ok(Booster { trees, base_score, objective, n_features })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{self, fnv1a_64, ModelArtifact, ARTIFACT_VERSION};
    use crate::params::Params;
    use msaw_tabular::Matrix;

    fn trained(objective_binary: bool) -> Booster {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 12) as f64, (i % 5) as f64]).collect();
        let x = Matrix::from_rows(&rows);
        if objective_binary {
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
    fn round_trip_regression_model() {
        let model = trained(false);
        let decoded = artifact::decode(&encoded(&model)).unwrap();
        assert_eq!(model, decoded.booster);
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let model = trained(true);
        let decoded = artifact::decode(&encoded(&model)).unwrap();
        let row = vec![3.0, f64::NAN];
        assert_eq!(model.predict_row(&row), decoded.booster.predict_row(&row));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encoded(&trained(false));
        bytes[0] = b'X';
        assert!(matches!(artifact::decode(&bytes), Err(PredictError::Decode(_))));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encoded(&trained(false));
        // Chop at several points; every prefix must fail cleanly, also
        // under a recomputed trailer, where the section parsers rather
        // than the checksum must catch the cut.
        let body = &bytes[..bytes.len() - 8];
        for cut in [0, 3, 5, 10, 23, 27, body.len() / 2, body.len() - 1] {
            assert!(artifact::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
            let err = artifact::decode(&sealed(body[..cut].to_vec())).unwrap_err();
            assert!(matches!(err, PredictError::Decode(_)), "resealed prefix of {cut}: {err:?}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let bytes = resealed(encoded(&trained(false)), |body| body.push(0));
        let err = artifact::decode(&bytes).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("trailing"), "{msg}");
    }

    #[test]
    fn save_load_file_round_trip() {
        let model = trained(false);
        let dir = std::env::temp_dir().join("msaw_gbdt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.msgb");
        ModelArtifact::from_booster(model.clone(), None).save(&path).unwrap();
        let loaded = ModelArtifact::load(&path).unwrap();
        assert_eq!(model, loaded.booster);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_a_decode_error() {
        let err = ModelArtifact::load("/nonexistent/path/model.msgb").unwrap_err();
        assert!(matches!(err, PredictError::Decode(_)));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = encoded(&trained(false));
        bytes[4] = 99;
        assert!(matches!(artifact::decode(&bytes), Err(PredictError::Decode(_))));
    }

    /// Byte offset of the `u32` tree count in a regression-model header:
    /// magic (4) + version (2) + objective tag (1) + base score (8) +
    /// feature count (4).
    const TREE_COUNT_AT: usize = 19;

    #[test]
    fn absurd_tree_count_is_a_typed_error_not_an_allocation() {
        // A corrupt 23-byte header claiming u32::MAX trees used to
        // pre-allocate gigabytes before the first byte was read.
        let bytes = resealed(encoded(&trained(false)), |body| {
            body[TREE_COUNT_AT..TREE_COUNT_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let err = artifact::decode(&bytes).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("count"), "{msg}");
    }

    #[test]
    fn absurd_node_count_is_a_typed_error_not_an_allocation() {
        // First tree's node count sits right after the header.
        let at = TREE_COUNT_AT + 4;
        let bytes = resealed(encoded(&trained(false)), |body| {
            body[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let err = artifact::decode(&bytes).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("count"), "{msg}");
    }

    /// Artifact bytes for a booster whose single tree is written
    /// unvalidated, under a valid checksum — the defects a corrupted
    /// file could carry. The flat section is left out: the tree
    /// validators must reject the input before it is read.
    fn with_tree(tree: Tree, n_features: usize) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(MAGIC);
        buf.put_u16_le(ARTIFACT_VERSION);
        put_objective(&mut buf, Objective::SquaredError);
        buf.put_f64_le(0.5);
        buf.put_u32_le(n_features as u32);
        buf.put_u32_le(1);
        put_tree(&mut buf, &tree);
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
        let err = artifact::decode(&with_tree(tree, 2)).unwrap_err();
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
        let err = artifact::decode(&with_tree(tree, 2)).unwrap_err();
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
        let err = artifact::decode(&with_tree(tree, 2)).unwrap_err();
        let PredictError::Decode(msg) = err else { panic!("wrong error kind") };
        assert!(msg.contains("tree 0") && msg.contains("more than one parent"), "{msg}");
    }
}
