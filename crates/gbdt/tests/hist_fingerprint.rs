//! Bit-level fingerprints of in-memory histogram fits.
//!
//! Each case trains through the public `Booster` entry points and
//! hashes (FNV-1a) a test-local encoding of the model followed by the
//! bits of every loss-history entry. The encoding is this file's own,
//! not the artifact format, so a format change cannot move a constant.
//! The constants below pin every split, threshold, leaf weight and
//! per-round loss of the histogram learner across both objectives, row
//! subsampling {1, 0.9, 0.5}, column subsampling {1, 0.8} and bin
//! budgets {16, 256}, plus one eval-set early-stopping fit and one fit
//! over a shuffled row view of a shared `TrainingContext`. A change to
//! the grower is allowed only if every constant stays put.

use msaw_gbdt::{
    fnv1a_64, Booster, EvalRecord, Node, Objective, Params, TrainingContext, TreeMethod,
};
use msaw_tabular::Matrix;

/// Deterministic features with missing cells: a few low-cardinality
/// columns (exact cuts at any budget) and many high-cardinality ones
/// (thinned at 16 bins), 21 wide so the vector accumulation kernels
/// run full lanes and scalar tails.
fn features(nrows: usize, ncols: usize, salt: u64) -> Matrix {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    let mut cells = Vec::with_capacity(nrows * ncols);
    for i in 0..nrows {
        for j in 0..ncols {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = if state.is_multiple_of(9) {
                f64::NAN
            } else if j % 4 == 0 {
                (state % 5) as f64
            } else {
                ((state >> 12) % 4000) as f64 / 40.0 - (i % 11) as f64 * 0.5
            };
            cells.push(v);
        }
    }
    Matrix::from_vec(cells, nrows, ncols)
}

fn regression_labels(data: &Matrix) -> Vec<f64> {
    data.rows()
        .map(|r| {
            r.iter()
                .enumerate()
                .filter(|(_, v)| !v.is_nan())
                .map(|(j, v)| v * ((j % 5) as f64 - 1.5) * 0.05)
                .sum::<f64>()
        })
        .collect()
}

fn binary_labels(data: &Matrix) -> Vec<f64> {
    let reg = regression_labels(data);
    let mut sorted = reg.clone();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted[sorted.len() * 2 / 3];
    reg.iter().map(|&v| if v > cut { 1.0 } else { 0.0 }).collect()
}

/// FNV-1a over the model, then every history entry's bits. The model
/// goes in as the objective tag and its `scale_pos_weight` bits, the
/// base score, the feature and tree counts, then per tree its node
/// count and every node's tag and field bits, each value a `u64`.
fn fingerprint(booster: Booster, history: &[EvalRecord]) -> u64 {
    let mut words = Vec::new();
    match booster.objective() {
        Objective::SquaredError => words.push(0),
        Objective::Logistic { scale_pos_weight } => words.extend([1, scale_pos_weight.to_bits()]),
    }
    words.push(booster.base_score().to_bits());
    words.extend([booster.n_features() as u64, booster.trees().len() as u64]);
    for tree in booster.trees() {
        words.push(tree.len() as u64);
        for node in tree.nodes() {
            match *node {
                Node::Leaf { weight, cover } => {
                    words.extend([0, weight.to_bits(), cover.to_bits()]);
                }
                Node::Split { feature, threshold, default_left, left, right, cover, gain } => {
                    words.extend([1, feature as u64, threshold.to_bits(), u64::from(default_left)]);
                    words.extend([left as u64, right as u64, cover.to_bits(), gain.to_bits()]);
                }
            }
        }
    }
    for rec in history {
        words.extend([rec.round as u64, rec.train_loss.to_bits()]);
        words.push(rec.eval_loss.map_or(u64::MAX, f64::to_bits));
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a_64(&bytes)
}

fn params(logistic: bool, subsample: f64, colsample: f64, max_bins: u16) -> Params {
    let base = if logistic { Params::binary(2.0) } else { Params::regression() };
    Params {
        n_estimators: 20,
        max_depth: 4,
        subsample,
        colsample_bytree: colsample,
        tree_method: TreeMethod::Hist { max_bins },
        ..base
    }
}

/// Every case's label and fingerprint, in a fixed order.
fn fingerprints() -> Vec<(String, u64)> {
    let data = features(320, 21, 1);
    let mut out = Vec::new();
    for logistic in [false, true] {
        let labels = if logistic { binary_labels(&data) } else { regression_labels(&data) };
        for subsample in [1.0, 0.9, 0.5] {
            for colsample in [1.0, 0.8] {
                for max_bins in [16u16, 256] {
                    let p = params(logistic, subsample, colsample, max_bins);
                    let report = Booster::train_with_eval(&p, &data, &labels, None).unwrap();
                    let objective = if logistic { "logistic" } else { "squared" };
                    out.push((
                        format!("{objective} sub={subsample} col={colsample} bins={max_bins}"),
                        fingerprint(report.booster, &report.history),
                    ));
                }
            }
        }
    }

    // Early stopping against a held-out eval set.
    let eval = features(120, 21, 2);
    let p = Params {
        n_estimators: 200,
        early_stopping_rounds: 3,
        learning_rate: 0.3,
        ..params(false, 0.9, 0.8, 32)
    };
    let report = Booster::train_with_eval(
        &p,
        &data,
        &regression_labels(&data),
        Some((&eval, &regression_labels(&eval))),
    )
    .unwrap();
    assert!(report.booster.trees().len() < p.n_estimators, "early stopping must fire");
    out.push(("early stopping".to_string(), fingerprint(report.booster, &report.history)));

    // A shuffled row view of a shared context, with the parallel
    // accumulation paths switched on.
    let ctx = TrainingContext::with_max_bins(&data, 64);
    let labels = regression_labels(&data);
    let rows: Vec<usize> =
        (0..data.nrows()).map(|i| (i * 97 + 13) % data.nrows()).step_by(2).collect();
    let y: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();
    let p = Params { parallel_split_threshold: 64, ..params(false, 0.9, 0.8, 64) };
    let model = Booster::train_on_rows(&p, &ctx, &rows, &y).unwrap();
    out.push(("shuffled row view".to_string(), fingerprint(model, &[])));
    out
}

/// Recorded on this file's own encoding with the model artifact still
/// at version 2. The histogram grower and the artifact format may
/// change only if every constant stays put.
const EXPECTED: &[(&str, u64)] = &[
    ("squared sub=1 col=1 bins=16", 0xf1c4083c4ff1d1eb),
    ("squared sub=1 col=1 bins=256", 0x34ee1a5bc3484aad),
    ("squared sub=1 col=0.8 bins=16", 0x46d606477e02876a),
    ("squared sub=1 col=0.8 bins=256", 0x7cf21547f011e4b7),
    ("squared sub=0.9 col=1 bins=16", 0x201dd4706af58afa),
    ("squared sub=0.9 col=1 bins=256", 0x4ee97338f93d3e10),
    ("squared sub=0.9 col=0.8 bins=16", 0xd1528e4269ba06b3),
    ("squared sub=0.9 col=0.8 bins=256", 0x6d744a10d29dd304),
    ("squared sub=0.5 col=1 bins=16", 0x3ab96d030de844bd),
    ("squared sub=0.5 col=1 bins=256", 0x2e0278a47cd8a943),
    ("squared sub=0.5 col=0.8 bins=16", 0x36ce520088ff3ae7),
    ("squared sub=0.5 col=0.8 bins=256", 0x0bbb3b4f906bae62),
    ("logistic sub=1 col=1 bins=16", 0xe70abdc47d5da55b),
    ("logistic sub=1 col=1 bins=256", 0x6fe5973395f171fd),
    ("logistic sub=1 col=0.8 bins=16", 0x6968c4be6c985b60),
    ("logistic sub=1 col=0.8 bins=256", 0x22bed8477063d658),
    ("logistic sub=0.9 col=1 bins=16", 0x387d66c98d4e689c),
    ("logistic sub=0.9 col=1 bins=256", 0x9c2979002a1806d1),
    ("logistic sub=0.9 col=0.8 bins=16", 0x2b37388cd962b0ee),
    ("logistic sub=0.9 col=0.8 bins=256", 0x6ed0b0af52e73ffa),
    ("logistic sub=0.5 col=1 bins=16", 0x4bcbbea03e2de948),
    ("logistic sub=0.5 col=1 bins=256", 0x009da5ef5d4b4fa3),
    ("logistic sub=0.5 col=0.8 bins=16", 0xa4527d26e7b8e687),
    ("logistic sub=0.5 col=0.8 bins=256", 0x2802186fc6d73622),
    ("early stopping", 0x79be2f031945d1e8),
    ("shuffled row view", 0x6fdf05819a13967e),
];

#[test]
fn hist_fits_match_their_recorded_fingerprints() {
    let got = fingerprints();
    let table: String =
        got.iter().map(|(label, fp)| format!("    (\"{label}\", {fp:#018x}),\n")).collect();
    assert_eq!(got.len(), EXPECTED.len(), "case count changed; fingerprints now:\n{table}");
    for ((label, fp), (want_label, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(label, want_label, "case order changed; fingerprints now:\n{table}");
        assert_eq!(fp, want, "{label}: fingerprint moved; fingerprints now:\n{table}");
    }
}
