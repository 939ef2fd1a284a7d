//! Bit-level fingerprints of in-memory histogram fits.
//!
//! Each case trains through the public `Booster` entry points and
//! hashes (FNV-1a) the encoded `ModelArtifact` bytes followed by the
//! bits of every loss-history entry. The constants below pin every
//! split, threshold, leaf weight and per-round loss of the histogram
//! learner across both objectives, row subsampling {1, 0.9, 0.5},
//! column subsampling {1, 0.8} and bin budgets {16, 256}, plus one
//! eval-set early-stopping fit and one fit over a shuffled row view of
//! a shared `TrainingContext`. A change to the grower is allowed only
//! if every constant stays put.

use msaw_gbdt::{
    fnv1a_64, Booster, EvalRecord, ModelArtifact, Params, TrainingContext, TreeMethod,
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

/// FNV-1a over the artifact bytes, then every history entry's bits.
fn fingerprint(booster: Booster, history: &[EvalRecord]) -> u64 {
    let mut bytes = ModelArtifact::from_booster(booster, None).encode().to_vec();
    for rec in history {
        bytes.extend_from_slice(&(rec.round as u64).to_le_bytes());
        bytes.extend_from_slice(&rec.train_loss.to_bits().to_le_bytes());
        bytes.extend_from_slice(&rec.eval_loss.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    }
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

/// Recorded before the recursive histogram grower was replaced by the
/// level-wise one; the replacement reproduces every constant.
const EXPECTED: &[(&str, u64)] = &[
    ("squared sub=1 col=1 bins=16", 0x1f35f5e93ae3d770),
    ("squared sub=1 col=1 bins=256", 0xe6cd045eb8118e8c),
    ("squared sub=1 col=0.8 bins=16", 0x100f113b3cd66870),
    ("squared sub=1 col=0.8 bins=256", 0xc57e4a2612b91030),
    ("squared sub=0.9 col=1 bins=16", 0x82e31799c5fd4c8b),
    ("squared sub=0.9 col=1 bins=256", 0xd6330bcba6b01fe6),
    ("squared sub=0.9 col=0.8 bins=16", 0xac35992667d5030e),
    ("squared sub=0.9 col=0.8 bins=256", 0x5793313aa9c1c5e8),
    ("squared sub=0.5 col=1 bins=16", 0x87b63648db4bbe18),
    ("squared sub=0.5 col=1 bins=256", 0x6306b8fa78cd70da),
    ("squared sub=0.5 col=0.8 bins=16", 0x776319f0750af6f4),
    ("squared sub=0.5 col=0.8 bins=256", 0x2054315c22af011a),
    ("logistic sub=1 col=1 bins=16", 0xda01772ea1d2b00c),
    ("logistic sub=1 col=1 bins=256", 0x5a13f8646149fc6b),
    ("logistic sub=1 col=0.8 bins=16", 0xe050368923131373),
    ("logistic sub=1 col=0.8 bins=256", 0xa3966f29b2d33c52),
    ("logistic sub=0.9 col=1 bins=16", 0xb5887fcb99e786ab),
    ("logistic sub=0.9 col=1 bins=256", 0x1dbdf12a662fe24c),
    ("logistic sub=0.9 col=0.8 bins=16", 0x566b569a297902b2),
    ("logistic sub=0.9 col=0.8 bins=256", 0x4b9592f51fe782fd),
    ("logistic sub=0.5 col=1 bins=16", 0xd90db89587857a32),
    ("logistic sub=0.5 col=1 bins=256", 0xaedb2da2d029f901),
    ("logistic sub=0.5 col=0.8 bins=16", 0x0373db73e00691b5),
    ("logistic sub=0.5 col=0.8 bins=256", 0xed2c3a14a3b8c4c1),
    ("early stopping", 0x1d9b3c9d284fb690),
    ("shuffled row view", 0xbf2884e8c311906a),
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
