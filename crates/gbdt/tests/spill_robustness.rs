//! Adversarial-input contract for the spill reader: **no corrupted or
//! truncated spill file may open and train as if it were whole, and none
//! may panic the reader**. Every strict prefix of a sealed spill file,
//! and every byte XORed with 0x01, 0x80 and 0xff, must be refused with
//! [`ChunkError::Corrupt`], either by [`ChunkedMatrix::open`] (header,
//! cut table, file length) or by the first [`train_chunked`] pass, whose
//! first load of each block checks its row count and checksum. A strict
//! prefix must be refused by `open`. Two
//! spills are fuzzed: a three-block file, which trains through the
//! prefetching reader, and a one-block file, which takes the serial
//! loader.

use msaw_gbdt::{
    encode_rows, train_chunked, ChunkError, ChunkedMatrix, ChunkedMatrixBuilder, CutSketch, Params,
    TreeMethod,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const NROWS: usize = 10;
const NCOLS: usize = 3;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msaw_spill_fuzz_{}_{tag}.mscb", std::process::id()))
}

/// The bytes of a sealed spill of 10 rows × 3 features, every value
/// distinct within its column (so each feature gets 7 cuts at 8 bins),
/// with one missing cell, in blocks of `block_rows` rows.
fn sealed_spill(block_rows: usize, path: &Path) -> Vec<u8> {
    let rows: Vec<f64> = (0..NROWS * NCOLS)
        .map(|k| if k == 7 { f64::NAN } else { ((k * 7) % 31) as f64 * 0.5 - (k % NCOLS) as f64 })
        .collect();
    let mut sketch = CutSketch::new(NCOLS);
    sketch.update(&rows);
    let mut builder = ChunkedMatrixBuilder::spilled(sketch.cuts(8), block_rows, path).unwrap();
    builder.push_encoded(&encode_rows(builder.cuts(), &rows)).unwrap();
    let matrix = builder.finish().unwrap();
    assert_eq!(matrix.n_blocks(), NROWS.div_ceil(block_rows));
    drop(matrix);
    let bytes = std::fs::read(path).unwrap();
    std::fs::remove_file(path).unwrap();
    bytes
}

/// Where a case was refused.
enum Refused {
    AtOpen,
    AtFit,
}

/// Write `bytes` to `path`, open it and run one fit pass over it. A
/// case that opens and trains, that fails with anything but
/// `ChunkError::Corrupt`, or that panics fails the test naming `case`.
fn refuse(path: &Path, bytes: &[u8], case: &str) -> Refused {
    std::fs::write(path, bytes).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut matrix = match ChunkedMatrix::open(path) {
            Ok(matrix) => matrix,
            Err(ChunkError::Corrupt { .. }) => return Ok(Refused::AtOpen),
            Err(other) => return Err(format!("open failed with {other}")),
        };
        let params = Params {
            n_estimators: 1,
            max_depth: 2,
            tree_method: TreeMethod::Hist { max_bins: 8 },
            ..Params::regression()
        };
        let labels: Vec<f64> = (0..matrix.nrows()).map(|i| i as f64).collect();
        match train_chunked(&params, &mut matrix, &labels, 1) {
            Ok(_) => Err("opened and trained".to_string()),
            Err(ChunkError::Corrupt { .. }) => Ok(Refused::AtFit),
            Err(other) => Err(format!("the fit failed with {other}")),
        }
    }));
    match outcome {
        Ok(Ok(refused)) => refused,
        Ok(Err(failure)) => panic!("{case}: {failure}"),
        Err(_) => panic!("{case}: the reader panicked"),
    }
}

/// Run every prefix and every flip of one spill; returns how many cases
/// were refused at open and how many at the fit.
fn fuzz(block_rows: usize, tag: &str) -> (usize, usize) {
    let path = tmp_path(tag);
    let good = sealed_spill(block_rows, &path);
    let mut tally = (0, 0);
    let mut count = |refused| match refused {
        Refused::AtOpen => tally.0 += 1,
        Refused::AtFit => tally.1 += 1,
    };
    for len in 0..good.len() {
        let case = format!("{tag}: prefix of {len} bytes");
        let refused = refuse(&path, &good[..len], &case);
        assert!(matches!(refused, Refused::AtOpen), "{case}: opened");
        count(refused);
    }
    for at in 0..good.len() {
        for pattern in [0x01u8, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[at] ^= pattern;
            count(refuse(&path, &bad, &format!("{tag}: byte {at} ^ {pattern:#04x}")));
        }
    }
    std::fs::remove_file(&path).unwrap();
    tally
}

#[test]
fn every_prefix_and_byte_flip_of_a_multi_block_spill_is_refused() {
    let (at_open, at_fit) = fuzz(4, "multi");
    // Flips inside the block records pass `open` and must be caught
    // when the prefetching reader first loads their block.
    assert!(at_open > 0 && at_fit > 0, "refused {at_open} at open, {at_fit} at the fit");
}

#[test]
fn every_prefix_and_byte_flip_of_a_one_block_spill_is_refused() {
    let (at_open, at_fit) = fuzz(NROWS, "single");
    assert!(at_open > 0 && at_fit > 0, "refused {at_open} at open, {at_fit} at the fit");
}
