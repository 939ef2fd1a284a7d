//! Adversarial-input contract for the pass-1 rank file: a spilled
//! [`RankStore`] whose file is truncated at any offset, or has any one
//! byte flipped, fails pass 2 with a typed `ChunkError::Corrupt` —
//! never a panic, and never a matrix of wrong codes. A clean file
//! remaps to exactly `encode_rows`' codes, and no rank file outlives
//! its store.

use msaw_gbdt::{
    encode_rows, fnv1a_64, ChunkError, ChunkedMatrix, ChunkedMatrixBuilder, CutSketch, RankStore,
    RankedChunk,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const NCOLS: usize = 3;

/// Two small chunks with missing values, both zeros, infinities and
/// duplicates.
fn chunks() -> [Vec<f64>; 2] {
    let nan = f64::NAN;
    [
        vec![1.5, nan, 0.0, -0.0, 2.0, 7.0, 1.5, 2.0, nan, f64::INFINITY, -3.0, 7.0],
        vec![nan, 4.0, -0.0, 0.25, 4.0, f64::NEG_INFINITY, 0.25, nan, 9.5],
    ]
}

fn cuts() -> Vec<Vec<f64>> {
    let mut sketch = CutSketch::new(NCOLS);
    for rows in chunks() {
        sketch.update(&rows);
    }
    sketch.cuts(4)
}

fn spill_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msaw_rank_fuzz_{}_{tag}.mscb", std::process::id()))
}

/// Push both chunks to the rank file beside `spill`, let `edit` rewrite
/// that file, then remap it. Asserts the file is gone once the store is.
fn remap_after(spill: &Path, edit: impl FnOnce(&Path)) -> Result<ChunkedMatrix, ChunkError> {
    let mut store = RankStore::beside(spill, NCOLS).unwrap();
    for rows in chunks() {
        store.push(RankedChunk::build(&rows, NCOLS)).unwrap();
    }
    let ranks = RankStore::path_beside(spill);
    edit(&ranks);
    let mut builder = ChunkedMatrixBuilder::in_memory(cuts(), 64);
    let out = catch_unwind(AssertUnwindSafe(|| store.remap_into(&mut builder)))
        .unwrap_or_else(|_| panic!("remap panicked"));
    assert!(!ranks.exists(), "the rank file outlived its store");
    out?;
    builder.finish()
}

fn clean_bytes(spill: &Path) -> Vec<u8> {
    let mut bytes = Vec::new();
    remap_after(spill, |p| bytes = std::fs::read(p).unwrap()).unwrap();
    bytes
}

/// Assert `got` is a corrupt rank record whose detail names `why`.
fn assert_corrupt(got: Result<ChunkedMatrix, ChunkError>, case: &str, why: &str) {
    match got {
        Err(ChunkError::Corrupt { what: "rank record", detail }) if detail.contains(why) => {}
        other => panic!("{case}: expected a corrupt rank record ({why}), got {other:?}"),
    }
}

#[test]
fn a_clean_rank_file_remaps_to_encode_rows() {
    let matrix = remap_after(&spill_path("clean"), |_| {}).unwrap();
    let cuts = cuts();
    let want: Vec<u16> = chunks().iter().flat_map(|rows| encode_rows(&cuts, rows)).collect();
    assert_eq!(matrix.nrows() * NCOLS, want.len());
    for (i, row) in want.chunks_exact(NCOLS).enumerate() {
        for (j, &code) in row.iter().enumerate() {
            let missing = cuts[j].len() as u16 + 1;
            assert_eq!(matrix.bin(i, j).unwrap_or(missing), code, "row {i} feature {j}");
        }
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let spill = spill_path("truncate");
    let clean = clean_bytes(&spill);
    for len in 0..clean.len() {
        let got = remap_after(&spill, |p| std::fs::write(p, &clean[..len]).unwrap());
        assert_corrupt(got, &format!("truncated to {len} of {} bytes", clean.len()), "truncated");
    }
}

#[test]
fn every_flipped_byte_is_a_typed_error() {
    let spill = spill_path("flip");
    let clean = clean_bytes(&spill);
    for at in 0..clean.len() {
        let mut bad = clean.clone();
        bad[at] ^= 0xff;
        let got = remap_after(&spill, |p| std::fs::write(p, &bad).unwrap());
        assert_corrupt(got, &format!("byte {at} flipped"), "length or checksum");
    }
}

/// Damage inside the first record with its checksum recomputed, so the
/// structural checks — not the checksum — must reject it: a rank past
/// its feature's value table, and a slab count the payload cannot hold.
#[test]
fn resealed_structural_damage_is_a_typed_error() {
    let spill = spill_path("reseal");
    let clean = clean_bytes(&spill);
    let len = u64::from_le_bytes(clean[..8].try_into().unwrap()) as usize;
    let resealed = |edit: &dyn Fn(&mut [u8])| {
        let mut bad = clean.clone();
        edit(&mut bad[8..8 + len]);
        let sum = fnv1a_64(&bad[8..8 + len]);
        bad[8 + len..16 + len].copy_from_slice(&sum.to_le_bytes());
        bad
    };
    // The payload ends with the last row's ranks; the last one is 7.0's.
    let rank_past_table = resealed(&|payload| {
        let n = payload.len();
        payload[n - 2..].copy_from_slice(&0x7777u16.to_le_bytes());
    });
    let too_many_slabs = resealed(&|payload| payload[..4].copy_from_slice(&2u32.to_le_bytes()));
    for (case, bad, why) in [
        ("rank past table", rank_past_table, "past feature 2's values"),
        ("slab count", too_many_slabs, "overrun the payload"),
    ] {
        assert_corrupt(remap_after(&spill, |p| std::fs::write(p, &bad).unwrap()), case, why);
    }
}
