//! Pass-1 ranks: how the two-pass streaming pipelines bin-encode a
//! chunk without generating it twice.
//!
//! Pass 1 turns each chunk's rows into a [`RankedChunk`]: per feature,
//! the chunk's own sorted distinct values (the set
//! [`CutSketch::update`] builds) and each row's `u16` rank among them.
//! A [`RankStore`] keeps the chunks until the cuts are final; then pass
//! 2 ([`RankStore::remap_into`]) maps each rank through a per-(slab,
//! feature) table of `encode_value(value, cuts)`, with no generation,
//! featurisation or binary search per row. The tables hold the chunk's
//! full distinct values, never a thinned sketch, so the codes equal
//! [`crate::encode_rows`] of the original rows against any cut table.
//! `u16::MAX` is the missing rank, so a slab holds at most 65,535 rows;
//! a longer chunk is split into slabs with their own tables.
//!
//! A chunk is kept as its record payload, in memory and on disk alike
//! (little-endian): `u32` slab count, then per slab `u32` rows,
//! `u32 × ncols` distinct counts, the `f64` values feature by feature
//! and the `u16` ranks row by row. On disk each payload sits between
//! its `u64` length and its `u64` FNV-1a checksum.

use crate::binning::encode_value;
use crate::chunked::RemoveOnDrop;
use crate::error::ChunkError;
use crate::sketch::{column_distinct, merge_distinct};
use crate::{fnv1a_64, ChunkedMatrixBuilder, CutSketch};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Rank of a missing (`NaN`) value.
const MISSING: u16 = u16::MAX;
/// Most rows in one slab: its ranks must stay below [`MISSING`].
const SLAB_ROWS: usize = MISSING as usize;

/// One chunk's rows as `u16` ranks into the chunk's own sorted distinct
/// values per feature — pass 1's output, kept until the cuts are final.
#[derive(Debug, Clone)]
pub struct RankedChunk {
    ncols: usize,
    payload: Vec<u8>,
}

impl RankedChunk {
    /// Rank a row-major chunk of `ncols` features (`rows.len()` must be
    /// a multiple of `ncols`). `NaN`s are missing, as in
    /// [`crate::encode_rows`].
    pub fn build(rows: &[f64], ncols: usize) -> RankedChunk {
        assert!(ncols > 0 && rows.len().is_multiple_of(ncols), "row-major chunk width mismatch");
        let slabs = rows.chunks(SLAB_ROWS * ncols);
        let mut payload = (slabs.len() as u32).to_le_bytes().to_vec();
        let mut scratch = Vec::new();
        for slab in slabs {
            // Exact-size sets and one exact reservation per slab: freed
            // growth steps would linger in the allocator's arenas.
            let sets: Vec<Vec<f64>> = (0..ncols)
                .map(|j| {
                    column_distinct(slab, ncols, j, &mut scratch);
                    scratch.clone()
                })
                .collect();
            let n_values: usize = sets.iter().map(Vec::len).sum();
            payload.reserve_exact(4 + 4 * ncols + 8 * n_values + 2 * slab.len());
            payload.extend(((slab.len() / ncols) as u32).to_le_bytes());
            for values in &sets {
                payload.extend((values.len() as u32).to_le_bytes());
            }
            for v in sets.iter().flatten() {
                payload.extend(v.to_le_bytes());
            }
            let start = payload.len();
            payload.resize(start + 2 * slab.len(), 0);
            let out_rows = payload[start..].chunks_exact_mut(2 * ncols);
            for (row, out) in slab.chunks_exact(ncols).zip(out_rows) {
                for ((v, values), out) in row.iter().zip(&sets).zip(out.chunks_exact_mut(2)) {
                    let rank =
                        if v.is_nan() { MISSING } else { values.partition_point(|d| d < v) as u16 };
                    out.copy_from_slice(&rank.to_le_bytes());
                }
            }
        }
        RankedChunk { ncols, payload }
    }
}

impl CutSketch {
    /// Absorb a ranked chunk exactly as [`CutSketch::merge`] absorbs a
    /// fresh sketch [`CutSketch::update`]d with the rows the chunk was
    /// ranked from, exact or thinned, without building that sketch.
    pub fn merge_ranked(&mut self, chunk: &RankedChunk) {
        // The slabs' sets, merged in row order: the chunk's own set.
        let mut distinct = vec![Vec::new(); chunk.ncols];
        let (mut payload, mut offsets) = (Payload(&chunk.payload), Vec::new());
        for _ in 0..payload.u32().expect("a built chunk parses") {
            let (values, _) =
                payload.slab(chunk.ncols, &mut offsets).expect("a built chunk parses");
            for (j, all) in distinct.iter_mut().enumerate() {
                let set: Vec<f64> = f64s(&values[8 * offsets[j]..8 * offsets[j + 1]]).collect();
                *all = if all.is_empty() { set } else { merge_distinct(all, &set) };
            }
        }
        self.merge_chunk(&distinct);
    }
}

/// Where pass 1 keeps its [`RankedChunk`]s until the cuts are final:
/// in memory, or in a rank file ([`RankStore::path_beside`] a spill
/// file) that is removed when the store drops, on every exit path.
#[derive(Debug)]
pub struct RankStore {
    ncols: usize,
    records: Records,
}

#[derive(Debug)]
enum Records {
    Memory(Vec<Vec<u8>>),
    Disk(RankFile),
}

/// The rank file and the payload length of every record in it; the
/// file is removed when the store drops.
#[derive(Debug)]
struct RankFile {
    file: File,
    _path: RemoveOnDrop,
    lens: Vec<usize>,
}

impl RankStore {
    /// A store that keeps its chunks in memory.
    pub fn in_memory(ncols: usize) -> RankStore {
        RankStore { ncols, records: Records::Memory(Vec::new()) }
    }

    /// A store that writes its chunks to the rank file beside
    /// `spill_path`, truncating any file already there.
    pub fn beside(spill_path: &Path, ncols: usize) -> Result<RankStore, ChunkError> {
        let path = RankStore::path_beside(spill_path);
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        let _path = RemoveOnDrop::new(&path);
        Ok(RankStore { ncols, records: Records::Disk(RankFile { file, _path, lens: Vec::new() }) })
    }

    /// The rank file of a spill file: its path with `.ranks` appended.
    pub fn path_beside(spill_path: &Path) -> PathBuf {
        let mut path = spill_path.as_os_str().to_owned();
        path.push(".ranks");
        PathBuf::from(path)
    }

    /// Append a chunk; chunks are remapped in push order.
    pub fn push(&mut self, chunk: RankedChunk) -> Result<(), ChunkError> {
        assert_eq!(chunk.ncols, self.ncols, "ranked chunk width mismatch");
        match &mut self.records {
            Records::Memory(records) => records.push(chunk.payload),
            Records::Disk(rank_file) => {
                let payload = &chunk.payload;
                rank_file.file.write_all(&(payload.len() as u64).to_le_bytes())?;
                rank_file.file.write_all(payload)?;
                rank_file.file.write_all(&fnv1a_64(payload).to_le_bytes())?;
                rank_file.lens.push(payload.len());
            }
        }
        Ok(())
    }

    /// Pass 2: remap every stored chunk, in push order, against the
    /// builder's cuts and append the codes with
    /// [`ChunkedMatrixBuilder::push_encoded`]. The codes equal
    /// [`crate::encode_rows`] of the rows each chunk was built from. A
    /// rank record that is truncated, or fails its checksum or its
    /// structure, is a `ChunkError::Corrupt`.
    pub fn remap_into(self, builder: &mut ChunkedMatrixBuilder) -> Result<(), ChunkError> {
        let cuts = builder.cuts().to_vec();
        assert_eq!(cuts.len(), self.ncols, "builder width mismatch");
        let missing: Vec<u16> = cuts.iter().map(|c| encode_value(f64::NAN, c)).collect();
        let (mut offsets, mut table, mut codes) = (Vec::new(), Vec::new(), Vec::new());
        let mut remap = |payload: &[u8]| -> Result<(), ChunkError> {
            let mut payload = Payload(payload);
            for _ in 0..payload.u32()? {
                let (values, ranks) = payload.slab(cuts.len(), &mut offsets)?;
                table.clear();
                for (j, cuts) in cuts.iter().enumerate() {
                    let values = f64s(&values[8 * offsets[j]..8 * offsets[j + 1]]);
                    table.extend(values.map(|v| encode_value(v, cuts)));
                }
                codes.clear();
                codes.reserve_exact(ranks.len() / 2);
                for row in ranks.chunks_exact(2 * cuts.len()) {
                    for (j, rank) in row.chunks_exact(2).enumerate() {
                        let rank = u16::from_le_bytes([rank[0], rank[1]]);
                        let at = offsets[j] + rank as usize;
                        codes.push(match rank {
                            MISSING => missing[j],
                            _ if at < offsets[j + 1] => table[at],
                            _ => {
                                return Err(corrupt(format!(
                                    "rank {rank} past feature {j}'s values"
                                )))
                            }
                        });
                    }
                }
                builder.push_encoded(&codes)?;
            }
            match payload.0.len() {
                0 => Ok(()),
                n => Err(corrupt(format!("{n} bytes past the last slab"))),
            }
        };
        match self.records {
            // Each record is dropped once remapped, so the ranks shrink
            // as the codes grow.
            Records::Memory(records) => records.into_iter().try_for_each(|payload| remap(&payload)),
            Records::Disk(mut rank_file) => {
                rank_file.file.seek(SeekFrom::Start(0))?;
                let mut buf = Vec::with_capacity(rank_file.lens.iter().max().map_or(0, |n| n + 16));
                for (k, &len) in rank_file.lens.iter().enumerate() {
                    buf.resize(len + 16, 0);
                    rank_file.file.read_exact(&mut buf).map_err(|e| match e.kind() {
                        ErrorKind::UnexpectedEof => corrupt(format!("record {k} is truncated")),
                        _ => ChunkError::Io(e),
                    })?;
                    let word = |at: usize| {
                        u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte slice"))
                    };
                    if word(0) != len as u64 || word(len + 8) != fnv1a_64(&buf[8..len + 8]) {
                        return Err(corrupt(format!("record {k} fails its length or checksum")));
                    }
                    remap(&buf[8..len + 8])?;
                }
                Ok(())
            }
        }
    }
}

/// Bounds-checked reads over a record payload.
struct Payload<'a>(&'a [u8]);

impl<'a> Payload<'a> {
    /// The next `count` items of `width` bytes.
    fn take(&mut self, count: usize, width: usize) -> Result<&'a [u8], ChunkError> {
        let n = count.checked_mul(width).filter(|&n| n <= self.0.len());
        let n = n.ok_or_else(|| corrupt(format!("{count} × {width} bytes overrun the payload")))?;
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<usize, ChunkError> {
        Ok(u32::from_le_bytes(self.take(1, 4)?.try_into().expect("4-byte slice")) as usize)
    }

    /// The next slab: its value bytes and rank bytes, with feature `j`'s
    /// values at `offsets[j]..offsets[j + 1]`.
    fn slab(
        &mut self,
        ncols: usize,
        offsets: &mut Vec<usize>,
    ) -> Result<(&'a [u8], &'a [u8]), ChunkError> {
        let nrows = self.u32()?;
        offsets.clear();
        offsets.push(0);
        for j in 0..ncols {
            offsets.push(offsets[j] + self.u32()?);
        }
        Ok((self.take(offsets[ncols], 8)?, self.take(nrows, 2 * ncols)?))
    }
}

/// Little-endian `f64`s of a value run.
fn f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
}

fn corrupt(detail: String) -> ChunkError {
    ChunkError::Corrupt { what: "rank record", detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_rows, ChunkedMatrix, DEFAULT_SKETCH_DISTINCT};
    use proptest::prelude::*;

    /// Codes of `chunks` remapped through a store (in memory, or a rank
    /// file beside `spill`) against `cuts`.
    fn remapped(chunks: &[&[f64]], cuts: &[Vec<f64>], spill: Option<&Path>) -> ChunkedMatrix {
        let ncols = cuts.len();
        let mut store = match spill {
            Some(path) => RankStore::beside(path, ncols).unwrap(),
            None => RankStore::in_memory(ncols),
        };
        for rows in chunks {
            store.push(RankedChunk::build(rows, ncols)).unwrap();
        }
        let mut builder = ChunkedMatrixBuilder::in_memory(cuts.to_vec(), 1 << 20);
        store.remap_into(&mut builder).unwrap();
        builder.finish().unwrap()
    }

    fn assert_codes_equal(got: &ChunkedMatrix, rows: &[f64], cuts: &[Vec<f64>]) {
        let want = encode_rows(cuts, rows);
        assert_eq!(got.nrows() * cuts.len(), want.len());
        for (i, row) in want.chunks_exact(cuts.len()).enumerate() {
            for (j, &code) in row.iter().enumerate() {
                let missing = cuts[j].len() as u16 + 1;
                assert_eq!(got.bin(i, j).unwrap_or(missing), code, "row {i} feature {j}");
            }
        }
    }

    /// Values drawn with every edge the encoder distinguishes: NaN,
    /// both zeros, both infinities and many duplicates.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (-8i32..8).prop_map(|k| k as f64 * 0.5),
            -1.0e3..1.0e3f64,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The remap equals `encode_rows` for any strictly ascending
        /// finite cut table: tables fitted to the chunks themselves, to
        /// other rows, and arbitrary ones.
        #[test]
        fn remap_equals_encode_rows(
            ncols in 1usize..4,
            cells in proptest::collection::vec(value(), 0..240),
            other in proptest::collection::vec(value(), 3..120),
            arbitrary in proptest::collection::vec(-1.0e3..1.0e3f64, 0..20),
            split in 0usize..80,
            max_bins in 2u16..40,
        ) {
            let rows = &cells[..cells.len() - cells.len() % ncols];
            let other = &other[..other.len() - other.len() % ncols];
            let split = split.min(rows.len() / ncols) * ncols;
            let chunks = [&rows[..split], &rows[split..]];
            let mut own = CutSketch::new(ncols);
            own.update(rows);
            let mut foreign = CutSketch::new(ncols);
            foreign.update(other);
            let mut fixed = arbitrary.clone();
            fixed.sort_by(|a, b| a.partial_cmp(b).unwrap());
            fixed.dedup();
            for cuts in [own.cuts(max_bins), foreign.cuts(max_bins), vec![fixed; ncols]] {
                assert_codes_equal(&remapped(&chunks, &cuts, None), rows, &cuts);
            }
        }

        /// Merging ranked chunks gives the cuts of merging fresh
        /// per-chunk sketches, exact or thinned.
        #[test]
        fn merge_ranked_equals_merging_chunk_sketches(
            cells in proptest::collection::vec(value(), 0..400),
            chunk_rows in 1usize..90,
            capacity in prop_oneof![Just(2usize), Just(5), Just(64), Just(DEFAULT_SKETCH_DISTINCT)],
        ) {
            let ncols = 2;
            let rows = &cells[..cells.len() - cells.len() % ncols];
            let mut ranked = CutSketch::with_capacity(ncols, capacity);
            let mut merged = CutSketch::with_capacity(ncols, capacity);
            for chunk in rows.chunks(chunk_rows * ncols) {
                ranked.merge_ranked(&RankedChunk::build(chunk, ncols));
                let mut part = CutSketch::with_capacity(ncols, capacity);
                part.update(chunk);
                merged.merge(&part);
            }
            prop_assert_eq!(ranked.is_exact(), merged.is_exact());
            for (a, b) in ranked.cuts(32).iter().zip(&merged.cuts(32)) {
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(a), bits(b));
            }
        }
    }

    /// A chunk longer than one slab splits, each slab ranks into its own
    /// tables, and the remap still equals `encode_rows` — also through a
    /// rank file, and in the thinned sketch regime.
    #[test]
    fn a_long_chunk_splits_into_slabs_and_remaps_exactly() {
        let rows: Vec<f64> = (0..70_000).map(|i| (i as f64 * 0.37).sin() * 1e4).collect();
        let chunk = RankedChunk::build(&rows, 1);
        let mut payload = Payload(&chunk.payload);
        assert_eq!(payload.u32().unwrap(), 2, "two slabs");
        let (values, _) = payload.slab(1, &mut Vec::new()).unwrap();
        assert_eq!(values.len(), 8 * SLAB_ROWS, "the first slab is full and all-distinct");
        for capacity in [64, DEFAULT_SKETCH_DISTINCT, 1 << 17] {
            let mut sketch = CutSketch::with_capacity(1, capacity);
            sketch.merge_ranked(&chunk);
            let mut reference = CutSketch::with_capacity(1, capacity);
            reference.update(&rows);
            assert_eq!(sketch.is_exact(), capacity > 70_000);
            let cuts = sketch.cuts(256);
            assert_eq!(cuts, reference.cuts(256));
            assert_codes_equal(&remapped(&[&rows[..]], &cuts, None), &rows, &cuts);
            let spill = std::env::temp_dir()
                .join(format!("msaw_ranks_slabs_{}_{capacity}.mscb", std::process::id()));
            assert_codes_equal(&remapped(&[&rows[..]], &cuts, Some(&spill)), &rows, &cuts);
            assert!(!RankStore::path_beside(&spill).exists(), "the rank file outlived its store");
        }
    }
}
