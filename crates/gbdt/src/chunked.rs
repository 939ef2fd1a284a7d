//! Histogram training over a chunked binned matrix — the crate's one
//! histogram grower.
//!
//! A [`ChunkedMatrix`] holds row-major `u16` bin codes cut into
//! fixed-size row blocks, kept in memory or spilled to a checksummed
//! on-disk file. In-memory fits ([`crate::Booster::train`] with
//! [`crate::TreeMethod::Hist`], [`crate::Booster::train_on_rows`]) bin
//! through a one-block matrix ([`ChunkedMatrix::fit`]); out-of-core fits
//! ([`train_chunked`]) stream many. Either way [`crate::FitRun`] drives
//! the boosting loop and grows each tree level by level here, streaming
//! the blocks through the root, partition and histogram-accumulation
//! passes. Peak working memory is one block of codes plus the
//! per-position state boosting needs anyway (`raw`/`grad`/`hess`/
//! `node_of`), independent of how many blocks the dataset spans.
//!
//! # Accumulation order and bit identity
//!
//! Each round draws its row and column samples in `FitRun`'s RNG order.
//! The passes then visit each block's sampled positions in sample order,
//! blocks ascending; at `subsample == 1` that is ascending position
//! order. Every `(node, feature, bin)` cell therefore receives its IEEE
//! additions in visit order whatever the worker count or store kind:
//! workers own disjoint nodes or disjoint feature ranges, never a share
//! of one cell, and the AVX2 accumulation kernel (which AVX-512 hosts
//! run too) only widens slot-index arithmetic. The models follow:
//!
//! * **One block** (every in-memory fit): the visit order *is* the
//!   sample order, the order in which a recursive grower walking each
//!   node's sampled row list adds. A one-block fit keeps the bits of
//!   the recursive histogram grower this module replaced at any
//!   `subsample` and `colsample_bytree` — pinned by
//!   `tests/hist_fingerprint.rs` and the hist grid snapshot.
//! * **Many blocks, `subsample == 1`**: ascending in both, so any block
//!   size trains the one-block model (`tests/chunked_equivalence.rs`).
//! * **Many blocks, `subsample < 1`**: the per-cell order is block-major
//!   — deterministic at any worker count and store kind, but not the
//!   one-block order.
//!
//! The remaining invariants:
//!
//! * **Cuts** — [`CutSketch`] merges per-chunk sorted distinct values;
//!   below its capacity the merged set *is* the column's distinct set,
//!   so `cuts_from_distinct` sees the input [`ChunkedMatrix::fit`]
//!   does.
//! * **Splits** — each node scans the round's features in draw order
//!   with `scan_hist` and one `BestTracker`; leaves and the smaller
//!   child are decided on sampled-position counts.
//! * **Unsampled positions** — the partition pass routes them by code
//!   too (`code <= boundary` is exactly `v < threshold` for a cut-valued
//!   threshold), and they add `0.0 + w`, what a flat-forest walk of
//!   their raw values adds.
//! * **Tree shape** — the arena is emitted in DFS pre-order (parent,
//!   left subtree, right subtree).

use crate::binning::{
    bump_column_fit_count, bump_fit_count, cuts_from_distinct, distinct_values, encode_value,
};
use crate::booster::{Booster, FitRun, TrainReport};
use crate::engine::TreeScratch;
use crate::error::{ChunkError, TrainError};
use crate::fnv1a_64;
use crate::params::Params;
use crate::simd::SimdLevel;
use crate::split::{scan_hist, BestTracker, SplitCandidate, SplitConfig};
use crate::tree::Node;
use msaw_tabular::Matrix;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Default rows per block: 16 Ki rows of 59 features ≈ 1.9 MiB of
/// codes, big enough to amortise per-block overhead, small enough that
/// a handful of blocks fit in cache-friendly working memory.
pub const DEFAULT_BLOCK_ROWS: usize = 16 * 1024;

/// Default per-feature capacity of the [`CutSketch`]: below this many
/// distinct values the sketch is exact and the resulting cuts are
/// byte-identical to [`ChunkedMatrix::fit`] on the materialised matrix.
pub const DEFAULT_SKETCH_DISTINCT: usize = 1 << 16;

/// Magic tag of the spilled chunk file format.
const MAGIC: &[u8; 4] = b"MSCB";
/// Spill format version.
const VERSION: u16 = 1;
/// Upper bound on per-feature cut counts accepted from a spill header:
/// a feature's missing code is `cuts + 1`, which must fit in a `u16`.
/// `max_bins − 1` cuts never exceed it.
const MAX_CUTS_PER_FEATURE: usize = u16::MAX as usize - 1;

// ---------------------------------------------------------------------
// Cut sketch
// ---------------------------------------------------------------------

/// Streaming per-feature distinct-value accumulator: feed row-major
/// chunks in any sizes, then derive quantile cuts. Exact (and therefore
/// bit-identical to the in-memory fit) while a column's distinct count
/// stays within `capacity`; beyond it the sorted set is thinned to
/// evenly spaced ranks, which keeps memory bounded at population scale
/// at the cost of approximate (still deterministic) cuts.
#[derive(Debug, Clone)]
pub struct CutSketch {
    capacity: usize,
    cols: Vec<Vec<f64>>,
    /// Per-column flag: set once thinning has discarded distinct values.
    thinned: Vec<bool>,
}

impl CutSketch {
    /// A sketch over `ncols` features with the default capacity.
    pub fn new(ncols: usize) -> CutSketch {
        CutSketch::with_capacity(ncols, DEFAULT_SKETCH_DISTINCT)
    }

    /// A sketch with an explicit per-feature distinct-value capacity
    /// (clamped to at least 2 so cuts stay derivable).
    pub fn with_capacity(ncols: usize, capacity: usize) -> CutSketch {
        CutSketch {
            capacity: capacity.max(2),
            cols: vec![Vec::new(); ncols],
            thinned: vec![false; ncols],
        }
    }

    /// Number of features the sketch tracks.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Whether every column's distinct set is still exact.
    pub fn is_exact(&self) -> bool {
        self.thinned.iter().all(|&t| !t)
    }

    /// Absorb a row-major chunk (`rows.len()` must be a multiple of
    /// `ncols`). `NaN`s are missing and ignored, as in the in-memory fit.
    pub fn update(&mut self, rows: &[f64]) {
        let ncols = self.cols.len();
        assert!(ncols > 0 && rows.len().is_multiple_of(ncols), "row-major chunk width mismatch");
        let mut distinct = Vec::new();
        for j in 0..ncols {
            column_distinct(rows, ncols, j, &mut distinct);
            self.absorb(j, &distinct);
        }
    }

    /// Absorb another sketch over the same features — the reduction a
    /// parallel sketch pass folds per-chunk sketches with (the streaming
    /// pipelines fold ranked chunks through [`CutSketch::merge_ranked`],
    /// which merges the same sets). While every column is still exact,
    /// merging distinct sets is associative and commutative, so the
    /// result is independent of how the input chunks were grouped into
    /// per-worker sketches; once capacity forces thinning, the merge
    /// stays deterministic in merge order (the scale pipeline always
    /// merges in ascending chunk order).
    pub fn merge(&mut self, other: &CutSketch) {
        assert_eq!(self.cols.len(), other.cols.len(), "sketch width mismatch");
        assert_eq!(self.capacity, other.capacity, "sketch capacity mismatch");
        for j in 0..self.cols.len() {
            self.thinned[j] |= other.thinned[j];
            self.absorb(j, &other.cols[j]);
        }
    }

    /// Merge one chunk's per-column sorted distinct values the way
    /// [`CutSketch::merge`] merges a fresh sketch of that chunk: a
    /// column the chunk alone overfills is thinned first.
    pub(crate) fn merge_chunk(&mut self, distinct: &[Vec<f64>]) {
        assert_eq!(self.cols.len(), distinct.len(), "sketch width mismatch");
        for (j, values) in distinct.iter().enumerate() {
            if values.len() > self.capacity {
                let mut part = values.clone();
                thin_even(&mut part, self.capacity);
                self.thinned[j] = true;
                self.absorb(j, &part);
            } else {
                self.absorb(j, values);
            }
        }
    }

    /// Union sorted distinct `values` into column `j`, thinning past
    /// capacity — the step every way of feeding the sketch ends in.
    fn absorb(&mut self, j: usize, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        self.cols[j] = merge_distinct(&self.cols[j], values);
        if self.cols[j].len() > self.capacity {
            thin_even(&mut self.cols[j], self.capacity);
            self.thinned[j] = true;
        }
    }

    /// Derive the per-feature cut sets, exactly as the in-memory fit
    /// derives them from each column's distinct values.
    pub fn cuts(&self, max_bins: u16) -> Vec<Vec<f64>> {
        self.cols.iter().map(|d| cuts_from_distinct(d, max_bins)).collect()
    }
}

/// Column `j`'s sorted distinct present values of a row-major chunk,
/// into `out` — the per-chunk set the sketch and the pass-1 ranks share.
pub(crate) fn column_distinct(rows: &[f64], ncols: usize, j: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend(rows.iter().skip(j).step_by(ncols).copied().filter(|v| !v.is_nan()));
    out.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    out.dedup();
}

/// Merge two sorted deduplicated runs into one.
pub(crate) fn merge_distinct(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if b[j] < a[i] {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Thin a sorted set to `cap` evenly spaced ranks (keeping both ends).
fn thin_even(vals: &mut Vec<f64>, cap: usize) {
    let n = vals.len();
    if n <= cap {
        return;
    }
    let kept: Vec<f64> = (0..cap).map(|k| vals[k * (n - 1) / (cap - 1)]).collect();
    *vals = kept;
}

// ---------------------------------------------------------------------
// Chunked matrix: builder + stores
// ---------------------------------------------------------------------

/// Incremental encoder: feed row-major feature chunks (any sizes) and
/// get back a [`ChunkedMatrix`] of fixed-size blocks, kept in memory or
/// spilled to disk as each block completes — the builder itself never
/// holds more than one partial block of codes.
#[derive(Debug)]
pub struct ChunkedMatrixBuilder {
    cuts: Vec<Vec<f64>>,
    missing: Vec<u16>,
    ncols: usize,
    block_rows: usize,
    nrows: usize,
    current: Vec<u16>,
    blocks: Vec<Vec<u16>>,
    spill: Option<SpillWriter>,
}

impl ChunkedMatrixBuilder {
    /// Build an in-memory chunked matrix against fixed `cuts`.
    pub fn in_memory(cuts: Vec<Vec<f64>>, block_rows: usize) -> ChunkedMatrixBuilder {
        let ncols = cuts.len();
        assert!(ncols > 0, "at least one feature required");
        ChunkedMatrixBuilder {
            missing: missing_codes(&cuts),
            cuts,
            ncols,
            block_rows: block_rows.max(1),
            nrows: 0,
            current: Vec::new(),
            blocks: Vec::new(),
            spill: None,
        }
    }

    /// Build a disk-spilled chunked matrix at `path`: completed blocks
    /// are written (checksummed) immediately and dropped from memory.
    pub fn spilled(
        cuts: Vec<Vec<f64>>,
        block_rows: usize,
        path: &Path,
    ) -> Result<ChunkedMatrixBuilder, ChunkError> {
        let mut b = ChunkedMatrixBuilder::in_memory(cuts, block_rows);
        b.spill = Some(SpillWriter::create(path, &b.cuts, b.block_rows)?);
        Ok(b)
    }

    /// The builder's cut tables, the ones [`encode_rows`] must encode
    /// against for [`ChunkedMatrixBuilder::push_encoded`].
    pub fn cuts(&self) -> &[Vec<f64>] {
        &self.cuts
    }

    /// Append a chunk of codes from [`encode_rows`] (row-major, a
    /// multiple of the feature count). Workers encode their chunks
    /// off-thread and the builder appends them in chunk order, so block
    /// boundaries — and therefore the sealed spill bytes — depend only
    /// on the concatenated rows, never on the chunking or the worker
    /// count.
    ///
    /// A code above its feature's missing code (`cuts[j].len() + 1`) is
    /// a `ChunkError::Corrupt` and leaves the builder unchanged.
    pub fn push_encoded(&mut self, codes: &[u16]) -> Result<(), ChunkError> {
        assert!(codes.len().is_multiple_of(self.ncols), "row-major chunk width mismatch");
        check_code_range(codes, &self.missing, format_args!("pushed chunk"))?;
        let block_len = self.block_rows * self.ncols;
        let mut rest = codes;
        while !rest.is_empty() {
            let take = (block_len - self.current.len()).min(rest.len());
            self.current.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            self.nrows += take / self.ncols;
            if self.current.len() == block_len {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), ChunkError> {
        let block = std::mem::take(&mut self.current);
        match &mut self.spill {
            Some(w) => w.write_block(&block, block.len() / self.ncols)?,
            None => self.blocks.push(block),
        }
        Ok(())
    }

    /// Finalise into a [`ChunkedMatrix`] (flushing the partial last
    /// block and, for spilled builds, patching and sealing the header).
    pub fn finish(mut self) -> Result<ChunkedMatrix, ChunkError> {
        if !self.current.is_empty() {
            self.flush_block()?;
        }
        let store = match self.spill {
            Some(w) => Store::Disk(w.seal(&self.cuts, self.nrows, self.missing)?),
            None => Store::Memory { blocks: self.blocks },
        };
        Ok(ChunkedMatrix {
            cuts: self.cuts,
            ncols: self.ncols,
            nrows: self.nrows,
            block_rows: self.block_rows,
            store,
        })
    }
}

/// Encode a row-major chunk of raw feature values against fixed cut
/// tables, off the builder, for [`ChunkedMatrixBuilder::push_encoded`].
/// The streaming pipelines get the same codes from pass-1 ranks
/// instead ([`crate::RankStore::remap_into`]), without the raw rows.
pub fn encode_rows(cuts: &[Vec<f64>], rows: &[f64]) -> Vec<u16> {
    let ncols = cuts.len();
    assert!(ncols > 0 && rows.len().is_multiple_of(ncols), "row-major chunk width mismatch");
    let mut out = Vec::with_capacity(rows.len());
    for row in rows.chunks_exact(ncols) {
        for (j, &v) in row.iter().enumerate() {
            out.push(encode_value(v, &cuts[j]));
        }
    }
    out
}

/// Reject a row-major code buffer holding a code above its feature's
/// missing code (`cuts[j].len() + 1`). The accumulation kernels index
/// histograms with unchecked writes, so every code they read has
/// passed this check: in [`ChunkedMatrixBuilder::push_encoded`], in
/// [`ChunkedMatrix::from_codes`] and on every load of a spilled block.
fn check_code_range(
    codes: &[u16],
    missing: &[u16],
    origin: std::fmt::Arguments<'_>,
) -> Result<(), ChunkError> {
    for row in codes.chunks_exact(missing.len()) {
        // Branch-free over the row, so it vectorizes: a spilled block
        // is checked on every pass, at about the cost of reading it.
        let over = row.iter().zip(missing).fold(0, |acc, (&code, &m)| acc | code.saturating_sub(m));
        if over != 0 {
            let j = row
                .iter()
                .zip(missing)
                .position(|(&code, &m)| code > m)
                .expect("the fold saw a code over");
            return Err(ChunkError::Corrupt {
                what: "code range",
                detail: format!(
                    "{origin}: code {} exceeds missing code {} for feature {j}",
                    row[j], missing[j]
                ),
            });
        }
    }
    Ok(())
}

/// Each feature's missing code `cuts[j].len() + 1`, the largest code it
/// may hold (saturated at `u16::MAX`, which then bounds nothing).
fn missing_codes(cuts: &[Vec<f64>]) -> Vec<u16> {
    cuts.iter().map(|c| u16::try_from(c.len() + 1).unwrap_or(u16::MAX)).collect()
}

/// Serialise the spill header for the given shape. `nrows`/`n_blocks`
/// are zero placeholders until [`SpillWriter::seal`] patches them; the
/// trailing checksum always covers the final bytes.
fn header_bytes(cuts: &[Vec<f64>], block_rows: usize, nrows: usize, n_blocks: usize) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(cuts.len() as u32).to_le_bytes());
    out.extend_from_slice(&(block_rows as u32).to_le_bytes());
    out.extend_from_slice(&(nrows as u64).to_le_bytes());
    out.extend_from_slice(&(n_blocks as u32).to_le_bytes());
    for c in cuts {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        for &v in c {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let sum = fnv1a_64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Streaming writer for the spill file: header placeholder up front,
/// one checksummed block record per completed block, header patched on
/// seal.
#[derive(Debug)]
struct SpillWriter {
    file: File,
    path: PathBuf,
    block_rows: usize,
    header_len: u64,
    offsets: Vec<u64>,
    rows: Vec<u32>,
    next_offset: u64,
    byte_buf: Vec<u8>,
}

impl SpillWriter {
    fn create(
        path: &Path,
        cuts: &[Vec<f64>],
        block_rows: usize,
    ) -> Result<SpillWriter, ChunkError> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let header = header_bytes(cuts, block_rows, 0, 0);
        file.write_all(&header)?;
        let header_len = header.len() as u64;
        Ok(SpillWriter {
            file,
            path: path.to_path_buf(),
            block_rows,
            header_len,
            offsets: Vec::new(),
            rows: Vec::new(),
            next_offset: header_len,
            byte_buf: Vec::new(),
        })
    }

    fn write_block(&mut self, codes: &[u16], rows: usize) -> Result<(), ChunkError> {
        self.byte_buf.clear();
        self.byte_buf.reserve(codes.len() * 2);
        for &c in codes {
            self.byte_buf.extend_from_slice(&c.to_le_bytes());
        }
        let sum = fnv1a_64(&self.byte_buf);
        self.offsets.push(self.next_offset);
        self.rows.push(rows as u32);
        self.file.write_all(&sum.to_le_bytes())?;
        self.file.write_all(&(rows as u32).to_le_bytes())?;
        self.file.write_all(&self.byte_buf)?;
        self.next_offset += 8 + 4 + self.byte_buf.len() as u64;
        Ok(())
    }

    /// Overwrite the placeholder header with the final counts; `cuts`
    /// must be the ones the writer was created with.
    fn seal(
        mut self,
        cuts: &[Vec<f64>],
        nrows: usize,
        missing: Vec<u16>,
    ) -> Result<DiskStore, ChunkError> {
        let header = header_bytes(cuts, self.block_rows, nrows, self.offsets.len());
        debug_assert_eq!(header.len() as u64, self.header_len);
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.flush()?;
        let verified = (0..self.offsets.len()).map(|_| AtomicBool::new(false)).collect();
        Ok(DiskStore {
            file: self.file,
            path: self.path,
            offsets: self.offsets,
            rows: self.rows,
            missing,
            verified,
        })
    }
}

/// The on-disk half of a spilled [`ChunkedMatrix`]: block offsets, the
/// features' missing codes every load is range-checked against, and
/// lazy checksum verification (first load per block). Reads are
/// positional (no shared cursor) and the per-block verified flags are
/// atomic, so any number of concurrent readers — prefetch threads,
/// parallel grid fits — can stream the same store through their own
/// buffers; a racing first load verifies twice, harmlessly.
#[derive(Debug)]
struct DiskStore {
    file: File,
    path: PathBuf,
    offsets: Vec<u64>,
    rows: Vec<u32>,
    missing: Vec<u16>,
    verified: Vec<AtomicBool>,
}

#[derive(Debug)]
enum Store {
    Memory { blocks: Vec<Vec<u16>> },
    Disk(DiskStore),
}

/// A binned matrix cut into fixed-size row blocks: row-major in-band
/// codes (per feature `j`, codes `0..=cuts[j].len()` for present values
/// and `cuts[j].len() + 1` for missing). Blocks live in memory or in a
/// checksummed spill file; either way the histogram grower streams them
/// in ascending order and never holds more than one at a time (disk)
/// or a borrowed slice (memory). [`ChunkedMatrix::fit`] quantises a
/// whole in-memory matrix into a single block — the store behind every
/// [`crate::TrainingContext`] and standalone histogram fit.
#[derive(Debug)]
pub struct ChunkedMatrix {
    cuts: Vec<Vec<f64>>,
    ncols: usize,
    nrows: usize,
    block_rows: usize,
    store: Store,
}

impl ChunkedMatrix {
    /// Quantise `data` into at most `max_bins` bins per feature and
    /// encode it as one in-memory block. Cuts are the column's quantile
    /// midpoints ([`crate::binning`]), recomputed from scratch on every
    /// call; the shared `TrainingContext` calls this once per sample
    /// set (the [`crate::binning::fit_count`] counter is how tests
    /// verify that).
    pub fn fit(data: &Matrix, max_bins: u16) -> ChunkedMatrix {
        assert!(max_bins >= 2, "need at least 2 bins");
        bump_fit_count();
        bump_column_fit_count(data.ncols());
        let cuts: Vec<Vec<f64>> = (0..data.ncols())
            .map(|j| cuts_from_distinct(&distinct_values(&data.column(j)), max_bins))
            .collect();
        let codes = if cuts.is_empty() { Vec::new() } else { encode_rows(&cuts, data.as_slice()) };
        ChunkedMatrix::from_codes(cuts, data.nrows(), codes)
    }

    /// A one-block in-memory matrix from row-major codes already
    /// encoded against `cuts` (the `ContextCache` path).
    pub(crate) fn from_codes(cuts: Vec<Vec<f64>>, nrows: usize, codes: Vec<u16>) -> ChunkedMatrix {
        let ncols = cuts.len();
        assert_eq!(codes.len(), nrows * ncols, "row-major code buffer size mismatch");
        assert!(nrows <= u32::MAX as usize, "row indices must fit in u32");
        if ncols > 0 {
            check_code_range(&codes, &missing_codes(&cuts), format_args!("one-block codes"))
                .expect("one-block codes are encoded against their own cuts");
        }
        let blocks = if nrows == 0 { Vec::new() } else { vec![codes] };
        ChunkedMatrix {
            cuts,
            ncols,
            nrows,
            block_rows: nrows.max(1),
            store: Store::Memory { blocks },
        }
    }

    /// Bin code of `(row, feature)`; `None` = missing.
    ///
    /// # Panics
    ///
    /// On a spilled matrix — its blocks are read only by the streaming
    /// passes, which checksum-verify them — and on out-of-range indices.
    pub fn bin(&self, row: usize, feature: usize) -> Option<u16> {
        let Store::Memory { blocks } = &self.store else {
            panic!("ChunkedMatrix::bin reads in-memory blocks only")
        };
        let code = blocks[row / self.block_rows][(row % self.block_rows) * self.ncols + feature];
        (code != self.cuts[feature].len() as u16 + 1).then_some(code)
    }

    /// Row count.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Feature count.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Rows per block (the last block may be shorter).
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of row blocks.
    pub fn n_blocks(&self) -> usize {
        self.nrows.div_ceil(self.block_rows)
    }

    /// Rows in block `b`.
    fn rows_in_block(&self, b: usize) -> usize {
        self.block_rows.min(self.nrows - b * self.block_rows)
    }

    /// Cut points for one feature.
    pub fn cuts(&self, feature: usize) -> &[f64] {
        &self.cuts[feature]
    }

    /// Whether the blocks are spilled to disk.
    pub fn is_spilled(&self) -> bool {
        matches!(self.store, Store::Disk(_))
    }

    /// Open a spilled chunk file, validating structure, counts and the
    /// header checksum before trusting any of it. Block payloads are
    /// checksum-verified lazily on first load and range-checked on
    /// every load.
    pub fn open(path: &Path) -> Result<ChunkedMatrix, ChunkError> {
        fn corrupt(what: &'static str, detail: String) -> ChunkError {
            ChunkError::Corrupt { what, detail }
        }
        let file = OpenOptions::new().read(true).write(false).open(path)?;
        let file_len = file.metadata()?.len();
        let mut fixed = [0u8; 26];
        pread_exact(&file, path, 0, &mut fixed)?;
        if &fixed[0..4] != MAGIC {
            return Err(corrupt("magic", format!("expected {MAGIC:?}, found {:?}", &fixed[0..4])));
        }
        let version = u16::from_le_bytes([fixed[4], fixed[5]]);
        if version != VERSION {
            return Err(corrupt("version", format!("expected {VERSION}, found {version}")));
        }
        let ncols = u32::from_le_bytes(fixed[6..10].try_into().unwrap()) as usize;
        let block_rows = u32::from_le_bytes(fixed[10..14].try_into().unwrap()) as usize;
        let nrows = u64::from_le_bytes(fixed[14..22].try_into().unwrap()) as usize;
        let n_blocks = u32::from_le_bytes(fixed[22..26].try_into().unwrap()) as usize;
        if ncols == 0 || block_rows == 0 {
            return Err(corrupt("shape", format!("ncols={ncols}, block_rows={block_rows}")));
        }
        if n_blocks != nrows.div_ceil(block_rows) {
            return Err(corrupt(
                "block count",
                format!("{n_blocks} blocks cannot tile {nrows} rows at {block_rows}/block"),
            ));
        }
        // Cuts region: counts are bounded before any allocation, and
        // every read is bounded by the real file length.
        let mut header = fixed.to_vec();
        let mut pos = 26u64;
        let mut cuts: Vec<Vec<f64>> = Vec::with_capacity(ncols.min(4096));
        for j in 0..ncols {
            let mut cnt = [0u8; 4];
            pread_exact(&file, path, pos, &mut cnt)?;
            header.extend_from_slice(&cnt);
            pos += 4;
            let n_cuts = u32::from_le_bytes(cnt) as usize;
            if n_cuts > MAX_CUTS_PER_FEATURE {
                return Err(corrupt(
                    "cut count",
                    format!("feature {j} claims {n_cuts} cuts (at most {MAX_CUTS_PER_FEATURE})"),
                ));
            }
            if pos + (n_cuts as u64) * 8 > file_len {
                return Err(corrupt(
                    "cut region",
                    format!("feature {j} cuts overrun the file ({file_len} bytes)"),
                ));
            }
            let mut raw = vec![0u8; n_cuts * 8];
            pread_exact(&file, path, pos, &mut raw)?;
            header.extend_from_slice(&raw);
            pos += raw.len() as u64;
            cuts.push(
                raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect(),
            );
        }
        let mut sum_bytes = [0u8; 8];
        pread_exact(&file, path, pos, &mut sum_bytes)?;
        let stored = u64::from_le_bytes(sum_bytes);
        let computed = fnv1a_64(&header);
        if stored != computed {
            return Err(corrupt(
                "header checksum",
                format!("stored {stored:#018x}, computed {computed:#018x}"),
            ));
        }
        // Routing bins a threshold with `partition_point`, which needs a
        // sorted table; a correctly sealed file can still carry one that
        // is not.
        for (j, c) in cuts.iter().enumerate() {
            let sorted = c.iter().all(|v| v.is_finite()) && c.windows(2).all(|w| w[0] < w[1]);
            if !sorted {
                return Err(corrupt(
                    "cut table",
                    format!("feature {j} cuts are not finite and strictly ascending"),
                ));
            }
        }
        let header_len = pos + 8;
        // Blocks are laid out contiguously with computable sizes; the
        // total must land exactly on the end of the file.
        let mut offsets = Vec::with_capacity(n_blocks);
        let mut rows = Vec::with_capacity(n_blocks);
        let mut offset = header_len;
        for b in 0..n_blocks {
            let r = block_rows.min(nrows - b * block_rows);
            offsets.push(offset);
            rows.push(r as u32);
            offset += 8 + 4 + (r * ncols * 2) as u64;
        }
        if offset != file_len {
            return Err(corrupt(
                "file length",
                format!("blocks end at byte {offset}, file has {file_len}"),
            ));
        }
        Ok(ChunkedMatrix {
            ncols,
            nrows,
            block_rows,
            store: Store::Disk(DiskStore {
                file,
                path: path.to_path_buf(),
                offsets,
                rows,
                missing: missing_codes(&cuts),
                verified: (0..n_blocks).map(|_| AtomicBool::new(false)).collect(),
            }),
            cuts,
        })
    }

    /// Path of the spill file, when spilled.
    pub fn spill_path(&self) -> Option<&Path> {
        match &self.store {
            Store::Disk(d) => Some(&d.path),
            Store::Memory { .. } => None,
        }
    }

    /// A full-width training view of this matrix.
    pub fn view(&self) -> ChunkedView<'_> {
        ChunkedView { matrix: self, col_start: 0, ncols: self.ncols }
    }

    /// A contiguous column-range view: train on a prefix (or any range)
    /// of the stored features without re-encoding. Codes agree column
    /// for column because the cuts do.
    pub fn col_view(&self, range: std::ops::Range<usize>) -> ChunkedView<'_> {
        assert!(range.start < range.end, "column view must be non-empty");
        assert!(range.end <= self.ncols, "column view out of range");
        ChunkedView { matrix: self, col_start: range.start, ncols: range.end - range.start }
    }

    /// Load block `b`'s codes (row-major, `rows_in_block(b) × ncols`)
    /// into a fresh buffer. Disk blocks are checksum-verified on first
    /// load and range-checked on every load. Test-only: the trainer
    /// streams through [`stream_blocks`] with rotating buffers instead.
    #[cfg(test)]
    fn load_block(&self, b: usize) -> Result<Vec<u16>, ChunkError> {
        let expect_rows = self.rows_in_block(b);
        match &self.store {
            Store::Memory { blocks } => Ok(blocks[b].clone()),
            Store::Disk(d) => {
                let mut buf = Vec::new();
                load_disk_block_into(d, b, expect_rows, &mut buf)?;
                Ok(buf)
            }
        }
    }
}

/// A borrowed view of a [`ChunkedMatrix`] restricted to a contiguous
/// column range — what a histogram [`crate::FitRun`] trains on. The full-width view
/// is [`ChunkedMatrix::view`]; the sharded grid trains e.g. its DD
/// variant on the first 59 columns of the DD+FI matrix via
/// [`ChunkedMatrix::col_view`], sharing one encode pass and one spill
/// file across variants.
#[derive(Clone, Copy, Debug)]
pub struct ChunkedView<'m> {
    matrix: &'m ChunkedMatrix,
    col_start: usize,
    ncols: usize,
}

impl ChunkedView<'_> {
    /// Feature count of the view.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Row count (views never restrict rows; a fit's row list does).
    pub fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    /// Cut points of view feature `j`.
    pub fn cuts(&self, feature: usize) -> &[f64] {
        self.matrix.cuts(self.col_start + feature)
    }
}

/// Read, checksum-verify (first time only), decode and range-check one
/// spilled block into `out`. The payload is read positionally straight into the code buffer's
/// byte view — on little-endian targets the wire format *is* the
/// in-memory layout, so there is no per-element decode loop; big-endian
/// targets byte-swap in place after checksumming the wire bytes.
fn load_disk_block_into(
    d: &DiskStore,
    b: usize,
    expect_rows: usize,
    out: &mut Vec<u16>,
) -> Result<(), ChunkError> {
    let mut head = [0u8; 12];
    pread_exact(&d.file, &d.path, d.offsets[b], &mut head)?;
    let stored_sum = u64::from_le_bytes(head[0..8].try_into().unwrap());
    let stored_rows = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
    if stored_rows != expect_rows || stored_rows != d.rows[b] as usize {
        return Err(ChunkError::Corrupt {
            what: "block rows",
            detail: format!("block {b}: stored {stored_rows}, expected {expect_rows}"),
        });
    }
    let n_codes = expect_rows * d.missing.len();
    out.clear();
    out.resize(n_codes, 0);
    let verify = !d.verified[b].load(Ordering::Acquire);
    {
        // SAFETY: a `u16` buffer viewed as bytes is always valid —
        // same allocation, `2 × n_codes` bytes, no alignment demand on
        // `u8`, and every bit pattern is a valid `u16`.
        let byte_view =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), n_codes * 2) };
        pread_exact(&d.file, &d.path, d.offsets[b] + 12, byte_view)?;
        if verify {
            let computed = fnv1a_64(byte_view);
            if computed != stored_sum {
                return Err(ChunkError::Corrupt {
                    what: "block checksum",
                    detail: format!(
                        "block {b}: stored {stored_sum:#018x}, computed {computed:#018x}"
                    ),
                });
            }
        }
    }
    #[cfg(target_endian = "big")]
    for c in out.iter_mut() {
        *c = u16::from_le(*c);
    }
    // The range check runs on every load, not just the checksummed
    // first one: a file rewritten between passes must fail here, not
    // in the kernels' unchecked histogram writes.
    check_code_range(out, &d.missing, format_args!("block {b}"))?;
    if verify {
        d.verified[b].store(true, Ordering::Release);
    }
    Ok(())
}

/// Positional `pread`: fill `buf` from `offset` without touching any
/// shared cursor, so concurrent readers (prefetch threads, parallel
/// grid fits) can share one open store.
#[cfg(unix)]
fn pread_exact(file: &File, _path: &Path, offset: u64, buf: &mut [u8]) -> Result<(), ChunkError> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)?;
    Ok(())
}

/// Non-unix fallback: reopen the file per call so every reader owns its
/// cursor. Slower, but preserves the concurrent-reader contract.
#[cfg(not(unix))]
fn pread_exact(_file: &File, path: &Path, offset: u64, buf: &mut [u8]) -> Result<(), ChunkError> {
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)?;
    Ok(())
}

/// Stream the listed blocks of `matrix` through `f` in order. Spilled
/// passes over two or more blocks overlap I/O with compute: a reader
/// thread loads (and checks) block *k+1* while `f` works on block *k*,
/// rotating two persistent code buffers through a pair of
/// channels — steady state moves buffers, never allocates. A spilled
/// pass over fewer blocks loads serially. The call order of `f` is
/// identical on every path, so training is bitwise unaffected by the
/// store kind or the loading path.
fn stream_blocks<F>(
    matrix: &ChunkedMatrix,
    block_list: &[u32],
    bufs: &mut Vec<Vec<u16>>,
    mut f: F,
) -> Result<(), ChunkError>
where
    F: FnMut(usize, &[u16]),
{
    let d = match &matrix.store {
        Store::Memory { blocks } => {
            for &b in block_list {
                f(b as usize, &blocks[b as usize]);
            }
            return Ok(());
        }
        Store::Disk(d) => d,
    };
    if block_list.len() < 2 {
        let mut buf = bufs.pop().unwrap_or_default();
        let mut result = Ok(());
        for &b in block_list {
            let b = b as usize;
            if let Err(e) = load_disk_block_into(d, b, matrix.rows_in_block(b), &mut buf) {
                result = Err(e);
                break;
            }
            f(b, &buf);
        }
        bufs.push(buf);
        return result;
    }

    while bufs.len() < 2 {
        bufs.push(Vec::new());
    }
    let spare = bufs.split_off(2);
    drop(spare); // never more than two live: keep the pool bounded
    let primed_b = bufs.pop().expect("two primed buffers");
    let primed_a = bufs.pop().expect("two primed buffers");
    let (full_tx, full_rx) = std::sync::mpsc::sync_channel::<Result<Vec<u16>, ChunkError>>(2);
    let (empty_tx, empty_rx) = std::sync::mpsc::channel::<Vec<u16>>();
    let _ = empty_tx.send(primed_a);
    let _ = empty_tx.send(primed_b);
    let n = block_list.len();
    std::thread::scope(|s| {
        s.spawn(move || {
            // Reader: claim an empty buffer, load the next block, hand
            // it over. Stops when the consumer hangs up or a block
            // fails to load. With only two buffers in flight the
            // capacity-2 channel never blocks a send.
            for &b in block_list {
                let Ok(mut buf) = empty_rx.recv() else { return };
                let b = b as usize;
                let loaded = load_disk_block_into(d, b, matrix.rows_in_block(b), &mut buf);
                let failed = loaded.is_err();
                let sent = match loaded {
                    Ok(()) => full_tx.send(Ok(buf)),
                    Err(e) => full_tx.send(Err(e)),
                };
                if failed || sent.is_err() {
                    return;
                }
            }
        });
        let mut result = Ok(());
        for (i, &block) in block_list.iter().enumerate() {
            match full_rx.recv() {
                Ok(Ok(buf)) => {
                    f(block as usize, &buf);
                    if i + 2 < n {
                        // The reader still has blocks to claim buffers
                        // for; recycle. The last two stay with us so
                        // the next pass reuses their capacity.
                        let _ = empty_tx.send(buf);
                    } else {
                        bufs.push(buf);
                    }
                }
                Ok(Err(e)) => {
                    result = Err(e);
                    break;
                }
                Err(_) => {
                    result = Err(ChunkError::Corrupt {
                        what: "prefetch",
                        detail: "block reader thread hung up".to_string(),
                    });
                    break;
                }
            }
        }
        // Dropping our end of the empty channel unblocks (and stops)
        // the reader if we bailed early; the scope then joins it.
        drop(empty_tx);
        result
    })
}

// ---------------------------------------------------------------------
// Level-wise histogram grower
// ---------------------------------------------------------------------

/// What a grown arena node has become.
#[derive(Debug, Clone)]
enum Fate {
    /// Awaiting a decision (frontier node with a histogram).
    Open,
    /// Finished leaf.
    Leaf { weight: f64 },
    /// Finished split; children are arena ids.
    Split { cand: SplitCandidate, left: u32, right: u32 },
}

/// One node of the level-order build arena.
#[derive(Debug)]
struct BuildNode {
    g: f64,
    h: f64,
    /// Sampled positions that reached the node; decides leaves and
    /// which child is the smaller one.
    n_rows: usize,
    fate: Fate,
    /// Flattened histogram (`bounds` layout) while the node is open.
    hist: Vec<[f64; 2]>,
}

/// Routing data for one tentative split during the partition pass.
#[derive(Debug, Clone, Copy)]
struct Route {
    feature: usize,
    missing_code: u16,
    boundary: usize,
    default_left: bool,
    left: u32,
    right: u32,
}

/// Cell-update threshold below which the feature-parallel fan-out is
/// not worth its thread spawns and the serial pass runs instead.
const FEATURE_PAR_MIN_CELLS: usize = 1 << 15;

/// Pop a histogram buffer from the pool (or mint one) sized and zeroed
/// to `total_slots`.
fn take_hist(pool: &mut Vec<Vec<[f64; 2]>>, total_slots: usize) -> Vec<[f64; 2]> {
    let mut h = pool.pop().unwrap_or_default();
    h.clear();
    h.resize(total_slots, [0.0; 2]);
    h
}

/// Return a node's histogram buffer, if it holds one, to the pool.
fn recycle(pool: &mut Vec<Vec<[f64; 2]>>, hist: &mut Vec<[f64; 2]>) {
    if !hist.is_empty() {
        pool.push(std::mem::take(hist));
    }
}

/// One streamed block's rows as seen through a column view.
#[derive(Clone, Copy)]
struct BlockRows<'c> {
    codes: &'c [u16],
    stride: usize,
    col_start: usize,
    ncols: usize,
    base_row: usize,
    row_of: &'c [u32],
}

impl BlockRows<'_> {
    /// Position `pos`'s view codes, contiguous over the view's features.
    #[inline(always)]
    fn row(&self, pos: u32) -> &[u16] {
        let local = self.row_of[pos as usize] as usize - self.base_row;
        let start = local * self.stride + self.col_start;
        &self.codes[start..start + self.ncols]
    }
}

/// The per-round operands of every accumulation: position-indexed
/// gradients and hessians, the round's feature sample (view features,
/// in draw order) and its histogram layout (`features[fi]` owns slots
/// `bounds[fi]..bounds[fi + 1]`: bins `0..=cuts` plus the missing slot
/// the in-band missing code indexes directly).
#[derive(Clone, Copy)]
struct Gh<'a> {
    grad: &'a [f64],
    hess: &'a [f64],
    features: &'a [usize],
    bounds: &'a [usize],
}

/// Accumulate `(grad, hess)` of `positions` (in the given order) into
/// the features `fi_range` of one histogram — `data` covers exactly
/// those features' slots — dispatching on the kernel `level`: the AVX2
/// kernel at AVX2 and above (a 512-bit twin timed the same), the scalar
/// pass otherwise. Per `(feature, slot)` cell the additions happen in
/// position order on every level (the AVX2 kernel only vectorizes
/// slot-index computation and uses pair-adds, never per-lane
/// sub-histograms), so feature-chunked parallel accumulation stays
/// bit-identical to the serial pass and the SIMD pass bit-identical to
/// the scalar one.
fn accumulate(
    level: SimdLevel,
    rows: BlockRows<'_>,
    positions: &[u32],
    gh: Gh<'_>,
    fi_range: Range<usize>,
    data: &mut [[f64; 2]],
) {
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 {
        // SAFETY: `active_level` never reports Avx2-or-above without
        // AVX2 CPU support (Avx512 implies it), and streamed codes are
        // range-checked or encoded in range.
        unsafe { accumulate_avx2(rows, positions, gh, fi_range, data) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    accumulate_scalar(rows, positions, gh, fi_range, data);
}

/// Bench label: the accumulation kernel the histogram grower runs at
/// the active level, `"avx2"` on AVX2 and AVX-512 hosts alike.
#[doc(hidden)]
pub fn hist_kernel_name() -> &'static str {
    match crate::simd::active_level() {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Avx2 | SimdLevel::Avx512 => "avx2",
    }
}

/// The scalar accumulation pass (the always-compiled fallback).
/// Row-major: each position's contiguous code slice is read once, and
/// the in-band missing code lands the missing mass in the trailing slot
/// with no branch.
fn accumulate_scalar(
    rows: BlockRows<'_>,
    positions: &[u32],
    gh: Gh<'_>,
    fi_range: Range<usize>,
    data: &mut [[f64; 2]],
) {
    let base = gh.bounds[fi_range.start];
    for &p in positions {
        let codes = rows.row(p);
        let g = gh.grad[p as usize];
        let h = gh.hess[p as usize];
        for fi in fi_range.clone() {
            let slot = gh.bounds[fi] - base + codes[gh.features[fi]] as usize;
            let cell = &mut data[slot];
            cell[0] += g;
            cell[1] += h;
        }
    }
}

/// The AVX2 accumulation pass. Features are processed in stack-array
/// chunks of up to 64; a chunk whose features are the identity mapping
/// (`features[fi] == fi`, the default `colsample_bytree = 1.0` case)
/// loads 8 codes at a time, widens them, adds the precomputed slot
/// offsets in one vector op, and applies the 8 `(g, h)` pair-adds to
/// their (always distinct) cells in feature order. Non-identity chunks
/// fall back to the scalar pass over just that chunk. No heap
/// allocation on any path — the training hot path must stay
/// allocation-free.
///
/// # Safety
///
/// The CPU must support AVX2, and no code in `rows` may exceed its
/// feature's missing code — true of every block a fit streams (see
/// [`check_code_range`]) — so every slot written lies inside `data`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_avx2(
    rows: BlockRows<'_>,
    positions: &[u32],
    gh: Gh<'_>,
    fi_range: Range<usize>,
    data: &mut [[f64; 2]],
) {
    use crate::simd::x86::{pack_gh, pair_add};
    use std::arch::x86_64::*;
    const CHUNK: usize = 64;
    let bounds = gh.bounds;
    let base = bounds[fi_range.start];
    let mut fi = fi_range.start;
    while fi < fi_range.end {
        let end = (fi + CHUNK).min(fi_range.end);
        let identity =
            (fi..end).all(|k| gh.features[k] == k) && bounds[end] - base <= i32::MAX as usize;
        if !identity {
            let (lo, hi) = (bounds[fi] - base, bounds[end] - base);
            accumulate_scalar(rows, positions, gh, fi..end, &mut data[lo..hi]);
            fi = end;
            continue;
        }
        let nf_chunk = end - fi;
        let mut off = [0i32; CHUNK];
        for (c, o) in off[..nf_chunk].iter_mut().enumerate() {
            *o = (bounds[fi + c] - base) as i32;
        }
        let full = nf_chunk / 8 * 8;
        for &p in positions {
            let codes = rows.row(p);
            let g_h = pack_gh(gh.grad[p as usize], gh.hess[p as usize]);
            let cp = codes.as_ptr().add(fi);
            let mut c = 0usize;
            while c < full {
                let raw = _mm_loadu_si128(cp.add(c) as *const __m128i);
                let slots = _mm256_add_epi32(
                    _mm256_cvtepu16_epi32(raw),
                    _mm256_loadu_si256(off.as_ptr().add(c) as *const __m256i),
                );
                let mut s = [0i32; 8];
                _mm256_storeu_si256(s.as_mut_ptr() as *mut __m256i, slots);
                for &si in &s {
                    // SAFETY: codes never exceed their missing code (see
                    // `check_code_range`), so `si` indexes inside `data`.
                    debug_assert!((si as usize) < data.len(), "code past its missing slot");
                    pair_add(data.get_unchecked_mut(si as usize), g_h);
                }
                c += 8;
            }
            while c < nf_chunk {
                // SAFETY: `fi + c` lies inside the row's view codes, and
                // the code's bound puts `slot` inside `data`.
                let slot = off[c] as usize + *codes.get_unchecked(fi + c) as usize;
                debug_assert!(slot < data.len(), "code past its missing slot");
                pair_add(data.get_unchecked_mut(slot), g_h);
                c += 1;
            }
        }
        fi = end;
    }
}

/// Accumulate one block into the target histograms: target `t`'s
/// positions are `positions[starts[t]..starts[t + 1]]`, in visit order.
/// Workers own disjoint targets — or, when one target is big enough,
/// disjoint feature ranges of its histogram — never a share of one
/// cell, so any worker count adds the same floats in the same order.
#[allow(clippy::too_many_arguments)]
fn accumulate_block(
    level: SimdLevel,
    rows: BlockRows<'_>,
    positions: &[u32],
    starts: &[u32],
    gh: Gh<'_>,
    workers: usize,
    hists: &mut [Vec<[f64; 2]>],
) {
    let nf = gh.features.len();
    let group = |t: usize| &positions[starts[t] as usize..starts[t + 1] as usize];
    if hists.len() == 1 && workers > 1 && nf >= 2 && group(0).len() * nf >= FEATURE_PAR_MIN_CELLS {
        let per = nf.div_ceil(workers.min(nf));
        let bounds = gh.bounds;
        std::thread::scope(|s| {
            let mut rest: &mut [[f64; 2]] = &mut hists[0];
            let mut start = 0usize;
            while start < nf {
                let end = (start + per).min(nf);
                let (head, tail) = rest.split_at_mut(bounds[end] - bounds[start]);
                rest = tail;
                s.spawn(move || accumulate(level, rows, group(0), gh, start..end, head));
                start = end;
            }
        });
    } else if workers <= 1 || hists.len() < 2 {
        for (t, hist) in hists.iter_mut().enumerate() {
            accumulate(level, rows, group(t), gh, 0..nf, hist);
        }
    } else {
        let chunk = hists.len().div_ceil(workers.min(hists.len()));
        std::thread::scope(|s| {
            for (w, part) in hists.chunks_mut(chunk).enumerate() {
                s.spawn(move || {
                    for (k, hist) in part.iter_mut().enumerate() {
                        accumulate(level, rows, group(w * chunk + k), gh, 0..nf, hist);
                    }
                });
            }
        });
    }
}

/// Stable counting sort of a block's visited positions by accumulation
/// target (`owner_of[node_of[pos]]`, `u32::MAX` = none): afterwards
/// target `t`'s positions are `out[starts[t]..starts[t + 1]]`, still
/// in visit order.
fn group_by_target(
    visited: &[u32],
    node_of: &[u32],
    owner_of: &[u32],
    n_targets: usize,
    out: &mut Vec<u32>,
    starts: &mut Vec<u32>,
) {
    starts.clear();
    starts.resize(n_targets + 1, 0);
    for &p in visited {
        let t = owner_of[node_of[p as usize] as usize];
        if t != u32::MAX {
            starts[t as usize + 1] += 1;
        }
    }
    for t in 0..n_targets {
        starts[t + 1] += starts[t];
    }
    out.clear();
    out.resize(starts[n_targets] as usize, 0);
    // Scatter with `starts[t]` as target t's cursor, then shift the
    // cursors (now each target's end) back into starts.
    for &p in visited {
        let t = owner_of[node_of[p as usize] as usize];
        if t != u32::MAX {
            out[starts[t as usize] as usize] = p;
            starts[t as usize] += 1;
        }
    }
    for t in (1..=n_targets).rev() {
        starts[t] = starts[t - 1];
    }
    starts[0] = 0;
}

/// The subtraction trick: `parent − child` slot-wise gives the sibling's
/// histogram without touching its rows — one IEEE subtraction per cell
/// component.
fn subtract_hist(parent: &mut [[f64; 2]], child: &[[f64; 2]]) {
    for (ps, cs) in parent.iter_mut().zip(child) {
        ps[0] -= cs[0];
        ps[1] -= cs[1];
    }
}

/// Reject a row list that reaches past the matrix or steps back to an
/// earlier block: every chunked row walk (training positions,
/// per-block prediction ranges) visits blocks in ascending order and
/// finds each block's positions as one contiguous range. Within a
/// block, rows may come in any order and repeat.
fn check_rows(rows: impl Iterator<Item = usize>, matrix: &ChunkedMatrix) -> Result<(), TrainError> {
    let mut block = 0;
    for r in rows {
        if r >= matrix.nrows() || r / matrix.block_rows() < block {
            return Err(TrainError::InvalidParam {
                name: "rows",
                message: format!(
                    "rows must lie below {} with non-decreasing {}-row block indices",
                    matrix.nrows(),
                    matrix.block_rows()
                ),
            });
        }
        block = r / matrix.block_rows();
    }
    Ok(())
}

/// Per-fit buffer arena of the level-wise grower, living in
/// [`TreeScratch`] as its `hist` field. [`HistPools::prepare`] sizes
/// every buffer to the fit's worst case (tree arena, routing maps,
/// histogram pool, per-position state, visit and grouping lists,
/// prefetch code buffers), so steady-state rounds perform zero heap
/// allocations, pinned by `tests/alloc_regression.rs`.
#[derive(Debug, Default)]
pub(crate) struct HistPools {
    /// Position → matrix row.
    row_of: Vec<u32>,
    /// Position → arena node of the tree being grown.
    node_of: Vec<u32>,
    /// Position → drawn into this round's row sample.
    sampled: Vec<bool>,
    /// Blocks holding at least one training position, ascending.
    blocks: Vec<u32>,
    /// Per-block position ranges (`block_lo[b]..block_hi[b]`).
    block_lo: Vec<u32>,
    block_hi: Vec<u32>,
    /// The round's visit list: block `b`'s sampled positions, in
    /// sample order, are `visit[visit_lo[b]..visit_hi[b]]`.
    visit: Vec<u32>,
    visit_lo: Vec<u32>,
    visit_hi: Vec<u32>,
    /// Histogram layout over the round's feature sample.
    bounds: Vec<usize>,
    /// Level-order build arena of the current tree.
    arena: Vec<BuildNode>,
    frontier: Vec<u32>,
    splitting: Vec<u32>,
    confirmed: Vec<u32>,
    route_of: Vec<Option<Route>>,
    /// Arena node → index of the accumulation target it is, if any.
    owner_of: Vec<u32>,
    /// Accumulation targets of the current pass, `(node, parent)`, and
    /// their histograms.
    targets: Vec<(u32, u32)>,
    target_hists: Vec<Vec<[f64; 2]>>,
    /// One block's visited positions grouped by target.
    target_pos: Vec<u32>,
    target_start: Vec<u32>,
    hist_pool: Vec<Vec<[f64; 2]>>,
    leaf_weight: Vec<f64>,
    /// Rotating code buffers for the spilled-block prefetcher.
    prefetch: Vec<Vec<u16>>,
}

impl HistPools {
    /// Start a fit over `view`: position `p` trains on matrix row
    /// `rows[p]` (rows checked by [`check_rows`]). Sizes every buffer
    /// to the fit's worst case.
    pub(crate) fn prepare(
        &mut self,
        params: &Params,
        view: ChunkedView<'_>,
        rows: impl Iterator<Item = usize> + Clone,
    ) -> Result<(), TrainError> {
        let matrix = view.matrix;
        check_rows(rows.clone(), matrix)?;
        self.row_of.clear();
        self.row_of.extend(rows.map(|r| r as u32));
        let n = self.row_of.len();

        // Which blocks hold training positions, and which position
        // range each covers (block indices never decrease along the
        // positions, so each block's positions are contiguous).
        let n_blocks = matrix.n_blocks();
        let block_rows = matrix.block_rows();
        self.blocks.clear();
        self.blocks.reserve(n_blocks);
        for v in [&mut self.block_lo, &mut self.block_hi, &mut self.visit_lo, &mut self.visit_hi] {
            v.clear();
            v.resize(n_blocks, 0);
        }
        for b in 0..n_blocks {
            let lo = self.row_of.partition_point(|&r| (r as usize) < b * block_rows);
            let hi = self.row_of.partition_point(|&r| (r as usize) < (b + 1) * block_rows);
            self.block_lo[b] = lo as u32;
            self.block_hi[b] = hi as u32;
            if hi > lo {
                self.blocks.push(b as u32);
            }
        }
        // Without row subsampling every round visits all positions in
        // ascending order; subsampled rounds overwrite this.
        self.visit.clear();
        self.visit.extend(0..n as u32);
        self.visit_lo.copy_from_slice(&self.block_lo);
        self.visit_hi.copy_from_slice(&self.block_hi);
        self.sampled.clear();
        self.sampled.resize(n, true);
        self.node_of.clear();
        self.node_of.resize(n, 0);

        // Worst-case arena sizing: a full binary tree of the allowed
        // depth, capped by the leaves-need-a-row bound.
        let depth_cap = if params.max_depth + 1 >= usize::BITS as usize {
            usize::MAX
        } else {
            (1usize << (params.max_depth + 1)) - 1
        };
        let per_tree = depth_cap.min(2 * n - 1);
        self.arena.reserve(per_tree);
        self.route_of.reserve(per_tree);
        self.owner_of.reserve(per_tree);
        self.leaf_weight.reserve(per_tree);
        self.frontier.reserve(per_tree);
        self.splitting.reserve(per_tree);
        self.confirmed.reserve(per_tree);
        self.targets.reserve(per_tree);
        self.target_hists.reserve(per_tree);
        self.target_start.reserve(per_tree + 1);
        self.target_pos.reserve(n);
        self.bounds.reserve(view.ncols() + 1);
        // Pre-fill the histogram pool with one buffer per possible tree
        // node, each big enough for the full feature set, so no later
        // round has to mint one whatever shape its tree takes.
        let total_slots: usize = (0..view.ncols()).map(|j| view.cuts(j).len() + 2).sum();
        for h in &mut self.hist_pool {
            h.clear();
            h.reserve(total_slots);
        }
        while self.hist_pool.len() < per_tree {
            self.hist_pool.push(Vec::with_capacity(total_slots));
        }
        Ok(())
    }

    /// Training positions of the fit.
    pub(crate) fn n_positions(&self) -> usize {
        self.row_of.len()
    }

    /// Regroup this round's sample by block: block `b`'s sampled
    /// positions, in sample order, land in `visit[visit_lo[b]..visit_hi[b]]`.
    fn group_by_block(&mut self, sample: &[usize], block_rows: usize) {
        let block_of = |p: usize| self.row_of[p] as usize / block_rows;
        self.sampled.fill(false);
        for &b in &self.blocks {
            self.visit_hi[b as usize] = 0;
        }
        for &p in sample {
            self.sampled[p] = true;
            self.visit_hi[block_of(p)] += 1;
        }
        let mut next = 0;
        for &b in &self.blocks {
            let b = b as usize;
            self.visit_lo[b] = next;
            next += self.visit_hi[b];
            self.visit_hi[b] = self.visit_lo[b];
        }
        self.visit.clear();
        self.visit.resize(sample.len(), 0);
        for &p in sample {
            let b = block_of(p);
            self.visit[self.visit_hi[b] as usize] = p as u32;
            self.visit_hi[b] += 1;
        }
    }

    /// Stream the fit's blocks and add every visited position of each
    /// target node into `target_hists` (target `t` = `targets[t]`).
    /// `root` marks the root pass, whose one target is every visited
    /// position.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_pass(
        &mut self,
        view: ChunkedView<'_>,
        level: SimdLevel,
        workers: usize,
        grad: &[f64],
        hess: &[f64],
        features: &[usize],
        root: bool,
    ) -> Result<(), ChunkError> {
        let matrix = view.matrix;
        let HistPools {
            row_of,
            node_of,
            blocks,
            visit,
            visit_lo,
            visit_hi,
            bounds,
            owner_of,
            target_hists,
            target_pos,
            target_start,
            prefetch,
            ..
        } = self;
        let (row_of, node_of, owner_of): (&[u32], &[u32], &[u32]) = (row_of, node_of, owner_of);
        let (visit, visit_lo, visit_hi): (&[u32], &[u32], &[u32]) = (visit, visit_lo, visit_hi);
        let gh = Gh { grad, hess, features, bounds };
        let n_targets = target_hists.len();
        stream_blocks(matrix, blocks, prefetch, |b, codes| {
            let rows = BlockRows {
                codes,
                stride: matrix.ncols(),
                col_start: view.col_start,
                ncols: view.ncols,
                base_row: b * matrix.block_rows(),
                row_of,
            };
            let visited = &visit[visit_lo[b] as usize..visit_hi[b] as usize];
            if root {
                let all = [0, visited.len() as u32];
                accumulate_block(level, rows, visited, &all, gh, workers, target_hists);
            } else {
                group_by_target(visited, node_of, owner_of, n_targets, target_pos, target_start);
                accumulate_block(level, rows, target_pos, target_start, gh, workers, target_hists);
            }
        })
    }

    /// Grow one tree level by level over this round's row `sample`
    /// (positions, in draw order) and `features` (view features, in
    /// draw order), appending it to `nodes` in DFS pre-order with
    /// tree-relative links, and leave every position's leaf in
    /// `node_of` for [`HistPools::add_leaf_weights`]. Returns the
    /// tree's depth.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn grow_tree(
        &mut self,
        view: ChunkedView<'_>,
        params: &Params,
        sample: &[usize],
        features: &[usize],
        grad: &[f64],
        hess: &[f64],
        workers: usize,
        nodes: &mut Vec<Node>,
    ) -> Result<u16, ChunkError> {
        let matrix = view.matrix;
        let (stride, col_start, block_rows) = (matrix.ncols(), view.col_start, matrix.block_rows());
        // Read the dispatch level once per tree so a concurrent override
        // cannot change kernels between one tree's passes.
        let level = crate::simd::active_level();
        let cfg = SplitConfig {
            lambda: params.lambda,
            gamma: params.gamma,
            min_child_weight: params.min_child_weight,
        };
        if params.subsample < 1.0 {
            self.group_by_block(sample, block_rows);
        }
        self.bounds.clear();
        self.bounds.push(0);
        for &f in features {
            let last = self.bounds[self.bounds.len() - 1];
            self.bounds.push(last + view.cuts(f).len() + 2);
        }
        let total_slots = self.bounds[features.len()];

        // --- Root: sums and histogram over the visit order ----------
        self.node_of.fill(0);
        self.arena.clear();
        let (root_g, root_h): (f64, f64) = {
            let HistPools { blocks, visit, visit_lo, visit_hi, .. } = &*self;
            let visit_order = || {
                blocks.iter().flat_map(|&b| {
                    &visit[visit_lo[b as usize] as usize..visit_hi[b as usize] as usize]
                })
            };
            (
                visit_order().map(|&p| grad[p as usize]).sum(),
                visit_order().map(|&p| hess[p as usize]).sum(),
            )
        };
        self.target_hists.clear();
        self.target_hists.push(take_hist(&mut self.hist_pool, total_slots));
        self.accumulate_pass(view, level, workers, grad, hess, features, true)?;
        let root_hist = self.target_hists.pop().expect("the root pass has one target");
        self.arena.push(BuildNode {
            g: root_g,
            h: root_h,
            n_rows: sample.len(),
            fate: Fate::Open,
            hist: root_hist,
        });

        self.frontier.clear();
        self.frontier.push(0);
        let mut depth = 0usize;
        while !self.frontier.is_empty() {
            // Decide every frontier node: leaf out, or pick a split
            // scanning the round's features in draw order.
            self.splitting.clear();
            for i in 0..self.frontier.len() {
                let id = self.frontier[i];
                let node = &self.arena[id as usize];
                let (g, h) = (node.g, node.h);
                let cand = if depth >= params.max_depth || node.n_rows < 2 {
                    None
                } else {
                    let mut tracker = BestTracker::new(cfg, g, h);
                    for (fi, &f) in features.iter().enumerate() {
                        let hist = &node.hist[self.bounds[fi]..self.bounds[fi + 1]];
                        scan_hist(f, view.cuts(f), hist, g, h, &mut tracker);
                    }
                    tracker.best
                };
                match cand {
                    None => {
                        let weight = -g / (h + params.lambda) * params.learning_rate;
                        let node = &mut self.arena[id as usize];
                        node.fate = Fate::Leaf { weight };
                        recycle(&mut self.hist_pool, &mut node.hist);
                    }
                    Some(cand) => {
                        let left = self.arena.len() as u32;
                        let right = left + 1;
                        for (g, h) in
                            [(cand.left_grad, cand.left_hess), (cand.right_grad, cand.right_hess)]
                        {
                            self.arena.push(BuildNode {
                                g,
                                h,
                                n_rows: 0,
                                fate: Fate::Open,
                                hist: Vec::new(),
                            });
                        }
                        self.arena[id as usize].fate = Fate::Split { cand, left, right };
                        self.splitting.push(id);
                    }
                }
            }
            if self.splitting.is_empty() {
                break;
            }

            // Partition pass: route every position of a splitting node
            // — sampled or not, so unsampled positions end in the leaf
            // their codes reach — counting only sampled ones. Hist
            // thresholds are cut values, so `code <= boundary` is
            // exactly the raw-value rule `v < threshold`.
            self.route_of.clear();
            self.route_of.resize(self.arena.len(), None);
            for i in 0..self.splitting.len() {
                let id = self.splitting[i] as usize;
                if let Fate::Split { cand, left, right } = &self.arena[id].fate {
                    let cuts = view.cuts(cand.feature);
                    self.route_of[id] = Some(Route {
                        feature: cand.feature,
                        missing_code: cuts.len() as u16 + 1,
                        boundary: cuts.partition_point(|&c| c < cand.threshold),
                        default_left: cand.default_left,
                        left: *left,
                        right: *right,
                    });
                }
            }
            {
                let HistPools {
                    row_of,
                    node_of,
                    sampled,
                    blocks,
                    block_lo,
                    block_hi,
                    arena,
                    route_of,
                    prefetch,
                    ..
                } = &mut *self;
                stream_blocks(matrix, blocks, prefetch, |b, codes| {
                    let base_row = b * block_rows;
                    for pos in block_lo[b] as usize..block_hi[b] as usize {
                        let Some(route) = route_of[node_of[pos] as usize] else { continue };
                        let local = row_of[pos] as usize - base_row;
                        let code = codes[local * stride + col_start + route.feature];
                        let goes_left = if code == route.missing_code {
                            route.default_left
                        } else {
                            (code as usize) <= route.boundary
                        };
                        let child = if goes_left { route.left } else { route.right };
                        node_of[pos] = child;
                        arena[child as usize].n_rows += sampled[pos] as usize;
                    }
                })?;
            }

            // Empty-side fallback (numerical pathology): demote the
            // split back to a leaf with the node's own mass. Its
            // positions sit in the children, which become ghosts
            // carrying the same weight so the score update needs no
            // re-routing.
            self.confirmed.clear();
            for i in 0..self.splitting.len() {
                let id = self.splitting[i];
                let Fate::Split { left, right, .. } = self.arena[id as usize].fate.clone() else {
                    unreachable!("splitting nodes keep their split fate until here")
                };
                let empty_side =
                    self.arena[left as usize].n_rows == 0 || self.arena[right as usize].n_rows == 0;
                if empty_side {
                    let node = &mut self.arena[id as usize];
                    let weight = -node.g / (node.h + params.lambda) * params.learning_rate;
                    node.fate = Fate::Leaf { weight };
                    recycle(&mut self.hist_pool, &mut node.hist);
                    self.arena[left as usize].fate = Fate::Leaf { weight };
                    self.arena[right as usize].fate = Fate::Leaf { weight };
                } else {
                    self.confirmed.push(id);
                }
            }
            if self.confirmed.is_empty() {
                break;
            }

            // Accumulation pass: build each smaller child's histogram
            // (ties go left), then derive the larger child by the
            // subtraction trick from the parent's buffer. Children at the
            // depth cap leaf without a scan, so the last split level
            // builds none.
            if depth + 1 < params.max_depth {
                self.owner_of.clear();
                self.owner_of.resize(self.arena.len(), u32::MAX);
                self.targets.clear();
                self.target_hists.clear();
                for i in 0..self.confirmed.len() {
                    let id = self.confirmed[i];
                    let Fate::Split { left, right, .. } = self.arena[id as usize].fate.clone()
                    else {
                        unreachable!("confirmed splits keep their split fate")
                    };
                    let small =
                        if self.arena[left as usize].n_rows <= self.arena[right as usize].n_rows {
                            left
                        } else {
                            right
                        };
                    self.owner_of[small as usize] = self.targets.len() as u32;
                    self.targets.push((small, id));
                    self.target_hists.push(take_hist(&mut self.hist_pool, total_slots));
                }
                self.accumulate_pass(view, level, workers, grad, hess, features, false)?;
                for t in (0..self.targets.len()).rev() {
                    let (small, parent) = self.targets[t];
                    let small_hist = self.target_hists.pop().expect("one histogram per target");
                    let mut large_hist = std::mem::take(&mut self.arena[parent as usize].hist);
                    subtract_hist(&mut large_hist, &small_hist);
                    let Fate::Split { left, right, .. } = self.arena[parent as usize].fate.clone()
                    else {
                        unreachable!("confirmed splits keep their split fate")
                    };
                    let large = if small == left { right } else { left };
                    self.arena[small as usize].hist = small_hist;
                    self.arena[large as usize].hist = large_hist;
                }
            }

            self.frontier.clear();
            for i in 0..self.confirmed.len() {
                if let Fate::Split { left, right, .. } = self.arena[self.confirmed[i] as usize].fate
                {
                    self.frontier.push(left);
                    self.frontier.push(right);
                }
            }
            depth += 1;
        }
        // Return any still-held histogram buffers to the pool.
        for node in &mut self.arena {
            recycle(&mut self.hist_pool, &mut node.hist);
        }

        let mut max_depth = 0u16;
        emit(&self.arena, 0, 0, nodes.len(), nodes, &mut max_depth);
        Ok(max_depth)
    }

    /// Add the grown tree's leaf weights to the raw scores: `w` for a
    /// sampled position, `0.0 + w` for an unsampled one — the sum a
    /// flat-forest walk of its raw values produces.
    pub(crate) fn add_leaf_weights(&mut self, raw: &mut [f64]) {
        self.leaf_weight.clear();
        self.leaf_weight.resize(self.arena.len(), 0.0);
        for (w, node) in self.leaf_weight.iter_mut().zip(&self.arena) {
            if let Fate::Leaf { weight } = node.fate {
                *w = weight;
            }
        }
        for (pos, r) in raw.iter_mut().enumerate() {
            let w = self.leaf_weight[self.node_of[pos] as usize];
            *r += if self.sampled[pos] { w } else { 0.0 + w };
        }
    }
}

/// Train a boosted ensemble over a chunked matrix, streaming blocks
/// through every pass — the out-of-core form of [`crate::Booster::train`]
/// with [`crate::TreeMethod::Hist`]. Requires the histogram method; any
/// `subsample`/`colsample_bytree` runs. Bitwise equal to the in-memory
/// fit for any block size and any `workers ≥ 1` at `subsample == 1`,
/// and on one block at any subsample (see the module docs, and
/// `tests/chunked_equivalence.rs` for the pinning).
///
/// Drives a [`FitRun`] with a throwaway scratch; use
/// [`train_chunked_on`] to reuse a (per-worker) [`TreeScratch`] across
/// fits.
pub fn train_chunked(
    params: &Params,
    matrix: &mut ChunkedMatrix,
    labels: &[f64],
    workers: usize,
) -> Result<TrainReport, ChunkError> {
    let mut scratch = TreeScratch::new();
    train_chunked_on(params, matrix.view(), None, labels, workers, &mut scratch)
}

/// [`train_chunked`] over a column view and optional row list (in
/// range, block indices non-decreasing), driving the fit through a
/// borrowed [`TreeScratch`] — the entry point the sharded grid fans
/// across its worker pool.
pub fn train_chunked_on(
    params: &Params,
    view: ChunkedView<'_>,
    rows: Option<&[u32]>,
    labels: &[f64],
    workers: usize,
    scratch: &mut TreeScratch,
) -> Result<TrainReport, ChunkError> {
    FitRun::over_chunks(params, view, rows, labels, workers, scratch)?.run()
}

/// Bench/test hook: the level-wise root pass over every row and feature
/// of a one-block `matrix` (serial, at the active kernel level), returning
/// a checksum of the accumulated cells. This is the accumulation kernel
/// `bench_grid` times and `perf_check` gates; the checksum keeps the
/// work observable so the timing loop cannot be optimised away.
#[doc(hidden)]
pub fn build_hists_for_bench(matrix: &ChunkedMatrix, grad: &[f64], hess: &[f64]) -> f64 {
    let n = matrix.nrows();
    assert_eq!(grad.len(), n, "one gradient per row");
    assert_eq!(hess.len(), n, "one hessian per row");
    assert_eq!(matrix.n_blocks(), 1, "the bench pass reads one in-memory block");
    let mut pools = HistPools {
        row_of: (0..n as u32).collect(),
        blocks: vec![0],
        visit: (0..n as u32).collect(),
        visit_lo: vec![0],
        visit_hi: vec![n as u32],
        ..HistPools::default()
    };
    let features: Vec<usize> = (0..matrix.ncols()).collect();
    pools.bounds.push(0);
    for j in 0..matrix.ncols() {
        pools.bounds.push(pools.bounds[j] + matrix.cuts(j).len() + 2);
    }
    pools.target_hists.push(vec![[0.0; 2]; pools.bounds[matrix.ncols()]]);
    let level = crate::simd::active_level();
    pools
        .accumulate_pass(matrix.view(), level, 1, grad, hess, &features, true)
        .expect("in-memory blocks always load");
    pools.target_hists[0].iter().map(|c| c[0] + c[1]).sum()
}

/// Walk one tree on a bin-coded row, the code-space mirror of the
/// raw-value walk: a row goes left iff its raw value would satisfy
/// `v < threshold`. Hist thresholds are always cut values, and
/// `encode_value` puts `v` in bin `partition_point(cuts, c <= v)`, so
/// `v < t  ⟺  code <= partition_point(cuts, c < t)`; the missing
/// sentinel takes the split's default direction, exactly like NaN.
fn leaf_value_codes(nodes: &[Node], row: &[u16], view: &ChunkedView<'_>) -> f64 {
    let mut i = 0usize;
    loop {
        match &nodes[i] {
            Node::Leaf { weight, .. } => return *weight,
            Node::Split { feature, threshold, default_left, left, right, .. } => {
                let cuts = view.cuts(*feature);
                let code = row[*feature];
                let goes_left = if code == cuts.len() as u16 + 1 {
                    *default_left
                } else {
                    (code as usize) <= cuts.partition_point(|&c| c < *threshold)
                };
                i = if goes_left { *left } else { *right };
            }
        }
    }
}

/// Transformed predictions for a row list of a column view (rows in
/// range, block indices non-decreasing — any ascending list qualifies),
/// walking the booster's trees directly on the stored bin codes — no
/// feature regeneration pass. Any other row list is a typed
/// `TrainError::InvalidParam` for `rows`. Bit-identical to
/// [`crate::forest::FlatForest::predict_rows_on`] over the raw
/// feature rows: same tree order, same zero-seeded accumulator, same
/// `+ base_score` tail (IEEE addition commutes bit-for-bit), same
/// transform. `bufs` is the caller's rotating prefetch buffer pool,
/// reused across calls.
pub fn predict_rows_chunked(
    booster: &Booster,
    view: ChunkedView<'_>,
    rows: &[u32],
    bufs: &mut Vec<Vec<u16>>,
) -> Result<Vec<f64>, ChunkError> {
    let matrix = view.matrix;
    check_rows(rows.iter().map(|&r| r as usize), matrix)?;
    let (col_start, ncols) = (view.col_start, view.ncols);
    let stride = matrix.ncols();
    let block_rows = matrix.block_rows();
    let n_blocks = matrix.n_blocks();
    let mut visit = Vec::new();
    let mut ranges = vec![(0u32, 0u32); n_blocks];
    for (b, range) in ranges.iter_mut().enumerate() {
        let start = b * block_rows;
        let end = start + matrix.rows_in_block(b);
        let lo = rows.partition_point(|&r| (r as usize) < start);
        let hi = rows.partition_point(|&r| (r as usize) < end);
        *range = (lo as u32, hi as u32);
        if hi > lo {
            visit.push(b as u32);
        }
    }
    let mut out = Vec::with_capacity(rows.len());
    stream_blocks(matrix, &visit, bufs, |b, codes| {
        let base_row = b * block_rows;
        let (lo, hi) = ranges[b];
        for &row_idx in &rows[lo as usize..hi as usize] {
            let local = row_idx as usize - base_row;
            let row = &codes[local * stride + col_start..local * stride + col_start + ncols];
            let mut acc = 0.0;
            for tree in booster.trees() {
                acc += leaf_value_codes(tree.nodes(), row, &view);
            }
            out.push(booster.objective().transform(acc + booster.base_score()));
        }
    })?;
    Ok(out)
}

/// Emit `id`'s subtree (at `depth`) in DFS pre-order (node, left,
/// right) with tree-relative child links, the layout of every tree in
/// the scratch arena, noting the deepest leaf in `max_depth`. `base` is
/// the tree's start offset in the flat `nodes` arena; returned indices
/// and patched links are relative to it.
fn emit(
    arena: &[BuildNode],
    id: u32,
    depth: u16,
    base: usize,
    nodes: &mut Vec<Node>,
    max_depth: &mut u16,
) -> usize {
    let node = &arena[id as usize];
    match &node.fate {
        Fate::Leaf { weight } => {
            *max_depth = (*max_depth).max(depth);
            nodes.push(Node::Leaf { weight: *weight, cover: node.h });
            nodes.len() - 1 - base
        }
        Fate::Split { cand, left, right } => {
            nodes.push(Node::Split {
                feature: cand.feature,
                threshold: cand.threshold,
                default_left: cand.default_left,
                left: usize::MAX,
                right: usize::MAX,
                cover: node.h,
                gain: cand.gain,
            });
            let idx = nodes.len() - 1 - base;
            let l = emit(arena, *left, depth + 1, base, nodes, max_depth);
            let r = emit(arena, *right, depth + 1, base, nodes, max_depth);
            if let Node::Split { left: pl, right: pr, .. } = &mut nodes[base + idx] {
                *pl = l;
                *pr = r;
            }
            idx
        }
        Fate::Open => unreachable!("every arena node is resolved before emission"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreeMethod;

    /// Deterministic pseudo-random feature matrix with some NaNs.
    fn synth(nrows: usize, ncols: usize, missing: bool) -> Vec<f64> {
        let mut out = Vec::with_capacity(nrows * ncols);
        let mut state = 0x2545f4914f6cdd1du64;
        for i in 0..nrows {
            for j in 0..ncols {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = if missing && state.is_multiple_of(11) {
                    f64::NAN
                } else {
                    ((state >> 16) % 1000) as f64 / 8.0 + (i + j) as f64 * 0.125
                };
                out.push(v);
            }
        }
        out
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("msaw_chunk_{}_{tag}.mscb", std::process::id()))
    }

    #[test]
    fn sketch_matches_in_memory_cuts() {
        let nrows = 200;
        let ncols = 4;
        let rows = synth(nrows, ncols, true);
        let data = Matrix::from_vec(rows.clone(), nrows, ncols);
        let binned = ChunkedMatrix::fit(&data, 16);
        for chunk in [1usize, 7, 64, nrows] {
            let mut sketch = CutSketch::new(ncols);
            for block in rows.chunks(chunk * ncols) {
                sketch.update(block);
            }
            assert!(sketch.is_exact());
            let cuts = sketch.cuts(16);
            for (j, c) in cuts.iter().enumerate() {
                assert_eq!(c, binned.cuts(j), "feature {j} at chunk {chunk}");
            }
        }
    }

    #[test]
    fn sketch_thins_deterministically_beyond_capacity() {
        let rows = synth(500, 1, false);
        let mut a = CutSketch::with_capacity(1, 64);
        let mut b = CutSketch::with_capacity(1, 64);
        for block in rows.chunks(17) {
            a.update(block);
        }
        for block in rows.chunks(17) {
            b.update(block);
        }
        assert!(!a.is_exact());
        assert_eq!(a.cuts(256), b.cuts(256));
        assert!(a.cuts(256)[0].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn memory_and_disk_stores_hold_identical_codes() {
        let nrows = 130;
        let ncols = 3;
        let rows = synth(nrows, ncols, true);
        let mut sketch = CutSketch::new(ncols);
        sketch.update(&rows);
        let cuts = sketch.cuts(16);

        let mut mem = ChunkedMatrixBuilder::in_memory(cuts.clone(), 32);
        mem.push_encoded(&encode_rows(mem.cuts(), &rows)).unwrap();
        let mem = mem.finish().unwrap();

        let path = tmp_path("roundtrip");
        let mut disk = ChunkedMatrixBuilder::spilled(cuts, 32, &path).unwrap();
        for block in rows.chunks(9 * ncols) {
            disk.push_encoded(&encode_rows(disk.cuts(), block)).unwrap();
        }
        disk.finish().unwrap();
        let disk = ChunkedMatrix::open(&path).unwrap();

        assert_eq!(mem.n_blocks(), disk.n_blocks());
        assert_eq!(mem.nrows(), disk.nrows());
        assert!(disk.is_spilled() && !mem.is_spilled());
        for b in 0..mem.n_blocks() {
            let m = mem.load_block(b).unwrap().to_vec();
            let d = disk.load_block(b).unwrap().to_vec();
            assert_eq!(m, d, "block {b}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_corruption() {
        let nrows = 40;
        let ncols = 2;
        let rows = synth(nrows, ncols, false);
        let mut sketch = CutSketch::new(ncols);
        sketch.update(&rows);
        let path = tmp_path("corrupt");
        let mut b = ChunkedMatrixBuilder::spilled(sketch.cuts(8), 16, &path).unwrap();
        b.push_encoded(&encode_rows(b.cuts(), &rows)).unwrap();
        b.finish().unwrap();
        let good = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            ChunkedMatrix::open(&path),
            Err(ChunkError::Corrupt { what: "magic", .. })
        ));

        // Header bit flip breaks the header checksum.
        let mut bad = good.clone();
        bad[7] ^= 0x01; // ncols high byte
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(ChunkedMatrix::open(&path), Err(ChunkError::Corrupt { .. })));

        // Truncation breaks the length check.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(
            ChunkedMatrix::open(&path),
            Err(ChunkError::Corrupt { what: "file length", .. })
        ));

        // A flipped code byte passes open() but fails block verify.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let m = ChunkedMatrix::open(&path).unwrap();
        let err = m.load_block(m.n_blocks() - 1);
        assert!(matches!(err, Err(ChunkError::Corrupt { what: "block checksum", .. })));

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn push_encoded_rejects_codes_above_the_missing_code() {
        // No cuts: codes 0 (present) and 1 (missing) only.
        let mut b = ChunkedMatrixBuilder::in_memory(vec![vec![]], 4);
        assert!(matches!(
            b.push_encoded(&[1000, 0, 0, 0]),
            Err(ChunkError::Corrupt { what: "code range", .. })
        ));
        // Missing codes 2 and 3; the offender sits in a later row of
        // feature 1, and a rejected chunk appends nothing.
        let mut b = ChunkedMatrixBuilder::in_memory(vec![vec![0.5], vec![0.5, 1.5]], 4);
        match b.push_encoded(&[0, 3, 2, 4]) {
            Err(ChunkError::Corrupt { what: "code range", detail }) => {
                assert!(detail.contains("code 4") && detail.contains("feature 1"), "{detail}");
            }
            other => panic!("expected a code-range error, got {other:?}"),
        }
        b.push_encoded(&[0, 3, 2, 0, 1, 2, 2, 1]).unwrap();
        let mut m = b.finish().unwrap();
        assert_eq!(m.nrows(), 4);
        let params = Params {
            n_estimators: 2,
            tree_method: TreeMethod::Hist { max_bins: 8 },
            ..Params::regression()
        };
        let report = train_chunked(&params, &mut m, &[0.0, 1.0, 2.0, 3.0], 1).unwrap();
        assert_eq!(report.booster.trees().len(), 2);
    }

    #[test]
    fn a_spill_rewritten_after_its_first_pass_fails_with_a_typed_error() {
        // The first fit checksums every block; later passes skip the
        // checksum but still range-check each load, so out-of-range
        // codes written under an open matrix are a typed error, not a
        // write past a histogram.
        let nrows = 40;
        let ncols = 2;
        let rows = synth(nrows, ncols, true);
        let mut sketch = CutSketch::new(ncols);
        sketch.update(&rows);
        let labels: Vec<f64> = (0..nrows).map(|i| i as f64).collect();
        let params = Params {
            n_estimators: 2,
            tree_method: TreeMethod::Hist { max_bins: 8 },
            ..Params::regression()
        };
        // 16-row blocks take the prefetching reader, one block the
        // serial loader.
        for block_rows in [16usize, nrows] {
            let path = tmp_path(&format!("rewrite_{block_rows}"));
            let mut b = ChunkedMatrixBuilder::spilled(sketch.cuts(8), block_rows, &path).unwrap();
            b.push_encoded(&encode_rows(b.cuts(), &rows)).unwrap();
            let mut m = b.finish().unwrap();
            train_chunked(&params, &mut m, &labels, 1).unwrap();

            let mut bytes = std::fs::read(&path).unwrap();
            let len = bytes.len();
            bytes[len - 2..].copy_from_slice(&u16::MAX.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    train_chunked(&params, &mut m, &labels, 1),
                    Err(ChunkError::Corrupt { what: "code range", .. })
                ),
                "block_rows {block_rows}"
            );
            drop(m);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn train_rejects_unsupported_configurations() {
        let rows = synth(20, 2, false);
        let mut sketch = CutSketch::new(2);
        sketch.update(&rows);
        let mut b = ChunkedMatrixBuilder::in_memory(sketch.cuts(8), 8);
        b.push_encoded(&encode_rows(b.cuts(), &rows)).unwrap();
        let mut m = b.finish().unwrap();
        let labels: Vec<f64> = (0..20).map(|i| i as f64).collect();

        let exact = Params::regression();
        assert!(matches!(
            train_chunked(&exact, &mut m, &labels, 1),
            Err(ChunkError::Train(TrainError::InvalidParam { name: "tree_method", .. }))
        ));

        // Row and column subsampling both stream.
        let mut p = Params::regression();
        p.tree_method = TreeMethod::Hist { max_bins: 8 };
        p.subsample = 0.5;
        p.colsample_bytree = 0.5;
        assert!(train_chunked(&p, &mut m, &labels, 1).is_ok());

        let mut p = Params::regression();
        p.tree_method = TreeMethod::Hist { max_bins: 8 };
        assert!(matches!(
            train_chunked(&p, &mut m, &labels[..5], 1),
            Err(ChunkError::Train(TrainError::LabelLength { .. }))
        ));
    }

    /// Write a one-feature spill file with a correctly sealed header
    /// over `cuts` and one block of `codes`, bypassing the builder so
    /// the header can carry tables the builder never writes.
    fn craft_spill(path: &Path, cuts: &[f64], codes: &[u16]) {
        let mut bytes = header_bytes(&[cuts.to_vec()], codes.len(), codes.len(), 1);
        let payload: Vec<u8> = codes.iter().flat_map(|c| c.to_le_bytes()).collect();
        bytes.extend_from_slice(&fnv1a_64(&payload).to_le_bytes());
        bytes.extend_from_slice(&(codes.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn open_bounds_the_cut_table_by_the_missing_code() {
        let path = tmp_path("cut_cap");
        let params = Params {
            n_estimators: 2,
            max_depth: 2,
            tree_method: TreeMethod::Hist { max_bins: 8 },
            ..Params::regression()
        };
        let labels = [0.0, 1.0, 2.0, 3.0];

        // 65,534 cuts: the missing code is 65,535, the largest u16.
        let cuts: Vec<f64> = (0..u16::MAX as usize - 1).map(|i| i as f64).collect();
        craft_spill(&path, &cuts, &[0, 40_000, 65_534, 65_535]);
        let mut m = ChunkedMatrix::open(&path).unwrap();
        let report = train_chunked(&params, &mut m, &labels, 1).unwrap();
        assert_eq!(report.booster.trees().len(), 2);

        // One more cut would overflow the missing code.
        let cuts: Vec<f64> = (0..u16::MAX as usize).map(|i| i as f64).collect();
        craft_spill(&path, &cuts, &[0, 1, 2, 3]);
        assert!(matches!(
            ChunkedMatrix::open(&path),
            Err(ChunkError::Corrupt { what: "cut count", .. })
        ));

        // Routing needs a finite, strictly ascending table.
        for bad in [&[1.0, 3.0, 2.0][..], &[1.0, 1.0], &[0.0, f64::NAN]] {
            craft_spill(&path, bad, &[0, 1, 2, 3]);
            assert!(
                matches!(
                    ChunkedMatrix::open(&path),
                    Err(ChunkError::Corrupt { what: "cut table", .. })
                ),
                "cuts {bad:?}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
