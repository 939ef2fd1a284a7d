//! Out-of-core histogram training over a chunked binned matrix.
//!
//! The in-memory hist path ([`crate::Booster::train`] with
//! [`TreeMethod::Hist`]) holds the whole row-major `u16` code buffer at
//! once. This module cuts that buffer into fixed-size row blocks — kept
//! in memory or spilled to a checksummed on-disk file — and grows each
//! tree level by level, streaming the blocks through the partition and
//! histogram-accumulation passes. Peak working memory is one block of
//! codes plus the per-row scalar state boosting needs anyway
//! (`raw`/`grad`/`hess`/`node_of`), independent of how many blocks the
//! dataset spans.
//!
//! # Bit-identity to the in-memory path
//!
//! [`train_chunked`] is bitwise-equal to the in-memory hist trainer
//! (pinned by `tests/chunked_equivalence.rs`) because every float is
//! produced by the same operations in the same order:
//!
//! * **Cuts** — [`CutSketch`] merges per-chunk sorted distinct values;
//!   below its capacity the merged set *is* the column's distinct set,
//!   so [`cuts_from_distinct`] sees identical input.
//! * **Histograms** — blocks are streamed in ascending row order and
//!   rows within a block are ascending, so every `(node, feature, bin)`
//!   cell receives the same IEEE additions in the same order as the
//!   recursive grower, whose node row lists stay ascending when
//!   `subsample == 1.0`. The subtraction trick is the same two
//!   subtractions per cell.
//! * **Splits** — each node's scan calls the engine's own
//!   [`scan_hist`] over features in index order with the same
//!   [`BestTracker`], so candidate offers and tie-breaks are identical.
//! * **Tree shape** — the recursion emits nodes in DFS pre-order
//!   (parent, left subtree, right subtree); the level-order grower here
//!   re-emits its arena in exactly that order once the tree is grown.
//!
//! Worker parallelism fans the accumulation pass across *nodes* (each
//! worker owns disjoint histograms and scans each block in row order),
//! so any worker count produces the same bytes.

use crate::binning::{cuts_from_distinct, encode_value};
use crate::booster::{Booster, EvalRecord, TrainReport};

use crate::engine::TreeScratch;
use crate::error::{ChunkError, TrainError};
use crate::fnv1a_64;
use crate::params::{Params, TreeMethod};
use crate::split::{scan_hist, BestTracker, SplitCandidate, SplitConfig};
use crate::tree::{Node, Tree};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Default rows per block: 16 Ki rows of 59 features ≈ 1.9 MiB of
/// codes, big enough to amortise per-block overhead, small enough that
/// a handful of blocks fit in cache-friendly working memory.
pub const DEFAULT_BLOCK_ROWS: usize = 16 * 1024;

/// Default per-feature capacity of the [`CutSketch`]: below this many
/// distinct values the sketch is exact and the resulting cuts are
/// byte-identical to [`crate::binning::BinnedMatrix::fit`] on the
/// materialised matrix.
pub const DEFAULT_SKETCH_DISTINCT: usize = 1 << 16;

/// Magic tag of the spilled chunk file format.
const MAGIC: &[u8; 4] = b"MSCB";
/// Spill format version.
const VERSION: u16 = 1;
/// Upper bound on per-feature cut counts accepted from a spill header
/// (cuts are bounded by `max_bins − 1 < u16::MAX` at fit time).
const MAX_CUTS_PER_FEATURE: usize = u16::MAX as usize;

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
    scratch: Vec<f64>,
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
            scratch: Vec::new(),
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
        let nrows = rows.len() / ncols;
        for j in 0..ncols {
            self.scratch.clear();
            for i in 0..nrows {
                let v = rows[i * ncols + j];
                if !v.is_nan() {
                    self.scratch.push(v);
                }
            }
            if self.scratch.is_empty() {
                continue;
            }
            self.scratch.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
            self.scratch.dedup();
            let merged = merge_distinct(&self.cols[j], &self.scratch);
            self.cols[j] = merged;
            if self.cols[j].len() > self.capacity {
                thin_even(&mut self.cols[j], self.capacity);
                self.thinned[j] = true;
            }
        }
    }

    /// Absorb another sketch over the same features — the reduction the
    /// parallel pass-1 fan-out uses. While every column is still exact,
    /// merging distinct sets is associative and commutative, so the
    /// result is independent of how the input chunks were grouped into
    /// per-worker sketches; once capacity forces thinning, the merge
    /// stays deterministic in merge order (the scale pipeline always
    /// merges in ascending chunk order).
    pub fn merge(&mut self, other: &CutSketch) {
        assert_eq!(self.cols.len(), other.cols.len(), "sketch width mismatch");
        assert_eq!(self.capacity, other.capacity, "sketch capacity mismatch");
        for j in 0..self.cols.len() {
            if other.cols[j].is_empty() {
                self.thinned[j] |= other.thinned[j];
                continue;
            }
            self.cols[j] = merge_distinct(&self.cols[j], &other.cols[j]);
            self.thinned[j] |= other.thinned[j];
            if self.cols[j].len() > self.capacity {
                thin_even(&mut self.cols[j], self.capacity);
                self.thinned[j] = true;
            }
        }
    }

    /// Derive the per-feature cut sets, exactly as the in-memory fit
    /// derives them from each column's distinct values.
    pub fn cuts(&self, max_bins: u16) -> Vec<Vec<f64>> {
        self.cols.iter().map(|d| cuts_from_distinct(d, max_bins)).collect()
    }
}

/// Merge two sorted deduplicated runs into one.
fn merge_distinct(a: &[f64], b: &[f64]) -> Vec<f64> {
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

    /// Encode and append a row-major chunk of raw feature values
    /// (`rows.len()` must be a multiple of the feature count).
    pub fn push_rows(&mut self, rows: &[f64]) -> Result<(), ChunkError> {
        assert!(rows.len().is_multiple_of(self.ncols), "row-major chunk width mismatch");
        for row in rows.chunks_exact(self.ncols) {
            for (j, &v) in row.iter().enumerate() {
                self.current.push(encode_value(v, &self.cuts[j]));
            }
            self.nrows += 1;
            if self.current.len() == self.block_rows * self.ncols {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    /// The builder's cut tables (what [`encode_rows`] must be given so
    /// [`ChunkedMatrixBuilder::push_encoded`] appends the exact codes
    /// [`ChunkedMatrixBuilder::push_rows`] would produce).
    pub fn cuts(&self) -> &[Vec<f64>] {
        &self.cuts
    }

    /// Append a chunk of already-encoded codes (row-major, a multiple
    /// of the feature count). This is the reassembly half of the
    /// parallel pass-2 fan-out: workers encode their chunks off-thread
    /// with [`encode_rows`] and the builder appends them in chunk
    /// order, so block boundaries — and therefore the sealed spill
    /// bytes — are identical to a serial [`push_rows`] build.
    pub fn push_encoded(&mut self, codes: &[u16]) -> Result<(), ChunkError> {
        assert!(codes.len().is_multiple_of(self.ncols), "row-major chunk width mismatch");
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
            Some(w) => {
                let disk = w.seal(self.nrows)?;
                Store::Disk(disk)
            }
            None => Store::Memory { blocks: self.blocks },
        };
        Ok(ChunkedMatrix {
            cuts: self.cuts,
            ncols: self.ncols,
            nrows: self.nrows,
            block_rows: self.block_rows,
            store,
            prefetch: true,
        })
    }
}

/// Encode a row-major chunk of raw feature values against fixed cut
/// tables, off the builder — the per-worker half of the parallel
/// pass-2 fan-out. Produces exactly the codes
/// [`ChunkedMatrixBuilder::push_rows`] would emit for the same chunk.
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
    cuts_len: Vec<usize>,
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
            cuts_len: cuts.iter().map(|c| c.len()).collect(),
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

    fn seal(mut self, nrows: usize) -> Result<DiskStore, ChunkError> {
        // Rebuild the header with the final counts; the cuts region is
        // already on disk and unchanged, so it is read back to keep the
        // checksum over the true bytes.
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&(self.cuts_len.len() as u32).to_le_bytes());
        header.extend_from_slice(&(self.block_rows as u32).to_le_bytes());
        header.extend_from_slice(&(nrows as u64).to_le_bytes());
        header.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        let fixed = header.len();
        let cuts_region_len = self.header_len as usize - fixed - 8;
        let mut cuts_region = vec![0u8; cuts_region_len];
        self.file.seek(SeekFrom::Start(fixed as u64))?;
        self.file.read_exact(&mut cuts_region)?;
        header.extend_from_slice(&cuts_region);
        let sum = fnv1a_64(&header);
        header.extend_from_slice(&sum.to_le_bytes());
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
            verified,
        })
    }
}

/// The on-disk half of a spilled [`ChunkedMatrix`]: block offsets, lazy
/// checksum verification, and one reusable decode buffer. Reads are
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
    verified: Vec<AtomicBool>,
}

#[derive(Debug)]
enum Store {
    Memory { blocks: Vec<Vec<u16>> },
    Disk(DiskStore),
}

/// A binned matrix cut into fixed-size row blocks — the out-of-core
/// counterpart of [`crate::binning::BinnedMatrix`]. Blocks live in
/// memory or in a checksummed spill file; either way
/// [`train_chunked`] streams them in ascending order and never holds
/// more than one at a time (disk) or a borrowed slice (memory).
#[derive(Debug)]
pub struct ChunkedMatrix {
    cuts: Vec<Vec<f64>>,
    ncols: usize,
    nrows: usize,
    block_rows: usize,
    store: Store,
    /// Overlap spilled block reads with compute (on by default; the
    /// equivalence tests toggle it off to pin the non-overlapped path).
    prefetch: bool,
}

impl ChunkedMatrix {
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
    /// checksum-verified lazily on first load.
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
                return Err(corrupt("cut count", format!("feature {j} claims {n_cuts} cuts")));
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
            cuts,
            ncols,
            nrows,
            block_rows,
            store: Store::Disk(DiskStore {
                file,
                path: path.to_path_buf(),
                offsets,
                rows,
                verified: (0..n_blocks).map(|_| AtomicBool::new(false)).collect(),
            }),
            prefetch: true,
        })
    }

    /// Path of the spill file, when spilled.
    pub fn spill_path(&self) -> Option<&Path> {
        match &self.store {
            Store::Disk(d) => Some(&d.path),
            Store::Memory { .. } => None,
        }
    }

    /// Turn off (or back on) prefetching of spilled blocks. Purely a
    /// scheduling knob: trained models are bitwise identical either way
    /// (pinned by `tests/chunked_equivalence.rs`).
    pub fn set_prefetch(&mut self, on: bool) {
        self.prefetch = on;
    }

    /// Whether block streaming should overlap reads with compute.
    fn prefetch_on(&self) -> bool {
        self.prefetch && self.is_spilled()
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
    /// into a fresh buffer. Disk blocks are checksum- and
    /// range-verified on first load. Test-only: the trainer streams
    /// through [`stream_blocks`] with rotating buffers instead.
    #[cfg(test)]
    fn load_block(&self, b: usize) -> Result<Vec<u16>, ChunkError> {
        let expect_rows = self.rows_in_block(b);
        match &self.store {
            Store::Memory { blocks } => Ok(blocks[b].clone()),
            Store::Disk(d) => {
                let mut buf = Vec::new();
                load_disk_block_into(
                    &d.file,
                    &d.path,
                    &d.offsets,
                    &d.rows,
                    &d.verified,
                    &self.cuts,
                    b,
                    expect_rows,
                    &mut buf,
                )?;
                Ok(buf)
            }
        }
    }
}

/// A borrowed view of a [`ChunkedMatrix`] restricted to a contiguous
/// column range — what [`ChunkedFitRun`] trains on. The full-width view
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

    /// Row count (views never restrict rows; [`ChunkedFitRun`] does).
    pub fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    /// Cut points of view feature `j`.
    pub fn cuts(&self, feature: usize) -> &[f64] {
        self.matrix.cuts(self.col_start + feature)
    }
}

/// Read, verify (first time) and decode one spilled block into `out`.
/// The payload is read positionally straight into the code buffer's
/// byte view — on little-endian targets the wire format *is* the
/// in-memory layout, so there is no per-element decode loop; big-endian
/// targets byte-swap in place after checksumming the wire bytes.
#[allow(clippy::too_many_arguments)]
fn load_disk_block_into(
    file: &File,
    path: &Path,
    offsets: &[u64],
    rows: &[u32],
    verified: &[AtomicBool],
    cuts: &[Vec<f64>],
    b: usize,
    expect_rows: usize,
    out: &mut Vec<u16>,
) -> Result<(), ChunkError> {
    let mut head = [0u8; 12];
    pread_exact(file, path, offsets[b], &mut head)?;
    let stored_sum = u64::from_le_bytes(head[0..8].try_into().unwrap());
    let stored_rows = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
    if stored_rows != expect_rows || stored_rows != rows[b] as usize {
        return Err(ChunkError::Corrupt {
            what: "block rows",
            detail: format!("block {b}: stored {stored_rows}, expected {expect_rows}"),
        });
    }
    let ncols = cuts.len();
    let n_codes = expect_rows * ncols;
    out.clear();
    out.resize(n_codes, 0);
    let verify = !verified[b].load(Ordering::Acquire);
    {
        // SAFETY: a `u16` buffer viewed as bytes is always valid —
        // same allocation, `2 × n_codes` bytes, no alignment demand on
        // `u8`, and every bit pattern is a valid `u16`.
        let byte_view =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), n_codes * 2) };
        pread_exact(file, path, offsets[b] + 12, byte_view)?;
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
    if verify {
        // Range-check codes once so histogram indexing can trust them:
        // code ≤ missing code for its column.
        for (i, &code) in out.iter().enumerate() {
            let j = i % ncols;
            let missing = cuts[j].len() as u16 + 1;
            if code > missing {
                return Err(ChunkError::Corrupt {
                    what: "code range",
                    detail: format!(
                        "block {b}: code {code} exceeds missing sentinel {missing} \
                         for feature {j}"
                    ),
                });
            }
        }
        verified[b].store(true, Ordering::Release);
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
/// matrices with prefetching on overlap I/O with compute: a reader
/// thread loads (and first-time-verifies) block *k+1* while `f` works
/// on block *k*, rotating two persistent code buffers through a pair of
/// channels — steady state moves buffers, never allocates. The call
/// order of `f` is identical on every path, so training is bitwise
/// unaffected by the store kind or the prefetch toggle.
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
    if !matrix.prefetch_on() || block_list.len() < 2 {
        let mut buf = bufs.pop().unwrap_or_default();
        let mut result = Ok(());
        for &b in block_list {
            let b = b as usize;
            if let Err(e) = load_disk_block_into(
                &d.file,
                &d.path,
                &d.offsets,
                &d.rows,
                &d.verified,
                &matrix.cuts,
                b,
                matrix.rows_in_block(b),
                &mut buf,
            ) {
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
                let loaded = load_disk_block_into(
                    &d.file,
                    &d.path,
                    &d.offsets,
                    &d.rows,
                    &d.verified,
                    &matrix.cuts,
                    b,
                    matrix.rows_in_block(b),
                    &mut buf,
                );
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
// Out-of-core training
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

/// Resolve position `pos` of the training view to its matrix row.
/// `None` trains on every row (position == row); `Some` trains on a
/// strictly ascending row subset.
#[inline(always)]
fn row_at(rows: Option<&[u32]>, pos: usize) -> usize {
    match rows {
        None => pos,
        Some(rs) => rs[pos] as usize,
    }
}

/// Accumulate one block's positions into the histograms of the
/// `my_targets` nodes owned by this worker. `owner_of[node] == target
/// index` (or `u32::MAX`); positions are visited in ascending order so
/// each cell sees the same IEEE additions as the in-memory grower.
#[allow(clippy::too_many_arguments)]
fn accumulate_targets(
    codes: &[u16],
    stride: usize,
    col_start: usize,
    ncols: usize,
    base_row: usize,
    lo: usize,
    hi: usize,
    rows: Option<&[u32]>,
    bounds: &[usize],
    node_of: &[u32],
    owner_of: &[u32],
    grad: &[f64],
    hess: &[f64],
    my_targets: std::ops::Range<usize>,
    hists: &mut [Vec<[f64; 2]>],
) {
    for pos in lo..hi {
        let t = owner_of[node_of[pos] as usize];
        if t == u32::MAX || !my_targets.contains(&(t as usize)) {
            continue;
        }
        let hist = &mut hists[t as usize - my_targets.start];
        let local = row_at(rows, pos) - base_row;
        let row = &codes[local * stride + col_start..local * stride + col_start + ncols];
        let (g, h) = (grad[pos], hess[pos]);
        for (j, &code) in row.iter().enumerate() {
            let cell = &mut hist[bounds[j] + code as usize];
            cell[0] += g;
            cell[1] += h;
        }
    }
}

/// Feature-parallel twin of [`accumulate_targets`] for the
/// single-target case (the root pass every round, and levels that left
/// only one small child): workers own disjoint *feature ranges* of one
/// histogram instead of disjoint nodes. Every cell still receives the
/// same additions in ascending position order — the split is across
/// cells, never within one — so the result is bitwise identical to the
/// serial pass for any worker count.
#[allow(clippy::too_many_arguments)]
fn accumulate_features_parallel(
    codes: &[u16],
    stride: usize,
    col_start: usize,
    base_row: usize,
    lo: usize,
    hi: usize,
    rows: Option<&[u32]>,
    owner: Option<(&[u32], &[u32])>,
    bounds: &[usize],
    grad: &[f64],
    hess: &[f64],
    workers: usize,
    hist: &mut [[f64; 2]],
) {
    let ncols = bounds.len() - 1;
    let per = ncols.div_ceil(workers.min(ncols));
    std::thread::scope(|s| {
        let mut rest = hist;
        let mut consumed = 0usize;
        let mut j0 = 0usize;
        while j0 < ncols {
            let j1 = (j0 + per).min(ncols);
            let (part, tail) = rest.split_at_mut(bounds[j1] - consumed);
            rest = tail;
            consumed = bounds[j1];
            let range = j0..j1;
            s.spawn(move || {
                let offset = bounds[range.start];
                for pos in lo..hi {
                    if let Some((node_of, owner_of)) = owner {
                        if owner_of[node_of[pos] as usize] != 0 {
                            continue;
                        }
                    }
                    let local = row_at(rows, pos) - base_row;
                    let row = &codes[local * stride + col_start..];
                    let (g, h) = (grad[pos], hess[pos]);
                    for j in range.clone() {
                        let cell = &mut part[bounds[j] - offset + row[j] as usize];
                        cell[0] += g;
                        cell[1] += h;
                    }
                }
            });
            j0 = j1;
        }
    });
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

/// Per-fit buffer arena for the chunked trainer — the out-of-core
/// counterpart of the engine pools inside [`TreeScratch`], where it
/// lives as the `chunk` field. [`ChunkedFitRun::new`] sizes every
/// buffer to the fit's worst case (tree arena, routing maps, histogram
/// pool, per-position scalars, prefetch code buffers), so steady-state
/// rounds perform zero heap allocations, pinned by
/// `tests/alloc_regression.rs`.
#[derive(Debug, Default)]
pub(crate) struct ChunkPools {
    /// Position-indexed raw scores / gradients / hessians / node ids.
    raw: Vec<f64>,
    grad: Vec<f64>,
    hess: Vec<f64>,
    node_of: Vec<u32>,
    /// Histogram layout: view feature `j` owns `bounds[j]..bounds[j+1]`.
    bounds: Vec<usize>,
    /// Blocks with at least one training position, ascending.
    visit_blocks: Vec<u32>,
    /// Per-block position ranges (`block_lo[b]..block_hi[b]`).
    block_lo: Vec<u32>,
    block_hi: Vec<u32>,
    /// Level-order build arena of the current tree.
    arena: Vec<BuildNode>,
    frontier: Vec<u32>,
    splitting: Vec<u32>,
    confirmed: Vec<u32>,
    route_of: Vec<Option<Route>>,
    owner_of: Vec<u32>,
    targets: Vec<(u32, u32)>,
    small_hists: Vec<Vec<[f64; 2]>>,
    hist_pool: Vec<Vec<[f64; 2]>>,
    leaf_weight: Vec<f64>,
    /// Flat node arena across rounds; tree `t` occupies
    /// `nodes[tree_starts[t]..tree_starts[t + 1]]`.
    nodes: Vec<Node>,
    tree_starts: Vec<usize>,
    /// Rotating code buffers for the spilled-block prefetcher.
    prefetch: Vec<Vec<u16>>,
}

/// Reject a row subset that is not strictly ascending or reaches past
/// the matrix's `nrows` — the order every chunked row walk (training
/// positions, per-block prediction ranges) relies on.
fn check_rows(rows: &[u32], nrows: usize) -> Result<(), ChunkError> {
    let ascending = rows.windows(2).all(|w| w[0] < w[1]);
    if !ascending || rows.last().is_some_and(|&r| r as usize >= nrows) {
        return Err(TrainError::InvalidParam {
            name: "rows",
            message: format!("rows must be strictly ascending and below {nrows}"),
        }
        .into());
    }
    Ok(())
}

/// An in-progress chunked fit, the out-of-core mirror of
/// [`crate::FitRun`]: [`ChunkedFitRun::new`] validates and sizes the
/// scratch, each [`ChunkedFitRun::round`] streams the matrix blocks
/// through the root, partition and accumulation passes of one boosting
/// round, and [`ChunkedFitRun::finish`] materialises the model. All
/// per-round buffers live in the borrowed [`TreeScratch`]'s chunk
/// arena, so driving many fits through one (per-worker) scratch keeps
/// steady-state rounds allocation-free.
///
/// `rows` optionally restricts training to a strictly ascending row
/// subset (the sharded grid trains fold fits this way); positions —
/// labels, gradients, raw scores — then index the subset, exactly like
/// the in-memory engine's position space.
pub struct ChunkedFitRun<'a> {
    params: &'a Params,
    matrix: &'a ChunkedMatrix,
    col_start: usize,
    ncols: usize,
    rows: Option<&'a [u32]>,
    labels: &'a [f64],
    workers: usize,
    pools: &'a mut ChunkPools,
    cfg: SplitConfig,
    base_score: f64,
    total_slots: usize,
    history: Vec<EvalRecord>,
    round: usize,
}

impl<'a> ChunkedFitRun<'a> {
    /// Start a chunked fit over (a column view of) a chunked matrix,
    /// with the same validation as [`train_chunked`]. `labels` has one
    /// entry per training position (`rows.len()`, or every matrix row
    /// when `rows` is `None`).
    pub fn new(
        params: &'a Params,
        view: ChunkedView<'a>,
        rows: Option<&'a [u32]>,
        labels: &'a [f64],
        workers: usize,
        scratch: &'a mut TreeScratch,
    ) -> Result<ChunkedFitRun<'a>, ChunkError> {
        params.validate().map_err(ChunkError::Train)?;
        if !matches!(params.tree_method, TreeMethod::Hist { .. }) {
            return Err(TrainError::InvalidParam {
                name: "tree_method",
                message: "chunked training requires the histogram method".to_string(),
            }
            .into());
        }
        if params.subsample < 1.0 {
            return Err(TrainError::InvalidParam {
                name: "subsample",
                message: "chunked training requires subsample == 1.0".to_string(),
            }
            .into());
        }
        if params.colsample_bytree < 1.0 {
            return Err(TrainError::InvalidParam {
                name: "colsample_bytree",
                message: "chunked training requires colsample_bytree == 1.0".to_string(),
            }
            .into());
        }
        let matrix = view.matrix;
        let n_positions = match rows {
            None => matrix.nrows(),
            Some(rs) => rs.len(),
        };
        if n_positions == 0 {
            return Err(TrainError::EmptyDataset.into());
        }
        if let Some(rs) = rows {
            check_rows(rs, matrix.nrows())?;
        }
        if labels.len() != n_positions {
            return Err(TrainError::LabelLength { rows: n_positions, labels: labels.len() }.into());
        }
        params.objective.validate_labels(labels).map_err(ChunkError::Train)?;
        let workers = workers.max(1);
        let pools = &mut scratch.chunk;

        // Histogram layout shared by every node: view feature `j` owns
        // slots `bounds[j]..bounds[j + 1]` — bins `0..=cuts` plus the
        // missing slot, exactly the in-memory `NodeHists` layout.
        pools.bounds.clear();
        pools.bounds.reserve(view.ncols + 1);
        pools.bounds.push(0);
        for j in 0..view.ncols {
            let prev = pools.bounds[j];
            pools.bounds.push(prev + view.cuts(j).len() + 2);
        }
        let total_slots = pools.bounds[view.ncols];
        let cfg = SplitConfig {
            lambda: params.lambda,
            gamma: params.gamma,
            min_child_weight: params.min_child_weight,
        };

        // Which blocks hold training positions, and which position
        // range each covers (`rows` is ascending, so positions within a
        // block are contiguous).
        let n_blocks = matrix.n_blocks();
        pools.visit_blocks.clear();
        pools.visit_blocks.reserve(n_blocks);
        pools.block_lo.clear();
        pools.block_lo.resize(n_blocks, 0);
        pools.block_hi.clear();
        pools.block_hi.resize(n_blocks, 0);
        for b in 0..n_blocks {
            let start = b * matrix.block_rows();
            let end = start + matrix.rows_in_block(b);
            let (lo, hi) = match rows {
                None => (start, end),
                Some(rs) => (
                    rs.partition_point(|&r| (r as usize) < start),
                    rs.partition_point(|&r| (r as usize) < end),
                ),
            };
            pools.block_lo[b] = lo as u32;
            pools.block_hi[b] = hi as u32;
            if hi > lo {
                pools.visit_blocks.push(b as u32);
            }
        }

        let base_score = params.objective.base_score(labels);
        pools.raw.clear();
        pools.raw.resize(n_positions, base_score);
        pools.grad.clear();
        pools.grad.resize(n_positions, 0.0);
        pools.hess.clear();
        pools.hess.resize(n_positions, 0.0);
        pools.node_of.clear();
        pools.node_of.resize(n_positions, 0);

        // Worst-case arena sizing: a full binary tree of the allowed
        // depth, capped by the leaves-need-a-row bound.
        let depth_cap = if params.max_depth + 1 >= usize::BITS as usize {
            usize::MAX
        } else {
            (1usize << (params.max_depth + 1)) - 1
        };
        let per_tree = depth_cap.min(2 * n_positions - 1);
        pools.arena.reserve(per_tree);
        pools.route_of.reserve(per_tree);
        pools.owner_of.reserve(per_tree);
        pools.leaf_weight.reserve(per_tree);
        pools.frontier.reserve(per_tree);
        pools.splitting.reserve(per_tree);
        pools.confirmed.reserve(per_tree);
        pools.targets.reserve(per_tree);
        pools.small_hists.reserve(per_tree);
        pools.nodes.clear();
        pools.nodes.reserve(per_tree * params.n_estimators);
        pools.tree_starts.clear();
        pools.tree_starts.reserve(params.n_estimators);
        // Pre-fill the histogram pool to the level-order worst case
        // (every node of the widest two levels holding a buffer), so no
        // later round has to mint one whatever shape its tree takes.
        let want_hists = per_tree.min(depth_cap);
        for h in &mut pools.hist_pool {
            h.clear();
            h.reserve(total_slots);
        }
        while pools.hist_pool.len() < want_hists {
            pools.hist_pool.push(Vec::with_capacity(total_slots));
        }

        Ok(ChunkedFitRun {
            params,
            matrix,
            col_start: view.col_start,
            ncols: view.ncols,
            rows,
            labels,
            workers,
            pools,
            cfg,
            base_score,
            total_slots,
            history: Vec::with_capacity(params.n_estimators),
            round: 0,
        })
    }

    /// Execute one boosting round, streaming every pass over the
    /// matrix blocks. Returns `Ok(false)` (without doing any work) once
    /// all rounds have run, so `while run.round()? {}` drives a fit to
    /// completion.
    pub fn round(&mut self) -> Result<bool, ChunkError> {
        if self.round >= self.params.n_estimators {
            return Ok(false);
        }
        let params = self.params;
        let matrix = self.matrix;
        let (col_start, ncols) = (self.col_start, self.ncols);
        let stride = matrix.ncols();
        let block_rows = matrix.block_rows();
        let (workers, rows_idx, total_slots) = (self.workers, self.rows, self.total_slots);
        let pools = &mut *self.pools;
        params.objective.grad_hess(self.labels, &pools.raw, &mut pools.grad, &mut pools.hess);

        // --- Grow one tree, level by level -------------------------
        pools.node_of.fill(0);
        pools.arena.clear();
        let root_g: f64 = pools.grad.iter().sum();
        let root_h: f64 = pools.hess.iter().sum();
        let mut root_hist = take_hist(&mut pools.hist_pool, total_slots);
        {
            let ChunkPools {
                visit_blocks, block_lo, block_hi, bounds, grad, hess, prefetch, ..
            } = pools;
            let root_hist = &mut root_hist;
            stream_blocks(matrix, visit_blocks, prefetch, |b, codes| {
                let base_row = b * block_rows;
                let (lo, hi) = (block_lo[b] as usize, block_hi[b] as usize);
                if workers > 1 && ncols >= 2 && (hi - lo) * ncols >= FEATURE_PAR_MIN_CELLS {
                    accumulate_features_parallel(
                        codes, stride, col_start, base_row, lo, hi, rows_idx, None, bounds, grad,
                        hess, workers, root_hist,
                    );
                } else {
                    for pos in lo..hi {
                        let local = row_at(rows_idx, pos) - base_row;
                        let row =
                            &codes[local * stride + col_start..local * stride + col_start + ncols];
                        let (g, h) = (grad[pos], hess[pos]);
                        for (j, &code) in row.iter().enumerate() {
                            let cell = &mut root_hist[bounds[j] + code as usize];
                            cell[0] += g;
                            cell[1] += h;
                        }
                    }
                }
            })?;
        }
        let n_positions = pools.raw.len();
        pools.arena.push(BuildNode {
            g: root_g,
            h: root_h,
            n_rows: n_positions,
            fate: Fate::Open,
            hist: root_hist,
        });

        pools.frontier.clear();
        pools.frontier.push(0);
        let mut depth = 0usize;
        while !pools.frontier.is_empty() {
            // Decide every frontier node: leaf out, or pick a split
            // with the engine's own scanner (same offers, same
            // tie-breaks as the recursive grower).
            pools.splitting.clear();
            for i in 0..pools.frontier.len() {
                let id = pools.frontier[i];
                let node = &pools.arena[id as usize];
                let (g, h) = (node.g, node.h);
                let cand = if depth >= params.max_depth || node.n_rows < 2 {
                    None
                } else {
                    let mut tracker = BestTracker::new(self.cfg, g, h);
                    for j in 0..ncols {
                        scan_hist(
                            j,
                            matrix.cuts(col_start + j),
                            &node.hist[pools.bounds[j]..pools.bounds[j + 1]],
                            g,
                            h,
                            &mut tracker,
                        );
                    }
                    tracker.best
                };
                match cand {
                    None => {
                        let weight = -g / (h + params.lambda) * params.learning_rate;
                        let node = &mut pools.arena[id as usize];
                        node.fate = Fate::Leaf { weight };
                        pools.hist_pool.push(std::mem::take(&mut node.hist));
                    }
                    Some(cand) => {
                        let left = pools.arena.len() as u32;
                        let right = left + 1;
                        pools.arena.push(BuildNode {
                            g: cand.left_grad,
                            h: cand.left_hess,
                            n_rows: 0,
                            fate: Fate::Open,
                            hist: Vec::new(),
                        });
                        pools.arena.push(BuildNode {
                            g: cand.right_grad,
                            h: cand.right_hess,
                            n_rows: 0,
                            fate: Fate::Open,
                            hist: Vec::new(),
                        });
                        pools.arena[id as usize].fate = Fate::Split { cand, left, right };
                        pools.splitting.push(id);
                    }
                }
            }
            if pools.splitting.is_empty() {
                break;
            }

            // Partition pass: stream blocks in ascending position
            // order and route each position of a splitting node to its
            // child — the same in-band-code routing as the recursive
            // grower.
            pools.route_of.clear();
            pools.route_of.resize(pools.arena.len(), None);
            for i in 0..pools.splitting.len() {
                let id = pools.splitting[i] as usize;
                if let Fate::Split { cand, left, right } = &pools.arena[id].fate {
                    let cuts = matrix.cuts(col_start + cand.feature);
                    pools.route_of[id] = Some(Route {
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
                let ChunkPools {
                    visit_blocks,
                    block_lo,
                    block_hi,
                    node_of,
                    arena,
                    route_of,
                    prefetch,
                    ..
                } = pools;
                stream_blocks(matrix, visit_blocks, prefetch, |b, codes| {
                    let base_row = b * block_rows;
                    for pos in block_lo[b] as usize..block_hi[b] as usize {
                        let Some(route) = route_of[node_of[pos] as usize] else { continue };
                        let local = row_at(rows_idx, pos) - base_row;
                        let code = codes[local * stride + col_start + route.feature];
                        let goes_left = if code == route.missing_code {
                            route.default_left
                        } else {
                            (code as usize) <= route.boundary
                        };
                        let child = if goes_left { route.left } else { route.right };
                        node_of[pos] = child;
                        arena[child as usize].n_rows += 1;
                    }
                })?;
            }

            // Empty-side fallback (numerical pathology, same as the
            // recursive grower): demote the split back to a leaf with
            // the node's own mass. All its rows sit in the one
            // non-empty child, which becomes a ghost carrying the same
            // weight so the score update needs no re-routing.
            pools.confirmed.clear();
            for i in 0..pools.splitting.len() {
                let id = pools.splitting[i];
                let Fate::Split { left, right, .. } = pools.arena[id as usize].fate.clone() else {
                    unreachable!("splitting nodes keep their split fate until here")
                };
                let empty_side = pools.arena[left as usize].n_rows == 0
                    || pools.arena[right as usize].n_rows == 0;
                if empty_side {
                    let node = &mut pools.arena[id as usize];
                    let weight = -node.g / (node.h + params.lambda) * params.learning_rate;
                    node.fate = Fate::Leaf { weight };
                    pools.hist_pool.push(std::mem::take(&mut node.hist));
                    pools.arena[left as usize].fate = Fate::Leaf { weight };
                    pools.arena[right as usize].fate = Fate::Leaf { weight };
                } else {
                    pools.confirmed.push(id);
                }
            }
            if pools.confirmed.is_empty() {
                break;
            }

            // Accumulation pass: build each smaller child's histogram
            // by streaming blocks (position-ascending adds), then
            // derive the larger child by the subtraction trick from the
            // parent's buffer. Workers own disjoint nodes — or, when
            // only one node needs building, disjoint feature ranges —
            // so any worker count adds the same floats in the same
            // order per cell.
            pools.owner_of.clear();
            pools.owner_of.resize(pools.arena.len(), u32::MAX);
            pools.targets.clear();
            for i in 0..pools.confirmed.len() {
                let id = pools.confirmed[i];
                let Fate::Split { left, right, .. } = pools.arena[id as usize].fate.clone() else {
                    unreachable!("confirmed splits keep their split fate")
                };
                let small =
                    if pools.arena[left as usize].n_rows <= pools.arena[right as usize].n_rows {
                        left
                    } else {
                        right
                    };
                pools.owner_of[small as usize] = pools.targets.len() as u32;
                pools.targets.push((small, id));
            }
            pools.small_hists.clear();
            for _ in 0..pools.targets.len() {
                let h = take_hist(&mut pools.hist_pool, total_slots);
                pools.small_hists.push(h);
            }
            {
                let ChunkPools {
                    visit_blocks,
                    block_lo,
                    block_hi,
                    bounds,
                    node_of,
                    owner_of,
                    grad,
                    hess,
                    targets,
                    small_hists,
                    prefetch,
                    ..
                } = pools;
                let n_targets = targets.len();
                let bounds: &[usize] = bounds;
                let node_of: &[u32] = node_of;
                let owner_of: &[u32] = owner_of;
                let grad: &[f64] = grad;
                let hess: &[f64] = hess;
                stream_blocks(matrix, visit_blocks, prefetch, |b, codes| {
                    let base_row = b * block_rows;
                    let (lo, hi) = (block_lo[b] as usize, block_hi[b] as usize);
                    if n_targets == 1
                        && workers > 1
                        && ncols >= 2
                        && (hi - lo) * ncols >= FEATURE_PAR_MIN_CELLS
                    {
                        accumulate_features_parallel(
                            codes,
                            stride,
                            col_start,
                            base_row,
                            lo,
                            hi,
                            rows_idx,
                            Some((node_of, owner_of)),
                            bounds,
                            grad,
                            hess,
                            workers,
                            &mut small_hists[0],
                        );
                    } else if workers <= 1 || n_targets < 2 {
                        accumulate_targets(
                            codes,
                            stride,
                            col_start,
                            ncols,
                            base_row,
                            lo,
                            hi,
                            rows_idx,
                            bounds,
                            node_of,
                            owner_of,
                            grad,
                            hess,
                            0..n_targets,
                            small_hists,
                        );
                    } else {
                        let n_workers = workers.min(n_targets);
                        let chunk = n_targets.div_ceil(n_workers);
                        std::thread::scope(|s| {
                            for (w, hists) in small_hists.chunks_mut(chunk).enumerate() {
                                let start = w * chunk;
                                let end = start + hists.len();
                                s.spawn(move || {
                                    accumulate_targets(
                                        codes,
                                        stride,
                                        col_start,
                                        ncols,
                                        base_row,
                                        lo,
                                        hi,
                                        rows_idx,
                                        bounds,
                                        node_of,
                                        owner_of,
                                        grad,
                                        hess,
                                        start..end,
                                        hists,
                                    );
                                });
                            }
                        });
                    }
                })?;
            }
            for t in 0..pools.targets.len() {
                let (small, parent) = pools.targets[t];
                let small_hist = std::mem::take(&mut pools.small_hists[t]);
                let mut larger_hist = std::mem::take(&mut pools.arena[parent as usize].hist);
                for (ps, cs) in larger_hist.iter_mut().zip(&small_hist) {
                    ps[0] -= cs[0];
                    ps[1] -= cs[1];
                }
                let Fate::Split { left, right, .. } = pools.arena[parent as usize].fate.clone()
                else {
                    unreachable!("confirmed splits keep their split fate")
                };
                let large = if small == left { right } else { left };
                pools.arena[small as usize].hist = small_hist;
                pools.arena[large as usize].hist = larger_hist;
            }

            pools.frontier.clear();
            for i in 0..pools.confirmed.len() {
                let id = pools.confirmed[i];
                if let Fate::Split { left, right, .. } = pools.arena[id as usize].fate {
                    pools.frontier.push(left);
                    pools.frontier.push(right);
                }
            }
            depth += 1;
        }
        // Return any still-held histogram buffers to the pool.
        for i in 0..pools.arena.len() {
            if !pools.arena[i].hist.is_empty() {
                let h = std::mem::take(&mut pools.arena[i].hist);
                pools.hist_pool.push(h);
            }
        }

        // --- Emit the arena in the recursion's DFS pre-order -------
        let tree_start = pools.nodes.len();
        pools.tree_starts.push(tree_start);
        emit(&pools.arena, 0, tree_start, &mut pools.nodes);

        // --- Score update and bookkeeping, as in `FitRun::round` ---
        pools.leaf_weight.clear();
        pools.leaf_weight.resize(pools.arena.len(), 0.0);
        for (i, node) in pools.arena.iter().enumerate() {
            if let Fate::Leaf { weight } = node.fate {
                pools.leaf_weight[i] = weight;
            }
        }
        let ChunkPools { raw, node_of, leaf_weight, .. } = pools;
        for (pos, raw_r) in raw.iter_mut().enumerate() {
            *raw_r += leaf_weight[node_of[pos] as usize];
        }
        let train_loss = params.objective.loss(self.labels, raw);
        self.history.push(EvalRecord { round: self.round, train_loss, eval_loss: None });
        self.round += 1;
        Ok(true)
    }

    /// Materialise the trained model and loss history. Trees are
    /// copied out of the scratch arena here, once per fit.
    pub fn finish(self) -> TrainReport {
        let pools = self.pools;
        let n_trees = pools.tree_starts.len();
        let mut trees: Vec<Tree> = Vec::with_capacity(n_trees);
        for t in 0..n_trees {
            let start = pools.tree_starts[t];
            let end = pools.tree_starts.get(t + 1).copied().unwrap_or(pools.nodes.len());
            trees.push(Tree::from_nodes(pools.nodes[start..end].to_vec()));
        }
        TrainReport {
            booster: Booster {
                trees,
                base_score: self.base_score,
                objective: self.params.objective,
                n_features: self.ncols,
            },
            history: self.history,
            best_round: self.params.n_estimators,
        }
    }
}

/// Train a boosted ensemble over a chunked matrix, streaming blocks
/// through every pass — the out-of-core twin of
/// [`crate::Booster::train`] with [`TreeMethod::Hist`], bitwise equal
/// to it for any block size and any `workers ≥ 1` (see the module
/// docs for the argument, `tests/chunked_equivalence.rs` for the
/// pinning).
///
/// Requires `tree_method == Hist`, `subsample == 1.0` and
/// `colsample_bytree == 1.0`: row/column subsampling would need the
/// trainer to consult a shuffled index per round, which breaks the
/// ascending-row streaming the bit-identity argument rests on.
///
/// Thin wrapper over [`ChunkedFitRun`] with a throwaway scratch; use
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

/// [`train_chunked`] over a column view and optional ascending row
/// subset, driving the fit through a borrowed [`TreeScratch`]'s chunk
/// arena — the entry point the sharded grid fans across its worker
/// pool.
pub fn train_chunked_on(
    params: &Params,
    view: ChunkedView<'_>,
    rows: Option<&[u32]>,
    labels: &[f64],
    workers: usize,
    scratch: &mut TreeScratch,
) -> Result<TrainReport, ChunkError> {
    let mut run = ChunkedFitRun::new(params, view, rows, labels, workers, scratch)?;
    while run.round()? {}
    Ok(run.finish())
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

/// Transformed predictions for an ascending row subset of a column
/// view, walking the booster's trees directly on the stored bin codes
/// — no feature regeneration pass. Rows that are not strictly
/// ascending or not below the matrix's row count are a typed
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
    check_rows(rows, matrix.nrows())?;
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

/// Emit `id`'s subtree in DFS pre-order (node, left, right) with
/// tree-relative child links — the exact order and linking the
/// recursive grower's `TreeBuf` produces. `base` is the tree's start
/// offset in the flat `nodes` arena; returned indices and patched
/// links are relative to it.
fn emit(arena: &[BuildNode], id: u32, base: usize, nodes: &mut Vec<Node>) -> usize {
    let node = &arena[id as usize];
    match &node.fate {
        Fate::Leaf { weight } => {
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
            let l = emit(arena, *left, base, nodes);
            let r = emit(arena, *right, base, nodes);
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
    use crate::binning::BinnedMatrix;
    use msaw_tabular::Matrix;

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
        let binned = BinnedMatrix::fit(&data, 16);
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
        mem.push_rows(&rows).unwrap();
        let mem = mem.finish().unwrap();

        let path = tmp_path("roundtrip");
        let mut disk = ChunkedMatrixBuilder::spilled(cuts, 32, &path).unwrap();
        for block in rows.chunks(9 * ncols) {
            disk.push_rows(block).unwrap();
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
        b.push_rows(&rows).unwrap();
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
    fn train_rejects_unsupported_configurations() {
        let rows = synth(20, 2, false);
        let mut sketch = CutSketch::new(2);
        sketch.update(&rows);
        let mut b = ChunkedMatrixBuilder::in_memory(sketch.cuts(8), 8);
        b.push_rows(&rows).unwrap();
        let mut m = b.finish().unwrap();
        let labels: Vec<f64> = (0..20).map(|i| i as f64).collect();

        let exact = Params::regression();
        assert!(matches!(
            train_chunked(&exact, &mut m, &labels, 1),
            Err(ChunkError::Train(TrainError::InvalidParam { name: "tree_method", .. }))
        ));

        let mut p = Params::regression();
        p.tree_method = TreeMethod::Hist { max_bins: 8 };
        p.subsample = 0.5;
        assert!(matches!(
            train_chunked(&p, &mut m, &labels, 1),
            Err(ChunkError::Train(TrainError::InvalidParam { name: "subsample", .. }))
        ));

        let mut p = Params::regression();
        p.tree_method = TreeMethod::Hist { max_bins: 8 };
        p.colsample_bytree = 0.5;
        assert!(matches!(
            train_chunked(&p, &mut m, &labels, 1),
            Err(ChunkError::Train(TrainError::InvalidParam { name: "colsample_bytree", .. }))
        ));

        let mut p = Params::regression();
        p.tree_method = TreeMethod::Hist { max_bins: 8 };
        assert!(matches!(
            train_chunked(&p, &mut m, &labels[..5], 1),
            Err(ChunkError::Train(TrainError::LabelLength { .. }))
        ));
    }
}
