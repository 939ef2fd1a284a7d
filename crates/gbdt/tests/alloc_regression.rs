//! Allocation regression guard for the training hot path.
//!
//! The scratch-arena contract: after the first boosting round has
//! paid the worst-case arena allocations, every later round of the
//! same [`FitRun`] — and every later fit reusing the same
//! [`TreeScratch`] — performs **zero** heap allocations. This test
//! binary installs a counting `#[global_allocator]` (test binaries get
//! their own process, so the hook is invisible to the rest of the
//! suite) and pins that contract for exact fits, in-memory histogram
//! fits at subsample 0.8 / colsample 0.8, streamed chunked fits (in
//! memory and spilled, without subsampling and at 0.8 / 0.8), and
//! pooled execution at several worker counts.
//!
//! The counter is thread-local: a worker thread's metered window only
//! sees its own allocations, so the pool's own bookkeeping (done on
//! the spawning thread) never leaks into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use msaw_gbdt::{
    encode_rows, ChunkedMatrix, ChunkedMatrixBuilder, CutSketch, FitRun, Params, TrainingContext,
    TreeMethod, TreeScratch,
};
use msaw_tabular::Matrix;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves is an allocation for our purposes: the
        // arenas are supposed to be at worst-case capacity already.
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// A deterministic training problem big enough to exercise multi-level
/// trees, missing values, and both subsampling paths.
fn problem(nrows: usize, ncols: usize) -> (Matrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..nrows)
        .map(|i| {
            (0..ncols)
                .map(|j| {
                    if (i * 7 + j * 13) % 11 == 0 {
                        f64::NAN
                    } else {
                        ((i * 31 + j * 17) % 97) as f64 * 0.25
                    }
                })
                .collect()
        })
        .collect();
    let labels: Vec<f64> =
        (0..nrows).map(|i| rows[i][0].max(0.0) + ((i % 5) as f64) * 0.5).collect();
    (Matrix::from_rows(&rows), labels)
}

fn params(method: TreeMethod) -> Params {
    Params {
        n_estimators: 12,
        max_depth: 4,
        subsample: 0.8,
        colsample_bytree: 0.8,
        tree_method: method,
        ..Params::regression()
    }
}

/// Drive one fit round-by-round, asserting every round after the first
/// allocates nothing. Returns the final booster's tree count so the
/// caller can sanity-check training actually happened.
fn assert_rounds_allocation_free(
    params: &Params,
    ctx: &TrainingContext<'_>,
    rows: &[usize],
    labels: &[f64],
    scratch: &mut TreeScratch,
    label: &str,
) -> usize {
    let run = FitRun::new(params, ctx, rows, labels, scratch).expect("valid fit");
    assert_run_allocation_free(run, label)
}

/// Step a started fit round by round, asserting every round after the
/// first allocates nothing; returns the finished model's tree count.
fn assert_run_allocation_free(mut run: FitRun<'_>, label: &str) -> usize {
    assert!(run.round().expect("round"), "at least one round must run");
    let mut rounds = 1;
    while {
        let before = alloc_count();
        let more = run.round().expect("round");
        let delta = alloc_count() - before;
        if more {
            rounds += 1;
            assert_eq!(
                delta, 0,
                "{label}: boosting round {rounds} allocated {delta} times; \
                 the scratch arenas must absorb every round after the first"
            );
        }
        more
    } {}
    let report = run.finish();
    report.booster.trees().len()
}

#[test]
fn rounds_after_the_first_do_not_allocate_exact() {
    let (data, labels) = problem(120, 8);
    let ctx = TrainingContext::new(&data);
    let rows: Vec<usize> = (0..data.nrows()).collect();
    let params = params(TreeMethod::Exact);
    let mut scratch = TreeScratch::new();
    let n_trees =
        assert_rounds_allocation_free(&params, &ctx, &rows, &labels, &mut scratch, "exact");
    assert_eq!(n_trees, params.n_estimators);
}

#[test]
fn rounds_after_the_first_do_not_allocate_hist() {
    let (data, labels) = problem(120, 8);
    let ctx = TrainingContext::new(&data);
    let rows: Vec<usize> = (0..data.nrows()).collect();
    let params = params(TreeMethod::Hist { max_bins: 32 });
    let mut scratch = TreeScratch::new();
    let n_trees =
        assert_rounds_allocation_free(&params, &ctx, &rows, &labels, &mut scratch, "hist");
    assert_eq!(n_trees, params.n_estimators);
}

#[test]
fn a_second_fit_on_a_used_scratch_is_allocation_free_from_round_one() {
    // Steady-state across fits, not just across rounds: once a scratch
    // has seen a problem of this shape, a whole new fit of the same
    // shape allocates only in `FitRun::new` bookkeeping — its rounds
    // allocate nothing, including the first.
    let (data, labels) = problem(120, 8);
    let ctx = TrainingContext::new(&data);
    let rows: Vec<usize> = (0..data.nrows()).collect();
    let params = params(TreeMethod::Exact);
    let mut scratch = TreeScratch::new();
    let mut run = FitRun::new(&params, &ctx, &rows, &labels, &mut scratch).expect("valid fit");
    while run.round().unwrap() {}
    let _ = run.finish();

    let mut run = FitRun::new(&params, &ctx, &rows, &labels, &mut scratch).expect("valid fit");
    let mut rounds = 0;
    while {
        let before = alloc_count();
        let more = run.round().unwrap();
        let delta = alloc_count() - before;
        if more {
            rounds += 1;
            assert_eq!(delta, 0, "warm-scratch round {rounds} allocated {delta} times");
        }
        more
    } {}
    assert_eq!(rounds, params.n_estimators);
}

/// The chunked problem: same synthetic data cut into `block_rows`-row
/// blocks, kept in memory so the meter sees only trainer work.
fn chunked_problem(nrows: usize, ncols: usize, block_rows: usize) -> (ChunkedMatrix, Vec<f64>) {
    let (data, labels) = problem(nrows, ncols);
    let mut sketch = CutSketch::new(ncols);
    sketch.update(data.as_slice());
    let mut b = ChunkedMatrixBuilder::in_memory(sketch.cuts(32), block_rows);
    b.push_encoded(&encode_rows(b.cuts(), data.as_slice())).unwrap();
    (b.finish().unwrap(), labels)
}

/// The chunked parameter sets: the stream's default (no subsampling —
/// the ascending visit lists and the identity-feature kernels) and
/// subsample 0.8 / colsample 0.8 (the block-regrouped visit lists and
/// the drawn-feature kernels).
fn chunked_param_sets() -> [(Params, &'static str); 2] {
    let subsampled = params(TreeMethod::Hist { max_bins: 32 });
    let full = Params { subsample: 1.0, colsample_bytree: 1.0, ..subsampled.clone() };
    [(full, "subsample 1"), (subsampled, "subsample 0.8")]
}

/// Drive one chunked fit round-by-round, asserting every round after
/// the first allocates nothing.
fn assert_chunked_rounds_allocation_free(
    params: &Params,
    matrix: &ChunkedMatrix,
    labels: &[f64],
    scratch: &mut TreeScratch,
    label: &str,
) -> usize {
    let run = FitRun::over_chunks(params, matrix.view(), None, labels, 1, scratch)
        .expect("valid chunked fit");
    assert_run_allocation_free(run, label)
}

#[test]
fn chunked_rounds_after_the_first_do_not_allocate() {
    // The out-of-core contract: once round one has sized the chunk
    // pools, every later round streams blocks, builds histograms,
    // partitions and emits trees without touching the heap — across
    // several block sizes, since block count shapes the visit lists.
    for (params, set) in chunked_param_sets() {
        for block_rows in [16usize, 48, 200] {
            let (matrix, labels) = chunked_problem(120, 8, block_rows);
            let mut scratch = TreeScratch::new();
            let n_trees = assert_chunked_rounds_allocation_free(
                &params,
                &matrix,
                &labels,
                &mut scratch,
                &format!("chunked {set}, block_rows={block_rows}"),
            );
            assert_eq!(n_trees, params.n_estimators);
        }
    }
}

#[test]
fn a_second_chunked_fit_on_a_used_scratch_is_allocation_free_from_round_one() {
    // Steady state across fits — the sharded grid's execution shape:
    // a worker's scratch sees many fits of the same shape, and every
    // fit after the first must run allocation-free from round one.
    for (params, set) in chunked_param_sets() {
        let (matrix, labels) = chunked_problem(120, 8, 48);
        let mut scratch = TreeScratch::new();
        let mut run =
            FitRun::over_chunks(&params, matrix.view(), None, &labels, 1, &mut scratch).unwrap();
        while run.round().unwrap() {}
        let _ = run.finish();

        let mut run =
            FitRun::over_chunks(&params, matrix.view(), None, &labels, 1, &mut scratch).unwrap();
        let mut rounds = 0;
        while {
            let before = alloc_count();
            let more = run.round().unwrap();
            let delta = alloc_count() - before;
            if more {
                rounds += 1;
                assert_eq!(
                    delta, 0,
                    "{set}: warm-scratch chunked round {rounds} allocated {delta} times"
                );
            }
            more
        } {}
        assert_eq!(rounds, params.n_estimators);
    }
}

#[test]
fn spilled_rounds_after_the_first_do_not_allocate() {
    // A spilled fit reads its block from disk every pass. Through the
    // serial loader (one block) a pass reuses one code buffer, so
    // rounds after the first stay off the heap like in-memory ones.
    // (Prefetched passes over several blocks hand buffers to a reader
    // thread they spawn per pass.)
    let (data, labels) = problem(120, 8);
    let mut sketch = CutSketch::new(8);
    sketch.update(data.as_slice());
    let path = std::env::temp_dir().join(format!("msaw_alloc_spill_{}.mscb", std::process::id()));
    let mut b = ChunkedMatrixBuilder::spilled(sketch.cuts(32), 120, &path).unwrap();
    b.push_encoded(&encode_rows(b.cuts(), data.as_slice())).unwrap();
    let matrix = b.finish().unwrap();
    assert!(matrix.is_spilled() && matrix.n_blocks() == 1);
    for (params, set) in chunked_param_sets() {
        let mut scratch = TreeScratch::new();
        let n_trees = assert_chunked_rounds_allocation_free(
            &params,
            &matrix,
            &labels,
            &mut scratch,
            &format!("spilled {set}"),
        );
        assert_eq!(n_trees, params.n_estimators);
    }
    drop(matrix);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn pooled_workers_stay_allocation_free_at_every_width() {
    // The grid's execution shape: `try_run_scratch_on` hands each
    // worker one scratch for its whole drain. Whatever the worker
    // count, each worker's rounds after its first must allocate
    // nothing — the thread-local counter meters exactly its thread.
    let (data, labels) = problem(120, 8);
    let ctx = TrainingContext::new(&data);
    let rows: Vec<usize> = (0..data.nrows()).collect();
    let params = params(TreeMethod::Exact);
    for workers in [1usize, 2, 8] {
        let reports =
            msaw_parallel::try_run_scratch_on(workers, 8, TreeScratch::new, |scratch, job| {
                assert_rounds_allocation_free(
                    &params,
                    &ctx,
                    &rows,
                    &labels,
                    scratch,
                    &format!("worker pool width {workers}, job {job}"),
                )
            })
            .expect("no job panics");
        assert!(reports.iter().all(|&n| n == params.n_estimators));
    }
}
