//! # msaw-parallel
//!
//! The workspace's one parallel execution primitive: a bounded worker
//! pool draining an indexed job list through a single atomic cursor,
//! with each output written into its job's dedicated slot.
//!
//! The contract that makes results *byte-identical at any worker count*:
//! every job must be a pure function of its index (no shared mutable
//! state, no RNG, no time), and reassembly is keyed by job index rather
//! than by completion order. Under that contract the pool only changes
//! *when* a job runs, never *what* it computes, so
//! `try_run_scratch_on(1, n, s, f) == try_run_scratch_on(k, n, s, f)`
//! for every `k`.
//!
//! There are three pool shapes, one entry point each, all taking an
//! explicit worker count: [`try_run_scratch_on`] (indexed jobs, per-worker
//! scratch), [`try_run_blocks_on`] (item blocks) and [`try_run_waves_on`]
//! (bounded waves folded in order).
//!
//! ## Panic safety
//!
//! Every entry point wraps each job in [`std::panic::catch_unwind`] and
//! returns `Err(`[`PoolError`]`)` instead of aborting the run. There
//! are no panicking variants: a caller that cannot recover turns the
//! error into a panic at its own call site. The failure policy is
//! **drain, don't short-circuit**: after a job panics the pool keeps
//! claiming and running the remaining jobs, so the reported failure is
//! always the *lowest* failing job index — a pure function of the job
//! list, never of worker count or scheduling. (Short-circuiting was
//! rejected because a higher-index failure could suppress a lower-index
//! one that another worker had not reached yet, making the report
//! scheduling-dependent.) A worker whose job panics rebuilds its
//! scratch value before the next claim, so surviving jobs never see a
//! scratch a panic may have left half-written.
//!
//! [`live_workers`] reports how many pool worker threads are alive in
//! the process — zero whenever no threaded pool run is in flight.
//!
//! [`simd`] holds the process-wide SIMD level every vector kernel in
//! the workspace dispatches on.
//!
//! Extracted from `msaw-core`'s grid runner (which fans ~72 fold/final
//! fits) so the SHAP engine can fan row batches and conditional passes
//! across the same machinery.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod simd;

/// A job inside the pool panicked.
///
/// `job` is deterministically the **lowest** panicking job index (the
/// pool drains every job before reporting), so the same inputs produce
/// the same error at any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Lowest job index whose closure panicked.
    pub job: usize,
    /// The panic payload, when it was a string (the common
    /// `panic!("...")` case); a placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for PoolError {}

/// Render a panic payload the way the default hook would.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Number of workers the machine can usefully run: one per core.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The bounded default pool size: one worker per available core, never
/// more than there are jobs, always at least one.
pub fn default_workers(n_jobs: usize) -> usize {
    available_workers().clamp(1, n_jobs.max(1))
}

/// Pool worker threads alive in this process.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of pool worker threads alive in this process right now.
///
/// The gauge rises when [`try_run_scratch_on`] spawns a worker and falls
/// when that worker exits, unwinding included; the serial one-worker
/// path spawns no thread and never moves it. Every entry point joins
/// its workers before returning, so the gauge reads zero whenever no
/// threaded pool run is in flight — a leak check needs no `/proc`.
pub fn live_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// Uncounts one worker when dropped, however its thread finishes.
struct LiveWorker;

impl Drop for LiveWorker {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run jobs `0..n_jobs` across exactly `workers` threads (clamped to
/// the job count), each worker owning a reusable scratch value built by
/// `scratch()`, and return the outputs in job-index order — the crate's
/// core primitive; every other entry point funnels here. Jobs that need
/// no scratch pass `|| ()`.
///
/// The scratch is the hook that lets e.g. a SHAP worker keep one
/// traversal arena alive across all the rows it claims. It must be a
/// pure buffer: outputs may not depend on which jobs previously touched
/// it, or determinism across worker counts is lost.
///
/// Each claimed job runs inside `catch_unwind`. On a panic the worker
/// records `(index, payload)`, drops its scratch (rebuilt lazily before
/// the next job) and keeps draining the cursor; when every job has been
/// claimed the pool reports the lowest failing index. A `scratch()`
/// panic is attributed to the job that triggered the (re)build.
pub fn try_run_scratch_on<S, T, G, F>(
    workers: usize,
    n_jobs: usize,
    scratch: G,
    job: F,
) -> Result<Vec<T>, PoolError>
where
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    // One worker's drain loop: claim from `next`, run under
    // catch_unwind, keep (index, output) pairs and any failures.
    #[allow(clippy::type_complexity)]
    fn drain<S, T, G, F>(
        next: impl Fn() -> usize,
        n_jobs: usize,
        scratch: &G,
        job: &F,
    ) -> (Vec<(usize, T)>, Vec<(usize, String)>)
    where
        G: Fn() -> S,
        F: Fn(&mut S, usize) -> T,
    {
        let mut slot: Option<S> = None;
        let mut done: Vec<(usize, T)> = Vec::new();
        let mut failed: Vec<(usize, String)> = Vec::new();
        loop {
            let i = next();
            if i >= n_jobs {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| job(slot.get_or_insert_with(scratch), i))) {
                Ok(out) => done.push((i, out)),
                Err(payload) => {
                    // The panic may have left the scratch half-written;
                    // rebuild it so surviving jobs stay deterministic.
                    slot = None;
                    failed.push((i, payload_message(payload)));
                }
            }
        }
        (done, failed)
    }

    let workers = workers.clamp(1, n_jobs.max(1));
    let mut slots: Vec<Option<T>> = (0..n_jobs).map(|_| None).collect();
    let mut failures: Vec<(usize, String)> = Vec::new();
    if workers == 1 {
        // Serial fast path: no threads, one scratch, same outputs, same
        // drain policy (every job still runs, so the reported index
        // matches the threaded path).
        let serial_cursor = AtomicUsize::new(0);
        let (done, failed) =
            drain(|| serial_cursor.fetch_add(1, Ordering::Relaxed), n_jobs, &scratch, &job);
        for (i, out) in done {
            slots[i] = Some(out);
        }
        failures = failed;
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let scratch = &scratch;
                    let job = &job;
                    LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
                    let live = LiveWorker;
                    scope.spawn(move || {
                        let _live = live;
                        drain(|| cursor.fetch_add(1, Ordering::Relaxed), n_jobs, scratch, job)
                    })
                })
                .collect();
            for handle in handles {
                let (done, failed) = handle.join().expect("pool worker panicked outside a job");
                for (i, out) in done {
                    debug_assert!(slots[i].is_none(), "each job slot is written once");
                    slots[i] = Some(out);
                }
                failures.extend(failed);
            }
        });
    }
    if let Some((job, message)) = failures.into_iter().min_by_key(|(i, _)| *i) {
        return Err(PoolError { job, message });
    }
    Ok(slots.into_iter().map(|slot| slot.expect("worker pool completed every job")).collect())
}

/// Fan items `0..n_items` across exactly `workers` threads in
/// contiguous blocks of `block_len` and flatten the per-block outputs
/// back into item order.
///
/// The blocked shape is for jobs whose per-item cost is too small to
/// amortise a pool claim — batch prediction being the canonical case:
/// each block job returns one output per item of its range, and the
/// index-ordered reassembly keeps the flattened vector byte-identical
/// at any worker count. `PoolError::job` is the failing *block* index
/// (blocks are the pool's jobs here). Zero items means zero jobs: the
/// result is `Ok(vec![])`, never an error.
pub fn try_run_blocks_on<T, F>(
    workers: usize,
    n_items: usize,
    block_len: usize,
    job: F,
) -> Result<Vec<T>, PoolError>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let block_len = block_len.max(1);
    let n_blocks = n_items.div_ceil(block_len);
    let blocks = try_run_scratch_on(
        workers,
        n_blocks,
        || (),
        |(), b| {
            let start = b * block_len;
            job(start..(start + block_len).min(n_items))
        },
    )?;
    let mut out = Vec::with_capacity(n_items);
    for block in blocks {
        out.extend(block);
    }
    Ok(out)
}

/// Why a [`try_run_waves_on`] run stopped early.
#[derive(Debug)]
pub enum WaveError<E> {
    /// A job inside a wave panicked (lowest failing index within its
    /// wave, rebased to the global job list).
    Pool(PoolError),
    /// The in-order consumer rejected a job's output; carries the
    /// consumer's own error.
    Consume(E),
}

impl<E: std::fmt::Display> std::fmt::Display for WaveError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveError::Pool(e) => write!(f, "{e}"),
            WaveError::Consume(e) => write!(f, "wave consumer failed: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for WaveError<E> {}

/// Fan jobs `0..n_jobs` across the pool in bounded waves of `wave`
/// jobs, feeding each wave's outputs to `consume` **in job-index
/// order** on the calling thread before the next wave starts.
///
/// This is the streaming-merge shape: producers are pure functions of
/// their index (the usual pool contract), the consumer is a stateful
/// fold (merging sketches, appending encoded blocks), and at most
/// `wave` outputs are ever held in memory. Because consumption order
/// is the job order regardless of `workers` or `wave`, the folded
/// result is byte-identical at any worker count — including
/// `workers == 1`, which takes the pool's serial fast path.
///
/// A consumer error stops the run before later waves launch; a panic
/// inside a wave surfaces as [`WaveError::Pool`] with the lowest
/// failing global job index of that wave (earlier waves have already
/// been consumed, later ones never start).
pub fn try_run_waves_on<T, E, F, C>(
    workers: usize,
    n_jobs: usize,
    wave: usize,
    job: F,
    mut consume: C,
) -> Result<(), WaveError<E>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, T) -> Result<(), E>,
{
    let wave = wave.max(1);
    let mut start = 0usize;
    while start < n_jobs {
        let end = (start + wave).min(n_jobs);
        let outs = try_run_scratch_on(workers, end - start, || (), |(), k| job(start + k))
            .map_err(|mut e| {
                e.job += start;
                WaveError::Pool(e)
            })?;
        for (k, out) in outs.into_iter().enumerate() {
            consume(start + k, out).map_err(WaveError::Consume)?;
        }
        start = end;
    }
    Ok(())
}

/// Test-only fault injection (feature `failpoint`): arm a named site
/// with a job index and the matching [`hit`](failpoint::hit) call
/// fires the armed action — a panic ([`arm`](failpoint::arm)) or a
/// deterministic stall ([`arm_sleep`](failpoint::arm_sleep)). Used by
/// the fault-injection suites to prove a panicking grid fit surfaces
/// as a typed error at any worker count, and to wedge the serving
/// batcher at an exact batch so queue-pressure behaviour (deadlines,
/// quotas, degradation) is testable without timing races. Compiled
/// out entirely unless the feature is enabled.
#[cfg(feature = "failpoint")]
pub mod failpoint {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::time::Duration;

    /// What an armed site does when its job hits it.
    #[derive(Clone, Copy)]
    enum Action {
        Panic,
        Sleep(Duration),
    }

    static ARMED: Mutex<Option<HashMap<String, HashMap<usize, Action>>>> = Mutex::new(None);

    fn arm_action(site: &str, job: usize, action: Action) {
        let mut armed = ARMED.lock().expect("failpoint registry");
        armed
            .get_or_insert_with(HashMap::new)
            .entry(site.to_string())
            .or_default()
            .insert(job, action);
    }

    /// Arm `site` to panic when job `job` hits it. A site may be armed
    /// for several jobs at once (to prove the pool reports the lowest
    /// failing index regardless of which worker detonates first).
    pub fn arm(site: &str, job: usize) {
        arm_action(site, job, Action::Panic);
    }

    /// Arm `site` to sleep for `delay` when job `job` hits it — a
    /// deterministic stall instead of a detonation, for tests that need
    /// work to pile up behind a known point (a wedged batcher, a slow
    /// worker) without depending on scheduler timing.
    pub fn arm_sleep(site: &str, job: usize, delay: Duration) {
        arm_action(site, job, Action::Sleep(delay));
    }

    /// Disarm every site.
    pub fn disarm_all() {
        *ARMED.lock().expect("failpoint registry") = None;
    }

    /// Fire whatever `site` is armed for at `job`. Call from production
    /// code under `#[cfg(feature = "failpoint")]`; a disarmed site is a
    /// cheap map lookup. The registry lock is released before the
    /// action runs, so a sleeping site never blocks arming or other
    /// sites.
    pub fn hit(site: &str, job: usize) {
        let action = {
            let armed = ARMED.lock().expect("failpoint registry");
            armed.as_ref().and_then(|map| map.get(site)).and_then(|jobs| jobs.get(&job)).copied()
        };
        match action {
            Some(Action::Panic) => panic!("failpoint `{site}` fired at job {job}"),
            Some(Action::Sleep(delay)) => std::thread::sleep(delay),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Scratch-free indexed jobs: the plain fan-out shape.
    fn indexed<T: Send>(
        workers: usize,
        n_jobs: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> Result<Vec<T>, PoolError> {
        try_run_scratch_on(workers, n_jobs, || (), |(), i| job(i))
    }

    #[test]
    fn outputs_are_in_index_order_at_any_worker_count() {
        let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = indexed(workers, 97, |i| i * i).unwrap();
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn zero_jobs_yield_empty_output() {
        let got: Vec<usize> = indexed(default_workers(0), 0, |i| i).unwrap();
        assert!(got.is_empty());
        let blocks: Vec<usize> = try_run_blocks_on(4, 0, 256, |r| r.collect()).unwrap();
        assert!(blocks.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        indexed(4, 50, |i| counters[i].fetch_add(1, Ordering::Relaxed)).unwrap();
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn scratch_is_per_worker_and_reused() {
        // Each worker's scratch counts the jobs it claimed; the total
        // must cover every job no matter how they were distributed.
        let claimed = AtomicUsize::new(0);
        let out = try_run_scratch_on(
            3,
            40,
            || 0usize,
            |s, i| {
                *s += 1;
                claimed.fetch_add(1, Ordering::Relaxed);
                i
            },
        )
        .unwrap();
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        assert_eq!(claimed.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn worker_count_is_clamped_to_jobs() {
        assert_eq!(default_workers(0), 1);
        assert!(default_workers(1000) >= 1);
        // More workers than jobs must still complete correctly.
        let got = indexed(32, 3, |i| i + 1).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn live_workers_counts_spawned_workers_while_they_run() {
        // The two workers meet inside their jobs before and after
        // reading the gauge, so neither has exited when the other
        // reads. (Other tests may run pools concurrently, hence `>=`;
        // the exact zero-after-join check lives in the serialized
        // fault suite.)
        let barrier = std::sync::Barrier::new(2);
        let seen = indexed(2, 2, |_| {
            barrier.wait();
            let live = live_workers();
            barrier.wait();
            live
        })
        .unwrap();
        assert!(seen.iter().all(|&n| n >= 2), "{seen:?}");
    }

    /// Silence the default panic hook for tests that intentionally
    /// panic inside jobs; restores the hook when dropped. Tests using
    /// it must hold the same lock (the hook is process-global).
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn try_reports_lowest_failing_index_at_any_worker_count() {
        quiet_panics(|| {
            for workers in [1, 2, 3, 8] {
                let err = indexed(workers, 60, |i| {
                    // Jobs 7, 23 and 41 fail; 7 must always win.
                    if i == 7 || i == 23 || i == 41 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .unwrap_err();
                assert_eq!(err.job, 7, "workers={workers}");
                assert_eq!(err.message, "boom at 7");
            }
        });
    }

    #[test]
    fn try_drains_every_job_even_after_a_failure() {
        quiet_panics(|| {
            let ran: Vec<AtomicUsize> = (0..30).map(|_| AtomicUsize::new(0)).collect();
            let err = indexed(2, 30, |i| {
                ran[i].fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    panic!("first job fails");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.job, 0);
            for (i, c) in ran.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "job {i} must still run (drain policy)");
            }
        });
    }

    #[test]
    fn scratch_is_rebuilt_after_a_panic() {
        quiet_panics(|| {
            // Serial pool: job 3 poisons its scratch then panics; later
            // jobs must observe a fresh scratch, not the poisoned one.
            let err = try_run_scratch_on(
                1,
                8,
                || 0usize,
                |s, i| {
                    if i == 3 {
                        *s = 999;
                        panic!("poisoned");
                    }
                    assert_ne!(*s, 999, "job {i} saw a scratch from a panicked job");
                    *s += 1;
                    i
                },
            )
            .unwrap_err();
            assert_eq!(err.job, 3);
        });
    }

    #[test]
    fn non_string_payloads_are_reported() {
        quiet_panics(|| {
            let err = indexed(2, 4, |i| {
                if i == 2 {
                    std::panic::panic_any(42usize);
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.job, 2);
            assert_eq!(err.message, "non-string panic payload");
        });
    }

    #[test]
    fn string_payloads_survive() {
        quiet_panics(|| {
            let err = indexed(1, 2, |i| {
                if i == 1 {
                    std::panic::panic_any(String::from("owned payload"));
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.message, "owned payload");
        });
    }

    #[test]
    fn try_blocks_reports_failing_block_index() {
        quiet_panics(|| {
            for workers in [1, 2, 8] {
                let err = try_run_blocks_on(workers, 100, 10, |r| {
                    if r.start == 30 {
                        panic!("block panic");
                    }
                    r.collect::<Vec<usize>>()
                })
                .unwrap_err();
                assert_eq!(err.job, 3, "workers={workers}");
            }
        });
    }

    #[test]
    fn waves_consume_in_index_order_at_any_worker_and_wave_size() {
        for workers in [1usize, 2, 8] {
            for wave in [1usize, 3, 50] {
                let mut seen = Vec::new();
                try_run_waves_on(
                    workers,
                    23,
                    wave,
                    |i| i * 10,
                    |i, out| {
                        seen.push((i, out));
                        Ok::<(), ()>(())
                    },
                )
                .unwrap();
                let expect: Vec<(usize, usize)> = (0..23).map(|i| (i, i * 10)).collect();
                assert_eq!(seen, expect, "workers={workers} wave={wave}");
            }
        }
    }

    #[test]
    fn wave_consumer_error_stops_later_waves() {
        let produced = AtomicUsize::new(0);
        let err = try_run_waves_on(
            2,
            20,
            4,
            |i| {
                produced.fetch_add(1, Ordering::Relaxed);
                i
            },
            |i, _| if i == 5 { Err("reject") } else { Ok(()) },
        )
        .unwrap_err();
        match err {
            WaveError::Consume(e) => assert_eq!(e, "reject"),
            other => panic!("expected Consume, got {other:?}"),
        }
        // Waves 0 and 1 (jobs 0..8) ran; the rejection at job 5 stops
        // wave 2 from launching.
        assert_eq!(produced.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn wave_pool_error_carries_global_job_index() {
        quiet_panics(|| {
            let err = try_run_waves_on(
                2,
                20,
                4,
                |i| {
                    if i == 9 {
                        panic!("boom");
                    }
                    i
                },
                |_, _| Ok::<(), ()>(()),
            )
            .unwrap_err();
            match err {
                WaveError::Pool(e) => assert_eq!(e.job, 9),
                other => panic!("expected Pool, got {other:?}"),
            }
        });
    }

    #[cfg(feature = "failpoint")]
    #[test]
    fn failpoint_fires_only_when_armed() {
        quiet_panics(|| {
            failpoint::disarm_all();
            failpoint::hit("site_a", 0); // disarmed: no panic
            failpoint::arm("site_a", 2);
            failpoint::hit("site_a", 1); // wrong job: no panic
            let err = indexed(2, 4, |i| {
                failpoint::hit("site_a", i);
                i
            })
            .unwrap_err();
            assert_eq!(err.job, 2);
            assert!(err.message.contains("failpoint `site_a`"));
            failpoint::disarm_all();
            // Disarmed again: the same run now succeeds.
            assert!(indexed(2, 4, |i| i).is_ok());
        });
    }

    #[cfg(feature = "failpoint")]
    #[test]
    fn failpoint_sleep_stalls_instead_of_panicking() {
        quiet_panics(|| {
            failpoint::disarm_all();
            failpoint::arm_sleep("site_sleep", 1, std::time::Duration::from_millis(30));
            let start = std::time::Instant::now();
            failpoint::hit("site_sleep", 0); // wrong job: no stall
            assert!(start.elapsed() < std::time::Duration::from_millis(25));
            failpoint::hit("site_sleep", 1); // armed: deterministic stall
            assert!(start.elapsed() >= std::time::Duration::from_millis(30));
            failpoint::disarm_all();
        });
    }
}
