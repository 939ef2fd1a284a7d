//! Fault-injection suite: prove the pipeline is fault-isolated, not
//! merely fault-free on happy paths.
//!
//! Two fault families, per the robustness design (DESIGN.md):
//!
//! * **Injected panics** — the `failpoint` feature arms a named site
//!   inside the grid's pooled fit jobs (`grid_fit`) or the streaming
//!   streaming pipelines' pass-1 chunk jobs (`stream_chunk`); the suite asserts a
//!   detonation surfaces as `PipelineError::Pool` carrying the *lowest*
//!   failing job index, identically at 1, 2 and 8 workers, for the
//!   in-memory grid, the sharded grid over in-memory and spilled
//!   blocks, and `run_scale`; that a failed streaming run leaves no
//!   spill or rank file behind; and that the pool leaks no threads and
//!   stays usable afterwards.
//! * **Corrupted inputs** — sample CSVs with out-of-domain cells go
//!   through the validating ingest: strict mode names the first bad
//!   row, lenient mode quarantines exactly the corrupted rows and the
//!   grid completes on the clean remainder.
//!
//! Failpoints and the pool's live-worker gauge are process-global, so
//! every test that arms a failpoint or spawns pool workers runs under
//! one mutex. A panic hook installed once for the whole suite drops the
//! injected failpoint panics and reports every other panic as usual.

use msaw_cohort::validate::ViolationReason;
use msaw_cohort::{generate, CohortConfig, CohortData};
use msaw_core::{
    grid, run_scale, try_run_full_grid_chunked, Approach, ChunkedGridConfig, ExperimentConfig,
    PipelineError, ScaleConfig,
};
use msaw_gbdt::TreeMethod;
use msaw_parallel::failpoint;
use msaw_preprocess::{
    build_samples, read_sample_csv, FeaturePanel, IngestMode, OutcomeKind, PipelineConfig,
    SampleError, SampleSet,
};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Install, once for the whole suite, a panic hook that drops injected
/// failpoint panics (the pool catches them, but the default hook would
/// still print each one) and forwards every other panic to the default
/// hook, so real failures keep their message.
fn quiet_failpoints() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            if !message.is_some_and(|m| m.starts_with("failpoint `")) {
                default(info);
            }
        }));
    });
}

/// Serialize the tests that arm failpoints or spawn pool workers, with
/// every failpoint disarmed on entry and on exit.
fn with_faults<R>(f: impl FnOnce() -> R) -> R {
    static FAULT_LOCK: Mutex<()> = Mutex::new(());
    quiet_failpoints();
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::disarm_all();
    let out = f();
    failpoint::disarm_all();
    out
}

fn cohort() -> CohortData {
    generate(&CohortConfig::small(42))
}

fn qol_set(data: &CohortData) -> SampleSet {
    let cfg = PipelineConfig::default();
    let panel = FeaturePanel::build(data, &cfg);
    build_samples(data, &panel, OutcomeKind::Qol, &cfg)
}

#[test]
fn injected_panic_is_the_same_typed_error_at_every_worker_count() {
    with_faults(|| {
        let data = cohort();
        let cfg = ExperimentConfig::fast();
        let mut seen: Vec<PipelineError> = Vec::new();
        for workers in WORKER_COUNTS {
            failpoint::disarm_all();
            // Two armed jobs: the pool must drain and report the lower
            // index no matter which worker detonates first.
            failpoint::arm("grid_fit", 5);
            failpoint::arm("grid_fit", 17);
            let err = grid::try_run_full_grid_on(workers, &data, &cfg)
                .expect_err("armed failpoints must fail the grid");
            match &err {
                PipelineError::Pool(p) => {
                    assert_eq!(p.job, 5, "workers={workers}");
                    assert!(p.message.contains("failpoint `grid_fit` fired at job 5"), "{p}");
                }
                other => panic!("expected a pool error, got {other}"),
            }
            seen.push(err);
        }
        assert!(
            seen.windows(2).all(|w| w[0] == w[1]),
            "error must be identical at every worker count: {seen:?}"
        );
    });
}

#[test]
fn pool_survives_faults_with_no_thread_leaks_and_clean_reruns() {
    with_faults(|| {
        let data = cohort();
        let cfg = ExperimentConfig::fast();
        assert_eq!(msaw_parallel::live_workers(), 0, "pool workers alive before the faults");
        for round in 0..3 {
            failpoint::disarm_all();
            failpoint::arm("grid_fit", round);
            let err = grid::try_run_full_grid_on(8, &data, &cfg).unwrap_err();
            assert!(matches!(err, PipelineError::Pool(_)));
        }
        failpoint::disarm_all();
        // Every spawned worker exited, including those whose jobs
        // panicked: nothing left running.
        assert_eq!(msaw_parallel::live_workers(), 0, "worker threads leaked");
        // And the pool is not poisoned: clean runs complete and agree
        // bit-for-bit at every worker count.
        let baseline = grid::try_run_full_grid_on(1, &data, &cfg).unwrap();
        assert_eq!(baseline.len(), 12);
        for workers in WORKER_COUNTS {
            let got = grid::try_run_full_grid_on(workers, &data, &cfg).unwrap();
            assert_eq!(got.len(), baseline.len());
            for (a, b) in got.iter().zip(&baseline) {
                assert_eq!(a.outcome, b.outcome);
                assert_eq!(a.regression, b.regression, "workers={workers}");
                assert_eq!(a.classification, b.classification, "workers={workers}");
                assert_eq!(a.cv_scores, b.cv_scores, "workers={workers}");
            }
        }
    });
}

/// A sharded grid over 64-row blocks of a stream-compatible protocol,
/// kept in memory or spilled to `spill_dir`.
fn sharded_config(spill_dir: Option<PathBuf>, workers: usize) -> ChunkedGridConfig {
    let mut exp = ExperimentConfig::fast();
    for params in [&mut exp.regression_params, &mut exp.classification_params] {
        params.tree_method = TreeMethod::Hist { max_bins: 16 };
        params.n_estimators = 8;
    }
    exp.canonical_row_order = true;
    let mut cfg = ChunkedGridConfig::new(exp);
    cfg.chunk_patients = 5;
    cfg.block_rows = 64;
    cfg.spill_dir = spill_dir;
    cfg.workers = workers;
    cfg
}

#[test]
fn sharded_grid_panics_are_the_same_typed_error_at_every_worker_count_and_store() {
    with_faults(|| {
        let cohort = CohortConfig::small(7);
        let dir = std::env::temp_dir().join(format!("msaw_fault_sharded_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let clean = try_run_full_grid_chunked(&cohort, &sharded_config(None, 1)).unwrap();
        assert!(clean.n_rows > 2 * 64, "the grid must span several blocks");
        let clean = format!("{:?}", clean.results);
        for workers in WORKER_COUNTS {
            for spill_dir in [None, Some(dir.clone())] {
                let spilled = spill_dir.is_some();
                let cfg = sharded_config(spill_dir, workers);
                failpoint::disarm_all();
                failpoint::arm("grid_fit", 5);
                failpoint::arm("grid_fit", 17);
                match try_run_full_grid_chunked(&cohort, &cfg) {
                    Err(PipelineError::Pool(p)) => {
                        assert_eq!(p.job, 5, "workers={workers} spilled={spilled}");
                        assert!(p.message.contains("failpoint `grid_fit` fired at job 5"), "{p}");
                    }
                    Err(other) => panic!("expected a pool error, got {other}"),
                    Ok(_) => panic!("armed failpoints must fail the sharded grid"),
                }
                failpoint::disarm_all();
                let rerun = try_run_full_grid_chunked(&cohort, &cfg).unwrap();
                assert_eq!(rerun.spilled, spilled);
                assert_eq!(
                    format!("{:?}", rerun.results),
                    clean,
                    "a disarmed rerun must equal the clean run (workers={workers} spilled={spilled})"
                );
            }
        }
        assert_eq!(msaw_parallel::live_workers(), 0, "worker threads leaked");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Every file left in `dir`, sorted.
fn files_in(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> =
        std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path()).collect();
    files.sort();
    files
}

#[test]
fn failed_streaming_passes_leave_no_files_and_the_same_typed_error() {
    with_faults(|| {
        let cohort = CohortConfig::small(7);
        let dir = std::env::temp_dir().join(format!("msaw_fault_stream_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scale_spill = dir.join("scale.mscb");
        let scale_cfg = |workers: usize| {
            let mut cfg = ScaleConfig::new(OutcomeKind::Qol);
            cfg.params.n_estimators = 4;
            cfg.chunk_patients = 5;
            cfg.block_rows = 64;
            cfg.workers = workers;
            cfg.spill_path = Some(scale_spill.clone());
            cfg
        };
        let grid_cfg = |workers: usize| sharded_config(Some(dir.clone()), workers);
        let mut spills =
            vec![dir.join("grid_dd_fi.mscb"), dir.join("grid_kd_fi.mscb"), scale_spill.clone()];
        spills.sort();
        let read_spills = || spills.iter().map(|p| std::fs::read(p).unwrap()).collect::<Vec<_>>();

        let clean_scale = run_scale(&cohort, &scale_cfg(1)).unwrap();
        let clean_grid =
            format!("{:?}", try_run_full_grid_chunked(&cohort, &grid_cfg(1)).unwrap().results);
        // A successful run keeps its spill files and no rank file.
        assert_eq!(files_in(&dir), spills);
        let clean_bytes = read_spills();
        assert!(cohort.total_patients() > 9 * 5, "chunk 9 must exist");

        for workers in WORKER_COUNTS {
            failpoint::disarm_all();
            failpoint::arm("stream_chunk", 3);
            failpoint::arm("stream_chunk", 9);
            // The previous clean run's spill files are still there: a
            // failed run removes what it would have written.
            let errors = [
                run_scale(&cohort, &scale_cfg(workers)).map(|_| ()).unwrap_err(),
                try_run_full_grid_chunked(&cohort, &grid_cfg(workers)).map(|_| ()).unwrap_err(),
            ];
            for err in errors {
                match err {
                    PipelineError::Pool(p) => {
                        assert_eq!(p.job, 3, "workers={workers}");
                        assert!(
                            p.message.contains("failpoint `stream_chunk` fired at job 3"),
                            "{p}"
                        );
                    }
                    other => panic!("expected a pool error, got {other}"),
                }
            }
            assert_eq!(
                files_in(&dir),
                Vec::<PathBuf>::new(),
                "a failed run left files (workers={workers})"
            );
            assert_eq!(msaw_parallel::live_workers(), 0, "worker threads leaked");

            failpoint::disarm_all();
            let rerun = run_scale(&cohort, &scale_cfg(workers)).unwrap();
            assert_eq!(rerun.train.booster, clean_scale.train.booster, "workers={workers}");
            let grid = try_run_full_grid_chunked(&cohort, &grid_cfg(workers)).unwrap();
            assert_eq!(format!("{:?}", grid.results), clean_grid, "workers={workers}");
            assert_eq!(files_in(&dir), spills);
            assert!(read_spills() == clean_bytes, "spill bytes differ at workers={workers}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Corrupt one cell of one data row of an exported sample CSV.
fn corrupt(csv: &[u8], data_row: usize, column: &str, value: &str) -> Vec<u8> {
    let text = std::str::from_utf8(csv).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let col = lines[0].split(',').position(|c| c == column).unwrap();
    let mut cells: Vec<String> = lines[1 + data_row].split(',').map(String::from).collect();
    cells[col] = value.to_string();
    lines[1 + data_row] = cells.join(",");
    (lines.join("\n") + "\n").into_bytes()
}

fn exported_csv(set: &SampleSet) -> Vec<u8> {
    let mut buf = Vec::new();
    msaw_tabular::csv::write_csv(&set.to_frame(), &mut buf).unwrap();
    buf
}

#[test]
fn lenient_ingest_quarantines_exactly_the_corrupted_rows_and_the_grid_completes() {
    let data = cohort();
    let set = qol_set(&data);
    let csv = exported_csv(&set);
    let bad = corrupt(&corrupt(&csv, 4, "label_QoL", "3.5"), 9, "steps_monthly_mean", "-250");

    let got = read_sample_csv(Cursor::new(&bad), IngestMode::Lenient).unwrap();
    let report = got.quarantine.expect("lenient mode always reports");
    assert_eq!(
        report.quarantined,
        vec![(4, ViolationReason::VasOutOfRange), (9, ViolationReason::NegativeActivity)]
    );
    assert_eq!(got.set.len(), set.len() - 2);

    // The clean remainder still carries a full experiment.
    let r = msaw_core::try_run_variant(
        &got.set,
        Approach::DataDriven,
        false,
        &ExperimentConfig::fast(),
    )
    .expect("grid must complete on the quarantined-clean subset");
    assert!(r.primary_metric().is_finite());
    assert_eq!(r.n_train + r.n_test, set.len() - 2);
}

#[test]
fn strict_ingest_names_the_first_corrupted_row() {
    let data = cohort();
    let csv = exported_csv(&qol_set(&data));
    let bad = corrupt(&corrupt(&csv, 11, "label_QoL", "2.0"), 3, "sleep_hours_monthly_mean", "-1");
    let err = read_sample_csv(Cursor::new(&bad), IngestMode::Strict).unwrap_err();
    match err {
        SampleError::Validation(msaw_cohort::validate::ValidateError::Violation(v)) => {
            assert_eq!(v.row, 3, "strict mode must report the lowest bad row");
            assert_eq!(v.reason, ViolationReason::NegativeActivity);
        }
        other => panic!("expected a strict violation, got {other}"),
    }
}

#[test]
fn clean_ingest_feeds_the_grid_identically_to_the_in_memory_set() {
    // End-to-end sanity for the no-fault path: parse → validate → grid
    // must agree with the in-memory pipeline bit for bit.
    let data = cohort();
    let set = qol_set(&data);
    let csv = exported_csv(&set);
    let cfg = ExperimentConfig::fast();

    let got = read_sample_csv(Cursor::new(&csv), IngestMode::Strict).unwrap();
    let from_disk =
        msaw_core::try_run_variant(&got.set, Approach::DataDriven, false, &cfg).unwrap();
    let in_memory = msaw_core::try_run_variant(&set, Approach::DataDriven, false, &cfg).unwrap();
    assert_eq!(from_disk.cv_scores, in_memory.cv_scores);
    assert_eq!(from_disk.regression, in_memory.regression);
}
