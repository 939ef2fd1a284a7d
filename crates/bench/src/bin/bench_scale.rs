//! Scaling curves for the streaming population-scale pipeline: runs
//! the generate → rank + sketch → remap → out-of-core-fit pipeline
//! (`msaw_core::scale`) at 261 → 10k → 100k → 1M patients and records
//! per-stage wall times, per-stage worker counts, fit throughput, and
//! peak RSS into `BENCH_scale.json`. Scales run ascending so the
//! monotonic `VmHWM` reading attributes peak memory to each scale as
//! it grows; blocks spill to disk from 100k patients up, which is what
//! keeps the 1M fit inside a bounded resident set.
//!
//! The 10k point carries three extra rows:
//!
//! * `sketch_par_speedup` / `encode_par_speedup` — the fan-out's yield:
//!   serial (1-worker) stage seconds over pooled stage seconds. On a
//!   single-core box these honestly read ~1.0; the merged artifacts
//!   are byte-identical either way, so the ratio is pure wall time.
//!   The encode stage (pass 2) only remaps pass 1's ranks on the
//!   calling thread, so its ratio reads ~1.0 on any box.
//! * `spilled_fit_*` — the same 10k fit re-run against disk-spilled
//!   blocks, isolating the prefetching block reader's throughput from
//!   the in-memory path CI normally gates.
//!
//! Whatever the sweep's reach, every run also times generation alone:
//! `generate_us_per_patient` is one thread's [`CohortStream`] over
//! `scaled(42, 2000)`, microseconds per patient, median of three
//! passes. It is the one layer the stage costs below cannot separate
//! (pass 1's `sketch_secs` is generate + featurise + rank + sketch).
//!
//! CI gates the 10k point's normalised stage costs (`*_secs_per_mrow`,
//! seconds per million sample rows; smaller is better) and peak RSS.
//! At that point the three in-memory stage costs (sketch, encode, fit)
//! are each the median of three pooled runs, the recorded run plus two
//! repeats: pass 2 only remaps ranks, ~40 ms of work at 10k patients,
//! so a single run's reading could trip its gate on noise alone. Every
//! other key comes from the first run.
//!
//! Usage: `bench_scale [out.json] [max_patients]` — the second argument
//! caps the sweep (CI smokes at 10000; the committed baseline is the
//! full 1M sweep).

use msaw_bench::{exit_on_error, BenchError, EXPERIMENT_SEED};
use msaw_cohort::stream::CohortStream;
use msaw_cohort::CohortConfig;
use msaw_core::scale::{run_scale, ScaleConfig, ScaleReport};
use msaw_preprocess::OutcomeKind;
use std::fmt::Write as _;
use std::time::Instant;

/// The sweep: paper scale, then 10⁴ / 10⁵ / 10⁶ patients.
const SCALES: [usize; 4] = [261, 10_000, 100_000, 1_000_000];
/// Spill binned blocks to disk from this scale up; below it the code
/// matrix is small enough to keep resident.
const SPILL_FROM: usize = 100_000;
/// The scale that also measures parallel speedups and the spilled-fit
/// row, and whose gated stage costs are medians of three runs (cheap
/// enough to run several times, big enough to mean something).
const PROBE_SCALE: usize = 10_000;

/// Patients the generation probe streams: `scaled(42, 2000)`.
const GENERATE_PATIENTS: usize = 2000;

/// One thread's generation cost alone: [`CohortStream`] over
/// `scaled(42, GENERATE_PATIENTS)`, microseconds per patient, median of
/// three passes.
fn generate_us_per_patient() -> f64 {
    let cohort = CohortConfig::scaled(EXPERIMENT_SEED, GENERATE_PATIENTS);
    let mut passes: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut n = 0usize;
            for record in CohortStream::new(&cohort) {
                std::hint::black_box(record);
                n += 1;
            }
            start.elapsed().as_secs_f64() * 1.0e6 / n.max(1) as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[1]
}

/// Seconds per million sample rows — the scale-free form CI gates.
fn secs_per_mrow(secs: f64, n_rows: usize) -> f64 {
    if n_rows > 0 {
        secs * 1.0e6 / n_rows as f64
    } else {
        0.0
    }
}

/// The gated stage costs of one run: sketch, encode and fit seconds per
/// million rows (the fit's per million row-trees).
fn stage_costs(report: &ScaleReport) -> [f64; 3] {
    [
        secs_per_mrow(report.sketch_secs, report.n_rows),
        secs_per_mrow(report.encode_secs, report.n_rows),
        if report.fit_rows_per_sec > 0.0 { 1.0e6 / report.fit_rows_per_sec } else { 0.0 },
    ]
}

fn main() {
    exit_on_error(run());
}

fn run() -> Result<(), BenchError> {
    let usage = || BenchError::Usage("bench_scale [BENCH_scale.json] [max_patients]".to_string());
    let mut args = std::env::args().skip(1);
    let out_path = args.next().unwrap_or_else(|| "BENCH_scale.json".to_string());
    let max_patients = match args.next() {
        Some(s) => s.parse::<usize>().map_err(|_| usage())?,
        None => *SCALES.last().unwrap(),
    };
    if args.next().is_some() {
        return Err(usage());
    }

    let spill_dir = std::env::temp_dir().join(format!("msaw_bench_scale_{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir)
        .map_err(|source| BenchError::Io { path: spill_dir.display().to_string(), source })?;

    let mut body = String::new();
    let wall = Instant::now();
    for &n in SCALES.iter().filter(|&&n| n <= max_patients) {
        let cohort = CohortConfig::scaled(EXPERIMENT_SEED, n);
        let mut cfg = ScaleConfig::new(OutcomeKind::Qol);
        let workers = cfg.workers;
        let spill = n >= SPILL_FROM;
        if spill {
            cfg.spill_path = Some(spill_dir.join(format!("scale_{n}.mscb")));
        }
        eprintln!(
            "scale {n}: {} patients, {} workers, {}...",
            cohort.total_patients(),
            workers,
            if spill { "spilled blocks" } else { "in-memory blocks" }
        );
        let report = run_scale(&cohort, &cfg).map_err(BenchError::Pipeline)?;
        let trees = cfg.params.n_estimators;
        let rss = report.peak_rss_mb.unwrap_or(0.0);
        eprintln!(
            "  {} rows | sketch {:.2}s encode {:.2}s fit {:.2}s | {:.0} row-trees/s | peak RSS {:.0} MiB",
            report.n_rows,
            report.sketch_secs,
            report.encode_secs,
            report.fit_secs,
            report.fit_rows_per_sec,
            rss,
        );
        if let Some(path) = &cfg.spill_path {
            let _ = std::fs::remove_file(path);
        }
        let mut costs = stage_costs(&report);
        if n == PROBE_SCALE {
            let mut runs = vec![costs];
            for repeat in 1..=2 {
                eprintln!("scale {n}: repeat {repeat}/2 (median-of-three stage costs)...");
                runs.push(stage_costs(&run_scale(&cohort, &cfg).map_err(BenchError::Pipeline)?));
            }
            costs = std::array::from_fn(|stage| {
                let mut values: Vec<f64> = runs.iter().map(|run| run[stage]).collect();
                values.sort_by(f64::total_cmp);
                values[1]
            });
            eprintln!(
                "  median s/Mrow: sketch {:.4} encode {:.4} fit {:.4}",
                costs[0], costs[1], costs[2]
            );
        }
        let [sketch_secs_per_mrow, encode_secs_per_mrow, fit_secs_per_mrow] = costs;
        // Every stage fans out over the same pool width today; the
        // keys stay per-stage so the sweep keeps its meaning if the
        // stages ever get independent knobs.
        write!(
            body,
            "  \"scale{n}_patients\": {},\n  \"scale{n}_rows\": {},\n  \
             \"scale{n}_trees\": {trees},\n  \"scale{n}_spilled\": {},\n  \
             \"scale{n}_sketch_workers\": {workers},\n  \"scale{n}_encode_workers\": {workers},\n  \
             \"scale{n}_fit_workers\": {workers},\n  \
             \"scale{n}_sketch_secs\": {:.6},\n  \"scale{n}_encode_secs\": {:.6},\n  \
             \"scale{n}_fit_secs\": {:.6},\n  \
             \"scale{n}_sketch_secs_per_mrow\": {:.6},\n  \
             \"scale{n}_encode_secs_per_mrow\": {:.6},\n  \
             \"scale{n}_fit_rows_per_sec\": {:.1},\n  \
             \"scale{n}_fit_secs_per_mrow\": {:.6},\n  \"scale{n}_peak_rss_mb\": {:.1},\n",
            report.n_patients,
            report.n_rows,
            if report.spilled { "true" } else { "false" },
            report.sketch_secs,
            report.encode_secs,
            report.fit_secs,
            sketch_secs_per_mrow,
            encode_secs_per_mrow,
            report.fit_rows_per_sec,
            fit_secs_per_mrow,
            rss,
        )
        .expect("writing to a String cannot fail");

        if n == PROBE_SCALE {
            probe_rows(&mut body, n, &cohort, &cfg, &report, &spill_dir)?;
        }
    }
    let _ = std::fs::remove_dir_all(&spill_dir);

    eprintln!("generation alone: scaled({EXPERIMENT_SEED}, {GENERATE_PATIENTS}), one thread...");
    let generate_us = generate_us_per_patient();
    eprintln!("  {generate_us:.1} us/patient (median of 3)");

    let json = format!(
        "{{\n  \"cohort\": \"scaled\",\n  \"seed\": {EXPERIMENT_SEED},\n  \
         \"outcome\": \"QoL\",\n  \"max_patients\": {max_patients},\n{body}  \
         \"generate_us_per_patient\": {generate_us:.1},\n  \"wall_secs\": {:.3}\n}}\n",
        wall.elapsed().as_secs_f64(),
    );
    std::fs::write(&out_path, json)
        .map_err(|source| BenchError::Io { path: out_path.clone(), source })?;
    println!("wrote {out_path}");
    Ok(())
}

/// The probe-scale extras: a serial re-run for the stage speedups and
/// a spilled re-run for the prefetching block reader's throughput.
fn probe_rows(
    body: &mut String,
    n: usize,
    cohort: &CohortConfig,
    pooled_cfg: &ScaleConfig,
    pooled: &ScaleReport,
    spill_dir: &std::path::Path,
) -> Result<(), BenchError> {
    eprintln!("scale {n}: serial re-run (stage speedups)...");
    let mut serial_cfg = pooled_cfg.clone();
    serial_cfg.workers = 1;
    serial_cfg.spill_path = None;
    let serial = run_scale(cohort, &serial_cfg).map_err(BenchError::Pipeline)?;
    let speedup = |serial_secs: f64, pooled_secs: f64| {
        if pooled_secs > 0.0 {
            serial_secs / pooled_secs
        } else {
            1.0
        }
    };
    let sketch_speedup = speedup(serial.sketch_secs, pooled.sketch_secs);
    let encode_speedup = speedup(serial.encode_secs, pooled.encode_secs);
    eprintln!(
        "  sketch {:.2}s -> {:.2}s ({sketch_speedup:.2}x) | encode {:.2}s -> {:.2}s ({encode_speedup:.2}x)",
        serial.sketch_secs, pooled.sketch_secs, serial.encode_secs, pooled.encode_secs,
    );

    eprintln!("scale {n}: spilled re-run (prefetching block reader)...");
    let mut spilled_cfg = pooled_cfg.clone();
    let spill = spill_dir.join(format!("scale_{n}_probe.mscb"));
    spilled_cfg.spill_path = Some(spill.clone());
    let spilled = run_scale(cohort, &spilled_cfg).map_err(BenchError::Pipeline)?;
    let _ = std::fs::remove_file(&spill);
    let spilled_fit_secs_per_mrow =
        if spilled.fit_rows_per_sec > 0.0 { 1.0e6 / spilled.fit_rows_per_sec } else { 0.0 };
    eprintln!(
        "  spilled fit {:.2}s | {:.0} row-trees/s",
        spilled.fit_secs, spilled.fit_rows_per_sec,
    );

    write!(
        body,
        "  \"scale{n}_sketch_par_speedup\": {sketch_speedup:.3},\n  \
         \"scale{n}_encode_par_speedup\": {encode_speedup:.3},\n  \
         \"scale{n}_spilled_fit_secs\": {:.6},\n  \
         \"scale{n}_spilled_fit_rows_per_sec\": {:.1},\n  \
         \"scale{n}_spilled_fit_secs_per_mrow\": {spilled_fit_secs_per_mrow:.6},\n",
        spilled.fit_secs, spilled.fit_rows_per_sec,
    )
    .expect("writing to a String cannot fail");
    Ok(())
}
