//! Performance tracking for the 12-model grid: times
//! `try_run_full_grid_on` on `CohortConfig::small` and writes
//! `BENCH_grid.json` so the grid's perf trajectory is recorded from run
//! to run.
//!
//! Three rows tell the story, all medians of 3 runs:
//!
//! * `setup_secs` — panel + variant-set construction, the part of the
//!   end-to-end grid that is not model fitting. (An earlier revision
//!   timed this only inside the grid row, which made the end-to-end
//!   number read *slower* than the sum of its per-variant parts.)
//! * `variants_secs`/`variants_total_secs` — each variant run serially
//!   through `try_run_variant` on its own context and scratch.
//! * `run_full_grid_secs` — the pooled engine end to end (setup
//!   included): shared context cache, per-worker scratch arenas, fits
//!   fanned across `workers` pool workers.
//!
//! A second section benchmarks the **sharded out-of-core grid**
//! (`try_run_full_grid_chunked`): the same 12 variants fit entirely
//! from spilled bin-coded matrices at 10k and 100k patients, with
//! stream-compatible reduced parameters (the full-cohort matrices never
//! materialise in RAM). The 10k row is CI's smoke point; the 100k row
//! is the committed evidence that a grid infeasible in memory fits
//! inside the scaling bench's RSS envelope.
//!
//! Usage: `cargo run --release -p msaw-bench --bin bench_grid
//! [out.json] [sharded_max_patients]` — the second argument caps the
//! sharded sweep (CI smokes at 10000; the baseline runs 100000).

use std::time::Instant;

use msaw_bench::{exit_on_error, BenchError, EXPERIMENT_SEED};
use msaw_cohort::{generate, CohortConfig};
use msaw_core::grid::build_variant_sets;
use msaw_core::scale::peak_rss_mb;
use msaw_core::{
    try_run_full_grid_chunked, try_run_full_grid_on, try_run_variant, Approach, ChunkedGridConfig,
    ExperimentConfig,
};
use msaw_gbdt::TreeMethod;
use msaw_preprocess::{FeaturePanel, OutcomeKind};

/// Scales for the sharded out-of-core grid section.
const SHARDED_SCALES: [usize; 2] = [10_000, 100_000];

/// Median of at least one timed repetition, in seconds.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    exit_on_error(run());
}

/// The stream-compatible reduced protocol for the sharded grid rows:
/// histogram trees with a shared bin budget, no subsampling, canonical
/// row order — the regime where the chunked grid is bit-identical to
/// the in-memory one — and a small forest so the 100k row stays a
/// benchmark rather than an afternoon.
fn sharded_experiment() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::fast();
    cfg.seed = EXPERIMENT_SEED;
    cfg.cv_folds = 3;
    cfg.canonical_row_order = true;
    for params in [&mut cfg.regression_params, &mut cfg.classification_params] {
        params.n_estimators = 8;
        params.max_depth = 3;
        params.tree_method = TreeMethod::Hist { max_bins: 32 };
        params.subsample = 1.0;
        params.colsample_bytree = 1.0;
    }
    cfg
}

fn run() -> Result<(), BenchError> {
    let usage =
        || BenchError::Usage("bench_grid [BENCH_grid.json] [sharded_max_patients]".to_string());
    let mut args = std::env::args().skip(1);
    let out_path = args.next().unwrap_or_else(|| "BENCH_grid.json".to_string());
    let sharded_max = match args.next() {
        Some(s) => s.parse::<usize>().map_err(|_| usage())?,
        None => *SHARDED_SCALES.last().unwrap(),
    };
    if args.next().is_some() {
        return Err(usage());
    }
    let data = generate(&CohortConfig::small(EXPERIMENT_SEED));
    let cfg = ExperimentConfig { seed: EXPERIMENT_SEED, ..ExperimentConfig::fast() };
    let workers = msaw_parallel::default_workers(usize::MAX);
    eprintln!(
        "timing the 12-model grid on the small cohort ({} patients, {} workers)...",
        data.patients.len(),
        workers
    );

    // The non-fitting setup the end-to-end grid row pays on top of its
    // fits: feature panel + the 3 outcomes' variant sample sets.
    let setup = time_median(3, || {
        let panel = FeaturePanel::build(&data, &cfg.pipeline);
        for outcome in OutcomeKind::ALL {
            std::hint::black_box(build_variant_sets(&data, &panel, outcome, &cfg));
        }
    });
    eprintln!("  setup (panel + variant sets): {setup:.3}s");

    // Per-variant timings: one fit pipeline per variant, run serially
    // in the grid's canonical order, each on its own context/scratch.
    let panel = FeaturePanel::build(&data, &cfg.pipeline);
    let mut variants: Vec<(String, f64)> = Vec::new();
    for outcome in OutcomeKind::ALL {
        let sets = build_variant_sets(&data, &panel, outcome, &cfg);
        let jobs = [
            ("kd", &sets.kd, Approach::KnowledgeDriven, false),
            ("kd_fi", &sets.kd_fi, Approach::KnowledgeDriven, true),
            ("dd", &sets.dd, Approach::DataDriven, false),
            ("dd_fi", &sets.dd_fi, Approach::DataDriven, true),
        ];
        for (tag, set, approach, with_fi) in jobs {
            let mut checked = Ok(());
            let secs = time_median(3, || {
                checked =
                    std::hint::black_box(try_run_variant(set, approach, with_fi, &cfg)).map(drop);
            });
            checked?;
            let name = format!("{}_{}", outcome.name().to_lowercase(), tag);
            eprintln!("  {name:<12} {secs:.3}s");
            variants.push((name, secs));
        }
    }
    let variants_total: f64 = variants.iter().map(|(_, s)| s).sum();
    eprintln!("serial variants total: {variants_total:.3}s (excludes setup)");

    // End-to-end pooled grid (setup + cached planning + pooled fits).
    let mut checked = Ok(());
    let total = time_median(3, || {
        checked = std::hint::black_box(try_run_full_grid_on(0, &data, &cfg)).map(drop);
    });
    checked?;
    eprintln!("pooled grid total: {total:.3}s (includes setup)");

    // The histogram-accumulation kernel in isolation: root-node
    // gradient/hessian histograms over the binned DD QoL matrix with
    // deterministic synthetic gradients, active kernel vs forced
    // scalar. Checksums must match exactly — the SIMD path is
    // bit-identical by contract.
    let sets = build_variant_sets(&data, &panel, OutcomeKind::Qol, &cfg);
    let binned = msaw_gbdt::binning::BinnedMatrix::fit(&sets.dd.features, 64);
    let nrows = binned.nrows();
    let grad: Vec<f64> = (0..nrows).map(|i| ((i * 37 + 11) % 101) as f64 / 50.5 - 1.0).collect();
    let hess: Vec<f64> = (0..nrows).map(|i| ((i * 53 + 7) % 89) as f64 / 89.0 + 0.25).collect();
    const HIST_PASSES: usize = 50;
    let hist_kernel = msaw_gbdt::simd::kernel_name();
    let mut check_simd = 0.0;
    let hist_secs = time_median(5, || {
        for _ in 0..HIST_PASSES {
            check_simd =
                std::hint::black_box(msaw_gbdt::build_hists_for_bench(&binned, &grad, &hess));
        }
    }) / HIST_PASSES as f64;
    msaw_gbdt::simd::force_level(Some(msaw_gbdt::SimdLevel::Scalar));
    let mut check_scalar = 0.0;
    let hist_scalar_secs = time_median(5, || {
        for _ in 0..HIST_PASSES {
            check_scalar =
                std::hint::black_box(msaw_gbdt::build_hists_for_bench(&binned, &grad, &hess));
        }
    }) / HIST_PASSES as f64;
    msaw_gbdt::simd::force_level(None);
    assert_eq!(
        check_simd.to_bits(),
        check_scalar.to_bits(),
        "histogram kernels diverged between {hist_kernel} and scalar"
    );
    eprintln!(
        "hist build ({} rows x {} features): {:.3}ms {hist_kernel} vs {:.3}ms scalar ({:.2}x)",
        nrows,
        binned.ncols(),
        hist_secs * 1e3,
        hist_scalar_secs * 1e3,
        hist_scalar_secs / hist_secs
    );

    // Sharded out-of-core grid: all 12 variants fit from spilled
    // bin-coded matrices, one row per scale. Wall time is a single run
    // (48 chunked fits dominate; median-of-3 would triple a long
    // benchmark for noise reduction it doesn't need).
    let mut sharded = String::new();
    let spill_root = std::env::temp_dir().join(format!("msaw_bench_grid_{}", std::process::id()));
    for &n in SHARDED_SCALES.iter().filter(|&&n| n <= sharded_max) {
        let cohort = CohortConfig::scaled(EXPERIMENT_SEED, n);
        let spill_dir = spill_root.join(format!("grid_{n}"));
        std::fs::create_dir_all(&spill_dir)
            .map_err(|source| BenchError::Io { path: spill_dir.display().to_string(), source })?;
        let mut gcfg = ChunkedGridConfig::new(sharded_experiment());
        gcfg.spill_dir = Some(spill_dir.clone());
        let fits_per_variant = gcfg.experiment.cv_folds + 1;
        eprintln!(
            "sharded grid at {n} patients ({} workers, spilled matrices)...",
            msaw_parallel::default_workers(usize::MAX)
        );
        let start = Instant::now();
        let report = try_run_full_grid_chunked(&cohort, &gcfg).map_err(BenchError::Pipeline)?;
        let secs = start.elapsed().as_secs_f64();
        let rss = peak_rss_mb().unwrap_or(0.0);
        let n_fits = report.results.len() * fits_per_variant;
        let secs_per_mrow = secs * 1.0e6 / report.n_rows.max(1) as f64;
        assert!(report.spilled, "sharded rows must run from spilled matrices");
        // Exactness is recorded, not asserted: the continuous FI/ICI
        // columns outgrow the per-column distinct budget at these
        // scales, which thins their cuts but changes nothing about the
        // grid's validity (bit-identity to the in-memory grid is pinned
        // by tests at the seed scale, where the sketch stays exact).
        eprintln!(
            "  {} rows | {} fits | {secs:.2}s ({secs_per_mrow:.2}s/Mrow) | peak RSS {rss:.0} MiB | sketch exact: {}",
            report.n_rows, n_fits, report.sketch_exact
        );
        sharded.push_str(&format!(
            "  \"grid{n}_patients\": {},\n  \"grid{n}_rows\": {},\n  \
             \"grid{n}_fits\": {n_fits},\n  \"grid{n}_sketch_exact\": {},\n  \
             \"grid{n}_secs\": {secs:.6},\n  \"grid{n}_secs_per_mrow\": {secs_per_mrow:.6},\n  \
             \"grid{n}_peak_rss_mb\": {rss:.1},\n",
            cohort.total_patients(),
            report.n_rows,
            if report.sketch_exact { "true" } else { "false" },
        ));
        let _ = std::fs::remove_dir_all(&spill_dir);
    }
    let _ = std::fs::remove_dir_all(&spill_root);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"cohort\": \"small\",\n  \"patients\": {},\n  \"seed\": {},\n  \"workers\": {},\n",
        data.patients.len(),
        EXPERIMENT_SEED,
        workers
    ));
    json.push_str(&sharded);
    json.push_str(&format!("  \"setup_secs\": {setup:.6},\n"));
    json.push_str("  \"variants_secs\": {\n");
    for (i, (name, secs)) in variants.iter().enumerate() {
        let comma = if i + 1 < variants.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {secs:.6}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"variants_total_secs\": {variants_total:.6},\n"));
    json.push_str(&format!("  \"run_full_grid_secs\": {total:.6},\n"));
    json.push_str(&format!("  \"hist_kernel\": \"{hist_kernel}\",\n"));
    json.push_str(&format!("  \"hist_build_secs\": {hist_secs:.9},\n"));
    json.push_str(&format!("  \"hist_build_scalar_secs\": {hist_scalar_secs:.9},\n"));
    json.push_str(&format!("  \"hist_build_speedup\": {:.3}\n}}\n", hist_scalar_secs / hist_secs));
    std::fs::write(&out_path, json)
        .map_err(|source| BenchError::Io { path: out_path.clone(), source })?;
    println!("wrote {out_path}");
    Ok(())
}
