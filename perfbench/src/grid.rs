//! `paper_grid`: the 12-model DD-vs-KD grid of Fig. 4, one grid per op.
//!
//! The timed grid is Fig. 4's protocol with `TIMED_TREES` trees per
//! fit instead of 250, so a window holds many grids and `op_p50_ms` is
//! a median over many, not the middle of three. At seed 42 one untimed
//! grid at the paper's 250 trees must reproduce
//! `results/fig4_dd_vs_kd.txt`.
//!
//! Untraced ops call `msaw_core::grid::try_run_full_grid_on(0, …)`.
//! Traced ops rebuild it from the layers' public steps — featurise,
//! KD variants, cached training contexts, the fit-job pool, finish —
//! each inside a span; the traced grid must equal the entry point's,
//! every score and CV fold bit for bit.

use std::collections::HashMap;
use std::time::Instant;

use msaw_cohort::{generate, CohortConfig, CohortData};
use msaw_core::experiment::{
    finish_variant, try_plan_variant_cached, try_run_fit_job_with, FitJob, FitOutput, VariantPlan,
};
use msaw_core::grid::try_run_full_grid_on;
use msaw_core::{Approach, ExperimentConfig, VariantResult};
use msaw_gbdt::{ContextCache, TreeScratch};
use msaw_kd::{attach_fi, default_ici_spec, ici_sample_set};
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind, SampleSet};

use crate::stats::{idle_share, median};
use crate::trace::{self, Tracer};
use crate::{host, timed, Metric, Opts, Outcome};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// The archived Fig. 4 output the seed-42 grid must reproduce.
const FIG4_ARCHIVE: &str = include_str!("../../results/fig4_dd_vs_kd.txt");

/// The seed the archive was produced at.
const ARCHIVE_SEED: u64 = 42;

/// Trees per fit in the timed grid: a tenth of the paper's 250. The
/// fits keep the paper's depth, learning rate and sampling, so each
/// tree costs what it costs in Fig. 4.
const TIMED_TREES: usize = 25;

fn inputs(opts: &Opts) -> (CohortConfig, ExperimentConfig) {
    if opts.tiny {
        (CohortConfig::small(opts.seed), ExperimentConfig::fast())
    } else {
        let mut cfg = ExperimentConfig::default();
        cfg.regression_params.n_estimators = TIMED_TREES;
        cfg.classification_params.n_estimators = TIMED_TREES;
        (CohortConfig::paper(opts.seed), cfg)
    }
}

fn summary(results: &[VariantResult]) -> Vec<String> {
    results.iter().map(VariantResult::summary_line).collect()
}

/// Every field of a grid, each `f64` (scores and per-fold CV scores)
/// with all its digits, so two grids compare bit for bit.
fn exact(results: &[VariantResult]) -> String {
    format!("{results:?}")
}

/// The per-variant lines of the archived Fig. 4 output.
fn archived_summary() -> Vec<String> {
    FIG4_ARCHIVE
        .lines()
        .skip_while(|l| !l.starts_with("Full per-variant detail"))
        .skip(1)
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

/// The fit pool of one traced grid.
struct PoolShape {
    workers: usize,
    trees: usize,
}

/// A traced grid's results and pool.
struct TracedGrid {
    results: Vec<VariantResult>,
    pool: PoolShape,
    /// Samples featurised across the three outcomes.
    rows: usize,
}

/// Which fit-span name a plan's jobs record under.
fn fit_span(approach: Approach) -> &'static str {
    match approach {
        Approach::DataDriven => "core.fit_dd",
        Approach::KnowledgeDriven => "core.fit_kd",
    }
}

/// `try_run_full_grid_on(0, data, cfg)`, rebuilt from its public steps
/// inside spans.
fn traced_grid(
    tracer: &Tracer,
    op: u32,
    data: &CohortData,
    cfg: &ExperimentConfig,
) -> Result<TracedGrid, String> {
    tracer.op("grid.op", op, |ctx| {
        let panel = ctx.span("preprocess.featurise", |_| FeaturePanel::build(data, &cfg.pipeline));
        let mut all_sets: Vec<[SampleSet; 4]> = Vec::new();
        let mut rows = 0;
        for outcome in OutcomeKind::ALL {
            let dd = ctx.span("preprocess.featurise", |_| {
                build_samples(data, &panel, outcome, &cfg.pipeline)
            });
            rows += dd.len();
            let [dd_fi, kd, kd_fi] = ctx.span("kd.variants", |_| {
                let dd_fi = attach_fi(&dd, data);
                let kd = ici_sample_set(&dd, &default_ici_spec());
                let kd_fi = attach_fi(&kd, data);
                [dd_fi, kd, kd_fi]
            });
            // The grid's canonical KD, KD+FI, DD, DD+FI order.
            all_sets.push([kd, kd_fi, dd, dd_fi]);
        }
        let specs = [
            (Approach::KnowledgeDriven, false),
            (Approach::KnowledgeDriven, true),
            (Approach::DataDriven, false),
            (Approach::DataDriven, true),
        ];
        let plans: Vec<VariantPlan<'_>> = ctx.span("gbdt.context", |_| {
            let mut cache = ContextCache::new();
            all_sets
                .iter()
                .flat_map(|sets| sets.iter().zip(specs))
                .map(|(set, (approach, with_fi))| {
                    try_plan_variant_cached(set, approach, with_fi, cfg, &mut cache)
                })
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())
        })?;
        let approaches: Vec<Approach> =
            all_sets.iter().flat_map(|_| specs.map(|(a, _)| a)).collect();
        let jobs: Vec<(usize, FitJob)> = plans
            .iter()
            .enumerate()
            .flat_map(|(p, plan)| plan.jobs().map(move |job| (p, job)))
            .collect();
        let trees: usize = jobs
            .iter()
            .map(|&(p, _)| cfg.params_for(all_sets[p / 4][0].outcome).n_estimators)
            .sum();
        let workers = msaw_parallel::default_workers(jobs.len());
        let outputs = ctx.span("parallel.pool", |pool| {
            msaw_parallel::try_run_scratch_on(
                workers,
                jobs.len(),
                TreeScratch::new,
                |scratch, i| {
                    let (p, job) = jobs[i];
                    pool.span(fit_span(approaches[p]), |_| {
                        try_run_fit_job_with(&plans[p], job, cfg, scratch)
                    })
                },
            )
            .map_err(|e| e.to_string())
        })?;
        let results = ctx.span("core.finish", |_| {
            let mut per_plan: Vec<Vec<FitOutput>> = plans.iter().map(|_| Vec::new()).collect();
            for (i, (&(p, _), out)) in jobs.iter().zip(outputs).enumerate() {
                per_plan[p].push(out.map_err(|e| format!("fit job {i}: {e}"))?);
            }
            Ok::<_, String>(
                plans.iter().zip(per_plan).map(|(plan, out)| finish_variant(plan, out)).collect(),
            )
        })?;
        Ok(TracedGrid { results, pool: PoolShape { workers, trees }, rows })
    })
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (cohort_cfg, cfg) = inputs(opts);
    let mut out = Outcome::default();

    // Set-up: generate the cohort, several times; the median is setup_s.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut data = None;
    for _ in 0..SETUPS {
        let (d, secs) = timed(|| generate(&cohort_cfg));
        setup_s.push(secs);
        data = Some(d);
    }
    let data = data.expect("at least one set-up");

    let patients = data.patients.len();
    let tracer = Tracer::new();
    let mut reference: Option<String> = None;
    let mut op_ms = Vec::new();
    let mut rows_per_s = Vec::new();
    let mut traced = Vec::new();
    let mut rows_featurised = 0;
    let window = Instant::now();
    while out.attempted == 0 || window.elapsed() < opts.window {
        let op = out.attempted as u32;
        out.attempted += 1;
        let (result, secs) = timed(|| {
            if opts.trace {
                traced_grid(&tracer, op, &data, &cfg).map(|t| {
                    traced.push(t.pool);
                    rows_featurised = t.rows;
                    t.results
                })
            } else {
                try_run_full_grid_on(0, &data, &cfg).map_err(|e| e.to_string())
            }
        });
        let results = match result {
            Ok(results) => results,
            Err(e) => {
                out.fail(format!("grid {op} failed: {e}"));
                continue;
            }
        };
        let rows: usize = results.iter().map(|r| r.n_train + r.n_test).sum();
        match &reference {
            None => reference = Some(exact(&results)),
            Some(first) if *first != exact(&results) => {
                out.fail(format!("grid {op} differs from grid 0"));
                continue;
            }
            Some(_) => {}
        }
        op_ms.push(secs * 1e3);
        rows_per_s.push(rows as f64 / secs);
    }
    let window_s = window.elapsed().as_secs_f64();
    // Sampled before the untimed checks, whose allocations are the
    // benchmark's, not the workload's.
    let peak_rss = host::peak_rss_mb();

    // Untimed checks. The archive holds rounded text only, so the Fig. 4
    // check compares the printed lines of a grid at the paper's config.
    if opts.seed == ARCHIVE_SEED && !opts.tiny {
        match try_run_full_grid_on(0, &data, &ExperimentConfig::default()) {
            Ok(paper) if summary(&paper) == archived_summary() => {}
            Ok(_) => out.fail("the seed-42 grid does not reproduce results/fig4_dd_vs_kd.txt"),
            Err(e) => out.fail(format!("the seed-42 paper grid failed: {e}")),
        }
    }
    if let Some(first) = &reference {
        if opts.trace {
            match try_run_full_grid_on(0, &data, &cfg) {
                Ok(real) if exact(&real) == *first => {}
                Ok(_) => out.fail("the traced grid differs from try_run_full_grid_on"),
                Err(e) => out.fail(format!("try_run_full_grid_on failed: {e}")),
            }
        }
    }

    // 72 fit jobs outnumber the cores, so the pool runs one worker per core.
    let workers = msaw_parallel::available_workers();
    out.report.push(host::record("paper_grid", opts.seed, opts.trace, workers));
    out.report.push(format!(
        "paper_grid ops={} failed={} window_s={window_s:.3} patients={patients}",
        out.attempted, out.failed,
    ));
    let each: Vec<String> = op_ms.iter().map(|ms| format!("{:.3}", ms / 1e3)).collect();
    out.report.push(format!(
        "grid_s = {} s (n={}; each {})",
        median(&op_ms) / 1e3,
        op_ms.len(),
        each.join(" ")
    ));

    if opts.trace {
        layer_metrics(&mut out, &tracer, &traced, &setup_s, &op_ms);
        out.per_layer.push(Metric::new("cohort.patients", "count", patients as f64, 1));
        out.per_layer.push(Metric::new("preprocess.rows", "count", rows_featurised as f64, 1));
        crate::write_trace("paper_grid", opts, &tracer);
    } else {
        out.end_to_end = vec![
            Metric::new("setup_s", "s", median(&setup_s), setup_s.len()),
            Metric::new("peak_rss_mb", "MiB", peak_rss, 1),
            Metric::new("op_p50_ms", "ms", median(&op_ms), op_ms.len()),
            Metric::new("rows_per_s", "rows/s", median(&rows_per_s), rows_per_s.len()),
        ];
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    traced: &[PoolShape],
    setup_s: &[f64],
    op_ms: &[f64],
) {
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let per_op_ms = |name: &str| -> Vec<f64> {
        let by_op = trace::self_by_op(&spans, &selfs, name);
        (0..traced.len() as u32)
            .map(|op| by_op.get(&op).map_or(0.0, |v| v.0 as f64 / 1e6))
            .collect()
    };
    let fit_dd = per_op_ms("core.fit_dd");
    let fit_kd = per_op_ms("core.fit_kd");
    let fit_ms: Vec<f64> = fit_dd.iter().zip(&fit_kd).map(|(a, b)| a + b).collect();
    let fit_lens: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("core.fit_"))
        .map(|s| s.nanos() as f64 / 1e6)
        .collect();
    let pool: HashMap<u32, u64> =
        spans.iter().filter(|s| s.name == "parallel.pool").map(|s| (s.op, s.nanos())).collect();
    let idle: Vec<f64> = traced
        .iter()
        .enumerate()
        .map(|(op, t)| {
            let makespan = pool.get(&(op as u32)).copied().unwrap_or(0) as f64 / 1e6;
            idle_share(fit_ms[op], t.workers, makespan)
        })
        .collect();
    let trees: usize = traced.iter().map(|t| t.trees).sum();
    let fit_total: f64 = fit_ms.iter().sum();
    let cover = trace::coverage(&spans);
    if let Err(e) = cover.check(true) {
        out.fail(e);
    }
    out.report.push(format!(
        "trace spans={} fits={} {}",
        spans.len(),
        fit_lens.len(),
        cover.line()
    ));
    let n = traced.len();
    out.per_layer = vec![
        Metric::new("cohort.generate_ms", "ms", 1e3 * median(setup_s), setup_s.len()),
        Metric::new("preprocess.featurise_ms", "ms", median(&per_op_ms("preprocess.featurise")), n),
        Metric::new("kd.variants_ms", "ms", median(&per_op_ms("kd.variants")), n),
        Metric::new("gbdt.context_ms", "ms", median(&per_op_ms("gbdt.context")), n),
        Metric::new("core.fit_ms", "ms", median(&fit_ms), n),
        Metric::new("core.fits", "count", (fit_lens.len() / n.max(1)) as f64, n),
        Metric::new("core.fit_p50_ms", "ms", median(&fit_lens), fit_lens.len()),
        Metric::new(
            "core.fit_max_ms",
            "ms",
            fit_lens.iter().copied().fold(0.0, f64::max),
            fit_lens.len(),
        ),
        Metric::new("core.fit_dd_share", "share", fit_dd.iter().sum::<f64>() / fit_total, n),
        Metric::new("gbdt.exact_trees_per_s", "trees/s", trees as f64 / (fit_total / 1e3), n),
        Metric::new("parallel.idle_share", "share", median(&idle), n),
        Metric::new("trace.op_p50_ms", "ms", median(op_ms), op_ms.len()),
    ];
}
