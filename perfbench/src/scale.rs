//! `scale_stream`: the spilled two-pass `run_scale` pipeline, one fresh
//! cohort per op.
//!
//! Op `i` streams `CohortConfig::scaled(seed + i, PATIENTS)` through
//! `msaw_core::scale::run_scale` (QoL, `ScaleConfig::new`'s forest,
//! 256-patient chunks, blocks spilled to the run's own file). Traced ops
//! rebuild `run_scale` inside `try_run_waves_on` with a span around
//! every layer call and must reproduce its loss history bit for bit.
//!
//! Set-up makes the run's spill directory and runs one warm-up
//! `run_scale` over a smaller cohort of a seed no op uses, so `setup_s`
//! times the pipeline's own work rather than a `mkdir`.

use std::path::Path;
use std::time::Instant;

use msaw_cohort::stream::CohortStream;
use msaw_cohort::CohortConfig;
use msaw_core::scale::{run_scale, ScaleConfig};
use msaw_gbdt::{
    encode_rows, train_chunked, Booster, ChunkError, ChunkedMatrixBuilder, CutSketch, EvalRecord,
    TrainReport, TreeMethod,
};
use msaw_parallel::try_run_waves_on;
use msaw_preprocess::{patient_samples, range_samples, FeaturePanel, OutcomeKind, SampleBlock};
use msaw_tabular::Matrix;

use crate::host::{self, RunDir};
use crate::stats::{idle_share, median};
use crate::trace::{self, Ctx, Tracer};
use crate::{timed, Metric, Opts, Outcome};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// What one op produced.
struct OpResult {
    n_patients: usize,
    n_rows: usize,
    spilled: bool,
    sketch_exact: bool,
    spill_bytes: u64,
    train: TrainReport,
}

/// Patients per op, per chunk and per set-up warm-up.
fn sizes(opts: &Opts) -> (usize, usize, usize) {
    if opts.tiny {
        (120, 16, 32)
    } else {
        (2000, 256, 512)
    }
}

fn scale_config(opts: &Opts, dir: &Path) -> ScaleConfig {
    let (_, chunk, _) = sizes(opts);
    let mut cfg = ScaleConfig::new(OutcomeKind::Qol);
    cfg.chunk_patients = chunk;
    cfg.spill_path = Some(dir.join("scale.mscb"));
    cfg
}

fn untraced_op(cohort: &CohortConfig, cfg: &ScaleConfig) -> Result<OpResult, String> {
    let report = run_scale(cohort, cfg).map_err(|e| e.to_string())?;
    let spill_bytes = spill_len(cfg);
    Ok(OpResult {
        n_patients: report.n_patients,
        n_rows: report.n_rows,
        spilled: report.spilled,
        sketch_exact: report.sketch_exact,
        spill_bytes,
        train: report.train,
    })
}

fn spill_len(cfg: &ScaleConfig) -> u64 {
    cfg.spill_path.as_ref().and_then(|p| std::fs::metadata(p).ok()).map_or(0, |m| m.len())
}

/// `range_samples` with a span around each patient's generation and
/// featurisation.
fn traced_range(
    job: Ctx<'_>,
    cohort: &CohortConfig,
    cfg: &ScaleConfig,
    start: u32,
    end: u32,
) -> SampleBlock {
    let n_features = FeaturePanel::feature_names().len();
    let mut block =
        SampleBlock { rows: Vec::new(), labels: Vec::new(), meta: Vec::new(), n_features };
    let mut stream = job.span("cohort.generate", |_| CohortStream::range(cohort, start, end));
    while let Some(record) = job.span("cohort.generate", |_| stream.next()) {
        job.span("preprocess.featurise", |_| {
            let part = patient_samples(&record, cfg.outcome, &cfg.pipeline);
            block.rows.extend_from_slice(&part.rows);
            block.labels.extend(part.labels);
            block.meta.extend(part.meta);
        });
    }
    block
}

/// `run_scale(cohort, cfg)`, rebuilt from its layer calls inside spans.
fn traced_op(
    tracer: &Tracer,
    op: u32,
    cohort: &CohortConfig,
    cfg: &ScaleConfig,
) -> Result<OpResult, String> {
    tracer.op("scale.op", op, |ctx| {
        let n_features = FeaturePanel::feature_names().len();
        let workers = cfg.workers.max(1);
        let chunk_patients = cfg.chunk_patients.max(1);
        let n_patients = cohort.total_patients();
        let n_chunks = n_patients.div_ceil(chunk_patients);
        let wave = workers * 2;
        let chunk_range = |c: usize| {
            let start = (c * chunk_patients) as u32;
            (start, ((c + 1) * chunk_patients).min(n_patients) as u32)
        };
        let TreeMethod::Hist { max_bins } = cfg.params.tree_method else {
            return Err("the scale pipeline needs TreeMethod::Hist".to_string());
        };

        // Pass 1: sketch cuts and collect labels.
        let mut sketch = CutSketch::with_capacity(n_features, cfg.sketch_capacity);
        let mut labels: Vec<f64> = Vec::new();
        ctx.span("parallel.waves", |waves| {
            try_run_waves_on(
                workers,
                n_chunks,
                wave,
                |c| {
                    waves.span("parallel.job", |job| {
                        let (start, end) = chunk_range(c);
                        let block = traced_range(job, cohort, cfg, start, end);
                        job.span("gbdt.sketch", |_| {
                            let mut part =
                                CutSketch::with_capacity(n_features, cfg.sketch_capacity);
                            part.update(&block.rows);
                            (part, block.labels)
                        })
                    })
                },
                |_, (part, chunk_labels)| {
                    waves.span("gbdt.sketch", |_| sketch.merge(&part));
                    labels.extend(chunk_labels);
                    Ok::<(), ChunkError>(())
                },
            )
        })
        .map_err(|e| e.to_string())?;
        let sketch_exact = sketch.is_exact();
        let cuts = ctx.span("gbdt.sketch", |_| sketch.cuts(max_bins));

        // Pass 2: regenerate and encode into spilled blocks.
        let path = cfg.spill_path.as_deref().ok_or("scale_stream always spills")?;
        let mut builder = ctx
            .span("gbdt.spill_write", |_| {
                ChunkedMatrixBuilder::spilled(cuts.clone(), cfg.block_rows, path)
            })
            .map_err(|e| e.to_string())?;
        ctx.span("parallel.waves", |waves| {
            try_run_waves_on(
                workers,
                n_chunks,
                wave,
                |c| {
                    waves.span("parallel.job", |job| {
                        let (start, end) = chunk_range(c);
                        let block = traced_range(job, cohort, cfg, start, end);
                        job.span("gbdt.encode", |_| encode_rows(&cuts, &block.rows))
                    })
                },
                |_, codes| waves.span("gbdt.spill_write", |_| builder.push_encoded(&codes)),
            )
        })
        .map_err(|e| e.to_string())?;
        let mut matrix =
            ctx.span("gbdt.spill_write", |_| builder.finish()).map_err(|e| e.to_string())?;

        // Pass 3: the out-of-core fit.
        let train = ctx
            .span("gbdt.chunked_fit", |_| train_chunked(&cfg.params, &mut matrix, &labels, workers))
            .map_err(|e| e.to_string())?;
        Ok(OpResult {
            n_patients,
            n_rows: labels.len(),
            spilled: matrix.is_spilled(),
            sketch_exact,
            spill_bytes: spill_len(cfg),
            train,
        })
    })
}

fn same_history(a: &[EvalRecord], b: &[EvalRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.round == y.round
                && x.train_loss.to_bits() == y.train_loss.to_bits()
                && x.eval_loss.map(f64::to_bits) == y.eval_loss.map(f64::to_bits)
        })
}

/// The untimed once-per-run check: op 0's streamed model equals
/// `Booster::train` (same hist params) on the materialised rows, in
/// loss history and predictions, bit for bit.
fn check_against_in_memory(
    cohort: &CohortConfig,
    cfg: &ScaleConfig,
    streamed: &TrainReport,
) -> Result<(), String> {
    let n = cohort.total_patients() as u32;
    let block = range_samples(cohort, cfg.outcome, &cfg.pipeline, 0, n);
    let data = Matrix::from_vec(block.rows, block.labels.len(), block.n_features);
    let in_memory = Booster::train_with_eval(&cfg.params, &data, &block.labels, None)
        .map_err(|e| e.to_string())?;
    if !same_history(&in_memory.history, &streamed.history) {
        return Err("op 0's loss history differs from Booster::train".into());
    }
    let a = streamed.booster.predict(&data);
    let b = in_memory.booster.predict(&data);
    if a.iter().zip(&b).any(|(x, y)| x.to_bits() != y.to_bits()) || a.len() != b.len() {
        return Err("op 0's predictions differ from Booster::train".into());
    }
    Ok(())
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (patients, chunk, warmup) = sizes(opts);
    let mut out = Outcome::default();

    // Set-up: the run's own spill directory and config, then a warm-up
    // op over a cohort of a seed no op of this run uses, several times;
    // the median is setup_s.
    let warmup_cohort = CohortConfig::scaled(opts.seed.wrapping_sub(1), warmup);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        // Drop the previous directory outside the timed region.
        drop(setup.take());
        let (made, secs) = timed(|| {
            let dir = RunDir::create("scale")
                .map_err(|e| format!("cannot create the run directory: {e}"))?;
            let cfg = scale_config(opts, dir.path());
            run_scale(&warmup_cohort, &cfg).map_err(|e| format!("warm-up op failed: {e}"))?;
            Ok::<_, String>((dir, cfg))
        });
        setup_s.push(secs);
        setup = Some(made?);
    }
    let (_dir, cfg) = setup.expect("at least one set-up");

    let tracer = Tracer::new();
    let mut op_ms = Vec::new();
    let mut s_per_mrow = Vec::new();
    let mut rows_per_s = Vec::new();
    let mut first: Option<(CohortConfig, TrainReport)> = None;
    let mut per_op: Vec<OpResult> = Vec::new();
    let window = Instant::now();
    while out.attempted == 0 || window.elapsed() < opts.window {
        let op = out.attempted as u32;
        out.attempted += 1;
        let cohort = CohortConfig::scaled(opts.seed.wrapping_add(u64::from(op)), patients);
        let (result, secs) = timed(|| {
            if opts.trace {
                traced_op(&tracer, op, &cohort, &cfg)
            } else {
                untraced_op(&cohort, &cfg)
            }
        });
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("op {op} failed: {e}"));
                continue;
            }
        };
        if !result.spilled || !result.sketch_exact {
            out.fail(format!(
                "op {op}: spilled={} sketch_exact={} (both must hold)",
                result.spilled, result.sketch_exact
            ));
            continue;
        }
        op_ms.push(secs * 1e3);
        s_per_mrow.push(secs / result.n_rows as f64 * 1e6);
        rows_per_s.push(result.n_rows as f64 / secs);
        if first.is_none() {
            first = Some((cohort, result.train.clone()));
        }
        per_op.push(result);
    }
    let window_s = window.elapsed().as_secs_f64();
    // Sampled before the untimed checks, whose allocations are the
    // benchmark's, not the workload's.
    let peak_rss = host::peak_rss_mb();

    // Untimed checks on op 0.
    if let Some((cohort, train)) = &first {
        if let Err(e) = check_against_in_memory(cohort, &cfg, train) {
            out.fail(e);
        }
        if opts.trace {
            match run_scale(cohort, &cfg) {
                Ok(real) if same_history(&real.train.history, &train.history) => {}
                Ok(_) => out.fail("the traced op's loss history differs from run_scale"),
                Err(e) => out.fail(format!("run_scale failed: {e}")),
            }
        }
    }

    out.report.push(host::record("scale_stream", opts.seed, opts.trace, cfg.workers));
    out.report.push(format!(
        "scale_stream ops={} failed={} window_s={window_s:.3} patients_per_op={patients} \
         chunk_patients={chunk} chunks_per_op={} warmup_patients={warmup}",
        out.attempted,
        out.failed,
        patients.div_ceil(chunk)
    ));
    out.report.push(format!(
        "scale_s_per_mrow = {} s/Mrow (n={})",
        median(&s_per_mrow),
        s_per_mrow.len()
    ));

    if opts.trace {
        layer_metrics(&mut out, &tracer, &per_op, &cfg, &op_ms);
        crate::write_trace("scale_stream", opts, &tracer);
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
    per_op: &[OpResult],
    cfg: &ScaleConfig,
    op_ms: &[f64],
) {
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let n = per_op.len();
    let per_op_ms = |name: &str| -> Vec<f64> {
        let by_op = trace::self_by_op(&spans, &selfs, name);
        (0..n as u32).map(|op| by_op.get(&op).map_or(0.0, |v| v.0 as f64 / 1e6)).collect()
    };
    let sum_by_op = |name: &str| -> Vec<f64> {
        let mut total = vec![0.0; n];
        for s in spans.iter().filter(|s| s.name == name && (s.op as usize) < n) {
            total[s.op as usize] += s.nanos() as f64 / 1e6;
        }
        total
    };
    let busy = sum_by_op("parallel.job");
    let makespan = sum_by_op("parallel.waves");
    let idle: Vec<f64> =
        busy.iter().zip(&makespan).map(|(&b, &m)| idle_share(b, cfg.workers.max(1), m)).collect();
    let fit_ms = per_op_ms("gbdt.chunked_fit");
    let row_trees: Vec<f64> = per_op
        .iter()
        .zip(&fit_ms)
        .map(|(r, &ms)| (r.n_rows * cfg.params.n_estimators) as f64 / (ms / 1e3))
        .collect();
    let cover = trace::coverage(&spans);
    if let Err(e) = cover.check(true) {
        out.fail(e);
    }
    out.report.push(format!("trace spans={} {}", spans.len(), cover.line()));
    let counts =
        |f: fn(&OpResult) -> f64| -> f64 { median(&per_op.iter().map(f).collect::<Vec<_>>()) };
    out.per_layer = vec![
        Metric::new("cohort.generate_ms", "ms", median(&per_op_ms("cohort.generate")), n),
        Metric::new("cohort.patients", "count", counts(|r| r.n_patients as f64), n),
        Metric::new("preprocess.featurise_ms", "ms", median(&per_op_ms("preprocess.featurise")), n),
        Metric::new("preprocess.rows", "count", counts(|r| r.n_rows as f64), n),
        Metric::new("gbdt.sketch_ms", "ms", median(&per_op_ms("gbdt.sketch")), n),
        Metric::new("gbdt.encode_ms", "ms", median(&per_op_ms("gbdt.encode")), n),
        Metric::new("gbdt.spill_write_ms", "ms", median(&per_op_ms("gbdt.spill_write")), n),
        Metric::new("gbdt.spill_bytes", "bytes", counts(|r| r.spill_bytes as f64), n),
        Metric::new("gbdt.chunked_fit_ms", "ms", median(&fit_ms), n),
        Metric::new("gbdt.fit_row_trees_per_s", "1/s", median(&row_trees), n),
        Metric::new("parallel.idle_share", "share", median(&idle), n),
        Metric::new("trace.op_p50_ms", "ms", median(op_ms), op_ms.len()),
    ];
}
