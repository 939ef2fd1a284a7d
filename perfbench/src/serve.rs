//! `serve_closed`: the batching prediction service under a closed loop
//! of two clients.
//!
//! Set-up trains the SPPB DD model (`fit_final_model`), publishes it to
//! the run's own `ModelRegistry`, loads it back and spawns the service
//! with `ServeConfig::default()`. Each client then sends its next
//! request when the previous answer arrives: 9 in 10 predict 1–32 rows,
//! 1 in 10 explains one row. Every prediction must equal a set-up table
//! from `FlatForest::predict_batch` bit for bit, and every explanation
//! must add up to its prediction. Traced runs wrap submit and wait in
//! spans and replay a seeded sample of the requests through the forest
//! and the explainer to split latency into compute and service.

use std::path::Path;
use std::time::Instant;

use msaw_cohort::{generate, CohortConfig};
use msaw_core::experiment::fit_final_model;
use msaw_core::{Approach, ExperimentConfig, ModelKey, ModelRegistry};
use msaw_gbdt::simd::{active_level, SimdLevel};
use msaw_gbdt::ModelArtifact;
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind};
use msaw_serve::{
    ClientId, PredictionOutput, PredictionService, RequestOptions, ServeConfig, ServiceHandle,
};
use msaw_shap::{PathArena, TreeExplainer};
use msaw_tabular::Matrix;
use rand::prelude::*;

use crate::host::{self, RunDir};
use crate::stats::{median, Latency};
use crate::trace::{self, Tracer};
use crate::{timed, Metric, Opts, Outcome};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;
/// Client threads, each with its own `ClientId`.
const CLIENTS: usize = 2;
/// Requests sent from the set-up thread before the timed window.
const WARMUP: usize = 64;
/// Share of requests that explain one row.
const EXPLAIN_SHARE: f64 = 0.1;
/// Largest predict request, in rows.
const MAX_ROWS: usize = 32;
/// Highest percentile the tails are read at.
const TAIL_CAP: f64 = 0.99;
/// Requests of each kind the traced run replays.
const REPLAY_PREDICTS: usize = 2000;
const REPLAY_EXPLAINS: usize = 300;

/// One request: which rows, and whether to explain them.
#[derive(Debug, Clone)]
struct Request {
    explain: bool,
    rows: Vec<usize>,
}

fn draw(rng: &mut StdRng, n: usize) -> Request {
    let explain = rng.random_bool(EXPLAIN_SHARE);
    let k = if explain { 1 } else { rng.random_range(1..MAX_ROWS + 1) };
    Request { explain, rows: (0..k).map(|_| rng.random_range(0..n)).collect() }
}

/// Everything a set-up builds.
struct Served {
    service: PredictionService,
    artifact: ModelArtifact,
    features: Matrix,
    table: Vec<f64>,
    patients: usize,
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    total: f64,
    generate: f64,
    featurise: f64,
    fit: f64,
    store: f64,
    load: f64,
}

fn inputs(opts: &Opts) -> (CohortConfig, ExperimentConfig) {
    if opts.tiny {
        (CohortConfig::small(opts.seed), ExperimentConfig::fast())
    } else {
        (CohortConfig::paper(opts.seed), ExperimentConfig::default())
    }
}

/// Check one answer against the prediction table; `None` when it holds.
fn check_answer(req: &Request, out: &PredictionOutput, table: &[f64]) -> Option<String> {
    if out.predictions.len() != req.rows.len() {
        return Some(format!("{} predictions for {} rows", out.predictions.len(), req.rows.len()));
    }
    for (&r, p) in req.rows.iter().zip(&out.predictions) {
        if p.to_bits() != table[r].to_bits() {
            return Some(format!("row {r}: served {p} but the offline table has {}", table[r]));
        }
    }
    if req.explain {
        if out.degraded {
            return Some("an explain request came back degraded".into());
        }
        let Some(explanations) = &out.explanations else {
            return Some("an explain request came back without explanations".into());
        };
        if explanations.len() != req.rows.len() {
            return Some("one explanation per row expected".into());
        }
        for (e, &p) in explanations.iter().zip(&out.predictions) {
            let total = e.base_value + e.values.iter().sum::<f64>();
            if (total - p).abs() > 1e-9 * p.abs().max(1.0) {
                return Some(format!("local accuracy: base + sum = {total}, prediction {p}"));
            }
        }
    }
    None
}

fn options(req: &Request, client: u64) -> RequestOptions {
    RequestOptions { explain: req.explain, client: ClientId(client), ..RequestOptions::default() }
}

fn set_up(opts: &Opts, registry_dir: &Path) -> Result<(Served, SetupTimes), String> {
    let start = Instant::now();
    let (cohort_cfg, cfg) = inputs(opts);
    let mut t = SetupTimes::default();
    let (data, secs) = timed(|| generate(&cohort_cfg));
    t.generate = secs;
    let (set, secs) = timed(|| {
        let panel = FeaturePanel::build(&data, &cfg.pipeline);
        build_samples(&data, &panel, OutcomeKind::Sppb, &cfg.pipeline)
    });
    t.featurise = secs;
    let (model, secs) = timed(|| fit_final_model(&set, &cfg));
    t.fit = secs;
    let registry = ModelRegistry::open(registry_dir).map_err(|e| e.to_string())?;
    let key = ModelKey::for_samples(&set, Approach::DataDriven);
    let (stored, secs) = timed(|| registry.store(&key, &ModelArtifact::from_booster(model, None)));
    stored.map_err(|e| e.to_string())?;
    t.store = secs;
    let (artifact, secs) = timed(|| registry.load(&key));
    let artifact = artifact.map_err(|e| e.to_string())?;
    t.load = secs;
    let table = artifact.forest.predict_batch(&set.features);
    let service = PredictionService::spawn(artifact.clone(), ServeConfig::default())
        .map_err(|e| e.to_string())?;
    let served =
        Served { service, artifact, features: set.features, table, patients: data.patients.len() };
    let handle = served.service.handle();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5eed_0000);
    for _ in 0..WARMUP {
        let req = draw(&mut rng, served.features.nrows());
        let rows = served.features.take_rows(&req.rows);
        let out = handle
            .submit(&rows, options(&req, 0))
            .and_then(|t| t.wait())
            .map_err(|e| format!("warm-up: {e}"))?;
        if let Some(e) = check_answer(&req, &out, &served.table) {
            return Err(format!("warm-up: {e}"));
        }
    }
    t.total = start.elapsed().as_secs_f64();
    Ok((served, t))
}

/// One answered request.
#[derive(Debug, Clone)]
struct Done {
    explain: bool,
    rows: usize,
    /// Submit and answer, ns since the window's epoch.
    start: u64,
    end: u64,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

#[derive(Debug, Default)]
struct ClientLog {
    done: Vec<Done>,
    /// The requests behind `done`, kept by traced runs for replay.
    sent: Vec<Request>,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
}

struct ClientCtx<'a> {
    id: u64,
    seed: u64,
    handle: ServiceHandle,
    features: &'a Matrix,
    table: &'a [f64],
    epoch: Instant,
    until: Instant,
    tracer: Option<&'a Tracer>,
}

fn client_loop(c: ClientCtx<'_>) -> ClientLog {
    let mut rng = StdRng::seed_from_u64(c.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (c.id + 1));
    let mut log = ClientLog::default();
    let n = c.features.nrows();
    let ns = |t: Instant| t.duration_since(c.epoch).as_nanos() as u64;
    while Instant::now() < c.until {
        let req = draw(&mut rng, n);
        let rows = c.features.take_rows(&req.rows);
        let options = options(&req, c.id);
        let op = (c.id << 24 | log.attempted) as u32;
        log.attempted += 1;
        let t0 = Instant::now();
        let answer = match c.tracer {
            Some(tracer) => tracer.op("serve.request", op, |ctx| {
                let ticket = ctx.span("serve.submit", |_| c.handle.submit(&rows, options));
                ticket.and_then(|t| ctx.span("serve.wait", |_| t.wait()))
            }),
            None => c.handle.submit(&rows, options).and_then(|t| t.wait()),
        };
        let t1 = Instant::now();
        let failure = match answer {
            Ok(out) => {
                let bad = check_answer(&req, &out, c.table);
                log.done.push(Done {
                    explain: req.explain,
                    rows: req.rows.len(),
                    start: ns(t0),
                    end: ns(t1),
                });
                if c.tracer.is_some() {
                    log.sent.push(req);
                }
                bad
            }
            Err(e) => Some(e.to_string()),
        };
        if let Some(e) = failure {
            log.failed += 1;
            if log.failures.len() < 10 {
                log.failures.push(format!("client {}: {e}", c.id));
            }
        }
    }
    log
}

/// Share of one client's predict requests in flight while another
/// client's explain request was.
fn behind_explain_share(logs: &[ClientLog]) -> f64 {
    // A client's requests never overlap each other, so its explains are
    // sorted by start and by end alike.
    let explains: Vec<Vec<&Done>> =
        logs.iter().map(|l| l.done.iter().filter(|d| d.explain).collect()).collect();
    let mut predicts = 0usize;
    let mut behind = 0usize;
    for (i, log) in logs.iter().enumerate() {
        for p in log.done.iter().filter(|d| !d.explain) {
            predicts += 1;
            let overlapped =
                explains.iter().enumerate().filter(|&(j, _)| j != i).any(|(_, other)| {
                    let k = other.partition_point(|e| e.end <= p.start);
                    other.get(k).is_some_and(|e| e.start < p.end)
                });
            behind += usize::from(overlapped);
        }
    }
    if predicts == 0 {
        0.0
    } else {
        behind as f64 / predicts as f64
    }
}

/// Rows the flat forest walks in lockstep at the active SIMD level.
fn group_width() -> usize {
    match active_level() {
        SimdLevel::Avx512 => 32,
        SimdLevel::Avx2 => 16,
        SimdLevel::Scalar => 8,
    }
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir =
        RunDir::create("serve").map_err(|e| format!("cannot create the run directory: {e}"))?;
    let registry_dir = dir.path().join("registry");

    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        // Shut the previous service down outside the timed region.
        drop(served.take());
        let (s, t) = set_up(opts, &registry_dir)?;
        setups.push(t);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");

    let tracer = Tracer::new();
    let epoch = Instant::now();
    let until = epoch + opts.window;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS as u64)
            .map(|id| {
                let ctx = ClientCtx {
                    id,
                    seed: opts.seed,
                    handle: served.service.handle(),
                    features: &served.features,
                    table: &served.table,
                    epoch,
                    until,
                    tracer: opts.trace.then_some(&tracer),
                };
                scope.spawn(move || client_loop(ctx))
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread panicked")).collect()
    });
    let window_s = epoch.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mb();

    let handle = served.service.handle();
    let Served { service, artifact, features, table, patients } = served;
    service.shutdown();
    let stats = handle.stats();

    for log in &logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.check_failures.extend(log.failures.iter().cloned());
    }
    let answered: u64 = logs.iter().map(|l| l.done.len() as u64).sum();
    if stats.answered != WARMUP as u64 + answered
        || stats.shed_total() != 0
        || stats.degraded != 0
        || stats.batcher_restarts != 0
    {
        out.fail(format!(
            "service counters disagree with the clients: answered {} (clients {} + warm-up \
             {WARMUP}), shed {}, degraded {}, restarts {}",
            stats.answered,
            answered,
            stats.shed_total(),
            stats.degraded,
            stats.batcher_restarts
        ));
    }

    let predict_ms: Vec<f64> =
        logs.iter().flat_map(|l| &l.done).filter(|d| !d.explain).map(Done::latency_ms).collect();
    let explain_ms: Vec<f64> =
        logs.iter().flat_map(|l| &l.done).filter(|d| d.explain).map(Done::latency_ms).collect();
    let rows: usize = logs.iter().flat_map(|l| &l.done).map(|d| d.rows).sum();
    let predict = Latency::of(&predict_ms, TAIL_CAP);
    let explain = Latency::of(&explain_ms, TAIL_CAP);
    let tail_name = |lat: &Latency| {
        lat.tail.map_or_else(|| "max".to_string(), |(p, _)| format!("p{}", 100.0 * p))
    };

    // A coalesced batch of two requests holds at most 64 rows, under the
    // service's 256-row block, so its predict pool runs one worker.
    out.report.push(host::record("serve_closed", opts.seed, opts.trace, 1));
    out.report.push(format!(
        "serve_closed clients={CLIENTS} requests={} failed={} predicts={} explains={} \
         window_s={window_s:.3} predict_tail={} explain_tail={}",
        out.attempted,
        out.failed,
        predict.n,
        explain.n,
        tail_name(&predict),
        tail_name(&explain),
    ));
    out.report.push(format!("predict_p50_ms = {} ms (n={})", predict.p50, predict.n));
    out.report.push(format!(
        "predict_tail_ms = {} ms ({}, n={})",
        predict.tail_value(&predict_ms),
        tail_name(&predict),
        predict.n
    ));
    out.report.push(format!("explain_p50_ms = {} ms (n={})", explain.p50, explain.n));
    out.report.push(format!(
        "explain_tail_ms = {} ms ({}, n={})",
        explain.tail_value(&explain_ms),
        tail_name(&explain),
        explain.n
    ));
    out.report
        .push(format!("served_rows_per_s = {} rows/s (n={answered})", rows as f64 / window_s));

    if opts.trace {
        let replay = replay(opts, &logs, &artifact, &features, &table);
        if let Some(e) = replay.mismatch {
            out.fail(e);
        }
        let spans = tracer.spans();
        let submit_us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.submit")
            .map(|s| s.nanos() as f64 / 1e3)
            .collect();
        let cover = trace::coverage(&spans);
        if let Err(e) = cover.check(false) {
            out.fail(e);
        }
        out.report.push(format!("trace spans={} {}", spans.len(), cover.line()));
        let med =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
        let n = setups.len();
        // Each set-up fits the one exact SPPB model.
        let fit_max_ms = setups.iter().map(|t| t.fit).fold(0.0, f64::max) * 1e3;
        let trees = inputs(opts).1.params_for(OutcomeKind::Sppb).n_estimators;
        out.per_layer = vec![
            Metric::new("cohort.generate_ms", "ms", med(|t| t.generate), n),
            Metric::new("preprocess.featurise_ms", "ms", med(|t| t.featurise), n),
            Metric::new("cohort.patients", "count", patients as f64, 1),
            Metric::new("preprocess.rows", "count", features.nrows() as f64, 1),
            Metric::new("core.fit_ms", "ms", med(|t| t.fit), n),
            Metric::new("core.fits", "count", 1.0, n),
            Metric::new("core.fit_p50_ms", "ms", med(|t| t.fit), n),
            Metric::new("core.fit_max_ms", "ms", fit_max_ms, n),
            Metric::new(
                "gbdt.exact_trees_per_s",
                "trees/s",
                trees as f64 / (med(|t| t.fit) / 1e3),
                n,
            ),
            Metric::new("core.registry_store_ms", "ms", med(|t| t.store), n),
            Metric::new("core.registry_load_ms", "ms", med(|t| t.load), n),
            Metric::new("serve.submit_us", "us", median(&submit_us), submit_us.len()),
            Metric::new(
                "serve.overhead_ms",
                "ms",
                predict.p50 - replay.predict_p50_ms,
                replay.predicts,
            ),
            Metric::new(
                "gbdt.forest_us_per_row_small",
                "us",
                replay.us_per_row_small,
                replay.predicts,
            ),
            Metric::new(
                "gbdt.forest_us_per_row_large",
                "us",
                replay.us_per_row_large,
                replay.predicts,
            ),
            Metric::new("shap.ms_per_row", "ms", replay.shap_ms_per_row, replay.explains),
            Metric::new(
                "serve.behind_explain_share",
                "share",
                behind_explain_share(&logs),
                predict.n,
            ),
            Metric::new("serve.predict_tail_ms", "ms", predict.tail_value(&predict_ms), predict.n),
            Metric::new("serve.explain_p50_ms", "ms", explain.p50, explain.n),
            Metric::new("serve.explain_tail_ms", "ms", explain.tail_value(&explain_ms), explain.n),
            Metric::new("serve.answered", "count", stats.answered as f64, 1),
            Metric::new("serve.shed_total", "count", stats.shed_total() as f64, 1),
            Metric::new("serve.degraded", "count", stats.degraded as f64, 1),
            Metric::new("serve.batcher_restarts", "count", stats.batcher_restarts as f64, 1),
            Metric::new("trace.op_p50_ms", "ms", predict.p50, predict.n),
        ];
        crate::write_trace("serve_closed", opts, &tracer);
    } else {
        out.end_to_end = vec![
            Metric::new(
                "setup_s",
                "s",
                median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()),
                setups.len(),
            ),
            Metric::new("peak_rss_mb", "MiB", peak_rss, 1),
            Metric::new("op_p50_ms", "ms", predict.p50, predict.n),
            Metric::new("rows_per_s", "rows/s", rows as f64 / window_s, answered as usize),
        ];
    }
    drop(dir);
    Ok(out)
}

/// Compute cost of a seeded sample of the served requests.
struct Replay {
    predicts: usize,
    explains: usize,
    predict_p50_ms: f64,
    us_per_row_small: f64,
    us_per_row_large: f64,
    shap_ms_per_row: f64,
    mismatch: Option<String>,
}

fn replay(
    opts: &Opts,
    logs: &[ClientLog],
    artifact: &ModelArtifact,
    features: &Matrix,
    table: &[f64],
) -> Replay {
    let sent: Vec<&Request> = logs.iter().flat_map(|l| &l.sent).collect();
    let mut predicts: Vec<&Request> = sent.iter().copied().filter(|r| !r.explain).collect();
    let mut explains: Vec<&Request> = sent.iter().copied().filter(|r| r.explain).collect();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x7e91_a000);
    predicts.shuffle(&mut rng);
    explains.shuffle(&mut rng);
    predicts.truncate(REPLAY_PREDICTS);
    explains.truncate(REPLAY_EXPLAINS);

    let group = group_width();
    let mut mismatch = None;
    let mut compute_ms = Vec::with_capacity(predicts.len());
    let (mut small_s, mut small_rows, mut large_s, mut large_rows) = (0.0, 0usize, 0.0, 0usize);
    for req in &predicts {
        let rows = features.take_rows(&req.rows);
        let (preds, secs) = timed(|| artifact.forest.try_predict_batch_on(1, &rows));
        match preds {
            Ok(p) if p.iter().zip(&req.rows).all(|(a, &r)| a.to_bits() == table[r].to_bits()) => {}
            _ => mismatch = Some("a replayed prediction differs from the served one".to_string()),
        }
        compute_ms.push(secs * 1e3);
        if req.rows.len() < group {
            small_s += secs;
            small_rows += req.rows.len();
        } else {
            large_s += secs;
            large_rows += req.rows.len();
        }
    }
    let explainer = TreeExplainer::new(&artifact.booster);
    let mut arena = PathArena::new();
    let mut shap_ms = Vec::with_capacity(explains.len());
    for req in &explains {
        for &r in &req.rows {
            let (_, secs) = timed(|| explainer.shap_values_row_with(features.row(r), &mut arena));
            shap_ms.push(secs * 1e3);
        }
    }
    let per_row = |s: f64, n: usize| if n == 0 { 0.0 } else { s / n as f64 * 1e6 };
    Replay {
        predicts: predicts.len(),
        explains: shap_ms.len(),
        predict_p50_ms: median(&compute_ms),
        us_per_row_small: per_row(small_s, small_rows),
        us_per_row_large: per_row(large_s, large_rows),
        shap_ms_per_row: median(&shap_ms),
        mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaw_shap::Explanation;

    fn answer(predictions: Vec<f64>, explanation: Option<Explanation>) -> PredictionOutput {
        PredictionOutput {
            predictions,
            explanations: explanation.map(|e| vec![e]),
            degraded: false,
        }
    }

    #[test]
    fn answers_are_checked_bitwise_and_for_local_accuracy() {
        let table = [1.5, -0.25, 3.0];
        let predict = Request { explain: false, rows: vec![2, 0] };
        assert_eq!(check_answer(&predict, &answer(vec![3.0, 1.5], None), &table), None);
        assert!(check_answer(&predict, &answer(vec![3.0, 1.5 + 1e-15], None), &table).is_some());
        assert!(check_answer(&predict, &answer(vec![3.0], None), &table).is_some());

        let explain = Request { explain: true, rows: vec![1] };
        let exact = Explanation { values: vec![-0.5, 0.25], base_value: 0.0, prediction: -0.25 };
        assert_eq!(check_answer(&explain, &answer(vec![-0.25], Some(exact.clone())), &table), None);
        let off = Explanation { values: vec![-0.5, 0.5], ..exact };
        assert!(check_answer(&explain, &answer(vec![-0.25], Some(off)), &table).is_some());
        assert!(check_answer(&explain, &answer(vec![-0.25], None), &table).is_some());
    }
}
