//! # msaw-perfbench
//!
//! A steady benchmark for the three headline paths of the repo:
//!
//! * `paper_grid` — the 12-model DD-vs-KD grid of Fig. 4 (exact trees,
//!   25 per fit instead of 250), one grid per op, closed loop with one
//!   caller;
//! * `scale_stream` — the spilled two-pass `run_scale` pipeline over a
//!   fresh ~2000-patient cohort per op, closed loop with one caller;
//! * `serve_closed` — the batching prediction service, closed loop with
//!   two client threads mixing small predicts and one-row explains.
//!
//! An untraced run (`--trace 0`) times the public entry points and
//! prints the end-to-end metrics. A traced run (`--trace 1`) rebuilds
//! each op from the layers' public functions inside spans ([`trace`])
//! and prints the per-layer metrics. Every op's output is checked; a
//! failed check fails the op and the process exits non-zero.
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

pub mod grid;
pub mod host;
pub mod scale;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::Duration;

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the timed window (ops start while it is open).
    pub window: Duration,
    /// Rebuild ops from layer calls inside spans.
    pub trace: bool,
    /// Tiny inputs for smoke tests.
    pub tiny: bool,
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric summarising `samples` values.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name, unit, value, samples }
    }
}

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("op_p50_ms", "ms"), ("rows_per_s", "rows/s")];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("cohort.generate_ms", "ms"),
    ("cohort.patients", "count"),
    ("preprocess.featurise_ms", "ms"),
    ("preprocess.rows", "count"),
    ("kd.variants_ms", "ms"),
    ("gbdt.context_ms", "ms"),
    ("core.fit_ms", "ms"),
    ("core.fits", "count"),
    ("core.fit_p50_ms", "ms"),
    ("core.fit_max_ms", "ms"),
    ("core.fit_dd_share", "share"),
    ("gbdt.exact_trees_per_s", "trees/s"),
    ("parallel.idle_share", "share"),
    ("gbdt.sketch_ms", "ms"),
    ("gbdt.encode_ms", "ms"),
    ("gbdt.spill_write_ms", "ms"),
    ("gbdt.spill_bytes", "bytes"),
    ("gbdt.chunked_fit_ms", "ms"),
    ("gbdt.fit_row_trees_per_s", "1/s"),
    ("serve.submit_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("gbdt.forest_us_per_row_small", "us"),
    ("gbdt.forest_us_per_row_large", "us"),
    ("shap.ms_per_row", "ms"),
    ("serve.behind_explain_share", "share"),
    ("serve.predict_tail_ms", "ms"),
    ("serve.explain_p50_ms", "ms"),
    ("serve.explain_tail_ms", "ms"),
    ("core.registry_store_ms", "ms"),
    ("core.registry_load_ms", "ms"),
    ("serve.answered", "count"),
    ("serve.shed_total", "count"),
    ("serve.degraded", "count"),
    ("serve.batcher_restarts", "count"),
    ("trace.op_p50_ms", "ms"),
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started in the timed window.
    pub attempted: u64,
    /// Ops that returned an error or failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub check_failures: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Human-readable report lines: host record, counts, the
    /// workload's own headline names.
    pub report: Vec<String>,
}

impl Outcome {
    /// Record a failed check against the current op.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        self.check_failures.push(message.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// A per-layer metric by name (for tests and the report).
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.per_layer.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// An end-to-end metric by name.
    pub fn e2e(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: every metric of the run's kind, in the order
    /// of [`END_TO_END`] / [`PER_LAYER`]; layers the workload did not
    /// call, and values with no sample (`NaN`), read 0.
    pub fn json(&self, trace: bool) -> String {
        let (names, have): (&[(&str, &str)], &[Metric]) =
            if trace { (&PER_LAYER, &self.per_layer) } else { (&END_TO_END, &self.end_to_end) };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = have.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Report lines for every metric: name, value, unit, sample count.
    pub fn metric_lines(&self) -> Vec<String> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|m| format!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples))
            .collect()
    }
}

/// Time `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Write a traced run's spans, with their self times, to
/// `STATE_DIR/traces/<workload>-seed<seed>.tsv` (skipped for tiny runs).
pub fn write_trace(workload: &str, opts: &Opts, tracer: &trace::Tracer) {
    if opts.tiny {
        return;
    }
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let path = std::path::Path::new(host::STATE_DIR)
        .join("traces")
        .join(format!("{workload}-seed{}.tsv", opts.seed));
    if let Err(e) = trace::write_tsv(&path, &spans, &selfs) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Run one workload by name.
pub fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    match name {
        "paper_grid" => grid::run(opts),
        "scale_stream" => scale::run(opts),
        "serve_closed" => serve::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected paper_grid, scale_stream or serve_closed)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_of_the_run_kind() {
        let mut out = Outcome {
            attempted: 3,
            end_to_end: vec![Metric::new("setup_s", "s", 0.25, 5)],
            per_layer: vec![Metric::new("core.fits", "count", 72.0, 2)],
            ..Outcome::default()
        };
        let e2e = out.json(false);
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(e2e.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(e2e.matches("\"unit\"").count(), END_TO_END.len());
        let layers = out.json(true);
        assert!(layers.contains("\"core.fits\": {\"value\": 72.0, \"unit\": \"count\"}"));
        assert!(layers.contains("\"shap.ms_per_row\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        assert_eq!(layers.matches("\"unit\"").count(), PER_LAYER.len());
        out.fail("grid 2 differs from grid 0");
        assert!(out
            .json(false)
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|&(n, _)| n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
