//! Tiny-size runs of every workload, untraced and traced: each must
//! pass its own output checks and report every metric it owns.

use std::time::Duration;

use msaw_perfbench::{run_workload, Opts, Outcome, END_TO_END};

fn run(workload: &str, trace: bool) -> Outcome {
    let opts = Opts { seed: 3, window: Duration::from_millis(300), trace, tiny: true };
    let out = run_workload(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(out.correct(), "{workload} trace={trace}: {:?}", out.check_failures);
    assert_eq!(out.failed, 0, "{workload} trace={trace}");
    assert!(out.attempted >= 1);
    out
}

fn assert_untraced(out: &Outcome) {
    for (name, _) in END_TO_END {
        let value = out.e2e(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
    assert!(out.per_layer.is_empty());
}

fn assert_traced(out: &Outcome, layers: &[&str]) {
    assert!(out.end_to_end.is_empty());
    for name in layers {
        let value = out.layer(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
}

#[test]
fn paper_grid_smoke() {
    assert_untraced(&run("paper_grid", false));
    let out = run("paper_grid", true);
    assert_traced(
        &out,
        &[
            "cohort.generate_ms",
            "preprocess.featurise_ms",
            "kd.variants_ms",
            "gbdt.context_ms",
            "core.fit_ms",
            "core.fit_p50_ms",
            "core.fit_max_ms",
            "core.fit_dd_share",
            "gbdt.exact_trees_per_s",
            "trace.op_p50_ms",
        ],
    );
    assert_eq!(out.layer("core.fits"), Some(72.0));
}

#[test]
fn scale_stream_smoke() {
    assert_untraced(&run("scale_stream", false));
    assert_traced(
        &run("scale_stream", true),
        &[
            "cohort.generate_ms",
            "cohort.patients",
            "preprocess.featurise_ms",
            "preprocess.rows",
            "gbdt.sketch_ms",
            "gbdt.encode_ms",
            "gbdt.spill_write_ms",
            "gbdt.spill_bytes",
            "gbdt.chunked_fit_ms",
            "gbdt.fit_row_trees_per_s",
            "trace.op_p50_ms",
        ],
    );
}

#[test]
fn serve_closed_smoke() {
    assert_untraced(&run("serve_closed", false));
    let out = run("serve_closed", true);
    assert_traced(
        &out,
        &[
            "cohort.generate_ms",
            "core.fit_ms",
            "core.fit_max_ms",
            "gbdt.exact_trees_per_s",
            "core.registry_store_ms",
            "core.registry_load_ms",
            "serve.submit_us",
            "gbdt.forest_us_per_row_small",
            "gbdt.forest_us_per_row_large",
            "shap.ms_per_row",
            "serve.explain_p50_ms",
            "serve.answered",
            "trace.op_p50_ms",
        ],
    );
    for counter in ["serve.shed_total", "serve.degraded", "serve.batcher_restarts"] {
        assert_eq!(out.layer(counter), Some(0.0), "{counter}");
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let opts = Opts { seed: 1, window: Duration::ZERO, trace: false, tiny: true };
    assert!(run_workload("cache_hit", &opts).is_err());
}
