#!/usr/bin/env bash
# The repository's tier-1 gate: formatting, lints, build, tests.
# Run from the workspace root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no tracked build artifacts"
tracked_artifacts=$(git ls-files target/ 'vendor/**/target' | head -5)
if [ -n "$tracked_artifacts" ]; then
    echo "error: build artifacts are tracked by git:" >&2
    echo "$tracked_artifacts" >&2
    echo "run: git rm -r --cached target/" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors: dangling and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release -p msaw-bench --bins"
cargo build --release -p msaw-bench --bins   # every figure/table binary + bench_grid & bench_shap

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> cargo test (scalar SIMD fallback forced)"
# The vector kernels are runtime-dispatched; this pass pins the
# always-compiled scalar fallback so it stays green on its own.
MSAW_FORCE_SCALAR=1 cargo test --workspace --quiet

echo "==> serialisation fuzz suite"
cargo test --quiet -p msaw-gbdt --test serialize_robustness --test rank_store_robustness \
    --test spill_robustness

echo "==> fault-injection + serving robustness suites (5 runs at 4 test threads)"
# libtest defaults to one test thread per core, so on a one-core box
# these suites never run concurrently. Tests that share the
# process-global failpoints, panic hook and worker gauge take one lock;
# at four threads the order in which they take it changes from run to
# run, so state one test leaves behind meets a different successor in
# each of the five runs.
for run in 1 2 3 4 5; do
    echo "    run $run/5"
    cargo test --quiet --test fault_injection --test serve_robustness -- --test-threads=4
done
MSAW_FORCE_SCALAR=1 cargo test --quiet --test serve_robustness -- --test-threads=4

echo "==> benchmark tests (perfbench: build + tiny-run output checks)"
# The benchmark is its own Cargo package; a library change that breaks
# its build or its tiny-run checks must fail here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test (release codegen + debug assertions)"
cargo test --workspace --quiet --profile release-dbg

echo "==> serialisation fuzz suite (release codegen + debug assertions)"
cargo test --quiet -p msaw-gbdt --test serialize_robustness --test rank_store_robustness \
    --test spill_robustness --profile release-dbg

echo "==> serving robustness suite (release codegen + debug assertions)"
cargo test --quiet --test serve_robustness --profile release-dbg

# Perf smoke: rerun the benchmark binaries and fail on a >25% headline
# regression against the committed BENCH_*.json. Opt out on boxes where
# timing is meaningless (throttled CI shares): MSAW_SKIP_PERF_SMOKE=1.
if [ "${MSAW_SKIP_PERF_SMOKE:-0}" = "1" ]; then
    echo "==> perf smoke skipped (MSAW_SKIP_PERF_SMOKE=1)"
else
    echo "==> perf smoke (bench_grid / bench_predict / bench_shap / bench_serve)"
    perf_tmp=$(mktemp -d)
    trap 'rm -rf "$perf_tmp"' EXIT
    # bench_grid's sharded section is capped at its 10k smoke point;
    # the committed baseline carries the full 100k row.
    ./target/release/bench_grid "$perf_tmp/grid.json" 10000
    ./target/release/bench_predict "$perf_tmp/predict.json"
    ./target/release/bench_shap "$perf_tmp/shap.json"
    ./target/release/bench_serve "$perf_tmp/serve.json"
    # The sharded-grid row gets 50% headroom (48 spilled fits on a
    # shared runner) and its RSS a hard-ish 25%; the in-memory grid
    # keys keep the default tolerance.
    ./target/release/perf_check BENCH_grid.json "$perf_tmp/grid.json" \
        run_full_grid_secs variants_total_secs hist_build_secs \
        grid10000_secs_per_mrow:0.5 grid10000_peak_rss_mb
    ./target/release/perf_check BENCH_predict.json "$perf_tmp/predict.json" \
        walk_single_core_secs flat_single_core_secs flat_scalar_single_core_secs
    ./target/release/perf_check BENCH_shap.json "$perf_tmp/shap.json" \
        shap_matrix_secs fig7_end_to_end_secs
    # Latency percentiles use the default tolerance (p999 gets 100%
    # headroom — a single-sample tail on a shared runner); the
    # robustness counters are hard gates: any shed request at default
    # limits, or more than the one scripted hot reload, is a bug.
    ./target/release/perf_check BENCH_serve.json "$perf_tmp/serve.json" \
        serve_p50_secs serve_p99_secs serve_p999_secs:1.0 \
        shed_total:0 reload_count:0

    # Scaling smoke: rerun the streaming pipeline's 10k-patient point
    # and gate its normalised stage costs (seconds per million rows),
    # the spilled prefetching fit, and peak RSS against the committed
    # full-sweep baseline, plus one thread's generation cost alone. The
    # spilled fit gets 50% headroom — it is disk-bound and
    # shared-runner I/O is the noisiest thing we gate.
    echo "==> perf smoke (bench_scale, 10k-patient point)"
    ./target/release/bench_scale "$perf_tmp/scale.json" 10000
    ./target/release/perf_check BENCH_scale.json "$perf_tmp/scale.json" \
        scale10000_sketch_secs_per_mrow scale10000_encode_secs_per_mrow \
        scale10000_fit_secs_per_mrow \
        scale10000_spilled_fit_secs_per_mrow:0.5 scale10000_peak_rss_mb \
        generate_us_per_patient

    # Sharded-grid smoke under the forced scalar fallback: the chunked
    # fits must run (and stay gate-clean) without the vector kernels.
    echo "==> perf smoke (bench_grid sharded 10k, scalar fallback forced)"
    MSAW_FORCE_SCALAR=1 ./target/release/bench_grid "$perf_tmp/grid_scalar.json" 10000
    MSAW_FORCE_SCALAR=1 ./target/release/perf_check BENCH_grid.json \
        "$perf_tmp/grid_scalar.json" grid10000_secs_per_mrow:1.0
fi

echo "CI green."
