//! Byte-identity pin for the 12-model grid.
//!
//! The training engine underneath `try_run_full_grid_on` is allowed to change
//! (shared binning, parallel split search, work-queue scheduling) only
//! if the grid's results stay bit-for-bit identical for a fixed seed.
//! This test pins the full `Debug` rendering of the grid — every float
//! in every variant — against a checked-in snapshot, once for the
//! default exact learner and once with the histogram learner at 32 bins
//! (`fast()` keeps its subsample 0.9, colsample 0.8 and shuffled fold
//! rows, so the second snapshot pins subsampled histogram fits).
//!
//! Regenerate (after an *intentional* protocol change, never an engine
//! change) with:
//!
//! ```text
//! MSAW_REGEN_SNAPSHOT=1 cargo test -p msaw-core --test grid_snapshot
//! ```

use msaw_cohort::{generate, CohortConfig};
use msaw_core::{try_run_full_grid_on, ExperimentConfig};
use msaw_gbdt::TreeMethod;

#[test]
fn full_grid_matches_snapshot() {
    assert_grid_matches(&ExperimentConfig::fast(), "grid_small_fast.txt");
}

#[test]
fn hist_grid_matches_snapshot() {
    let mut cfg = ExperimentConfig::fast();
    for params in [&mut cfg.regression_params, &mut cfg.classification_params] {
        params.tree_method = TreeMethod::Hist { max_bins: 32 };
    }
    assert_grid_matches(&cfg, "grid_small_fast_hist32.txt");
}

fn assert_grid_matches(cfg: &ExperimentConfig, snapshot: &str) {
    let data = generate(&CohortConfig::small(42));
    let results = try_run_full_grid_on(0, &data, cfg).unwrap();
    let rendered = format!("{results:#?}\n");

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots").join(snapshot);
    if std::env::var_os("MSAW_REGEN_SNAPSHOT").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("snapshot regenerated at {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {} ({e}); regenerate with MSAW_REGEN_SNAPSHOT=1", path.display())
    });
    if rendered != expected {
        // Locate the first diverging line so the failure is readable —
        // the full rendering runs to hundreds of lines.
        let first_diff = rendered
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(expected.lines().count()));
        let got = rendered.lines().nth(first_diff).unwrap_or("<eof>");
        let want = expected.lines().nth(first_diff).unwrap_or("<eof>");
        panic!(
            "grid output diverged from snapshot at line {}:\n  got:  {got}\n  want: {want}\n\
             (an engine change must be bit-identical; regenerate only for protocol changes)",
            first_diff + 1
        );
    }
}
