//! The full 12-model grid of the paper's Fig. 4 (and, stratified per
//! clinic, its Table 1): 3 outcomes × {DD, KD} × {w/o FI, w/ FI}. The
//! pooled job runner here also runs the sharded grid's plans
//! ([`crate::grid_chunked`]), so every grid shares one pool, failpoint
//! and error contract.

use crate::config::ExperimentConfig;
use crate::error::PipelineError;
use crate::experiment::{
    finish_variant, try_plan_variant_cached, try_run_fit_job_with, Approach, FitJob, FitOutput,
    VariantPlan, VariantResult,
};
use msaw_cohort::{Clinic, CohortData};
use msaw_gbdt::{ChunkError, ContextCache, TreeScratch};
use msaw_kd::{attach_fi, default_ici_spec, ici_sample_set};
use msaw_preprocess::{build_samples, FeaturePanel, OutcomeKind, SampleSet};

/// The four sample-set variants for one outcome, ready to train on.
pub struct VariantSets {
    /// DD without FI (59 features).
    pub dd: SampleSet,
    /// DD with FI (60 features).
    pub dd_fi: SampleSet,
    /// KD without FI (the ICI scalar).
    pub kd: SampleSet,
    /// KD with FI (ICI + FI).
    pub kd_fi: SampleSet,
}

/// Build all four variants for one outcome.
pub fn build_variant_sets(
    data: &CohortData,
    panel: &FeaturePanel,
    outcome: OutcomeKind,
    cfg: &ExperimentConfig,
) -> VariantSets {
    let dd = build_samples(data, panel, outcome, &cfg.pipeline);
    let dd_fi = attach_fi(&dd, data);
    let spec = default_ici_spec();
    let kd = ici_sample_set(&dd, &spec);
    let kd_fi = attach_fi(&kd, data);
    VariantSets { dd, dd_fi, kd, kd_fi }
}

/// Fallible core of the grid engine, shared by the in-memory, per-clinic
/// and sharded grids: run every fit job of every plan on `workers` pool
/// workers (`0` means the default for the job count), containing both
/// panics and typed fit errors.
///
/// Each worker owns one [`TreeScratch`] for its whole drain — the first
/// job it claims pays the arena allocations, every later fit reuses
/// them (the pool rebuilds a worker's scratch only after a panicked
/// job). Results stay independent of which jobs share a scratch.
///
/// A panicking job surfaces as [`PipelineError::Pool`]; a job whose fit
/// fails surfaces as [`PipelineError::Train`] carrying its flat job
/// index, and one whose bin-coded block fails to load as
/// [`PipelineError::Chunk`]. Either way the pool drains every job first
/// (see `msaw_parallel`'s drain-the-cursor policy), so the reported
/// failure is the *lowest* failing job's at any worker count.
pub(crate) fn try_run_plans_on(
    workers: usize,
    plans: &[VariantPlan<'_>],
    cfg: &ExperimentConfig,
) -> Result<Vec<VariantResult>, PipelineError> {
    let jobs: Vec<(usize, FitJob)> = plans
        .iter()
        .enumerate()
        .flat_map(|(p, plan)| plan.jobs().map(move |job| (p, job)))
        .collect();
    let workers = if workers == 0 { msaw_parallel::default_workers(jobs.len()) } else { workers };
    let results =
        msaw_parallel::try_run_scratch_on(workers, jobs.len(), TreeScratch::new, |scratch, i| {
            #[cfg(feature = "failpoint")]
            msaw_parallel::failpoint::hit("grid_fit", i);
            let (p, job) = jobs[i];
            try_run_fit_job_with(&plans[p], job, cfg, scratch)
        })?;
    let mut outputs: Vec<Vec<FitOutput>> = plans.iter().map(|_| Vec::new()).collect();
    for (i, (&(p, _), result)) in jobs.iter().zip(results).enumerate() {
        match result {
            Ok(out) => outputs[p].push(out),
            // Job order is canonical, so the first error seen here is
            // the lowest failing index — deterministic like the pool's.
            Err(ChunkError::Train(source)) => {
                return Err(PipelineError::Train { job: Some(i), source })
            }
            Err(other) => return Err(other.into()),
        }
    }
    Ok(plans.iter().zip(outputs).map(|(plan, out)| finish_variant(plan, out)).collect())
}

/// The canonical four (set, approach, FI) variants of one outcome's
/// sample sets, in the grid's fixed KD, KD+FI, DD, DD+FI order.
fn variant_specs(sets: &VariantSets) -> [(&SampleSet, Approach, bool); 4] {
    [
        (&sets.kd, Approach::KnowledgeDriven, false),
        (&sets.kd_fi, Approach::KnowledgeDriven, true),
        (&sets.dd, Approach::DataDriven, false),
        (&sets.dd_fi, Approach::DataDriven, true),
    ]
}

/// Run the full 12-model grid over a cohort (Fig. 4) on `workers` pool
/// workers; `workers == 0` means the default.
///
/// Every variant's sample set is indexed and binned exactly once, on
/// this thread, by [`crate::experiment::try_plan_variant_cached`]; the
/// ~72 resulting fold/final fits are then fanned across one bounded
/// worker pool, so parallelism scales with fits rather than with the 3
/// outcomes. Any worker count produces byte-identical results and, on
/// failure, the identical error (same lowest failing job).
pub fn try_run_full_grid_on(
    workers: usize,
    data: &CohortData,
    cfg: &ExperimentConfig,
) -> Result<Vec<VariantResult>, PipelineError> {
    let panel = FeaturePanel::build(data, &cfg.pipeline);
    let all_sets: Vec<VariantSets> = OutcomeKind::ALL
        .iter()
        .map(|&outcome| build_variant_sets(data, &panel, outcome, cfg))
        .collect();
    // One context cache across all 12 plans: DD and DD+FI share 59 of
    // 60 columns, the KD pair shares the ICI scalar, and both FI
    // variants of one outcome share the FI column — each distinct
    // column is quantised once instead of once per variant.
    let mut cache = ContextCache::new();
    let plans: Vec<VariantPlan<'_>> = all_sets
        .iter()
        .flat_map(variant_specs)
        .map(|(set, approach, with_fi)| {
            try_plan_variant_cached(set, approach, with_fi, cfg, &mut cache)
        })
        .collect::<Result<_, _>>()?;
    try_run_plans_on(workers, &plans, cfg)
}

/// Run the per-clinic grids of Table 1: each outcome's four variant
/// sets are built from the full cohort exactly once, then filtered to
/// each clinic, planned (one quantisation per filtered set) and fanned
/// across the bounded worker pool. Results are per clinic, in input
/// order, each in the grid's canonical variant order. A clinic with no
/// usable samples or a failing fit is a [`PipelineError`].
pub fn try_run_clinic_grids(
    data: &CohortData,
    clinics: &[Clinic],
    cfg: &ExperimentConfig,
) -> Result<Vec<(Clinic, Vec<VariantResult>)>, PipelineError> {
    let panel = FeaturePanel::build(data, &cfg.pipeline);
    let all_sets: Vec<VariantSets> = OutcomeKind::ALL
        .iter()
        .map(|&outcome| build_variant_sets(data, &panel, outcome, cfg))
        .collect();
    // One cache for every clinic: within a clinic the variants share
    // columns exactly as in the full grid (DD/DD+FI, the KD pair), so
    // each clinic costs one quantisation per distinct column.
    let mut cache = ContextCache::new();
    clinics
        .iter()
        .map(|&clinic| {
            let restricted: Vec<VariantSets> = all_sets
                .iter()
                .map(|sets| VariantSets {
                    dd: sets.dd.filter_clinic(clinic),
                    dd_fi: sets.dd_fi.filter_clinic(clinic),
                    kd: sets.kd.filter_clinic(clinic),
                    kd_fi: sets.kd_fi.filter_clinic(clinic),
                })
                .collect();
            let plans: Vec<VariantPlan<'_>> = restricted
                .iter()
                .flat_map(variant_specs)
                .map(|(set, approach, with_fi)| {
                    try_plan_variant_cached(set, approach, with_fi, cfg, &mut cache)
                })
                .collect::<Result<_, _>>()?;
            Ok((clinic, try_run_plans_on(0, &plans, cfg)?))
        })
        .collect()
}

/// Look up one variant in a result list.
pub fn find(
    results: &[VariantResult],
    outcome: OutcomeKind,
    approach: Approach,
    with_fi: bool,
) -> &VariantResult {
    results
        .iter()
        .find(|r| r.outcome == outcome && r.approach == approach && r.with_fi == with_fi)
        .expect("variant present in grid results")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::try_run_variant;
    use msaw_cohort::{generate, CohortConfig};

    fn small_grid() -> Vec<VariantResult> {
        let data = generate(&CohortConfig::small(42));
        try_run_full_grid_on(0, &data, &ExperimentConfig::fast()).unwrap()
    }

    fn clinic_grid(
        data: &CohortData,
        clinic: Clinic,
        cfg: &ExperimentConfig,
    ) -> Vec<VariantResult> {
        try_run_clinic_grids(data, &[clinic], cfg).unwrap().pop().unwrap().1
    }

    #[test]
    fn grid_has_all_twelve_variants() {
        let results = small_grid();
        assert_eq!(results.len(), 12);
        for outcome in OutcomeKind::ALL {
            for approach in [Approach::DataDriven, Approach::KnowledgeDriven] {
                for with_fi in [false, true] {
                    let r = find(&results, outcome, approach, with_fi);
                    assert!(r.primary_metric().is_finite());
                }
            }
        }
    }

    #[test]
    fn variant_sets_have_expected_widths() {
        let data = generate(&CohortConfig::small(42));
        let cfg = ExperimentConfig::fast();
        let panel = FeaturePanel::build(&data, &cfg.pipeline);
        let sets = build_variant_sets(&data, &panel, OutcomeKind::Sppb, &cfg);
        assert_eq!(sets.dd.features.ncols(), 59);
        assert_eq!(sets.dd_fi.features.ncols(), 60);
        assert_eq!(sets.kd.features.ncols(), 1);
        assert_eq!(sets.kd_fi.features.ncols(), 2);
        // All four share rows and labels.
        assert_eq!(sets.dd.len(), sets.kd.len());
        assert_eq!(sets.dd.labels, sets.kd_fi.labels);
    }

    #[test]
    fn dd_outperforms_kd_on_regression() {
        // The paper's headline: the data-driven approach performs
        // generally better than the knowledge-driven one.
        let results = small_grid();
        for outcome in [OutcomeKind::Qol, OutcomeKind::Sppb] {
            let dd = find(&results, outcome, Approach::DataDriven, true).primary_metric();
            let kd = find(&results, outcome, Approach::KnowledgeDriven, true).primary_metric();
            assert!(
                dd + 1e-9 >= kd,
                "{}: DD {dd:.3} should not lose to KD {kd:.3}",
                outcome.name()
            );
        }
    }

    #[test]
    fn grid_quantises_each_distinct_column_once() {
        // The engine's headline economy, sharpened by the context
        // cache: DD and DD+FI share 59 columns, the KD pair shares
        // the ICI scalar, both FI variants share the FI column — and
        // because every outcome keeps the same sample rows here, the
        // three outcomes' feature bytes are identical too. The 12
        // variant sets (3 x (59+60+1+2) = 366 naive column passes)
        // collapse to 59 + FI + ICI = 61 distinct quantisations.
        // (Counters are thread-local; contexts are built on the
        // calling thread, so the deltas are exact.)
        let data = generate(&CohortConfig::small(42));
        let before_fits = msaw_gbdt::binning::fit_count();
        let before_cols = msaw_gbdt::binning::column_fit_count();
        let results = try_run_full_grid_on(0, &data, &ExperimentConfig::fast()).unwrap();
        assert_eq!(results.len(), 12);
        assert_eq!(
            msaw_gbdt::binning::fit_count() - before_fits,
            0,
            "every grid context must come out of the cache, not a whole-matrix fit"
        );
        assert_eq!(
            msaw_gbdt::binning::column_fit_count() - before_cols,
            61,
            "the grid must quantise each distinct column exactly once"
        );
    }

    #[test]
    fn clinic_grid_matches_per_variant_serial_path() {
        // The rerouted clinic grid (shared sets, plan + pooled jobs)
        // must reproduce the retired per-clinic path — rebuild the
        // variant sets, filter, run each variant serially — exactly.
        let data = generate(&CohortConfig::small(42));
        let cfg = ExperimentConfig::fast();
        let new = clinic_grid(&data, Clinic::Modena, &cfg);

        let panel = FeaturePanel::build(&data, &cfg.pipeline);
        let mut old = Vec::new();
        for outcome in OutcomeKind::ALL {
            let sets = build_variant_sets(&data, &panel, outcome, &cfg);
            let restricted = VariantSets {
                dd: sets.dd.filter_clinic(Clinic::Modena),
                dd_fi: sets.dd_fi.filter_clinic(Clinic::Modena),
                kd: sets.kd.filter_clinic(Clinic::Modena),
                kd_fi: sets.kd_fi.filter_clinic(Clinic::Modena),
            };
            for (set, approach, with_fi) in variant_specs(&restricted) {
                old.push(try_run_variant(set, approach, with_fi, &cfg).unwrap());
            }
        }

        assert_eq!(new.len(), old.len());
        for (a, b) in new.iter().zip(&old) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.approach, b.approach);
            assert_eq!(a.with_fi, b.with_fi);
            assert_eq!(a.regression, b.regression, "{} {}", a.outcome.name(), a.approach.label());
            assert_eq!(a.classification, b.classification);
            assert_eq!(a.cv_scores, b.cv_scores);
            assert_eq!(a.n_train, b.n_train);
            assert_eq!(a.n_test, b.n_test);
        }
    }

    #[test]
    fn clinic_grids_quantise_once_per_distinct_clinic_column() {
        // Shared full-cohort sets, one shared cache: each clinic's
        // filtered variants share columns exactly like the full grid
        // (61 distinct across its outcomes and variants), and two
        // clinics never share bytes — their row subsets differ — so
        // the pair costs exactly 2 x 61 column quantisations and
        // zero whole-matrix fits.
        let data = generate(&CohortConfig::small(42));
        let cfg = ExperimentConfig::fast();
        let clinics = [Clinic::HongKong, Clinic::Sydney];
        let before_fits = msaw_gbdt::binning::fit_count();
        let before_cols = msaw_gbdt::binning::column_fit_count();
        let per_clinic = try_run_clinic_grids(&data, &clinics, &cfg).unwrap();
        assert_eq!(per_clinic.len(), 2);
        assert_eq!(per_clinic[0].0, Clinic::HongKong);
        assert_eq!(per_clinic[1].0, Clinic::Sydney);
        assert!(per_clinic.iter().all(|(_, r)| r.len() == 12));
        assert_eq!(msaw_gbdt::binning::fit_count() - before_fits, 0);
        assert_eq!(
            msaw_gbdt::binning::column_fit_count() - before_cols,
            2 * 61,
            "two clinics must cost exactly 2 x 61 distinct column quantisations"
        );
    }

    #[test]
    fn clinic_grid_uses_fewer_samples() {
        let data = generate(&CohortConfig::small(42));
        let cfg = ExperimentConfig::fast();
        let full = try_run_full_grid_on(0, &data, &cfg).unwrap();
        let hk = clinic_grid(&data, Clinic::HongKong, &cfg);
        assert_eq!(hk.len(), 12);
        let full_n = find(&full, OutcomeKind::Qol, Approach::DataDriven, false).n_train;
        let hk_n = find(&hk, OutcomeKind::Qol, Approach::DataDriven, false).n_train;
        assert!(hk_n < full_n);
    }
}
