//! # msaw-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (run them with `cargo run --release -p msaw-bench --bin <name>`),
//! plus Criterion performance benches under `benches/`.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig1_outcome_distributions` | Fig. 1 — QoL / SPPB / Falls distributions |
//! | `fig4_dd_vs_kd` | Fig. 4 — headline DD vs KD grid |
//! | `table1_per_clinic` | Table 1 — per-clinic model grids |
//! | `fig5_mae_by_clinic` | Fig. 5 — per-patient MAE box plots by clinic |
//! | `fig6_local_explanations` | Fig. 6 — contrasting local SHAP reports |
//! | `fig7_global_dependence` | Fig. 7 — SHAP dependence + data-driven cutoff |
//! | `qa_gap_sweep` | §3 QA — max-interpolation-gap sweep |

use msaw_cohort::{generate, CohortConfig, CohortData};
use msaw_core::ExperimentConfig;

/// The seed every experiment binary uses, so their outputs agree.
pub const EXPERIMENT_SEED: u64 = 42;

/// Generate the paper-scale cohort all experiment binaries share.
pub fn paper_cohort() -> CohortData {
    generate(&CohortConfig::paper(EXPERIMENT_SEED))
}

/// The shared experiment configuration.
pub fn experiment_config() -> ExperimentConfig {
    ExperimentConfig { seed: EXPERIMENT_SEED, ..ExperimentConfig::default() }
}

/// Render a percentage the way the paper's tables do.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", 100.0 * x)
}

/// What an experiment binary can fail on: its command line, its output
/// files, or the pipeline itself. Each renders as one line for
/// [`exit_on_error`]; results on stdout are never mixed with errors.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command-line usage.
    Usage(String),
    /// A file or directory operation failed; `path` names the target.
    Io {
        /// The file or directory being written.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The pipeline failed beneath the binary.
    Pipeline(msaw_core::PipelineError),
    /// A report asked for a degenerate histogram binning.
    Histogram(msaw_metrics::HistogramError),
    /// The serving bench's client/service harness failed.
    Serve(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "usage: {msg}"),
            BenchError::Io { path, source } => write!(f, "cannot write `{path}`: {source}"),
            BenchError::Pipeline(e) => write!(f, "{e}"),
            BenchError::Histogram(e) => write!(f, "{e}"),
            BenchError::Serve(msg) => write!(f, "serving bench failed: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
            BenchError::Pipeline(e) => Some(e),
            BenchError::Histogram(e) => Some(e),
            BenchError::Usage(_) | BenchError::Serve(_) => None,
        }
    }
}

impl From<msaw_core::PipelineError> for BenchError {
    fn from(e: msaw_core::PipelineError) -> Self {
        BenchError::Pipeline(e)
    }
}

impl From<msaw_metrics::HistogramError> for BenchError {
    fn from(e: msaw_metrics::HistogramError) -> Self {
        BenchError::Histogram(e)
    }
}

/// The single optional-output-path command line every bench binary
/// accepts: zero args → `default`, one arg → that path, more → a
/// [`BenchError::Usage`] naming the binary.
pub fn out_path_arg(binary: &str, default: &str) -> Result<String, BenchError> {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| default.to_string());
    if args.next().is_some() {
        return Err(BenchError::Usage(format!("{binary} [{default}]")));
    }
    Ok(path)
}

/// Unwrap a binary's `run()` result: errors print one line to stderr
/// and exit non-zero, so a failed run can never masquerade as results
/// on stdout.
pub fn exit_on_error(result: Result<(), BenchError>) {
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_rounds_like_the_paper() {
        assert_eq!(pct(0.943), "94%");
        assert_eq!(pct(0.02), "2%");
        assert_eq!(pct(1.0), "100%");
    }
}
