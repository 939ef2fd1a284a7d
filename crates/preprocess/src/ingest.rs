//! Validating ingest: exported sample CSV → checked [`SampleSet`].
//!
//! The inverse of [`SampleSet::to_frame`] + `write_csv`, with the
//! `cohort::validate` pass wired in between CSV parse and sample
//! construction, so malformed data surfaces as one typed
//! [`SampleError`] naming the offending row/column — never a panic,
//! and never silently-poisoned training data.
//!
//! Strict mode fails on the first violation; lenient mode quarantines
//! offending rows (reported by index + reason in the returned
//! [`QuarantineReport`]) and proceeds with the clean subset.

use crate::error::SampleError;
use crate::samples::{OutcomeKind, SampleMeta, SampleSet};
use msaw_cohort::validate::{validate_lenient, validate_strict, QuarantineReport};
use msaw_cohort::{Clinic, PatientId};
use msaw_tabular::csv::{read_csv, CsvSchema};
use msaw_tabular::{DataType, Frame, Matrix, TabularError};
use std::io::BufRead;

/// How ingest reacts to invalid rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Error on the first violation (lowest row index).
    Strict,
    /// Quarantine offending rows and proceed with the clean subset.
    Lenient,
}

/// A successfully ingested sample set.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// The validated (and, in lenient mode, filtered) samples.
    pub set: SampleSet,
    /// Lenient mode's account of what was dropped; `None` in strict
    /// mode (strict either passes everything or errors).
    pub quarantine: Option<QuarantineReport>,
}

impl OutcomeKind {
    /// Map an exported label column name back to its outcome.
    pub fn from_label_column(name: &str) -> Option<OutcomeKind> {
        match name {
            "label_QoL" => Some(OutcomeKind::Qol),
            "label_SPPB" => Some(OutcomeKind::Sppb),
            "label_Falls" => Some(OutcomeKind::Falls),
            _ => None,
        }
    }
}

/// The CSV schema implied by a sample-export header: provenance integer
/// columns, the categorical clinic, floats for everything else.
fn schema_for_header(header: &str) -> CsvSchema {
    let columns = header
        .split(',')
        .map(|name| {
            let dtype = match name {
                "patient" | "month" | "window" => DataType::Int,
                "clinic" => DataType::Categorical,
                _ => DataType::Float,
            };
            (name.to_string(), dtype)
        })
        .collect();
    CsvSchema { columns }
}

/// Read an exported sample CSV, validate it, and build a [`SampleSet`].
///
/// The column schema is inferred from the header, so any frame written
/// by [`SampleSet::to_frame`] + `write_csv` round-trips — including
/// FI-augmented exports with extra feature columns.
pub fn read_sample_csv<R: BufRead>(
    mut reader: R,
    mode: IngestMode,
) -> Result<Ingested, SampleError> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| TabularError::Csv { line: 1, message: e.to_string() })?;
    let header =
        text.lines().next().ok_or(TabularError::Csv { line: 1, message: "empty input".into() })?;
    let frame = read_csv(std::io::Cursor::new(text.as_bytes()), &schema_for_header(header))?;
    ingest_frame(&frame, mode)
}

/// Validate a parsed frame and build a [`SampleSet`] from it.
pub fn ingest_frame(frame: &Frame, mode: IngestMode) -> Result<Ingested, SampleError> {
    match mode {
        IngestMode::Strict => {
            validate_strict(frame)?;
            Ok(Ingested { set: frame_to_samples(frame)?, quarantine: None })
        }
        IngestMode::Lenient => {
            let report = validate_lenient(frame)?;
            if report.clean_rows.is_empty() && frame.nrows() > 0 {
                return Err(SampleError::NoCleanRows);
            }
            let clean = frame.take(&report.clean_rows)?;
            Ok(Ingested { set: frame_to_samples(&clean)?, quarantine: Some(report) })
        }
    }
}

/// Convert a (validated) sample frame into a [`SampleSet`]: provenance
/// columns become [`SampleMeta`], every float column except the label
/// becomes a feature, the `label_*` column becomes the labels.
pub fn frame_to_samples(frame: &Frame) -> Result<SampleSet, SampleError> {
    let schema = frame.schema();
    let (label_name, outcome) = schema
        .fields()
        .iter()
        .find_map(|f| OutcomeKind::from_label_column(&f.name).map(|o| (f.name.clone(), o)))
        .ok_or(SampleError::NoLabelColumn)?;
    let labels = frame.f64_column(&label_name)?.to_vec();

    let patients = frame.i64_column("patient")?;
    let months = frame.i64_column("month")?;
    let windows = frame.i64_column("window")?;
    let (clinic_codes, clinic_cats) =
        frame.column("clinic")?.as_categorical().ok_or(TabularError::TypeMismatch {
            column: "clinic".into(),
            expected: "categorical",
            actual: "non-categorical",
        })?;

    let n = frame.nrows();
    let mut meta = Vec::with_capacity(n);
    for row in 0..n {
        let require = |v: Option<i64>, column: &'static str| {
            v.ok_or(SampleError::MissingProvenance { row, column })
        };
        let clinic_name = clinic_codes[row]
            .map(|code| clinic_cats[code as usize].as_str())
            .ok_or(SampleError::MissingProvenance { row, column: "clinic" })?;
        let clinic = Clinic::from_name(clinic_name)
            .ok_or_else(|| SampleError::UnknownClinic { row, name: clinic_name.to_string() })?;
        meta.push(SampleMeta {
            patient: PatientId(require(patients[row], "patient")? as u32),
            clinic,
            month: require(months[row], "month")? as usize,
            window: require(windows[row], "window")? as u8,
        });
    }

    let feature_names: Vec<String> = schema
        .fields()
        .iter()
        .filter(|f| f.dtype == DataType::Float && f.name != label_name)
        .map(|f| f.name.clone())
        .collect();
    let columns: Vec<&[f64]> =
        feature_names.iter().map(|name| frame.f64_column(name)).collect::<Result<_, _>>()?;
    let features = if n == 0 {
        Matrix::zeros(0, feature_names.len())
    } else {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
        Matrix::from_rows(&rows)
    };

    Ok(SampleSet { features, feature_names, labels, meta, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::{build_samples, FeaturePanel, PipelineConfig};
    use msaw_cohort::validate::{ValidateError, ViolationReason};
    use msaw_cohort::{generate, CohortConfig};
    use std::io::Cursor;

    fn exported(outcome: OutcomeKind) -> (SampleSet, Vec<u8>) {
        let data = generate(&CohortConfig::small(42));
        let cfg = PipelineConfig::default();
        let panel = FeaturePanel::build(&data, &cfg);
        let set = build_samples(&data, &panel, outcome, &cfg);
        let mut buf = Vec::new();
        msaw_tabular::csv::write_csv(&set.to_frame(), &mut buf).unwrap();
        (set, buf)
    }

    #[test]
    fn clean_export_round_trips_in_both_modes() {
        let (set, csv) = exported(OutcomeKind::Qol);
        for mode in [IngestMode::Strict, IngestMode::Lenient] {
            let got = read_sample_csv(Cursor::new(&csv), mode).unwrap();
            assert_eq!(got.set.len(), set.len());
            assert_eq!(got.set.outcome, OutcomeKind::Qol);
            assert_eq!(got.set.feature_names, set.feature_names);
            assert_eq!(got.set.meta, set.meta);
            for (a, b) in got.set.labels.iter().zip(&set.labels) {
                assert!((a - b).abs() < 1e-9);
            }
            if let Some(report) = got.quarantine {
                assert_eq!(report.n_quarantined(), 0);
            }
        }
    }

    /// Corrupt one cell of one data line (1-based line index from 1).
    fn corrupt_line(csv: &[u8], data_row: usize, column: &str, value: &str) -> Vec<u8> {
        let text = std::str::from_utf8(csv).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let col = lines[0].split(',').position(|c| c == column).unwrap();
        let mut cells: Vec<String> = lines[1 + data_row].split(',').map(String::from).collect();
        cells[col] = value.to_string();
        lines[1 + data_row] = cells.join(",");
        (lines.join("\n") + "\n").into_bytes()
    }

    #[test]
    fn strict_mode_errors_on_the_first_bad_row() {
        let (_, csv) = exported(OutcomeKind::Qol);
        let bad = corrupt_line(&csv, 3, "label_QoL", "7.5");
        let err = read_sample_csv(Cursor::new(&bad), IngestMode::Strict).unwrap_err();
        match err {
            SampleError::Validation(ValidateError::Violation(v)) => {
                assert_eq!(v.row, 3);
                assert_eq!(v.reason, ViolationReason::VasOutOfRange);
            }
            other => panic!("expected a strict violation, got {other}"),
        }
    }

    #[test]
    fn lenient_mode_quarantines_exactly_the_bad_rows() {
        let (set, csv) = exported(OutcomeKind::Qol);
        let bad = corrupt_line(
            &corrupt_line(&csv, 2, "label_QoL", "9.0"),
            5,
            "steps_monthly_mean",
            "-10",
        );
        let got = read_sample_csv(Cursor::new(&bad), IngestMode::Lenient).unwrap();
        let report = got.quarantine.unwrap();
        assert_eq!(
            report.quarantined,
            vec![(2, ViolationReason::VasOutOfRange), (5, ViolationReason::NegativeActivity)]
        );
        assert_eq!(got.set.len(), set.len() - 2);
        // The clean subset is the original minus the quarantined rows.
        let keep: Vec<usize> = (0..set.len()).filter(|i| *i != 2 && *i != 5).collect();
        assert_eq!(got.set.meta, set.take(&keep).meta);
    }

    #[test]
    fn non_numeric_cell_is_a_tabular_error() {
        let (_, csv) = exported(OutcomeKind::Qol);
        let bad = corrupt_line(&csv, 0, "label_QoL", "oops");
        let err = read_sample_csv(Cursor::new(&bad), IngestMode::Strict).unwrap_err();
        assert!(matches!(err, SampleError::Tabular(TabularError::Csv { line: 2, .. })), "{err}");
    }

    #[test]
    fn missing_column_is_a_schema_error() {
        let (set, _) = exported(OutcomeKind::Sppb);
        let frame = set.to_frame().drop_column("month").unwrap();
        let err = ingest_frame(&frame, IngestMode::Lenient).unwrap_err();
        assert!(matches!(err, SampleError::Validation(ValidateError::Schema(_))), "{err}");
    }

    #[test]
    fn all_rows_bad_is_no_clean_rows() {
        let (set, _) = exported(OutcomeKind::Falls);
        let mut labels = set.labels.clone();
        labels.fill(0.5);
        let poisoned = SampleSet { labels, ..set };
        let err = ingest_frame(&poisoned.to_frame(), IngestMode::Lenient).unwrap_err();
        assert!(matches!(err, SampleError::NoCleanRows));
    }

    #[test]
    fn fi_augmented_export_round_trips() {
        let (set, _) = exported(OutcomeKind::Qol);
        let fi: Vec<f64> = (0..set.len()).map(|i| (i % 10) as f64 * 0.05).collect();
        let augmented = set.try_with_extra_feature("fi_baseline", &fi).unwrap();
        let mut buf = Vec::new();
        msaw_tabular::csv::write_csv(&augmented.to_frame(), &mut buf).unwrap();
        let got = read_sample_csv(Cursor::new(&buf), IngestMode::Strict).unwrap();
        assert_eq!(got.set.feature_names.last().unwrap(), "fi_baseline");
        assert_eq!(got.set.features.ncols(), 60);
    }
}
