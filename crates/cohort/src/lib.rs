//! # msaw-cohort
//!
//! A synthetic stand-in for the closed My Smart Age with HIV (MySAwH)
//! cohort the paper trained on. Real MySAwH data is identifiable health
//! data from 261 patients and is not distributable, so this crate
//! simulates a cohort with the same *shape*:
//!
//! * 261 patients across three clinics — Modena (128), Sydney (100),
//!   Hong Kong (33) — with ages 50+, years-since-HIV-diagnosis, and
//!   per-clinic protocol differences (Hong Kong is small and more
//!   homogeneous, which is what drives the paper's Table 1 anomalies);
//! * a latent health state per patient: five Intrinsic Capacity domains
//!   (locomotion, cognition, psychological, vitality, sensory) evolving
//!   monthly as a drifting AR(1), plus a frailty level coupled to them;
//! * 56 PRO questionnaire items (Likert 1–5, domain-linked, with mixed
//!   polarity and per-item discrimination) observed **weekly** through
//!   the smartphone app, with realistic gap structure (mean gap ≈ 5
//!   consecutive missing observations, max 17, ≈ 108 gaps per patient —
//!   the paper's §3 Quality Assurance statistics);
//! * daily activity-tracker traces (step count, sleep hours, calories);
//! * clinical assessments at months 0, 9 and 18 with 37 deficit
//!   variables from which the Frailty Index is computed (Searle's
//!   standard procedure, as cited by the paper);
//! * outcome measurements at months 9 and 18: QoL (EQ-5D VAS–like, in
//!   `[0,1]`, skewed high), SPPB (integer 0–12, mass at 9–12) and Falls
//!   (binary, ≈15% positive), matching the Fig. 1 distributions.
//!
//! Everything is deterministic given [`CohortConfig::seed`]. The latent
//! trajectories are exported for *tests only* — the learning pipeline
//! must never see them.
//!
//! A patient's PRO answers are one flat [`ProTable`] of [`N_PRO`] ×
//! [`N_WEEKS`] bytes, question-major, with [`missing::GAP`] (0) for an
//! unanswered week. [`generate_patient`] draws the 56 series eight
//! questions at a time, one xoshiro256++ substream per vector lane,
//! through a certified fast readout compiled for AVX-512, AVX2 and the
//! baseline target and picked at runtime by
//! [`msaw_parallel::simd::active_level`]. Every build yields the bytes
//! of [`ProQuestion::answer`] called once per week on each question's
//! own substream.

pub mod activity;
pub mod clinical;
pub mod config;
pub mod domains;
pub mod generator;
pub mod missing;
pub mod outcomes;
pub mod patient;
pub mod pro;
pub mod rng;
pub mod stream;
pub mod trajectory;
pub mod validate;

pub use config::{ClinicConfig, CohortConfig, MissingnessConfig};
pub use domains::{Domain, DomainVector};
pub use generator::{generate, CohortData};
pub use outcomes::OutcomeRecord;
pub use patient::{Clinic, Patient, PatientId};
pub use pro::{ProQuestion, ProTable, N_PRO, QUESTION_BANK};
pub use stream::{generate_patient, CohortStream, PatientRecord};

/// Months in the study (two 9-month windows).
pub const STUDY_MONTHS: usize = 18;
/// Weekly PRO cadence: 4 app prompts per month.
pub const WEEKS_PER_MONTH: usize = 4;
/// Weekly PRO prompts per question over the study: the length of one
/// answer series.
pub const N_WEEKS: usize = STUDY_MONTHS * WEEKS_PER_MONTH;
/// Days per month used by the activity tracker simulator.
pub const DAYS_PER_MONTH: usize = 30;
/// Clinical visit months (baseline and the two outcome visits).
pub const VISIT_MONTHS: [usize; 3] = [0, 9, 18];
