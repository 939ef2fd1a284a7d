//! Pins the generated bytes: every field of every streamed
//! [`PatientRecord`] is folded into one FNV-1a 64-bit hash per cohort,
//! and the hashes are compared against literals. Any change to the
//! simulator that moves a single generated bit — a PRO answer, an
//! activity reading, a latent value, a clinical deficit or an outcome
//! — fails here, before it reaches the archived experiment outputs.

use msaw_cohort::stream::CohortStream;
use msaw_cohort::{CohortConfig, DomainVector, PatientRecord, N_WEEKS};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    fn domains(&mut self, d: &DomainVector) {
        self.f64s(&d.values);
    }

    fn record(&mut self, r: &PatientRecord) {
        let p = &r.patient;
        self.u64(u64::from(p.id.0));
        self.u64(p.clinic as u64);
        self.f64(p.age);
        self.f64(p.years_with_hiv);
        self.domains(&p.baseline_capacity);
        self.f64(p.baseline_frailty);

        self.u64(r.latent.capacity.len() as u64);
        for c in &r.latent.capacity {
            self.domains(c);
        }
        self.f64s(&r.latent.frailty);

        let table = r.pro.chunks_exact(N_WEEKS);
        self.u64(table.len() as u64);
        for series in table {
            self.u64(series.len() as u64);
            // 0 marks a gap; answers are 1-5.
            self.bytes(series);
        }

        self.f64s(&r.activity.steps);
        self.f64s(&r.activity.sleep_hours);
        self.f64s(&r.activity.calories);

        self.u64(r.clinical.len() as u64);
        for a in &r.clinical {
            self.u64(u64::from(a.patient.0));
            self.u64(a.month as u64);
            self.f64s(&a.deficits);
        }

        self.u64(r.outcomes.len() as u64);
        for o in &r.outcomes {
            self.u64(u64::from(o.patient.0));
            self.u64(o.month as u64);
            self.f64(o.qol);
            self.u64(u64::from(o.sppb));
            self.u64(u64::from(o.falls));
        }
    }
}

/// The FNV-64 of every record `config` streams, in id order.
fn fingerprint(config: &CohortConfig) -> u64 {
    let mut h = Fnv::new();
    for record in CohortStream::new(config) {
        h.record(&record);
    }
    h.0
}

/// `paper(seed)` with every clinic's observation noise set to `noise`.
fn paper_with_noise(seed: u64, noise: f64) -> CohortConfig {
    let mut config = CohortConfig::paper(seed);
    for clinic in &mut config.clinics {
        clinic.observation_noise = noise;
    }
    config
}

fn assert_fingerprint(name: &str, config: &CohortConfig, expected: u64) {
    let got = fingerprint(config);
    assert_eq!(got, expected, "{name}: cohort fingerprint {got:#018x}, pinned {expected:#018x}");
}

#[test]
fn paper_seed_42_bytes_are_pinned() {
    assert_fingerprint("paper(42)", &CohortConfig::paper(42), 0x07e7_9e18_efe1_bfd6);
}

#[test]
fn paper_seed_7_bytes_are_pinned() {
    assert_fingerprint("paper(7)", &CohortConfig::paper(7), 0xdb88_ecac_4469_0e39);
}

#[test]
fn scaled_cohort_bytes_are_pinned() {
    assert_fingerprint("scaled(21, 3000)", &CohortConfig::scaled(21, 3000), 0x63a6_f34d_75b2_c0fa);
}

#[test]
fn noiseless_answers_are_pinned() {
    assert_fingerprint("paper(42), noise 0", &paper_with_noise(42, 0.0), 0x2ab9_c141_a7e9_cc51);
}

#[test]
fn very_noisy_answers_are_pinned() {
    assert_fingerprint("paper(42), noise 4", &paper_with_noise(42, 4.0), 0xe47c_1273_5d4d_9156);
}
