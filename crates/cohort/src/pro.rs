//! The 56-item PRO (Patient-Related Outcomes) question bank and the
//! answer model.
//!
//! The MySAwH app asked 56 categorical questions spanning the five IC
//! domains. We reproduce that structure: each item has a domain, a
//! human-readable label, a polarity (whether a higher answer means
//! better capacity), and a discrimination (how tightly the answer tracks
//! the latent domain). Answers are Likert 1–5, generated by a graded
//! response model: a noisy linear readout of the latent capacity cut at
//! fixed thresholds.

use crate::domains::Domain;
use crate::rng::{box_muller, box_muller_uniforms};
use crate::N_WEEKS;
#[cfg(target_arch = "x86_64")]
use msaw_parallel::simd::{active_level, SimdLevel};
use rand::rngs::StdRng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// Number of PRO items (as in the paper).
pub const N_PRO: usize = 56;

/// One patient's weekly PRO answers as one flat table: [`N_PRO`]
/// series of [`N_WEEKS`] bytes in bank order, so question `q`'s series
/// is `table[q * N_WEEKS..(q + 1) * N_WEEKS]`. Answers are 1–5 and
/// [`crate::missing::GAP`] (0) marks an unanswered prompt.
pub type ProTable = [u8; N_PRO * N_WEEKS];

/// One questionnaire item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProQuestion {
    /// Stable variable name, e.g. `pro_locomotion_walk_distance`.
    pub name: String,
    /// IC domain the item probes.
    pub domain: Domain,
    /// `true` when a higher answer indicates better capacity.
    pub positive: bool,
    /// Readout strength: how tightly the answer tracks the latent domain
    /// (higher = less noisy item).
    pub discrimination: f64,
    /// Item difficulty: shifts where on the latent scale the answer
    /// categories sit.
    pub difficulty: f64,
    /// How much the item reads the patient's *balance* trait instead of
    /// the domain capacity (0 for most items; high for the balance-
    /// specific locomotion items).
    pub balance_loading: f64,
}

/// Items that read the balance trait, with their loading.
const BALANCE_ITEMS: [(&str, f64); 3] = [
    ("pro_locomotion_balance_confidence", 0.6),
    ("pro_locomotion_gait_steadiness", 0.6),
    ("pro_locomotion_fear_of_falling", 0.55),
];

/// Per-domain item labels (counts: 12 + 10 + 12 + 12 + 10 = 56).
const LOCOMOTION_ITEMS: [(&str, bool); 12] = [
    ("walk_distance", true),
    ("stair_climb", true),
    ("chair_rise", true),
    ("balance_confidence", true),
    ("outdoor_mobility", true),
    ("gait_steadiness", true),
    ("joint_pain", false),
    ("walking_aid_need", false),
    ("physical_activity_freq", true),
    ("household_tasks", true),
    ("fear_of_falling", false),
    ("exercise_tolerance", true),
];

const COGNITION_ITEMS: [(&str, bool); 10] = [
    ("memory_recall", true),
    ("concentration", true),
    ("word_finding", true),
    ("orientation", true),
    ("decision_making", true),
    ("forgetfulness", false),
    ("mental_fatigue", false),
    ("planning_ability", true),
    ("medication_adherence", true),
    ("confusion_episodes", false),
];

const PSYCHOLOGICAL_ITEMS: [(&str, bool); 12] = [
    ("mood", true),
    ("stress_level", false),
    ("anxiety", false),
    ("sleep_quality", true),
    ("loneliness", false),
    ("social_engagement", true),
    ("life_satisfaction", true),
    ("depressive_feelings", false),
    ("coping_ability", true),
    ("irritability", false),
    ("sense_of_purpose", true),
    ("relaxation", true),
];

const VITALITY_ITEMS: [(&str, bool); 12] = [
    ("energy_level", true),
    ("appetite", true),
    ("fatigue", false),
    ("physical_stamina", true),
    ("morning_freshness", true),
    ("weight_stability", true),
    ("recovery_speed", true),
    ("breathlessness", false),
    ("muscle_strength_felt", true),
    ("daytime_sleepiness", false),
    ("thirst_hydration", true),
    ("general_health_felt", true),
];

const SENSORY_ITEMS: [(&str, bool); 10] = [
    ("vision_near", true),
    ("vision_far", true),
    ("hearing_conversation", true),
    ("hearing_noisy_env", true),
    ("taste_smell", true),
    ("eye_strain", false),
    ("tinnitus", false),
    ("night_vision", true),
    ("reading_difficulty", false),
    ("device_text_readability", true),
];

fn build_bank() -> Vec<ProQuestion> {
    let mut bank = Vec::with_capacity(N_PRO);
    let mut add = |items: &[(&str, bool)], domain: Domain| {
        for (i, (label, positive)) in items.iter().enumerate() {
            // Deterministic per-item psychometrics: spread discrimination
            // over [0.7, 1.5] and difficulty over [-0.3, 0.3].
            let t = i as f64 / items.len().max(1) as f64;
            let name = format!("pro_{}_{}", domain.name(), label);
            let balance_loading =
                BALANCE_ITEMS.iter().find(|(n, _)| *n == name).map(|(_, l)| *l).unwrap_or(0.0);
            bank.push(ProQuestion {
                name,
                domain,
                positive: *positive,
                discrimination: 0.7 + 0.8 * ((t * 7.13).sin() * 0.5 + 0.5),
                difficulty: 0.3 * ((t * 11.7).cos()),
                balance_loading,
            });
        }
    };
    add(&LOCOMOTION_ITEMS, Domain::Locomotion);
    add(&COGNITION_ITEMS, Domain::Cognition);
    add(&PSYCHOLOGICAL_ITEMS, Domain::Psychological);
    add(&VITALITY_ITEMS, Domain::Vitality);
    add(&SENSORY_ITEMS, Domain::Sensory);
    debug_assert_eq!(bank.len(), N_PRO);
    bank
}

/// The 56-item bank, in canonical order (feature order of the DD models).
pub static QUESTION_BANK: LazyLock<Vec<ProQuestion>> = LazyLock::new(build_bank);

/// The graded response's cut points: a readout below `THRESHOLDS[0]`
/// is category 1, one at or above `THRESHOLDS[3]` is category 5.
const THRESHOLDS: [f64; 4] = [-1.5, -0.5, 0.5, 1.5];

// The certified series draw
// -------------------------
// `answer` forms N = fl(fl(√fl(−2·ln u1))·fl(cos fl(τ·u2))) through libm
// and cuts the readout z = fl(m + fl(s·N)), m = disc·(θ−0.5)·4 −
// difficulty, s = noise_scale. Only the side of each threshold z falls
// on matters, so the lockstep draw forms N' from the same u1 ∈ [2⁻¹⁰²²,
// 1) and u2 ∈ [0, 1) with `fast_ln` and `fast_cos_tau`, and keeps the
// category of z' = fl(m + fl(s·N')) unless z' lies within a band of a
// threshold. With u = 2⁻⁵³ the band covers four error sources:
//
// 1. Polynomial truncation. `fast_ln` writes u1 = 2^k·x, x ∈ [√½, √2),
//    and sums ln x = 2·atanh(t), t = (x−1)/(x+1), |t| ≤ 0.1716, through
//    t⁹: the dropped tail is below t¹⁰/11/(1−t²) ≤ 2.08e-9 of ln x.
//    `fast_cos_tau` folds cos(2π·u2) onto sin(2π·y), y = |u2 − ½| − ¼ ∈
//    [−¼, ¼] (both steps are exact on the 2⁻⁵³ grid u2 is drawn on), and
//    sums its Taylor series through y¹³: the alternating tail is below
//    (π/2)¹⁵/15! ≤ 6.69e-10.
// 2. Rounding. The division, Horner steps and k·ln 2 add at most 16u
//    relative to ln u1 (|ln u1| ≥ ln √2 whenever k ≠ 0); fourteen Horner
//    steps on terms summing to sinh(π/2) add under 4e-15 to the cosine.
// 3. libm. glibc documents at most 1 ulp for `log` and `cos` on x86_64;
//    4 ulp are budgeted, so ln u1 is off by at most 2⁻⁵⁰ relative and
//    cos by 4.5e-16, plus 1.0e-15 because τ·u2 is rounded first (cos is
//    1-Lipschitz).
// 4. What sqrt and the product pass on. A relative error under the root
//    halves, and R = √(−2·ln u1) ≤ 37.65 (at u1 = 2⁻¹⁰²²), so the two
//    paths' R differ by at most 37.65·(1.04e-9 + 2⁻⁵¹ + 2u) ≤ 3.9e-8.
//    Then |R'C' − RC| ≤ |R' − R|·|C'| + R·|C' − C| ≤ 3.9e-8 + 37.65·
//    6.7e-10 ≤ 6.5e-8, and rounding N, N', s·N and s·N' adds at most
//    4u·37.65·|s|.
//
// Hence |fl(s·N) − fl(s·N')| ≤ |s|·NORMAL_ERR, with NORMAL_ERR = 1e-7
// leaving 50% headroom. The last addition moves z' off m + fl(s·N') by
// at most u·|z'|, and for every threshold t the float t − 2⁻⁵² exists,
// so a z' clear of every t by more than
//     band = |s|·NORMAL_ERR + 2⁻⁵⁰·(1 + |z'|)
// has z on the same side of every t (the band's own rounding, that of
// |z' − t| and any underflow fit in the slack). A z' inside a band, or
// a non-finite one (a non-finite θ or noise scale), takes the exact
// path.

/// Bound on |fl(s·N) − fl(s·N')| per unit of noise scale; see above.
const NORMAL_ERR: f64 = 1e-7;

/// Rounding allowance of the band, per unit of `1 + |z'|`: 2⁻⁵⁰.
const ROUNDING_BAND: f64 = 4.0 * f64::EPSILON;

impl ProQuestion {
    /// Draw a Likert 1–5 answer given the latent capacity of the item's
    /// domain (`theta` in `[0,1]`) and an observation-noise multiplier.
    ///
    /// This is the reference implementation of the answer model: one
    /// libm Box–Muller draw per answer. The generator draws whole weekly
    /// series eight questions at a time through the crate's lockstep
    /// draw, which returns the same answers from the same RNG words; the
    /// tests compare the two.
    pub fn answer<R: RngCore + ?Sized>(&self, theta: f64, noise_scale: f64, rng: &mut R) -> u8 {
        let (u1, u2) = box_muller_uniforms(rng);
        category(self.exact_readout(theta, noise_scale, u1, u2), self.positive)
    }

    /// The graded-response readout of one libm Box–Muller draw, in the
    /// evaluation order `disc·(θ−0.5)·4 − difficulty + s·N`.
    fn exact_readout(&self, theta: f64, noise_scale: f64, u1: f64, u2: f64) -> f64 {
        mean_readout(self.discrimination, self.difficulty, theta) + noise_scale * box_muller(u1, u2)
    }
}

/// The readout's noise-free part: latent capacity centred at 0.5.
#[inline(always)]
fn mean_readout(discrimination: f64, difficulty: f64, theta: f64) -> f64 {
    discrimination * (theta - 0.5) * 4.0 - difficulty
}

/// The Likert answer a readout cuts to, polarity applied.
#[inline(always)]
fn category(z: f64, positive: bool) -> u8 {
    // 5 less the thresholds z lies below, counted without a branch; a
    // NaN readout lies below none and answers 5.
    let raw = 5 - THRESHOLDS.iter().map(|&t| u8::from(z < t)).sum::<u8>();
    if positive {
        raw
    } else {
        6 - raw
    }
}

// The lockstep draw
// -----------------
// Each question owns one xoshiro256++ substream, so the draws of
// different questions are independent and [`LANES`] of them can advance
// side by side, one per f64 lane. `lanes_body` keeps every value
// lane-major — `[_; LANES]` arrays, one row per week — and writes each
// step as a loop over the lanes, so the compiler turns it into vector
// code without a single intrinsic. Per lane and week it takes the two
// words `answer` takes (u1's, then u2's), forms u1, u2 and the
// certified readout z' through the same IEEE operations in the same
// order as the scalar derivation above (no fused multiply-add, no
// reassociation), and cuts z' with the band test as lane compares.
// Only a week in which some lane lands inside its band branches; it
// recomputes those lanes alone through `exact_readout`. The body is
// compiled for AVX-512, for AVX2 and for the baseline target, and
// `draw_lanes` picks one at runtime.

/// Questions drawn in lockstep: eight f64 lanes fill one AVX-512
/// vector, and the 56-item bank is seven groups of eight.
pub(crate) const LANES: usize = 8;

/// The lockstep draw's word source: one RNG word per lane per call.
/// The generator draws from [`XoshiroLanes`]; tests replay chosen
/// words through any lane.
pub(crate) trait LaneWords {
    /// The next word of every lane's stream.
    fn next_words(&mut self) -> [u64; LANES];
}

/// [`LANES`] xoshiro256++ streams advanced in lockstep, stored
/// word-major: `s[i][l]` is state word `i` of lane `l`.
pub(crate) struct XoshiroLanes {
    s: [[u64; LANES]; 4],
}

impl XoshiroLanes {
    /// Lane `l` continues `rngs[l]` from the state it holds.
    pub(crate) fn new(rngs: &[StdRng; LANES]) -> XoshiroLanes {
        let states = rngs.each_ref().map(StdRng::state);
        XoshiroLanes { s: std::array::from_fn(|i| states.map(|state| state[i])) }
    }

    /// Lane `l`'s state, in [`StdRng::state`] order.
    #[cfg(test)]
    fn state(&self, lane: usize) -> [u64; 4] {
        self.s.map(|word| word[lane])
    }
}

impl LaneWords for XoshiroLanes {
    /// xoshiro256++'s output and state update, as `StdRng::next_u64`
    /// makes them, in every lane.
    #[inline(always)]
    fn next_words(&mut self) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut words = [0; LANES];
        for l in 0..LANES {
            words[l] = s0[l].wrapping_add(s3[l]).rotate_left(23).wrapping_add(s0[l]);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
        words
    }
}

/// `rng.random_range(start..end)` of the word `w`: the vendored
/// `rand`'s 53-bit unit float, then `start + u·(end − start)`.
#[inline(always)]
fn uniform(w: u64, start: f64, end: f64) -> f64 {
    let u = (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    start + u * (end - start)
}

/// Draw the weekly answer series of `questions[l]` into lane `l`:
/// week `w` reads capacity `thetas[w][l]` and writes
/// `series[l * N_WEEKS + w]`, from the words `words` yields for lane
/// `l`. Each lane's series and words are those of
/// [`ProQuestion::answer`] called once per week on that lane's stream.
/// Returns, per lane, how many answers took the exact path.
pub(crate) fn draw_lanes<W: LaneWords>(
    questions: [&ProQuestion; LANES],
    thetas: &[[f64; LANES]; N_WEEKS],
    noise_scale: f64,
    words: &mut W,
    series: &mut [u8; LANES * N_WEEKS],
) -> [usize; LANES] {
    #[cfg(target_arch = "x86_64")]
    match active_level() {
        // SAFETY: `active_level` never reports a level the CPU lacks,
        // and this one names both AVX-512F and AVX-512DQ.
        SimdLevel::Avx512 => unsafe { lanes_avx512(questions, thetas, noise_scale, words, series) },
        // SAFETY: `active_level` never reports a level the CPU lacks,
        // and this one names AVX2.
        SimdLevel::Avx2 => unsafe { lanes_avx2(questions, thetas, noise_scale, words, series) },
        SimdLevel::Scalar => lanes_baseline(questions, thetas, noise_scale, words, series),
    }
    #[cfg(not(target_arch = "x86_64"))]
    lanes_baseline(questions, thetas, noise_scale, words, series)
}

/// [`lanes_body`] compiled for AVX-512: each lane loop is one 512-bit
/// operation, the word-to-float conversions included (AVX-512DQ).
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn lanes_avx512<W: LaneWords>(
    questions: [&ProQuestion; LANES],
    thetas: &[[f64; LANES]; N_WEEKS],
    noise_scale: f64,
    words: &mut W,
    series: &mut [u8; LANES * N_WEEKS],
) -> [usize; LANES] {
    lanes_body(questions, thetas, noise_scale, words, series)
}

/// [`lanes_body`] compiled for AVX2: four lanes per vector, without
/// AVX-512DQ's 64-bit conversions. It measured faster than the
/// baseline build, so AVX2 hosts get their own instantiation.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lanes_avx2<W: LaneWords>(
    questions: [&ProQuestion; LANES],
    thetas: &[[f64; LANES]; N_WEEKS],
    noise_scale: f64,
    words: &mut W,
    series: &mut [u8; LANES * N_WEEKS],
) -> [usize; LANES] {
    lanes_body(questions, thetas, noise_scale, words, series)
}

/// [`lanes_body`] compiled for the baseline target.
fn lanes_baseline<W: LaneWords>(
    questions: [&ProQuestion; LANES],
    thetas: &[[f64; LANES]; N_WEEKS],
    noise_scale: f64,
    words: &mut W,
    series: &mut [u8; LANES * N_WEEKS],
) -> [usize; LANES] {
    lanes_body(questions, thetas, noise_scale, words, series)
}

/// The lockstep draw itself; see [`draw_lanes`] and the notes above
/// [`LANES`]. Always inlined, so each caller compiles it for its own
/// target features.
#[inline(always)]
fn lanes_body<W: LaneWords>(
    questions: [&ProQuestion; LANES],
    thetas: &[[f64; LANES]; N_WEEKS],
    noise_scale: f64,
    words: &mut W,
    series: &mut [u8; LANES * N_WEEKS],
) -> [usize; LANES] {
    let discrimination = questions.map(|q| q.discrimination);
    let difficulty = questions.map(|q| q.difficulty);
    // `category` per lane: a positive item answers 5 − below, a
    // negative one 1 + below, where below counts the thresholds z lies
    // below; (below ^ m) − m negates below when m is all ones.
    let base = questions.map(|q| if q.positive { 5u64 } else { 1 });
    let negate = questions.map(|q| if q.positive { u64::MAX } else { 0 });
    let noise_band = noise_scale.abs() * NORMAL_ERR;
    let mut exact = [0; LANES];
    // Answers week-major, like θ, so each week's category is one lane
    // operation; transposed into `series` at the end.
    let mut answers = [[0u8; LANES]; N_WEEKS];
    for (theta, answer) in thetas.iter().zip(&mut answers) {
        let w1 = words.next_words();
        let w2 = words.next_words();
        let mut u1 = [0.0; LANES];
        let mut u2 = [0.0; LANES];
        let mut z = [0.0; LANES];
        let mut clear = [false; LANES];
        for l in 0..LANES {
            u1[l] = uniform(w1[l], f64::MIN_POSITIVE, 1.0);
            u2[l] = uniform(w2[l], 0.0, 1.0);
            z[l] = mean_readout(discrimination[l], difficulty[l], theta[l])
                + noise_scale * fast_normal(u1[l], u2[l]);
            // The thresholds are ±0.5 and ±1.5, so |z| is as far from
            // the nearest one as z is.
            let a = z[l].abs();
            let band = noise_band + ROUNDING_BAND * (1.0 + a);
            clear[l] = z[l].is_finite() & ((a - 0.5).abs() > band) & ((a - 1.5).abs() > band);
        }
        if clear != [true; LANES] {
            for l in 0..LANES {
                if !clear[l] {
                    exact[l] += 1;
                    z[l] = questions[l].exact_readout(theta[l], noise_scale, u1[l], u2[l]);
                }
            }
        }
        let mut below = [0u64; LANES];
        for t in THRESHOLDS {
            for l in 0..LANES {
                below[l] += u64::from(z[l] < t);
            }
        }
        for l in 0..LANES {
            let signed = (below[l] ^ negate[l]).wrapping_sub(negate[l]);
            answer[l] = base[l].wrapping_add(signed) as u8;
        }
    }
    for (l, lane) in series.chunks_exact_mut(N_WEEKS).enumerate() {
        for (slot, week) in lane.iter_mut().zip(&answers) {
            *slot = week[l];
        }
    }
    exact
}

/// Box–Muller's transform with [`fast_ln`] and [`fast_cos_tau`] in
/// place of libm: within `NORMAL_ERR` of [`box_muller`].
#[inline(always)]
fn fast_normal(u1: f64, u2: f64) -> f64 {
    (-2.0 * fast_ln(u1)).sqrt() * fast_cos_tau(u2)
}

/// `ln x` for a positive normal `x`, branch-free, within 2.1e-9
/// relative. Splits `x = 2^k·z` with `z ∈ [√½, √2)` on the bits and
/// sums `ln z = 2·atanh((z−1)/(z+1))` through its ninth power.
#[inline(always)]
fn fast_ln(x: f64) -> f64 {
    const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
    const EXPONENT_MASK: u64 = 0xfff0_0000_0000_0000;
    let bits = x.to_bits();
    // x's bits less √½'s: the exponent field holds k, the rest moves z.
    let offset = bits.wrapping_sub(SQRT_HALF_BITS);
    let k = ((offset as i64) >> 52) as f64;
    let z = f64::from_bits(bits.wrapping_sub(offset & EXPONENT_MASK));
    let f = z - 1.0;
    let t = f / (2.0 + f);
    let w = t * t;
    let ln_z = t * (2.0 + w * (2.0 / 3.0 + w * (2.0 / 5.0 + w * (2.0 / 7.0 + w * (2.0 / 9.0)))));
    k * std::f64::consts::LN_2 + ln_z
}

/// `cos(2π·u)` for `u ∈ [0, 1)`, branch-free, within 6.7e-10: folded
/// exactly onto `sin(2π·y)`, `y ∈ [−¼, ¼]`, and summed through `y¹³`.
#[inline(always)]
fn fast_cos_tau(u: f64) -> f64 {
    // (−1)ʲ·(2π)²ʲ⁺¹/(2j+1)!, j = 0..=6.
    const C: [f64; 7] = [
        std::f64::consts::TAU,
        -41.34170224039976,
        81.60524927607506,
        -76.70585975306139,
        42.058693944897655,
        -15.09464257682299,
        3.819952584848282,
    ];
    let y = (u - 0.5).abs() - 0.25;
    let y2 = y * y;
    y * (C[0] + y2 * (C[1] + y2 * (C[2] + y2 * (C[3] + y2 * (C[4] + y2 * (C[5] + y2 * C[6]))))))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::{substream, Stream};
    use msaw_parallel::simd::{force_level, SimdLevel};
    use proptest::prelude::*;
    use std::array::from_fn;
    use std::sync::Mutex;

    /// `force_level` is process-global: tests that force a level hold
    /// this lock, so each sees the instantiation it asked for. A test
    /// that forces nothing may run under another test's level, which
    /// is harmless because every level yields the same bytes.
    static LEVEL: Mutex<()> = Mutex::new(());

    /// `f` run once under each level the lockstep draw is compiled for
    /// (AVX-512, AVX2, baseline; each clamped to the CPU), in that
    /// order.
    pub(crate) fn each_instantiation<T>(mut f: impl FnMut() -> T) -> [T; 3] {
        let _guard = LEVEL.lock().unwrap_or_else(|e| e.into_inner());
        let out = [SimdLevel::Avx512, SimdLevel::Avx2, SimdLevel::Scalar].map(|level| {
            force_level(Some(level));
            f()
        });
        force_level(None);
        out
    }

    #[test]
    fn bank_has_56_items_with_unique_names() {
        assert_eq!(QUESTION_BANK.len(), N_PRO);
        let names: std::collections::HashSet<_> =
            QUESTION_BANK.iter().map(|q| q.name.as_str()).collect();
        assert_eq!(names.len(), N_PRO);
    }

    #[test]
    fn every_domain_is_represented() {
        for d in Domain::ALL {
            let count = QUESTION_BANK.iter().filter(|q| q.domain == d).count();
            assert!(count >= 10, "{} has only {count} items", d.name());
        }
    }

    #[test]
    fn answers_are_in_likert_range() {
        let mut rng = substream(1, Stream::Pro, 0, 0);
        for q in QUESTION_BANK.iter() {
            for theta in [0.0, 0.3, 0.7, 1.0] {
                let a = q.answer(theta, 1.0, &mut rng);
                assert!((1..=5).contains(&a));
            }
        }
    }

    #[test]
    fn positive_items_increase_with_capacity() {
        // With noise off, a positive item must answer higher at high
        // capacity than at low capacity.
        let mut rng = substream(2, Stream::Pro, 0, 0);
        let q = QUESTION_BANK.iter().find(|q| q.positive).unwrap();
        let low = q.answer(0.1, 0.0, &mut rng);
        let high = q.answer(0.9, 0.0, &mut rng);
        assert!(high > low, "{high} !> {low}");
    }

    #[test]
    fn negative_items_decrease_with_capacity() {
        let mut rng = substream(3, Stream::Pro, 0, 0);
        let q = QUESTION_BANK.iter().find(|q| !q.positive).unwrap();
        let low = q.answer(0.1, 0.0, &mut rng);
        let high = q.answer(0.9, 0.0, &mut rng);
        assert!(high < low, "{high} !< {low}");
    }

    #[test]
    fn answers_correlate_with_latent_on_average() {
        // Noisy, but over many draws mean answer must be monotone in θ.
        let q = &QUESTION_BANK[0];
        let mean_at = |theta: f64| {
            let mut rng = substream(4, Stream::Pro, 0, 0);
            (0..2000).map(|_| q.answer(theta, 1.0, &mut rng) as f64).sum::<f64>() / 2000.0
        };
        assert!(mean_at(0.8) > mean_at(0.5));
        assert!(mean_at(0.5) > mean_at(0.2));
    }

    #[test]
    fn discrimination_and_difficulty_in_design_ranges() {
        for q in QUESTION_BANK.iter() {
            assert!((0.7..=1.5).contains(&q.discrimination), "{}", q.name);
            assert!(q.difficulty.abs() <= 0.3, "{}", q.name);
        }
    }

    /// Replays fixed RNG words, so a test can choose `u1` and `u2`.
    struct Replay<'a>(std::slice::Iter<'a, u64>);

    impl RngCore for Replay<'_> {
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("the test supplies every word the draw takes")
        }
    }

    /// The word [`box_muller_uniforms`] reads as `k·2⁻⁵³`.
    fn word(k: u64) -> u64 {
        k << 11
    }

    /// An item whose noise-free readout is exactly `mean` at θ = 0.5.
    fn item_with_mean(mean: f64, positive: bool) -> ProQuestion {
        ProQuestion {
            name: "pro_test_item".into(),
            domain: Domain::Locomotion,
            positive,
            discrimination: 1.0,
            difficulty: -mean,
            balance_loading: 0.0,
        }
    }

    /// Replays fixed words per lane through the lockstep draw.
    struct ReplayLanes<'a>([std::slice::Iter<'a, u64>; LANES]);

    impl LaneWords for ReplayLanes<'_> {
        fn next_words(&mut self) -> [u64; LANES] {
            self.0.each_mut().map(|lane| *lane.next().expect("the test supplies every word"))
        }
    }

    /// Capacity of the lanes around a replayed case.
    const FILLER_THETA: f64 = 0.37;

    /// Lockstep and reference answers over the same replayed words,
    /// plus the lockstep draw's exact-path count. The case's `(θ, u1
    /// word, u2 word)` triples repeat to fill [`N_WEEKS`] weeks, and the
    /// case is drawn in every lane position under every instantiation,
    /// beside bank items drawing ordinary words; every lane must match
    /// its reference, and every position and instantiation must agree
    /// on the case's exact-path count.
    fn replay_both(
        q: &ProQuestion,
        thetas: &[f64],
        noise_scale: f64,
        words: &[u64],
    ) -> (Vec<u8>, Vec<u8>, usize) {
        assert_eq!(words.len(), 2 * thetas.len(), "two words per answer");
        let week = |w: usize| w % thetas.len();
        let case_thetas: Vec<f64> = (0..N_WEEKS).map(|w| thetas[week(w)]).collect();
        let case_words: Vec<u64> =
            (0..N_WEEKS).flat_map(|w| [words[2 * week(w)], words[2 * week(w) + 1]]).collect();
        let fillers: [Vec<u64>; LANES] = from_fn(|l| {
            let mut rng = substream(99, Stream::Pro, l as u64, 0);
            (0..2 * N_WEEKS).map(|_| rng.next_u64()).collect()
        });
        let reference_of = |q: &ProQuestion, thetas: &[f64], words: &[u64]| -> Vec<u8> {
            let mut rng = Replay(words.iter());
            thetas.iter().map(|&t| q.answer(t, noise_scale, &mut rng)).collect()
        };
        let reference = reference_of(q, &case_thetas, &case_words);
        let mut case: Option<(Vec<u8>, usize)> = None;
        for at in 0..LANES {
            let questions = from_fn(|l| if l == at { q } else { &QUESTION_BANK[l] });
            let lane_words: [&[u64]; LANES] =
                from_fn(|l| if l == at { &case_words[..] } else { &fillers[l][..] });
            let grid =
                from_fn(|w| from_fn(|l| if l == at { case_thetas[w] } else { FILLER_THETA }));
            let expected: [Vec<u8>; LANES] = from_fn(|l| {
                let thetas: Vec<f64> = grid.iter().map(|row: &[f64; LANES]| row[l]).collect();
                reference_of(questions[l], &thetas, lane_words[l])
            });
            let runs = each_instantiation(|| {
                let mut source = ReplayLanes(lane_words.map(|words| words.iter()));
                let mut series = [0; LANES * N_WEEKS];
                let exact = draw_lanes(questions, &grid, noise_scale, &mut source, &mut series);
                (series, exact)
            });
            for (series, exact) in runs {
                for (l, lane) in series.chunks_exact(N_WEEKS).enumerate() {
                    assert_eq!(lane, expected[l], "lane {l}, case in lane {at}");
                }
                let got = (series[at * N_WEEKS..][..N_WEEKS].to_vec(), exact[at]);
                let first = case.get_or_insert_with(|| got.clone());
                assert_eq!(got.1, first.1, "exact-path count of the case in lane {at}");
            }
        }
        let (series, exact) = case.expect("LANES > 0");
        (series, reference, exact)
    }

    /// `(u1, u2)` word pairs, flattened in draw order.
    fn pairs(u1: &[u64], u2: &[u64]) -> Vec<u64> {
        u1.iter().flat_map(|&a| u2.iter().flat_map(move |&b| [a, b])).collect()
    }

    #[test]
    fn fast_ln_meets_its_relative_bound() {
        let mut rng = substream(5, Stream::Pro, 0, 0);
        let mut xs = vec![f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0, 0.5, 0.25, 1e-300];
        xs.extend((0..20_000).map(|_| box_muller_uniforms(&mut rng).0));
        for x in xs {
            let (fast, libm) = (fast_ln(x), x.ln());
            assert!((fast - libm).abs() <= 2.1e-9 * libm.abs(), "ln {x}: {fast} vs {libm}");
        }
    }

    #[test]
    fn fast_cos_tau_meets_its_absolute_bound() {
        let mut rng = substream(6, Stream::Pro, 0, 0);
        let mut us: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0].into();
        us.extend((0..20_000).map(|_| box_muller_uniforms(&mut rng).1));
        for u in us {
            let (fast, libm) = (fast_cos_tau(u), (std::f64::consts::TAU * u).cos());
            assert!((fast - libm).abs() <= 6.7e-10, "cos 2π·{u}: {fast} vs {libm}");
        }
    }

    #[test]
    fn fast_normal_stays_within_the_certified_error() {
        let mut rng = substream(7, Stream::Pro, 0, 0);
        let mut draws = vec![(f64::MIN_POSITIVE, 0.0), (f64::MIN_POSITIVE, 0.5)];
        draws.extend((0..20_000).map(|_| box_muller_uniforms(&mut rng)));
        for (u1, u2) in draws {
            let (fast, libm) = (fast_normal(u1, u2), box_muller(u1, u2));
            assert!((fast - libm).abs() <= NORMAL_ERR, "N({u1}, {u2}): {fast} vs {libm}");
        }
    }

    #[test]
    fn cos_zero_crossings_take_the_exact_path_and_agree() {
        // u2 a few ulps either side of 1/4 and 3/4, where cos(2π·u2) ≈ 0,
        // under a readout that sits on a threshold without noise.
        let quarter = 1u64 << 51;
        let u2: Vec<u64> = (0..=4)
            .flat_map(|j| [quarter - j, quarter + j, 3 * quarter - j, 3 * quarter + j])
            .map(word)
            .collect();
        let u1 = [word(1 << 52), word(12_345_678_901)];
        let words = pairs(&u1, &u2);
        let thetas = vec![0.5; words.len() / 2];
        for positive in [true, false] {
            let q = item_with_mean(0.5, positive);
            let (series, reference, exact) = replay_both(&q, &thetas, 1.0, &words);
            assert_eq!(series, reference);
            assert_eq!(exact, N_WEEKS, "every readout lies inside the band");
        }
    }

    #[test]
    fn extreme_uniforms_agree_with_the_reference() {
        // The all-zero word gives u1 = f64::MIN_POSITIVE (the largest
        // |N|, ≈ 37.6); the all-ones word gives u1 = 1 − 2⁻⁵³ (the
        // smallest, ≈ 1.5e-8, which a threshold-sitting item cannot
        // certify).
        let u2: Vec<u64> = [0, 1 << 50, 1 << 51, 3 << 51, (1 << 53) - 1].map(word).into();
        for (u1, forced) in [(0u64, false), (u64::MAX, true)] {
            let words = pairs(&[u1], &u2);
            let thetas = vec![0.5; words.len() / 2];
            for mean in THRESHOLDS {
                let q = item_with_mean(mean, true);
                let (series, reference, exact) = replay_both(&q, &thetas, 1.0, &words);
                assert_eq!(series, reference, "u1 word {u1:#x}, mean {mean}");
                if forced {
                    assert_eq!(exact, N_WEEKS, "a tiny |N| stays inside the band");
                }
            }
        }
    }

    #[test]
    fn readouts_within_an_ulp_of_a_threshold_take_the_exact_path() {
        let words: Vec<u64> = (0..6).flat_map(|i| [word(1 << 50) + i, word(5 << 49) + i]).collect();
        let thetas = [0.5; 6];
        for t in THRESHOLDS {
            for mean in [t.next_down(), t, t.next_up()] {
                let q = item_with_mean(mean, true);
                let (series, reference, exact) = replay_both(&q, &thetas, 0.0, &words);
                assert_eq!(series, reference, "mean {mean}");
                assert_eq!(exact, N_WEEKS, "mean {mean} is within an ulp of {t}");
                let expected = category(if mean < t { t.next_down() } else { t }, true);
                assert!(series.iter().all(|&a| a == expected), "mean {mean}");
            }
        }
    }

    #[test]
    fn non_finite_readouts_take_the_exact_path() {
        let words: Vec<u64> = (1..=8).map(|i| word(i << 48)).collect();
        let q = &QUESTION_BANK[3];
        for (theta, noise) in [(f64::NAN, 1.0), (0.5, f64::INFINITY), (0.5, f64::NAN)] {
            let thetas = [theta; 4];
            let (series, reference, exact) = replay_both(q, &thetas, noise, &words);
            assert_eq!(series, reference, "theta {theta}, noise {noise}");
            assert_eq!(exact, N_WEEKS);
        }
    }

    /// One lockstep draw: its answers, where each lane's generator
    /// ended, and each lane's exact-path count.
    struct Lockstep {
        series: [u8; LANES * N_WEEKS],
        lanes: XoshiroLanes,
        exact: [usize; LANES],
    }

    /// The lockstep draw of `questions` on `rngs`, and every lane's
    /// reference answers with the generator they leave behind.
    fn lockstep_and_reference(
        questions: [&ProQuestion; LANES],
        thetas: &[[f64; LANES]; N_WEEKS],
        noise_scale: f64,
        rngs: &[StdRng; LANES],
    ) -> (Lockstep, [(Vec<u8>, StdRng); LANES]) {
        let mut lanes = XoshiroLanes::new(rngs);
        let mut series = [0; LANES * N_WEEKS];
        let exact = draw_lanes(questions, thetas, noise_scale, &mut lanes, &mut series);
        let reference = from_fn(|l| {
            let mut rng = rngs[l].clone();
            let answers =
                thetas.iter().map(|row| questions[l].answer(row[l], noise_scale, &mut rng));
            (answers.collect(), rng)
        });
        (Lockstep { series, lanes, exact }, reference)
    }

    #[test]
    fn silent_and_loud_noise_agree_with_the_reference() {
        let thetas = from_fn(|w| [w as f64 / 71.0; LANES]);
        let mut fell_back = 0;
        for group in QUESTION_BANK.chunks_exact(LANES) {
            let questions = from_fn(|l| &group[l]);
            for noise in [0.0, 10.0] {
                let rngs = from_fn(|l| {
                    let i = QUESTION_BANK.iter().position(|q| q == questions[l]).unwrap();
                    substream(8, Stream::Pro, i as u64, noise as u64)
                });
                let (draw, reference) = lockstep_and_reference(questions, &thetas, noise, &rngs);
                for (l, (answers, rng)) in reference.iter().enumerate() {
                    let name = &questions[l].name;
                    let series = &draw.series[l * N_WEEKS..][..N_WEEKS];
                    assert_eq!(series, &answers[..], "{name} at noise {noise}");
                    assert_eq!(draw.lanes.state(l), rng.state(), "both draws take the same words");
                }
                fell_back += draw.exact.iter().sum::<usize>();
            }
        }
        // Noise off, every readout is the item's mean readout: nowhere
        // near an ulp of a threshold across this θ grid.
        assert!(fell_back < 10, "{fell_back} exact-path answers");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lockstep draw is `answer` in a loop on each lane's own
        /// stream: same answers, and each lane's generator ends where a
        /// `StdRng` that took two words per week ends, for any eight
        /// items (repeats allowed), capacities and noise scale, under
        /// every instantiation.
        #[test]
        fn series_draw_equals_the_reference(
            seed in any::<u64>(),
            items in proptest::collection::vec(0..N_PRO, LANES),
            thetas in proptest::collection::vec(-0.5f64..1.5, LANES * N_WEEKS),
            noise in 0.0f64..12.0,
        ) {
            let questions = from_fn(|l| &QUESTION_BANK[items[l]]);
            let grid = from_fn(|w| from_fn(|l| thetas[w * LANES + l]));
            let rngs = from_fn(|l| substream(seed, Stream::Pro, l as u64, items[l] as u64));
            let runs = each_instantiation(|| lockstep_and_reference(questions, &grid, noise, &rngs));
            for (draw, reference) in runs {
                for (l, (answers, rng)) in reference.iter().enumerate() {
                    prop_assert_eq!(&draw.series[l * N_WEEKS..][..N_WEEKS], &answers[..]);
                    prop_assert_eq!(draw.lanes.state(l), rng.state());
                }
            }
        }
    }
}
