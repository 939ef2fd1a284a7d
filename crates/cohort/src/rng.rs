//! Deterministic substream derivation.
//!
//! Every simulated quantity draws from an `StdRng` seeded by mixing the
//! master seed with a `(stream, patient, item)` triple, so adding or
//! reordering generation steps never perturbs unrelated streams.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Named noise streams (the values are part of the reproducibility
/// contract — reordering them changes generated cohorts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Patient demographics and baseline latent state.
    Baseline = 1,
    /// Monthly latent trajectory innovations.
    Trajectory = 2,
    /// PRO answer noise.
    Pro = 3,
    /// PRO missingness gaps.
    Gaps = 4,
    /// Activity tracker noise.
    Activity = 5,
    /// Clinical deficit draws.
    Clinical = 6,
    /// Outcome noise.
    Outcomes = 7,
}

/// SplitMix64 finaliser — decorrelates structured seed inputs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An RNG for `(master seed, stream, patient, item)`.
pub fn substream(seed: u64, stream: Stream, patient: u64, item: u64) -> StdRng {
    let mixed = splitmix64(
        splitmix64(seed ^ (stream as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            ^ patient.wrapping_mul(0x9FB2_1C65_1E98_DF25)
            ^ item.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    StdRng::seed_from_u64(mixed)
}

/// Standard-normal draw via Box–Muller (avoids needing `rand_distr`).
pub fn normal(rng: &mut StdRng) -> f64 {
    let (u1, u2) = box_muller_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms one [`normal`] draw consumes, in draw order: `u1`
/// in `[f64::MIN_POSITIVE, 1)` (so its logarithm is finite) and `u2`
/// in `[0, 1)`. Each takes one RNG word.
#[inline]
pub(crate) fn box_muller_uniforms<R: RngCore + ?Sized>(rng: &mut R) -> (f64, f64) {
    use rand::RngExt;
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (u1, u2)
}

/// Box–Muller's transform of [`box_muller_uniforms`] into one standard
/// normal variate (the second variate is not formed).
#[inline]
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn substreams_are_deterministic() {
        let a: f64 = substream(42, Stream::Pro, 1, 2).random();
        let b: f64 = substream(42, Stream::Pro, 1, 2).random();
        assert_eq!(a, b);
    }

    #[test]
    fn substreams_differ_across_axes() {
        let base: f64 = substream(42, Stream::Pro, 1, 2).random();
        assert_ne!(base, substream(43, Stream::Pro, 1, 2).random::<f64>());
        assert_ne!(base, substream(42, Stream::Gaps, 1, 2).random::<f64>());
        assert_ne!(base, substream(42, Stream::Pro, 2, 2).random::<f64>());
        assert_ne!(base, substream(42, Stream::Pro, 1, 3).random::<f64>());
    }

    #[test]
    fn normal_has_roughly_standard_moments() {
        let mut rng = substream(7, Stream::Outcomes, 0, 0);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
