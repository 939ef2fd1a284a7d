//! Runtime SIMD level detection, shared by every crate with
//! vector kernels: `msaw-gbdt`'s traversal and histogram kernels and
//! `msaw-cohort`'s lockstep PRO draw. One process-wide answer means a
//! forced level or `MSAW_FORCE_SCALAR` reaches every kernel at once.
//!
//! ## Dispatch strategy
//!
//! The toolchain is stable Rust, so kernels are written against
//! `std::arch` intrinsics or compiled under `#[target_feature]` and
//! selected at **runtime**:
//!
//! 1. a process-wide forced level set through [`force_level`] (test hook)
//!    wins if present;
//! 2. otherwise the `MSAW_FORCE_SCALAR` environment variable (any value
//!    other than empty or `0`) pins the scalar fallback — read once and
//!    cached, like the rest of the process' env-derived config;
//! 3. otherwise the best level the CPU supports, probed via
//!    `is_x86_feature_detected!` (always [`SimdLevel::Scalar`] off
//!    x86_64).
//!
//! Forced levels are clamped to the detected capability, so forcing
//! [`SimdLevel::Avx2`] on a machine without AVX2 degrades to scalar
//! instead of executing unsupported instructions: a kernel selected by
//! [`active_level`] may assume every feature its level names.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A vector capability tier the kernels can target. Ordered: higher
/// levels strictly extend lower ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The always-available scalar fallback (the baseline target's
    /// code paths).
    Scalar,
    /// AVX2: 256-bit lanes and gathers (x86_64 only).
    Avx2,
    /// AVX-512F and AVX-512DQ: 512-bit lanes, plus the DQ extension's
    /// 64-bit integer ↔ f64 conversions (x86_64 only). Every AVX-512
    /// CPU since Skylake-SP has both; one without DQ runs the AVX2 tier.
    Avx512,
}

/// Process-wide forced level: 0 = none, 1 = Scalar, 2 = Avx2, 3 = Avx512.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Best level the running CPU supports.
pub fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// The level the environment selects when nothing is forced in-process:
/// `MSAW_FORCE_SCALAR` pins scalar, otherwise the detected capability.
fn env_level() -> SimdLevel {
    static ENV: OnceLock<SimdLevel> = OnceLock::new();
    *ENV.get_or_init(|| {
        let forced_scalar =
            std::env::var_os("MSAW_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
        if forced_scalar {
            SimdLevel::Scalar
        } else {
            detected_level()
        }
    })
}

/// The level the kernels will dispatch on for the next batch, round or
/// patient. Entry points read this once per call, so a level change
/// never lands mid-kernel. Never above [`detected_level`].
pub fn active_level() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2.min(detected_level()),
        3 => SimdLevel::Avx512.min(detected_level()),
        _ => env_level(),
    }
}

/// Test/bench hook: force a dispatch level process-wide (`None` restores
/// the environment/detected default). Levels above the detected
/// capability are clamped at dispatch time, so this can never select an
/// unsupported instruction set.
#[doc(hidden)]
pub fn force_level(level: Option<SimdLevel>) {
    let code = match level {
        None => 0,
        Some(SimdLevel::Scalar) => 1,
        Some(SimdLevel::Avx2) => 2,
        Some(SimdLevel::Avx512) => 3,
    };
    FORCED.store(code, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_level_clamps_to_detected_capability() {
        // The only test in this crate that forces a level, so nothing
        // else observes the process-global override.
        for level in [SimdLevel::Avx512, SimdLevel::Avx2] {
            force_level(Some(level));
            assert_eq!(active_level(), level.min(detected_level()));
        }
        force_level(Some(SimdLevel::Scalar));
        assert_eq!(active_level(), SimdLevel::Scalar);
        force_level(None);
        assert!(active_level() <= detected_level());
    }
}
