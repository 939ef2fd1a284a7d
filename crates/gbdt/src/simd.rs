//! Runtime-dispatched SIMD kernels for the two hottest loops: flat-forest
//! traversal (prediction) and gradient/hessian histogram accumulation
//! (training).
//!
//! Vector code stays only where a measurement shows it winning. The
//! traversal has an AVX2 and an AVX-512 kernel; histogram accumulation
//! has one AVX2 kernel, which AVX-512 hosts run too (`chunked.rs`).
//! The boundary scan and the histogram subtraction are scalar on every
//! level: a vector version of either timed the same as the plain loop.
//!
//! ## Dispatch strategy
//!
//! The toolchain is stable Rust, so kernels are written against
//! `std::arch` intrinsics and selected at **runtime**:
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
//! instead of executing unsupported instructions.
//!
//! ## Bit-identity contract
//!
//! Every SIMD path must produce results **bitwise equal** to the scalar
//! code it replaces (which is kept compiled on every target as the
//! fallback). The kernels only use operations with exact IEEE semantics:
//!
//! * traversal: `_CMP_LT_OQ` is precisely the scalar `v < t` (false for
//!   NaN), gathers/selects move bits without rounding, and each lane's
//!   leaf weights are added to its accumulator in tree order — the same
//!   operands in the same order as the scalar lockstep walk. A kernel
//!   walks whole lockstep groups only; `FlatForest::accumulate_block`
//!   hands the rows past the last whole group to the scalar walk;
//! * histograms: lanes never share an accumulator cell, and each
//!   `(g, h)` cell takes the same two IEEE additions per row in the
//!   same row order (a 128-bit pair-add is two independent f64 adds).
//!
//! The equivalence is locked by `tests/simd_equivalence.rs` and by the
//! archived `results/*.txt`, which must regenerate byte-identical with
//! SIMD enabled.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A vector capability tier the kernels can target. Ordered: higher
/// levels strictly extend lower ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The always-available scalar fallback (the pre-SIMD code paths,
    /// kept verbatim).
    Scalar,
    /// AVX2 gathers + 256-bit lanes (x86_64 only).
    Avx2,
    /// AVX-512F gathers + 512-bit lanes (x86_64 only) — the same
    /// traversal algorithm as the AVX2 tier at eight lanes per vector.
    /// Histogram accumulation at this level runs the AVX2 kernel.
    Avx512,
}

/// Process-wide forced level: 0 = none, 1 = Scalar, 2 = Avx2, 3 = Avx512.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Best level the running CPU supports.
pub fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
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

/// The level the kernels will dispatch on for the next batch/round.
/// Entry points read this once per call, so a level change never lands
/// mid-kernel.
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

/// Human-readable name of the active traversal kernel tier
/// (bench/report labels).
pub fn kernel_name() -> &'static str {
    match active_level() {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Avx2 => "avx2",
        SimdLevel::Avx512 => "avx512",
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! AVX2 and AVX-512 kernels. Everything here assumes the caller
    //! verified the matching CPU capability ([`super::active_level`]
    //! never returns a level the CPU lacks).

    use crate::forest::{FlatNode, FLAT_DEFAULT_LEFT_BIT};
    use std::arch::x86_64::*;

    /// f64 lanes per 256-bit vector.
    const QUAD: usize = 4;
    /// Quads walked in lockstep per tree: enough independent gather
    /// chains to hide gather latency.
    const UNROLL: usize = 4;
    /// Rows per lockstep group.
    pub(crate) const GROUP: usize = QUAD * UNROLL;

    /// One routing hop for four rows: gather the node fields for four
    /// (possibly distinct) node indices, gather each row's feature
    /// value, and select the child index per lane.
    ///
    /// `FlatNode` is `#[repr(C)]`, 24 bytes: threshold at byte 0,
    /// children pair at byte 8, feature word at byte 16 (asserted at
    /// compile time in `forest.rs`), so for node index `i` the gathers
    /// use f64/i64 index `3i` (scale 8) and i32 index `6i + 4`
    /// (scale 4) — the latter avoids touching the 4 padding bytes.
    ///
    /// # Safety
    ///
    /// Every lane of `idx` must be a valid node index, every lane of
    /// `row_off + feature` a valid index into `data` — guaranteed by
    /// `FlatForest`'s construction-time validation (features
    /// `< n_features`, children in range) plus the dispatcher's row
    /// bounds checks. Requires AVX2.
    #[inline(always)]
    unsafe fn step_quad(
        node_ptr: *const FlatNode,
        data_ptr: *const f64,
        idx: __m256i,
        row_off: __m256i,
        lane_mask: __m256i,
        feat_mask: __m128i,
    ) -> __m256i {
        let i3 = _mm256_add_epi64(_mm256_add_epi64(idx, idx), idx);
        let t = _mm256_i64gather_pd::<8>(node_ptr as *const f64, i3);
        let ch = _mm256_i64gather_epi64::<8>((node_ptr as *const u8).add(8) as *const i64, i3);
        let i6p4 = _mm256_add_epi64(_mm256_add_epi64(i3, i3), _mm256_set1_epi64x(4));
        let fd = _mm256_i64gather_epi32::<4>(node_ptr as *const i32, i6p4);
        let col = _mm256_cvtepu32_epi64(_mm_and_si128(fd, feat_mask));
        let v = _mm256_i64gather_pd::<8>(data_ptr, _mm256_add_epi64(row_off, col));
        // go_left = (v < t) | (isnan(v) & default_left): LT_OQ is false
        // for NaN (exactly the scalar `v < t`), UNORD_Q is the NaN test,
        // and sign-extending the feature word puts the default-left bit
        // in the lane's sign bit — the only bit blendv consults.
        let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(v, t);
        let unord = _mm256_cmp_pd::<_CMP_UNORD_Q>(v, v);
        let dl = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(fd));
        let go_left = _mm256_or_pd(lt, _mm256_and_pd(unord, dl));
        let left = _mm256_and_si256(ch, lane_mask);
        let right = _mm256_srli_epi64::<32>(ch);
        _mm256_castpd_si256(_mm256_blendv_pd(
            _mm256_castsi256_pd(right),
            _mm256_castsi256_pd(left),
            go_left,
        ))
    }

    /// The AVX2 twin of `FlatForest::accumulate`: add every tree's leaf
    /// weight for the rows described by `row_off` (per output row, the
    /// f64 index of that row's first feature in `data`) into `out`.
    /// Trees outer, [`GROUP`] rows in lockstep inside. Whole groups
    /// only: `out.len()` must be a multiple of [`GROUP`]
    /// (debug-asserted); the caller walks any tail with the scalar
    /// kernel.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `nodes`/`roots`/`depths` must be a validated
    /// forest (as built by `FlatForest::from_trees`), `row_off.len()`
    /// must equal `out.len()`, and every `row_off[k] + f` for
    /// `f < n_features` must index into `data`. Trees of depth > 0
    /// imply `n_features > 0`, so the leaf self-loop's column-0 gather
    /// stays in bounds.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn accumulate_avx2(
        nodes: &[FlatNode],
        roots: &[u32],
        depths: &[u16],
        data: &[f64],
        row_off: &[i64],
        out: &mut [f64],
    ) {
        let n = out.len();
        debug_assert_eq!(row_off.len(), n);
        debug_assert_eq!(n % GROUP, 0, "the caller walks the tail");
        let node_ptr = nodes.as_ptr();
        let data_ptr = data.as_ptr();
        let lane_mask = _mm256_set1_epi64x(0xFFFF_FFFF);
        let feat_mask = _mm_set1_epi32((!FLAT_DEFAULT_LEFT_BIT) as i32);
        for (t, &root) in roots.iter().enumerate() {
            let depth = *depths.get_unchecked(t) as usize;
            if depth == 0 {
                let w = nodes.get_unchecked(root as usize).threshold;
                for o in out.iter_mut() {
                    *o += w;
                }
                continue;
            }
            let root_v = _mm256_set1_epi64x(root as i64);
            let mut base = 0usize;
            while base + GROUP <= n {
                let mut off = [_mm256_setzero_si256(); UNROLL];
                let mut idx = [root_v; UNROLL];
                for (q, o) in off.iter_mut().enumerate() {
                    *o =
                        _mm256_loadu_si256(row_off.as_ptr().add(base + q * QUAD) as *const __m256i);
                }
                for _ in 0..depth {
                    for q in 0..UNROLL {
                        idx[q] =
                            step_quad(node_ptr, data_ptr, idx[q], off[q], lane_mask, feat_mask);
                    }
                }
                for (q, &i) in idx.iter().enumerate() {
                    let i3 = _mm256_add_epi64(_mm256_add_epi64(i, i), i);
                    let w = _mm256_i64gather_pd::<8>(node_ptr as *const f64, i3);
                    let op = out.as_mut_ptr().add(base + q * QUAD);
                    _mm256_storeu_pd(op, _mm256_add_pd(_mm256_loadu_pd(op), w));
                }
                base += GROUP;
            }
        }
    }

    /// f64 lanes per 512-bit vector.
    const OCT: usize = 8;
    /// Octs walked in lockstep per tree by the AVX-512 kernel.
    const UNROLL512: usize = 4;
    /// Rows per AVX-512 lockstep group.
    pub(crate) const GROUP512: usize = OCT * UNROLL512;

    /// [`step_quad`] at eight lanes: one hop for eight rows using
    /// AVX-512F gathers and mask registers. The byte-offset addressing
    /// is identical (`8 × 3i` for threshold/children, `4 × (6i + 4)`
    /// for the feature word); the routing predicate composes in a
    /// `__mmask8` instead of a sign-bit vector.
    ///
    /// # Safety
    ///
    /// Same contract as [`step_quad`]; requires AVX-512F.
    #[inline(always)]
    unsafe fn step_oct(
        node_ptr: *const FlatNode,
        data_ptr: *const f64,
        idx: __m512i,
        row_off: __m512i,
        lane_mask: __m512i,
        feat_mask: __m256i,
    ) -> __m512i {
        let i3 = _mm512_add_epi64(_mm512_add_epi64(idx, idx), idx);
        let t = _mm512_i64gather_pd::<8>(i3, node_ptr as *const f64);
        let ch = _mm512_i64gather_epi64::<8>(i3, (node_ptr as *const u8).add(8) as *const i64);
        let i6p4 = _mm512_add_epi64(_mm512_add_epi64(i3, i3), _mm512_set1_epi64(4));
        let fd = _mm512_i64gather_epi32::<4>(i6p4, node_ptr as *const i32);
        let col = _mm512_cvtepu32_epi64(_mm256_and_si256(fd, feat_mask));
        let v = _mm512_i64gather_pd::<8>(_mm512_add_epi64(row_off, col), data_ptr);
        // go_left = (v < t) | (isnan(v) & default_left), composed in a
        // k-register; cmplt on the sign-extended feature word reads the
        // default-left bit.
        let lt = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(v, t);
        let unord = _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(v, v);
        let dl = _mm512_cmplt_epi64_mask(_mm512_cvtepi32_epi64(fd), _mm512_setzero_si512());
        let go_left = lt | (unord & dl);
        let left = _mm512_and_si512(ch, lane_mask);
        let right = _mm512_srli_epi64::<32>(ch);
        _mm512_mask_blend_epi64(go_left, right, left)
    }

    /// [`accumulate_avx2`] at eight lanes per vector ([`GROUP512`] rows
    /// in lockstep per tree). Same structure, same whole-groups-only
    /// contract (`out.len()` a multiple of [`GROUP512`]), same
    /// bit-identity argument.
    ///
    /// # Safety
    ///
    /// Same contract as [`accumulate_avx2`]; requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn accumulate_avx512(
        nodes: &[FlatNode],
        roots: &[u32],
        depths: &[u16],
        data: &[f64],
        row_off: &[i64],
        out: &mut [f64],
    ) {
        let n = out.len();
        debug_assert_eq!(row_off.len(), n);
        debug_assert_eq!(n % GROUP512, 0, "the caller walks the tail");
        let node_ptr = nodes.as_ptr();
        let data_ptr = data.as_ptr();
        let lane_mask = _mm512_set1_epi64(0xFFFF_FFFF);
        let feat_mask = _mm256_set1_epi32((!FLAT_DEFAULT_LEFT_BIT) as i32);
        for (t, &root) in roots.iter().enumerate() {
            let depth = *depths.get_unchecked(t) as usize;
            if depth == 0 {
                let w = nodes.get_unchecked(root as usize).threshold;
                for o in out.iter_mut() {
                    *o += w;
                }
                continue;
            }
            let root_v = _mm512_set1_epi64(root as i64);
            let mut base = 0usize;
            while base + GROUP512 <= n {
                let mut off = [_mm512_setzero_si512(); UNROLL512];
                let mut idx = [root_v; UNROLL512];
                for (q, o) in off.iter_mut().enumerate() {
                    *o = _mm512_loadu_si512(row_off.as_ptr().add(base + q * OCT) as *const _);
                }
                for _ in 0..depth {
                    for q in 0..UNROLL512 {
                        idx[q] = step_oct(node_ptr, data_ptr, idx[q], off[q], lane_mask, feat_mask);
                    }
                }
                for (q, &i) in idx.iter().enumerate() {
                    let i3 = _mm512_add_epi64(_mm512_add_epi64(i, i), i);
                    let w = _mm512_i64gather_pd::<8>(i3, node_ptr as *const f64);
                    let op = out.as_mut_ptr().add(base + q * OCT);
                    _mm512_storeu_pd(op, _mm512_add_pd(_mm512_loadu_pd(op), w));
                }
                base += GROUP512;
            }
        }
    }

    /// `cell += (g, h)` as one 128-bit add: two independent IEEE f64
    /// additions, bit-identical to the scalar pair. SSE2 is part of the
    /// x86_64 baseline, so this needs no capability check.
    #[inline(always)]
    pub(crate) fn pair_add(cell: &mut [f64; 2], gh: __m128d) {
        // SAFETY: `cell` is a valid pair; unaligned load/store has no
        // alignment requirement.
        unsafe {
            let cur = _mm_loadu_pd(cell.as_ptr());
            _mm_storeu_pd(cell.as_mut_ptr(), _mm_add_pd(cur, gh));
        }
    }

    /// Pack `(g, h)` into the lane order [`pair_add`] expects
    /// (`g` low, matching `[f64; 2]` memory order).
    #[inline(always)]
    pub(crate) fn pack_gh(g: f64, h: f64) -> __m128d {
        // SAFETY: no memory access.
        unsafe { _mm_set_pd(h, g) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `force_level` is process-global; serialize the tests that touch it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn forced_level_clamps_to_detected_capability() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Forcing Avx2 must never exceed what the CPU supports.
        force_level(Some(SimdLevel::Avx2));
        assert!(active_level() <= detected_level());
        force_level(Some(SimdLevel::Scalar));
        assert_eq!(active_level(), SimdLevel::Scalar);
        force_level(None);
        assert!(active_level() <= detected_level());
    }

    #[test]
    fn kernel_name_matches_level() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        force_level(Some(SimdLevel::Scalar));
        assert_eq!(kernel_name(), "scalar");
        force_level(None);
        assert!(active_level() <= detected_level());
    }
}
