//! The explicit SIMD lane layer: a 4-lane `f32` vector ([`F32x4`])
//! matching the paper's `σ_lane = 4` NEON register model, plus the
//! runtime backend selection the micro-kernels dispatch on.
//!
//! ## Backends
//!
//! * **aarch64** — `core::arch::aarch64` NEON intrinsics
//!   (`vld1q_f32` / `vfmaq_f32` / `vst1q_f32`). NEON is baseline on
//!   aarch64, so this backend needs no runtime detection and multiplies
//!   are always fused.
//! * **x86_64** — `core::arch::x86_64` SSE2 intrinsics (baseline on
//!   x86_64). The micro-kernels come in three builds of the same 4-lane
//!   code, chosen **at runtime** by [`SimdBackend::detect`]:
//!   - [`SimdBackend::X86Avx512Vl`] — `_mm_fmadd_ps` compiled with
//!     `#[target_feature(enable = "fma,avx512f,avx512vl")]`, picked when
//!     `is_x86_feature_detected!` reports both `avx512f` and `avx512vl`.
//!     The vectors stay 128-bit; only the encoding changes. EVEX code
//!     can allocate xmm0–31, the 32 vector registers the paper sizes its
//!     tile menu for (§III-A1, Table II: `m_r·n̄_r + m_r + n̄_r ≤ 32`),
//!     so every menu tile — 3×24 needs 27 — fits in registers.
//!   - [`SimdBackend::X86Fma`] — the same `_mm_fmadd_ps` kernels under
//!     `#[target_feature(enable = "fma")]` (VEX encoding, xmm0–15 only),
//!     picked on FMA hosts without AVX-512VL. Tiles needing more than 16
//!     registers spill there.
//!   - [`SimdBackend::X86Sse2`] — the baseline build, `_mm_mul_ps` +
//!     `_mm_add_ps` (two roundings), for hosts without FMA.
//!
//!   Kernels compiled for a `target_feature` set are only reachable
//!   through the probe that confirmed it.
//! * **scalar** — a `[f32; 4]` array fallback for every other
//!   architecture, and for any architecture when the `force-scalar`
//!   cargo feature is on (CI builds it so the fallback cannot rot). It
//!   uses `f32::mul_add`, so its results are bit-identical to the fused
//!   vector backends and to the scalar reference kernel.
//!
//! ## Alignment contract
//!
//! Loads and stores use the unaligned-tolerant instructions
//! (`_mm_loadu_ps`, `vld1q_f32`), so correctness never depends on
//! alignment; packed panels are nevertheless 64-byte aligned by
//! [`crate::packing::AlignedVec`] so vector loads of panel rows never
//! split a cache line at the panel base (asserted in debug builds).

#![allow(clippy::missing_safety_doc)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Lanes per vector register — the paper's NEON `σ_lane`.
pub const LANES: usize = 4;

/// Which micro-kernel flavour [`detect`](SimdBackend::detect) resolved
/// to on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// aarch64 NEON: `vfmaq_f32` main loop (always fused).
    Neon,
    /// x86_64 with AVX-512F and AVX-512VL: the `_mm_fmadd_ps` main loop
    /// EVEX-encoded, so the kernels can use all 32 xmm registers.
    X86Avx512Vl,
    /// x86_64 with the FMA extension: `_mm_fmadd_ps` main loop
    /// (VEX-encoded, 16 xmm registers).
    X86Fma,
    /// x86_64 baseline: SSE2 `_mm_mul_ps` + `_mm_add_ps` (not fused).
    X86Sse2,
    /// Portable `[f32; 4]` arrays with `f32::mul_add` (fused).
    Scalar,
}

impl SimdBackend {
    /// Probe the host once and cache the answer (relaxed atomic — the
    /// probe is idempotent, so a benign race only repeats it).
    pub fn detect() -> SimdBackend {
        const UNKNOWN: u8 = 0xff;
        static CACHE: AtomicU8 = AtomicU8::new(UNKNOWN);
        let cached = CACHE.load(Ordering::Relaxed);
        if cached != UNKNOWN {
            return Self::from_u8(cached);
        }
        let detected = Self::probe();
        CACHE.store(detected as u8, Ordering::Relaxed);
        detected
    }

    #[cfg(simd_scalar)]
    fn probe() -> SimdBackend {
        SimdBackend::Scalar
    }

    #[cfg(simd_neon)]
    fn probe() -> SimdBackend {
        SimdBackend::Neon
    }

    #[cfg(simd_x86)]
    fn probe() -> SimdBackend {
        let fma = std::arch::is_x86_feature_detected!("fma");
        if fma
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            SimdBackend::X86Avx512Vl
        } else if fma {
            SimdBackend::X86Fma
        } else {
            SimdBackend::X86Sse2
        }
    }

    fn from_u8(v: u8) -> SimdBackend {
        match v {
            x if x == SimdBackend::Neon as u8 => SimdBackend::Neon,
            x if x == SimdBackend::X86Avx512Vl as u8 => SimdBackend::X86Avx512Vl,
            x if x == SimdBackend::X86Fma as u8 => SimdBackend::X86Fma,
            x if x == SimdBackend::X86Sse2 as u8 => SimdBackend::X86Sse2,
            _ => SimdBackend::Scalar,
        }
    }

    /// Whether the backend's multiply-accumulate rounds once (hardware
    /// FMA). Fused backends are bit-identical to the scalar reference
    /// kernel; [`SimdBackend::X86Sse2`] rounds twice and only matches it
    /// within tolerance.
    pub fn fused(self) -> bool {
        !matches!(self, SimdBackend::X86Sse2)
    }

    /// Stable name for bench artifacts and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Neon => "neon",
            SimdBackend::X86Avx512Vl => "x86_avx512vl",
            SimdBackend::X86Fma => "x86_fma",
            SimdBackend::X86Sse2 => "x86_sse2",
            SimdBackend::Scalar => "scalar",
        }
    }
}

// The three mutually exclusive representation cfgs are spelled out by
// build.rs as `simd_neon` / `simd_x86` / `simd_scalar` so every cfg'd
// item below names exactly one condition (`force-scalar` beats both
// architecture cfgs).

#[cfg(simd_neon)]
use core::arch::aarch64 as arch;
#[cfg(simd_x86)]
use core::arch::x86_64 as arch;

#[cfg(simd_neon)]
type Repr = arch::float32x4_t;
#[cfg(simd_x86)]
type Repr = arch::__m128;
#[cfg(simd_scalar)]
type Repr = [f32; LANES];

/// Four `f32` lanes — one NEON/SSE vector register, or a plain array on
/// the scalar fallback. All operations are `#[inline(always)]` so the
/// micro-kernels see straight-line vector code after monomorphization.
#[derive(Clone, Copy)]
pub struct F32x4(Repr);

impl F32x4 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> F32x4 {
        F32x4::splat(0.0)
    }

    /// Broadcast `v` to every lane (the kernels' A-element broadcast).
    #[inline(always)]
    pub fn splat(v: f32) -> F32x4 {
        #[cfg(simd_neon)]
        // SAFETY: NEON is baseline on aarch64.
        unsafe {
            F32x4(arch::vdupq_n_f32(v))
        }
        #[cfg(simd_x86)]
        // SAFETY: SSE2 is baseline on x86_64.
        unsafe {
            F32x4(arch::_mm_set1_ps(v))
        }
        #[cfg(simd_scalar)]
        F32x4([v; LANES])
    }

    /// Load four lanes from `ptr` (unaligned tolerated).
    ///
    /// # Safety
    /// `ptr` must be valid for reading 4 consecutive `f32`s.
    #[inline(always)]
    pub unsafe fn load(ptr: *const f32) -> F32x4 {
        #[cfg(simd_neon)]
        return F32x4(arch::vld1q_f32(ptr));
        #[cfg(simd_x86)]
        return F32x4(arch::_mm_loadu_ps(ptr));
        #[cfg(simd_scalar)]
        return F32x4([*ptr, *ptr.add(1), *ptr.add(2), *ptr.add(3)]);
    }

    /// Store four lanes to `ptr` (unaligned tolerated).
    ///
    /// # Safety
    /// `ptr` must be valid for writing 4 consecutive `f32`s.
    #[inline(always)]
    pub unsafe fn store(self, ptr: *mut f32) {
        #[cfg(simd_neon)]
        arch::vst1q_f32(ptr, self.0);
        #[cfg(simd_x86)]
        arch::_mm_storeu_ps(ptr, self.0);
        #[cfg(simd_scalar)]
        for (i, v) in self.0.iter().enumerate() {
            *ptr.add(i) = *v;
        }
    }

    /// Lane-wise `self + o` (also available as the `+` operator).
    #[inline(always)]
    fn add_impl(self, o: F32x4) -> F32x4 {
        #[cfg(simd_neon)]
        // SAFETY: NEON is baseline on aarch64.
        unsafe {
            F32x4(arch::vaddq_f32(self.0, o.0))
        }
        #[cfg(simd_x86)]
        // SAFETY: SSE2 is baseline on x86_64.
        unsafe {
            F32x4(arch::_mm_add_ps(self.0, o.0))
        }
        #[cfg(simd_scalar)]
        {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a += b;
            }
            F32x4(r)
        }
    }

    /// Lane-wise `self * o` (also available as the `*` operator).
    #[inline(always)]
    fn mul_impl(self, o: F32x4) -> F32x4 {
        #[cfg(simd_neon)]
        // SAFETY: NEON is baseline on aarch64.
        unsafe {
            F32x4(arch::vmulq_f32(self.0, o.0))
        }
        #[cfg(simd_x86)]
        // SAFETY: SSE2 is baseline on x86_64.
        unsafe {
            F32x4(arch::_mm_mul_ps(self.0, o.0))
        }
        #[cfg(simd_scalar)]
        {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a *= b;
            }
            F32x4(r)
        }
    }

    /// Baseline multiply-accumulate `self + a*b`: fused on NEON
    /// (`vfmaq_f32`) and the scalar fallback (`f32::mul_add`), two
    /// roundings on plain SSE2.
    #[inline(always)]
    pub fn mul_acc(self, a: F32x4, b: F32x4) -> F32x4 {
        #[cfg(simd_neon)]
        // SAFETY: NEON is baseline on aarch64.
        unsafe {
            F32x4(arch::vfmaq_f32(self.0, a.0, b.0))
        }
        #[cfg(simd_x86)]
        {
            self + a * b
        }
        #[cfg(simd_scalar)]
        {
            let mut r = self.0;
            for ((acc, x), y) in r.iter_mut().zip(a.0).zip(b.0) {
                *acc = x.mul_add(y, *acc);
            }
            F32x4(r)
        }
    }

    /// Fused multiply-accumulate `self + a*b` via `_mm_fmadd_ps`.
    ///
    /// # Safety
    /// The host must support the FMA extension ([`SimdBackend::X86Fma`]
    /// or [`SimdBackend::X86Avx512Vl`]), and the caller must sit (after
    /// inlining) inside a `#[target_feature]` region that enables `fma`
    /// so the intrinsic is inlined rather than called.
    #[cfg(simd_x86)]
    #[inline(always)]
    pub unsafe fn mul_acc_fma(self, a: F32x4, b: F32x4) -> F32x4 {
        F32x4(arch::_mm_fmadd_ps(a.0, b.0, self.0))
    }

    /// Copy the lanes out to an array (edge-tile scalar stores).
    #[inline(always)]
    pub fn to_array(self) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        // SAFETY: `out` has exactly LANES writable f32s.
        unsafe { self.store(out.as_mut_ptr()) };
        out
    }

    /// Build a vector from an array (edge-tile scalar loads).
    #[inline(always)]
    pub fn from_array(v: [f32; LANES]) -> F32x4 {
        // SAFETY: `v` has exactly LANES readable f32s.
        unsafe { F32x4::load(v.as_ptr()) }
    }
}

impl std::ops::Add for F32x4 {
    type Output = F32x4;
    #[inline(always)]
    fn add(self, o: F32x4) -> F32x4 {
        self.add_impl(o)
    }
}

impl std::ops::Mul for F32x4 {
    type Output = F32x4;
    #[inline(always)]
    fn mul(self, o: F32x4) -> F32x4 {
        self.mul_impl(o)
    }
}

impl std::fmt::Debug for F32x4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F32x4({:?})", self.to_array())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_load_store_roundtrip() {
        let src = [1.0f32, -2.5, 3.25, 0.0];
        let v = F32x4::from_array(src);
        assert_eq!(v.to_array(), src);
        assert_eq!(F32x4::splat(7.0).to_array(), [7.0; 4]);
    }

    #[test]
    fn arithmetic_lanes_are_independent() {
        let a = F32x4::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = F32x4::from_array([10.0, 20.0, 30.0, 40.0]);
        assert_eq!((a + b).to_array(), [11.0, 22.0, 33.0, 44.0]);
        assert_eq!((a * b).to_array(), [10.0, 40.0, 90.0, 160.0]);
        let acc = F32x4::splat(1.0);
        assert_eq!(acc.mul_acc(a, b).to_array(), [11.0, 41.0, 91.0, 161.0]);
    }

    #[test]
    fn detect_is_stable_and_consistent_with_arch() {
        let b = SimdBackend::detect();
        assert_eq!(b, SimdBackend::detect(), "cached probe must be stable");
        #[cfg(simd_scalar)]
        assert_eq!(b, SimdBackend::Scalar);
        #[cfg(simd_neon)]
        assert_eq!(b, SimdBackend::Neon);
        #[cfg(simd_x86)]
        {
            let fma = std::arch::is_x86_feature_detected!("fma");
            let evex = fma
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl");
            let want = if evex {
                SimdBackend::X86Avx512Vl
            } else if fma {
                SimdBackend::X86Fma
            } else {
                SimdBackend::X86Sse2
            };
            assert_eq!(b, want, "probe disagrees with is_x86_feature_detected!");
            assert_eq!(b.fused(), fma);
        }
    }

    #[cfg(simd_x86)]
    #[test]
    fn fma_path_matches_mul_acc_when_available() {
        #[target_feature(enable = "fma")]
        unsafe fn vex(acc: F32x4, a: F32x4, b: F32x4) -> F32x4 {
            acc.mul_acc_fma(a, b)
        }
        #[target_feature(enable = "fma,avx512f,avx512vl")]
        unsafe fn evex(acc: F32x4, a: F32x4, b: F32x4) -> F32x4 {
            acc.mul_acc_fma(a, b)
        }
        type Fused = unsafe fn(F32x4, F32x4, F32x4) -> F32x4;
        let builds: Vec<(&str, Fused)> = match SimdBackend::detect() {
            SimdBackend::X86Avx512Vl => vec![("x86_fma", vex), ("x86_avx512vl", evex)],
            SimdBackend::X86Fma => vec![("x86_fma", vex)],
            _ => return,
        };
        let a = F32x4::from_array([1.5, 2.5, -3.0, 4.0]);
        let b = F32x4::from_array([2.0, -1.0, 0.5, 3.0]);
        let acc = F32x4::splat(1.0);
        // Products whose low bits a second rounding would drop: only a
        // single-rounding multiply-add matches `f32::mul_add` on them.
        let x = F32x4::splat(1.0 + f32::EPSILON);
        let y = F32x4::splat(1.0 - f32::EPSILON);
        let z = F32x4::splat(-1.0);
        let want_rounded = (1.0 + f32::EPSILON).mul_add(1.0 - f32::EPSILON, -1.0);
        assert_ne!(want_rounded, ((1.0 + f32::EPSILON) * (1.0 - f32::EPSILON)) - 1.0);
        for (name, fused) in builds {
            // SAFETY: detect() confirmed the features each build enables.
            let (exact, rounded) = unsafe { (fused(acc, a, b), fused(z, x, y)) };
            // Products here are exact, so fused and unfused agree bitwise.
            assert_eq!(exact.to_array(), acc.mul_acc(a, b).to_array(), "{name}");
            assert_eq!(rounded.to_array(), [want_rounded; 4], "{name} must round once");
        }
    }
}
