//! Explicit-SIMD micro-kernels over the [`crate::simd`] lane layer.
//!
//! Each kernel is the paper's generated-kernel main loop (§III-A) made
//! explicit: an `(m_r, n̄_r)` register tile of [`F32x4`] accumulators —
//! `NRV = n̄_r` vector columns per row, mirroring Table II — fed by a
//! broadcast-A / vector-B FMA chain. The structure maps one-to-one onto
//! the perfmodel's Eqn 6/8 cycle counts: `m_r · n̄_r` FMA issues plus
//! `m_r` A broadcasts and `n̄_r` B loads per k-step, so achieved-vs-
//! predicted ratios measured by the `microkernel` bench bin are
//! apples-to-apples per tile shape.
//!
//! Two code paths per kernel:
//!
//! * **full tile** (`eff_rows == MR`, `eff_cols == NR`): no bounds
//!   handling at all; `C` is read and written with vector loads/stores.
//! * **edge tile**: the same main loop (A/B reads are always in-bounds
//!   for the *full* tile by the packing contract — see
//!   [`crate::packing`]), but `C` is gathered/scattered element-wise over
//!   the effective region only.
//!
//! The k-loop is unrolled by 4; instruction-level parallelism comes from
//! the `MR·NRV` independent accumulator chains (the register tile), so
//! each `(i, j̄)` accumulator still sums its products in ascending-`k`
//! order — on fused backends the results are bit-identical to the scalar
//! reference kernel ([`crate::native::micro_kernel_ref`]).
//!
//! Runtime dispatch: [`micro_kernel_simd`] probes [`SimdBackend`] once
//! and routes to one build of the same `kernel_body`:
//!
//! * the baseline build — NEON / SSE2 / scalar, whatever the compile
//!   target guarantees;
//! * on x86_64, the `#[target_feature(enable = "fma")]` build
//!   (VEX-encoded `_mm_fmadd_ps`), reachable only after
//!   `is_x86_feature_detected!("fma")` confirmed the host;
//! * on x86_64 with AVX-512F and AVX-512VL, the same FMA build compiled
//!   with `#[target_feature(enable = "fma,avx512f,avx512vl")]`. The
//!   vectors are still 128-bit [`F32x4`]s, but the EVEX encoding gives
//!   the register allocator xmm16–31 as well. The paper sizes its tile
//!   menu for 32 vector registers (Table II: `m_r·n̄_r + m_r + n̄_r ≤
//!   32`), so the tiles the tuner favours — 3×24 needs 27 registers,
//!   4×20 needs 29 — spill in the 16-register VEX build and do not in
//!   this one.
//!
//! All builds accumulate `k` in the same order, so the fused ones are
//! bit-identical to each other and to the scalar reference.

use crate::native::CTile;
use crate::simd::{F32x4, SimdBackend, LANES};

/// One input operand as the kernel layer sees it: a packed panel, or a
/// strided row-major window of the caller's matrix (packing elided by
/// the input-aware dispatch layer).
///
/// The micro-kernels themselves are stride-generic — they always read
/// `a[i·lda + p]` and `b[p·ldb + j]` — so the two forms differ only in
/// their *bounds contract*:
///
/// * **Packed** panels are padded by [`crate::packing`] so a full
///   `(m_r, n_r)` tile's reads are in bounds even on edge tiles; any
///   menu kernel may run against them unconditionally.
/// * **Unpacked** windows expose exactly `avail` valid rows (for A) or
///   columns (for B) from their origin. A vector kernel whose full tile
///   would read past `avail` must be rerouted to a bounds-exact edge
///   kernel by the dispatcher ([`crate::native`] does this per
///   placement).
#[derive(Clone, Copy)]
pub enum Operand<'a> {
    /// Packed panel (leading dimension `ld`), padded per the packing
    /// contract: full-tile reads never go out of bounds.
    Packed { data: &'a [f32], ld: usize },
    /// Strided row-major window with `avail` valid rows (A operand) or
    /// columns (B operand) from its origin.
    Unpacked { data: &'a [f32], ld: usize, avail: usize },
}

impl<'a> Operand<'a> {
    #[inline(always)]
    pub fn data(&self) -> &'a [f32] {
        match self {
            Operand::Packed { data, .. } | Operand::Unpacked { data, .. } => data,
        }
    }

    #[inline(always)]
    pub fn ld(&self) -> usize {
        match self {
            Operand::Packed { ld, .. } | Operand::Unpacked { ld, .. } => *ld,
        }
    }

    /// Rows (A) or columns (B) a kernel may read from the origin without
    /// leaving the operand. Packed panels are padded for any menu tile,
    /// so their extent is unbounded for dispatch purposes.
    #[inline(always)]
    pub fn avail(&self) -> usize {
        match self {
            Operand::Packed { .. } => usize::MAX,
            Operand::Unpacked { avail, .. } => *avail,
        }
    }

    pub fn is_packed(&self) -> bool {
        matches!(self, Operand::Packed { .. })
    }
}

/// Multiply-accumulate step parameterized by the FMA dispatch decision.
///
/// # Safety
/// With `FMA = true` (x86_64 only) the caller must be inside a
/// `target_feature(enable = "fma")` region on an FMA-capable host.
#[inline(always)]
unsafe fn fmadd<const FMA: bool>(acc: F32x4, a: F32x4, b: F32x4) -> F32x4 {
    #[cfg(simd_x86)]
    if FMA {
        return acc.mul_acc_fma(a, b);
    }
    acc.mul_acc(a, b)
}

/// One k-step: broadcast `a[i * lda + p]` per row, load the `NRV` B
/// vectors of row `p`, and accumulate the outer product.
///
/// # Safety
/// `a` must be readable at `i * lda + p` for all `i < MR`; `b` must be
/// readable for `NRV * LANES` elements from `p * ldb`. See `FMA` note on
/// [`fmadd`].
#[inline(always)]
unsafe fn kstep<const MR: usize, const NRV: usize, const FMA: bool>(
    acc: &mut [[F32x4; NRV]; MR],
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    p: usize,
) {
    let brow = b.add(p * ldb);
    let mut bv = [F32x4::zero(); NRV];
    for (jv, v) in bv.iter_mut().enumerate() {
        *v = F32x4::load(brow.add(jv * LANES));
    }
    for (i, row) in acc.iter_mut().enumerate() {
        let ai = F32x4::splat(*a.add(i * lda + p));
        for (jv, cell) in row.iter_mut().enumerate() {
            *cell = fmadd::<FMA>(*cell, ai, bv[jv]);
        }
    }
}

/// The generic kernel body, monomorphized per `(MR, NRV, FMA)`.
///
/// # Safety
/// The packing contract of [`crate::packing`] must hold: `a` readable for
/// `MR` rows of `kc` elements at stride `lda`, `b` readable for `kc` rows
/// of `NRV * LANES` elements at stride `ldb`, and `c`'s effective cells
/// owned by this thread. See `FMA` note on [`fmadd`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn kernel_body<const MR: usize, const NRV: usize, const FMA: bool>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    debug_assert!(MR == 0 || a.len() >= (MR - 1) * lda + kc, "A panel too short for {MR} rows");
    debug_assert!(
        kc == 0 || b.len() >= (kc - 1) * ldb + NRV * LANES,
        "B panel too short for {NRV} lane columns"
    );
    debug_assert!(eff_rows <= MR && eff_cols <= NRV * LANES);
    let full = eff_rows == MR && eff_cols == NRV * LANES;
    let mut acc = [[F32x4::zero(); NRV]; MR];
    if accumulate {
        if full {
            for (i, row) in acc.iter_mut().enumerate() {
                for (jv, cell) in row.iter_mut().enumerate() {
                    *cell = F32x4::load(c.lanes_ptr(i, jv * LANES));
                }
            }
        } else {
            let mut stage = [[[0.0f32; LANES]; NRV]; MR];
            for (i, srow) in stage.iter_mut().enumerate().take(eff_rows) {
                for j in 0..eff_cols {
                    srow[j / LANES][j % LANES] = c.get(i, j);
                }
            }
            for (i, row) in acc.iter_mut().enumerate() {
                for (jv, cell) in row.iter_mut().enumerate() {
                    *cell = F32x4::from_array(stage[i][jv]);
                }
            }
        }
    }

    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut p = 0usize;
    while p + 4 <= kc {
        kstep::<MR, NRV, FMA>(&mut acc, ap, lda, bp, ldb, p);
        kstep::<MR, NRV, FMA>(&mut acc, ap, lda, bp, ldb, p + 1);
        kstep::<MR, NRV, FMA>(&mut acc, ap, lda, bp, ldb, p + 2);
        kstep::<MR, NRV, FMA>(&mut acc, ap, lda, bp, ldb, p + 3);
        p += 4;
    }
    while p < kc {
        kstep::<MR, NRV, FMA>(&mut acc, ap, lda, bp, ldb, p);
        p += 1;
    }

    if full {
        for (i, row) in acc.iter().enumerate() {
            for (jv, cell) in row.iter().enumerate() {
                cell.store(c.lanes_ptr(i, jv * LANES));
            }
        }
    } else {
        for (i, row) in acc.iter().enumerate().take(eff_rows) {
            for (jv, cell) in row.iter().enumerate() {
                if jv * LANES >= eff_cols {
                    break;
                }
                let lane = cell.to_array();
                for (l, &v) in lane.iter().enumerate() {
                    let j = jv * LANES + l;
                    if j < eff_cols {
                        c.set(i, j, v);
                    }
                }
            }
        }
    }
}

/// Baseline build: whatever vector ISA the compile target guarantees
/// (NEON on aarch64, SSE2 on x86_64, the array fallback elsewhere).
#[allow(clippy::too_many_arguments)]
fn kernel_base<const MR: usize, const NRV: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    // SAFETY: packing contract (see `kernel_body`); FMA=false needs no
    // extra target features.
    unsafe { kernel_body::<MR, NRV, false>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols) }
}

/// FMA build: the whole body is re-monomorphized under
/// `target_feature(enable = "fma")` so `_mm_fmadd_ps` inlines into the
/// main loop.
///
/// # Safety
/// Host must support FMA — only reachable via [`micro_kernel_simd`]'s
/// [`SimdBackend::X86Fma`] arm, which is gated on runtime detection.
#[cfg(simd_x86)]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "fma")]
unsafe fn kernel_x86_fma<const MR: usize, const NRV: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    kernel_body::<MR, NRV, true>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols)
}

/// EVEX build: the FMA build with AVX-512F/VL enabled as well, so LLVM
/// may allocate xmm16–31 and the Table II tiles above 16 registers stay
/// in registers. The vectors, instructions and k order are those of
/// [`kernel_x86_fma`]; only the encoding differs.
///
/// # Safety
/// Host must support FMA, AVX-512F and AVX-512VL — only reachable via
/// [`micro_kernel_simd`]'s [`SimdBackend::X86Avx512Vl`] arm, which is
/// gated on runtime detection.
#[cfg(simd_x86)]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "fma,avx512f,avx512vl")]
unsafe fn kernel_x86_avx512vl<const MR: usize, const NRV: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    kernel_body::<MR, NRV, true>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols)
}

/// The dispatched SIMD micro-kernel:
/// `C[0..eff_rows][0..eff_cols] (+)= A[0..MR][0..kc] · B[0..kc][0..NRV*4]`.
///
/// Drop-in replacement for the scalar reference kernel (same contract as
/// [`crate::native::micro_kernel_ref`], with `NR` expressed as `NRV`
/// vector registers). The backend probe is one cached atomic load per
/// call — noise next to the `2·MR·NRV·4·kc` flops it dispatches.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn micro_kernel_simd<const MR: usize, const NRV: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    match SimdBackend::detect() {
        #[cfg(simd_x86)]
        // SAFETY: the detect() probe confirmed FMA, AVX-512F and
        // AVX-512VL on this host.
        SimdBackend::X86Avx512Vl => unsafe {
            kernel_x86_avx512vl::<MR, NRV>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols)
        },
        #[cfg(simd_x86)]
        // SAFETY: the detect() probe confirmed FMA on this host.
        SimdBackend::X86Fma => unsafe {
            kernel_x86_fma::<MR, NRV>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols)
        },
        _ => kernel_base::<MR, NRV>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::micro_kernel_ref;

    fn data(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) as f32 / 8192.0 - 4.0
            })
            .collect()
    }

    /// A kernel build with the [`micro_kernel_simd`] signature.
    type Kernel = unsafe fn(usize, &[f32], usize, &[f32], usize, CTile, bool, usize, usize);

    /// Run `kernel` and [`micro_kernel_ref`] on the same operands and
    /// compare `C`: bit-for-bit when `exact`, else within 1e-3 relative.
    ///
    /// # Safety
    /// The host must support the target features `kernel` was built for.
    unsafe fn check<const MR: usize, const NRV: usize, const NR: usize>(
        build: &str,
        kernel: Kernel,
        exact: bool,
        kc: usize,
        accumulate: bool,
        eff_rows: usize,
        eff_cols: usize,
    ) {
        let lda = kc + 8;
        let a = data(MR * lda, 1);
        let ldb = NR + 4;
        let b = data((kc + 2) * ldb, 2);
        let c0 = data(MR * NR, 3);
        let mut c_simd = c0.clone();
        let mut c_ref = c0.clone();
        let t_simd = unsafe { CTile::new(c_simd.as_mut_ptr(), NR, c_simd.len()) };
        let t_ref = unsafe { CTile::new(c_ref.as_mut_ptr(), NR, c_ref.len()) };
        kernel(kc, &a, lda, &b, ldb, t_simd, accumulate, eff_rows, eff_cols);
        micro_kernel_ref::<MR, NR>(kc, &a, lda, &b, ldb, t_ref, accumulate, eff_rows, eff_cols);
        for (i, (&got, &want)) in c_simd.iter().zip(&c_ref).enumerate() {
            let ok = if exact {
                got.to_bits() == want.to_bits()
            } else {
                (got - want).abs() <= 1e-3 * want.abs().max(1.0)
            };
            assert!(
                ok,
                "{build} {MR}x{NR} kc={kc} acc={accumulate} eff=({eff_rows},{eff_cols}) \
                 C[{i}]: {got} vs {want}"
            );
        }
    }

    /// The dispatched kernel and every build of this tile the host can
    /// run, the latter called directly rather than through the probe,
    /// against the reference: full and edge tiles, accumulate on and off.
    /// Fused builds must be bit-exact; the x86 baseline (SSE2, two
    /// roundings) within tolerance.
    fn sweep_builds<const MR: usize, const NRV: usize, const NR: usize>() {
        #[cfg_attr(not(simd_x86), allow(unused_mut))]
        let mut builds: Vec<(&str, Kernel, bool)> = vec![
            ("dispatched", micro_kernel_simd::<MR, NRV>, SimdBackend::detect().fused()),
            ("base", kernel_base::<MR, NRV>, !cfg!(simd_x86)),
        ];
        #[cfg(simd_x86)]
        {
            if std::arch::is_x86_feature_detected!("fma") {
                builds.push(("x86_fma", kernel_x86_fma::<MR, NRV>, true));
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                {
                    builds.push(("x86_avx512vl", kernel_x86_avx512vl::<MR, NRV>, true));
                }
            }
        }
        let edges =
            [(MR, NR), (MR, NR - 1), ((MR - 1).max(1), NR), (1, 1), (MR.div_ceil(2), NR / 2 + 1)];
        for (build, kernel, exact) in builds {
            for kc in [1, 3, 4, 7, 64, 257] {
                for accumulate in [false, true] {
                    for (er, ec) in edges {
                        // SAFETY: each build was pushed only after its
                        // target features were detected.
                        unsafe {
                            check::<MR, NRV, NR>(build, kernel, exact, kc, accumulate, er, ec)
                        };
                    }
                }
            }
        }
    }

    #[test]
    fn every_build_matches_reference_on_every_menu_tile() {
        macro_rules! sweep {
            ($(($mr:literal, $nrv:literal, $nr:literal)),* $(,)?) => {{
                $(sweep_builds::<$mr, $nrv, $nr>();)*
                vec![$(($mr, $nr)),*]
            }};
        }
        let swept: Vec<(usize, usize)> = sweep!(
            (1, 1, 4),
            (1, 2, 8),
            (1, 3, 12),
            (1, 4, 16),
            (1, 5, 20),
            (1, 6, 24),
            (1, 7, 28),
            (2, 1, 4),
            (2, 2, 8),
            (2, 3, 12),
            (2, 4, 16),
            (2, 5, 20),
            (2, 6, 24),
            (2, 7, 28),
            (3, 1, 4),
            (3, 2, 8),
            (3, 3, 12),
            (3, 4, 16),
            (3, 5, 20),
            (3, 6, 24),
            (3, 7, 28),
            (4, 1, 4),
            (4, 2, 8),
            (4, 3, 12),
            (4, 4, 16),
            (4, 5, 20),
            (5, 1, 4),
            (5, 2, 8),
            (5, 3, 12),
            (5, 4, 16),
            (6, 1, 4),
            (6, 2, 8),
            (6, 3, 12),
            (7, 1, 4),
            (7, 2, 8),
            (7, 3, 12),
            (8, 1, 4),
            (8, 2, 8),
        );
        assert_eq!(swept, crate::native::KERNEL_MENU, "sweep must cover the whole menu");
    }

    #[test]
    fn edge_stores_leave_rest_of_c_untouched() {
        let kc = 4;
        let a = vec![1.0f32; 5 * (kc + 8)];
        let b = vec![1.0f32; (kc + 2) * 16];
        let mut c = vec![7.0f32; 5 * 16];
        let tile = unsafe { CTile::new(c.as_mut_ptr(), 16, c.len()) };
        micro_kernel_simd::<5, 4>(kc, &a, kc + 8, &b, 16, tile, false, 2, 3);
        assert_eq!(c[0], kc as f32);
        assert_eq!(c[2], kc as f32);
        assert_eq!(c[3], 7.0, "col 3 out of eff_cols must be untouched");
        assert_eq!(c[2 * 16], 7.0, "row 2 out of eff_rows must be untouched");
    }

    #[test]
    fn zero_kc_only_handles_accumulate() {
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 8];
        let mut c = vec![3.0f32; 2 * 4];
        let tile = unsafe { CTile::new(c.as_mut_ptr(), 4, c.len()) };
        micro_kernel_simd::<2, 1>(0, &a, 4, &b, 4, tile, false, 2, 4);
        assert!(c.iter().all(|&v| v == 0.0), "kc=0 without accumulate zeroes C");
    }
}
