//! Native (host) execution backend: explicit-SIMD micro-kernels and the
//! threaded block driver.
//!
//! The micro-kernels are monomorphized over `(m_r, n̄_r)` for every shape
//! in the Table II menu and execute as explicit `(m_r, n̄_r)` register
//! tiles of [`crate::simd::F32x4`] accumulators — NEON on aarch64,
//! SSE2/FMA (runtime-detected) on x86_64, a portable array fallback
//! elsewhere; see [`crate::kernels`]. The scalar reference kernel
//! ([`micro_kernel_ref`]) is kept as the correctness baseline every
//! vector kernel is tested and benchmarked against
//! ([`run_placement_ref`] drives it through the same dispatch table).
//! The block driver walks the same [`ExecutionPlan`] the simulated
//! backend uses.
//!
//! Threading follows the paper's §V-C constraint: cache blocks of `C` are
//! distributed over the persistent worker-pool runtime
//! ([`crate::runtime`] — long-lived workers woken per section, no
//! per-call thread spawn); the K dimension is **never**
//! split across threads (the TVM limitation autoGEMM inherits), so each
//! `C` block is owned by exactly one thread and no reduction races exist.
//! Because a strided `C` window overlaps other blocks' bytes, writes go
//! through a raw-pointer tile handle ([`CTile`]) whose accessed cells are
//! provably disjoint across threads, rather than through overlapping
//! `&mut` slices (which would be UB regardless of write disjointness).
//!
//! ## Panel cache (amortized packing)
//!
//! The driver packs every operand panel exactly once per GEMM: A panels
//! `(bi, kb)` are shared across all column blocks and B panels `(kb, bj)`
//! across all row blocks, so a `tm × tn × tk` grid performs
//! `(tm + tn)·tk` packs instead of the `2·tm·tn·tk` a per-block repacking
//! loop would (§IV-C2 makes amortized packing a first-class tuning axis).
//! Panel buffers come from a [`PanelPool`] and are returned after the
//! call, so steady-state GEMMs allocate nothing. Blocks are then drained
//! from a shared atomic cursor over the `σ_order`-sorted block list —
//! irregular grids whose edge blocks are cheap load-balance dynamically
//! instead of by static thread striding. Packed panel contents and the
//! per-block `kb`-ascending accumulation order are identical to the
//! historical per-block path ([`gemm_with_plan_repack`]), so results are
//! bit-identical.
//!
//! ## One driver, optional recording
//!
//! [`try_gemm_with_plan_supervised`] is the one cached block driver in
//! the crate. Every block-routed entry point reaches it with an
//! [`Operands`] descriptor that says how the caller holds `A` and `B`:
//!
//! - the engine front door (`AutoGemm::try_gemm_opts`,
//!   `try_gemm_traced_opts`, every rung of `try_gemm_resilient`) and the
//!   plan-level [`try_gemm_with_plan_pooled`] / [`gemm_with_plan`]:
//!   row-major `A` and `B`;
//! - [`crate::offline::try_gemm_prepacked_pooled`]: `B` packed offline;
//! - [`crate::batch::try_gemm_batch_supervised`] (and
//!   `AutoGemm::try_gemm_batch_opts` above it): one call per item, with
//!   the batch's shared packed `B` or the item's own;
//! - [`crate::transpose`]'s `try_gemm_op`/`gemm_op` and
//!   `try_sgemm`/`sgemm`: transposed operands, and for `sgemm` with
//!   `β ≠ 0` accumulation into `C`.
//!
//! So every path runs the same fault probes, breaker reroutes,
//! cancellation points, buffer releases and panic containment.
//! [`try_gemm_with_plan_repack`] is kept apart on purpose: it is the
//! per-block repacking reference the cached driver is tested against.
//!
//! Tracing is not a second copy of the driver: the caller passes
//! `record = true`, and the same body then also times its phases,
//! profiles each worker, sums each pack runner's panel tally and derives
//! the kernel-shape histogram from the plan into a [`GemmReport`].
//! Without it the driver reads no telemetry clock, takes no profile lock
//! and allocates no profile; the per-tile path is the same either way.
//! The work-unit drain every
//! kernel section shares (cancellation, heartbeats, panic containment,
//! per-worker profiles) lives once, in `try_drain`, used by this driver
//! and the GEMV/small-`k` fast routes alike.

use crate::error::{self, GemmError};
use crate::faultinject::{self, FaultSite, Probe};
use crate::kernels::Operand;
use crate::offline::PackedB;
use crate::packing::{
    a_panel_len, b_panel_len, pack_a, pack_a_into, pack_a_t_into, pack_b, pack_b_into,
    pack_b_t_into, thread_pack_counts, PackedBlock, PanelPool,
};
use crate::plan::{ExecutionPlan, OperandRouting};
use crate::runtime::Exec;
use crate::supervisor::{BreakerPath, RunMonitor, Supervision};
use crate::telemetry::clock::Stamp;
use crate::telemetry::report::{
    FallbackStats, GemmReport, PackStats, PhaseProfile, PhaseTimes, ThreadProfile, TileCount,
};
use crate::transpose::Op;
use autogemm_tiling::TilePlacement;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Shared poison flag for one parallel section. The first panicking
/// worker records its index and payload here; survivors poll
/// [`Poison::is_poisoned`] between blocks and stop claiming work, so the
/// section always joins cleanly (no deadlock) and the caller gets a
/// structured [`GemmError::WorkerPanicked`] instead of an abort.
pub(crate) struct Poison {
    hit: AtomicBool,
    first: Mutex<Option<(usize, String)>>,
}

impl Poison {
    pub(crate) fn new() -> Self {
        Poison { hit: AtomicBool::new(false), first: Mutex::new(None) }
    }

    #[inline]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.hit.load(Ordering::Relaxed)
    }

    pub(crate) fn record(&self, thread: usize, payload: Box<dyn std::any::Any + Send>) {
        {
            let mut first = self.first.lock();
            if first.is_none() {
                *first = Some((thread, error::panic_detail(payload.as_ref())));
            }
        }
        self.hit.store(true, Ordering::SeqCst);
    }

    pub(crate) fn into_result(self) -> Result<(), GemmError> {
        match self.first.into_inner() {
            Some((thread, detail)) => Err(GemmError::WorkerPanicked { thread, detail }),
            None => Ok(()),
        }
    }
}

/// Run `f` on the caller thread with panic containment. The caller
/// thread acts as worker 0 (setup phases and single-threaded runs), so a
/// caught panic reports `thread: 0`.
fn contain<R>(f: impl FnOnce() -> R) -> Result<R, GemmError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| GemmError::WorkerPanicked {
        thread: 0,
        detail: error::panic_detail(payload.as_ref()),
    })
}

/// Consult the fault-injection plan at `site` from the caller thread,
/// containing an injected panic as a worker-0 panic. With no plan armed
/// this is one relaxed load: the `catch_unwind` is only entered when a
/// plan could fire.
#[inline(always)]
fn probe_contained(site: FaultSite) -> Result<Probe, GemmError> {
    if !faultinject::armed() {
        return Ok(Probe::Ok);
    }
    contain(|| faultinject::probe(site))
}

/// Setup-phase degradation decisions for one run, made (and contained)
/// on the caller thread before any panel is packed. Shared with the
/// degenerate-shape fast paths ([`crate::gemv`]), which probe the same
/// dispatch site so fault injection and breaker reroutes cover them.
pub(crate) struct RunConfig {
    /// Route every placement to the scalar reference kernels — the
    /// degradation path for a failed SIMD backend probe (only reachable
    /// through `faultinject`; the real [`crate::simd::SimdBackend`]
    /// probe always has the portable fallback), or a circuit-breaker
    /// reroute imposed via [`Supervision`].
    pub(crate) reference: bool,
    /// Circuit-breaker reroute: skip the caller's pool entirely and pack
    /// into transient buffers.
    force_transient: bool,
    /// Degraded pool submission (fault injection or an open
    /// `pool_submit` breaker): the caller drains every threaded section
    /// inline instead of submitting it to the worker pool. Correct —
    /// section bodies are slot-agnostic cursor drains — just slower.
    pub(crate) pool_inline: bool,
    /// Degradations taken, for a recording call's report.
    pub(crate) fallbacks: FallbackStats,
}

impl RunConfig {
    /// Probe the dispatch path and (for `threads > 1`) the pool-submit
    /// path, honouring any breaker reroutes carried by `sup` (a
    /// quarantined path is bypassed, not probed — the whole point of the
    /// quarantine is not to touch it). Faults observed here are reported
    /// into `sup` for the engine's breaker accounting.
    pub(crate) fn probe(sup: &Supervision, threads: usize) -> Result<RunConfig, GemmError> {
        let mut cfg = RunConfig {
            reference: false,
            force_transient: sup.force_transient,
            pool_inline: false,
            fallbacks: FallbackStats::default(),
        };
        if sup.force_reference {
            cfg.reference = true;
            cfg.fallbacks.breaker_reroutes += 1;
        } else {
            match probe_contained(FaultSite::KernelDispatch) {
                // `Stall` is only meaningful at the heartbeat site,
                // `Corrupt` only at the compute site.
                Ok(Probe::Ok) | Ok(Probe::Stall(_)) | Ok(Probe::Corrupt { .. }) => {}
                Ok(Probe::Degrade) | Ok(Probe::Fail) => {
                    // Degrade *and* Fail both land on the scalar path: a
                    // kernel backend that cannot be selected still has a
                    // correct reference implementation, so dispatch never
                    // needs to fail the whole GEMM.
                    sup.observe_fault(BreakerPath::SimdDispatch);
                    cfg.reference = true;
                    cfg.fallbacks.scalar_kernels += 1;
                }
                Err(e) => {
                    sup.observe_fault(BreakerPath::SimdDispatch);
                    return Err(e);
                }
            }
        }
        if sup.force_transient {
            cfg.fallbacks.breaker_reroutes += 1;
        }
        // The pool-submit gate only exists on calls that would actually
        // submit: single-threaded runs drain inline by construction.
        if threads > 1 {
            if sup.force_inline {
                cfg.pool_inline = true;
                cfg.fallbacks.breaker_reroutes += 1;
            } else {
                match probe_contained(FaultSite::PoolSubmit) {
                    Ok(Probe::Ok) | Ok(Probe::Stall(_)) | Ok(Probe::Corrupt { .. }) => {}
                    Ok(Probe::Degrade) => {
                        sup.observe_fault(BreakerPath::PoolSubmit);
                        cfg.pool_inline = true;
                        cfg.fallbacks.inline_drains += 1;
                    }
                    Ok(Probe::Fail) => {
                        sup.observe_fault(BreakerPath::PoolSubmit);
                        return Err(GemmError::AllocFailed { phase: "pool submit" });
                    }
                    Err(e) => {
                        sup.observe_fault(BreakerPath::PoolSubmit);
                        return Err(e);
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// Choose the packing pool for one pack phase: the caller's pool, or
    /// a transient one when the pool allocation is poisoned (`Degrade`)
    /// or quarantined by the breaker. `Fail` simulates an unrecoverable
    /// allocation failure.
    fn pack_pool<'a>(
        &mut self,
        caller: &'a PanelPool,
        transient: &'a PanelPool,
        phase: &'static str,
        sup: &Supervision,
    ) -> Result<&'a PanelPool, GemmError> {
        if self.force_transient {
            return Ok(transient);
        }
        match probe_contained(FaultSite::PackAlloc) {
            Ok(Probe::Ok) | Ok(Probe::Stall(_)) | Ok(Probe::Corrupt { .. }) => Ok(caller),
            Ok(Probe::Degrade) => {
                sup.observe_fault(BreakerPath::PoolAlloc);
                self.fallbacks.pool_packs += 1;
                Ok(transient)
            }
            Ok(Probe::Fail) => {
                sup.observe_fault(BreakerPath::PoolAlloc);
                Err(GemmError::AllocFailed { phase })
            }
            Err(e) => {
                sup.observe_fault(BreakerPath::PoolAlloc);
                Err(e)
            }
        }
    }
}

/// One worker's block-claim checkpoint: consult the heartbeat fault site
/// (a `Stall` wedges here — a worker stuck *before* finishing its
/// claimed block, which is exactly what the watchdog exists to catch —
/// bounded by the stall's cap and broken early by supervision), then
/// bump the worker's heartbeat counter. Returns `false` when the run
/// was cancelled while wedged: the caller must skip the claimed block
/// and stop (the block was never executed, per the partial-`C`
/// contract).
#[inline]
fn heartbeat(monitor: &RunMonitor, t: usize) -> bool {
    if let Probe::Stall(cap_ms) = faultinject::probe(FaultSite::WorkerHeartbeat) {
        let t0 = std::time::Instant::now();
        let cap = std::time::Duration::from_millis(cap_ms);
        while t0.elapsed() < cap && !monitor.should_stop() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    monitor.beat(t);
    !monitor.should_stop()
}

/// A writable view of one `C` micro-tile: base pointer at the tile's
/// `(0,0)` element plus the row stride.
///
/// # Safety contract
/// The creator guarantees that the cells `{(i, j) : i < eff_rows, j <
/// eff_cols}` are not accessed by any other thread for the lifetime of the
/// handle. This holds in the block driver because C blocks are disjoint
/// and K is not split across threads (§V-C).
#[derive(Clone, Copy)]
pub struct CTile {
    ptr: *mut f32,
    ldc: usize,
    /// Elements from `ptr` to the end of the underlying allocation
    /// (bounds-checked in debug builds).
    len: usize,
}

unsafe impl Send for CTile {}
// SAFETY: a shared `&CTile` (captured by a pool-section body) only hands
// out cells under the type-level disjointness contract above — the same
// argument that justifies `Send`; the handle itself is immutable.
unsafe impl Sync for CTile {}

impl CTile {
    /// # Safety
    /// See the type-level contract. `len` is the number of elements from
    /// `ptr` to the end of the underlying allocation.
    pub unsafe fn new(ptr: *mut f32, ldc: usize, len: usize) -> Self {
        CTile { ptr, ldc, len }
    }

    /// Narrow the handle to the sub-tile at `(row, col)`.
    ///
    /// # Safety
    /// The sub-tile's accessed cells must stay within the original
    /// allocation and this thread's ownership region.
    pub unsafe fn offset(&self, row: usize, col: usize) -> CTile {
        let off = row * self.ldc + col;
        debug_assert!(off <= self.len, "CTile offset {off} beyond len {}", self.len);
        CTile { ptr: unsafe { self.ptr.add(off) }, ldc: self.ldc, len: self.len - off }
    }

    /// Pointer to cell `(i, j)` with room for a vector of [`LANES`]
    /// elements — the vector kernels' load/store access.
    ///
    /// # Safety
    /// The 4 cells starting at `(i, j)` must be inside this handle's
    /// allocation and owned by the calling thread.
    #[inline(always)]
    pub(crate) unsafe fn lanes_ptr(&self, i: usize, j: usize) -> *mut f32 {
        debug_assert!(
            i * self.ldc + j + crate::simd::LANES <= self.len,
            "CTile vector access ({i},{j}) ldc={} beyond len {}",
            self.ldc,
            self.len
        );
        self.ptr.add(i * self.ldc + j)
    }

    #[inline(always)]
    pub(crate) fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(
            i * self.ldc + j < self.len,
            "CTile read ({i},{j}) ldc={} beyond len {}",
            self.ldc,
            self.len
        );
        unsafe { *self.ptr.add(i * self.ldc + j) }
    }

    #[inline(always)]
    pub(crate) fn set(&self, i: usize, j: usize, v: f32) {
        debug_assert!(
            i * self.ldc + j < self.len,
            "CTile write ({i},{j}) ldc={} beyond len {}",
            self.ldc,
            self.len
        );
        unsafe { *self.ptr.add(i * self.ldc + j) = v }
    }
}

/// The scalar reference micro-kernel:
/// `C[0..eff_rows][0..eff_cols] (+)= A[0..MR][0..kc] · B[0..kc][0..NR]`.
///
/// `a` is `MR` rows with leading dimension `lda`; `b` is `kc` rows with
/// leading dimension `ldb` (and at least `NR` readable elements per row,
/// per the packing contract).
///
/// This is the seed's auto-vectorized triple loop, kept verbatim as the
/// semantics the SIMD kernels ([`crate::kernels`]) are verified against:
/// per accumulator it sums `a[i][p]·b[p][j]` in ascending-`p` order with
/// fused multiply-adds, so fused vector backends must match it
/// **bit-for-bit** and unfused ones within rounding tolerance.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn micro_kernel_ref<const MR: usize, const NR: usize>(
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
    let mut acc = [[0.0f32; NR]; MR];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate().take(eff_rows) {
            for (j, v) in row.iter_mut().enumerate().take(eff_cols) {
                *v = c.get(i, j);
            }
        }
    }
    for p in 0..kc {
        let brow = &b[p * ldb..p * ldb + NR];
        for (i, row) in acc.iter_mut().enumerate() {
            let aip = a[i * lda + p];
            for (j, v) in row.iter_mut().enumerate() {
                *v = brow[j].mul_add(aip, *v);
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(eff_rows) {
        for (j, v) in row.iter().enumerate().take(eff_cols) {
            c.set(i, j, *v);
        }
    }
}

/// Largest tile the dynamic fallback computes in one piece — the max
/// feasible Table II tile (`m_r ≤ 8`, `n̄_r ≤ 7` ⇒ `n_r ≤ 28` lanes).
const DYN_MAX_MR: usize = 8;
const DYN_MAX_NR: usize = 28;

/// Fallback kernel for shapes outside the monomorphized menu (e.g. wide
/// SVE tiles executed natively).
///
/// The accumulator is a fixed-size stack buffer bounded by the max
/// feasible tile (8×28) — no allocation per call. Wider/taller requests
/// (SVE tiles reach 8×112) are computed in independent 8×28 sub-tiles of
/// `C`, which is exact: sub-tiles of the register tile share no cells
/// and each still sums its `k` products in ascending order.
#[allow(clippy::too_many_arguments)]
fn micro_kernel_dyn(
    mr: usize,
    nr: usize,
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
    if mr > DYN_MAX_MR || nr > DYN_MAX_NR {
        dyn_chunks(mr, nr, eff_rows, eff_cols, |r0, c0, sub_mr, sub_nr, sub_er, sub_ec| {
            // SAFETY: the sub-tile stays inside this placement's
            // effective region, owned by the calling thread.
            let sub_c = unsafe { c.offset(r0, c0) };
            micro_kernel_dyn(
                sub_mr,
                sub_nr,
                kc,
                &a[r0 * lda..],
                lda,
                &b[c0..],
                ldb,
                sub_c,
                accumulate,
                sub_er,
                sub_ec,
            );
        });
        return;
    }
    let mut acc = [[0.0f32; DYN_MAX_NR]; DYN_MAX_MR];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate().take(eff_rows) {
            for (j, v) in row.iter_mut().enumerate().take(eff_cols) {
                *v = c.get(i, j);
            }
        }
    }
    for p in 0..kc {
        let brow = &b[p * ldb..p * ldb + nr];
        for (i, row) in acc.iter_mut().enumerate().take(mr) {
            let aip = a[i * lda + p];
            for (j, v) in row.iter_mut().take(nr).enumerate() {
                *v += aip * brow[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(eff_rows) {
        for (j, v) in row.iter().enumerate().take(eff_cols) {
            c.set(i, j, *v);
        }
    }
}

/// Split an oversized `mr × nr` request into the independent
/// `DYN_MAX_MR × DYN_MAX_NR` sub-tiles [`micro_kernel_dyn`] computes,
/// calling `f(r0, c0, sub_mr, sub_nr, sub_eff_rows, sub_eff_cols)` for
/// each one that overlaps the `eff_rows × eff_cols` region.
fn dyn_chunks(
    mr: usize,
    nr: usize,
    eff_rows: usize,
    eff_cols: usize,
    mut f: impl FnMut(usize, usize, usize, usize, usize, usize),
) {
    for r0 in (0..mr).step_by(DYN_MAX_MR) {
        let sub_mr = (mr - r0).min(DYN_MAX_MR);
        let sub_er = eff_rows.saturating_sub(r0).min(sub_mr);
        for c0 in (0..nr).step_by(DYN_MAX_NR) {
            let sub_nr = (nr - c0).min(DYN_MAX_NR);
            let sub_ec = eff_cols.saturating_sub(c0).min(sub_nr);
            if sub_er > 0 && sub_ec > 0 {
                f(r0, c0, sub_mr, sub_nr, sub_er, sub_ec);
            }
        }
    }
}

/// The register-tile shapes [`micro_kernel_dyn`] executes for one
/// `mr × nr` request: the request itself, or its chunks when oversized.
fn dyn_leaves(
    mr: usize,
    nr: usize,
    eff_rows: usize,
    eff_cols: usize,
    emit: &mut dyn FnMut(usize, usize),
) {
    if mr > DYN_MAX_MR || nr > DYN_MAX_NR {
        dyn_chunks(mr, nr, eff_rows, eff_cols, |_, _, sub_mr, sub_nr, _, _| emit(sub_mr, sub_nr));
    } else {
        emit(mr, nr);
    }
}

/// The monomorphized `(m_r, n_r)` kernel menu — the feasible Table II
/// shapes (`m_r ≤ 8`, `n̄_r ≤ 7`). Shapes outside this list fall back to
/// [`micro_kernel_dyn`]. Exposed so benches and tests can sweep exactly
/// the dispatched menu.
pub const KERNEL_MENU: &[(usize, usize)] = &[
    (1, 4),
    (1, 8),
    (1, 12),
    (1, 16),
    (1, 20),
    (1, 24),
    (1, 28),
    (2, 4),
    (2, 8),
    (2, 12),
    (2, 16),
    (2, 20),
    (2, 24),
    (2, 28),
    (3, 4),
    (3, 8),
    (3, 12),
    (3, 16),
    (3, 20),
    (3, 24),
    (3, 28),
    (4, 4),
    (4, 8),
    (4, 12),
    (4, 16),
    (4, 20),
    (5, 4),
    (5, 8),
    (5, 12),
    (5, 16),
    (6, 4),
    (6, 8),
    (6, 12),
    (7, 4),
    (7, 8),
    (7, 12),
    (8, 4),
    (8, 8),
];

/// One menu entry, monomorphized over `(MR, NRV, NR)`: the SIMD kernel
/// ([`crate::kernels::micro_kernel_simd`]) or the scalar reference
/// ([`micro_kernel_ref`]), selected by `reference`. Both are reached
/// through the same table so benches compare like against like.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn exec_tile<const MR: usize, const NRV: usize, const NR: usize>(
    reference: bool,
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
    if reference {
        micro_kernel_ref::<MR, NR>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols);
    } else {
        crate::kernels::micro_kernel_simd::<MR, NRV>(
            kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols,
        );
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn run_placement_impl(
    reference: bool,
    p: &TilePlacement,
    kc: usize,
    a_panel: &[f32],
    lda: usize,
    b_panel: &[f32],
    ldb: usize,
    c_block: CTile,
    accumulate: bool,
) {
    let a = &a_panel[p.row * lda..];
    let b = &b_panel[p.col..];
    // SAFETY: the tile handle narrows the block handle; tiles within a
    // validated plan are disjoint.
    let c = unsafe { c_block.offset(p.row, p.col) };
    let nrv = p.tile.nr / 4;
    macro_rules! dispatch {
        ($(($mr:literal, $nrv:literal, $nr:literal)),* $(,)?) => {
            match (p.tile.mr, nrv) {
                $(
                    ($mr, $nrv) => exec_tile::<$mr, $nrv, $nr>(
                        reference, kc, a, lda, b, ldb, c, accumulate, p.eff_rows, p.eff_cols,
                    ),
                )*
                _ => micro_kernel_dyn(
                    p.tile.mr, p.tile.nr, kc, a, lda, b, ldb, c, accumulate,
                    p.eff_rows, p.eff_cols,
                ),
            }
        };
    }
    // The Table II menu (feasible m_r ≤ 8, n̄_r ≤ 7 shapes) — keep in
    // sync with [`KERNEL_MENU`] (pinned by the `dispatch_menu` test).
    dispatch!(
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
}

/// Dispatch a placement to the right monomorphized SIMD kernel. `a`/`b`
/// are the packed block panels; `c` is a handle at the *block's* (0,0)
/// with the full matrix stride.
#[allow(clippy::too_many_arguments)]
pub fn run_placement(
    p: &TilePlacement,
    kc: usize,
    a_panel: &[f32],
    lda: usize,
    b_panel: &[f32],
    ldb: usize,
    c_block: CTile,
    accumulate: bool,
) {
    run_placement_impl(false, p, kc, a_panel, lda, b_panel, ldb, c_block, accumulate);
}

/// [`run_placement`] routed to the scalar reference kernels — the
/// benchmarking baseline and correctness oracle for the SIMD menu.
#[allow(clippy::too_many_arguments)]
pub fn run_placement_ref(
    p: &TilePlacement,
    kc: usize,
    a_panel: &[f32],
    lda: usize,
    b_panel: &[f32],
    ldb: usize,
    c_block: CTile,
    accumulate: bool,
) {
    run_placement_impl(true, p, kc, a_panel, lda, b_panel, ldb, c_block, accumulate);
}

/// Is `(mr, nr)` one of the monomorphized menu shapes (executed by the
/// fused SIMD kernels / the fused scalar reference)? Off-menu shapes run
/// on the unfused [`micro_kernel_dyn`] in both the packed and unpacked
/// paths, so accumulation chains stay consistent per routing.
#[inline]
fn is_menu_tile(mr: usize, nr: usize) -> bool {
    KERNEL_MENU.contains(&(mr, nr))
}

/// Bounds-exact fused scalar kernel for *unpacked* edge tiles: reads only
/// the `eff_rows × eff_cols` cells that actually exist (a packed panel
/// would be padded here), accumulating each stored `C` cell in
/// ascending-`k` order with fused multiply-adds — the same chains as
/// [`micro_kernel_ref`] and the fused SIMD kernels, so on fused backends
/// an unpacked edge tile is bit-identical to its packed counterpart.
#[allow(clippy::too_many_arguments)]
fn micro_kernel_edge(
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
    debug_assert!(eff_rows <= DYN_MAX_MR && eff_cols <= DYN_MAX_NR);
    let mut acc = [[0.0f32; DYN_MAX_NR]; DYN_MAX_MR];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate().take(eff_rows) {
            for (j, v) in row.iter_mut().enumerate().take(eff_cols) {
                *v = c.get(i, j);
            }
        }
    }
    for p in 0..kc {
        let brow = &b[p * ldb..p * ldb + eff_cols];
        for (i, row) in acc.iter_mut().enumerate().take(eff_rows) {
            let aip = a[i * lda + p];
            for (j, v) in row.iter_mut().enumerate().take(eff_cols) {
                *v = brow[j].mul_add(aip, *v);
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(eff_rows) {
        for (j, v) in row.iter().enumerate().take(eff_cols) {
            c.set(i, j, *v);
        }
    }
}

/// Dispatch one placement against [`Operand`] views of A and B — the
/// operand-aware twin of [`run_placement_impl`].
///
/// A placement whose *full* tile stays inside both operands' valid
/// extents runs on the ordinary menu dispatch (packed panels always do:
/// padding makes every full-tile read legal; unpacked operands do
/// whenever the tile does not overhang the matrix edge — for A that is
/// every placement, since DMT tiles never overhang M, and for B every
/// placement except the lane-rounded right edge when `n_c` is not a
/// multiple of σ_lane). An overhanging placement is rerouted to a
/// bounds-exact kernel over its effective region: the fused scalar edge
/// kernel for menu tiles, [`micro_kernel_dyn`] clipped to
/// `eff_rows × eff_cols` for off-menu tiles — preserving each path's
/// accumulation chains, so stored `C` cells match the packed routing
/// bit-for-bit on fused backends.
pub(crate) fn run_placement_operands(
    reference: bool,
    p: &TilePlacement,
    kc: usize,
    a: &Operand<'_>,
    b: &Operand<'_>,
    c_block: CTile,
    accumulate: bool,
) {
    let full_tile_safe = p.row + p.tile.mr <= a.avail() && p.col + p.tile.nr <= b.avail();
    if full_tile_safe {
        run_placement_impl(
            reference,
            p,
            kc,
            a.data(),
            a.ld(),
            b.data(),
            b.ld(),
            c_block,
            accumulate,
        );
        return;
    }
    let a_sl = &a.data()[p.row * a.ld()..];
    let b_sl = &b.data()[p.col..];
    // SAFETY: the tile handle narrows the block handle; tiles within a
    // validated plan are disjoint.
    let c = unsafe { c_block.offset(p.row, p.col) };
    if is_menu_tile(p.tile.mr, p.tile.nr) {
        micro_kernel_edge(
            kc,
            a_sl,
            a.ld(),
            b_sl,
            b.ld(),
            c,
            accumulate,
            p.eff_rows.min(a.avail().saturating_sub(p.row)),
            p.eff_cols.min(b.avail().saturating_sub(p.col)),
        );
    } else {
        let er = p.eff_rows.min(a.avail().saturating_sub(p.row));
        let ec = p.eff_cols.min(b.avail().saturating_sub(p.col));
        micro_kernel_dyn(er, ec, kc, a_sl, a.ld(), b_sl, b.ld(), c, accumulate, er, ec);
    }
}

/// The register-tile shapes one placement dispatches against operands
/// with `a_avail` rows and `b_avail` columns readable from the block
/// origin (`usize::MAX` for packed panels), resolved exactly as
/// [`run_placement_operands`] routes it.
fn placement_leaves(
    p: &TilePlacement,
    a_avail: usize,
    b_avail: usize,
    emit: &mut dyn FnMut(usize, usize),
) {
    let full_tile_safe = p.row + p.tile.mr <= a_avail && p.col + p.tile.nr <= b_avail;
    if is_menu_tile(p.tile.mr, p.tile.nr) {
        emit(p.tile.mr, p.tile.nr);
    } else if full_tile_safe {
        dyn_leaves(p.tile.mr, p.tile.nr, p.eff_rows, p.eff_cols, emit);
    } else {
        let er = p.eff_rows.min(a_avail.saturating_sub(p.row));
        let ec = p.eff_cols.min(b_avail.saturating_sub(p.col));
        dyn_leaves(er, ec, er, ec, emit);
    }
}

/// The kernel-shape histogram of a completed block-driver run: every
/// placement of the block plan once per `(block, k-slice)`, against the
/// operand extents the run's routing gave each block.
fn block_tiles(plan: &ExecutionPlan, a_packed: bool, b_packed: bool) -> Vec<TileCount> {
    let s = &plan.schedule;
    let (tm, tn, tk) = plan.grid();
    let mut dispatches = Vec::new();
    for bi in 0..tm {
        let a_avail = if a_packed { usize::MAX } else { s.m - bi * s.mc };
        for bj in 0..tn {
            let b_avail = if b_packed { usize::MAX } else { s.n - bj * s.nc };
            for p in &plan.block_plan.placements {
                placement_leaves(p, a_avail, b_avail, &mut |mr, nr| {
                    dispatches.push((mr, nr, tk as u64))
                });
            }
        }
    }
    TileCount::histogram(dispatches)
}

/// The A-operand source for the cached block driver: packed per-`(bi,
/// kb)` panels, or the caller's row-major matrix streamed directly
/// (packing elided by the input-aware dispatch layer).
enum ASource<'x> {
    Packed(&'x [PackedBlock]),
    Unpacked(&'x [f32]),
}

impl ASource<'_> {
    /// The operand view for K-slice `kb` of row block `bi`.
    #[inline]
    fn operand(
        &self,
        s: &autogemm_tuner::Schedule,
        bi: usize,
        kb: usize,
        tk: usize,
    ) -> Operand<'_> {
        match self {
            ASource::Packed(panels) => {
                let pa = &panels[bi * tk + kb];
                Operand::Packed { data: &pa.data, ld: pa.ld }
            }
            ASource::Unpacked(a) => Operand::Unpacked {
                data: &a[bi * s.mc * s.k + kb * s.kc..],
                ld: s.k,
                avail: s.m - bi * s.mc,
            },
        }
    }
}

/// The B-operand source for the cached block driver: packed panels
/// indexed `[kb * tn + bj]` (packed by this call, or borrowed zero-copy
/// from an offline [`PackedB`]), or the caller's matrix streamed strided.
enum BSource<'x> {
    Packed(&'x [PackedBlock]),
    Unpacked(&'x [f32]),
}

impl BSource<'_> {
    /// The operand view for K-slice `kb` of column block `bj`.
    #[inline]
    fn operand(
        &self,
        s: &autogemm_tuner::Schedule,
        kb: usize,
        bj: usize,
        tn: usize,
    ) -> Operand<'_> {
        match self {
            BSource::Packed(panels) => {
                let pb = &panels[kb * tn + bj];
                Operand::Packed { data: &pb.data, ld: pb.ld }
            }
            BSource::Unpacked(b) => Operand::Unpacked {
                data: &b[kb * s.kc * s.n + bj * s.nc..],
                ld: s.n,
                avail: s.n - bj * s.nc,
            },
        }
    }
}

/// How the caller holds `B`.
#[derive(Clone, Copy)]
enum BInput<'x> {
    /// A matrix: row-major `K × N` (`Op::NoTrans`) or its transpose
    /// stored `N × K` (`Op::Trans`).
    Matrix(Op, &'x [f32]),
    /// Packed offline for the plan ([`PackedB`]), read zero-copy.
    Prepacked(&'x PackedB),
}

/// The operands of one driver call, as the caller holds them: `A`
/// row-major or transposed; `B` row-major, transposed or packed offline;
/// and whether the call accumulates into `C`.
///
/// The storage decides the packing, not a setting: a transposed operand
/// is always packed (through the transposing pack), a prepacked `B` is
/// never packed, and a row-major operand follows the plan's
/// [`OperandRouting`].
#[derive(Clone, Copy)]
pub struct Operands<'x> {
    a: &'x [f32],
    op_a: Op,
    b: BInput<'x>,
    accumulate: bool,
}

impl<'x> Operands<'x> {
    /// `A · B`: `a` row-major `M × K`, `b` row-major `K × N`.
    pub fn new(a: &'x [f32], b: &'x [f32]) -> Self {
        Operands::op(Op::NoTrans, a, Op::NoTrans, b)
    }

    /// `op(A) · op(B)`: with `Op::Trans`, `a` is stored `K × M` and/or
    /// `b` is stored `N × K`.
    pub fn op(op_a: Op, a: &'x [f32], op_b: Op, b: &'x [f32]) -> Self {
        Operands { a, op_a, b: BInput::Matrix(op_b, b), accumulate: false }
    }

    /// `A · B` with `B` packed offline for the plan.
    pub fn prepacked(a: &'x [f32], b: &'x PackedB) -> Self {
        Operands { a, op_a: Op::NoTrans, b: BInput::Prepacked(b), accumulate: false }
    }

    /// Accumulate into `C` (`C += op(A)·op(B)`, what a non-zero BLAS `β`
    /// needs after its scaling pass): the first K-slice adds to `C`
    /// instead of overwriting it, and a `k == 0` call leaves `C` as it is.
    pub fn accumulate(self) -> Self {
        Operands { accumulate: true, ..self }
    }

    /// Validate the operands against the plan's shape: a prepacked `B`
    /// must come from this plan, and every slice must hold its operand.
    fn check(&self, plan: &ExecutionPlan, c: &[f32]) -> Result<(), GemmError> {
        let s = &plan.schedule;
        if let BInput::Prepacked(pb) = self.b {
            pb.check(plan)?;
        }
        error::check_len(error::Operand::A, "M*K", self.a.len(), s.m, s.k)?;
        if let BInput::Matrix(_, b) = self.b {
            error::check_len(error::Operand::B, "K*N", b.len(), s.k, s.n)?;
        }
        error::check_len(error::Operand::C, "M*N", c.len(), s.m, s.n)
    }

    /// Whether this call packs A and B panels under `routing`.
    fn packs(&self, routing: OperandRouting) -> (bool, bool) {
        let pack_b = match self.b {
            BInput::Matrix(op, _) => op == Op::Trans || routing.pack_b,
            BInput::Prepacked(_) => false,
        };
        (self.op_a == Op::Trans || routing.pack_a, pack_b)
    }
}

/// Execute a plan natively: `C (M×N) = A (M×K) · B (K×N)` row-major,
/// using `threads` worker threads over the cache-block grid.
///
/// Uses a transient panel pool; prefer [`try_gemm_with_plan_pooled`] (or
/// the engine front door, which holds a persistent pool) when calling
/// repeatedly.
///
/// Panics with the structured [`GemmError`] message on invalid operands
/// or a contained worker panic; [`try_gemm_with_plan_pooled`] is the
/// fallible form.
pub fn gemm_with_plan(plan: &ExecutionPlan, a: &[f32], b: &[f32], c: &mut [f32], threads: usize) {
    if let Err(e) = try_gemm_with_plan_pooled(plan, a, b, c, threads, &PanelPool::new()) {
        panic!("{e}");
    }
}

/// Fallible [`gemm_with_plan`] with an explicit panel-buffer pool: panel
/// allocations made by this call are recycled through `pool`, so repeated
/// calls through the same pool allocate nothing after warm-up. Operands
/// are validated against the plan's shape before any work (length
/// mismatches and size overflows leave `C` untouched); `m == 0 || n ==
/// 0` returns with `C` untouched, `k == 0` writes the empty sum (`C =
/// 0`); worker panics are contained and reported as
/// [`GemmError::WorkerPanicked`].
pub fn try_gemm_with_plan_pooled(
    plan: &ExecutionPlan,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
    pool: &PanelPool,
) -> Result<(), GemmError> {
    let ops = Operands::new(a, b);
    try_gemm_with_plan_supervised(plan, ops, c, threads, pool, &Supervision::none(), false)
        .map(|_| ())
}

/// The cached block driver: `C (+)= op(A) · op(B)` for the operands
/// `ops` describes, under a [`Supervision`] bundle — deadline/cancel
/// checks at panel and block boundaries, per-worker heartbeats for the
/// opt-in watchdog, and any circuit-breaker reroutes the bundle carries.
/// With `Supervision::none()` the monitor is passive (one predictable
/// branch per checkpoint, no clock reads).
///
/// Every call probes the same fault sites whatever its operands:
/// `KernelDispatch` (and `PoolSubmit` when threaded) at entry, then
/// `PackAlloc` plus a cancellation checkpoint at the start of each pack
/// phase, including a phase with nothing to pack (an operand the plan's
/// routing elides, or a prepacked `B`).
///
/// With `record == false` the driver takes no lock, allocates no profile
/// and reads no telemetry clock, and returns `Ok(None)`. With `record`
/// it returns the call's [`GemmReport`]: the phase breakdown (pack-A,
/// pack-B, kernel, drain), the pack counts/bytes the pack runners
/// measured, per-thread busy profiles from the work queue, the
/// kernel-shape histogram of the plan under the run's operand routing
/// and any degradations taken ([`GemmReport::fallbacks`]). Degenerate
/// shapes report the shape with no thread profiles. Recording never
/// changes the numeric path: the same panels are packed and accumulated
/// in the same order, so `C` is bit-identical either way. The engine
/// stamps the `health`, `dispatch` and `integrity` sections after the
/// call.
///
/// On [`GemmError::Cancelled`]/[`GemmError::Stalled`] every panel buffer
/// has been released back to its pool and the plan/pool/engine are
/// immediately reusable; `C` follows the [`crate::error`] partial-write
/// contract (untouched unless the kernel phase had started).
pub fn try_gemm_with_plan_supervised(
    plan: &ExecutionPlan,
    ops: Operands<'_>,
    c: &mut [f32],
    threads: usize,
    pool: &PanelPool,
    sup: &Supervision,
    record: bool,
) -> Result<Option<GemmReport>, GemmError> {
    let s = &plan.schedule;
    let (m, n, k) = (s.m, s.n, s.k);
    ops.check(plan, c)?;
    let shape = || GemmReport { m, n, k, mc: s.mc, nc: s.nc, kc: s.kc, ..GemmReport::default() };
    if m == 0 || n == 0 || k == 0 {
        // `k == 0` writes the empty sum (accumulating, it adds nothing);
        // with `m` or `n` zero `C` is empty and the fill is a no-op.
        if !ops.accumulate {
            c.fill(0.0);
        }
        return Ok(record.then(shape));
    }
    let (tm, tn, tk) = plan.grid();
    let (pack_a, pack_b) = ops.packs(plan.routing);
    let sl = plan.sigma_lane;
    let mut cfg = RunConfig::probe(sup, threads)?;
    let reference = cfg.reference;
    let exec = Exec::new(sup, cfg.pool_inline);
    let transient = PanelPool::new();
    let t0 = record.then(Stamp::now);

    let monitor = RunMonitor::new(sup, threads.max(1));
    let watchdog = exec.runtime().watch(&monitor);
    // One pack phase: `count` panels of `len` elements from `pool`, each
    // filled by `pack(idx, panel)`. A phase with nothing to pack still
    // runs its cancellation checkpoint (so a cancelled call reports the
    // same `phase` either way); its caller has already run the pool
    // probe, so fault injection and degrade accounting see the same
    // sites too. On error the panels go back to `pool` first.
    type Packer<'f> = &'f (dyn Fn(usize, &mut PackedBlock) + Sync);
    let pack_phase = |on: bool,
                      pool: &PanelPool,
                      phase: &'static str,
                      count: usize,
                      len: usize,
                      pack: Packer<'_>|
     -> Result<(Option<Vec<PackedBlock>>, PackStats), GemmError> {
        if !on {
            // Poll before resolving: `outcome` reports a cancellation
            // only once `should_stop` has latched it (the packed path
            // polls inside its slot loop).
            let _ = monitor.should_stop();
            monitor.outcome(phase, count)?;
            return Ok((None, PackStats::default()));
        }
        let mut panels = pool.acquire_blocks(count, len);
        match try_pack_panels_parallel(&mut panels, threads, &exec, &monitor, phase, record, pack) {
            Ok(packs) => Ok((Some(panels), packs)),
            Err(e) => {
                pool.release_blocks(panels);
                Err(e)
            }
        }
    };
    let pack_a_panel = |idx: usize, p: &mut PackedBlock| {
        let (row0, col0) = (idx / tk * s.mc, idx % tk * s.kc);
        match ops.op_a {
            Op::NoTrans => pack_a_into(p, ops.a, k, row0, col0, s.mc, s.kc, sl),
            Op::Trans => pack_a_t_into(p, ops.a, m, row0, col0, s.mc, s.kc, sl),
        }
    };
    let pack_b_panel = |idx: usize, p: &mut PackedBlock| {
        let (row0, col0) = (idx / tn * s.kc, idx % tn * s.nc);
        match ops.b {
            BInput::Matrix(Op::NoTrans, b) => pack_b_into(p, b, n, row0, col0, s.kc, s.nc, sl),
            BInput::Matrix(Op::Trans, b) => pack_b_t_into(p, b, k, row0, col0, s.kc, s.nc, sl),
            // Never packed: `packs` keeps a prepacked phase empty.
            BInput::Prepacked(_) => {}
        }
    };
    // All phases run inside this closure so every early return still
    // flows through `monitor.finish()` before the watch registration is
    // dropped (the hub never samples a finished run).
    let result = (|| {
        let pa0 = record.then(Stamp::now);
        monitor.begin_phase();
        let a_pool = cfg.pack_pool(pool, &transient, "pack A", sup)?;
        let a_len = a_panel_len(s.mc, s.kc, sl);
        let (a_panels, mut packs) =
            pack_phase(pack_a, a_pool, "pack A", tm * tk, a_len, &pack_a_panel)?;
        let pack_a_t = pa0.map(Stamp::elapsed);
        let release_a = |panels: Option<Vec<PackedBlock>>| {
            if let Some(panels) = panels {
                a_pool.release_blocks(panels);
            }
        };
        let pb0 = record.then(Stamp::now);
        let b_len = b_panel_len(s.kc, s.nc, sl);
        let b_phase = cfg.pack_pool(pool, &transient, "pack B", sup).and_then(|b_pool| {
            monitor.begin_phase();
            let phase = pack_phase(pack_b, b_pool, "pack B", tk * tn, b_len, &pack_b_panel)?;
            Ok((b_pool, phase))
        });
        let (b_pool, (b_panels, b_packs)) = match b_phase {
            Ok(phase) => phase,
            Err(e) => {
                release_a(a_panels);
                return Err(e);
            }
        };
        packs += b_packs;
        let pack_b_t = pb0.map(Stamp::elapsed);

        let a_src = match &a_panels {
            Some(panels) => ASource::Packed(panels),
            None => ASource::Unpacked(ops.a),
        };
        let b_src = match (&b_panels, ops.b) {
            (Some(panels), _) => BSource::Packed(panels),
            (None, BInput::Prepacked(pb)) => BSource::Packed(pb.panels()),
            (None, BInput::Matrix(_, b)) => BSource::Unpacked(b),
        };
        monitor.begin_phase();
        // Drain the `σ_order`-sorted block list through `try_drain`'s
        // shared cursor: threads that land on cheap edge blocks pull
        // more work instead of idling behind a static stride.
        let blocks = block_visit_order(&s.order, tm, tn);
        // SAFETY: each (bi, bj) block is claimed by exactly one thread
        // via the cursor and the blocks partition C; CTile accesses stay
        // within a block's cells, and K is never split across threads
        // (§V-C).
        let c_root = unsafe { CTile::new(c.as_mut_ptr(), n, c.len()) };
        let run = try_drain(blocks.len(), threads, &exec, &monitor, record, |i| {
            let (bi, bj) = blocks[i];
            run_block_cached(plan, &a_src, &b_src, c_root, bi, bj, ops.accumulate, reference);
        });
        let b_packed = matches!(b_src, BSource::Packed(_));

        // Buffers go back even when the run was poisoned or cancelled: a
        // contained panic never corrupts a panel buffer (they hold plain
        // `f32`s), so the pool stays usable for the caller's next attempt.
        release_a(a_panels);
        if let Some(panels) = b_panels {
            b_pool.release_blocks(panels);
        }
        Ok((run?, packs, pack_a_t, pack_b_t, b_packed))
    })();
    monitor.finish();
    drop(watchdog);
    if matches!(result, Err(GemmError::WorkerPanicked { .. }) | Err(GemmError::Stalled { .. })) {
        sup.observe_fault(BreakerPath::ThreadedDriver);
    }
    let (section, packs, pack_a_t, pack_b_t, b_packed) = result?;
    let (Some(section), Some(t0)) = (section, t0) else { return Ok(None) };
    let phases = PhaseProfile {
        pack_a: pack_a_t.unwrap_or_default(),
        pack_b: pack_b_t.unwrap_or_default(),
        ..PhaseProfile::default()
    };
    let mut report =
        section.into_report(GemmReport { phases, packs, ..shape() }, t0, cfg.fallbacks);
    report.tiles = block_tiles(plan, pack_a, b_packed);
    Ok(Some(report))
}

/// What a recorded kernel section measured ([`try_drain`] with
/// `record`): the engaged workers' profiles sorted by slot, the
/// wall/cycle span of the whole section (the `kernel` phase) and the
/// summed per-thread drain.
pub(crate) struct SectionProfile {
    threads: Vec<ThreadProfile>,
    kernel: PhaseTimes,
    drain: PhaseTimes,
}

impl SectionProfile {
    /// Complete `report` (whose shape and pack fields the caller filled)
    /// with this section, the call's wall time since `t0`, and
    /// the degradations the run took.
    pub(crate) fn into_report(
        self,
        report: GemmReport,
        t0: Stamp,
        fallbacks: FallbackStats,
    ) -> GemmReport {
        GemmReport {
            threads: self.threads.len(),
            wall: t0.elapsed(),
            phases: PhaseProfile { kernel: self.kernel, drain: self.drain, ..report.phases },
            thread_profiles: self.threads,
            fallbacks,
            ..report
        }
    }
}

/// Drain work units `0..units` through a shared atomic cursor over up to
/// `threads` pool runners — the worker discipline every kernel section
/// shares (the block driver's cache blocks, the fast routes' row/column
/// units). Each runner probes the startup fault site, checks supervision
/// and its heartbeat before each claim, and runs under `catch_unwind`: a
/// panic poisons the section, the survivors stop claiming units and join
/// cleanly, and the first panic is reported as
/// [`GemmError::WorkerPanicked`]. Ends with the phase resolution
/// (`monitor.outcome("kernel", units)`), so an interrupted run reports
/// [`GemmError::Cancelled`]/[`GemmError::Stalled`] with `phase:
/// "kernel"`. Units write whole, so on any of these errors `C` holds a
/// mix of original and fully computed units (see [`crate::error`]).
///
/// With `record` each runner also accumulates its unit count and busy
/// time and stamps its finish, so the idle tail can be charged per
/// thread; without it no clock is read and nothing is collected.
pub(crate) fn try_drain<F>(
    units: usize,
    threads: usize,
    exec: &Exec,
    monitor: &RunMonitor,
    record: bool,
    run: F,
) -> Result<Option<SectionProfile>, GemmError>
where
    F: Fn(usize) + Sync,
{
    let threads = threads.max(1).min(units.max(1));
    let section0 = record.then(Stamp::now);
    let cursor = AtomicUsize::new(0);
    let poison = Poison::new();
    let collected = record.then(|| Mutex::new(Vec::with_capacity(threads)));
    // Slot-agnostic body: a single-threaded section runs slot 0 inline
    // on the caller; a slot never reached by a pool worker (the pool was
    // busy and slot 0 drained the cursor first) simply contributes no
    // profile — `report.threads` counts engaged slots.
    let body = |t: usize| {
        let mut prof = ThreadProfile { thread: t, ..ThreadProfile::default() };
        let run = catch_unwind(AssertUnwindSafe(|| {
            faultinject::probe(FaultSite::WorkerStartup);
            loop {
                if poison.is_poisoned() || monitor.should_stop() {
                    break;
                }
                let u = cursor.fetch_add(1, Ordering::Relaxed);
                if u >= units || !heartbeat(monitor, t) {
                    break;
                }
                let u0 = record.then(Stamp::now);
                run(u);
                if let Some(u0) = u0 {
                    prof.busy += u0.elapsed();
                    prof.blocks += 1;
                }
                monitor.note_done();
            }
        }));
        if let Err(payload) = run {
            poison.record(t, payload);
        }
        // One lock per slot lifetime — never on the unit path.
        if let Some(collected) = &collected {
            collected.lock().push((prof, Stamp::now()));
        }
    };
    exec.run_section_traced(threads, "kernel", &body);
    poison.into_result()?;
    monitor.outcome("kernel", units)?;
    let (Some(section0), Some(collected)) = (section0, collected) else { return Ok(None) };
    let mut finished: Vec<(ThreadProfile, Stamp)> = collected.into_inner();
    finished.sort_by_key(|(p, _)| p.thread);
    let end = Stamp::now();
    let mut drain = PhaseTimes::default();
    let threads = finished
        .into_iter()
        .map(|(mut p, f)| {
            p.drain = f.delta_to(end);
            drain += p.drain;
            p
        })
        .collect();
    Ok(Some(SectionProfile { threads, kernel: section0.delta_to(end), drain }))
}

/// Fill `panels[idx]` via `pack(idx, &mut panels[idx])`, draining the
/// slot indices from a shared atomic cursor over up to `threads` pool
/// runners (slot-agnostic, like every pool-section body: whichever
/// runners arrive complete the phase). Small jobs stay single-threaded
/// to skip the submission overhead.
///
/// A panicking pack worker poisons the phase: the other workers stop at
/// their next slot boundary and the first panic comes back as
/// [`GemmError::WorkerPanicked`] (`C` is untouched — nothing has run
/// yet). Supervision (deadline/cancel/watchdog heartbeats) is checked at
/// the same slot boundaries; an interrupted phase reports
/// [`GemmError::Cancelled`]/[`GemmError::Stalled`] with `phase`. With
/// `record`, each runner adds the change in its thread's pack tally
/// ([`thread_pack_counts`]) to the phase total it returns; otherwise the
/// total is zero.
#[allow(clippy::too_many_arguments)]
fn try_pack_panels_parallel<F>(
    panels: &mut [PackedBlock],
    threads: usize,
    exec: &Exec,
    monitor: &RunMonitor,
    phase: &'static str,
    record: bool,
    pack: F,
) -> Result<PackStats, GemmError>
where
    F: Fn(usize, &mut PackedBlock) + Sync,
{
    let total = panels.len();
    let mut threads = threads.max(1).min(total.max(1));
    if total < 2 * threads {
        // Too few panels to pay for a submission: slot 0 runs inline.
        threads = 1;
    }
    /// Shared view of the panel slots for the cursor drain; an index is
    /// only touched by the runner that claimed it.
    struct PanelSlots {
        ptr: *mut PackedBlock,
    }
    // SAFETY: exclusive per-index access is enforced by the cursor.
    unsafe impl Sync for PanelSlots {}
    let slots = PanelSlots { ptr: panels.as_mut_ptr() };
    // Capture the wrapper by reference: edition-2021 closures would
    // otherwise capture the raw-pointer field directly, sidestepping the
    // `Sync` impl.
    let slots = &slots;
    let cursor = AtomicUsize::new(0);
    let poison = Poison::new();
    let packs = Mutex::new(PackStats::default());
    let body = |t: usize| {
        let before = record.then(thread_pack_counts);
        let run = catch_unwind(AssertUnwindSafe(|| loop {
            if poison.is_poisoned() || monitor.should_stop() {
                break;
            }
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= total {
                break;
            }
            // SAFETY: the cursor hands each index to exactly one
            // runner, so this `&mut` is exclusive; the borrow ends
            // before `run_section` returns (join-before-return).
            let p = unsafe { &mut *slots.ptr.add(idx) };
            pack(idx, p);
            monitor.beat(t);
            monitor.note_done();
        }));
        if let Err(payload) = run {
            poison.record(t, payload);
        }
        // One lock per runner lifetime — never on the panel path.
        if let Some(before) = before {
            *packs.lock() += thread_pack_counts().since(before);
        }
    };
    exec.run_section_traced(threads, phase, &body);
    poison.into_result()?;
    monitor.outcome(phase, total)?;
    Ok(packs.into_inner())
}

/// Execute all K-slices of one `C` block from cached panels
/// (single-threaded by design; `kb` ascends so the accumulation order
/// matches the per-block repacking path bit-for-bit). The first slice
/// overwrites the block unless the call `accumulate`s into `C`;
/// `reference` routes every placement to the scalar reference kernels
/// (the degraded-dispatch path).
#[allow(clippy::too_many_arguments)]
fn run_block_cached(
    plan: &ExecutionPlan,
    a_src: &ASource<'_>,
    b_src: &BSource<'_>,
    c_root: CTile,
    bi: usize,
    bj: usize,
    accumulate: bool,
    reference: bool,
) {
    let s = &plan.schedule;
    let (_, tn, tk) = plan.grid();
    // SAFETY: this thread exclusively owns the block's cells.
    let c_block = unsafe { c_root.offset(bi * s.mc, bj * s.nc) };
    for kb in 0..tk {
        let a_op = a_src.operand(s, bi, kb, tk);
        let b_op = b_src.operand(s, kb, bj, tn);
        let accumulate = accumulate || kb > 0;
        for placement in &plan.block_plan.placements {
            run_placement_operands(reference, placement, s.kc, &a_op, &b_op, c_block, accumulate);
        }
    }
    // Chaos hook: `FaultSite::KernelCompute` is probed after the block's
    // stores land, perturbing finished cells the integrity layer must
    // catch. Non-corruption actions are meaningless here and ignored
    // (Panic still propagates out of `probe` into the containment the
    // driver already has).
    if let Probe::Corrupt { elements } = faultinject::probe(FaultSite::KernelCompute) {
        let rows = s.mc.min(s.m - bi * s.mc);
        let cols = s.nc.min(s.n - bj * s.nc);
        corrupt_c_region(&c_block, rows, cols, elements, ((bi as u64) << 32) | bj as u64);
    }
}

/// Deterministically perturb up to `elements` cells of a thread-owned
/// `C` region: the [`FaultAction::CorruptOutput`](crate::faultinject)
/// payload. The perturbation is additive and large relative to the cell
/// (`v + (1 + |v|)·10³`) so a working integrity check sees a residual
/// far above any accumulation-error tolerance; cell choice hashes
/// `(salt, draw)`, so the same plan corrupts the same cells on every
/// run regardless of thread count.
pub(crate) fn corrupt_c_region(c: &CTile, rows: usize, cols: usize, elements: usize, salt: u64) {
    if rows == 0 || cols == 0 {
        return;
    }
    let cells = (rows * cols) as u64;
    for draw in 0..elements.max(1) as u64 {
        let idx = crate::verify::mix(salt ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % cells;
        let (i, j) = ((idx / cols as u64) as usize, (idx % cols as u64) as usize);
        let v = c.get(i, j);
        c.set(i, j, v + (1.0 + v.abs()) * 1.0e3);
    }
}

/// The historical per-block repacking driver, kept as the benchmarking
/// baseline for the panel cache (and as a cross-check: its results must
/// be bit-identical to [`gemm_with_plan`]). Every `(bi, bj)` block
/// re-packs its A and B panels for each K-slice — `2·tm·tn·tk` packs per
/// GEMM versus the cached driver's `(tm + tn)·tk`.
pub fn gemm_with_plan_repack(
    plan: &ExecutionPlan,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    if let Err(e) = try_gemm_with_plan_repack(plan, a, b, c, threads) {
        panic!("{e}");
    }
}

/// Fallible [`gemm_with_plan_repack`]: the same validation, degenerate
/// shapes and worker-panic containment as [`try_gemm_with_plan_pooled`]
/// (a poisoned run stops each worker at its next block boundary).
pub fn try_gemm_with_plan_repack(
    plan: &ExecutionPlan,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) -> Result<(), GemmError> {
    let s = &plan.schedule;
    let (m, n, k) = (s.m, s.n, s.k);
    error::check_operands(m, n, k, a, b, c)?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    if k == 0 {
        c.fill(0.0);
        return Ok(());
    }
    let (tm, tn, tk) = plan.grid();
    let blocks = block_visit_order(&s.order, tm, tn);
    let threads = threads.max(1).min(blocks.len().max(1));

    // SAFETY: each (bi, bj) block is handled by exactly one thread and the
    // blocks partition C; CTile accesses stay within a block's cells.
    let c_root = unsafe { CTile::new(c.as_mut_ptr(), n, c.len()) };
    if threads == 1 {
        return contain(|| {
            for &(bi, bj) in &blocks {
                run_block(plan, a, b, c_root, bi, bj, tk);
            }
        });
    }
    let exec = Exec::unsupervised();
    let cursor = AtomicUsize::new(0);
    let poison = Poison::new();
    let body = |t: usize| {
        let run = catch_unwind(AssertUnwindSafe(|| loop {
            if poison.is_poisoned() {
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(bi, bj)) = blocks.get(i) else { break };
            run_block(plan, a, b, c_root, bi, bj, tk);
        }));
        if let Err(payload) = run {
            poison.record(t, payload);
        }
    };
    exec.run_section(threads, &body);
    poison.into_result()
}

/// Visit order of the `(M_c, N_c)` block grid, following the tuned
/// `σ_order`: whichever of the two cache loops sits further out in the
/// permutation iterates slower. (The K loop always runs innermost per
/// block — a reduction cannot move without changing results, and §V-C's
/// constraint keeps it un-split anyway.)
pub fn block_visit_order(
    order: &autogemm_tuner::LoopOrder,
    tm: usize,
    tn: usize,
) -> Vec<(usize, usize)> {
    use autogemm_tuner::space::LoopIndex;
    let m_outer = order.position(LoopIndex::Mc) < order.position(LoopIndex::Nc);
    let mut blocks = Vec::with_capacity(tm * tn);
    if m_outer {
        for bi in 0..tm {
            for bj in 0..tn {
                blocks.push((bi, bj));
            }
        }
    } else {
        for bj in 0..tn {
            for bi in 0..tm {
                blocks.push((bi, bj));
            }
        }
    }
    blocks
}

/// Execute all K-slices of one `C` block, re-packing both operand panels
/// per slice (the [`gemm_with_plan_repack`] baseline; single-threaded by
/// design).
fn run_block(
    plan: &ExecutionPlan,
    a: &[f32],
    b: &[f32],
    c_root: CTile,
    bi: usize,
    bj: usize,
    tk: usize,
) {
    let s = &plan.schedule;
    let (mc, nc, kc) = (s.mc, s.nc, s.kc);
    let (n, k) = (s.n, s.k);
    let row0 = bi * mc;
    let col0 = bj * nc;
    // SAFETY: this thread exclusively owns the block's cells.
    let c_block = unsafe { c_root.offset(row0, col0) };

    for kb in 0..tk {
        let krow = kb * kc;
        // Materialize padded operand panels (the native backend always
        // packs to honour the kernels' contract; the *simulated* backend
        // charges the σ_packing-dependent costs).
        let pa = pack_a(a, k, row0, krow, mc, kc, plan.sigma_lane);
        let pb = pack_b(b, n, krow, col0, kc, nc, plan.sigma_lane);
        let accumulate = kb > 0;
        for placement in &plan.block_plan.placements {
            run_placement(placement, kc, &pa.data, pa.ld, &pb.data, pb.ld, c_block, accumulate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autogemm_arch::ChipSpec;
    use autogemm_tuner::tune;

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += aip * b[p * n + j];
                }
            }
        }
        c
    }

    fn data(m: usize, n: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
        let a = (0..m * k).map(|i| ((i * 13 + 5) % 23) as f32 - 11.0).collect();
        let b = (0..k * n).map(|i| ((i * 7 + 2) % 19) as f32 - 9.0).collect();
        (a, b)
    }

    fn check(m: usize, n: usize, k: usize, threads: usize) {
        let chip = ChipSpec::graviton2();
        let sched = tune(m, n, k, &chip);
        let plan = ExecutionPlan::from_schedule(sched, &chip);
        let (a, b) = data(m, n, k);
        let mut c = vec![0.0f32; m * n];
        gemm_with_plan(&plan, &a, &b, &mut c, threads);
        let want = naive(m, n, k, &a, &b);
        for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
            assert!(
                (got - w).abs() <= 1e-3 * w.abs().max(1.0),
                "{m}x{n}x{k} t{threads}: C[{i}] = {got} want {w}"
            );
        }
    }

    #[test]
    fn matches_naive_on_small_shapes() {
        for (m, n, k) in [(1, 4, 1), (5, 16, 8), (8, 8, 64), (26, 36, 64), (13, 20, 17)] {
            check(m, n, k, 1);
        }
    }

    #[test]
    fn matches_naive_on_irregular_shapes() {
        check(64, 196, 64, 1);
        check(31, 44, 29, 1);
    }

    #[test]
    fn multithreaded_matches_single() {
        check(64, 128, 64, 4);
        check(52, 72, 32, 3);
    }

    #[test]
    fn more_threads_than_blocks_is_safe() {
        // A grid smaller than the worker count: the queue hands every
        // block to some thread and the rest exit immediately.
        check(8, 8, 8, 16);
        check(5, 16, 8, 7);
    }

    #[test]
    fn cached_panels_bit_identical_to_repack_path() {
        let chip = ChipSpec::graviton2();
        for (m, n, k, threads) in
            [(26, 36, 64, 1), (64, 196, 64, 2), (31, 44, 29, 1), (52, 72, 32, 4), (13, 20, 17, 3)]
        {
            let sched = tune(m, n, k, &chip);
            let plan = ExecutionPlan::from_schedule(sched, &chip);
            let (a, b) = data(m, n, k);
            let mut c_cached = vec![0.0f32; m * n];
            gemm_with_plan(&plan, &a, &b, &mut c_cached, threads);
            let mut c_repack = vec![0.0f32; m * n];
            gemm_with_plan_repack(&plan, &a, &b, &mut c_repack, threads);
            assert_eq!(c_cached, c_repack, "{m}x{n}x{k} t{threads} diverged bitwise");
        }
    }

    #[test]
    fn pooled_calls_reuse_buffers_across_gemms() {
        let chip = ChipSpec::graviton2();
        let (m, n, k) = (26, 36, 64);
        let sched = tune(m, n, k, &chip);
        let plan = ExecutionPlan::from_schedule(sched, &chip);
        let (a, b) = data(m, n, k);
        let want = naive(m, n, k, &a, &b);
        let pool = crate::packing::PanelPool::new();
        let mut buffered_after_first = 0;
        for call in 0..3 {
            let mut c = vec![0.0f32; m * n];
            try_gemm_with_plan_pooled(&plan, &a, &b, &mut c, 2, &pool).expect("pooled call");
            for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
                assert!(
                    (got - w).abs() <= 1e-3 * w.abs().max(1.0),
                    "call {call}: C[{i}] = {got} want {w}"
                );
            }
            if call == 0 {
                buffered_after_first = pool.buffered();
                assert!(buffered_after_first > 0, "pool retains panel buffers");
            } else {
                assert_eq!(pool.buffered(), buffered_after_first, "steady-state pool size");
            }
        }
    }

    #[test]
    fn kernel_menu_is_the_feasible_table_ii_menu() {
        // KERNEL_MENU (and the dispatch macro that must mirror it) is
        // exactly the feasible Table II menu for σ_lane = 4.
        let want: Vec<(usize, usize)> =
            autogemm_kernelgen::tiles::table_menu(4).iter().map(|t| (t.mr, t.nr)).collect();
        let mut menu = KERNEL_MENU.to_vec();
        let mut want_sorted = want.clone();
        menu.sort_unstable();
        want_sorted.sort_unstable();
        assert_eq!(menu, want_sorted, "KERNEL_MENU diverged from tiles::table_menu(4)");
    }

    #[test]
    fn dyn_kernel_chunks_oversized_tiles() {
        // An SVE-wide 8×112 tile must agree with the naive product even
        // though it exceeds the 8×28 stack accumulator.
        let (mr, nr, kc) = (8usize, 112usize, 9usize);
        let lda = kc + 8;
        let a: Vec<f32> = (0..mr * lda).map(|i| ((i * 13 + 5) % 23) as f32 - 11.0).collect();
        let ldb = nr + 4;
        let b: Vec<f32> = (0..(kc + 2) * ldb).map(|i| ((i * 7 + 2) % 19) as f32 - 9.0).collect();
        let (eff_rows, eff_cols) = (7, 101);
        let mut c = vec![1.0f32; mr * nr];
        let tile = unsafe { CTile::new(c.as_mut_ptr(), nr, c.len()) };
        micro_kernel_dyn(mr, nr, kc, &a, lda, &b, ldb, tile, true, eff_rows, eff_cols);
        for i in 0..mr {
            for j in 0..nr {
                let want = if i < eff_rows && j < eff_cols {
                    1.0 + (0..kc).map(|p| a[i * lda + p] * b[p * ldb + j]).sum::<f32>()
                } else {
                    1.0
                };
                assert!(
                    (c[i * nr + j] - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "C[{i}][{j}] = {} want {want}",
                    c[i * nr + j]
                );
            }
        }
    }

    /// Run the supervised driver with recording on.
    fn traced(
        plan: &ExecutionPlan,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        threads: usize,
    ) -> GemmReport {
        let pool = crate::packing::PanelPool::new();
        let ops = Operands::new(a, b);
        try_gemm_with_plan_supervised(plan, ops, c, threads, &pool, &Supervision::none(), true)
            .expect("traced run")
            .expect("a recording run returns its report")
    }

    #[test]
    fn traced_driver_bit_identical_to_untraced() {
        // Recording must be a pure observer: identical pack and
        // accumulation order, so outputs match gemm_with_plan bit-for-bit
        // with recording on or off.
        let chip = ChipSpec::graviton2();
        for (m, n, k, threads) in [(26, 36, 64, 1), (64, 196, 64, 3), (13, 20, 17, 2)] {
            let sched = tune(m, n, k, &chip);
            let plan = ExecutionPlan::from_schedule(sched, &chip);
            let (a, b) = data(m, n, k);
            let mut c_plain = vec![0.0f32; m * n];
            gemm_with_plan(&plan, &a, &b, &mut c_plain, threads);
            let mut c_traced = vec![0.0f32; m * n];
            let report = traced(&plan, &a, &b, &mut c_traced, threads);
            assert_eq!(c_traced, c_plain, "{m}x{n}x{k} t{threads} traced path diverged bitwise");
            assert_eq!((report.m, report.n, report.k), (m, n, k));
            assert!(report.threads >= 1 && report.threads <= threads.max(1));
            let blocks: u64 = report.thread_profiles.iter().map(|p| p.blocks).sum();
            let (tm, tn, _) = plan.grid();
            assert_eq!(blocks as usize, tm * tn, "every grid block drained exactly once");
        }
    }

    #[test]
    fn traced_report_counts_packs_and_tiles_exactly() {
        let chip = ChipSpec::graviton2();
        let (m, n, k) = (64, 196, 64);
        let sched = tune(m, n, k, &chip);
        let plan = ExecutionPlan::from_schedule(sched, &chip);
        let (tm, tn, tk) = plan.grid();
        let (a, b) = data(m, n, k);
        let mut c = vec![0.0f32; m * n];
        let report = traced(&plan, &a, &b, &mut c, 3);

        // Panel-cache invariant: each A panel packed once (tm·tk), each B
        // panel once (tk·tn) — the pack runners' measured tallies say so.
        assert_eq!(report.packs.a_packs, (tm * tk) as u64);
        assert_eq!(report.packs.b_packs, (tk * tn) as u64);
        assert!(report.packs.a_bytes > 0 && report.packs.b_bytes > 0);

        // Histogram: one record per placement dispatch per block K-slice
        // (no oversized chunking on the σ_lane = 4 menu).
        let dispatches = (tm * tn * tk * plan.block_plan.placements.len()) as u64;
        assert_eq!(report.total_tiles(), dispatches);
        for t in &report.tiles {
            assert!(t.mr >= 1 && t.nr >= 1 && t.count > 0);
        }

        // Phases: the clock is live.
        assert!(report.wall.wall_ns > 0, "wall clock must tick");
        assert!(report.phases.kernel.wall_ns > 0, "kernel section must tick");
        assert!(report.wall.wall_ns >= report.phases.kernel.wall_ns);
        for p in &report.thread_profiles {
            assert!(p.busy_fraction(report.phases.kernel) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn dyn_leaves_count_each_chunked_subdispatch() {
        // The histogram counts the leaf shapes the dynamic kernel
        // executes: an 8×112 request chunks into four 8×28 leaves, and a
        // chunk wholly outside the effective region is never run.
        let mut leaves = Vec::new();
        dyn_leaves(8, 112, 7, 101, &mut |mr, nr| leaves.push((mr, nr)));
        assert_eq!(leaves, vec![(8, 28); 4]);
        leaves.clear();
        dyn_leaves(16, 56, 9, 20, &mut |mr, nr| leaves.push((mr, nr)));
        assert_eq!(leaves, vec![(8, 28), (8, 28)], "only the chunks the region touches");
        leaves.clear();
        dyn_leaves(6, 24, 6, 24, &mut |mr, nr| leaves.push((mr, nr)));
        assert_eq!(leaves, vec![(6, 24)], "in-range requests run whole");
    }

    #[test]
    fn micro_kernel_edge_stores_respect_bounds() {
        // 2 eff rows / 3 eff cols of a 5x16 kernel must leave the rest of C
        // untouched.
        let kc = 4;
        let a = vec![1.0f32; 5 * (kc + 8)];
        let b = vec![1.0f32; (kc + 2) * 16];
        let mut c = vec![7.0f32; 5 * 16];
        let tile = unsafe { CTile::new(c.as_mut_ptr(), 16, c.len()) };
        micro_kernel_ref::<5, 16>(kc, &a, kc + 8, &b, 16, tile, false, 2, 3);
        assert_eq!(c[0], kc as f32);
        assert_eq!(c[2], kc as f32);
        assert_eq!(c[3], 7.0, "col 3 out of eff_cols must be untouched");
        assert_eq!(c[2 * 16], 7.0, "row 2 out of eff_rows must be untouched");
    }
}

#[cfg(test)]
mod order_tests {
    use super::*;
    use autogemm_arch::ChipSpec;
    use autogemm_tuner::space::{LoopIndex, LoopOrder};
    use autogemm_tuner::tune;

    #[test]
    fn block_order_follows_sigma_order() {
        use LoopIndex::*;
        let m_major = LoopOrder([Mc, Nc, Kc, Mr, Nr]);
        let n_major = LoopOrder([Nc, Kc, Mc, Mr, Nr]);
        assert_eq!(block_visit_order(&m_major, 2, 2), vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(block_visit_order(&n_major, 2, 2), vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn results_identical_across_loop_orders() {
        use LoopIndex::*;
        let chip = ChipSpec::graviton2();
        let (m, n, k) = (32usize, 48usize, 24usize);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 9) as f32 - 4.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 3.0).collect();
        let mut sched = tune(m, n, k, &chip);
        sched.mc = 16;
        sched.nc = 16;
        sched.kc = 12;
        let mut reference: Option<Vec<f32>> = None;
        for order in [LoopOrder([Mc, Nc, Kc, Mr, Nr]), LoopOrder([Nc, Kc, Mc, Mr, Nr])] {
            sched.order = order;
            let plan = crate::ExecutionPlan::from_schedule(sched.clone(), &chip);
            let mut c = vec![0.0f32; m * n];
            gemm_with_plan(&plan, &a, &b, &mut c, 1);
            match &reference {
                None => reference = Some(c),
                Some(r) => assert_eq!(&c, r, "loop order changed the result"),
            }
        }
    }
}
