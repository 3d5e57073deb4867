//! Degenerate-shape fast paths: GEMV and small-`k` GEMM without the
//! block driver.
//!
//! The Table V workloads include shapes where the GotoBLAS machinery is
//! pure overhead: `m = 1` (a row GEMV), `n = 1` (a column GEMV) and
//! very small `k`, where cache-blocking buys nothing (the whole K
//! extent fits a handful of registers) and packing both operands costs
//! more traffic than the kernel reads. These routes skip planning,
//! packing and the block grid entirely and stream the operands from the
//! caller's row-major memory.
//!
//! ## Bit-identity with the block driver
//!
//! Every stored `C` cell still accumulates its `k` products in
//! ascending order with fused multiply-adds, exactly like the menu SIMD
//! kernels and the scalar reference ([`micro_kernel_ref`]):
//!
//! * the row route computes `C`'s single row in menu-width column
//!   chunks of [`micro_kernel_simd`]`::<1, N̄R>` plus a zero-padded
//!   `(1, 4)` tile for a lane tail — per-cell chains are independent of
//!   the chunking;
//! * the column route is the lane-0 chain of the `(m_r, 4)` tiles the
//!   block driver would run against a zero-padded `B` panel;
//! * the small-`k` route is the row route applied per row.
//!
//! So on fused backends the fast paths match the block driver
//! bit-for-bit; on the unfused SSE2 fallback they match within rounding
//! (the same contract the packed edge kernels already carry).
//!
//! ## Supervision
//!
//! The routes run under the same machinery as the block driver: the
//! dispatch probe ([`RunConfig::probe`], honouring breaker reroutes and
//! `faultinject` degradation to the scalar reference), per-worker
//! startup probes, heartbeat checkpoints for the watchdog, cancellation
//! checks between work units, and panic containment with the
//! partial-`C` write contract (units are written whole).

use crate::error::GemmError;
use crate::faultinject::{self, FaultSite};
use crate::kernels::micro_kernel_simd;
use crate::native::{self, micro_kernel_ref, CTile, RunConfig};
use crate::runtime::Exec;
use crate::supervisor::{BreakerPath, RunMonitor, Supervision};
use crate::telemetry::clock::Stamp;
use crate::telemetry::report::{GemmReport, TileCount};

/// Largest `k` the small-`k` route takes over from the block driver: at
/// or below this the whole K extent fits the kernel's accumulator pass
/// and a packed panel can never amortize (`t_k = 1` for every feasible
/// `k_c`).
pub(crate) const SMALL_K_MAX: usize = 8;

/// Columns claimed per work unit by the row-GEMV route.
const COL_CHUNK: usize = 512;
/// Rows claimed per work unit by the column-GEMV route.
const ROW_CHUNK: usize = 64;
/// Rows claimed per work unit by the small-`k` route.
const SMALLK_ROWS: usize = 32;

/// Which degenerate-shape fast path a problem takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FastRoute {
    /// `m == 1`: one row of `C`, computed in menu-width column chunks.
    RowGemv,
    /// `n == 1`: one column of `C`, computed in `(m_r, 4)` tiles
    /// against the lane-padded column (one fused dot chain per row).
    ColGemv,
    /// `k <= SMALL_K_MAX`: the row route applied per row of `C`.
    SmallK,
}

impl FastRoute {
    /// Stable name for telemetry (`GemmReport::dispatch`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            FastRoute::RowGemv => "gemv_row",
            FastRoute::ColGemv => "gemv_col",
            FastRoute::SmallK => "small_k",
        }
    }
}

/// Classify a (non-degenerate) problem shape. `None` means the block
/// driver is the right tool; zero-sized dimensions are the engine's
/// degenerate path, not a fast route.
pub(crate) fn fast_route(m: usize, n: usize, k: usize) -> Option<FastRoute> {
    if m == 0 || n == 0 || k == 0 {
        return None;
    }
    if m == 1 {
        return Some(FastRoute::RowGemv);
    }
    if n == 1 {
        return Some(FastRoute::ColGemv);
    }
    if k <= SMALL_K_MAX {
        return Some(FastRoute::SmallK);
    }
    None
}

/// One menu-width chunk of a row GEMV, dispatched to the SIMD kernel or
/// the scalar reference (the degraded-dispatch path) — the `MR = 1`
/// column of the block driver's dispatch table.
fn row_chunk<const NRV: usize, const NR: usize>(
    reference: bool,
    k: usize,
    a_row: &[f32],
    b: &[f32],
    n: usize,
    c: CTile,
) {
    if reference {
        micro_kernel_ref::<1, NR>(k, a_row, k, b, n, c, false, 1, NR);
    } else {
        micro_kernel_simd::<1, NRV>(k, a_row, k, b, n, c, false, 1, NR);
    }
}

/// Compute columns `[j0, j1)` of one `C` row: `c_row = a_row · B`.
/// Greedy menu-width chunks (multiples of σ_lane), then a zero-padded
/// `(1, 4)` tile for the last `< 4` columns — the same per-cell chains
/// as the block driver's lane-rounded edge tiles.
#[allow(clippy::too_many_arguments)]
fn row_gemv_range(
    reference: bool,
    k: usize,
    a_row: &[f32],
    b: &[f32],
    n: usize,
    c_row: CTile,
    j0: usize,
    j1: usize,
    pad: &[f32],
) {
    let mut j = j0;
    while j1 - j >= 4 {
        // SAFETY: this worker owns columns [j0, j1) of the row.
        let c = unsafe { c_row.offset(0, j) };
        let bj = &b[j..];
        let taken = row_chunk_width(j1 - j);
        match taken {
            28 => row_chunk::<7, 28>(reference, k, a_row, bj, n, c),
            24 => row_chunk::<6, 24>(reference, k, a_row, bj, n, c),
            20 => row_chunk::<5, 20>(reference, k, a_row, bj, n, c),
            16 => row_chunk::<4, 16>(reference, k, a_row, bj, n, c),
            12 => row_chunk::<3, 12>(reference, k, a_row, bj, n, c),
            8 => row_chunk::<2, 8>(reference, k, a_row, bj, n, c),
            _ => row_chunk::<1, 4>(reference, k, a_row, bj, n, c),
        }
        j += taken;
    }
    let rem = j1 - j;
    if rem > 0 {
        // Fewer than σ_lane columns remain — only possible at the
        // matrix edge, since chunks advance in lane multiples. Widen
        // the tail into a zero-padded panel and run the (1, 4) tile:
        // the same fused ascending-k chain per stored cell as the wide
        // chunks, without the libm `fmaf` a scalar loop would pay. The
        // call builds that panel once ([`shared_lane_pad`]).
        // SAFETY: this worker owns columns [j0, j1) of the row.
        let c = unsafe { c_row.offset(0, j) };
        if reference {
            micro_kernel_ref::<1, 4>(k, a_row, k, pad, 4, c, false, 1, rem);
        } else {
            micro_kernel_simd::<1, 1>(k, a_row, k, pad, 4, c, false, 1, rem);
        }
    }
}

/// Width of the next row-route chunk with `rem ≥ σ_lane` columns left:
/// the widest menu `n_r` (a lane multiple, at most 28) that fits.
fn row_chunk_width(rem: usize) -> usize {
    (rem / 4 * 4).min(28)
}

/// Rows per `(m_r, 4)` tile on the column route — the widest menu tile
/// height, keeping eight independent accumulator chains in flight.
const COL_MR: usize = 8;

/// Widen `w < σ_lane` columns `[j, j + w)` of row-major `B` (`k × n`)
/// into a zero-padded `k × σ_lane` panel — exactly the padding a packed
/// B panel carries, which is what makes the vector kernels' full-width
/// loads legal at the matrix edge. The zero lanes are computed and
/// discarded by the `eff_cols` store mask, so no stored cell's
/// accumulation chain sees them.
fn pad_lane_tail(k: usize, b: &[f32], n: usize, j: usize, w: usize) -> Vec<f32> {
    let mut pad = vec![0.0f32; k * 4];
    for p in 0..k {
        pad[p * 4..p * 4 + w].copy_from_slice(&b[p * n + j..p * n + j + w]);
    }
    pad
}

/// One `(MR, 4)` tile of the column route: `MR` real rows of A against
/// the lane-padded column, storing lane 0 only.
fn col_tile<const MR: usize>(reference: bool, k: usize, a: &[f32], b_pad: &[f32], c: CTile) {
    if reference {
        micro_kernel_ref::<MR, 4>(k, a, k, b_pad, 4, c, false, MR, 1);
    } else {
        micro_kernel_simd::<MR, 1>(k, a, k, b_pad, 4, c, false, MR, 1);
    }
}

/// Compute rows `[i0, i1)` of the single `C` column with the `(m_r, 4)`
/// vector tiles the block driver would use, run against the `k × 1`
/// column widened to a zero-padded lane-width panel
/// ([`pad_lane_tail`]). Each stored cell is the tile's lane-0 chain —
/// its `k` products accumulated in ascending order with fused
/// multiply-adds, identical to a row-at-a-time fused dot product. (A
/// scalar dot per row bottlenecks on the FMA *call*: without a
/// compile-time FMA target `f32::mul_add` lowers to libm `fmaf`, which
/// no amount of interleaving hides; the tile's intrinsics dispatch on
/// the runtime-detected backend like every other kernel.)
///
/// The SIMD kernels read all `MR` rows (only stores are masked), so the
/// row count descends 8 → 4 → 2 → 1 full tiles rather than masking a
/// partial last group — every tile's rows are real rows of A.
fn col_gemv_rows(
    reference: bool,
    k: usize,
    a: &[f32],
    b_pad: &[f32],
    c_root: CTile,
    i0: usize,
    i1: usize,
) {
    let mut i = i0;
    while i < i1 {
        let a_sl = &a[i * k..];
        // SAFETY: this worker owns rows [i0, i1) of the column.
        let c = unsafe { c_root.offset(i, 0) };
        let rows = col_tile_rows(i1 - i);
        match rows {
            COL_MR => col_tile::<COL_MR>(reference, k, a_sl, b_pad, c),
            4 => col_tile::<4>(reference, k, a_sl, b_pad, c),
            2 => col_tile::<2>(reference, k, a_sl, b_pad, c),
            _ => col_tile::<1>(reference, k, a_sl, b_pad, c),
        }
        i += rows;
    }
}

/// Height of the next column-route tile with `rem ≥ 1` rows left.
fn col_tile_rows(rem: usize) -> usize {
    match rem {
        r if r >= COL_MR => COL_MR,
        r if r >= 4 => 4,
        r if r >= 2 => 2,
        _ => 1,
    }
}

/// The zero-padded lane panel every unit of a call reads: the whole
/// `k × 1` column on the column route, the `< σ_lane`-column tail of `B`
/// on the row routes (empty when `n` is a lane multiple). Built once per
/// call on the submitting thread, not once per unit on whichever pool
/// worker claims it.
fn shared_lane_pad(route: FastRoute, n: usize, k: usize, b: &[f32]) -> Vec<f32> {
    let tail = n % 4;
    match route {
        FastRoute::ColGemv => pad_lane_tail(k, b, 1, 0, 1),
        FastRoute::RowGemv | FastRoute::SmallK if tail != 0 => {
            pad_lane_tail(k, b, n, n - tail, tail)
        }
        FastRoute::RowGemv | FastRoute::SmallK => Vec::new(),
    }
}

/// Number of claimable work units for a route over an `m × n` problem.
fn unit_count(route: FastRoute, m: usize, n: usize) -> usize {
    match route {
        FastRoute::RowGemv => n.div_ceil(COL_CHUNK).max(1),
        FastRoute::ColGemv => m.div_ceil(ROW_CHUNK).max(1),
        FastRoute::SmallK => m.div_ceil(SMALLK_ROWS).max(1),
    }
}

/// The `C` range unit `u` owns: columns `[lo, hi)` of the single row on
/// the row route, rows `[lo, hi)` on the others.
fn unit_span(route: FastRoute, u: usize, m: usize, n: usize) -> (usize, usize) {
    let (chunk, len) = match route {
        FastRoute::RowGemv => (COL_CHUNK, n),
        FastRoute::ColGemv => (ROW_CHUNK, m),
        FastRoute::SmallK => (SMALLK_ROWS, m),
    };
    (u * chunk, ((u + 1) * chunk).min(len))
}

/// The kernel-shape histogram of a completed fast-route run: the tiles
/// every unit dispatches, following the same chunking steps as
/// [`row_gemv_range`] and [`col_gemv_rows`].
fn fast_tiles(route: FastRoute, m: usize, n: usize) -> Vec<TileCount> {
    let mut tiles = Vec::new();
    let row = |tiles: &mut Vec<(usize, usize, u64)>, j0: usize, j1: usize, rows: u64| {
        let mut j = j0;
        while j1 - j >= 4 {
            let w = row_chunk_width(j1 - j);
            tiles.push((1, w, rows));
            j += w;
        }
        if j < j1 {
            tiles.push((1, 4, rows));
        }
    };
    for u in 0..unit_count(route, m, n) {
        let (lo, hi) = unit_span(route, u, m, n);
        match route {
            FastRoute::RowGemv => row(&mut tiles, lo, hi, 1),
            FastRoute::SmallK => row(&mut tiles, 0, n, (hi - lo) as u64),
            FastRoute::ColGemv => {
                let mut i = lo;
                while i < hi {
                    let rows = col_tile_rows(hi - i);
                    tiles.push((rows, 4, 1));
                    i += rows;
                }
            }
        }
    }
    TileCount::histogram(tiles)
}

/// Execute one claimed unit. Units partition `C` (column ranges of the
/// single row, or disjoint row ranges), so the [`CTile`] ownership
/// contract holds per unit.
#[allow(clippy::too_many_arguments)]
fn run_unit(
    route: FastRoute,
    u: usize,
    reference: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    pad: &[f32],
    c_root: CTile,
) {
    let (lo, hi) = unit_span(route, u, m, n);
    match route {
        FastRoute::RowGemv => row_gemv_range(reference, k, &a[..k], b, n, c_root, lo, hi, pad),
        FastRoute::ColGemv => col_gemv_rows(reference, k, a, pad, c_root, lo, hi),
        FastRoute::SmallK => smallk_rows(reference, n, k, a, b, pad, c_root, lo, hi),
    }
    // Chaos hook: `FaultSite::KernelCompute` fires after the unit's
    // stores land, perturbing cells inside the unit's owned region of
    // `C` for the integrity layer to catch (same contract as the block
    // driver's hook in [`crate::native`]).
    if let faultinject::Probe::Corrupt { elements } = faultinject::probe(FaultSite::KernelCompute) {
        let salt = 0x4745_4D56_0000_0000 | u as u64;
        let (origin, rows, cols) = match route {
            FastRoute::RowGemv => ((0, lo), 1, hi - lo),
            FastRoute::ColGemv => ((lo, 0), hi - lo, 1),
            FastRoute::SmallK => ((lo, 0), hi - lo, n),
        };
        // SAFETY: the region is the `C` range this unit owns.
        let region = unsafe { c_root.offset(origin.0, origin.1) };
        crate::native::corrupt_c_region(&region, rows, cols, elements, salt);
    }
}

/// The SmallK unit body: rows `[i0, i1)` of the `m×n` product, each a
/// row-GEMV over the call's shared lane-tail padding.
#[allow(clippy::too_many_arguments)]
fn smallk_rows(
    reference: bool,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    pad: &[f32],
    c_root: CTile,
    i0: usize,
    i1: usize,
) {
    for i in i0..i1 {
        // SAFETY: rows [i0, i1) are owned by this unit.
        let c_row = unsafe { c_root.offset(i, 0) };
        row_gemv_range(reference, k, &a[i * k..i * k + k], b, n, c_row, 0, n, pad);
    }
}

/// Execute a fast route under a [`Supervision`] bundle, draining the
/// route's work units with the block driver's worker discipline
/// ([`native::try_drain`]). The caller (the engine front door) has
/// already validated the operands and handled zero-sized dimensions.
///
/// With `record`, as for [`native::try_gemm_with_plan_supervised`], the
/// call returns its [`GemmReport`], otherwise `Ok(None)`. The fast routes
/// have no cache blocking, so the report's `mc/nc/kc` echo the problem
/// shape, and no packing, so the pack phase times and counters stay
/// zero. The engine stamps `dispatch` and `health` after the call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_fast_supervised(
    route: FastRoute,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
    sup: &Supervision,
    record: bool,
) -> Result<Option<GemmReport>, GemmError> {
    let cfg = RunConfig::probe(sup, threads)?;
    let exec = Exec::new(sup, cfg.pool_inline);
    let t0 = record.then(Stamp::now);
    // SAFETY: units partition C's cells; each is claimed by one worker.
    let c_root = unsafe { CTile::new(c.as_mut_ptr(), n, c.len()) };
    let monitor = RunMonitor::new(sup, threads.max(1));
    let watchdog = exec.runtime().watch(&monitor);
    monitor.begin_phase();
    let pad = shared_lane_pad(route, n, k, b);
    let units = unit_count(route, m, n);
    let result = native::try_drain("kernel", units, threads, &exec, &monitor, record, |_, u| {
        run_unit(route, u, cfg.reference, m, n, k, a, b, &pad, c_root);
        Ok(())
    });
    monitor.finish();
    drop(watchdog);
    if matches!(result, Err(GemmError::WorkerPanicked { .. }) | Err(GemmError::Stalled { .. })) {
        sup.observe_fault(BreakerPath::ThreadedDriver);
    }
    let section = result?;
    let (Some(section), Some(t0)) = (section, t0) else { return Ok(None) };
    let shape = GemmReport { m, n, k, mc: m, nc: n, kc: k, ..GemmReport::default() };
    let mut report = section.into_report(shape, t0, cfg.fallbacks);
    report.tiles = fast_tiles(route, m, n);
    Ok(Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_classify_degenerate_shapes() {
        assert_eq!(fast_route(1, 64, 128), Some(FastRoute::RowGemv));
        assert_eq!(fast_route(64, 1, 128), Some(FastRoute::ColGemv));
        // m == n == 1 is still a (1-element) row GEMV.
        assert_eq!(fast_route(1, 1, 128), Some(FastRoute::RowGemv));
        assert_eq!(fast_route(40, 36, SMALL_K_MAX), Some(FastRoute::SmallK));
        assert_eq!(fast_route(40, 36, SMALL_K_MAX + 1), None);
        assert_eq!(fast_route(0, 36, 24), None);
        assert_eq!(fast_route(40, 0, 24), None);
        assert_eq!(fast_route(40, 36, 0), None);
    }

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn fill(v: &mut [f32], seed: u32) {
        // Exactly representable values: small integers scaled by powers
        // of two, so fused and unfused accumulation agree bit-for-bit.
        let mut s = seed;
        for x in v.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *x = ((s >> 24) as i32 - 128) as f32 * 0.25;
        }
    }

    #[test]
    fn fast_routes_match_the_naive_oracle() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (1, 97, 64),
            (1, 513, 8),
            (97, 1, 64),
            (129, 1, 3),
            (40, 36, 8),
            (33, 517, 1),
            (65, 5, 7),
        ] {
            let route = fast_route(m, n, k).expect("fast shape");
            let (mut a, mut b) = (vec![0.0f32; m * k], vec![0.0f32; k * n]);
            fill(&mut a, 1 + m as u32);
            fill(&mut b, 7 + n as u32);
            for threads in [1usize, 3] {
                let mut c = vec![f32::NAN; m * n];
                try_fast_supervised(
                    route,
                    m,
                    n,
                    k,
                    &a,
                    &b,
                    &mut c,
                    threads,
                    &Supervision::none(),
                    false,
                )
                .expect("fast route runs");
                assert_eq!(c, naive(m, n, k, &a, &b), "({m},{n},{k}) t{threads} {route:?}");
            }
        }
    }

    #[test]
    fn traced_fast_route_is_bit_identical_and_structured() {
        // One driver, recording off vs on: recording only observes.
        let (m, n, k) = (1usize, 200usize, 48usize);
        let (mut a, mut b) = (vec![0.0f32; m * k], vec![0.0f32; k * n]);
        fill(&mut a, 3);
        fill(&mut b, 11);
        let mut outs = Vec::new();
        let mut reports = Vec::new();
        for rec in [false, true] {
            let mut c = vec![0.0f32; m * n];
            let sup = Supervision::none();
            let r = try_fast_supervised(FastRoute::RowGemv, m, n, k, &a, &b, &mut c, 2, &sup, rec)
                .expect("fast route runs");
            outs.push(c);
            reports.push(r);
        }
        assert_eq!(outs[0], outs[1], "tracing must not change bits");
        assert!(reports[0].is_none(), "an unrecorded run returns no report");
        let report = reports[1].as_ref().expect("a recorded run returns its report");
        assert_eq!((report.m, report.n, report.k), (m, n, k));
        assert_eq!((report.mc, report.nc, report.kc), (m, n, k), "no cache blocking");
        assert_eq!(report.packs.a_packs + report.packs.b_packs, 0, "no packing");
        assert!(report.threads >= 1);
        // 200 columns: seven 28-wide chunks, then a 4-column lane tail.
        let tiles: Vec<_> = report.tiles.iter().map(|t| (t.mr, t.nr, t.count)).collect();
        assert_eq!(tiles, vec![(1, 4, 1), (1, 28, 7)]);
        assert!(report.wall.wall_ns > 0 && report.phases.kernel.wall_ns > 0, "live clocks");
    }
}
