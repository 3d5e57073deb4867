//! Offline packing (§IV-C2, §V-C): pack `B` once, outside the timed
//! region, and reuse the packed form across many GEMM calls — what
//! LibShalom does for large matrices and what autoGEMM "is also flexible
//! in enabling" for the Fig 9 comparison.
//!
//! The packed form stores one padded `(k_c+2) × n_c` panel per cache
//! block of `B`, in block order, so the run-time loop does zero copies.

use crate::error::{self, GemmError, Operand};
use crate::packing::{pack_b, PackedBlock};
use crate::plan::ExecutionPlan;
use crate::supervisor::{BreakerPath, RunMonitor, Supervision};

/// `B`, packed offline for a specific execution plan.
pub struct PackedB {
    /// Panels indexed `[kb * tn + bj]`.
    panels: Vec<PackedBlock>,
    tn: usize,
    /// Shape fingerprint to catch plan mismatches.
    shape: (usize, usize, usize, usize, usize),
}

impl PackedB {
    /// Pack `b` (row-major `k × n`) for `plan`. Do this once per weight
    /// matrix; the cost is excluded from run-time, exactly like the
    /// paper's offline mode.
    pub fn new(plan: &ExecutionPlan, b: &[f32]) -> Self {
        let s = &plan.schedule;
        assert_eq!(b.len(), s.k * s.n, "B must be K*N");
        let (_, tn, tk) = plan.grid();
        let mut panels = Vec::with_capacity(tk * tn);
        for kb in 0..tk {
            for bj in 0..tn {
                panels.push(pack_b(b, s.n, kb * s.kc, bj * s.nc, s.kc, s.nc, plan.sigma_lane));
            }
        }
        PackedB { panels, tn, shape: (s.m, s.n, s.k, s.nc, s.kc) }
    }

    /// The packed panel for k-block `kb`, column block `bj`.
    pub fn panel(&self, kb: usize, bj: usize) -> &PackedBlock {
        &self.panels[kb * self.tn + bj]
    }

    /// Total packed bytes (for traffic accounting / memory budgeting).
    pub fn bytes(&self) -> usize {
        self.panels.iter().map(|p| p.data.len() * 4).sum()
    }

    pub(crate) fn check(&self, plan: &ExecutionPlan) -> Result<(), GemmError> {
        let s = &plan.schedule;
        if self.shape != (s.m, s.n, s.k, s.nc, s.kc) {
            return Err(GemmError::PlanMismatch {
                expected: (self.shape.0, self.shape.1, self.shape.2),
                got: (s.m, s.n, s.k),
            });
        }
        Ok(())
    }
}

/// `C = A · B` with `B` pre-packed offline, recycling A-panel buffers
/// through `pool`.
///
/// The packed panels feed the shared panel-cache driver **zero-copy**
/// ([`crate::native`]'s `BPanels::Prepacked` borrows them in place): only
/// the A panels are packed at call time (once each, `tm·tk` packs), and
/// blocks are drained from the same atomic work queue as
/// [`crate::native::gemm_with_plan`]. Plan-mismatch and operand
/// validation come back as `Err`, and worker panics are contained (see
/// [`crate::error`]).
pub fn try_gemm_prepacked_pooled(
    plan: &ExecutionPlan,
    a: &[f32],
    packed_b: &PackedB,
    c: &mut [f32],
    threads: usize,
    pool: &crate::packing::PanelPool,
) -> Result<(), GemmError> {
    try_gemm_prepacked_supervised(plan, a, packed_b, c, threads, pool, &Supervision::none())
}

/// [`try_gemm_prepacked_pooled`] under a [`Supervision`] bundle: the
/// offline path gets the same cancellation points (pack-A slots, kernel
/// block claims), watchdog heartbeats and error attribution as the
/// online driver. The pre-packed `B` panels are caller-owned and never
/// touched on the error paths.
pub fn try_gemm_prepacked_supervised(
    plan: &ExecutionPlan,
    a: &[f32],
    packed_b: &PackedB,
    c: &mut [f32],
    threads: usize,
    pool: &crate::packing::PanelPool,
    sup: &Supervision,
) -> Result<(), GemmError> {
    packed_b.check(plan)?;
    let s = &plan.schedule;
    let (m, n, k) = (s.m, s.n, s.k);
    error::check_len(Operand::A, "M*K", a.len(), m, k)?;
    error::check_len(Operand::C, "M*N", c.len(), m, n)?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    if k == 0 {
        c.fill(0.0);
        return Ok(());
    }
    let exec = crate::runtime::Exec::new(sup, false);
    let monitor = RunMonitor::new(sup, threads.max(1));
    let watchdog = exec.runtime().watch(&monitor);
    let result = (|| {
        monitor.begin_phase();
        let (a_panels, _) = crate::native::try_pack_a_panels_supervised(
            plan, a, threads, pool, &exec, &monitor, false,
        )?;
        monitor.begin_phase();
        let b_panels = crate::native::BPanels::Prepacked(packed_b);
        let run = crate::native::try_run_blocks_cached(
            plan,
            &crate::native::ASource::Packed(&a_panels),
            &crate::native::BSource::Packed(&b_panels),
            c,
            threads,
            false,
            &exec,
            &monitor,
            false,
        );
        pool.release_blocks(a_panels);
        run.map(|_| ())
    })();
    monitor.finish();
    drop(watchdog);
    if matches!(result, Err(GemmError::WorkerPanicked { .. }) | Err(GemmError::Stalled { .. })) {
        sup.observe_fault(BreakerPath::ThreadedDriver);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packing::PanelPool;
    use crate::AutoGemm;
    use autogemm_arch::ChipSpec;

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

    #[test]
    fn prepacked_matches_naive() {
        let engine = AutoGemm::new(ChipSpec::graviton2()).with_offline_packing();
        let (m, n, k) = (48, 96, 32);
        let plan = engine.plan(m, n, k);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 3) % 11) as f32 - 5.0).collect();
        let packed = PackedB::new(&plan, &b);
        let mut c = vec![0.0f32; m * n];
        let pool = PanelPool::new();
        try_gemm_prepacked_pooled(&plan, &a, &packed, &mut c, 1, &pool).unwrap();
        assert_eq!(c, naive(m, n, k, &a, &b));
    }

    #[test]
    fn prepacked_reuse_across_calls() {
        // The LibShalom pattern: one packed weight matrix, many activations.
        let engine = AutoGemm::new(ChipSpec::kp920());
        let (m, n, k) = (26, 36, 24);
        let plan = engine.plan(m, n, k);
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32).collect();
        let packed = PackedB::new(&plan, &b);
        assert!(packed.bytes() >= 4 * k * n);
        let pool = PanelPool::new();
        for seed in 0..3 {
            let a: Vec<f32> = (0..m * k).map(|i| ((i + seed) % 7) as f32 - 3.0).collect();
            let mut c = vec![0.0f32; m * n];
            try_gemm_prepacked_pooled(&plan, &a, &packed, &mut c, 2, &pool).unwrap();
            assert_eq!(c, naive(m, n, k, &a, &b), "seed {seed}");
        }
    }

    #[test]
    fn plan_mismatch_is_caught() {
        let engine = AutoGemm::new(ChipSpec::m2());
        let plan_a = engine.plan(16, 16, 16);
        let plan_b = engine.plan(32, 32, 32);
        let b: Vec<f32> = vec![0.0; 16 * 16];
        let packed = PackedB::new(&plan_a, &b);
        let a = vec![0.0f32; 32 * 32];
        let mut c = vec![0.0f32; 32 * 32];
        let pool = PanelPool::new();
        let e = try_gemm_prepacked_pooled(&plan_b, &a, &packed, &mut c, 1, &pool).unwrap_err();
        assert!(matches!(e, GemmError::PlanMismatch { .. }), "{e:?}");
        assert!(e.to_string().contains("different plan"), "{e}");
    }
}
