//! Transposed-operand GEMM: the four BLAS forms
//! `C = op(A)·op(B)`, `op ∈ {identity, transpose}`, and the full
//! `sgemm`.
//!
//! The generated kernels always consume row-major packed panels, so a
//! transposed operand only changes how its panels are *packed* (the
//! transposing pack in [`crate::packing`]); the tuned schedule, tiling,
//! kernels and block driver are untouched — which is exactly how
//! packing-based BLAS libraries implement `sgemm`'s `transa`/`transb`.
//! Every form here is one call into
//! [`crate::native::try_gemm_with_plan_supervised`], so each panel is
//! packed once per call (`(tm + tn)·tk` packs) into pool buffers.

use crate::error::{self, GemmError};
use crate::native::{self, Operands};
use crate::packing::PanelPool;
use crate::plan::ExecutionPlan;
use crate::supervisor::Supervision;

/// Whether an operand is used as stored or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored (row-major `rows × cols`).
    NoTrans,
    /// Use the transpose of the stored matrix.
    Trans,
}

/// `C (M×N) = op(A) · op(B)`, row-major.
///
/// With `Op::NoTrans`, `a` is `M×K` and `b` is `K×N` (identical to
/// [`crate::native::gemm_with_plan`]). With `Op::Trans`, `a` is stored
/// `K×M` and/or `b` is stored `N×K`.
pub fn gemm_op(
    plan: &ExecutionPlan,
    op_a: Op,
    op_b: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    if let Err(e) = try_gemm_op(plan, op_a, op_b, a, b, c, threads) {
        panic!("{e}");
    }
}

/// Fallible [`gemm_op`]: operand validation, degenerate shapes and
/// worker-panic containment per [`crate::error`]. A transposed operand
/// has the same element count as the plain one, so the length checks are
/// op-independent.
pub fn try_gemm_op(
    plan: &ExecutionPlan,
    op_a: Op,
    op_b: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) -> Result<(), GemmError> {
    run(plan, Operands::op(op_a, a, op_b, b), c, threads)
}

/// Full BLAS-style `sgemm`: `C = α · op(A) · op(B) + β · C`, row-major.
///
/// `β` is applied to `C` in one pass up front and the driver then
/// accumulates into it. For `α ∉ {0, 1}` the call makes one scaled copy
/// of `A` (`M·K` elements) and multiplies that, so the kernels never see
/// `α`.
#[allow(clippy::too_many_arguments)]
pub fn sgemm(
    plan: &ExecutionPlan,
    alpha: f32,
    op_a: Op,
    a: &[f32],
    op_b: Op,
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    threads: usize,
) {
    if let Err(e) = try_sgemm(plan, alpha, op_a, a, op_b, b, beta, c, threads) {
        panic!("{e}");
    }
}

/// Fallible [`sgemm`]. All operands are validated **before** the `β`
/// pass, so on `Err` the caller's `C` is untouched — not even scaled.
#[allow(clippy::too_many_arguments)]
pub fn try_sgemm(
    plan: &ExecutionPlan,
    alpha: f32,
    op_a: Op,
    a: &[f32],
    op_b: Op,
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    threads: usize,
) -> Result<(), GemmError> {
    let s = &plan.schedule;
    error::check_operands(s.m, s.n, s.k, a, b, c)?;
    // β pass.
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
    if alpha == 0.0 {
        return Ok(());
    }
    let scaled_a: Vec<f32>;
    let a = if alpha == 1.0 {
        a
    } else {
        scaled_a = a.iter().map(|&x| x * alpha).collect();
        &scaled_a
    };
    let ops = Operands::op(op_a, a, op_b, b);
    run(plan, if beta == 0.0 { ops } else { ops.accumulate() }, c, threads)
}

/// One unsupervised driver call with a panel pool of its own.
fn run(
    plan: &ExecutionPlan,
    ops: Operands<'_>,
    c: &mut [f32],
    threads: usize,
) -> Result<(), GemmError> {
    let pool = PanelPool::new();
    native::try_gemm_with_plan_supervised(plan, ops, c, threads, &pool, &Supervision::none(), false)
        .map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutoGemm;
    use autogemm_arch::ChipSpec;

    fn naive_op(
        m: usize,
        n: usize,
        k: usize,
        op_a: Op,
        op_b: Op,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let get_a = |i: usize, p: usize| match op_a {
            Op::NoTrans => a[i * k + p],
            Op::Trans => a[p * m + i],
        };
        let get_b = |p: usize, j: usize| match op_b {
            Op::NoTrans => b[p * n + j],
            Op::Trans => b[j * k + p],
        };
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += get_a(i, p) * get_b(p, j);
                }
            }
        }
        c
    }

    /// A plan whose tuned schedule splits every dimension (`tm, tn, tk
    /// > 1`), so cross-block and `kb > 0` accumulation run.
    pub(super) fn multi_block_plan() -> ExecutionPlan {
        let chip = ChipSpec::graviton2();
        let plan = ExecutionPlan::from_schedule(autogemm_tuner::tune(48, 80, 300, &chip), &chip);
        let (tm, tn, tk) = plan.grid();
        assert!(tm > 1 && tn > 1 && tk > 1, "grid ({tm}, {tn}, {tk}) is not multi-block");
        plan
    }

    /// `x` (`rows × cols`, row-major) stored transposed.
    pub(super) fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols).map(|idx| x[(idx % rows) * cols + idx / rows]).collect()
    }

    pub(super) const OPS: [(Op, Op); 4] = [
        (Op::NoTrans, Op::NoTrans),
        (Op::NoTrans, Op::Trans),
        (Op::Trans, Op::NoTrans),
        (Op::Trans, Op::Trans),
    ];

    #[test]
    fn all_four_op_combinations_match_naive() {
        let engine = AutoGemm::new(ChipSpec::graviton2());
        for plan in [engine.plan(26, 36, 24), multi_block_plan()] {
            let s = &plan.schedule;
            let (m, n, k) = (s.m, s.n, s.k);
            // Integer-valued data: every partial sum is exact in `f32`.
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 5) % 11) as f32 - 5.0).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 3) % 7) as f32 - 3.0).collect();
            let (a_t, b_t) = (transposed(&a, m, k), transposed(&b, k, n));
            let want = naive_op(m, n, k, Op::NoTrans, Op::NoTrans, &a, &b);
            let mut c_plain = vec![0.0f32; m * n];
            crate::native::gemm_with_plan(&plan, &a, &b, &mut c_plain, 1);
            for threads in [1, 2, 8] {
                for (op_a, op_b) in OPS {
                    let sa = if op_a == Op::Trans { &a_t } else { &a };
                    let sb = if op_b == Op::Trans { &b_t } else { &b };
                    let mut c = vec![f32::NAN; m * n];
                    gemm_op(&plan, op_a, op_b, sa, sb, &mut c, threads);
                    let ctx = format!("{m}x{n}x{k} {op_a:?}/{op_b:?} t{threads}");
                    assert_eq!(c, naive_op(m, n, k, op_a, op_b, sa, sb), "{ctx}");
                    // Transposed storage only changes how panels are
                    // packed: the panels, hence the bits, are the plain
                    // driver's.
                    assert_eq!(c, c_plain, "{ctx}: diverged from the plain driver");
                }
            }
            assert_eq!(c_plain, want);
        }
    }

    #[test]
    fn notrans_notrans_equals_plain_gemm() {
        let chip = ChipSpec::m2();
        let engine = AutoGemm::new(chip.clone());
        let (m, n, k) = (13usize, 20usize, 17usize);
        let plan = engine.plan(m, n, k);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 9) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 4) as f32).collect();
        let mut c1 = vec![0.0f32; m * n];
        engine.gemm(m, n, k, &a, &b, &mut c1);
        let mut c2 = vec![0.0f32; m * n];
        gemm_op(&plan, Op::NoTrans, Op::NoTrans, &a, &b, &mut c2, 1);
        assert_eq!(c1, c2);
    }
}

#[cfg(test)]
mod sgemm_tests {
    use super::*;
    use crate::AutoGemm;
    use autogemm_arch::ChipSpec;

    fn data(m: usize, n: usize, k: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let a = (0..m * k).map(|i| ((i * 7) % 9) as f32 - 4.0).collect();
        let b = (0..k * n).map(|i| ((i * 5) % 7) as f32 - 3.0).collect();
        let c = (0..m * n).map(|i| ((i * 3) % 5) as f32 - 2.0).collect();
        (a, b, c)
    }

    #[allow(clippy::too_many_arguments)]
    fn naive_sgemm(
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut dot = 0.0f32;
                for p in 0..k {
                    dot += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = alpha * dot + beta * c[i * n + j];
            }
        }
    }

    #[test]
    fn alpha_beta_combinations_match_naive() {
        use super::tests::{multi_block_plan, transposed, OPS};
        let engine = AutoGemm::new(ChipSpec::graviton2());
        for plan in [engine.plan(16, 24, 20), multi_block_plan()] {
            let s = &plan.schedule;
            let (m, n, k) = (s.m, s.n, s.k);
            let (a, b, c0) = data(m, n, k);
            let (a_t, b_t) = (transposed(&a, m, k), transposed(&b, k, n));
            for (alpha, beta) in
                [(1.0f32, 0.0f32), (1.0, 1.0), (1.0, 0.5), (2.5, 0.0), (0.5, -1.5), (0.0, 3.0)]
            {
                let mut want = c0.clone();
                naive_sgemm(m, n, k, alpha, &a, &b, beta, &mut want);
                for threads in [1, 2, 8] {
                    for (op_a, op_b) in OPS {
                        let sa = if op_a == Op::Trans { &a_t } else { &a };
                        let sb = if op_b == Op::Trans { &b_t } else { &b };
                        let mut c = c0.clone();
                        sgemm(&plan, alpha, op_a, sa, op_b, sb, beta, &mut c, threads);
                        // Integer data and dyadic α, β: exact in `f32`
                        // whatever the summation order.
                        assert_eq!(
                            c, want,
                            "{m}x{n}x{k} {op_a:?}/{op_b:?} t{threads} alpha={alpha} beta={beta}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn alpha_zero_only_applies_beta() {
        let chip = ChipSpec::kp920();
        let engine = AutoGemm::new(chip.clone());
        let (m, n, k) = (8usize, 8usize, 8usize);
        let plan = engine.plan(m, n, k);
        let (a, b, c0) = data(m, n, k);
        let mut c = c0.clone();
        sgemm(&plan, 0.0, Op::NoTrans, &a, Op::NoTrans, &b, 2.0, &mut c, 1);
        let want: Vec<f32> = c0.iter().map(|&x| x * 2.0).collect();
        assert_eq!(c, want);
    }
}
