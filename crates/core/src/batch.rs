//! Batched small GEMM — the LIBXSMM-style workload the paper's
//! introduction motivates (blocked sparse solvers, DG/FEM element
//! kernels, N-body interaction blocks): many independent multiplications
//! of one small shape.
//!
//! The batch API tunes the shape once (one [`ExecutionPlan`] shared by
//! every item) and drains items through the crate's one work drain
//! (`native::try_drain`) on the persistent worker-pool runtime
//! ([`crate::runtime`]); each item owns a disjoint `m·n` slice of the
//! output, so the parallelism is safe by construction.

use crate::error::{self, GemmError, Operand};
use crate::native::{self, Operands, UnitSlots};
use crate::offline::PackedB;
use crate::packing::PanelPool;
use crate::plan::ExecutionPlan;
use crate::runtime::Exec;
use crate::supervisor::{BreakerPath, RunMonitor, Supervision};
use std::collections::HashMap;

/// A batch of same-shape GEMMs: `C[i] = A[i] · B[i]`.
pub struct GemmBatch<'a> {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub a: Vec<&'a [f32]>,
    pub b: Vec<&'a [f32]>,
}

impl<'a> GemmBatch<'a> {
    /// Build an empty batch of shape `m × n × k`.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        GemmBatch { m, n, k, a: Vec::new(), b: Vec::new() }
    }

    /// Append one item; `a` must be `m·k` elements and `b` `k·n`.
    pub fn push(&mut self, a: &'a [f32], b: &'a [f32]) {
        assert_eq!(a.len(), self.m * self.k, "A[i] must be m*k");
        assert_eq!(b.len(), self.k * self.n, "B[i] must be k*n");
        self.a.push(a);
        self.b.push(b);
    }

    pub fn len(&self) -> usize {
        self.a.len()
    }

    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    pub fn flops(&self) -> u64 {
        2 * (self.m * self.n * self.k * self.len()) as u64
    }
}

/// Slice identity: same base pointer and length means the same `B` is
/// bound to several batch items (the weight-reuse pattern: one weight
/// matrix, many activations).
fn slice_key(s: &[f32]) -> (usize, usize) {
    (s.as_ptr() as usize, s.len())
}

/// Execute a batch natively with a shared tuned plan under a
/// [`Supervision`] bundle. `c` holds the outputs back to back
/// (`len · m · n` elements); each item overwrites its own slice.
///
/// Every item is one call into the block driver
/// ([`native::try_gemm_with_plan_supervised`]). Items that bind the
/// *same* `B` slice (pointer identity) share one offline-packed copy of
/// it: `B` is packed once for the whole group and those items hand the
/// driver the packed copy (read zero-copy) instead of re-packing `B`
/// per item. Either way an item runs the driver's fault probes, breaker
/// reroutes and panic containment. Each runner slot also carries its
/// own [`PanelPool`], so A-panel buffers are recycled across that
/// runner's items.
///
/// Output-length and plan-shape mismatches come back as `Err`, and a
/// failed item or a panicking batch worker poisons the run — the
/// survivors finish their current item, stop, and the caller gets the
/// first failure. Item-level
/// failures (including contained worker panics inside an item) come
/// back wrapped as [`GemmError::InBatch`]`{ index, source }` so the
/// caller knows which item failed; completed items keep their results
/// and the failing item's slice follows the per-item untouched-/
/// partial-`C` rules of [`crate::error`].
///
/// The batch is itself a work queue of items, so supervision applies at
/// *item* granularity: the deadline and watchdog are checked between
/// items (the batch run reports [`GemmError::Cancelled`] /
/// [`GemmError::Stalled`] with `phase: "batch"` and item counts as the
/// block counts), while a [`CancelToken`](crate::supervisor::CancelToken)
/// additionally interrupts *inside* the in-flight items at their own
/// pack/kernel boundaries. Breaker reroutes (`force_reference`,
/// `force_transient`, `force_inline`) are forwarded into every item
/// call, shared `B` or not.
pub fn try_gemm_batch_supervised(
    plan: &ExecutionPlan,
    batch: &GemmBatch,
    c: &mut [f32],
    threads: usize,
    sup: &Supervision,
) -> Result<(), GemmError> {
    let item = check_output(batch, c)?;
    let s = &plan.schedule;
    let shape = (batch.m, batch.n, batch.k);
    if (s.m, s.n, s.k) != shape {
        return Err(GemmError::PlanMismatch { expected: shape, got: (s.m, s.n, s.k) });
    }
    if batch.is_empty() || item == 0 {
        return Ok(());
    }
    let threads = threads.max(1).min(batch.len());

    // Pack each B that appears more than once, exactly once.
    let mut b_uses: HashMap<(usize, usize), usize> = HashMap::new();
    for b in &batch.b {
        *b_uses.entry(slice_key(b)).or_insert(0) += 1;
    }
    let mut shared_b: HashMap<(usize, usize), PackedB> = HashMap::new();
    for b in &batch.b {
        let key = slice_key(b);
        if b_uses[&key] > 1 && !shared_b.contains_key(&key) {
            shared_b.insert(key, PackedB::new(plan, b));
        }
    }

    // The item calls share one watchdog-free supervision: the cancel
    // token interrupts mid-item, breaker reroutes are forwarded, and
    // observed faults aggregate here (propagated to `sup` below). The
    // batch monitor owns the deadline/watchdog at item granularity —
    // one hub registration per batch, not per item.
    let mut item_sup = Supervision::none();
    if let Some(tok) = &sup.cancel {
        item_sup = item_sup.with_cancel(tok.clone());
    }
    if let Some(rt) = &sup.runtime {
        item_sup = item_sup.with_runtime(rt.clone());
    }
    item_sup.set_force_reference(sup.force_reference);
    item_sup.set_force_transient(sup.force_transient);
    item_sup.set_force_inline(sup.force_inline);
    let item_sup = item_sup;

    let exec = Exec::new(sup, false);
    let monitor = RunMonitor::new(sup, threads);
    let watchdog = exec.runtime().watch(&monitor);
    monitor.begin_phase();
    // One panel pool per runner slot: A-panel buffers are recycled
    // across every item that runner claims.
    let pools: Vec<PanelPool> = (0..threads).map(|_| PanelPool::new()).collect();
    let mut outputs: Vec<&mut [f32]> = c.chunks_mut(item).collect();
    let outputs = UnitSlots::new(&mut outputs);
    let result =
        native::try_drain("batch", batch.len(), threads, &exec, &monitor, false, |t, i| {
            let ops = match shared_b.get(&slice_key(batch.b[i])) {
                Some(packed) => Operands::prepacked(batch.a[i], packed),
                None => Operands::new(batch.a[i], batch.b[i]),
            };
            // SAFETY: `i` is this runner's claimed item.
            let c_item = unsafe { outputs.claim(i) };
            match native::try_gemm_with_plan_supervised(
                plan, ops, c_item, 1, &pools[t], &item_sup, false,
            ) {
                Ok(_) => Ok(()),
                // A cancelled item is the batch being cancelled, not an item
                // fault: the batch monitor reports the progress.
                Err(e @ GemmError::Cancelled { .. }) => Err(e),
                Err(e) => Err(GemmError::InBatch { index: i, source: Box::new(e) }),
            }
        });
    monitor.finish();
    drop(watchdog);
    for path in BreakerPath::ALL {
        if item_sup.observed_fault(path) {
            sup.observe_fault(path);
        }
    }
    result.map(|_| ())
}

/// Validate the output against the batch: `c` must hold `len · m · n`
/// elements. Returns the item size `m · n`.
pub(crate) fn check_output(batch: &GemmBatch, c: &[f32]) -> Result<usize, GemmError> {
    let item = error::checked_size("m*n", batch.m, batch.n)?;
    error::check_len(Operand::C, "len*m*n", c.len(), batch.len(), item)?;
    Ok(item)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutoGemm;
    use autogemm_arch::ChipSpec;

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
    }

    #[test]
    fn batch_matches_naive() {
        let engine = AutoGemm::new(ChipSpec::graviton2());
        let (m, n, k, items) = (8usize, 12usize, 16usize, 7usize);
        let plan = engine.plan(m, n, k);
        let a_store: Vec<Vec<f32>> = (0..items)
            .map(|t| (0..m * k).map(|i| ((i + t * 3) % 9) as f32 - 4.0).collect())
            .collect();
        let b_store: Vec<Vec<f32>> = (0..items)
            .map(|t| (0..k * n).map(|i| ((i * 5 + t) % 11) as f32 - 5.0).collect())
            .collect();
        let mut batch = GemmBatch::new(m, n, k);
        for t in 0..items {
            batch.push(&a_store[t], &b_store[t]);
        }
        let mut c = vec![0.0f32; items * m * n];
        try_gemm_batch_supervised(&plan, &batch, &mut c, 3, &Supervision::none()).unwrap();
        for t in 0..items {
            let mut want = vec![0.0f32; m * n];
            naive(m, n, k, &a_store[t], &b_store[t], &mut want);
            assert_eq!(&c[t * m * n..(t + 1) * m * n], &want[..], "item {t}");
        }
    }

    #[test]
    fn single_thread_batch_matches_multithread() {
        let engine = AutoGemm::new(ChipSpec::m2());
        let (m, n, k, items) = (5usize, 16usize, 8usize, 5usize);
        let plan = engine.plan(m, n, k);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 3) as f32).collect();
        let mut batch = GemmBatch::new(m, n, k);
        for _ in 0..items {
            batch.push(&a, &b);
        }
        let mut c1 = vec![0.0f32; items * m * n];
        try_gemm_batch_supervised(&plan, &batch, &mut c1, 1, &Supervision::none()).unwrap();
        let mut c4 = vec![0.0f32; items * m * n];
        try_gemm_batch_supervised(&plan, &batch, &mut c4, 4, &Supervision::none()).unwrap();
        assert_eq!(c1, c4);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let engine = AutoGemm::new(ChipSpec::kp920());
        let plan = engine.plan(4, 4, 4);
        let batch = GemmBatch::new(4, 4, 4);
        let mut c: Vec<f32> = vec![];
        try_gemm_batch_supervised(&plan, &batch, &mut c, 4, &Supervision::none()).unwrap();
    }

    #[test]
    #[should_panic(expected = "m*k")]
    fn wrong_item_shape_panics() {
        let mut batch = GemmBatch::new(4, 4, 4);
        let a = vec![0.0f32; 7];
        let b = vec![0.0f32; 16];
        batch.push(&a, &b);
    }

    #[test]
    fn flops_accounting() {
        let mut batch = GemmBatch::new(2, 3, 4);
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 12];
        batch.push(&a, &b);
        batch.push(&a, &b);
        assert_eq!(batch.flops(), 2 * 2 * 3 * 4 * 2);
    }
}
