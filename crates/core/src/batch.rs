//! Batched small GEMM — the LIBXSMM-style workload the paper's
//! introduction motivates (blocked sparse solvers, DG/FEM element
//! kernels, N-body interaction blocks): many independent multiplications
//! of one small shape.
//!
//! The batch API tunes the shape once (one [`ExecutionPlan`] shared by
//! every item) and drains items through the persistent worker-pool
//! runtime ([`crate::runtime`]) from a shared cursor; each item owns a
//! disjoint `m·n` slice of the output, so the parallelism is safe by
//! construction.

use crate::error::{self, GemmError, Operand};
use crate::native;
use crate::offline::PackedB;
use crate::packing::PanelPool;
use crate::plan::ExecutionPlan;
use crate::runtime::Exec;
use crate::supervisor::{BreakerPath, RunMonitor, Supervision};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A batch of same-shape GEMMs: `C[i] (+)= A[i] · B[i]`.
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
/// (`len · m · n` elements), either zeroed or carrying accumulation
/// inputs.
///
/// Items that bind the *same* `B` slice (pointer identity) share one
/// offline-packed copy of it: `B` is packed once for the whole group and
/// each item runs through the zero-copy prepacked driver, instead of
/// re-packing `B` per item. Each worker thread also carries its own
/// [`PanelPool`], so A-panel buffers are recycled across that worker's
/// items.
///
/// Output-length and plan-shape mismatches come back as `Err`, and a
/// panicking batch worker poisons the run — the survivors finish their
/// current item, stop, and the caller gets the first failure. Item-level
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
/// `force_transient`) are forwarded into every item call.
pub fn try_gemm_batch_supervised(
    plan: &ExecutionPlan,
    batch: &GemmBatch,
    c: &mut [f32],
    threads: usize,
    sup: &Supervision,
) -> Result<(), GemmError> {
    let (m, n) = (batch.m, batch.n);
    let item = error::checked_size("m*n", m, n)?;
    let expected = item.checked_mul(batch.len()).ok_or(GemmError::SizeOverflow {
        what: "len*m*n",
        lhs: batch.len(),
        rhs: item,
    })?;
    if c.len() != expected {
        return Err(GemmError::SliceLen {
            operand: Operand::C,
            expected,
            got: c.len(),
            dims: "len*m*n",
        });
    }
    let s = &plan.schedule;
    if (s.m, s.n, s.k) != (m, n, batch.k) {
        return Err(GemmError::PlanMismatch { expected: (m, n, batch.k), got: (s.m, s.n, s.k) });
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

    /// Shared view of the disjoint per-item output slices: item `i`
    /// occupies `base[i*len .. (i+1)*len]` and is claimed by exactly one
    /// runner via the cursor.
    struct ItemSlices {
        base: *mut f32,
        len: usize,
    }
    // SAFETY: cursor-claimed indices give exclusive per-item access.
    unsafe impl Sync for ItemSlices {}
    let slices = ItemSlices { base: c.as_mut_ptr(), len: item };
    // Capture the wrapper by reference: edition-2021 closures would
    // otherwise capture the raw-pointer field directly, sidestepping the
    // `Sync` impl.
    let slices = &slices;

    // First failure across the batch (item errors and contained panics
    // share the slot; worker index breaks ties by arrival).
    let first_err: parking_lot::Mutex<Option<GemmError>> = parking_lot::Mutex::new(None);
    let poisoned = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let body = |t: usize| {
        let run = catch_unwind(AssertUnwindSafe(|| {
            // One panel pool per engaged runner: A-panel buffers are
            // recycled across every item this runner claims.
            let pool = PanelPool::new();
            loop {
                if poisoned.load(Ordering::Relaxed) || monitor.should_stop() {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= batch.len() {
                    break;
                }
                // SAFETY: items are disjoint `m·n` windows of `c`; the
                // cursor hands index `i` to exactly one runner and the
                // borrow ends before the section joins.
                let c_item = unsafe {
                    std::slice::from_raw_parts_mut(slices.base.add(i * slices.len), slices.len)
                };
                let r = match shared_b.get(&slice_key(batch.b[i])) {
                    Some(packed) => crate::offline::try_gemm_prepacked_supervised(
                        plan, batch.a[i], packed, c_item, 1, &pool, &item_sup,
                    ),
                    None => native::try_gemm_with_plan_supervised(
                        plan, batch.a[i], batch.b[i], c_item, 1, &pool, &item_sup, false,
                    )
                    .map(|_| ()),
                };
                match r {
                    Ok(()) => {
                        monitor.beat(t);
                        monitor.note_done();
                    }
                    // A cancelled item is the batch being cancelled, not
                    // an item fault: stop and let the batch monitor
                    // report the progress.
                    Err(GemmError::Cancelled { .. }) => break,
                    Err(e) => {
                        let mut slot = first_err.lock();
                        if slot.is_none() {
                            *slot = Some(GemmError::InBatch { index: i, source: Box::new(e) });
                        }
                        poisoned.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            }
        }));
        if let Err(payload) = run {
            let mut slot = first_err.lock();
            if slot.is_none() {
                *slot = Some(GemmError::WorkerPanicked {
                    thread: t,
                    detail: error::panic_detail(payload.as_ref()),
                });
            }
            poisoned.store(true, Ordering::SeqCst);
        }
    };
    exec.run_section_traced(threads, "batch", &body);
    monitor.finish();
    drop(watchdog);
    for path in BreakerPath::ALL {
        if item_sup.observed_fault(path) {
            sup.observe_fault(path);
        }
    }
    match first_err.into_inner() {
        Some(e) => Err(e),
        None => monitor.outcome("batch", batch.len()),
    }
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
