//! The structured error model of the fallible GEMM front door.
//!
//! Every native entry point has a `try_*` form returning
//! `Result<_, GemmError>`; the historical infallible names are thin
//! wrappers that panic with the *same* structured message
//! ([`GemmError`]'s `Display`), so a caller that prefers aborting loses
//! nothing, and a caller serving traffic can degrade gracefully the way
//! the production BLAS libraries the paper benchmarks against do (§V).
//!
//! ## Panic policy
//!
//! * **Boundary conditions are `Err`, never `panic!`.** Slice-length
//!   mismatches, size-computation overflow and plan mismatches are
//!   reported with expected-vs-got detail before any work starts.
//! * **Degenerate shapes are `Ok`.** `m == 0 || n == 0` is an empty
//!   problem (nothing to write); `k == 0` writes `C = 0` (the empty sum),
//!   both without planning.
//! * **Worker panics are contained.** A panic inside a worker thread
//!   poisons the run: surviving workers drain the work queue without
//!   executing further blocks and exit cleanly, and the caller gets
//!   [`GemmError::WorkerPanicked`] with the panicking worker's index and
//!   payload — no deadlock, no abort, no unsoundness.
//! * **Internal invariants may still `debug_assert!`.** Those guard
//!   library bugs, not caller mistakes, and compile out of release
//!   builds.
//!
//! ## The untouched-`C` guarantee
//!
//! On every error *except* [`GemmError::WorkerPanicked`], `C` has not
//! been written at all: validation runs before the first store. On
//! `WorkerPanicked`, `C` may hold a mix of original and partially
//! updated blocks — every element is a value some complete micro-kernel
//! store produced or the original contents (tiles are written whole, so
//! no torn element is observable) — and the buffer is safe to reuse
//! after re-running the GEMM.

/// Which operand a length/shape complaint refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    A,
    B,
    C,
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::A => f.write_str("A"),
            Operand::B => f.write_str("B"),
            Operand::C => f.write_str("C"),
        }
    }
}

/// A structured GEMM failure. See the module docs for the panic policy
/// and the untouched-`C` guarantee.
#[derive(Debug, Clone, PartialEq)]
pub enum GemmError {
    /// An operand slice's length does not match the problem shape.
    SliceLen {
        operand: Operand,
        /// `rows × cols` the shape implies.
        expected: usize,
        got: usize,
        /// The dimension product as written, e.g. `"M*K"`.
        dims: &'static str,
    },
    /// A size computation overflowed `usize` (e.g. `m * k` on a
    /// pathological shape); no buffer of that size can exist, so the
    /// operands cannot match it either.
    SizeOverflow { what: &'static str, lhs: usize, rhs: usize },
    /// A worker thread panicked and the run was poisoned. `thread` is
    /// the worker's index in the pool (the caller thread is worker 0 on
    /// single-threaded runs); `detail` carries the panic payload when it
    /// was a string.
    WorkerPanicked { thread: usize, detail: String },
    /// Panel-buffer allocation failed in the named phase (pool and
    /// unpooled fallback both unavailable — in practice only reachable
    /// through an armed [`crate::faultinject`] plan, since Rust aborts on
    /// true OOM).
    AllocFailed { phase: &'static str },
    /// A prepacked operand was built for a different plan.
    PlanMismatch {
        /// `(m, n, k)` the packed operand was built for.
        expected: (usize, usize, usize),
        got: (usize, usize, usize),
    },
    /// The run was cancelled cooperatively (explicit
    /// [`CancelToken`](crate::supervisor::CancelToken) or an expired
    /// deadline) before the named phase finished. Buffers are released
    /// and the engine is immediately reusable; `C` follows the same
    /// partial-write contract as [`GemmError::WorkerPanicked`] when the
    /// kernel phase had started, and is untouched otherwise.
    Cancelled {
        /// Phase that was interrupted: `"pack A"`, `"pack B"`,
        /// `"kernel"` or `"batch"`.
        phase: &'static str,
        /// Work units (panels, blocks or batch items) completed in that
        /// phase before the stop.
        blocks_done: usize,
        /// Work units the phase had in total.
        blocks_total: usize,
    },
    /// The stuck-worker watchdog observed no heartbeat progress for its
    /// quiescence window and stopped the run. Same buffer/`C` contract
    /// as [`GemmError::Cancelled`].
    Stalled {
        /// Phase in which the stall was detected.
        phase: &'static str,
        /// The configured quiescence window, in milliseconds.
        quiescence_ms: u64,
        /// Per-worker heartbeat counters at the moment of the verdict.
        heartbeats: Vec<u64>,
    },
    /// An item of a [`try_gemm_batch_opts`](crate::AutoGemm::try_gemm_batch_opts) call
    /// failed; `index` is its position in the batch and `source` the
    /// underlying error. Other items may have completed (their `C`
    /// chunks are valid); the failed item's chunk follows `source`'s
    /// own contract.
    InBatch { index: usize, source: Box<GemmError> },
    /// The [`GemmService`](crate::service::GemmService) admission layer
    /// refused the request before any engine work started: `C` is
    /// untouched and no queue or execution slot is held. `queue_depth`
    /// is the number of requests waiting at the moment of the verdict.
    Rejected { reason: RejectReason, queue_depth: usize },
    /// A request admitted by the service failed during execution on the
    /// named tenant's engine; `source` is the underlying engine error
    /// and governs the `C` contract.
    InService { tenant: String, source: Box<GemmError> },
    /// The output-integrity layer ([`verify`](crate::verify)) rejected
    /// the computed `C`. `check` names the detector (`"freivalds"` or
    /// `"non_finite"`), `round` the Freivalds round that tripped (0 for
    /// the non-finite scan), and `max_residual` the largest
    /// `|C·x − A·(B·x)|` component observed. `C` holds the untrusted
    /// result — callers must either discard it or re-run (which
    /// [`try_gemm_resilient`](crate::engine::AutoGemm::try_gemm_resilient)
    /// does automatically on its verified-reexecution rung).
    IntegrityViolation { check: &'static str, round: u32, max_residual: f64 },
}

/// Why the service admission layer refused a request (the `reason` of
/// [`GemmError::Rejected`]).
///
/// Marked `#[non_exhaustive]`: future admission policies may add
/// reasons, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The bounded admission queue was at its configured depth.
    QueueFull,
    /// The tenant already held its maximum share of the queue.
    TenantQueueShare,
    /// The remaining deadline budget was provably insufficient
    /// (perfmodel floor, or observed p95 once warmed) — shed at
    /// admission instead of wasting pool time.
    DeadlineUnmeetable,
    /// The deadline expired while the request was still queued.
    ExpiredInQueue,
    /// The service had been closed; no new work is accepted.
    ServiceClosed,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => f.write_str("admission queue full"),
            RejectReason::TenantQueueShare => f.write_str("tenant queue share exhausted"),
            RejectReason::DeadlineUnmeetable => {
                f.write_str("remaining deadline budget provably insufficient")
            }
            RejectReason::ExpiredInQueue => f.write_str("deadline expired while queued"),
            RejectReason::ServiceClosed => f.write_str("service closed"),
        }
    }
}

impl std::fmt::Display for GemmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GemmError::SliceLen { operand, expected, got, dims } => {
                write!(f, "autogemm: {operand} must hold {dims} = {expected} elements, got {got}")
            }
            GemmError::SizeOverflow { what, lhs, rhs } => {
                write!(f, "autogemm: size computation {what} = {lhs} * {rhs} overflows usize")
            }
            GemmError::WorkerPanicked { thread, detail } => {
                write!(f, "autogemm: worker thread {thread} panicked: {detail}")
            }
            GemmError::AllocFailed { phase } => {
                write!(f, "autogemm: panel allocation failed during {phase}")
            }
            GemmError::PlanMismatch { expected, got } => write!(
                f,
                "autogemm: packed operand was built for a different plan \
                 (packed for {}x{}x{}, plan is {}x{}x{})",
                expected.0, expected.1, expected.2, got.0, got.1, got.2
            ),
            GemmError::Cancelled { phase, blocks_done, blocks_total } => write!(
                f,
                "autogemm: cancelled during {phase} ({blocks_done}/{blocks_total} blocks done)"
            ),
            GemmError::Stalled { phase, quiescence_ms, heartbeats } => write!(
                f,
                "autogemm: stalled during {phase}: no worker heartbeat for {quiescence_ms} ms \
                 (heartbeats {heartbeats:?})"
            ),
            GemmError::InBatch { index, source } => {
                write!(f, "autogemm: batch item {index} failed: {source}")
            }
            GemmError::Rejected { reason, queue_depth } => {
                write!(f, "autogemm: request rejected ({reason}; {queue_depth} queued)")
            }
            GemmError::InService { tenant, source } => {
                write!(f, "autogemm: tenant {tenant:?} call failed: {source}")
            }
            GemmError::IntegrityViolation { check, round, max_residual } => write!(
                f,
                "autogemm: output integrity check {check} failed \
                 (round {round}, max residual {max_residual:e})"
            ),
        }
    }
}

impl std::error::Error for GemmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GemmError::InBatch { source, .. } | GemmError::InService { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

/// `rows * cols`, or [`GemmError::SizeOverflow`] naming the computation.
pub(crate) fn checked_size(
    what: &'static str,
    rows: usize,
    cols: usize,
) -> Result<usize, GemmError> {
    rows.checked_mul(cols).ok_or(GemmError::SizeOverflow { what, lhs: rows, rhs: cols })
}

/// Validate one operand slice against its `rows × cols` shape.
pub(crate) fn check_len(
    operand: Operand,
    dims: &'static str,
    len: usize,
    rows: usize,
    cols: usize,
) -> Result<(), GemmError> {
    let expected = checked_size(dims, rows, cols)?;
    if len != expected {
        return Err(GemmError::SliceLen { operand, expected, got: len, dims });
    }
    Ok(())
}

/// Validate the three `C (M×N) = A (M×K) · B (K×N)` operands at once.
pub(crate) fn check_operands(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &[f32],
) -> Result<(), GemmError> {
    check_len(Operand::A, "M*K", a.len(), m, k)?;
    check_len(Operand::B, "K*N", b.len(), k, n)?;
    check_len(Operand::C, "M*N", c.len(), m, n)
}

/// Render a panic payload for [`GemmError::WorkerPanicked`].
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_expected_vs_got() {
        let e = GemmError::SliceLen { operand: Operand::A, expected: 12, got: 7, dims: "M*K" };
        let msg = e.to_string();
        assert!(msg.contains("A must hold M*K = 12 elements, got 7"), "{msg}");
    }

    #[test]
    fn overflow_is_reported_not_panicked() {
        let e = checked_size("M*K", usize::MAX, 2).unwrap_err();
        assert!(matches!(e, GemmError::SizeOverflow { what: "M*K", .. }));
        assert!(e.to_string().contains("overflows usize"));
    }

    #[test]
    fn check_operands_names_the_offender() {
        let a = vec![0.0f32; 6];
        let b = vec![0.0f32; 6];
        let c = vec![0.0f32; 3];
        let e = check_operands(2, 2, 3, &a, &b, &c).unwrap_err();
        assert_eq!(
            e,
            GemmError::SliceLen { operand: Operand::C, expected: 4, got: 3, dims: "M*N" }
        );
    }

    #[test]
    fn panic_detail_downcasts_strings() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_detail(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_detail(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_detail(s.as_ref()), "non-string panic payload");
    }

    #[test]
    fn plan_mismatch_mentions_different_plan() {
        let e = GemmError::PlanMismatch { expected: (1, 2, 3), got: (4, 5, 6) };
        assert!(e.to_string().contains("different plan"));
    }

    #[test]
    fn cancelled_and_stalled_carry_progress_detail() {
        let e = GemmError::Cancelled { phase: "kernel", blocks_done: 3, blocks_total: 12 };
        assert!(e.to_string().contains("cancelled during kernel (3/12 blocks done)"));
        let e = GemmError::Stalled { phase: "kernel", quiescence_ms: 250, heartbeats: vec![4, 0] };
        let msg = e.to_string();
        assert!(msg.contains("stalled during kernel"), "{msg}");
        assert!(msg.contains("250 ms"), "{msg}");
        assert!(msg.contains("[4, 0]"), "{msg}");
    }

    #[test]
    fn in_batch_names_the_index_and_chains_the_source() {
        use std::error::Error as _;
        let inner = GemmError::AllocFailed { phase: "pack B" };
        let e = GemmError::InBatch { index: 7, source: Box::new(inner.clone()) };
        let msg = e.to_string();
        assert!(msg.contains("batch item 7 failed"), "{msg}");
        assert!(msg.contains("pack B"), "{msg}");
        let chained = e.source().and_then(|s| s.downcast_ref::<GemmError>());
        assert_eq!(chained, Some(&inner));
    }

    #[test]
    fn rejected_names_reason_and_depth() {
        let e = GemmError::Rejected { reason: RejectReason::QueueFull, queue_depth: 64 };
        let msg = e.to_string();
        assert!(msg.contains("rejected"), "{msg}");
        assert!(msg.contains("admission queue full"), "{msg}");
        assert!(msg.contains("64 queued"), "{msg}");
        use std::error::Error as _;
        assert!(e.source().is_none(), "Rejected is terminal: no inner error");
    }

    /// The satellite source-chain contract: a service wrapper around a
    /// batch failure walks `InService → InBatch → AllocFailed` through
    /// plain `std::error::Error::source`, so `anyhow`-style consumers
    /// see the whole causal chain.
    #[test]
    fn in_service_chains_through_in_batch_to_the_root_cause() {
        use std::error::Error as _;
        let root = GemmError::AllocFailed { phase: "pack A" };
        let batch = GemmError::InBatch { index: 2, source: Box::new(root.clone()) };
        let svc = GemmError::InService { tenant: "acme".into(), source: Box::new(batch.clone()) };
        assert!(svc.to_string().contains("tenant \"acme\""), "{svc}");

        let mut chain = Vec::new();
        let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(&svc);
        while let Some(e) = cur {
            chain.push(e.to_string());
            cur = e.source();
        }
        assert_eq!(chain.len(), 3, "chain was {chain:?}");
        assert!(chain[1].contains("batch item 2"), "{chain:?}");
        assert!(chain[2].contains("pack A"), "{chain:?}");
        let leaf = svc.source().and_then(|s| s.source()).and_then(|s| s.downcast_ref());
        assert_eq!(leaf, Some(&root));
    }

    /// An integrity violation surfacing through the service and batch
    /// wrappers must stay reachable via `source()`: the 3-deep walk
    /// `InService → InBatch → IntegrityViolation` terminates at the
    /// integrity root with its detector detail intact.
    #[test]
    fn integrity_violation_walks_through_service_and_batch_wrappers() {
        use std::error::Error as _;
        let root =
            GemmError::IntegrityViolation { check: "freivalds", round: 1, max_residual: 42.5 };
        let batch = GemmError::InBatch { index: 4, source: Box::new(root.clone()) };
        let svc = GemmError::InService { tenant: "acme".into(), source: Box::new(batch) };

        let mut chain = Vec::new();
        let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(&svc);
        while let Some(e) = cur {
            chain.push(e.to_string());
            cur = e.source();
        }
        assert_eq!(chain.len(), 3, "chain was {chain:?}");
        assert!(chain[1].contains("batch item 4"), "{chain:?}");
        assert!(chain[2].contains("integrity check freivalds failed"), "{chain:?}");
        assert!(chain[2].contains("round 1"), "{chain:?}");
        let leaf = svc.source().and_then(|s| s.source()).and_then(|s| s.downcast_ref());
        assert_eq!(leaf, Some(&root));
    }

    #[test]
    fn integrity_violation_display_names_check_round_and_residual() {
        let e = GemmError::IntegrityViolation {
            check: "non_finite",
            round: 0,
            max_residual: f64::INFINITY,
        };
        let msg = e.to_string();
        assert!(msg.contains("integrity check non_finite failed"), "{msg}");
        assert!(msg.contains("round 0"), "{msg}");
    }
}
