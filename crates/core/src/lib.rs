//! # autogemm
//!
//! The autoGEMM library: auto-generated, auto-tuned single-precision GEMM
//! for irregular matrix shapes on Arm architectures — a faithful Rust
//! reproduction of the SC'24 paper's open-source library, running against
//! the cycle-level Arm machine models of `autogemm-sim` (see the
//! repository's DESIGN.md for the hardware-substitution rationale).
//!
//! ## Quick start
//!
//! ```
//! use autogemm::AutoGemm;
//! use autogemm_arch::ChipSpec;
//!
//! let engine = AutoGemm::new(ChipSpec::graviton2());
//! let (m, n, k) = (26, 36, 64);
//! let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.01).collect();
//! let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32).collect();
//! let mut c = vec![0.0f32; m * n];
//!
//! // Native execution on the host (correctness + wall-clock benches).
//! engine.gemm(m, n, k, &a, &b, &mut c);
//!
//! // Cycle-accurate execution on the modelled chip (the paper's numbers).
//! let report = engine.simulate(m, n, k, 1);
//! println!("{:.1} GFLOPS ({:.1}% of peak)", report.gflops, report.efficiency * 100.0);
//! ```
//!
//! ## Architecture
//!
//! * [`engine`] — [`AutoGemm`]: shape-keyed plan cache → execution plan
//!   (with input-aware operand routing) → native or simulated backends,
//!   with GEMV/small-k fast paths dispatched before the tuner for
//!   degenerate shapes (`m = 1`, `n = 1`, tiny `k`);
//! * [`plan`] — the execution plan: cache blocking + per-block DMT tile
//!   plans, shared by both backends;
//! * [`packing`] — operand packing (`none` / `offline` / `online`) with the
//!   generated kernels' padding contract plus the panel buffer pool
//!   and a per-thread tally of packed panels;
//! * [`simd`] — the explicit SIMD lane layer: a 4-lane `f32` vector
//!   over NEON (aarch64), SSE2/FMA (x86_64, FMA runtime-detected) or a
//!   portable array fallback, plus the cached backend probe;
//! * [`kernels`] — the vector micro-kernels built on it: `(m_r, n̄_r)`
//!   register tiles of `F32x4` accumulators with a 4×-unrolled FMA main
//!   loop, full-tile fast path and masked edge path;
//! * [`native`] — the kernel dispatch table (monomorphized for every
//!   Table II shape, scalar reference retained as oracle/baseline) and
//!   the panel-cache block driver: every operand panel packed exactly
//!   once per GEMM — or streamed unpacked straight from the caller's
//!   row-major matrix when the engine's elision heuristic decides a
//!   panel cannot amortize its pack copy — blocks drained from an
//!   atomic work queue by the persistent worker-pool runtime (the K
//!   dimension is never parallelized, matching the TVM limitation the
//!   paper reports in §V-C);
//! * [`runtime`] — the persistent execution runtime: a process-wide (or
//!   per-engine) pool of long-lived workers parked between submissions —
//!   no per-call thread spawn on the threaded hot path — plus the shared
//!   watchdog-hub monitor thread serving per-run heartbeat
//!   registrations; pool counters surface in the `pool`
//!   report section and [`AutoGemm::pool_stats`];
//! * [`simexec`] — the simulated backend: executes the generated virtual-ISA
//!   kernels block-by-block on the pipeline model, memoizing per-block
//!   cycle counts, and composes multi-core makespans;
//! * [`telemetry`] — the per-GEMM observability layer: wall/cycle
//!   stamps read only by recording calls, per-phase and per-thread
//!   profiles from recording driver calls, the dispatched kernel-shape
//!   histogram, and versioned-JSON [`telemetry::GemmReport`]s joined
//!   against the perfmodel projection (the measured-vs-model feedback
//!   loop every perf PR cites) — plus the always-available engine-
//!   lifetime layer: the [`telemetry::MetricsRegistry`] (counters +
//!   sharded latency/GFLOP-s histograms with p50/p95/p99, Prometheus
//!   export) and the [`telemetry::TraceBuf`] per-worker span timeline
//!   (Chrome trace-event / Perfetto export via
//!   [`AutoGemm::trace_export`]);
//! * [`error`] — the structured error model behind the `try_*` API
//!   surface: [`GemmError`], the panic policy, the untouched-`C`
//!   guarantee and worker-panic containment;
//! * [`faultinject`] — the seeded deterministic fault-injection harness
//!   (one relaxed load per probe while disarmed) that drives the chaos
//!   test suite;
//! * [`supervisor`] — the execution-supervision layer: deadlines and
//!   cooperative cancellation ([`CancelToken`] / [`GemmOptions`]), the
//!   opt-in stuck-worker watchdog, the per-engine backend-quarantine
//!   circuit breaker surfaced in the `health` report section,
//!   and the bounded retry-with-degradation ladder behind
//!   [`AutoGemm::try_gemm_resilient`];
//! * [`verify`] — the always-compiled output-integrity layer:
//!   Freivalds' probabilistic `C·x` vs `A·(B·x)` check plus a
//!   non-finite scan, selectable per call/engine/tenant via
//!   [`VerifyPolicy`], with mismatches surfaced as
//!   [`GemmError::IntegrityViolation`], quarantined through the
//!   `verify_integrity` breaker path, and repaired by the resilient
//!   ladder's verified-reexecution rung.
//!
//! ## Fallible API
//!
//! Every engine entry point except [`AutoGemm::gemm`] returns
//! `Result<_, GemmError>`; `gemm` and the plan-level `gemm_with_plan*`
//! drivers are thin wrappers that panic with the same structured
//! message. See [`error`] for the contract.
//!
//! ```
//! use autogemm::{AutoGemm, GemmError, GemmOptions};
//! use autogemm_arch::ChipSpec;
//!
//! let engine = AutoGemm::new(ChipSpec::graviton2());
//! let a = vec![0.0f32; 4 * 8];
//! let b = vec![0.0f32; 8 * 4];
//! let mut c = vec![0.0f32; 3]; // wrong: needs 4*4 = 16
//! match engine.try_gemm_opts(4, 4, 8, &a, &b, &mut c, &GemmOptions::new().threads(2)) {
//!     Err(GemmError::SliceLen { expected, got, .. }) => {
//!         assert_eq!((expected, got), (16, 3));
//!     }
//!     other => panic!("expected SliceLen, got {other:?}"),
//! }
//! ```

pub mod batch;
pub mod engine;
pub mod error;
pub mod faultinject;
pub(crate) mod gemv;
pub mod kernels;
pub mod native;
pub mod offline;
pub mod packing;
pub mod plan;
pub(crate) mod plancache;
pub mod runtime;
pub mod service;
pub mod simd;
pub mod simexec;
pub mod supervisor;
pub mod telemetry;
pub mod transpose;
pub mod verify;

pub use batch::{try_gemm_batch_supervised, GemmBatch};
pub use engine::{AutoGemm, SimGemmReport};
pub use error::{GemmError, RejectReason};
pub use offline::{try_gemm_prepacked_pooled, PackedB};
pub use packing::PanelPool;
pub use plan::{ExecutionPlan, OperandRouting};
pub use plancache::{PlanCacheStats, PLAN_CACHE_CAPACITY};
pub use runtime::{host_parallelism, PoolStats, Runtime};
pub use service::{GemmService, ServiceConfig, ServiceReply, ShedPolicy, TenantId, TenantQuota};
pub use supervisor::{
    BreakerConfig, BreakerPath, BreakerState, CancelToken, GemmOptions, ResilientMode,
    ResilientReport, Supervision, WatchdogConfig,
};
pub use telemetry::{
    GemmReport, IntegrityReport, MetricsRegistry, MetricsSnapshot, ServiceReport, TraceBuf,
    TraceSpan,
};
pub use transpose::{gemm_op, sgemm, try_gemm_op, try_sgemm, Op};
pub use verify::VerifyPolicy;
