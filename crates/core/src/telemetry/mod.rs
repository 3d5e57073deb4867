//! Per-GEMM telemetry: scoped timers, phase/thread profiles, and
//! measured-vs-model cycle reports.
//!
//! The paper's whole pipeline — the micro-kernel cycle model (Eqns 6/8),
//! DMT (Algorithm 1) and the tuner's Eqn-13 pruning — runs on *projected*
//! cycle counts. This module closes the loop: every traced GEMM
//! (the engine's [`crate::AutoGemm::try_gemm_traced_opts`], or
//! [`crate::native::try_gemm_with_plan_supervised`] with `record` set)
//! produces a [`GemmReport`] holding
//!
//! * per-phase wall/cycle times (pack-A, pack-B, kernel, drain);
//! * per-call pack counts and traffic bytes, measured race-free as the
//!   change in each pack runner's thread-local tally
//!   ([`crate::packing::thread_pack_counts`]);
//! * per-thread block counts, busy time and drain (idle-at-the-end) time
//!   from the work-queue driver;
//! * the kernel-shape histogram of the completed run, derived once per
//!   call from the plan and the operand routing — including the
//!   sub-tiles the dynamic fallback kernel chunks oversized (SVE-wide)
//!   requests into;
//! * optionally, a join against the `autogemm-perfmodel` projection for
//!   the same `(m_r, n_r, k_c)` tiles ([`GemmReport::join_model`]),
//!   yielding the measured-vs-model cycle ratio every later perf PR is
//!   expected to cite.
//!
//! ## Overhead budget
//!
//! There is one build, and its clocks are live. An unrecorded call reads
//! no telemetry clock and takes no profile lock: every [`clock`] stamp in
//! the drivers sits behind the call's `record` flag. The only always-on
//! accounting is one thread-local bump per packed panel (`O(m_c·k_c)`
//! copied elements); the micro-tile path carries no hook at all. A
//! recording call adds one stamp pair per phase and per claimed block,
//! one lock per pack runner and per kernel runner, and one walk over the
//! plan's placements for the tile histogram — all far below the work
//! they measure (a block is `O(m_c·n_c·k)` FLOPs).
//!
//! ## Report schema
//!
//! [`GemmReport`] serializes to a versioned JSON object
//! ([`report::SCHEMA_VERSION`], guarded on read by
//! [`GemmReport::from_json`]); `BENCH_gemmtrace.json` is an array of such
//! reports emitted by the `gemmtrace` bench bin. serde is an offline stub
//! in this workspace, so serialization is hand-rolled over the minimal
//! [`json`] value model.

//! ## Engine-lifetime observability
//!
//! Two sibling layers live for the engine's lifetime rather than one
//! call's, toggled or attached at runtime:
//!
//! * [`metrics`] — the engine/runtime [`MetricsRegistry`]: monotonic
//!   counters (calls, errors, breaker transitions, retry rungs,
//!   plan-cache hits/misses/evictions), an in-flight gauge, and sharded
//!   log-bucket histograms (call latency, achieved GFLOP-s, pool
//!   wake/busy/park) merged on read into a [`MetricsSnapshot`] with
//!   p50/p95/p99, a JSON section, and a Prometheus
//!   text-exposition dump;
//! * [`tracebuf`] — the bounded per-worker span ring ([`TraceBuf`])
//!   behind `AutoGemm::with_tracing`, exported as Chrome trace-event
//!   JSON for Perfetto / `chrome://tracing` (the `gemmtrace --timeline`
//!   artifact).

pub mod clock;
pub mod json;
pub mod metrics;
pub mod report;
pub mod tracebuf;

pub use clock::Stamp;
pub use json::{Json, JsonError};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, WarmLatency,
    HIST_BUCKETS,
};
pub use report::{
    DispatchStats, FallbackStats, GemmReport, HealthReport, IntegrityReport, ModelJoin, PackStats,
    PathHealth, PhaseProfile, PhaseTimes, ServiceReport, ThreadProfile, TileCount, SCHEMA_VERSION,
};
pub use tracebuf::{TraceBuf, TraceSpan};
