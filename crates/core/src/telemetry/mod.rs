//! Per-GEMM telemetry: scoped timers, phase/thread profiles, and
//! measured-vs-model cycle reports.
//!
//! The paper's whole pipeline — the micro-kernel cycle model (Eqns 6/8),
//! DMT (Algorithm 1) and the tuner's Eqn-13 pruning — runs on *projected*
//! cycle counts. This module closes the loop: every traced GEMM
//! (the engine's [`crate::AutoGemm::try_gemm_traced_opts`], or
//! [`crate::native::try_gemm_with_plan_supervised`] with a recorder) produces a
//! [`GemmReport`] holding
//!
//! * per-phase wall/cycle times (pack-A, pack-B, kernel, drain);
//! * per-call pack counts and traffic bytes, accumulated race-free in
//!   the call's own session (the long-removed process-global
//!   `packing::counters` predecessor required one-GEMM-at-a-time
//!   discipline);
//! * per-thread block counts, busy time and drain (idle-at-the-end) time
//!   from the work-queue driver;
//! * the kernel-shape histogram actually dispatched — including the
//!   sub-tiles the dynamic fallback kernel chunks oversized (SVE-wide)
//!   requests into;
//! * optionally, a join against the `autogemm-perfmodel` projection for
//!   the same `(m_r, n_r, k_c)` tiles ([`GemmReport::join_model`]),
//!   yielding the measured-vs-model cycle ratio every later perf PR is
//!   expected to cite.
//!
//! ## Overhead budget and the `telemetry` feature
//!
//! All time sources live behind the `telemetry` cargo feature. With the
//! feature **off** (the default), [`clock`] stamps return zero and the
//! recording hooks in the packing/dispatch paths compile to empty
//! `#[inline(always)]` functions — the hot paths are bit-for-bit the
//! untraced code, and recording calls still run correctly but report
//! zeroed timings/counters. With the feature **on**, a call without a
//! recorder reads no telemetry clock (recording hooks check a
//! thread-local session handle that only a recording call installs); a
//! recording call adds one stamp pair per phase, one per claimed block,
//! and one histogram bump per dispatched micro-tile — all far below the
//! work they measure (a block is `O(m_c·n_c·k)` FLOPs, a tile
//! `O(m_r·n_r·k_c)`).
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
//! Two sibling layers are **not** behind the `telemetry` feature — they
//! are always compiled and toggled/attached at runtime, because a
//! release-build service must still be able to read them:
//!
//! * [`metrics`] — the engine/runtime [`MetricsRegistry`]: monotonic
//!   counters (calls, errors, breaker transitions, retry rungs,
//!   plan-cache hits/misses/evictions), an in-flight gauge, and sharded
//!   log-bucket histograms (call latency, achieved GFLOP-s, pool
//!   wake/busy/park) merged on read into a [`MetricsSnapshot`] with
//!   p50/p95/p99, a schema-v5 JSON section, and a Prometheus
//!   text-exposition dump;
//! * [`tracebuf`] — the bounded per-worker span ring ([`TraceBuf`])
//!   behind `AutoGemm::with_tracing`, exported as Chrome trace-event
//!   JSON for Perfetto / `chrome://tracing` (the `gemmtrace --timeline`
//!   artifact).

pub mod clock;
pub mod json;
pub mod metrics;
pub mod report;
pub mod session;
pub mod tracebuf;

pub use clock::{ScopedTimer, Stamp, ENABLED};
pub use json::{Json, JsonError};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, HIST_BUCKETS,
};
pub use report::{
    DispatchStats, FallbackStats, GemmReport, HealthReport, IntegrityReport, ModelJoin, PackStats,
    PathHealth, PhaseProfile, PhaseTimes, ServiceReport, ThreadProfile, TileCount,
    MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use session::Session;
pub use tracebuf::{TraceBuf, TraceSpan};
