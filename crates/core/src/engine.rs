//! The [`AutoGemm`] engine: the library's front door.
//!
//! The GEMM surface is five entry points — [`AutoGemm::gemm`] (the one
//! panicking convenience), [`AutoGemm::try_gemm_opts`],
//! [`AutoGemm::try_gemm_traced_opts`], [`AutoGemm::try_gemm_batch_opts`]
//! and [`AutoGemm::try_gemm_resilient`] — with every per-call setting
//! in [`GemmOptions`]. The single-GEMM forms share one private call
//! path: validate → breaker admission and supervision set-up → fast
//! route or plan → driver → verify → breaker record. Tracing rides on
//! that path as its `record` flag, and the resilient ladder's rungs
//! as a [`ResilientMode`]; batches share the same set-up and breaker
//! record.

use crate::batch::GemmBatch;
use crate::error::{self, GemmError};
use crate::gemv;
use crate::native;
use crate::plan::{ExecutionPlan, OperandRouting};
use crate::plancache::{PlanCache, PlanCacheStats, PlanKey};
use crate::runtime::{PoolStats, Runtime};
use crate::simexec::{self, BlockCost};
use crate::supervisor::{
    is_retryable, Admission, Breaker, BreakerConfig, BreakerPath, GemmOptions, ResilientMode,
    ResilientReport, Supervision,
};
use crate::telemetry::metrics::{
    CallOutcome, Counter, MetricsRegistry, MetricsSnapshot, WarmLatency,
};
use crate::telemetry::{DispatchStats, HealthReport, IntegrityReport, TraceBuf};
use crate::verify::{self, VerifyPolicy};
use autogemm_arch::ChipSpec;
use autogemm_perfmodel::ModelOpts;
use autogemm_sim::Warmth;
use autogemm_tiling::TilePlacement;
use autogemm_tuner::{tune_with, Packing};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result of a simulated GEMM run on the modelled chip.
#[derive(Debug, Clone, Copy)]
pub struct SimGemmReport {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub threads: usize,
    /// Wall-clock seconds on the modelled chip.
    pub seconds: f64,
    pub gflops: f64,
    /// Fraction of the configuration's peak (threads × core peak).
    pub efficiency: f64,
    /// Whether memory bandwidth limited the run.
    pub bw_limited: bool,
    /// Packing mode the tuner chose.
    pub packing: Packing,
}

/// Everything [`simexec::simulate_block`] reads from a plan besides the
/// engine's chip: the block extents, whether `B` is packed (which sets its
/// layout and `ldb`), σ_lane, the kernel options (fusion picks the chained
/// or per-launch run), the warmth override and the block's tiles.
#[derive(PartialEq, Eq, Hash)]
struct BlockSimKey {
    block: (usize, usize, usize),
    packed_b: bool,
    sigma_lane: usize,
    opts: ModelOpts,
    warmth: Option<Warmth>,
    placements: Vec<TilePlacement>,
}

impl BlockSimKey {
    fn of(plan: &ExecutionPlan) -> Self {
        let s = &plan.schedule;
        BlockSimKey {
            block: (s.mc, s.nc, s.kc),
            packed_b: s.packing != Packing::None,
            sigma_lane: plan.sigma_lane,
            opts: plan.opts,
            warmth: plan.warmth,
            placements: plan.block_plan.placements.clone(),
        }
    }
}

/// The autoGEMM engine for one target chip: tunes and plans each shape on
/// first use with the analytic model, executes natively, and runs the
/// cycle-level simulator (memoized per block) only when asked to simulate.
pub struct AutoGemm {
    chip: ChipSpec,
    allow_offline: bool,
    cmg_replication: bool,
    /// Shape-keyed plan cache in front of the tuner: a repeated
    /// `(m, n, k, threads, backend)` skips tuning, DMT planning and the
    /// elision heuristic entirely (see [`crate::plancache`]).
    plans: PlanCache,
    /// Simulated block costs for [`Self::simulate`] and
    /// [`Self::simulate_with_plan`]; nothing that serves a GEMM fills it.
    block_sims: Mutex<HashMap<BlockSimKey, BlockCost>>,
    /// Recycles panel buffers across native GEMM calls: the engine's
    /// steady state packs into warm allocations instead of fresh `vec!`s.
    panel_pool: crate::packing::PanelPool,
    /// Backend-quarantine circuit breaker shared by every native call
    /// through this engine (see [`crate::supervisor`]).
    breaker: Breaker,
    /// The persistent worker-pool runtime every threaded call through
    /// this engine submits to (the process-wide pool by default; see
    /// [`crate::runtime`]). Requested thread counts are clamped to its
    /// capacity.
    runtime: Arc<Runtime>,
    /// Engine-lifetime metrics registry: call latency/throughput
    /// histograms and outcome/breaker/plan-cache counters, accumulated
    /// across every front-door call (see [`crate::telemetry::metrics`]).
    /// Shared with the plan cache and breaker via one-time hooks.
    metrics: Arc<MetricsRegistry>,
    /// Optional cross-worker span recorder ([`Self::with_tracing`]):
    /// pack/kernel/submit/wake/drain spans land here, exported as a
    /// Chrome trace-event timeline by [`Self::trace_export`].
    tracer: Option<Arc<TraceBuf>>,
    /// Engine-default output-integrity policy ([`Self::with_verify_policy`]);
    /// a non-`Off` per-call [`GemmOptions::verify`] overrides it.
    verify_default: VerifyPolicy,
    /// Monotone sequence the `Sample` policy's deterministic 1-in-`rate`
    /// selection counts on (bumped only by sampled calls, so `Always`
    /// bursts don't skew the cadence).
    verify_seq: AtomicU64,
}

impl AutoGemm {
    /// Create an engine targeting `chip`.
    pub fn new(chip: ChipSpec) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let plans = PlanCache::new();
        plans.attach_metrics(Arc::clone(&metrics));
        let breaker = Breaker::default();
        breaker.attach_metrics(Arc::clone(&metrics));
        AutoGemm {
            chip,
            allow_offline: false,
            cmg_replication: false,
            plans,
            block_sims: Mutex::new(HashMap::new()),
            panel_pool: crate::packing::PanelPool::new(),
            breaker,
            runtime: Runtime::global(),
            metrics,
            tracer: None,
            verify_default: VerifyPolicy::Off,
            verify_seq: AtomicU64::new(0),
        }
    }

    /// Set the engine-default output-integrity policy: every supervised
    /// call whose [`GemmOptions::verify`] is `Off` inherits it. See
    /// [`crate::verify`] for the check and its cost model.
    pub fn with_verify_policy(mut self, policy: VerifyPolicy) -> Self {
        self.verify_default = policy;
        self
    }

    /// The engine-default output-integrity policy.
    pub fn verify_policy(&self) -> VerifyPolicy {
        self.verify_default
    }

    /// Submit this engine's threaded sections to `rt` instead of the
    /// process-wide pool — isolation for services that want per-tenant
    /// worker budgets, or tests that need a private pool to observe.
    pub fn with_runtime(mut self, rt: Arc<Runtime>) -> Self {
        self.runtime = rt;
        self
    }

    /// The worker-pool runtime this engine submits to.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Lifetime counters of the engine's worker-pool runtime
    /// (submissions, wake latency, busy/park time, clamp events); also
    /// stamped on every traced report's `pool` section.
    pub fn pool_stats(&self) -> PoolStats {
        self.runtime.stats()
    }

    /// Engine-lifetime metrics snapshot: call-latency and throughput
    /// quantiles (p50/p95/p99), outcome counters, breaker transitions,
    /// plan-cache hit/miss/eviction counts, and the runtime's pool
    /// wake/busy/park histograms — everything accumulated since the
    /// engine (and its runtime) were created. The snapshot serializes to
    /// the `metrics` report section and to Prometheus text
    /// exposition via [`MetricsSnapshot::to_prometheus`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        // Pool instrumentation lives in the runtime's registry (workers
        // outlive any one engine); merge its histograms into the view.
        let pool = self.runtime.metrics().snapshot();
        snap.pool_wake_ns = pool.pool_wake_ns;
        snap.pool_busy_ns = pool.pool_busy_ns;
        snap.pool_park_ns = pool.pool_park_ns;
        snap
    }

    /// Decaying latency of this engine's successful plan-cache-hit calls
    /// and how many there were: one relaxed load, cheap enough to consult
    /// before every call (the service's shed check does). Frozen while
    /// metrics are disabled.
    pub fn warm_latency(&self) -> WarmLatency {
        self.metrics.warm_latency()
    }

    /// Toggle metrics recording at runtime. Disabled, every front-door
    /// call pays exactly one relaxed atomic load (the `RunMonitor`
    /// passive-path contract); counters and histograms freeze at their
    /// current values and [`Self::metrics`] still snapshots them.
    pub fn set_metrics_enabled(&self, enabled: bool) {
        self.metrics.set_enabled(enabled);
        self.runtime.metrics().set_enabled(enabled);
    }

    /// Whether the engine registry is currently recording.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }

    /// Attach a cross-worker span recorder holding up to
    /// `spans_per_track` recent spans for each of the runtime's worker
    /// tracks (plus the caller track). Supervised calls then emit
    /// pack/kernel phase spans and submit/wake/drain pool spans;
    /// [`Self::trace_export`] renders them as a Chrome trace-event
    /// timeline loadable in Perfetto or `chrome://tracing`.
    pub fn with_tracing(mut self, spans_per_track: usize) -> Self {
        self.tracer = Some(Arc::new(TraceBuf::new(self.runtime.capacity(), spans_per_track)));
        self
    }

    /// The attached span recorder, if tracing was enabled.
    pub fn tracer(&self) -> Option<&Arc<TraceBuf>> {
        self.tracer.as_ref()
    }

    /// Export the recorded span timeline as Chrome trace-event JSON
    /// (`None` unless built [`Self::with_tracing`]).
    pub fn trace_export(&self) -> Option<String> {
        self.tracer.as_ref().map(|t| t.export_chrome_json())
    }

    /// Clamp a requested worker count to what the runtime can actually
    /// engage (pool workers + the calling thread), recording the
    /// fallback in the pool counters when it bites.
    fn clamp_threads(&self, requested: usize) -> usize {
        let threads = requested.max(1);
        let cap = self.runtime.capacity();
        if threads > cap {
            self.runtime.note_clamped();
            return cap;
        }
        threads
    }

    /// Replace the circuit breaker's count thresholds (chaos tests and
    /// services with unusual call rates; the defaults suit steady
    /// request streams).
    pub fn with_breaker_config(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = Breaker::new(cfg);
        // The replacement breaker must keep feeding the engine registry.
        self.breaker.attach_metrics(Arc::clone(&self.metrics));
        self
    }

    /// Enable CMG-aware operand placement: shared panels are packed once
    /// per NUMA domain, eliminating cross-domain traffic at the cost of
    /// replicated packing — the SVE multi-core optimization the paper
    /// names as future work (§V-C/E). Only affects multi-domain chips.
    pub fn with_cmg_replication(mut self) -> Self {
        self.cmg_replication = true;
        self
    }

    /// Allow offline packing (the caller promises `B` reuse across calls,
    /// matching the paper's LibShalom-comparable configuration in Fig 9).
    pub fn with_offline_packing(mut self) -> Self {
        self.allow_offline = true;
        self
    }

    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }

    /// Tune and DMT-plan one shape for a thread budget. Memoization
    /// lives one layer up, in the shape-keyed plan cache consulted by
    /// [`Self::plan_dispatch`] — this function always runs the tuner.
    fn tuned_plan(&self, m: usize, n: usize, k: usize, threads: usize) -> ExecutionPlan {
        if m == 0 || n == 0 || k == 0 {
            // The tuner's cost model divides by block trip counts, so a
            // degenerate dim cannot be tuned directly. Tune the clamped
            // shape and restore the true dims: such a plan is only ever
            // used for validation (every driver early-returns on a zero
            // dim before touching the block grid).
            let mut plan = self.tuned_plan(m.max(1), n.max(1), k.max(1), threads);
            plan.schedule.m = m;
            plan.schedule.n = n;
            plan.schedule.k = k;
            return plan;
        }
        if threads > 1 {
            // The paper measures its model-ranked shortlist offline on the
            // target chip (§IV-C). A first call on an arbitrary host has
            // no such measurement to stand in for, so the shortlist is
            // re-ranked by Eqn 13: each candidate's DMT plan is priced by
            // the derated projected cycles of its tiles, spread over the
            // block grid by the makespan model. The winner's plan is
            // returned, not built again.
            let candidates = autogemm_tuner::tune_multicore_topk(
                m,
                n,
                k,
                &self.chip,
                self.allow_offline,
                threads,
                6,
            );
            let mut best: Option<(f64, ExecutionPlan)> = None;
            for cand in candidates {
                let plan = ExecutionPlan::from_schedule(cand, &self.chip);
                let kc = plan.schedule.kc;
                let cycles = plan.block_plan.effective_cycles(kc, &self.chip, plan.opts);
                let block = BlockCost {
                    cycles: cycles.round() as u64,
                    tiles: plan.block_plan.tile_count() as u64,
                };
                let works = simexec::thread_works(&plan, &self.chip, block, threads);
                let seconds = autogemm_sim::makespan(&self.chip, &works).seconds;
                if best.as_ref().is_none_or(|(b, _)| seconds < *b) {
                    best = Some((seconds, plan));
                }
            }
            // An empty shortlist (degenerate shape, pathological model
            // output) falls back to the single-core tuner instead of
            // panicking.
            if let Some((_, plan)) = best {
                return plan;
            }
        }
        ExecutionPlan::from_schedule(tune_with(m, n, k, &self.chip, self.allow_offline), &self.chip)
    }

    /// The dispatch-facing plan lookup: consult the shape-keyed plan
    /// cache, tuning + DMT-planning + applying the packing-elision
    /// routing ([`autogemm_perfmodel::route_packing`]) only on a miss.
    /// Returns the shared plan and whether this call hit the cache.
    fn plan_dispatch(
        &self,
        m: usize,
        n: usize,
        k: usize,
        tuner_threads: usize,
    ) -> (Arc<ExecutionPlan>, bool) {
        let key = PlanKey {
            m,
            n,
            k,
            threads: tuner_threads,
            backend: crate::simd::SimdBackend::detect().name(),
        };
        self.plans.get_or_build(key, || {
            let plan = self.tuned_plan(m, n, k, tuner_threads);
            let (tm, tn, _) = plan.grid();
            let r = autogemm_perfmodel::route_packing(m, n, k, tm, tn);
            plan.with_routing(OperandRouting { pack_a: r.pack_a, pack_b: r.pack_b })
        })
    }

    /// Cumulative hit/miss/eviction counters of the engine's shape-keyed
    /// plan cache (hits and misses are also stamped on every traced
    /// report's `dispatch` section). The cache is bounded at
    /// [`crate::PLAN_CACHE_CAPACITY`] entries with LRU eviction.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// The execution plan the engine would use for a problem.
    ///
    /// Returned plans always carry fully *packed* operand routing, what
    /// plan-level callers (the [`crate::offline`] prepacked entry point,
    /// `gemm_with_plan*`, the transposed forms) have always run and what
    /// the batch path's shared-`B` reuse expects. Packing elision is an
    /// engine-internal dispatch decision.
    pub fn plan(&self, m: usize, n: usize, k: usize) -> ExecutionPlan {
        let (plan, _) = self.plan_dispatch(m, n, k, 1);
        (*plan).clone().with_routing(OperandRouting::packed())
    }

    /// Plan under the multi-core `k_c = K` constraint (§V-C), with enough
    /// parallel blocks for `threads` workers. Packed routing, as
    /// [`Self::plan`].
    pub fn plan_multicore(&self, m: usize, n: usize, k: usize, threads: usize) -> ExecutionPlan {
        let (plan, _) = self.plan_dispatch(m, n, k, threads.max(2));
        (*plan).clone().with_routing(OperandRouting::packed())
    }

    /// Native GEMM on the host: `C = A·B`, row-major, single-threaded,
    /// with panel buffers recycled through the engine's pool — the one
    /// panicking convenience over [`Self::try_gemm_opts`].
    ///
    /// Panics with the structured [`GemmError`] message on invalid
    /// operands or a contained worker panic; [`Self::try_gemm_opts`] is
    /// the non-panicking form.
    pub fn gemm(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        if let Err(e) = self.try_gemm_opts(m, n, k, a, b, c, &GemmOptions::new()) {
            panic!("{e}");
        }
    }

    /// The supervised front door: execute with per-call [`GemmOptions`]
    /// (threads, deadline, cancel token, watchdog, verify policy).
    /// Operand mismatches come back as `Err` before any plan is tuned,
    /// degenerate shapes (`m`, `n` or `k` zero) early-return, and worker
    /// panics are contained per the [`crate::error`] policy. Every call
    /// consults the engine's circuit breaker: quarantined paths are
    /// rerouted (scalar kernels / transient buffers / single thread /
    /// inline section drains) and call outcomes advance the breaker
    /// state machine. Cancelled calls are neutral — they never move the
    /// breaker. A deadline stops the run cooperatively at the next
    /// panel/block boundary; one that never fires costs one clock read
    /// per claimed block (see [`crate::supervisor`]).
    #[allow(clippy::too_many_arguments)]
    pub fn try_gemm_opts(
        &self,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        opts: &GemmOptions,
    ) -> Result<(), GemmError> {
        self.run_supervised(m, n, k, a, b, c, opts, ResilientMode::AsRequested, false).map(|_| ())
    }

    /// [`Self::try_gemm_opts`] with per-call telemetry: the same call
    /// path with recording on, returning the [`crate::GemmReport`] —
    /// phase breakdown, pack stats, per-thread busy profiles, the
    /// dispatched kernel-shape histogram, the route taken and any
    /// graceful degradation ([`crate::telemetry::FallbackStats`]). Output
    /// `C` is bit-identical to the untraced call.
    /// The report's `health` section holds the post-call breaker
    /// snapshot plus every transition this call performed, and its
    /// `metrics` section the post-call registry view.
    #[allow(clippy::too_many_arguments)]
    pub fn try_gemm_traced_opts(
        &self,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        opts: &GemmOptions,
    ) -> Result<crate::GemmReport, GemmError> {
        let report =
            self.run_supervised(m, n, k, a, b, c, opts, ResilientMode::AsRequested, true)?;
        // Degenerate shapes run nothing: report the shape with an
        // otherwise-empty profile.
        let mut report = report.unwrap_or(crate::GemmReport { m, n, k, ..Default::default() });
        report.metrics = Some(self.metrics());
        Ok(report)
    }

    /// [`Self::try_gemm_opts`] with one bounded retry-with-degradation
    /// ladder for *retryable* failures (worker panic, allocation
    /// failure, stall): as requested → single thread → single thread
    /// with scalar kernels and transient buffers. Deliberate stops
    /// (`Cancelled`) and caller mistakes (shape/plan errors) are never
    /// retried. Returns which rung succeeded; the terminal error of the
    /// last rung otherwise.
    ///
    /// The deadline budget spans the whole ladder: time a failed rung
    /// consumed is deducted before the next rung runs, and a budget
    /// exhausted between rungs surfaces as [`GemmError::Cancelled`]
    /// (`phase: "retry"`) instead of granting each rung a fresh full
    /// deadline.
    #[allow(clippy::too_many_arguments)]
    pub fn try_gemm_resilient(
        &self,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        opts: &GemmOptions,
    ) -> Result<ResilientReport, GemmError> {
        let start = std::time::Instant::now();
        let err =
            match self.run_supervised(m, n, k, a, b, c, opts, ResilientMode::AsRequested, false) {
                Ok(_) => {
                    return Ok(ResilientReport { attempts: 1, mode: ResilientMode::AsRequested })
                }
                Err(e) => e,
            };
        if matches!(err, GemmError::IntegrityViolation { .. }) {
            // The verified-reexecution rung: the computed output failed
            // the integrity check, so re-run on the trusted scalar
            // reference path (single thread, transient buffers) and
            // verify that result too — the caller gets either a checked
            // `C` or the violation, never a silently wrong answer. `C`
            // is fully overwritten by the re-run (drivers write, not
            // accumulate), so the corrupted buffer needs no reset.
            let rung_opts = Self::deduct_deadline(opts, start)?.verify(VerifyPolicy::Always);
            let mode = ResilientMode::VerifiedReexecution;
            self.metrics.add(Counter::VerifyReexecutions, 1);
            return self
                .run_supervised(m, n, k, a, b, c, &rung_opts, mode, false)
                .map(|_| ResilientReport { attempts: 2, mode });
        }
        if !is_retryable(&err) {
            return Err(err);
        }
        let rung_opts = Self::deduct_deadline(opts, start)?;
        self.metrics.add(Counter::RetryAttempts, 1);
        let mode = ResilientMode::SingleThread;
        match self.run_supervised(m, n, k, a, b, c, &rung_opts, mode, false) {
            Ok(_) => return Ok(ResilientReport { attempts: 2, mode }),
            Err(e) if !is_retryable(&e) => return Err(e),
            Err(_) => {}
        }
        let rung_opts = Self::deduct_deadline(opts, start)?;
        self.metrics.add(Counter::RetryAttempts, 1);
        let mode = ResilientMode::ScalarTransient;
        self.run_supervised(m, n, k, a, b, c, &rung_opts, mode, false)
            .map(|_| ResilientReport { attempts: 3, mode })
    }

    /// The per-rung options of the resilient ladder: the original
    /// options with the elapsed ladder time deducted from the deadline
    /// budget. A budget already spent is a cancellation, not a retry.
    fn deduct_deadline(
        opts: &GemmOptions,
        start: std::time::Instant,
    ) -> Result<GemmOptions, GemmError> {
        let Some(budget) = opts.deadline else { return Ok(opts.clone()) };
        let remaining = budget.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            return Err(GemmError::Cancelled { phase: "retry", blocks_done: 0, blocks_total: 0 });
        }
        Ok(opts.clone().deadline(remaining))
    }

    /// Current circuit-breaker health snapshot (empty transition list —
    /// per-call transitions ride on traced reports).
    pub fn health(&self) -> HealthReport {
        self.breaker.health_report(Vec::new())
    }

    /// The engine's circuit breaker, for state inspection.
    pub fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    /// Classify a call result for the metrics registry: cancellation is
    /// its own outcome (deliberate, not a fault), everything else `Err`
    /// counts as an error.
    fn call_outcome<T>(result: &Result<T, GemmError>) -> CallOutcome {
        match result {
            Ok(_) => CallOutcome::Ok,
            Err(GemmError::Cancelled { .. }) => CallOutcome::Cancelled,
            Err(_) => CallOutcome::Error,
        }
    }

    /// `2·m·n·k` saturated to `u64` — the FLOP count the throughput
    /// histogram divides by call latency.
    fn call_flops(m: usize, n: usize, k: usize) -> u64 {
        2u64.saturating_mul(m as u64).saturating_mul(n as u64).saturating_mul(k as u64)
    }

    /// Breaker admission plus the call's supervision bundle and worker
    /// count — the set-up every native call shares (single calls, every
    /// rung of the resilient ladder, batches). `rung`'s degradations
    /// ([`ResilientMode::SingleThread`] forces one thread; the scalar
    /// rungs also force the reference kernels and transient buffers) are
    /// OR-ed with whatever the breaker quarantines. A quarantined
    /// `verify_integrity` path reroutes to the trusted scalar reference
    /// kernels — the same degraded twin as a SIMD quarantine, because a
    /// silently wrong answer implicates the fast compute path.
    fn supervise(
        &self,
        opts: &GemmOptions,
        rung: ResilientMode,
    ) -> (Admission, Supervision, usize) {
        let adm = self.breaker.admit();
        let reroute = |path: BreakerPath| adm.reroute[path.index()];
        let scalar =
            matches!(rung, ResilientMode::ScalarTransient | ResilientMode::VerifiedReexecution);
        let mut sup = Supervision::from_options(opts).with_runtime(self.runtime.clone());
        if let Some(t) = &self.tracer {
            sup = sup.with_tracer(Arc::clone(t));
        }
        sup.set_force_reference(
            scalar || reroute(BreakerPath::SimdDispatch) || reroute(BreakerPath::VerifyIntegrity),
        );
        sup.set_force_transient(scalar || reroute(BreakerPath::PoolAlloc));
        sup.set_force_inline(reroute(BreakerPath::PoolSubmit));
        let mut threads = self.clamp_threads(opts.threads);
        if rung != ResilientMode::AsRequested || reroute(BreakerPath::ThreadedDriver) {
            threads = 1;
        }
        (adm, sup, threads)
    }

    /// The one call path behind every single-GEMM entry point: validate →
    /// admit and supervise ([`Self::supervise`]) → fast route or plan →
    /// driver → verify → breaker record, wrapped in the registry's
    /// latency/throughput measurement. Admission happens before plan
    /// selection: a ThreadedDriver quarantine changes the plan
    /// (single-thread `k_c`), not just the worker count.
    ///
    /// With `record` the driver returns the call's report and
    /// this path stamps its `health`, `pool`, `integrity` and `dispatch`
    /// sections; degenerate shapes run nothing and return `Ok(None)`.
    #[allow(clippy::too_many_arguments)]
    fn run_supervised(
        &self,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        opts: &GemmOptions,
        rung: ResilientMode,
        record: bool,
    ) -> Result<Option<crate::GemmReport>, GemmError> {
        let t0 = self.metrics.call_begin();
        let mut plan_miss = false;
        let result = (|| {
            error::check_operands(m, n, k, a, b, c)?;
            if m == 0 || n == 0 || k == 0 {
                // `k == 0` writes the empty sum; with `m` or `n` zero `C`
                // is empty. Degenerate shapes never reach the tuner and
                // are neutral for the breaker.
                c.fill(0.0);
                return Ok(None);
            }
            let (adm, sup, threads) = self.supervise(opts, rung);
            // Degenerate shapes (m = 1, n = 1, tiny k) skip the tuner and
            // the block driver entirely: the GEMV/small-k fast paths
            // produce bit-identical output with none of the planning or
            // packing cost.
            let (mut result, route, routing, cache_hit) = match gemv::fast_route(m, n, k) {
                Some(route) => {
                    let run =
                        gemv::try_fast_supervised(route, m, n, k, a, b, c, threads, &sup, record);
                    let unpacked = OperandRouting { pack_a: false, pack_b: false };
                    (run, route.name(), unpacked, false)
                }
                None => {
                    let tuner_threads = if threads > 1 { threads.max(2) } else { 1 };
                    let (plan, hit) = self.plan_dispatch(m, n, k, tuner_threads);
                    plan_miss = !hit;
                    let pool = &self.panel_pool;
                    let ops = native::Operands::new(a, b);
                    let run = native::try_gemm_with_plan_supervised(
                        &plan, ops, c, threads, pool, &sup, record,
                    );
                    (run, "block", plan.routing, hit)
                }
            };
            let verified = self.maybe_verify(m, n, k, a, b, c, opts, &sup, &adm, &mut result);
            let events = self.breaker_record(&sup, &adm, threads, &result, verified);
            let mut report = result?;
            if let Some(report) = &mut report {
                let stats = self.plans.stats();
                report.health = self.breaker.health_report([adm.events, events].concat());
                report.pool = self.runtime.stats();
                report.integrity = Some(self.integrity_section(opts, verified));
                report.dispatch = DispatchStats {
                    route: route.to_string(),
                    packed_a: routing.pack_a,
                    packed_b: routing.pack_b,
                    plan_cache_hit: cache_hit,
                    plan_cache_hits: stats.hits,
                    plan_cache_misses: stats.misses,
                };
            }
            Ok(report)
        })();
        self.metrics.call_end(
            t0,
            Self::call_flops(m, n, k),
            Self::call_outcome(&result),
            plan_miss,
        );
        result
    }

    /// The verify policy governing one call: a non-`Off` per-call policy
    /// wins, then the engine default. (Tenant policies are injected into
    /// the per-call options by [`GemmService`](crate::service::GemmService)
    /// before the call reaches the engine.)
    fn resolve_verify(&self, opts: &GemmOptions) -> VerifyPolicy {
        if opts.verify != VerifyPolicy::Off {
            opts.verify
        } else {
            self.verify_default
        }
    }

    /// Run post-execution output verification when the resolved policy
    /// (or a HalfOpen `verify_integrity` probe) selects this call.
    /// Returns whether the check actually ran — unverified calls leave
    /// the `verify_integrity` breaker path unexercised. On mismatch the
    /// `Ok` result is replaced with the
    /// [`GemmError::IntegrityViolation`] and a fault is recorded on the
    /// path; `C` then holds the untrusted output per the error's
    /// contract.
    #[allow(clippy::too_many_arguments)]
    fn maybe_verify<T>(
        &self,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &[f32],
        opts: &GemmOptions,
        sup: &Supervision,
        adm: &Admission,
        result: &mut Result<T, GemmError>,
    ) -> bool {
        if result.is_err() {
            // The driver already failed structurally; there is no
            // completed output to attest.
            return false;
        }
        let policy = self.resolve_verify(opts);
        // A HalfOpen probe call must produce a verdict regardless of the
        // sampling cadence — otherwise a `Sample` policy could starve
        // the path of probes and wedge it HalfOpen.
        let must = adm.probe[BreakerPath::VerifyIntegrity.index()];
        let sampled = match policy {
            VerifyPolicy::Off => false,
            VerifyPolicy::Always => true,
            VerifyPolicy::Sample { .. } => {
                policy.should_run(self.verify_seq.fetch_add(1, Ordering::Relaxed))
            }
        };
        if !must && !sampled {
            return false;
        }
        let t0 = std::time::Instant::now();
        let check = verify::verify_output(m, n, k, a, b, c);
        self.metrics.add(Counter::VerifyRuns, 1);
        self.metrics.record(&self.metrics.verify_ns, t0.elapsed().as_nanos() as u64);
        match check {
            Ok(()) => self.metrics.add(Counter::VerifyPasses, 1),
            Err(e) => {
                self.metrics.add(Counter::VerifyFailures, 1);
                sup.observe_fault(BreakerPath::VerifyIntegrity);
                *result = Err(e);
            }
        }
        true
    }

    /// Feed one call's outcome to the breaker. Paths the call did not
    /// exercise (rerouted, forced degraded, single-threaded for the
    /// threaded-driver path, or unverified for the verify-integrity
    /// path) are neither successes nor faults; `Cancelled` calls are
    /// neutral.
    fn breaker_record<T>(
        &self,
        sup: &Supervision,
        adm: &Admission,
        threads: usize,
        result: &Result<T, GemmError>,
        verified: bool,
    ) -> Vec<String> {
        let mut reroute = adm.reroute;
        if sup.force_reference {
            reroute[BreakerPath::SimdDispatch.index()] = true;
        }
        if !verified {
            // Calls the policy did not sample (or that failed before
            // producing output) never exercised the integrity check.
            reroute[BreakerPath::VerifyIntegrity.index()] = true;
        }
        if sup.force_transient {
            reroute[BreakerPath::PoolAlloc.index()] = true;
        }
        if sup.force_inline {
            reroute[BreakerPath::PoolSubmit.index()] = true;
        }
        if threads <= 1 {
            // A single-threaded call exercises neither the threaded
            // driver nor the pool-submit path.
            reroute[BreakerPath::ThreadedDriver.index()] = true;
            reroute[BreakerPath::PoolSubmit.index()] = true;
        }
        let neutral = matches!(result, Err(GemmError::Cancelled { .. }));
        // The probe flags travel back so the breaker can release the
        // path's single HalfOpen probe slot even on neutral calls.
        self.breaker.record(&sup.observed, reroute, adm.probe, neutral)
    }

    /// The `integrity` report section: this call's resolved
    /// policy plus the engine-lifetime verification counters and timing.
    fn integrity_section(&self, opts: &GemmOptions, verified: bool) -> IntegrityReport {
        let policy = self.resolve_verify(opts);
        IntegrityReport {
            policy: policy.name().to_string(),
            sample_rate: policy.sample_rate(),
            verified,
            verify_runs_total: self.metrics.counter(Counter::VerifyRuns),
            verify_passes_total: self.metrics.counter(Counter::VerifyPasses),
            verify_failures_total: self.metrics.counter(Counter::VerifyFailures),
            verify_reexecutions_total: self.metrics.counter(Counter::VerifyReexecutions),
            verify_ns: self.metrics.verify_ns.snapshot(),
        }
    }

    /// Batched same-shape GEMM through the engine: tunes the shape once
    /// and spreads items over `opts.threads` workers (each item runs
    /// single-threaded on its own disjoint output slice). Output-length
    /// mismatches and size overflows come back as `Err` before any plan
    /// is tuned; item failures come back as [`GemmError::InBatch`]
    /// naming the failing index, per
    /// [`crate::batch::try_gemm_batch_supervised`]. The batch honours the
    /// deadline/watchdog at item boundaries (reporting `phase: "batch"`
    /// with item counts) and a cancel token inside the in-flight items
    /// too; breaker reroutes apply to every item.
    pub fn try_gemm_batch_opts(
        &self,
        batch: &GemmBatch,
        c: &mut [f32],
        opts: &GemmOptions,
    ) -> Result<(), GemmError> {
        let t0 = self.metrics.call_begin();
        let mut plan_miss = false;
        let result = self.try_gemm_batch_inner(batch, c, opts, &mut plan_miss);
        let flops = Self::call_flops(batch.m, batch.n, batch.k).saturating_mul(batch.len() as u64);
        self.metrics.call_end(t0, flops, Self::call_outcome(&result), plan_miss);
        result
    }

    fn try_gemm_batch_inner(
        &self,
        batch: &GemmBatch,
        c: &mut [f32],
        opts: &GemmOptions,
        plan_miss: &mut bool,
    ) -> Result<(), GemmError> {
        let (m, n, k) = (batch.m, batch.n, batch.k);
        let item = crate::batch::check_output(batch, c)?;
        if batch.is_empty() || item == 0 {
            return Ok(());
        }
        if k == 0 {
            c.fill(0.0);
            return Ok(());
        }
        let (adm, sup, threads) = self.supervise(opts, ResilientMode::AsRequested);
        // Items run single-threaded (parallelism is across items), so
        // the per-item plan is the single-thread plan, fully packed.
        let (plan, hit) = self.plan_dispatch(m, n, k, 1);
        *plan_miss = !hit;
        let plan = (*plan).clone().with_routing(OperandRouting::packed());
        let result = crate::batch::try_gemm_batch_supervised(&plan, batch, c, threads, &sup);
        if matches!(result, Err(GemmError::WorkerPanicked { .. }) | Err(GemmError::Stalled { .. }))
        {
            sup.observe_fault(BreakerPath::ThreadedDriver);
        }
        // Batched calls do not run the integrity check (no per-item
        // policy resolution yet), so the verify path stays unexercised.
        self.breaker_record(&sup, &adm, threads, &result, false);
        result
    }

    /// Drop the engine's pooled panel buffers (memory release valve after
    /// a large shape has been through the native path).
    pub fn clear_panel_pool(&self) {
        self.panel_pool.clear();
    }

    /// The engine's panel pool — exposes the outstanding/high-water leak
    /// gauges that soak runs assert on.
    pub fn panel_pool(&self) -> &crate::packing::PanelPool {
        &self.panel_pool
    }

    fn block_cost(&self, plan: &ExecutionPlan) -> BlockCost {
        let key = BlockSimKey::of(plan);
        if let Some(c) = self.block_sims.lock().get(&key) {
            return *c;
        }
        let c = simexec::simulate_block(plan, &self.chip, true);
        self.block_sims.lock().insert(key, c);
        c
    }

    /// Run the GEMM on the cycle-level chip model and report performance —
    /// the numbers every paper figure is built from. Single-threaded runs
    /// use the full single-core accounting (simulated block compute
    /// combined with the loop-order traffic model); multi-threaded runs go
    /// through the makespan model.
    pub fn simulate(&self, m: usize, n: usize, k: usize, threads: usize) -> SimGemmReport {
        if threads > 1 {
            let plan = self.plan_multicore(m, n, k, threads);
            return self.simulate_with_plan(&plan, threads);
        }
        let plan = self.plan(m, n, k);
        let block = self.block_cost(&plan);
        let cycles = simexec::single_core_cycles(&plan, &self.chip, block);
        let seconds = cycles / (self.chip.freq_ghz * 1e9);
        let flops = plan.flops();
        let gflops = flops as f64 / seconds / 1e9;
        SimGemmReport {
            m,
            n,
            k,
            threads: 1,
            seconds,
            gflops,
            efficiency: gflops / self.chip.peak_gflops_core(),
            bw_limited: false,
            packing: plan.packing(),
        }
    }

    /// Simulate a specific plan at a given thread count, always through
    /// the multi-core makespan model (consistent accounting at every point
    /// of a strong-scaling curve, including threads = 1). Used by the
    /// scaling figure, which holds the plan fixed while varying threads
    /// (the paper scales one binary, not one tuning per point).
    pub fn simulate_with_plan(&self, plan: &ExecutionPlan, threads: usize) -> SimGemmReport {
        let block = self.block_cost(plan);
        let flops = plan.flops();
        let (m, n, k) = (plan.schedule.m, plan.schedule.n, plan.schedule.k);

        let mut works = simexec::thread_works(plan, &self.chip, block, threads);
        if self.cmg_replication {
            // Replicated packing: each populated domain re-packs the
            // shared panels; charge the extra pack time to every thread.
            let domains = threads
                .div_ceil(self.chip.numa.cores_per_domain.max(1))
                .min(self.chip.numa.domains.max(1));
            if domains > 1 {
                let extra = autogemm_tuner::cost::packing_cycles(&plan.schedule, &self.chip)
                    * (domains as f64 - 1.0)
                    / threads as f64;
                for w in &mut works {
                    w.cycles += extra as u64;
                }
            }
        }
        let used = works.len();
        let r = autogemm_sim::makespan_with_placement(&self.chip, &works, self.cmg_replication);
        let (seconds, bw_limited, threads_used) = (r.seconds, r.bw_limited, used);

        let gflops = flops as f64 / seconds / 1e9;
        let peak = self.chip.peak_gflops_core() * threads_used as f64;
        SimGemmReport {
            m,
            n,
            k,
            threads: threads_used,
            seconds,
            gflops,
            efficiency: gflops / peak,
            bw_limited,
            packing: plan.packing(),
        }
    }

    /// Simulate one bare micro-kernel (used by the step-wise figures).
    pub fn simulate_micro_kernel(
        &self,
        spec: &autogemm_kernelgen::MicroKernelSpec,
        warmth: Warmth,
    ) -> autogemm_sim::SimReport {
        let (mr, nr, kc) = (spec.tile.mr, spec.tile.nr, spec.kc);
        let a = vec![1.0f32; mr * kc];
        let b = vec![1.0f32; kc * nr];
        let mut c = vec![0.0f32; mr * nr];
        autogemm_sim::run_micro_kernel(spec, &self.chip, &a, &b, &mut c, warmth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_small_gemm_reaches_high_efficiency() {
        // Table I / Fig 8 headline: near-peak at M=N=K=64 on a single core.
        let engine = AutoGemm::new(ChipSpec::graviton2());
        let r = engine.simulate(64, 64, 64, 1);
        assert!(
            r.efficiency > 0.80,
            "efficiency {:.3} too low for 64³ (paper: ~0.98)",
            r.efficiency
        );
        assert!(r.gflops > 0.0);
    }

    #[test]
    fn tiny_gemm_efficiency_is_lower() {
        let engine = AutoGemm::new(ChipSpec::graviton2());
        let tiny = engine.simulate(8, 8, 8, 1);
        let small = engine.simulate(64, 64, 64, 1);
        assert!(tiny.efficiency < small.efficiency);
    }

    #[test]
    fn native_gemm_is_correct_via_engine() {
        let engine = AutoGemm::new(ChipSpec::m2());
        let (m, n, k) = (26, 36, 19);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 - 2.0).collect();
        let mut c = vec![0.0f32; m * n];
        engine.gemm(m, n, k, &a, &b, &mut c);
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    want[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        assert_eq!(c, want);
    }

    #[test]
    fn multicore_uses_threads_and_speeds_up() {
        let engine = AutoGemm::new(ChipSpec::graviton2());
        let single = engine.simulate(64, 3136, 64, 1);
        let multi = engine.simulate(64, 3136, 64, 8);
        assert_eq!(multi.threads, 8);
        assert!(
            multi.seconds < single.seconds,
            "8 threads {}s !< 1 thread {}s",
            multi.seconds,
            single.seconds
        );
    }

    #[test]
    fn traced_engine_call_matches_untraced_bitwise() {
        let engine = AutoGemm::new(ChipSpec::graviton2());
        let (m, n, k) = (31, 44, 29);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 - 2.0).collect();
        for threads in [1usize, 3] {
            let opts = GemmOptions::new().threads(threads);
            let mut c_plain = vec![0.0f32; m * n];
            engine.try_gemm_opts(m, n, k, &a, &b, &mut c_plain, &opts).unwrap();
            let mut c_traced = vec![0.0f32; m * n];
            let report =
                engine.try_gemm_traced_opts(m, n, k, &a, &b, &mut c_traced, &opts).unwrap();
            assert_eq!(c_traced, c_plain, "t{threads}: traced front door diverged");
            assert_eq!((report.m, report.n, report.k), (m, n, k));
            assert!(!report.thread_profiles.is_empty());
        }
    }

    #[test]
    fn every_caller_reroutes_each_open_breaker_path() {
        use crate::supervisor::ObservedFaults;
        use BreakerPath::*;
        // (open path, force_reference, force_transient, force_inline,
        // threads) for a 2-thread call on the as-requested rung.
        let paths = [
            (None, false, false, false, 2),
            (Some(SimdDispatch), true, false, false, 2),
            (Some(PoolAlloc), false, true, false, 2),
            (Some(ThreadedDriver), false, false, false, 1),
            (Some(PoolSubmit), false, false, true, 2),
            (Some(VerifyIntegrity), true, false, false, 2),
        ];
        // (caller, the rung it runs on, whether the rung itself forces
        // the scalar reference + transient buffers, and one thread).
        let callers = [
            ("plain", ResilientMode::AsRequested, false, false),
            ("traced", ResilientMode::AsRequested, false, false),
            ("batch", ResilientMode::AsRequested, false, false),
            ("single-thread rung", ResilientMode::SingleThread, false, true),
            ("scalar rung", ResilientMode::ScalarTransient, true, true),
            ("re-execution rung", ResilientMode::VerifiedReexecution, true, true),
        ];
        let opts = GemmOptions::new().threads(2);
        for (open, reference, transient, inline, threads) in paths {
            for (caller, rung, scalar, single) in callers {
                let cfg = BreakerConfig { fail_threshold: 1, open_cooldown: 1000, close_after: 1 };
                let engine = AutoGemm::new(ChipSpec::graviton2()).with_breaker_config(cfg);
                if let Some(path) = open {
                    let faults = ObservedFaults::default();
                    faults.set(path);
                    engine.breaker().record(&faults, [false; 5], [false; 5], false);
                    assert_eq!(engine.breaker().state(path), crate::BreakerState::Open);
                }
                let (_, sup, got_threads) = engine.supervise(&opts, rung);
                let want = (
                    reference || scalar,
                    transient || scalar,
                    inline,
                    if single { 1 } else { threads },
                );
                let got = (sup.force_reference, sup.force_transient, sup.force_inline, got_threads);
                assert_eq!(got, want, "{caller} with {open:?} open");
            }
        }
    }

    #[test]
    fn threaded_plan_misses_run_no_simulation() {
        let engine = AutoGemm::new(ChipSpec::graviton2());
        engine.plan_multicore(64, 3136, 64, 2);
        let (m, n, k) = (64, 49, 64);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];
        engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)).unwrap();
        assert!(c.iter().all(|&x| x == k as f32));
        assert!(engine.block_sims.lock().is_empty(), "a serving call ran the simulator");
    }

    #[test]
    fn block_simulation_memo_tells_packings_apart() {
        // Packing changes the simulated B layout, so a memo hit from a
        // differently packed plan of the same block must not be reused.
        let chip = ChipSpec::graviton2();
        let base = AutoGemm::new(chip.clone()).plan(64, 64, 64);
        let shared = AutoGemm::new(chip.clone());
        for packing in [Packing::None, Packing::Online] {
            let mut plan = base.clone();
            plan.schedule.packing = packing;
            let got = shared.simulate_with_plan(&plan, 1).seconds;
            let fresh = AutoGemm::new(chip.clone()).simulate_with_plan(&plan, 1).seconds;
            assert_eq!(got, fresh, "{packing:?}");
        }
    }

    #[test]
    fn block_simulations_are_memoized() {
        let engine = AutoGemm::new(ChipSpec::kp920());
        engine.simulate(64, 64, 64, 1);
        let n1 = engine.block_sims.lock().len();
        engine.simulate(64, 64, 64, 1);
        assert_eq!(engine.block_sims.lock().len(), n1);
    }
}
