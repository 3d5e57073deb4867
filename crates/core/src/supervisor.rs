//! Execution supervision: deadlines, cooperative cancellation, a
//! stuck-worker watchdog and a backend-quarantine circuit breaker.
//!
//! The ROADMAP north-star is a long-lived GEMM service. PR 4 made
//! failures *structured* (no panic escapes a worker); this layer makes
//! them *bounded* and *non-sticky*:
//!
//! * **Deadlines & cancellation** — a [`CancelToken`] is a shared atomic
//!   epoch; cancelling it (or passing a deadline in [`GemmOptions`])
//!   stops the run cooperatively at the next block boundary in the
//!   work-queue driver or pack loops. The call returns
//!   [`GemmError::Cancelled`](crate::error::GemmError::Cancelled) with
//!   the phase and block progress; all panel buffers are released and
//!   the engine is immediately reusable.
//! * **Stuck-worker watchdog** — opt-in ([`WatchdogConfig`]): the
//!   runtime's shared monitor thread (one per [`Runtime`], not one per
//!   call — see [`crate::runtime`]) samples per-worker heartbeat
//!   counters written lock-free at block boundaries. If *no* counter
//!   advances for the quiescence window, it trips the run's cancel
//!   signal and the call reports
//!   [`GemmError::Stalled`](crate::error::GemmError::Stalled)
//!   with the heartbeat snapshot.
//! * **Circuit breaker** — a per-engine [`Breaker`] keyed by dispatch
//!   path ([`BreakerPath`]: SIMD dispatch, pool allocation, threaded
//!   driver, worker-pool submission, output-integrity verification).
//!   Repeated faults on a path trip it
//!   Closed → Open; while Open, calls are rerouted to the degraded twin
//!   (scalar kernels, transient buffers, single thread, inline section
//!   drains). After a cooldown the breaker
//!   goes HalfOpen and lets probe calls through; clean probes restore
//!   the fast path. Every transition is visible in
//!   [`GemmReport::health`](crate::telemetry::GemmReport).
//! * **Retry** — [`AutoGemm::try_gemm_resilient`](crate::AutoGemm::try_gemm_resilient)
//!   adds one bounded retry-with-degradation ladder
//!   (threaded → single-thread → scalar + transient) for retryable
//!   error classes, never for `Cancelled` — plus a verified-reexecution
//!   rung that re-runs an
//!   [`IntegrityViolation`](crate::error::GemmError::IntegrityViolation)
//!   on the trusted scalar path.
//!
//! ## Cancellation points and cost
//!
//! Workers check the supervision state once per packed panel and once
//! per macro block — never inside a micro-kernel — so a cancelled call
//! stops within one block budget. When a call carries no deadline,
//! token or watchdog, the per-run monitor is *passive*: every check is
//! a single predictable branch on a plain bool and no clock is read, so
//! `try_gemm_opts` with supervision off pays nothing for it.

use crate::error::GemmError;
use crate::runtime::Runtime;
use crate::telemetry::metrics::{Counter, MetricsRegistry};
use crate::telemetry::{HealthReport, PathHealth, TraceBuf};
use crate::verify::VerifyPolicy;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------------

/// A shared, cloneable cancellation handle.
///
/// Internally an atomic epoch: even values are *live*, odd values are
/// *cancelled*. [`CancelToken::cancel`] flips the token to cancelled for
/// every run currently observing it and every future run, until
/// [`CancelToken::reset`] starts the next (even) epoch. Clones share
/// state, so a service can hand one token to many in-flight calls and
/// cancel them all at once.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    epoch: Arc<AtomicU64>,
}

impl CancelToken {
    /// A fresh, live token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cancel: every run holding this token stops at its next
    /// supervision check. Idempotent.
    pub fn cancel(&self) {
        self.epoch.fetch_or(1, Ordering::Release);
    }

    /// Is the token currently in a cancelled epoch?
    pub fn is_cancelled(&self) -> bool {
        self.epoch.load(Ordering::Acquire) & 1 == 1
    }

    /// Start the next live epoch so the token can be reused. A no-op if
    /// the token was never cancelled.
    pub fn reset(&self) {
        let mut cur = self.epoch.load(Ordering::Acquire);
        while cur & 1 == 1 {
            match self.epoch.compare_exchange_weak(
                cur,
                cur.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Watchdog / options / supervision bundle
// ---------------------------------------------------------------------------

/// Configuration for the opt-in stuck-worker watchdog.
///
/// The monitor thread samples the per-worker heartbeat counters every
/// `poll`; if no counter advances for `quiescence`, the run is declared
/// stalled. `quiescence` must comfortably exceed the longest single
/// block (heartbeats are written at block boundaries, so a legitimately
/// slow block looks quiet until it finishes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// No-progress window after which the run is declared stalled.
    pub quiescence: Duration,
    /// Sampling period of the monitor thread.
    pub poll: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { quiescence: Duration::from_millis(250), poll: Duration::from_millis(10) }
    }
}

/// Per-call execution options for the supervised engine entry points.
#[derive(Clone, Debug, Default)]
pub struct GemmOptions {
    /// Worker threads (0 is treated as 1).
    pub threads: usize,
    /// Relative deadline, measured from call entry.
    pub deadline: Option<Duration>,
    /// External cancellation handle.
    pub cancel: Option<CancelToken>,
    /// Opt-in stuck-worker watchdog.
    pub watchdog: Option<WatchdogConfig>,
    /// Output-integrity verification for this call. `Off` (the default)
    /// defers to the tenant policy (service calls) and then the engine
    /// default; see [`VerifyPolicy`].
    pub verify: VerifyPolicy,
}

impl GemmOptions {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    pub fn verify(mut self, policy: VerifyPolicy) -> Self {
        self.verify = policy;
        self
    }
}

/// Faults the run observed, by breaker path. Written by the native
/// drivers (degrade probes) and the engine (error classification), read
/// by the breaker after the call. Public so external supervisors (and
/// the breaker's own tests) can drive [`Breaker::record`] directly.
#[derive(Debug, Default)]
pub struct ObservedFaults {
    pub(crate) simd_dispatch: AtomicBool,
    pub(crate) pool_alloc: AtomicBool,
    pub(crate) threaded_driver: AtomicBool,
    pub(crate) pool_submit: AtomicBool,
    pub(crate) verify_integrity: AtomicBool,
}

impl ObservedFaults {
    /// Mark `path` as having faulted during this call.
    pub fn set(&self, path: BreakerPath) {
        match path {
            BreakerPath::SimdDispatch => self.simd_dispatch.store(true, Ordering::Relaxed),
            BreakerPath::PoolAlloc => self.pool_alloc.store(true, Ordering::Relaxed),
            BreakerPath::ThreadedDriver => self.threaded_driver.store(true, Ordering::Relaxed),
            BreakerPath::PoolSubmit => self.pool_submit.store(true, Ordering::Relaxed),
            BreakerPath::VerifyIntegrity => self.verify_integrity.store(true, Ordering::Relaxed),
        }
    }

    /// Whether `path` faulted during this call.
    pub fn get(&self, path: BreakerPath) -> bool {
        match path {
            BreakerPath::SimdDispatch => self.simd_dispatch.load(Ordering::Relaxed),
            BreakerPath::PoolAlloc => self.pool_alloc.load(Ordering::Relaxed),
            BreakerPath::ThreadedDriver => self.threaded_driver.load(Ordering::Relaxed),
            BreakerPath::PoolSubmit => self.pool_submit.load(Ordering::Relaxed),
            BreakerPath::VerifyIntegrity => self.verify_integrity.load(Ordering::Relaxed),
        }
    }
}

/// The per-call supervision bundle handed to the supervised native
/// drivers. Built from [`GemmOptions`] by the engine, or directly via
/// the builder methods for callers using the plan-level API.
#[derive(Debug, Default)]
pub struct Supervision {
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) watchdog: Option<WatchdogConfig>,
    /// Breaker reroute: skip the SIMD probe, run scalar reference kernels.
    pub(crate) force_reference: bool,
    /// Breaker reroute: skip the pool, pack into transient buffers.
    pub(crate) force_transient: bool,
    /// Breaker reroute: don't submit sections to the worker pool — the
    /// caller drains them alone (no per-call threads either way).
    pub(crate) force_inline: bool,
    /// Bench-only baseline: execute threaded sections by spawning scoped
    /// OS threads per call instead of submitting to the pool.
    pub(crate) spawn_baseline: bool,
    /// Runtime override (the engine pins its own); `None` falls back to
    /// [`Runtime::global`].
    pub(crate) runtime: Option<Arc<Runtime>>,
    pub(crate) observed: ObservedFaults,
    /// Span timeline to record this call's per-worker sections into
    /// (`None` = untraced, every hook is a single branch).
    pub(crate) tracer: Option<Arc<TraceBuf>>,
}

impl Supervision {
    /// No supervision: drivers take the zero-overhead passive path.
    pub fn none() -> Self {
        Self::default()
    }

    /// Build from per-call options (threads are handled by the caller).
    pub fn from_options(opts: &GemmOptions) -> Self {
        Supervision {
            cancel: opts.cancel.clone(),
            deadline: opts.deadline,
            watchdog: opts.watchdog,
            ..Self::default()
        }
    }

    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Pin the worker-pool runtime this call submits to (the engine sets
    /// its own; plan-level callers default to [`Runtime::global`]).
    pub fn with_runtime(mut self, rt: Arc<Runtime>) -> Self {
        self.runtime = Some(rt);
        self
    }

    /// Benchmark baseline only: execute threaded sections by spawning
    /// scoped OS threads per call — the dispatch path the worker pool
    /// replaced. Numerically identical to pooled execution.
    #[doc(hidden)]
    pub fn with_spawn_baseline(mut self) -> Self {
        self.spawn_baseline = true;
        self
    }

    /// Record this call's pack/kernel/pool spans into `tracer` (see
    /// [`TraceBuf`]; the engine attaches its own via
    /// [`AutoGemm::with_tracing`](crate::AutoGemm::with_tracing)).
    pub fn with_tracer(mut self, tracer: Arc<TraceBuf>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    pub(crate) fn set_force_reference(&mut self, on: bool) {
        self.force_reference = on;
    }

    pub(crate) fn set_force_transient(&mut self, on: bool) {
        self.force_transient = on;
    }

    pub(crate) fn set_force_inline(&mut self, on: bool) {
        self.force_inline = on;
    }

    /// The runtime this call's sections submit to.
    pub(crate) fn runtime_handle(&self) -> Arc<Runtime> {
        self.runtime.clone().unwrap_or_else(Runtime::global)
    }

    /// Record an observed fault on `path` (called from the drivers'
    /// probe/degrade sites and the engine's error classification).
    pub(crate) fn observe_fault(&self, path: BreakerPath) {
        self.observed.set(path);
    }

    /// Did the run observe a fault on `path`?
    pub(crate) fn observed_fault(&self, path: BreakerPath) -> bool {
        self.observed.get(path)
    }

    /// True when there is nothing to supervise (no token, deadline or
    /// watchdog) — the run monitor then short-circuits every check.
    pub(crate) fn is_passive(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none() && self.watchdog.is_none()
    }
}

// ---------------------------------------------------------------------------
// RunMonitor — per-run shared state between workers and the watchdog
// ---------------------------------------------------------------------------

/// Snapshot taken by the watchdog when it declares a stall.
#[derive(Debug, Clone)]
pub(crate) struct StallSnapshot {
    pub(crate) heartbeats: Vec<u64>,
    pub(crate) quiescence_ms: u64,
}

/// Per-run supervision state shared by the workers, the caller thread
/// and (when enabled) the watchdog thread. One instance per GEMM call;
/// phases (pack A, pack B, kernel drain) reuse it sequentially.
#[derive(Debug)]
pub(crate) struct RunMonitor {
    /// Fast-path flag: no cancel source at all — checks reduce to one
    /// branch, heartbeats and progress counters are skipped.
    passive: bool,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    /// Tripped by the watchdog (or by anything else that must stop the
    /// run without an external token).
    internal_cancel: AtomicBool,
    /// Per-worker heartbeat counters, bumped lock-free at block
    /// boundaries. Indexed by worker id.
    beats: Vec<AtomicU64>,
    /// Work units (panels or blocks) completed in the current phase.
    done_units: AtomicUsize,
    /// Set by the watchdog together with `internal_cancel`.
    stalled: AtomicBool,
    stall: Mutex<Option<StallSnapshot>>,
    /// Set by the driver when the run finishes; watchdog exit signal.
    finished: AtomicBool,
    watchdog: Option<WatchdogConfig>,
}

impl RunMonitor {
    pub(crate) fn new(sup: &Supervision, workers: usize) -> Arc<RunMonitor> {
        let passive = sup.is_passive();
        let beats = if passive {
            Vec::new()
        } else {
            (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect()
        };
        Arc::new(RunMonitor {
            passive,
            cancel: sup.cancel.clone(),
            deadline: sup.deadline.map(|d| Instant::now() + d),
            internal_cancel: AtomicBool::new(false),
            beats,
            done_units: AtomicUsize::new(0),
            stalled: AtomicBool::new(false),
            stall: Mutex::new(None),
            finished: AtomicBool::new(false),
            watchdog: sup.watchdog,
        })
    }

    /// Bump worker `t`'s heartbeat. Lock-free; called at block
    /// boundaries only.
    #[inline]
    pub(crate) fn beat(&self, t: usize) {
        if self.passive {
            return;
        }
        if let Some(b) = self.beats.get(t) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Should the current phase stop early? One branch when passive.
    #[inline]
    pub(crate) fn should_stop(&self) -> bool {
        if self.passive {
            return false;
        }
        // Acquire pairs with the watchdog's Release: a worker that stops
        // because of the flag also sees the stall snapshot behind it.
        if self.internal_cancel.load(Ordering::Acquire) {
            return true;
        }
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                self.internal_cancel.store(true, Ordering::Relaxed);
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.internal_cancel.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Record one completed work unit of the current phase.
    #[inline]
    pub(crate) fn note_done(&self) {
        if !self.passive {
            self.done_units.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reset the per-phase progress counter (phases run sequentially).
    pub(crate) fn begin_phase(&self) {
        if !self.passive {
            self.done_units.store(0, Ordering::Relaxed);
        }
    }

    /// Resolve the phase outcome after workers have joined. A phase
    /// that completed all `total` units is `Ok` even if a cancel raced
    /// with the last block (cancellation is best-effort by design).
    pub(crate) fn outcome(&self, phase: &'static str, total: usize) -> Result<(), GemmError> {
        if self.passive {
            return Ok(());
        }
        let done = self.done_units.load(Ordering::Relaxed);
        if done >= total {
            return Ok(());
        }
        if self.stalled.load(Ordering::Relaxed) {
            let snap = self
                .stall
                .lock()
                .clone()
                .unwrap_or(StallSnapshot { heartbeats: Vec::new(), quiescence_ms: 0 });
            return Err(GemmError::Stalled {
                phase,
                quiescence_ms: snap.quiescence_ms,
                heartbeats: snap.heartbeats,
            });
        }
        if self.internal_cancel.load(Ordering::Relaxed) {
            return Err(GemmError::Cancelled { phase, blocks_done: done, blocks_total: total });
        }
        Ok(())
    }

    /// The watchdog configuration this run was created with, if any —
    /// consumed by the runtime's watchdog hub at registration.
    pub(crate) fn watchdog_config(&self) -> Option<WatchdogConfig> {
        self.watchdog
    }

    /// Has the driver marked this run finished? The hub drops finished
    /// registrations instead of sampling them.
    pub(crate) fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    /// Snapshot all per-worker heartbeat counters (hub sampling).
    pub(crate) fn sample_beats(&self) -> Vec<u64> {
        self.beats.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Declare the run stalled: store the snapshot and trip the run's
    /// cancel signal. Called by the watchdog hub when no heartbeat
    /// advanced for the configured quiescence window.
    pub(crate) fn trip_stall(&self, heartbeats: Vec<u64>, quiescence_ms: u64) {
        *self.stall.lock() = Some(StallSnapshot { heartbeats, quiescence_ms });
        self.stalled.store(true, Ordering::Relaxed);
        // Release publishes the snapshot and `stalled` to every worker
        // (and, transitively, the caller) that observes the cancel flag.
        self.internal_cancel.store(true, Ordering::Release);
    }

    /// Signal run completion. The caller drops its hub registration
    /// guard right after, so the shared watchdog thread stops sampling
    /// this run (no thread join — the hub thread is long-lived).
    pub(crate) fn finish(&self) {
        self.finished.store(true, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// A dispatch path the circuit breaker can quarantine, with its
/// degraded reroute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPath {
    /// SIMD backend selection; reroute = scalar reference kernels.
    SimdDispatch,
    /// Panel-pool allocation; reroute = transient (unpooled) buffers.
    PoolAlloc,
    /// Threaded work-queue driver; reroute = single-thread execution.
    ThreadedDriver,
    /// Worker-pool submission; reroute = the caller drains the sections
    /// inline (no pool engagement, still no per-call threads).
    PoolSubmit,
    /// Output-integrity verification ([`crate::verify`]); a fault here
    /// means a computed `C` failed the Freivalds/non-finite check, i.e.
    /// some dispatch path produced a silently wrong answer. Reroute =
    /// scalar reference kernels (the trusted oracle), same degraded twin
    /// as [`BreakerPath::SimdDispatch`].
    VerifyIntegrity,
}

impl BreakerPath {
    pub const ALL: [BreakerPath; 5] = [
        BreakerPath::SimdDispatch,
        BreakerPath::PoolAlloc,
        BreakerPath::ThreadedDriver,
        BreakerPath::PoolSubmit,
        BreakerPath::VerifyIntegrity,
    ];

    /// Position of this path in [`Self::ALL`] and in the
    /// [`Admission`] reroute/probe arrays.
    pub fn index(self) -> usize {
        match self {
            BreakerPath::SimdDispatch => 0,
            BreakerPath::PoolAlloc => 1,
            BreakerPath::ThreadedDriver => 2,
            BreakerPath::PoolSubmit => 3,
            BreakerPath::VerifyIntegrity => 4,
        }
    }

    /// Stable name used in reports and transition strings.
    pub fn name(self) -> &'static str {
        match self {
            BreakerPath::SimdDispatch => "simd_dispatch",
            BreakerPath::PoolAlloc => "pool_alloc",
            BreakerPath::ThreadedDriver => "threaded_driver",
            BreakerPath::PoolSubmit => "pool_submit",
            BreakerPath::VerifyIntegrity => "verify_integrity",
        }
    }
}

/// Circuit-breaker state of one dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: fast path in use, faults counted.
    Closed,
    /// Quarantined: calls rerouted to the degraded twin.
    Open,
    /// Probing: fast path allowed; clean probes close the breaker,
    /// a fault reopens it.
    HalfOpen,
}

impl BreakerState {
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Deterministic, count-based breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive faulting calls (while Closed) that trip the path Open.
    pub fail_threshold: u32,
    /// Rerouted calls served while Open before the path goes HalfOpen.
    pub open_cooldown: u32,
    /// Consecutive clean probe calls (while HalfOpen) that close the path.
    pub close_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { fail_threshold: 3, open_cooldown: 4, close_after: 2 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PathInner {
    state_closed_open_half: u8, // 0 = Closed, 1 = Open, 2 = HalfOpen
    consecutive_faults: u32,
    open_calls: u32,
    halfopen_clean: u32,
    /// While HalfOpen, whether a probe call currently holds the path's
    /// single probe slot; concurrent callers reroute until it records.
    probe_in_flight: bool,
    total_faults: u64,
    trips: u64,
}

impl PathInner {
    fn state(&self) -> BreakerState {
        match self.state_closed_open_half {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    fn set_state(&mut self, s: BreakerState) {
        self.state_closed_open_half = match s {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        };
    }
}

/// What the breaker decided for one call, per path. Hand it back to
/// [`Breaker::record`] when the call completes.
#[derive(Debug, Clone, Default)]
pub struct Admission {
    /// `reroute[path.index()]`: serve this call on the degraded twin.
    pub reroute: [bool; 5],
    /// `probe[path.index()]`: this call holds the path's single
    /// HalfOpen probe slot and must release it via [`Breaker::record`]
    /// (probing calls run the fast path; everyone else reroutes until
    /// the probe's verdict is in).
    pub probe: [bool; 5],
    /// Transitions performed while admitting (Open → HalfOpen).
    pub events: Vec<String>,
}

/// Per-engine backend-quarantine circuit breaker. See the module docs
/// for the state machine; all transitions are count-based and therefore
/// deterministic under seeded fault injection.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    paths: Mutex<[PathInner; 5]>,
    /// Engine-lifetime registry to count transitions into (set once by
    /// the owning engine; standalone breakers count nothing).
    metrics: OnceLock<Arc<MetricsRegistry>>,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker::new(BreakerConfig::default())
    }
}

impl Breaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        Breaker { cfg, paths: Mutex::new([PathInner::default(); 5]), metrics: OnceLock::new() }
    }

    /// Attach the engine's metrics registry; every state transition this
    /// breaker performs from now on bumps
    /// [`Counter::BreakerTransitions`]. First attach wins.
    pub(crate) fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        let _ = self.metrics.set(registry);
    }

    fn count_transitions(&self, events: &[String]) {
        if let Some(m) = self.metrics.get() {
            m.add(Counter::BreakerTransitions, events.len() as u64);
        }
    }

    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// Current state of one path.
    pub fn state(&self, path: BreakerPath) -> BreakerState {
        self.paths.lock()[path.index()].state()
    }

    /// Decide reroutes for an incoming call and advance Open cooldowns.
    /// HalfOpen paths admit exactly one probe at a time: the call that
    /// claims the slot (`Admission::probe`) runs the fast path, every
    /// concurrent caller reroutes to the degraded twin until the probe's
    /// outcome is recorded.
    pub fn admit(&self) -> Admission {
        let mut adm = Admission::default();
        let mut paths = self.paths.lock();
        for path in BreakerPath::ALL {
            let p = &mut paths[path.index()];
            match p.state() {
                BreakerState::Closed => {}
                BreakerState::Open => {
                    p.open_calls += 1;
                    if p.open_calls >= self.cfg.open_cooldown {
                        p.set_state(BreakerState::HalfOpen);
                        p.halfopen_clean = 0;
                        // This call is the first probe: fast path allowed.
                        p.probe_in_flight = true;
                        adm.probe[path.index()] = true;
                        adm.events.push(format!("{}: open -> half_open", path.name()));
                    } else {
                        adm.reroute[path.index()] = true;
                    }
                }
                BreakerState::HalfOpen => {
                    if p.probe_in_flight {
                        adm.reroute[path.index()] = true;
                    } else {
                        p.probe_in_flight = true;
                        adm.probe[path.index()] = true;
                    }
                }
            }
        }
        drop(paths);
        self.count_transitions(&adm.events);
        adm
    }

    /// Record a call's outcome per path and perform transitions.
    /// `neutral` calls (e.g. cancelled before doing real work) update
    /// no state but still release any probe slot the call held.
    /// Rerouted paths were not exercised, so they are neither a success
    /// nor a fault. `rerouted`/`probed` come from the call's
    /// [`Admission`] (the engine may add forced reroutes of its own).
    pub fn record(
        &self,
        observed: &ObservedFaults,
        rerouted: [bool; 5],
        probed: [bool; 5],
        neutral: bool,
    ) -> Vec<String> {
        let mut events = Vec::new();
        let mut paths = self.paths.lock();
        for path in BreakerPath::ALL {
            let p = &mut paths[path.index()];
            // A held probe slot is released no matter how the call ended:
            // a neutral (cancelled) probe decides nothing, but it must
            // not wedge the path with a probe that never reports.
            if probed[path.index()] {
                p.probe_in_flight = false;
            }
            if neutral || rerouted[path.index()] {
                continue;
            }
            let fault = observed.get(path);
            match (p.state(), fault) {
                (BreakerState::Closed, true) => {
                    p.consecutive_faults += 1;
                    p.total_faults += 1;
                    if p.consecutive_faults >= self.cfg.fail_threshold {
                        p.set_state(BreakerState::Open);
                        p.open_calls = 0;
                        p.trips += 1;
                        events.push(format!("{}: closed -> open", path.name()));
                    }
                }
                (BreakerState::Closed, false) => p.consecutive_faults = 0,
                (BreakerState::HalfOpen, true) => {
                    p.total_faults += 1;
                    p.set_state(BreakerState::Open);
                    p.open_calls = 0;
                    p.trips += 1;
                    events.push(format!("{}: half_open -> open", path.name()));
                }
                (BreakerState::HalfOpen, false) => {
                    // Only the call that held the probe slot may count as
                    // a clean probe; a concurrent call admitted while the
                    // path was still Closed deciding the verdict instead
                    // would let a non-representative call close the path.
                    if !probed[path.index()] {
                        continue;
                    }
                    p.halfopen_clean += 1;
                    if p.halfopen_clean >= self.cfg.close_after {
                        p.set_state(BreakerState::Closed);
                        p.consecutive_faults = 0;
                        events.push(format!("{}: half_open -> closed", path.name()));
                    }
                }
                // Open paths were rerouted (or became HalfOpen at admit);
                // an Open+not-rerouted combination only happens if the
                // caller skipped admit — treat it as unexercised.
                (BreakerState::Open, _) => {}
            }
        }
        drop(paths);
        self.count_transitions(&events);
        events
    }

    /// Health snapshot for reports; `transitions` carries this call's
    /// events (empty for a standalone snapshot).
    pub fn health_report(&self, transitions: Vec<String>) -> HealthReport {
        let paths = self.paths.lock();
        HealthReport {
            paths: BreakerPath::ALL
                .iter()
                .map(|&path| {
                    let p = &paths[path.index()];
                    PathHealth {
                        path: path.name().to_string(),
                        state: p.state().name().to_string(),
                        consecutive_faults: u64::from(p.consecutive_faults),
                        total_faults: p.total_faults,
                        trips: p.trips,
                    }
                })
                .collect(),
            transitions,
        }
    }
}

/// Outcome of a [`try_gemm_resilient`](crate::AutoGemm::try_gemm_resilient)
/// call that eventually succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientReport {
    /// Attempts made, including the successful one (1 = no retry).
    pub attempts: u32,
    /// The execution mode that succeeded.
    pub mode: ResilientMode,
}

/// A rung of the resilient ladder: the degradations one attempt runs
/// with, and the rung a resilient call succeeded on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResilientMode {
    /// First attempt, as requested.
    AsRequested,
    /// Retried on a single thread.
    SingleThread,
    /// Retried on a single thread with scalar kernels and transient
    /// buffers (the fully degraded twin).
    ScalarTransient,
    /// The first attempt's output failed integrity verification; the
    /// call was re-executed on the trusted scalar reference path and
    /// that result was returned.
    VerifiedReexecution,
}

impl ResilientMode {
    pub fn name(self) -> &'static str {
        match self {
            ResilientMode::AsRequested => "as-requested",
            ResilientMode::SingleThread => "single-thread",
            ResilientMode::ScalarTransient => "scalar-transient",
            ResilientMode::VerifiedReexecution => "verified-reexecution",
        }
    }
}

/// Is this error class worth one degraded retry? Deliberate stops
/// (`Cancelled`) and caller mistakes (shape/plan errors) are not.
pub(crate) fn is_retryable(err: &GemmError) -> bool {
    matches!(
        err,
        GemmError::WorkerPanicked { .. }
            | GemmError::AllocFailed { .. }
            | GemmError::Stalled { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_epochs() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
        let clone = t.clone();
        assert!(clone.is_cancelled(), "clones share state");
        t.reset();
        assert!(!t.is_cancelled());
        assert!(!clone.is_cancelled());
        t.reset(); // no-op on a live token
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn passive_monitor_never_stops() {
        let sup = Supervision::none();
        let mon = RunMonitor::new(&sup, 4);
        assert!(!mon.should_stop());
        mon.beat(0);
        mon.note_done();
        assert!(mon.outcome("kernel", 100).is_ok(), "passive runs never report cancellation");
    }

    #[test]
    fn cancelled_token_stops_and_reports_progress() {
        let tok = CancelToken::new();
        let sup = Supervision::none().with_cancel(tok.clone());
        let mon = RunMonitor::new(&sup, 2);
        assert!(!mon.should_stop());
        mon.begin_phase();
        mon.note_done();
        tok.cancel();
        assert!(mon.should_stop());
        match mon.outcome("kernel", 10) {
            Err(GemmError::Cancelled { phase, blocks_done, blocks_total }) => {
                assert_eq!((phase, blocks_done, blocks_total), ("kernel", 1, 10));
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn completed_phase_wins_over_late_cancel() {
        let tok = CancelToken::new();
        let sup = Supervision::none().with_cancel(tok.clone());
        let mon = RunMonitor::new(&sup, 1);
        mon.begin_phase();
        for _ in 0..5 {
            mon.note_done();
        }
        tok.cancel();
        assert!(mon.outcome("kernel", 5).is_ok(), "fully-drained phase is Ok");
    }

    #[test]
    fn expired_deadline_stops() {
        let sup = Supervision::none().with_deadline(Duration::from_millis(0));
        let mon = RunMonitor::new(&sup, 1);
        assert!(mon.should_stop());
        assert!(matches!(mon.outcome("pack A", 3), Err(GemmError::Cancelled { .. })));
    }

    #[test]
    fn far_deadline_does_not_stop() {
        let sup = Supervision::none().with_deadline(Duration::from_secs(3600));
        let mon = RunMonitor::new(&sup, 1);
        assert!(!mon.should_stop());
    }

    #[test]
    fn watchdog_trips_on_quiescence_and_reports_heartbeats() {
        let cfg = WatchdogConfig {
            quiescence: Duration::from_millis(40),
            poll: Duration::from_millis(5),
        };
        let sup = Supervision::none().with_watchdog(cfg);
        let mon = RunMonitor::new(&sup, 3);
        mon.begin_phase();
        mon.beat(0);
        mon.beat(0);
        mon.beat(1);
        let rt = Runtime::global();
        let watch = rt.watch(&mon);
        assert!(watch.is_some());
        // No further beats: the watchdog hub must declare a stall.
        let t0 = Instant::now();
        while !mon.should_stop() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(mon.should_stop(), "watchdog never tripped");
        mon.finish();
        drop(watch);
        match mon.outcome("kernel", 7) {
            Err(GemmError::Stalled { phase, quiescence_ms, heartbeats }) => {
                assert_eq!(phase, "kernel");
                assert_eq!(quiescence_ms, 40);
                assert_eq!(heartbeats, vec![2, 1, 0]);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_exits_cleanly_when_run_finishes() {
        let cfg =
            WatchdogConfig { quiescence: Duration::from_secs(30), poll: Duration::from_millis(5) };
        let sup = Supervision::none().with_watchdog(cfg);
        let mon = RunMonitor::new(&sup, 1);
        let watch = Runtime::global().watch(&mon);
        mon.begin_phase();
        mon.note_done();
        mon.finish(); // hub drops the registration; no thread join
        drop(watch);
        assert!(mon.outcome("kernel", 1).is_ok());
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_half_open() {
        let cfg = BreakerConfig { fail_threshold: 3, open_cooldown: 2, close_after: 2 };
        let b = Breaker::new(cfg);
        let path = BreakerPath::SimdDispatch;

        // Three consecutive faulting calls trip the path.
        for i in 0..3 {
            let adm = b.admit();
            assert!(!adm.reroute[path.index()], "call {i} should run the fast path");
            let obs = ObservedFaults::default();
            obs.set(path);
            let ev = b.record(&obs, adm.reroute, adm.probe, false);
            if i < 2 {
                assert!(ev.is_empty(), "no transition before the threshold");
            } else {
                assert_eq!(ev, vec!["simd_dispatch: closed -> open"]);
            }
        }
        assert_eq!(b.state(path), BreakerState::Open);

        // While Open, calls are rerouted; the cooldown counts them.
        let adm = b.admit();
        assert!(adm.reroute[path.index()], "open path must reroute");
        let _ = b.record(&ObservedFaults::default(), adm.reroute, adm.probe, false);

        // Cooldown reached: next admit transitions to HalfOpen and probes.
        let adm = b.admit();
        assert!(!adm.reroute[path.index()], "half-open probe runs the fast path");
        assert_eq!(adm.events, vec!["simd_dispatch: open -> half_open"]);
        let ev = b.record(&ObservedFaults::default(), adm.reroute, adm.probe, false);
        assert!(ev.is_empty());
        assert_eq!(b.state(path), BreakerState::HalfOpen);

        // Second clean probe closes the breaker.
        let adm = b.admit();
        let ev = b.record(&ObservedFaults::default(), adm.reroute, adm.probe, false);
        assert_eq!(ev, vec!["simd_dispatch: half_open -> closed"]);
        assert_eq!(b.state(path), BreakerState::Closed);

        let health = b.health_report(Vec::new());
        let sd = &health.paths[path.index()];
        assert_eq!(sd.path, "simd_dispatch");
        assert_eq!(sd.state, "closed");
        assert_eq!(sd.total_faults, 3);
        assert_eq!(sd.trips, 1);
    }

    #[test]
    fn half_open_fault_reopens() {
        let cfg = BreakerConfig { fail_threshold: 1, open_cooldown: 1, close_after: 2 };
        let b = Breaker::new(cfg);
        let path = BreakerPath::PoolAlloc;
        let adm = b.admit();
        let obs = ObservedFaults::default();
        obs.set(path);
        let _ = b.record(&obs, adm.reroute, adm.probe, false);
        assert_eq!(b.state(path), BreakerState::Open);
        let adm = b.admit(); // cooldown = 1 → straight to HalfOpen probe
        assert!(!adm.reroute[path.index()]);
        let obs = ObservedFaults::default();
        obs.set(path);
        let ev = b.record(&obs, adm.reroute, adm.probe, false);
        assert_eq!(ev, vec!["pool_alloc: half_open -> open"]);
        assert_eq!(b.state(path), BreakerState::Open);
        assert_eq!(b.health_report(Vec::new()).paths[path.index()].trips, 2);
    }

    #[test]
    fn neutral_calls_leave_the_breaker_untouched() {
        let b = Breaker::default();
        let adm = b.admit();
        let obs = ObservedFaults::default();
        obs.set(BreakerPath::SimdDispatch);
        let ev = b.record(&obs, adm.reroute, adm.probe, true);
        assert!(ev.is_empty());
        let health = b.health_report(Vec::new());
        assert_eq!(health.paths[0].total_faults, 0);
        assert_eq!(health.paths[0].state, "closed");
    }

    #[test]
    fn consecutive_fault_counter_resets_on_success() {
        let cfg = BreakerConfig { fail_threshold: 2, open_cooldown: 2, close_after: 1 };
        let b = Breaker::new(cfg);
        let path = BreakerPath::ThreadedDriver;
        // fault, success, fault: never trips.
        for fault in [true, false, true] {
            let adm = b.admit();
            let obs = ObservedFaults::default();
            if fault {
                obs.set(path);
            }
            let ev = b.record(&obs, adm.reroute, adm.probe, false);
            assert!(ev.is_empty());
        }
        assert_eq!(b.state(path), BreakerState::Closed);
    }

    #[test]
    fn retryability_classes() {
        assert!(is_retryable(&GemmError::WorkerPanicked { thread: 0, detail: "x".into() }));
        assert!(is_retryable(&GemmError::AllocFailed { phase: "pack A" }));
        assert!(is_retryable(&GemmError::Stalled {
            phase: "kernel",
            quiescence_ms: 10,
            heartbeats: vec![0],
        }));
        assert!(!is_retryable(&GemmError::Cancelled {
            phase: "kernel",
            blocks_done: 0,
            blocks_total: 1,
        }));
        assert!(!is_retryable(&GemmError::SizeOverflow { what: "M*K", lhs: 1, rhs: 2 }));
        assert!(!is_retryable(&GemmError::InBatch {
            index: 1,
            source: Box::new(GemmError::AllocFailed { phase: "pack A" }),
        }));
    }
}
