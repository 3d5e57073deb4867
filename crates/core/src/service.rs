//! Overload-safe multi-tenant GEMM service layer.
//!
//! [`GemmService`] wraps one [`AutoGemm`] engine per tenant on a shared
//! [`Runtime`] and puts an *admission controller* in front of them, so a
//! long-running process (an inference server, a batch scheduler) can expose
//! GEMM to many callers without letting a burst from one tenant take the
//! whole pool down. Three mechanisms compose:
//!
//! 1. **Bounded FIFO admission queue.** Every [`GemmService::submit`] first
//!    passes through a queue of configurable depth
//!    ([`ServiceConfig::queue_depth`]). When the queue is full the call
//!    returns [`GemmError::Rejected`] with
//!    [`RejectReason::QueueFull`] *immediately* — enqueue never blocks the
//!    caller. Queued callers are dispatched in FIFO order among the
//!    *eligible* waiters (a waiter whose tenant is at its in-flight cap is
//!    skipped, not a barrier, so one saturated tenant cannot convoy the
//!    rest of the queue).
//!
//! 2. **Per-tenant quotas.** Each [`TenantId`] carries a [`TenantQuota`]:
//!    a thread budget applied to its engine's calls (mapped onto
//!    [`Runtime::with_workers`] when [`TenantQuota::workers`] asks for a
//!    dedicated pool), a `max_in_flight` execution cap, and a
//!    `max_queue_share` bound on the fraction of the admission queue one
//!    tenant may occupy (exceeding it returns
//!    [`RejectReason::TenantQueueShare`]).
//!
//! 3. **Deadline-aware load shedding.** A call that names a deadline
//!    (its own, or [`ServiceConfig::default_deadline`]) is checked at
//!    admission *and again at dispatch* against a cost estimate: the
//!    roofline floor `2mnk / peak` from the chip model, max'd with the
//!    tenant engine's decaying warm-call latency
//!    ([`AutoGemm::warm_latency`]: an average weighting the newest call
//!    1/8, over calls that succeeded and hit the plan cache) once
//!    [`ShedPolicy::min_samples`] such calls have been seen. Reading it is
//!    one atomic load, so the check costs next to nothing beside the GEMM
//!    it guards. A call that provably cannot finish is shed up front
//!    ([`RejectReason::DeadlineUnmeetable`]) instead of wasting pool time
//!    and then missing its deadline anyway; a call whose budget expired
//!    *while queued* is dropped with [`RejectReason::ExpiredInQueue`].
//!    A shed call records no latency, so while the observed term sheds a
//!    tenant's calls, one call per budget's worth of time is admitted as
//!    a probe (the breaker's half-open idea): shedding always releases
//!    once the tenant's calls are fast again. Queue wait is deducted from
//!    the budget handed to the engine, so the engine-level deadline
//!    supervisor still fires mid-call if execution overruns.
//!
//! Under sustained overload the service degrades gracefully: admitted
//! calls keep a bounded latency profile (the queue depth bounds wait; the
//! shed check bounds doomed work) while the overflow is converted into
//! *structured, immediate* rejections the caller can retry against. The
//! shedding ratio, queue-wait histogram and in-flight gauge are exported
//! through the service's own [`MetricsRegistry`]
//! (`service_*_total` counters, `queue_wait_ns`) and the
//! `service` report section ([`ServiceReport`], stamped onto traced
//! reports by [`GemmService::submit_traced`]).
//!
//! ## Locking
//!
//! Two locks, never held together: a tenant map (taken briefly to resolve
//! or create a tenant), and the queue state guarded by a
//! `Mutex` + `Condvar` pair. Admission (closed, depth, tenant share,
//! shed, enqueue) runs under one acquisition of the queue lock, so a
//! rejected call takes that lock once. Waiters block on the condvar with a bounded
//! timeout (their own remaining deadline, else a housekeeping tick) and
//! every state transition that can change eligibility — completion,
//! expiry-removal, close — does `notify_all`. Execution itself runs with
//! no service lock held, so a stalled kernel cannot deadlock admission.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use autogemm_arch::ChipSpec;

use crate::engine::AutoGemm;
use crate::error::{GemmError, RejectReason};
use crate::runtime::Runtime;
use crate::supervisor::GemmOptions;
use crate::telemetry::metrics::{CallOutcome, Counter, MetricsRegistry};
use crate::telemetry::{GemmReport, ServiceReport};
use crate::verify::VerifyPolicy;

/// Opaque tenant handle: a cheap clonable interned name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Create an id from a name. Two ids with the same name are the same
    /// tenant.
    pub fn new(name: &str) -> TenantId {
        TenantId(Arc::from(name))
    }

    /// The tenant name this id was created with.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Resource limits for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQuota {
    /// Worker-thread budget applied to this tenant's GEMM calls when the
    /// caller leaves [`GemmOptions::threads`] at 0. Clamped to the pool.
    pub threads: usize,
    /// Maximum calls from this tenant executing concurrently. Further
    /// calls wait in the queue (other tenants overtake them).
    pub max_in_flight: usize,
    /// Maximum fraction of [`ServiceConfig::queue_depth`] this tenant may
    /// occupy, in `(0, 1]`. At least one slot is always allowed.
    pub max_queue_share: f64,
    /// `Some(n)`: run this tenant on a dedicated [`Runtime::with_workers`]
    /// pool of `n` workers instead of the service's shared runtime.
    pub workers: Option<usize>,
    /// Output-integrity verification applied to this tenant's calls when
    /// the caller leaves [`GemmOptions::verify`] at
    /// [`VerifyPolicy::Off`]. A caller-set policy always wins.
    pub verify: VerifyPolicy,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            threads: 0,
            max_in_flight: 2,
            max_queue_share: 1.0,
            workers: None,
            verify: VerifyPolicy::Off,
        }
    }
}

/// Deadline-aware shedding knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedPolicy {
    /// Master switch. Off: deadlines are still enforced in-queue and
    /// in-engine, but no call is rejected up front on a cost estimate.
    pub enabled: bool,
    /// The observed-latency term (the tenant engine's decaying
    /// [`AutoGemm::warm_latency`]) only kicks in once the engine has
    /// recorded this many successful plan-cache-hit calls; below it the
    /// roofline floor alone decides. The count saturates at 2^24 − 1, so
    /// a larger value keeps the observed term off.
    pub min_samples: u64,
    /// Multiplier on the cost estimate before comparing against the
    /// remaining budget. 1.0 sheds only provably-doomed calls; larger
    /// values shed earlier.
    pub safety: f64,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy { enabled: true, min_samples: 32, safety: 1.0 }
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Admission-queue depth. A submit arriving when this many calls are
    /// already waiting is rejected with [`RejectReason::QueueFull`].
    pub queue_depth: usize,
    /// Global execution-concurrency cap across all tenants. 0 derives
    /// `runtime.workers() + 1` (one call can pack while another drains).
    pub max_in_flight: usize,
    /// `Some(n)`: build the shared runtime with `n` workers; `None` uses
    /// [`Runtime::global`].
    pub workers: Option<usize>,
    /// Deadline applied to calls that do not name one. `None`: no default.
    pub default_deadline: Option<Duration>,
    /// Load-shedding policy.
    pub shed: ShedPolicy,
    /// Quota handed to tenants first seen via [`GemmService::submit`]
    /// rather than registered with [`GemmService::add_tenant`].
    pub default_quota: TenantQuota,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 32,
            max_in_flight: 0,
            workers: None,
            default_deadline: None,
            shed: ShedPolicy::default(),
            default_quota: TenantQuota::default(),
        }
    }
}

/// Per-call admission outcome returned by a successful submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceReply {
    /// Time spent in the admission queue, from enqueue to dispatch. The
    /// admission checks before enqueue are not part of it.
    pub queue_wait: Duration,
}

/// One tenant's engine plus its limits. Engines are created once and
/// reused, so each tenant keeps its own breaker state, plan cache view and
/// metrics history.
struct TenantState {
    quota: TenantQuota,
    engine: AutoGemm,
    /// When this state was built: the origin of `last_probe_ns`.
    epoch: Instant,
    /// Nanoseconds after `epoch` when the last shed probe was admitted,
    /// or when the first shed on the observed latency started the probe
    /// clock; 0 before either.
    last_probe_ns: AtomicU64,
}

impl TenantState {
    fn new(quota: TenantQuota, engine: AutoGemm) -> TenantState {
        TenantState { quota, engine, epoch: Instant::now(), last_probe_ns: AtomicU64::new(0) }
    }

    /// Claim the probe slot if `interval_ns` has passed since the last
    /// claim. The first call only starts the clock, so a tenant that
    /// starts shedding sheds for at least one interval.
    fn probe_due(&self, interval_ns: u64) -> bool {
        let now = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX).max(1);
        let last = self.last_probe_ns.load(Ordering::Relaxed);
        if last == 0 {
            let _ =
                self.last_probe_ns.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
            return false;
        }
        now.saturating_sub(last) >= interval_ns
            && self
                .last_probe_ns
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }
}

/// A queued call, owned by the submitting thread; the queue holds only the
/// bookkeeping view.
struct Waiter {
    ticket: u64,
    tenant: TenantId,
    /// Tenant in-flight cap, denormalized so the eligibility walk does not
    /// need the tenant map (lock-ordering: queue lock never nests inside
    /// the tenant lock or vice versa).
    tenant_cap: usize,
}

#[derive(Default)]
struct TenantLoad {
    queued: usize,
    in_flight: usize,
}

struct QueueState {
    waiting: VecDeque<Waiter>,
    in_flight: usize,
    loads: HashMap<TenantId, TenantLoad>,
    closed: bool,
    next_ticket: u64,
}

/// Multi-tenant admission-controlled GEMM front end. See the module docs
/// for the control model.
pub struct GemmService {
    chip: ChipSpec,
    cfg: ServiceConfig,
    runtime: Arc<Runtime>,
    max_in_flight: usize,
    metrics: Arc<MetricsRegistry>,
    tenants: Mutex<HashMap<TenantId, Arc<TenantState>>>,
    queue: Mutex<QueueState>,
    cv: Condvar,
}

/// Forgive lock poisoning: queue bookkeeping stays consistent because
/// every mutation is a handful of counter updates completed before any
/// code that can panic.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

impl GemmService {
    /// Build a service for `chip` with `cfg`.
    pub fn new(chip: ChipSpec, cfg: ServiceConfig) -> GemmService {
        let runtime = match cfg.workers {
            Some(w) => Runtime::with_workers(w),
            None => Runtime::global(),
        };
        let max_in_flight =
            if cfg.max_in_flight == 0 { runtime.workers() + 1 } else { cfg.max_in_flight };
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.set_enabled(true);
        GemmService {
            chip,
            cfg,
            runtime,
            max_in_flight,
            metrics,
            tenants: Mutex::new(HashMap::new()),
            queue: Mutex::new(QueueState {
                waiting: VecDeque::new(),
                in_flight: 0,
                loads: HashMap::new(),
                closed: false,
                next_ticket: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Register `name` with an explicit quota, returning its id. If the
    /// tenant already exists its entry is rebuilt (fresh engine, new
    /// quota); in-flight calls on the old engine finish unaffected.
    pub fn add_tenant(&self, name: &str, quota: TenantQuota) -> TenantId {
        let id = TenantId::new(name);
        let engine = self.build_engine(&quota);
        let mut map = relock(self.tenants.lock());
        map.insert(id.clone(), Arc::new(TenantState::new(quota, engine)));
        id
    }

    /// The service's own metrics registry: `service_*_total` counters, the
    /// `queue_wait_ns` histogram, the end-to-end in-flight gauge.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The shared runtime tenant engines execute on (unless a tenant asked
    /// for a dedicated pool).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Calls currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        relock(self.queue.lock()).waiting.len()
    }

    /// Calls currently executing (all tenants).
    pub fn in_flight(&self) -> usize {
        relock(self.queue.lock()).in_flight
    }

    /// Stop admitting work. Queued waiters wake and return
    /// [`RejectReason::ServiceClosed`]; calls already executing finish
    /// normally.
    pub fn close(&self) {
        relock(self.queue.lock()).closed = true;
        self.cv.notify_all();
    }

    /// Whether [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        relock(self.queue.lock()).closed
    }

    /// Admission-controlled GEMM: closed / queue depth / tenant share →
    /// shed → queue → execute on the tenant's engine. See the module docs for the rejection taxonomy.
    /// Execution failures come back wrapped in [`GemmError::InService`]
    /// naming the tenant; admission failures are bare
    /// [`GemmError::Rejected`].
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &self,
        tenant: &TenantId,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        opts: &GemmOptions,
    ) -> Result<ServiceReply, GemmError> {
        self.submit_with(tenant, m, n, k, opts, |engine, run_opts| {
            engine.try_gemm_opts(m, n, k, a, b, c, run_opts)
        })
        .map(|(reply, ())| reply)
    }

    /// [`Self::submit`] through the traced engine path. The returned
    /// [`GemmReport`] carries the `service` section
    /// ([`ServiceReport`]) reflecting the registry *after* this call.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_traced(
        &self,
        tenant: &TenantId,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        opts: &GemmOptions,
    ) -> Result<(ServiceReply, GemmReport), GemmError> {
        let (reply, mut report) = self.submit_with(tenant, m, n, k, opts, |engine, run_opts| {
            engine.try_gemm_traced_opts(m, n, k, a, b, c, run_opts)
        })?;
        self.stamp(&mut report);
        Ok((reply, report))
    }

    /// Current service counters and queue state as the report
    /// section.
    pub fn report_section(&self) -> ServiceReport {
        let snap = self.metrics.snapshot();
        let admitted = snap.counter(Counter::ServiceAdmitted);
        let rejected = snap.counter(Counter::ServiceRejected);
        let shed = snap.counter(Counter::ServiceShed);
        let expired = snap.counter(Counter::ServiceExpiredInQueue);
        let offered = admitted + rejected + shed + expired;
        let dropped = rejected + shed + expired;
        let st = relock(self.queue.lock());
        ServiceReport {
            queue_depth: self.cfg.queue_depth,
            max_in_flight: self.max_in_flight,
            offered,
            admitted,
            rejected,
            shed,
            expired_in_queue: expired,
            shed_ratio: if offered == 0 { 0.0 } else { dropped as f64 / offered as f64 },
            queued: st.waiting.len() as u64,
            in_flight: st.in_flight as i64,
            queue_wait_ns: snap.queue_wait_ns.clone(),
        }
    }

    /// Attach the current [`Self::report_section`] to `report`.
    pub fn stamp(&self, report: &mut GemmReport) {
        report.service = Some(self.report_section());
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn build_engine(&self, quota: &TenantQuota) -> AutoGemm {
        let rt = match quota.workers {
            Some(w) => Runtime::with_workers(w),
            None => Arc::clone(&self.runtime),
        };
        let engine = AutoGemm::new(self.chip.clone()).with_runtime(rt);
        // The shed estimate reads the tenant engine's warm-call latency;
        // recording must be on for that signal to exist.
        engine.set_metrics_enabled(true);
        engine
    }

    fn tenant_state(&self, id: &TenantId) -> Arc<TenantState> {
        let mut map = relock(self.tenants.lock());
        if let Some(t) = map.get(id) {
            return Arc::clone(t);
        }
        let quota = self.cfg.default_quota.clone();
        let state = Arc::new(TenantState::new(quota, self.build_engine(&self.cfg.default_quota)));
        map.insert(id.clone(), Arc::clone(&state));
        state
    }

    /// Whether a `m×n×k` call on `tenant` at `threads` with `budget` left
    /// is shed. The estimate is the roofline floor max'd, once
    /// [`ShedPolicy::min_samples`] warm calls exist, with the tenant
    /// engine's [`AutoGemm::warm_latency`], scaled by the safety factor:
    /// a few float operations and one atomic load.
    ///
    /// A call the floor alone rules out is always shed. A call shed only
    /// on the observed term records no latency, so an estimate above the
    /// deadline would otherwise shed the tenant's calls for good. As in
    /// the breaker's half-open state, one such call per `budget` of time
    /// is admitted as a probe (`*probe` set) and is not shed again on the
    /// observed term at dispatch. Its latency, if it succeeds, moves the
    /// estimate.
    #[allow(clippy::too_many_arguments)]
    fn sheds(
        &self,
        tenant: &TenantState,
        m: usize,
        n: usize,
        k: usize,
        threads: usize,
        budget: Duration,
        probe: &mut bool,
    ) -> bool {
        let policy = &self.cfg.shed;
        let safety = policy.safety.max(0.0);
        let budget_ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        // peak_gflops_core is GFLOP/s per core == FLOP/ns per core.
        let peak = self.chip.peak_gflops_core() * threads.max(1) as f64;
        let floor = if peak > 0.0 { flops / peak } else { 0.0 };
        if (floor * safety) as u64 > budget_ns {
            return true;
        }
        let warm = tenant.engine.warm_latency();
        if *probe
            || warm.calls < policy.min_samples
            || (warm.ewma_ns as f64 * safety) as u64 <= budget_ns
        {
            return false;
        }
        *probe = tenant.probe_due(budget_ns);
        !*probe
    }

    fn reject(&self, counter: Counter, reason: RejectReason, queue_depth: usize) -> GemmError {
        self.metrics.add(counter, 1);
        GemmError::Rejected { reason, queue_depth }
    }

    /// Ticket of the first waiter whose tenant has in-flight headroom, if
    /// the global cap has headroom at all.
    fn first_eligible(st: &QueueState, max_in_flight: usize) -> Option<u64> {
        if st.in_flight >= max_in_flight {
            return None;
        }
        st.waiting
            .iter()
            .find(|w| st.loads.get(&w.tenant).is_none_or(|l| l.in_flight < w.tenant_cap.max(1)))
            .map(|w| w.ticket)
    }

    /// Remove `ticket` from the wait queue (deadline expiry / close),
    /// fixing up tenant load.
    fn remove_waiter(st: &mut QueueState, ticket: u64) {
        if let Some(pos) = st.waiting.iter().position(|w| w.ticket == ticket) {
            if let Some(w) = st.waiting.remove(pos) {
                if let Some(l) = st.loads.get_mut(&w.tenant) {
                    l.queued = l.queued.saturating_sub(1);
                }
            }
        }
    }

    fn submit_with<T>(
        &self,
        tenant: &TenantId,
        m: usize,
        n: usize,
        k: usize,
        opts: &GemmOptions,
        run: impl FnOnce(&AutoGemm, &GemmOptions) -> Result<T, GemmError>,
    ) -> Result<(ServiceReply, T), GemmError> {
        let t_submit = Instant::now();
        let state = self.tenant_state(tenant);
        let budget = opts.deadline.or(self.cfg.default_deadline);
        let threads = if opts.threads == 0 { state.quota.threads.max(1) } else { opts.threads };
        let mut probe = false;
        let shed = |budget: Duration, probe: &mut bool| {
            self.cfg.shed.enabled && self.sheds(&state, m, n, k, threads, budget, probe)
        };

        // Admission under one lock: the structural rejections first, then
        // the shed check (work that provably cannot meet its budget never
        // occupies a queue slot), then enqueue. Nothing here blocks.
        let ticket = {
            let mut guard = relock(self.queue.lock());
            let st = &mut *guard;
            let share = state.quota.max_queue_share.clamp(0.0, 1.0);
            let share_cap = ((self.cfg.queue_depth as f64 * share) as usize).max(1);
            let load = st.loads.entry(tenant.clone()).or_default();
            let rejection = if st.closed {
                Some((Counter::ServiceRejected, RejectReason::ServiceClosed))
            } else if st.waiting.len() >= self.cfg.queue_depth {
                Some((Counter::ServiceRejected, RejectReason::QueueFull))
            } else if load.queued >= share_cap {
                Some((Counter::ServiceRejected, RejectReason::TenantQueueShare))
            } else if budget.is_some_and(|b| shed(b, &mut probe)) {
                Some((Counter::ServiceShed, RejectReason::DeadlineUnmeetable))
            } else {
                None
            };
            if let Some((counter, reason)) = rejection {
                let qd = st.waiting.len();
                drop(guard);
                return Err(self.reject(counter, reason, qd));
            }
            load.queued += 1;
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.waiting.push_back(Waiter {
                ticket,
                tenant: tenant.clone(),
                tenant_cap: state.quota.max_in_flight,
            });
            ticket
        };
        let t_enq = Instant::now();
        // A new waiter can itself be the first eligible one.
        self.cv.notify_all();

        // Wait for dispatch: FIFO among eligible waiters, bounded by the
        // call's own deadline.
        let deadline_at = budget.map(|b| t_submit + b);
        let mut st = relock(self.queue.lock());
        loop {
            if st.closed {
                Self::remove_waiter(&mut st, ticket);
                let qd = st.waiting.len();
                drop(st);
                self.cv.notify_all();
                return Err(self.reject(Counter::ServiceRejected, RejectReason::ServiceClosed, qd));
            }
            if Self::first_eligible(&st, self.max_in_flight) == Some(ticket) {
                Self::remove_waiter(&mut st, ticket);
                break;
            }
            let tick = match deadline_at {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        Self::remove_waiter(&mut st, ticket);
                        let qd = st.waiting.len();
                        drop(st);
                        // Our departure may promote another waiter.
                        self.cv.notify_all();
                        return Err(self.reject(
                            Counter::ServiceExpiredInQueue,
                            RejectReason::ExpiredInQueue,
                            qd,
                        ));
                    }
                    (at - now).min(Duration::from_millis(50))
                }
                None => Duration::from_millis(50),
            };
            let (guard, _timeout) =
                self.cv.wait_timeout(st, tick).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }

        // Dispatched, lock still held. Queue wait counts from enqueue; the
        // budget loses everything since submit. Re-check what is left
        // before taking an execution slot.
        let now = Instant::now();
        let queue_wait = now.saturating_duration_since(t_enq);
        let remaining = budget.map(|b| b.saturating_sub(now.saturating_duration_since(t_submit)));
        let rejection = match remaining {
            // The whole budget went to queueing: this is in-queue expiry
            // caught at the dispatch edge, not a shed.
            Some(r) if r.is_zero() => {
                Some((Counter::ServiceExpiredInQueue, RejectReason::ExpiredInQueue))
            }
            Some(r) if shed(r, &mut probe) => {
                Some((Counter::ServiceShed, RejectReason::DeadlineUnmeetable))
            }
            _ => None,
        };
        if rejection.is_none() {
            st.in_flight += 1;
            st.loads.entry(tenant.clone()).or_default().in_flight += 1;
        }
        let qd = st.waiting.len();
        drop(st);
        self.metrics.record(&self.metrics.queue_wait_ns, queue_wait.as_nanos() as u64);
        if let Some((counter, reason)) = rejection {
            // Our departure may promote another waiter.
            self.cv.notify_all();
            return Err(self.reject(counter, reason, qd));
        }

        let result = {
            let mut run_opts = opts.clone();
            run_opts.threads = threads;
            if run_opts.verify == VerifyPolicy::Off {
                run_opts.verify = state.quota.verify;
            }
            run_opts.deadline = remaining;
            self.metrics.add(Counter::ServiceAdmitted, 1);
            let t0 = self.metrics.call_begin();
            let out = run(&state.engine, &run_opts);
            let outcome = match &out {
                Ok(_) => CallOutcome::Ok,
                Err(GemmError::Cancelled { .. }) => CallOutcome::Cancelled,
                Err(_) => CallOutcome::Error,
            };
            let flops =
                2u64.saturating_mul(m as u64).saturating_mul(n as u64).saturating_mul(k as u64);
            self.metrics.call_end(t0, flops, outcome, false);
            out.map_err(|e| GemmError::InService {
                tenant: tenant.name().to_string(),
                source: Box::new(e),
            })
        };

        // Release the execution slot whatever happened.
        {
            let mut st = relock(self.queue.lock());
            st.in_flight = st.in_flight.saturating_sub(1);
            if let Some(l) = st.loads.get_mut(tenant) {
                l.in_flight = l.in_flight.saturating_sub(1);
            }
        }
        self.cv.notify_all();

        result.map(|value| (ServiceReply { queue_wait }, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_samples_gates_the_observed_term_on_warm_calls() {
        let min_samples = 4;
        let cfg = ServiceConfig {
            shed: ShedPolicy { enabled: true, min_samples, safety: 1.0 },
            ..ServiceConfig::default()
        };
        let svc = GemmService::new(ChipSpec::graviton2(), cfg);
        let id = svc.add_tenant("gated", TenantQuota::default());
        let state = svc.tenant_state(&id);
        // A block-route shape whose fixed per-call cost dwarfs its FLOPs:
        // the budget sits well above the roofline floor and well below
        // any real call.
        let (m, n, k) = (8, 8, 16);
        let (a, b) = (vec![1.0f32; m * k], vec![1.0f32; k * n]);
        let mut c = vec![0.0f32; m * n];
        let budget = Duration::from_nanos(300);
        let floor_ns = 2.0 * (m * n * k) as f64 / ChipSpec::graviton2().peak_gflops_core();
        assert!(floor_ns < 150.0, "floor {floor_ns} ns");
        loop {
            let warm = state.engine.warm_latency();
            let mut probe = false;
            let shed = svc.sheds(&state, m, n, k, 1, budget, &mut probe);
            assert!(!probe, "the first shed only starts the probe clock");
            if warm.calls < min_samples {
                assert!(!shed, "observed term used after {} warm calls", warm.calls);
            } else {
                assert!(shed, "{warm:?} above a {budget:?} budget must shed");
                break;
            }
            state.engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new()).expect("gemm");
        }
        // One budget later the next shed becomes a probe, which is not
        // shed again on the observed term; the slot then stays taken for
        // a full interval.
        std::thread::sleep(Duration::from_millis(1));
        let mut probe = false;
        assert!(!svc.sheds(&state, m, n, k, 1, budget, &mut probe));
        assert!(probe);
        assert!(!svc.sheds(&state, m, n, k, 1, budget, &mut probe));
        assert!(!state.probe_due(60_000_000_000), "one probe per interval");
    }
}
