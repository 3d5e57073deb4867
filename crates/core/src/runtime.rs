//! Persistent worker-pool runtime: the threaded hot path without
//! per-call thread spawn.
//!
//! The paper's battleground is irregular/small GEMM, where fixed
//! per-call overhead dominates (§V). Until this module existed every
//! threaded section — pack panels, kernel block drain, batch items —
//! paid a full scoped spawn/join of N OS threads *per GEMM call*, plus
//! one watchdog thread per supervised call. A service draining millions
//! of small requests (the ROADMAP north-star) pays that constant cost on
//! every one of them.
//!
//! [`Runtime`] replaces both spawn classes with long-lived threads:
//!
//! * **Worker pool** — `(host_parallelism - 1).max(1)` workers are
//!   created once (lazily, on first use) and idle between sections (see
//!   *Hot handoff* below). A threaded section submits a *job*: a borrowed
//!   `Fn(usize)` body plus a slot count. The submitting caller always
//!   runs slot 0 itself; idle workers claim the remaining slots
//!   and run the same body. Job bodies are **slot-agnostic** — every
//!   driver section drains a shared atomic cursor, so any subset of
//!   slots (down to the caller alone, when all workers are busy serving
//!   other submissions) completes the section. That property is what
//!   makes the pool deadlock-free under concurrent submissions: no job
//!   ever *requires* a worker to arrive.
//! * **Watchdog hub** — one monitor thread per runtime (so one
//!   process-wide by default, or one per engine with a dedicated
//!   runtime) serving per-submission heartbeat registrations, replacing
//!   the watchdog thread the supervised drivers used to spawn per call.
//!
//! ## Lifecycle and memory safety
//!
//! A submitted job borrows its body from the caller's stack, so the pool
//! stores a lifetime-erased raw pointer. Soundness rests on
//! *join-before-return*: [`WorkerPool::run`] closes the job (no further
//! slot claims) and blocks until every active runner has left the body
//! before it returns — including on unwind, via a drop guard — so no
//! worker can observe the pointer after the borrow ends. All claim and
//! completion bookkeeping lives under one pool mutex; workers only park
//! when the queue holds no claimable slot.
//!
//! ## Hot handoff: spin, then park
//!
//! Parking costs a futex wake on the other side, and a small call
//! submits up to three sections (pack A, pack B, kernel), so a pool that
//! parks at once pays that wake several times per call. Both sides
//! therefore spin — poll, yield, poll — for up to [`SPIN_BUDGET`]
//! (50 µs) before they park:
//!
//! * **Worker.** A worker that finds no claimable slot polls the
//!   lock-free `open_jobs` count, then takes the lock and claims. Only
//!   once the budget has run out does it count itself into
//!   `PoolState::parked` and wait on `work_cv` — under the pool mutex,
//!   where a submission pushes its job and reads that count, and it
//!   notifies only when the count is non-zero. A worker either sees the
//!   job when it re-checks the queue under the lock, or is counted and
//!   gets the notify: no wakeup is lost.
//! * **Submitter.** The join barrier closes the job, then polls the
//!   job's runner count (an atomic on the submitter's stack, written
//!   under the lock) without the lock. Only once the budget has run out
//!   does it mark the job `joiner_parked` and wait on `done_cv`; the last
//!   runner notifies only a marked job, again under the lock.
//!
//! **CPU cost.** An idle pool burns at most one budget per worker per
//! section it served: a worker spins for 50 µs after its last body, a
//! joining caller for at most 50 µs while a worker finishes, and neither
//! spins again until new work arrives. Workers that stay idle longer are
//! parked and cost nothing. On a host with one hardware thread the budget
//! is zero: a spinner there could only delay the thread it waits for.
//! [`PoolStats`] splits first claims into `hot_claims` (no park since the
//! worker's previous claim) and `woken_claims`, and records spinning in
//! `spin_ns_total` apart from `park_ns_total`.
//!
//! ## Panic containment
//!
//! Driver job bodies contain their own panics (poison-flag + first-panic
//! capture, see [`crate::native::Poison`]); the pool adds a
//! `catch_unwind` backstop so even a body that leaks a panic cannot kill
//! a pool worker. A poisoned submission therefore drains, joins, reports
//! its structured error — and the pool stays reusable for the next call.
//!
//! Uses `std::sync::{Mutex, Condvar}` directly (the vendored
//! `parking_lot` facade deliberately carries no `Condvar`); lock
//! poisoning is forgiven everywhere — pool state is a claim ledger of
//! plain integers, always valid.

use crate::supervisor::{RunMonitor, Supervision, WatchdogConfig};
use crate::telemetry::{MetricsRegistry, TraceBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Host hardware parallelism (1 when the probe fails).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Workers the default (global) pool spawns: the caller thread
/// participates in every submission as slot 0, so `host - 1` workers
/// saturate the host without oversubscribing — floored at 1 so threaded
/// sections stay genuinely concurrent even on a single-core host.
pub(crate) fn default_pool_workers() -> usize {
    host_parallelism().saturating_sub(1).max(1)
}

#[inline]
fn forgive<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// How long an idle worker polls for a new job, and a submitter polls
/// for its job's last runner, before parking on a condvar.
///
/// Parking costs a futex wake on the other side: on a 2-vCPU AVX-512VL
/// Xeon the mean submit→first-claim latency of a parked worker was
/// 7–8 µs, and with up to three sections per call (pack A, pack B,
/// kernel) the pool took a sixth of a small call's time. 50 µs is about
/// six such wakes: it bridges the gaps between the sections of one call
/// and between back-to-back small calls (there the mean wake latency
/// fell to 1.1–1.3 µs), while an idle pool stops burning CPU within
/// 50 µs of its last section. Hosts with one hardware thread never spin — the
/// spinner would only delay the thread it waits for.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Poll `ready` until it holds or `budget` has passed since `from`;
/// returns whether it held. Between polls the thread yields rather than
/// pausing: when the scheduler has put the spinner on the core of the
/// thread it waits for, a pause loop holds that core for the whole
/// budget, while a yield lets the other thread run. (With pause-only
/// polling, a 2-vCPU Xeon at times started a stream of 64×49×64 calls in
/// that state and kept it for about a second — every spin expired, no
/// claim was hot — where yielding polls served every claim hot.)
fn spin_until(from: Instant, budget: Duration, ready: impl Fn() -> bool) -> bool {
    loop {
        if ready() {
            return true;
        }
        if from.elapsed() >= budget {
            return false;
        }
        std::thread::yield_now();
    }
}

/// One submitted section: a lifetime-erased body plus the slot ledger.
/// Only ever touched under the pool mutex.
struct ActiveJob {
    id: u64,
    /// Borrowed from the submitting stack; valid until [`WorkerPool::run`]
    /// returns (join-before-return, see module docs).
    body: *const (dyn Fn(usize) + Sync),
    slots: usize,
    /// Next slot to hand out; `slots` means closed.
    next_slot: usize,
    /// Runners currently inside the body. The counter lives on the
    /// submitter's stack, so its join barrier can poll it without the
    /// lock; it is only written under the lock, and the job leaves the
    /// queue (under the lock) before the counter goes out of scope. A
    /// runner's `Release` decrement pairs with the barrier's `Acquire`
    /// poll, so the body's writes are visible once it reads zero.
    active: *const AtomicUsize,
    submitted: Instant,
    /// First worker claim recorded (wake-latency sample taken).
    woken: bool,
    /// The submitter spent its spin budget and waits on `done_cv`: the
    /// last runner to leave must notify it.
    joiner_parked: bool,
}

// SAFETY: the body and counter pointers are only dereferenced between
// submission and the submitter's join-before-return barrier, while the
// borrows they were erased from are still live; the body is `Sync` so
// shared calls from several workers are sound, and the counter is an
// atomic.
unsafe impl Send for ActiveJob {}

impl ActiveJob {
    fn active(&self) -> &AtomicUsize {
        // SAFETY: see the `active` field — the job is still queued, so
        // its submitter has not left the join barrier.
        unsafe { &*self.active }
    }

    /// Hand out no further slots: the section's work is drained.
    fn close(&mut self, open_jobs: &AtomicUsize) {
        if self.next_slot < self.slots {
            self.next_slot = self.slots;
            open_jobs.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

struct PoolState {
    jobs: Vec<ActiveJob>,
    next_job_id: u64,
    /// Workers blocked on `work_cv`. A submission notifies only when
    /// this is non-zero; a worker counts itself in (after a failed claim)
    /// and out under the same lock, so no wakeup is lost.
    parked: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here once their spin budget finds no claimable slot.
    work_cv: Condvar,
    /// Submitters park here once their spin budget has not seen their
    /// job's last runner leave.
    done_cv: Condvar,
    /// Jobs with a claimable slot: written under the lock, polled
    /// lock-free by spinning workers. `Relaxed` throughout: it is only a
    /// hint to take the lock, which publishes the job itself.
    open_jobs: AtomicUsize,
    /// Set under the lock on drop; polled by spinning workers too (a
    /// `Relaxed` hint, like `open_jobs`).
    shutdown: AtomicBool,
    /// [`SPIN_BUDGET`], or zero on a single-threaded host.
    spin: Duration,
    submissions: AtomicU64,
    jobs_completed: AtomicU64,
    wake_count: AtomicU64,
    hot_claims: AtomicU64,
    woken_claims: AtomicU64,
    wake_ns: AtomicU64,
    busy_ns: AtomicU64,
    spin_ns: AtomicU64,
    park_ns: AtomicU64,
    threads_clamped: AtomicU64,
    workers_alive: AtomicUsize,
    /// Runtime-lifetime wake/busy/park *distributions* (the `PoolStats`
    /// totals above stay for the `pool` report section; the registry
    /// adds percentiles on top).
    metrics: Arc<MetricsRegistry>,
}

impl PoolShared {
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        forgive(self.state.lock())
    }
}

/// Cumulative counters of one [`Runtime`]'s worker pool. Nanosecond
/// totals rather than averages so readers can difference two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers the pool was configured with.
    pub workers: u64,
    /// Worker threads currently alive — the leak gauge: equals `workers`
    /// from first use for the life of the runtime.
    pub alive_workers: u64,
    /// Sections submitted to the pool. A submission notifies the
    /// workers only when one is parked; spinning workers pick it up
    /// without a wake.
    pub submissions: u64,
    /// Submissions fully retired (closed, drained and joined).
    pub jobs_completed: u64,
    /// Submissions a worker actually reached (on a loaded pool the
    /// caller may drain a whole section alone; those never count here).
    /// Always `hot_claims + woken_claims`.
    pub wake_count: u64,
    /// First claims made by a worker that had not parked since its
    /// previous claim (served while spinning or straight after a body).
    pub hot_claims: u64,
    /// First claims made by a worker that parked on the condvar and was
    /// woken.
    pub woken_claims: u64,
    /// Total submit→first-worker-claim latency, in nanoseconds.
    pub wake_ns_total: u64,
    /// Total time workers spent inside job bodies, in nanoseconds.
    pub busy_ns_total: u64,
    /// Total time idle workers spent spinning before a claim or a park,
    /// in nanoseconds (CPU time, unlike `park_ns_total`).
    pub spin_ns_total: u64,
    /// Total time workers spent parked, in nanoseconds.
    pub park_ns_total: u64,
    /// Engine calls whose requested thread count was clamped to the
    /// pool's capacity (the recorded oversubscription fallback).
    pub threads_clamped: u64,
}

/// The long-lived worker set. Created once per [`Runtime`]; workers are
/// parked between submissions and joined on drop.
struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
}

impl WorkerPool {
    fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { jobs: Vec::new(), next_job_id: 0, parked: 0 }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            open_jobs: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            spin: if host_parallelism() > 1 { SPIN_BUDGET } else { Duration::ZERO },
            submissions: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            wake_count: AtomicU64::new(0),
            hot_claims: AtomicU64::new(0),
            woken_claims: AtomicU64::new(0),
            wake_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            spin_ns: AtomicU64::new(0),
            park_ns: AtomicU64::new(0),
            threads_clamped: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(0),
            metrics: Arc::new(MetricsRegistry::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let sh = Arc::clone(&shared);
            sh.workers_alive.fetch_add(1, Ordering::Relaxed);
            let spawned = std::thread::Builder::new()
                .name(format!("autogemm-pool-{i}"))
                .spawn(move || worker_loop(&sh));
            match spawned {
                Ok(h) => handles.push(h),
                // A host that cannot spawn gets a smaller pool; the
                // caller-runs-slot-0 rule keeps every submission live.
                Err(_) => {
                    shared.workers_alive.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        WorkerPool { shared, handles: Mutex::new(handles), workers }
    }

    /// Run `body(t)` for slots `0..slots`: slot 0 on the calling thread,
    /// the rest on pool workers. Returns only once no runner remains
    /// inside `body` (join-before-return), even on unwind.
    fn run(&self, slots: usize, body: &(dyn Fn(usize) + Sync)) {
        debug_assert!(slots >= 2, "single-slot sections run inline");
        let shared = &*self.shared;
        shared.submissions.fetch_add(1, Ordering::Relaxed);
        // SAFETY: lifetime erasure only — the fat pointer layout is
        // identical, and the `Completion` guard below joins every runner
        // before `run` returns, so the erased pointer never outlives the
        // borrow it came from.
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(body as *const (dyn Fn(usize) + Sync)) };
        // Declared before the guard, so it outlives the guard's join.
        let active = AtomicUsize::new(0);
        let (id, parked) = {
            let mut st = shared.lock_state();
            let id = st.next_job_id;
            st.next_job_id += 1;
            st.jobs.push(ActiveJob {
                id,
                body: erased,
                slots,
                next_slot: 1,
                active: &active,
                submitted: Instant::now(),
                woken: false,
                joiner_parked: false,
            });
            shared.open_jobs.fetch_add(1, Ordering::Relaxed);
            (id, st.parked)
        };
        let _completion = Completion { shared, id, active: &active };
        if parked > 0 {
            if slots == 2 {
                shared.work_cv.notify_one();
            } else {
                shared.work_cv.notify_all();
            }
        }
        body(0);
    }

    fn stats(&self) -> PoolStats {
        let sh = &self.shared;
        PoolStats {
            workers: self.workers as u64,
            alive_workers: sh.workers_alive.load(Ordering::Relaxed) as u64,
            submissions: sh.submissions.load(Ordering::Relaxed),
            jobs_completed: sh.jobs_completed.load(Ordering::Relaxed),
            wake_count: sh.wake_count.load(Ordering::Relaxed),
            hot_claims: sh.hot_claims.load(Ordering::Relaxed),
            woken_claims: sh.woken_claims.load(Ordering::Relaxed),
            wake_ns_total: sh.wake_ns.load(Ordering::Relaxed),
            busy_ns_total: sh.busy_ns.load(Ordering::Relaxed),
            spin_ns_total: sh.spin_ns.load(Ordering::Relaxed),
            park_ns_total: sh.park_ns.load(Ordering::Relaxed),
            threads_clamped: sh.threads_clamped.load(Ordering::Relaxed),
        }
    }
}

/// Close-and-join barrier of one submission; runs on normal return *and*
/// unwind, so the erased body pointer never outlives its borrow.
struct Completion<'p> {
    shared: &'p PoolShared,
    id: u64,
    active: &'p AtomicUsize,
}

impl Drop for Completion<'_> {
    fn drop(&mut self) {
        let shared = self.shared;
        let mut st = shared.lock_state();
        // Close: unclaimed slots are abandoned — job bodies drain a shared
        // cursor, so the finished slot-0 run proves there is no work left
        // for them.
        if let Some(job) = st.jobs.iter_mut().find(|j| j.id == self.id) {
            job.close(&shared.open_jobs);
        }
        let mut spun = false;
        loop {
            if self.active.load(Ordering::Acquire) == 0 {
                if let Some(pos) = st.jobs.iter().position(|j| j.id == self.id) {
                    st.jobs.remove(pos);
                }
                break;
            }
            if !spun {
                // A worker is still inside the body, usually finishing
                // its last cursor unit: wait for it without the lock.
                spun = true;
                drop(st);
                spin_until(Instant::now(), shared.spin, || {
                    self.active.load(Ordering::Acquire) == 0
                });
                st = shared.lock_state();
                continue;
            }
            if let Some(job) = st.jobs.iter_mut().find(|j| j.id == self.id) {
                job.joiner_parked = true;
            }
            st = forgive(shared.done_cv.wait(st));
        }
        drop(st);
        shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // Under the lock: a worker checks the flag before it counts
            // itself parked, so it either sees it or gets the notify.
            let _st = self.shared.lock_state();
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work_cv.notify_all();
        let handles = std::mem::take(&mut *forgive(self.handles.lock()));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// What a claiming worker receives: the erased job body, the slot index
/// it will run as, and the job id to retire against.
type ClaimedSlot = (*const (dyn Fn(usize) + Sync), usize, u64);

/// Claim the next open slot across queued jobs (FIFO), recording the
/// job's wake latency — and whether a parked (`woken`) or a spinning
/// worker served it — on its first worker claim.
fn claim_slot(st: &mut PoolState, shared: &PoolShared, woken: bool) -> Option<ClaimedSlot> {
    let job = st.jobs.iter_mut().find(|j| j.next_slot < j.slots)?;
    let slot = job.next_slot;
    job.next_slot += 1;
    if job.next_slot == job.slots {
        shared.open_jobs.fetch_sub(1, Ordering::Relaxed);
    }
    job.active().fetch_add(1, Ordering::Relaxed);
    if !job.woken {
        job.woken = true;
        let wake_ns = job.submitted.elapsed().as_nanos() as u64;
        shared.wake_count.fetch_add(1, Ordering::Relaxed);
        let claims = if woken { &shared.woken_claims } else { &shared.hot_claims };
        claims.fetch_add(1, Ordering::Relaxed);
        shared.wake_ns.fetch_add(wake_ns, Ordering::Relaxed);
        shared.metrics.record(&shared.metrics.pool_wake_ns, wake_ns);
    }
    Some((job.body, slot, job.id))
}

/// A worker's time between leaving one body and claiming the next slot:
/// a spin of up to [`SPIN_BUDGET`], then parks on `work_cv`.
struct Idle {
    since: Instant,
    /// Length of the spin, once the budget ran out without a claim.
    spun_ns: Option<u64>,
    /// Summed condvar waits; `None` while the worker never parked.
    park_ns: Option<u64>,
}

fn worker_loop(shared: &PoolShared) {
    let mut st = shared.lock_state();
    // The spin and park of an idle period are recorded at the next claim
    // — under the lock, before the claimed job can complete — so every
    // runtime-side record lands before the submitter returns.
    let mut idle: Option<Idle> = None;
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let woken = idle.as_ref().is_some_and(|i| i.park_ns.is_some());
        if let Some((body, slot, job_id)) = claim_slot(&mut st, shared, woken) {
            if let Some(i) = idle.take() {
                let spin_ns = i.spun_ns.unwrap_or_else(|| i.since.elapsed().as_nanos() as u64);
                shared.spin_ns.fetch_add(spin_ns, Ordering::Relaxed);
                if let Some(park_ns) = i.park_ns {
                    shared.park_ns.fetch_add(park_ns, Ordering::Relaxed);
                    shared.metrics.record(&shared.metrics.pool_park_ns, park_ns);
                }
            }
            drop(st);
            let t0 = Instant::now();
            // SAFETY: join-before-return — the submitter cannot return
            // (and thus end the borrow) while this job's `active` count
            // includes us.
            let body_ref: &(dyn Fn(usize) + Sync) = unsafe { &*body };
            // Backstop only: driver bodies contain their own panics via
            // the section poison flag; this keeps a leaked panic from
            // killing a pool worker.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body_ref(slot)));
            let busy_ns = t0.elapsed().as_nanos() as u64;
            shared.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            shared.metrics.record(&shared.metrics.pool_busy_ns, busy_ns);
            st = shared.lock_state();
            if let Some(job) = st.jobs.iter().find(|j| j.id == job_id) {
                let left = job.active().fetch_sub(1, Ordering::Release) - 1;
                if left == 0 && job.joiner_parked {
                    shared.done_cv.notify_all();
                }
            }
            continue;
        }
        let i = idle.get_or_insert_with(|| Idle {
            since: Instant::now(),
            spun_ns: None,
            park_ns: None,
        });
        if i.spun_ns.is_none() {
            drop(st);
            let since = i.since;
            let hit = spin_until(since, shared.spin, || {
                shared.open_jobs.load(Ordering::Relaxed) > 0
                    || shared.shutdown.load(Ordering::Relaxed)
            });
            if !hit {
                i.spun_ns = Some(since.elapsed().as_nanos() as u64);
            }
            st = shared.lock_state();
            continue;
        }
        st.parked += 1;
        let p0 = Instant::now();
        st = forgive(shared.work_cv.wait(st));
        st.parked -= 1;
        *i.park_ns.get_or_insert(0) += p0.elapsed().as_nanos() as u64;
    }
    shared.workers_alive.fetch_sub(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Watchdog hub — one monitor thread per runtime
// ---------------------------------------------------------------------------

struct WatchEntry {
    id: u64,
    mon: Arc<RunMonitor>,
    cfg: WatchdogConfig,
    last: Vec<u64>,
    last_change: Instant,
    next_sample: Instant,
}

struct HubState {
    entries: Vec<WatchEntry>,
    shutdown: bool,
}

struct HubShared {
    state: Mutex<HubState>,
    cv: Condvar,
    registrations: AtomicU64,
}

impl HubShared {
    fn lock_state(&self) -> MutexGuard<'_, HubState> {
        forgive(self.state.lock())
    }
}

/// The shared stuck-worker monitor: per-submission heartbeat
/// registrations served by one long-lived thread (spawned lazily on the
/// first watched run, parked while nothing is registered).
struct WatchdogHub {
    shared: Arc<HubShared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl WatchdogHub {
    fn new() -> WatchdogHub {
        WatchdogHub {
            shared: Arc::new(HubShared {
                state: Mutex::new(HubState { entries: Vec::new(), shutdown: false }),
                cv: Condvar::new(),
                registrations: AtomicU64::new(0),
            }),
            thread: Mutex::new(None),
            next_id: AtomicU64::new(0),
        }
    }

    fn watch(&self, mon: &Arc<RunMonitor>) -> Option<WatchGuard> {
        let cfg = mon.watchdog_config()?;
        {
            let mut slot = forgive(self.thread.lock());
            if slot.is_none() {
                let sh = Arc::clone(&self.shared);
                *slot = std::thread::Builder::new()
                    .name("autogemm-watchdog".into())
                    .spawn(move || hub_loop(&sh))
                    .ok();
                // Spawn failure leaves the run unwatched — same
                // best-effort contract as the historical per-call
                // `spawn_watchdog().ok()`.
                slot.as_ref()?;
            }
        }
        self.shared.registrations.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let mut st = self.shared.lock_state();
        st.entries.push(WatchEntry {
            id,
            mon: Arc::clone(mon),
            cfg,
            last: mon.sample_beats(),
            last_change: now,
            next_sample: now + cfg.poll.max(Duration::from_millis(1)),
        });
        drop(st);
        self.shared.cv.notify_all();
        Some(WatchGuard { shared: Arc::clone(&self.shared), id })
    }
}

impl Drop for WatchdogHub {
    fn drop(&mut self) {
        self.shared.lock_state().shutdown = true;
        self.shared.cv.notify_all();
        if let Some(h) = forgive(self.thread.lock()).take() {
            let _ = h.join();
        }
    }
}

/// Deregistration handle for one watched run. Dropping it removes the
/// run from the hub; the caller still marks the monitor finished (via
/// [`RunMonitor::finish`]) first, so a concurrent sample sees a finished
/// run, never a dangling one.
pub(crate) struct WatchGuard {
    shared: Arc<HubShared>,
    id: u64,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let mut st = self.shared.lock_state();
        st.entries.retain(|e| e.id != self.id);
    }
}

fn hub_loop(shared: &HubShared) {
    let mut st = shared.lock_state();
    loop {
        if st.shutdown {
            return;
        }
        st.entries.retain(|e| !e.mon.is_finished());
        if st.entries.is_empty() {
            st = forgive(shared.cv.wait(st));
            continue;
        }
        let now = Instant::now();
        let mut tripped: Vec<u64> = Vec::new();
        for e in st.entries.iter_mut() {
            if now < e.next_sample {
                continue;
            }
            e.next_sample = now + e.cfg.poll.max(Duration::from_millis(1));
            let beats = e.mon.sample_beats();
            if beats != e.last {
                e.last = beats;
                e.last_change = now;
                continue;
            }
            if now.duration_since(e.last_change) >= e.cfg.quiescence {
                e.mon.trip_stall(e.last.clone(), e.cfg.quiescence.as_millis() as u64);
                tripped.push(e.id);
            }
        }
        if !tripped.is_empty() {
            st.entries.retain(|e| !tripped.contains(&e.id));
        }
        let next = st.entries.iter().map(|e| e.next_sample).min();
        match next {
            Some(at) => {
                let dur = at.saturating_duration_since(Instant::now());
                let (guard, _) =
                    forgive(shared.cv.wait_timeout(st, dur.max(Duration::from_micros(200))));
                st = guard;
            }
            None => st = forgive(shared.cv.wait(st)),
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime — pool + watchdog hub
// ---------------------------------------------------------------------------

/// The shared execution runtime: a persistent worker pool plus the
/// watchdog hub. One process-wide instance ([`Runtime::global`]) serves
/// every engine by default; [`Runtime::with_workers`] builds a dedicated
/// instance (isolation for tests or multi-tenant embedders).
pub struct Runtime {
    pool: WorkerPool,
    hub: WatchdogHub,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime").field("workers", &self.pool.workers).finish()
    }
}

impl Runtime {
    /// A dedicated runtime with `workers` pool workers, clamped to host
    /// parallelism (floored at 1 — the submission capacity is
    /// `workers + 1` because the caller always runs slot 0).
    pub fn with_workers(workers: usize) -> Arc<Runtime> {
        let workers = workers.clamp(1, host_parallelism().max(1));
        Arc::new(Runtime { pool: WorkerPool::new(workers), hub: WatchdogHub::new() })
    }

    /// The process-wide shared runtime, created on first use with
    /// `(host_parallelism - 1).max(1)` workers.
    pub fn global() -> Arc<Runtime> {
        static GLOBAL: OnceLock<Arc<Runtime>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| {
            Arc::new(Runtime {
                pool: WorkerPool::new(default_pool_workers()),
                hub: WatchdogHub::new(),
            })
        }))
    }

    /// Max useful per-call thread count: every pool worker plus the
    /// calling thread. [`GemmOptions::threads`](crate::GemmOptions)
    /// beyond this is clamped by the engine (recorded in
    /// [`PoolStats::threads_clamped`]); floored at 2 so threaded
    /// execution stays exercisable even on a single-core host.
    pub fn capacity(&self) -> usize {
        (self.pool.workers + 1).max(2)
    }

    /// Configured pool worker count (excluding the calling thread).
    /// [`GemmService`](crate::service::GemmService) derives its default
    /// execution-concurrency limit from this.
    pub fn workers(&self) -> usize {
        self.pool.workers
    }

    /// How long an idle worker, or a submitter joining its section,
    /// spins before it parks: 50 µs, or zero on a host with one hardware
    /// thread (see the module docs).
    pub fn spin_budget(&self) -> Duration {
        self.pool.shared.spin
    }

    /// Cumulative pool counters (see [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// This runtime's metrics registry: wake/busy/park latency
    /// *distributions* over the runtime's lifetime (the [`PoolStats`]
    /// totals stay for the `pool` report section; the registry adds
    /// percentiles). Engines merge it into
    /// [`AutoGemm::metrics`](crate::AutoGemm::metrics).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.pool.shared.metrics
    }

    /// Worker threads currently alive — the leak gauge used by the CI
    /// soak (must equal the configured worker count).
    pub fn alive_workers(&self) -> usize {
        self.pool.shared.workers_alive.load(Ordering::Relaxed)
    }

    /// Record one engine call whose thread request exceeded
    /// [`Runtime::capacity`] and was clamped.
    pub(crate) fn note_clamped(&self) {
        self.pool.shared.threads_clamped.fetch_add(1, Ordering::Relaxed);
    }

    /// Register `mon` with the watchdog hub (no-op without a watchdog
    /// config). The returned guard deregisters on drop.
    pub(crate) fn watch(&self, mon: &Arc<RunMonitor>) -> Option<WatchGuard> {
        self.hub.watch(mon)
    }
}

/// Spawn-per-call twin of [`WorkerPool::run`], kept ONLY as the
/// measurement baseline for the pool benchmark (`BENCH_pool.json`): one
/// fresh scoped OS thread per slot, joined before return — exactly what
/// the drivers did before the pool existed. Never on the production
/// path.
fn scoped_spawn(slots: usize, body: &(dyn Fn(usize) + Sync)) {
    std::thread::scope(|scope| {
        for t in 0..slots {
            scope.spawn(move || body(t));
        }
    });
}

/// How one driver call executes its threaded sections. Built once per
/// call from the [`Supervision`] bundle and the run-config's pool gate,
/// then shared by every section of that call.
pub(crate) struct Exec {
    rt: Arc<Runtime>,
    /// Degraded submission path (fault injection or an open
    /// `pool_submit` breaker): the caller drains every section alone.
    /// Correct because bodies are slot-agnostic cursor drains.
    inline: bool,
    /// Bench baseline: scoped spawn-per-call (see [`scoped_spawn`]).
    scoped: bool,
    /// Span timeline from the call's [`Supervision`] (`None` =
    /// untraced; every hook below is then a single branch).
    tracer: Option<Arc<TraceBuf>>,
}

impl Exec {
    pub(crate) fn new(sup: &Supervision, inline: bool) -> Exec {
        Exec {
            rt: sup.runtime_handle(),
            inline: inline || sup.force_inline,
            scoped: sup.spawn_baseline,
            tracer: sup.tracer.clone(),
        }
    }

    /// Unsupervised plan-level sections (repack baseline, transpose):
    /// global pool, no degradation gates.
    pub(crate) fn unsupervised() -> Exec {
        Exec { rt: Runtime::global(), inline: false, scoped: false, tracer: None }
    }

    pub(crate) fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// Run a slot-agnostic section body on `threads` slots.
    pub(crate) fn run_section(&self, threads: usize, body: &(dyn Fn(usize) + Sync)) {
        if threads <= 1 || self.inline {
            body(0);
        } else if self.scoped {
            scoped_spawn(threads, body);
        } else {
            self.rt.pool.run(threads, body);
        }
    }

    /// [`Exec::run_section`] plus timeline emission: one `name` phase
    /// span per active slot, a caller-lane `submit` lead-in, per-worker
    /// `wake` lead-ins (submit → body start), and per-slot `drain` tails
    /// (body end → section close, the load-imbalance gap). Identical to
    /// `run_section` when no tracer is attached.
    pub(crate) fn run_section_traced(
        &self,
        threads: usize,
        name: &'static str,
        body: &(dyn Fn(usize) + Sync),
    ) {
        let Some(tb) = self.tracer.as_deref() else {
            self.run_section(threads, body);
            return;
        };
        if threads <= 1 || self.inline {
            let s0 = tb.now_ns();
            body(0);
            tb.push(0, name, "phase", s0, tb.now_ns());
            return;
        }
        let t0 = tb.now_ns();
        let ends: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        let ends_ref = &ends;
        let wrapped = move |t: usize| {
            let s0 = tb.now_ns();
            if t == 0 {
                tb.push(0, "submit", "pool", t0, s0);
            } else {
                tb.push(t, "wake", "pool", t0, s0);
            }
            body(t);
            let s1 = tb.now_ns();
            tb.push(t, name, "phase", s0, s1);
            if let Some(e) = ends_ref.get(t) {
                e.store(s1.max(1), Ordering::Relaxed);
            }
        };
        self.run_section(threads, &wrapped);
        let end = tb.now_ns();
        for (t, e) in ends.iter().enumerate() {
            let done = e.load(Ordering::Relaxed);
            // Slots never claimed by a worker left their cell at 0.
            if done != 0 && done < end {
                tb.push(t, "drain", "pool", done, end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_every_cursor_unit_exactly_once() {
        let rt = Runtime::with_workers(2);
        for round in 0..50 {
            let units = 64 + round;
            let cursor = AtomicUsize::new(0);
            let hits: Vec<AtomicUsize> = (0..units).map(|_| AtomicUsize::new(0)).collect();
            let body = |_t: usize| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(h) = hits.get(i) else { break };
                h.fetch_add(1, Ordering::Relaxed);
            };
            rt.pool.run(3, &body);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "round {round} unit {i}");
            }
        }
        assert_eq!(rt.alive_workers(), rt.stats().workers as usize);
    }

    #[test]
    fn pool_survives_a_panicking_body_and_stays_reusable() {
        let rt = Runtime::with_workers(1);
        let before = rt.alive_workers();
        // A body that panics on a worker slot; the backstop must contain
        // it even though no driver poison flag is involved here.
        let body = |t: usize| {
            if t > 0 {
                panic!("runtime test panic");
            }
        };
        rt.pool.run(2, &body);
        assert_eq!(rt.alive_workers(), before, "worker died on a contained panic");
        // Next submission still completes all units.
        let cursor = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let body2 = |_t: usize| loop {
            if cursor.fetch_add(1, Ordering::Relaxed) >= 10 {
                break;
            }
            done.fetch_add(1, Ordering::Relaxed);
        };
        rt.pool.run(2, &body2);
        assert_eq!(done.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn concurrent_submissions_share_one_pool_without_deadlock() {
        let rt = Runtime::with_workers(1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rt = &rt;
                scope.spawn(move || {
                    for _ in 0..25 {
                        let cursor = AtomicUsize::new(0);
                        let done = AtomicUsize::new(0);
                        let body = |_t: usize| loop {
                            if cursor.fetch_add(1, Ordering::Relaxed) >= 16 {
                                break;
                            }
                            done.fetch_add(1, Ordering::Relaxed);
                        };
                        rt.pool.run(3, &body);
                        assert_eq!(done.load(Ordering::Relaxed), 16);
                    }
                });
            }
        });
        let stats = rt.stats();
        assert_eq!(stats.jobs_completed, 100);
        assert_eq!(rt.alive_workers(), stats.workers as usize);
    }

    /// Busy-wait `d`; a sleep would overshoot by the timer slack.
    fn pause(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// Both directions of the handoff raced at the spin budget. Each
    /// round first idles the pool for the budget ± 50%, so the submission
    /// lands as the worker stops spinning and parks; slot 0 then waits
    /// for the worker to arrive, so a lost `work_cv` notify shows as a
    /// worker that never comes. The worker's slot then runs for the
    /// budget ± 50%, so the joining caller stops spinning and parks as
    /// the worker leaves; a lost `done_cv` notify hangs the round.
    #[test]
    fn handoffs_raced_at_the_spin_budget_lose_no_wakeup() {
        let rt = Runtime::with_workers(1);
        // A single-threaded host never spins; race as if it did.
        let budget = rt.spin_budget().max(Duration::from_micros(50));
        let pool_rt = Arc::clone(&rt);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut lcg = 0x9e37_79b9u64;
            let mut around_budget = || {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                budget / 2 + Duration::from_nanos((lcg >> 33) % (budget.as_nanos() as u64 + 1))
            };
            for round in 0..3000 {
                pause(around_budget());
                let work = around_budget();
                let arrived = AtomicBool::new(false);
                let body = |t: usize| {
                    if t == 0 {
                        let t0 = Instant::now();
                        while !arrived.load(Ordering::Acquire)
                            && t0.elapsed() < Duration::from_secs(2)
                        {
                            std::thread::yield_now();
                        }
                    } else {
                        arrived.store(true, Ordering::Release);
                        pause(work);
                    }
                };
                pool_rt.pool.run(2, &body);
                if !arrived.load(Ordering::Acquire) {
                    let _ = tx.send(Err(round));
                    return;
                }
            }
            let _ = tx.send(Ok(()));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a joining caller never woke: lost done_cv wakeup");
        assert_eq!(outcome, Ok(()), "the worker never arrived: lost work_cv wakeup");
        let stats = rt.stats();
        assert_eq!(stats.hot_claims + stats.woken_claims, stats.wake_count);
        assert_eq!(stats.wake_count, 3000, "every round was served by the worker");
    }

    #[test]
    fn capacity_floors_at_two_and_clamps_to_host() {
        let rt = Runtime::with_workers(1);
        assert_eq!(rt.capacity(), 2);
        let big = Runtime::with_workers(1 << 20);
        assert!(big.stats().workers as usize <= host_parallelism().max(1));
    }
}
