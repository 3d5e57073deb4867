//! Seeded, deterministic fault injection for the native backend.
//!
//! Probes in the native backend consult a globally armed [`FaultPlan`]
//! and, at the chosen call, either *degrade* (force the
//! graceful-degradation path), *fail* (surface a structured
//! [`GemmError`](crate::error::GemmError)) or *panic* (exercise the
//! worker-panic containment). The probes sit at phase, runner and block
//! boundaries, never in the micro-tile loops, and with no plan armed a
//! probe is one relaxed load of a global flag — so the build that ships
//! is the build the chaos suite (`tests/chaos.rs`) tests.
//!
//! Injection sites:
//!
//! * [`FaultSite::PackAlloc`] — panel-buffer acquisition. `Degrade`
//!   forces the unpooled packing path, `Fail` simulates allocation
//!   failure, `Panic` panics mid-setup.
//! * [`FaultSite::KernelDispatch`] — SIMD backend selection per run.
//!   `Degrade` simulates a failed backend probe and routes the run to
//!   the scalar reference kernels; `Panic` panics at dispatch.
//! * [`FaultSite::WorkerStartup`] — entry of each worker's block loop.
//!   Only `Panic` is meaningful here (a worker cannot "degrade" without
//!   silently dropping its share of the work).
//! * [`FaultSite::WorkerHeartbeat`] — a worker's block-boundary
//!   heartbeat. `Stall` wedges the worker there (bounded by the action's
//!   cap and broken early by supervision), exercising the stuck-worker
//!   watchdog; `Panic` kills the worker mid-drain. `Degrade`/`Fail` are
//!   ignored at this site (a heartbeat has no degraded twin).
//! * [`FaultSite::PoolSubmit`] — handing a threaded section to the
//!   persistent worker pool. `Degrade` forces the caller to drain the
//!   section inline on its own thread (the single-thread twin of the
//!   submission), `Fail` simulates submission failure, `Panic` panics at
//!   the submit probe and is contained like any setup panic.
//! * [`FaultSite::KernelCompute`] — the per-unit compute body (a block
//!   of the tiled driver, or a work unit of a GEMV fast path), probed
//!   *after* the unit's stores land. `CorruptOutput` deterministically
//!   perturbs elements of the unit's freshly written `C` region,
//!   simulating a silently-wrong kernel for the
//!   [`verify`](crate::verify) integrity layer to catch; `Panic` panics
//!   inside the unit and is contained like any worker panic.
//!   `Degrade`/`Fail`/`Stall` are ignored here (a finished unit has no
//!   degraded twin).
//!
//! Triggers are counted per site with atomic counters, so a plan like
//! `Nth(3)` at `WorkerStartup` deterministically kills the third worker
//! to reach its loop regardless of scheduling. Arm a plan with
//! [`arm`]; the returned guard disarms on drop, and
//! [`ArmGuard::fired`] reports how many injections actually triggered
//! (chaos tests assert it is non-zero so a probe that moved or vanished
//! fails loudly instead of silently passing).
//!
//! ## Concurrency rule for `#[test]`s
//!
//! The armed plan is process-global, so two concurrently-running tests
//! must never both arm one. [`arm`] enforces this itself: it blocks on a
//! private serialization mutex that the returned [`ArmGuard`] holds
//! until drop, so a second `arm` simply waits for the first guard to be
//! dropped instead of observing (or clobbering) a foreign plan. Tests
//! need no external lock of their own for *arming*; a suite-level lock
//! is still useful when a test wants to assert global side effects (the
//! chaos suite keeps one to scope its panic-hook silencer). Every test
//! that arms a plan lives in `tests/chaos.rs`, its own process, so no
//! other test binary ever meets an armed probe.
//!
//! Note `FaultPlan::seeded` deliberately draws only from the three
//! original sites — never `WorkerHeartbeat`, `PoolSubmit` or
//! `KernelCompute` — so seeded chaos sweeps keep their historical
//! determinism and can never wedge a run on a `Stall` or silently
//! corrupt output; stalls, pool-submission faults and output corruption
//! are exercised by dedicated watchdog/pool/integrity tests and the
//! soak driver.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A place in the native backend where a fault can be injected.
///
/// Marked `#[non_exhaustive]`: new probe sites are added as subsystems
/// grow, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSite {
    /// Panel-buffer acquisition (pool or fresh allocation).
    PackAlloc,
    /// SIMD backend selection at the start of a run.
    KernelDispatch,
    /// Entry of a worker's block loop.
    WorkerStartup,
    /// A worker's block-boundary heartbeat (see the module docs; the
    /// `Stall` action is only meaningful here).
    WorkerHeartbeat,
    /// Handing a threaded section to the persistent worker pool.
    /// `Degrade` reroutes the caller to an inline drain.
    PoolSubmit,
    /// The per-unit compute body, probed after the unit's `C` stores
    /// land. `CorruptOutput` perturbs the unit's output region (see the
    /// module docs); only `CorruptOutput` and `Panic` are meaningful
    /// here.
    KernelCompute,
}

impl FaultSite {
    pub(crate) fn index(self) -> usize {
        match self {
            FaultSite::PackAlloc => 0,
            FaultSite::KernelDispatch => 1,
            FaultSite::WorkerStartup => 2,
            FaultSite::WorkerHeartbeat => 3,
            FaultSite::PoolSubmit => 4,
            FaultSite::KernelCompute => 5,
        }
    }

    /// All sites, in counter order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::PackAlloc,
        FaultSite::KernelDispatch,
        FaultSite::WorkerStartup,
        FaultSite::WorkerHeartbeat,
        FaultSite::PoolSubmit,
        FaultSite::KernelCompute,
    ];
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultSite::PackAlloc => "pack_alloc",
            FaultSite::KernelDispatch => "kernel_dispatch",
            FaultSite::WorkerStartup => "worker_startup",
            FaultSite::WorkerHeartbeat => "worker_heartbeat",
            FaultSite::PoolSubmit => "pool_submit",
            FaultSite::KernelCompute => "kernel_compute",
        })
    }
}

/// What the injected fault does at its site.
///
/// Marked `#[non_exhaustive]`: new failure modes are added as
/// subsystems grow, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// Force the graceful-degradation path (unpooled packing, scalar
    /// kernels). The GEMM must still complete with a correct result.
    Degrade,
    /// Report failure: the probe's caller surfaces a structured
    /// `GemmError` instead of computing.
    Fail,
    /// Panic at the probe, exercising containment. The panic message
    /// always contains `"injected fault"`.
    Panic,
    /// Wedge the probing worker for up to the given number of
    /// milliseconds (it resumes early if the run is cancelled, e.g. by
    /// the watchdog). Only meaningful at [`FaultSite::WorkerHeartbeat`];
    /// other sites ignore it.
    Stall(u64),
    /// Deterministically perturb up to `elements` cells of the probing
    /// unit's freshly written `C` region, simulating a silently wrong
    /// kernel. Only meaningful at [`FaultSite::KernelCompute`]; other
    /// sites ignore it.
    CorruptOutput { elements: usize },
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Degrade => f.write_str("degrade"),
            FaultAction::Fail => f.write_str("fail"),
            FaultAction::Panic => f.write_str("panic"),
            FaultAction::Stall(ms) => write!(f, "stall({ms} ms)"),
            FaultAction::CorruptOutput { elements } => {
                write!(f, "corrupt-output({elements} elements)")
            }
        }
    }
}

/// When the fault fires, counted per site across the armed plan's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly once, on the `n`-th probe call at the site (1-based).
    Nth(u64),
    /// Fire on every `k`-th probe call at the site.
    EveryKth(u64),
}

impl Trigger {
    fn matches(self, call: u64) -> bool {
        match self {
            Trigger::Nth(n) => call == n.max(1),
            Trigger::EveryKth(k) => call.is_multiple_of(k.max(1)),
        }
    }
}

/// One injection: a site, what to do there, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub site: FaultSite,
    pub action: FaultAction,
    pub trigger: Trigger,
}

/// A deterministic set of injections to arm for one test scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with a single injection.
    pub fn single(site: FaultSite, action: FaultAction, trigger: Trigger) -> Self {
        FaultPlan { specs: vec![FaultSpec { site, action, trigger }] }
    }

    /// Derive a 1–3 injection plan deterministically from `seed`
    /// (xorshift64), restricted to site/action combinations that are
    /// meaningful. Seeded plans draw only from the three original sites
    /// (never `WorkerHeartbeat`/`Stall`, never `PoolSubmit`, never
    /// `KernelCompute`) so historical seeds stay deterministic and a
    /// seeded sweep can never wedge or corrupt — see the module docs.
    pub fn seeded(seed: u64) -> Self {
        let mut state = seed | 1; // xorshift must not start at 0
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let count = 1 + (next() % 3) as usize;
        let mut specs = Vec::with_capacity(count);
        for _ in 0..count {
            // `% 3`, not `% ALL.len()`: WorkerHeartbeat, PoolSubmit and
            // KernelCompute are excluded by design.
            let site = FaultSite::ALL[(next() % 3) as usize];
            let action = match site {
                FaultSite::PackAlloc => match next() % 3 {
                    0 => FaultAction::Degrade,
                    1 => FaultAction::Fail,
                    _ => FaultAction::Panic,
                },
                FaultSite::KernelDispatch => {
                    if next() % 2 == 0 {
                        FaultAction::Degrade
                    } else {
                        FaultAction::Panic
                    }
                }
                FaultSite::WorkerStartup => FaultAction::Panic,
                // Unreachable: seeded sites are drawn `% 3` above.
                FaultSite::WorkerHeartbeat | FaultSite::PoolSubmit | FaultSite::KernelCompute => {
                    FaultAction::Panic
                }
            };
            let trigger = if next() % 2 == 0 {
                Trigger::Nth(1 + next() % 3)
            } else {
                Trigger::EveryKth(2 + next() % 3)
            };
            specs.push(FaultSpec { site, action, trigger });
        }
        FaultPlan { specs }
    }
}

/// What a probe told its caller to do. `Panic` never reaches the
/// caller — it is raised inside the probe itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// No fault: proceed normally.
    Ok,
    /// Take the degradation path.
    Degrade,
    /// Surface a structured error.
    Fail,
    /// Wedge here for up to the given milliseconds (heartbeat site only;
    /// other sites treat it as `Ok`).
    Stall(u64),
    /// Perturb up to `elements` cells of the probing unit's output
    /// region (kernel-compute site only; other sites treat it as `Ok`).
    Corrupt { elements: usize },
}

struct ArmedState {
    plan: FaultPlan,
    calls: [AtomicU64; 6],
    fired: AtomicU64,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Arc<ArmedState>>> = Mutex::new(None);
/// Serializes armed plans across threads: held (via the `ArmGuard`) from
/// `arm` until the guard drops, so concurrently-running tests queue up
/// instead of observing each other's plans.
static ARM_SERIAL: Mutex<()> = Mutex::new(());

/// Disarms the global plan on drop; reports how many faults fired.
///
/// Holds the arming serialization lock for its whole lifetime (see the
/// module-docs concurrency rule), so at most one plan is ever visible to
/// the probes and a second `arm` blocks rather than clobbering it.
/// Consequence: never call `arm` twice on the same thread while a guard
/// is alive — that self-deadlocks by design.
pub struct ArmGuard {
    state: Arc<ArmedState>,
    _serial: std::sync::MutexGuard<'static, ()>,
}

impl ArmGuard {
    /// How many injections have actually triggered so far.
    pub fn fired(&self) -> u64 {
        self.state.fired.load(Ordering::Relaxed)
    }
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        let mut slot = STATE.lock().unwrap_or_else(|e| e.into_inner());
        ANY_ARMED.store(false, Ordering::SeqCst);
        *slot = None;
        // `_serial` is released after this, once the plan is gone.
    }
}

/// Arm `plan` globally. The returned guard disarms on drop. Arming is
/// serialized: if another guard is alive (on any thread), this call
/// blocks until it drops — concurrent `#[test]`s can therefore arm
/// freely without observing each other's plans.
pub fn arm(plan: FaultPlan) -> ArmGuard {
    let serial = ARM_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let state = Arc::new(ArmedState {
        plan,
        calls: std::array::from_fn(|_| AtomicU64::new(0)),
        fired: AtomicU64::new(0),
    });
    let mut slot = STATE.lock().unwrap_or_else(|e| e.into_inner());
    debug_assert!(slot.is_none(), "serialization lock held but a plan is armed");
    *slot = Some(Arc::clone(&state));
    ANY_ARMED.store(true, Ordering::SeqCst);
    drop(slot);
    ArmGuard { state, _serial: serial }
}

/// Whether any plan is armed: the one relaxed load a disarmed probe
/// costs.
#[inline(always)]
pub(crate) fn armed() -> bool {
    ANY_ARMED.load(Ordering::Relaxed)
}

/// Consult the armed plan at `site`.
#[inline(always)]
pub(crate) fn probe(site: FaultSite) -> Probe {
    if !armed() {
        return Probe::Ok;
    }
    probe_armed(site)
}

#[cold]
fn probe_armed(site: FaultSite) -> Probe {
    let state = {
        let slot = STATE.lock().unwrap_or_else(|e| e.into_inner());
        match slot.as_ref() {
            Some(s) => Arc::clone(s),
            None => return Probe::Ok,
        }
    };
    let call = state.calls[site.index()].fetch_add(1, Ordering::SeqCst) + 1;
    for spec in &state.plan.specs {
        if spec.site == site && spec.trigger.matches(call) {
            state.fired.fetch_add(1, Ordering::SeqCst);
            match spec.action {
                FaultAction::Degrade => return Probe::Degrade,
                FaultAction::Fail => return Probe::Fail,
                FaultAction::Panic => panic!("injected fault at {site:?} (call {call})"),
                FaultAction::Stall(ms) => return Probe::Stall(ms),
                FaultAction::CorruptOutput { elements } => return Probe::Corrupt { elements },
            }
        }
    }
    Probe::Ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_valid() {
        for seed in 0..64u64 {
            let p1 = FaultPlan::seeded(seed);
            let p2 = FaultPlan::seeded(seed);
            assert_eq!(p1, p2, "seed {seed} not deterministic");
            assert!(!p1.specs.is_empty() && p1.specs.len() <= 3);
            for spec in &p1.specs {
                if spec.site == FaultSite::WorkerStartup {
                    assert_eq!(spec.action, FaultAction::Panic);
                }
                if spec.site == FaultSite::KernelDispatch {
                    assert_ne!(spec.action, FaultAction::Fail);
                }
                match spec.trigger {
                    Trigger::Nth(n) => assert!(n >= 1),
                    Trigger::EveryKth(k) => assert!(k >= 2),
                }
            }
        }
    }

    #[test]
    fn trigger_matching() {
        assert!(Trigger::Nth(3).matches(3));
        assert!(!Trigger::Nth(3).matches(2));
        assert!(!Trigger::Nth(3).matches(4));
        assert!(Trigger::EveryKth(2).matches(2));
        assert!(Trigger::EveryKth(2).matches(4));
        assert!(!Trigger::EveryKth(2).matches(3));
        // Degenerate parameters clamp instead of panicking.
        assert!(Trigger::Nth(0).matches(1));
        assert!(Trigger::EveryKth(0).matches(5));
    }

    #[test]
    fn probe_is_ok_when_disarmed() {
        assert_eq!(probe(FaultSite::PackAlloc), Probe::Ok);
        assert_eq!(probe(FaultSite::KernelDispatch), Probe::Ok);
        assert_eq!(probe(FaultSite::WorkerStartup), Probe::Ok);
        assert_eq!(probe(FaultSite::WorkerHeartbeat), Probe::Ok);
        assert_eq!(probe(FaultSite::PoolSubmit), Probe::Ok);
        assert_eq!(probe(FaultSite::KernelCompute), Probe::Ok);
    }

    #[test]
    fn seeded_plans_never_use_the_heartbeat_or_pool_submit_sites() {
        for seed in 0..256u64 {
            for spec in &FaultPlan::seeded(seed).specs {
                assert_ne!(spec.site, FaultSite::WorkerHeartbeat, "seed {seed}");
                assert_ne!(spec.site, FaultSite::PoolSubmit, "seed {seed}");
                assert_ne!(spec.site, FaultSite::KernelCompute, "seed {seed}");
            }
        }
    }

    #[test]
    fn sites_and_actions_display_stable_names() {
        assert_eq!(FaultSite::KernelCompute.to_string(), "kernel_compute");
        assert_eq!(FaultSite::PackAlloc.to_string(), "pack_alloc");
        assert_eq!(FaultAction::Stall(250).to_string(), "stall(250 ms)");
        assert_eq!(
            FaultAction::CorruptOutput { elements: 3 }.to_string(),
            "corrupt-output(3 elements)"
        );
    }
}
