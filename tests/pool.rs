//! Worker-pool runtime integration suite (ISSUE 7).
//!
//! The threaded hot path must submit sections to the persistent pool —
//! never spawn OS threads per call — while staying bit-identical to the
//! scoped-spawn baseline it replaced. These tests run without features:
//! the pool is the default execution path.

use autogemm::native::try_gemm_with_plan_supervised;
use autogemm::supervisor::Supervision;
use autogemm::{AutoGemm, GemmOptions, PanelPool, Runtime};
use autogemm_arch::ChipSpec;
use autogemm_baselines::naive::{max_rel_error, naive_gemm};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn data(m: usize, n: usize, k: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
    let f = |i: usize, s: u32| {
        (((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 31) as f32 - 15.0
    };
    let a = (0..m * k).map(|i| f(i, seed) * 0.125).collect();
    let b = (0..k * n).map(|i| f(i, seed ^ 0x9001) * 0.25).collect();
    (a, b)
}

fn oracle(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut want = vec![0.0f32; m * n];
    naive_gemm(m, n, k, a, b, &mut want);
    want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Pooled execution is bit-identical to the scoped-spawn baseline:
    /// both drain the same atomic block cursor with slot-agnostic
    /// bodies, so only the dispatch mechanism differs.
    #[test]
    fn pooled_matches_scoped_spawn_bit_for_bit(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..40,
        threads in 2usize..5,
        seed in 0u32..1000,
    ) {
        let engine = AutoGemm::new(ChipSpec::graviton2());
        let plan = engine.plan_multicore(m, n, k, threads);
        let (a, b) = data(m, n, k, seed);

        let pool = PanelPool::new();
        let mut c_pooled = vec![0.0f32; m * n];
        try_gemm_with_plan_supervised(
            &plan, &a, &b, &mut c_pooled, threads, &pool, &Supervision::none(), false,
        ).unwrap();

        let pool = PanelPool::new();
        let mut c_scoped = vec![0.0f32; m * n];
        try_gemm_with_plan_supervised(
            &plan, &a, &b, &mut c_scoped, threads, &pool,
            &Supervision::none().with_spawn_baseline(), false,
        ).unwrap();

        prop_assert_eq!(&c_pooled, &c_scoped, "pool vs scoped diverged");
        prop_assert!(max_rel_error(&c_pooled, &oracle(m, n, k, &a, &b)) < 1e-4);
    }
}

/// Several OS threads hammer one shared engine concurrently; every
/// submission serializes through the same pool and every result must
/// match the oracle.
#[test]
fn concurrent_submissions_to_one_engine_are_all_correct() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let shapes = [(26usize, 36usize, 64usize), (40, 12, 24), (7, 33, 16), (64, 64, 8)];
    std::thread::scope(|scope| {
        for (caller, &(m, n, k)) in shapes.iter().enumerate() {
            let engine = &engine;
            scope.spawn(move || {
                let (a, b) = data(m, n, k, caller as u32 + 100);
                let want = oracle(m, n, k, &a, &b);
                for rep in 0..8 {
                    let mut c = vec![0.0f32; m * n];
                    engine
                        .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
                        .unwrap();
                    assert!(max_rel_error(&c, &want) < 1e-4, "caller {caller} rep {rep} diverged");
                }
            });
        }
    });
    let stats = engine.pool_stats();
    assert_eq!(engine.runtime().alive_workers(), stats.workers as usize);
}

/// Reads this process's thread count from /proc (Linux CI hosts). Falls
/// back to 0 where /proc is absent, which disables the stability assert.
fn os_thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Field 20 (1-indexed) after the comm field, which may hold
            // spaces — skip past the closing paren first.
            let rest = &s[s.rfind(')')? + 2..];
            rest.split_whitespace().nth(17)?.parse::<u64>().ok()
        })
        .unwrap_or(0)
}

/// Re-runs the named test alone in a child process (this test binary,
/// one test, one test thread) and asserts it passed; returns `true` only
/// inside that child, where the caller runs its body. Sibling tests
/// start and end threads at any time, so a process-wide thread count is
/// only meaningful in a process running nothing else.
fn run_isolated(name: &str) -> bool {
    const CHILD: &str = "AUTOGEMM_POOL_TEST_ISOLATED";
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([name, "--exact", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("spawn isolated test run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "isolated run of {name} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// The tentpole's core claim: a burst of threaded calls on a warmed-up
/// dedicated runtime creates zero new OS threads and leaks zero pool
/// workers — dispatch is wake/park, not spawn/join.
#[test]
fn threaded_burst_spawns_no_os_threads_and_leaks_no_workers() {
    if !run_isolated("threaded_burst_spawns_no_os_threads_and_leaks_no_workers") {
        return;
    }
    let rt = Runtime::with_workers(1);
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_runtime(rt.clone());
    let (m, n, k) = (26, 36, 64);
    let (a, b) = data(m, n, k, 7);
    let want = oracle(m, n, k, &a, &b);

    // Warm up: first submission lazily spawns the pool workers (and the
    // plan cache tunes the shape).
    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)).unwrap();
    let workers = rt.stats().workers as usize;
    assert_eq!(rt.alive_workers(), workers, "pool failed to spawn");

    let threads_before = os_thread_count();
    let submissions_before = rt.stats().submissions;
    for _ in 0..32 {
        let mut c = vec![0.0f32; m * n];
        engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)).unwrap();
        assert!(max_rel_error(&c, &want) < 1e-4);
    }
    let stats = rt.stats();
    assert!(
        stats.submissions >= submissions_before + 32,
        "burst must route through the pool: {} -> {}",
        submissions_before,
        stats.submissions
    );
    assert_eq!(rt.alive_workers(), workers, "pool leaked or lost a worker");
    if threads_before > 0 {
        assert_eq!(os_thread_count(), threads_before, "threaded calls must not create OS threads");
    }
}

/// Oversubscribed requests are clamped to the runtime's capacity and the
/// clamp is recorded — never an error, never an oversubscribed spawn.
#[test]
fn oversubscribed_thread_requests_clamp_and_record() {
    let rt = Runtime::with_workers(1);
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_runtime(rt.clone());
    let (m, n, k) = (40, 36, 24);
    let (a, b) = data(m, n, k, 8);
    let clamped_before = rt.stats().threads_clamped;

    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(16)).unwrap();
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-4);
    assert!(
        rt.stats().threads_clamped > clamped_before,
        "a 16-thread request on a capacity-{} runtime must record a clamp",
        rt.capacity()
    );
    assert!(16 > rt.capacity(), "test premise: the host cannot grant 16 workers");
}

/// Traced reports carry the pool section and it survives a
/// JSON round trip.
#[test]
fn traced_report_carries_pool_stats() {
    let rt = Runtime::with_workers(1);
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_runtime(rt);
    let (m, n, k) = (26, 36, 64);
    let (a, b) = data(m, n, k, 9);
    let mut c = vec![0.0f32; m * n];
    let report = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
        .unwrap();
    assert!(report.pool.submissions >= 1, "threaded traced call must submit to the pool");
    assert_eq!(report.pool.workers as usize + 1, engine.runtime().capacity());

    let text = report.to_json();
    assert!(text.contains("\"pool\":"), "the report must serialize the pool section");
    let back = autogemm::GemmReport::from_json(&text).unwrap();
    assert_eq!(back.pool, report.pool);
}

/// Histogram shards merge deterministically under genuinely concurrent
/// pool submissions: several OS threads hammer one engine, each call
/// landing latency samples from a different thread-local shard hint —
/// the merged snapshot must account for every call exactly once, and
/// its quantiles must be consistent (monotone, bounded by the recorded
/// extremes' buckets).
#[test]
fn concurrent_submissions_merge_into_one_consistent_histogram() {
    use autogemm::telemetry::Counter;
    let rt = Runtime::with_workers(1);
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_runtime(rt);
    let shapes = [(26usize, 36usize, 64usize), (40, 12, 24), (64, 64, 16)];
    let reps = 12u64;
    std::thread::scope(|scope| {
        for (caller, &(m, n, k)) in shapes.iter().enumerate() {
            let engine = &engine;
            scope.spawn(move || {
                let (a, b) = data(m, n, k, caller as u32 + 500);
                let want = oracle(m, n, k, &a, &b);
                for _ in 0..reps {
                    let mut c = vec![0.0f32; m * n];
                    engine
                        .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
                        .unwrap();
                    assert!(max_rel_error(&c, &want) < 1e-4);
                }
            });
        }
    });
    let calls = shapes.len() as u64 * reps;
    let snap = engine.metrics();
    assert_eq!(snap.counter(Counter::Calls), calls, "every concurrent call counted once");
    assert_eq!(snap.call_latency_ns.count, calls, "every call left one latency sample");
    assert_eq!(
        snap.call_latency_ns.buckets.iter().sum::<u64>(),
        calls,
        "shard merge preserves the total bucket mass"
    );
    let (p50, p95, p99) =
        (snap.call_latency_ns.p50(), snap.call_latency_ns.p95(), snap.call_latency_ns.p99());
    assert!(p50 > 0, "latencies are nonzero");
    assert!(p50 <= p95 && p95 <= p99, "quantiles must be monotone: {p50}/{p95}/{p99}");
    assert!(p99 <= snap.call_latency_ns.quantile(1.0), "p99 bounded by the max bucket");
    assert_eq!(snap.in_flight, 0, "all calls retired");
    // The merge is stable: two snapshots with no traffic in between are
    // identical (the read path has no side effects).
    assert_eq!(engine.metrics(), snap);
}

/// The process-wide default runtime is shared: two default engines
/// observe the same pool.
#[test]
fn default_engines_share_the_global_runtime() {
    let e1 = AutoGemm::new(ChipSpec::graviton2());
    let e2 = AutoGemm::new(ChipSpec::graviton2());
    assert!(std::sync::Arc::ptr_eq(e1.runtime(), e2.runtime()));
}

/// Busy-wait `d` (a sleep overshoots by the timer slack, ~50 µs on
/// Linux, which is the size of the window under test).
fn pause(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// The lost-wakeup guard of the hot handoff: threaded calls spaced by
/// the spin budget ± 50%, so each call's first section reaches the pool
/// just before, just after or right as its idle worker gives up spinning
/// and parks. A submission that misses a parking worker would leave the
/// caller to drain alone (still correct), but one that loses a notify
/// would hang: every round must finish under the timeout.
#[test]
fn submissions_spaced_around_the_spin_budget_all_complete() {
    let rt = Runtime::with_workers(1);
    // A single-threaded host never spins; space calls as if it did.
    let budget = rt.spin_budget().max(Duration::from_micros(50));
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_runtime(rt.clone());
    let (m, n, k) = (26, 36, 64);
    let (a, b) = data(m, n, k, 11);
    let want = oracle(m, n, k, &a, &b);
    let rounds = 3000u64;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut c = vec![0.0f32; m * n];
        let mut worst = 0.0f32;
        let mut lcg = 0x2545_f491u64;
        for _ in 0..rounds {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let jitter = (lcg >> 33) % (budget.as_nanos() as u64 + 1);
            pause(budget / 2 + Duration::from_nanos(jitter));
            engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)).unwrap();
            worst = worst.max(max_rel_error(&c, &want));
        }
        let _ = tx.send(worst);
    });
    let worst = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a spaced submission never completed: lost wakeup in the pool handoff");
    assert!(worst < 1e-4, "spaced submissions diverged: {worst}");
    let stats = rt.stats();
    assert!(stats.submissions >= rounds, "the calls must route through the pool");
    assert_eq!(stats.jobs_completed, stats.submissions, "every submission retired");
    assert_eq!(rt.alive_workers(), stats.workers as usize);
}

/// Dropping the last handle to a runtime right after a threaded call —
/// while its worker is most likely still spinning for the next section —
/// stops and joins the worker promptly instead of waiting out a park.
#[test]
fn dropping_a_runtime_with_a_spinning_worker_joins_promptly() {
    let (m, n, k) = (26, 36, 64);
    let (a, b) = data(m, n, k, 12);
    let mut slowest = Duration::ZERO;
    for _ in 0..20 {
        let rt = Runtime::with_workers(1);
        let engine = AutoGemm::new(ChipSpec::graviton2()).with_runtime(rt.clone());
        let mut c = vec![0.0f32; m * n];
        engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)).unwrap();
        drop(engine);
        assert_eq!(Arc::strong_count(&rt), 1, "the engine must release its runtime handle");
        let t0 = Instant::now();
        drop(rt);
        slowest = slowest.max(t0.elapsed());
    }
    assert!(slowest < Duration::from_millis(100), "runtime drop took {slowest:?}");
}

/// Every first claim is either hot (the worker had not parked since its
/// previous claim) or woken; which one depends on scheduling, so only
/// the sum is asserted.
#[test]
fn hot_and_woken_claims_sum_to_the_wake_count() {
    let rt = Runtime::with_workers(1);
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_runtime(rt.clone());
    let (m, n, k) = (40, 36, 24);
    let (a, b) = data(m, n, k, 13);
    let mut c = vec![0.0f32; m * n];
    for i in 0..200 {
        if i % 50 == 0 {
            // Long enough for the worker to spend its budget and park.
            std::thread::sleep(Duration::from_millis(2));
        }
        engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)).unwrap();
    }
    let stats = rt.stats();
    assert!(stats.wake_count > 0, "no submission reached the worker");
    assert_eq!(stats.hot_claims + stats.woken_claims, stats.wake_count, "{stats:?}");
    assert!(stats.wake_count <= stats.submissions);
}
