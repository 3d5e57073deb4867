//! Chaos suite: seeded deterministic fault injection
//! ([`autogemm::faultinject`]) swept across injection sites, actions and
//! thread counts.
//!
//! The acceptance bar: every injection either comes back as a structured
//! [`GemmError`] or the run recovers with a result matching the scalar
//! oracle — no abort, no deadlock, no partial-tile garbage. Only one
//! `FaultPlan` can be armed at a time, so every test serializes through
//! [`chaos_lock`]. This is the only test binary that arms a plan: the
//! plan is process-global, so an unlocked test running beside an armed
//! one in the same process would meet its faults.

use autogemm::faultinject::{arm, FaultAction, FaultPlan, FaultSite, Trigger};
use autogemm::supervisor::{
    BreakerConfig, BreakerPath, BreakerState, CancelToken, GemmOptions, WatchdogConfig,
};
use autogemm::{AutoGemm, GemmBatch, GemmError, Op, PackedB, PanelPool, Runtime};
use autogemm_arch::ChipSpec;
use autogemm_baselines::naive::{max_rel_error, naive_gemm};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Duration;

/// An engine whose circuit breaker never opens: tests that deliberately
/// fault the same path many times in a row use this to observe the raw
/// (pre-quarantine) fault behavior.
fn engine_unbroken() -> AutoGemm {
    AutoGemm::new(ChipSpec::graviton2()).with_breaker_config(BreakerConfig {
        fail_threshold: u32::MAX,
        open_cooldown: 1,
        close_after: 1,
    })
}

/// Serializes tests that arm the global fault plan; also silences the
/// default panic hook for the intentional "injected fault" panics so the
/// suite's output stays readable.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

fn data(m: usize, n: usize, k: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
    let f = |i: usize, s: u32| {
        (((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 31) as f32 - 15.0
    };
    let a = (0..m * k).map(|i| f(i, seed) * 0.125).collect();
    let b = (0..k * n).map(|i| f(i, seed ^ 0xfa17) * 0.25).collect();
    (a, b)
}

const SHAPE: (usize, usize, usize) = (40, 36, 24);
const THREADS: [usize; 3] = [1, 2, 8];

fn oracle(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut want = vec![0.0f32; m * n];
    naive_gemm(m, n, k, a, b, &mut want);
    want
}

#[test]
fn pack_alloc_degrade_recovers_bit_identical() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 1);
    for threads in THREADS {
        // Fault-free reference run first (same plan, same kernels).
        let mut c_ref = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c_ref, &GemmOptions::new().threads(threads))
            .unwrap();

        let guard =
            arm(FaultPlan::single(FaultSite::PackAlloc, FaultAction::Degrade, Trigger::Nth(1)));
        let mut c = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .unwrap();
        assert!(guard.fired() >= 1, "t{threads}: degrade never fired");
        drop(guard);
        // Degraded packing only changes where the panels live, never the
        // arithmetic: the recovery must be bit-identical.
        assert_eq!(c, c_ref, "t{threads}: degraded run diverged");
    }
}

#[test]
fn pack_alloc_degrade_is_recorded_in_the_report() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 2);
    let guard =
        arm(FaultPlan::single(FaultSite::PackAlloc, FaultAction::Degrade, Trigger::EveryKth(1)));
    let mut c = vec![0.0f32; m * n];
    let report = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
        .unwrap();
    assert!(guard.fired() >= 2, "both pack phases should degrade");
    assert!(
        report.fallbacks.pool_packs >= 2,
        "pool_packs = {} not recorded",
        report.fallbacks.pool_packs
    );
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-5);
}

#[test]
fn pack_alloc_fail_is_a_structured_error_with_c_untouched() {
    let _g = chaos_lock();
    // Six consecutive faulting calls: quarantine must not kick in.
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 3);
    // Nth(1) hits the pack-A phase, Nth(2) the pack-B phase.
    for (nth, phase) in [(1, "pack A"), (2, "pack B")] {
        for threads in THREADS {
            let guard =
                arm(FaultPlan::single(FaultSite::PackAlloc, FaultAction::Fail, Trigger::Nth(nth)));
            let sentinel: Vec<f32> = (0..m * n).map(|i| i as f32 - 7.0).collect();
            let mut c = sentinel.clone();
            let e = engine
                .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
                .unwrap_err();
            assert!(guard.fired() >= 1);
            drop(guard);
            match &e {
                GemmError::AllocFailed { phase: got } => {
                    assert_eq!(*got, phase, "nth {nth} t{threads}")
                }
                other => panic!("nth {nth} t{threads}: expected AllocFailed, got {other:?}"),
            }
            // Packing precedes every C write: untouched-C holds.
            assert_eq!(c, sentinel, "nth {nth} t{threads}: C was touched");
        }
    }
}

#[test]
fn pack_alloc_panic_is_contained() {
    let _g = chaos_lock();
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 4);
    for threads in THREADS {
        let guard =
            arm(FaultPlan::single(FaultSite::PackAlloc, FaultAction::Panic, Trigger::Nth(1)));
        let sentinel: Vec<f32> = vec![9.25; m * n];
        let mut c = sentinel.clone();
        let e = engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .unwrap_err();
        assert!(guard.fired() >= 1);
        drop(guard);
        match &e {
            GemmError::WorkerPanicked { detail, .. } => {
                assert!(detail.contains("injected fault"), "t{threads}: {detail}")
            }
            other => panic!("t{threads}: expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(c, sentinel, "t{threads}: C was touched before the run phase");
    }
}

#[test]
fn kernel_dispatch_faults_reroute_to_the_scalar_oracle() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 5);
    let want = oracle(m, n, k, &a, &b);
    let fused = autogemm::simd::SimdBackend::detect().fused();
    // Degrade and Fail both mean "don't trust the SIMD dispatch": the
    // whole run reroutes to the scalar reference kernels and still
    // completes — dispatch failure never fails the GEMM.
    for action in [FaultAction::Degrade, FaultAction::Fail] {
        for threads in THREADS {
            let mut c_ref = vec![0.0f32; m * n];
            engine
                .try_gemm_opts(m, n, k, &a, &b, &mut c_ref, &GemmOptions::new().threads(threads))
                .unwrap();

            let guard = arm(FaultPlan::single(FaultSite::KernelDispatch, action, Trigger::Nth(1)));
            let mut c = vec![0.0f32; m * n];
            let report = engine
                .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
                .unwrap();
            assert!(guard.fired() >= 1, "{action:?} t{threads}: never fired");
            drop(guard);
            assert!(report.fallbacks.scalar_kernels >= 1, "{action:?} t{threads}");
            assert!(max_rel_error(&c, &want) < 1e-5, "{action:?} t{threads}: scalar reroute wrong");
            if fused {
                // Fused backends are bit-compatible with the mul_add
                // scalar reference, so recovery is bit-identical.
                assert_eq!(c, c_ref, "{action:?} t{threads}: not bit-identical");
            }
        }
    }
}

#[test]
fn worker_startup_panic_poisons_the_run_without_deadlock() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 6);
    for threads in THREADS {
        // Nth(1): the first worker dies; survivors must drain and exit.
        let guard =
            arm(FaultPlan::single(FaultSite::WorkerStartup, FaultAction::Panic, Trigger::Nth(1)));
        let mut c = vec![0.0f32; m * n];
        let e = engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .unwrap_err();
        assert_eq!(guard.fired(), 1, "t{threads}");
        drop(guard);
        match &e {
            GemmError::WorkerPanicked { detail, .. } => {
                assert!(detail.contains("injected fault"), "t{threads}: {detail}")
            }
            other => panic!("t{threads}: expected WorkerPanicked, got {other:?}"),
        }
        // The engine (pool included) survives a poisoned run.
        let mut c_after = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c_after, &GemmOptions::new().threads(threads))
            .unwrap();
        assert!(max_rel_error(&c_after, &oracle(m, n, k, &a, &b)) < 1e-5, "t{threads}");
    }
    // EveryKth(1): every worker dies at startup — still a clean error.
    let guard =
        arm(FaultPlan::single(FaultSite::WorkerStartup, FaultAction::Panic, Trigger::EveryKth(1)));
    let mut c = vec![0.0f32; m * n];
    let e =
        engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(8)).unwrap_err();
    assert!(matches!(e, GemmError::WorkerPanicked { .. }), "{e:?}");
    assert!(guard.fired() >= 1);
}

#[test]
fn nth_and_every_kth_triggers_are_deterministic_across_calls() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 7);
    let want = oracle(m, n, k, &a, &b);

    // Single-threaded runs probe WorkerStartup exactly once per call, so
    // EveryKth(2) fails exactly the 2nd and 4th of four calls.
    let guard =
        arm(FaultPlan::single(FaultSite::WorkerStartup, FaultAction::Panic, Trigger::EveryKth(2)));
    let mut outcomes = Vec::new();
    for _ in 0..4 {
        let mut c = vec![0.0f32; m * n];
        let r = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(1));
        if r.is_ok() {
            assert!(max_rel_error(&c, &want) < 1e-5);
        }
        outcomes.push(r.is_ok());
    }
    assert_eq!(outcomes, [true, false, true, false]);
    assert_eq!(guard.fired(), 2);
    drop(guard);

    // Nth(3) is a one-shot: only the 3rd call fails.
    let guard =
        arm(FaultPlan::single(FaultSite::WorkerStartup, FaultAction::Panic, Trigger::Nth(3)));
    let mut outcomes = Vec::new();
    for _ in 0..4 {
        let mut c = vec![0.0f32; m * n];
        outcomes.push(
            engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(1)).is_ok(),
        );
    }
    assert_eq!(outcomes, [true, true, false, true]);
    assert_eq!(guard.fired(), 1);
}

#[test]
fn seeded_sweep_is_clean_error_or_correct_recovery() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 8);
    let want = oracle(m, n, k, &a, &b);
    for seed in 0..32u64 {
        let plan = FaultPlan::seeded(seed);
        let guard = arm(plan.clone());
        for threads in THREADS {
            let mut c = vec![0.0f32; m * n];
            match engine.try_gemm_opts(
                m,
                n,
                k,
                &a,
                &b,
                &mut c,
                &GemmOptions::new().threads(threads),
            ) {
                // Recovery (or a trigger that never matched): the result
                // must match the oracle.
                Ok(()) => {
                    let err = max_rel_error(&c, &want);
                    assert!(err < 1e-5, "seed {seed} t{threads} ({plan:?}): rel err {err}");
                }
                // Failure: structured, from the expected family.
                Err(e) => assert!(
                    matches!(e, GemmError::WorkerPanicked { .. } | GemmError::AllocFailed { .. }),
                    "seed {seed} t{threads} ({plan:?}): unexpected error {e:?}"
                ),
            }
        }
        drop(guard);
        // Disarmed follow-up: the engine is always reusable.
        let mut c = vec![0.0f32; m * n];
        engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)).unwrap();
        assert!(max_rel_error(&c, &want) < 1e-5, "seed {seed}: engine poisoned after sweep");
    }
}

#[test]
fn batch_and_prepacked_paths_contain_worker_panics() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (10usize, 12usize, 8usize);
    let (a, b) = data(m, n, k, 9);

    // Batch: items run through the same probed pooled driver.
    let mut batch = autogemm::GemmBatch::new(m, n, k);
    for _ in 0..6 {
        batch.push(&a, &b);
    }
    let guard =
        arm(FaultPlan::single(FaultSite::WorkerStartup, FaultAction::Panic, Trigger::Nth(1)));
    let mut c = vec![0.0f32; 6 * m * n];
    let e = engine.try_gemm_batch_opts(&batch, &mut c, &GemmOptions::new().threads(3)).unwrap_err();
    match &e {
        GemmError::InBatch { index, source } => {
            assert!(*index < 6, "index {index} out of range");
            assert!(matches!(**source, GemmError::WorkerPanicked { .. }), "{source:?}");
        }
        other => panic!("expected InBatch(WorkerPanicked), got {other:?}"),
    }
    drop(guard);

    // Prepacked offline path.
    let plan = engine.plan(m, n, k);
    let packed = autogemm::PackedB::new(&plan, &b);
    let guard =
        arm(FaultPlan::single(FaultSite::WorkerStartup, FaultAction::Panic, Trigger::Nth(1)));
    let mut c = vec![0.0f32; m * n];
    let pool = autogemm::PanelPool::new();
    let e = autogemm::try_gemm_prepacked_pooled(&plan, &a, &packed, &mut c, 2, &pool).unwrap_err();
    assert!(matches!(e, GemmError::WorkerPanicked { .. }), "{e:?}");
    assert!(guard.fired() >= 1);
}

/// `x` (`rows × cols`, row-major) stored transposed.
fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols).map(|idx| x[(idx % rows) * cols + idx / rows]).collect()
}

/// Two items sharing one `B` slice: the batch packs it once and hands
/// both items the packed copy.
fn shared_b_batch<'a>(a: &'a [f32], b: &'a [f32]) -> GemmBatch<'a> {
    let (m, n, k) = SHAPE;
    let mut batch = GemmBatch::new(m, n, k);
    batch.push(a, b);
    batch.push(a, b);
    batch
}

/// A prepacked call, a shared-`B` batch and a transposed call all run the
/// block driver's pack-phase probe: an allocation failure there is a
/// structured error that leaves `C` untouched, never a silent success.
#[test]
fn prepacked_batch_and_transposed_calls_fail_structurally_at_pack_alloc() {
    let _g = chaos_lock();
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 43);
    let (a_t, b_t) = (transposed(&a, m, k), transposed(&b, k, n));
    let plan = engine.plan(m, n, k);
    let packed = PackedB::new(&plan, &b);
    let fail = |trigger| arm(FaultPlan::single(FaultSite::PackAlloc, FaultAction::Fail, trigger));
    let pack_a_failed = |e: &GemmError| matches!(e, GemmError::AllocFailed { phase: "pack A" });
    let sentinel: Vec<f32> = (0..m * n).map(|i| i as f32 - 7.0).collect();
    for threads in THREADS {
        let pool = PanelPool::new();
        let mut c = sentinel.clone();
        let guard = fail(Trigger::Nth(1));
        let e = autogemm::try_gemm_prepacked_pooled(&plan, &a, &packed, &mut c, threads, &pool)
            .unwrap_err();
        assert!(guard.fired() >= 1, "prepacked t{threads}: PackAlloc never probed");
        drop(guard);
        assert!(pack_a_failed(&e), "prepacked t{threads}: {e:?}");
        assert_eq!(c, sentinel, "prepacked t{threads}: C was touched");
        assert_eq!(pool.outstanding(), 0, "prepacked t{threads}: leaked panels");

        let guard = fail(Trigger::Nth(1));
        let e = autogemm::try_gemm_op(&plan, Op::Trans, Op::Trans, &a_t, &b_t, &mut c, threads)
            .unwrap_err();
        assert!(guard.fired() >= 1, "transposed t{threads}: PackAlloc never probed");
        drop(guard);
        assert!(pack_a_failed(&e), "transposed t{threads}: {e:?}");
        assert_eq!(c, sentinel, "transposed t{threads}: C was touched");

        let batch = shared_b_batch(&a, &b);
        let batch_sentinel: Vec<f32> = sentinel.iter().chain(&sentinel).copied().collect();
        let mut c2 = batch_sentinel.clone();
        let guard = fail(Trigger::EveryKth(1));
        let opts = GemmOptions::new().threads(threads);
        let e = engine.try_gemm_batch_opts(&batch, &mut c2, &opts).unwrap_err();
        assert!(guard.fired() >= 1, "shared-B batch t{threads}: PackAlloc never probed");
        drop(guard);
        match &e {
            GemmError::InBatch { source, .. } => {
                assert!(pack_a_failed(source), "shared-B batch t{threads}: {source:?}")
            }
            other => panic!("shared-B batch t{threads}: expected InBatch, got {other:?}"),
        }
        assert_eq!(c2, batch_sentinel, "shared-B batch t{threads}: C was touched");
    }
}

/// A degraded kernel dispatch reroutes a prepacked call, a shared-`B`
/// batch and a transposed call to the scalar kernels; the rerouted runs
/// stay correct, and bit-identical to the unfaulted runs on fused
/// backends.
#[test]
fn prepacked_batch_and_transposed_calls_reroute_on_kernel_dispatch_degrade() {
    let _g = chaos_lock();
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 47);
    let a_t = transposed(&a, m, k);
    let want = oracle(m, n, k, &a, &b);
    let plan = engine.plan(m, n, k);
    let packed = PackedB::new(&plan, &b);
    let batch = shared_b_batch(&a, &b);
    let fused = autogemm::simd::SimdBackend::detect().fused();
    let pool = PanelPool::new();
    for threads in THREADS {
        let opts = GemmOptions::new().threads(threads);
        type Call<'a> = &'a dyn Fn(&mut Vec<f32>);
        let calls: [(&str, Call<'_>); 3] = [
            ("prepacked", &|c| {
                c.resize(m * n, 0.0);
                autogemm::try_gemm_prepacked_pooled(&plan, &a, &packed, c, threads, &pool).unwrap()
            }),
            ("transposed", &|c| {
                c.resize(m * n, 0.0);
                autogemm::try_gemm_op(&plan, Op::Trans, Op::NoTrans, &a_t, &b, c, threads).unwrap()
            }),
            ("shared-B batch", &|c| {
                c.resize(2 * m * n, 0.0);
                engine.try_gemm_batch_opts(&batch, c, &opts).unwrap()
            }),
        ];
        for (name, call) in calls {
            let mut c_ref = Vec::new();
            call(&mut c_ref);
            let guard = arm(FaultPlan::single(
                FaultSite::KernelDispatch,
                FaultAction::Degrade,
                Trigger::EveryKth(1),
            ));
            let mut c = Vec::new();
            call(&mut c);
            assert!(guard.fired() >= 1, "{name} t{threads}: KernelDispatch never probed");
            drop(guard);
            for (item, got) in c.chunks(m * n).enumerate() {
                let err = max_rel_error(got, &want);
                assert!(err < 1e-5, "{name} t{threads} item {item}: rel err {err}");
            }
            if fused {
                assert_eq!(c, c_ref, "{name} t{threads}: scalar reroute not bit-identical");
            }
        }
    }
}

/// A shared-`B` batch obeys the `simd_dispatch` breaker like any other
/// call: while the path is Open its items reroute to the scalar kernels
/// without touching the quarantined dispatch (the same bits as an item
/// with its own `B`), and the batch that holds the HalfOpen probe runs
/// the dispatch probe in its items, so a still-faulting backend re-opens
/// the path.
#[test]
fn shared_b_batch_honours_an_open_simd_dispatch_breaker() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_breaker_config(BreakerConfig {
        fail_threshold: 1,
        open_cooldown: 2,
        close_after: 1,
    });
    let path = BreakerPath::SimdDispatch;
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 53);
    let b_own = b.clone();
    let want = oracle(m, n, k, &a, &b);
    let opts = GemmOptions::new().threads(2);
    let guard = arm(FaultPlan::single(
        FaultSite::KernelDispatch,
        FaultAction::Degrade,
        Trigger::EveryKth(1),
    ));

    // One faulting call trips the path.
    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap();
    assert_eq!(engine.breaker().state(path), BreakerState::Open);

    // Open: two items share `B`, the third brings its own copy.
    let mut mixed = shared_b_batch(&a, &b);
    mixed.push(&a, &b_own);
    let fired = guard.fired();
    let mut c3 = vec![0.0f32; 3 * m * n];
    engine.try_gemm_batch_opts(&mixed, &mut c3, &opts).unwrap();
    assert_eq!(guard.fired(), fired, "an Open path must not be probed");
    assert_eq!(engine.breaker().state(path), BreakerState::Open);
    let items: Vec<&[f32]> = c3.chunks(m * n).collect();
    assert_eq!(items[0], items[2], "shared-B item diverged from the rerouted own-B item");
    assert_eq!(items[1], items[2], "shared-B item diverged from the rerouted own-B item");
    assert!(max_rel_error(items[2], &want) < 1e-5);

    // Cooldown served: this shared-B batch holds the HalfOpen probe.
    let mut c2 = vec![0.0f32; 2 * m * n];
    engine.try_gemm_batch_opts(&shared_b_batch(&a, &b), &mut c2, &opts).unwrap();
    assert!(guard.fired() > fired, "the probing batch's items never probed the dispatch");
    assert_eq!(engine.breaker().state(path), BreakerState::Open, "faulting probe must re-open");
    for item in c2.chunks(m * n) {
        assert!(max_rel_error(item, &want) < 1e-5);
    }
}

// ---------------------------------------------------------------------------
// ISSUE 5: cancellation × fault sites × threads, watchdog, circuit breaker
// ---------------------------------------------------------------------------

/// Clean follow-up call: the engine must be fully reusable (and correct)
/// after any supervised stop, with no pool buffers leaked.
fn assert_recovered(engine: &AutoGemm, threads: usize, ctx: &str) {
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 99);
    let want = oracle(m, n, k, &a, &b);
    assert_eq!(engine.panel_pool().outstanding(), 0, "{ctx}: pool buffers leaked");
    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads)).unwrap();
    assert!(max_rel_error(&c, &want) < 1e-5, "{ctx}: engine not reusable");
}

#[test]
fn cancellation_sweep_across_fault_sites_and_threads() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 10);
    // A pre-cancelled token stops the run at the very first checkpoint
    // ("pack A", zero units done, C untouched) no matter which fault is
    // armed alongside it — a cancelled run never counts toward the
    // breaker, and its buffers always come back to the pool.
    let faults: [Option<(FaultSite, FaultAction)>; 3] = [
        None,
        Some((FaultSite::PackAlloc, FaultAction::Degrade)),
        Some((FaultSite::KernelDispatch, FaultAction::Degrade)),
    ];
    for threads in THREADS {
        for fault in faults {
            let ctx = format!("t{threads} {fault:?}");
            let guard =
                fault.map(|(site, act)| arm(FaultPlan::single(site, act, Trigger::EveryKth(1))));
            let tok = CancelToken::new();
            tok.cancel();
            let sentinel: Vec<f32> = vec![4.5; m * n];
            let mut c = sentinel.clone();
            let opts = GemmOptions::new().threads(threads).cancel(tok.clone());
            let e = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap_err();
            match &e {
                GemmError::Cancelled { phase, blocks_done, blocks_total } => {
                    assert_eq!(*phase, "pack A", "{ctx}");
                    assert_eq!(*blocks_done, 0, "{ctx}");
                    assert!(*blocks_total > 0, "{ctx}");
                }
                other => panic!("{ctx}: expected Cancelled, got {other:?}"),
            }
            assert_eq!(c, sentinel, "{ctx}: cancelled before kernel, C must be untouched");
            drop(guard);
            // Reset makes the same token reusable for the recovery call.
            tok.reset();
            let mut c2 = vec![0.0f32; m * n];
            engine.try_gemm_opts(m, n, k, &a, &b, &mut c2, &opts).unwrap();
            assert!(max_rel_error(&c2, &oracle(m, n, k, &a, &b)) < 1e-5, "{ctx}");
            assert_recovered(&engine, threads, &ctx);
        }
    }
}

#[test]
fn deadline_and_token_interrupt_a_wedged_kernel_mid_run() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 11);
    // A Stall wedge pins every worker at its first kernel-block claim
    // (cap 10 s — only supervision can break it early); both cancel
    // sources must cut through the wedge within the block budget.
    for threads in THREADS {
        // (1) Deadline.
        let guard = arm(FaultPlan::single(
            FaultSite::WorkerHeartbeat,
            FaultAction::Stall(10_000),
            Trigger::EveryKth(1),
        ));
        let mut c = vec![0.0f32; m * n];
        let t0 = std::time::Instant::now();
        let e = engine
            .try_gemm_opts(
                m,
                n,
                k,
                &a,
                &b,
                &mut c,
                &GemmOptions::new().threads(threads).deadline(Duration::from_millis(150)),
            )
            .unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(8), "t{threads}: deadline did not break wedge");
        match &e {
            GemmError::Cancelled { phase, blocks_done, blocks_total } => {
                assert_eq!(*phase, "kernel", "t{threads}");
                assert!(blocks_done < blocks_total, "t{threads}: {blocks_done}/{blocks_total}");
            }
            other => panic!("t{threads}: expected Cancelled(kernel), got {other:?}"),
        }
        drop(guard);
        assert_recovered(&engine, threads, &format!("deadline t{threads}"));

        // (2) External token, cancelled from another thread mid-wedge.
        let guard = arm(FaultPlan::single(
            FaultSite::WorkerHeartbeat,
            FaultAction::Stall(10_000),
            Trigger::EveryKth(1),
        ));
        let tok = CancelToken::new();
        let canceller = {
            let tok = tok.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(40));
                tok.cancel();
            })
        };
        let mut c = vec![0.0f32; m * n];
        let t0 = std::time::Instant::now();
        let opts = GemmOptions::new().threads(threads).cancel(tok);
        let e = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap_err();
        canceller.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(8), "t{threads}: token did not break wedge");
        assert!(
            matches!(e, GemmError::Cancelled { phase: "kernel", .. }),
            "t{threads}: expected Cancelled(kernel), got {e:?}"
        );
        drop(guard);
        assert_recovered(&engine, threads, &format!("token t{threads}"));
    }
}

#[test]
fn watchdog_detects_a_stalled_worker_and_reports_heartbeats() {
    let _g = chaos_lock();
    // The watchdog verdict itself must not be masked by quarantine.
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 12);
    let watchdog =
        WatchdogConfig { quiescence: Duration::from_millis(80), poll: Duration::from_millis(5) };
    for threads in THREADS {
        // No deadline and no token: only the watchdog can stop this run.
        let guard = arm(FaultPlan::single(
            FaultSite::WorkerHeartbeat,
            FaultAction::Stall(10_000),
            Trigger::EveryKth(1),
        ));
        let mut c = vec![0.0f32; m * n];
        let t0 = std::time::Instant::now();
        let opts = GemmOptions::new().threads(threads).watchdog(watchdog);
        let e = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(8),
            "t{threads}: watchdog verdict took {:?}",
            t0.elapsed()
        );
        match &e {
            GemmError::Stalled { phase, quiescence_ms, heartbeats } => {
                assert_eq!(*phase, "kernel", "t{threads}");
                assert_eq!(*quiescence_ms, 80, "t{threads}");
                // One counter per engaged worker; oversubscribed requests
                // are clamped to the runtime's capacity.
                let engaged = threads.min(engine.runtime().capacity());
                assert_eq!(heartbeats.len(), engaged, "t{threads}: one counter per worker");
            }
            other => panic!("t{threads}: expected Stalled, got {other:?}"),
        }
        assert!(guard.fired() >= 1, "t{threads}");
        drop(guard);
        assert_recovered(&engine, threads, &format!("watchdog t{threads}"));
    }
}

// ---------------------------------------------------------------------------
// ISSUE 7: the worker-pool submission site (FaultSite::PoolSubmit)
// ---------------------------------------------------------------------------

#[test]
fn pool_submit_degrade_drains_inline_bit_identical() {
    let _g = chaos_lock();
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 14);
    for threads in [2, 8] {
        // Fault-free reference run (pooled submission).
        let mut c_ref = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c_ref, &GemmOptions::new().threads(threads))
            .unwrap();

        let guard =
            arm(FaultPlan::single(FaultSite::PoolSubmit, FaultAction::Degrade, Trigger::Nth(1)));
        let mut c = vec![0.0f32; m * n];
        let report = engine
            .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .unwrap();
        assert!(guard.fired() >= 1, "t{threads}: degrade never fired");
        drop(guard);
        // The caller drained every section alone; section bodies are
        // slot-agnostic cursor drains, so the result is bit-identical.
        assert_eq!(c, c_ref, "t{threads}: inline drain diverged");
        assert!(
            report.fallbacks.inline_drains >= 1,
            "t{threads}: inline_drains = {} not recorded",
            report.fallbacks.inline_drains
        );
    }
}

#[test]
fn pool_submit_fail_is_a_structured_error_with_c_untouched() {
    let _g = chaos_lock();
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 15);
    for threads in [2, 8] {
        let guard =
            arm(FaultPlan::single(FaultSite::PoolSubmit, FaultAction::Fail, Trigger::Nth(1)));
        let sentinel: Vec<f32> = (0..m * n).map(|i| i as f32 + 0.5).collect();
        let mut c = sentinel.clone();
        let e = engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .unwrap_err();
        assert!(guard.fired() >= 1, "t{threads}");
        drop(guard);
        match &e {
            GemmError::AllocFailed { phase } => assert_eq!(*phase, "pool submit", "t{threads}"),
            other => panic!("t{threads}: expected AllocFailed(pool submit), got {other:?}"),
        }
        // The submit probe precedes every C write.
        assert_eq!(c, sentinel, "t{threads}: C was touched");
        assert_recovered(&engine, threads, &format!("pool_submit fail t{threads}"));
    }
}

#[test]
fn pool_submit_panic_is_contained_and_the_pool_survives() {
    let _g = chaos_lock();
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 16);
    let rt = engine.runtime().clone();
    let workers = rt.stats().workers as usize;
    for threads in [2, 8] {
        let guard =
            arm(FaultPlan::single(FaultSite::PoolSubmit, FaultAction::Panic, Trigger::Nth(1)));
        let mut c = vec![0.0f32; m * n];
        let e = engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .unwrap_err();
        assert!(guard.fired() >= 1, "t{threads}");
        drop(guard);
        match &e {
            GemmError::WorkerPanicked { detail, .. } => {
                assert!(detail.contains("injected fault"), "t{threads}: {detail}")
            }
            other => panic!("t{threads}: expected WorkerPanicked, got {other:?}"),
        }
        // A poisoned submission never costs a pool worker.
        assert_eq!(rt.alive_workers(), workers, "t{threads}: pool worker leaked");
        assert_recovered(&engine, threads, &format!("pool_submit panic t{threads}"));
    }
}

#[test]
fn pool_submit_probe_never_fires_single_threaded() {
    let _g = chaos_lock();
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 17);
    let guard =
        arm(FaultPlan::single(FaultSite::PoolSubmit, FaultAction::Fail, Trigger::EveryKth(1)));
    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(1)).unwrap();
    assert_eq!(guard.fired(), 0, "single-threaded calls must not consult the pool gate");
    drop(guard);
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-5);
}

#[test]
fn dedicated_pool_survives_poisoned_submissions_and_stays_reusable() {
    let _g = chaos_lock();
    let rt = Runtime::with_workers(1);
    let engine = engine_unbroken().with_runtime(rt.clone());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 19);
    let workers = rt.stats().workers as usize;

    // Every worker (caller included) panics at its block-loop entry.
    let guard =
        arm(FaultPlan::single(FaultSite::WorkerStartup, FaultAction::Panic, Trigger::EveryKth(1)));
    let mut c = vec![0.0f32; m * n];
    let e =
        engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)).unwrap_err();
    assert!(matches!(e, GemmError::WorkerPanicked { .. }), "{e:?}");
    drop(guard);

    // The panic was contained per-submission: the long-lived pool worker
    // is still parked and the next call reuses it cleanly.
    assert_eq!(rt.alive_workers(), workers, "poisoned submission killed a pool worker");
    let submissions_before = rt.stats().submissions;
    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)).unwrap();
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-5);
    assert!(rt.stats().submissions > submissions_before, "reuse call must go through the pool");
    assert_eq!(rt.alive_workers(), workers);
}

#[test]
fn pool_submit_breaker_trips_and_reroutes_to_inline_drains() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_breaker_config(BreakerConfig {
        fail_threshold: 2,
        open_cooldown: 2,
        close_after: 1,
    });
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 18);
    let want = oracle(m, n, k, &a, &b);
    let path = BreakerPath::PoolSubmit;
    let threads = 2;

    let guard =
        arm(FaultPlan::single(FaultSite::PoolSubmit, FaultAction::Degrade, Trigger::EveryKth(1)));
    // Two consecutive degraded submissions trip the path.
    for call in 0..2 {
        let mut c = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .unwrap();
        assert!(max_rel_error(&c, &want) < 1e-5, "call {call}");
    }
    assert_eq!(engine.breaker().state(path), BreakerState::Open);

    // Open: the probe is skipped, the reroute is recorded, and the call
    // still completes correctly on inline drains.
    let fired_before = guard.fired();
    let mut c = vec![0.0f32; m * n];
    let report = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
        .unwrap();
    assert_eq!(guard.fired(), fired_before, "probe must be skipped while Open");
    assert!(report.fallbacks.breaker_reroutes >= 1);
    assert!(max_rel_error(&c, &want) < 1e-5);
    drop(guard);

    // Disarmed: the half-open probe is clean and the pool path closes.
    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads)).unwrap();
    assert_eq!(engine.breaker().state(path), BreakerState::Closed);
    assert!(max_rel_error(&c, &want) < 1e-5);
}

#[test]
fn breaker_trips_reroutes_half_opens_and_recovers_deterministically() {
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_breaker_config(BreakerConfig {
        fail_threshold: 2,
        open_cooldown: 2,
        close_after: 1,
    });
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 13);
    let want = oracle(m, n, k, &a, &b);
    let threads = 2;
    let path = BreakerPath::SimdDispatch;
    let run = |c: &mut Vec<f32>| {
        c.iter_mut().for_each(|x| *x = 0.0);
        engine
            .try_gemm_traced_opts(m, n, k, &a, &b, c, &GemmOptions::new().threads(threads))
            .unwrap()
    };
    let mut c = vec![0.0f32; m * n];

    // Pre-fault reference run (bit-compare target for the recovery).
    let r0 = run(&mut c);
    assert!(r0.health.all_closed(), "fresh engine must be healthy");
    let c_ref = c.clone();

    let guard = arm(FaultPlan::single(
        FaultSite::KernelDispatch,
        FaultAction::Degrade,
        Trigger::EveryKth(1),
    ));
    // Call 1: fault → per-call scalar reroute, breaker still Closed.
    let r1 = run(&mut c);
    assert!(r1.fallbacks.scalar_kernels >= 1);
    assert!(r1.health.transitions.is_empty(), "{:?}", r1.health.transitions);
    assert_eq!(engine.breaker().state(path), BreakerState::Closed);
    assert!(max_rel_error(&c, &want) < 1e-5, "faulting call 1 must still be correct");

    // Call 2: second consecutive fault → trip.
    let r2 = run(&mut c);
    assert_eq!(r2.health.transitions, vec!["simd_dispatch: closed -> open".to_string()]);
    assert_eq!(engine.breaker().state(path), BreakerState::Open);
    assert_eq!(r2.health.path("simd_dispatch").unwrap().trips, 1);
    assert!(max_rel_error(&c, &want) < 1e-5);

    // Call 3: Open → quarantined. The SIMD probe is skipped entirely
    // (the armed fault cannot fire) and the run is rerouted to scalar.
    let fired_before = guard.fired();
    let r3 = run(&mut c);
    assert_eq!(guard.fired(), fired_before, "probe must be skipped while Open");
    assert!(r3.fallbacks.breaker_reroutes >= 1);
    assert_eq!(engine.breaker().state(path), BreakerState::Open);
    assert!(max_rel_error(&c, &want) < 1e-5, "rerouted call must be correct");
    drop(guard);

    // Call 4: cooldown served → HalfOpen probe; the fault is disarmed,
    // the probe is clean, and one clean probe closes the breaker.
    let r4 = run(&mut c);
    assert_eq!(
        r4.health.transitions,
        vec![
            "simd_dispatch: open -> half_open".to_string(),
            "simd_dispatch: half_open -> closed".to_string(),
        ]
    );
    assert_eq!(engine.breaker().state(path), BreakerState::Closed);
    assert!(max_rel_error(&c, &want) < 1e-5);

    // Call 5: fast path restored — no scalar fallback, no reroute, and
    // bit-identical to the pre-fault reference run.
    let r5 = run(&mut c);
    assert_eq!(r5.fallbacks.scalar_kernels, 0, "SIMD must be restored after close");
    assert_eq!(r5.fallbacks.breaker_reroutes, 0);
    assert!(r5.health.all_closed());
    assert_eq!(c, c_ref, "restored fast path must match the pre-fault run");
}

#[test]
fn resilient_retries_share_one_deadline_budget_instead_of_resetting_it() {
    let _g = chaos_lock();
    // Quarantine off so every rung really re-enters the stalling path.
    let engine = engine_unbroken();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 41);
    // Every rung stalls; the watchdog (80 ms quiescence) converts each
    // stall into a retryable `Stalled`. With a single 200 ms budget the
    // ladder must run out of deadline across rungs and surface
    // `Cancelled` — the buggy behavior was three *full* 200 ms budgets,
    // ending in `Stalled` after ~3x the requested deadline.
    let guard = arm(FaultPlan::single(
        FaultSite::WorkerHeartbeat,
        FaultAction::Stall(10_000),
        Trigger::EveryKth(1),
    ));
    let watchdog =
        WatchdogConfig { quiescence: Duration::from_millis(80), poll: Duration::from_millis(5) };
    let opts =
        GemmOptions::new().threads(2).watchdog(watchdog).deadline(Duration::from_millis(200));
    let mut c = vec![0.0f32; m * n];
    let t0 = std::time::Instant::now();
    let e = engine.try_gemm_resilient(m, n, k, &a, &b, &mut c, &opts).unwrap_err();
    let elapsed = t0.elapsed();
    drop(guard);
    assert!(
        matches!(e, GemmError::Cancelled { .. }),
        "later rungs must inherit the *remaining* budget and stop on it; got {e:?}"
    );
    // Generous bound, but far below three full watchdog/deadline cycles.
    assert!(elapsed < Duration::from_secs(2), "ladder overran its shared budget: {elapsed:?}");
}

#[test]
fn recoverable_faults_under_queue_pressure_stay_oracle_identical() {
    use autogemm::{GemmService, ServiceConfig, ShedPolicy, TenantQuota};
    let _g = chaos_lock();
    let cfg = ServiceConfig {
        queue_depth: 16,
        max_in_flight: 2,
        shed: ShedPolicy { enabled: false, ..ShedPolicy::default() },
        ..ServiceConfig::default()
    };
    let svc = GemmService::new(ChipSpec::graviton2(), cfg);
    let tenant = svc.add_tenant("chaos", TenantQuota { threads: 4, ..TenantQuota::default() });
    // Degrade is the recoverable action: packing falls back to the
    // transient (non-pooled) buffer and the call must still be correct.
    let guard =
        arm(FaultPlan::single(FaultSite::PackAlloc, FaultAction::Degrade, Trigger::EveryKth(2)));
    let (m, n, k) = SHAPE;
    let svc = &svc;
    let tenant = &tenant;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                s.spawn(move || {
                    for i in 0..4u32 {
                        let (a, b) = data(m, n, k, 500 + t * 16 + i);
                        let mut c = vec![0.0f32; m * n];
                        svc.submit(tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
                            .unwrap_or_else(|e| panic!("degrade must recover, got {e:?}"));
                        let err = max_rel_error(&c, &oracle(m, n, k, &a, &b));
                        assert!(err < 1e-5, "worker {t} call {i}: rel err {err}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no submitter panicked");
        }
    });
    assert!(guard.fired() > 0, "plan armed but nothing fired");
    drop(guard);
    assert_eq!(svc.queued(), 0, "no waiter stranded in the queue");
    assert_eq!(svc.in_flight(), 0, "no leaked in-flight slot");
    assert_eq!(svc.metrics().snapshot().in_flight, 0);
}

#[test]
fn hard_faults_under_queue_pressure_surface_structured_errors_and_leak_nothing() {
    use autogemm::{GemmService, RejectReason, ServiceConfig, ShedPolicy, TenantQuota};
    let _g = chaos_lock();
    let cfg = ServiceConfig {
        queue_depth: 8,
        max_in_flight: 2,
        shed: ShedPolicy { enabled: false, ..ShedPolicy::default() },
        ..ServiceConfig::default()
    };
    let svc = GemmService::new(ChipSpec::graviton2(), cfg);
    let tenant = svc.add_tenant("storm", TenantQuota { threads: 4, ..TenantQuota::default() });
    let guard =
        arm(FaultPlan::single(FaultSite::KernelDispatch, FaultAction::Panic, Trigger::EveryKth(3)));
    let (m, n, k) = SHAPE;
    let svc = &svc;
    let tenant = &tenant;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                s.spawn(move || {
                    for i in 0..4u32 {
                        let (a, b) = data(m, n, k, 900 + t * 16 + i);
                        let mut c = vec![0.0f32; m * n];
                        match svc.submit(tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new()) {
                            Ok(_) => {
                                let err = max_rel_error(&c, &oracle(m, n, k, &a, &b));
                                assert!(err < 1e-5, "worker {t} call {i}: rel err {err}");
                            }
                            // Execution faults come back wrapped and named;
                            // admission pressure comes back as a rejection.
                            Err(GemmError::InService { tenant: who, source }) => {
                                assert_eq!(who, "storm");
                                assert!(
                                    !matches!(
                                        *source,
                                        GemmError::Rejected { .. } | GemmError::InService { .. }
                                    ),
                                    "wrapper must hold a root execution error, got {source:?}"
                                );
                            }
                            Err(GemmError::Rejected { reason, .. }) => {
                                assert!(
                                    matches!(reason, RejectReason::QueueFull),
                                    "only queue pressure may reject here, got {reason:?}"
                                );
                            }
                            Err(other) => panic!("unstructured failure: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no submitter panicked");
        }
    });
    drop(guard);
    assert_eq!(svc.queued(), 0, "no waiter stranded in the queue");
    assert_eq!(svc.in_flight(), 0, "no leaked in-flight slot");
    assert_eq!(svc.metrics().snapshot().in_flight, 0, "gauge settles to zero");
}

// ---------------------------------------------------------------------------
// Output-integrity chaos (ISSUE 10): seeded `CorruptOutput` injections at
// `FaultSite::KernelCompute` must be caught by the Freivalds layer at
// `Always`, caught at the sampling cadence under `Sample`, repaired by the
// resilient ladder's verified re-execution, and never flagged on clean runs.
// ---------------------------------------------------------------------------

/// The three dispatch routes the corruption sweep must cover: the packed
/// block driver, the GEMV fast path, and the elided-pack (unpacked
/// operand) block route.
const VERIFY_SHAPES: [(&str, usize, usize, usize); 3] =
    [("block", 40, 36, 24), ("gemv", 1, 96, 24), ("unpacked", 64, 49, 64)];

#[test]
fn corrupt_output_is_always_caught_across_routes_and_threads() {
    use autogemm::VerifyPolicy;
    let _g = chaos_lock();
    for (route, m, n, k) in VERIFY_SHAPES {
        for threads in THREADS {
            let engine = engine_unbroken();
            let (a, b) = data(m, n, k, 0xC0);
            let opts = GemmOptions::new().threads(threads).verify(VerifyPolicy::Always);

            let guard = arm(FaultPlan::single(
                FaultSite::KernelCompute,
                FaultAction::CorruptOutput { elements: 2 },
                Trigger::EveryKth(1),
            ));
            let mut c = vec![0.0f32; m * n];
            let e = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap_err();
            assert!(guard.fired() >= 1, "{route} t{threads}: corruption never fired");
            drop(guard);
            assert!(
                matches!(e, GemmError::IntegrityViolation { check: "freivalds", .. }),
                "{route} t{threads}: expected IntegrityViolation, got {e:?}"
            );

            // Disarmed: the same call is clean and must never be flagged.
            let mut c2 = vec![0.0f32; m * n];
            engine
                .try_gemm_opts(m, n, k, &a, &b, &mut c2, &opts)
                .unwrap_or_else(|e| panic!("{route} t{threads}: clean run flagged: {e:?}"));
            assert!(max_rel_error(&c2, &oracle(m, n, k, &a, &b)) < 1e-5);
        }
    }
}

#[test]
fn resilient_ladder_repairs_a_corrupted_run_via_verified_reexecution() {
    use autogemm::supervisor::ResilientMode;
    use autogemm::VerifyPolicy;
    let _g = chaos_lock();
    for (route, m, n, k) in VERIFY_SHAPES {
        for threads in THREADS {
            let engine = engine_unbroken();
            let (a, b) = data(m, n, k, 0xC1);
            let opts = GemmOptions::new().threads(threads).verify(VerifyPolicy::Always);
            // Nth(1): only the first compute unit corrupts — the scalar
            // re-execution runs clean and its own verification attests it.
            let guard = arm(FaultPlan::single(
                FaultSite::KernelCompute,
                FaultAction::CorruptOutput { elements: 1 },
                Trigger::Nth(1),
            ));
            let mut c = vec![0.0f32; m * n];
            let report = engine
                .try_gemm_resilient(m, n, k, &a, &b, &mut c, &opts)
                .unwrap_or_else(|e| panic!("{route} t{threads}: repair failed: {e:?}"));
            assert_eq!(guard.fired(), 1, "{route} t{threads}");
            drop(guard);
            assert_eq!(report.mode, ResilientMode::VerifiedReexecution, "{route} t{threads}");
            assert_eq!(report.attempts, 2, "{route} t{threads}");
            let err = max_rel_error(&c, &oracle(m, n, k, &a, &b));
            assert!(err < 1e-5, "{route} t{threads}: repaired result off by {err}");
        }
    }
}

#[test]
fn sampled_verification_catches_corruption_at_exactly_the_sampling_cadence() {
    use autogemm::VerifyPolicy;
    let _g = chaos_lock();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 0xC2);
    // Engine-default policy: every 4th call verifies (seq 0, 4, ...).
    let engine = engine_unbroken().with_verify_policy(VerifyPolicy::Sample { rate: 4 });
    let guard = arm(FaultPlan::single(
        FaultSite::KernelCompute,
        FaultAction::CorruptOutput { elements: 2 },
        Trigger::EveryKth(1),
    ));
    let mut caught = Vec::new();
    for call in 0..8 {
        let mut c = vec![0.0f32; m * n];
        match engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2)) {
            Ok(()) => {}
            Err(GemmError::IntegrityViolation { .. }) => caught.push(call),
            Err(other) => panic!("call {call}: unexpected {other:?}"),
        }
    }
    drop(guard);
    // Deterministic cadence: the sampler is a monotone counter, so with
    // every call corrupted, exactly the sampled calls are flagged.
    assert_eq!(caught, vec![0, 4], "sampled detections at the wrong cadence");
}

#[test]
fn repeated_integrity_violations_quarantine_the_path_to_scalar_kernels() {
    use autogemm::VerifyPolicy;
    let _g = chaos_lock();
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 0xC3);
    let want = oracle(m, n, k, &a, &b);
    let path = BreakerPath::VerifyIntegrity;
    let engine = AutoGemm::new(ChipSpec::graviton2())
        .with_breaker_config(BreakerConfig { fail_threshold: 2, open_cooldown: 2, close_after: 1 })
        .with_verify_policy(VerifyPolicy::Always);
    let opts = GemmOptions::new().threads(2);

    let guard = arm(FaultPlan::single(
        FaultSite::KernelCompute,
        FaultAction::CorruptOutput { elements: 2 },
        Trigger::EveryKth(1),
    ));
    // Calls 1 and 2: corrupted, caught, two consecutive faults -> trip.
    let mut c = vec![0.0f32; m * n];
    let e1 = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap_err();
    assert!(matches!(e1, GemmError::IntegrityViolation { .. }), "{e1:?}");
    assert_eq!(engine.breaker().state(path), BreakerState::Closed);
    let e2 = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap_err();
    assert!(matches!(e2, GemmError::IntegrityViolation { .. }), "{e2:?}");
    assert_eq!(engine.breaker().state(path), BreakerState::Open, "two violations must trip");
    drop(guard);

    // Call 3: Open -> quarantined to the scalar reference kernels. The
    // run is rerouted, verified (policy is Always) and correct.
    let r3 = engine.try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &opts).unwrap();
    // A breaker reroute lands on the scalar reference kernels but is
    // accounted as a reroute, not a probe-degrade (`scalar_kernels`).
    assert!(r3.fallbacks.breaker_reroutes >= 1, "quarantine must reroute");
    assert_eq!(engine.breaker().state(path), BreakerState::Open);
    assert!(max_rel_error(&c, &want) < 1e-5, "quarantined run must be correct");
    let integ3 = r3.integrity.as_ref().expect("traced reports carry the integrity section");
    assert_eq!(integ3.policy, "always");
    assert!(integ3.verified, "Always policy must verify the quarantined run too");

    // Call 4: cooldown served -> HalfOpen probe (clean) -> Closed.
    let r4 = engine.try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &opts).unwrap();
    assert_eq!(
        r4.health.transitions,
        vec![
            "verify_integrity: open -> half_open".to_string(),
            "verify_integrity: half_open -> closed".to_string(),
        ]
    );
    assert_eq!(engine.breaker().state(path), BreakerState::Closed);
    assert!(max_rel_error(&c, &want) < 1e-5);
    assert!(r4.integrity.as_ref().unwrap().verify_failures_total >= 2);
}

#[test]
fn clean_runs_are_never_flagged_under_always() {
    use autogemm::telemetry::Counter;
    use autogemm::VerifyPolicy;
    let _g = chaos_lock();
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_verify_policy(VerifyPolicy::Always);
    for (route, m, n, k) in VERIFY_SHAPES {
        for threads in THREADS {
            let (a, b) = data(m, n, k, 0xC4);
            let mut c = vec![0.0f32; m * n];
            engine
                .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
                .unwrap_or_else(|e| panic!("{route} t{threads}: clean run flagged: {e:?}"));
            assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-5);
        }
    }
    let snap = engine.metrics();
    assert_eq!(snap.counter(Counter::VerifyFailures), 0, "clean runs produced failures");
    assert!(snap.counter(Counter::VerifyRuns) >= 9, "Always must verify every call");
    assert_eq!(snap.counter(Counter::VerifyRuns), snap.counter(Counter::VerifyPasses));
}

#[test]
fn tenant_verify_policy_is_injected_and_caller_policy_wins() {
    use autogemm::{GemmService, ServiceConfig, TenantQuota, VerifyPolicy};
    let _g = chaos_lock();
    let svc = GemmService::new(ChipSpec::graviton2(), ServiceConfig::default());
    let audited = svc.add_tenant(
        "audited",
        TenantQuota { threads: 2, verify: VerifyPolicy::Always, ..TenantQuota::default() },
    );
    let lax = svc.add_tenant("lax", TenantQuota { threads: 2, ..TenantQuota::default() });
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 0xC5);
    let guard = arm(FaultPlan::single(
        FaultSite::KernelCompute,
        FaultAction::CorruptOutput { elements: 2 },
        Trigger::EveryKth(1),
    ));
    // The audited tenant's quota injects Always: corruption is caught and
    // comes back wrapped in the service error with the tenant named.
    let mut c = vec![0.0f32; m * n];
    let e = svc.submit(&audited, m, n, k, &a, &b, &mut c, &GemmOptions::new()).unwrap_err();
    match &e {
        GemmError::InService { tenant, source } => {
            assert_eq!(tenant, "audited");
            assert!(matches!(**source, GemmError::IntegrityViolation { .. }), "{source:?}");
        }
        other => panic!("expected InService wrapper, got {other:?}"),
    }
    // The lax tenant has no policy: the corrupted output sails through
    // unverified (per-tenant selectivity, not a global switch).
    let mut c2 = vec![0.0f32; m * n];
    svc.submit(&lax, m, n, k, &a, &b, &mut c2, &GemmOptions::new())
        .expect("unverified tenant must not be flagged");
    // A caller-set policy overrides the tenant's Off.
    let mut c3 = vec![0.0f32; m * n];
    let opts = GemmOptions::new().verify(VerifyPolicy::Always);
    let e3 = svc.submit(&lax, m, n, k, &a, &b, &mut c3, &opts).unwrap_err();
    assert!(matches!(e3, GemmError::InService { .. }), "{e3:?}");
    drop(guard);
    assert_eq!(svc.queued(), 0);
    assert_eq!(svc.in_flight(), 0);
}

/// GEMV and small-`k` shapes under every site × action: a structured
/// error or an exact result.
#[test]
fn fast_paths_fault_structured_or_exact() {
    let _g = chaos_lock();
    let shapes = [(1usize, 40usize, 24usize), (40, 1, 24), (24, 20, 6)];
    let actions = [FaultAction::Degrade, FaultAction::Fail, FaultAction::Panic];
    for (m, n, k) in shapes {
        let (a, b) = data(m, n, k, 17);
        let want = oracle(m, n, k, &a, &b);
        for site in FaultSite::ALL {
            for action in actions {
                for threads in [1usize, 3] {
                    let engine = engine_unbroken();
                    let guard = arm(FaultPlan::single(site, action, Trigger::Nth(1)));
                    let mut c = vec![0.0f32; m * n];
                    let opts = GemmOptions::new().threads(threads);
                    let result = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts);
                    drop(guard);
                    let ctx = format!("{m}x{n}x{k} t{threads} {site:?}/{action:?}");
                    match result {
                        Ok(()) => assert_eq!(c, want, "{ctx}: recovered run must be exact"),
                        Err(e) => {
                            assert!(!matches!(e, GemmError::PlanMismatch { .. }), "{ctx}: {e}")
                        }
                    }
                }
            }
        }
    }
}

/// An elided-pack run still honours the pack-phase fault probes: the
/// pool acquisition fires even when the copy is skipped.
#[test]
fn elided_pack_run_still_faults_at_pack_alloc() {
    let _g = chaos_lock();
    let (m, n, k) = (64usize, 49usize, 64usize);
    let (a, b) = data(m, n, k, 19);
    let want = oracle(m, n, k, &a, &b);
    for action in [FaultAction::Degrade, FaultAction::Fail] {
        let engine = engine_unbroken();
        let guard = arm(FaultPlan::single(FaultSite::PackAlloc, action, Trigger::Nth(1)));
        let mut c = vec![0.0f32; m * n];
        let result = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new());
        drop(guard);
        match (action, result) {
            (FaultAction::Degrade, Ok(())) => assert_eq!(c, want),
            (FaultAction::Fail, Err(GemmError::AllocFailed { .. })) => {}
            (_, other) => panic!("PackAlloc/{action:?}: unexpected {other:?}"),
        }
    }
}

/// Cancellation on the fast path reports a structured `Cancelled` with
/// the unit-level progress counters.
#[test]
fn cancelled_fast_path_reports_progress() {
    let _g = chaos_lock();
    let engine = engine_unbroken();
    let (m, n, k) = (1usize, 64usize, 32usize);
    let (a, b) = data(m, n, k, 23);
    let token = CancelToken::new();
    token.cancel();
    let mut c = vec![0.0f32; m * n];
    let opts = GemmOptions::new().threads(2).cancel(token);
    match engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts) {
        Err(GemmError::Cancelled { blocks_done, blocks_total, .. }) => {
            assert!(blocks_total > 0);
            assert!(blocks_done <= blocks_total);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// Two threads arming concurrently serialize: neither ever observes (or
/// clobbers) the other's plan, and nothing stays armed afterwards.
#[test]
fn concurrent_arming_serializes_instead_of_clobbering() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let _g = chaos_lock();
    let live = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for i in 0..4u64 {
        let live = Arc::clone(&live);
        let peak = Arc::clone(&peak);
        handles.push(std::thread::spawn(move || {
            let plan =
                FaultPlan::single(FaultSite::PackAlloc, FaultAction::Degrade, Trigger::Nth(1 + i));
            let guard = arm(plan);
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            live.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
        }));
    }
    for h in handles {
        h.join().expect("arming thread panicked");
    }
    assert_eq!(peak.load(Ordering::SeqCst), 1, "two plans were armed at once");
    // Everything disarmed afterwards: a traced call takes no degradation.
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 29);
    let mut c = vec![0.0f32; m * n];
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let report = engine.try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new()).unwrap();
    assert!(!report.fallbacks.any(), "a plan stayed armed: {:?}", report.fallbacks);
}
