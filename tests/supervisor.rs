//! Supervisor integration tests that need no fault injection: deadline
//! and cancellation semantics on clean runs, engine reusability after a
//! supervised stop, the resilient ladder's happy path, and the health
//! report of a healthy engine. The chaos suite (`tests/chaos.rs`)
//! covers the faulting halves of the same contracts.

use autogemm::supervisor::{CancelToken, GemmOptions, Supervision, WatchdogConfig};
use autogemm::{AutoGemm, GemmError, ResilientMode};
use autogemm_arch::ChipSpec;
use autogemm_baselines::naive::{max_rel_error, naive_gemm};
use std::time::Duration;

const SHAPE: (usize, usize, usize) = (40, 36, 24);

fn data(m: usize, n: usize, k: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
    let f = |i: usize, s: u32| {
        (((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 31) as f32 - 15.0
    };
    let a = (0..m * k).map(|i| f(i, seed) * 0.125).collect();
    let b = (0..k * n).map(|i| f(i, seed ^ 0xfa17) * 0.25).collect();
    (a, b)
}

fn oracle(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut want = vec![0.0f32; m * n];
    naive_gemm(m, n, k, a, b, &mut want);
    want
}

#[test]
fn far_future_deadline_is_bit_identical_to_the_plain_call() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 1);
    for threads in [1usize, 4] {
        let mut c_plain = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c_plain, &GemmOptions::new().threads(threads))
            .unwrap();
        let mut c_dl = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(
                m,
                n,
                k,
                &a,
                &b,
                &mut c_dl,
                &GemmOptions::new().threads(threads).deadline(Duration::from_secs(3600)),
            )
            .unwrap();
        // Supervision changes when a run may stop, never what it computes.
        assert_eq!(c_dl, c_plain, "t{threads}");
    }
}

#[test]
fn an_already_expired_deadline_cancels_with_c_untouched() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 2);
    let sentinel: Vec<f32> = vec![-3.5; m * n];
    let mut c = sentinel.clone();
    let e = engine
        .try_gemm_opts(
            m,
            n,
            k,
            &a,
            &b,
            &mut c,
            &GemmOptions::new().threads(2).deadline(Duration::ZERO),
        )
        .unwrap_err();
    match &e {
        GemmError::Cancelled { phase, blocks_done, .. } => {
            assert_eq!(*phase, "pack A");
            assert_eq!(*blocks_done, 0);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(c, sentinel, "expired deadline must stop before any C write");
    assert_eq!(engine.panel_pool().outstanding(), 0, "pool buffers leaked");
}

#[test]
fn a_cancelled_token_stops_the_run_and_reset_reuses_it() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 3);
    let tok = CancelToken::new();
    assert!(!tok.is_cancelled());
    tok.cancel();
    assert!(tok.is_cancelled());

    let opts = GemmOptions::new().threads(4).cancel(tok.clone());
    let mut c = vec![0.0f32; m * n];
    let e = engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap_err();
    assert!(matches!(e, GemmError::Cancelled { phase: "pack A", .. }), "{e:?}");
    assert_eq!(engine.panel_pool().outstanding(), 0);

    // One shared token cancels many calls; reset() opens the next epoch.
    tok.reset();
    assert!(!tok.is_cancelled());
    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap();
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-5);
}

#[test]
fn the_watchdog_never_trips_on_a_healthy_run() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 4);
    // Default quiescence (250 ms) dwarfs any block on this shape: the
    // watchdog must observe steady heartbeats and stay silent.
    let opts = GemmOptions::new().threads(4).watchdog(WatchdogConfig::default());
    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap();
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-5);
}

#[test]
fn batch_calls_honor_a_pre_cancelled_token_at_item_granularity() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (10usize, 12usize, 8usize);
    let (a, b) = data(m, n, k, 5);
    let mut batch = autogemm::GemmBatch::new(m, n, k);
    for _ in 0..5 {
        batch.push(&a, &b);
    }
    let tok = CancelToken::new();
    tok.cancel();
    let mut c = vec![0.0f32; 5 * m * n];
    let opts = GemmOptions::new().threads(2).cancel(tok.clone());
    let e = engine.try_gemm_batch_opts(&batch, &mut c, &opts).unwrap_err();
    match &e {
        GemmError::Cancelled { phase, blocks_done, blocks_total } => {
            assert_eq!(*phase, "batch");
            assert_eq!(*blocks_done, 0);
            assert_eq!(*blocks_total, 5, "batch progress counts items");
        }
        other => panic!("expected Cancelled(batch), got {other:?}"),
    }
    // Reset + rerun: every item completes and matches the oracle.
    tok.reset();
    let mut c = vec![0.0f32; 5 * m * n];
    engine.try_gemm_batch_opts(&batch, &mut c, &opts).unwrap();
    let want = oracle(m, n, k, &a, &b);
    for i in 0..5 {
        assert!(max_rel_error(&c[i * m * n..(i + 1) * m * n], &want) < 1e-5, "item {i}");
    }
}

#[test]
fn the_plan_level_batch_stops_at_item_granularity_with_c_untouched() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k, items) = (10usize, 12usize, 8usize, 4usize);
    let (a, b) = data(m, n, k, 6);
    let plan = engine.plan(m, n, k);
    let mut batch = autogemm::GemmBatch::new(m, n, k);
    for _ in 0..items {
        batch.push(&a, &b);
    }
    let tok = CancelToken::new();
    tok.cancel();
    let sup = Supervision::none().with_cancel(tok);
    let sentinel = vec![7.5f32; items * m * n];
    let mut c = sentinel.clone();
    let e = autogemm::try_gemm_batch_supervised(&plan, &batch, &mut c, 2, &sup).unwrap_err();
    match e {
        GemmError::Cancelled { phase, blocks_done, blocks_total } => {
            assert_eq!(phase, "batch");
            assert_eq!(blocks_done, 0);
            assert_eq!(blocks_total, items, "batch progress counts items");
        }
        other => panic!("expected Cancelled(batch), got {other:?}"),
    }
    assert_eq!(c, sentinel, "no item ran, so C is untouched");

    // One item, no supervision: the drain runs it and completes.
    let mut one = autogemm::GemmBatch::new(m, n, k);
    one.push(&a, &b);
    let mut c = vec![0.0f32; m * n];
    autogemm::try_gemm_batch_supervised(&plan, &one, &mut c, 1, &Supervision::none()).unwrap();
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-5);
}

#[test]
fn resilient_happy_path_runs_once_as_requested() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 6);
    let mut c = vec![0.0f32; m * n];
    let r =
        engine.try_gemm_resilient(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(4)).unwrap();
    assert_eq!(r.attempts, 1);
    assert_eq!(r.mode, ResilientMode::AsRequested);
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-5);
}

#[test]
fn resilient_never_retries_a_cancellation() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 7);
    let tok = CancelToken::new();
    tok.cancel();
    let mut c = vec![0.0f32; m * n];
    let opts = GemmOptions::new().threads(4).cancel(tok);
    let e = engine.try_gemm_resilient(m, n, k, &a, &b, &mut c, &opts).unwrap_err();
    // Cancellation is the caller's intent, not a fault: one attempt only.
    assert!(matches!(e, GemmError::Cancelled { .. }), "{e:?}");
}

#[test]
fn a_fresh_engine_reports_every_breaker_path_closed() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let health = engine.health();
    assert_eq!(health.paths.len(), 5);
    assert!(health.all_closed());
    for name in
        ["simd_dispatch", "pool_alloc", "threaded_driver", "pool_submit", "verify_integrity"]
    {
        let p = health.path(name).unwrap_or_else(|| panic!("missing path {name}"));
        assert_eq!(p.state, "closed", "{name}");
        assert_eq!((p.total_faults, p.trips), (0, 0), "{name}");
    }
    // A healthy traced run keeps it that way, visible in the report.
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 8);
    let mut c = vec![0.0f32; m * n];
    let report = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
        .unwrap();
    assert!(report.health.all_closed());
    assert!(report.health.transitions.is_empty());
    assert_eq!(report.fallbacks.breaker_reroutes, 0);
}

#[test]
fn half_open_admits_exactly_one_probe_and_reroutes_the_rest() {
    use autogemm::supervisor::{Breaker, BreakerConfig, BreakerPath, BreakerState, ObservedFaults};
    let cfg = BreakerConfig { fail_threshold: 1, open_cooldown: 1, close_after: 1 };
    let b = Breaker::new(cfg);
    let path = BreakerPath::ThreadedDriver;

    // Trip the path, serve the one-cooldown Open call, reach HalfOpen.
    let adm = b.admit();
    let obs = ObservedFaults::default();
    obs.set(path);
    let _ = b.record(&obs, adm.reroute, adm.probe, false);
    assert_eq!(b.state(path), BreakerState::Open);

    // The first HalfOpen admission claims the single probe slot...
    let first = b.admit();
    assert!(first.probe[path.index()], "first caller probes the fast path");
    assert!(!first.reroute[path.index()]);
    assert_eq!(b.state(path), BreakerState::HalfOpen);

    // ...and every overlapping admission reroutes while it is in flight.
    for i in 0..8 {
        let adm = b.admit();
        assert!(adm.reroute[path.index()], "caller {i} must reroute, not probe");
        assert!(!adm.probe[path.index()]);
        let ev = b.record(&ObservedFaults::default(), adm.reroute, adm.probe, false);
        assert!(ev.is_empty(), "rerouted calls never advance the probe count");
    }
    assert_eq!(b.state(path), BreakerState::HalfOpen, "still waiting on the probe");

    // Only the probe's own outcome closes the breaker.
    let ev = b.record(&ObservedFaults::default(), first.reroute, first.probe, false);
    assert_eq!(ev, vec!["threaded_driver: half_open -> closed"]);
    assert_eq!(b.state(path), BreakerState::Closed);
}

#[test]
fn racing_half_open_callers_yield_one_probe_and_a_cancelled_probe_releases_the_slot() {
    use autogemm::supervisor::{Breaker, BreakerConfig, BreakerPath, BreakerState, ObservedFaults};
    let cfg = BreakerConfig { fail_threshold: 1, open_cooldown: 1, close_after: 100 };
    let b = Breaker::new(cfg);
    let path = BreakerPath::PoolSubmit;
    let adm = b.admit();
    let obs = ObservedFaults::default();
    obs.set(path);
    let _ = b.record(&obs, adm.reroute, adm.probe, false);
    assert_eq!(b.state(path), BreakerState::Open);

    // Eight threads race the Open->HalfOpen transition: exactly one may
    // come out holding the probe, everyone else must be rerouted.
    let admissions: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8).map(|_| s.spawn(|| b.admit())).collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    let probes = admissions.iter().filter(|a| a.probe[path.index()]).count();
    let reroutes = admissions.iter().filter(|a| a.reroute[path.index()]).count();
    assert_eq!(probes, 1, "exactly one concurrent caller probes");
    assert_eq!(reroutes, 7, "all others reroute to the safe path");
    assert_eq!(b.state(path), BreakerState::HalfOpen);

    // The probing call ends neutrally (e.g. cancelled): the slot must be
    // released without counting as a clean probe, so the next admission
    // probes again instead of the path wedging half-open forever.
    for adm in &admissions {
        let neutral = adm.probe[path.index()];
        let ev = b.record(&ObservedFaults::default(), adm.reroute, adm.probe, neutral);
        assert!(ev.is_empty());
    }
    assert_eq!(b.state(path), BreakerState::HalfOpen);
    let next = b.admit();
    assert!(next.probe[path.index()], "released slot re-arms the probe");
    assert!(!next.reroute[path.index()]);
}
