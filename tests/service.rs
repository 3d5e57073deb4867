//! Integration tests for the admission-controlled service layer
//! (`autogemm::service`): bounded-queue rejection, per-tenant quotas,
//! deadline shedding, in-queue expiry, close semantics, error wrapping,
//! and the `service` report section. The chaos suite
//! (`tests/chaos.rs`) covers the same layer under injected faults.

use autogemm::supervisor::GemmOptions;
use autogemm::{
    GemmError, GemmReport, GemmService, RejectReason, ServiceConfig, ShedPolicy, TenantId,
    TenantQuota,
};
use autogemm_arch::ChipSpec;
use autogemm_baselines::naive::{max_rel_error, naive_gemm};
use std::time::{Duration, Instant};

const SHAPE: (usize, usize, usize) = (40, 36, 24);

/// Big enough that one call holds its execution slot for a while in a
/// debug build, so tests can deterministically build a backlog behind it.
const BIG: (usize, usize, usize) = (320, 320, 320);

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

/// Poll `f` until it holds or `timeout` elapses; returns the final state.
fn wait_until(timeout: Duration, f: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    f()
}

fn service_counter(svc: &GemmService, name: &str) -> u64 {
    let snap = svc.metrics().snapshot();
    autogemm::telemetry::metrics::Counter::ALL
        .iter()
        .find(|c| c.name() == name)
        .map(|c| snap.counter(*c))
        .unwrap_or(0)
}

#[test]
fn plain_submit_matches_the_oracle_and_settles_to_idle() {
    let svc = GemmService::new(ChipSpec::graviton2(), ServiceConfig::default());
    let tenant = TenantId::new("alice");
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 1);
    let mut c = vec![0.0f32; m * n];
    let reply = svc
        .submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
        .expect("clean submit succeeds");
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-5);
    assert!(reply.queue_wait < Duration::from_secs(5));
    assert_eq!(svc.queued(), 0);
    assert_eq!(svc.in_flight(), 0);
    assert_eq!(service_counter(&svc, "service_admitted_total"), 1);
    assert_eq!(service_counter(&svc, "service_rejected_total"), 0);
    let snap = svc.metrics().snapshot();
    assert_eq!(snap.queue_wait_ns.count, 1, "one queue wait recorded");
    assert_eq!(snap.in_flight, 0, "gauge returns to zero");
}

#[test]
fn full_queue_rejects_immediately_with_queue_full() {
    let depth = 2usize;
    let cfg = ServiceConfig {
        queue_depth: depth,
        max_in_flight: 1,
        shed: ShedPolicy { enabled: false, ..ShedPolicy::default() },
        ..ServiceConfig::default()
    };
    let svc = GemmService::new(ChipSpec::graviton2(), cfg);
    let tenant = TenantId::new("burst");
    let (bm, bn, bk) = BIG;
    let (ba, bb) = data(bm, bn, bk, 7);

    let svc = &svc;
    std::thread::scope(|s| {
        // One big call occupies the single execution slot...
        let holder = s.spawn(|| {
            let mut c = vec![0.0f32; bm * bn];
            svc.submit(&tenant, bm, bn, bk, &ba, &bb, &mut c, &GemmOptions::new())
        });
        assert!(
            wait_until(Duration::from_secs(10), || svc.in_flight() == 1),
            "holder call never started executing"
        );

        // ...then `depth` callers fill the queue behind it...
        let waiters: Vec<_> = (0..depth)
            .map(|i| {
                let tenant = tenant.clone();
                s.spawn(move || {
                    let (m, n, k) = SHAPE;
                    let (a, b) = data(m, n, k, 100 + i as u32);
                    let mut c = vec![0.0f32; m * n];
                    svc.submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
                })
            })
            .collect();
        assert!(
            wait_until(Duration::from_secs(10), || svc.queued() == depth),
            "backlog never formed (queued={})",
            svc.queued()
        );

        // ...and the next submit is rejected synchronously, naming the depth.
        let (m, n, k) = SHAPE;
        let (a, b) = data(m, n, k, 999);
        let mut c = vec![0.0f32; m * n];
        match svc.submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new()) {
            Err(GemmError::Rejected { reason: RejectReason::QueueFull, queue_depth }) => {
                assert_eq!(queue_depth, depth);
            }
            other => panic!("expected QueueFull rejection, got {other:?}"),
        }

        holder.join().expect("no panic").expect("holder call succeeds");
        for w in waiters {
            w.join().expect("no panic").expect("queued call succeeds after drain");
        }
    });

    assert_eq!(svc.queued(), 0);
    assert_eq!(svc.in_flight(), 0);
    assert_eq!(service_counter(svc, "service_admitted_total"), 1 + depth as u64);
    assert_eq!(service_counter(svc, "service_rejected_total"), 1);
    assert_eq!(svc.metrics().snapshot().in_flight, 0);
}

#[test]
fn tenant_queue_share_caps_one_tenants_backlog() {
    let cfg = ServiceConfig {
        queue_depth: 8,
        max_in_flight: 1,
        shed: ShedPolicy { enabled: false, ..ShedPolicy::default() },
        ..ServiceConfig::default()
    };
    let svc = GemmService::new(ChipSpec::graviton2(), cfg);
    // greedy may hold at most 25% of the 8-slot queue = 2 waiters.
    let greedy =
        svc.add_tenant("greedy", TenantQuota { max_queue_share: 0.25, ..TenantQuota::default() });
    let polite = svc.add_tenant("polite", TenantQuota::default());
    let (bm, bn, bk) = BIG;
    let (ba, bb) = data(bm, bn, bk, 3);

    let svc = &svc;
    std::thread::scope(|s| {
        let holder = s.spawn(|| {
            let mut c = vec![0.0f32; bm * bn];
            svc.submit(&polite, bm, bn, bk, &ba, &bb, &mut c, &GemmOptions::new())
        });
        assert!(wait_until(Duration::from_secs(10), || svc.in_flight() == 1));

        let greedy_waiters: Vec<_> = (0..2)
            .map(|i| {
                let greedy = greedy.clone();
                s.spawn(move || {
                    let (m, n, k) = SHAPE;
                    let (a, b) = data(m, n, k, 40 + i);
                    let mut c = vec![0.0f32; m * n];
                    svc.submit(&greedy, m, n, k, &a, &b, &mut c, &GemmOptions::new())
                })
            })
            .collect();
        assert!(wait_until(Duration::from_secs(10), || svc.queued() == 2));

        // Greedy's third waiter exceeds its share and bounces; polite still fits.
        let (m, n, k) = SHAPE;
        let (a, b) = data(m, n, k, 77);
        let mut c = vec![0.0f32; m * n];
        match svc.submit(&greedy, m, n, k, &a, &b, &mut c, &GemmOptions::new()) {
            Err(GemmError::Rejected { reason: RejectReason::TenantQueueShare, .. }) => {}
            other => panic!("expected TenantQueueShare rejection, got {other:?}"),
        }
        let polite_waiter = s.spawn(|| {
            let (m, n, k) = SHAPE;
            let (a, b) = data(m, n, k, 78);
            let mut c = vec![0.0f32; m * n];
            svc.submit(&polite, m, n, k, &a, &b, &mut c, &GemmOptions::new())
        });

        holder.join().expect("no panic").expect("holder succeeds");
        for w in greedy_waiters {
            w.join().expect("no panic").expect("greedy waiter drains");
        }
        polite_waiter.join().expect("no panic").expect("polite waiter drains");
    });
    assert_eq!(service_counter(svc, "service_rejected_total"), 1);
    assert_eq!(svc.in_flight(), 0);
}

#[test]
fn provably_unmeetable_deadline_is_shed_before_queueing() {
    let svc = GemmService::new(ChipSpec::graviton2(), ServiceConfig::default());
    let tenant = TenantId::new("hurried");
    // 256^3 needs > 30 us even at the chip's theoretical peak; 50 ns of
    // budget is provably hopeless, so the roofline floor alone sheds it.
    let (m, n, k) = (256usize, 256usize, 256usize);
    let (a, b) = data(m, n, k, 5);
    let mut c = vec![0.0f32; m * n];
    let opts = GemmOptions::new().deadline(Duration::from_nanos(50));
    match svc.submit(&tenant, m, n, k, &a, &b, &mut c, &opts) {
        Err(GemmError::Rejected { reason: RejectReason::DeadlineUnmeetable, .. }) => {}
        other => panic!("expected DeadlineUnmeetable shed, got {other:?}"),
    }
    assert_eq!(service_counter(&svc, "service_shed_total"), 1);
    assert_eq!(service_counter(&svc, "service_admitted_total"), 0);
    assert_eq!(svc.queued(), 0, "shed calls never occupy a queue slot");

    // The same call with shedding disabled is admitted (and then the
    // engine's own deadline supervisor governs it).
    let cfg = ServiceConfig {
        shed: ShedPolicy { enabled: false, ..ShedPolicy::default() },
        ..ServiceConfig::default()
    };
    let svc2 = GemmService::new(ChipSpec::graviton2(), cfg);
    // A budget long enough to survive queue wait but far too short for the
    // call: with shedding off it must be admitted and left to the engine's
    // own deadline supervisor (never pre-rejected on the estimate).
    let opts = GemmOptions::new().deadline(Duration::from_millis(5));
    let r = svc2.submit(&tenant, m, n, k, &a, &b, &mut c, &opts);
    assert!(
        !matches!(r, Err(GemmError::Rejected { reason: RejectReason::DeadlineUnmeetable, .. })),
        "shedding off must not pre-reject; got {r:?}"
    );
    assert_eq!(service_counter(&svc2, "service_admitted_total"), 1);
}

#[test]
fn a_cold_burst_of_plan_misses_leaves_the_shed_estimate_at_the_roofline_floor() {
    // Every call of the burst is a new shape, so each one tunes a plan.
    // That one-off cost must not become the estimate for later calls:
    // with only plan misses on record the estimate stays at the roofline
    // floor, and a repeat call whose budget is far above that floor but
    // below any cold call's latency is admitted and completes.
    let cfg = ServiceConfig {
        shed: ShedPolicy { enabled: true, min_samples: 4, safety: 1.0 },
        ..ServiceConfig::default()
    };
    let svc = GemmService::new(ChipSpec::graviton2(), cfg);
    let tenant = TenantId::new("cold");
    let burst = [(61usize, 52usize, 45usize), (53, 44, 39), (47, 36, 33), (59, 28, 27)];
    let mut fastest_cold = Duration::MAX;
    for (i, &(m, n, k)) in burst.iter().enumerate() {
        let (a, b) = data(m, n, k, 20 + i as u32);
        let mut c = vec![0.0f32; m * n];
        let t0 = Instant::now();
        svc.submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new()).expect("cold call");
        fastest_cold = fastest_cold.min(t0.elapsed());
        assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-4, "{m}x{n}x{k}");
    }
    // Half the fastest cold call: an estimate built from the burst (a
    // p95 at least that call's latency) would shed the repeat call.
    let budget = fastest_cold / 2;
    let (m, n, k) = burst[2];
    let floor_ns = 2.0 * (m * n * k) as f64 / ChipSpec::graviton2().peak_gflops_core();
    assert!(floor_ns < budget.as_nanos() as f64, "floor {floor_ns} ns vs budget {budget:?}");
    let (a, b) = data(m, n, k, 22);
    let mut c = vec![0.0f32; m * n];
    let r = svc.submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new().deadline(budget));
    assert!(r.is_ok(), "repeat call with a {budget:?} budget: {r:?}");
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-4);
    assert_eq!(service_counter(&svc, "service_shed_total"), 0);
    assert_eq!(service_counter(&svc, "service_admitted_total"), burst.len() as u64 + 1);
}

#[test]
fn shedding_on_observed_latency_releases_once_calls_are_fast_again() {
    // A shed call records no latency, so an estimate fed only by finished
    // calls would keep shedding a tenant whose calls are long since fast.
    // Probes admitted while shedding let the estimate come back down.
    let cfg = ServiceConfig {
        shed: ShedPolicy { enabled: true, min_samples: 4, safety: 1.0 },
        ..ServiceConfig::default()
    };
    let svc = GemmService::new(ChipSpec::graviton2(), cfg);
    let tenant = TenantId::new("mixed");
    let fastest = |shape: (usize, usize, usize), calls: usize, seed: u32| {
        let (m, n, k) = shape;
        let (a, b) = data(m, n, k, seed);
        let mut c = vec![0.0f32; m * n];
        (0..calls)
            .map(|_| {
                let t0 = Instant::now();
                svc.submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
                    .expect("no deadline, nothing to shed");
                t0.elapsed()
            })
            .min()
            .expect("calls > 0")
    };
    // The small shape's warm latency first, then enough slow warm calls
    // that the estimate sits near the big shape's latency.
    let small = fastest(SHAPE, 4, 41);
    let big = fastest(BIG, 24, 42);
    assert!(big >= small * 20, "big {big:?} vs small {small:?}: need a wide gap");
    // Both margins at least ~4.5x: the small call fits the budget with
    // room to spare, the estimate exceeds it by as much.
    let budget = Duration::from_secs_f64((small.as_secs_f64() * big.as_secs_f64()).sqrt());
    let (m, n, k) = SHAPE;
    let floor_ns = 2.0 * (m * n * k) as f64 / ChipSpec::graviton2().peak_gflops_core();
    assert!(floor_ns < budget.as_nanos() as f64 / 4.0, "floor {floor_ns} ns vs {budget:?}");

    let (a, b) = data(m, n, k, 43);
    let opts = GemmOptions::new().deadline(budget);
    let attempt = |c: &mut [f32]| match svc.submit(&tenant, m, n, k, &a, &b, c, &opts) {
        Ok(_) => true,
        Err(GemmError::Rejected { reason: RejectReason::DeadlineUnmeetable, .. }) => false,
        Err(other) => panic!("only sheds expected, got {other:?}"),
    };
    let mut c = vec![0.0f32; m * n];
    assert!(!attempt(&mut c), "an estimate of ~{big:?} sheds a {budget:?} budget");
    let first_admit = (1..=200).find(|_| {
        std::thread::sleep(budget / 2);
        attempt(&mut c)
    });
    assert!(first_admit.is_some(), "still shed after 200 attempts {:?} apart", budget / 2);
    assert!(max_rel_error(&c, &oracle(m, n, k, &a, &b)) < 1e-4);

    // Each admitted call pulls the estimate toward the small latency, so
    // the tenant goes back to having every call admitted.
    let mut streak = 0;
    for _ in 0..2000 {
        streak = if attempt(&mut c) { streak + 1 } else { 0 };
        if streak == 8 {
            break;
        }
        std::thread::sleep(budget / 2);
    }
    assert_eq!(streak, 8, "shedding never fully released");
    assert!(service_counter(&svc, "service_shed_total") >= 1);
    assert_eq!(svc.queued(), 0);
    assert_eq!(svc.in_flight(), 0);
}

#[test]
fn service_default_deadline_applies_when_the_call_names_none() {
    let cfg = ServiceConfig {
        default_deadline: Some(Duration::from_nanos(50)),
        ..ServiceConfig::default()
    };
    let svc = GemmService::new(ChipSpec::graviton2(), cfg);
    let tenant = TenantId::new("defaulted");
    let (m, n, k) = (256usize, 256usize, 256usize);
    let (a, b) = data(m, n, k, 6);
    let mut c = vec![0.0f32; m * n];
    match svc.submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new()) {
        Err(GemmError::Rejected { reason: RejectReason::DeadlineUnmeetable, .. }) => {}
        other => panic!("expected the config default deadline to shed, got {other:?}"),
    }
}

#[test]
fn a_deadline_that_expires_in_the_queue_is_dropped_there() {
    let cfg = ServiceConfig {
        queue_depth: 4,
        max_in_flight: 1,
        shed: ShedPolicy { enabled: false, ..ShedPolicy::default() },
        ..ServiceConfig::default()
    };
    let svc = GemmService::new(ChipSpec::graviton2(), cfg);
    let slow = TenantId::new("slow");
    let timely = TenantId::new("timely");
    let (bm, bn, bk) = BIG;
    let (ba, bb) = data(bm, bn, bk, 9);

    let svc = &svc;
    std::thread::scope(|s| {
        let holder = s.spawn(|| {
            let mut c = vec![0.0f32; bm * bn];
            svc.submit(&slow, bm, bn, bk, &ba, &bb, &mut c, &GemmOptions::new())
        });
        assert!(wait_until(Duration::from_secs(10), || svc.in_flight() == 1));

        // Tiny-deadline call behind the big one: its budget evaporates
        // while queued, so it must come back ExpiredInQueue (the holder
        // runs far longer than 20 ms even on a fast machine).
        let (m, n, k) = SHAPE;
        let (a, b) = data(m, n, k, 11);
        let mut c = vec![0.0f32; m * n];
        let opts = GemmOptions::new().deadline(Duration::from_millis(20));
        match svc.submit(&timely, m, n, k, &a, &b, &mut c, &opts) {
            Err(GemmError::Rejected { reason: RejectReason::ExpiredInQueue, .. }) => {}
            other => panic!("expected ExpiredInQueue, got {other:?}"),
        }
        holder.join().expect("no panic").expect("holder succeeds");
    });
    assert_eq!(service_counter(svc, "service_expired_in_queue_total"), 1);
    assert_eq!(svc.queued(), 0, "expired waiter left no queue residue");
    assert_eq!(svc.in_flight(), 0);
}

#[test]
fn close_rejects_new_and_queued_work_without_stranding_waiters() {
    let cfg = ServiceConfig {
        queue_depth: 4,
        max_in_flight: 1,
        shed: ShedPolicy { enabled: false, ..ShedPolicy::default() },
        ..ServiceConfig::default()
    };
    let svc = GemmService::new(ChipSpec::graviton2(), cfg);
    let tenant = TenantId::new("t");
    let (bm, bn, bk) = BIG;
    let (ba, bb) = data(bm, bn, bk, 13);

    let svc = &svc;
    std::thread::scope(|s| {
        let holder = s.spawn(|| {
            let mut c = vec![0.0f32; bm * bn];
            svc.submit(&tenant, bm, bn, bk, &ba, &bb, &mut c, &GemmOptions::new())
        });
        assert!(wait_until(Duration::from_secs(10), || svc.in_flight() == 1));
        let waiter = s.spawn(|| {
            let (m, n, k) = SHAPE;
            let (a, b) = data(m, n, k, 14);
            let mut c = vec![0.0f32; m * n];
            svc.submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
        });
        assert!(wait_until(Duration::from_secs(10), || svc.queued() == 1));

        svc.close();
        match waiter.join().expect("no panic") {
            Err(GemmError::Rejected { reason: RejectReason::ServiceClosed, .. }) => {}
            other => panic!("queued waiter must see ServiceClosed, got {other:?}"),
        }
        // In-flight work still completes; new submits bounce.
        holder.join().expect("no panic").expect("in-flight call finishes after close");
        let (m, n, k) = SHAPE;
        let (a, b) = data(m, n, k, 15);
        let mut c = vec![0.0f32; m * n];
        match svc.submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new()) {
            Err(GemmError::Rejected { reason: RejectReason::ServiceClosed, .. }) => {}
            other => panic!("post-close submit must see ServiceClosed, got {other:?}"),
        }
    });
    assert!(svc.is_closed());
    assert_eq!(svc.in_flight(), 0);
}

#[test]
fn execution_errors_are_wrapped_naming_the_tenant_and_chain_to_the_cause() {
    let svc = GemmService::new(ChipSpec::graviton2(), ServiceConfig::default());
    let tenant = TenantId::new("bob");
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 21);
    let mut c = vec![0.0f32; m * n - 1]; // wrong on purpose
    let err = svc
        .submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
        .expect_err("short c slice must fail");
    match &err {
        GemmError::InService { tenant: t, source } => {
            assert_eq!(t, "bob");
            assert!(matches!(**source, GemmError::SliceLen { .. }), "cause is {source:?}");
        }
        other => panic!("expected InService wrapper, got {other:?}"),
    }
    // std::error::Error::source exposes the chain.
    let cause = std::error::Error::source(&err).expect("wrapper has a source");
    assert!(cause.downcast_ref::<GemmError>().is_some());
    // An execution failure still releases its slot and counts as admitted.
    assert_eq!(svc.in_flight(), 0);
    assert_eq!(service_counter(&svc, "service_admitted_total"), 1);
}

#[test]
fn traced_submit_stamps_a_schema_v6_service_section_that_round_trips() {
    let svc = GemmService::new(ChipSpec::graviton2(), ServiceConfig::default());
    let tenant = TenantId::new("alice");
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k, 31);
    let mut c = vec![0.0f32; m * n];
    let (_reply, report) = svc
        .submit_traced(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
        .expect("traced submit succeeds");
    let section = report.service.as_ref().expect("service section stamped");
    assert_eq!(section.admitted, 1);
    assert_eq!(section.offered, 1);
    assert_eq!(section.queue_wait_ns.count, 1);
    assert_eq!(section.in_flight, 0);
    assert!(section.shed_ratio == 0.0);

    let text = report.to_json();
    assert!(text.contains("\"service\":{"), "service section serialized");
    let back = GemmReport::from_json(&text).expect("round trip parses");
    assert_eq!(back.service, report.service);

    // report_section agrees with the stamped view's counters.
    let live = svc.report_section();
    assert_eq!(live.admitted, 1);
    assert_eq!(live.queued, 0);
    assert_eq!(live.in_flight, 0);
}
