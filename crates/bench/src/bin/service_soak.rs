//! Emit `BENCH_service.json`: overload behavior of the admission-
//! controlled service layer (ISSUE 9).
//!
//! The binary first measures the service's *saturation throughput* with a
//! closed loop (one caller per execution slot, no deadlines, no
//! shedding), then replays paced open-loop traffic at 0.5x / 1x / 2x that
//! rate with a per-call deadline. The artifact records, per offered load:
//! offered vs achieved QPS, the admission outcome counts
//! (admitted / rejected / shed / expired-in-queue) with the dropped share
//! (rejected + shed + expired over all submits), and the p50/p99
//! end-to-end latency of the calls that completed. The overload story the
//! numbers must tell: below saturation everything is admitted and fast;
//! at 2x the queue bounds latency for the admitted fraction and the
//! overflow is converted into deterministic structured rejections rather
//! than unbounded queue growth.
//!
//! Run with
//!
//! ```text
//! cargo run --release -p autogemm-bench --bin service_soak [OUT.json]
//! ```
//!
//! from the workspace root (default output: `BENCH_service.json`).
//!
//! The artifact also carries a `verify_matrix` (ISSUE 10): three tenants
//! with `VerifyPolicy::{Off, Sample{8}, Always}` quotas run the same
//! burst through their per-tenant engines, recording how much
//! verification each policy actually bought (engine-lifetime
//! `verify_*_total` counters from the `integrity` section).
//!
//! `--smoke` runs a shortened sweep as a CI guard and asserts the
//! contract instead of writing the artifact: >0 rejections at 2x offered
//! load, bounded p99 for admitted calls, the queue and the in-flight
//! gauge drained to zero, no leaked pool workers, and the verify matrix
//! contract (off ⇒ zero runs, always ⇒ every call, sampled ⇒ the
//! cadence's share; zero failures on clean traffic; drained to idle).

use autogemm::supervisor::GemmOptions;
use autogemm::telemetry::metrics::Counter;
use autogemm::{GemmError, GemmService, ServiceConfig, ShedPolicy, TenantId, TenantQuota};
use autogemm_arch::ChipSpec;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One irregular Table V-class shape: small enough that admission
/// overhead matters, big enough that execution dominates a queue hop.
const SHAPE: (usize, usize, usize) = (64, 49, 64);

/// Per-call deadline during the paced phases.
const DEADLINE: Duration = Duration::from_millis(25);

const QUEUE_DEPTH: usize = 8;
const MAX_IN_FLIGHT: usize = 2;
const TENANT_THREADS: usize = 2;

const LOADS: [f64; 3] = [0.5, 1.0, 2.0];

fn data(m: usize, n: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
    let a = (0..m * k).map(|i| (i % 17) as f32 - 8.0).collect();
    let b = (0..k * n).map(|i| (i % 13) as f32 - 6.0).collect();
    (a, b)
}

fn service(default_deadline: Option<Duration>, shed: bool) -> GemmService {
    GemmService::new(
        ChipSpec::graviton2(),
        ServiceConfig {
            queue_depth: QUEUE_DEPTH,
            max_in_flight: MAX_IN_FLIGHT,
            default_deadline,
            shed: ShedPolicy { enabled: shed, ..ShedPolicy::default() },
            default_quota: TenantQuota { threads: TENANT_THREADS, ..TenantQuota::default() },
            ..ServiceConfig::default()
        },
    )
}

/// Closed-loop saturation probe: `MAX_IN_FLIGHT` callers back-to-back for
/// `window`, no deadlines. Returns calls/second.
fn measure_saturation(window: Duration) -> f64 {
    let svc = service(None, false);
    let tenant = TenantId::new("probe");
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k);
    let done = std::sync::atomic::AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..MAX_IN_FLIGHT {
            s.spawn(|| {
                let mut c = vec![0.0f32; m * n];
                while t0.elapsed() < window {
                    svc.submit(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
                        .expect("unloaded closed-loop call failed");
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    let calls = done.load(std::sync::atomic::Ordering::Relaxed);
    calls as f64 / t0.elapsed().as_secs_f64()
}

struct LoadResult {
    multiplier: f64,
    offered_qps: f64,
    achieved_qps: f64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    expired_in_queue: u64,
    ok: u64,
    exec_errors: u64,
    p50_s: f64,
    p99_s: f64,
    queued_after: usize,
    in_flight_after: usize,
    gauge_after: i64,
}

impl LoadResult {
    /// Submits turned away (rejected, shed or expired in the queue) as a
    /// share of all submits.
    fn dropped_share(&self) -> f64 {
        let dropped = self.rejected + self.shed + self.expired_in_queue;
        let offered = self.admitted + dropped;
        if offered == 0 {
            0.0
        } else {
            dropped as f64 / offered as f64
        }
    }
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64 * 1e-9
}

/// Paced open-loop phase: `pacers` threads offer `offered_qps` calls/sec
/// in aggregate for `window`, each call carrying [`DEADLINE`].
fn run_load(multiplier: f64, saturation_qps: f64, window: Duration) -> LoadResult {
    let svc = service(Some(DEADLINE), true);
    let tenant = TenantId::new("paced");
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k);
    let offered_qps = saturation_qps * multiplier;
    // Enough pacer threads that callers stuck in the admission queue do
    // not throttle the offered rate.
    let pacers = (2 * MAX_IN_FLIGHT + QUEUE_DEPTH + 2).max(4);
    let per_thread_interval = Duration::from_secs_f64(pacers as f64 / offered_qps.max(1.0));
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let ok = std::sync::atomic::AtomicU64::new(0);
    let exec_errors = std::sync::atomic::AtomicU64::new(0);

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for p in 0..pacers {
            let (svc, tenant, a, b, latencies, ok, exec_errors) =
                (&svc, &tenant, &a, &b, &latencies, &ok, &exec_errors);
            s.spawn(move || {
                let mut c = vec![0.0f32; m * n];
                // Stagger thread start across one interval so the
                // aggregate offered stream is evenly spaced.
                let mut next = t0 + per_thread_interval.mul_f64(p as f64 / pacers as f64);
                loop {
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep(next - now);
                    }
                    if t0.elapsed() >= window {
                        break;
                    }
                    next += per_thread_interval;
                    let call_t0 = Instant::now();
                    match svc.submit(tenant, m, n, k, a, b, &mut c, &GemmOptions::new()) {
                        Ok(_) => {
                            ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let ns = call_t0.elapsed().as_nanos() as u64;
                            let mut l = latencies.lock().unwrap_or_else(|e| e.into_inner());
                            l.push(ns);
                        }
                        Err(GemmError::Rejected { .. }) => {}
                        Err(_) => {
                            exec_errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let snap = svc.metrics().snapshot();
    let mut lat = latencies.into_inner().unwrap_or_else(|e| e.into_inner());
    lat.sort_unstable();
    let ok_calls = ok.load(std::sync::atomic::Ordering::Relaxed);
    LoadResult {
        multiplier,
        offered_qps,
        achieved_qps: ok_calls as f64 / elapsed,
        admitted: snap.counter(Counter::ServiceAdmitted),
        rejected: snap.counter(Counter::ServiceRejected),
        shed: snap.counter(Counter::ServiceShed),
        expired_in_queue: snap.counter(Counter::ServiceExpiredInQueue),
        ok: ok_calls,
        exec_errors: exec_errors.load(std::sync::atomic::Ordering::Relaxed),
        p50_s: percentile(&lat, 0.50),
        p99_s: percentile(&lat, 0.99),
        queued_after: svc.queued(),
        in_flight_after: svc.in_flight(),
        gauge_after: snap.in_flight,
    }
}

struct VerifyCell {
    policy: &'static str,
    sample_rate: u64,
    calls: u64,
    runs: u64,
    passes: u64,
    failures: u64,
    queued_after: usize,
    in_flight_after: usize,
    gauge_after: i64,
}

/// Per-tenant verification policy matrix (ISSUE 10): three tenants on
/// one service — verify never / one-in-eight / always — each push the
/// same closed-loop burst through their own engine. Engines are
/// per-tenant, so the engine-lifetime verify counters (read from the
/// final traced call's `integrity` section) attribute
/// verification work to exactly one policy.
fn run_verify_matrix(calls_per_tenant: u64) -> Vec<VerifyCell> {
    use autogemm::VerifyPolicy;
    const SAMPLE_RATE: u32 = 8;
    let policies: [(&'static str, VerifyPolicy); 3] = [
        ("off", VerifyPolicy::Off),
        ("sampled", VerifyPolicy::Sample { rate: SAMPLE_RATE }),
        ("always", VerifyPolicy::Always),
    ];
    let svc = service(None, false);
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k);
    policies
        .iter()
        .map(|&(name, policy)| {
            let tenant = svc.add_tenant(
                name,
                TenantQuota { threads: TENANT_THREADS, verify: policy, ..TenantQuota::default() },
            );
            let remaining = std::sync::atomic::AtomicU64::new(calls_per_tenant);
            std::thread::scope(|s| {
                for _ in 0..MAX_IN_FLIGHT {
                    let (svc, tenant, a, b, remaining) = (&svc, &tenant, &a, &b, &remaining);
                    s.spawn(move || {
                        let mut c = vec![0.0f32; m * n];
                        while remaining
                            .fetch_update(
                                std::sync::atomic::Ordering::Relaxed,
                                std::sync::atomic::Ordering::Relaxed,
                                |v| v.checked_sub(1),
                            )
                            .is_ok()
                        {
                            svc.submit(tenant, m, n, k, a, b, &mut c, &GemmOptions::new())
                                .expect("unloaded verified call failed");
                        }
                    });
                }
            });
            // One more (traced) call exposes the tenant engine's lifetime
            // verify counters through the integrity report section.
            let mut c = vec![0.0f32; m * n];
            let (_reply, report) = svc
                .submit_traced(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
                .expect("traced verified call failed");
            let integ = report.integrity.expect("report carries an integrity section");
            assert_eq!(integ.policy, policy.name(), "quota policy must reach the engine");
            let snap = svc.metrics().snapshot();
            VerifyCell {
                policy: name,
                sample_rate: integ.sample_rate,
                calls: calls_per_tenant + 1,
                runs: integ.verify_runs_total,
                passes: integ.verify_passes_total,
                failures: integ.verify_failures_total,
                queued_after: svc.queued(),
                in_flight_after: svc.in_flight(),
                gauge_after: snap.in_flight,
            }
        })
        .collect()
}

/// One traced call through a fresh service: the embedded report
/// (with its `service` section) the schema guard validates.
fn traced_report() -> String {
    let svc = service(None, false);
    let tenant = TenantId::new("traced");
    let (m, n, k) = SHAPE;
    let (a, b) = data(m, n, k);
    let mut c = vec![0.0f32; m * n];
    let (_reply, report) = svc
        .submit_traced(&tenant, m, n, k, &a, &b, &mut c, &GemmOptions::new())
        .expect("traced service call failed");
    report.to_json()
}

fn run(window_sat: Duration, window_load: Duration) -> (f64, Vec<LoadResult>) {
    let saturation_qps = measure_saturation(window_sat);
    let results = LOADS.iter().map(|&mult| run_load(mult, saturation_qps, window_load)).collect();
    (saturation_qps, results)
}

fn smoke() {
    let baseline_workers = autogemm::Runtime::global().alive_workers();
    let (saturation_qps, results) = run(Duration::from_millis(200), Duration::from_millis(400));
    assert!(saturation_qps > 0.0, "saturation probe made no calls");
    for r in &results {
        // Whatever the load, the service must settle to idle...
        assert_eq!(r.queued_after, 0, "{}x: queue not drained", r.multiplier);
        assert_eq!(r.in_flight_after, 0, "{}x: leaked in-flight slot", r.multiplier);
        assert_eq!(r.gauge_after, 0, "{}x: metrics gauge nonzero", r.multiplier);
        // ...and admitted calls keep a bounded latency profile: queue
        // wait and execution are both capped by the deadline, so
        // end-to-end p99 is bounded by a small multiple of it.
        if r.ok > 0 {
            assert!(
                r.p99_s < (5 * DEADLINE).as_secs_f64(),
                "{}x: admitted p99 {:.1} ms unbounded",
                r.multiplier,
                r.p99_s * 1e3,
            );
        }
        let accounted = r.admitted + r.rejected + r.shed + r.expired_in_queue;
        assert!(accounted > 0, "{}x: no traffic offered", r.multiplier);
    }
    let overload = results.last().expect("loads configured");
    let dropped = overload.rejected + overload.shed + overload.expired_in_queue;
    assert!(
        dropped > 0,
        "2x offered load must produce deterministic rejections, got none \
         (admitted {} of offered {:.0}/s)",
        overload.admitted,
        overload.offered_qps,
    );
    let matrix = run_verify_matrix(24);
    for cell in &matrix {
        // The verify matrix must also settle to idle: verification runs
        // inline in the dispatched call, never as trailing work.
        assert_eq!(cell.queued_after, 0, "verify {}: queue not drained", cell.policy);
        assert_eq!(cell.in_flight_after, 0, "verify {}: leaked in-flight slot", cell.policy);
        assert_eq!(cell.gauge_after, 0, "verify {}: metrics gauge nonzero", cell.policy);
        assert_eq!(cell.failures, 0, "verify {}: clean traffic flagged", cell.policy);
        assert_eq!(
            cell.passes, cell.runs,
            "verify {}: runs != passes on clean traffic",
            cell.policy
        );
        match cell.policy {
            "off" => assert_eq!(cell.runs, 0, "off tenant must never verify"),
            "always" => assert_eq!(cell.runs, cell.calls, "always tenant must verify every call"),
            _ => {
                // Sampled: at least the cadence's share, strictly fewer
                // than every call (rate > 1 really elides work).
                assert!(
                    cell.runs >= cell.calls / cell.sample_rate && cell.runs < cell.calls,
                    "sampled tenant verified {} of {} calls at rate {}",
                    cell.runs,
                    cell.calls,
                    cell.sample_rate,
                );
            }
        }
    }
    assert_eq!(
        autogemm::Runtime::global().alive_workers(),
        baseline_workers,
        "soak changed the global pool's worker count"
    );
    let sampled = &matrix[1];
    println!(
        "verify matrix passed: off 0 runs, sampled {}/{} at rate {}, always {}/{}; \
         zero failures, all drained.",
        sampled.runs, sampled.calls, sampled.sample_rate, matrix[2].runs, matrix[2].calls,
    );
    println!(
        "service_soak smoke passed: saturation {:.0} calls/s; 2x load admitted {} / \
         dropped {} (rejected {}, shed {}, expired {}), admitted p99 {:.2} ms.",
        saturation_qps,
        overload.admitted,
        dropped,
        overload.rejected,
        overload.shed,
        overload.expired_in_queue,
        overload.p99_s * 1e3,
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    if first.as_deref() == Some("--smoke") {
        smoke();
        return;
    }
    let out_path = first.unwrap_or_else(|| "BENCH_service.json".to_string());
    let (saturation_qps, results) = run(Duration::from_millis(400), Duration::from_millis(800));

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"service_soak\",");
    let _ = writeln!(
        json,
        "  \"command\": \"cargo run --release -p autogemm-bench --bin service_soak\","
    );
    let (m, n, k) = SHAPE;
    let _ = writeln!(json, "  \"shape\": {{\"m\": {m}, \"n\": {n}, \"k\": {k}}},");
    let _ = writeln!(
        json,
        "  \"config\": {{\"queue_depth\": {QUEUE_DEPTH}, \"max_in_flight\": {MAX_IN_FLIGHT}, \
         \"tenant_threads\": {TENANT_THREADS}, \"deadline_ms\": {}}},",
        DEADLINE.as_millis()
    );
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    );
    let _ = writeln!(json, "  \"saturation_qps\": {saturation_qps:.1},");
    let _ = writeln!(json, "  \"loads\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"multiplier\": {:.1}, \"offered_qps\": {:.1}, \"achieved_qps\": {:.1}, \
             \"admitted\": {}, \"rejected\": {}, \"shed\": {}, \"expired_in_queue\": {}, \
             \"dropped_share\": {:.4}, \"ok\": {}, \"exec_errors\": {}, \"p50_s\": {:.9}, \
             \"p99_s\": {:.9}, \"queued_after\": {}, \"in_flight_after\": {}}}",
            r.multiplier,
            r.offered_qps,
            r.achieved_qps,
            r.admitted,
            r.rejected,
            r.shed,
            r.expired_in_queue,
            r.dropped_share(),
            r.ok,
            r.exec_errors,
            r.p50_s,
            r.p99_s,
            r.queued_after,
            r.in_flight_after,
        );
        let _ = writeln!(json, "{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let matrix = run_verify_matrix(64);
    let _ = writeln!(json, "  \"verify_matrix\": [");
    for (i, cell) in matrix.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"policy\": \"{}\", \"sample_rate\": {}, \"calls\": {}, \
             \"verify_runs_total\": {}, \"verify_passes_total\": {}, \
             \"verify_failures_total\": {}, \"queued_after\": {}, \"in_flight_after\": {}}}",
            cell.policy,
            cell.sample_rate,
            cell.calls,
            cell.runs,
            cell.passes,
            cell.failures,
            cell.queued_after,
            cell.in_flight_after,
        );
        let _ = writeln!(json, "{}", if i + 1 < matrix.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"report\": {}", traced_report());
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_service.json");
    println!("wrote {out_path}: saturation {saturation_qps:.0} calls/s");
    for r in &results {
        println!(
            "  {:.1}x: offered {:.0}/s, achieved {:.0}/s, admitted {} rejected {} shed {} \
             expired {}, dropped share {:.3}",
            r.multiplier,
            r.offered_qps,
            r.achieved_qps,
            r.admitted,
            r.rejected,
            r.shed,
            r.expired_in_queue,
            r.dropped_share(),
        );
    }
}
