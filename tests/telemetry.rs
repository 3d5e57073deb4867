//! Integration guards for the per-GEMM telemetry layer:
//!
//! * the per-call recorder is a pure observer — the supervised
//!   panel-cache driver's `C` output is bit-identical with the recorder
//!   on and off, on random shapes and thread counts (ci.sh runs this
//!   file with the `telemetry` feature both off and on, so the property
//!   pins both builds);
//! * reports survive a JSON round trip through the public API and the
//!   schema-version guard rejects foreign versions;
//! * with the feature off, every timing and counter in a traced report
//!   is zero (the clock and session hooks compile to no-ops); with it
//!   on, the phase clocks tick and the model join is populated.

use std::sync::Arc;

use autogemm::native::try_gemm_with_plan_supervised;
use autogemm::telemetry::metrics::{bucket_index, HIST_BOUNDS};
use autogemm::telemetry::Session;
use autogemm::telemetry::{Counter, HealthReport, Histogram, MIN_SCHEMA_VERSION, SCHEMA_VERSION};
use autogemm::{AutoGemm, ExecutionPlan, GemmOptions, GemmReport, PanelPool, Supervision};
use autogemm_arch::ChipSpec;
use autogemm_perfmodel::{ModelOpts, ProjectionTable};
use autogemm_tuner::tune;
use proptest::prelude::*;

fn data(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) % 61) as f32 / 4.0 - 7.5
        })
        .collect()
}

fn traced_pair(
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    seed: u32,
) -> (Vec<f32>, Vec<f32>, GemmReport) {
    let chip = ChipSpec::graviton2();
    let plan = ExecutionPlan::from_schedule(tune(m, n, k, &chip), &chip);
    let a = data(m * k, seed);
    let b = data(k * n, seed ^ 0x9e37);
    let (pool, sup) = (PanelPool::new(), Supervision::none());
    let mut c_plain = vec![0.0f32; m * n];
    let none =
        try_gemm_with_plan_supervised(&plan, &a, &b, &mut c_plain, threads, &pool, &sup, None)
            .unwrap();
    assert!(none.is_none(), "an unrecorded run returns no report");
    let sess = Arc::new(Session::new());
    let mut c_traced = vec![0.0f32; m * n];
    let report = try_gemm_with_plan_supervised(
        &plan,
        &a,
        &b,
        &mut c_traced,
        threads,
        &pool,
        &sup,
        Some(&sess),
    )
    .unwrap()
    .expect("a recorded run returns its report");
    (c_plain, c_traced, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recorder must never perturb numerics: same packs, same
    /// accumulation order, bit-identical C with it on or off — whether
    /// the feature is on (hooks live) or off (hooks are no-ops).
    #[test]
    fn traced_output_bit_identical_to_untraced(
        m in 1usize..48,
        n in 1usize..56,
        k in 1usize..40,
        threads in 1usize..5,
        seed in 0u32..1_000_000,
    ) {
        let (c_plain, c_traced, report) = traced_pair(m, n, k, threads, seed);
        prop_assert_eq!(c_traced, c_plain);
        prop_assert_eq!((report.m, report.n, report.k), (m, n, k));
        let blocks: u64 = report.thread_profiles.iter().map(|p| p.blocks).sum();
        prop_assert!(blocks > 0, "every GEMM drains at least one block");
    }

    /// Every report that comes out of a recording driver call (model join
    /// attached or not) must survive serialization unchanged.
    #[test]
    fn live_reports_round_trip_through_json(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..32,
        threads in 1usize..4,
        join in proptest::bool::ANY,
    ) {
        let (_, _, mut report) = traced_pair(m, n, k, threads, 7);
        if join {
            let chip = ChipSpec::graviton2();
            let mut table = ProjectionTable::new(&chip, ModelOpts::default());
            report.join_model(&mut table);
        }
        let back = GemmReport::from_json(&report.to_json()).expect("round trip");
        prop_assert_eq!(back, report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard-merge determinism: however the writers' shard hints scatter
    /// the samples, the merged snapshot is identical to recording the
    /// same values into a single shard — the merge is an exact
    /// bucket-wise sum, not an approximation.
    #[test]
    fn histogram_shard_merge_is_deterministic(
        samples in proptest::collection::vec((0u64..50_000_000, 0usize..1024), 1..300),
    ) {
        let sharded = Histogram::new();
        let single = Histogram::new();
        for &(v, hint) in &samples {
            sharded.record(v, hint);
            single.record(v, 0);
        }
        prop_assert_eq!(sharded.snapshot(), single.snapshot());
        // Reversed recording order must merge to the same snapshot too.
        let reversed = Histogram::new();
        for &(v, hint) in samples.iter().rev() {
            reversed.record(v, hint.wrapping_mul(31));
        }
        prop_assert_eq!(reversed.snapshot(), sharded.snapshot());
    }

    /// Percentile correctness at bucket resolution: the reported
    /// quantile is the inclusive upper bound of the bucket holding the
    /// true rank-order statistic of the recorded values.
    #[test]
    fn quantiles_bound_the_true_order_statistic(
        values in proptest::collection::vec(0u64..100_000_000, 1..200),
        q in 0.01f64..1.0,
    ) {
        let hist = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            hist.record(v, i);
        }
        let got = hist.snapshot().quantile(q);
        let mut values = values;
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let truth = values[rank - 1];
        prop_assert_eq!(
            got,
            HIST_BOUNDS[bucket_index(truth)],
            "q={} of {} values: true order statistic {}",
            q,
            values.len(),
            truth
        );
        prop_assert!(got >= truth, "quantile is an upper bound of its bucket");
    }
}

/// The acceptance-criteria accumulation contract: after 100+ engine
/// calls, [`AutoGemm::metrics`] reports call-latency quantiles, the
/// plan-cache counter split and the breaker-transition count — and the
/// same snapshot serializes to a Prometheus dump carrying the series.
#[test]
fn engine_metrics_accumulate_over_a_hundred_calls() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let shapes = [(16usize, 16usize, 16usize), (24, 20, 12), (8, 40, 16)];
    let mut calls = 0u64;
    for rep in 0..40 {
        for &(m, n, k) in &shapes {
            let a = data(m * k, rep);
            let b = data(k * n, rep ^ 0x5eed);
            let mut c = vec![0.0f32; m * n];
            engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new()).expect("gemm");
            calls += 1;
        }
    }
    assert!(calls >= 100);
    let snap = engine.metrics();
    assert!(snap.enabled, "registry records by default");
    assert_eq!(snap.counter(Counter::Calls), calls);
    assert_eq!(snap.counter(Counter::Errors), 0);
    assert_eq!(snap.call_latency_ns.count, calls);
    let (p50, p99) = (snap.call_latency_ns.p50(), snap.call_latency_ns.p99());
    assert!(p50 > 0 && p99 >= p50, "latency quantiles populated: p50={p50} p99={p99}");
    // Three distinct shapes tuned once each, every later call a hit.
    assert_eq!(snap.counter(Counter::PlanCacheMisses), shapes.len() as u64);
    assert_eq!(snap.counter(Counter::PlanCacheHits), calls - shapes.len() as u64);
    assert_eq!(
        snap.counter(Counter::BreakerTransitions),
        0,
        "healthy engine never moves the breaker"
    );
    let prom = snap.to_prometheus();
    for series in [
        "autogemm_calls_total",
        "autogemm_call_latency_ns_bucket",
        "autogemm_call_latency_ns_count",
    ] {
        assert!(prom.contains(series), "Prometheus dump missing {series}:\n{prom}");
    }
}

/// Switching metrics off freezes the registry: no counters move, no
/// samples land, and the engine call path still works.
#[test]
fn metrics_can_be_disabled_at_runtime() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (16, 16, 16);
    let a = data(m * k, 1);
    let b = data(k * n, 2);
    let mut c = vec![0.0f32; m * n];
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new()).expect("gemm");
    engine.set_metrics_enabled(false);
    assert!(!engine.metrics_enabled());
    let frozen = engine.metrics();
    for _ in 0..5 {
        engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new()).expect("gemm");
    }
    let after = engine.metrics();
    assert_eq!(after.counter(Counter::Calls), frozen.counter(Counter::Calls));
    assert_eq!(after.call_latency_ns.count, frozen.call_latency_ns.count);
    engine.set_metrics_enabled(true);
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new()).expect("gemm");
    assert_eq!(engine.metrics().counter(Counter::Calls), frozen.counter(Counter::Calls) + 1);
}

/// A tracing engine records pack/kernel spans and exports a Chrome
/// trace-event timeline with named tracks.
#[test]
fn tracing_engine_exports_a_chrome_timeline() {
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_tracing(256);
    let (m, n, k) = (64, 64, 64);
    let a = data(m * k, 3);
    let b = data(k * n, 4);
    let mut c = vec![0.0f32; m * n];
    for _ in 0..2 {
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
            .expect("gemm");
    }
    let tracer = engine.tracer().expect("built with tracing");
    let spans = tracer.snapshot();
    assert!(
        spans.iter().any(|s| s.cat == "phase" && s.name == "kernel"),
        "kernel spans recorded: {spans:?}"
    );
    let json = engine.trace_export().expect("tracer attached");
    let parsed = autogemm::telemetry::Json::parse(&json).expect("valid trace JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(autogemm::telemetry::Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert!(json.contains("thread_name"), "tracks are named for Perfetto");
}

#[test]
fn schema_version_guard_rejects_foreign_reports() {
    let (_, _, report) = traced_pair(16, 24, 16, 1, 3);
    let text = report.to_json();
    assert!(text.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
    let tampered =
        text.replace(&format!("\"schema_version\":{SCHEMA_VERSION}"), "\"schema_version\":9999");
    let err = GemmReport::from_json(&tampered).unwrap_err();
    assert!(err.to_string().contains("unsupported schema_version"), "{err}");
}

/// Schema v2: engine reports carry the circuit-breaker health section
/// (every dispatch path, closed on a healthy engine) and survive
/// the JSON round trip with it populated.
#[test]
fn engine_reports_carry_a_health_section_that_round_trips() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (26, 36, 24);
    let a = data(m * k, 21);
    let b = data(k * n, 22);
    let mut c = vec![0.0f32; m * n];
    let report = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
        .unwrap();
    assert_eq!(report.health.paths.len(), 5, "engine reports name every breaker path");
    assert!(report.health.all_closed());
    let text = report.to_json();
    assert!(text.contains("\"health\""), "{text}");
    assert!(text.contains("\"simd_dispatch\""), "{text}");
    let back = GemmReport::from_json(&text).expect("round trip");
    assert_eq!(back, report);
}

/// Forward compatibility: a schema-v1 report (no `health` section) must
/// still parse, coming back with the default (empty, all-closed) health.
#[test]
fn v1_reports_without_health_parse_leniently() {
    assert_eq!(MIN_SCHEMA_VERSION, 1);
    // Plan-level traced reports carry default health, so the serialized
    // section is the literal empty object — strip it and drop to v1.
    let (_, _, report) = traced_pair(16, 24, 16, 2, 17);
    assert_eq!(report.health, HealthReport::default());
    let v1 = report
        .to_json()
        .replace(&format!("\"schema_version\":{SCHEMA_VERSION}"), "\"schema_version\":1")
        .replace("\"health\":{\"paths\":[],\"transitions\":[]},", "");
    assert!(!v1.contains("health"), "v1 fixture must not carry a health section");
    let back = GemmReport::from_json(&v1).expect("v1 reports must stay readable");
    assert_eq!(back.health, HealthReport::default());
    assert!(back.health.all_closed());
}

#[cfg(not(feature = "telemetry"))]
#[test]
fn feature_off_reports_are_structurally_filled_but_zeroed() {
    let (_, _, report) = traced_pair(26, 36, 24, 2, 11);
    assert_eq!((report.m, report.n, report.k), (26, 36, 24));
    assert!(report.threads >= 1, "structure still filled in");
    assert_eq!(report.wall, Default::default(), "no clock without the feature");
    assert_eq!(report.phases, Default::default());
    assert_eq!(report.packs, Default::default());
    assert!(report.tiles.is_empty(), "no histogram without the feature");
    assert_eq!(report.gflops(), 0.0);
}

#[cfg(feature = "telemetry")]
#[test]
fn feature_on_reports_carry_live_timings_and_model_join() {
    let (_, _, mut report) = traced_pair(64, 96, 64, 2, 11);
    assert!(report.wall.wall_ns > 0);
    assert!(report.phases.kernel.wall_ns > 0);
    assert!(report.packs.a_packs > 0 && report.packs.b_packs > 0);
    assert!(report.total_tiles() > 0);
    assert!(report.gflops() > 0.0);

    let chip = ChipSpec::graviton2();
    let mut table = ProjectionTable::new(&chip, ModelOpts::default());
    report.join_model(&mut table);
    let mj = report.model.expect("join populated");
    assert!(mj.projected_kernel_cycles > 0.0);
    // Host cycle counters may be unavailable on exotic platforms (the
    // clock falls back to wall time there) but must be monotone here.
    if mj.measured_kernel_cycles > 0 {
        assert!(mj.cycle_ratio > 0.0);
    }
}
