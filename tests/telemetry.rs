//! Integration guards for the per-GEMM telemetry layer:
//!
//! * recording is a pure observer — the supervised panel-cache driver's
//!   `C` output is bit-identical with recording on and off, on random
//!   shapes and thread counts;
//! * reports survive a JSON round trip through the public API and the
//!   schema-version guard rejects every other version;
//! * the phase clocks tick, the model join is populated, and the pack
//!   counts and kernel-shape histograms match the values the per-tile
//!   recording hooks they replaced reported for the same calls.

use autogemm::native::try_gemm_with_plan_supervised;
use autogemm::telemetry::metrics::{bucket_index, HIST_BOUNDS};
use autogemm::telemetry::{Counter, Histogram, SCHEMA_VERSION};
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
        try_gemm_with_plan_supervised(&plan, &a, &b, &mut c_plain, threads, &pool, &sup, false)
            .unwrap();
    assert!(none.is_none(), "an unrecorded run returns no report");
    let mut c_traced = vec![0.0f32; m * n];
    let report =
        try_gemm_with_plan_supervised(&plan, &a, &b, &mut c_traced, threads, &pool, &sup, true)
            .unwrap()
            .expect("a recorded run returns its report");
    (c_plain, c_traced, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recording must never perturb numerics: same packs, same
    /// accumulation order, bit-identical C with it on or off.
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

/// Engine reports carry the circuit-breaker health section
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

#[test]
fn reports_carry_live_timings_and_model_join() {
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

/// The engine front door's report for a block-route call: live clocks,
/// one pack per panel the routing packs, and a histogram.
#[test]
fn engine_traced_report_is_live_in_the_default_build() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (64, 96, 64);
    let (a, b) = (data(m * k, 5), data(k * n, 6));
    let mut c = vec![0.0f32; m * n];
    let report = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
        .unwrap();
    assert!(report.wall.wall_ns > 0 && report.phases.kernel.wall_ns > 0);
    assert!(report.wall.wall_ns >= report.phases.kernel.wall_ns);
    let (tm, tn, tk) = (m.div_ceil(report.mc), n.div_ceil(report.nc), k.div_ceil(report.kc));
    let want_a = if report.dispatch.packed_a { tm * tk } else { 0 };
    let want_b = if report.dispatch.packed_b { tk * tn } else { 0 };
    assert_eq!((report.packs.a_packs, report.packs.b_packs), (want_a as u64, want_b as u64));
    assert!(!report.tiles.is_empty());
}

/// `packs` (count, count, bytes, bytes) and the `tiles` histogram as
/// `mr x nr : count` buckets, for comparison against recorded values.
fn packs_and_tiles(r: &GemmReport) -> ([u64; 4], String) {
    let p = r.packs;
    let tiles: Vec<String> =
        r.tiles.iter().map(|t| format!("{}x{}:{}", t.mr, t.nr, t.count)).collect();
    ([p.a_packs, p.b_packs, p.a_bytes, p.b_bytes], tiles.join(";"))
}

/// One recorded call: `(m, n, k, threads)`, its `packs` and its `tiles`.
type Golden = ((usize, usize, usize, usize), [u64; 4], &'static str);

/// Pack counts and histograms equal what per-pack and per-tile recording
/// hooks counted for the same calls before the histogram was derived
/// from the plan: plan-level driver calls (both operands packed) and
/// engine calls across every route, packed and elided operands,
/// lane-tail edges and multi-block grids.
#[test]
fn packs_and_tiles_match_the_recorded_goldens() {
    #[rustfmt::skip]
    let plan_goldens: [Golden; 6] = [
        ((16, 24, 16, 1), [1, 1, 2048, 3072], "5x12:4;6x12:2"),
        ((26, 36, 24, 2), [1, 1, 4992, 6912], "4x16:4;4x20:5;5x16:2;6x8:1;6x12:1"),
        ((64, 96, 64, 2), [1, 1, 32768, 49152], "3x24:80;4x16:6"),
        ((64, 196, 64, 4), [1, 1, 32768, 100352], "3x24:160;4x16:12;8x4:8"),
        ((52, 72, 32, 3), [1, 1, 13312, 18432], "4x16:26;4x20:26"),
        ((16, 24, 7, 4), [1, 1, 896, 1344], "2x24:1;7x12:4"),
    ];
    for ((m, n, k, t), packs, tiles) in plan_goldens {
        let (_, _, report) = traced_pair(m, n, k, t, 1);
        assert_eq!(packs_and_tiles(&report), (packs, tiles.to_string()), "plan {m}x{n}x{k} t{t}");
    }
    #[rustfmt::skip]
    let engine_goldens: [Golden; 14] = [
        ((1, 40, 24, 2), [0, 0, 0, 0], "1x12:1;1x28:1"),
        ((40, 1, 24, 2), [0, 0, 0, 0], "8x4:5"),
        ((24, 20, 6, 2), [0, 0, 0, 0], "1x20:24"),
        ((1, 1100, 9, 2), [0, 0, 0, 0], "1x8:2;1x20:1;1x28:38"),
        ((97, 1, 64, 3), [0, 0, 0, 0], "1x4:1;8x4:12"),
        ((33, 517, 1, 1), [0, 0, 0, 0], "1x4:33;1x12:33;1x28:594"),
        ((48, 64, 32, 2), [1, 0, 12288, 0], "4x16:48"),
        ((64, 96, 64, 2), [1, 0, 32768, 0], "3x24:80;4x16:6"),
        ((26, 36, 24, 2), [0, 1, 0, 6912], "4x16:4;4x20:4;5x8:2;5x12:2;5x16:2"),
        ((64, 49, 64, 1), [0, 1, 0, 25088], "3x24:40;4x16:3;8x4:8"),
        ((52, 40, 48, 1), [0, 0, 0, 0], "3x24:16;4x12:2;4x16:13"),
        ((9, 49, 17, 1), [0, 1, 0, 6664], "4x16:2;4x20:1;5x8:1;5x12:1;5x16:2"),
        ((9, 100, 64, 2), [3, 5, 4608, 51200], "3x20:15"),
        ((256, 196, 64, 2), [0, 1, 0, 100352], "3x24:640;4x16:48;8x4:32"),
    ];
    let engine = AutoGemm::new(ChipSpec::graviton2());
    for ((m, n, k, t), packs, tiles) in engine_goldens {
        let (a, b) = (data(m * k, 3), data(k * n, 4));
        let mut c = vec![0.0f32; m * n];
        let report = engine
            .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(t))
            .unwrap();
        let got = packs_and_tiles(&report);
        assert_eq!(got, (packs, tiles.to_string()), "engine {m}x{n}x{k} t{t}");
    }
}
