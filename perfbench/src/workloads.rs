//! The three workloads: set-up, timed window, correctness gate, and the
//! traced pass that feeds the per-layer metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use autogemm::telemetry::metrics::{Counter, HistogramSnapshot, MetricsSnapshot};
use autogemm::{
    AutoGemm, GemmOptions, GemmService, PoolStats, ServiceConfig, TenantId, TenantQuota, TraceBuf,
    VerifyPolicy,
};
use autogemm_arch::ChipSpec;

use crate::inputs::{Problem, Rng, Shape};
use crate::layers;
use crate::report::{peak_rss_mb, Sink};
use crate::spans::{self, Recorder, Span};
use crate::stats::{self, median};

/// Run parameters shared by every workload.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set up once, print the time and stop: the cold-process set-up
    /// repetitions of [`cold_setups`].
    pub setup_only: bool,
    pub chip: ChipSpec,
}

/// Set-ups per untraced run, each in a fresh process; `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;
/// Spans each engine trace lane keeps.
const TRACE_CAPACITY: usize = 1 << 17;
/// Units a traced window records at most, so the engine's span rings
/// never wrap.
const MAX_TRACED_UNITS: usize = 4000;
/// Slices the service window is cut into; service throughput is the
/// upper quartile of the slice rates (see [`stats::quiet`] for why the
/// quieter part of the window).
const SLICES: usize = 40;

fn opts(threads: usize) -> GemmOptions {
    GemmOptions::new().threads(threads)
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The histogram of what was recorded between two snapshots.
fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = after.clone();
    for (a, b) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *a = a.saturating_sub(*b);
    }
    d.sum = after.sum.saturating_sub(before.sum);
    d.count = after.count.saturating_sub(before.count);
    d
}

fn counter_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, c: Counter) -> u64 {
    after.counter(c).saturating_sub(before.counter(c))
}

/// Latency p50 and tail of `samples` (seconds, in the order they were
/// taken) as end-to-end metrics, each read with [`stats::quiet`].
fn latency_metrics(sink: &mut Sink, samples: &[f64], what: &str) {
    let mut us: Vec<f64> = samples.iter().map(|s| s * 1e6).collect();
    let (Some(p50), Some(tail)) = (stats::quiet(&us, stats::p50), stats::quiet(&us, stats::tail))
    else {
        sink.fail(1, &format!("no {what} completed in the window"));
        return;
    };
    println!("latency per {what}: {}", p50.label("us"));
    println!("tail per {what}: {}", tail.label("us"));
    if let (Some(p50), Some(tail)) = (stats::p50(&mut us), stats::tail(&mut us)) {
        println!("whole window: {}  tail {}", p50.label("us"), tail.label("us"));
    }
    sink.e2e("latency_p50_us", p50.at.value, "us");
    sink.e2e("latency_tail_us", tail.at.value, "us");
}

/// Set-up times of [`SETUP_REPS`] cold processes: `first` (this
/// process's own set-up) plus children that each set up once and exit.
/// Fresh processes, because the tuner memoizes block costs process-wide:
/// a second set-up in one process would time a warm memo no user's first
/// call sees.
fn cold_setups(ctx: &Ctx, first: f64, sink: &mut Sink) -> Vec<f64> {
    let mut times = vec![first];
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            sink.fail(1, &format!("cannot locate the benchmark binary for set-up runs: {e}"));
            return times;
        }
    };
    for _ in 1..SETUP_REPS {
        let seed = ctx.seed.to_string();
        let out = std::process::Command::new(&exe)
            .args(["--workload", ctx.workload, "--seed", &seed, "--setup-only", "1"])
            .stderr(std::process::Stdio::inherit())
            .output();
        let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .filter_map(|l| l.strip_prefix("setup_s "))
                .next_back()
                .and_then(|v| v.trim().parse::<f64>().ok())
        });
        match parsed {
            Some(t) => times.push(t),
            None => sink.fail(1, "a set-up run failed"),
        }
    }
    times
}

/// `setup_s` and `peak_rss_mb`. The peak is read once set-up and the
/// first call of every shape are done, before the window: the engine,
/// its plans, panel buffers and operands, without the benchmark's own
/// per-request sample logs, which grow with throughput.
fn setup_metrics(sink: &mut Sink, setup: &mut [f64], rss_mb: f64) {
    println!(
        "setup reps (s): {setup:?}; peak RSS after set-up {rss_mb} MB, at exit {} MB",
        peak_rss_mb()
    );
    sink.e2e("setup_s", median(setup), "s");
    sink.e2e("peak_rss_mb", rss_mb, "MB");
}

/// Median first `AutoGemm::plan` (a plan-cache miss: tuning, DMT and
/// routing) per block-routed shape on a fresh `engine`, under the key
/// `threads` calls use, in ms.
fn plan_miss_ms(engine: &AutoGemm, problems: &[Problem], threads: usize) -> f64 {
    let mut ms: Vec<f64> = problems
        .iter()
        .filter(|p| p.shape.is_block())
        .map(|p| {
            let Shape { m, n, k } = p.shape;
            let t = Instant::now();
            let plan = if threads > 1 {
                engine.plan_multicore(m, n, k, threads)
            } else {
                engine.plan(m, n, k)
            };
            std::hint::black_box(plan);
            secs_since(t) * 1e3
        })
        .collect();
    median(&mut ms)
}

/// Pool counters over a window, as per-layer metrics.
fn pool_metrics(sink: &mut Sink, before: &PoolStats, after: &PoolStats, window_s: f64) {
    let subs = after.submissions - before.submissions;
    let wakes = after.wake_count - before.wake_count;
    let wake_ns = after.wake_ns_total - before.wake_ns_total;
    let busy_ns = after.busy_ns_total - before.busy_ns_total;
    sink.layer("runtime.submissions", subs as f64, "count");
    sink.layer("runtime.wake_count", wakes as f64, "count");
    sink.layer(
        "runtime.wake_us_avg",
        if wakes > 0 { wake_ns as f64 / wakes as f64 / 1e3 } else { 0.0 },
        "us",
    );
    let capacity_ns = window_s * 1e9 * after.workers.max(1) as f64;
    sink.layer("runtime.busy_share", busy_ns as f64 / capacity_ns, "ratio");
}

/// The traced split as per-layer metrics, plus its human-readable table.
fn trace_metrics(sink: &mut Sink, b: &spans::Breakdown) {
    println!(
        "traced split over {} units, {:.3} ms traced end to end:",
        b.units,
        b.total_ns as f64 / 1e6
    );
    for layer in spans::LAYERS {
        let ns = b.self_ns.get(layer).copied().unwrap_or(0);
        println!(
            "  self {layer:<13} {:>12.3} ms  {:>6.2}%",
            ns as f64 / 1e6,
            100.0 * b.share(layer)
        );
    }
    for (name, ns) in &b.worker_ns {
        println!(
            "  worker lanes {name:<8} {:>12.3} ms (parallel, off the caller's path)",
            *ns as f64 / 1e6
        );
    }
    sink.layer("trace.pack_a_share", b.share("pack_a"), "ratio");
    sink.layer("trace.pack_b_share", b.share("pack_b"), "ratio");
    sink.layer("trace.kernel_share", b.share("kernel"), "ratio");
    sink.layer("trace.pool_share", b.share("pool"), "ratio");
    sink.layer("trace.engine_share", b.share("engine"), "ratio");
    sink.layer("trace.queue_wait_share", b.share("queue_wait"), "ratio");
    sink.layer("trace.service_exec_share", b.share("service_exec"), "ratio");
    sink.layer("trace.unattributed_share", b.share("unattributed"), "ratio");
}

fn export_spans(ctx: &Ctx, bench: &[Span], engine: &[autogemm::TraceSpan]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
    let header = format!("\"workload\":\"{}\",\"seed\":{}", ctx.workload, ctx.seed);
    match spans::export(&path, &header, bench, engine) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }
}

// ---------------------------------------------------------------------
// Engine workloads: resnet50_t1 and small_irregular_t2
// ---------------------------------------------------------------------

/// A closed loop over one engine: a pass calls every shape once in
/// `order`, reshuffled before every pass when `shuffle` seeds it; the
/// timed unit is the pass or each call.
struct EngineLoad {
    problems: Vec<Problem>,
    order: Vec<usize>,
    shuffle: Option<u64>,
    threads: usize,
    unit_is_pass: bool,
}

/// Samples of one engine window.
#[derive(Default)]
struct EngineWindow {
    pass_s: Vec<f64>,
    call_s: Vec<f64>,
    /// Problem index of each entry of `call_s`.
    call_shape: Vec<usize>,
    seconds: f64,
}

impl EngineWindow {
    fn units(&mut self, unit_is_pass: bool) -> &mut Vec<f64> {
        if unit_is_pass {
            &mut self.pass_s
        } else {
            &mut self.call_s
        }
    }
}

impl EngineLoad {
    fn pass_flops(&self) -> f64 {
        self.order.iter().map(|&i| self.problems[i].shape.flops()).sum()
    }

    /// Build an engine and run every shape once (tuning each), returning
    /// the engine, its outputs and the elapsed set-up time.
    fn setup(&self, ctx: &Ctx, sink: &mut Sink) -> (AutoGemm, Vec<Vec<f32>>, f64) {
        let t = Instant::now();
        let engine = AutoGemm::new(ctx.chip.clone());
        let outs = self.warm(&engine, sink);
        (engine, outs, secs_since(t))
    }

    fn warm(&self, engine: &AutoGemm, sink: &mut Sink) -> Vec<Vec<f32>> {
        let o = opts(self.threads);
        self.problems
            .iter()
            .map(|p| {
                let mut c = p.output();
                let Shape { m, n, k } = p.shape;
                if engine.try_gemm_opts(m, n, k, &p.a, &p.b, &mut c, &o).is_err() {
                    sink.fail(1, &format!("set-up call {} returned an error", p.shape));
                }
                c
            })
            .collect()
    }

    /// Closed loop for `seconds` (or `max_units` units), spans into `rec`
    /// when tracing. Counts attempts and failures into `sink`.
    fn window(
        &self,
        engine: &AutoGemm,
        outs: &mut [Vec<f32>],
        seconds: f64,
        max_units: usize,
        mut rec: Option<&mut Recorder>,
        sink: &mut Sink,
    ) -> EngineWindow {
        let o = opts(self.threads);
        let mut w = EngineWindow::default();
        let mut order = self.order.clone();
        let mut rng = self.shuffle.map(Rng::new);
        let start = Instant::now();
        let mut req = 0u64;
        loop {
            if let Some(rng) = rng.as_mut() {
                rng.shuffle(&mut order);
            }
            let pass_t = Instant::now();
            let pass_span = rec.as_deref_mut().filter(|_| self.unit_is_pass).map(|r| {
                let now = r.now();
                r.open(spans::UNIT, None, req, now)
            });
            for &i in &order {
                let p = &self.problems[i];
                let Shape { m, n, k } = p.shape;
                let r0 = rec.as_deref().map(|r| r.now());
                let t = Instant::now();
                let result = engine.try_gemm_opts(m, n, k, &p.a, &p.b, &mut outs[i], &o);
                w.call_s.push(secs_since(t));
                w.call_shape.push(i);
                if let (Some(r), Some(r0)) = (rec.as_deref_mut(), r0) {
                    let r1 = r.now();
                    let parent = match pass_span {
                        Some(id) => id,
                        None => r.push(spans::UNIT, None, req, r0, r1),
                    };
                    r.push(spans::ENGINE_CALL, Some(parent), req, r0, r1);
                }
                if !self.unit_is_pass {
                    req += 1;
                }
                sink.attempted += u64::from(!self.unit_is_pass);
                if let Err(e) = result {
                    sink.fail(1, &format!("{} call: {e}", p.shape));
                }
            }
            w.pass_s.push(secs_since(pass_t));
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), pass_span) {
                let now = r.now();
                r.finish(id, now);
            }
            if self.unit_is_pass {
                req += 1;
                sink.attempted += 1;
            }
            if secs_since(start) >= seconds || req as usize >= max_units {
                break;
            }
        }
        w.seconds = secs_since(start);
        w
    }

    fn check_outputs(&self, outs: &[Vec<f32>], sink: &mut Sink) {
        for (p, c) in self.problems.iter().zip(outs) {
            sink.check_verified(p, c);
        }
    }
}

/// Engine counters read around a window.
struct EngineCounters {
    plans: autogemm::PlanCacheStats,
    pool: PoolStats,
    metrics: MetricsSnapshot,
}

impl EngineCounters {
    fn read(engine: &AutoGemm) -> EngineCounters {
        EngineCounters {
            plans: engine.plan_cache_stats(),
            pool: engine.pool_stats(),
            metrics: engine.metrics(),
        }
    }
}

/// The defect gate of an engine window: plan-cache misses and evictions
/// and breaker transitions must stay at zero once set-up is done.
fn engine_gate(sink: &mut Sink, before: &EngineCounters, after: &EngineCounters) {
    sink.fail(
        after.plans.misses - before.plans.misses,
        "plan-cache misses inside the timed window",
    );
    sink.fail(
        after.plans.evictions - before.plans.evictions,
        "plan-cache evictions inside the timed window",
    );
    sink.fail(
        counter_delta(&after.metrics, &before.metrics, Counter::BreakerTransitions),
        "circuit-breaker transitions inside the timed window",
    );
}

fn run_engine(ctx: &Ctx, load: EngineLoad, sink: &mut Sink) {
    let what = if load.unit_is_pass { "pass" } else { "call" };
    if ctx.setup_only {
        println!("setup_s {}", load.setup(ctx, sink).2);
        return;
    }
    if !ctx.trace {
        let (engine, mut outs, first) = load.setup(ctx, sink);
        let rss_mb = peak_rss_mb();
        let mut setup = cold_setups(ctx, first, sink);
        let before = EngineCounters::read(&engine);
        let mut w = load.window(&engine, &mut outs, ctx.seconds, usize::MAX, None, sink);
        let after = EngineCounters::read(&engine);
        engine_gate(sink, &before, &after);
        load.check_outputs(&outs, sink);
        let pass_s = stats::quantile(&mut w.pass_s.clone(), 0.25);
        println!(
            "window {:.3}s: {} passes, lower-quartile pass {:.3} ms, median {:.3} ms",
            w.seconds,
            w.pass_s.len(),
            pass_s * 1e3,
            median(&mut w.pass_s.clone()) * 1e3
        );
        sink.e2e("gflops", load.pass_flops() / pass_s / 1e9, "GFLOP/s");
        sink.e2e("goodput_per_s", load.order.len() as f64 / pass_s, "1/s");
        if !load.unit_is_pass {
            for (i, p) in load.problems.iter().enumerate() {
                let mut us: Vec<f64> = w
                    .call_s
                    .iter()
                    .zip(&w.call_shape)
                    .filter(|&(_, &s)| s == i)
                    .map(|(t, _)| t * 1e6)
                    .collect();
                if let (Some(p50), Some(tail)) = (stats::p50(&mut us), stats::tail(&mut us)) {
                    println!("{}: latency {}  tail {}", p.shape, p50.label("us"), tail.label("us"));
                }
            }
        }
        latency_metrics(sink, w.units(load.unit_is_pass), what);
        setup_metrics(sink, &mut setup, rss_mb);
        return;
    }

    // Traced run: cold plan misses, an untraced window for the counters
    // and the baseline, a traced engine for the span split, then the
    // layer probes.
    let half = ctx.seconds / 2.0;
    let engine = AutoGemm::new(ctx.chip.clone());
    sink.layer("tuner.plan_miss_ms", plan_miss_ms(&engine, &load.problems, load.threads), "ms");
    let mut outs = load.warm(&engine, sink);
    let before = EngineCounters::read(&engine);
    let mut w = load.window(&engine, &mut outs, half, usize::MAX, None, sink);
    let after = EngineCounters::read(&engine);
    engine_gate(sink, &before, &after);
    load.check_outputs(&outs, sink);
    engine_layer_counters(sink, &before, &after, w.seconds);

    let traced = AutoGemm::new(ctx.chip.clone()).with_tracing(TRACE_CAPACITY);
    let mut touts = load.warm(&traced, sink);
    let tracer = Arc::clone(traced.tracer().expect("built with tracing"));
    let mut rec = Recorder::new(Arc::clone(&tracer), 0);
    let t_before = EngineCounters::read(&traced);
    let mut tw = load.window(&traced, &mut touts, half, MAX_TRACED_UNITS, Some(&mut rec), sink);
    engine_gate(sink, &t_before, &EngineCounters::read(&traced));
    load.check_outputs(&touts, sink);
    let engine_spans = tracer.snapshot();
    let bench_spans = rec.into_spans();
    trace_metrics(sink, &spans::analyze(&bench_spans, &engine_spans));
    sink.layer("telemetry.spans_dropped", tracer.dropped() as f64, "count");
    let (untraced, traced_med) =
        (median(w.units(load.unit_is_pass)), median(tw.units(load.unit_is_pass)));
    sink.layer("telemetry.trace_overhead", traced_med / untraced, "ratio");
    export_spans(ctx, &bench_spans, &engine_spans);

    layers::probe(&engine, load.threads, &load.problems, ctx.seed, sink);
    for name in [
        "service.queue_wait_us_p50",
        "service.queue_wait_us_tail",
        "service.hist_queue_wait_p50_us",
    ] {
        sink.layer(name, 0.0, "us");
    }
    for name in ["service.admitted", "service.rejected", "service.shed", "service.expired"] {
        sink.layer(name, 0.0, "count");
    }
}

/// Per-layer counters of an engine window.
fn engine_layer_counters(
    sink: &mut Sink,
    before: &EngineCounters,
    after: &EngineCounters,
    window_s: f64,
) {
    sink.layer("plancache.hits", (after.plans.hits - before.plans.hits) as f64, "count");
    sink.layer("plancache.misses", (after.plans.misses - before.plans.misses) as f64, "count");
    sink.layer(
        "plancache.evictions",
        (after.plans.evictions - before.plans.evictions) as f64,
        "count",
    );
    pool_metrics(sink, &before.pool, &after.pool, window_s);
    let (a, b) = (&after.metrics, &before.metrics);
    sink.layer("verify.runs", counter_delta(a, b, Counter::VerifyRuns) as f64, "count");
    let calls = hist_delta(&a.call_latency_ns, &b.call_latency_ns);
    let verify = hist_delta(&a.verify_ns, &b.verify_ns);
    sink.layer(
        "verify.share",
        if calls.sum > 0 { verify.sum as f64 / calls.sum as f64 } else { 0.0 },
        "ratio",
    );
    sink.layer(
        "supervisor.breaker_transitions",
        counter_delta(a, b, Counter::BreakerTransitions) as f64,
        "count",
    );
    sink.layer("engine.hist_call_p50_us", calls.p50() as f64 / 1e3, "us");
}

/// The 20 ResNet-50 layers of Table V, in layer order.
pub fn resnet50_t1(ctx: &Ctx, sink: &mut Sink) {
    let shapes: Vec<Shape> = autogemm_workloads::shapes::resnet50_table_v()
        .iter()
        .map(|l| Shape::new(l.m, l.n, l.k))
        .collect();
    let problems: Vec<Problem> =
        shapes.iter().enumerate().map(|(i, &s)| Problem::new(s, ctx.seed, i)).collect();
    let order = (0..problems.len()).collect();
    run_engine(
        ctx,
        EngineLoad { problems, order, shuffle: None, threads: 1, unit_is_pass: true },
        sink,
    );
}

/// Small and skewed shapes: the Fig 8 cubes plus ragged, GEMV and
/// small-`k` shapes.
const SMALL_IRREGULAR: [Shape; 9] = [
    Shape::new(31, 44, 29),
    Shape::new(64, 49, 64),
    Shape::new(128, 49, 256),
    Shape::new(64, 196, 64),
    Shape::new(64, 3136, 64),
    Shape::new(1, 3136, 64),
    Shape::new(3136, 1, 64),
    Shape::new(64, 49, 8),
    Shape::new(31, 44, 6),
];

pub fn small_irregular_t2(ctx: &Ctx, sink: &mut Sink) {
    let cubes = autogemm_workloads::shapes::small_sweep().into_iter().map(|s| Shape::new(s, s, s));
    let shapes: Vec<Shape> = cubes.chain(SMALL_IRREGULAR).collect();
    let problems: Vec<Problem> =
        shapes.iter().enumerate().map(|(i, &s)| Problem::new(s, ctx.seed, i)).collect();
    let order = (0..problems.len()).collect();
    let shuffle = Some(ctx.seed ^ 0x005E_ED0F_0DE5);
    run_engine(ctx, EngineLoad { problems, order, shuffle, threads: 2, unit_is_pass: false }, sink);
}

// ---------------------------------------------------------------------
// service_2tenant
// ---------------------------------------------------------------------

/// The service request mix.
const SERVICE_MIX: [Shape; 4] = [
    Shape::new(64, 49, 64),
    Shape::new(31, 44, 29),
    Shape::new(1, 3136, 64),
    Shape::new(128, 49, 256),
];
/// Relative frequency of each [`SERVICE_MIX`] shape per tenant (`plain`,
/// `checked`). Request latencies fall into seven classes (tenant × shape).
/// With 128×49×256 drawn eight times in eleven (ten for `checked`), the
/// median request falls near the middle of the `plain` 128×49×256 class
/// (about 25–78% of all requests on a 2-vCPU Xeon, where `plain`
/// completes ~2.6× as many requests as `checked`) rather than on the gap
/// between two classes, where it would jump from run to run (with equal
/// weights: p45 ≈ 140 µs, p55 ≈ 214 µs).
///
/// `checked` leaves out the GEMV: its Freivalds check takes ~660 µs
/// against ~25 µs for the GEMV itself, so that one class set the p99 of
/// all requests, and it swung 663–973 µs across ten runs of the same
/// code (quartile spread 23% of the median, against 4% without it). The
/// check's cost is reported per layer as `verify.gemv_check_us`.
const MIX_WEIGHTS: [[usize; 4]; 2] = [[1, 1, 1, 8], [1, 1, 0, 8]];
/// Index in [`SERVICE_MIX`] of the shape the counter probes use: a GEMV
/// route, so a probe never touches the plan cache.
const PROBE_SHAPE: usize = 2;
/// Per-request deadline: generous enough that nothing is shed.
const SERVICE_DEADLINE: Duration = Duration::from_secs(1);

/// `max_in_flight` 2, one request per tenant: every request passes
/// admission and dispatch, and none waits for the other tenant's. With
/// `max_in_flight` 1 each request waited for a wake-up on the other core,
/// and on a shared 2-vCPU host the latency of that wake-up, not the
/// service, set the rate (per-slice rates 1660–4852/s within one run).
fn service_config() -> ServiceConfig {
    ServiceConfig {
        queue_depth: 8,
        max_in_flight: 2,
        workers: None,
        default_deadline: Some(SERVICE_DEADLINE),
        ..ServiceConfig::default()
    }
}

fn quota(verify: VerifyPolicy) -> TenantQuota {
    TenantQuota { threads: 1, max_in_flight: 1, max_queue_share: 1.0, workers: None, verify }
}

struct Service {
    svc: GemmService,
    /// `plain` (verify off) and `checked` (verify always).
    tenants: [TenantId; 2],
}

impl Service {
    fn setup(ctx: &Ctx, problems: &[Problem], sink: &mut Sink) -> (Service, f64) {
        let t = Instant::now();
        let svc = GemmService::new(ctx.chip.clone(), service_config());
        let tenants = [
            svc.add_tenant("plain", quota(VerifyPolicy::Off)),
            svc.add_tenant("checked", quota(VerifyPolicy::Always)),
        ];
        for p in problems {
            for tenant in &tenants {
                let mut c = p.output();
                let Shape { m, n, k } = p.shape;
                if let Err(e) = svc.submit(tenant, m, n, k, &p.a, &p.b, &mut c, &GemmOptions::new())
                {
                    sink.fail(1, &format!("set-up request {} for {tenant}: {e}", p.shape));
                }
            }
        }
        (Service { svc, tenants }, secs_since(t))
    }

    /// A traced request on `tenant`, outside any window: its report
    /// carries the tenant engine's lifetime counters.
    fn tenant_counters(&self, tenant: usize, p: &Problem, sink: &mut Sink) -> TenantCounters {
        let mut c = p.output();
        let Shape { m, n, k } = p.shape;
        let t = &self.tenants[tenant];
        match self.svc.submit_traced(t, m, n, k, &p.a, &p.b, &mut c, &GemmOptions::new()) {
            Ok((_, report)) => {
                sink.check(p, Some(&c));
                let integrity = report.integrity.unwrap_or_default();
                TenantCounters {
                    verify_runs: integrity.verify_runs_total,
                    verify_failures: integrity.verify_failures_total,
                    verify_ns: integrity.verify_ns,
                    metrics: report.metrics.unwrap_or_default(),
                }
            }
            Err(e) => {
                sink.fail(1, &format!("counter probe on {t}: {e}"));
                TenantCounters::default()
            }
        }
    }

    fn counters(&self, probe: &Problem, sink: &mut Sink) -> ServiceCounters {
        ServiceCounters {
            tenants: [self.tenant_counters(0, probe, sink), self.tenant_counters(1, probe, sink)],
            report: self.svc.report_section(),
            pool: self.svc.runtime().stats(),
            registry: self.svc.metrics().snapshot(),
        }
    }
}

#[derive(Default)]
struct TenantCounters {
    verify_runs: u64,
    verify_failures: u64,
    verify_ns: HistogramSnapshot,
    metrics: MetricsSnapshot,
}

struct ServiceCounters {
    tenants: [TenantCounters; 2],
    report: autogemm::ServiceReport,
    pool: PoolStats,
    registry: MetricsSnapshot,
}

/// One request as the caller saw it.
struct Request {
    /// Seconds since the window start.
    start: f64,
    end: f64,
    ok: bool,
    tenant: usize,
    shape: usize,
    queue_wait: Option<Duration>,
}

/// What one service window brings back.
struct ServiceLog {
    /// Both tenants' requests, in order of completion.
    requests: Vec<Request>,
    /// Per tenant: the latest output of each problem, and whether any
    /// request for it completed.
    outs: [Vec<Vec<f32>>; 2],
    ran: [Vec<bool>; 2],
    spans: Vec<Span>,
    seconds: f64,
}

/// What one tenant's caller brings back.
struct CallerLog {
    requests: Vec<Request>,
    outs: Vec<Vec<f32>>,
    ran: Vec<bool>,
    spans: Vec<Span>,
}

/// One tenant's closed loop: submit `sequence` in order, cycling, until
/// `seconds` after `start`, spans into `rec` when tracing.
fn caller(
    service: &Service,
    tenant: usize,
    problems: &[Problem],
    sequence: &[usize],
    start: Instant,
    seconds: f64,
    mut rec: Option<Recorder>,
) -> CallerLog {
    let mut log = CallerLog {
        requests: Vec::new(),
        outs: problems.iter().map(Problem::output).collect(),
        ran: vec![false; problems.len()],
        spans: Vec::new(),
    };
    let t = &service.tenants[tenant];
    let o = GemmOptions::new();
    for (req, &idx) in sequence.iter().cycle().enumerate() {
        if secs_since(start) >= seconds {
            break;
        }
        let p = &problems[idx];
        let Shape { m, n, k } = p.shape;
        let r0 = rec.as_ref().map(|r| r.now());
        let t0 = secs_since(start);
        let result = service.svc.submit(t, m, n, k, &p.a, &p.b, &mut log.outs[idx], &o);
        let t1 = secs_since(start);
        if let (Some(r), Some(r0)) = (rec.as_mut(), r0) {
            let r1 = r.now();
            let req = ((tenant as u64) << 32) | req as u64;
            let unit = r.push(spans::UNIT, None, req, r0, r1);
            let submit = r.push(spans::SERVICE_SUBMIT, Some(unit), req, r0, r1);
            if let Ok(reply) = &result {
                let wait = reply.queue_wait.as_nanos() as u64;
                r.push(spans::QUEUE_WAIT, Some(submit), req, r0, (r0 + wait).min(r1));
            }
        }
        log.ran[idx] |= result.is_ok();
        log.requests.push(Request {
            start: t0,
            end: t1,
            ok: result.is_ok(),
            tenant,
            shape: idx,
            queue_wait: result.ok().map(|r| r.queue_wait),
        });
    }
    log.spans = rec.map(Recorder::into_spans).unwrap_or_default();
    log
}

/// Both tenants' closed loops, one caller thread each, for `seconds`;
/// spans on `clock` when tracing. The spans stay in the benchmark's own
/// memory (the tenant engines carry no span ring), so a traced window
/// runs as long as an untraced one.
fn service_window(
    service: &Service,
    problems: &[Problem],
    sequences: &[Vec<usize>; 2],
    seconds: f64,
    clock: Option<&Arc<TraceBuf>>,
) -> ServiceLog {
    let start = Instant::now();
    let [plain, checked]: [CallerLog; 2] = std::thread::scope(|s| {
        let handles = [0, 1].map(|tenant| {
            let rec = clock.map(|c| Recorder::new(Arc::clone(c), tenant as u64));
            let seq = &sequences[tenant];
            s.spawn(move || caller(service, tenant, problems, seq, start, seconds, rec))
        });
        handles.map(|h| h.join().expect("caller thread panicked"))
    });
    let seconds = secs_since(start);
    let mut requests: Vec<Request> = plain.requests.into_iter().chain(checked.requests).collect();
    requests.sort_by(|a, b| a.end.total_cmp(&b.end));
    let mut spans = plain.spans;
    spans.extend(checked.spans);
    ServiceLog {
        requests,
        outs: [plain.outs, checked.outs],
        ran: [plain.ran, checked.ran],
        spans,
        seconds,
    }
}

/// Attempts, failures and output checks of a service window, plus the
/// defect gate: no rejections, sheds, expiries, plan-cache misses or
/// evictions, breaker transitions or verify failures, and one verify run
/// per OK `checked` request.
fn service_gate(
    sink: &mut Sink,
    problems: &[Problem],
    log: &ServiceLog,
    before: &ServiceCounters,
    after: &ServiceCounters,
) {
    sink.attempted += log.requests.len() as u64;
    for tenant in 0..2 {
        let failed = log.requests.iter().filter(|r| r.tenant == tenant && !r.ok).count() as u64;
        sink.fail(failed, &format!("tenant {tenant} requests returned an error"));
        for (i, p) in problems.iter().enumerate().filter(|&(i, _)| log.ran[tenant][i]) {
            sink.check_verified(p, &log.outs[tenant][i]);
        }
    }
    let (a, b) = (&after.report, &before.report);
    sink.fail(a.rejected - b.rejected, "service rejections inside the timed window");
    sink.fail(a.shed - b.shed, "service sheds inside the timed window");
    sink.fail(
        a.expired_in_queue - b.expired_in_queue,
        "service in-queue expiries inside the timed window",
    );
    for (t, (ta, tb)) in after.tenants.iter().zip(&before.tenants).enumerate() {
        let (ma, mb) = (&ta.metrics, &tb.metrics);
        sink.fail(
            counter_delta(ma, mb, Counter::PlanCacheMisses),
            &format!("tenant {t} plan-cache misses"),
        );
        sink.fail(
            counter_delta(ma, mb, Counter::PlanCacheEvictions),
            &format!("tenant {t} plan-cache evictions"),
        );
        sink.fail(
            counter_delta(ma, mb, Counter::BreakerTransitions),
            &format!("tenant {t} circuit-breaker transitions"),
        );
    }
    let checked = &after.tenants[1];
    if checked.verify_failures > 0 {
        sink.wrong_outputs += checked.verify_failures;
        sink.fail(checked.verify_failures, "tenant checked: verify failures");
    }
    // The closing probe is itself a verified `checked` request.
    let runs = checked.verify_runs.saturating_sub(before.tenants[1].verify_runs + 1);
    let ok_checked = log.requests.iter().filter(|r| r.tenant == 1 && r.ok).count() as u64;
    if runs != ok_checked {
        sink.fail(
            runs.abs_diff(ok_checked),
            &format!("tenant checked: {runs} verify runs for {ok_checked} OK requests"),
        );
    }
}

pub fn service_2tenant(ctx: &Ctx, sink: &mut Sink) {
    let problems: Vec<Problem> =
        SERVICE_MIX.iter().enumerate().map(|(i, &s)| Problem::new(s, ctx.seed, i)).collect();
    let sequences: [Vec<usize>; 2] = std::array::from_fn(|t| {
        let weighted: Vec<usize> = MIX_WEIGHTS[t]
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
            .collect();
        let mut rng = Rng::new(ctx.seed ^ (0x7E4A_4700 + t as u64));
        (0..4096).map(|_| weighted[rng.below(weighted.len())]).collect()
    });
    let probe = &problems[PROBE_SHAPE];
    // Traced runs probe the layers on a standalone engine (the tenant
    // engines are private to the service); its plan misses are timed
    // first, while the process is cold.
    let probe_engine = ctx.trace.then(|| {
        let engine = AutoGemm::new(ctx.chip.clone());
        sink.layer("tuner.plan_miss_ms", plan_miss_ms(&engine, &problems, 1), "ms");
        engine
    });
    let (service, first) = Service::setup(ctx, &problems, sink);
    if ctx.setup_only {
        println!("setup_s {first}");
        return;
    }
    let rss_mb = peak_rss_mb();
    let window = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let before = service.counters(probe, sink);
    let log = service_window(&service, &problems, &sequences, window, None);
    let after = service.counters(probe, sink);
    service_gate(sink, &problems, &log, &before, &after);
    let latency: Vec<f64> = log.requests.iter().map(|r| r.end - r.start).collect();

    if !ctx.trace {
        let slice = window / SLICES as f64;
        let (mut rate, mut gflops) = (vec![0.0; SLICES], vec![0.0; SLICES]);
        for r in log.requests.iter().filter(|r| r.ok && r.end < window) {
            let s = ((r.end / slice) as usize).min(SLICES - 1);
            rate[s] += 1.0 / slice;
            gflops[s] += problems[r.shape].shape.flops() / slice / 1e9;
        }
        println!(
            "window {:.3}s: {} requests in {SLICES} slices of {:.3}s, slice rates {:.0}..{:.0}/s",
            log.seconds,
            latency.len(),
            slice,
            rate.iter().copied().fold(f64::INFINITY, f64::min),
            rate.iter().copied().fold(0.0, f64::max),
        );
        sink.e2e("gflops", stats::quantile(&mut gflops, 0.75), "GFLOP/s");
        sink.e2e("goodput_per_s", stats::quantile(&mut rate, 0.75), "1/s");
        for (t, tenant) in ["plain", "checked"].into_iter().enumerate() {
            for (i, shape) in SERVICE_MIX.iter().enumerate() {
                let class = log.requests.iter().filter(|r| r.tenant == t && r.shape == i);
                let mut us: Vec<f64> = class.clone().map(|r| (r.end - r.start) * 1e6).collect();
                let mut wait: Vec<f64> =
                    class.filter_map(|r| r.queue_wait.map(|q| q.as_secs_f64() * 1e6)).collect();
                if let (Some(l), Some(w)) = (stats::p50(&mut us), stats::p50(&mut wait)) {
                    println!(
                        "{tenant} {shape}: latency {}, queue wait {}",
                        l.label("us"),
                        w.label("us")
                    );
                }
            }
        }
        latency_metrics(sink, &latency, "request");
        let mut setup = cold_setups(ctx, first, sink);
        setup_metrics(sink, &mut setup, rss_mb);
        return;
    }

    // Per-layer counters of the untraced window.
    let (a, b) = (&after, &before);
    let mut waits_us: Vec<f64> =
        log.requests.iter().filter_map(|r| r.queue_wait.map(|w| w.as_secs_f64() * 1e6)).collect();
    let (p50, tail) = (stats::p50(&mut waits_us), stats::tail(&mut waits_us));
    if let (Some(p50), Some(tail)) = (p50, tail) {
        println!("queue wait: {}  tail {}", p50.label("us"), tail.label("us"));
    }
    sink.layer("service.queue_wait_us_p50", p50.map_or(0.0, |p| p.value), "us");
    sink.layer("service.queue_wait_us_tail", tail.map_or(0.0, |p| p.value), "us");
    sink.layer("service.admitted", (a.report.admitted - b.report.admitted) as f64, "count");
    sink.layer("service.rejected", (a.report.rejected - b.report.rejected) as f64, "count");
    sink.layer("service.shed", (a.report.shed - b.report.shed) as f64, "count");
    sink.layer(
        "service.expired",
        (a.report.expired_in_queue - b.report.expired_in_queue) as f64,
        "count",
    );
    let queue_hist = hist_delta(&a.registry.queue_wait_ns, &b.registry.queue_wait_ns);
    sink.layer("service.hist_queue_wait_p50_us", queue_hist.p50() as f64 / 1e3, "us");
    let tenant_delta = |c: Counter| -> u64 {
        a.tenants
            .iter()
            .zip(&b.tenants)
            .map(|(ta, tb)| counter_delta(&ta.metrics, &tb.metrics, c))
            .sum()
    };
    sink.layer("plancache.hits", tenant_delta(Counter::PlanCacheHits) as f64, "count");
    sink.layer("plancache.misses", tenant_delta(Counter::PlanCacheMisses) as f64, "count");
    sink.layer("plancache.evictions", tenant_delta(Counter::PlanCacheEvictions) as f64, "count");
    pool_metrics(sink, &b.pool, &a.pool, log.seconds);
    let checked_runs = a.tenants[1].verify_runs.saturating_sub(b.tenants[1].verify_runs + 1);
    sink.layer("verify.runs", checked_runs as f64, "count");
    let verify_ns = hist_delta(&a.tenants[1].verify_ns, &b.tenants[1].verify_ns).sum as f64;
    let checked_ns: f64 = log
        .requests
        .iter()
        .filter(|r| r.tenant == 1 && r.ok)
        .map(|r| (r.end - r.start) * 1e9)
        .sum();
    sink.layer(
        "verify.share",
        if checked_ns > 0.0 { verify_ns / checked_ns } else { 0.0 },
        "ratio",
    );
    sink.layer(
        "supervisor.breaker_transitions",
        tenant_delta(Counter::BreakerTransitions) as f64,
        "count",
    );
    let calls: Vec<HistogramSnapshot> = a
        .tenants
        .iter()
        .zip(&b.tenants)
        .map(|(ta, tb)| hist_delta(&ta.metrics.call_latency_ns, &tb.metrics.call_latency_ns))
        .collect();
    let mut merged = calls[0].clone();
    for (m, o) in merged.buckets.iter_mut().zip(calls[1].buckets.iter()) {
        *m += o;
    }
    merged.count += calls[1].count;
    merged.sum += calls[1].sum;
    sink.layer("engine.hist_call_p50_us", merged.p50() as f64 / 1e3, "us");

    // Traced window: benchmark spans only (tenant engines carry no span
    // ring), so the split is queue wait versus execution.
    let clock = Arc::new(TraceBuf::new(1, 1));
    let t_before = service.counters(probe, sink);
    let tlog = service_window(&service, &problems, &sequences, window, Some(&clock));
    let t_after = service.counters(probe, sink);
    service_gate(sink, &problems, &tlog, &t_before, &t_after);
    let bench_spans = &tlog.spans;
    trace_metrics(sink, &spans::analyze(bench_spans, &[]));
    sink.layer("telemetry.spans_dropped", 0.0, "count");
    let mut traced: Vec<f64> = tlog.requests.iter().map(|r| r.end - r.start).collect();
    let untraced = median(&mut latency.clone());
    sink.layer("telemetry.trace_overhead", median(&mut traced) / untraced, "ratio");
    export_spans(ctx, bench_spans, &[]);

    if let Some(engine) = probe_engine {
        layers::probe(&engine, 1, &problems, ctx.seed, sink);
    }
}
