//! Emit `BENCH_gemmtrace.json`: per-GEMM telemetry reports over a shape
//! sweep — the observability layer's end-to-end artifact.
//!
//! For every shape in [`autogemm_workloads::gemmtrace_sweep`] (Fig 8
//! cubes plus one Table V ResNet-50 layer per irregularity class) the
//! binary runs the engine's traced front door
//! ([`autogemm::AutoGemm::try_gemm_traced_opts`]) at [`THREADS`] threads
//! clamped to the host's parallelism (an oversubscribed host would make
//! the per-phase split measure preemption), keeps the best-wall
//! report of a few repetitions, joins it against the perfmodel's
//! projected cycles ([`autogemm::GemmReport::join_model`]) and records
//! the full versioned-JSON report: per-phase wall/cycle breakdown
//! (pack-A, pack-B, kernel, drain), pack counts/bytes, per-thread block
//! counts and busy fractions, the dispatched kernel-shape histogram,
//! the measured-vs-model `cycle_ratio`, plus the `pool` and
//! `dispatch` sections and the engine `metrics` snapshot.
//!
//! The ratio mixes host counter ticks with modelled-chip cycles, so its
//! absolute value is host-specific; its *flatness across shapes* is the
//! validation signal (same convention as the microkernel bench's
//! `effective_ghz` — §III-B's achieved-vs-predicted tracking).
//!
//! ```text
//! cargo run --release -p autogemm-bench --bin gemmtrace [OUT.json]
//! cargo run --release -p autogemm-bench --bin gemmtrace -- --smoke
//! cargo run --release -p autogemm-bench --bin gemmtrace -- --timeline
//! ```
//!
//! `--smoke` (the CI mode) runs only the small cube shapes with one
//! repetition and writes no artifact unless a path is also given — but
//! still serializes every report, re-parses it through the
//! schema-version guard, and gates that the registry's metrics-off path
//! adds no measurable overhead to `try_gemm_opts`. `--timeline` runs a short
//! multi-threaded burst on a tracing engine and writes
//! `BENCH_timeline.json`, a Chrome trace-event timeline (open it in
//! Perfetto or `chrome://tracing`) with pack/kernel spans on every
//! engaged worker track.

use autogemm::telemetry::{Json, SCHEMA_VERSION};
use autogemm::{AutoGemm, GemmOptions, GemmReport};
use autogemm_arch::ChipSpec;
use autogemm_bench::print_table;
use autogemm_perfmodel::{ModelOpts, ProjectionTable};
use std::fmt::Write as _;
use std::time::Instant;

/// Threads the sweep asks for, before clamping to the host, and the
/// timeline burst's width.
const THREADS: usize = 4;

fn data(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) % 61) as f32 / 4.0 - 7.5
        })
        .collect()
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "-".into();
    }
    format!("{:.1}%", 100.0 * part as f64 / whole as f64)
}

fn median_secs(mut run: impl FnMut()) -> f64 {
    for _ in 0..3 {
        run();
    }
    let mut times: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// `--timeline`: run a short multi-threaded burst on a tracing engine
/// and write the span timeline as Chrome trace-event JSON.
fn run_timeline(out_path: &str) {
    let chip = ChipSpec::graviton2();
    let engine = AutoGemm::new(chip).with_tracing(4096);
    for (m, n, k) in [(64, 64, 64), (256, 256, 256), (64, 3136, 64)] {
        let a = data(m * k, 0x5eed);
        let b = data(k * n, 0x9e37);
        let mut c = vec![0.0f32; m * n];
        for _ in 0..3 {
            engine
                .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(THREADS))
                .unwrap_or_else(|e| panic!("{m}x{n}x{k}: {e}"));
        }
    }
    let trace = engine.trace_export().expect("engine was built with_tracing");
    let parsed = Json::parse(&trace).expect("timeline must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("timeline must carry a traceEvents array");
    // The acceptance contract: phase spans (pack/kernel) on at least two
    // distinct tracks — the caller slot plus at least one pool worker.
    let mut phase_tracks: Vec<u64> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("phase"))
        .filter_map(|e| e.get("tid").and_then(Json::as_u64))
        .collect();
    let phase_spans = phase_tracks.len();
    phase_tracks.sort_unstable();
    phase_tracks.dedup();
    assert!(
        phase_tracks.len() >= 2,
        "timeline must show phase spans on >= 2 tracks, got {phase_tracks:?}"
    );
    assert!(
        events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
        "timeline must carry thread_name metadata events"
    );
    std::fs::write(out_path, &trace).expect("write timeline artifact");
    println!(
        "wrote {out_path}: {} events, {phase_spans} phase spans across {} tracks",
        events.len(),
        phase_tracks.len()
    );
}

/// `--smoke` gate: a registry that is switched off must not slow down
/// `try_gemm_opts` — the disabled path is one relaxed atomic load per call.
fn gate_metrics_overhead() {
    let chip = ChipSpec::graviton2();
    let on = AutoGemm::new(chip.clone());
    let off = AutoGemm::new(chip);
    off.set_metrics_enabled(false);
    let (m, n, k) = (96, 96, 96);
    let a = data(m * k, 0x5eed);
    let b = data(k * n, 0x9e37);
    let mut c = vec![0.0f32; m * n];
    let t_on = median_secs(|| {
        on.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new()).expect("gemm");
        std::hint::black_box(&c);
    });
    let t_off = median_secs(|| {
        off.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new()).expect("gemm");
        std::hint::black_box(&c);
    });
    let ratio = t_on / t_off;
    println!(
        "metrics overhead gate: enabled {:.3}ms, disabled {:.3}ms, ratio {ratio:.3}",
        t_on * 1e3,
        t_off * 1e3
    );
    // Both directions: the registry must be noise either way (generous
    // bound — shared-CI hosts jitter).
    assert!(
        ratio < 1.35 && ratio > 1.0 / 1.35,
        "metrics on/off ratio {ratio:.3} outside noise bound"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let timeline = args.iter().any(|a| a == "--timeline");
    let out_path = args.iter().find(|a| !a.starts_with("--")).cloned();
    if timeline {
        run_timeline(out_path.as_deref().unwrap_or("BENCH_timeline.json"));
        return;
    }
    let out_path = match (smoke, out_path) {
        (_, Some(p)) => Some(p),
        (true, None) => None,
        (false, None) => Some("BENCH_gemmtrace.json".to_string()),
    };
    let reps = if smoke { 1 } else { 5 };
    let chip = ChipSpec::graviton2();
    let mut table = ProjectionTable::new(&chip, ModelOpts::default());
    println!("gemmtrace: schema v{SCHEMA_VERSION}");

    let mut sweep = autogemm_workloads::gemmtrace_sweep();
    if smoke {
        sweep.retain(|(name, ..)| name.starts_with("cube"));
    }

    let host = autogemm::host_parallelism();
    let threads = THREADS.min(host);
    let engine = AutoGemm::new(chip.clone());
    let mut entries: Vec<(String, GemmReport)> = Vec::new();
    for (name, m, n, k) in sweep {
        let a = data(m * k, 0x5eed);
        let b = data(k * n, 0x9e37);
        let mut c = vec![0.0f32; m * n];
        // Warm the pool (and caches) once, then keep the best-wall rep:
        // steady-state behaviour, not first-touch page faults.
        let run = |c: &mut Vec<f32>| {
            engine
                .try_gemm_traced_opts(m, n, k, &a, &b, c, &GemmOptions::new().threads(threads))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        run(&mut c);
        let mut best: Option<GemmReport> = None;
        for _ in 0..reps {
            let r = run(&mut c);
            if best.as_ref().is_none_or(|b| r.wall.wall_ns < b.wall.wall_ns) {
                best = Some(r);
            }
        }
        let mut report = best.expect("reps >= 1");
        report.join_model(&mut table);
        entries.push((name, report));
    }

    // Every emitted report must survive the schema-version guard — the
    // smoke contract CI relies on.
    for (name, report) in &entries {
        let back = GemmReport::from_json(&report.to_json())
            .unwrap_or_else(|e| panic!("{name}: emitted report failed validation: {e}"));
        assert_eq!(&back, report, "{name}: JSON round trip lost data");
    }
    println!("validated {} reports against schema v{SCHEMA_VERSION}", entries.len());

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|(name, r)| {
            let busy: Vec<f64> =
                r.thread_profiles.iter().map(|p| p.busy_fraction(r.phases.kernel)).collect();
            let (lo, hi) =
                busy.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &f| (lo.min(f), hi.max(f)));
            let mj = r.model.as_ref().expect("joined above");
            let d = &r.dispatch;
            let packed = match (d.packed_a, d.packed_b) {
                (true, true) => "AB",
                (true, false) => "A",
                (false, true) => "B",
                (false, false) => "-",
            };
            vec![
                name.clone(),
                format!("{}x{}x{}", r.m, r.n, r.k),
                format!("{:.3}", r.wall.wall_ns as f64 / 1e6),
                format!("{:.2}", r.gflops()),
                pct(r.phases.pack_a.wall_ns, r.wall.wall_ns),
                pct(r.phases.pack_b.wall_ns, r.wall.wall_ns),
                pct(r.phases.kernel.wall_ns, r.wall.wall_ns),
                pct(r.phases.drain.wall_ns, r.phases.kernel.wall_ns),
                if busy.is_empty() { "-".into() } else { format!("{lo:.2}/{hi:.2}") },
                format!("{}", r.total_tiles()),
                format!("{:.3}", mj.cycle_ratio),
                format!("{}{}", d.route, if d.plan_cache_hit { "*" } else { "" }),
                packed.to_string(),
                format!("{}/{}", r.pool.submissions, r.pool.wake_count),
            ]
        })
        .collect();
    print_table(
        &format!(
            "gemmtrace: per-GEMM phase profile (threads = {threads}, host parallelism {host}, \
             best of reps; route * = plan-cache hit)"
        ),
        &[
            "shape",
            "MxNxK",
            "wall ms",
            "GFLOPS",
            "packA",
            "packB",
            "kernel",
            "drain",
            "busy lo/hi",
            "tiles",
            "cyc ratio",
            "route",
            "packed",
            "pool sub/wake",
        ],
        &rows,
    );

    // Engine-lifetime metrics accumulated over the whole sweep — the
    // registry view the `metrics` section snapshots.
    let m = engine.metrics();
    println!(
        "engine metrics: {} calls, latency p50 {:.3}ms p99 {:.3}ms, \
         plan cache {} hit / {} miss, breaker transitions {}",
        m.counter(autogemm::telemetry::Counter::Calls),
        m.call_latency_ns.p50() as f64 / 1e6,
        m.call_latency_ns.p99() as f64 / 1e6,
        m.counter(autogemm::telemetry::Counter::PlanCacheHits),
        m.counter(autogemm::telemetry::Counter::PlanCacheMisses),
        m.counter(autogemm::telemetry::Counter::BreakerTransitions),
    );

    if smoke {
        gate_metrics_overhead();
    }

    let Some(out_path) = out_path else {
        println!("smoke mode: no artifact written");
        return;
    };
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"gemmtrace\",");
    let _ =
        writeln!(json, "  \"command\": \"cargo run --release -p autogemm-bench --bin gemmtrace\",");
    let _ = writeln!(json, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"model_chip\": \"{}\",", chip.id);
    let _ = writeln!(json, "  \"entries\": [");
    for (i, (name, report)) in entries.iter().enumerate() {
        let entry = Json::Obj(vec![
            ("name".into(), Json::Str(name.clone())),
            ("report".into(), report.to_json_value()),
        ]);
        let _ = write!(json, "    {entry}");
        let _ = writeln!(json, "{}", if i + 1 < entries.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    Json::parse(&json).expect("artifact must be valid JSON");
    std::fs::write(&out_path, json).expect("write artifact");
    println!("wrote {out_path}");
}
