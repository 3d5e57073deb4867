//! Emit `BENCH_pool.json`: per-call threaded dispatch overhead of the
//! persistent worker pool vs the scoped-spawn baseline it replaced
//! (ISSUE 7).
//!
//! For each Table V small shape the binary streams repeated calls on the
//! same plan three ways — single-threaded inline (the compute floor),
//! pooled submission (the shipped threaded path) and per-call scoped
//! spawn (the historical path, reachable only through the hidden bench
//! baseline) — and records p50/p99 latencies. The *dispatch overhead* of
//! a threaded variant is its p50 minus the inline p50: what the call
//! pays to get onto worker threads at all. On shapes this small that
//! cost is the whole story, which is exactly why the pool exists.
//!
//! Run with
//!
//! ```text
//! cargo run --release -p autogemm-bench --bin pool_overhead [OUT.json]
//! ```
//!
//! from the workspace root (default output: `BENCH_pool.json`).
//!
//! `--smoke` instead runs the fast CI guard: pooled and scoped execution
//! must be bit-identical, the pooled p50 must not be slower than the
//! scoped p50 beyond noise tolerance, and the pool must end the stream
//! with zero leaked workers (`alive_workers == workers`) and zero new OS
//! threads per call.

use autogemm::native::try_gemm_with_plan_supervised;
use autogemm::supervisor::Supervision;
use autogemm::{AutoGemm, GemmOptions, PanelPool, Runtime};
use autogemm_arch::ChipSpec;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Calls per streamed variant: enough for a stable p99 on µs-scale work.
const STREAM: usize = 300;
const WARMUP: usize = 20;

/// Table V-class small shapes: the pack/dispatch-dominated calls DNN
/// inference actually serves, where per-call spawn cost is ruinous.
const SHAPES: [(&str, usize, usize, usize); 4] = [
    ("L16c_n49", 128, 49, 256),
    ("L20c_n49", 64, 49, 64),
    ("fig8_irr", 31, 44, 29),
    ("L2_small", 64, 196, 64),
];

fn data(m: usize, n: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
    let a = (0..m * k).map(|i| (i % 17) as f32 - 8.0).collect();
    let b = (0..k * n).map(|i| (i % 13) as f32 - 6.0).collect();
    (a, b)
}

struct Percentiles {
    p50: f64,
    p99: f64,
}

/// Stream `f` and return per-call latency percentiles in seconds.
fn stream(mut f: impl FnMut()) -> Percentiles {
    for _ in 0..WARMUP {
        f();
    }
    let mut samples: Vec<f64> = (0..STREAM)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    Percentiles { p50: samples[samples.len() / 2], p99: samples[(samples.len() * 99) / 100] }
}

struct Entry {
    label: &'static str,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    inline_p: Percentiles,
    pooled_p: Percentiles,
    scoped_p: Percentiles,
    overhead_pooled_s: f64,
    overhead_scoped_s: f64,
    overhead_ratio: f64,
}

/// Measure one shape: inline floor, pooled stream, scoped stream — all
/// on the same multicore plan, bit-identity checked.
fn measure(
    engine: &AutoGemm,
    rt: &Runtime,
    label: &'static str,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> Entry {
    let plan = engine.plan_multicore(m, n, k, threads);
    let (a, b) = data(m, n, k);
    let pool = PanelPool::new();
    let pooled_sup = Supervision::none().with_runtime(engine.runtime().clone());
    let scoped_sup = Supervision::none().with_spawn_baseline();

    // Bit-identity rides along with every bench run.
    let mut c_pooled = vec![0.0f32; m * n];
    let mut c_scoped = vec![0.0f32; m * n];
    try_gemm_with_plan_supervised(&plan, &a, &b, &mut c_pooled, threads, &pool, &pooled_sup, None)
        .expect("pooled bench call failed");
    try_gemm_with_plan_supervised(&plan, &a, &b, &mut c_scoped, threads, &pool, &scoped_sup, None)
        .expect("scoped bench call failed");
    assert_eq!(c_pooled, c_scoped, "{label}: pooled diverged from scoped baseline");

    let mut c = vec![0.0f32; m * n];
    let inline_p = stream(|| {
        try_gemm_with_plan_supervised(
            black_box(&plan),
            &a,
            &b,
            &mut c,
            1,
            &pool,
            &Supervision::none(),
            None,
        )
        .expect("inline bench call failed");
    });
    let pooled_p = stream(|| {
        try_gemm_with_plan_supervised(
            black_box(&plan),
            &a,
            &b,
            &mut c,
            threads,
            &pool,
            &pooled_sup,
            None,
        )
        .expect("pooled bench call failed");
    });
    let scoped_p = stream(|| {
        try_gemm_with_plan_supervised(
            black_box(&plan),
            &a,
            &b,
            &mut c,
            threads,
            &pool,
            &scoped_sup,
            None,
        )
        .expect("scoped bench call failed");
    });

    // Dispatch overhead: what the threaded call pays over the inline
    // compute floor. Floored at 100 ns so a lucky pooled median can
    // never divide by ~zero and overstate the ratio.
    let overhead_pooled_s = (pooled_p.p50 - inline_p.p50).max(100e-9);
    let overhead_scoped_s = (scoped_p.p50 - inline_p.p50).max(100e-9);
    let overhead_ratio = overhead_scoped_s / overhead_pooled_s;
    println!(
        "{label:>9} {m:>4}x{n:>4}x{k:>4} t{threads}: inline p50 {:>8.1} µs  pooled p50/p99 \
         {:>8.1}/{:>8.1} µs  scoped p50/p99 {:>8.1}/{:>8.1} µs  overhead {:>7.1} vs {:>7.1} µs \
         ({overhead_ratio:.1}x)",
        inline_p.p50 * 1e6,
        pooled_p.p50 * 1e6,
        pooled_p.p99 * 1e6,
        scoped_p.p50 * 1e6,
        scoped_p.p99 * 1e6,
        overhead_pooled_s * 1e6,
        overhead_scoped_s * 1e6,
    );
    assert_eq!(
        rt.alive_workers(),
        rt.stats().workers as usize,
        "{label}: pool lost or leaked a worker mid-stream"
    );
    Entry {
        label,
        m,
        n,
        k,
        threads,
        inline_p,
        pooled_p,
        scoped_p,
        overhead_pooled_s,
        overhead_scoped_s,
        overhead_ratio,
    }
}

/// This process's OS thread ids, read from `/proc/self/task` (Linux CI
/// hosts); `None` where /proc is absent, which disables the check.
fn os_thread_ids() -> Option<BTreeSet<u64>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse().ok()).collect())
}

/// Fast CI guard: pooled dispatch must be bit-identical to scoped, not
/// slower beyond noise, spawn no OS threads per call and leak no
/// workers. Gates are generous — these are µs-scale medians on shared
/// hosts — while the tracked JSON records the real (≥3x) margin.
fn smoke() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let rt = engine.runtime().clone();
    let threads = 2.min(rt.capacity());
    let (label, m, n, k) = SHAPES[1];
    let e = measure(&engine, &rt, label, m, n, k, threads);

    assert!(
        e.pooled_p.p50 < e.scoped_p.p50 * 1.15,
        "{label}: pooled p50 {:.1} µs slower than scoped {:.1} µs beyond noise",
        e.pooled_p.p50 * 1e6,
        e.scoped_p.p50 * 1e6,
    );

    // Zero per-call OS thread creation: no thread alive after a
    // warmed-up stream may be missing from the set alive before it.
    // Comparing ids rather than counts tolerates a thread from an
    // earlier phase (the scoped baseline) leaving `/proc` during the
    // stream, and still catches a thread created while another exits.
    let (a, b) = data(m, n, k);
    let mut c = vec![0.0f32; m * n];
    engine
        .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
        .expect("smoke call failed");
    let threads_before = os_thread_ids();
    let submissions_before = rt.stats().submissions;
    for _ in 0..64 {
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .expect("smoke call failed");
    }
    let stats = rt.stats();
    assert!(stats.submissions > submissions_before, "stream bypassed the pool");
    assert_eq!(rt.alive_workers(), stats.workers as usize, "pool leaked a worker");
    if let (Some(before), Some(after)) = (threads_before, os_thread_ids()) {
        let created: Vec<&u64> = after.difference(&before).collect();
        assert!(created.is_empty(), "threaded calls created OS threads {created:?}");
    }
    println!(
        "pool_overhead smoke passed: pooled/scoped p50 ratio {:.3}, overhead ratio {:.1}x, \
         {} workers alive.",
        e.pooled_p.p50 / e.scoped_p.p50,
        e.overhead_ratio,
        stats.alive_workers,
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    if first.as_deref() == Some("--smoke") {
        smoke();
        return;
    }
    let out_path = first.unwrap_or_else(|| "BENCH_pool.json".to_string());
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let rt = engine.runtime().clone();
    let threads = 2.min(rt.capacity());

    let entries: Vec<Entry> = SHAPES
        .iter()
        .map(|&(label, m, n, k)| measure(&engine, &rt, label, m, n, k, threads))
        .collect();

    let stats = rt.stats();
    let avg_wake_ns = stats.wake_ns_total.checked_div(stats.wake_count).unwrap_or(0);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"pool_overhead\",");
    let _ = writeln!(
        json,
        "  \"command\": \"cargo run --release -p autogemm-bench --bin pool_overhead\","
    );
    let _ = writeln!(json, "  \"stream_calls\": {STREAM},");
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    );
    let _ = writeln!(json, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \"threads\": {}, \
             \"inline_p50_s\": {:.9}, \"inline_p99_s\": {:.9}, \
             \"pooled_p50_s\": {:.9}, \"pooled_p99_s\": {:.9}, \
             \"scoped_p50_s\": {:.9}, \"scoped_p99_s\": {:.9}, \
             \"dispatch_overhead_pooled_s\": {:.9}, \"dispatch_overhead_scoped_s\": {:.9}, \
             \"overhead_ratio\": {:.4}}}",
            e.label,
            e.m,
            e.n,
            e.k,
            e.threads,
            e.inline_p.p50,
            e.inline_p.p99,
            e.pooled_p.p50,
            e.pooled_p.p99,
            e.scoped_p.p50,
            e.scoped_p.p99,
            e.overhead_pooled_s,
            e.overhead_scoped_s,
            e.overhead_ratio,
        );
        let _ = writeln!(json, "{}", if i + 1 < entries.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"pool\": {{");
    let _ = writeln!(
        json,
        "    \"workers\": {}, \"alive_workers\": {}, \"submissions\": {},",
        stats.workers, stats.alive_workers, stats.submissions
    );
    let _ = writeln!(
        json,
        "    \"wake_count\": {}, \"avg_wake_ns\": {avg_wake_ns}, \"threads_clamped\": {}",
        stats.wake_count, stats.threads_clamped
    );
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_pool.json");
    println!("wrote {out_path}");
}
