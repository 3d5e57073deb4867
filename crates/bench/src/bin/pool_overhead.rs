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
//! threads per call. On a host with at least two hardware threads it
//! also gates the hot handoff: the pooled p50 of L20c_n49 at two threads
//! may not exceed [`MAX_POOLED_OVER_INLINE`] × the inline p50.
//!
//! A thread count above the host's parallelism measures the scheduler,
//! not the pool: its threads time-share cores. Such rows are not
//! measured; the artifact lists them under `skipped`.

use autogemm::native::try_gemm_with_plan_supervised;
use autogemm::supervisor::Supervision;
use autogemm::{host_parallelism, AutoGemm, GemmOptions, PanelPool, Runtime};
use autogemm_arch::ChipSpec;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Threads per pooled call: the caller plus one worker.
const THREADS: usize = 2;

/// Smoke gate: pooled p50 over inline p50 of L20c_n49 at [`THREADS`].
/// A section handed to a spinning worker costs about what running it
/// inline does (1.01–1.08× on a 2-vCPU Xeon); a pool that parks at once
/// and pays a futex wake per section measured 1.72–1.82×.
const MAX_POOLED_OVER_INLINE: f64 = 1.5;

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

/// Calls per variant between switches in [`stream_interleaved`].
const BLOCK: usize = 30;

/// Stream every variant `STREAM` times, in alternating blocks of
/// [`BLOCK`] calls, and return each one's per-call latency percentiles in
/// seconds. On a shared host the speed of both vCPUs drifts over a run
/// (the inline p50 of L20c_n49 ranged 12–18 µs between runs), so
/// variants streamed one after another would be compared across
/// different host states; alternating blocks expose them to the same
/// drift.
fn stream_interleaved<const N: usize>(variants: &mut [&mut dyn FnMut(); N]) -> [Percentiles; N] {
    for f in variants.iter_mut() {
        for _ in 0..WARMUP {
            f();
        }
    }
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(STREAM));
    for _ in 0..STREAM / BLOCK {
        for (f, out) in variants.iter_mut().zip(samples.iter_mut()) {
            for _ in 0..BLOCK {
                let t0 = Instant::now();
                f();
                out.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    samples.map(|mut s| {
        s.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
        Percentiles { p50: s[s.len() / 2], p99: s[(s.len() * 99) / 100] }
    })
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
    /// Scoped over pooled overhead; `None` when the pooled overhead is
    /// below the 100 ns floor, where the ratio would only read the floor.
    overhead_ratio: Option<f64>,
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
    try_gemm_with_plan_supervised(&plan, &a, &b, &mut c_pooled, threads, &pool, &pooled_sup, false)
        .expect("pooled bench call failed");
    try_gemm_with_plan_supervised(&plan, &a, &b, &mut c_scoped, threads, &pool, &scoped_sup, false)
        .expect("scoped bench call failed");
    assert_eq!(c_pooled, c_scoped, "{label}: pooled diverged from scoped baseline");

    let run = |sup: &Supervision, threads: usize, c: &mut [f32]| {
        try_gemm_with_plan_supervised(black_box(&plan), &a, &b, c, threads, &pool, sup, false)
            .expect("bench call failed");
    };
    let inline_sup = Supervision::none();
    let mut c_inline = c_pooled.clone();
    let [inline_p, pooled_p, scoped_p] = stream_interleaved(&mut [
        &mut || run(&inline_sup, 1, &mut c_inline),
        &mut || run(&pooled_sup, threads, &mut c_pooled),
        &mut || run(&scoped_sup, threads, &mut c_scoped),
    ]);

    // Dispatch overhead: what the threaded call pays over the inline
    // compute floor, floored at 100 ns. A pooled overhead at the floor
    // (a pooled median at or below the inline one) gives no ratio.
    let overhead_pooled_s = (pooled_p.p50 - inline_p.p50).max(100e-9);
    let overhead_scoped_s = (scoped_p.p50 - inline_p.p50).max(100e-9);
    let overhead_ratio =
        (overhead_pooled_s > 100e-9).then(|| overhead_scoped_s / overhead_pooled_s);
    println!(
        "{label:>9} {m:>4}x{n:>4}x{k:>4} t{threads}: inline p50 {:>8.1} µs  pooled p50/p99 \
         {:>8.1}/{:>8.1} µs  scoped p50/p99 {:>8.1}/{:>8.1} µs  overhead {:>7.1} vs {:>7.1} µs \
         ({})",
        inline_p.p50 * 1e6,
        pooled_p.p50 * 1e6,
        pooled_p.p99 * 1e6,
        scoped_p.p50 * 1e6,
        scoped_p.p99 * 1e6,
        overhead_pooled_s * 1e6,
        overhead_scoped_s * 1e6,
        ratio_text(overhead_ratio),
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

fn ratio_text(ratio: Option<f64>) -> String {
    ratio.map_or_else(|| "ratio n/a: pooled overhead under 100 ns".into(), |r| format!("{r:.1}x"))
}

/// This process's OS thread ids, read from `/proc/self/task` (Linux CI
/// hosts); `None` where /proc is absent, which disables the check.
fn os_thread_ids() -> Option<BTreeSet<u64>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse().ok()).collect())
}

/// Fast CI guard: pooled dispatch must be bit-identical to scoped, not
/// slower beyond noise, within [`MAX_POOLED_OVER_INLINE`] of inline
/// where the host has the threads, spawn no OS threads per call and
/// leak no workers. Gates are generous — these are µs-scale medians on shared
/// hosts — while the tracked JSON records the real (≥3x) margin.
fn smoke() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let rt = engine.runtime().clone();
    let threads = THREADS;
    let (label, m, n, k) = SHAPES[1];
    let e = measure(&engine, &rt, label, m, n, k, threads);

    assert!(
        e.pooled_p.p50 < e.scoped_p.p50 * 1.15,
        "{label}: pooled p50 {:.1} µs slower than scoped {:.1} µs beyond noise",
        e.pooled_p.p50 * 1e6,
        e.scoped_p.p50 * 1e6,
    );
    let pooled_over_inline = e.pooled_p.p50 / e.inline_p.p50;
    if threads <= host_parallelism() {
        assert!(
            pooled_over_inline <= MAX_POOLED_OVER_INLINE,
            "{label} t{threads}: pooled p50 {:.1} µs is {pooled_over_inline:.2}x the inline \
             p50 {:.1} µs (gate {MAX_POOLED_OVER_INLINE}x)",
            e.pooled_p.p50 * 1e6,
            e.inline_p.p50 * 1e6,
        );
    } else {
        println!(
            "pooled/inline gate skipped: {threads} threads exceed host parallelism {}",
            host_parallelism()
        );
    }

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
        "pool_overhead smoke passed: pooled/scoped p50 ratio {:.3}, pooled/inline p50 ratio \
         {pooled_over_inline:.3}, overhead {}, {} workers alive.",
        e.pooled_p.p50 / e.scoped_p.p50,
        ratio_text(e.overhead_ratio),
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
    let host = host_parallelism();
    let measurable = THREADS <= host;
    if !measurable {
        println!("skipping every row: {THREADS} threads exceed host parallelism {host}");
    }
    let entries: Vec<Entry> = SHAPES
        .iter()
        .filter(|_| measurable)
        .map(|&(label, m, n, k)| measure(&engine, &rt, label, m, n, k, THREADS))
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
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"spin_budget_us\": {},", rt.spin_budget().as_micros());
    let _ = write!(json, "  \"skipped\": [");
    if !measurable {
        for (i, &(label, m, n, k)) in SHAPES.iter().enumerate() {
            let _ = write!(
                json,
                "{}\n    {{\"label\": \"{label}\", \"m\": {m}, \"n\": {n}, \"k\": {k}, \
                 \"threads\": {THREADS}, \"reason\": \"threads exceed host_parallelism\"}}",
                if i == 0 { "" } else { "," }
            );
        }
        json.push_str("\n  ");
    }
    let _ = writeln!(json, "],");
    let _ = writeln!(json, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \"threads\": {}, \
             \"inline_p50_s\": {:.9}, \"inline_p99_s\": {:.9}, \
             \"pooled_p50_s\": {:.9}, \"pooled_p99_s\": {:.9}, \
             \"scoped_p50_s\": {:.9}, \"scoped_p99_s\": {:.9}, \
             \"dispatch_overhead_pooled_s\": {:.9}, \"dispatch_overhead_scoped_s\": {:.9}, \
             \"overhead_ratio\": {}}}",
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
            e.overhead_ratio.map_or_else(|| "null".into(), |r| format!("{r:.4}")),
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
        "    \"wake_count\": {}, \"hot_claims\": {}, \"woken_claims\": {}, \
         \"avg_wake_ns\": {avg_wake_ns},",
        stats.wake_count, stats.hot_claims, stats.woken_claims
    );
    let _ = writeln!(
        json,
        "    \"spin_ns_total\": {}, \"park_ns_total\": {}, \"threads_clamped\": {}",
        stats.spin_ns_total, stats.park_ns_total, stats.threads_clamped
    );
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_pool.json");
    println!("wrote {out_path}");
}
