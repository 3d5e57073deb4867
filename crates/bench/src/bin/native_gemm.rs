//! Emit `BENCH_native_gemm.json`: the tracked wall-clock trajectory of
//! the native block driver on this host.
//!
//! For each (shape × threads) point the binary times the panel-cache
//! driver (operands packed once per GEMM, atomic block queue, pooled
//! buffers) and the historical per-block repacking path on the same
//! execution plan, and records medians, GFLOPS and the speedup. A
//! `small_irregular` section times the engine's input-aware dispatch
//! (GEMV/small-k fast paths, packing elision, plan cache) against the
//! always-packed panel-cache driver on pack-dominated shapes — Table V
//! ResNet layers, `m = 1` / `n = 1` GEMV calls and tiny-k shapes — and a
//! `plan_cache` section demonstrates that a repeated shape skips the
//! tuner, and a `verify_overhead` section prices
//! `VerifyPolicy::Sample { rate: 16 }` and `VerifyPolicy::Always` against
//! unverified calls on the Table V shapes. Run with
//!
//! ```text
//! cargo run --release -p autogemm-bench --bin native_gemm [OUT.json]
//! ```
//!
//! from the workspace root (default output: `BENCH_native_gemm.json`).
//! A point whose thread count exceeds the host's parallelism would time
//! threads sharing cores, so it is not measured and is listed under
//! `skipped` instead.
//!
//! `--smoke` instead runs the fast CI guard: it asserts the fallible
//! (`try_*`) driver is bit-identical to and not measurably slower than
//! the classic path, that a far-future deadline adds no measurable
//! overhead over the same call without one (the passive-monitor fast
//! path), that the
//! input-aware dispatch is bit-identical to and never slower (beyond
//! noise) than the panel-cache path on Table V ResNet shapes, that
//! `Sample { rate: 16 }` verification prices near its 2% design target
//! on the same shapes, that a repeated shape deterministically hits the
//! plan cache, and loosely cross-checks the panel-cache timings against
//! the tracked `BENCH_native_gemm.json` trajectory.
//!
//! `--soak [ITERS]` runs a
//! randomized supervision soak: thousands of watchdog-supervised calls
//! under seeded fault plans, asserting every call is structured-error-or
//! -correct, the panel pool never leaks, and the circuit breaker is
//! never stuck Open once faults stop.

use autogemm::native::{gemm_with_plan, gemm_with_plan_repack, try_gemm_with_plan_pooled};
use autogemm::{host_parallelism, AutoGemm, GemmOptions, PanelPool};
use autogemm_arch::ChipSpec;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

const REPS: usize = 15;
const WARMUP: usize = 3;

fn data(m: usize, n: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
    let a = (0..m * k).map(|i| (i % 17) as f32 - 8.0).collect();
    let b = (0..k * n).map(|i| (i % 13) as f32 - 6.0).collect();
    (a, b)
}

fn median_secs(mut f: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        f();
    }
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

struct Entry {
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    repack_s: f64,
    cached_s: f64,
}

/// Verification-overhead measurement: the Table V shapes with
/// verification off, under `Sample { rate: 16 }` and under `Always`, on
/// the same engine. A median over [`REPS`] sampled calls almost never
/// contains a verified call (one in 16 is), so `sampled_s` prices the
/// sequence-counter branch most sampled calls pay, not the amortized
/// cost of the checks. `always_s` prices one check on every call; the
/// amortized sampled cost lies near `off_s + (always_s - off_s) / 16`.
struct VerifyOverhead {
    label: &'static str,
    m: usize,
    n: usize,
    k: usize,
    off_s: f64,
    sampled_s: f64,
    always_s: f64,
}

fn verify_overhead(engine: &AutoGemm) -> Vec<VerifyOverhead> {
    use autogemm::supervisor::GemmOptions;
    use autogemm::VerifyPolicy;
    let shapes =
        [("L2", 64usize, 3136usize, 64usize), ("L16c", 128, 49, 256), ("gemv", 1, 3136, 64)];
    let plain = GemmOptions::new();
    let sampled = GemmOptions::new().verify(VerifyPolicy::Sample { rate: 16 });
    let always = GemmOptions::new().verify(VerifyPolicy::Always);
    shapes
        .iter()
        .map(|&(label, m, n, k)| {
            let (a, b) = data(m, n, k);
            let mut c_off = vec![0.0f32; m * n];
            let off_s = median_secs(|| {
                engine
                    .try_gemm_opts(m, n, k, black_box(&a), &b, &mut c_off, &plain)
                    .expect("unverified call failed")
            });
            let mut c_v = vec![0.0f32; m * n];
            let sampled_s = median_secs(|| {
                engine
                    .try_gemm_opts(m, n, k, black_box(&a), &b, &mut c_v, &sampled)
                    .expect("sampled verified call failed")
            });
            assert_eq!(c_v, c_off, "{label}: verification must not perturb the output");
            let always_s = median_secs(|| {
                engine
                    .try_gemm_opts(m, n, k, black_box(&a), &b, &mut c_v, &always)
                    .expect("verified call failed")
            });
            assert_eq!(c_v, c_off, "{label}: verification must not perturb the output");
            VerifyOverhead { label, m, n, k, off_s, sampled_s, always_s }
        })
        .collect()
}

/// Fast CI guard for the fallible API: the pooled `try_*` driver entry
/// must stay bit-identical to the classic panicking `gemm_with_plan`
/// (which packs into a transient pool per call) and never be measurably
/// slower than it.
fn smoke() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let points = [(64usize, 196usize, 64usize, 1usize), (128, 128, 128, 4)];
    for (m, n, k, threads) in points {
        let plan = if threads > 1 {
            engine.plan_multicore(m, n, k, threads)
        } else {
            engine.plan(m, n, k)
        };
        let (a, b) = data(m, n, k);
        let pool = PanelPool::new();

        let mut c_plain = vec![0.0f32; m * n];
        let plain_s =
            median_secs(|| gemm_with_plan(black_box(&plan), &a, &b, &mut c_plain, threads));
        let mut c_try = vec![0.0f32; m * n];
        let try_s = median_secs(|| {
            try_gemm_with_plan_pooled(black_box(&plan), &a, &b, &mut c_try, threads, &pool)
                .expect("smoke gemm failed")
        });
        assert_eq!(c_try, c_plain, "{m}x{n}x{k} t{threads}: try path diverged");
        let ratio = try_s / plain_s;
        println!(
            "{m:>4}x{n:>4}x{k:>4} t{threads}: plain {:>9.1} µs  try {:>9.1} µs  ratio {ratio:.3}",
            plain_s * 1e6,
            try_s * 1e6,
        );
        // Generous bound: medians over {REPS} reps keep noise down, and
        // the plumbing itself is branch-on-Err only.
        assert!(
            ratio < 1.35,
            "{m}x{n}x{k} t{threads}: fallible path {ratio:.3}x slower than classic"
        );
    }

    // Supervised path with a deadline nobody will hit: the run monitor
    // must stay passive-priced (one branch per block, no clock reads).
    // Design target is <=2% overhead; the hard gate is generous because
    // these are microsecond-scale medians on a shared host.
    {
        let (m, n, k, threads) = (128usize, 128usize, 128usize, 4usize);
        let (a, b) = data(m, n, k);
        let mut c_plain = vec![0.0f32; m * n];
        let plain_s = median_secs(|| {
            engine
                .try_gemm_opts(
                    m,
                    n,
                    k,
                    black_box(&a),
                    &b,
                    &mut c_plain,
                    &GemmOptions::new().threads(threads),
                )
                .expect("smoke gemm failed")
        });
        let mut c_dl = vec![0.0f32; m * n];
        let dl_s = median_secs(|| {
            engine
                .try_gemm_opts(
                    m,
                    n,
                    k,
                    black_box(&a),
                    &b,
                    &mut c_dl,
                    &GemmOptions::new().threads(threads).deadline(Duration::from_secs(3600)),
                )
                .expect("smoke deadline gemm failed")
        });
        assert_eq!(c_dl, c_plain, "deadline path diverged from the deadline-free call");
        let ratio = dl_s / plain_s;
        println!(
            "{m:>4}x{n:>4}x{k:>4} t{threads}: try {:>9.1} µs  deadline {:>9.1} µs  ratio {ratio:.3}",
            plain_s * 1e6,
            dl_s * 1e6,
        );
        if ratio > 1.02 {
            println!("  note: deadline ratio {ratio:.3} above the 2% design target (host noise?)");
        }
        assert!(ratio < 1.35, "far-future deadline {ratio:.3}x slower than the deadline-free call");
    }

    // Input-aware dispatch gate over Table V ResNet shapes: the engine's
    // routed path (packing elision, GEMV/small-k fast paths) must be
    // bit-identical to the always-packed panel-cache driver and never
    // slower beyond noise tolerance. The shapes span the elision classes:
    // L2 long-rectangular (B-pack elided at tm = 1), L16-class n = 49
    // (A-pack elided at tn = 1, scaled to smoke budget) and a GEMV row.
    {
        let table_v =
            [("L2", 64usize, 3136usize, 64usize), ("L16c", 128, 49, 256), ("gemv", 1, 3136, 64)];
        for (label, m, n, k) in table_v {
            let (a, b) = data(m, n, k);
            let plan = engine.plan(m, n, k);
            let pool = PanelPool::new();
            let mut c_panel = vec![0.0f32; m * n];
            let panel_s = median_secs(|| {
                try_gemm_with_plan_pooled(black_box(&plan), &a, &b, &mut c_panel, 1, &pool)
                    .expect("pooled gemm failed")
            });
            let mut c_aware = vec![0.0f32; m * n];
            let aware_s = median_secs(|| {
                engine
                    .try_gemm_opts(m, n, k, black_box(&a), &b, &mut c_aware, &GemmOptions::new())
                    .expect("smoke input-aware gemm failed")
            });
            assert_eq!(c_aware, c_panel, "{label}: input-aware path diverged from panel cache");
            let ratio = aware_s / panel_s;
            println!(
                "{label:>5} {m:>4}x{n:>4}x{k:>4}: panel {:>9.1} µs  input-aware {:>9.1} µs  \
                 ratio {ratio:.3}",
                panel_s * 1e6,
                aware_s * 1e6,
            );
            assert!(
                ratio < 1.25,
                "{label} ({m}x{n}x{k}): input-aware path {ratio:.3}x slower than panel cache"
            );
        }
    }

    // Sampled-verification overhead gate over the same Table V shapes:
    // `Sample { rate: 16 }` must price like the 2% design target, not
    // like recomputing the product. The hard bound stays generous for
    // the same shared-host reasons as the deadline gate above.
    for VerifyOverhead { label, m, n, k, off_s, sampled_s, always_s } in verify_overhead(&engine) {
        let ratio = sampled_s / off_s;
        println!(
            "{label:>5} {m:>4}x{n:>4}x{k:>4}: off {:>9.1} µs  sample-1/16 {:>9.1} µs  \
             ratio {ratio:.3}  (always {:.3}, report only)",
            off_s * 1e6,
            sampled_s * 1e6,
            always_s / off_s,
        );
        if ratio > 1.02 {
            println!("  note: verify ratio {ratio:.3} above the 2% design target (host noise?)");
        }
        assert!(
            ratio < 1.35,
            "{label} ({m}x{n}x{k}): sampled verification {ratio:.3}x slower than unverified"
        );
    }

    // Plan-cache determinism: the second identical call must be a cache
    // hit and reproduce the first call's bits.
    {
        let (m, n, k) = (52usize, 40usize, 48usize);
        let (a, b) = data(m, n, k);
        let fresh = AutoGemm::new(ChipSpec::graviton2());
        let mut c1 = vec![0.0f32; m * n];
        let r1 = fresh
            .try_gemm_traced_opts(m, n, k, &a, &b, &mut c1, &GemmOptions::new().threads(1))
            .expect("traced call failed");
        let mut c2 = vec![0.0f32; m * n];
        let r2 = fresh
            .try_gemm_traced_opts(m, n, k, &a, &b, &mut c2, &GemmOptions::new().threads(1))
            .expect("traced call failed");
        assert!(!r1.dispatch.plan_cache_hit, "first call must tune (cache miss)");
        assert!(r2.dispatch.plan_cache_hit, "second identical call must be a plan-cache hit");
        assert_eq!(c2, c1, "cached plan must reproduce the miss call's bits");
        let stats = fresh.plan_cache_stats();
        println!(
            "plan cache: {m}x{n}x{k} second call hit (engine lifetime: {} hits / {} misses)",
            stats.hits, stats.misses
        );
    }

    // Loose trajectory check against the tracked baseline: catch only
    // catastrophic regressions (order-of-magnitude), not host noise.
    match std::fs::read_to_string("BENCH_native_gemm.json") {
        Err(_) => println!("BENCH_native_gemm.json not found; skipping trajectory check"),
        Ok(text) => {
            let doc = autogemm::telemetry::json::Json::parse(&text)
                .expect("BENCH_native_gemm.json must parse");
            let entries = doc
                .get("entries")
                .and_then(|e| e.as_arr())
                .expect("BENCH_native_gemm.json missing entries");
            for e in entries {
                let get = |key: &str| e.get(key).and_then(|v| v.as_usize()).unwrap_or(0);
                let (m, n, k, threads) = (get("m"), get("n"), get("k"), get("threads"));
                let baseline_s =
                    e.get("panel_cache_s").and_then(|v| v.as_f64()).unwrap_or(f64::INFINITY);
                if m * n * k == 0 || threads == 0 {
                    continue;
                }
                let plan = if threads > 1 {
                    engine.plan_multicore(m, n, k, threads)
                } else {
                    engine.plan(m, n, k)
                };
                let (a, b) = data(m, n, k);
                let pool = PanelPool::new();
                let mut c = vec![0.0f32; m * n];
                let now_s = median_secs(|| {
                    try_gemm_with_plan_pooled(black_box(&plan), &a, &b, &mut c, threads, &pool)
                        .expect("pooled gemm failed")
                });
                println!(
                    "{m:>4}x{n:>5}x{k:>4} t{threads}: now {:>9.1} µs  baseline {:>9.1} µs",
                    now_s * 1e6,
                    baseline_s * 1e6,
                );
                assert!(
                    now_s < baseline_s * 8.0,
                    "{m}x{n}x{k} t{threads}: {now_s}s vs baseline {baseline_s}s — \
                     panel-cache driver regressed past the loose 8x guard"
                );
            }
        }
    }
    println!("native_gemm smoke passed.");
}

/// Randomized supervision soak: watchdog-supervised calls
/// under seeded fault plans. Every call must be structured-error-or-
/// correct, no pool buffer may leak past a call, and once the probes are
/// disarmed a short clean tail must walk the circuit breaker back to
/// all-Closed (no path stuck Open).
fn soak(iters: usize) {
    use autogemm::faultinject::{arm, FaultPlan};
    use autogemm::supervisor::{CancelToken, GemmOptions, WatchdogConfig};
    use autogemm::GemmError;
    use autogemm_baselines::naive::{max_rel_error, naive_gemm};

    // The injected faults panic on purpose (contained by the drivers);
    // keep the soak output readable by silencing exactly those.
    {
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
    }

    let engine = AutoGemm::new(ChipSpec::graviton2());
    // Deterministic LCG so soak failures reproduce from the iteration
    // number alone.
    let mut state: u64 = 0x9e3779b97f4a7c15;
    let mut next = move |bound: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    let watchdog =
        WatchdogConfig { quiescence: Duration::from_millis(500), poll: Duration::from_millis(10) };

    let (mut ok, mut failed, mut cancelled) = (0usize, 0usize, 0usize);
    for i in 0..iters {
        let (m, n, k) = (1 + next(48), 1 + next(48), 1 + next(40));
        let threads = [1, 2, 4, 8][next(4)];
        let (a, b) = data(m, n, k);
        let mut c = vec![0.0f32; m * n];

        let guard = arm(FaultPlan::seeded(next(1000) as u64));
        let mut opts = GemmOptions::new().threads(threads).watchdog(watchdog);
        // A quarter of the calls also carry a far-future deadline; a few
        // carry an already-cancelled token (must stop, never fault).
        match next(8) {
            0 | 1 => opts = opts.deadline(Duration::from_secs(30)),
            2 => {
                let tok = CancelToken::new();
                tok.cancel();
                opts = opts.cancel(tok);
            }
            _ => {}
        }
        match engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts) {
            Ok(()) => {
                let mut want = vec![0.0f32; m * n];
                naive_gemm(m, n, k, &a, &b, &mut want);
                let err = max_rel_error(&c, &want);
                assert!(err < 1e-5, "iter {i} ({m}x{n}x{k} t{threads}): rel err {err}");
                ok += 1;
            }
            Err(GemmError::Cancelled { .. }) => cancelled += 1,
            Err(
                GemmError::WorkerPanicked { .. }
                | GemmError::AllocFailed { .. }
                | GemmError::Stalled { .. },
            ) => failed += 1,
            Err(e) => panic!("iter {i} ({m}x{n}x{k} t{threads}): unexpected error {e:?}"),
        }
        drop(guard);
        assert_eq!(
            engine.panel_pool().outstanding(),
            0,
            "iter {i} ({m}x{n}x{k} t{threads}): pool buffers leaked"
        );
    }

    // Disarmed clean tail: enough calls to serve any Open cooldown and
    // close every half-open probe — the breaker must not be stuck.
    let (m, n, k) = (40usize, 36usize, 24usize);
    let (a, b) = data(m, n, k);
    for _ in 0..16 {
        let mut c = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
            .expect("clean tail call failed");
    }
    let health = engine.health();
    assert!(
        health.all_closed(),
        "breaker stuck after the clean tail: {:?}",
        health.paths.iter().map(|p| (&p.path, &p.state)).collect::<Vec<_>>()
    );

    let high_water = engine.panel_pool().high_water();
    assert_eq!(engine.panel_pool().outstanding(), 0, "pool buffers leaked across the soak");
    assert!(high_water > 0, "soak never exercised the panel pool");
    assert!(high_water < 100_000, "pool high-water {high_water} unbounded");
    println!(
        "native_gemm soak passed: {iters} iters ({ok} ok, {failed} faulted, {cancelled} \
         cancelled), pool high-water {high_water} blocks, breaker all-closed."
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("--smoke") => {
            smoke();
            return;
        }
        Some("--soak") => {
            let iters = args.next().and_then(|s| s.parse().ok()).unwrap_or(2000);
            soak(iters);
            return;
        }
        _ => {}
    }
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_native_gemm.json".to_string());
    let engine = AutoGemm::new(ChipSpec::graviton2());
    // The paper's flagship irregular DNN GEMM (64×3136×64, Table V) at 1
    // and 8 threads, a small Fig 8 shape, an awkward-prime shape, and a
    // mid square.
    let points = [
        (64, 3136, 64, 8),
        (64, 3136, 64, 1),
        (64, 196, 64, 1),
        (31, 44, 29, 1),
        (128, 128, 128, 4),
    ];

    let host = host_parallelism();
    // (label, m, n, k, threads) of the points not measured; only the
    // small-irregular points carry a label.
    let mut skipped: Vec<(Option<&str>, usize, usize, usize, usize)> = Vec::new();
    let mut entries = Vec::new();
    for (m, n, k, threads) in points {
        if threads > host {
            println!("{m:>4}x{n:>5}x{k:>4} t{threads}: skipped, host parallelism {host}");
            skipped.push((None, m, n, k, threads));
            continue;
        }
        let plan = if threads > 1 {
            engine.plan_multicore(m, n, k, threads)
        } else {
            engine.plan(m, n, k)
        };
        let (a, b) = data(m, n, k);
        let mut c = vec![0.0f32; m * n];

        let pool = PanelPool::new();
        let cached_s = median_secs(|| {
            try_gemm_with_plan_pooled(black_box(&plan), &a, &b, &mut c, threads, &pool)
                .expect("pooled gemm failed")
        });
        let repack_s =
            median_secs(|| gemm_with_plan_repack(black_box(&plan), &a, &b, &mut c, threads));

        // Bit-identity check rides along with every bench run.
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        try_gemm_with_plan_pooled(&plan, &a, &b, &mut c1, threads, &pool)
            .expect("pooled gemm failed");
        gemm_with_plan_repack(&plan, &a, &b, &mut c2, threads);
        assert_eq!(c1, c2, "panel cache diverged from seed path on {m}x{n}x{k}");

        let flops = 2.0 * (m * n * k) as f64;
        println!(
            "{m:>4}x{n:>5}x{k:>4} t{threads}: panel_cache {:>9.1} µs ({:>6.2} GFLOPS)  \
             seed_repack {:>9.1} µs  speedup {:.2}x",
            cached_s * 1e6,
            flops / cached_s / 1e9,
            repack_s * 1e6,
            repack_s / cached_s,
        );
        entries.push(Entry { m, n, k, threads, repack_s, cached_s });
    }

    // Small/irregular section: the engine's input-aware dispatch (GEMV
    // and small-k fast paths, packing elision, plan cache) against the
    // always-packed panel-cache driver on the shapes the paper's Table V
    // says DNN inference actually serves. `speedup` is
    // panel_cache_s / input_aware_s.
    let small_points: [(&str, usize, usize, usize, usize); 8] = [
        ("L16c_n49", 128, 49, 256, 1), // Table V L16 class (n = 49, A-pack elided), scaled
        ("L20c_n49", 64, 49, 64, 1),   // Table V L20 class, small
        ("fig8_irr", 31, 44, 29, 1),   // awkward-prime small shape
        ("gemv_row", 1, 3136, 64, 1),  // m = 1 over the L2 panel
        ("gemv_row_t4", 1, 3136, 576, 4),
        ("gemv_col", 3136, 1, 64, 1), // n = 1, tall
        ("small_k", 64, 49, 8, 1),    // k ≤ 8 fast path
        ("small_k2", 31, 44, 6, 1),
    ];
    let mut small_entries = Vec::new();
    for (label, m, n, k, threads) in small_points {
        if threads > host {
            println!("{label:>12} t{threads}: skipped, host parallelism {host}");
            skipped.push((Some(label), m, n, k, threads));
            continue;
        }
        let (a, b) = data(m, n, k);
        let plan = if threads > 1 {
            engine.plan_multicore(m, n, k, threads)
        } else {
            engine.plan(m, n, k)
        };
        let pool = PanelPool::new();
        let mut c_panel = vec![0.0f32; m * n];
        let panel_s = median_secs(|| {
            try_gemm_with_plan_pooled(black_box(&plan), &a, &b, &mut c_panel, threads, &pool)
                .expect("pooled gemm failed")
        });
        let mut c_aware = vec![0.0f32; m * n];
        let aware_s = median_secs(|| {
            engine
                .try_gemm_opts(
                    m,
                    n,
                    k,
                    black_box(&a),
                    &b,
                    &mut c_aware,
                    &GemmOptions::new().threads(threads),
                )
                .expect("input-aware bench call failed")
        });
        assert_eq!(c_aware, c_panel, "{label}: input-aware path diverged from panel cache");
        let mut c_r = vec![0.0f32; m * n];
        let report = engine
            .try_gemm_traced_opts(m, n, k, &a, &b, &mut c_r, &GemmOptions::new().threads(threads))
            .expect("traced bench call failed");
        let flops = 2.0 * (m * n * k) as f64;
        println!(
            "{label:>12} {m:>4}x{n:>5}x{k:>4} t{threads} [{}]: panel_cache {:>9.1} µs  \
             input_aware {:>9.1} µs ({:>6.2} GFLOPS)  speedup {:.2}x",
            report.dispatch.route,
            panel_s * 1e6,
            aware_s * 1e6,
            flops / aware_s / 1e9,
            panel_s / aware_s,
        );
        small_entries.push((label, m, n, k, threads, report.dispatch, panel_s, aware_s));
    }

    // Plan-cache repeat benchmark: a fresh engine pays the tuner once;
    // the second lookup of the same shape must come back from the cache
    // in ~0 time.
    let (pc_m, pc_n, pc_k) = (52usize, 40usize, 48usize);
    let fresh = AutoGemm::new(ChipSpec::graviton2());
    let t0 = Instant::now();
    let _ = fresh.plan(pc_m, pc_n, pc_k);
    let first_plan_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let _ = fresh.plan(pc_m, pc_n, pc_k);
    let cached_plan_s = t1.elapsed().as_secs_f64();
    let pc_stats = fresh.plan_cache_stats();
    println!(
        "plan cache {pc_m}x{pc_n}x{pc_k}: first (tuned) {:.1} µs, repeat (hit) {:.1} µs, \
         {} hits / {} misses",
        first_plan_s * 1e6,
        cached_plan_s * 1e6,
        pc_stats.hits,
        pc_stats.misses
    );
    assert!(pc_stats.hits >= 1, "repeated plan lookup must hit the cache");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"native_gemm\",");
    let _ = writeln!(
        json,
        "  \"command\": \"cargo run --release -p autogemm-bench --bin native_gemm\","
    );
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"skipped\": [");
    for (i, (label, m, n, k, threads)) in skipped.iter().enumerate() {
        let label = label.map(|l| format!("\"label\": \"{l}\", ")).unwrap_or_default();
        let _ = write!(
            json,
            "    {{{label}\"m\": {m}, \"n\": {n}, \"k\": {k}, \"threads\": {threads}, \
             \"reason\": \"threads exceed host_parallelism\"}}"
        );
        let _ = writeln!(json, "{}", if i + 1 < skipped.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let flops = 2.0 * (e.m * e.n * e.k) as f64;
        let _ = write!(
            json,
            "    {{\"m\": {}, \"n\": {}, \"k\": {}, \"threads\": {}, \
             \"panel_cache_s\": {:.9}, \"panel_cache_gflops\": {:.3}, \
             \"seed_repack_s\": {:.9}, \"seed_repack_gflops\": {:.3}, \
             \"speedup\": {:.4}}}",
            e.m,
            e.n,
            e.k,
            e.threads,
            e.cached_s,
            flops / e.cached_s / 1e9,
            e.repack_s,
            flops / e.repack_s / 1e9,
            e.repack_s / e.cached_s,
        );
        let _ = writeln!(json, "{}", if i + 1 < entries.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"small_irregular\": [");
    for (i, (label, m, n, k, threads, dispatch, panel_s, aware_s)) in
        small_entries.iter().enumerate()
    {
        let flops = 2.0 * (m * n * k) as f64;
        let _ = write!(
            json,
            "    {{\"label\": \"{label}\", \"m\": {m}, \"n\": {n}, \"k\": {k}, \
             \"threads\": {threads}, \"route\": \"{}\", \"packed_a\": {}, \"packed_b\": {}, \
             \"panel_cache_s\": {panel_s:.9}, \"input_aware_s\": {aware_s:.9}, \
             \"input_aware_gflops\": {:.3}, \"speedup\": {:.4}}}",
            dispatch.route,
            dispatch.packed_a,
            dispatch.packed_b,
            flops / aware_s / 1e9,
            panel_s / aware_s,
        );
        let _ = writeln!(json, "{}", if i + 1 < small_entries.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"verify_overhead\": [");
    let vo = verify_overhead(&engine);
    for (i, &VerifyOverhead { label, m, n, k, off_s, sampled_s, always_s }) in vo.iter().enumerate()
    {
        println!(
            "{label:>5} {m:>4}x{n:>5}x{k:>4}: off {:>9.1} µs  sample-1/16 {:>9.1} µs  \
             overhead {:.2}%  always {:>9.1} µs",
            off_s * 1e6,
            sampled_s * 1e6,
            (sampled_s / off_s - 1.0) * 100.0,
            always_s * 1e6,
        );
        let _ = write!(
            json,
            "    {{\"label\": \"{label}\", \"m\": {m}, \"n\": {n}, \"k\": {k}, \
             \"sample_rate\": 16, \"off_s\": {off_s:.9}, \"sampled_s\": {sampled_s:.9}, \
             \"overhead_ratio\": {:.4}, \"always_s\": {always_s:.9}, \"always_ratio\": {:.4}}}",
            sampled_s / off_s,
            always_s / off_s,
        );
        let _ = writeln!(json, "{}", if i + 1 < vo.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"plan_cache\": {{");
    let _ = writeln!(json, "    \"m\": {pc_m}, \"n\": {pc_n}, \"k\": {pc_k},");
    let _ = writeln!(json, "    \"first_plan_s\": {first_plan_s:.9},");
    let _ = writeln!(json, "    \"cached_plan_s\": {cached_plan_s:.9},");
    let _ = writeln!(json, "    \"hits\": {}, \"misses\": {}", pc_stats.hits, pc_stats.misses);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_native_gemm.json");
    println!("wrote {out_path}");
}
