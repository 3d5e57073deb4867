//! Input-aware dispatch guards (ISSUE 6): the engine's small-shape fast
//! paths and packing elision must be invisible in the output.
//!
//! * **Unpacked vs packed routing**: the plan-level driver run under
//!   every `OperandRouting` combination must produce identical `C` — the
//!   unpacked-operand kernels consume the same values in the same
//!   per-cell accumulation order as the packed ones.
//! * **GEMV/small-k vs block driver**: degenerate shapes the engine
//!   routes around the tuner (`m = 1`, `n = 1`, `k ≤ 8`) must match the
//!   always-packed block driver exactly.
//! * **Plan cache**: a repeated shape hits, and the cached plan's output
//!   is identical to the first (miss) call's.
//!
//! All operands here are exactly-representable (small integers scaled by
//! powers of two), so every accumulation order — fused or unfused, any
//! chunking — produces the same bits on every backend; `assert_eq!` on
//! the raw `f32`s is therefore an exact, backend-portable check.

use autogemm::native::gemm_with_plan;
use autogemm::{AutoGemm, ExecutionPlan, GemmOptions, OperandRouting};
use autogemm_arch::ChipSpec;
use autogemm_tuner::tune;
use proptest::prelude::*;

/// Exactly-representable operands: integers in [-15, 15] scaled by 2^-3
/// and 2^-2 — all products and partial sums are exact in f32 at the
/// sizes used here, so accumulation order cannot change the bits.
fn data(m: usize, n: usize, k: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
    let f = |i: usize, s: u32| {
        (((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 31) as f32 - 15.0
    };
    let a = (0..m * k).map(|i| f(i, seed) * 0.125).collect();
    let b = (0..k * n).map(|i| f(i, seed ^ 0xd15c) * 0.25).collect();
    (a, b)
}

fn plan_for(m: usize, n: usize, k: usize) -> ExecutionPlan {
    let chip = ChipSpec::graviton2();
    ExecutionPlan::from_schedule(tune(m, n, k, &chip), &chip)
}

fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// The ISSUE 6 edge set: 1, 2, and ±1 around the dispatch table's
/// register-tile extents (`m_r` up to 8, `n̄_r` multiples of 4 up to 28).
const EDGE_DIMS: [usize; 8] = [1, 2, 4, 6, 9, 15, 17, 27];
const THREADS: [usize; 3] = [1, 2, 4];

#[test]
fn every_operand_routing_is_bit_identical() {
    // Medium shapes with at least one non-trivial block grid, plus a
    // pack-dominated one (n = 49 tunes to tn = 1 on the model chip).
    for (m, n, k) in [(24, 36, 40), (64, 49, 64), (40, 16, 72), (33, 28, 24)] {
        let plan = plan_for(m, n, k);
        let (a, b) = data(m, n, k, 7);
        for threads in THREADS {
            let mut c_packed = vec![0.0f32; m * n];
            gemm_with_plan(
                &plan.clone().with_routing(OperandRouting::packed()),
                &a,
                &b,
                &mut c_packed,
                threads,
            );
            assert_eq!(c_packed, naive(m, n, k, &a, &b), "{m}x{n}x{k} t{threads} packed");
            for (pack_a, pack_b) in [(false, true), (true, false), (false, false)] {
                let mut c_routed = vec![0.0f32; m * n];
                let routed = plan.clone().with_routing(OperandRouting { pack_a, pack_b });
                gemm_with_plan(&routed, &a, &b, &mut c_routed, threads);
                assert_eq!(
                    c_routed, c_packed,
                    "{m}x{n}x{k} t{threads} pack_a={pack_a} pack_b={pack_b} must match packed"
                );
            }
        }
    }
}

#[test]
fn degenerate_shapes_match_the_block_driver() {
    // m = 1 (row GEMV), n = 1 (column GEMV) and k ≤ 8 (small-k) all
    // bypass the tuner inside the engine; the always-packed plan-level
    // block driver is the cross-check.
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let mut shapes = Vec::new();
    for &d in &EDGE_DIMS {
        for &e in &EDGE_DIMS {
            shapes.push((1, d, e)); // row GEMV
            shapes.push((d, 1, e)); // column GEMV
            if e <= 8 {
                shapes.push((d, d.max(2), e)); // small-k
            }
        }
    }
    for (m, n, k) in shapes {
        let (a, b) = data(m, n, k, 21);
        let plan = plan_for(m, n, k);
        let mut c_block = vec![0.0f32; m * n];
        gemm_with_plan(&plan, &a, &b, &mut c_block, 1);
        assert_eq!(c_block, naive(m, n, k, &a, &b), "{m}x{n}x{k} block driver vs oracle");
        for threads in THREADS {
            let mut c_fast = vec![0.0f32; m * n];
            engine
                .try_gemm_opts(m, n, k, &a, &b, &mut c_fast, &GemmOptions::new().threads(threads))
                .unwrap_or_else(|e| panic!("{m}x{n}x{k} t{threads}: {e}"));
            assert_eq!(c_fast, c_block, "{m}x{n}x{k} t{threads}: fast path vs block driver");
        }
    }
}

#[test]
fn traced_dispatch_names_the_route_taken() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    for (m, n, k, want) in
        [(1, 40, 24, "gemv_row"), (40, 1, 24, "gemv_col"), (24, 20, 6, "small_k")]
    {
        let (a, b) = data(m, n, k, 3);
        let mut c = vec![0.0f32; m * n];
        let report = engine
            .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
            .unwrap();
        assert_eq!(report.dispatch.route, want, "{m}x{n}x{k}");
        assert!(!report.dispatch.packed_a && !report.dispatch.packed_b);
        assert_eq!(c, naive(m, n, k, &a, &b), "{m}x{n}x{k} traced fast path vs oracle");
    }
    // A regular shape reports the block route with its routing decision.
    let (m, n, k) = (48, 64, 32);
    let (a, b) = data(m, n, k, 5);
    let mut c = vec![0.0f32; m * n];
    let report = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(2))
        .unwrap();
    assert_eq!(report.dispatch.route, "block");
}

#[test]
fn plan_cache_hits_on_repeated_shapes_and_output_is_stable() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (52, 40, 48);
    let (a, b) = data(m, n, k, 11);
    let mut c1 = vec![0.0f32; m * n];
    let r1 = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c1, &GemmOptions::new().threads(1))
        .unwrap();
    assert!(!r1.dispatch.plan_cache_hit, "first call must miss");
    let mut c2 = vec![0.0f32; m * n];
    let r2 = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c2, &GemmOptions::new().threads(1))
        .unwrap();
    assert!(r2.dispatch.plan_cache_hit, "second identical call must hit");
    assert!(r2.dispatch.plan_cache_hits > r1.dispatch.plan_cache_hits);
    assert_eq!(c2, c1, "cached plan must reproduce the miss call's bits");
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.hits, r2.dispatch.plan_cache_hits);
    // A different thread budget is a different key: miss again.
    let mut c3 = vec![0.0f32; m * n];
    let r3 = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c3, &GemmOptions::new().threads(2))
        .unwrap();
    assert!(!r3.dispatch.plan_cache_hit, "threaded plan is a separate cache entry");
    assert_eq!(c3, c1);
    // GEMV shapes never consult the tuner, so they never touch the cache.
    let before = engine.plan_cache_stats();
    let (ga, gb) = data(1, 33, 17, 13);
    let mut gc = vec![0.0f32; 33];
    engine.gemm(1, 33, 17, &ga, &gb, &mut gc);
    let after = engine.plan_cache_stats();
    assert_eq!((before.hits, before.misses), (after.hits, after.misses));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small/irregular shapes (the fast-path envelope plus the
    /// crossover into the block driver), random thread counts: the
    /// engine's input-aware dispatch must be bitwise invisible.
    #[test]
    fn dispatch_is_bitwise_invisible(
        m in 1usize..19,
        n in 1usize..19,
        k in 1usize..13,
        threads in 1usize..5,
        seed in 0u32..1000,
    ) {
        let engine = AutoGemm::new(ChipSpec::graviton2());
        let (a, b) = data(m, n, k, seed);
        let mut c_engine = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c_engine, &GemmOptions::new().threads(threads))
            .unwrap_or_else(|e| panic!("{m}x{n}x{k} t{threads}: {e}"));
        let plan = plan_for(m, n, k);
        let mut c_block = vec![0.0f32; m * n];
        gemm_with_plan(&plan, &a, &b, &mut c_block, 1);
        prop_assert_eq!(&c_engine, &c_block);
        prop_assert_eq!(&c_block, &naive(m, n, k, &a, &b));
    }
}
