//! Criterion wall-clock benches of the native block driver: the
//! panel-cache path (every panel packed once, atomic work queue) against
//! the historical per-block repacking path, on the irregular shapes the
//! paper targets. Run with `cargo bench -p autogemm-bench --bench
//! native_gemm`; the machine-readable artifact comes from the
//! `native_gemm` bin instead (see README §Benchmarks).

use autogemm::native::{gemm_with_plan, gemm_with_plan_repack};
use autogemm::{AutoGemm, PanelPool};
use autogemm_arch::ChipSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn data(m: usize, n: usize, k: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let a = (0..m * k).map(|i| (i % 17) as f32 - 8.0).collect();
    let b = (0..k * n).map(|i| (i % 13) as f32 - 6.0).collect();
    let c = vec![0.0f32; m * n];
    (a, b, c)
}

fn bench_native_gemm(c: &mut Criterion) {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let mut group = c.benchmark_group("native_gemm");
    group.sample_size(10);
    // (m, n, k, threads): the paper's flagship irregular DNN shape at one
    // and eight cores, a small Fig 8 shape, and a mid square.
    for (m, n, k, threads) in
        [(64, 3136, 64, 8), (64, 3136, 64, 1), (64, 196, 64, 1), (128, 128, 128, 4)]
    {
        let plan = if threads > 1 {
            engine.plan_multicore(m, n, k, threads)
        } else {
            engine.plan(m, n, k)
        };
        let (a, b, c0) = data(m, n, k);
        let label = format!("{m}x{n}x{k}t{threads}");
        let pool = PanelPool::new();
        group.bench_with_input(BenchmarkId::new("panel_cache", &label), &threads, |bch, &t| {
            let mut cc = c0.clone();
            bch.iter(|| {
                autogemm::native::try_gemm_with_plan_pooled(
                    black_box(&plan),
                    &a,
                    &b,
                    &mut cc,
                    t,
                    &pool,
                )
                .expect("pooled gemm failed")
            });
        });
        group.bench_with_input(BenchmarkId::new("seed_repack", &label), &threads, |bch, &t| {
            let mut cc = c0.clone();
            bch.iter(|| gemm_with_plan_repack(black_box(&plan), &a, &b, &mut cc, t));
        });
        // Sanity outside the timed region: both paths agree bitwise.
        let (mut c1, mut c2) = (c0.clone(), c0.clone());
        gemm_with_plan(&plan, &a, &b, &mut c1, threads);
        gemm_with_plan_repack(&plan, &a, &b, &mut c2, threads);
        assert_eq!(c1, c2, "panel cache diverged from seed path on {label}");
    }
    group.finish();
}

criterion_group!(benches, bench_native_gemm);
criterion_main!(benches);
