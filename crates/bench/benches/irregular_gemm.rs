//! Criterion wall-clock benches: native autoGEMM on Table V irregular
//! shapes (host machine), single- and multi-threaded.

use autogemm::{AutoGemm, GemmOptions};
use autogemm_arch::ChipSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_irregular(c: &mut Criterion) {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let mut group = c.benchmark_group("irregular_gemm");
    group.sample_size(10);
    // A subset of Table V that spans the three irregular classes.
    for layer in autogemm_workloads::resnet50_table_v()
        .into_iter()
        .filter(|l| [2usize, 11, 16].contains(&l.layer))
    {
        let (m, n, k) = (layer.m, layer.n, layer.k);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 11) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32).collect();
        let mut cc = vec![0.0f32; m * n];
        engine.gemm(m, n, k, &a, &b, &mut cc); // warm tuner
        group.throughput(Throughput::Elements(layer.flops()));
        group.bench_with_input(BenchmarkId::new("single", layer.name()), &layer, |bch, _| {
            bch.iter(|| engine.gemm(black_box(m), n, k, &a, &b, &mut cc));
        });
        group.bench_with_input(BenchmarkId::new("threads2", layer.name()), &layer, |bch, _| {
            bch.iter(|| {
                engine
                    .try_gemm_opts(
                        black_box(m),
                        n,
                        k,
                        &a,
                        &b,
                        &mut cc,
                        &GemmOptions::new().threads(2),
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_irregular);
criterion_main!(benches);
