//! Criterion benches of schedule tuning (the TVM-stand-in search).
//!
//! `tune` memoizes block costs process-wide, so after its first iteration
//! it measures memo hits. The `plan_dmt` group measures the cold cost of
//! one plan-cache miss instead: DMT over the two blocks that dominate
//! tuning the Table V layers (128×392 at `k_c` 256 for layers 6/8, 256×49
//! at `k_c` 768 for layer 17). Each iteration prices its tiles from
//! scratch, as every block the tuner scores does.

use autogemm_arch::ChipSpec;
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::plan_dmt;
use autogemm_tuner::tune;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_tuner(c: &mut Criterion) {
    let chip = ChipSpec::graviton2();
    let mut group = c.benchmark_group("tuner");
    group.sample_size(10);
    for (m, n, k) in [(64usize, 64usize, 64usize), (256, 196, 512)] {
        let name = format!("{m}x{n}x{k}");
        group.bench_with_input(BenchmarkId::new("tune", &name), &(m, n, k), |bch, _| {
            bch.iter(|| tune(black_box(m), n, k, &chip));
        });
    }
    group.finish();
}

fn bench_plan_dmt(c: &mut Criterion) {
    let chip = ChipSpec::graviton2();
    let opts = ModelOpts { rotate: true, fused: true };
    let mut group = c.benchmark_group("plan_dmt");
    group.sample_size(10);
    for (mc, nc, kc) in [(128usize, 392usize, 256usize), (256, 49, 768)] {
        let name = format!("{mc}x{nc}_kc{kc}");
        group.bench_with_input(BenchmarkId::new("cold", &name), &(mc, nc, kc), |bch, _| {
            bch.iter(|| plan_dmt(black_box(mc), nc, kc, &chip, opts));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tuner, bench_plan_dmt);
criterion_main!(benches);
