//! Cross-crate correctness: the full engine (tuner → DMT → packing →
//! micro-kernels) against the naive reference, natively and on the
//! functional simulator, across chips, shapes and thread counts —
//! the §V "relative error < 1e-6" verification.

use autogemm::{AutoGemm, GemmOptions};
use autogemm_arch::ChipSpec;
use autogemm_baselines::naive::{max_rel_error, naive_gemm};

fn data(m: usize, n: usize, k: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
    let f = |i: usize, s: u32| {
        (((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 31) as f32 - 15.0
    };
    let a = (0..m * k).map(|i| f(i, seed) * 0.125).collect();
    let b = (0..k * n).map(|i| f(i, seed ^ 0xdead) * 0.25).collect();
    (a, b)
}

fn check_native(engine: &AutoGemm, m: usize, n: usize, k: usize, threads: usize) {
    let (a, b) = data(m, n, k, 42);
    let mut c = vec![0.0f32; m * n];
    if threads == 1 {
        engine.gemm(m, n, k, &a, &b, &mut c);
    } else {
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .unwrap();
    }
    let mut want = vec![0.0f32; m * n];
    naive_gemm(m, n, k, &a, &b, &mut want);
    let err = max_rel_error(&c, &want);
    assert!(err < 1e-5, "{m}x{n}x{k} t{threads}: rel err {err}");
}

#[test]
fn engine_matches_naive_across_shape_classes() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    // Small, tall-skinny, long-rectangular, awkward primes.
    for (m, n, k) in [
        (1, 4, 1),
        (8, 8, 8),
        (64, 64, 64),
        (26, 36, 64),
        (128, 24, 16),
        (16, 196, 32),
        (13, 20, 17),
        (31, 44, 29),
        (7, 52, 11),
    ] {
        check_native(&engine, m, n, k, 1);
    }
}

#[test]
fn engine_matches_naive_on_all_chips() {
    for chip in ChipSpec::all_evaluated() {
        let engine = AutoGemm::new(chip.clone());
        check_native(&engine, 26, 36, 32, 1);
        check_native(&engine, 48, 48, 48, 1);
    }
}

#[test]
fn threaded_engine_matches_naive() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    for threads in [2, 3, 4] {
        check_native(&engine, 64, 96, 32, threads);
    }
}

#[test]
fn every_baseline_matches_naive_on_shared_shapes() {
    let chip = ChipSpec::kp920();
    for baseline in autogemm_baselines::all_baselines() {
        let (m, n, k) = (32, 48, 24);
        if !baseline.supports(&chip, m, n, k) {
            continue;
        }
        let (a, b) = data(m, n, k, 7);
        let mut c = vec![0.0f32; m * n];
        autogemm_baselines::gemm_baseline(baseline, m, n, k, &chip, &a, &b, &mut c);
        let mut want = vec![0.0f32; m * n];
        naive_gemm(m, n, k, &a, &b, &mut want);
        let err = max_rel_error(&c, &want);
        assert!(err < 1e-5, "{}: rel err {err}", baseline.name());
    }
}

#[test]
fn simulated_kernels_match_native_numerics() {
    // The virtual-ISA kernels executed by the functional simulator must
    // agree bit-for-bit in structure with the native kernels' results
    // (both are sums of the same products in the same k-order).
    use autogemm_kernelgen::{MicroKernelSpec, MicroTile, PipelineOpts, Strides};
    let chip = ChipSpec::graviton2();
    for (mr, nr, kc) in [(5usize, 16usize, 24usize), (8, 8, 17), (2, 28, 9)] {
        let spec = MicroKernelSpec {
            tile: MicroTile::new(mr, nr),
            kc,
            sigma_lane: 4,
            accumulate: true,
            strides: Strides::Dynamic,
            opts: PipelineOpts::rotated(),
        };
        let (a, b) = data(mr, nr, kc, 3);
        let mut c_sim = vec![0.5f32; mr * nr];
        let c0 = c_sim.clone();
        autogemm_sim::run_micro_kernel(&spec, &chip, &a, &b, &mut c_sim, autogemm_sim::Warmth::L1);
        let mut want = c0;
        for i in 0..mr {
            for p in 0..kc {
                for j in 0..nr {
                    want[i * nr + j] += a[i * kc + p] * b[p * nr + j];
                }
            }
        }
        let err = max_rel_error(&c_sim, &want);
        assert!(err < 1e-4, "{mr}x{nr}x{kc}: {err}");
    }
}

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn random_shapes_are_correct(
            m in 1usize..48,
            n in 1usize..48,
            k in 1usize..48,
        ) {
            let engine = AutoGemm::new(ChipSpec::graviton2());
            let (a, b) = data(m, n, k, (m * 31 + n * 7 + k) as u32);
            let mut c = vec![0.0f32; m * n];
            engine.gemm(m, n, k, &a, &b, &mut c);
            let mut want = vec![0.0f32; m * n];
            naive_gemm(m, n, k, &a, &b, &mut want);
            prop_assert!(max_rel_error(&c, &want) < 1e-4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// The threaded panel-cache driver matches the naive reference for
        /// arbitrary shapes and thread counts — including thread counts
        /// (up to 8) far exceeding the block grid of small shapes, where
        /// surplus workers must drain an empty queue and exit.
        #[test]
        fn random_threaded_shapes_are_correct(
            m in 1usize..97,
            n in 1usize..97,
            k in 1usize..97,
            t_idx in 0usize..4,
        ) {
            let threads = [1usize, 2, 3, 8][t_idx];
            let engine = AutoGemm::new(ChipSpec::graviton2());
            let (a, b) = data(m, n, k, (m * 13 + n * 5 + k * 3 + threads) as u32);
            let mut c = vec![0.0f32; m * n];
            let opts = GemmOptions::new().threads(threads);
            engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).unwrap();
            let mut want = vec![0.0f32; m * n];
            naive_gemm(m, n, k, &a, &b, &mut want);
            prop_assert!(
                max_rel_error(&c, &want) < 1e-4,
                "{m}x{n}x{k} at {threads} threads: rel err {}",
                max_rel_error(&c, &want)
            );
        }

        /// Threaded execution is deterministic and bit-identical to the
        /// single-threaded result: the work queue changes which thread
        /// computes a block, never the FP order within one.
        #[test]
        fn thread_count_never_changes_bits(
            m in 1usize..64,
            n in 1usize..64,
            k in 1usize..64,
        ) {
            let chip = ChipSpec::graviton2();
            let plan = autogemm::ExecutionPlan::from_schedule(
                autogemm_tuner::tune(m, n, k, &chip),
                &chip,
            );
            let (a, b) = data(m, n, k, (m + n * 3 + k * 17) as u32);
            let mut c1 = vec![0.0f32; m * n];
            autogemm::native::gemm_with_plan(&plan, &a, &b, &mut c1, 1);
            for threads in [2usize, 3, 8] {
                let mut ct = vec![0.0f32; m * n];
                autogemm::native::gemm_with_plan(&plan, &a, &b, &mut ct, threads);
                prop_assert_eq!(&c1, &ct, "threads={} diverged", threads);
            }
        }
    }
}
