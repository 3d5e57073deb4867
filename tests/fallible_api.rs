//! The fallible (`try_*`) API surface: structured errors instead of
//! panics, degenerate-shape early returns, the untouched-`C` guarantee,
//! and a seeded differential sweep against the naive oracle — all with
//! no fault plan armed, so this suite also pins down that the `Result`
//! plumbing is bit-identical to the classic panicking path.

use autogemm::error::Operand;
use autogemm::{AutoGemm, GemmBatch, GemmError, GemmOptions, PackedB, PanelPool};
use autogemm_arch::ChipSpec;
use autogemm_baselines::naive::{max_rel_error, naive_gemm};

/// Deterministic pseudo-random operand data (xorshift-ish hash).
fn data(m: usize, n: usize, k: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
    let f = |i: usize, s: u32| {
        (((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 31) as f32 - 15.0
    };
    let a = (0..m * k).map(|i| f(i, seed) * 0.125).collect();
    let b = (0..k * n).map(|i| f(i, seed ^ 0xbeef) * 0.25).collect();
    (a, b)
}

// ---------------------------------------------------------------------------
// Error variants
// ---------------------------------------------------------------------------

#[test]
fn slice_length_mismatches_name_the_operand() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (8usize, 8usize, 8usize);
    let good_a = vec![0.0f32; m * k];
    let good_b = vec![0.0f32; k * n];
    let mut good_c = vec![0.0f32; m * n];

    let short_a = vec![0.0f32; m * k - 1];
    match engine.try_gemm_opts(m, n, k, &short_a, &good_b, &mut good_c, &GemmOptions::new()) {
        Err(GemmError::SliceLen { operand: Operand::A, expected, got, .. }) => {
            assert_eq!((expected, got), (m * k, m * k - 1));
        }
        other => panic!("expected SliceLen(A), got {other:?}"),
    }

    let short_b = vec![0.0f32; k * n - 3];
    let e = engine
        .try_gemm_opts(m, n, k, &good_a, &short_b, &mut good_c, &GemmOptions::new())
        .unwrap_err();
    assert!(matches!(e, GemmError::SliceLen { operand: Operand::B, .. }), "{e:?}");
    // Display is the same structured message the panicking wrapper uses.
    assert!(e.to_string().contains("must hold"), "{e}");

    let mut short_c = vec![0.0f32; m * n + 2];
    let e = engine
        .try_gemm_opts(m, n, k, &good_a, &good_b, &mut short_c, &GemmOptions::new())
        .unwrap_err();
    assert!(matches!(e, GemmError::SliceLen { operand: Operand::C, .. }), "{e:?}");
}

#[test]
fn overflow_adjacent_dims_error_before_allocating() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let a: Vec<f32> = vec![];
    let b: Vec<f32> = vec![];
    let mut c: Vec<f32> = vec![];
    // m*k overflows usize: reported as SizeOverflow, no allocation, no
    // tuning, no panic.
    let e =
        engine.try_gemm_opts(usize::MAX, 2, 3, &a, &b, &mut c, &GemmOptions::new()).unwrap_err();
    assert!(matches!(e, GemmError::SizeOverflow { .. }), "{e:?}");
    assert!(e.to_string().contains("overflows usize"), "{e}");
    // Same guard on the batch front door.
    let batch = GemmBatch::new(usize::MAX, usize::MAX, 1);
    let e = engine.try_gemm_batch_opts(&batch, &mut c, &GemmOptions::new().threads(2)).unwrap_err();
    assert!(matches!(e, GemmError::SizeOverflow { .. }), "{e:?}");
}

#[test]
fn prepacked_plan_mismatch_is_an_error() {
    let engine = AutoGemm::new(ChipSpec::m2());
    let plan_small = engine.plan(16, 16, 16);
    let plan_big = engine.plan(32, 32, 32);
    let b = vec![0.0f32; 16 * 16];
    let packed = PackedB::new(&plan_small, &b);
    let a = vec![0.0f32; 32 * 32];
    let mut c = vec![0.0f32; 32 * 32];
    let pool = PanelPool::new();
    let e =
        autogemm::try_gemm_prepacked_pooled(&plan_big, &a, &packed, &mut c, 1, &pool).unwrap_err();
    assert!(matches!(e, GemmError::PlanMismatch { .. }), "{e:?}");
    assert!(e.to_string().contains("different plan"), "{e}");
}

#[test]
fn classic_wrappers_panic_with_the_structured_message() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let a = vec![0.0f32; 3];
        let b = vec![0.0f32; 16];
        let mut c = vec![0.0f32; 16];
        engine.gemm(4, 4, 4, &a, &b, &mut c);
    }))
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("must hold"), "wrapper panic message was {msg:?}");
}

// ---------------------------------------------------------------------------
// Untouched-C guarantee
// ---------------------------------------------------------------------------

#[test]
fn c_is_untouched_when_validation_fails() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (12usize, 10usize, 8usize);
    let (a, _) = data(m, n, k, 7);
    let bad_b = vec![0.0f32; k * n - 1];
    let sentinel: Vec<f32> = (0..m * n).map(|i| i as f32 + 0.5).collect();
    let mut c = sentinel.clone();
    assert!(engine.try_gemm_opts(m, n, k, &a, &bad_b, &mut c, &GemmOptions::new()).is_err());
    assert_eq!(c, sentinel, "C must be untouched on a validation error");
    assert!(engine
        .try_gemm_opts(m, n, k, &a, &bad_b, &mut c, &GemmOptions::new().threads(4))
        .is_err());
    assert_eq!(c, sentinel);
}

#[test]
fn sgemm_validates_before_the_beta_pass() {
    let engine = AutoGemm::new(ChipSpec::kp920());
    let (m, n, k) = (9usize, 11usize, 6usize);
    let plan = engine.plan(m, n, k);
    let bad_a = vec![0.0f32; m * k + 1];
    let b = vec![0.0f32; k * n];
    let sentinel: Vec<f32> = (0..m * n).map(|i| i as f32).collect();
    let mut c = sentinel.clone();
    // β = 0.5 would scale C — but the bad A must be caught first.
    let r = autogemm::try_sgemm(
        &plan,
        1.0,
        autogemm::Op::NoTrans,
        &bad_a,
        autogemm::Op::NoTrans,
        &b,
        0.5,
        &mut c,
        2,
    );
    assert!(matches!(r, Err(GemmError::SliceLen { operand: Operand::A, .. })), "{r:?}");
    assert_eq!(c, sentinel, "C must not even be scaled on Err");
}

// ---------------------------------------------------------------------------
// Degenerate shapes
// ---------------------------------------------------------------------------

#[test]
fn zero_dim_gemm_early_returns() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    // m == 0 / n == 0: nothing to do, C is empty.
    let mut empty: Vec<f32> = vec![];
    engine.gemm(0, 5, 4, &[], &[0.0; 20], &mut empty);
    engine
        .try_gemm_opts(7, 0, 4, &[0.0; 28], &[], &mut empty, &GemmOptions::new().threads(4))
        .unwrap();
    engine.try_gemm_opts(0, 0, 0, &[], &[], &mut empty, &GemmOptions::new()).unwrap();

    // k == 0: the product is the zero matrix, so C is zeroed.
    let (m, n) = (6usize, 9usize);
    let mut c: Vec<f32> = (0..m * n).map(|i| i as f32 + 1.0).collect();
    engine.gemm(m, n, 0, &[], &[], &mut c);
    assert!(c.iter().all(|&v| v == 0.0), "k == 0 must zero C");

    let mut c: Vec<f32> = (0..m * n).map(|i| -(i as f32)).collect();
    engine.try_gemm_opts(m, n, 0, &[], &[], &mut c, &GemmOptions::new().threads(3)).unwrap();
    assert!(c.iter().all(|&v| v == 0.0));
}

#[test]
fn zero_dim_traced_reports_the_shape() {
    let engine = AutoGemm::new(ChipSpec::m2());
    let mut c: Vec<f32> = vec![3.0; 4 * 5];
    let report = engine
        .try_gemm_traced_opts(4, 5, 0, &[], &[], &mut c, &GemmOptions::new().threads(2))
        .unwrap();
    assert_eq!((report.m, report.n, report.k), (4, 5, 0));
    assert!(c.iter().all(|&v| v == 0.0));
    let mut empty: Vec<f32> = vec![];
    let report = engine
        .try_gemm_traced_opts(0, 5, 7, &[], &[0.0; 35], &mut empty, &GemmOptions::new().threads(1))
        .unwrap();
    assert_eq!((report.m, report.n, report.k), (0, 5, 7));
}

#[test]
fn zero_dim_batch_zeroes_every_item() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n) = (3usize, 4usize);
    let mut batch = GemmBatch::new(m, n, 0);
    let a: Vec<f32> = vec![];
    let b: Vec<f32> = vec![];
    for _ in 0..5 {
        batch.push(&a, &b);
    }
    let mut c: Vec<f32> = (0..5 * m * n).map(|i| i as f32 + 1.0).collect();
    engine.try_gemm_batch_opts(&batch, &mut c, &GemmOptions::new().threads(2)).unwrap();
    assert!(c.iter().all(|&v| v == 0.0));
}

#[test]
fn zero_dim_transpose_paths() {
    let engine = AutoGemm::new(ChipSpec::kp920());
    let plan = engine.plan(5, 7, 0);
    let mut c: Vec<f32> = vec![2.0; 35];
    autogemm::try_gemm_op(&plan, autogemm::Op::Trans, autogemm::Op::NoTrans, &[], &[], &mut c, 2)
        .unwrap();
    assert!(c.iter().all(|&v| v == 0.0));
    // sgemm with k == 0 reduces to C = β·C.
    let mut c: Vec<f32> = vec![2.0; 35];
    autogemm::try_sgemm(
        &plan,
        1.0,
        autogemm::Op::NoTrans,
        &[],
        autogemm::Op::NoTrans,
        &[],
        0.5,
        &mut c,
        1,
    )
    .unwrap();
    assert!(c.iter().all(|&v| v == 1.0), "k == 0 sgemm must leave β·C");
}

// ---------------------------------------------------------------------------
// try_* matches the classic path bit-for-bit (no fault plan armed)
// ---------------------------------------------------------------------------

#[test]
fn try_gemm_is_bit_identical_to_gemm() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    for &(m, n, k) in &[(17usize, 23usize, 31usize), (64, 48, 32), (5, 128, 7)] {
        let (a, b) = data(m, n, k, 11);
        let mut c_classic = vec![0.0f32; m * n];
        engine.gemm(m, n, k, &a, &b, &mut c_classic);
        let mut c_try = vec![0.0f32; m * n];
        engine.try_gemm_opts(m, n, k, &a, &b, &mut c_try, &GemmOptions::new()).unwrap();
        assert_eq!(c_try, c_classic, "{m}x{n}x{k}: try path diverged");
        for threads in [2usize, 8] {
            // The threaded fallible paths agree with each other: the
            // plain front door and the resilient ladder's first rung.
            let opts = GemmOptions::new().threads(threads);
            let mut c_t_try = vec![0.0f32; m * n];
            engine.try_gemm_opts(m, n, k, &a, &b, &mut c_t_try, &opts).unwrap();
            let mut c_t_resilient = vec![0.0f32; m * n];
            let r = engine.try_gemm_resilient(m, n, k, &a, &b, &mut c_t_resilient, &opts).unwrap();
            assert_eq!(r.attempts, 1, "a clean call runs once");
            assert_eq!(c_t_try, c_t_resilient, "{m}x{n}x{k} t{threads}");
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded differential sweep vs the naive oracle
// ---------------------------------------------------------------------------

/// xorshift64 for shape generation.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn pick(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo + 1)
    }
}

#[test]
fn differential_fuzz_against_naive() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let mut rng = Rng(0x5eed_cafe);
    // Hand-picked adversarial shapes: degenerate rows/columns, kernel
    // edge remainders (mr/nr in Table II are ≤ 8/ multiples of 4), and
    // shapes a naive size computation gets wrong by one.
    let mut shapes: Vec<(usize, usize, usize)> = vec![
        (1, 37, 1),
        (41, 1, 3),
        (1, 1, 129),
        (9, 13, 1),
        (7, 5, 3),
        (33, 47, 17),
        (8, 12, 16),
        (25, 4, 64),
    ];
    for _ in 0..12 {
        shapes.push((rng.pick(1, 70), rng.pick(1, 70), rng.pick(1, 70)));
    }
    for (i, &(m, n, k)) in shapes.iter().enumerate() {
        let (a, b) = data(m, n, k, i as u32);
        let mut want = vec![0.0f32; m * n];
        naive_gemm(m, n, k, &a, &b, &mut want);
        for threads in [1usize, 4] {
            let mut c = vec![0.0f32; m * n];
            engine
                .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
                .unwrap();
            let err = max_rel_error(&c, &want);
            assert!(err < 1e-5, "{m}x{n}x{k} t{threads}: rel err {err}");
        }
    }
}

#[test]
fn engine_is_reusable_after_an_error() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (19usize, 21usize, 15usize);
    let (a, b) = data(m, n, k, 3);
    let bad_a = vec![0.0f32; 2];
    let mut c = vec![0.0f32; m * n];
    assert!(engine.try_gemm_opts(m, n, k, &bad_a, &b, &mut c, &GemmOptions::new()).is_err());
    // The pool/schedule caches must be unharmed: the next call succeeds
    // and is correct.
    engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new()).unwrap();
    let mut want = vec![0.0f32; m * n];
    naive_gemm(m, n, k, &a, &b, &mut want);
    assert!(max_rel_error(&c, &want) < 1e-5);
}
