//! Output-integrity properties (ISSUE 10): the Freivalds check's
//! false-negative bound over corruption magnitudes, and verdict
//! determinism — same inputs, same verdict, bit-for-bit, regardless of
//! how many threads computed the output or run the check.
//!
//! Always-compiled (no `faultinject` needed): these drive
//! [`autogemm::verify::verify_output`] directly on corrupted oracle
//! products rather than injecting faults into the drivers; the injected
//! end-to-end story lives in `tests/chaos.rs`.
//!
//! [`reference::verify_output`] keeps the serial form of the check (one
//! `f64` accumulator per dot product, one pass per sum, explicit
//! non-finite scans) as the reference the single-pass, lane-parallel
//! library check must agree with verdict for verdict.

use autogemm::supervisor::GemmOptions;
use autogemm::verify::{verify_output, FREIVALDS_ROUNDS};
use autogemm::{AutoGemm, GemmError, VerifyPolicy};
use autogemm_arch::ChipSpec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Exactly-representable operands (integers in [-15, 15] scaled by
/// powers of two), the repo's standard oracle-friendly generator.
fn data(m: usize, n: usize, k: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
    let f = |i: usize, s: u32| {
        (((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 31) as f32 - 15.0
    };
    let a = (0..m * k).map(|i| f(i, seed) * 0.125).collect();
    let b = (0..k * n).map(|i| f(i, seed ^ 0x7e57) * 0.25).collect();
    (a, b)
}

fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            for j in 0..n {
                c[i * n + j] += av * b[p * n + j];
            }
        }
    }
    c
}

/// The serial Freivalds check the library's single-pass version must
/// reproduce: same probe seeding, same tolerance, same verdict order.
mod reference {
    use autogemm::verify::FREIVALDS_ROUNDS;
    use autogemm::GemmError;

    const TOLERANCE_SAFETY: f64 = 16.0;
    const TOLERANCE_FLOOR: f64 = 1e-6;

    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The probe vector of one round: ±1 signs from an xorshift64
    /// stream seeded from `(m, n, k, round)` only.
    fn probe(m: usize, n: usize, k: usize, round: u32) -> Vec<f64> {
        let mut state = mix((m as u64)
            ^ mix((n as u64) ^ mix((k as u64) ^ (u64::from(round) << 32) ^ 0xA076_1D64_78BD_642F)))
            | 1;
        let (mut bits, mut left) = (0u64, 0u32);
        (0..n)
            .map(|_| {
                if left == 0 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    bits = state;
                    left = 64;
                }
                let bit = bits & 1;
                bits >>= 1;
                left -= 1;
                if bit == 1 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect()
    }

    pub fn verify_output(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &[f32],
    ) -> Result<(), GemmError> {
        if m == 0 || n == 0 {
            return Ok(());
        }
        if !a.iter().all(|v| v.is_finite()) || !b.iter().all(|v| v.is_finite()) {
            return Ok(());
        }
        if !c.iter().all(|v| v.is_finite()) {
            return Err(GemmError::IntegrityViolation {
                check: "non_finite",
                round: 0,
                max_residual: f64::INFINITY,
            });
        }
        let mut babs = vec![0.0f64; k];
        for p in 0..k {
            babs[p] = b[p * n..p * n + n].iter().map(|v| f64::from(v.abs())).sum();
        }
        let eps = f64::from(f32::EPSILON);
        let gamma = eps * (k.max(1) as f64) * TOLERANCE_SAFETY;
        for round in 0..FREIVALDS_ROUNDS {
            let x = probe(m, n, k, round);
            let mut y = vec![0.0f64; k];
            for p in 0..k {
                let mut acc = 0.0f64;
                for (j, v) in b[p * n..p * n + n].iter().enumerate() {
                    acc += f64::from(*v) * x[j];
                }
                y[p] = acc;
            }
            let mut max_residual = 0.0f64;
            let mut violated = false;
            for i in 0..m {
                let (mut z, mut mag) = (0.0f64, 0.0f64);
                for (p, v) in a[i * k..i * k + k].iter().enumerate() {
                    let av = f64::from(*v);
                    z += av * y[p];
                    mag += av.abs() * babs[p];
                }
                let (mut w, mut cmag) = (0.0f64, 0.0f64);
                for (j, v) in c[i * n..i * n + n].iter().enumerate() {
                    let cv = f64::from(*v);
                    w += cv * x[j];
                    cmag += cv.abs();
                }
                let residual = (w - z).abs();
                let tolerance = gamma * mag + eps * TOLERANCE_SAFETY * cmag + TOLERANCE_FLOOR;
                if residual > tolerance {
                    violated = true;
                    if residual > max_residual {
                        max_residual = residual;
                    }
                }
            }
            if violated {
                return Err(GemmError::IntegrityViolation {
                    check: "freivalds",
                    round,
                    max_residual,
                });
            }
        }
        Ok(())
    }
}

/// Row lengths for the equivalence checks: 1, every remainder modulo
/// the library's lane count, a lane multiple, the ResNet `n = 49` and
/// `k = 64`, and the GEMV length 3136.
const SIZES: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 13, 49, 64, 3136];

/// What an equivalence case does to the clean `C = A·B`.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Clean,
    /// One cell off by `10^exp`, `exp` in -4..4 (below and above the
    /// tolerance).
    Corrupt,
    /// Two opposite errors in one row: cancel in any round whose probe
    /// signs agree on both columns.
    Cancelling,
    /// A `NaN` or `Inf` in A, B or C.
    NonFiniteA,
    NonFiniteB,
    NonFiniteC,
    /// Non-finite values in both A and C: the input verdict wins.
    NonFiniteAandC,
    /// An `Inf` in A facing an all-zero row of B.
    InfAFacingZeroB,
}

const FAULTS: [Fault; 8] = [
    Fault::Clean,
    Fault::Corrupt,
    Fault::Cancelling,
    Fault::NonFiniteA,
    Fault::NonFiniteB,
    Fault::NonFiniteC,
    Fault::NonFiniteAandC,
    Fault::InfAFacingZeroB,
];

/// Operands, a faulted `C` and the shape for one equivalence case.
/// `rough` scales the exactly-representable data by 0.3 so `C` carries
/// real `f32` rounding error; `pick` chooses cells and values.
fn faulted_case(
    m: usize,
    n: usize,
    k: usize,
    fault: Fault,
    rough: bool,
    pick: u64,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (mut a, mut b) = data(m, n, k, pick as u32);
    if rough {
        a.iter_mut().for_each(|v| *v *= 0.3);
        b.iter_mut().for_each(|v| *v *= 0.3);
    }
    let bad = if pick & 1 == 0 { f32::NAN } else { f32::INFINITY };
    let cell = |len: usize, salt: u64| (pick.wrapping_mul(0x9E37_79B9) ^ salt) as usize % len;
    match fault {
        Fault::NonFiniteA | Fault::NonFiniteAandC => a[cell(m * k, 1)] = bad,
        Fault::NonFiniteB => b[cell(k * n, 2)] = bad,
        Fault::InfAFacingZeroB => {
            let p = cell(k, 3);
            b[p * n..p * n + n].fill(0.0);
            a[cell(m, 4) * k + p] = f32::INFINITY;
        }
        _ => {}
    }
    let mut c = naive(m, n, k, &a, &b);
    match fault {
        Fault::Corrupt => {
            let exp = (pick >> 8) as i32 % 8 - 4;
            c[cell(m * n, 5)] += 10f32.powi(exp);
        }
        Fault::Cancelling if n > 1 => {
            let i = cell(m, 6);
            let j1 = cell(n, 7);
            let j2 = (j1 + 1 + cell(n - 1, 8)) % n;
            c[i * n + j1] += 1.0e3;
            c[i * n + j2] -= 1.0e3;
        }
        Fault::NonFiniteC | Fault::NonFiniteAandC => c[cell(m * n, 9)] = bad,
        _ => {}
    }
    (a, b, c)
}

/// Library and reference verdicts agree: both `Ok`, or the same
/// `check` and `round` with `max_residual` within 1e-9 relative.
fn assert_same_verdict(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &[f32],
) -> Result<(), TestCaseError> {
    let got = verify_output(m, n, k, a, b, c);
    let want = reference::verify_output(m, n, k, a, b, c);
    match (&got, &want) {
        (Ok(()), Ok(())) => Ok(()),
        (
            Err(GemmError::IntegrityViolation { check, round, max_residual }),
            Err(GemmError::IntegrityViolation {
                check: want_check,
                round: want_round,
                max_residual: want_residual,
            }),
        ) if check == want_check && round == want_round => {
            let same = if want_residual.is_finite() {
                (max_residual - want_residual).abs() <= 1e-9 * want_residual.abs()
            } else {
                max_residual == want_residual
            };
            prop_assert!(same, "{m}x{n}x{k}: residual {max_residual} vs {want_residual}");
            Ok(())
        }
        _ => Err(TestCaseError::fail(format!("{m}x{n}x{k}: got {got:?}, reference {want:?}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// False-negative bound, single-cell corruptions: a ±1 probe vector
    /// carries any lone perturbation straight into the row residual
    /// (`|residual| = |delta|`, sign-independent), so every corruption
    /// above the rounding tolerance is caught — across six orders of
    /// magnitude, any cell, any shape in the envelope, and always
    /// within the [`FREIVALDS_ROUNDS`] budget.
    #[test]
    fn corruption_above_tolerance_is_always_caught(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..13,
        cell in 0usize..4096,
        exp in 0i32..7,
        negative in proptest::bool::ANY,
        seed in 0u32..1000,
    ) {
        let (a, b) = data(m, n, k, seed);
        let mut c = naive(m, n, k, &a, &b);
        let delta = if negative { -(10f32.powi(exp)) } else { 10f32.powi(exp) };
        c[cell % (m * n)] += delta;
        match verify_output(m, n, k, &a, &b, &c) {
            Err(GemmError::IntegrityViolation { check, round, max_residual }) => {
                prop_assert_eq!(check, "freivalds");
                prop_assert!(round < FREIVALDS_ROUNDS);
                // The residual carries the corruption magnitude (±
                // accumulated rounding noise far below it).
                prop_assert!(
                    max_residual > f64::from(delta.abs()) * 0.5,
                    "residual {} vs delta {}", max_residual, delta
                );
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "{m}x{n}x{k} delta {delta}: corruption missed: {other:?}"
                )));
            }
        }
    }

    /// Zero false positives: clean oracle products pass at every shape
    /// in the envelope (the tolerance really does cover `f32` GEMM
    /// accumulation error).
    #[test]
    fn clean_products_never_false_positive(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..13,
        seed in 0u32..1000,
    ) {
        let (a, b) = data(m, n, k, seed);
        let c = naive(m, n, k, &a, &b);
        prop_assert!(verify_output(m, n, k, &a, &b, &c).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The single-pass check returns the serial reference's verdict on
    /// clean, corrupted and non-finite cases across lane-remainder row
    /// lengths up to the GEMV's 3136.
    #[test]
    fn single_pass_check_matches_the_serial_reference(
        m in 1usize..6,
        n_at in 0usize..SIZES.len(),
        k_at in 0usize..SIZES.len(),
        fault_at in 0usize..FAULTS.len(),
        rough in proptest::bool::ANY,
        pick in 0u64..1_000_000,
    ) {
        let n = SIZES[n_at];
        // Keep B at most the GEMV's 3136 x 64.
        let k = if n * SIZES[k_at] > 3136 * 64 { SIZES[k_at % 11] } else { SIZES[k_at] };
        let (a, b, c) = faulted_case(m, n, k, FAULTS[fault_at], rough, pick);
        assert_same_verdict(m, n, k, &a, &b, &c)?;
    }
}

/// Every listed `n` and `k` meets every fault at least once; an `Inf`
/// in A facing an all-zero B row (`Inf·0 = NaN` in the magnitude sum)
/// still reads as a non-finite input and skips the check.
#[test]
fn single_pass_check_matches_the_serial_reference_on_every_size() {
    for (s, &n) in SIZES.iter().enumerate() {
        for (t, &k) in SIZES.iter().enumerate() {
            if n * k > 3136 * 64 {
                continue;
            }
            for (f, &fault) in FAULTS.iter().enumerate() {
                let m = 1 + (s + t + f) % 3;
                let pick = (s * 131 + t * 17 + f) as u64;
                let (a, b, c) = faulted_case(m, n, k, fault, f % 2 == 1, pick);
                if let Err(e) = assert_same_verdict(m, n, k, &a, &b, &c) {
                    panic!("{fault:?}: {e:?}");
                }
                if matches!(fault, Fault::InfAFacingZeroB) {
                    assert_eq!(verify_output(m, n, k, &a, &b, &c), Ok(()), "{m}x{n}x{k}");
                }
            }
        }
    }
}

/// The multi-round rationale made concrete: two opposite corruptions in
/// one row cancel in a round whose probe signs agree on both columns
/// (exact-arithmetic miss probability 1/2 per round), and the next
/// round's independent signs break the cancellation. Over all column
/// pairs of this shape, some pair must be caught only in round 1 —
/// i.e. the second round genuinely tightens the false-negative bound.
#[test]
fn adversarial_cancellation_is_caught_by_a_later_round() {
    let (m, n, k) = (8usize, 20usize, 10usize);
    let (a, b) = data(m, n, k, 42);
    let clean = naive(m, n, k, &a, &b);
    let mut round1_catches = 0u32;
    let mut caught = 0u32;
    let mut pairs = 0u32;
    for j1 in 0..n {
        for j2 in (j1 + 1)..n {
            pairs += 1;
            let mut c = clean.clone();
            c[3 * n + j1] += 1.0e3;
            c[3 * n + j2] -= 1.0e3;
            match verify_output(m, n, k, &a, &b, &c) {
                Err(GemmError::IntegrityViolation { round, .. }) => {
                    caught += 1;
                    if round == 1 {
                        round1_catches += 1;
                    }
                }
                Ok(()) => {} // cancelled in every round: the 2^-rounds tail
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
    }
    assert!(round1_catches > 0, "no pair needed round 1 ({caught}/{pairs} caught)");
    // The probabilistic bound: ~3/4 of pairs caught with 2 rounds. Allow
    // a wide band; the point is the tail is small, not its exact size.
    assert!(
        f64::from(caught) > 0.5 * f64::from(pairs),
        "detection rate collapsed: {caught}/{pairs}"
    );
}

/// Same seed, same verdict: the probe vectors are a pure function of
/// `(m, n, k, round)`, so concurrent verifications of the same buffers
/// return bit-identical verdicts — no time, RNG or scheduling leaks in.
#[test]
fn verdict_is_deterministic_across_concurrent_checkers() {
    let (m, n, k) = (24usize, 20usize, 12usize);
    let (a, b) = data(m, n, k, 7);
    let mut c = naive(m, n, k, &a, &b);
    c[5 * n + 3] += 1.0e3;
    let (a, b, c) = (&a, &b, &c);
    let verdicts: Vec<_> = std::thread::scope(|s| {
        (0..8)
            .map(|_| s.spawn(move || verify_output(m, n, k, a, b, c)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("checker panicked"))
            .collect()
    });
    let first = &verdicts[0];
    assert!(first.is_err());
    for v in &verdicts {
        assert_eq!(v, first, "verdicts diverged across threads");
    }
}

/// Engine-level determinism: the verified engine path produces the same
/// (passing) verdict at 1, 2 and 8 threads — thread count changes the
/// schedule, never the attested output or the probe vectors.
#[test]
fn engine_verification_passes_at_every_thread_count() {
    let engine = AutoGemm::new(ChipSpec::graviton2()).with_verify_policy(VerifyPolicy::Always);
    let (m, n, k) = (40usize, 36usize, 24usize);
    let (a, b) = data(m, n, k, 11);
    let want = naive(m, n, k, &a, &b);
    for threads in [1usize, 2, 8] {
        let mut c = vec![0.0f32; m * n];
        engine
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(threads))
            .unwrap_or_else(|e| panic!("t{threads}: verified run flagged: {e:?}"));
        assert_eq!(c, want, "t{threads}: exact-representable data must match the oracle");
    }
}
