//! Always-compiled output-integrity layer: Freivalds' probabilistic
//! result verification plus non-finite detection.
//!
//! The supervision stack makes the engine survive panics, stalls and
//! deadline blowouts — but none of that detects a *silently wrong
//! answer*: a miscompiled SIMD path, a corrupted prepacked panel or a
//! bit-flip under memory pressure would serve a bad `C` with `Ok(())`.
//! This module closes that gap at runtime, cheaply:
//!
//! * **Freivalds' check.** Instead of recomputing `A·B` (O(mnk)), draw
//!   a random ±1 vector `x` and compare `C·x` against `A·(B·x)` —
//!   three matrix-vector products, O(mn + kn + mk) per round. A wrong
//!   `C` survives one round with probability ≤ 1/2, so
//!   [`FREIVALDS_ROUNDS`] independent rounds bound the false-negative
//!   rate at `2^-rounds` *for exact arithmetic*; the floating-point
//!   tolerance below keeps the guarantee meaningful for `f32` GEMM.
//!   The random vectors are seeded from `(m, n, k, round)` only — never
//!   from time, thread count or scheduling — so a verdict is
//!   bit-reproducible across runs and thread counts.
//! * **Tolerance derivation.** The engine's `f32` GEMM accumulates `k`
//!   products per element, so element `(i, j)` carries rounding error
//!   up to `γ_k · Σ_p |A_ip||B_pj|` with `γ_k ≈ k · ε_f32`. Dotting a
//!   ±1 vector through row `i` of that error bound gives
//!   `|r_i| ≤ k · ε_f32 · Σ_p |A_ip| · (Σ_j |B_pj|)`, and storing `C`
//!   in `f32` adds at most `ε_f32 · Σ_j |C_ij|`. The check computes
//!   both magnitude sums in `f64` alongside the products and accepts a
//!   residual within that bound times a safety factor (plus a tiny
//!   absolute floor for all-zero rows). The check's own `f64` dot
//!   products contribute error orders of magnitude below the `f32`
//!   terms and are ignored.
//! * **Non-finite detection.** If `A` and `B` are finite but `C`
//!   contains a `NaN`/`Inf`, the kernel corrupted the output regardless
//!   of what Freivalds would say (`NaN` also poisons the residual), so
//!   that verdict (`check: "non_finite"`) wins over any residual. If the
//!   *inputs* already contain non-finite values, no check can attest
//!   anything — verification is skipped so garbage-in never reads as a
//!   false positive. No separate scan finds these values: a row's `f64`
//!   magnitude sum `Σ|v|` is finite exactly when every entry of the row
//!   is, and an `Inf` in `A` facing an all-zero row of `B` gives
//!   `Inf·0 = NaN` in `Σ_p |A_ip|·Σ_j|B_pj|`, which reads as non-finite
//!   too.
//! * **One pass per operand.** The check is load-bound (about half a
//!   flop per byte), so it reads each operand once. Both rounds' probe
//!   vectors are drawn up front; one pass over `B` yields `Σ_j |B_pj|`
//!   and `B·x` for both rounds; one pass over each row of `A` yields
//!   its magnitude bound and `A·(B·x)` for both rounds; one pass over
//!   the same row of `C` yields `Σ_j |C_ij|`, `C·x` for both rounds and
//!   both residuals. Each sum accumulates in a fixed number of
//!   independent `f64` lanes instead of one serial accumulator, so the
//!   loop runs at load speed rather than one add latency per element;
//!   the lane count and reduction order depend on nothing but the row
//!   length, so verdicts stay deterministic and independent of thread
//!   count and target.
//!
//! Selection is governed by [`VerifyPolicy`], threaded per call
//! ([`GemmOptions::verify`](crate::supervisor::GemmOptions)), per
//! engine ([`AutoGemm::with_verify_policy`](crate::engine::AutoGemm))
//! and per tenant ([`TenantQuota::verify`](crate::service::TenantQuota)).
//! On mismatch the engine surfaces
//! [`GemmError::IntegrityViolation`](crate::error::GemmError), records
//! a failure on the `verify_integrity` breaker path (a repeatedly wrong
//! dispatch path is quarantined to the scalar reference kernels), and
//! [`try_gemm_resilient`](crate::engine::AutoGemm::try_gemm_resilient)
//! re-executes on the trusted scalar path. See DESIGN.md §11.

use crate::error::GemmError;

/// How many independent Freivalds rounds a verification runs. Two
/// rounds bound the exact-arithmetic false-negative rate at 1/4; in
/// practice a ±1 probe vector misses a corrupted element only when the
/// corruptions cancel in the row sum, which the second round's
/// independent signs break.
pub const FREIVALDS_ROUNDS: u32 = 2;

/// Safety factor applied to the derived rounding-error bound; absorbs
/// blocked-accumulation reassociation (the tiled drivers sum in a
/// different order than the bound's worst case assumes).
const TOLERANCE_SAFETY: f64 = 16.0;

/// Absolute tolerance floor, so all-zero rows (magnitude bound 0) still
/// accept an exactly-zero residual without a strict equality test.
const TOLERANCE_FLOOR: f64 = 1e-6;

/// When (and how often) the engine verifies computed outputs.
///
/// Resolution order: a non-`Off` per-call policy
/// ([`GemmOptions::verify`](crate::supervisor::GemmOptions)) wins;
/// otherwise a non-`Off` tenant policy
/// ([`TenantQuota::verify`](crate::service::TenantQuota)) is injected
/// by the service; otherwise the engine default
/// ([`AutoGemm::with_verify_policy`](crate::engine::AutoGemm)) applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// Never verify (the default).
    #[default]
    Off,
    /// Verify one call in `rate` (a `rate` of 16 verifies ~6.25% of
    /// calls). Sampling is deterministic per engine — a monotone
    /// sequence counter, not a clock or RNG — so a rate-`r` policy
    /// verifies exactly every `r`-th sampled call. `rate <= 1` behaves
    /// like [`VerifyPolicy::Always`].
    Sample { rate: u32 },
    /// Verify every call.
    Always,
}

impl VerifyPolicy {
    /// Stable lowercase name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            VerifyPolicy::Off => "off",
            VerifyPolicy::Sample { .. } => "sample",
            VerifyPolicy::Always => "always",
        }
    }

    /// The sampling denominator: 0 for `Off`, 1 for `Always`, `rate`
    /// (clamped to ≥ 1) for `Sample`.
    pub fn sample_rate(self) -> u64 {
        match self {
            VerifyPolicy::Off => 0,
            VerifyPolicy::Always => 1,
            VerifyPolicy::Sample { rate } => u64::from(rate.max(1)),
        }
    }

    /// Whether the call holding sequence number `seq` (a per-engine
    /// monotone counter) should verify under this policy.
    pub fn should_run(self, seq: u64) -> bool {
        match self {
            VerifyPolicy::Off => false,
            VerifyPolicy::Always => true,
            VerifyPolicy::Sample { rate } => {
                let rate = u64::from(rate.max(1));
                seq.is_multiple_of(rate)
            }
        }
    }
}

/// splitmix64 finalizer: mixes shape/round into a seed with full
/// avalanche so nearby shapes get unrelated probe vectors. Shared with
/// the fault injector's deterministic output-corruption payload.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xorshift64 stream the probe-vector signs are drawn from.
struct SignStream {
    state: u64,
    bits: u64,
    left: u32,
}

impl SignStream {
    /// Seeded from shape and round only — see the module docs on
    /// determinism.
    fn new(m: usize, n: usize, k: usize, round: u32) -> Self {
        let seed = mix((m as u64)
            ^ mix((n as u64) ^ mix((k as u64) ^ (u64::from(round) << 32) ^ 0xA076_1D64_78BD_642F)));
        SignStream { state: seed | 1, bits: 0, left: 0 }
    }

    /// Next ±1 sign.
    fn next_sign(&mut self) -> f64 {
        if self.left == 0 {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            self.bits = self.state;
            self.left = 64;
        }
        let bit = self.bits & 1;
        self.bits >>= 1;
        self.left -= 1;
        if bit == 1 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Independent `f64` accumulators per sum. A serial `acc += …` waits
/// one add latency per element because the compiler may not
/// reassociate it; independent lanes hide that latency and let the
/// loop vectorize on every target. The count is fixed — not the
/// target's vector width — so the summation order, and with it every
/// verdict, is the same on every target and at every thread count.
/// Four lanes of magnitude plus four lanes of probe pairs fit the
/// sixteen vector registers of baseline x86-64; eight spill.
const LANES: usize = 4;

/// Both rounds' entries side by side (`[round 0, round 1]`), so one row
/// element updates both rounds' sums with one paired multiply-add.
type Pair = [f64; 2];

// The single pass carries exactly two probe vectors.
const _: () = assert!(FREIVALDS_ROUNDS == 2);

/// Fixed-order reduction of one lane set.
fn reduce(l: [f64; LANES]) -> f64 {
    (l[0] + l[1]) + (l[2] + l[3])
}

fn reduce_pairs(l: [Pair; LANES]) -> Pair {
    [reduce(l.map(|s| s[0])), reduce(l.map(|s| s[1]))]
}

/// One read of a row `r` against paired probe entries `x`:
/// `([Σ_j r_j·x_j[0], Σ_j r_j·x_j[1]], Σ_j |r_j|)`. The tail
/// (`len % LANES`) lands in the first lanes, so the summation order
/// depends on the length only.
fn probe_row(row: &[f32], x: &[Pair]) -> (Pair, f64) {
    debug_assert_eq!(row.len(), x.len());
    let mut dot = [[0.0f64; 2]; LANES];
    let mut mag = [0.0f64; LANES];
    let (rc, rt) = row.as_chunks::<LANES>();
    let (xc, xt) = x.as_chunks::<LANES>();
    for (r, x) in rc.iter().zip(xc) {
        for l in 0..LANES {
            let e = f64::from(r[l]);
            mag[l] += e.abs();
            dot[l][0] += e * x[l][0];
            dot[l][1] += e * x[l][1];
        }
    }
    for (l, (&e, x)) in rt.iter().zip(xt).enumerate() {
        let e = f64::from(e);
        mag[l] += e.abs();
        dot[l][0] += e * x[0];
        dot[l][1] += e * x[1];
    }
    (reduce_pairs(dot), reduce(mag))
}

/// [`probe_row`] with the magnitude weighted: `Σ_j |r_j|·w_j`.
fn weighted_probe_row(row: &[f32], w: &[f64], x: &[Pair]) -> (Pair, f64) {
    debug_assert!(row.len() == w.len() && row.len() == x.len());
    let mut dot = [[0.0f64; 2]; LANES];
    let mut mag = [0.0f64; LANES];
    let (rc, rt) = row.as_chunks::<LANES>();
    let (wc, wt) = w.as_chunks::<LANES>();
    let (xc, xt) = x.as_chunks::<LANES>();
    for ((r, w), x) in rc.iter().zip(wc).zip(xc) {
        for l in 0..LANES {
            let e = f64::from(r[l]);
            mag[l] += e.abs() * w[l];
            dot[l][0] += e * x[l][0];
            dot[l][1] += e * x[l][1];
        }
    }
    for (l, ((&e, &w), x)) in rt.iter().zip(wt).zip(xt).enumerate() {
        let e = f64::from(e);
        mag[l] += e.abs() * w;
        dot[l][0] += e * x[0];
        dot[l][1] += e * x[1];
    }
    (reduce_pairs(dot), reduce(mag))
}

/// Verify `C ≈ A·B` (`A` is `m×k`, `B` is `k×n`, `C` is `m×n`, all
/// row-major) with non-finite detection plus [`FREIVALDS_ROUNDS`]
/// Freivalds rounds, in one pass over each operand.
///
/// Returns `Ok(())` when the output is consistent **or** when the
/// inputs already contain non-finite values (nothing can be attested —
/// see the module docs). Returns
/// [`GemmError::IntegrityViolation`](crate::error::GemmError) naming
/// the failed detector otherwise: `non_finite` (round 0) if `C` holds a
/// `NaN`/`Inf`, else `freivalds` with the first violated round and that
/// round's largest residual. Slice lengths are the caller's contract
/// (the engine validates before computing); mismatched lengths here
/// panic via slice indexing like any other library bug.
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
    // Both rounds' probe vectors, drawn up front: x[j] = [x₀_j, x₁_j].
    let mut signs = [SignStream::new(m, n, k, 0), SignStream::new(m, n, k, 1)];
    let x: Vec<Pair> = (0..n).map(|_| signs.each_mut().map(SignStream::next_sign)).collect();

    // One pass over B: y[p] = [(B·x₀)_p, (B·x₁)_p] and babs[p] =
    // Σ_j |B[p,j]|. A magnitude sum is finite exactly when its row is.
    let mut y = vec![[0.0f64; 2]; k];
    let mut babs = vec![0.0f64; k];
    for p in 0..k {
        (y[p], babs[p]) = probe_row(&b[p * n..p * n + n], &x);
        if !babs[p].is_finite() {
            return Ok(());
        }
    }

    let eps = f64::from(f32::EPSILON);
    let gamma = eps * (k.max(1) as f64) * TOLERANCE_SAFETY;
    let mut c_non_finite = false;
    // Per round, the largest residual over the rows that broke tolerance.
    let mut worst: [Option<f64>; 2] = [None; 2];
    for i in 0..m {
        // One pass over row i of A: z = (A·y)_i for both rounds, and
        // mag = Σ_p |A_ip|·babs[p] bounds row i of |A|·|B|·1. An Inf in
        // A facing an all-zero B row gives Inf·0 = NaN, so mag too is
        // finite exactly when the row is.
        let (z, mag) = weighted_probe_row(&a[i * k..i * k + k], &babs, &y);
        if !mag.is_finite() {
            return Ok(());
        }
        if c_non_finite {
            // Only a non-finite A can still change the verdict.
            continue;
        }
        // One pass over row i of C: w = (C·x)_i for both rounds and the
        // storage term cmag = Σ_j |C_ij|, then both rounds' residuals.
        let (w, cmag) = probe_row(&c[i * n..i * n + n], &x);
        if !cmag.is_finite() {
            c_non_finite = true;
            continue;
        }
        let tolerance = gamma * mag + eps * TOLERANCE_SAFETY * cmag + TOLERANCE_FLOOR;
        for (worst, (w, z)) in worst.iter_mut().zip(w.into_iter().zip(z)) {
            let residual = (w - z).abs();
            if residual > tolerance {
                *worst = Some(worst.map_or(residual, |r| r.max(residual)));
            }
        }
    }
    if c_non_finite {
        return Err(GemmError::IntegrityViolation {
            check: "non_finite",
            round: 0,
            max_residual: f64::INFINITY,
        });
    }
    for (round, worst) in (0..FREIVALDS_ROUNDS).zip(worst) {
        if let Some(max_residual) = worst {
            return Err(GemmError::IntegrityViolation { check: "freivalds", round, max_residual });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(m: usize, n: usize, k: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 52) as f32 / 415.0 - 4.9
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        (a, b)
    }

    fn oracle(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
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

    #[test]
    fn clean_product_passes() {
        for &(m, n, k) in &[(1usize, 1usize, 1usize), (7, 5, 3), (40, 36, 24), (1, 64, 16)] {
            let (a, b) = data(m, n, k, 0x5EED ^ (m as u64) << 8 ^ n as u64);
            let c = oracle(m, n, k, &a, &b);
            verify_output(m, n, k, &a, &b, &c).expect("clean product must pass");
        }
    }

    #[test]
    fn corrupted_element_is_caught() {
        let (m, n, k) = (24, 20, 12);
        let (a, b) = data(m, n, k, 7);
        let mut c = oracle(m, n, k, &a, &b);
        c[5 * n + 3] += 1.0e3;
        let err = verify_output(m, n, k, &a, &b, &c).unwrap_err();
        match err {
            GemmError::IntegrityViolation { check, max_residual, .. } => {
                assert_eq!(check, "freivalds");
                assert!(max_residual > 100.0, "residual was {max_residual}");
            }
            other => panic!("expected IntegrityViolation, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_output_is_caught_with_its_own_check_name() {
        let (m, n, k) = (6, 6, 4);
        let (a, b) = data(m, n, k, 9);
        let mut c = oracle(m, n, k, &a, &b);
        c[10] = f32::NAN;
        let err = verify_output(m, n, k, &a, &b, &c).unwrap_err();
        assert!(
            matches!(err, GemmError::IntegrityViolation { check: "non_finite", round: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn non_finite_inputs_skip_verification_entirely() {
        let (m, n, k) = (4, 4, 4);
        let (mut a, b) = data(m, n, k, 11);
        a[3] = f32::INFINITY;
        // C is garbage, but nothing can be attested from garbage inputs.
        let c = vec![f32::NAN; m * n];
        verify_output(m, n, k, &a, &b, &c).expect("non-finite inputs must not false-positive");
    }

    #[test]
    fn degenerate_shapes_pass_trivially() {
        verify_output(0, 4, 4, &[], &[0.0; 16], &[]).unwrap();
        verify_output(4, 0, 4, &[0.0; 16], &[], &[]).unwrap();
        // k == 0: C must be the empty sum (all zeros).
        verify_output(2, 2, 0, &[], &[], &[0.0; 4]).unwrap();
    }

    #[test]
    fn sign_stream_is_deterministic_and_balanced() {
        let mut s1 = SignStream::new(40, 36, 24, 1);
        let mut s2 = SignStream::new(40, 36, 24, 1);
        let mut pos = 0usize;
        for _ in 0..4096 {
            let v = s1.next_sign();
            assert_eq!(v, s2.next_sign());
            if v > 0.0 {
                pos += 1;
            }
        }
        // xorshift bits are balanced; allow a generous band.
        assert!((1536..=2560).contains(&pos), "sign bias: {pos}/4096 positive");
        // Different rounds draw different vectors.
        let mut s3 = SignStream::new(40, 36, 24, 0);
        let first: Vec<f64> = (0..64).map(|_| s3.next_sign()).collect();
        let mut s4 = SignStream::new(40, 36, 24, 1);
        let second: Vec<f64> = (0..64).map(|_| s4.next_sign()).collect();
        assert_ne!(first, second);
    }

    #[test]
    fn policy_sampling_is_deterministic() {
        assert!(!VerifyPolicy::Off.should_run(0));
        assert!(VerifyPolicy::Always.should_run(3));
        let p = VerifyPolicy::Sample { rate: 4 };
        let picks: Vec<bool> = (0..12).map(|s| p.should_run(s)).collect();
        assert_eq!(picks.iter().filter(|&&x| x).count(), 3);
        assert!(picks[0] && picks[4] && picks[8]);
        // rate <= 1 degenerates to Always.
        assert!(VerifyPolicy::Sample { rate: 0 }.should_run(7));
        assert_eq!(VerifyPolicy::Sample { rate: 16 }.sample_rate(), 16);
        assert_eq!(VerifyPolicy::Always.sample_rate(), 1);
        assert_eq!(VerifyPolicy::Off.sample_rate(), 0);
        assert_eq!(VerifyPolicy::Sample { rate: 16 }.name(), "sample");
    }
}
