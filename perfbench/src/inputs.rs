//! Seeded operands and the benchmark-side f64 reference every output is
//! checked against.

use std::sync::OnceLock;

/// SplitMix64: a small, fully specified generator, so one seed gives the
/// same matrices on every host and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`, on a 2^-23 grid (exact in `f32`).
    pub fn unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 23) as f32) - 1.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One GEMM shape `C (m×n) = A (m×k) · B (k×n)`, row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl Shape {
    pub const fn new(m: usize, n: usize, k: usize) -> Shape {
        Shape { m, n, k }
    }

    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Whether the engine runs the shape on its packed block driver
    /// rather than a GEMV or small-`k` fast path (the engine's documented
    /// dispatch rule: `m = 1`, `n = 1` or `k <= 8` take a fast path).
    pub fn is_block(&self) -> bool {
        self.m > 1 && self.n > 1 && self.k > SMALL_K_MAX
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// Largest `k` the engine sends down its small-`k` route.
const SMALL_K_MAX: usize = 8;

/// One shape's seeded operands. The f64 reference product and the
/// per-row / per-column norms its error tolerance is built from are
/// computed on the first check.
pub struct Problem {
    pub shape: Shape,
    pub a: Vec<f32>,
    pub b: Vec<f32>,
    reference: OnceLock<Reference>,
}

struct Reference {
    c: Vec<f64>,
    a_row_norm: Vec<f64>,
    b_col_norm: Vec<f64>,
}

/// Relative tolerance against `‖A_i‖·‖B_j‖ ≥ Σ_p |A_ip·B_pj|`: far above
/// the f32 rounding of any summation order the kernels use at these `k`,
/// far below the error of a dropped or duplicated `k`-block.
const REL_TOL: f64 = 1e-5;

impl Problem {
    /// Operands for `shape`, drawn from `seed` and the shape's position
    /// `index` in its workload.
    pub fn new(shape: Shape, seed: u64, index: usize) -> Problem {
        let mut rng = Rng::new(seed ^ (index as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let Shape { m, n, k } = shape;
        let a: Vec<f32> = (0..m * k).map(|_| rng.unit()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.unit()).collect();
        Problem { shape, a, b, reference: OnceLock::new() }
    }

    fn reference(&self) -> &Reference {
        self.reference.get_or_init(|| {
            let Shape { m, n, k } = self.shape;
            let b64: Vec<f64> = self.b.iter().map(|&v| f64::from(v)).collect();
            let mut c = vec![0.0f64; m * n];
            for (i, row) in c.chunks_exact_mut(n).enumerate() {
                for p in 0..k {
                    let aip = f64::from(self.a[i * k + p]);
                    for (r, &bv) in row.iter_mut().zip(&b64[p * n..(p + 1) * n]) {
                        *r += aip * bv;
                    }
                }
            }
            let a_row_norm = self
                .a
                .chunks_exact(k)
                .map(|row| row.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>().sqrt())
                .collect();
            let mut b_col_sq = vec![0.0f64; n];
            for row in b64.chunks_exact(n) {
                for (s, &v) in b_col_sq.iter_mut().zip(row) {
                    *s += v * v;
                }
            }
            let b_col_norm = b_col_sq.into_iter().map(f64::sqrt).collect();
            Reference { c, a_row_norm, b_col_norm }
        })
    }

    /// A zeroed output buffer of the right size.
    pub fn output(&self) -> Vec<f32> {
        vec![0.0; self.shape.m * self.shape.n]
    }

    /// Cells of `c` that disagree with the f64 reference beyond tolerance.
    pub fn mismatches(&self, c: &[f32]) -> usize {
        let r = self.reference();
        if c.len() != r.c.len() {
            return r.c.len().max(1);
        }
        let n = self.shape.n;
        c.iter()
            .zip(&r.c)
            .enumerate()
            .filter(|&(idx, (&got, &want))| {
                let tol = REL_TOL * r.a_row_norm[idx / n] * r.b_col_norm[idx % n] + 1e-30;
                !(f64::from(got) - want).abs().le(&tol)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_operands() {
        let s = Shape::new(5, 7, 3);
        let (p, q) = (Problem::new(s, 42, 1), Problem::new(s, 42, 1));
        assert_eq!(p.a, q.a);
        assert_eq!(p.b, q.b);
        assert_ne!(p.a, Problem::new(s, 43, 1).a);
    }

    #[test]
    fn reference_accepts_exact_and_rejects_corrupt() {
        let s = Shape::new(6, 5, 9);
        let p = Problem::new(s, 7, 0);
        let mut c: Vec<f32> = p.reference().c.iter().map(|&v| v as f32).collect();
        assert_eq!(p.mismatches(&c), 0);
        c[3] += 0.5;
        assert_eq!(p.mismatches(&c), 1);
        c[4] = f32::NAN;
        assert_eq!(p.mismatches(&c), 2);
    }
}
