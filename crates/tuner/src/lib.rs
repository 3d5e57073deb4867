//! # autogemm-tuner
//!
//! Schedule auto-tuning — the reproduction's stand-in for the paper's
//! patched TVM + AutoTVM stack (§IV-C).
//!
//! The tuned parameter space is exactly Table III's algorithm half:
//!
//! * **cache blocks** `(m_c, n_c, k_c)` — divisor-constrained candidates
//!   (`M % m_c = 0`, `N % n_c = 0`, `K % k_c = 0`, §IV-C2);
//! * **loop order** `σ_order` — all `5! = 120` permutations of the
//!   `(M_c, N_c, K_c, M_r, N_r)` loops;
//! * **packing** `σ_packing` — `none`, `offline`, or `online`;
//! * **micro-tile** — chosen per block by DMT (Algorithm 1).
//!
//! Components:
//!
//! * [`space`] — candidate enumeration and the [`space::Schedule`] type;
//! * [`cost`] — the pruning cost model: Eqn 13 block cycles + a loop-order
//!   data-traffic model + packing overheads + cache-capacity penalties;
//! * [`surrogate`] — a gradient-boosted-stumps regressor standing in for
//!   AutoTVM's XGBoost cost model;
//! * [`anneal()`] — simulated annealing over the space (AutoTVM's search),
//!   using the surrogate for cheap ranking and the true model for the
//!   short-list;
//! * [`tune`] / [`ScheduleCache`] — the front door: tune a `(chip, M, N,
//!   K)` problem, memoizing results.

pub mod anneal;
pub mod cost;
pub mod space;
pub mod surrogate;

pub use anneal::{anneal, anneal_logged, AnnealConfig, RoundLog};
pub use cost::{schedule_cost, CostBreakdown};
pub use space::{enumerate_blocks, LoopOrder, Packing, Schedule, SearchSpace};

use autogemm_arch::ChipSpec;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Tune a schedule for `C(M×N) += A(M×K)·B(K×N)` on `chip`.
///
/// Exhaustively scores the pruned candidate list with the cost model when
/// it is small, and falls back to surrogate-guided simulated annealing for
/// large spaces — mirroring how the paper uses Eqn 13 to prune before
/// handing the rest to TVM.
pub fn tune(m: usize, n: usize, k: usize, chip: &ChipSpec) -> Schedule {
    tune_with(m, n, k, chip, false)
}

/// [`tune`] with offline packing optionally on the menu (enable it when
/// the packed `B` will be reused across calls, as in the paper's
/// LibShalom-comparable configuration).
pub fn tune_with(m: usize, n: usize, k: usize, chip: &ChipSpec, allow_offline: bool) -> Schedule {
    let mut space = SearchSpace::new(m, n, k, chip);
    if allow_offline {
        space = space.with_offline();
    }
    // The pruned exhaustive pass: every block candidate under the best
    // loop order / packing found per block by local reasoning.
    if space.block_candidates.len() * 6 <= 4096 {
        let mut best: Option<(f64, Schedule)> = None;
        for sched in space.pruned_candidates() {
            let c = schedule_cost(&sched, chip).total();
            if best.as_ref().is_none_or(|(b, _)| c < *b) {
                best = Some((c, sched));
            }
        }
        best.expect("non-empty search space").1
    } else {
        anneal(&space, chip, &AnnealConfig::default())
    }
}

/// Tune under the multi-core constraint the paper inherits from TVM
/// (§V-C): the K loop cannot be parallelized, and in the multi-threaded
/// configuration `k_c` stays consistent with `K` — which is exactly why
/// large-K ResNet layers (L7, L12, L17, L20) lose performance on many
/// cores (Fig 9, lower).
pub fn tune_multicore(
    m: usize,
    n: usize,
    k: usize,
    chip: &ChipSpec,
    allow_offline: bool,
    threads: usize,
) -> Schedule {
    rank_multicore(m, n, k, chip, allow_offline, threads)
        .into_iter()
        .next()
        .expect("non-empty search space")
}

/// Every pruned multicore candidate, best model score first (ties keep
/// enumeration order): the ranking [`tune_multicore`] takes the head of
/// and [`tune_multicore_topk`] shortlists from.
fn rank_multicore(
    m: usize,
    n: usize,
    k: usize,
    chip: &ChipSpec,
    allow_offline: bool,
    threads: usize,
) -> Vec<Schedule> {
    let mut space = SearchSpace::new(m, n, k, chip);
    if allow_offline {
        space = space.with_offline();
    }
    space.block_candidates.retain(|&(_, _, kc)| kc == k);
    // Keep enough C blocks to feed every thread (blocks are the unit of
    // parallel work; K is never split).
    let parallel: Vec<_> = space
        .block_candidates
        .iter()
        .copied()
        .filter(|&(mc, nc, _)| (m / mc) * (n / nc) >= threads)
        .collect();
    if !parallel.is_empty() {
        space.block_candidates = parallel;
    }
    if space.block_candidates.is_empty() {
        // Large K: no kc = K block fits the cache budget — enumerate
        // oversized blocks anyway (this overflow is the performance dip
        // the paper observes).
        let sigma = chip.sigma_lane();
        for &mc in space::divisors(m).iter().filter(|&&mc| mc <= 128) {
            for &nc in
                space::divisors(n).iter().filter(|&&nc| (nc % sigma == 0 && nc <= 512) || nc == n)
            {
                space.block_candidates.push((mc, nc, k));
            }
        }
    }
    // Threads-aware scoring: per-thread compute versus machine-level
    // bandwidth (single-core scoring would never pay for packing that only
    // matters once 70 cores contend for memory).
    let score = |sched: &Schedule| -> f64 {
        let parts = schedule_cost(sched, chip);
        let freq_hz = chip.freq_ghz * 1e9;
        let compute_s = parts.compute / threads as f64 / freq_hz;
        let pack_s = parts.packing / threads as f64 / freq_hz;
        let bytes = cost::traffic_bytes(sched) * cost::no_packing_penalty(sched, chip);
        let bw_s = bytes / (chip.numa.total_bw_gbs() * 1e9);
        compute_s.max(bw_s) + 0.25 * compute_s.min(bw_s) + pack_s
    };
    let mut scored: Vec<(f64, Schedule)> =
        space.pruned_candidates().map(|sched| (score(&sched), sched)).collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    scored.into_iter().map(|(_, s)| s).collect()
}

/// The top-`k` multicore schedule candidates by model score, deduplicated
/// by cache-block shape. The engine verifies these on the simulator and
/// keeps the measured best — the AutoTVM measure-the-shortlist workflow,
/// which matters on chips whose pipelines the analytic model captures
/// imperfectly.
pub fn tune_multicore_topk(
    m: usize,
    n: usize,
    k: usize,
    chip: &ChipSpec,
    allow_offline: bool,
    threads: usize,
    topk: usize,
) -> Vec<Schedule> {
    let ranked = rank_multicore(m, n, k, chip, allow_offline, threads);
    // Diversity: at most two shortlist entries per block-area octave, so
    // the simulator sees genuinely different blockings, not six near-twins.
    let mut out: Vec<Schedule> = Vec::new();
    let mut per_bucket: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for s in &ranked {
        if out.iter().any(|o| (o.mc, o.nc, o.kc) == (s.mc, s.nc, s.kc)) {
            continue;
        }
        let bucket = ((s.mc * s.nc).max(1) as f64).log2() as u32;
        let count = per_bucket.entry(bucket).or_insert(0);
        if *count >= 2 {
            continue;
        }
        *count += 1;
        out.push(s.clone());
        if out.len() >= topk {
            break;
        }
    }
    // Always include the largest parallel-feasible block (often what a
    // latency-sensitive pipeline wants even when the model disagrees).
    if let Some(big) = ranked.iter().max_by_key(|s| s.mc * s.nc) {
        if !out.iter().any(|o| (o.mc, o.nc, o.kc) == (big.mc, big.nc, big.kc)) {
            out.push(big.clone());
        }
    }
    out
}

/// A memoizing cache of tuned schedules, keyed by `(chip id, M, N, K)` —
/// the library's equivalent of autoGEMM's generated-kernel package.
#[derive(Default)]
pub struct ScheduleCache {
    inner: RwLock<HashMap<(String, usize, usize, usize), Schedule>>,
}

impl ScheduleCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch a tuned schedule, tuning on miss.
    pub fn get(&self, m: usize, n: usize, k: usize, chip: &ChipSpec) -> Schedule {
        let key = (chip.id.to_string(), m, n, k);
        if let Some(s) = self.inner.read().get(&key) {
            return s.clone();
        }
        let s = tune(m, n, k, chip);
        self.inner.write().insert(key, s.clone());
        s
    }

    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_schedule_respects_divisor_constraints() {
        let chip = ChipSpec::graviton2();
        for (m, n, k) in [(64, 64, 64), (256, 3136, 64), (26, 36, 64)] {
            let s = tune(m, n, k, &chip);
            assert_eq!(m % s.mc, 0, "{m}%{}", s.mc);
            assert_eq!(n % s.nc, 0);
            assert_eq!(k % s.kc, 0);
        }
    }

    #[test]
    fn cache_memoizes() {
        let chip = ChipSpec::kp920();
        let cache = ScheduleCache::new();
        let a = cache.get(64, 64, 64, &chip);
        let b = cache.get(64, 64, 64, &chip);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn small_n_prefers_no_packing() {
        // §IV-C2: "When the N dimension is relatively small ... we skip the
        // packing step."
        let chip = ChipSpec::graviton2();
        let small_n = tune(512, 16, 512, &chip);
        assert_eq!(small_n.packing, Packing::None, "small N should skip packing");
    }

    #[test]
    fn big_irregular_shapes_pick_packing() {
        let chip = ChipSpec::graviton2();
        let s = tune(256, 3136, 64, &chip);
        assert_ne!(s.packing, Packing::None, "large N benefits from packing");
        // With reuse promised, offline packing becomes available and wins.
        let off = tune_with(256, 3136, 64, &chip, true);
        assert_eq!(off.packing, Packing::Offline);
    }

    #[test]
    fn tuned_blocks_fit_in_cache() {
        let chip = ChipSpec::kp920();
        let s = tune(256, 3136, 512, &chip);
        // Working set of one block: A(mc×kc) + B(kc×nc) + C(mc×nc).
        let ws = 4 * (s.mc * s.kc + s.kc * s.nc + s.mc * s.nc);
        let l2 = chip.caches[1].size_bytes;
        assert!(ws <= 2 * l2, "block working set {ws} vs L2 {l2}");
    }
}
