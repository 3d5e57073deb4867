//! Simulated execution backend: runs the generated virtual-ISA kernels on
//! the cycle-level machine model of `autogemm-sim`, block by block.
//!
//! One interior cache block is simulated as a fused micro-kernel chain
//! (§III-C2) against the chip's cache hierarchy; the engine memoizes its
//! cycle count per distinct block and composes it over the block grid
//! analytically — the hybrid simulation strategy described in DESIGN.md.
//! Long chains are sampled: the steady-state per-tile cost is measured
//! over a window and extrapolated, which keeps ResNet-scale problems
//! simulable in milliseconds without losing the warm-up transient.

use crate::plan::ExecutionPlan;
use autogemm_arch::ChipSpec;
use autogemm_kernelgen::{MicroKernelSpec, PipelineOpts, Strides, TileInvocation};
use autogemm_sim::{run_chain, run_unfused, KernelBuffers, ThreadWork, Warmth};
use autogemm_tuner::cost::{no_packing_penalty, packing_cycles};
use autogemm_tuner::{Packing, Schedule};

/// Simulated cost of one interior cache block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCost {
    pub cycles: u64,
    /// Micro-kernel launches charged.
    pub tiles: u64,
}

/// Maximum tiles simulated per chain before extrapolating (adapted down
/// for very deep kernels so a block simulation stays in the low millions
/// of instructions).
const SAMPLE_TILES: usize = 512;
/// Instruction budget for one block simulation.
const SAMPLE_INSTR_BUDGET: usize = 4_000_000;

/// Build the fused-chain invocations of a block plan, plus the element
/// size of the `B` buffer the chain addresses.
///
/// With packing enabled, `B` is laid out the way a packed GEMM stores it:
/// one contiguous `(k_c + 2) × n_r` panel per distinct tile column, so the
/// kernels' `B` walk is perfectly sequential (and caught by the hardware
/// stream prefetcher), exactly as in the real library. Without packing the
/// kernels stride the row-major block (`ldb = n_c`), whose TLB/line cost
/// the cost model penalizes separately.
fn chain_invocations(
    plan: &ExecutionPlan,
    accumulate: bool,
    lda: usize,
) -> (Vec<TileInvocation>, usize) {
    use std::collections::HashMap;
    let s = &plan.schedule;
    let packed = plan.schedule.packing != autogemm_tuner::Packing::None;
    let mut panel_offsets: HashMap<(usize, usize), usize> = HashMap::new();
    let mut b_elems = if packed { 0 } else { (s.kc + 2) * s.nc };

    let invocations = plan
        .block_plan
        .placements
        .iter()
        .map(|p| {
            let (b_off, ldb) = if packed {
                let key = (p.col, p.tile.nr);
                let off = *panel_offsets.entry(key).or_insert_with(|| {
                    let o = b_elems;
                    b_elems += (s.kc + 2) * p.tile.nr;
                    o
                });
                (off, p.tile.nr)
            } else {
                (p.col, s.nc)
            };
            TileInvocation {
                spec: MicroKernelSpec {
                    tile: p.tile,
                    kc: s.kc,
                    sigma_lane: plan.sigma_lane,
                    accumulate,
                    strides: Strides::Static { lda, ldb, ldc: s.nc },
                    opts: PipelineOpts { rotate: plan.opts.rotate, prefetch: true },
                },
                a_off: p.row * lda,
                b_off,
                c_off: p.row * s.nc + p.col,
            }
        })
        .collect();
    (invocations, b_elems)
}

/// Allocate chain buffers with a custom-width flat `B` region.
///
/// `A` and `C` carry eight extra (zeroed) rows so padded tile plans — the
/// OpenBLAS-style strategy runs full kernels against padded buffers — stay
/// within mapped memory.
fn chain_buffers(plan: &ExecutionPlan, b_elems: usize) -> KernelBuffers {
    let s = &plan.schedule;
    let lda = s.kc + 2 * plan.sigma_lane;
    const PAD_ROWS: usize = 8;
    let mut mem = autogemm_sim::Memory::new();
    let a = mem.alloc(s.mc + PAD_ROWS, s.kc, lda);
    let b = mem.alloc(1, b_elems, b_elems);
    let c = mem.alloc(s.mc + PAD_ROWS, s.nc, s.nc);
    KernelBuffers { mem, a, b, c }
}

/// Cache residency of the packed panels when a block's kernels start.
fn block_warmth(plan: &ExecutionPlan, chip: &ChipSpec) -> Warmth {
    if let Some(w) = plan.warmth {
        return w;
    }
    let ws = plan.schedule.block_working_set();
    if ws <= chip.l1d_bytes() {
        Warmth::L1
    } else if chip.caches.get(1).map(|c| ws <= c.size_bytes).unwrap_or(false) {
        Warmth::L2
    } else {
        Warmth::LastLevel
    }
}

/// Simulate one interior block of the plan on the chip.
///
/// Blocks with many tiles are sampled: the first `SAMPLE_TILES` run on the
/// simulator and the steady-state tail (the second half of the sample) is
/// extrapolated over the remaining tiles.
pub fn simulate_block(plan: &ExecutionPlan, chip: &ChipSpec, accumulate: bool) -> BlockCost {
    let s = &plan.schedule;
    let lda = s.kc + 2 * plan.sigma_lane;
    let (invocations, b_elems) = chain_invocations(plan, accumulate, lda);
    let total = invocations.len();
    assert!(total > 0, "empty block plan");
    let warmth = block_warmth(plan, chip);
    // Adapt the sample window to the per-tile instruction weight.
    let instrs_per_tile = plan
        .block_plan
        .placements
        .iter()
        .map(|p| 2 * p.tile.mr * p.tile.nr_vec(plan.sigma_lane) * s.kc)
        .sum::<usize>()
        / total
        + 1;
    let sample_tiles = (SAMPLE_INSTR_BUDGET / instrs_per_tile).clamp(8, SAMPLE_TILES);

    // Fused plans execute each block as one program (§III-C2); unfused
    // plans (the static baselines) pay a launch per kernel.
    let run = |invs: &[TileInvocation], bufs: &mut KernelBuffers| {
        if plan.opts.fused {
            run_chain(invs, chip, bufs, warmth)
        } else {
            run_unfused(invs, chip, bufs, warmth)
        }
    };

    if total <= sample_tiles {
        let mut bufs = chain_buffers(plan, b_elems);
        let report = run(&invocations, &mut bufs);
        return BlockCost { cycles: report.cycles, tiles: total as u64 };
    }

    // Sampled simulation: full-chain prefix, steady-state extrapolation,
    // floored at the FMA-issue bound (no schedule can beat issuing every
    // FMA at the port's reciprocal throughput).
    let half = sample_tiles / 2;
    let mut bufs = chain_buffers(plan, b_elems);
    let head = run(&invocations[..half], &mut bufs);
    let mut bufs2 = chain_buffers(plan, b_elems);
    let full = run(&invocations[..sample_tiles], &mut bufs2);
    let steady_per_tile =
        (full.cycles.saturating_sub(head.cycles)) as f64 / (sample_tiles - half) as f64;
    let cycles = full.cycles as f64 + steady_per_tile * (total - sample_tiles) as f64;
    let fma_instrs: u64 = plan
        .block_plan
        .placements
        .iter()
        .map(|p| (p.tile.mr * p.tile.nr_vec(plan.sigma_lane) * s.kc) as u64)
        .sum();
    let floor = fma_instrs * chip.rt_fma;
    BlockCost { cycles: (cycles.round() as u64).max(floor), tiles: total as u64 }
}

/// Simulated single-thread cost of the whole GEMM: the simulated block
/// compute, combined with the loop-order traffic model and packing costs
/// using the same composition rule as the tuner's pruning cost — so the
/// schedule the tuner picks is scored the way it will be charged.
pub fn single_core_cycles(plan: &ExecutionPlan, chip: &ChipSpec, block: BlockCost) -> f64 {
    let sched = &plan.schedule;
    let (tm, tn, tk) = plan.grid();
    let blocks = (tm * tn * tk) as f64;
    let compute = block.cycles as f64 * blocks;
    let pack = packing_cycles(sched, chip);
    let bytes = autogemm_tuner::cost::traffic_bytes(sched) * no_packing_penalty(sched, chip);
    let traffic = autogemm_tuner::cost::traffic_cycles(sched, chip, bytes);
    compute.max(traffic) + 0.25 * compute.min(traffic) + pack
}

/// Partition the block grid over `threads` workers (no K split, §V-C) and
/// produce per-thread work for the multicore makespan model.
pub fn thread_works(
    plan: &ExecutionPlan,
    chip: &ChipSpec,
    block: BlockCost,
    threads: usize,
) -> Vec<ThreadWork> {
    let (tm, tn, tk) = plan.grid();
    let c_blocks = tm * tn;
    let threads = threads.max(1).min(chip.cores);
    let sched = &plan.schedule;
    // DRAM bytes for the whole problem from the loop-order traffic model,
    // split evenly per C block.
    let total_bytes = autogemm_tuner::cost::traffic_bytes(sched) * no_packing_penalty(sched, chip);
    let bytes_per_block = total_bytes / c_blocks as f64;
    let pack_cycles_per_thread = packing_cycles(sched, chip) / threads as f64;

    (0..threads)
        .map(|t| {
            let my_blocks = (c_blocks + threads - 1 - t) / threads; // round-robin share
            let compute = my_blocks as f64 * tk as f64 * block.cycles as f64;
            ThreadWork {
                cycles: (compute + pack_cycles_per_thread) as u64,
                dram_bytes: (my_blocks as f64 * bytes_per_block) as u64,
            }
        })
        .collect()
}

/// Per-thread work for a library that threads *inside* its own GEMM
/// driver (the classic BLAS fork-join model): the block work divides
/// evenly over threads regardless of the cache-block grid, with a small
/// imbalance factor, and traffic splits evenly too.
pub fn thread_works_even(
    plan: &ExecutionPlan,
    chip: &ChipSpec,
    block: BlockCost,
    threads: usize,
) -> Vec<ThreadWork> {
    let (tm, tn, tk) = plan.grid();
    let blocks = (tm * tn * tk) as u64;
    let threads = threads.max(1).min(chip.cores);
    let sched = &plan.schedule;
    let total_cycles = (blocks * block.cycles) as f64 * 1.05 / threads as f64;
    let total_bytes = autogemm_tuner::cost::traffic_bytes(sched) * no_packing_penalty(sched, chip);
    let pack = packing_cycles(sched, chip) / threads as f64;
    (0..threads)
        .map(|_| ThreadWork {
            cycles: (total_cycles + pack) as u64,
            dram_bytes: (total_bytes / threads as f64) as u64,
        })
        .collect()
}

/// Force the multi-core `k_c = K` constraint onto a schedule (§V-C).
pub fn multicore_schedule(
    m: usize,
    n: usize,
    k: usize,
    chip: &ChipSpec,
    offline: bool,
    threads: usize,
) -> Schedule {
    autogemm_tuner::tune_multicore(m, n, k, chip, offline, threads)
}

/// Effective packing mode of a plan (exposed for reports).
pub fn packing_of(plan: &ExecutionPlan) -> Packing {
    plan.schedule.packing
}

#[cfg(test)]
mod tests {
    use super::*;
    use autogemm_tuner::tune;

    fn plan_for(m: usize, n: usize, k: usize, chip: &ChipSpec) -> ExecutionPlan {
        ExecutionPlan::from_schedule(tune(m, n, k, chip), chip)
    }

    #[test]
    fn block_simulation_produces_cycles() {
        let chip = ChipSpec::graviton2();
        let plan = plan_for(26, 36, 64, &chip);
        let cost = simulate_block(&plan, &chip, false);
        assert!(cost.cycles > 0);
        assert_eq!(cost.tiles as usize, plan.block_plan.tile_count());
    }

    #[test]
    fn sampled_blocks_scale_with_tile_count() {
        // A plan with many tiles must cost roughly proportionally more
        // than a smaller one with the same tile shapes.
        let chip = ChipSpec::graviton2();
        let small = plan_for(40, 64, 32, &chip);
        let small_cost = simulate_block(&small, &chip, true);
        let big = plan_for(80, 128, 32, &chip);
        let big_cost = simulate_block(&big, &chip, true);
        if big.schedule.mc == 80 && big.schedule.nc == 128 && small.schedule.mc == 40 {
            let ratio = big_cost.cycles as f64 / small_cost.cycles as f64;
            assert!(ratio > 2.0, "ratio {ratio:.2}");
        }
    }

    #[test]
    fn thread_works_partition_all_blocks() {
        let chip = ChipSpec::kp920();
        let plan = plan_for(64, 128, 64, &chip);
        let block = BlockCost { cycles: 1000, tiles: 10 };
        let works = thread_works(&plan, &chip, block, 4);
        assert_eq!(works.len(), 4.min(chip.cores));
        let (tm, tn, tk) = plan.grid();
        let total_cycles: u64 = works.iter().map(|w| w.cycles).sum();
        // Every block appears exactly once across threads (ignoring the
        // small packing share).
        assert!(total_cycles >= (tm * tn * tk) as u64 * 1000);
    }

    #[test]
    fn multicore_schedule_pins_kc_to_k() {
        let chip = ChipSpec::graviton2();
        for (m, n, k) in [(128, 784, 1152), (64, 3136, 64)] {
            let s = multicore_schedule(m, n, k, &chip, false, 4);
            assert_eq!(s.kc, k, "multi-core k_c must equal K (TVM limitation)");
        }
    }
}
