//! The micro-kernel cycle model: Eqns 4–11 of the paper.
//!
//! All quantities are in cycles of the target chip. The paper writes
//! `IPC_*` for what is operationally a reciprocal throughput multiplier
//! (cycles per instruction); we read those values from
//! [`ChipSpec::rt_fma`] / [`ChipSpec::rt_load`] / [`ChipSpec::rt_store`],
//! and `L_*` from the latency fields (`L_load` is the L1 hit latency, the
//! model's resident-data assumption).

use autogemm_arch::ChipSpec;
use autogemm_kernelgen::{BoundClass, MicroTile};

/// Model switches mirroring the generator's pipeline options plus fusion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ModelOpts {
    /// Rotating register allocation (§III-C1): Eqn 9 (compute-bound) or
    /// Eqn 10 (memory-bound) replaces the basic main-loop term.
    pub rotate: bool,
    /// Epilogue fused with the following prologue (§III-C2, Eqn 11):
    /// drops `T_launch` and overlaps the boundary loads/stores.
    pub fused: bool,
}

/// Which phase of Eqn 4 a cycle count belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Launch,
    Prologue,
    Mainloop,
    Epilogue,
}

/// Per-phase breakdown of the projected runtime (Eqn 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseBreakdown {
    pub launch: f64,
    pub prologue: f64,
    pub mainloop: f64,
    pub epilogue: f64,
}

impl PhaseBreakdown {
    pub fn total(&self) -> f64 {
        self.launch + self.prologue + self.mainloop + self.epilogue
    }

    pub fn phase(&self, p: Phase) -> f64 {
        match p {
            Phase::Launch => self.launch,
            Phase::Prologue => self.prologue,
            Phase::Mainloop => self.mainloop,
            Phase::Epilogue => self.epilogue,
        }
    }
}

/// `T_prologue` (Eqn 5): C-panel, first A column and first B row loads plus
/// one load latency to drain.
fn t_prologue(tile: MicroTile, chip: &ChipSpec) -> f64 {
    let nrv = tile.nr_vec(chip.sigma_lane()) as f64;
    let mr = tile.mr as f64;
    (mr * nrv + mr + nrv) * chip.rt_load as f64 + chip.lat_load_l1() as f64
}

/// `T_mainloop` for a compute-bound tile: basic Eqn 6 or rotated Eqn 9.
fn t_mainloop_compute(tile: MicroTile, kc: usize, chip: &ChipSpec, rotate: bool) -> f64 {
    let sigma = chip.sigma_lane();
    let nrv = tile.nr_vec(sigma) as f64;
    let mr = tile.mr as f64;
    let kv = (kc / sigma) as f64; // ⌊k̄_c⌋
    let fma = mr * nrv * chip.rt_fma as f64 * (kv * sigma as f64);
    let boundary = mr * chip.rt_load as f64 + chip.lat_load_l1() as f64;
    if rotate {
        // Eqn 9: the A-load bubble survives only every other iteration.
        fma + (kv / 2.0).ceil() * boundary
    } else {
        // Eqn 6.
        fma + kv * boundary
    }
}

/// `T_mainloop` for a memory-bound tile: basic Eqn 8 or rotated Eqn 10.
fn t_mainloop_memory(tile: MicroTile, kc: usize, chip: &ChipSpec, rotate: bool) -> f64 {
    let sigma = chip.sigma_lane();
    let nrv = tile.nr_vec(sigma) as f64;
    let mr = tile.mr as f64;
    let kv = (kc / sigma) as f64;
    if rotate {
        // Eqn 10: B loads fully overlap; only the boundary A loads remain.
        mr * nrv * chip.rt_fma as f64 * (kv * sigma as f64)
            + kv * (mr * chip.rt_load as f64 + chip.lat_load_l1() as f64)
    } else {
        // Eqn 8: the FMA→LOAD→FMA dependency leaves a bubble per lane.
        mr * chip.rt_load as f64 * kv * sigma as f64
            + chip.lat_load_l1() as f64 * kv * (sigma as f64 + 1.0)
    }
}

/// `T_epilogue` (Eqn 7): remainder-lane FMAs, the final FMA latency, and
/// the C-panel stores.
fn t_epilogue(tile: MicroTile, kc: usize, chip: &ChipSpec) -> f64 {
    let sigma = chip.sigma_lane();
    let nrv = tile.nr_vec(sigma) as f64;
    let mr = tile.mr as f64;
    let rem = (kc % sigma) as f64;
    mr * nrv * chip.rt_fma as f64 * rem + chip.lat_fma as f64 + mr * nrv * chip.rt_store as f64
}

/// Fused epilogue+prologue (Eqn 11, `c_to_c` flavour): the remainder FMAs
/// plus the next kernel's C-panel and A loads, with stores hidden under
/// them.
fn t_fused_junction(tile: MicroTile, kc: usize, chip: &ChipSpec) -> f64 {
    let sigma = chip.sigma_lane();
    let nrv = tile.nr_vec(sigma) as f64;
    let mr = tile.mr as f64;
    let rem = (kc % sigma) as f64;
    mr * nrv * chip.rt_fma as f64 * rem
        + (mr * nrv + mr) * chip.rt_load as f64
        + chip.lat_load_l1() as f64
}

/// Project the runtime of one micro-kernel invocation (Eqn 4), split by
/// phase. With `opts.fused`, the launch phase is dropped and the
/// prologue/epilogue pair is replaced by the Eqn 11 junction cost (the
/// steady-state cost of one kernel inside a fused chain).
pub fn projected_phases(
    tile: MicroTile,
    kc: usize,
    chip: &ChipSpec,
    opts: ModelOpts,
) -> PhaseBreakdown {
    let class = BoundClass::classify(tile, chip);
    // FMA-throughput floor: no main loop can beat issuing every FMA.
    let sigma = chip.sigma_lane();
    let kv = (kc / sigma) as f64;
    let fma_floor = (tile.mr * tile.nr_vec(sigma)) as f64 * chip.rt_fma as f64 * kv * sigma as f64;
    let basic = match class {
        BoundClass::Compute => t_mainloop_compute(tile, kc, chip, false),
        BoundClass::Memory => t_mainloop_memory(tile, kc, chip, false),
    }
    .max(fma_floor);
    let mainloop = if opts.rotate {
        // The library only applies rotation where the model predicts a win
        // (the tuner keeps the basic schedule otherwise) — and rotation is
        // only as effective as the spare registers allow: a compute-bound
        // tile double-buffers `min(spare, m_r)` of its `m_r` A rows
        // (§III-C1: 3 registers for 5×16), and a memory-bound tile needs a
        // full second B bank (`n̄_r` spares). Without renaming
        // (`war_hazard` chips) an under-provisioned tile keeps its
        // boundary stalls, which is exactly why DMT avoids shapes like
        // 7×12 (one spare) despite their high arithmetic intensity — and
        // why Table II leaves that cell empty.
        let spare = tile.spare_registers(sigma) as f64;
        let rotated_full = match class {
            BoundClass::Compute => t_mainloop_compute(tile, kc, chip, true),
            BoundClass::Memory => t_mainloop_memory(tile, kc, chip, true),
        }
        .max(fma_floor);
        let coverage = match class {
            BoundClass::Compute => (spare / tile.mr as f64).min(1.0),
            BoundClass::Memory => {
                if spare >= tile.nr_vec(sigma) as f64 {
                    1.0
                } else {
                    0.0
                }
            }
        };
        let rotated = basic - (basic - rotated_full) * coverage;
        rotated.min(basic)
    } else {
        basic
    };
    if opts.fused {
        let junction = t_fused_junction(tile, kc, chip);
        PhaseBreakdown { launch: 0.0, prologue: junction / 2.0, mainloop, epilogue: junction / 2.0 }
    } else {
        PhaseBreakdown {
            launch: chip.launch_cycles as f64,
            prologue: t_prologue(tile, chip),
            mainloop,
            epilogue: t_epilogue(tile, kc, chip),
        }
    }
}

/// Total projected cycles of one micro-kernel invocation (`T_r` of
/// Algorithm 1 / Eqn 13).
pub fn projected_cycles(tile: MicroTile, kc: usize, chip: &ChipSpec, opts: ModelOpts) -> f64 {
    projected_phases(tile, kc, chip, opts).total()
}

/// The `σ_AI` derating factor: a tile whose finite-`k_c` arithmetic
/// intensity (Eqn 3) falls below the chip's threshold cannot reach peak
/// (§III-A1); its throughput degrades proportionally. Tiles above the
/// threshold are not derated.
pub fn ai_derate(tile: MicroTile, kc: usize, chip: &ChipSpec) -> f64 {
    let ai = crate::ai::ai_with_kc(tile, kc, chip.sigma_lane());
    (chip.sigma_ai / ai).max(1.0)
}

/// Projected cycles including the `σ_AI` derating — the cost DMT
/// (Algorithm 1, condition 1: "micro-tiles that have high arithmetic
/// intensity") and the tuner's pruning model use to rank tiles. The
/// un-derated [`projected_cycles`] keeps the paper's Eqns 4–11 exact.
pub fn effective_cycles(tile: MicroTile, kc: usize, chip: &ChipSpec, opts: ModelOpts) -> f64 {
    projected_cycles(tile, kc, chip, opts) * ai_derate(tile, kc, chip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autogemm_arch::ChipSpec;

    /// The paper's worked example (§III-B1): 5×16 on the idealized machine
    /// costs `20·k_c + 13·k̄_c + 65` cycles beyond launch.
    #[test]
    fn fig3a_formula_for_5x16() {
        let chip = ChipSpec::idealized();
        let tile = MicroTile::new(5, 16);
        for kc in [16usize, 32, 64, 128] {
            let b = projected_phases(tile, kc, &chip, ModelOpts::default());
            let expected = 20.0 * kc as f64 + 13.0 * (kc / 4) as f64 + 65.0;
            assert!(
                (b.total() - b.launch - expected).abs() < 1e-9,
                "kc={kc}: {} vs {expected}",
                b.total() - b.launch
            );
        }
    }

    /// §III-C1: with rotation and *full* spare coverage the 5×16 kernel's
    /// Eqn 9 target is `20·k_c + 13·⌈k̄_c/2⌉ + 65`; with its actual 3-of-5
    /// spare coverage the model interpolates 3/5 of the way from the basic
    /// Eqn 6 boundary cost toward that target.
    #[test]
    fn eqn9_rotated_5x16() {
        let chip = ChipSpec::idealized();
        let tile = MicroTile::new(5, 16);
        let kc = 64;
        let kv = (kc / 4) as f64;
        let b = projected_phases(tile, kc, &chip, ModelOpts { rotate: true, fused: false });
        let basic_boundary = 13.0 * kv;
        let eqn9_boundary = 13.0 * (kv / 2.0).ceil();
        let coverage = 3.0 / 5.0;
        let expected = 20.0 * kc as f64
            + (basic_boundary - (basic_boundary - eqn9_boundary) * coverage)
            + 65.0;
        assert!(
            (b.total() - b.launch - expected).abs() < 1e-9,
            "{} vs {expected}",
            b.total() - b.launch
        );
        // And it still lands strictly between basic and the full-Eqn-9 ideal.
        let basic = projected_phases(tile, kc, &chip, ModelOpts::default());
        assert!(b.total() < basic.total());
        assert!(b.total() - b.launch > 20.0 * kc as f64 + eqn9_boundary + 65.0 - 1e-9);
    }

    /// §III-B2: the 2×16 main loop costs `48·k̄_c` basic (Eqn 8) and
    /// `42·k̄_c` rotated (Eqn 10).
    #[test]
    fn fig3b_and_eqn10_for_2x16() {
        let chip = ChipSpec::idealized();
        let tile = MicroTile::new(2, 16);
        let kc = 64;
        let kv = (kc / 4) as f64;
        let basic = projected_phases(tile, kc, &chip, ModelOpts::default());
        assert!((basic.mainloop - 48.0 * kv).abs() < 1e-9);
        let rot = projected_phases(tile, kc, &chip, ModelOpts { rotate: true, fused: false });
        assert!((rot.mainloop - 42.0 * kv).abs() < 1e-9);
    }

    /// §III-C2: for 5×16 with k_c = 18, prologue and epilogue account for
    /// 8.2% and 15.1% of the projected runtime.
    #[test]
    fn prologue_epilogue_shares_at_kc_18() {
        let chip = ChipSpec::idealized();
        let tile = MicroTile::new(5, 16);
        let b = projected_phases(tile, 18, &chip, ModelOpts::default());
        let total = b.total() - b.launch;
        let pro = b.prologue / total;
        let epi = b.epilogue / total;
        assert!((pro - 0.082).abs() < 0.02, "prologue share {pro:.3}");
        assert!((epi - 0.151).abs() < 0.03, "epilogue share {epi:.3}");
    }

    #[test]
    fn fusion_removes_launch_and_shrinks_boundaries() {
        let chip = ChipSpec::kp920();
        let tile = MicroTile::new(5, 16);
        let plain = projected_phases(tile, 4, &chip, ModelOpts::default());
        let fused = projected_phases(tile, 4, &chip, ModelOpts { rotate: false, fused: true });
        assert_eq!(fused.launch, 0.0);
        assert!(fused.total() < plain.total());
        // At K=4 the saving is substantial (the paper reports ~16-17%).
        let saving = 1.0 - fused.total() / plain.total();
        assert!(saving > 0.10, "saving {saving:.3}");
    }

    #[test]
    fn model_matches_simulator_on_worked_examples() {
        // Cross-validation: analytic model vs pipeline simulator within
        // 25% on the paper's two Fig 3 kernels.
        use autogemm_kernelgen::{MicroKernelSpec, PipelineOpts, Strides};
        let chip = ChipSpec::idealized();
        for (mr, nr) in [(5usize, 16usize), (2, 16)] {
            for rotate in [false, true] {
                let kc = 64;
                let tile = MicroTile::new(mr, nr);
                let spec = MicroKernelSpec {
                    tile,
                    kc,
                    sigma_lane: 4,
                    accumulate: true,
                    strides: Strides::Dynamic,
                    opts: PipelineOpts { rotate, prefetch: true },
                };
                let a = vec![1.0f32; mr * kc];
                let b = vec![1.0f32; kc * nr];
                let mut c = vec![0.0f32; mr * nr];
                let sim = autogemm_sim::run_micro_kernel(
                    &spec,
                    &chip,
                    &a,
                    &b,
                    &mut c,
                    autogemm_sim::Warmth::L1,
                );
                let model = projected_cycles(tile, kc, &chip, ModelOpts { rotate, fused: false });
                let ratio = sim.cycles as f64 / model;
                assert!(
                    (0.75..1.35).contains(&ratio),
                    "{mr}x{nr} rotate={rotate}: sim {} vs model {model:.0} (ratio {ratio:.3})",
                    sim.cycles
                );
            }
        }
    }

    #[test]
    fn rotation_never_hurts_in_the_model() {
        let chip = ChipSpec::kp920();
        for tile in autogemm_kernelgen::tiles::enumerate(4) {
            for kc in [8usize, 32, 128] {
                let basic = projected_cycles(tile, kc, &chip, ModelOpts::default());
                let rot =
                    projected_cycles(tile, kc, &chip, ModelOpts { rotate: true, fused: false });
                assert!(rot <= basic + 1e-9, "{tile} kc={kc}");
            }
        }
    }

    #[test]
    fn deeper_kc_amortizes_overheads() {
        let chip = ChipSpec::graviton2();
        let tile = MicroTile::new(5, 16);
        // Cycles per flop must decrease monotonically with k_c.
        let mut prev = f64::INFINITY;
        for kc in [4usize, 8, 16, 32, 64, 128] {
            let per_flop = projected_cycles(tile, kc, &chip, ModelOpts::default())
                / (2.0 * 5.0 * 16.0 * kc as f64);
            assert!(per_flop < prev);
            prev = per_flop;
        }
    }
}
