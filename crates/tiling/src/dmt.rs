//! Dynamic Micro-Tiling — Algorithm 1 of the paper (§IV-A2).
//!
//! DMT splits the block `C(m_c, n_c)` into four quadrants with three cut
//! parameters (`n_front`, `m_front_up`, `m_back_up`), evaluates every
//! feasible micro-kernel shape for each quadrant with the projected-runtime
//! model `T_r` (Eqns 4–11), and keeps the split minimizing total projected
//! cycles. The effect (Fig 5-(c)): balanced tiles with high arithmetic
//! intensity, fewer tiles than the static strategies, and — on low-`σ_AI`
//! hardware — no low-AI tiles at all.
//!
//! The quadrant cost `T(m, n)` prefers exact single-shape covers (the
//! algorithm as published); quadrants no single Table II shape divides are
//! charged and gridded with edge-fitted kernels like LIBXSMM (a remainder
//! fallback the published pseudo-code leaves implicit).

use crate::plan::{grid_region, Strategy, TilePlacement, TilePlan};
use autogemm_arch::ChipSpec;
use autogemm_kernelgen::{tiles, MicroTile};
use autogemm_perfmodel::micro::effective_cycles;
use autogemm_perfmodel::submatrix::region_cycles_with;
use autogemm_perfmodel::ModelOpts;

/// How a quadrant is tiled.
#[derive(Debug, Clone, Copy)]
enum QuadrantCover {
    /// Exact grid of one shape.
    Exact(MicroTile),
    /// Edge-fitted grid of one main shape (LIBXSMM-like remainder).
    Ragged(MicroTile),
}

/// The derated per-kernel cost `T_r(m_r, n_r)` at one `k_c`, priced on
/// first use and kept for the rest of one [`plan_dmt`] call. Indexed by
/// `(m_r, n_r)` up to the menu's extents, which bound every menu tile and
/// every remainder tile a ragged cover charges. (Indexing by `n_r` rather
/// than `n̄_r` saves a division per lookup, 15-20% of tuning time; the
/// cells in between stay empty.) Only tiles that are actually asked for
/// get priced: the rectangle also holds infeasible shapes the cost model
/// is not defined for.
struct TileCosts<'a> {
    kc: usize,
    chip: &'a ChipSpec,
    opts: ModelOpts,
    sigma: usize,
    nr_max: usize,
    cells: Vec<Option<f64>>,
}

impl<'a> TileCosts<'a> {
    fn new(shapes: &[MicroTile], kc: usize, chip: &'a ChipSpec, opts: ModelOpts) -> Self {
        let mr_max = shapes.iter().map(|t| t.mr).max().unwrap_or(0);
        let nr_max = shapes.iter().map(|t| t.nr).max().unwrap_or(0);
        let sigma = chip.sigma_lane();
        TileCosts { kc, chip, opts, sigma, nr_max, cells: vec![None; mr_max * nr_max] }
    }

    fn get(&mut self, tile: MicroTile) -> f64 {
        let cell = &mut self.cells[(tile.mr - 1) * self.nr_max + tile.nr - 1];
        *cell.get_or_insert_with(|| effective_cycles(tile, self.kc, self.chip, self.opts))
    }
}

/// The per-quadrant cost function `T(m, n)` of Algorithm 1 (lines 11-16):
/// minimize over Table II shapes. Exact covers use
/// `(m/m_r)·(n/n_r)·T_r(m_r, n_r)`; ragged covers fall back to
/// [`region_cycles_with`] with a 5% penalty so exact covers win ties.
fn quadrant_cost(
    m: usize,
    n: usize,
    shapes: &[MicroTile],
    costs: &mut TileCosts,
) -> (f64, QuadrantCover) {
    if m == 0 || n == 0 {
        return (0.0, QuadrantCover::Exact(MicroTile::new(1, costs.sigma)));
    }
    let mut best: Option<(f64, QuadrantCover)> = None;
    for &tile in shapes {
        let (c, cover) = if m.is_multiple_of(tile.mr) && n.is_multiple_of(tile.nr) {
            let count = (m / tile.mr) * (n / tile.nr);
            (count as f64 * costs.get(tile), QuadrantCover::Exact(tile))
        } else {
            let region = region_cycles_with(m, n, tile, costs.kc, costs.sigma, |t| costs.get(t));
            (region * 1.05, QuadrantCover::Ragged(tile))
        };
        if best.is_none_or(|(b, _)| c < b) {
            best = Some((c, cover));
        }
    }
    best.expect("the tile menu is never empty")
}

fn emit_quadrant(
    row0: usize,
    col0: usize,
    m: usize,
    n: usize,
    cover: QuadrantCover,
    sigma_lane: usize,
    out: &mut Vec<TilePlacement>,
) {
    if m == 0 || n == 0 {
        return;
    }
    match cover {
        QuadrantCover::Exact(tile) => {
            for r in (0..m).step_by(tile.mr) {
                for c in (0..n).step_by(tile.nr) {
                    out.push(TilePlacement::full(row0 + r, col0 + c, tile));
                }
            }
        }
        QuadrantCover::Ragged(tile) => {
            grid_region(row0, col0, m, n, tile, sigma_lane, out);
        }
    }
}

/// Run Algorithm 1 on a block `C(m × n)` at reduction depth `kc`.
///
/// `n` cuts are lane-aligned (every kernel width must be a multiple of
/// `σ_lane`); `m` cuts are unrestricted, exactly as in the paper.
pub fn plan_dmt(m: usize, n: usize, kc: usize, chip: &ChipSpec, opts: ModelOpts) -> TilePlan {
    let sigma = chip.sigma_lane();
    let shapes = tiles::table_menu(sigma);
    let mut costs = TileCosts::new(&shapes, kc, chip, opts);

    // The objective separates: for a fixed n_front, the best m_front_up
    // and m_back_up are independent, so the O(n·m²) triple loop of the
    // published pseudo-code collapses to O(n·m) without changing the
    // result. Each split reads two columns of quadrant costs over the
    // heights 0..=m: width n_front and width n_back.
    let mut column = |nn: usize, out: &mut Vec<f64>| {
        out.clear();
        out.extend((0..=m).map(|mm| quadrant_cost(mm, nn, &shapes, &mut costs).0));
    };
    let best_cut = |col: &[f64]| {
        let mut best = (f64::INFINITY, 0usize);
        for m_up in 0..=m {
            if col[m_up] + col[m - m_up] < best.0 {
                best = (col[m_up] + col[m - m_up], m_up);
            }
        }
        best
    };
    let split = |front: &[f64], back: &[f64]| {
        let (f, b) = (best_cut(front), best_cut(back));
        (f.0 + b.0, f.1, b.1)
    };
    // (total, m_front_up, m_back_up) per n_front = j·σ. When n is a lane
    // multiple, n_back = (lanes − j)·σ is itself a front width, so the
    // splits j and lanes − j share their two columns and are priced
    // together; each column is priced once either way. Only the two
    // current columns are kept: holding every column for the whole call
    // planned 10-20% faster but raised the benchmark's peak RSS by ~1 MB
    // (its wide blocks need ~400 KB tables).
    let lanes = n / sigma;
    let mut splits = vec![(f64::INFINITY, 0usize, 0usize); lanes + 1];
    let (mut a, mut b) = (Vec::with_capacity(m + 1), Vec::with_capacity(m + 1));
    if n.is_multiple_of(sigma) {
        for j in 0..=lanes / 2 {
            column(j * sigma, &mut a);
            if 2 * j == lanes {
                b.clone_from(&a);
            } else {
                column((lanes - j) * sigma, &mut b);
            }
            splits[j] = split(&a, &b);
            splits[lanes - j] = split(&b, &a);
        }
    } else {
        for (j, slot) in splits.iter_mut().enumerate() {
            column(j * sigma, &mut a);
            column(n - j * sigma, &mut b);
            *slot = split(&a, &b);
        }
    }
    // First strict minimum in n_front order, as a running minimum over
    // the splits in that order would keep.
    let mut best_cost = f64::INFINITY;
    let mut best_split = (0usize, 0usize, 0usize);
    for (j, &(total, m_front_up, m_back_up)) in splits.iter().enumerate() {
        if total < best_cost {
            best_cost = total;
            best_split = (j * sigma, m_front_up, m_back_up);
        }
    }

    let (n_front, m_front_up, m_back_up) = best_split;
    let n_back = n - n_front;
    let mut placements = Vec::new();
    let mut cover = |mm, nn| quadrant_cost(mm, nn, &shapes, &mut costs).1;
    let cover_fu = cover(m_front_up, n_front);
    let cover_fd = cover(m - m_front_up, n_front);
    let cover_bu = cover(m_back_up, n_back);
    let cover_bd = cover(m - m_back_up, n_back);
    emit_quadrant(0, 0, m_front_up, n_front, cover_fu, sigma, &mut placements);
    emit_quadrant(m_front_up, 0, m - m_front_up, n_front, cover_fd, sigma, &mut placements);
    emit_quadrant(0, n_front, m_back_up, n_back, cover_bu, sigma, &mut placements);
    emit_quadrant(m_back_up, n_front, m - m_back_up, n_back, cover_bd, sigma, &mut placements);

    TilePlan { m, n, strategy: Strategy::Dmt, placements }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan_libxsmm, plan_openblas};

    fn default_opts() -> ModelOpts {
        ModelOpts { rotate: true, fused: true }
    }

    #[test]
    fn fig5c_26x36_beats_static_strategies() {
        // Paper: OpenBLAS and LIBXSMM both need 18 micro-tiles on C(26,36);
        // DMT needs 13, with at most 2 low-AI tiles.
        let chip = ChipSpec::graviton2();
        let plan = plan_dmt(26, 36, 64, &chip, default_opts());
        plan.validate(4).expect("exact cover");
        assert!(plan.tile_count() <= 14, "DMT used {} tiles (paper: 13)", plan.tile_count());
        assert!(plan.tile_count() < 18);
        assert!(plan.low_ai_count(&chip) <= 2, "low-AI tiles: {}", plan.low_ai_count(&chip));
    }

    #[test]
    fn dmt_projected_cycles_never_worse_than_static() {
        let opts = default_opts();
        for chip in [ChipSpec::kp920(), ChipSpec::graviton2(), ChipSpec::m2()] {
            for (m, n) in [(26, 36), (26, 64), (80, 32), (25, 64), (13, 20), (31, 44)] {
                let kc = 64;
                let dmt = plan_dmt(m, n, kc, &chip, opts).effective_cycles(kc, &chip, opts);
                let ob =
                    plan_openblas(m, n, MicroTile::new(5, 16)).effective_cycles(kc, &chip, opts);
                let xs =
                    plan_libxsmm(m, n, MicroTile::new(5, 16), 4).effective_cycles(kc, &chip, opts);
                assert!(
                    dmt <= ob * 1.001 && dmt <= xs * 1.001,
                    "{} {m}x{n}: dmt {dmt:.0} vs openblas {ob:.0} / libxsmm {xs:.0}",
                    chip.name
                );
            }
        }
    }

    #[test]
    fn exact_shapes_tie_with_static_5x16_tiling() {
        // Fig 7: at 80×32 and 25×64 all three strategies pick the same
        // 5×16 grid — no gains for DMT.
        let chip = ChipSpec::kp920();
        let opts = default_opts();
        for (m, n) in [(80, 32), (25, 64)] {
            let dmt = plan_dmt(m, n, 64, &chip, opts);
            let xs = plan_libxsmm(m, n, MicroTile::new(5, 16), 4);
            assert_eq!(dmt.tile_count(), xs.tile_count(), "{m}x{n}");
            let d = dmt.effective_cycles(64, &chip, opts);
            let x = xs.effective_cycles(64, &chip, opts);
            assert!((d - x).abs() / x < 1e-6, "{m}x{n}: {d} vs {x}");
        }
    }

    #[test]
    fn sigma_ai_changes_the_26x64_plan() {
        // Fig 5-(c)/Fig 7 26×64: on low-σ_AI hardware DMT eliminates
        // low-AI tiles entirely (4×16 edges reach peak); on high-σ_AI
        // hardware it minimizes their number instead.
        let opts = default_opts();
        let low = plan_dmt(26, 64, 64, &ChipSpec::graviton2(), opts);
        assert_eq!(
            low.low_ai_count(&ChipSpec::graviton2()),
            0,
            "low-σ_AI hardware should see no low-AI tiles:\n{}",
            low.ascii_art()
        );
        let high = plan_dmt(26, 64, 64, &ChipSpec::kp920(), opts);
        assert!(high.low_ai_count(&ChipSpec::kp920()) <= 2);
    }

    #[test]
    fn dmt_covers_awkward_shapes_exactly() {
        let chip = ChipSpec::graviton2();
        for (m, n) in [(1, 4), (3, 8), (7, 12), (11, 20), (26, 36), (53, 92), (17, 4)] {
            let plan = plan_dmt(m, n, 32, &chip, default_opts());
            plan.validate(4).unwrap_or_else(|e| panic!("{m}x{n}: {e}"));
        }
    }

    #[test]
    fn sve_dmt_uses_16_lane_tiles() {
        let chip = ChipSpec::a64fx();
        let plan = plan_dmt(24, 64, 64, &chip, default_opts());
        plan.validate(16).expect("cover");
        assert!(plan.placements.iter().all(|p| p.tile.nr % 16 == 0));
    }

    #[test]
    fn dmt_minimizes_tiles_on_balanced_splits() {
        // 26 = 5*4 + 6 = ... DMT should find e.g. 16+20 column split with
        // 5x16/4x20-family tiles rather than 1-wide strips.
        let chip = ChipSpec::m2();
        let plan = plan_dmt(26, 36, 64, &chip, default_opts());
        let tiny = plan.placements.iter().filter(|p| p.tile.mr == 1 && p.tile.nr <= 8).count();
        assert!(tiny <= 1, "too many tiny tiles:\n{}", plan.ascii_art());
    }
}
