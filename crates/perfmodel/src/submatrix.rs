//! Cache-block runtime estimation — Eqn 13 and the `T(m, n)` helper of
//! Algorithm 1.
//!
//! Given a rectangular region of the output panel and a micro-tile shape,
//! [`region_cycles`] projects the cycles to cover it, charging full-price
//! micro-kernels for the interior and smaller corner kernels for the
//! remainders. This is the quantity the DMT dynamic program minimizes and
//! the cost model TVM-style tuning uses to prune cache-block candidates
//! (§IV-B).

use crate::micro::{effective_cycles, projected_cycles, ModelOpts};
use autogemm_arch::ChipSpec;
use autogemm_kernelgen::MicroTile;

/// Projected cycles to cover an `m × n` output region with micro-tiles of
/// shape `tile` at reduction depth `kc` (the `T(m, n)` of Algorithm 1,
/// extended to charge remainder rows/columns at their actual smaller tile
/// sizes rather than assuming exact divisibility).
///
/// Remainder columns are rounded up to the lane width (`n_r` must stay a
/// lane multiple); remainder rows use an `m_rem × n_r` kernel.
pub fn region_cycles(
    m: usize,
    n: usize,
    tile: MicroTile,
    kc: usize,
    chip: &ChipSpec,
    opts: ModelOpts,
) -> f64 {
    region_cycles_with(m, n, tile, kc, chip.sigma_lane(), |t| projected_cycles(t, kc, chip, opts))
}

/// [`region_cycles`] with the `σ_AI` derating applied per kernel — the
/// cost DMT and the tuner minimize.
pub fn region_cycles_derated(
    m: usize,
    n: usize,
    tile: MicroTile,
    kc: usize,
    chip: &ChipSpec,
    opts: ModelOpts,
) -> f64 {
    region_cycles_with(m, n, tile, kc, chip.sigma_lane(), |t| effective_cycles(t, kc, chip, opts))
}

/// The region cost of [`region_cycles`] with the per-kernel cost `T_r`
/// supplied by `cost`, which is asked for `tile` and for each remainder
/// tile it needs (every one no taller or wider than `tile`). A caller
/// that prices many regions at one `kc` can pass a table lookup: the
/// floating-point operations run in the same order whatever `cost` is,
/// so a table of the same values gives bit-identical totals.
pub fn region_cycles_with(
    m: usize,
    n: usize,
    tile: MicroTile,
    kc: usize,
    sigma_lane: usize,
    mut cost: impl FnMut(MicroTile) -> f64,
) -> f64 {
    if m == 0 || n == 0 || kc == 0 {
        return 0.0;
    }
    let full_rows = m / tile.mr;
    let rem_rows = m % tile.mr;
    let full_cols = n / tile.nr;
    let rem_cols_elems = n % tile.nr;
    // Remainder columns padded up to a lane multiple (the kernels' n_r must
    // divide σ_lane; padding work is wasted but charged).
    let rem_nr = rem_cols_elems.div_ceil(sigma_lane) * sigma_lane;

    let mut total = 0.0;
    let t_full = cost(tile);
    total += (full_rows * full_cols) as f64 * t_full;
    if rem_cols_elems > 0 {
        let t = cost(MicroTile::new(tile.mr, rem_nr));
        total += full_rows as f64 * t;
    }
    if rem_rows > 0 {
        let t = cost(MicroTile::new(rem_rows, tile.nr));
        total += full_cols as f64 * t;
    }
    if rem_rows > 0 && rem_cols_elems > 0 {
        total += cost(MicroTile::new(rem_rows, rem_nr));
    }
    total
}

/// Eqn 13: total projected cycles of a DMT-split sub-matrix
/// `C(m_c, n_c)`, given the four quadrant extents and the tile chosen for
/// each quadrant.
#[allow(clippy::too_many_arguments)]
pub fn dmt_split_cycles(
    n_front: usize,
    n_back: usize,
    m_front_up: usize,
    m_front_down: usize,
    m_back_up: usize,
    m_back_down: usize,
    tiles: [MicroTile; 4],
    kc: usize,
    chip: &ChipSpec,
    opts: ModelOpts,
) -> f64 {
    region_cycles(m_front_up, n_front, tiles[0], kc, chip, opts)
        + region_cycles(m_front_down, n_front, tiles[1], kc, chip, opts)
        + region_cycles(m_back_up, n_back, tiles[2], kc, chip, opts)
        + region_cycles(m_back_down, n_back, tiles[3], kc, chip, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_cover_charges_full_tiles_only() {
        let chip = ChipSpec::idealized();
        let tile = MicroTile::new(5, 16);
        let t1 = projected_cycles(tile, 32, &chip, ModelOpts::default());
        let region = region_cycles(10, 32, tile, 32, &chip, ModelOpts::default());
        assert!((region - 4.0 * t1).abs() < 1e-9);
    }

    #[test]
    fn remainders_cost_extra_but_less_than_full_tiles() {
        let chip = ChipSpec::idealized();
        let tile = MicroTile::new(5, 16);
        let exact = region_cycles(10, 32, tile, 32, &chip, ModelOpts::default());
        let ragged = region_cycles(11, 36, tile, 32, &chip, ModelOpts::default());
        assert!(ragged > exact);
        // Bounded by the fully padded cover (12 rows of 48 cols = 3x3 full tiles... 15x48).
        let padded = region_cycles(15, 48, tile, 32, &chip, ModelOpts::default());
        assert!(ragged < padded);
    }

    #[test]
    fn empty_regions_cost_nothing() {
        let chip = ChipSpec::idealized();
        let tile = MicroTile::new(5, 16);
        assert_eq!(region_cycles(0, 32, tile, 32, &chip, ModelOpts::default()), 0.0);
        assert_eq!(region_cycles(5, 0, tile, 32, &chip, ModelOpts::default()), 0.0);
        assert_eq!(region_cycles(5, 32, tile, 0, &chip, ModelOpts::default()), 0.0);
    }

    #[test]
    fn dmt_split_sums_quadrants() {
        let chip = ChipSpec::idealized();
        let t = MicroTile::new(5, 16);
        let whole = dmt_split_cycles(16, 16, 10, 0, 10, 0, [t; 4], 32, &chip, ModelOpts::default());
        let by_hand = region_cycles(10, 16, t, 32, &chip, ModelOpts::default()) * 2.0;
        assert!((whole - by_hand).abs() < 1e-9);
    }

    #[test]
    fn cycles_scale_roughly_linearly_with_area_for_exact_covers() {
        let chip = ChipSpec::graviton2();
        let tile = MicroTile::new(8, 8);
        let one = region_cycles(8, 8, tile, 64, &chip, ModelOpts::default());
        let four = region_cycles(16, 16, tile, 64, &chip, ModelOpts::default());
        assert!((four / one - 4.0).abs() < 1e-9);
    }
}
