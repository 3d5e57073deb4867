//! Property-based invariants of the tiling strategies and the tuner, run
//! across randomized shapes (the corner cases Fig 5/7 can't enumerate).

use autogemm_arch::ChipSpec;
use autogemm_kernelgen::{tiles, MicroTile};
use autogemm_perfmodel::micro::effective_cycles;
use autogemm_perfmodel::submatrix::region_cycles_derated;
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::{plan_dmt, plan_libxsmm, plan_openblas, TilePlacement};
use autogemm_tuner::space::LoopIndex::{self, *};
use autogemm_tuner::{LoopOrder, Packing};
use proptest::prelude::*;
use std::collections::HashMap;

fn opts() -> ModelOpts {
    ModelOpts { rotate: true, fused: true }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every DMT plan covers its block exactly once with feasible tiles.
    #[test]
    fn dmt_plans_always_cover(m in 1usize..72, nv in 1usize..20) {
        let n = nv * 4;
        let chip = ChipSpec::graviton2();
        let plan = plan_dmt(m, n, 48, &chip, opts());
        prop_assert!(plan.validate(4).is_ok(), "{m}x{n}: {:?}", plan.validate(4));
    }

    /// DMT never projects worse than either static strategy under its own
    /// (σ_AI-derated) metric.
    #[test]
    fn dmt_dominates_statics_in_model(m in 4usize..64, nv in 2usize..16) {
        let n = nv * 4;
        let chip = ChipSpec::kp920();
        let kc = 32;
        let dmt = plan_dmt(m, n, kc, &chip, opts()).effective_cycles(kc, &chip, opts());
        let tile = MicroTile::new(5, 16);
        let ob = plan_openblas(m, n, tile).effective_cycles(kc, &chip, opts());
        let xs = plan_libxsmm(m, n, tile, 4).effective_cycles(kc, &chip, opts());
        prop_assert!(dmt <= ob * 1.001, "{m}x{n}: dmt {dmt:.0} > openblas {ob:.0}");
        prop_assert!(dmt <= xs * 1.001, "{m}x{n}: dmt {dmt:.0} > libxsmm {xs:.0}");
    }

    /// Static plans cover too (LIBXSMM exactly; OpenBLAS with padding only
    /// outside the block).
    #[test]
    fn static_plans_cover(m in 1usize..72, nv in 1usize..20) {
        let n = nv * 4;
        let xs = plan_libxsmm(m, n, MicroTile::new(5, 16), 4);
        prop_assert!(xs.validate(4).is_ok());
        let ob = plan_openblas(m, n, MicroTile::new(5, 16));
        prop_assert!(ob.validate(4).is_ok());
        prop_assert_eq!(xs.padded_elems(), 0);
    }

    /// Tuned schedules always satisfy the paper's divisor constraints and
    /// keep the block working set within twice the private cache budget.
    #[test]
    fn tuner_respects_constraints(
        mi in 1usize..8, ni in 1usize..8, ki in 1usize..8,
    ) {
        let (m, n, k) = (mi * 16, ni * 28, ki * 24);
        let chip = ChipSpec::m2();
        let s = autogemm_tuner::tune(m, n, k, &chip);
        prop_assert_eq!(m % s.mc, 0);
        prop_assert_eq!(n % s.nc, 0);
        prop_assert_eq!(k % s.kc, 0);
    }
}

#[test]
fn dmt_handles_degenerate_blocks() {
    let chip = ChipSpec::graviton2();
    for (m, n) in [(1, 4), (1, 128), (72, 4), (2, 8), (3, 4)] {
        let plan = plan_dmt(m, n, 16, &chip, opts());
        plan.validate(4).unwrap_or_else(|e| panic!("{m}x{n}: {e}"));
        assert!(plan.tile_count() >= 1);
    }
}

#[test]
fn sve_plans_cover_with_16_lane_tiles() {
    let chip = ChipSpec::a64fx();
    for (m, n) in [(8, 16), (24, 64), (13, 48)] {
        let plan = plan_dmt(m, n, 32, &chip, opts());
        plan.validate(16).unwrap_or_else(|e| panic!("{m}x{n}: {e}"));
    }
}

/// Algorithm 1 written out as plainly as possible, to hold `plan_dmt` to:
/// every quadrant cost `T(m, n)` is priced once, through a plain map,
/// from the Eqns 4–13 model (no tile-cost table, no columns), minimized
/// over the Table II menu, with the separable search over `(n_front,
/// m_front_up, m_back_up)` and the tie-breaking `plan_dmt` documents.
/// Returns the placements in `plan_dmt`'s emission order.
fn algorithm1_reference(
    m: usize,
    n: usize,
    kc: usize,
    chip: &ChipSpec,
    opts: ModelOpts,
) -> Vec<TilePlacement> {
    let sigma = chip.sigma_lane();
    let menu = tiles::table_menu(sigma);
    // (cost, tile, exact cover?)
    let quadrant = |mq: usize, nq: usize| -> (f64, MicroTile, bool) {
        if mq == 0 || nq == 0 {
            return (0.0, MicroTile::new(1, sigma), true);
        }
        let mut best: Option<(f64, MicroTile, bool)> = None;
        for &t in &menu {
            let (c, exact) = if mq.is_multiple_of(t.mr) && nq.is_multiple_of(t.nr) {
                (((mq / t.mr) * (nq / t.nr)) as f64 * effective_cycles(t, kc, chip, opts), true)
            } else {
                (region_cycles_derated(mq, nq, t, kc, chip, opts) * 1.05, false)
            };
            if best.is_none_or(|(b, _, _)| c < b) {
                best = Some((c, t, exact));
            }
        }
        best.unwrap()
    };
    let mut seen: HashMap<(usize, usize), (f64, MicroTile, bool)> = HashMap::new();
    let mut t = |mq: usize, nq: usize| *seen.entry((mq, nq)).or_insert_with(|| quadrant(mq, nq));
    let mut best = (f64::INFINITY, (0, 0, 0));
    for n_front in (0..=n).step_by(sigma) {
        let n_back = n - n_front;
        let (mut front, mut back) = ((f64::INFINITY, 0), (f64::INFINITY, 0));
        for m_up in 0..=m {
            let f = t(m_up, n_front).0 + t(m - m_up, n_front).0;
            if f < front.0 {
                front = (f, m_up);
            }
            let b = t(m_up, n_back).0 + t(m - m_up, n_back).0;
            if b < back.0 {
                back = (b, m_up);
            }
        }
        if front.0 + back.0 < best.0 {
            best = (front.0 + back.0, (n_front, front.1, back.1));
        }
    }
    let (n_front, m_fu, m_bu) = best.1;
    let mut out = Vec::new();
    for (row0, col0, mq, nq) in [
        (0, 0, m_fu, n_front),
        (m_fu, 0, m - m_fu, n_front),
        (0, n_front, m_bu, n - n_front),
        (m_bu, n_front, m - m_bu, n - n_front),
    ] {
        if mq == 0 || nq == 0 {
            continue;
        }
        let (_, tile, exact) = t(mq, nq);
        let mut r = 0;
        while r < mq {
            // Exact covers repeat the tile; ragged covers shrink the edge
            // tiles, rounding kernel widths up to the lane.
            let mr = if exact { tile.mr } else { tile.mr.min(mq - r) };
            let mut c = 0;
            while c < nq {
                let nc = if exact { tile.nr } else { tile.nr.min(nq - c) };
                let kernel = MicroTile::new(mr, nc.div_ceil(sigma) * sigma);
                out.push(TilePlacement {
                    row: row0 + r,
                    col: col0 + c,
                    tile: kernel,
                    eff_rows: mr,
                    eff_cols: nc,
                });
                c += nc;
            }
            r += mr;
        }
    }
    out
}

/// `plan_dmt` prices each tile once per call and each quadrant once in
/// dense columns; neither may change a plan. Its placements (and so the
/// Eqn 13 block cost the tuner scores) must match the plain
/// transcription exactly, on 4- and 16-lane chips, heights 1–70 (primes
/// included), widths that are and are not lane multiples, and `k_c` from
/// 1 to 256.
#[test]
fn dmt_matches_the_plain_algorithm_1_bit_for_bit() {
    let heights = [1usize, 2, 3, 5, 7, 8, 11, 13, 16, 17, 26, 31, 37, 48, 53, 61, 67, 70];
    let cases = [
        (ChipSpec::graviton2(), vec![4usize, 36, 44, 49, 64, 196]),
        (ChipSpec::kp920(), vec![12, 44, 49, 196]),
        (ChipSpec::a64fx(), vec![16, 44, 49, 64, 196]),
    ];
    for (chip, widths) in &cases {
        for (i, &m) in heights.iter().enumerate() {
            for (j, &n) in widths.iter().enumerate() {
                // Every k_c for every shape would cost minutes in a debug
                // build; rotate through them so each (m, n) sees two
                // and each k_c sees every width.
                for kc in [[1usize, 64], [7, 256]][(i + j) % 2] {
                    let got = plan_dmt(m, n, kc, chip, opts());
                    let want = algorithm1_reference(m, n, kc, chip, opts());
                    assert_eq!(got.placements, want, "{} {m}x{n} kc={kc}", chip.name);
                }
            }
        }
    }
}

/// FNV-1a over every placement field, in plan order.
fn placement_checksum(placements: &[TilePlacement]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in placements {
        for v in [p.row, p.col, p.tile.mr, p.tile.nr, p.eff_rows, p.eff_cols] {
            for b in (v as u64).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// `(m, n, k)`, `(m_c, n_c, k_c)`, loop order, packing, then the tile
/// count and [`placement_checksum`] of the block's DMT plan.
type Golden = ((usize, usize, usize), (usize, usize, usize), [LoopIndex; 5], Packing, usize, u64);

/// Single-thread `tune` picks on Graviton2 for the 20 Table V layers,
/// recorded before the tile-cost table and dense quadrant memo went in.
const TABLE_V_TUNED: [Golden; 20] = [
    ((64, 12544, 147), (4, 224, 147), [Kc, Nc, Nr, Mc, Mr], Packing::None, 12, 0x1d8dae3a9f5c2365),
    ((64, 3136, 64), (64, 32, 64), [Mc, Kc, Mr, Nc, Nr], Packing::None, 32, 0x01122950fd92a325),
    ((64, 3136, 576), (32, 392, 576), [Nc, Kc, Nr, Mc, Mr], Packing::None, 172, 0xfb051f32830eb8cd),
    (
        (256, 3136, 64),
        (32, 392, 64),
        [Kc, Nc, Nr, Mc, Mr],
        Packing::Online,
        172,
        0xfb051f32830eb8cd,
    ),
    ((64, 3136, 256), (32, 64, 128), [Mc, Kc, Mr, Nc, Nr], Packing::None, 30, 0xf8f3dbef84e9eea1),
    (
        (128, 784, 256),
        (128, 392, 256),
        [Nc, Kc, Mc, Mr, Nr],
        Packing::None,
        707,
        0xaa1044d842317492,
    ),
    (
        (128, 784, 1152),
        (128, 112, 384),
        [Nc, Kc, Mc, Nr, Mr],
        Packing::None,
        204,
        0xcd354172f71af3a5,
    ),
    ((512, 784, 128), (32, 392, 128), [Kc, Nc, Nr, Mc, Mr], Packing::None, 172, 0xfb051f32830eb8cd),
    (
        (512, 784, 256),
        (512, 112, 256),
        [Mc, Kc, Mr, Nc, Nr],
        Packing::None,
        812,
        0x0a4acf2990a1f37d,
    ),
    (
        (128, 784, 512),
        (128, 196, 128),
        [Nc, Mc, Kc, Nr, Mr],
        Packing::None,
        360,
        0x03ae2a165c24daa5,
    ),
    (
        (256, 196, 512),
        (128, 196, 512),
        [Nc, Kc, Mc, Mr, Nr],
        Packing::None,
        360,
        0x03ae2a165c24daa5,
    ),
    (
        (256, 196, 2304),
        (128, 196, 256),
        [Kc, Mc, Nc, Mr, Nr],
        Packing::None,
        360,
        0x03ae2a165c24daa5,
    ),
    (
        (1024, 196, 256),
        (256, 196, 256),
        [Nc, Kc, Mc, Mr, Nr],
        Packing::None,
        716,
        0x13cd0a3bb962eba5,
    ),
    (
        (1024, 196, 512),
        (128, 196, 512),
        [Nc, Kc, Mc, Mr, Nr],
        Packing::None,
        360,
        0x03ae2a165c24daa5,
    ),
    (
        (256, 196, 1024),
        (128, 196, 512),
        [Nc, Kc, Mc, Mr, Nr],
        Packing::None,
        360,
        0x03ae2a165c24daa5,
    ),
    ((512, 49, 1024), (256, 49, 512), [Nc, Kc, Mc, Mr, Nr], Packing::None, 203, 0xf88f6fc5dc9f7715),
    ((512, 49, 4608), (256, 49, 768), [Nc, Kc, Mc, Mr, Nr], Packing::None, 203, 0xf88f6fc5dc9f7715),
    ((2048, 49, 512), (256, 49, 512), [Nc, Kc, Mc, Mr, Nr], Packing::None, 203, 0xf88f6fc5dc9f7715),
    (
        (2048, 49, 1024),
        (256, 49, 512),
        [Nc, Kc, Mc, Mr, Nr],
        Packing::None,
        203,
        0xf88f6fc5dc9f7715,
    ),
    ((512, 49, 2048), (256, 49, 512), [Nc, Kc, Mc, Mr, Nr], Packing::None, 203, 0xf88f6fc5dc9f7715),
];

/// Two-thread `AutoGemm::plan_multicore` picks on Graviton2 for the
/// block-routed shapes of the benchmark's small-irregular workload,
/// recorded alongside [`TABLE_V_TUNED`].
const SMALL_IRREGULAR_T2: [Golden; 15] = [
    ((12, 12, 12), (6, 12, 12), [Nc, Kc, Mc, Mr, Nr], Packing::None, 1, 0x0fe87e8519a79865),
    ((16, 16, 16), (8, 16, 16), [Nc, Kc, Mc, Mr, Nr], Packing::None, 2, 0xef1ff03efb40bfa1),
    ((24, 24, 24), (24, 12, 24), [Nc, Kc, Mc, Mr, Nr], Packing::None, 5, 0xcffbce063c7ff6f5),
    ((32, 32, 32), (16, 32, 32), [Nc, Kc, Mc, Mr, Nr], Packing::None, 8, 0xd1b59cc835667325),
    ((48, 48, 48), (24, 48, 48), [Nc, Kc, Mc, Mr, Nr], Packing::None, 16, 0xdc2ee0735c720625),
    ((64, 64, 64), (64, 32, 64), [Nc, Kc, Mc, Mr, Nr], Packing::None, 32, 0x01122950fd92a325),
    ((80, 80, 80), (40, 80, 80), [Nc, Kc, Mc, Mr, Nr], Packing::None, 47, 0x8941ec7ceb98cfb5),
    ((96, 96, 96), (48, 96, 96), [Nc, Kc, Mc, Mr, Nr], Packing::None, 64, 0x63642f75a666b425),
    ((112, 112, 112), (56, 112, 112), [Nc, Kc, Mc, Mr, Nr], Packing::None, 90, 0x67ac788aa0dc6ca1),
    ((128, 128, 128), (128, 64, 128), [Nc, Kc, Mc, Mr, Nr], Packing::None, 118, 0x299b67e2ffb2f121),
    ((31, 44, 29), (31, 4, 29), [Nc, Kc, Mc, Mr, Nr], Packing::None, 4, 0xd2e739ef2e2f9bfa),
    ((64, 49, 64), (32, 49, 64), [Nc, Kc, Mc, Mr, Nr], Packing::None, 26, 0x53cd60fe8757ec21),
    ((128, 49, 256), (64, 49, 256), [Nc, Kc, Mc, Mr, Nr], Packing::None, 51, 0xab9c9a15de904695),
    ((64, 196, 64), (32, 196, 64), [Nc, Kc, Mc, Mr, Nr], Packing::None, 92, 0xb3fee8ee8ae94425),
    ((64, 3136, 64), (64, 1568, 64), [Nc, Kc, Mc, Mr, Nr], Packing::None, 1387, 0x24c18e96666e3c66),
];

fn check_golden(golden: &Golden, sched: &autogemm_tuner::Schedule, placements: &[TilePlacement]) {
    let (shape, block, order, packing, count, sum) = *golden;
    let got = (sched.mc, sched.nc, sched.kc);
    assert_eq!(got, block, "{shape:?}: block");
    assert_eq!(sched.order, LoopOrder(order), "{shape:?}: loop order");
    assert_eq!(sched.packing, packing, "{shape:?}: packing");
    assert_eq!(placements.len(), count, "{shape:?}: tile count");
    assert_eq!(placement_checksum(placements), sum, "{shape:?}: placements");
}

#[test]
fn table_v_schedules_and_tilings_are_pinned() {
    let chip = ChipSpec::graviton2();
    let layers = autogemm_workloads::shapes::resnet50_table_v();
    for (layer, golden) in layers.iter().zip(&TABLE_V_TUNED) {
        assert_eq!((layer.m, layer.n, layer.k), golden.0);
        let s = autogemm_tuner::tune(layer.m, layer.n, layer.k, &chip);
        let plan = plan_dmt(s.mc, s.nc, s.kc, &chip, opts());
        check_golden(golden, &s, &plan.placements);
    }
}

#[test]
fn small_irregular_two_thread_plans_are_pinned() {
    let engine = autogemm::AutoGemm::new(ChipSpec::graviton2());
    for golden in &SMALL_IRREGULAR_T2 {
        let (m, n, k) = golden.0;
        let plan = engine.plan_multicore(m, n, k, 2);
        check_golden(golden, &plan.schedule, &plan.block_plan.placements);
    }
}
