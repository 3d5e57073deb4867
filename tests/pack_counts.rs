//! Regression guard for the panel cache: packing work must be amortized.
//!
//! The cached driver packs each A panel `(bi, kb)` and each B panel
//! `(kb, bj)` exactly once per GEMM — `tm·tk` + `tk·tn` packs — while the
//! historical per-block path packs `2·tm·tn·tk` times. These tests pin
//! both counts as measured by the per-thread pack tally
//! ([`thread_pack_counts`]): through the supervised driver's per-call
//! `GemmReport` when it records (`packs.a_packs` / `packs.b_packs`, the
//! sum of every pack runner's tally change) and, for paths that do not
//! record, as the change in the calling thread's own tally. Both are
//! race-free across concurrent GEMMs on other threads, so the tests below
//! can be independent `#[test]`s.

use autogemm::native::{gemm_with_plan_repack, try_gemm_with_plan_supervised, Operands};
use autogemm::packing::thread_pack_counts;
use autogemm::{
    ExecutionPlan, GemmBatch, GemmOptions, Op, OperandRouting, PackedB, PanelPool, Supervision,
};
use autogemm_arch::ChipSpec;
use autogemm_tuner::tune;

fn plan_for(m: usize, n: usize, k: usize) -> ExecutionPlan {
    let chip = ChipSpec::graviton2();
    ExecutionPlan::from_schedule(tune(m, n, k, &chip), &chip)
}

fn data(m: usize, n: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
    let a = (0..m * k).map(|i| ((i * 13 + 5) % 23) as f32 - 11.0).collect();
    let b = (0..k * n).map(|i| ((i * 7 + 2) % 19) as f32 - 9.0).collect();
    (a, b)
}

/// Count packs done by `f` on the calling thread (single-threaded paths
/// that do not record: offline prepack, the repack baseline).
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = thread_pack_counts();
    let out = f();
    let stats = thread_pack_counts().since(before);
    (out, stats.a_packs, stats.b_packs)
}

#[test]
fn cached_driver_packs_each_panel_once() {
    // (tm + tn)·tk packs per GEMM, at any thread count — read from the
    // recorded driver's own report, which sums every pack runner's tally.
    for (m, n, k, threads) in [(64, 196, 64, 1), (64, 196, 64, 4), (52, 72, 32, 3), (8, 8, 8, 16)] {
        let plan = plan_for(m, n, k);
        let (tm, tn, tk) = plan.grid();
        let (a, b) = data(m, n, k);
        let mut c = vec![0.0f32; m * n];
        let pool = PanelPool::new();
        let sup = Supervision::none();
        let ops = Operands::new(&a, &b);
        let report = try_gemm_with_plan_supervised(&plan, ops, &mut c, threads, &pool, &sup, true)
            .unwrap()
            .unwrap();
        assert_eq!(
            report.packs.a_packs,
            (tm * tk) as u64,
            "{m}x{n}x{k} t{threads}: A panels must be packed exactly tm*tk = {tm}*{tk} times"
        );
        assert_eq!(
            report.packs.b_packs,
            (tk * tn) as u64,
            "{m}x{n}x{k} t{threads}: B panels must be packed exactly tk*tn = {tk}*{tn} times"
        );
    }
}

#[test]
fn repack_baseline_packs_per_block() {
    // The historical repack path really does O(tm·tn·tk) packs of each
    // operand (kept as the benchmark baseline; this documents the
    // contrast the panel cache eliminates). Single-threaded so every
    // pack lands in the calling thread's tally.
    let (m, n, k) = (64, 196, 64);
    let plan = plan_for(m, n, k);
    let (tm, tn, tk) = plan.grid();
    let (a, b) = data(m, n, k);
    let mut c = vec![0.0f32; m * n];
    let ((), a_packs, b_packs) = counted(|| gemm_with_plan_repack(&plan, &a, &b, &mut c, 1));
    assert_eq!(a_packs, (tm * tn * tk) as u64);
    assert_eq!(b_packs, (tm * tn * tk) as u64);
}

#[test]
fn offline_prepacked_b_is_never_repacked() {
    // PackedB::new pays tk·tn B packs once; each prepacked GEMM
    // afterwards packs only A (tm·tk), and B never again.
    let (m, n, k) = (48, 96, 32);
    let plan = plan_for(m, n, k);
    let (tm, tn, tk) = plan.grid();
    let (a, b) = data(m, n, k);
    let (packed, a0, b0) = counted(|| PackedB::new(&plan, &b));
    assert_eq!(b0, (tk * tn) as u64, "offline B pack cost");
    assert_eq!(a0, 0);
    let pool = PanelPool::new();
    for _ in 0..3 {
        let mut c = vec![0.0f32; m * n];
        let ((), a_packs, b_packs) = counted(|| {
            autogemm::try_gemm_prepacked_pooled(&plan, &a, &packed, &mut c, 1, &pool).unwrap()
        });
        assert_eq!(a_packs, (tm * tk) as u64);
        assert_eq!(b_packs, 0, "prepacked B must never be re-packed");
    }
}

#[test]
fn batch_with_shared_b_packs_it_once() {
    // One offline pack of B for the whole batch (tk·tn), done upfront on
    // the calling thread. A single-threaded batch drains every item on
    // the caller too (the pool runtime hands nothing off at threads=1),
    // so each item's A panels are packed exactly once — items·tm·tk in
    // this thread's tally — and the shared B never re-packs.
    let (m, n, k, items) = (8usize, 12usize, 16usize, 5usize);
    let plan = plan_for(m, n, k);
    let (tm, tn, tk) = plan.grid();
    let a_store: Vec<Vec<f32>> =
        (0..items).map(|t| (0..m * k).map(|i| ((i + t) % 9) as f32 - 4.0).collect()).collect();
    let b_shared: Vec<f32> = (0..k * n).map(|i| (i % 11) as f32 - 5.0).collect();
    let mut batch = GemmBatch::new(m, n, k);
    for a in &a_store {
        batch.push(a, &b_shared);
    }
    let mut c = vec![0.0f32; items * m * n];
    let ((), a_packs, b_packs) = counted(|| {
        autogemm::try_gemm_batch_supervised(&plan, &batch, &mut c, 1, &Supervision::none()).unwrap()
    });
    assert_eq!(b_packs, (tk * tn) as u64, "batch sharing one B must pack it exactly once");
    assert_eq!(
        a_packs,
        (items * tm * tk) as u64,
        "single-threaded batch drains items on the caller, packing each item's A once"
    );
    // The batch output must still match item-by-item plan-level runs.
    for (i, a) in a_store.iter().enumerate() {
        let mut c_ref = vec![0.0f32; m * n];
        autogemm::native::gemm_with_plan(&plan, a, &b_shared, &mut c_ref, 1);
        assert_eq!(&c[i * m * n..(i + 1) * m * n], &c_ref[..], "batch item {i}");
    }
}

#[test]
fn transposed_forms_pack_each_panel_once() {
    // `op(A)·op(B)` runs through the cached driver: a transposed operand
    // only changes how its panels are packed, so every `Op` combination
    // packs tm·tk A panels and tk·tn B panels (the transposing packs
    // count in the same tally), never the 2·tm·tn·tk of a per-block
    // repacking loop. A transposed operand is packed even when the
    // plan's routing elides that operand; a row-major one follows the
    // routing. Single-threaded, so every pack lands in the calling
    // thread's tally.
    let (m, n, k) = (48, 80, 300);
    let packed = plan_for(m, n, k);
    let (tm, tn, tk) = packed.grid();
    assert!(tm > 1 && tn > 1 && tk > 1, "grid ({tm}, {tn}, {tk}) must be multi-block");
    let elided = packed.clone().with_routing(OperandRouting { pack_a: false, pack_b: false });
    let (a, b) = data(m, n, k);
    for op_a in [Op::NoTrans, Op::Trans] {
        for op_b in [Op::NoTrans, Op::Trans] {
            let mut outputs = Vec::new();
            for plan in [&packed, &elided] {
                let r = plan.routing;
                let mut c = vec![0.0f32; m * n];
                let ((), a_packs, b_packs) =
                    counted(|| autogemm::try_gemm_op(plan, op_a, op_b, &a, &b, &mut c, 1).unwrap());
                let want_a = if op_a == Op::Trans || r.pack_a { tm * tk } else { 0 };
                let want_b = if op_b == Op::Trans || r.pack_b { tk * tn } else { 0 };
                assert_eq!(a_packs, want_a as u64, "{op_a:?}/{op_b:?} {r:?}: A packs");
                assert_eq!(b_packs, want_b as u64, "{op_a:?}/{op_b:?} {r:?}: B packs");
                outputs.push(c);
            }
            // Integer-valued data: every routing computes the same bits.
            assert_eq!(outputs[0], outputs[1], "{op_a:?}/{op_b:?}: routing changed C");
        }
    }
}

#[test]
fn elided_pack_phase_does_no_pack_work() {
    // The engine's elision heuristic on a pack-dominated shape: L16-L20
    // ResNet-ish n (49 columns) tunes to a single column block
    // (tn = 1), so the A panels cannot be reused and the engine streams
    // A unpacked — zero A packs, and the report says so. (B keeps its
    // pack here: n = 49 has a lane tail, and only the padded panel keeps
    // the right-edge tiles on the vector kernels.)
    let engine = autogemm::AutoGemm::new(ChipSpec::graviton2());
    let (m, n, k) = (64, 49, 64);
    let (a, b) = data(m, n, k);
    let mut c = vec![0.0f32; m * n];
    let report = engine
        .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::new().threads(1))
        .unwrap();
    assert_eq!(report.dispatch.route, "block");
    // The report's routing must be exactly what the heuristic decides
    // for this grid.
    let (tm, tn) = (m / report.mc, n / report.nc);
    let routing = autogemm_perfmodel::route_packing(m, n, k, tm, tn);
    assert!(!routing.pack_a, "tn = {tn}: single-use A panels must elide on this shape");
    assert_eq!(report.dispatch.packed_a, routing.pack_a, "A routing must follow the heuristic");
    assert_eq!(report.dispatch.packed_b, routing.pack_b, "B routing must follow the heuristic");
    if !report.dispatch.packed_a {
        assert_eq!(report.packs.a_packs, 0, "elided A pack phase must do no pack work");
    }
    if !report.dispatch.packed_b {
        assert_eq!(report.packs.b_packs, 0, "elided B pack phase must do no pack work");
    }
    // Whatever the routing, the output must match the always-packed
    // plan-level driver bit for bit.
    let plan = engine.plan(m, n, k);
    let mut c_ref = vec![0.0f32; m * n];
    autogemm::native::gemm_with_plan(&plan, &a, &b, &mut c_ref, 1);
    assert_eq!(c, c_ref);
}
