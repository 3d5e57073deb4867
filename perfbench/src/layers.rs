//! Per-layer probes: each layer's public function timed on its own, on the
//! workload's distinct shapes, outside the timed window.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use autogemm::native::{run_placement, try_gemm_with_plan_pooled, CTile};
use autogemm::packing::{
    pack_a, pack_a_into, pack_b, pack_b_into, pack_traffic_bytes, PackedBlock,
};
use autogemm::{
    try_gemm_prepacked_pooled, AutoGemm, ExecutionPlan, GemmOptions, OperandRouting, PackedB,
    PanelPool,
};

use crate::inputs::{Problem, Shape};
use crate::report::Sink;
use crate::stats::median;

/// Shortest sample worth timing; faster bodies are looped.
const MIN_SAMPLE_S: f64 = 50e-6;

/// Seconds per iteration of `f`, looped enough for one sample to last
/// [`MIN_SAMPLE_S`].
fn calibrate(f: &mut dyn FnMut()) -> u32 {
    let mut iters = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_secs_f64() >= MIN_SAMPLE_S || iters >= 1 << 16 {
            return iters;
        }
        iters *= 2;
    }
}

fn sample(iters: u32, f: &mut dyn FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() / f64::from(iters)
}

/// Median seconds per call of `f` over `rounds` samples.
fn median_secs(rounds: usize, f: &mut dyn FnMut()) -> f64 {
    let iters = calibrate(f);
    let mut v: Vec<f64> = (0..rounds).map(|_| sample(iters, f)).collect();
    median(&mut v)
}

/// Interleaved timing of several bodies: each round takes one sample of
/// every body, so slow phases of the host hit all of them alike. Returns
/// each body's median seconds per call.
fn interleaved(rounds: usize, bodies: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let iters: Vec<u32> = bodies.iter_mut().map(|f| calibrate(*f)).collect();
    let mut samples = vec![Vec::with_capacity(rounds); bodies.len()];
    for _ in 0..rounds {
        for ((f, &it), s) in bodies.iter_mut().zip(&iters).zip(samples.iter_mut()) {
            s.push(sample(it, *f));
        }
    }
    samples.iter_mut().map(|s| median(s)).collect()
}

/// Engine call on `p` writing `c`.
fn engine_call(engine: &AutoGemm, opts: &GemmOptions, p: &Problem, c: &mut [f32]) -> bool {
    let Shape { m, n, k } = p.shape;
    engine.try_gemm_opts(m, n, k, &p.a, &p.b, c, opts).is_ok()
}

/// The plan the engine executes for a block-routed shape: the cached
/// tuned plan under the thread count's key, with the engine's
/// packing-elision routing applied.
fn engine_plans(engine: &AutoGemm, s: Shape, threads: usize) -> (ExecutionPlan, ExecutionPlan) {
    let packed = if threads > 1 {
        engine.plan_multicore(s.m, s.n, s.k, threads)
    } else {
        engine.plan(s.m, s.n, s.k)
    };
    let (tm, tn, _) = packed.grid();
    let r = autogemm_perfmodel::route_packing(s.m, s.n, s.k, tm, tn);
    let routed = packed.clone().with_routing(OperandRouting { pack_a: r.pack_a, pack_b: r.pack_b });
    (packed, routed)
}

/// Time of one cached `AutoGemm::plan` lookup under the workload's key.
fn lookup_secs(engine: &AutoGemm, s: Shape, threads: usize) -> f64 {
    median_secs(15, &mut || {
        let p = if threads > 1 {
            engine.plan_multicore(black_box(s.m), s.n, s.k, threads)
        } else {
            engine.plan(black_box(s.m), s.n, s.k)
        };
        black_box(p);
    })
}

/// Micro-kernel rate of the plan's dominant tile (the tile covering the
/// most output cells) on L1-resident packed panels, in GFLOP/s. Rates are
/// cached per `(m_r, n_r, k_c)`.
fn tile_gflops(plan: &ExecutionPlan, cache: &mut BTreeMap<(usize, usize, usize), f64>) -> f64 {
    let mut cells: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for p in &plan.block_plan.placements {
        *cells.entry((p.tile.mr, p.tile.nr)).or_default() += p.eff_rows * p.eff_cols;
    }
    let Some((&(mr, nr), _)) = cells.iter().max_by_key(|&(_, &c)| c) else { return 0.0 };
    let Some(&dominant) =
        plan.block_plan.placements.iter().find(|p| (p.tile.mr, p.tile.nr) == (mr, nr))
    else {
        return 0.0;
    };
    let kc = plan.schedule.kc.min(256);
    *cache.entry((mr, nr, kc)).or_insert_with(|| {
        let mut placement = dominant;
        (placement.row, placement.col, placement.eff_rows, placement.eff_cols) = (0, 0, mr, nr);
        let a: Vec<f32> = (0..mr * kc).map(|i| ((i * 13 + 5) % 23) as f32 - 11.0).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 7 + 2) % 19) as f32 - 9.0).collect();
        let pa = pack_a(&a, kc, 0, 0, mr, kc, plan.sigma_lane);
        let pb = pack_b(&b, nr, 0, 0, kc, nr, plan.sigma_lane);
        let mut c = vec![0.0f32; mr * nr];
        let secs = median_secs(15, &mut || {
            // SAFETY: `c` is an `mr × nr` buffer owned by this thread and
            // the placement covers exactly that tile at the origin.
            let ct = unsafe { CTile::new(c.as_mut_ptr(), nr, c.len()) };
            run_placement(black_box(&placement), kc, &pa.data, pa.ld, &pb.data, pb.ld, ct, true);
        });
        2.0 * (mr * nr * kc) as f64 / secs / 1e9
    })
}

/// Samples per probe body.
const ROUNDS: usize = 9;

/// The fixed shapes the GEMV and small-`k` routes are probed on, with the
/// metric each one feeds.
const GEMV_PROBES: [(Shape, &str); 3] = [
    (Shape::new(1, 3136, 64), "gemv.row_us"),
    (Shape::new(3136, 1, 64), "gemv.col_us"),
    (Shape::new(64, 49, 8), "gemv.small_k_us"),
];

/// Sums over the block-routed shapes, turned into rates at the end.
#[derive(Default)]
struct Totals {
    flops: f64,
    driver_s: f64,
    /// The driver on the fully packed plan, and the same plan with `B`
    /// packed ahead of time.
    packed_driver_s: f64,
    prepacked_s: f64,
    pack_a_bytes: f64,
    pack_a_s: f64,
    pack_b_bytes: f64,
    pack_b_s: f64,
    /// Time the shapes would take at their dominant tile's rate.
    tile_s: f64,
    overhead_us: Vec<f64>,
    lookup_ns: Vec<f64>,
}

/// Probe every layer below the engine front door on `problems` through
/// `engine` at `threads`, adding the per-layer metrics to `sink`. Every
/// output computed here is checked against the reference.
pub fn probe(engine: &AutoGemm, threads: usize, problems: &[Problem], seed: u64, sink: &mut Sink) {
    let opts = GemmOptions::new().threads(threads);
    // One panel pool per driver body, as the engine keeps its own: a pool
    // shared by drivers with different panel sizes would regrow buffers.
    let pools = [PanelPool::new(), PanelPool::new(), PanelPool::new()];
    let mut tiles = BTreeMap::new();
    let mut t = Totals::default();
    for p in problems.iter().filter(|p| p.shape.is_block()) {
        let s = p.shape;
        // The first call tunes the shape on an engine that has not seen it.
        let mut c_eng = p.output();
        let mut ok_eng = engine_call(engine, &opts, p, &mut c_eng);
        let (packed, routed) = engine_plans(engine, s, threads);
        t.lookup_ns.push(lookup_secs(engine, s, threads) * 1e9);
        let prepacked = PackedB::new(&packed, &p.b);
        let (mut c_drv, mut c_full, mut c_pre) = (p.output(), p.output(), p.output());
        let (mut ok_drv, mut ok_full, mut ok_pre) = (true, true, true);
        let sch = &packed.schedule;
        let (tm, tn, tk) = packed.grid();
        let (mut da, mut db) = (PackedBlock::empty(), PackedBlock::empty());
        let secs = interleaved(
            ROUNDS,
            &mut [
                &mut || ok_eng &= engine_call(engine, &opts, p, &mut c_eng),
                &mut || {
                    ok_drv &= try_gemm_with_plan_pooled(
                        &routed, &p.a, &p.b, &mut c_drv, threads, &pools[0],
                    )
                    .is_ok()
                },
                &mut || {
                    ok_full &= try_gemm_with_plan_pooled(
                        &packed,
                        &p.a,
                        &p.b,
                        &mut c_full,
                        threads,
                        &pools[1],
                    )
                    .is_ok()
                },
                &mut || {
                    ok_pre &= try_gemm_prepacked_pooled(
                        &packed, &p.a, &prepacked, &mut c_pre, threads, &pools[2],
                    )
                    .is_ok()
                },
                &mut || {
                    for idx in 0..tm * tk {
                        let (bi, kb) = (idx / tk, idx % tk);
                        pack_a_into(
                            &mut da,
                            &p.a,
                            sch.k,
                            bi * sch.mc,
                            kb * sch.kc,
                            sch.mc,
                            sch.kc,
                            packed.sigma_lane,
                        );
                    }
                },
                &mut || {
                    for idx in 0..tk * tn {
                        let (kb, bj) = (idx / tn, idx % tn);
                        pack_b_into(
                            &mut db,
                            &p.b,
                            sch.n,
                            kb * sch.kc,
                            bj * sch.nc,
                            sch.kc,
                            sch.nc,
                            packed.sigma_lane,
                        );
                    }
                },
            ],
        );
        sink.check(p, ok_eng.then_some(&c_eng));
        sink.check(p, ok_drv.then_some(&c_drv));
        sink.check(p, ok_full.then_some(&c_full));
        sink.check(p, ok_pre.then_some(&c_pre));
        let (eng, drv, full, pre, pa, pb) = (secs[0], secs[1], secs[2], secs[3], secs[4], secs[5]);
        let a_bytes = (tm * tk) as f64 * pack_traffic_bytes(sch.mc, sch.kc) as f64;
        let b_bytes = (tk * tn) as f64 * pack_traffic_bytes(sch.kc, sch.nc) as f64;
        let tile = tile_gflops(&packed, &mut tiles);
        println!(
            "layer {s}: engine {:.1}us driver {:.1}us (fully packed {:.1}us, B prepacked {:.1}us) \
             overhead {:.2}us pack A {:.2} GB/s pack B {:.2} GB/s tile {:.2} GFLOP/s \
             routing A={} B={} grid {tm}x{tn}x{tk}",
            eng * 1e6,
            drv * 1e6,
            full * 1e6,
            pre * 1e6,
            (eng - drv) * 1e6,
            a_bytes / pa / 1e9,
            b_bytes / pb / 1e9,
            tile,
            routed.routing.pack_a,
            routed.routing.pack_b,
        );
        t.flops += s.flops();
        t.driver_s += drv;
        t.packed_driver_s += full;
        t.prepacked_s += pre;
        t.pack_a_bytes += a_bytes;
        t.pack_a_s += pa;
        t.pack_b_bytes += b_bytes;
        t.pack_b_s += pb;
        t.tile_s += if tile > 0.0 { s.flops() / (tile * 1e9) } else { 0.0 };
        t.overhead_us.push((eng - drv) * 1e6);
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let driver_gflops = ratio(t.flops, t.driver_s) / 1e9;
    let tile_gflops = ratio(t.flops, t.tile_s) / 1e9;
    sink.layer("plancache.lookup_ns", median(&mut t.lookup_ns), "ns");
    sink.layer("engine.overhead_us", median(&mut t.overhead_us), "us");
    sink.layer("packing.pack_a_gbps", ratio(t.pack_a_bytes, t.pack_a_s) / 1e9, "GB/s");
    sink.layer("packing.pack_b_gbps", ratio(t.pack_b_bytes, t.pack_b_s) / 1e9, "GB/s");
    sink.layer("native.driver_gflops", driver_gflops, "GFLOP/s");
    sink.layer(
        "native.pack_b_share",
        ratio(t.packed_driver_s - t.prepacked_s, t.packed_driver_s),
        "ratio",
    );
    sink.layer("kernels.tile_gflops", tile_gflops, "GFLOP/s");
    // The ceiling is the tile rate on every engaged thread.
    sink.layer(
        "kernels.ceiling_ratio",
        ratio(driver_gflops, tile_gflops * threads as f64),
        "ratio",
    );
    println!("layer pack bytes are computed (read + write of every packed element), not measured");

    for (i, &(shape, name)) in GEMV_PROBES.iter().enumerate() {
        let p = Problem::new(shape, seed, 1000 + i);
        let mut c = p.output();
        let mut ok = true;
        let secs = median_secs(21, &mut || ok &= engine_call(engine, &opts, &p, &mut c));
        sink.check(&p, ok.then_some(&c));
        println!("layer {shape}: engine {:.2}us ({name})", secs * 1e6);
        sink.layer(name, secs * 1e6, "us");
    }

    let mut check_us: Vec<f64> =
        problems.iter().map(|p| verify_us(engine, &opts, p, sink)).collect();
    sink.layer("verify.check_us", median(&mut check_us), "us");
    // Checking the row GEMV costs many times the GEMV itself; the service
    // workload's `checked` tenant leaves that shape out of its mix, so its
    // cost is reported here for every workload.
    let gemv = Problem::new(GEMV_PROBES[0].0, seed, 1000);
    let gemv_us = verify_us(engine, &opts, &gemv, sink);
    sink.layer("verify.gemv_check_us", gemv_us, "us");
}

/// Median `verify::verify_output` time of `p`'s engine-computed output,
/// in µs; a rejected correct output counts as a failure.
fn verify_us(engine: &AutoGemm, opts: &GemmOptions, p: &Problem, sink: &mut Sink) -> f64 {
    let mut c = p.output();
    let ok = engine_call(engine, opts, p, &mut c);
    sink.check(p, ok.then_some(&c));
    let Shape { m, n, k } = p.shape;
    let mut verdict = Ok(());
    let secs = median_secs(ROUNDS, &mut || {
        verdict = autogemm::verify::verify_output(m, n, k, &p.a, &p.b, &c)
    });
    if verdict.is_err() {
        sink.fail(1, &format!("verify::verify_output rejected a correct {} output", p.shape));
    }
    println!("layer {}: verify_output {:.2}us", p.shape, secs * 1e6);
    secs * 1e6
}
