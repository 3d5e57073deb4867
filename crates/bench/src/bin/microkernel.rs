//! Emit `BENCH_microkernel.json`: per-shape GFLOP/s of the dispatched
//! SIMD micro-kernel menu vs the scalar reference kernel, cross-checked
//! against the perfmodel's projected cycle counts (Eqns 4–11).
//!
//! For every `(m_r, n_r)` shape in the native dispatch menu
//! ([`autogemm::native::KERNEL_MENU`]) the binary times the
//! runtime-dispatched SIMD kernel ([`autogemm::native::run_placement`])
//! and the scalar reference ([`autogemm::native::run_placement_ref`]) on
//! a hot, packed `kc = 256` panel pair, then records:
//!
//! * achieved GFLOP/s of both kernels and the SIMD/scalar speedup;
//! * the perfmodel's projected cycles for the same `(tile, kc)` on the
//!   Graviton2 model and the derived model flops-per-cycle;
//! * `effective_ghz = achieved_simd_flops_per_ns / model_flops_per_cycle`
//!   — the clock the modelled chip would need to reproduce the host's
//!   throughput. The absolute value is host-specific; its *flatness
//!   across shapes* is the model-validation signal (a tile whose
//!   effective GHz sags is one the model over-predicts, exactly the
//!   per-shape achieved-vs-predicted tracking §III-B uses).
//!
//! ```text
//! cargo run --release -p autogemm-bench --bin microkernel [OUT.json]
//! cargo run --release -p autogemm-bench --bin microkernel -- --smoke
//! ```
//!
//! Before timing a shape, the binary checks the dispatched kernel
//! against the scalar reference on packed panels of fractional values
//! (full tile with and without accumulate, plus an edge tile):
//! bit-for-bit on fused backends (every backend but `x86_sse2`), within
//! 1e-3 relative otherwise. A miscompiled kernel build fails the run
//! instead of being timed.
//!
//! `--smoke` (the CI mode) runs only the four first-choice shapes with
//! fewer samples and writes no artifact unless a path is also given.
//! The artifact records the dispatched backend, `host_parallelism` and
//! the host's CPU model.

use autogemm::native::{run_placement, run_placement_ref, CTile, KERNEL_MENU};
use autogemm::packing::{pack_a, pack_b};
use autogemm::simd::SimdBackend;
use autogemm_arch::ChipSpec;
use autogemm_kernelgen::MicroTile;
use autogemm_perfmodel::micro::{projected_cycles, ModelOpts};
use autogemm_tiling::TilePlacement;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const KC: usize = 256;

struct Entry {
    mr: usize,
    nr: usize,
    simd_gflops: f64,
    scalar_gflops: f64,
    model_cycles: f64,
    model_flops_per_cycle: f64,
}

/// Median seconds per call: calibrate an inner iteration count so one
/// sample is ≥ `min_sample_s`, then take `reps` samples.
fn median_secs_per_call(reps: usize, min_sample_s: f64, mut f: impl FnMut()) -> f64 {
    let mut iters = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed().as_secs_f64() >= min_sample_s || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Run the dispatched kernel and the scalar reference on the same
/// packed operands, full and edge tile, accumulate on and off, and panic
/// if they disagree (bitwise when `fused`). The operands carry fractional
/// values so products round: a build that rounds twice differs from the
/// single-rounding reference in low bits.
fn check_against_reference(tile: MicroTile, fused: bool) {
    let (mr, nr) = (tile.mr, tile.nr);
    let frac = |i: usize, seed: usize| ((i * 2654435761 + seed) % 65521) as f32 / 8192.0 - 4.0;
    let a_src: Vec<f32> = (0..mr * KC).map(|i| frac(i, 1)).collect();
    let b_src: Vec<f32> = (0..KC * nr).map(|i| frac(i, 2)).collect();
    let (pa, pb) = (pack_a(&a_src, KC, 0, 0, mr, KC, 4), pack_b(&b_src, nr, 0, 0, KC, nr, 4));
    let (a, lda, b, ldb) = (&pa.data[..], pa.ld, &pb.data[..], pb.ld);
    let edge = TilePlacement {
        eff_rows: mr.div_ceil(2),
        eff_cols: nr - 1,
        ..TilePlacement::full(0, 0, tile)
    };
    let c0: Vec<f32> = (0..mr * nr).map(|i| frac(i, 3)).collect();
    for placement in [TilePlacement::full(0, 0, tile), edge] {
        for accumulate in [false, true] {
            let (mut got, mut want) = (c0.clone(), c0.clone());
            // SAFETY: each buffer holds the whole mr × nr tile at stride
            // nr and outlives its handle.
            let cg = unsafe { CTile::new(got.as_mut_ptr(), nr, got.len()) };
            let cw = unsafe { CTile::new(want.as_mut_ptr(), nr, want.len()) };
            run_placement(&placement, KC, a, lda, b, ldb, cg, accumulate);
            run_placement_ref(&placement, KC, a, lda, b, ldb, cw, accumulate);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let ok = if fused {
                    g.to_bits() == w.to_bits()
                } else {
                    (g - w).abs() <= 1e-3 * w.abs().max(1.0)
                };
                assert!(
                    ok,
                    "{mr}x{nr} eff=({},{}) accumulate={accumulate}: C[{i}] simd {g} vs reference {w}",
                    placement.eff_rows, placement.eff_cols
                );
            }
        }
    }
}

/// The host CPU's model name from `/proc/cpuinfo` (`"unknown"` elsewhere).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args.iter().find(|a| !a.starts_with("--")).cloned();
    let out_path = match (smoke, out_path) {
        (_, Some(p)) => Some(p),
        (true, None) => None,
        (false, None) => Some("BENCH_microkernel.json".to_string()),
    };
    let (reps, min_sample_s) = if smoke { (5, 1e-4) } else { (15, 1e-3) };
    let chip = ChipSpec::graviton2();
    let backend = SimdBackend::detect();
    println!("dispatched SIMD backend: {}", backend.name());

    let menu: Vec<(usize, usize)> = if smoke {
        autogemm_kernelgen::tiles::first_choice_neon().iter().map(|t| (t.mr, t.nr)).collect()
    } else {
        KERNEL_MENU.to_vec()
    };

    let mut entries = Vec::new();
    for (mr, nr) in menu {
        let tile = MicroTile::new(mr, nr);
        let placement = TilePlacement::full(0, 0, tile);
        // Packed operands exactly as the block driver provides them
        // (lane-padded, 64-byte-aligned panels, hot in L1 for kc = 256).
        let a_src: Vec<f32> = (0..mr * KC).map(|i| ((i * 13 + 5) % 23) as f32 - 11.0).collect();
        let b_src: Vec<f32> = (0..KC * nr).map(|i| ((i * 7 + 2) % 19) as f32 - 9.0).collect();
        let pa = pack_a(&a_src, KC, 0, 0, mr, KC, 4);
        let pb = pack_b(&b_src, nr, 0, 0, KC, nr, 4);
        check_against_reference(tile, backend.fused());
        let mut cbuf = vec![0.0f32; mr * nr];

        let flops = 2.0 * (mr * nr * KC) as f64;
        let simd_s = median_secs_per_call(reps, min_sample_s, || {
            let ct = unsafe { CTile::new(cbuf.as_mut_ptr(), nr, cbuf.len()) };
            run_placement(black_box(&placement), KC, &pa.data, pa.ld, &pb.data, pb.ld, ct, true);
        });
        let scalar_s = median_secs_per_call(reps, min_sample_s, || {
            let ct = unsafe { CTile::new(cbuf.as_mut_ptr(), nr, cbuf.len()) };
            run_placement_ref(
                black_box(&placement),
                KC,
                &pa.data,
                pa.ld,
                &pb.data,
                pb.ld,
                ct,
                true,
            );
        });

        let model_cycles = projected_cycles(tile, KC, &chip, ModelOpts::default());
        let e = Entry {
            mr,
            nr,
            simd_gflops: flops / simd_s / 1e9,
            scalar_gflops: flops / scalar_s / 1e9,
            model_cycles,
            model_flops_per_cycle: flops / model_cycles,
        };
        println!(
            "{mr}x{nr:<3} kc={KC}: simd {:>7.2} GFLOPS  scalar {:>7.2} GFLOPS  \
             speedup {:>5.2}x  model {:>7.0} cyc ({:.2} flops/cyc, eff {:.2} GHz)",
            e.simd_gflops,
            e.scalar_gflops,
            e.simd_gflops / e.scalar_gflops,
            e.model_cycles,
            e.model_flops_per_cycle,
            e.simd_gflops / e.model_flops_per_cycle,
        );
        entries.push(e);
    }

    let Some(out_path) = out_path else {
        println!("smoke mode: every shape matched the reference; no artifact written");
        return;
    };
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"microkernel\",");
    let _ = writeln!(
        json,
        "  \"command\": \"cargo run --release -p autogemm-bench --bin microkernel\","
    );
    let _ = writeln!(json, "  \"backend\": \"{}\",", backend.name());
    let _ = writeln!(json, "  \"host_parallelism\": {},", autogemm::host_parallelism());
    let _ = writeln!(json, "  \"cpu_model\": {:?},", cpu_model());
    let _ = writeln!(json, "  \"kc\": {KC},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"model_chip\": \"{}\",", chip.id);
    let _ = writeln!(json, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mr\": {}, \"nr\": {}, \"simd_gflops\": {:.3}, \"scalar_gflops\": {:.3}, \
             \"speedup\": {:.3}, \"model_cycles\": {:.1}, \"model_flops_per_cycle\": {:.3}, \
             \"effective_ghz\": {:.3}}}",
            e.mr,
            e.nr,
            e.simd_gflops,
            e.scalar_gflops,
            e.simd_gflops / e.scalar_gflops,
            e.model_cycles,
            e.model_flops_per_cycle,
            e.simd_gflops / e.model_flops_per_cycle,
        );
        let _ = writeln!(json, "{}", if i + 1 < entries.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write artifact");
    println!("wrote {out_path}");
}
