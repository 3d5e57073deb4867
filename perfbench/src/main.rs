//! # autogemm-perfbench
//!
//! The repository's benchmark: one command that runs one workload of the
//! autogemm engine for a fixed window, checks every output, and prints the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced run)
//! as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resnet50_t1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Inputs come only from `--seed`. Every end-to-end figure is read from
//! the quieter part of the window, never from a window total: on a shared
//! host a neighbour's bursts of CPU use slow every call for a second or so
//! at a time (on a 2-vCPU Xeon, per-second rates of a one-caller service
//! loop ranged 2885–4594/s within one run, and across three runs the
//! median slice rate moved 12% while the upper quartile moved 3%), whereas
//! a slowdown of the program slows every part of the window. Percentiles
//! come from the benchmark's own per-unit samples and are printed with
//! their sample counts. A wrong output exits with code 1.
//!
//! ## Workloads
//!
//! * `resnet50_t1` — one caller, `threads = 1`, verify off; the unit is one
//!   pass over the 20 ResNet-50 layers of Table V in layer order. The
//!   paper's headline shape set: nearly all time is packing and the
//!   micro-kernel on packed panels, and the largest operands exceed L2, so
//!   a kernel, packing or tiling gain shows here first.
//! * `small_irregular_t2` — one caller, `threads = 2` (the caller plus one
//!   pool worker), verify off; the unit is one call, one pass is every
//!   shape once, reshuffled from the seed before every pass: the Fig 8
//!   cubes 4–128, ragged shapes, GEMV shapes and small-`k` shapes. Calls
//!   last 1–1000 µs, so breaker admission, plan lookup, route choice, the
//!   GEMV/small-`k` routes and pool wake/drain are a large share of each
//!   call — the opposite balance to `resnet50_t1`.
//! * `service_2tenant` — a `GemmService` with tenants `plain` (verify off)
//!   and `checked` (verify always), each driven by one closed-loop caller
//!   thread; tenant `threads = 1` and `max_in_flight = 1`, global
//!   `max_in_flight = 2`. Every request passes admission (the shed
//!   estimate, the queue and dispatch) and every `checked` request
//!   Freivalds verification; none of that is on the path of the other
//!   two. `plain` draws all four shapes, `checked` all but the GEMV (see
//!   `MIX_WEIGHTS` in `workloads`). The global cap is 2 rather than 1 because with 1 each request
//!   waited for a wake-up on the other core, and on a shared 2-vCPU host
//!   the latency of that wake-up, not the service, set the rate (per-slice
//!   rates 1660–4852/s within one run).
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! `gflops` (pass FLOPs ÷ lower-quartile pass time; service: upper
//! quartile of the completed FLOP rates of 40 window slices),
//! `goodput_per_s` (calls per pass ÷ lower-quartile pass time; service:
//! upper quartile of the slice rates of requests completed OK, which for
//! `checked` means verified), `latency_p50_us` and `latency_tail_us` per
//! unit (the tail is the highest of p99/p90 with at least ten samples
//! beyond it; both are read per slice of at least 2000 units and reported
//! as the lower quartile over the slices, see `stats::quiet`; windows of
//! fewer units, as in `resnet50_t1`, give one slice), `setup_s` (median of
//! three set-ups, each in a fresh process because the tuner memoizes block
//! costs process-wide: construction plus one tuned call per distinct
//! shape) and `peak_rss_mb` (peak resident set once set-up is done,
//! before the benchmark's sample logs grow).
//!
//! ## Per-layer metrics (`--trace 1`) and the end-to-end metric each moves
//!
//! | layer metric | moves |
//! |---|---|
//! | `tuner.plan_miss_ms` | `setup_s`, most on `resnet50_t1` |
//! | `plancache.lookup_ns`, `plancache.hits/misses/evictions` | `small_irregular_t2/latency_p50_us` |
//! | `engine.overhead_us` (engine call − bare driver, same plan) | `small_irregular_t2/latency_p50_us`; ~0% of `resnet50_t1` |
//! | `packing.pack_a_gbps`, `packing.pack_b_gbps` (computed bytes) | `resnet50_t1/gflops` |
//! | `native.driver_gflops`, `native.pack_b_share` (fully packed driver vs the same plan with `B` prepacked) | `resnet50_t1/gflops` |
//! | `kernels.tile_gflops`, `kernels.ceiling_ratio` (driver ÷ tile rate × threads) | `resnet50_t1/gflops` |
//! | `gemv.row_us`, `gemv.col_us`, `gemv.small_k_us` | `small_irregular_t2/latency_p50_us` |
//! | `runtime.submissions/wake_count/wake_us_avg/busy_share` | `small_irregular_t2/latency_tail_us`; zero on the others |
//! | `verify.check_us`, `verify.runs`, `verify.share` | `service_2tenant/goodput_per_s`, `latency_p50_us` |
//! | `verify.gemv_check_us` (the row GEMV, which `checked` leaves out) | no end-to-end metric |
//! | `service.queue_wait_us_p50/tail`, `service.admitted/rejected/shed/expired` | `service_2tenant/latency_tail_us` |
//! | `supervisor.breaker_transitions`, `telemetry.spans_dropped` | zero on clean runs |
//! | `telemetry.trace_overhead` | traced ÷ untraced median unit time |
//! | `trace.*_share` | self-time split of the traced window; `trace.unattributed_share` is the remainder |
//! | `engine.hist_call_p50_us`, `service.hist_queue_wait_p50_us` | cross-checks from the engine's log2 histograms |
//!
//! A traced run splits its window in two: an untraced half for the
//! counters and the baseline, then a half on an engine built with
//! `AutoGemm::with_tracing`, whose span rings are joined to the
//! benchmark's own spans (see `spans`) and written to
//! `perfbench/out/trace-<workload>-seed<n>.json`. Counters and the traced
//! split come from the workload's own windows;
//! the timed probes (`plancache.lookup_ns` through `verify.check_us`) call
//! each layer's public function on the workload's distinct shapes outside
//! the window — through a standalone engine for `service_2tenant`, whose
//! tenant engines are private — and the `gemv.*` probes always use the
//! shapes 1×3136×64, 3136×1×64 and 64×49×8.
//!
//! Layers a workload does not exercise report 0. Plan-cache misses and
//! evictions, service rejections, sheds and expiries, and breaker
//! transitions inside a timed window count as failed operations.

mod inputs;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use autogemm_arch::ChipSpec;
use report::Sink;
use workloads::Ctx;

/// One workload: its runner and the threads it occupies.
struct Workload {
    name: &'static str,
    /// Closed-loop caller threads.
    callers: usize,
    /// Threads per engine call (the caller plus `threads - 1` pool
    /// workers).
    threads: usize,
    run: fn(&Ctx, &mut Sink),
}

const WORKLOADS: [Workload; 3] = [
    Workload { name: "resnet50_t1", callers: 1, threads: 1, run: workloads::resnet50_t1 },
    Workload {
        name: "small_irregular_t2",
        callers: 1,
        threads: 2,
        run: workloads::small_irregular_t2,
    },
    Workload { name: "service_2tenant", callers: 2, threads: 1, run: workloads::service_2tenant },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, setup_only: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--setup-only" => args.setup_only = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

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
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {:?} (one of {names:?})", args.workload);
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} host_parallelism={} cpu=\"{}\" simd={}",
        autogemm::host_parallelism(),
        cpu_model(),
        autogemm::simd::SimdBackend::detect().name()
    );
    let needed = w.callers + w.threads - 1;
    if needed > nproc {
        eprintln!(
            "perfbench: {} needs {needed} threads ({} callers + {} pool workers) but nproc is {nproc}",
            w.name,
            w.callers,
            w.threads - 1
        );
        std::process::exit(2);
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let ctx = Ctx {
        workload: w.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_only: args.setup_only,
        chip: ChipSpec::graviton2(),
    };
    let mut sink = Sink::default();
    (w.run)(&ctx, &mut sink);
    if args.setup_only {
        std::process::exit(i32::from(sink.failed > 0));
    }
    println!("{}", sink.result_line(args.trace));
    if sink.wrong_outputs > 0 {
        std::process::exit(1);
    }
}
