#!/usr/bin/env bash
# Local CI gate. Run from the repository root:
#
#   ./ci.sh          # tier-1 build+test, rustfmt, clippy
#   ./ci.sh quick    # tier-1 only (skip fmt/clippy)
#
# All dependencies resolve to the path-based stubs in shims/, so the gate
# runs fully offline; CARGO_NET_OFFLINE keeps cargo from ever consulting a
# registry even when one is configured.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: test =="
# The workspace's default members are the root package and every library
# crate except `workloads` and `bench` (see Cargo.toml), so this also runs
# their unit tests and doctests against the one build that ships: live
# telemetry clocks, compiled-in fault probes. That includes the chaos
# suite (tests/chaos.rs), the pack-count guards and the live-timing
# report tests.
cargo test -q

if [[ "${1:-}" == "quick" ]]; then
    echo "CI quick gate passed."
    exit 0
fi

echo "== scalar-fallback SIMD config =="
# Exercise the portable array backend of the SIMD lane layer: the same
# kernels and property tests must pass with the arch intrinsics compiled
# out (what non-NEON/non-SSE targets get).
cargo test -q -p autogemm --features force-scalar
cargo test -q -p autogemm-repro --features autogemm/force-scalar --test simd_kernels

echo "== supervision soak (smoke length) =="
# Randomized watchdog-supervised calls under seeded fault plans: every
# call structured-error-or-correct, zero pool-buffer leaks, and the
# circuit breaker never stuck Open once the probes disarm. Every
# threaded call routes through the persistent worker pool, so this
# doubles as the pool soak. The full run (2000 iters) is the default
# when invoked without a count.
cargo run --release -p autogemm-bench --bin native_gemm -- --soak 400

echo "== panic policy (library code) =="
# The fallible API contract: no unwrap/expect in autogemm library code —
# internal invariants must carry a scoped #[allow] with a justification.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --no-deps -p autogemm --lib -- \
        -D warnings -D clippy::unwrap_used -D clippy::expect_used
else
    echo "clippy not installed; skipping (non-fatal)"
fi

echo "== native bench smoke (fallible-path overhead + input-aware dispatch) =="
# Asserts try_* is bit-identical to and not measurably slower than the
# classic drivers, loosely cross-checks BENCH_native_gemm.json, gates
# the input-aware engine path on Table V ResNet shapes (bit-identical
# to and never slower than the always-packed panel-cache driver beyond
# noise), and checks plan-cache determinism (repeat shape → cache hit,
# identical output).
cargo run --release -p autogemm-bench --bin native_gemm -- --smoke

echo "== worker-pool dispatch smoke =="
# Streams a Table V small shape through the persistent pool and the
# scoped-spawn baseline on the same plan: bit-identical results, pooled
# p50 never slower than scoped beyond noise, zero per-call OS thread
# creation and zero leaked pool workers.
cargo run --release -p autogemm-bench --bin pool_overhead -- --smoke

echo "== service overload smoke =="
# Paced offered-load sweep (0.5x/1x/2x of measured saturation) through
# the admission-controlled service: at 2x the overflow must come back as
# deterministic structured rejections with bounded p99 for admitted
# calls, and every load level must drain the queue, the in-flight gauge
# and the pool back to idle.
cargo run --release -p autogemm-bench --bin service_soak -- --smoke

echo "== microkernel bench smoke =="
cargo run --release -p autogemm-bench --bin microkernel -- --smoke

echo "== gemmtrace bench smoke =="
# Runs the traced shape sweep's cube subset through the engine front
# door, re-parses every emitted report through the GemmReport
# schema-version guard, and gates that metrics-off try_gemm_opts latency
# stays within noise of metrics-on.
cargo run --release -p autogemm-bench --bin gemmtrace -- --smoke

echo "== bench artifact schema guard =="
# Re-parse every committed BENCH_*.json through the versioned-schema
# parser: embedded GemmReports must pass the lenient version guard,
# timeline artifacts must be well-formed Chrome trace events, and every
# artifact (including ones with no reports, e.g. BENCH_pool.json) must
# be valid JSON.
cargo run --release -p autogemm-bench --bin schema_guard

echo "== perfbench build + traced smoke run =="
# perfbench/ is a workspace of its own (the end-to-end benchmark builds
# it from this checkout), so none of the steps above compile it: a
# public name it imports could change and only the benchmark would
# notice. Build it, then make one short traced run, which drives the
# engine front door, the plan-level pooled driver and the prepacked-B
# layer and exits non-zero on any wrong output.
cargo build --release --manifest-path perfbench/Cargo.toml
cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload resnet50_t1 --seed 1 --seconds 1 --trace 1

echo "== rustfmt =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt not installed; skipping (non-fatal)"
fi

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping (non-fatal)"
fi

echo "CI gate passed."
