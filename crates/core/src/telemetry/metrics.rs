//! Engine-lifetime metrics registry: monotonic counters, gauges and
//! sharded log-bucket histograms, always compiled in and toggled at
//! runtime.
//!
//! The per-call [`GemmReport`](crate::telemetry::GemmReport) is blind
//! across calls; the ROADMAP's service front-end and telemetry-driven
//! autotuning both need *longitudinal* signals — latency percentiles
//! over request streams, breaker/fallback rates, plan-cache and pool
//! behaviour over time. [`MetricsRegistry`] is that layer: one instance
//! per [`AutoGemm`](crate::AutoGemm) engine (call counters and latency /
//! GFLOP-s histograms) and one per [`Runtime`](crate::Runtime) (worker
//! wake/busy/park histograms), merged into a [`MetricsSnapshot`] on
//! read.
//!
//! ## Overhead contract
//!
//! Unlike the per-call tracing clocks this module is **not** behind the
//! `telemetry` cargo feature — a service must be able to read
//! percentiles from a release build. The costs:
//!
//! * **disabled** (runtime toggle off): one relaxed [`AtomicBool`] load
//!   per call — the same passive price as
//!   [`RunMonitor`](crate::supervisor)'s no-supervision fast path;
//! * **enabled**: two `Instant` reads plus a handful of relaxed atomic
//!   adds per *call* (never per block or per tile), all far below the
//!   work they measure.
//!
//! ## Histograms
//!
//! Fixed log-scale buckets (two sub-buckets per power of two, so every
//! bucket's bounds are within ~1.5× of each other — ±25% relative error
//! on any reported percentile) spanning the whole `u64` range, recorded
//! into [`HIST_SHARDS`] independent shards of relaxed atomics to keep
//! concurrent writers off each other's cache lines. Shards are summed
//! bucket-wise on read; the merge is exact and deterministic (counts
//! are commutative), which the property tests pin down.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::telemetry::json::Json;

/// Buckets per histogram. With two sub-buckets per power of two this
/// spans `1 ..= 3·2^61` nanoseconds (≈ 200 years) before the catch-all
/// tail buckets.
pub const HIST_BUCKETS: usize = 128;

/// Independent shards per histogram; writers pick one by a cheap hint
/// (worker slot, thread id) so concurrent recording does not contend.
pub const HIST_SHARDS: usize = 8;

/// Inclusive upper bounds of the histogram buckets: 1, 2, 3, 4, 6, 8,
/// 12, 16, … (powers of two interleaved with their 1.5× midpoints),
/// tail-padded with `u64::MAX`. Bucket `i` holds values `v` with
/// `bounds[i-1] < v <= bounds[i]` (bucket 0: `v <= 1`, including 0).
const fn make_bounds() -> [u64; HIST_BUCKETS] {
    let mut b = [u64::MAX; HIST_BUCKETS];
    b[0] = 1;
    b[1] = 2;
    let mut pow: u64 = 2;
    let mut i = 2;
    while i + 1 < HIST_BUCKETS {
        b[i] = pow + pow / 2;
        if pow > (u64::MAX >> 1) {
            break;
        }
        pow <<= 1;
        b[i + 1] = pow;
        i += 2;
    }
    b
}

/// The shared bucket-bound table (see [`make_bounds`]).
pub const HIST_BOUNDS: [u64; HIST_BUCKETS] = make_bounds();

/// The bucket index a value lands in — the first bucket whose inclusive
/// upper bound is `>= v`. Total and monotone: equal values always share
/// a bucket and larger values never land in a smaller bucket, which is
/// what makes bucket-resolution percentile assertions exact.
pub fn bucket_index(v: u64) -> usize {
    HIST_BOUNDS.partition_point(|&bound| bound < v).min(HIST_BUCKETS - 1)
}

/// One histogram shard: bucket counts plus running sum/count, all
/// relaxed atomics (totals, not synchronization).
struct HistShard {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A sharded fixed-bucket log histogram (see the module docs).
pub struct Histogram {
    shards: Vec<HistShard>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram { shards: (0..HIST_SHARDS).map(|_| HistShard::new()).collect() }
    }

    /// Record one value into the shard picked by `hint` (any cheap
    /// per-writer value: worker slot, thread id). Lock-free.
    #[inline]
    pub fn record(&self, value: u64, hint: usize) {
        let shard = &self.shards[hint % HIST_SHARDS];
        shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge every shard into one snapshot. The merge is a bucket-wise
    /// sum, so it is exact and independent of recording order.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for shard in &self.shards {
            for (i, b) in shard.buckets.iter().enumerate() {
                out.buckets[i] = out.buckets[i].saturating_add(b.load(Ordering::Relaxed));
            }
            out.sum = out.sum.saturating_add(shard.sum.load(Ordering::Relaxed));
            out.count = out.count.saturating_add(shard.count.load(Ordering::Relaxed));
        }
        out
    }
}

/// A merged, immutable view of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (bounds in [`HIST_BOUNDS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all recorded values (saturating).
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], sum: 0, count: 0 }
    }
}

impl HistogramSnapshot {
    /// The `q`-quantile (0 < q <= 1) at bucket resolution: the inclusive
    /// upper bound of the smallest bucket whose cumulative count reaches
    /// `ceil(q · count)`. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return HIST_BOUNDS[i];
            }
        }
        HIST_BOUNDS[HIST_BUCKETS - 1]
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Serialize as `{count, sum, buckets: [[index, count], ...]}` —
    /// buckets sparse (zero buckets omitted) so a 128-bucket histogram
    /// costs a few pairs, not 128 numbers, in every artifact.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum as f64)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse the sparse form written by [`Self::to_json_value`];
    /// unknown/malformed entries degrade to zero, out-of-range bucket
    /// indices are dropped.
    pub fn from_json_value(v: &Json) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            count: v.get("count").and_then(Json::as_u64).unwrap_or(0),
            sum: v.get("sum").and_then(Json::as_u64).unwrap_or(0),
            ..HistogramSnapshot::default()
        };
        if let Some(pairs) = v.get("buckets").and_then(Json::as_arr) {
            for pair in pairs {
                let Some(items) = pair.as_arr() else { continue };
                let idx = items.first().and_then(Json::as_usize);
                let cnt = items.get(1).and_then(Json::as_u64);
                if let (Some(i), Some(c)) = (idx, cnt) {
                    if i < HIST_BUCKETS {
                        out.buckets[i] = c;
                    }
                }
            }
        }
        out
    }
}

/// Monotonic counters the registry tracks, enum-indexed into one fixed
/// atomic array (no string lookups on the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Supervised engine calls started (any outcome).
    Calls,
    /// Calls that returned a non-cancellation error.
    Errors,
    /// Calls stopped by cancellation/deadline/watchdog.
    Cancelled,
    /// Circuit-breaker state transitions (any path, any direction).
    BreakerTransitions,
    /// Degraded retry rungs attempted by `try_gemm_resilient`.
    RetryAttempts,
    /// Plan-cache hits.
    PlanCacheHits,
    /// Plan-cache misses (tuner runs).
    PlanCacheMisses,
    /// Plan-cache LRU evictions.
    PlanCacheEvictions,
    /// Service requests admitted past the queue (dispatched to an
    /// engine). Only fed by a [`GemmService`](crate::service::GemmService)
    /// registry; stays zero on engine/runtime registries.
    ServiceAdmitted,
    /// Service requests rejected at enqueue (queue full, tenant quota,
    /// service closed).
    ServiceRejected,
    /// Service requests shed because the remaining deadline budget was
    /// provably insufficient (perfmodel floor / warm-call latency).
    ServiceShed,
    /// Service requests whose deadline expired while still queued.
    ServiceExpiredInQueue,
    /// Output-integrity verifications started ([`crate::verify`]).
    VerifyRuns,
    /// Verifications whose output passed the checks.
    VerifyPasses,
    /// Verifications that rejected the output
    /// (`GemmError::IntegrityViolation` surfaced).
    VerifyFailures,
    /// Trusted scalar re-executions taken by `try_gemm_resilient`'s
    /// verified-reexecution rung after an integrity violation.
    VerifyReexecutions,
}

impl Counter {
    pub const COUNT: usize = 16;

    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Calls,
        Counter::Errors,
        Counter::Cancelled,
        Counter::BreakerTransitions,
        Counter::RetryAttempts,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
        Counter::ServiceAdmitted,
        Counter::ServiceRejected,
        Counter::ServiceShed,
        Counter::ServiceExpiredInQueue,
        Counter::VerifyRuns,
        Counter::VerifyPasses,
        Counter::VerifyFailures,
        Counter::VerifyReexecutions,
    ];

    fn index(self) -> usize {
        match self {
            Counter::Calls => 0,
            Counter::Errors => 1,
            Counter::Cancelled => 2,
            Counter::BreakerTransitions => 3,
            Counter::RetryAttempts => 4,
            Counter::PlanCacheHits => 5,
            Counter::PlanCacheMisses => 6,
            Counter::PlanCacheEvictions => 7,
            Counter::ServiceAdmitted => 8,
            Counter::ServiceRejected => 9,
            Counter::ServiceShed => 10,
            Counter::ServiceExpiredInQueue => 11,
            Counter::VerifyRuns => 12,
            Counter::VerifyPasses => 13,
            Counter::VerifyFailures => 14,
            Counter::VerifyReexecutions => 15,
        }
    }

    /// Stable snake-case name (JSON keys and Prometheus metric stems).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Calls => "calls_total",
            Counter::Errors => "errors_total",
            Counter::Cancelled => "cancelled_total",
            Counter::BreakerTransitions => "breaker_transitions_total",
            Counter::RetryAttempts => "retry_attempts_total",
            Counter::PlanCacheHits => "plan_cache_hits_total",
            Counter::PlanCacheMisses => "plan_cache_misses_total",
            Counter::PlanCacheEvictions => "plan_cache_evictions_total",
            Counter::ServiceAdmitted => "service_admitted_total",
            Counter::ServiceRejected => "service_rejected_total",
            Counter::ServiceShed => "service_shed_total",
            Counter::ServiceExpiredInQueue => "service_expired_in_queue_total",
            Counter::VerifyRuns => "verify_runs_total",
            Counter::VerifyPasses => "verify_passes_total",
            Counter::VerifyFailures => "verify_failures_total",
            Counter::VerifyReexecutions => "verify_reexecutions_total",
        }
    }
}

/// Bits of the packed warm-latency word that hold the warm-call count;
/// the high bits hold the estimate in nanoseconds.
const WARM_COUNT_BITS: u32 = 24;
const WARM_COUNT_MAX: u64 = (1 << WARM_COUNT_BITS) - 1;
const WARM_EWMA_MAX: u64 = u64::MAX >> WARM_COUNT_BITS;

/// Latency of the calls a repeat call can expect: successful calls that
/// hit the plan cache (tuning is a one-off per shape, and a failed call
/// says nothing about a good one's duration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmLatency {
    /// Warm calls recorded, saturating at 2^24 − 1.
    pub calls: u64,
    /// Exponentially weighted moving average of their latency with
    /// weight 1/8 on the newest call, nanoseconds (0 before the first;
    /// saturates near 2^40 ns, about 18 minutes). It forgets a burst of
    /// slow calls within a few dozen faster ones.
    pub ewma_ns: u64,
}

impl WarmLatency {
    fn unpack(word: u64) -> WarmLatency {
        WarmLatency { calls: word & WARM_COUNT_MAX, ewma_ns: word >> WARM_COUNT_BITS }
    }

    fn pack(self) -> u64 {
        (self.ewma_ns.min(WARM_EWMA_MAX) << WARM_COUNT_BITS) | self.calls.min(WARM_COUNT_MAX)
    }

    /// Fold one more warm call of `ns` nanoseconds in. The first call
    /// sets the average; later ones move it 1/8 of the way, rounding
    /// toward the old value, so it never leaves the range of recorded
    /// latencies.
    fn record(self, ns: u64) -> WarmLatency {
        let ns = ns.min(WARM_EWMA_MAX);
        let old = self.ewma_ns;
        let ewma_ns = match self.calls {
            0 => ns,
            _ if ns >= old => old + (ns - old) / 8,
            _ => old - (old - ns) / 8,
        };
        WarmLatency { calls: (self.calls + 1).min(WARM_COUNT_MAX), ewma_ns }
    }
}

/// How a supervised call ended, for [`MetricsRegistry::call_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallOutcome {
    Ok,
    Cancelled,
    Error,
}

/// Per-writer shard hint: a small dense id handed out once per OS
/// thread, so each thread keeps hitting the same histogram shard.
fn shard_hint() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    HINT.with(|h| *h)
}

/// The always-available metrics registry (see the module docs). One per
/// engine (call metrics) and one per runtime (pool metrics); fields not
/// fed by an owner simply stay zero.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    counters: [AtomicU64; Counter::COUNT],
    /// Supervised calls currently between `call_begin` and `call_end`.
    in_flight: AtomicI64,
    /// The packed [`WarmLatency`] word.
    warm: AtomicU64,
    /// End-to-end supervised call latency, nanoseconds.
    pub call_latency_ns: Histogram,
    /// The subset of `call_latency_ns` spent in calls that missed the
    /// plan cache and tuned a schedule, nanoseconds. Tuning is a one-off
    /// cost per shape, so `call_latency_ns` minus this is the latency a
    /// repeat call can expect.
    pub plan_miss_ns: Histogram,
    /// Achieved throughput of successful calls, milli-GFLOP/s
    /// (GFLOP/s × 1000, so small calls keep resolution in integer
    /// buckets).
    pub call_gflops_milli: Histogram,
    /// Pool submit → first-worker-claim latency, nanoseconds.
    pub pool_wake_ns: Histogram,
    /// Time pool workers spend inside job bodies, nanoseconds.
    pub pool_busy_ns: Histogram,
    /// Time pool workers spend parked between jobs, nanoseconds.
    pub pool_park_ns: Histogram,
    /// Service admission-queue wait (enqueue → dispatch), nanoseconds.
    /// Only fed by a service registry; stays zero elsewhere.
    pub queue_wait_ns: Histogram,
    /// Wall time of output-integrity verifications ([`crate::verify`]),
    /// nanoseconds. Only fed by engines with a verify policy active.
    pub verify_ns: Histogram,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .field("calls", &self.counter(Counter::Calls))
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry, enabled.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: AtomicBool::new(true),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            in_flight: AtomicI64::new(0),
            warm: AtomicU64::new(0),
            call_latency_ns: Histogram::new(),
            plan_miss_ns: Histogram::new(),
            call_gflops_milli: Histogram::new(),
            pool_wake_ns: Histogram::new(),
            pool_busy_ns: Histogram::new(),
            pool_park_ns: Histogram::new(),
            queue_wait_ns: Histogram::new(),
            verify_ns: Histogram::new(),
        }
    }

    /// Toggle recording at runtime. Disabled recording costs one
    /// relaxed bool load per site.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Bump a counter by `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if !self.is_enabled() || n == 0 {
            return;
        }
        self.counters[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Record one value into a histogram using the calling thread's
    /// shard (no-op while disabled).
    #[inline]
    pub fn record(&self, hist: &Histogram, value: u64) {
        if self.is_enabled() {
            hist.record(value, shard_hint());
        }
    }

    /// Record with an explicit shard hint (pool workers pass their slot
    /// so a worker keeps writing its own shard).
    #[inline]
    pub fn record_hinted(&self, hist: &Histogram, value: u64, hint: usize) {
        if self.is_enabled() {
            hist.record(value, hint);
        }
    }

    /// Start timing a supervised call. `None` (one branch, no clock
    /// read) while disabled.
    #[inline]
    pub fn call_begin(&self) -> Option<Instant> {
        if !self.is_enabled() {
            return None;
        }
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        Some(Instant::now())
    }

    /// Finish timing a supervised call started by [`Self::call_begin`]:
    /// records latency (also under `plan_miss_ns` when the call tuned a
    /// plan), throughput and the [`WarmLatency`] estimate (successful
    /// calls only; the estimate also skips plan misses) and outcome
    /// counters. A `None` token (disabled at begin) is a no-op.
    pub fn call_end(&self, t0: Option<Instant>, flops: u64, outcome: CallOutcome, plan_miss: bool) {
        let Some(t0) = t0 else { return };
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        let hint = shard_hint();
        self.call_latency_ns.record(elapsed_ns, hint);
        if plan_miss {
            self.plan_miss_ns.record(elapsed_ns, hint);
        }
        self.counters[Counter::Calls.index()].fetch_add(1, Ordering::Relaxed);
        match outcome {
            CallOutcome::Ok => {
                if elapsed_ns > 0 && flops > 0 {
                    let mgflops = (flops as f64 / elapsed_ns as f64 * 1000.0) as u64;
                    self.call_gflops_milli.record(mgflops, hint);
                }
                if !plan_miss {
                    self.record_warm(elapsed_ns);
                }
            }
            CallOutcome::Cancelled => {
                self.counters[Counter::Cancelled.index()].fetch_add(1, Ordering::Relaxed);
            }
            CallOutcome::Error => {
                self.counters[Counter::Errors.index()].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn record_warm(&self, ns: u64) {
        // The closure always returns `Some`, so the update cannot fail.
        let _ = self.warm.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
            Some(WarmLatency::unpack(w).record(ns).pack())
        });
    }

    /// The warm-call latency estimate and its sample count: one relaxed
    /// load, for decisions taken on every call. Not part of
    /// [`MetricsSnapshot`].
    #[inline]
    pub fn warm_latency(&self) -> WarmLatency {
        WarmLatency::unpack(self.warm.load(Ordering::Relaxed))
    }

    /// Merge everything into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: self.is_enabled(),
            counters: Counter::ALL.map(|c| self.counter(c)),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            call_latency_ns: self.call_latency_ns.snapshot(),
            plan_miss_ns: self.plan_miss_ns.snapshot(),
            call_gflops_milli: self.call_gflops_milli.snapshot(),
            pool_wake_ns: self.pool_wake_ns.snapshot(),
            pool_busy_ns: self.pool_busy_ns.snapshot(),
            pool_park_ns: self.pool_park_ns.snapshot(),
            queue_wait_ns: self.queue_wait_ns.snapshot(),
            verify_ns: self.verify_ns.snapshot(),
        }
    }
}

/// An immutable, merged view of a [`MetricsRegistry`] — what
/// [`AutoGemm::metrics`](crate::AutoGemm::metrics) returns, the
/// report section, and the input of both exporters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Whether the registry was recording at snapshot time.
    pub enabled: bool,
    /// Counter values, indexed like [`Counter::ALL`].
    pub counters: [u64; Counter::COUNT],
    /// Calls in flight at snapshot time.
    pub in_flight: i64,
    pub call_latency_ns: HistogramSnapshot,
    pub plan_miss_ns: HistogramSnapshot,
    pub call_gflops_milli: HistogramSnapshot,
    pub pool_wake_ns: HistogramSnapshot,
    pub pool_busy_ns: HistogramSnapshot,
    pub pool_park_ns: HistogramSnapshot,
    pub queue_wait_ns: HistogramSnapshot,
    pub verify_ns: HistogramSnapshot,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            enabled: false,
            counters: [0; Counter::COUNT],
            in_flight: 0,
            call_latency_ns: HistogramSnapshot::default(),
            plan_miss_ns: HistogramSnapshot::default(),
            call_gflops_milli: HistogramSnapshot::default(),
            pool_wake_ns: HistogramSnapshot::default(),
            pool_busy_ns: HistogramSnapshot::default(),
            pool_park_ns: HistogramSnapshot::default(),
            queue_wait_ns: HistogramSnapshot::default(),
            verify_ns: HistogramSnapshot::default(),
        }
    }
}

/// The histograms a snapshot carries, name-paired for the exporters.
fn snapshot_hists(s: &MetricsSnapshot) -> [(&'static str, &HistogramSnapshot); 8] {
    [
        ("call_latency_ns", &s.call_latency_ns),
        ("plan_miss_ns", &s.plan_miss_ns),
        ("call_gflops_milli", &s.call_gflops_milli),
        ("pool_wake_ns", &s.pool_wake_ns),
        ("pool_busy_ns", &s.pool_busy_ns),
        ("pool_park_ns", &s.pool_park_ns),
        ("queue_wait_ns", &s.queue_wait_ns),
        ("verify_ns", &s.verify_ns),
    ]
}

impl MetricsSnapshot {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Serialize to the `metrics` report section.
    pub fn to_json_value(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![("enabled".into(), Json::Bool(self.enabled))];
        for c in Counter::ALL {
            fields.push((c.name().into(), Json::Num(self.counter(c) as f64)));
        }
        fields.push(("in_flight".into(), Json::Num(self.in_flight as f64)));
        for (name, h) in snapshot_hists(self) {
            fields.push((name.into(), h.to_json_value()));
        }
        Json::Obj(fields)
    }

    /// Parse what [`Self::to_json_value`] wrote; absent fields default
    /// to zero (lenient, like every other report section).
    pub fn from_json_value(v: &Json) -> MetricsSnapshot {
        let hist =
            |key: &str| v.get(key).map(HistogramSnapshot::from_json_value).unwrap_or_default();
        MetricsSnapshot {
            enabled: v.get("enabled").and_then(Json::as_bool).unwrap_or(false),
            counters: Counter::ALL.map(|c| v.get(c.name()).and_then(Json::as_u64).unwrap_or(0)),
            in_flight: v.get("in_flight").and_then(Json::as_f64).unwrap_or(0.0) as i64,
            call_latency_ns: hist("call_latency_ns"),
            plan_miss_ns: hist("plan_miss_ns"),
            call_gflops_milli: hist("call_gflops_milli"),
            pool_wake_ns: hist("pool_wake_ns"),
            pool_busy_ns: hist("pool_busy_ns"),
            pool_park_ns: hist("pool_park_ns"),
            queue_wait_ns: hist("queue_wait_ns"),
            verify_ns: hist("verify_ns"),
        }
    }

    /// Prometheus text-exposition dump (`# TYPE` headers, cumulative
    /// `_bucket{le=...}` histogram series ending in `le="+Inf"`). Only
    /// the populated bucket prefix is emitted — valid exposition, a
    /// fraction of the lines.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in Counter::ALL {
            let name = format!("autogemm_{}", c.name());
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", self.counter(c));
        }
        let _ = writeln!(out, "# TYPE autogemm_in_flight_calls gauge");
        let _ = writeln!(out, "autogemm_in_flight_calls {}", self.in_flight);
        for (stem, h) in snapshot_hists(self) {
            let name = format!("autogemm_{stem}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            let last = h.buckets.iter().rposition(|&c| c > 0);
            let mut cum = 0u64;
            if let Some(last) = last {
                for (count, bound) in h.buckets.iter().zip(HIST_BOUNDS.iter()).take(last + 1) {
                    cum = cum.saturating_add(*count);
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
                }
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone_and_cover_u64() {
        for w in HIST_BOUNDS.windows(2) {
            assert!(w[0] <= w[1], "bounds must be non-decreasing: {} > {}", w[0], w[1]);
        }
        assert_eq!(HIST_BOUNDS[0], 1);
        assert_eq!(*HIST_BOUNDS.last().unwrap(), u64::MAX);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(u64::MAX), bucket_index(u64::MAX - 1).max(bucket_index(u64::MAX)));
        // Monotone: larger values never land in smaller buckets.
        let mut prev = 0;
        for v in [0u64, 1, 2, 3, 5, 8, 100, 1000, 1 << 20, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket_index not monotone at {v}");
            prev = i;
        }
        // Every value is <= its bucket's inclusive bound.
        for v in [0u64, 1, 7, 12, 13, 97, 1_000_003, u64::MAX / 3] {
            assert!(v <= HIST_BOUNDS[bucket_index(v)]);
        }
    }

    #[test]
    fn shard_merge_equals_single_shard_recording() {
        let values = [0u64, 1, 1, 5, 17, 17, 250, 4096, 1 << 33];
        let sharded = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            sharded.record(v, i); // spread over every shard
        }
        let single = Histogram::new();
        for &v in &values {
            single.record(v, 0);
        }
        assert_eq!(sharded.snapshot(), single.snapshot());
    }

    #[test]
    fn quantiles_land_in_the_true_quantile_bucket() {
        let mut values: Vec<u64> = (1..=1000).map(|i| i * 37).collect();
        let h = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            h.record(v, i);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        for q in [0.5, 0.95, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            assert_eq!(
                bucket_index(snap.quantile(q)),
                bucket_index(truth),
                "q={q}: histogram quantile must land in the true quantile's bucket"
            );
            assert!(truth <= snap.quantile(q), "bucket upper bound bounds the true value");
        }
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
    }

    #[test]
    fn empty_histogram_reports_zero_quantiles() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(false);
        assert!(reg.call_begin().is_none());
        reg.call_end(None, 1000, CallOutcome::Ok, false);
        reg.add(Counter::Errors, 3);
        reg.record(&reg.call_latency_ns, 42);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::Calls), 0);
        assert_eq!(snap.counter(Counter::Errors), 0);
        assert_eq!(snap.call_latency_ns.count, 0);
        assert_eq!(snap.in_flight, 0);
    }

    #[test]
    fn call_cycle_updates_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        let t0 = reg.call_begin();
        assert!(t0.is_some());
        reg.call_end(t0, 2 * 64 * 64 * 64, CallOutcome::Ok, false);
        let t1 = reg.call_begin();
        reg.call_end(t1, 0, CallOutcome::Error, false);
        let t2 = reg.call_begin();
        reg.call_end(t2, 0, CallOutcome::Cancelled, false);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::Calls), 3);
        assert_eq!(snap.counter(Counter::Errors), 1);
        assert_eq!(snap.counter(Counter::Cancelled), 1);
        assert_eq!(snap.call_latency_ns.count, 3);
        assert_eq!(snap.call_gflops_milli.count, 1, "throughput only for successful calls");
        assert_eq!(snap.in_flight, 0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::new();
        for i in 0..50u64 {
            reg.add(Counter::PlanCacheHits, 1);
            reg.record(&reg.call_latency_ns, 1000 + i * 997);
            reg.record_hinted(&reg.pool_busy_ns, i * 31, i as usize);
        }
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json_value(&snap.to_json_value());
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_dump_carries_series_and_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::Calls, 7);
        reg.record(&reg.call_latency_ns, 5);
        reg.record(&reg.call_latency_ns, 500);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE autogemm_calls_total counter"), "{text}");
        assert!(text.contains("autogemm_calls_total 7"), "{text}");
        assert!(text.contains("# TYPE autogemm_call_latency_ns histogram"), "{text}");
        assert!(text.contains("autogemm_call_latency_ns_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("autogemm_call_latency_ns_count 2"), "{text}");
        // Buckets are cumulative: the +Inf bucket equals the count.
        assert!(text.contains("autogemm_in_flight_calls 0"), "{text}");
    }

    /// A call token that started `ago` before now, so `call_end` sees at
    /// least that latency.
    fn started(ago: std::time::Duration) -> Option<Instant> {
        Instant::now().checked_sub(ago)
    }

    #[test]
    fn plan_misses_and_failed_calls_leave_the_warm_estimate_alone() {
        let reg = MetricsRegistry::new();
        let slow = std::time::Duration::from_millis(5);
        reg.call_end(started(slow), 1000, CallOutcome::Ok, true);
        reg.call_end(started(slow), 1000, CallOutcome::Error, false);
        reg.call_end(started(slow), 1000, CallOutcome::Cancelled, false);
        assert_eq!(reg.warm_latency(), WarmLatency::default());
        assert_eq!(reg.snapshot().call_latency_ns.count, 3, "the histograms still see them");

        let fast = std::time::Duration::from_micros(20);
        reg.call_end(started(fast), 1000, CallOutcome::Ok, false);
        let warm = reg.warm_latency();
        assert_eq!(warm.calls, 1);
        assert!(warm.ewma_ns >= 20_000 && warm.ewma_ns < 5_000_000, "{warm:?}");

        let disabled = MetricsRegistry::new();
        disabled.set_enabled(false);
        disabled.call_end(disabled.call_begin(), 1000, CallOutcome::Ok, false);
        assert_eq!(disabled.warm_latency(), WarmLatency::default());
    }

    #[test]
    fn the_warm_estimate_decays_toward_the_new_latency() {
        let mut w = WarmLatency::default();
        for _ in 0..40 {
            w = w.record(5_000_000);
        }
        assert_eq!(w, WarmLatency { calls: 40, ewma_ns: 5_000_000 });
        let mut steps = 0;
        while w.ewma_ns > 100_000 {
            w = w.record(50_000);
            steps += 1;
        }
        // (7/8)^n · 4.95 ms < 50 µs needs n = 35.
        assert!(steps <= 40, "took {steps} calls to forget the slow ones");
        for _ in 0..200 {
            w = w.record(50_000);
        }
        assert!(w.ewma_ns - 50_000 < 8, "settles within rounding: {w:?}");
        // It also climbs when calls slow down.
        for _ in 0..40 {
            w = w.record(1_000_000);
        }
        assert!(w.ewma_ns > 900_000, "{w:?}");
    }

    #[test]
    fn the_warm_word_saturates_instead_of_wrapping() {
        let w = WarmLatency { calls: WARM_COUNT_MAX, ewma_ns: 1000 }.record(u64::MAX);
        assert_eq!(w.calls, WARM_COUNT_MAX);
        assert_eq!(WarmLatency::unpack(w.pack()), w);
        assert!(w.ewma_ns <= WARM_EWMA_MAX);
        let first = WarmLatency::default().record(u64::MAX);
        assert_eq!(
            WarmLatency::unpack(first.pack()),
            WarmLatency { calls: 1, ewma_ns: WARM_EWMA_MAX }
        );
    }

    #[test]
    fn concurrent_warm_updates_stay_within_the_recorded_range() {
        let reg = MetricsRegistry::new();
        let (lo, hi) = (10_000u64, 90_000u64);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (reg, start) = (&reg, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..10_000u64 {
                        // Thread 0 records the low end, thread 1 the high
                        // end, so interleavings pull the average both ways.
                        let ns = if t == 0 { lo + i % 7 } else { hi - i % 5 };
                        reg.record_warm(ns);
                    }
                });
            }
        });
        let warm = reg.warm_latency();
        assert_eq!(warm.calls, 20_000, "no update lost");
        assert!((lo..=hi).contains(&warm.ewma_ns), "{warm:?}");
    }
}
