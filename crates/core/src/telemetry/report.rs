//! The per-GEMM execution report and its versioned JSON schema.

use crate::runtime::PoolStats;
use crate::telemetry::json::{Json, JsonError};
use crate::telemetry::metrics::{HistogramSnapshot, MetricsSnapshot};
use autogemm_kernelgen::MicroTile;
use autogemm_perfmodel::ProjectionTable;

/// Version of the serialized [`GemmReport`] schema. Bump on any breaking
/// field change; [`GemmReport::from_json`] reads exactly this version.
pub const SCHEMA_VERSION: u64 = 7;

/// A (wall-ns, cycle-tick) duration pair. "Cycles" are host counter
/// ticks — see [`crate::telemetry::clock`] for the per-arch source and
/// caveats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    pub wall_ns: u64,
    pub cycles: u64,
}

impl std::ops::Add for PhaseTimes {
    type Output = PhaseTimes;

    fn add(self, rhs: PhaseTimes) -> PhaseTimes {
        PhaseTimes { wall_ns: self.wall_ns + rhs.wall_ns, cycles: self.cycles + rhs.cycles }
    }
}

impl std::ops::AddAssign for PhaseTimes {
    fn add_assign(&mut self, rhs: PhaseTimes) {
        *self = *self + rhs;
    }
}

/// Per-phase breakdown of one traced GEMM. `pack_a`/`pack_b` cover the
/// panel-packing stages, `kernel` the whole work-queue drain section
/// (wall time of the parallel region), and `drain` the summed
/// end-of-queue idle time of the workers (load imbalance: the gap between
/// a worker's last block and the slowest worker finishing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    pub pack_a: PhaseTimes,
    pub pack_b: PhaseTimes,
    pub kernel: PhaseTimes,
    pub drain: PhaseTimes,
}

/// Pack counts and traffic: one call's in a report, or a thread's
/// running tally ([`crate::packing::thread_pack_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackStats {
    pub a_packs: u64,
    pub b_packs: u64,
    /// Bytes moved packing A panels (read + write, as
    /// [`crate::packing::pack_traffic_bytes`] counts them).
    pub a_bytes: u64,
    pub b_bytes: u64,
}

impl PackStats {
    /// The packs counted between an earlier tally `before` and this one.
    pub fn since(self, before: PackStats) -> PackStats {
        PackStats {
            a_packs: self.a_packs - before.a_packs,
            b_packs: self.b_packs - before.b_packs,
            a_bytes: self.a_bytes - before.a_bytes,
            b_bytes: self.b_bytes - before.b_bytes,
        }
    }
}

impl std::ops::AddAssign for PackStats {
    fn add_assign(&mut self, rhs: PackStats) {
        self.a_packs += rhs.a_packs;
        self.b_packs += rhs.b_packs;
        self.a_bytes += rhs.a_bytes;
        self.b_bytes += rhs.b_bytes;
    }
}

/// One worker's slice of the work-queue drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadProfile {
    pub thread: usize,
    /// Cache blocks this worker claimed from the queue.
    pub blocks: u64,
    /// Time spent inside block execution.
    pub busy: PhaseTimes,
    /// Idle tail: from this worker's last block to the end of the
    /// parallel section.
    pub drain: PhaseTimes,
}

impl ThreadProfile {
    /// Fraction of the kernel section this worker spent busy.
    pub fn busy_fraction(&self, section: PhaseTimes) -> f64 {
        if section.wall_ns == 0 {
            return 0.0;
        }
        self.busy.wall_ns as f64 / section.wall_ns as f64
    }
}

/// Graceful degradations taken during one run (see `crate::error` for
/// the degradation policy) — a recording driver reports its own setup
/// decisions, no clock involved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FallbackStats {
    /// Pack phases that bypassed the caller's panel pool (degraded to
    /// transient unpooled buffers).
    pub pool_packs: u64,
    /// Whole-run degradations to the scalar reference kernels (a failed
    /// kernel-dispatch probe routes every placement to the reference
    /// path).
    pub scalar_kernels: u64,
    /// Degradations imposed by the engine's circuit breaker (quarantined
    /// paths rerouted before the run started), counted per rerouted
    /// path.
    pub breaker_reroutes: u64,
    /// Threaded sections drained inline on the calling thread instead of
    /// the worker pool (a degraded or quarantined pool-submit path).
    pub inline_drains: u64,
}

impl FallbackStats {
    /// Whether any degradation path was taken.
    pub fn any(&self) -> bool {
        self.pool_packs > 0
            || self.scalar_kernels > 0
            || self.breaker_reroutes > 0
            || self.inline_drains > 0
    }
}

/// Health of one circuit-breaker path
/// ([`BreakerPath`](crate::supervisor::BreakerPath)) at report time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathHealth {
    /// Stable path name: `"simd_dispatch"`, `"pool_alloc"` or
    /// `"threaded_driver"`.
    pub path: String,
    /// Breaker state name: `"closed"`, `"open"` or `"half_open"`.
    pub state: String,
    /// Consecutive faulting calls counted toward the trip threshold.
    pub consecutive_faults: u64,
    /// Faults observed on this path over the engine's lifetime.
    pub total_faults: u64,
    /// Times this path has tripped Open.
    pub trips: u64,
}

/// The `health` section of a report: the engine's circuit-breaker
/// snapshot plus the transitions this call performed. Empty (no paths,
/// no transitions) on plan-level reports, which have no engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    pub paths: Vec<PathHealth>,
    /// Transition strings of this call, e.g.
    /// `"simd_dispatch: closed -> open"`.
    pub transitions: Vec<String>,
}

impl HealthReport {
    /// Look up one path's health by its stable name.
    pub fn path(&self, name: &str) -> Option<&PathHealth> {
        self.paths.iter().find(|p| p.path == name)
    }

    /// True when every known path is Closed (or the section is empty).
    pub fn all_closed(&self) -> bool {
        self.paths.iter().all(|p| p.state == "closed")
    }
}

/// The `dispatch` section of a report: which input-aware route the
/// engine took and what the plan cache / packing-elision heuristic
/// decided for this call. Defaults (`"block"` route, both operands
/// packed, no cache hit) describe a plan-level driver call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchStats {
    /// Route name: `"block"` (the cache-blocked driver),
    /// `"gemv_row"`, `"gemv_col"` or `"small_k"`.
    pub route: String,
    /// Whether A was packed into panels (`false` = elided, streamed
    /// from the caller's row-major memory). Always `true` off the block
    /// route only in the trivial sense that no panels exist at all.
    pub packed_a: bool,
    pub packed_b: bool,
    /// Whether this call's plan came from the engine's shape-keyed plan
    /// cache (always `false` on the fast routes, which have no plan).
    pub plan_cache_hit: bool,
    /// Engine-lifetime plan-cache counters at report time.
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
}

impl Default for DispatchStats {
    fn default() -> Self {
        DispatchStats {
            route: "block".to_string(),
            packed_a: true,
            packed_b: true,
            plan_cache_hit: false,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
        }
    }
}

/// One bucket of the dispatched kernel-shape histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCount {
    pub mr: usize,
    pub nr: usize,
    /// Micro-kernel dispatches with this register-tile shape, derived
    /// from the plan and route the call ran — oversized (SVE-wide)
    /// placements count once per 8×28 chunk the dynamic fallback kernel
    /// splits them into.
    pub count: u64,
}

impl TileCount {
    /// Fold `(m_r, n_r, count)` dispatches into histogram buckets sorted
    /// by shape.
    pub(crate) fn histogram(
        dispatches: impl IntoIterator<Item = (usize, usize, u64)>,
    ) -> Vec<TileCount> {
        let mut buckets = std::collections::BTreeMap::new();
        for (mr, nr, count) in dispatches {
            *buckets.entry((mr, nr)).or_insert(0u64) += count;
        }
        buckets.into_iter().map(|((mr, nr), count)| TileCount { mr, nr, count }).collect()
    }
}

/// The measured-vs-perfmodel join ([`GemmReport::join_model`]).
///
/// `cycle_ratio = measured_kernel_cycles / projected_kernel_cycles` mixes
/// host counter ticks (numerator) with modelled-chip cycles
/// (denominator), so its absolute value is host-specific — a constant
/// `host_ticks_per_model_cycle`. The model-validation signal is its
/// *flatness across shapes*: a shape whose ratio sags below the sweep's
/// norm is one the model over-predicts (and vice versa), exactly the
/// per-shape achieved-vs-predicted tracking §III-B uses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelJoin {
    /// Σ over the tile histogram of `count × projected_cycles(tile, kc)`
    /// (Eqns 4–11 with the plan's pipeline options).
    pub projected_kernel_cycles: f64,
    /// Σ of worker busy cycle ticks.
    pub measured_kernel_cycles: u64,
    /// measured / projected; 0 when either side is unavailable (e.g. no
    /// worker recorded a busy tick).
    pub cycle_ratio: f64,
}

/// Admission-control view of the [`GemmService`](crate::service::GemmService)
/// that owns the traced engine: the `service` report section.
/// Counts are service-lifetime; `queued`/`in_flight` are the live values
/// at report time (a drained service reports both as zero).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Configured admission-queue depth.
    pub queue_depth: usize,
    /// Configured global execution-concurrency limit.
    pub max_in_flight: usize,
    /// Requests offered (admitted + every refusal class).
    pub offered: u64,
    /// Requests dispatched to an engine.
    pub admitted: u64,
    /// Requests refused at enqueue (queue full, tenant share, closed).
    pub rejected: u64,
    /// Requests shed because the deadline budget was provably
    /// insufficient.
    pub shed: u64,
    /// Requests whose deadline expired while queued.
    pub expired_in_queue: u64,
    /// `(rejected + shed + expired_in_queue) / offered`; 0 when nothing
    /// was offered.
    pub shed_ratio: f64,
    /// Requests waiting in the queue at report time.
    pub queued: u64,
    /// Requests executing at report time.
    pub in_flight: i64,
    /// Enqueue → dispatch wait of admitted requests, nanoseconds.
    pub queue_wait_ns: HistogramSnapshot,
}

impl ServiceReport {
    /// Serialize to the `service` report section.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("queue_depth".into(), Json::Num(self.queue_depth as f64)),
            ("max_in_flight".into(), Json::Num(self.max_in_flight as f64)),
            ("offered".into(), Json::Num(self.offered as f64)),
            ("admitted".into(), Json::Num(self.admitted as f64)),
            ("rejected".into(), Json::Num(self.rejected as f64)),
            ("shed".into(), Json::Num(self.shed as f64)),
            ("expired_in_queue".into(), Json::Num(self.expired_in_queue as f64)),
            ("shed_ratio".into(), Json::Num(self.shed_ratio)),
            ("queued".into(), Json::Num(self.queued as f64)),
            ("in_flight".into(), Json::Num(self.in_flight as f64)),
            ("queue_wait_ns".into(), self.queue_wait_ns.to_json_value()),
        ])
    }

    /// Parse what [`Self::to_json_value`] wrote; absent fields default
    /// to zero (lenient, like every other report section).
    pub fn from_json_value(v: &Json) -> ServiceReport {
        let num = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        ServiceReport {
            queue_depth: num("queue_depth") as usize,
            max_in_flight: num("max_in_flight") as usize,
            offered: num("offered"),
            admitted: num("admitted"),
            rejected: num("rejected"),
            shed: num("shed"),
            expired_in_queue: num("expired_in_queue"),
            shed_ratio: v.get("shed_ratio").and_then(Json::as_f64).unwrap_or(0.0),
            queued: num("queued"),
            in_flight: v.get("in_flight").and_then(Json::as_f64).unwrap_or(0.0) as i64,
            queue_wait_ns: v
                .get("queue_wait_ns")
                .map(HistogramSnapshot::from_json_value)
                .unwrap_or_default(),
        }
    }
}

/// Output-integrity view of the traced call: the `integrity`
/// report section. The counters are engine-lifetime totals from the
/// [`MetricsRegistry`](crate::telemetry::MetricsRegistry) at report
/// time; `policy`/`sample_rate`/`verified` describe this call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntegrityReport {
    /// Resolved [`VerifyPolicy`](crate::verify::VerifyPolicy) name for
    /// this call (`off` / `sample` / `always`).
    pub policy: String,
    /// Sampling cadence: 0 for `Off`, 1 for `Always`, the 1-in-N rate
    /// for `Sample`.
    pub sample_rate: u64,
    /// Whether this call's output actually went through the Freivalds
    /// check (sampled in, forced by a breaker probe, or `Always`).
    pub verified: bool,
    /// Verifications run, engine lifetime.
    pub verify_runs_total: u64,
    /// Verifications that passed.
    pub verify_passes_total: u64,
    /// Verifications that flagged an integrity violation.
    pub verify_failures_total: u64,
    /// Resilient-ladder verified re-executions taken after a violation.
    pub verify_reexecutions_total: u64,
    /// Wall time of the verification pass, nanoseconds.
    pub verify_ns: HistogramSnapshot,
}

impl IntegrityReport {
    /// Serialize to the `integrity` report section.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("policy".into(), Json::Str(self.policy.clone())),
            ("sample_rate".into(), Json::Num(self.sample_rate as f64)),
            ("verified".into(), Json::Bool(self.verified)),
            ("verify_runs_total".into(), Json::Num(self.verify_runs_total as f64)),
            ("verify_passes_total".into(), Json::Num(self.verify_passes_total as f64)),
            ("verify_failures_total".into(), Json::Num(self.verify_failures_total as f64)),
            ("verify_reexecutions_total".into(), Json::Num(self.verify_reexecutions_total as f64)),
            ("verify_ns".into(), self.verify_ns.to_json_value()),
        ])
    }

    /// Parse what [`Self::to_json_value`] wrote; absent fields default
    /// to zero (lenient, like every other report section).
    pub fn from_json_value(v: &Json) -> IntegrityReport {
        let num = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        IntegrityReport {
            policy: v.get("policy").and_then(Json::as_str).unwrap_or("off").to_string(),
            sample_rate: num("sample_rate"),
            verified: v.get("verified").and_then(Json::as_bool).unwrap_or(false),
            verify_runs_total: num("verify_runs_total"),
            verify_passes_total: num("verify_passes_total"),
            verify_failures_total: num("verify_failures_total"),
            verify_reexecutions_total: num("verify_reexecutions_total"),
            verify_ns: v
                .get("verify_ns")
                .map(HistogramSnapshot::from_json_value)
                .unwrap_or_default(),
        }
    }
}

/// The per-GEMM telemetry report: what one traced call observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GemmReport {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    /// Worker threads the driver actually used (after clamping to the
    /// block count).
    pub threads: usize,
    /// Cache blocking of the executed plan.
    pub mc: usize,
    pub nc: usize,
    pub kc: usize,
    /// End-to-end duration of the traced call.
    pub wall: PhaseTimes,
    pub phases: PhaseProfile,
    pub packs: PackStats,
    pub thread_profiles: Vec<ThreadProfile>,
    /// Dispatched kernel-shape histogram, sorted by `(mr, nr)`.
    pub tiles: Vec<TileCount>,
    /// Degradation paths taken during the run.
    pub fallbacks: FallbackStats,
    /// Circuit-breaker snapshot and this call's transitions.
    pub health: HealthReport,
    /// Input-aware dispatch decisions.
    pub dispatch: DispatchStats,
    /// Worker-pool runtime counters at report time.
    pub pool: PoolStats,
    /// The owning engine's lifetime metrics snapshot at report time
    /// (`None` from the engine-less plan-level drivers).
    pub metrics: Option<MetricsSnapshot>,
    /// Admission-control snapshot of the owning service (`None` when the
    /// engine is not fronted by a
    /// [`GemmService`](crate::service::GemmService)).
    pub service: Option<ServiceReport>,
    /// Output-integrity snapshot (`None` from the engine-less
    /// plan-level drivers).
    pub integrity: Option<IntegrityReport>,
    pub model: Option<ModelJoin>,
}

impl GemmReport {
    /// FLOPs of the traced problem (`2·M·N·K`).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Achieved GFLOP/s over the call's wall time (0 without timings).
    pub fn gflops(&self) -> f64 {
        if self.wall.wall_ns == 0 {
            return 0.0;
        }
        self.flops() as f64 / self.wall.wall_ns as f64
    }

    /// Total micro-kernel dispatches across the histogram.
    pub fn total_tiles(&self) -> u64 {
        self.tiles.iter().map(|t| t.count).sum()
    }

    /// Join the report against the performance model: projected cycles
    /// for every histogram tile at this report's `k_c`, the measured
    /// worker busy cycles, and their ratio (see [`ModelJoin`]).
    pub fn join_model(&mut self, table: &mut ProjectionTable<'_>) {
        let projected: f64 = self
            .tiles
            .iter()
            .map(|t| t.count as f64 * table.cycles(MicroTile::new(t.mr, t.nr), self.kc))
            .sum();
        let measured: u64 = self.thread_profiles.iter().map(|p| p.busy.cycles).sum();
        let cycle_ratio =
            if projected > 0.0 && measured > 0 { measured as f64 / projected } else { 0.0 };
        self.model = Some(ModelJoin {
            projected_kernel_cycles: projected,
            measured_kernel_cycles: measured,
            cycle_ratio,
        });
    }

    /// The report as a JSON value (schema [`SCHEMA_VERSION`]).
    pub fn to_json_value(&self) -> Json {
        let times = |t: PhaseTimes| {
            Json::Obj(vec![
                ("wall_ns".into(), Json::Num(t.wall_ns as f64)),
                ("cycles".into(), Json::Num(t.cycles as f64)),
            ])
        };
        let mut fields = vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("m".into(), Json::Num(self.m as f64)),
            ("n".into(), Json::Num(self.n as f64)),
            ("k".into(), Json::Num(self.k as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("mc".into(), Json::Num(self.mc as f64)),
            ("nc".into(), Json::Num(self.nc as f64)),
            ("kc".into(), Json::Num(self.kc as f64)),
            ("wall".into(), times(self.wall)),
            ("gflops".into(), Json::Num(self.gflops())),
            (
                "phases".into(),
                Json::Obj(vec![
                    ("pack_a".into(), times(self.phases.pack_a)),
                    ("pack_b".into(), times(self.phases.pack_b)),
                    ("kernel".into(), times(self.phases.kernel)),
                    ("drain".into(), times(self.phases.drain)),
                ]),
            ),
            (
                "packs".into(),
                Json::Obj(vec![
                    ("a_packs".into(), Json::Num(self.packs.a_packs as f64)),
                    ("b_packs".into(), Json::Num(self.packs.b_packs as f64)),
                    ("a_bytes".into(), Json::Num(self.packs.a_bytes as f64)),
                    ("b_bytes".into(), Json::Num(self.packs.b_bytes as f64)),
                ]),
            ),
            (
                "thread_profiles".into(),
                Json::Arr(
                    self.thread_profiles
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("thread".into(), Json::Num(p.thread as f64)),
                                ("blocks".into(), Json::Num(p.blocks as f64)),
                                ("busy".into(), times(p.busy)),
                                ("drain".into(), times(p.drain)),
                                (
                                    "busy_fraction".into(),
                                    Json::Num(p.busy_fraction(self.phases.kernel)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "tiles".into(),
                Json::Arr(
                    self.tiles
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("mr".into(), Json::Num(t.mr as f64)),
                                ("nr".into(), Json::Num(t.nr as f64)),
                                ("count".into(), Json::Num(t.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        fields.push((
            "fallbacks".into(),
            Json::Obj(vec![
                ("pool_packs".into(), Json::Num(self.fallbacks.pool_packs as f64)),
                ("scalar_kernels".into(), Json::Num(self.fallbacks.scalar_kernels as f64)),
                ("breaker_reroutes".into(), Json::Num(self.fallbacks.breaker_reroutes as f64)),
                ("inline_drains".into(), Json::Num(self.fallbacks.inline_drains as f64)),
            ]),
        ));
        fields.push((
            "health".into(),
            Json::Obj(vec![
                (
                    "paths".into(),
                    Json::Arr(
                        self.health
                            .paths
                            .iter()
                            .map(|p| {
                                Json::Obj(vec![
                                    ("path".into(), Json::Str(p.path.clone())),
                                    ("state".into(), Json::Str(p.state.clone())),
                                    (
                                        "consecutive_faults".into(),
                                        Json::Num(p.consecutive_faults as f64),
                                    ),
                                    ("total_faults".into(), Json::Num(p.total_faults as f64)),
                                    ("trips".into(), Json::Num(p.trips as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "transitions".into(),
                    Json::Arr(
                        self.health.transitions.iter().map(|t| Json::Str(t.clone())).collect(),
                    ),
                ),
            ]),
        ));
        fields.push((
            "dispatch".into(),
            Json::Obj(vec![
                ("route".into(), Json::Str(self.dispatch.route.clone())),
                ("packed_a".into(), Json::Bool(self.dispatch.packed_a)),
                ("packed_b".into(), Json::Bool(self.dispatch.packed_b)),
                ("plan_cache_hit".into(), Json::Bool(self.dispatch.plan_cache_hit)),
                ("plan_cache_hits".into(), Json::Num(self.dispatch.plan_cache_hits as f64)),
                ("plan_cache_misses".into(), Json::Num(self.dispatch.plan_cache_misses as f64)),
            ]),
        ));
        fields.push((
            "pool".into(),
            Json::Obj(vec![
                ("workers".into(), Json::Num(self.pool.workers as f64)),
                ("alive_workers".into(), Json::Num(self.pool.alive_workers as f64)),
                ("submissions".into(), Json::Num(self.pool.submissions as f64)),
                ("jobs_completed".into(), Json::Num(self.pool.jobs_completed as f64)),
                ("wake_count".into(), Json::Num(self.pool.wake_count as f64)),
                ("hot_claims".into(), Json::Num(self.pool.hot_claims as f64)),
                ("woken_claims".into(), Json::Num(self.pool.woken_claims as f64)),
                ("wake_ns_total".into(), Json::Num(self.pool.wake_ns_total as f64)),
                ("busy_ns_total".into(), Json::Num(self.pool.busy_ns_total as f64)),
                ("spin_ns_total".into(), Json::Num(self.pool.spin_ns_total as f64)),
                ("park_ns_total".into(), Json::Num(self.pool.park_ns_total as f64)),
                ("threads_clamped".into(), Json::Num(self.pool.threads_clamped as f64)),
            ]),
        ));
        fields.push((
            "metrics".into(),
            match &self.metrics {
                None => Json::Null,
                Some(m) => m.to_json_value(),
            },
        ));
        fields.push((
            "service".into(),
            match &self.service {
                None => Json::Null,
                Some(s) => s.to_json_value(),
            },
        ));
        fields.push((
            "integrity".into(),
            match &self.integrity {
                None => Json::Null,
                Some(i) => i.to_json_value(),
            },
        ));
        fields.push((
            "model".into(),
            match &self.model {
                None => Json::Null,
                Some(mj) => Json::Obj(vec![
                    ("projected_kernel_cycles".into(), Json::Num(mj.projected_kernel_cycles)),
                    ("measured_kernel_cycles".into(), Json::Num(mj.measured_kernel_cycles as f64)),
                    ("cycle_ratio".into(), Json::Num(mj.cycle_ratio)),
                ]),
            },
        ));
        Json::Obj(fields)
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Parse a serialized report, enforcing the schema-version guard.
    pub fn from_json(text: &str) -> Result<GemmReport, JsonError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// [`GemmReport::from_json`] over an already-parsed value.
    pub fn from_json_value(v: &Json) -> Result<GemmReport, JsonError> {
        let field = |key: &str| {
            v.get(key).ok_or_else(|| JsonError { pos: 0, msg: format!("missing field '{key}'") })
        };
        let version = field("schema_version")?
            .as_u64()
            .ok_or_else(|| JsonError { pos: 0, msg: "schema_version must be an integer".into() })?;
        if version != SCHEMA_VERSION {
            return Err(JsonError {
                pos: 0,
                msg: format!(
                    "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
                ),
            });
        }
        let usize_field = |key: &str| {
            field(key)?.as_usize().ok_or_else(|| JsonError {
                pos: 0,
                msg: format!("field '{key}' must be a non-negative integer"),
            })
        };
        let times = |v: &Json, ctx: &str| -> Result<PhaseTimes, JsonError> {
            let part = |key: &str| {
                v.get(key).and_then(Json::as_u64).ok_or_else(|| JsonError {
                    pos: 0,
                    msg: format!("{ctx}.{key} must be an integer"),
                })
            };
            Ok(PhaseTimes { wall_ns: part("wall_ns")?, cycles: part("cycles")? })
        };

        let phases_v = field("phases")?;
        let phase = |key: &str| -> Result<PhaseTimes, JsonError> {
            times(
                phases_v
                    .get(key)
                    .ok_or_else(|| JsonError { pos: 0, msg: format!("missing phase '{key}'") })?,
                key,
            )
        };
        let packs_v = field("packs")?;
        let pack = |key: &str| {
            packs_v
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError { pos: 0, msg: format!("packs.{key} must be an integer") })
        };

        let mut thread_profiles = Vec::new();
        for p in field("thread_profiles")?
            .as_arr()
            .ok_or_else(|| JsonError { pos: 0, msg: "thread_profiles must be an array".into() })?
        {
            let num = |key: &str| {
                p.get(key).and_then(Json::as_u64).ok_or_else(|| JsonError {
                    pos: 0,
                    msg: format!("thread_profiles.{key} invalid"),
                })
            };
            thread_profiles.push(ThreadProfile {
                thread: num("thread")? as usize,
                blocks: num("blocks")?,
                busy: times(
                    p.get("busy")
                        .ok_or_else(|| JsonError { pos: 0, msg: "missing busy".into() })?,
                    "busy",
                )?,
                drain: times(
                    p.get("drain")
                        .ok_or_else(|| JsonError { pos: 0, msg: "missing drain".into() })?,
                    "drain",
                )?,
            });
        }

        let mut tiles = Vec::new();
        for t in field("tiles")?
            .as_arr()
            .ok_or_else(|| JsonError { pos: 0, msg: "tiles must be an array".into() })?
        {
            let num = |key: &str| {
                t.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| JsonError { pos: 0, msg: format!("tiles.{key} invalid") })
            };
            tiles.push(TileCount {
                mr: num("mr")? as usize,
                nr: num("nr")? as usize,
                count: num("count")?,
            });
        }

        // A missing degradation-counter object or counter reads as "no
        // degradation taken".
        let fallbacks = match v.get("fallbacks") {
            None | Some(Json::Null) => FallbackStats::default(),
            Some(fb) => FallbackStats {
                pool_packs: fb.get("pool_packs").and_then(Json::as_u64).unwrap_or(0),
                scalar_kernels: fb.get("scalar_kernels").and_then(Json::as_u64).unwrap_or(0),
                breaker_reroutes: fb.get("breaker_reroutes").and_then(Json::as_u64).unwrap_or(0),
                inline_drains: fb.get("inline_drains").and_then(Json::as_u64).unwrap_or(0),
            },
        };

        // Every report carries the `health`, `dispatch` and `pool`
        // sections (plan-level reports with their defaults); within them
        // a missing numeric field reads as zero.
        let health = {
            let h = field("health")?;
            HealthReport {
                paths: h
                    .get("paths")
                    .and_then(Json::as_arr)
                    .map(|paths| {
                        paths
                            .iter()
                            .map(|p| PathHealth {
                                path: p
                                    .get("path")
                                    .and_then(Json::as_str)
                                    .unwrap_or_default()
                                    .to_string(),
                                state: p
                                    .get("state")
                                    .and_then(Json::as_str)
                                    .unwrap_or_default()
                                    .to_string(),
                                consecutive_faults: p
                                    .get("consecutive_faults")
                                    .and_then(Json::as_u64)
                                    .unwrap_or(0),
                                total_faults: p
                                    .get("total_faults")
                                    .and_then(Json::as_u64)
                                    .unwrap_or(0),
                                trips: p.get("trips").and_then(Json::as_u64).unwrap_or(0),
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
                transitions: h
                    .get("transitions")
                    .and_then(Json::as_arr)
                    .map(|ts| ts.iter().filter_map(|t| t.as_str().map(str::to_string)).collect())
                    .unwrap_or_default(),
            }
        };
        let dispatch = {
            let d = field("dispatch")?;
            let defaults = DispatchStats::default();
            DispatchStats {
                route: d
                    .get("route")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or(defaults.route),
                packed_a: d.get("packed_a").and_then(Json::as_bool).unwrap_or(true),
                packed_b: d.get("packed_b").and_then(Json::as_bool).unwrap_or(true),
                plan_cache_hit: d.get("plan_cache_hit").and_then(Json::as_bool).unwrap_or(false),
                plan_cache_hits: d.get("plan_cache_hits").and_then(Json::as_u64).unwrap_or(0),
                plan_cache_misses: d.get("plan_cache_misses").and_then(Json::as_u64).unwrap_or(0),
            }
        };
        let pool = {
            let p = field("pool")?;
            let num = |key: &str| p.get(key).and_then(Json::as_u64).unwrap_or(0);
            PoolStats {
                workers: num("workers"),
                alive_workers: num("alive_workers"),
                submissions: num("submissions"),
                jobs_completed: num("jobs_completed"),
                wake_count: num("wake_count"),
                hot_claims: num("hot_claims"),
                woken_claims: num("woken_claims"),
                wake_ns_total: num("wake_ns_total"),
                busy_ns_total: num("busy_ns_total"),
                spin_ns_total: num("spin_ns_total"),
                park_ns_total: num("park_ns_total"),
                threads_clamped: num("threads_clamped"),
            }
        };

        // The engine-lifetime sections are optional: a plan-level report
        // has no metrics snapshot, only a service stamps `service`, and
        // `integrity` belongs to engine calls. `None` says "absent"
        // rather than inventing zeros.
        let metrics = match v.get("metrics") {
            None | Some(Json::Null) => None,
            Some(m) => Some(MetricsSnapshot::from_json_value(m)),
        };

        let service = match v.get("service") {
            None | Some(Json::Null) => None,
            Some(s) => Some(ServiceReport::from_json_value(s)),
        };

        let integrity = match v.get("integrity") {
            None | Some(Json::Null) => None,
            Some(i) => Some(IntegrityReport::from_json_value(i)),
        };

        let model = match field("model")? {
            Json::Null => None,
            mj => Some(ModelJoin {
                projected_kernel_cycles: mj
                    .get("projected_kernel_cycles")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| JsonError {
                    pos: 0,
                    msg: "model.projected_kernel_cycles invalid".into(),
                })?,
                measured_kernel_cycles: mj
                    .get("measured_kernel_cycles")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| JsonError {
                        pos: 0,
                        msg: "model.measured_kernel_cycles invalid".into(),
                    })?,
                cycle_ratio: mj
                    .get("cycle_ratio")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| JsonError { pos: 0, msg: "model.cycle_ratio invalid".into() })?,
            }),
        };

        Ok(GemmReport {
            m: usize_field("m")?,
            n: usize_field("n")?,
            k: usize_field("k")?,
            threads: usize_field("threads")?,
            mc: usize_field("mc")?,
            nc: usize_field("nc")?,
            kc: usize_field("kc")?,
            wall: times(field("wall")?, "wall")?,
            phases: PhaseProfile {
                pack_a: phase("pack_a")?,
                pack_b: phase("pack_b")?,
                kernel: phase("kernel")?,
                drain: phase("drain")?,
            },
            packs: PackStats {
                a_packs: pack("a_packs")?,
                b_packs: pack("b_packs")?,
                a_bytes: pack("a_bytes")?,
                b_bytes: pack("b_bytes")?,
            },
            thread_profiles,
            tiles,
            fallbacks,
            health,
            dispatch,
            pool,
            metrics,
            service,
            integrity,
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> GemmReport {
        GemmReport {
            m: 64,
            n: 196,
            k: 64,
            threads: 4,
            mc: 32,
            nc: 49,
            kc: 64,
            wall: PhaseTimes { wall_ns: 123_456, cycles: 456_789 },
            phases: PhaseProfile {
                pack_a: PhaseTimes { wall_ns: 1000, cycles: 3000 },
                pack_b: PhaseTimes { wall_ns: 2000, cycles: 6000 },
                kernel: PhaseTimes { wall_ns: 100_000, cycles: 400_000 },
                drain: PhaseTimes { wall_ns: 5000, cycles: 15_000 },
            },
            packs: PackStats { a_packs: 2, b_packs: 4, a_bytes: 16_384, b_bytes: 100_352 },
            thread_profiles: vec![
                ThreadProfile {
                    thread: 0,
                    blocks: 5,
                    busy: PhaseTimes { wall_ns: 90_000, cycles: 350_000 },
                    drain: PhaseTimes { wall_ns: 1000, cycles: 4000 },
                },
                ThreadProfile {
                    thread: 1,
                    blocks: 3,
                    busy: PhaseTimes { wall_ns: 70_000, cycles: 280_000 },
                    drain: PhaseTimes { wall_ns: 21_000, cycles: 84_000 },
                },
            ],
            tiles: vec![
                TileCount { mr: 5, nr: 16, count: 96 },
                TileCount { mr: 8, nr: 4, count: 12 },
            ],
            fallbacks: FallbackStats {
                pool_packs: 1,
                scalar_kernels: 0,
                breaker_reroutes: 2,
                inline_drains: 0,
            },
            health: HealthReport {
                paths: vec![
                    PathHealth {
                        path: "simd_dispatch".into(),
                        state: "half_open".into(),
                        consecutive_faults: 0,
                        total_faults: 3,
                        trips: 1,
                    },
                    PathHealth {
                        path: "pool_alloc".into(),
                        state: "closed".into(),
                        consecutive_faults: 1,
                        total_faults: 1,
                        trips: 0,
                    },
                ],
                transitions: vec!["simd_dispatch: open -> half_open".into()],
            },
            dispatch: DispatchStats {
                route: "block".into(),
                packed_a: false,
                packed_b: true,
                plan_cache_hit: true,
                plan_cache_hits: 7,
                plan_cache_misses: 3,
            },
            pool: PoolStats {
                workers: 3,
                alive_workers: 3,
                submissions: 42,
                jobs_completed: 42,
                wake_count: 120,
                hot_claims: 90,
                woken_claims: 30,
                wake_ns_total: 84_000,
                busy_ns_total: 9_000_000,
                spin_ns_total: 600_000,
                park_ns_total: 2_000_000,
                threads_clamped: 1,
            },
            metrics: None,
            service: None,
            integrity: None,
            model: Some(ModelJoin {
                projected_kernel_cycles: 1.25e6,
                measured_kernel_cycles: 630_000,
                cycle_ratio: 0.504,
            }),
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample_report();
        let text = r.to_json();
        let back = GemmReport::from_json(&text).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn round_trip_without_model_join() {
        let mut r = sample_report();
        r.model = None;
        assert_eq!(GemmReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn schema_version_guard_rejects_other_versions() {
        // Older and newer versions alike: one build reads one schema.
        for version in [1, 6, SCHEMA_VERSION + 1, 999] {
            let text = sample_report().to_json().replace(
                &format!("\"schema_version\":{SCHEMA_VERSION}"),
                &format!("\"schema_version\":{version}"),
            );
            let err = GemmReport::from_json(&text).unwrap_err();
            assert!(err.msg.contains(&format!("unsupported schema_version {version}")), "{err}");
        }
    }

    #[test]
    fn missing_fields_are_rejected() {
        let text = sample_report().to_json().replace("\"packs\"", "\"packs_renamed\"");
        assert!(GemmReport::from_json(&text).is_err());
        // The always-written sections are required too.
        for section in ["health", "dispatch", "pool"] {
            let text = sample_report()
                .to_json()
                .replace(&format!("\"{section}\":"), &format!("\"{section}_renamed\":"));
            let err = GemmReport::from_json(&text).unwrap_err();
            assert!(err.msg.contains(&format!("missing field '{section}'")), "{err}");
        }
    }

    #[test]
    fn missing_fallbacks_parse_as_zero() {
        // A report without the degradation-counter object reads as one
        // that took no degradation.
        let text = sample_report().to_json().replace(
            "\"fallbacks\":{\"pool_packs\":1,\"scalar_kernels\":0,\"breaker_reroutes\":2,\
             \"inline_drains\":0},",
            "",
        );
        assert!(!text.contains("\"fallbacks\""), "fixture must not carry a fallbacks section");
        let back = GemmReport::from_json(&text).expect("report without fallbacks must parse");
        assert_eq!(back.fallbacks, FallbackStats::default());
        assert!(!back.fallbacks.any());
        let mut want = sample_report();
        want.fallbacks = FallbackStats::default();
        assert_eq!(back, want);
    }

    #[test]
    fn service_section_round_trips() {
        use crate::telemetry::metrics::Histogram;
        let wait = Histogram::new();
        for v in [1_000u64, 25_000, 25_000, 4_000_000] {
            wait.record(v, 0);
        }
        let mut r = sample_report();
        r.service = Some(ServiceReport {
            queue_depth: 64,
            max_in_flight: 4,
            offered: 1000,
            admitted: 900,
            rejected: 60,
            shed: 30,
            expired_in_queue: 10,
            shed_ratio: 0.1,
            queued: 0,
            in_flight: 0,
            queue_wait_ns: wait.snapshot(),
        });
        let text = r.to_json();
        assert!(text.contains("\"service\":{"), "{text}");
        assert!(text.contains("\"shed_ratio\":0.1"), "{text}");
        let back = GemmReport::from_json(&text).expect("round trip");
        assert_eq!(back.service, r.service);
        assert_eq!(back, r);
        let s = back.service.expect("service section survives");
        assert_eq!(s.queue_wait_ns.count, 4);
    }

    #[test]
    fn integrity_section_round_trips() {
        use crate::telemetry::metrics::Histogram;
        let ns = Histogram::new();
        for v in [2_000u64, 9_000, 9_000] {
            ns.record(v, 0);
        }
        let mut r = sample_report();
        r.integrity = Some(IntegrityReport {
            policy: "sample".to_string(),
            sample_rate: 16,
            verified: true,
            verify_runs_total: 40,
            verify_passes_total: 38,
            verify_failures_total: 2,
            verify_reexecutions_total: 1,
            verify_ns: ns.snapshot(),
        });
        let text = r.to_json();
        assert!(text.contains("\"integrity\":{"), "{text}");
        assert!(text.contains("\"verify_failures_total\":2"), "{text}");
        let back = GemmReport::from_json(&text).expect("round trip");
        assert_eq!(back.integrity, r.integrity);
        assert_eq!(back, r);
        let i = back.integrity.expect("integrity section survives");
        assert_eq!(i.verify_ns.count, 3);
    }

    #[test]
    fn metrics_section_round_trips() {
        use crate::telemetry::metrics::{CallOutcome, Counter, MetricsRegistry};
        let reg = MetricsRegistry::new();
        for i in 0..25u64 {
            let t0 = reg.call_begin();
            reg.call_end(t0, 2 * 64 * 64 * (i + 1), CallOutcome::Ok, false);
            reg.add(Counter::PlanCacheHits, 1);
        }
        reg.add(Counter::BreakerTransitions, 2);
        let mut r = sample_report();
        r.metrics = Some(reg.snapshot());
        let back = GemmReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back, r);
        let snap = back.metrics.as_ref().map(|m| m.counter(Counter::Calls));
        assert_eq!(snap, Some(25));
    }

    #[test]
    fn pool_section_round_trips() {
        let r = sample_report();
        let back = GemmReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back.pool, r.pool);
        assert_eq!(back.pool.submissions, 42);
    }

    #[test]
    fn dispatch_section_round_trips() {
        let mut r = sample_report();
        r.dispatch = DispatchStats {
            route: "gemv_row".into(),
            packed_a: false,
            packed_b: false,
            plan_cache_hit: false,
            plan_cache_hits: 41,
            plan_cache_misses: 2,
        };
        let back = GemmReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back.dispatch, r.dispatch);
        assert_eq!(back, r);
    }

    #[test]
    fn health_lookup_helpers() {
        let r = sample_report();
        assert_eq!(r.health.path("simd_dispatch").map(|p| p.trips), Some(1));
        assert!(r.health.path("nonexistent").is_none());
        assert!(!r.health.all_closed());
    }

    #[test]
    fn derived_quantities() {
        let r = sample_report();
        assert_eq!(r.flops(), 2 * 64 * 196 * 64);
        assert_eq!(r.total_tiles(), 108);
        assert!((r.gflops() - r.flops() as f64 / 123_456.0).abs() < 1e-12);
        let f = r.thread_profiles[0].busy_fraction(r.phases.kernel);
        assert!((f - 0.9).abs() < 1e-12);
    }

    #[test]
    fn join_model_computes_ratio_from_histogram() {
        use autogemm_arch::ChipSpec;
        use autogemm_perfmodel::{ModelOpts, ProjectionTable};
        let chip = ChipSpec::graviton2();
        let mut table = ProjectionTable::new(&chip, ModelOpts::default());
        let mut r = sample_report();
        r.join_model(&mut table);
        let mj = r.model.unwrap();
        let want: f64 =
            96.0 * autogemm_perfmodel::projected_cycles(
                MicroTile::new(5, 16),
                64,
                &chip,
                ModelOpts::default(),
            ) + 12.0
                * autogemm_perfmodel::projected_cycles(
                    MicroTile::new(8, 4),
                    64,
                    &chip,
                    ModelOpts::default(),
                );
        assert!((mj.projected_kernel_cycles - want).abs() < 1e-9);
        assert_eq!(mj.measured_kernel_cycles, 630_000);
        assert!((mj.cycle_ratio - 630_000.0 / want).abs() < 1e-12);
    }
}
