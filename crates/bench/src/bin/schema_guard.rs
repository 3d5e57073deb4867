//! Re-parse every committed `BENCH_*.json` artifact through the
//! versioned-schema parser — the CI sweep that keeps the committed
//! artifacts in step with the schema the library reads.
//!
//! Every artifact must be valid JSON. On top of that, any object found
//! anywhere inside one that carries a `schema_version` key is treated
//! as an embedded [`autogemm::GemmReport`] and must survive
//! [`GemmReport::from_json_value`], which reads exactly
//! [`autogemm::telemetry::SCHEMA_VERSION`] — an artifact written under
//! an older schema must be regenerated. An embedded report of a
//! non-degenerate call must also carry a non-zero `wall` time: the
//! clocks are live in the one build, so a zero is a broken artifact.
//! A timeline artifact (one with a
//! top-level `traceEvents` array) is checked for well-formed Chrome
//! trace events instead: every event needs `ph`/`pid`/`tid`, and every
//! duration event (`ph: "X"`) needs numeric `ts`/`dur`.
//!
//! ```text
//! cargo run --release -p autogemm-bench --bin schema_guard [DIR]
//! ```
//!
//! Scans `DIR` (default `.`, the repo root in CI) non-recursively and
//! panics on the first violation — artifacts with no embedded reports
//! (e.g. `BENCH_pool.json`, previously unguarded entirely) still get
//! the full JSON validation.

use autogemm::telemetry::Json;
use autogemm::GemmReport;

/// Recursively count and validate embedded schema-versioned reports.
fn check_reports(path: &str, v: &Json) -> usize {
    let mut found = 0;
    match v {
        Json::Obj(fields) => {
            // Artifact envelopes also stamp a top-level `schema_version`;
            // an embedded GemmReport is distinguished by the mandatory
            // `phases` section (present in every schema version).
            if v.get("schema_version").is_some() && v.get("phases").is_some() {
                let report = GemmReport::from_json_value(v).unwrap_or_else(|e| {
                    panic!("{path}: embedded report failed the schema guard: {e}")
                });
                let ran = report.m > 0 && report.n > 0 && report.k > 0;
                if ran && report.wall.wall_ns == 0 {
                    panic!(
                        "{path}: embedded {}x{}x{} report has zero wall time — \
                         regenerate the artifact",
                        report.m, report.n, report.k
                    );
                }
                check_integrity_consistency(path, v);
                found += 1;
            }
            for (_, inner) in fields {
                found += check_reports(path, inner);
            }
        }
        Json::Arr(items) => {
            for inner in items {
                found += check_reports(path, inner);
            }
        }
        _ => {}
    }
    found
}

/// Cross-section rule: a report that claims verification
/// failures (`integrity.verify_failures_total > 0`) must also show the
/// failures reaching the breaker — either accumulated faults on the
/// `verify_integrity` health path or a recorded transition on it. An
/// artifact violating this was produced by an engine that detected
/// corruption but never fed the quarantine machinery, which is exactly
/// the bug this guard exists to catch. Reports without an `integrity`
/// section (verification off) are exempt.
fn check_integrity_consistency(path: &str, report: &Json) {
    let failures = report
        .get("integrity")
        .and_then(|i| i.get("verify_failures_total"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if failures == 0 {
        return;
    }
    let health = report
        .get("health")
        .unwrap_or_else(|| panic!("{path}: report claims verify failures but has no health"));
    let path_faulted = health
        .get("paths")
        .and_then(Json::as_arr)
        .map(|paths| {
            paths.iter().any(|p| {
                p.get("path").and_then(Json::as_str) == Some("verify_integrity")
                    && (p.get("total_faults").and_then(Json::as_u64).unwrap_or(0) > 0
                        || p.get("trips").and_then(Json::as_u64).unwrap_or(0) > 0)
            })
        })
        .unwrap_or(false);
    let transition_recorded = health
        .get("transitions")
        .and_then(Json::as_arr)
        .map(|ts| ts.iter().filter_map(Json::as_str).any(|t| t.starts_with("verify_integrity:")))
        .unwrap_or(false);
    if !path_faulted && !transition_recorded {
        panic!(
            "{path}: report claims {failures} verify failures but the \
             verify_integrity breaker path shows no faults, trips or \
             transitions — detection is not reaching quarantine"
        );
    }
}

/// Validate a Chrome trace-event timeline artifact; returns the event
/// count.
fn check_timeline(path: &str, events: &[Json]) -> usize {
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{path}: event {i} missing ph"));
        for key in ["pid", "tid"] {
            if e.get(key).and_then(Json::as_u64).is_none() {
                panic!("{path}: event {i} missing numeric {key}");
            }
        }
        if ph == "X" {
            for key in ["ts", "dur"] {
                if e.get(key).and_then(Json::as_f64).is_none() {
                    panic!("{path}: duration event {i} missing numeric {key}");
                }
            }
        }
    }
    events.len()
}

/// Explicit envelope checks for `BENCH_service.json` (the service_soak
/// artifact): the overload sweep must carry its load matrix with the
/// admission accounting, and its embedded report must actually have the
/// `service` section (the generic report sweep would accept a
/// report without one, since only service-stamped reports carry it).
fn check_service_envelope(path: &str, v: &Json) {
    if v.get("saturation_qps").and_then(Json::as_f64).is_none() {
        panic!("{path}: service_soak artifact missing numeric saturation_qps");
    }
    let loads = v
        .get("loads")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{path}: service_soak artifact missing loads array"));
    assert!(!loads.is_empty(), "{path}: empty loads array");
    for (i, load) in loads.iter().enumerate() {
        for key in [
            "multiplier",
            "offered_qps",
            "achieved_qps",
            "admitted",
            "rejected",
            "shed",
            "expired_in_queue",
            "dropped_share",
            "p50_s",
            "p99_s",
            "queued_after",
            "in_flight_after",
        ] {
            if load.get(key).and_then(Json::as_f64).is_none() {
                panic!("{path}: load {i} missing numeric {key}");
            }
        }
    }
    let report = v
        .get("report")
        .unwrap_or_else(|| panic!("{path}: service_soak artifact missing embedded report"));
    let service = report
        .get("service")
        .unwrap_or_else(|| panic!("{path}: embedded report has no service section at all"));
    for key in ["queue_depth", "max_in_flight", "offered", "admitted", "shed_ratio"] {
        if service.get(key).and_then(Json::as_f64).is_none() {
            panic!("{path}: service section missing numeric {key}");
        }
    }
    if service.get("queue_wait_ns").is_none() {
        panic!("{path}: service section missing queue_wait_ns histogram");
    }
    // The per-tenant verification matrix. Optional, but when present it
    // must be complete and internally consistent (clean soak traffic ⇒
    // zero failures, drained queues).
    if let Some(matrix) = v.get("verify_matrix").and_then(Json::as_arr) {
        assert!(!matrix.is_empty(), "{path}: empty verify_matrix");
        for (i, cell) in matrix.iter().enumerate() {
            if cell.get("policy").and_then(Json::as_str).is_none() {
                panic!("{path}: verify_matrix cell {i} missing policy string");
            }
            for key in [
                "sample_rate",
                "calls",
                "verify_runs_total",
                "verify_passes_total",
                "verify_failures_total",
                "queued_after",
                "in_flight_after",
            ] {
                if cell.get(key).and_then(Json::as_f64).is_none() {
                    panic!("{path}: verify_matrix cell {i} missing numeric {key}");
                }
            }
            let failures = cell.get("verify_failures_total").and_then(Json::as_u64).unwrap_or(1);
            assert_eq!(failures, 0, "{path}: verify_matrix cell {i} flagged clean soak traffic");
            let drained = cell.get("queued_after").and_then(Json::as_u64) == Some(0)
                && cell.get("in_flight_after").and_then(Json::as_u64) == Some(0);
            assert!(drained, "{path}: verify_matrix cell {i} did not drain to idle");
        }
    }
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("schema_guard: cannot read {dir}: {e}"))
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "schema_guard: no BENCH_*.json artifacts found in {dir}");
    for name in &names {
        let path = format!("{dir}/{name}");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: unreadable: {e}"));
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: invalid JSON: {e}"));
        if let Some(events) = parsed.get("traceEvents").and_then(Json::as_arr) {
            let n = check_timeline(&path, events);
            println!("{name}: timeline OK ({n} trace events)");
        } else {
            let reports = check_reports(&path, &parsed);
            if parsed.get("bench").and_then(Json::as_str) == Some("service_soak") {
                check_service_envelope(&path, &parsed);
                assert!(reports > 0, "{path}: service artifact carries no embedded report");
                println!("{name}: service envelope OK ({reports} embedded reports)");
            } else {
                println!("{name}: OK ({reports} embedded schema-versioned reports)");
            }
        }
    }
    println!("schema_guard: {} artifacts validated", names.len());
}
