//! The benchmark's in-memory span recorder and the self-time split of a
//! traced window.
//!
//! The benchmark records one span around each call it makes into a layer
//! (name, start, end, parent span, request id). Timestamps come from the
//! engine's own [`TraceBuf`] clock, so the engine's caller-lane spans
//! (`pack A`, `pack B`, `kernel`, and the pool's `submit` / `drain`) can be
//! joined to the benchmark's `engine.call` spans by containment. A span's
//! self time is its duration minus the part its children cover; the root
//! span's self time is the unattributed remainder.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;

use autogemm::{TraceBuf, TraceSpan};

/// One benchmark-side span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Request (unit) id shared by every span of one unit.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span names the benchmark records. `UNIT` is the root of each timed
/// unit (a pass, a call or a request).
pub const UNIT: &str = "unit";
pub const ENGINE_CALL: &str = "engine.call";
pub const SERVICE_SUBMIT: &str = "service.submit";
pub const QUEUE_WAIT: &str = "service.queue_wait";

/// Per-thread span recorder. Ids are unique across recorders built with
/// distinct `lane`s.
pub struct Recorder {
    clock: Arc<TraceBuf>,
    lane: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(clock: Arc<TraceBuf>, lane: u64) -> Recorder {
        Recorder { clock, lane, spans: Vec::new() }
    }

    /// Nanoseconds on the shared clock.
    pub fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Record a finished span and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = (self.lane << 40) | self.spans.len() as u64;
        self.spans.push(Span { id, parent, name, req, start_ns, end_ns: end_ns.max(start_ns) });
        id
    }

    /// Reserve an id for a span whose end is not known yet; fill it in
    /// with [`Self::finish`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start_ns: u64,
    ) -> u64 {
        self.push(name, parent, req, start_ns, start_ns)
    }

    pub fn finish(&mut self, id: u64, end_ns: u64) {
        let idx = (id & ((1 << 40) - 1)) as usize;
        let span = &mut self.spans[idx];
        span.end_ns = end_ns.max(span.start_ns);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Layer an engine caller-lane span belongs to.
fn engine_layer(name: &str) -> &'static str {
    match name {
        "pack A" => "pack_a",
        "pack B" => "pack_b",
        "kernel" => "kernel",
        _ => "pool",
    }
}

/// Layer a benchmark span's self time is charged to.
fn bench_layer(name: &str) -> &'static str {
    match name {
        ENGINE_CALL => "engine",
        SERVICE_SUBMIT => "service_exec",
        QUEUE_WAIT => "queue_wait",
        _ => "unattributed",
    }
}

/// Every layer of the split, in report order.
pub const LAYERS: [&str; 8] =
    ["pack_a", "pack_b", "kernel", "pool", "engine", "queue_wait", "service_exec", "unattributed"];

/// Self time of a traced window, by layer.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Summed duration of the root (`unit`) spans.
    pub total_ns: u64,
    pub units: usize,
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Engine spans on pool-worker lanes, by name: parallel work off the
    /// caller's blocking path, reported beside the split.
    pub worker_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Share of the traced end-to-end time spent in `layer`'s self time.
    pub fn share(&self, layer: &str) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / self.total_ns as f64
    }
}

/// Overlap of `[s, e)` with `[lo, hi)`.
fn clipped(s: u64, e: u64, lo: u64, hi: u64) -> u64 {
    e.min(hi).saturating_sub(s.max(lo))
}

/// Split the traced window: each benchmark span's self time (duration
/// minus its children, where the engine's caller-lane spans inside an
/// `engine.call` count as that call's children) charged to its layer.
pub fn analyze(bench: &[Span], engine: &[TraceSpan]) -> Breakdown {
    let mut out = Breakdown::default();
    let mut caller: Vec<&TraceSpan> = engine.iter().filter(|s| s.track == 0).collect();
    caller.sort_by_key(|s| s.start_ns);
    let lo = bench.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let hi = bench.iter().map(|s| s.end_ns).max().unwrap_or(0);
    for s in engine.iter().filter(|s| s.track != 0) {
        *out.worker_ns.entry(s.name).or_default() += clipped(s.start_ns, s.end_ns, lo, hi);
    }
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = bench.iter().map(|s| (s.id, s)).collect();
    for s in bench {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            *child_ns.entry(p.id).or_default() +=
                clipped(s.start_ns, s.end_ns, p.start_ns, p.end_ns);
        }
    }
    for s in bench {
        let dur = s.end_ns - s.start_ns;
        let mut covered = child_ns.get(&s.id).copied().unwrap_or(0);
        if s.name == ENGINE_CALL {
            let first = caller.partition_point(|e| e.start_ns < s.start_ns);
            for e in caller[first..].iter().take_while(|e| e.start_ns < s.end_ns) {
                let ns = clipped(e.start_ns, e.end_ns, s.start_ns, s.end_ns);
                *out.self_ns.entry(engine_layer(e.name)).or_default() += ns;
                covered += ns;
            }
        }
        *out.self_ns.entry(bench_layer(s.name)).or_default() += dur.saturating_sub(covered);
        if s.parent.is_none() {
            out.total_ns += dur;
            out.units += 1;
        }
    }
    out
}

/// Write both span sets as one JSON document.
pub fn export(
    path: &std::path::Path,
    header: &str,
    bench: &[Span],
    engine: &[TraceSpan],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{{header},\"spans\":[")?;
    for (i, s) in bench.iter().enumerate() {
        let sep = if i + 1 < bench.len() { "," } else { "" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "],\"engine_spans\":[")?;
    for (i, s) in engine.iter().enumerate() {
        let sep = if i + 1 < engine.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"track\":{},\"name\":\"{}\",\"cat\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.track, s.name, s.cat, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: usize, name: &'static str, start_ns: u64, end_ns: u64) -> TraceSpan {
        TraceSpan { track, name, cat: "phase", start_ns, end_ns }
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let clock = Arc::new(TraceBuf::new(1, 1));
        let mut r = Recorder::new(clock, 0);
        let root = r.push(UNIT, None, 0, 0, 1000);
        r.push(ENGINE_CALL, Some(root), 0, 100, 900);
        let engine = [
            span(0, "pack A", 150, 250),
            span(0, "kernel", 300, 800),
            span(1, "kernel", 310, 790),
            span(0, "kernel", 950, 990),
        ];
        let b = analyze(&r.into_spans(), &engine);
        assert_eq!(b.total_ns, 1000);
        assert_eq!(b.self_ns["pack_a"], 100);
        assert_eq!(b.self_ns["kernel"], 500);
        assert_eq!(b.self_ns["engine"], 200);
        assert_eq!(b.self_ns["unattributed"], 200);
        assert_eq!(b.worker_ns["kernel"], 480);
        assert_eq!(b.self_ns.values().sum::<u64>(), 1000);
    }
}
