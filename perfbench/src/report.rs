//! Metric collection, failure accounting and the result line.

use crate::inputs::Problem;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: end-to-end metrics (untraced runs),
/// per-layer metrics (traced runs) and the operation tallies.
#[derive(Default)]
pub struct Sink {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that disagreed with the reference (or that the verifier
    /// rejected): any one makes the run incorrect.
    pub wrong_outputs: u64,
}

impl Sink {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("e2e {name} = {value} {unit}");
        self.e2e.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("layer-metric {name} = {value} {unit}");
        self.layers.push(Metric { name, value, unit });
    }

    /// Count `n` failed operations.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            println!("FAILED x{n}: {why}");
            self.failed += n;
        }
    }

    /// Check one output: `None` means the call that should have produced
    /// it returned an error.
    pub fn check(&mut self, p: &Problem, c: Option<&Vec<f32>>) {
        match c {
            None => self.fail(1, &format!("{} call returned an error", p.shape)),
            Some(c) => {
                let bad = p.mismatches(c);
                if bad > 0 {
                    self.wrong_outputs += 1;
                    self.fail(1, &format!("{} output: {bad} cells off the f64 reference", p.shape));
                }
            }
        }
    }

    /// Check a correct-by-reference output with the engine's own
    /// Freivalds verifier as well.
    pub fn check_verified(&mut self, p: &Problem, c: &Vec<f32>) {
        self.check(p, Some(c));
        let s = p.shape;
        if autogemm::verify::verify_output(s.m, s.n, s.k, &p.a, &p.b, c).is_err() {
            self.wrong_outputs += 1;
            self.fail(1, &format!("{} output rejected by verify::verify_output", p.shape));
        }
    }

    /// The result line: one JSON object with the tallies and either the
    /// end-to-end or the per-layer metrics.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace { &self.layers } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong_outputs == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
