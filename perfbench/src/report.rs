//! Metrics, operation accounting and small statistics helpers.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Attempted and failed operations. An operation is a job, a unit inside
/// a job, an HTTP request or a digest comparison; a failure is a driver
/// error, a crashed unit, a job that did not complete, a non-2xx
/// response or a digest mismatch. Simulated verdicts are never failures.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ops {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// End-to-end figures printed as rows but left out of the result
    /// line, whose metrics `BENCHMARK.json` bounds.
    pub ungated: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    pub ops: Ops,
    /// `(spec label, digest)` of every job run, in order.
    pub digests: Vec<(String, String)>,
    /// Extra human-readable rows (sample counts, bases of ratios).
    pub notes: Vec<String>,
}

/// Nearest-rank percentile of `values` (`p` in 0..=100); NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `VmHWM` (peak resident set) of a process, in MB, from
/// `/proc/<pid>/status`.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The final result line of the benchmark contract.
pub fn result_line(correct: bool, ops: &Ops, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted, ops.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}
