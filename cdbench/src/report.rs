//! What one invocation prints: named metrics with units, the correctness
//! checks, and the final one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// One correctness check and whether it held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was seen, for the log.
    pub detail: String,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests issued: actor runs or open → close cycles.
    pub attempted: u64,
    /// Requests that returned an unexpected error.
    pub failed: u64,
    /// The metrics of the final JSON line: the end-to-end set untraced,
    /// the per-layer set traced.
    pub metrics: Vec<Metric>,
    /// Workload-specific outcomes (files lost, detections, ...), printed
    /// but not part of the JSON line.
    pub outcomes: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
}

impl Report {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// The human-readable lines printed before the JSON line.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for m in self.metrics.iter().chain(&self.outcomes) {
            out.push(format!("metric {} {} {}", m.name, m.value, m.unit));
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            out.push(format!("check {} {verdict}: {}", c.name, c.detail));
        }
        out
    }

    /// The final result line.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The `q`-quantile of `sorted` (ascending), interpolating linearly
/// between order statistics; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `values` sorted ascending.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Resident set size of this process (`VmRSS`), in KiB; 0 where `/proc`
/// is unavailable.
pub fn resident_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = sorted([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metrics.push(Metric {
            name: "setup_s".into(),
            value: 0.5,
            unit: "s",
        });
        r.check("x", true, String::new());
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
