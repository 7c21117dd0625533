//! Results: metric collection, order statistics, provenance and the JSON
//! line the benchmark ends with.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (optimizer steps, requests or layer measurements).
    pub attempted: u64,
    /// Operations that failed (errors, divergence events, non-200 responses,
    /// socket errors, timeouts).
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// Free-form `key=value` facts printed with the result.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn new() -> Self {
        Report { correct: true, ..Report::default() }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Record the outcome of a correctness check; a failed one clears
    /// `correct` and is listed with the result.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }

    /// End the run as a failure that prevented measuring.
    pub fn fail(mut self, why: String) -> Self {
        self.attempted += 1;
        self.failed += 1;
        self.check(false, || why);
        self
    }

    /// The last line of standard output.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable lines printed before the JSON line.
    pub fn summary(&self, workload: &str) -> String {
        let mut out = String::new();
        let succeeded = self.attempted.saturating_sub(self.failed);
        let _ = writeln!(
            out,
            "[{workload}] ops attempted={} succeeded={succeeded} failed={} correct={}",
            self.attempted, self.failed, self.correct
        );
        for m in &self.metrics {
            let _ = writeln!(out, "[{workload}] {:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.notes {
            let _ = writeln!(out, "[{workload}] note {k}={v}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "[{workload}] CHECK FAILED: {p}");
        }
        out
    }
}

/// Nearest-rank percentile of `values` (`q` in 0..=1). Non-finite entries
/// (failed operations) sort last, so a failure counts as a miss of every
/// percentile it lands beyond.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> =
        values.iter().map(|v| if v.is_finite() { *v } else { f64::INFINITY }).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` when present.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_percentile_misses() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        v[0] = f64::INFINITY;
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 1.0), f64::INFINITY);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.metric("setup_s", 0.25, "s");
        let doc = sthsl_obs::parse_json(&r.json_line()).unwrap();
        let sthsl_obs::Json::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
