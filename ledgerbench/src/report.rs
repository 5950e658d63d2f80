//! Metric collection, the correctness gate's bookkeeping, and the output
//! format: one human-readable line per metric, then one JSON object as the
//! last line of standard output.

use std::fmt::Write;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    failures: Vec<String>,
    /// Requests (or queries) submitted over every timed repetition.
    pub attempted: u64,
    /// Submitted requests that got no answer at all.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.check(value.is_finite(), || format!("metric {name} is not finite"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a human-readable line (sample counts, bases of ratios).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The notes recorded so far.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Renders the report: notes and metrics as text lines, then the JSON
    /// result as the final line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<44} {:>18} {}", m.name, m.value, m.unit);
        }
        for f in &self.failures {
            let _ = writeln!(out, "# CHECK FAILED: {f}");
        }
        let mut json = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_json_result() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        r.note("samples: 10");
        let out = r.render();
        let last = out.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.metric("x", f64::NAN, "ms");
        assert!(!r.correct());
        assert!(r.render().lines().last().unwrap().contains("\"value\": 0,"));
    }
}
