//! Named metrics and the result line.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported number with its unit and the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Every metric a run produced, by name.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// The median of `samples`, with their count.
    pub fn set_median(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        self.set(
            name,
            stats::median(samples).unwrap_or(0.0),
            unit,
            samples.len(),
        );
    }

    /// The p90 of `samples` under the percentile rule (see
    /// [`stats::tail`]), with their count; 0 when too few samples lie
    /// beyond it.
    pub fn set_p90(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        self.set(
            name,
            stats::tail(samples, 0.90).unwrap_or(0.0),
            unit,
            samples.len(),
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Human-readable lines: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let _ = writeln!(
                out,
                "  {name:<40} {:>16.6} {:<6} n={}",
                m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The result object, restricted to `names` in that order; a name the
    /// run did not produce is an error.
    pub fn result_line(
        &self,
        names: &[&str],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Every metric, with sample counts, as one JSON object.
    pub fn full_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                if i == 0 { "" } else { ", " },
                json_number(m.value),
                m.unit,
                m.samples
            );
        }
        out.push('}');
        out
    }
}

/// A finite number printed with all its digits (Rust's shortest exact
/// round-trip form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_exactly_the_named_metrics() {
        let mut r = Report::default();
        r.set("setup_s", 0.8127, "s", 3);
        r.set("read_ms_p50", 1.25, "ms", 100);
        r.set("extra", 1.0, "count", 1);
        let line = r
            .result_line(&["read_ms_p50", "setup_s"], true, 10, 0)
            .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"read_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(r.result_line(&["missing"], true, 1, 0).is_err());
    }
}
