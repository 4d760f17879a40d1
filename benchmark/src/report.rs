//! The result of one workload run: the JSON line the benchmark ends with,
//! the `workload metric value unit` lines before it, and result files.

use std::fmt::Write as _;

use serde::Value;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one workload run reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Every checked output matched its recorded digest.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context printed before the result: sample counts, validity checks.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The metric named `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Fails when a metric is not a finite number, which JSON cannot hold.
    pub fn check_finite(&self) -> Result<(), String> {
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} is {}", m.name, m.value)),
            None => Ok(()),
        }
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads a result object back.
    fn from_json(value: &Value) -> Result<Outcome, String> {
        let count = |k: &str| {
            value
                .get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("result lacks '{k}'"))
        };
        let metrics = value
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("result lacks 'metrics'")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok(Metric::new(name, v, u)),
                    _ => Err(format!("metric '{name}' lacks a value or unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Outcome {
            correct: value.get("correct").and_then(Value::as_bool) == Some(true),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            notes: Vec::new(),
        })
    }

    /// Notes, then one `workload metric value unit` line per metric.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{workload} {note}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{workload} {} {} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// A results file: the outcome of every workload of one `run`.
pub fn results_file(seed: u64, seconds: u64, results: &[(&str, Outcome)]) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"seconds\": {seconds}, \"results\": {{\n");
    for (i, (workload, outcome)) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(out, "  \"{workload}\": {}{sep}", outcome.to_json());
    }
    out.push_str("}}\n");
    out
}

/// Reads a results file back as `(workload, outcome)` pairs.
pub fn parse_results_file(text: &str) -> Result<Vec<(String, Outcome)>, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    value
        .get("results")
        .and_then(Value::as_object)
        .ok_or("no 'results' object")?
        .iter()
        .map(|(w, v)| Ok((w.clone(), Outcome::from_json(v)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip_through_their_json() {
        let outcome = Outcome {
            correct: true,
            attempted: 500,
            failed: 0,
            metrics: vec![
                Metric::new("latency_p50_ms", 12.345678901, "ms"),
                Metric::new("setup_s", 1.8, "s"),
            ],
            notes: vec!["latency_samples 500".to_string()],
        };
        let line = outcome.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 500, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 12.345678901, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 1.8, \"unit\": \"s\"}}}"
        );
        let value: Value = serde_json::from_str(&line).unwrap();
        let back = Outcome::from_json(&value).unwrap();
        assert_eq!(back.metrics, outcome.metrics);
        let file = results_file(1, 20, &[("serve_hot", outcome.clone())]);
        let parsed = parse_results_file(&file).unwrap();
        assert_eq!(parsed[0].0, "serve_hot");
        assert_eq!(parsed[0].1.get("setup_s"), Some(1.8));
        assert!(outcome
            .lines("serve_hot")
            .contains("serve_hot setup_s 1.8 s\n"));
    }
}
