//! What a phase measured, and the run's printed result.

use std::collections::BTreeMap;

use crate::stats::Samples;
use crate::trace::Span;

/// One correctness check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Self { name, ok, detail }
    }
}

/// Whether two vectors are equal bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Everything one phase of a run measured.
pub struct PhaseReport {
    pub label: String,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// End-to-end metrics the phase defines, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Exact work counts: name, value, how it was obtained.
    pub counts: Vec<(&'static str, f64, &'static str)>,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    pub samples: Samples,
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

impl PhaseReport {
    pub fn new(label: &str) -> Self {
        Self {
            label: label.to_string(),
            setup_s: f64::NAN,
            peak_rss_mb: f64::NAN,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            counts: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            samples: Samples::default(),
            spans: Vec::new(),
        }
    }

    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.metrics.insert(metric, value);
    }
}

/// A metric as it goes into the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
