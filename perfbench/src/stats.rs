//! Order statistics and the per-layer sample pool.

use std::collections::BTreeMap;

use hc_bench::stats::mean;

/// The `q`-quantile of `values` by the nearest-rank rule (`q` in `[0, 1]`);
/// `NaN` for an empty slice. Sorts a copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values` without the lowest and the highest `trim` share of
/// them; 0 when nothing is left. Sorts a copy.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (trim * sorted.len() as f64) as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Nanosecond samples as `f64`.
pub fn ns(values: &[u64]) -> Vec<f64> {
    values.iter().map(|&v| v as f64).collect()
}

/// Per-layer samples keyed by metric name. A phase fills its own pool; the
/// run merges the pools with its home phase first, so a metric is taken
/// from the phase that dominates the workload whenever that phase measures
/// it.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.0.entry(metric).or_default().push(value);
    }

    pub fn get(&self, metric: &str) -> Option<&[f64]> {
        self.0.get(metric).map(Vec::as_slice)
    }

    pub fn median(&self, metric: &str) -> Option<f64> {
        self.get(metric).map(median)
    }

    /// Adds every metric of `other` that `self` does not have yet.
    pub fn fill_from(&mut self, other: Samples) {
        for (k, v) in other.0 {
            self.0.entry(k).or_insert(v);
        }
    }
}
