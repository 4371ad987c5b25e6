//! Statistics helpers used throughout the metric pipeline.
//!
//! The paper reports latency distributions as percentiles (P25/P50/P95) and
//! CDFs (Figures 2, 4, 14, 16), plus average accuracies and latency "wins"
//! (relative savings). This module provides the small set of numerically
//! careful primitives those reports need.

use serde::{Deserialize, Serialize};

/// Online mean / variance / min / max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A snapshot of the standard percentiles reported by the paper.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Percentiles {
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
    /// Sample count.
    pub count: usize,
}

/// Sort samples ascending in place, without allocating. Equal samples of a
/// summary are equal bits (latencies are finite and non-negative), so the
/// unstable sort leaves the same sequence a stable one would. Panics on NaN.
pub fn sort_samples(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
}

impl Percentiles {
    /// Compute percentiles from a set of samples (need not be sorted).
    /// Returns all-zero percentiles for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Percentiles {
        let mut sorted: Vec<f64> = samples.to_vec();
        sort_samples(&mut sorted);
        Percentiles::from_sorted(&sorted)
    }

    /// [`Percentiles::from_samples`] of samples already in ascending order
    /// (see [`sort_samples`]).
    pub fn from_sorted(sorted: &[f64]) -> Percentiles {
        if sorted.is_empty() {
            return Percentiles::default();
        }
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Percentiles {
            p25: quantile_sorted(sorted, 0.25),
            p50: quantile_sorted(sorted, 0.50),
            p75: quantile_sorted(sorted, 0.75),
            p95: quantile_sorted(sorted, 0.95),
            p99: quantile_sorted(sorted, 0.99),
            mean,
            max: *sorted.last().expect("non-empty"),
            count: sorted.len(),
        }
    }
}

/// Linear-interpolation quantile of an already-sorted slice, `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical CDF, reported as `(value, cumulative fraction)` points.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Cdf {
    points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Build an empirical CDF from samples.
    pub fn from_samples(samples: &[f64]) -> Cdf {
        let mut sorted: Vec<f64> = samples.to_vec();
        sort_samples(&mut sorted);
        Cdf::from_sorted(sorted)
    }

    /// [`Cdf::from_samples`] of samples already in ascending order (see
    /// [`sort_samples`]).
    pub fn from_sorted(sorted: Vec<f64>) -> Cdf {
        let n = sorted.len();
        let points = sorted
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
            .collect();
        Cdf { points }
    }

    /// The raw `(value, fraction)` points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Fraction of samples `<= value`.
    pub fn fraction_at(&self, value: f64) -> f64 {
        match self
            .points
            .binary_search_by(|(v, _)| v.partial_cmp(&value).expect("NaN sample"))
        {
            Ok(mut idx) => {
                // Step to the last equal value.
                while idx + 1 < self.points.len() && self.points[idx + 1].0 <= value {
                    idx += 1;
                }
                self.points[idx].1
            }
            Err(0) => 0.0,
            Err(idx) => self.points[idx - 1].1,
        }
    }

    /// The value at a given cumulative fraction (inverse CDF).
    pub fn value_at(&self, fraction: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let values: Vec<f64> = self.points.iter().map(|(v, _)| *v).collect();
        quantile_sorted(&values, fraction)
    }

    /// Downsample to at most `n` evenly spaced points (for compact reports).
    pub fn downsample(&self, n: usize) -> Cdf {
        if n == 0 || self.points.len() <= n {
            return self.clone();
        }
        let step = (self.points.len() - 1) as f64 / (n - 1) as f64;
        let points = (0..n)
            .map(|i| self.points[(i as f64 * step).round() as usize])
            .collect();
        Cdf { points }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if built from no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A fixed-width histogram over `[lo, hi)` with an overflow bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    overflow: u64,
    underflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram with `n` equal-width buckets spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Histogram {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(n > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            overflow: 0,
            underflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total number of observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bucket counts, excluding under/overflow.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Count of observations above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count of observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// The bucket index containing the most observations.
    pub fn mode_bucket(&self) -> usize {
        self.buckets
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Relative improvement of `new` over `baseline`, as a percentage.
///
/// Positive values mean `new` is smaller (better, for latencies). This is the
/// "latency wins vs. vanilla (%)" quantity used throughout §4.
pub fn percent_improvement(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    (baseline - new) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..40] {
            left.push(x);
        }
        for &x in &xs[40..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::from_samples(&samples);
        assert!((p.p50 - 50.5).abs() < 1e-9);
        assert!((p.p25 - 25.75).abs() < 1e-9);
        assert!((p.p95 - 95.05).abs() < 1e-9);
        assert_eq!(p.max, 100.0);
        assert_eq!(p.count, 100);
    }

    #[test]
    fn percentiles_handle_edge_cases() {
        assert_eq!(Percentiles::from_samples(&[]).count, 0);
        let single = Percentiles::from_samples(&[3.0]);
        assert_eq!(single.p50, 3.0);
        assert_eq!(single.p95, 3.0);
    }

    #[test]
    fn cdf_round_trips() {
        let samples: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(&samples);
        assert_eq!(cdf.len(), 10);
        assert!((cdf.fraction_at(5.0) - 0.5).abs() < 1e-9);
        assert_eq!(cdf.fraction_at(0.5), 0.0);
        assert_eq!(cdf.fraction_at(100.0), 1.0);
        assert!((cdf.value_at(0.5) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_downsample_keeps_endpoints() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(&samples).downsample(11);
        assert_eq!(cdf.len(), 11);
        assert_eq!(cdf.points()[0].0, 0.0);
        assert_eq!(cdf.points()[10].0, 999.0);
    }

    #[test]
    fn histogram_counts_land_in_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        h.record(-1.0);
        h.record(42.0);
        assert_eq!(h.count(), 12);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert!(h.buckets().iter().all(|&c| c == 1));
    }

    #[test]
    fn histogram_mode() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        for _ in 0..5 {
            h.record(1.5);
        }
        h.record(0.5);
        assert_eq!(h.mode_bucket(), 1);
    }

    #[test]
    fn percent_improvement_signs() {
        assert!((percent_improvement(10.0, 5.0) - 50.0).abs() < 1e-9);
        assert!((percent_improvement(10.0, 12.0) + 20.0).abs() < 1e-9);
        assert_eq!(percent_improvement(0.0, 5.0), 0.0);
    }
}
