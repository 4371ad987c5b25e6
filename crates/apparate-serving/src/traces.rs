//! Request arrival processes.
//!
//! The paper drives classification workloads with Microsoft Azure Functions
//! (MAF) trace snippets — bursty, time-varying arrival rates — CV workloads
//! with fixed-fps video frames, and generative workloads with Poisson arrivals
//! tuned to saturate the GPU (§4.1). This module synthesises all three.

use apparate_sim::{DeterministicRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A concrete sequence of arrival times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalTrace {
    times: Vec<SimTime>,
}

impl ArrivalTrace {
    /// Wrap raw arrival times, sorted into non-decreasing order.
    pub fn from_times(mut times: Vec<SimTime>) -> ArrivalTrace {
        times.sort();
        ArrivalTrace { times }
    }

    /// Arrival times, non-decreasing: every constructor keeps them sorted
    /// (`from_times` sorts; the generators and transforms are monotone), and
    /// the serving loop relies on it to read arrivals in order through a
    /// cursor.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Total span of the trace.
    pub fn span(&self) -> SimDuration {
        match (self.times.first(), self.times.last()) {
            (Some(&first), Some(&last)) => last - first,
            _ => SimDuration::ZERO,
        }
    }

    /// Mean arrival rate in requests per second.
    pub fn mean_rate(&self) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        (self.len().saturating_sub(1)) as f64 / span
    }

    /// Fixed-rate arrivals: `n` requests at `rate_hz` requests per second
    /// (e.g. 30 fps video frames).
    pub fn fixed_rate(n: usize, rate_hz: f64) -> ArrivalTrace {
        assert!(rate_hz > 0.0, "rate must be positive");
        let gap_us = 1_000_000.0 / rate_hz;
        let times = (0..n)
            .map(|i| SimTime::from_micros((i as f64 * gap_us).round() as u64))
            .collect();
        ArrivalTrace { times }
    }

    /// Poisson arrivals with the given mean rate (requests per second).
    pub fn poisson(n: usize, rate_hz: f64, seed: u64) -> ArrivalTrace {
        assert!(rate_hz > 0.0, "rate must be positive");
        let rng = DeterministicRng::new(seed).child(0x9015_5071);
        let mut stream = rng.stream(&[0]);
        let mut t = 0.0f64;
        let times = (0..n)
            .map(|_| {
                t += stream.exponential(rate_hz);
                SimTime::from_micros((t * 1_000_000.0).round() as u64)
            })
            .collect();
        ArrivalTrace { times }
    }

    /// MAF-like bursty arrivals: a Poisson process whose rate is modulated by
    /// a slowly varying baseline (diurnal-style sinusoid) plus occasional
    /// multiplicative bursts, mimicking the Azure Functions traces used in
    /// prior serving work (Clockwork, AlpaServe) and in §4.1.
    pub fn maf_like(n: usize, mean_rate_hz: f64, seed: u64) -> ArrivalTrace {
        assert!(mean_rate_hz > 0.0, "rate must be positive");
        let rng = DeterministicRng::new(seed).child(0x3A41_F00D);
        let mut stream = rng.stream(&[1]);
        let mut t = 0.0f64;
        let mut times = Vec::with_capacity(n);
        // Burst state: occasionally the rate jumps by 2–4x for a short period.
        let mut burst_until = 0.0f64;
        let mut burst_factor = 1.0f64;
        for i in 0..n {
            // Slow sinusoidal modulation with period ~200 requests.
            let phase = i as f64 / 200.0 * std::f64::consts::TAU;
            let diurnal = 1.0 + 0.4 * phase.sin();
            if t >= burst_until && stream.chance(0.01) {
                burst_factor = stream.uniform(2.0, 4.0);
                burst_until = t + stream.uniform(0.2, 1.0);
            }
            let factor = if t < burst_until { burst_factor } else { 1.0 };
            let rate = (mean_rate_hz * diurnal * factor).max(0.1);
            t += stream.exponential(rate);
            times.push(SimTime::from_micros((t * 1_000_000.0).round() as u64));
        }
        ArrivalTrace { times }
    }

    /// Scale the arrival rate by `factor` (>1 compresses inter-arrival gaps).
    /// Used e.g. to upsample 30 fps video to 120 fps for the SLO sensitivity
    /// experiment (§4.2, Figure 17).
    pub fn scaled_rate(&self, factor: f64) -> ArrivalTrace {
        assert!(factor > 0.0, "factor must be positive");
        let times = self
            .times
            .iter()
            .map(|t| SimTime::from_micros((t.as_micros() as f64 / factor).round() as u64))
            .collect();
        ArrivalTrace { times }
    }

    /// Take the first `n` arrivals.
    pub fn truncated(&self, n: usize) -> ArrivalTrace {
        ArrivalTrace {
            times: self.times.iter().copied().take(n).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_spacing() {
        let t = ArrivalTrace::fixed_rate(31, 30.0);
        assert_eq!(t.len(), 31);
        let gap = t.times()[1] - t.times()[0];
        assert!((gap.as_millis_f64() - 33.333).abs() < 0.01);
        assert!((t.mean_rate() - 30.0).abs() < 0.5);
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let t = ArrivalTrace::poisson(5000, 100.0, 7);
        assert!(
            (t.mean_rate() - 100.0).abs() < 10.0,
            "rate {}",
            t.mean_rate()
        );
        // Times must be sorted (non-decreasing).
        assert!(t.times().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = ArrivalTrace::poisson(100, 50.0, 3);
        let b = ArrivalTrace::poisson(100, 50.0, 3);
        let c = ArrivalTrace::poisson(100, 50.0, 4);
        assert_eq!(a.times(), b.times());
        assert_ne!(a.times(), c.times());
    }

    #[test]
    fn maf_like_is_burstier_than_poisson() {
        let maf = ArrivalTrace::maf_like(4000, 80.0, 11);
        let poisson = ArrivalTrace::poisson(4000, 80.0, 11);
        // Coefficient of variation of inter-arrival gaps should be larger for
        // the bursty trace.
        let cv = |trace: &ArrivalTrace| {
            let gaps: Vec<f64> = trace
                .times()
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        assert!(
            cv(&maf) > cv(&poisson),
            "maf cv {} poisson cv {}",
            cv(&maf),
            cv(&poisson)
        );
    }

    #[test]
    fn scaled_rate_compresses_time() {
        let base = ArrivalTrace::fixed_rate(10, 30.0);
        let fast = base.scaled_rate(4.0);
        assert!((fast.mean_rate() - 120.0).abs() < 2.0);
        assert_eq!(fast.len(), base.len());
    }

    #[test]
    fn truncated_takes_prefix() {
        let t = ArrivalTrace::fixed_rate(100, 10.0).truncated(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.times()[4], SimTime::from_micros(400_000));
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = ArrivalTrace::from_times(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.mean_rate(), 0.0);
        assert_eq!(t.span(), SimDuration::ZERO);
    }
}
