//! Metric summaries and baseline comparisons.
//!
//! The paper's headline numbers are *latency wins*: the percentage reduction
//! in a latency percentile relative to vanilla serving, under unchanged
//! throughput and an accuracy constraint. This module turns raw
//! [`ServingOutcome`]s / [`GenerativeOutcome`]s into those summaries:
//! [`LatencySummary::of`] is the one definition of every summary metric, for
//! one run or for a fleet's pooled replicas, on either path.

use crate::generative::GenerativeOutcome;
use crate::platform::ServingOutcome;
use apparate_sim::stats::{percent_improvement, sort_samples};
use apparate_sim::{Cdf, Percentiles, SimDuration};
use serde::{Deserialize, Serialize};

/// What one run's outcome must expose to be summarised, alone or pooled with
/// a fleet's other replicas. The "unit" is the per-sample granularity of the
/// domain: one served request for classification, one emitted token for
/// generative decode.
pub trait ReplicaOutcome {
    /// Units produced by this replica.
    fn unit_count(&self) -> usize;
    /// Units whose released result matched the original model.
    fn correct_units(&self) -> usize;
    /// Units released through an early-exit ramp.
    fn exited_units(&self) -> usize;
    /// Units that violated their latency SLO.
    fn violated_units(&self) -> usize;
    /// Per-unit latency samples in milliseconds (response latency for
    /// classification, time-per-token for generative).
    fn unit_samples_ms(&self) -> Vec<f64>;
    /// Wall-clock span of this replica's run.
    fn replica_makespan(&self) -> SimDuration;
    /// Batch sizes this replica launched, in launch order.
    fn batch_sizes(&self) -> &[u32];
}

impl ReplicaOutcome for ServingOutcome {
    fn unit_count(&self) -> usize {
        self.records.len()
    }

    fn correct_units(&self) -> usize {
        self.records.iter().filter(|r| r.correct).count()
    }

    fn exited_units(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.exit_ramp.is_some())
            .count()
    }

    fn violated_units(&self) -> usize {
        self.records.iter().filter(|r| r.slo_violated).count()
    }

    fn unit_samples_ms(&self) -> Vec<f64> {
        self.latencies_ms()
    }

    fn replica_makespan(&self) -> SimDuration {
        self.makespan
    }

    fn batch_sizes(&self) -> &[u32] {
        &self.batch_sizes
    }
}

impl ReplicaOutcome for GenerativeOutcome {
    fn unit_count(&self) -> usize {
        self.tokens.len()
    }

    fn correct_units(&self) -> usize {
        self.tokens.iter().filter(|t| t.correct).count()
    }

    fn exited_units(&self) -> usize {
        self.tokens.iter().filter(|t| t.exit_ramp.is_some()).count()
    }

    fn violated_units(&self) -> usize {
        self.tokens.iter().filter(|t| t.slo_violated).count()
    }

    fn unit_samples_ms(&self) -> Vec<f64> {
        self.tpt_ms()
    }

    fn replica_makespan(&self) -> SimDuration {
        self.makespan
    }

    fn batch_sizes(&self) -> &[u32] {
        &self.batch_sizes
    }
}

/// Latency + accuracy + throughput summary of one serving run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Which policy produced it.
    pub policy: String,
    /// Latency percentiles in milliseconds.
    pub latency_ms: Percentiles,
    /// Accuracy relative to the original model (for generative runs,
    /// token-level agreement: the proxy for the paper's sequence-level
    /// ROUGE-L / F1 scores).
    pub accuracy: f64,
    /// Throughput in requests (or tokens) per second.
    pub throughput: f64,
    /// Mean batch size.
    pub mean_batch_size: f64,
    /// SLO violation rate: response SLO for classification runs, TBT SLO for
    /// generative runs.
    pub slo_violation_rate: f64,
    /// Fraction of results that exited early.
    pub exit_rate: f64,
}

impl LatencySummary {
    /// Summarise one run (a one-element slice) or a fleet's replicas. The
    /// replicas run in parallel, so throughput divides every unit by the
    /// slowest replica's makespan; latencies pool across replicas, and the
    /// rates divide summed unit counts (accuracy reads 1.0 with no units,
    /// the other rates 0.0). Mean batch size weights every launched batch
    /// equally.
    pub fn of<O: ReplicaOutcome>(policy: impl Into<String>, outcomes: &[O]) -> LatencySummary {
        LatencySummary::over(policy, outcomes, &sorted_unit_samples(outcomes))
    }

    /// [`LatencySummary::of`] and the CDF of the same samples, sorted once
    /// for both.
    pub fn with_cdf<O: ReplicaOutcome>(
        policy: impl Into<String>,
        outcomes: &[O],
    ) -> (LatencySummary, Cdf) {
        let sorted = sorted_unit_samples(outcomes);
        let summary = LatencySummary::over(policy, outcomes, &sorted);
        (summary, Cdf::from_sorted(sorted))
    }

    /// [`LatencySummary::of`], given the outcomes' unit samples in
    /// ascending order.
    fn over<O: ReplicaOutcome>(
        policy: impl Into<String>,
        outcomes: &[O],
        sorted: &[f64],
    ) -> LatencySummary {
        let units: usize = outcomes.iter().map(O::unit_count).sum();
        let share = |count: fn(&O) -> usize, empty: f64| {
            if units == 0 {
                return empty;
            }
            outcomes.iter().map(count).sum::<usize>() as f64 / units as f64
        };
        let secs = outcomes
            .iter()
            .map(O::replica_makespan)
            .max()
            .unwrap_or(SimDuration::ZERO)
            .as_secs_f64();
        let batches: usize = outcomes.iter().map(|o| o.batch_sizes().len()).sum();
        let batched: u64 = outcomes
            .iter()
            .flat_map(|o| o.batch_sizes())
            .map(|&b| b as u64)
            .sum();
        LatencySummary {
            policy: policy.into(),
            latency_ms: Percentiles::from_sorted(sorted),
            accuracy: share(O::correct_units, 1.0),
            throughput: if secs <= 0.0 {
                0.0
            } else {
                units as f64 / secs
            },
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            slo_violation_rate: share(O::violated_units, 0.0),
            exit_rate: share(O::exited_units, 0.0),
        }
    }

    /// Summarise a classification serving outcome.
    pub fn from_outcome(policy: impl Into<String>, outcome: &ServingOutcome) -> LatencySummary {
        LatencySummary::of(policy, std::slice::from_ref(outcome))
    }

    /// Summarise a generative outcome (latencies are per-token).
    pub fn from_generative(
        policy: impl Into<String>,
        outcome: &GenerativeOutcome,
    ) -> LatencySummary {
        LatencySummary::of(policy, std::slice::from_ref(outcome))
    }
}

/// Every unit sample of `outcomes`, pooled in replica order, then sorted.
fn sorted_unit_samples<O: ReplicaOutcome>(outcomes: &[O]) -> Vec<f64> {
    let mut samples: Vec<f64> = outcomes.iter().flat_map(O::unit_samples_ms).collect();
    sort_samples(&mut samples);
    samples
}

/// Percentage latency wins of a system against a baseline, at the percentiles
/// the paper reports.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LatencyWins {
    /// Win at the 25th percentile (%).
    pub p25: f64,
    /// Win at the median (%).
    pub p50: f64,
    /// Win at the 95th percentile (%); negative values indicate added tail latency.
    pub p95: f64,
    /// Win on the mean (%).
    pub mean: f64,
}

impl LatencyWins {
    /// Compute wins of `system` over `baseline`.
    pub fn of(baseline: &LatencySummary, system: &LatencySummary) -> LatencyWins {
        LatencyWins {
            p25: percent_improvement(baseline.latency_ms.p25, system.latency_ms.p25),
            p50: percent_improvement(baseline.latency_ms.p50, system.latency_ms.p50),
            p95: percent_improvement(baseline.latency_ms.p95, system.latency_ms.p95),
            mean: percent_improvement(baseline.latency_ms.mean, system.latency_ms.mean),
        }
    }
}

/// Latency CDF of an outcome, for CDF-style figures (2, 4, 14, 16).
pub fn latency_cdf(outcome: &ServingOutcome) -> Cdf {
    Cdf::from_samples(&outcome.latencies_ms())
}

/// TPT CDF of a generative outcome.
pub fn tpt_cdf(outcome: &GenerativeOutcome) -> Cdf {
    Cdf::from_samples(&outcome.tpt_ms())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::BatchingPolicy;
    use crate::platform::{ServingConfig, ServingSimulator, VanillaPolicy};
    use crate::traces::ArrivalTrace;
    use apparate_exec::SampleSemantics;
    use apparate_sim::SimDuration;

    fn exec_time(b: u32) -> SimDuration {
        SimDuration::from_millis(10 + 2 * b as u64)
    }

    fn run_once() -> ServingOutcome {
        let trace = ArrivalTrace::fixed_rate(50, 20.0);
        let samples: Vec<SampleSemantics> = (0..50).map(|i| SampleSemantics::new(i, 0.5)).collect();
        let sim = ServingSimulator::new(ServingConfig {
            policy: BatchingPolicy::Immediate,
            slo: None,
        });
        let mut policy = VanillaPolicy::new(exec_time);
        sim.run(&trace, &samples, &mut policy, &exec_time)
    }

    #[test]
    fn summary_reflects_outcome() {
        let outcome = run_once();
        let summary = LatencySummary::from_outcome("vanilla", &outcome);
        assert_eq!(summary.policy, "vanilla");
        assert!(summary.latency_ms.p50 > 0.0);
        assert!(summary.accuracy >= 1.0 - 1e-12);
        assert!(summary.throughput > 0.0);
        assert_eq!(summary.exit_rate, 0.0);
    }

    #[test]
    fn wins_are_zero_against_self_and_positive_against_slower() {
        let outcome = run_once();
        let summary = LatencySummary::from_outcome("vanilla", &outcome);
        let self_wins = LatencyWins::of(&summary, &summary);
        assert!(self_wins.p50.abs() < 1e-9);
        let mut slower = summary.clone();
        slower.latency_ms.p50 *= 2.0;
        slower.latency_ms.p25 *= 2.0;
        let wins = LatencyWins::of(&slower, &summary);
        assert!((wins.p50 - 50.0).abs() < 1e-9);
        assert!((wins.p25 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn one_sort_summarises_and_builds_the_cdf_bit_for_bit() {
        let outcome = run_once();
        let (summary, cdf) = LatencySummary::with_cdf("vanilla", std::slice::from_ref(&outcome));
        let alone = LatencySummary::from_outcome("vanilla", &outcome);
        let p = |s: &LatencySummary| {
            let l = s.latency_ms;
            [l.p25, l.p50, l.p75, l.p95, l.p99, l.mean, l.max].map(f64::to_bits)
        };
        assert_eq!(p(&summary), p(&alone));
        assert_eq!(summary.latency_ms.count, alone.latency_ms.count);
        let bits = |c: &Cdf| {
            c.points()
                .iter()
                .map(|&(v, f)| (v.to_bits(), f.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&cdf), bits(&latency_cdf(&outcome)));
    }

    #[test]
    fn cdf_is_monotone() {
        let outcome = run_once();
        let cdf = latency_cdf(&outcome);
        let points = cdf.points();
        assert!(points
            .windows(2)
            .all(|w| w[0].1 <= w[1].1 && w[0].0 <= w[1].0));
    }
}
