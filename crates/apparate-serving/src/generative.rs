//! Continuous-batching simulator for generative (auto-regressive) serving.
//!
//! Generative platforms (vLLM, Orca, HuggingFace Pipelines) use *continuous
//! batching*: every decode step batches all currently active sequences; as a
//! sequence finishes, a queued request immediately takes its slot (§2.1). The
//! paper's generative latency metric is the time-per-token (TPT) distribution.
//!
//! Exactly as with classification serving, the early-exit behaviour is
//! injected through a policy trait ([`TokenPolicy`]): vanilla serving releases
//! each token when the decode step finishes, Apparate releases it when its
//! ramp exits (while parallel-decoding the remaining layers, §3.4), FREE uses
//! one static ramp. Every policy type implements both hooks: a decode step
//! is released by the batch rule and converted with
//! `StepOutcome::from(BatchOutcome)`.

use crate::platform::{BatchOutcome, RequestOutcome, VanillaPolicy};
use crate::request::Request;
use apparate_exec::SampleSemantics;
use apparate_sim::{SimDuration, SimTime};
use apparate_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One sequence's slot in a decode step.
#[derive(Debug, Clone, Copy)]
pub struct TokenSlot {
    /// Owning request.
    pub request_id: u64,
    /// Index of the token being generated (0-based).
    pub token_index: u32,
    /// Semantics of this token (difficulty etc.).
    pub semantics: SampleSemantics,
}

/// Outcome of one token within a decode step.
#[derive(Debug, Clone, Copy)]
pub struct TokenOutcome {
    /// Offset from step start at which the token is released to the client.
    pub release_offset: SimDuration,
    /// Ramp index the token exited at, if any.
    pub exit_ramp: Option<usize>,
    /// Whether the released token matches what the original model would emit.
    pub correct: bool,
}

impl From<RequestOutcome> for TokenOutcome {
    /// A token is released by the same rule as a classification result; its
    /// completion offset is dropped because the non-exited suffix layers are
    /// parallel-decoded and never gate the token (§3.4).
    fn from(outcome: RequestOutcome) -> TokenOutcome {
        TokenOutcome {
            release_offset: outcome.release_offset,
            exit_ramp: outcome.exit_ramp,
            correct: outcome.correct,
        }
    }
}

/// Outcome of one decode step.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// GPU time the step occupies (all sequences advance together).
    pub gpu_time: SimDuration,
    /// Per-token outcomes, parallel to the slots passed in.
    pub per_token: Vec<TokenOutcome>,
}

impl From<BatchOutcome> for StepOutcome {
    /// A decode step released by the classification rule: each token takes
    /// its result's release, and the step advances once its slowest token
    /// has released. §3.4's parallel decoding lets the non-exited suffix
    /// layers, needed only to materialise KV state, overlap the following
    /// steps, so they do not gate the next token; a token that never exits
    /// releases at the full decoder pass and holds the step for it.
    fn from(batch: BatchOutcome) -> StepOutcome {
        let per_token: Vec<TokenOutcome> = batch.per_request.into_iter().map(Into::into).collect();
        StepOutcome {
            gpu_time: per_token
                .iter()
                .map(|t| t.release_offset)
                .fold(SimDuration::ZERO, SimDuration::max),
            per_token,
        }
    }
}

/// Policy deciding token release times within each decode step.
pub trait TokenPolicy {
    /// Process one decode step over the given slots.
    fn process_step(&mut self, slots: &[TokenSlot], step_start: SimTime) -> StepOutcome;

    /// Policy name for reports.
    fn name(&self) -> &str {
        "unnamed"
    }
}

/// Vanilla generative serving: [`VanillaPolicy`] over a batch-size →
/// decode-step-time function releases each token when its step completes.
pub type VanillaTokenPolicy<F> = VanillaPolicy<F>;

/// Record of one emitted token.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TokenRecord {
    /// Owning request.
    pub request_id: u64,
    /// Token index within the request.
    pub token_index: u32,
    /// Release time.
    pub released: SimTime,
    /// Time-per-token: interval since the previous token of the same request
    /// (or since the request joined the running batch, for its first token).
    pub tpt: SimDuration,
    /// Exit ramp, if any.
    pub exit_ramp: Option<usize>,
    /// Agreement with the original model.
    pub correct: bool,
    /// Whether this token's inter-token time exceeded the configured TBT SLO
    /// (always `false` when the run has no [`ContinuousBatchingConfig::tbt_slo`]).
    pub slo_violated: bool,
}

/// Aggregate result of one generative serving run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenerativeOutcome {
    /// Every emitted token.
    pub tokens: Vec<TokenRecord>,
    /// Number of completed requests.
    pub completed_requests: usize,
    /// Total wall-clock span.
    pub makespan: SimDuration,
    /// Total GPU busy time.
    pub gpu_busy: SimDuration,
    /// Decode-step batch sizes.
    pub batch_sizes: Vec<u32>,
}

impl GenerativeOutcome {
    /// Time-per-token values in milliseconds.
    pub fn tpt_ms(&self) -> Vec<f64> {
        self.tokens.iter().map(|t| t.tpt.as_millis_f64()).collect()
    }
}

/// Configuration of the continuous-batching loop.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ContinuousBatchingConfig {
    /// Maximum number of sequences decoded together.
    pub max_batch_size: u32,
    /// Time-between-tokens SLO: a token whose inter-token interval exceeds
    /// this is an SLO violation (the generative analogue of the per-request
    /// response SLO, §2.1). `None` disables violation accounting.
    pub tbt_slo: Option<SimDuration>,
}

impl Default for ContinuousBatchingConfig {
    fn default() -> Self {
        ContinuousBatchingConfig {
            max_batch_size: 16,
            tbt_slo: None,
        }
    }
}

/// Per-sequence token semantics provider: given (request id, token index),
/// return the semantics of that token. Token difficulties are correlated
/// within a sequence (auto-regressive continuity, §4.3).
pub trait TokenSemantics {
    /// Semantics of token `token_index` of request `request_id`.
    fn token(&self, request_id: u64, token_index: u32) -> SampleSemantics;
}

/// The continuous-batching generative simulator.
pub struct GenerativeSimulator {
    config: ContinuousBatchingConfig,
    telemetry: Telemetry,
    dispatch_events: bool,
}

#[derive(Debug, Clone)]
struct ActiveSequence {
    request_id: u64,
    next_token: u32,
    total_tokens: u32,
    last_release: SimTime,
}

impl GenerativeSimulator {
    /// Create a simulator.
    pub fn new(config: ContinuousBatchingConfig) -> GenerativeSimulator {
        GenerativeSimulator {
            config,
            telemetry: Telemetry::disabled(),
            dispatch_events: false,
        }
    }

    /// Attach a telemetry handle: decode steps record `batch-formed` events
    /// plus batch-size / pending-queue series, and TBT-SLO violations record
    /// `slo-violation` events. The default is the zero-cost disabled handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> GenerativeSimulator {
        self.telemetry = telemetry;
        self
    }

    /// Trace a `dispatch` event per request, stamped at its arrival time and
    /// emitted when the sequence is admitted into the continuous batch. Fleet
    /// runners enable this so dispatch events are produced *inside* the run,
    /// interleaved with decode events in sim-time order (requests carry their
    /// fleet-global ids already). No-op without a recording telemetry handle.
    pub fn with_dispatch_events(mut self) -> GenerativeSimulator {
        self.dispatch_events = true;
        self
    }

    /// Run the generative workload.
    pub fn run(
        &self,
        requests: &[Request],
        semantics: &dyn TokenSemantics,
        policy: &mut dyn TokenPolicy,
    ) -> GenerativeOutcome {
        let mut pending: VecDeque<&Request> = {
            let mut sorted: Vec<&Request> = requests.iter().collect();
            sorted.sort_by_key(|r| r.arrival);
            sorted.into_iter().collect()
        };
        let mut active: Vec<ActiveSequence> = Vec::new();
        // Reused across decode steps: the slot staging buffer would otherwise
        // be a fresh allocation per step (the hottest loop in the simulator).
        let mut slots: Vec<TokenSlot> = Vec::new();
        // Every sequence emits exactly `max(output_tokens, 1)` records.
        let mut tokens: Vec<TokenRecord> = Vec::with_capacity(
            requests
                .iter()
                .map(|r| r.output_tokens.max(1) as usize)
                .sum(),
        );
        let mut batch_sizes: Vec<u32> = Vec::new();
        let mut gpu_busy = SimDuration::ZERO;
        let first_arrival = pending.front().map(|r| r.arrival).unwrap_or(SimTime::ZERO);
        let mut now = first_arrival;
        let mut completed = 0usize;

        loop {
            // Admit pending requests that have arrived, up to the batch cap.
            while active.len() < self.config.max_batch_size as usize {
                match pending.front() {
                    Some(r) if r.arrival <= now => {
                        let r = pending.pop_front().expect("peeked");
                        if self.dispatch_events && self.telemetry.is_enabled() {
                            let request_id = r.id;
                            let replica = self.telemetry.replica();
                            self.telemetry.emit(r.arrival, || EventKind::Dispatch {
                                request_id,
                                replica,
                            });
                        }
                        active.push(ActiveSequence {
                            request_id: r.id,
                            next_token: 0,
                            total_tokens: r.output_tokens.max(1),
                            last_release: now.max(r.arrival),
                        });
                    }
                    _ => break,
                }
            }
            if active.is_empty() {
                match pending.front() {
                    // Jump to the next arrival.
                    Some(r) => {
                        now = r.arrival;
                        continue;
                    }
                    None => break,
                }
            }
            // One decode step over all active sequences.
            slots.clear();
            slots.extend(active.iter().map(|s| TokenSlot {
                request_id: s.request_id,
                token_index: s.next_token,
                semantics: semantics.token(s.request_id, s.next_token),
            }));
            batch_sizes.push(slots.len() as u32);
            let outcome = policy.process_step(&slots, now);
            debug_assert_eq!(outcome.per_token.len(), slots.len());
            gpu_busy += outcome.gpu_time;
            let traced = self.telemetry.is_enabled();
            if traced {
                let size = slots.len() as u32;
                let queue_depth = pending.len();
                let gpu_us = outcome.gpu_time.as_micros();
                self.telemetry.emit(now, || EventKind::BatchFormed {
                    size,
                    queue_depth,
                    gpu_us,
                });
                self.telemetry.counter("decode_steps", 1);
                self.telemetry.gauge(now, "gen_batch_size", size as f64);
                self.telemetry.gauge(now, "gen_pending", queue_depth as f64);
                self.telemetry.observe("gen_batch_size", size as f64);
            }
            for (seq, out) in active.iter_mut().zip(outcome.per_token.iter()) {
                let released = now + out.release_offset;
                let tpt = released - seq.last_release;
                let slo_violated = self.config.tbt_slo.map(|slo| tpt > slo).unwrap_or(false);
                if traced && slo_violated {
                    let request_id = seq.request_id;
                    let latency_us = tpt.as_micros();
                    let slo_us = self.config.tbt_slo.map(|s| s.as_micros()).unwrap_or(0);
                    self.telemetry.emit(released, || EventKind::SloViolation {
                        request_id,
                        latency_us,
                        slo_us,
                    });
                    self.telemetry.counter("slo_violations", 1);
                }
                tokens.push(TokenRecord {
                    request_id: seq.request_id,
                    token_index: seq.next_token,
                    released,
                    tpt,
                    exit_ramp: out.exit_ramp,
                    correct: out.correct,
                    slo_violated,
                });
                seq.last_release = released;
                seq.next_token += 1;
            }
            now += outcome.gpu_time;
            // Retire finished sequences; their slots are immediately reusable.
            let before = active.len();
            active.retain(|s| s.next_token < s.total_tokens);
            completed += before - active.len();
            if active.is_empty() && pending.is_empty() {
                break;
            }
        }

        GenerativeOutcome {
            tokens,
            completed_requests: completed,
            makespan: now - first_arrival,
            gpu_busy,
            batch_sizes,
        }
    }

    /// [`GenerativeSimulator::run`], ignoring `_feedback`. Kept only for
    /// perfbench's traced rebuild (`perfbench/src/traced.rs`), which only a
    /// benchmark change may edit; delete it with that file.
    pub fn run_with_feedback(
        &self,
        requests: &[Request],
        semantics: &dyn TokenSemantics,
        policy: &mut dyn TokenPolicy,
        _feedback: Option<&()>,
    ) -> GenerativeOutcome {
        self.run(requests, semantics, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LatencySummary;
    use crate::traces::ArrivalTrace;

    struct UniformTokens;
    impl TokenSemantics for UniformTokens {
        fn token(&self, request_id: u64, token_index: u32) -> SampleSemantics {
            SampleSemantics::new(request_id * 10_000 + token_index as u64, 0.4)
        }
    }

    fn decode_time(b: u32) -> SimDuration {
        SimDuration::from_micros(10_000 + 1_500 * b as u64)
    }

    fn make_requests(n: usize, tokens_each: u32, rate: f64) -> Vec<Request> {
        let trace = ArrivalTrace::poisson(n, rate, 3);
        trace
            .times()
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                Request::generative(
                    i as u64,
                    at,
                    SampleSemantics::new(i as u64, 0.4),
                    tokens_each,
                )
            })
            .collect()
    }

    #[test]
    fn all_tokens_are_generated() {
        let requests = make_requests(10, 20, 5.0);
        let sim = GenerativeSimulator::new(ContinuousBatchingConfig {
            max_batch_size: 4,
            tbt_slo: None,
        });
        let mut policy = VanillaTokenPolicy::new(decode_time);
        let out = sim.run(&requests, &UniformTokens, &mut policy);
        assert_eq!(out.tokens.len(), 10 * 20);
        assert_eq!(out.completed_requests, 10);
        let summary = LatencySummary::from_generative("vanilla", &out);
        assert!(summary.accuracy >= 1.0 - 1e-12);
        assert_eq!(summary.exit_rate, 0.0);
    }

    #[test]
    fn token_indices_are_contiguous_per_request() {
        let requests = make_requests(5, 15, 10.0);
        let sim = GenerativeSimulator::new(ContinuousBatchingConfig {
            max_batch_size: 8,
            tbt_slo: None,
        });
        let mut policy = VanillaTokenPolicy::new(decode_time);
        let out = sim.run(&requests, &UniformTokens, &mut policy);
        for r in 0..5u64 {
            let mut indices: Vec<u32> = out
                .tokens
                .iter()
                .filter(|t| t.request_id == r)
                .map(|t| t.token_index)
                .collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..15).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn saturated_serving_fills_the_batch() {
        // Arrival rate far above service capacity keeps the continuous batch full.
        let requests = make_requests(40, 30, 1_000.0);
        let sim = GenerativeSimulator::new(ContinuousBatchingConfig {
            max_batch_size: 8,
            tbt_slo: None,
        });
        let mut policy = VanillaTokenPolicy::new(decode_time);
        let out = sim.run(&requests, &UniformTokens, &mut policy);
        let mean_batch = LatencySummary::from_generative("vanilla", &out).mean_batch_size;
        assert!(mean_batch > 7.0, "mean batch {mean_batch}");
    }

    #[test]
    fn tpt_equals_step_time_for_vanilla_steady_state() {
        let requests = make_requests(4, 50, 1_000.0);
        let sim = GenerativeSimulator::new(ContinuousBatchingConfig {
            max_batch_size: 4,
            tbt_slo: None,
        });
        let mut policy = VanillaTokenPolicy::new(decode_time);
        let out = sim.run(&requests, &UniformTokens, &mut policy);
        // Once all four sequences are admitted (and before any retires), every
        // TPT equals the batch-4 step time; during ramp-up/drain the batch is
        // smaller, so TPT is bounded by the batch-1 and batch-4 step times.
        let step4 = decode_time(4).as_millis_f64();
        let step1 = decode_time(1).as_millis_f64();
        let later_tpts: Vec<f64> = out
            .tokens
            .iter()
            .filter(|t| t.token_index > 0)
            .map(|t| t.tpt.as_millis_f64())
            .collect();
        assert!(!later_tpts.is_empty());
        let full_batch = later_tpts
            .iter()
            .filter(|&&tpt| (tpt - step4).abs() < 0.5)
            .count();
        assert!(
            full_batch as f64 / later_tpts.len() as f64 > 0.8,
            "most steady-state TPTs should equal the full-batch step time"
        );
        for tpt in later_tpts {
            assert!(
                tpt >= step1 - 0.5 && tpt <= step4 + 0.5,
                "tpt {tpt} outside [{step1}, {step4}]"
            );
        }
    }

    #[test]
    fn makespan_and_throughput_are_positive() {
        let requests = make_requests(8, 10, 20.0);
        let sim = GenerativeSimulator::new(ContinuousBatchingConfig::default());
        let mut policy = VanillaTokenPolicy::new(decode_time);
        let out = sim.run(&requests, &UniformTokens, &mut policy);
        assert!(out.makespan > SimDuration::ZERO);
        assert!(LatencySummary::from_generative("vanilla", &out).throughput > 0.0);
        assert!(out.gpu_busy <= out.makespan);
    }

    #[test]
    fn tbt_slo_violations_are_counted() {
        let requests = make_requests(8, 20, 1_000.0);
        // Full batch-8 steps take 22 ms; a 15 ms TBT SLO is violated by every
        // full-batch token but met during ramp-up/drain at small batch sizes.
        let run = |tbt_slo: Option<SimDuration>| {
            let sim = GenerativeSimulator::new(ContinuousBatchingConfig {
                max_batch_size: 8,
                tbt_slo,
            });
            let mut policy = VanillaTokenPolicy::new(decode_time);
            sim.run(&requests, &UniformTokens, &mut policy)
        };
        let rate = |out: &GenerativeOutcome| {
            LatencySummary::from_generative("vanilla", out).slo_violation_rate
        };
        let without = run(None);
        assert_eq!(rate(&without), 0.0);
        let strict = run(Some(SimDuration::from_millis(15)));
        assert!(rate(&strict) > 0.5, "rate {}", rate(&strict));
        let generous = run(Some(SimDuration::from_millis(60)));
        assert_eq!(rate(&generous), 0.0);
        // The SLO accounting must not perturb the simulated schedule.
        assert_eq!(without.batch_sizes, strict.batch_sizes);
        assert_eq!(without.makespan, strict.makespan);
    }

    #[test]
    fn traced_generative_run_records_steps_and_violations() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        let requests = make_requests(8, 20, 1_000.0);
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        let sim = GenerativeSimulator::new(ContinuousBatchingConfig {
            max_batch_size: 8,
            tbt_slo: Some(SimDuration::from_millis(15)),
        })
        .with_telemetry(telemetry.clone());
        let mut policy = VanillaTokenPolicy::new(decode_time);
        let out = sim.run(&requests, &UniformTokens, &mut policy);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.count_kind("batch-formed"), out.batch_sizes.len());
        assert_eq!(
            snap.count_kind("slo-violation"),
            out.tokens.iter().filter(|t| t.slo_violated).count()
        );
        assert!(!snap.series_named("gen_batch_size").is_empty());
    }
}
