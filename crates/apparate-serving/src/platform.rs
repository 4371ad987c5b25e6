//! The classification serving simulator.
//!
//! A discrete-event loop reproducing the serving pipeline of §2.1: requests
//! arrive according to a trace, wait in a FIFO queue, are drained into batches
//! by a [`BatchingPolicy`], and execute on a (single) simulated GPU. The loop
//! reads arrivals in trace order through a cursor, merged with an
//! [`EventQueue`] that holds only GPU-free and batch-timeout events; an
//! arrival goes first when it ties with one of them. The
//! pluggable [`ExitPolicy`] decides, per batch, when each request's *result*
//! is released and how long the batch holds the GPU — this is the hook through
//! which vanilla serving, Apparate, and every baseline integrate without the
//! platform knowing anything about early exits (mirroring how Apparate "runs
//! directly atop existing serving platforms"). Nor does the platform carry
//! any feedback: a policy with a controller streams its own profiling data
//! from inside the hook.

use crate::batching::{BatchDecision, BatchingPolicy};
use crate::generative::{StepOutcome, TokenPolicy, TokenSlot};
use crate::request::{Request, RequestRecord};
use crate::traces::ArrivalTrace;
use apparate_exec::SampleSemantics;
use apparate_sim::{EventQueue, SimDuration, SimTime};
use apparate_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Window (in completed requests) of the `exit_rate_rolling` telemetry gauge.
const ROLLING_EXIT_WINDOW: usize = 256;

/// Outcome of processing one batch, as reported by an [`ExitPolicy`].
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// How long the batch occupies the GPU (including any ramp overheads).
    pub gpu_time: SimDuration,
    /// Per-request outcomes, parallel to the batch slice passed in.
    pub per_request: Vec<RequestOutcome>,
}

/// Outcome for a single request within a batch.
#[derive(Debug, Clone, Copy)]
pub struct RequestOutcome {
    /// Offset from batch start at which the result is released.
    pub release_offset: SimDuration,
    /// Offset from batch start at which the input finishes the full model.
    pub completion_offset: SimDuration,
    /// Which active ramp (by index) the result exited at, if any.
    pub exit_ramp: Option<usize>,
    /// Whether the released result matches the original model's prediction.
    pub correct: bool,
}

/// A policy that maps batches to outcomes: vanilla serving, Apparate's
/// controller, static early-exit models, cascades, ...
pub trait ExitPolicy {
    /// Process one batch starting at `batch_start`. `batch` holds the requests
    /// in queue order.
    fn process_batch(&mut self, batch: &[Request], batch_start: SimTime) -> BatchOutcome;

    /// Human-readable policy name for reports.
    fn name(&self) -> &str {
        "unnamed"
    }
}

/// Vanilla serving: every input runs the whole original model; the result is
/// released when the batch (or decode step) finishes.
#[derive(Debug, Clone)]
pub struct VanillaPolicy<F>
where
    F: Fn(u32) -> SimDuration,
{
    exec_time: F,
}

impl<F> VanillaPolicy<F>
where
    F: Fn(u32) -> SimDuration,
{
    /// Create a vanilla policy from a batch-size → execution-time function.
    pub fn new(exec_time: F) -> Self {
        VanillaPolicy { exec_time }
    }

    /// Every one of `units` inputs released when the whole model finishes.
    fn release(&self, units: usize) -> BatchOutcome {
        let gpu_time = (self.exec_time)(units as u32);
        let outcome = RequestOutcome {
            release_offset: gpu_time,
            completion_offset: gpu_time,
            exit_ramp: None,
            correct: true,
        };
        BatchOutcome {
            gpu_time,
            per_request: vec![outcome; units],
        }
    }
}

impl<F> ExitPolicy for VanillaPolicy<F>
where
    F: Fn(u32) -> SimDuration,
{
    fn process_batch(&mut self, batch: &[Request], _batch_start: SimTime) -> BatchOutcome {
        self.release(batch.len())
    }

    fn name(&self) -> &str {
        "vanilla"
    }
}

impl<F> TokenPolicy for VanillaPolicy<F>
where
    F: Fn(u32) -> SimDuration,
{
    fn process_step(&mut self, slots: &[TokenSlot], _step_start: SimTime) -> StepOutcome {
        self.release(slots.len()).into()
    }

    fn name(&self) -> &str {
        "vanilla"
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Batching policy.
    pub policy: BatchingPolicy,
    /// SLO attached to every request (None = no SLO).
    pub slo: Option<SimDuration>,
}

impl ServingConfig {
    /// Clockwork-style SLO-aware serving with the given SLO and max batch.
    pub fn clockwork(slo_ms: f64, max_batch_size: u32) -> ServingConfig {
        ServingConfig {
            policy: BatchingPolicy::Clockwork { max_batch_size },
            slo: Some(SimDuration::from_millis_f64(slo_ms)),
        }
    }

    /// TF-Serving-style knob batching.
    pub fn tf_serve(slo_ms: f64, max_batch_size: u32, batch_timeout_ms: f64) -> ServingConfig {
        ServingConfig {
            policy: BatchingPolicy::TfServe {
                max_batch_size,
                batch_timeout: SimDuration::from_millis_f64(batch_timeout_ms),
            },
            slo: Some(SimDuration::from_millis_f64(slo_ms)),
        }
    }
}

/// Aggregate result of one serving run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingOutcome {
    /// Per-request records, in request-id (arrival) order.
    pub records: Vec<RequestRecord>,
    /// Batch sizes actually launched, in launch order.
    pub batch_sizes: Vec<u32>,
    /// Total GPU busy time.
    pub gpu_busy: SimDuration,
    /// Wall-clock span from first arrival to last completion.
    pub makespan: SimDuration,
}

impl ServingOutcome {
    /// Response latencies (release − arrival) in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.latency().as_millis_f64())
            .collect()
    }
}

/// Internal discrete events. Arrivals are not events: the loop reads them
/// from the trace through a cursor.
#[derive(Debug, Clone, Copy)]
enum Event {
    GpuFree,
    TimeoutCheck,
}

/// The serving simulator itself.
pub struct ServingSimulator {
    config: ServingConfig,
    telemetry: Telemetry,
    dispatch_ids: Option<Vec<u64>>,
}

impl ServingSimulator {
    /// Create a simulator with the given configuration.
    pub fn new(config: ServingConfig) -> ServingSimulator {
        ServingSimulator {
            config,
            telemetry: Telemetry::disabled(),
            dispatch_ids: None,
        }
    }

    /// Attach a telemetry handle: runs record `batch-formed` and
    /// `slo-violation` events plus queue-depth / batch-size / rolling
    /// exit-rate series. The default is the zero-cost disabled handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ServingSimulator {
        self.telemetry = telemetry;
        self
    }

    /// Trace a `dispatch` event per arrival, tagged with the given shared
    /// (fleet-global) request ids — one per trace arrival, in trace order.
    /// Fleet runners use this so dispatch events are emitted *inside* the run,
    /// at the arrival's sim time, interleaved with the replica's other events
    /// in sim-time order. No-op without a recording telemetry handle.
    pub fn with_dispatch_ids(mut self, ids: Vec<u64>) -> ServingSimulator {
        self.dispatch_ids = Some(ids);
        self
    }

    /// Run the full trace through the platform with the given exit policy and
    /// batch-time estimator (used by SLO-aware batching decisions; usually the
    /// same function the policy itself uses for GPU time).
    pub fn run(
        &self,
        trace: &ArrivalTrace,
        samples: &[SampleSemantics],
        policy: &mut dyn ExitPolicy,
        estimate_batch_time: &dyn Fn(u32) -> SimDuration,
    ) -> ServingOutcome {
        assert_eq!(
            trace.len(),
            samples.len(),
            "one semantic sample per arrival is required"
        );
        if let Some(ids) = &self.dispatch_ids {
            assert_eq!(
                ids.len(),
                trace.len(),
                "one dispatch id per arrival is required"
            );
        }
        let arrivals = trace.times();
        debug_assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrival times must be non-decreasing"
        );
        let mut next_arrival = 0usize;
        let mut events: EventQueue<Event> = EventQueue::new();
        let mut queue: VecDeque<Request> = VecDeque::new();
        // The launched batch, drained from the queue into one reused buffer.
        let mut batch: Vec<Request> = Vec::new();
        let mut gpu_busy = false;
        let mut records: Vec<RequestRecord> = Vec::with_capacity(arrivals.len());
        let mut batch_sizes: Vec<u32> = Vec::new();
        let mut total_gpu_busy = SimDuration::ZERO;
        let first_arrival = arrivals.first().copied().unwrap_or(SimTime::ZERO);
        let mut last_completion = first_arrival;
        let traced = self.telemetry.is_enabled();
        // Rolling early-exit window behind the `exit_rate_rolling` gauge;
        // only maintained when a recording handle is attached.
        let mut rolling_exits: VecDeque<bool> = VecDeque::new();
        let mut rolling_hits = 0usize;

        loop {
            // An arrival goes before a heap event at the same instant, so a
            // request that arrives as the GPU frees or a batch times out
            // joins the batch launched at that instant.
            let now = match arrivals.get(next_arrival) {
                Some(&at) if events.peek_time().is_none_or(|t| at <= t) => {
                    let i = next_arrival;
                    next_arrival += 1;
                    queue.push_back(Request::classification(
                        i as u64,
                        at,
                        samples[i],
                        self.config.slo,
                    ));
                    if traced {
                        if let Some(ids) = &self.dispatch_ids {
                            let request_id = ids[i];
                            let replica = self.telemetry.replica();
                            self.telemetry.emit(at, || EventKind::Dispatch {
                                request_id,
                                replica,
                            });
                        }
                        self.telemetry.gauge(at, "queue_depth", queue.len() as f64);
                    }
                    at
                }
                _ => match events.pop() {
                    Some((at, Event::GpuFree)) => {
                        gpu_busy = false;
                        at
                    }
                    Some((at, Event::TimeoutCheck)) => at,
                    None => break,
                },
            };
            if gpu_busy {
                continue;
            }
            // GPU is idle: ask the batching policy what to do. The policy
            // reads the queue in place; making the ring contiguous moves
            // entries at most once per wrap, not once per event.
            match self
                .config
                .policy
                .decide(queue.make_contiguous(), now, estimate_batch_time)
            {
                BatchDecision::Idle => {}
                BatchDecision::WaitUntil(at) => {
                    // The heap's own clock lags the loop's (arrivals do not
                    // pass through it), so clamp to the loop's.
                    events.schedule(at.max(now), Event::TimeoutCheck);
                }
                BatchDecision::Launch(size) => {
                    let size = size.min(queue.len() as u32).max(1);
                    batch.clear();
                    batch.extend(queue.drain(..size as usize));
                    let outcome = policy.process_batch(&batch, now);
                    debug_assert_eq!(outcome.per_request.len(), batch.len());
                    batch_sizes.push(size);
                    total_gpu_busy += outcome.gpu_time;
                    if traced {
                        let queue_depth = queue.len();
                        let gpu_us = outcome.gpu_time.as_micros();
                        self.telemetry.emit(now, || EventKind::BatchFormed {
                            size,
                            queue_depth,
                            gpu_us,
                        });
                        self.telemetry.counter("batches", 1);
                        self.telemetry.gauge(now, "queue_depth", queue_depth as f64);
                        self.telemetry.gauge(now, "batch_size", size as f64);
                        self.telemetry.observe("batch_size", size as f64);
                    }
                    for (req, out) in batch.iter().zip(outcome.per_request.iter()) {
                        let released = now + out.release_offset;
                        let completed = now + out.completion_offset;
                        let slo_violated = req.deadline().map(|d| released > d).unwrap_or(false);
                        if traced {
                            if slo_violated {
                                let request_id = req.id;
                                let latency_us = (released - req.arrival).as_micros();
                                let slo_us = self.config.slo.map(|s| s.as_micros()).unwrap_or(0);
                                self.telemetry.emit(released, || EventKind::SloViolation {
                                    request_id,
                                    latency_us,
                                    slo_us,
                                });
                                self.telemetry.counter("slo_violations", 1);
                            }
                            rolling_exits.push_back(out.exit_ramp.is_some());
                            rolling_hits += out.exit_ramp.is_some() as usize;
                            if rolling_exits.len() > ROLLING_EXIT_WINDOW {
                                rolling_hits -= rolling_exits.pop_front().unwrap_or(false) as usize;
                            }
                            self.telemetry.gauge(
                                released,
                                "exit_rate_rolling",
                                rolling_hits as f64 / rolling_exits.len() as f64,
                            );
                        }
                        records.push(RequestRecord {
                            id: req.id,
                            arrival: req.arrival,
                            batch_start: now,
                            batch_size: size,
                            released,
                            completed,
                            exit_ramp: out.exit_ramp,
                            correct: out.correct,
                            slo_violated,
                        });
                        if completed > last_completion {
                            last_completion = completed;
                        }
                    }
                    gpu_busy = true;
                    events.schedule(now + outcome.gpu_time, Event::GpuFree);
                }
            }
        }

        // The queue is FIFO and every batch drains its head, so the records
        // are already in request-id order.
        debug_assert!(records.windows(2).all(|w| w[0].id < w[1].id));
        ServingOutcome {
            records,
            batch_sizes,
            gpu_busy: total_gpu_busy,
            makespan: last_completion - first_arrival,
        }
    }

    /// [`ServingSimulator::run`], ignoring `_feedback`. Kept only for
    /// perfbench's traced rebuild (`perfbench/src/traced.rs`), which only a
    /// benchmark change may edit; delete it with that file.
    pub fn run_with_feedback(
        &self,
        trace: &ArrivalTrace,
        samples: &[SampleSemantics],
        policy: &mut dyn ExitPolicy,
        estimate_batch_time: &dyn Fn(u32) -> SimDuration,
        _feedback: Option<&()>,
    ) -> ServingOutcome {
        self.run(trace, samples, policy, estimate_batch_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LatencySummary;
    use apparate_sim::Percentiles;

    fn samples(n: usize) -> Vec<SampleSemantics> {
        (0..n)
            .map(|i| SampleSemantics::new(i as u64, 0.5))
            .collect()
    }

    /// Execution time model: 10 ms fixed + 2 ms per item.
    fn exec_time(b: u32) -> SimDuration {
        SimDuration::from_millis(10 + 2 * b as u64)
    }

    #[test]
    fn vanilla_immediate_serving_completes_everything() {
        let trace = ArrivalTrace::fixed_rate(50, 20.0);
        let sim = ServingSimulator::new(ServingConfig {
            policy: BatchingPolicy::Immediate,
            slo: None,
        });
        let mut policy = VanillaPolicy::new(exec_time);
        let out = sim.run(&trace, &samples(50), &mut policy, &exec_time);
        assert_eq!(out.records.len(), 50);
        let summary = LatencySummary::from_outcome("vanilla", &out);
        assert!(summary.accuracy >= 1.0 - 1e-12);
        assert_eq!(summary.exit_rate, 0.0);
        assert!(summary.mean_batch_size >= 1.0);
        // Requests arrive every 50 ms and take 12 ms, so no queueing.
        let p = Percentiles::from_samples(&out.latencies_ms());
        assert!((p.p50 - 12.0).abs() < 0.5, "p50 {}", p.p50);
    }

    #[test]
    fn overload_builds_queues_and_bigger_batches_help_throughput() {
        // 200 requests at 100 rps; exec = 10 + 2b ms, so batch-1 capacity is
        // ~83 rps (overloaded) while batch-8 capacity is ~307 rps.
        let trace = ArrivalTrace::fixed_rate(200, 100.0);
        let run = |max_batch: u32| {
            let sim = ServingSimulator::new(ServingConfig {
                policy: BatchingPolicy::TfServe {
                    max_batch_size: max_batch,
                    batch_timeout: SimDuration::from_millis(2),
                },
                slo: None,
            });
            let mut policy = VanillaPolicy::new(exec_time);
            sim.run(&trace, &samples(200), &mut policy, &exec_time)
        };
        let small = run(1);
        let large = run(8);
        let mean_batch =
            |out: &ServingOutcome| LatencySummary::from_outcome("vanilla", out).mean_batch_size;
        assert!(mean_batch(&large) > mean_batch(&small));
        // Larger batches finish the backlog sooner (higher throughput)...
        assert!(large.makespan < small.makespan);
        // ...but the un-queued latency of an individual request is worse than
        // the batch-1 serving time (the tension of Figure 1/2).
        let small_p = Percentiles::from_samples(&small.latencies_ms());
        let large_p = Percentiles::from_samples(&large.latencies_ms());
        // Under overload batch-1 queues grow without bound, so median latency
        // is far worse for the small-batch configuration.
        assert!(small_p.p50 > large_p.p50);
    }

    #[test]
    fn clockwork_respects_slo_when_feasible() {
        let trace = ArrivalTrace::fixed_rate(100, 50.0);
        let sim = ServingSimulator::new(ServingConfig::clockwork(60.0, 16));
        let mut policy = VanillaPolicy::new(exec_time);
        let out = sim.run(&trace, &samples(100), &mut policy, &exec_time);
        assert_eq!(out.records.len(), 100);
        let rate = LatencySummary::from_outcome("vanilla", &out).slo_violation_rate;
        assert!(rate < 0.05, "violation rate {rate}");
    }

    #[test]
    fn gpu_busy_never_exceeds_makespan() {
        let trace = ArrivalTrace::poisson(300, 80.0, 5);
        let sim = ServingSimulator::new(ServingConfig::clockwork(100.0, 8));
        let mut policy = VanillaPolicy::new(exec_time);
        let out = sim.run(&trace, &samples(300), &mut policy, &exec_time);
        assert!(out.gpu_busy <= out.makespan + SimDuration::from_millis(1));
        assert!(LatencySummary::from_outcome("vanilla", &out).throughput > 0.0);
    }

    #[test]
    fn traced_run_records_batches_and_queue_series() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        let trace = ArrivalTrace::poisson(120, 120.0, 7);
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        let sim = ServingSimulator::new(ServingConfig::clockwork(25.0, 8))
            .with_telemetry(telemetry.clone());
        let mut policy = VanillaPolicy::new(exec_time);
        let out = sim.run(&trace, &samples(120), &mut policy, &exec_time);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.count_kind("batch-formed"), out.batch_sizes.len());
        assert_eq!(snap.counter_total("batches"), out.batch_sizes.len() as u64);
        let depth = snap.series_named("queue_depth");
        assert_eq!(depth.len(), 1, "one series on replica 0");
        assert!(!depth[0].points.is_empty());
        // SLO violations in the trace reconcile with the outcome.
        let violated = out.records.iter().filter(|r| r.slo_violated).count();
        assert_eq!(snap.count_kind("slo-violation"), violated);
        // Causality: within the (single) replica, timestamps are monotone.
        let stamps: Vec<u64> = snap.events.iter().map(|e| e.at.as_micros()).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn untraced_run_is_identical_to_traced_run() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        let trace = ArrivalTrace::poisson(100, 80.0, 3);
        let run = |telemetry: Option<Telemetry>| {
            let mut sim = ServingSimulator::new(ServingConfig::clockwork(60.0, 8));
            if let Some(t) = telemetry {
                sim = sim.with_telemetry(t);
            }
            let mut policy = VanillaPolicy::new(exec_time);
            sim.run(&trace, &samples(100), &mut policy, &exec_time)
        };
        let plain = run(None);
        let traced = run(Some(Telemetry::recording(TelemetryConfig::default())));
        assert_eq!(plain.records, traced.records);
        assert_eq!(plain.batch_sizes, traced.batch_sizes);
    }

    /// Events of [`heap_reference`].
    #[derive(Debug, Clone, Copy)]
    enum ReferenceEvent {
        Arrival(usize),
        GpuFree,
        TimeoutCheck,
    }

    /// The serving loop as it stood when every arrival was pre-scheduled into
    /// one `EventQueue` heap ahead of any GPU-free or timeout event, without
    /// telemetry. The cursor loop must match it decision for
    /// decision; it returns the run's records and launched batch sizes.
    fn heap_reference(
        config: &ServingConfig,
        trace: &ArrivalTrace,
        samples: &[SampleSemantics],
        policy: &mut dyn ExitPolicy,
        estimate_batch_time: &dyn Fn(u32) -> SimDuration,
    ) -> (Vec<RequestRecord>, Vec<u32>) {
        let requests: Vec<Request> = trace
            .times()
            .iter()
            .zip(samples)
            .enumerate()
            .map(|(i, (&at, &sem))| Request::classification(i as u64, at, sem, config.slo))
            .collect();
        let mut events = EventQueue::new();
        for (i, req) in requests.iter().enumerate() {
            events.schedule(req.arrival, ReferenceEvent::Arrival(i));
        }
        let mut queue: VecDeque<Request> = VecDeque::new();
        let mut gpu_busy = false;
        let mut records = Vec::new();
        let mut batch_sizes = Vec::new();
        while let Some((now, event)) = events.pop() {
            match event {
                ReferenceEvent::Arrival(i) => queue.push_back(requests[i].clone()),
                ReferenceEvent::GpuFree => gpu_busy = false,
                ReferenceEvent::TimeoutCheck => {}
            }
            if gpu_busy {
                continue;
            }
            match config
                .policy
                .decide(queue.make_contiguous(), now, estimate_batch_time)
            {
                BatchDecision::Idle => {}
                BatchDecision::WaitUntil(at) => events.schedule(at, ReferenceEvent::TimeoutCheck),
                BatchDecision::Launch(size) => {
                    let size = size.min(queue.len() as u32).max(1);
                    let batch: Vec<Request> = queue.drain(..size as usize).collect();
                    let outcome = policy.process_batch(&batch, now);
                    batch_sizes.push(size);
                    for (req, out) in batch.iter().zip(&outcome.per_request) {
                        let released = now + out.release_offset;
                        records.push(RequestRecord {
                            id: req.id,
                            arrival: req.arrival,
                            batch_start: now,
                            batch_size: size,
                            released,
                            completed: now + out.completion_offset,
                            exit_ramp: out.exit_ramp,
                            correct: out.correct,
                            slo_violated: req.deadline().is_some_and(|d| released > d),
                        });
                    }
                    gpu_busy = true;
                    events.schedule(now + outcome.gpu_time, ReferenceEvent::GpuFree);
                }
            }
        }
        records.sort_by_key(|r| r.id);
        (records, batch_sizes)
    }

    /// `trace` with every arrival rounded down to a whole millisecond, so
    /// arrivals tie with the whole-millisecond GPU-free and timeout events.
    fn whole_millis(trace: &ArrivalTrace) -> ArrivalTrace {
        ArrivalTrace::from_times(
            trace
                .times()
                .iter()
                .map(|t| SimTime::from_millis(t.as_micros() / 1000))
                .collect(),
        )
    }

    #[test]
    fn cursor_loop_matches_the_heap_reference_across_policies_traces_and_seeds() {
        let configs = [
            ServingConfig {
                policy: BatchingPolicy::Immediate,
                slo: None,
            },
            ServingConfig::tf_serve(30.0, 4, 2.0),
            ServingConfig {
                policy: BatchingPolicy::TfServe {
                    max_batch_size: 8,
                    batch_timeout: SimDuration::from_millis(5),
                },
                slo: None,
            },
            ServingConfig::clockwork(25.0, 8),
            ServingConfig {
                policy: BatchingPolicy::Clockwork { max_batch_size: 4 },
                slo: None,
            },
        ];
        let n = 300;
        let sems = samples(n);
        for seed in 1..=8u64 {
            // Batch-1 capacity is ~83 rps: the rates run from light load to
            // overload.
            let rate = 40.0 + 15.0 * seed as f64;
            let base = [
                ArrivalTrace::fixed_rate(n, rate),
                ArrivalTrace::poisson(n, rate, seed),
                ArrivalTrace::maf_like(n, rate, seed),
            ];
            for (trace, config) in base
                .iter()
                .flat_map(|t| [t.clone(), whole_millis(t)])
                .flat_map(|t| configs.iter().map(move |c| (t.clone(), c)))
            {
                let label = format!("seed {seed}, {:?}, {} arrivals", config.policy, trace.len());
                let (want_records, want_batches) = heap_reference(
                    config,
                    &trace,
                    &sems,
                    &mut VanillaPolicy::new(exec_time),
                    &exec_time,
                );
                let out = ServingSimulator::new(config.clone()).run(
                    &trace,
                    &sems,
                    &mut VanillaPolicy::new(exec_time),
                    &exec_time,
                );
                assert_eq!(out.batch_sizes, want_batches, "{label}");
                assert_eq!(out.records, want_records, "{label}");
                assert!(
                    out.records
                        .windows(2)
                        .all(|w| w[0].batch_start <= w[1].batch_start),
                    "{label}: batch starts decreased"
                );
                for r in &out.records {
                    assert!(
                        r.arrival <= r.batch_start
                            && r.batch_start <= r.released
                            && r.released <= r.completed,
                        "{label}: request {} is not causal",
                        r.id
                    );
                }
            }
        }
    }

    /// Batch sizes launched for arrivals at `arrivals_ms` under `policy`,
    /// with no SLO and every batch taking 10 ms.
    fn batches_for(policy: BatchingPolicy, arrivals_ms: &[u64]) -> Vec<u32> {
        let ten_ms = |_: u32| SimDuration::from_millis(10);
        let trace = ArrivalTrace::from_times(
            arrivals_ms
                .iter()
                .map(|&ms| SimTime::from_millis(ms))
                .collect(),
        );
        let sim = ServingSimulator::new(ServingConfig { policy, slo: None });
        let mut exit = VanillaPolicy::new(ten_ms);
        sim.run(&trace, &samples(arrivals_ms.len()), &mut exit, &ten_ms)
            .batch_sizes
    }

    #[test]
    fn an_arrival_joins_the_queue_before_a_simultaneous_gpu_free() {
        // The GPU frees at 10 ms, the instant the third request arrives: it
        // must find the second and third requests queued together.
        let policy = BatchingPolicy::Clockwork { max_batch_size: 4 };
        assert_eq!(batches_for(policy, &[0, 5, 10]), vec![1, 2]);
    }

    #[test]
    fn an_arrival_joins_the_queue_before_a_simultaneous_timeout() {
        // The head's 2 ms batch timeout fires the instant the second request
        // arrives: the partial batch must include it.
        let policy = BatchingPolicy::TfServe {
            max_batch_size: 4,
            batch_timeout: SimDuration::from_millis(2),
        };
        assert_eq!(batches_for(policy, &[0, 2]), vec![2]);
    }

    #[test]
    fn vanilla_decode_step_releases_like_a_batch() {
        let sems = samples(6);
        let batch: Vec<Request> = sems
            .iter()
            .enumerate()
            .map(|(i, &s)| Request::classification(i as u64, SimTime::ZERO, s, None))
            .collect();
        let slots: Vec<TokenSlot> = sems
            .iter()
            .enumerate()
            .map(|(i, &semantics)| TokenSlot {
                request_id: i as u64,
                token_index: 0,
                semantics,
            })
            .collect();
        let batch_out = VanillaPolicy::new(exec_time).process_batch(&batch, SimTime::ZERO);
        let step_out = VanillaPolicy::new(exec_time).process_step(&slots, SimTime::ZERO);
        assert_eq!(step_out.per_token.len(), batch_out.per_request.len());
        for (token, result) in step_out.per_token.iter().zip(&batch_out.per_request) {
            assert_eq!(token.release_offset, result.release_offset);
            assert_eq!(token.exit_ramp, result.exit_ramp);
            assert_eq!(token.correct, result.correct);
        }
        let slowest = batch_out.per_request.iter().map(|o| o.release_offset).max();
        assert_eq!(Some(step_out.gpu_time), slowest);
        assert_eq!(step_out.gpu_time, exec_time(6));
    }

    #[test]
    fn records_are_in_request_order_and_causal() {
        let trace = ArrivalTrace::poisson(100, 60.0, 9);
        let sim = ServingSimulator::new(ServingConfig::clockwork(80.0, 4));
        let mut policy = VanillaPolicy::new(exec_time);
        let out = sim.run(&trace, &samples(100), &mut policy, &exec_time);
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.batch_start >= r.arrival);
            assert!(r.released >= r.batch_start);
            assert!(r.completed >= r.released);
        }
    }
}
