//! Streaming ingest with SLO-driven admission control.
//!
//! Everything upstream of this module replays a pre-materialised
//! [`ArrivalTrace`]: the whole trace is known before the first request is
//! dispatched. A real front end sees arrivals one at a time, and under
//! overload it must decide *per arrival* whether to admit, pace or shed —
//! before knowing anything about the future. This module is that front end:
//!
//! * [`IncrementalDispatcher`] — the one dispatch rule: one round-robin /
//!   least-loaded decision per offered arrival.
//!   [`shard_arrivals`](crate::fleet::shard_arrivals) /
//!   [`shard_requests`](crate::fleet::shard_requests) fold over it, so trace
//!   replay and streamed ingest of the same events agree
//!   replica-for-replica.
//! * [`AdmissionController`] — a rate-slew loop in the bark `RateAdjust`
//!   idiom: start/stop hysteresis thresholds on the observed queueing delay
//!   vs. the SLO headroom, a cubic proportional gain, and a hard ±1 % clamp
//!   on the pacing rate. Adjust smoothly, don't oscillate: once the offset
//!   falls inside the stop threshold the loop stops slewing and the pace
//!   snaps back to base, and it does not slew again until the offset exceeds
//!   the (larger) start threshold.
//! * [`stream_arrivals`] — per-replica *bounded* admission queues over a
//!   single-server backlog model, pacing actuation (admitted arrivals are
//!   forwarded no faster than the slewed rate), and load shedding: when the
//!   selected replica's queue is at its bound the request is rejected
//!   outright, which is the paper-faithful alternative to letting queueing
//!   delay blow through the SLO for *every* queued request. Every decision
//!   is logged as an [`AdmissionDecision`] and mirrored into telemetry
//!   (`admission` trace events, `admission_queue_depth` / `admission_pace_ppm`
//!   gauges, `ingest_admitted` / `ingest_shed` counters).
//!
//! The front end is deliberately causal: each decision reads only the
//! current arrival, the front end's own queue model and its static
//! per-request service estimate. With admission disabled it is a pure
//! passthrough: forwarded times equal arrival times and the produced shards
//! are byte-identical to the batch sharding path, which this module's tests
//! pin shard for shard.

use std::collections::VecDeque;

use crate::fleet::FleetDispatch;
use crate::fleet::TraceShard;
use crate::traces::ArrivalTrace;
use apparate_sim::{SimDuration, SimTime};
use apparate_telemetry::{EventKind, Telemetry};

/// Base pacing rate: admitted arrivals are forwarded at the offered rate.
pub const PACE_BASE_PPM: u64 = 1_000_000;
/// Lower pacing clamp: one percent below base (bark's `rate * 99 / 100`).
pub const PACE_MIN_PPM: u64 = PACE_BASE_PPM / 100 * 99;
/// Upper pacing clamp: one percent above base (bark's `rate * 101 / 100`).
pub const PACE_MAX_PPM: u64 = PACE_BASE_PPM / 100 * 101;

/// The fleet's dispatch rule: one decision per offered arrival, shared by the
/// batch sharding path (which folds over it) and streaming ingest.
///
/// [`FleetDispatch::RoundRobin`] assigns offered arrival `i` to replica
/// `i % replicas` — the cursor advances for *every* offered arrival, admitted
/// or shed, because the batch path indexes by stream position. For
/// [`FleetDispatch::LeastLoaded`] the dispatcher models each replica as a
/// single-server queue and picks the replica whose virtual backlog drains
/// first (ties toward the lowest index); the backlog is charged only when the
/// arrival is actually [committed](IncrementalDispatcher::commit) as admitted,
/// because a shed request never reaches the replica.
#[derive(Debug, Clone)]
pub struct IncrementalDispatcher {
    replicas: usize,
    dispatch: FleetDispatch,
    offered: usize,
    backlog: Vec<SimTime>,
}

impl IncrementalDispatcher {
    /// Create a dispatcher over `replicas` replicas. Panics on zero replicas.
    pub fn new(replicas: usize, dispatch: FleetDispatch) -> IncrementalDispatcher {
        assert!(replicas >= 1, "a fleet needs at least one replica");
        IncrementalDispatcher {
            replicas,
            dispatch,
            offered: 0,
            backlog: vec![SimTime::ZERO; replicas],
        }
    }

    /// Arrivals offered so far (admitted and shed).
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// The modelled virtual backlog (finish time) of one replica.
    pub fn backlog(&self, replica: usize) -> SimTime {
        self.backlog[replica]
    }

    /// The replica the *next* offered arrival would be routed to, without
    /// committing anything: `offered % replicas` for round-robin, the
    /// smallest-backlog replica (ties toward the lowest index) for
    /// least-loaded.
    pub fn select(&self) -> usize {
        match self.dispatch {
            FleetDispatch::RoundRobin => self.offered % self.replicas,
            FleetDispatch::LeastLoaded => (0..self.replicas)
                .min_by_key(|&r| (self.backlog[r], r))
                .expect("replicas >= 1"),
        }
    }

    /// Commit the arrival just [selected](IncrementalDispatcher::select):
    /// advance the round-robin cursor and, when the arrival was admitted,
    /// charge the replica's modelled backlog by `service`
    /// (`backlog = max(backlog, at) + service`).
    pub fn commit(&mut self, replica: usize, at: SimTime, service: SimDuration, admitted: bool) {
        self.offered += 1;
        if admitted {
            self.backlog[replica] = self.backlog[replica].max(at) + service;
        }
    }
}

/// The bark `RateAdjust` slew loop, transplanted from audio-clock offsets to
/// queueing-delay offsets: hysteresis start/stop thresholds, a cubic
/// proportional gain, and a hard ±1 % clamp on the resulting pacing rate.
///
/// The controller observes one signed offset per arrival — the modelled
/// queueing delay minus the SLO headroom, in microseconds; positive means the
/// replica is falling behind. While the offset magnitude stays inside the
/// stop threshold the loop is inert and the pace sits at
/// [`PACE_BASE_PPM`]; it only starts slewing once the magnitude exceeds the
/// (strictly larger) start threshold, and once slewing it keeps adjusting
/// down to the stop threshold. That gap is what prevents oscillation around
/// a single cutoff — the property suite asserts no two opposite-direction
/// nudges ever occur inside the stop band.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    start_slew: SimDuration,
    stop_slew: SimDuration,
    slew: bool,
    pace_ppm: u64,
}

impl AdmissionController {
    /// Create a controller with the given hysteresis thresholds. Panics
    /// unless `start_slew > stop_slew` (equal thresholds would degenerate to
    /// a single oscillation-prone cutoff).
    pub fn new(start_slew: SimDuration, stop_slew: SimDuration) -> AdmissionController {
        assert!(
            start_slew > stop_slew,
            "hysteresis requires start_slew > stop_slew"
        );
        AdmissionController {
            start_slew,
            stop_slew,
            slew: false,
            pace_ppm: PACE_BASE_PPM,
        }
    }

    /// Current pacing rate in parts-per-million of the offered arrival rate.
    pub fn pace_ppm(&self) -> u64 {
        self.pace_ppm
    }

    /// Whether the loop is currently slewing.
    pub fn is_slewing(&self) -> bool {
        self.slew
    }

    /// Stop-slew hysteresis threshold (the inner band).
    pub fn stop_slew(&self) -> SimDuration {
        self.stop_slew
    }

    /// One control tick. `offset_us` is the observed queueing delay minus the
    /// SLO headroom (positive = behind SLO). Returns the signed nudge the
    /// tick applied, as the new pace's offset from [`PACE_BASE_PPM`] in ppm —
    /// `None` when the loop did not slew (inside the stop band, or inside the
    /// start band while not already slewing).
    pub fn observe(&mut self, offset_us: i64) -> Option<i64> {
        let magnitude = offset_us.unsigned_abs();
        if magnitude < self.stop_slew.as_micros() {
            // Close enough: stop slewing and snap back to the base rate
            // (bark returns `None` here and the consumer reverts to base).
            self.slew = false;
            self.pace_ppm = PACE_BASE_PPM;
            return None;
        }
        if magnitude < self.start_slew.as_micros() && !self.slew {
            return None;
        }
        // Cubic proportional gain (bark's `offset.pow(3) / 48`), computed on
        // the offset in milliseconds and magnitude-clamped first so extreme
        // backlogs saturate the clamp instead of overflowing. Positive offset
        // (behind SLO) paces *down*.
        let off_ms = (offset_us / 1_000).clamp(-100, 100) as i128;
        let gain_ppm = off_ms.pow(3) / 48;
        let pace = (PACE_BASE_PPM as i128 - gain_ppm)
            .clamp(PACE_MIN_PPM as i128, PACE_MAX_PPM as i128) as u64;
        self.slew = true;
        self.pace_ppm = pace;
        Some(pace as i64 - PACE_BASE_PPM as i64)
    }
}

/// Configuration of the admission/pacing layer of [`stream_arrivals`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Per-replica admission-queue bound: an arrival whose selected replica
    /// already holds this many queued requests is shed.
    pub queue_bound: usize,
    /// The response-time SLO admission defends. The controller's headroom is
    /// `slo - service_estimate`: delay beyond it cannot be served in time.
    pub slo: SimDuration,
    /// Hysteresis threshold that *starts* a slew (|offset| must exceed it).
    pub start_slew: SimDuration,
    /// Hysteresis threshold that *stops* a slew (|offset| inside it).
    pub stop_slew: SimDuration,
}

impl AdmissionConfig {
    /// Default thresholds for an SLO: slew on offsets beyond half the SLO,
    /// stop once inside a tenth of it — the same ×5 start/stop spread bark
    /// uses (500 µs / 100 µs).
    pub fn for_slo(slo: SimDuration, queue_bound: usize) -> AdmissionConfig {
        AdmissionConfig {
            queue_bound,
            slo,
            start_slew: slo / 2,
            stop_slew: slo / 10,
        }
    }
}

/// One logged front-end decision: where the arrival went (or why it didn't),
/// and the control state that produced the decision. The property suite
/// replays these against a reference model of the documented queue semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionDecision {
    /// Position of the arrival in the offered stream.
    pub index: usize,
    /// Original arrival time.
    pub at: SimTime,
    /// Pacing-forwarded arrival time (`at` when admission is disabled).
    pub forwarded_at: SimTime,
    /// Replica the dispatcher selected.
    pub replica: usize,
    /// Selected replica's admission-queue depth *before* this arrival was
    /// enqueued (expired entries already drained).
    pub queue_depth: usize,
    /// Modelled queueing delay on the selected replica, µs.
    pub delay_us: u64,
    /// Controller input: delay minus SLO headroom, µs (0 when admission is
    /// disabled).
    pub offset_us: i64,
    /// Pacing rate in force after this tick, ppm.
    pub pace_ppm: u64,
    /// The slew nudge this tick applied (pace offset from base, ppm), if the
    /// controller slewed.
    pub nudge_ppm: Option<i64>,
    /// Whether the arrival was admitted (false = shed).
    pub admitted: bool,
}

/// Aggregate counters over one streamed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Arrivals offered to the front end.
    pub offered: usize,
    /// Arrivals admitted to a replica queue.
    pub admitted: usize,
    /// Arrivals shed at the queue bound.
    pub shed: usize,
    /// Largest admission-queue depth observed (after enqueue).
    pub max_depth: usize,
    /// Control ticks that slewed the pace.
    pub nudges: usize,
    /// Smallest pace the controller reached, ppm.
    pub min_pace_ppm: u64,
    /// Largest pace the controller reached, ppm.
    pub max_pace_ppm: u64,
}

impl IngestStats {
    fn new() -> IngestStats {
        IngestStats {
            offered: 0,
            admitted: 0,
            shed: 0,
            max_depth: 0,
            nudges: 0,
            min_pace_ppm: PACE_BASE_PPM,
            max_pace_ppm: PACE_BASE_PPM,
        }
    }

    /// Fraction of offered arrivals shed.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }
}

/// Count hysteresis oscillations in a decision log: adjacent pairs of
/// opposite-direction pace nudges where either tick's offset magnitude was
/// already inside the stop threshold. The hysteresis gap makes this
/// impossible by construction — a nudge requires `|offset| >= stop_slew` —
/// and the property suite pins the count at zero across every tested seed.
pub fn count_oscillations(decisions: &[AdmissionDecision], stop_slew: SimDuration) -> usize {
    let stop = stop_slew.as_micros();
    let mut oscillations = 0usize;
    let mut prev: Option<(i64, u64)> = None; // (signed nudge, |offset|)
    for d in decisions {
        if let Some(nudge) = d.nudge_ppm {
            if nudge == 0 {
                continue;
            }
            let magnitude = d.offset_us.unsigned_abs();
            if let Some((prev_nudge, prev_magnitude)) = prev {
                let opposite = (nudge > 0) != (prev_nudge > 0);
                if opposite && (magnitude < stop || prev_magnitude < stop) {
                    oscillations += 1;
                }
            }
            prev = Some((nudge, magnitude));
        }
    }
    oscillations
}

/// Everything [`stream_arrivals`] produced: the admitted per-replica shards
/// (forwarded arrival times, original stream indices), the full decision log,
/// and the aggregate counters.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// One shard per replica: admitted arrivals at their *forwarded* times,
    /// `indices` pointing back into the offered stream. With admission
    /// disabled these are identical to the batch sharding path's output.
    pub shards: Vec<TraceShard>,
    /// Per-arrival decision log, in offer order.
    pub decisions: Vec<AdmissionDecision>,
    /// Aggregate counters.
    pub stats: IngestStats,
    /// The stop-slew threshold the front end ran with (for oscillation
    /// counting); `None` when admission was disabled.
    pub stop_slew: Option<SimDuration>,
}

impl IngestOutcome {
    /// Hysteresis oscillations in this decision log (see
    /// [`count_oscillations`]); zero when admission was disabled.
    pub fn oscillations(&self) -> usize {
        match self.stop_slew {
            Some(stop) => count_oscillations(&self.decisions, stop),
            None => 0,
        }
    }
}

/// Admission-layer state of the front end (absent = passthrough streaming).
#[derive(Debug)]
struct AdmissionState {
    config: AdmissionConfig,
    controller: AdmissionController,
    /// Per-replica queues of modelled request finish times.
    queues: Vec<VecDeque<SimTime>>,
    prev_at: Option<SimTime>,
    prev_fwd: SimTime,
}

/// Stream a whole arrival trace through the front end, one arrival at a time
/// (no knowledge of the future): dispatch each incrementally across
/// `replicas` replicas and, when `admission` is `Some`, pace and shed to
/// defend the SLO. Every arrival is charged `service_estimate`, the
/// dispatcher's per-request service-time estimate — the same coarse batch-1
/// execution time the batch sharding path uses. Without admission the front
/// end is a pure passthrough whose shards match the batch path byte for
/// byte. When `telemetry` is enabled, per-decision `admission` events and
/// queue-depth gauges land in the selected replica's buffer (derived via
/// [`Telemetry::for_replica`]), pace gauges and admitted/shed counters on
/// `telemetry` itself. See the [module docs](self) for the model.
pub fn stream_arrivals(
    trace: &ArrivalTrace,
    replicas: usize,
    dispatch: FleetDispatch,
    service_estimate: SimDuration,
    admission: Option<AdmissionConfig>,
    telemetry: &Telemetry,
) -> IngestOutcome {
    let mut dispatcher = IncrementalDispatcher::new(replicas, dispatch);
    let mut admission = admission.map(|config| AdmissionState {
        config,
        controller: AdmissionController::new(config.start_slew, config.stop_slew),
        queues: vec![VecDeque::new(); replicas],
        prev_at: None,
        prev_fwd: SimTime::ZERO,
    });
    let replica_telemetry: Vec<Telemetry> = if telemetry.is_enabled() {
        (0..replicas)
            .map(|r| telemetry.for_replica(r as u32))
            .collect()
    } else {
        Vec::new()
    };
    let mut times = vec![Vec::new(); replicas];
    let mut indices = vec![Vec::new(); replicas];
    let mut decisions = Vec::new();
    let mut stats = IngestStats::new();
    for &at in trace.times() {
        let index = dispatcher.offered();
        let decision = match &mut admission {
            None => {
                // Passthrough: the batch sharding path, one event at a time.
                let replica = dispatcher.select();
                dispatcher.commit(replica, at, service_estimate, true);
                AdmissionDecision {
                    index,
                    at,
                    forwarded_at: at,
                    replica,
                    queue_depth: 0,
                    delay_us: 0,
                    offset_us: 0,
                    pace_ppm: PACE_BASE_PPM,
                    nudge_ppm: None,
                    admitted: true,
                }
            }
            Some(admission) => {
                // Pacing actuation: stretch the offered inter-arrival gap by
                // base/pace (pace below base ⇒ wider gaps ⇒ slower admission),
                // never forwarding before the arrival actually happened. The
                // pace applied here is the one the *previous* tick set.
                let pace = admission.controller.pace_ppm();
                let gap = match admission.prev_at {
                    Some(prev) => at.saturating_since(prev),
                    None => SimDuration::ZERO,
                };
                let paced_gap_us =
                    (gap.as_micros() as u128 * PACE_BASE_PPM as u128 / pace as u128) as u64;
                let forwarded_at = if admission.prev_at.is_some() {
                    at.max(admission.prev_fwd + SimDuration::from_micros(paced_gap_us))
                } else {
                    at
                };
                admission.prev_at = Some(at);
                admission.prev_fwd = forwarded_at;

                // Drain requests whose modelled service finished by now.
                for queue in &mut admission.queues {
                    while queue.front().is_some_and(|&finish| finish <= forwarded_at) {
                        queue.pop_front();
                    }
                }

                let replica = dispatcher.select();
                let delay_us = dispatcher
                    .backlog(replica)
                    .saturating_since(forwarded_at)
                    .as_micros();
                // SLO headroom: how much queueing delay a request can absorb
                // and still be served inside the SLO, under the static
                // service estimate.
                let service_us = service_estimate.as_micros() as f64;
                let headroom_us = (admission.config.slo.as_micros() as f64 - service_us).max(0.0);
                let offset_us = delay_us as i64 - headroom_us.round() as i64;
                let nudge_ppm = admission.controller.observe(offset_us);

                let queue_depth = admission.queues[replica].len();
                let admitted = queue_depth < admission.config.queue_bound;
                dispatcher.commit(replica, forwarded_at, service_estimate, admitted);
                if admitted {
                    admission.queues[replica].push_back(dispatcher.backlog(replica));
                }
                AdmissionDecision {
                    index,
                    at,
                    forwarded_at,
                    replica,
                    queue_depth,
                    delay_us,
                    offset_us,
                    pace_ppm: admission.controller.pace_ppm(),
                    nudge_ppm,
                    admitted,
                }
            }
        };

        stats.offered += 1;
        if decision.admitted {
            stats.admitted += 1;
            times[decision.replica].push(decision.forwarded_at);
            indices[decision.replica].push(index);
        } else {
            stats.shed += 1;
        }
        if let Some(admission) = &admission {
            let depth_after = admission.queues[decision.replica].len();
            stats.max_depth = stats.max_depth.max(depth_after);
        }
        if decision.nudge_ppm.is_some() {
            stats.nudges += 1;
        }
        stats.min_pace_ppm = stats.min_pace_ppm.min(decision.pace_ppm);
        stats.max_pace_ppm = stats.max_pace_ppm.max(decision.pace_ppm);

        if telemetry.is_enabled() {
            let replica_telemetry = &replica_telemetry[decision.replica];
            replica_telemetry.emit(decision.forwarded_at, || EventKind::Admission {
                request_id: index as u64,
                replica: decision.replica as u32,
                queue_depth: decision.queue_depth,
                admitted: decision.admitted,
                pace_ppm: decision.pace_ppm,
            });
            replica_telemetry.gauge(
                decision.forwarded_at,
                "admission_queue_depth",
                decision.queue_depth as f64,
            );
            telemetry.gauge(
                decision.forwarded_at,
                "admission_pace_ppm",
                decision.pace_ppm as f64,
            );
            telemetry.counter(
                if decision.admitted {
                    "ingest_admitted"
                } else {
                    "ingest_shed"
                },
                1,
            );
        }

        decisions.push(decision);
    }
    let shards = times
        .into_iter()
        .zip(indices)
        .map(|(times, indices)| TraceShard {
            trace: ArrivalTrace::from_times(times),
            indices,
        })
        .collect();
    IngestOutcome {
        shards,
        decisions,
        stats,
        stop_slew: admission.map(|a| a.config.stop_slew),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{shard_arrivals, shard_requests};
    use crate::request::Request;
    use apparate_exec::SampleSemantics;

    fn sample(i: u64) -> SampleSemantics {
        SampleSemantics {
            seed: i,
            difficulty: 0.5,
        }
    }

    #[test]
    fn incremental_round_robin_matches_batch_path_on_every_prefix() {
        let trace = ArrivalTrace::poisson(300, 40.0, 11);
        let service = SimDuration::from_millis(20);
        for replicas in [1usize, 2, 4, 8] {
            let batch = shard_arrivals(&trace, replicas, FleetDispatch::RoundRobin, service);
            let mut assignment = vec![usize::MAX; trace.len()];
            for (r, shard) in batch.iter().enumerate() {
                for &i in &shard.indices {
                    assignment[i] = r;
                }
            }
            let mut dispatcher = IncrementalDispatcher::new(replicas, FleetDispatch::RoundRobin);
            for (i, &at) in trace.times().iter().enumerate() {
                let r = dispatcher.select();
                assert_eq!(r, assignment[i], "arrival {i} at {replicas} replicas");
                dispatcher.commit(r, at, service, true);
            }
        }
    }

    #[test]
    fn incremental_least_loaded_matches_batch_path_on_every_prefix() {
        let trace = ArrivalTrace::maf_like(400, 80.0, 7);
        let service = SimDuration::from_millis(15);
        for replicas in [1usize, 2, 4, 8] {
            let batch = shard_arrivals(&trace, replicas, FleetDispatch::LeastLoaded, service);
            let mut assignment = vec![usize::MAX; trace.len()];
            for (r, shard) in batch.iter().enumerate() {
                for &i in &shard.indices {
                    assignment[i] = r;
                }
            }
            let mut dispatcher = IncrementalDispatcher::new(replicas, FleetDispatch::LeastLoaded);
            for (i, &at) in trace.times().iter().enumerate() {
                let r = dispatcher.select();
                assert_eq!(r, assignment[i], "arrival {i} at {replicas} replicas");
                dispatcher.commit(r, at, service, true);
            }
        }
    }

    #[test]
    fn incremental_least_loaded_matches_request_sharding_with_token_weights() {
        // The generative batch path weights each request's backlog charge by
        // its output length; the incremental path must reproduce the same
        // decisions when offered the same weights.
        let trace = ArrivalTrace::poisson(120, 2.0, 9);
        let per_token = SimDuration::from_micros(900);
        let requests: Vec<Request> = trace
            .times()
            .iter()
            .enumerate()
            .map(|(i, &at)| Request::generative(i as u64, at, sample(i as u64), (i % 60) as u32))
            .collect();
        for replicas in [1usize, 2, 4] {
            let batch = shard_requests(&requests, replicas, FleetDispatch::LeastLoaded, per_token);
            let mut assignment = vec![usize::MAX; requests.len()];
            for (r, shard) in batch.iter().enumerate() {
                for &i in &shard.indices {
                    assignment[i] = r;
                }
            }
            let mut dispatcher = IncrementalDispatcher::new(replicas, FleetDispatch::LeastLoaded);
            for (i, request) in requests.iter().enumerate() {
                let service = SimDuration::from_micros_f64(
                    per_token.as_micros() as f64 * request.output_tokens.max(1) as f64,
                );
                let r = dispatcher.select();
                assert_eq!(r, assignment[i], "request {i} at {replicas} replicas");
                dispatcher.commit(r, request.arrival, service, true);
            }
        }
    }

    #[test]
    fn passthrough_session_reproduces_batch_shards_exactly() {
        let trace = ArrivalTrace::maf_like(500, 120.0, 3);
        let service = SimDuration::from_millis(12);
        for &dispatch in &[FleetDispatch::RoundRobin, FleetDispatch::LeastLoaded] {
            for replicas in [1usize, 2, 4] {
                let batch = shard_arrivals(&trace, replicas, dispatch, service);
                let streamed = stream_arrivals(
                    &trace,
                    replicas,
                    dispatch,
                    service,
                    None,
                    &Telemetry::disabled(),
                );
                assert_eq!(streamed.stats.shed, 0);
                for (b, s) in batch.iter().zip(&streamed.shards) {
                    assert_eq!(b.trace.times(), s.trace.times());
                    assert_eq!(b.indices, s.indices);
                }
            }
        }
    }

    #[test]
    fn controller_hysteresis_starts_and_stops_at_the_right_thresholds() {
        let mut ctl =
            AdmissionController::new(SimDuration::from_millis(50), SimDuration::from_millis(10));
        // Inside the start band while idle: no slew.
        assert_eq!(ctl.observe(20_000), None);
        assert!(!ctl.is_slewing());
        assert_eq!(ctl.pace_ppm(), PACE_BASE_PPM);
        // Beyond the start threshold: slew down.
        let nudge = ctl.observe(60_000).expect("slew starts");
        assert!(nudge < 0, "behind SLO paces down, nudge {nudge}");
        assert!(ctl.is_slewing());
        assert!(ctl.pace_ppm() < PACE_BASE_PPM);
        // Between stop and start while slewing: keeps slewing.
        assert!(ctl.observe(20_000).is_some());
        assert!(ctl.is_slewing());
        // Inside the stop band: snaps back to base.
        assert_eq!(ctl.observe(5_000), None);
        assert!(!ctl.is_slewing());
        assert_eq!(ctl.pace_ppm(), PACE_BASE_PPM);
    }

    #[test]
    fn controller_pace_never_leaves_the_one_percent_clamp() {
        let mut ctl =
            AdmissionController::new(SimDuration::from_millis(50), SimDuration::from_millis(10));
        for offset in [i64::MAX / 2, 10_000_000, -10_000_000, i64::MIN / 2] {
            ctl.observe(offset);
            assert!(
                (PACE_MIN_PPM..=PACE_MAX_PPM).contains(&ctl.pace_ppm()),
                "offset {offset} drove pace to {}",
                ctl.pace_ppm()
            );
        }
    }

    #[test]
    fn queue_bound_sheds_and_depth_stays_bounded() {
        // 200 arrivals in one microsecond-spaced burst against a replica that
        // needs 10 ms per request: the queue must cap at the bound and the
        // overflow must shed.
        let times: Vec<SimTime> = (0..200).map(SimTime::from_micros).collect();
        let trace = ArrivalTrace::from_times(times);
        let config = AdmissionConfig::for_slo(SimDuration::from_millis(50), 8);
        let out = stream_arrivals(
            &trace,
            1,
            FleetDispatch::LeastLoaded,
            SimDuration::from_millis(10),
            Some(config),
            &Telemetry::disabled(),
        );
        assert!(out.stats.shed > 0, "overload must shed");
        assert!(
            out.stats.max_depth <= config.queue_bound,
            "depth {} exceeded bound {}",
            out.stats.max_depth,
            config.queue_bound
        );
        assert_eq!(out.stats.admitted + out.stats.shed, out.stats.offered);
        let shard_total: usize = out.shards.iter().map(|s| s.indices.len()).sum();
        assert_eq!(shard_total, out.stats.admitted);
    }

    #[test]
    fn forwarded_times_are_monotone_and_never_early() {
        let trace = ArrivalTrace::maf_like(600, 300.0, 21);
        let config = AdmissionConfig::for_slo(SimDuration::from_millis(40), 16);
        let out = stream_arrivals(
            &trace,
            2,
            FleetDispatch::LeastLoaded,
            SimDuration::from_millis(8),
            Some(config),
            &Telemetry::disabled(),
        );
        assert_eq!(out.decisions.len(), trace.len());
        let mut prev_fwd = SimTime::ZERO;
        for (d, &at) in out.decisions.iter().zip(trace.times()) {
            assert!(d.forwarded_at >= at, "pacing may only delay arrivals");
            assert!(d.forwarded_at >= prev_fwd, "forwarded times are monotone");
            prev_fwd = d.forwarded_at;
        }
    }

    #[test]
    fn session_stats_track_decision_log() {
        let trace = ArrivalTrace::maf_like(400, 200.0, 5);
        let config = AdmissionConfig::for_slo(SimDuration::from_millis(30), 6);
        let out = stream_arrivals(
            &trace,
            2,
            FleetDispatch::LeastLoaded,
            SimDuration::from_millis(9),
            Some(config),
            &Telemetry::disabled(),
        );
        assert_eq!(out.decisions.len(), out.stats.offered);
        assert_eq!(
            out.decisions.iter().filter(|d| d.admitted).count(),
            out.stats.admitted
        );
        assert_eq!(
            out.decisions
                .iter()
                .filter(|d| d.nudge_ppm.is_some())
                .count(),
            out.stats.nudges
        );
        assert_eq!(out.oscillations(), 0, "hysteresis must not oscillate");
    }
}
