//! Property suite for the streaming admission front end, swept over seeds ×
//! burst shapes × replica counts:
//!
//! * hysteresis never oscillates — no two opposite-direction pace nudges
//!   within the stop-threshold band, anywhere in any decision log;
//! * the pacing rate never leaves the ±1% clamp;
//! * no admission queue ever exceeds its bound;
//! * the shed set is exactly the one the documented SLO queue model predicts
//!   (an independent replay of the queue semantics reproduces every
//!   admit/shed verdict, queue depth and modelled delay);
//! * pacing only ever delays arrivals, monotonically.

use std::collections::VecDeque;

use apparate_serving::{
    stream_arrivals, AdmissionConfig, ArrivalTrace, FleetDispatch, IngestOutcome, PACE_BASE_PPM,
    PACE_MAX_PPM, PACE_MIN_PPM,
};
use apparate_sim::{SimDuration, SimTime};
use apparate_telemetry::{
    render_metrics_json_lines, render_trace_json_lines, Telemetry, TelemetryConfig,
};

const SEEDS: [u64; 3] = [1, 7, 42];
const REPLICA_COUNTS: [usize; 4] = [1, 2, 4, 8];
const DISPATCHES: [FleetDispatch; 2] = [FleetDispatch::RoundRobin, FleetDispatch::LeastLoaded];

/// 50 req/s against a 15 ms batch-1 service: a single replica is ~33%
/// overloaded (sheds under every shape), eight replicas are far underloaded
/// (the controller should mostly idle) — the sweep covers both regimes.
fn service_estimate() -> SimDuration {
    SimDuration::from_millis(15)
}

fn admission_config() -> AdmissionConfig {
    AdmissionConfig::for_slo(SimDuration::from_millis(45), 3)
}

/// The burst shapes of the arrival-process module: steady, memoryless, and
/// diurnal-with-bursts.
fn burst_shapes(seed: u64) -> Vec<(&'static str, ArrivalTrace)> {
    vec![
        ("fixed-rate", ArrivalTrace::fixed_rate(400, 50.0)),
        ("poisson", ArrivalTrace::poisson(400, 50.0, seed)),
        ("maf-like", ArrivalTrace::maf_like(400, 50.0, seed)),
    ]
}

fn admission_outcome(
    trace: &ArrivalTrace,
    replicas: usize,
    dispatch: FleetDispatch,
) -> IngestOutcome {
    stream_arrivals(
        trace,
        replicas,
        dispatch,
        service_estimate(),
        Some(admission_config()),
        &Telemetry::disabled(),
    )
}

/// Independent replay of the documented queue semantics over a decision log:
/// bounded per-replica queues of modelled finish times, drained up to each
/// arrival's forwarded time, shed exactly when the selected queue is full.
/// Asserts every logged verdict, depth, delay and replica choice matches.
fn assert_shed_set_matches_queue_model(
    outcome: &IngestOutcome,
    replicas: usize,
    dispatch: FleetDispatch,
    context: &str,
) {
    let service = service_estimate();
    let bound = admission_config().queue_bound;
    let mut backlog = vec![SimTime::ZERO; replicas];
    let mut queues: Vec<VecDeque<SimTime>> = (0..replicas).map(|_| VecDeque::new()).collect();
    for (offered, d) in outcome.decisions.iter().enumerate() {
        for queue in &mut queues {
            while queue
                .front()
                .is_some_and(|&finish| finish <= d.forwarded_at)
            {
                queue.pop_front();
            }
        }
        let replica = match dispatch {
            FleetDispatch::RoundRobin => offered % replicas,
            FleetDispatch::LeastLoaded => (0..replicas)
                .min_by_key(|&r| (backlog[r], r))
                .expect("at least one replica"),
        };
        assert_eq!(replica, d.replica, "replica choice diverged ({context})");
        let depth = queues[replica].len();
        assert_eq!(depth, d.queue_depth, "queue depth diverged ({context})");
        let delay = backlog[replica].saturating_since(d.forwarded_at);
        assert_eq!(
            delay.as_micros(),
            d.delay_us,
            "modelled delay diverged ({context})"
        );
        let predicted_admit = depth < bound;
        assert_eq!(
            predicted_admit,
            d.admitted,
            "arrival {offered}: the SLO queue model predicts {} but the session {} ({context})",
            if predicted_admit { "admit" } else { "shed" },
            if d.admitted { "admitted" } else { "shed" },
        );
        if predicted_admit {
            backlog[replica] = backlog[replica].max(d.forwarded_at) + service;
            queues[replica].push_back(backlog[replica]);
        }
    }
}

#[test]
fn admission_properties_hold_across_seeds_shapes_and_replica_counts() {
    let bound = admission_config().queue_bound;
    for seed in SEEDS {
        for (shape, trace) in burst_shapes(seed) {
            for replicas in REPLICA_COUNTS {
                for dispatch in DISPATCHES {
                    let context = format!("seed={seed} shape={shape} ×{replicas} {dispatch}");
                    let outcome = admission_outcome(&trace, replicas, dispatch);
                    assert_eq!(outcome.stats.offered, trace.len(), "{context}");

                    // Hysteresis never oscillates.
                    assert_eq!(outcome.oscillations(), 0, "oscillation ({context})");

                    // Pace always within the ±1% clamp; queue depth bounded.
                    for d in &outcome.decisions {
                        assert!(
                            (PACE_MIN_PPM..=PACE_MAX_PPM).contains(&d.pace_ppm),
                            "pace {} outside clamp ({context})",
                            d.pace_ppm
                        );
                        if let Some(nudge) = d.nudge_ppm {
                            assert!(
                                nudge.unsigned_abs() <= (PACE_BASE_PPM / 100),
                                "nudge {nudge} exceeds 1% ({context})"
                            );
                        }
                        assert!(
                            d.queue_depth < bound || !d.admitted,
                            "admitted past the queue bound ({context})"
                        );
                        assert!(
                            d.forwarded_at >= d.at,
                            "pacing moved an arrival earlier ({context})"
                        );
                    }
                    assert!(
                        outcome.stats.max_depth <= bound,
                        "queue depth {} exceeded bound {bound} ({context})",
                        outcome.stats.max_depth
                    );
                    assert!(outcome.stats.min_pace_ppm >= PACE_MIN_PPM, "{context}");
                    assert!(outcome.stats.max_pace_ppm <= PACE_MAX_PPM, "{context}");

                    // Forwarded times are monotone across the admission stream.
                    for pair in outcome.decisions.windows(2) {
                        assert!(
                            pair[1].forwarded_at >= pair[0].forwarded_at,
                            "forwarded times not monotone ({context})"
                        );
                    }

                    // Shed requests are exactly those the SLO model predicts.
                    assert_shed_set_matches_queue_model(&outcome, replicas, dispatch, &context);
                }
            }
        }
    }
}

#[test]
fn underloaded_fleet_sheds_nothing_and_barely_slews() {
    // Eight replicas at 50 req/s with 15 ms service: offered load is ~9% of
    // capacity, so the SLO model should admit everything.
    for seed in SEEDS {
        let trace = ArrivalTrace::poisson(400, 50.0, seed);
        let outcome = admission_outcome(&trace, 8, FleetDispatch::LeastLoaded);
        assert_eq!(outcome.stats.shed, 0, "seed={seed}");
        assert_eq!(outcome.stats.admitted, trace.len(), "seed={seed}");
    }
}

#[test]
fn overloaded_single_replica_sheds() {
    // One replica at 100 req/s with 15 ms service is 50% overloaded: the
    // bounded queue must shed a sustained fraction under every shape.
    for seed in SEEDS {
        let shapes = [
            ("fixed-rate", ArrivalTrace::fixed_rate(400, 100.0)),
            ("poisson", ArrivalTrace::poisson(400, 100.0, seed)),
            ("maf-like", ArrivalTrace::maf_like(400, 100.0, seed)),
        ];
        for (shape, trace) in shapes {
            let outcome = admission_outcome(&trace, 1, FleetDispatch::LeastLoaded);
            assert!(
                outcome.stats.shed_rate() > 0.1,
                "seed={seed} shape={shape}: shed rate {:.3} too low for a 150% load",
                outcome.stats.shed_rate()
            );
        }
    }
}

#[test]
fn recording_telemetry_emits_admission_trace_without_perturbing_decisions() {
    // A recorded session must produce the `admission` event kind, the
    // queue-depth/pace gauges and the admitted/shed counters — and make
    // byte-for-byte the same decisions as the untraced session (observation
    // must never perturb the simulation).
    let trace = ArrivalTrace::maf_like(400, 100.0, 42);
    let telemetry = Telemetry::recording(TelemetryConfig::default());
    let traced = stream_arrivals(
        &trace,
        2,
        FleetDispatch::LeastLoaded,
        service_estimate(),
        Some(admission_config()),
        &telemetry,
    );
    let untraced = admission_outcome(&trace, 2, FleetDispatch::LeastLoaded);
    assert_eq!(traced.decisions, untraced.decisions);
    assert_eq!(traced.stats, untraced.stats);
    assert!(traced.stats.shed > 0, "overload fixture stopped shedding");

    let snapshot = telemetry.snapshot().expect("recording sink");
    let events = render_trace_json_lines(&snapshot);
    assert!(events.contains("\"kind\":\"admission\""));
    assert!(events.contains("\"admitted\":false"), "shed events missing");
    let metrics = render_metrics_json_lines(&snapshot);
    for series in [
        "admission_queue_depth",
        "admission_pace_ppm",
        "ingest_admitted",
        "ingest_shed",
    ] {
        assert!(metrics.contains(series), "missing metrics series {series}");
    }
}
