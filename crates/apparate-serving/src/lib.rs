//! Serving-platform substrate for the Apparate reproduction.
//!
//! Reproduces the serving pipeline of §2.1 as a discrete-event simulation:
//!
//! * [`request`] — requests, SLOs and per-request serving records.
//! * [`traces`] — arrival processes (fixed fps, Poisson, MAF-like bursty).
//! * [`batching`] — queue-draining policies: TF-Serving knobs, Clockwork-style
//!   SLO-aware batching, and immediate (batch-1) scheduling.
//! * [`platform`] — the classification serving loop with the pluggable
//!   [`ExitPolicy`] hook through which Apparate and every baseline
//!   integrate.
//! * [`generative`] — continuous-batching decode loop with the analogous
//!   [`TokenPolicy`] hook. Every policy type implements both hooks and
//!   releases a decode step by the batch rule ([`StepOutcome`] from a
//!   [`BatchOutcome`]), so [`VanillaTokenPolicy`] is [`VanillaPolicy`].
//! * [`fleet`] — multi-replica scale-out: deterministic sharding of one
//!   shared workload across N replicas (round-robin / least-loaded dispatch)
//!   and fleet-level outcome aggregation, for both classification arrival
//!   traces and generative request streams (whole sequences dispatched,
//!   backlog weighted by output length). One [`ReplicaFleet`] serves either
//!   path: its [`ReplicaLoop`] is [`ServingConfig`] (the classification
//!   loop) or [`ContinuousBatchingConfig`] (the decode loop), and each
//!   replica's [`ReplicaUnit`] holds a [`ReplicaPolicy`], which reaches
//!   either hook by trait upcasting.
//! * [`ingest`] — streaming front end: the [`IncrementalDispatcher`] that
//!   the batch sharding path folds over too, bounded per-replica admission
//!   queues, and an SLO-driven rate-slew pacing controller with hysteresis
//!   and load shedding (bark's `RateAdjust` idiom).
//! * [`metrics`] — [`LatencySummary::of`], the one summary of a run or a
//!   fleet on either path, and win computations.
//!
//! Entry points: [`ServingSimulator::run`] (single replica),
//! [`GenerativeSimulator::run`] (decode loop), [`ReplicaFleet::serve`]
//! (a fleet of either, wall-clock parallel via [`FleetRun`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batching;
pub mod fleet;
pub mod generative;
pub mod ingest;
pub mod metrics;
pub mod platform;
pub mod request;
pub mod traces;

pub use batching::{BatchDecision, BatchingPolicy};
pub use fleet::{
    available_threads, run_fleets, run_queue, shard_arrivals, shard_requests, FleetDispatch,
    FleetOutcome, FleetOutcomeView, FleetRun, ReplicaFleet, ReplicaLoop, ReplicaPolicy,
    ReplicaUnit, RequestShard, TraceShard,
};
pub use generative::{
    ContinuousBatchingConfig, GenerativeOutcome, GenerativeSimulator, StepOutcome, TokenOutcome,
    TokenPolicy, TokenRecord, TokenSemantics, TokenSlot, VanillaTokenPolicy,
};
pub use ingest::{
    count_oscillations, stream_arrivals, AdmissionConfig, AdmissionController, AdmissionDecision,
    IncrementalDispatcher, IngestOutcome, IngestStats, PACE_BASE_PPM, PACE_MAX_PPM, PACE_MIN_PPM,
};
pub use metrics::{latency_cdf, tpt_cdf, LatencySummary, LatencyWins, ReplicaOutcome};
pub use platform::{
    BatchOutcome, ExitPolicy, RequestOutcome, ServingConfig, ServingOutcome, ServingSimulator,
    VanillaPolicy,
};
pub use request::{Request, RequestRecord};
pub use traces::ArrivalTrace;
