//! Execution substrate for the Apparate reproduction.
//!
//! * [`semantics`] — the calibrated stochastic model of what a trained exit
//!   ramp observes for an input (entropy + agreement with the full model),
//!   preserving the monotonicity properties Apparate's algorithms rely on.
//! * [`engine`] — the policy-free execution plan: batch timing (per-layer
//!   latency + ramp overheads) and per-request ramp observations.
//! * [`gpu`] — device memory accounting and speed scaling.
//! * [`profiler`] — the non-blocking GPU ↔ controller link, one sorted queue
//!   per direction, with a PCIe-like cost model (§4.5 overhead analysis).
//!
//! Entry points: [`ExecutionPlan`] (what the GPU runs), [`SemanticsModel`]
//! (what the ramps observe), [`FeedbackLink`] (how the halves of §3's
//! controller loop talk).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod gpu;
pub mod profiler;
pub mod semantics;

pub use engine::{BatchExecution, ExecutionPlan, RampPlacement, RequestObservations};
pub use gpu::{GpuDevice, GpuError};
pub use profiler::{
    FeedbackLink, LinkCost, LinkStats, OverheadReport, ProfileRecord, RequestRelease,
    ThresholdUpdate, WirePayload, RAMP_DEFINITION_BYTES,
};
pub use semantics::{RampObservation, SampleSemantics, ScanStep, ScanSteps, SemanticsModel};
