//! Apparate's controller algorithms (§3 of the paper).
//!
//! This crate holds the policy brain of the reproduction — everything the
//! paper describes as running on the CPU-side controller:
//!
//! * [`config`] — the two user-facing knobs (accuracy constraint, ramp
//!   budget) plus the internal tuning constants of §3.2–3.3.
//! * [`ramp`] — ramp architectures and their cost/capacity specifications.
//! * [`placement`] — feasible-site enumeration, budgeting, and the initial
//!   evenly spaced deployment (§3.1).
//! * [`training`] — simulated ramp training on the bootstrap split (§3.1).
//! * [`monitor`] — the free accuracy/observation feedback windows (§3.2).
//! * [`threshold`] — accuracy-aware greedy threshold tuning, Algorithm 1.
//! * [`adjust`] — latency-focused ramp adjustment, Algorithm 2 / Figure 11.
//!
//! The pieces are deliberately separable: the serving integration that wires
//! them into a live `ExitPolicy` loop lives in `apparate-experiments`, and the
//! non-adaptive comparison points live in `apparate-baselines`.
//!
//! Entry points: [`greedy_tune`] and [`TuningWindow::tune`] (Algorithm 1), [`adjust_ramps`]
//! (Algorithm 2), [`Monitor`] (the feedback windows they consume), and
//! [`ApparateConfig`] (the two user-facing knobs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjust;
pub mod config;
pub mod monitor;
pub mod placement;
pub mod ramp;
pub mod threshold;
pub mod training;

pub use adjust::{
    adjust_ramps, ramp_utilities, AdjustAction, AdjustDecision, AdjustInput, RampUtility,
};
pub use config::ApparateConfig;
pub use monitor::{Monitor, RequestFeedback, TuningWindow};
pub use placement::{
    evenly_spaced, feasible_sites, initial_placement, max_ramps_under_budget, InitialPlacement,
    RampSite,
};
pub use ramp::{ramp_param_fraction, ramp_spec, RampArchitecture, RampSpec};
pub use threshold::{
    greedy_tune, grid_tune, ConfigEvaluation, GreedyParams, ThresholdEvaluator, TuningOutcome,
};
pub use training::{train_ramps, trained_capacity, TrainedRamp, TrainingReport};
