//! End-to-end repro harness for the Apparate reproduction.
//!
//! This crate turns the workspace's library pieces into a runnable system:
//!
//! * [`controller`] — the live Apparate controller: `apparate-core`'s
//!   threshold/adjust/monitor loop wired into the serving platform's
//!   [`ExitPolicy`](apparate_serving::ExitPolicy) /
//!   [`TokenPolicy`](apparate_serving::TokenPolicy) hooks.
//! * [`scenario`] — CV, NLP and generative comparison scenarios: workload →
//!   model → execution plan → serving simulation, with Apparate running
//!   head-to-head against every baseline in `apparate-baselines` under
//!   identical arrivals and semantics draws. Both scenario types implement
//!   the [`Scenario`] trait, so each runner is written once for the
//!   classification and the decode path: [`run_table`] /
//!   [`run_comparison`] (the six-policy table), [`apparate_overhead`] (one
//!   §4.5 row) and, in [`fleet`], [`run_fleet`].
//! * [`fleet`] — multi-replica scale-out runs: N replicas behind one
//!   dispatcher, one warm-started controller per replica over its own
//!   charged link, fleet-level win tables, and the overload admission run
//!   ([`run_admission_fleet`]).
//! * [`sweep`] — the SLO and accuracy-constraint sensitivity sweeps
//!   (Figures 17/19) over the grids in [`SensitivityGrid`].
//! * [`report`] — deterministic paper-style win tables.
//!
//! The `repro` binary (`cargo run --release -p apparate-experiments --bin
//! repro`) runs all three scenarios and prints the comparison tables; `repro
//! --sweep` prints the fleet scale-out tables (1/2/4/8 replicas) and both
//! sensitivity grids. The same seed always produces byte-identical output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod fleet;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use controller::{ApparatePolicy, ApparateTokenPolicy, ControllerStats};
pub use fleet::{
    render_admission_summary, render_fleet_summary, run_admission_fleet,
    run_classification_fleet_threaded, run_fleet, AdmissionFleetRun, FleetRun,
};
pub use report::{ComparisonTable, OverheadRow, OverheadTable, PolicyRow};
pub use scenario::{
    apparate_overhead, cv_scenario, diurnal_scenario, generative_calibration, generative_requests,
    generative_scenario, nlp_scenario, run_classification_duel, run_comparison, run_overhead,
    run_scenarios, run_scenarios_traced_config, run_table, scenario_config, ClassificationScenario,
    DuelRun, GenerativeScenario, ReproSizes, Scenario, ScenarioCdfs, ScenarioRun, ScenarioSelect,
    SensitivityGrid, TraceKind, WorkloadTokens, STATIC_THRESHOLD,
};
pub use sweep::{sensitivity_sweeps, SweepPoint, SweepTable};
