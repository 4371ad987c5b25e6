//! Comparison policies for the Apparate reproduction.
//!
//! The paper's headline claims are *comparative*: Apparate's adaptive
//! controller versus serving without early exits and versus prior static
//! early-exit schemes (§2.2, §4.2–4.4). This crate provides those comparison
//! points as first-class policies. Each family is one type that implements
//! both [`ExitPolicy`](apparate_serving::ExitPolicy) for classification
//! batches and [`TokenPolicy`](apparate_serving::TokenPolicy) for decode
//! steps, which it releases by the same rule (§3.4):
//!
//! * **vanilla** — no ramps, the original model only (via
//!   [`apparate_serving::VanillaPolicy`]; [`classification::vanilla_policy`]
//!   builds it from an execution plan).
//! * **static-ee** — fixed ramps at Apparate's budgeted initial placement with
//!   a fixed, hand-picked threshold; never adapts (the classic
//!   BranchyNet/DeeBERT deployment mode, [`classification::StaticExitPolicy`]).
//! * **uniform-ee** — a ramp at *every* feasible site with the same fixed
//!   threshold; shows what ignoring the ramp budget costs
//!   ([`prep::deploy_all_sites`] + [`classification::StaticExitPolicy`]).
//! * **oneshot-tuned** — thresholds tuned once, offline, on the bootstrap
//!   validation split with Apparate's own greedy tuner, then frozen
//!   ([`classification::offline_tuned_thresholds`]).
//! * **oracle** — the deterministic hindsight optimal of §2.2: every input
//!   exits at the earliest site whose ramp agrees with the full model, with
//!   zero ramp overhead ([`classification::OracleExitPolicy`]). Because ramp
//!   observations are pure functions of the splittable RNG in
//!   `apparate-sim::rng`, the oracle sees *exactly* what any live policy would
//!   have seen, making it a true latency lower bound at full accuracy.
//!
//! [`generative`] names the same types for the continuous-batching decode
//! loop (`StaticTokenPolicy`, `OracleTokenPolicy`).
//!
//! Entry points: [`prep::deploy_budget_sites`] / [`prep::deploy_all_sites`]
//! to prepare a ramp deployment, then any of the policy constructors above;
//! the comparison harness in `apparate-experiments` wires them all together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classification;
pub mod generative;
mod oracle;
pub mod prep;

pub use classification::{
    batch_time_fn, calibration_window, exit_outcome, offline_tuned_thresholds, per_ramp_savings_us,
    vanilla_policy, OracleExitPolicy, StaticExitPolicy,
};
pub use generative::{OracleTokenPolicy, StaticTokenPolicy};
pub use prep::{deploy_all_sites, deploy_budget_sites, RampDeployment};
