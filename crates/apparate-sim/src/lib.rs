//! Simulation kernel for the Apparate reproduction.
//!
//! This crate provides the domain-agnostic building blocks that every other
//! crate in the workspace builds on:
//!
//! * [`time`] — integer-microsecond virtual time ([`SimTime`], [`SimDuration`]).
//! * [`rng`] — deterministic, *splittable* random-number streams so that a
//!   per-request, per-ramp draw is identical no matter in which order (or how
//!   often) it is evaluated. This property is essential for the oracle
//!   baselines and for evaluating candidate ramps that were never active.
//! * [`events`] — a binary-heap discrete-event queue used by the serving
//!   simulator.
//! * [`stats`] — percentiles, CDFs, histograms and online moments used by the
//!   metric pipeline and the experiment harness.
//! * [`series`] — time-series recording with fixed-size chunk aggregation
//!   (the paper reasons about workloads in 64-request chunks, e.g. Figure 5).
//!
//! Nothing in this crate knows about models, ramps or serving; it is the
//! "operating system" layer of the simulation — the layer that makes every
//! paper figure reproducible bit-for-bit from a seed rather than tied to a
//! section of its own.
//!
//! Entry points: [`SimTime`]/[`SimDuration`] for virtual time,
//! [`DeterministicRng`] for splittable seeding, [`Percentiles`]/[`Cdf`] for
//! the metric pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use events::{EventQueue, ScheduledEvent};
pub use rng::{
    bracket_at, DeterministicRng, KeyChain, NormalUnits, RngStream, BRACKETS, NORMAL_BOUND,
};
pub use series::{ChunkSeries, TimeSeries};
pub use stats::{Cdf, Histogram, OnlineStats, Percentiles};
pub use time::{SimDuration, SimTime};
