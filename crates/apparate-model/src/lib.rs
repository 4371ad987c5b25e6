//! Model substrate for the Apparate reproduction.
//!
//! The paper ingests pre-trained models in ONNX form and analyses their
//! computation graphs to decide where early-exit ramps are feasible (§3.1).
//! This crate provides the equivalent substrate:
//!
//! * [`layer`] — the operator-level IR ([`Layer`], [`LayerKind`], [`LayerId`]).
//! * [`graph`] — the validated DAG ([`ModelGraph`]) with topological ordering
//!   and **cut-vertex analysis**, the structural feasibility rule for ramps.
//! * [`latency`] — the per-layer, batch-aware latency model and prefix-latency
//!   tables used for savings/overhead accounting.
//! * [`meta`] — model descriptors (families, tasks, SLOs, calibration targets).
//! * [`zoo`] — synthetic reconstructions of the paper's full model corpus
//!   (ResNet/VGG/BERT/DistilBERT/GPT2/T5/Llama2 + quantised variants),
//!   calibrated to Table 5.
//!
//! Entry points: [`zoo`] for ready-made models, [`ModelGraph`] for the DAG
//! analysis a custom model needs before ramps can be placed on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod latency;
pub mod layer;
pub mod meta;
pub mod zoo;

pub use graph::{GraphError, ModelGraph};
pub use latency::{synthesize_latency, ComputeShape, LayerLatency, ModelLatency};
pub use layer::{Layer, LayerId, LayerKind, Stage};
pub use meta::{ModelDescriptor, ModelFamily, TaskKind};
pub use zoo::ZooModel;
