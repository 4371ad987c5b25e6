//! Per-layer latency model and prefix-latency tables.
//!
//! Apparate's ramp-adjustment loop needs "a layer-wise breakdown of time spent
//! during model inference (for different batch sizes)" (§3.3) collected once
//! during bootstrapping. This module models per-layer GPU latency as
//!
//! ```text
//! t_layer(b) = fixed + per_item · b^alpha        (alpha ≤ 1)
//! ```
//!
//! The `fixed` term captures kernel-launch and weight-load cost (amortised by
//! batching, which is where the throughput benefit of batching comes from);
//! the sub-linear `b^alpha` term captures that larger batches use accelerator
//! parallelism more effectively. Calibration scales per-layer costs so that
//! the batch-1 total of each zoo model matches Table 5 in the paper.

use crate::graph::ModelGraph;
use crate::layer::LayerKind;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Latency model of a single layer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LayerLatency {
    /// Batch-independent cost in microseconds (kernel launch, weight load).
    pub fixed_us: f64,
    /// Per-item cost at batch 1 in microseconds.
    pub per_item_us: f64,
    /// Batch-scaling exponent in `(0, 1]`; smaller means better amortisation.
    pub batch_alpha: f64,
}

impl LayerLatency {
    /// Latency of this layer for a batch of `batch` requests, in microseconds.
    pub fn latency_us(&self, batch: u32) -> f64 {
        debug_assert!(batch >= 1, "batch must be at least 1");
        self.fixed_us + self.per_item_us * (batch as f64).powf(self.batch_alpha)
    }

    /// Scale both cost terms by a factor (used for calibration and for
    /// quantised / device-speed variants).
    pub fn scaled(self, factor: f64) -> LayerLatency {
        LayerLatency {
            fixed_us: self.fixed_us * factor,
            per_item_us: self.per_item_us * factor,
            batch_alpha: self.batch_alpha,
        }
    }
}

/// Summed latency of `layers` for a batch of `batch` requests, in
/// microseconds.
///
/// Bit-identical to summing [`LayerLatency::latency_us`] left to right, but
/// `batch^alpha` is evaluated once per run of consecutive layers sharing an
/// exponent instead of once per layer (a zoo model's layers all share one).
/// The power stays outside the inner loop on purpose: a per-layer
/// "recompute when the exponent changes" branch compiles back into one
/// `pow` per layer.
fn sum_latency_us(layers: &[LayerLatency], batch: u32) -> f64 {
    fold_latency_us(layers, batch, |_| {})
}

/// The left fold behind [`sum_latency_us`], handing every running total to
/// `visit`: the total after layer `i` is the sum over `layers[..=i]`, bit
/// for bit, because each run's `batch^alpha` depends only on its exponent.
fn fold_latency_us(layers: &[LayerLatency], batch: u32, mut visit: impl FnMut(f64)) -> f64 {
    debug_assert!(batch >= 1, "batch must be at least 1");
    let b = batch as f64;
    // `Sum for f64` starts from -0.0, the exact additive identity.
    let mut total = -0.0;
    let mut rest = layers;
    while let Some(first) = rest.first() {
        let alpha = first.batch_alpha;
        let run = 1 + rest[1..]
            .iter()
            .position(|l| l.batch_alpha.to_bits() != alpha.to_bits())
            .unwrap_or(rest.len() - 1);
        let scale = b.powf(alpha);
        total = rest[..run].iter().fold(total, |acc, l| {
            let acc = acc + (l.fixed_us + l.per_item_us * scale);
            visit(acc);
            acc
        });
        rest = &rest[run..];
    }
    total
}

/// Largest batch whose prefix latencies [`ModelLatency`] tabulates; larger
/// batches fold the layers per call. 16 is the largest batch `repro`,
/// `repro --sweep`, the examples and perfbench ask for: Clockwork batches
/// CV and NLP requests up to 8, continuous decoding batches up to 16
/// sequences.
const TABLED_BATCHES: u32 = 16;

/// Latency model for an entire graph: one [`LayerLatency`] per layer, stored
/// in **topological order**, plus prefix sums for "run up to position k"
/// queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelLatency {
    /// Per-layer latency in topological order.
    per_layer: Vec<LayerLatency>,
    /// Running totals of [`sum_latency_us`] over `per_layer` for batches
    /// `1..=TABLED_BATCHES`: row `b` (from `(b - 1) * len`) holds
    /// `prefix_us(pos, b)` at `pos`. Serving asks for the same sums several
    /// times per request, so they are folded once per model; clones of a
    /// plan share the table.
    prefix_table: Arc<[f64]>,
}

impl ModelLatency {
    /// Build from per-layer latencies given in topological order.
    pub fn new(per_layer: Vec<LayerLatency>) -> ModelLatency {
        let mut prefix_table = Vec::with_capacity(per_layer.len() * TABLED_BATCHES as usize);
        for batch in 1..=TABLED_BATCHES {
            fold_latency_us(&per_layer, batch, |running| prefix_table.push(running));
        }
        ModelLatency {
            per_layer,
            prefix_table: prefix_table.into(),
        }
    }

    /// The tabulated prefix sums for `batch`, if it has a row.
    fn prefix_row(&self, batch: u32) -> Option<&[f64]> {
        let len = self.per_layer.len();
        let row = batch.checked_sub(1).filter(|&r| r < TABLED_BATCHES)? as usize;
        Some(&self.prefix_table[row * len..(row + 1) * len])
    }

    /// Number of layers covered.
    pub fn len(&self) -> usize {
        self.per_layer.len()
    }

    /// True if no layers are covered.
    pub fn is_empty(&self) -> bool {
        self.per_layer.is_empty()
    }

    /// Per-layer latencies (topological order).
    pub fn per_layer(&self) -> &[LayerLatency] {
        &self.per_layer
    }

    /// Total model latency for a batch, in microseconds.
    pub fn total_us(&self, batch: u32) -> f64 {
        match self.prefix_row(batch).and_then(|row| row.last()) {
            Some(&total) => total,
            None => sum_latency_us(&self.per_layer, batch),
        }
    }

    /// Latency of running the model **up to and including** topological
    /// position `pos`, for a batch.
    pub fn prefix_us(&self, pos: usize, batch: u32) -> f64 {
        match self.prefix_row(batch) {
            Some(row) => row[pos],
            None => sum_latency_us(&self.per_layer[..=pos], batch),
        }
    }

    /// Latency of the layers strictly **after** topological position `pos`.
    pub fn suffix_us(&self, pos: usize, batch: u32) -> f64 {
        self.total_us(batch) - self.prefix_us(pos, batch)
    }

    /// Fraction of total batch-1 latency spent up to and including `pos`.
    pub fn prefix_fraction(&self, pos: usize) -> f64 {
        let total = self.total_us(1);
        if total == 0.0 {
            return 0.0;
        }
        self.prefix_us(pos, 1) / total
    }

    /// Scale every layer's latency by `factor`, returning a new model.
    pub fn scaled(&self, factor: f64) -> ModelLatency {
        ModelLatency::new(self.per_layer.iter().map(|l| l.scaled(factor)).collect())
    }

    /// Calibrate so the batch-1 total equals `target_us`.
    pub fn calibrated_to(&self, target_us: f64) -> ModelLatency {
        let current = self.total_us(1);
        if current <= 0.0 {
            return self.clone();
        }
        self.scaled(target_us / current)
    }
}

/// How a model family distributes its compute over depth; drives the synthetic
/// per-layer latency assignment.
///
/// The paper notes that "latency arises early in CV models, but more evenly
/// across coding blocks in transformers" (§3.3) — front-loaded vs. uniform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ComputeShape {
    /// Early layers dominate (CV convolution pyramids on large feature maps).
    FrontLoaded {
        /// Ratio between the heaviest (first) and lightest (last) compute-heavy
        /// layer; 1.0 degenerates to uniform.
        skew: f64,
    },
    /// Compute is spread evenly (transformer blocks are homogeneous).
    Uniform,
}

/// Build a [`ModelLatency`] for `graph` by distributing `total_bs1_us`
/// microseconds of batch-1 latency across its layers.
///
/// Compute-heavy layers (convolutions, attention, FFN, FC) receive the bulk of
/// the time according to `shape`; glue layers (norm, add, activation, dropout)
/// receive a small constant share. `fixed_share` of each layer's cost is
/// batch-independent, the rest scales as `b^alpha`.
pub fn synthesize_latency(
    graph: &ModelGraph,
    total_bs1_us: f64,
    shape: ComputeShape,
    fixed_share: f64,
    batch_alpha: f64,
) -> ModelLatency {
    let n = graph.len();
    let topo = graph.topo_order();
    // Weight per layer: compute-heavy layers get a depth-dependent weight, glue
    // layers get 2% of a nominal heavy weight.
    let heavy_positions: Vec<usize> = (0..n)
        .filter(|&pos| graph.layer(topo[pos]).kind.is_compute_heavy())
        .collect();
    let heavy_count = heavy_positions.len().max(1);
    let mut weights = vec![0.0f64; n];
    for (rank, &pos) in heavy_positions.iter().enumerate() {
        let w = match shape {
            ComputeShape::Uniform => 1.0,
            ComputeShape::FrontLoaded { skew } => {
                // Linearly interpolate from `skew` (first heavy layer) down to 1.0.
                let t = if heavy_count == 1 {
                    0.0
                } else {
                    rank as f64 / (heavy_count - 1) as f64
                };
                skew * (1.0 - t) + 1.0 * t
            }
        };
        weights[pos] = w;
    }
    let glue_weight = 0.02;
    for (pos, w) in weights.iter_mut().enumerate() {
        if *w == 0.0 {
            let kind = graph.layer(topo[pos]).kind;
            *w = match kind {
                LayerKind::Pooling | LayerKind::Softmax | LayerKind::Pooler => glue_weight * 2.0,
                _ => glue_weight,
            };
        }
    }
    let weight_sum: f64 = weights.iter().sum();
    let per_layer = weights
        .into_iter()
        .map(|w| {
            let share_us = total_bs1_us * w / weight_sum;
            LayerLatency {
                fixed_us: share_us * fixed_share,
                per_item_us: share_us * (1.0 - fixed_share),
                batch_alpha,
            }
        })
        .collect();
    ModelLatency::new(per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, LayerId, LayerKind};

    fn toy_graph(n: usize) -> ModelGraph {
        let layers = (0..n)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    LayerKind::Conv
                } else {
                    LayerKind::Activation
                };
                Layer::new(i, format!("l{i}"), kind, 10, 8, i as u32)
            })
            .collect();
        let edges = (0..n - 1).map(|i| (LayerId(i), LayerId(i + 1))).collect();
        ModelGraph::new(layers, edges).expect("valid graph")
    }

    #[test]
    fn layer_latency_scales_sublinearly() {
        let l = LayerLatency {
            fixed_us: 100.0,
            per_item_us: 50.0,
            batch_alpha: 0.7,
        };
        let b1 = l.latency_us(1);
        let b8 = l.latency_us(8);
        assert!(b8 > b1);
        // Per-request latency must shrink as batch grows (that is the whole
        // point of batching).
        assert!(b8 / 8.0 < b1);
    }

    #[test]
    fn synthesized_total_matches_target() {
        let g = toy_graph(10);
        let lat = synthesize_latency(
            &g,
            16_400.0,
            ComputeShape::FrontLoaded { skew: 4.0 },
            0.3,
            0.75,
        );
        assert!((lat.total_us(1) - 16_400.0).abs() < 1e-6);
        assert_eq!(lat.len(), 10);
    }

    #[test]
    fn front_loaded_prefix_grows_fast() {
        let g = toy_graph(20);
        let front = synthesize_latency(
            &g,
            10_000.0,
            ComputeShape::FrontLoaded { skew: 6.0 },
            0.3,
            0.75,
        );
        let uniform = synthesize_latency(&g, 10_000.0, ComputeShape::Uniform, 0.3, 0.75);
        let mid = 9; // halfway point
        assert!(
            front.prefix_fraction(mid) > uniform.prefix_fraction(mid),
            "front-loaded models should accumulate latency earlier"
        );
    }

    #[test]
    fn prefix_and_suffix_partition_total() {
        let g = toy_graph(12);
        let lat = synthesize_latency(&g, 5_000.0, ComputeShape::Uniform, 0.3, 0.8);
        for pos in 0..lat.len() {
            let total = lat.prefix_us(pos, 4) + lat.suffix_us(pos, 4);
            assert!((total - lat.total_us(4)).abs() < 1e-6);
        }
        assert!((lat.prefix_fraction(lat.len() - 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_hits_target() {
        let g = toy_graph(6);
        let lat = synthesize_latency(&g, 1_234.0, ComputeShape::Uniform, 0.5, 0.7);
        let cal = lat.calibrated_to(29_400.0);
        assert!((cal.total_us(1) - 29_400.0).abs() < 1e-6);
    }

    /// The per-layer fold `total_us` / `prefix_us` computed before the
    /// exponent-once sum and the prefix table.
    fn reference_sum(layers: &[LayerLatency], batch: u32) -> f64 {
        layers.iter().map(|l| l.latency_us(batch)).sum()
    }

    #[test]
    fn exponent_once_sums_match_the_per_layer_fold_bit_for_bit() {
        let g = toy_graph(40);
        let uniform_alpha = synthesize_latency(
            &g,
            16_400.0,
            ComputeShape::FrontLoaded { skew: 5.0 },
            0.3,
            0.75,
        );
        // Exponents that alternate layer by layer, in runs, and repeat after
        // a change: every run boundary shape the sum can meet.
        let alphas = [0.7, 0.9, 0.7, 0.7, 0.7, 0.55, 0.55, 1.0, 0.7, 0.9];
        let mixed: Vec<LayerLatency> = uniform_alpha
            .per_layer()
            .iter()
            .enumerate()
            .map(|(i, l)| LayerLatency {
                batch_alpha: alphas[i % alphas.len()],
                ..*l
            })
            .collect();
        let alternating: Vec<LayerLatency> = mixed
            .iter()
            .enumerate()
            .map(|(i, l)| LayerLatency {
                batch_alpha: if i % 2 == 0 { 0.6 } else { 0.8 },
                ..*l
            })
            .collect();
        for layers in [uniform_alpha.per_layer(), &mixed[..], &alternating[..]] {
            let lat = ModelLatency::new(layers.to_vec());
            // Every tabulated row, then as many batches again through the
            // per-call fold above the table.
            for batch in 1..=2 * TABLED_BATCHES {
                assert_eq!(
                    lat.total_us(batch).to_bits(),
                    reference_sum(layers, batch).to_bits()
                );
                for pos in 0..layers.len() {
                    assert_eq!(
                        lat.prefix_us(pos, batch).to_bits(),
                        reference_sum(&layers[..=pos], batch).to_bits()
                    );
                }
                for start in 0..layers.len() {
                    let slice = &layers[start..];
                    assert_eq!(
                        sum_latency_us(slice, batch).to_bits(),
                        reference_sum(slice, batch).to_bits()
                    );
                }
            }
        }
        assert_eq!(
            sum_latency_us(&[], 4).to_bits(),
            reference_sum(&[], 4).to_bits()
        );
        let empty = ModelLatency::new(Vec::new());
        for batch in [1, TABLED_BATCHES + 1] {
            assert_eq!(
                empty.total_us(batch).to_bits(),
                reference_sum(&[], batch).to_bits()
            );
        }
    }

    #[test]
    fn scaled_preserves_alpha() {
        let l = LayerLatency {
            fixed_us: 10.0,
            per_item_us: 5.0,
            batch_alpha: 0.66,
        };
        let s = l.scaled(2.0);
        assert_eq!(s.batch_alpha, 0.66);
        assert!((s.fixed_us - 20.0).abs() < 1e-12);
    }
}
