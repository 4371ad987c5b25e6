//! The execution engine: timing and observation scaffold for a served model
//! with (optional) early-exit ramps.
//!
//! The engine is deliberately *policy free*. It answers two questions:
//!
//! * **Timing** — how long does a batch take on the GPU, and at what offset
//!   within that batch does the computation reach each ramp / the model head?
//!   (Derived from the calibrated per-layer latency model plus per-ramp costs.)
//! * **Observations** — what does each ramp report for each request?
//!   (Delegated to the [`SemanticsModel`].)
//!
//! Exiting *decisions* (thresholds, which ramps are active, whether inputs
//! truly exit or only results do) belong to the policy layers: Apparate's
//! controller in `apparate-core` and the baselines in `apparate-baselines`.

use crate::semantics::{
    power_factor, RampObservation, SampleSemantics, ScanStep, ScanSteps, SemanticsModel, ROW_CHUNK,
};
use apparate_model::{LayerId, LayerLatency, ModelLatency, ZooModel};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A ramp as seen by the execution engine: where it sits, what it costs, and
/// how capable it is.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RampPlacement {
    /// The layer whose output the ramp consumes. Must be a feasible site.
    pub site: LayerId,
    /// Latency cost of evaluating the ramp, added to every batch that carries it.
    pub cost: LayerLatency,
    /// Predictive capacity of the ramp architecture + training in `[0, 1]`.
    pub capacity: f64,
}

/// Execution plan: a model plus an ordered set of ramps, with each ramp's
/// topological position, predictive power and cost cached for fast
/// observation and prefix-latency queries.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Shared by every clone of the plan and every plan derived from it by
    /// [`ExecutionPlan::with_ramps`]: each policy and each fleet replica holds
    /// its own plan, and the model never changes.
    model: Arc<ZooModel>,
    semantics: SemanticsModel,
    ramps: Vec<RampPlacement>,
    /// Topological position of each ramp's site (parallel to `ramps`).
    ramp_positions: Vec<usize>,
    /// [`SemanticsModel::ramp_power`] of each ramp's depth and capacity
    /// (parallel to `ramps`): one `powf` per ramp per plan, not per
    /// observation.
    ramp_powers: Vec<f64>,
    /// exp(power / T) of each ramp's power (parallel to `ramps`): its factor
    /// of every first-exit scan's entropy bounds (see
    /// [`crate::semantics`]).
    ramp_power_factors: Vec<f64>,
    /// Each ramp's cost (parallel to `ramps`) as a latency sequence, so
    /// overhead sums read its prefix table.
    ramp_costs: ModelLatency,
}

/// Fraction of a `layers`-layer model executed up to topological position
/// `position`.
fn depth_fraction_at(position: usize, layers: usize) -> f64 {
    if layers <= 1 {
        return 1.0;
    }
    position as f64 / (layers - 1) as f64
}

impl ExecutionPlan {
    /// Build a plan. Ramps are sorted by topological position; duplicate sites
    /// are rejected in debug builds.
    pub fn new(
        model: ZooModel,
        semantics: SemanticsModel,
        ramps: Vec<RampPlacement>,
    ) -> ExecutionPlan {
        ExecutionPlan::over(Arc::new(model), semantics, ramps)
    }

    /// [`ExecutionPlan::new`] over a shared model.
    fn over(
        model: Arc<ZooModel>,
        semantics: SemanticsModel,
        mut ramps: Vec<RampPlacement>,
    ) -> ExecutionPlan {
        ramps.sort_by_key(|r| model.graph.topo_position(r.site));
        let ramp_positions = ramps
            .iter()
            .map(|r| model.graph.topo_position(r.site))
            .collect::<Vec<_>>();
        debug_assert!(
            ramp_positions.windows(2).all(|w| w[0] < w[1]),
            "duplicate ramp sites in execution plan"
        );
        let layers = model.graph.len();
        let ramp_powers: Vec<f64> = ramps
            .iter()
            .zip(&ramp_positions)
            .map(|(r, &pos)| semantics.ramp_power(depth_fraction_at(pos, layers), r.capacity))
            .collect();
        let ramp_power_factors = ramp_powers.iter().map(|&p| power_factor(p)).collect();
        let ramp_costs = ModelLatency::new(ramps.iter().map(|r| r.cost).collect());
        ExecutionPlan {
            model,
            semantics,
            ramps,
            ramp_positions,
            ramp_powers,
            ramp_power_factors,
            ramp_costs,
        }
    }

    /// Build a plan with no ramps (vanilla serving).
    pub fn vanilla(model: ZooModel, semantics: SemanticsModel) -> ExecutionPlan {
        ExecutionPlan::new(model, semantics, Vec::new())
    }

    /// The served model.
    pub fn model(&self) -> &ZooModel {
        &self.model
    }

    /// The semantics model.
    pub fn semantics(&self) -> &SemanticsModel {
        &self.semantics
    }

    /// Active ramps in topological order.
    pub fn ramps(&self) -> &[RampPlacement] {
        &self.ramps
    }

    /// Number of active ramps.
    pub fn num_ramps(&self) -> usize {
        self.ramps.len()
    }

    /// Normalised depth of a ramp: fraction of the model's layers executed
    /// before its observation is available.
    pub fn depth_fraction(&self, ramp_idx: usize) -> f64 {
        depth_fraction_at(self.ramp_positions[ramp_idx], self.model.graph.len())
    }

    /// Normalised depth of an arbitrary layer site.
    pub fn depth_fraction_of_site(&self, site: LayerId) -> f64 {
        depth_fraction_at(self.model.graph.topo_position(site), self.model.graph.len())
    }

    /// Latency of the *original* model (no ramps) for a batch, in µs.
    pub fn vanilla_total_us(&self, batch: u32) -> f64 {
        self.model.latency.total_us(batch)
    }

    /// Total GPU time of a batch when every input runs to the end of the model
    /// and every active ramp is evaluated (Apparate's execution mode), in µs.
    pub fn gpu_batch_time_us(&self, batch: u32) -> f64 {
        self.vanilla_total_us(batch) + self.total_ramp_overhead_us(batch)
    }

    /// Sum of all active ramps' costs for a batch, in µs.
    pub fn total_ramp_overhead_us(&self, batch: u32) -> f64 {
        self.ramp_costs.total_us(batch)
    }

    /// Offset (from batch start) at which ramp `ramp_idx`'s result is
    /// available: model prefix up to the ramp's site plus the cost of this and
    /// all earlier ramps, in µs.
    pub fn ramp_offset_us(&self, ramp_idx: usize, batch: u32) -> f64 {
        let prefix = self
            .model
            .latency
            .prefix_us(self.ramp_positions[ramp_idx], batch);
        prefix + self.ramp_costs.prefix_us(ramp_idx, batch)
    }

    /// Offset at which the original model's final result is available when all
    /// active ramps are evaluated along the way, in µs.
    pub fn final_offset_us(&self, batch: u32) -> f64 {
        self.gpu_batch_time_us(batch)
    }

    /// Offset of the model prefix up to an arbitrary site with no ramp costs;
    /// used for optimal-exiting oracles which assume zero ramp overhead (§2.2).
    pub fn site_prefix_us(&self, site: LayerId, batch: u32) -> f64 {
        self.model
            .latency
            .prefix_us(self.model.graph.topo_position(site), batch)
    }

    /// Execute a batch: produce, for every request, the observation at every
    /// active ramp. Timing is queried separately because it is identical for
    /// all requests in the batch.
    /// Policies use [`ExecutionPlan::first_exit`] and
    /// [`ExecutionPlan::observe_into`]; this stays as their tests' reference.
    pub fn execute_batch(&self, samples: &[SampleSemantics]) -> BatchExecution {
        let per_request = samples
            .iter()
            .map(|s| {
                let mut ramp_observations = Vec::with_capacity(self.ramps.len());
                self.observe_into(s, &mut ramp_observations);
                RequestObservations { ramp_observations }
            })
            .collect();
        BatchExecution {
            batch_size: samples.len() as u32,
            per_request,
        }
    }

    /// Append `sample`'s observation at every active ramp, in ramp order, to
    /// `out`: one request's row of [`ExecutionPlan::execute_batch`], for
    /// callers that build rows one at a time into a buffer they reuse (the
    /// controller's tuning-window rows and every calibration window).
    ///
    /// Each cell is bit for bit [`SemanticsModel::observe_with`]'s. The row
    /// is built 16 ramps at a time, with each chunk's draws in stack arrays,
    /// and in phases within a chunk: every cell's unit draws, then every
    /// margin, then every entropy, then every agreement (see the *Rows*
    /// section of [`crate::semantics`]).
    pub fn observe_into(&self, sample: &SampleSemantics, out: &mut Vec<RampObservation>) {
        let input = self.semantics.input(sample);
        for (ramps, powers) in self
            .ramps
            .chunks(ROW_CHUNK)
            .zip(self.ramp_powers.chunks(ROW_CHUNK))
        {
            let keys = ramps.iter().map(|r| r.site.0 as u64);
            self.semantics
                .observe_chunk(&input, keys.zip(powers.iter().copied()), out);
        }
    }

    /// The earliest active ramp at which `sample` exits under per-ramp
    /// `thresholds`, with whether that ramp agrees with the full model;
    /// `None` means no exit.
    ///
    /// The same answer as [`BatchExecution::earliest_exit`] over
    /// [`ExecutionPlan::execute_batch`], and how every threshold-based policy
    /// releases: ramps after the exit, and ramps whose threshold disables
    /// exiting, are never observed, and a ramp the scan visits draws a noise
    /// only when the entropy bounds straddle its threshold (see
    /// [`crate::semantics`]).
    pub fn first_exit(
        &self,
        sample: &SampleSemantics,
        thresholds: &[f64],
    ) -> Option<(usize, bool)> {
        self.scan(sample, thresholds, |_| {})
    }

    /// [`ExecutionPlan::first_exit`], also counting in `steps` which step
    /// settled each ramp the scan visited.
    pub fn first_exit_counting(
        &self,
        sample: &SampleSemantics,
        thresholds: &[f64],
        steps: &mut ScanSteps,
    ) -> Option<(usize, bool)> {
        self.scan(sample, thresholds, |step| steps.record(step))
    }

    /// The first-exit scan, reporting each visited ramp's step to `settled`.
    #[inline]
    fn scan(
        &self,
        sample: &SampleSemantics,
        thresholds: &[f64],
        mut settled: impl FnMut(ScanStep),
    ) -> Option<(usize, bool)> {
        debug_assert_eq!(
            thresholds.len(),
            self.ramps.len(),
            "one threshold per active ramp"
        );
        let input = self.semantics.input(sample);
        let input_factor = input.exp_factor();
        thresholds
            .iter()
            .take(self.ramps.len())
            .enumerate()
            .filter(|&(_, &thr)| thr > 0.0)
            .find_map(|(i, &thr)| {
                let (step, exit) = self.semantics.exit_at(
                    &input,
                    input_factor,
                    self.ramps[i].site.0 as u64,
                    (self.ramp_powers[i], self.ramp_power_factors[i]),
                    thr,
                );
                settled(step);
                exit.map(|agrees| (i, agrees))
            })
    }

    /// Replace the ramp set, keeping model and semantics (used when the
    /// controller adjusts ramps at runtime).
    pub fn with_ramps(&self, ramps: Vec<RampPlacement>) -> ExecutionPlan {
        ExecutionPlan::over(Arc::clone(&self.model), self.semantics.clone(), ramps)
    }
}

/// Per-request observations produced by executing one batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestObservations {
    /// One observation per active ramp, in ramp order.
    pub ramp_observations: Vec<RampObservation>,
}

/// Result of executing one batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchExecution {
    /// Number of requests in the batch.
    pub batch_size: u32,
    /// Observations per request, in submission order.
    pub per_request: Vec<RequestObservations>,
}

impl BatchExecution {
    /// Earliest ramp index whose entropy is at or below its threshold, for a
    /// single request, given per-ramp thresholds. `None` means no exit.
    ///
    /// This is the universal exit rule over a full row. Apparate and the
    /// static-EE baselines apply it through [`ExecutionPlan::first_exit`],
    /// observing only what it reads; the row form stays as the reference
    /// tests compare that scan against.
    pub fn earliest_exit(observations: &[RampObservation], thresholds: &[f64]) -> Option<usize> {
        debug_assert_eq!(
            thresholds.len(),
            observations.len(),
            "one threshold per observed ramp"
        );
        observations
            .iter()
            .zip(thresholds.iter())
            .position(|(obs, &thr)| thr > 0.0 && obs.entropy <= thr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::SemanticsModel;
    use apparate_model::zoo;

    fn lightweight_cost() -> LayerLatency {
        LayerLatency {
            fixed_us: 30.0,
            per_item_us: 10.0,
            batch_alpha: 0.7,
        }
    }

    fn plan_with_ramps(n_ramps: usize) -> ExecutionPlan {
        let model = zoo::resnet(50);
        let semantics = SemanticsModel::new(7, model.descriptor.overparameterization);
        let sites = model.graph.feasible_ramp_sites(None);
        let step = sites.len() / (n_ramps + 1);
        let ramps = (1..=n_ramps)
            .map(|i| RampPlacement {
                site: sites[i * step],
                cost: lightweight_cost(),
                capacity: 0.97,
            })
            .collect();
        ExecutionPlan::new(model, semantics, ramps)
    }

    #[test]
    fn vanilla_plan_has_no_overhead() {
        let model = zoo::vgg(13);
        let sem = SemanticsModel::new(1, 0.9);
        let plan = ExecutionPlan::vanilla(model, sem);
        assert_eq!(plan.num_ramps(), 0);
        assert_eq!(plan.total_ramp_overhead_us(8), 0.0);
        assert!((plan.gpu_batch_time_us(4) - plan.vanilla_total_us(4)).abs() < 1e-9);
    }

    #[test]
    fn ramp_offsets_are_increasing_and_bounded_by_total() {
        let plan = plan_with_ramps(4);
        for batch in [1u32, 4, 16] {
            let mut prev = 0.0;
            for i in 0..plan.num_ramps() {
                let off = plan.ramp_offset_us(i, batch);
                assert!(off > prev, "offsets must increase along the model");
                assert!(off < plan.final_offset_us(batch));
                prev = off;
            }
        }
    }

    #[test]
    fn gpu_time_includes_all_ramp_costs() {
        let plan = plan_with_ramps(3);
        let batch = 8;
        let expected = plan.vanilla_total_us(batch) + 3.0 * lightweight_cost().latency_us(batch);
        assert!((plan.gpu_batch_time_us(batch) - expected).abs() < 1e-6);
    }

    #[test]
    fn depth_fractions_are_ordered() {
        let plan = plan_with_ramps(5);
        let fractions: Vec<f64> = (0..5).map(|i| plan.depth_fraction(i)).collect();
        assert!(fractions.windows(2).all(|w| w[0] < w[1]));
        assert!(fractions.iter().all(|&f| (0.0..1.0).contains(&f)));
    }

    #[test]
    fn execute_batch_gives_observation_per_ramp_per_request() {
        let plan = plan_with_ramps(3);
        let samples: Vec<SampleSemantics> = (0..16).map(|i| SampleSemantics::new(i, 0.3)).collect();
        let exec = plan.execute_batch(&samples);
        assert_eq!(exec.batch_size, 16);
        assert_eq!(exec.per_request.len(), 16);
        for r in &exec.per_request {
            assert_eq!(r.ramp_observations.len(), 3);
        }
    }

    #[test]
    fn earliest_exit_respects_thresholds() {
        let obs = RequestObservations {
            ramp_observations: vec![
                RampObservation {
                    entropy: 0.8,
                    agrees: false,
                },
                RampObservation {
                    entropy: 0.3,
                    agrees: true,
                },
                RampObservation {
                    entropy: 0.1,
                    agrees: true,
                },
            ],
        };
        assert_eq!(
            BatchExecution::earliest_exit(&obs.ramp_observations, &[0.0, 0.0, 0.0]),
            None
        );
        assert_eq!(
            BatchExecution::earliest_exit(&obs.ramp_observations, &[0.0, 0.4, 0.0]),
            Some(1)
        );
        assert_eq!(
            BatchExecution::earliest_exit(&obs.ramp_observations, &[0.9, 0.4, 0.2]),
            Some(0)
        );
        assert_eq!(
            BatchExecution::earliest_exit(&obs.ramp_observations, &[0.5, 0.0, 0.2]),
            Some(2)
        );
    }

    #[test]
    fn cached_ramp_constants_match_per_call_derivations_bit_for_bit() {
        let even = plan_with_ramps(6);
        // Unequal ramp costs, so a reordered overhead sum shows.
        let plan = even.with_ramps(
            even.ramps()
                .iter()
                .enumerate()
                .map(|(i, r)| RampPlacement {
                    cost: r.cost.scaled(1.0 + 0.37 * i as f64),
                    ..*r
                })
                .collect(),
        );
        let samples: Vec<SampleSemantics> = (0..64)
            .map(|i| SampleSemantics::new(i * 7919, (i as f64 * 0.113) % 1.0))
            .collect();
        let exec = plan.execute_batch(&samples);
        for (s, obs) in samples.iter().zip(&exec.per_request) {
            for (i, ramp) in plan.ramps().iter().enumerate() {
                let want = plan.semantics().observe(
                    s,
                    ramp.site.0 as u64,
                    plan.depth_fraction(i),
                    ramp.capacity,
                );
                let got = obs.ramp_observations[i];
                assert_eq!(got.entropy.to_bits(), want.entropy.to_bits());
                assert_eq!(got.agrees, want.agrees);
            }
        }
        // Past the last tabulated batch (16), so the fallback is pinned too.
        for batch in 1..=32u32 {
            let costs = |upto: usize| -> f64 {
                plan.ramps()[..upto]
                    .iter()
                    .map(|r| r.cost.latency_us(batch))
                    .sum()
            };
            assert_eq!(
                plan.total_ramp_overhead_us(batch).to_bits(),
                costs(plan.num_ramps()).to_bits()
            );
            for i in 0..plan.num_ramps() {
                let prefix = plan.site_prefix_us(plan.ramps()[i].site, batch);
                assert_eq!(
                    plan.ramp_offset_us(i, batch).to_bits(),
                    (prefix + costs(i + 1)).to_bits()
                );
            }
        }
    }

    #[test]
    fn phased_rows_match_per_cell_observations_bit_for_bit() {
        // Every chunk boundary (0, 1, 15, 16 and 17 ramps) and multi-chunk
        // rows with a tail: the all-sites plans of ResNet-50 and Llama2-7B.
        let all_sites = |model: ZooModel| {
            let semantics = SemanticsModel::new(11, model.descriptor.overparameterization);
            let ramps = model
                .graph
                .feasible_ramp_sites(None)
                .into_iter()
                .map(|site| RampPlacement {
                    site,
                    cost: lightweight_cost(),
                    capacity: 0.95,
                })
                .collect();
            ExecutionPlan::new(model, semantics, ramps)
        };
        let mut plans: Vec<ExecutionPlan> = [0, 1, 15, 16, 17]
            .into_iter()
            .map(plan_with_ramps)
            .collect();
        plans.push(all_sites(zoo::resnet(50)));
        plans.push(all_sites(zoo::llama2_7b()));
        assert_eq!(
            plans.iter().map(|p| p.num_ramps()).collect::<Vec<_>>(),
            [0, 1, 15, 16, 17, 37, 129]
        );
        let samples: Vec<SampleSemantics> = (0..200)
            .map(|i| SampleSemantics::new(i * 6151 + 3, (i as f64 * 0.2718) % 1.0))
            .collect();
        let ahead = RampObservation {
            entropy: 0.5,
            agrees: false,
        };
        let mut row = Vec::new();
        for plan in &plans {
            let (mut agree, mut clamped) = (0, 0);
            for s in &samples {
                // A row appends: what the buffer held stays ahead of it.
                row.clear();
                row.push(ahead);
                plan.observe_into(s, &mut row);
                assert_eq!(row.len(), 1 + plan.num_ramps());
                assert_eq!(row[0], ahead);
                let input = plan.semantics().input(s);
                for (i, (ramp, got)) in plan.ramps().iter().zip(&row[1..]).enumerate() {
                    let want = plan.semantics().observe_with(
                        &input,
                        ramp.site.0 as u64,
                        plan.ramp_powers[i],
                    );
                    assert_eq!(got.entropy.to_bits(), want.entropy.to_bits(), "ramp {i}");
                    assert_eq!(got.agrees, want.agrees, "ramp {i}");
                    agree += usize::from(got.agrees);
                    clamped += usize::from(got.entropy == 0.0 || got.entropy == 1.0);
                }
            }
            let cells = samples.len() * plan.num_ramps();
            if cells > 0 {
                assert!(
                    agree > 0 && agree < cells,
                    "{} ramps: agreement varies",
                    plan.num_ramps()
                );
                assert!(
                    clamped < cells,
                    "{} ramps: entropies vary",
                    plan.num_ramps()
                );
            }
        }
    }

    #[test]
    fn first_exit_matches_earliest_exit_over_the_full_batch() {
        let plan = plan_with_ramps(5);
        let samples: Vec<SampleSemantics> = (0..300)
            .map(|i| SampleSemantics::new(i * 31 + 5, (i as f64 * 0.61803) % 1.0))
            .collect();
        let exec = plan.execute_batch(&samples);
        let threshold_sets: [[f64; 5]; 8] = [
            [0.0; 5],
            [0.3; 5],
            [0.0, 0.2, 0.0, 0.4, 0.0],
            [0.05, 0.0, 0.1, 0.0, 0.9],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.15],
            [0.01, 0.02, 0.04, 0.06, 0.08],
            [1.0; 5],
        ];
        let mut exits = 0;
        for thresholds in &threshold_sets {
            for (s, obs) in samples.iter().zip(&exec.per_request) {
                let want = BatchExecution::earliest_exit(&obs.ramp_observations, thresholds);
                let got = plan.first_exit(s, thresholds);
                assert_eq!(got.map(|(i, _)| i), want);
                if let Some((i, agrees)) = got {
                    exits += 1;
                    assert_eq!(agrees, obs.ramp_observations[i].agrees);
                }
            }
        }
        assert!(exits > 0, "the threshold sets must exercise exits");
    }

    #[test]
    fn with_ramps_swaps_ramp_set() {
        let plan = plan_with_ramps(2);
        let sites = plan.model().graph.feasible_ramp_sites(None);
        let new = plan.with_ramps(vec![RampPlacement {
            site: sites[0],
            cost: lightweight_cost(),
            capacity: 0.9,
        }]);
        assert_eq!(new.num_ramps(), 1);
        assert_eq!(plan.num_ramps(), 2);
    }

    #[test]
    fn easy_samples_agree_early_on_cv_model() {
        let plan = plan_with_ramps(4);
        let easy: Vec<SampleSemantics> = (0..200).map(|i| SampleSemantics::new(i, 0.05)).collect();
        let exec = plan.execute_batch(&easy);
        let agreements = exec
            .per_request
            .iter()
            .filter(|r| r.ramp_observations[0].agrees)
            .count();
        assert!(
            agreements as f64 / easy.len() as f64 > 0.9,
            "easy inputs should agree at the first ramp of an overparameterised CV model"
        );
    }
}
