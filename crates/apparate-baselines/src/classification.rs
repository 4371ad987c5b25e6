//! The baseline policy family. Each type implements both serving hooks:
//! [`ExitPolicy`] for classification batches and [`TokenPolicy`] for decode
//! steps, releasing a token by the same rule as a classification result
//! (§3.4).

use apparate_core::{GreedyParams, TuningOutcome, TuningWindow};
use apparate_exec::{ExecutionPlan, SampleSemantics};
use apparate_model::LayerId;
use apparate_serving::{
    BatchOutcome, ExitPolicy, Request, RequestOutcome, StepOutcome, TokenPolicy, TokenSlot,
    VanillaPolicy,
};
use apparate_sim::{SimDuration, SimTime};

use crate::oracle::OracleSites;

/// Latency saved per request by exiting at each active ramp instead of running
/// to the model head, at the given reference batch size (µs, one entry per
/// ramp). This is the savings vector Algorithm 1 maximises.
pub fn per_ramp_savings_us(plan: &ExecutionPlan, batch: u32) -> Vec<f64> {
    let final_off = plan.final_offset_us(batch);
    (0..plan.num_ramps())
        .map(|i| (final_off - plan.ramp_offset_us(i, batch)).max(0.0))
        .collect()
}

/// A batch-size → GPU-time estimator for a plan, for the serving platform's
/// SLO-aware batching decisions. Includes active-ramp overheads.
pub fn batch_time_fn(plan: &ExecutionPlan) -> impl Fn(u32) -> SimDuration + '_ {
    |batch| SimDuration::from_micros_f64(plan.gpu_batch_time_us(batch))
}

/// Vanilla serving for a model: every input runs the whole original model with
/// no ramps and no overhead (a batch, or a decode step's full decoder pass).
pub fn vanilla_policy(plan: &ExecutionPlan) -> VanillaPolicy<impl Fn(u32) -> SimDuration + '_> {
    VanillaPolicy::new(|batch| SimDuration::from_micros_f64(plan.vanilla_total_us(batch)))
}

/// The universal result-release rule shared by every threshold-based policy
/// (static baselines and Apparate alike): the request's *result* is released
/// at the earliest ramp whose entropy clears its threshold, while the *input*
/// continues to the model head (which is what keeps accuracy feedback free and
/// batchmates unaffected, §3.2).
///
/// `exit` is that earliest ramp and whether it agrees with the full model,
/// as found by [`ExecutionPlan::first_exit`].
pub fn exit_outcome(
    plan: &ExecutionPlan,
    exit: Option<(usize, bool)>,
    batch: u32,
) -> RequestOutcome {
    let final_off = SimDuration::from_micros_f64(plan.final_offset_us(batch));
    match exit {
        Some((ramp, agrees)) => RequestOutcome {
            release_offset: SimDuration::from_micros_f64(plan.ramp_offset_us(ramp, batch)),
            completion_offset: final_off,
            exit_ramp: Some(ramp),
            correct: agrees,
        },
        None => RequestOutcome {
            release_offset: final_off,
            completion_offset: final_off,
            exit_ramp: None,
            correct: true,
        },
    }
}

/// A non-adaptive early-exit policy: fixed ramps, fixed per-ramp thresholds.
///
/// With uniform thresholds this is the BranchyNet/DeeBERT deployment mode the
/// paper argues against (§2.2); with offline-tuned thresholds (see
/// [`offline_tuned_thresholds`]) it becomes the "tune once, then drift"
/// baseline of Figure 5. On the decode path it is the FREE-style static
/// configuration for generative serving.
pub struct StaticExitPolicy {
    plan: ExecutionPlan,
    thresholds: Vec<f64>,
    name: String,
}

impl StaticExitPolicy {
    /// Create a static policy. `thresholds` must have one entry per active
    /// ramp of `plan`.
    pub fn new(
        plan: ExecutionPlan,
        thresholds: Vec<f64>,
        name: impl Into<String>,
    ) -> StaticExitPolicy {
        assert_eq!(
            thresholds.len(),
            plan.num_ramps(),
            "one threshold per active ramp"
        );
        StaticExitPolicy {
            plan,
            thresholds,
            name: name.into(),
        }
    }

    /// Create a static policy with the same threshold on every ramp.
    pub fn uniform(
        plan: ExecutionPlan,
        threshold: f64,
        name: impl Into<String>,
    ) -> StaticExitPolicy {
        let thresholds = vec![threshold; plan.num_ramps()];
        StaticExitPolicy::new(plan, thresholds, name)
    }

    /// The underlying execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The fixed thresholds.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Release each sample at its first ramp whose entropy clears the
    /// threshold. Nothing but the release is read, so each sample observes
    /// its ramps only up to the first exit.
    fn release<'a>(
        &self,
        samples: impl ExactSizeIterator<Item = &'a SampleSemantics>,
    ) -> BatchOutcome {
        let b = samples.len() as u32;
        BatchOutcome {
            gpu_time: SimDuration::from_micros_f64(self.plan.gpu_batch_time_us(b)),
            per_request: samples
                .map(|sample| {
                    let exit = self.plan.first_exit(sample, &self.thresholds);
                    exit_outcome(&self.plan, exit, b)
                })
                .collect(),
        }
    }
}

impl ExitPolicy for StaticExitPolicy {
    fn process_batch(&mut self, batch: &[Request], _batch_start: SimTime) -> BatchOutcome {
        self.release(batch.iter().map(|r| &r.semantics))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl TokenPolicy for StaticExitPolicy {
    fn process_step(&mut self, slots: &[TokenSlot], _step_start: SimTime) -> StepOutcome {
        self.release(slots.iter().map(|s| &s.semantics)).into()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Tune thresholds once, offline, on a calibration sample set (the bootstrap
/// validation split, §3.1) using Apparate's own greedy tuner, and return the
/// outcome. Wrap the result in a [`StaticExitPolicy`] for the "oneshot-tuned"
/// baseline: optimal for the bootstrap distribution, blind to drift.
///
/// The search is [`TuningWindow::tune`] over the [`calibration_window`],
/// which walks the same trajectory as
/// [`greedy_tune`](apparate_core::greedy_tune) over the same records and
/// returns the same outcome, bit for bit.
pub fn offline_tuned_thresholds(
    plan: &ExecutionPlan,
    calibration: &[SampleSemantics],
    params: GreedyParams,
    reference_batch: u32,
) -> TuningOutcome {
    calibration_window(plan, calibration, reference_batch)
        .tune(&per_ramp_savings_us(plan, reference_batch), params)
}

/// The window an offline tune reads: every calibration sample's observation
/// at every ramp of `plan`, recorded as a correct release at
/// `reference_batch`. Tunes that share a plan and a calibration set build it
/// once and each [`TuningWindow::tune`] it with
/// [`per_ramp_savings_us`] at `reference_batch`, so they share its columns.
pub fn calibration_window(
    plan: &ExecutionPlan,
    calibration: &[SampleSemantics],
    reference_batch: u32,
) -> TuningWindow {
    let mut window = TuningWindow::new(plan.num_ramps(), calibration.len().max(1));
    let mut row = Vec::with_capacity(plan.num_ramps());
    for sample in calibration {
        row.clear();
        plan.observe_into(sample, &mut row);
        window.push(&row, None, true, reference_batch);
    }
    window
}

/// The deterministic hindsight oracle (§2.2's "optimal early exiting").
///
/// For every input it exits at the earliest feasible site whose hypothetical
/// ramp agrees with the full model — knowledge only hindsight (or a
/// deterministic, splittable semantics model) can provide — and pays no ramp
/// overhead at all. Accuracy is exactly that of the original model, and the
/// batch (or decode step) frees the GPU as soon as its slowest member exits,
/// so the oracle lower-bounds every realisable policy on latency *and*
/// throughput.
pub struct OracleExitPolicy {
    plan: ExecutionPlan,
    sites: OracleSites,
    name: String,
}

impl OracleExitPolicy {
    /// Create an oracle over the given feasible sites (topological order) with
    /// the given ramp capacity. `plan` should carry no active ramps; the
    /// oracle evaluates hypothetical ramps at every site.
    pub fn new(
        plan: ExecutionPlan,
        sites: Vec<LayerId>,
        capacity: f64,
        name: impl Into<String>,
    ) -> OracleExitPolicy {
        OracleExitPolicy {
            sites: OracleSites::new(&plan, sites, capacity),
            plan,
            name: name.into(),
        }
    }

    /// Release each sample at its earliest agreeing site; the batch frees the
    /// GPU at its slowest release.
    fn release<'a>(
        &self,
        samples: impl ExactSizeIterator<Item = &'a SampleSemantics>,
    ) -> BatchOutcome {
        let b = samples.len() as u32;
        let (gpu_us, releases) = self.sites.batch_releases(&self.plan, samples, b);
        BatchOutcome {
            gpu_time: SimDuration::from_micros_f64(gpu_us),
            per_request: releases
                .into_iter()
                .map(|(us, ramp)| {
                    let off = SimDuration::from_micros_f64(us);
                    RequestOutcome {
                        release_offset: off,
                        completion_offset: off,
                        exit_ramp: ramp,
                        correct: true,
                    }
                })
                .collect(),
        }
    }
}

impl ExitPolicy for OracleExitPolicy {
    fn process_batch(&mut self, batch: &[Request], _batch_start: SimTime) -> BatchOutcome {
        self.release(batch.iter().map(|r| &r.semantics))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl TokenPolicy for OracleExitPolicy {
    fn process_step(&mut self, slots: &[TokenSlot], _step_start: SimTime) -> StepOutcome {
        self.release(slots.iter().map(|s| &s.semantics)).into()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{deploy_all_sites, deploy_budget_sites};
    use apparate_core::{ApparateConfig, RampArchitecture};
    use apparate_exec::SemanticsModel;
    use apparate_model::zoo;
    use apparate_serving::ArrivalTrace;
    use apparate_serving::{BatchingPolicy, ServingConfig, ServingSimulator};

    fn easy_samples(n: usize) -> Vec<SampleSemantics> {
        (0..n)
            .map(|i| SampleSemantics::new(i as u64, 0.1 + 0.3 * (i % 7) as f64 / 7.0))
            .collect()
    }

    fn cv_plan() -> crate::prep::RampDeployment {
        let model = zoo::resnet(50);
        let semantics = SemanticsModel::new(77, model.descriptor.overparameterization);
        deploy_budget_sites(
            &model,
            &semantics,
            &ApparateConfig::default(),
            RampArchitecture::Lightweight,
            500,
        )
    }

    #[test]
    fn static_policy_exits_easy_inputs_early() {
        let dep = cv_plan();
        let mut policy = StaticExitPolicy::uniform(dep.plan.clone(), 0.25, "static-ee");
        let samples = easy_samples(64);
        let requests: Vec<Request> = samples
            .iter()
            .enumerate()
            .map(|(i, &s)| Request::classification(i as u64, SimTime::ZERO, s, None))
            .collect();
        let out = policy.process_batch(&requests, SimTime::ZERO);
        assert_eq!(out.per_request.len(), 64);
        let exits = out
            .per_request
            .iter()
            .filter(|o| o.exit_ramp.is_some())
            .count();
        assert!(exits > 32, "most easy CV inputs should exit ({exits}/64)");
        for o in &out.per_request {
            assert!(o.release_offset <= o.completion_offset);
            if o.exit_ramp.is_some() {
                assert!(o.release_offset < out.gpu_time);
            }
        }
    }

    /// Serve `samples` as one batch through `batch_policy` and as one decode
    /// step through `step_policy`: each token must be released as its batch
    /// result is, and the step must free the GPU at its slowest release
    /// (§3.4). Returns the batch outcome.
    fn assert_step_releases_like_batch(
        batch_policy: &mut dyn ExitPolicy,
        step_policy: &mut dyn TokenPolicy,
        samples: &[SampleSemantics],
    ) -> BatchOutcome {
        let requests: Vec<Request> = samples
            .iter()
            .enumerate()
            .map(|(i, &s)| Request::classification(i as u64, SimTime::ZERO, s, None))
            .collect();
        let slots: Vec<TokenSlot> = samples
            .iter()
            .enumerate()
            .map(|(i, &semantics)| TokenSlot {
                request_id: i as u64,
                token_index: 0,
                semantics,
            })
            .collect();
        let batch = batch_policy.process_batch(&requests, SimTime::ZERO);
        let step = step_policy.process_step(&slots, SimTime::ZERO);
        assert_eq!(step.per_token.len(), batch.per_request.len());
        for (token, result) in step.per_token.iter().zip(&batch.per_request) {
            assert_eq!(token.release_offset, result.release_offset);
            assert_eq!(token.exit_ramp, result.exit_ramp);
            assert_eq!(token.correct, result.correct);
        }
        let slowest = batch.per_request.iter().map(|o| o.release_offset).max();
        assert_eq!(Some(step.gpu_time), slowest);
        batch
    }

    #[test]
    fn static_decode_step_releases_like_a_batch() {
        let dep = cv_plan();
        let samples = easy_samples(16);
        let batch = assert_step_releases_like_batch(
            &mut StaticExitPolicy::uniform(dep.plan.clone(), 0.25, "static-ee"),
            &mut StaticExitPolicy::uniform(dep.plan.clone(), 0.25, "static-ee"),
            &samples,
        );
        assert!(batch.per_request.iter().any(|o| o.exit_ramp.is_some()));
    }

    #[test]
    fn oracle_decode_step_releases_like_a_batch() {
        let dep = cv_plan();
        let vanilla_plan = dep.plan.with_ramps(Vec::new());
        let sites: Vec<LayerId> = dep.all_sites.iter().map(|s| s.site).collect();
        let oracle =
            || OracleExitPolicy::new(vanilla_plan.clone(), sites.clone(), dep.capacity, "oracle");
        let batch =
            assert_step_releases_like_batch(&mut oracle(), &mut oracle(), &easy_samples(16));
        assert!(batch.per_request.iter().any(|o| o.exit_ramp.is_some()));
        // The oracle's batch also frees the GPU at its slowest release.
        let slowest = batch.per_request.iter().map(|o| o.release_offset).max();
        assert_eq!(Some(batch.gpu_time), slowest);
    }

    #[test]
    fn zero_thresholds_never_exit() {
        let dep = cv_plan();
        let mut policy = StaticExitPolicy::uniform(dep.plan.clone(), 0.0, "no-exit");
        let requests: Vec<Request> = easy_samples(8)
            .iter()
            .enumerate()
            .map(|(i, &s)| Request::classification(i as u64, SimTime::ZERO, s, None))
            .collect();
        let out = policy.process_batch(&requests, SimTime::ZERO);
        assert!(out
            .per_request
            .iter()
            .all(|o| o.exit_ramp.is_none() && o.correct));
    }

    #[test]
    fn offline_tuning_finds_savings_and_respects_accuracy() {
        let dep = cv_plan();
        let calibration = easy_samples(400);
        let outcome = offline_tuned_thresholds(&dep.plan, &calibration, GreedyParams::default(), 4);
        assert!(outcome.evaluation.accuracy >= 0.99 - 1e-9);
        assert!(outcome.evaluation.mean_savings_us > 0.0);
        assert_eq!(outcome.thresholds.len(), dep.plan.num_ramps());
    }

    #[test]
    fn oracle_is_perfectly_accurate_and_fast() {
        let model = zoo::resnet(50);
        let semantics = SemanticsModel::new(77, model.descriptor.overparameterization);
        let dep = deploy_all_sites(&model, &semantics, RampArchitecture::Lightweight, 500);
        let vanilla_plan = dep.plan.with_ramps(Vec::new());
        let sites: Vec<LayerId> = dep.all_sites.iter().map(|s| s.site).collect();
        let mut oracle = OracleExitPolicy::new(vanilla_plan.clone(), sites, dep.capacity, "oracle");

        let trace = ArrivalTrace::fixed_rate(100, 30.0);
        let samples = easy_samples(100);
        let sim = ServingSimulator::new(ServingConfig {
            policy: BatchingPolicy::Immediate,
            slo: None,
        });
        let estimate = batch_time_fn(&vanilla_plan);
        let out = sim.run(&trace, &samples, &mut oracle, &estimate);
        let summary = apparate_serving::LatencySummary::from_outcome("oracle", &out);
        assert!((summary.accuracy - 1.0).abs() < 1e-12);
        assert!(summary.exit_rate > 0.5);

        // Head-to-head at identical arrivals: the oracle's median beats vanilla.
        let mut vanilla = vanilla_policy(&vanilla_plan);
        let vout = sim.run(&trace, &samples, &mut vanilla, &estimate);
        let op = apparate_sim::Percentiles::from_samples(&out.latencies_ms());
        let vp = apparate_sim::Percentiles::from_samples(&vout.latencies_ms());
        assert!(
            op.p50 < vp.p50,
            "oracle p50 {} vs vanilla {}",
            op.p50,
            vp.p50
        );
        assert!(op.max <= vp.max + 1e-9);
    }
}
