//! The live Apparate controller: the threshold/adjust/monitor loop of §3
//! wired into the serving platform's policy hooks — with the GPU ↔ controller
//! coordination path charged for real.
//!
//! `apparate-core` provides the individual algorithms (greedy threshold
//! tuning, utility-driven ramp adjustment, monitoring windows); this module
//! composes them into a closed loop that runs *against* a serving simulation,
//! split exactly the way the paper deploys it (§3, §4.5):
//!
//! * the **GPU half** (`GpuHalf`) executes batches under the thresholds and
//!   ramp set it currently has deployed, and builds each batch's or decode
//!   step's [`ProfileRecord`], which the policy streams over the uplink the
//!   instant the batch or step completes;
//! * the **controller half** (`ControllerHalf`) runs on the CPU: at each
//!   batch boundary it polls the uplink for records whose simulated delivery
//!   time has arrived, feeds its monitor, and runs any triggered threshold
//!   tuning / ramp adjustment; configuration changes are shipped back as
//!   [`ThresholdUpdate`]s over the downlink (~10 KB of ramp definitions when
//!   the ramp set changes) and take effect on the GPU only after delivery.
//!
//! The controller half owns both directions, one [`FeedbackLink`] each, and
//! both are charged against the [`LinkCost`] model, so every adaptation
//! decision lags reality by the coordination latency — the §4.5 overhead
//! experiment reads those charges back via
//! [`ApparatePolicy::overhead_report`]. The serving platform never sees the
//! link. The controller half never reads the live plan's observations
//! directly: everything it learns arrives through [`FeedbackLink::poll`],
//! which only hands out messages already delivered at the poll time. Records
//! carry each request's semantics; a tune rebuilds delivered requests' rows
//! under the controller's plan, which ingestion asserts (in every build) is
//! the ramp set each kept record ran under.
//!
//! Thresholds tuned offline on bootstrap data (§3.1) are part of the
//! deployment: [`ApparatePolicy::new`] builds both halves with them, so the
//! initial configuration reaches the GPU together with the model and no link
//! transfer is charged. Once built, the GPU half's configuration changes
//! only where a downlink delivery is polled (lint rule W001), with no
//! escape.
//!
//! Records are recycled after ingestion. The controller half polls the
//! uplink into one inbox it reuses, and keeps the last record it ingested
//! or dropped as stale; the GPU half clears and refills that record's
//! buffers for its next batch. The GPU half polls the downlink straight into
//! its held updates. So a batch's profile and both polls allocate only
//! when a buffer must grow.

use apparate_baselines::{calibration_window, exit_outcome, per_ramp_savings_us, RampDeployment};
use apparate_core::{
    adjust_ramps, greedy_tune, ramp_utilities, AdjustInput, ApparateConfig, GreedyParams, Monitor,
    ThresholdEvaluator, TrainedRamp, TuningWindow,
};
use apparate_exec::{
    ExecutionPlan, FeedbackLink, LinkCost, OverheadReport, ProfileRecord, RequestRelease,
    SampleSemantics, ThresholdUpdate,
};
use apparate_serving::{BatchOutcome, ExitPolicy, Request, StepOutcome, TokenPolicy, TokenSlot};
use apparate_sim::{SimDuration, SimTime};
use apparate_telemetry::{EventKind, LinkDirection, Telemetry};

/// Counters describing what the controller did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Threshold-tuning rounds executed.
    pub tuning_rounds: usize,
    /// Ramp-adjustment rounds executed.
    pub adjustment_rounds: usize,
    /// Adjustment rounds that changed the active ramp set.
    pub ramp_changes: usize,
    /// Threshold/ramp updates shipped over the downlink.
    pub updates_sent: usize,
    /// Profiling records ingested from the uplink.
    pub records_ingested: usize,
    /// Profiling records discarded because they predate a ramp-set change
    /// (their per-ramp observations no longer line up with the active ramps).
    pub records_dropped: usize,
    /// Observation rows built for the tuning window: one per delivered
    /// request still in the window when a tune reads it.
    pub rows_observed: usize,
    /// Configuration evaluations the online tunes performed
    /// ([`TuningOutcome::evaluations`](apparate_core::TuningOutcome), summed).
    pub tune_evaluations: usize,
    /// Tuning-window column entries the online tunes' scans visited
    /// ([`TuningWindow::slots_visited`]); 0 under `full_retune`.
    pub tune_slots_visited: usize,
}

/// Fraction of the accuracy budget the tuner may spend *in-window*; the rest
/// absorbs generalisation error and drift between retunes.
const TUNING_SAFETY: f64 = 0.6;

/// Cap on tuned thresholds at the default 1 % accuracy budget: an exit is
/// only taken on genuinely confident ramp output. Uncapped tuning saturates
/// deep-ramp thresholds whenever the window happens to contain no hard inputs
/// at that depth (censoring), which is exactly where drift then bites
/// hardest. The effective cap scales with the fourth root of the user's
/// budget relative to 1 % (see `tuning_params`): the
/// confidence bar an exit must clear is part of the same safety margin the
/// budget buys, which is what makes the Figure 19 sensitivity knob bite.
const MAX_TUNED_THRESHOLD: f64 = 0.35;

/// The accuracy budget [`MAX_TUNED_THRESHOLD`] is calibrated at.
const REFERENCE_ACCURACY_BUDGET: f64 = 0.01;

/// The GPU-resident half: executes batches under the configuration it has
/// *received*, which trails the controller's decisions by the downlink
/// latency.
struct GpuHalf {
    plan: ExecutionPlan,
    thresholds: Vec<f64>,
    config_epoch: u64,
    /// Epoch of the last ramp-set update applied (0: the initial set).
    ramp_epoch: u64,
    /// Updates delivered ahead of an earlier epoch that is still on the
    /// wire, held until it lands.
    held: Vec<ThresholdUpdate>,
    telemetry: Telemetry,
}

impl GpuHalf {
    /// Apply every configuration update delivered by `now`, in epoch order;
    /// each sets the configuration epoch stamped on outgoing profiles.
    ///
    /// The downlink is a lossless DMA queue, so it is FIFO: update N+1 takes
    /// effect only after update N. A small thresholds-only update can land
    /// before the larger ramp-set update issued just ahead of it, and is
    /// held until that one lands (its thresholds index the new ramp set).
    fn sync(&mut self, downlink: &mut FeedbackLink<ThresholdUpdate>, now: SimTime) {
        downlink.poll(now, &mut self.held);
        while let Some(next) = self
            .held
            .iter()
            .position(|u| u.config_epoch == self.config_epoch + 1)
        {
            let update = self.held.swap_remove(next);
            let ramps_changed = update.ramps.is_some();
            self.telemetry.emit(now, || EventKind::UpdateDelivered {
                epoch: update.config_epoch,
                ramps_changed,
            });
            if let Some(ramps) = update.ramps {
                self.plan = self.plan.with_ramps(ramps);
                self.ramp_epoch = update.config_epoch;
            }
            self.thresholds = update.thresholds;
            self.config_epoch = update.config_epoch;
            assert_eq!(
                self.thresholds.len(),
                self.plan.num_ramps(),
                "epoch {} deploys one threshold per ramp",
                self.config_epoch
            );
        }
        self.telemetry.gauge(
            now,
            "link_down_in_flight",
            (downlink.in_flight() + self.held.len()) as f64,
        );
    }

    /// Execute one batch of `(request id, semantics)` pairs, in batch order,
    /// under the deployed configuration: release decisions for the platform
    /// plus the record to stream to the controller, which the policy sends
    /// on the uplink at its completion time. A
    /// release reads only its exit ramp's observation; the controller
    /// rebuilds a request's full row from its semantics if a tune reads it.
    /// The record refills `spare`'s buffers, a record the controller half
    /// has done with, when there is one.
    fn execute(
        &self,
        requests: impl ExactSizeIterator<Item = (u64, SampleSemantics)>,
        spare: Option<ProfileRecord>,
    ) -> (BatchOutcome, ProfileRecord) {
        let b = requests.len();
        let (mut samples, mut releases) =
            spare.map_or_else(Default::default, |r| (r.samples, r.releases));
        samples.clear();
        releases.clear();
        let mut per_request = Vec::with_capacity(b);
        for (id, sample) in requests {
            let outcome = exit_outcome(
                &self.plan,
                self.plan.first_exit(&sample, &self.thresholds),
                b as u32,
            );
            releases.push(RequestRelease {
                id,
                exit: outcome.exit_ramp,
                correct: outcome.correct,
            });
            per_request.push(outcome);
            samples.push(sample);
        }
        let outcome = BatchOutcome {
            gpu_time: SimDuration::from_micros_f64(self.plan.gpu_batch_time_us(b as u32)),
            per_request,
        };
        let record = ProfileRecord {
            num_ramps: self.plan.num_ramps(),
            samples,
            releases,
            config_epoch: self.config_epoch,
            ramp_epoch: self.ramp_epoch,
        };
        (outcome, record)
    }
}

/// The CPU-resident half: monitors delivered profiling records and runs the
/// adaptation algorithms, publishing configuration changes on the downlink.
/// It owns both link directions.
struct ControllerHalf {
    /// The controller's mirror of the configuration it has *issued* (the GPU
    /// converges to it one downlink delivery later). Used for savings and
    /// overhead arithmetic, never for observations.
    plan: ExecutionPlan,
    config: ApparateConfig,
    thresholds: Vec<f64>,
    monitor: Monitor,
    /// Feasible-site bookkeeping for ramp adjustment.
    all_sites: Vec<apparate_core::RampSite>,
    active_sites: Vec<usize>,
    max_active: usize,
    capacity: f64,
    /// Reference batch size for savings/overhead accounting.
    reference_batch: u32,
    /// Per-feasible-site per-exit savings (µs) at the reference batch.
    site_savings_us: Vec<f64>,
    needs_tune: bool,
    records_since_tune: usize,
    /// Epoch of the last issued update; every publish bumps it.
    config_epoch: u64,
    /// Records stamped with an epoch below this predate a ramp-set change and
    /// are discarded (their observation vectors index the old ramp set).
    min_ingest_epoch: u64,
    uplink: FeedbackLink<ProfileRecord>,
    downlink: FeedbackLink<ThresholdUpdate>,
    /// The records of one uplink poll, in delivery order; empty between
    /// ingests.
    inbox: Vec<ProfileRecord>,
    /// The last record ingested or dropped as stale, whose buffers the GPU
    /// half refills for its next batch.
    spare: Option<ProfileRecord>,
    stats: ControllerStats,
    telemetry: Telemetry,
}

/// The (conservative) greedy-search parameters every tuning round under
/// `config` uses, the offline warm start included.
fn tuning_params(config: &ApparateConfig) -> GreedyParams {
    GreedyParams {
        // Tune against a fraction of the user's budget: the greedy search
        // picks the savings-maximal configuration that scrapes the in-window
        // floor, so its out-of-window accuracy is systematically below the
        // floor (winner's curse). Spending only part of the budget in-window
        // keeps the *realised* loss within the constraint.
        accuracy_loss_budget: config.accuracy_constraint * TUNING_SAFETY,
        initial_step: config.initial_step,
        smallest_step: config.smallest_step,
        // Budget-relative confidence cap, ∜-scaled: wrong-exit mass is
        // strongly super-linear in the entropy bar around the calibrated 0.35
        // point, so the bar must move much more slowly than the budget for
        // realised loss to stay inside the constraint at every grid point.
        // The upper clamp (0.45) marks where wrong-exit mass explodes under
        // the synthetic semantics model regardless of budget; the lower keeps
        // a tiny budget from disabling exits.
        max_threshold: (MAX_TUNED_THRESHOLD
            * (config.accuracy_constraint / REFERENCE_ACCURACY_BUDGET).powf(0.25))
        .clamp(0.05, 0.45),
    }
}

/// Warm-start thresholds from offline calibration samples (the bootstrap
/// validation split, §3.1): the paper tunes initial thresholds on bootstrap
/// data before serving begins, so the controller does not have to serve a
/// whole tuning window at thresholds 0 first. `None` when there is nothing
/// to tune (no samples or no ramps).
///
/// The result depends on nothing but its inputs, so a fleet whose replicas
/// share a deployment, configuration, reference batch and calibration set
/// tunes once and hands every replica a copy.
pub(crate) fn warm_start_thresholds(
    plan: &ExecutionPlan,
    config: &ApparateConfig,
    reference_batch: u32,
    calibration: &[SampleSemantics],
) -> Option<Vec<f64>> {
    let mut window = calibration_window(plan, calibration, reference_batch);
    warm_start_on(plan, config, reference_batch, &mut window)
}

/// [`warm_start_thresholds`] over `window`, the [`calibration_window`] of
/// `plan` at `reference_batch`, for a caller that tunes it more than once.
pub(crate) fn warm_start_on(
    plan: &ExecutionPlan,
    config: &ApparateConfig,
    reference_batch: u32,
    window: &mut TuningWindow,
) -> Option<Vec<f64>> {
    if window.is_empty() || plan.num_ramps() == 0 {
        return None;
    }
    let savings = per_ramp_savings_us(plan, reference_batch);
    Some(window.tune(&savings, tuning_params(config)).thresholds)
}

impl ControllerHalf {
    fn accuracy_floor(&self) -> f64 {
        1.0 - self.config.accuracy_constraint
    }

    /// Ship the current configuration to the GPU over the downlink, charging
    /// the transfer. `ramps_changed` additionally ships the new ramp
    /// definitions (~10 KB each, §4.5) and fences off stale profiling records.
    fn publish(&mut self, now: SimTime, ramps_changed: bool) {
        self.config_epoch += 1;
        if ramps_changed {
            self.min_ingest_epoch = self.config_epoch;
        }
        let update = ThresholdUpdate {
            config_epoch: self.config_epoch,
            thresholds: self.thresholds.clone(),
            ramps: ramps_changed.then(|| self.plan.ramps().to_vec()),
        };
        self.downlink.send(update, now);
        self.stats.updates_sent += 1;
        let epoch = self.config_epoch;
        self.telemetry.emit(now, || EventKind::UpdateIssued {
            epoch,
            ramps_changed,
        });
        self.telemetry
            .gauge(now, "active_ramps", self.active_sites.len() as f64);
    }

    /// Ingest every profiling record delivered by `now`, then run any
    /// triggered adaptation. This is the *only* path observations reach the
    /// controller: nothing the GPU produced after `now` (or still on the wire
    /// at `now`) can influence decisions made here.
    fn ingest(&mut self, now: SimTime) {
        self.uplink.poll(now, &mut self.inbox);
        for record in self.inbox.drain(..) {
            if record.config_epoch < self.min_ingest_epoch {
                self.stats.records_dropped += 1;
                if self.telemetry.is_enabled() {
                    self.telemetry.emit(now, || EventKind::StaleRecordDropped {
                        record_epoch: record.config_epoch,
                        min_epoch: self.min_ingest_epoch,
                    });
                    self.telemetry.counter("stale_records_dropped", 1);
                }
            } else {
                // The monitor rebuilds this record's rows under `self.plan`.
                assert_eq!(
                    (record.ramp_epoch, record.num_ramps),
                    (self.min_ingest_epoch, self.plan.num_ramps()),
                    "a kept record ran under the controller's ramp set"
                );
                self.stats.records_ingested += 1;
                // The monitor counts the record's exits for ramp adjustment
                // and queues its requests for the tuning window.
                self.monitor.record_batch(&record);
                self.records_since_tune += record.releases.len();
            }
            self.spare = Some(record);
        }
        self.telemetry
            .gauge(now, "link_up_in_flight", self.uplink.in_flight() as f64);
        self.maybe_adjust(now);
        self.maybe_tune(now);
    }

    fn maybe_tune(&mut self, now: SimTime) {
        // Tuning only ever runs on a *full* window: with the 0.99 accuracy
        // floor, a short window accepts threshold configurations with zero
        // in-window errors that generalise poorly (saturated thresholds),
        // which is precisely the over-aggressiveness the floor is meant to
        // prevent.
        if self.plan.num_ramps() == 0
            || self.monitor.tuning_window_len() < self.config.tuning_window
        {
            return;
        }
        let initial_due = self.needs_tune;
        let violation_due = self.monitor.accuracy_window_full()
            && self.monitor.windowed_accuracy() + 1e-12 < self.accuracy_floor()
            && self.records_since_tune >= self.config.accuracy_window;
        if !initial_due && !violation_due {
            return;
        }
        let savings = per_ramp_savings_us(&self.plan, self.reference_batch);
        let plan = &self.plan;
        let rows_observed = &mut self.stats.rows_observed;
        let window = self.monitor.tuning_window(|sample, row| {
            *rows_observed += 1;
            plan.observe_into(sample, row);
        });
        let outcome = if self.config.full_retune {
            // The materialising oracle: rebuild per-request records and run
            // the reference greedy search over them.
            let records = window.records();
            let evaluator = ThresholdEvaluator::new(&records, &savings);
            greedy_tune(&evaluator, tuning_params(&self.config))
        } else {
            let outcome = window.tune(&savings, tuning_params(&self.config));
            self.stats.tune_slots_visited = window.slots_visited() as usize;
            outcome
        };
        self.stats.tune_evaluations += outcome.evaluations;
        let thresholds_changed = self.thresholds != outcome.thresholds;
        self.thresholds = outcome.thresholds;
        self.needs_tune = false;
        self.records_since_tune = 0;
        // Restart the adjustment window: utilities must describe the ramps'
        // behaviour under the thresholds actually deployed.
        self.monitor.restart_adjust_window();
        self.stats.tuning_rounds += 1;
        self.publish(now, false);
        let epoch = self.config_epoch;
        self.telemetry.emit(now, || EventKind::TuningRound {
            epoch,
            thresholds_changed,
        });
    }

    fn maybe_adjust(&mut self, now: SimTime) {
        // Never adjust ramps that have not been threshold-tuned yet: with
        // all-zero thresholds nothing exits, every ramp's utility is pure
        // overhead, and the adjuster would (correctly, but uselessly)
        // deactivate the entire deployment before it ever got a chance.
        let window_requests = self.monitor.requests_since_adjust();
        if self.needs_tune
            || self.plan.num_ramps() == 0
            || window_requests < self.config.ramp_adjust_period as u64
        {
            return;
        }
        self.stats.adjustment_rounds += 1;
        let active_savings = per_ramp_savings_us(&self.plan, self.reference_batch);
        let active_overheads: Vec<f64> = self
            .plan
            .ramps()
            .iter()
            .map(|r| r.cost.latency_us(self.reference_batch))
            .collect();
        let utilities = ramp_utilities(
            self.monitor.exit_counts(),
            window_requests,
            &active_savings,
            &active_overheads,
        );
        let nets: Vec<f64> = utilities.iter().map(|u| u.net_us()).collect();
        let per_request_overhead_us = active_overheads.iter().copied().fold(0.0f64, f64::max);
        let decision = adjust_ramps(&AdjustInput {
            num_sites: self.all_sites.len(),
            active_sites: &self.active_sites,
            utilities_us: &nets,
            exit_rates: &self.monitor.exit_rates(),
            window_requests,
            per_exit_saving_us: &self.site_savings_us,
            per_request_overhead_us,
            max_active: self.max_active,
        });
        if decision.new_active != self.active_sites {
            // Carry thresholds for retained ramps; newly added ramps start at 0
            // until the post-adjustment tuning round (§3.3).
            let old: Vec<(usize, f64)> = self
                .active_sites
                .iter()
                .copied()
                .zip(self.thresholds.iter().copied())
                .collect();
            let placements = decision
                .new_active
                .iter()
                .map(|&idx| {
                    TrainedRamp {
                        site: self.all_sites[idx],
                        capacity: self.capacity,
                    }
                    .placement()
                })
                .collect();
            self.plan = self.plan.with_ramps(placements);
            self.thresholds = decision
                .new_active
                .iter()
                .map(|&idx| {
                    old.iter()
                        .find(|(site, _)| *site == idx)
                        .map(|(_, thr)| *thr)
                        .unwrap_or(0.0)
                })
                .collect();
            if self.telemetry.is_enabled() {
                let activated: Vec<usize> = decision
                    .new_active
                    .iter()
                    .copied()
                    .filter(|s| !self.active_sites.contains(s))
                    .collect();
                let deactivated: Vec<usize> = self
                    .active_sites
                    .iter()
                    .copied()
                    .filter(|s| !decision.new_active.contains(s))
                    .collect();
                let active_count = decision.new_active.len();
                self.telemetry.emit(now, || EventKind::RampSetChanged {
                    activated,
                    deactivated,
                    active_count,
                });
            }
            self.active_sites = decision.new_active;
            self.needs_tune = true;
            self.stats.ramp_changes += 1;
            // Recorded observations no longer line up with the new ramp
            // indices; the tuning window must refill (with new-epoch records)
            // before the next tune.
            self.monitor.reset_for_new_ramps(self.plan.num_ramps());
            self.publish(now, true);
        }
        self.monitor.restart_adjust_window();
    }
}

/// The name both policy hooks report.
const NAME: &str = "apparate";

/// Apparate's adaptive policy: the [`ExitPolicy`] for classification
/// serving and the [`TokenPolicy`] for generative decode steps, over one
/// replica's GPU half and controller half. Both halves are built with the
/// warm start, if any ([`ApparatePolicy::new`]), so it costs no link
/// transfer.
///
/// Both paths run the full loop: profiling records arrive over the charged
/// uplink, thresholds are re-tuned, and every `ramp_adjust_period` delivered
/// observations the controller re-selects the active ramp set by hindsight
/// latency savings vs. overhead (Algorithm 2) — deactivating negative-utility
/// ramps, trialling replacements, probing earlier sites. Generative ramps
/// reuse the decoder head at every block (§3.1), so training a candidate is
/// free, but which decoder depths pay for their evaluation overhead still
/// depends on the token stream. Every ramp-set change ships over the
/// downlink with epoch gating (batches or steps completed before delivery
/// still ran the old set; stale-epoch records are dropped) and is followed
/// by a threshold re-tune once the window refills with new-epoch records.
pub struct ApparatePolicy {
    gpu: GpuHalf,
    controller: ControllerHalf,
}

/// The token-path name of [`ApparatePolicy`].
pub type ApparateTokenPolicy = ApparatePolicy;

impl ApparatePolicy {
    /// Deploy Apparate over a prepared ramp deployment, with the paper's
    /// default PCIe link cost. `warm` holds thresholds tuned offline on the
    /// bootstrap validation split or calibration tokens (§3.1), one per
    /// deployed ramp: both halves start from them, loaded with the model so
    /// no link transfer is charged, and the warm start counts as the first
    /// tuning round. With `None` every threshold starts at 0 and the first
    /// tune happens online, once the window fills.
    pub fn new(
        deployment: RampDeployment,
        config: ApparateConfig,
        reference_batch: u32,
        warm: Option<Vec<f64>>,
    ) -> ApparatePolicy {
        ApparatePolicy::with_link(
            deployment,
            config,
            reference_batch,
            warm,
            LinkCost::default(),
        )
    }

    /// [`ApparatePolicy::new`] over an explicit GPU ↔ controller link cost
    /// model.
    fn with_link(
        deployment: RampDeployment,
        config: ApparateConfig,
        reference_batch: u32,
        warm: Option<Vec<f64>>,
        link: LinkCost,
    ) -> ApparatePolicy {
        config.validate().expect("valid Apparate configuration");
        let RampDeployment {
            plan,
            all_sites,
            active_sites,
            max_active,
            capacity,
        } = deployment;
        let site_savings_us = all_sites
            .iter()
            .map(|s| {
                (plan.vanilla_total_us(reference_batch)
                    - plan.site_prefix_us(s.site, reference_batch))
                .max(0.0)
            })
            .collect();
        let num_ramps = plan.num_ramps();
        let needs_tune = warm.is_none();
        let thresholds = warm.unwrap_or_else(|| vec![0.0; num_ramps]);
        ApparatePolicy {
            gpu: GpuHalf {
                plan: plan.clone(),
                thresholds: thresholds.clone(),
                config_epoch: 0,
                ramp_epoch: 0,
                held: Vec::new(),
                telemetry: Telemetry::disabled(),
            },
            controller: ControllerHalf {
                thresholds,
                monitor: Monitor::new(num_ramps, config.accuracy_window, config.tuning_window),
                plan,
                config,
                all_sites,
                active_sites,
                max_active,
                capacity,
                reference_batch,
                site_savings_us,
                needs_tune,
                records_since_tune: 0,
                config_epoch: 0,
                min_ingest_epoch: 0,
                uplink: FeedbackLink::new(link),
                downlink: FeedbackLink::new(link),
                inbox: Vec::new(),
                spare: None,
                stats: ControllerStats {
                    tuning_rounds: usize::from(!needs_tune),
                    ..ControllerStats::default()
                },
                telemetry: Telemetry::disabled(),
            },
        }
    }

    /// Deploy Apparate with thresholds warm-started on offline calibration
    /// samples (the bootstrap validation split, or calibration tokens, §3.1),
    /// then adapt online.
    pub fn warm_started(
        deployment: RampDeployment,
        config: ApparateConfig,
        reference_batch: u32,
        calibration: &[SampleSemantics],
    ) -> ApparatePolicy {
        let warm = warm_start_thresholds(&deployment.plan, &config, reference_batch, calibration);
        ApparatePolicy::new(deployment, config, reference_batch, warm)
    }

    /// One batch/step at simulated time `now`: the controller half acts on
    /// everything delivered by `now`, the GPU half applies every
    /// configuration update delivered by `now`, then executes `requests`.
    /// The caller sends the returned record on the uplink the instant the
    /// batch or step completes on the GPU, non-blocking for serving; the
    /// controller half sees it one link latency later (§3, §4.5).
    fn step(
        &mut self,
        requests: impl ExactSizeIterator<Item = (u64, SampleSemantics)>,
        now: SimTime,
    ) -> (BatchOutcome, ProfileRecord) {
        self.controller.ingest(now);
        self.gpu.sync(&mut self.controller.downlink, now);
        self.gpu.execute(requests, self.controller.spare.take())
    }

    /// Current per-ramp thresholds *as deployed on the GPU* (the controller's
    /// latest decision may still be on the wire).
    pub fn thresholds(&self) -> &[f64] {
        &self.gpu.thresholds
    }

    /// Currently active feasible-site indices (controller view).
    pub fn active_sites(&self) -> &[usize] {
        &self.controller.active_sites
    }

    /// Number of ramps in the plan the GPU is *currently executing* — trails
    /// [`ApparatePolicy::active_sites`] by the downlink latency after a
    /// ramp-set change.
    pub fn deployed_ramps(&self) -> usize {
        self.gpu.plan.num_ramps()
    }

    /// Adaptation counters.
    pub fn stats(&self) -> ControllerStats {
        self.controller.stats
    }

    /// Attach a telemetry sink: the controller traces ramp-set changes,
    /// update issue/delivery, stale-record drops and tuning rounds, and both
    /// link directions trace their messages. Call before serving, so every
    /// message of the run is traced.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.controller
            .uplink
            .set_telemetry(telemetry.clone(), LinkDirection::Up);
        self.controller
            .downlink
            .set_telemetry(telemetry.clone(), LinkDirection::Down);
        self.gpu.telemetry = telemetry.clone();
        self.controller.telemetry = telemetry;
    }

    /// An empty handle: the policy streams its own profiles. Kept only for
    /// perfbench's traced rebuild (`perfbench/src/traced.rs`), which only a
    /// benchmark change may edit; delete it with that file.
    pub fn feedback_sender(&self) {}

    /// Coordination charges accumulated so far, both directions (§4.5).
    pub fn overhead_report(&self) -> OverheadReport {
        OverheadReport {
            uplink: self.controller.uplink.stats(),
            downlink: self.controller.downlink.stats(),
        }
    }
}

impl ExitPolicy for ApparatePolicy {
    /// The batch's record is streamed last, when the batch frees the GPU.
    fn process_batch(&mut self, batch: &[Request], batch_start: SimTime) -> BatchOutcome {
        let (outcome, record) = self.step(batch.iter().map(|r| (r.id, r.semantics)), batch_start);
        self.controller
            .uplink
            .send(record, batch_start + outcome.gpu_time);
        outcome
    }

    fn name(&self) -> &str {
        NAME
    }
}

impl TokenPolicy for ApparatePolicy {
    /// The step's record is streamed last, when the step's slowest token
    /// releases: the step completes there, not at the batch's full GPU time
    /// (§3.4).
    fn process_step(&mut self, slots: &[TokenSlot], step_start: SimTime) -> StepOutcome {
        let (outcome, record) = self.step(
            slots.iter().map(|s| (s.request_id, s.semantics)),
            step_start,
        );
        let step = StepOutcome::from(outcome);
        self.controller
            .uplink
            .send(record, step_start + step.gpu_time);
        step
    }

    fn name(&self) -> &str {
        NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apparate_baselines::{deploy_budget_sites, offline_tuned_thresholds};
    use apparate_core::{ConfigEvaluation, RampArchitecture, RequestFeedback, TuningOutcome};
    use apparate_exec::SemanticsModel;
    use apparate_model::zoo;

    fn deployment(seed: u64) -> RampDeployment {
        let model = zoo::resnet(50);
        let semantics = SemanticsModel::new(seed, model.descriptor.overparameterization);
        deploy_budget_sites(
            &model,
            &semantics,
            &ApparateConfig::default(),
            RampArchitecture::Lightweight,
            400,
        )
    }

    fn request(i: u64, difficulty: f64) -> Request {
        Request::classification(
            i,
            SimTime::ZERO,
            SampleSemantics::new(i * 977, difficulty),
            None,
        )
    }

    /// Process one batch at `now`. Returns the outcome and the batch
    /// completion time (serial GPU: the next batch starts there).
    fn drive(
        policy: &mut ApparatePolicy,
        batch: &[Request],
        now: SimTime,
    ) -> (BatchOutcome, SimTime) {
        let out = policy.process_batch(batch, now);
        let completed = now + out.gpu_time;
        (out, completed)
    }

    #[test]
    fn controller_starts_conservative_then_tunes_up() {
        let mut policy = ApparatePolicy::new(deployment(3), ApparateConfig::default(), 4, None);
        assert!(policy.thresholds().iter().all(|&t| t == 0.0));
        // Feed easy traffic in batches of 8 until past the first tuning round.
        let mut exited_late = 0usize;
        let mut now = SimTime::ZERO;
        for round in 0..40u64 {
            let batch: Vec<Request> = (0..8)
                .map(|i| request(round * 8 + i, 0.15 + 0.1 * ((i % 4) as f64 / 4.0)))
                .collect();
            let (out, completed) = drive(&mut policy, &batch, now);
            now = completed;
            if round >= 10 {
                exited_late += out
                    .per_request
                    .iter()
                    .filter(|o| o.exit_ramp.is_some())
                    .count();
            }
        }
        assert!(policy.stats().tuning_rounds >= 1, "tuning should have run");
        assert!(
            policy.stats().updates_sent >= 1,
            "the tuned thresholds must have been shipped over the downlink"
        );
        assert!(
            policy.thresholds().iter().any(|&t| t > 0.0),
            "the tuned thresholds should have reached the GPU"
        );
        assert!(exited_late > 0, "easy inputs should exit after tuning");
    }

    #[test]
    fn controller_runs_ramp_adjustment_rounds() {
        let config = ApparateConfig::default();
        let mut policy = ApparatePolicy::new(deployment(9), config, 4, None);
        let mut now = SimTime::ZERO;
        for round in 0..150u64 {
            let batch: Vec<Request> = (0..8)
                .map(|i| request(round * 8 + i, 0.3 + 0.2 * ((i % 5) as f64 / 5.0)))
                .collect();
            let (_, completed) = drive(&mut policy, &batch, now);
            now = completed;
        }
        // 1 200 requests with a 128-request adjustment period (each tuning
        // round restarts the window): several rounds must have run.
        assert!(policy.stats().adjustment_rounds >= 2);
        // The active set stays within budget and sorted.
        let sites = policy.active_sites();
        assert!(sites.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn accuracy_stays_near_constraint_under_drift() {
        let mut policy = ApparatePolicy::new(deployment(11), ApparateConfig::default(), 4, None);
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut now = SimTime::ZERO;
        for round in 0..150u64 {
            // Difficulty drifts upward mid-run (scene change).
            let base = if round < 75 { 0.2 } else { 0.45 };
            let batch: Vec<Request> = (0..8)
                .map(|i| request(round * 8 + i, base + 0.05 * ((i % 3) as f64)))
                .collect();
            let (out, completed) = drive(&mut policy, &batch, now);
            now = completed;
            correct += out.per_request.iter().filter(|o| o.correct).count();
            total += out.per_request.len();
        }
        let accuracy = correct as f64 / total as f64;
        assert!(
            accuracy >= 0.97,
            "released accuracy {accuracy} should track the 1 % constraint"
        );
    }

    #[test]
    fn tuning_never_uses_observations_delivered_after_decision_time() {
        // A pathologically slow uplink: records take 10 s to arrive. The
        // controller keeps deciding at batch boundaries but must see nothing,
        // so thresholds stay at zero on both halves — even though, with a fast
        // link, the same traffic tunes within 40 rounds (see
        // controller_starts_conservative_then_tunes_up).
        let slow = LinkCost {
            fixed_us: 10_000_000.0,
            per_kib_us: 0.0,
        };
        let mut policy =
            ApparatePolicy::with_link(deployment(3), ApparateConfig::default(), 4, None, slow);
        let mut now = SimTime::ZERO;
        for round in 0..40u64 {
            let batch: Vec<Request> = (0..8)
                .map(|i| request(round * 8 + i, 0.15 + 0.1 * ((i % 4) as f64 / 4.0)))
                .collect();
            let (_, completed) = drive(&mut policy, &batch, now);
            now = completed;
        }
        assert_eq!(
            policy.stats().records_ingested,
            0,
            "records still on the wire must be invisible to the controller"
        );
        assert_eq!(policy.stats().tuning_rounds, 0);
        assert!(policy.thresholds().iter().all(|&t| t == 0.0));
        // Once simulated time passes the delivery horizon, the backlog lands
        // and the controller acts on it — proving the records were queued, not
        // lost, and that delivery time alone gated their visibility.
        let batch: Vec<Request> = (0..8).map(|i| request(10_000 + i, 0.2)).collect();
        let late = now + SimDuration::from_secs(11);
        drive(&mut policy, &batch, late);
        assert!(policy.stats().records_ingested > 0);
        assert!(policy.stats().tuning_rounds >= 1);
    }

    /// A generative-style deployment: decoder-head ramps, no bootstrap
    /// training set (§3.1).
    fn token_deployment(seed: u64) -> RampDeployment {
        let model = zoo::llama2_7b();
        let semantics = SemanticsModel::new(seed, model.descriptor.overparameterization);
        deploy_budget_sites(
            &model,
            &semantics,
            &ApparateConfig::default(),
            RampArchitecture::Lightweight,
            0,
        )
    }

    /// Offline calibration tokens (uniformly easy-to-moderate) for
    /// warm-starting the token controller.
    fn token_calibration(n: u64) -> Vec<SampleSemantics> {
        (0..n)
            .map(|i| SampleSemantics::new(i * 131, 0.2 + 0.2 * ((i % 5) as f64 / 5.0)))
            .collect()
    }

    fn slots(step: u64, batch: u64) -> Vec<TokenSlot> {
        (0..batch)
            .map(|i| TokenSlot {
                request_id: i,
                token_index: step as u32,
                semantics: SampleSemantics::new(step * 977 + i, 0.3 + 0.2 * ((i % 5) as f64 / 5.0)),
            })
            .collect()
    }

    /// Process one decode step at `now`. Returns the outcome and the step
    /// completion time.
    fn drive_token(
        policy: &mut ApparateTokenPolicy,
        step_slots: &[TokenSlot],
        now: SimTime,
    ) -> (StepOutcome, SimTime) {
        let out = policy.process_step(step_slots, now);
        let completed = now + out.gpu_time;
        (out, completed)
    }

    #[test]
    fn token_controller_activates_and_deactivates_ramps_at_runtime() {
        // The Algorithm 2 loop on the decode path: with enough delivered
        // token observations the controller must re-select its active ramp
        // set at least once (activate/deactivate by hindsight savings vs.
        // overhead), re-tune thresholds afterwards, and drop the profiling
        // records that predate the change (their observation vectors index
        // the old ramp set).
        let calibration = token_calibration(256);
        let mut policy = ApparateTokenPolicy::warm_started(
            token_deployment(3),
            ApparateConfig::default(),
            8,
            &calibration,
        );
        let initial_sites = policy.active_sites().to_vec();
        let mut now = SimTime::ZERO;
        for step in 0..400u64 {
            let (_, completed) = drive_token(&mut policy, &slots(step, 8), now);
            now = completed;
        }
        let stats = policy.stats();
        assert!(
            stats.adjustment_rounds >= 1,
            "the token controller must run Algorithm 2 rounds"
        );
        assert!(
            stats.ramp_changes >= 1,
            "the token controller must change the active ramp set at least once"
        );
        assert_ne!(
            policy.active_sites(),
            initial_sites.as_slice(),
            "the active set should differ from the initial deployment"
        );
        assert!(
            stats.records_dropped >= 1,
            "records in flight across a ramp-set change must be dropped, not misread"
        );
        assert!(
            stats.tuning_rounds >= 2,
            "each ramp-set change must be followed by a threshold re-tune \
             (warm start counts as the first round)"
        );
        // The active set stays sorted and within the site space.
        let sites = policy.active_sites();
        assert!(sites.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rows_are_built_only_when_a_tune_reads_them() {
        // An un-warmed controller over a free link: each step's record lands
        // by the next step and each update before the next step runs, so no
        // record goes stale. A tune builds one row per request delivered
        // since the previous tune or ramp-set change, at most a window's
        // worth; nothing else builds rows.
        let config = ApparateConfig::default();
        let window = config.tuning_window;
        let mut policy =
            ApparatePolicy::with_link(token_deployment(3), config, 8, None, LinkCost::FREE);
        let mut now = SimTime::ZERO;
        // Requests delivered since the last tune or ramp-set change.
        let mut unread = 0;
        let mut refilling = true;
        let mut short_tunes = 0;
        for step in 0..600u64 {
            let before = policy.stats();
            let delivered = policy.controller.monitor.total_requests();
            let (_, completed) = drive_token(&mut policy, &slots(step, 7), now);
            now = completed;
            let after = policy.stats();
            unread += (policy.controller.monitor.total_requests() - delivered) as usize;
            let built = after.rows_observed - before.rows_observed;
            if after.ramp_changes > before.ramp_changes {
                assert_eq!(
                    built, 0,
                    "step {step}: the change drops unread rows unbuilt"
                );
                (unread, refilling) = (0, true);
            } else if after.tuning_rounds > before.tuning_rounds {
                assert_eq!(built, unread.min(window), "step {step}");
                if refilling {
                    assert!(unread >= window, "step {step}: the window refills first");
                } else {
                    short_tunes += usize::from(unread < window);
                }
                (unread, refilling) = (0, false);
                if after.tuning_rounds == 1 {
                    assert_eq!(
                        after.rows_observed, window,
                        "the first tune fills the window"
                    );
                }
            } else {
                assert_eq!(built, 0, "step {step}: no tune, no rows");
            }
            // Three steps after the first tune, force one that reads 28 rows.
            if after.tuning_rounds == 1 && unread == 21 {
                policy.controller.needs_tune = true;
            }
        }
        let stats = policy.stats();
        assert!(
            short_tunes >= 1,
            "a tune must read fewer rows than the window"
        );
        assert!(stats.ramp_changes >= 1, "the run must change the ramp set");
        assert_eq!(stats.records_dropped, 0);
    }

    #[test]
    fn recycled_records_carry_exactly_their_own_batch() {
        // Batches of 8, 3, 1 and 5 requests, over a free link (each record
        // lands by the next batch) and over one slower than a batch whose
        // transfer time grows with the record, so one poll may land several
        // records, a later send first. Each batch runs the three stages of
        // `ApparatePolicy::step`, with checks between them.
        let slow = LinkCost {
            fixed_us: 20_000.0,
            per_kib_us: 20_000.0,
        };
        for link in [LinkCost::FREE, slow] {
            let mut policy =
                ApparatePolicy::with_link(deployment(3), ApparateConfig::default(), 4, None, link);
            // Every record sent, with when it lands.
            let mut sent: Vec<(SimTime, ProfileRecord)> = Vec::new();
            // Records landed so far; what ingesting each once should count.
            let (mut landed, mut ingested, mut dropped, mut requests) = (0, 0, 0, 0);
            let mut multi_polls = 0;
            let mut now = SimTime::ZERO;
            let mut next_id = 0;
            for (step, size) in [8u64, 3, 1, 5].into_iter().cycle().take(400).enumerate() {
                let fence = policy.controller.min_ingest_epoch;
                policy.controller.ingest(now);
                // The link's order: delivery time, then send order.
                let mut by_landing: Vec<&(SimTime, ProfileRecord)> =
                    sent.iter().filter(|(at, _)| *at <= now).collect();
                by_landing.sort_by_key(|(at, r)| (*at, r.releases[0].id));
                let new = &by_landing[landed..];
                for (_, record) in new {
                    if record.config_epoch < fence {
                        dropped += 1;
                    } else {
                        ingested += 1;
                        requests += record.releases.len() as u64;
                    }
                }
                let stats = policy.controller.stats;
                assert_eq!(
                    (stats.records_ingested, stats.records_dropped),
                    (ingested, dropped),
                    "step {step}: every landed record is taken once"
                );
                assert_eq!(
                    policy.controller.monitor.total_requests(),
                    requests,
                    "step {step}: every ingested request counts once"
                );
                if let Some((_, last)) = new.last() {
                    // The spare is the last record the poll landed.
                    let spare = policy.controller.spare.as_ref().expect("a spare record");
                    assert_eq!(format!("{spare:?}"), format!("{last:?}"), "step {step}");
                    multi_polls += usize::from(new.len() > 1);
                }
                landed = by_landing.len();
                policy.gpu.sync(&mut policy.controller.downlink, now);
                let batch: Vec<Request> = (next_id..next_id + size)
                    .map(|i| request(i, 0.15 + 0.1 * ((i % 4) as f64 / 4.0)))
                    .collect();
                next_id += size;
                let spare = policy.controller.spare.take();
                let (outcome, record) = policy
                    .gpu
                    .execute(batch.iter().map(|r| (r.id, r.semantics)), spare);
                assert_eq!(record.releases.len() as u64, size);
                assert_eq!(record.num_ramps, policy.gpu.plan.num_ramps());
                assert_eq!(
                    (record.config_epoch, record.ramp_epoch),
                    (policy.gpu.config_epoch, policy.gpu.ramp_epoch)
                );
                assert!(record
                    .releases
                    .iter()
                    .map(|r| r.id)
                    .eq(batch.iter().map(|r| r.id)));
                assert!(record.samples.iter().eq(batch.iter().map(|r| &r.semantics)));
                let completed = now + outcome.gpu_time;
                let deliver_at = policy.controller.uplink.send(record.clone(), completed);
                sent.push((deliver_at, record));
                now = completed;
            }
            let stats = policy.controller.stats;
            assert!(landed > 300 && stats.ramp_changes >= 1, "{stats:?}");
            if link.fixed_us > 0.0 {
                assert!(
                    multi_polls > 0 && dropped > 0,
                    "a poll must land several records, and stale ones drop: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn warm_start_is_part_of_the_deployment() {
        // Warm thresholds reach both halves at construction, before any
        // batch: the warm start counts as the first tuning round and ships
        // nothing over the link.
        let deployment = deployment(3);
        let ramps = deployment.plan.num_ramps();
        assert!(ramps >= 2, "the fixture must deploy several ramps");
        let warm: Vec<f64> = (1..=ramps).map(|r| 0.01 * r as f64).collect();
        let config = ApparateConfig::default();
        let policy = ApparatePolicy::new(deployment.clone(), config, 4, Some(warm.clone()));
        assert_eq!(policy.thresholds(), warm.as_slice());
        assert_eq!(policy.controller.thresholds, warm);
        assert_eq!(policy.stats().tuning_rounds, 1);
        assert_eq!(policy.overhead_report().total_messages(), 0);
        // Without a warm start every ramp starts closed and untuned.
        let cold = ApparatePolicy::new(deployment, config, 4, None);
        assert_eq!(cold.thresholds(), vec![0.0; ramps].as_slice());
        assert_eq!(cold.stats().tuning_rounds, 0);
    }

    #[test]
    fn apparate_decode_step_releases_like_a_batch() {
        // Two fresh controllers over one warm start: one serves the samples
        // as a batch, the other as a decode step. The step must release each
        // token as the batch released its result, free the GPU at its
        // slowest release (§3.4) and stream its record from there.
        let config = ApparateConfig::default();
        let deployment = token_deployment(3);
        let warm = warm_start_thresholds(&deployment.plan, &config, 8, &token_calibration(256));
        assert!(warm.is_some(), "the warm start must tune");
        let fresh = || ApparatePolicy::new(deployment.clone(), config, 8, warm.clone());
        let step_slots = slots(0, 8);
        let batch: Vec<Request> = step_slots
            .iter()
            .map(|s| Request::classification(s.request_id, SimTime::ZERO, s.semantics, None))
            .collect();
        let (mut batch_policy, mut step_policy) = (fresh(), fresh());
        let batch_out = batch_policy.process_batch(&batch, SimTime::ZERO);
        let step_out = step_policy.process_step(&step_slots, SimTime::ZERO);
        assert_eq!(step_out.per_token.len(), batch_out.per_request.len());
        for (token, result) in step_out.per_token.iter().zip(&batch_out.per_request) {
            assert_eq!(token.release_offset, result.release_offset);
            assert_eq!(token.exit_ramp, result.exit_ramp);
            assert_eq!(token.correct, result.correct);
        }
        assert!(batch_out.per_request.iter().any(|o| o.exit_ramp.is_some()));
        let slowest = batch_out.per_request.iter().map(|o| o.release_offset).max();
        assert_eq!(Some(step_out.gpu_time), slowest);
        // Each policy streamed one record, sent the instant its own batch or
        // step completed: it lands one transfer latency later, not sooner.
        for (policy, gpu_time) in [
            (&mut batch_policy, batch_out.gpu_time),
            (&mut step_policy, step_out.gpu_time),
        ] {
            let uplink = &mut policy.controller.uplink;
            let stats = uplink.stats();
            assert_eq!(stats.messages, 1);
            let deliver_at = SimTime::ZERO + gpu_time + stats.total_latency;
            let mut delivered = Vec::new();
            uplink.poll(deliver_at - SimDuration::from_micros(1), &mut delivered);
            assert!(delivered.is_empty());
            uplink.poll(deliver_at, &mut delivered);
            assert_eq!(delivered.len(), 1);
        }
    }

    #[test]
    fn traced_controller_events_reconcile_with_stats() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        let calibration = token_calibration(256);
        let mut policy = ApparateTokenPolicy::warm_started(
            token_deployment(3),
            ApparateConfig::default(),
            8,
            &calibration,
        );
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        policy.set_telemetry(telemetry.clone());
        let mut now = SimTime::ZERO;
        for step in 0..400u64 {
            let (_, completed) = drive_token(&mut policy, &slots(step, 8), now);
            now = completed;
        }
        let stats = policy.stats();
        let snap = telemetry.snapshot().expect("recording");
        assert_eq!(snap.count_kind("ramp-set-changed"), stats.ramp_changes);
        assert_eq!(snap.count_kind("update-issued"), stats.updates_sent);
        assert_eq!(
            snap.count_kind("stale-record-dropped"),
            stats.records_dropped
        );
        assert_eq!(
            snap.counter_total("stale_records_dropped") as usize,
            stats.records_dropped
        );
        assert!(stats.ramp_changes >= 1, "run must exercise a ramp change");
        // Every issued update is eventually delivered except those still on
        // the wire when the run ended.
        assert!(snap.count_kind("update-delivered") <= snap.count_kind("update-issued"));
        assert!(snap.count_kind("update-delivered") >= stats.ramp_changes);
        // The uplink trace reconciles with the charged link statistics.
        let report = policy.overhead_report();
        assert_eq!(
            snap.counter_total("link_up_messages"),
            report.uplink.messages
        );
        assert_eq!(snap.counter_total("link_up_bytes"), report.uplink.bytes);
        assert_eq!(
            snap.counter_total("link_down_messages"),
            report.downlink.messages
        );
        assert_eq!(snap.counter_total("link_down_bytes"), report.downlink.bytes);
        // The active-ramp gauge tracked the controller's decisions.
        assert!(!snap.series_named("active_ramps").is_empty());
    }

    #[test]
    fn token_ramp_set_changes_take_effect_only_after_downlink_delivery() {
        // A link slow enough (0.25 s each way) that many decode steps complete
        // between the controller's ramp-set decision and its delivery: every
        // one of those steps must still execute the old ramp set — a ramp-set
        // change never affects decode steps that completed before its
        // delivery time.
        let slow = LinkCost {
            fixed_us: 250_000.0,
            per_kib_us: 0.0,
        };
        let config = ApparateConfig::default();
        let deployment = token_deployment(3);
        let warm = warm_start_thresholds(&deployment.plan, &config, 8, &token_calibration(256));
        let mut policy = ApparateTokenPolicy::with_link(deployment, config, 8, warm, slow);
        let mut now = SimTime::ZERO;
        let mut decision: Option<(SimTime, usize)> = None;
        for step in 0..3_000u64 {
            let before_changes = policy.stats().ramp_changes;
            let deployed_before = policy.deployed_ramps();
            let (_, completed) = drive_token(&mut policy, &slots(step, 8), now);
            if decision.is_none() && policy.stats().ramp_changes > before_changes {
                // The controller decided during this step's poll; the GPU
                // plan it executed with was synced *before* any downlink
                // delivery of that decision could exist.
                decision = Some((now, deployed_before));
                assert_eq!(
                    policy.deployed_ramps(),
                    deployed_before,
                    "the GPU ramp set must not change in the decision step"
                );
            }
            if let Some((t0, old_ramps)) = decision {
                if policy.deployed_ramps() != old_ramps {
                    let lag = now.saturating_since(t0);
                    assert!(
                        lag >= SimDuration::from_micros(250_000),
                        "ramp set reached the GPU after {lag:?}, before the 0.25 s downlink latency"
                    );
                    return;
                }
            }
            now = completed;
        }
        panic!(
            "no GPU-visible ramp-set change observed (decision: {:?})",
            decision.map(|(t, _)| t)
        );
    }

    #[test]
    fn threshold_updates_take_effect_only_after_downlink_delivery() {
        // A link slow enough (0.5 s each way) that the GPU keeps serving with
        // zero thresholds for many batches after the controller has tuned.
        let slow = LinkCost {
            fixed_us: 500_000.0,
            per_kib_us: 0.0,
        };
        let mut policy =
            ApparatePolicy::with_link(deployment(3), ApparateConfig::default(), 4, None, slow);
        let mut now = SimTime::ZERO;
        let mut tuned_at: Option<SimTime> = None;
        for round in 0..200u64 {
            let batch: Vec<Request> = (0..8)
                .map(|i| request(round * 8 + i, 0.15 + 0.1 * ((i % 4) as f64 / 4.0)))
                .collect();
            let before_rounds = policy.stats().tuning_rounds;
            let (_, completed) = drive(&mut policy, &batch, now);
            if tuned_at.is_none() && policy.stats().tuning_rounds > before_rounds {
                tuned_at = Some(now);
                // The controller has decided, but the GPU copy is still zero:
                // the update is on the wire for the next 0.5 s.
                assert!(
                    policy.thresholds().iter().all(|&t| t == 0.0),
                    "GPU thresholds must not change before downlink delivery"
                );
            }
            if let Some(t0) = tuned_at {
                if policy.thresholds().iter().any(|&t| t > 0.0) {
                    let lag = now.saturating_since(t0);
                    assert!(
                        lag >= SimDuration::from_micros(500_000),
                        "thresholds applied after {lag:?}, before the 0.5 s downlink latency"
                    );
                    return;
                }
            }
            now = completed;
        }
        panic!("tuned thresholds never reached the GPU");
    }

    #[test]
    fn downlink_updates_apply_in_epoch_order() {
        // Transfer time dominated by size: a ramp-set update (10 KiB per
        // ramp) takes over 10 ms, a thresholds-only update well under 1 ms,
        // so the thresholds-only update issued 1 µs after the ramp-set one
        // lands first.
        let link = LinkCost {
            fixed_us: 10.0,
            per_kib_us: 1_000.0,
        };
        let mut policy =
            ApparatePolicy::with_link(deployment(3), ApparateConfig::default(), 4, None, link);
        let ramps = policy.gpu.plan.num_ramps();
        assert!(
            ramps >= 2,
            "the fixture must leave a ramp after dropping one"
        );
        let epoch0 = policy.gpu.thresholds.clone();
        let issued = SimTime::from_millis(5);
        let controller = &mut policy.controller;
        let mut kept = controller.plan.ramps().to_vec();
        kept.pop();
        controller.plan = controller.plan.with_ramps(kept);
        controller.active_sites.pop();
        controller.thresholds = vec![0.1; ramps - 1];
        controller.publish(issued, true);
        controller.thresholds = vec![0.2; ramps - 1];
        controller.publish(issued + SimDuration::from_micros(1), false);

        for at_ms in [6, 10, 14] {
            policy
                .gpu
                .sync(&mut policy.controller.downlink, SimTime::from_millis(at_ms));
            assert_eq!(
                policy.controller.downlink.in_flight(),
                1,
                "at {at_ms} ms only the ramp-set update is still on the wire"
            );
            assert_eq!(policy.gpu.config_epoch, 0, "at {at_ms} ms");
            assert_eq!(policy.gpu.thresholds, epoch0, "at {at_ms} ms");
            assert_eq!(policy.gpu.plan.num_ramps(), ramps, "at {at_ms} ms");
        }
        policy
            .gpu
            .sync(&mut policy.controller.downlink, SimTime::from_millis(1_000));
        assert_eq!(policy.controller.downlink.in_flight(), 0);
        assert_eq!(policy.gpu.config_epoch, 2);
        assert_eq!(policy.gpu.plan.num_ramps(), ramps - 1);
        assert_eq!(policy.gpu.thresholds, vec![0.2; ramps - 1]);
    }

    /// Compare two tuning outcomes bit for bit, every field.
    fn assert_same_outcome(fast: &TuningOutcome, oracle: &TuningOutcome) {
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast.thresholds), bits(&oracle.thresholds));
        let eval_bits =
            |e: &ConfigEvaluation| [e.accuracy, e.mean_savings_us, e.exit_rate].map(f64::to_bits);
        assert_eq!(eval_bits(&fast.evaluation), eval_bits(&oracle.evaluation));
        assert_eq!(fast.evaluations, oracle.evaluations);
    }

    #[test]
    fn offline_tuning_matches_the_full_greedy_oracle() {
        use crate::scenario::{
            cv_scenario, fixture, generative_calibration, generative_scenario, nlp_scenario,
            scenario_config, ReproSizes,
        };
        let config = scenario_config();
        let sizes = ReproSizes::quick();
        // The CV and NLP validation splits and the generative calibration
        // tokens every warm start and oneshot baseline tunes on.
        let mut cases: Vec<(ExecutionPlan, Vec<SampleSemantics>, u32)> = Vec::new();
        for seed in [42, 7] {
            for scenario in [
                cv_scenario(seed, sizes.cv_frames),
                nlp_scenario(seed, sizes.nlp_requests),
            ] {
                let (_, dep) = fixture(&scenario, &config);
                let validation = scenario.workload.bootstrap_split().validation.to_vec();
                cases.push((dep.plan, validation, scenario.reference_batch));
            }
            let scenario = generative_scenario(seed, sizes.gen_requests);
            let (_, dep) = fixture(&scenario, &config);
            let calibration = generative_calibration(&scenario.workload);
            cases.push((dep.plan, calibration, scenario.reference_batch));
        }
        let oneshot = GreedyParams {
            accuracy_loss_budget: config.accuracy_constraint,
            initial_step: config.initial_step,
            smallest_step: config.smallest_step,
            max_threshold: 1.0,
        };
        let mut exits = 0;
        for (plan, calibration, reference_batch) in &cases {
            // The same observations as per-request records for the full
            // evaluator.
            let records: Vec<RequestFeedback> = plan
                .execute_batch(calibration)
                .per_request
                .into_iter()
                .map(|obs| RequestFeedback {
                    observations: obs.ramp_observations,
                    exited: None,
                    correct: true,
                    batch_size: *reference_batch,
                })
                .collect();
            let savings = per_ramp_savings_us(plan, *reference_batch);
            let evaluator = ThresholdEvaluator::new(&records, &savings);
            // Both tunes read one shared calibration window, as a comparison
            // table's warm start and one-shot row do.
            let mut window = calibration_window(plan, calibration, *reference_batch);
            for params in [oneshot, tuning_params(&config)] {
                let fast = offline_tuned_thresholds(plan, calibration, params, *reference_batch);
                assert_same_outcome(&fast, &greedy_tune(&evaluator, params));
                let shared = window.tune(&savings, params);
                assert_same_outcome(&shared, &fast);
                exits += fast.thresholds.iter().filter(|&&t| t > 0.0).count();
            }
        }
        assert!(exits > 0, "some tune must open a ramp");
    }
}
