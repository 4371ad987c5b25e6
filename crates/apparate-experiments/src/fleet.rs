//! Fleet-level comparison runs: one scenario served by N replicas.
//!
//! `apparate-serving::fleet` provides the platform half of scale-out
//! (sharding, per-replica simulation, outcome pooling); this module supplies
//! the experiment half: for one classification scenario it builds a fleet of
//! N identical replicas — **each with its own GPU-half/controller-half pair
//! over its own charged [`FeedbackSender`](apparate_exec::FeedbackSender) /
//! [`FeedbackReceiver`](apparate_exec::FeedbackReceiver) link** — and runs
//! the vanilla, static-EE and Apparate fleets over the *same* shared arrival
//! trace and the same shards, so the resulting [`ComparisonTable`] is a
//! fleet-level analogue of the paper's per-replica win tables. Per-replica
//! coordination charges are summed into one fleet [`OverheadRow`]. Note the
//! §4.5 bill's shape under sharding: uplink messages track *batches*, so the
//! fleet-wide count stays roughly constant as N grows (the same stream, cut
//! into N thinner profiling streams), while downlink updates can *drop* with
//! N — each controller sees only its shard, so tuning windows fill N× more
//! slowly and short shards may never trigger a retune after warm-start.
//!
//! [`run_generative_fleet`] is the decode-loop counterpart: the same three
//! policy families over one shared generative request stream, whole sequences
//! dispatched per replica (decode state cannot migrate), each Apparate
//! replica running its own warm-started *token* controller — full Algorithm 2
//! loop, ramp-set adjustment included — over its own charged link. Its tables
//! read in TPT (time-per-token) instead of response latency.

use apparate_baselines::{batch_time_fn, vanilla_policy, RampDeployment, StaticExitPolicy};
use apparate_core::ApparateConfig;
use apparate_exec::OverheadReport;
use apparate_serving::{
    available_threads, shard_arrivals, stream_arrivals, AdmissionConfig, FleetDispatch,
    FleetOutcome, FleetOutcomeView, GenerativeFleetOutcome, GenerativeReplicaFleet, IngestSession,
    IngestStats, LatencySummary, ReplicaFleet, ReplicaUnit, RequestShard, ServingOutcome,
    TokenReplicaUnit, TraceShard,
};
use apparate_sim::{Percentiles, SimDuration};
use apparate_telemetry::Telemetry;

use crate::controller::{warm_start_thresholds, ApparatePolicy};
use crate::report::{ComparisonTable, OverheadRow};
use crate::scenario::{
    classification_fixture, generative_calibration, generative_fixture, generative_requests,
    scenario_config, total_tokens, ClassificationScenario, GenerativeScenario, WorkloadTokens,
    STATIC_THRESHOLD,
};

/// Result of serving one scenario with a fleet of N replicas.
pub struct FleetRun {
    /// Base scenario name (without the fleet suffix).
    pub scenario: String,
    /// Fleet size.
    pub replicas: usize,
    /// Dispatch policy of the front end.
    pub dispatch: FleetDispatch,
    /// Fleet-level win table: vanilla | static-ee | apparate over the pooled
    /// records, wins against the vanilla *fleet* of the same size.
    pub table: ComparisonTable,
    /// §4.5 coordination charges summed across the N Apparate controllers.
    pub overhead: OverheadRow,
    /// Requests dispatched to each replica (identical across the three
    /// policy families — sharding depends only on arrivals and dispatch).
    pub shard_sizes: Vec<usize>,
}

impl FleetRun {
    /// The Apparate fleet's win row.
    pub fn apparate(&self) -> &crate::report::PolicyRow {
        self.table.row("apparate").expect("apparate fleet row")
    }
}

/// The replicas' coordination charges, summed per direction.
fn fleet_overhead(policies: &[ApparatePolicy]) -> OverheadReport {
    let mut total = OverheadReport::default();
    for report in policies.iter().map(ApparatePolicy::overhead_report) {
        for (sum, part) in [
            (&mut total.uplink, report.uplink),
            (&mut total.downlink, report.downlink),
        ] {
            sum.messages += part.messages;
            sum.bytes += part.bytes;
            sum.total_latency += part.total_latency;
        }
    }
    total
}

/// Run the vanilla, static-EE and Apparate fleets of `replicas` replicas over
/// a classification scenario's shared arrival trace. Every replica runs the
/// scenario's serving config; each Apparate replica is warm-started on the
/// shared bootstrap validation split and coordinates over its own link.
/// Replicas execute wall-clock parallel on up to [`available_threads`]
/// workers; the merged outcome is identical for any thread count.
pub fn run_classification_fleet(
    scenario: &ClassificationScenario,
    replicas: usize,
    dispatch: FleetDispatch,
) -> FleetRun {
    run_classification_fleet_threaded(scenario, replicas, dispatch, available_threads())
}

/// Like [`run_classification_fleet`], with an explicit worker-thread count
/// (`1` ⇒ the sequential path).
pub fn run_classification_fleet_threaded(
    scenario: &ClassificationScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    threads: usize,
) -> FleetRun {
    run_classification_fleet_traced(
        scenario,
        replicas,
        dispatch,
        scenario_config(),
        &Telemetry::disabled(),
        threads,
    )
}

/// Like [`run_classification_fleet_threaded`], with an explicit controller
/// config and a telemetry sink attached to the Apparate fleet's run: the
/// dispatcher traces its per-arrival decisions, every replica's serving
/// events land in that replica's buffer (derived via
/// [`Telemetry::for_replica`]), and each replica's controller and links are
/// traced. The vanilla and static-EE fleets stay untraced.
pub fn run_classification_fleet_traced(
    scenario: &ClassificationScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    config: ApparateConfig,
    telemetry: &Telemetry,
    threads: usize,
) -> FleetRun {
    let (_, trace, dep_budget) = classification_fixture(scenario, &config);
    // The dispatcher's per-request service estimate: the batch-1 vanilla
    // execution time (what a production front end knows about the model).
    let service_estimate = classification_service_estimate(&dep_budget);
    // Sharding depends only on arrivals and dispatch, so all three policy
    // families serve these exact shards.
    let shards = shard_arrivals(&trace, replicas, dispatch, service_estimate);
    run_classification_fleet_over_shards(
        scenario, replicas, dispatch, config, telemetry, threads, &shards,
    )
}

/// The front end's per-request service estimate for a classification fleet:
/// the batch-1 vanilla execution time of the deployed model.
fn classification_service_estimate(dep_budget: &RampDeployment) -> SimDuration {
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(1))
}

/// Like [`run_classification_fleet_traced`], with the replay sharding step
/// replaced by streaming ingest: arrivals are consumed one at a time through
/// an [`IngestSession`] in passthrough mode (no admission), which makes
/// *exactly* the batch path's dispatch decisions — so the resulting table is
/// byte-identical to [`run_classification_fleet`] on the same scenario. This
/// is the determinism fence `tests/parallel.rs` diffs at every thread count.
pub fn run_classification_fleet_streamed(
    scenario: &ClassificationScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    threads: usize,
) -> FleetRun {
    let config = scenario_config();
    let (_, trace, dep_budget) = classification_fixture(scenario, &config);
    let service_estimate = classification_service_estimate(&dep_budget);
    let streamed = stream_arrivals(
        &trace,
        replicas,
        dispatch,
        service_estimate,
        None,
        &Telemetry::disabled(),
    );
    run_classification_fleet_over_shards(
        scenario,
        replicas,
        dispatch,
        config,
        &Telemetry::disabled(),
        threads,
        &streamed.shards,
    )
}

/// Serve pre-computed shards with the vanilla, static-EE and Apparate fleets.
/// Both the trace-replay path ([`run_classification_fleet_traced`]) and the
/// streamed-ingest paths ([`run_classification_fleet_streamed`],
/// [`run_admission_fleet`]) funnel through here, so identical shards produce
/// byte-identical tables regardless of how the arrivals were consumed.
#[allow(clippy::too_many_arguments)]
pub fn run_classification_fleet_over_shards(
    scenario: &ClassificationScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    config: ApparateConfig,
    telemetry: &Telemetry,
    threads: usize,
    shards: &[TraceShard],
) -> FleetRun {
    let split = scenario.workload.bootstrap_split();
    let serving_samples = split.serving;
    let n: usize = shards.iter().map(|s| s.indices.len()).sum();
    let (_, _, dep_budget) = classification_fixture(scenario, &config);
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let budget_plan = dep_budget.plan.clone();
    let fleet = ReplicaFleet::new(replicas, dispatch, scenario.serving.clone());

    let mut summaries: Vec<LatencySummary> = Vec::new();

    // Vanilla fleet.
    {
        let mut policies: Vec<_> = (0..replicas)
            .map(|_| vanilla_policy(&vanilla_plan))
            .collect();
        let estimate = batch_time_fn(&vanilla_plan);
        let out = fleet
            .serve(shards, serving_samples)
            .units(
                policies
                    .iter_mut()
                    .enumerate()
                    .map(|(r, p)| ReplicaUnit::new(format!("vanilla-{r}"), p, &estimate)),
            )
            .threads(threads)
            .run();
        summaries.push(out.summary("vanilla"));
    }
    // Static-EE fleet (fixed ramps, fixed threshold, no controller).
    {
        let mut policies: Vec<_> = (0..replicas)
            .map(|_| StaticExitPolicy::uniform(budget_plan.clone(), STATIC_THRESHOLD, "static-ee"))
            .collect();
        let estimate = batch_time_fn(&budget_plan);
        let out = fleet
            .serve(shards, serving_samples)
            .units(
                policies
                    .iter_mut()
                    .enumerate()
                    .map(|(r, p)| ReplicaUnit::new(format!("static-ee-{r}"), p, &estimate)),
            )
            .threads(threads)
            .run();
        summaries.push(out.summary("static-ee"));
    }
    // Apparate fleet: one warm-started controller per replica, each over its
    // own charged link.
    let (apparate_out, overhead) = apparate_fleet(
        &fleet,
        shards,
        serving_samples,
        split.validation,
        &dep_budget,
        config,
        scenario.reference_batch,
        telemetry,
        threads,
    );
    summaries.push(apparate_out.summary("apparate"));

    FleetRun {
        scenario: scenario.name.clone(),
        replicas,
        dispatch,
        table: ComparisonTable::new(
            format!("{} ×{replicas} ({dispatch})", scenario.name),
            "latency",
            summaries,
        ),
        overhead: OverheadRow {
            scenario: format!("{} ×{replicas}", scenario.name),
            requests: n as u64,
            report: overhead,
        },
        shard_sizes: apparate_out.shard_sizes,
    }
}

/// One warm-started Apparate controller per replica, each traced under its
/// replica tag, for either path. Every replica warm-starts on the same
/// inputs (the validation split, or calibration tokens), so the warm start is
/// tuned once and copied.
fn apparate_replicas(
    replicas: usize,
    dep_budget: &RampDeployment,
    config: ApparateConfig,
    reference_batch: u32,
    calibration: &[apparate_exec::SampleSemantics],
    telemetry: &Telemetry,
) -> Vec<ApparatePolicy> {
    let warm = warm_start_thresholds(&dep_budget.plan, &config, reference_batch, calibration);
    (0..replicas)
        .map(|r| {
            let mut policy = ApparatePolicy::new(dep_budget.clone(), config, reference_batch)
                .with_warm_start(warm.clone());
            // Controller events carry this replica's tag and land in its
            // per-replica buffer, so parallel replicas never contend.
            policy.set_telemetry(telemetry.for_replica(r as u32));
            policy
        })
        .collect()
}

/// Serve the pre-computed shards with one Apparate controller per replica and
/// sum the per-replica coordination charges.
#[allow(clippy::too_many_arguments)]
fn apparate_fleet(
    fleet: &ReplicaFleet,
    shards: &[TraceShard],
    serving_samples: &[apparate_exec::SampleSemantics],
    validation: &[apparate_exec::SampleSemantics],
    dep_budget: &RampDeployment,
    config: ApparateConfig,
    reference_batch: u32,
    telemetry: &Telemetry,
    threads: usize,
) -> (FleetOutcome<ServingOutcome>, OverheadReport) {
    // Only the Apparate fleet is traced: attach the sink to a clone of the
    // (config-only) fleet handle so the baseline families stay untraced.
    let fleet = fleet.clone().with_telemetry(telemetry.clone());
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let mut policies = apparate_replicas(
        fleet.replicas,
        dep_budget,
        config,
        reference_batch,
        validation,
        telemetry,
    );
    // Same ramp-budget-padded estimator contract as the single-replica run:
    // the controller may change its ramp set at runtime, but total ramp
    // overhead never exceeds the user's budget.
    let estimate = |b: u32| {
        SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(b) * (1.0 + config.ramp_budget))
    };
    let out = fleet
        .serve(shards, serving_samples)
        .units(policies.iter_mut().enumerate().map(|(r, p)| {
            let feedback = p.feedback_sender();
            ReplicaUnit::new(format!("apparate-{r}"), p, &estimate).with_feedback(feedback)
        }))
        .threads(threads)
        .run();
    (out, fleet_overhead(&policies))
}

/// Run the vanilla, static-EE and Apparate token-policy fleets of `replicas`
/// replicas over a generative scenario's shared request stream. Whole
/// sequences are dispatched (decode state cannot migrate); every replica runs
/// the scenario's continuous-batching config, and each Apparate replica
/// carries its own warm-started token controller over its own charged link —
/// running the full Algorithm 2 loop, ramp-set adjustment included. The
/// resulting [`FleetRun`] table is the TPT analogue of the classification
/// fleet's latency table.
pub fn run_generative_fleet(
    scenario: &GenerativeScenario,
    replicas: usize,
    dispatch: FleetDispatch,
) -> FleetRun {
    run_generative_fleet_threaded(scenario, replicas, dispatch, available_threads())
}

/// Like [`run_generative_fleet`], with an explicit worker-thread count
/// (`1` ⇒ the sequential path).
pub fn run_generative_fleet_threaded(
    scenario: &GenerativeScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    threads: usize,
) -> FleetRun {
    run_generative_fleet_traced(
        scenario,
        replicas,
        dispatch,
        &Telemetry::disabled(),
        threads,
    )
}

/// Like [`run_generative_fleet_threaded`], with a telemetry sink attached to
/// the Apparate fleet's run (see [`run_classification_fleet_traced`]).
pub fn run_generative_fleet_traced(
    scenario: &GenerativeScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    telemetry: &Telemetry,
    threads: usize,
) -> FleetRun {
    let config = scenario_config();
    let (_, dep_budget) = generative_fixture(scenario, &config);
    let per_token_estimate = generative_service_estimate(&dep_budget);
    let requests = generative_requests(scenario);
    let fleet = GenerativeReplicaFleet::new(replicas, dispatch, scenario.batching);
    // Sharding depends only on arrivals, output lengths and dispatch, so all
    // three policy families serve these exact shards.
    let shards = fleet.shard(&requests, per_token_estimate);
    run_generative_fleet_over_shards(scenario, replicas, dispatch, telemetry, threads, &shards)
}

/// The front end's per-*token* service estimate for a generative fleet: the
/// batch-1 decode-step time of the deployed model. A request's projected
/// service is this times its output length.
fn generative_service_estimate(dep_budget: &RampDeployment) -> SimDuration {
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(1))
}

/// Like [`run_generative_fleet_threaded`], with the replay sharding step
/// replaced by streaming ingest: whole sequences are offered one at a time
/// through an [`IngestSession`] in passthrough mode, each weighted by its
/// projected decode time, reproducing the batch
/// [`apparate_serving::shard_requests`] decisions exactly — so the resulting
/// table is byte-identical to [`run_generative_fleet`].
pub fn run_generative_fleet_streamed(
    scenario: &GenerativeScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    threads: usize,
) -> FleetRun {
    let config = scenario_config();
    let (_, dep_budget) = generative_fixture(scenario, &config);
    let per_token_estimate = generative_service_estimate(&dep_budget);
    let requests = generative_requests(scenario);
    let mut session = IngestSession::new(replicas, dispatch, per_token_estimate);
    for request in &requests {
        session.offer_weighted(
            request.arrival,
            request.projected_decode(per_token_estimate),
        );
    }
    let streamed = session.finish();
    // Rebuild whole-sequence shards from the streamed dispatch decisions:
    // the shard carries the actual requests, not just arrival times.
    let shards: Vec<RequestShard> = streamed
        .shards
        .iter()
        .map(|shard| RequestShard {
            requests: shard.indices.iter().map(|&i| requests[i].clone()).collect(),
            indices: shard.indices.clone(),
        })
        .collect();
    run_generative_fleet_over_shards(
        scenario,
        replicas,
        dispatch,
        &Telemetry::disabled(),
        threads,
        &shards,
    )
}

/// Serve pre-computed request shards with the vanilla, static-EE and Apparate
/// token-policy fleets. Both the replay path ([`run_generative_fleet_traced`])
/// and the streamed path ([`run_generative_fleet_streamed`]) funnel through
/// here, so identical shards produce byte-identical tables.
pub fn run_generative_fleet_over_shards(
    scenario: &GenerativeScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    telemetry: &Telemetry,
    threads: usize,
    shards: &[RequestShard],
) -> FleetRun {
    let config = scenario_config();
    let (_, dep_budget) = generative_fixture(scenario, &config);
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let budget_plan = dep_budget.plan.clone();
    let tokens = WorkloadTokens(&scenario.workload);
    let calibration = generative_calibration(&scenario.workload);
    let fleet = GenerativeReplicaFleet::new(replicas, dispatch, scenario.batching);

    let mut summaries: Vec<LatencySummary> = Vec::new();

    // Vanilla fleet.
    {
        let mut policies: Vec<_> = (0..replicas)
            .map(|_| vanilla_policy(&vanilla_plan))
            .collect();
        let out = fleet
            .serve(shards, &tokens)
            .units(
                policies
                    .iter_mut()
                    .enumerate()
                    .map(|(r, p)| TokenReplicaUnit::new(format!("vanilla-{r}"), p)),
            )
            .threads(threads)
            .run();
        summaries.push(out.summary("vanilla"));
    }
    // Static-EE fleet (fixed ramps, fixed threshold, no controller).
    {
        let mut policies: Vec<_> = (0..replicas)
            .map(|_| StaticExitPolicy::uniform(budget_plan.clone(), STATIC_THRESHOLD, "static-ee"))
            .collect();
        let out = fleet
            .serve(shards, &tokens)
            .units(
                policies
                    .iter_mut()
                    .enumerate()
                    .map(|(r, p)| TokenReplicaUnit::new(format!("static-ee-{r}"), p)),
            )
            .threads(threads)
            .run();
        summaries.push(out.summary("static-ee"));
    }
    // Apparate fleet: one warm-started token controller per replica, each
    // over its own charged link.
    let (apparate_out, overhead) = apparate_generative_fleet(
        &fleet,
        shards,
        &tokens,
        &calibration,
        &dep_budget,
        config,
        scenario.reference_batch,
        telemetry,
        threads,
    );
    summaries.push(apparate_out.summary("apparate"));

    FleetRun {
        scenario: scenario.name.clone(),
        replicas,
        dispatch,
        table: ComparisonTable::new(
            format!("{} ×{replicas} ({dispatch})", scenario.name),
            "tpt",
            summaries,
        ),
        overhead: OverheadRow {
            scenario: format!("{} ×{replicas}", scenario.name),
            requests: total_tokens(scenario),
            report: overhead,
        },
        shard_sizes: apparate_out.shard_sizes,
    }
}

/// Serve the pre-computed request shards with one Apparate token controller
/// per replica and sum the per-replica coordination charges.
#[allow(clippy::too_many_arguments)]
fn apparate_generative_fleet(
    fleet: &GenerativeReplicaFleet,
    shards: &[RequestShard],
    tokens: &WorkloadTokens<'_>,
    calibration: &[apparate_exec::SampleSemantics],
    dep_budget: &RampDeployment,
    config: ApparateConfig,
    reference_batch: u32,
    telemetry: &Telemetry,
    threads: usize,
) -> (GenerativeFleetOutcome, OverheadReport) {
    let fleet = fleet.clone().with_telemetry(telemetry.clone());
    let mut policies = apparate_replicas(
        fleet.replicas,
        dep_budget,
        config,
        reference_batch,
        calibration,
        telemetry,
    );
    let out = fleet
        .serve(shards, tokens)
        .units(policies.iter_mut().enumerate().map(|(r, p)| {
            let feedback = p.feedback_sender();
            TokenReplicaUnit::new(format!("apparate-{r}"), p).with_feedback(feedback)
        }))
        .threads(threads)
        .run();
    (out, fleet_overhead(&policies))
}

/// Result of one overload run: the same scenario served by the Apparate fleet
/// with and without SLO-driven admission control at the front end.
pub struct AdmissionFleetRun {
    /// Scenario name (carries the overload factor, e.g. `load×4`).
    pub scenario: String,
    /// Fleet size.
    pub replicas: usize,
    /// Dispatch policy of the front end.
    pub dispatch: FleetDispatch,
    /// Win table: vanilla | apparate | apparate+admission. The admission
    /// row's latencies and SLO verdicts are **honest**: measured from each
    /// request's *original* arrival (pacing delay included), with shed
    /// requests counting against attainment, never hidden.
    pub table: ComparisonTable,
    /// Front-end counters from the admission-controlled ingest session.
    pub ingest: IngestStats,
    /// Hysteresis oscillations in the admission decision log (pinned at zero
    /// by `tests/admission.rs`).
    pub oscillations: usize,
    /// SLO attainment of the Apparate fleet *without* admission control:
    /// on-time requests over offered requests.
    pub attainment_without: f64,
    /// SLO attainment *with* admission control: on-time requests (measured
    /// from original arrival) over offered requests — shed requests count as
    /// misses.
    pub attainment_with: f64,
    /// Requests dispatched to each replica under admission control.
    pub shard_sizes: Vec<usize>,
}

impl AdmissionFleetRun {
    /// Attainment improvement from admission control, in percentage points.
    pub fn attainment_delta_points(&self) -> f64 {
        (self.attainment_with - self.attainment_without) * 100.0
    }
}

/// Serve one classification scenario — typically an overloaded one, see
/// [`crate::scenario::diurnal_scenario`] and
/// [`ClassificationScenario::with_arrival_scale`] — with the Apparate fleet
/// twice: once over plain replay shards (every arrival dispatched, queues
/// unbounded) and once behind the streaming admission front end
/// ([`stream_arrivals`] with an [`AdmissionConfig`] derived from the
/// scenario's SLO). The vanilla fleet over the replay shards anchors the win
/// table.
///
/// Accounting is honest: admission-run latencies are measured from each
/// request's *original* arrival time (so pacing delay is charged, not
/// hidden), and attainment is on-time requests over *offered* requests, so
/// every shed request counts as a miss. The headline claim this supports:
/// under multi-× overload, shedding the requests the SLO model predicts
/// cannot be served on time keeps the survivors' queueing delay bounded and
/// raises fleet-wide attainment over the admit-everything fleet.
pub fn run_admission_fleet(
    scenario: &ClassificationScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    threads: usize,
) -> AdmissionFleetRun {
    let config = scenario_config();
    let slo = scenario
        .serving
        .slo
        .expect("admission control needs a response SLO");
    let (_, trace, dep_budget) = classification_fixture(scenario, &config);
    let service_estimate = classification_service_estimate(&dep_budget);

    // Pass 1: the admit-everything fleet over plain replay shards (the
    // vanilla row of the same run anchors the table's wins).
    let replay_shards = shard_arrivals(&trace, replicas, dispatch, service_estimate);
    let replay = run_classification_fleet_over_shards(
        scenario,
        replicas,
        dispatch,
        config,
        &Telemetry::disabled(),
        threads,
        &replay_shards,
    );
    let vanilla_summary = replay
        .table
        .row("vanilla")
        .expect("vanilla row")
        .summary
        .clone();
    let apparate_row = replay.table.row("apparate").expect("apparate row");
    let apparate_summary = apparate_row.summary.clone();
    // Replay dispatches every offered arrival, so attainment is just the
    // on-time fraction (records judge SLO against true arrival times).
    let attainment_without = 1.0 - apparate_summary.slo_violation_rate;

    // Pass 2: the same fleet behind the admission front end. Queue bound:
    // the number of batch-1 service slots that fit in one SLO — a request
    // admitted behind a full queue is exactly the request the model predicts
    // cannot finish inside its deadline, so a sustained overload sheds
    // instead of building backlog that defeats the SLO for everyone.
    let service_us = service_estimate.as_micros().max(1);
    let queue_bound = ((slo.as_micros() / service_us) as usize).max(1);
    let admission = AdmissionConfig::for_slo(slo, queue_bound);
    let streamed = stream_arrivals(
        &trace,
        replicas,
        dispatch,
        service_estimate,
        Some(admission),
        &Telemetry::disabled(),
    );

    let split = scenario.workload.bootstrap_split();
    let fleet = ReplicaFleet::new(replicas, dispatch, scenario.serving.clone());
    let (admitted_out, _overhead) = apparate_fleet(
        &fleet,
        &streamed.shards,
        split.serving,
        split.validation,
        &dep_budget,
        config,
        scenario.reference_batch,
        &Telemetry::disabled(),
        threads,
    );

    // Honest admission-row accounting: a record's id is its index within its
    // shard, whose `indices` point back at the offered stream — so recover
    // the original arrival and judge latency and the SLO against it.
    let mut adjusted_ms: Vec<f64> = Vec::new();
    let mut on_time = 0usize;
    let mut served = 0usize;
    for (replica, outcome) in admitted_out.per_replica.iter().enumerate() {
        let shard = &streamed.shards[replica];
        for record in &outcome.records {
            let original = trace.times()[shard.indices[record.id as usize]];
            adjusted_ms.push(record.released.saturating_since(original).as_millis_f64());
            served += 1;
            if record.released <= original + slo {
                on_time += 1;
            }
        }
    }
    let mut admission_summary = admitted_out.summary("apparate+admission");
    admission_summary.latency_ms = Percentiles::from_samples(&adjusted_ms);
    admission_summary.slo_violation_rate = if served == 0 {
        0.0
    } else {
        (served - on_time) as f64 / served as f64
    };
    let offered = streamed.stats.offered.max(1);
    let attainment_with = on_time as f64 / offered as f64;

    AdmissionFleetRun {
        scenario: scenario.name.clone(),
        replicas,
        dispatch,
        table: ComparisonTable::new(
            format!("{} ×{replicas} ({dispatch}) admission", scenario.name),
            "latency",
            vec![vanilla_summary, apparate_summary, admission_summary],
        ),
        ingest: streamed.stats,
        oscillations: streamed.oscillations(),
        attainment_without,
        attainment_with,
        shard_sizes: admitted_out.shard_sizes,
    }
}

/// Render the overload summary across admission runs: one row per
/// [`AdmissionFleetRun`], showing the front-end counters and the attainment
/// of the Apparate fleet with and without admission control. Deterministic,
/// like every other table in [`crate::report`].
pub fn render_admission_summary(runs: &[AdmissionFleetRun]) -> String {
    let mut out = crate::report::title_rule("overload admission summary");
    out.push_str(&format!(
        "{:<24} {:>8} {:>8} {:>7} {:>6} {:>7} {:>4} {:>8} {:>8} {:>7}\n",
        "scenario",
        "offered",
        "shed",
        "shed%",
        "max_q",
        "nudges",
        "osc",
        "att w/o",
        "att w/",
        "Δ pts",
    ));
    for run in runs {
        out.push_str(&format!(
            "{:<24} {:>8} {:>8} {:>6.1}% {:>6} {:>7} {:>4} {:>7.1}% {:>7.1}% {:>+7.1}\n",
            format!("{} ×{}", run.scenario, run.replicas),
            run.ingest.offered,
            run.ingest.shed,
            run.ingest.shed_rate() * 100.0,
            run.ingest.max_depth,
            run.ingest.nudges,
            run.oscillations,
            run.attainment_without * 100.0,
            run.attainment_with * 100.0,
            run.attainment_delta_points(),
        ));
    }
    out
}

/// Render the scale-out summary across fleet sizes: one row per [`FleetRun`],
/// showing the Apparate fleet's pooled latency, its wins against the vanilla
/// fleet of the same size, and the summed coordination bill. Deterministic,
/// like every other table in [`crate::report`].
pub fn render_fleet_summary(runs: &[FleetRun]) -> String {
    let title = match runs.first() {
        Some(run) => format!("fleet scale-out ({}, {})", run.scenario, run.dispatch),
        None => "fleet scale-out".to_string(),
    };
    let mut out = crate::report::title_rule(&title);
    out.push_str(&format!(
        "{:>8} {:>13} {:>9} {:>9} {:>8} {:>8} {:>7} {:>8} {:>8} {:>8}\n",
        "replicas",
        "shard min/max",
        "p50 ms",
        "p95 ms",
        "win@p50",
        "win@p95",
        "acc",
        "up msgs",
        "dn msgs",
        "ms/msg",
    ));
    for run in runs {
        let row = run.apparate();
        let min = run.shard_sizes.iter().copied().min().unwrap_or(0);
        let max = run.shard_sizes.iter().copied().max().unwrap_or(0);
        let report = &run.overhead.report;
        let ms_per_msg = if report.total_messages() == 0 {
            0.0
        } else {
            report.total_latency().as_millis_f64() / report.total_messages() as f64
        };
        out.push_str(&format!(
            "{:>8} {:>13} {:>9.2} {:>9.2} {:>7.1}% {:>7.1}% {:>7.3} {:>8} {:>8} {:>8.3}\n",
            run.replicas,
            format!("{min}/{max}"),
            row.summary.latency_ms.p50,
            row.summary.latency_ms.p95,
            row.wins.p50,
            row.wins.p95,
            row.summary.accuracy,
            report.uplink.messages,
            report.downlink.messages,
            ms_per_msg,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{cv_scenario, generative_scenario};

    fn assert_same_bits(replica: &[f64], single: &[f64]) {
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(replica), bits(single));
    }

    #[test]
    fn fleet_replicas_carry_the_single_policy_warm_start() {
        let scenario = cv_scenario(42, 1_200);
        let config = scenario_config();
        let (_, _, dep_budget) = classification_fixture(&scenario, &config);
        let validation = scenario.workload.bootstrap_split().validation;
        let single = ApparatePolicy::warm_started(
            dep_budget.clone(),
            config,
            scenario.reference_batch,
            validation,
        );
        assert_eq!(single.stats().tuning_rounds, 1, "the warm start must tune");
        let replicas = apparate_replicas(
            3,
            &dep_budget,
            config,
            scenario.reference_batch,
            validation,
            &Telemetry::disabled(),
        );
        assert_eq!(replicas.len(), 3);
        for replica in &replicas {
            assert_same_bits(replica.thresholds(), single.thresholds());
            assert_eq!(replica.stats(), single.stats());
        }
    }

    #[test]
    fn token_fleet_replicas_carry_the_single_policy_warm_start() {
        let scenario = generative_scenario(42, 24);
        let config = scenario_config();
        let (_, dep_budget) = generative_fixture(&scenario, &config);
        let calibration = generative_calibration(&scenario.workload);
        let single = ApparatePolicy::warm_started(
            dep_budget.clone(),
            config,
            scenario.reference_batch,
            &calibration,
        );
        assert_eq!(single.stats().tuning_rounds, 1, "the warm start must tune");
        let replicas = apparate_replicas(
            3,
            &dep_budget,
            config,
            scenario.reference_batch,
            &calibration,
            &Telemetry::disabled(),
        );
        assert_eq!(replicas.len(), 3);
        for replica in &replicas {
            assert_same_bits(replica.thresholds(), single.thresholds());
            assert_eq!(replica.stats(), single.stats());
        }
    }
}
